//! Partitioned parallel execution.
//!
//! The engine parallelizes filter and group-by by splitting tables into
//! fixed-size row blocks ([`BLOCK_ROWS`]) and processing blocks on a
//! scoped thread pool. Two properties make results reproducible:
//!
//! * **Fixed partitioning** — block boundaries depend only on the row
//!   count, never on the thread count, so per-block partial results are
//!   the same objects sequentially and in parallel.
//! * **Ordered merge** — partials are always combined in block order.
//!
//! Together these make the parallel path **bit-identical** to the
//! sequential path: the sequential path is simply the same block loop run
//! on one thread.
//!
//! The row gather behind sort and join fans out the other way, by
//! column ([`try_map_items`] over the output columns): each column is
//! gathered whole by one worker, so its bytes cannot depend on the
//! thread count either.
//!
//! Both go through one work-claiming loop, which adds cooperative
//! cancellation: workers re-check a [`CancelToken`] before claiming each
//! item, so a query whose deadline has passed stops within one block of
//! a scan, or one column of a gather (`QueryError::Cancelled`), instead
//! of finishing. A token that is never set leaves the schedule and
//! results untouched. [`map_items`] is the same loop with no token, for
//! code outside the engine: borg-core draws its statistical-mode samples
//! and Table 2's columns on it and spawns no thread of its own.

use crate::cancel::{self, CancelToken};
use crate::error::QueryError;
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Rows per partition block. Fixed (never derived from the thread count)
/// so that partial-aggregation boundaries — and therefore float
/// accumulation order — are identical however many threads run.
pub const BLOCK_ROWS: usize = 1 << 16;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces the engine to use exactly `n` worker threads (`0` restores
/// auto-detection). Intended for tests and tuning; the default uses the
/// machine's available parallelism.
pub fn override_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The worker-thread count the engine will use.
pub fn num_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        n => n,
    }
}

/// Splits `n_rows` into fixed blocks, applies `f(block_index, rows)` to
/// every block on up to `threads` workers, and returns the results in
/// block order. `f` must be pure; scheduling cannot affect the output.
pub fn map_blocks<T, F>(n_rows: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    // With no token, try_map_blocks never cancels; the default is unreachable.
    try_map_blocks(n_rows, threads, None, f).unwrap_or_default()
}

/// [`map_blocks`] with cooperative cancellation: every worker checks
/// `cancel` before claiming each block, and the whole call returns
/// [`QueryError::Cancelled`] — discarding all partial results — once the
/// token is set. With `cancel: None` (or a token that is never set) the
/// block schedule, accumulation order, and results are exactly those of
/// [`map_blocks`]: cancellation can stop work early but can never change
/// what a completed call returns.
///
/// Each claimed block is also noted on the token
/// ([`CancelToken::note_block`]) so the caller can attribute block-scan
/// progress to the attempt — purely observational, no effect on the
/// schedule or results.
pub fn try_map_blocks<T, F>(
    n_rows: usize,
    threads: usize,
    cancel: Option<&CancelToken>,
    f: F,
) -> Result<Vec<T>, QueryError>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    try_map_items(n_rows.div_ceil(BLOCK_ROWS), threads, cancel, |b| {
        if let Some(tok) = cancel {
            tok.note_block();
        }
        f(b, b * BLOCK_ROWS..((b + 1) * BLOCK_ROWS).min(n_rows))
    })
}

/// The work-claiming loop with no token: applies `f` to every item index
/// in `0..n_items` on up to `threads` workers and returns the results in
/// item order. `f` must be pure; scheduling cannot affect the output.
pub fn map_items<T, F>(n_items: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // With no token, try_map_items never cancels; the default is unreachable.
    try_map_items(n_items, threads, None, f).unwrap_or_default()
}

/// The engine's one work-claiming loop: applies `f` to every item index
/// in `0..n_items` on up to `threads` workers and returns the results in
/// item order. One item, or one thread, runs on the calling thread and
/// spawns nothing. Every worker checks `cancel` before claiming each
/// item; once the token is set the call returns
/// [`QueryError::Cancelled`] and drops what was computed. A panic in `f`
/// is re-raised on the caller with its own payload once every worker has
/// stopped. `f` must be pure; scheduling cannot affect the output.
pub(crate) fn try_map_items<T, F>(
    n_items: usize,
    threads: usize,
    cancel: Option<&CancelToken>,
    f: F,
) -> Result<Vec<T>, QueryError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n_items <= 1 {
        let mut out = Vec::with_capacity(n_items);
        for i in 0..n_items {
            cancel::check(cancel)?;
            out.push(f(i));
        }
        return Ok(out);
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = Vec::with_capacity(n_items);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(n_items))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        if cancel.is_some_and(CancelToken::is_cancelled) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n_items {
                            break;
                        }
                        done.push((i, f(i)));
                    }
                    done
                })
            })
            .collect();
        for w in workers {
            match w.join() {
                Ok(items) => done.extend(items),
                // The scope joins the remaining workers before this
                // unwinds out of it.
                Err(payload) => resume_unwind(payload),
            }
        }
    });
    cancel::check(cancel)?;
    // Uncancelled, the fetch_add work loop covered 0..n_items exactly once.
    debug_assert_eq!(done.len(), n_items);
    done.sort_unstable_by_key(|&(i, _)| i);
    Ok(done.into_iter().map(|(_, value)| value).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_cover_all_rows_in_order() {
        let n = BLOCK_ROWS * 2 + 17;
        for threads in [1, 4] {
            let ranges = map_blocks(n, threads, |b, r| (b, r));
            assert_eq!(ranges.len(), 3);
            assert_eq!(ranges[0].1, 0..BLOCK_ROWS);
            assert_eq!(ranges[2].1, BLOCK_ROWS * 2..n);
            for (i, (b, _)) in ranges.iter().enumerate() {
                assert_eq!(i, *b);
            }
        }
    }

    #[test]
    fn empty_input_yields_no_blocks() {
        let out = map_blocks(0, 4, |_, _| 1u32);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_matches_sequential() {
        let n = BLOCK_ROWS * 3 + 5;
        let seq = map_blocks(n, 1, |_, r| r.sum::<usize>());
        let par = map_blocks(n, 8, |_, r| r.sum::<usize>());
        assert_eq!(seq, par);
    }

    #[test]
    fn uncancelled_token_matches_plain_map_blocks() {
        let n = BLOCK_ROWS * 2 + 9;
        let token = CancelToken::new();
        for threads in [1, 4] {
            let plain = map_blocks(n, threads, |b, r| (b, r.sum::<usize>()));
            let tried = try_map_blocks(n, threads, Some(&token), |b, r| (b, r.sum::<usize>()))
                .expect("token never set");
            assert_eq!(plain, tried);
        }
    }

    #[test]
    fn completed_scans_note_every_block_on_the_token() {
        let n = BLOCK_ROWS * 3 + 5;
        for threads in [1, 4] {
            let token = CancelToken::new();
            let out = try_map_blocks(n, threads, Some(&token), |b, _| b).expect("never cancelled");
            assert_eq!(out.len(), 4);
            assert_eq!(token.blocks_scanned(), 4, "threads={threads}");
        }
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_block() {
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 8] {
            let counted = AtomicUsize::new(0);
            let out = try_map_blocks(BLOCK_ROWS * 4, threads, Some(&token), |b, _| {
                counted.fetch_add(1, Ordering::SeqCst);
                b
            });
            assert_eq!(out, Err(QueryError::Cancelled));
            assert_eq!(counted.load(Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn mid_scan_cancellation_stops_at_a_block_boundary() {
        // Cancel from inside block 1 of a sequential scan: block 2 must
        // never run.
        let token = CancelToken::new();
        let seen = AtomicUsize::new(0);
        let out = try_map_blocks(BLOCK_ROWS * 3, 1, Some(&token), |b, _| {
            seen.fetch_add(1, Ordering::SeqCst);
            if b == 1 {
                token.cancel();
            }
            b
        });
        assert_eq!(out, Err(QueryError::Cancelled));
        assert_eq!(seen.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn items_come_back_in_order_whatever_the_thread_count() {
        for threads in [1, 2, 8] {
            let out = map_items(9, threads, |i| i * i);
            assert_eq!(out, (0..9).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(map_items(0, 4, |i| i).is_empty());
    }

    #[test]
    fn one_item_or_one_thread_stays_on_the_calling_thread() {
        thread_local!(static IS_CALLER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) });
        IS_CALLER.set(true);
        let on_caller = |n_items, threads| {
            try_map_items(n_items, threads, None, |_| IS_CALLER.get()).expect("no token")
        };
        assert_eq!(on_caller(1, 8), vec![true]);
        assert_eq!(on_caller(3, 1), vec![true; 3]);
        assert_eq!(on_caller(3, 2), vec![false; 3]);
    }

    #[test]
    fn an_item_panic_surfaces_on_the_caller_with_its_own_message() {
        for threads in [1, 2] {
            let payload = std::panic::catch_unwind(|| {
                map_items(3, threads, |i| {
                    if i == 1 {
                        panic!("item {i} rejected");
                    }
                    i
                })
            })
            .expect_err("item 1 panics");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            assert_eq!(msg, Some("item 1 rejected"), "threads={threads}");
        }
    }

    #[test]
    fn a_token_set_by_the_first_claimed_item_stops_before_the_last() {
        // Three columns of a gather: whoever claims column 0 sets the
        // token, column 1 (claimable at the same moment on a second
        // worker) does not finish before it is set, so column 2 can only
        // be reached through a check that sees it.
        for threads in [1, 2] {
            let token = CancelToken::new();
            let ran = [const { AtomicUsize::new(0) }; 3];
            let out = try_map_items(3, threads, Some(&token), |i| {
                ran[i].fetch_add(1, Ordering::SeqCst);
                match i {
                    0 => token.cancel(),
                    _ => {
                        while !token.is_cancelled() {
                            std::thread::yield_now();
                        }
                    }
                }
                i
            });
            assert_eq!(out, Err(QueryError::Cancelled), "threads={threads}");
            assert_eq!(ran[0].load(Ordering::SeqCst), 1, "threads={threads}");
            assert_eq!(ran[2].load(Ordering::SeqCst), 0, "threads={threads}");
            assert_eq!(token.blocks_scanned(), 0, "a gather notes no scan block");
        }
    }

    #[test]
    fn thread_override_round_trips() {
        override_threads(3);
        assert_eq!(num_threads(), 3);
        override_threads(0);
        assert!(num_threads() >= 1);
    }
}
