//! Running many cells in parallel.
//!
//! The 2019 trace covers eight cells; [`run_cells_parallel`] simulates
//! them concurrently (the cells are independent systems, as in the real
//! fleet) and returns the outcomes in profile order. Workers claim the
//! next unclaimed cell from one atomic counter until none remain, so no
//! core idles while a cell is still waiting, and no more threads run
//! than the host has cores: a 100-profile policy sweep does not spawn
//! 100 threads. Every outcome is tagged with its profile index and put
//! back in profile order, so which worker ran which cell changes neither
//! the order nor any bit of an outcome.
//!
//! The loop (`map_items` below) is `borg_query::parallel::map_items` without
//! the cancel token. borg-sim does not depend on borg-query, so it is
//! written out here; the two loops merge when the dependency-free
//! kernels crate (ROADMAP item 2(c)) lands.

use crate::cell::{CellOutcome, CellSim};
use crate::config::SimConfig;
use borg_workload::cells::CellProfile;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Simulates every profile concurrently on up to one thread per core,
/// seeding each cell deterministically from `cfg.seed` and its index.
/// Results are in the same order as `profiles`, bit-identical to running
/// the cells sequentially with the same derived seeds. A cell's panic
/// (an invalid `cfg`, say) is re-raised on the caller with its own
/// payload.
pub fn run_cells_parallel(profiles: &[CellProfile], cfg: &SimConfig) -> Vec<CellOutcome> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    run_cells_on(threads, profiles, cfg)
}

/// [`run_cells_parallel`] on `threads` threads (one: everything on the
/// caller).
fn run_cells_on(threads: usize, profiles: &[CellProfile], cfg: &SimConfig) -> Vec<CellOutcome> {
    map_items(profiles.len(), threads, |i| {
        let mut cell_cfg = cfg.clone();
        cell_cfg.seed = cfg.seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9));
        CellSim::run_cell(&profiles[i], &cell_cfg)
    })
}

/// The work-claiming loop: applies `f` to every item index in
/// `0..n_items` on up to `threads` workers and returns the results in
/// item order. One item, or one thread, runs on the calling thread and
/// spawns nothing. A panic in `f` is re-raised on the caller with its
/// own payload once every worker has stopped.
fn map_items<T, F>(n_items: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n_items <= 1 {
        return (0..n_items).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = Vec::with_capacity(n_items);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(n_items))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
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
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_trace::time::Micros;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn parallel_matches_sequential() {
        let profiles = vec![CellProfile::cell_2019('a'), CellProfile::cell_2019('b')];
        let mut cfg = SimConfig::tiny_for_tests(7);
        cfg.horizon = Micros::from_hours(6);
        let parallel = run_cells_parallel(&profiles, &cfg);
        assert_eq!(parallel.len(), 2);
        // Sequential runs with the same derived seeds must match exactly:
        // every trace table byte for byte, and the full metrics struct —
        // counting events would miss reordered or corrupted records.
        for (i, outcome) in parallel.iter().enumerate() {
            let mut cell_cfg = cfg.clone();
            cell_cfg.seed = cfg.seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9));
            let seq = CellSim::run_cell(&profiles[i], &cell_cfg);
            assert_eq!(
                seq.trace.machine_events, outcome.trace.machine_events,
                "cell {i}: machine events diverge"
            );
            assert_eq!(
                seq.trace.collection_events, outcome.trace.collection_events,
                "cell {i}: collection events diverge"
            );
            assert_eq!(
                seq.trace.instance_events, outcome.trace.instance_events,
                "cell {i}: instance events diverge"
            );
            assert_eq!(
                seq.trace.usage, outcome.trace.usage,
                "cell {i}: usage records diverge"
            );
            assert_eq!(seq.metrics, outcome.metrics, "cell {i}: metrics diverge");
        }
    }

    #[test]
    fn cells_get_distinct_seeds() {
        let profiles = vec![CellProfile::cell_2019('a'), CellProfile::cell_2019('a')];
        let mut cfg = SimConfig::tiny_for_tests(9);
        cfg.horizon = Micros::from_hours(6);
        let outcomes = run_cells_parallel(&profiles, &cfg);
        // Same profile, different seeds → different workloads.
        assert_ne!(
            outcomes[0].trace.collection_events.len(),
            outcomes[1].trace.collection_events.len()
        );
    }

    #[test]
    fn more_profiles_than_cores_still_all_run() {
        // Ten cells must not mean ten threads, and claiming them one at
        // a time must keep profile order.
        let profiles: Vec<CellProfile> = "abcd"
            .chars()
            .cycle()
            .take(10)
            .map(CellProfile::cell_2019)
            .collect();
        let mut cfg = SimConfig::tiny_for_tests(3);
        cfg.horizon = Micros::from_hours(2);
        cfg.scale = 0.001;
        let outcomes = run_cells_parallel(&profiles, &cfg);
        assert_eq!(outcomes.len(), 10);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(
                o.trace.cell_name, profiles[i].name,
                "outcome {i} out of profile order"
            );
        }
    }

    #[test]
    fn outcomes_are_the_same_for_any_thread_count() {
        // Five cells: more than two or three threads, and a multiple of
        // neither, so some worker claims a second cell while another is
        // still busy with its first.
        let profiles: Vec<CellProfile> = "abcde".chars().map(CellProfile::cell_2019).collect();
        let mut cfg = SimConfig::tiny_for_tests(11);
        cfg.horizon = Micros::from_hours(3);
        let one = run_cells_on(1, &profiles, &cfg);
        assert_eq!(one.len(), 5);
        for threads in [2, 3, 8] {
            let many = run_cells_on(threads, &profiles, &cfg);
            assert_eq!(many.len(), 5, "threads={threads}");
            for (i, (a, b)) in one.iter().zip(&many).enumerate() {
                let at = format!("threads={threads}, cell {i}");
                assert_eq!(a.trace.cell_name, b.trace.cell_name, "{at}");
                assert_eq!(a.trace.machine_events, b.trace.machine_events, "{at}");
                assert_eq!(a.trace.collection_events, b.trace.collection_events, "{at}");
                assert_eq!(a.trace.instance_events, b.trace.instance_events, "{at}");
                assert_eq!(a.trace.usage, b.trace.usage, "{at}");
                assert_eq!(a.metrics, b.metrics, "{at}");
            }
        }
    }

    #[test]
    fn one_item_or_one_thread_stays_on_the_calling_thread() {
        thread_local!(static IS_CALLER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) });
        IS_CALLER.set(true);
        let on_caller = |n_items, threads| map_items(n_items, threads, |_| IS_CALLER.get());
        assert_eq!(on_caller(1, 8), vec![true]);
        assert_eq!(on_caller(5, 1), vec![true; 5]);
        assert_eq!(on_caller(5, 2), vec![false; 5]);
    }

    #[test]
    fn a_cell_panic_surfaces_on_the_caller_with_its_own_message() {
        let profiles: Vec<CellProfile> = "abc".chars().map(CellProfile::cell_2019).collect();
        let mut cfg = SimConfig::tiny_for_tests(5);
        cfg.scale = 2.0;
        for threads in [1, 2] {
            let payload = catch_unwind(AssertUnwindSafe(|| run_cells_on(threads, &profiles, &cfg)))
                .expect_err("SimConfig::validate rejects scale 2.0");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            assert_eq!(msg, Some("scale in (0, 1]"), "threads={threads}");
        }
    }
}
