//! Cooperative cancellation for long-running queries.
//!
//! A [`CancelToken`] is a cheap, clonable flag shared between the caller
//! that owns a query's deadline and the workers executing its scans. The
//! engine checks the token at **block boundaries** (`parallel::
//! try_map_blocks`), between plan steps, and inside sort and join
//! between their phases and before each gathered column, so an overdue
//! query stops within one block's (or one column's, or one key sort's)
//! worth of work instead of running to completion — the
//! deadline-propagation primitive borg-serve threads through every
//! admitted query.
//!
//! Cancellation is strictly cooperative and one-way: once set, the flag
//! never clears (a fresh attempt gets a fresh token). Checking is a
//! single relaxed atomic load, so an un-cancelled token adds one branch
//! per 64Ki-row block to the scan hot path — noise. A query that
//! observes the flag abandons its partial work and returns
//! [`crate::QueryError::Cancelled`]; no partial results ever escape, so
//! the parallel==sequential bit-identity contract is unaffected for
//! queries that complete.

use crate::error::QueryError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A shared cancellation flag. Clones observe the same flag.
///
/// The token doubles as the per-attempt *progress* channel: workers
/// note each block they claim ([`CancelToken::note_block`]), so the
/// owner can read how far a scan got ([`CancelToken::blocks_scanned`])
/// — the observability hook borg-witness uses to attribute block-scan
/// work to a trace. The counter is purely observational: it never
/// influences scheduling or results.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    blocks: Arc<AtomicU64>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Sets the flag. Idempotent; never un-sets.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called on any clone.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Records one claimed scan block against this token's attempt.
    #[inline]
    pub fn note_block(&self) {
        self.blocks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` blocks at once (virtual-time drivers that model a
    /// whole attempt in one step).
    pub fn add_blocks(&self, n: u64) {
        self.blocks.fetch_add(n, Ordering::Relaxed);
    }

    /// Blocks claimed so far across every clone of this token. Exact
    /// once the attempt's result has been handed back (the pool's
    /// result channel orders the workers' notes before the read).
    pub fn blocks_scanned(&self) -> u64 {
        self.blocks.load(Ordering::Relaxed)
    }
}

/// `Err(Cancelled)` once `cancel` is set; `Ok` for a clear token or none.
pub(crate) fn check(cancel: Option<&CancelToken>) -> Result<(), QueryError> {
    match cancel {
        Some(token) if token.is_cancelled() => Err(QueryError::Cancelled),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_clear_and_latches() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        b.cancel();
        assert!(a.is_cancelled());
    }

    #[test]
    fn block_counter_is_shared_and_additive() {
        let t = CancelToken::new();
        assert_eq!(t.blocks_scanned(), 0);
        let u = t.clone();
        u.note_block();
        u.note_block();
        t.add_blocks(3);
        assert_eq!(t.blocks_scanned(), 5);
        assert_eq!(u.blocks_scanned(), 5);
        // Cancellation does not disturb the progress counter.
        t.cancel();
        assert_eq!(t.blocks_scanned(), 5);
    }

    #[test]
    fn observable_across_threads() {
        let t = CancelToken::new();
        let u = t.clone();
        std::thread::scope(|s| {
            s.spawn(move || u.cancel());
        });
        assert!(t.is_cancelled());
    }
}
