//! Deterministic fork-join over independent planning work.
//!
//! Callers that plan many *independent* things fan them out over a
//! [`PlannerPool`]. Its one user is the `planner_scaling` bench, which
//! plans one query per task and measures how the pool scales. One
//! search stays on the calling thread (see [`crate::search`]); the
//! parallel grain is the query, not the candidate plan.
//!
//! The pool runs over OS threads (`std::thread::scope`; the workspace
//! vendors no external thread-pool crate). Results are always gathered
//! **in index order**, so any reduction over them is independent of
//! scheduling. A pool with `threads == 1` degrades to plain inline
//! evaluation with zero threading overhead, so parallel-capable call
//! sites need no special-casing.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Below this many independent tasks per worker a parallel region runs
/// inline: spawning a thread costs more than a handful of small tasks.
pub const MIN_TASKS_PER_THREAD: usize = 8;

/// A deterministic fork-join pool over OS threads.
///
/// `run_indexed(n, f)` applies `f` to every index in `0..n` — possibly
/// from several worker threads — and returns the results **in index
/// order**. Determinism therefore holds by construction: callers fold
/// over the returned `Vec` exactly as a sequential loop would.
///
/// # Examples
///
/// ```
/// use ivdss_core::parallel::PlannerPool;
///
/// let pool = PlannerPool::new(4);
/// let squares = pool.run_indexed(100, |i| i * i);
/// assert_eq!(squares[7], 49);
/// // A 1-thread pool produces the same answers with zero threading.
/// assert_eq!(PlannerPool::sequential().run_indexed(100, |i| i * i), squares);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannerPool {
    threads: usize,
}

impl Default for PlannerPool {
    fn default() -> Self {
        PlannerPool::sequential()
    }
}

impl PlannerPool {
    /// Creates a pool that fans work out over up to `threads` OS threads
    /// (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        PlannerPool {
            threads: threads.max(1),
        }
    }

    /// A pool that runs everything inline on the calling thread.
    #[must_use]
    pub fn sequential() -> Self {
        PlannerPool { threads: 1 }
    }

    /// The configured thread count.
    #[must_use]
    #[cfg(test)]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every index in `0..n`, returning results in index
    /// order. Small inputs (fewer than [`MIN_TASKS_PER_THREAD`] tasks per
    /// worker) run inline.
    pub fn run_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.threads.min(n / MIN_TASKS_PER_THREAD.max(1));
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut produced = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            produced.push((i, f(i)));
                        }
                        produced
                    })
                })
                .collect();
            for handle in handles {
                for (i, r) in handle.join().expect("planner pool worker panicked") {
                    slots[i] = Some(r);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every index produced"))
            .collect()
    }

    /// Like [`PlannerPool::run_indexed`] for fallible tasks: returns the
    /// first error by index order, or all results.
    ///
    /// # Errors
    ///
    /// Propagates the error of the lowest-indexed failing task (the same
    /// one a sequential loop would have surfaced first... with the
    /// difference that later tasks may already have run).
    pub fn try_run_indexed<R, E, F>(&self, n: usize, f: F) -> Result<Vec<R>, E>
    where
        R: Send,
        E: Send,
        F: Fn(usize) -> Result<R, E> + Sync,
    {
        let mut out = Vec::with_capacity(n);
        for result in self.run_indexed(n, f) {
            out.push(result?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_orders_results() {
        for threads in [1, 2, 4, 8] {
            let pool = PlannerPool::new(threads);
            let out = pool.run_indexed(100, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_indexed_empty_and_tiny() {
        let pool = PlannerPool::new(8);
        assert!(pool.run_indexed(0, |i| i).is_empty());
        assert_eq!(pool.run_indexed(1, |i| i + 1), vec![1]);
    }

    #[test]
    fn try_run_indexed_reports_first_error() {
        let pool = PlannerPool::new(4);
        let err = pool
            .try_run_indexed(64, |i| if i % 10 == 7 { Err(i) } else { Ok(i) })
            .unwrap_err();
        assert_eq!(err, 7);
        let ok = pool.try_run_indexed(16, Ok::<usize, usize>).unwrap();
        assert_eq!(ok.len(), 16);
    }

    #[test]
    fn pool_clamps_to_one_thread() {
        assert_eq!(PlannerPool::new(0).threads(), 1);
    }
}
