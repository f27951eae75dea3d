//! Parallel execution of per-rank work on the shared work-stealing pool.
//!
//! In the real system every MPI rank computes on its own block; here the
//! virtual ranks of a [`ProcessGrid`](crate::ProcessGrid) share one address
//! space and their per-rank work is spread over OS threads by the
//! work-stealing pool in the (vendored) `rayon` crate.  Results are returned
//! in rank order, so the outcome is identical to a sequential loop —
//! determinism does not depend on the thread count, which [`with_threads`]
//! lets tests pin down explicitly.
//!
//! Unpinned, the pool's global thread budget makes the per-rank loops here
//! and the per-row loops inside the local SpGEMM kernels share one set of
//! workers; under [`with_threads`] each nested loop spawns its own workers
//! (see `rayon::pool`), so two levels can run `threads²` threads at once.

use rayon::pool;

/// Run `body` with the calling thread's worker count pinned to `threads`
/// (affecting [`par_ranks`] / [`par_ranks_mut`] calls and every other
/// `rayon::pool` loop made inside, including from nested worker threads), then
/// restore the previous setting.
pub fn with_threads<T>(threads: usize, body: impl FnOnce() -> T) -> T {
    pool::with_thread_limit(threads, body)
}

/// Evaluate `f(rank)` for every rank in `0..nprocs`, in parallel, returning
/// the results in rank order.
pub fn par_ranks<T, F>(nprocs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    pool::map_indexed(nprocs, f)
}

/// Apply `f(rank, &mut items[rank])` to every element, in parallel.
pub fn par_ranks_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    pool::for_each_mut(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_rank_order() {
        for threads in [1usize, 2, 3, 8] {
            let got = with_threads(threads, || par_ranks(17, |rank| rank * rank));
            let want: Vec<usize> = (0..17).map(|r| r * r).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn every_rank_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let results = with_threads(4, || {
            par_ranks(100, |rank| {
                calls.fetch_add(1, Ordering::Relaxed);
                rank
            })
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(results.len(), 100);
    }

    #[test]
    fn par_ranks_mut_passes_matching_indices() {
        for threads in [1usize, 2, 5] {
            let mut items: Vec<usize> = vec![0; 23];
            with_threads(threads, || par_ranks_mut(&mut items, |rank, item| *item = rank + 1));
            for (rank, item) in items.iter().enumerate() {
                assert_eq!(*item, rank + 1, "threads={threads}");
            }
        }
    }

    #[test]
    fn zero_and_one_rank_edge_cases() {
        let empty: Vec<usize> = par_ranks(0, |r| r);
        assert!(empty.is_empty());
        assert_eq!(par_ranks(1, |r| r + 10), vec![10]);
        let mut nothing: Vec<usize> = Vec::new();
        par_ranks_mut(&mut nothing, |_, _| unreachable!("no items"));
    }

    #[test]
    fn with_threads_pin_propagates_into_nested_par_ranks() {
        // Worker threads spawned by the outer par_ranks must inherit the pin,
        // so nested calls see the same worker count as the caller.
        let observed = with_threads(2, || par_ranks(4, |_| pool::current_thread_limit()));
        assert_eq!(observed, vec![2; 4]);
    }

    #[test]
    fn with_threads_restores_the_previous_setting() {
        let outer = with_threads(3, || {
            let inner = with_threads(1, pool::current_thread_limit);
            assert_eq!(inner, 1);
            pool::current_thread_limit()
        });
        assert_eq!(outer, 3);
    }
}
