//! Work scheduling: one chunk/map/reduce driver shared by every
//! parallel region in the crate.
//!
//! The paper distributes primaries over threads with OpenMP dynamic
//! scheduling, each thread owning private accumulators that are merged
//! once at the end (§3.3): "a dynamic schedule gives a significant
//! performance boost over using a static schedule". [`run_partitioned`]
//! is that policy and the only one: constant-size chunks handed out by
//! work stealing. Callers supply per-worker state construction, a
//! range processor, a state finalizer, and a [`Merge`] spec.
//!
//! The chunk size is a constant, so the chunk boundaries do not depend
//! on the pool width, and the rayon stand-in merges finished chunks in
//! chunk-index order; a floating-point reduction through this driver
//! therefore gives the same bits on any number of threads (pinned for
//! ζ by `tests/determinism.rs`).
//!
//! Worker state is whatever the caller builds — for the engine it is a
//! [`ComputeScratch`](crate::scratch::ComputeScratch) whose kernel
//! accumulator comes from the engine's resolved
//! [`KernelBackend`](crate::kernel::KernelBackend).

use rayon::prelude::*;
use std::ops::Range;

/// Chunk size (in items). Small enough that work stealing can balance
/// clustered catalogs, large enough that one chunk amortizes a
/// worker-state merge.
pub const DYNAMIC_CHUNK: usize = 16;

/// Reduction spec for [`run_partitioned`]: the identity element and
/// the combining operation.
pub struct Merge<Z, M> {
    pub zero: Z,
    pub merge: M,
}

/// Partition `0..n_items` into [`DYNAMIC_CHUNK`]-sized chunks, run
/// every chunk on a worker (`make_state` → `process` over the chunk's
/// index range → `finish`), and reduce the finished results with
/// `merge`.
///
/// Every index in `0..n_items` is processed exactly once and the
/// reduction includes one finished result per chunk. `n_items` = 0
/// yields `merge.zero()`.
pub fn run_partitioned<S, R, FS, FP, FF, FZ, FM>(
    n_items: usize,
    make_state: FS,
    process: FP,
    finish: FF,
    merge: Merge<FZ, FM>,
) -> R
where
    R: Send,
    FS: Fn() -> S + Sync,
    FP: Fn(&mut S, Range<usize>) + Sync,
    FF: Fn(S) -> R + Sync,
    FZ: Fn() -> R + Sync,
    FM: Fn(R, R) -> R + Sync,
{
    let Merge { zero, merge } = merge;
    (0..n_items.div_ceil(DYNAMIC_CHUNK))
        .into_par_iter()
        .map(|c| {
            let range = c * DYNAMIC_CHUNK..((c + 1) * DYNAMIC_CHUNK).min(n_items);
            let mut state = make_state();
            process(&mut state, range);
            finish(state)
        })
        .reduce(zero, merge)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sum of i² over 0..n via the driver, with worker state counting
    /// how many chunks contributed.
    fn sum_squares(n: usize) -> (u64, u64) {
        run_partitioned(
            n,
            || (0u64, 0u64),
            |state, range| {
                for i in range {
                    state.0 += (i * i) as u64;
                }
                state.1 += 1;
            },
            |state| state,
            Merge {
                zero: || (0, 0),
                merge: |a: (u64, u64), b: (u64, u64)| (a.0 + b.0, a.1 + b.1),
            },
        )
    }

    fn expected(n: usize) -> u64 {
        (0..n).map(|i| (i * i) as u64).sum()
    }

    #[test]
    fn single_chunk_edge_case() {
        // Fewer items than one chunk: exactly one worker state.
        let (sum, chunks) = sum_squares(DYNAMIC_CHUNK - 1);
        assert_eq!(sum, expected(DYNAMIC_CHUNK - 1));
        assert_eq!(chunks, 1);
    }

    #[test]
    fn chunk_count_matches_states_constructed() {
        for n in [0, 1, 5, DYNAMIC_CHUNK, DYNAMIC_CHUNK + 1, 333, 1000] {
            let (sum, chunks) = sum_squares(n);
            assert_eq!(sum, expected(n), "n={n}");
            assert_eq!(chunks as usize, n.div_ceil(DYNAMIC_CHUNK), "n={n}");
        }
    }

    #[test]
    fn empty_input_yields_zero() {
        assert_eq!(sum_squares(0), (0, 0));
    }

    #[test]
    fn dynamic_chunking_is_thread_count_independent() {
        // The chunk size is a constant, so the reduction structure
        // (and hence float roundoff, for float reductions) does not
        // depend on the worker count.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        let a = pool.install(|| sum_squares(500));
        let b = sum_squares(500);
        assert_eq!(a, b);
    }
}
