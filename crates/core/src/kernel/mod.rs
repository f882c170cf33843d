//! The multipole accumulation kernel (paper §3.3).
//!
//! Structure mirrors the paper exactly:
//!
//! * **Pre-binning** ([`buckets`]): pairs are collected per radial bin
//!   into fixed-capacity buckets (default 128) so that each kernel
//!   invocation touches a single bin's accumulators — "this approach
//!   enables the use of effective vectorization over galaxy pairs, and
//!   also yields efficient cache reuse" (§3.3.1).
//! * **Vectorized accumulation** ([`simd`]): monomials are built by the
//!   2-FLOP parent/axis schedule over 8-wide lanes, accumulating into a
//!   per-monomial 8-element array whose horizontal reduction is deferred
//!   to the end of the primary — "replacing N/8 vector reductions with
//!   only 1 vector reduction for each of the 286 elements" (§3.3.2) —
//!   with 4 independent batches in flight for instruction-level
//!   parallelism.
//! * **Scalar reference** ([`scalar`]): the same arithmetic one lane
//!   wide — the oracle the SIMD kernel is held to (≲ 1e-11 relative in
//!   the unit tests, 1e-10 through the full engine in
//!   `tests/backends.rs`).
//! * **Selection** ([`backend`]): the two implementations behind one
//!   [`KernelBackend`] trait, chosen per engine by
//!   [`EngineConfig::kernel_backend`](crate::config::EngineConfig) —
//!   pinned, or [`detect`]'s build-target `cfg!` ladder.
//!
//! The test-only `testutil` module carries the deterministic input
//! generators and against-scalar checkers shared by every backend's
//! tests.

pub mod accumulator;
pub mod backend;
pub mod buckets;
pub mod scalar;
pub mod simd;
#[cfg(test)]
pub mod testutil;

pub use accumulator::KernelAccumulator;
pub use backend::{detect, BackendChoice, BackendKind, KernelBackend};
pub use buckets::PairBuckets;
