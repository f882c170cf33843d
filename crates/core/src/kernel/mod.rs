//! The multipole accumulation kernel (paper §3.3).
//!
//! Structure mirrors the paper exactly:
//!
//! * **Pre-binning** ([`buckets`]): pairs are collected per radial bin
//!   into fixed-capacity buckets (default 128) so that each kernel
//!   invocation touches a single bin's accumulators — "this approach
//!   enables the use of effective vectorization over galaxy pairs, and
//!   also yields efficient cache reuse" (§3.3.1).
//! * **Vectorized accumulation** ([`simd`]): monomials `w·z^q·y^p·x^k`
//!   are built 2 FLOPs each by nested loops of running products over
//!   8-wide lanes — the parent/axis schedule's multiplication order
//!   with the products held in registers — accumulating into a
//!   per-monomial 8-element array whose horizontal reduction is deferred
//!   to the end of the primary — "replacing N/8 vector reductions with
//!   only 1 vector reduction for each of the 286 elements" (§3.3.2) —
//!   with 4 independent batches in flight for instruction-level
//!   parallelism. `galactos_simd::dispatch` compiles that one body for
//!   baseline / AVX2 / AVX-512 and picks per call at run time.
//! * **Scalar reference** ([`scalar`]): the same arithmetic one lane
//!   wide, replaying the schedule step by step — the oracle the SIMD
//!   kernel is held to (≲ 1e-11 relative in the unit tests, 1e-10
//!   through the full engine in `tests/conformance.rs`).
//! * **Selection** ([`backend`]): the two implementations behind one
//!   [`KernelBackend`] trait, chosen per engine by
//!   [`EngineConfig::kernel_backend`](crate::config::EngineConfig) —
//!   the SIMD kernel unless the config pins the scalar reference.
//!
//! **No fused operations.** Nothing in the kernel may call
//! `f64::mul_add` or otherwise fuse a multiply with an add: every
//! compilation `dispatch` can pick must round each multiply and each add
//! separately (Rust never contracts `a * b + c` on its own), so that ζ
//! bits are a function of [`EngineConfig`](crate::config::EngineConfig)
//! and not of the host's vector width. `simd`'s tests pin this lane by
//! lane for every level the host offers.
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
pub use backend::{BackendChoice, BackendKind, KernelBackend};
pub use buckets::PairBuckets;
