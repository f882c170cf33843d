//! The Galactos anisotropic 3PCF engine (the paper's core contribution).
//!
//! Implements the O(N²) algorithm of §3.1/Algorithm 1 with the
//! single-node optimizations of §3.3 and the distributed pipeline of
//! §3.2:
//!
//! * [`bins`] — radial binning of triangle side lengths;
//! * [`config`] — engine configuration (ℓmax, bins, line of sight,
//!   bucket size, precision, and the backend / traversal / estimator
//!   choices);
//! * [`result`] — the `ζ^m_{ℓℓ'}(r₁, r₂)` container, its isotropic
//!   compression, and merge/normalize operations;
//! * [`kernel`] — the bucketed multipole accumulation kernel: per-bin
//!   pair buckets (pre-binning, §3.3.1), 8-lane deferred-reduction
//!   accumulators with 4-way ILP (§3.3.2), and the scalar reference
//!   they are tested against — the SIMD kernel on every vector build
//!   target unless the config pins the reference;
//! * [`engine`] — the staged per-primary pipeline (search →
//!   bin/bucket → a_ℓm assembly → ζ accumulation), thread-parallel
//!   over primaries (§3.3); the Figure 4 stage breakdown is what
//!   [`Engine::compute_observed`](engine::Engine::compute_observed)
//!   records into a `galactos-obs` session — there is no other timer;
//! * [`assembly`] — stages 3–4 of a primary as lane loops: a_ℓm
//!   assembly with the radial bins in lanes and the ζ update as rows of
//!   packed per-`m` Hermitian triangles, run at the host's vector width;
//! * [`estimator`] — the estimator choice dispatching
//!   [`Engine::compute`](engine::Engine::compute) between the tree
//!   traversal and the FFT-based gridded a_ℓm estimator of
//!   `galactos-grid` (mass assignment + Fourier-space shell
//!   convolutions), whose cost scales with mesh size instead of pair
//!   count;
//! * [`traversal`] — the `f64` k-d tree, whose searches only propose
//!   candidates, and the two traversal modes: the §3.2 node-to-node
//!   leaf-blocked walk with SoA candidate blocks, and per-primary
//!   gathering as its reference;
//! * `scratch` (crate-private) — the per-chunk compute state each
//!   engine worker owns (the candidate block and staged pairs, buckets,
//!   accumulators, ζ partial, instrumentation counters);
//! * [`naive`] — O(N³) triplet-counting and O(N²·lm) direct-Yₗₘ
//!   baselines used as correctness oracles and benchmark comparators,
//!   and the O(N³) Legendre triplet oracle of the Slepian–Eisenstein
//!   (2015) isotropic multipoles (§2.2/§2.3);
//! * [`paircount`] — 2PCF pair counting and the Landy–Szalay estimator
//!   (the 2PCF context of §2.3);
//! * [`edge`] — isotropic survey edge correction via the Legendre
//!   mixing matrix (Wigner 3-j based);
//! * [`survey`] — the end-to-end cut-sky estimator: engine run over
//!   data − randoms, window multipoles from the randoms, per-bin-pair
//!   edge-correction solve, behind the [`SurveyCompute`] entry point;
//! * [`flops`] — FLOP accounting reproducing the paper's §3.3.2/§5.1
//!   arithmetic (286 monomials, 572 FLOPs/pair, flop/byte 9.6);
//! * [`pipeline`] — the one distributed run: rank threads over
//!   `galactos-cluster` stream plan-aligned on-disk shards, compute one
//!   ζ partial per shard under supervision (retry, reassignment), and
//!   end in the global reduction, in shard order.

#![forbid(unsafe_code)]

pub mod assembly;
pub mod bins;
pub mod config;
pub mod edge;
pub mod engine;
pub mod estimator;
pub mod flops;
#[cfg(test)]
mod isotropic;
pub mod kernel;
pub mod naive;
pub mod paircount;
pub mod pipeline;
pub mod result;
mod scratch;
pub mod survey;
pub mod traversal;

pub use bins::RadialBins;
pub use config::{EngineConfig, TreePrecision};
pub use engine::Engine;
pub use estimator::{EstimatorChoice, EstimatorKind};
pub use galactos_grid::{GridConfig, MassAssignment};
pub use galactos_obs::{ObsSession, Registry, Tracer};
pub use kernel::{BackendChoice, BackendKind, KernelBackend};
pub use pipeline::{
    compute_distributed_supervised, compute_distributed_supervised_observed, RankReport,
    RetryPolicy, SupervisedError, SupervisedRun,
};
pub use result::{AnisotropicZeta, IsotropicZeta};
pub use survey::{SurveyCompute, SurveyConfig, SurveyZeta};
pub use traversal::{TraversalChoice, TraversalKind};
