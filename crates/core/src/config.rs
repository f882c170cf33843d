//! Engine configuration.

use crate::bins::RadialBins;
use crate::estimator::EstimatorChoice;
use crate::kernel::backend::BackendChoice;
use crate::traversal::TraversalChoice;
use galactos_math::LineOfSight;
use galactos_math::Vec3;

/// Floating-point precision of the k-d tree neighbor search: always
/// `f64` (see [`crate::traversal`]). Only the frozen benchmark ladder
/// still names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreePrecision {
    /// Everything in `f64`.
    Double,
}

/// Full configuration of the anisotropic 3PCF engine.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Maximum multipole order ℓmax (paper: 10, giving 286 monomials).
    pub lmax: usize,
    /// Radial bins in triangle side length.
    pub bins: RadialBins,
    /// Line-of-sight convention (fixed ẑ for periodic boxes — the
    /// rotation is then the identity; radial for surveys).
    pub line_of_sight: LineOfSight,
    /// Pair-bucket capacity per radial bin (paper: 128, giving a
    /// best-case flop/byte ratio of 9.6).
    pub bucket_size: usize,
    /// Neighbor-search precision; it has one value.
    pub precision: TreePrecision,
    /// Remove the degenerate `j = k` (self-pair) terms from diagonal
    /// `r₁ = r₂` bins so that ζ counts only genuine triangles.
    pub subtract_self_pairs: bool,
    /// Which a_ℓm accumulation kernel runs — the hottest code in the
    /// engine. [`BackendChoice::Auto`] (the default) is the SIMD
    /// kernel; `BackendChoice::Fixed(kind)` pins one, which is how the
    /// equivalence tests and the benchmark's differential check run
    /// the scalar reference. The backends agree up to floating-point
    /// reassociation (≲ 1e-11 relative in the kernel unit tests, 1e-10
    /// through the full engine in `tests/conformance.rs`).
    pub kernel_backend: BackendChoice,
    /// How secondaries are found for each primary — one tree descent
    /// per primary, or the paper's §3.2 node-to-node walk gathering
    /// candidates once per primary *leaf* into a SoA block.
    /// [`TraversalChoice::Auto`] (the default) is leaf-blocked;
    /// `TraversalChoice::Fixed(kind)` pins one, which is how the
    /// equivalence tests and the benchmark's differential check run
    /// the per-primary reference. Both modes bin exactly the same
    /// pairs and agree to floating-point reassociation (≤ 1e-9
    /// relative; enforced by `tests/conformance.rs`).
    pub traversal: TraversalChoice,
    /// Which *estimator* evaluates ζ — the exact tree traversal (the
    /// default) or the FFT grid (`galactos-grid`), whose cost scales
    /// with mesh size instead of pair count and which
    /// [`EstimatorChoice::Grid`] selects with explicit
    /// [`GridConfig`](galactos_grid::GridConfig) parameters. The grid
    /// path requires a periodic catalog and a fixed line of sight, and
    /// its answer converges to the tree's as the mesh is refined (the
    /// convergence gate — relative ζ difference decreasing across mesh
    /// resolutions, tightest ≤ 1e-2 — is enforced by
    /// `tests/grid_equivalence.rs`).
    /// Distributed/subset entry points always run the tree.
    pub estimator: EstimatorChoice,
}

impl EngineConfig {
    /// A configuration mirroring the paper's production run, scaled to a
    /// given Rmax: ℓmax = 10, 10 linear bins up to `rmax`, fixed ẑ line
    /// of sight, bucket 128.
    pub fn paper_default(rmax: f64) -> Self {
        EngineConfig {
            lmax: 10,
            bins: RadialBins::linear(0.0, rmax, 10),
            line_of_sight: LineOfSight::Fixed(Vec3::Z),
            bucket_size: 128,
            precision: TreePrecision::Double,
            subtract_self_pairs: true,
            kernel_backend: BackendChoice::Auto,
            traversal: TraversalChoice::Auto,
            estimator: EstimatorChoice::Tree,
        }
    }

    /// A small configuration for tests: low ℓmax, few bins.
    pub fn test_default(rmax: f64, lmax: usize, nbins: usize) -> Self {
        EngineConfig {
            lmax,
            bins: RadialBins::linear(0.0, rmax, nbins),
            line_of_sight: LineOfSight::Fixed(Vec3::Z),
            bucket_size: 16,
            precision: TreePrecision::Double,
            subtract_self_pairs: false,
            kernel_backend: BackendChoice::Auto,
            traversal: TraversalChoice::Auto,
            estimator: EstimatorChoice::Tree,
        }
    }

    /// Validate invariants; called by the engine constructor.
    pub fn validate(&self) {
        assert!(self.lmax <= 12, "lmax > 12 is untested and very slow");
        assert!(self.bucket_size >= 1, "bucket_size must be positive");
        assert!(self.bins.nbins() >= 1);
        if let EstimatorChoice::Grid(grid) = &self.estimator {
            grid.validate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_paper_numbers() {
        let c = EngineConfig::paper_default(200.0);
        c.validate();
        // Exhaustive on purpose: a tenth field fails to compile here.
        let EngineConfig {
            lmax,
            bins,
            line_of_sight,
            bucket_size,
            precision,
            subtract_self_pairs,
            kernel_backend,
            traversal,
            estimator,
        } = c;
        assert_eq!(lmax, 10);
        assert_eq!(bucket_size, 128);
        assert_eq!(bins.nbins(), 10);
        assert_eq!(bins.rmax(), 200.0);
        assert_eq!(line_of_sight, LineOfSight::Fixed(Vec3::Z));
        assert_eq!(precision, TreePrecision::Double);
        assert!(subtract_self_pairs);
        assert_eq!(kernel_backend, BackendChoice::Auto);
        assert_eq!(traversal, TraversalChoice::Auto);
        assert_eq!(estimator, EstimatorChoice::Tree);
    }

    #[test]
    #[should_panic(expected = "lmax > 12")]
    fn validate_rejects_huge_lmax() {
        let mut c = EngineConfig::test_default(10.0, 3, 4);
        c.lmax = 40;
        c.validate();
    }
}
