//! The end-to-end survey estimator: data − randoms, window multipoles,
//! edge correction (Slepian & Eisenstein 1709.10150; paper §6.1).
//!
//! On a cut-sky footprint the raw multipole sums measure the true
//! clustering *multiplied by the survey window*. [`SurveyCompute`]
//! packages the full unbiased recipe behind one entry point:
//!
//! 1. run the engine over the combined data + negatively-weighted
//!    random catalog (`D − (W_D/W_R)·R`,
//!    [`Catalog::data_minus_randoms`]) → the observed `N_ℓ` multipoles;
//! 2. run the engine over the randoms alone → the window (`R_ℓ`), whose
//!    normalized Legendre coefficients are the mask multipoles `f_ℓ`;
//! 3. per radial-bin pair, solve the small linear system
//!    `N_ℓ / R₀ = Σ_{ℓ'} M_{ℓℓ'} ζ_{ℓ'}` built from squared Wigner 3-j
//!    symbols ([`crate::edge`]) → unbiased `ζ_ℓ(b₁, b₂)`.
//!
//! # Conventions
//!
//! Stated once, here, for every consumer (the `survey_pipeline`
//! example, downstream analysis). They
//! compose with the ingestion conventions of `galactos_catalog::sky`
//! and the geometry conventions of `galactos_catalog::survey`:
//!
//! * **Frame and line of sight**: data and randoms live in the same
//!   comoving h⁻¹ Mpc frame; for sky-ingested catalogs the observer is
//!   the origin and the engine must be configured with
//!   `LineOfSight::Radial { observer }` for that *same* observer
//!   ([`SurveyConfig::survey_default`] sets this up). A fixed line of
//!   sight is still accepted — it is the correct choice in the
//!   periodic-box limit used by the equivalence tests.
//! * **Basis of the correction**: the linear solve runs in the
//!   *isotropic Legendre basis* — the anisotropic `ζ^m_{ℓℓ'}` of both
//!   runs is compressed via
//!   [`AnisotropicZeta::compress_isotropic`] and corrected per bin
//!   pair, exactly the system 1709.10150 solves. The corrected output
//!   is in Legendre-*coefficient* convention, normalized per unit
//!   window (see [`crate::edge::edge_corrected`]); the raw anisotropic
//!   `N_ℓ` and `R_ℓ` are returned alongside for consumers that need
//!   the uncompressed measurement.
//! * **Window truncation**: the mask multipoles are truncated at
//!   [`SurveyConfig::window_lmax`] ≤ `lmax`. `f_ℓ` decays quickly for
//!   realistic footprints; the full-sky limit has only `f₀`, where the
//!   correction degenerates to dividing by `R₀`.
//! * **Tree path only**: the gridded FFT estimator asserts a periodic
//!   catalog and a uniform line of sight, both false on a cut sky, so
//!   [`SurveyCompute::new`] rejects configurations that select the
//!   grid. This is a documented scope boundary, not a missing feature
//!   flag.

use crate::config::EngineConfig;
use crate::edge::edge_corrected;
use crate::engine::Engine;
use crate::estimator::EstimatorKind;
use crate::result::{AnisotropicZeta, IsotropicZeta};
use galactos_catalog::Catalog;
use galactos_math::{LineOfSight, Vec3};

/// Configuration of the survey estimator: an engine configuration plus
/// the window-multipole truncation.
#[derive(Clone, Debug)]
pub struct SurveyConfig {
    /// Engine configuration shared by the D−R and randoms-only runs.
    /// Must select the tree estimator (see module docs).
    pub engine: EngineConfig,
    /// Highest window multipole `f_ℓ` retained in the mixing matrix;
    /// must be ≤ `engine.lmax`. 0 reduces the correction to plain
    /// `N_ℓ/R₀` normalization (exact on the full sky).
    pub window_lmax: usize,
}

impl SurveyConfig {
    /// A survey configuration for an observer at `observer`: radial
    /// line of sight, self-pairs subtracted, window truncated at
    /// `lmax` — the right defaults for a sky-ingested catalog.
    pub fn survey_default(observer: Vec3, rmax: f64, lmax: usize, nbins: usize) -> Self {
        let mut engine = EngineConfig::test_default(rmax, lmax, nbins);
        engine.line_of_sight = LineOfSight::Radial { observer };
        engine.subtract_self_pairs = true;
        SurveyConfig {
            engine,
            window_lmax: lmax,
        }
    }

    /// Validate invariants; called by [`SurveyCompute::new`].
    pub fn validate(&self) {
        self.engine.validate();
        assert!(
            self.window_lmax <= self.engine.lmax,
            "window_lmax {} exceeds engine lmax {}",
            self.window_lmax,
            self.engine.lmax
        );
    }
}

/// The output of one survey run: corrected multipoles plus everything
/// the correction was built from.
#[derive(Clone, Debug)]
pub struct SurveyZeta {
    /// Edge-corrected isotropic multipoles `ζ_ℓ(b₁, b₂)`, in Legendre
    /// *coefficient* convention, normalized per unit window.
    pub corrected: IsotropicZeta,
    /// Raw anisotropic multipoles of the D−R field (the `N` of SE17).
    pub nnn: AnisotropicZeta,
    /// Raw anisotropic multipoles of the randoms alone (the window).
    pub rrr: AnisotropicZeta,
    /// Number of data / random objects that entered the run.
    pub data_len: usize,
    pub randoms_len: usize,
    /// Total weights of the two input catalogs (before the internal
    /// `−W_D/W_R` rescaling of the randoms).
    pub data_weight: f64,
    pub randoms_weight: f64,
}

/// The survey-estimator entry point; see the module docs for the
/// algorithm and conventions.
pub struct SurveyCompute {
    engine: Engine,
    window_lmax: usize,
}

impl SurveyCompute {
    /// Build the estimator. Panics if the configuration is invalid or
    /// selects the grid estimator (periodic-only; see module docs).
    pub fn new(config: SurveyConfig) -> Self {
        config.validate();
        let window_lmax = config.window_lmax;
        let engine = Engine::new(config.engine);
        assert!(
            engine.estimator_kind() == EstimatorKind::Tree,
            "the survey path requires the tree estimator: the grid path asserts a \
             periodic catalog and a uniform line of sight, neither of which holds \
             on a cut-sky footprint"
        );
        SurveyCompute {
            engine,
            window_lmax,
        }
    }

    /// The underlying engine (shared by both runs).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Run the full edge-corrected estimator over a data catalog and a
    /// matching random catalog (same footprint, same frame).
    pub fn compute(&self, data: &Catalog, randoms: &Catalog) -> SurveyZeta {
        assert!(!data.is_empty(), "empty data catalog");
        assert!(!randoms.is_empty(), "empty random catalog");
        let combined = Catalog::data_minus_randoms(data, randoms);
        let nnn = self.engine.compute(&combined);
        let rrr = self.engine.compute(randoms);
        let corrected = edge_corrected(
            &nnn.compress_isotropic(),
            &rrr.compress_isotropic(),
            self.window_lmax,
        );
        SurveyZeta {
            corrected,
            nnn,
            rrr,
            data_len: data.len(),
            randoms_len: randoms.len(),
            data_weight: data.total_weight(),
            randoms_weight: randoms.total_weight(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::EstimatorChoice;
    use galactos_grid::GridConfig;

    #[test]
    fn survey_default_is_radial_and_validates() {
        let c = SurveyConfig::survey_default(Vec3::ZERO, 30.0, 4, 5);
        assert!(matches!(
            c.engine.line_of_sight,
            LineOfSight::Radial { observer } if observer == Vec3::ZERO
        ));
        assert!(c.engine.subtract_self_pairs);
        assert_eq!(c.window_lmax, 4);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "window_lmax")]
    fn window_lmax_must_not_exceed_engine_lmax() {
        let mut c = SurveyConfig::survey_default(Vec3::ZERO, 30.0, 4, 5);
        c.window_lmax = 9;
        SurveyCompute::new(c);
    }

    #[test]
    #[should_panic(expected = "tree estimator")]
    fn grid_estimator_is_rejected() {
        let mut c = SurveyConfig::survey_default(Vec3::ZERO, 30.0, 2, 3);
        c.engine.estimator = EstimatorChoice::Grid(GridConfig::default());
        SurveyCompute::new(c);
    }
}
