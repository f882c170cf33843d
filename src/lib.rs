//! # Galactos-rs
//!
//! A from-scratch Rust reproduction of **"Galactos: Computing the
//! Anisotropic 3-Point Correlation Function for 2 Billion Galaxies"**
//! (Friesen et al., SC '17): the O(N²) spherical-harmonic anisotropic
//! 3PCF algorithm, its single-node SIMD kernel, the non-power-of-two
//! k-d domain decomposition with halo exchange, and every substrate the
//! evaluation depends on (k-d trees, a message-passing cluster
//! simulator, mock catalogs with BAO and redshift-space distortions,
//! covariance analysis).
//!
//! ## Quick start
//!
//! ```
//! use galactos::prelude::*;
//!
//! // A small random catalog in a 50 Mpc/h periodic box.
//! let catalog = uniform_box(2_000, 50.0, 42);
//!
//! // Paper-style configuration, scaled down: lmax=3, Rmax=20, 5 bins.
//! let config = EngineConfig::test_default(20.0, 3, 5);
//!
//! let engine = Engine::new(config);
//! let zeta = engine.compute(&catalog).normalized();
//!
//! // The (l, l', m) = (0,0,0) coefficient is the pair-count moment;
//! // higher multipoles of a uniform catalog are statistically zero.
//! assert!(zeta.get(0, 0, 0, 2, 2).re > 0.0);
//! ```
//!
//! The crates are re-exported under their subsystem names:
//! [`math`], [`simd`], [`kdtree`], [`cluster`], [`domain`], [`catalog`],
//! [`mocks`], [`grid`], [`core`], [`analysis`], [`obs`].

#![forbid(unsafe_code)]

pub use galactos_analysis as analysis;
pub use galactos_catalog as catalog;
pub use galactos_cluster as cluster;
pub use galactos_core as core;
pub use galactos_domain as domain;
pub use galactos_grid as grid;
pub use galactos_kdtree as kdtree;
pub use galactos_math as math;
pub use galactos_mocks as mocks;
pub use galactos_obs as obs;
pub use galactos_simd as simd;

/// The most common imports for application code.
pub mod prelude {
    pub use galactos_analysis::covariance::{jackknife_from_partials, sample_covariance};
    pub use galactos_catalog::sky::{read_sky_csv, write_sky_csv};
    pub use galactos_catalog::{uniform_box, Cap, Catalog, Galaxy, SurveyGeometry};
    pub use galactos_cluster::fault::FaultPlan;
    pub use galactos_core::bins::RadialBins;
    pub use galactos_core::config::{EngineConfig, TreePrecision};
    pub use galactos_core::engine::Engine;
    pub use galactos_core::estimator::EstimatorChoice;
    pub use galactos_core::pipeline::{
        compute_distributed_supervised, compute_distributed_supervised_observed, RetryPolicy,
    };
    pub use galactos_core::result::{AnisotropicZeta, IsotropicZeta};
    pub use galactos_core::survey::{SurveyCompute, SurveyConfig, SurveyZeta};
    pub use galactos_grid::{GridConfig, MassAssignment};
    pub use galactos_math::cosmology::FiducialCosmology;
    pub use galactos_math::{LineOfSight, Vec3};
    pub use galactos_mocks::{BaoSpectrum, PowerLawSpectrum, PowerSpectrum};
    pub use galactos_obs::chrome::chrome_trace_json;
    pub use galactos_obs::ObsSession;
}
