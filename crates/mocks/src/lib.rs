//! Synthetic galaxy catalogs standing in for the Outer Rim simulation.
//!
//! The paper ran on 2×10⁹ halos from the Outer Rim N-body simulation.
//! Per the reproduction ground rules we substitute catalogs that are
//! generated from scratch but exercise the same code paths and carry the
//! same statistical features the science output depends on:
//!
//! * [`pk`] — model power spectra: power laws and a phenomenological
//!   BAO-wiggle spectrum (smooth transfer shape × damped sinusoid), the
//!   knob that puts the paper's Figure 1 BAO features into our mocks.
//! * [`grf`] — Gaussian random fields on a periodic mesh with a target
//!   power spectrum, plus the linear-theory displacement/velocity field.
//! * [`lognormal`] — lognormal galaxy mocks (the standard cheap mock of
//!   large-scale structure): exponentiate the GRF, Poisson-sample.
//! * [`rsd`] — redshift-space distortions: line-of-sight displacement by
//!   the velocity field (Kaiser squashing) plus optional finger-of-god
//!   dispersion; this is what makes the *anisotropic* 3PCF non-trivial.
//! * [`cluster_process`] — Neyman–Scott cluster process: strongly
//!   non-Gaussian small-scale clustering with an analytic density, used
//!   by correctness tests (3PCF must detect it) and benchmarks.
//! * [`scaled`] — density-matched datasets for the weak-scaling series
//!   (reproduces the construction of the paper's Table 1).

#![forbid(unsafe_code)]

pub mod cluster_process;
pub mod grf;
pub mod lognormal;
pub mod pk;
pub mod rsd;
pub mod scaled;

pub use grf::GaussianField;
pub use lognormal::LognormalMock;
pub use pk::{BaoSpectrum, PowerLawSpectrum, PowerSpectrum};
pub use scaled::{paper_table1, scaled_dataset, ScaledDataset};
