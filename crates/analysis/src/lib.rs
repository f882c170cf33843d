//! Statistical analysis of 3PCF measurements (paper §6.1).
//!
//! "Partitioning the survey spatially to parallelize over many nodes
//! amounts to jack-knifing: retaining the local 3PCF results on a per
//! node basis would therefore constitute many samples of the 3PCF over
//! small volumes. These can be combined to provide a covariance
//! matrix." This crate implements that jackknife over the per-node
//! results the distributed run returns beside its merge
//! (`galactos_core::pipeline::SupervisedRun::shard_partials`), the
//! mock-ensemble covariance the paper describes as the standard
//! technique, and the χ²/signal-to-noise machinery used to interpret
//! measurements.
//!
//! * [`vectorize`] — flatten ζ containers into labeled feature vectors;
//! * [`covariance`] — sample and delete-one jackknife covariances;
//! * [`chi2`] — χ², SNR and the Hartlap inverse-covariance correction;
//! * [`report`] — the ASCII heat map the figure binaries print.

#![forbid(unsafe_code)]

pub mod chi2;
pub mod covariance;
pub mod report;
pub mod vectorize;

pub use covariance::{jackknife_from_partials, sample_covariance, Covariance};
pub use vectorize::zeta_to_vector;
