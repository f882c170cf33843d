//! Gridded a_ℓm estimation for the anisotropic 3PCF.
//!
//! The tree engine in `galactos-core` evaluates the multipole estimator
//! by direct neighbor traversal — O(N·n_neighbor) in the pair count.
//! This crate implements the *mesh* formulation of the same estimator
//! (Slepian & Eisenstein 2015): paint the catalog onto a periodic
//! power-of-two density mesh, convolve it with `Y_ℓm`-weighted
//! radial-shell kernels in Fourier space to obtain the shell
//! coefficient fields `a_ℓm(x; bin)` everywhere at once, and contract
//! them into ζ multipoles on the occupied cells. Cost scales with the
//! mesh size (FFTs) rather than the pair count, which wins for dense
//! periodic-box mocks; accuracy is set by the mesh resolution and
//! converges to the tree answer as the mesh is refined (the convergence
//! gate is enforced by `galactos-core`'s `tests/grid_equivalence.rs`).
//!
//! * [`assign`] — NGP/CIC periodic mass assignment with exact
//!   weight conservation, plus each scheme's Fourier window;
//! * [`mesh`] — painted [`DensityMesh`]es with interlacing and window
//!   deconvolution on the way to k-space;
//! * [`estimator`] — the shell convolutions and ζ contraction,
//!   generic over the caller's radial binning and line-of-sight
//!   rotation ([`accumulate_zeta_multipoles`]).
//!
//! # Conventions
//!
//! All Fourier conventions (sign, normalization, mode layout) are those
//! of [`galactos_math::fft`], stated once in that module: forward
//! `e^{−ik·x}` unnormalized, inverse with `1/N³`, under which circular
//! convolution is a plain mode product. The estimator emits **raw
//! weighted sums** — the same normalization as the tree engine's
//! `AnisotropicZeta`, with no volume or density factors — and assembles
//! harmonics through the shared monomial/`YlmTable` machinery, so both
//! estimators agree convention-for-convention by construction.
//!
//! This crate deliberately depends only on `galactos-math` and
//! `galactos-catalog`; `galactos-core` layers the `EstimatorChoice`
//! dispatch and the `ZetaResult` assembly on top.

#![forbid(unsafe_code)]

pub mod assign;
pub mod estimator;
pub mod mesh;

pub use assign::MassAssignment;
pub use estimator::{accumulate_zeta_multipoles, GridConfig, InvalidMesh};
pub use mesh::DensityMesh;
