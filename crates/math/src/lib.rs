//! Mathematical substrate for the Galactos anisotropic 3PCF pipeline.
//!
//! This crate implements, from scratch, every piece of mathematics the
//! Galactos algorithm (Friesen et al., SC '17) depends on:
//!
//! * 3-vector / bounding-box geometry ([`vec3`]),
//! * complex arithmetic ([`complex`]),
//! * a radix-2 complex FFT, 1-D and 3-D, shared by the mock generators
//!   and the gridded a_ℓm estimator ([`fft`]),
//! * factorials and binomial coefficients (`factorial`),
//! * Legendre polynomials and associated Legendre functions ([`legendre`]),
//! * complex spherical harmonics evaluated directly ([`sphharm`]),
//! * sparse trivariate polynomial algebra used to expand spherical
//!   harmonics into Cartesian monomials (`poly3`),
//! * the monomial basis `(Δx/r)^k (Δy/r)^p (Δz/r)^q`, `k+p+q ≤ ℓmax`,
//!   together with the 2-FLOP/monomial update schedule that the Galactos
//!   multipole kernel executes ([`monomial`]),
//! * the `Y_ℓm → monomial` coefficient tables used to assemble spherical
//!   harmonic coefficients `a_ℓm` from accumulated monomial sums ([`ylm`]),
//! * Wigner 3-j symbols for edge-correction and multipole coupling
//!   ([`wigner`]),
//! * rotations taking a line-of-sight direction to the z-axis, the key
//!   geometric step of the anisotropic algorithm ([`rotation`]),
//! * fiducial-cosmology redshift → comoving-distance conversion for
//!   survey-catalog ingestion ([`cosmology`]).
//!
//! All tables are generated at runtime from exact recurrences; nothing is
//! hard-coded beyond small literal test vectors.

#![forbid(unsafe_code)]

pub mod complex;
pub mod cosmology;
mod factorial;
pub mod fft;
pub mod legendre;
pub mod linalg;
pub mod monomial;
mod poly3;
pub mod rotation;
pub mod sphharm;
pub mod vec3;
pub mod wigner;
pub mod ylm;

pub use complex::Complex64;
pub use cosmology::FiducialCosmology;
pub use fft::Mesh3;
pub use monomial::{Axis, MonomialBasis, UpdateStep};
pub use rotation::{LineOfSight, Mat3};
pub use vec3::{Aabb, Vec3};
pub use ylm::YlmTable;

/// Number of unique `(ℓ, m)` pairs with `0 ≤ m ≤ ℓ ≤ lmax`.
#[inline]
pub fn lm_count(lmax: usize) -> usize {
    (lmax + 1) * (lmax + 2) / 2
}

/// Flat index of the `(ℓ, m)` pair (with `m ≥ 0`) in a triangular layout.
///
/// Ordering: `(0,0), (1,0), (1,1), (2,0), (2,1), (2,2), …`
#[inline]
pub fn lm_index(l: usize, m: usize) -> usize {
    debug_assert!(m <= l);
    l * (l + 1) / 2 + m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lm_index_roundtrip() {
        let mut idx = 0;
        for l in 0..=24 {
            for m in 0..=l {
                assert_eq!(lm_index(l, m), idx);
                idx += 1;
            }
        }
        assert_eq!(lm_count(24), idx);
    }
}
