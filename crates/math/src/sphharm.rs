//! Direct evaluation of complex spherical harmonics `Y_ℓm`.
//!
//! This is the *reference* implementation: transcendental-function-based,
//! one harmonic at a time. The production Galactos kernel never calls it —
//! it accumulates Cartesian monomials instead (see [`crate::monomial`] and
//! [`crate::ylm`]) — but every monomial-table result is validated against
//! this module, and the naive O(N³) triplet-counting baselines use it.
//!
//! Convention (quantum-mechanics / physics normalization, Condon–Shortley
//! phase):
//!
//! ```text
//! Y_ℓm(θ, φ) = √[ (2ℓ+1)/(4π) · (ℓ−m)!/(ℓ+m)! ] · P_ℓ^m(cos θ) · e^{imφ}
//! Y_{ℓ,−m}  = (−1)^m · conj(Y_ℓm)
//! ```
//!
//! With this convention the addition theorem reads
//! `P_ℓ(â·b̂) = 4π/(2ℓ+1) Σ_m Y_ℓm(â) conj(Y_ℓm(b̂))`, which is exactly the
//! identity that lets the anisotropic 3PCF be compressed to the isotropic
//! multipoles (and which our tests verify).

use crate::complex::Complex64;
use crate::factorial::ln_factorial;
use crate::legendre::assoc_legendre_p;
use crate::vec3::Vec3;

/// Normalization factor `√[(2ℓ+1)/(4π) · (ℓ−m)!/(ℓ+m)!]` for `m ≥ 0`.
pub(crate) fn ylm_norm(l: usize, m: usize) -> f64 {
    assert!(m <= l);
    let ln_ratio = ln_factorial(l - m) - ln_factorial(l + m);
    ((2 * l + 1) as f64 / (4.0 * std::f64::consts::PI) * ln_ratio.exp()).sqrt()
}

/// Spherical harmonic `Y_ℓm(θ, φ)` for any `|m| ≤ ℓ`.
pub fn ylm(l: usize, m: i64, theta: f64, phi: f64) -> Complex64 {
    let mabs = m.unsigned_abs() as usize;
    assert!(mabs <= l, "|m| must be <= l");
    let plm = assoc_legendre_p(l, mabs, theta.cos());
    let val = ylm_norm(l, mabs) * plm * Complex64::cis(mabs as f64 * phi);
    if m >= 0 {
        val
    } else {
        // Y_{l,-m} = (-1)^m conj(Y_{lm})
        let sign = if mabs.is_multiple_of(2) { 1.0 } else { -1.0 };
        val.conj() * sign
    }
}

/// `Y_ℓm` evaluated at a direction given as a (not necessarily unit)
/// Cartesian vector. Panics in debug builds on the zero vector.
// lint:allow(W-DEADPUB): oracle for YlmTable and the self-pair table (math/src/ylm.rs tests, math/tests/proptests.rs, grid/src/estimator.rs tests)
pub fn ylm_cartesian(l: usize, m: i64, dir: Vec3) -> Complex64 {
    let r = dir.norm();
    debug_assert!(r > 0.0, "direction must be non-zero");
    let theta = (dir.z / r).clamp(-1.0, 1.0).acos();
    let phi = dir.y.atan2(dir.x);
    ylm(l, m, theta, phi)
}

/// Evaluate all `Y_ℓm` for `0 ≤ m ≤ ℓ ≤ lmax` at one direction, into a
/// triangular array laid out by [`crate::lm_index`]. Negative-m values
/// follow from the conjugation identity and are not stored.
pub fn ylm_all_cartesian(lmax: usize, dir: Vec3, out: &mut [Complex64]) {
    assert_eq!(out.len(), crate::lm_count(lmax));
    let r = dir.norm();
    debug_assert!(r > 0.0);
    let ct = (dir.z / r).clamp(-1.0, 1.0);
    let phi = dir.y.atan2(dir.x);
    for l in 0..=lmax {
        for m in 0..=l {
            out[crate::lm_index(l, m)] =
                ylm_norm(l, m) * assoc_legendre_p(l, m, ct) * Complex64::cis(m as f64 * phi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn close(a: Complex64, b: Complex64, tol: f64) -> bool {
        a.dist_inf(b) <= tol
    }

    #[test]
    fn y00_constant() {
        let want = Complex64::real(0.5 / PI.sqrt());
        for &(t, p) in &[(0.1f64, 0.3f64), (1.2, -2.0), (3.0, 5.9)] {
            assert!(close(ylm(0, 0, t, p), want, 1e-15));
        }
    }

    #[test]
    fn l1_closed_forms() {
        for &(t, p) in &[(0.3f64, 0.7f64), (1.1, -1.9), (2.2, 3.0)] {
            let y10 = Complex64::real((3.0 / (4.0 * PI)).sqrt() * t.cos());
            assert!(close(ylm(1, 0, t, p), y10, 1e-14));
            let y11 = Complex64::cis(p) * (-(3.0 / (8.0 * PI)).sqrt() * t.sin());
            assert!(close(ylm(1, 1, t, p), y11, 1e-14));
            let y1m1 = Complex64::cis(-p) * ((3.0 / (8.0 * PI)).sqrt() * t.sin());
            assert!(close(ylm(1, -1, t, p), y1m1, 1e-14));
        }
    }

    #[test]
    fn l2_closed_forms() {
        for &(t, p) in &[(0.4f64, 1.3f64), (2.5, -0.4)] {
            let (st, ct) = t.sin_cos();
            let y22 = Complex64::cis(2.0 * p) * (0.25 * (15.0 / (2.0 * PI)).sqrt() * st * st);
            assert!(close(ylm(2, 2, t, p), y22, 1e-14));
            let y21 = Complex64::cis(p) * (-(15.0 / (8.0 * PI)).sqrt() * st * ct);
            assert!(close(ylm(2, 1, t, p), y21, 1e-14));
            let y20 = Complex64::real(0.25 * (5.0 / PI).sqrt() * (3.0 * ct * ct - 1.0));
            assert!(close(ylm(2, 0, t, p), y20, 1e-14));
        }
    }

    #[test]
    fn conjugation_symmetry() {
        for l in 0..=8usize {
            for m in 1..=l as i64 {
                let (t, p) = (1.234, -0.567);
                let plus = ylm(l, m, t, p);
                let minus = ylm(l, -m, t, p);
                let sign = if m % 2 == 0 { 1.0 } else { -1.0 };
                assert!(close(minus, plus.conj() * sign, 1e-13), "l={l} m={m}");
            }
        }
    }

    #[test]
    fn addition_theorem() {
        // P_l(a·b) = 4π/(2l+1) Σ_m Y_lm(a) conj(Y_lm(b))
        use crate::legendre::legendre_p;
        let a = Vec3::new(0.3, -0.5, 0.81).normalized().unwrap();
        let b = Vec3::new(-0.9, 0.1, 0.4).normalized().unwrap();
        for l in 0..=10usize {
            let mut sum = Complex64::ZERO;
            for m in -(l as i64)..=(l as i64) {
                sum += ylm_cartesian(l, m, a) * ylm_cartesian(l, m, b).conj();
            }
            let lhs = legendre_p(l, a.dot(b));
            let rhs = sum * (4.0 * PI / (2 * l + 1) as f64);
            assert!(
                (lhs - rhs.re).abs() < 1e-11 && rhs.im.abs() < 1e-11,
                "l={l}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn orthonormality_by_quadrature() {
        // ∫ Y_lm conj(Y_l'm') dΩ = δ δ, midpoint rule on (θ, φ).
        let nt = 200;
        let np = 200;
        let dt = PI / nt as f64;
        let dp = 2.0 * PI / np as f64;
        let pairs = [(0usize, 0i64), (1, 0), (1, 1), (2, 1), (3, -2), (4, 4)];
        for &(l1, m1) in &pairs {
            for &(l2, m2) in &pairs {
                let mut s = Complex64::ZERO;
                for i in 0..nt {
                    let t = (i as f64 + 0.5) * dt;
                    let w = t.sin() * dt * dp;
                    for j in 0..np {
                        let p = (j as f64 + 0.5) * dp;
                        s += ylm(l1, m1, t, p) * ylm(l2, m2, t, p).conj() * w;
                    }
                }
                let want = if (l1, m1) == (l2, m2) { 1.0 } else { 0.0 };
                assert!(
                    (s.re - want).abs() < 2e-3 && s.im.abs() < 2e-3,
                    "({l1},{m1}) vs ({l2},{m2}): {s}"
                );
            }
        }
    }

    #[test]
    fn batched_matches_single() {
        let dir = Vec3::new(0.6, -1.1, 0.3);
        let lmax = 8;
        let mut buf = vec![Complex64::ZERO; crate::lm_count(lmax)];
        ylm_all_cartesian(lmax, dir, &mut buf);
        for l in 0..=lmax {
            for m in 0..=l {
                assert!(
                    close(
                        buf[crate::lm_index(l, m)],
                        ylm_cartesian(l, m as i64, dir),
                        1e-13
                    ),
                    "l={l} m={m}"
                );
            }
        }
    }
}
