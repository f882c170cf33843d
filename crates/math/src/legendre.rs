//! Legendre polynomials `P_ℓ` and associated Legendre functions `P_ℓ^m`.
//!
//! Three representations are provided:
//!
//! * **values** via numerically stable upward recurrences
//!   ([`legendre_p`], [`assoc_legendre_p`]) — used by the direct spherical
//!   harmonic evaluator and, as the reference values, by the tests;
//! * **polynomial coefficients** of `P_ℓ` and of its `m`-th derivative
//!   ([`legendre_coefficients`], [`legendre_derivative_coefficients`]) —
//!   used to expand `Y_ℓm · rˡ` into Cartesian monomials (the Galactos
//!   kernel basis);
//! * **batched evaluation** of all orders `0..=ℓmax` at once
//!   ([`legendre_all`]) — the self-pair series of
//!   [`SelfPairTable`](crate::ylm::SelfPairTable) and the O(N³)
//!   isotropic triplet oracle `galactos_core::naive::isotropic_triplets`
//!   (the Legendre-basis statistic of Slepian & Eisenstein 2015).
//!
//! The Condon–Shortley phase `(-1)^m` is included in `P_ℓ^m`, matching the
//! physics convention used for `Y_ℓm` throughout this workspace.

use crate::factorial::binomial_u128;

/// Legendre polynomial `P_ℓ(x)` via the three-term recurrence
/// `(ℓ+1) P_{ℓ+1} = (2ℓ+1) x P_ℓ − ℓ P_{ℓ−1}`.
// lint:allow(W-DEADPUB): oracle for legendre_all, the mixing matrix and the addition theorem (legendre.rs, core/src/edge.rs and sphharm.rs tests)
pub fn legendre_p(l: usize, x: f64) -> f64 {
    match l {
        0 => 1.0,
        1 => x,
        _ => {
            let mut pm2 = 1.0; // P_0
            let mut pm1 = x; // P_1
            for k in 1..l {
                let p = ((2 * k + 1) as f64 * x * pm1 - k as f64 * pm2) / (k + 1) as f64;
                pm2 = pm1;
                pm1 = p;
            }
            pm1
        }
    }
}

/// Evaluate `P_0(x) … P_lmax(x)` into `out` (`out.len() == lmax+1`).
pub fn legendre_all(lmax: usize, x: f64, out: &mut [f64]) {
    assert_eq!(out.len(), lmax + 1, "output slice must hold lmax+1 values");
    out[0] = 1.0;
    if lmax == 0 {
        return;
    }
    out[1] = x;
    for k in 1..lmax {
        out[k + 1] = ((2 * k + 1) as f64 * x * out[k] - k as f64 * out[k - 1]) / (k + 1) as f64;
    }
}

/// Associated Legendre function `P_ℓ^m(x)` for `0 ≤ m ≤ ℓ`, `|x| ≤ 1`,
/// including the Condon–Shortley phase `(-1)^m`.
///
/// Recurrences used:
/// `P_m^m = (-1)^m (2m-1)!! (1-x²)^{m/2}`,
/// `P_{m+1}^m = x (2m+1) P_m^m`,
/// `(ℓ-m) P_ℓ^m = x (2ℓ-1) P_{ℓ-1}^m − (ℓ+m-1) P_{ℓ-2}^m`.
pub fn assoc_legendre_p(l: usize, m: usize, x: f64) -> f64 {
    assert!(m <= l, "require m <= l (got l={l}, m={m})");
    debug_assert!((-1.0..=1.0).contains(&x), "x out of domain: {x}");
    // P_m^m
    let somx2 = ((1.0 - x) * (1.0 + x)).max(0.0).sqrt(); // sin(theta) >= 0
    let mut pmm = 1.0;
    let mut fact = 1.0;
    for _ in 0..m {
        pmm *= -fact * somx2;
        fact += 2.0;
    }
    if l == m {
        return pmm;
    }
    // P_{m+1}^m
    let mut pmmp1 = x * (2 * m + 1) as f64 * pmm;
    if l == m + 1 {
        return pmmp1;
    }
    for ll in (m + 2)..=l {
        let pll = (x * (2 * ll - 1) as f64 * pmmp1 - (ll + m - 1) as f64 * pmm) / (ll - m) as f64;
        pmm = pmmp1;
        pmmp1 = pll;
    }
    pmmp1
}

/// Exact rational coefficients of `P_ℓ(u) = Σ_k c_k u^k`, returned as
/// `f64` values (exact for `ℓ ≤ 20` since the numerators fit in `u128`
/// and the division by `2^ℓ` is exact in binary floating point).
///
/// Closed form: `P_ℓ(u) = 2^{-ℓ} Σ_{j=0}^{⌊ℓ/2⌋} (-1)^j C(ℓ,j) C(2ℓ-2j,ℓ) u^{ℓ-2j}`.
pub fn legendre_coefficients(l: usize) -> Vec<f64> {
    let mut coeffs = vec![0.0f64; l + 1];
    let two_pow_l = 2f64.powi(l as i32);
    for j in 0..=(l / 2) {
        let sign = if j % 2 == 0 { 1.0 } else { -1.0 };
        let num = binomial_u128(l as u64, j as u64) as f64
            * binomial_u128((2 * l - 2 * j) as u64, l as u64) as f64;
        coeffs[l - 2 * j] = sign * num / two_pow_l;
    }
    coeffs
}

/// Coefficients of the `m`-th derivative `d^m/du^m P_ℓ(u)` (degree `ℓ-m`).
///
/// This is the polynomial part of `P_ℓ^m`: with the Condon–Shortley
/// convention, `P_ℓ^m(u) = (-1)^m (1-u²)^{m/2} · d^m/du^m P_ℓ(u)`.
pub fn legendre_derivative_coefficients(l: usize, m: usize) -> Vec<f64> {
    assert!(m <= l);
    let mut c = legendre_coefficients(l);
    for _ in 0..m {
        // differentiate once: c_k u^k -> k c_k u^{k-1}
        for k in 1..c.len() {
            c[k - 1] = k as f64 * c[k];
        }
        c.pop();
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Σ coeffs[k] u^k` by Horner's rule.
    fn eval_poly(coeffs: &[f64], u: f64) -> f64 {
        coeffs.iter().rev().fold(0.0, |acc, &c| acc * u + c)
    }

    fn assert_close(a: f64, b: f64, tol: f64, msg: &str) {
        assert!(
            (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())),
            "{msg}: {a} vs {b}"
        );
    }

    #[test]
    fn low_order_closed_forms() {
        for &x in &[-1.0, -0.7, -0.3, 0.0, 0.2, 0.5, 0.99, 1.0] {
            assert_close(legendre_p(0, x), 1.0, 1e-15, "P0");
            assert_close(legendre_p(1, x), x, 1e-15, "P1");
            assert_close(legendre_p(2, x), 0.5 * (3.0 * x * x - 1.0), 1e-14, "P2");
            assert_close(
                legendre_p(3, x),
                0.5 * (5.0 * x * x * x - 3.0 * x),
                1e-14,
                "P3",
            );
            assert_close(
                legendre_p(4, x),
                (35.0 * x.powi(4) - 30.0 * x * x + 3.0) / 8.0,
                1e-13,
                "P4",
            );
        }
    }

    #[test]
    fn endpoint_values() {
        for l in 0..=12 {
            assert_close(legendre_p(l, 1.0), 1.0, 1e-13, "P_l(1)=1");
            let want = if l % 2 == 0 { 1.0 } else { -1.0 };
            assert_close(legendre_p(l, -1.0), want, 1e-13, "P_l(-1)=(-1)^l");
        }
    }

    #[test]
    fn legendre_all_matches_single() {
        let mut buf = vec![0.0; 13];
        for &x in &[-0.9, -0.2, 0.4, 0.77] {
            legendre_all(12, x, &mut buf);
            for (l, &p) in buf.iter().enumerate() {
                assert_close(p, legendre_p(l, x), 1e-13, "batch vs single");
            }
        }
    }

    #[test]
    fn coefficients_reproduce_values() {
        for l in 0..=12 {
            let c = legendre_coefficients(l);
            assert_eq!(c.len(), l + 1);
            for &x in &[-0.8, -0.1, 0.33, 0.9] {
                assert_close(
                    eval_poly(&c, x),
                    legendre_p(l, x),
                    1e-11,
                    &format!("coeff eval l={l}"),
                );
            }
        }
    }

    #[test]
    fn associated_low_orders() {
        // Explicit forms with Condon-Shortley phase.
        for &x in &[-0.9f64, -0.4, 0.0, 0.3, 0.8] {
            let s = (1.0 - x * x).sqrt();
            assert_close(assoc_legendre_p(1, 1, x), -s, 1e-14, "P11");
            assert_close(assoc_legendre_p(2, 1, x), -3.0 * x * s, 1e-13, "P21");
            assert_close(assoc_legendre_p(2, 2, x), 3.0 * (1.0 - x * x), 1e-13, "P22");
            assert_close(
                assoc_legendre_p(3, 2, x),
                15.0 * x * (1.0 - x * x),
                1e-13,
                "P32",
            );
            assert_close(
                assoc_legendre_p(3, 3, x),
                -15.0 * (1.0 - x * x) * s,
                1e-13,
                "P33",
            );
        }
    }

    #[test]
    fn associated_m0_is_plain_legendre() {
        for l in 0..=10 {
            for &x in &[-0.95, -0.2, 0.5, 0.99] {
                assert_close(
                    assoc_legendre_p(l, 0, x),
                    legendre_p(l, x),
                    1e-12,
                    "m=0 reduces to P_l",
                );
            }
        }
    }

    #[test]
    fn derivative_coefficients_vs_assoc_values() {
        // P_l^m(x) = (-1)^m (1-x^2)^{m/2} * D^m P_l(x)
        for l in 0..=10usize {
            for m in 0..=l {
                let d = legendre_derivative_coefficients(l, m);
                assert_eq!(d.len(), l - m + 1);
                for &x in &[-0.7f64, 0.1, 0.6] {
                    let sign = if m % 2 == 0 { 1.0 } else { -1.0 };
                    let expect = sign * (1.0 - x * x).powf(m as f64 / 2.0) * eval_poly(&d, x);
                    assert_close(
                        assoc_legendre_p(l, m, x),
                        expect,
                        1e-10,
                        &format!("l={l} m={m}"),
                    );
                }
            }
        }
    }

    #[test]
    fn orthogonality_by_quadrature() {
        // ∫_{-1}^{1} P_a P_b dx = 2/(2a+1) δ_ab, via midpoint rule.
        let n = 20_000;
        let h = 2.0 / n as f64;
        for a in 0..=6usize {
            for b in 0..=6usize {
                let mut s = 0.0;
                for i in 0..n {
                    let x = -1.0 + (i as f64 + 0.5) * h;
                    s += legendre_p(a, x) * legendre_p(b, x) * h;
                }
                let want = if a == b {
                    2.0 / (2 * a + 1) as f64
                } else {
                    0.0
                };
                assert!(
                    (s - want).abs() < 5e-6,
                    "orthogonality a={a} b={b}: {s} vs {want}"
                );
            }
        }
    }
}
