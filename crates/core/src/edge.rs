//! Isotropic survey edge correction (Slepian & Eisenstein 2015 §4;
//! paper §6.1).
//!
//! A survey's window multiplies the true correlation by an angular
//! weight. In the Legendre-coefficient basis, multiplication of two
//! series couples multipoles through squared Wigner 3-j symbols:
//!
//! ```text
//! P_{ℓ'}(x)·P_{ℓ''}(x) = Σ_ℓ (2ℓ+1) (ℓ ℓ' ℓ''; 0 0 0)² P_ℓ(x)
//! ```
//!
//! so the observed (data-minus-randoms weighted) multipoles `N_ℓ`
//! relate to the true `ζ_ℓ` by `N_ℓ/R₀ = Σ_{ℓ'} M_{ℓℓ'} ζ_{ℓ'}` with
//! `M_{ℓℓ'} = Σ_{ℓ''} f_{ℓ''} (2ℓ+1)(ℓ ℓ' ℓ''; 000)²` and
//! `f_{ℓ''}` the random-catalog multipole ratios. Edge correction
//! solves this small linear system per radial-bin pair.
//!
//! Conventions: inputs are the raw `K_ℓ` triplet sums of
//! [`crate::result::IsotropicZeta`]; they are converted internally to
//! Legendre *coefficients* `z_ℓ = (2ℓ+1)/2 · K_ℓ` (coefficients of
//! `Σ z_ℓ P_ℓ` matching the underlying angular function).

use crate::result::IsotropicZeta;
use galactos_math::linalg::Matrix;
use galactos_math::wigner::Wigner3j;

/// The multipole mixing matrix `M_{ℓℓ'}` for window coefficients `f`
/// (`f[ℓ'']`, with `f[0] = 1` by normalization).
pub(crate) fn mixing_matrix(f: &[f64], lmax: usize, wigner: &Wigner3j) -> Matrix {
    let mut m = Matrix::zeros(lmax + 1, lmax + 1);
    for l in 0..=lmax {
        for lp in 0..=lmax {
            let mut acc = 0.0;
            for (lpp, &flpp) in f.iter().enumerate() {
                if flpp == 0.0 {
                    continue;
                }
                let w = wigner.eval(l as i64, lp as i64, lpp as i64, 0, 0, 0);
                acc += flpp * (2 * l + 1) as f64 * w * w;
            }
            m[(l, lp)] = acc;
        }
    }
    m
}

/// Edge-correct the measured multipoles.
///
/// * `nnn` — `K_ℓ` of the data-minus-randoms field (the `N_ℓ` of SE15);
/// * `rrr` — `K_ℓ` of the random catalog alone (the window);
/// * `lmax_window` — highest window multipole retained in `f`.
///
/// Returns the corrected `ζ_ℓ(b₁, b₂)` expressed as Legendre
/// *coefficients* of the true 3PCF angular dependence, normalized per
/// unit window (divided by the window's ℓ=0 coefficient).
pub fn edge_corrected(
    nnn: &IsotropicZeta,
    rrr: &IsotropicZeta,
    lmax_window: usize,
) -> IsotropicZeta {
    assert_eq!(nnn.lmax(), rrr.lmax(), "multipole ranges must match");
    assert_eq!(nnn.nbins(), rrr.nbins());
    let lmax = nnn.lmax();
    assert!(lmax_window <= lmax, "window lmax exceeds measured lmax");
    let wigner = Wigner3j::new(2 * lmax + 1);
    let nbins = nnn.nbins();
    let mut out = IsotropicZeta::zeros(lmax, nbins);
    out.total_primary_weight = nnn.total_primary_weight;
    out.num_primaries = nnn.num_primaries;

    // K_l -> Legendre coefficients z_l = (2l+1)/2 K_l.
    let to_coeff = |k: f64, l: usize| (2 * l + 1) as f64 / 2.0 * k;

    for b1 in 0..nbins {
        for b2 in 0..nbins {
            let r0 = to_coeff(rrr.get(0, b1, b2), 0);
            if r0.abs() < 1e-300 {
                continue; // empty window bin: leave zeros
            }
            // Window coefficients f_l = z^R_l / z^R_0, truncated.
            let f: Vec<f64> = (0..=lmax_window)
                .map(|l| to_coeff(rrr.get(l, b1, b2), l) / r0)
                .collect();
            let m = mixing_matrix(&f, lmax, &wigner);
            let rhs: Vec<f64> = (0..=lmax)
                .map(|l| to_coeff(nnn.get(l, b1, b2), l) / r0)
                .collect();
            if let Some(zeta) = m.solve(&rhs) {
                for (l, &z) in zeta.iter().enumerate() {
                    out.set(l, b1, b2, z);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use galactos_math::legendre::legendre_p;

    /// `M·x` for the square mixing matrix.
    fn apply(m: &Matrix, x: &[f64]) -> Vec<f64> {
        (0..x.len())
            .map(|i| (0..x.len()).map(|j| m[(i, j)] * x[j]).sum())
            .collect()
    }

    #[test]
    fn mixing_matrix_is_identity_for_trivial_window() {
        let wigner = Wigner3j::new(12);
        let m = mixing_matrix(&[1.0], 5, &wigner);
        for l in 0..=5 {
            for lp in 0..=5 {
                let want = if l == lp { 1.0 } else { 0.0 };
                assert!((m[(l, lp)] - want).abs() < 1e-12, "({l},{lp})");
            }
        }
    }

    #[test]
    fn mixing_matrix_reproduces_legendre_products() {
        // Multiply ζ(x) = Σ z_l P_l by W(x) = Σ f_l P_l numerically and
        // compare projected coefficients against M·z.
        let lmax = 6;
        let wigner = Wigner3j::new(2 * lmax + 2);
        let z = [0.3, -0.1, 0.25, 0.0, 0.05, 0.02, -0.04];
        let f = [1.0, 0.2, -0.1, 0.05];
        let m = mixing_matrix(&f, lmax, &wigner);
        let mixed = apply(&m, &z);

        // Numerical projection of the pointwise product (quadrature).
        let n = 40_000;
        let h = 2.0 / n as f64;
        for (l, &want) in mixed.iter().enumerate() {
            let mut proj = 0.0;
            for i in 0..n {
                let x = -1.0 + (i as f64 + 0.5) * h;
                let zeta_x: f64 = z
                    .iter()
                    .enumerate()
                    .map(|(a, &c)| c * legendre_p(a, x))
                    .sum();
                let w_x: f64 = f
                    .iter()
                    .enumerate()
                    .map(|(a, &c)| c * legendre_p(a, x))
                    .sum();
                proj += zeta_x * w_x * legendre_p(l, x) * h;
            }
            proj *= (2 * l + 1) as f64 / 2.0;
            assert!(
                (proj - want).abs() < 1e-4,
                "l={l}: quadrature {proj} vs matrix {want}"
            );
        }
    }

    #[test]
    fn edge_correction_inverts_known_mixing() {
        // Build synthetic "observed" multipoles by mixing a known ζ with
        // a known window, then verify the correction recovers ζ.
        let lmax = 5;
        let nbins = 2;
        let wigner = Wigner3j::new(2 * lmax + 2);
        let true_zeta = [0.8, 0.3, -0.2, 0.1, 0.05, -0.02];
        let f = [1.0, -0.15, 0.08];

        let m = mixing_matrix(&f, lmax, &wigner);
        let observed_coeff = apply(&m, &true_zeta);

        // Convert to K_l convention: K_l = 2 z_l / (2l+1), with an
        // arbitrary window amplitude R0.
        let r0_amp = 7.0;
        let mut nnn = IsotropicZeta::zeros(lmax, nbins);
        let mut rrr = IsotropicZeta::zeros(lmax, nbins);
        for b1 in 0..nbins {
            for b2 in 0..nbins {
                for l in 0..=lmax {
                    let k_obs = 2.0 * observed_coeff[l] * r0_amp / (2 * l + 1) as f64;
                    nnn.set(l, b1, b2, k_obs);
                    let fl = if l < f.len() { f[l] } else { 0.0 };
                    let k_win = 2.0 * fl * r0_amp / (2 * l + 1) as f64;
                    rrr.set(l, b1, b2, k_win);
                }
            }
        }
        let corrected = edge_corrected(&nnn, &rrr, 2);
        for b1 in 0..nbins {
            for b2 in 0..nbins {
                for (l, &want) in true_zeta.iter().enumerate() {
                    assert!(
                        (corrected.get(l, b1, b2) - want).abs() < 1e-9,
                        "l={l}: {} vs {want}",
                        corrected.get(l, b1, b2)
                    );
                }
            }
        }
    }

    #[test]
    fn full_sky_window_is_identity_correction() {
        // With an isotropic window (f has only l=0), correction reduces
        // to dividing by R0 and rescaling conventions.
        let lmax = 3;
        let mut nnn = IsotropicZeta::zeros(lmax, 1);
        let mut rrr = IsotropicZeta::zeros(lmax, 1);
        rrr.set(0, 0, 0, 4.0);
        for l in 0..=lmax {
            nnn.set(l, 0, 0, (l as f64 + 1.0) * 0.1);
        }
        let corrected = edge_corrected(&nnn, &rrr, 0);
        let r0_coeff = 0.5 * 4.0;
        for l in 0..=lmax {
            let want = (2 * l + 1) as f64 / 2.0 * (l as f64 + 1.0) * 0.1 / r0_coeff;
            assert!(
                (corrected.get(l, 0, 0) - want).abs() < 1e-12,
                "l={l}: {} vs {want}",
                corrected.get(l, 0, 0)
            );
        }
    }
}
