//! Correctness oracles: brute-force 3PCF estimators.
//!
//! Two independent implementations of the same quantity the engine
//! computes:
//!
//! * [`naive_anisotropic`] — the O(N³) triplet loop: for every primary
//!   `i` and every ordered pair of secondaries `(j, k)` accumulate
//!   `w_i w_j w_k · Y_ℓm(û_j) · conj(Y_ℓ'm(û_k))` by direct spherical
//!   harmonic evaluation (with the same line-of-sight rotation). This
//!   is the definition of the estimator; the engine's O(N²) algorithm
//!   must match it to floating-point accuracy because the
//!   factorization `Σ_{jk} = (Σ_j)(Σ_k)*` is exact algebra.
//! * [`seminaive_anisotropic`] — the O(N²·ℓm) variant that forms
//!   `a_ℓm` per shell by direct `Y_ℓm` evaluation (no monomial tables,
//!   no buckets) and multiplies shell coefficients. Identical math to
//!   the engine but none of its optimized machinery.
//!
//! And one for the isotropic statistic of Slepian & Eisenstein (2015;
//! paper §2.2, §2.3), the m-sum of the ℓ = ℓ' coefficients that
//! [`AnisotropicZeta::compress_isotropic`] takes:
//!
//! * [`isotropic_triplets`] — the O(N³) definition
//!   `K_ℓ(b₁,b₂) = Σ_i w_i Σ_{j∈b₁,k∈b₂} w_j w_k P_ℓ(û_j·û_k)` with
//!   nothing but Legendre polynomials (no spherical harmonics, no
//!   rotation).
//!
//! All are exercised only on small catalogs by tests and benchmarks.

use crate::bins::RadialBins;
use crate::config::EngineConfig;
use crate::result::{AnisotropicZeta, IsotropicZeta};
use galactos_catalog::Galaxy;
use galactos_math::legendre::legendre_all;
use galactos_math::sphharm::ylm_all_cartesian;
use galactos_math::{lm_count, lm_index, Complex64, Mat3, Vec3};

/// Secondaries of one primary, rotated and binned.
struct BinnedSecondary {
    bin: usize,
    weight: f64,
    /// Direct `Y_ℓm` values for `m ≥ 0`.
    ylm: Vec<Complex64>,
}

fn gather_secondaries(
    galaxies: &[Galaxy],
    i: usize,
    config: &EngineConfig,
    periodic: Option<f64>,
    rotation: &Mat3,
) -> Vec<BinnedSecondary> {
    let mut out = Vec::new();
    for (j, g) in galaxies.iter().enumerate() {
        if j == i {
            continue;
        }
        let delta = match periodic {
            Some(l) => g.pos.periodic_delta(galaxies[i].pos, l),
            None => g.pos - galaxies[i].pos,
        };
        let r = delta.norm();
        if r == 0.0 {
            continue;
        }
        let Some(bin) = config.bins.bin_of(r) else {
            continue;
        };
        let rotated = rotation.mul_vec(delta);
        let mut ylm = vec![Complex64::ZERO; lm_count(config.lmax)];
        ylm_all_cartesian(config.lmax, rotated, &mut ylm);
        out.push(BinnedSecondary {
            bin,
            weight: g.weight,
            ylm,
        });
    }
    out
}

/// O(N³) triplet-counting anisotropic 3PCF. `include_self` keeps the
/// degenerate `j = k` "triangles" (matching the raw `a·a*` product);
/// excluding them matches the engine with `subtract_self_pairs = true`.
// lint:allow(W-DEADPUB): oracle for Engine::compute in core/tests/{conformance,degenerate}.rs and engine.rs tests
pub fn naive_anisotropic(
    galaxies: &[Galaxy],
    config: &EngineConfig,
    periodic: Option<f64>,
    include_self: bool,
) -> AnisotropicZeta {
    let lmax = config.lmax;
    let nbins = config.bins.nbins();
    let mut zeta = AnisotropicZeta::zeros(lmax, nbins);
    for i in 0..galaxies.len() {
        let Some(rotation) = config.line_of_sight.rotation_for(galaxies[i].pos) else {
            continue;
        };
        let secondaries = gather_secondaries(galaxies, i, config, periodic, &rotation);
        let wi = galaxies[i].weight;
        for (jdx, sj) in secondaries.iter().enumerate() {
            for (kdx, sk) in secondaries.iter().enumerate() {
                if !include_self && jdx == kdx {
                    continue;
                }
                zeta.binned_pairs += u64::from(kdx == 0);
                let w = wi * sj.weight * sk.weight;
                for l in 0..=lmax {
                    for lp in 0..=lmax {
                        for m in 0..=l.min(lp) {
                            let v = sj.ylm[lm_index(l, m)] * sk.ylm[lm_index(lp, m)].conj() * w;
                            zeta.add_to(l, lp, m, sj.bin, sk.bin, v);
                        }
                    }
                }
            }
        }
        zeta.total_primary_weight += wi;
        zeta.num_primaries += 1;
    }
    zeta
}

/// O(N²·ℓm) direct-`Y_ℓm` implementation: form shell coefficients by
/// direct evaluation, then take products (includes the `j = k` terms,
/// like the raw engine output).
// lint:allow(W-DEADPUB): oracle for Engine::compute in core/tests/{conformance,traversal_equivalence}.rs
pub fn seminaive_anisotropic(
    galaxies: &[Galaxy],
    config: &EngineConfig,
    periodic: Option<f64>,
) -> AnisotropicZeta {
    let lmax = config.lmax;
    let nbins = config.bins.nbins();
    let nlm = lm_count(lmax);
    let mut zeta = AnisotropicZeta::zeros(lmax, nbins);
    for i in 0..galaxies.len() {
        let Some(rotation) = config.line_of_sight.rotation_for(galaxies[i].pos) else {
            continue;
        };
        let secondaries = gather_secondaries(galaxies, i, config, periodic, &rotation);
        // Shell coefficients a_lm(bin) = Σ_j w_j Y_lm(û_j).
        let mut alm = vec![Complex64::ZERO; nbins * nlm];
        let mut pairs = 0u64;
        for s in &secondaries {
            pairs += 1;
            for t in 0..nlm {
                alm[s.bin * nlm + t] += s.ylm[t] * s.weight;
            }
        }
        let wi = galaxies[i].weight;
        for l in 0..=lmax {
            for lp in 0..=lmax {
                for m in 0..=l.min(lp) {
                    let i1 = lm_index(l, m);
                    let i2 = lm_index(lp, m);
                    for b1 in 0..nbins {
                        for b2 in 0..nbins {
                            let v = alm[b1 * nlm + i1] * alm[b2 * nlm + i2].conj() * wi;
                            zeta.add_to(l, lp, m, b1, b2, v);
                        }
                    }
                }
            }
        }
        zeta.binned_pairs += pairs;
        zeta.total_primary_weight += wi;
        zeta.num_primaries += 1;
    }
    zeta
}

/// O(N³) isotropic multipoles: explicit Legendre-weighted triplet sums.
/// `include_self` keeps the degenerate `j = k` pairs (`P_ℓ(1) = 1` on
/// the diagonal), matching the engine with `subtract_self_pairs = false`.
// lint:allow(W-DEADPUB): oracle for AnisotropicZeta::compress_isotropic in core/tests/{oracle,traversal_equivalence}.rs, tests/end_to_end.rs and naive.rs tests
pub fn isotropic_triplets(
    galaxies: &[Galaxy],
    bins: &RadialBins,
    lmax: usize,
    periodic: Option<f64>,
    include_self: bool,
) -> IsotropicZeta {
    let nbins = bins.nbins();
    let mut out = IsotropicZeta::zeros(lmax, nbins);
    let mut pl = vec![0.0; lmax + 1];
    for i in 0..galaxies.len() {
        // Collect binned separations around primary i.
        let mut secondaries: Vec<(usize, Vec3, f64)> = Vec::new();
        for (j, g) in galaxies.iter().enumerate() {
            if j == i {
                continue;
            }
            let delta = match periodic {
                Some(l) => g.pos.periodic_delta(galaxies[i].pos, l),
                None => g.pos - galaxies[i].pos,
            };
            let r = delta.norm();
            if r == 0.0 {
                continue;
            }
            if let Some(bin) = bins.bin_of(r) {
                secondaries.push((bin, delta / r, g.weight));
            }
        }
        let wi = galaxies[i].weight;
        for (jdx, &(b1, u1, w1)) in secondaries.iter().enumerate() {
            for (kdx, &(b2, u2, w2)) in secondaries.iter().enumerate() {
                if !include_self && jdx == kdx {
                    continue;
                }
                let c = u1.dot(u2).clamp(-1.0, 1.0);
                legendre_all(lmax, c, &mut pl);
                let w = wi * w1 * w2;
                for (l, &p) in pl.iter().enumerate() {
                    out.add_to(l, b1, b2, w * p);
                }
            }
        }
        out.total_primary_weight += wi;
        out.num_primaries += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use galactos_catalog::uniform_box;
    use galactos_math::{LineOfSight, Vec3};

    fn galaxies(n: usize, seed: u64) -> Vec<Galaxy> {
        uniform_box(n, 10.0, seed).galaxies
    }

    #[test]
    fn naive_with_self_equals_seminaive() {
        // Σ_{jk} Y_j Y*_k (with j = k kept) is exactly (Σ_j Y)(Σ_k Y)*.
        let g = galaxies(25, 5);
        let config = EngineConfig::test_default(6.0, 3, 3);
        let a = naive_anisotropic(&g, &config, None, true);
        let b = seminaive_anisotropic(&g, &config, None);
        let scale = a.max_abs().max(1.0);
        assert!(
            a.max_difference(&b) < 1e-10 * scale,
            "diff {}",
            a.max_difference(&b)
        );
    }

    #[test]
    fn self_exclusion_changes_only_diagonal_bins() {
        let g = galaxies(20, 7);
        let config = EngineConfig::test_default(6.0, 2, 3);
        let with_self = naive_anisotropic(&g, &config, None, true);
        let without = naive_anisotropic(&g, &config, None, false);
        for l in 0..=2 {
            for lp in 0..=2 {
                for m in 0..=l.min(lp) {
                    for b1 in 0..3 {
                        for b2 in 0..3 {
                            let d = with_self
                                .get(l, lp, m, b1, b2)
                                .dist_inf(without.get(l, lp, m, b1, b2));
                            if b1 == b2 {
                                continue; // diagonal may differ
                            }
                            assert!(d < 1e-12, "off-diagonal changed: {l},{lp},{m},{b1},{b2}");
                        }
                    }
                }
            }
        }
        // And the diagonal must actually differ somewhere.
        let mut diag_diff = 0.0f64;
        for b in 0..3 {
            diag_diff = diag_diff.max(
                with_self
                    .get(0, 0, 0, b, b)
                    .dist_inf(without.get(0, 0, 0, b, b)),
            );
        }
        assert!(diag_diff > 1e-6, "self terms missing from diagonal");
    }

    #[test]
    fn weights_scale_linearly() {
        let mut g = galaxies(15, 9);
        let config = EngineConfig::test_default(5.0, 2, 2);
        let base = naive_anisotropic(&g, &config, None, true);
        for gal in &mut g {
            gal.weight = 2.0;
        }
        let doubled = naive_anisotropic(&g, &config, None, true);
        // Every term has w_i w_j w_k → factor 8.
        for (a, b) in base.data().iter().zip(doubled.data().iter()) {
            assert!((*a * 8.0).dist_inf(*b) < 1e-9 * (1.0 + a.abs() * 8.0));
        }
    }

    #[test]
    fn radial_los_matches_fixed_at_far_distance() {
        // With the observer far on the -z axis, the radial line of sight
        // approaches +ẑ and the two conventions converge.
        let g = galaxies(15, 11);
        let mut near = EngineConfig::test_default(5.0, 3, 2);
        near.line_of_sight = LineOfSight::Fixed(Vec3::Z);
        let fixed = naive_anisotropic(&g, &near, None, true);
        let mut far = EngineConfig::test_default(5.0, 3, 2);
        far.line_of_sight = LineOfSight::Radial {
            observer: Vec3::new(0.0, 0.0, -1.0e7),
        };
        let radial = naive_anisotropic(&g, &far, None, true);
        let scale = fixed.max_abs().max(1.0);
        assert!(
            fixed.max_difference(&radial) < 1e-4 * scale,
            "diff {}",
            fixed.max_difference(&radial)
        );
    }

    #[test]
    fn self_pairs_add_exactly_sum_w_squared() {
        // With unit weights, include_self − exclude_self on the diagonal
        // equals Σ_i w_i · (count of secondaries in that bin) for every l.
        let g = galaxies(25, 11);
        let bins = RadialBins::linear(0.0, 6.0, 2);
        let with_self = isotropic_triplets(&g, &bins, 3, None, true);
        let without = isotropic_triplets(&g, &bins, 3, None, false);
        for l in 0..=3 {
            for b in 0..2 {
                let d = with_self.get(l, b, b) - without.get(l, b, b);
                let d0 = with_self.get(0, b, b) - without.get(0, b, b);
                // P_l(1) = 1 for all l → identical self contribution.
                assert!((d - d0).abs() < 1e-9, "l={l} b={b}");
            }
        }
    }
}
