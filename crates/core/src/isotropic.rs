//! The isotropic 3PCF baseline (Slepian & Eisenstein 2015; paper §2.2,
//! §2.3).
//!
//! The isotropic algorithm expands the 3PCF in Legendre polynomials of
//! the triangle opening angle,
//! `ζ(r₁, r₂; r̂₁·r̂₂) = Σ_ℓ ζ_ℓ(r₁, r₂) P_ℓ(r̂₁·r̂₂)`, and obtains the
//! multipoles in O(N²) through the spherical-harmonic addition theorem.
//! We store the raw Legendre-weighted triplet sums
//! `K_ℓ(b₁,b₂) = Σ_i w_i Σ_{j∈b₁,k∈b₂} w_j w_k P_ℓ(û_j·û_k)`.
//!
//! Two independent implementations:
//! * [`isotropic_multipoles`] — the SE15 O(N²) path: per-shell `a_ℓm`
//!   by direct `Y_ℓm` evaluation (no rotation — the isotropic statistic
//!   is rotation-invariant), then `K_ℓ = 4π/(2ℓ+1) Σ_m a a*`;
//! * [`isotropic_triplets`] — the O(N³) definition with nothing but
//!   Legendre polynomials (no spherical harmonics at all), used as the
//!   gold-standard oracle on tiny inputs.
//!
//! Both must agree with the anisotropic engine's
//! [`crate::result::AnisotropicZeta::compress_isotropic`] — the
//! rotation-invariance cross-check of the whole pipeline.
//!
//! Both also count the engine's pairs: [`isotropic_multipoles`] takes
//! its candidates from the same padded
//! [`KdTree::gather_neighbors`] and keeps a pair iff
//! [`RadialBins::bin_of`] bins its `f64` separation, which is the
//! rule [`isotropic_triplets`] applies to every pair (see
//! [`crate::traversal`]).

use crate::bins::RadialBins;
use crate::result::IsotropicZeta;
use galactos_catalog::Galaxy;
use galactos_kdtree::{KdTree, TreeConfig};
use galactos_math::legendre::legendre_all;
use galactos_math::sphharm::ylm_all_cartesian;
use galactos_math::{lm_count, lm_index, Complex64, Vec3};
use rayon::prelude::*;

/// SE15-style O(N²) isotropic multipoles. `include_self` keeps the
/// degenerate `j = k` pairs (P_ℓ(1) = 1 contributions on the diagonal).
pub fn isotropic_multipoles(
    galaxies: &[Galaxy],
    bins: &RadialBins,
    lmax: usize,
    periodic: Option<f64>,
    include_self: bool,
) -> IsotropicZeta {
    let nbins = bins.nbins();
    let nlm = lm_count(lmax);
    let positions: Vec<Vec3> = galaxies.iter().map(|g| g.pos).collect();
    let tree = KdTree::build(&positions, TreeConfig::default());
    let rmax = bins.rmax();

    (0..galaxies.len())
        .into_par_iter()
        .fold(
            || IsotropicZeta::zeros(lmax, nbins),
            |mut acc, i| {
                let mut neighbors: Vec<u32> = Vec::new();
                tree.gather_neighbors(positions[i], rmax, periodic, &mut neighbors);
                // Shell coefficients by direct Y evaluation (unrotated).
                let mut alm = vec![Complex64::ZERO; nbins * nlm];
                let mut ybuf = vec![Complex64::ZERO; nlm];
                // Self-pair corrections per bin: Σ_j w_j².
                let mut self_w2 = vec![0.0f64; nbins];
                for &jid in &neighbors {
                    let j = jid as usize;
                    if j == i {
                        continue;
                    }
                    let delta = match periodic {
                        Some(l) => positions[j].periodic_delta(positions[i], l),
                        None => positions[j] - positions[i],
                    };
                    let r = delta.norm();
                    if r == 0.0 {
                        continue;
                    }
                    let Some(bin) = bins.bin_of(r) else {
                        continue;
                    };
                    ylm_all_cartesian(lmax, delta, &mut ybuf);
                    let w = galaxies[j].weight;
                    for t in 0..nlm {
                        alm[bin * nlm + t] += ybuf[t] * w;
                    }
                    self_w2[bin] += w * w;
                }
                let wi = galaxies[i].weight;
                for l in 0..=lmax {
                    let pref = 4.0 * std::f64::consts::PI / (2 * l + 1) as f64;
                    for b1 in 0..nbins {
                        for b2 in 0..nbins {
                            // Σ_{m=-l..l} a(b1) a*(b2) via m >= 0 storage.
                            let mut s = (alm[b1 * nlm + lm_index(l, 0)]
                                * alm[b2 * nlm + lm_index(l, 0)].conj())
                            .re;
                            for m in 1..=l {
                                s += 2.0
                                    * (alm[b1 * nlm + lm_index(l, m)]
                                        * alm[b2 * nlm + lm_index(l, m)].conj())
                                    .re;
                            }
                            let mut v = pref * s;
                            if !include_self && b1 == b2 {
                                // P_l(û·û) = 1 for every self pair.
                                v -= self_w2[b1];
                            }
                            acc.add_to(l, b1, b2, wi * v);
                        }
                    }
                }
                acc.total_primary_weight += wi;
                acc.num_primaries += 1;
                acc
            },
        )
        .reduce(
            || IsotropicZeta::zeros(lmax, nbins),
            |mut a, b| {
                a.merge(&b);
                a
            },
        )
}

/// O(N³) gold standard: explicit Legendre-weighted triplet sums.
// lint:allow(W-DEADPUB): oracle for isotropic_multipoles in core/tests/oracle.rs and tests/end_to_end.rs
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
    use galactos_catalog::uniform_box;

    fn galaxies(n: usize, seed: u64) -> Vec<Galaxy> {
        uniform_box(n, 10.0, seed).galaxies
    }

    #[test]
    fn multipoles_match_triplet_oracle() {
        let g = galaxies(30, 3);
        let bins = RadialBins::linear(0.0, 6.0, 3);
        for include_self in [true, false] {
            let fast = isotropic_multipoles(&g, &bins, 4, None, include_self);
            let slow = isotropic_triplets(&g, &bins, 4, None, include_self);
            let scale = slow.max_abs().max(1.0);
            assert!(
                fast.max_difference(&slow) < 1e-9 * scale,
                "include_self={include_self}: diff {}",
                fast.max_difference(&slow)
            );
            assert_eq!(fast.num_primaries, slow.num_primaries);
        }
    }

    #[test]
    fn periodic_consistency() {
        let cat = uniform_box(40, 8.0, 7);
        // Up to rmax = box/2, where the padded search reaches a point
        // on the far face through two images.
        for rmax in [3.9, 4.0] {
            let bins = RadialBins::linear(0.0, rmax, 3);
            let fast = isotropic_multipoles(&cat.galaxies, &bins, 3, Some(8.0), true);
            let slow = isotropic_triplets(&cat.galaxies, &bins, 3, Some(8.0), true);
            let scale = slow.max_abs().max(1.0);
            assert!(fast.max_difference(&slow) < 1e-9 * scale, "rmax {rmax}");
        }
    }

    #[test]
    fn l0_diagonal_dominates_for_uniform() {
        // For a uniform catalog, K_0 (pair counting) is large and
        // positive while higher multipoles average toward zero.
        let g = galaxies(300, 9);
        let bins = RadialBins::linear(0.0, 5.0, 2);
        let k = isotropic_multipoles(&g, &bins, 4, None, false);
        let k0 = k.get(0, 1, 1).abs();
        let k3 = k.get(3, 1, 1).abs();
        assert!(k0 > k3, "K0 {k0} should dominate K3 {k3}");
        assert!(k.get(0, 1, 1) > 0.0);
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
