//! 2-point correlation function reference.
//!
//! The 2PCF provides context for every 3PCF measurement (paper §1.1,
//! §2.3 — the billion-particle 2PCF of Chhugani et al. is the closest
//! prior HPC result). One weighted pair counter over the k-d tree
//! ([`cross_pair_counts`]) and the Landy–Szalay estimator
//! `ξ = (DD − 2DR + RR)/RR` on top of it: no engine path calls them;
//! `tests/statistical.rs` checks the mocks' clustering scale against
//! them. A pair counts by the engine's rule: the padded
//! [`KdTree::gather_neighbors`] proposes it and
//! [`RadialBins::bin_of`] bins its `f64` separation (see
//! [`crate::traversal`]).

use crate::bins::RadialBins;
use galactos_catalog::Catalog;
use galactos_kdtree::{KdTree, TreeConfig};
use rayon::prelude::*;

/// Weighted pair counts per radial bin between `a` and `b`
/// (ordered pairs (i ∈ a, j ∈ b); for auto-counts pass the same catalog
/// and halve, or use [`auto_pair_counts`]).
pub fn cross_pair_counts(a: &Catalog, b: &Catalog, bins: &RadialBins) -> Vec<f64> {
    assert_eq!(
        a.periodic, b.periodic,
        "catalogs must share periodicity for pair counting"
    );
    let tree = KdTree::build(b.galaxies.iter().map(|g| g.pos), TreeConfig::default());
    let rmax = bins.rmax();
    let periodic = a.periodic;

    a.galaxies
        .par_iter()
        .fold(
            || vec![0.0f64; bins.nbins()],
            |mut hist, gi| {
                let mut neighbors: Vec<u32> = Vec::new();
                tree.gather_neighbors(gi.pos, rmax, periodic, &mut neighbors);
                for &j in &neighbors {
                    let gj = &b.galaxies[j as usize];
                    let r = match periodic {
                        Some(l) => gj.pos.periodic_delta(gi.pos, l).norm(),
                        None => gj.pos.distance(gi.pos),
                    };
                    if r > 0.0 {
                        if let Some(bin) = bins.bin_of(r) {
                            hist[bin] += gi.weight * gj.weight;
                        }
                    }
                }
                hist
            },
        )
        .reduce(
            || vec![0.0f64; bins.nbins()],
            |mut x, y| {
                for (a, b) in x.iter_mut().zip(y) {
                    *a += b;
                }
                x
            },
        )
}

/// Weighted auto pair counts (unordered pairs, self excluded).
pub fn auto_pair_counts(catalog: &Catalog, bins: &RadialBins) -> Vec<f64> {
    cross_pair_counts(catalog, catalog, bins)
        .into_iter()
        .map(|v| v * 0.5)
        .collect()
}

/// The Landy–Szalay 2PCF estimator per bin:
/// `ξ = (DD/nn_dd − 2·DR/nn_dr + RR/nn_rr) / (RR/nn_rr)`,
/// with pair-count normalizations `nn = Σw_a Σw_b − δ_ab Σw²` supplied
/// by the caller through the catalogs.
// lint:allow(W-DEADPUB): oracle for the mock catalogs' clustering scale in tests/statistical.rs
pub fn landy_szalay(data: &Catalog, randoms: &Catalog, bins: &RadialBins) -> Vec<f64> {
    let dd = auto_pair_counts(data, bins);
    let dr = cross_pair_counts(data, randoms, bins);
    let rr = auto_pair_counts(randoms, bins);
    let wd = data.total_weight();
    let wr = randoms.total_weight();
    let wd2: f64 = data.galaxies.iter().map(|g| g.weight * g.weight).sum();
    let wr2: f64 = randoms.galaxies.iter().map(|g| g.weight * g.weight).sum();
    let norm_dd = 0.5 * (wd * wd - wd2);
    let norm_dr = wd * wr;
    let norm_rr = 0.5 * (wr * wr - wr2);
    (0..bins.nbins())
        .map(|b| {
            let rr_n = rr[b] / norm_rr;
            if rr_n <= 0.0 {
                return 0.0;
            }
            let dd_n = dd[b] / norm_dd;
            let dr_n = dr[b] / norm_dr;
            (dd_n - 2.0 * dr_n + rr_n) / rr_n
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use galactos_catalog::uniform_box;

    #[test]
    fn auto_counts_match_brute_force() {
        let cat = uniform_box(200, 10.0, 3);
        let bins = RadialBins::linear(0.0, 4.9, 5);
        let got = auto_pair_counts(&cat, &bins);
        let mut want = [0.0; 5];
        for i in 0..200 {
            for j in (i + 1)..200 {
                let r = cat.galaxies[i]
                    .pos
                    .periodic_delta(cat.galaxies[j].pos, 10.0)
                    .norm();
                if let Some(b) = bins.bin_of(r) {
                    want[b] += 1.0;
                }
            }
        }
        for b in 0..5 {
            assert!(
                (got[b] - want[b]).abs() < 1e-9,
                "bin {b}: {} vs {}",
                got[b],
                want[b]
            );
        }
    }

    #[test]
    fn cross_counts_are_ordered_pairs() {
        let a = uniform_box(50, 8.0, 5);
        let b = uniform_box(70, 8.0, 6);
        let bins = RadialBins::linear(0.0, 3.9, 4);
        let ab = cross_pair_counts(&a, &b, &bins);
        let ba = cross_pair_counts(&b, &a, &bins);
        for bin in 0..4 {
            assert!((ab[bin] - ba[bin]).abs() < 1e-9, "symmetry in totals");
        }
    }

    #[test]
    fn uniform_xi_is_near_zero() {
        // ξ(r) ≈ 0 for Poisson data against Poisson randoms.
        let data = uniform_box(2000, 20.0, 7);
        let randoms = uniform_box(4000, 20.0, 8);
        let bins = RadialBins::linear(0.5, 6.0, 5);
        let xi = landy_szalay(&data, &randoms, &bins);
        for (b, &x) in xi.iter().enumerate() {
            assert!(x.abs() < 0.15, "bin {b}: ξ = {x}");
        }
    }

    #[test]
    fn clustered_xi_is_positive_at_small_r() {
        // A catalog of close pairs must show ξ > 0 at the pair scale.
        let mut data = uniform_box(600, 20.0, 9);
        let n = data.len();
        let mut doubled = data.galaxies.clone();
        for k in 0..n {
            let mut g = data.galaxies[k];
            g.pos.x = (g.pos.x + 0.4).rem_euclid(20.0);
            doubled.push(g);
        }
        data.galaxies = doubled;
        let randoms = uniform_box(3000, 20.0, 10);
        let bins = RadialBins::linear(0.1, 2.1, 4);
        let xi = landy_szalay(&data, &randoms, &bins);
        assert!(xi[0] > 0.5, "ξ(small r) = {}", xi[0]);
    }

    #[test]
    fn weights_enter_quadratically() {
        let mut cat = uniform_box(100, 10.0, 11);
        let bins = RadialBins::linear(0.0, 4.0, 4);
        let base = auto_pair_counts(&cat, &bins);
        for g in &mut cat.galaxies {
            g.weight = 3.0;
        }
        let scaled = auto_pair_counts(&cat, &bins);
        for b in 0..4 {
            assert!((scaled[b] - 9.0 * base[b]).abs() < 1e-9);
        }
    }
}
