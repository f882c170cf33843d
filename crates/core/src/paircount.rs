//! 2-point correlation function machinery.
//!
//! The 2PCF provides context for every 3PCF measurement (paper §1.1,
//! §2.3 — the billion-particle 2PCF of Chhugani et al. is the closest
//! prior HPC result). This module implements weighted pair-count
//! histograms over the k-d tree and the Landy–Szalay estimator
//! `ξ = (DD − 2DR + RR)/RR`.

use crate::bins::RadialBins;
use galactos_catalog::Catalog;
use galactos_kdtree::{KdTree, TreeConfig};
use galactos_math::Vec3;
use rayon::prelude::*;

/// Weighted pair counts per radial bin between `a` and `b`
/// (ordered pairs (i ∈ a, j ∈ b); for auto-counts pass the same catalog
/// and halve, or use [`auto_pair_counts`]).
pub fn cross_pair_counts(a: &Catalog, b: &Catalog, bins: &RadialBins) -> Vec<f64> {
    assert_eq!(
        a.periodic, b.periodic,
        "catalogs must share periodicity for pair counting"
    );
    let positions_b: Vec<Vec3> = b.positions();
    let tree = KdTree::<f64>::build(&positions_b, TreeConfig::default());
    let rmax = bins.rmax();
    let periodic = a.periodic;

    a.galaxies
        .par_iter()
        .fold(
            || vec![0.0f64; bins.nbins()],
            |mut hist, gi| {
                let mut visit = |j: u32| {
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
                };
                match periodic {
                    Some(l) => tree.for_each_within_periodic(gi.pos, rmax, l, &mut visit),
                    None => tree.for_each_within(gi.pos, rmax, &mut visit),
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

/// SIMD-friendly histogram updates in the style of Chhugani et al.
/// (SC '12), the billion-galaxy 2PCF work the paper cites in §2.3:
/// instead of binning each pair as it is found (a scattered
/// read-modify-write per pair), distances are staged in a contiguous
/// buffer and binned in a separate streaming pass. The staging pass
/// vectorizes (pure arithmetic, sequential writes); the binning pass
/// touches the small histogram with high temporal locality.
#[derive(Clone, Debug)]
pub struct BucketedHistogram {
    bins: RadialBins,
    hist: Vec<f64>,
    /// Staged (squared distance, weight) pairs.
    stage_r2: Vec<f64>,
    stage_w: Vec<f64>,
    capacity: usize,
}

impl BucketedHistogram {
    pub fn new(bins: RadialBins, capacity: usize) -> Self {
        assert!(capacity >= 1);
        let nbins = bins.nbins();
        BucketedHistogram {
            bins,
            hist: vec![0.0; nbins],
            stage_r2: Vec::with_capacity(capacity),
            stage_w: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Stage one pair; flushes automatically when the buffer fills.
    #[inline]
    pub fn push(&mut self, r_squared: f64, weight: f64) {
        self.stage_r2.push(r_squared);
        self.stage_w.push(weight);
        if self.stage_r2.len() == self.capacity {
            self.flush();
        }
    }

    /// Drain the staging buffer into the histogram.
    pub fn flush(&mut self) {
        for (&r2, &w) in self.stage_r2.iter().zip(self.stage_w.iter()) {
            if let Some(b) = self.bins.bin_of(r2.sqrt()) {
                self.hist[b] += w;
            }
        }
        self.stage_r2.clear();
        self.stage_w.clear();
    }

    /// Final counts (flushes first).
    pub fn finish(mut self) -> Vec<f64> {
        self.flush();
        self.hist
    }
}

/// Auto pair counts through the bucketed histogram path — identical
/// results to [`auto_pair_counts`], different update pattern.
pub fn auto_pair_counts_bucketed(
    catalog: &Catalog,
    bins: &RadialBins,
    bucket_capacity: usize,
) -> Vec<f64> {
    let positions: Vec<Vec3> = catalog.positions();
    let tree = KdTree::<f64>::build(&positions, TreeConfig::default());
    let rmax = bins.rmax();
    let periodic = catalog.periodic;
    let halves: Vec<f64> = catalog
        .galaxies
        .par_iter()
        .fold(
            || BucketedHistogram::new(bins.clone(), bucket_capacity),
            |mut acc, gi| {
                let mut visit = |j: u32| {
                    let gj = &catalog.galaxies[j as usize];
                    let r2 = match periodic {
                        Some(l) => gj.pos.periodic_delta(gi.pos, l).norm_sq(),
                        None => gj.pos.distance_sq(gi.pos),
                    };
                    if r2 > 0.0 {
                        acc.push(r2, gi.weight * gj.weight);
                    }
                };
                match periodic {
                    Some(l) => tree.for_each_within_periodic(gi.pos, rmax, l, &mut visit),
                    None => tree.for_each_within(gi.pos, rmax, &mut visit),
                }
                acc
            },
        )
        .map(|acc| acc.finish())
        .reduce(
            || vec![0.0; bins.nbins()],
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        );
    halves.into_iter().map(|v| v * 0.5).collect()
}

/// Unweighted auto pair counts via *counting queries*: for each galaxy,
/// the cumulative neighbor count at every bin edge (the marked k-d
/// tree's cached subtree counts make each query sub-linear), then
/// differenced into shells. This is the algorithmic payoff of the
/// "marked" trees from the paper's §2.1 prior-art discussion: no
/// neighbor lists are ever materialized.
///
/// Counting queries cannot carry weights, so this path requires a
/// unit-weight catalog (asserted).
pub fn auto_pair_counts_counting(catalog: &Catalog, bins: &RadialBins) -> Vec<f64> {
    assert!(
        catalog.galaxies.iter().all(|g| g.weight == 1.0),
        "counting-query pair counts require unit weights"
    );
    let positions: Vec<Vec3> = catalog.positions();
    let tree = KdTree::<f64>::build(&positions, TreeConfig::default());
    let edges = bins.edges().to_vec();
    let periodic = catalog.periodic;

    let ordered: Vec<f64> = positions
        .par_iter()
        .fold(
            || vec![0.0f64; bins.nbins()],
            |mut hist, &p| {
                let count_at = |r: f64| -> usize {
                    match periodic {
                        // Periodic counting would need image handling in
                        // count space; do it via three summed images per
                        // axis only when r <= L/2 (guaranteed by bins).
                        Some(l) => {
                            let mut total = 0usize;
                            tree.for_each_within_periodic(p, r, l, &mut |_| total += 1);
                            total
                        }
                        None => tree.count_within(p, r),
                    }
                };
                let mut prev = count_at(edges[0]);
                // Make the innermost edge exclude the point itself when
                // the first edge is 0 (distance 0 counts as inside).
                for (b, &edge) in edges.iter().skip(1).enumerate() {
                    let cur = count_at(edge);
                    hist[b] += (cur - prev) as f64;
                    prev = cur;
                }
                hist
            },
        )
        .reduce(
            || vec![0.0f64; bins.nbins()],
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        );
    // Counting at the outer edge uses <= instead of < — bin content is
    // (count <= hi) − (count <= lo), which matches [lo, hi) half-open
    // shells up to points exactly on an edge; identical treatment to
    // bin_of for points strictly inside. Halve for unordered pairs.
    ordered.into_iter().map(|v| v * 0.5).collect()
}

/// The Landy–Szalay 2PCF estimator per bin:
/// `ξ = (DD/nn_dd − 2·DR/nn_dr + RR/nn_rr) / (RR/nn_rr)`,
/// with pair-count normalizations `nn = Σw_a Σw_b − δ_ab Σw²` supplied
/// by the caller through the catalogs.
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
        let mut want = vec![0.0; 5];
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
    fn bucketed_equals_direct_counts() {
        let cat = uniform_box(400, 12.0, 13);
        let bins = RadialBins::linear(0.0, 5.0, 6);
        let direct = auto_pair_counts(&cat, &bins);
        for capacity in [1usize, 7, 128, 4096] {
            let bucketed = auto_pair_counts_bucketed(&cat, &bins, capacity);
            for b in 0..6 {
                assert!(
                    (direct[b] - bucketed[b]).abs() < 1e-9,
                    "capacity {capacity} bin {b}: {} vs {}",
                    direct[b],
                    bucketed[b]
                );
            }
        }
    }

    #[test]
    fn counting_queries_equal_direct_counts() {
        // Random (tie-free) positions: the (lo, hi] counting convention
        // coincides with [lo, hi) binning almost surely.
        for periodic in [true, false] {
            let mut cat = uniform_box(500, 15.0, 17);
            if !periodic {
                cat.periodic = None;
            }
            let bins = RadialBins::linear(0.0, 6.0, 5);
            let direct = auto_pair_counts(&cat, &bins);
            let counted = auto_pair_counts_counting(&cat, &bins);
            for b in 0..5 {
                assert!(
                    (direct[b] - counted[b]).abs() < 1e-9,
                    "periodic={periodic} bin {b}: {} vs {}",
                    direct[b],
                    counted[b]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "unit weights")]
    fn counting_queries_reject_weights() {
        let mut cat = uniform_box(10, 5.0, 1);
        cat.galaxies[0].weight = 2.0;
        auto_pair_counts_counting(&cat, &RadialBins::linear(0.0, 2.0, 2));
    }

    #[test]
    fn bucketed_histogram_flush_semantics() {
        let bins = RadialBins::linear(0.0, 10.0, 2);
        let mut h = BucketedHistogram::new(bins, 3);
        h.push(4.0, 1.0); // r = 2 -> bin 0
        h.push(36.0, 2.0); // r = 6 -> bin 1
        h.push(144.0, 1.0); // r = 12 -> out of range (auto-flush here)
        h.push(1.0, 0.5); // r = 1 -> bin 0
        let counts = h.finish();
        assert_eq!(counts, vec![1.5, 2.0]);
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
