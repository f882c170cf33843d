//! Radial bins for triangle side lengths.
//!
//! "The secondaries are then binned into spherical shells based on
//! distance from the primary; this corresponds to the bins in triangle
//! side lengths r₁ and r₂" (paper §3.1). The paper uses Rmax = 200
//! Mpc/h with ~10 Mpc/h bins; we keep both the bin count and spacing
//! (linear or logarithmic) configurable.
//!
//! [`RadialBins::bin_of`] decides which shell a pair at separation `r`
//! falls in, or that it counts in none. Its lane twin,
//! `RadialBins::bin_lanes`, gives the same answer for eight
//! separations at once, for the staging lane pass of both Phase As
//! (`traversal/block.rs`).

use galactos_simd::{F64x8, F64_LANES};

/// A lane of [`RadialBins::bin_lanes`] whose separation `bin_of` puts
/// in no bin.
pub(crate) const NO_BIN: u32 = u32::MAX;

/// Spacing rule for radial bin edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinSpacing {
    Linear,
    Logarithmic,
}

/// A set of radial shells `[edges[i], edges[i+1])`.
#[derive(Clone, Debug, PartialEq)]
pub struct RadialBins {
    edges: Vec<f64>,
    spacing: BinSpacing,
    /// Cached `1/width` for the linear fast path.
    inv_width: f64,
    /// Cached `ln(rmin)` for the logarithmic fast path.
    ln_rmin: f64,
    /// Cached `1 / ln(edges[i+1]/edges[i])` so the logarithmic lookup
    /// is one `ln` and one multiply per call — no division, no binary
    /// search.
    inv_ln_step: f64,
}

impl RadialBins {
    /// `nbins` equal-width shells covering `[rmin, rmax)`.
    pub fn linear(rmin: f64, rmax: f64, nbins: usize) -> Self {
        assert!(nbins > 0, "need at least one bin");
        assert!(rmin >= 0.0 && rmax > rmin, "invalid range [{rmin}, {rmax})");
        let width = (rmax - rmin) / nbins as f64;
        let mut edges: Vec<f64> = (0..=nbins).map(|i| rmin + i as f64 * width).collect();
        edges[0] = rmin;
        edges[nbins] = rmax; // exact outer edge despite rounding
        assert_non_decreasing(&edges);
        RadialBins {
            edges,
            spacing: BinSpacing::Linear,
            inv_width: 1.0 / width,
            ln_rmin: 0.0,
            inv_ln_step: 0.0,
        }
    }

    /// `nbins` logarithmically spaced shells covering `[rmin, rmax)`
    /// (requires `rmin > 0`).
    // lint:allow(W-DEADPUB): consumed by the engine as EngineConfig::bins (bin_of's logarithmic arm; its lane twin bin_lanes, called by the staging lane pass in traversal/block.rs)
    pub fn logarithmic(rmin: f64, rmax: f64, nbins: usize) -> Self {
        assert!(nbins > 0);
        assert!(rmin > 0.0 && rmax > rmin, "log bins need 0 < rmin < rmax");
        let ratio = (rmax / rmin).ln() / nbins as f64;
        let mut edges: Vec<f64> = (0..=nbins)
            .map(|i| rmin * (ratio * i as f64).exp())
            .collect();
        edges[0] = rmin;
        edges[nbins] = rmax;
        assert_non_decreasing(&edges);
        RadialBins {
            edges,
            spacing: BinSpacing::Logarithmic,
            inv_width: 0.0,
            ln_rmin: rmin.ln(),
            inv_ln_step: 1.0 / ratio,
        }
    }

    #[inline]
    pub fn nbins(&self) -> usize {
        self.edges.len() - 1
    }

    #[inline]
    pub fn rmin(&self) -> f64 {
        self.edges[0]
    }

    #[inline]
    pub fn rmax(&self) -> f64 {
        *self.edges.last().unwrap()
    }

    #[inline]
    // lint:allow(W-DEADPUB): oracle for bin_of's half-open intervals, exactly as stored, in bins.rs tests and core/tests/proptests.rs
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Geometric center of bin `i` (midpoint of its edges).
    #[inline]
    pub fn center(&self, i: usize) -> f64 {
        0.5 * (self.edges[i] + self.edges[i + 1])
    }

    /// Shell volume `4π/3 (r_hi³ − r_lo³)` of bin `i`.
    pub fn shell_volume(&self, i: usize) -> f64 {
        4.0 / 3.0 * std::f64::consts::PI * (self.edges[i + 1].powi(3) - self.edges[i].powi(3))
    }

    /// Bin index of radius `r`, or `None` outside `[rmin, rmax)`.
    /// Non-finite radii (NaN, ±∞) are never inside any bin.
    ///
    /// Bins are the half-open intervals `[edges[i], edges[i+1])`
    /// *exactly as stored*: the fast arithmetic lookup is corrected
    /// against the edge array so boundary radii land deterministically.
    #[inline]
    pub fn bin_of(&self, r: f64) -> Option<usize> {
        // NaN fails both range comparisons below, which used to fall
        // through to the lookup: the linear cast produced a silent
        // `Some(0)` and the logarithmic `partial_cmp(..).unwrap()`
        // panicked. Reject it explicitly so both spacings agree.
        if r.is_nan() || r < self.rmin() || r >= self.rmax() {
            return None;
        }
        let guess = match self.spacing {
            BinSpacing::Linear => {
                (((r - self.rmin()) * self.inv_width) as usize).min(self.nbins() - 1)
            }
            // One ln + one multiply per pair (the reciprocal of the log
            // step is precomputed at construction, so there is no
            // division and no binary search on the hot path). Any
            // rounding of the arithmetic guess is repaired by the
            // edge-exact correction below, exactly as for linear bins.
            BinSpacing::Logarithmic => {
                (((r.ln() - self.ln_rmin) * self.inv_ln_step) as usize).min(self.nbins() - 1)
            }
        };
        // Edge-exact correction for floating-point rounding of the
        // arithmetic inverse (at most one step in practice).
        let mut idx = guess;
        while idx > 0 && r < self.edges[idx] {
            idx -= 1;
        }
        while idx + 1 < self.nbins() && r >= self.edges[idx + 1] {
            idx += 1;
        }
        Some(idx)
    }

    /// [`RadialBins::bin_of`] on eight separations at once: lane `i` is
    /// `bin_of(r[i])` as a `u32`, or [`NO_BIN`] where that is `None`.
    ///
    /// `bin_of` returns the one `idx` with
    /// `edges[idx] ≤ r < edges[idx + 1]` for `r` in `[rmin, rmax)`.
    /// The edges never decrease, so that `idx` is the number of inner
    /// edges `edges[1..nbins]` at or below `r`, which each lane counts
    /// with one compare per edge: no `ln`, no guess, no correction
    /// loop. The range mask `rmin ≤ r < rmax` then leaves NaN (every
    /// compare false), ±∞, `r < rmin` and `r ≥ rmax` unbinned, exactly
    /// as `bin_of` does.
    #[inline(always)]
    pub(crate) fn bin_lanes(&self, r: F64x8) -> [u32; F64_LANES] {
        let r = r.0;
        let mut count = [0u64; F64_LANES];
        for &edge in &self.edges[1..self.nbins()] {
            for (c, &x) in count.iter_mut().zip(&r) {
                *c += (edge <= x) as u64;
            }
        }
        let (rmin, rmax) = (self.rmin(), self.rmax());
        let mut bin = [NO_BIN; F64_LANES];
        for ((b, &c), &x) in bin.iter_mut().zip(&count).zip(&r) {
            if rmin <= x && x < rmax {
                *b = c as u32;
            }
        }
        bin
    }
}

/// The edge order [`RadialBins::bin_of`]'s correction and
/// [`RadialBins::bin_lanes`]' count both rely on.
fn assert_non_decreasing(edges: &[f64]) {
    assert!(
        edges.windows(2).all(|e| e[0] <= e[1]),
        "bin edges must not decrease: {edges:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_edges_and_lookup() {
        let b = RadialBins::linear(0.0, 100.0, 10);
        assert_eq!(b.nbins(), 10);
        assert_eq!(b.rmin(), 0.0);
        assert_eq!(b.rmax(), 100.0);
        assert_eq!(b.bin_of(0.0), Some(0));
        assert_eq!(b.bin_of(9.999), Some(0));
        assert_eq!(b.bin_of(10.0), Some(1));
        assert_eq!(b.bin_of(99.999), Some(9));
        assert_eq!(b.bin_of(100.0), None);
        assert_eq!(b.bin_of(-1.0), None);
        assert!((b.center(0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn linear_with_rmin() {
        let b = RadialBins::linear(20.0, 200.0, 18);
        assert_eq!(b.bin_of(19.9), None);
        assert_eq!(b.bin_of(20.0), Some(0));
        assert_eq!(b.bin_of(30.0), Some(1));
        assert_eq!(b.bin_of(199.9), Some(17));
    }

    #[test]
    fn log_edges_and_lookup() {
        let b = RadialBins::logarithmic(1.0, 100.0, 4);
        // Edges: 1, 10^0.5, 10, 10^1.5, 100
        assert!((b.edges()[2] - 10.0).abs() < 1e-9);
        assert_eq!(b.bin_of(0.5), None);
        assert_eq!(b.bin_of(1.0), Some(0));
        assert_eq!(b.bin_of(5.0), Some(1));
        assert_eq!(b.bin_of(50.0), Some(3));
        assert_eq!(b.bin_of(100.0), None);
        // Exact edge hits the bin it opens.
        assert_eq!(b.bin_of(b.edges()[2]), Some(2));
    }

    #[test]
    fn every_radius_lands_in_its_bin() {
        for bins in [
            RadialBins::linear(0.0, 50.0, 7),
            RadialBins::linear(5.0, 64.0, 13),
            RadialBins::logarithmic(0.5, 80.0, 9),
        ] {
            for i in 0..bins.nbins() {
                let lo = bins.edges()[i];
                let hi = bins.edges()[i + 1];
                for t in [0.0, 0.3, 0.7, 0.999] {
                    let r = lo + t * (hi - lo);
                    assert_eq!(bins.bin_of(r), Some(i), "r={r} bins={bins:?}");
                }
            }
        }
    }

    #[test]
    fn non_finite_radii_land_in_no_bin() {
        // Regression: NaN used to return Some(0) for linear spacing and
        // panic (partial_cmp unwrap) for logarithmic spacing.
        for bins in [
            RadialBins::linear(0.0, 100.0, 10),
            RadialBins::logarithmic(1.0, 100.0, 4),
        ] {
            assert_eq!(bins.bin_of(f64::NAN), None, "{bins:?}");
            assert_eq!(bins.bin_of(f64::INFINITY), None, "{bins:?}");
            assert_eq!(bins.bin_of(f64::NEG_INFINITY), None, "{bins:?}");
        }
    }

    /// `bin_lanes` lane by lane, through `bin_of`'s `Option`.
    fn lanes_as_options(bins: &RadialBins, r: [f64; F64_LANES]) -> [Option<usize>; F64_LANES] {
        bins.bin_lanes(F64x8::from_array(r))
            .map(|b| (b != NO_BIN).then_some(b as usize))
    }

    /// The lane twin is `bin_of` on every radius that can tell them
    /// apart: each edge and its ±1 and ±2 ulp neighbours, zero,
    /// `rmin − ulp`, `rmax − ulp`, `rmax`, a subnormal, NaN and ±∞, for
    /// linear and logarithmic bins from `rmin` 0 and above 0, with 1
    /// and 10 bins. Each radius is tried in every lane, beside the
    /// others, so no lane borrows a neighbour's answer.
    #[test]
    fn bin_lanes_is_bin_of() {
        for nbins in [1, 10] {
            for bins in [
                RadialBins::linear(0.0, 50.0, nbins),
                RadialBins::linear(2.5, 50.0, nbins),
                RadialBins::linear(0.1, 0.7, nbins),
                RadialBins::logarithmic(0.5, 80.0, nbins),
                RadialBins::logarithmic(1e-3, 3.0, nbins),
            ] {
                let mut radii = vec![
                    0.0,
                    -0.0,
                    bins.rmin().next_down(),
                    bins.rmax().next_down(),
                    bins.rmax(),
                    f64::from_bits(1), // smallest subnormal
                    f64::MIN_POSITIVE.next_down(),
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    -1.0,
                ];
                for &e in bins.edges() {
                    radii.extend([
                        e.next_down().next_down(),
                        e.next_down(),
                        e,
                        e.next_up(),
                        e.next_up().next_up(),
                    ]);
                }
                radii.resize(radii.len().next_multiple_of(F64_LANES), f64::NAN);
                for shift in 0..F64_LANES {
                    radii.rotate_left(1);
                    for group in radii.chunks_exact(F64_LANES) {
                        let r: [f64; F64_LANES] = group.try_into().unwrap();
                        let want = r.map(|x| bins.bin_of(x));
                        assert_eq!(
                            lanes_as_options(&bins, r),
                            want,
                            "r={r:?} shift={shift} bins={bins:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shell_volumes_sum_to_sphere_difference() {
        let b = RadialBins::linear(10.0, 40.0, 6);
        let total: f64 = (0..6).map(|i| b.shell_volume(i)).sum();
        let want = 4.0 / 3.0 * std::f64::consts::PI * (40.0f64.powi(3) - 10.0f64.powi(3));
        assert!((total - want).abs() < 1e-9 * want);
    }

    #[test]
    #[should_panic(expected = "log bins need")]
    fn log_rejects_zero_rmin() {
        RadialBins::logarithmic(0.0, 10.0, 3);
    }
}
