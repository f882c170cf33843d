//! Radial bins for triangle side lengths.
//!
//! "The secondaries are then binned into spherical shells based on
//! distance from the primary; this corresponds to the bins in triangle
//! side lengths r₁ and r₂" (paper §3.1). The paper uses Rmax = 200
//! Mpc/h with ~10 Mpc/h bins; we keep both the bin count and spacing
//! (linear or logarithmic) configurable.

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
    // lint:allow(W-DEADPUB): consumed by the engine as EngineConfig::bins (bin_of's logarithmic arm, traversal/block.rs)
    pub fn logarithmic(rmin: f64, rmax: f64, nbins: usize) -> Self {
        assert!(nbins > 0);
        assert!(rmin > 0.0 && rmax > rmin, "log bins need 0 < rmin < rmax");
        let ratio = (rmax / rmin).ln() / nbins as f64;
        let mut edges: Vec<f64> = (0..=nbins)
            .map(|i| rmin * (ratio * i as f64).exp())
            .collect();
        edges[0] = rmin;
        edges[nbins] = rmax;
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
