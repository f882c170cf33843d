//! Per-radial-bin pair buckets (the paper's pre-binning, §3.3.1).
//!
//! "Galactos mitigates this problem by collecting all pairs of one
//! primary … that fall in the same radial bin into temporary 'buckets'
//! of any desired size (to be set to fully exploit a given machine's
//! vector registers). When a bucket fills, then Galactos computes the
//! multipole contributions of all galaxies in that bucket."
//!
//! Storage is struct-of-arrays per bin — `Δx` for all pairs contiguous,
//! likewise `Δy`, `Δz` and the weights — matching §3.3.3's data-locality
//! argument ("these vector operations result in the fewest possible
//! number of loads from memory").

/// Fixed-capacity per-bin buckets of unit separation vectors + weights.
#[derive(Clone, Debug)]
pub struct PairBuckets {
    nbins: usize,
    capacity: usize,
    dx: Vec<f64>,
    dy: Vec<f64>,
    dz: Vec<f64>,
    w: Vec<f64>,
    len: Vec<usize>,
}

impl PairBuckets {
    pub fn new(nbins: usize, capacity: usize) -> Self {
        assert!(capacity >= 1);
        PairBuckets {
            nbins,
            capacity,
            dx: vec![0.0; nbins * capacity],
            dy: vec![0.0; nbins * capacity],
            dz: vec![0.0; nbins * capacity],
            w: vec![0.0; nbins * capacity],
            len: vec![0; nbins],
        }
    }

    #[inline]
    pub(crate) fn nbins(&self) -> usize {
        self.nbins
    }

    #[cfg(test)]
    pub(crate) fn len(&self, bin: usize) -> usize {
        self.len[bin]
    }

    #[inline]
    pub(crate) fn is_empty(&self, bin: usize) -> bool {
        self.len[bin] == 0
    }

    /// Append one pair to `bin`; returns `true` when the bucket is now
    /// full (caller must flush and clear it).
    #[inline]
    pub fn push(&mut self, bin: usize, ux: f64, uy: f64, uz: f64, weight: f64) -> bool {
        debug_assert!(bin < self.nbins);
        let l = self.len[bin];
        debug_assert!(l < self.capacity, "bucket overflow — missed flush");
        let base = bin * self.capacity;
        self.dx[base + l] = ux;
        self.dy[base + l] = uy;
        self.dz[base + l] = uz;
        self.w[base + l] = weight;
        self.len[bin] = l + 1;
        l + 1 == self.capacity
    }

    /// The filled slices of `bin`: `(Δx, Δy, Δz, w)`.
    #[inline]
    pub(crate) fn slices(&self, bin: usize) -> (&[f64], &[f64], &[f64], &[f64]) {
        let base = bin * self.capacity;
        let l = self.len[bin];
        (
            &self.dx[base..base + l],
            &self.dy[base..base + l],
            &self.dz[base..base + l],
            &self.w[base..base + l],
        )
    }

    #[inline]
    pub(crate) fn clear_bin(&mut self, bin: usize) {
        self.len[bin] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_flush_cycle() {
        let mut b = PairBuckets::new(3, 4);
        assert!(!b.push(1, 0.1, 0.2, 0.3, 1.0));
        assert!(!b.push(1, 0.4, 0.5, 0.6, 2.0));
        assert_eq!(b.len(1), 2);
        let (dx, dy, dz, w) = b.slices(1);
        assert_eq!(dx, &[0.1, 0.4]);
        assert_eq!(dy, &[0.2, 0.5]);
        assert_eq!(dz, &[0.3, 0.6]);
        assert_eq!(w, &[1.0, 2.0]);
        assert!(!b.push(1, 0.0, 0.0, 1.0, 1.0));
        // fourth push fills the bucket
        assert!(b.push(1, 1.0, 0.0, 0.0, 1.0));
        b.clear_bin(1);
        assert!(b.is_empty(1));
    }

    #[test]
    fn bins_are_independent() {
        let mut b = PairBuckets::new(2, 8);
        b.push(0, 1.0, 0.0, 0.0, 1.0);
        b.push(1, 0.0, 1.0, 0.0, 2.0);
        assert_eq!(b.len(0), 1);
        assert_eq!(b.len(1), 1);
        assert_eq!(b.slices(0).0, &[1.0]);
        assert_eq!(b.slices(1).1, &[1.0]);
        b.clear_bin(0);
        assert!(b.is_empty(0) && !b.is_empty(1));
    }
}
