//! Result containers: `ζ^m_{ℓℓ'}(r₁, r₂)` and its isotropic compression.
//!
//! Storage covers `0 ≤ ℓ, ℓ' ≤ ℓmax` and `0 ≤ m ≤ min(ℓ, ℓ')`; negative
//! spins follow from `ζ^{−m}_{ℓℓ'} = conj(ζ^m_{ℓℓ'})` (a consequence of
//! `a_{ℓ,−m} = (−1)^m conj(a_{ℓm})` for real-weighted point sets) and
//! are not stored. The radial dependence is a full `nbins × nbins`
//! matrix in `(r₁, r₂)`, one contiguous row-major slab per `(ℓ, ℓ', m)`
//! block ([`ZetaLayout::block`]).
//!
//! Every term of the estimator is `w·a_ℓm(r₁)·conj(a_ℓ'm(r₂))` with
//! real `w`, so also `ζ^m_{ℓ'ℓ}(r₂, r₁) = conj(ζ^m_{ℓℓ'}(r₁, r₂))`. Both
//! halves are stored, but the tree engine accumulates only one, in
//! packed per-`m` triangles, and writes the other once per run as the
//! conjugate, a zero imaginary part as `+0` ([`crate::assembly`]), so
//! its output obeys the identity exactly.

use galactos_math::Complex64;
use std::ops::Range;

/// Index layout shared by the engine and the result container.
#[derive(Clone, Debug, PartialEq)]
pub struct ZetaLayout {
    lmax: usize,
    nbins: usize,
    /// Offset (in lm-combination slots) of each `(ℓ, ℓ')` block.
    lm_offsets: Vec<usize>,
    n_lm: usize,
}

impl ZetaLayout {
    pub fn new(lmax: usize, nbins: usize) -> Self {
        let side = lmax + 1;
        let mut lm_offsets = Vec::with_capacity(side * side);
        let mut off = 0usize;
        for l in 0..side {
            for lp in 0..side {
                lm_offsets.push(off);
                off += l.min(lp) + 1;
            }
        }
        ZetaLayout {
            lmax,
            nbins,
            lm_offsets,
            n_lm: off,
        }
    }

    #[inline]
    pub fn lmax(&self) -> usize {
        self.lmax
    }

    #[inline]
    pub fn nbins(&self) -> usize {
        self.nbins
    }

    /// Number of stored `(ℓ, ℓ', m)` combinations.
    #[inline]
    pub fn n_lm_combos(&self) -> usize {
        self.n_lm
    }

    /// Total number of stored complex values.
    #[inline]
    pub fn len(&self) -> usize {
        self.n_lm * self.nbins * self.nbins
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat range of the `nbins²` slab of block `(ℓ, ℓ', m)`, row-major
    /// in `(b₁, b₂)`: hot loops resolve it once per block.
    #[inline]
    pub fn block(&self, l: usize, lp: usize, m: usize) -> Range<usize> {
        debug_assert!(l <= self.lmax && lp <= self.lmax && m <= l.min(lp));
        let slab = self.nbins * self.nbins;
        let start = (self.lm_offsets[l * (self.lmax + 1) + lp] + m) * slab;
        start..start + slab
    }

    /// Flat index of `(ℓ, ℓ', m, b₁, b₂)`.
    #[inline]
    pub fn index(&self, l: usize, lp: usize, m: usize, b1: usize, b2: usize) -> usize {
        debug_assert!(b1 < self.nbins && b2 < self.nbins);
        self.block(l, lp, m).start + b1 * self.nbins + b2
    }
}

/// The anisotropic 3PCF multipole estimate: weighted sums of
/// `a_ℓm(r₁)·conj(a_ℓ'm(r₂))` over primaries, plus the bookkeeping
/// needed to normalize or merge partial results.
#[derive(Clone, Debug)]
pub struct AnisotropicZeta {
    layout: ZetaLayout,
    data: Vec<Complex64>,
    /// Sum of primary weights folded in (for averaging).
    pub total_primary_weight: f64,
    /// Number of primaries processed.
    pub num_primaries: u64,
    /// Number of (primary, secondary) pairs that landed in a radial bin.
    pub binned_pairs: u64,
}

impl AnisotropicZeta {
    pub fn zeros(lmax: usize, nbins: usize) -> Self {
        let layout = ZetaLayout::new(lmax, nbins);
        let data = vec![Complex64::ZERO; layout.len()];
        AnisotropicZeta {
            layout,
            data,
            total_primary_weight: 0.0,
            num_primaries: 0,
            binned_pairs: 0,
        }
    }

    #[inline]
    pub fn layout(&self) -> &ZetaLayout {
        &self.layout
    }

    #[inline]
    pub fn lmax(&self) -> usize {
        self.layout.lmax
    }

    #[inline]
    pub fn nbins(&self) -> usize {
        self.layout.nbins
    }

    /// `ζ^m_{ℓℓ'}(b₁, b₂)` for `m ≥ 0`.
    #[inline]
    pub fn get(&self, l: usize, lp: usize, m: usize, b1: usize, b2: usize) -> Complex64 {
        self.data[self.layout.index(l, lp, m, b1, b2)]
    }

    #[inline]
    pub fn add_to(&mut self, l: usize, lp: usize, m: usize, b1: usize, b2: usize, v: Complex64) {
        let idx = self.layout.index(l, lp, m, b1, b2);
        self.data[idx] += v;
    }

    /// The `nbins²` slab of block `(ℓ, ℓ', m)` ([`ZetaLayout::block`]).
    #[inline]
    pub fn block_mut(&mut self, l: usize, lp: usize, m: usize) -> &mut [Complex64] {
        &mut self.data[self.layout.block(l, lp, m)]
    }

    #[inline]
    pub fn data(&self) -> &[Complex64] {
        &self.data
    }

    #[inline]
    pub fn data_mut(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Merge another partial result (thread- or rank-local) into this one.
    pub fn merge(&mut self, other: &AnisotropicZeta) {
        assert_eq!(self.layout, other.layout, "layout mismatch in merge");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += *b;
        }
        self.total_primary_weight += other.total_primary_weight;
        self.num_primaries += other.num_primaries;
        self.binned_pairs += other.binned_pairs;
    }

    /// The per-primary average: every coefficient divided by the total
    /// primary weight (no-op if that weight is zero, as in a pure
    /// data-minus-randoms field).
    pub fn normalized(&self) -> AnisotropicZeta {
        let mut out = self.clone();
        if self.total_primary_weight != 0.0 {
            let inv = 1.0 / self.total_primary_weight;
            for v in out.data.iter_mut() {
                *v = *v * inv;
            }
        }
        out
    }

    /// Largest |coefficient| difference against another result.
    pub fn max_difference(&self, other: &AnisotropicZeta) -> f64 {
        assert_eq!(self.layout, other.layout);
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a.dist_inf(*b))
            .fold(0.0, f64::max)
    }

    /// Largest |coefficient| (used for tolerance scaling in tests).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|c| c.abs()).fold(0.0, f64::max)
    }

    /// Compress to the isotropic multipoles via the spherical-harmonic
    /// addition theorem:
    /// `K_ℓ(b₁,b₂) = 4π/(2ℓ+1) Σ_{m=−ℓ}^{ℓ} ζ^m_{ℓℓ}(b₁,b₂)`, which equals
    /// the Legendre-weighted triplet sum `Σ w P_ℓ(û₁·û₂)` of the
    /// independent oracle [`crate::naive::isotropic_triplets`]. This is
    /// the isotropic statistic of Slepian & Eisenstein (2015).
    pub fn compress_isotropic(&self) -> IsotropicZeta {
        let lmax = self.lmax();
        let nbins = self.nbins();
        let mut out = IsotropicZeta::zeros(lmax, nbins);
        for l in 0..=lmax {
            let pref = 4.0 * std::f64::consts::PI / (2 * l + 1) as f64;
            for b1 in 0..nbins {
                for b2 in 0..nbins {
                    let mut sum = self.get(l, l, 0, b1, b2).re;
                    for m in 1..=l {
                        sum += 2.0 * self.get(l, l, m, b1, b2).re;
                    }
                    out.set(l, b1, b2, pref * sum);
                }
            }
        }
        out.total_primary_weight = self.total_primary_weight;
        out.num_primaries = self.num_primaries;
        out
    }

    /// Every value as f64s: interleaved (re, im, …), then the primary
    /// weight, the primary count and the binned-pair count — what a
    /// bit-for-bit comparison of two results compares.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(2 * self.data.len() + 3);
        for c in &self.data {
            out.push(c.re);
            out.push(c.im);
        }
        out.push(self.total_primary_weight);
        out.push(self.num_primaries as f64);
        out.push(self.binned_pairs as f64);
        out
    }
}

/// Isotropic 3PCF multipoles `K_ℓ(b₁, b₂) = Σ w·P_ℓ(û₁·û₂)` (triplet
/// sums weighted by Legendre polynomials — the quantity of the
/// Slepian–Eisenstein 2015 algorithm, up to their normalization).
#[derive(Clone, Debug)]
pub struct IsotropicZeta {
    lmax: usize,
    nbins: usize,
    data: Vec<f64>,
    pub total_primary_weight: f64,
    pub num_primaries: u64,
}

impl IsotropicZeta {
    pub fn zeros(lmax: usize, nbins: usize) -> Self {
        IsotropicZeta {
            lmax,
            nbins,
            data: vec![0.0; (lmax + 1) * nbins * nbins],
            total_primary_weight: 0.0,
            num_primaries: 0,
        }
    }

    #[inline]
    pub fn lmax(&self) -> usize {
        self.lmax
    }

    #[inline]
    pub fn nbins(&self) -> usize {
        self.nbins
    }

    #[inline]
    fn index(&self, l: usize, b1: usize, b2: usize) -> usize {
        debug_assert!(l <= self.lmax && b1 < self.nbins && b2 < self.nbins);
        (l * self.nbins + b1) * self.nbins + b2
    }

    #[inline]
    pub fn get(&self, l: usize, b1: usize, b2: usize) -> f64 {
        self.data[self.index(l, b1, b2)]
    }

    #[inline]
    pub fn set(&mut self, l: usize, b1: usize, b2: usize, v: f64) {
        let i = self.index(l, b1, b2);
        self.data[i] = v;
    }

    #[inline]
    pub fn add_to(&mut self, l: usize, b1: usize, b2: usize, v: f64) {
        let i = self.index(l, b1, b2);
        self.data[i] += v;
    }

    pub fn max_difference(&self, other: &IsotropicZeta) -> f64 {
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|v| v.abs()).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_dense_and_unique() {
        let layout = ZetaLayout::new(4, 3);
        let mut seen = std::collections::HashSet::new();
        for l in 0..=4 {
            for lp in 0..=4 {
                for m in 0..=l.min(lp) {
                    for b1 in 0..3 {
                        for b2 in 0..3 {
                            let idx = layout.index(l, lp, m, b1, b2);
                            assert!(idx < layout.len());
                            assert!(seen.insert(idx), "duplicate index");
                        }
                    }
                }
            }
        }
        assert_eq!(seen.len(), layout.len());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = AnisotropicZeta::zeros(2, 2);
        let mut b = AnisotropicZeta::zeros(2, 2);
        a.add_to(1, 1, 0, 0, 1, Complex64::new(1.0, 2.0));
        b.add_to(1, 1, 0, 0, 1, Complex64::new(0.5, -1.0));
        a.total_primary_weight = 2.0;
        b.total_primary_weight = 3.0;
        a.num_primaries = 2;
        b.num_primaries = 3;
        a.merge(&b);
        assert!(a.get(1, 1, 0, 0, 1).dist_inf(Complex64::new(1.5, 1.0)) < 1e-15);
        assert_eq!(a.total_primary_weight, 5.0);
        assert_eq!(a.num_primaries, 5);
    }

    #[test]
    fn normalized_divides_by_weight() {
        let mut a = AnisotropicZeta::zeros(1, 1);
        a.add_to(0, 0, 0, 0, 0, Complex64::real(10.0));
        a.total_primary_weight = 4.0;
        let n = a.normalized();
        assert!((n.get(0, 0, 0, 0, 0).re - 2.5).abs() < 1e-15);
        // zero-weight field: no-op
        let mut z = AnisotropicZeta::zeros(1, 1);
        z.add_to(0, 0, 0, 0, 0, Complex64::real(7.0));
        assert_eq!(z.normalized().get(0, 0, 0, 0, 0).re, 7.0);
    }

    #[test]
    fn f64_vec_holds_every_value_and_counter() {
        let mut a = AnisotropicZeta::zeros(3, 2);
        a.add_to(3, 2, 1, 1, 0, Complex64::new(-1.5, 0.25));
        a.total_primary_weight = 9.0;
        a.num_primaries = 7;
        a.binned_pairs = 1234;
        let v = a.to_f64_vec();
        let n = a.data().len();
        assert_eq!(v.len(), 2 * n + 3);
        for (i, c) in a.data().iter().enumerate() {
            assert_eq!((v[2 * i], v[2 * i + 1]), (c.re, c.im));
        }
        assert_eq!(v[2 * n..], [9.0, 7.0, 1234.0]);
    }

    #[test]
    fn isotropic_container_roundtrip() {
        let mut k = IsotropicZeta::zeros(3, 2);
        k.set(2, 0, 1, 5.0);
        k.add_to(2, 0, 1, 1.0);
        assert_eq!(k.get(2, 0, 1), 6.0);
        assert_eq!(k.max_abs(), 6.0);
    }
}
