//! Stages 3–4 of a primary on the vector unit: a_ℓm assembly with the
//! radial bins in lanes, then the ζ update as rows of packed per-m
//! Hermitian triangles.
//!
//! Slepian & Eisenstein (2017, §§3–4) write the estimator as a sum over
//! primaries of outer products `a_ℓm(b₁)·conj(a_ℓ'm(b₂))` — dense,
//! regular arithmetic over the bins. `Assemble` is that arithmetic as
//! one [`Kernel`], so `galactos_simd::dispatch` compiles it for
//! baseline / AVX2 / AVX-512 like the a_ℓm kernel and the engine pays
//! one dispatch per primary. Every operation is a separately rounded
//! multiply or add applied per element in the scalar loops' order, so
//! ζ's bits do not depend on which compilation ran, and are those of
//! the loops this module replaced (kept below as test oracles).
//!
//! **Stage 3, bins in lanes.** The reduced monomial sums arrive
//! monomial-major and bin-minor, `sums_t[mono · nbp + bin]` with `nbp`
//! the bin count rounded up to whole vectors (`padded_bins`; padding
//! columns stay zero). `a_ℓm(bin) = Σ_terms c·S(bin)` is then summed
//! for eight bins at once: per bin the term order is
//! [`YlmTable::assemble_alm`]'s, but the lanes are independent chains
//! instead of one serial complex add per (ℓ, m, bin). Every `Y_ℓm`
//! coefficient is purely real or purely imaginary, and every `m = 0`
//! one is real, so each term feeds only the half its coefficient has:
//! the other half's product is ±0.
//!
//! **Stage 4, packed triangles.** For one `m`, lay the a_ℓm of every
//! `ℓ ≥ m` and bin out along one bin-major index
//! `r = bin·(ℓmax−m+1) + (ℓ−m)`. All of ζ's spin-`m` blocks are then
//! one Hermitian matrix `Σᵢ wᵢ·a(r₁)·conj(a(r₂))` over `r`, and
//! `PackedZeta` stores its upper triangle `r₁ ≤ r₂` row by row. Row
//! `r₁` is one contiguous update over doubles,
//!
//! ```text
//! z[c] += (re₁·x[c] + im₁·y[c])·wᵢ      a₁ = a(r₁) = re₁ + i·im₁
//! ```
//!
//! with `x = (re, −im)` and `y = (im, re)` of each `a(r₂)`, `r₂ ≥ r₁`,
//! interleaved. Its real part is `(re₁·re₂ + im₁·im₂)·wᵢ`; its
//! imaginary part is `(re₁·(−im₂) + im₁·re₂)·wᵢ`, which rounds exactly
//! like `(im₁·re₂ − re₁·im₂)·wᵢ` (negation is exact and addition
//! commutes). Every `a_ℓ0` is real, so the `m = 0` triangle is real and
//! its rows are `z[c] += (re₁·x[c])·wᵢ` over the real parts. Rows whose
//! `a₁` is exactly zero (empty shells, and every `m > 0` harmonic of a
//! bin whose pairs lie on the line of sight) are skipped; bin-major
//! order puts the rows of empty inner bins first, and every row after
//! them starts past their columns.
//!
//! **Why ζ keeps its bits.** A ζ sum starts at `+0` and, rounding to
//! nearest, never becomes `−0`, so adding ±0 to it changes no bit: the
//! skipped rows, the imaginary half of `m = 0` and stage 3's zero
//! halves only ever added ±0. An element with `ℓ₁ ≤ ℓ₂` is the one the
//! `ℓ ≤ ℓ'` block update computed, term for term. With `ℓ₁ > ℓ₂` it is
//! the conjugate of its swapped partner term by term — the real part
//! equal, the imaginary part negated exactly — so its sum is the
//! partner's conjugate, except that a zero imaginary part is `+0`, where
//! the mirrored partial the block update used had `−0`; that `−0` turned
//! into `+0` when the partials were merged into a `+0` result, so the
//! two agree. `PackedZeta::unpack` writes the lower triangle the same
//! way: conjugated, with a zero imaginary part as `+0`.
//!
//! What the compiler needs, learnt the slow way. Operands are copied
//! into local fixed-size arrays before the arithmetic: slices reached
//! through struct fields lose `noalias` after inlining and the loop
//! compiles to scalar code. Rows are walked in fixed pieces of 16, 8,
//! 4, 2 and 1 doubles, never through a copy whose length is only known
//! at run time (4× slower than the scalar loop). And the `x`/`y` rows
//! are built in a pass of their own: an interleaving store at the end
//! of stage 3's loop makes the vectorizer give up on its sums.

use crate::result::AnisotropicZeta;
use galactos_math::ylm::YlmTable;
use galactos_math::{lm_index, Complex64};
use galactos_simd::{Kernel, Level, F64_LANES};

/// Bins per a_ℓm / monomial-sum row in scratch: `nbins` rounded up to
/// whole 8-lane vectors.
#[inline]
pub(crate) fn padded_bins(nbins: usize) -> usize {
    nbins.next_multiple_of(F64_LANES)
}

/// The widest compilation [`Assemble`] runs in for rows of `nbins`: the
/// 512-bit one needs a whole 8-value piece per ζ row (two full
/// registers) to repay itself. Measured per loop, as every width rule
/// is: at 10 bins it won 5–6 of 6 interleaved pairs on each of
/// `tree_sparse` (−4.9 % `wall_s`), `tree_dense` and `tree_default`
/// (−2–3 %); at 5 bins (`sharded_lowl`) it bought nothing (+0.3 %,
/// 2 of 6), and short 512-bit calls are what PR 20 measured costing
/// the neighbouring stages clock.
fn width_cap(nbins: usize) -> Level {
    if nbins >= 8 {
        Level::Avx512
    } else {
        Level::Avx2
    }
}

/// ζ summed over a chunk of primaries, packed: for each `m`, the upper
/// triangle `r₁ ≤ r₂` of the Hermitian matrix over the bin-major index
/// `r = bin·(ℓmax−m+1) + (ℓ−m)`, row by row. The `m = 0` triangle is
/// real (one double per element), the others complex (`re, im`).
/// Partials merge packed; [`PackedZeta::unpack`] expands the sum into
/// every `(ℓ, ℓ', m)` block once per run.
#[derive(Clone, Debug)]
pub(crate) struct PackedZeta {
    lmax: usize,
    nbins: usize,
    /// Where each `m`'s triangle starts in `data`, in doubles, and
    /// where the last one ends: `lmax + 2` entries.
    starts: Vec<usize>,
    data: Vec<f64>,
    pub(crate) total_primary_weight: f64,
    pub(crate) num_primaries: u64,
    pub(crate) binned_pairs: u64,
}

impl PackedZeta {
    pub(crate) fn zeros(lmax: usize, nbins: usize) -> Self {
        let mut starts = vec![0];
        for m in 0..=lmax {
            let n = nbins * (lmax - m + 1);
            let doubles = if m == 0 { 1 } else { 2 };
            starts.push(starts[m] + doubles * n * (n + 1) / 2);
        }
        let data = vec![0.0; starts[lmax + 1]];
        PackedZeta {
            lmax,
            nbins,
            starts,
            data,
            total_primary_weight: 0.0,
            num_primaries: 0,
            binned_pairs: 0,
        }
    }

    /// How many `r` the spin-`m` triangle has on a side.
    #[inline]
    fn side(&self, m: usize) -> usize {
        self.nbins * (self.lmax - m + 1)
    }

    /// Index in `data` of the real part of element `(r₁, r₂)`,
    /// `r₁ ≤ r₂`, of the spin-`m` triangle. Row `r` holds the `n − r`
    /// elements `r₂ = r, …, n − 1`.
    #[inline]
    fn index(&self, m: usize, r1: usize, r2: usize) -> usize {
        debug_assert!(r1 <= r2 && r2 < self.side(m));
        let row = r1 * (2 * self.side(m) - r1 + 1) / 2;
        let doubles = if m == 0 { 1 } else { 2 };
        self.starts[m] + doubles * (row + r2 - r1)
    }

    /// The real part of `ζ^m_{ℓℓ'}(bin, bin)`, `ℓ ≤ ℓ'`: where the
    /// self-pair correction goes.
    #[inline]
    pub(crate) fn diagonal_re_mut(
        &mut self,
        l: usize,
        lp: usize,
        m: usize,
        bin: usize,
    ) -> &mut f64 {
        let r = bin * (self.lmax - m + 1);
        let i = self.index(m, r + l - m, r + lp - m);
        &mut self.data[i]
    }

    /// Add another partial in: every double, then the counters.
    pub(crate) fn merge(&mut self, other: &PackedZeta) {
        assert_eq!(
            (self.lmax, self.nbins),
            (other.lmax, other.nbins),
            "shape mismatch in merge"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        self.total_primary_weight += other.total_primary_weight;
        self.num_primaries += other.num_primaries;
        self.binned_pairs += other.binned_pairs;
    }

    /// Every `(ℓ, ℓ', m)` block, both halves: an element whose `r₁ ≤ r₂`
    /// is read as stored, the others as the conjugate of their mirror
    /// with a zero imaginary part written `+0` — the bits the mirrored
    /// partials of the full block update had once merged (module doc).
    pub(crate) fn unpack(&self) -> AnisotropicZeta {
        let (lmax, nbins) = (self.lmax, self.nbins);
        let mut zeta = AnisotropicZeta::zeros(lmax, nbins);
        for l in 0..=lmax {
            for lp in 0..=lmax {
                for m in 0..=l.min(lp) {
                    let stride = lmax - m + 1;
                    let block = zeta.block_mut(l, lp, m);
                    for (b1, row) in block.chunks_exact_mut(nbins).enumerate() {
                        let r1 = b1 * stride + l - m;
                        for (b2, z) in row.iter_mut().enumerate() {
                            let r2 = b2 * stride + lp - m;
                            *z = if r1 <= r2 {
                                self.get(m, r1, r2)
                            } else {
                                let v = self.get(m, r2, r1);
                                // `0 − im`, not `−im`: a zero comes out `+0`.
                                Complex64::new(v.re, 0.0 - v.im)
                            };
                        }
                    }
                }
            }
        }
        zeta.total_primary_weight = self.total_primary_weight;
        zeta.num_primaries = self.num_primaries;
        zeta.binned_pairs = self.binned_pairs;
        zeta
    }

    #[inline]
    fn get(&self, m: usize, r1: usize, r2: usize) -> Complex64 {
        let i = self.index(m, r1, r2);
        let im = if m == 0 { 0.0 } else { self.data[i + 1] };
        Complex64::new(self.data[i], im)
    }
}

/// Stages 3–4 of one primary, as the body `dispatch` compiles.
pub(crate) struct Assemble<'a> {
    pub ylm: &'a YlmTable,
    /// Reduced monomial sums, `nmono × nbp`, bin-minor.
    pub sums_t: &'a [f64],
    /// Out: every a_ℓm, split, `lm_count × nbp`, bin-minor.
    pub alm_re: &'a mut [f64],
    pub alm_im: &'a mut [f64],
    /// Out, then read by stage 4: for each `m` in turn, the rows of its
    /// triangle in `r` order, `2·nbins·(ℓmax−m+1)` doubles each: `x`
    /// holds `(re, −im)` of every `a(r)` (for `m = 0`, only the real
    /// parts), `y` holds `(im, re)`.
    pub rows_x: &'a mut [f64],
    pub rows_y: &'a mut [f64],
    /// The chunk's packed partial.
    pub zeta: &'a mut PackedZeta,
    /// The primary's weight `wᵢ`.
    pub weight: f64,
}

impl Assemble<'_> {
    /// Run at the host's vector width, capped by [`width_cap`].
    #[inline]
    pub(crate) fn dispatch(self) {
        galactos_simd::dispatch(width_cap(self.zeta.nbins), self);
    }
}

impl Kernel for Assemble<'_> {
    #[inline(always)]
    fn run(self) {
        let (lmax, nbins) = (self.ylm.lmax(), self.zeta.nbins);
        let nbp = padded_bins(nbins);
        assemble_alm_lanes(self.ylm, nbp, self.sums_t, self.alm_re, self.alm_im);
        let mut at = 0;
        for m in 0..=lmax {
            let n = 2 * self.zeta.side(m);
            let (x, y) = (&mut self.rows_x[at..at + n], &mut self.rows_y[at..at + n]);
            gather_rows(lmax, nbins, nbp, m, self.alm_re, self.alm_im, x, y);
            at += n;
        }
        let mut at = 0;
        for m in 0..=lmax {
            let n = self.zeta.side(m);
            let tri = &mut self.zeta.data[self.zeta.starts[m]..self.zeta.starts[m + 1]];
            let (x, y) = (&self.rows_x[at..at + 2 * n], &self.rows_y[at..at + 2 * n]);
            if m == 0 {
                update_triangle::<true>(tri, &x[..n], &y[..n], self.weight);
            } else {
                update_triangle::<false>(tri, x, y, self.weight);
            }
            at += 2 * n;
        }
    }
}

/// Stage 3: every a_ℓm of every bin from the transposed monomial sums,
/// eight bins per step, into the split rows `alm_re` / `alm_im`. Per
/// bin the sum runs in table order, from `+0`, over the terms whose
/// coefficient has that half.
#[inline(always)]
fn assemble_alm_lanes(
    ylm: &YlmTable,
    nbp: usize,
    sums_t: &[f64],
    alm_re: &mut [f64],
    alm_im: &mut [f64],
) {
    for l in 0..=ylm.lmax() {
        for m in 0..=l {
            let terms = ylm.terms(l, m);
            let row = lm_index(l, m) * nbp;
            for bin in (0..nbp).step_by(F64_LANES) {
                let mut re = [0.0; F64_LANES];
                let mut im = [0.0; F64_LANES];
                for t in terms {
                    let from = t.monomial as usize * nbp + bin;
                    let s: [f64; F64_LANES] = sums_t[from..from + F64_LANES]
                        .try_into()
                        .expect("a whole vector of bins");
                    if t.coeff.re != 0.0 {
                        for j in 0..F64_LANES {
                            re[j] += t.coeff.re * s[j];
                        }
                    }
                    if t.coeff.im != 0.0 {
                        for j in 0..F64_LANES {
                            im[j] += t.coeff.im * s[j];
                        }
                    }
                }
                alm_re[row + bin..][..F64_LANES].copy_from_slice(&re);
                alm_im[row + bin..][..F64_LANES].copy_from_slice(&im);
            }
        }
    }
}

/// The rows stage 4 multiplies by for spin `m`, from the split ones, in
/// bin-major `r` order: `x = (re, −im)` and `y = (im, re)`, or only the
/// real parts in `x` for `m = 0`. A pass of its own — fused into stage
/// 3's loop the interleaving store keeps the compiler from vectorizing
/// the sums.
#[inline(always)]
#[allow(
    clippy::too_many_arguments,
    reason = "an always-inlined loop body over the caller's locals"
)]
fn gather_rows(
    lmax: usize,
    nbins: usize,
    nbp: usize,
    m: usize,
    alm_re: &[f64],
    alm_im: &[f64],
    x: &mut [f64],
    y: &mut [f64],
) {
    let mut r = 0;
    for bin in 0..nbins {
        for l in m..=lmax {
            let at = lm_index(l, m) * nbp + bin;
            let (re, im) = (alm_re[at], alm_im[at]);
            if m == 0 {
                x[r] = re;
            } else {
                x[2 * r] = re;
                x[2 * r + 1] = -im;
                y[2 * r] = im;
                y[2 * r + 1] = re;
            }
            r += 1;
        }
    }
}

/// Stage 4 for one triangle: row `r₁` gets
/// `z[c] += (re₁·x[c] + im₁·y[c])·w` over the doubles of `c = r₁, …`;
/// `REAL` (`m = 0`): one double per element, `re₁ = x[r₁]`, no `y` term.
#[inline(always)]
fn update_triangle<const REAL: bool>(tri: &mut [f64], x: &[f64], y: &[f64], w: f64) {
    let mut at = 0;
    for r1 in (0..x.len()).step_by(if REAL { 1 } else { 2 }) {
        let width = x.len() - r1;
        let (re1, im1) = (x[r1], if REAL { 0.0 } else { y[r1] });
        if re1 != 0.0 || im1 != 0.0 {
            add_row::<REAL>(&mut tri[at..at + width], &x[r1..], &y[r1..], re1, im1, w);
        }
        at += width;
    }
}

/// One triangle row, `z[c] += (re₁·x[c] + im₁·y[c])·w` (`REAL`: without
/// the `y` term), in pieces of 16, 8, 4, 2 and 1 doubles.
#[inline(always)]
fn add_row<const REAL: bool>(z: &mut [f64], x: &[f64], y: &[f64], re1: f64, im1: f64, w: f64) {
    let len = z.len();
    let mut at = 0;
    while at + 16 <= len {
        add_piece::<16, REAL>(z, x, y, at, re1, im1, w);
        at += 16;
    }
    if at + 8 <= len {
        add_piece::<8, REAL>(z, x, y, at, re1, im1, w);
        at += 8;
    }
    if at + 4 <= len {
        add_piece::<4, REAL>(z, x, y, at, re1, im1, w);
        at += 4;
    }
    if at + 2 <= len {
        add_piece::<2, REAL>(z, x, y, at, re1, im1, w);
        at += 2;
    }
    if at < len {
        add_piece::<1, REAL>(z, x, y, at, re1, im1, w);
    }
}

/// Doubles `at..at + N` of one triangle row.
#[inline(always)]
#[allow(
    clippy::too_many_arguments,
    reason = "an always-inlined loop body over the caller's locals"
)]
fn add_piece<const N: usize, const REAL: bool>(
    z: &mut [f64],
    x: &[f64],
    y: &[f64],
    at: usize,
    re1: f64,
    im1: f64,
    w: f64,
) {
    let xs: [f64; N] = x[at..at + N].try_into().expect("N doubles");
    let piece: &mut [f64; N] = (&mut z[at..at + N]).try_into().expect("N doubles");
    let mut zs = *piece;
    if REAL {
        for j in 0..N {
            zs[j] += (re1 * xs[j]) * w;
        }
    } else {
        let ys: [f64; N] = y[at..at + N].try_into().expect("N doubles");
        for j in 0..N {
            zs[j] += (re1 * xs[j] + im1 * ys[j]) * w;
        }
    }
    *piece = zs;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::testutil::SplitMix64;
    use galactos_math::lm_count;
    use galactos_math::monomial::MonomialBasis;
    use galactos_simd::{dispatch, run_at};

    /// Stage 3 as it ran before this module: one bin at a time through
    /// [`YlmTable::assemble_alm`], scattered bin-minor and split.
    fn assemble_alm_reference(ylm: &YlmTable, nbins: usize, sums_t: &[f64]) -> [Vec<f64>; 2] {
        let nbp = padded_bins(nbins);
        let nlm = lm_count(ylm.lmax());
        let mut alm = vec![Complex64::ZERO; nlm];
        let mut alm_re = vec![0.0; nlm * nbins];
        let mut alm_im = vec![0.0; nlm * nbins];
        for bin in 0..nbins {
            let sums: Vec<f64> = sums_t.chunks_exact(nbp).map(|row| row[bin]).collect();
            ylm.assemble_alm(&sums, &mut alm);
            for (i, a) in alm.iter().enumerate() {
                alm_re[i * nbins + bin] = a.re;
                alm_im[i * nbins + bin] = a.im;
            }
        }
        [alm_re, alm_im]
    }

    /// Stage 4 as it ran before this module, into the `ℓ ≤ ℓ'` blocks of
    /// a full ζ; returns how many rows the exact-zero test skipped.
    fn accumulate_zeta_reference(
        [alm_re, alm_im]: &[Vec<f64>; 2],
        zeta: &mut AnisotropicZeta,
        wi: f64,
    ) -> usize {
        let (lmax, nbins) = (zeta.lmax(), zeta.nbins());
        let shell = |i: usize| i * nbins..(i + 1) * nbins;
        let mut skipped = 0;
        for l in 0..=lmax {
            for lp in l..=lmax {
                for m in 0..=l {
                    let (i1, i2) = (lm_index(l, m), lm_index(lp, m));
                    let (a1_re, a1_im) = (&alm_re[shell(i1)], &alm_im[shell(i1)]);
                    let (a2_re, a2_im) = (&alm_re[shell(i2)], &alm_im[shell(i2)]);
                    let rows = zeta.block_mut(l, lp, m).chunks_exact_mut(nbins);
                    for ((row, &re1), &im1) in rows.zip(a1_re).zip(a1_im) {
                        if re1 == 0.0 && im1 == 0.0 {
                            skipped += 1;
                            continue;
                        }
                        for ((z, &re2), &im2) in row.iter_mut().zip(a2_re).zip(a2_im) {
                            z.re += (re1 * re2 + im1 * im2) * wi;
                            z.im += (im1 * re2 - re1 * im2) * wi;
                        }
                    }
                }
            }
        }
        skipped
    }

    /// How a partial of the block update was completed before this
    /// module: every `ℓ > ℓ'` block assigned from its `ℓ < ℓ'` partner,
    /// `ζ^m_{ℓ'ℓ}(b₂, b₁) = conj(ζ^m_{ℓℓ'}(b₁, b₂))`.
    fn mirror_reference(zeta: &mut AnisotropicZeta) {
        let (lmax, nbins) = (zeta.lmax(), zeta.nbins());
        for l in 0..=lmax {
            for lp in l + 1..=lmax {
                for m in 0..=l {
                    for b1 in 0..nbins {
                        for b2 in 0..nbins {
                            let v = zeta.get(l, lp, m, b1, b2).conj();
                            zeta.block_mut(lp, l, m)[b2 * nbins + b1] = v;
                        }
                    }
                }
            }
        }
    }

    /// Monomial sums of one primary, transposed and padded. By bin
    /// index mod 4: 1 is a bin no pair landed in (all zero); 3 holds
    /// one pair on the line of sight, whose only non-zero sums are the
    /// pure-z monomials — every `m > 0` harmonic of it is exactly zero;
    /// the others are dense.
    fn sums_of_a_primary(basis: &MonomialBasis, nbins: usize, seed: u64) -> Vec<f64> {
        let nbp = padded_bins(nbins);
        let mut rng = SplitMix64::new(seed);
        let mut sums_t = vec![0.0; basis.len() * nbp];
        let top = basis.lmax() as u32;
        for (mono, row) in sums_t.chunks_exact_mut(nbp).enumerate() {
            let pure_z = (0..=top).any(|q| basis.index_of(0, 0, q) == mono);
            for (bin, s) in row[..nbins].iter_mut().enumerate() {
                let dense = rng.range(-20.0, 20.0);
                *s = match bin % 4 {
                    1 => 0.0,
                    3 => f64::from(u8::from(pure_z)) * 1.75,
                    _ => dense,
                };
            }
        }
        sums_t
    }

    struct Buffers {
        alm_re: Vec<f64>,
        alm_im: Vec<f64>,
        rows_x: Vec<f64>,
        rows_y: Vec<f64>,
        zeta: PackedZeta,
    }

    impl Buffers {
        /// Scratch as a previous primary left it: stale a_ℓm and rows,
        /// ζ zero.
        fn new(lmax: usize, nbins: usize) -> Self {
            let n = lm_count(lmax) * padded_bins(nbins);
            let rows = 2 * lm_count(lmax) * nbins;
            Buffers {
                alm_re: vec![f64::NAN; n],
                alm_im: vec![f64::NAN; n],
                rows_x: vec![f64::NAN; rows],
                rows_y: vec![f64::NAN; rows],
                zeta: PackedZeta::zeros(lmax, nbins),
            }
        }

        fn kernel<'a>(&'a mut self, ylm: &'a YlmTable, sums_t: &'a [f64], w: f64) -> Assemble<'a> {
            Assemble {
                ylm,
                sums_t,
                alm_re: &mut self.alm_re,
                alm_im: &mut self.alm_im,
                rows_x: &mut self.rows_x,
                rows_y: &mut self.rows_y,
                zeta: &mut self.zeta,
                weight: w,
            }
        }
    }

    fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
        values.into_iter().map(f64::to_bits).collect()
    }

    /// Compare two full ζ bit for bit, element by element, naming the
    /// kind of the first element that differs; returns how many
    /// elements of each kind were compared: `ℓ < ℓ'`, the upper
    /// (`b₁ ≤ b₂`) and lower half of `ℓ = ℓ'`, and `ℓ > ℓ'`.
    fn assert_same_bits(got: &AnisotropicZeta, want: &AnisotropicZeta, at: &str) -> [usize; 4] {
        let (lmax, nbins) = (want.lmax(), want.nbins());
        let mut kinds = [0; 4];
        for l in 0..=lmax {
            for lp in 0..=lmax {
                for m in 0..=l.min(lp) {
                    for b1 in 0..nbins {
                        for b2 in 0..nbins {
                            let (kind, name) = match l.cmp(&lp) {
                                std::cmp::Ordering::Less => (0, "ℓ < ℓ'"),
                                std::cmp::Ordering::Equal if b1 <= b2 => (1, "ℓ = ℓ' upper"),
                                std::cmp::Ordering::Equal => (2, "ℓ = ℓ' lower"),
                                std::cmp::Ordering::Greater => (3, "ℓ > ℓ'"),
                            };
                            let (g, w) = (got.get(l, lp, m, b1, b2), want.get(l, lp, m, b1, b2));
                            assert_eq!(
                                bits([g.re, g.im]),
                                bits([w.re, w.im]),
                                "ζ {name} ({l} {lp} {m} {b1} {b2}): {g:?} vs {w:?}, {at}"
                            );
                            kinds[kind] += 1;
                        }
                    }
                }
            }
        }
        kinds
    }

    /// The PR 20 rule for a routed loop: every compilation this host can
    /// execute, and `dispatch` at either cap, leaves the bits of the
    /// scalar loops — a_ℓm (stage 3), and ζ (stage 4) as the `ℓ ≤ ℓ'`
    /// block update left it once each partial was mirrored and merged
    /// into a zero result — over bin counts that hit every piece and the
    /// padded vectors, with a bin no primary fills, exact-zero `a₁` rows
    /// and a zero-weight primary in the input, over two partials.
    #[test]
    fn every_level_reproduces_the_scalar_loops_bit_for_bit() {
        let levels: Vec<Level> = Level::ALL
            .into_iter()
            .filter(|l| l.is_available())
            .collect();
        println!("assembly levels covered on this host: {levels:?}");
        type Run = Box<dyn Fn(Assemble)>;
        let mut runs: Vec<(String, Run)> = Vec::new();
        for &level in &levels {
            runs.push((format!("{level:?}"), Box::new(move |k| run_at(level, k))));
        }
        for cap in [Level::Avx2, Level::Avx512] {
            runs.push((format!("cap {cap:?}"), Box::new(move |k| dispatch(cap, k))));
        }
        runs.push(("width rule".into(), Box::new(|k| k.dispatch())));

        for lmax in [0usize, 2, 10] {
            let basis = MonomialBasis::new(lmax);
            let ylm = YlmTable::new(lmax, &basis);
            for nbins in [1usize, 3, 5, 8, 10, 13] {
                let nbp = padded_bins(nbins);
                // Two partials, the second over two primaries (so one
                // updates a non-zero ζ), the last of zero weight.
                let partials = [
                    vec![(sums_of_a_primary(&basis, nbins, 11), 0.75)],
                    vec![
                        (sums_of_a_primary(&basis, nbins, 12), 1.5),
                        (sums_of_a_primary(&basis, nbins, 13), 0.0),
                    ],
                ];
                let mut want_zeta = AnisotropicZeta::zeros(lmax, nbins);
                let mut want_alm = [Vec::new(), Vec::new()];
                let mut skipped = 0;
                for primaries in &partials {
                    let mut partial = AnisotropicZeta::zeros(lmax, nbins);
                    for (sums_t, w) in primaries {
                        want_alm = assemble_alm_reference(&ylm, nbins, sums_t);
                        skipped += accumulate_zeta_reference(&want_alm, &mut partial, *w);
                    }
                    mirror_reference(&mut partial);
                    want_zeta.merge(&partial);
                }
                assert!(want_zeta.max_abs() > 0.0);
                // Untouched bins always; pole bins once there is an m > 0.
                assert!(nbins < 2 || skipped > 0, "lmax={lmax} nbins={nbins}");

                for (name, run) in &runs {
                    let at = format!("{name} lmax={lmax} nbins={nbins}");
                    let mut sum = PackedZeta::zeros(lmax, nbins);
                    let mut got = Buffers::new(lmax, nbins);
                    for primaries in &partials {
                        got.zeta = PackedZeta::zeros(lmax, nbins);
                        for (sums_t, w) in primaries {
                            run(got.kernel(&ylm, sums_t, *w));
                        }
                        sum.merge(&got.zeta);
                    }
                    let kinds = assert_same_bits(&sum.unpack(), &want_zeta, &at);
                    if lmax > 0 && nbins > 1 {
                        assert!(kinds.iter().all(|&k| k > 0), "{kinds:?}, {at}");
                    }
                    let columns = |padded: &[f64]| -> Vec<u64> {
                        bits(padded.chunks_exact(nbp).flat_map(|r| r[..nbins].to_vec()))
                    };
                    assert_eq!(columns(&got.alm_re), bits(want_alm[0].clone()), "re, {at}");
                    assert_eq!(columns(&got.alm_im), bits(want_alm[1].clone()), "im, {at}");
                    // The rows stage 4 read are those coefficients, in r
                    // order.
                    let mut from = 0;
                    for m in 0..=lmax {
                        let mut r = 0;
                        for bin in 0..nbins {
                            for l in m..=lmax {
                                let i = lm_index(l, m) * nbp + bin;
                                let (re, im) = (got.alm_re[i], got.alm_im[i]);
                                let (x, y) = (&got.rows_x[from..], &got.rows_y[from..]);
                                if m == 0 {
                                    assert_eq!(x[r].to_bits(), re.to_bits(), "{at}");
                                } else {
                                    let row =
                                        bits([x[2 * r], x[2 * r + 1], y[2 * r], y[2 * r + 1]]);
                                    assert_eq!(row, bits([re, -im, im, re]), "{at}");
                                }
                                r += 1;
                            }
                        }
                        from += 2 * r;
                    }
                }
            }
        }
    }

    /// `(a₁·conj(a₂))·w` conjugates exactly under `a₁ ↔ a₂`, and the
    /// unpacked lower halves are conjugates: the `ℓ = ℓ'` blocks are
    /// Hermitian bit for bit, like the mirrored ones.
    #[test]
    fn diagonal_blocks_stay_hermitian_bit_for_bit() {
        let (lmax, nbins) = (4, 10);
        let basis = MonomialBasis::new(lmax);
        let ylm = YlmTable::new(lmax, &basis);
        let mut got = Buffers::new(lmax, nbins);
        for seed in 0..3 {
            let sums_t = sums_of_a_primary(&basis, nbins, seed);
            got.kernel(&ylm, &sums_t, 0.3 + seed as f64).dispatch();
        }
        let zeta = got.zeta.unpack();
        for l in 0..=lmax {
            for m in 0..=l {
                for b1 in 0..nbins {
                    for b2 in 0..nbins {
                        let (z, t) = (zeta.get(l, l, m, b1, b2), zeta.get(l, l, m, b2, b1));
                        // `==`, not bits: a zero imaginary part is its own
                        // conjugate up to sign.
                        assert!(z.re == t.re && z.im == -t.im, "{l} {m} {b1} {b2}");
                    }
                }
            }
        }
    }

    /// What the real `m = 0` triangle and stage 3's skipped halves rest
    /// on: no `m = 0` harmonic has an imaginary term, and no term of any
    /// harmonic has both halves, up to the largest ℓmax the engine
    /// accepts.
    #[test]
    fn m0_harmonics_are_real_and_no_term_has_both_halves() {
        for lmax in 0..=12 {
            let ylm = YlmTable::new(lmax, &MonomialBasis::new(lmax));
            for l in 0..=lmax {
                for m in 0..=l {
                    for t in ylm.terms(l, m) {
                        let c = t.coeff;
                        assert!(c.re == 0.0 || c.im == 0.0, "ℓ={l} m={m}: {c:?}");
                        assert!(m > 0 || c.im == 0.0, "ℓ={l} m=0: {c:?}");
                    }
                }
            }
        }
    }
}
