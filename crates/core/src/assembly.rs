//! Stages 3–4 of a primary on the vector unit: a_ℓm assembly with the
//! radial bins in lanes, then the ζ update as interleaved rows.
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
//! instead of one serial complex add per (ℓ, m, bin).
//!
//! **Stage 4, interleaved rows.** Each a_ℓm row is then stored twice
//! more, as `X[b] = (re, −im)` and `Y[b] = (im, re)` — the layout a row
//! of `Complex64` already has. The update of row `b₁` of block
//! `(ℓ, ℓ', m)` is elementwise over `2·nbins` doubles with no shuffle:
//!
//! ```text
//! row[c] += (re₁·X'[c] + im₁·Y'[c])·wᵢ      a₁ = a_ℓm(b₁) = re₁ + i·im₁
//! ```
//!
//! Its real part is `(re₁·re₂ + im₁·im₂)·wᵢ`; its imaginary part is
//! `(re₁·(−im₂) + im₁·re₂)·wᵢ`, which rounds exactly like
//! `(im₁·re₂ − re₁·im₂)·wᵢ` (negation is exact and addition commutes).
//! That is `(a₁·conj(a₂))·wᵢ` in the one order that conjugates exactly
//! under `a₁ ↔ a₂`, so `ℓ = ℓ'` blocks stay Hermitian bit for bit.
//! Rows whose `a₁` is exactly zero (empty shells, and every `m > 0`
//! harmonic of a bin whose pairs lie on the line of sight) are skipped,
//! as they always were.
//!
//! What the compiler needs, learnt the slow way. Operands are copied
//! into local fixed-size arrays before the arithmetic: slices reached
//! through struct fields lose `noalias` after inlining and the loop
//! compiles to scalar code. Rows are walked in fixed pieces of 8, 4, 2
//! and 1 complex values, never through a copy whose length is only
//! known at run time (4× slower than the scalar loop). The `X`/`Y`
//! rows are built in a pass of their own: an interleaving store at the
//! end of stage 3's loop makes the vectorizer give up on its sums. And
//! a block is walked a column piece at a time with the rows inside: a
//! row-at-a-time walk gets its piece loop re-vectorized across pieces
//! with strided gathers.

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

/// Stages 3–4 of one primary, as the body `dispatch` compiles.
pub(crate) struct Assemble<'a> {
    pub ylm: &'a YlmTable,
    /// Reduced monomial sums, `nmono × nbp`, bin-minor.
    pub sums_t: &'a [f64],
    /// Out: every a_ℓm, split, `lm_count × nbp`, bin-minor.
    pub alm_re: &'a mut [f64],
    pub alm_im: &'a mut [f64],
    /// Out, then read by stage 4: `(re, −im)` of every a_ℓm,
    /// `lm_count × nbp`, bin-minor.
    pub alm_x: &'a mut [Complex64],
    /// Likewise `(im, re)`.
    pub alm_y: &'a mut [Complex64],
    /// The worker's partial; only `ℓ ≤ ℓ'` blocks are updated.
    pub zeta: &'a mut AnisotropicZeta,
    /// The primary's weight `wᵢ`.
    pub weight: f64,
}

impl Assemble<'_> {
    /// Run at the host's vector width, capped by [`width_cap`].
    #[inline]
    pub(crate) fn dispatch(self) {
        galactos_simd::dispatch(width_cap(self.zeta.nbins()), self);
    }
}

impl Kernel for Assemble<'_> {
    #[inline(always)]
    fn run(self) {
        let nbins = self.zeta.nbins();
        let nbp = padded_bins(nbins);
        assemble_alm_lanes(self.ylm, nbp, self.sums_t, self.alm_re, self.alm_im);
        interleave_rows(self.alm_re, self.alm_im, self.alm_x, self.alm_y);
        let lmax = self.ylm.lmax();
        for l in 0..=lmax {
            for lp in l..=lmax {
                for m in 0..=l {
                    let (i1, i2) = (lm_index(l, m), lm_index(lp, m));
                    update_block(
                        self.zeta.block_mut(l, lp, m),
                        nbins,
                        &self.alm_x[i1 * nbp..][..nbins],
                        &self.alm_y[i1 * nbp..][..nbins],
                        &self.alm_x[i2 * nbp..][..nbins],
                        &self.alm_y[i2 * nbp..][..nbins],
                        self.weight,
                    );
                }
            }
        }
    }
}

/// Stage 3: every a_ℓm of every bin from the transposed monomial sums,
/// eight bins per step, into the split rows `alm_re` / `alm_im`. Per
/// bin the sum runs in table order, from `+0`.
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
                    for j in 0..F64_LANES {
                        re[j] += t.coeff.re * s[j];
                        im[j] += t.coeff.im * s[j];
                    }
                }
                alm_re[row + bin..][..F64_LANES].copy_from_slice(&re);
                alm_im[row + bin..][..F64_LANES].copy_from_slice(&im);
            }
        }
    }
}

/// The rows stage 4 multiplies by, from the split ones: `x = (re, −im)`
/// and `y = (im, re)`. A pass of its own — fused into stage 3's loop
/// the interleaving store keeps the compiler from vectorizing the sums.
#[inline(always)]
fn interleave_rows(
    alm_re: &[f64],
    alm_im: &[f64],
    alm_x: &mut [Complex64],
    alm_y: &mut [Complex64],
) {
    let split = alm_re.iter().zip(alm_im);
    let rows = alm_x.iter_mut().zip(alm_y.iter_mut());
    for ((&re, &im), (x, y)) in split.zip(rows) {
        *x = Complex64::new(re, -im);
        *y = Complex64::new(im, re);
    }
}

/// Stage 4 for one `(ℓ, ℓ', m)` block: `block[b₁][b₂] +=
/// (a₁(b₁)·conj(a₂(b₂)))·w`, a piece of columns `b₂` at a time so the
/// `X`/`Y` values of `a₂` stay in registers across the rows.
#[inline(always)]
fn update_block(
    block: &mut [Complex64],
    nbins: usize,
    a1_x: &[Complex64],
    a1_y: &[Complex64],
    a2_x: &[Complex64],
    a2_y: &[Complex64],
    w: f64,
) {
    let mut at = 0;
    while at + 8 <= nbins {
        update_columns::<8>(block, nbins, at, a1_x, a1_y, a2_x, a2_y, w);
        at += 8;
    }
    if at + 4 <= nbins {
        update_columns::<4>(block, nbins, at, a1_x, a1_y, a2_x, a2_y, w);
        at += 4;
    }
    if at + 2 <= nbins {
        update_columns::<2>(block, nbins, at, a1_x, a1_y, a2_x, a2_y, w);
        at += 2;
    }
    if at < nbins {
        update_columns::<1>(block, nbins, at, a1_x, a1_y, a2_x, a2_y, w);
    }
}

/// Columns `at..at + N` of every row of `block`:
/// `row[c] += (re₁·x[c] + im₁·y[c])·w`, elementwise over `2·N` doubles.
#[inline(always)]
#[allow(
    clippy::too_many_arguments,
    reason = "an always-inlined loop body over the caller's locals"
)]
fn update_columns<const N: usize>(
    block: &mut [Complex64],
    nbins: usize,
    at: usize,
    a1_x: &[Complex64],
    a1_y: &[Complex64],
    a2_x: &[Complex64],
    a2_y: &[Complex64],
    w: f64,
) {
    let x: [Complex64; N] = a2_x[at..at + N].try_into().expect("N columns");
    let y: [Complex64; N] = a2_y[at..at + N].try_into().expect("N columns");
    for (b1, (a1x, a1y)) in a1_x.iter().zip(a1_y).enumerate() {
        let (re1, im1) = (a1x.re, a1y.re);
        if re1 == 0.0 && im1 == 0.0 {
            continue; // empty shell
        }
        let from = b1 * nbins + at;
        let piece: &mut [Complex64; N] =
            (&mut block[from..from + N]).try_into().expect("N columns");
        let mut z = *piece;
        for j in 0..N {
            z[j].re += (re1 * x[j].re + im1 * y[j].re) * w;
            z[j].im += (re1 * x[j].im + im1 * y[j].im) * w;
        }
        *piece = z;
    }
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

    /// Stage 4 as it ran before this module; returns how many rows the
    /// exact-zero test skipped.
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
        alm_x: Vec<Complex64>,
        alm_y: Vec<Complex64>,
        zeta: AnisotropicZeta,
    }

    impl Buffers {
        /// Scratch as a previous primary left it: stale a_ℓm, ζ zero.
        fn new(lmax: usize, nbins: usize) -> Self {
            let n = lm_count(lmax) * padded_bins(nbins);
            Buffers {
                alm_re: vec![f64::NAN; n],
                alm_im: vec![f64::NAN; n],
                alm_x: vec![Complex64::new(f64::NAN, f64::NAN); n],
                alm_y: vec![Complex64::new(f64::NAN, f64::NAN); n],
                zeta: AnisotropicZeta::zeros(lmax, nbins),
            }
        }

        fn kernel<'a>(&'a mut self, ylm: &'a YlmTable, sums_t: &'a [f64], w: f64) -> Assemble<'a> {
            Assemble {
                ylm,
                sums_t,
                alm_re: &mut self.alm_re,
                alm_im: &mut self.alm_im,
                alm_x: &mut self.alm_x,
                alm_y: &mut self.alm_y,
                zeta: &mut self.zeta,
                weight: w,
            }
        }
    }

    fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
        values.into_iter().map(f64::to_bits).collect()
    }

    fn zeta_bits(zeta: &AnisotropicZeta) -> Vec<u64> {
        bits(zeta.data().iter().flat_map(|z| [z.re, z.im]))
    }

    /// The PR 20 rule for a routed loop: every compilation this host can
    /// execute, and `dispatch` at either cap, leaves the bits of the
    /// scalar loops — a_ℓm (stage 3) and ζ (stage 4) — over bin counts
    /// that hit the 8/4/2/1 pieces and the padded vectors, with
    /// untouched bins and exact-zero `a₁` rows in the input.
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
                // Two primaries, so the second updates a non-zero ζ.
                let primaries = [
                    (sums_of_a_primary(&basis, nbins, 11), 0.75),
                    (sums_of_a_primary(&basis, nbins, 12), 1.5),
                ];
                let mut want_zeta = AnisotropicZeta::zeros(lmax, nbins);
                let mut want_alm = [Vec::new(), Vec::new()];
                let mut skipped = 0;
                for (sums_t, w) in &primaries {
                    want_alm = assemble_alm_reference(&ylm, nbins, sums_t);
                    skipped += accumulate_zeta_reference(&want_alm, &mut want_zeta, *w);
                }
                assert!(want_zeta.max_abs() > 0.0);
                // Untouched bins always; pole bins once there is an m > 0.
                assert!(nbins < 2 || skipped > 0, "lmax={lmax} nbins={nbins}");

                for (name, run) in &runs {
                    let at = format!("{name} lmax={lmax} nbins={nbins}");
                    let mut got = Buffers::new(lmax, nbins);
                    for (sums_t, w) in &primaries {
                        run(got.kernel(&ylm, sums_t, *w));
                    }
                    assert_eq!(zeta_bits(&got.zeta), zeta_bits(&want_zeta), "ζ, {at}");
                    let columns = |padded: &[f64]| -> Vec<u64> {
                        bits(padded.chunks_exact(nbp).flat_map(|r| r[..nbins].to_vec()))
                    };
                    assert_eq!(columns(&got.alm_re), bits(want_alm[0].clone()), "re, {at}");
                    assert_eq!(columns(&got.alm_im), bits(want_alm[1].clone()), "im, {at}");
                    // The rows stage 4 read are those coefficients.
                    for (i, (x, y)) in got.alm_x.iter().zip(&got.alm_y).enumerate() {
                        let (re, im) = (got.alm_re[i], got.alm_im[i]);
                        assert_eq!(bits([x.re, x.im, y.re, y.im]), bits([re, -im, im, re]));
                    }
                }
            }
        }
    }

    /// `(a₁·conj(a₂))·w` conjugates exactly under `a₁ ↔ a₂`: what makes
    /// the `ℓ = ℓ'` blocks Hermitian bit for bit, like the mirrored ones.
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
        for l in 0..=lmax {
            for m in 0..=l {
                for b1 in 0..nbins {
                    for b2 in 0..nbins {
                        let (z, t) = (got.zeta.get(l, l, m, b1, b2), got.zeta.get(l, l, m, b2, b1));
                        // `==`, not bits: a zero imaginary part (b₁ = b₂)
                        // is its own conjugate up to sign.
                        assert!(z.re == t.re && z.im == -t.im, "{l} {m} {b1} {b2}");
                    }
                }
            }
        }
    }
}
