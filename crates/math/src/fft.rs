//! In-house complex FFT: iterative radix-2 Cooley–Tukey, 1-D and 3-D.
//!
//! Built from scratch (no external FFT crate) for the Gaussian random
//! field generator in `galactos-mocks`, and promoted into the math
//! crate once the gridded a_ℓm estimator (`galactos-grid`) became a
//! second consumer. Sizes must be powers of two.
//!
//! There is one butterfly loop, `tile_fft`, over a contiguous tile of
//! 8-lane vectors of split real / imaginary parts in which every lane
//! is an independent 1-D transform. [`Mesh3`] keeps its real and its
//! imaginary parts as two row-major halves of one allocation and hands
//! its axes to that loop: z transposes 8 lines at a time into a scratch
//! tile (line index in the lane), y runs on an i-plane's own rows in
//! place, x copies tiles of columns across the planes into an L1-sized
//! scratch and back. Parallelism is one task per plane and per column
//! tile — fixed decompositions, so every thread count produces
//! bit-identical output — with one scratch per task, or one for a whole
//! serial transform.
//!
//! # Conventions
//!
//! Stated once, here, for every consumer:
//!
//! * `forward` computes `X_k = Σ_j x_j e^{−2πijk/N}` (negative sign in
//!   the exponent, **no** normalization);
//! * `inverse` uses the positive sign and includes the `1/N` factor
//!   (or `1/N³` for [`Mesh3::fft3`]), so `inverse(forward(x)) == x`;
//! * with these conventions the circular convolution theorem reads
//!   `FFT(f ∗ g) = FFT(f) · FFT(g)` with no extra scale factor, which
//!   is the identity the gridded estimator's shell convolutions rely
//!   on, and Parseval's theorem reads `Σ|x_j|² = (1/N)·Σ|X_k|²`.
//!
//! Mesh indices map to frequencies through [`signed_mode`]: index
//! `i ≤ n/2` is mode `+i`, larger indices alias to negative modes.

use crate::complex::Complex64;
use rayon::prelude::*;

/// Direction of a transform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    Forward,
    Inverse,
}

/// Reverse the low `bits` bits of `i` (the Cooley–Tukey input
/// permutation). Operates on full `usize` words, so transforms are not
/// silently limited to `n ≤ 2³²` the way the original `u32`-based
/// reversal was.
///
/// `bits` must be in `1..=usize::BITS` and `i < 2^bits`.
#[inline]
pub(crate) fn bit_reverse(i: usize, bits: u32) -> usize {
    debug_assert!((1..=usize::BITS).contains(&bits));
    debug_assert!(bits == usize::BITS || i < (1usize << bits));
    i.reverse_bits() >> (usize::BITS - bits)
}

/// Precompute the stage-major twiddle table of a size-`n` radix-2 FFT:
/// for each butterfly length `len = 2, 4, …, n` (half `h = len/2`) the
/// entries `w[h−1 + off] = e^{sign·2πi·off/len}`, `off < h` — `n−1`
/// values in total, shared by every 1-D line of a 3-D transform. Each
/// twiddle comes from one `sin_cos` call instead of the serial
/// `w *= wlen` recurrence, which is both more accurate and removes the
/// loop-carried dependency from the butterfly inner loop.
pub(crate) fn twiddle_table(n: usize, dir: Direction) -> Vec<Complex64> {
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut w = Vec::with_capacity(n.saturating_sub(1));
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        for off in 0..len / 2 {
            w.push(Complex64::cis(ang * off as f64));
        }
        len <<= 1;
    }
    w
}

/// Width of one vector of the butterfly loop, in doubles.
const LANES: usize = 8;

/// One vector: the same element of `LANES` independent transforms.
type Lanes = [f64; LANES];

/// Split real and imaginary parts of the same cells.
type Split<'a> = (&'a mut [f64], &'a mut [f64]);

/// Vectors of real parts an x-axis tile may hold: with as many of
/// imaginary parts, `256 · 128 B = 32 KiB`, one L1 data cache.
const TILE_VECTORS: usize = 256;

/// Any cell carrying signal? Skipping all-zero planes, line groups and
/// column tiles is exact (the transform of zero is zero and scaling
/// preserves it) and makes the forward transforms of the sparse shell
/// kernels — whose support is a ball covering a fraction of the mesh —
/// substantially cheaper. Scans a vector at a time, without branches.
fn has_signal((re, im): &Split) -> bool {
    let live = |v: &[f64]| v.iter().fold(false, |any, &x| any | (x != 0.0));
    [re, im].iter().any(|half| {
        let (vectors, rest) = half.as_chunks::<LANES>();
        vectors.iter().any(|v| live(v)) || live(rest)
    })
}

/// Rows `a < b` of a tile of `w` vectors per row, both mutably.
#[inline]
fn row_pair(tile: &mut [Lanes], a: usize, b: usize, w: usize) -> (&mut [Lanes], &mut [Lanes]) {
    let (lo, hi) = tile.split_at_mut(b * w);
    (&mut lo[a * w..(a + 1) * w], &mut hi[..w])
}

/// In-place unnormalized FFT along the rows of a contiguous tile:
/// `rows` rows of `w` vectors of split real and imaginary parts, every
/// lane of every column its own transform of length `rows`, with the
/// [`twiddle_table`] of that length (which carries the direction). The
/// radix-2 decimation-in-time schedule — bit reversal of whole rows,
/// then per stage `b·w = (br·wr − bi·wi, br·wi + bi·wr)` and `a ± b·w`
/// — gives a lane exactly the operations a scalar transform of its
/// column would get, so no float depends on how data was laid into
/// lanes; the inverse's `1/rows` is left to whoever copies the result
/// out. The body copies its operands into locals, runs one loop over
/// the lanes and stores: the form the compiler vectorizes.
fn tile_fft(re: &mut [Lanes], im: &mut [Lanes], rows: usize, w: usize, tw: &[Complex64]) {
    debug_assert!(rows.is_power_of_two() && rows >= 2 && tw.len() == rows - 1);
    debug_assert!(re.len() == rows * w && im.len() == rows * w);
    let bits = rows.trailing_zeros();
    for i in 0..rows {
        let j = bit_reverse(i, bits);
        if i < j {
            for half in [&mut *re, &mut *im] {
                let (a, b) = row_pair(half, i, j, w);
                a.swap_with_slice(b);
            }
        }
    }
    let mut len = 2;
    while len <= rows {
        let half = len / 2;
        let stage = &tw[half - 1..len - 1];
        for start in (0..rows).step_by(len) {
            for (off, t) in stage.iter().enumerate() {
                let (a_re, b_re) = row_pair(re, start + off, start + off + half, w);
                let (a_im, b_im) = row_pair(im, start + off, start + off + half, w);
                for (((a_re, a_im), b_re), b_im) in a_re.iter_mut().zip(a_im).zip(b_re).zip(b_im) {
                    let (ar, ai, br, bi) = (*a_re, *a_im, *b_re, *b_im);
                    let mut out = [[0.0; LANES]; 4];
                    for l in 0..LANES {
                        let tr = br[l] * t.re - bi[l] * t.im;
                        let ti = br[l] * t.im + bi[l] * t.re;
                        out[0][l] = ar[l] + tr;
                        out[1][l] = ai[l] + ti;
                        out[2][l] = ar[l] - tr;
                        out[3][l] = ai[l] - ti;
                    }
                    [*a_re, *a_im, *b_re, *b_im] = out;
                }
            }
        }
        len <<= 1;
    }
}

/// In-place 1-D FFT of a power-of-two-length buffer: a line is a
/// one-lane tile. The tests' oracle for `Mesh3::fft3`, whose tile
/// columns must reproduce it bit for bit.
#[cfg(test)]
fn fft_inplace(data: &mut [Complex64], dir: Direction) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "FFT length must be a power of two, got {n}"
    );
    if n <= 1 {
        return;
    }
    let axis = Axis::new(n, 1, dir);
    let (mut re, mut im) = (vec![[0.0; LANES]; n], vec![[0.0; LANES]; n]);
    for ((v, re), im) in data.iter().zip(&mut re).zip(&mut im) {
        (re[0], im[0]) = (v.re, v.im);
    }
    tile_fft(&mut re, &mut im, n, 1, &axis.tw);
    for ((v, re), im) in data.iter_mut().zip(&re).zip(&im) {
        *v = Complex64::new(re[0] * axis.scale, im[0] * axis.scale);
    }
}

/// Map a mesh index to its signed frequency: `0..=n/2` stay, the upper
/// half aliases to negative frequencies.
#[inline]
pub fn signed_mode(i: usize, n: usize) -> i64 {
    if i <= n / 2 {
        i as i64
    } else {
        i as i64 - n as i64
    }
}

/// `op(cell, lane)` on cell `k` of line `l` and lane `l` of vector `k`
/// of column `col` of a tile of `w` vectors per row, for up to `LANES`
/// contiguous lines of `n` cells: the transpose of the z axis, either
/// way. The lines a mesh narrower than a vector lacks are zeros.
fn zip_lines(
    lines: &mut [f64],
    n: usize,
    tile: &mut [Lanes],
    (w, col): (usize, usize),
    op: impl Fn(&mut f64, &mut f64),
) {
    let mut spare = [[0.0; LANES]; LANES];
    let mut lines = lines
        .chunks_mut(n)
        .chain(spare.iter_mut().map(|s| &mut s[..]));
    let lines: [&mut [f64]; LANES] =
        std::array::from_fn(|_| &mut lines.next().expect("LANES spare lines")[..n]);
    for (k, v) in tile[col..].iter_mut().step_by(w).enumerate() {
        for l in 0..LANES {
            op(&mut lines[l][k], &mut v[l]);
        }
    }
}

/// `op(cell, lane)` on the cells of piece `r` and the lanes of row `r`
/// of a tile of `w` vectors per row. Lanes past the end of a piece are
/// skipped: lanes never mix, so what they hold is never seen.
fn zip_rows(
    rows: &mut [Split],
    (t_re, t_im): (&mut [Lanes], &mut [Lanes]),
    w: usize,
    op: impl Fn(&mut f64, &mut f64),
) {
    for ((re, im), tile) in rows
        .iter_mut()
        .zip(t_re.chunks_mut(w).zip(t_im.chunks_mut(w)))
    {
        for (half, tile) in [(re, tile.0), (im, tile.1)] {
            for (x, t) in half.iter_mut().zip(tile.as_flattened_mut()) {
                op(x, t);
            }
        }
    }
}

/// What the transforms along the axes of one mesh share: the side, the
/// vectors per row of a scratch tile, the twiddles, and the factor an
/// axis is scaled by when its result is copied out of a tile.
struct Axis {
    n: usize,
    w: usize,
    tw: Vec<Complex64>,
    scale: f64,
}

impl Axis {
    fn new(n: usize, w: usize, dir: Direction) -> Self {
        let tw = twiddle_table(n, dir);
        let scale = if dir == Direction::Inverse {
            1.0 / n as f64
        } else {
            1.0
        };
        Axis { n, w, tw, scale }
    }

    /// Run `op` on every task, serially with one scratch tile or in
    /// parallel with one per task. Tasks never share data, so both
    /// orders compute the same floats.
    fn run<T: Send>(
        &self,
        tasks: &mut [T],
        parallel: bool,
        op: impl Fn(&mut [Lanes], &mut T) + Sync,
    ) {
        let scratch = || vec![[0.0; LANES]; 2 * self.n * self.w];
        if parallel {
            tasks
                .par_chunks_mut(1)
                .for_each(|task| op(&mut scratch(), &mut task[0]));
        } else {
            let mut tile = scratch();
            tasks.iter_mut().for_each(|task| op(&mut tile, task));
        }
    }

    /// Transform along the rows of `n` pieces of at most `w · LANES`
    /// columns each, through the tile.
    fn columns(&self, tile: &mut [Lanes], rows: &mut [Split]) {
        if !rows.iter().any(has_signal) {
            return;
        }
        let (t_re, t_im) = tile.split_at_mut(self.n * self.w);
        zip_rows(rows, (t_re, t_im), self.w, |x, t| *t = *x);
        tile_fft(t_re, t_im, self.n, self.w, &self.tw);
        zip_rows(rows, (t_re, t_im), self.w, |x, t| *x = *t * self.scale);
    }

    /// The z and y axes of one i-plane (`n` rows of `n` cells).
    fn plane(&self, tile: &mut [Lanes], (re, im): &mut Split) {
        let (n, w) = (self.n, self.w);
        // z: groups of 8 contiguous lines, each transposed into one
        // column of the tile, as many side by side as the tile holds;
        // all-zero groups are left out.
        let group = LANES * n;
        let mut signal = false;
        for (b_re, b_im) in re.chunks_mut(w * group).zip(im.chunks_mut(w * group)) {
            let mut live: Vec<Split> = b_re.chunks_mut(group).zip(b_im.chunks_mut(group)).collect();
            live.retain(has_signal);
            let cols = live.len();
            if cols == 0 {
                continue;
            }
            signal = true;
            let (t_re, t_im) = tile[..2 * n * cols].split_at_mut(n * cols);
            for (col, (re, im)) in live.iter_mut().enumerate() {
                zip_lines(re, n, t_re, (cols, col), |x, t| *t = *x);
                zip_lines(im, n, t_im, (cols, col), |x, t| *t = *x);
            }
            tile_fft(t_re, t_im, n, cols, &self.tw);
            for (col, (re, im)) in live.iter_mut().enumerate() {
                zip_lines(re, n, t_re, (cols, col), |x, t| *x = *t * self.scale);
                zip_lines(im, n, t_im, (cols, col), |x, t| *x = *t * self.scale);
            }
        }
        if !signal {
            return;
        }
        // y: the plane's rows are the tile, in place — or, on a mesh
        // narrower than a vector, pieces of the scratch tile's rows.
        if n >= LANES {
            let (v_re, v_im) = (re.as_chunks_mut().0, im.as_chunks_mut().0);
            tile_fft(v_re, v_im, n, n / LANES, &self.tw);
            for half in [re, im] {
                half.iter_mut().for_each(|x| *x *= self.scale);
            }
        } else {
            let mut rows: Vec<Split> = re.chunks_mut(n).zip(im.chunks_mut(n)).collect();
            self.columns(tile, &mut rows);
        }
    }
}

/// A cubic complex mesh of side `n` (so `n³` cells), stored split: one
/// allocation holding the real parts of all cells, row-major
/// `(i, j, k) → (i·n + j)·n + k`, followed by their imaginary parts in
/// the same order.
#[derive(Clone, Debug)]
pub struct Mesh3 {
    n: usize,
    data: Vec<f64>,
}

impl Mesh3 {
    pub fn zeros(n: usize) -> Self {
        assert!(n.is_power_of_two(), "mesh side must be a power of two");
        Mesh3 {
            n,
            data: vec![0.0; 2 * n * n * n],
        }
    }

    pub fn from_real(n: usize, values: &[f64]) -> Self {
        assert_eq!(values.len(), n * n * n);
        let mut mesh = Mesh3::zeros(n);
        mesh.split_mut().0.copy_from_slice(values);
        mesh
    }

    /// Real-to-complex convenience: embed a real field and transform it
    /// forward in one call (the first step of every mesh estimator).
    pub fn forward_real(n: usize, values: &[f64]) -> Self {
        let mut mesh = Mesh3::from_real(n, values);
        mesh.fft3(Direction::Forward);
        mesh
    }

    /// Complex-to-real convenience: inverse-transform and keep the real
    /// parts. The imaginary parts are *discarded*, not checked — they
    /// are round-off only when the spectrum is (numerically) Hermitian,
    /// as for cross-correlations of real fields; use [`Mesh3::max_imag`]
    /// first when that property is worth asserting.
    pub fn inverse_real(mut self) -> Vec<f64> {
        self.fft3(Direction::Inverse);
        self.to_real()
    }

    /// Number of cells, `n³`.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / 2
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major index of a cell in either half of [`Mesh3::split`].
    #[inline]
    pub(crate) fn index(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.n && j < self.n && k < self.n);
        (i * self.n + j) * self.n + k
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize) -> Complex64 {
        let idx = self.index(i, j, k);
        Complex64::new(self.data[idx], self.data[idx + self.len()])
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, k: usize, v: Complex64) {
        let (idx, len) = (self.index(i, j, k), self.len());
        self.data[idx] = v.re;
        self.data[idx + len] = v.im;
    }

    /// The whole allocation: `n³` real parts, then `n³` imaginary parts.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// The real and the imaginary parts, each row-major over the cells.
    #[inline]
    pub fn split(&self) -> (&[f64], &[f64]) {
        self.data.split_at(self.len())
    }

    /// [`Mesh3::split`], mutably.
    #[inline]
    pub fn split_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        let len = self.len();
        self.data.split_at_mut(len)
    }

    /// The i-planes in order, each as its `n²` real and imaginary parts.
    fn planes_mut(&mut self) -> Vec<Split<'_>> {
        let n2 = self.n * self.n;
        let (re, im) = self.split_mut();
        re.chunks_mut(n2).zip(im.chunks_mut(n2)).collect()
    }

    /// `op(i, re, im)` on every i-plane, one parallel task per plane
    /// (no reduction, so trivially thread-count invariant).
    pub fn par_planes_mut(&mut self, op: impl Fn(usize, &mut [f64], &mut [f64]) + Sync) {
        self.planes_mut()
            .par_chunks_mut(1)
            .enumerate()
            .for_each(|(i, plane)| op(i, plane[0].0, plane[0].1));
    }

    /// `(re, im) = op(re, im, other.re, other.im)` in every cell.
    fn zip_cells(&mut self, other: &Mesh3, op: impl Fn(f64, f64, f64, f64) -> (f64, f64)) {
        assert_eq!(self.n, other.n, "mesh side mismatch");
        let (a_re, a_im) = self.split_mut();
        let (b_re, b_im) = other.split();
        for (((ar, ai), br), bi) in a_re.iter_mut().zip(a_im).zip(b_re).zip(b_im) {
            (*ar, *ai) = op(*ar, *ai, *br, *bi);
        }
    }

    /// Pointwise product `self[c] *= other[c]` — the k-space side of the
    /// convolution theorem.
    pub fn pointwise_mul(&mut self, other: &Mesh3) {
        self.zip_cells(other, |ar, ai, br, bi| {
            (ar * br - ai * bi, ar * bi + ai * br)
        });
    }

    /// Pointwise conjugated product `self[c] = conj(self[c]) · other[c]`
    /// — the k-space side of the cross-correlation theorem
    /// (`R(u) = Σ_x f(x) g(x+u)` has spectrum `conj(f̂)·ĝ`).
    pub fn pointwise_conj_mul(&mut self, other: &Mesh3) {
        self.zip_cells(other, |ar, ai, br, bi| {
            (ar * br - -ai * bi, ar * bi + -ai * br)
        });
    }

    /// Real parts of all cells.
    pub fn to_real(&self) -> Vec<f64> {
        self.split().0.to_vec()
    }

    /// Largest |imaginary part| — should be ~0 after an inverse
    /// transform of a Hermitian spectrum.
    pub fn max_imag(&self) -> f64 {
        self.split().1.iter().map(|v| v.abs()).fold(0.0, f64::max)
    }

    /// In-place 3-D FFT.
    ///
    /// The z and y axes are fused into one pass per i-plane (a plane
    /// fits cache), the x axis runs over tiles of columns that fit L1;
    /// parallelism is one task per plane and per tile, both
    /// decompositions fixed rather than thread-count-derived, so output
    /// is bit-identical for every pool size. All-zero planes, line
    /// groups and column tiles are skipped — exact, and a large win for
    /// the sparse shell-kernel meshes the gridded estimator transforms.
    pub fn fft3(&mut self, dir: Direction) {
        self.fft3_impl(dir, true);
    }

    /// Serial [`Mesh3::fft3`]: identical floats, no worker threads.
    /// For use inside already-parallel regions — the grid estimator
    /// transforms many independent field meshes concurrently, one
    /// whole mesh per task, and nested spawning would oversubscribe.
    pub fn fft3_serial(&mut self, dir: Direction) {
        self.fft3_impl(dir, false);
    }

    fn fft3_impl(&mut self, dir: Direction, parallel: bool) {
        let n = self.n;
        if n <= 1 {
            return;
        }
        let n2 = n * n;
        // Vectors per row of an x tile, and the columns they hold.
        let w = (TILE_VECTORS / n).clamp(1, n2.div_ceil(LANES));
        let cols = (w * LANES).min(n2);
        let axis = &Axis::new(n, w, dir);

        let mut planes = self.planes_mut();
        axis.run(&mut planes, parallel, |tile, plane| axis.plane(tile, plane));

        // x: cut every plane into pieces of `cols` columns and regroup
        // them tile-major, so a tile's task owns its `n` row pieces.
        let mut rows: Vec<_> = planes
            .into_iter()
            .map(|(re, im)| re.chunks_mut(cols).zip(im.chunks_mut(cols)))
            .collect();
        let mut pieces: Vec<Split> = Vec::with_capacity(n * n2.div_ceil(cols));
        for _ in 0..n2.div_ceil(cols) {
            pieces.extend(rows.iter_mut().filter_map(Iterator::next));
        }
        let mut tiles: Vec<_> = pieces.chunks_mut(n).collect();
        axis.run(&mut tiles, parallel, |tile, rows| axis.columns(tile, rows));
    }
}

/// Naive O(N²) DFT, the tests' oracle for `tile_fft` and `Mesh3::fft3`.
#[cfg(test)]
fn dft_reference(input: &[Complex64], dir: Direction) -> Vec<Complex64> {
    let n = input.len();
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut out = vec![Complex64::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        for (j, &x) in input.iter().enumerate() {
            let ang = sign * 2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
            acc += x * Complex64::cis(ang);
        }
        *o = if dir == Direction::Inverse {
            acc / n as f64
        } else {
            acc
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn random_signal(n: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| Complex64::new(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
            .collect()
    }

    #[test]
    fn matches_reference_dft() {
        for n in [1usize, 2, 4, 8, 32, 128] {
            let signal = random_signal(n, n as u64);
            let mut fast = signal.clone();
            fft_inplace(&mut fast, Direction::Forward);
            let slow = dft_reference(&signal, Direction::Forward);
            for (a, b) in fast.iter().zip(slow.iter()) {
                assert!(a.dist_inf(*b) < 1e-9 * (n as f64), "n={n}");
            }
        }
    }

    #[test]
    fn roundtrip_identity() {
        let signal = random_signal(256, 3);
        let mut buf = signal.clone();
        fft_inplace(&mut buf, Direction::Forward);
        fft_inplace(&mut buf, Direction::Inverse);
        for (a, b) in buf.iter().zip(signal.iter()) {
            assert!(a.dist_inf(*b) < 1e-11);
        }
    }

    #[test]
    fn linearity() {
        // FFT(α·x + β·y) = α·FFT(x) + β·FFT(y), both directions.
        let n = 128;
        let x = random_signal(n, 17);
        let y = random_signal(n, 18);
        let (alpha, beta) = (Complex64::new(0.7, -1.3), Complex64::new(-2.1, 0.4));
        for dir in [Direction::Forward, Direction::Inverse] {
            let mut combined: Vec<Complex64> = x
                .iter()
                .zip(y.iter())
                .map(|(&a, &b)| alpha * a + beta * b)
                .collect();
            fft_inplace(&mut combined, dir);
            let mut fx = x.clone();
            let mut fy = y.clone();
            fft_inplace(&mut fx, dir);
            fft_inplace(&mut fy, dir);
            for i in 0..n {
                let want = alpha * fx[i] + beta * fy[i];
                assert!(combined[i].dist_inf(want) < 1e-10, "{dir:?} bin {i}");
            }
        }
    }

    #[test]
    fn parseval_theorem() {
        let signal = random_signal(512, 5);
        let time_energy: f64 = signal.iter().map(|c| c.norm_sq()).sum();
        let mut freq = signal.clone();
        fft_inplace(&mut freq, Direction::Forward);
        let freq_energy: f64 = freq.iter().map(|c| c.norm_sq()).sum::<f64>() / 512.0;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy);
    }

    #[test]
    fn impulse_becomes_flat() {
        let mut buf = vec![Complex64::ZERO; 64];
        buf[0] = Complex64::ONE;
        fft_inplace(&mut buf, Direction::Forward);
        for v in &buf {
            assert!(v.dist_inf(Complex64::ONE) < 1e-12);
        }
    }

    #[test]
    fn pure_tone_is_a_spike() {
        let n = 128;
        let freq = 5;
        let mut buf: Vec<Complex64> = (0..n)
            .map(|j| Complex64::cis(2.0 * std::f64::consts::PI * (freq * j) as f64 / n as f64))
            .collect();
        fft_inplace(&mut buf, Direction::Forward);
        for (k, v) in buf.iter().enumerate() {
            let want = if k == freq { n as f64 } else { 0.0 };
            assert!((v.abs() - want).abs() < 1e-9, "bin {k}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let mut buf = vec![Complex64::ZERO; 12];
        fft_inplace(&mut buf, Direction::Forward);
    }

    #[test]
    fn bit_reverse_handles_wide_words() {
        // Regression: the original permutation reversed `i as u32`, so
        // any transform with n > 2³² would have permuted with truncated
        // indices. The helper must reverse within exactly `bits` bits
        // for widths past 32 (pure index arithmetic — no 2³²-element
        // buffer needed to pin the behavior).
        assert_eq!(bit_reverse(0b1, 3), 0b100);
        assert_eq!(bit_reverse(0b110, 3), 0b011);
        for bits in [8u32, 16, 31, 33, 40, 48, 63] {
            assert_eq!(bit_reverse(1, bits), 1usize << (bits - 1), "bits={bits}");
            assert_eq!(bit_reverse(1usize << (bits - 1), bits), 1, "bits={bits}");
            assert_eq!(bit_reverse(0, bits), 0);
            let all = (1usize << bits) - 1;
            assert_eq!(bit_reverse(all, bits), all, "bits={bits}");
            // Involution on a spread of values.
            for i in [3usize, 5, 1 << (bits / 2), (1 << bits) - 2] {
                assert_eq!(bit_reverse(bit_reverse(i, bits), bits), i, "bits={bits}");
            }
        }
        if usize::BITS == 64 {
            assert_eq!(bit_reverse(1, 64), 1usize << 63);
        }
    }

    #[test]
    fn large_transform_roundtrip() {
        // The largest 1-D size the test host comfortably affords
        // (2²⁰ complex values = 16 MiB): exercises the usize-based
        // permutation well past the small sizes the oracle covers, and
        // cross-checks one representative spike against the analytic
        // transform of a pure tone.
        let n = 1usize << 20;
        let freq = 123_457;
        let signal: Vec<Complex64> = (0..n)
            .map(|j| {
                Complex64::cis(2.0 * std::f64::consts::PI * (freq as f64 * j as f64) / n as f64)
            })
            .collect();
        let mut buf = signal.clone();
        fft_inplace(&mut buf, Direction::Forward);
        assert!((buf[freq].abs() - n as f64).abs() < 1e-4 * n as f64);
        fft_inplace(&mut buf, Direction::Inverse);
        for (i, (a, b)) in buf.iter().zip(signal.iter()).enumerate().step_by(4097) {
            assert!(a.dist_inf(*b) < 1e-8, "index {i}");
        }
    }

    #[test]
    fn signed_modes() {
        assert_eq!(signed_mode(0, 8), 0);
        assert_eq!(signed_mode(3, 8), 3);
        assert_eq!(signed_mode(4, 8), 4);
        assert_eq!(signed_mode(5, 8), -3);
        assert_eq!(signed_mode(7, 8), -1);
    }

    #[test]
    fn mesh_roundtrip_3d() {
        let n = 16;
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let values: Vec<f64> = (0..n * n * n)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let mut mesh = Mesh3::from_real(n, &values);
        mesh.fft3(Direction::Forward);
        mesh.fft3(Direction::Inverse);
        let back = mesh.to_real();
        for (a, b) in back.iter().zip(values.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
        assert!(mesh.max_imag() < 1e-10);
    }

    #[test]
    fn forward_real_and_inverse_real_roundtrip() {
        let n = 8;
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let values: Vec<f64> = (0..n * n * n)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let mesh = Mesh3::forward_real(n, &values);
        let back = mesh.inverse_real();
        for (a, b) in back.iter().zip(values.iter()) {
            assert!((a - b).abs() < 1e-11);
        }
    }

    #[test]
    fn pointwise_products_implement_convolution_and_correlation() {
        // Convolution theorem: IFFT(f̂·ĝ)[x] = Σ_y f(y)·g(x−y) (cyclic);
        // correlation theorem: IFFT(conj(f̂)·ĝ)[u] = Σ_x f(x)·g(x+u).
        let n = 4usize;
        let total = n * n * n;
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        let f: Vec<f64> = (0..total).map(|_| rng.random_range(-1.0..1.0)).collect();
        let g: Vec<f64> = (0..total).map(|_| rng.random_range(-1.0..1.0)).collect();
        let idx = |i: usize, j: usize, k: usize| (i * n + j) * n + k;

        let ghat = Mesh3::forward_real(n, &g);
        let mut conv = Mesh3::forward_real(n, &f);
        conv.pointwise_mul(&ghat);
        let conv = conv.inverse_real();
        let mut corr = Mesh3::forward_real(n, &f);
        corr.pointwise_conj_mul(&ghat);
        let corr = corr.inverse_real();

        for (xi, xj, xk) in [(0usize, 0usize, 0usize), (1, 3, 2), (3, 1, 0)] {
            let mut want_conv = 0.0;
            let mut want_corr = 0.0;
            for yi in 0..n {
                for yj in 0..n {
                    for yk in 0..n {
                        let fv = f[idx(yi, yj, yk)];
                        want_conv +=
                            fv * g[idx((xi + n - yi) % n, (xj + n - yj) % n, (xk + n - yk) % n)];
                        want_corr += fv * g[idx((yi + xi) % n, (yj + xj) % n, (yk + xk) % n)];
                    }
                }
            }
            assert!((conv[idx(xi, xj, xk)] - want_conv).abs() < 1e-10);
            assert!((corr[idx(xi, xj, xk)] - want_corr).abs() < 1e-10);
        }
    }

    #[test]
    fn mesh_plane_wave_single_mode() {
        // δ(x) = cos(2π m·x / n) has power only at modes ±m.
        let n = 16usize;
        let m = (2usize, 1usize, 3usize);
        let mut mesh = Mesh3::zeros(n);
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let phase = 2.0 * std::f64::consts::PI * (m.0 * i + m.1 * j + m.2 * k) as f64
                        / n as f64;
                    mesh.set(i, j, k, Complex64::real(phase.cos()));
                }
            }
        }
        mesh.fft3(Direction::Forward);
        let total: f64 = cells(&mesh).iter().map(|c| c.abs()).sum();
        let peak = mesh.get(m.0, m.1, m.2).abs();
        let mirror = mesh.get(n - m.0, n - m.1, n - m.2).abs();
        // The two conjugate modes hold all the signal.
        assert!((peak + mirror) / total > 0.999, "{peak} {mirror} {total}");
        let want = (n * n * n) as f64 / 2.0;
        assert!((peak - want).abs() < 1e-6 * want);
    }

    /// The 3-D transform as three passes of the naive 1-D DFT, along
    /// z, then y, then x, over row-major cells.
    fn three_passes_of_reference(n: usize, vals: &[Complex64], dir: Direction) -> Vec<Complex64> {
        let mut data = vals.to_vec();
        for stride in [1, n, n * n] {
            for start in (0..n * n * n).filter(|c| (c / stride) % n == 0) {
                let line: Vec<Complex64> = (0..n).map(|a| data[start + a * stride]).collect();
                for (a, v) in dft_reference(&line, dir).into_iter().enumerate() {
                    data[start + a * stride] = v;
                }
            }
        }
        data
    }

    #[test]
    fn mesh_3d_equals_three_passes_of_reference() {
        // Small meshes cross-checked against composing 1-D reference
        // DFTs; sides 2 and 4 are narrower than a vector of the
        // butterfly loop, so every axis runs on zero-padded lanes.
        for n in [2usize, 4, 8] {
            for dir in [Direction::Forward, Direction::Inverse] {
                let vals = random_signal(n * n * n, 11);
                let mut mesh = mesh_of(n, &vals);
                mesh.fft3(dir);
                let want = three_passes_of_reference(n, &vals, dir);
                for (a, b) in cells(&mesh).iter().zip(want.iter()) {
                    assert!(a.dist_inf(*b) < 1e-9, "n={n} {dir:?}");
                }
            }
        }
    }

    #[test]
    fn tile_fft_transforms_every_lane_of_every_column() {
        // Different data in every lane of a three-vector-wide tile:
        // each column must come out as the reference DFT of that column
        // — and as exactly the floats `fft_inplace` gives it alone in
        // lane 0 of a one-vector tile, since lanes never mix.
        let w = 3;
        for rows in [2usize, 4, 8, 32, 128] {
            for dir in [Direction::Forward, Direction::Inverse] {
                let columns: Vec<Vec<Complex64>> = (0..w * LANES)
                    .map(|c| random_signal(rows, (1000 * rows + c) as u64))
                    .collect();
                let mut re = vec![[0.0; LANES]; rows * w];
                let mut im = vec![[0.0; LANES]; rows * w];
                for (c, column) in columns.iter().enumerate() {
                    for (r, v) in column.iter().enumerate() {
                        re[r * w + c / LANES][c % LANES] = v.re;
                        im[r * w + c / LANES][c % LANES] = v.im;
                    }
                }
                let axis = Axis::new(rows, w, dir);
                tile_fft(&mut re, &mut im, rows, w, &axis.tw);
                for (c, column) in columns.iter().enumerate() {
                    let want = dft_reference(column, dir);
                    let mut alone = column.clone();
                    fft_inplace(&mut alone, dir);
                    for r in 0..rows {
                        let at = (r * w + c / LANES, c % LANES);
                        let got = Complex64::new(re[at.0][at.1], im[at.0][at.1]).scale(axis.scale);
                        assert!(got.dist_inf(want[r]) < 1e-9 * rows as f64, "rows={rows}");
                        assert_eq!(got.re.to_bits(), alone[r].re.to_bits(), "rows={rows}");
                        assert_eq!(got.im.to_bits(), alone[r].im.to_bits(), "rows={rows}");
                    }
                }
            }
        }
    }

    #[test]
    fn twiddle_table_matches_recurrence_targets() {
        // Stage with half h lives at base offset h−1 and holds
        // e^{sign·2πi·off/(2h)}.
        for n in [2usize, 8, 64] {
            let tw = twiddle_table(n, Direction::Forward);
            assert_eq!(tw.len(), n - 1);
            let mut len = 2;
            while len <= n {
                let half = len / 2;
                for off in 0..half {
                    let want =
                        Complex64::cis(-2.0 * std::f64::consts::PI * off as f64 / len as f64);
                    assert!(tw[half - 1 + off].dist_inf(want) < 1e-15, "n={n} len={len}");
                }
                len <<= 1;
            }
        }
    }

    /// A mesh holding `vals` in row-major cell order.
    fn mesh_of(n: usize, vals: &[Complex64]) -> Mesh3 {
        let mut mesh = Mesh3::zeros(n);
        let (re, im) = mesh.split_mut();
        for ((v, re), im) in vals.iter().zip(re).zip(im) {
            (*re, *im) = (v.re, v.im);
        }
        mesh
    }

    /// The cells of a mesh in row-major order.
    fn cells(mesh: &Mesh3) -> Vec<Complex64> {
        let (re, im) = mesh.split();
        re.iter()
            .zip(im)
            .map(|(&re, &im)| Complex64::new(re, im))
            .collect()
    }

    fn random_mesh(n: usize, seed: u64) -> Mesh3 {
        mesh_of(n, &random_signal(n * n * n, seed))
    }

    #[test]
    fn fft3_serial_and_parallel_are_bit_identical() {
        for dir in [Direction::Forward, Direction::Inverse] {
            let mut a = random_mesh(16, 41);
            let mut b = a.clone();
            a.fft3(dir);
            b.fft3_serial(dir);
            for (x, y) in a.data().iter().zip(b.data().iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{dir:?}");
            }
        }
    }

    #[test]
    fn fft3_is_bit_stable_across_thread_counts() {
        // The plane/column-block decomposition is fixed, so every pool
        // size must produce the same floats to the last bit.
        let reference = {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .unwrap();
            let mut m = random_mesh(16, 43);
            pool.install(|| m.fft3(Direction::Forward));
            m
        };
        for threads in [2usize, 4, 0] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut m = random_mesh(16, 43);
            pool.install(|| m.fft3(Direction::Forward));
            for (x, y) in m.data().iter().zip(reference.data().iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn sparse_mesh_transform_matches_dense_path() {
        // Zero-line/zero-block skipping must be exact: a mesh whose
        // support touches a few cells transforms to the same spectrum
        // as the analytic sum over its support.
        let n = 8usize;
        let mut mesh = Mesh3::zeros(n);
        let support = [
            (0usize, 0usize, 0usize, 1.5),
            (2, 5, 7, -0.75),
            (7, 1, 3, 0.25),
        ];
        for &(i, j, k, v) in &support {
            mesh.set(i, j, k, Complex64::real(v));
        }
        mesh.fft3(Direction::Forward);
        for (a, b, c) in [(0usize, 0usize, 0usize), (1, 2, 3), (7, 7, 7), (4, 0, 6)] {
            let mut want = Complex64::ZERO;
            for &(i, j, k, v) in &support {
                let ang = -2.0 * std::f64::consts::PI * (a * i + b * j + c * k) as f64 / n as f64;
                want += Complex64::cis(ang).scale(v);
            }
            assert!(mesh.get(a, b, c).dist_inf(want) < 1e-12);
        }
    }

    #[test]
    fn every_skip_rule_fires_and_changes_nothing() {
        // One cell: every other plane is skipped whole, three of the
        // four line groups of its plane are skipped, and so is every
        // column tile but those its plane's spectrum reaches — here all
        // of them. A mesh that is constant over one plane reaches only
        // column (0, 0) after z and y, so every x tile but the first is
        // skipped too. Both must equal the transform that skips nothing.
        let n = 32usize;
        let mut one_cell = vec![Complex64::ZERO; n * n * n];
        one_cell[(5 * n + 17) * n + 3] = Complex64::new(0.75, -1.25);
        let mut flat_plane = vec![Complex64::ZERO; n * n * n];
        flat_plane[9 * n * n..10 * n * n].fill(Complex64::new(-0.5, 2.0));
        for vals in [one_cell, flat_plane] {
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut mesh = mesh_of(n, &vals);
                mesh.fft3(dir);
                let want = three_passes_of_reference(n, &vals, dir);
                for (a, b) in cells(&mesh).iter().zip(want.iter()) {
                    assert!(a.dist_inf(*b) < 1e-10, "{dir:?}: {a} vs {b}");
                }
            }
        }
    }
}
