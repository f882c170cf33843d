//! The gridded a_ℓm estimator: shell convolutions in Fourier space.
//!
//! Following the mesh formulation of the multipole estimator (Slepian &
//! Eisenstein 2015, §5; the FFT variant of the Galactos/SE tree
//! algorithm), the per-primary shell coefficients
//!
//! ```text
//! a_ℓm(x; b) = Σ_j w_j · Θ_b(|y_j − x|) · Y_ℓm((y_j − x)^)
//! ```
//!
//! become, after painting the catalog onto a density mesh `n(y)`, one
//! cross-correlation per `(ℓ, m, bin)`:
//!
//! ```text
//! A_ℓm,b(x) = Σ_y n(y) · K_ℓm,b(y − x),   K_ℓm,b(u) = Θ_b(|u|) Y_ℓm(û),
//! ```
//!
//! evaluated with two FFTs per kernel (`A = IFFT(FFT(n) · FFT(g))` with
//! the reflected kernel `g(u) = K(−u)`). The kernels of one `m` are
//! copied out of a table of `Y_ℓm(−û)` over the shell cells, built once
//! per `m` (one monomial evaluation per cell serves every `ℓ ≥ m` and
//! every bin), and the meshes they are transformed on come from a pool
//! that lives for one call: a field task takes a mesh, keeps only the
//! occupied-cell values of its result, clears the mesh and puts it
//! back, so one mesh per worker is all the 660 fields of the paper
//! point ever allocate. The ζ multipoles are then the mesh inner
//! products `ζ^m_{ℓℓ'}(b₁,b₂) = Σ_x n(x) A_ℓm,b₁(x) conj(A_ℓ'm,b₂(x))`,
//! restricted to occupied cells. Cost scales with the mesh, not the
//! pair count.
//!
//! # Conventions
//!
//! * FFT sign and normalization follow [`galactos_math::fft`] (forward
//!   `e^{−ik·x}`, unnormalized; inverse carries `1/N³`), under which the
//!   convolution theorem holds with no extra scale factor — so the ζ
//!   sums here are *raw weighted sums*, directly comparable to the tree
//!   engine's, with no density or volume normalization applied.
//! * Harmonics are assembled through the same [`MonomialBasis`] /
//!   [`YlmTable`] machinery as the tree kernel (physics normalization,
//!   Condon–Shortley phase), so the two estimators share conventions by
//!   construction.
//! * Cell displacements use the minimum image (signed FFT modes × cell
//!   size); the `u = 0` cell is excluded, mirroring the tree's skip of
//!   zero-separation pairs.

use crate::assign::MassAssignment;
use crate::mesh::DensityMesh;
use galactos_catalog::Catalog;
use galactos_math::fft::{signed_mode, Direction, Mesh3};
use galactos_math::ylm::SelfPairTable;
use galactos_math::{Complex64, Mat3, MonomialBasis, Vec3, YlmTable};
use rayon::prelude::*;
use std::fmt;
use std::sync::Mutex;

/// Configuration of the gridded estimator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GridConfig {
    /// Mesh cells per axis (power of two). Resident at once: one
    /// complex mesh (`16 · mesh³` bytes) per worker thread plus one for
    /// the density spectrum n̂, the table of `Y_ℓm(−û)` for the current
    /// `m` (`(ℓmax+1−m)` complex values per shell cell), and the
    /// fields of the current `m` as occupied-cell values only,
    /// `(ℓmax+1−m) · nbins · 2 · n_occ` doubles.
    pub mesh: usize,
    /// Mass-assignment scheme painting the catalog onto the mesh.
    pub assignment: MassAssignment,
    /// Divide the density modes by the assignment window
    /// (`MassAssignment::fourier_window`) before convolving.
    pub deconvolve: bool,
    /// Combine a half-cell-shifted second painting to cancel the
    /// leading aliasing images (doubles painting and adds one FFT).
    pub interlace: bool,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            mesh: 64,
            assignment: MassAssignment::Cic,
            deconvolve: true,
            interlace: false,
        }
    }
}

impl GridConfig {
    /// The default configuration at a different mesh resolution.
    pub fn with_mesh(mesh: usize) -> Self {
        GridConfig {
            mesh,
            ..GridConfig::default()
        }
    }

    /// Largest accepted mesh side. Keeps `mesh³` well inside `u32`
    /// (cell indices are stored 32-bit) — and a single 1024³ complex
    /// field is already 16 GiB, so larger sides are out of reach
    /// memory-wise long before the index width matters.
    pub const MAX_MESH: usize = 1024;

    /// Validate invariants (called by the engine's config check and by
    /// [`accumulate_zeta_multipoles`]).
    pub fn validate(&self) -> Result<(), InvalidMesh> {
        let mesh = self.mesh;
        if mesh.is_power_of_two() && (2..=Self::MAX_MESH).contains(&mesh) {
            Ok(())
        } else {
            Err(InvalidMesh(mesh))
        }
    }
}

/// A [`GridConfig::mesh`] that is not a power of two in
/// `[2, GridConfig::MAX_MESH]`; it holds the refused side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvalidMesh(pub usize);

impl fmt::Display for InvalidMesh {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "grid mesh must be a power of two in [2, {}], got {}",
            GridConfig::MAX_MESH,
            self.0
        )
    }
}

impl std::error::Error for InvalidMesh {}

use galactos_obs::clock::Stages;
use galactos_obs::ObsSession;

// The estimator's `Stages` clock, lapped as each stage ends; it reads
// the clock only under an enabled session.
const PAINT: usize = 0;
const FIELDS: usize = 1;
const CONTRACT: usize = 2;
const SELFPAIR: usize = 3;

/// One cell of the radial-shell kernel support: flat mesh index, radial
/// bin, and the (rotated) unit separation direction.
struct ShellCell {
    idx: u32,
    bin: u16,
    u: [f64; 3],
}

/// `Y_ℓm(−û)` of every shell cell for `ℓ = m..=ℓmax`, cell-major
/// (`ℓmax + 1 − m` values per cell): the reflected kernel
/// `g(u) = K(−u)` of every `(ℓ, bin)` field of this `m`, one monomial
/// evaluation per cell. Each value is summed in [`YlmTable::terms`]
/// order from zero. Cells are independent, so the fixed-size parallel
/// chunks cannot change a float.
fn harmonic_table(
    shells: &[ShellCell],
    basis: &MonomialBasis,
    ylm: &YlmTable,
    m: usize,
    lmax: usize,
) -> Vec<Complex64> {
    const TABLE_CHUNK: usize = 256;
    let nl = lmax + 1 - m;
    let mut table = vec![Complex64::ZERO; shells.len() * nl];
    table
        .par_chunks_mut(TABLE_CHUNK * nl)
        .enumerate()
        .for_each(|(chunk, out)| {
            let mut vals = vec![0.0f64; basis.len()];
            let cells = &shells[chunk * TABLE_CHUNK..];
            for (cell, row) in cells.iter().zip(out.chunks_mut(nl)) {
                // Evaluate at −û (the reflection that turns the
                // cross-correlation into a plain convolution).
                basis.eval_into(-cell.u[0], -cell.u[1], -cell.u[2], &mut vals);
                for (l, y) in (m..=lmax).zip(row) {
                    for t in ylm.terms(l, m) {
                        *y += t.coeff * vals[t.monomial as usize];
                    }
                }
            }
        });
    table
}

/// Field pairs whose sums advance together through the occupied cells,
/// and the unit of work of the parallel contraction.
const COMBO_BLOCK: usize = 4;

/// `Σ_c w_c · f1_c · conj(f2_c)` for up to [`COMBO_BLOCK`] field pairs
/// `(f1, f2)`, all in one pass over the occupied cells: each pair's sum
/// runs in cell order from zero exactly as it would alone, but the
/// `2 · COMBO_BLOCK` add chains are independent, so the loop is bound
/// by throughput rather than by the latency of one addition.
fn contract_block(
    pairs: &[(u32, u32)],
    fields: &[(Vec<f64>, Vec<f64>)],
    wocc: &[f64],
    out: &mut [Complex64],
) {
    // A short last block repeats its first pair in the spare chains.
    let streams: [[&[f64]; 4]; COMBO_BLOCK] = std::array::from_fn(|o| {
        let (f1, f2) = pairs[if o < pairs.len() { o } else { 0 }];
        let ((a_re, a_im), (b_re, b_im)) = (&fields[f1 as usize], &fields[f2 as usize]);
        [a_re, a_im, b_re, b_im].map(|stream| &stream[..wocc.len()])
    });
    let mut acc = [[0.0f64; 2]; COMBO_BLOCK];
    for (c, &w) in wocc.iter().enumerate() {
        for (acc, [a_re, a_im, b_re, b_im]) in acc.iter_mut().zip(&streams) {
            // Same floats as `w · f1·conj(f2)` accumulated with complex
            // ops: the sign-flip identities `x − (−y) ≡ x + y` and
            // `(−p) + q ≡ q − p` are exact in IEEE arithmetic.
            let re_p = a_re[c] * b_re[c] + a_im[c] * b_im[c];
            let im_p = a_im[c] * b_re[c] - a_re[c] * b_im[c];
            acc[0] += w * re_p;
            acc[1] += w * im_p;
        }
    }
    for (slot, acc) in out.iter_mut().zip(acc) {
        *slot = Complex64::new(acc[0], acc[1]);
    }
}

/// Compute the anisotropic ζ multipole sums of a periodic catalog on a
/// mesh, streaming each `(ℓ, ℓ', m, b₁, b₂)` coefficient into `sink`
/// (every coefficient exactly once, `0 ≤ m ≤ min(ℓ, ℓ')`).
///
/// `rotation`, when given, carries separations into the frame whose
/// z-axis is the (uniform) line of sight — the same matrix the tree
/// engine applies per pair. `bin_of` maps a separation to its radial
/// bin with exactly the tree's binning semantics. When
/// `subtract_self_pairs` is set, the degenerate `j = k` contributions
/// to diagonal `(b, b)` entries are removed through a `w²`-painted mesh
/// and one extra pair of FFTs (the mesh analogue of the tree's
/// Legendre-sum correction; both contract the same Gaunt table).
///
/// Under an enabled `obs` the stage times are recorded as one `paint` /
/// `fields` / `contract` / `selfpair` aggregate each, under whatever
/// span the caller has open (tiling it from the first clock read to
/// the last; `selfpair` is 0 without subtraction), and the counter
/// `grid.fft3` counts the 3-D transforms run; a disabled session
/// performs **zero clock reads** (the same zero-cost contract as the
/// tree engine's stages) and the same arithmetic.
/// Panics if the catalog is not periodic.
#[allow(clippy::too_many_arguments, reason = "each input feeds one stage")]
pub fn accumulate_zeta_multipoles(
    catalog: &Catalog,
    cfg: &GridConfig,
    lmax: usize,
    nbins: usize,
    rotation: Option<Mat3>,
    bin_of: &(dyn Fn(f64) -> Option<usize> + Sync),
    subtract_self_pairs: bool,
    obs: &ObsSession,
    sink: &mut dyn FnMut(usize, usize, usize, usize, usize, Complex64),
) {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    let box_len = catalog
        .periodic
        .expect("the gridded estimator requires a periodic catalog");
    let n = cfg.mesh;
    let h = box_len / n as f64;
    let mut stages = Stages::<4>::start(obs.is_enabled());

    // Paint the catalog and transform the secondary-side density.
    let density = DensityMesh::paint(catalog, n, cfg.assignment, cfg.interlace);
    stages.lap(PAINT);

    let nhat = density.fourier(cfg.deconvolve);
    obs.registry.add("grid.fft3", density.fourier_transforms());

    // Primary side: the painted (real-space) field; only occupied cells
    // contribute to the ζ inner products. Indices and weights are kept
    // in separate arrays so the contraction below runs over flat f64
    // streams.
    let mut occupied: Vec<u32> = Vec::new();
    let mut wocc: Vec<f64> = Vec::new();
    for (i, &w) in density.data().iter().enumerate() {
        if w != 0.0 {
            occupied.push(i as u32);
            wocc.push(w);
        }
    }

    // Radial-shell support: every cell whose minimum-image displacement
    // from the origin lands in a bin, with its rotated unit direction.
    // Built one i-plane per task; the ordered reduction concatenates
    // planes in index order, so the table is identical to a serial scan.
    let shells: Vec<ShellCell> = (0..n)
        .into_par_iter()
        .map(|i| {
            let dx = signed_mode(i, n) as f64 * h;
            let mut plane_cells = Vec::new();
            for j in 0..n {
                let dy = signed_mode(j, n) as f64 * h;
                for k in 0..n {
                    let dz = signed_mode(k, n) as f64 * h;
                    let mut d = Vec3::new(dx, dy, dz);
                    if let Some(rot) = &rotation {
                        d = rot.mul_vec(d);
                    }
                    let r = d.norm();
                    if r == 0.0 {
                        continue; // zero separation: direction undefined
                    }
                    let Some(bin) = bin_of(r) else { continue };
                    plane_cells.push(ShellCell {
                        idx: ((i * n + j) * n + k) as u32,
                        bin: bin as u16,
                        u: [d.x / r, d.y / r, d.z / r],
                    });
                }
            }
            plane_cells
        })
        .reduce(Vec::new, |mut a, mut b| {
            a.append(&mut b);
            a
        });

    // Bucket the shell cells by radial bin once (as indices into
    // `shells`): each kernel field only touches the cells of its own
    // bin, so the per-field fill below never scans the other bins'
    // support.
    let mut cells_of_bin: Vec<Vec<u32>> = vec![Vec::new(); nbins];
    for (c, cell) in shells.iter().enumerate() {
        cells_of_bin[cell.bin as usize].push(c as u32);
    }

    let basis = MonomialBasis::new(lmax);
    let ylm = YlmTable::new(lmax, &basis);
    // Density FFT + shell table + harmonic tables count toward the
    // field stage.
    stages.lap(FIELDS);

    // Process one m at a time: the ζ couplings never mix different m,
    // so only the (ℓmax+1−m)·nbins fields of the current m need to be
    // resident at once — and each field task keeps only the
    // occupied-cell values of its mesh, which goes back to the pool, so
    // at most one mesh per worker thread is live beyond `nhat`.
    let pool: Mutex<Vec<Mesh3>> = Mutex::new(Vec::new());
    for m in 0..=lmax {
        let ls: Vec<usize> = (m..=lmax).collect();
        let nl = ls.len();
        let nfields = nl * nbins;
        let table = harmonic_table(&shells, &basis, &ylm, m, lmax);

        // One task per (ℓ, bin) field: copy the reflected kernel over
        // the bin's shell cells into a pooled (all-zero) mesh, convolve
        // with the density via two *serial* FFTs (the parallelism lives
        // at the field level; nested spawning would oversubscribe),
        // keep only the occupied-cell values as split re/im streams and
        // hand the mesh back cleared. Which mesh a task gets changes no
        // float. The ordered reduction concatenates fields in index
        // order.
        let build_field = |fi: usize| -> (Vec<f64>, Vec<f64>) {
            let (li, bin) = (fi / nbins, fi % nbins);
            let pooled = pool.lock().expect("no task panics at the pool").pop();
            let mut mesh = pooled.unwrap_or_else(|| Mesh3::zeros(n));
            let (re, im) = mesh.split_mut();
            for &c in &cells_of_bin[bin] {
                let (cell, y) = (shells[c as usize].idx, table[c as usize * nl + li]);
                (re[cell as usize], im[cell as usize]) = (y.re, y.im);
            }
            mesh.fft3_serial(Direction::Forward);
            mesh.pointwise_mul(&nhat);
            mesh.fft3_serial(Direction::Inverse);
            let (re, im) = mesh.split_mut();
            let field = (
                occupied.iter().map(|&c| re[c as usize]).collect(),
                occupied.iter().map(|&c| im[c as usize]).collect(),
            );
            re.fill(0.0);
            im.fill(0.0);
            pool.lock().expect("no task panics at the pool").push(mesh);
            field
        };
        let fields: Vec<(Vec<f64>, Vec<f64>)> = (0..nfields)
            .into_par_iter()
            .map(|fi| vec![build_field(fi)])
            .reduce(Vec::new, |mut a, mut b| {
                a.append(&mut b);
                a
            });
        obs.registry.add("grid.fft3", 2 * nfields as u64);
        stages.lap(FIELDS);

        // ζ^m_{ℓℓ'}(b₁,b₂) = Σ_occupied n(x)·A_ℓm,b₁(x)·conj(A_ℓ'm,b₂(x)).
        // The cell weight is real, so swapping the two fields conjugates
        // the sum (term by term, bit-exactly): only the nf·(nf+1)/2
        // upper-triangle pairs in the flat field index are dispatched —
        // in real blocks, not one-combo chunks, and with no no-op mirror
        // tasks — then mirrors are filled by conjugation.
        let tri: Vec<(u32, u32)> = (0..nfields as u32)
            .flat_map(|f1| (f1..nfields as u32).map(move |f2| (f1, f2)))
            .collect();
        let mut upper = vec![Complex64::ZERO; tri.len()];
        upper
            .par_chunks_mut(COMBO_BLOCK)
            .enumerate()
            .for_each(|(blk, out)| {
                let pairs = &tri[blk * COMBO_BLOCK..][..out.len()];
                contract_block(pairs, &fields, &wocc, out);
            });
        // Triangular index of the ordered pair f1 ≤ f2 (row f1 starts
        // after Σ_{r<f1} (nfields − r) entries).
        let tidx = |f1: usize, f2: usize| f1 * (2 * nfields - f1 + 1) / 2 + (f2 - f1);
        for combo in 0..nfields * nfields {
            let b2 = combo % nbins;
            let rest = combo / nbins;
            let b1 = rest % nbins;
            let rest = rest / nbins;
            let (li, lj) = (rest / nl, rest % nl);
            let (f1, f2) = (li * nbins + b1, lj * nbins + b2);
            let value = if f1 <= f2 {
                upper[tidx(f1, f2)]
            } else {
                upper[tidx(f2, f1)].conj()
            };
            sink(ls[li], ls[lj], m, b1, b2, value);
        }
        stages.lap(CONTRACT);
    }
    if subtract_self_pairs {
        let ffts = subtract_self_pair_terms(catalog, cfg, lmax, nbins, &density, &shells, sink);
        obs.registry.add("grid.fft3", ffts);
        stages.lap(SELFPAIR);
    }
    let names = ["paint", "fields", "contract", "selfpair"].map(|s| (s, 1));
    stages.emit(&obs.tracer, names);
}

/// Remove the degenerate `j = k` terms from diagonal `(b, b)` entries.
///
/// The tree engine subtracts, per primary `i` and diagonal bin `b`,
/// `Σ_j w_j² Y_ℓm(û_ij) conj(Y_ℓ'm(û_ij)) Θ_b(r_ij)`. On the mesh that
/// is `Σ_u P_{ℓℓ'm}(u)·Θ_b(|u|)·R(u)` with the pair correlation
/// `R(u) = Σ_x n(x)·n₂(x+u)` of the weight mesh against a `w²`-painted
/// mesh — a single FFT cross-correlation. The harmonic product depends
/// on `u` only through `μ = û·ẑ`, so each bin needs just the `2ℓmax+1`
/// sums `S_L(b) = Σ_u R(u) Θ_b(|u|) P_L(μ)`, contracted with the shared
/// [`SelfPairTable`] exactly like the tree's correction. Returns the
/// number of 3-D transforms it ran.
fn subtract_self_pair_terms(
    catalog: &Catalog,
    cfg: &GridConfig,
    lmax: usize,
    nbins: usize,
    density: &DensityMesh,
    shells: &[ShellCell],
    sink: &mut dyn FnMut(usize, usize, usize, usize, usize, Complex64),
) -> u64 {
    let n = cfg.mesh;
    let sq = DensityMesh::paint_with(catalog, n, cfg.assignment, cfg.interlace, |g| {
        g.weight * g.weight
    });
    // R = IFFT(conj(n̂_painted) ⊙ n̂₂): primary side plain (matching the
    // real-space weighting of the main term), secondary side through
    // the same deconvolution/interlacing path as the main convolutions.
    let mut corr = Mesh3::forward_real(n, density.data());
    corr.pointwise_conj_mul(&sq.fourier(cfg.deconvolve));
    let r_u = corr.inverse_real();

    let table = SelfPairTable::new(lmax);
    let nsums = table.num_sums();
    // Per-bin Legendre sums, accumulated in fixed-size shell chunks and
    // merged in chunk order — the decomposition does not depend on the
    // thread count, so the result is bit-stable across pool sizes.
    const SELF_CHUNK: usize = 4096;
    let r_u_ref = &r_u;
    let sums: Vec<f64> = shells
        .par_chunks(SELF_CHUNK)
        .map(|chunk| {
            let mut local = vec![0.0f64; nbins * nsums];
            let mut legendre = vec![0.0f64; nsums];
            for cell in chunk {
                let w = r_u_ref[cell.idx as usize];
                if w == 0.0 {
                    continue;
                }
                // The pair direction is the *unreflected* û (primary at
                // x, secondary at x + u).
                let b = cell.bin as usize;
                let sums = &mut local[b * nsums..(b + 1) * nsums];
                table.accumulate(cell.u[2], w, &mut legendre, sums);
            }
            local
        })
        .reduce(
            || vec![0.0f64; nbins * nsums],
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b.iter()) {
                    *x += *y;
                }
                a
            },
        );
    for (b, s) in sums.chunks_exact(nsums).enumerate() {
        for block in table.blocks() {
            // The product is real, so (ℓ', ℓ, m) takes the same value.
            let v = Complex64::real(-block.contract(s));
            sink(block.l, block.lp, block.m, b, b, v);
            if block.l != block.lp {
                sink(block.lp, block.l, block.m, b, b, v);
            }
        }
    }
    // The weight mesh forward, the w²-painted spectrum, the inverse.
    2 + sq.fourier_transforms()
}

#[cfg(test)]
mod tests {
    use super::*;
    use galactos_catalog::Galaxy;
    use galactos_math::sphharm::ylm_cartesian;

    /// Brute-force mesh-level oracle: paint with NGP, enumerate all
    /// occupied-cell pairs directly, and accumulate the same sums the
    /// FFT path is supposed to produce.
    #[allow(
        clippy::too_many_arguments,
        reason = "the oracle takes the inputs of the estimator it checks"
    )]
    fn brute_force_mesh_zeta(
        catalog: &Catalog,
        mesh: usize,
        bin_of: &dyn Fn(f64) -> Option<usize>,
        l: usize,
        lp: usize,
        m: usize,
        b1: usize,
        b2: usize,
    ) -> Complex64 {
        let box_len = catalog.periodic.unwrap();
        let n = mesh;
        let h = box_len / n as f64;
        let density = DensityMesh::paint(catalog, n, MassAssignment::Ngp, false);
        let data = density.data();
        let min_image = |a: usize, b: usize| -> f64 {
            let mut d = b as f64 - a as f64;
            if d > n as f64 / 2.0 {
                d -= n as f64;
            }
            if d < -(n as f64) / 2.0 {
                d += n as f64;
            }
            d * h
        };
        let alm = |x: (usize, usize, usize), l: usize, m: usize, bin: usize| -> Complex64 {
            let mut acc = Complex64::ZERO;
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        let w = data[(i * n + j) * n + k];
                        if w == 0.0 {
                            continue;
                        }
                        let d = Vec3::new(min_image(x.0, i), min_image(x.1, j), min_image(x.2, k));
                        let r = d.norm();
                        if r == 0.0 {
                            continue;
                        }
                        if bin_of(r) != Some(bin) {
                            continue;
                        }
                        acc += w * ylm_cartesian(l, m as i64, d);
                    }
                }
            }
            acc
        };
        let mut zeta = Complex64::ZERO;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let w = data[(i * n + j) * n + k];
                    if w == 0.0 {
                        continue;
                    }
                    zeta += w * (alm((i, j, k), l, m, b1) * alm((i, j, k), lp, m, b2).conj());
                }
            }
        }
        zeta
    }

    #[test]
    fn blocked_contraction_equals_the_one_pair_loop_bit_for_bit() {
        // Seven fields give 28 upper-triangle pairs in blocks of four,
        // five fields give 15 and a last block of three: every sum must
        // carry exactly the bits of a loop that runs one pair at a
        // time.
        let nocc = 37;
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        let wocc: Vec<f64> = (0..nocc).map(|_| 1.5 + next()).collect();
        for nfields in [7u32, 5] {
            let fields: Vec<(Vec<f64>, Vec<f64>)> = (0..nfields)
                .map(|_| {
                    (
                        (0..nocc).map(|_| next()).collect(),
                        (0..nocc).map(|_| next()).collect(),
                    )
                })
                .collect();
            let tri: Vec<(u32, u32)> = (0..nfields)
                .flat_map(|f1| (f1..nfields).map(move |f2| (f1, f2)))
                .collect();
            let mut upper = vec![Complex64::ZERO; tri.len()];
            for (pairs, out) in tri.chunks(COMBO_BLOCK).zip(upper.chunks_mut(COMBO_BLOCK)) {
                contract_block(pairs, &fields, &wocc, out);
            }
            for (&(f1, f2), got) in tri.iter().zip(&upper) {
                let ((a_re, a_im), (b_re, b_im)) = (&fields[f1 as usize], &fields[f2 as usize]);
                let (mut acc_re, mut acc_im) = (0.0f64, 0.0f64);
                for c in 0..nocc {
                    let re_p = a_re[c] * b_re[c] + a_im[c] * b_im[c];
                    let im_p = a_im[c] * b_re[c] - a_re[c] * b_im[c];
                    acc_re += wocc[c] * re_p;
                    acc_im += wocc[c] * im_p;
                }
                assert_eq!(
                    got.re.to_bits(),
                    acc_re.to_bits(),
                    "({f1}, {f2}) of {nfields}"
                );
                assert_eq!(
                    got.im.to_bits(),
                    acc_im.to_bits(),
                    "({f1}, {f2}) of {nfields}"
                );
            }
        }
    }

    #[test]
    fn fft_path_matches_brute_force_mesh_sums() {
        // Small periodic catalog, NGP, no deconvolution: the FFT shell
        // convolutions must reproduce the directly enumerated mesh
        // pair sums to round-off — this pins the kernel reflection, the
        // convolution normalization and the occupied-cell inner product
        // all at once.
        let l_box = 8.0;
        let positions = [
            (0.6, 1.1, 7.3, 1.0),
            (3.2, 4.9, 0.4, 2.0),
            (5.5, 2.2, 6.1, 0.5),
            (7.9, 7.9, 0.1, 1.0),
            (2.0, 6.5, 3.3, 1.5),
        ];
        let cat = Catalog::new_periodic(
            positions
                .iter()
                .map(|&(x, y, z, w)| Galaxy::new(Vec3::new(x, y, z), w))
                .collect(),
            l_box,
        );
        let lmax = 2;
        let nbins = 2;
        let rmax = 3.5;
        let bin_of = move |r: f64| -> Option<usize> {
            (r < rmax).then(|| ((r / rmax * nbins as f64) as usize).min(nbins - 1))
        };
        let cfg = GridConfig {
            mesh: 8,
            assignment: MassAssignment::Ngp,
            deconvolve: false,
            interlace: false,
        };
        let mut got = std::collections::HashMap::new();
        accumulate_zeta_multipoles(
            &cat,
            &cfg,
            lmax,
            nbins,
            None,
            &bin_of,
            false,
            &ObsSession::disabled(),
            &mut |l, lp, m, b1, b2, v| {
                got.insert((l, lp, m, b1, b2), v);
            },
        );
        for (l, lp, m, b1, b2) in [
            (0, 0, 0, 0, 0),
            (0, 0, 0, 0, 1),
            (1, 1, 0, 1, 1),
            (1, 1, 1, 0, 1),
            (2, 1, 1, 1, 0),
            (2, 2, 2, 1, 1),
        ] {
            let want = brute_force_mesh_zeta(&cat, 8, &bin_of, l, lp, m, b1, b2);
            let v = got[&(l, lp, m, b1, b2)];
            assert!(
                v.dist_inf(want) < 1e-9 * (1.0 + want.abs()),
                "({l},{lp},{m},{b1},{b2}): {v} vs {want}"
            );
        }
    }

    #[test]
    fn self_pair_subtraction_cancels_single_galaxy_pairs() {
        // Two galaxies: each primary sees exactly one secondary, so on
        // a diagonal bin the ζ product is entirely the degenerate j = k
        // term and the corrected diagonal must vanish (NGP, exact on
        // the mesh).
        let l_box = 8.0;
        let cat = Catalog::new_periodic(
            vec![
                Galaxy::new(Vec3::new(1.5, 1.5, 1.5), 1.0),
                Galaxy::new(Vec3::new(3.5, 1.5, 1.5), 1.0),
            ],
            l_box,
        );
        let nbins = 2;
        let rmax = 3.9;
        let bin_of = move |r: f64| -> Option<usize> {
            (r < rmax).then(|| ((r / rmax * nbins as f64) as usize).min(nbins - 1))
        };
        let cfg = GridConfig {
            mesh: 8,
            assignment: MassAssignment::Ngp,
            deconvolve: false,
            interlace: false,
        };
        let mut corrected = std::collections::HashMap::new();
        accumulate_zeta_multipoles(
            &cat,
            &cfg,
            2,
            nbins,
            None,
            &bin_of,
            true,
            &ObsSession::disabled(),
            &mut |l, lp, m, b1, b2, v| {
                *corrected
                    .entry((l, lp, m, b1, b2))
                    .or_insert(Complex64::ZERO) += v;
            },
        );
        for (&(l, lp, m, b1, b2), &v) in &corrected {
            if b1 == b2 {
                assert!(
                    v.abs() < 1e-9,
                    "diagonal ({l},{lp},{m},{b1},{b2}) not cancelled: {v}"
                );
            }
        }
        // Sanity: the uncorrected run is NOT zero on the populated
        // diagonal (the subtraction actually did something).
        let mut raw = Complex64::ZERO;
        accumulate_zeta_multipoles(
            &cat,
            &cfg,
            2,
            nbins,
            None,
            &bin_of,
            false,
            &ObsSession::disabled(),
            &mut |l, lp, m, b1, b2, v| {
                if (l, lp, m, b1, b2) == (0, 0, 0, 1, 1) {
                    raw = v;
                }
            },
        );
        assert!(raw.abs() > 1e-6, "expected a non-trivial raw diagonal");
    }

    #[test]
    fn rotation_matches_rotating_the_catalog_frame() {
        // ζ with a rotated line of sight equals ζ of the unrotated run
        // only when the rotation is the identity; here we just pin that
        // passing a rotation is equivalent to applying it to every
        // shell direction — via the m = 0, ℓ = 1 coefficient, which is
        // ∝ Σ ẑ·û and flips sign under a 180° rotation about x.
        let l_box = 8.0;
        // Unequal weights so the two primaries' dipole contributions
        // (secondary at +ẑ vs −ẑ) do not cancel.
        let cat = Catalog::new_periodic(
            vec![
                Galaxy::new(Vec3::new(4.0, 4.0, 1.0), 1.0),
                Galaxy::new(Vec3::new(4.0, 4.0, 3.0), 2.0),
            ],
            l_box,
        );
        let bin_of = |r: f64| -> Option<usize> { (r < 3.0).then_some(0) };
        let cfg = GridConfig {
            mesh: 16,
            assignment: MassAssignment::Ngp,
            deconvolve: false,
            interlace: false,
        };
        let mut plain = Complex64::ZERO;
        let mut flipped = Complex64::ZERO;
        let flip = Mat3::rotation_about(Vec3::X, std::f64::consts::PI);
        for (rot, out) in [(None, &mut plain), (Some(flip), &mut flipped)] {
            accumulate_zeta_multipoles(
                &cat,
                &cfg,
                1,
                1,
                rot,
                &bin_of,
                false,
                &ObsSession::disabled(),
                &mut |l, lp, m, _, _, v| {
                    if (l, lp, m) == (1, 0, 0) {
                        *out = v;
                    }
                },
            );
        }
        assert!(plain.abs() > 1e-9, "expected dipole signal");
        assert!(
            (plain + flipped).abs() < 1e-9 * plain.abs(),
            "{plain} vs {flipped}"
        );
    }

    #[test]
    fn uninstrumented_run_takes_no_timings_and_same_values() {
        // Under a disabled session nothing is recorded, and every
        // streamed coefficient is bit-identical to the observed run. That
        // no clock is read is held by `core/tests/zero_clock.rs`, in a
        // test binary of its own: the count is process-wide, so another
        // test of this binary that observes a run would move it.
        let l_box = 8.0;
        let cat = Catalog::new_periodic(
            vec![
                Galaxy::new(Vec3::new(1.5, 2.5, 1.5), 1.0),
                Galaxy::new(Vec3::new(3.5, 1.5, 6.5), 2.0),
                Galaxy::new(Vec3::new(6.0, 4.0, 2.0), 0.5),
            ],
            l_box,
        );
        let nbins = 2;
        let rmax = 3.9;
        let bin_of = move |r: f64| -> Option<usize> {
            (r < rmax).then(|| ((r / rmax * nbins as f64) as usize).min(nbins - 1))
        };
        let cfg = GridConfig {
            mesh: 8,
            assignment: MassAssignment::Ngp,
            deconvolve: false,
            interlace: false,
        };
        let run = |obs: &ObsSession| {
            let mut coeffs = Vec::new();
            accumulate_zeta_multipoles(
                &cat,
                &cfg,
                2,
                nbins,
                None,
                &bin_of,
                true,
                obs,
                &mut |l, lp, m, b1, b2, v| coeffs.push((l, lp, m, b1, b2, v.re, v.im)),
            );
            coeffs
        };
        let cold = ObsSession::disabled();
        let plain = run(&cold);
        assert!(cold.tracer.finished().is_empty());

        let timed = ObsSession::enabled();
        let observed = {
            let _g = timed.tracer.span("grid");
            run(&timed)
        };
        let spans = timed.tracer.finished();
        for stage in ["paint", "fields", "contract", "selfpair"] {
            let hits: Vec<_> = spans.iter().filter(|s| s.name == stage).collect();
            assert_eq!(hits.len(), 1, "one {stage} aggregate per call");
            assert_eq!(hits[0].path, format!("grid/{stage}"));
            assert!(hits[0].end_nanos > hits[0].start_nanos, "{stage} took time");
        }
        assert_eq!(plain, observed, "values must not depend on observation");
    }
}
