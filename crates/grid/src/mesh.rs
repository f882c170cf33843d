//! Painted density meshes: a catalog's weights deposited onto a
//! power-of-two periodic mesh, with optional interlacing and window
//! deconvolution on the way to Fourier space.

use crate::assign::MassAssignment;
use galactos_catalog::{Catalog, Galaxy};
use galactos_math::fft::{signed_mode, Mesh3};
use galactos_math::Complex64;
use rayon::prelude::*;

/// A real-valued weight field on an `n³` periodic mesh (row-major,
/// [`Mesh3`] layout), painted from a catalog with one of the
/// [`MassAssignment`] schemes.
///
/// When interlacing is enabled a second painting, with every particle
/// coordinate shifted by half a cell along each axis, is kept
/// alongside; `DensityMesh::fourier` combines the two with the
/// half-cell phase factor, cancelling the leading (odd-image) aliasing
/// contributions of the assignment window.
#[derive(Clone, Debug)]
pub struct DensityMesh {
    n: usize,
    assignment: MassAssignment,
    data: Vec<f64>,
    /// Half-cell-shifted painting (present only when interlacing).
    shifted: Option<Vec<f64>>,
}

impl DensityMesh {
    /// Paint `catalog` (which must be periodic) onto an `n³` mesh using
    /// each galaxy's weight.
    pub fn paint(catalog: &Catalog, n: usize, assignment: MassAssignment, interlace: bool) -> Self {
        Self::paint_with(catalog, n, assignment, interlace, |g| g.weight)
    }

    /// Paint with an arbitrary per-galaxy weight (the self-pair
    /// correction paints `w²` through the same deposit path).
    ///
    /// Painting is parallelized by *slab ownership*: the mesh is split
    /// into contiguous blocks of x-planes, and every worker scans the
    /// whole catalog but deposits only into cells its slab owns. Each
    /// cell is therefore accumulated in catalog order by exactly one
    /// thread, making the result bit-identical to a serial painting
    /// for every thread count and slab size.
    pub fn paint_with(
        catalog: &Catalog,
        n: usize,
        assignment: MassAssignment,
        interlace: bool,
        weight: impl Fn(&Galaxy) -> f64 + Sync,
    ) -> Self {
        let box_len = catalog
            .periodic
            .expect("mass assignment requires a periodic catalog");
        assert!(
            n.is_power_of_two() && n >= 2,
            "mesh side must be a power of two >= 2, got {n}"
        );
        let inv_h = n as f64 / box_len;
        let planes_per_slab = n.div_ceil(rayon::current_num_threads()).max(1);
        let slab_cells = planes_per_slab * n * n;
        let galaxies = &catalog.galaxies;
        let weight = &weight;
        let paint_field = |shift: f64| {
            let mut field = vec![0.0f64; n * n * n];
            field
                .par_chunks_mut(slab_cells)
                .enumerate()
                .for_each(|(s, slab)| {
                    let i0 = s * planes_per_slab;
                    for g in galaxies {
                        deposit_slab(slab, i0, n, assignment, g.pos, inv_h, shift, weight(g));
                    }
                });
            field
        };
        let data = paint_field(0.0);
        let shifted = interlace.then(|| paint_field(0.5));
        DensityMesh {
            n,
            assignment,
            data,
            shifted,
        }
    }

    /// The painted (unshifted) weight field.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// The half-cell-shifted painting, when interlacing was requested.
    #[inline]
    // lint:allow(W-DEADPUB): oracle for the interlaced painting's bits, compared across pools by grid/tests/thread_invariance.rs
    pub fn shifted_data(&self) -> Option<&[f64]> {
        self.shifted.as_deref()
    }

    /// Sum of the painted field (= the catalog's total weight, up to
    /// floating-point reassociation of the deposits).
    pub fn total_weight(&self) -> f64 {
        self.data.iter().sum()
    }

    /// The 3-D transforms [`DensityMesh::fourier`] runs: one per
    /// painting.
    pub(crate) fn fourier_transforms(&self) -> u64 {
        1 + u64::from(self.shifted.is_some())
    }

    /// Forward-transform the painted field, combining the interlaced
    /// painting (when present) with the half-cell phase
    /// `e^{iπ(m_x+m_y+m_z)/n}` and optionally dividing out the
    /// assignment window `W(k)` ([`MassAssignment::fourier_window`]).
    pub(crate) fn fourier(&self, deconvolve: bool) -> Mesh3 {
        let n = self.n;
        let mut mesh = Mesh3::forward_real(n, &self.data);
        if let Some(sh) = &self.shifted {
            let second = Mesh3::forward_real(n, sh);
            let (second_re, second_im) = second.split();
            // Cell-wise combine: parallel over i-planes (no reduction,
            // so trivially thread-count invariant).
            mesh.par_planes_mut(|i, re, im| {
                let mi = signed_mode(i, n);
                for j in 0..n {
                    let mj = signed_mode(j, n);
                    for k in 0..n {
                        let mk = signed_mode(k, n);
                        // The second painting sampled every particle
                        // at x + H/2 per axis, so its ideal modes
                        // carry e^{−ik·s}; multiplying by e^{+ik·s}
                        // realigns them while flipping the sign of
                        // the odd alias images, which then cancel in
                        // the average.
                        let phase = std::f64::consts::PI * (mi + mj + mk) as f64 / n as f64;
                        let idx = j * n + k;
                        let gidx = (i * n + j) * n + k;
                        let first = Complex64::new(re[idx], im[idx]);
                        let second = Complex64::new(second_re[gidx], second_im[gidx]);
                        let v = 0.5 * (first + Complex64::cis(phase) * second);
                        (re[idx], im[idx]) = (v.re, v.im);
                    }
                }
            });
        }
        if deconvolve {
            let a = self.assignment;
            // Per-axis windows are separable; precompute one axis.
            let win: Vec<f64> = (0..n)
                .map(|i| a.fourier_window(signed_mode(i, n), n))
                .collect();
            let win = &win;
            mesh.par_planes_mut(|i, re, im| {
                for half in [re, im] {
                    for (j, line) in half.chunks_mut(n).enumerate() {
                        let wij = win[i] * win[j];
                        for (v, wk) in line.iter_mut().zip(win.iter()) {
                            *v *= 1.0 / (wij * wk);
                        }
                    }
                }
            });
        }
        mesh
    }
}

/// Deposit weight `w` for a particle at `pos` into `slab`, the block of
/// x-planes `[i0, i0 + slab.len()/n²)` of an `n³` mesh, with the
/// particle coordinate shifted by `shift` cells per axis (0 for the
/// primary painting, ½ for the interlaced one). Contributions to
/// planes outside the slab are dropped — the slab-ownership rule of
/// [`DensityMesh::paint_with`]. The weight products are formed exactly
/// as in a whole-mesh deposit, so restricting to a slab changes no
/// float.
#[allow(
    clippy::too_many_arguments,
    reason = "the slab, its placement and the shifted particle are one deposit"
)]
fn deposit_slab(
    slab: &mut [f64],
    i0: usize,
    n: usize,
    assignment: MassAssignment,
    pos: galactos_math::Vec3,
    inv_h: f64,
    shift: f64,
    w: f64,
) {
    let nplanes = slab.len() / (n * n);
    // Position in cell units relative to the center of cell 0.
    let gx = pos.x * inv_h - 0.5 + shift;
    let (ci, wi, ni) = assignment.axis_weights(gx, n);
    // Cheap ownership pre-check before touching the other axes: most
    // galaxies deposit nowhere near a given slab.
    if !(0..ni).any(|a| (i0..i0 + nplanes).contains(&ci[a])) {
        return;
    }
    let gy = pos.y * inv_h - 0.5 + shift;
    let gz = pos.z * inv_h - 0.5 + shift;
    let (cj, wj, nj) = assignment.axis_weights(gy, n);
    let (ck, wk, nk) = assignment.axis_weights(gz, n);
    for a in 0..ni {
        if !(i0..i0 + nplanes).contains(&ci[a]) {
            continue;
        }
        let base_i = (ci[a] - i0) * n;
        for b in 0..nj {
            let base_ij = (base_i + cj[b]) * n;
            let wab = w * wi[a] * wj[b];
            for c in 0..nk {
                slab[base_ij + ck[c]] += wab * wk[c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galactos_math::Vec3;

    fn one_particle(pos: Vec3, weight: f64, box_len: f64) -> Catalog {
        Catalog::new_periodic(vec![Galaxy::new(pos, weight)], box_len)
    }

    #[test]
    fn ngp_puts_weight_in_containing_cell() {
        let cat = one_particle(Vec3::new(3.7, 0.1, 9.9), 2.0, 10.0);
        let mesh = DensityMesh::paint(&cat, 8, MassAssignment::Ngp, false);
        // H = 1.25: cells (2, 0, 7).
        let idx = (2 * 8) * 8 + 7;
        assert_eq!(mesh.data()[idx], 2.0);
        assert_eq!(mesh.total_weight(), 2.0);
    }

    #[test]
    fn cic_wraps_across_the_box_face() {
        // A particle at L − ε sits above the last cell center, so CIC
        // must split its weight between cell n−1 and (wrapped) cell 0.
        let l = 10.0;
        let cat = one_particle(Vec3::new(l - 1e-6, 0.625, 0.625), 1.0, l);
        let mesh = DensityMesh::paint(&cat, 8, MassAssignment::Cic, false);
        // y and z sit exactly on the cell-0 center, so only x spreads.
        let at = |i: usize| mesh.data()[(i * 8) * 8];
        assert!(at(0) > 0.49 && at(0) < 0.51, "wrapped share {}", at(0));
        assert!(at(7) > 0.49 && at(7) < 0.51);
        assert!((mesh.total_weight() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cic_spreads_over_eight_cells_and_conserves_weight() {
        // Coordinates chosen off every cell center and edge so both
        // per-axis weights are strictly positive.
        let cat = one_particle(Vec3::new(3.3, 5.2, 4.8), 1.5, 10.0);
        let mesh = DensityMesh::paint(&cat, 8, MassAssignment::Cic, false);
        let occupied = mesh.data().iter().filter(|&&v| v != 0.0).count();
        assert_eq!(occupied, 8);
        assert!((mesh.total_weight() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn fourier_dc_mode_is_total_weight() {
        let cat = Catalog::new_periodic(
            vec![
                Galaxy::new(Vec3::new(1.0, 2.0, 3.0), 1.0),
                Galaxy::new(Vec3::new(7.0, 6.0, 5.0), 2.5),
            ],
            10.0,
        );
        for assignment in MassAssignment::ALL {
            for interlace in [false, true] {
                let mesh = DensityMesh::paint(&cat, 8, assignment, interlace);
                for deconvolve in [false, true] {
                    let f = mesh.fourier(deconvolve);
                    // W(0) = 1 and the interlacing phase is 1 at DC, so
                    // every path preserves the total weight there.
                    assert!(
                        f.get(0, 0, 0).dist_inf(Complex64::real(3.5)) < 1e-12,
                        "{assignment} interlace={interlace} deconvolve={deconvolve}"
                    );
                }
            }
        }
    }

    #[test]
    fn deconvolved_modes_approach_ideal_point_transform() {
        // One unit particle at x₀. Mesh index i stands for position
        // i·H while cells are centered at (i+½)·H, so the painted
        // field is the ideal point field translated by −H/2 per axis:
        // the ideal modes are e^{−ik·(x₀ − H/2·𝟙)} (a uniform
        // translation, which cancels in all pair separations and hence
        // in ζ). Painting suppresses high-k modes by the window;
        // deconvolution must bring them back close to the ideal phase,
        // and interlacing must shrink the residual alias error at a
        // mid-k mode further.
        let n = 16usize;
        let l = 10.0;
        let x0 = Vec3::new(3.241, 7.113, 1.937);
        let cat = one_particle(x0, 1.0, l);
        // Sum |mode − ideal| over a band of low/mid-k modes (summing
        // makes the comparison robust: interlacing cancels the odd
        // alias images on average, not necessarily mode by mode).
        let probes: Vec<(usize, usize, usize)> = vec![
            (1, 0, 0),
            (0, 2, 1),
            (2, 1, 3),
            (3, 3, 0),
            (4, 2, 5),
            (1, 5, 2),
        ];
        let total_err = |deconvolve: bool, interlace: bool| -> f64 {
            let mesh = DensityMesh::paint(&cat, n, MassAssignment::Cic, interlace);
            let f = mesh.fourier(deconvolve);
            let kf = 2.0 * std::f64::consts::PI / l;
            let half = l / n as f64 / 2.0;
            probes
                .iter()
                .map(|&(i, j, k)| {
                    let (mi, mj, mk) = (
                        signed_mode(i, n) as f64,
                        signed_mode(j, n) as f64,
                        signed_mode(k, n) as f64,
                    );
                    let ideal = Complex64::cis(
                        -kf * (mi * (x0.x - half) + mj * (x0.y - half) + mk * (x0.z - half)),
                    );
                    f.get(i, j, k).dist_inf(ideal)
                })
                .sum()
        };
        let raw = total_err(false, false);
        let deconv = total_err(true, false);
        let both = total_err(true, true);
        assert!(
            deconv < raw,
            "deconvolution should reduce the window bias: {deconv} vs {raw}"
        );
        assert!(
            both < deconv,
            "interlacing should reduce the alias residual: {both} vs {deconv}"
        );
        assert!(
            both < 0.1 * probes.len() as f64,
            "residual too large: {both}"
        );
    }

    #[test]
    #[should_panic(expected = "periodic")]
    fn painting_rejects_open_catalogs() {
        let cat = Catalog::new(vec![Galaxy::unit(Vec3::new(1.0, 1.0, 1.0))]);
        DensityMesh::paint(&cat, 8, MassAssignment::Cic, false);
    }
}
