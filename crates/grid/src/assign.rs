//! Periodic mass-assignment schemes: NGP and CIC.
//!
//! A particle at position `x` in a periodic box of side `L` deposits
//! its weight onto a mesh of `n³` cells of side `H = L/n` whose centers
//! sit at `(i + ½)·H` (the same convention as the mocks' CIC sampler).
//! The two schemes are the first two orders of the B-spline family:
//! nearest grid point (order 1, one cell) and cloud in cell (order 2,
//! 2³ cells, trilinear). Both conserve the particle's total weight
//! exactly (per-axis weights sum to 1 by construction) and wrap
//! periodically, so a particle at `L − ε` contributes to cell 0. The
//! order-3 triangular shaped cloud is not offered: its 3³ cells per
//! galaxy made every TSC painting measured against the tree both
//! slower and less accurate than some NGP or CIC painting.
//!
//! In Fourier space each scheme multiplies the true density modes by
//! the window `W(k) = Π_a sinc(π m_a / n)^p` (`p` = the order,
//! `m_a` = the signed mode index); `MassAssignment::fourier_window`
//! evaluates it so the estimator can optionally deconvolve.

use std::fmt;

/// The mass-assignment scheme painting particles onto the mesh.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MassAssignment {
    /// Nearest grid point: all weight into the containing cell.
    Ngp,
    /// Cloud in cell: trilinear weights over the 2³ nearest cells.
    #[default]
    Cic,
}

/// Maximum number of cells per axis any scheme touches.
pub const MAX_SUPPORT: usize = 2;

impl MassAssignment {
    /// Every scheme, lowest order first.
    pub const ALL: [MassAssignment; 2] = [MassAssignment::Ngp, MassAssignment::Cic];

    /// Stable lowercase name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            MassAssignment::Ngp => "ngp",
            MassAssignment::Cic => "cic",
        }
    }

    /// B-spline order `p`: the exponent of the per-axis `sinc` window.
    pub(crate) fn order(self) -> u32 {
        match self {
            MassAssignment::Ngp => 1,
            MassAssignment::Cic => 2,
        }
    }

    /// Per-axis deposit: cell indices (wrapped into `0..n`) and weights
    /// for a particle at `g` cells from the center of cell 0 (i.e.
    /// `g = x/H − ½`). Returns the cell/weight pairs and their count;
    /// the weights always sum to exactly 1 in real arithmetic.
    #[inline]
    pub(crate) fn axis_weights(
        self,
        g: f64,
        n: usize,
    ) -> ([usize; MAX_SUPPORT], [f64; MAX_SUPPORT], usize) {
        let n_i = n as i64;
        let wrap = |i: i64| i.rem_euclid(n_i) as usize;
        match self {
            MassAssignment::Ngp => {
                // Nearest center = the cell containing the particle.
                let i = (g + 0.5).floor() as i64;
                ([wrap(i), 0], [1.0, 0.0], 1)
            }
            MassAssignment::Cic => {
                let i0 = g.floor() as i64;
                let f = g - g.floor();
                ([wrap(i0), wrap(i0 + 1)], [1.0 - f, f], 2)
            }
        }
    }

    /// The per-axis Fourier window `sinc(π·m/n)^p` for signed mode `m`
    /// on an `n`-cell axis (`sinc(0) = 1`; the window never vanishes on
    /// the grid, so deconvolution — dividing the density modes by the
    /// product over axes — is always well defined).
    #[inline]
    pub(crate) fn fourier_window(self, m: i64, n: usize) -> f64 {
        if m == 0 {
            return 1.0;
        }
        let x = std::f64::consts::PI * m as f64 / n as f64;
        (x.sin() / x).powi(self.order() as i32)
    }
}

impl fmt::Display for MassAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_the_name_and_cic_is_the_default() {
        for a in MassAssignment::ALL {
            assert_eq!(format!("{a}"), a.name());
        }
        assert_eq!(MassAssignment::default(), MassAssignment::Cic);
    }

    #[test]
    fn axis_weights_sum_to_one_and_wrap() {
        let n = 8;
        for a in MassAssignment::ALL {
            for &g in &[0.0, 0.49, 3.2, 6.999, 7.5, -0.3] {
                let (cells, weights, count) = a.axis_weights(g, n);
                let sum: f64 = weights[..count].iter().sum();
                assert!((sum - 1.0).abs() < 1e-15, "{a} g={g}: sum {sum}");
                for &c in &cells[..count] {
                    assert!(c < n, "{a} g={g}: cell {c}");
                }
            }
        }
        // A particle just inside the upper box face (g ≈ n − 0.5 − ε)
        // must spread onto cell 0 for CIC.
        let (cells, weights, count) = MassAssignment::Cic.axis_weights(7.6, n);
        let w0: f64 = (0..count)
            .filter(|&i| cells[i] == 0)
            .map(|i| weights[i])
            .sum();
        assert!(w0 > 0.0, "no weight wrapped to cell 0");
    }

    #[test]
    fn ngp_picks_containing_cell() {
        let n = 8;
        // x/H = 3.7 → cell 3; g = 3.2.
        let (cells, _, count) = MassAssignment::Ngp.axis_weights(3.2, n);
        assert_eq!((cells[0], count), (3, 1));
        // x/H = 7.9 → cell 7 (not wrapped past the face).
        let (cells, _, _) = MassAssignment::Ngp.axis_weights(7.4, n);
        assert_eq!(cells[0], 7);
    }

    #[test]
    fn window_is_one_at_dc_and_below_one_elsewhere() {
        for a in MassAssignment::ALL {
            assert_eq!(a.fourier_window(0, 16), 1.0);
            let mut prev = 1.0;
            for m in 1..=8 {
                let w = a.fourier_window(m, 16);
                assert!(w > 0.0 && w < prev, "{a} m={m}: {w} vs {prev}");
                prev = w;
                // Even in m.
                assert_eq!(a.fourier_window(-m, 16), w);
            }
        }
        // Higher order ⇒ stronger suppression.
        let near_ny = |a: MassAssignment| a.fourier_window(7, 16);
        assert!(near_ny(MassAssignment::Ngp) > near_ny(MassAssignment::Cic));
    }
}
