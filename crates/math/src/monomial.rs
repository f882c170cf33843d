//! The Cartesian monomial basis of the Galactos multipole kernel.
//!
//! The key computational insight of the Galactos / Slepian–Eisenstein
//! algorithm (paper §3.1, Eq. 1) is that every spherical harmonic
//! `Y_ℓm(r̂)` with `ℓ ≤ ℓmax` is a linear combination of the monomials
//!
//! ```text
//! (Δx/r)^k (Δy/r)^p (Δz/r)^q      with  k + p + q ≤ ℓmax,
//! ```
//!
//! so the per-pair work reduces to accumulating those monomial values into
//! per-radial-bin sums. For `ℓmax = 10` there are exactly
//! `(ℓ+1)(ℓ+2)(ℓ+3)/6 = 286` monomials — the number quoted in the paper.
//!
//! Each monomial of degree `d > 0` is obtained from a *parent* of degree
//! `d−1` by one multiplication with one of the coordinates, so the kernel
//! performs exactly **2 FLOPs per monomial per pair** (one multiply to
//! build the value, one add to accumulate it), which is how the paper
//! arrives at `286 × 2 = 572 ≈ 576` FLOPs per galaxy pair. This module
//! builds that parent/axis **update schedule**; the SIMD kernel in
//! `galactos-core` replays it over 8-wide lanes.

/// Which coordinate multiplies the parent monomial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Axis {
    X,
    Y,
    Z,
}

impl Axis {
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Axis::X => 0,
            Axis::Y => 1,
            Axis::Z => 2,
        }
    }
}

/// One step of the monomial evaluation schedule:
/// `value[target] = value[parent] * coord[axis]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateStep {
    /// Index of the degree-(d−1) parent monomial.
    pub parent: u32,
    /// Coordinate to multiply by.
    pub axis: Axis,
}

/// Number of monomials `x^k y^p z^q` with `k+p+q ≤ lmax`.
#[inline]
pub const fn monomial_count(lmax: usize) -> usize {
    (lmax + 1) * (lmax + 2) * (lmax + 3) / 6
}

/// The ordered monomial basis for a given `ℓmax`, with exponent lists,
/// index lookup and the kernel update schedule.
///
/// Ordering: ascending total degree; within a degree, descending `k`,
/// then descending `p`. Index 0 is the constant monomial `1` (whose
/// accumulated sum counts pairs — the paper's `S_{000}`).
#[derive(Clone, Debug)]
pub struct MonomialBasis {
    lmax: usize,
    /// Exponents `(k, p, q)` for each monomial index.
    exponents: Vec<(u32, u32, u32)>,
    /// `schedule[i]` builds monomial `i+1` (index 0 is the constant 1).
    schedule: Vec<UpdateStep>,
    /// Offset of the first monomial of each degree `0..=lmax+1`
    /// (`degree_offsets[d]..degree_offsets[d+1]` spans degree `d`).
    degree_offsets: Vec<usize>,
}

impl MonomialBasis {
    pub fn new(lmax: usize) -> Self {
        assert!(lmax <= 30, "lmax={lmax} is unreasonably large");
        let n = monomial_count(lmax);
        let mut exponents = Vec::with_capacity(n);
        let mut degree_offsets = Vec::with_capacity(lmax + 2);
        for d in 0..=lmax as u32 {
            degree_offsets.push(exponents.len());
            for k in (0..=d).rev() {
                for p in (0..=(d - k)).rev() {
                    let q = d - k - p;
                    exponents.push((k, p, q));
                }
            }
        }
        degree_offsets.push(exponents.len());
        debug_assert_eq!(exponents.len(), n);

        // index lookup for schedule construction
        let index_of = |k: u32, p: u32, q: u32| -> u32 {
            let d = k + p + q;
            let base = degree_offsets[d as usize] as u32;
            // within degree d: iterate k from d down to 0; for each k,
            // p from d-k down to 0. Offset of (k,p):
            //   Σ_{k' > k} (d - k' + 1)  +  (d - k - p)
            let mut off = 0u32;
            for kk in (k + 1)..=d {
                off += d - kk + 1;
            }
            off += d - k - p;
            base + off
        };

        let mut schedule = Vec::with_capacity(n.saturating_sub(1));
        for &(k, p, q) in exponents.iter().skip(1) {
            let (parent, axis) = if k > 0 {
                (index_of(k - 1, p, q), Axis::X)
            } else if p > 0 {
                (index_of(k, p - 1, q), Axis::Y)
            } else {
                (index_of(k, p, q - 1), Axis::Z)
            };
            schedule.push(UpdateStep { parent, axis });
        }

        MonomialBasis {
            lmax,
            exponents,
            schedule,
            degree_offsets,
        }
    }

    #[inline]
    pub fn lmax(&self) -> usize {
        self.lmax
    }

    /// Total number of monomials (286 for `ℓmax = 10`).
    #[inline]
    pub fn len(&self) -> usize {
        self.exponents.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.exponents.is_empty()
    }

    /// Exponents `(k, p, q)` of monomial `i`.
    #[inline]
    pub fn exponents(&self, i: usize) -> (u32, u32, u32) {
        self.exponents[i]
    }

    /// All exponent triples in basis order.
    #[inline]
    pub fn all_exponents(&self) -> &[(u32, u32, u32)] {
        &self.exponents
    }

    /// Index of the monomial with exponents `(k, p, q)`.
    pub fn index_of(&self, k: u32, p: u32, q: u32) -> usize {
        let d = (k + p + q) as usize;
        assert!(d <= self.lmax, "degree {d} exceeds lmax {}", self.lmax);
        let base = self.degree_offsets[d];
        let d = d as u32;
        let mut off = 0usize;
        for kk in (k + 1)..=d {
            off += (d - kk + 1) as usize;
        }
        off += (d - k - p) as usize;
        base + off
    }

    /// The kernel update schedule; `schedule()[i]` produces monomial `i+1`.
    #[inline]
    pub fn schedule(&self) -> &[UpdateStep] {
        &self.schedule
    }

    /// Range of monomial indices with total degree `d`.
    #[inline]
    pub fn degree_range(&self, d: usize) -> std::ops::Range<usize> {
        self.degree_offsets[d]..self.degree_offsets[d + 1]
    }

    /// Scalar reference evaluation: fill `out[i] = x^k y^p z^q` for every
    /// monomial, replaying the update schedule (2 FLOPs per monomial,
    /// exactly like the production kernel but one lane wide).
    pub fn eval_into(&self, x: f64, y: f64, z: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.len());
        out[0] = 1.0;
        let coords = [x, y, z];
        for (i, step) in self.schedule.iter().enumerate() {
            out[i + 1] = out[step.parent as usize] * coords[step.axis.index()];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_closed_form() {
        for lmax in 0..=12 {
            let b = MonomialBasis::new(lmax);
            assert_eq!(b.len(), monomial_count(lmax));
        }
        // The paper's number for lmax = 10:
        assert_eq!(monomial_count(10), 286);
    }

    #[test]
    fn index_of_is_inverse_of_exponents() {
        let b = MonomialBasis::new(8);
        for i in 0..b.len() {
            let (k, p, q) = b.exponents(i);
            assert_eq!(b.index_of(k, p, q), i, "monomial {i} = ({k},{p},{q})");
        }
    }

    #[test]
    fn degrees_are_sorted_and_ranges_correct() {
        let b = MonomialBasis::new(9);
        let mut last_d = 0;
        for i in 0..b.len() {
            let (k, p, q) = b.exponents(i);
            let d = k + p + q;
            assert!(d >= last_d, "degree must be non-decreasing");
            last_d = d;
        }
        for d in 0..=9usize {
            for i in b.degree_range(d) {
                let (k, p, q) = b.exponents(i);
                assert_eq!((k + p + q) as usize, d);
            }
        }
    }

    #[test]
    fn schedule_parents_precede_children() {
        let b = MonomialBasis::new(10);
        for (i, step) in b.schedule().iter().enumerate() {
            assert!((step.parent as usize) < i + 1, "parent must precede child");
        }
        assert_eq!(b.schedule().len(), b.len() - 1);
    }

    #[test]
    fn schedule_reproduces_powers() {
        let b = MonomialBasis::new(7);
        let mut out = vec![0.0; b.len()];
        for &(x, y, z) in &[(0.5, -1.5, 2.0), (1.0, 1.0, 1.0), (-0.3, 0.9, -2.2)] {
            b.eval_into(x, y, z, &mut out);
            for i in 0..b.len() {
                let (k, p, q) = b.exponents(i);
                let want = x.powi(k as i32) * y.powi(p as i32) * z.powi(q as i32);
                let got = out[i];
                assert!(
                    (got - want).abs() <= 1e-12 * (1.0 + want.abs()),
                    "({k},{p},{q}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn flop_count_per_pair_matches_paper() {
        // 2 FLOPs per monomial beyond the constant, plus 2 for the constant
        // accumulate ≈ the paper's 572–576 FLOPs/pair at lmax = 10.
        let b = MonomialBasis::new(10);
        let flops = 2 * b.len();
        assert_eq!(flops, 572);
    }
}
