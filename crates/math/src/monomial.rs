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
//! builds that parent/axis **update schedule**. The basis is ordered the
//! way the schedule multiplies (`w·z^q·y^p·x^k`: `q` outermost, then
//! `p`, then `k`), so the SIMD kernel in `galactos-core` walks it as
//! three nested loops of running products with a running index, while
//! the scalar oracle and [`MonomialBasis::eval_into`] replay the
//! schedule step by step.

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

/// Position of `(k, p, q)` in the `q`, `p`, `k` loop nest over
/// `k + p + q ≤ lmax`: the `q' < q` slabs hold all but
/// `monomial_count(lmax − q)` monomials, the rows `p' < p` of slab `q`
/// hold `m + 1 − p'` each (`m = lmax − q`), and `k` counts along the row.
fn nest_index(lmax: usize, k: u32, p: u32, q: u32) -> usize {
    let (k, p, m) = (k as usize, p as usize, lmax - q as usize);
    monomial_count(lmax) - monomial_count(m) + p * (2 * m + 3 - p) / 2 + k
}

/// The ordered monomial basis for a given `ℓmax`, with exponent lists,
/// index lookup and the kernel update schedule.
///
/// Ordering: the loop nest `for q in 0..=ℓmax { for p in 0..=ℓmax−q {
/// for k in 0..=ℓmax−q−p` — ascending `q`, then `p`, then `k` — so
/// every parent precedes its children. Index 0 is the constant monomial
/// `1` (whose accumulated sum counts pairs — the paper's `S_{000}`).
/// Address monomials through [`index_of`](Self::index_of), never by
/// position.
#[derive(Clone, Debug)]
pub struct MonomialBasis {
    lmax: usize,
    /// `schedule[i]` builds monomial `i+1` (index 0 is the constant 1).
    schedule: Vec<UpdateStep>,
}

impl MonomialBasis {
    pub fn new(lmax: usize) -> Self {
        assert!(lmax <= 30, "lmax={lmax} is unreasonably large");
        let n = monomial_count(lmax);
        let top = lmax as u32;
        let mut exponents = Vec::with_capacity(n);
        for q in 0..=top {
            for p in 0..=top - q {
                for k in 0..=top - q - p {
                    exponents.push((k, p, q));
                }
            }
        }
        debug_assert_eq!(exponents.len(), n);

        let index_of = |k, p, q| nest_index(lmax, k, p, q) as u32;
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

        MonomialBasis { lmax, schedule }
    }

    #[inline]
    pub fn lmax(&self) -> usize {
        self.lmax
    }

    /// Total number of monomials (286 for `ℓmax = 10`).
    #[inline]
    pub fn len(&self) -> usize {
        self.schedule.len() + 1
    }

    /// Never: index 0 is the constant monomial.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Index of the monomial with exponents `(k, p, q)`.
    pub fn index_of(&self, k: u32, p: u32, q: u32) -> usize {
        let d = (k + p + q) as usize;
        assert!(d <= self.lmax, "degree {d} exceeds lmax {}", self.lmax);
        nest_index(self.lmax, k, p, q)
    }

    /// The kernel update schedule; `schedule()[i]` produces monomial `i+1`.
    #[inline]
    pub fn schedule(&self) -> &[UpdateStep] {
        &self.schedule
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
    fn order_is_the_q_p_k_loop_nest() {
        for lmax in 0..=12usize {
            let b = MonomialBasis::new(lmax);
            let top = lmax as u32;
            let mut i = 0;
            for q in 0..=top {
                for p in 0..=top - q {
                    for k in 0..=top - q - p {
                        assert_eq!(b.index_of(k, p, q), i, "lmax {lmax} ({k},{p},{q})");
                        i += 1;
                    }
                }
            }
            assert_eq!(i, b.len());
            for (i, step) in b.schedule().iter().enumerate() {
                assert!(step.parent as usize <= i, "lmax {lmax} step {i}");
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
            for (q, p) in (0..=7).flat_map(|q| (0..=7 - q).map(move |p| (q, p))) {
                for k in 0..=7 - q - p {
                    let got = out[b.index_of(k, p, q)];
                    let want = x.powi(k as i32) * y.powi(p as i32) * z.powi(q as i32);
                    assert!(
                        (got - want).abs() <= 1e-12 * (1.0 + want.abs()),
                        "({k},{p},{q}): {got} vs {want}"
                    );
                }
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
