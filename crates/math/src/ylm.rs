//! Spherical harmonics as linear combinations of Cartesian monomials.
//!
//! The Galactos kernel accumulates monomial sums
//! `S_{kpq}(bin) = Σ_pairs (Δx/r)^k (Δy/r)^p (Δz/r)^q` and only afterwards
//! assembles the spherical-harmonic shell coefficients
//!
//! ```text
//! a_ℓm(bin) = Σ_i  Y_ℓm(r̂_i) = Σ_{k+p+q=ℓ} c^{ℓm}_{kpq} · S_{kpq}(bin).
//! ```
//!
//! This module generates the exact coefficient table `c^{ℓm}_{kpq}` from
//! the closed-form expansion (Condon–Shortley phase, physics
//! normalization):
//!
//! ```text
//! Y_ℓm · rˡ = N_ℓm (−1)^m (x+iy)^m Σ_j d_j z^j (x²+y²+z²)^{(ℓ−m−j)/2},
//! ```
//!
//! where `d_j` are the coefficients of `d^m/du^m P_ℓ(u)` and
//! `N_ℓm = √[(2ℓ+1)/(4π)·(ℓ−m)!/(ℓ+m)!]`. The parity of `ℓ−m−j`
//! guarantees integer powers. Only `m ≥ 0` is tabulated; negative `m`
//! follows from `Y_{ℓ,−m} = (−1)^m conj(Y_ℓm)` because the monomial sums
//! are real.

use crate::complex::Complex64;
use crate::legendre::{legendre_all, legendre_derivative_coefficients};
use crate::monomial::MonomialBasis;
use crate::poly3::{r_squared_pow, x_plus_iy_pow, Poly3};
use crate::sphharm::ylm_norm;
use crate::wigner::Wigner3j;
use crate::{lm_count, lm_index};

/// One `(monomial index, coefficient)` entry of a `Y_ℓm` expansion.
#[derive(Clone, Copy, Debug)]
pub struct YlmTerm {
    pub monomial: u32,
    pub coeff: Complex64,
}

/// Coefficient tables expressing every `Y_ℓm` (`0 ≤ m ≤ ℓ ≤ ℓmax`) in the
/// monomial basis of [`MonomialBasis`].
#[derive(Clone, Debug)]
pub struct YlmTable {
    lmax: usize,
    /// Indexed by [`lm_index`]; each entry lists the monomials of total
    /// degree exactly `ℓ` contributing to that harmonic.
    entries: Vec<Vec<YlmTerm>>,
}

impl YlmTable {
    /// Build the table for all `ℓ ≤ lmax` against `basis` (which must have
    /// been constructed with the same or larger `lmax`).
    pub fn new(lmax: usize, basis: &MonomialBasis) -> Self {
        assert!(
            basis.lmax() >= lmax,
            "monomial basis lmax {} too small for YlmTable lmax {lmax}",
            basis.lmax()
        );
        let mut entries = Vec::with_capacity(lm_count(lmax));
        for l in 0..=lmax {
            for m in 0..=l {
                entries.push(Self::expand_ylm(l, m, basis));
            }
        }
        YlmTable { lmax, entries }
    }

    fn expand_ylm(l: usize, m: usize, basis: &MonomialBasis) -> Vec<YlmTerm> {
        // Polynomial part: Σ_j d_j z^j (x²+y²+z²)^{(l-m-j)/2}
        let d = legendre_derivative_coefficients(l, m);
        let mut poly = Poly3::zero();
        for (j, &dj) in d.iter().enumerate() {
            if dj == 0.0 {
                continue;
            }
            let rem = l - m - j;
            debug_assert!(rem.is_multiple_of(2), "parity violation in Ylm expansion");
            let term = Poly3::monomial((0, 0, j as u32), Complex64::real(dj))
                .mul(&r_squared_pow((rem / 2) as u32));
            poly = poly.add(&term);
        }
        // (x+iy)^m and prefactor N_lm (-1)^m.
        let sign = if m.is_multiple_of(2) { 1.0 } else { -1.0 };
        let prefactor = Complex64::real(sign * ylm_norm(l, m));
        let full = x_plus_iy_pow(m as u32).mul(&poly).scale(prefactor);
        debug_assert!(full.is_homogeneous(l as u32));

        full.terms()
            .map(|((k, p, q), c)| YlmTerm {
                monomial: basis.index_of(k, p, q) as u32,
                coeff: c,
            })
            .collect()
    }

    #[inline]
    pub fn lmax(&self) -> usize {
        self.lmax
    }

    /// Expansion terms for `(ℓ, m)` with `m ≥ 0`.
    #[inline]
    pub fn terms(&self, l: usize, m: usize) -> &[YlmTerm] {
        &self.entries[lm_index(l, m)]
    }

    /// Assemble all `a_ℓm` (`m ≥ 0`, layout [`lm_index`]) from a slice of
    /// monomial sums produced by the multipole kernel.
    // lint:allow(W-DEADPUB): oracle for the lane assembly in core/src/assembly.rs tests (every_level_reproduces_the_scalar_loops_bit_for_bit)
    pub fn assemble_alm(&self, monomial_sums: &[f64], out: &mut [Complex64]) {
        assert_eq!(out.len(), lm_count(self.lmax));
        for (o, terms) in out.iter_mut().zip(self.entries.iter()) {
            let mut acc = Complex64::ZERO;
            for t in terms {
                acc += t.coeff * monomial_sums[t.monomial as usize];
            }
            *o = acc;
        }
    }
}

/// The degenerate-triangle (self-pair) products
/// `Y_ℓm(û)·conj(Y_ℓ'm(û))` as Legendre series in `μ = û·ẑ`.
///
/// Both factors carry the same `e^{imφ}`, so the product has no
/// φ-dependence: it is the *real* polynomial
/// `N_ℓm N_ℓ'm P_ℓ^m(μ) P_ℓ'^m(μ)` of degree `ℓ+ℓ'`, and the Gaunt
/// contraction of `Y_ℓm Y_ℓ',−m` onto `Y_L0` gives its Legendre form
///
/// ```text
/// Y_ℓm conj(Y_ℓ'm) = Σ_L C^L_{ℓℓ'm} P_L(μ),
/// C^L_{ℓℓ'm} = (−1)^m √((2ℓ+1)(2ℓ'+1))/(4π) · (2L+1)
///              · (ℓ ℓ' L; 0 0 0)(ℓ ℓ' L; m −m 0),
/// ```
///
/// non-zero only for `L = ℓ'−ℓ, ℓ'−ℓ+2, …, ℓ'+ℓ`. The product
/// `a_ℓm(b)·conj(a_ℓ'm(b))` on a diagonal radial bin contains the
/// `j = k` terms `Σ_j w_j² Y_ℓm(û_j) conj(Y_ℓ'm(û_j))`; both estimators
/// remove them by accumulating the `2ℓmax+1` sums
/// `S_L = Σ_j w_j² P_L(μ_j)` ([`SelfPairTable::accumulate`]) and
/// contracting them with this table. Only `ℓ ≤ ℓ'` is stored: the
/// product is real, so `(ℓ', ℓ, m)` has the same value.
#[derive(Clone, Debug)]
pub struct SelfPairTable {
    lmax: usize,
    /// The `ℓ+1` non-zero coefficients of every `(ℓ ≤ ℓ', m)` block,
    /// blocks in ℓ-major, ℓ'-next, m-last order.
    coeffs: Vec<f64>,
}

/// One `(ℓ ≤ ℓ', m)` product of a [`SelfPairTable`].
#[derive(Clone, Copy, Debug)]
pub struct SelfPairBlock<'a> {
    pub l: usize,
    pub lp: usize,
    pub m: usize,
    /// `C^L` at `L = ℓ'−ℓ, ℓ'−ℓ+2, …, ℓ'+ℓ`.
    coeffs: &'a [f64],
}

impl SelfPairBlock<'_> {
    /// `Σ_L C^L_{ℓℓ'm} S_L` for Legendre sums `S_0 … S_{2ℓmax}`.
    #[inline]
    pub fn contract(&self, legendre_sums: &[f64]) -> f64 {
        let sums = legendre_sums[self.lp - self.l..].iter().step_by(2);
        self.coeffs.iter().zip(sums).map(|(c, s)| c * s).sum()
    }
}

impl SelfPairTable {
    pub fn new(lmax: usize) -> Self {
        let w3j = Wigner3j::new(2 * lmax);
        let mut coeffs = Vec::new();
        for l in 0..=lmax as i64 {
            for lp in l..=lmax as i64 {
                let norm =
                    (((2 * l + 1) * (2 * lp + 1)) as f64).sqrt() / (4.0 * std::f64::consts::PI);
                for m in 0..=l {
                    let sign = if m % 2 == 0 { norm } else { -norm };
                    coeffs.extend((lp - l..=lp + l).step_by(2).map(|big_l| {
                        sign * (2 * big_l + 1) as f64
                            * w3j.eval(l, lp, big_l, 0, 0, 0)
                            * w3j.eval(l, lp, big_l, m, -m, 0)
                    }));
                }
            }
        }
        SelfPairTable { lmax, coeffs }
    }

    /// Number of Legendre sums `S_0 … S_{2ℓmax}` a contraction reads.
    #[inline]
    pub fn num_sums(&self) -> usize {
        2 * self.lmax + 1
    }

    /// One pair's share of the sums: `sums[L] += weight · P_L(μ)` for
    /// `L = 0 … 2ℓmax` (`legendre` is scratch of the same length).
    #[inline]
    pub fn accumulate(&self, mu: f64, weight: f64, legendre: &mut [f64], sums: &mut [f64]) {
        legendre_all(2 * self.lmax, mu, legendre);
        for (s, p) in sums.iter_mut().zip(legendre.iter()) {
            *s += weight * p;
        }
    }

    /// Every `(ℓ ≤ ℓ', m)` block, ℓ-major, ℓ'-next, m-last.
    pub fn blocks(&self) -> impl Iterator<Item = SelfPairBlock<'_>> {
        let lmax = self.lmax;
        let mut rest = self.coeffs.as_slice();
        (0..=lmax)
            .flat_map(move |l| (l..=lmax).flat_map(move |lp| (0..=l).map(move |m| (l, lp, m))))
            .map(move |(l, lp, m)| {
                let (coeffs, tail) = rest.split_at(l + 1);
                rest = tail;
                SelfPairBlock { l, lp, m, coeffs }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sphharm::ylm_cartesian;
    use crate::vec3::Vec3;

    #[test]
    fn matches_direct_evaluation_on_fixed_directions() {
        let lmax = 10;
        let basis = MonomialBasis::new(lmax);
        let table = YlmTable::new(lmax, &basis);
        let dirs = [
            Vec3::new(0.3, -0.5, 0.8),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(-0.4, -0.4, -0.82),
            Vec3::new(2.0, 3.0, -1.0),
        ];
        let mut monomials = vec![0.0; basis.len()];
        let mut alm = vec![Complex64::ZERO; lm_count(lmax)];
        for dir in dirs {
            // One unit vector's monomials through the table are its Y_lm.
            let u = dir.normalized().unwrap();
            basis.eval_into(u.x, u.y, u.z, &mut monomials);
            table.assemble_alm(&monomials, &mut alm);
            for l in 0..=lmax {
                for m in 0..=l {
                    let via_table = alm[lm_index(l, m)];
                    let direct = ylm_cartesian(l, m as i64, dir);
                    assert!(
                        via_table.dist_inf(direct) < 1e-10,
                        "l={l} m={m} dir={dir:?}: {via_table} vs {direct}"
                    );
                }
            }
        }
    }

    #[test]
    fn table_terms_have_degree_l() {
        let lmax = 8;
        let basis = MonomialBasis::new(lmax);
        let table = YlmTable::new(lmax, &basis);
        let top = lmax as u32;
        let mut degree = vec![0; basis.len()];
        for (q, p) in (0..=top).flat_map(|q| (0..=top - q).map(move |p| (q, p))) {
            for k in 0..=top - q - p {
                degree[basis.index_of(k, p, q)] = (k + p + q) as usize;
            }
        }
        for l in 0..=lmax {
            for m in 0..=l {
                for t in table.terms(l, m) {
                    assert_eq!(degree[t.monomial as usize], l, "l={l} m={m}");
                }
            }
        }
    }

    #[test]
    fn assemble_alm_of_single_point_equals_ylm() {
        // For a "shell" holding one unit vector, S_kpq = monomials(u), so
        // a_lm must equal Y_lm(u).
        let lmax = 6;
        let basis = MonomialBasis::new(lmax);
        let table = YlmTable::new(lmax, &basis);
        let u = Vec3::new(0.6, 0.48, 0.64).normalized().unwrap();
        let mut sums = vec![0.0; basis.len()];
        basis.eval_into(u.x, u.y, u.z, &mut sums);
        let mut alm = vec![Complex64::ZERO; lm_count(lmax)];
        table.assemble_alm(&sums, &mut alm);
        for l in 0..=lmax {
            for m in 0..=l {
                let direct = ylm_cartesian(l, m as i64, u);
                assert!(alm[lm_index(l, m)].dist_inf(direct) < 1e-11, "l={l} m={m}");
            }
        }
    }

    #[test]
    fn assemble_alm_is_linear() {
        // a_lm of a sum of points = sum of Y_lm — linearity through the
        // monomial accumulation, the heart of the O(N^2) factorization.
        let lmax = 5;
        let basis = MonomialBasis::new(lmax);
        let table = YlmTable::new(lmax, &basis);
        let us = [
            Vec3::new(0.1, 0.9, -0.42).normalized().unwrap(),
            Vec3::new(-0.7, 0.1, 0.7).normalized().unwrap(),
            Vec3::new(0.5, -0.5, 0.707).normalized().unwrap(),
        ];
        let mut sums = vec![0.0; basis.len()];
        let mut vals = vec![0.0; basis.len()];
        for u in us {
            basis.eval_into(u.x, u.y, u.z, &mut vals);
            sums.iter_mut().zip(&vals).for_each(|(s, v)| *s += v);
        }
        let mut alm = vec![Complex64::ZERO; lm_count(lmax)];
        table.assemble_alm(&sums, &mut alm);
        for l in 0..=lmax {
            for m in 0..=l {
                let mut direct = Complex64::ZERO;
                for u in us {
                    direct += ylm_cartesian(l, m as i64, u);
                }
                assert!(alm[lm_index(l, m)].dist_inf(direct) < 1e-11, "l={l} m={m}");
            }
        }
    }

    #[test]
    fn self_pair_table_matches_direct_products() {
        use rand::{Rng, SeedableRng};
        let lmax = 10;
        let table = SelfPairTable::new(lmax);
        assert_eq!(table.num_sums(), 2 * lmax + 1);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1709);
        let mut dirs = vec![Vec3::Z, -Vec3::Z, Vec3::X];
        while dirs.len() < 24 {
            let v = Vec3::new(
                rng.random_range(-1.0..1.0),
                rng.random_range(-1.0..1.0),
                rng.random_range(-1.0..1.0),
            );
            dirs.extend(v.normalized());
        }
        let mut legendre = vec![0.0; table.num_sums()];
        for u in dirs {
            legendre_all(2 * lmax, u.z, &mut legendre);
            let mut expect = (0..=lmax)
                .flat_map(|l| (l..=lmax).flat_map(move |lp| (0..=l).map(move |m| (l, lp, m))));
            for block in table.blocks() {
                let (l, lp, m) = (block.l, block.lp, block.m);
                assert_eq!(expect.next(), Some((l, lp, m)));
                let direct = ylm_cartesian(l, m as i64, u) * ylm_cartesian(lp, m as i64, u).conj();
                // The product is a real series in μ: no φ-dependence.
                assert!(direct.im.abs() <= 1e-13, "l={l} lp={lp} m={m}: {direct}");
                let via_table = block.contract(&legendre);
                assert!(
                    (via_table - direct.re).abs() < 1e-11,
                    "l={l} lp={lp} m={m} u={u:?}: {via_table} vs {direct}"
                );
            }
            assert_eq!(expect.next(), None);
        }
    }

    #[test]
    fn y00_entry_is_constant() {
        let basis = MonomialBasis::new(2);
        let table = YlmTable::new(2, &basis);
        let terms = table.terms(0, 0);
        assert_eq!(terms.len(), 1);
        assert_eq!(terms[0].monomial, 0);
        let want = 0.5 / std::f64::consts::PI.sqrt();
        assert!((terms[0].coeff.re - want).abs() < 1e-15);
        assert!(terms[0].coeff.im.abs() < 1e-15);
    }
}
