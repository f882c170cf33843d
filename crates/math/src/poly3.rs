//! Sparse trivariate polynomials over the complex numbers.
//!
//! Used only at table-construction time to expand `Y_ℓm · rˡ` into
//! homogeneous Cartesian monomials `x^k y^p z^q`. Performance is
//! irrelevant here (tables are built once per engine construction for
//! `ℓmax ≤ 12`, microseconds of work); clarity and exactness matter.

use crate::complex::Complex64;
use std::collections::BTreeMap;

/// Exponent triple `(k, p, q)` for the monomial `x^k y^p z^q`.
pub type Exponents = (u32, u32, u32);

/// A sparse polynomial `Σ c_{kpq} x^k y^p z^q` with complex coefficients.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Poly3 {
    terms: BTreeMap<Exponents, Complex64>,
}

impl Poly3 {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly3::default()
    }

    /// The constant polynomial `c`.
    pub fn constant(c: Complex64) -> Self {
        let mut p = Poly3::zero();
        p.add_term((0, 0, 0), c);
        p
    }

    /// A single monomial `c · x^k y^p z^q`.
    pub fn monomial(exps: Exponents, c: Complex64) -> Self {
        let mut p = Poly3::zero();
        p.add_term(exps, c);
        p
    }

    /// Add `c · x^k y^p z^q` in place, removing the term if it cancels.
    pub fn add_term(&mut self, exps: Exponents, c: Complex64) {
        let entry = self.terms.entry(exps).or_insert(Complex64::ZERO);
        *entry += c;
        if entry.abs() < 1e-300 {
            self.terms.remove(&exps);
        }
    }

    /// Iterate over `((k, p, q), coefficient)` pairs in exponent order.
    pub fn terms(&self) -> impl Iterator<Item = (Exponents, Complex64)> + '_ {
        self.terms.iter().map(|(&e, &c)| (e, c))
    }

    /// True if every term has total degree `d`.
    pub fn is_homogeneous(&self, d: u32) -> bool {
        self.terms.keys().all(|&(k, p, q)| k + p + q == d)
    }

    pub fn add(&self, o: &Poly3) -> Poly3 {
        let mut out = self.clone();
        for (e, c) in o.terms() {
            out.add_term(e, c);
        }
        out
    }

    pub fn scale(&self, s: Complex64) -> Poly3 {
        let mut out = Poly3::zero();
        for (e, c) in self.terms() {
            out.add_term(e, c * s);
        }
        out
    }

    pub fn mul(&self, o: &Poly3) -> Poly3 {
        let mut out = Poly3::zero();
        for ((k1, p1, q1), c1) in self.terms() {
            for ((k2, p2, q2), c2) in o.terms() {
                out.add_term((k1 + k2, p1 + p2, q1 + q2), c1 * c2);
            }
        }
        out
    }

    /// `self^n` by repeated multiplication.
    pub fn pow(&self, n: u32) -> Poly3 {
        let mut acc = Poly3::constant(Complex64::ONE);
        for _ in 0..n {
            acc = acc.mul(self);
        }
        acc
    }

    /// Evaluate at a point.
    pub fn eval(&self, x: f64, y: f64, z: f64) -> Complex64 {
        let mut acc = Complex64::ZERO;
        for ((k, p, q), c) in self.terms() {
            acc += c * (x.powi(k as i32) * y.powi(p as i32) * z.powi(q as i32));
        }
        acc
    }
}

/// `(x² + y² + z²)^n` — used to homogenize `z^j` terms when expanding
/// spherical harmonics.
pub fn r_squared_pow(n: u32) -> Poly3 {
    let r2 = Poly3::monomial((2, 0, 0), Complex64::ONE)
        .add(&Poly3::monomial((0, 2, 0), Complex64::ONE))
        .add(&Poly3::monomial((0, 0, 2), Complex64::ONE));
    r2.pow(n)
}

/// `(x + iy)^m` expanded binomially.
pub fn x_plus_iy_pow(m: u32) -> Poly3 {
    let xpiy =
        Poly3::monomial((1, 0, 0), Complex64::ONE).add(&Poly3::monomial((0, 1, 0), Complex64::I));
    xpiy.pow(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64) -> Complex64 {
        Complex64::real(re)
    }

    /// `x`, `y` or `z` as a polynomial (axis 0/1/2).
    fn variable(axis: usize) -> Poly3 {
        let exps = [(1, 0, 0), (0, 1, 0), (0, 0, 1)][axis];
        Poly3::monomial(exps, Complex64::ONE)
    }

    #[test]
    fn construction_and_terms() {
        let p = Poly3::monomial((1, 2, 0), c(3.0)).add(&Poly3::constant(c(-1.0)));
        let exps: Vec<Exponents> = p.terms().map(|(e, _)| e).collect();
        assert_eq!(exps, [(0, 0, 0), (1, 2, 0)]);
        assert!(!p.is_homogeneous(3));
    }

    #[test]
    fn cancellation_removes_terms() {
        let p = Poly3::monomial((1, 0, 0), c(2.0));
        let q = Poly3::monomial((1, 0, 0), c(-2.0));
        assert_eq!(p.add(&q), Poly3::zero());
    }

    #[test]
    fn multiplication_matches_eval() {
        let p = variable(0).add(&variable(1).scale(c(2.0))); // x + 2y
        let q = variable(2).add(&Poly3::constant(c(-1.0))); // z - 1
        let prod = p.mul(&q);
        for &(x, y, z) in &[(0.5, -1.0, 2.0), (1.1, 0.3, -0.7)] {
            let lhs = prod.eval(x, y, z);
            let rhs = p.eval(x, y, z) * q.eval(x, y, z);
            assert!(lhs.dist_inf(rhs) < 1e-12);
        }
    }

    #[test]
    fn power_expansion() {
        // (x + y)^2 = x^2 + 2xy + y^2
        let p = variable(0).add(&variable(1));
        let sq = p.pow(2);
        assert_eq!(sq.terms().count(), 3);
        assert!(sq.eval(2.0, 3.0, 0.0).dist_inf(c(25.0)) < 1e-12);
        assert!(sq.is_homogeneous(2));
    }

    #[test]
    fn r_squared_pow_homogeneous() {
        for n in 0..4 {
            let p = r_squared_pow(n);
            assert!(p.is_homogeneous(2 * n));
            // On the unit sphere it must evaluate to 1.
            let (x, y, z) = (0.48, -0.6, 0.6414046715);
            let r: f64 = x * x + y * y + z * z;
            assert!((p.eval(x, y, z).re - r.powi(n as i32)).abs() < 1e-10);
        }
    }

    #[test]
    fn x_plus_iy_pow_values() {
        let p = x_plus_iy_pow(3);
        assert!(p.is_homogeneous(3));
        let (x, y) = (0.7, -1.2);
        let direct = Complex64::new(x, y).powi(3);
        assert!(p.eval(x, y, 5.0).dist_inf(direct) < 1e-12);
    }
}
