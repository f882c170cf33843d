//! Complex arithmetic for spherical-harmonic coefficients.
//!
//! The anisotropic 3PCF coefficients `ζ^m_ℓℓ'` and the per-shell harmonic
//! coefficients `a_ℓm` are complex; this module provides the small, fully
//! inlined complex type used throughout the workspace (we deliberately do
//! not pull in an external complex-number crate).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Complex64 {
    pub re: f64,
    pub im: f64,
}

impl Complex64 {
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Purely real value.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// `e^{iθ} = cos θ + i sin θ`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Complex64 { re: c, im: s }
    }

    #[inline]
    pub fn conj(self) -> Self {
        Complex64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared modulus `|z|²`.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Argument in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse. Panics in debug builds on zero.
    #[inline]
    pub fn inv(self) -> Self {
        let n = self.norm_sq();
        debug_assert!(n > 0.0, "inverse of zero complex number");
        Complex64 {
            re: self.re / n,
            im: -self.im / n,
        }
    }

    /// `z * s` for real `s` (explicit name for readability in kernels).
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex64 {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Integer power by repeated squaring.
    pub fn powi(self, mut n: u32) -> Self {
        let mut base = self;
        let mut acc = Complex64::ONE;
        while n > 0 {
            if n & 1 == 1 {
                acc *= base;
            }
            base *= base;
            n >>= 1;
        }
        acc
    }

    /// Max of |Δre|, |Δim| — convenient for test tolerances.
    #[inline]
    pub fn dist_inf(self, o: Self) -> f64 {
        (self.re - o.re).abs().max((self.im - o.im).abs())
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Complex64::real(re)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, o: Complex64) -> Complex64 {
        Complex64::new(self.re + o.re, self.im + o.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, o: Complex64) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, o: Complex64) -> Complex64 {
        Complex64::new(self.re - o.re, self.im - o.im)
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, o: Complex64) {
        self.re -= o.re;
        self.im -= o.im;
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, o: Complex64) -> Complex64 {
        Complex64::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, o: Complex64) {
        *self = *self * o;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, s: f64) -> Complex64 {
        self.scale(s)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, z: Complex64) -> Complex64 {
        z.scale(self)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[allow(
        clippy::suspicious_arithmetic_impl,
        reason = "complex division is multiplication by the reciprocal"
    )]
    #[inline]
    fn div(self, o: Complex64) -> Complex64 {
        self * o.inv()
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, s: f64) -> Complex64 {
        Complex64::new(self.re / s, self.im / s)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-14;

    #[test]
    fn field_axioms_spot_checks() {
        let a = Complex64::new(1.5, -2.0);
        let b = Complex64::new(-0.25, 3.0);
        let c = Complex64::new(4.0, 0.5);
        assert!(((a + b) + c).dist_inf(a + (b + c)) < EPS);
        assert!(((a * b) * c).dist_inf(a * (b * c)) < EPS);
        assert!((a * (b + c)).dist_inf(a * b + a * c) < EPS);
        assert!((a * b).dist_inf(b * a) < EPS);
    }

    #[test]
    fn conjugation_and_modulus() {
        let z = Complex64::new(3.0, -4.0);
        assert_eq!(z.conj(), Complex64::new(3.0, 4.0));
        assert!((z.abs() - 5.0).abs() < EPS);
        assert!(((z * z.conj()).re - 25.0).abs() < EPS);
        assert!((z * z.conj()).im.abs() < EPS);
    }

    #[test]
    fn inversion_and_division() {
        let z = Complex64::new(2.0, -1.0);
        assert!((z * z.inv()).dist_inf(Complex64::ONE) < EPS);
        let w = Complex64::new(-1.0, 5.0);
        assert!(((w / z) * z).dist_inf(w) < 1e-13);
    }

    #[test]
    fn cis_and_polar() {
        let t = 0.7324;
        let z = Complex64::cis(t);
        assert!((z.abs() - 1.0).abs() < EPS);
        assert!((z.arg() - t).abs() < EPS);
        let p = Complex64::cis(-1.1) * 2.5;
        assert!((p.abs() - 2.5).abs() < EPS);
        assert!((p.arg() + 1.1).abs() < EPS);
    }

    #[test]
    fn integer_powers() {
        let z = Complex64::new(1.0, 1.0);
        // (1+i)^2 = 2i, (1+i)^4 = -4
        assert!(z.powi(2).dist_inf(Complex64::new(0.0, 2.0)) < EPS);
        assert!(z.powi(4).dist_inf(Complex64::new(-4.0, 0.0)) < EPS);
        assert_eq!(z.powi(0), Complex64::ONE);
        // de Moivre
        let w = Complex64::cis(0.3);
        assert!(w.powi(7).dist_inf(Complex64::cis(2.1)) < 1e-13);
    }

    #[test]
    fn sum_iterator() {
        let zs = [Complex64::new(1.0, 2.0), Complex64::new(-0.5, 0.5)];
        let s: Complex64 = zs.iter().copied().sum();
        assert!(s.dist_inf(Complex64::new(0.5, 2.5)) < EPS);
    }
}
