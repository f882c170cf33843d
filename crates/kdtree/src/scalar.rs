//! Precision abstraction for the k-d tree.
//!
//! The paper runs the tree search in single precision ("due to its
//! insensitivity to the precision of galaxy locations") while the
//! multipole kernel stays in double precision. Instantiating the tree
//! over [`Scalar`] gives both variants from one implementation, and the
//! mixed-vs-double benchmark (paper §5.4, 9% end-to-end gain) compares
//! `KdTree<f32>` against `KdTree<f64>`. The scalar type sets what a
//! query costs and how sharp its boundary is — one `S` ulp of the
//! coordinates — not which pairs the estimator counts: that is decided
//! downstream in `f64` from a padded, conservative candidate set.

/// A floating-point coordinate type usable by the k-d tree.
pub trait Scalar: Copy + PartialOrd + Send + Sync + std::fmt::Debug + 'static {
    const ZERO: Self;
    const MAX: Self;

    fn from_f64(v: f64) -> Self;
    fn to_f64(self) -> f64;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;

    /// `max(self, o)` with NaN-free inputs assumed.
    #[inline]
    fn fmax(self, o: Self) -> Self {
        if self > o {
            self
        } else {
            o
        }
    }

    /// `min(self, o)` with NaN-free inputs assumed.
    #[inline]
    fn fmin(self, o: Self) -> Self {
        if self < o {
            self
        } else {
            o
        }
    }
}

impl Scalar for f32 {
    const ZERO: f32 = 0.0;
    const MAX: f32 = f32::MAX;

    #[inline]
    fn from_f64(v: f64) -> f32 {
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn add(self, o: f32) -> f32 {
        self + o
    }
    #[inline]
    fn sub(self, o: f32) -> f32 {
        self - o
    }
    #[inline]
    fn mul(self, o: f32) -> f32 {
        self * o
    }
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const MAX: f64 = f64::MAX;

    #[inline]
    fn from_f64(v: f64) -> f64 {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn add(self, o: f64) -> f64 {
        self + o
    }
    #[inline]
    fn sub(self, o: f64) -> f64 {
        self - o
    }
    #[inline]
    fn mul(self, o: f64) -> f64 {
        self * o
    }
}

/// Squared Euclidean distance between two points of scalar type `S`.
#[inline]
pub fn distance_sq<S: Scalar>(a: [S; 3], b: [S; 3]) -> S {
    let dx = a[0].sub(b[0]);
    let dy = a[1].sub(b[1]);
    let dz = a[2].sub(b[2]);
    dx.mul(dx).add(dy.mul(dy)).add(dz.mul(dz))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_roundtrip() {
        assert_eq!(f32::from_f64(1.5).to_f64(), 1.5);
        assert_eq!(f32::ZERO, 0.0f32);
        assert_eq!(2.0f32.fmax(3.0), 3.0);
        assert_eq!(2.0f32.fmin(3.0), 2.0);
    }

    #[test]
    fn distance_sq_matches_f64() {
        let a = [1.0f64, 2.0, 3.0];
        let b = [4.0f64, 6.0, 3.0];
        assert_eq!(distance_sq(a, b), 25.0);
        let a32 = [1.0f32, 2.0, 3.0];
        let b32 = [4.0f32, 6.0, 3.0];
        assert_eq!(distance_sq(a32, b32), 25.0f32);
    }
}
