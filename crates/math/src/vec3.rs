//! Minimal 3-vector and axis-aligned bounding-box geometry.
//!
//! Positions in Galactos are comoving coordinates in Mpc/h. The k-d tree,
//! domain decomposition and rotation machinery all operate on these types.

use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A 3-vector of `f64` components.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    pub const X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    pub const Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    pub const Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// All components equal to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    #[inline]
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    #[inline]
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Unit vector in the direction of `self`.
    ///
    /// Returns `None` for (near-)zero vectors, where the direction is
    /// undefined; callers such as the line-of-sight rotation must handle
    /// that case explicitly.
    #[inline]
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n > 0.0 && n.is_finite() {
            Some(self / n)
        } else {
            None
        }
    }

    #[inline]
    pub fn distance(self, o: Vec3) -> f64 {
        (self - o).norm()
    }

    #[inline]
    pub fn distance_sq(self, o: Vec3) -> f64 {
        (self - o).norm_sq()
    }

    /// Component-wise minimum.
    #[inline]
    pub(crate) fn min(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.min(o.x), self.y.min(o.y), self.z.min(o.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub(crate) fn max(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.max(o.x), self.y.max(o.y), self.z.max(o.z))
    }

    /// Largest absolute component difference from `o` under periodic wrap
    /// of period `box_len` (used by periodic neighbor queries).
    #[inline]
    pub fn periodic_delta(self, o: Vec3, box_len: f64) -> Vec3 {
        let wrap = |d: f64| {
            let mut d = d % box_len;
            if d > 0.5 * box_len {
                d -= box_len;
            } else if d < -0.5 * box_len {
                d += box_len;
            }
            d
        };
        Vec3::new(wrap(self.x - o.x), wrap(self.y - o.y), wrap(self.z - o.z))
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

/// Axis-aligned bounding box, `lo <= hi` component-wise.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb {
    pub lo: Vec3,
    pub hi: Vec3,
}

impl Aabb {
    /// Box spanning the two corners (components are sorted).
    #[inline]
    pub fn new(a: Vec3, b: Vec3) -> Self {
        Aabb {
            lo: a.min(b),
            hi: a.max(b),
        }
    }

    /// Empty box: `lo = +inf`, `hi = -inf`; expanding it by a point
    /// yields that point.
    #[inline]
    pub fn empty() -> Self {
        Aabb {
            lo: Vec3::splat(f64::INFINITY),
            hi: Vec3::splat(f64::NEG_INFINITY),
        }
    }

    /// Cubic box `[0, len)^3`.
    #[inline]
    pub fn cube(len: f64) -> Self {
        Aabb {
            lo: Vec3::ZERO,
            hi: Vec3::splat(len),
        }
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.lo.x > self.hi.x || self.lo.y > self.hi.y || self.lo.z > self.hi.z
    }

    #[inline]
    pub fn extent(&self) -> Vec3 {
        self.hi - self.lo
    }

    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.lo + self.hi) * 0.5
    }

    /// Index (0/1/2) of the longest axis.
    #[inline]
    pub fn longest_axis(&self) -> usize {
        let e = self.extent();
        if e.x >= e.y && e.x >= e.z {
            0
        } else if e.y >= e.z {
            1
        } else {
            2
        }
    }

    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.lo.x
            && p.x <= self.hi.x
            && p.y >= self.lo.y
            && p.y <= self.hi.y
            && p.z >= self.lo.z
            && p.z <= self.hi.z
    }

    /// Grow to include `p`.
    #[inline]
    pub fn expand(&mut self, p: Vec3) {
        self.lo = self.lo.min(p);
        self.hi = self.hi.max(p);
    }

    /// Squared distance from `p` to the closest point of the box
    /// (zero if inside). This is the k-d tree pruning predicate.
    #[inline]
    pub fn distance_sq_to_point(&self, p: Vec3) -> f64 {
        let mut d2 = 0.0;
        for ax in 0..3 {
            let v = p[ax];
            if v < self.lo[ax] {
                let d = self.lo[ax] - v;
                d2 += d * d;
            } else if v > self.hi[ax] {
                let d = v - self.hi[ax];
                d2 += d * d;
            }
        }
        d2
    }

    /// Squared distance between the closest points of two boxes (zero
    /// when they overlap). This is the shard-halo predicate: another
    /// domain's region can only hold galaxies within `rmax` of this one
    /// when the box gap is at most `rmax`.
    #[inline]
    pub fn distance_sq_to_aabb(&self, other: &Aabb) -> f64 {
        let mut d2 = 0.0;
        for ax in 0..3 {
            let gap = (self.lo[ax] - other.hi[ax]).max(other.lo[ax] - self.hi[ax]);
            if gap > 0.0 {
                d2 += gap * gap;
            }
        }
        d2
    }

    /// Split the box at `value` along `axis`, returning (low, high) halves.
    #[inline]
    pub fn split(&self, axis: usize, value: f64) -> (Aabb, Aabb) {
        let mut lo_half = *self;
        let mut hi_half = *self;
        lo_half.hi[axis] = value;
        hi_half.lo[axis] = value;
        (lo_half, hi_half)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_algebra() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 5.0, 0.5);
        assert_eq!(a + b, Vec3::new(-3.0, 7.0, 3.5));
        assert_eq!(a - b, Vec3::new(5.0, -3.0, 2.5));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert!((a.dot(b) - (1.0 * -4.0 + 2.0 * 5.0 + 3.0 * 0.5)).abs() < 1e-15);
    }

    #[test]
    fn cross_product_orthogonality() {
        let a = Vec3::new(0.3, -1.2, 2.2);
        let b = Vec3::new(1.5, 0.4, -0.9);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-12);
        assert!(c.dot(b).abs() < 1e-12);
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
    }

    #[test]
    fn normalization() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        let u = v.normalized().unwrap();
        assert!((u.norm() - 1.0).abs() < 1e-15);
        assert!(Vec3::ZERO.normalized().is_none());
    }

    #[test]
    fn periodic_delta_wraps() {
        let a = Vec3::new(0.5, 0.5, 9.5);
        let b = Vec3::new(9.5, 0.5, 0.5);
        let d = a.periodic_delta(b, 10.0);
        assert!((d.x - 1.0).abs() < 1e-12);
        assert!(d.y.abs() < 1e-12);
        assert!((d.z + 1.0).abs() < 1e-12);
    }

    #[test]
    fn aabb_contains_and_distance() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(2.0));
        assert!(b.contains(Vec3::splat(1.0)));
        assert!(!b.contains(Vec3::new(3.0, 1.0, 1.0)));
        assert_eq!(b.distance_sq_to_point(Vec3::splat(1.0)), 0.0);
        let d2 = b.distance_sq_to_point(Vec3::new(3.0, 3.0, 3.0));
        assert!((d2 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn aabb_box_to_box_distance() {
        let a = Aabb::new(Vec3::ZERO, Vec3::splat(2.0));
        // Overlapping and touching boxes are at distance zero.
        assert_eq!(a.distance_sq_to_aabb(&a), 0.0);
        let touching = Aabb::new(Vec3::new(2.0, 0.0, 0.0), Vec3::new(4.0, 2.0, 2.0));
        assert_eq!(a.distance_sq_to_aabb(&touching), 0.0);
        // Separated along one axis: gap of 1.
        let one_axis = Aabb::new(Vec3::new(3.0, 0.0, 0.0), Vec3::new(4.0, 2.0, 2.0));
        assert!((a.distance_sq_to_aabb(&one_axis) - 1.0).abs() < 1e-12);
        // Corner-to-corner: gap of 1 on each axis.
        let corner = Aabb::new(Vec3::splat(3.0), Vec3::splat(4.0));
        assert!((a.distance_sq_to_aabb(&corner) - 3.0).abs() < 1e-12);
        assert_eq!(
            corner.distance_sq_to_aabb(&a),
            a.distance_sq_to_aabb(&corner)
        );
    }

    #[test]
    fn aabb_union_expand_split() {
        let mut b = Aabb::empty();
        assert!(b.is_empty());
        b.expand(Vec3::new(1.0, 0.0, -1.0));
        b.expand(Vec3::new(-1.0, 2.0, 3.0));
        assert!(b.contains(Vec3::new(0.0, 1.0, 1.0)));
        let (lo, hi) = b.split(1, 1.0);
        assert!(lo.contains(Vec3::new(0.0, 0.5, 0.0)));
        assert!(hi.contains(Vec3::new(0.0, 1.5, 0.0)));
        assert_eq!((lo.lo, hi.hi), (b.lo, b.hi));
    }

    #[test]
    fn longest_axis() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(1.0, 5.0, 2.0));
        assert_eq!(b.longest_axis(), 1);
        let c = Aabb::new(Vec3::ZERO, Vec3::new(7.0, 5.0, 2.0));
        assert_eq!(c.longest_axis(), 0);
    }
}
