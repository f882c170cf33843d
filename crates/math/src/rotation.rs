//! Rotations and line-of-sight frames.
//!
//! The anisotropy-tracking step of the Galactos algorithm (paper §3.1,
//! Fig. 2) rotates each primary galaxy and its secondaries so that the
//! line of sight to the primary coincides with the z-axis; the spherical
//! harmonic expansion is performed in that frame, which is what makes the
//! spin `m` a meaningful label for anisotropy (axisymmetry about the line
//! of sight forces equal `m` on the two harmonics of `ζ^m_{ℓℓ'}`).
//!
//! Two line-of-sight conventions are supported:
//!
//! * [`LineOfSight::Fixed`] — the plane-parallel approximation used for
//!   periodic simulation boxes (the paper's Outer Rim runs take the
//!   z-axis as the line of sight);
//! * [`LineOfSight::Radial`] — an observer at a finite position; each
//!   primary gets its own rotation, as in a real survey.

use crate::vec3::Vec3;

/// A 3×3 matrix in row-major order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mat3 {
    pub rows: [[f64; 3]; 3],
}

impl Mat3 {
    pub const IDENTITY: Mat3 = Mat3 {
        rows: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    };

    #[inline]
    pub(crate) fn new(rows: [[f64; 3]; 3]) -> Self {
        Mat3 { rows }
    }

    /// Apply to a vector: `M v`.
    #[inline]
    pub fn mul_vec(&self, v: Vec3) -> Vec3 {
        let r = &self.rows;
        Vec3::new(
            r[0][0] * v.x + r[0][1] * v.y + r[0][2] * v.z,
            r[1][0] * v.x + r[1][1] * v.y + r[1][2] * v.z,
            r[2][0] * v.x + r[2][1] * v.y + r[2][2] * v.z,
        )
    }

    /// Proper rotation about `axis` (unit) by `angle` (Rodrigues formula).
    pub fn rotation_about(axis: Vec3, angle: f64) -> Mat3 {
        let (s, c) = angle.sin_cos();
        let t = 1.0 - c;
        let (x, y, z) = (axis.x, axis.y, axis.z);
        Mat3::new([
            [t * x * x + c, t * x * y - s * z, t * x * z + s * y],
            [t * x * y + s * z, t * y * y + c, t * y * z - s * x],
            [t * x * z - s * y, t * y * z + s * x, t * z * z + c],
        ])
    }

    /// The rotation that maps the unit vector `u` onto `+ẑ`, rotating
    /// about the axis `u × ẑ` (minimal-angle rotation). For `u ≈ −ẑ`
    /// (rotation axis degenerate) a rotation of π about x̂ is returned.
    pub fn rotation_to_z(u: Vec3) -> Mat3 {
        debug_assert!((u.norm() - 1.0).abs() < 1e-9, "u must be unit");
        let c = u.z; // cos(angle to z)
        match u.cross(Vec3::Z).normalized() {
            Some(axis) => {
                let angle = c.clamp(-1.0, 1.0).acos();
                Mat3::rotation_about(axis, angle)
            }
            // u is (anti)parallel to z: cross product vanishes.
            None if c > 0.0 => Mat3::IDENTITY,
            // 180° about x: (x, y, z) -> (x, -y, -z)
            None => Mat3::new([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]),
        }
    }
}

/// Line-of-sight convention for the anisotropic 3PCF.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LineOfSight {
    /// Plane-parallel: the same (unit) direction for every primary.
    /// `LineOfSight::Fixed(Vec3::Z)` makes the rotation the identity —
    /// the configuration used for periodic simulation boxes.
    Fixed(Vec3),
    /// An observer at a finite position; the line of sight to primary `p`
    /// is `p − observer`, normalized per primary (survey configuration).
    Radial { observer: Vec3 },
}

impl LineOfSight {
    /// The rotation carrying separations around the primary at `primary`
    /// into the frame whose z-axis is the line of sight.
    ///
    /// Returns `None` when the line of sight is degenerate (primary
    /// coincides with the observer) — callers skip such primaries.
    pub fn rotation_for(&self, primary: Vec3) -> Option<Mat3> {
        match *self {
            LineOfSight::Fixed(dir) => {
                let u = dir.normalized()?;
                Some(Mat3::rotation_to_z(u))
            }
            LineOfSight::Radial { observer } => {
                let u = (primary - observer).normalized()?;
                Some(Mat3::rotation_to_z(u))
            }
        }
    }

    /// True when every primary shares one rotation (lets the engine hoist
    /// the matrix out of the primary loop).
    pub fn is_uniform(&self) -> bool {
        matches!(self, LineOfSight::Fixed(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_products() {
        let m = Mat3::IDENTITY;
        let v = Vec3::new(1.0, -2.0, 3.0);
        assert_eq!(m.mul_vec(v), v);
        let r = Mat3::rotation_about(Vec3::Z, 0.7);
        let back = Mat3::rotation_about(Vec3::Z, -0.7);
        assert!((back.mul_vec(r.mul_vec(v)) - v).norm() < 1e-12);
    }

    #[test]
    fn rotation_about_z_rotates_xy() {
        let r = Mat3::rotation_about(Vec3::Z, std::f64::consts::FRAC_PI_2);
        let v = r.mul_vec(Vec3::X);
        assert!((v - Vec3::Y).norm() < 1e-12);
        let w = r.mul_vec(Vec3::Y);
        assert!((w + Vec3::X).norm() < 1e-12);
    }

    #[test]
    fn rotation_to_z_maps_u_to_z() {
        let candidates = [
            Vec3::new(0.3, -0.4, 0.8),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(0.0, 0.0, -1.0),
            Vec3::new(-0.6, 0.6, -0.52),
            Vec3::new(1e-8, 0.0, -1.0),
        ];
        for c in candidates {
            let u = c.normalized().unwrap();
            let r = Mat3::rotation_to_z(u);
            // Orthonormal and proper: the images of x̂, ŷ, ẑ are unit,
            // mutually orthogonal and right-handed.
            let [x, y, z] = [Vec3::X, Vec3::Y, Vec3::Z].map(|e| r.mul_vec(e));
            for (a, b, want) in [
                (x, x, 1.0),
                (y, y, 1.0),
                (z, z, 1.0),
                (x, y, 0.0),
                (y, z, 0.0),
            ] {
                assert!((a.dot(b) - want).abs() < 1e-9, "orthonormal for {u:?}");
            }
            assert!((x.cross(y) - z).norm() < 1e-9, "proper for {u:?}");
            let mapped = r.mul_vec(u);
            assert!((mapped - Vec3::Z).norm() < 1e-8, "maps {u:?} -> {mapped:?}");
        }
    }

    #[test]
    fn rotation_preserves_lengths_and_angles() {
        let u = Vec3::new(0.48, -0.6, 0.64).normalized().unwrap();
        let r = Mat3::rotation_to_z(u);
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-0.5, 0.25, 1.5);
        assert!((r.mul_vec(a).norm() - a.norm()).abs() < 1e-12);
        assert!((r.mul_vec(a).dot(r.mul_vec(b)) - a.dot(b)).abs() < 1e-12);
    }

    #[test]
    fn fixed_los_along_z_is_identity() {
        let los = LineOfSight::Fixed(Vec3::Z);
        let r = los.rotation_for(Vec3::new(5.0, 5.0, 5.0)).unwrap();
        assert_eq!(r, Mat3::IDENTITY);
        assert!(los.is_uniform());
    }

    #[test]
    fn radial_los_per_primary() {
        let los = LineOfSight::Radial {
            observer: Vec3::ZERO,
        };
        let p = Vec3::new(10.0, 0.0, 0.0);
        let r = los.rotation_for(p).unwrap();
        // The line of sight x̂ must map to ẑ.
        assert!((r.mul_vec(Vec3::X) - Vec3::Z).norm() < 1e-10);
        // Degenerate: primary at observer.
        assert!(los.rotation_for(Vec3::ZERO).is_none());
        assert!(!los.is_uniform());
    }

    #[test]
    fn angle_to_los_preserved_by_rotation() {
        // The polar angle of a separation vector w.r.t. the line of sight
        // must equal the polar angle w.r.t. z after rotation.
        let los = LineOfSight::Radial {
            observer: Vec3::new(1.0, 2.0, 3.0),
        };
        let primary = Vec3::new(40.0, -10.0, 25.0);
        let r = los.rotation_for(primary).unwrap();
        let u = (primary - Vec3::new(1.0, 2.0, 3.0)).normalized().unwrap();
        for sep in [
            Vec3::new(1.0, 0.5, -2.0),
            Vec3::new(-3.0, 1.0, 0.0),
            Vec3::new(0.1, 0.1, 0.1),
        ] {
            let cos_before = u.dot(sep.normalized().unwrap());
            let rotated = r.mul_vec(sep);
            let cos_after = rotated.normalized().unwrap().z;
            assert!(
                (cos_before - cos_after).abs() < 1e-10,
                "sep={sep:?}: {cos_before} vs {cos_after}"
            );
        }
    }
}
