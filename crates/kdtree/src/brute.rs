//! Brute-force reference searcher.
//!
//! O(N) per query; the ground truth the tree's padded gather and
//! counting query are tested against.

use galactos_math::Vec3;

/// A flat list of points searched linearly.
#[derive(Clone, Debug)]
// lint:allow(W-DEADPUB): oracle for KdTree::{gather_neighbors, count_within} in tree.rs tests and kdtree/tests/proptests.rs
pub struct BruteForce {
    points: Vec<Vec3>,
}

impl BruteForce {
    pub fn new(points: &[Vec3]) -> Self {
        BruteForce {
            points: points.to_vec(),
        }
    }

    /// Indices of all points within `radius` of `center` (inclusive).
    pub fn within(&self, center: Vec3, radius: f64) -> Vec<u32> {
        let r2 = radius * radius;
        self.points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance_sq(center) <= r2)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Count of points within `radius` of `center`.
    pub fn count_within(&self, center: Vec3, radius: f64) -> usize {
        let r2 = radius * radius;
        self.points
            .iter()
            .filter(|p| p.distance_sq(center) <= r2)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_and_count_agree() {
        let pts = vec![
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 2.0, 0.0),
            Vec3::new(0.0, 0.0, 3.0),
        ];
        let b = BruteForce::new(&pts);
        assert_eq!(b.within(Vec3::ZERO, 2.5), vec![0, 1, 2]);
        assert_eq!(b.count_within(Vec3::ZERO, 2.5), 3);
    }
}
