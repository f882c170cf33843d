//! Galaxy and catalog containers.

use galactos_math::{Aabb, Vec3};

/// A single tracer: a 3-D comoving position (Mpc/h) and a weight.
///
/// Data objects carry positive weights (usually 1); random-catalog
/// objects carry negative weights scaled so that the combined catalog has
/// zero total weight — the `D − (N_D/N_R)·R` field whose multipoles
/// estimate the clustering of the *overdensity* (Slepian & Eisenstein
/// 2015 §3; paper §6.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Galaxy {
    pub pos: Vec3,
    pub weight: f64,
}

impl Galaxy {
    #[inline]
    pub fn new(pos: Vec3, weight: f64) -> Self {
        Galaxy { pos, weight }
    }

    /// A unit-weight galaxy.
    #[inline]
    pub fn unit(pos: Vec3) -> Self {
        Galaxy { pos, weight: 1.0 }
    }
}

/// A collection of galaxies with known spatial bounds and optional
/// periodic-box topology.
#[derive(Clone, Debug)]
pub struct Catalog {
    pub galaxies: Vec<Galaxy>,
    /// Spatial bounds (derived from the data unless declared).
    pub bounds: Aabb,
    /// `Some(L)` when the catalog lives in a periodic cube `[0, L)³`
    /// (simulation snapshots); `None` for survey data.
    pub periodic: Option<f64>,
}

impl Catalog {
    /// Catalog with bounds computed from the data.
    pub fn new(galaxies: Vec<Galaxy>) -> Self {
        let mut bounds = Aabb::empty();
        for g in &galaxies {
            bounds.expand(g.pos);
        }
        Catalog {
            galaxies,
            bounds,
            periodic: None,
        }
    }

    /// Catalog declared to live in the periodic cube `[0, box_len)³`.
    ///
    /// Panics if any galaxy lies outside the cube.
    pub fn new_periodic(galaxies: Vec<Galaxy>, box_len: f64) -> Self {
        let cube = Aabb::cube(box_len);
        for g in &galaxies {
            assert!(
                cube.contains(g.pos),
                "galaxy at {:?} outside periodic box of length {box_len}",
                g.pos
            );
        }
        Catalog {
            galaxies,
            bounds: cube,
            periodic: Some(box_len),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.galaxies.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.galaxies.is_empty()
    }

    /// Positions only, in catalog order.
    pub fn positions(&self) -> Vec<Vec3> {
        self.galaxies.iter().map(|g| g.pos).collect()
    }

    /// Sum of weights.
    pub fn total_weight(&self) -> f64 {
        self.galaxies.iter().map(|g| g.weight).sum()
    }

    /// Recompute bounds from data (call after mutating positions).
    pub fn recompute_bounds(&mut self) {
        let mut bounds = Aabb::empty();
        for g in &self.galaxies {
            bounds.expand(g.pos);
        }
        self.bounds = bounds;
    }

    /// Combine a data catalog and a random catalog into the
    /// data-minus-randoms field: data weights unchanged, random weights
    /// rescaled to `−W_D / W_R` each (so the total weight is zero).
    ///
    /// Panics if the random catalog has zero total weight.
    pub fn data_minus_randoms(data: &Catalog, randoms: &Catalog) -> Catalog {
        let wd = data.total_weight();
        let wr = randoms.total_weight();
        assert!(wr != 0.0, "random catalog must have non-zero total weight");
        let scale = -wd / wr;
        let mut galaxies = Vec::with_capacity(data.len() + randoms.len());
        galaxies.extend_from_slice(&data.galaxies);
        galaxies.extend(
            randoms
                .galaxies
                .iter()
                .map(|g| Galaxy::new(g.pos, g.weight * scale)),
        );
        let mut c = Catalog::new(galaxies);
        c.periodic = data.periodic;
        c
    }

    /// Translate every galaxy by `offset` (bounds follow).
    pub fn translate(&mut self, offset: Vec3) {
        for g in &mut self.galaxies {
            g.pos += offset;
        }
        self.bounds = Aabb::new(self.bounds.lo + offset, self.bounds.hi + offset);
    }

    /// Extract the sub-box `region` as a new (non-periodic) catalog,
    /// used to carve weak-scaling datasets out of a big box (Table 1).
    pub fn extract_region(&self, region: &Aabb) -> Catalog {
        let galaxies: Vec<Galaxy> = self
            .galaxies
            .iter()
            .filter(|g| region.contains(g.pos))
            .copied()
            .collect();
        Catalog::new(galaxies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Catalog {
        Catalog::new(vec![
            Galaxy::unit(Vec3::new(0.0, 0.0, 0.0)),
            Galaxy::new(Vec3::new(1.0, 2.0, 3.0), 2.0),
            Galaxy::unit(Vec3::new(-1.0, 4.0, 0.5)),
        ])
    }

    #[test]
    fn bounds_derived_from_data() {
        let c = sample();
        assert_eq!(c.bounds.lo, Vec3::new(-1.0, 0.0, 0.0));
        assert_eq!(c.bounds.hi, Vec3::new(1.0, 4.0, 3.0));
        assert_eq!(c.len(), 3);
        assert_eq!(c.total_weight(), 4.0);
    }

    #[test]
    fn periodic_validation() {
        let ok = Catalog::new_periodic(vec![Galaxy::unit(Vec3::splat(5.0))], 10.0);
        assert_eq!(ok.periodic, Some(10.0));
    }

    #[test]
    #[should_panic(expected = "outside periodic box")]
    fn periodic_rejects_outside_points() {
        Catalog::new_periodic(vec![Galaxy::unit(Vec3::splat(15.0))], 10.0);
    }

    #[test]
    fn data_minus_randoms_has_zero_weight() {
        let data = sample();
        let randoms = Catalog::new(
            [
                Vec3::new(0.5, 0.5, 0.5),
                Vec3::new(0.2, 3.0, 1.0),
                Vec3::new(0.9, 1.0, 2.0),
                Vec3::new(0.0, 2.0, 2.5),
            ]
            .map(Galaxy::unit)
            .to_vec(),
        );
        let combined = Catalog::data_minus_randoms(&data, &randoms);
        assert_eq!(combined.len(), 7);
        assert!(combined.total_weight().abs() < 1e-12);
        // data weights unchanged
        assert_eq!(combined.galaxies[1].weight, 2.0);
        // random weights negative
        assert!(combined.galaxies[4].weight < 0.0);
    }

    #[test]
    fn translate_moves_galaxies_and_bounds() {
        let mut t = sample();
        t.translate(Vec3::splat(10.0));
        assert_eq!(t.galaxies[0].pos, Vec3::splat(10.0));
        assert_eq!(t.bounds.lo, Vec3::new(9.0, 10.0, 10.0));
    }

    #[test]
    fn extract_region_filters() {
        let c = sample();
        let r = c.extract_region(&Aabb::new(Vec3::ZERO, Vec3::splat(5.0)));
        assert_eq!(r.len(), 2); // the galaxy at x=-1 is excluded
    }
}
