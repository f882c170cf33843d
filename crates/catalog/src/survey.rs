//! Survey geometry: angular holes and radial selection.
//!
//! "Astronomical surveys of the sky have many blind spots. For example,
//! they cannot see through the dense center of the Milky Way, or identify
//! galaxies behind the glare of a bright star. Further, the distance to
//! which they can observe galaxies varies over the sky" (paper §6.1).
//! This module models exactly those effects: an observer, a radial shell
//! with a completeness profile, and a set of angular exclusion caps. The
//! random catalogs that Monte-Carlo sample this geometry are produced by
//! [`SurveyGeometry::sample_randoms`].
//!
//! # Conventions
//!
//! Stated once, here, for every consumer (the sky reader in
//! [`crate::sky`], the edge-corrected `SurveyCompute` entry point in
//! `galactos-core`, the survey walkthroughs and bench bins):
//!
//! * **Frame**: the geometry lives in the same comoving h⁻¹ Mpc
//!   Cartesian frame as the catalogs it masks. For sky-ingested
//!   catalogs ([`crate::sky`]) the observer is the **origin**; an
//!   engine run over such a footprint must use the *same* observer in
//!   its radial line of sight (`LineOfSight::Radial { observer }`) or
//!   the multipole frame and the mask frame silently disagree.
//! * **Holes are angular**: a [`Cap`] excludes *directions* seen from
//!   the observer, independent of radius — the model of a bright star
//!   or the galactic plane. Radial selection is separate, via the
//!   piecewise-linear completeness table.
//! * **Randoms are unit-weight** and carry no clustering: they sample
//!   footprint × completeness only, which is exactly what the
//!   edge-correction window multipoles `f_ℓ` must measure. Size them
//!   as a `randfact` multiple of the data catalog
//!   ([`SurveyGeometry::sample_randoms_for`]); `randfact = 2–3` is the
//!   usual survey practice — shot noise from R falls as `1/randfact`
//!   while compute cost in the combined D−R run grows linearly.
//! * **Determinism**: equal `(geometry, n, seed)` always produce the
//!   identical random catalog (a seeded ChaCha stream; no global RNG),
//!   so recorded benchmarks and tests are exactly reproducible.

use crate::galaxy::{Catalog, Galaxy};
use galactos_math::{Aabb, Vec3};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// A spherical cap on the sky, used as an exclusion zone ("hole").
#[derive(Clone, Copy, Debug)]
pub struct Cap {
    /// Unit direction of the cap center (from the observer).
    pub dir: Vec3,
    /// Cosine of the angular radius; a direction `u` is inside the cap
    /// when `u · dir >= cos_radius`.
    pub cos_radius: f64,
}

impl Cap {
    /// Cap centred on `dir` with angular radius `radius_rad`.
    pub fn new(dir: Vec3, radius_rad: f64) -> Self {
        Cap {
            dir: dir.normalized().expect("cap direction must be non-zero"),
            cos_radius: radius_rad.cos(),
        }
    }

    #[inline]
    pub fn contains_direction(&self, u: Vec3) -> bool {
        u.dot(self.dir) >= self.cos_radius
    }
}

/// A survey footprint: radial shell + holes + radial completeness.
#[derive(Clone, Debug)]
pub struct SurveyGeometry {
    /// Observer position (origin of the lines of sight).
    pub observer: Vec3,
    /// Inner and outer comoving radius of the survey shell.
    pub r_min: f64,
    pub r_max: f64,
    /// Angular exclusion caps (bright stars, galactic plane, …).
    pub holes: Vec<Cap>,
    /// Piecewise-linear radial completeness `(r, fraction)` — must be
    /// sorted by `r`; completeness outside the table clamps to the edge
    /// values. Empty table means completeness 1 everywhere.
    pub radial_completeness: Vec<(f64, f64)>,
}

impl SurveyGeometry {
    /// A full-sky shell with no holes and unit completeness.
    pub fn full_shell(observer: Vec3, r_min: f64, r_max: f64) -> Self {
        assert!(r_min >= 0.0 && r_max > r_min);
        SurveyGeometry {
            observer,
            r_min,
            r_max,
            holes: Vec::new(),
            radial_completeness: Vec::new(),
        }
    }

    /// Completeness (selection probability) at radius `r`.
    pub fn completeness(&self, r: f64) -> f64 {
        let table = &self.radial_completeness;
        if table.is_empty() {
            return 1.0;
        }
        if r <= table[0].0 {
            return table[0].1;
        }
        if r >= table[table.len() - 1].0 {
            return table[table.len() - 1].1;
        }
        for w in table.windows(2) {
            let (r0, f0) = w[0];
            let (r1, f1) = w[1];
            if r >= r0 && r <= r1 {
                let t = (r - r0) / (r1 - r0);
                return f0 + t * (f1 - f0);
            }
        }
        1.0
    }

    /// Is `p` inside the geometric footprint (ignoring completeness)?
    pub fn in_footprint(&self, p: Vec3) -> bool {
        let rel = p - self.observer;
        let r = rel.norm();
        if r < self.r_min || r > self.r_max {
            return false;
        }
        match rel.normalized() {
            None => false,
            Some(u) => !self.holes.iter().any(|c| c.contains_direction(u)),
        }
    }

    /// Apply the survey mask to a catalog: galaxies outside the footprint
    /// are dropped; galaxies inside are kept with probability equal to
    /// the radial completeness (deterministic under `seed`).
    pub fn apply(&self, catalog: &Catalog, seed: u64) -> Catalog {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let galaxies: Vec<Galaxy> = catalog
            .galaxies
            .iter()
            .filter(|g| {
                if !self.in_footprint(g.pos) {
                    return false;
                }
                let r = (g.pos - self.observer).norm();
                rng.random_range(0.0..1.0f64) < self.completeness(r)
            })
            .copied()
            .collect();
        Catalog::new(galaxies)
    }

    /// Bounding box of the survey shell.
    pub fn bounding_box(&self) -> Aabb {
        Aabb::new(
            self.observer - Vec3::splat(self.r_max),
            self.observer + Vec3::splat(self.r_max),
        )
    }

    /// Monte-Carlo sample `n` random points with the survey's geometry
    /// and completeness — the "random catalogs" of the estimator
    /// (paper §6.1). Rejection-samples the bounding box.
    pub fn sample_randoms(&self, n: usize, seed: u64) -> Catalog {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let bb = self.bounding_box();
        let mut galaxies = Vec::with_capacity(n);
        let mut guard = 0usize;
        let max_draws = n.saturating_mul(10_000).max(100_000);
        while galaxies.len() < n {
            guard += 1;
            assert!(
                guard <= max_draws,
                "rejection sampling failed to converge — degenerate survey geometry?"
            );
            let p = Vec3::new(
                rng.random_range(bb.lo.x..=bb.hi.x),
                rng.random_range(bb.lo.y..=bb.hi.y),
                rng.random_range(bb.lo.z..=bb.hi.z),
            );
            if !self.in_footprint(p) {
                continue;
            }
            let r = (p - self.observer).norm();
            if rng.random_range(0.0..1.0f64) < self.completeness(r) {
                galaxies.push(Galaxy::unit(p));
            }
        }
        Catalog::new(galaxies)
    }

    /// Sample a random catalog sized at `randfact ×` the data catalog —
    /// the conventional way to size the R catalog of the
    /// data-minus-randoms estimator (correlcalc's `randfact`, default
    /// 2 there; 2–3 is typical survey practice).
    ///
    /// Equivalent to `sample_randoms(randfact * data.len(), seed)`;
    /// panics on an empty data catalog or `randfact = 0`.
    pub fn sample_randoms_for(&self, data: &Catalog, randfact: usize, seed: u64) -> Catalog {
        assert!(randfact >= 1, "randfact must be at least 1");
        assert!(
            !data.is_empty(),
            "cannot size a random catalog against an empty data catalog"
        );
        self.sample_randoms(randfact * data.len(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::uniform_box;

    #[test]
    fn cap_geometry() {
        let cap = Cap::new(Vec3::Z, 0.5);
        assert!(cap.contains_direction(Vec3::Z));
        assert!(!cap.contains_direction(Vec3::X));
        assert!(!cap.contains_direction(-Vec3::Z));
    }

    #[test]
    fn footprint_shell() {
        let s = SurveyGeometry::full_shell(Vec3::ZERO, 10.0, 50.0);
        assert!(s.in_footprint(Vec3::new(30.0, 0.0, 0.0)));
        assert!(!s.in_footprint(Vec3::new(5.0, 0.0, 0.0)));
        assert!(!s.in_footprint(Vec3::new(60.0, 0.0, 0.0)));
        assert!(!s.in_footprint(Vec3::ZERO)); // degenerate direction
    }

    #[test]
    fn holes_exclude_directions() {
        let mut s = SurveyGeometry::full_shell(Vec3::ZERO, 1.0, 100.0);
        s.holes.push(Cap::new(Vec3::Z, 0.3));
        assert!(!s.in_footprint(Vec3::new(0.0, 0.0, 50.0)));
        assert!(s.in_footprint(Vec3::new(50.0, 0.0, 0.0)));
    }

    #[test]
    fn completeness_interpolation() {
        let mut s = SurveyGeometry::full_shell(Vec3::ZERO, 0.0, 100.0);
        s.radial_completeness = vec![(10.0, 1.0), (50.0, 0.5), (100.0, 0.0)];
        assert_eq!(s.completeness(5.0), 1.0);
        assert!((s.completeness(30.0) - 0.75).abs() < 1e-12);
        assert!((s.completeness(75.0) - 0.25).abs() < 1e-12);
        assert_eq!(s.completeness(150.0), 0.0);
        let t = SurveyGeometry::full_shell(Vec3::ZERO, 0.0, 10.0);
        assert_eq!(t.completeness(3.0), 1.0);
    }

    #[test]
    fn apply_filters_catalog() {
        let c = uniform_box(5000, 100.0, 5);
        let mut s = SurveyGeometry::full_shell(Vec3::splat(50.0), 5.0, 40.0);
        s.holes.push(Cap::new(Vec3::Z, 0.5));
        let masked = s.apply(&c, 1);
        assert!(!masked.is_empty());
        assert!(masked.len() < c.len());
        for g in &masked.galaxies {
            assert!(s.in_footprint(g.pos));
        }
    }

    #[test]
    fn randoms_follow_geometry() {
        let mut s = SurveyGeometry::full_shell(Vec3::ZERO, 20.0, 60.0);
        s.holes.push(Cap::new(Vec3::X, 0.6));
        let randoms = s.sample_randoms(2000, 17);
        assert_eq!(randoms.len(), 2000);
        for g in &randoms.galaxies {
            assert!(s.in_footprint(g.pos));
        }
        // Radial distribution should grow like r² within the shell:
        // compare counts in two equal-width radial bins.
        let count = |lo: f64, hi: f64| {
            randoms
                .galaxies
                .iter()
                .filter(|g| {
                    let r = g.pos.norm();
                    r >= lo && r < hi
                })
                .count() as f64
        };
        let inner = count(20.0, 40.0);
        let outer = count(40.0, 60.0);
        // Volume ratio = (60³-40³)/(40³-20³) = 152/56 ≈ 2.71
        let ratio = outer / inner;
        assert!((ratio - 2.71).abs() < 0.6, "ratio {ratio}");
    }

    #[test]
    fn randoms_respect_completeness() {
        let mut s = SurveyGeometry::full_shell(Vec3::ZERO, 10.0, 30.0);
        s.radial_completeness = vec![(10.0, 1.0), (30.0, 0.1)];
        let randoms = s.sample_randoms(3000, 23);
        // Expected suppressed outer counts relative to uniform geometry.
        let inner = randoms
            .galaxies
            .iter()
            .filter(|g| g.pos.norm() < 20.0)
            .count() as f64;
        let outer = randoms
            .galaxies
            .iter()
            .filter(|g| g.pos.norm() >= 20.0)
            .count() as f64;
        // Without completeness, outer/inner ≈ (27000-8000)/(8000-1000) = 2.71;
        // with the ramp the outer bin is strongly suppressed.
        assert!(outer / inner < 1.5, "outer/inner = {}", outer / inner);
    }
}
