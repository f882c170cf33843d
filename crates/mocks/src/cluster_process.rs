//! Neyman–Scott cluster process.
//!
//! Galaxy-like small-scale clustering from first principles: Poisson
//! "parent" halos, each dressed with a Poisson number of "children"
//! scattered with an isotropic Gaussian profile. The process is strongly
//! non-Gaussian, so its connected 3-point function is non-zero and
//! positive at the cluster scale — the cheapest dataset on which the
//! 3PCF pipeline must produce signal rather than noise.

use galactos_catalog::random::sample_poisson;
use galactos_catalog::{Catalog, Galaxy};
use galactos_math::Vec3;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Parameters of the Neyman–Scott process.
#[derive(Clone, Copy, Debug)]
pub struct NeymanScott {
    /// Mean number of parent clusters per unit volume.
    pub parent_density: f64,
    /// Mean children per parent.
    pub mean_children: f64,
    /// Gaussian scatter (1-D rms) of children around their parent.
    pub sigma: f64,
}

impl NeymanScott {
    /// Generate a periodic catalog in `[0, box_len)³`.
    pub fn generate(&self, box_len: f64, seed: u64) -> Catalog {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let volume = box_len.powi(3);
        let n_parents = sample_poisson(self.parent_density * volume, &mut rng);
        let mut galaxies = Vec::new();
        for _ in 0..n_parents {
            let parent = Vec3::new(
                rng.random_range(0.0..box_len),
                rng.random_range(0.0..box_len),
                rng.random_range(0.0..box_len),
            );
            let n_children = sample_poisson(self.mean_children, &mut rng);
            for _ in 0..n_children {
                let offset = Vec3::new(
                    gauss(&mut rng) * self.sigma,
                    gauss(&mut rng) * self.sigma,
                    gauss(&mut rng) * self.sigma,
                );
                let p = parent + offset;
                galaxies.push(Galaxy::unit(Vec3::new(
                    p.x.rem_euclid(box_len),
                    p.y.rem_euclid(box_len),
                    p.z.rem_euclid(box_len),
                )));
            }
        }
        Catalog::new_periodic(galaxies, box_len)
    }
}

fn gauss(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_matches_expectation() {
        let ns = NeymanScott {
            parent_density: 0.002,
            mean_children: 20.0,
            sigma: 2.0,
        };
        let cat = ns.generate(50.0, 3);
        let expected = ns.parent_density * ns.mean_children * 50.0f64.powi(3);
        let got = cat.len() as f64;
        assert!(
            (got - expected).abs() < 6.0 * expected.sqrt() + 30.0 * 20.0,
            "{got} vs {expected}"
        );
    }

    #[test]
    fn children_cluster_around_parents() {
        let ns = NeymanScott {
            parent_density: 0.0005,
            mean_children: 30.0,
            sigma: 1.5,
        };
        let cat = ns.generate(60.0, 7);
        // Close-pair excess relative to uniform with the same count.
        let uni = galactos_catalog::uniform_box(cat.len(), 60.0, 91);
        let close = |c: &Catalog, r: f64| -> usize {
            let l = c.periodic.unwrap();
            let mut count = 0;
            for i in 0..c.len() {
                for j in (i + 1)..c.len() {
                    if c.galaxies[i]
                        .pos
                        .periodic_delta(c.galaxies[j].pos, l)
                        .norm()
                        < r
                    {
                        count += 1;
                    }
                }
            }
            count
        };
        let c_ns = close(&cat, 3.0);
        let c_uni = close(&uni, 3.0).max(1);
        assert!(
            c_ns as f64 > 5.0 * c_uni as f64,
            "clustering too weak: {c_ns} vs {c_uni}"
        );
    }

    #[test]
    fn positions_inside_box_and_deterministic() {
        let ns = NeymanScott {
            parent_density: 0.001,
            mean_children: 10.0,
            sigma: 5.0,
        };
        let a = ns.generate(30.0, 5);
        let b = ns.generate(30.0, 5);
        assert_eq!(a.len(), b.len());
        for g in &a.galaxies {
            assert!(g.pos.x >= 0.0 && g.pos.x < 30.0);
            assert!(g.pos.y >= 0.0 && g.pos.y < 30.0);
            assert!(g.pos.z >= 0.0 && g.pos.z < 30.0);
        }
    }
}
