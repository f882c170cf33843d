//! Uniform random (Poisson) catalogs.
//!
//! Random catalogs play two roles in the 3PCF pipeline (paper §6.1): they
//! Monte-Carlo sample the survey geometry so its spurious signal can be
//! removed, and they provide null datasets on which every connected
//! multipole of the 3PCF must vanish statistically — the property our
//! statistical tests exploit.

use crate::galaxy::{Catalog, Galaxy};
use galactos_math::{Aabb, Vec3};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// `n` uniform unit-weight galaxies in the periodic cube `[0, box_len)³`.
pub fn uniform_box(n: usize, box_len: f64, seed: u64) -> Catalog {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let galaxies = (0..n)
        .map(|_| {
            Galaxy::unit(Vec3::new(
                rng.random_range(0.0..box_len),
                rng.random_range(0.0..box_len),
                rng.random_range(0.0..box_len),
            ))
        })
        .collect();
    Catalog::new_periodic(galaxies, box_len)
}

/// Poisson-sample a cube at the given number density (galaxies per unit
/// volume); the count itself is Poisson-distributed. The paper's Outer
/// Rim density is 0.071 (Mpc/h)⁻³.
pub fn poisson_box(density: f64, box_len: f64, seed: u64) -> Catalog {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mean = density * box_len * box_len * box_len;
    let n = sample_poisson(mean, &mut rng);
    let galaxies = (0..n)
        .map(|_| {
            Galaxy::unit(Vec3::new(
                rng.random_range(0.0..box_len),
                rng.random_range(0.0..box_len),
                rng.random_range(0.0..box_len),
            ))
        })
        .collect();
    Catalog::new_periodic(galaxies, box_len)
}

/// Draw from a Poisson distribution of the given mean.
///
/// Knuth's product method below `mean = 64`, Gaussian approximation with
/// continuity correction above (adequate for catalog-sized counts).
pub fn sample_poisson(mean: f64, rng: &mut impl Rng) -> usize {
    assert!(mean >= 0.0);
    if mean == 0.0 {
        return 0;
    }
    if mean < 64.0 {
        let limit = (-mean).exp();
        let mut k = 0usize;
        let mut prod: f64 = rng.random_range(0.0..1.0);
        while prod > limit {
            k += 1;
            prod *= rng.random_range(0.0..1.0f64);
        }
        k
    } else {
        // Box-Muller normal approximation N(mean, mean).
        let u1: f64 = rng.random_range(f64::EPSILON..1.0);
        let u2: f64 = rng.random_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (mean + mean.sqrt() * z).round().max(0.0) as usize
    }
}

/// Randomly keep each galaxy with probability `fraction` (thinning).
pub fn subsample(catalog: &Catalog, fraction: f64, seed: u64) -> Catalog {
    assert!((0.0..=1.0).contains(&fraction));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let galaxies: Vec<Galaxy> = catalog
        .galaxies
        .iter()
        .filter(|_| rng.random_range(0.0..1.0f64) < fraction)
        .copied()
        .collect();
    let mut c = Catalog::new(galaxies);
    c.periodic = catalog.periodic;
    if let Some(l) = catalog.periodic {
        c.bounds = Aabb::cube(l);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_box_properties() {
        let c = uniform_box(1000, 50.0, 42);
        assert_eq!(c.len(), 1000);
        assert_eq!(c.periodic, Some(50.0));
        for g in &c.galaxies {
            assert!(g.pos.x >= 0.0 && g.pos.x < 50.0);
            assert_eq!(g.weight, 1.0);
        }
        // Mean position should be near the box center.
        let mean = c.galaxies.iter().fold(Vec3::ZERO, |acc, g| acc + g.pos) / c.len() as f64;
        assert!((mean - Vec3::splat(25.0)).norm() < 3.0, "mean {mean:?}");
    }

    #[test]
    fn determinism_by_seed() {
        let a = uniform_box(100, 10.0, 7);
        let b = uniform_box(100, 10.0, 7);
        let c = uniform_box(100, 10.0, 8);
        assert_eq!(a.galaxies[0].pos, b.galaxies[0].pos);
        assert_ne!(a.galaxies[0].pos, c.galaxies[0].pos);
    }

    #[test]
    fn poisson_sampler_mean_and_variance() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for mean in [0.5, 5.0, 30.0, 200.0] {
            let n = 4000;
            let samples: Vec<f64> = (0..n)
                .map(|_| sample_poisson(mean, &mut rng) as f64)
                .collect();
            let m: f64 = samples.iter().sum::<f64>() / n as f64;
            let v: f64 = samples.iter().map(|s| (s - m) * (s - m)).sum::<f64>() / n as f64;
            assert!(
                (m - mean).abs() < 5.0 * (mean / n as f64).sqrt() + 0.6,
                "mean {mean}: {m}"
            );
            assert!((v / mean - 1.0).abs() < 0.25, "var at mean {mean}: {v}");
        }
    }

    #[test]
    fn poisson_box_density() {
        let c = poisson_box(0.071, 30.0, 11);
        let expected = 0.071 * 30.0f64.powi(3);
        let sigma = expected.sqrt();
        assert!(
            (c.len() as f64 - expected).abs() < 5.0 * sigma,
            "{} vs {expected}",
            c.len()
        );
    }

    #[test]
    fn subsample_fraction() {
        let c = uniform_box(10_000, 10.0, 1);
        let s = subsample(&c, 0.25, 2);
        let frac = s.len() as f64 / c.len() as f64;
        assert!((frac - 0.25).abs() < 0.02, "kept {frac}");
        assert_eq!(s.periodic, Some(10.0));
    }
}
