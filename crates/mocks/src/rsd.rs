//! Redshift-space distortions (RSD).
//!
//! "Galaxies' own ('peculiar') velocities ... affect our inference of
//! their positions along the line of sight from their redshifts" (paper
//! §1.1). In the plane-parallel approximation the observed position is
//!
//! ```text
//! s = x + f · ψ_z(x) · ẑ    (Kaiser squashing, linear theory)
//! ```
//!
//! plus an optional incoherent "finger-of-god" dispersion. These
//! distortions are what give the 3PCF non-zero anisotropic multipoles
//! (`m ≠ 0` coefficients) — the signal the Galactos algorithm was built
//! to measure.

use crate::grf::GaussianField;
use galactos_catalog::Catalog;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// RSD model parameters.
#[derive(Clone, Copy, Debug)]
pub struct RsdParams {
    /// Linear growth rate `f ≈ Ω_m^0.55` (≈ 0.78 at z = 0.5); scales the
    /// coherent Kaiser displacement.
    pub growth_rate: f64,
    /// rms of the incoherent small-scale velocity dispersion, in the
    /// same length units as the box (0 disables fingers-of-god).
    pub sigma_v: f64,
    /// Seed for the finger-of-god draws.
    pub seed: u64,
}

impl RsdParams {
    /// Pure Kaiser distortion with growth rate `f`.
    pub fn kaiser(growth_rate: f64) -> Self {
        RsdParams {
            growth_rate,
            sigma_v: 0.0,
            seed: 0,
        }
    }
}

/// Apply plane-parallel RSD along the z-axis: every galaxy's z moves by
/// `f·ψ_z` (CIC-interpolated from the mesh) plus optional Gaussian
/// dispersion, wrapped periodically.
pub(crate) fn apply_plane_parallel(
    catalog: &mut Catalog,
    field: &GaussianField,
    displacement: &[Vec<f64>; 3],
    params: RsdParams,
) {
    let box_len = catalog
        .periodic
        .expect("plane-parallel RSD requires a periodic catalog");
    let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
    for g in &mut catalog.galaxies {
        let psi_z = field.interpolate_cic(&displacement[2], g.pos);
        let mut dz = params.growth_rate * psi_z;
        if params.sigma_v > 0.0 {
            let u1: f64 = rng.random_range(f64::EPSILON..1.0);
            let u2: f64 = rng.random_range(0.0..1.0);
            let gauss = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            dz += params.sigma_v * gauss;
        }
        g.pos.z = (g.pos.z + dz).rem_euclid(box_len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pk::PowerLawSpectrum;

    #[test]
    fn kaiser_displacement_is_coherent_and_periodic() {
        let p = PowerLawSpectrum {
            amplitude: 800.0,
            index: -2.0,
        };
        let (field, psi) = GaussianField::generate_with_displacement(&p, 16, 100.0, 3);
        let mut cat = galactos_catalog::uniform_box(500, 100.0, 5);
        let before = cat.positions();
        apply_plane_parallel(&mut cat, &field, &psi, RsdParams::kaiser(0.7));
        let mut total_shift = 0.0;
        for (b, g) in before.iter().zip(cat.galaxies.iter()) {
            assert_eq!(b.x, g.pos.x);
            assert_eq!(b.y, g.pos.y);
            assert!(g.pos.z >= 0.0 && g.pos.z < 100.0, "z wrapped into box");
            total_shift += (b.z - g.pos.z).abs().min(100.0 - (b.z - g.pos.z).abs());
        }
        assert!(total_shift > 0.0, "no displacement applied");
    }

    #[test]
    fn finger_of_god_adds_dispersion() {
        let p = PowerLawSpectrum {
            amplitude: 1.0,
            index: -1.0,
        };
        let (field, psi) = GaussianField::generate_with_displacement(&p, 8, 50.0, 1);
        let mut a = galactos_catalog::uniform_box(400, 50.0, 9);
        let mut b = a.clone();
        apply_plane_parallel(
            &mut a,
            &field,
            &psi,
            RsdParams {
                growth_rate: 0.0,
                sigma_v: 0.0,
                seed: 2,
            },
        );
        apply_plane_parallel(
            &mut b,
            &field,
            &psi,
            RsdParams {
                growth_rate: 0.0,
                sigma_v: 2.0,
                seed: 2,
            },
        );
        // a unchanged (f=0, σ_v=0); b scattered.
        let moved = a
            .galaxies
            .iter()
            .zip(b.galaxies.iter())
            .filter(|(x, y)| (x.pos.z - y.pos.z).abs() > 1e-9)
            .count();
        assert!(moved > 350, "FoG moved only {moved}");
    }
}
