//! Fiducial-cosmology distances: redshift → comoving distance.
//!
//! Survey catalogs arrive as angles plus redshift; the 3PCF engine
//! wants comoving Cartesian positions. The conversion runs through a
//! *fiducial* flat ΛCDM background — the paper's BOSS target adopts
//! one fixed cosmology for exactly this step — with the line-of-sight
//! comoving distance
//!
//! ```text
//! D_C(z) = (c / H₀) ∫₀^z dz' / E(z'),   E(z) = √(Ωm (1+z)³ + 1 − Ωm)
//! ```
//!
//! evaluated by composite Simpson quadrature.
//!
//! # Conventions
//!
//! Stated once, here, for every consumer (the sky-catalog reader in
//! `galactos-catalog`, the survey walkthroughs):
//!
//! * **Units are h⁻¹ Mpc** by default, matching every distance in the
//!   engine (`Galaxy::pos` is a comoving position in Mpc/h). In these
//!   units the Hubble constant drops out: `c/H₀ = 2997.92… h⁻¹ Mpc`
//!   regardless of `h`; the rare consumer that wants plain Mpc divides
//!   by [`FiducialCosmology::h`].
//! * **Flat ΛCDM only**: `Ω_Λ = 1 − Ω_m`, radiation and curvature are
//!   neglected — sub-0.1% effects at survey redshifts, far below the
//!   fiducial-cosmology systematic itself.
//! * **The quadrature is deterministic**: a fixed step in redshift, so
//!   the same `(Ωm, h, z)` always maps to bit-identical distances and
//!   catalogs ingested twice agree exactly.

/// Speed of light in km s⁻¹ (exact, SI definition).
pub const SPEED_OF_LIGHT_KM_S: f64 = 299_792.458;

/// The Hubble distance `c / (100 km s⁻¹ Mpc⁻¹)` in h⁻¹ Mpc.
///
/// This is `c/H₀` expressed in little-h units, where the value of `h`
/// cancels: 2997.92458 h⁻¹ Mpc.
pub const HUBBLE_DISTANCE: f64 = SPEED_OF_LIGHT_KM_S / 100.0;

/// A flat ΛCDM background cosmology used to turn redshifts into
/// comoving distances.
///
/// ```
/// use galactos_math::cosmology::FiducialCosmology;
///
/// let cosmo = FiducialCosmology::boss_fiducial();
/// let d = cosmo.comoving_distance(0.5); // h⁻¹ Mpc
/// assert!((d - 1317.5).abs() < 1.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FiducialCosmology {
    /// Matter density parameter Ω_m today; Ω_Λ = 1 − Ω_m (flat).
    pub omega_m: f64,
    /// Dimensionless Hubble parameter `h = H₀ / (100 km s⁻¹ Mpc⁻¹)`.
    /// Only consulted when converting out of little-h units.
    pub h: f64,
}

impl FiducialCosmology {
    /// A cosmology with the given Ω_m and h.
    pub fn new(omega_m: f64, h: f64) -> Self {
        assert!(
            omega_m > 0.0 && omega_m <= 1.0,
            "omega_m must lie in (0, 1], got {omega_m}"
        );
        assert!(h > 0.0, "h must be positive, got {h}");
        FiducialCosmology { omega_m, h }
    }

    /// The BOSS analysis fiducial: Ω_m = 0.31, h = 0.676.
    pub fn boss_fiducial() -> Self {
        FiducialCosmology::new(0.31, 0.676)
    }

    /// The dimensionless Hubble rate `E(z) = H(z)/H₀` for flat ΛCDM.
    #[inline]
    pub fn e_of_z(&self, z: f64) -> f64 {
        let a = 1.0 + z;
        (self.omega_m * a * a * a + (1.0 - self.omega_m)).sqrt()
    }

    /// Line-of-sight comoving distance to redshift `z`, in h⁻¹ Mpc.
    ///
    /// Composite Simpson quadrature of `∫ dz/E(z)` with a fixed
    /// redshift step of 1/2048 (≥ 32 panels), accurate to well below
    /// 10⁻⁹ relative over survey redshifts. Panics on negative `z`.
    pub fn comoving_distance(&self, z: f64) -> f64 {
        assert!(z >= 0.0, "redshift must be non-negative, got {z}");
        if z == 0.0 {
            return 0.0;
        }
        // Even panel count at a fixed resolution so equal redshifts
        // always integrate identically.
        let panels = ((z * 2048.0).ceil() as usize).max(32);
        let panels = panels + panels % 2;
        let h = z / panels as f64;
        let f = |zp: f64| 1.0 / self.e_of_z(zp);
        let mut acc = f(0.0) + f(z);
        for i in 1..panels {
            let w = if i % 2 == 1 { 4.0 } else { 2.0 };
            acc += w * f(i as f64 * h);
        }
        HUBBLE_DISTANCE * acc * h / 3.0
    }

    /// Invert [`comoving_distance`](Self::comoving_distance): the
    /// redshift at which the comoving distance equals `d` h⁻¹ Mpc.
    ///
    /// Bisection against the forward quadrature, so the round trip
    /// `redshift_at_distance(comoving_distance(z)) ≈ z` holds to the
    /// bisection tolerance (10⁻¹² in z). Panics on negative `d`.
    pub fn redshift_at_distance(&self, d: f64) -> f64 {
        assert!(d >= 0.0, "distance must be non-negative, got {d}");
        if d == 0.0 {
            return 0.0;
        }
        // Bracket: distance grows monotonically and is ~linear at the
        // Hubble-distance scale, so doubling finds an upper bound fast.
        let mut hi = (d / HUBBLE_DISTANCE).max(1e-6);
        while self.comoving_distance(hi) < d {
            hi *= 2.0;
            assert!(hi < 1e6, "distance {d} beyond any plausible redshift");
        }
        let mut lo = 0.0;
        while hi - lo > 1e-12 {
            let mid = 0.5 * (lo + hi);
            if self.comoving_distance(mid) < d {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_redshift_is_zero_distance() {
        let c = FiducialCosmology::boss_fiducial();
        assert_eq!(c.comoving_distance(0.0), 0.0);
        assert_eq!(c.redshift_at_distance(0.0), 0.0);
    }

    #[test]
    fn einstein_de_sitter_closed_form() {
        // Ωm = 1: D_C = 2 (c/H₀) (1 − 1/√(1+z)).
        let c = FiducialCosmology::new(1.0, 0.7);
        for z in [0.1f64, 0.5, 1.0, 2.0] {
            let want = 2.0 * HUBBLE_DISTANCE * (1.0 - 1.0 / (1.0 + z).sqrt());
            let got = c.comoving_distance(z);
            assert!((got - want).abs() / want < 1e-9, "z={z}: {got} vs {want}");
        }
    }

    #[test]
    fn boss_fiducial_spot_value() {
        // Independent high-resolution trapezoid check at z = 0.5.
        let c = FiducialCosmology::boss_fiducial();
        let n = 400_000;
        let h = 0.5 / n as f64;
        let mut acc = 0.0;
        for i in 0..n {
            let z = (i as f64 + 0.5) * h;
            acc += h / c.e_of_z(z);
        }
        let want = HUBBLE_DISTANCE * acc;
        let got = c.comoving_distance(0.5);
        assert!((got - want).abs() / want < 1e-8, "{got} vs midpoint {want}");
    }

    #[test]
    fn distance_is_monotonic_in_redshift() {
        let c = FiducialCosmology::new(0.315, 0.674);
        let mut prev = 0.0;
        for i in 1..=40 {
            let d = c.comoving_distance(i as f64 * 0.05);
            assert!(d > prev);
            prev = d;
        }
    }

    #[test]
    fn more_matter_means_shorter_distances() {
        // Higher Ωm → faster expansion history → smaller D_C(z).
        let lo = FiducialCosmology::new(0.25, 0.7);
        let hi = FiducialCosmology::new(0.35, 0.7);
        assert!(lo.comoving_distance(0.6) > hi.comoving_distance(0.6));
    }

    #[test]
    fn redshift_distance_roundtrip() {
        let c = FiducialCosmology::boss_fiducial();
        for z in [0.01, 0.2, 0.55, 1.3] {
            let d = c.comoving_distance(z);
            let back = c.redshift_at_distance(d);
            assert!((back - z).abs() < 1e-9, "z={z} roundtrip {back}");
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_redshift_panics() {
        FiducialCosmology::new(0.315, 0.674).comoving_distance(-0.1);
    }
}
