//! Gaussian random fields on a periodic mesh.
//!
//! Standard spectral synthesis: draw unit white noise in real space,
//! transform, scale each mode by `√(P(k)·N³/V)` so the *measured* power
//! of the result matches the target spectrum, transform back. The same
//! machinery produces the linear-theory (Zel'dovich) displacement field
//! `ψ_k = i k̂/k · δ_k / k`, whose line-of-sight component drives the
//! redshift-space distortions that make the anisotropic 3PCF signal.

use crate::pk::PowerSpectrum;
use galactos_math::fft::{signed_mode, Direction, Mesh3};
use galactos_math::{Complex64, Vec3};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// A realized Gaussian density field δ(x) on an `n³` periodic mesh.
#[derive(Clone, Debug)]
pub struct GaussianField {
    n: usize,
    box_len: f64,
    delta: Vec<f64>,
}

impl GaussianField {
    /// Synthesize a field with the target spectrum.
    pub fn generate(spectrum: &dyn PowerSpectrum, n: usize, box_len: f64, seed: u64) -> Self {
        let mut mesh = Self::noise_k_space(n, seed);
        Self::apply_transfer(&mut mesh, spectrum, n, box_len);
        mesh.fft3(Direction::Inverse);
        debug_assert!(mesh.max_imag() < 1e-8, "imag {}", mesh.max_imag());
        GaussianField {
            n,
            box_len,
            delta: mesh.to_real(),
        }
    }

    /// Synthesize the field together with the three components of the
    /// Zel'dovich displacement `ψ` (satisfying `∇·ψ = −δ`).
    pub fn generate_with_displacement(
        spectrum: &dyn PowerSpectrum,
        n: usize,
        box_len: f64,
        seed: u64,
    ) -> (Self, [Vec<f64>; 3]) {
        let mut delta_k = Self::noise_k_space(n, seed);
        Self::apply_transfer(&mut delta_k, spectrum, n, box_len);

        // ψ_a(k) = i k_a / k² · δ(k)
        let kf = 2.0 * std::f64::consts::PI / box_len;
        let mut psi = Vec::with_capacity(3);
        for axis in 0..3 {
            let mut m = delta_k.clone();
            for i in 0..n {
                let ki = kf * signed_mode(i, n) as f64;
                for j in 0..n {
                    let kj = kf * signed_mode(j, n) as f64;
                    for k in 0..n {
                        let kk = kf * signed_mode(k, n) as f64;
                        let k2 = ki * ki + kj * kj + kk * kk;
                        if k2 == 0.0 {
                            m.set(i, j, k, Complex64::ZERO);
                        } else {
                            let ka = [ki, kj, kk][axis];
                            let v = m.get(i, j, k);
                            m.set(i, j, k, Complex64::I * v * (ka / k2));
                        }
                    }
                }
            }
            m.fft3(Direction::Inverse);
            psi.push(m.to_real());
        }
        delta_k.fft3(Direction::Inverse);
        let field = GaussianField {
            n,
            box_len,
            delta: delta_k.to_real(),
        };
        let psi: [Vec<f64>; 3] = psi.try_into().unwrap();
        (field, psi)
    }

    /// White Gaussian noise transformed to k-space (Hermitian because the
    /// real-space input is real).
    fn noise_k_space(n: usize, seed: u64) -> Mesh3 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let total = n * n * n;
        let mut values = Vec::with_capacity(total);
        // Box–Muller pairs.
        while values.len() < total {
            let u1: f64 = rng.random_range(f64::EPSILON..1.0);
            let u2: f64 = rng.random_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let (s, c) = (2.0 * std::f64::consts::PI * u2).sin_cos();
            values.push(r * c);
            if values.len() < total {
                values.push(r * s);
            }
        }
        let mut mesh = Mesh3::from_real(n, &values);
        mesh.fft3(Direction::Forward);
        mesh
    }

    /// Scale k-space white noise by `√(P(k) N³ / V)`; zero the DC mode.
    fn apply_transfer(mesh: &mut Mesh3, spectrum: &dyn PowerSpectrum, n: usize, box_len: f64) {
        let kf = 2.0 * std::f64::consts::PI / box_len;
        let volume = box_len.powi(3);
        let norm = (n * n * n) as f64 / volume;
        for i in 0..n {
            let ki = kf * signed_mode(i, n) as f64;
            for j in 0..n {
                let kj = kf * signed_mode(j, n) as f64;
                for k in 0..n {
                    let kk = kf * signed_mode(k, n) as f64;
                    let kmag = (ki * ki + kj * kj + kk * kk).sqrt();
                    if kmag == 0.0 {
                        mesh.set(i, j, k, Complex64::ZERO);
                    } else {
                        let s = (spectrum.power(kmag) * norm).sqrt();
                        mesh.set(i, j, k, mesh.get(i, j, k) * s);
                    }
                }
            }
        }
    }

    #[inline]
    pub fn side(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn box_len(&self) -> f64 {
        self.box_len
    }

    #[inline]
    pub fn delta(&self) -> &[f64] {
        &self.delta
    }

    /// Mean of δ (≈ 0 by construction).
    pub fn mean(&self) -> f64 {
        self.delta.iter().sum::<f64>() / self.delta.len() as f64
    }

    /// Standard deviation of δ on the mesh.
    pub fn sigma(&self) -> f64 {
        let m = self.mean();
        (self.delta.iter().map(|&d| (d - m) * (d - m)).sum::<f64>() / self.delta.len() as f64)
            .sqrt()
    }

    /// Cloud-in-cell (trilinear, periodic) sample of a mesh-sampled
    /// scalar field `values` (must have `n³` entries) at `pos`.
    pub fn interpolate_cic(&self, values: &[f64], pos: Vec3) -> f64 {
        assert_eq!(values.len(), self.n * self.n * self.n);
        let n = self.n as i64;
        let cell = self.box_len / self.n as f64;
        // Cell centers sit at (i + 0.5) * cell.
        let gx = pos.x / cell - 0.5;
        let gy = pos.y / cell - 0.5;
        let gz = pos.z / cell - 0.5;
        let (i0, fx) = (gx.floor() as i64, gx - gx.floor());
        let (j0, fy) = (gy.floor() as i64, gy - gy.floor());
        let (k0, fz) = (gz.floor() as i64, gz - gz.floor());
        let mut acc = 0.0;
        for (di, wi) in [(0i64, 1.0 - fx), (1, fx)] {
            let i = (i0 + di).rem_euclid(n) as usize;
            for (dj, wj) in [(0i64, 1.0 - fy), (1, fy)] {
                let j = (j0 + dj).rem_euclid(n) as usize;
                for (dk, wk) in [(0i64, 1.0 - fz), (1, fz)] {
                    let k = (k0 + dk).rem_euclid(n) as usize;
                    acc += wi * wj * wk * values[(i * self.n + j) * self.n + k];
                }
            }
        }
        acc
    }

    /// Measure the isotropically binned power spectrum of the realized
    /// field: returns `(k_center, P(k), mode count)` per bin.
    // lint:allow(W-DEADPUB): oracle for the realized field's spectrum against the input P(k) (grf.rs tests, tests/statistical.rs)
    pub fn measure_power(&self, nbins: usize) -> Vec<(f64, f64, usize)> {
        let n = self.n;
        let mut mesh = Mesh3::from_real(n, &self.delta);
        mesh.fft3(Direction::Forward);
        let kf = 2.0 * std::f64::consts::PI / self.box_len;
        let k_nyquist = kf * (n as f64) / 2.0;
        let volume = self.box_len.powi(3);
        let n6 = ((n * n * n) as f64).powi(2);
        let mut power = vec![0.0f64; nbins];
        let mut ksum = vec![0.0f64; nbins];
        let mut count = vec![0usize; nbins];
        for i in 0..n {
            let ki = kf * signed_mode(i, n) as f64;
            for j in 0..n {
                let kj = kf * signed_mode(j, n) as f64;
                for k in 0..n {
                    let kk = kf * signed_mode(k, n) as f64;
                    let kmag = (ki * ki + kj * kj + kk * kk).sqrt();
                    if kmag == 0.0 || kmag >= k_nyquist {
                        continue;
                    }
                    let bin = ((kmag / k_nyquist) * nbins as f64) as usize;
                    let p = mesh.get(i, j, k).norm_sq() * volume / n6;
                    power[bin] += p;
                    ksum[bin] += kmag;
                    count[bin] += 1;
                }
            }
        }
        (0..nbins)
            .filter(|&b| count[b] > 0)
            .map(|b| {
                (
                    ksum[b] / count[b] as f64,
                    power[b] / count[b] as f64,
                    count[b],
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pk::{PowerLawSpectrum, PowerSpectrum};

    #[test]
    fn signed_modes() {
        assert_eq!(signed_mode(0, 8), 0);
        assert_eq!(signed_mode(3, 8), 3);
        assert_eq!(signed_mode(4, 8), 4);
        assert_eq!(signed_mode(5, 8), -3);
        assert_eq!(signed_mode(7, 8), -1);
    }

    #[test]
    fn field_is_deterministic_and_zero_mean() {
        let p = PowerLawSpectrum {
            amplitude: 100.0,
            index: -1.0,
        };
        let a = GaussianField::generate(&p, 16, 100.0, 5);
        let b = GaussianField::generate(&p, 16, 100.0, 5);
        assert_eq!(a.delta()[0], b.delta()[0]);
        assert!(a.mean().abs() < 1e-10, "mean {}", a.mean());
        assert!(a.sigma() > 0.0);
    }

    #[test]
    fn measured_power_matches_input() {
        // The realized spectrum must track the target within sample
        // variance (bins hold many modes at high k).
        let p = PowerLawSpectrum {
            amplitude: 500.0,
            index: -1.5,
        };
        let f = GaussianField::generate(&p, 32, 200.0, 11);
        let measured = f.measure_power(8);
        assert!(measured.len() >= 6);
        let mut checked = 0;
        for &(k, pk, nmodes) in &measured {
            if nmodes < 50 {
                continue; // skip noisy low-k bins
            }
            let target = p.power(k);
            let rel = (pk / target - 1.0).abs();
            // Sample variance per bin ~ sqrt(2/nmodes); allow 5 sigma +
            // binning bias slack.
            let tol = 5.0 * (2.0 / nmodes as f64).sqrt() + 0.25;
            assert!(rel < tol, "k={k}: measured {pk} vs {target} (rel {rel})");
            checked += 1;
        }
        assert!(checked >= 4, "too few populated bins");
    }

    /// A band-limited spectrum (Gaussian cutoff far below Nyquist) so
    /// that finite differences converge on the mesh.
    struct SmoothSpectrum {
        kc: f64,
    }
    impl PowerSpectrum for SmoothSpectrum {
        fn power(&self, k: f64) -> f64 {
            1000.0 * (-(k / self.kc).powi(2)).exp()
        }
    }

    #[test]
    fn displacement_divergence_is_minus_delta() {
        // ∇·ψ = −δ: check with central finite differences on the mesh.
        // Use a band-limited field — finite differences are only accurate
        // when the field has little power near the Nyquist frequency.
        let n = 16usize;
        let box_len = 100.0;
        let k_nyquist = std::f64::consts::PI * n as f64 / box_len;
        let p = SmoothSpectrum {
            kc: 0.15 * k_nyquist,
        };
        let (field, psi) = GaussianField::generate_with_displacement(&p, n, box_len, 3);
        let cell = box_len / n as f64;
        let idx = |i: usize, j: usize, k: usize| (i * n + j) * n + k;
        let mut worst: f64 = 0.0;
        let mut scale: f64 = 0.0;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let ip = (i + 1) % n;
                    let im = (i + n - 1) % n;
                    let jp = (j + 1) % n;
                    let jm = (j + n - 1) % n;
                    let kp = (k + 1) % n;
                    let km = (k + n - 1) % n;
                    let div = (psi[0][idx(ip, j, k)] - psi[0][idx(im, j, k)]
                        + psi[1][idx(i, jp, k)]
                        - psi[1][idx(i, jm, k)]
                        + psi[2][idx(i, j, kp)]
                        - psi[2][idx(i, j, km)])
                        / (2.0 * cell);
                    let want = -field.delta()[idx(i, j, k)];
                    worst = worst.max((div - want).abs());
                    scale = scale.max(want.abs());
                }
            }
        }
        // Central differences are 2nd order; the band limit keeps the
        // residual well under 10% of the field scale.
        assert!(
            worst < 0.1 * scale,
            "divergence error {worst} vs scale {scale}"
        );
    }

    #[test]
    fn cic_interpolation_reproduces_constant_and_is_periodic() {
        let p = PowerLawSpectrum {
            amplitude: 1.0,
            index: -1.0,
        };
        let f = GaussianField::generate(&p, 8, 10.0, 1);
        let constant = vec![3.5; 8 * 8 * 8];
        for pos in [
            Vec3::new(0.1, 5.0, 9.9),
            Vec3::new(4.2, 0.0, 2.0),
            Vec3::new(9.99, 9.99, 9.99),
        ] {
            assert!((f.interpolate_cic(&constant, pos) - 3.5).abs() < 1e-12);
        }
        // Periodicity: sampling at x and x + L gives the same value.
        let vals: Vec<f64> = f.delta().to_vec();
        let a = f.interpolate_cic(&vals, Vec3::new(1.0, 2.0, 3.0));
        let b = f.interpolate_cic(&vals, Vec3::new(11.0, 2.0, 3.0));
        assert!((a - b).abs() < 1e-12);
    }
}
