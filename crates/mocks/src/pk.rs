//! Model power spectra.
//!
//! The 3PCF's scientific payload in the paper's Figure 1 is the BAO
//! feature — a preferred separation of ~100 Mpc/h imprinted on the
//! galaxy field. We model it phenomenologically: a smooth broken-power-
//! law transfer shape times a Silk-damped sinusoid. The exact transfer
//! function details (Eisenstein & Hu 1998) are irrelevant for exercising
//! the 3PCF pipeline; what matters is a realistic turnover, a BAO bump
//! at a controllable scale, and the ability to switch the wiggles off
//! for a no-BAO control sample.

/// A power spectrum `P(k)` in (Mpc/h)³ as a function of `k` in h/Mpc.
pub trait PowerSpectrum: Send + Sync {
    fn power(&self, k: f64) -> f64;

    /// The real-space correlation function `ξ(r) = (1/2π²)∫ dk k² P(k)
    /// j₀(kr)`, by direct quadrature with a smooth high-k cutoff.
    /// Used by tests that compare measured clustering against the input.
    fn correlation(&self, r: f64, kmax: f64, nk: usize) -> f64 {
        let dk = kmax / nk as f64;
        let mut acc = 0.0;
        for i in 0..nk {
            let k = (i as f64 + 0.5) * dk;
            let x = k * r;
            let j0 = if x.abs() < 1e-8 { 1.0 } else { x.sin() / x };
            // Gaussian taper suppresses ringing from the hard cutoff.
            let taper = (-(k / (0.6 * kmax)).powi(2)).exp();
            acc += k * k * self.power(k) * j0 * taper * dk;
        }
        acc / (2.0 * std::f64::consts::PI * std::f64::consts::PI)
    }
}

/// `P(k) = amplitude · k^index` — scale-free clustering.
#[derive(Clone, Copy, Debug)]
pub struct PowerLawSpectrum {
    pub amplitude: f64,
    pub index: f64,
}

impl PowerSpectrum for PowerLawSpectrum {
    fn power(&self, k: f64) -> f64 {
        if k <= 0.0 {
            return 0.0;
        }
        self.amplitude * k.powf(self.index)
    }
}

/// Phenomenological ΛCDM-like spectrum with optional BAO wiggles:
///
/// ```text
/// P(k) = A · (k/k_eq)^ns / (1 + (k/k_eq)²)² · W(k)
/// W(k) = 1 + a_bao · sin(k · r_bao) · exp(−(k/k_silk)²)   (wiggles on)
/// ```
///
/// The smooth part peaks near `k_eq` (matter-radiation equality) and
/// falls as `k^{ns−4}` at high k, qualitatively matching ΛCDM; `r_bao`
/// sets the acoustic scale (~105 Mpc/h comoving).
#[derive(Clone, Copy, Debug)]
pub struct BaoSpectrum {
    /// Overall amplitude A (sets σ₈-like normalization).
    pub amplitude: f64,
    /// Spectral index ns (≈ 0.96).
    pub ns: f64,
    /// Turnover scale in h/Mpc (≈ 0.016).
    pub k_eq: f64,
    /// Acoustic scale in Mpc/h (≈ 105).
    pub r_bao: f64,
    /// Wiggle amplitude (≈ 0.05–0.1); 0 disables BAO.
    pub a_bao: f64,
    /// Silk damping scale in h/Mpc (≈ 0.15).
    pub k_silk: f64,
}

impl BaoSpectrum {
    /// The same smooth spectrum with wiggles switched off — the no-BAO
    /// control sample for the Figure 1 comparison.
    pub fn no_wiggle(mut self) -> Self {
        self.a_bao = 0.0;
        self
    }
}

impl PowerSpectrum for BaoSpectrum {
    fn power(&self, k: f64) -> f64 {
        if k <= 0.0 {
            return 0.0;
        }
        let x = k / self.k_eq;
        let smooth = self.amplitude * x.powf(self.ns) / (1.0 + x * x).powi(2);
        let wiggle = 1.0 + self.a_bao * (k * self.r_bao).sin() * (-(k / self.k_silk).powi(2)).exp();
        smooth * wiggle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parameters tuned to give ~10% rms density fluctuations on
    /// 8 Mpc/h scales when sampled on typical mock meshes.
    fn fiducial() -> BaoSpectrum {
        BaoSpectrum {
            amplitude: 2.0e5,
            ns: 0.96,
            k_eq: 0.016,
            r_bao: 105.0,
            a_bao: 0.08,
            k_silk: 0.15,
        }
    }

    #[test]
    fn power_law_scaling() {
        let p = PowerLawSpectrum {
            amplitude: 3.0,
            index: -1.5,
        };
        assert!((p.power(1.0) - 3.0).abs() < 1e-12);
        assert!((p.power(4.0) - 3.0 * 4.0f64.powf(-1.5)).abs() < 1e-12);
        assert_eq!(p.power(0.0), 0.0);
    }

    #[test]
    fn bao_spectrum_positive_and_peaked() {
        let p = fiducial();
        let ks: Vec<f64> = (1..2000).map(|i| i as f64 * 1e-3).collect();
        let values: Vec<f64> = ks.iter().map(|&k| p.power(k)).collect();
        assert!(values.iter().all(|&v| v > 0.0), "P(k) must stay positive");
        // Peak near k_eq: value at k_eq should exceed values far away.
        let at_eq = p.power(p.k_eq);
        assert!(at_eq > p.power(p.k_eq * 30.0));
        assert!(at_eq > p.power(p.k_eq / 30.0));
    }

    #[test]
    fn wiggles_modulate_smooth_spectrum() {
        let w = fiducial();
        let s = w.no_wiggle();
        // Ratio oscillates around 1 with amplitude ≤ a_bao.
        let mut max_dev = 0.0f64;
        for i in 1..400 {
            let k = i as f64 * 1e-3;
            let ratio = w.power(k) / s.power(k);
            max_dev = max_dev.max((ratio - 1.0).abs());
            assert!((ratio - 1.0).abs() <= w.a_bao + 1e-12);
        }
        assert!(max_dev > 0.5 * w.a_bao, "wiggles too weak: {max_dev}");
    }

    #[test]
    fn correlation_function_shows_bao_peak() {
        // ξ(r) from the wiggle spectrum must show a feature near r_bao
        // that the no-wiggle spectrum lacks. Silk damping smears the
        // feature over ~±15 Mpc/h, so compare a window around the peak
        // against well-separated scales.
        let w = fiducial();
        let s = w.no_wiggle();
        let xi_diff = |r: f64| w.correlation(r, 1.0, 4000) - s.correlation(r, 1.0, 4000);
        let at_peak = [95.0, 100.0, 105.0, 110.0]
            .iter()
            .map(|&r| xi_diff(r))
            .fold(f64::NEG_INFINITY, f64::max);
        let off_peak = [40.0, 50.0, 165.0, 180.0]
            .iter()
            .map(|&r| xi_diff(r).abs())
            .fold(0.0, f64::max);
        assert!(
            at_peak > 0.0 && at_peak > 1.5 * off_peak,
            "BAO peak not localized: at={at_peak} off={off_peak}"
        );
    }

    #[test]
    fn correlation_decreases_at_large_r() {
        let p = fiducial();
        let xi10 = p.correlation(10.0, 1.0, 2000);
        let xi150 = p.correlation(150.0, 1.0, 2000).abs();
        assert!(xi10 > 0.0);
        assert!(xi10 > 10.0 * xi150, "ξ must decay: {xi10} vs {xi150}");
    }
}
