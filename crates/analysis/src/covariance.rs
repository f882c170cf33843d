//! Covariance estimation: mock ensembles and spatial jackknife.

use galactos_core::result::AnisotropicZeta;
use galactos_math::linalg::Matrix;

/// A mean vector with its covariance estimate.
#[derive(Clone, Debug)]
pub struct Covariance {
    pub mean: Vec<f64>,
    pub matrix: Matrix,
    pub n_samples: usize,
}

impl Covariance {
    /// Standard deviations (square roots of the diagonal).
    pub fn sigmas(&self) -> Vec<f64> {
        (0..self.mean.len())
            .map(|i| self.matrix[(i, i)].max(0.0).sqrt())
            .collect()
    }
}

/// Unbiased sample covariance over independent measurements (rows).
pub fn sample_covariance(samples: &[Vec<f64>]) -> Covariance {
    let n = samples.len();
    assert!(n >= 2, "need at least two samples");
    let dim = samples[0].len();
    assert!(samples.iter().all(|s| s.len() == dim), "ragged samples");
    scaled_scatter(samples, 1.0 / (n as f64 - 1.0))
}

/// Delete-one jackknife covariance over `n` resampled vectors
/// (`x_(i)` = the statistic with region `i` removed):
/// `C = (n−1)/n · Σ_i (x_(i) − x̄)(x_(i) − x̄)ᵀ`.
pub fn jackknife_covariance(delete_one: &[Vec<f64>]) -> Covariance {
    let n = delete_one.len();
    assert!(n >= 2);
    let dim = delete_one[0].len();
    for s in delete_one {
        assert_eq!(s.len(), dim);
    }
    scaled_scatter(delete_one, (n as f64 - 1.0) / n as f64)
}

/// The mean of `samples` (rows of one length, at least one) and
/// `norm · Σ_s (s − mean)(s − mean)ᵀ`.
fn scaled_scatter(samples: &[Vec<f64>], norm: f64) -> Covariance {
    let n = samples.len();
    let dim = samples[0].len();
    let mut mean = vec![0.0; dim];
    for s in samples {
        for (m, v) in mean.iter_mut().zip(s) {
            *m += v;
        }
    }
    for m in mean.iter_mut() {
        *m /= n as f64;
    }
    let mut matrix = Matrix::zeros(dim, dim);
    for s in samples {
        for i in 0..dim {
            let di = s[i] - mean[i];
            for j in 0..dim {
                matrix[(i, j)] += di * (s[j] - mean[j]);
            }
        }
    }
    for i in 0..dim {
        for j in 0..dim {
            matrix[(i, j)] *= norm;
        }
    }
    Covariance {
        mean,
        matrix,
        n_samples: n,
    }
}

/// Spatial jackknife from per-rank (per-region) ζ partials, exactly as
/// the paper proposes: the delete-one resamples are the normalized full
/// measurement with one region's contribution removed.
///
/// The partials are a distributed run's
/// [`SupervisedRun::shard_partials`](galactos_core::pipeline::SupervisedRun::shard_partials):
/// each region's galaxies as primaries with their halo as secondaries,
/// so their sum is the full measurement, boundary-crossing triangles
/// included.
pub fn jackknife_from_partials(partials: &[AnisotropicZeta]) -> Covariance {
    assert!(partials.len() >= 2, "need at least two regions");
    let mut full = partials[0].clone();
    for p in &partials[1..] {
        full.merge(p);
    }
    let delete_one: Vec<Vec<f64>> = partials
        .iter()
        .map(|p| {
            // full − region p, then normalize per primary weight.
            let mut resample = full.clone();
            for (a, b) in resample.data_mut().iter_mut().zip(p.data().iter()) {
                *a -= *b;
            }
            resample.total_primary_weight -= p.total_primary_weight;
            crate::vectorize::zeta_to_vector(&resample)
        })
        .collect();
    jackknife_covariance(&delete_one)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn sample_covariance_of_known_distribution() {
        // 2-D correlated Gaussian; check mean and covariance recovery.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let n = 20_000;
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let u1: f64 = rng.random_range(f64::EPSILON..1.0);
            let u2: f64 = rng.random_range(0.0..1.0);
            let g1 = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let g2 = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).sin();
            // x = g1, y = 0.6 g1 + 0.8 g2 → var(x)=1, var(y)=1, cov=0.6
            samples.push(vec![1.0 + g1, -2.0 + 0.6 * g1 + 0.8 * g2]);
        }
        let c = sample_covariance(&samples);
        assert!((c.mean[0] - 1.0).abs() < 0.05);
        assert!((c.mean[1] + 2.0).abs() < 0.05);
        assert!((c.matrix[(0, 0)] - 1.0).abs() < 0.07);
        assert!((c.matrix[(1, 1)] - 1.0).abs() < 0.07);
        assert!((c.matrix[(0, 1)] - 0.6).abs() < 0.07);
        let sigmas = c.sigmas();
        assert!((sigmas[0] - 1.0).abs() < 0.04 && (sigmas[1] - 1.0).abs() < 0.04);
    }

    #[test]
    fn jackknife_matches_analytic_mean_variance() {
        // For the sample mean of iid values, jackknife variance equals
        // the standard error of the mean: s²/n.
        let values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let n = values.len();
        let total: f64 = values.iter().sum();
        // delete-one means
        let delete_one: Vec<Vec<f64>> = values
            .iter()
            .map(|v| vec![(total - v) / (n as f64 - 1.0)])
            .collect();
        let c = jackknife_covariance(&delete_one);
        let mean = total / n as f64;
        let s2: f64 =
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n as f64 - 1.0);
        let want = s2 / n as f64;
        assert!(
            (c.matrix[(0, 0)] - want).abs() < 1e-10,
            "{} vs {want}",
            c.matrix[(0, 0)]
        );
    }

    #[test]
    fn partials_jackknife_runs_and_is_sane() {
        use galactos_math::Complex64;
        // Three synthetic regions with slightly different amplitudes.
        let mut partials = Vec::new();
        for (i, amp) in [1.0f64, 1.1, 0.9].iter().enumerate() {
            let mut z = AnisotropicZeta::zeros(1, 1);
            z.add_to(0, 0, 0, 0, 0, Complex64::real(*amp * 10.0));
            z.total_primary_weight = 10.0;
            z.num_primaries = 10 + i as u64;
            partials.push(z);
        }
        let c = jackknife_from_partials(&partials);
        assert_eq!(c.n_samples, 3);
        // The re[0,0,0] component must have non-zero variance.
        let sigma = c.sigmas();
        assert!(sigma[0] > 0.0);
        // And the imaginary component zero variance.
        assert_eq!(sigma[1], 0.0);
    }
}
