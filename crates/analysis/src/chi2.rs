//! χ² statistics and detection significance.
//!
//! "This matrix needs to be inverted to optimally weight the data when
//! fitting a model to it" (paper §6.1). The inverse of a noisy sample
//! covariance is biased; the standard Hartlap factor corrects it.

use crate::covariance::Covariance;
use galactos_math::linalg::Matrix;

/// Hartlap correction factor `(n − p − 2)/(n − 1)` multiplying the
/// inverse of a covariance estimated from `n` samples in `p` dimensions.
pub(crate) fn hartlap_factor(n_samples: usize, dim: usize) -> f64 {
    assert!(
        n_samples > dim + 2,
        "need more samples ({n_samples}) than dimensions + 2 ({dim} + 2)"
    );
    (n_samples as f64 - dim as f64 - 2.0) / (n_samples as f64 - 1.0)
}

/// χ² of `data` against `model` under `cov` (Hartlap-corrected inverse).
/// Returns `None` when the covariance is singular.
pub fn chi_squared(data: &[f64], model: &[f64], cov: &Covariance) -> Option<f64> {
    assert_eq!(data.len(), model.len());
    assert_eq!(data.len(), cov.mean.len());
    let resid: Vec<f64> = data.iter().zip(model).map(|(d, m)| d - m).collect();
    let solved = cov.matrix.solve(&resid)?;
    let raw: f64 = resid.iter().zip(&solved).map(|(r, s)| r * s).sum();
    Some(raw * hartlap_factor(cov.n_samples, data.len()))
}

/// Detection significance `√(xᵀ C⁻¹ x)` of a signal vector against the
/// null hypothesis of zero, with the Hartlap correction.
pub fn detection_snr(signal: &[f64], cov: &Covariance) -> Option<f64> {
    chi_squared(signal, &vec![0.0; signal.len()], cov).map(|c| c.max(0.0).sqrt())
}

/// Restrict a covariance to a subset of components (useful when the
/// full ζ vector has far more dimensions than available samples).
pub fn project_components(cov: &Covariance, indices: &[usize]) -> Covariance {
    let k = indices.len();
    let mut matrix = Matrix::zeros(k, k);
    let mut mean = Vec::with_capacity(k);
    for (a, &i) in indices.iter().enumerate() {
        mean.push(cov.mean[i]);
        for (b, &j) in indices.iter().enumerate() {
            matrix[(a, b)] = cov.matrix[(i, j)];
        }
    }
    Covariance {
        mean,
        matrix,
        n_samples: cov.n_samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag_cov(vars: &[f64], n: usize) -> Covariance {
        let d = vars.len();
        let mut m = Matrix::zeros(d, d);
        for i in 0..d {
            m[(i, i)] = vars[i];
        }
        Covariance {
            mean: vec![0.0; d],
            matrix: m,
            n_samples: n,
        }
    }

    #[test]
    fn hartlap_limits() {
        assert!((hartlap_factor(100, 1) - 97.0 / 99.0).abs() < 1e-12);
        // Large n → factor → 1.
        assert!((hartlap_factor(100_000, 10) - 1.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "need more samples")]
    fn hartlap_rejects_underdetermined() {
        hartlap_factor(5, 10);
    }

    #[test]
    fn chi2_diagonal_case() {
        let cov = diag_cov(&[4.0, 9.0], 1000);
        let data = [2.0, -3.0];
        let model = [0.0, 0.0];
        // raw chi2 = 4/4 + 9/9 = 2, times Hartlap ≈ (1000-4)/999.
        let chi = chi_squared(&data, &model, &cov).unwrap();
        let want = 2.0 * hartlap_factor(1000, 2);
        assert!((chi - want).abs() < 1e-12);
        let snr = detection_snr(&data, &cov).unwrap();
        assert!((snr - want.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn singular_covariance_returns_none() {
        let mut m = Matrix::zeros(2, 2);
        m[(0, 0)] = 1.0; // second component has zero variance
        let cov = Covariance {
            mean: vec![0.0, 0.0],
            matrix: m,
            n_samples: 50,
        };
        assert!(chi_squared(&[1.0, 1.0], &[0.0, 0.0], &cov).is_none());
    }

    #[test]
    fn projection_selects_submatrix() {
        let mut m = Matrix::zeros(3, 3);
        for i in 0..3 {
            m[(i, i)] = (i + 1) as f64;
        }
        m[(0, 2)] = 0.5;
        m[(2, 0)] = 0.5;
        let cov = Covariance {
            mean: vec![1.0, 2.0, 3.0],
            matrix: m,
            n_samples: 10,
        };
        let sub = project_components(&cov, &[0, 2]);
        assert_eq!(sub.mean, vec![1.0, 3.0]);
        assert_eq!(sub.matrix[(0, 1)], 0.5);
        assert_eq!(sub.matrix[(1, 1)], 3.0);
    }
}
