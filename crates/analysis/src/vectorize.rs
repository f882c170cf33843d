//! Flattening ζ containers into real feature vectors.
//!
//! Covariance estimation and χ² tests operate on plain vectors; these
//! helpers define a stable component ordering (with human-readable
//! labels) for the anisotropic result.

use galactos_core::result::AnisotropicZeta;

/// Flatten the anisotropic multipoles to `[re, im, re, im, …]` in
/// layout order, normalized per primary weight.
pub fn zeta_to_vector(zeta: &AnisotropicZeta) -> Vec<f64> {
    let n = zeta.normalized();
    let mut out = Vec::with_capacity(2 * n.data().len());
    for c in n.data() {
        out.push(c.re);
        out.push(c.im);
    }
    out
}

/// Component labels matching [`zeta_to_vector`].
pub fn zeta_labels(zeta: &AnisotropicZeta) -> Vec<String> {
    let lmax = zeta.lmax();
    let nbins = zeta.nbins();
    let mut out = Vec::new();
    for l in 0..=lmax {
        for lp in 0..=lmax {
            for m in 0..=l.min(lp) {
                for b1 in 0..nbins {
                    for b2 in 0..nbins {
                        out.push(format!("re[{l},{lp},{m}]({b1},{b2})"));
                        out.push(format!("im[{l},{lp},{m}]({b1},{b2})"));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use galactos_math::Complex64;

    #[test]
    fn vector_and_labels_align() {
        let mut z = AnisotropicZeta::zeros(2, 2);
        z.add_to(1, 1, 1, 0, 1, Complex64::new(2.0, -3.0));
        z.total_primary_weight = 2.0;
        let v = zeta_to_vector(&z);
        let labels = zeta_labels(&z);
        assert_eq!(v.len(), labels.len());
        // Find the labeled component and check its normalized value.
        let idx = labels.iter().position(|s| s == "re[1,1,1](0,1)").unwrap();
        assert!((v[idx] - 1.0).abs() < 1e-12);
        assert!((v[idx + 1] + 1.5).abs() < 1e-12);
    }
}
