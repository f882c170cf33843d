//! Scalar reference kernel: one pair at a time, exact same arithmetic
//! schedule as the SIMD path (2 FLOPs per monomial per pair).

use galactos_math::monomial::UpdateStep;

/// Accumulate the weighted monomial values of every pair in a bucket
/// into `sums` (length = number of monomials).
///
/// The value chain is seeded with the pair's weight, so `sums[0]`
/// accumulates `Σ w` and `sums[i]` accumulates
/// `Σ w·(Δx/r)^k (Δy/r)^p (Δz/r)^q`.
pub(crate) fn accumulate_bucket_scalar(
    schedule: &[UpdateStep],
    dx: &[f64],
    dy: &[f64],
    dz: &[f64],
    w: &[f64],
    scratch: &mut [f64],
    sums: &mut [f64],
) {
    let nmono = schedule.len() + 1;
    debug_assert_eq!(scratch.len(), nmono);
    debug_assert_eq!(sums.len(), nmono);
    for p in 0..dx.len() {
        let coords = [dx[p], dy[p], dz[p]];
        scratch[0] = w[p];
        sums[0] += scratch[0];
        for (i, step) in schedule.iter().enumerate() {
            let v = scratch[step.parent as usize] * coords[step.axis.index()];
            scratch[i + 1] = v;
            sums[i + 1] += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galactos_math::monomial::MonomialBasis;

    #[test]
    fn weighted_sums_match_direct_powers() {
        let basis = MonomialBasis::new(4);
        let schedule = basis.schedule();
        let dx = [0.5, -0.3, 0.8];
        let dy = [0.1, 0.9, -0.2];
        let dz = [-0.85, 0.3, 0.55];
        let w = [1.0, 2.0, 0.5];
        let mut scratch = vec![0.0; basis.len()];
        let mut sums = vec![0.0; basis.len()];
        accumulate_bucket_scalar(schedule, &dx, &dy, &dz, &w, &mut scratch, &mut sums);
        for (q, p) in (0..=4).flat_map(|q| (0..=4 - q).map(move |p| (q, p))) {
            for k in 0..=4 - q - p {
                let sum = sums[basis.index_of(k, p, q)];
                let want: f64 = (0..3)
                    .map(|j| {
                        w[j] * dx[j].powi(k as i32) * dy[j].powi(p as i32) * dz[j].powi(q as i32)
                    })
                    .sum();
                assert!(
                    (sum - want).abs() < 1e-12 * (1.0 + want.abs()),
                    "monomial ({k},{p},{q}): {sum} vs {want}"
                );
            }
        }
        // sums[0] is the weighted pair count.
        assert!((sums[0] - 3.5).abs() < 1e-15);
    }

    #[test]
    fn accumulation_is_additive() {
        let basis = MonomialBasis::new(3);
        let mut scratch = vec![0.0; basis.len()];
        let mut once = vec![0.0; basis.len()];
        let mut twice = vec![0.0; basis.len()];
        let (dx, dy, dz, w) = ([0.6], [0.0], [0.8], [1.5]);
        accumulate_bucket_scalar(basis.schedule(), &dx, &dy, &dz, &w, &mut scratch, &mut once);
        accumulate_bucket_scalar(
            basis.schedule(),
            &dx,
            &dy,
            &dz,
            &w,
            &mut scratch,
            &mut twice,
        );
        accumulate_bucket_scalar(
            basis.schedule(),
            &dx,
            &dy,
            &dz,
            &w,
            &mut scratch,
            &mut twice,
        );
        for i in 0..basis.len() {
            assert!((twice[i] - 2.0 * once[i]).abs() < 1e-14);
        }
    }
}
