//! Deterministic input generation and cross-backend checking shared by
//! every kernel backend's tests.
//!
//! The generators are a SplitMix64 stream, so every backend's test
//! sees the same inputs for a seed. Compiled under `cfg(test)` only:
//! the last caller outside this crate's unit tests went with
//! `crates/bench`'s kernel benches.

use crate::kernel::backend::BackendKind;
use crate::kernel::scalar::accumulate_bucket_scalar;
use crate::kernel::PairBuckets;
use galactos_math::monomial::{MonomialBasis, UpdateStep};

/// Minimal deterministic 64-bit generator (Steele et al.'s SplitMix64),
/// good enough for synthesizing kernel inputs and nothing else.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform in `0..n` (`n` must be positive).
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One bucket of `n` unit separation vectors plus weights in
/// `[0.1, 2)` — the kernel's real input shape: `(Δx, Δy, Δz, w)`.
pub fn random_bucket(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut rng = SplitMix64::new(seed);
    let mut dx = Vec::with_capacity(n);
    let mut dy = Vec::with_capacity(n);
    let mut dz = Vec::with_capacity(n);
    let mut w = Vec::with_capacity(n);
    for _ in 0..n {
        let v = loop {
            let v = galactos_math::Vec3::new(
                rng.range(-1.0, 1.0),
                rng.range(-1.0, 1.0),
                rng.range(-1.0, 1.0),
            );
            if let Some(u) = v.normalized() {
                break u;
            }
        };
        dx.push(v.x);
        dy.push(v.y);
        dz.push(v.z);
        w.push(rng.range(0.1, 2.0));
    }
    (dx, dy, dz, w)
}

/// A stream of `n` unit separations with a radial bin attached to each
/// pair — the input shape of the engine's bin-and-bucket stage:
/// `(Δx, Δy, Δz, w, bin)`.
#[allow(clippy::type_complexity, reason = "the five stage-input columns")]
pub fn random_binned_stream(
    n: usize,
    nbins: usize,
    seed: u64,
) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<u32>) {
    let (dx, dy, dz, w) = random_bucket(n, seed);
    let mut rng = SplitMix64::new(seed ^ 0x5eed_b1b5);
    let bins = (0..n).map(|_| rng.index(nbins) as u32).collect();
    (dx, dy, dz, w, bins)
}

/// Reference per-monomial sums of one bucket through the scalar kernel.
pub fn scalar_bucket_sums(
    schedule: &[UpdateStep],
    dx: &[f64],
    dy: &[f64],
    dz: &[f64],
    w: &[f64],
) -> Vec<f64> {
    let nmono = schedule.len() + 1;
    let mut scratch = vec![0.0; nmono];
    let mut sums = vec![0.0; nmono];
    accumulate_bucket_scalar(schedule, dx, dy, dz, w, &mut scratch, &mut sums);
    sums
}

/// Largest relative difference `|a - b| / (1 + |b|)` over two slices.
pub fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() / (1.0 + y.abs()))
        .fold(0.0, f64::max)
}

/// Flush one random bucket of `n` pairs through a single-bin accumulator
/// of `kind` and assert every monomial sum matches the scalar reference
/// to relative `tol`. This is the former `check_simd_vs_scalar`,
/// generalized over backends.
pub fn check_backend_vs_scalar(kind: BackendKind, lmax: usize, n: usize, seed: u64, tol: f64) {
    let basis = MonomialBasis::new(lmax);
    let nmono = basis.len();
    let (dx, dy, dz, w) = random_bucket(n, seed);
    let want = scalar_bucket_sums(basis.schedule(), &dx, &dy, &dz, &w);

    let mut acc = kind.backend().new_accumulator(1, nmono);
    acc.flush_bucket(basis.schedule(), 0, &dx, &dy, &dz, &w);
    let mut got = vec![0.0; nmono];
    acc.reduce_bin(0, &mut got);
    for i in 0..nmono {
        assert!(
            (got[i] - want[i]).abs() <= tol * (1.0 + want[i].abs()),
            "{kind:?} lmax={lmax} n={n} monomial {i}: {} vs {}",
            got[i],
            want[i]
        );
    }
}

/// Push a random binned pair stream through `PairBuckets` + an
/// accumulator of `kind` exactly the way the engine's bin-and-bucket
/// stage does (flush on full, residual sweep), and assert every bin's
/// monomial sums match a scalar per-bin reference to relative `tol`.
/// Exercises full-bucket flushes and ragged tails.
pub fn check_backend_stream_vs_scalar(
    kind: BackendKind,
    lmax: usize,
    nbins: usize,
    bucket_capacity: usize,
    n_pairs: usize,
    seed: u64,
    tol: f64,
) {
    let basis = MonomialBasis::new(lmax);
    let nmono = basis.len();
    let (dx, dy, dz, w, bins) = random_binned_stream(n_pairs, nbins, seed);

    // Reference: per-bin scalar sums over the same pair-to-bin split.
    let mut want = vec![0.0; nbins * nmono];
    let mut scratch = vec![0.0; nmono];
    for p in 0..n_pairs {
        let b = bins[p] as usize;
        accumulate_bucket_scalar(
            basis.schedule(),
            &dx[p..p + 1],
            &dy[p..p + 1],
            &dz[p..p + 1],
            &w[p..p + 1],
            &mut scratch,
            &mut want[b * nmono..(b + 1) * nmono],
        );
    }

    let mut acc = kind.backend().new_accumulator(nbins, nmono);
    let mut buckets = PairBuckets::new(nbins, bucket_capacity);
    for p in 0..n_pairs {
        let b = bins[p] as usize;
        if buckets.push(b, dx[p], dy[p], dz[p], w[p]) {
            let (bx, by, bz, bw) = buckets.slices(b);
            acc.flush_bucket(basis.schedule(), b, bx, by, bz, bw);
            buckets.clear_bin(b);
        }
    }
    acc.flush_residual(basis.schedule(), &mut buckets);

    let mut got = vec![0.0; nmono];
    for b in 0..nbins {
        acc.reduce_bin(b, &mut got);
        for i in 0..nmono {
            let wanted = want[b * nmono + i];
            assert!(
                (got[i] - wanted).abs() <= tol * (1.0 + wanted.abs()),
                "{kind:?} lmax={lmax} nbins={nbins} cap={bucket_capacity} n={n_pairs} \
                 bin {b} monomial {i}: {} vs {wanted}",
                got[i]
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_in_range() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            let x = a.next_f64();
            assert_eq!(x, b.next_f64());
            assert!((0.0..1.0).contains(&x));
        }
        let mut c = SplitMix64::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn random_bucket_yields_unit_vectors() {
        let (dx, dy, dz, w) = random_bucket(50, 3);
        for i in 0..50 {
            let norm = (dx[i] * dx[i] + dy[i] * dy[i] + dz[i] * dz[i]).sqrt();
            assert!((norm - 1.0).abs() < 1e-12);
            assert!((0.1..2.0).contains(&w[i]));
        }
    }

    #[test]
    fn binned_stream_bins_are_in_range() {
        let (_, _, _, _, bins) = random_binned_stream(200, 7, 11);
        assert!(bins.iter().all(|&b| b < 7));
        // All bins should be hit for a stream this long.
        for b in 0..7u32 {
            assert!(bins.contains(&b), "bin {b} never drawn");
        }
    }

    #[test]
    fn max_rel_diff_basics() {
        assert_eq!(max_rel_diff(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        let d = max_rel_diff(&[1.0, 3.0], &[1.0, 2.0]);
        assert!((d - 1.0 / 3.0).abs() < 1e-15);
    }
}
