//! Unified accumulator over the kernel backends.
//!
//! [`KernelAccumulator`] is the per-worker accumulation state a
//! [`KernelBackend`](crate::kernel::backend::KernelBackend) constructs.
//! Its arithmetic is an enum, not a trait object, so the per-bucket hot
//! path stays statically dispatched; the backend trait is only
//! consulted at worker-state construction time.
//!
//! **Cost follows the bins a primary touched.** The accumulators of
//! all bins are `nbins × nmono × 64 B` (183 kB at the paper point), and
//! a sparse primary lands pairs in a few of them. So [`reset`](
//! KernelAccumulator::reset) zeroes nothing: it forgets which bins were
//! touched (O(nbins)); a bin's first flush after a reset overwrites
//! its accumulators — the SIMD kernel assigns the first chunk's sums
//! instead of adding them to 18 kB of zeros it would first have to
//! write and then read, the scalar reference zeroes its 2 kB — and
//! [`reduce_bin`](KernelAccumulator::reduce_bin) of an untouched bin
//! writes zeros without reading anything. Assigning `x` where the
//! parent computed `0 + x` can differ only in the sign of a zero, and
//! that sign cannot reach ζ: every a_ℓm sum and every ζ sum downstream
//! starts from `+0`, and `+0 + ±0 = +0`.

use crate::kernel::backend::BackendKind;
use crate::kernel::buckets::PairBuckets;
use crate::kernel::scalar::accumulate_bucket_scalar;
use crate::kernel::simd::accumulate_bucket_simd;
use galactos_math::monomial::{monomial_count, UpdateStep};
use galactos_simd::F64x8;

/// Per-(bin, monomial) accumulation state for one thread.
#[derive(Clone, Debug)]
pub struct KernelAccumulator {
    nmono: usize,
    /// Whether a bin was flushed into since the last [`reset`](
    /// KernelAccumulator::reset); the sums of the others are stale
    /// and never read.
    touched: Vec<bool>,
    sums: Sums,
}

/// 8-lane vectors with a deferred reduction (the paper's layout), or
/// plain scalar sums (the reference path).
#[derive(Clone, Debug)]
enum Sums {
    Simd {
        /// The ℓmax whose basis has `nmono` monomials: all the kernel's
        /// loop nest needs of the basis.
        lmax: usize,
        /// `lanes[bin * nmono + mono]`
        lanes: Vec<F64x8>,
    },
    Scalar {
        /// `sums[bin * nmono + mono]`
        sums: Vec<f64>,
        scratch: Vec<f64>,
    },
}

impl KernelAccumulator {
    /// Panics unless `nmono` is the size of a monomial basis.
    pub fn new_simd(nbins: usize, nmono: usize) -> Self {
        let lmax = (0..=nmono).find(|&l| monomial_count(l) == nmono);
        let lmax = lmax.expect("nmono is the monomial count of some lmax");
        let lanes = vec![F64x8::ZERO; nbins * nmono];
        Self::new(nbins, nmono, Sums::Simd { lmax, lanes })
    }

    pub fn new_scalar(nbins: usize, nmono: usize) -> Self {
        let sums = vec![0.0; nbins * nmono];
        let scratch = vec![0.0; nmono];
        Self::new(nbins, nmono, Sums::Scalar { sums, scratch })
    }

    fn new(nbins: usize, nmono: usize, sums: Sums) -> Self {
        KernelAccumulator {
            nmono,
            touched: vec![false; nbins],
            sums,
        }
    }

    /// Which backend produced this accumulator.
    #[inline]
    pub fn kind(&self) -> BackendKind {
        match self.sums {
            Sums::Simd { .. } => BackendKind::Simd,
            Sums::Scalar { .. } => BackendKind::Scalar,
        }
    }

    #[inline]
    pub fn nmono(&self) -> usize {
        self.nmono
    }

    /// Start a new primary: every bin reads as zero again.
    pub fn reset(&mut self) {
        self.touched.fill(false);
    }

    /// Flush one bucket of pairs into `bin`'s accumulators. Only the
    /// scalar reference interprets `schedule`; the SIMD kernel's loop
    /// nest is that schedule's multiplication order by construction.
    pub fn flush_bucket(
        &mut self,
        schedule: &[UpdateStep],
        bin: usize,
        dx: &[f64],
        dy: &[f64],
        dz: &[f64],
        w: &[f64],
    ) {
        let first = !std::mem::replace(&mut self.touched[bin], true);
        let of_bin = bin * self.nmono..(bin + 1) * self.nmono;
        match &mut self.sums {
            Sums::Simd { lmax, lanes } => {
                accumulate_bucket_simd(*lmax, [dx, dy, dz, w], &mut lanes[of_bin], first);
            }
            Sums::Scalar { sums, scratch } => {
                let acc = &mut sums[of_bin];
                if first {
                    acc.fill(0.0);
                }
                accumulate_bucket_scalar(schedule, dx, dy, dz, w, scratch, acc);
            }
        }
    }

    /// Flush every non-empty (typically partially filled) bucket — the
    /// end-of-primary sweep: "the buckets are swept once more, as they
    /// likely are only partially filled". All buckets are cleared.
    pub fn flush_residual(&mut self, schedule: &[UpdateStep], buckets: &mut PairBuckets) {
        for bin in 0..buckets.nbins() {
            if buckets.is_empty(bin) {
                continue;
            }
            let (dx, dy, dz, w) = buckets.slices(bin);
            // Slices borrow `buckets` immutably while `self` is
            // disjoint state, so no copy is needed.
            self.flush_bucket(schedule, bin, dx, dy, dz, w);
            buckets.clear_bin(bin);
        }
    }

    /// Does nothing: every flush accumulates immediately. Only the
    /// frozen `benchmark/src/ladder.rs` calls it; remove it together
    /// with that call in the next benchmark-kind PR.
    pub fn finish(&mut self, _schedule: &[UpdateStep]) {}

    /// Monomial `mono`'s sum over the pairs flushed into `bin` since
    /// the last reset: the deferred horizontal reduction of §3.3.2 for
    /// the SIMD lanes, and zero — without a read — for an untouched bin.
    #[inline]
    fn sum(&self, bin: usize, mono: usize) -> f64 {
        if !self.touched[bin] {
            return 0.0;
        }
        let at = bin * self.nmono + mono;
        match &self.sums {
            Sums::Simd { lanes, .. } => lanes[at].horizontal_sum(),
            Sums::Scalar { sums, .. } => sums[at],
        }
    }

    /// Reduce a bin's accumulators into plain sums — the single deferred
    /// reduction per multipole of §3.3.2. An untouched bin reduces to
    /// zeros.
    pub fn reduce_bin(&self, bin: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.nmono);
        for (mono, o) in out.iter_mut().enumerate() {
            *o = self.sum(bin, mono);
        }
    }

    /// [`reduce_bin`](KernelAccumulator::reduce_bin) of every bin at
    /// once, transposed: `out[mono · stride + bin]`, the layout stage 3
    /// reads with the bins in lanes (columns `nbins..stride` are left
    /// alone). Monomial-major, so each row of `out` is written once
    /// while the bins' accumulators stream past — the per-bin order
    /// pays a strided scatter over all of `out` per bin.
    pub(crate) fn reduce_transposed(&self, stride: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.nmono * stride);
        let nbins = self.touched.len();
        for (mono, row) in out.chunks_exact_mut(stride).enumerate() {
            for (bin, o) in row[..nbins].iter_mut().enumerate() {
                *o = self.sum(bin, mono);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::backend::BackendKind;
    use crate::kernel::testutil::{check_backend_stream_vs_scalar, check_backend_vs_scalar};
    use galactos_math::monomial::MonomialBasis;

    #[test]
    fn all_backends_agree_on_shared_buckets() {
        let basis = MonomialBasis::new(4);
        let nmono = basis.len();
        let dx = [0.6, -0.8, 0.0, 0.36];
        let dy = [0.0, 0.6, 0.6, -0.48];
        let dz = [0.8, 0.0, -0.8, 0.8];
        let w = [1.0, 0.5, 2.0, 1.5];

        let mut accs: Vec<KernelAccumulator> = BackendKind::ALL
            .iter()
            .map(|k| k.backend().new_accumulator(2, nmono))
            .collect();
        for acc in &mut accs {
            acc.flush_bucket(basis.schedule(), 1, &dx, &dy, &dz, &w);
            acc.flush_bucket(basis.schedule(), 0, &dx[..2], &dy[..2], &dz[..2], &w[..2]);
        }
        let mut reference = vec![0.0; nmono];
        let mut got = vec![0.0; nmono];
        for bin in 0..2 {
            accs[0].reduce_bin(bin, &mut reference);
            for acc in &accs[1..] {
                acc.reduce_bin(bin, &mut got);
                for i in 0..nmono {
                    assert!(
                        (got[i] - reference[i]).abs() < 1e-12 * (1.0 + reference[i].abs()),
                        "{:?} bin {bin} mono {i}",
                        acc.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn every_backend_matches_scalar_on_one_bucket() {
        for kind in BackendKind::ALL {
            for n in [0usize, 1, 7, 8, 33, 128] {
                check_backend_vs_scalar(kind, 5, n, 17 + n as u64, 1e-11);
            }
        }
    }

    #[test]
    fn every_backend_matches_scalar_on_engine_style_streams() {
        for kind in BackendKind::ALL {
            // Capacity 16 (lane-aligned) and 10 (ragged full flushes).
            check_backend_stream_vs_scalar(kind, 4, 5, 16, 700, 3, 1e-11);
            check_backend_stream_vs_scalar(kind, 4, 5, 10, 700, 4, 1e-11);
        }
    }

    #[test]
    fn reset_zeroes_state_for_all_backends() {
        let basis = MonomialBasis::new(3);
        let nmono = basis.len();
        for kind in BackendKind::ALL {
            let mut acc = kind.backend().new_accumulator(1, nmono);
            acc.flush_bucket(basis.schedule(), 0, &[0.5], &[0.5], &[0.707], &[1.0]);
            acc.reset();
            let mut out = vec![1.0; nmono];
            acc.reduce_bin(0, &mut out);
            assert!(out.iter().all(|&v| v == 0.0), "{kind:?}");
        }
    }

    #[test]
    fn flush_residual_sweeps_and_clears_all_bins() {
        let basis = MonomialBasis::new(2);
        let nmono = basis.len();
        for kind in BackendKind::ALL {
            let mut acc = kind.backend().new_accumulator(3, nmono);
            let mut buckets = PairBuckets::new(3, 8);
            buckets.push(0, 1.0, 0.0, 0.0, 1.0);
            buckets.push(2, 0.0, 0.0, 1.0, 2.0);
            acc.flush_residual(basis.schedule(), &mut buckets);
            assert!((0..3).all(|b| buckets.is_empty(b)), "{kind:?}");
            let mut out = vec![0.0; nmono];
            acc.reduce_bin(0, &mut out);
            assert!((out[0] - 1.0).abs() < 1e-15, "{kind:?} Σw bin 0");
            acc.reduce_bin(2, &mut out);
            assert!((out[0] - 2.0).abs() < 1e-15, "{kind:?} Σw bin 2");
            acc.reduce_bin(1, &mut out);
            assert_eq!(out[0], 0.0, "{kind:?} empty bin");
        }
    }

    /// A reset forgets without zeroing: the first flush afterwards must
    /// overwrite whatever the previous primary left, full groups, tails
    /// and empty buckets alike, and bins it skips must read as zero.
    #[test]
    fn first_flush_after_reset_overwrites_the_previous_primary() {
        use crate::kernel::testutil::random_bucket;
        let basis = MonomialBasis::new(4);
        let nmono = basis.len();
        let (ax, ay, az, aw) = random_bucket(40, 5);
        for kind in BackendKind::ALL {
            for n in [0usize, 3, 8, 33, 70] {
                let (dx, dy, dz, w) = random_bucket(n, 9 + n as u64);
                let mut reused = kind.backend().new_accumulator(2, nmono);
                reused.flush_bucket(basis.schedule(), 0, &ax, &ay, &az, &aw);
                reused.flush_bucket(basis.schedule(), 1, &ax, &ay, &az, &aw);
                reused.reset();
                reused.flush_bucket(basis.schedule(), 0, &dx, &dy, &dz, &w);
                let mut fresh = kind.backend().new_accumulator(2, nmono);
                fresh.flush_bucket(basis.schedule(), 0, &dx, &dy, &dz, &w);

                let (mut got, mut want) = (vec![1.0; nmono], vec![2.0; nmono]);
                reused.reduce_bin(0, &mut got);
                fresh.reduce_bin(0, &mut want);
                assert_eq!(got, want, "{kind:?} n={n}");
                reused.reduce_bin(1, &mut got);
                assert!(got.iter().all(|&v| v == 0.0), "{kind:?} n={n}");
            }
        }
    }

    #[test]
    fn reduce_transposed_is_reduce_bin_of_every_bin() {
        let basis = MonomialBasis::new(3);
        let nmono = basis.len();
        let (nbins, stride) = (3, 8);
        for kind in BackendKind::ALL {
            let mut acc = kind.backend().new_accumulator(nbins, nmono);
            // Bin 1 stays untouched.
            acc.flush_bucket(
                basis.schedule(),
                0,
                &[0.6, 0.0],
                &[0.0, 0.8],
                &[0.8, 0.6],
                &[1.0, 0.5],
            );
            acc.flush_bucket(basis.schedule(), 2, &[0.0], &[0.0], &[1.0], &[2.0]);
            let mut out = vec![f64::NAN; nmono * stride];
            acc.reduce_transposed(stride, &mut out);
            let mut column = vec![0.0; nmono];
            for bin in 0..nbins {
                acc.reduce_bin(bin, &mut column);
                for (mono, want) in column.iter().enumerate() {
                    let got = out[mono * stride + bin];
                    assert_eq!(got.to_bits(), want.to_bits(), "{kind:?} {bin} {mono}");
                }
            }
            // Padding columns belong to the caller.
            let padding = out.chunks_exact(stride).flat_map(|row| &row[nbins..]);
            assert!(padding.into_iter().all(|v| v.is_nan()), "{kind:?}");
        }
    }
}
