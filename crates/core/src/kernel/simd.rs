//! The vectorized multipole kernel (paper §3.3.2).
//!
//! Pairs are processed 8 at a time (one `F64x8` per coordinate), 4
//! chunks per group so four independent multiply chains are in flight
//! ("we perform computations on 4 independent vectors at once"). The
//! monomials `w·z^q·y^p·x^k` are built by three nested loops whose
//! running products are locals — registers, on a 512-bit host — in the
//! basis order of [`MonomialBasis`](galactos_math::MonomialBasis), so
//! the only memory traffic per monomial is its 8-lane accumulator; the
//! horizontal reduction to a scalar happens once per primary, not once
//! per chunk.
//!
//! The body is compiled once per [`Level`] by `galactos_simd::dispatch`
//! and produces the same bits in each (see [`crate::kernel`]).

use galactos_math::monomial::monomial_count;
use galactos_simd::{dispatch, F64x8, Kernel, Level, F64_LANES, ILP_BATCHES};

/// Pairs per full group: [`ILP_BATCHES`] chains of one vector each.
const GROUP: usize = ILP_BATCHES * F64_LANES;

/// Accumulate one bucket of pairs, given as its `[Δx, Δy, Δz, w]`
/// columns, into `acc` (8-lane accumulators, one per monomial of degree
/// ≤ `lmax`, in basis order). Tail pairs are zero-padded through the
/// weight, so they contribute nothing. With `fresh`, `acc` holds
/// nothing worth reading and the call leaves what adding the bucket to
/// zeroed accumulators would, without zeroing or reading them: the
/// first chunk's sums are assigned (`x` for `0 + x`, which can differ
/// only in the sign of a zero).
///
/// The 512-bit compilation is used only by calls that hold a full
/// group: on calls of a few pairs (part-filled buckets at low ℓmax) it
/// measured slower than the 256-bit one.
pub fn accumulate_bucket_simd(lmax: usize, cols: [&[f64]; 4], acc: &mut [F64x8], fresh: bool) {
    let wide = cols[0].len() >= GROUP;
    let cap = if wide { Level::Avx512 } else { Level::Avx2 };
    let bucket = Bucket {
        lmax,
        cols,
        acc,
        fresh,
    };
    dispatch(cap, bucket);
}

/// One [`accumulate_bucket_simd`] call, as the body `dispatch` compiles.
struct Bucket<'a> {
    lmax: usize,
    cols: [&'a [f64]; 4],
    acc: &'a mut [F64x8],
    fresh: bool,
}

impl Kernel for Bucket<'_> {
    /// Groups of 4 chunks (32 pairs), then the remainder one (possibly
    /// padded) chunk at a time.
    #[inline(always)]
    fn run(self) {
        let Bucket {
            lmax,
            cols,
            acc,
            mut fresh,
        } = self;
        debug_assert_eq!(acc.len(), monomial_count(lmax));
        let n = cols[0].len();
        let mut at = 0;
        while at + GROUP <= n {
            let group = cols.map(|s| load::<ILP_BATCHES>(&s[at..at + GROUP]));
            nest_into(lmax, group, acc, std::mem::take(&mut fresh));
            at += GROUP;
        }
        while at < n {
            let end = (at + F64_LANES).min(n);
            let chunk = cols.map(|s| load::<1>(&s[at..end]));
            nest_into(lmax, chunk, acc, std::mem::take(&mut fresh));
            at = end;
        }
        if fresh {
            acc.fill(F64x8::ZERO); // an empty bucket
        }
    }
}

/// The first `N` vectors of `s`, zero-padded past its end.
#[inline(always)]
fn load<const N: usize>(s: &[f64]) -> [F64x8; N] {
    std::array::from_fn(|b| F64x8::from_slice_padded(&s[b * F64_LANES..]))
}

/// [`nest`], assigning instead of adding when `assign`. Two copies of
/// the loop nest, so the choice is made once per chunk and not once per
/// monomial.
#[inline(always)]
fn nest_into<const N: usize>(lmax: usize, cols: [[F64x8; N]; 4], acc: &mut [F64x8], assign: bool) {
    if assign {
        nest::<N, true>(lmax, cols, acc);
    } else {
        nest::<N, false>(lmax, cols, acc);
    }
}

/// `acc[i] += Σ_chains w·z^q·y^p·x^k` (`=` with `ASSIGN`) for every
/// monomial `i = (k, p, q)` in basis order: `z`, `y`, `x` are
/// multiplied in exactly the order the parent/axis schedule prescribes,
/// and the `N` chains of a monomial are summed pairwise before the one
/// accumulator update.
#[inline(always)]
fn nest<const N: usize, const ASSIGN: bool>(
    lmax: usize,
    [x, y, z, w]: [[F64x8; N]; 4],
    acc: &mut [F64x8],
) {
    let mut row = 0;
    let mut zq = w;
    for q in 0..=lmax {
        let mut zqyp = zq;
        for p in 0..=lmax - q {
            let len = lmax - q - p + 1;
            let mut v = zqyp;
            for a in &mut acc[row..row + len] {
                if ASSIGN {
                    *a = pairwise_sum(v);
                } else {
                    *a += pairwise_sum(v);
                }
                mul_chains(&mut v, &x);
            }
            row += len;
            mul_chains(&mut zqyp, &y);
        }
        mul_chains(&mut zq, &z);
    }
}

#[inline(always)]
fn mul_chains<const N: usize>(v: &mut [F64x8; N], by: &[F64x8; N]) {
    for b in 0..N {
        v[b] *= by[b];
    }
}

/// `(v0 + v1) + (v2 + v3)` for four chains, `v0` for one.
#[inline(always)]
fn pairwise_sum<const N: usize>(mut v: [F64x8; N]) -> F64x8 {
    let mut stride = 1;
    while stride < N {
        for b in (0..N - stride).step_by(2 * stride) {
            v[b] += v[b + stride];
        }
        stride *= 2;
    }
    v[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::backend::BackendKind;
    use crate::kernel::testutil::{check_backend_vs_scalar, random_bucket};
    use galactos_simd::run_at;

    /// Empty, sub-lane, exact lane, and each side of one, two and four
    /// full groups.
    const SIZES: [usize; 14] = [0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100, 128, 129];

    #[test]
    fn matches_scalar_across_sizes() {
        // ℓmax 0 and 1 are where the nest degenerates to one slab / row.
        for lmax in [0usize, 1, 2, 6, 12] {
            for n in SIZES {
                check_backend_vs_scalar(BackendKind::Simd, lmax, n, n as u64 + 1, 1e-11);
            }
        }
    }

    #[test]
    fn matches_scalar_at_paper_lmax() {
        for n in SIZES {
            check_backend_vs_scalar(BackendKind::Simd, 10, n, 42 + n as u64, 1e-11);
        }
    }

    #[test]
    fn accumulates_across_multiple_buckets() {
        let nmono = monomial_count(5);
        let (dx, dy, dz, w) = random_bucket(50, 9);
        let cols = [&dx[..], &dy[..], &dz[..], &w[..]];
        // One shot.
        let mut acc_once = vec![F64x8::ZERO; nmono];
        accumulate_bucket_simd(5, cols, &mut acc_once, false);
        // Two halves accumulated into the same accumulator.
        let mut acc_twice = vec![F64x8::ZERO; nmono];
        accumulate_bucket_simd(5, cols.map(|s| &s[..20]), &mut acc_twice, false);
        accumulate_bucket_simd(5, cols.map(|s| &s[20..]), &mut acc_twice, false);
        for i in 0..nmono {
            let a = acc_once[i].horizontal_sum();
            let b = acc_twice[i].horizontal_sum();
            assert!((a - b).abs() < 1e-11 * (1.0 + a.abs()), "monomial {i}");
        }
    }

    /// A fresh flush leaves what adding to zeroed lanes would (up to the
    /// sign of a zero, which `==` on `f64` ignores), whatever the lanes
    /// held, including for an empty bucket.
    #[test]
    fn fresh_flush_equals_adding_to_zeroed_lanes() {
        for lmax in [0usize, 3, 10] {
            for n in SIZES {
                let (dx, dy, dz, w) = random_bucket(n, 77 + n as u64);
                let cols = [&dx[..], &dy[..], &dz[..], &w[..]];
                let mut added = vec![F64x8::ZERO; monomial_count(lmax)];
                accumulate_bucket_simd(lmax, cols, &mut added, false);
                let mut assigned = vec![F64x8::splat(f64::NAN); monomial_count(lmax)];
                accumulate_bucket_simd(lmax, cols, &mut assigned, true);
                assert_eq!(assigned, added, "lmax={lmax} n={n}");
            }
        }
    }

    /// The contract that lets `dispatch` choose freely: every
    /// compilation this host can execute, and whatever `dispatch` picks
    /// on either side of its width rule, leaves the same bits in every
    /// lane of every accumulator as the baseline compilation.
    #[test]
    fn every_level_reproduces_the_baseline_bits() {
        let levels: Vec<Level> = Level::ALL
            .into_iter()
            .filter(|l| l.is_available())
            .collect();
        println!("kernel levels covered on this host: {levels:?}");
        for lmax in [0usize, 2, 10] {
            for n in [5usize, 31, 33, 128, 129] {
                let (dx, dy, dz, w) = random_bucket(n, 1000 * lmax as u64 + n as u64);
                let cols = [&dx[..], &dy[..], &dz[..], &w[..]];
                // Two flushes: a fresh one over lanes it must not read,
                // then one that starts from non-zero lanes.
                let bits_after = |flush: &dyn Fn(&mut [F64x8], bool)| -> Vec<u64> {
                    let mut acc = vec![F64x8::splat(f64::NAN); monomial_count(lmax)];
                    flush(&mut acc, true);
                    flush(&mut acc, false);
                    let lanes = acc.iter().flat_map(|v| v.to_array());
                    lanes.map(f64::to_bits).collect()
                };
                let at = |level| {
                    bits_after(&|acc, fresh| {
                        let bucket = Bucket {
                            lmax,
                            cols,
                            acc,
                            fresh,
                        };
                        run_at(level, bucket)
                    })
                };
                let baseline = at(Level::Baseline);
                assert!(baseline.iter().any(|&b| b != 0));
                for &level in &levels {
                    assert_eq!(at(level), baseline, "{level:?} lmax={lmax} n={n}");
                }
                let dispatched =
                    bits_after(&|acc, fresh| accumulate_bucket_simd(lmax, cols, acc, fresh));
                assert_eq!(dispatched, baseline, "dispatch lmax={lmax} n={n}");
            }
        }
    }
}
