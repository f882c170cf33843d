//! Portable wide vector types for the Galactos multipole kernel.
//!
//! The paper's kernel (§3.3.2) is built around 512-bit vector lanes: 8
//! double-precision values per operation, a per-multipole 8-element
//! accumulator array that defers horizontal reductions, and 4 independent
//! accumulator *batches* to expose instruction-level parallelism. This
//! crate provides those building blocks in portable Rust: fixed-size
//! arrays with `#[inline(always)]` element-wise loops that LLVM
//! autovectorizes on any SIMD-capable target (AVX2/AVX-512/NEON), so the
//! kernel keeps the paper's exact arithmetic schedule without
//! architecture-specific intrinsics.
//!
//! Reaching the host's vector unit does not need intrinsics either:
//! [`dispatch`] compiles one portable [`Kernel`] body once per
//! [`Level`] (inside `#[target_feature]` wrappers that do nothing but
//! call it) and picks a compilation per call from
//! `is_x86_feature_detected!`. Every operation here is a separately
//! rounded IEEE multiply, add, … — Rust never contracts `a * b + c` —
//! so all compilations produce the same bits lane for lane, and a
//! result does not depend on which one ran. [`run_at`]'s two calls into
//! those wrappers are the workspace's only `unsafe`, as galactos-lint's
//! `unsafe_lives_only_in_simd_run_at` test checks.
//!
//! ```
//! use galactos_simd::F64x8;
//! let a = F64x8::splat(2.0);
//! let b = F64x8::from_array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
//! let c = a * b + F64x8::splat(1.0);
//! assert_eq!(c.horizontal_sum(), 2.0 * 28.0 + 8.0);
//! ```

#![deny(unsafe_code)]
#![allow(
    clippy::needless_range_loop,
    reason = "the indexed lane loops are the kernel's vectorization schedule: one lane \
              per index, no iterator adapter in the way of LLVM's vectorizer"
)]

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub};

/// Number of `f64` lanes per vector — matches one 512-bit register, the
/// granularity the paper's FLOP/byte analysis (§3.3.2) is written in.
pub const F64_LANES: usize = 8;

/// Number of independent accumulator batches used to break the
/// multiply-accumulate dependency chain. The paper found 4 to be the
/// sweet spot: "register pressure ... decreases performance if the number
/// of independent vectors is increased beyond 4".
pub const ILP_BATCHES: usize = 4;

/// An 8-lane double-precision vector.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(align(64))]
pub struct F64x8(pub [f64; F64_LANES]);

impl F64x8 {
    pub const ZERO: F64x8 = F64x8([0.0; F64_LANES]);

    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        F64x8([v; F64_LANES])
    }

    #[inline(always)]
    pub fn from_array(a: [f64; F64_LANES]) -> Self {
        F64x8(a)
    }

    /// Load 8 consecutive values from a slice (panics if too short).
    #[inline(always)]
    pub fn from_slice(s: &[f64]) -> Self {
        let mut a = [0.0; F64_LANES];
        a.copy_from_slice(&s[..F64_LANES]);
        F64x8(a)
    }

    /// Load up to 8 values, zero-padding the tail — used when flushing a
    /// partially filled pair bucket.
    #[inline(always)]
    pub fn from_slice_padded(s: &[f64]) -> Self {
        let mut a = [0.0; F64_LANES];
        let n = s.len().min(F64_LANES);
        a[..n].copy_from_slice(&s[..n]);
        F64x8(a)
    }

    #[inline(always)]
    pub fn write_to(self, out: &mut [f64]) {
        out[..F64_LANES].copy_from_slice(&self.0);
    }

    /// `self * b + c` as an unfused multiply then add, by contract: two
    /// roundings per lane on every target (Rust never contracts
    /// `a * b + c`, and this must never become `f64::mul_add`), so the
    /// result does not depend on which compilation [`dispatch`] picked.
    /// The arithmetic is what the paper's FLOP count assumes: one
    /// multiply + one add per lane.
    #[inline(always)]
    pub fn mul_add(self, b: F64x8, c: F64x8) -> F64x8 {
        let mut out = [0.0; F64_LANES];
        for i in 0..F64_LANES {
            out[i] = self.0[i] * b.0[i] + c.0[i];
        }
        F64x8(out)
    }

    /// Sum of all lanes — the deferred reduction performed once per
    /// multipole at the end of a primary's accumulation.
    #[inline(always)]
    pub fn horizontal_sum(self) -> f64 {
        // Pairwise tree reduction: better instruction parallelism and
        // better rounding behaviour than a serial fold.
        let a = &self.0;
        let s01 = a[0] + a[1];
        let s23 = a[2] + a[3];
        let s45 = a[4] + a[5];
        let s67 = a[6] + a[7];
        (s01 + s23) + (s45 + s67)
    }

    #[inline(always)]
    pub fn sqrt(self) -> F64x8 {
        let mut out = [0.0; F64_LANES];
        for i in 0..F64_LANES {
            out[i] = self.0[i].sqrt();
        }
        F64x8(out)
    }

    /// Lane-wise reciprocal.
    #[inline(always)]
    pub fn recip(self) -> F64x8 {
        let mut out = [0.0; F64_LANES];
        for i in 0..F64_LANES {
            out[i] = 1.0 / self.0[i];
        }
        F64x8(out)
    }

    /// Bitmask of lanes where `self[i] <= other[i]` (bit `i` set when
    /// true) — the vector compare feeding the blocked split loop's
    /// gather-radius cut. Each lane's comparison is exactly the scalar
    /// `<=`, so masked selection decides membership identically to a
    /// scalar loop.
    #[inline(always)]
    pub fn le_mask(self, other: F64x8) -> u8 {
        let mut m = 0u8;
        for i in 0..F64_LANES {
            m |= ((self.0[i] <= other.0[i]) as u8) << i;
        }
        m
    }
}

impl Add for F64x8 {
    type Output = F64x8;
    #[inline(always)]
    fn add(self, o: F64x8) -> F64x8 {
        let mut out = [0.0; F64_LANES];
        for i in 0..F64_LANES {
            out[i] = self.0[i] + o.0[i];
        }
        F64x8(out)
    }
}

impl AddAssign for F64x8 {
    #[inline(always)]
    fn add_assign(&mut self, o: F64x8) {
        for i in 0..F64_LANES {
            self.0[i] += o.0[i];
        }
    }
}

impl Sub for F64x8 {
    type Output = F64x8;
    #[inline(always)]
    fn sub(self, o: F64x8) -> F64x8 {
        let mut out = [0.0; F64_LANES];
        for i in 0..F64_LANES {
            out[i] = self.0[i] - o.0[i];
        }
        F64x8(out)
    }
}

impl Mul for F64x8 {
    type Output = F64x8;
    #[inline(always)]
    fn mul(self, o: F64x8) -> F64x8 {
        let mut out = [0.0; F64_LANES];
        for i in 0..F64_LANES {
            out[i] = self.0[i] * o.0[i];
        }
        F64x8(out)
    }
}

impl MulAssign for F64x8 {
    #[inline(always)]
    fn mul_assign(&mut self, o: F64x8) {
        for i in 0..F64_LANES {
            self.0[i] *= o.0[i];
        }
    }
}

impl Mul<f64> for F64x8 {
    type Output = F64x8;
    #[inline(always)]
    fn mul(self, s: f64) -> F64x8 {
        let mut out = [0.0; F64_LANES];
        for i in 0..F64_LANES {
            out[i] = self.0[i] * s;
        }
        F64x8(out)
    }
}

impl Div for F64x8 {
    type Output = F64x8;
    #[inline(always)]
    fn div(self, o: F64x8) -> F64x8 {
        let mut out = [0.0; F64_LANES];
        for i in 0..F64_LANES {
            out[i] = self.0[i] / o.0[i];
        }
        F64x8(out)
    }
}

impl Neg for F64x8 {
    type Output = F64x8;
    #[inline(always)]
    fn neg(self) -> F64x8 {
        let mut out = [0.0; F64_LANES];
        for i in 0..F64_LANES {
            out[i] = -self.0[i];
        }
        F64x8(out)
    }
}

impl Default for F64x8 {
    #[inline(always)]
    fn default() -> Self {
        F64x8::ZERO
    }
}

/// A loop body that [`dispatch`] compiles once per [`Level`]. Mark
/// `run`, and everything hot it calls, `#[inline(always)]`: the body is
/// compiled for a level only where it is inlined into that level's
/// wrapper.
pub trait Kernel {
    fn run(self);
}

/// The compilations of a [`Kernel`], narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The build target's own feature set (SSE2 on a default x86-64
    /// build, NEON on aarch64): the plain call, available everywhere.
    Baseline,
    /// x86-64 with AVX2: 256-bit registers, two per [`F64x8`].
    Avx2,
    /// x86-64 with AVX-512F: 512-bit registers, one per [`F64x8`].
    Avx512,
}

impl Level {
    pub const ALL: [Level; 3] = [Level::Baseline, Level::Avx2, Level::Avx512];

    /// Vector register width of this compilation in bits (128 stands
    /// for whatever the build target's baseline has).
    pub fn vector_bits(self) -> u64 {
        match self {
            Level::Baseline => 128,
            Level::Avx2 => 256,
            Level::Avx512 => 512,
        }
    }

    /// Whether this host can execute the level's compilation.
    pub fn is_available(self) -> bool {
        match self {
            Level::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Level::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest level this host can execute.
    pub fn widest() -> Level {
        let widest = Level::ALL.into_iter().rev().find(|l| l.is_available());
        widest.unwrap_or(Level::Baseline)
    }
}

/// Run `kernel` in the widest compilation this host can execute that is
/// no wider than `cap`. The caller caps by what it sees in its input (a
/// short call does not repay 512-bit execution); the host decides the
/// rest. Results do not depend on the choice — see the crate docs.
#[inline]
pub fn dispatch<K: Kernel>(cap: Level, kernel: K) {
    run_at(Level::widest().min(cap), kernel)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<K: Kernel>(kernel: K) {
    kernel.run()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn run_avx512<K: Kernel>(kernel: K) {
    kernel.run()
}

/// Run `kernel` in exactly `level`'s compilation: what [`dispatch`] is
/// written in terms of, and the seam tests use to compare compilations
/// bit for bit. Panics if the host cannot execute `level`.
#[inline]
#[allow(
    unsafe_code,
    reason = "calls the `target_feature` compilations once the level is checked"
)]
pub fn run_at<K: Kernel>(level: Level, kernel: K) {
    assert!(level.is_available(), "{level:?} not available on this host");
    #[cfg(target_arch = "x86_64")]
    match level {
        // SAFETY: `is_available` above is `is_x86_feature_detected!("avx512f")`,
        // the one feature `run_avx512` enables.
        Level::Avx512 => return unsafe { run_avx512(kernel) },
        // SAFETY: `is_available` above is `is_x86_feature_detected!("avx2")`,
        // the one feature `run_avx2` enables.
        Level::Avx2 => return unsafe { run_avx2(kernel) },
        Level::Baseline => {}
    }
    kernel.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_is_lanewise() {
        let a = F64x8::from_array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let b = F64x8::splat(2.0);
        assert_eq!((a + b).0[0], 3.0);
        assert_eq!((a * b).0[7], 16.0);
        assert_eq!((a - b).0[1], 0.0);
        assert_eq!((a / b).0[3], 2.0);
        assert_eq!((-a).0[4], -5.0);
        assert_eq!((a * 0.5).0[5], 3.0);
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let a = F64x8::from_array([0.5, -1.5, 2.0, 0.0, 3.0, -2.5, 1.0, 4.0]);
        let b = F64x8::splat(3.0);
        let c = F64x8::splat(-1.0);
        let fused = a.mul_add(b, c);
        let separate = a * b + c;
        for i in 0..F64_LANES {
            assert!((fused.0[i] - separate.0[i]).abs() < 1e-15);
        }
    }

    #[test]
    fn horizontal_reductions() {
        let a = F64x8::from_array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.horizontal_sum(), 36.0);
        assert_eq!(F64x8::ZERO.horizontal_sum(), 0.0);
    }

    #[test]
    fn padded_load_zero_fills() {
        let v = F64x8::from_slice_padded(&[1.0, 2.0, 3.0]);
        assert_eq!(v.horizontal_sum(), 6.0);
        assert_eq!(v.0[3], 0.0);
        assert_eq!(v.0[7], 0.0);
    }

    #[test]
    fn sqrt_and_recip() {
        let v = F64x8::from_array([1.0, 4.0, 9.0, 16.0, 25.0, 36.0, 49.0, 64.0]);
        let r = v.sqrt();
        for i in 0..F64_LANES {
            assert!((r.0[i] - (i as f64 + 1.0)).abs() < 1e-14);
        }
        let inv = F64x8::splat(2.0).recip();
        assert_eq!(inv.0[0], 0.5);
    }

    /// Running products feeding a multiply-then-add: the a_ℓm kernel's
    /// shape, and one an FMA would round differently.
    struct Powers<'a> {
        x: F64x8,
        out: &'a mut [F64x8],
    }

    impl Kernel for Powers<'_> {
        #[inline(always)]
        fn run(self) {
            let mut v = F64x8::splat(1.0);
            for o in self.out.iter_mut() {
                v *= self.x;
                *o += v.mul_add(self.x, v);
            }
        }
    }

    #[test]
    fn every_level_and_every_cap_gives_the_baseline_bits() {
        let levels: Vec<Level> = Level::ALL
            .into_iter()
            .filter(|l| l.is_available())
            .collect();
        println!("dispatch levels covered on this host: {levels:?}");
        assert_eq!(levels[0], Level::Baseline);
        assert_eq!(levels.last(), Some(&Level::widest()));

        let x = F64x8::from_array([0.1, -0.7, 1.3, 0.9, -1.1, 0.3, 1.7, -0.2]);
        let bits = |run: &dyn Fn(Powers)| -> Vec<u64> {
            let mut out = vec![F64x8::splat(0.5); 12];
            run(Powers { x, out: &mut out });
            out.iter().flat_map(|v| v.0).map(f64::to_bits).collect()
        };
        let baseline = bits(&|k| run_at(Level::Baseline, k));
        for &level in &levels {
            assert_eq!(bits(&|k| run_at(level, k)), baseline, "{level:?}");
        }
        for cap in Level::ALL {
            assert_eq!(bits(&|k| dispatch(cap, k)), baseline, "cap {cap:?}");
        }
    }

    #[test]
    fn le_mask_matches_scalar_compares() {
        let a = F64x8::from_array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let t = F64x8::splat(4.0);
        assert_eq!(a.le_mask(t), 0b0000_1111);
        assert_eq!(a.le_mask(F64x8::splat(0.0)), 0);
        assert_eq!(a.le_mask(F64x8::splat(100.0)), 0xff);
        // Boundary lanes: <= keeps the exact-equality lane.
        assert_eq!(F64x8::splat(4.0).le_mask(t), 0xff);
        // NaN compares false in every lane.
        assert_eq!(F64x8::splat(f64::NAN).le_mask(t), 0);
    }

    #[test]
    fn alignment_for_vector_loads() {
        assert_eq!(std::mem::align_of::<F64x8>(), 64);
        assert_eq!(std::mem::size_of::<F64x8>(), 64);
    }
}
