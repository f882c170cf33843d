//! Runtime-dispatched kernel backends.
//!
//! The a_ℓm accumulation kernel is the hottest path in Galactos (the
//! paper's Knights Landing kernel reaches ~39% of peak), so which
//! implementation runs must be a *runtime* decision — benchmarks compare
//! backends on one binary, operators can force the scalar reference on
//! exotic targets, and tests drive all backends through one engine. The
//! pieces:
//!
//! * [`BackendKind`] — the closed set of implementations: [`scalar`](
//!   crate::kernel::scalar), [`simd`](crate::kernel::simd), and
//!   [`batched`](crate::kernel::batched) (SIMD plus cross-bucket tail
//!   batching);
//! * [`KernelBackend`] — the object-safe trait the engine, scratch
//!   allocation, and the repo benchmark program against;
//! * [`BackendChoice`] — what sits in [`EngineConfig`](
//!   crate::config::EngineConfig): either a pinned kind or `Auto`,
//!   which consults the [`BACKEND_ENV`] environment variable and falls
//!   back to [`detect`].

use crate::kernel::KernelAccumulator;
use std::fmt;
use std::str::FromStr;

/// Environment variable consulted by [`BackendChoice::Auto`]:
/// `scalar`, `simd`, or `batched` (case-insensitive; `batched-simd` and
/// `batched_simd` are accepted aliases). Unparsable values fall back to
/// [`detect`].
pub const BACKEND_ENV: &str = "GALACTOS_KERNEL_BACKEND";

/// The closed set of kernel implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// One pair at a time, plain `f64` — the reference arithmetic.
    Scalar,
    /// 8-lane vectors, 4 chains in flight, one bucket per call (§3.3.2).
    Simd,
    /// The SIMD path plus cross-bucket tail batching: ragged bucket
    /// tails are staged and accumulated many buckets per call, with
    /// lane-width chunks spanning bucket boundaries.
    BatchedSimd,
}

impl BackendKind {
    /// Every backend, in scalar-first order (the order benchmark tables
    /// and equivalence sweeps use).
    pub const ALL: [BackendKind; 3] = [
        BackendKind::Scalar,
        BackendKind::Simd,
        BackendKind::BatchedSimd,
    ];

    /// Stable lowercase name, also the accepted [`BACKEND_ENV`] value.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Simd => "simd",
            BackendKind::BatchedSimd => "batched",
        }
    }

    /// The (stateless, static) backend implementation of this kind.
    pub fn backend(self) -> &'static dyn KernelBackend {
        match self {
            BackendKind::Scalar => &ScalarBackend,
            BackendKind::Simd => &SimdBackend,
            BackendKind::BatchedSimd => &BatchedSimdBackend,
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when a backend name cannot be parsed; lists the
/// accepted values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseBackendError(String);

impl fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown kernel backend {:?} (expected one of: scalar, simd, batched)",
            self.0
        )
    }
}

impl std::error::Error for ParseBackendError {}

impl FromStr for BackendKind {
    type Err = ParseBackendError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(BackendKind::Scalar),
            "simd" => Ok(BackendKind::Simd),
            "batched" | "batched-simd" | "batched_simd" => Ok(BackendKind::BatchedSimd),
            _ => Err(ParseBackendError(s.to_string())),
        }
    }
}

/// Pick the fastest backend this build can be expected to profit from.
///
/// The lane types in `galactos-simd` are portable (plain arrays that
/// LLVM autovectorizes), so every backend is *correct* everywhere; this
/// probe only decides which is likely *fastest*. The ladder:
///
/// 1. **AVX-512 builds** (`-C target-cpu` enabling `avx512f`, as on
///    the paper's Knights Landing nodes): [`BackendKind::BatchedSimd`].
///    One [`F64x8`](galactos_simd::F64x8) is one 512-bit register and
///    there are 32 of them, so the batched backend's 4-interleaved-
///    chain tail groups fit without spilling — the same ILP budget the
///    paper's aligned kernel is built around.
/// 2. **Other vector targets** (baseline x86-64 = SSE2, aarch64 =
///    NEON, wasm simd128): [`BackendKind::Simd`]. An `F64x8` spans
///    several narrow registers here, so running four chains at once
///    spills, and the one-chunk-per-bucket kernel is the faster one
///    on such builds. The benchmark's `core.kernel.*` layer
///    (`BENCHMARK.json`) times whichever backend this resolves to.
/// 3. **Everything else**: the scalar reference, rather than paying
///    8-lane bookkeeping with no vector registers to map it onto.
pub fn detect() -> BackendKind {
    if cfg!(target_feature = "avx512f") {
        BackendKind::BatchedSimd
    } else if cfg!(any(
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_feature = "simd128"
    )) {
        BackendKind::Simd
    } else {
        BackendKind::Scalar
    }
}

/// Backend selection as configured on [`EngineConfig`](
/// crate::config::EngineConfig).
///
/// Resolution order: a [`Fixed`](BackendChoice::Fixed) choice always
/// wins; [`Auto`](BackendChoice::Auto) consults the [`BACKEND_ENV`]
/// environment variable, then falls back to [`detect`]. Resolution
/// happens once, at [`Engine::new`](crate::engine::Engine::new) — not
/// per worker or per call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// Environment override if set and valid, else [`detect`].
    #[default]
    Auto,
    /// Always this backend, ignoring environment and detection.
    Fixed(BackendKind),
}

impl BackendChoice {
    /// Resolve against the process environment. A [`Fixed`](
    /// BackendChoice::Fixed) choice never touches the environment (so
    /// pinned-backend engines are safe to build while another thread
    /// mutates env vars); only [`Auto`](BackendChoice::Auto) reads
    /// [`BACKEND_ENV`].
    pub fn resolve(self) -> BackendKind {
        match self {
            BackendChoice::Fixed(kind) => kind,
            BackendChoice::Auto => self.resolve_with(std::env::var(BACKEND_ENV).ok().as_deref()),
        }
    }

    /// Resolution with an explicit environment value, so the fallback
    /// order is testable without mutating process state. `None` means
    /// the variable is unset; unparsable values fall back to
    /// [`detect`].
    pub fn resolve_with(self, env: Option<&str>) -> BackendKind {
        match self {
            BackendChoice::Fixed(kind) => kind,
            BackendChoice::Auto => env.and_then(|s| s.parse().ok()).unwrap_or_else(detect),
        }
    }
}

/// One kernel implementation, as seen by the engine: it constructs the
/// per-worker accumulation state; the state itself ([`
/// KernelAccumulator`]) carries the hot-path entry points so per-bucket
/// calls stay enum-dispatched (no virtual call per flush).
pub trait KernelBackend: Send + Sync {
    /// Which implementation this is.
    fn kind(&self) -> BackendKind;

    /// Stable lowercase name (for reports, JSON, env values).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Allocate per-worker accumulation state for `nbins` radial bins
    /// and `nmono` monomials.
    fn new_accumulator(&self, nbins: usize, nmono: usize) -> KernelAccumulator;
}

/// The scalar reference backend.
pub struct ScalarBackend;

impl KernelBackend for ScalarBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Scalar
    }

    fn new_accumulator(&self, nbins: usize, nmono: usize) -> KernelAccumulator {
        KernelAccumulator::new_scalar(nbins, nmono)
    }
}

/// The one-bucket-per-call SIMD backend.
pub struct SimdBackend;

impl KernelBackend for SimdBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Simd
    }

    fn new_accumulator(&self, nbins: usize, nmono: usize) -> KernelAccumulator {
        KernelAccumulator::new_simd(nbins, nmono)
    }
}

/// The SIMD backend with cross-bucket tail batching.
pub struct BatchedSimdBackend;

impl KernelBackend for BatchedSimdBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::BatchedSimd
    }

    fn new_accumulator(&self, nbins: usize, nmono: usize) -> KernelAccumulator {
        KernelAccumulator::new_batched(nbins, nmono)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_back_to_themselves() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
            assert_eq!(format!("{kind}"), kind.name());
        }
    }

    #[test]
    fn parsing_accepts_aliases_and_case() {
        for s in ["batched", "BATCHED-SIMD", "Batched_Simd", " batched "] {
            assert_eq!(s.parse::<BackendKind>().unwrap(), BackendKind::BatchedSimd);
        }
        assert_eq!(
            "SCALAR".parse::<BackendKind>().unwrap(),
            BackendKind::Scalar
        );
        assert_eq!("Simd".parse::<BackendKind>().unwrap(), BackendKind::Simd);
    }

    #[test]
    fn parsing_rejects_garbage_with_helpful_error() {
        let err = "avx9000".parse::<BackendKind>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("avx9000"), "{msg}");
        assert!(msg.contains("scalar"), "{msg}");
    }

    #[test]
    fn fixed_choice_ignores_environment() {
        let c = BackendChoice::Fixed(BackendKind::Scalar);
        assert_eq!(c.resolve_with(Some("simd")), BackendKind::Scalar);
        assert_eq!(c.resolve_with(None), BackendKind::Scalar);
    }

    #[test]
    fn auto_fallback_order_is_env_then_detect() {
        let auto = BackendChoice::Auto;
        // 1. Valid env value wins.
        assert_eq!(auto.resolve_with(Some("scalar")), BackendKind::Scalar);
        assert_eq!(auto.resolve_with(Some("simd")), BackendKind::Simd);
        // 2. Unset env falls back to detection.
        assert_eq!(auto.resolve_with(None), detect());
        // 3. Unparsable env also falls back to detection.
        assert_eq!(auto.resolve_with(Some("not-a-backend")), detect());
    }

    #[test]
    fn detect_never_picks_scalar_on_vector_targets() {
        // The test suite runs on x86-64 or aarch64 hosts; both have
        // vector units, so detection must not demote to scalar there.
        // Which SIMD flavor wins depends on the register file: batched
        // needs the AVX-512 register budget for its 4-chain groups.
        if cfg!(any(target_arch = "x86_64", target_arch = "aarch64")) {
            let expected = if cfg!(target_feature = "avx512f") {
                BackendKind::BatchedSimd
            } else {
                BackendKind::Simd
            };
            assert_eq!(detect(), expected);
        }
    }

    #[test]
    fn default_choice_is_auto() {
        assert_eq!(BackendChoice::default(), BackendChoice::Auto);
    }

    #[test]
    fn trait_objects_report_their_kind() {
        for kind in BackendKind::ALL {
            let b = kind.backend();
            assert_eq!(b.kind(), kind);
            assert_eq!(b.name(), kind.name());
            let acc = b.new_accumulator(2, 4);
            assert_eq!(acc.kind(), kind);
            assert_eq!(acc.nmono(), 4);
        }
    }
}
