//! Kernel backend selection.
//!
//! The a_ℓm accumulation kernel is the hottest path in Galactos (the
//! paper's Knights Landing kernel reaches ~39% of peak). One
//! implementation is the path and one is its oracle:
//!
//! * [`BackendKind`] — the closed set of implementations:
//!   [`simd`](crate::kernel::simd), the paper's §3.3.2 kernel, and
//!   [`scalar`](crate::kernel::scalar), the reference arithmetic the
//!   equivalence tests and the benchmark's differential check compare
//!   it against;
//! * [`KernelBackend`] — the object-safe trait the engine, scratch
//!   allocation, and the repo benchmark program against;
//! * [`BackendChoice`] — what sits in [`EngineConfig`](
//!   crate::config::EngineConfig): either a pinned kind or `Auto`,
//!   which is the SIMD kernel. Nothing here reads the process
//!   environment: the backend is a function of the configuration.

use crate::kernel::KernelAccumulator;
use std::fmt;

/// The closed set of kernel implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// One pair at a time, plain `f64` — the reference arithmetic.
    Scalar,
    /// 8-lane vectors, 4 register chains in flight, one bucket per call
    /// (§3.3.2), at the host's vector width.
    Simd,
}

impl BackendKind {
    /// Every backend, reference first (the order equivalence sweeps
    /// use).
    pub const ALL: [BackendKind; 2] = [BackendKind::Scalar, BackendKind::Simd];

    /// Stable lowercase name (for reports and run manifests).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Simd => "simd",
        }
    }

    /// The (stateless, static) backend implementation of this kind.
    pub fn backend(self) -> &'static dyn KernelBackend {
        match self {
            BackendKind::Scalar => &ScalarBackend,
            BackendKind::Simd => &SimdBackend,
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Backend selection as configured on [`EngineConfig`](
/// crate::config::EngineConfig). Resolved once, at [`Engine::new`](
/// crate::engine::Engine::new) — not per worker or per call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// The SIMD kernel. Its lane types in `galactos-simd` are portable
    /// arrays, so it is correct on every build target; on x86-64 it
    /// moves up to the host's AVX2 / AVX-512 per call (see
    /// [`simd`](crate::kernel::simd)).
    #[default]
    Auto,
    /// Always this backend — how the equivalence tests and the
    /// benchmark's differential check run the scalar reference.
    Fixed(BackendKind),
}

impl BackendChoice {
    pub fn resolve(self) -> BackendKind {
        match self {
            BackendChoice::Fixed(kind) => kind,
            BackendChoice::Auto => BackendKind::Simd,
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

    /// Stable lowercase name (for reports and run manifests).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_choice_resolves_to_itself_and_auto_to_simd() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendChoice::Fixed(kind).resolve(), kind);
        }
        assert_eq!(BackendChoice::Auto.resolve(), BackendKind::Simd);
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
            assert_eq!(format!("{kind}"), kind.name());
            let acc = b.new_accumulator(2, 4);
            assert_eq!(acc.kind(), kind);
            assert_eq!(acc.nmono(), 4);
        }
    }
}
