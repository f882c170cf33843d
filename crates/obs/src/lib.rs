//! # galactos-obs — unified metrics and tracing
//!
//! The paper's headline result is a throughput claim (5.06 PF/s
//! sustained on Cori), so where a run's time went needs one answer.
//! This crate is the workspace's only instrument — the engine, the grid
//! estimator and the supervised pipeline record into the
//! [`ObsSession`] they are handed, and the repo benchmark
//! (`BENCHMARK.json` + `benchmark/`) reads its per-layer ladder from
//! those same spans and counters:
//!
//! * [`Registry`] — named, atomics-backed [`Counter`]s and [`Gauge`]s.
//!   Integer adds commute exactly, so every counter total is bit-stable
//!   across thread pools.
//! * [`Tracer`] — a span tracer with thread-local span stacks
//!   (parent/child nesting), one track per worker thread or per rank,
//!   and aggregate slices for hot-path stage totals.
//! * [`chrome::chrome_trace_json`] — Chrome Trace Event JSON, loadable
//!   in Perfetto or `chrome://tracing`.
//!
//! ## The zero-cost contract
//!
//! Observability follows the same contract as the engine's per-worker
//! `instrument` gate on its stage timers: **a disabled session performs zero
//! clock reads and leaves results bit-identical**. Every clock read in
//! the workspace funnels through [`clock`] — the one module allowed past
//! the workspace `clippy.toml`'s ban on `Instant` and `SystemTime`
//! reads — and each real read bumps a global counter that tests use to
//! pin "uninstrumented ⇒ zero reads".
//!
//! ```
//! use galactos_obs::ObsSession;
//!
//! let obs = ObsSession::enabled();
//! {
//!     let _outer = obs.tracer.span("compute");
//!     let _inner = obs.tracer.span("tree_build");
//!     obs.registry.add("engine.primaries", 128);
//! }
//! let spans = obs.tracer.finished();
//! assert_eq!(spans.len(), 2);
//! assert_eq!(spans[0].path, "compute");
//! assert_eq!(spans[1].path, "compute/tree_build");
//! ```

#![forbid(unsafe_code)]

pub mod chrome;
pub mod clock;
pub mod registry;
pub mod span;

pub use registry::{Counter, Gauge, MetricValue, Registry};
pub use span::{SpanGuard, SpanRecord, Tracer};

/// A tracer plus a registry, handed through the runtime layers as one
/// unit. `ObsSession::disabled()` is free to construct and makes every
/// span/metric call a no-op with zero clock reads.
#[derive(Debug)]
pub struct ObsSession {
    pub tracer: Tracer,
    pub registry: Registry,
}

impl ObsSession {
    /// A live session: spans are timed, metrics recorded.
    pub fn enabled() -> Self {
        Self {
            tracer: Tracer::new(),
            registry: Registry::new(),
        }
    }

    /// An inert session: no clock reads, no allocations per call.
    pub fn disabled() -> Self {
        Self {
            tracer: Tracer::disabled(),
            registry: Registry::disabled(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_session_reads_no_clock() {
        let obs = ObsSession::disabled();
        let before = clock::thread_reads();
        {
            let _a = obs.tracer.span("a");
            let _b = obs.tracer.span("b");
            obs.tracer.add_aggregate("agg", 3, 1234);
            obs.registry.counter("c").add(1);
        }
        assert_eq!(clock::thread_reads(), before);
        assert!(obs.tracer.finished().is_empty());
    }

    #[test]
    fn enabled_session_records_nested_spans() {
        let obs = ObsSession::enabled();
        {
            let _a = obs.tracer.span("outer");
            {
                let _b = obs.tracer.span("inner");
            }
            let _c = obs.tracer.span("sibling");
        }
        let spans = obs.tracer.finished();
        let paths: Vec<&str> = spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["outer", "outer/inner", "outer/sibling"]);
        for s in &spans {
            assert!(s.end_nanos >= s.start_nanos);
        }
    }
}
