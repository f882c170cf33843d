//! Shared infrastructure for the paper-reproduction binaries.
//!
//! Each binary under `src/bin/` (run with `cargo run --release -p
//! galactos-bench --bin <name>`) prints one paper figure or table that
//! no repo-benchmark workload produces. Nothing here measures
//! performance for the record: that is `BENCHMARK.json` + `benchmark/`.
//! This library provides what the binaries share:
//!
//! * [`costmodel`] — the measured-throughput cost model that converts
//!   exact per-rank pair counts into simulated times for rank counts far
//!   beyond the host (the substitute for the paper's Cori runs);
//! * [`datasets`] — catalog generation wrappers at paper-scaled sizes;
//! * [`tables`] — aligned console table printing.

#![forbid(unsafe_code)]

pub mod costmodel;
pub mod datasets;
pub mod tables;

/// Standard random seed used by the benchmark binaries so runs are
/// reproducible.
pub const BENCH_SEED: u64 = 20170601;
