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
//! * [`tables`] — aligned console table printing;
//! * [`size_arg`] — the binaries' one optional size argument.

#![forbid(unsafe_code)]

pub mod costmodel;
pub mod datasets;
pub mod tables;

use std::fmt::Display;
use std::str::FromStr;

/// Standard random seed used by the benchmark binaries so runs are
/// reproducible.
pub const BENCH_SEED: u64 = 20170601;

/// The binary's optional first argument, a catalog size: `default`
/// when absent. One that does not parse exits with a usage line and
/// status 2 instead of silently running the (large, slow) default.
pub fn size_arg<T: FromStr + Display>(default: T) -> T {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    let Some(arg) = args.next() else {
        return default;
    };
    arg.parse().unwrap_or_else(|_| {
        eprintln!("usage: {bin} [SIZE]\n  SIZE is a number (default {default}); got `{arg}`");
        std::process::exit(2)
    })
}
