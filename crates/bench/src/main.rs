//! `reproduce` — the paper figures and tables that no repo-benchmark
//! workload produces, one subcommand each:
//!
//! ```text
//! cargo run --release -p galactos-bench --bin reproduce -- <subcommand> [SIZE]
//! ```
//!
//! `fig01`, `fig03`, `fig06`, `fig07`, `sec23`, `sec32`, `sec61` and
//! `table1`, each the `run` of the module of the same name; the
//! catalog-size ones take an optional SIZE. Nothing here measures
//! performance for the record: that is `BENCHMARK.json` +
//! `benchmark/`. The subcommands share:
//!
//! * [`costmodel`] — the measured-throughput cost model that converts
//!   exact per-rank pair counts into simulated times for rank counts far
//!   beyond the host (the substitute for the paper's Cori runs);
//! * [`datasets`] — catalog generation wrappers at paper-scaled sizes;
//! * [`tables`] — aligned console table printing;
//! * [`write_csv`] — the CSV files of `fig01` and `fig03`.

#![forbid(unsafe_code)]

mod costmodel;
mod datasets;
mod fig01;
mod fig03;
mod fig06;
mod fig07;
mod sec23;
mod sec32;
mod sec61;
mod table1;
mod tables;

use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

/// Standard random seed used by every subcommand so runs are
/// reproducible.
const BENCH_SEED: u64 = 20170601;

const USAGE: &str = "usage: reproduce <fig01 | fig03 [SIZE] | fig06 [SIZE] | fig07 [SIZE] | \
                     sec23 [SIZE] | sec32 [SIZE] | sec61 | table1>";

/// The subcommand's optional catalog size: `default` when absent,
/// `None` when it does not parse or more arguments follow.
fn size<T: FromStr>(rest: &[&str], default: T) -> Option<T> {
    match rest {
        [] => Some(default),
        [arg] => arg.parse().ok(),
        _ => None,
    }
}

/// Write `header` then `lines` to `name` in the temp directory and
/// return its path; the error names the file.
fn write_csv(
    name: &str,
    header: &str,
    lines: impl Iterator<Item = String>,
) -> Result<PathBuf, String> {
    let path = std::env::temp_dir().join(name);
    let mut csv = format!("{header}\n");
    for line in lines {
        csv.push_str(&line);
        csv.push('\n');
    }
    std::fs::write(&path, csv).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let outcome = match args[..] {
        ["fig01"] => Some(fig01::run()),
        ["fig03", ref rest @ ..] => size(rest, 30_000).map(fig03::run),
        ["fig06", ref rest @ ..] => size(rest, 4_000.0).map(fig06::run),
        ["fig07", ref rest @ ..] => size(rest, 40_000.0).map(fig07::run),
        ["sec23", ref rest @ ..] => size(rest, 20_000).map(sec23::run),
        ["sec32", ref rest @ ..] => size(rest, 40_000).map(sec32::run),
        ["sec61"] => Some(sec61::run()),
        ["table1"] => Some(table1::run()),
        _ => None,
    };
    match outcome {
        Some(Ok(())) => ExitCode::SUCCESS,
        Some(Err(e)) => {
            eprintln!("reproduce: {e}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
