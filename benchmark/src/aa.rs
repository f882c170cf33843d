//! `benchmark aa`: the A/A self-check. Two interleaved sets of runs of
//! the same binary must agree within the bounds the benchmark sets for
//! a regression; if they do not, the bounds mean nothing.

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::{iqr_share, median, quartiles};
use crate::{run_child, workloads, Args};
use std::collections::BTreeMap;

/// Share of the baseline median by which an end-to-end metric may get
/// worse before it counts as a regression; `BENCHMARK.json` carries the
/// same number. It is the largest the benchmark driver accepts, for
/// every metric: on the shared 2-core hosts this runs on, the fastest
/// repetition of a 22 s run moves by 3–37 % between runs of the same
/// binary, by workload and by hour (see README, *A/A result*).
pub const BOUND: f64 = 0.25;

/// Values of one set: (workload, metric) → one value per run.
type Set = BTreeMap<(&'static str, &'static str), Vec<f64>>;

fn metric_value(file: &Json, metric: &str) -> Option<f64> {
    file.get("result")?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

pub fn run(args: &Args) -> bool {
    let mut sets: [Set; 2] = [Set::new(), Set::new()];
    let mut ok = true;
    println!(
        "A/A: 2 interleaved sets of {} runs per workload, {} s each, seeds {}..",
        args.n,
        args.seconds(),
        args.seed
    );
    for round in 0..args.n {
        // Both sets see the same seeds, so they differ by noise alone.
        let seed = args.seed + round as u64;
        for (label, set) in ["A", "B"].into_iter().zip(sets.iter_mut()) {
            for workload in &workloads::ALL {
                let file = match run_child(workload, args, seed, false) {
                    Ok(file) => file,
                    Err(why) => {
                        eprintln!("FAILED {label}{round} {why}");
                        ok = false;
                        continue;
                    }
                };
                for def in END_TO_END {
                    let value =
                        metric_value(&file, def.name).expect("a correct run has every metric");
                    set.entry((workload.name, def.name))
                        .or_default()
                        .push(value);
                }
                let detail = |key| {
                    file.get("detail")
                        .and_then(|d| d.get(key))
                        .and_then(Json::as_f64)
                };
                println!(
                    "{label}{round} {:<13} seed {seed} wall_s {:.4} k {} harness.rep_spread {:.4}",
                    workload.name,
                    metric_value(&file, "wall_s").unwrap_or(f64::NAN),
                    detail("k").unwrap_or(f64::NAN),
                    detail("rep_spread").unwrap_or(f64::NAN),
                );
            }
        }
    }

    println!();
    println!(
        "{:<13} {:<16} {:>12} {:>12} {:>12} {:>7} | {:>12} {:>12} {:>12} {:>7} | {:>7} {:>6}",
        "workload",
        "metric",
        "A median",
        "A q1",
        "A q3",
        "A iqr",
        "B median",
        "B q1",
        "B q3",
        "B iqr",
        "|A-B|",
        "bound"
    );
    let [a_set, b_set] = &sets;
    for (key, a) in a_set {
        let Some(b) = b_set.get(key).filter(|b| b.len() >= 2 && a.len() >= 2) else {
            continue; // the failed runs were reported above
        };
        let (workload, metric) = key;
        let (ma, mb) = (median(a), median(b));
        let ((a1, a3), (b1, b3)) = (quartiles(a), quartiles(b));
        let apart = (ma - mb).abs() / ma.min(mb);
        let verdict = if apart <= BOUND { "" } else { "  APART" };
        ok &= apart <= BOUND;
        println!(
            "{workload:<13} {metric:<16} {ma:>12.5} {a1:>12.5} {a3:>12.5} {:>6.2}% | {mb:>12.5} {b1:>12.5} {b3:>12.5} {:>6.2}% | {:>6.2}% {:>5.0}%{verdict}",
            100.0 * iqr_share(a),
            100.0 * iqr_share(b),
            100.0 * apart,
            100.0 * BOUND,
        );
    }
    println!();
    println!(
        "{}",
        if ok {
            "A/A: every pair of medians is within its bound"
        } else {
            "A/A: FAILED"
        }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_metric_out_of_a_result_file() {
        let file = Json::parse(
            r#"{"result": {"metrics": {"wall_s": {"value": 2.5, "unit": "s"}}}, "detail": {}}"#,
        )
        .unwrap();
        assert_eq!(metric_value(&file, "wall_s"), Some(2.5));
        assert_eq!(metric_value(&file, "cpu_s"), None);
    }
}
