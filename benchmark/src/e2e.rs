//! The end-to-end run of one workload, tracing off: set-up, the timed ζ
//! repetitions, and the checks on what was timed.

use crate::harness::{best_of, fastest, pool, walls, Ops, Outcome, Rep, RunOpts, ScratchDir};
use crate::json::Json;
use crate::manifest::manifest;
use crate::metrics::{MetricSet, END_TO_END};
use crate::verify::{self, Fingerprint};
use crate::workloads::{Shape, Workload, THREADS};
use crate::{procfs, stats};
use galactos_catalog::io::{read_binary, write_binary};
use galactos_core::{AnisotropicZeta, Engine};

/// Fewest timed repetitions of the ζ computation, whatever the budget.
pub const MIN_REPS: usize = 3;
/// Repetitions of set-up before the first compute; one more follows
/// every timed repetition.
const MIN_SETUP_REPS: usize = 5;

fn rep_times(reps: &[Rep]) -> Json {
    Json::obj([
        ("wall_s", Json::nums(&walls(reps))),
        (
            "cpu_s",
            Json::nums(&reps.iter().map(|r| r.cpu_s).collect::<Vec<_>>()),
        ),
    ])
}

/// Run `workload` end to end. `expected` is the blessed fingerprint to
/// compare the timed ζ with, when there is one for this seed and size.
/// Returns the outcome and the fingerprint of what was timed (which
/// `--bless` records).
pub fn run(
    workload: &Workload,
    opts: &RunOpts,
    expected: Option<&Fingerprint>,
) -> (Outcome, Option<Fingerprint>) {
    let loadavg_start = procfs::loadavg();
    let scratch = ScratchDir::create(workload.name).expect("out/ is writable");
    let config = workload.config(opts.smoke);
    let mut ops = Ops::default();

    // The program under test receives the generated input as a file.
    let input = scratch.path().join("catalog.gcat");
    let generated = workload.generate(opts.seed, opts.smoke);
    write_binary(&generated, &input).expect("the input file is writable");
    drop(generated);

    // Set-up: everything between receiving the input and the first
    // compute.
    let shard_dir = scratch.path().join("shards");
    let setup = || {
        let catalog = read_binary(&input).expect("the input file reads back");
        let engine = Engine::new(config.clone());
        if let Shape::ShardedLowL { shards, .. } = workload.shape {
            galactos_domain::shard::write_sharded(&catalog, shards, &shard_dir)
                .expect("shards are writable");
        }
        (catalog, engine)
    };
    let mut ready = None;
    let mut setup_reps = best_of(MIN_SETUP_REPS, MIN_SETUP_REPS, 0.0, setup, |_, out| {
        ready = Some(out)
    });
    let (catalog, engine) = ready.expect("set-up ran");

    // The timed repetitions.
    let pool = pool(THREADS);
    let compute = || -> Result<AnisotropicZeta, String> {
        match workload.shape {
            Shape::ShardedLowL { ranks, .. } => {
                verify::supervised(&shard_dir, &config, ranks).map(|run| run.zeta)
            }
            _ => Ok(pool.install(|| engine.compute(&catalog))),
        }
    };
    let mut timed: Option<Fingerprint> = None;
    let mut peak_rss_mb = 0.0;
    let reps = best_of(MIN_REPS, 1000, opts.seconds, compute, |i, zeta| {
        if i == 0 {
            peak_rss_mb = procfs::peak_rss_mb();
        }
        // Every repetition must give the ζ the first one gave.
        let check = zeta.and_then(|zeta| {
            let fingerprint = Fingerprint::of(&zeta);
            if fingerprint.primaries != catalog.len() as u64 || !fingerprint.sum_abs.is_finite() {
                return Err(format!(
                    "{} primaries of {}, sum|zeta| = {}",
                    fingerprint.primaries,
                    catalog.len(),
                    fingerprint.sum_abs
                ));
            }
            match &timed {
                Some(first) => fingerprint.check(first),
                None => {
                    timed = Some(fingerprint);
                    Ok(())
                }
            }
        });
        ops.record(&format!("repetition {i}"), check);
        // Set-up is timed over the whole run as ζ is: the host's speed
        // changes every few seconds, and the fastest of a half-second
        // burst at the start says which stretch the run began in.
        setup_reps.extend(best_of(1, 1, 0.0, setup, |_, _| ()));
    });

    if let (Some(want), Some(got)) = (expected, &timed) {
        ops.record("fingerprint", got.check(want));
    }
    let differential = verify::differential(workload, &catalog, &config, opts.seed, scratch.path());
    let differential_diff = differential.as_ref().ok().copied();
    ops.record("differential", differential.map(|_| ()));

    let best = fastest(&reps);
    let mut metrics = MetricSet::new(END_TO_END);
    metrics.set("wall_s", best.wall_s);
    metrics.set("primaries_per_s", catalog.len() as f64 / best.wall_s);
    // /proc counts CPU time in ticks of 10 ms, tens of which make one
    // repetition; over all repetitions together the ratio of CPU to
    // wall time (the cores kept busy) is known a hundred times finer.
    let busy_cores =
        reps.iter().map(|r| r.cpu_s).sum::<f64>() / reps.iter().map(|r| r.wall_s).sum::<f64>();
    metrics.set("cpu_s", best.wall_s * busy_cores);
    metrics.set("setup_s", fastest(&setup_reps).wall_s);
    metrics.set("peak_rss_mb", peak_rss_mb);

    let detail = Json::obj([
        (
            "manifest",
            manifest(workload, &engine, opts, false, loadavg_start),
        ),
        ("k", Json::Num(reps.len() as f64)),
        ("repetitions", rep_times(&reps)),
        ("setup_repetitions", rep_times(&setup_reps)),
        ("rep_spread", Json::Num(stats::rep_spread(&walls(&reps)))),
        (
            "differential_rel_diff",
            differential_diff.map_or(Json::Null, Json::Num),
        ),
        (
            "fingerprint",
            timed.as_ref().map_or(Json::Null, Fingerprint::to_json),
        ),
    ]);
    let outcome = Outcome {
        ops,
        metrics: metrics.finish(),
        detail,
    };
    (outcome, timed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{by_name, DEFAULT_SEED};

    /// A workload shrunk until a debug build runs it in seconds.
    fn tiny(name: &str, n: usize) -> Workload {
        let mut w = *by_name(name).unwrap();
        w.smoke_n = n;
        w
    }

    const OPTS: RunOpts = RunOpts {
        seed: DEFAULT_SEED,
        seconds: 0.0,
        smoke: true,
    };

    #[test]
    fn a_perturbed_expectation_fails_exactly_one_operation() {
        let w = tiny("tree_sparse", 400);
        let (clean, fingerprint) = run(&w, &OPTS, None);
        let fingerprint = fingerprint.unwrap();
        assert!(clean.correct(), "{:?}", clean.ops.failures);
        // Three repetitions and the differential check.
        assert_eq!(clean.ops.attempted, MIN_REPS as u64 + 1);

        let (same, _) = run(&w, &OPTS, Some(&fingerprint));
        assert_eq!(
            (same.ops.attempted, same.failed()),
            (MIN_REPS as u64 + 2, 0)
        );

        let mut perturbed = fingerprint.clone();
        let largest = (0..perturbed.coefficients.len())
            .max_by(|&a, &b| {
                let (a, b) = (
                    perturbed.coefficients[a].abs(),
                    perturbed.coefficients[b].abs(),
                );
                a.partial_cmp(&b).unwrap()
            })
            .unwrap();
        perturbed.coefficients[largest] *= 1.0 + 1e-6;
        let (caught, _) = run(&w, &OPTS, Some(&perturbed));
        assert_eq!(caught.failed(), 1);
        assert!(!caught.correct());
        assert!(caught.ops.failures[0].starts_with("fingerprint: coefficient"));
        let line = caught.result_line();
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(line.get("failed").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn every_workload_emits_exactly_the_end_to_end_metrics() {
        for (name, n) in [
            ("tree_dense", 300),
            ("tree_default", 150),
            ("grid_paper", 300),
            ("sharded_lowl", 4000),
        ] {
            let mut w = tiny(name, n);
            if let Shape::Grid { .. } = w.shape {
                w.shape = Shape::Grid { mesh: 16 }; // 4³ cells under --smoke
            }
            let (outcome, fingerprint) = run(&w, &OPTS, None);
            assert!(outcome.correct(), "{name}: {:?}", outcome.ops.failures);
            let emitted = outcome.metrics.as_ref().unwrap();
            let names: Vec<_> = emitted.iter().map(|(d, _)| d.name).collect();
            let declared: Vec<_> = END_TO_END.iter().map(|d| d.name).collect();
            assert_eq!(names, declared, "{name}");
            assert!(emitted.iter().all(|(_, v)| *v > 0.0), "{name}: {emitted:?}");
            assert_eq!(fingerprint.unwrap().primaries, n as u64);
            let manifest = outcome.detail.get("manifest").unwrap();
            for key in ["git_head", "rustc", "backend_kind", "config_digest"] {
                assert!(manifest.get(key).unwrap().as_str().is_some(), "{key}");
            }
        }
    }
}
