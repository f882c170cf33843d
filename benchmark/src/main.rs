//! The repo benchmark. See `README.md` in this directory.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--bless]
//!     one workload in this process; the last line of standard output is
//!     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//! benchmark [run] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//!     all five workloads, each in a child process; writes out/results.json
//! benchmark aa [--n N] [--seed N] [--seconds S] [--smoke]
//!     A/A self-check: two interleaved sets of N runs of this binary
//! ```

mod aa;
mod e2e;
mod harness;
mod json;
mod ladder;
mod manifest;
mod metrics;
mod procfs;
mod stats;
mod verify;
mod workloads;

use harness::{Outcome, RunOpts};
use json::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Workload, DEFAULT_SEED};

/// The benchmark's own directory (where it was built).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where every file the benchmark writes goes.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

#[derive(Clone, Debug, PartialEq)]
enum Mode {
    Run,
    Aa,
    Workload(String),
}

#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    mode: Mode,
    seed: u64,
    /// `None`: 22 s, or 1 s under `--smoke`.
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    bless: bool,
    /// Runs per set of `aa`.
    n: usize,
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke { 1.0 } else { 22.0 })
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        mode: Mode::Run,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        bless: false,
        n: 5,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "run" => parsed.mode = Mode::Run,
            "aa" => parsed.mode = Mode::Aa,
            "--workload" => parsed.mode = Mode::Workload(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {s}: must be finite and not negative"));
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: must be 0 or 1")),
                }
            }
            "--n" => {
                parsed.n = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--n: {e}"))?;
                if parsed.n < 2 {
                    return Err("--n: quartiles need at least 2 runs per set".into());
                }
            }
            "--smoke" => parsed.smoke = true,
            "--bless" => parsed.bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.bless && (parsed.seed != DEFAULT_SEED || parsed.trace) {
        return Err("--bless records the default seed's end-to-end result only".into());
    }
    if parsed.bless && !matches!(parsed.mode, Mode::Workload(_)) {
        return Err("--bless needs --workload".into());
    }
    Ok(parsed)
}

fn result_file(workload: &str, trace: bool) -> PathBuf {
    let suffix = if trace { ".trace" } else { "" };
    out_dir().join(format!("{workload}{suffix}.json"))
}

/// One workload, in this process. Prints every metric by name with its
/// unit, writes the result file, and prints the result line last.
fn run_workload(workload: &Workload, args: &Args) -> bool {
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds(),
        smoke: args.smoke,
    };
    let outcome: Outcome = if args.trace {
        ladder::run(workload, &opts)
    } else {
        let expected = if args.bless {
            Ok(None)
        } else {
            verify::load_expected(&bench_dir(), workload.name, args.seed, args.smoke)
        };
        let (mut outcome, timed) = e2e::run(
            workload,
            &opts,
            expected.as_ref().ok().and_then(Option::as_ref),
        );
        if let Err(why) = expected {
            outcome.ops.record("expected fingerprint", Err(why));
        }
        if let (true, Some(timed)) = (args.bless && outcome.correct(), &timed) {
            verify::bless(&bench_dir(), workload.name, args.smoke, timed)
                .expect("expected/ is writable");
            eprintln!("blessed expected/{}.json", workload.name);
        }
        outcome
    };

    match &outcome.metrics {
        Ok(metrics) => {
            for (def, value) in metrics {
                println!(
                    "{:<13} {:<34} {:>18.6} {}",
                    workload.name, def.name, value, def.unit
                );
            }
        }
        Err(problems) => {
            for p in problems {
                eprintln!("FAILED metrics: {p}");
            }
        }
    }
    let line = outcome.result_line();
    let failures = outcome.ops.failures.iter().cloned().map(Json::Str);
    let file = Json::obj([
        ("result", line.clone()),
        ("failures", Json::Arr(failures.collect())),
        ("detail", outcome.detail.clone()),
    ]);
    std::fs::create_dir_all(out_dir()).expect("out/ is writable");
    std::fs::write(result_file(workload.name, args.trace), file.pretty())
        .expect("out/ is writable");
    println!("{line}");
    outcome.correct()
}

/// Run one workload in a child process of its own and return what it
/// wrote to its result file. The child's metric lines are passed on.
fn run_child(workload: &Workload, args: &Args, seed: u64, echo: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    if echo {
        for line in &lines {
            println!("{line}");
        }
    }
    let printed =
        Json::parse(last).map_err(|e| format!("{}: no result line ({e})", workload.name))?;
    let file = std::fs::read_to_string(result_file(workload.name, args.trace))
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t))?;
    if file.get("result") != Some(&printed) {
        return Err(format!(
            "{}: result file and result line differ",
            workload.name
        ));
    }
    if !output.status.success() || printed.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{}: {printed}", workload.name));
    }
    Ok(file)
}

/// All five workloads; exits non-zero if any operation failed anywhere.
fn run_all(args: &Args) -> bool {
    let mut all = Vec::new();
    let mut ok = true;
    for workload in &workloads::ALL {
        println!("# {}: {}", workload.name, workload.why);
        match run_child(workload, args, args.seed, true) {
            Ok(file) => {
                let result = file.get("result").expect("checked by run_child");
                println!(
                    "{:<13} attempted {} failed {}",
                    workload.name,
                    result
                        .get("attempted")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0),
                    result.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
                );
                all.push((workload.name, file));
            }
            Err(why) => {
                eprintln!("FAILED {why}");
                ok = false;
            }
        }
    }
    let path = out_dir().join(if args.trace {
        "results.trace.json"
    } else {
        "results.json"
    });
    std::fs::write(&path, Json::obj(all).pretty()).expect("out/ is writable");
    println!("wrote {}", path.display());
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.mode {
        Mode::Run => run_all(&args),
        Mode::Aa => aa::run(&args),
        Mode::Workload(name) => match workloads::by_name(name) {
            Some(workload) => run_workload(workload, &args),
            None => {
                let known: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
                eprintln!(
                    "benchmark: unknown workload `{name}`; known: {}",
                    known.join(", ")
                );
                return ExitCode::from(2);
            }
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let args = parse(&[
            "--workload",
            "grid_paper",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.mode, Mode::Workload("grid_paper".into()));
        assert_eq!((args.seed, args.seconds(), args.trace), (7, 12.0, true));
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.mode, Mode::Run);
        assert_eq!(
            (defaults.seed, defaults.seconds(), defaults.trace),
            (DEFAULT_SEED, 22.0, false)
        );
        assert_eq!(
            parse(&["aa", "--smoke", "--n", "6"]).unwrap().seconds(),
            1.0
        );
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "-1"],
            &["--seconds", "nan"],
            &["--frobnicate"],
            &["aa", "--n", "1"],
            &["--bless"],
            &["--workload", "tree_dense", "--bless", "--seed", "5"],
            &["--workload", "tree_dense", "--bless", "--trace", "1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    /// The benchmark must time the engine as the repository builds it.
    #[test]
    fn release_profile_equals_the_root_manifests() {
        fn release_profile(manifest: &str) -> Vec<String> {
            let mut lines: Vec<String> = manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| {
                    l.split('#')
                        .next()
                        .unwrap_or("")
                        .split_whitespace()
                        .collect()
                })
                .filter(|l: &String| !l.is_empty())
                .collect();
            lines.sort();
            lines
        }
        let read = |p: PathBuf| std::fs::read_to_string(p).unwrap();
        let ours = release_profile(&read(bench_dir().join("Cargo.toml")));
        let root = release_profile(&read(bench_dir().join("../Cargo.toml")));
        assert_eq!(ours, ["codegen-units=1", "debug=true", "lto=\"thin\""]);
        assert_eq!(ours, root);
    }

    #[test]
    fn benchmark_json_names_the_five_workloads_and_this_directory() {
        let text = std::fs::read_to_string(bench_dir().join("../BENCHMARK.json")).unwrap();
        let doc = Json::parse(&text).unwrap();
        let declared: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |k| w.get(k).and_then(Json::as_str).unwrap();
                (field("name"), field("why"))
            })
            .collect();
        let ours: Vec<(&str, &str)> = workloads::ALL.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(declared, ours);
        let paths = doc.get("paths").and_then(Json::as_arr).unwrap();
        assert_eq!(paths, [Json::Str("benchmark".into())]);
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
