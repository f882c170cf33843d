//! What both kinds of run share: the clock, best-of-k repetition, the
//! private scratch directory, and the result a run hands back.

use crate::json::Json;
use crate::metrics::{self, MetricDef};
use crate::procfs;
use galactos_obs::clock::Epoch;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Seconds `f` takes. Every clock read of the benchmark goes through
/// `galactos_obs::clock`, the workspace's one sanctioned gate.
pub fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Epoch::now();
    let out = f();
    (start.elapsed_nanos() as f64 * 1e-9, out)
}

/// What a run of one workload is asked for.
pub struct RunOpts {
    pub seed: u64,
    /// How long the timed repetitions may take together.
    pub seconds: f64,
    pub smoke: bool,
}

/// A pool of exactly `threads` workers, whatever the host has.
pub fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the pool builds")
}

/// Wall and CPU seconds of one repetition.
#[derive(Clone, Copy, Debug)]
pub struct Rep {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Repeat `f`, timing each call and handing its result to `after`
/// outside the timed region: at least `min_reps` times, then for as
/// long as another repetition of the fastest length seen still ends
/// inside `budget_s`, up to `max_reps`. The caller reports the fastest
/// repetition: the minimum estimates the undisturbed time, and is what
/// makes two runs of the same code agree.
pub fn best_of<T>(
    min_reps: usize,
    max_reps: usize,
    budget_s: f64,
    mut f: impl FnMut() -> T,
    mut after: impl FnMut(usize, T),
) -> Vec<Rep> {
    let started = Epoch::now();
    let mut reps = Vec::new();
    loop {
        let cpu0 = procfs::cpu_seconds();
        let (wall_s, out) = time(&mut f);
        let cpu_s = procfs::cpu_seconds() - cpu0;
        after(reps.len(), out);
        reps.push(Rep { wall_s, cpu_s });
        let elapsed = started.elapsed_nanos() as f64 * 1e-9;
        let room = elapsed + fastest(&reps).wall_s <= budget_s;
        if reps.len() >= max_reps || (reps.len() >= min_reps && !room) {
            return reps;
        }
    }
}

/// The repetition with the smallest wall time.
pub fn fastest(reps: &[Rep]) -> Rep {
    *reps
        .iter()
        .min_by(|a, b| a.wall_s.partial_cmp(&b.wall_s).expect("times are not NaN"))
        .expect("at least one repetition")
}

pub fn walls(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.wall_s).collect()
}

/// A directory of this process's own under `out/`, removed when the
/// guard drops: on success, on a failed check, and while a panic
/// unwinds.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(label: &str) -> std::io::Result<Self> {
        // Unique within the process too: tests run workloads on threads.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let serial = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = crate::out_dir().join(format!("tmp-{label}-{}-{serial}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Nothing useful can be done about a failure here.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Operations attempted and failed: one per timed repetition and one
/// per check.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Ops {
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            eprintln!("FAILED {what}: {why}");
            self.failures.push(format!("{what}: {why}"));
        }
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub ops: Ops,
    /// The declared metrics, or why the run did not emit exactly them.
    pub metrics: Result<Vec<(MetricDef, f64)>, Vec<String>>,
    /// Manifest, per-repetition times and whatever else explains the
    /// numbers; goes into the result file, not into the result line.
    pub detail: Json,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.ops.failures.is_empty() && self.metrics.is_ok()
    }

    pub fn failed(&self) -> u64 {
        // A metric set that broke its contract counts as one failure.
        self.ops.failures.len() as u64 + u64::from(self.metrics.is_err())
    }

    /// The one-line result: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> Json {
        let metrics = self
            .metrics
            .as_deref()
            .map_or(Json::Obj(vec![]), metrics::to_json);
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.ops.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            ("metrics", metrics),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_honours_minimum_budget_and_maximum() {
        let mut seen = Vec::new();
        let mut calls = 0;
        let reps = best_of(
            3,
            10,
            0.0,
            || {
                calls += 1;
                calls
            },
            |i, out| seen.push((i, out)),
        );
        assert_eq!(reps.len(), 3);
        assert_eq!(seen, [(0, 1), (1, 2), (2, 3)]);

        let reps = best_of(1, 4, 1e9, || (), |_, _| ());
        assert_eq!(reps.len(), 4);

        let slow = || std::thread::sleep(std::time::Duration::from_millis(20));
        let reps = best_of(1, 100, 0.07, slow, |_, _| ());
        assert!((2..=4).contains(&reps.len()), "{}", reps.len());
        assert!(fastest(&reps).wall_s >= 0.02);
        assert_eq!(walls(&reps).len(), reps.len());
    }

    #[test]
    fn scratch_dir_is_removed_on_drop_and_on_panic() {
        let dir = ScratchDir::create("unit").unwrap();
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("f"), b"x").unwrap();
        drop(dir);
        assert!(!path.exists());

        let seen = std::sync::Mutex::new(None);
        let result = std::panic::catch_unwind(|| {
            let dir = ScratchDir::create("unit-panic").unwrap();
            *seen.lock().unwrap() = Some(dir.path().to_path_buf());
            panic!("a check blew up");
        });
        assert!(result.is_err());
        let path = seen.lock().unwrap().clone().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn ops_count_attempts_and_failures() {
        let mut ops = Ops::default();
        ops.record("a", Ok(()));
        ops.record("b", Err("boom".into()));
        assert_eq!((ops.attempted, ops.failures.len()), (2, 1));
        let outcome = Outcome {
            ops,
            metrics: Err(vec!["x".into()]),
            detail: Json::Null,
        };
        assert!(!outcome.correct());
        assert_eq!(outcome.failed(), 2);
        let line = outcome.result_line();
        assert_eq!(line.as_obj().unwrap().len(), 4);
        assert_eq!(line.get("attempted").unwrap().as_f64(), Some(2.0));
    }
}
