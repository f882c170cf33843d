//! The run manifest every output carries: what produced the numbers.

use crate::harness::RunOpts;
use crate::json::Json;
use crate::procfs;
use crate::workloads::{Workload, THREADS};
use galactos_core::{Engine, EngineConfig};
use std::path::Path;

/// 64-bit FNV-1a of the configuration's `Debug` text: two runs with the
/// same digest timed the same `EngineConfig`.
pub fn config_digest(config: &EngineConfig) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{config:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// What `git rev-parse HEAD` would print for the repository that holds
/// the benchmark, read from `.git` without starting a process; or
/// `"unknown"` (a benchmark checkout is often not a repository).
pub fn git_head(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head; // detached: HEAD holds the commit itself
    };
    read(&git.join(reference))
        .or_else(|| {
            let packed = read(&git.join("packed-refs"))?;
            packed.lines().find_map(|line| {
                let (sha, name) = line.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn manifest(
    workload: &Workload,
    engine: &Engine,
    opts: &RunOpts,
    traced: bool,
    loadavg_start: f64,
) -> Json {
    let RunOpts {
        seed,
        seconds,
        smoke,
    } = *opts;
    let repo_root = crate::bench_dir().join("..");
    Json::obj([
        ("workload", Json::Str(workload.name.into())),
        ("git_head", Json::Str(git_head(&repo_root))),
        ("rustc", Json::Str(env!("BENCHMARK_RUSTC_VERSION").into())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("traced", Json::Bool(traced)),
        ("nproc", Json::Num(host_threads() as f64)),
        ("threads", Json::Num(THREADS as f64)),
        ("galaxies", Json::Num(workload.galaxies(smoke) as f64)),
        ("rmax", Json::Num(workload.rmax(smoke))),
        (
            "backend_kind",
            Json::Str(engine.backend_kind().name().into()),
        ),
        (
            "traversal_kind",
            Json::Str(engine.traversal_kind().name().into()),
        ),
        (
            "estimator_kind",
            Json::Str(engine.estimator_kind().name().into()),
        ),
        ("config_digest", Json::Str(config_digest(engine.config()))),
        ("loadavg_start", Json::Num(loadavg_start)),
        ("peak_rss_mb_so_far", Json::Num(procfs::peak_rss_mb())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_follows_the_configuration() {
        let a = EngineConfig::paper_default(10.0);
        let mut b = a.clone();
        assert_eq!(config_digest(&a), config_digest(&b));
        b.subtract_self_pairs = false;
        assert_ne!(config_digest(&a), config_digest(&b));
        assert_eq!(config_digest(&a).len(), 16);
    }

    #[test]
    fn git_head_reads_loose_packed_and_detached_heads() {
        let root = crate::out_dir().join(format!("test-git-{}", std::process::id()));
        let git = root.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        assert_eq!(git_head(&root), "unknown");
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        assert_eq!(git_head(&root), "unknown");
        std::fs::write(
            git.join("packed-refs"),
            "# pack-refs\nabc123 refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(git_head(&root), "abc123");
        std::fs::write(git.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(git_head(&root), "def456");
        std::fs::write(git.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(git_head(&root), "0123abcd");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
