//! Chaos gates for the supervised distributed pipeline.
//!
//! The fault matrix sweeps injected kills across {every rank} ×
//! {ingest, compute, reduce} × ranks ∈ {2, 3, 5} on the 250-galaxy box
//! and requires the supervised ζ to match the plain single-process
//! answer to 1e-9 in every cell. A second sweep makes the kills
//! permanent so retries exhaust and the dead rank's shards are
//! reassigned — there the bar is raised to *bit identity* with the
//! failure-free supervised run. The same shard-order reduction makes
//! `zeta` and `shard_partials` bit-identical across rank counts.

use galactos_catalog::shard::MANIFEST_FILE;
use galactos_catalog::{uniform_box, Catalog};
use galactos_cluster::fault::{FailureCause, FaultPlan, KillSpec};
use galactos_core::config::EngineConfig;
use galactos_core::engine::Engine;
use galactos_core::pipeline::SupervisedError;
use galactos_core::pipeline::{
    compute_distributed_supervised, compute_distributed_supervised_observed, RankReport,
    RetryPolicy,
};
use galactos_core::result::AnisotropicZeta;
use galactos_core::ObsSession;
use galactos_domain::shard::write_sharded;
use std::collections::BTreeSet;
use std::path::PathBuf;

const PHASES: [&str; 3] = ["ingest", "compute", "reduce"];

fn open_catalog(n: usize, box_len: f64, seed: u64) -> Catalog {
    let mut c = uniform_box(n, box_len, seed);
    c.periodic = None;
    c
}

fn shard_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("galactos_supervised_test")
        .join(format!("{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn fault_matrix_transient_kills_match_single_process() {
    let cat = open_catalog(250, 15.0, 3);
    let config = EngineConfig::test_default(5.0, 3, 3);
    let single = Engine::new(config.clone()).compute(&cat);
    let scale = single.max_abs().max(1.0);
    let dir = shard_dir("fault_matrix");
    write_sharded(&cat, 7, &dir).unwrap();
    let manifest_path = dir.join(MANIFEST_FILE);
    let policy = RetryPolicy::default();

    for ranks in [2usize, 3, 5] {
        let clean = compute_distributed_supervised(
            &manifest_path,
            &config,
            ranks,
            &policy,
            FaultPlan::none(),
        )
        .unwrap();
        for victim in 0..ranks {
            for phase in PHASES {
                let plan = FaultPlan::none().with_phase_kill(victim, phase, 1);
                let run =
                    compute_distributed_supervised(&manifest_path, &config, ranks, &policy, plan)
                        .unwrap_or_else(|e| {
                            panic!("ranks={ranks} victim={victim} phase={phase}: {e}")
                        });
                assert!(
                    run.zeta.max_difference(&single) < 1e-9 * scale,
                    "ranks={ranks} victim={victim} phase={phase}: diff {}",
                    run.zeta.max_difference(&single)
                );
                // Exactly one failure: the injected transient kill,
                // attributed to the right rank and phase.
                assert_eq!(run.failures.len(), 1, "ranks={ranks} victim={victim}");
                assert_eq!(run.failures[0].rank, victim);
                assert_eq!(run.failures[0].phase, phase);
                assert_eq!(run.failures[0].cause, FailureCause::InjectedKill);
                assert!(
                    run.dead_ranks.is_empty(),
                    "transient kill must not be fatal"
                );
                let retried = run
                    .ranks
                    .iter()
                    .find(|r| r.rank == victim && r.reassigned_from.is_none())
                    .expect("victim recovers via retry");
                assert_eq!(retried.attempts, 2, "one failure, one successful retry");
                let owned_total: usize = run.ranks.iter().map(|r| r.owned).sum();
                assert_eq!(owned_total, 250, "primaries partition the catalog");
                // The retried shards' partials are the fault-free ones.
                assert_eq!(
                    partial_bits(&run.shard_partials),
                    partial_bits(&clean.shard_partials),
                    "ranks={ranks} victim={victim} phase={phase}"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every shard partial's values, as bits.
fn partial_bits(partials: &[AnisotropicZeta]) -> Vec<Vec<u64>> {
    partials
        .iter()
        .map(|p| p.to_f64_vec().iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn permanent_kill_reassigns_shards_bit_identically() {
    let cat = open_catalog(250, 15.0, 3);
    let config = EngineConfig::test_default(5.0, 3, 3);
    let dir = shard_dir("reassignment");
    write_sharded(&cat, 7, &dir).unwrap();
    let manifest_path = dir.join(MANIFEST_FILE);
    let policy = RetryPolicy { max_attempts: 2 };

    for ranks in [2usize, 3, 5] {
        let clean = compute_distributed_supervised(
            &manifest_path,
            &config,
            ranks,
            &policy,
            FaultPlan::none(),
        )
        .unwrap();
        assert!(clean.failures.is_empty());
        for victim in 0..ranks {
            let plan = FaultPlan::none().with_phase_kill(victim, "compute", KillSpec::ALWAYS);
            let run = compute_distributed_supervised(&manifest_path, &config, ranks, &policy, plan)
                .unwrap_or_else(|e| panic!("ranks={ranks} victim={victim}: {e}"));
            // Bit identity with the failure-free supervised run: the
            // reduction is over per-shard partials in shard order, so
            // losing a rank must be invisible down to the last bit.
            let a = run.zeta.to_f64_vec();
            let b = clean.zeta.to_f64_vec();
            assert_eq!(a.len(), b.len());
            for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "ranks={ranks} victim={victim}: component {i} differs"
                );
            }
            assert_eq!(run.dead_ranks, vec![victim]);
            // The victim's shards were taken over by survivors.
            let recovered: Vec<_> = run
                .ranks
                .iter()
                .filter(|r| r.reassigned_from == Some(victim))
                .collect();
            let (lo, hi) = galactos_domain::shard::shard_range_for_rank(7, ranks, victim);
            assert_eq!(
                recovered.len(),
                hi - lo,
                "one recovery report per lost shard"
            );
            for r in &recovered {
                assert_ne!(r.rank, victim, "a dead rank cannot recover its own work");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn supervised_is_bit_identical_across_rank_counts() {
    // Stronger than the 1e-9 single-process bar: because primaries are
    // partitioned by shard and reduced in shard order, the supervised
    // result does not depend on the rank count at all.
    let cat = open_catalog(180, 12.0, 5);
    let config = EngineConfig::test_default(4.0, 2, 2);
    let dir = shard_dir("rank_count_invariance");
    write_sharded(&cat, 5, &dir).unwrap();
    let manifest_path = dir.join(MANIFEST_FILE);
    let policy = RetryPolicy::default();
    let reference =
        compute_distributed_supervised(&manifest_path, &config, 1, &policy, FaultPlan::none())
            .unwrap();
    for ranks in [2usize, 3, 5, 7] {
        let run = compute_distributed_supervised(
            &manifest_path,
            &config,
            ranks,
            &policy,
            FaultPlan::none(),
        )
        .unwrap();
        let a = run.zeta.to_f64_vec();
        let b = reference.zeta.to_f64_vec();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "ranks={ranks} differs from 1 rank"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn transient_kills_are_retried_within_the_attempt_budget() {
    let cat = open_catalog(60, 8.0, 11);
    let config = EngineConfig::test_default(3.0, 1, 1);
    let dir = shard_dir("retry_budget");
    write_sharded(&cat, 3, &dir).unwrap();
    let manifest_path = dir.join(MANIFEST_FILE);
    let policy = RetryPolicy { max_attempts: 4 };
    // Rank 0 dies twice, then the third attempt succeeds, inside the
    // budget of four.
    let plan = FaultPlan::none().with_phase_kill(0, "compute", 2);
    let run = compute_distributed_supervised(&manifest_path, &config, 2, &policy, plan).unwrap();
    assert_eq!(run.failures.len(), 2);
    let report = run
        .ranks
        .iter()
        .find(|r| r.rank == 0)
        .expect("rank 0 recovers");
    assert_eq!(report.attempts, 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killing_every_rank_exhausts_the_run() {
    let cat = open_catalog(60, 8.0, 13);
    let config = EngineConfig::test_default(3.0, 1, 1);
    let dir = shard_dir("exhausted");
    write_sharded(&cat, 3, &dir).unwrap();
    let manifest_path = dir.join(MANIFEST_FILE);
    let policy = RetryPolicy { max_attempts: 2 };
    let plan = FaultPlan::none()
        .with_phase_kill(0, "compute", KillSpec::ALWAYS)
        .with_phase_kill(1, "compute", KillSpec::ALWAYS);
    let err = compute_distributed_supervised(&manifest_path, &config, 2, &policy, plan)
        .expect_err("no rank can make progress");
    match err {
        SupervisedError::Exhausted { failures } => {
            assert!(failures.len() >= 2, "both ranks reported failures");
        }
        other => panic!("expected Exhausted, got {other}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_invalid_config_is_refused_before_any_attempt() {
    // A config the engine rejects comes back as an error naming the rule
    // and the value, before the manifest is read: no rank attempts
    // anything, and a missing shard directory gives the same error.
    let cat = open_catalog(60, 8.0, 17);
    let mut config = EngineConfig::test_default(3.0, 1, 1);
    config.lmax = 40;
    let dir = shard_dir("invalid_config");
    write_sharded(&cat, 3, &dir).unwrap();
    for manifest_path in [
        dir.join(MANIFEST_FILE),
        dir.join("missing").join(MANIFEST_FILE),
    ] {
        let obs = ObsSession::enabled();
        let err = compute_distributed_supervised_observed(
            &manifest_path,
            &config,
            2,
            &RetryPolicy::default(),
            FaultPlan::none(),
            &obs,
        )
        .expect_err("no attempt can build the engine");
        assert!(
            matches!(
                err,
                SupervisedError::InvalidConfig(galactos_core::ConfigError::Lmax(40))
            ),
            "{err}"
        );
        assert_eq!(
            err.to_string(),
            "invalid engine config: lmax > 12 is untested and very slow, got lmax = 40"
        );
        assert_eq!(obs.registry.counter_value("supervised.attempts"), 0);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_ranks_or_attempts_is_an_error_not_a_panic() {
    // Caller input comes back as an error naming the argument, checked
    // before the manifest is read: a missing shard directory gives the
    // same error.
    let cat = open_catalog(60, 8.0, 19);
    let config = EngineConfig::test_default(3.0, 1, 1);
    let dir = shard_dir("zero_arguments");
    write_sharded(&cat, 3, &dir).unwrap();
    let no_attempts = RetryPolicy { max_attempts: 0 };
    for manifest_path in [
        dir.join(MANIFEST_FILE),
        dir.join("missing").join(MANIFEST_FILE),
    ] {
        for (ranks, policy, message) in [
            (
                0,
                &RetryPolicy::default(),
                "num_ranks = 0, but a distributed run needs at least 1",
            ),
            (
                2,
                &no_attempts,
                "policy.max_attempts = 0, but a distributed run needs at least 1",
            ),
        ] {
            let err = compute_distributed_supervised(
                &manifest_path,
                &config,
                ranks,
                policy,
                FaultPlan::none(),
            )
            .expect_err("a run needs a rank and an attempt");
            assert_eq!(err.to_string(), message);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_kill_aimed_past_the_last_rank_is_an_error_not_a_panic() {
    // The plan is caller input too: a kill of a rank the run does not
    // have comes back as an error naming the rank and the rank count,
    // checked before the manifest is read.
    let cat = open_catalog(60, 8.0, 23);
    let config = EngineConfig::test_default(3.0, 1, 1);
    let dir = shard_dir("kill_out_of_range");
    write_sharded(&cat, 3, &dir).unwrap();
    for manifest_path in [
        dir.join(MANIFEST_FILE),
        dir.join("missing").join(MANIFEST_FILE),
    ] {
        let err = compute_distributed_supervised(
            &manifest_path,
            &config,
            2,
            &RetryPolicy::default(),
            FaultPlan::none().with_phase_kill(5, "compute", 1),
        )
        .expect_err("rank 5 is not in a 2-rank run");
        assert!(
            matches!(
                err,
                SupervisedError::KillRankOutOfRange {
                    rank: 5,
                    num_ranks: 2
                }
            ),
            "{err}"
        );
        assert_eq!(
            err.to_string(),
            "the fault plan kills rank 5, but the run has 2 ranks"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn registry_counters_account_for_every_attempt() {
    // The `supervised.*` counters against what the run itself reports:
    // every attempt ends as a report or a failure, and round 0, retries
    // and reassignments count
    // through the same path (the expected tuples pin that path's order).
    // The finished spans name each path the run took.
    let cat = open_catalog(120, 10.0, 17);
    let config = EngineConfig::test_default(3.0, 1, 2);
    let dir = shard_dir("counters");
    write_sharded(&cat, 5, &dir).unwrap();
    let manifest_path = dir.join(MANIFEST_FILE);
    let plans = [
        (FaultPlan::none(), (3, 0, 0), vec![]),
        (
            FaultPlan::none().with_phase_kill(1, "compute", 2),
            (5, 2, 0),
            vec![],
        ),
        (
            FaultPlan::none()
                .with_phase_kill(0, "ingest", KillSpec::ALWAYS)
                .with_phase_kill(2, "reduce", 1),
            (7, 4, 1),
            vec![0],
        ),
    ];
    for (plan, expected, dead_ranks) in plans {
        let policy = RetryPolicy { max_attempts: 3 };
        let obs = ObsSession::enabled();
        let run = compute_distributed_supervised_observed(
            &manifest_path,
            &config,
            3,
            &policy,
            plan,
            &obs,
        )
        .unwrap();
        let counter = |name: &str| obs.registry.counter_value(&format!("supervised.{name}"));
        let reassigned = run
            .ranks
            .iter()
            .filter(|r| r.reassigned_from.is_some())
            .count();
        assert_eq!(
            (
                counter("attempts"),
                counter("failures"),
                counter("reassignments"),
            ),
            expected
        );
        assert_eq!(
            counter("attempts"),
            (run.ranks.len() + run.failures.len()) as u64
        );
        assert_eq!(counter("failures"), run.failures.len() as u64);
        assert_eq!(counter("injected_faults"), run.failures.len() as u64);
        assert_eq!(counter("dead_ranks"), run.dead_ranks.len() as u64);
        assert_eq!(run.dead_ranks, dead_ranks);
        assert_eq!(counter("reassignments"), reassigned as u64);
        let owned_total: usize = run.ranks.iter().map(|r| r.owned).sum();
        assert_eq!(owned_total, 120, "primaries partition the catalog");
        let total = |read: fn(&RankReport) -> u64| run.ranks.iter().map(read).sum::<u64>();
        assert_eq!(counter("records_read"), total(|r| r.records_read));
        assert_eq!(counter("bytes_read"), total(|r| r.bytes_read));
        // Each attempt that succeeded, and only those, carries its
        // stages under its own span.
        let finished = obs.tracer.finished();
        for stage in ["ingest.halo", "ingest.own", "compute"] {
            let parents: Vec<&str> = finished
                .iter()
                .filter(|s| s.aggregate && s.name == stage)
                .map(|s| s.path.split('/').next().unwrap())
                .collect();
            assert_eq!(parents.len(), run.ranks.len(), "{stage}: {parents:?}");
            for parent in parents {
                assert!(["shard_task", "retry", "reassign"].contains(&parent));
            }
        }
        let spans: BTreeSet<String> = obs.tracer.finished().into_iter().map(|s| s.name).collect();
        assert!(spans.contains("shard_task"), "have {spans:?}");
        assert_eq!(
            spans.contains("retry"),
            !run.failures.is_empty(),
            "a retry span iff an attempt failed; have {spans:?}"
        );
        assert_eq!(
            spans.contains("reassign"),
            !run.dead_ranks.is_empty(),
            "a reassign span iff a rank died; have {spans:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
