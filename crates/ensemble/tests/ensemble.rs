//! End-to-end gates for the determinism contract: same seeds ⇒ same
//! covariance bits, with or without interruption, checkpoint damage,
//! or injected rank kills.

use galactos_cluster::fault::FaultPlan;
use galactos_core::SurveyConfig;
use galactos_ensemble::{EnsembleConfig, EnsembleError, MockEnsemble};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("galactos_ensemble_test")
        .join(format!("{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

const K: usize = 4;

fn smoke_config() -> EnsembleConfig {
    EnsembleConfig::smoke(K, 0xfeed_5eed)
}

fn assert_bit_identical(
    a: &galactos_ensemble::EnsembleResult,
    b: &galactos_ensemble::EnsembleResult,
) {
    assert_eq!(a.vectors.len(), b.vectors.len());
    for (k, (va, vb)) in a.vectors.iter().zip(&b.vectors).enumerate() {
        assert_eq!(va.len(), vb.len());
        for (i, (x, y)) in va.iter().zip(vb).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "realization {k} component {i}");
        }
    }
    let (ca, cb) = (&a.covariance, &b.covariance);
    assert_eq!(ca.n_samples, cb.n_samples);
    for (i, (x, y)) in ca.mean.iter().zip(&cb.mean).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "mean component {i}");
    }
    let dim = ca.mean.len();
    for i in 0..dim {
        for j in 0..dim {
            assert_eq!(
                ca.matrix[(i, j)].to_bits(),
                cb.matrix[(i, j)].to_bits(),
                "covariance ({i},{j})"
            );
        }
    }
}

#[test]
fn two_fresh_runs_are_bit_identical() {
    let (da, db) = (scratch("fresh_a"), scratch("fresh_b"));
    let a = MockEnsemble::new(smoke_config(), &da).run().unwrap();
    let b = MockEnsemble::new(smoke_config(), &db).run().unwrap();
    assert_eq!(a.status.computed, K);
    assert_eq!(b.status.skipped, 0);
    assert!(
        a.covariance.mean.iter().any(|&x| x != 0.0),
        "trivial ensemble"
    );
    assert_bit_identical(&a, &b);
    std::fs::remove_dir_all(&da).ok();
    std::fs::remove_dir_all(&db).ok();
}

#[test]
fn interrupted_then_resumed_run_matches_uninterrupted() {
    let (da, db) = (scratch("resume_a"), scratch("resume_b"));
    let uninterrupted = MockEnsemble::new(smoke_config(), &db).run().unwrap();

    // First pass dies after two realizations; a brand-new runner (a
    // fresh process, as far as state is concerned) finishes the job.
    let first = MockEnsemble::new(smoke_config(), &da);
    let status = first.run_limited(2).unwrap();
    assert_eq!(status.computed, 2);
    assert_eq!(status.remaining, K - 2);
    drop(first);

    let resumed = MockEnsemble::new(smoke_config(), &da).run().unwrap();
    assert_eq!(resumed.status.skipped, 2, "checkpointed work is not redone");
    assert_eq!(resumed.status.computed, K - 2);
    assert_bit_identical(&resumed, &uninterrupted);
    std::fs::remove_dir_all(&da).ok();
    std::fs::remove_dir_all(&db).ok();
}

#[test]
fn corrupt_checkpoint_is_recomputed_not_trusted() {
    let (da, db) = (scratch("corrupt_a"), scratch("corrupt_b"));
    let clean = MockEnsemble::new(smoke_config(), &db).run().unwrap();

    let ens = MockEnsemble::new(smoke_config(), &da);
    ens.run().unwrap();
    // Flip one payload bit in realization 1's checkpoint and truncate
    // realization 2's mid-payload.
    let p1 = ens.checkpoint_path(1);
    let mut bytes = std::fs::read(&p1).unwrap();
    let n = bytes.len();
    bytes[n - 20] ^= 0x01;
    std::fs::write(&p1, &bytes).unwrap();
    let p2 = ens.checkpoint_path(2);
    let bytes = std::fs::read(&p2).unwrap();
    std::fs::write(&p2, &bytes[..bytes.len() / 2]).unwrap();

    let repaired = MockEnsemble::new(smoke_config(), &da).run().unwrap();
    assert_eq!(repaired.status.skipped, K - 2);
    assert_eq!(
        repaired.status.recomputed, 2,
        "both damaged checkpoints redone"
    );
    assert_bit_identical(&repaired, &clean);
    std::fs::remove_dir_all(&da).ok();
    std::fs::remove_dir_all(&db).ok();
}

#[test]
fn stale_config_digest_forces_recompute() {
    let dir = scratch("digest");
    let mut config = smoke_config();
    MockEnsemble::new(config.clone(), &dir).run().unwrap();
    // Same directory, different physics: the old checkpoints must not
    // be mistaken for this ensemble's realizations. Each step differs
    // from the configuration whose checkpoints are on disk in exactly
    // one field.
    type Change = fn(&mut EnsembleConfig);
    let changes: [(&str, Change); 4] = [
        ("n_target", |c| c.n_target += 8),
        ("subtract_self_pairs", |c| {
            c.engine.subtract_self_pairs = !c.engine.subtract_self_pairs
        }),
        ("bucket_size", |c| c.engine.bucket_size += 1),
        // Radial about the box corner instead of fixed ẑ.
        ("line_of_sight", |c| {
            c.engine.line_of_sight = SurveyConfig::survey_default(Default::default(), 3.0, 1, 2)
                .engine
                .line_of_sight
        }),
    ];
    for (field, change) in changes {
        change(&mut config);
        let run = MockEnsemble::new(config.clone(), &dir).run().unwrap();
        assert_eq!(run.status.skipped, 0, "{field}");
        assert_eq!(run.status.recomputed, K, "{field}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rank_kill_mid_ensemble_changes_nothing() {
    let (da, db) = (scratch("chaos_a"), scratch("chaos_b"));
    let clean = MockEnsemble::new(smoke_config(), &db).run().unwrap();

    // Realization 1: rank 1 dies once in compute (retry path).
    // Realization 2: rank 0 dies every time (reassignment path).
    let mut cfg = smoke_config();
    cfg.faults = vec![
        (1, FaultPlan::none().with_phase_kill(1, "compute", 1)),
        (
            2,
            FaultPlan::none().with_phase_kill(
                0,
                "compute",
                galactos_cluster::fault::KillSpec::ALWAYS,
            ),
        ),
    ];
    let chaotic = MockEnsemble::new(cfg, &da).run().unwrap();
    assert_bit_identical(&chaotic, &clean);
    std::fs::remove_dir_all(&da).ok();
    std::fs::remove_dir_all(&db).ok();
}

#[test]
fn too_few_realizations_for_covariance_is_an_error() {
    let dir = scratch("too_few");
    let err = MockEnsemble::new(EnsembleConfig::smoke(1, 7), &dir)
        .run()
        .unwrap_err();
    match err {
        EnsembleError::Incomplete { needed: 2, .. } => {}
        other => panic!("expected Incomplete, got {other}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
