//! One *enabled* session through every observed layer.
//!
//! The engine (tree and grid), the supervised pipeline and the ensemble
//! runner all record into the [`ObsSession`] they are handed. Every
//! other test of the supervised and ensemble observed entry points uses
//! a disabled session (the zero-clock contract); this one pins that an
//! enabled session actually receives each layer's spans and the
//! fault-tolerance counters.

use galactos_catalog::shard::MANIFEST_FILE;
use galactos_catalog::uniform_box;
use galactos_cluster::fault::FaultPlan;
use galactos_core::config::EngineConfig;
use galactos_core::engine::Engine;
use galactos_core::estimator::EstimatorChoice;
use galactos_core::pipeline::{compute_distributed_supervised_observed, RetryPolicy};
use galactos_core::{GridConfig, ObsSession};
use galactos_domain::shard::write_sharded;
use galactos_ensemble::{EnsembleConfig, MockEnsemble};
use std::collections::BTreeSet;

#[test]
fn enabled_session_sees_every_layer() {
    let base = std::env::temp_dir().join(format!("galactos_obs_layers_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let obs = ObsSession::enabled();

    // Engine, tree then grid, on one periodic box.
    let cat = uniform_box(200, 14.0, 3);
    let mut config = EngineConfig::test_default(4.0, 2, 3);
    Engine::new(config.clone()).compute_observed(&cat, &obs);
    config.estimator = EstimatorChoice::Grid(GridConfig::with_mesh(16));
    Engine::new(config.clone()).compute_observed(&cat, &obs);

    // Supervised: 3 ranks over 5 shards with one transient kill in the
    // compute phase, so the retry path runs under the enabled session.
    let mut open = cat;
    open.periodic = None;
    config.estimator = EstimatorChoice::Tree;
    let shard_dir = base.join("shards");
    write_sharded(&open, 5, &shard_dir).unwrap();
    let run = compute_distributed_supervised_observed(
        shard_dir.join(MANIFEST_FILE),
        &config,
        3,
        &RetryPolicy::default(),
        FaultPlan::none().with_phase_kill(1, "compute", 1),
        &obs,
    )
    .unwrap();
    assert_eq!(run.failures.len(), 1, "the injected kill is recorded");

    // Ensemble: two checkpointed realizations.
    let runner = MockEnsemble::new(EnsembleConfig::smoke(2, 42), base.join("ensemble"));
    let status = runner.run_limited_observed(2, &obs).unwrap();
    assert_eq!(status.computed, 2);

    let names: BTreeSet<String> = obs.tracer.finished().into_iter().map(|s| s.name).collect();
    for required in ["engine", "grid", "shard_task", "retry", "realization 0"] {
        assert!(
            names.contains(required),
            "missing span {required}; have {names:?}"
        );
    }
    assert_eq!(obs.registry.counter_value("supervised.injected_faults"), 1);

    std::fs::remove_dir_all(&base).ok();
}
