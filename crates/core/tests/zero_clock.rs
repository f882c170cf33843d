//! The zero-cost observability contract, pinned at the clock level.
//!
//! Every clock read in the workspace funnels through
//! `galactos_obs::clock`, which counts real reads in a process-global
//! counter. These tests run the tree and grid estimators uninstrumented
//! — both through the plain [`Engine::compute`] entry point and through
//! [`Engine::compute_observed`] with a disabled session — inside a
//! counter snapshot window, and require **zero** reads plus
//! bit-identical ζ. The supervised distributed path joins them, with an
//! injected rank kill so its retry runs inside the window too. A future
//! "just one timestamp" on the compute path fails here, not as silent
//! overhead.
//!
//! Everything lives in one `#[test]` because the read counter is
//! process-global: a sibling test doing legitimate instrumented timing
//! on another thread would race a second snapshot window.

use galactos_catalog::shard::MANIFEST_FILE;
use galactos_catalog::uniform_box;
use galactos_cluster::fault::FaultPlan;
use galactos_core::config::EngineConfig;
use galactos_core::engine::Engine;
use galactos_core::estimator::EstimatorChoice;
use galactos_core::pipeline::{
    compute_distributed_supervised, compute_distributed_supervised_observed, RetryPolicy,
};
use galactos_core::{GridConfig, ObsSession};
use galactos_domain::shard::write_sharded;
use galactos_math::Complex64;
use galactos_obs::clock;

fn bits(data: &[Complex64]) -> Vec<(u64, u64)> {
    data.iter()
        .map(|c| (c.re.to_bits(), c.im.to_bits()))
        .collect()
}

#[test]
fn uninstrumented_tree_and_grid_compute_read_no_clock() {
    // Tree path: open box, both scheduling-visible sizes.
    let mut tree_cat = uniform_box(300, 12.0, 7);
    tree_cat.periodic = None;
    let tree_engine = Engine::new(EngineConfig::test_default(4.0, 2, 3));

    // Grid path: periodic box, pinned mesh.
    let grid_cat = uniform_box(300, 12.0, 11);
    let mut grid_config = EngineConfig::test_default(3.0, 2, 3);
    grid_config.estimator = EstimatorChoice::Grid(GridConfig::with_mesh(16));
    let grid_engine = Engine::new(grid_config);

    // Supervised path: 3 ranks over 5 shards, one transient kill of
    // rank 1 in the compute phase.
    let mut sup_cat = uniform_box(200, 14.0, 3);
    sup_cat.periodic = None;
    let sup_config = EngineConfig::test_default(4.0, 2, 3);
    let shard_dir =
        std::env::temp_dir().join(format!("galactos_zero_clock_{}", std::process::id()));
    std::fs::remove_dir_all(&shard_dir).ok();
    write_sharded(&sup_cat, 5, &shard_dir).unwrap();
    let manifest = shard_dir.join(MANIFEST_FILE);
    let policy = RetryPolicy::default();
    let plan = || FaultPlan::none().with_phase_kill(1, "compute", 1);

    let disabled = ObsSession::disabled();
    let before = clock::reads();

    let tree_plain = tree_engine.compute(&tree_cat);
    let tree_observed = tree_engine.compute_observed(&tree_cat, &disabled);
    let grid_plain = grid_engine.compute(&grid_cat);
    let grid_observed = grid_engine.compute_observed(&grid_cat, &disabled);
    let sup_plain =
        compute_distributed_supervised(&manifest, &sup_config, 3, &policy, plan()).unwrap();
    let sup_observed = compute_distributed_supervised_observed(
        &manifest,
        &sup_config,
        3,
        &policy,
        plan(),
        &disabled,
    )
    .unwrap();

    assert_eq!(
        clock::reads(),
        before,
        "uninstrumented compute must perform zero clock reads"
    );
    std::fs::remove_dir_all(&shard_dir).ok();

    // The disabled observed path is the plain path, bit for bit.
    assert_eq!(bits(tree_plain.data()), bits(tree_observed.data()));
    assert_eq!(bits(grid_plain.data()), bits(grid_observed.data()));
    assert_eq!(bits(sup_plain.zeta.data()), bits(sup_observed.zeta.data()));
    assert!(tree_plain.max_abs() > 0.0, "tree run produced signal");
    assert!(grid_plain.max_abs() > 0.0, "grid run produced signal");
    assert_eq!(sup_observed.failures.len(), 1, "the injected kill fired");
}
