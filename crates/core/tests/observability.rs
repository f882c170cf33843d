//! Observed-run telemetry: span structure and counter determinism.
//!
//! An *enabled* session must (a) produce the documented span tree for
//! both estimators, (b) report pair-count telemetry that agrees with
//! the ζ result's own counter, (c) leave ζ bit-identical to the
//! unobserved [`Engine::compute`], and (d) — the contract that makes
//! counters diffable PR over PR — produce **bit-identical counter
//! totals on any thread pool**, because integer adds commute exactly.

use galactos_catalog::{uniform_box, Catalog};
use galactos_core::config::EngineConfig;
use galactos_core::engine::{Engine, DYNAMIC_CHUNK};
use galactos_core::estimator::EstimatorChoice;
use galactos_core::{BackendKind, GridConfig, ObsSession, TraversalKind};
use galactos_kdtree::{KdTree, TreeConfig};
use galactos_math::Vec3;
use galactos_obs::MetricValue;
use rayon::ThreadPoolBuilder;
use std::collections::BTreeSet;

fn tree_catalog(n: usize, seed: u64) -> Catalog {
    let mut c = uniform_box(n, 12.0, seed);
    c.periodic = None;
    c
}

fn with_pool<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(op)
}

/// Serial, small parallel, host default.
const POOLS: [usize; 3] = [1, 2, 0];

#[test]
fn observed_tree_run_produces_span_tree_and_counters() {
    let cat = tree_catalog(300, 3);
    let engine = Engine::new(EngineConfig::test_default(4.0, 2, 3));
    let obs = ObsSession::enabled();
    let zeta = engine.compute_observed(&cat, &obs);
    assert!(zeta.max_abs() > 0.0);
    assert_eq!(
        zeta.max_difference(&engine.compute(&cat)),
        0.0,
        "observing must not change a single bit of the result"
    );

    let paths: BTreeSet<String> = obs.tracer.finished().into_iter().map(|s| s.path).collect();
    for expected in [
        "engine",
        "engine/tree_build",
        "engine/chunk",
        "engine/chunk/search",
        "engine/chunk/bin",
        "engine/chunk/kernel",
        "engine/chunk/assembly",
    ] {
        assert!(
            paths.contains(expected),
            "missing span path {expected}; have {paths:?}"
        );
    }

    // One chunk per DYNAMIC_CHUNK leaves, the engine's tree and ours
    // being built alike from the same positions.
    assert_eq!(engine.traversal_kind(), TraversalKind::LeafBlocked);
    let positions: Vec<Vec3> = cat.galaxies.iter().map(|g| g.pos).collect();
    let leaves = KdTree::build(&positions, TreeConfig::default()).collect_leaves();
    assert_eq!(
        obs.registry.counter_value("engine.chunks"),
        leaves.len().div_ceil(DYNAMIC_CHUNK) as u64
    );
    assert!(zeta.binned_pairs > 0);
    assert_eq!(
        obs.registry.counter_value("engine.binned_pairs"),
        zeta.binned_pairs
    );
    assert!(
        obs.registry.counter_value("engine.candidate_pairs")
            >= obs.registry.counter_value("engine.binned_pairs"),
        "candidates bound binned pairs"
    );

    // The artifact says which compilation of the kernel produced it.
    let snapshot = obs.registry.snapshot();
    let vector_bits = snapshot
        .iter()
        .find(|(name, _)| name == "engine.kernel_vector_bits")
        .map(|(_, value)| value);
    match engine.backend_kind() {
        BackendKind::Simd => assert!(
            matches!(vector_bits, Some(MetricValue::Gauge(128 | 256 | 512))),
            "engine.kernel_vector_bits = {vector_bits:?}"
        ),
        BackendKind::Scalar => assert_eq!(vector_bits, None),
    }
}

#[test]
fn observed_grid_run_produces_stage_spans_and_counters() {
    let cat = uniform_box(300, 12.0, 5);
    let mut config = EngineConfig::test_default(3.0, 2, 3);
    config.estimator = EstimatorChoice::Grid(GridConfig::with_mesh(16));
    // The self-pair correction is timed on its own, not folded into the
    // contraction: a nonzero slice with it on, a zero one with it off.
    for subtract in [true, false] {
        config.subtract_self_pairs = subtract;
        let engine = Engine::new(config.clone());
        let obs = ObsSession::enabled();
        let zeta = engine.compute_observed(&cat, &obs);
        assert!(zeta.max_abs() > 0.0);
        assert_eq!(zeta.binned_pairs, 0, "the grid never enumerates pairs");
        assert_eq!(
            zeta.max_difference(&engine.compute(&cat)),
            0.0,
            "observing must not change a single bit of the result"
        );

        let spans = obs.tracer.finished();
        let slice_nanos = |path: &str| {
            spans
                .iter()
                .find(|s| s.path == path)
                .unwrap_or_else(|| panic!("missing span path {path}"))
                .duration_nanos()
        };
        assert!(slice_nanos("grid") > 0);
        for stage in ["grid/paint", "grid/fields", "grid/contract"] {
            assert!(slice_nanos(stage) > 0, "{stage} not timed");
        }
        assert_eq!(slice_nanos("grid/selfpair") > 0, subtract);
        assert_eq!(obs.registry.counter_value("grid.primaries"), 300);
    }
}

/// Counter totals must not depend on the pool the engine ran on:
/// chunking is size-based (not worker-based) and u64 adds commute.
#[test]
fn counters_are_bit_stable_across_thread_pools() {
    let cat = tree_catalog(400, 9);
    let config = EngineConfig::test_default(4.0, 2, 3);
    let keys = [
        "engine.chunks",
        "engine.binned_pairs",
        "engine.candidate_pairs",
    ];

    let reference: Vec<u64> = {
        let obs = ObsSession::enabled();
        with_pool(1, || {
            Engine::new(config.clone()).compute_observed(&cat, &obs)
        });
        keys.iter().map(|k| obs.registry.counter_value(k)).collect()
    };
    assert!(
        reference.iter().all(|&v| v > 0),
        "reference counters populated"
    );

    for threads in POOLS {
        let obs = ObsSession::enabled();
        with_pool(threads, || {
            Engine::new(config.clone()).compute_observed(&cat, &obs)
        });
        let got: Vec<u64> = keys.iter().map(|k| obs.registry.counter_value(k)).collect();
        assert_eq!(got, reference, "counter totals differ at threads={threads}");
    }
}
