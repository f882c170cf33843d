//! Observed-run telemetry: span structure and counter determinism.
//!
//! An *enabled* session must (a) produce the documented span tree for
//! both estimators, (b) report pair-count telemetry that agrees with
//! the ζ result's own counter, (c) leave ζ bit-identical to the
//! unobserved [`Engine::compute`], and (d) — the contract that makes
//! counters diffable PR over PR — produce **bit-identical counter
//! totals on any thread pool**, because integer adds commute exactly.
//! The stage aggregates of the tree chunks, the grid run and the
//! supervised shard tasks sit inside their parent span and sum to no
//! more than it.

use galactos_catalog::shard::MANIFEST_FILE;
use galactos_catalog::{uniform_box, Catalog};
use galactos_cluster::fault::FaultPlan;
use galactos_core::config::EngineConfig;
use galactos_core::engine::{Engine, DYNAMIC_CHUNK};
use galactos_core::estimator::EstimatorChoice;
use galactos_core::pipeline::{compute_distributed_supervised_observed, RetryPolicy};
use galactos_core::{BackendKind, GridConfig, ObsSession, TraversalKind};
use galactos_domain::shard::write_sharded;
use galactos_kdtree::{KdTree, TreeConfig};
use galactos_math::Vec3;
use galactos_obs::{MetricValue, SpanRecord};
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

#[test]
fn grid_fft3_counter_counts_every_transform_run() {
    // ℓmax 2 and 3 bins: (3 + 2 + 1) · 3 = 18 shell fields of two
    // transforms each, plus the density's one per painting, plus the
    // self-pair correction's three (four when interlaced).
    let cat = uniform_box(300, 12.0, 5);
    let mut config = EngineConfig::test_default(3.0, 2, 3);
    for (interlace, subtract, want) in [
        (false, false, 37),
        (false, true, 40),
        (true, false, 38),
        (true, true, 42),
    ] {
        config.estimator = EstimatorChoice::Grid(GridConfig {
            interlace,
            ..GridConfig::with_mesh(16)
        });
        config.subtract_self_pairs = subtract;
        let obs = ObsSession::enabled();
        Engine::new(config.clone()).compute_observed(&cat, &obs);
        let got = obs.registry.counter_value("grid.fft3");
        assert_eq!(got, want, "interlace {interlace}, self-pairs {subtract}");
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

/// The parents named `parent` whose span holds every one of `stages`
/// as an aggregate slice on its track — each exactly once, all
/// together no longer than the span (the stage clock tiles from its
/// first read to its last, inside the span's own two reads).
fn parents_tiled_by(spans: &[SpanRecord], parent: &str, stages: &[&str]) -> usize {
    let mut tiled = 0;
    for p in spans.iter().filter(|s| s.name == parent && !s.aggregate) {
        let inside = |stage: &str| -> Vec<&SpanRecord> {
            spans
                .iter()
                .filter(|a| a.aggregate && a.track == p.track)
                .filter(|a| a.path == format!("{}/{stage}", p.path))
                .filter(|a| a.start_nanos >= p.start_nanos && a.end_nanos <= p.end_nanos)
                .collect()
        };
        let found: Vec<Vec<&SpanRecord>> = stages.iter().map(|s| inside(s)).collect();
        if found.iter().all(Vec::is_empty) {
            continue;
        }
        for (stage, hits) in stages.iter().zip(&found) {
            assert_eq!(hits.len(), 1, "{}: one {stage} aggregate", p.path);
        }
        let sum: u64 = found.iter().map(|hits| hits[0].duration_nanos()).sum();
        assert!(
            sum <= p.duration_nanos(),
            "{}: stages sum to {sum} ns, over the span's {} ns",
            p.path,
            p.duration_nanos()
        );
        tiled += 1;
    }
    tiled
}

#[test]
fn traced_stages_tile_their_parent_span_at_one_thread() {
    // Tree: every chunk carries its four stages.
    let cat = tree_catalog(300, 3);
    let engine = Engine::new(EngineConfig::test_default(4.0, 2, 3));
    let obs = ObsSession::enabled();
    with_pool(1, || engine.compute_observed(&cat, &obs));
    let spans = obs.tracer.finished();
    let chunks = obs.registry.counter_value("engine.chunks") as usize;
    let tree_stages = ["search", "bin", "kernel", "assembly"];
    assert_eq!(parents_tiled_by(&spans, "chunk", &tree_stages), chunks);

    // Grid, with and without the self-pair stage.
    let grid_cat = uniform_box(300, 12.0, 5);
    let mut config = EngineConfig::test_default(3.0, 2, 3);
    config.estimator = EstimatorChoice::Grid(GridConfig::with_mesh(16));
    for subtract in [true, false] {
        config.subtract_self_pairs = subtract;
        let obs = ObsSession::enabled();
        with_pool(1, || {
            Engine::new(config.clone()).compute_observed(&grid_cat, &obs)
        });
        let grid_stages = ["paint", "fields", "contract", "selfpair"];
        assert_eq!(
            parents_tiled_by(&obs.tracer.finished(), "grid", &grid_stages),
            1
        );
    }

    // Supervised: one rank, so one thread, over five shards.
    let dir = std::env::temp_dir().join(format!("galactos_obs_tiling_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    write_sharded(&tree_catalog(200, 7), 5, &dir).unwrap();
    let obs = ObsSession::enabled();
    let config = EngineConfig::test_default(4.0, 2, 3);
    let run = compute_distributed_supervised_observed(
        dir.join(MANIFEST_FILE),
        &config,
        1,
        &RetryPolicy::default(),
        FaultPlan::none(),
        &obs,
    )
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let spans = obs.tracer.finished();
    let shard_stages = ["ingest.halo", "ingest.own", "compute"];
    assert_eq!(parents_tiled_by(&spans, "shard_task", &shard_stages), 1);
    let own = spans
        .iter()
        .find(|s| s.path == "shard_task/ingest.own")
        .unwrap();
    assert_eq!(own.calls, 5, "one ingest.own per shard");
    assert_eq!(run.ranks.len(), 1);
}
