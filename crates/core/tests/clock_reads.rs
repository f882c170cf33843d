//! The clock reads of a traced tree run, pinned exactly.
//!
//! The engine times its four stages with one tiling stage clock per
//! chunk: one read to start it, one search lap per leaf, and per
//! primary one lap before and one after each kernel flush plus one
//! after its assembly. A run whose buckets never fill flushes only the
//! residual sweep, so it reads 3 clocks per primary on top of
//! per-leaf, per-chunk and per-span constants; a stage read added to
//! the hot loop fails here.
//!
//! The read counter is process-global, so this binary holds one test.

use galactos_catalog::uniform_box;
use galactos_core::config::EngineConfig;
use galactos_core::engine::{Engine, DYNAMIC_CHUNK};
use galactos_core::{ObsSession, TraversalKind};
use galactos_kdtree::{KdTree, TreeConfig};
use galactos_math::Vec3;
use galactos_obs::clock;

#[test]
fn traced_tree_run_reads_three_clocks_per_primary() {
    let n = 2000;
    let mut cat = uniform_box(n, 12.0, 5);
    cat.periodic = None;
    let mut config = EngineConfig::test_default(3.0, 2, 3);
    // No primary has this many pairs in one bin: no bucket fills.
    config.bucket_size = n;
    let engine = Engine::new(config);
    assert_eq!(engine.traversal_kind(), TraversalKind::LeafBlocked);
    let positions: Vec<Vec3> = cat.galaxies.iter().map(|g| g.pos).collect();
    let leaves = KdTree::build(&positions, TreeConfig::default())
        .collect_leaves()
        .len() as u64;
    let chunks = leaves.div_ceil(DYNAMIC_CHUNK as u64);

    let obs = ObsSession::enabled();
    let before = clock::reads();
    let zeta = engine.compute_observed(&cat, &obs);
    let reads = clock::reads() - before;

    assert!(zeta.binned_pairs > 0);
    assert_eq!(obs.registry.counter_value("engine.chunks"), chunks);
    // Two reads each for the `engine` and `tree_build` spans; per chunk
    // two for its span and one to start its stage clock; one search
    // lap per leaf; three laps per primary.
    let spans = 4;
    let per_primary = 3 * n as u64;
    let expected = spans + 3 * chunks + leaves + per_primary;
    println!(
        "{reads} reads: {:.2} per primary, {leaves} leaves, {chunks} chunks",
        reads as f64 / n as f64
    );
    assert_eq!(reads, expected);
}
