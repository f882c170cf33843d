//! Determinism and numerical-stability guarantees.
//!
//! The thread-count bit-identity below also holds across hosts with
//! different vector widths: the a_ℓm kernel's SSE2 / AVX2 / AVX-512
//! compilations are one portable body with no fused multiply-add, so
//! they round identically lane for lane (`kernel/simd.rs` pins it).

use galactos::catalog::shard::MANIFEST_FILE;
use galactos::domain::shard::write_sharded;
use galactos::mocks::cluster_process::NeymanScott;
use galactos::prelude::*;

#[test]
fn repeated_runs_are_bitwise_identical() {
    let cat = uniform_box(500, 20.0, 3);
    let config = EngineConfig::test_default(6.0, 3, 3);
    let engine = Engine::new(config);
    // Single-threaded: reduction order is fixed, results bitwise equal.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let a = pool.install(|| engine.compute(&cat));
    let b = pool.install(|| engine.compute(&cat));
    assert_eq!(a.max_difference(&b), 0.0);
}

#[test]
fn thread_count_does_not_change_results_beyond_roundoff() {
    // Stronger than the name: the schedule's chunks and merge order
    // are independent of the pool width, so every ζ bit is identical
    // (README § Threading).
    let mut cat = NeymanScott {
        parent_density: 1e-3,
        mean_children: 8.0,
        sigma: 1.5,
    }
    .generate(60.0, 5);
    cat.periodic = None;
    // A chunk for every thread of the widest pool below, so each pool
    // splits the run differently.
    let positions: Vec<Vec3> = cat.galaxies.iter().map(|g| g.pos).collect();
    let leaves = galactos::core::traversal::Tree::build(&positions, TreePrecision::Double)
        .leaf_blocks()
        .len();
    assert!(
        leaves >= 4 * galactos::core::engine::DYNAMIC_CHUNK,
        "{leaves} leaves"
    );

    for config in [
        EngineConfig::test_default(8.0, 3, 3),
        EngineConfig::paper_default(4.0),
    ] {
        let engine = Engine::new(config);
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| engine.compute(&cat))
        };
        let one = run(1);
        assert!(one.binned_pairs > 0);
        for threads in [2, 4] {
            let many = run(threads);
            assert_eq!(one.binned_pairs, many.binned_pairs);
            assert_eq!(one.num_primaries, many.num_primaries);
            for (i, (a, b)) in one.to_f64_vec().iter().zip(many.to_f64_vec()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads, value {i}");
            }
        }
    }
}

#[test]
fn mock_generators_are_seed_deterministic() {
    let a = NeymanScott {
        parent_density: 1e-3,
        mean_children: 5.0,
        sigma: 1.0,
    }
    .generate(25.0, 42);
    let b = NeymanScott {
        parent_density: 1e-3,
        mean_children: 5.0,
        sigma: 1.0,
    }
    .generate(25.0, 42);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.galaxies.iter().zip(b.galaxies.iter()) {
        assert_eq!(x.pos, y.pos);
    }
}

#[test]
fn distributed_run_is_deterministic_across_invocations() {
    let mut cat = uniform_box(200, 15.0, 7);
    cat.periodic = None;
    let config = EngineConfig::test_default(5.0, 2, 2);
    let dir = std::env::temp_dir().join(format!("galactos_determinism_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    write_sharded(&cat, 4, &dir).unwrap();
    let run = || {
        compute_distributed_supervised(
            dir.join(MANIFEST_FILE),
            &config,
            4,
            &RetryPolicy::default(),
            FaultPlan::none(),
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    std::fs::remove_dir_all(&dir).ok();
    // Per-shard partials reduced in shard order: every bit repeats.
    for (i, (x, y)) in a
        .zeta
        .to_f64_vec()
        .iter()
        .zip(b.zeta.to_f64_vec())
        .enumerate()
    {
        assert_eq!(x.to_bits(), y.to_bits(), "value {i}");
    }
    assert_eq!(a.ranks.len(), b.ranks.len());
    for (ra, rb) in a.ranks.iter().zip(b.ranks.iter()) {
        assert_eq!(ra.owned, rb.owned);
        assert_eq!(ra.ghosts, rb.ghosts);
        assert_eq!(ra.binned_pairs, rb.binned_pairs);
    }
}

#[test]
fn weights_propagate_linearly_through_the_pipeline() {
    let mut cat = uniform_box(150, 12.0, 9);
    cat.periodic = None;
    let config = EngineConfig::test_default(4.0, 2, 2);
    let engine = Engine::new(config);
    let base = engine.compute(&cat);
    let mut scaled = cat.clone();
    for g in &mut scaled.galaxies {
        g.weight *= 3.0;
    }
    let tripled = engine.compute(&scaled);
    // Every ζ term carries w_i w_j w_k → factor 27.
    for (a, b) in base.data().iter().zip(tripled.data().iter()) {
        assert!(
            (*a * 27.0).dist_inf(*b) < 1e-9 * (1.0 + a.abs() * 27.0),
            "{a} vs {b}"
        );
    }
    assert!((tripled.total_primary_weight - 3.0 * base.total_primary_weight).abs() < 1e-9);
}
