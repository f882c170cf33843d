//! Equivalence suite: leaf-blocked traversal must bin exactly the same
//! pairs as per-primary traversal and agree on ζ to floating-point
//! reassociation (≤ 1e-9 relative), across boxes, lines of sight,
//! primary subsets, and kernel backends — and that pair count must be
//! the direct O(N²) oracle's. On a seam catalog the engine's isotropic
//! compression and the 2PCF pair counter count the same pairs as their
//! brute-force oracles. Logarithmic and offset bins are drawn cases of
//! `conformance.rs`.

use galactos_catalog::{uniform_box, Catalog, Galaxy};
use galactos_core::config::EngineConfig;
use galactos_core::engine::Engine;
use galactos_core::kernel::{BackendChoice, BackendKind};
use galactos_core::naive::{isotropic_triplets, seminaive_anisotropic};
use galactos_core::paircount::cross_pair_counts;
use galactos_core::result::AnisotropicZeta;
use galactos_core::traversal::{TraversalChoice, TraversalKind};
use galactos_math::{LineOfSight, Vec3};
use galactos_mocks::scaled::{
    generate_scaled_catalog, scaled_dataset, MockKind, OUTER_RIM_DENSITY,
};

const TOL: f64 = 1e-9;

/// Run `catalog` through both traversal modes of otherwise-identical
/// engines and assert pair-exact, reassociation-tolerant agreement.
fn assert_equivalent(mut config: EngineConfig, catalog: &Catalog, label: &str) -> AnisotropicZeta {
    config.traversal = TraversalChoice::Fixed(TraversalKind::PerPrimary);
    let reference = Engine::new(config.clone());
    assert_eq!(reference.traversal_kind(), TraversalKind::PerPrimary);
    let want = reference.compute(catalog);

    config.traversal = TraversalChoice::Fixed(TraversalKind::LeafBlocked);
    let blocked = Engine::new(config);
    assert_eq!(blocked.traversal_kind(), TraversalKind::LeafBlocked);
    let got = blocked.compute(catalog);

    assert_eq!(
        got.binned_pairs, want.binned_pairs,
        "{label}: traversals binned different pair sets"
    );
    assert_eq!(got.num_primaries, want.num_primaries, "{label}");
    assert!(
        (got.total_primary_weight - want.total_primary_weight).abs()
            <= 1e-12 * want.total_primary_weight.abs().max(1.0),
        "{label}: primary weight {} vs {}",
        got.total_primary_weight,
        want.total_primary_weight
    );
    let scale = want.max_abs().max(1.0);
    assert!(
        got.max_difference(&want) <= TOL * scale,
        "{label}: rel diff {}",
        got.max_difference(&want) / scale
    );
    want
}

/// [`assert_equivalent`], plus: the pair count is the direct O(N²)
/// oracle's.
fn assert_matches_oracle(config: EngineConfig, catalog: &Catalog, label: &str) -> AnisotropicZeta {
    let z = assert_equivalent(config.clone(), catalog, label);
    let oracle = seminaive_anisotropic(&catalog.galaxies, &config, catalog.periodic);
    assert_eq!(z.binned_pairs, oracle.binned_pairs, "{label}: oracle");
    z
}

#[test]
fn open_box_across_precisions_and_backends() {
    let mut cat = uniform_box(400, 12.0, 101);
    cat.periodic = None;
    for backend in BackendKind::ALL {
        let mut config = EngineConfig::test_default(5.0, 3, 4);
        config.kernel_backend = BackendChoice::Fixed(backend);
        // Small bucket: every backend sees full flushes and tails.
        config.bucket_size = 12;
        let z = assert_matches_oracle(config, &cat, &format!("open/{backend:?}"));
        assert!(z.binned_pairs > 0);
    }
}

#[test]
fn far_from_the_origin_precision_moves_no_pair() {
    // Past |coord| = 4096 the coordinates keep fewer fractional bits
    // and the pad that keeps the search conservative grows with them;
    // the ≈ 259 000 ordered pairs must still be exactly the oracle's.
    let mut cat = uniform_box(1200, 12.0, 131);
    cat.periodic = None;
    for g in &mut cat.galaxies {
        g.pos += Vec3::splat(4100.0);
    }
    let config = EngineConfig::test_default(5.0, 2, 4);
    let z = assert_matches_oracle(config, &cat, "translated to 4096");
    assert!(z.binned_pairs > 250_000);
}

#[test]
fn periodic_box_wraps_identically() {
    // rmax near box/2 stresses the multi-image dedup: the inflated leaf
    // reach exceeds half the box, so the same slot can be covered
    // through several images and must be materialized once; at exactly
    // box/2 the padded per-primary search reaches past it too.
    let cat = uniform_box(350, 10.0, 103);
    assert!(cat.periodic.is_some(), "uniform_box must stay periodic");
    for rmax in [2.0, 4.9, 5.0] {
        let config = EngineConfig::test_default(rmax, 3, 3);
        let z = assert_matches_oracle(config, &cat, &format!("periodic/rmax{rmax}"));
        assert!(z.binned_pairs > 0);
    }
}

#[test]
fn radial_line_of_sight_with_degenerate_primary() {
    let mut cat = uniform_box(250, 9.0, 107);
    cat.periodic = None;
    // One galaxy exactly at the observer: skipped by both traversals.
    cat.galaxies[17].pos = Vec3::ZERO;
    let mut config = EngineConfig::test_default(4.0, 2, 3);
    config.line_of_sight = LineOfSight::Radial {
        observer: Vec3::ZERO,
    };
    let z = assert_equivalent(config, &cat, "radial LOS");
    assert_eq!(z.num_primaries, 249);
}

#[test]
fn compute_subset_ghosts_never_become_primaries() {
    // The distributed pipeline's per-rank call: only the first
    // n_primaries galaxies act as primaries, the rest are halo ghosts.
    // In blocked mode leaves freely mix owned and ghost galaxies, so
    // the id-based primary cut must hold per slot, not per leaf.
    let mut cat = uniform_box(320, 11.0, 113);
    cat.periodic = None;
    let n_primaries = 140;
    let mut config = EngineConfig::test_default(4.0, 2, 3);

    config.traversal = TraversalChoice::Fixed(TraversalKind::PerPrimary);
    let want = Engine::new(config.clone()).compute_subset(&cat.galaxies, n_primaries);
    config.traversal = TraversalChoice::Fixed(TraversalKind::LeafBlocked);
    let got = Engine::new(config).compute_subset(&cat.galaxies, n_primaries);

    assert_eq!(got.num_primaries, n_primaries as u64);
    assert_eq!(got.num_primaries, want.num_primaries);
    assert_eq!(got.binned_pairs, want.binned_pairs);
    let scale = want.max_abs().max(1.0);
    assert!(
        got.max_difference(&want) <= TOL * scale,
        "rel diff {}",
        got.max_difference(&want) / scale
    );
}

#[test]
fn clustered_catalog_with_ragged_leaves() {
    // Neyman–Scott clusters give strongly non-uniform leaf occupancy:
    // dense leaves with tiny bounding boxes next to sparse ones — the
    // shape that stresses per-leaf candidate reuse and the prefilter.
    let ds = scaled_dataset(1, 2500.0, OUTER_RIM_DENSITY);
    let mut cat = generate_scaled_catalog(&ds, 1.0, MockKind::Clustered, 127);
    cat.periodic = None;
    let rmax = 0.2 * cat.bounds.extent().x.min(cat.bounds.extent().y);
    let mut config = EngineConfig::test_default(rmax, 3, 4);
    config.bucket_size = 64;
    let z = assert_matches_oracle(config, &cat, "clustered");
    assert!(z.binned_pairs > 0, "clustered catalog must produce pairs");
}

#[test]
fn degenerate_catalogs_agree() {
    // Empty, single-galaxy, and coincident-point catalogs: the blocked
    // driver iterates leaves (possibly none) and must not bin phantom
    // pairs or drop the self/coincident skip rules.
    for galaxies in [
        vec![],
        vec![Galaxy::unit(Vec3::new(1.0, 2.0, 3.0))],
        vec![Galaxy::unit(Vec3::splat(2.0)); 20], // all coincident
    ] {
        let n = galaxies.len();
        let cat = Catalog::new(galaxies);
        let config = EngineConfig::test_default(3.0, 2, 2);
        let z = assert_equivalent(config, &cat, &format!("degenerate n={n}"));
        assert_eq!(z.binned_pairs, 0);
    }
}

#[test]
fn blocked_is_the_measured_default() {
    // The shipped configuration runs the mode every BENCHMARK.json
    // tree workload measures.
    let config = EngineConfig::paper_default(10.0);
    assert_eq!(config.traversal, TraversalChoice::Auto);
    assert_eq!(
        Engine::new(config).traversal_kind(),
        TraversalKind::LeafBlocked
    );
}

#[test]
fn seam_pairs_count_once_everywhere() {
    // A centre and 400 secondaries at rmax ± 2 ulp across the periodic
    // seam of a box whose coordinates reach 8 192: the bare search's
    // shifted query rounds and loses some of them, the padded one does
    // not. Every pair loop must count exactly the pairs `bin_of` bins.
    let (rmax, box_len) = (5.0, 8192.0);
    let ulp = f64::EPSILON * 4096.0;
    let center = Vec3::new(8191.9, 4100.7, 0.2);
    let mut galaxies = vec![Galaxy::unit(center)];
    for i in 0..400 {
        let (t, p) = (0.37 * i as f64, 0.61 * i as f64);
        let dir = Vec3::new(t.sin() * p.cos(), t.sin() * p.sin(), t.cos());
        let q = center + dir * (rmax + ulp * (i % 5 - 2) as f64);
        galaxies.push(Galaxy::unit(Vec3::new(
            q.x.rem_euclid(box_len),
            q.y.rem_euclid(box_len),
            q.z.rem_euclid(box_len),
        )));
    }
    let cat = Catalog::new_periodic(galaxies, box_len);
    let config = EngineConfig::test_default(rmax, 2, 2);
    let bins = &config.bins;

    // The engine, both traversals, against the O(N²) oracle's count.
    let z = assert_matches_oracle(config.clone(), &cat, "seam");
    assert!(z.binned_pairs > 0);

    // The engine's isotropic compression against the O(N³) triplet
    // oracle (self pairs kept on both sides).
    let fast = z.compress_isotropic();
    let slow = isotropic_triplets(&cat.galaxies, bins, 2, cat.periodic, true);
    let scale = slow.max_abs().max(1.0);
    assert!(
        fast.max_difference(&slow) <= TOL * scale,
        "isotropic: rel diff {}",
        fast.max_difference(&slow) / scale
    );

    // The pair counter against a brute-force `bin_of` scan.
    let mut want = vec![0.0; bins.nbins()];
    for gi in &cat.galaxies {
        for gj in &cat.galaxies {
            let r = gj.pos.periodic_delta(gi.pos, box_len).norm();
            if let Some(bin) = bins.bin_of(r).filter(|_| r > 0.0) {
                want[bin] += gi.weight * gj.weight;
            }
        }
    }
    assert_eq!(cross_pair_counts(&cat, &cat, bins), want, "pair counter");
}
