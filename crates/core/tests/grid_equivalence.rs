//! Grid-vs-tree estimator equivalence: the FFT grid path must converge
//! to the tree answer on a fixed-ẑ periodic box as the mesh is refined.
//!
//! The documented convergence gate: the relative ζ difference against
//! the tree reference decreases monotonically across at least three
//! mesh resolutions, and the tightest mesh reaches ≤ 1e-2.
//!
//! The expensive assertions share one set of engine runs (debug-mode
//! FFTs at mesh 64 dominate this binary's runtime, so each such run
//! happens exactly once).

use galactos_catalog::{uniform_box, Catalog, Galaxy};
use galactos_core::config::EngineConfig;
use galactos_core::engine::Engine;
use galactos_core::estimator::{EstimatorChoice, EstimatorKind};
use galactos_core::{AnisotropicZeta, GridConfig, MassAssignment};
use galactos_math::Vec3;

/// Relative difference metric of the convergence gate: the largest
/// coefficient deviation over the scale of the reference.
fn rel_diff(got: &AnisotropicZeta, want: &AnisotropicZeta) -> f64 {
    got.max_difference(want) / want.max_abs().max(f64::MIN_POSITIVE)
}

/// The shared test point: a periodic uniform box, fixed-ẑ line of
/// sight, self-pair subtraction on (so the grid's correction path is
/// exercised by the gate as well).
fn test_point() -> (Catalog, EngineConfig) {
    let cat = uniform_box(1500, 20.0, 4242);
    let mut config = EngineConfig::test_default(5.0, 3, 3);
    config.subtract_self_pairs = true;
    (cat, config)
}

fn grid_engine(config: &EngineConfig, grid: GridConfig) -> Engine {
    let mut c = config.clone();
    c.estimator = EstimatorChoice::Grid(grid);
    Engine::new(c)
}

#[test]
fn grid_converges_to_tree_on_periodic_box() {
    let (cat, mut config) = test_point();
    config.estimator = EstimatorChoice::Tree;
    let tree = Engine::new(config.clone()).compute(&cat);
    assert!(tree.max_abs() > 0.0);

    // --- Convergence gate: monotone decrease, tightest <= 1e-2. ---
    let meshes = [16usize, 32, 64];
    let mut diffs = Vec::new();
    let mut finest = None;
    for &mesh in &meshes {
        let engine = grid_engine(&config, GridConfig::with_mesh(mesh));
        assert_eq!(engine.estimator_kind(), EstimatorKind::Grid);
        let grid = engine.compute(&cat);
        // Bookkeeping matches the tree's primary accounting.
        assert_eq!(grid.num_primaries, cat.len() as u64);
        assert!((grid.total_primary_weight - tree.total_primary_weight).abs() < 1e-9);
        diffs.push(rel_diff(&grid, &tree));
        finest = Some(grid);
    }
    eprintln!("grid-vs-tree rel diffs at meshes {meshes:?}: {diffs:?}");
    for w in diffs.windows(2) {
        assert!(
            w[1] < w[0],
            "convergence must be monotone across meshes: {diffs:?}"
        );
    }
    let tightest = diffs[diffs.len() - 1];
    assert!(
        tightest <= 1e-2,
        "tightest mesh missed the 1e-2 gate: {diffs:?}"
    );
    let finest = finest.unwrap();

    // --- Isotropic compression tracks the tree at the same scale. ---
    // The addition-theorem compression is estimator-agnostic.
    let tree_iso = tree.compress_isotropic();
    let grid_iso = finest.compress_isotropic();
    let iso_scale = tree_iso.max_abs().max(1.0);
    assert!(
        grid_iso.max_difference(&tree_iso) < 2e-2 * iso_scale,
        "isotropic diff {} vs scale {iso_scale}",
        grid_iso.max_difference(&tree_iso)
    );

    // --- Self-pair subtraction helps once the mesh is fine enough. ---
    // With subtraction disabled on the grid but enabled on the tree,
    // diagonal bins keep the degenerate terms; the grid's correction
    // must shrink the difference at mesh 64. (At coarser meshes the
    // *uncorrected* run can look spuriously close: same-cell pair loss
    // and the missing subtraction are both negative diagonal effects
    // and partially cancel — measured and expected.)
    let mut no_sub = config.clone();
    no_sub.subtract_self_pairs = false;
    no_sub.estimator = EstimatorChoice::Grid(GridConfig::with_mesh(64));
    let without = Engine::new(no_sub).compute(&cat);
    assert!(
        tightest < rel_diff(&without, &tree),
        "correction did not help: with {tightest} vs without {}",
        rel_diff(&without, &tree)
    );
}

#[test]
fn assignment_schemes_all_converge() {
    // NGP and CIC differ in painting bias but must both land
    // within a loose gate at a moderate mesh (32 here keeps the
    // debug-mode cost down; the 1e-2 gate at 64 is pinned above for
    // the default scheme).
    let (cat, mut config) = test_point();
    config.estimator = EstimatorChoice::Tree;
    let tree = Engine::new(config.clone()).compute(&cat);
    for assignment in MassAssignment::ALL {
        let grid = GridConfig {
            mesh: 32,
            assignment,
            ..GridConfig::default()
        };
        let got = grid_engine(&config, grid).compute(&cat);
        let d = rel_diff(&got, &tree);
        eprintln!("{assignment}: rel diff {d:.3e}");
        assert!(d <= 5e-2, "{assignment}: rel diff {d}");
    }
}

#[test]
#[should_panic(expected = "periodic")]
fn grid_requires_periodic_catalog() {
    let mut config = EngineConfig::test_default(3.0, 1, 2);
    config.estimator = EstimatorChoice::Grid(GridConfig::with_mesh(8));
    let engine = Engine::new(config);
    let open = Catalog::new(vec![
        Galaxy::unit(Vec3::new(1.0, 1.0, 1.0)),
        Galaxy::unit(Vec3::new(2.0, 1.0, 1.0)),
    ]);
    engine.compute(&open);
}

#[test]
fn subset_entry_point_stays_on_the_tree() {
    // The distributed/subset entry point is documented tree-only: it
    // must produce tree answers even on an engine configured for the
    // grid.
    let cat = uniform_box(120, 10.0, 7);
    let mut config = EngineConfig::test_default(4.0, 2, 2);
    config.estimator = EstimatorChoice::Tree;
    let tree_engine = Engine::new(config.clone());
    config.estimator = EstimatorChoice::Grid(GridConfig::with_mesh(16));
    let grid_engine = Engine::new(config);

    let want = tree_engine.compute_subset(&cat.galaxies, 40);
    let got = grid_engine.compute_subset(&cat.galaxies, 40);
    assert_eq!(got.max_difference(&want), 0.0);
    assert_eq!(got.binned_pairs, want.binned_pairs);
}
