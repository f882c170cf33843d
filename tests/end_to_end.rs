//! Workspace-level integration tests: whole-pipeline flows that span
//! mocks → catalogs → engine → distributed execution → analysis.

use galactos::catalog::shard::MANIFEST_FILE;
use galactos::core::naive::{isotropic_triplets, naive_anisotropic};
use galactos::domain::shard::write_sharded;
use galactos::mocks::cluster_process::NeymanScott;
use galactos::prelude::*;

fn clustered_catalog(seed: u64) -> Catalog {
    let mut c = NeymanScott {
        parent_density: 1.0e-3,
        mean_children: 8.0,
        sigma: 1.5,
    }
    .generate(40.0, seed);
    c.periodic = None;
    c
}

#[test]
fn mock_to_zeta_to_isotropic_consistency() {
    // Generate a clustered mock, run the anisotropic engine, compress,
    // and verify against the O(N³) Legendre triplet definition.
    let cat = clustered_catalog(3);
    let mut config = EngineConfig::test_default(10.0, 3, 4);
    config.subtract_self_pairs = true;
    let engine = Engine::new(config.clone());
    let zeta = engine.compute(&cat);
    let compressed = zeta.compress_isotropic();
    let gold = isotropic_triplets(&cat.galaxies, &config.bins, 3, None, false);
    let scale = gold.max_abs().max(1.0);
    assert!(
        compressed.max_difference(&gold) < 1e-9 * scale,
        "diff {}",
        compressed.max_difference(&gold)
    );
}

#[test]
fn io_roundtrip_preserves_zeta_exactly() {
    let cat = clustered_catalog(7);
    let path = std::env::temp_dir().join("galactos_e2e_roundtrip.gcat");
    galactos::catalog::io::write_binary(&cat, &path).unwrap();
    let back = galactos::catalog::io::read_binary(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let config = EngineConfig::test_default(8.0, 2, 3);
    let engine = Engine::new(config);
    // One thread: reduction order fixed, so lossless I/O means bitwise
    // identical results.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let a = pool.install(|| engine.compute(&cat));
    let b = pool.install(|| engine.compute(&back));
    assert_eq!(a.max_difference(&b), 0.0, "binary IO must be lossless");
}

#[test]
fn data_minus_randoms_kills_the_window_signal() {
    // On *pure random* data, the D-R field's multipoles must be
    // consistent with zero (they measure the overdensity, which is
    // zero), while the raw data multipoles are dominated by the
    // geometry/density signal.
    let survey = SurveyGeometry::full_shell(Vec3::ZERO, 10.0, 40.0);
    let data = survey.sample_randoms(1500, 1);
    let randoms = survey.sample_randoms(4500, 2);
    let mut config = EngineConfig::test_default(12.0, 2, 3);
    config.bins = RadialBins::linear(1.0, 12.0, 3);
    config.subtract_self_pairs = true;
    let engine = Engine::new(config);
    let raw = engine.compute(&data).compress_isotropic();
    let field = Catalog::data_minus_randoms(&data, &randoms);
    let dr = engine.compute(&field).compress_isotropic();
    // Compare per-primary l=0 moments: D-R must be much smaller than raw.
    let b = 1;
    let raw_l0 = (raw.get(0, b, b) / raw.total_primary_weight).abs();
    // D-R primaries include negative weights; normalize by data count.
    let dr_l0 = (dr.get(0, b, b) / data.len() as f64).abs();
    assert!(
        dr_l0 < 0.25 * raw_l0,
        "D-R did not suppress the window: raw {raw_l0}, D-R {dr_l0}"
    );
}

#[test]
fn periodic_and_open_treatments_differ_only_by_boundary_pairs() {
    let cat = uniform_box(300, 20.0, 9);
    let config = EngineConfig::test_default(5.0, 2, 2);
    let engine = Engine::new(config);
    let z_periodic = engine.compute(&cat);
    let mut open = cat.clone();
    open.periodic = None;
    let z_open = engine.compute(&open);
    // Periodic sees strictly more pairs (wrapped neighbors).
    assert!(z_periodic.binned_pairs > z_open.binned_pairs);
    // Both count the same primaries.
    assert_eq!(z_periodic.num_primaries, z_open.num_primaries);
}

#[test]
fn engine_oracle_agreement_on_mock_catalogs() {
    // The O(N³) oracle on a *generated* (not uniform-random) catalog —
    // closing the loop between the mock generators and the engine.
    let mock = NeymanScott {
        parent_density: 2e-3,
        mean_children: 5.0,
        sigma: 1.0,
    }
    .generate(12.0, 11);
    let galaxies: Vec<Galaxy> = mock.galaxies.iter().take(40).copied().collect();
    let config = EngineConfig::test_default(5.0, 3, 3);
    let engine_z = Engine::new(config.clone()).compute(&Catalog::new(galaxies.clone()));
    let oracle = naive_anisotropic(&galaxies, &config, None, true);
    let scale = oracle.max_abs().max(1.0);
    assert!(engine_z.max_difference(&oracle) < 1e-9 * scale);
}

#[test]
fn jackknife_covariance_has_positive_variances_on_signal() {
    use galactos::analysis::covariance::jackknife_from_partials;
    let cat = clustered_catalog(13);
    let config = EngineConfig::test_default(8.0, 2, 3);
    let dir = std::env::temp_dir().join(format!("galactos_e2e_jackknife_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    write_sharded(&cat, 6, &dir).unwrap();
    let run = compute_distributed_supervised(
        dir.join(MANIFEST_FILE),
        &config,
        2,
        &RetryPolicy::default(),
        FaultPlan::none(),
    )
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let cov = jackknife_from_partials(&run.shard_partials);
    // The pair-moment components must carry variance.
    let labels = galactos::analysis::vectorize::zeta_labels(&run.zeta);
    let idx = labels.iter().position(|s| s == "re[0,0,0](1,1)").unwrap();
    assert!(cov.sigmas()[idx] > 0.0);
    assert!(cov.mean[idx] > 0.0);
}

#[test]
fn isotropic_gold_standard_on_generated_mocks() {
    let mock = NeymanScott {
        parent_density: 3e-3,
        mean_children: 4.0,
        sigma: 0.8,
    }
    .generate(10.0, 17);
    let galaxies: Vec<Galaxy> = mock.galaxies.iter().take(35).copied().collect();
    let mut config = EngineConfig::test_default(4.0, 3, 3);
    config.subtract_self_pairs = true;
    let fast = Engine::new(config.clone())
        .compute(&Catalog::new(galaxies.clone()))
        .compress_isotropic();
    let gold = isotropic_triplets(&galaxies, &config.bins, 3, None, false);
    let scale = gold.max_abs().max(1.0);
    assert!(fast.max_difference(&gold) < 1e-9 * scale);
}
