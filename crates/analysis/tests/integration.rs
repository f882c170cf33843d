//! Analysis-crate integration: covariance and χ² on real engine output.

use galactos_analysis::chi2::{chi_squared, detection_snr, project_components};
use galactos_analysis::covariance::{jackknife_from_partials, sample_covariance};
use galactos_analysis::vectorize::{zeta_labels, zeta_to_vector};
use galactos_catalog::shard::MANIFEST_FILE;
use galactos_cluster::fault::FaultPlan;
use galactos_core::config::EngineConfig;
use galactos_core::engine::Engine;
use galactos_core::pipeline::{compute_distributed_supervised, RetryPolicy};
use galactos_domain::shard::write_sharded;
use galactos_mocks::cluster_process::NeymanScott;

#[test]
fn mock_ensemble_covariance_detects_clustering_signal() {
    // 12 clustered mocks -> ensemble covariance; the mean pair moment
    // must be detected at high significance against zero.
    let config = EngineConfig::test_default(6.0, 1, 2);
    let engine = Engine::new(config);
    let samples: Vec<Vec<f64>> = (0..12)
        .map(|m| {
            let mut cat = NeymanScott {
                parent_density: 1.2e-3,
                mean_children: 8.0,
                sigma: 1.2,
            }
            .generate(40.0, 100 + m);
            cat.periodic = None;
            zeta_to_vector(&engine.compute(&cat))
        })
        .collect();
    let cov = sample_covariance(&samples);
    // Project to the (0,0,0) diagonal components (2 of them).
    let labels_len = samples[0].len();
    let picked: Vec<usize> = (0..labels_len)
        .filter(|&i| i % 2 == 0) // real parts
        .take(2)
        .collect();
    let sub = project_components(&cov, &picked);
    let mean: Vec<f64> = picked.iter().map(|&i| cov.mean[i]).collect();
    let snr = detection_snr(&mean, &sub).expect("invertible");
    assert!(snr > 3.0, "clustering signal only {snr} sigma");
    // chi2 of the mean against itself is zero.
    let chi = chi_squared(&mean, &mean, &sub).unwrap();
    assert!(chi.abs() < 1e-9);
}

#[test]
fn jackknife_and_ensemble_agree_in_order_of_magnitude() {
    let config = EngineConfig::test_default(5.0, 1, 2);
    let engine = Engine::new(config.clone());
    // One catalog split into 8 regions for jackknife.
    let mut cat = NeymanScott {
        parent_density: 1.5e-3,
        mean_children: 8.0,
        sigma: 1.0,
    }
    .generate(48.0, 7);
    cat.periodic = None;
    let dir = std::env::temp_dir().join(format!(
        "galactos_analysis_jackknife_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    write_sharded(&cat, 8, &dir).unwrap();
    let run = compute_distributed_supervised(
        dir.join(MANIFEST_FILE),
        &config,
        3,
        &RetryPolicy::default(),
        FaultPlan::none(),
    )
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    // The regions together are the whole catalog, boundary-crossing
    // triangles included.
    let mut merged = run.shard_partials[0].clone();
    for p in &run.shard_partials[1..] {
        merged.merge(p);
    }
    let whole = engine.compute(&cat);
    let diff = merged.max_difference(&whole);
    assert!(diff < 1e-9 * whole.max_abs().max(1.0), "diff {diff}");
    let jk = jackknife_from_partials(&run.shard_partials);
    let labels = zeta_labels(&run.zeta);
    let idx = labels.iter().position(|s| s == "re[0,0,0](1,1)").unwrap();
    let sigma_jk = jk.sigmas()[idx];
    assert!(sigma_jk > 0.0);
    // Mean must be positive (clustered pair moment).
    assert!(jk.mean[idx] > 0.0);
    // The relative error should be "reasonable": between 0.1% and 100%.
    let rel = sigma_jk / jk.mean[idx];
    assert!(rel > 1e-3 && rel < 1.0, "relative error {rel}");
}
