//! Known-geometry validation of the end-to-end survey estimator.
//!
//! Two limits pin `SurveyCompute` down from both sides:
//!
//! * **Periodic-box limit** — the survey entry point is plumbing, not a
//!   different estimator: its D−R multipoles must match a plain engine
//!   run over the same combined catalog, and the trivial-window
//!   correction must equal the algebraic `N_ℓ/R₀` rescaling.
//! * **Holed-shell null** — on an *unclustered* sample of a cut-sky
//!   footprint the corrected connected ζ must be consistent with zero,
//!   while the geometry (window) signal that the machinery removed is
//!   of order unity in the same normalization.

use galactos_catalog::random::uniform_box;
use galactos_catalog::{Cap, Catalog, SurveyGeometry};
use galactos_core::edge::edge_corrected;
use galactos_core::result::IsotropicZeta;
use galactos_core::{Engine, EngineConfig, SurveyCompute, SurveyConfig};
use galactos_math::Vec3;
use galactos_mocks::cluster_process::NeymanScott;

#[test]
fn periodic_limit_matches_plain_estimator() {
    let box_len = 100.0;
    let ns = NeymanScott {
        parent_density: 2e-4,
        mean_children: 4.0,
        sigma: 3.0,
    };
    let data = ns.generate(box_len, 5);
    assert!(data.len() > 300, "mock too small: {}", data.len());
    let randoms = uniform_box(3 * data.len(), box_len, 17);

    let mut cfg = EngineConfig::test_default(20.0, 3, 4);
    // Degenerate j = k self-pairs are pure noise in the diagonal bins
    // and would dominate the sparse innermost bin; production survey
    // configs subtract them (cf. SurveyConfig::survey_default).
    cfg.subtract_self_pairs = true;
    let survey = SurveyCompute::new(SurveyConfig {
        engine: cfg.clone(),
        window_lmax: 0,
    });
    let result = survey.compute(&data, &randoms);

    // 1. The survey path's NNN is exactly the plain estimator over the
    //    combined data-minus-randoms catalog.
    let plain = Engine::new(cfg).compute(&Catalog::data_minus_randoms(&data, &randoms));
    let rel = result.nnn.max_difference(&plain) / plain.max_abs();
    assert!(
        rel <= 1e-9,
        "survey NNN deviates from plain estimator: rel {rel:e}"
    );

    // 2. With a trivial window (window_lmax = 0) the correction is the
    //    algebraic rescaling ζ_ℓ = [(2ℓ+1)/2 · K^N_ℓ] / [K^R_0 / 2].
    let nnn_iso = result.nnn.compress_isotropic();
    let rrr_iso = result.rrr.compress_isotropic();
    for l in 0..=3 {
        for b1 in 0..4 {
            for b2 in 0..4 {
                let r0 = 0.5 * rrr_iso.get(0, b1, b2);
                if r0.abs() < 1e-300 {
                    continue;
                }
                let want = (2 * l + 1) as f64 / 2.0 * nnn_iso.get(l, b1, b2) / r0;
                let got = result.corrected.get(l, b1, b2);
                assert!(
                    (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                    "l={l} b=({b1},{b2}): corrected {got} vs algebraic {want}"
                );
            }
        }
    }

    // 3. Uniform periodic randoms are (statistically) a full-sky
    //    window: retaining the noisy higher f_ℓ must not move the
    //    answer much relative to the trivial-window correction.
    let full_window = edge_corrected(&nnn_iso, &rrr_iso, 3);
    // The innermost radial bin holds ~100× fewer window triplets than
    // the outer ones, so its noisy f_ℓ make the comparison meaningless
    // there; compare where the window is actually measured.
    let mut drift = 0.0f64;
    let mut scale = 0.0f64;
    for l in 0..=3 {
        for b1 in 1..4 {
            for b2 in 1..4 {
                let t = result.corrected.get(l, b1, b2);
                let f = full_window.get(l, b1, b2);
                drift = drift.max((t - f).abs());
                scale = scale.max(t.abs());
            }
        }
    }
    assert!(
        drift < 0.2 * scale,
        "full-window correction drifted {drift:e} vs scale {scale:e}"
    );
}

#[test]
fn holed_shell_corrected_zeta_consistent_with_zero() {
    // A shell with a 60°-diameter polar hole and a radial completeness
    // ramp — strong geometry, no clustering.
    let mut geom = SurveyGeometry::full_shell(Vec3::ZERO, 20.0, 60.0);
    geom.holes.push(Cap::new(Vec3::Z, 0.5));
    geom.radial_completeness = vec![(20.0, 1.0), (60.0, 0.6)];
    let data = geom.sample_randoms(1200, 11);

    let survey = SurveyCompute::new(SurveyConfig::survey_default(Vec3::ZERO, 24.0, 3, 4));
    let randoms = geom.sample_randoms_for(&data, 4, 77);
    assert_eq!(randoms.len(), 4 * data.len());
    let result = survey.compute(&data, &randoms);

    // Scale reference: edge-correcting the *unsubtracted* data field
    // (rescaled to the randoms' weight — triplet sums grow cubically
    // in total weight) recovers the order-unity window signal ζ ≈ P₀
    // that the estimator exists to remove.
    let weight_ratio = result.randoms_weight / result.data_weight;
    let data_iso = survey.engine().compute(&data).compress_isotropic();
    let mut data_scaled = IsotropicZeta::zeros(data_iso.lmax(), data_iso.nbins());
    for l in 0..=data_iso.lmax() {
        for b1 in 0..data_iso.nbins() {
            for b2 in 0..data_iso.nbins() {
                data_scaled.set(l, b1, b2, data_iso.get(l, b1, b2) * weight_ratio.powi(3));
            }
        }
    }
    let rrr_iso = result.rrr.compress_isotropic();
    let geometry_signal = edge_corrected(&data_scaled, &rrr_iso, 3);
    assert!(
        geometry_signal.max_abs() > 0.5,
        "window signal unexpectedly small: {}",
        geometry_signal.max_abs()
    );

    // The corrected connected ζ of the unclustered sample must be
    // consistent with zero: far below the geometry signal it removed,
    // and small in absolute terms (bound calibrated at ~3× the
    // observed shot-noise level for these seeds and sizes).
    let corrected = result.corrected.max_abs();
    assert!(
        corrected < 0.1 * geometry_signal.max_abs(),
        "corrected ζ {corrected} not small vs geometry signal {}",
        geometry_signal.max_abs()
    );
    assert!(corrected < 0.3, "corrected ζ {corrected} above noise bound");
}
