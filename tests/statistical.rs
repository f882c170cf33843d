//! Statistical physics tests: seeded but randomized catalogs whose 3PCF
//! must show (or not show) signal as the underlying process dictates.

use galactos::core::paircount::landy_szalay;
use galactos::mocks::cluster_process::NeymanScott;
use galactos::mocks::lognormal;
use galactos::mocks::rsd::RsdParams;
use galactos::prelude::*;

#[test]
fn three_point_signal_detected_in_clustered_process() {
    // The Neyman–Scott process has a positive connected 3PCF at the
    // cluster scale: triplets within one cluster are overabundant.
    // Compare the self-pair-subtracted l=0 moment on the smallest
    // diagonal bin against a uniform catalog of the same size.
    let ns = NeymanScott {
        parent_density: 5e-4,
        mean_children: 12.0,
        sigma: 1.5,
    };
    let clustered = ns.generate(50.0, 3);
    let uniform = uniform_box(clustered.len(), 50.0, 99);
    let mut config = EngineConfig::test_default(6.0, 2, 3);
    config.subtract_self_pairs = true;
    let engine = Engine::new(config);
    let zc = engine.compute(&clustered).normalized();
    let zu = engine.compute(&uniform).normalized();
    let signal_c = zc.get(0, 0, 0, 0, 0).re;
    let signal_u = zu.get(0, 0, 0, 0, 0).re;
    assert!(
        signal_c > 10.0 * signal_u.max(1e-12),
        "no triplet excess: clustered {signal_c} vs uniform {signal_u}"
    );
}

#[test]
fn kaiser_rsd_enhances_quadrupole_coupling() {
    // Redshift-space distortions must light up the (2,0) multipole
    // coupling — the anisotropic signal the paper exists to measure.
    let spectrum = PowerLawSpectrum {
        amplitude: 8.0,
        index: -1.2,
    };
    let real = lognormal::generate(&spectrum, 32, 100.0, 3000, 11, None);
    let red = lognormal::generate(&spectrum, 32, 100.0, 3000, 11, Some(RsdParams::kaiser(1.2)));
    let mut config = EngineConfig::test_default(25.0, 2, 5);
    config.subtract_self_pairs = true;
    let engine = Engine::new(config);
    let z_real = engine.compute(&real.catalog).normalized();
    let z_red = engine.compute(&red.catalog).normalized();
    let coupling =
        |z: &AnisotropicZeta| -> f64 { (0..5).map(|b| z.get(2, 0, 0, b, b).re.abs()).sum() };
    let c_real = coupling(&z_real);
    let c_red = coupling(&z_red);
    assert!(
        c_red > 1.5 * c_real,
        "RSD quadrupole not enhanced: real {c_real} vs redshift {c_red}"
    );
}

#[test]
fn landy_szalay_recovers_clustering_scale() {
    // ξ(r) of the Neyman–Scott process is strongly positive below the
    // cluster scale (σ√2 pair dispersion) and near zero well above it.
    let ns = NeymanScott {
        parent_density: 8e-4,
        mean_children: 15.0,
        sigma: 1.2,
    };
    let data = ns.generate(60.0, 7);
    let randoms = uniform_box(3 * data.len(), 60.0, 8);
    let bins = RadialBins::linear(0.5, 24.5, 8);
    let xi = landy_szalay(&data, &randoms, &bins);
    assert!(xi[0] > 2.0, "small-scale ξ = {} too weak", xi[0]);
    let far = xi[7].abs();
    assert!(far < 0.5, "large-scale ξ = {far} should be ~0");
    // Monotone-ish decline: first bin dominates the last three.
    assert!(xi[0] > 4.0 * xi[5].abs().max(0.05));
}

#[test]
fn anisotropic_null_on_uniform_random_catalog() {
    // On a uniform catalog every normalized multipole beyond l=0 is
    // noise; with ~1e3 primaries the rms is far below the l=0 signal.
    let cat = uniform_box(1200, 30.0, 21);
    let mut config = EngineConfig::test_default(8.0, 3, 2);
    config.subtract_self_pairs = true;
    let engine = Engine::new(config);
    let z = engine.compute(&cat).normalized();
    let signal = z.get(0, 0, 0, 1, 1).re;
    assert!(signal > 0.0);
    for l in 1..=3usize {
        for m in 0..=l {
            let v = z.get(l, l, m, 1, 1).abs();
            assert!(v < 0.1 * signal, "l={l} m={m}: {v} not small vs {signal}");
        }
    }
}

#[test]
fn lognormal_mock_power_spectrum_matches_input() {
    // The Gaussian field driving the mocks must realize the input P(k).
    let p = PowerLawSpectrum {
        amplitude: 50.0,
        index: -1.0,
    };
    let field = galactos::mocks::lognormal::generate(&p, 32, 64.0, 1000, 5, None).field;
    let measured = field.measure_power(8);
    let mut checked = 0;
    for (k, pk, n) in measured {
        if n < 100 {
            continue;
        }
        let rel = (pk / p.power(k) - 1.0).abs();
        assert!(rel < 0.5, "k={k}: rel error {rel}");
        checked += 1;
    }
    assert!(checked >= 3);
}

#[test]
fn survey_mask_removes_the_right_galaxies() {
    let cat = uniform_box(5000, 80.0, 31);
    let mut survey = SurveyGeometry::full_shell(Vec3::splat(40.0), 10.0, 35.0);
    survey
        .holes
        .push(galactos::catalog::survey::Cap::new(Vec3::X, 0.4));
    let masked = survey.apply(&cat, 1);
    assert!(!masked.is_empty());
    for g in &masked.galaxies {
        assert!(survey.in_footprint(g.pos));
    }
    // Shell volume fraction sanity: the masked count is near the
    // geometric expectation.
    let shell_vol = 4.0 / 3.0 * std::f64::consts::PI * (35.0f64.powi(3) - 10.0f64.powi(3));
    // Portions of the shell poke out of the box; just require the count
    // to be within a factor ~2 of the naive estimate.
    let expect = 5000.0 * shell_vol / 80.0f64.powi(3);
    let got = masked.len() as f64;
    assert!(
        got > 0.3 * expect && got < 1.2 * expect,
        "masked count {got} vs naive {expect}"
    );
}
