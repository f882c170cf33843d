//! **§2.3** — comparison with the isotropic Legendre baseline.
//!
//! The prior state of the art (Slepian & Eisenstein 2015) ran the
//! isotropic 3PCF of 642,619 randomly distributed survey-geometry
//! points in 170 s on a 6-core i7. We run our independent
//! implementation of that isotropic algorithm and the full anisotropic
//! engine on the same scaled dataset and report the cost ratio — the
//! anisotropic measurement tracks ~(ℓmax+1)× more coefficients for a
//! similar per-pair kernel cost.

use crate::tables::{fmt_count, fmt_secs, print_table};
use crate::BENCH_SEED;
use galactos_catalog::SurveyGeometry;
use galactos_core::config::EngineConfig;
use galactos_core::engine::Engine;
use galactos_core::isotropic::isotropic_multipoles;
use galactos_math::{LineOfSight, Vec3};
use galactos_obs::clock::Epoch;

pub(crate) fn run(n: usize) -> Result<(), String> {
    // Survey-like geometry: a shell, as in the SE15 test dataset.
    let survey = SurveyGeometry::full_shell(Vec3::ZERO, 60.0, 140.0);
    let catalog = survey.sample_randoms(n, BENCH_SEED);
    let rmax = 30.0;
    let lmax = 10;
    println!(
        "dataset: {} random survey-geometry points (paper's baseline used 642,619), Rmax = {rmax}, lmax = {lmax}\n",
        catalog.len()
    );

    // Isotropic baseline (SE15 algorithm, direct-Y implementation).
    let bins = galactos_core::bins::RadialBins::linear(0.0, rmax, 10);
    let t0 = Epoch::now();
    let iso = isotropic_multipoles(&catalog.galaxies, &bins, lmax, None, true);
    let t_iso = t0.elapsed_nanos() as f64 * 1e-9;

    // Anisotropic engine with the radial line of sight (survey mode).
    let mut config = EngineConfig::paper_default(rmax);
    config.subtract_self_pairs = false;
    config.line_of_sight = LineOfSight::Radial {
        observer: Vec3::ZERO,
    };
    let engine = Engine::new(config);
    let t1 = Epoch::now();
    let zeta = engine.compute(&catalog);
    let t_aniso = t1.elapsed_nanos() as f64 * 1e-9;

    let rows = vec![
        vec![
            "isotropic (SE15 baseline)".into(),
            fmt_secs(t_iso),
            format!("{}", (lmax + 1) * bins.nbins() * bins.nbins()),
            fmt_count(iso.num_primaries),
        ],
        vec![
            "anisotropic (Galactos)".into(),
            fmt_secs(t_aniso),
            format!(
                "{}",
                zeta.layout().n_lm_combos() * bins.nbins() * bins.nbins()
            ),
            fmt_count(zeta.num_primaries),
        ],
    ];
    print_table(&["algorithm", "time", "coefficients", "primaries"], &rows);
    println!(
        "\nanisotropic/isotropic cost ratio: {:.2}x for {:.1}x more coefficients",
        t_aniso / t_iso,
        zeta.layout().n_lm_combos() as f64 / (lmax + 1) as f64
    );
    println!("\npaper context (§2.3): SE15 ran 642,619 points in 170 s on 6 cores (~30% of peak");
    println!("in the multipole kernel); Galactos processes a dataset 3 orders of magnitude");
    println!("larger on 4 orders of magnitude more cores, with strictly more information.");
    Ok(())
}
