//! A survey-style end-to-end pipeline, the full analysis loop the paper
//! describes in §6.1 — starting from the form in which real survey
//! catalogs actually arrive:
//!
//! sky CSV (RA/Dec/z) → fiducial cosmology → Cartesian catalog →
//! mask-driven randoms (`randfact`) → edge-corrected ζ
//! (`SurveyCompute`). The jackknife errors and the detection are of the
//! data-only ζ, from a distributed run over the data catalog alone:
//! `SurveyCompute` has no distributed form, so the edge-corrected ζ has
//! no jackknife yet.
//!
//! ```text
//! cargo run --release --example survey_pipeline
//! ```

use galactos::analysis::chi2::{detection_snr, project_components};
use galactos::catalog::shard::MANIFEST_FILE;
use galactos::domain::shard::write_sharded;
use galactos::mocks::cluster_process::NeymanScott;
use galactos::prelude::*;

fn main() {
    // --- survey geometry: a shell around the observer with a hole near
    // the "galactic plane" and a radial completeness ramp. The observer
    // sits at the ORIGIN — the frame every sky-ingested catalog uses.
    let observer = Vec3::ZERO;
    let mut survey = SurveyGeometry::full_shell(observer, 45.0, 110.0);
    survey.holes.push(Cap::new(Vec3::new(0.2, -0.3, 1.0), 0.5));
    survey.radial_completeness = vec![(45.0, 1.0), (110.0, 0.55)];

    // --- mock the *published* catalog: cluster a box centered on the
    // observer, mask it, and write it out as the sky CSV a survey would
    // release (RA/Dec in degrees, redshift under a fiducial cosmology).
    let mut clustered = NeymanScott {
        parent_density: 6e-4,
        mean_children: 10.0,
        sigma: 2.0,
    }
    .generate(240.0, 3);
    clustered.periodic = None;
    clustered.translate(Vec3::splat(-120.0));
    let mut truth = survey.apply(&clustered, 17);
    truth.recompute_bounds();
    let cosmo = FiducialCosmology::boss_fiducial();
    let csv = std::env::temp_dir().join("galactos_survey_pipeline.csv");
    write_sky_csv(&truth, &csv, &cosmo).expect("writing sky CSV");

    // --- ingest: RA/DEC/Z columns (any case/order), redshifts turned
    // into comoving h⁻¹ Mpc distances by the same fiducial cosmology.
    let data = read_sky_csv(&csv, &cosmo).expect("reading sky CSV");
    std::fs::remove_file(&csv).ok();
    // Random catalog Monte-Carlo sampling the same geometry, sized at
    // randfact = 3 × the data (survey practice: 2–3×).
    let randoms = survey.sample_randoms_for(&data, 3, 23);
    println!(
        "survey data: {} galaxies (ingested from sky CSV); randoms: {} points",
        data.len(),
        randoms.len()
    );

    // --- the edge-corrected estimator behind one entry point:
    // D−R engine run, window multipoles from the randoms alone, and
    // the per-bin-pair mixing-matrix solve (Slepian & Eisenstein
    // 1709.10150). Radial line of sight about the same observer.
    let config = SurveyConfig::survey_default(observer, 26.0, 3, 6);
    let bins = config.engine.bins.clone();
    let compute = SurveyCompute::new(config);
    let result = compute.compute(&data, &randoms);

    println!("\nedge-corrected isotropic 3PCF coefficients zeta_l(r, r):");
    println!("{:>7} {:>12} {:>12} {:>12}", "r", "l=0", "l=1", "l=2");
    for b in 0..bins.nbins() {
        println!(
            "{:>7.1} {:>12.4e} {:>12.4e} {:>12.4e}",
            bins.center(b),
            result.corrected.get(0, b, b),
            result.corrected.get(1, b, b),
            result.corrected.get(2, b, b)
        );
    }

    // --- jackknife covariance from spatial regions (paper §6.1): shard
    // the data along the domain plan and run the distributed pipeline
    // with the same engine configuration; its per-shard partials (each
    // region's galaxies as primaries, with their halo as secondaries)
    // are the jackknife samples. Jackknife the positive-weight data
    // catalog: the per-primary normalization is ill-defined for the
    // zero-weight D−R field.
    let dir = std::env::temp_dir().join("galactos_survey_pipeline_shards");
    std::fs::remove_dir_all(&dir).ok();
    write_sharded(&data, 8, &dir).expect("writing shards");
    let run = compute_distributed_supervised(
        dir.join(MANIFEST_FILE),
        compute.engine().config(),
        2,
        &RetryPolicy::default(),
        FaultPlan::none(),
    )
    .expect("distributed run");
    std::fs::remove_dir_all(&dir).ok();
    println!("\njackknife regions: {}", run.shard_partials.len());
    let cov = jackknife_from_partials(&run.shard_partials);

    // Detection significance of the pair moment in a few components.
    let full_vec = galactos::analysis::vectorize::zeta_to_vector(&run.zeta);
    // Pick the real parts of (0,0,0) over the diagonal bins.
    let labels = galactos::analysis::vectorize::zeta_labels(&run.zeta);
    let picked: Vec<usize> = labels
        .iter()
        .enumerate()
        .filter(|(_, s)| s.starts_with("re[0,0,0]") && s.ends_with("(2,2)"))
        .map(|(i, _)| i)
        .collect();
    let sub_cov = project_components(&cov, &picked);
    let sub_vec: Vec<f64> = picked.iter().map(|&i| full_vec[i]).collect();
    match detection_snr(&sub_vec, &sub_cov) {
        Some(snr) => println!("pair-moment detection significance (1 component): {snr:.1} sigma"),
        None => println!("covariance singular for the chosen component"),
    }
    println!(
        "\npipeline complete: sky CSV -> cosmology -> mask randoms -> D-R weighting -> \
         edge correction; jackknife errors of the data-only zeta."
    );
}
