//! **Figure 1 (right panel)** — ζ coefficient heat map over (r₁, r₂).
//!
//! The paper's schematic shows a multipole coefficient as a function of
//! the two triangle side lengths, with BAO features visible as excess
//! (red) and deficit (blue) bands. We generate lognormal mocks with and
//! without BAO wiggles, measure ζ_ℓ(r₁, r₂), and render the
//! wiggle-minus-smooth difference as an ASCII heat map + CSV.

use crate::{write_csv, BENCH_SEED};
use galactos_analysis::report::ascii_heatmap;
use galactos_core::config::EngineConfig;
use galactos_core::engine::Engine;
use galactos_mocks::lognormal;
use galactos_mocks::pk::BaoSpectrum;

pub(crate) fn run() -> Result<(), String> {
    // Scaled acoustic scale (22 Mpc/h in a 128 box), strong wiggles so
    // one mock pair suffices for a visible pattern.
    let bao = BaoSpectrum {
        amplitude: 8.0e3,
        ns: 0.96,
        k_eq: 0.07,
        r_bao: 22.0,
        a_bao: 0.35,
        k_silk: 0.5,
    };
    let smooth = bao.no_wiggle();
    let (mesh, box_len, n_gal) = (64usize, 128.0, 8_000usize);
    let nbins = 12;
    let mut config = EngineConfig::test_default(30.0, 2, nbins);
    config.subtract_self_pairs = true;
    let engine = Engine::new(config);
    let bins = engine.config().bins.clone();

    let n_mocks = 3u64;
    let mut diff = vec![vec![0.0f64; nbins]; nbins];
    for seed in 0..n_mocks {
        let a = lognormal::generate(&bao, mesh, box_len, n_gal, BENCH_SEED + seed, None);
        let b = lognormal::generate(&smooth, mesh, box_len, n_gal, BENCH_SEED + seed, None);
        println!(
            "mock {seed}: {} (BAO) vs {} (smooth) galaxies",
            a.catalog.len(),
            b.catalog.len()
        );
        let za = engine.compute(&a.catalog).normalized().compress_isotropic();
        let zb = engine.compute(&b.catalog).normalized().compress_isotropic();
        let da = a.catalog.len() as f64 / box_len.powi(3);
        let db = b.catalog.len() as f64 / box_len.powi(3);
        for (b1, row) in diff.iter_mut().enumerate() {
            for (b2, cell) in row.iter_mut().enumerate() {
                let norm_a = bins.shell_volume(b1) * bins.shell_volume(b2) * da * da;
                let norm_b = bins.shell_volume(b1) * bins.shell_volume(b2) * db * db;
                *cell += (za.get(0, b1, b2) / norm_a - zb.get(0, b1, b2) / norm_b) / n_mocks as f64;
            }
        }
    }

    println!("\nzeta_0(r1, r2) difference, BAO minus no-BAO (acoustic scale 22 Mpc/h):");
    println!(
        "rows: r1 from {:.0} (bottom) to {:.0} (top); cols: r2\n",
        bins.center(0),
        bins.center(nbins - 1)
    );
    print!("{}", ascii_heatmap(&diff));

    // CSV for external plotting.
    let bins = &bins;
    let lines = diff.iter().enumerate().flat_map(|(b1, row)| {
        row.iter()
            .enumerate()
            .map(move |(b2, cell)| format!("{},{},{cell}", bins.center(b1), bins.center(b2)))
    });
    let path = write_csv("galactos_fig01.csv", "r1,r2,delta_zeta0", lines)?;
    println!("\nCSV written to {}", path.display());
    // The diagonal bin with the strongest excess beyond half the
    // acoustic scale.
    let peak = (0..nbins)
        .filter(|&b| bins.center(b) > 12.0)
        .max_by(|&a, &b| diff[a][a].total_cmp(&diff[b][b]));
    if let Some(b) = peak {
        println!(
            "strongest large-scale excess on the diagonal at r = {:.1} Mpc/h \
             (input acoustic scale: {:.1})",
            bins.center(b),
            bao.r_bao
        );
    }
    println!("paper Fig. 1: the analogous heat map of zeta^m_ll'(r1,r2) shows BAO bands;");
    println!("here the excess concentrates where a side length crosses the acoustic scale.");
    Ok(())
}
