//! **Figure 6** — weak scaling: fixed work per rank, growing cluster.
//!
//! The paper scales 128→8192 nodes with 225k galaxies each at constant
//! density and sees only +9% in time-to-solution. We reproduce the
//! construction exactly (density-matched boxes per Table 1's rule),
//! decompose with the real partitioner, count the real per-rank pairs
//! and halo volumes, and convert to time with the measured host
//! throughput ([`crate::costmodel`]). The model is not validated
//! against measured multi-rank times: calibrating it from spans and
//! checking it against per-rank spans is ROADMAP item 7(b).

use crate::costmodel::{calibrate_throughput, simulate_run};
use crate::datasets::node_dataset;
use crate::tables::{fmt_count, fmt_secs, print_table};
use crate::BENCH_SEED;
use galactos_core::config::EngineConfig;

pub(crate) fn run(per_rank: f64) -> Result<(), String> {
    let rank_counts = [4usize, 8, 16, 32, 64, 128];
    let rmax_frac = 0.2; // Rmax as a fraction of the smallest box

    // Calibrate throughput on the 4-rank dataset.
    let cal_cat = node_dataset(4, per_rank, BENCH_SEED);
    let rmax = rmax_frac * cal_cat.bounds.extent().x;
    let mut config = EngineConfig::paper_default(rmax);
    config.subtract_self_pairs = false;
    let cal = calibrate_throughput(&cal_cat, &config);
    println!(
        "calibration: {} pairs in {} on 1 thread -> {:.2e} pairs/s\n",
        fmt_count(cal.pairs),
        fmt_secs(cal.seconds),
        cal.pairs_per_sec
    );

    println!(
        "== weak scaling (model; {} galaxies per rank at fixed density) ==\n",
        per_rank
    );
    let mut rows = Vec::new();
    let mut base_time = None;
    let mut max_variation = 0.0f64;
    for &ranks in &rank_counts {
        let cat = node_dataset(ranks, per_rank, BENCH_SEED + ranks as u64);
        let sim = simulate_run(&cat, rmax, ranks, cal.pairs_per_sec);
        let t = sim.time_to_solution;
        let base = *base_time.get_or_insert(t);
        max_variation = max_variation.max(sim.pair_variation);
        rows.push(vec![
            format!("{ranks}"),
            format!("{}", cat.len()),
            fmt_secs(t),
            format!("{:+.1}%", 100.0 * (t / base - 1.0)),
            format!("{:.1}%", 100.0 * sim.pair_variation),
            fmt_count(sim.total_pairs),
        ]);
    }
    print_table(
        &[
            "ranks",
            "galaxies",
            "time-to-solution",
            "vs smallest",
            "pair variation",
            "total pairs",
        ],
        &rows,
    );
    println!(
        "\npaper (Fig. 6): 128->8192 nodes, time +9%; pair-count variation per rank <10% \
         (here up to {:.1}%).",
        100.0 * max_variation
    );
    println!("flat curve <=> halo work per rank is constant at fixed density (§3.2).");
    Ok(())
}
