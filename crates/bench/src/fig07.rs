//! **Figure 7** — strong scaling: fixed dataset, growing cluster.
//!
//! The paper strong-scales the 128-node dataset (28.8M galaxies) to
//! 8192 nodes: 64× more nodes buys 27× speedup (994s → 37s), limited by
//! pair-count imbalance that grows to ~60% as domains shrink below the
//! clustering scale. Same construction here: one clustered dataset,
//! partitions from 4 to 256 ranks, exact per-rank pair counts, measured
//! throughput.

use crate::costmodel::{calibrate_throughput, simulate_run};
use crate::datasets::node_dataset;
use crate::tables::{fmt_count, fmt_secs, print_table};
use crate::BENCH_SEED;
use galactos_core::config::EngineConfig;

pub(crate) fn run(n: f64) -> Result<(), String> {
    let cat = node_dataset(1, n, BENCH_SEED);
    let rmax = 0.15 * cat.bounds.extent().x;
    let mut config = EngineConfig::paper_default(rmax);
    config.subtract_self_pairs = false;

    // Throughput calibration on a subsample (keeps startup quick).
    let mut sub =
        galactos_catalog::random::subsample(&cat, (8_000.0 / cat.len() as f64).min(1.0), 1);
    sub.periodic = None;
    sub.recompute_bounds();
    let cal = calibrate_throughput(&sub, &config);
    println!(
        "dataset: {} galaxies, Rmax = {rmax:.1}; calibrated throughput {:.2e} pairs/s\n",
        cat.len(),
        cal.pairs_per_sec
    );

    let rank_counts = [4usize, 8, 16, 32, 64, 128, 256];
    let mut rows = Vec::new();
    let mut t_base = None;
    let mut r_base = None;
    for &ranks in &rank_counts {
        let sim = simulate_run(&cat, rmax, ranks, cal.pairs_per_sec);
        let tb = *t_base.get_or_insert(sim.time_to_solution);
        let rb = *r_base.get_or_insert(ranks);
        let speedup = tb / sim.time_to_solution;
        let ideal = ranks as f64 / rb as f64;
        rows.push(vec![
            format!("{ranks}"),
            fmt_secs(sim.time_to_solution),
            format!("{:.1}", speedup),
            format!("{:.0}", ideal),
            format!("{:.0}%", 100.0 * speedup / ideal),
            format!("{:.0}%", 100.0 * sim.pair_variation),
            fmt_count(sim.total_pairs / ranks as u64),
        ]);
    }
    print_table(
        &[
            "ranks",
            "time",
            "speedup",
            "ideal",
            "efficiency",
            "pair variation",
            "pairs/rank",
        ],
        &rows,
    );
    println!("\npaper (Fig. 7): 64x more nodes -> 27x speedup (42% efficiency at the far end),");
    println!("with up to 60% variation in per-rank pair counts on the subdivided dataset (§5.3).");
    Ok(())
}
