//! Measured-throughput cost model for scaling simulations.
//!
//! The paper's weak/strong scaling figures span 128–9636 Cori nodes. We
//! reproduce their *shape* by combining three exactly computed or
//! measured quantities (no fudge factors):
//!
//! 1. per-rank (primary × secondary) pair counts from the real domain
//!    decomposition of the real catalog — the paper states these
//!    determine load balance (§3.2);
//! 2. the host's measured multipole-pipeline throughput (pairs/second),
//!    calibrated by running the actual engine;
//! 3. halo-exchange volume from the real partition, charged at a
//!    nominal interconnect bandwidth + per-message latency (documented
//!    constants; the compute term dominates exactly as on Cori).
//!
//! The simulated time-to-solution of a bulk-synchronous run is the
//! *maximum* over ranks of `pairs/throughput + comm`, which is how load
//! imbalance becomes the visible deviation from ideal scaling —
//! the paper's own explanation of Figure 7.

use galactos_catalog::Catalog;
use galactos_core::config::EngineConfig;
use galactos_core::engine::Engine;
use galactos_domain::load::pair_counts;
use galactos_domain::partition::DomainPlan;
use galactos_math::Vec3;
use galactos_obs::clock::Epoch;

/// Throughput calibration result.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Binned pairs processed per second by the full per-primary
    /// pipeline (gather + rotate + bin + kernel + assembly) on one
    /// thread.
    pub pairs_per_sec: f64,
    /// Pairs used for calibration.
    pub pairs: u64,
    /// Wall time of the calibration run.
    pub seconds: f64,
}

/// Run the engine single-threaded on `catalog` and measure pair
/// throughput.
pub fn calibrate_throughput(catalog: &Catalog, config: &EngineConfig) -> Calibration {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("thread pool");
    let engine = Engine::new(config.clone());
    let (pairs, seconds) = pool.install(|| {
        let t0 = Epoch::now();
        let zeta = engine.compute(catalog);
        (zeta.binned_pairs, t0.elapsed_nanos() as f64 * 1e-9)
    });
    Calibration {
        pairs_per_sec: pairs as f64 / seconds.max(1e-9),
        pairs,
        seconds,
    }
}

/// Interconnect model constants (nominal Aries-class numbers; the
/// compute term dominates by orders of magnitude, as on Cori).
pub const LINK_BANDWIDTH_BYTES_PER_SEC: f64 = 8.0e9;
pub const MESSAGE_LATENCY_SEC: f64 = 2.0e-6;

/// Per-rank and aggregate timings of one simulated bulk-synchronous run.
#[derive(Clone, Debug)]
pub struct SimulatedRun {
    pub num_ranks: usize,
    /// Simulated seconds per rank (compute + comm).
    pub rank_seconds: Vec<f64>,
    /// Time-to-solution = max over ranks.
    pub time_to_solution: f64,
    /// Mean rank time (the "ideal" balanced time).
    pub mean_rank_time: f64,
    /// Total binned pairs across ranks.
    pub total_pairs: u64,
    /// Peak-to-peak pair-count variation (max−min)/mean.
    pub pair_variation: f64,
}

/// Simulate a run of `catalog` over `num_ranks` ranks at the measured
/// `throughput`, with halo-exchange communication charged per rank.
pub fn simulate_run(
    catalog: &Catalog,
    rmax: f64,
    num_ranks: usize,
    throughput_pairs_per_sec: f64,
) -> SimulatedRun {
    let positions: Vec<Vec3> = catalog.positions();
    let plan = DomainPlan::build(&positions, catalog.bounds, num_ranks);
    let pairs = pair_counts(&plan, &positions, rmax);
    let halos = plan.halo_indices(&positions, rmax);
    const GALAXY_WIRE_BYTES: f64 = 32.0; // id + 3 coords + weight

    let rank_seconds: Vec<f64> = (0..num_ranks)
        .map(|r| {
            let compute = pairs[r] as f64 / throughput_pairs_per_sec;
            let bytes = halos[r].len() as f64 * GALAXY_WIRE_BYTES;
            // One exchange per tree level ≈ log2(ranks) messages.
            let messages = (num_ranks as f64).log2().ceil().max(1.0);
            let comm = bytes / LINK_BANDWIDTH_BYTES_PER_SEC + messages * MESSAGE_LATENCY_SEC;
            compute + comm
        })
        .collect();
    let total_pairs: u64 = pairs.iter().sum();
    let max = rank_seconds.iter().cloned().fold(0.0, f64::max);
    let mean = rank_seconds.iter().sum::<f64>() / num_ranks as f64;
    let pmin = *pairs.iter().min().unwrap_or(&0) as f64;
    let pmax = *pairs.iter().max().unwrap_or(&0) as f64;
    let pmean = total_pairs as f64 / num_ranks as f64;
    SimulatedRun {
        num_ranks,
        rank_seconds,
        time_to_solution: max,
        mean_rank_time: mean,
        total_pairs,
        pair_variation: if pmean > 0.0 {
            (pmax - pmin) / pmean
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galactos_catalog::uniform_box;

    #[test]
    fn calibration_measures_positive_throughput() {
        let mut cat = uniform_box(400, 10.0, 1);
        cat.periodic = None;
        let config = EngineConfig::test_default(4.0, 3, 3);
        let cal = calibrate_throughput(&cat, &config);
        assert!(cal.pairs > 0);
        assert!(cal.pairs_per_sec > 0.0);
    }

    #[test]
    fn simulated_run_consistency() {
        let mut cat = uniform_box(600, 15.0, 2);
        cat.periodic = None;
        let sim = simulate_run(&cat, 4.0, 4, 1e6);
        assert_eq!(sim.rank_seconds.len(), 4);
        assert!(sim.time_to_solution >= sim.mean_rank_time);
        assert!(sim.total_pairs > 0);
        // Same catalog, more ranks → less time-to-solution (strong scaling).
        let sim8 = simulate_run(&cat, 4.0, 8, 1e6);
        assert!(sim8.time_to_solution < sim.time_to_solution);
        assert_eq!(sim8.total_pairs, sim.total_pairs);
    }
}
