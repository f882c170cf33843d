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
use galactos_domain::load::{pair_counts, LoadBalance};
use galactos_domain::partition::DomainPlan;
use galactos_math::Vec3;
use galactos_obs::clock::Epoch;

/// Throughput calibration result.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Calibration {
    /// Binned pairs processed per second by the full per-primary
    /// pipeline (gather + rotate + bin + kernel + assembly) on one
    /// thread.
    pub(crate) pairs_per_sec: f64,
    /// Pairs used for calibration.
    pub(crate) pairs: u64,
    /// Wall time of the calibration run.
    pub(crate) seconds: f64,
}

/// Run the engine single-threaded on `catalog` and measure pair
/// throughput.
pub(crate) fn calibrate_throughput(catalog: &Catalog, config: &EngineConfig) -> Calibration {
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
const LINK_BANDWIDTH_BYTES_PER_SEC: f64 = 8.0e9;
const MESSAGE_LATENCY_SEC: f64 = 2.0e-6;

/// Time and pair counts of one simulated bulk-synchronous run.
#[derive(Clone, Debug)]
pub(crate) struct SimulatedRun {
    /// Time-to-solution = max over ranks of simulated compute + comm.
    pub(crate) time_to_solution: f64,
    /// Total binned pairs across ranks.
    pub(crate) total_pairs: u64,
    /// Peak-to-peak pair-count variation (max−min)/mean.
    pub(crate) pair_variation: f64,
}

/// Simulate a run of `catalog` over `num_ranks` ranks at the measured
/// `throughput`, with halo-exchange communication charged per rank.
pub(crate) fn simulate_run(
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

    let time_to_solution = (0..num_ranks)
        .map(|r| {
            let compute = pairs[r] as f64 / throughput_pairs_per_sec;
            let bytes = halos[r].len() as f64 * GALAXY_WIRE_BYTES;
            // One exchange per tree level ≈ log2(ranks) messages.
            let messages = (num_ranks as f64).log2().ceil().max(1.0);
            let comm = bytes / LINK_BANDWIDTH_BYTES_PER_SEC + messages * MESSAGE_LATENCY_SEC;
            compute + comm
        })
        .fold(0.0, f64::max);
    SimulatedRun {
        time_to_solution,
        total_pairs: pairs.iter().sum(),
        pair_variation: LoadBalance::from_counts(pairs).variation(),
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
        assert!(sim.total_pairs > 0);
        // The slowest rank bounds the run: at least the mean compute time.
        assert!(sim.time_to_solution >= sim.total_pairs as f64 / 1e6 / 4.0);
        // Same catalog, more ranks → less time-to-solution (strong scaling).
        let sim8 = simulate_run(&cat, 4.0, 8, 1e6);
        assert!(sim8.time_to_solution < sim.time_to_solution);
        assert_eq!(sim8.total_pairs, sim.total_pairs);
    }
}
