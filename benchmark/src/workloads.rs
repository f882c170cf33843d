//! The five workloads: what each one feeds the engine and why.
//!
//! Sizes were chosen on a 2-core host so that one ζ computation at two
//! threads takes 2–3 s: long enough that scheduler noise is a small
//! share, short enough that three or more repetitions fit in one run.

use galactos_catalog::Catalog;
use galactos_core::{EngineConfig, EstimatorChoice, GridConfig, RadialBins};
use galactos_math::Aabb;
use galactos_mocks::scaled::{generate_scaled_catalog, MockKind, ScaledDataset, OUTER_RIM_DENSITY};

/// Seed used when none is given; `expected/*.json` is blessed for it.
pub const DEFAULT_SEED: u64 = 20170601;

/// Every workload runs at this thread count whatever the host has, so
/// that numbers from two hosts differ by the hosts and not by the pool.
pub const THREADS: usize = 2;

/// How the engine configuration departs from the paper's production
/// point (ℓmax 10, 10 linear bins, bucket 128, mixed precision).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shape {
    /// `EngineConfig::paper_default`, self-pair subtraction as given
    /// (`true` is the shipped default).
    Paper { subtract_self_pairs: bool },
    /// The paper point through the FFT grid estimator.
    Grid { mesh: usize },
    /// ℓmax 2, 5 bins, self-pairs off, computed by the supervised
    /// distributed pipeline from GCAT v2 shards on disk.
    ShardedLowL { shards: usize, ranks: usize },
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line, copied into `BENCHMARK.json`.
    pub why: &'static str,
    pub kind: MockKind,
    /// Periodic box (the grid estimator needs one) or open box.
    pub periodic: bool,
    /// Galaxies: full size, and the `--smoke` size.
    pub n: usize,
    pub smoke_n: usize,
    /// `rmax = box / rmax_div`.
    pub rmax_div: f64,
    pub shape: Shape,
}

pub const ALL: [Workload; 5] = [
    Workload {
        name: "tree_dense",
        why: "Paper regime, ~1800 secondaries per primary (every pair is binned): the a_lm kernel is the largest layer, so kernel and scheduling work shows here.",
        kind: MockKind::Poisson,
        periodic: false,
        n: 1_800,
        smoke_n: 600,
        rmax_div: 0.55,
        shape: Shape::Paper {
            subtract_self_pairs: false,
        },
    },
    Workload {
        name: "tree_sparse",
        why: "Same code, ~80 secondaries per primary: buckets never fill and per-primary a_lm assembly and zeta accumulation dominate; kernel work must not show.",
        kind: MockKind::Poisson,
        periodic: false,
        n: 3_500,
        smoke_n: 1_200,
        rmax_div: 5.3,
        shape: Shape::Paper {
            subtract_self_pairs: false,
        },
    },
    Workload {
        name: "tree_default",
        why: "EngineConfig::paper_default unmodified (self-pair subtraction on), what a README user runs: the scalar degree-20 self-pair sums dominate.",
        kind: MockKind::Poisson,
        periodic: false,
        n: 700,
        smoke_n: 600,
        rmax_div: 3.0,
        shape: Shape::Paper {
            subtract_self_pairs: true,
        },
    },
    Workload {
        name: "grid_paper",
        why: "Mesh path at the paper point: cost is set by 660 shell-kernel FFT pairs on the mesh, not by pairs or galaxies; only FFT and grid work shows.",
        kind: MockKind::Clustered,
        periodic: true,
        n: 400,
        smoke_n: 200,
        rmax_div: 4.0,
        shape: Shape::Grid { mesh: 32 },
    },
    Workload {
        name: "sharded_lowl",
        why: "Supervised distributed path at lmax 2 over 16 on-disk shards and 2 ranks: compute is cheap, so shard ingest, per-rank tree build, ghosts and the reduce show.",
        kind: MockKind::Clustered,
        periodic: false,
        n: 100_000,
        smoke_n: 20_000,
        rmax_div: 28.0,
        shape: Shape::ShardedLowL {
            shards: 16,
            ranks: 2,
        },
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn galaxies(&self, smoke: bool) -> usize {
        if smoke {
            self.smoke_n
        } else {
            self.n
        }
    }

    /// Side of the cube that holds `galaxies(smoke)` galaxies at the
    /// Outer Rim number density.
    pub fn box_len(&self, smoke: bool) -> f64 {
        (self.galaxies(smoke) as f64 / OUTER_RIM_DENSITY).cbrt()
    }

    pub fn rmax(&self, smoke: bool) -> f64 {
        self.box_len(smoke) / self.rmax_div
    }

    /// The engine configuration the workload times.
    pub fn config(&self, smoke: bool) -> EngineConfig {
        let rmax = self.rmax(smoke);
        let mut config = EngineConfig::paper_default(rmax);
        match self.shape {
            Shape::Paper {
                subtract_self_pairs,
            } => config.subtract_self_pairs = subtract_self_pairs,
            // Smoke keeps the code path on a mesh small enough that the
            // 660 FFT pairs take a fraction of a second.
            Shape::Grid { mesh } => {
                let mesh = if smoke { mesh / 2 } else { mesh };
                config.estimator = EstimatorChoice::Grid(GridConfig::with_mesh(mesh));
            }
            Shape::ShardedLowL { .. } => {
                config.lmax = 2;
                config.bins = RadialBins::linear(0.0, rmax, 5);
                config.subtract_self_pairs = false;
            }
        }
        config
    }

    /// The input for `seed`: exactly `galaxies(smoke)` galaxies in the
    /// cube `[0, box_len)³`.
    ///
    /// The mock generators draw the galaxy count itself at random (a
    /// few per cent from seed to seed, and the pair count goes as its
    /// square), which would show up as run-to-run spread of every
    /// metric. So the generator is asked for six standard deviations
    /// more than needed, in the box sized for the exact count, and the
    /// surplus is cut off: clusters come out in random spatial order,
    /// so the cut thins the box uniformly and the density is exact.
    pub fn generate(&self, seed: u64, smoke: bool) -> Catalog {
        let n = self.galaxies(smoke);
        let box_len = self.box_len(smoke);
        // A Neyman–Scott count with 15 children per cluster has
        // variance 16 n; Poisson has n.
        let surplus = 6.0 * (16.0 * n as f64).sqrt();
        let target = ScaledDataset {
            nodes: 1,
            galaxies: n as f64 + surplus,
            box_len,
        };
        let mut catalog = generate_scaled_catalog(&target, 1.0, self.kind, seed);
        assert!(
            catalog.len() >= n,
            "generator gave {} galaxies, {n} needed",
            catalog.len()
        );
        catalog.galaxies.truncate(n);
        if !self.periodic {
            catalog.periodic = None;
        }
        catalog
    }
}

/// The corner sub-cube of `catalog` that holds about `target` galaxies
/// at the catalog's own density, as an open catalog: how the ladder and
/// the checks shrink a problem without thinning it.
pub fn corner_cut(catalog: &Catalog, target: usize) -> Catalog {
    if target >= catalog.len() {
        let mut whole = catalog.clone();
        whole.periodic = None;
        return whole;
    }
    let extent = catalog.bounds.extent();
    let share = (target as f64 / catalog.len() as f64).cbrt();
    let region = Aabb::new(catalog.bounds.lo, catalog.bounds.lo + extent * share);
    catalog.extract_region(&region)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_valid_and_whys_fit_one_line() {
        for (i, w) in ALL.iter().enumerate() {
            assert!(crate::metrics::valid_name(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(ALL[..i].iter().all(|o| o.name != w.name));
            assert_eq!(by_name(w.name).unwrap().name, w.name);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn generated_catalog_has_the_exact_count_and_repeats_for_a_seed() {
        for w in &ALL {
            let mut small = *w;
            small.smoke_n = 700;
            let a = small.generate(7, true);
            let b = small.generate(7, true);
            let c = small.generate(8, true);
            assert_eq!(a.len(), 700);
            assert_eq!(a.periodic.is_some(), w.periodic);
            assert_eq!(a.galaxies, b.galaxies);
            assert_ne!(a.galaxies, c.galaxies);
            let cube = Aabb::cube(small.box_len(true));
            assert!(a.galaxies.iter().all(|g| cube.contains(g.pos)));
        }
    }

    #[test]
    fn tree_default_is_paper_default_unmodified() {
        let w = by_name("tree_default").unwrap();
        let ours = w.config(false);
        let shipped = EngineConfig::paper_default(w.rmax(false));
        assert_eq!(format!("{ours:?}"), format!("{shipped:?}"));
        assert!(ours.subtract_self_pairs);
    }

    #[test]
    fn corner_cut_keeps_density() {
        let w = by_name("tree_sparse").unwrap();
        let cat = w.generate(3, true);
        let cut = corner_cut(&cat, cat.len() / 8);
        let got = cut.len() as f64;
        let want = cat.len() as f64 / 8.0;
        assert!((got / want - 1.0).abs() < 0.2, "{got} vs {want}");
        assert!(cut.periodic.is_none());
        assert_eq!(corner_cut(&cat, cat.len() * 2).len(), cat.len());
    }
}
