//! Load-balance metrics: primaries and primary×secondary pair counts.
//!
//! "The overall load balance is determined by the number of pairs of
//! primary and secondary (halo) galaxies on each node" (paper §3.2).
//! The paper observed ~25% pair imbalance in weak scaling, up to 60%
//! variation in strong scaling, and 0.1%-balanced primary counts; these
//! are the statistics the scaling benchmarks reproduce.

use crate::partition::DomainPlan;
use galactos_kdtree::{KdTree, TreeConfig};
use galactos_math::Vec3;

/// Distribution summary of a per-rank quantity.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadBalance {
    pub per_rank: Vec<u64>,
    pub min: u64,
    pub max: u64,
    pub mean: f64,
}

impl LoadBalance {
    pub fn from_counts(per_rank: Vec<u64>) -> Self {
        assert!(!per_rank.is_empty());
        let min = *per_rank.iter().min().unwrap();
        let max = *per_rank.iter().max().unwrap();
        let mean = per_rank.iter().sum::<u64>() as f64 / per_rank.len() as f64;
        LoadBalance {
            per_rank,
            min,
            max,
            mean,
        }
    }

    /// Imbalance `(max − mean) / mean`: the fraction of extra time the
    /// slowest rank spends relative to the average (what determines
    /// time-to-solution in a bulk-synchronous run).
    pub fn imbalance(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            (self.max as f64 - self.mean) / self.mean
        }
    }

    /// Peak-to-peak variation `(max − min) / mean` — the "60% variation
    /// in the number of primary/secondary pairs" statistic of §5.3.
    pub fn variation(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            (self.max - self.min) as f64 / self.mean
        }
    }

    /// Parallel efficiency bound implied by the imbalance: mean / max.
    pub fn efficiency(&self) -> f64 {
        if self.max == 0 {
            1.0
        } else {
            self.mean / self.max as f64
        }
    }
}

/// Count, for every rank of `plan`, the number of (primary, secondary)
/// pairs within `rmax`: primaries are the rank's owned galaxies;
/// secondaries are owned + halo galaxies (self-pairs excluded). This is
/// the multipole kernel's work estimate: an unpadded `r ≤ rmax` count
/// ([`KdTree::count_within`]), not the pair set the engine bins.
///
/// A rank's halo holds every galaxy within `rmax` of one it owns, so one
/// tree over the whole catalog counts the same neighbors a rank's own
/// owned + halo tree would.
pub fn pair_counts(plan: &DomainPlan, positions: &[Vec3], rmax: f64) -> Vec<u64> {
    let tree = KdTree::build(positions, TreeConfig::default());
    (0..plan.num_ranks())
        .map(|r| {
            plan.owned_indices(r)
                .iter()
                // Exclude the primary itself (distance 0).
                .map(|&i| (tree.count_within(positions[i as usize], rmax) - 1) as u64)
                .sum()
        })
        .collect()
}

/// Primary-count balance of a plan (paper: balanced to 0.1%).
pub fn primary_balance(plan: &DomainPlan) -> LoadBalance {
    LoadBalance::from_counts(plan.counts_per_rank().iter().map(|&c| c as u64).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use galactos_math::Aabb;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn random_positions(n: usize, box_len: f64, seed: u64) -> Vec<Vec3> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Vec3::new(
                    rng.random_range(0.0..box_len),
                    rng.random_range(0.0..box_len),
                    rng.random_range(0.0..box_len),
                )
            })
            .collect()
    }

    #[test]
    fn load_balance_arithmetic() {
        let lb = LoadBalance::from_counts(vec![80, 100, 120]);
        assert_eq!(lb.min, 80);
        assert_eq!(lb.max, 120);
        assert!((lb.mean - 100.0).abs() < 1e-12);
        assert!((lb.imbalance() - 0.2).abs() < 1e-12);
        assert!((lb.variation() - 0.4).abs() < 1e-12);
        assert!((lb.efficiency() - 100.0 / 120.0).abs() < 1e-12);
    }

    #[test]
    fn pair_counts_match_direct_double_loop() {
        let pos = random_positions(300, 15.0, 5);
        let plan = DomainPlan::build(&pos, Aabb::cube(15.0), 4);
        let rmax = 4.0;
        let counts = pair_counts(&plan, &pos, rmax);
        // Direct O(N²): each ordered pair (i, j) with j within rmax of i
        // contributes to i's owner.
        let mut want = vec![0u64; 4];
        for i in 0..pos.len() {
            let owner = plan.owner_of(i);
            for j in 0..pos.len() {
                if i != j && pos[i].distance_sq(pos[j]) <= rmax * rmax {
                    want[owner] += 1;
                }
            }
        }
        assert_eq!(counts, want);
    }

    #[test]
    fn total_pairs_independent_of_rank_count() {
        // Halo exchange must make per-rank work sum to the global pair
        // count regardless of how space is cut.
        let pos = random_positions(400, 20.0, 9);
        let rmax = 5.0;
        let totals: Vec<u64> = [1usize, 2, 3, 5, 8]
            .iter()
            .map(|&r| {
                let plan = DomainPlan::build(&pos, Aabb::cube(20.0), r);
                pair_counts(&plan, &pos, rmax).iter().sum()
            })
            .collect();
        for w in totals.windows(2) {
            assert_eq!(w[0], w[1], "pair totals differ across partitionings");
        }
    }

    #[test]
    fn primary_balance_tight() {
        let pos = random_positions(10_000, 100.0, 13);
        let plan = DomainPlan::build(&pos, Aabb::cube(100.0), 11);
        let lb = primary_balance(&plan);
        // Paper: 0.1%; proportional splitting is near-exact.
        assert!(lb.imbalance() < 0.01, "imbalance {}", lb.imbalance());
    }

    #[test]
    fn pair_imbalance_grows_with_rank_count() {
        // Fixed dataset, more ranks → smaller boxes → larger relative
        // density fluctuations → worse pair balance (the paper's strong-
        // scaling story, §5.3).
        let pos = random_positions(3000, 30.0, 21);
        let few = LoadBalance::from_counts(pair_counts(
            &DomainPlan::build(&pos, Aabb::cube(30.0), 2),
            &pos,
            5.0,
        ));
        let many = LoadBalance::from_counts(pair_counts(
            &DomainPlan::build(&pos, Aabb::cube(30.0), 24),
            &pos,
            5.0,
        ));
        assert!(
            many.variation() > few.variation(),
            "variation should grow: {} vs {}",
            few.variation(),
            many.variation()
        );
    }
}
