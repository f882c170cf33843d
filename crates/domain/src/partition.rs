//! The recursive k-d partition plan.
//!
//! The paper's scheme (§3.2), generalized from [Patwary et al. 2015]:
//! at every level the current rank group of size `n` splits into halves
//! of sizes `⌊n/2⌋` and `⌈n/2⌉` ("nearly equal size, i.e., equal to
//! within a factor of 2"), and the current galaxy set splits **in
//! proportion** along the longest axis of the current region. This keeps
//! primaries per rank balanced to a fraction of a percent for any rank
//! count, including the paper's 9636.
//!
//! `bisect` is that step and the only copy of it: [`DomainPlan`]
//! applies it to galaxy indices, and the message-passing scatter of
//! [`crate::exchange::distribute`] to the galaxies a group root holds.

use galactos_math::{Aabb, Vec3};

/// Split a rank group of `n` into the paper's two nearly-equal halves.
#[inline]
fn split_ranks(n: usize) -> (usize, usize) {
    let lo = n / 2;
    (lo, n - lo)
}

/// Where one level of the recursive bisection cuts.
pub(crate) struct Bisection {
    /// Ranks below the plane; the other `n - lo_ranks` lie above it.
    pub lo_ranks: usize,
    pub axis: usize,
    pub value: f64,
    /// `items[..split_at]` go below the plane, the rest above.
    pub split_at: usize,
}

/// One level of the paper's split (§3.2): a group of `n_ranks ≥ 2`
/// ranks halves into `⌊n/2⌋` and `⌈n/2⌉`, and `items`, located by
/// `pos`, split in proportion along the longest axis of `bounds`.
/// Reorders `items` in place so that the low share comes first.
pub(crate) fn bisect<T>(
    items: &mut [T],
    bounds: &Aabb,
    n_ranks: usize,
    pos: impl Fn(&T) -> Vec3,
) -> Bisection {
    let (lo_ranks, _hi_ranks) = split_ranks(n_ranks);
    // Galaxies in proportion to sub-communicator sizes (paper §3.2).
    let k = ((items.len() as u128 * lo_ranks as u128) / n_ranks as u128) as usize;
    let axis = bounds.longest_axis();
    let value = if items.is_empty() {
        bounds.center()[axis]
    } else if k == 0 {
        bounds.lo[axis]
    } else if k >= items.len() {
        bounds.hi[axis]
    } else {
        items.select_nth_unstable_by(k, |a, b| pos(a)[axis].partial_cmp(&pos(b)[axis]).unwrap());
        pos(&items[k])[axis]
    };
    Bisection {
        lo_ranks,
        axis,
        value,
        split_at: k.min(items.len()),
    }
}

/// A node of the partition tree.
#[derive(Clone, Debug)]
enum PartitionNode {
    /// One rank owns this region.
    Leaf { rank: usize, bounds: Aabb },
    /// Internal split: `lo` and `hi` tile `bounds`.
    Split {
        bounds: Aabb,
        lo: Box<PartitionNode>,
        hi: Box<PartitionNode>,
    },
}

impl PartitionNode {
    fn bounds(&self) -> &Aabb {
        match self {
            PartitionNode::Leaf { bounds, .. } => bounds,
            PartitionNode::Split { bounds, .. } => bounds,
        }
    }
}

/// A complete domain decomposition: per-rank regions, the galaxy
/// assignment that produced them, and halo ground truth.
#[derive(Clone, Debug)]
pub struct DomainPlan {
    num_ranks: usize,
    root: PartitionNode,
    /// `boxes[r]` = region owned by rank `r`.
    boxes: Vec<Aabb>,
    /// `owners[g]` = rank owning galaxy `g` (index into the input slice).
    owners: Vec<u32>,
    /// `owned[r]` = galaxy indices assigned to rank `r`.
    owned: Vec<Vec<u32>>,
}

impl DomainPlan {
    /// Decompose `positions` (with spatial `bounds`) over `num_ranks`.
    ///
    /// The assignment partitions the galaxies exactly: every galaxy is
    /// owned by exactly one rank, and rank counts differ by at most
    /// ⌈N/n⌉-⌊N/n⌋ plus rounding at each of the ~log₂ n levels.
    pub fn build(positions: &[Vec3], bounds: Aabb, num_ranks: usize) -> Self {
        assert!(num_ranks >= 1, "need at least one rank");
        let mut indices: Vec<u32> = (0..positions.len() as u32).collect();
        let mut boxes = vec![Aabb::empty(); num_ranks];
        let mut owners = vec![u32::MAX; positions.len()];
        let mut owned = vec![Vec::new(); num_ranks];
        let root = Self::build_rec(
            positions,
            &mut indices,
            bounds,
            0,
            num_ranks,
            &mut boxes,
            &mut owners,
            &mut owned,
        );
        DomainPlan {
            num_ranks,
            root,
            boxes,
            owners,
            owned,
        }
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "the recursion threads its node's slice and the shared outputs"
    )]
    fn build_rec(
        positions: &[Vec3],
        indices: &mut [u32],
        bounds: Aabb,
        rank_lo: usize,
        rank_hi: usize,
        boxes: &mut [Aabb],
        owners: &mut [u32],
        owned: &mut [Vec<u32>],
    ) -> PartitionNode {
        let n_ranks = rank_hi - rank_lo;
        if n_ranks == 1 {
            boxes[rank_lo] = bounds;
            owned[rank_lo] = indices.to_vec();
            for &g in indices.iter() {
                owners[g as usize] = rank_lo as u32;
            }
            return PartitionNode::Leaf {
                rank: rank_lo,
                bounds,
            };
        }
        let Bisection {
            lo_ranks,
            axis,
            value,
            split_at,
        } = bisect(indices, &bounds, n_ranks, |&g| positions[g as usize]);
        let rank_mid = rank_lo + lo_ranks;
        let (lo_bounds, hi_bounds) = bounds.split(axis, value);
        let (lo_idx, hi_idx) = indices.split_at_mut(split_at);
        let lo = Self::build_rec(
            positions, lo_idx, lo_bounds, rank_lo, rank_mid, boxes, owners, owned,
        );
        let hi = Self::build_rec(
            positions, hi_idx, hi_bounds, rank_mid, rank_hi, boxes, owners, owned,
        );
        PartitionNode::Split {
            bounds,
            lo: Box::new(lo),
            hi: Box::new(hi),
        }
    }

    #[inline]
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    /// Region owned by rank `r`.
    #[inline]
    pub fn rank_box(&self, r: usize) -> &Aabb {
        &self.boxes[r]
    }

    /// Rank owning galaxy `g`.
    #[inline]
    pub fn owner_of(&self, g: usize) -> usize {
        self.owners[g] as usize
    }

    /// Galaxy indices owned by rank `r`.
    #[inline]
    pub fn owned_indices(&self, r: usize) -> &[u32] {
        &self.owned[r]
    }

    /// Number of galaxies owned per rank.
    pub fn counts_per_rank(&self) -> Vec<usize> {
        self.owned.iter().map(|v| v.len()).collect()
    }

    /// Ground-truth halo sets: for every rank, the indices of galaxies
    /// that lie within `rmax` of its box but are owned elsewhere. This
    /// is what the message-passing halo exchange must reproduce, and
    /// what the engine needs so that every primary sees all secondaries
    /// within `rmax` without communication (paper §3.2).
    pub fn halo_indices(&self, positions: &[Vec3], rmax: f64) -> Vec<Vec<u32>> {
        let mut halos: Vec<Vec<u32>> = vec![Vec::new(); self.num_ranks];
        let r2 = rmax * rmax;
        for (g, &p) in positions.iter().enumerate() {
            let owner = self.owners[g];
            Self::walk_halo(&self.root, p, r2, owner, g as u32, &mut halos);
        }
        halos
    }

    fn walk_halo(
        node: &PartitionNode,
        p: Vec3,
        r2: f64,
        owner: u32,
        g: u32,
        halos: &mut [Vec<u32>],
    ) {
        if node.bounds().distance_sq_to_point(p) > r2 {
            return;
        }
        match node {
            PartitionNode::Leaf { rank, .. } => {
                if *rank as u32 != owner {
                    halos[*rank].push(g);
                }
            }
            PartitionNode::Split { lo, hi, .. } => {
                Self::walk_halo(lo, p, r2, owner, g, halos);
                Self::walk_halo(hi, p, r2, owner, g, halos);
            }
        }
    }

    /// Depth of the partition tree.
    pub fn depth(&self) -> usize {
        fn rec(node: &PartitionNode) -> usize {
            match node {
                PartitionNode::Leaf { .. } => 1,
                PartitionNode::Split { lo, hi, .. } => 1 + rec(lo).max(rec(hi)),
            }
        }
        rec(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn split_ranks_within_factor_two() {
        for n in 2..=100 {
            let (a, b) = split_ranks(n);
            assert_eq!(a + b, n);
            assert!(a >= 1 && b >= 1);
            assert!(b <= 2 * a && a <= 2 * b, "n={n}: {a}/{b}");
        }
    }

    #[test]
    fn every_galaxy_owned_exactly_once() {
        let pos = random_positions(1000, 100.0, 1);
        for ranks in [1, 2, 3, 5, 7, 8, 13, 64] {
            let plan = DomainPlan::build(&pos, Aabb::cube(100.0), ranks);
            let counts = plan.counts_per_rank();
            assert_eq!(counts.iter().sum::<usize>(), 1000, "ranks={ranks}");
            let mut seen = vec![false; 1000];
            for r in 0..ranks {
                for &g in plan.owned_indices(r) {
                    assert!(!seen[g as usize], "galaxy {g} assigned twice");
                    seen[g as usize] = true;
                    assert_eq!(plan.owner_of(g as usize), r);
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn primary_balance_within_one() {
        // Proportional splitting keeps counts within a few galaxies of
        // N/n — the paper reports 0.1% balance.
        let pos = random_positions(10_007, 50.0, 3);
        for ranks in [3, 9, 17, 31, 100] {
            let plan = DomainPlan::build(&pos, Aabb::cube(50.0), ranks);
            let counts = plan.counts_per_rank();
            let min = *counts.iter().min().unwrap() as f64;
            let max = *counts.iter().max().unwrap() as f64;
            let mean = 10_007.0 / ranks as f64;
            assert!(
                max - min <= (plan.depth() as f64) + 1.0,
                "ranks={ranks} counts spread {min}..{max} mean {mean}"
            );
        }
    }

    #[test]
    fn non_power_of_two_matches_paper_intent() {
        // 9636-rank run at tiny scale: partition must succeed and stay
        // balanced for the paper's actual node count.
        let pos = random_positions(19_272, 30.0, 5);
        let plan = DomainPlan::build(&pos, Aabb::cube(30.0), 963);
        let counts = plan.counts_per_rank();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max - min <= plan.depth() + 1, "{min}..{max}");
    }

    #[test]
    fn boxes_tile_the_domain() {
        let pos = random_positions(500, 10.0, 7);
        let plan = DomainPlan::build(&pos, Aabb::cube(10.0), 6);
        // Volumes add to the domain volume.
        let vol: f64 = (0..6)
            .map(|r| plan.rank_box(r).extent())
            .map(|e| e.x * e.y * e.z)
            .sum();
        assert!((vol - 1000.0).abs() < 1e-9, "vol {vol}");
        // Every owned galaxy lies inside (or on the boundary of) its box.
        for r in 0..6 {
            let b = plan.rank_box(r);
            for &g in plan.owned_indices(r) {
                assert!(
                    b.distance_sq_to_point(pos[g as usize]) < 1e-18,
                    "galaxy outside box"
                );
            }
        }
    }

    #[test]
    fn halo_ground_truth_is_exact() {
        let pos = random_positions(800, 20.0, 13);
        let plan = DomainPlan::build(&pos, Aabb::cube(20.0), 5);
        let rmax = 3.0;
        let halos = plan.halo_indices(&pos, rmax);
        for (r, halo) in halos.iter().enumerate() {
            let b = plan.rank_box(r);
            let halo_set: std::collections::BTreeSet<u32> = halo.iter().copied().collect();
            for (g, &p) in pos.iter().enumerate() {
                let needed = plan.owner_of(g) != r && b.distance_sq_to_point(p) <= rmax * rmax;
                assert_eq!(
                    halo_set.contains(&(g as u32)),
                    needed,
                    "rank {r} galaxy {g}"
                );
            }
        }
    }

    #[test]
    fn halo_size_scales_with_rmax() {
        let pos = random_positions(3000, 30.0, 17);
        let plan = DomainPlan::build(&pos, Aabb::cube(30.0), 8);
        let small: usize = plan.halo_indices(&pos, 1.0).iter().map(|h| h.len()).sum();
        let large: usize = plan.halo_indices(&pos, 6.0).iter().map(|h| h.len()).sum();
        assert!(
            large > small,
            "halo must grow with rmax: {small} vs {large}"
        );
    }

    #[test]
    fn single_rank_owns_everything() {
        let pos = random_positions(100, 5.0, 19);
        let plan = DomainPlan::build(&pos, Aabb::cube(5.0), 1);
        assert_eq!(plan.counts_per_rank(), vec![100]);
        assert!(plan.halo_indices(&pos, 2.0)[0].is_empty());
        assert_eq!(plan.depth(), 1);
    }

    #[test]
    fn more_ranks_than_galaxies() {
        let pos = random_positions(3, 5.0, 23);
        let plan = DomainPlan::build(&pos, Aabb::cube(5.0), 8);
        assert_eq!(plan.counts_per_rank().iter().sum::<usize>(), 3);
    }
}
