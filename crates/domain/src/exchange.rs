//! Message-passing galaxy distribution: recursive scatter + tree-
//! following halo exchange (paper §3.2).
//!
//! The scatter walks the recursive rank/galaxy split of
//! [`crate::partition::DomainPlan`] through the same bisection step —
//! group roots compute the cut, forward the high half to the high
//! sub-group's root, and recurse on sub-communicators. The halo exchange then walks the recorded levels
//! top-down: at each level every rank sends the galaxies it holds
//! (owned *and* previously received ghosts) that lie within `rmax` of
//! the opposite half's bounding box to a peer rank on the opposite
//! sub-communicator; deeper levels redistribute them to the precise
//! destination ranks. "We avoid inter-process communication during the
//! 3PCF evaluation by exchanging all necessary neighbor galaxies
//! beforehand."
//!
//! The result on every rank is verified (in `tests/`) to be *exactly*
//! the plan's ground truth: owned galaxies from the proportional split,
//! plus every foreign galaxy within `rmax` of the rank's box.

use crate::partition::bisect;
use galactos_catalog::Catalog;
use galactos_cluster::Comm;
use galactos_math::{Aabb, Vec3};
use std::collections::HashSet;

/// A galaxy carrying its global id across rank boundaries (ids make the
/// multi-hop halo exchange idempotent under duplicate delivery).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaggedGalaxy {
    pub id: u64,
    pub pos: Vec3,
    pub weight: f64,
}

/// Everything one rank holds after distribution.
#[derive(Clone, Debug)]
pub struct RankData {
    /// World rank.
    pub rank: usize,
    /// The region this rank owns (its primaries live here).
    pub bounds: Aabb,
    /// Owned galaxies — the rank's primaries.
    pub owned: Vec<TaggedGalaxy>,
    /// Ghost galaxies within `rmax` of `bounds`, owned by other ranks.
    pub ghosts: Vec<TaggedGalaxy>,
}

/// Tag a catalog's galaxies with their index for distribution.
pub fn tagged_from_catalog(catalog: &Catalog) -> Vec<TaggedGalaxy> {
    catalog
        .galaxies
        .iter()
        .enumerate()
        .map(|(i, g)| TaggedGalaxy {
            id: i as u64,
            pos: g.pos,
            weight: g.weight,
        })
        .collect()
}

const TAG_SCATTER: u64 = 10;
const TAG_HALO: u64 = 11;

/// One recorded level of the recursive split, kept for the halo phase.
struct Level {
    comm: Comm,
    lo_size: usize,
    on_lo: bool,
    side_rank: usize,
    side_size: usize,
    opposite_size: usize,
    opposite_box: Aabb,
}

/// Distribute a catalog (held entirely by world rank 0) across all ranks
/// of `comm`, returning each rank's owned galaxies, region and fully
/// resolved ghost set.
///
/// `domain_bounds` must be identical on every rank (it is part of the
/// problem definition, like the paper's simulation box).
pub fn distribute(
    comm: Comm,
    data_at_root: Option<Vec<TaggedGalaxy>>,
    domain_bounds: Aabb,
    rmax: f64,
) -> RankData {
    let world_rank = comm.rank();
    let mut region = domain_bounds;
    let mut data: Vec<TaggedGalaxy> = if comm.rank() == 0 {
        data_at_root.expect("world rank 0 must provide the catalog")
    } else {
        Vec::new()
    };

    // ---- Phase A: recursive scatter following the partition tree ----
    let mut levels: Vec<Level> = Vec::new();
    let mut cur = comm;
    while cur.size() > 1 {
        let n = cur.size();
        // Only the group root holds galaxies at this point, so its cut
        // is the plan's; the other ranks bisect an empty set for the
        // rank split and axis and take the plane from the broadcast.
        let cut = bisect(&mut data, &region, n, |g| g.pos);
        let (lo_n, hi_n) = (cut.lo_ranks, n - cut.lo_ranks);
        let value = if cur.rank() == 0 {
            // Ship the high part to the high sub-group's root.
            let hi_part = data.split_off(cut.split_at);
            cur.send(lo_n, TAG_SCATTER, hi_part);
            cur.broadcast(0, Some(cut.value))
        } else {
            cur.broadcast::<f64>(0, None)
        };
        if cur.rank() == lo_n {
            debug_assert!(data.is_empty());
            data = cur.recv::<Vec<TaggedGalaxy>>(0, TAG_SCATTER);
        }

        let (lo_box, hi_box) = region.split(cut.axis, value);
        let on_lo = cur.rank() < lo_n;
        let (side_rank, side_size, opposite_size, opposite_box) = if on_lo {
            (cur.rank(), lo_n, hi_n, hi_box)
        } else {
            (cur.rank() - lo_n, hi_n, lo_n, lo_box)
        };
        region = if on_lo { lo_box } else { hi_box };
        let sub = cur.split(u64::from(!on_lo));
        levels.push(Level {
            comm: cur,
            lo_size: lo_n,
            on_lo,
            side_rank,
            side_size,
            opposite_size,
            opposite_box,
        });
        cur = sub;
    }

    // ---- Phase B: halo exchange, top level downward ----
    let r2 = rmax * rmax;
    let owned = data;
    let mut seen: HashSet<u64> = owned.iter().map(|g| g.id).collect();
    let mut ghosts: Vec<TaggedGalaxy> = Vec::new();
    for level in &levels {
        // Candidates: anything I hold within rmax of the opposite half.
        let candidates: Vec<TaggedGalaxy> = owned
            .iter()
            .chain(ghosts.iter())
            .filter(|g| level.opposite_box.distance_sq_to_point(g.pos) <= r2)
            .copied()
            .collect();
        let to_local = |side_is_lo: bool, side_rank: usize| -> usize {
            if side_is_lo {
                side_rank
            } else {
                level.lo_size + side_rank
            }
        };
        // One send to the peer on the opposite side.
        let dest_side_rank = level.side_rank.min(level.opposite_size - 1);
        level
            .comm
            .send(to_local(!level.on_lo, dest_side_rank), TAG_HALO, candidates);
        // Receive from every opposite rank that maps onto me.
        for j in 0..level.opposite_size {
            if j.min(level.side_size - 1) == level.side_rank {
                let src = to_local(!level.on_lo, j);
                let incoming: Vec<TaggedGalaxy> = level.comm.recv(src, TAG_HALO);
                for g in incoming {
                    if seen.insert(g.id) {
                        ghosts.push(g);
                    }
                }
            }
        }
    }

    // Trim ghosts that were only needed as intermediate hops.
    ghosts.retain(|g| region.distance_sq_to_point(g.pos) <= r2);
    ghosts.sort_by_key(|g| g.id);

    RankData {
        rank: world_rank,
        bounds: region,
        owned,
        ghosts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::DomainPlan;
    use galactos_cluster::run_cluster;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn random_tagged(n: usize, box_len: f64, seed: u64) -> Vec<TaggedGalaxy> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|i| TaggedGalaxy {
                id: i as u64,
                pos: Vec3::new(
                    rng.random_range(0.0..box_len),
                    rng.random_range(0.0..box_len),
                    rng.random_range(0.0..box_len),
                ),
                weight: 1.0,
            })
            .collect()
    }

    fn check_against_plan(num_ranks: usize, n: usize, box_len: f64, rmax: f64, seed: u64) {
        let galaxies = random_tagged(n, box_len, seed);
        let positions: Vec<Vec3> = galaxies.iter().map(|g| g.pos).collect();
        let bounds = Aabb::cube(box_len);
        let plan = DomainPlan::build(&positions, bounds, num_ranks);
        let halos = plan.halo_indices(&positions, rmax);

        let results = run_cluster(num_ranks, |comm| {
            let data = if comm.rank() == 0 {
                Some(galaxies.clone())
            } else {
                None
            };
            distribute(comm, data, bounds, rmax)
        });

        let mut total_owned = 0usize;
        for (r, rd) in results.iter().enumerate() {
            assert_eq!(rd.rank, r);
            total_owned += rd.owned.len();
            // Owned set equals the plan's assignment.
            let mut got: Vec<u64> = rd.owned.iter().map(|g| g.id).collect();
            got.sort_unstable();
            let mut want: Vec<u64> = plan.owned_indices(r).iter().map(|&i| i as u64).collect();
            want.sort_unstable();
            assert_eq!(got, want, "owned mismatch on rank {r} ({num_ranks} ranks)");
            // Ghost set equals the plan's halo ground truth.
            let got_ghosts: Vec<u64> = rd.ghosts.iter().map(|g| g.id).collect();
            let mut want_ghosts: Vec<u64> = halos[r].iter().map(|&i| i as u64).collect();
            want_ghosts.sort_unstable();
            assert_eq!(
                got_ghosts, want_ghosts,
                "ghost mismatch on rank {r} ({num_ranks} ranks)"
            );
        }
        assert_eq!(total_owned, n);
    }

    #[test]
    fn two_ranks_exact() {
        check_against_plan(2, 300, 20.0, 4.0, 1);
    }

    #[test]
    fn power_of_two_ranks_exact() {
        check_against_plan(8, 600, 30.0, 5.0, 2);
        // More ranks than galaxies, and no galaxies at all: the `k == 0`
        // and empty-set cuts of the shared bisection, on the scatter.
        check_against_plan(8, 3, 30.0, 5.0, 2);
        check_against_plan(8, 0, 30.0, 5.0, 2);
    }

    #[test]
    fn non_power_of_two_ranks_exact() {
        for ranks in [3, 5, 6, 7] {
            check_against_plan(ranks, 400, 25.0, 4.0, ranks as u64);
        }
    }

    #[test]
    fn large_halo_radius() {
        // rmax comparable to the box: almost everything is a ghost of
        // every rank — stresses deduplication.
        check_against_plan(4, 200, 10.0, 8.0, 9);
    }

    #[test]
    fn tiny_halo_radius() {
        check_against_plan(5, 500, 50.0, 0.5, 10);
    }

    #[test]
    fn single_rank_distribution() {
        let galaxies = random_tagged(50, 5.0, 3);
        let results = run_cluster(1, |comm| {
            distribute(comm, Some(galaxies.clone()), Aabb::cube(5.0), 1.0)
        });
        assert_eq!(results[0].owned.len(), 50);
        assert!(results[0].ghosts.is_empty());
    }

    #[test]
    fn thirteen_ranks_like_paper_non_pow2() {
        check_against_plan(13, 800, 40.0, 6.0, 7);
    }

    #[test]
    fn traffic_is_reported_and_scales_with_rmax() {
        let galaxies = random_tagged(200, 12.0, 13);
        // (bytes, messages) sent by all 4 ranks during the exchange.
        let traffic = |rmax: f64| {
            let per_rank = run_cluster(4, |comm| {
                let traffic = std::sync::Arc::clone(comm.traffic());
                let data = (comm.rank() == 0).then(|| galaxies.clone());
                distribute(comm, data, Aabb::cube(12.0), rmax);
                let sent = traffic.snapshot();
                (sent.bytes_sent, sent.messages_sent)
            });
            per_rank
                .iter()
                .fold((0, 0), |(b, m), &(rb, rm)| (b + rb, m + rm))
        };
        let (small_bytes, small_messages) = traffic(1.0);
        let (large_bytes, _) = traffic(5.0);
        assert!(small_bytes > 0);
        assert!(small_messages > 0);
        // A larger halo radius ships more ghost galaxies.
        assert!(large_bytes > small_bytes, "{large_bytes} vs {small_bytes}");
    }
}
