//! The leaf-blocked candidate path: materialize, once per primary
//! leaf, every secondary that can fall within Rmax of *some* primary
//! in that leaf, as a reusable struct-of-arrays block.
//!
//! This is the paper's §3.2 node-to-node traversal turned into data
//! layout: instead of one root descent and one id list per primary,
//! the pruned walk ([`KdTree::for_each_within_of_aabb`]) appends whole
//! contiguous slot ranges within reach of the leaf's bounding box
//! inflated by Rmax, and [`CandidateBlock::fill`] streams those ranges
//! once — prefiltering each candidate against
//! `r² ≤ (Rmax + leaf_radius)²` from the leaf center — into contiguous
//! x/y/z/weight arrays. The engine's split loop then runs a tight
//! distance²→cut→sqrt→rotate→bin pass over the SoA per primary, with
//! no per-pair `galaxies[j]` gather and no tree descent at all.
//!
//! Nothing here decides which pairs count: the walk and the prefilter
//! are padded by [`KdTree::pad`] so the block is a superset of every
//! leaf member's `r < Rmax` secondaries, and the one cut of the split
//! loop only spares square roots for pairs
//! [`RadialBins::bin_of`](crate::bins::RadialBins::bin_of) would reject
//! anyway (see the [module docs](super)).

use super::LeafInfo;
use galactos_catalog::Galaxy;
use galactos_kdtree::KdTree;
use galactos_math::Vec3;
use galactos_simd::{F64x8, F64_LANES};

/// Reusable SoA buffer of candidate secondaries for one primary leaf.
///
/// Owned by [`ComputeScratch`](crate::scratch::ComputeScratch); cleared
/// and refilled per leaf, so its capacity warms up to the steady-state
/// candidate count and stays allocated across leaves.
#[derive(Default)]
pub struct CandidateBlock {
    /// Original galaxy index of each candidate.
    pub(crate) ids: Vec<u32>,
    /// Candidate positions (original `f64` catalog coordinates — the
    /// binning arithmetic is identical to per-primary traversal).
    pub(crate) x: Vec<f64>,
    pub(crate) y: Vec<f64>,
    pub(crate) z: Vec<f64>,
    /// Candidate weights.
    pub(crate) w: Vec<f64>,
    /// Range scratch reused across fills.
    ranges: Vec<(u32, u32)>,
    /// Per-primary selection staging filled by
    /// [`CandidateBlock::select_pairs`]: the binning delta, separation,
    /// and weight of every candidate that passed the distance²
    /// prefilter, in candidate order.
    pub(crate) sel_dx: Vec<f64>,
    pub(crate) sel_dy: Vec<f64>,
    pub(crate) sel_dz: Vec<f64>,
    pub(crate) sel_r: Vec<f64>,
    /// Reciprocal separations `1/r`, filled lane-wise after compaction
    /// (`F64x8::recip` divides per lane, so each entry is bit-identical
    /// to the scalar `1.0 / r` the per-primary path computes).
    pub(crate) sel_inv_r: Vec<f64>,
    pub(crate) sel_w: Vec<f64>,
}

impl CandidateBlock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of candidates currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Candidate galaxy ids (parallel to the coordinate arrays).
    #[inline]
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    pub(crate) fn clear(&mut self) {
        self.ids.clear();
        self.x.clear();
        self.y.clear();
        self.z.clear();
        self.w.clear();
    }

    /// Gather the candidate set of `leaf` from `tree`: every galaxy
    /// within `rmax` of any point of the leaf's bounding box (honoring
    /// minimum-image wrapping when `periodic`), prefiltered per
    /// candidate against `(rmax + leaf_radius)²` from the leaf center,
    /// both padded by [`KdTree::pad`]. Returns the number of candidates
    /// materialized.
    ///
    /// Periodic walks can cover a slot through more than one box image
    /// (the inflated reach may exceed half the box); ranges are sorted
    /// and coalesced first so every slot is materialized exactly once.
    pub fn fill(
        &mut self,
        tree: &KdTree,
        leaf: &LeafInfo,
        rmax: f64,
        periodic: Option<f64>,
        galaxies: &[Galaxy],
    ) -> usize {
        self.clear();

        // 1. Node-to-node walk: contiguous slot ranges within reach.
        let mut ranges = std::mem::take(&mut self.ranges);
        ranges.clear();
        tree.for_each_within_of_aabb(leaf.lo, leaf.hi, rmax, periodic, &mut |s, e| {
            ranges.push((s, e))
        });
        if periodic.is_some() {
            // Images may emit overlapping ranges; coalesce in place.
            ranges.sort_unstable();
            let mut out = 0;
            for i in 0..ranges.len() {
                let (s, e) = ranges[i];
                if out > 0 && s <= ranges[out - 1].1 {
                    ranges[out - 1].1 = ranges[out - 1].1.max(e);
                } else {
                    ranges[out] = (s, e);
                    out += 1;
                }
            }
            ranges.truncate(out);
        }

        // 2. Prefilter sphere: any galaxy within rmax of a primary in
        // the leaf is within rmax + leaf_radius of the leaf center, up
        // to the rounding `KdTree::pad` bounds. Over-inclusion is only a
        // perf cost — `bin_of` decides membership.
        let center = leaf.center();
        let pr = rmax + leaf.radius() + tree.pad(rmax, periodic);
        let pr2 = pr * pr;

        // 3. Stream the deduped ranges into the SoA, prefiltering.
        for &(s, e) in &ranges {
            for slot in s..e {
                let id = tree.id_at(slot);
                let g = &galaxies[id as usize];
                let d = match periodic {
                    Some(l) => g.pos.periodic_delta(center, l),
                    None => g.pos - center,
                };
                if d.norm_sq() <= pr2 {
                    self.ids.push(id);
                    self.x.push(g.pos.x);
                    self.y.push(g.pos.y);
                    self.z.push(g.pos.z);
                    self.w.push(g.weight);
                }
            }
        }
        self.ranges = ranges;
        self.ids.len()
    }

    /// Phase A of the blocked split loop, vectorized over the SoA in
    /// [`F64_LANES`]-wide chunks: compute each candidate's minimum-image
    /// binning delta and distance², drop the lanes whose distance² says
    /// `bin_of` will reject them as beyond Rmax, and compact the rest —
    /// delta, separation `r = √r²`, weight — into the `sel_*` staging
    /// arrays in candidate order. The engine then runs the scalar
    /// bin→bucket→kernel tail over the survivors only.
    ///
    /// Every lane replicates the scalar arithmetic exactly (same
    /// operations, same association, `sqrt` is correctly rounded), so
    /// all staged floats are bit-identical to the per-candidate scalar
    /// loop of per-primary traversal.
    pub(crate) fn select_pairs(
        &mut self,
        center: Vec3,
        skip_id: u32,
        periodic: Option<f64>,
        rmax: f64,
    ) -> usize {
        self.sel_dx.clear();
        self.sel_dy.clear();
        self.sel_dz.clear();
        self.sel_r.clear();
        self.sel_w.clear();

        let n = self.ids.len();
        // A sqrt-saving prefilter, not a membership test: `bin_of`
        // keeps `fl(√r²) < rmax`, and r² above this has
        // √r² > rmax·(1 + ε), which no rounding brings back under rmax.
        let r2_cut = F64x8::splat(rmax * rmax * (1.0 + 4.0 * f64::EPSILON));

        // The primary's own slot (ids are unique per block, so at most
        // one): found once here so the compaction loop below never
        // touches `ids` — it just clears that lane from the keep mask.
        let skip_pos = self.ids.iter().position(|&id| id == skip_id);

        let mut start = 0;
        while start < n {
            let lanes = (n - start).min(F64_LANES);
            let mut dx = [0.0f64; F64_LANES];
            let mut dy = [0.0f64; F64_LANES];
            let mut dz = [0.0f64; F64_LANES];
            match periodic {
                None => {
                    for i in 0..lanes {
                        let c = start + i;
                        dx[i] = self.x[c] - center.x;
                        dy[i] = self.y[c] - center.y;
                        dz[i] = self.z[c] - center.z;
                    }
                }
                Some(l) => {
                    for i in 0..lanes {
                        let c = start + i;
                        let p = Vec3::new(self.x[c], self.y[c], self.z[c]);
                        let d = p.periodic_delta(center, l);
                        (dx[i], dy[i], dz[i]) = (d.x, d.y, d.z);
                    }
                }
            }
            // Distance² lanes: (dx·dx + dy·dy) + dz·dz, the same
            // association as `Vec3::norm_sq`.
            let vx = F64x8::from_array(dx);
            let vy = F64x8::from_array(dy);
            let vz = F64x8::from_array(dz);
            let r2 = vx * vx + vy * vy + vz * vz;

            let mut keep = r2.le_mask(r2_cut);
            if lanes < F64_LANES {
                keep &= (1u8 << lanes) - 1; // tail: zero lanes never pass
            }
            if let Some(p) = skip_pos {
                if (start..start + lanes).contains(&p) {
                    keep &= !(1u8 << (p - start)); // never pair with self
                }
            }

            // Compact survivors; sqrt only for them (`f64::sqrt` is
            // correctly rounded, so per-survivor scalar sqrt and a
            // full-width vector sqrt produce identical bits — skipping
            // rejected lanes is free).
            let r2a = r2.to_array();
            for i in 0..lanes {
                if keep & (1 << i) != 0 {
                    self.sel_dx.push(dx[i]);
                    self.sel_dy.push(dy[i]);
                    self.sel_dz.push(dz[i]);
                    self.sel_r.push(r2a[i].sqrt());
                    self.sel_w.push(self.w[start + i]);
                }
            }
            start += lanes;
        }

        // Batch the unit-vector reciprocals over the survivor list so
        // the scalar binning tail never stalls on a divide: `recip`
        // divides per lane (IEEE correctly rounded), so every entry is
        // the exact bits of the scalar `1.0 / r`. Coincident pairs
        // (r = 0) produce `inf` here and are dropped by the tail's
        // existing `r == 0` check before the value is ever read.
        let kept = self.sel_r.len();
        self.sel_inv_r.clear();
        self.sel_inv_r.resize(kept, 0.0);
        let mut i = 0;
        while i + F64_LANES <= kept {
            F64x8::from_slice(&self.sel_r[i..])
                .recip()
                .write_to(&mut self.sel_inv_r[i..]);
            i += F64_LANES;
        }
        for j in i..kept {
            self.sel_inv_r[j] = 1.0 / self.sel_r[j];
        }
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galactos_catalog::uniform_box;
    use galactos_kdtree::TreeConfig;

    fn fill_for_leaf(n: usize, seed: u64) -> (Vec<Galaxy>, KdTree, Vec<LeafInfo>, CandidateBlock) {
        let cat = uniform_box(n, 10.0, seed);
        let positions: Vec<Vec3> = cat.galaxies.iter().map(|g| g.pos).collect();
        let tree = KdTree::build(&positions, TreeConfig::default());
        let leaves = tree.collect_leaves();
        (cat.galaxies, tree, leaves, CandidateBlock::new())
    }

    /// The block must contain, for every primary in the leaf, every
    /// galaxy a brute-force `f64` scan puts within `rmax` of it.
    #[test]
    fn block_covers_per_primary_gather_for_every_leaf_member() {
        for periodic in [None, Some(10.0)] {
            let rmax = 3.0;
            let (galaxies, tree, leaves, mut block) = fill_for_leaf(300, 42);
            for leaf in &leaves {
                block.fill(&tree, leaf, rmax, periodic, &galaxies);
                let have: std::collections::BTreeSet<u32> = block.ids().iter().copied().collect();
                assert_eq!(
                    have.len(),
                    block.len(),
                    "block must not contain duplicate candidates"
                );
                for slot in leaf.start..leaf.end {
                    let i = tree.id_at(slot) as usize;
                    for (j, g) in galaxies.iter().enumerate() {
                        let delta = match periodic {
                            Some(l) => g.pos.periodic_delta(galaxies[i].pos, l),
                            None => g.pos - galaxies[i].pos,
                        };
                        assert!(
                            delta.norm() > rmax || have.contains(&(j as u32)),
                            "candidate {j} of primary {i} missing from its leaf block \
                             (periodic={periodic:?})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prefilter_prunes_far_candidates() {
        // With a small rmax, the block for one leaf must not contain
        // the whole catalog (the prefilter sphere has volume far below
        // the box).
        let (galaxies, tree, leaves, mut block) = fill_for_leaf(2000, 11);
        let n = block.fill(&tree, &leaves[0], 1.0, None, &galaxies);
        assert!(n > 0);
        assert!(
            n < galaxies.len() / 2,
            "prefilter kept {n} of {} candidates",
            galaxies.len()
        );
        // Everything kept is inside the documented prefilter sphere.
        let leaf = &leaves[0];
        let pr = 1.0 + leaf.radius() + 1e-3;
        for k in 0..n {
            let p = Vec3::new(block.x[k], block.y[k], block.z[k]);
            assert!(p.distance(leaf.center()) <= pr);
        }
    }

    #[test]
    fn block_reuse_resets_state() {
        let (galaxies, tree, leaves, mut block) = fill_for_leaf(400, 3);
        let a = block.fill(&tree, &leaves[0], 2.5, None, &galaxies);
        let ids_a: Vec<u32> = block.ids().to_vec();
        let _ = block.fill(&tree, leaves.last().unwrap(), 2.5, None, &galaxies);
        let again = block.fill(&tree, &leaves[0], 2.5, None, &galaxies);
        assert_eq!(a, again);
        assert_eq!(ids_a, block.ids());
    }

    /// Scalar reference of the blocked Phase A: per-candidate wrapped
    /// delta, the one distance² cut and `√r²`, all in plain scalar
    /// arithmetic. `select_pairs` must stage bit-identical floats in
    /// the same order.
    fn select_pairs_reference(
        block: &CandidateBlock,
        center: Vec3,
        skip_id: u32,
        periodic: Option<f64>,
        rmax: f64,
    ) -> Vec<(u64, u64, u64, u64, u64)> {
        let r2_cut = rmax * rmax * (1.0 + 4.0 * f64::EPSILON);
        let mut out = Vec::new();
        for c in 0..block.ids.len() {
            let p = Vec3::new(block.x[c], block.y[c], block.z[c]);
            let delta = match periodic {
                Some(l) => p.periodic_delta(center, l),
                None => p - center,
            };
            let r2 = delta.norm_sq();
            if r2 <= r2_cut && block.ids[c] != skip_id {
                out.push((
                    delta.x.to_bits(),
                    delta.y.to_bits(),
                    delta.z.to_bits(),
                    r2.sqrt().to_bits(),
                    block.w[c].to_bits(),
                ));
            }
        }
        out
    }

    /// The vectorized Phase A must stage exactly the scalar survivors —
    /// same pairs, same order, bit-identical deltas/separations/weights
    /// — for both boundary modes, across lane tails (candidate counts
    /// not divisible by [`F64_LANES`]).
    #[test]
    fn select_pairs_matches_scalar_reference() {
        for periodic in [None, Some(10.0)] {
            let rmax = 3.0;
            let (galaxies, tree, leaves, mut block) = fill_for_leaf(300, 42);
            let mut staged_any = false;
            for leaf in &leaves {
                block.fill(&tree, leaf, rmax, periodic, &galaxies);
                for slot in leaf.start..leaf.end {
                    let i = tree.id_at(slot) as usize;
                    let center = galaxies[i].pos;
                    let want = select_pairs_reference(&block, center, i as u32, periodic, rmax);
                    let n = block.select_pairs(center, i as u32, periodic, rmax);
                    assert_eq!(
                        n,
                        want.len(),
                        "survivor count mismatch (periodic={periodic:?})"
                    );
                    for (s, w) in want.iter().enumerate() {
                        let got = (
                            block.sel_dx[s].to_bits(),
                            block.sel_dy[s].to_bits(),
                            block.sel_dz[s].to_bits(),
                            block.sel_r[s].to_bits(),
                            block.sel_w[s].to_bits(),
                        );
                        assert_eq!(got, *w, "staged pair {s} differs (periodic={periodic:?})");
                        assert_eq!(
                            block.sel_inv_r[s].to_bits(),
                            (1.0 / block.sel_r[s]).to_bits(),
                            "staged reciprocal {s} differs from scalar 1/r \
                             (periodic={periodic:?})"
                        );
                    }
                    staged_any |= n > 0;
                }
            }
            assert!(staged_any, "test catalog produced no surviving pairs");
        }
    }

    /// `select_pairs` must skip the primary itself even when its own
    /// slot sits inside the candidate block.
    #[test]
    fn select_pairs_skips_the_primary() {
        let (galaxies, tree, leaves, mut block) = fill_for_leaf(200, 9);
        let leaf = &leaves[0];
        block.fill(&tree, leaf, 4.0, None, &galaxies);
        let i = tree.id_at(leaf.start) as usize;
        assert!(block.ids().contains(&(i as u32)));
        let n = block.select_pairs(galaxies[i].pos, i as u32, None, 4.0);
        assert!(n > 0);
        // No staged pair may have the primary's zero separation.
        assert!(block.sel_r.iter().all(|&r| r > 0.0));
    }
}
