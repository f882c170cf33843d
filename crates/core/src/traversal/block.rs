//! The candidate side of stage 2: materialize, once per primary leaf,
//! every secondary that can fall within Rmax of *some* primary in that
//! leaf, as a reusable struct-of-arrays block, and stage, bin, rotate
//! and normalize each primary's pairs for the engine's one Phase B
//! scatter.
//!
//! This is the paper's §3.2 node-to-node traversal turned into data
//! layout: instead of one root descent and one id list per primary,
//! the pruned walk ([`KdTree::for_each_within_of_aabb`]) appends whole
//! contiguous slot ranges within reach of the leaf's bounding box
//! inflated by Rmax, and [`CandidateBlock::fill`] streams those ranges
//! once — prefiltering each candidate against
//! `r² ≤ (Rmax + leaf_radius)²` from the leaf center — into contiguous
//! x/y/z/weight arrays padded to whole [`F64_LANES`] groups.
//!
//! Phase A stages a primary's pairs — delta, `r²`, weight — in the
//! block's `sel_*` arrays. There are two Phase As, one per traversal:
//! [`CandidateBlock::select_pairs`] masks and compacts the leaf's block
//! in lanes, with no per-pair `galaxies[j]` gather and no tree descent
//! at all, and [`CandidateBlock::stage_gathered`] is the per-primary
//! reference's scalar loop over its gathered ids. Both compute the same
//! floats for a pair, and both end with the same lane pass over their
//! survivors: `r = √r²`, the pair's bin from
//! [`RadialBins::bin_lanes`], the line-of-sight rotation and the unit
//! vector `d · (1/r)`. The engine's Phase B is then only the scalar
//! bucket scatter.
//!
//! Nothing here decides which pairs count: the walk and the prefilter
//! are padded by [`KdTree::pad`] so the block is a superset of every
//! leaf member's `r < Rmax` secondaries, the Phase As only drop pairs
//! [`RadialBins::bin_of`] would reject as beyond Rmax, or that are at
//! `r = 0`, which are directionless, and the lane pass bins with
//! `bin_of`'s lane twin, which gives `bin_of`'s answer for every `f64`
//! (see the [module docs](super)).

use super::LeafInfo;
use crate::bins::{RadialBins, NO_BIN};
use galactos_catalog::Galaxy;
use galactos_kdtree::KdTree;
use galactos_math::{Mat3, Vec3};
use galactos_simd::{F64x8, F64_LANES};

/// Reusable SoA buffer of candidate secondaries for one primary leaf.
///
/// Owned by [`ComputeScratch`](crate::scratch::ComputeScratch); cleared
/// and refilled per leaf, so its capacity warms up to the steady-state
/// candidate count and stays allocated across leaves.
#[derive(Default)]
pub(crate) struct CandidateBlock {
    /// Number of candidates held; the arrays below run on past it into
    /// padding.
    len: usize,
    /// Candidate positions (original `f64` catalog coordinates — the
    /// binning arithmetic is identical to per-primary traversal),
    /// padded past `len` with `+∞` to a multiple of
    /// [`F64_LANES`], so Phase A loads whole groups only.
    pub(crate) x: Vec<f64>,
    pub(crate) y: Vec<f64>,
    pub(crate) z: Vec<f64>,
    /// Candidate weights, padded with `0` like the positions.
    pub(crate) w: Vec<f64>,
    /// Range scratch reused across fills.
    ranges: Vec<(u32, u32)>,
    /// Per-primary selection staging filled by a Phase A
    /// ([`CandidateBlock::select_pairs`] or
    /// [`CandidateBlock::stage_gathered`]), one entry per pair that
    /// passed its cut, in candidate (or gather) order. Only the first
    /// `kept` entries (its return value) are the current primary's; the
    /// arrays grow on demand, in whole groups, never to the block
    /// length. A Phase A stores the binning delta here, and its lane
    /// pass overwrites it with the unit vector `û` in the line-of-sight
    /// frame, the pair's direction as Phase B buckets it.
    pub(crate) sel_dx: Vec<f64>,
    pub(crate) sel_dy: Vec<f64>,
    pub(crate) sel_dz: Vec<f64>,
    /// Squared separations `r²`, read only by the lane pass.
    sel_r2: Vec<f64>,
    pub(crate) sel_w: Vec<f64>,
    /// Each pair's bin, as `bin_of(r)` puts it, or [`NO_BIN`].
    pub(crate) sel_bin: Vec<u32>,
}

impl CandidateBlock {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn clear(&mut self) {
        self.len = 0;
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
    pub(crate) fn fill(
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
                    self.x.push(g.pos.x);
                    self.y.push(g.pos.y);
                    self.z.push(g.pos.z);
                    self.w.push(g.weight);
                }
            }
        }
        self.ranges = ranges;
        self.len = self.x.len();

        // 4. Pad to whole lane groups. A `+∞` coordinate gives r² = ∞
        // (or NaN through `periodic_delta`), which Phase A never keeps.
        let padded = self.len.next_multiple_of(F64_LANES);
        self.x.resize(padded, f64::INFINITY);
        self.y.resize(padded, f64::INFINITY);
        self.z.resize(padded, f64::INFINITY);
        self.w.resize(padded, 0.0);
        self.len
    }

    /// Phase A of the blocked split loop: stage the pairs of the
    /// primary at `center` for the engine's Phase B scatter. For each
    /// [`F64_LANES`]-wide group of the padded block, compute the
    /// minimum-image binning delta and distance² and keep the lanes
    /// with `0 < r² ≤ r2_cut` — the cut spares the pairs `bin_of` will
    /// reject as beyond Rmax, and `r² = 0` is the primary itself or a
    /// coincident galaxy, which the pair tail drops as directionless.
    /// A group with no survivor is skipped, a group of eight survivors
    /// is stored whole, and the others are compacted — delta, r²,
    /// weight — into the `sel_*` staging at the running survivor index,
    /// in candidate order. The staging lane pass then bins, rotates and
    /// normalizes every survivor. Returns the survivor count `kept`.
    ///
    /// Every lane replicates the scalar arithmetic exactly (same
    /// operations, same association; `sqrt` and the divide are
    /// correctly rounded), so all staged values are bit-identical to
    /// those [`CandidateBlock::stage_gathered`] stages for the pair.
    pub(crate) fn select_pairs(
        &mut self,
        center: Vec3,
        periodic: Option<f64>,
        bins: &RadialBins,
        rotation: Option<&Mat3>,
    ) -> usize {
        // A sqrt-saving cut, not a membership test: `bin_of` keeps
        // `fl(√r²) < rmax`, and r² above this has
        // √r² > rmax·(1 + ε), which no rounding brings back under rmax.
        let rmax = bins.rmax();
        let r2_cut = F64x8::splat(rmax * rmax * (1.0 + 4.0 * f64::EPSILON));
        let (cx, cy, cz) = (
            F64x8::splat(center.x),
            F64x8::splat(center.y),
            F64x8::splat(center.z),
        );

        let mut kept = 0;
        for start in (0..self.x.len()).step_by(F64_LANES) {
            let (dx, dy, dz) = match periodic {
                None => (
                    F64x8::from_slice(&self.x[start..]) - cx,
                    F64x8::from_slice(&self.y[start..]) - cy,
                    F64x8::from_slice(&self.z[start..]) - cz,
                ),
                Some(l) => {
                    let mut dx = [0.0f64; F64_LANES];
                    let mut dy = [0.0f64; F64_LANES];
                    let mut dz = [0.0f64; F64_LANES];
                    for i in 0..F64_LANES {
                        let c = start + i;
                        let p = Vec3::new(self.x[c], self.y[c], self.z[c]);
                        let d = p.periodic_delta(center, l);
                        (dx[i], dy[i], dz[i]) = (d.x, d.y, d.z);
                    }
                    (
                        F64x8::from_array(dx),
                        F64x8::from_array(dy),
                        F64x8::from_array(dz),
                    )
                }
            };
            // Distance² lanes: (dx·dx + dy·dy) + dz·dz, the same
            // association as `Vec3::norm_sq`.
            let r2 = dx * dx + dy * dy + dz * dz;
            let mut keep = r2.le_mask(r2_cut) & !r2.le_mask(F64x8::ZERO);
            if keep == 0 {
                continue;
            }
            if self.sel_r2.len() < kept + F64_LANES {
                self.grow_staging(kept);
            }
            if keep == u8::MAX {
                dx.write_to(&mut self.sel_dx[kept..]);
                dy.write_to(&mut self.sel_dy[kept..]);
                dz.write_to(&mut self.sel_dz[kept..]);
                r2.write_to(&mut self.sel_r2[kept..]);
                self.sel_w[kept..kept + F64_LANES]
                    .copy_from_slice(&self.w[start..start + F64_LANES]);
                kept += F64_LANES;
                continue;
            }
            while keep != 0 {
                let i = keep.trailing_zeros() as usize;
                self.sel_dx[kept] = dx.0[i];
                self.sel_dy[kept] = dy.0[i];
                self.sel_dz[kept] = dz.0[i];
                self.sel_r2[kept] = r2.0[i];
                self.sel_w[kept] = self.w[start + i];
                kept += 1;
                keep &= keep - 1;
            }
        }
        self.bin_rotate_normalize(kept, bins, rotation);
        kept
    }

    /// Phase A of the per-primary reference: stage every gathered
    /// neighbour `ids` of the primary at `center` that lies at `r² > 0`,
    /// in gather order, with plain scalar arithmetic — the minimum-image
    /// (or plain) delta, `r² = |delta|²` and the weight — then run the
    /// same staging lane pass as [`CandidateBlock::select_pairs`]. The
    /// primary itself, which the gather returns too, and any galaxy at
    /// its position are at `r = 0` and directionless, so they are not
    /// staged. Unlike `select_pairs` there is no radial cut: the gather
    /// returns only points within Rmax plus the tree's pad. Returns the
    /// number of pairs staged.
    pub(crate) fn stage_gathered(
        &mut self,
        galaxies: &[Galaxy],
        ids: &[u32],
        center: Vec3,
        periodic: Option<f64>,
        bins: &RadialBins,
        rotation: Option<&Mat3>,
    ) -> usize {
        if self.sel_r2.len() < ids.len() {
            self.grow_staging(ids.len());
        }
        let mut kept = 0;
        for &j in ids {
            let g = &galaxies[j as usize];
            let delta = match periodic {
                Some(l) => g.pos.periodic_delta(center, l),
                None => g.pos - center,
            };
            let r2 = delta.norm_sq();
            if r2 == 0.0 {
                continue;
            }
            self.sel_dx[kept] = delta.x;
            self.sel_dy[kept] = delta.y;
            self.sel_dz[kept] = delta.z;
            self.sel_r2[kept] = r2;
            self.sel_w[kept] = g.weight;
            kept += 1;
        }
        self.bin_rotate_normalize(kept, bins, rotation);
        kept
    }

    /// The staging lane pass both Phase As end with, over whole groups
    /// of the `kept` staged pairs: `r = √r²`, the bin
    /// ([`RadialBins::bin_lanes`], [`NO_BIN`] where `bin_of` bins
    /// nothing) into `sel_bin`, the line-of-sight rotation when
    /// `rotation` is given, and the unit vector `u = d · (1/r)` over
    /// `sel_dx/dy/dz`. Each lane does what the scalar
    /// `bin_of(r)` and `rotation.mul_vec(delta) * (1.0 / r)` do, in the
    /// same order, so the bits match. The staging is a whole number of
    /// groups, so the last group may run into stale lanes past `kept`,
    /// which nothing reads.
    fn bin_rotate_normalize(&mut self, kept: usize, bins: &RadialBins, rotation: Option<&Mat3>) {
        for s in (0..kept).step_by(F64_LANES) {
            let r = F64x8::from_slice(&self.sel_r2[s..]).sqrt();
            let inv_r = r.recip();
            let mut d = [
                F64x8::from_slice(&self.sel_dx[s..]),
                F64x8::from_slice(&self.sel_dy[s..]),
                F64x8::from_slice(&self.sel_dz[s..]),
            ];
            if let Some(m) = rotation {
                // `Mat3::mul_vec`'s association: (m0·x + m1·y) + m2·z.
                d = m.rows.map(|[m0, m1, m2]| {
                    F64x8::splat(m0) * d[0] + F64x8::splat(m1) * d[1] + F64x8::splat(m2) * d[2]
                });
            }
            (d[0] * inv_r).write_to(&mut self.sel_dx[s..]);
            (d[1] * inv_r).write_to(&mut self.sel_dy[s..]);
            (d[2] * inv_r).write_to(&mut self.sel_dz[s..]);
            self.sel_bin[s..s + F64_LANES].copy_from_slice(&bins.bin_lanes(r));
        }
    }

    /// Grow the staging to whole groups holding `kept` survivors plus
    /// one more group, so a group's stores and the lane pass stay in
    /// bounds.
    fn grow_staging(&mut self, kept: usize) {
        let len = (kept + F64_LANES).next_multiple_of(F64_LANES);
        for v in [
            &mut self.sel_dx,
            &mut self.sel_dy,
            &mut self.sel_dz,
            &mut self.sel_r2,
            &mut self.sel_w,
        ] {
            v.resize(len, 0.0);
        }
        self.sel_bin.resize(len, NO_BIN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galactos_catalog::uniform_box;
    use galactos_kdtree::TreeConfig;
    use galactos_math::LineOfSight;

    fn fill_for_leaf(n: usize, seed: u64) -> (Vec<Galaxy>, KdTree, Vec<LeafInfo>, CandidateBlock) {
        let cat = uniform_box(n, 10.0, seed);
        let positions: Vec<Vec3> = cat.galaxies.iter().map(|g| g.pos).collect();
        let tree = KdTree::build(&positions, TreeConfig::default());
        let leaves = tree.collect_leaves();
        (cat.galaxies, tree, leaves, CandidateBlock::new())
    }

    /// The bits of a position, which identify a `uniform_box` galaxy:
    /// its positions are distinct.
    fn key(p: Vec3) -> (u64, u64, u64) {
        (p.x.to_bits(), p.y.to_bits(), p.z.to_bits())
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
                let have: std::collections::BTreeSet<(u64, u64, u64)> = (0..block.len)
                    .map(|c| key(Vec3::new(block.x[c], block.y[c], block.z[c])))
                    .collect();
                assert_eq!(
                    have.len(),
                    block.len,
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
                            delta.norm() > rmax || have.contains(&key(g.pos)),
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
        let soa = |b: &CandidateBlock| [b.x.clone(), b.y.clone(), b.z.clone(), b.w.clone()];
        let soa_a = soa(&block);
        let _ = block.fill(&tree, leaves.last().unwrap(), 2.5, None, &galaxies);
        let again = block.fill(&tree, &leaves[0], 2.5, None, &galaxies);
        assert_eq!(a, again);
        assert_eq!(soa_a, soa(&block));

        // Shrinking from a padded length (13 → 16) to an unpadded one
        // (8) leaves no sentinel behind: the refilled block equals a
        // fresh one, arrays and staged pairs alike.
        let (galaxies, tree, leaves, _) = fill_for_leaf(13, 3);
        assert_eq!(block.fill(&tree, &leaves[0], 2.5, None, &galaxies), 13);
        assert_eq!(block.x.len(), 16);
        let (galaxies, tree, leaves, mut fresh) = fill_for_leaf(8, 4);
        assert_eq!(block.fill(&tree, &leaves[0], 2.5, None, &galaxies), 8);
        fresh.fill(&tree, &leaves[0], 2.5, None, &galaxies);
        assert_eq!(block.len, fresh.len);
        for (got, want) in [
            (&block.x, &fresh.x),
            (&block.y, &fresh.y),
            (&block.z, &fresh.z),
            (&block.w, &fresh.w),
        ] {
            assert_eq!(got.len(), 8);
            assert_eq!(got, want);
        }
        let bins = RadialBins::linear(0.0, 2.5, 4);
        for g in &galaxies {
            let kept = fresh.select_pairs(g.pos, None, &bins, None);
            assert_eq!(
                assert_select_pairs_matches_reference(&mut block, g.pos, None, &bins, None),
                kept
            );
            assert_eq!(staged(&block, kept), staged(&fresh, kept));
        }
    }

    /// One staged pair as the tests compare it: the bits of
    /// `(û_x, û_y, û_z, r², w)` and the bin.
    type Staged = ([u64; 5], u32);

    /// The first `kept` staged pairs of `block`.
    fn staged(block: &CandidateBlock, kept: usize) -> Vec<Staged> {
        (0..kept)
            .map(|s| {
                let values = [
                    block.sel_dx[s],
                    block.sel_dy[s],
                    block.sel_dz[s],
                    block.sel_r2[s],
                    block.sel_w[s],
                ];
                (values.map(f64::to_bits), block.sel_bin[s])
            })
            .collect()
    }

    /// What the lane pass must stage for a pair at binning delta
    /// `delta` (with `r2 = |delta|²`) and weight `w`, in plain scalar
    /// arithmetic: `bin_of(√r²)` and `rotation.mul_vec(delta) * (1.0 / r)`.
    fn scalar_staged(
        delta: Vec3,
        r2: f64,
        w: f64,
        bins: &RadialBins,
        rotation: Option<&Mat3>,
    ) -> Staged {
        let r = r2.sqrt();
        let d = rotation.map_or(delta, |m| m.mul_vec(delta));
        let u = d * (1.0 / r);
        let bin = bins.bin_of(r).map_or(NO_BIN, |b| b as u32);
        ([u.x, u.y, u.z, r2, w].map(f64::to_bits), bin)
    }

    /// A rotation with no zero entry, so every lane of every row is a
    /// real three-term sum.
    fn tilted() -> Mat3 {
        let axis = Vec3::new(1.0, 2.0, 2.0) * (1.0 / 3.0);
        Mat3::rotation_about(axis, 0.7)
    }

    /// Scalar reference of the blocked Phase A: per-candidate wrapped
    /// delta, the one `0 < r² ≤ r2_cut` cut and [`scalar_staged`], all
    /// over the block's real (unpadded) candidates. `select_pairs` must
    /// stage bit-identical values in the same order.
    fn select_pairs_reference(
        block: &CandidateBlock,
        center: Vec3,
        periodic: Option<f64>,
        bins: &RadialBins,
        rotation: Option<&Mat3>,
    ) -> Vec<Staged> {
        let rmax = bins.rmax();
        let r2_cut = rmax * rmax * (1.0 + 4.0 * f64::EPSILON);
        let mut out = Vec::new();
        for c in 0..block.len {
            let p = Vec3::new(block.x[c], block.y[c], block.z[c]);
            let delta = match periodic {
                Some(l) => p.periodic_delta(center, l),
                None => p - center,
            };
            let r2 = delta.norm_sq();
            if 0.0 < r2 && r2 <= r2_cut {
                out.push(scalar_staged(delta, r2, block.w[c], bins, rotation));
            }
        }
        out
    }

    /// Run `select_pairs` for the primary at `center` and assert that
    /// the first `kept` staged pairs are exactly the reference's — same
    /// order, same bits, same bins — and that nothing non-finite (no
    /// `+∞` padding lane) was staged. Returns `kept`.
    fn assert_select_pairs_matches_reference(
        block: &mut CandidateBlock,
        center: Vec3,
        periodic: Option<f64>,
        bins: &RadialBins,
        rotation: Option<&Mat3>,
    ) -> usize {
        let want = select_pairs_reference(block, center, periodic, bins, rotation);
        let kept = block.select_pairs(center, periodic, bins, rotation);
        assert_eq!(
            kept,
            want.len(),
            "survivor count mismatch (periodic={periodic:?})"
        );
        for (s, (got, want)) in staged(block, kept).iter().zip(&want).enumerate() {
            assert_eq!(
                got, want,
                "staged pair {s} differs (periodic={periodic:?}, rotation={rotation:?})"
            );
        }
        for v in [&block.sel_dx, &block.sel_dy, &block.sel_dz, &block.sel_r2] {
            assert!(
                v[..kept].iter().all(|x| x.is_finite()),
                "a padding lane was staged (periodic={periodic:?})"
            );
        }
        kept
    }

    /// The vectorized Phase A must stage exactly the scalar survivors
    /// for both boundary modes, unrotated and rotated, with linear bins
    /// from 0 and logarithmic bins from `rmin > 0` (so some survivors
    /// are staged unbinned), over every leaf of a catalog.
    #[test]
    fn select_pairs_matches_scalar_reference() {
        let rmax = 3.0;
        let tilt = tilted();
        for bins in [
            RadialBins::linear(0.0, rmax, 4),
            RadialBins::logarithmic(0.5, rmax, 5),
        ] {
            for (periodic, rotation) in [
                (None, None),
                (Some(10.0), None),
                (None, Some(&tilt)),
                (Some(10.0), Some(&tilt)),
            ] {
                let (galaxies, tree, leaves, mut block) = fill_for_leaf(300, 42);
                let (mut binned, mut unbinned) = (0, 0);
                for leaf in &leaves {
                    block.fill(&tree, leaf, rmax, periodic, &galaxies);
                    for slot in leaf.start..leaf.end {
                        let center = galaxies[tree.id_at(slot) as usize].pos;
                        let kept = assert_select_pairs_matches_reference(
                            &mut block, center, periodic, &bins, rotation,
                        );
                        let n = block.sel_bin[..kept]
                            .iter()
                            .filter(|&&b| b != NO_BIN)
                            .count();
                        binned += n;
                        unbinned += kept - n;
                    }
                }
                assert!(binned > 0, "test catalog produced no binned pairs");
                if bins.rmin() > 0.0 {
                    assert!(unbinned > 0, "no survivor fell below rmin");
                }
            }
        }
    }

    /// Blocks of 1 to 17 candidates (one leaf, so every galaxy is a
    /// candidate) cover every padding-lane count from 0 to 7, open and
    /// periodic, unrotated and rotated: the padding is `+∞` coordinates
    /// and `0` weights, and `select_pairs` still stages exactly the
    /// reference's pairs.
    #[test]
    fn select_pairs_matches_reference_at_every_padding() {
        let rmax = 4.0;
        let bins = RadialBins::linear(0.0, rmax, 4);
        let tilt = tilted();
        let mut pads_seen = [false; F64_LANES];
        for n in 1..=17 {
            for periodic in [None, Some(10.0)] {
                let (galaxies, tree, leaves, mut block) = fill_for_leaf(n, n as u64);
                assert_eq!(leaves.len(), 1);
                assert_eq!(block.fill(&tree, &leaves[0], rmax, periodic, &galaxies), n);
                let padded = block.x.len();
                assert_eq!(padded, n.next_multiple_of(F64_LANES));
                pads_seen[padded - n] = true;
                for v in [&block.x, &block.y, &block.z] {
                    assert_eq!(v.len(), padded);
                    assert!(v[n..].iter().all(|&c| c == f64::INFINITY));
                }
                assert!(block.w[n..].iter().all(|&w| w == 0.0));
                for g in &galaxies {
                    for rotation in [None, Some(&tilt)] {
                        assert_select_pairs_matches_reference(
                            &mut block, g.pos, periodic, &bins, rotation,
                        );
                    }
                }
            }
        }
        assert!(pads_seen.iter().all(|&p| p), "padding counts {pads_seen:?}");
    }

    /// One leaf holding a primary and two copies of it: the primary is
    /// not skipped by id, but it and both copies are at `r = 0`, so
    /// none of the three may be staged.
    #[test]
    fn select_pairs_stages_no_coincident_point() {
        let rmax = 5.0;
        let bins = RadialBins::linear(0.0, rmax, 4);
        for periodic in [None, Some(10.0)] {
            let mut galaxies = uniform_box(12, 10.0, 9).galaxies;
            let twin = galaxies[0];
            galaxies.extend([twin, twin]);
            let positions: Vec<Vec3> = galaxies.iter().map(|g| g.pos).collect();
            let tree = KdTree::build(&positions, TreeConfig::default());
            let leaves = tree.collect_leaves();
            assert_eq!(leaves.len(), 1);
            let mut block = CandidateBlock::new();
            block.fill(&tree, &leaves[0], rmax, periodic, &galaxies);
            let copies = (0..block.len)
                .filter(|&c| Vec3::new(block.x[c], block.y[c], block.z[c]) == twin.pos)
                .count();
            assert_eq!(copies, 3, "the primary and both copies are candidates");
            let kept =
                assert_select_pairs_matches_reference(&mut block, twin.pos, periodic, &bins, None);
            assert!(kept > 0);
            assert!(block.sel_r2[..kept].iter().all(|&r2| r2 > 0.0));
        }
    }

    /// The two Phase As stage the same binned pairs. For every primary
    /// of a uniform box, open and periodic, with the identity and with
    /// a radial line of sight (a rotation per primary), `select_pairs`
    /// over its leaf's block and `stage_gathered` over its
    /// `gather_neighbors` ids, each kept to the pairs with a bin, hold
    /// bit-identical `(û_x, û_y, û_z, r², w)` and equal bins: in the
    /// same order for the open box, and as the same multiset for the
    /// periodic one, where images can reorder the gather.
    #[test]
    fn both_phase_as_stage_the_same_binned_pairs() {
        let (box_len, rmax) = (20.0, 3.0);
        let bins = RadialBins::linear(0.0, rmax, 4);
        let galaxies = uniform_box(1500, box_len, 8).galaxies;
        let positions: Vec<Vec3> = galaxies.iter().map(|g| g.pos).collect();
        let tree = KdTree::build(&positions, TreeConfig::default());
        let binned = |block: &CandidateBlock, n: usize| -> Vec<Staged> {
            let mut pairs = staged(block, n);
            pairs.retain(|&(_, bin)| bin != NO_BIN);
            pairs
        };
        let (mut block, mut ids) = (CandidateBlock::new(), Vec::new());
        let radial = LineOfSight::Radial {
            observer: Vec3::new(-40.0, 55.0, -30.0),
        };
        for los in [LineOfSight::Fixed(Vec3::Z), radial] {
            for periodic in [None, Some(box_len)] {
                let mut compared = 0;
                for leaf in &tree.collect_leaves() {
                    block.fill(&tree, leaf, rmax, periodic, &galaxies);
                    for slot in leaf.start..leaf.end {
                        let center = galaxies[tree.id_at(slot) as usize].pos;
                        let m = los.rotation_for(center).unwrap();
                        let rotation = (m != Mat3::IDENTITY).then_some(&m);
                        let kept = block.select_pairs(center, periodic, &bins, rotation);
                        let mut lanes = binned(&block, kept);
                        tree.gather_neighbors(center, rmax, periodic, &mut ids);
                        let kept = block
                            .stage_gathered(&galaxies, &ids, center, periodic, &bins, rotation);
                        let mut scalar = binned(&block, kept);
                        if periodic.is_some() {
                            lanes.sort_unstable();
                            scalar.sort_unstable();
                        }
                        assert_eq!(
                            lanes, scalar,
                            "primary at {center:?} (periodic={periodic:?}, los={los:?})"
                        );
                        compared += lanes.len();
                    }
                }
                assert!(
                    compared > 10_000,
                    "only {compared} pairs (periodic={periodic:?}, los={los:?})"
                );
            }
        }
    }
}
