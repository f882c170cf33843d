//! Tree traversal: the precision-erased k-d tree, per-primary neighbor
//! gathering, and the leaf-blocked candidate path (stage 1 of the
//! pipeline).
//!
//! The paper's mixed-precision mode (§5.4) runs the neighbor search in
//! `f32` "due to its insensitivity to the precision of galaxy
//! locations" while keeping all multipole arithmetic in `f64`. [`Tree`]
//! erases that choice behind one type so every caller downstream of
//! [`crate::config::TreePrecision`] is precision-agnostic.
//!
//! # Traversal modes
//!
//! Two ways of finding each primary's secondaries coexist behind
//! [`TraversalKind`]:
//!
//! * **Per-primary** ([`Tree::gather_neighbors`]): one full root
//!   descent per primary, reporting individual point ids. Simple, and
//!   the reference semantics every other mode must reproduce.
//! * **Leaf-blocked** ([`Tree::leaf_blocks`] + [`CandidateBlock`]):
//!   the paper's node-to-node formulation (§3.2), where the k-d tree
//!   walk searches "for all galaxies within R_max" of a whole node
//!   at once. The cost of a pruned root descent is paid once per
//!   *leaf* of primaries and amortized over all of them: the walk
//!   prunes on the box-to-box minimum distance between the query
//!   leaf's bounding box inflated by Rmax and each tree node, and
//!   appends whole contiguous slot ranges rather than single ids. The
//!   ranges are materialized once into a reusable struct-of-arrays
//!   [`CandidateBlock`] (x/y/z/weight contiguous) that the engine's
//!   split loop then streams per primary, after a per-candidate
//!   `r² ≤ (Rmax + leaf_radius)²` prefilter from the leaf center has
//!   dropped points that cannot matter to *any* primary in the leaf.
//!
//! # Searches propose, `bin_of` decides
//!
//! Whether a pair counts is decided in exactly one place:
//! [`RadialBins::bin_of`](crate::bins::RadialBins::bin_of) on the `f64`
//! separation, which both modes evaluate with the same arithmetic on
//! the catalog's own coordinates. Every query of this module is a
//! *conservative candidate generator*: it pads the radius it hands to
//! the k-d tree by `Tree::pad`, a bound on everything the tree's
//! scalar type can lose, so each pair with `r < Rmax` in `f64` is
//! always among the candidates and the few extra ones in the pad
//! window are dropped by `bin_of` like any other unbinned pair. The
//! binned pair set is therefore a function of (catalog, bins) only —
//! not of [`TreePrecision`], not of [`TraversalKind`] — and results
//! differ between them only in accumulation order (≤ 1e-9 relative
//! between traversals, ≤ 1e-12 between precisions, with equal
//! `binned_pairs`; enforced by `tests/traversal_equivalence.rs`).
//! Selection is [`TraversalChoice`] on the config: leaf-blocked unless
//! the reference is pinned.

mod block;

pub use block::CandidateBlock;
pub use galactos_kdtree::LeafInfo;

use crate::config::TreePrecision;
use galactos_kdtree::{KdTree, TreeConfig};
use galactos_math::Vec3;
use std::fmt;

/// The closed set of traversal implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraversalKind {
    /// One root descent per primary — the reference semantics.
    PerPrimary,
    /// Node-to-node walk gathering candidates once per primary *leaf*
    /// into a SoA block (§3.2).
    LeafBlocked,
}

impl TraversalKind {
    /// Every mode, reference first (the order equivalence sweeps use).
    pub const ALL: [TraversalKind; 2] = [TraversalKind::PerPrimary, TraversalKind::LeafBlocked];

    /// Stable lowercase name (for reports and run manifests).
    pub fn name(self) -> &'static str {
        match self {
            TraversalKind::PerPrimary => "per-primary",
            TraversalKind::LeafBlocked => "leaf-blocked",
        }
    }
}

impl fmt::Display for TraversalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Traversal selection as configured on [`EngineConfig`](
/// crate::config::EngineConfig). Resolved once, at [`Engine::new`](
/// crate::engine::Engine::new) — not per worker or per call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraversalChoice {
    /// [`TraversalKind::LeafBlocked`]: it amortizes one pruned tree
    /// walk over a whole leaf of primaries and streams candidates from
    /// a contiguous SoA block instead of per-pair `galaxies[j]`
    /// gathers. There is no measured configuration where per-primary
    /// wins, and every `BENCHMARK.json` tree workload runs this.
    #[default]
    Auto,
    /// Always this mode — how the equivalence tests and the
    /// benchmark's differential check run the per-primary reference.
    Fixed(TraversalKind),
}

impl TraversalChoice {
    pub fn resolve(self) -> TraversalKind {
        match self {
            TraversalChoice::Fixed(kind) => kind,
            TraversalChoice::Auto => TraversalKind::LeafBlocked,
        }
    }
}

/// See [`Tree::pad`].
const PAD_ULPS: f64 = 8.0;

/// Precision-erased k-d tree.
pub enum Tree {
    F32(KdTree<f32>),
    F64(KdTree<f64>),
}

impl Tree {
    /// Build a tree over `positions` at the requested search precision.
    pub fn build(positions: &[Vec3], precision: TreePrecision) -> Self {
        match precision {
            TreePrecision::Mixed => Tree::F32(KdTree::build(positions, TreeConfig::default())),
            TreePrecision::Double => Tree::F64(KdTree::build(positions, TreeConfig::default())),
        }
    }

    /// How far a query radius is padded so that no rounding in the
    /// tree's scalar type `S` can hide a pair with `r < rmax` in `f64`:
    /// `PAD_ULPS · ε_S · (max|coord| + box_len + rmax)`.
    ///
    /// With `u = ε_S / 2` and `M = max|coord|`: a stored coordinate is
    /// off by ≤ `u·M` and a query corner — shifted by a whole box
    /// length first when periodic — by ≤ `u·(M + L)`, so the exact
    /// distance between the rounded points exceeds the true one by
    /// ≤ `√3·u·(2M + L)`. Evaluating it (three subtractions, three
    /// squares, two additions) and rounding and squaring the radius
    /// cost another ≤ `4u` relative to `rmax`; a leaf's bounding box in
    /// `S` can sit `√3·u·M` inside its primaries' `f64` positions; and
    /// the engine's own `√(δ·δ)` is good to a few `ε_f64·rmax`. The
    /// total is below `ε_S·(2.6 M + 0.9 L + 4 rmax)`, and the leaf
    /// prefilter of [`CandidateBlock::fill`] (center, radius and
    /// distance in `f64`) adds at most `ε_f64·(5.2 M + 2 rmax)` of its
    /// own. [`PAD_ULPS`] = 8 covers both with room to spare; the price
    /// is a few candidates `bin_of` rejects. Queries are made from tree
    /// points and leaf boxes, so `M` bounds the query corners too.
    pub(crate) fn pad(&self, rmax: f64, periodic: Option<f64>) -> f64 {
        let (eps, reach) = match self {
            Tree::F32(t) => (f64::from(f32::EPSILON), t.max_abs_coord()),
            Tree::F64(t) => (f64::EPSILON, t.max_abs_coord()),
        };
        PAD_ULPS * eps * (reach + periodic.unwrap_or(0.0) + rmax)
    }

    /// Gather into `out` (cleared first) the ids of a superset of the
    /// points within `rmax` of `center` — each at most once, whatever
    /// the padded radius reaches through the periodic images — and
    /// return how many. `center` is a tree point (`Tree::pad` assumes it).
    pub fn gather_neighbors(
        &self,
        center: Vec3,
        rmax: f64,
        periodic: Option<f64>,
        out: &mut Vec<u32>,
    ) -> usize {
        out.clear();
        let r = rmax + self.pad(rmax, periodic);
        let mut push = |id| out.push(id);
        match (self, periodic) {
            (Tree::F32(t), None) => t.for_each_within(center, r, &mut push),
            (Tree::F64(t), None) => t.for_each_within(center, r, &mut push),
            (Tree::F32(t), Some(l)) => t.for_each_within_periodic(center, r, l, &mut push),
            (Tree::F64(t), Some(l)) => t.for_each_within_periodic(center, r, l, &mut push),
        }
        if periodic.is_some_and(|l| r > 0.5 * l) {
            // Past box/2 (rmax = box/2 plus the pad) a point on the far
            // face is reached through two images.
            out.sort_unstable();
            out.dedup();
        }
        out.len()
    }

    /// Every leaf of the tree in ascending slot order; together they
    /// partition the point set, so a driver that processes each leaf's
    /// primaries exactly once covers every primary exactly once.
    pub fn leaf_blocks(&self) -> Vec<LeafInfo> {
        match self {
            Tree::F32(t) => t.collect_leaves(),
            Tree::F64(t) => t.collect_leaves(),
        }
    }

    /// Node-to-node pruned walk: visit contiguous slot ranges covering
    /// every point within `rmax` (padded by `Tree::pad`) of the box
    /// `[lo, hi]` (see [`KdTree::for_each_within_of_aabb`]). Periodic
    /// walks may emit overlapping ranges across box images;
    /// [`CandidateBlock::fill`] coalesces them.
    pub fn for_each_within_of_aabb<F: FnMut(u32, u32)>(
        &self,
        lo: Vec3,
        hi: Vec3,
        rmax: f64,
        periodic: Option<f64>,
        f: &mut F,
    ) {
        let r = rmax + self.pad(rmax, periodic);
        match (self, periodic) {
            (Tree::F32(t), None) => t.for_each_within_of_aabb(lo, hi, r, f),
            (Tree::F64(t), None) => t.for_each_within_of_aabb(lo, hi, r, f),
            (Tree::F32(t), Some(l)) => t.for_each_within_of_aabb_periodic(lo, hi, r, l, f),
            (Tree::F64(t), Some(l)) => t.for_each_within_of_aabb_periodic(lo, hi, r, l, f),
        }
    }

    /// Original point index stored in reordered slot `slot`.
    #[inline]
    pub fn id_at(&self, slot: u32) -> u32 {
        match self {
            Tree::F32(t) => t.id_at(slot as usize),
            Tree::F64(t) => t.id_at(slot as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galactos_kdtree::BruteForce;

    #[test]
    fn gather_clears_and_counts() {
        let positions = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(5.0, 0.0, 0.0),
        ];
        let tree = Tree::build(&positions, TreePrecision::Double);
        let mut out = vec![99; 4]; // stale content must be discarded
        let n = tree.gather_neighbors(Vec3::ZERO, 2.0, None, &mut out);
        assert_eq!(n, 2);
        let mut ids = out.clone();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn mixed_and_double_agree_away_from_boundaries() {
        let positions: Vec<Vec3> = (0..50)
            .map(|i| Vec3::new((i % 7) as f64, (i % 5) as f64, (i % 3) as f64))
            .collect();
        let t32 = Tree::build(&positions, TreePrecision::Mixed);
        let t64 = Tree::build(&positions, TreePrecision::Double);
        let mut a = Vec::new();
        let mut b = Vec::new();
        t32.gather_neighbors(Vec3::new(3.1, 2.1, 1.1), 2.5, None, &mut a);
        t64.gather_neighbors(Vec3::new(3.1, 2.1, 1.1), 2.5, None, &mut b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    /// Secondaries placed within an `f32` ulp of `rmax` at
    /// `|coord| ≈ 4096` (ulp ≈ 4.9e-4), where the bare `f32` search
    /// loses some: the padded query must return every point the `f64`
    /// brute-force scan does, open and through the periodic seam.
    #[test]
    fn padded_f32_query_is_a_superset_of_the_f64_scan() {
        let rmax = 5.0;
        let ulp = f64::from(f32::EPSILON) * 4096.0;
        for (center, periodic) in [
            (Vec3::new(4096.3, 4100.7, 4097.9), None),
            (Vec3::new(8191.9, 4100.7, 0.2), Some(8192.0)),
        ] {
            let mut positions = vec![center];
            for i in 0..400 {
                let (t, p) = (0.37 * i as f64, 0.61 * i as f64);
                let dir = Vec3::new(t.sin() * p.cos(), t.sin() * p.sin(), t.cos());
                let p = center + dir * (rmax + ulp * (i % 5 - 2) as f64);
                positions.push(match periodic {
                    Some(l) => Vec3::new(p.x.rem_euclid(l), p.y.rem_euclid(l), p.z.rem_euclid(l)),
                    None => p,
                });
            }
            let want: Vec<u32> = match periodic {
                None => BruteForce::new(&positions).within(center, rmax),
                Some(l) => (0..positions.len() as u32)
                    .filter(|&j| positions[j as usize].periodic_delta(center, l).norm() <= rmax)
                    .collect(),
            };
            assert!(want.len() > 100 && want.len() < positions.len());

            let bare = KdTree::<f32>::build(&positions, TreeConfig::default());
            let mut found = Vec::new();
            match periodic {
                None => bare.for_each_within(center, rmax, &mut |id| found.push(id)),
                Some(l) => bare.for_each_within_periodic(center, rmax, l, &mut |id| found.push(id)),
            }
            assert!(
                want.iter().any(|j| !found.contains(j)),
                "the unpadded f32 search lost nothing: the case has no teeth"
            );

            let tree = Tree::build(&positions, TreePrecision::Mixed);
            tree.gather_neighbors(center, rmax, periodic, &mut found);
            for j in &want {
                assert!(found.contains(j), "point {j} lost (periodic={periodic:?})");
            }
            // Leaf-blocked: the walk from the center's own leaf.
            let leaves = tree.leaf_blocks();
            let leaf = leaves
                .iter()
                .find(|leaf| (leaf.start..leaf.end).any(|s| tree.id_at(s) == 0))
                .unwrap();
            found.clear();
            tree.for_each_within_of_aabb(leaf.lo, leaf.hi, rmax, periodic, &mut |s, e| {
                found.extend((s..e).map(|slot| tree.id_at(slot)))
            });
            for j in &want {
                assert!(
                    found.contains(j),
                    "point {j} not in range (periodic={periodic:?})"
                );
            }
        }
    }

    /// At `rmax == box/2` the pad reaches a point on the far face
    /// through two images; it is still gathered once.
    #[test]
    fn periodic_gather_reports_each_point_once() {
        let positions = vec![Vec3::new(1.0, 5.0, 5.0), Vec3::new(6.0, 5.0, 5.0)];
        for precision in [TreePrecision::Double, TreePrecision::Mixed] {
            let tree = Tree::build(&positions, precision);
            let mut out = Vec::new();
            tree.gather_neighbors(positions[0], 5.0, Some(10.0), &mut out);
            assert_eq!(out, vec![0, 1], "{precision:?}");
        }
    }

    #[test]
    fn fixed_choice_resolves_to_itself_and_auto_to_leaf_blocked() {
        for kind in TraversalKind::ALL {
            assert_eq!(TraversalChoice::Fixed(kind).resolve(), kind);
            assert_eq!(format!("{kind}"), kind.name());
        }
        assert_eq!(TraversalChoice::default(), TraversalChoice::Auto);
        assert_eq!(TraversalChoice::Auto.resolve(), TraversalKind::LeafBlocked);
    }

    #[test]
    fn leaf_blocks_cover_every_point_once() {
        let positions: Vec<Vec3> = (0..200)
            .map(|i| {
                Vec3::new(
                    (i % 13) as f64 * 0.7,
                    (i % 11) as f64 * 1.1,
                    (i % 7) as f64 * 1.3,
                )
            })
            .collect();
        for precision in [TreePrecision::Double, TreePrecision::Mixed] {
            let tree = Tree::build(&positions, precision);
            let mut seen = vec![false; positions.len()];
            for leaf in tree.leaf_blocks() {
                for slot in leaf.start..leaf.end {
                    let id = tree.id_at(slot) as usize;
                    assert!(!seen[id]);
                    seen[id] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }
}
