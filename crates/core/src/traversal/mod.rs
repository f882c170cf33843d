//! Tree traversal: per-primary neighbor gathering and the leaf-blocked
//! candidate path (stage 1 of the pipeline), both over one
//! [`KdTree`].
//!
//! The neighbor search runs in `f64`, like the rest of the engine. The
//! paper runs it in `f32` for a 9 % end-to-end gain on KNL (§5.4); an
//! `f32` tree here measured within noise of the `f64` one on every
//! benchmark workload, so there is one tree.
//!
//! # Traversal modes
//!
//! Two ways of finding each primary's secondaries coexist behind
//! [`TraversalKind`]:
//!
//! * **Per-primary** ([`KdTree::gather_neighbors`]): one full root
//!   descent per primary, reporting individual point ids, whose pairs
//!   scalar code stages one by one. Simple, and the reference
//!   semantics every other mode must reproduce.
//! * **Leaf-blocked** ([`KdTree::collect_leaves`] + the crate's
//!   candidate block): the paper's node-to-node formulation (§3.2),
//!   where the k-d tree walk searches "for all galaxies within R_max"
//!   of a whole node at once. The cost of a pruned root descent is
//!   paid once per *leaf* of primaries and amortized over all of them:
//!   the walk prunes on the box-to-box minimum distance between the
//!   query leaf's bounding box inflated by Rmax and each tree node, and
//!   appends whole contiguous slot ranges rather than single ids. The
//!   ranges are materialized once into a reusable struct-of-arrays
//!   block (x/y/z/weight contiguous), after a per-candidate
//!   `r² ≤ (Rmax + leaf_radius)²` prefilter from the leaf center has
//!   dropped points that cannot matter to *any* primary in the leaf;
//!   per primary, a lane pass stages the block's pairs.
//!
//! Both modes stage a primary's pairs at `r > 0` into the same arrays,
//! with the same arithmetic, and bin, rotate and normalize them in the
//! same lane pass; from there the engine scatters them into buckets
//! through one Phase B loop: the traversals differ in how candidates
//! are found and staged, never in how a staged pair is binned.
//!
//! # Searches propose, `bin_of` decides
//!
//! Whether a pair counts is decided in exactly one place:
//! [`RadialBins::bin_of`](crate::bins::RadialBins::bin_of) on the `f64`
//! separation, which both modes evaluate with the same arithmetic on
//! the catalog's own coordinates. Every k-d tree query is a
//! *conservative candidate generator*: the tree pads the radius by
//! [`KdTree::pad`], a bound on the rounding of its distances and
//! periodic image shifts, so each pair with `r < Rmax` is always among
//! the candidates and the few extra ones in the pad window are dropped
//! by `bin_of` like any other unbinned pair. Both modes stage their
//! pairs through one lane pass that bins eight at a time with
//! `RadialBins::bin_lanes`, `bin_of`'s lane twin: a count of the inner
//! edges at or below `r`, masked to `[rmin, rmax)`, which is `bin_of`'s
//! answer for every `f64` (NaN and ±∞ included), so it decides nothing
//! `bin_of` would not. The engine's Phase B only scatters the binned
//! pairs into their buckets. The binned pair set is therefore a
//! function of (catalog, bins) only — not of [`TraversalKind`] — and
//! the two modes differ only in accumulation order (≤ 1e-9 relative,
//! with `binned_pairs` equal to the O(N²) oracle's; enforced by
//! `tests/conformance.rs` and `tests/traversal_equivalence.rs`).
//! The 2PCF pair counter ([`crate::paircount`]) gathers through the
//! same padded query and counts by the same `bin_of`. Selection is
//! [`TraversalChoice`] on the config: leaf-blocked unless the reference
//! is pinned.

mod block;

pub(crate) use block::CandidateBlock;
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
    pub(crate) fn resolve(self) -> TraversalKind {
        match self {
            TraversalChoice::Fixed(kind) => kind,
            TraversalChoice::Auto => TraversalKind::LeafBlocked,
        }
    }
}

/// The k-d tree under the names the frozen benchmark ladder calls; the
/// engine searches [`KdTree`] directly.
pub struct Tree(KdTree);

impl Tree {
    /// [`KdTree::build`] at the default leaf size. `precision` has one
    /// value; only the frozen benchmark ladder still passes it.
    pub fn build(positions: &[Vec3], _precision: TreePrecision) -> Self {
        Tree(KdTree::build(positions, TreeConfig::default()))
    }

    /// [`KdTree::collect_leaves`].
    pub fn leaf_blocks(&self) -> Vec<LeafInfo> {
        self.0.collect_leaves()
    }

    /// [`KdTree::for_each_within_of_aabb`].
    pub fn for_each_within_of_aabb<F: FnMut(u32, u32)>(
        &self,
        lo: Vec3,
        hi: Vec3,
        rmax: f64,
        periodic: Option<f64>,
        f: &mut F,
    ) {
        self.0.for_each_within_of_aabb(lo, hi, rmax, periodic, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galactos_kdtree::BruteForce;

    fn kd_tree(positions: &[Vec3]) -> KdTree {
        KdTree::build(positions, TreeConfig::default())
    }

    #[test]
    fn gather_clears_and_counts() {
        let positions = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(5.0, 0.0, 0.0),
        ];
        let tree = kd_tree(&positions);
        let mut out = vec![99; 4]; // stale content must be discarded
        let n = tree.gather_neighbors(Vec3::ZERO, 2.0, None, &mut out);
        assert_eq!(n, 2);
        let mut ids = out.clone();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1]);
    }

    /// Secondaries placed within an ulp of `rmax` at `|coord| ≈ 4096`:
    /// both padded queries the engine makes must return every point the
    /// brute-force scan does, open and through the periodic seam (where
    /// the bare search loses some: `galactos-kdtree`'s
    /// `bare_periodic_search_loses_seam_points`).
    #[test]
    fn padded_query_is_a_superset_of_the_f64_scan() {
        let rmax = 5.0;
        let ulp = f64::EPSILON * 4096.0;
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

            let tree = kd_tree(&positions);
            let mut found = Vec::new();
            tree.gather_neighbors(center, rmax, periodic, &mut found);
            for j in &want {
                assert!(found.contains(j), "point {j} lost (periodic={periodic:?})");
            }
            // Leaf-blocked: the walk from the center's own leaf.
            let leaves = tree.collect_leaves();
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
        let tree = kd_tree(&positions);
        let mut out = Vec::new();
        tree.gather_neighbors(positions[0], 5.0, Some(10.0), &mut out);
        assert_eq!(out, vec![0, 1]);
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
        let tree = kd_tree(&positions);
        let leaves = tree.collect_leaves();
        assert_eq!(
            Tree::build(&positions, TreePrecision::Double).leaf_blocks(),
            leaves
        );
        let mut seen = vec![false; positions.len()];
        for leaf in leaves {
            for slot in leaf.start..leaf.end {
                let id = tree.id_at(slot) as usize;
                assert!(!seen[id]);
                seen[id] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
