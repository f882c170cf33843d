//! The balanced k-d tree: construction and padded sphere and box
//! queries.

use std::borrow::Borrow;

use galactos_math::Vec3;

/// Construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct TreeConfig {
    /// Maximum number of points per leaf. Small leaves prune better;
    /// large leaves scan better. 32 is a good default for the gather
    /// workload (secondaries are consumed in buckets of 128 anyway).
    pub leaf_size: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig { leaf_size: 32 }
    }
}

#[derive(Clone, Copy, Debug)]
enum NodeKind {
    Internal { left: u32, right: u32 },
    Leaf,
}

#[derive(Clone, Copy, Debug)]
struct Node {
    lo: [f64; 3],
    hi: [f64; 3],
    /// Contiguous range of reordered point slots covered by this subtree.
    start: u32,
    end: u32,
    kind: NodeKind,
}

impl Node {
    /// Squared distance from the nearest point of this bbox to the
    /// nearest point of the axis-aligned box `[qlo, qhi]` (zero when
    /// they intersect).
    #[inline]
    fn min_dist_sq_to_aabb(&self, qlo: [f64; 3], qhi: [f64; 3]) -> f64 {
        let mut acc = 0.0;
        for ax in 0..3 {
            let gap = if qlo[ax] > self.hi[ax] {
                qlo[ax] - self.hi[ax]
            } else if self.lo[ax] > qhi[ax] {
                self.lo[ax] - qhi[ax]
            } else {
                0.0
            };
            acc += gap * gap;
        }
        acc
    }

    /// Squared distance from the *farthest* point of this bbox to the
    /// nearest point of `[qlo, qhi]` — when this is ≤ r², every point in
    /// the subtree lies within `r` of the query box.
    #[inline]
    fn max_dist_sq_to_aabb(&self, qlo: [f64; 3], qhi: [f64; 3]) -> f64 {
        let mut acc = 0.0;
        for ax in 0..3 {
            // Distance from v to [qlo, qhi] is max(0, qlo−v, v−qhi),
            // maximized over v ∈ [lo, hi] at an endpoint.
            let a = qlo[ax] - self.lo[ax]; // farthest-below endpoint
            let b = self.hi[ax] - qhi[ax]; // farthest-above endpoint
            let gap = fmax(fmax(a, b), 0.0);
            acc += gap * gap;
        }
        acc
    }
}

/// One leaf of the tree as seen by block-traversal callers: the
/// contiguous range of reordered point *slots* it owns and its tight
/// bounding box.
///
/// Slots index the tree's leaf-contiguous storage; map a slot back to
/// the original point with [`KdTree::id_at`]. Leaves partition the
/// slot space exactly, so iterating leaves visits every point once.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LeafInfo {
    pub start: u32,
    pub end: u32,
    pub lo: Vec3,
    pub hi: Vec3,
}

impl LeafInfo {
    /// Number of points in this leaf.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Center of the leaf's bounding box.
    #[inline]
    pub fn center(&self) -> Vec3 {
        Vec3::new(
            0.5 * (self.lo.x + self.hi.x),
            0.5 * (self.lo.y + self.hi.y),
            0.5 * (self.lo.z + self.hi.z),
        )
    }

    /// Half the bbox diagonal: every point of the leaf is within this
    /// radius of [`LeafInfo::center`].
    #[inline]
    pub fn radius(&self) -> f64 {
        let d = Vec3::new(
            self.hi.x - self.lo.x,
            self.hi.y - self.lo.y,
            self.hi.z - self.lo.z,
        );
        0.5 * d.norm()
    }
}

/// See [`KdTree::pad`].
const PAD_ULPS: f64 = 8.0;

/// A balanced k-d tree over 3-D `f64` points.
///
/// Points are reordered into contiguous per-leaf storage at build time;
/// every query reports *original* point indices (`u32`).
#[derive(Clone, Debug)]
pub struct KdTree {
    nodes: Vec<Node>,
    coords: Vec<[f64; 3]>,
    ids: Vec<u32>,
}

impl KdTree {
    /// Build a tree over `points` — a slice, or positions mapped from
    /// another collection, which are then never copied whole. The
    /// (point, id) pairs are collected once, ids in iteration order,
    /// and partitioned in place, each node's slice at its median; the
    /// slot-ordered coordinates and ids are split from them at the end,
    /// so nothing is allocated per node. Panics on a non-finite
    /// coordinate, naming the point and its position.
    pub fn build<P: Borrow<Vec3>>(points: impl IntoIterator<Item = P>, config: TreeConfig) -> Self {
        assert!(config.leaf_size >= 1, "leaf_size must be >= 1");
        let points = points.into_iter();
        let mut pairs = Vec::with_capacity(points.size_hint().0);
        for (id, p) in points.enumerate() {
            let p = to_array(*p.borrow());
            assert!(
                p.iter().all(|v| v.is_finite()),
                "point {id} is not finite: {p:?}"
            );
            pairs.push((p, id as u32));
        }
        assert!(
            pairs.len() < u32::MAX as usize,
            "point count exceeds u32 index space"
        );
        let mut nodes = Vec::with_capacity(2 * pairs.len() / config.leaf_size + 2);
        if !pairs.is_empty() {
            Self::build_node(&mut nodes, &mut pairs, 0, config.leaf_size);
        }
        KdTree {
            nodes,
            coords: pairs.iter().map(|&(p, _)| p).collect(),
            ids: pairs.iter().map(|&(_, id)| id).collect(),
        }
    }

    /// Recursively append to `nodes` the subtree over `pairs`, which hold
    /// slots `start..start + pairs.len()`, returning its node index.
    fn build_node(
        nodes: &mut Vec<Node>,
        pairs: &mut [([f64; 3], u32)],
        start: usize,
        leaf_size: usize,
    ) -> u32 {
        let mut lo = [f64::MAX; 3];
        let mut hi = [f64::MIN; 3];
        for (p, _) in pairs.iter() {
            for ax in 0..3 {
                lo[ax] = fmin(lo[ax], p[ax]);
                hi[ax] = fmax(hi[ax], p[ax]);
            }
        }
        let idx = nodes.len() as u32;
        nodes.push(Node {
            lo,
            hi,
            start: start as u32,
            end: (start + pairs.len()) as u32,
            kind: NodeKind::Leaf,
        });
        if pairs.len() <= leaf_size {
            return idx;
        }

        // Split along the longest axis of the *actual* point bounds at the
        // median — this is what balances the tree regardless of clustering.
        let mut axis = 0usize;
        let mut best = hi[0] - lo[0];
        for ax in 1..3 {
            let ext = hi[ax] - lo[ax];
            if ext > best {
                best = ext;
                axis = ax;
            }
        }
        let mid = pairs.len() / 2;
        // `build` rejected non-finite coordinates, so every pair compares.
        pairs.select_nth_unstable_by(mid, |a, b| a.0[axis].partial_cmp(&b.0[axis]).unwrap());
        let (left, right) = pairs.split_at_mut(mid);
        let left = Self::build_node(nodes, left, start, leaf_size);
        let right = Self::build_node(nodes, right, start + mid, leaf_size);
        nodes[idx as usize].kind = NodeKind::Internal { left, right };
        idx
    }

    /// Original index of the point in reordered slot `slot`.
    #[inline]
    pub fn id_at(&self, slot: u32) -> u32 {
        self.ids[slot as usize]
    }

    /// How far the two searches pad a query radius so that no rounding
    /// in them can hide a pair a caller's own `f64` arithmetic puts at
    /// `r < rmax`: `PAD_ULPS · ε · (max|coord| + box_len + rmax)`, with
    /// `max|coord|` read off the root bounding box (0 for an empty
    /// tree).
    ///
    /// With `u = ε / 2` and `M = max|coord|`: a query corner shifted by
    /// a whole box length (periodic walks) is off by ≤ `u·(M + L)`, so
    /// the exact distance from the rounded corner exceeds the true one
    /// by ≤ `√3·u·(M + L)`. Evaluating it (three subtractions, three
    /// squares, two additions) and squaring the radius cost another
    /// ≤ `4u` relative to `rmax`, and the caller's own `√(δ·δ)` is
    /// good to a few `ε·rmax`. The total is below
    /// `ε·(2.6 M + 0.9 L + 4 rmax)`, and a leaf prefilter made from a
    /// [`LeafInfo`]'s center, radius and distance (as `galactos-core`'s
    /// candidate block makes) adds at most `ε·(5.2 M + 2 rmax)` of its
    /// own. `PAD_ULPS` = 8 covers both; the price is a few candidates
    /// the caller's membership test rejects. A query center need not be
    /// a tree point: one with any tree point within `rmax` has
    /// `|coord| ≤ M + rmax`, which the `rmax` term covers.
    pub fn pad(&self, rmax: f64, periodic: Option<f64>) -> f64 {
        let max_abs_coord = self.nodes.first().map_or(0.0, |root| {
            let corners = root.lo.iter().chain(&root.hi);
            corners.fold(0.0, |m: f64, v| m.max(v.abs()))
        });
        PAD_ULPS * f64::EPSILON * (max_abs_coord + periodic.unwrap_or(0.0) + rmax)
    }

    /// Gather into `out` (cleared first) the ids of a superset of the
    /// points within `rmax` of `center` — the minimum-image distance in
    /// a periodic box of side `periodic` — each at most once, and
    /// return how many. The radius is padded by [`KdTree::pad`], so
    /// every point the caller's `f64` arithmetic puts at `r ≤ rmax` is
    /// among them and every one is within `rmax + 2·pad`; the caller
    /// decides membership.
    pub fn gather_neighbors(
        &self,
        center: Vec3,
        rmax: f64,
        periodic: Option<f64>,
        out: &mut Vec<u32>,
    ) -> usize {
        out.clear();
        let r = rmax + self.pad(rmax, periodic);
        self.for_each_within(center, r, periodic, &mut |id| out.push(id));
        if periodic.is_some_and(|l| r > 0.5 * l) {
            // Past box/2 (rmax = box/2 plus the pad) a point on the far
            // face is reached through two images.
            out.sort_unstable();
            out.dedup();
        }
        out.len()
    }

    /// Visit the original index of every point within `radius` of
    /// `center` (inclusive boundary), unpadded. Periodic: every point
    /// with an image within `radius`, walking the images of `center`
    /// that can reach `[0, box_len)³`; past `radius == box_len / 2` a
    /// point may be reported once per image in reach.
    fn for_each_within<F: FnMut(u32)>(
        &self,
        center: Vec3,
        radius: f64,
        periodic: Option<f64>,
        f: &mut F,
    ) {
        let r2 = radius * radius;
        for_each_reachable_image(center, center, radius, periodic, &mut |c, _| {
            let c = to_array(c);
            self.walk(0, c, c, r2, &mut |start, end, whole| {
                for slot in start..end {
                    if whole || distance_sq(self.coords[slot as usize], c) <= r2 {
                        f(self.ids[slot as usize]);
                    }
                }
            });
        });
    }

    /// Count points within `radius` of `center` (open box, inclusive
    /// boundary) without reporting them — a subtree wholly inside the
    /// sphere counts as the length of its slot range, so the cost is
    /// proportional to the sphere *surface*, not its volume. Unpadded:
    /// an estimate, not a pair set (a point within an ulp of `radius`
    /// may land on either side).
    pub fn count_within(&self, center: Vec3, radius: f64) -> usize {
        let (c, r2) = (to_array(center), radius * radius);
        let mut count = 0;
        self.walk(0, c, c, r2, &mut |start, end, whole| {
            count += if whole {
                (end - start) as usize
            } else {
                (start..end)
                    .filter(|&slot| distance_sq(self.coords[slot as usize], c) <= r2)
                    .count()
            };
        });
        count
    }

    /// Every leaf in ascending slot order. Leaves partition the slot
    /// space, so this enumerates every point exactly once;
    /// block-traversal drivers use it to walk primaries one whole leaf
    /// at a time (paper §3.2's node-to-node formulation).
    pub fn collect_leaves(&self) -> Vec<LeafInfo> {
        // Nodes are stored in preorder with the left subtree first, so a
        // linear scan yields leaves in ascending `start` order.
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Leaf))
            .map(|n| LeafInfo {
                start: n.start,
                end: n.end,
                lo: Vec3::new(n.lo[0], n.lo[1], n.lo[2]),
                hi: Vec3::new(n.hi[0], n.hi[1], n.hi[2]),
            })
            .collect()
    }

    /// Node-to-node pruned walk (paper §3.2): visit contiguous slot
    /// ranges `(start, end)` that together cover **every** point within
    /// `rmax` (padded by [`KdTree::pad`]) of the axis-aligned box
    /// `[lo, hi]` — the query leaf's bounding box inflated by Rmax.
    /// Subtrees whose bounding box is farther than that from the query
    /// box are pruned via the box-to-box minimum distance; subtrees
    /// entirely within reach are emitted as one whole range without
    /// descending further.
    ///
    /// The union of emitted ranges is a *superset* of the exact result
    /// (whole leaves are emitted unfiltered); callers are expected to
    /// prefilter per point. Open walks emit disjoint ascending ranges.
    /// Periodic walks (`periodic` = box side) visit the images of the
    /// query box that can reach `[0, box_len)³`; the reach may exceed
    /// half the box, so ranges may **overlap across images** (within
    /// one image they are disjoint and ascending) and callers must
    /// deduplicate — e.g. by coalescing ranges — before treating slots
    /// as unique.
    pub fn for_each_within_of_aabb<F: FnMut(u32, u32)>(
        &self,
        lo: Vec3,
        hi: Vec3,
        rmax: f64,
        periodic: Option<f64>,
        f: &mut F,
    ) {
        let r = rmax + self.pad(rmax, periodic);
        let r2 = r * r;
        for_each_reachable_image(lo, hi, r, periodic, &mut |slo, shi| {
            let (qlo, qhi) = (to_array(slo), to_array(shi));
            self.walk(0, qlo, qhi, r2, &mut |start, end, _| f(start, end));
        });
    }

    /// The one pruned recursion of every query (the "marked" tree of
    /// paper §2.1): call `f(start, end, whole)` on disjoint ascending
    /// slot ranges that together hold every point within `√r2` of the
    /// box `[qlo, qhi]` (a point query is the box `[c, c]`). A subtree
    /// wholly within reach is one range with `whole = true`, accepted
    /// without a per-point test; a leaf that straddles the boundary
    /// comes with `whole = false` for the caller to filter.
    fn walk<F: FnMut(u32, u32, bool)>(
        &self,
        node: u32,
        qlo: [f64; 3],
        qhi: [f64; 3],
        r2: f64,
        f: &mut F,
    ) {
        // Only the root of an empty tree is missing.
        let Some(n) = self.nodes.get(node as usize) else {
            return;
        };
        if n.min_dist_sq_to_aabb(qlo, qhi) > r2 {
            return;
        }
        let whole = n.max_dist_sq_to_aabb(qlo, qhi) <= r2;
        match n.kind {
            NodeKind::Internal { left, right } if !whole => {
                self.walk(left, qlo, qhi, r2, f);
                self.walk(right, qlo, qhi, r2, f);
            }
            _ => f(n.start, n.end, whole),
        }
    }
}

/// Visit the box `[lo, hi]` itself (open, `periodic == None`) or each
/// of its 27 periodic images whose inflation by `radius` can reach
/// `[0, box_len]³`, passing the shifted corners (for a point query,
/// pass `lo == hi`). The open/periodic choice, the image enumeration
/// and the can-reach skip test live only here, so the point and box
/// queries always cover identical images.
fn for_each_reachable_image<F: FnMut(Vec3, Vec3)>(
    lo: Vec3,
    hi: Vec3,
    radius: f64,
    periodic: Option<f64>,
    f: &mut F,
) {
    let Some(box_len) = periodic else {
        return f(lo, hi);
    };
    for ix in -1i32..=1 {
        for iy in -1i32..=1 {
            for iz in -1i32..=1 {
                let shift = Vec3::new(
                    ix as f64 * box_len,
                    iy as f64 * box_len,
                    iz as f64 * box_len,
                );
                let slo = lo + shift;
                let shi = hi + shift;
                // Skip images whose inflated box cannot reach [0, L]³.
                if shi.x + radius < 0.0
                    || slo.x - radius > box_len
                    || shi.y + radius < 0.0
                    || slo.y - radius > box_len
                    || shi.z + radius < 0.0
                    || slo.z - radius > box_len
                {
                    continue;
                }
                f(slo, shi);
            }
        }
    }
}

/// `f64::{max, min}` without their NaN handling, which the hot loops
/// here do not need (`KdTree::build` rejects non-finite coordinates)
/// and should not pay for.
#[inline]
fn fmax(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

#[inline]
fn fmin(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

#[inline]
fn to_array(p: Vec3) -> [f64; 3] {
    [p.x, p.y, p.z]
}

/// Squared Euclidean distance, associated as `(dx² + dy²) + dz²`.
#[inline]
fn distance_sq(a: [f64; 3], b: [f64; 3]) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    let dz = a[2] - b[2];
    dx * dx + dy * dy + dz * dz
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForce;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn random_points(n: usize, box_len: f64, seed: u64) -> Vec<Vec3> {
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

    /// The padded gather, sorted.
    fn gather(tree: &KdTree, center: Vec3, rmax: f64, periodic: Option<f64>) -> Vec<u32> {
        let mut out = Vec::new();
        tree.gather_neighbors(center, rmax, periodic, &mut out);
        out.sort_unstable();
        out
    }

    /// The padded contract against a brute-force scan: the gather holds
    /// every point at `r ≤ rmax` (minimum image when periodic), each
    /// once, and nothing beyond `rmax + 2·pad`.
    fn assert_padded_superset(
        pts: &[Vec3],
        tree: &KdTree,
        c: Vec3,
        rmax: f64,
        periodic: Option<f64>,
    ) {
        let dist = |j: u32| match periodic {
            Some(l) => pts[j as usize].periodic_delta(c, l).norm(),
            None => pts[j as usize].distance(c),
        };
        let want: Vec<u32> = match periodic {
            None => BruteForce::new(pts).within(c, rmax),
            Some(_) => (0..pts.len() as u32).filter(|&j| dist(j) <= rmax).collect(),
        };
        let got = gather(tree, c, rmax, periodic);
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "a point gathered twice"
        );
        for j in &want {
            assert!(
                got.binary_search(j).is_ok(),
                "point {j} lost at rmax {rmax}"
            );
        }
        let reach = rmax + 2.0 * tree.pad(rmax, periodic);
        for &j in &got {
            assert!(dist(j) <= reach, "point {j} at {} beyond {reach}", dist(j));
        }
    }

    /// Median splits leave every leaf of a tree over more than
    /// `leaf_size` points at least half full and never over-full.
    fn assert_leaves_balanced(tree: &KdTree, n: usize, leaf_size: usize) {
        let leaves = tree.collect_leaves();
        assert_eq!(leaves.iter().map(LeafInfo::len).sum::<usize>(), n);
        for leaf in &leaves {
            assert!(leaf.len() <= leaf_size, "leaf of {}", leaf.len());
            assert!(2 * leaf.len() >= leaf_size, "leaf of {}", leaf.len());
        }
    }

    #[test]
    fn empty_tree() {
        let tree = KdTree::build([Vec3::ZERO; 0], TreeConfig::default());
        assert_eq!(gather(&tree, Vec3::ZERO, 10.0, None), Vec::<u32>::new());
        assert_eq!(tree.count_within(Vec3::ZERO, 10.0), 0);
    }

    #[test]
    fn single_point() {
        let tree = KdTree::build([Vec3::splat(1.0)], TreeConfig::default());
        assert_eq!(gather(&tree, Vec3::ZERO, 2.0, None), vec![0]);
        assert_eq!(gather(&tree, Vec3::ZERO, 1.0, None), Vec::<u32>::new());
        // boundary is inclusive
        assert_eq!(
            gather(&tree, Vec3::ZERO, 3f64.sqrt() + 1e-12, None),
            vec![0]
        );
    }

    #[test]
    fn matches_brute_force_f64() {
        let pts = random_points(500, 100.0, 7);
        let tree = KdTree::build(&pts, TreeConfig { leaf_size: 8 });
        let brute = BruteForce::new(&pts);
        for &c in pts.iter().step_by(37) {
            for radius in [0.0, 5.0, 20.0, 60.0, 200.0] {
                assert_padded_superset(&pts, &tree, c, radius, None);
                assert_eq!(tree.count_within(c, radius), brute.count_within(c, radius));
            }
        }
    }

    #[test]
    fn clustered_points_stay_balanced() {
        // A pathological distribution: two tight clusters far apart.
        let mut pts = random_points(256, 1.0, 3);
        pts.extend(
            random_points(256, 1.0, 4)
                .iter()
                .map(|p| *p + Vec3::splat(1000.0)),
        );
        let tree = KdTree::build(&pts, TreeConfig { leaf_size: 4 });
        assert_leaves_balanced(&tree, 512, 4);
    }

    #[test]
    fn duplicate_points_handled() {
        let pts = vec![Vec3::splat(5.0); 100];
        let tree = KdTree::build(&pts, TreeConfig { leaf_size: 8 });
        assert_eq!(gather(&tree, Vec3::splat(5.0), 0.1, None).len(), 100);
        assert_eq!(tree.count_within(Vec3::splat(5.0), 0.1), 100);
        // No degenerate split on duplicates.
        assert_leaves_balanced(&tree, 100, 8);
    }

    /// With more than one leaf the median split used to unwrap a `None`
    /// on the NaN; with one leaf the point passed silently.
    #[test]
    #[should_panic(expected = "point 57 is not finite")]
    fn non_finite_point_is_rejected_naming_it() {
        let mut pts = random_points(100, 10.0, 29);
        pts[57].y = f64::NAN;
        KdTree::build(&pts, TreeConfig::default());
    }

    /// Which point lands in which slot, hashed with FNV-1a over
    /// `id_at(slot)`, at leaf sizes 1, 4 and 32: on a uniform set, the
    /// same set with a tenth of its points duplicated, and a clustered
    /// set. Every traversal reads points in slot order, so the ζ bits
    /// follow it; a change to the build passes this unedited.
    #[test]
    fn slot_order_is_pinned() {
        let uniform = random_points(3000, 100.0, 2017);
        let mut duplicated = uniform.clone();
        duplicated.extend(uniform.iter().step_by(10).copied());
        let centers = random_points(30, 100.0, 2018);
        let offsets = random_points(3000, 4.0, 2019);
        let clustered: Vec<Vec3> = offsets
            .iter()
            .enumerate()
            .map(|(i, &d)| centers[i % centers.len()] + d)
            .collect();
        let mut got = Vec::new();
        for pts in [&uniform, &duplicated, &clustered] {
            for leaf_size in [1, 4, 32] {
                let tree = KdTree::build(pts, TreeConfig { leaf_size });
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for slot in 0..pts.len() as u32 {
                    for b in tree.id_at(slot).to_le_bytes() {
                        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                    }
                }
                got.push(h);
            }
        }
        let want = [
            0xff89_add2_818e_e3c9,
            0xeb04_a044_e028_0835,
            0x3e53_d4e1_25bf_b999,
            0xc16f_9c78_55b7_b565,
            0x782f_85b5_60d7_151d,
            0x3aab_b4f1_0dcb_17c1,
            0xd00e_07af_0908_7d39,
            0x9be1_01ca_ac75_2741,
            0x7ae0_f998_dfe2_65c1,
        ];
        assert_eq!(got, want, "the slot order moved");
    }

    #[test]
    fn periodic_query_finds_wrapped_neighbors() {
        let box_len = 100.0;
        let pts = vec![
            Vec3::new(1.0, 50.0, 50.0),
            Vec3::new(99.0, 50.0, 50.0),
            Vec3::new(50.0, 50.0, 50.0),
        ];
        let tree = KdTree::build(&pts, TreeConfig::default());
        // Non-periodic: point 1 is 98 away from point 0.
        assert_eq!(gather(&tree, pts[0], 10.0, None), vec![0]); // itself
                                                                // Periodic: minimum-image distance is 2.
        assert_eq!(gather(&tree, pts[0], 10.0, Some(box_len)), vec![0, 1]);
    }

    #[test]
    fn periodic_matches_brute_minimum_image() {
        let box_len = 20.0;
        let pts = random_points(300, box_len, 23);
        let tree = KdTree::build(&pts, TreeConfig { leaf_size: 8 });
        for &c in pts.iter().step_by(29) {
            for radius in [6.0, 10.0] {
                assert_padded_superset(&pts, &tree, c, radius, Some(box_len));
            }
        }
    }

    /// Why the searches pad: through the periodic seam the query center
    /// is shifted by a whole box length and rounds, so the bare search
    /// at `rmax` loses points a brute-force minimum-image scan puts
    /// within it (points within 2 ulp of `rmax` at `|coord| ≈ 4096`).
    /// The padded gather loses none.
    #[test]
    fn bare_periodic_search_loses_seam_points() {
        let (rmax, box_len) = (5.0, 8192.0);
        let ulp = f64::EPSILON * 4096.0;
        let center = Vec3::new(8191.9, 4100.7, 0.2);
        let mut pts = vec![center];
        for i in 0..400 {
            let (t, p) = (0.37 * i as f64, 0.61 * i as f64);
            let dir = Vec3::new(t.sin() * p.cos(), t.sin() * p.sin(), t.cos());
            let q = center + dir * (rmax + ulp * (i % 5 - 2) as f64);
            pts.push(Vec3::new(
                q.x.rem_euclid(box_len),
                q.y.rem_euclid(box_len),
                q.z.rem_euclid(box_len),
            ));
        }
        let want: Vec<u32> = (0..pts.len() as u32)
            .filter(|&j| pts[j as usize].periodic_delta(center, box_len).norm() <= rmax)
            .collect();
        assert!(want.len() > 100 && want.len() < pts.len());

        let tree = KdTree::build(&pts, TreeConfig::default());
        let mut bare = Vec::new();
        tree.for_each_within(center, rmax, Some(box_len), &mut |id| bare.push(id));
        let lost = want.iter().filter(|j| !bare.contains(j)).count();
        assert!(lost > 0, "the bare seam search lost nothing");
        assert_padded_superset(&pts, &tree, center, rmax, Some(box_len));
    }

    #[test]
    fn leaves_partition_slot_space() {
        let pts = random_points(777, 30.0, 13);
        let tree = KdTree::build(&pts, TreeConfig { leaf_size: 16 });
        let leaves = tree.collect_leaves();
        // Ascending, contiguous, covering 0..len exactly once.
        let mut next = 0u32;
        let mut seen = vec![false; pts.len()];
        for leaf in &leaves {
            assert_eq!(leaf.start, next, "leaves must tile the slot space");
            assert!(!leaf.is_empty() && leaf.len() <= 16);
            for slot in leaf.start..leaf.end {
                let id = tree.id_at(slot) as usize;
                assert!(!seen[id], "point {id} in two leaves");
                seen[id] = true;
                // Every point sits inside its leaf bbox and radius.
                let p = pts[id];
                assert!(p.x >= leaf.lo.x && p.x <= leaf.hi.x);
                assert!(p.y >= leaf.lo.y && p.y <= leaf.hi.y);
                assert!(p.z >= leaf.lo.z && p.z <= leaf.hi.z);
                assert!(p.distance(leaf.center()) <= leaf.radius() + 1e-12);
            }
            next = leaf.end;
        }
        assert_eq!(next as usize, pts.len());
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn aabb_walk_covers_brute_force_union() {
        // Every point within `r` of ANY point in the query box must be
        // covered by some emitted range (superset semantics).
        let pts = random_points(600, 50.0, 17);
        let tree = KdTree::build(&pts, TreeConfig { leaf_size: 8 });
        for (qlo, qhi, r) in [
            (
                Vec3::new(10.0, 10.0, 10.0),
                Vec3::new(14.0, 12.0, 16.0),
                6.0,
            ),
            (Vec3::new(0.0, 0.0, 0.0), Vec3::new(50.0, 50.0, 50.0), 1.0),
            (
                Vec3::new(48.0, 48.0, 48.0),
                Vec3::new(49.0, 49.0, 49.0),
                3.0,
            ),
            (
                Vec3::new(-20.0, -20.0, -20.0),
                Vec3::new(-10.0, -10.0, -10.0),
                4.0,
            ),
            // A point query is the degenerate box `[c, c]`.
            (pts[42], pts[42], 5.0),
        ] {
            let mut covered = vec![false; pts.len()];
            let mut last_end = 0u32;
            tree.for_each_within_of_aabb(qlo, qhi, r, None, &mut |start, end| {
                assert!(start >= last_end, "ranges must be disjoint ascending");
                last_end = end;
                for slot in start..end {
                    covered[tree.id_at(slot) as usize] = true;
                }
            });
            for (i, &p) in pts.iter().enumerate() {
                // Distance from p to the query box.
                let dx = (qlo.x - p.x).max(p.x - qhi.x).max(0.0);
                let dy = (qlo.y - p.y).max(p.y - qhi.y).max(0.0);
                let dz = (qlo.z - p.z).max(p.z - qhi.z).max(0.0);
                let d2 = dx * dx + dy * dy + dz * dz;
                if d2 <= r * r {
                    assert!(covered[i], "point {i} within {r} of box but not covered");
                }
                // Pruning sanity: points far outside reach are dropped
                // (allowing leaf-granularity over-coverage).
                if !covered[i] {
                    assert!(d2 > r * r, "covered set must be a superset only");
                }
            }
            if qlo == qhi {
                for id in gather(&tree, qlo, r, None) {
                    assert!(covered[id as usize], "gathered point {id} not covered");
                }
            }
        }
    }

    #[test]
    fn aabb_walk_periodic_covers_minimum_image_union() {
        let box_len = 20.0;
        let pts = random_points(400, box_len, 19);
        let tree = KdTree::build(&pts, TreeConfig { leaf_size: 8 });
        let r = 4.0;
        let seam = Vec3::new(19.8, 0.3, 10.0);
        for (qlo, qhi) in [
            (Vec3::new(0.5, 17.0, 9.0), Vec3::new(2.5, 19.5, 11.0)),
            // A point query is the degenerate box `[c, c]`.
            (seam, seam),
        ] {
            let mut covered = vec![false; pts.len()];
            tree.for_each_within_of_aabb(qlo, qhi, r, Some(box_len), &mut |start, end| {
                for slot in start..end {
                    covered[tree.id_at(slot) as usize] = true;
                }
            });
            // Brute force: min over the 27 images of the query box.
            for (i, &p) in pts.iter().enumerate() {
                let mut best = f64::INFINITY;
                for ix in -1i32..=1 {
                    for iy in -1i32..=1 {
                        for iz in -1i32..=1 {
                            let s = Vec3::new(
                                ix as f64 * box_len,
                                iy as f64 * box_len,
                                iz as f64 * box_len,
                            );
                            let dx = (qlo.x + s.x - p.x).max(p.x - (qhi.x + s.x)).max(0.0);
                            let dy = (qlo.y + s.y - p.y).max(p.y - (qhi.y + s.y)).max(0.0);
                            let dz = (qlo.z + s.z - p.z).max(p.z - (qhi.z + s.z)).max(0.0);
                            best = best.min(dx * dx + dy * dy + dz * dz);
                        }
                    }
                }
                if best <= r * r {
                    assert!(covered[i], "point {i} within periodic reach but missed");
                }
            }
            if qlo == qhi {
                for id in gather(&tree, qlo, r, Some(box_len)) {
                    assert!(covered[id as usize], "gathered point {id} not covered");
                }
            }
        }
    }

    #[test]
    fn aabb_walk_on_empty_tree_is_silent() {
        let tree = KdTree::build([Vec3::ZERO; 0], TreeConfig::default());
        assert!(tree.collect_leaves().is_empty());
        for periodic in [None, Some(10.0)] {
            tree.for_each_within_of_aabb(
                Vec3::ZERO,
                Vec3::splat(1.0),
                5.0,
                periodic,
                &mut |_, _| panic!("no ranges expected"),
            );
        }
    }
}
