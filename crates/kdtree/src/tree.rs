//! The balanced k-d tree: construction and sphere queries.

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
    #[inline]
    fn count(&self) -> u32 {
        self.end - self.start
    }

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

    /// Squared distance from `p` to the nearest point of the bbox.
    #[inline]
    fn min_dist_sq(&self, p: [f64; 3]) -> f64 {
        let mut acc = 0.0;
        for ((&v, &lo), &hi) in p.iter().zip(&self.lo).zip(&self.hi) {
            let d = if v < lo {
                lo - v
            } else if v > hi {
                v - hi
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }

    /// Squared distance from `p` to the farthest corner of the bbox.
    #[inline]
    fn max_dist_sq(&self, p: [f64; 3]) -> f64 {
        let mut acc = 0.0;
        for ((&v, &lo), &hi) in p.iter().zip(&self.lo).zip(&self.hi) {
            let a = if v > lo { v - lo } else { lo - v };
            let b = if v > hi { v - hi } else { hi - v };
            let d = fmax(a, b);
            acc += d * d;
        }
        acc
    }
}

/// One leaf of the tree as seen by block-traversal callers: the
/// contiguous range of reordered point *slots* it owns and its tight
/// bounding box.
///
/// Slots index the tree's leaf-contiguous storage; map a slot back to
/// the original point with [`KdTree::id_at`]. Leaves partition
/// `0..len()` exactly, so iterating leaves visits every point once.
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

/// Summary statistics of a built tree (the "marked" metadata made
/// visible; also used by the runtime-breakdown benchmark).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TreeStats {
    pub num_points: usize,
    pub num_nodes: usize,
    pub num_leaves: usize,
    pub max_depth: usize,
    pub mean_leaf_size: f64,
}

/// A balanced k-d tree over 3-D `f64` points.
///
/// Points are reordered into contiguous per-leaf storage at build time;
/// every query reports *original* point indices (`u32`).
#[derive(Clone, Debug)]
pub struct KdTree {
    nodes: Vec<Node>,
    coords: Vec<[f64; 3]>,
    ids: Vec<u32>,
    leaf_size: usize,
    max_depth: usize,
}

impl KdTree {
    /// Build a tree over `points`.
    pub fn build(points: &[Vec3], config: TreeConfig) -> Self {
        assert!(config.leaf_size >= 1, "leaf_size must be >= 1");
        assert!(
            points.len() < u32::MAX as usize,
            "point count exceeds u32 index space"
        );
        let mut coords: Vec<[f64; 3]> = points.iter().map(|&p| to_array(p)).collect();
        let mut ids: Vec<u32> = (0..points.len() as u32).collect();
        let mut tree = KdTree {
            nodes: Vec::new(),
            coords: Vec::new(),
            ids: Vec::new(),
            leaf_size: config.leaf_size,
            max_depth: 0,
        };
        if !points.is_empty() {
            tree.nodes.reserve(2 * points.len() / config.leaf_size + 2);
            tree.build_node(&mut coords, &mut ids, 0, points.len(), 1);
        }
        tree.coords = coords;
        tree.ids = ids;
        tree
    }

    /// Recursively build the subtree over `coords[start..end]`, returning
    /// its node index.
    fn build_node(
        &mut self,
        coords: &mut [[f64; 3]],
        ids: &mut [u32],
        start: usize,
        end: usize,
        depth: usize,
    ) -> u32 {
        self.max_depth = self.max_depth.max(depth);
        let slice = &coords[start..end];
        let mut lo = [f64::MAX; 3];
        let mut hi = [f64::MIN; 3];
        for p in slice {
            for ax in 0..3 {
                lo[ax] = fmin(lo[ax], p[ax]);
                hi[ax] = fmax(hi[ax], p[ax]);
            }
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node {
            lo,
            hi,
            start: start as u32,
            end: end as u32,
            kind: NodeKind::Leaf,
        });
        if end - start <= self.leaf_size {
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
        let mid = (end - start) / 2;
        // Partition points and carry ids along by sorting index pairs.
        {
            let seg_coords = &mut coords[start..end];
            let seg_ids = &mut ids[start..end];
            // select_nth over a permutation to keep the two arrays in sync
            let mut perm: Vec<u32> = (0..seg_coords.len() as u32).collect();
            perm.select_nth_unstable_by(mid, |&a, &b| {
                seg_coords[a as usize][axis]
                    .partial_cmp(&seg_coords[b as usize][axis])
                    .unwrap()
            });
            apply_permutation(seg_coords, seg_ids, &perm);
        }
        let left = self.build_node(coords, ids, start, start + mid, depth + 1);
        let right = self.build_node(coords, ids, start + mid, end, depth + 1);
        self.nodes[idx as usize].kind = NodeKind::Internal { left, right };
        idx
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Largest `|coordinate|` over all points (0 for an empty tree),
    /// read off the root bounding box. The rounding error of any
    /// distance this tree evaluates scales with it, which is what a
    /// caller padding a query radius needs to know.
    pub fn max_abs_coord(&self) -> f64 {
        self.nodes.first().map_or(0.0, |root| {
            let corners = root.lo.iter().chain(&root.hi);
            corners.fold(0.0, |m, v| m.max(v.abs()))
        })
    }

    /// Original index of the point in reordered slot `slot`.
    #[inline]
    pub fn id_at(&self, slot: usize) -> u32 {
        self.ids[slot]
    }

    pub fn stats(&self) -> TreeStats {
        let num_leaves = self
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Leaf))
            .count();
        TreeStats {
            num_points: self.ids.len(),
            num_nodes: self.nodes.len(),
            num_leaves,
            max_depth: self.max_depth,
            mean_leaf_size: if num_leaves == 0 {
                0.0
            } else {
                self.ids.len() as f64 / num_leaves as f64
            },
        }
    }

    /// Visit the original index of every point within `radius` of
    /// `center` (inclusive boundary).
    pub fn for_each_within<F: FnMut(u32)>(&self, center: Vec3, radius: f64, f: &mut F) {
        if self.nodes.is_empty() {
            return;
        }
        self.range_rec(0, to_array(center), radius * radius, f);
    }

    fn range_rec<F: FnMut(u32)>(&self, node: u32, c: [f64; 3], r2: f64, f: &mut F) {
        let n = &self.nodes[node as usize];
        if n.min_dist_sq(c) > r2 {
            return;
        }
        // Marked-tree fast path: the whole subtree is inside the sphere.
        if n.max_dist_sq(c) <= r2 {
            for slot in n.start..n.end {
                f(self.ids[slot as usize]);
            }
            return;
        }
        match n.kind {
            NodeKind::Leaf => {
                for slot in n.start..n.end {
                    if distance_sq(self.coords[slot as usize], c) <= r2 {
                        f(self.ids[slot as usize]);
                    }
                }
            }
            NodeKind::Internal { left, right } => {
                self.range_rec(left, c, r2, f);
                self.range_rec(right, c, r2, f);
            }
        }
    }

    /// Collect all original indices within `radius` of `center`.
    pub fn within(&self, center: Vec3, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_within(center, radius, &mut |id| out.push(id));
        out
    }

    /// Count points within `radius` of `center` without reporting them —
    /// uses cached subtree counts on fully-contained nodes, so the cost
    /// is proportional to the sphere *surface*, not its volume.
    pub fn count_within(&self, center: Vec3, radius: f64) -> usize {
        if self.nodes.is_empty() {
            return 0;
        }
        self.count_rec(0, to_array(center), radius * radius)
    }

    fn count_rec(&self, node: u32, c: [f64; 3], r2: f64) -> usize {
        let n = &self.nodes[node as usize];
        if n.min_dist_sq(c) > r2 {
            return 0;
        }
        if n.max_dist_sq(c) <= r2 {
            return n.count() as usize;
        }
        match n.kind {
            NodeKind::Leaf => (n.start..n.end)
                .filter(|&slot| distance_sq(self.coords[slot as usize], c) <= r2)
                .count(),
            NodeKind::Internal { left, right } => {
                self.count_rec(left, c, r2) + self.count_rec(right, c, r2)
            }
        }
    }

    /// Periodic-box range query: visits every point with a periodic
    /// image within `radius` of `center`. Up to `radius == box_len / 2`
    /// that is the minimum image and each point is reported at most
    /// once; past it a point may be reported once per image in reach,
    /// and callers deduplicate (the contract of the box-query sibling,
    /// [`KdTree::for_each_within_of_aabb_periodic`]).
    pub fn for_each_within_periodic<F: FnMut(u32)>(
        &self,
        center: Vec3,
        radius: f64,
        box_len: f64,
        f: &mut F,
    ) {
        // Query the 27 images of the center whose sphere can reach [0, L)^3.
        for_each_reachable_image(center, center, radius, box_len, &mut |slo, _shi| {
            self.for_each_within(slo, radius, f)
        });
    }

    /// Visit every leaf in ascending slot order. Leaves partition the
    /// slot space `0..len()`, so this enumerates every point exactly
    /// once; block-traversal drivers use it to walk primaries one whole
    /// leaf at a time (paper §3.2's node-to-node formulation).
    pub fn for_each_leaf<F: FnMut(LeafInfo)>(&self, f: &mut F) {
        // Nodes are stored in preorder with the left subtree first, so a
        // linear scan yields leaves in ascending `start` order.
        for n in &self.nodes {
            if matches!(n.kind, NodeKind::Leaf) {
                f(LeafInfo {
                    start: n.start,
                    end: n.end,
                    lo: Vec3::new(n.lo[0], n.lo[1], n.lo[2]),
                    hi: Vec3::new(n.hi[0], n.hi[1], n.hi[2]),
                });
            }
        }
    }

    /// Collect every leaf (ascending slot order) into a vector.
    pub fn collect_leaves(&self) -> Vec<LeafInfo> {
        let mut out = Vec::new();
        self.for_each_leaf(&mut |leaf| out.push(leaf));
        out
    }

    /// Node-to-node pruned walk (paper §3.2): visit contiguous slot
    /// ranges `(start, end)` that together cover **every** point within
    /// `radius` of the axis-aligned box `[lo, hi]` — the query leaf's
    /// bounding box inflated by Rmax. Subtrees whose bounding box is
    /// farther than `radius` from the query box are pruned via the
    /// box-to-box minimum distance; subtrees entirely within `radius`
    /// are emitted as one whole range without descending further.
    ///
    /// The union of emitted ranges is a *superset* of the exact result
    /// (whole leaves are emitted unfiltered); callers are expected to
    /// prefilter per point. Ranges are disjoint and ascending.
    pub fn for_each_within_of_aabb<F: FnMut(u32, u32)>(
        &self,
        lo: Vec3,
        hi: Vec3,
        radius: f64,
        f: &mut F,
    ) {
        if self.nodes.is_empty() {
            return;
        }
        self.aabb_rec(0, to_array(lo), to_array(hi), radius * radius, f);
    }

    fn aabb_rec<F: FnMut(u32, u32)>(
        &self,
        node: u32,
        qlo: [f64; 3],
        qhi: [f64; 3],
        r2: f64,
        f: &mut F,
    ) {
        let n = &self.nodes[node as usize];
        if n.min_dist_sq_to_aabb(qlo, qhi) > r2 {
            return;
        }
        // Marked-tree fast path: the whole subtree is within reach of
        // the query box — emit its range without descending.
        if n.max_dist_sq_to_aabb(qlo, qhi) <= r2 {
            f(n.start, n.end);
            return;
        }
        match n.kind {
            NodeKind::Leaf => f(n.start, n.end),
            NodeKind::Internal { left, right } => {
                self.aabb_rec(left, qlo, qhi, r2, f);
                self.aabb_rec(right, qlo, qhi, r2, f);
            }
        }
    }

    /// Periodic variant of [`KdTree::for_each_within_of_aabb`]: covers
    /// every point whose *minimum-image* distance to the box `[lo, hi]`
    /// is within `radius`, by walking the images of the query box that
    /// can reach `[0, box_len)³`.
    ///
    /// Unlike the per-point periodic query, the effective reach
    /// (`radius` + query-box diagonal) may exceed half the box, so the
    /// same point can be covered through more than one image: emitted
    /// ranges may **overlap across images** (within one image they are
    /// disjoint and ascending). Callers must deduplicate — e.g. by
    /// coalescing ranges — before treating slots as unique.
    pub fn for_each_within_of_aabb_periodic<F: FnMut(u32, u32)>(
        &self,
        lo: Vec3,
        hi: Vec3,
        radius: f64,
        box_len: f64,
        f: &mut F,
    ) {
        for_each_reachable_image(lo, hi, radius, box_len, &mut |slo, shi| {
            self.for_each_within_of_aabb(slo, shi, radius, f)
        });
    }
}

/// Visit each of the 27 periodic images of the box `[lo, hi]` whose
/// inflation by `radius` can reach `[0, box_len]³`, passing the shifted
/// corners (for a point query, pass `lo == hi`). The image enumeration
/// and the can-reach skip test live only here, shared by the per-point
/// and box-query periodic walks so both traversal modes always cover
/// identical images.
fn for_each_reachable_image<F: FnMut(Vec3, Vec3)>(
    lo: Vec3,
    hi: Vec3,
    radius: f64,
    box_len: f64,
    f: &mut F,
) {
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
/// here do not need (coordinates are finite) and should not pay for.
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

/// Apply permutation `perm` (values are indices into the segment) to both
/// arrays simultaneously, using scratch buffers.
fn apply_permutation(coords: &mut [[f64; 3]], ids: &mut [u32], perm: &[u32]) {
    let tmp_coords: Vec<[f64; 3]> = perm.iter().map(|&i| coords[i as usize]).collect();
    let tmp_ids: Vec<u32> = perm.iter().map(|&i| ids[i as usize]).collect();
    coords.copy_from_slice(&tmp_coords);
    ids.copy_from_slice(&tmp_ids);
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

    #[test]
    fn empty_tree() {
        let tree = KdTree::build(&[], TreeConfig::default());
        assert!(tree.is_empty());
        assert_eq!(tree.within(Vec3::ZERO, 10.0), Vec::<u32>::new());
        assert_eq!(tree.count_within(Vec3::ZERO, 10.0), 0);
    }

    #[test]
    fn single_point() {
        let tree = KdTree::build(&[Vec3::splat(1.0)], TreeConfig::default());
        assert_eq!(tree.within(Vec3::ZERO, 2.0), vec![0]);
        assert_eq!(tree.within(Vec3::ZERO, 1.0), Vec::<u32>::new());
        // boundary is inclusive
        assert_eq!(tree.within(Vec3::ZERO, 3f64.sqrt() + 1e-12), vec![0]);
    }

    #[test]
    fn matches_brute_force_f64() {
        let pts = random_points(500, 100.0, 7);
        let tree = KdTree::build(&pts, TreeConfig { leaf_size: 8 });
        let brute = BruteForce::new(&pts);
        for (i, &c) in pts.iter().enumerate().step_by(37) {
            for radius in [0.0, 5.0, 20.0, 60.0, 200.0] {
                let mut got = tree.within(c, radius);
                let mut want = brute.within(c, radius);
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "center {i} radius {radius}");
                assert_eq!(tree.count_within(c, radius), want.len());
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
        let stats = tree.stats();
        // Balanced median split: depth ≈ log2(512/4) + 1 = 8, allow slack.
        assert!(stats.max_depth <= 10, "depth {}", stats.max_depth);
        assert_eq!(stats.num_points, 512);
    }

    #[test]
    fn duplicate_points_handled() {
        let pts = vec![Vec3::splat(5.0); 100];
        let tree = KdTree::build(&pts, TreeConfig { leaf_size: 8 });
        assert_eq!(tree.within(Vec3::splat(5.0), 0.1).len(), 100);
        assert_eq!(tree.count_within(Vec3::splat(5.0), 0.1), 100);
        assert!(
            tree.stats().max_depth < 30,
            "no infinite split on duplicates"
        );
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
        assert_eq!(tree.within(pts[0], 10.0).len(), 1); // itself
                                                        // Periodic: minimum-image distance is 2.
        let mut found = Vec::new();
        tree.for_each_within_periodic(pts[0], 10.0, box_len, &mut |id| found.push(id));
        found.sort_unstable();
        assert_eq!(found, vec![0, 1]);
    }

    #[test]
    fn periodic_matches_brute_minimum_image() {
        let box_len = 20.0;
        let pts = random_points(300, box_len, 23);
        let tree = KdTree::build(&pts, TreeConfig { leaf_size: 8 });
        for &c in pts.iter().step_by(29) {
            let radius = 6.0;
            let mut got = Vec::new();
            tree.for_each_within_periodic(c, radius, box_len, &mut |id| got.push(id));
            got.sort_unstable();
            let mut want: Vec<u32> = (0..pts.len() as u32)
                .filter(|&i| pts[i as usize].periodic_delta(c, box_len).norm() <= radius)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn leaves_partition_slot_space() {
        let pts = random_points(777, 30.0, 13);
        let tree = KdTree::build(&pts, TreeConfig { leaf_size: 16 });
        let leaves = tree.collect_leaves();
        assert_eq!(leaves.len(), tree.stats().num_leaves);
        // Ascending, contiguous, covering 0..len exactly once.
        let mut next = 0u32;
        let mut seen = vec![false; pts.len()];
        for leaf in &leaves {
            assert_eq!(leaf.start, next, "leaves must tile the slot space");
            assert!(leaf.len() >= 1 && leaf.len() <= 16);
            for slot in leaf.start..leaf.end {
                let id = tree.id_at(slot as usize) as usize;
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
        ] {
            let mut covered = vec![false; pts.len()];
            let mut last_end = 0u32;
            tree.for_each_within_of_aabb(qlo, qhi, r, &mut |start, end| {
                assert!(start >= last_end, "ranges must be disjoint ascending");
                last_end = end;
                for slot in start..end {
                    covered[tree.id_at(slot as usize) as usize] = true;
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
        }
    }

    #[test]
    fn aabb_walk_periodic_covers_minimum_image_union() {
        let box_len = 20.0;
        let pts = random_points(400, box_len, 19);
        let tree = KdTree::build(&pts, TreeConfig { leaf_size: 8 });
        let qlo = Vec3::new(0.5, 17.0, 9.0);
        let qhi = Vec3::new(2.5, 19.5, 11.0);
        let r = 4.0;
        let mut covered = vec![false; pts.len()];
        tree.for_each_within_of_aabb_periodic(qlo, qhi, r, box_len, &mut |start, end| {
            for slot in start..end {
                covered[tree.id_at(slot as usize) as usize] = true;
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
    }

    #[test]
    fn aabb_walk_on_empty_tree_is_silent() {
        let tree = KdTree::build(&[], TreeConfig::default());
        assert!(tree.collect_leaves().is_empty());
        tree.for_each_within_of_aabb(Vec3::ZERO, Vec3::splat(1.0), 5.0, &mut |_, _| {
            panic!("no ranges expected")
        });
    }

    #[test]
    fn stats_are_consistent() {
        let pts = random_points(1000, 10.0, 5);
        let tree = KdTree::build(&pts, TreeConfig { leaf_size: 16 });
        let s = tree.stats();
        assert_eq!(s.num_points, 1000);
        assert!(s.num_leaves >= 1000 / 16);
        assert!(s.mean_leaf_size <= 16.0);
        assert!(s.num_nodes >= 2 * s.num_leaves - 1);
    }
}
