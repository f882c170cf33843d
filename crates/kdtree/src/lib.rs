//! Balanced k-d tree for fixed-radius neighbor search over galaxy
//! positions.
//!
//! The Galactos algorithm spends its outer loop gathering, for each
//! *primary* galaxy, all *secondaries* within `Rmax` (200 Mpc/h in the
//! paper). This crate provides the node-local spatial index used for that
//! gather:
//!
//! * a **median-split balanced k-d tree** built over an arbitrary point
//!   set, with points reordered into contiguous leaf storage for cache
//!   locality: the build partitions one vector of (point, id) pairs in
//!   place, node by node, and rejects a non-finite coordinate with a
//!   panic naming the point;
//! * **"marked" nodes** carrying their contiguous slot range and
//!   bounding box — the enhancement of Gray & Moore / March (paper
//!   §2.1) that lets whole subtrees be accepted (no per-point distance
//!   tests) when their bounding box lies within reach of the query, and
//!   lets counting queries count a subtree by its range length without
//!   touching its points;
//! * **one pruned walk** under every query: it takes a query box
//!   `[lo, hi]` (a point is the box `[c, c]`), prunes subtrees by their
//!   box-to-box distance and reports slot ranges, each marked whole or
//!   straddling the boundary. The gather and the count filter the
//!   straddling ranges point by point; the block query passes them on;
//! * **`f64` throughout**: coordinates, boxes and distances. (The
//!   paper searches in `f32`, §5.4; here an `f32` tree measured no
//!   faster on any workload);
//! * **padded queries**: a query still rounds, so a point within an ulp
//!   of the radius could land on either side. Both searches therefore
//!   pad the radius by a written bound on that error and on the
//!   periodic image shifts ([`KdTree::pad`]) and return a superset of
//!   the points within it: every point a caller's own `f64` arithmetic
//!   puts at `r ≤ rmax` is proposed, and the caller's membership test
//!   (`galactos-core`'s `RadialBins::bin_of`) drops the few extras.
//!   Every pair loop of the workspace searches through them;
//! * a per-point **gather** ([`KdTree::gather_neighbors`]), open or
//!   periodic (minimum image, each point once even past half the box),
//!   and an unpadded **counting query** ([`KdTree::count_within`]) for
//!   work estimates — fixed-radius only: the algorithm never asks for
//!   the k nearest;
//! * **node-to-node block queries** (paper §3.2): leaf enumeration
//!   ([`KdTree::collect_leaves`]) and the same walk over a query
//!   bounding box, reporting contiguous slot *ranges* within its reach
//!   ([`KdTree::for_each_within_of_aabb`]), so a caller can gather the
//!   candidate secondaries of an entire leaf of primaries at once;
//! * a brute-force reference searcher, the range-query oracle of the
//!   tests.

#![forbid(unsafe_code)]

pub mod brute;
pub mod tree;

pub use brute::BruteForce;
pub use tree::{KdTree, LeafInfo, TreeConfig};
