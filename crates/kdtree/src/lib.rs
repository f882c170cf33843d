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
//!   locality;
//! * **"marked" nodes** carrying cached point counts and bounding boxes —
//!   the enhancement of Gray & Moore / March (paper §2.1) that lets whole
//!   subtrees be accepted (no per-point distance tests) when their
//!   bounding box lies inside the query sphere, and lets counting queries
//!   run without touching points at all;
//! * **`f64` throughout**: coordinates, boxes and distances. (The
//!   paper searches in `f32`, §5.4; here an `f32` tree measured no
//!   faster on any workload.) A query still rounds, so a point within
//!   an ulp of the radius may land on either side: a caller that needs
//!   *every* point within `r` pads the radius by a bound on that error
//!   ([`KdTree::max_abs_coord`] is the scale it needs) and decides
//!   membership itself, as `galactos-core`'s traversal does;
//! * sphere **range queries** (visitor and collecting forms), **counting
//!   queries** and **periodic-box** variants — fixed-radius only: the
//!   algorithm never asks for the k nearest;
//! * **node-to-node block queries** (paper §3.2): leaf enumeration
//!   ([`KdTree::for_each_leaf`]) and a pruned walk that reports whole
//!   contiguous slot *ranges* within reach of a query bounding box
//!   ([`KdTree::for_each_within_of_aabb`]), so a caller can gather the
//!   candidate secondaries of an entire leaf of primaries at once;
//! * a brute-force reference searcher, the range-query oracle of the
//!   tests.

#![forbid(unsafe_code)]

pub mod brute;
pub mod tree;

pub use brute::BruteForce;
pub use tree::{KdTree, LeafInfo, TreeConfig, TreeStats};
