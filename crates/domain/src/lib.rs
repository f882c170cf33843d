//! Distributed domain decomposition for Galactos (paper §3.2).
//!
//! Four modules:
//!
//! * [`partition`] — the **plan**: a deterministic recursive k-d
//!   decomposition of space over an arbitrary (non-power-of-two) number
//!   of ranks. Each level splits the rank group into two nearly equal
//!   halves (within a factor of 2) and splits the galaxies *in
//!   proportion to the halves' sizes* — the modification that let the
//!   paper use all 9636 Cori nodes instead of being limited to 8192.
//!   That split step lives here and nowhere else. The plan also
//!   computes ground-truth halo (ghost) sets and load metrics without
//!   any message passing, which is how the scaling benchmarks evaluate
//!   thousands of simulated ranks cheaply.
//!
//! * [`exchange`] — the paper's **halo exchange**: the same
//!   decomposition carried out with real message passing over
//!   `galactos-cluster`: a recursive scatter of galaxies down the
//!   partition tree followed by the paper's tree-following halo
//!   exchange ("for each branch of the tree, a process gathers galaxies
//!   within the cutoff radius from the partition boundary, and sends
//!   copies of these particles to a peer on the opposite
//!   sub-communicator"). Tests verify the executed exchange reproduces
//!   the plan's ground truth exactly, and the benchmark times it and
//!   meters its traffic.
//!
//! * [`shard`] — **how a distributed run gets its galaxies**: writing
//!   GCAT v2 shards aligned with the same recursive bisection, and
//!   [`shard::distribute_from_shards`], which gives each rank its owned
//!   galaxies and ghosts — the same sets the exchange delivers — by
//!   reading only its own shards plus the neighbor shards intersecting
//!   its `rmax` halo. No rank ever holds the full catalog, and no rank 0
//!   scatters it.
//!
//! * [`load`] — primary counts and primary×secondary pair counts per
//!   rank, the quantities whose variance explains the paper's strong-
//!   scaling deviation (60% pair-count variation, §5.3) and weak-scaling
//!   flatness (<10% variation, §5.2).

#![forbid(unsafe_code)]

pub mod exchange;
pub mod load;
pub mod partition;
pub mod shard;

pub use exchange::{distribute, RankData, TaggedGalaxy};
pub use load::{pair_counts, LoadBalance};
pub use partition::DomainPlan;
pub use shard::{
    distribute_from_shards, distribute_shard_range, shard_range_for_rank, ShardRankData,
};
