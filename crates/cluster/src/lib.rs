//! An in-memory, MPI-like cluster simulator.
//!
//! Galactos' multi-node layer (paper §3.2) needs point-to-point sends
//! between ranks (the halo exchange follows the k-d partition tree,
//! exchanging boundary galaxies with a peer on the opposite
//! sub-communicator), communicator **splitting** into sub-communicators
//! of nearly equal size, and a broadcast of each level's split plane.
//! This crate implements those over in-process threads and channels
//! (the final reduction of the multipole arrays sums the partials the
//! ranks return, in `galactos_core::pipeline`):
//!
//! * every rank runs as an OS thread inside [`run_cluster`];
//! * [`Comm`] provides `send`/`recv` (typed, tag-matched), `split` and
//!   `broadcast`;
//! * all traffic is metered ([`TrafficStats`]) so benchmarks can report
//!   halo-exchange volumes — the quantity that stays *constant per rank*
//!   under weak scaling and explains the paper's flat Figure 6.
//!
//! The simulator trades absolute latency realism for full fidelity of
//! the communication *pattern*: any deadlock, mismatched tag or wrong
//! peer in the algorithm shows up here exactly as it would on a real
//! machine.
//!
//! The [`fault`] module is a deterministic failure model: [`FaultPlan`]s
//! that kill chosen ranks on entering a named phase, and the
//! [`RankFailure`] a caught rank panic is classified into. Supervision —
//! catching the panic, retrying, reassigning the lost work — lives in
//! `galactos_core::pipeline` only.

#![forbid(unsafe_code)]

pub mod comm;
pub mod fault;
pub mod payload;
pub mod stats;

pub use comm::{run_cluster, Comm, RecvError, RecvErrorKind};
pub use fault::{FailureCause, FaultHarness, FaultPlan, InjectedKill, KillSpec, RankFailure};
pub use payload::Payload;
pub use stats::TrafficStats;
