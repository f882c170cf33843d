//! Checkpointed mock-ensemble covariance runner (ROADMAP item 5,
//! paper §6.1).
//!
//! The paper's error-bar story needs a covariance matrix of the 3PCF
//! measurement, and "the standard technique" it cites is an ensemble of
//! mock catalogs: measure ζ on K independent realizations, take the
//! sample covariance. At Galactos scale each realization is itself a
//! distributed computation on fallible hardware, so this crate welds
//! the ensemble loop to the fault-tolerant supervised pipeline of
//! `galactos-core` and makes the whole thing restartable:
//!
//! * [`runner::MockEnsemble`] generates K seeded lognormal mocks, fans
//!   each through
//!   [`compute_distributed_supervised`](galactos_core::pipeline::compute_distributed_supervised) — which retries transient rank deaths
//!   and reassigns shards of permanently dead ranks — and persists each
//!   completed realization's flattened ζ vector;
//! * [`checkpoint`] frames those per-realization files with FNV-1a
//!   checksums (the same construction as GCAT v2 shards), so a resumed
//!   run can verify-and-skip finished realizations and recompute any
//!   truncated, corrupted, or configuration-stale one;
//! * assembly feeds the verified vectors to
//!   `galactos_analysis::sample_covariance`, ready for the χ²/SNR
//!   machinery in `galactos-analysis::chi2`.
//!
//! # Determinism contract
//!
//! The assembled mean and covariance are a **pure function of the
//! [`EnsembleConfig`]** — bit for bit
//! (`f64::to_bits` equal), no tolerances. In particular they do *not*
//! depend on:
//!
//! * interruption: any interleaving of partial passes
//!   ([`MockEnsemble::run_limited`](runner::MockEnsemble::run_limited))
//!   and restarts yields the same bits as one uninterrupted run,
//!   because completed realizations are replayed from verified
//!   checkpoints and missing ones are recomputed from their seeds;
//! * injected faults: rank kills handled by the supervised pipeline
//!   never change ζ (shard-ordered reduction), so a realization
//!   computed through a crash-and-retry equals one computed cleanly;
//! * checkpoint damage: a corrupt or truncated checkpoint is detected
//!   by checksum and recomputed — garbage is never folded into the
//!   covariance;
//! * `num_ranks` and the retry policy: primaries are partitioned by
//!   shard, not by rank, and partials are reduced in shard order.
//!
//! The contract is enforced end to end by this crate's integration
//! tests (`tests/ensemble.rs`; CI repeats the kill and resume cases in
//! release mode).

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod runner;

pub use checkpoint::{
    read_checkpoint, write_checkpoint, CheckpointError, CheckpointIdentity,
    CHECKPOINT_HEADER_BYTES, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
pub use runner::{
    scratch_dir, EnsembleConfig, EnsembleError, EnsembleResult, MockEnsemble, RunStatus,
    SpectrumChoice,
};
