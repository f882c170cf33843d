//! The [`MockEnsemble`] runner: K seeded realizations → supervised
//! distributed ζ → per-realization checkpoints → ensemble covariance.

use std::path::PathBuf;

use galactos_analysis::{sample_covariance, zeta_to_vector, Covariance};
use galactos_catalog::io::CatalogIoError;
use galactos_catalog::shard::MANIFEST_FILE;
use galactos_cluster::fault::FaultPlan;
use galactos_core::pipeline::{
    compute_distributed_supervised_observed, RetryPolicy, SupervisedError,
};
use galactos_core::EngineConfig;
use galactos_domain::shard::write_sharded;
use galactos_mocks::{lognormal, BaoSpectrum, PowerLawSpectrum, PowerSpectrum};
use galactos_obs::ObsSession;

use crate::checkpoint::{
    fnv1a, read_checkpoint, write_checkpoint, CheckpointError, CheckpointIdentity,
};

/// Which power spectrum seeds the mock realizations. A plain enum
/// (rather than a boxed trait object) so the choice is `Clone`,
/// `Debug`, and digestible into the checkpoint identity.
#[derive(Clone, Debug, PartialEq)]
pub enum SpectrumChoice {
    /// `P(k) = amplitude · k^index`.
    PowerLaw { amplitude: f64, index: f64 },
    /// The fiducial wiggly BAO-like spectrum from `galactos-mocks`.
    Bao,
}

impl SpectrumChoice {
    fn build(&self) -> Box<dyn PowerSpectrum> {
        match *self {
            SpectrumChoice::PowerLaw { amplitude, index } => {
                Box::new(PowerLawSpectrum { amplitude, index })
            }
            SpectrumChoice::Bao => Box::new(BaoSpectrum::fiducial()),
        }
    }

    fn digest_bytes(&self, out: &mut Vec<u8>) {
        match *self {
            SpectrumChoice::PowerLaw { amplitude, index } => {
                out.push(1);
                out.extend_from_slice(&amplitude.to_bits().to_le_bytes());
                out.extend_from_slice(&index.to_bits().to_le_bytes());
            }
            SpectrumChoice::Bao => out.push(2),
        }
    }
}

/// Everything that defines one mock ensemble. Two configs with the
/// same field values produce bit-identical ensembles; any change to a
/// field that affects the answer changes [`EnsembleConfig::digest`],
/// which invalidates stale checkpoints on resume.
#[derive(Clone, Debug)]
pub struct EnsembleConfig {
    /// Number of realizations K.
    pub realizations: usize,
    /// Base seed; realization k runs with a splitmix64-derived
    /// per-realization seed (see [`MockEnsemble::realization_seed`]).
    pub base_seed: u64,
    /// Lognormal mock mesh resolution per side.
    pub mesh_n: usize,
    /// Periodic box side length for the mocks.
    pub box_len: f64,
    /// Target galaxy count per realization (Poisson-sampled, so the
    /// actual count varies by realization but is seed-determined).
    pub n_target: usize,
    /// Input power spectrum for the Gaussian field.
    pub spectrum: SpectrumChoice,
    /// Engine configuration for the ζ measurement.
    pub engine: EngineConfig,
    /// Simulated ranks per realization.
    pub num_ranks: usize,
    /// GCAT v2 shards per realization (the unit of reassignment).
    pub num_shards: usize,
    /// Retry/backoff policy handed to the supervised pipeline.
    pub retry: RetryPolicy,
    /// Fault plans to inject, keyed by realization index — the chaos
    /// hook used by tests and the ensemble bench. Realizations not
    /// listed run fault-free.
    pub faults: Vec<(usize, FaultPlan)>,
}

impl EnsembleConfig {
    /// A small, fast configuration used by tests and the smoke bench.
    pub fn smoke(realizations: usize, base_seed: u64) -> Self {
        EnsembleConfig {
            realizations,
            base_seed,
            mesh_n: 8,
            box_len: 12.0,
            n_target: 48,
            spectrum: SpectrumChoice::PowerLaw {
                amplitude: 0.02,
                index: -1.5,
            },
            engine: EngineConfig::test_default(3.0, 1, 2),
            num_ranks: 2,
            num_shards: 3,
            retry: RetryPolicy::default(),
            faults: Vec::new(),
        }
    }

    /// FNV-1a digest of every field that changes the ensemble's
    /// answer. Stored in each checkpoint header: a resumed run with a
    /// different configuration sees a digest mismatch and recomputes
    /// instead of silently mixing incompatible realizations.
    ///
    /// Injected faults are deliberately *excluded*: the supervised
    /// pipeline's contract is that faults never change ζ bits, so a
    /// checkpoint from a faulted run is interchangeable with one from
    /// a clean run.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(self.realizations as u64).to_le_bytes());
        bytes.extend_from_slice(&self.base_seed.to_le_bytes());
        bytes.extend_from_slice(&(self.mesh_n as u64).to_le_bytes());
        bytes.extend_from_slice(&self.box_len.to_bits().to_le_bytes());
        bytes.extend_from_slice(&(self.n_target as u64).to_le_bytes());
        self.spectrum.digest_bytes(&mut bytes);
        // The whole engine configuration, as text: ζ bits are a
        // function of it and the build target alone (no environment
        // variable, no pool width), and `{:?}` of an `f64` round-trips.
        bytes.extend_from_slice(format!("{:?}", self.engine).as_bytes());
        bytes.extend_from_slice(&(self.num_shards as u64).to_le_bytes());
        // num_ranks and retry are absent on purpose: shard-ordered
        // reduction makes ζ independent of both.
        fnv1a(&bytes)
    }
}

/// Ensemble-level failures. Checkpoint *verification* failures are not
/// here — those are handled by recomputing the realization; this enum
/// is for failures the runner cannot route around.
#[derive(Debug)]
pub enum EnsembleError {
    /// Sharding a mock catalog to the per-realization work directory
    /// failed.
    ShardIo(CatalogIoError),
    /// The supervised pipeline exhausted its retries (e.g. a permanent
    /// kill on every rank), hit an ingestion error, or was handed a
    /// retry policy of zero attempts.
    Supervised {
        realization: usize,
        source: SupervisedError,
    },
    /// Writing a finished realization's checkpoint failed.
    Checkpoint(CheckpointError),
    /// Filesystem trouble managing the checkpoint directory itself.
    Io(std::io::Error),
    /// `assemble` was called with fewer completed realizations than
    /// the two that a sample covariance needs.
    Incomplete { completed: usize, needed: usize },
}

impl std::fmt::Display for EnsembleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnsembleError::ShardIo(e) => write!(f, "sharding mock realization: {e}"),
            EnsembleError::Supervised {
                realization,
                source,
            } => write!(f, "realization {realization}: {source}"),
            EnsembleError::Checkpoint(e) => write!(f, "writing checkpoint: {e}"),
            EnsembleError::Io(e) => write!(f, "ensemble directory: {e}"),
            EnsembleError::Incomplete { completed, needed } => write!(
                f,
                "ensemble incomplete: {completed} realizations done, {needed} needed"
            ),
        }
    }
}

impl std::error::Error for EnsembleError {}

impl From<CatalogIoError> for EnsembleError {
    fn from(e: CatalogIoError) -> Self {
        EnsembleError::ShardIo(e)
    }
}

impl From<std::io::Error> for EnsembleError {
    fn from(e: std::io::Error) -> Self {
        EnsembleError::Io(e)
    }
}

/// What one `run_limited` pass did, realization by realization.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStatus {
    /// Realizations computed fresh this pass (no prior checkpoint).
    pub computed: usize,
    /// Realizations skipped because a valid checkpoint already covered
    /// them.
    pub skipped: usize,
    /// Realizations recomputed because a checkpoint existed but failed
    /// verification (truncated, corrupt, or from a different config).
    pub recomputed: usize,
    /// Realizations still missing when the pass stopped (only nonzero
    /// when `max_new` cut the pass short).
    pub remaining: usize,
}

/// A fully assembled ensemble.
#[derive(Clone, Debug)]
pub struct EnsembleResult {
    /// One flattened ζ vector per realization, in realization order.
    pub vectors: Vec<Vec<f64>>,
    /// Sample mean and covariance over the K realizations.
    pub covariance: Covariance,
    /// What the final pass had to do to get here.
    pub status: RunStatus,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The checkpointed mock-ensemble runner (ROADMAP item 5).
///
/// See the crate docs for the determinism contract; the short version
/// is that the covariance this produces is a pure function of
/// [`EnsembleConfig`], bit for bit, regardless of interruptions,
/// injected faults, or how work was split across passes.
#[derive(Debug)]
pub struct MockEnsemble {
    config: EnsembleConfig,
    dir: PathBuf,
}

impl MockEnsemble {
    /// Bind a configuration to a checkpoint directory. The directory
    /// is created on the first pass; an existing directory is resumed.
    pub fn new(config: EnsembleConfig, dir: impl Into<PathBuf>) -> Self {
        assert!(config.realizations >= 1, "ensemble needs realizations");
        assert!(config.num_ranks >= 1 && config.num_shards >= 1);
        MockEnsemble {
            config,
            dir: dir.into(),
        }
    }

    pub fn config(&self) -> &EnsembleConfig {
        &self.config
    }

    /// Deterministic per-realization seed: splitmix64 of the base seed
    /// and the realization index, so realizations are decorrelated but
    /// individually reproducible.
    pub fn realization_seed(&self, k: usize) -> u64 {
        splitmix64(self.config.base_seed ^ (k as u64).wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// Where realization `k`'s checkpoint lives.
    pub fn checkpoint_path(&self, k: usize) -> PathBuf {
        self.dir.join(format!("realization_{k:04}.gck"))
    }

    fn identity(&self, k: usize) -> CheckpointIdentity {
        CheckpointIdentity {
            realization: k as u64,
            seed: self.realization_seed(k),
            config_digest: self.config.digest(),
        }
    }

    /// Run at most `max_new` *new* computations (fresh or recomputed),
    /// skipping realizations whose checkpoints verify. Call with
    /// `usize::MAX` to finish the ensemble; call with a smaller budget
    /// to simulate (or survive) interruption — each completed
    /// realization is durable the moment its checkpoint is renamed
    /// into place.
    pub fn run_limited(&self, max_new: usize) -> Result<RunStatus, EnsembleError> {
        self.run_limited_observed(max_new, &ObsSession::disabled())
    }

    /// [`MockEnsemble::run_limited`] recording per-realization spans
    /// (`realization K`, covering the checkpoint probe and, when one
    /// runs, the full supervised computation) and the pass's
    /// checkpoint-resume accounting as registry counters:
    /// `ensemble.computed`, `ensemble.skipped` (checkpoint verified),
    /// `ensemble.recomputed` (checkpoint failed verification),
    /// `ensemble.remaining`. The supervised pipeline underneath records
    /// its own telemetry into the same session.
    ///
    /// With a disabled session this is exactly
    /// [`MockEnsemble::run_limited`]: zero clock reads, identical
    /// checkpoints and status.
    pub fn run_limited_observed(
        &self,
        max_new: usize,
        obs: &ObsSession,
    ) -> Result<RunStatus, EnsembleError> {
        std::fs::create_dir_all(&self.dir)?;
        let mut status = RunStatus::default();
        for k in 0..self.config.realizations {
            let _g = obs.tracer.span(&format!("realization {k}"));
            let path = self.checkpoint_path(k);
            let had_file = path.exists();
            if had_file && read_checkpoint(&path, self.identity(k)).is_ok() {
                status.skipped += 1;
                obs.registry.add("ensemble.skipped", 1);
                continue;
            }
            if status.computed + status.recomputed >= max_new {
                status.remaining += 1;
                obs.registry.add("ensemble.remaining", 1);
                continue;
            }
            let vector = self.compute_realization(k, obs)?;
            write_checkpoint(&path, self.identity(k), &vector)
                .map_err(EnsembleError::Checkpoint)?;
            if had_file {
                status.recomputed += 1;
                obs.registry.add("ensemble.recomputed", 1);
            } else {
                status.computed += 1;
                obs.registry.add("ensemble.computed", 1);
            }
        }
        Ok(status)
    }

    /// Finish the ensemble (resuming from whatever checkpoints verify)
    /// and assemble the covariance.
    pub fn run(&self) -> Result<EnsembleResult, EnsembleError> {
        let status = self.run_limited(usize::MAX)?;
        self.assemble(status)
    }

    /// Read every checkpoint back and build the sample covariance.
    /// Fails (rather than guessing) if any realization is missing.
    pub fn assemble(&self, status: RunStatus) -> Result<EnsembleResult, EnsembleError> {
        let k_total = self.config.realizations;
        if k_total < 2 {
            return Err(EnsembleError::Incomplete {
                completed: k_total,
                needed: 2,
            });
        }
        let mut vectors = Vec::with_capacity(k_total);
        for k in 0..k_total {
            match read_checkpoint(&self.checkpoint_path(k), self.identity(k)) {
                Ok(v) => vectors.push(v),
                Err(_) => {
                    return Err(EnsembleError::Incomplete {
                        completed: vectors.len(),
                        needed: k_total,
                    })
                }
            }
        }
        let covariance = sample_covariance(&vectors);
        Ok(EnsembleResult {
            vectors,
            covariance,
            status,
        })
    }

    /// Generate, shard, and measure realization `k` through the
    /// supervised pipeline (telemetry into `obs`, see
    /// [`compute_distributed_supervised_observed`]); returns the
    /// flattened ζ vector. The scratch shard directory is removed
    /// afterwards — only the checkpoint is durable.
    fn compute_realization(&self, k: usize, obs: &ObsSession) -> Result<Vec<f64>, EnsembleError> {
        let c = &self.config;
        let mock = lognormal::generate(
            c.spectrum.build().as_ref(),
            c.mesh_n,
            c.box_len,
            c.n_target,
            self.realization_seed(k),
            None,
        );
        // The sharded/distributed path measures the mock as a plain
        // (non-periodic) point set; drop the periodic wrap the mock
        // generator attaches.
        let mut catalog = mock.catalog;
        catalog.periodic = None;

        let work = self.dir.join(format!("work_{k:04}"));
        std::fs::remove_dir_all(&work).ok();
        write_sharded(&catalog, c.num_shards, &work)?;

        let plan = c
            .faults
            .iter()
            .find(|(at, _)| *at == k)
            .map(|(_, plan)| plan.clone())
            .unwrap_or_else(FaultPlan::none);
        let result = compute_distributed_supervised_observed(
            work.join(MANIFEST_FILE),
            &c.engine,
            c.num_ranks,
            &c.retry,
            plan,
            obs,
        );
        std::fs::remove_dir_all(&work).ok();
        let run = result.map_err(|source| EnsembleError::Supervised {
            realization: k,
            source,
        })?;
        Ok(zeta_to_vector(&run.zeta))
    }
}

/// Convenience: the directory a caller should pass to
/// [`MockEnsemble::new`] for throwaway runs under the system temp dir.
pub fn scratch_dir(name: &str) -> PathBuf {
    std::env::temp_dir()
        .join("galactos_ensemble")
        .join(format!("{name}_{}", std::process::id()))
}
