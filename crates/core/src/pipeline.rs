//! The distributed 3PCF pipeline (paper §3.2 end to end), and the one
//! way to compute a distributed ζ: [`compute_distributed_supervised`],
//! or [`compute_distributed_supervised_observed`] to record telemetry.
//!
//! The catalog is on disk as GCAT v2 shards cut along the domain plan's
//! recursive bisection (`galactos_domain::shard::write_sharded`; an
//! in-memory catalog is written to a temporary directory first, as
//! `examples/sharded_pipeline.rs` does). An attempt at a list of shards
//! first makes its halo exchange, as the paper's ranks do once after
//! the bisection: one pass over every file that borders a listed shard,
//! keeping each record within `rmax` of a listed region other than its
//! own as it decodes. Then per shard: read its own file whole, append
//! its ghosts from that halo cache — the owned and halo sets the
//! paper's message-passing exchange (`galactos_domain::exchange`)
//! delivers — build one k-d tree over owned + ghosts, run the engine
//! with *owned galaxies only* as primaries, and reduce the multipole
//! arrays once, in shard order ("the remainder of the 3PCF calculation
//! (besides a final reduction) is strongly parallel"). The per-shard
//! partials are returned beside the merge
//! ([`SupervisedRun::shard_partials`]): they are the §6.1 jackknife
//! samples.
//!
//! So an attempt reads each file at most twice, where reading each
//! shard's neighbors for it alone read a neighbor once per shard it
//! borders (9.25x the catalog on the benchmark's 16-shard input, 2x to
//! 4.4x now at 1 to 4 ranks). A shard computes on one vector, its owned
//! galaxies as read and then its ghosts, so an attempt holds the current
//! shard's owned + ghosts plus the cached halo records not yet used up
//! (a file's are dropped after the last listed shard that needs them):
//! the records within `rmax` of a boundary between a listed shard and
//! another shard, 32 % of the catalog at 1 rank on that input and 17 %
//! per rank at 2. The vector is the one
//! `galactos_domain::shard::distribute_shard_range(s, s + 1)` reads, so
//! the cache moves no bit. The cache lives for one attempt, and no
//! message is sent, so a shard's ζ partial is a pure function of (shard
//! files, config) — which is what lets the supervisor retry or reassign
//! it after a rank failure, and run at any rank count, without moving a
//! bit of the result. The tests require that result to match the
//! single-process engine to 1e-9 and to be bit-identical across rank
//! counts.

use crate::config::{ConfigError, EngineConfig};
use crate::engine::Engine;
use crate::result::AnisotropicZeta;
use galactos_catalog::io::{CatalogIoError, RECORD_BYTES};
use galactos_catalog::shard::{read_shard, ShardManifest, HEADER_BYTES};
use galactos_cluster::fault::{classify_panic, FailureCause, FaultHarness, FaultPlan, RankFailure};
use galactos_cluster::run_cluster;
use galactos_domain::shard::{ghost_filter, shard_range_for_rank};
use galactos_obs::clock::Stages;
use galactos_obs::ObsSession;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::OnceLock;

// The stages of a shard task's `Stages` clock.
const INGEST_HALO: usize = 0;
const INGEST_OWN: usize = 1;
const COMPUTE: usize = 2;

/// What one rank (or one reassigned shard) did in a distributed run.
#[derive(Clone, Debug)]
pub struct RankReport {
    pub rank: usize,
    pub owned: usize,
    pub ghosts: usize,
    pub binned_pairs: u64,
    /// Shard records this piece of work read from disk, kept or not: its
    /// halo pass reads each file bordering one of its shards once, and
    /// each shard reads its own file once, so a file is counted at most
    /// twice. Only the attempt that succeeded is counted.
    pub records_read: u64,
    /// Bytes this rank read from shard files.
    pub bytes_read: u64,
    /// How many attempts this work took under supervision (1 = first
    /// try).
    pub attempts: u32,
    /// When this work was reassigned from a dead rank, the rank that
    /// originally owned it (`rank` is then the survivor that ran it).
    pub reassigned_from: Option<usize>,
}

/// Bounded retry policy for supervised ranks: a piece of work that
/// fails is re-run at once, up to the attempt budget. A retry re-runs a
/// pure function of (shard files, config), so waiting between attempts
/// buys nothing.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts per piece of work (first try included); `1`
    /// disables retries.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3 }
    }
}

/// Why a supervised run could not produce a result.
#[derive(Debug)]
pub enum SupervisedError {
    /// Shard ingestion failed (disk-level problem, not a rank failure —
    /// retrying a rank cannot fix a corrupt file, so it surfaces as-is,
    /// carrying the shard path and index from the reader).
    Io(CatalogIoError),
    /// Every rank that could run a shard's work died, retries included.
    Exhausted { failures: Vec<RankFailure> },
    /// The named argument — `num_ranks` or `policy.max_attempts` — is
    /// 0, and a run needs at least 1.
    ZeroArgument(&'static str),
    /// The fault plan kills `rank`, which a run of `num_ranks` ranks
    /// does not have.
    KillRankOutOfRange { rank: usize, num_ranks: usize },
    /// [`EngineConfig::validate`] refuses the config: no attempt could
    /// build the engine.
    InvalidConfig(ConfigError),
}

impl std::fmt::Display for SupervisedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisedError::Io(e) => write!(f, "shard ingestion failed: {e}"),
            SupervisedError::Exhausted { failures } => write!(
                f,
                "all ranks exhausted their retries ({} failures recorded)",
                failures.len()
            ),
            SupervisedError::ZeroArgument(name) => {
                write!(f, "{name} = 0, but a distributed run needs at least 1")
            }
            SupervisedError::KillRankOutOfRange { rank, num_ranks } => write!(
                f,
                "the fault plan kills rank {rank}, but the run has {num_ranks} ranks"
            ),
            SupervisedError::InvalidConfig(e) => write!(f, "invalid engine config: {e}"),
        }
    }
}

impl std::error::Error for SupervisedError {}

impl From<CatalogIoError> for SupervisedError {
    fn from(e: CatalogIoError) -> Self {
        SupervisedError::Io(e)
    }
}

/// Result of a supervised distributed run.
#[derive(Clone, Debug)]
pub struct SupervisedRun {
    pub zeta: AnisotropicZeta,
    /// One report per completed piece of work: each surviving rank's own
    /// shard range, plus one report per shard recovered from a dead rank
    /// (with [`RankReport::reassigned_from`] set).
    pub ranks: Vec<RankReport>,
    /// Every rank failure observed, in the order they were handled
    /// (first round by rank, then per-retry).
    pub failures: Vec<RankFailure>,
    /// Ranks that exhausted their retries and lost their shard range to
    /// the survivors.
    pub dead_ranks: Vec<usize>,
    /// The per-shard ζ partials, in shard order, that `zeta` is the
    /// shard-ordered merge of: each one the shard's galaxies as
    /// primaries, with everything within `rmax` as secondaries. These
    /// are the paper's §6.1 per-node results, one jackknife region per
    /// shard (`galactos_analysis::jackknife_from_partials`).
    pub shard_partials: Vec<AnisotropicZeta>,
}

/// ζ partials labeled by the shard that produced them.
type ShardPartials = Vec<(usize, AnisotropicZeta)>;

/// What one attempt at a piece of work came to: its report and
/// partials, a disk-level error no retry can fix, or the failure of the
/// rank that ran it.
type AttemptOutcome = Result<Result<(RankReport, ShardPartials), CatalogIoError>, RankFailure>;

/// Add one whole read of shard file `s` to `report`: a shard file that
/// reads without error is its header plus exactly its manifest count of
/// records.
fn count_read(report: &mut RankReport, manifest: &ShardManifest, s: usize) {
    let records = manifest.shards[s].count;
    report.records_read += records;
    report.bytes_read += HEADER_BYTES as u64 + records * RECORD_BYTES as u64;
}

/// The state of one supervised run: what every attempt needs to run,
/// and the result being built from what the attempts come to. Round 0,
/// the retries and the reassignments differ only in who runs which
/// shards after how many earlier attempts.
struct Supervisor<'a> {
    dir: &'a Path,
    manifest: ShardManifest,
    config: &'a EngineConfig,
    policy: &'a RetryPolicy,
    harness: FaultHarness,
    obs: &'a ObsSession,
    /// Built by the first attempt that gets this far, inside its
    /// `ingest` phase. The config was validated before any attempt
    /// ([`SupervisedError::InvalidConfig`]), so the build cannot fail.
    engine: OnceLock<Engine>,
    run: SupervisedRun,
    /// One ζ partial per shard computed so far, in shard order.
    partials: BTreeMap<usize, AnisotropicZeta>,
}

impl Supervisor<'_> {
    /// One worker's pass over a list of shards, entering the ingest /
    /// compute / reduce phases so injected kills (and failure
    /// attribution) see those boundaries: the halo pass is the ingest,
    /// each shard's own file is read as it is computed. A stage clock
    /// tiles the pass: `ingest.halo` up to the end of the halo pass,
    /// then per shard `ingest.own` (its read and ghost append) and
    /// `compute`, emitted under the attempt's span once the pass
    /// reaches its reduce phase.
    fn shard_task(
        &self,
        worker: usize,
        shards: &[usize],
    ) -> Result<(RankReport, ShardPartials), CatalogIoError> {
        let mut stages = Stages::<3>::start(self.obs.is_enabled());
        self.harness.enter_phase(worker, "ingest");
        let engine = self.engine.get_or_init(|| Engine::new(self.config.clone()));
        let mut report = RankReport {
            rank: worker,
            owned: 0,
            ghosts: 0,
            binned_pairs: 0,
            records_read: 0,
            bytes_read: 0,
            attempts: 1,
            reassigned_from: None,
        };
        let (dir, manifest) = (self.dir, &self.manifest);
        let rmax = self.config.bins.rmax();
        // Per listed shard: the files it takes ghosts from, ascending,
        // each with the filter that keeps its ghosts. A shard without
        // galaxies has no primaries, so it takes none.
        let holds_galaxies = |s: &usize| manifest.shards[*s].count > 0;
        let sources: Vec<Vec<_>> = shards
            .iter()
            .map(|&s| {
                let files = if holds_galaxies(&s) {
                    0..manifest.num_shards()
                } else {
                    0..0
                };
                files
                    .filter_map(|t| ghost_filter(manifest, t, [s], rmax).map(|keep| (t, keep)))
                    .collect()
            })
            .collect();
        // Which listed shard is the last to take ghosts from each file.
        let mut last_use = BTreeMap::new();
        for (i, from) in sources.iter().enumerate() {
            for &(t, _) in from {
                last_use.insert(t, i);
            }
        }
        // The halo pass: one read of each of those files, keeping, in
        // record order, its records near any listed shard's region:
        // whatever any one listed shard keeps from it, and no more. The
        // cache is held while the shards compute, so it is stored
        // without the slack that growing by doubling leaves.
        let listed: Vec<usize> = shards.iter().copied().filter(holds_galaxies).collect();
        let mut halo = BTreeMap::new();
        for &t in last_use.keys() {
            let keep = ghost_filter(manifest, t, listed.iter().copied(), rmax)
                .expect("a ghost source borders a listed shard");
            let mut kept = Vec::new();
            read_shard(dir, manifest, t, keep, &mut kept)?;
            count_read(&mut report, manifest, t);
            halo.insert(t, kept.into_boxed_slice());
        }
        stages.lap(INGEST_HALO);

        // Per shard: its own file whole, then its ghosts from the halo
        // in ascending file order, so the engine computes on the vector
        // `distribute_shard_range(s, s + 1)` reads — owned galaxies as
        // read, then kept ghosts — and the partial keeps its bits. The
        // vector is reserved whole: growing it by doubling raised the
        // benchmark's peak RSS. A count that no file backs fails in
        // `read_shard` before a record is pushed, and a reservation the
        // allocator refuses is skipped.
        let mut partials = Vec::with_capacity(shards.len());
        self.harness.enter_phase(worker, "compute");
        for (i, &s) in shards.iter().enumerate() {
            let n_ghosts: usize = sources[i]
                .iter()
                .map(|(t, keep)| halo[t].iter().filter(|g| keep(g)).count())
                .sum();
            let n_owned = usize::try_from(manifest.shards[s].count).unwrap_or(usize::MAX);
            let mut galaxies = Vec::new();
            let _ = galaxies.try_reserve_exact(n_owned.saturating_add(n_ghosts));
            read_shard(dir, manifest, s, |_| true, &mut galaxies)?;
            count_read(&mut report, manifest, s);
            for (t, keep) in &sources[i] {
                galaxies.extend(halo[t].iter().filter(|g| keep(g)));
                // The last shard to need a file's records drops them.
                if last_use[t] == i {
                    halo.remove(t);
                }
            }
            report.owned += n_owned;
            report.ghosts += n_ghosts;
            stages.lap(INGEST_OWN);
            let partial = if n_owned == 0 {
                AnisotropicZeta::zeros(self.config.lmax, self.config.bins.nbins())
            } else {
                engine.compute_subset(&galaxies, n_owned)
            };
            stages.lap(COMPUTE);
            report.binned_pairs += partial.binned_pairs;
            partials.push((s, partial));
        }
        self.harness.enter_phase(worker, "reduce");
        let n = shards.len() as u64;
        let names = [("ingest.halo", 1), ("ingest.own", n), ("compute", n)];
        stages.emit(&self.obs.tracer, names);
        Ok((report, partials))
    }

    /// One attempt by `worker` at `shards`, in a span named `span` on
    /// the calling thread's track. A panic — organic, or a kill the
    /// harness injects on entering a phase — comes back as the
    /// [`RankFailure`] it represents; the span of a failed attempt is
    /// still recorded (truncated), its guard dropping during unwinding.
    fn attempt(&self, worker: usize, shards: &[usize], span: &str) -> AttemptOutcome {
        self.obs.registry.add("supervised.attempts", 1);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = self.obs.tracer.span(span);
            self.shard_task(worker, shards)
        }))
        .map_err(|payload| RankFailure {
            rank: worker,
            phase: self.harness.phase_of(worker),
            cause: classify_panic(payload.as_ref()),
        })
    }

    /// Absorb a successful attempt (`Ok(true)`) or record a failed one
    /// (`Ok(false)`); `attempts` counts this one.
    fn settle(
        &mut self,
        outcome: AttemptOutcome,
        attempts: u32,
        reassigned_from: Option<usize>,
    ) -> Result<bool, SupervisedError> {
        match outcome {
            Ok(Ok((mut report, partials))) => {
                report.attempts = attempts;
                report.reassigned_from = reassigned_from;
                if reassigned_from.is_some() {
                    self.obs.registry.add("supervised.reassignments", 1);
                }
                self.obs
                    .registry
                    .add("supervised.records_read", report.records_read);
                self.obs
                    .registry
                    .add("supervised.bytes_read", report.bytes_read);
                for (s, partial) in partials {
                    let prev = self.partials.insert(s, partial);
                    assert!(prev.is_none(), "shard {s} computed twice");
                }
                self.run.ranks.push(report);
                Ok(true)
            }
            Ok(Err(io)) => Err(io.into()),
            Err(failure) => {
                self.obs.registry.add("supervised.failures", 1);
                if matches!(failure.cause, FailureCause::InjectedKill) {
                    self.obs.registry.add("supervised.injected_faults", 1);
                }
                self.run.failures.push(failure);
                Ok(false)
            }
        }
    }

    /// Spend what is left of the policy's budget on `worker` running
    /// `shards`, `done` attempts having failed already. The harness keeps
    /// its counters, so a `times: 1` kill is transient and the retry
    /// passes, while a permanent kill keeps firing until the budget is
    /// spent. Returns whether the work was absorbed.
    fn retry(
        &mut self,
        worker: usize,
        shards: &[usize],
        done: u32,
        span: &str,
        reassigned_from: Option<usize>,
    ) -> Result<bool, SupervisedError> {
        for failed in done..self.policy.max_attempts {
            let outcome = self.attempt(worker, shards, span);
            if self.settle(outcome, failed + 1, reassigned_from)? {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// The distributed ζ run, under supervision: each rank reads the files
/// of its GCAT v2 shards, and once those of the neighbor shards
/// intersecting their `rmax` halo, straight from disk, so a piece of
/// work holds one shard's galaxies and the halo records its shards still
/// need, not the catalog. Per-rank failures (organic panics or
/// faults injected through `plan`) are caught as [`RankFailure`]s,
/// failed ranks are retried up to `policy`'s attempt budget, and ranks
/// that exhaust their retries have their shard range reassigned across
/// the survivors. With [`FaultPlan::none`] and the
/// default policy this is the plain run.
///
/// `manifest_path` points at the shard directory's manifest (see
/// [`galactos_catalog::shard`]); shard files are resolved next to it.
/// The catalog must be non-periodic (the halo is gathered from domain
/// boundaries, not across box wraps, as in the paper): a periodic
/// manifest is a [`CatalogIoError::Unsupported`] error. Zero ranks or a
/// policy of zero attempts is [`SupervisedError::ZeroArgument`], a
/// kill aimed at a rank the run does not have is
/// [`SupervisedError::KillRankOutOfRange`], and a config that
/// [`EngineConfig::validate`] refuses is
/// [`SupervisedError::InvalidConfig`]; all three are returned before
/// the manifest is read.
///
/// ζ is assembled from *per-shard* partials reduced in shard order, so
/// the result is bit-identical to the failure-free run — and to any
/// rank count — no matter which rank ends up computing which shard:
/// primaries are partitioned by shard, not by rank identity. It matches
/// the single-process engine to floating-point accuracy (tests enforce
/// 1e-9 relative), and [`RankReport::records_read`] /
/// [`RankReport::bytes_read`] quantify the ingestion I/O.
pub fn compute_distributed_supervised(
    manifest_path: impl AsRef<Path>,
    config: &EngineConfig,
    num_ranks: usize,
    policy: &RetryPolicy,
    plan: FaultPlan,
) -> Result<SupervisedRun, SupervisedError> {
    compute_distributed_supervised_observed(
        manifest_path,
        config,
        num_ranks,
        policy,
        plan,
        &ObsSession::disabled(),
    )
}

/// [`compute_distributed_supervised`] recording distributed telemetry
/// into an [`ObsSession`]: each rank's round-0 `shard_task` runs in a
/// span on its own track (`rank N`), retries and reassignments appear
/// as `retry` / `reassign` spans on the supervisor's track, and the
/// registry aggregates what [`RankReport`] records per piece of work —
/// `supervised.attempts`, `supervised.failures`,
/// `supervised.injected_faults`, `supervised.reassignments`,
/// `supervised.dead_ranks`, and over the attempts that succeeded
/// `supervised.records_read` / `supervised.bytes_read`. Each successful
/// attempt's span carries its `ingest.halo`, `ingest.own` and `compute`
/// stage aggregates.
///
/// With a disabled session this is exactly
/// [`compute_distributed_supervised`]: zero clock reads, bit-identical
/// ζ (test-pinned).
pub fn compute_distributed_supervised_observed(
    manifest_path: impl AsRef<Path>,
    config: &EngineConfig,
    num_ranks: usize,
    policy: &RetryPolicy,
    plan: FaultPlan,
    obs: &ObsSession,
) -> Result<SupervisedRun, SupervisedError> {
    if num_ranks == 0 {
        return Err(SupervisedError::ZeroArgument("num_ranks"));
    }
    if policy.max_attempts == 0 {
        return Err(SupervisedError::ZeroArgument("policy.max_attempts"));
    }
    if let Some(kill) = plan.kills.iter().find(|k| k.rank >= num_ranks) {
        return Err(SupervisedError::KillRankOutOfRange {
            rank: kill.rank,
            num_ranks,
        });
    }
    config.validate().map_err(SupervisedError::InvalidConfig)?;
    let manifest_path = manifest_path.as_ref();
    let manifest = ShardManifest::read(manifest_path)?;
    if let Some(box_len) = manifest.periodic {
        return Err(CatalogIoError::Unsupported(format!(
            "distributed pipeline treats catalogs as open boxes (like the \
             paper); manifest declares a periodic box of length {box_len}"
        ))
        .into());
    }
    let num_shards = manifest.num_shards();
    let range_of = |rank: usize| {
        let (lo, hi) = shard_range_for_rank(num_shards, num_ranks, rank);
        (lo..hi).collect::<Vec<usize>>()
    };
    let mut sup = Supervisor {
        dir: manifest_path.parent().unwrap_or_else(|| Path::new(".")),
        manifest,
        config,
        policy,
        harness: FaultHarness::new(plan, num_ranks),
        obs,
        engine: OnceLock::new(),
        run: SupervisedRun {
            zeta: AnisotropicZeta::zeros(config.lmax, config.bins.nbins()),
            ranks: Vec::new(),
            failures: Vec::new(),
            dead_ranks: Vec::new(),
            shard_partials: Vec::new(),
        },
        partials: BTreeMap::new(),
    };

    // Round 0: every rank in parallel, one thread each. Each rank
    // thread is its own obs track, so the trace shows the rank fan-out.
    let round0 = run_cluster(num_ranks, |comm| {
        let rank = comm.rank();
        obs.tracer.name_track(&format!("rank {rank}"));
        sup.attempt(rank, &range_of(rank), "shard_task")
    });
    let mut failed_ranks: Vec<usize> = Vec::new();
    let mut survivors: Vec<usize> = Vec::new();
    for (rank, outcome) in round0.into_iter().enumerate() {
        if sup.settle(outcome, 1, None)? {
            survivors.push(rank);
        } else {
            failed_ranks.push(rank);
        }
    }

    // Retry each failed rank on its own range under the policy.
    for rank in failed_ranks {
        if sup.retry(rank, &range_of(rank), 1, "retry", None)? {
            survivors.push(rank);
        } else {
            obs.registry.add("supervised.dead_ranks", 1);
            sup.run.dead_ranks.push(rank);
        }
    }

    // Reassign each dead rank's shards across the survivors,
    // round-robin, each shard under the same retry policy (and, on
    // exhaustion, cascading to the next survivor). The shard partial is
    // identical no matter who computes it, so this degradation is
    // invisible in ζ.
    survivors.sort_unstable();
    let mut rr = 0usize;
    for dead in sup.run.dead_ranks.clone() {
        for s in range_of(dead) {
            let mut taken = false;
            for k in 0..survivors.len() {
                let survivor = survivors[(rr + k) % survivors.len()];
                if sup.retry(survivor, &[s], 0, "reassign", Some(dead))? {
                    taken = true;
                    rr += 1;
                    break;
                }
            }
            if !taken {
                return Err(SupervisedError::Exhausted {
                    failures: sup.run.failures,
                });
            }
        }
    }

    // The reduction: every shard exactly once, in shard order. This is
    // the bit-identity anchor — nothing above may change it.
    assert_eq!(
        sup.partials.len(),
        num_shards,
        "every shard must contribute exactly one partial"
    );
    let mut run = sup.run;
    for partial in sup.partials.values() {
        run.zeta.merge(partial);
    }
    run.shard_partials = sup.partials.into_values().collect();
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use galactos_catalog::shard::MANIFEST_FILE;
    use galactos_catalog::{uniform_box, Catalog};
    use galactos_cluster::fault::KillSpec;
    use galactos_domain::shard::{distribute_shard_range, write_sharded};
    use std::path::PathBuf;

    fn open_catalog(n: usize, box_len: f64, seed: u64) -> Catalog {
        let mut c = uniform_box(n, box_len, seed);
        c.periodic = None;
        c
    }

    fn shard_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("galactos_pipeline_shard_test")
            .join(format!("{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// The plain out-of-core run: no faults, default policy.
    fn sharded(
        manifest_path: impl AsRef<Path>,
        config: &EngineConfig,
        ranks: usize,
    ) -> Result<SupervisedRun, SupervisedError> {
        let policy = RetryPolicy::default();
        compute_distributed_supervised(manifest_path, config, ranks, &policy, FaultPlan::none())
    }

    fn bits(zeta: &AnisotropicZeta) -> Vec<u64> {
        zeta.to_f64_vec().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn rank_reports_cover_catalog() {
        let cat = open_catalog(90, 12.0, 11);
        let config = EngineConfig::test_default(4.0, 2, 2);
        let dir = shard_dir("rank_reports");
        write_sharded(&cat, 6, &dir).unwrap();
        let dist = sharded(dir.join(MANIFEST_FILE), &config, 6).unwrap();
        assert_eq!(dist.ranks.len(), 6);
        let pair_total: u64 = dist.ranks.iter().map(|r| r.binned_pairs).sum();
        assert_eq!(pair_total, dist.zeta.binned_pairs);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_matches_single_process() {
        // A shard count that matches no rank count exactly (7 shards
        // over {1, 2, 3, 5} ranks).
        let cat = open_catalog(250, 15.0, 3);
        let config = EngineConfig::test_default(5.0, 3, 3);
        let single = Engine::new(config.clone()).compute(&cat);
        let dir = shard_dir("matches_single");
        write_sharded(&cat, 7, &dir).unwrap();
        let manifest_path = dir.join(MANIFEST_FILE);
        let mut one_rank_partials = Vec::new();
        for ranks in [1usize, 2, 3, 5] {
            let dist = sharded(&manifest_path, &config, ranks).unwrap();
            // One partial per shard, whose shard-ordered merge is ζ bit
            // for bit, and whose bits no rank count moves.
            assert_eq!(dist.shard_partials.len(), 7);
            let mut merged = AnisotropicZeta::zeros(config.lmax, config.bins.nbins());
            for partial in &dist.shard_partials {
                merged.merge(partial);
            }
            assert_eq!(bits(&merged), bits(&dist.zeta), "ranks={ranks}");
            let partial_bits: Vec<_> = dist.shard_partials.iter().map(bits).collect();
            if ranks == 1 {
                one_rank_partials = partial_bits;
            } else {
                assert_eq!(partial_bits, one_rank_partials, "ranks={ranks}");
            }
            let scale = single.max_abs().max(1.0);
            assert!(
                dist.zeta.max_difference(&single) < 1e-9 * scale,
                "ranks={ranks}: diff {}",
                dist.zeta.max_difference(&single)
            );
            assert_eq!(dist.zeta.num_primaries, single.num_primaries);
            assert_eq!(dist.zeta.binned_pairs, single.binned_pairs);
            let owned_total: usize = dist.ranks.iter().map(|r| r.owned).sum();
            assert_eq!(owned_total, 250);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_no_rank_holds_the_full_catalog() {
        // The point of v2: no piece of work's resident galaxies (owned
        // + ghosts) nor its streamed shard records may reach the
        // catalog size. The unit of work is the shard (one tree each)
        // and a `RankReport` sums a rank's shards, so this runs at one
        // shard per rank: at 2 ranks over these 20 shards rank 0's
        // `records_read` is 330 > 300 (its ten shards, and one pass over
        // the files bordering them), although nothing ever held the
        // catalog. An
        // elongated box (survey-slab geometry) makes the bisection cut
        // slabs along x, so even interior shards have shards beyond
        // their halo.
        let n = 300;
        let mut cat = open_catalog(n, 24.0, 19);
        for g in &mut cat.galaxies {
            g.pos.x *= 8.0;
        }
        cat.recompute_bounds();
        let config = EngineConfig::test_default(2.5, 2, 2);
        let single = Engine::new(config.clone()).compute(&cat);
        let dir = shard_dir("bounded_residency");
        write_sharded(&cat, 20, &dir).unwrap();
        let manifest_path = dir.join(MANIFEST_FILE);
        let dist = sharded(&manifest_path, &config, 20).unwrap();
        let scale = single.max_abs().max(1.0);
        assert!(dist.zeta.max_difference(&single) < 1e-9 * scale);
        assert_eq!(dist.ranks.len(), 20);
        for r in &dist.ranks {
            assert!(
                r.owned + r.ghosts < n,
                "rank {} resident {} galaxies = full catalog",
                r.rank,
                r.owned + r.ghosts
            );
            assert!(
                r.records_read < n as u64,
                "rank {} streamed {} records = full catalog",
                r.rank,
                r.records_read
            );
            assert!(r.bytes_read > 0, "rank {} read nothing", r.rank);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_partials_are_the_range_ingest_bit_for_bit() {
        // Each partial is the engine over what `distribute_shard_range`
        // reads for its one shard, owned then ghosts, whichever rank
        // computed it out of a cached halo: at 1, 2 and 3 ranks, and
        // when a dead rank's shards are reassigned one at a time.
        let cat = open_catalog(400, 20.0, 13);
        let config = EngineConfig::test_default(4.0, 2, 3);
        let rmax = config.bins.rmax();
        let dir = shard_dir("range_ingest_bits");
        let manifest = write_sharded(&cat, 7, &dir).unwrap();
        let engine = Engine::new(config.clone());
        let mut want = Vec::new();
        let mut want_ghosts = 0;
        for s in 0..7 {
            let rd = distribute_shard_range(&dir, &manifest, s, s + 1, rmax).unwrap();
            want_ghosts += rd.ghosts.len();
            let n_owned = rd.owned.len();
            assert!(n_owned > 0, "every shard of this catalog holds galaxies");
            let galaxies: Vec<_> = rd.owned.into_iter().chain(rd.ghosts).collect();
            want.push(bits(&engine.compute_subset(&galaxies, n_owned)));
        }
        let manifest_path = dir.join(MANIFEST_FILE);
        let policy = RetryPolicy { max_attempts: 2 };
        let killed = FaultPlan::none().with_phase_kill(1, "compute", KillSpec::ALWAYS);
        for (ranks, plan) in [
            (1, FaultPlan::none()),
            (2, FaultPlan::none()),
            (3, FaultPlan::none()),
            (3, killed),
        ] {
            let run = compute_distributed_supervised(&manifest_path, &config, ranks, &policy, plan)
                .unwrap();
            let got: Vec<_> = run.shard_partials.iter().map(bits).collect();
            assert_eq!(got, want, "ranks={ranks} dead={:?}", run.dead_ranks);
            let ghosts: usize = run.ranks.iter().map(|r| r.ghosts).sum();
            assert_eq!(ghosts, want_ghosts, "ranks={ranks}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_attempt_reads_each_file_at_most_twice() {
        // 16 shards: the halo pass reads each file bordering a listed
        // shard once, and each listed shard reads its own file once.
        // Reading the neighbors once per bordering shard, as
        // `distribute_shard_range(s, s + 1)` does, reads `per_shard`.
        let cat = open_catalog(1600, 32.0, 29);
        let config = EngineConfig::test_default(3.0, 1, 2);
        let rmax = config.bins.rmax();
        let dir = shard_dir("read_counts");
        let manifest = write_sharded(&cat, 16, &dir).unwrap();
        let manifest_path = dir.join(MANIFEST_FILE);
        let (mut per_shard, mut ghosts) = (0, 0);
        for s in 0..16 {
            let rd = distribute_shard_range(&dir, &manifest, s, s + 1, rmax).unwrap();
            per_shard += rd.records_read;
            ghosts += rd.ghosts.len();
        }
        // 9.25x the catalog, to keep 1 819 ghosts.
        assert_eq!((per_shard, ghosts), (14_800, 1_819));
        // 2x, 2.81x and 4.25x the catalog, the same ghosts.
        for (ranks, want) in [(1, 3_200), (2, 4_500), (4, 6_800)] {
            let run = sharded(&manifest_path, &config, ranks).unwrap();
            let read: u64 = run.ranks.iter().map(|r| r.records_read).sum();
            let kept: usize = run.ranks.iter().map(|r| r.ghosts).sum();
            assert_eq!((read, kept), (want, ghosts), "ranks={ranks}");
        }
        // One shard per rank: an attempt reads what the range ingest of
        // its one shard reads.
        let run = sharded(&manifest_path, &config, 16).unwrap();
        for r in &run.ranks {
            let rd = distribute_shard_range(&dir, &manifest, r.rank, r.rank + 1, rmax).unwrap();
            assert_eq!(
                (r.records_read, r.bytes_read, r.ghosts),
                (rd.records_read, rd.bytes_read, rd.ghosts.len()),
                "rank {}",
                r.rank
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_surfaces_corrupt_manifest() {
        // A flipped byte inside the manifest's entry table, and a
        // periodic catalog: both fail before any rank starts.
        let config = EngineConfig::test_default(2.0, 1, 1);
        let dir = shard_dir("corrupt_manifest");
        let manifest_path = dir.join(MANIFEST_FILE);
        for periodic in [false, true] {
            let cat = match periodic {
                true => uniform_box(60, 8.0, 23),
                false => open_catalog(60, 8.0, 23),
            };
            std::fs::remove_dir_all(&dir).ok();
            write_sharded(&cat, 3, &dir).unwrap();
            if !periodic {
                let mut bytes = std::fs::read(&manifest_path).unwrap();
                let last = bytes.len() - 20;
                bytes[last] ^= 0xFF;
                std::fs::write(&manifest_path, &bytes).unwrap();
            }
            let obs = ObsSession::enabled();
            let policy = RetryPolicy::default();
            let result = compute_distributed_supervised_observed(
                &manifest_path,
                &config,
                2,
                &policy,
                FaultPlan::none(),
                &obs,
            );
            let surfaced = match result {
                Err(SupervisedError::Io(CatalogIoError::Corrupt(_))) => !periodic,
                Err(SupervisedError::Io(CatalogIoError::Unsupported(_))) => periodic,
                _ => false,
            };
            assert!(surfaced, "periodic={periodic}");
            assert_eq!(obs.registry.counter_value("supervised.attempts"), 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
