//! The distributed 3PCF pipeline (paper §3.2 end to end), and the one
//! way to compute a distributed ζ: [`compute_distributed_supervised`],
//! or [`compute_distributed_supervised_observed`] to record telemetry.
//!
//! The catalog is on disk as GCAT v2 shards cut along the domain plan's
//! recursive bisection (`galactos_domain::shard::write_sharded`; an
//! in-memory catalog is written to a temporary directory first, as
//! `examples/sharded_pipeline.rs` does). Per shard: read its galaxies
//! plus the ghosts within `rmax` from the neighbor shards whose region
//! meets its halo, keeping or dropping each ghost as its record decodes
//! — the owned and halo sets the paper's message-passing exchange
//! (`galactos_domain::exchange`) delivers — build one k-d tree
//! over owned + ghosts, run the engine with *owned galaxies only* as
//! primaries, and reduce the multipole arrays once, in shard order ("the
//! remainder of the 3PCF calculation (besides a final reduction) is
//! strongly parallel"). The per-shard partials are returned beside the
//! merge ([`SupervisedRun::shard_partials`]): they are the §6.1 jackknife
//! samples.
//!
//! A piece of work computes on one vector, its owned galaxies as read
//! and then the kept ghosts, so its resident galaxies are `owned + kept
//! ghosts`, held once: never the catalog size, nor a whole neighbor
//! shard. No message is sent, so
//! a shard's ζ partial is a pure function of (shard files, config) —
//! which is what lets the supervisor retry or reassign it after a rank
//! failure, and run at any rank count, without moving a bit of the
//! result. The tests require that result to match the single-process
//! engine to 1e-9 and to be bit-identical across rank counts.

use crate::config::EngineConfig;
use crate::engine::Engine;
use crate::result::AnisotropicZeta;
use galactos_catalog::io::CatalogIoError;
use galactos_catalog::shard::ShardManifest;
use galactos_cluster::fault::{classify_panic, FailureCause, FaultHarness, FaultPlan, RankFailure};
use galactos_cluster::run_cluster;
use galactos_domain::shard::{distribute_shard_range, shard_range_for_rank};
use galactos_obs::ObsSession;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::OnceLock;

/// What one rank (or one reassigned shard) did in a distributed run.
#[derive(Clone, Debug)]
pub struct RankReport {
    pub rank: usize,
    pub owned: usize,
    pub ghosts: usize,
    pub binned_pairs: u64,
    /// Shard records this rank read from disk, kept or not: the count of
    /// every shard file it opened, owned and neighbor.
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

/// Per-shard ζ partial: the shard's galaxies as primaries, everything
/// within `rmax` of the shard region as ghosts. Summing these over all
/// shards in shard order is *the* reduction — it never depends on which
/// rank computed which shard, which is what makes retry and
/// reassignment bit-transparent. The shard's ingest counts are added to
/// `report`, and the engine computes on one vector: the owned galaxies
/// as read, then the kept ghosts.
fn shard_partial(
    dir: &Path,
    manifest: &ShardManifest,
    config: &EngineConfig,
    shard: usize,
    engine: &Engine,
    report: &mut RankReport,
) -> Result<AnisotropicZeta, CatalogIoError> {
    let rd = distribute_shard_range(dir, manifest, shard, shard + 1, config.bins.rmax())?;
    report.owned += rd.owned.len();
    report.ghosts += rd.ghosts.len();
    report.records_read += rd.records_read;
    report.bytes_read += rd.bytes_read;
    let (n_owned, mut galaxies) = (rd.owned.len(), rd.owned);
    if n_owned == 0 {
        return Ok(AnisotropicZeta::zeros(config.lmax, config.bins.nbins()));
    }
    galaxies.reserve_exact(rd.ghosts.len());
    galaxies.extend(rd.ghosts);
    Ok(engine.compute_subset(&galaxies, n_owned))
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
    /// `ingest` phase: an invalid config fails every attempt there.
    engine: OnceLock<Engine>,
    run: SupervisedRun,
    /// One ζ partial per shard computed so far, in shard order.
    partials: BTreeMap<usize, AnisotropicZeta>,
}

impl Supervisor<'_> {
    /// One worker's pass over a list of shards, entering the ingest /
    /// compute / reduce phases so injected kills (and failure
    /// attribution) see those boundaries.
    fn shard_task(
        &self,
        worker: usize,
        shards: &[usize],
    ) -> Result<(RankReport, ShardPartials), CatalogIoError> {
        self.harness.enter_phase(worker, "ingest");
        // Ingestion is re-validated per shard at compute time; entering
        // the phase here keeps the {ingest, compute, reduce} kill surface
        // even though streaming is interleaved with compute below.
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
        let mut partials = Vec::with_capacity(shards.len());
        self.harness.enter_phase(worker, "compute");
        for &s in shards {
            let partial = shard_partial(
                self.dir,
                &self.manifest,
                self.config,
                s,
                engine,
                &mut report,
            )?;
            report.binned_pairs += partial.binned_pairs;
            partials.push((s, partial));
        }
        self.harness.enter_phase(worker, "reduce");
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

/// The distributed ζ run, under supervision: each rank
/// streams its owned GCAT v2 shards plus the neighbor shards
/// intersecting their `rmax` halo straight from disk, so no piece of
/// work ever holds the catalog. Per-rank failures (organic panics or
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
/// policy of zero attempts is [`SupervisedError::ZeroArgument`], and a
/// kill aimed at a rank the run does not have is
/// [`SupervisedError::KillRankOutOfRange`]; both are returned before
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
/// `supervised.dead_ranks`.
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
    use galactos_domain::shard::write_sharded;
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
        // `records_read` is 720 > 300 (ten shards, each re-reading its
        // neighbors), although nothing ever held the catalog. An
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
