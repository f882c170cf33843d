//! The traced run of one workload: the per-layer ladder.
//!
//! Every number here is measured from outside, by timing calls into a
//! crate's public functions from this file, on the workload's own
//! catalog (or a corner cut of it where the layer does not matter to
//! the workload). Each timed call is a `galactos-obs` span, and the
//! spans are exported as a Chrome trace when the run ends. Stage times
//! inside the engine are read from the aggregates the public
//! `Engine::compute_observed` already records.

use crate::harness::{best_of, fastest, pool, walls, Ops, Outcome, Rep, RunOpts, ScratchDir};
use crate::json::Json;
use crate::manifest::manifest;
use crate::metrics::{MetricSet, PER_LAYER};
use crate::verify::{self, Fingerprint};
use crate::workloads::{corner_cut, Shape, Workload, THREADS};
use crate::{procfs, stats};
use galactos_catalog::io::{read_binary, write_binary};
use galactos_catalog::shard::MANIFEST_FILE;
use galactos_catalog::{Catalog, ShardManifest};
use galactos_core::flops::{arithmetic_intensity, kernel_flops_per_pair};
use galactos_core::kernel::PairBuckets;
use galactos_core::traversal::Tree;
use galactos_core::{AnisotropicZeta, Engine, EstimatorChoice, EstimatorKind, ObsSession};
use galactos_domain::exchange::{distribute, tagged_from_catalog};
use galactos_domain::shard::{distribute_from_shards, write_sharded};
use galactos_grid::{DensityMesh, MassAssignment};
use galactos_math::fft::{signed_mode, Direction};
use galactos_math::{lm_count, Mesh3, MonomialBasis, Vec3};
use galactos_obs::chrome::chrome_trace_json;
use galactos_obs::clock::Epoch;
use galactos_obs::SpanRecord;
use galactos_simd::F64x8;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Shards and ranks of the domain and pipeline probes on workloads that
/// are not themselves sharded.
const SHARDS: usize = 16;
const RANKS: usize = 2;
/// Every probe is repeated at least this often and the fastest kept.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 7;
/// Galaxies the pipeline probe keeps of a workload that does not use
/// the distributed path (it costs time there and says nothing).
const PIPELINE_CUT: usize = 800;

struct Ladder<'a> {
    obs: &'a ObsSession,
    /// How long one probe may keep repeating, beyond its minimum.
    budget_s: f64,
    /// `--smoke`: the synthetic probes shrink along with the catalogs.
    smoke: bool,
}

impl Ladder<'_> {
    /// Best-of-k of `f`, each repetition one span named `name`.
    fn probe<T>(
        &self,
        name: &str,
        mut f: impl FnMut() -> T,
        after: impl FnMut(usize, T),
    ) -> Vec<Rep> {
        best_of(
            MIN_REPS,
            MAX_REPS,
            self.budget_s,
            || {
                let _span = self.obs.tracer.span(name);
                f()
            },
            after,
        )
    }

    /// Seconds of the fastest of the repetitions of `f`.
    fn seconds(&self, name: &str, f: impl FnMut()) -> f64 {
        fastest(&self.probe(name, f, |_, ()| ())).wall_s
    }
}

/// Seconds per stage name that `Engine::compute_observed` recorded as
/// aggregates inside the spans named `window`, averaged over those
/// spans. A stage a later engine no longer records is simply absent.
fn stage_seconds(spans: &[SpanRecord], window: &str) -> BTreeMap<String, f64> {
    let windows: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == window).collect();
    let mut stages = BTreeMap::new();
    for s in spans.iter().filter(|s| s.aggregate) {
        let inside =
            |w: &&SpanRecord| w.start_nanos <= s.start_nanos && s.start_nanos <= w.end_nanos;
        if windows.iter().any(inside) {
            *stages.entry(s.name.clone()).or_insert(0.0) +=
                s.duration_nanos() as f64 * 1e-9 / windows.len() as f64;
        }
    }
    stages
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("the shard directory lists")
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// The host's achievable double-precision rate on one thread: eight
/// independent 8-lane multiply-add chains held in registers, for about
/// `seconds`. The a_ℓm kernel's rate is quoted against it (the paper's
/// "39 % of peak").
fn fma_peak_gflops(seconds: f64) -> f64 {
    let mut acc = [F64x8::splat(0.0); 8];
    let (a, b) = (F64x8::splat(1.000000001), F64x8::splat(0.999999999));
    let mut iterations = 0u64;
    let started = Epoch::now();
    let elapsed = loop {
        for _ in 0..500_000 {
            for lane in &mut acc {
                *lane = a.mul_add(b, *lane);
            }
        }
        iterations += 500_000;
        let elapsed = started.elapsed_nanos() as f64 * 1e-9;
        if elapsed >= seconds {
            break elapsed;
        }
    };
    black_box(acc.iter().map(|v| v.horizontal_sum()).sum::<f64>());
    // 8 chains × 8 lanes × 2 flops per iteration.
    iterations as f64 * 128.0 / elapsed / 1e9
}

/// A stream of unit vectors that repeats for a seed (SplitMix64).
struct Directions(u64);

impl Directions {
    fn uniform(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn next(&mut self) -> Vec3 {
        let z = 2.0 * self.uniform() - 1.0;
        let r = (1.0 - z * z).sqrt();
        let phi = 2.0 * std::f64::consts::PI * self.uniform();
        Vec3::new(r * phi.cos(), r * phi.sin(), z)
    }
}

struct KernelRates {
    full_pairs_per_s: f64,
    tail_pairs_per_s: f64,
}

/// The a_ℓm kernel alone, as the engine's resolved backend runs it:
/// full buckets through `flush_bucket`, and the end-of-primary sweep of
/// part-filled buckets (`tail_fill` pairs in each bin) through
/// `flush_residual`.
fn kernel_rates(ladder: &Ladder, engine: &Engine, seed: u64, tail_fill: usize) -> KernelRates {
    let config = engine.config();
    let (nbins, bucket) = (config.bins.nbins(), config.bucket_size);
    let basis = MonomialBasis::new(config.lmax);
    let schedule = basis.schedule();
    let mut acc = engine
        .backend_kind()
        .backend()
        .new_accumulator(nbins, basis.len());
    let mut directions = Directions(seed);
    let pairs: Vec<Vec3> = (0..bucket).map(|_| directions.next()).collect();
    let column = |f: fn(&Vec3) -> f64| pairs.iter().map(f).collect::<Vec<f64>>();
    let (dx, dy, dz) = (column(|p| p.x), column(|p| p.y), column(|p| p.z));
    let w = vec![1.0; bucket];
    let mut sums = vec![0.0; basis.len()];

    // Enough work per repetition that the clock reads do not show.
    let scale = if ladder.smoke { 20 } else { 1 };
    let rounds = (2_000_000 / scale / (nbins * bucket)).max(1);
    let full_s = ladder.seconds("core.kernel.flush_bucket", || {
        acc.reset();
        for _ in 0..rounds {
            for bin in 0..nbins {
                acc.flush_bucket(schedule, bin, black_box(&dx), &dy, &dz, &w);
            }
        }
        acc.finish(schedule);
        acc.reduce_bin(0, &mut sums);
        black_box(&sums);
    });

    let mut buckets = PairBuckets::new(nbins, bucket);
    let tail_rounds = (400_000 / scale / (nbins * tail_fill)).max(1);
    let tail_s = ladder.seconds("core.kernel.flush_residual", || {
        acc.reset();
        for _ in 0..tail_rounds {
            for bin in 0..nbins {
                for p in &pairs[..tail_fill] {
                    buckets.push(bin, p.x, p.y, p.z, 1.0);
                }
            }
            acc.flush_residual(schedule, &mut buckets);
        }
        acc.finish(schedule);
        acc.reduce_bin(0, &mut sums);
        black_box(&sums);
    });
    KernelRates {
        full_pairs_per_s: (rounds * nbins * bucket) as f64 / full_s,
        tail_pairs_per_s: (tail_rounds * nbins * tail_fill) as f64 / tail_s,
    }
}

/// Forward plus inverse 3-D FFT of a dense field and of a thin-shell
/// field (most lines zero, which the transform skips), one thread:
/// seconds of each, and the mesh side they were measured at.
fn fft_seconds(ladder: &Ladder, seed: u64) -> (f64, f64, usize) {
    let side: usize = if ladder.smoke { 16 } else { 64 };
    let mut noise = Directions(seed);
    let dense: Vec<f64> = (0..side * side * side).map(|_| noise.uniform()).collect();
    // Cells between 3/16 and 4/16 of the side from the origin: one
    // radial bin's kernel support at rmax = side/4.
    let (lo, hi) = (3 * side / 16, 4 * side / 16);
    let mut shell = vec![0.0; dense.len()];
    for (cell, v) in shell.iter_mut().enumerate() {
        let at = |axis: usize| signed_mode((cell / side.pow(axis as u32)) % side, side).pow(2);
        let r2 = (at(0) + at(1) + at(2)) as usize;
        if (lo * lo..hi * hi).contains(&r2) {
            *v = 1.0;
        }
    }
    let one_thread = pool(1);
    let round_trip = |name: &str, field: &[f64]| {
        ladder.seconds(name, || {
            let mut mesh = Mesh3::from_real(side, black_box(field));
            one_thread.install(|| {
                mesh.fft3(Direction::Forward);
                mesh.fft3(Direction::Inverse);
            });
            black_box(mesh.data());
        })
    };
    (
        round_trip("math.fft.fft3_dense", &dense),
        round_trip("math.fft.fft3_shell", &shell),
        side,
    )
}

/// Run `workload`'s ladder and export its trace.
pub fn run(workload: &Workload, opts: &RunOpts) -> Outcome {
    let RunOpts {
        seed,
        seconds,
        smoke,
    } = *opts;
    let loadavg_start = procfs::loadavg();
    let obs = ObsSession::enabled();
    obs.tracer.name_track("benchmark");
    let ladder = Ladder {
        obs: &obs,
        budget_s: seconds / 10.0,
        smoke,
    };
    let scratch =
        ScratchDir::create(&format!("{}-trace", workload.name)).expect("out/ is writable");
    let mut ops = Ops::default();
    let mut m = MetricSet::new(PER_LAYER);
    let (one_thread, two_threads) = (pool(1), pool(THREADS));

    let catalog = workload.generate(seed, smoke);
    let n = catalog.len() as f64;
    let config = workload.config(smoke);
    let rmax = config.bins.rmax();
    let box_len = catalog.bounds.extent().x;
    let open = Catalog {
        periodic: None,
        ..catalog.clone()
    };
    let (shards, ranks) = match workload.shape {
        Shape::ShardedLowL { shards, ranks } => (shards, ranks),
        _ => (SHARDS, RANKS),
    };

    // catalog: read the input file, write it as shards.
    let input = scratch.path().join("catalog.gcat");
    write_binary(&catalog, &input).expect("the input file is writable");
    let input_bytes = std::fs::metadata(&input)
        .expect("the input file exists")
        .len() as f64;
    let read_s = ladder.seconds("catalog.read_binary", || {
        black_box(read_binary(&input).expect("the input file reads back"));
    });
    m.set("catalog.read_s", read_s);
    m.set("catalog.read_bytes_per_s", input_bytes / read_s);
    let shard_dir = scratch.path().join("shards");
    let shard_write_s = ladder.seconds("catalog.write_sharded", || {
        write_sharded(&open, shards, &shard_dir).expect("shards are writable");
    });
    m.set("catalog.shard_write_s", shard_write_s);
    m.set(
        "catalog.shard_write_bytes_per_s",
        dir_bytes(&shard_dir) as f64 / shard_write_s,
    );

    // kdtree: build, and the node-to-node walk of every leaf at rmax.
    let positions = catalog.positions();
    let build_s = ladder.seconds("kdtree.build", || {
        black_box(Tree::build(&positions, config.precision));
    });
    let tree = Tree::build(&positions, config.precision);
    let mut candidates = 0u64;
    let leafwalk_s = ladder.seconds("kdtree.leafwalk", || {
        candidates = 0;
        for leaf in tree.leaf_blocks() {
            let mut reach = 0u64;
            tree.for_each_within_of_aabb(leaf.lo, leaf.hi, rmax, catalog.periodic, &mut |s, e| {
                reach += u64::from(e - s)
            });
            candidates += reach * leaf.len() as u64;
        }
    });
    m.set("kdtree.build_s", build_s);
    m.set("kdtree.build_points_per_s", n / build_s);
    m.set("kdtree.leafwalk_s", leafwalk_s);
    m.set(
        "kdtree.leafwalk_candidates_per_s",
        candidates as f64 / leafwalk_s,
    );
    m.set("kdtree.candidates", candidates as f64);

    // core.engine and core.schedule: the workload's own computation at
    // one thread, at two, and at two under an enabled session.
    let new_s = ladder.seconds("core.engine.new", || {
        black_box(Engine::new(config.clone()));
    });
    let engine = Engine::new(config.clone());
    let mut prints: Vec<Fingerprint> = Vec::new();
    let mut keep = |i: usize, zeta: AnisotropicZeta| {
        if i == 0 {
            prints.push(Fingerprint::of(&zeta));
        }
    };
    let t1 = ladder.probe(
        "core.engine.compute.t1",
        || one_thread.install(|| engine.compute(&catalog)),
        &mut keep,
    );
    let t2 = ladder.probe(
        "core.engine.compute.t2",
        || two_threads.install(|| engine.compute(&catalog)),
        &mut keep,
    );
    let t2_observed = ladder.probe(
        "core.engine.compute_observed.t2",
        || two_threads.install(|| engine.compute_observed(&catalog, &obs)),
        &mut keep,
    );
    ops.record(
        "two threads give the one-thread zeta",
        prints[1].check(&prints[0]),
    );
    ops.record(
        "an enabled session gives the same zeta",
        prints[2].check(&prints[0]),
    );
    let (w1, w2, w2_observed) = (
        fastest(&t1).wall_s,
        fastest(&t2),
        fastest(&t2_observed).wall_s,
    );
    let pairs = prints[0].binned_pairs as f64;
    let on_tree = engine.estimator_kind() == EstimatorKind::Tree;
    if on_tree {
        ops.record(
            "the leaf walk covers every binned pair",
            if candidates as f64 >= pairs {
                Ok(())
            } else {
                Err(format!("{candidates} candidates, {pairs} binned pairs"))
            },
        );
    }
    m.set("kdtree.useful_ratio", pairs / candidates.max(1) as f64);

    // core.kernel: the backend the engine resolved, on synthetic pairs.
    let per_bin = pairs / (n * config.bins.nbins() as f64);
    let tail_fill = if (1.0..config.bucket_size as f64).contains(&per_bin) {
        per_bin.round() as usize
    } else {
        config.bucket_size / 2
    };
    let kernel = kernel_rates(&ladder, &engine, seed, tail_fill.max(1));
    let kernel_gflops = kernel.full_pairs_per_s * kernel_flops_per_pair(config.lmax) as f64 / 1e9;
    m.set("core.kernel.full_pairs_per_s", kernel.full_pairs_per_s);
    m.set("core.kernel.tail_pairs_per_s", kernel.tail_pairs_per_s);
    m.set("core.kernel.gflops", kernel_gflops);
    let peak_gflops = fma_peak_gflops(if smoke { 0.03 } else { 0.3 });
    m.set("core.kernel.peak_fraction", kernel_gflops / peak_gflops);
    m.set(
        "core.kernel.flops_per_byte",
        arithmetic_intensity(config.bucket_size, config.lmax),
    );

    // What a subtracted self-pair costs: a slab of primaries of a
    // corner cut, through the tree, with and without the correction.
    let cut = corner_cut(&open, 4000);
    let primaries = cut.len().min(400);
    let subset_seconds = |name: &str, subtract: bool| {
        let mut c = config.clone();
        c.subtract_self_pairs = subtract;
        let engine = Engine::new(c);
        ladder.seconds(name, || {
            black_box(one_thread.install(|| engine.compute_subset(&cut.galaxies, primaries)));
        })
    };
    let with_self = subset_seconds("core.engine.compute_subset.selfpairs", true);
    let without_self = subset_seconds("core.engine.compute_subset.plain", false);

    let spans = obs.tracer.finished();
    let stages = stage_seconds(&spans, "core.engine.compute_observed.t2");
    let stage =
        |stages: &BTreeMap<String, f64>, name: &str| stages.get(name).copied().unwrap_or(0.0);
    m.set("core.engine.new_s", new_s);
    m.set("core.engine.binned_pairs", pairs);
    m.set("core.engine.pairs_per_s", pairs / w1);
    m.set("core.engine.us_per_primary", w1 / n * 1e6);
    // The wall clock that is neither tree work nor the kernel; on the
    // grid estimator, which has neither, all of it.
    let tree_and_kernel = build_s + leafwalk_s + pairs / kernel.full_pairs_per_s;
    m.set(
        "core.engine.outside_kernel_s",
        w1 - if on_tree { tree_and_kernel } else { 0.0 },
    );
    m.set("core.engine.search_s", stage(&stages, "search"));
    m.set("core.engine.bin_s", stage(&stages, "bin"));
    m.set("core.engine.kernel_s", stage(&stages, "kernel"));
    m.set("core.engine.assembly_s", stage(&stages, "assembly"));
    m.set("core.engine.selfpair_cost_ratio", with_self / without_self);
    m.set("core.schedule.speedup_t2", w1 / w2.wall_s);
    m.set("core.schedule.cpu_per_wall", w2.cpu_s / w2.wall_s);

    // math.fft
    let (dense_s, shell_s, side) = fft_seconds(&ladder, seed);
    let cells = (side * side * side) as f64;
    m.set("math.fft.fft3_dense_s", dense_s);
    m.set("math.fft.fft3_shell_s", shell_s);
    m.set("math.fft.cells_per_s", 2.0 * cells / dense_s);
    m.set(
        "math.fft.gflops",
        2.0 * 5.0 * cells * cells.log2() / dense_s / 1e9,
    );

    // grid: painting on the workload's catalog; the estimator's stages
    // on the workload itself where it is the grid workload, and on the
    // `grid_equivalence` reduced problem elsewhere.
    let mesh = match config.estimator {
        EstimatorChoice::Grid(grid) => grid.mesh,
        _ => side,
    };
    let periodic = Catalog::new_periodic(catalog.galaxies.clone(), box_len);
    let paint_s = ladder.seconds("grid.paint", || {
        black_box(one_thread.install(|| {
            DensityMesh::paint_with(&periodic, mesh, MassAssignment::Cic, false, |g| g.weight)
        }));
    });
    m.set("grid.paint_s", paint_s);
    m.set("grid.paint_galaxies_per_s", n / paint_s);
    let (reduced, reduced_tree, reduced_grid) = verify::grid_reduced_problem(seed);
    let reduced_engine = Engine::new(reduced_grid.clone());
    let mut reduced_zeta = None;
    ladder.probe(
        "grid.reduced.compute_observed",
        || two_threads.install(|| reduced_engine.compute_observed(&reduced, &obs)),
        |_, zeta| reduced_zeta = Some(zeta),
    );
    let reduced_reference = two_threads.install(|| Engine::new(reduced_tree).compute(&reduced));
    let rel_diff = verify::rel_diff(&reduced_zeta.expect("the probe ran"), &reduced_reference);
    let reduced_check = verify::within("grid vs tree", rel_diff, verify::GRID_TOLERANCE);
    ops.record("the reduced grid problem", reduced_check.map(|_| ()));
    let reduced_stages = stage_seconds(&obs.tracer.finished(), "grid.reduced.compute_observed");
    let (grid_stages, grid_config) = if on_tree {
        (&reduced_stages, &reduced_grid)
    } else {
        (&stages, &config)
    };
    let grid_total: f64 = ["paint", "fields", "contract", "selfpair"]
        .iter()
        .map(|s| stage(grid_stages, s))
        .sum();
    m.set("grid.fields_s", stage(grid_stages, "fields"));
    m.set("grid.contract_s", stage(grid_stages, "contract"));
    m.set("grid.selfpair_s", stage(grid_stages, "selfpair"));
    m.set(
        "grid.fft_share",
        stage(grid_stages, "fields") / grid_total.max(f64::MIN_POSITIVE),
    );
    // Computed: a forward and an inverse transform per (ℓ, m ≥ 0, bin)
    // shell kernel, and one forward transform of the density.
    m.set(
        "grid.fft_count",
        (2 * lm_count(grid_config.lmax) * grid_config.bins.nbins() + 1) as f64,
    );
    m.set("grid.rel_diff_vs_tree", rel_diff);

    // domain: what each rank streams from the shards written above.
    let shard_manifest =
        ShardManifest::read(shard_dir.join(MANIFEST_FILE)).expect("the manifest reads");
    let mut rank_data = Vec::new();
    let ingest_s = ladder.seconds("domain.distribute_from_shards", || {
        rank_data = (0..ranks)
            .map(|rank| {
                distribute_from_shards(&shard_dir, &shard_manifest, rank, ranks, rmax)
                    .expect("the shards read back")
            })
            .collect();
    });
    let owned: Vec<f64> = rank_data.iter().map(|r| r.owned.len() as f64).collect();
    let total = |f: fn(&galactos_domain::shard::ShardRankData) -> u64| {
        rank_data.iter().map(f).sum::<u64>() as f64
    };
    ops.record(
        "every galaxy is owned by exactly one rank",
        if owned.iter().sum::<f64>() == n {
            Ok(())
        } else {
            Err(format!("ranks own {owned:?} of {n}"))
        },
    );
    m.set("domain.ingest_s", ingest_s);
    m.set(
        "domain.ingest_records_per_s",
        total(|r| r.records_read) / ingest_s,
    );
    m.set("domain.ingest_bytes", total(|r| r.bytes_read));
    m.set("domain.ghost_ratio", total(|r| r.ghosts.len() as u64) / n);
    m.set("domain.imbalance", stats::max(&owned) * ranks as f64 / n);

    // core.pipeline: the supervised distributed run against one process
    // on the same catalog and threads. Full size on the sharded
    // workload, a small corner elsewhere.
    let sharded_workload = matches!(workload.shape, Shape::ShardedLowL { .. });
    let mut pipeline_config = config.clone();
    pipeline_config.estimator = EstimatorChoice::Tree;
    let (pipeline_catalog, pipeline_dir) = if sharded_workload {
        (open.clone(), shard_dir.clone())
    } else {
        let cut = corner_cut(&open, PIPELINE_CUT);
        let dir = scratch.path().join("pipeline_shards");
        write_sharded(&cut, shards, &dir).expect("shards are writable");
        (cut, dir)
    };
    let mut supervised_run = None;
    let supervised = ladder.probe(
        "core.pipeline.compute_distributed_supervised",
        || {
            verify::supervised(&pipeline_dir, &pipeline_config, ranks)
                .expect("a fault-free supervised run succeeds")
        },
        |_, run| supervised_run = Some(run),
    );
    let supervised_run = supervised_run.expect("the probe ran");
    let pipeline_engine = Engine::new(pipeline_config.clone());
    let mut single_zeta = None;
    let single = ladder.probe(
        "core.pipeline.single_process",
        || two_threads.install(|| pipeline_engine.compute(&pipeline_catalog)),
        |_, zeta| single_zeta = Some(zeta),
    );
    let pipeline_diff =
        verify::rel_diff(&supervised_run.zeta, &single_zeta.expect("the probe ran"));
    let pipeline_check = verify::within(
        "supervised vs single process",
        pipeline_diff,
        verify::TOLERANCE,
    );
    ops.record("the supervised run", pipeline_check.map(|_| ()));
    let rank_pairs: Vec<f64> = supervised_run
        .ranks
        .iter()
        .map(|r| r.binned_pairs as f64)
        .collect();
    let mean_pairs = rank_pairs.iter().sum::<f64>() / rank_pairs.len() as f64;
    m.set(
        "core.pipeline.overhead_ratio",
        fastest(&supervised).wall_s / fastest(&single).wall_s,
    );
    m.set(
        "core.pipeline.rank_pairs_imbalance",
        stats::max(&rank_pairs) / mean_pairs.max(1.0),
    );

    // cluster: the in-memory scatter and halo exchange alone.
    let exchange_catalog = corner_cut(&open, 100_000);
    let tagged = tagged_from_catalog(&exchange_catalog);
    let mut traffic = (0, 0);
    let exchange_s = ladder.seconds("cluster.distribute", || {
        let sent = galactos_cluster::run_cluster(ranks, |comm| {
            let counters = Arc::clone(comm.traffic());
            let data = (comm.rank() == 0).then(|| tagged.clone());
            black_box(distribute(comm, data, exchange_catalog.bounds, rmax));
            let snapshot = counters.snapshot();
            (snapshot.bytes_sent, snapshot.messages_sent)
        });
        traffic = sent.iter().fold((0, 0), |t, s| (t.0 + s.0, t.1 + s.1));
    });
    m.set("core.pipeline.exchange_wall_s", exchange_s);
    m.set("cluster.bytes_sent", traffic.0 as f64);
    m.set("cluster.messages_sent", traffic.1 as f64);

    // harness: whether this run was disturbed, and what tracing costs.
    m.set("harness.rep_spread", stats::rep_spread(&walls(&t2)));
    m.set("harness.trace_overhead", w2_observed / w2.wall_s - 1.0);
    m.set("harness.loadavg_start", loadavg_start);

    std::fs::create_dir_all(crate::out_dir()).expect("out/ is writable");
    let trace = crate::out_dir().join(format!("TRACE_{}.json", workload.name));
    let title = format!("galactos benchmark: {}", workload.name);
    std::fs::write(&trace, chrome_trace_json(&obs.tracer, &title)).expect("out/ is writable");

    let repetitions = |reps: &[Rep]| Json::nums(&walls(reps));
    let detail = Json::obj([
        (
            "manifest",
            manifest(workload, &engine, opts, true, loadavg_start),
        ),
        ("trace_file", Json::Str(trace.display().to_string())),
        ("compute_t1_s", repetitions(&t1)),
        ("compute_t2_s", repetitions(&t2)),
        ("compute_observed_t2_s", repetitions(&t2_observed)),
        ("supervised_s", repetitions(&supervised)),
        ("single_process_s", repetitions(&single)),
        ("kernel_tail_fill", Json::Num(tail_fill as f64)),
        (
            "pipeline_galaxies",
            Json::Num(pipeline_catalog.len() as f64),
        ),
        (
            "exchange_galaxies",
            Json::Num(exchange_catalog.len() as f64),
        ),
    ]);
    Outcome {
        ops,
        metrics: m.finish(),
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, aggregate: bool) -> SpanRecord {
        SpanRecord {
            path: name.into(),
            name: name.into(),
            track: 0,
            depth: 0,
            start_nanos: start,
            end_nanos: end,
            calls: 1,
            aggregate,
        }
    }

    #[test]
    fn stage_seconds_average_the_aggregates_inside_the_named_windows() {
        let spans = [
            span("window", 0, 1_000, false),
            span("kernel", 10, 410, true),
            span("search", 500, 600, true),
            span("window", 2_000, 3_000, false),
            span("kernel", 2_100, 2_300, true),
            span("kernel", 5_000, 9_000, true), // outside both windows
            span("chunk", 20, 900, false),      // a real span, not a stage total
        ];
        let stages = stage_seconds(&spans, "window");
        assert_eq!(stages.len(), 2);
        assert!((stages["kernel"] - 300e-9).abs() < 1e-18);
        assert!((stages["search"] - 50e-9).abs() < 1e-18);
        assert!(stage_seconds(&spans, "absent").is_empty());
    }

    #[test]
    fn directions_are_unit_vectors_that_repeat_for_a_seed() {
        let (mut a, mut b) = (Directions(9), Directions(9));
        for _ in 0..100 {
            let (p, q) = (a.next(), b.next());
            assert_eq!(p, q);
            assert!((p.norm() - 1.0).abs() < 1e-12);
        }
        assert_ne!(Directions(1).next(), Directions(2).next());
    }

    /// The whole ladder on workloads shrunk until a debug build runs
    /// them in seconds: every declared per-layer metric comes out once,
    /// every check passes, and the trace is written.
    #[test]
    fn every_workload_emits_exactly_the_per_layer_metrics() {
        for (name, n) in [
            ("tree_sparse", 300),
            ("grid_paper", 300),
            ("sharded_lowl", 3000),
        ] {
            let mut w = *crate::workloads::by_name(name).unwrap();
            w.smoke_n = n;
            if let Shape::Grid { .. } = w.shape {
                w.shape = Shape::Grid { mesh: 8 }; // 4³ cells under --smoke
            }
            let opts = RunOpts {
                seed: 5,
                seconds: 0.0,
                smoke: true,
            };
            let outcome = run(&w, &opts);
            assert!(
                outcome.ops.failures.is_empty(),
                "{name}: {:?}",
                outcome.ops.failures
            );
            let emitted = outcome.metrics.unwrap_or_else(|p| panic!("{name}: {p:?}"));
            let names: Vec<_> = emitted.iter().map(|(d, _)| d.name).collect();
            let declared: Vec<_> = PER_LAYER.iter().map(|d| d.name).collect();
            assert_eq!(names, declared, "{name}");
            let trace =
                std::fs::read_to_string(crate::out_dir().join(format!("TRACE_{name}.json")))
                    .unwrap();
            assert!(Json::parse(&trace).unwrap().get("traceEvents").is_some());
            assert!(trace.contains("core.engine.compute_observed.t2"));
        }
    }
}
