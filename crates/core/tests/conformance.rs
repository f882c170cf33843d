//! One differential suite for every ζ path. The paper's core claim
//! (§3.1, Algorithm 1) is that the O(N²) spherical-harmonic sum equals
//! the O(N³) triplet count; this suite holds every path that computes ζ
//! to that claim and to each other, one drawn case at a time.
//!
//! Each case draws an open or periodic catalog of 2 to about 300
//! galaxies (uniform, Neyman–Scott clustered, or on a coarse lattice,
//! which puts coincident points and separations exactly on bin edges)
//! with weights of both signs, as a D − R catalog has; ℓmax 0–10, with
//! fewer galaxies at high ℓ; linear bins from 0, linear bins from
//! rmin > 0 or logarithmic ones, with rmax up to exactly box/2 when
//! periodic; the line of sight (fixed ẑ, fixed tilted, or radial with
//! the observer outside, inside or on a galaxy; fixed only when
//! periodic); self-pair subtraction; the bucket size; 1 or 2 threads;
//! and, for open catalogs, 1–6 shards, two rank counts and whether a
//! transient kill hits the second. Every path runs on the draw, and:
//!
//! - (a) every tree path ({leaf-blocked, per-primary} × {SIMD, scalar})
//!   and the supervised run bin exactly `seminaive_anisotropic`'s pairs
//!   and primaries;
//! - (b) relative to max |ζ|, ζ agrees to 1e-10 between kernels, 1e-9
//!   between traversals, 1e-9 with `naive_anisotropic` when n ≤ 40 and
//!   1e-8 with `seminaive_anisotropic` (which keeps self pairs, so only
//!   without self-pair subtraction);
//! - (c) `ζ^m_{ℓ'ℓ}(b₂,b₁) = conj ζ^m_{ℓℓ'}(b₁,b₂)` exactly, on the tree,
//!   the supervised run and the grid (mesh 16, periodic draws of at
//!   most [`MAX_GRID_FIELDS`] shell fields);
//! - (d) leaf-blocked SIMD gives the same bits at 1 and 2 threads;
//! - (e) the supervised run's shard partials, merged in shard order,
//!   are its ζ bit for bit; its bits are the same at both rank counts
//!   and with the kill; and its ζ is within 1e-9 of the engine's.
//!
//! A failing draw prints its seed and the whole case; `Case::draw(seed)`
//! rebuilds it.

use galactos_catalog::shard::MANIFEST_FILE;
use galactos_catalog::{Catalog, Galaxy};
use galactos_cluster::fault::FaultPlan;
use galactos_core::naive::{naive_anisotropic, seminaive_anisotropic};
use galactos_core::pipeline::{compute_distributed_supervised, RetryPolicy};
use galactos_core::{
    AnisotropicZeta, BackendChoice, BackendKind, Engine, EngineConfig, EstimatorChoice, GridConfig,
    RadialBins, TraversalChoice, TraversalKind,
};
use galactos_domain::shard::write_sharded;
use galactos_math::{LineOfSight, Vec3};
use galactos_mocks::cluster_process::NeymanScott;
use proptest::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// The lattice step: box sides, rmax and lattice coordinates are
/// multiples of it, so lattice separations can hit bin edges exactly.
const STEP: f64 = 0.5;

/// The grid runs on periodic draws of at most this many shell fields,
/// `(ℓmax+1)(ℓmax+2)/2 · nbins`, each a pair of mesh-16 FFTs.
const MAX_GRID_FIELDS: usize = 30;

#[derive(Debug)]
struct Case {
    catalog: Catalog,
    config: EngineConfig,
    threads: usize,
    /// Open catalogs only.
    shards: Option<Shards>,
}

#[derive(Debug)]
struct Shards {
    count: usize,
    ranks: [usize; 2],
    /// The `(rank, phase)` killed once in the run at `ranks[1]`.
    kill: Option<(usize, &'static str)>,
}

impl Case {
    fn draw(seed: u64) -> Case {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let periodic = rng.random_bool(0.5);
        let lmax = rng.random_range(0..=10usize);
        let n = rng.random_range(2..=2 + 298 * 4 / (4 + lmax * lmax));
        let steps = 2 * rng.random_range(4..=12usize);
        let side = STEP * steps as f64;
        let positions: Vec<Vec3> = match rng.random_range(0..3) {
            0 => (0..n).map(|_| point(&mut rng, 0.0, side)).collect(),
            1 => {
                let parent_density = n as f64 / (6.0 * side.powi(3));
                let clusters = NeymanScott {
                    parent_density,
                    mean_children: 6.0,
                    sigma: 0.03 * side,
                };
                let catalog = clusters.generate(side, rng.next_u64());
                let mut p: Vec<Vec3> = catalog.galaxies.iter().map(|g| g.pos).collect();
                p.resize_with(n, || point(&mut rng, 0.0, side));
                p
            }
            _ => {
                let mut x = || STEP * rng.random_range(0..steps) as f64;
                (0..n).map(|_| Vec3::new(x(), x(), x())).collect()
            }
        };
        let galaxies: Vec<Galaxy> = positions
            .into_iter()
            .map(|pos| {
                let sign = if rng.random_bool(0.7) { 1.0 } else { -0.4 };
                Galaxy::new(pos, sign * rng.random_range(0.25..2.0))
            })
            .collect();

        let max_steps = if periodic { steps / 2 } else { steps };
        let rmax_steps = match periodic && rng.random_bool(0.3) {
            true => max_steps,
            false => rng.random_range(1..=max_steps),
        };
        let rmax = STEP * rmax_steps as f64;
        let rmin = rmax * rng.random_range(1..=3) as f64 / 4.0;
        let nbins = rng.random_range(1..=5);
        let mut config = EngineConfig::test_default(rmax, lmax, nbins);
        config.bins = match rng.random_range(0..3) {
            0 => RadialBins::linear(0.0, rmax, nbins),
            1 => RadialBins::linear(rmin, rmax, nbins),
            _ => RadialBins::logarithmic(rmin, rmax, nbins),
        };
        config.line_of_sight = match rng.random_range(0..if periodic { 2 } else { 5 }) {
            0 => LineOfSight::Fixed(Vec3::Z),
            1 => LineOfSight::Fixed(point(&mut rng, -1.0, 1.0) + Vec3::Z * 2.0),
            2 => LineOfSight::Radial {
                observer: point(&mut rng, -3.0 * side, -2.0 * side),
            },
            3 => LineOfSight::Radial {
                observer: point(&mut rng, 0.0, side),
            },
            _ => LineOfSight::Radial {
                observer: galaxies[rng.random_range(0..n)].pos,
            },
        };
        config.subtract_self_pairs = rng.random_bool(0.5);
        config.bucket_size = rng.random_range(1..=64);
        let threads = rng.random_range(1..=2);
        let shards = (!periodic).then(|| {
            let a = rng.random_range(1..=3usize);
            let b = 1 + (a + rng.random_range(0..2usize)) % 3;
            let phase = ["ingest", "compute", "reduce"][rng.random_range(0..3usize)];
            let kill = rng
                .random_bool(0.5)
                .then(|| (rng.random_range(0..b), phase));
            Shards {
                count: rng.random_range(1..=6),
                ranks: [a, b],
                kill,
            }
        });
        let catalog = match periodic {
            true => Catalog::new_periodic(galaxies, side),
            false => Catalog::new(galaxies),
        };
        Case {
            catalog,
            config,
            threads,
            shards,
        }
    }
}

/// A point drawn uniformly from the cube `[lo, hi)³`.
fn point(rng: &mut ChaCha8Rng, lo: f64, hi: f64) -> Vec3 {
    let mut x = || rng.random_range(lo..hi);
    Vec3::new(x(), x(), x())
}

/// A relation that holds, or what broke it.
type Check = Result<(), String>;

macro_rules! ensure {
    ($cond:expr, $($why:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($why)+));
        }
    };
}

/// `got` within `tol` of `want`, relative to `want`'s largest |ζ|.
fn close(got: &AnisotropicZeta, want: &AnisotropicZeta, tol: f64, what: &str) -> Check {
    let rel = got.max_difference(want) / want.max_abs().max(1.0);
    ensure!(rel <= tol, "{what}: relative difference {rel:e} > {tol:e}");
    Ok(())
}

fn bits(zeta: &AnisotropicZeta) -> Vec<u64> {
    zeta.to_f64_vec().iter().map(|v| v.to_bits()).collect()
}

fn hermitian(zeta: &AnisotropicZeta, what: &str) -> Check {
    let (lmax, nbins) = (zeta.lmax(), zeta.nbins());
    for (l, lp) in (0..=lmax).flat_map(|l| (0..=lmax).map(move |lp| (l, lp))) {
        for m in 0..=l.min(lp) {
            for (b1, b2) in (0..nbins).flat_map(|b1| (0..nbins).map(move |b2| (b1, b2))) {
                let (a, b) = (zeta.get(l, lp, m, b1, b2), zeta.get(lp, l, m, b2, b1));
                let at = (l, lp, m, b1, b2);
                ensure!(a == b.conj(), "{what}: not Hermitian at {at:?}");
            }
        }
    }
    Ok(())
}

fn check(case: &Case) -> Check {
    let (catalog, config, threads) = (&case.catalog, &case.config, case.threads);
    let (galaxies, periodic) = (&catalog.galaxies, catalog.periodic);
    let on = |threads: usize, config: EngineConfig| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| Engine::new(config).compute(catalog))
    };
    let tree = |traversal, backend, threads| {
        let mut config = config.clone();
        config.traversal = TraversalChoice::Fixed(traversal);
        config.kernel_backend = BackendChoice::Fixed(backend);
        on(threads, config)
    };
    let fields = (config.lmax + 1) * (config.lmax + 2) / 2 * config.bins.nbins();
    let grid = (periodic.is_some() && fields <= MAX_GRID_FIELDS).then(|| EngineConfig {
        estimator: EstimatorChoice::Grid(GridConfig::with_mesh(16)),
        ..config.clone()
    });
    let other = 3 - threads;

    // The four tree paths run here; every other path beside them, on a
    // thread of its own.
    let (semi, naive, grid, lb_simd_other, supervised, paths) = std::thread::scope(|s| {
        let semi = s.spawn(|| seminaive_anisotropic(galaxies, config, periodic));
        let naive = s.spawn(|| {
            let include_self = !config.subtract_self_pairs;
            (galaxies.len() <= 40)
                .then(|| naive_anisotropic(galaxies, config, periodic, include_self))
        });
        let grid = s.spawn(|| grid.map(|grid| on(threads, grid)));
        let lb_simd_other = s.spawn(|| tree(TraversalKind::LeafBlocked, BackendKind::Simd, other));
        let supervised = s.spawn(|| supervised(case));
        let paths: Vec<_> = TraversalKind::ALL
            .into_iter()
            .flat_map(|t| BackendKind::ALL.map(|b| ((t.name(), b.name()), tree(t, b, threads))))
            .collect();
        (
            semi.join().unwrap(),
            naive.join().unwrap(),
            grid.join().unwrap(),
            lb_simd_other.join().unwrap(),
            supervised.join().unwrap(),
            paths,
        )
    });

    let [(_, pp_scalar), (_, pp_simd), (_, lb_scalar), (_, lb_simd)] = &paths[..] else {
        unreachable!("two traversals × two kernels")
    };
    close(pp_simd, pp_scalar, 1e-10, "per-primary: SIMD vs scalar")?;
    close(lb_simd, lb_scalar, 1e-10, "leaf-blocked: SIMD vs scalar")?;
    close(lb_scalar, pp_scalar, 1e-9, "scalar: blocked vs per-primary")?;
    close(lb_simd, pp_simd, 1e-9, "SIMD: blocked vs per-primary")?;
    let supervised = supervised?;
    if let Some(zeta) = &supervised {
        close(zeta, lb_simd, 1e-9, "supervised vs the engine")?;
    }
    let supervised = supervised.iter().map(|zeta| (("supervised", ""), zeta));
    for (path, zeta) in paths
        .iter()
        .map(|(path, zeta)| (*path, zeta))
        .chain(supervised)
    {
        let counts = |z: &AnisotropicZeta| (z.binned_pairs, z.num_primaries);
        ensure!(
            counts(zeta) == counts(&semi),
            "{path:?}: (pairs, primaries) {:?}, the oracle's {:?}",
            counts(zeta),
            counts(&semi)
        );
        if let Some(naive) = &naive {
            close(zeta, naive, 1e-9, &format!("{path:?} vs O(N³)"))?;
        }
        if !config.subtract_self_pairs {
            close(zeta, &semi, 1e-8, &format!("{path:?} vs O(N²·ℓm)"))?;
        }
        hermitian(zeta, &format!("{path:?}"))?;
    }
    if let Some(grid) = &grid {
        hermitian(grid, "grid")?;
    }
    ensure!(
        bits(&lb_simd_other) == bits(lb_simd),
        "leaf-blocked SIMD: bits move at {other} threads"
    );
    Ok(())
}

/// The supervised run of an open draw at both rank counts: its ζ, once
/// its shard partials merge to it and both runs agree bit for bit.
fn supervised(case: &Case) -> Result<Option<AnisotropicZeta>, String> {
    let Some(Shards { count, ranks, kill }) = case.shards else {
        return Ok(None);
    };
    let dir = std::env::temp_dir().join(format!("galactos_conformance_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    write_sharded(&case.catalog, count, &dir).map_err(|e| e.to_string())?;
    let policy = RetryPolicy::default();
    let run = |ranks, plan| {
        compute_distributed_supervised(dir.join(MANIFEST_FILE), &case.config, ranks, &policy, plan)
            .map_err(|e| format!("supervised at {ranks} ranks: {e}"))
    };
    let plan = kill.map_or(FaultPlan::none(), |(rank, phase)| {
        FaultPlan::none().with_phase_kill(rank, phase, 1)
    });
    let runs = (run(ranks[0], FaultPlan::none()), run(ranks[1], plan));
    std::fs::remove_dir_all(&dir).ok();
    let (first, second) = (runs.0?, runs.1?);
    let mut merged = AnisotropicZeta::zeros(first.zeta.lmax(), first.zeta.nbins());
    first.shard_partials.iter().for_each(|p| merged.merge(p));
    ensure!(
        bits(&merged) == bits(&first.zeta),
        "supervised: shard partials do not merge to ζ"
    );
    ensure!(
        bits(&second.zeta) == bits(&first.zeta),
        "supervised: bits move at {ranks:?} ranks"
    );
    Ok(Some(first.zeta))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_path_agrees_on_every_draw(seed in 0..u64::MAX) {
        let case = Case::draw(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&case)))
            .unwrap_or_else(|_| Err("a path panicked".into()));
        prop_assert!(outcome.is_ok(), "{}\nseed {seed}: {case:#?}", outcome.unwrap_err());
    }
}
