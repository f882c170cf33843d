//! Checks on the ζ a run timed: a fingerprint compared with the blessed
//! one in `expected/<workload>.json` (default seed), and a differential
//! check against an independent path of the engine (any seed).

use crate::harness::pool;
use crate::json::Json;
use crate::workloads::{corner_cut, Shape, Workload, DEFAULT_SEED, THREADS};
use galactos_catalog::shard::MANIFEST_FILE;
use galactos_catalog::{uniform_box, Catalog};
use galactos_cluster::fault::FaultPlan;
use galactos_core::{
    compute_distributed_supervised, AnisotropicZeta, BackendChoice, BackendKind, Engine,
    EngineConfig, EstimatorChoice, GridConfig, RetryPolicy, SupervisedRun, TraversalChoice,
    TraversalKind,
};
use std::path::{Path, PathBuf};

/// Relative tolerance of every ζ comparison between exact paths.
pub const TOLERANCE: f64 = 1e-9;
/// Mesh 64 against the tree on the `grid_equivalence` reduced problem.
/// That test's own gate, 1e-2, holds for its one catalog (seed 4242);
/// the difference is mesh-assignment noise of the random sample, and
/// over 252 seeds it was 0.0036–0.0120 (one seed in fifteen above
/// 1e-2). A run must pass on any seed, so the gate here is twice the
/// largest seen; a broken grid path is off by order one.
pub const GRID_TOLERANCE: f64 = 2.5e-2;

const FINGERPRINT_COEFFICIENTS: usize = 32;

/// What is kept of one ζ: enough that any change to any stage of the
/// computation moves it, small enough to commit.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    pub primaries: u64,
    pub binned_pairs: u64,
    /// Σ|ζ| over every stored coefficient.
    pub sum_abs: f64,
    /// Real and imaginary parts of 32 coefficients spread evenly over
    /// the stored array.
    pub coefficients: Vec<f64>,
}

impl Fingerprint {
    pub fn of(zeta: &AnisotropicZeta) -> Self {
        let data = zeta.data();
        let pick = |i: usize| data[i * (data.len() - 1) / (FINGERPRINT_COEFFICIENTS - 1)];
        Fingerprint {
            primaries: zeta.num_primaries,
            binned_pairs: zeta.binned_pairs,
            sum_abs: data.iter().map(|z| z.abs()).sum(),
            coefficients: (0..FINGERPRINT_COEFFICIENTS)
                .flat_map(|i| [pick(i).re, pick(i).im])
                .collect(),
        }
    }

    /// `Err` says why `self` is not the ζ that `want` fingerprints:
    /// counts must be equal, numbers within [`TOLERANCE`] of the scale
    /// of the expected coefficients.
    pub fn check(&self, want: &Fingerprint) -> Result<(), String> {
        self.mismatch(want).map_or(Ok(()), Err)
    }

    fn mismatch(&self, want: &Fingerprint) -> Option<String> {
        if self.primaries != want.primaries {
            return Some(format!(
                "primaries {} != expected {}",
                self.primaries, want.primaries
            ));
        }
        if self.binned_pairs != want.binned_pairs {
            return Some(format!(
                "binned_pairs {} != expected {}",
                self.binned_pairs, want.binned_pairs
            ));
        }
        if self.coefficients.len() != want.coefficients.len() {
            return Some("coefficient count differs".into());
        }
        // A NaN on either side is a mismatch, not a pass.
        let off = |got: f64, want: f64, scale: f64| {
            let apart = (got - want).abs();
            apart.is_nan() || apart > TOLERANCE * scale
        };
        if off(self.sum_abs, want.sum_abs, want.sum_abs.abs()) {
            return Some(format!(
                "sum|zeta| {:e} != expected {:e}",
                self.sum_abs, want.sum_abs
            ));
        }
        let scale = want.coefficients.iter().fold(0.0f64, |m, c| m.max(c.abs()));
        (0..want.coefficients.len())
            .find(|&i| off(self.coefficients[i], want.coefficients[i], scale))
            .map(|i| {
                format!(
                    "coefficient {i}: {:e} != expected {:e}",
                    self.coefficients[i], want.coefficients[i]
                )
            })
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("primaries", Json::Num(self.primaries as f64)),
            ("binned_pairs", Json::Num(self.binned_pairs as f64)),
            ("sum_abs", Json::Num(self.sum_abs)),
            ("coefficients", Json::nums(&self.coefficients)),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Self> {
        Some(Fingerprint {
            primaries: v.get("primaries")?.as_f64()? as u64,
            binned_pairs: v.get("binned_pairs")?.as_f64()? as u64,
            sum_abs: v.get("sum_abs")?.as_f64()?,
            coefficients: v
                .get("coefficients")?
                .as_arr()?
                .iter()
                .map(Json::as_f64)
                .collect::<Option<_>>()?,
        })
    }
}

fn size_key(smoke: bool) -> &'static str {
    if smoke {
        "smoke"
    } else {
        "full"
    }
}

pub fn expected_path(bench_dir: &Path, workload: &str) -> PathBuf {
    bench_dir.join("expected").join(format!("{workload}.json"))
}

/// The blessed fingerprint of `workload` at this size, if the run is
/// one it applies to (default seed) and the file has it.
pub fn load_expected(
    bench_dir: &Path,
    workload: &str,
    seed: u64,
    smoke: bool,
) -> Result<Option<Fingerprint>, String> {
    if seed != DEFAULT_SEED {
        return Ok(None);
    }
    let path = expected_path(bench_dir, workload);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let section = doc
        .get(size_key(smoke))
        .ok_or_else(|| format!("{}: no `{}` section", path.display(), size_key(smoke)))?;
    Fingerprint::from_json(section)
        .map(Some)
        .ok_or_else(|| format!("{}: malformed fingerprint", path.display()))
}

/// `--bless`: record `fingerprint` as the expected one for this size,
/// keeping the file's other size.
pub fn bless(
    bench_dir: &Path,
    workload: &str,
    smoke: bool,
    fingerprint: &Fingerprint,
) -> std::io::Result<()> {
    let path = expected_path(bench_dir, workload);
    let old = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| Json::parse(&t).ok());
    let section = |key: &str| {
        if key == size_key(smoke) {
            Some(fingerprint.to_json())
        } else {
            old.as_ref().and_then(|o| o.get(key)).cloned()
        }
    };
    let mut pairs = vec![
        ("workload".to_string(), Json::Str(workload.into())),
        ("seed".to_string(), Json::Num(DEFAULT_SEED as f64)),
    ];
    for key in ["full", "smoke"] {
        if let Some(v) = section(key) {
            pairs.push((key.to_string(), v));
        }
    }
    std::fs::create_dir_all(path.parent().expect("expected/ has a parent"))?;
    std::fs::write(&path, Json::Obj(pairs).pretty())
}

/// Largest coefficient difference over the scale of the reference.
pub fn rel_diff(got: &AnisotropicZeta, want: &AnisotropicZeta) -> f64 {
    got.max_difference(want) / want.max_abs().max(f64::MIN_POSITIVE)
}

/// `diff` if it is within `tolerance`, else what was compared and by
/// how much it missed.
pub fn within(what: &str, diff: f64, tolerance: f64) -> Result<f64, String> {
    if diff <= tolerance {
        Ok(diff)
    } else {
        Err(format!(
            "{what}: relative difference {diff:e} > {tolerance:e}"
        ))
    }
}

/// Run the supervised distributed pipeline, fault-free, over the
/// shards in `dir`.
pub fn supervised(
    dir: &Path,
    config: &EngineConfig,
    ranks: usize,
) -> Result<SupervisedRun, String> {
    compute_distributed_supervised(
        dir.join(MANIFEST_FILE),
        config,
        ranks,
        &RetryPolicy::default(),
        FaultPlan::none(),
    )
    .map_err(|e| e.to_string())
}

/// The `grid_equivalence` reduced problem (1500 uniform galaxies in a
/// periodic box of 20, ℓmax 3, 3 bins to 5, self-pairs subtracted) on
/// both estimators. Returns (tree ζ, grid ζ at mesh 64).
pub fn grid_reduced_problem(seed: u64) -> (Catalog, EngineConfig, EngineConfig) {
    let catalog = uniform_box(1500, 20.0, seed);
    let mut tree = EngineConfig::test_default(5.0, 3, 3);
    tree.subtract_self_pairs = true;
    tree.estimator = EstimatorChoice::Tree;
    let mut grid = tree.clone();
    grid.estimator = EstimatorChoice::Grid(GridConfig::with_mesh(64));
    (catalog, tree, grid)
}

/// The untimed check that holds on any seed. Returns the relative
/// difference it measured.
///
/// * tree workloads: the first 512 primaries through the shipped
///   configuration and through the scalar kernel with per-primary
///   traversal agree to [`TOLERANCE`];
/// * the grid workload: the reduced problem's grid ζ is within
///   [`GRID_TOLERANCE`] of the tree's;
/// * the sharded workload: on a 50 000-galaxy cut the supervised
///   pipeline agrees with single-process `Engine::compute`.
pub fn differential(
    workload: &Workload,
    catalog: &Catalog,
    config: &EngineConfig,
    seed: u64,
    scratch: &Path,
) -> Result<f64, String> {
    let pool = pool(THREADS);
    match workload.shape {
        Shape::Paper { .. } => {
            let primaries = catalog.len().min(512);
            let mut reference = config.clone();
            reference.kernel_backend = BackendChoice::Fixed(BackendKind::Scalar);
            reference.traversal = TraversalChoice::Fixed(TraversalKind::PerPrimary);
            let subset = |c: &EngineConfig| {
                let engine = Engine::new(c.clone());
                pool.install(|| engine.compute_subset(&catalog.galaxies, primaries))
            };
            let (shipped, scalar) = (subset(config), subset(&reference));
            if shipped.binned_pairs != scalar.binned_pairs {
                return Err(format!(
                    "shipped path binned {} pairs, scalar per-primary path {}",
                    shipped.binned_pairs, scalar.binned_pairs
                ));
            }
            within(
                "shipped vs scalar per-primary",
                rel_diff(&shipped, &scalar),
                TOLERANCE,
            )
        }
        Shape::Grid { .. } => {
            let (reduced, tree, grid) = grid_reduced_problem(seed);
            let run = |c: EngineConfig| pool.install(|| Engine::new(c).compute(&reduced));
            within(
                "grid vs tree",
                rel_diff(&run(grid), &run(tree)),
                GRID_TOLERANCE,
            )
        }
        Shape::ShardedLowL { shards, ranks } => {
            let cut = corner_cut(catalog, 50_000);
            let dir = scratch.join("verify_shards");
            galactos_domain::shard::write_sharded(&cut, shards, &dir).map_err(|e| e.to_string())?;
            let sharded = supervised(&dir, config, ranks)?.zeta;
            let single = pool.install(|| Engine::new(config.clone()).compute(&cut));
            if sharded.binned_pairs != single.binned_pairs {
                return Err(format!(
                    "sharded path binned {} pairs, single process {}",
                    sharded.binned_pairs, single.binned_pairs
                ));
            }
            within(
                "sharded vs single process",
                rel_diff(&sharded, &single),
                TOLERANCE,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galactos_math::Complex64;

    fn sample() -> AnisotropicZeta {
        let mut zeta = AnisotropicZeta::zeros(2, 3);
        for (i, z) in zeta.data_mut().iter_mut().enumerate() {
            *z = Complex64::new(1.0 + i as f64, -0.5 * i as f64);
        }
        zeta.num_primaries = 10;
        zeta.binned_pairs = 99;
        zeta
    }

    #[test]
    fn fingerprint_round_trips_and_matches_itself() {
        let fp = Fingerprint::of(&sample());
        assert_eq!(fp.coefficients.len(), 2 * FINGERPRINT_COEFFICIENTS);
        assert_eq!(fp.coefficients[0], 1.0);
        let back = Fingerprint::from_json(&Json::parse(&fp.to_json().to_string()).unwrap());
        assert_eq!(back.as_ref(), Some(&fp));
        assert_eq!(fp.mismatch(&fp), None);
    }

    #[test]
    fn fingerprint_catches_a_relative_change_of_one_in_a_million() {
        let want = Fingerprint::of(&sample());
        let mut zeta = sample();
        let last = zeta.data().len() - 1;
        zeta.data_mut()[last].re *= 1.0 + 1e-6;
        let got = Fingerprint::of(&zeta);
        assert!(got.mismatch(&want).is_some());

        // A change far below the tolerance passes.
        let mut zeta = sample();
        zeta.data_mut()[last].re *= 1.0 + 1e-13;
        assert_eq!(Fingerprint::of(&zeta).mismatch(&want), None);

        let mut pairs = want.clone();
        pairs.binned_pairs += 1;
        assert!(pairs.mismatch(&want).unwrap().contains("binned_pairs"));
        let mut nan = want.clone();
        nan.sum_abs = f64::NAN;
        assert!(nan.mismatch(&want).is_some());
    }

    #[test]
    fn bless_keeps_the_other_size() {
        let dir = crate::out_dir().join(format!("test-bless-{}", std::process::id()));
        let full = Fingerprint::of(&sample());
        let mut smoke = full.clone();
        smoke.binned_pairs = 7;
        bless(&dir, "w", false, &full).unwrap();
        bless(&dir, "w", true, &smoke).unwrap();
        assert_eq!(
            load_expected(&dir, "w", DEFAULT_SEED, false).unwrap(),
            Some(full)
        );
        assert_eq!(
            load_expected(&dir, "w", DEFAULT_SEED, true).unwrap(),
            Some(smoke)
        );
        assert_eq!(load_expected(&dir, "w", 1, true).unwrap(), None);
        assert!(load_expected(&dir, "absent", DEFAULT_SEED, true).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
