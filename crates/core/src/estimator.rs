//! Estimator selection: the tree traversal engine vs the FFT grid.
//!
//! Two independent evaluations of the same ζ multipole estimator
//! coexist behind [`EstimatorKind`]:
//!
//! * **Tree** — the paper's direct O(N·n_neighbor) per-primary
//!   evaluation (k-d tree gather → monomial kernel → a_ℓm → ζ). Exact
//!   in the pair sums; works for any catalog and line of sight; the
//!   reference semantics.
//! * **Grid** — the mesh formulation (`galactos-grid`): paint the
//!   catalog onto a power-of-two mesh, obtain every `a_ℓm(x; bin)`
//!   field by Fourier-space shell convolutions, contract on occupied
//!   cells. Cost scales with mesh size rather than pair count, which
//!   wins for dense periodic boxes; accuracy is set by the mesh
//!   resolution and converges to the tree answer as it is refined
//!   (pinned by the `grid_equivalence` suite). Requires a periodic
//!   catalog and a uniform (fixed) line of sight.
//!
//! Selection mirrors the kernel-backend and traversal patterns:
//! [`EstimatorChoice`] on the config, an [`ESTIMATOR_ENV`] override
//! (`tree`, `grid`, or `grid:<mesh>`), and a [`detect_estimator`]
//! default — resolved once at [`Engine::new`](crate::engine::Engine::new).

use galactos_grid::GridConfig;
use std::fmt;

/// Environment variable consulted by [`EstimatorChoice::Auto`]:
/// `tree`, `grid` (default [`GridConfig`]) or `grid:<mesh>` (a
/// power-of-two mesh side, e.g. `grid:128`), case-insensitive.
/// Unparsable values fall back to [`detect_estimator`].
pub const ESTIMATOR_ENV: &str = "GALACTOS_ESTIMATOR";

/// The closed set of estimator implementations (payload-free — the
/// grid's parameters live in [`GridConfig`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EstimatorKind {
    /// Direct tree traversal — the reference semantics.
    Tree,
    /// FFT shell convolutions on a density mesh.
    Grid,
}

impl EstimatorKind {
    /// Every kind, reference first.
    pub const ALL: [EstimatorKind; 2] = [EstimatorKind::Tree, EstimatorKind::Grid];

    /// Stable lowercase name (also the accepted [`ESTIMATOR_ENV`] value).
    pub fn name(self) -> &'static str {
        match self {
            EstimatorKind::Tree => "tree",
            EstimatorKind::Grid => "grid",
        }
    }
}

impl fmt::Display for EstimatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Pick the estimator expected to be correct everywhere.
///
/// The tree is exact in the pair sums and accepts any catalog, so it is
/// the unconditional default; the grid path is opt-in (config or
/// environment) because its answer carries mesh-resolution error and it
/// only accepts periodic boxes. Speed alone does not flip a default
/// whose output is approximate.
pub fn detect_estimator() -> EstimatorKind {
    EstimatorKind::Tree
}

/// A fully resolved estimator selection, carrying the grid parameters
/// when the mesh path was chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResolvedEstimator {
    Tree,
    Grid(GridConfig),
}

impl ResolvedEstimator {
    #[inline]
    pub fn kind(&self) -> EstimatorKind {
        match self {
            ResolvedEstimator::Tree => EstimatorKind::Tree,
            ResolvedEstimator::Grid(_) => EstimatorKind::Grid,
        }
    }
}

/// Estimator selection as configured on [`EngineConfig`](
/// crate::config::EngineConfig), mirroring the kernel-backend and
/// traversal patterns.
///
/// Resolution order: a pinned choice ([`Tree`](EstimatorChoice::Tree) /
/// [`Grid`](EstimatorChoice::Grid)) always wins; [`Auto`](
/// EstimatorChoice::Auto) consults the [`ESTIMATOR_ENV`] environment
/// variable, then falls back to [`detect_estimator`]. Resolution
/// happens once, at [`Engine::new`](crate::engine::Engine::new) — not
/// per worker or per call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EstimatorChoice {
    /// Environment override if set and valid, else [`detect_estimator`].
    #[default]
    Auto,
    /// Always the tree traversal, ignoring environment and detection.
    Tree,
    /// Always the gridded estimator with these parameters, ignoring
    /// environment and detection.
    Grid(GridConfig),
}

impl EstimatorChoice {
    /// Resolve against the process environment. A pinned choice never
    /// touches the environment; only [`Auto`](EstimatorChoice::Auto)
    /// reads [`ESTIMATOR_ENV`].
    pub fn resolve(self) -> ResolvedEstimator {
        match self {
            EstimatorChoice::Auto => {
                self.resolve_with(std::env::var(ESTIMATOR_ENV).ok().as_deref())
            }
            _ => self.resolve_with(None),
        }
    }

    /// Resolution with an explicit environment value, so the fallback
    /// order is testable without mutating process state. `None` means
    /// the variable is unset; unparsable values fall back to
    /// [`detect_estimator`].
    pub fn resolve_with(self, env: Option<&str>) -> ResolvedEstimator {
        match self {
            EstimatorChoice::Tree => ResolvedEstimator::Tree,
            EstimatorChoice::Grid(cfg) => ResolvedEstimator::Grid(cfg),
            EstimatorChoice::Auto => {
                env.and_then(parse_env)
                    .unwrap_or_else(|| match detect_estimator() {
                        EstimatorKind::Tree => ResolvedEstimator::Tree,
                        EstimatorKind::Grid => ResolvedEstimator::Grid(GridConfig::default()),
                    })
            }
        }
    }
}

/// Parse an [`ESTIMATOR_ENV`] value: `tree`, `grid`, or `grid:<mesh>`
/// with a power-of-two mesh side. Returns `None` for anything else.
fn parse_env(s: &str) -> Option<ResolvedEstimator> {
    let s = s.trim().to_ascii_lowercase();
    match s.as_str() {
        "tree" => Some(ResolvedEstimator::Tree),
        "grid" => Some(ResolvedEstimator::Grid(GridConfig::default())),
        _ => {
            let mesh: usize = s.strip_prefix("grid:")?.trim().parse().ok()?;
            (mesh.is_power_of_two() && (2..=GridConfig::MAX_MESH).contains(&mesh))
                .then(|| ResolvedEstimator::Grid(GridConfig::with_mesh(mesh)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(EstimatorKind::Tree.name(), "tree");
        assert_eq!(EstimatorKind::Grid.name(), "grid");
        for k in EstimatorKind::ALL {
            assert_eq!(format!("{k}"), k.name());
        }
    }

    #[test]
    fn resolution_order_is_env_then_detect() {
        let auto = EstimatorChoice::Auto;
        assert_eq!(auto.resolve_with(Some("tree")), ResolvedEstimator::Tree);
        assert_eq!(
            auto.resolve_with(Some("grid")),
            ResolvedEstimator::Grid(GridConfig::default())
        );
        assert_eq!(
            auto.resolve_with(Some("GRID:128")),
            ResolvedEstimator::Grid(GridConfig::with_mesh(128))
        );
        // Unset or unparsable: detection (tree).
        assert_eq!(auto.resolve_with(None), ResolvedEstimator::Tree);
        for bad in [
            "mesh",
            "grid:",
            "grid:0",
            "grid:100",
            "grid:-8",
            "grid:2048",
        ] {
            assert_eq!(
                auto.resolve_with(Some(bad)),
                ResolvedEstimator::Tree,
                "{bad}"
            );
        }
        // Pinned choices beat the environment.
        assert_eq!(
            EstimatorChoice::Tree.resolve_with(Some("grid")),
            ResolvedEstimator::Tree
        );
        let cfg = GridConfig::with_mesh(32);
        assert_eq!(
            EstimatorChoice::Grid(cfg).resolve_with(Some("tree")),
            ResolvedEstimator::Grid(cfg)
        );
        assert_eq!(EstimatorChoice::default(), EstimatorChoice::Auto);
    }

    #[test]
    fn resolved_kind_matches_variant() {
        assert_eq!(ResolvedEstimator::Tree.kind(), EstimatorKind::Tree);
        assert_eq!(
            ResolvedEstimator::Grid(GridConfig::default()).kind(),
            EstimatorKind::Grid
        );
    }
}
