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
//! Selection is [`EstimatorChoice`] on the config and nothing else:
//! the tree unless the grid is asked for by name, with its parameters.

use galactos_grid::GridConfig;
use std::fmt;

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

    /// Stable lowercase name (for reports and run manifests).
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

/// Estimator selection as configured on [`EngineConfig`](
/// crate::config::EngineConfig).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EstimatorChoice {
    /// The tree traversal: exact in the pair sums and accepts any
    /// catalog, so it is the default. Speed alone does not flip a
    /// default whose alternative is approximate.
    #[default]
    Tree,
    /// The gridded estimator with these parameters. Its answer carries
    /// mesh-resolution error and it only accepts periodic boxes.
    Grid(GridConfig),
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
    fn default_choice_is_the_tree() {
        assert_eq!(EstimatorChoice::default(), EstimatorChoice::Tree);
    }
}
