//! The anisotropic 3PCF engine: Algorithm 1 with the §3.3 optimizations.
//!
//! The per-primary work is a pipeline of four named stages, matching
//! the independent gather → bin → a_ℓm → accumulate structure that
//! Slepian & Eisenstein (2017) formalize for the anisotropic redshift-
//! space 3PCF:
//!
//! 1. search — collect the candidate secondaries within Rmax from the
//!    `f64` k-d tree ([`crate::traversal`]): one point query per
//!    primary, or, leaf-blocked, one candidate block per leaf of
//!    primaries;
//! 2. `bin_and_bucket` — Phase A stages the primary's pairs at `r > 0`
//!    (scalar over the gathered ids, or in lanes over the leaf's
//!    block) and ends with one lane pass, shared by both traversals,
//!    that bins each pair into a radial shell, rotates it into the
//!    line-of-sight frame and normalizes it; then Phase B, the one
//!    scalar scatter, pushes each binned pair into its shell's bucket
//!    and bucket-accumulates the monomials through the engine's
//!    resolved kernel backend (§3.3.1/§3.3.2);
//! 3. `assemble`, first half — reduce the monomial sums of the bins
//!    this primary touched into the padded bin-minor layout
//!    `sums_t[mono · nbp + bin]` and assemble the shell coefficients
//!    `a_ℓm` for eight bins at a time (`assembly`);
//! 4. `assemble`, second half — accumulate
//!    `ζ^m_{ℓℓ'}(r₁, r₂) += w_i · a_ℓm(r₁) · conj(a_ℓ'm(r₂))`: for each
//!    `m`, the upper triangle of the Hermitian matrix over the
//!    bin-major index `bin·(ℓmax−m+1) + (ℓ−m)`, one contiguous row
//!    update per non-zero `a_ℓm(r₁)`, into the chunk's packed partial
//!    (real for `m = 0`, whose harmonics are real). `w_i` is real, so
//!    the other half is the conjugate, written once per run when the
//!    merged partials are unpacked (`assembly`). With
//!    self-pair subtraction on, the `j = k` term
//!    `Σ_j w_j² Y_ℓm(û_j) conj(Y_ℓ'm(û_j))` of each diagonal bin is
//!    removed: it has no φ-dependence, so it is the Legendre series
//!    `Σ_L C^L_{ℓℓ'm} S_L` over the `2ℓmax+1` sums
//!    `S_L = Σ_j w_j² P_L(μ_j)` of stage 2 ([`SelfPairTable`]).
//!
//! Stages 3 and 4 are one [`galactos_simd::Kernel`], dispatched once
//! per primary to the host's vector width like the a_ℓm kernel of
//! stage 2, and what they cost follows the bins the primary touched:
//! nothing is zeroed up front (a bin's first flush overwrites its
//! accumulators) and an untouched bin is neither reduced nor read.
//!
//! Primaries (or, leaf-blocked, whole leaves) are distributed over
//! threads the way the paper's OpenMP dynamic schedule does (§3.3: "a
//! dynamic schedule gives a significant performance boost over using a
//! static schedule"): [`DYNAMIC_CHUNK`]-sized chunks handed out by work
//! stealing, each chunk running in a private scratch whose packed ζ
//! partial is merged into the result — "this approach ensures maximum
//! independent work for each thread". The chunk size is a constant, so
//! the chunk boundaries do not depend on the pool width, and the rayon
//! stand-in merges finished chunks in chunk-index order; ζ bits are
//! therefore a function of the [`EngineConfig`] and the build target
//! only (pinned across thread counts by `tests/determinism.rs`), and
//! nothing here reads the process environment.
//!
//! The stand-in offers no unordered float reduction whose bits would
//! follow the pool width: a parallel `sum` does not compile,
//!
//! ```compile_fail,E0599
//! use rayon::prelude::*;
//! fn total(xs: &Vec<f64>) -> f64 {
//!     xs.par_iter().map(|&x| x * 2.0).sum()
//! }
//! ```
//!
//! and the two-argument `reduce`, which merges in task order, does:
//!
//! ```
//! use rayon::prelude::*;
//! fn total(xs: &Vec<f64>) -> f64 {
//!     xs.par_iter().map(|&x| x * 2.0).reduce(|| 0.0, |a, b| a + b)
//! }
//! assert_eq!(total(&vec![0.25; 1000]), 500.0);
//! ```

use crate::assembly::{padded_bins, Assemble, PackedZeta};
use crate::bins::NO_BIN;
use crate::config::EngineConfig;
use crate::estimator::{EstimatorChoice, EstimatorKind};
use crate::kernel::{BackendKind, KernelBackend};
use crate::result::AnisotropicZeta;
use crate::scratch::ComputeScratch;
use crate::traversal::{LeafInfo, TraversalKind};
use galactos_catalog::{Catalog, Galaxy};
use galactos_kdtree::{KdTree, TreeConfig};
use galactos_math::monomial::MonomialBasis;
use galactos_math::ylm::{SelfPairTable, YlmTable};
use galactos_math::{Mat3, Vec3};
use galactos_obs::clock::Stages;
use galactos_obs::ObsSession;
use rayon::prelude::*;

/// Chunk size (in primaries, or leaves when leaf-blocked). Small
/// enough that work stealing can balance clustered catalogs, large
/// enough that one chunk amortizes its scratch allocation and ζ merge.
pub const DYNAMIC_CHUNK: usize = 16;

// The stages of a chunk's `Stages` clock, one lap per boundary: after
// the search (per primary, or per leaf when leaf-blocked), before and
// after each kernel flush (the residual sweep included), and after each
// primary's assembly. So the four tile the chunk from its first read to
// its last, and a primary costs `3 + 2F` reads for `F` full-bucket
// flushes, plus the search lap of its point query or leaf.
const SEARCH: usize = 0;
const BIN: usize = 1;
const KERNEL: usize = 2;
const ASSEMBLY: usize = 3;

/// The anisotropic 3PCF engine. Construct once (tables are built at
/// construction), then [`Engine::compute`] any number of catalogs.
pub struct Engine {
    config: EngineConfig,
    basis: MonomialBasis,
    ylm: YlmTable,
    /// The kernel backend every worker accumulates with — the
    /// configured [`BackendChoice`](crate::kernel::BackendChoice),
    /// resolved once.
    backend: &'static dyn KernelBackend,
    /// The traversal mode every run uses — the configured
    /// [`TraversalChoice`](crate::traversal::TraversalChoice), resolved
    /// once.
    traversal: TraversalKind,
    /// Legendre coefficients of the self-pair (degenerate triangle)
    /// correction; present only when enabled.
    self_pairs: Option<SelfPairTable>,
}

/// Per-primary context resolved before the search and consumed by the
/// later stages.
struct PrimaryContext {
    pos: Vec3,
    weight: f64,
    /// The line-of-sight rotation the staging lane pass applies;
    /// `None` for the identity (the plane-parallel ẑ fast path).
    rotation: Option<Mat3>,
}

impl Engine {
    /// Build the engine. Panics with the [`ConfigError`](crate::ConfigError)'s
    /// text if [`EngineConfig::validate`] refuses `config`.
    pub fn new(config: EngineConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let basis = MonomialBasis::new(config.lmax);
        let ylm = YlmTable::new(config.lmax, &basis);
        let backend = config.kernel_backend.resolve().backend();
        let traversal = config.traversal.resolve();
        let self_pairs = config
            .subtract_self_pairs
            .then(|| SelfPairTable::new(config.lmax));
        Engine {
            config,
            basis,
            ylm,
            backend,
            traversal,
            self_pairs,
        }
    }

    #[inline]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The kernel backend this engine resolved at construction.
    #[inline]
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// The traversal mode this engine resolved at construction.
    #[inline]
    pub fn traversal_kind(&self) -> TraversalKind {
        self.traversal
    }

    /// The estimator [`Engine::compute`] dispatches to.
    #[inline]
    pub fn estimator_kind(&self) -> EstimatorKind {
        match self.config.estimator {
            EstimatorChoice::Tree => EstimatorKind::Tree,
            EstimatorChoice::Grid(_) => EstimatorKind::Grid,
        }
    }

    /// Compute the anisotropic 3PCF of a catalog (every galaxy acts as a
    /// primary; periodic boxes use minimum-image separations),
    /// dispatching to the configured estimator — the tree traversal or
    /// the FFT grid.
    pub fn compute(&self, catalog: &Catalog) -> AnisotropicZeta {
        self.compute_observed(catalog, &ObsSession::disabled())
    }

    /// [`Engine::compute`] recording spans and metrics into an
    /// [`ObsSession`]. Both estimator paths are covered: the tree path
    /// emits an `engine` span with a `tree_build` child plus per-chunk
    /// worker spans (one obs track per worker thread) carrying the
    /// search/bin/kernel/assembly stage breakdown as aggregate slices
    /// that tile the chunk, and the gauge `engine.kernel_vector_bits`
    /// (128, 256 or 512: the widest compilation of the SIMD kernel this
    /// host runs); the grid path emits a `grid` span with the native
    /// paint / fields / contract / self-pair breakdown and the counter
    /// `grid.fft3`.
    ///
    /// With a disabled session this is exactly [`Engine::compute`]:
    /// zero clock reads, bit-identical results (test-pinned).
    pub fn compute_observed(&self, catalog: &Catalog, obs: &ObsSession) -> AnisotropicZeta {
        self.check_periodic(catalog);
        if let EstimatorChoice::Grid(grid) = &self.config.estimator {
            let _g = obs.tracer.span("grid");
            return self.compute_grid(catalog, grid, obs);
        }
        let _g = obs.tracer.span("engine");
        if obs.is_enabled() && self.backend_kind() == BackendKind::Simd {
            let bits = galactos_simd::Level::widest().vector_bits();
            obs.registry.gauge("engine.kernel_vector_bits").set(bits);
        }
        self.run(&catalog.galaxies, catalog.len(), catalog.periodic, obs)
    }

    fn check_periodic(&self, catalog: &Catalog) {
        if let Some(box_len) = catalog.periodic {
            assert!(
                self.config.line_of_sight.is_uniform(),
                "periodic catalogs require a fixed line of sight"
            );
            assert!(
                self.config.bins.rmax() <= box_len * 0.5,
                "rmax must be <= box/2 for periodic queries"
            );
        }
    }

    /// Compute with only the first `n_primaries` galaxies acting as
    /// primaries; the remainder participate as secondaries only. This is
    /// the per-rank entry point of the distributed pipeline ("ignoring
    /// secondary galaxies that are in the k-d tree because of halo
    /// exchange"). Always runs the tree path: rank-local subsets are
    /// open point sets, which the periodic-convolution grid estimator
    /// cannot represent.
    pub fn compute_subset(&self, galaxies: &[Galaxy], n_primaries: usize) -> AnisotropicZeta {
        assert!(n_primaries <= galaxies.len());
        self.run(galaxies, n_primaries, None, &ObsSession::disabled())
    }

    /// The gridded estimator path: paint → FFT shell convolutions → ζ
    /// contraction, all inside `galactos-grid`, with this engine's
    /// radial binning, line-of-sight rotation and self-pair setting.
    ///
    /// Panics unless the catalog is periodic and the line of sight
    /// uniform — the two geometric assumptions of the periodic
    /// convolution formulation. `binned_pairs` stays 0 on the result:
    /// the grid path never enumerates pairs.
    fn compute_grid(
        &self,
        catalog: &Catalog,
        grid: &galactos_grid::GridConfig,
        obs: &ObsSession,
    ) -> AnisotropicZeta {
        assert!(
            catalog.periodic.is_some(),
            "the grid estimator requires a periodic catalog \
             (EstimatorChoice::Grid on survey data: use the tree)"
        );
        assert!(
            self.config.line_of_sight.is_uniform(),
            "the grid estimator requires a fixed (plane-parallel) line of sight"
        );
        let rotation = self
            .config
            .line_of_sight
            .rotation_for(Vec3::ZERO)
            .expect("a fixed line of sight always has a rotation");
        let rotation = (rotation != Mat3::IDENTITY).then_some(rotation);
        let bins = &self.config.bins;
        let mut zeta = AnisotropicZeta::zeros(self.config.lmax, bins.nbins());
        galactos_grid::accumulate_zeta_multipoles(
            catalog,
            grid,
            self.config.lmax,
            bins.nbins(),
            rotation,
            &|r| bins.bin_of(r),
            self.config.subtract_self_pairs,
            obs,
            &mut |l, lp, m, b1, b2, v| zeta.block_mut(l, lp, m)[b1 * bins.nbins() + b2] += v,
        );
        zeta.total_primary_weight = catalog.total_weight();
        zeta.num_primaries = catalog.len() as u64;
        obs.registry.add("grid.primaries", catalog.len() as u64);
        zeta
    }

    fn run(
        &self,
        galaxies: &[Galaxy],
        n_primaries: usize,
        periodic: Option<f64>,
        obs: &ObsSession,
    ) -> AnisotropicZeta {
        let tree = {
            let _g = obs.tracer.span("tree_build");
            KdTree::build(galaxies.iter().map(|g| g.pos), TreeConfig::default())
        };

        // Leaf-blocked: chunks are made of *leaf blocks*, not raw
        // primary indices, so each chunk is a set of whole leaves and
        // scratch reuse follows the tree's memory layout (one candidate
        // block per leaf, shared by all of its primaries).
        let leaves: Option<Vec<LeafInfo>> = match self.traversal {
            TraversalKind::PerPrimary => None,
            TraversalKind::LeafBlocked => Some(tree.collect_leaves()),
        };
        let n_items = leaves.as_ref().map_or(n_primaries, Vec::len);
        (0..n_items.div_ceil(DYNAMIC_CHUNK))
            .into_par_iter()
            .map(|c| {
                let range = c * DYNAMIC_CHUNK..((c + 1) * DYNAMIC_CHUNK).min(n_items);
                // Only an enabled session reads the stage clock.
                let mut scratch = self.new_scratch();
                let span = obs.tracer.span("chunk");
                scratch.stages = Stages::start(obs.is_enabled());
                let chunk_len = range.len() as u64;
                for i in range {
                    match &leaves {
                        None => self.process_primary(&mut scratch, galaxies, &tree, i, periodic),
                        Some(leaves) => self.process_leaf(
                            &mut scratch,
                            galaxies,
                            &tree,
                            &leaves[i],
                            n_primaries,
                            periodic,
                        ),
                    }
                }
                Self::emit_chunk_obs(obs, &scratch, chunk_len);
                drop(span);
                scratch.packed
            })
            .reduce(
                || PackedZeta::zeros(self.config.lmax, self.config.bins.nbins()),
                |mut a, b| {
                    a.merge(&b);
                    a
                },
            )
            .unpack()
    }

    /// Drain a finished chunk's scratch into the obs session: the four
    /// tree stages as aggregate slices under the open `chunk` span (so
    /// the Chrome track shows the per-worker breakdown) and the pair
    /// counters into the registry. Aggregates make zero clock reads;
    /// with a disabled session every call here is a no-op.
    fn emit_chunk_obs(o: &ObsSession, scratch: &ComputeScratch, n: u64) {
        let stages = ["search", "bin", "kernel", "assembly"].map(|s| (s, n));
        scratch.stages.emit(&o.tracer, stages);
        o.registry.add("engine.chunks", 1);
        o.registry
            .add("engine.binned_pairs", scratch.packed.binned_pairs);
        o.registry
            .add("engine.candidate_pairs", scratch.candidate_pairs);
    }

    /// Allocate worker scratch sized for this engine's configuration,
    /// with accumulation state from the resolved kernel backend.
    fn new_scratch(&self) -> ComputeScratch {
        ComputeScratch::new(&self.config, &self.basis, self.backend)
    }

    /// Run all four stages for primary `i`, the per-primary reference:
    /// one point query gathers its neighbour ids, and scalar code
    /// stages their pairs for Phase B.
    fn process_primary(
        &self,
        scratch: &mut ComputeScratch,
        galaxies: &[Galaxy],
        tree: &KdTree,
        i: usize,
        periodic: Option<f64>,
    ) {
        let Some(ctx) = self.primary_context(galaxies, i) else {
            return; // degenerate line of sight (primary at the observer)
        };
        let gathered = tree.gather_neighbors(
            ctx.pos,
            self.config.bins.rmax(),
            periodic,
            &mut scratch.neighbors,
        );
        scratch.stages.lap(SEARCH);
        scratch.candidate_pairs += gathered as u64;
        let n_sel = scratch.block.stage_gathered(
            galaxies,
            &scratch.neighbors,
            ctx.pos,
            periodic,
            &self.config.bins,
            ctx.rotation.as_ref(),
        );
        self.bin_and_bucket(scratch, n_sel);
        self.assemble(scratch, &ctx);
    }

    /// Resolve the per-primary context (position, weight, line-of-sight
    /// rotation). Returns `None` for a degenerate line of sight
    /// (primary at the observer), which skips the primary entirely.
    fn primary_context(&self, galaxies: &[Galaxy], i: usize) -> Option<PrimaryContext> {
        let primary = galaxies[i];
        let rotation = self.config.line_of_sight.rotation_for(primary.pos)?;
        Some(PrimaryContext {
            pos: primary.pos,
            weight: primary.weight,
            rotation: (rotation != Mat3::IDENTITY).then_some(rotation),
        })
    }

    /// Leaf-blocked counterpart of [`Engine::process_primary`]: gather
    /// the candidate set of one whole leaf into the scratch's SoA
    /// block, then, for every primary the leaf owns, stage its pairs
    /// in lanes and run the bin→a_ℓm→ζ stages. Ghost galaxies
    /// (`id ≥ n_primaries`) participate only as candidates, never as
    /// primaries.
    fn process_leaf(
        &self,
        scratch: &mut ComputeScratch,
        galaxies: &[Galaxy],
        tree: &KdTree,
        leaf: &LeafInfo,
        n_primaries: usize,
        periodic: Option<f64>,
    ) {
        // Leaves made entirely of halo ghosts (subset runs on
        // boundary-heavy ranks) own no primaries — skip the walk and
        // the block materialization outright.
        if !(leaf.start..leaf.end).any(|slot| (tree.id_at(slot) as usize) < n_primaries) {
            return;
        }
        let bins = &self.config.bins;
        let n_candidates = scratch
            .block
            .fill(tree, leaf, bins.rmax(), periodic, galaxies) as u64;
        scratch.stages.lap(SEARCH);
        for slot in leaf.start..leaf.end {
            let i = tree.id_at(slot) as usize;
            if i >= n_primaries {
                continue; // ghosts never act as primaries
            }
            let Some(ctx) = self.primary_context(galaxies, i) else {
                continue; // degenerate line of sight
            };
            // The block is shared by the whole leaf; each primary scans
            // all of it, so it counts as that many candidate pairs.
            scratch.candidate_pairs += n_candidates;
            let n_sel = scratch
                .block
                .select_pairs(ctx.pos, periodic, bins, ctx.rotation.as_ref());
            self.bin_and_bucket(scratch, n_sel);
            self.assemble(scratch, &ctx);
        }
    }

    /// Stage 2, Phase B — the scalar scatter both traversals share.
    /// A Phase A and its lane pass have staged the primary's `n_sel`
    /// pairs in the scratch's block, each with its bin (or
    /// [`NO_BIN`]), its unit vector in the line-of-sight frame and its
    /// weight; here each binned pair is pushed through its bin's
    /// bucket, whose flush through the multipole kernel is timed
    /// (§3.3.1/§3.3.2), plus the self-pair Legendre sums when enabled.
    /// Partially filled buckets are swept at the end. The `bin` stage
    /// runs from the previous lap, so it covers both phases; each flush
    /// is lapped as `kernel`.
    #[inline(always)]
    fn bin_and_bucket(&self, scratch: &mut ComputeScratch, n_sel: usize) {
        // The accumulator only forgets which bins were touched.
        scratch.acc.reset();
        scratch.self_sums.fill(0.0);
        let mut binned = 0u64;
        for s in 0..n_sel {
            let sel = &scratch.block;
            if sel.sel_bin[s] == NO_BIN {
                continue;
            }
            let bin = sel.sel_bin[s] as usize;
            let (ux, uy, uz, wj) = (sel.sel_dx[s], sel.sel_dy[s], sel.sel_dz[s], sel.sel_w[s]);
            binned += 1;
            if scratch.buckets.push(bin, ux, uy, uz, wj) {
                scratch.stages.lap(BIN);
                let (dx, dy, dz, w) = scratch.buckets.slices(bin);
                scratch
                    .acc
                    .flush_bucket(self.basis.schedule(), bin, dx, dy, dz, w);
                scratch.buckets.clear_bin(bin);
                scratch.stages.lap(KERNEL);
            }
            if let Some(table) = &self.self_pairs {
                // Degenerate-triangle sums S_L(bin) += w² P_L(μ), μ = û·ẑ.
                let n = table.num_sums();
                let sums = &mut scratch.self_sums[bin * n..(bin + 1) * n];
                table.accumulate(uz, wj * wj, &mut scratch.self_scratch, sums);
            }
        }
        scratch.stages.lap(BIN);
        scratch
            .acc
            .flush_residual(self.basis.schedule(), &mut scratch.buckets);
        scratch.stages.lap(KERNEL);
        scratch.packed.binned_pairs += binned;
    }

    /// Stages 3–4 — reduce the monomial sums of the touched bins out of
    /// the kernel accumulator into `sums_t` (zeros for the others),
    /// then run [`Assemble`]: the shell coefficients `a_ℓm` with the
    /// bins in lanes, and the primary's ζ contribution to the packed
    /// triangles as contiguous row updates. Afterwards subtract the
    /// degenerate self-pair terms from diagonal bins when enabled, and
    /// fold in the primary's weight.
    fn assemble(&self, scratch: &mut ComputeScratch, ctx: &PrimaryContext) {
        let nbins = self.config.bins.nbins();
        let wi = ctx.weight;
        scratch
            .acc
            .reduce_transposed(padded_bins(nbins), &mut scratch.sums_t);
        let kernel = Assemble {
            ylm: &self.ylm,
            sums_t: &scratch.sums_t,
            alm_re: &mut scratch.alm_re,
            alm_im: &mut scratch.alm_im,
            rows_x: &mut scratch.rows_x,
            rows_y: &mut scratch.rows_y,
            zeta: &mut scratch.packed,
            weight: wi,
        };
        kernel.dispatch();
        // Remove the degenerate j = k terms from diagonal bins.
        if let Some(table) = &self.self_pairs {
            let n = table.num_sums();
            for block in table.blocks() {
                let (l, lp, m) = (block.l, block.lp, block.m);
                for (bin, sums) in scratch.self_sums.chunks_exact(n).enumerate() {
                    *scratch.packed.diagonal_re_mut(l, lp, m, bin) -= block.contract(sums) * wi;
                }
            }
        }
        scratch.packed.total_primary_weight += wi;
        scratch.packed.num_primaries += 1;
        scratch.stages.lap(ASSEMBLY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galactos_catalog::uniform_box;
    use galactos_math::{Complex64, LineOfSight};

    fn small_catalog(n: usize, box_len: f64, seed: u64) -> Catalog {
        let mut c = uniform_box(n, box_len, seed);
        c.periodic = None; // treat as plain point set unless stated
        c
    }

    #[test]
    fn zeta_l0_counts_weighted_pairs() {
        // ζ^0_{00}(b, b') = Σ_i w_i · a_00(b) a_00(b') with a_00 = Σ w/√(4π),
        // so the (0,0,0) coefficient is pair-count arithmetic we can
        // verify directly.
        let cat = small_catalog(40, 10.0, 3);
        let config = EngineConfig::test_default(6.0, 2, 3);
        let engine = Engine::new(config);
        let zeta = engine.compute(&cat);

        // Direct computation.
        let bins = &engine.config().bins;
        let mut want = vec![vec![0.0f64; 3]; 40]; // per-primary per-bin counts
        for (i, counts) in want.iter_mut().enumerate() {
            for j in 0..40 {
                if i == j {
                    continue;
                }
                let r = cat.galaxies[i].pos.distance(cat.galaxies[j].pos);
                if let Some(b) = bins.bin_of(r) {
                    counts[b] += 1.0;
                }
            }
        }
        let inv4pi = 1.0 / (4.0 * std::f64::consts::PI);
        for b1 in 0..3 {
            for b2 in 0..3 {
                let direct: f64 = (0..40).map(|i| want[i][b1] * want[i][b2]).sum();
                let got = zeta.get(0, 0, 0, b1, b2);
                assert!(
                    (got.re - direct * inv4pi).abs() < 1e-9 * (1.0 + direct),
                    "b1={b1} b2={b2}: {} vs {}",
                    got.re,
                    direct * inv4pi
                );
                assert!(got.im.abs() < 1e-10);
            }
        }
        assert_eq!(zeta.num_primaries, 40);
    }

    #[test]
    fn subset_restricts_primaries() {
        let cat = small_catalog(60, 10.0, 13);
        let config = EngineConfig::test_default(5.0, 2, 2);
        let engine = Engine::new(config);
        let z = engine.compute_subset(&cat.galaxies, 10);
        assert_eq!(z.num_primaries, 10);
        assert_eq!(z.total_primary_weight, 10.0);
    }

    #[test]
    fn periodic_wraps_neighbors() {
        // Two galaxies near opposite faces: only the periodic run pairs
        // them.
        let galaxies = vec![
            Galaxy::unit(Vec3::new(0.5, 5.0, 5.0)),
            Galaxy::unit(Vec3::new(9.5, 5.0, 5.0)),
        ];
        let config = EngineConfig::test_default(2.0, 1, 2);
        let engine = Engine::new(config);
        let open = Catalog::new(galaxies.clone());
        let z_open = engine.compute(&open);
        assert_eq!(z_open.binned_pairs, 0);
        let wrapped = Catalog::new_periodic(galaxies, 10.0);
        let z_wrap = engine.compute(&wrapped);
        assert_eq!(z_wrap.binned_pairs, 2);
    }

    #[test]
    fn radial_los_runs_and_skips_degenerate_primary() {
        let mut cat = small_catalog(30, 8.0, 17);
        // Place one galaxy exactly at the observer.
        cat.galaxies[0].pos = Vec3::ZERO;
        let mut config = EngineConfig::test_default(4.0, 2, 2);
        config.line_of_sight = LineOfSight::Radial {
            observer: Vec3::ZERO,
        };
        let engine = Engine::new(config);
        let z = engine.compute(&cat);
        // 29 usable primaries (the one at the observer is skipped).
        assert_eq!(z.num_primaries, 29);
    }

    #[test]
    fn bucket_size_does_not_change_results() {
        let cat = small_catalog(90, 9.0, 23);
        let mut config = EngineConfig::test_default(5.0, 3, 3);
        config.bucket_size = 4;
        let small = Engine::new(config.clone()).compute(&cat);
        config.bucket_size = 256;
        let large = Engine::new(config).compute(&cat);
        let scale = small.max_abs().max(1.0);
        assert!(small.max_difference(&large) < 1e-9 * scale);
    }

    #[test]
    fn stages_compose_to_full_primary_processing() {
        // Drive one primary's stages by hand and check the scratch
        // partial matches a one-primary subset run. Pinned to
        // per-primary traversal: the comparison is exact (== 0.0), so
        // the subset run must accumulate pairs in the same order as
        // the hand-driven primary.
        let cat = small_catalog(50, 10.0, 31);
        let mut config = EngineConfig::test_default(5.0, 2, 3);
        config.traversal = crate::traversal::TraversalChoice::Fixed(TraversalKind::PerPrimary);
        let engine = Engine::new(config);
        let want = engine.compute_subset(&cat.galaxies, 1);

        let positions: Vec<Vec3> = cat.galaxies.iter().map(|g| g.pos).collect();
        let tree = KdTree::build(&positions, TreeConfig::default());
        let mut scratch = engine.new_scratch();
        engine.process_primary(&mut scratch, &cat.galaxies, &tree, 0, None);
        let got = scratch.packed.unpack();
        assert_eq!(got.max_difference(&want), 0.0);
        assert_eq!(got.num_primaries, 1);
        assert_eq!(got.binned_pairs, want.binned_pairs);
    }

    #[test]
    fn manual_stage_driving_reports_binned_pairs() {
        // Driving stages by hand, the partial's pair count is right
        // after every primary.
        let cat = small_catalog(40, 10.0, 37);
        let mut config = EngineConfig::test_default(5.0, 1, 2);
        config.traversal = crate::traversal::TraversalChoice::Fixed(TraversalKind::PerPrimary);
        let engine = Engine::new(config);

        let positions: Vec<Vec3> = cat.galaxies.iter().map(|g| g.pos).collect();
        let tree = KdTree::build(&positions, TreeConfig::default());
        let mut scratch = engine.new_scratch();
        let mut want = 0u64;
        for i in 0..3 {
            engine.process_primary(&mut scratch, &cat.galaxies, &tree, i, None);
            // Cumulative count over primaries 0..=i equals a subset run
            // with i + 1 primaries.
            want = engine.compute_subset(&cat.galaxies, i + 1).binned_pairs;
            assert_eq!(scratch.packed.binned_pairs, want, "after primary {i}");
        }
        assert!(want > 0, "test catalog must produce pairs");
    }

    #[test]
    fn zero_weight_primary_leaves_zeta_untouched() {
        let mut cat = small_catalog(40, 10.0, 41);
        cat.galaxies[1].weight = 0.0;
        let mut config = EngineConfig::test_default(5.0, 3, 3);
        config.subtract_self_pairs = true;
        config.traversal = crate::traversal::TraversalChoice::Fixed(TraversalKind::PerPrimary);
        let engine = Engine::new(config);

        let positions: Vec<Vec3> = cat.galaxies.iter().map(|g| g.pos).collect();
        let tree = KdTree::build(&positions, TreeConfig::default());
        let mut scratch = engine.new_scratch();
        let mut snapshots = Vec::new();
        for i in 0..2 {
            engine.process_primary(&mut scratch, &cat.galaxies, &tree, i, None);
            snapshots.push(scratch.packed.unpack());
        }
        let (before, after) = (&snapshots[0], &snapshots[1]);
        assert!(before.max_abs() > 0.0 && after.binned_pairs > before.binned_pairs);
        assert_eq!(after.max_difference(before), 0.0);
        assert_eq!(after.total_primary_weight, before.total_primary_weight);
        assert_eq!(after.num_primaries, 2);
    }

    /// The unpacked lower halves conjugate with a zero imaginary part
    /// written `+0`, as the merged partials of the full block update
    /// had it: no element of a run's ζ has a `−0` imaginary part, even
    /// where a bin never receives a pair and every element is zero.
    #[test]
    fn no_imaginary_part_is_negative_zero() {
        // A jittered lattice of spacing 1: no separation reaches the
        // first bin, [0, 0.75).
        let mut rng = crate::kernel::testutil::SplitMix64::new(47);
        let mut galaxies = Vec::new();
        for (i, j, k) in
            (0..5).flat_map(|i| (0..5).flat_map(move |j| (0..5).map(move |k| (i, j, k))))
        {
            let mut jitter = || rng.range(-0.1, 0.1);
            let pos = Vec3::new(
                i as f64 + jitter(),
                j as f64 + jitter(),
                k as f64 + jitter(),
            );
            galaxies.push(Galaxy::new(pos, 1.0 + jitter()));
        }
        let cat = Catalog::new(galaxies);
        let engine = Engine::new(EngineConfig::test_default(3.0, 4, 4));
        let zeta = engine.compute(&cat);
        let zeros = zeta.data().iter().filter(|z| z.im == 0.0).count();
        let negative = zeta
            .data()
            .iter()
            .filter(|z| z.im == 0.0 && z.im.is_sign_negative());
        assert!(zeta.get(0, 0, 0, 1, 1).re > 0.0 && zeta.get(2, 2, 0, 0, 3) == Complex64::ZERO);
        assert!(
            zeros > zeta.data().len() / 4,
            "{zeros} zero imaginary parts"
        );
        assert_eq!(negative.count(), 0);
    }

    #[test]
    fn scratch_accumulates_with_the_resolved_backend() {
        for kind in BackendKind::ALL {
            let mut config = EngineConfig::test_default(5.0, 2, 2);
            config.kernel_backend = crate::kernel::BackendChoice::Fixed(kind);
            let scratch = Engine::new(config).new_scratch();
            assert_eq!(scratch.acc.kind(), kind);
        }
    }

    #[test]
    fn single_bin_and_monopole_only_shapes_run() {
        let cat = small_catalog(60, 10.0, 43);
        for (lmax, nbins) in [(0, 1), (0, 3), (3, 1)] {
            let mut config = EngineConfig::test_default(5.0, lmax, nbins);
            config.subtract_self_pairs = true;
            let zeta = Engine::new(config.clone()).compute(&cat);
            assert_eq!(zeta.num_primaries, 60);
            let oracle = crate::naive::naive_anisotropic(&cat.galaxies, &config, None, false);
            let scale = oracle.max_abs().max(1.0);
            assert!(
                zeta.max_difference(&oracle) < 1e-9 * scale,
                "lmax={lmax} nbins={nbins}: {}",
                zeta.max_difference(&oracle)
            );
        }
    }
}
