//! Per-chunk compute scratch.
//!
//! One [`ComputeScratch`] holds everything a chunk of primaries needs
//! to be processed without allocating: the neighbor id buffer, the
//! candidate block with the staged pairs of stage 2, the pair buckets,
//! the SIMD/scalar kernel accumulator, the reduced monomial sums and
//! shell coefficients in the padded bin-minor layout
//! stages 3–4 run in ([`crate::assembly`]) and the bin-major rows
//! stage 4 multiplies by, the self-pair Legendre sums, and the chunk's
//! private ζ partial — packed, one Hermitian triangle per `m`
//! ([`PackedZeta`]) — plus its pair counter and stage clock. The engine
//! allocates one per chunk, which the worker running the chunk owns
//! exclusively ("maximum independent work for each thread"); the
//! partials are merged packed in chunk order and unpacked once per
//! run.

use crate::assembly::{padded_bins, PackedZeta};
use crate::config::EngineConfig;
use crate::kernel::{KernelAccumulator, KernelBackend, PairBuckets};
use crate::traversal::CandidateBlock;
use galactos_math::lm_count;
use galactos_math::monomial::MonomialBasis;
use galactos_obs::clock::Stages;

/// Working state for one compute worker.
pub(crate) struct ComputeScratch {
    /// Neighbor ids gathered for the current primary (per-primary
    /// traversal).
    pub(crate) neighbors: Vec<u32>,
    /// Candidate SoA for the current primary leaf (leaf-blocked
    /// traversal), and the staged pairs of the current primary (both
    /// traversals).
    pub(crate) block: CandidateBlock,
    /// Per-bin pair buckets (pre-binning, §3.3.1).
    pub(crate) buckets: PairBuckets,
    /// Deferred-reduction multipole accumulator (§3.3.2).
    pub(crate) acc: KernelAccumulator,
    /// Reduced monomial sums of every bin, monomial-major and
    /// bin-minor: `sums_t[mono · nbp + bin]`, `nbp` = [`padded_bins`].
    /// Rewritten whole by every primary; columns of bins it never
    /// touched, and the padding columns, are zero.
    pub(crate) sums_t: Vec<f64>,
    /// Shell coefficients of every bin, split, `lm_count × nbp` each,
    /// bin-minor: `alm_re[lm · nbp + bin]`.
    pub(crate) alm_re: Vec<f64>,
    pub(crate) alm_im: Vec<f64>,
    /// Shell coefficients as the rows the ζ update multiplies by, per
    /// `m` in the packed triangles' bin-major order,
    /// `2·lm_count·nbins` doubles each ([`crate::assembly::Assemble`]).
    pub(crate) rows_x: Vec<f64>,
    pub(crate) rows_y: Vec<f64>,
    /// `P_0(μ) … P_{2ℓmax}(μ)` of the pair being binned (empty when
    /// self-pair subtraction is off).
    pub(crate) self_scratch: Vec<f64>,
    /// Self-pair sums `Σ_j w_j² P_L(μ_j)`, `nbins × (2ℓmax+1)`.
    pub(crate) self_sums: Vec<f64>,
    /// This chunk's ζ partial, with its primary weight, primary count
    /// and binned-pair count.
    pub(crate) packed: PackedZeta,
    pub(crate) candidate_pairs: u64,
    /// The chunk's stage clock (search, bin, kernel, assembly). Built
    /// uninstrumented — no clock read, its stages stay 0 — and
    /// restarted by the engine under an enabled `ObsSession`.
    pub(crate) stages: Stages<4>,
}

impl ComputeScratch {
    /// Allocate scratch sized for `config`, with the monomial count
    /// taken from the engine's basis and the kernel accumulation state
    /// built by `backend` — the engine resolves its configured
    /// [`BackendChoice`](crate::kernel::BackendChoice) once at
    /// construction and passes the result here for every worker.
    pub(crate) fn new(
        config: &EngineConfig,
        basis: &MonomialBasis,
        backend: &dyn KernelBackend,
    ) -> Self {
        let nbins = config.bins.nbins();
        let nmono = basis.len();
        let nlm = lm_count(config.lmax);
        let nself = usize::from(config.subtract_self_pairs) * (2 * config.lmax + 1);
        let nbp = padded_bins(nbins);
        let acc = backend.new_accumulator(nbins, nmono);
        ComputeScratch {
            neighbors: Vec::with_capacity(1024),
            block: CandidateBlock::new(),
            buckets: PairBuckets::new(nbins, config.bucket_size),
            acc,
            sums_t: vec![0.0; nmono * nbp],
            alm_re: vec![0.0; nlm * nbp],
            alm_im: vec![0.0; nlm * nbp],
            rows_x: vec![0.0; 2 * nlm * nbins],
            rows_y: vec![0.0; 2 * nlm * nbins],
            self_scratch: vec![0.0; nself],
            self_sums: vec![0.0; nbins * nself],
            packed: PackedZeta::zeros(config.lmax, nbins),
            candidate_pairs: 0,
            stages: Stages::start(false),
        }
    }
}
