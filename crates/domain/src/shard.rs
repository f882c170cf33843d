//! Shard-aware distribution: writing GCAT v2 shards along the partition
//! plan, and ingesting them without a root rank.
//!
//! [`write_sharded`] reuses [`crate::partition::DomainPlan`] so the
//! shard regions *are* the recursive-bisection domains the halo
//! exchange produces — a catalog sharded for `S` domains can be
//! ingested by any rank count, because contiguous shard ranges stay
//! spatially contiguous under the bisection order.
//!
//! [`distribute_from_shards`] is how the ranks of a distributed ζ run
//! (`galactos_core::pipeline`) get their galaxies. It delivers the
//! owned and halo sets that [`crate::exchange::distribute`] delivers by
//! message passing, but no rank 0 materializes the catalog and
//! scatters it: every rank independently reads the manifest
//! (92 bytes + 72 per shard), streams its *own* shards as its primaries, and
//! streams only the neighbor shards whose region lies within `rmax` of
//! one of its owned regions to collect ghosts. Peak resident galaxies
//! per rank are `owned + ghosts` — never the full catalog — and the
//! per-rank `records_read` / `bytes_read` counters quantify the I/O the
//! spatial pruning saved.

use galactos_catalog::io::CatalogIoError;
use galactos_catalog::shard::{self, ShardManifest, ShardReader};
use galactos_catalog::{Catalog, Galaxy, ShardAssignment};
use galactos_math::Aabb;
use std::path::Path;

use crate::partition::DomainPlan;

/// Records streamed per `read_chunk` call: bounds ingestion memory at
/// ~256 KiB per open shard regardless of shard size.
const STREAM_CHUNK: usize = 8192;

/// Build the plan-aligned shard assignment for `catalog` over
/// `num_shards` spatial domains (the same recursive bisection as
/// [`DomainPlan::build`], so shard `s` is the region rank `s` of an
/// `num_shards`-rank run would own).
pub fn plan_assignment(catalog: &Catalog, num_shards: usize) -> (DomainPlan, ShardAssignment) {
    let positions = catalog.positions();
    let plan = DomainPlan::build(&positions, catalog.bounds, num_shards);
    let shard_of = (0..catalog.len())
        .map(|g| plan.owner_of(g) as u32)
        .collect();
    let bounds = (0..num_shards).map(|r| *plan.rank_box(r)).collect();
    (plan, ShardAssignment { shard_of, bounds })
}

/// Write `catalog` into `dir` as GCAT v2 shards aligned with the
/// `num_shards`-way recursive-bisection partition. Zero shards is
/// [`CatalogIoError::Unsupported`], and creates nothing.
pub fn write_sharded(
    catalog: &Catalog,
    num_shards: usize,
    dir: impl AsRef<Path>,
) -> Result<ShardManifest, CatalogIoError> {
    if num_shards == 0 {
        return Err(CatalogIoError::Unsupported(
            "shard count 0: a sharded catalog needs at least one shard".into(),
        ));
    }
    let (_, assignment) = plan_assignment(catalog, num_shards);
    shard::write_sharded(catalog, &assignment, dir)
}

/// Shards owned by `rank` when `num_shards` shards are spread over
/// `num_ranks` ranks: the contiguous range `[lo, hi)`. Contiguous
/// ranges of the bisection order stay spatially coherent, and sizes
/// differ by at most one shard.
pub fn shard_range_for_rank(num_shards: usize, num_ranks: usize, rank: usize) -> (usize, usize) {
    assert!(rank < num_ranks, "rank {rank} out of range 0..{num_ranks}");
    let lo = rank * num_shards / num_ranks;
    let hi = (rank + 1) * num_shards / num_ranks;
    (lo, hi)
}

/// Everything one rank holds after shard-based distribution.
#[derive(Clone, Debug)]
pub struct ShardRankData {
    /// World rank.
    pub rank: usize,
    /// Shard ids `[lo, hi)` this rank owns.
    pub shard_range: (usize, usize),
    /// Owned galaxies — the rank's primaries (shard-major, record order
    /// within each shard).
    pub owned: Vec<Galaxy>,
    /// Regions of the owned shards (their union is the rank's domain).
    pub owned_bounds: Vec<Aabb>,
    /// Ghost galaxies within `rmax` of an owned region, read from
    /// neighbor shards.
    pub ghosts: Vec<Galaxy>,
    /// Total shard records this rank streamed (owned + neighbor shards;
    /// neighbor records are filtered, not retained).
    pub records_read: u64,
    /// Total bytes this rank read (manifest excluded, headers included).
    pub bytes_read: u64,
}

impl ShardRankData {
    /// Galaxies resident in memory after ingestion.
    #[inline]
    pub fn resident(&self) -> usize {
        self.owned.len() + self.ghosts.len()
    }
}

/// Ingest a sharded catalog for one rank of `num_ranks`: stream the
/// rank's own shards fully, then stream every foreign shard whose
/// region lies within `rmax` of an owned region, keeping only the
/// galaxies that are actual ghosts. Purely filesystem-driven — no
/// communication, no root rank.
///
/// Periodic manifests are rejected with
/// [`CatalogIoError::Unsupported`]: the ghost predicates use open-box
/// distances, so wrap-around neighbors would be silently dropped (the
/// same open-box assumption as the halo exchange, but enforced as an
/// error because the flag arrives from disk, not from the caller).
pub fn distribute_from_shards(
    dir: impl AsRef<Path>,
    manifest: &ShardManifest,
    rank: usize,
    num_ranks: usize,
    rmax: f64,
) -> Result<ShardRankData, CatalogIoError> {
    let (lo, hi) = shard_range_for_rank(manifest.num_shards(), num_ranks, rank);
    distribute_shard_range(dir, manifest, rank, lo, hi, rmax)
}

/// Ingest an explicit shard range `[lo, hi)` for `rank`, regardless of
/// which rank the range canonically belongs to. This is the primitive
/// the supervised pipeline uses to *reassign* a dead rank's shards to a
/// survivor (and to compute per-shard partials one shard at a time):
/// the data a rank holds depends only on the shard range, never on the
/// identity of the rank doing the reading.
pub fn distribute_shard_range(
    dir: impl AsRef<Path>,
    manifest: &ShardManifest,
    rank: usize,
    lo: usize,
    hi: usize,
    rmax: f64,
) -> Result<ShardRankData, CatalogIoError> {
    assert!(
        lo <= hi && hi <= manifest.num_shards(),
        "shard range {lo}..{hi} out of bounds for {} shards",
        manifest.num_shards()
    );
    if let Some(box_len) = manifest.periodic {
        return Err(CatalogIoError::Unsupported(format!(
            "sharded distribution treats catalogs as open boxes (like the halo \
             exchange); manifest declares a periodic box of length {box_len}"
        )));
    }
    let dir = dir.as_ref();
    let r2 = rmax * rmax;

    let mut owned = Vec::new();
    let mut owned_bounds = Vec::with_capacity(hi - lo);
    let mut records_read = 0u64;
    let mut bytes_read = 0u64;
    for s in lo..hi {
        let mut reader = ShardReader::open(dir, manifest, s)?;
        while reader.read_chunk(&mut owned, STREAM_CHUNK)? != 0 {}
        records_read += reader.records_read();
        bytes_read += reader.bytes_read();
        owned_bounds.push(manifest.shards[s].bounds);
    }

    // Neighbor shards: only regions within rmax of an owned region can
    // hold ghosts (a ghost g satisfies dist(g, owned box) ≤ rmax, and g
    // lies inside its shard's region, so the box-box gap is ≤ rmax).
    // Gated on owned *galaxies*, not regions: a rank whose shards are
    // all empty has no primaries, so ghosts could never contribute.
    let mut ghosts = Vec::new();
    if !owned.is_empty() {
        let near_owned_box = |b: &Aabb| {
            owned_bounds
                .iter()
                .any(|ob| ob.distance_sq_to_aabb(b) <= r2)
        };
        let near_owned_point = |g: &Galaxy| {
            owned_bounds
                .iter()
                .any(|ob| ob.distance_sq_to_point(g.pos) <= r2)
        };
        let mut chunk: Vec<Galaxy> = Vec::with_capacity(STREAM_CHUNK);
        for s in (0..manifest.num_shards()).filter(|s| !(lo..hi).contains(s)) {
            if !near_owned_box(&manifest.shards[s].bounds) {
                continue;
            }
            let mut reader = ShardReader::open(dir, manifest, s)?;
            loop {
                chunk.clear();
                if reader.read_chunk(&mut chunk, STREAM_CHUNK)? == 0 {
                    break;
                }
                ghosts.extend(chunk.iter().filter(|g| near_owned_point(g)));
            }
            records_read += reader.records_read();
            bytes_read += reader.bytes_read();
        }
    }

    Ok(ShardRankData {
        rank,
        shard_range: (lo, hi),
        owned,
        owned_bounds,
        ghosts,
        records_read,
        bytes_read,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use galactos_catalog::uniform_box;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("galactos_domain_shard_test")
            .join(format!("{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn open_catalog(n: usize, box_len: f64, seed: u64) -> Catalog {
        let mut c = uniform_box(n, box_len, seed);
        c.periodic = None;
        c
    }

    #[test]
    fn plan_aligned_shards_partition_the_catalog() {
        let cat = open_catalog(500, 20.0, 3);
        let dir = tmpdir("partition");
        let manifest = write_sharded(&cat, 7, &dir).unwrap();
        assert_eq!(manifest.total_count, 500);
        assert_eq!(manifest.num_shards(), 7);
        // Every shard's galaxies lie inside its declared region, and the
        // counts add up.
        let mut total = 0u64;
        for s in 0..7 {
            let mut galaxies = Vec::new();
            let mut reader = ShardReader::open(&dir, &manifest, s).unwrap();
            while reader.read_chunk(&mut galaxies, 8192).unwrap() != 0 {}
            assert_eq!(galaxies.len() as u64, manifest.shards[s].count);
            total += manifest.shards[s].count;
            for g in &galaxies {
                assert!(
                    manifest.shards[s].bounds.distance_sq_to_point(g.pos) < 1e-18,
                    "galaxy outside shard region"
                );
            }
        }
        assert_eq!(total, 500);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_shards_is_an_error_and_creates_no_directory() {
        let cat = open_catalog(50, 20.0, 3);
        let dir = tmpdir("zero_shards");
        let err = write_sharded(&cat, 0, &dir).unwrap_err();
        assert!(
            matches!(&err, CatalogIoError::Unsupported(msg) if msg.contains("shard count 0")),
            "{err}"
        );
        assert!(!dir.exists());
    }

    #[test]
    fn shard_ranges_cover_all_shards_exactly_once() {
        for (shards, ranks) in [(8, 3), (5, 5), (12, 5), (3, 7), (1, 1), (16, 4)] {
            let mut seen = vec![0u32; shards];
            for r in 0..ranks {
                let (lo, hi) = shard_range_for_rank(shards, ranks, r);
                for count in &mut seen[lo..hi] {
                    *count += 1;
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "shards={shards} ranks={ranks}: {seen:?}"
            );
        }
    }

    #[test]
    fn distribution_matches_plan_ground_truth() {
        // With num_shards == num_ranks, shard-based ingestion must
        // reproduce exactly what the message-passing exchange delivers:
        // the plan's owned sets and halo ground truth.
        let cat = open_catalog(400, 25.0, 11);
        let rmax = 4.0;
        for ranks in [2usize, 3, 5] {
            let dir = tmpdir(&format!("groundtruth_{ranks}"));
            let manifest = write_sharded(&cat, ranks, &dir).unwrap();
            let positions = cat.positions();
            let plan = DomainPlan::build(&positions, cat.bounds, ranks);
            let halos = plan.halo_indices(&positions, rmax);
            let key = |g: &Galaxy| (g.pos.x.to_bits(), g.pos.y.to_bits(), g.pos.z.to_bits());
            for (r, halo) in halos.iter().enumerate() {
                let rd = distribute_from_shards(&dir, &manifest, r, ranks, rmax).unwrap();
                let mut got: Vec<_> = rd.owned.iter().map(key).collect();
                got.sort_unstable();
                let mut want: Vec<_> = plan
                    .owned_indices(r)
                    .iter()
                    .map(|&i| key(&cat.galaxies[i as usize]))
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "owned mismatch on rank {r}/{ranks}");
                let mut got_ghosts: Vec<_> = rd.ghosts.iter().map(key).collect();
                got_ghosts.sort_unstable();
                let mut want_ghosts: Vec<_> = halo
                    .iter()
                    .map(|&i| key(&cat.galaxies[i as usize]))
                    .collect();
                want_ghosts.sort_unstable();
                assert_eq!(
                    got_ghosts, want_ghosts,
                    "ghost mismatch on rank {r}/{ranks}"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn oversharded_distribution_keeps_every_needed_secondary() {
        // More shards than ranks: every rank's ghosts must still contain
        // every foreign galaxy within rmax of one of its owned regions.
        let cat = open_catalog(600, 30.0, 17);
        let rmax = 3.0;
        let (shards, ranks) = (11usize, 4usize);
        let dir = tmpdir("oversharded");
        let manifest = write_sharded(&cat, shards, &dir).unwrap();
        let mut total_owned = 0;
        for r in 0..ranks {
            let rd = distribute_from_shards(&dir, &manifest, r, ranks, rmax).unwrap();
            total_owned += rd.owned.len();
            let key = |g: &Galaxy| (g.pos.x.to_bits(), g.pos.y.to_bits(), g.pos.z.to_bits());
            let owned_keys: std::collections::BTreeSet<_> = rd.owned.iter().map(key).collect();
            let ghost_keys: std::collections::BTreeSet<_> = rd.ghosts.iter().map(key).collect();
            for g in &cat.galaxies {
                let needed = !owned_keys.contains(&key(g))
                    && rd
                        .owned_bounds
                        .iter()
                        .any(|b| b.distance_sq_to_point(g.pos) <= rmax * rmax);
                assert_eq!(
                    ghost_keys.contains(&key(g)),
                    needed,
                    "rank {r} ghost set wrong for galaxy at {:?}",
                    g.pos
                );
            }
        }
        assert_eq!(total_owned, 600);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spatial_pruning_skips_far_shards() {
        // Small rmax and many shards: a corner rank must not read the
        // whole catalog.
        let cat = open_catalog(800, 40.0, 23);
        let rmax = 2.0;
        let dir = tmpdir("pruning");
        let manifest = write_sharded(&cat, 16, &dir).unwrap();
        let full_records = manifest.total_count;
        for r in 0..4 {
            let rd = distribute_from_shards(&dir, &manifest, r, 4, rmax).unwrap();
            assert!(
                rd.records_read < full_records,
                "rank {r} streamed the whole catalog ({} records)",
                rd.records_read
            );
            assert!(rd.resident() < cat.len());
            assert!(rd.bytes_read > 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_owned_shards_skip_ghost_streaming() {
        // 3 galaxies over 6 shards leaves some shards empty. A rank
        // whose owned shards hold no galaxies has no primaries, so it
        // must not stream neighbor shards for ghosts it can never use.
        let cat = open_catalog(3, 10.0, 37);
        let dir = tmpdir("empty_owned");
        let manifest = write_sharded(&cat, 6, &dir).unwrap();
        let mut saw_empty = false;
        for r in 0..6 {
            let rd = distribute_from_shards(&dir, &manifest, r, 6, 8.0).unwrap();
            if rd.owned.is_empty() {
                saw_empty = true;
                assert!(rd.ghosts.is_empty(), "ghosts without primaries are waste");
                assert_eq!(rd.records_read, 0, "rank {r} streamed neighbor records");
            }
        }
        assert!(saw_empty, "test needs at least one empty-owned rank");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn periodic_manifest_is_rejected_not_miscomputed() {
        // The ghost predicates assume an open box; a periodic manifest
        // must surface as Unsupported instead of silently dropping
        // wrap-around neighbors.
        let cat = uniform_box(80, 10.0, 31); // keeps periodic = Some(10.0)
        let dir = tmpdir("periodic_rejected");
        let manifest = write_sharded(&cat, 3, &dir).unwrap();
        assert_eq!(manifest.periodic, Some(10.0));
        assert!(matches!(
            distribute_from_shards(&dir, &manifest, 0, 3, 2.0),
            Err(CatalogIoError::Unsupported(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explicit_range_is_rank_identity_independent() {
        // The supervised pipeline reassigns a dead rank's shard range to
        // a survivor: the ingested data must depend only on the range.
        let cat = open_catalog(300, 20.0, 41);
        let dir = tmpdir("identity_independent");
        let manifest = write_sharded(&cat, 6, &dir).unwrap();
        let key = |g: &Galaxy| (g.pos.x.to_bits(), g.pos.y.to_bits(), g.pos.z.to_bits());
        let a = distribute_shard_range(&dir, &manifest, 1, 2, 4, 3.0).unwrap();
        let b = distribute_shard_range(&dir, &manifest, 5, 2, 4, 3.0).unwrap();
        assert_eq!(
            a.owned.iter().map(key).collect::<Vec<_>>(),
            b.owned.iter().map(key).collect::<Vec<_>>()
        );
        assert_eq!(
            a.ghosts.iter().map(key).collect::<Vec<_>>(),
            b.ghosts.iter().map(key).collect::<Vec<_>>()
        );
        // And the canonical range matches the rank-based entry point.
        let (lo, hi) = shard_range_for_rank(6, 3, 1);
        let via_rank = distribute_from_shards(&dir, &manifest, 1, 3, 3.0).unwrap();
        let via_range = distribute_shard_range(&dir, &manifest, 1, lo, hi, 3.0).unwrap();
        assert_eq!(
            via_rank.owned.iter().map(key).collect::<Vec<_>>(),
            via_range.owned.iter().map(key).collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn more_ranks_than_shards_leaves_spare_ranks_empty() {
        let cat = open_catalog(100, 10.0, 29);
        let dir = tmpdir("spare_ranks");
        let manifest = write_sharded(&cat, 2, &dir).unwrap();
        let mut total = 0;
        for r in 0..5 {
            let rd = distribute_from_shards(&dir, &manifest, r, 5, 2.0).unwrap();
            total += rd.owned.len();
            if rd.owned.is_empty() {
                assert!(rd.ghosts.is_empty(), "ghosts without primaries are waste");
                assert_eq!(rd.records_read, 0);
            }
        }
        assert_eq!(total, 100);
        std::fs::remove_dir_all(&dir).ok();
    }
}
