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
//! (92 bytes + 72 per shard), reads its *own* shards whole as its
//! primaries, and reads only the neighbor shards whose region lies
//! within `rmax` of one of its owned regions, keeping a record only if
//! it is a ghost as it decodes. Resident galaxies per rank are
//! `owned + kept ghosts` (plus one 8 KiB read buffer) — never the full
//! catalog, nor a whole neighbor shard — and the per-rank
//! `records_read` / `bytes_read` counters quantify the I/O the spatial
//! pruning saved.

use galactos_catalog::io::{CatalogIoError, RECORD_BYTES};
use galactos_catalog::shard::{self, read_shard, ShardManifest, HEADER_BYTES};
use galactos_catalog::{Catalog, Galaxy, ShardAssignment};
use galactos_math::Aabb;
use std::path::Path;

use crate::partition::DomainPlan;

/// Write `catalog` into `dir` as GCAT v2 shards aligned with the
/// `num_shards`-way recursive-bisection partition ([`DomainPlan::build`],
/// so shard `s` is the region rank `s` of a `num_shards`-rank run would
/// own). Zero shards is [`CatalogIoError::Unsupported`], and creates
/// nothing.
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
    let plan = DomainPlan::build(&catalog.positions(), catalog.bounds, num_shards);
    let assignment = ShardAssignment {
        shard_of: (0..catalog.len())
            .map(|g| u32::try_from(plan.owner_of(g)).expect("owners are u32 in the plan"))
            .collect(),
        bounds: (0..num_shards).map(|r| *plan.rank_box(r)).collect(),
    };
    // Free the plan before the writer allocates its id table.
    drop(plan);
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
    /// Owned galaxies — the rank's primaries (shard-major, record order
    /// within each shard).
    pub owned: Vec<Galaxy>,
    /// Ghost galaxies within `rmax` of an owned region, read from
    /// neighbor shards.
    pub ghosts: Vec<Galaxy>,
    /// Total shard records this rank read (owned + neighbor shards;
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

/// Ingest a sharded catalog for one rank of `num_ranks`: read the
/// rank's own shards fully, then read every foreign shard whose region
/// lies within `rmax` of an owned region, keeping only the galaxies
/// that are actual ghosts. Purely filesystem-driven — no
/// communication, no root rank. A `rank` not below `num_ranks` is
/// [`CatalogIoError::Unsupported`].
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
    if rank >= num_ranks {
        return Err(CatalogIoError::Unsupported(format!(
            "rank {rank} out of range for {num_ranks} ranks over {} shards",
            manifest.num_shards()
        )));
    }
    let (lo, hi) = shard_range_for_rank(manifest.num_shards(), num_ranks, rank);
    distribute_shard_range(dir, manifest, lo, hi, rmax)
}

/// Ingest an explicit shard range `[lo, hi)`, whichever rank reads it.
/// This is the primitive the supervised pipeline uses to *reassign* a
/// dead rank's shards to a survivor (and to compute per-shard partials
/// one shard at a time): the data depends only on the shard range. A
/// range that is reversed or runs past the shard count is
/// [`CatalogIoError::Unsupported`].
pub fn distribute_shard_range(
    dir: impl AsRef<Path>,
    manifest: &ShardManifest,
    lo: usize,
    hi: usize,
    rmax: f64,
) -> Result<ShardRankData, CatalogIoError> {
    if lo > hi || hi > manifest.num_shards() {
        return Err(CatalogIoError::Unsupported(format!(
            "shard range {lo}..{hi} out of range for {} shards",
            manifest.num_shards()
        )));
    }
    if let Some(box_len) = manifest.periodic {
        return Err(CatalogIoError::Unsupported(format!(
            "sharded distribution treats catalogs as open boxes (like the halo \
             exchange); manifest declares a periodic box of length {box_len}"
        )));
    }
    let dir = dir.as_ref();
    let r2 = rmax * rmax;
    let owned_shards = &manifest.shards[lo..hi];

    // Owned shards are read whole, so reserve their records up front:
    // growing by doubling raised the benchmark's peak RSS. A count that
    // no file backs fails in `read_shard` before a record is pushed, and
    // a reservation the allocator refuses is skipped.
    let owned_count: u64 = owned_shards.iter().map(|m| m.count).sum();
    let mut owned = Vec::new();
    let _ = owned.try_reserve_exact(usize::try_from(owned_count).unwrap_or(usize::MAX));
    for s in lo..hi {
        read_shard(dir, manifest, s, |_| true, &mut owned)?;
    }

    // Neighbor shards: only regions within rmax of an owned region can
    // hold ghosts (a ghost g satisfies dist(g, owned box) ≤ rmax, and g
    // lies inside its shard's region, so the box-box gap is ≤ rmax).
    // Gated on owned *galaxies*, not regions: a rank whose shards are
    // all empty has no primaries, so ghosts could never contribute.
    let mut ghosts = Vec::new();
    let mut neighbors = Vec::new();
    if !owned.is_empty() {
        let near_owned_box = |b: &Aabb| {
            owned_shards
                .iter()
                .any(|o| o.bounds.distance_sq_to_aabb(b) <= r2)
        };
        let near_owned_point = |g: &Galaxy| {
            owned_shards
                .iter()
                .any(|o| o.bounds.distance_sq_to_point(g.pos) <= r2)
        };
        neighbors = (0..manifest.num_shards())
            .filter(|&s| !(lo..hi).contains(&s) && near_owned_box(&manifest.shards[s].bounds))
            .collect();
        for &s in &neighbors {
            read_shard(dir, manifest, s, near_owned_point, &mut ghosts)?;
        }
    }

    // A shard file that reads without error is its header plus exactly
    // its manifest count of records.
    let files = (hi - lo + neighbors.len()) as u64;
    let neighbor_count: u64 = neighbors.iter().map(|&s| manifest.shards[s].count).sum();
    let records_read = owned_count + neighbor_count;
    let bytes_read = files * HEADER_BYTES as u64 + records_read * RECORD_BYTES as u64;
    Ok(ShardRankData {
        owned,
        ghosts,
        records_read,
        bytes_read,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use galactos_catalog::uniform_box;
    use galactos_math::Vec3;
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
            read_shard(&dir, &manifest, s, |_| true, &mut galaxies).unwrap();
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
            let (lo, hi) = shard_range_for_rank(shards, ranks, r);
            let owned_bounds: Vec<Aabb> =
                manifest.shards[lo..hi].iter().map(|m| m.bounds).collect();
            total_owned += rd.owned.len();
            let key = |g: &Galaxy| (g.pos.x.to_bits(), g.pos.y.to_bits(), g.pos.z.to_bits());
            let owned_keys: std::collections::BTreeSet<_> = rd.owned.iter().map(key).collect();
            let ghost_keys: std::collections::BTreeSet<_> = rd.ghosts.iter().map(key).collect();
            for g in &cat.galaxies {
                let needed = !owned_keys.contains(&key(g))
                    && owned_bounds
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
            // Exactly the owned shards plus the neighbors within rmax of
            // one, counted from the manifest and measured on disk.
            let (lo, hi) = shard_range_for_rank(16, 4, r);
            let owned = &manifest.shards[lo..hi];
            let opened: Vec<usize> = (0..16)
                .filter(|&s| {
                    (lo..hi).contains(&s)
                        || owned.iter().any(|o| {
                            o.bounds.distance_sq_to_aabb(&manifest.shards[s].bounds) <= rmax * rmax
                        })
                })
                .collect();
            assert!(opened.len() > hi - lo, "rank {r} needs a neighbor shard");
            let records: u64 = opened.iter().map(|&s| manifest.shards[s].count).sum();
            let bytes: u64 = opened
                .iter()
                .map(|&s| {
                    let file = dir.join(ShardManifest::shard_file_name(s));
                    std::fs::metadata(file).unwrap().len()
                })
                .sum();
            assert_eq!(rd.records_read, records, "rank {r}");
            assert_eq!(rd.bytes_read, bytes, "rank {r}");
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
        // a survivor: a range takes no rank, and the canonical range of
        // a rank ingests what the rank-based entry point does.
        let cat = open_catalog(300, 20.0, 41);
        let dir = tmpdir("identity_independent");
        let manifest = write_sharded(&cat, 6, &dir).unwrap();
        let key = |g: &Galaxy| (g.pos.x.to_bits(), g.pos.y.to_bits(), g.pos.z.to_bits());
        let (lo, hi) = shard_range_for_rank(6, 3, 1);
        let via_rank = distribute_from_shards(&dir, &manifest, 1, 3, 3.0).unwrap();
        let via_range = distribute_shard_range(&dir, &manifest, lo, hi, 3.0).unwrap();
        assert_eq!(
            via_rank.owned.iter().map(key).collect::<Vec<_>>(),
            via_range.owned.iter().map(key).collect::<Vec<_>>()
        );
        assert_eq!(
            via_rank.ghosts.iter().map(key).collect::<Vec<_>>(),
            via_range.ghosts.iter().map(key).collect::<Vec<_>>()
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

    #[test]
    fn out_of_range_shard_arguments_are_unsupported() {
        let cat = open_catalog(60, 10.0, 43);
        let dir = tmpdir("out_of_range");
        let manifest = write_sharded(&cat, 3, &dir).unwrap();
        let unsupported = |result: Result<(), CatalogIoError>, names: &[&str]| {
            let err = result.unwrap_err();
            let CatalogIoError::Unsupported(msg) = &err else {
                panic!("expected Unsupported, got {err}");
            };
            for name in names {
                assert!(msg.contains(name), "{msg} should name {name}");
            }
        };
        unsupported(
            read_shard(&dir, &manifest, 7, |_| true, &mut Vec::new()),
            &["7", "3 shards"],
        );
        unsupported(
            distribute_from_shards(&dir, &manifest, 5, 3, 2.0).map(drop),
            &["rank 5", "3 ranks", "3 shards"],
        );
        unsupported(
            distribute_shard_range(&dir, &manifest, 2, 4, 2.0).map(drop),
            &["2..4", "3 shards"],
        );
        unsupported(
            distribute_shard_range(&dir, &manifest, 2, 1, 2.0).map(drop),
            &["2..1", "3 shards"],
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn forged_huge_owned_count_is_an_error_not_an_abort() {
        // The owned reservation comes from the manifest: 2^40 records
        // (32 TiB) must be skipped, not abort, and the read then fails.
        let cat = open_catalog(60, 10.0, 43);
        let dir = tmpdir("forged_count");
        let mut manifest = write_sharded(&cat, 3, &dir).unwrap();
        manifest.shards[0].count = 1 << 40;
        let err = distribute_shard_range(&dir, &manifest, 0, 1, 2.0).unwrap_err();
        assert!(
            matches!(err, CatalogIoError::InShard { shard: 0, .. }),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// FNV-1a 64 of the manifest followed by every shard file in index
    /// order, after checking the directory holds nothing else.
    fn directory_hash(dir: &Path, num_shards: usize) -> u64 {
        let files = std::fs::read_dir(dir).unwrap().count();
        assert_eq!(files, num_shards + 1, "manifest plus one file per shard");
        let names = std::iter::once(shard::MANIFEST_FILE.to_string())
            .chain((0..num_shards).map(ShardManifest::shard_file_name));
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for name in names {
            for b in std::fs::read(dir.join(name)).unwrap() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn gcat_v2_bytes_are_pinned() {
        // The on-disk bytes of whole shard directories, so a writer and a
        // reader cannot change the format together unnoticed. A change
        // that means to move these bytes re-blesses the table and says so.
        let mut signed = open_catalog(3000, 50.0, 7);
        for (i, g) in signed.galaxies.iter_mut().enumerate() {
            g.weight = if i % 3 == 0 {
                -0.5 - 1e-3 * i as f64
            } else {
                1.0 + 2e-3 * i as f64
            };
        }
        let periodic = uniform_box(1200, 10.0, 19);
        assert_eq!(periodic.periodic, Some(10.0));
        let single = Catalog::new(vec![Galaxy::new(Vec3::new(1.5, -2.0, 3.25), 0.75)]);
        let cases = [
            ("signed", &signed),
            ("periodic", &periodic),
            ("single", &single),
        ];
        let shard_counts = [1usize, 3, 7, 16, 64];
        let mut got = Vec::new();
        for (name, cat) in cases {
            for shards in shard_counts {
                let dir = tmpdir(&format!("pinned_{name}_{shards}"));
                write_sharded(cat, shards, &dir).unwrap();
                got.push(directory_hash(&dir, shards));
                std::fs::remove_dir_all(&dir).ok();
            }
        }
        // Rows: signed, periodic, single; columns: 1, 3, 7, 16, 64 shards.
        let want: [u64; 15] = [
            0xb8d6_3697_66be_d1a0,
            0x9368_7670_3a31_643e,
            0xff43_6f13_f550_b19f,
            0x652c_9bd3_19ce_cb76,
            0xab1a_650d_5216_f8e9,
            0xcdd9_e5c5_c7a4_3c92,
            0x8e8d_1e13_33e7_dcea,
            0x459f_3ef2_5953_9845,
            0xe2d2_5469_5f71_7083,
            0x6c77_4742_714a_a9d0,
            0x147d_038f_cd4f_4707,
            0xe866_96f7_3bc9_3244,
            0x7ec4_9940_377b_4165,
            0x8830_0a80_9022_e950,
            0x7363_fc87_6eda_235c,
        ];
        assert_eq!(got, want, "got {got:#018x?}");
    }
}
