//! GCAT v2: a spatially-sharded catalog format with streaming readers.
//!
//! The paper's headline catalog (2 billion galaxies, §1) does not fit
//! in one rank's memory, so v2 stores a catalog as a *directory* of
//! bounded-size shard files plus one small manifest, instead of v1's
//! monolithic stream. Shards are meant to follow the same recursive-
//! bisection domains as the halo exchange (see
//! `galactos_domain::shard::write_sharded`), so a distributed run can
//! open only its own shards plus the neighbors intersecting its `rmax`
//! halo — no rank ever materializes the full catalog.
//!
//! ## On-disk layout
//!
//! All integers and floats are little-endian. Every header ends in an
//! FNV-1a 64 checksum of the bytes before it, and every shard's record
//! payload is checksummed into the manifest, so corrupt input fails
//! loudly instead of feeding garbage geometry into a week-long run.
//!
//! `manifest.gcm` (92-byte header + 72 bytes per shard + 8):
//!
//! ```text
//! magic        u32   0x47434154 ("GCAT")
//! version      u32   2
//! kind         u32   0 (manifest)
//! num_shards   u32
//! total_count  u64
//! flags        u32   bit 0: periodic
//! box_len      f64   (valid when periodic)
//! bounds       6×f64 (global lo.xyz, hi.xyz)
//! checksum     u64   FNV-1a of the 84 header bytes above
//! entries      num_shards × {
//!     count            u64
//!     weight_sum       f64
//!     bounds           6×f64  (the shard's spatial region)
//!     records_checksum u64    FNV-1a of the shard's record bytes
//! }
//! checksum     u64   FNV-1a of all entry bytes
//! ```
//!
//! `shard_NNNN.gcat` (92-byte header, mirrors the manifest header):
//!
//! ```text
//! magic        u32   0x47434154
//! version      u32   2
//! kind         u32   1 (shard)
//! shard_index  u32
//! count        u64
//! flags        u32
//! box_len      f64
//! bounds       6×f64 (the shard's spatial region)
//! checksum     u64   FNV-1a of the 84 header bytes above
//! records      count × (x, y, z, weight) f64
//! ```
//!
//! [`ShardReader`] streams records in caller-sized chunks, cross-checks
//! each shard file against the manifest entry (index, count, bounds)
//! and verifies the payload checksum once the last record is delivered.

use crate::galaxy::{Catalog, Galaxy};
use crate::io::{
    checked_record_count, decode_record, encode_record, CatalogIoError, MAGIC, RECORD_BYTES,
};
use bytes::{Buf, BufMut, BytesMut};
use galactos_math::{Aabb, Vec3};
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// GCAT version written by this module.
pub const SHARD_VERSION: u32 = 2;
/// `kind` discriminant of a manifest header.
const KIND_MANIFEST: u32 = 0;
/// `kind` discriminant of a shard-file header.
const KIND_SHARD: u32 = 1;
/// Bytes in a manifest or shard header, checksum included.
pub const HEADER_BYTES: usize = 92;
/// Bytes in one manifest shard entry.
pub const ENTRY_BYTES: usize = 72;
/// Default file name of the manifest inside a shard directory.
pub const MANIFEST_FILE: &str = "manifest.gcm";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64 accumulator (dependency-free; collision
/// resistance is not a goal — detecting bit rot and truncation is).
#[derive(Clone, Copy, Debug)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    fn finish(self) -> u64 {
        self.0
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut f = Fnv::new();
    f.update(bytes);
    f.finish()
}

/// Per-shard metadata recorded in the manifest.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardMeta {
    /// Number of galaxy records in the shard file.
    pub count: u64,
    /// Sum of the shard's weights (accumulated in record order).
    pub weight_sum: f64,
    /// The shard's spatial region. Galaxies of the shard lie inside it;
    /// regions of sibling shards tile the catalog bounds.
    pub bounds: Aabb,
    /// FNV-1a 64 of the shard's record bytes.
    pub records_checksum: u64,
}

/// The v2 manifest: global catalog facts plus one [`ShardMeta`] per
/// shard. Reading it costs `92 + 72·num_shards + 8` bytes — this is all
/// a rank needs to decide which shard files to open.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardManifest {
    /// Total records across all shards.
    pub total_count: u64,
    /// Global spatial bounds of the catalog.
    pub bounds: Aabb,
    /// `Some(L)` when the catalog lives in a periodic cube `[0, L)³`.
    pub periodic: Option<f64>,
    /// Per-shard metadata, indexed by shard id.
    pub shards: Vec<ShardMeta>,
}

fn put_aabb(buf: &mut BytesMut, b: &Aabb) {
    for v in [b.lo, b.hi] {
        buf.put_f64_le(v.x);
        buf.put_f64_le(v.y);
        buf.put_f64_le(v.z);
    }
}

fn get_aabb(buf: &mut impl Buf) -> Aabb {
    let lo = Vec3::new(buf.get_f64_le(), buf.get_f64_le(), buf.get_f64_le());
    let hi = Vec3::new(buf.get_f64_le(), buf.get_f64_le(), buf.get_f64_le());
    Aabb { lo, hi }
}

impl ShardManifest {
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// File name of shard `index` inside the shard directory.
    pub fn shard_file_name(index: usize) -> String {
        format!("shard_{index:04}.gcat")
    }

    /// Encode the manifest into bytes.
    pub fn to_bytes(&self) -> BytesMut {
        let mut buf = BytesMut::with_capacity(HEADER_BYTES + ENTRY_BYTES * self.shards.len() + 8);
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(SHARD_VERSION);
        buf.put_u32_le(KIND_MANIFEST);
        buf.put_u32_le(u32::try_from(self.shards.len()).expect("shard count fits in u32"));
        buf.put_u64_le(self.total_count);
        buf.put_u32_le(u32::from(self.periodic.is_some()));
        buf.put_f64_le(self.periodic.unwrap_or(0.0));
        put_aabb(&mut buf, &self.bounds);
        let header_sum = fnv1a(&buf[..]);
        buf.put_u64_le(header_sum);
        let entries_start = buf.len();
        for s in &self.shards {
            buf.put_u64_le(s.count);
            buf.put_f64_le(s.weight_sum);
            put_aabb(&mut buf, &s.bounds);
            buf.put_u64_le(s.records_checksum);
        }
        let entries_sum = fnv1a(&buf[entries_start..]);
        buf.put_u64_le(entries_sum);
        buf
    }

    /// Decode a manifest, verifying both checksums.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CatalogIoError> {
        if bytes.len() < HEADER_BYTES {
            return Err(CatalogIoError::Truncated);
        }
        let mut buf = bytes;
        let magic = buf.get_u32_le();
        if magic != MAGIC {
            return Err(CatalogIoError::BadMagic(magic));
        }
        let version = buf.get_u32_le();
        if version != SHARD_VERSION {
            return Err(CatalogIoError::BadVersion(version));
        }
        let kind = buf.get_u32_le();
        if kind != KIND_MANIFEST {
            return Err(CatalogIoError::Corrupt(format!(
                "expected manifest kind {KIND_MANIFEST}, found {kind}"
            )));
        }
        let num_shards = usize::try_from(buf.get_u32_le()).expect("u32 fits in usize");
        let total_count = buf.get_u64_le();
        let flags = buf.get_u32_le();
        let box_len = buf.get_f64_le();
        let bounds = get_aabb(&mut buf);
        let declared = buf.get_u64_le();
        let actual = fnv1a(&bytes[..HEADER_BYTES - 8]);
        if declared != actual {
            return Err(CatalogIoError::Corrupt(format!(
                "manifest header checksum mismatch: stored {declared:#018x}, computed {actual:#018x}"
            )));
        }
        // num_shards is attacker-controlled: size the entry table with
        // checked arithmetic, like the record counts.
        let entry_bytes = num_shards
            .checked_mul(ENTRY_BYTES)
            .ok_or(CatalogIoError::Truncated)?;
        if buf.remaining() < entry_bytes + 8 {
            return Err(CatalogIoError::Truncated);
        }
        let entries_raw = &bytes[HEADER_BYTES..HEADER_BYTES + entry_bytes];
        let mut shards = Vec::with_capacity(num_shards);
        let mut sum = 0u64;
        for _ in 0..num_shards {
            let count = buf.get_u64_le();
            let weight_sum = buf.get_f64_le();
            let shard_bounds = get_aabb(&mut buf);
            let records_checksum = buf.get_u64_le();
            sum = sum
                .checked_add(count)
                .ok_or_else(|| CatalogIoError::Corrupt("shard counts overflow u64".into()))?;
            shards.push(ShardMeta {
                count,
                weight_sum,
                bounds: shard_bounds,
                records_checksum,
            });
        }
        let declared_entries = buf.get_u64_le();
        let actual_entries = fnv1a(entries_raw);
        if declared_entries != actual_entries {
            return Err(CatalogIoError::Corrupt(
                "manifest entry table checksum mismatch".into(),
            ));
        }
        if sum != total_count {
            return Err(CatalogIoError::Corrupt(format!(
                "shard counts sum to {sum}, manifest claims {total_count}"
            )));
        }
        Ok(ShardManifest {
            total_count,
            bounds,
            periodic: if flags & 1 != 0 { Some(box_len) } else { None },
            shards,
        })
    }

    /// Write the manifest to `path`.
    pub fn write(&self, path: impl AsRef<Path>) -> Result<(), CatalogIoError> {
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(&self.to_bytes())?;
        w.flush()?;
        Ok(())
    }

    /// Read and verify a manifest from `path`.
    pub fn read(path: impl AsRef<Path>) -> Result<Self, CatalogIoError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        Self::from_bytes(&bytes)
    }
}

/// How galaxies map onto shards: a shard id per galaxy plus the spatial
/// region declared for each shard.
///
/// Constructed by hand for tests, or from a
/// `galactos_domain::partition::DomainPlan` (see
/// `galactos_domain::shard::plan_assignment`) so shards coincide with
/// the recursive-bisection domains the halo exchange uses.
#[derive(Clone, Debug)]
pub struct ShardAssignment {
    /// `shard_of[g]` = shard owning galaxy `g`.
    pub shard_of: Vec<u32>,
    /// `bounds[s]` = spatial region of shard `s`; must contain every
    /// galaxy assigned to `s`.
    pub bounds: Vec<Aabb>,
}

/// Streaming writer for one shard directory.
///
/// Records are pushed one at a time and go straight to the shard files
/// through fixed-size `BufWriter`s, so writing a catalog of any size
/// needs memory proportional to the *shard count*, not the galaxy
/// count. [`ShardedWriter::finish`] seeks back to patch each header
/// with the final count/checksum and writes the manifest.
///
/// Every shard file stays open for the writer's lifetime (records
/// arrive in catalog order, not shard order), so the shard count is
/// bounded by the process's open-file limit — typically 1024 by
/// default on Linux. Shard counts are expected to track *rank* counts
/// (thousands at most, cf. the paper's 9636); raise `ulimit -n` or
/// shard in passes if you need more.
pub struct ShardedWriter {
    dir: PathBuf,
    periodic: Option<f64>,
    bounds: Aabb,
    files: Vec<BufWriter<File>>,
    metas: Vec<ShardMeta>,
    sums: Vec<Fnv>,
    total: u64,
}

fn shard_header(index: u32, count: u64, periodic: Option<f64>, bounds: &Aabb) -> BytesMut {
    let mut buf = BytesMut::with_capacity(HEADER_BYTES);
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(SHARD_VERSION);
    buf.put_u32_le(KIND_SHARD);
    buf.put_u32_le(index);
    buf.put_u64_le(count);
    buf.put_u32_le(u32::from(periodic.is_some()));
    buf.put_f64_le(periodic.unwrap_or(0.0));
    put_aabb(&mut buf, bounds);
    let sum = fnv1a(&buf[..]);
    buf.put_u64_le(sum);
    buf
}

impl ShardedWriter {
    /// Create `dir` (and the empty shard files) for a catalog with the
    /// given global facts and per-shard regions. No regions is
    /// [`CatalogIoError::Unsupported`], and creates nothing.
    pub fn create(
        dir: impl AsRef<Path>,
        bounds: Aabb,
        periodic: Option<f64>,
        shard_bounds: &[Aabb],
    ) -> Result<Self, CatalogIoError> {
        if shard_bounds.is_empty() {
            return Err(CatalogIoError::Unsupported(
                "shard count 0: a sharded catalog needs at least one shard".into(),
            ));
        }
        assert!(
            u32::try_from(shard_bounds.len()).is_ok(),
            "shard count must fit in u32"
        );
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut files = Vec::with_capacity(shard_bounds.len());
        let mut metas = Vec::with_capacity(shard_bounds.len());
        for (i, &b) in shard_bounds.iter().enumerate() {
            let mut w = BufWriter::new(File::create(dir.join(ShardManifest::shard_file_name(i)))?);
            // Placeholder header; finish() rewrites it with the real
            // count once the record stream is complete.
            let index = u32::try_from(i).expect("shard count checked at creation");
            w.write_all(&shard_header(index, 0, periodic, &b))?;
            files.push(w);
            metas.push(ShardMeta {
                count: 0,
                weight_sum: 0.0,
                bounds: b,
                records_checksum: 0,
            });
        }
        Ok(ShardedWriter {
            dir,
            periodic,
            bounds,
            files,
            metas,
            sums: vec![Fnv::new(); shard_bounds.len()],
            total: 0,
        })
    }

    #[inline]
    pub fn num_shards(&self) -> usize {
        self.files.len()
    }

    /// Append one galaxy to shard `shard`.
    pub fn push(&mut self, shard: usize, g: &Galaxy) -> Result<(), CatalogIoError> {
        let rec = encode_record(g);
        self.files[shard].write_all(&rec)?;
        self.sums[shard].update(&rec);
        let meta = &mut self.metas[shard];
        meta.count += 1;
        meta.weight_sum += g.weight;
        self.total += 1;
        Ok(())
    }

    /// Patch the shard headers, write the manifest, and return it.
    pub fn finish(mut self) -> Result<ShardManifest, CatalogIoError> {
        for (i, mut w) in self.files.drain(..).enumerate() {
            let meta = &mut self.metas[i];
            meta.records_checksum = self.sums[i].finish();
            w.seek(SeekFrom::Start(0))?;
            w.write_all(&shard_header(
                u32::try_from(i).expect("shard count checked at creation"),
                meta.count,
                self.periodic,
                &meta.bounds,
            ))?;
            w.flush()?;
        }
        let manifest = ShardManifest {
            total_count: self.total,
            bounds: self.bounds,
            periodic: self.periodic,
            shards: self.metas,
        };
        manifest.write(self.dir.join(MANIFEST_FILE))?;
        Ok(manifest)
    }
}

/// Write `catalog` into `dir` as a GCAT v2 shard directory following
/// `assignment`, returning the manifest.
///
/// Every galaxy must be assigned to a shard inside its declared region;
/// debug builds assert this.
pub fn write_sharded(
    catalog: &Catalog,
    assignment: &ShardAssignment,
    dir: impl AsRef<Path>,
) -> Result<ShardManifest, CatalogIoError> {
    assert_eq!(
        assignment.shard_of.len(),
        catalog.len(),
        "assignment must cover every galaxy"
    );
    let mut writer =
        ShardedWriter::create(dir, catalog.bounds, catalog.periodic, &assignment.bounds)?;
    for (g, &s) in catalog.galaxies.iter().zip(&assignment.shard_of) {
        let si = usize::try_from(s).expect("u32 shard id fits in usize");
        debug_assert!(
            assignment.bounds[si].distance_sq_to_point(g.pos) < 1e-18,
            "galaxy at {:?} assigned to shard {s} outside its region",
            g.pos
        );
        writer.push(si, g)?;
    }
    writer.finish()
}

/// Streaming reader for one shard file.
///
/// Validates the shard header against the manifest entry at open, then
/// hands out records in caller-sized chunks; after the last record it
/// verifies the payload checksum and count, so short files and bit rot
/// surface as [`CatalogIoError::Truncated`] / [`CatalogIoError::Corrupt`]
/// instead of silently thinning the catalog. Every error is wrapped in
/// [`CatalogIoError::InShard`] carrying the shard file path and index,
/// so a rank streaming N shards can name the bad one.
pub struct ShardReader {
    file: std::io::BufReader<File>,
    path: std::path::PathBuf,
    meta: ShardMeta,
    index: usize,
    delivered: u64,
    sum: Fnv,
    bytes_read: u64,
    verified: bool,
}

impl ShardReader {
    /// Open shard `index` of `manifest` inside `dir`.
    pub fn open(
        dir: impl AsRef<Path>,
        manifest: &ShardManifest,
        index: usize,
    ) -> Result<Self, CatalogIoError> {
        let path = dir.as_ref().join(ShardManifest::shard_file_name(index));
        Self::open_inner(path.clone(), manifest, index).map_err(|e| e.in_shard(&path, index))
    }

    fn open_inner(
        path: std::path::PathBuf,
        manifest: &ShardManifest,
        index: usize,
    ) -> Result<Self, CatalogIoError> {
        let meta = *manifest
            .shards
            .get(index)
            .unwrap_or_else(|| panic!("shard {index} out of range"));
        let mut file = std::io::BufReader::new(File::open(&path)?);
        let mut header = [0u8; HEADER_BYTES];
        read_exact_or_truncated(&mut file, &mut header)?;
        let mut buf = &header[..];
        let magic = buf.get_u32_le();
        if magic != MAGIC {
            return Err(CatalogIoError::BadMagic(magic));
        }
        let version = buf.get_u32_le();
        if version != SHARD_VERSION {
            return Err(CatalogIoError::BadVersion(version));
        }
        let kind = buf.get_u32_le();
        if kind != KIND_SHARD {
            return Err(CatalogIoError::Corrupt(format!(
                "expected shard kind {KIND_SHARD}, found {kind}"
            )));
        }
        let stored_index = buf.get_u32_le();
        let count = buf.get_u64_le();
        let _flags = buf.get_u32_le();
        let _box_len = buf.get_f64_le();
        let bounds = get_aabb(&mut buf);
        let declared = buf.get_u64_le();
        let actual = fnv1a(&header[..HEADER_BYTES - 8]);
        if declared != actual {
            return Err(CatalogIoError::Corrupt(format!(
                "shard {index} header checksum mismatch"
            )));
        }
        if usize::try_from(stored_index).expect("u32 fits in usize") != index {
            return Err(CatalogIoError::Corrupt(format!(
                "shard file claims index {stored_index}, manifest expects {index}"
            )));
        }
        if count != meta.count {
            return Err(CatalogIoError::Corrupt(format!(
                "shard {index} holds {count} records, manifest expects {}",
                meta.count
            )));
        }
        if bounds != meta.bounds {
            return Err(CatalogIoError::Corrupt(format!(
                "shard {index} bounds disagree with the manifest"
            )));
        }
        // Reject counts whose payload cannot be addressed before any
        // allocation happens (same hardening as the v1 path).
        checked_record_count(count, usize::MAX)?;
        Ok(ShardReader {
            file,
            path,
            meta,
            index,
            delivered: 0,
            sum: Fnv::new(),
            bytes_read: HEADER_BYTES as u64,
            verified: count == 0,
        })
    }

    /// Records delivered so far.
    #[inline]
    pub fn records_read(&self) -> u64 {
        self.delivered
    }

    /// Bytes consumed from the shard file so far (header included).
    #[inline]
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Append up to `max` records to `out`; returns how many were read.
    /// A return of 0 with nonzero `max` means the shard is exhausted
    /// and has passed its checksum verification (`max == 0` is a no-op
    /// — verification only runs once the last record is delivered).
    pub fn read_chunk(
        &mut self,
        out: &mut Vec<Galaxy>,
        max: usize,
    ) -> Result<usize, CatalogIoError> {
        let path = self.path.clone();
        let index = self.index;
        self.read_chunk_inner(out, max)
            .map_err(|e| e.in_shard(&path, index))
    }

    fn read_chunk_inner(
        &mut self,
        out: &mut Vec<Galaxy>,
        max: usize,
    ) -> Result<usize, CatalogIoError> {
        let left = self.meta.count - self.delivered;
        if left == 0 {
            self.verify_end()?;
            return Ok(0);
        }
        let n = usize::try_from(left.min(max as u64)).expect("bounded by max, a usize");
        if n == 0 {
            return Ok(0);
        }
        out.reserve(n);
        let mut rec = [0u8; RECORD_BYTES];
        for k in 0..n {
            read_exact_or_truncated(&mut self.file, &mut rec)?;
            self.sum.update(&rec);
            self.bytes_read += RECORD_BYTES as u64;
            out.push(decode_record(&rec, self.delivered + k as u64)?);
        }
        self.delivered += n as u64;
        if self.delivered == self.meta.count {
            self.verify_end()?;
        }
        Ok(n)
    }

    fn verify_end(&mut self) -> Result<(), CatalogIoError> {
        if self.verified {
            return Ok(());
        }
        let actual = self.sum.finish();
        if actual != self.meta.records_checksum {
            return Err(CatalogIoError::Corrupt(format!(
                "shard {} record checksum mismatch: stored {:#018x}, computed {actual:#018x}",
                self.index, self.meta.records_checksum
            )));
        }
        self.verified = true;
        Ok(())
    }
}

fn read_exact_or_truncated(r: &mut impl Read, buf: &mut [u8]) -> Result<(), CatalogIoError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            CatalogIoError::Truncated
        } else {
            CatalogIoError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_catalog() -> Catalog {
        let galaxies = (0..40)
            .map(|i| {
                let t = i as f64;
                Galaxy::new(
                    Vec3::new(t % 10.0, (t * 0.7) % 10.0, (t * 1.3) % 10.0),
                    1.0 + 0.1 * t,
                )
            })
            .collect();
        Catalog::new(galaxies)
    }

    fn halves_assignment(cat: &Catalog) -> ShardAssignment {
        let mid = cat.bounds.center().x;
        let (lo, hi) = cat.bounds.split(0, mid);
        ShardAssignment {
            shard_of: cat
                .galaxies
                .iter()
                .map(|g| u32::from(g.pos.x >= mid))
                .collect(),
            bounds: vec![lo, hi],
        }
    }

    /// Every record of shard `index`, through the streaming reader.
    fn read_shard(dir: &Path, manifest: &ShardManifest, index: usize) -> Vec<Galaxy> {
        let mut reader = ShardReader::open(dir, manifest, index).unwrap();
        let mut out = Vec::new();
        while reader.read_chunk(&mut out, 16).unwrap() != 0 {}
        out
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("galactos_shard_test")
            .join(format!("{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn write_read_roundtrip() {
        let cat = sample_catalog();
        let dir = tmpdir("roundtrip");
        let manifest = write_sharded(&cat, &halves_assignment(&cat), &dir).unwrap();
        assert_eq!(manifest.total_count, 40);
        assert_eq!(manifest.num_shards(), 2);
        let back_manifest = ShardManifest::read(dir.join(MANIFEST_FILE)).unwrap();
        assert_eq!(back_manifest, manifest);
        assert_eq!(manifest.bounds, cat.bounds);
        assert_eq!(manifest.periodic, cat.periodic);
        let back: Vec<Galaxy> = (0..2)
            .flat_map(|s| read_shard(&dir, &manifest, s))
            .collect();
        assert_eq!(back.len(), cat.len());
        // Same multiset of galaxies (order is shard-major).
        let mut got: Vec<_> = back
            .iter()
            .map(|g| (g.pos.x.to_bits(), g.weight.to_bits()))
            .collect();
        let mut want: Vec<_> = cat
            .galaxies
            .iter()
            .map(|g| (g.pos.x.to_bits(), g.weight.to_bits()))
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_shards_is_an_error_and_creates_no_directory() {
        let cat = sample_catalog();
        let dir = tmpdir("zero_shards");
        let assignment = ShardAssignment {
            shard_of: vec![0; cat.len()],
            bounds: Vec::new(),
        };
        let err = write_sharded(&cat, &assignment, &dir).unwrap_err();
        assert!(
            matches!(&err, CatalogIoError::Unsupported(msg) if msg.contains("shard count 0")),
            "{err}"
        );
        assert!(!dir.exists());
    }

    #[test]
    fn manifest_bytes_roundtrip() {
        let cat = sample_catalog();
        let dir = tmpdir("manifest");
        let manifest = write_sharded(&cat, &halves_assignment(&cat), &dir).unwrap();
        let back = ShardManifest::from_bytes(&manifest.to_bytes()).unwrap();
        assert_eq!(back, manifest);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_record_payload_is_detected() {
        let cat = sample_catalog();
        let dir = tmpdir("corrupt_payload");
        let manifest = write_sharded(&cat, &halves_assignment(&cat), &dir).unwrap();
        let path = dir.join(ShardManifest::shard_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        let flip = HEADER_BYTES + 5; // inside the first record
        bytes[flip] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let mut reader = ShardReader::open(&dir, &manifest, 0).unwrap();
        let mut out = Vec::new();
        let err = loop {
            match reader.read_chunk(&mut out, 7) {
                Ok(0) => panic!("corruption not detected"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(
            matches!(err.root_cause(), CatalogIoError::Corrupt(_)),
            "{err}"
        );
        // Regression: the error names the offending shard file and index.
        let msg = err.to_string();
        assert!(
            msg.contains(&path.display().to_string()),
            "error must carry the shard path: {msg}"
        );
        assert!(msg.contains("shard 0"), "error must carry the index: {msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_shard_header_is_detected() {
        let cat = sample_catalog();
        let dir = tmpdir("corrupt_header");
        let manifest = write_sharded(&cat, &halves_assignment(&cat), &dir).unwrap();
        let path = dir.join(ShardManifest::shard_file_name(1));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0xFF; // count field
        std::fs::write(&path, &bytes).unwrap();
        let err = ShardReader::open(&dir, &manifest, 1).err().unwrap();
        assert!(
            matches!(err.root_cause(), CatalogIoError::Corrupt(_)),
            "{err}"
        );
        let msg = err.to_string();
        assert!(
            msg.contains(&path.display().to_string()) && msg.contains("shard 1"),
            "error must carry path and index: {msg}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_shard_file_is_detected() {
        let cat = sample_catalog();
        let dir = tmpdir("truncated_shard");
        let manifest = write_sharded(&cat, &halves_assignment(&cat), &dir).unwrap();
        let path = dir.join(ShardManifest::shard_file_name(0));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 12]).unwrap();
        let mut reader = ShardReader::open(&dir, &manifest, 0).unwrap();
        let mut out = Vec::new();
        let err = loop {
            match reader.read_chunk(&mut out, 1024) {
                Ok(0) => panic!("truncation not detected"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(
            matches!(err.root_cause(), CatalogIoError::Truncated),
            "{err}"
        );
        let msg = err.to_string();
        assert!(
            msg.contains(&path.display().to_string()),
            "truncation error must carry the shard path: {msg}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_finite_weight_is_corrupt_naming_the_record() {
        let mut cat = sample_catalog();
        cat.galaxies[25].weight = f64::INFINITY;
        let assignment = halves_assignment(&cat);
        let shard_id = assignment.shard_of[25];
        let record = assignment.shard_of[..25]
            .iter()
            .filter(|&&s| s == shard_id)
            .count();
        let shard = usize::try_from(shard_id).unwrap();
        let dir = tmpdir("infinite_weight");
        let manifest = write_sharded(&cat, &assignment, &dir).unwrap();
        let mut reader = ShardReader::open(&dir, &manifest, shard).unwrap();
        let mut out = Vec::new();
        let err = loop {
            match reader.read_chunk(&mut out, 7) {
                Ok(0) => panic!("infinite weight not detected"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        match err.root_cause() {
            CatalogIoError::Corrupt(why) => {
                assert_eq!(why, &format!("record {record}: non-finite weight"))
            }
            other => panic!("expected Corrupt, got {other}"),
        }
        assert!(
            matches!(err, CatalogIoError::InShard { shard: s, .. } if s == shard),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reader_tracks_bytes_and_records() {
        let cat = sample_catalog();
        let dir = tmpdir("tracking");
        let manifest = write_sharded(&cat, &halves_assignment(&cat), &dir).unwrap();
        let mut reader = ShardReader::open(&dir, &manifest, 0).unwrap();
        assert_eq!(reader.bytes_read(), HEADER_BYTES as u64);
        let mut out = Vec::new();
        while reader.read_chunk(&mut out, 3).unwrap() != 0 {}
        assert_eq!(reader.records_read(), manifest.shards[0].count);
        assert_eq!(
            reader.bytes_read(),
            HEADER_BYTES as u64 + manifest.shards[0].count * RECORD_BYTES as u64
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_sized_chunk_request_is_a_noop() {
        // `max == 0` mid-stream must not run the end-of-shard checksum
        // against a partial payload (which would report Corrupt on a
        // healthy file).
        let cat = sample_catalog();
        let dir = tmpdir("zero_chunk");
        let manifest = write_sharded(&cat, &halves_assignment(&cat), &dir).unwrap();
        let mut reader = ShardReader::open(&dir, &manifest, 0).unwrap();
        let mut out = Vec::new();
        assert_eq!(reader.read_chunk(&mut out, 0).unwrap(), 0);
        assert_eq!(reader.read_chunk(&mut out, 3).unwrap(), 3);
        assert_eq!(reader.read_chunk(&mut out, 0).unwrap(), 0);
        while reader.read_chunk(&mut out, 1024).unwrap() != 0 {}
        assert_eq!(out.len() as u64, manifest.shards[0].count);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_shards_are_valid() {
        // A shard whose region holds no galaxies must still roundtrip.
        let cat = sample_catalog();
        let dir = tmpdir("empty_shard");
        let n = cat.len();
        let assignment = ShardAssignment {
            shard_of: vec![0; n],
            bounds: vec![cat.bounds, cat.bounds],
        };
        let manifest = write_sharded(&cat, &assignment, &dir).unwrap();
        assert_eq!(manifest.shards[1].count, 0);
        assert!(read_shard(&dir, &manifest, 1).is_empty());
        assert_eq!(read_shard(&dir, &manifest, 0).len(), n);
        std::fs::remove_dir_all(&dir).ok();
    }
}
