//! GCAT v2: a spatially-sharded catalog format, read one shard file at a
//! time.
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
//! Both headers go through one private codec, which checks magic,
//! version, kind and checksum on decode.
//!
//! [`write_sharded`] writes each shard file front to back, its final
//! header first, with one file open at a time, so the shard count is not
//! bounded by the open-file limit (`ulimit -n`). [`read_shard`] reads one
//! shard file in a single buffered pass: it checks the header against
//! the one its manifest entry implies (index, count, periodicity,
//! bounds), checksums every record, and appends only the records its
//! caller's filter keeps, so a rank collecting ghosts from a neighbor
//! shard holds the ghosts and an 8 KiB read buffer, not the shard.

use crate::galaxy::{Catalog, Galaxy};
use crate::io::{
    checked_record_count, decode_record, encode_record, CatalogIoError, MAGIC, RECORD_BYTES,
};
use bytes::{Buf, BufMut, BytesMut};
use galactos_math::{Aabb, Vec3};
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

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
/// Records [`write_sharded`] encodes per write call (64 KiB). One
/// buffered write per record costs more than the encoding.
const WRITE_CHUNK: usize = 2048;

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

/// The fields of a manifest or shard-file header, as the layout above
/// lists them (magic, version and checksum are implied).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Header {
    kind: u32,
    /// `num_shards` of a manifest, `shard_index` of a shard file.
    id: u32,
    /// `total_count` of a manifest, the record count of a shard file.
    count: u64,
    /// The `flags` bit 0 and `box_len` pair.
    periodic: Option<f64>,
    bounds: Aabb,
}

impl Header {
    /// Append the header's `HEADER_BYTES` to `buf`.
    fn encode(&self, buf: &mut BytesMut) {
        let start = buf.len();
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(SHARD_VERSION);
        buf.put_u32_le(self.kind);
        buf.put_u32_le(self.id);
        buf.put_u64_le(self.count);
        buf.put_u32_le(u32::from(self.periodic.is_some()));
        buf.put_f64_le(self.periodic.unwrap_or(0.0));
        put_aabb(buf, &self.bounds);
        let sum = fnv1a(&buf[start..]);
        buf.put_u64_le(sum);
    }

    /// Decode the header at the front of `bytes`, which must be of
    /// `kind`, verifying magic, version and checksum.
    fn decode(bytes: &[u8], kind: u32) -> Result<Self, CatalogIoError> {
        let what = if kind == KIND_MANIFEST {
            "manifest"
        } else {
            "shard"
        };
        let header = bytes.get(..HEADER_BYTES).ok_or(CatalogIoError::Truncated)?;
        let mut buf = header;
        let magic = buf.get_u32_le();
        if magic != MAGIC {
            return Err(CatalogIoError::BadMagic(magic));
        }
        let version = buf.get_u32_le();
        if version != SHARD_VERSION {
            return Err(CatalogIoError::BadVersion(version));
        }
        let found = buf.get_u32_le();
        if found != kind {
            return Err(CatalogIoError::Corrupt(format!(
                "expected {what} kind {kind}, found {found}"
            )));
        }
        let id = buf.get_u32_le();
        let count = buf.get_u64_le();
        let flags = buf.get_u32_le();
        let box_len = buf.get_f64_le();
        let bounds = get_aabb(&mut buf);
        let declared = buf.get_u64_le();
        let actual = fnv1a(&header[..HEADER_BYTES - 8]);
        if declared != actual {
            return Err(CatalogIoError::Corrupt(format!(
                "{what} header checksum mismatch: stored {declared:#018x}, computed {actual:#018x}"
            )));
        }
        Ok(Header {
            kind,
            id,
            count,
            periodic: (flags & 1 != 0).then_some(box_len),
            bounds,
        })
    }
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

    /// The header shard file `index` must carry. Panics if `index` is
    /// out of range.
    fn shard_header(&self, index: usize) -> Header {
        Header {
            kind: KIND_SHARD,
            id: u32::try_from(index).expect("shard indices fit in u32, like the shard count"),
            count: self.shards[index].count,
            periodic: self.periodic,
            bounds: self.shards[index].bounds,
        }
    }

    /// Encode the manifest into bytes.
    pub fn to_bytes(&self) -> BytesMut {
        let mut buf = BytesMut::with_capacity(HEADER_BYTES + ENTRY_BYTES * self.shards.len() + 8);
        Header {
            kind: KIND_MANIFEST,
            id: u32::try_from(self.shards.len()).expect("shard count fits in u32"),
            count: self.total_count,
            periodic: self.periodic,
            bounds: self.bounds,
        }
        .encode(&mut buf);
        for s in &self.shards {
            buf.put_u64_le(s.count);
            buf.put_f64_le(s.weight_sum);
            put_aabb(&mut buf, &s.bounds);
            buf.put_u64_le(s.records_checksum);
        }
        let entries_sum = fnv1a(&buf[HEADER_BYTES..]);
        buf.put_u64_le(entries_sum);
        buf
    }

    /// Decode a manifest, verifying both checksums.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CatalogIoError> {
        let header = Header::decode(bytes, KIND_MANIFEST)?;
        let num_shards = usize::try_from(header.id).expect("u32 fits in usize");
        // num_shards is attacker-controlled: size the entry table with
        // checked arithmetic, like the record counts.
        let entry_bytes = num_shards
            .checked_mul(ENTRY_BYTES)
            .ok_or(CatalogIoError::Truncated)?;
        let mut buf = &bytes[HEADER_BYTES..];
        if buf.remaining() < entry_bytes + 8 {
            return Err(CatalogIoError::Truncated);
        }
        let entries_raw = &buf[..entry_bytes];
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
        if sum != header.count {
            return Err(CatalogIoError::Corrupt(format!(
                "shard counts sum to {sum}, manifest claims {}",
                header.count
            )));
        }
        Ok(ShardManifest {
            total_count: header.count,
            bounds: header.bounds,
            periodic: header.periodic,
            shards,
        })
    }

    /// Write the manifest to `path`.
    pub fn write(&self, path: impl AsRef<Path>) -> Result<(), CatalogIoError> {
        File::create(path)?.write_all(&self.to_bytes())?;
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
/// Constructed by hand for tests, or by
/// `galactos_domain::shard::write_sharded` from a
/// `galactos_domain::partition::DomainPlan`, so shards coincide with the
/// recursive-bisection domains the halo exchange uses.
#[derive(Clone, Debug)]
pub struct ShardAssignment {
    /// `shard_of[g]` = shard owning galaxy `g`.
    pub shard_of: Vec<u32>,
    /// `bounds[s]` = spatial region of shard `s`; must contain every
    /// galaxy assigned to `s`.
    pub bounds: Vec<Aabb>,
}

/// Write `catalog` into `dir` as a GCAT v2 shard directory following
/// `assignment`, returning the manifest. No shard regions, a `shard_of`
/// whose length is not the catalog's, or a shard id with no region is
/// [`CatalogIoError::Unsupported`], and creates nothing.
///
/// Two passes over the in-memory catalog: the first, in catalog order,
/// accumulates each shard's count, weight sum and record checksum; the
/// second writes one shard file at a time, front to back, so only one
/// file is ever open.
///
/// Every galaxy must be assigned to a shard inside its declared region;
/// debug builds assert this.
pub fn write_sharded(
    catalog: &Catalog,
    assignment: &ShardAssignment,
    dir: impl AsRef<Path>,
) -> Result<ShardManifest, CatalogIoError> {
    if assignment.shard_of.len() != catalog.len() {
        return Err(CatalogIoError::Unsupported(format!(
            "shard assignment covers {} galaxies, catalog holds {}",
            assignment.shard_of.len(),
            catalog.len()
        )));
    }
    if assignment.bounds.is_empty() {
        return Err(CatalogIoError::Unsupported(
            "shard count 0: a sharded catalog needs at least one shard".into(),
        ));
    }
    // Pass 1, in catalog order: counts, weight sums and record
    // checksums. FNV-1a is a serial multiply chain; catalog order
    // interleaves the shards' chains so they overlap, where a checksum
    // pass per shard runs them back to back.
    let mut shards: Vec<ShardMeta> = assignment
        .bounds
        .iter()
        .map(|&bounds| ShardMeta {
            count: 0,
            weight_sum: 0.0,
            bounds,
            records_checksum: 0,
        })
        .collect();
    let mut sums = vec![Fnv::new(); shards.len()];
    for (id, &s) in assignment.shard_of.iter().enumerate() {
        let g = &catalog.galaxies[id];
        let s = usize::try_from(s).expect("u32 shard id fits in usize");
        if s >= shards.len() {
            return Err(CatalogIoError::Unsupported(format!(
                "galaxy {id} assigned to shard {s}, past the {} shards",
                shards.len()
            )));
        }
        debug_assert!(
            assignment.bounds[s].distance_sq_to_point(g.pos) < 1e-18,
            "galaxy at {:?} assigned to shard {s} outside its region",
            g.pos
        );
        sums[s].update(&encode_record(g));
        shards[s].count += 1;
        shards[s].weight_sum += g.weight;
    }
    for (meta, sum) in shards.iter_mut().zip(sums) {
        meta.records_checksum = sum.finish();
    }
    let manifest = ShardManifest {
        total_count: catalog.len() as u64,
        bounds: catalog.bounds,
        periodic: catalog.periodic,
        shards,
    };

    // Pass 2: a counting sort groups the galaxy ids by shard, keeping
    // catalog order within each shard; `end[s]` is where shard `s`'s
    // ids stop once the sort is done.
    let mut end = Vec::with_capacity(manifest.num_shards());
    let mut offset = 0;
    for meta in &manifest.shards {
        end.push(offset);
        offset += usize::try_from(meta.count).expect("a shard holds at most the catalog");
    }
    let mut order = vec![0; catalog.len()];
    for (g, &s) in assignment.shard_of.iter().enumerate() {
        let s = usize::try_from(s).expect("u32 shard id fits in usize");
        order[end[s]] = g;
        end[s] += 1;
    }
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let mut chunk = Vec::with_capacity(WRITE_CHUNK * RECORD_BYTES);
    let mut begin = 0;
    for (index, &stop) in end.iter().enumerate() {
        let mut file = File::create(dir.join(ShardManifest::shard_file_name(index)))?;
        let mut header = BytesMut::with_capacity(HEADER_BYTES);
        manifest.shard_header(index).encode(&mut header);
        file.write_all(&header)?;
        for ids in order[begin..stop].chunks(WRITE_CHUNK) {
            chunk.clear();
            for &g in ids {
                chunk.extend_from_slice(&encode_record(&catalog.galaxies[g]));
            }
            file.write_all(&chunk)?;
        }
        begin = stop;
    }
    manifest.write(dir.join(MANIFEST_FILE))?;
    Ok(manifest)
}

/// Append the records of shard `index` of `manifest` (inside `dir`)
/// that `keep` accepts to `out`, in record order.
///
/// The shard header must match the one its manifest entry implies
/// (index, count, periodicity, bounds), and the file must be long
/// enough for the header's count before a record is read. Every record
/// goes through the payload checksum, kept or not, and the checksum is
/// compared once the last record is read, so short files and bit rot
/// surface as [`CatalogIoError::Truncated`] / [`CatalogIoError::Corrupt`]
/// instead of silently thinning the catalog. An index past the shard
/// count is [`CatalogIoError::Unsupported`]; every other error is
/// wrapped in [`CatalogIoError::InShard`] carrying the shard file path
/// and index, so a rank reading N shards can name the bad one. On an
/// error `out` may already hold some of the shard's records.
///
/// Memory beyond `out` is one buffered reader's 8 KiB.
pub fn read_shard(
    dir: impl AsRef<Path>,
    manifest: &ShardManifest,
    index: usize,
    mut keep: impl FnMut(&Galaxy) -> bool,
    out: &mut Vec<Galaxy>,
) -> Result<(), CatalogIoError> {
    if index >= manifest.num_shards() {
        return Err(CatalogIoError::Unsupported(format!(
            "shard index {index} out of range for {} shards",
            manifest.num_shards()
        )));
    }
    let path = dir.as_ref().join(ShardManifest::shard_file_name(index));
    read_shard_file(&path, manifest, index, &mut keep, out).map_err(|e| e.in_shard(&path, index))
}

/// The pass behind [`read_shard`]. It takes `keep` as a trait object so
/// the record loop is compiled once, here, not inlined into each caller:
/// inlined, the compiler moved the checksum chain after the push and
/// spilled the record's bytes to the stack, and the benchmark ladder's
/// `domain.ingest_s` ran 8 % slower (2 vCPU x86-64).
#[inline(never)]
fn read_shard_file(
    path: &Path,
    manifest: &ShardManifest,
    index: usize,
    keep: &mut dyn FnMut(&Galaxy) -> bool,
    out: &mut Vec<Galaxy>,
) -> Result<(), CatalogIoError> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut file = std::io::BufReader::new(file);
    let mut bytes = [0u8; HEADER_BYTES];
    read_exact_or_truncated(&mut file, &mut bytes)?;
    let header = Header::decode(&bytes, KIND_SHARD)?;
    let expected = manifest.shard_header(index);
    if header != expected {
        return Err(CatalogIoError::Corrupt(format!(
            "header {header:?} disagrees with the manifest's {expected:?}"
        )));
    }
    // The count is only as good as the file behind it: check it against
    // the payload bytes the file holds (same hardening as the v1 path).
    let payload =
        usize::try_from(file_len.saturating_sub(HEADER_BYTES as u64)).unwrap_or(usize::MAX);
    let count = checked_record_count(header.count, payload)?;
    let mut sum = Fnv::new();
    let mut rec = [0u8; RECORD_BYTES];
    for record in 0..count {
        read_exact_or_truncated(&mut file, &mut rec)?;
        // Decode before the checksum update. The other order lets the
        // compiler sink the byte-serial FNV chain past the decode's early
        // return, so it stops overlapping the decode: 25 % slower over
        // 100 000 records in 16 shards (x86-64).
        let g = decode_record(&rec, record as u64)?;
        sum.update(&rec);
        if keep(&g) {
            out.push(g);
        }
    }
    let (stored, actual) = (manifest.shards[index].records_checksum, sum.finish());
    if actual != stored {
        return Err(CatalogIoError::Corrupt(format!(
            "shard {index} record checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        )));
    }
    Ok(())
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

    /// Every record of shard `index`, or the error reading it.
    fn read_all(
        dir: &Path,
        manifest: &ShardManifest,
        index: usize,
    ) -> Result<Vec<Galaxy>, CatalogIoError> {
        let mut out = Vec::new();
        read_shard(dir, manifest, index, |_| true, &mut out)?;
        Ok(out)
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
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
            .flat_map(|s| read_all(&dir, &manifest, s).unwrap())
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
        let err = read_all(&dir, &manifest, 0).expect_err("corruption not detected");
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
        let err = read_all(&dir, &manifest, 1).unwrap_err();
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
    fn shard_header_must_match_its_manifest_entry_in_every_field() {
        // Each edit keeps the header checksum valid, so only the compare
        // against the header the manifest implies can catch it.
        let mut cat = sample_catalog();
        cat.periodic = Some(10.0);
        let dir = tmpdir("header_fields");
        let manifest = write_sharded(&cat, &halves_assignment(&cat), &dir).unwrap();
        let path = dir.join(ShardManifest::shard_file_name(0));
        let intact = std::fs::read(&path).unwrap();
        let edits: [(&str, usize, Vec<u8>); 5] = [
            ("index", 12, 1u32.to_le_bytes().to_vec()),
            (
                "count",
                16,
                (manifest.shards[0].count + 1).to_le_bytes().to_vec(),
            ),
            ("flags", 24, 0u32.to_le_bytes().to_vec()),
            ("box_len", 28, 11.0f64.to_le_bytes().to_vec()),
            ("bounds", 36, (cat.bounds.lo.x - 0.5).to_le_bytes().to_vec()),
        ];
        for (field, offset, value) in edits {
            let mut bytes = intact.clone();
            bytes[offset..offset + value.len()].copy_from_slice(&value);
            let sum = fnv1a(&bytes[..HEADER_BYTES - 8]);
            bytes[HEADER_BYTES - 8..HEADER_BYTES].copy_from_slice(&sum.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let err = read_all(&dir, &manifest, 0).err();
            assert!(
                matches!(
                    err.as_ref().map(CatalogIoError::root_cause),
                    Some(CatalogIoError::Corrupt(_))
                ),
                "{field}: {err:?}"
            );
        }
        std::fs::write(&path, &intact).unwrap();
        assert_eq!(
            read_all(&dir, &manifest, 0).unwrap().len() as u64,
            manifest.shards[0].count
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
        let err = read_all(&dir, &manifest, 0).expect_err("truncation not detected");
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
        let err = read_all(&dir, &manifest, shard).expect_err("infinite weight not detected");
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
        // The filter sees every record in order, kept or not, and the
        // reader consumes the whole file: header plus 32 bytes a record.
        let cat = sample_catalog();
        let dir = tmpdir("tracking");
        let manifest = write_sharded(&cat, &halves_assignment(&cat), &dir).unwrap();
        let all = read_all(&dir, &manifest, 0).unwrap();
        let mut seen = 0u64;
        let mut out = vec![all[0]];
        read_shard(
            &dir,
            &manifest,
            0,
            |_| {
                seen += 1;
                seen.is_multiple_of(3)
            },
            &mut out,
        )
        .unwrap();
        assert_eq!(seen, manifest.shards[0].count);
        let every_third: Vec<Galaxy> = all.iter().skip(2).step_by(3).copied().collect();
        assert_eq!(out[0], all[0], "the reader appends to `out`");
        assert_eq!(out[1..], every_third[..]);
        let file = dir.join(ShardManifest::shard_file_name(0));
        assert_eq!(
            std::fs::metadata(file).unwrap().len(),
            HEADER_BYTES as u64 + manifest.shards[0].count * RECORD_BYTES as u64
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_assignment_is_unsupported_and_creates_no_directory() {
        let cat = sample_catalog();
        let dir = tmpdir("malformed_assignment");
        let short = ShardAssignment {
            shard_of: vec![0; cat.len() - 1],
            bounds: vec![cat.bounds],
        };
        let mut shard_of = vec![0; cat.len()];
        shard_of[17] = 2;
        let past_end = ShardAssignment {
            shard_of,
            bounds: vec![cat.bounds, cat.bounds],
        };
        for (assignment, names) in [
            (short, &["39 galaxies", "holds 40"][..]),
            (past_end, &["galaxy 17", "shard 2", "2 shards"][..]),
        ] {
            let err = write_sharded(&cat, &assignment, &dir).unwrap_err();
            let CatalogIoError::Unsupported(msg) = &err else {
                panic!("expected Unsupported, got {err}");
            };
            for name in names {
                assert!(msg.contains(name), "{msg} should name {name}");
            }
            assert!(!dir.exists());
        }
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
        assert!(read_all(&dir, &manifest, 1).unwrap().is_empty());
        assert_eq!(read_all(&dir, &manifest, 0).unwrap().len(), n);
        std::fs::remove_dir_all(&dir).ok();
    }
}
