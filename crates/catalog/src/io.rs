//! Catalog serialization: a compact binary format.
//!
//! The binary format ("GCAT") is a little-endian stream:
//!
//! ```text
//! magic   u32   0x47434154 ("GCAT")
//! version u32   1
//! count   u64
//! flags   u32   bit 0: periodic
//! box_len f64   (valid when periodic)
//! bounds  6×f64 (lo.xyz, hi.xyz)
//! records count × (x, y, z, weight) f64
//! ```
//!
//! Text catalogs arrive as sky coordinates ([`crate::sky::read_sky_csv`]);
//! [`HeaderMap`] is that reader's column resolution.

use crate::galaxy::{Catalog, Galaxy};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use galactos_math::{Aabb, Vec3};
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

/// Magic number shared by every GCAT framing (v1 files, v2 shard files
/// and v2 shard manifests).
pub(crate) const MAGIC: u32 = 0x4743_4154;
const VERSION: u32 = 1;
/// Wire size of one galaxy record: `(x, y, z, weight)` as little-endian
/// `f64`s.
pub const RECORD_BYTES: usize = 32;

/// Errors produced by catalog (de)serialization.
#[derive(Debug)]
pub enum CatalogIoError {
    Io(io::Error),
    BadMagic(u32),
    BadVersion(u32),
    Truncated,
    /// Structurally valid framing whose contents contradict themselves
    /// (checksum mismatch, manifest/shard disagreement, …).
    Corrupt(String),
    /// Well-formed input requesting something this build cannot do
    /// (e.g. distributing a periodic sharded catalog).
    Unsupported(String),
    Parse(String),
    /// An error localized to one shard of a sharded catalog: carries the
    /// shard file path and shard index so a caller holding N shards can
    /// tell which one is bad.
    InShard {
        path: String,
        shard: usize,
        source: Box<CatalogIoError>,
    },
}

impl CatalogIoError {
    /// Wrap `self` with the shard it occurred in (idempotent: an error
    /// already carrying shard context is returned unchanged).
    pub fn in_shard(self, path: &std::path::Path, shard: usize) -> CatalogIoError {
        match self {
            already @ CatalogIoError::InShard { .. } => already,
            source => CatalogIoError::InShard {
                path: path.display().to_string(),
                shard,
                source: Box::new(source),
            },
        }
    }

    /// The underlying error, with any shard context stripped.
    pub fn root_cause(&self) -> &CatalogIoError {
        match self {
            CatalogIoError::InShard { source, .. } => source.root_cause(),
            other => other,
        }
    }
}

impl std::fmt::Display for CatalogIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogIoError::Io(e) => write!(f, "I/O error: {e}"),
            CatalogIoError::BadMagic(m) => write!(f, "bad magic 0x{m:08x}"),
            CatalogIoError::BadVersion(v) => write!(f, "unsupported version {v}"),
            CatalogIoError::Truncated => write!(f, "truncated catalog stream"),
            CatalogIoError::Corrupt(s) => write!(f, "corrupt catalog stream: {s}"),
            CatalogIoError::Unsupported(s) => write!(f, "unsupported catalog: {s}"),
            CatalogIoError::Parse(s) => write!(f, "parse error: {s}"),
            CatalogIoError::InShard {
                path,
                shard,
                source,
            } => write!(f, "shard {shard} ({path}): {source}"),
        }
    }
}

impl std::error::Error for CatalogIoError {}

impl From<io::Error> for CatalogIoError {
    fn from(e: io::Error) -> Self {
        CatalogIoError::Io(e)
    }
}

/// Encode a catalog into an in-memory byte buffer.
pub fn to_bytes(catalog: &Catalog) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + 32 * catalog.len());
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(catalog.len() as u64);
    buf.put_u32_le(u32::from(catalog.periodic.is_some()));
    buf.put_f64_le(catalog.periodic.unwrap_or(0.0));
    for v in [catalog.bounds.lo, catalog.bounds.hi] {
        buf.put_f64_le(v.x);
        buf.put_f64_le(v.y);
        buf.put_f64_le(v.z);
    }
    for g in &catalog.galaxies {
        buf.put_slice(&encode_record(g));
    }
    buf.freeze()
}

/// Decode a catalog from a byte buffer produced by [`to_bytes`].
pub fn from_bytes(mut buf: impl Buf) -> Result<Catalog, CatalogIoError> {
    if buf.remaining() < 16 {
        return Err(CatalogIoError::Truncated);
    }
    let magic = buf.get_u32_le();
    if magic != MAGIC {
        return Err(CatalogIoError::BadMagic(magic));
    }
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(CatalogIoError::BadVersion(version));
    }
    let count = buf.get_u64_le();
    if buf.remaining() < 4 + 8 + 48 {
        return Err(CatalogIoError::Truncated);
    }
    let flags = buf.get_u32_le();
    let box_len = buf.get_f64_le();
    let lo = Vec3::new(buf.get_f64_le(), buf.get_f64_le(), buf.get_f64_le());
    let hi = Vec3::new(buf.get_f64_le(), buf.get_f64_le(), buf.get_f64_le());
    let count = checked_record_count(count, buf.remaining())?;
    let mut galaxies = Vec::with_capacity(count);
    let mut rec = [0u8; RECORD_BYTES];
    for record in 0..count {
        buf.copy_to_slice(&mut rec);
        galaxies.push(decode_record(&rec, record as u64)?);
    }
    Ok(Catalog {
        galaxies,
        bounds: Aabb { lo, hi },
        periodic: if flags & 1 != 0 { Some(box_len) } else { None },
    })
}

/// Validate a header-declared record count against the bytes actually
/// available. The count is attacker-controlled: it must survive the
/// `u64 → usize` narrowing and the `× RECORD_BYTES` scaling without
/// wrapping (a wrapped product would defeat the truncation check and
/// abort in `Vec::with_capacity`), and the payload must really be
/// present.
pub(crate) fn checked_record_count(count: u64, remaining: usize) -> Result<usize, CatalogIoError> {
    let count = usize::try_from(count).map_err(|_| CatalogIoError::Truncated)?;
    let payload = count
        .checked_mul(RECORD_BYTES)
        .ok_or(CatalogIoError::Truncated)?;
    if remaining < payload {
        return Err(CatalogIoError::Truncated);
    }
    Ok(count)
}

/// One galaxy as its wire record, the same bytes in GCAT v1 files and
/// v2 shard files.
pub(crate) fn encode_record(g: &Galaxy) -> [u8; RECORD_BYTES] {
    let mut rec = [0u8; RECORD_BYTES];
    let fields = [g.pos.x, g.pos.y, g.pos.z, g.weight];
    for (bytes, v) in rec.chunks_exact_mut(8).zip(fields) {
        bytes.copy_from_slice(&v.to_le_bytes());
    }
    rec
}

/// The galaxy a wire record holds; `record` is its index in the file,
/// named in the error when a field is NaN or infinite.
pub(crate) fn decode_record(
    rec: &[u8; RECORD_BYTES],
    record: u64,
) -> Result<Galaxy, CatalogIoError> {
    let f = |i: usize| f64::from_le_bytes(rec[8 * i..8 * i + 8].try_into().expect("8 bytes"));
    let (x, y, z, weight) = (f(0), f(1), f(2), f(3));
    if let Some(field) = non_finite_field(&[("x", x), ("y", y), ("z", z), ("weight", weight)]) {
        return Err(CatalogIoError::Corrupt(format!(
            "record {record}: non-finite {field}"
        )));
    }
    Ok(Galaxy::new(Vec3::new(x, y, z), weight))
}

/// The name of the first of `fields` whose value is NaN or infinite.
/// Every file reader checks what it read through this before a galaxy
/// is built: a non-finite coordinate or weight would otherwise reach
/// the tree build or the cosmology as a panic, or drop pairs silently.
pub(crate) fn non_finite_field<'a>(fields: &[(&'a str, f64)]) -> Option<&'a str> {
    fields
        .iter()
        .find(|(_, value)| !value.is_finite())
        .map(|&(name, _)| name)
}

/// Write a catalog to a file in the binary format. A galaxy with a NaN
/// or infinite coordinate or weight, which [`read_binary`] would refuse,
/// is [`CatalogIoError::Unsupported`] naming its index, field and value
/// ([`crate::shard::check_finite`]), and no file is created.
pub fn write_binary(catalog: &Catalog, path: impl AsRef<Path>) -> Result<(), CatalogIoError> {
    for (index, g) in catalog.galaxies.iter().enumerate() {
        crate::shard::check_finite(index, g)?;
    }
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&to_bytes(catalog))?;
    w.flush()?;
    Ok(())
}

/// Read a catalog from a binary-format file.
pub fn read_binary(path: impl AsRef<Path>) -> Result<Catalog, CatalogIoError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    from_bytes(&bytes[..])
}

/// A parsed CSV header: case-insensitive column-name → index
/// resolution for the sky reader ([`crate::sky::read_sky_csv`]).
///
/// A line is treated as a header when its first non-whitespace
/// character is alphabetic. Column names match case-insensitively and
/// in any order, so `RA,DEC,Z` and `z,dec,ra` both resolve.
#[derive(Clone, Debug)]
pub struct HeaderMap {
    names: Vec<String>,
}

impl HeaderMap {
    /// Parse `line` as a header. Returns `None` when the line looks
    /// like a data row (first non-whitespace character not alphabetic)
    /// so callers can fall back to positional parsing.
    pub fn parse(line: &str) -> Option<HeaderMap> {
        let trimmed = line.trim();
        if !trimmed.chars().next().is_some_and(|c| c.is_alphabetic()) {
            return None;
        }
        Some(HeaderMap {
            names: trimmed
                .split(',')
                .map(|f| f.trim().to_ascii_lowercase())
                .collect(),
        })
    }

    /// Index of the column matching any of `aliases` (give aliases in
    /// lowercase, in priority order: the first alias that names a
    /// column wins, not the first column that matches any alias).
    pub fn resolve(&self, aliases: &[&str]) -> Option<usize> {
        aliases
            .iter()
            .find_map(|a| self.names.iter().position(|n| n == a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Catalog {
        let mut c = Catalog::new(vec![
            Galaxy::new(Vec3::new(1.0, 2.0, 3.0), 1.0),
            Galaxy::new(Vec3::new(-4.0, 5.5, 0.25), -0.5),
            Galaxy::new(Vec3::new(0.0, 0.0, 0.0), 2.0),
        ]);
        c.periodic = None;
        c
    }

    #[test]
    fn bytes_roundtrip() {
        let c = sample();
        let bytes = to_bytes(&c);
        let back = from_bytes(&bytes[..]).unwrap();
        assert_eq!(back.len(), c.len());
        assert_eq!(back.periodic, None);
        for (a, b) in back.galaxies.iter().zip(c.galaxies.iter()) {
            assert_eq!(a, b);
        }
        assert_eq!(back.bounds, c.bounds);
    }

    #[test]
    fn bytes_roundtrip_periodic() {
        let c = Catalog::new_periodic(vec![Galaxy::unit(Vec3::splat(1.0))], 8.0);
        let back = from_bytes(&to_bytes(&c)[..]).unwrap();
        assert_eq!(back.periodic, Some(8.0));
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let c = sample();
        let bytes = to_bytes(&c);
        let mut corrupted = bytes.to_vec();
        corrupted[0] ^= 0xFF;
        assert!(matches!(
            from_bytes(&corrupted[..]),
            Err(CatalogIoError::BadMagic(_))
        ));
        assert!(matches!(
            from_bytes(&bytes[..bytes.len() - 8]),
            Err(CatalogIoError::Truncated)
        ));
        assert!(matches!(
            from_bytes(&bytes[..4]),
            Err(CatalogIoError::Truncated)
        ));
    }

    #[test]
    fn non_finite_record_is_corrupt_naming_the_record() {
        let mut c = sample();
        c.galaxies.push(Galaxy::unit(Vec3::splat(1.5)));
        let mut bytes = to_bytes(&c).to_vec();
        // Records follow the 76-byte header; x of record 3 is its first
        // field.
        let x = 76 + 3 * RECORD_BYTES;
        bytes[x..x + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        match from_bytes(&bytes[..]) {
            Err(CatalogIoError::Corrupt(why)) => assert_eq!(why, "record 3: non-finite x"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn huge_header_count_is_truncated_not_abort() {
        // A corrupt header claiming u64::MAX records used to wrap the
        // `count * 32` truncation check and abort inside
        // `Vec::with_capacity`; it must surface as `Truncated`.
        for huge in [u64::MAX, u64::MAX / 32 + 1, (usize::MAX as u64 / 32) + 1] {
            let mut crafted = BytesMut::new();
            crafted.put_u32_le(MAGIC);
            crafted.put_u32_le(VERSION);
            crafted.put_u64_le(huge);
            crafted.put_u32_le(0); // flags
            crafted.put_f64_le(0.0); // box_len
            for _ in 0..6 {
                crafted.put_f64_le(0.0); // bounds
            }
            // A little trailing garbage so the header itself is intact.
            crafted.put_f64_le(1.0);
            assert!(
                matches!(from_bytes(&crafted[..]), Err(CatalogIoError::Truncated)),
                "count {huge} must be rejected as truncated"
            );
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("galactos_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cat.gcat");
        let c = sample();
        write_binary(&c, &path).unwrap();
        let back = read_binary(&path).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.galaxies[1].weight, -0.5);
        std::fs::remove_file(&path).ok();
    }

    /// A galaxy `read_binary` would refuse is refused at the writer,
    /// naming it, before any file exists.
    #[test]
    fn write_refuses_non_finite_galaxies_and_creates_nothing() {
        let dir = std::env::temp_dir().join("galactos_io_test_non_finite");
        std::fs::create_dir_all(&dir).unwrap();
        let mut nan_x = sample();
        nan_x.galaxies[1].pos.x = f64::NAN;
        let mut inf_weight = sample();
        inf_weight.galaxies[2].weight = f64::INFINITY;
        let cases = [
            (nan_x, "galaxy 1: non-finite x = NaN"),
            (inf_weight, "galaxy 2: non-finite weight = inf"),
        ];
        for (i, (c, want)) in cases.iter().enumerate() {
            let path = dir.join(format!("spoilt_{i}.gcat"));
            std::fs::remove_file(&path).ok();
            match write_binary(c, &path) {
                Err(CatalogIoError::Unsupported(why)) => assert_eq!(why, *want),
                other => panic!("expected Unsupported, got {other:?}"),
            }
            assert!(!path.exists(), "{} was created", path.display());
        }
    }

    #[test]
    fn header_map_resolves_case_insensitively() {
        let h = HeaderMap::parse("RA, Dec ,Z,WEIGHT_SYSTOT").unwrap();
        assert_eq!(h.resolve(&["ra"]), Some(0));
        assert_eq!(h.resolve(&["dec", "declination"]), Some(1));
        assert_eq!(h.resolve(&["redshift", "z"]), Some(2));
        // Alias priority order wins, not column order.
        assert_eq!(h.resolve(&["weight", "weight_systot"]), Some(3));
        assert_eq!(h.resolve(&["missing"]), None);
        // Data rows are not headers.
        assert!(HeaderMap::parse("1.0,2.0,3.0").is_none());
        assert!(HeaderMap::parse("-4.5,0,1").is_none());
    }
}
