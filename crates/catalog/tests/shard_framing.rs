//! Framing robustness for GCAT v1 and v2: every possible truncation
//! point must produce an error (never a panic, abort, or silently
//! shortened catalog), and manifests/shard files must roundtrip.

use galactos_catalog::io::{from_bytes, to_bytes, CatalogIoError};
use galactos_catalog::shard::{
    read_shard, write_sharded, ShardManifest, HEADER_BYTES, MANIFEST_FILE,
};
use galactos_catalog::{Catalog, Galaxy, ShardAssignment};
use galactos_math::Vec3;
use std::path::PathBuf;

fn sample_catalog(n: usize) -> Catalog {
    let galaxies = (0..n)
        .map(|i| {
            let t = i as f64;
            Galaxy::new(
                Vec3::new(t.sin() * 5.0 + 5.0, t.cos() * 5.0 + 5.0, (t * 0.37) % 10.0),
                0.5 + 0.01 * t,
            )
        })
        .collect();
    Catalog::new(galaxies)
}

fn two_shard_assignment(cat: &Catalog) -> ShardAssignment {
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

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("galactos_shard_framing_test")
        .join(format!("{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn v1_truncation_at_every_byte_is_an_error() {
    let cat = sample_catalog(5);
    let bytes = to_bytes(&cat);
    // Every proper prefix — header boundaries (magic, version, count,
    // flags, box_len, each bounds component) and every mid-record cut —
    // must error, never panic or return a shortened catalog.
    for cut in 0..bytes.len() {
        let result = from_bytes(&bytes[..cut]);
        assert!(
            matches!(
                result,
                Err(CatalogIoError::Truncated) | Err(CatalogIoError::BadMagic(_))
            ),
            "prefix of {cut} bytes must be rejected, got {result:?}"
        );
    }
    assert_eq!(from_bytes(&bytes[..]).unwrap().len(), 5);
}

#[test]
fn v2_manifest_truncation_at_every_byte_is_an_error() {
    let cat = sample_catalog(12);
    let dir = tmpdir("manifest_truncation");
    let manifest = write_sharded(&cat, &two_shard_assignment(&cat), &dir).unwrap();
    let bytes = manifest.to_bytes();
    for cut in 0..bytes.len() {
        let result = ShardManifest::from_bytes(&bytes[..cut]);
        assert!(
            matches!(
                result,
                Err(CatalogIoError::Truncated) | Err(CatalogIoError::BadMagic(_))
            ),
            "manifest prefix of {cut} bytes must be rejected, got {result:?}"
        );
    }
    assert_eq!(ShardManifest::from_bytes(&bytes[..]).unwrap(), manifest);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v2_shard_file_truncation_at_every_byte_is_an_error() {
    let cat = sample_catalog(9);
    let dir = tmpdir("shard_truncation");
    let manifest = write_sharded(&cat, &two_shard_assignment(&cat), &dir).unwrap();
    let path = dir.join(ShardManifest::shard_file_name(0));
    let full = std::fs::read(&path).unwrap();
    assert_eq!(
        full.len(),
        HEADER_BYTES + manifest.shards[0].count as usize * 32
    );
    for cut in 0..full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        let outcome = read_shard(&dir, &manifest, 0, |_| true, &mut Vec::new());
        // Reader errors arrive wrapped in shard context naming the file.
        let err = outcome.expect_err("shard prefix must be rejected");
        assert!(
            matches!(
                err.root_cause(),
                CatalogIoError::Truncated | CatalogIoError::BadMagic(_)
            ),
            "shard prefix of {cut} bytes must be rejected, got {err:?}"
        );
        let msg = err.to_string();
        assert!(
            msg.contains(&path.display().to_string()) && msg.contains("shard 0"),
            "error must name the shard file and index: {msg}"
        );
    }
    // Restore the file: the intact shard must read back fully.
    std::fs::write(&path, &full).unwrap();
    let mut galaxies = Vec::new();
    read_shard(&dir, &manifest, 0, |_| true, &mut galaxies).unwrap();
    assert_eq!(galaxies.len() as u64, manifest.shards[0].count);
    std::fs::remove_dir_all(&dir).ok();
}

/// FNV-1a 64, reimplemented so a test can forge a *checksum-valid*
/// header with hostile field values.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn v2_manifest_rejects_huge_shard_count() {
    // A num_shards of u32::MAX with a *valid* header checksum must not
    // provoke a giant entry-table allocation: the checked sizing sees
    // the bytes aren't there and reports truncation.
    let cat = sample_catalog(4);
    let dir = tmpdir("huge_shard_count");
    let manifest = write_sharded(&cat, &two_shard_assignment(&cat), &dir).unwrap();
    let mut bytes = manifest.to_bytes().to_vec();
    bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    let sum = fnv1a(&bytes[..84]);
    bytes[84..92].copy_from_slice(&sum.to_le_bytes());
    let result = ShardManifest::from_bytes(&bytes);
    assert!(
        matches!(result, Err(CatalogIoError::Truncated)),
        "got {result:?}"
    );
    // Without the checksum fix-up the corruption is caught even earlier.
    bytes[84] ^= 0xFF;
    assert!(matches!(
        ShardManifest::from_bytes(&bytes),
        Err(CatalogIoError::Corrupt(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v2_shard_rejects_huge_record_count() {
    // A manifest entry and shard header agreeing on 2^40 records, both
    // checksum-valid, must not reserve room for them: the file cannot
    // back the count, so the read reports truncation before allocating.
    let cat = sample_catalog(6);
    let dir = tmpdir("huge_record_count");
    let mut manifest = write_sharded(&cat, &two_shard_assignment(&cat), &dir).unwrap();
    let huge = 1u64 << 40;
    manifest.total_count += huge - manifest.shards[0].count;
    manifest.shards[0].count = huge;
    let path = dir.join(ShardManifest::shard_file_name(0));
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[16..24].copy_from_slice(&huge.to_le_bytes());
    let sum = fnv1a(&bytes[..HEADER_BYTES - 8]);
    bytes[HEADER_BYTES - 8..HEADER_BYTES].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let err = read_shard(&dir, &manifest, 0, |_| true, &mut Vec::new()).unwrap_err();
    assert!(
        matches!(&err, CatalogIoError::InShard { shard: 0, source, .. }
            if matches!(**source, CatalogIoError::Truncated)),
        "got {err:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifest_and_shard_files_roundtrip_through_disk() {
    let mut cat = sample_catalog(31);
    cat.periodic = Some(10.0);
    let dir = tmpdir("disk_roundtrip");
    let manifest = write_sharded(&cat, &two_shard_assignment(&cat), &dir).unwrap();
    let back = ShardManifest::read(dir.join(MANIFEST_FILE)).unwrap();
    assert_eq!(back, manifest);
    assert_eq!(back.periodic, Some(10.0));
    assert_eq!(back.bounds, cat.bounds);
    let mut total = 0u64;
    let mut weight = 0.0;
    for s in 0..back.num_shards() {
        let mut galaxies = Vec::new();
        read_shard(&dir, &back, s, |_| true, &mut galaxies).unwrap();
        assert_eq!(galaxies.len() as u64, back.shards[s].count);
        total += galaxies.len() as u64;
        weight += galaxies.iter().map(|g| g.weight).sum::<f64>();
    }
    assert_eq!(total, 31);
    assert!((weight - cat.total_weight()).abs() < 1e-12 * cat.total_weight().abs());
    std::fs::remove_dir_all(&dir).ok();
}
