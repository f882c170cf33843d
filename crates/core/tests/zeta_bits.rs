//! ζ pinned bit for bit.
//!
//! Each case below runs a fixed-seed catalog through one engine
//! configuration and compares an FNV-1a hash over `to_bits` of every
//! coefficient of [`AnisotropicZeta::data`] (then `binned_pairs`) with a
//! constant. The constants were generated on the commit *before* the
//! PR that added this file (PR 21, which moved stages 3–4 onto vector
//! lanes and made the accumulator skip untouched bins) and the file was
//! committed unedited with that change: a refactor or optimisation of
//! the tree path that means to keep ζ's bits passes this unchanged.
//!
//! A PR that means to move bits (a new summation order, a fused
//! multiply-add, a different basis order) re-blesses the constants
//! explicitly — run with `--nocapture`, copy the printed hashes, and say
//! so in `CHANGES.md` — rather than loosening the comparison.
//!
//! The hashes are a function of the configuration and the build target
//! only: every floating-point operation on the path is a correctly
//! rounded IEEE add, multiply, divide or square root, the kernel's
//! AVX2 / AVX-512 compilations round like the baseline one, and neither
//! the chunking nor the merge order depends on the pool width
//! (`tests/determinism.rs`).

use galactos_catalog::{uniform_box, Catalog};
use galactos_core::config::{EngineConfig, TreePrecision};
use galactos_core::engine::Engine;
use galactos_core::kernel::{BackendChoice, BackendKind};
use galactos_core::result::AnisotropicZeta;
use galactos_core::traversal::{TraversalChoice, TraversalKind};
use galactos_math::{LineOfSight, Vec3};

fn fnv1a(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn zeta_hash(zeta: &AnisotropicZeta) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for z in zeta.data() {
        fnv1a(&mut hash, z.re.to_bits());
        fnv1a(&mut hash, z.im.to_bits());
    }
    fnv1a(&mut hash, zeta.binned_pairs);
    hash
}

fn open(mut catalog: Catalog) -> Catalog {
    catalog.periodic = None;
    catalog
}

/// Non-unit weights, so `w_i` and `w_j` are not invisible factors.
fn weighted(mut catalog: Catalog) -> Catalog {
    for (i, g) in catalog.galaxies.iter_mut().enumerate() {
        g.weight = 0.5 + 0.25 * (i % 7) as f64;
    }
    catalog
}

fn shipped(mut config: EngineConfig) -> EngineConfig {
    config.kernel_backend = BackendChoice::Fixed(BackendKind::Simd);
    config.traversal = TraversalChoice::Fixed(TraversalKind::LeafBlocked);
    config
}

struct Case {
    name: &'static str,
    config: EngineConfig,
    catalog: Catalog,
    want: u64,
}

fn cases() -> Vec<Case> {
    // The paper point, dense enough that the outer bins fill whole
    // 128-pair buckets mid-primary and sparse enough inside that the
    // innermost bins of most primaries stay empty.
    let mut paper_dense = shipped(EngineConfig::paper_default(6.0));
    paper_dense.subtract_self_pairs = false;
    // The paper point as `tree_sparse` sees it: a few dozen secondaries
    // per primary, every flush a part-filled bucket.
    let mut paper_sparse = paper_dense.clone();
    paper_sparse.precision = TreePrecision::Double;

    let mut rotated = shipped(EngineConfig::test_default(6.0, 4, 4));
    rotated.bucket_size = 11;
    rotated.subtract_self_pairs = true;
    rotated.line_of_sight = LineOfSight::Radial {
        observer: Vec3::new(-30.0, -30.0, -30.0),
    };

    let lowl = shipped(EngineConfig::test_default(3.0, 2, 5));

    let mut oracle = EngineConfig::test_default(6.0, 6, 4);
    oracle.kernel_backend = BackendChoice::Fixed(BackendKind::Scalar);
    oracle.traversal = TraversalChoice::Fixed(TraversalKind::PerPrimary);
    oracle.subtract_self_pairs = true;

    vec![
        Case {
            name: "lmax 10, 10 bins, bucket 128, leaf-blocked simd, periodic, full buckets",
            config: paper_dense,
            catalog: uniform_box(1000, 12.0, 2101),
            want: 0x5afa_0488_b629_56af,
        },
        Case {
            name: "lmax 10, 10 bins, bucket 128, leaf-blocked simd, open, sparse, weighted",
            config: paper_sparse,
            catalog: weighted(open(uniform_box(600, 30.0, 2102))),
            want: 0xaf83_738d_6cf4_9d75,
        },
        Case {
            name: "lmax 4, bucket 11, self-pairs on, radial line of sight",
            config: rotated,
            catalog: weighted(open(uniform_box(300, 12.0, 2103))),
            want: 0xaaee_fdb1_fedb_506a,
        },
        Case {
            name: "lmax 2, 5 bins, a few pairs per primary",
            config: lowl,
            catalog: open(uniform_box(2000, 30.0, 2104)),
            want: 0x22b2_becc_47b4_77ae,
        },
        Case {
            name: "lmax 6, Fixed(Scalar) + Fixed(PerPrimary), self-pairs on",
            config: oracle,
            catalog: weighted(open(uniform_box(250, 12.0, 2105))),
            want: 0xda39_57f6_35ba_08df,
        },
    ]
}

#[test]
fn zeta_bits_match_the_pinned_hashes() {
    let mut wrong = Vec::new();
    for case in cases() {
        let zeta = Engine::new(case.config).compute(&case.catalog);
        assert!(zeta.binned_pairs > 0, "{}: no pairs", case.name);
        let got = zeta_hash(&zeta);
        println!("{:#018x}  {} ({} pairs)", got, case.name, zeta.binned_pairs);
        if got != case.want {
            wrong.push(format!(
                "{}: got {got:#018x}, pinned {:#018x}",
                case.name, case.want
            ));
        }
    }
    assert!(wrong.is_empty(), "ζ bits moved:\n{}", wrong.join("\n"));
}
