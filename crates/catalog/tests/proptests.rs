//! Property-based tests for catalog containers, I/O and geometry.

use galactos_catalog::io::{from_bytes, to_bytes};
use galactos_catalog::shard::{read_shard, write_sharded, ShardManifest, MANIFEST_FILE};
use galactos_catalog::{Cap, Catalog, Galaxy, ShardAssignment, SurveyGeometry};
use galactos_math::Vec3;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Unique scratch directory per proptest case (cases run concurrently
/// across test threads and repeatedly within one run).
fn case_dir() -> std::path::PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir()
        .join("galactos_catalog_proptests")
        .join(format!("case_{}_{id}", std::process::id()))
}

fn arb_galaxies() -> impl Strategy<Value = Vec<Galaxy>> {
    prop::collection::vec(
        (
            -1000.0f64..1000.0,
            -1000.0f64..1000.0,
            -1000.0f64..1000.0,
            -5.0f64..5.0,
        )
            .prop_map(|(x, y, z, w)| Galaxy::new(Vec3::new(x, y, z), w)),
        0..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn binary_roundtrip_is_lossless(galaxies in arb_galaxies()) {
        let cat = Catalog::new(galaxies);
        let back = from_bytes(&to_bytes(&cat)[..]).unwrap();
        prop_assert_eq!(back.len(), cat.len());
        for (a, b) in back.galaxies.iter().zip(cat.galaxies.iter()) {
            prop_assert_eq!(a.pos, b.pos);
            prop_assert_eq!(a.weight, b.weight);
        }
        prop_assert_eq!(back.periodic, cat.periodic);
    }

    #[test]
    fn data_minus_randoms_always_zero_weight(
        data in arb_galaxies(),
        randoms in arb_galaxies(),
    ) {
        let d = Catalog::new(
            data.into_iter().map(|mut g| { g.weight = g.weight.abs() + 0.1; g }).collect(),
        );
        let r = Catalog::new(
            randoms.into_iter().map(|mut g| { g.weight = g.weight.abs() + 0.1; g }).collect(),
        );
        prop_assume!(!d.is_empty() && !r.is_empty());
        let field = Catalog::data_minus_randoms(&d, &r);
        let total_scale = d.total_weight().abs() + r.total_weight().abs();
        prop_assert!(field.total_weight().abs() < 1e-9 * total_scale.max(1.0));
        prop_assert_eq!(field.len(), d.len() + r.len());
    }

    #[test]
    fn sharded_roundtrip_reconstructs_exact_catalog(
        galaxies in arb_galaxies(),
        num_shards in 1usize..6,
        is_periodic in prop::bool::ANY,
        box_len in 1000.0f64..2000.0,
    ) {
        let mut cat = Catalog::new(galaxies);
        cat.periodic = is_periodic.then_some(box_len);
        // Arbitrary (non-spatial) assignment: the format must roundtrip
        // for any partition of the records; every shard declares the
        // full bounds so the assignment is trivially region-consistent.
        let assignment = ShardAssignment {
            shard_of: (0..cat.len()).map(|g| (g % num_shards) as u32).collect(),
            bounds: vec![cat.bounds; num_shards],
        };
        let dir = case_dir();
        let manifest = write_sharded(&cat, &assignment, &dir).unwrap();
        prop_assert_eq!(manifest.total_count as usize, cat.len());
        let back_manifest = ShardManifest::read(dir.join(MANIFEST_FILE)).unwrap();
        let mut back = Vec::new();
        for s in 0..num_shards {
            read_shard(&dir, &back_manifest, s, |_| true, &mut back).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(&back_manifest, &manifest);
        prop_assert_eq!(back.len(), cat.len());
        // Bit-exact bounds and periodicity.
        prop_assert_eq!(manifest.bounds, cat.bounds);
        prop_assert_eq!(manifest.periodic, cat.periodic);
        // Shard-by-shard reads deliver shard-major order: galaxy g went
        // to shard g % num_shards, preserving record order within each
        // shard — reconstruct that order and compare bit-exactly.
        let mut expected: Vec<&Galaxy> = Vec::with_capacity(cat.len());
        for s in 0..num_shards {
            expected.extend(cat.galaxies.iter().skip(s).step_by(num_shards));
        }
        for (a, b) in back.iter().zip(expected) {
            prop_assert_eq!(a.pos.x.to_bits(), b.pos.x.to_bits());
            prop_assert_eq!(a.pos.y.to_bits(), b.pos.y.to_bits());
            prop_assert_eq!(a.pos.z.to_bits(), b.pos.z.to_bits());
            prop_assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
    }

    #[test]
    fn bounds_contain_every_galaxy(galaxies in arb_galaxies()) {
        prop_assume!(!galaxies.is_empty());
        let cat = Catalog::new(galaxies);
        for g in &cat.galaxies {
            prop_assert!(cat.bounds.contains(g.pos));
        }
    }

    #[test]
    fn survey_footprint_is_consistent_with_geometry(
        px in -200.0f64..200.0,
        py in -200.0f64..200.0,
        pz in -200.0f64..200.0,
        rmin in 1.0f64..50.0,
        extra in 1.0f64..100.0,
        cap_z in 0.1f64..1.0,
    ) {
        let rmax = rmin + extra;
        let mut survey = SurveyGeometry::full_shell(Vec3::ZERO, rmin, rmax);
        survey.holes.push(Cap::new(Vec3::Z, cap_z));
        let p = Vec3::new(px, py, pz);
        let inside = survey.in_footprint(p);
        let r = p.norm();
        if r < rmin || r > rmax {
            prop_assert!(!inside, "outside the shell must be excluded");
        } else if r > 0.0 {
            let in_cap = (p / r).dot(Vec3::Z) >= cap_z.cos();
            prop_assert_eq!(inside, !in_cap);
        }
    }

    #[test]
    fn completeness_is_monotone_interpolation(
        r in 0.0f64..120.0,
        f_lo in 0.0f64..1.0,
        f_hi in 0.0f64..1.0,
    ) {
        let mut survey = SurveyGeometry::full_shell(Vec3::ZERO, 0.0, 120.0);
        survey.radial_completeness = vec![(10.0, f_lo), (100.0, f_hi)];
        let c = survey.completeness(r);
        let (lo, hi) = if f_lo <= f_hi { (f_lo, f_hi) } else { (f_hi, f_lo) };
        prop_assert!(c >= lo - 1e-12 && c <= hi + 1e-12, "c={c} outside [{lo},{hi}]");
    }
}
