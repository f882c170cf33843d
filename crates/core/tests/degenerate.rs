//! Degenerate inputs on the touched-bins path.
//!
//! The accumulator only zeroes, reduces and assembles the radial bins
//! a primary landed pairs in, so "this primary touched nothing", "this
//! bin got one pair", "the pair sits exactly on an edge" are code paths
//! of their own. Each catalog below is run as shipped (leaf-blocked
//! traversal, SIMD kernel) at 1 and 2 threads and held to the scalar
//! per-primary reference and to the O(N³) triplet count: equal
//! `binned_pairs`, ζ to 1e-12 of its scale.

use galactos_catalog::{Catalog, Galaxy};
use galactos_core::config::EngineConfig;
use galactos_core::engine::Engine;
use galactos_core::kernel::{BackendChoice, BackendKind};
use galactos_core::naive::naive_anisotropic;
use galactos_core::result::AnisotropicZeta;
use galactos_core::traversal::{TraversalChoice, TraversalKind};
use galactos_math::Vec3;

const TOL: f64 = 1e-12;

/// Bins `[0, 2)`, `[2, 4)`, `[4, 6)`: edges that coordinates can hit
/// exactly.
fn config(lmax: usize) -> EngineConfig {
    EngineConfig::test_default(6.0, lmax, 3)
}

fn assert_close(got: &AnisotropicZeta, want: &AnisotropicZeta, label: &str) {
    assert_eq!(got.binned_pairs, want.binned_pairs, "{label}: pairs");
    assert_eq!(got.num_primaries, want.num_primaries, "{label}");
    let scale = want.max_abs().max(1.0);
    let diff = got.max_difference(want);
    assert!(diff <= TOL * scale, "{label}: diff {diff} at scale {scale}");
    assert!(got
        .data()
        .iter()
        .all(|z| z.re.is_finite() && z.im.is_finite()));
}

/// Shipped path at 1 and 2 threads vs the scalar per-primary reference
/// (with and without self-pair subtraction) and vs the triplet count.
/// Returns the shipped ζ without self-pair subtraction.
fn check(galaxies: Vec<Galaxy>, lmax: usize, label: &str) -> AnisotropicZeta {
    let catalog = Catalog::new(galaxies);
    let mut shipped_raw = None;
    for subtract in [false, true] {
        let mut shipped = config(lmax);
        shipped.subtract_self_pairs = subtract;
        shipped.kernel_backend = BackendChoice::Fixed(BackendKind::Simd);
        shipped.traversal = TraversalChoice::Fixed(TraversalKind::LeafBlocked);
        let mut reference = shipped.clone();
        reference.kernel_backend = BackendChoice::Fixed(BackendKind::Scalar);
        reference.traversal = TraversalChoice::Fixed(TraversalKind::PerPrimary);

        let want = Engine::new(reference).compute(&catalog);
        let oracle = naive_anisotropic(&catalog.galaxies, &shipped, None, !subtract);
        let engine = Engine::new(shipped);
        for threads in [1, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let got = pool.install(|| engine.compute(&catalog));
            let at = format!("{label}, subtract={subtract}, {threads} threads");
            assert_close(&got, &want, &format!("{at}, vs scalar per-primary"));
            if !subtract {
                // The triplet count skips j = k itself, so its pair
                // counter is one short per primary then.
                assert_close(&got, &oracle, &format!("{at}, vs naive"));
                shipped_raw = Some(got);
            } else {
                let scale = oracle.max_abs().max(1.0);
                assert!(got.max_difference(&oracle) <= TOL * scale, "{at}, vs naive");
            }
        }
    }
    shipped_raw.expect("ran without subtraction")
}

fn at(x: f64, y: f64, z: f64) -> Galaxy {
    Galaxy::unit(Vec3::new(x, y, z))
}

/// A small cloud with pairs in every bin, the backdrop the special
/// galaxies are added to.
fn cloud() -> Vec<Galaxy> {
    let mut state = 7u64;
    let mut uniform = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..40)
        .map(|i| {
            let mut g = at(5.0 * uniform(), 5.0 * uniform(), 5.0 * uniform());
            g.weight = 0.5 + 0.25 * (i % 5) as f64;
            g
        })
        .collect()
}

#[test]
fn a_primary_whose_every_bin_is_empty() {
    // One galaxy far beyond rmax of everything: it runs all four stages
    // with no touched bin, between primaries that touch all of them.
    let mut galaxies = cloud();
    galaxies.insert(20, at(100.0, 100.0, 100.0));
    let with = check(galaxies.clone(), 4, "isolated primary");
    galaxies.remove(20);
    let without = check(galaxies, 4, "cloud alone");
    assert_eq!(with.num_primaries, without.num_primaries + 1);
    assert_eq!(with.binned_pairs, without.binned_pairs);
    let scale = without.max_abs();
    assert!(with.max_difference(&without) <= TOL * scale);

    // And a catalog where nobody has a neighbour at all.
    let lonely = (0..5).map(|i| at(50.0 * i as f64, 0.0, 0.0)).collect();
    let zeta = check(lonely, 3, "no pairs anywhere");
    assert_eq!(zeta.binned_pairs, 0);
    assert_eq!(zeta.num_primaries, 5);
    assert_eq!(zeta.max_abs(), 0.0);
}

#[test]
fn all_zero_weights() {
    let mut galaxies = cloud();
    for g in &mut galaxies {
        g.weight = 0.0;
    }
    let zeta = check(galaxies, 4, "zero weights");
    assert!(
        zeta.binned_pairs > 0,
        "pairs are binned whatever they weigh"
    );
    assert_eq!(zeta.max_abs(), 0.0);
    assert_eq!(zeta.total_primary_weight, 0.0);
}

#[test]
fn duplicate_positions() {
    // Coincident points have no direction and are never binned with
    // each other, but each still pairs with everything else.
    let mut galaxies = cloud();
    let twin = galaxies[3];
    galaxies.push(twin);
    galaxies.push(twin);
    let n = galaxies.len() as u64;
    let zeta = check(galaxies, 4, "triplicated galaxy");
    assert_eq!(zeta.num_primaries, n);

    let stack = vec![at(1.0, 1.0, 1.0); 4];
    let zeta = check(stack, 2, "four coincident galaxies");
    assert_eq!(zeta.binned_pairs, 0);
}

#[test]
fn secondaries_exactly_on_a_bin_edge_and_at_rmax() {
    // r = 2 and r = 4 are the inner edges of bins 1 and 2 (half-open
    // bins: they belong to the upper one); r = 6 = rmax is outside.
    let galaxies = vec![
        at(0.0, 0.0, 0.0),
        at(2.0, 0.0, 0.0),
        at(0.0, 4.0, 0.0),
        at(0.0, 0.0, 6.0),
        at(0.0, 0.0, -6.0),
    ];
    let zeta = check(galaxies.clone(), 3, "edge radii");
    // From the origin: r = 2 → bin 1, r = 4 → bin 2, r = 6 twice → out.
    let only_origin = Engine::new(config(3)).compute_subset(&galaxies, 1);
    assert_eq!(only_origin.binned_pairs, 2);
    let inv4pi = 1.0 / (4.0 * std::f64::consts::PI);
    for (b1, b2, want) in [
        (1, 1, 1.0),
        (2, 2, 1.0),
        (1, 2, 1.0),
        (0, 0, 0.0),
        (0, 1, 0.0),
    ] {
        let got = only_origin.get(0, 0, 0, b1, b2).re;
        assert!((got - want * inv4pi).abs() < 1e-15, "{b1} {b2}: {got}");
    }
    assert!(zeta.binned_pairs >= 2);
}

#[test]
fn one_pair_in_one_bin() {
    // Two galaxies 3 apart along the line of sight: each primary
    // touches bin 1 only, with a single pair whose m > 0 harmonics
    // vanish exactly (the exact-zero row skip in stage 4).
    let zeta = check(vec![at(1.0, 1.0, 1.0), at(1.0, 1.0, 4.0)], 4, "one pair");
    assert_eq!(zeta.binned_pairs, 2);
    for l in 0..=4 {
        for lp in 0..=4 {
            for m in 0..=l.min(lp) {
                for (b1, b2) in [(0, 0), (0, 1), (1, 0), (1, 2), (2, 2)] {
                    let z = zeta.get(l, lp, m, b1, b2);
                    assert_eq!((z.re, z.im), (0.0, 0.0), "{l} {lp} {m} {b1} {b2}");
                }
                let z = zeta.get(l, lp, m, 1, 1);
                assert_eq!(z.re == 0.0 && z.im == 0.0, m > 0 || (l + lp) % 2 == 1);
            }
        }
    }
}

#[test]
fn no_primaries_at_all() {
    // An empty catalog, and a subset run in which every galaxy is only
    // a secondary: no chunk runs, so ζ is the reduction's zero.
    let empty = check(Vec::new(), 3, "empty catalog");
    assert_eq!((empty.num_primaries, empty.binned_pairs), (0, 0));
    assert_eq!(empty.max_abs(), 0.0);
    for kind in TraversalKind::ALL {
        let mut shipped = config(3);
        shipped.traversal = TraversalChoice::Fixed(kind);
        let zeta = Engine::new(shipped).compute_subset(&cloud(), 0);
        assert_eq!((zeta.num_primaries, zeta.binned_pairs), (0, 0), "{kind:?}");
        assert_eq!(zeta.max_abs(), 0.0, "{kind:?}");
        assert_eq!(zeta.total_primary_weight, 0.0, "{kind:?}");
    }
}
