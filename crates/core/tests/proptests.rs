//! Property-based tests of the 3PCF engine's invariants and its bin
//! lookup on randomized catalogs, weights and configurations; the
//! engine against its oracles is `conformance.rs`.

use galactos_catalog::{Catalog, Galaxy};
use galactos_core::bins::RadialBins;
use galactos_core::config::EngineConfig;
use galactos_core::engine::Engine;
use galactos_core::traversal::{TraversalChoice, TraversalKind};
use galactos_math::{LineOfSight, Vec3};
use proptest::prelude::*;

/// An independent lookup (binary search over the whole edge array, then
/// an edge-exact walk), kept as the reference `bin_of`'s search over
/// the inner edges must match on every radius.
fn bin_of_by_search(bins: &RadialBins, r: f64) -> Option<usize> {
    if r.is_nan() || r < bins.rmin() || r >= bins.rmax() {
        return None;
    }
    let edges = bins.edges();
    let guess = match edges.binary_search_by(|e| e.partial_cmp(&r).unwrap()) {
        Ok(i) => i.min(bins.nbins() - 1),
        Err(i) => i - 1,
    };
    let mut idx = guess;
    while idx > 0 && r < edges[idx] {
        idx -= 1;
    }
    while idx + 1 < bins.nbins() && r >= edges[idx + 1] {
        idx += 1;
    }
    Some(idx)
}

/// The lane form of `bin_of` (`RadialBins::bin_lanes`, crate-private)
/// for one lane: the number of inner edges at or below `r`, kept only
/// when `rmin ≤ r < rmax`. The crate's lane function is this count lane
/// for lane (unit-tested against `bin_of` in `bins::tests`); here the
/// property holds the count itself to `bin_of` on random bins.
fn bin_by_edge_count(bins: &RadialBins, r: f64) -> Option<usize> {
    let edges = bins.edges();
    let count = edges[1..bins.nbins()].iter().filter(|&&e| e <= r).count();
    (bins.rmin() <= r && r < bins.rmax()).then_some(count)
}

fn arb_galaxies(max_n: usize) -> impl Strategy<Value = Vec<Galaxy>> {
    prop::collection::vec(
        (0.0f64..20.0, 0.0f64..20.0, 0.0f64..20.0, 0.25f64..2.0)
            .prop_map(|(x, y, z, w)| Galaxy::new(Vec3::new(x, y, z), w)),
        2..max_n,
    )
}

fn base_config(lmax: usize, nbins: usize, rmax: f64) -> EngineConfig {
    EngineConfig::test_default(rmax, lmax, nbins)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tree_output_is_hermitian_bit_for_bit(
        galaxies in arb_galaxies(50),
        lmax in 0usize..5,
        nbins in 1usize..4,
        self_pairs in proptest::bool::ANY,
        traversal_idx in 0usize..2,
    ) {
        // ζ^m_{ℓ'ℓ}(b₂,b₁) = conj ζ^m_{ℓℓ'}(b₁,b₂), exactly: the engine
        // mirrors ℓ > ℓ' per worker partial and the merge adds both
        // halves in the same order.
        let mut config = base_config(lmax, nbins, 8.0);
        config.subtract_self_pairs = self_pairs;
        config.traversal = TraversalChoice::Fixed(TraversalKind::ALL[traversal_idx]);
        let zeta = Engine::new(config).compute(&Catalog::new(galaxies));
        for l in 0..=lmax {
            for lp in 0..=lmax {
                for m in 0..=l.min(lp) {
                    for b1 in 0..nbins {
                        for b2 in 0..nbins {
                            let a = zeta.get(l, lp, m, b1, b2);
                            let b = zeta.get(lp, l, m, b2, b1);
                            prop_assert!(
                                a.re == b.re && a.im == -b.im,
                                "({l},{lp},{m},{b1},{b2}): {a} vs {b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn radial_los_skips_only_degenerate_primaries(
        galaxies in arb_galaxies(30),
        ox in -5.0f64..25.0,
        oy in -5.0f64..25.0,
        oz in -5.0f64..25.0,
    ) {
        let observer = Vec3::new(ox, oy, oz);
        let mut config = base_config(2, 2, 6.0);
        config.line_of_sight = LineOfSight::Radial { observer };
        let degenerate = galaxies.iter().filter(|g| (g.pos - observer).norm() == 0.0).count();
        let z = Engine::new(config).compute(&Catalog::new(galaxies.clone()));
        prop_assert_eq!(z.num_primaries as usize, galaxies.len() - degenerate);
    }

    #[test]
    fn bins_partition_the_range(
        rmin in 0.0f64..5.0,
        width in 0.5f64..20.0,
        nbins in 1usize..20,
        samples in prop::collection::vec(0.0f64..1.0, 20),
    ) {
        let bins = RadialBins::linear(rmin, rmin + width, nbins);
        for t in samples {
            let r = rmin + t * width * 0.999_999;
            let b = bins.bin_of(r);
            prop_assert!(b.is_some(), "r={r} must land in a bin");
            let b = b.unwrap();
            prop_assert!(r >= bins.edges()[b] && r < bins.edges()[b + 1]);
        }
        prop_assert_eq!(bins.bin_of(rmin + width), None);
        prop_assert_eq!(bins.bin_of(rmin - 1e-9), None);
    }

    #[test]
    fn log_bin_lookup_is_bit_equal_to_binary_search(
        rmin in 1e-3f64..5.0,
        ratio in 1.01f64..500.0,
        nbins in 1usize..24,
        samples in prop::collection::vec(-0.1f64..1.1, 40),
    ) {
        // `bin_of` must reproduce the reference exactly, on both
        // spacings — including out-of-range radii, exact edge hits and
        // NaN→None. The lane form (a count of inner edges, masked to
        // [rmin, rmax)) must give the same answer on every sample,
        // every edge and its ulp neighbours.
        let log_bins = RadialBins::logarithmic(rmin, rmin * ratio, nbins);
        let lin_bins = RadialBins::linear(rmin, rmin * ratio, nbins);
        for bins in [&log_bins, &lin_bins] {
            for &t in &samples {
                let r = bins.rmin() + t * (bins.rmax() - bins.rmin());
                prop_assert_eq!(bins.bin_of(r), bin_of_by_search(bins, r), "r={}", r);
                prop_assert_eq!(bins.bin_of(r), bin_by_edge_count(bins, r), "lane r={}", r);
            }
            // Every stored edge must hit the bin it opens (or None for
            // the outermost edge) through both lookups.
            for (i, &e) in bins.edges().iter().enumerate() {
                prop_assert_eq!(bins.bin_of(e), bin_of_by_search(bins, e), "edge {}", i);
                for x in [e.next_down(), e, e.next_up()] {
                    prop_assert_eq!(bins.bin_of(x), bin_by_edge_count(bins, x), "lane edge {}", i);
                }
                if i < bins.nbins() {
                    prop_assert_eq!(bins.bin_of(e), Some(i));
                }
            }
            for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                prop_assert_eq!(bins.bin_of(x), None);
                prop_assert_eq!(bin_by_edge_count(bins, x), None);
            }
        }
    }

    #[test]
    fn isotropic_compression_is_real_and_l0_positive(
        galaxies in arb_galaxies(50),
    ) {
        let config = base_config(3, 2, 7.0);
        let z = Engine::new(config).compute(&Catalog::new(galaxies));
        let k = z.compress_isotropic();
        // K_0 diagonal = Σ w (Σ w_j)² / shells ≥ 0 always.
        for b in 0..2 {
            prop_assert!(k.get(0, b, b) >= -1e-9, "K0({b},{b}) = {}", k.get(0, b, b));
        }
    }
}
