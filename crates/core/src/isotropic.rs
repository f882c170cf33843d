//! Checks of the Slepian–Eisenstein (2015) isotropic multipoles.
//!
//! The isotropic multipoles are the engine's ζ compressed by the
//! addition theorem ([`AnisotropicZeta::compress_isotropic`]); these
//! tests hold that compression to the O(N³) Legendre triplet oracle
//! [`isotropic_triplets`] on open and periodic boxes.
//!
//! [`AnisotropicZeta::compress_isotropic`]: crate::result::AnisotropicZeta::compress_isotropic
//! [`isotropic_triplets`]: crate::naive::isotropic_triplets

#[cfg(test)]
mod tests {
    use crate::config::EngineConfig;
    use crate::engine::Engine;
    use crate::naive::isotropic_triplets;
    use galactos_catalog::{uniform_box, Catalog};

    /// Engine compression vs the triplet oracle, which keeps the
    /// `j = k` pairs iff the engine keeps them.
    fn assert_compression_matches_oracle(catalog: &Catalog, config: EngineConfig, label: &str) {
        let gold = isotropic_triplets(
            &catalog.galaxies,
            &config.bins,
            config.lmax,
            catalog.periodic,
            !config.subtract_self_pairs,
        );
        let compressed = Engine::new(config).compute(catalog).compress_isotropic();
        let scale = gold.max_abs().max(1.0);
        assert!(
            compressed.max_difference(&gold) < 1e-9 * scale,
            "{label}: diff {}",
            compressed.max_difference(&gold)
        );
        assert_eq!(compressed.num_primaries, gold.num_primaries, "{label}");
    }

    #[test]
    fn multipoles_match_triplet_oracle() {
        let catalog = Catalog::new(uniform_box(30, 10.0, 3).galaxies);
        for subtract_self_pairs in [false, true] {
            let mut config = EngineConfig::test_default(6.0, 4, 3);
            config.subtract_self_pairs = subtract_self_pairs;
            let label = format!("subtract_self_pairs={subtract_self_pairs}");
            assert_compression_matches_oracle(&catalog, config, &label);
        }
    }

    #[test]
    fn periodic_consistency() {
        let catalog = uniform_box(40, 8.0, 7);
        // Up to rmax = box/2, where the padded search reaches a point
        // on the far face through two images.
        for rmax in [3.9, 4.0] {
            let config = EngineConfig::test_default(rmax, 3, 3);
            assert_compression_matches_oracle(&catalog, config, &format!("rmax {rmax}"));
        }
    }
}
