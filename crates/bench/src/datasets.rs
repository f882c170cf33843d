//! Catalog generation wrappers at paper-scaled sizes.

use galactos_catalog::Catalog;
use galactos_mocks::scaled::{
    generate_scaled_catalog, scaled_dataset, MockKind, OUTER_RIM_DENSITY,
};

/// Laptop-scale analogue of the paper's per-node datasets: a clustered
/// catalog of `ranks × per_rank` galaxies at the Outer Rim number
/// density (the paper's node held 225,000 galaxies in a ~146 Mpc/h box;
/// we default to a smaller cut of the same density so Rmax-scaled
/// physics carries over).
pub(crate) fn node_dataset(ranks: usize, per_rank: f64, seed: u64) -> Catalog {
    let ds = scaled_dataset(ranks, per_rank, OUTER_RIM_DENSITY);
    let mut cat = generate_scaled_catalog(&ds, 1.0, MockKind::Clustered, seed);
    cat.periodic = None; // open box, like the paper's per-node domain
    cat
}

/// The Rmax that plays the role of the paper's 200 Mpc/h for a scaled
/// box: the paper's ratio Rmax/box ≈ 200/2934 for the 8192-node run,
/// but per *node* the domain was ~146 Mpc/h with Rmax reaching well
/// beyond it. For laptop runs we use Rmax = box/4, which preserves a
/// deep neighbor sphere without degenerating to all-pairs.
pub(crate) fn scaled_rmax(catalog: &Catalog) -> f64 {
    let ext = catalog.bounds.extent();
    0.25 * ext.x.min(ext.y).min(ext.z)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_dataset_has_right_density() {
        let cat = node_dataset(1, 3000.0, 1);
        let v = cat.bounds.volume();
        let density = cat.len() as f64 / v;
        assert!(
            (density / OUTER_RIM_DENSITY - 1.0).abs() < 0.3,
            "density {density}"
        );
        assert!(scaled_rmax(&cat) > 0.0);
    }
}
