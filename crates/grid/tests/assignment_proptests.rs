//! Property-based tests for periodic mass assignment: every scheme
//! conserves the catalog's total weight and wraps cleanly at the box
//! faces, for arbitrary particle placements.

use galactos_catalog::{Catalog, Galaxy};
use galactos_grid::{DensityMesh, MassAssignment};
use galactos_math::Vec3;
use proptest::prelude::*;

const BOX_LEN: f64 = 10.0;

fn arb_periodic_galaxies() -> impl Strategy<Value = Vec<Galaxy>> {
    prop::collection::vec(
        (
            0.0f64..BOX_LEN,
            0.0f64..BOX_LEN,
            0.0f64..BOX_LEN,
            // Weights of both signs (data-minus-randoms fields paint
            // negative weights through the same path).
            -4.0f64..4.0,
        )
            .prop_map(|(x, y, z, w)| Galaxy::new(Vec3::new(x, y, z), w)),
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn painting_conserves_total_weight(
        galaxies in arb_periodic_galaxies(),
        mesh_pow in 2u32..6,
        interlace in prop::bool::ANY,
    ) {
        let n = 1usize << mesh_pow;
        let cat = Catalog::new_periodic(galaxies, BOX_LEN);
        let direct = cat.total_weight();
        let scale: f64 = cat.galaxies.iter().map(|g| g.weight.abs()).sum::<f64>() + 1.0;
        for assignment in MassAssignment::ALL {
            let mesh = DensityMesh::paint(&cat, n, assignment, interlace);
            // Per-particle, per-axis weights sum to exactly 1, so the
            // only slack is reassociation of the deposits.
            prop_assert!(
                (mesh.total_weight() - direct).abs() <= 1e-12 * scale,
                "{assignment} n={n}: {} vs {direct}", mesh.total_weight()
            );
            if let Some(sh) = mesh.shifted_data() {
                let shifted_total: f64 = sh.iter().sum();
                prop_assert!(
                    (shifted_total - direct).abs() <= 1e-12 * scale,
                    "{assignment} n={n} (interlaced): {shifted_total} vs {direct}"
                );
            }
        }
    }

    #[test]
    fn edge_particles_wrap_to_cell_zero(
        frac in 0.50001f64..0.999,
        axis in 0usize..3,
    ) {
        // A particle in the upper half of the last cell along `axis`
        // (at L − ε) must deposit part of its weight into wrapped cell
        // 0 for CIC (NGP keeps it all in cell n−1).
        let n = 8usize;
        let h = BOX_LEN / n as f64;
        let coord = (n as f64 - 1.0 + frac) * h; // inside the last cell, above its center
        let mut pos = [h * 3.5; 3]; // other axes dead-center in a cell
        pos[axis] = coord.min(BOX_LEN - 1e-9);
        let cat = Catalog::new_periodic(
            vec![Galaxy::new(Vec3::new(pos[0], pos[1], pos[2]), 1.0)],
            BOX_LEN,
        );
        let cic = DensityMesh::paint(&cat, n, MassAssignment::Cic, false);
        // Sum the painted weight over all cells whose index along
        // `axis` is 0.
        let mut wrapped = 0.0;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let idx = [i, j, k];
                    if idx[axis] == 0 {
                        wrapped += cic.data()[(i * n + j) * n + k];
                    }
                }
            }
        }
        prop_assert!(
            wrapped > 0.0,
            "particle at {coord} left nothing in cell 0 (axis {axis})"
        );
        let ngp = DensityMesh::paint(&cat, n, MassAssignment::Ngp, false);
        let mut last = 0.0;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let idx = [i, j, k];
                    if idx[axis] == n - 1 {
                        last += ngp.data()[(i * n + j) * n + k];
                    }
                }
            }
        }
        prop_assert!((last - 1.0).abs() < 1e-12, "NGP moved weight off the last cell");
    }

    #[test]
    fn painted_field_is_translation_covariant_under_whole_cells(
        galaxies in arb_periodic_galaxies(),
        cells in 1usize..8,
    ) {
        // Shifting every particle by a whole number of cells cyclically
        // permutes the painted mesh — the discrete symmetry the
        // periodic convolution estimator relies on.
        let n = 8usize;
        let h = BOX_LEN / n as f64;
        let cat = Catalog::new_periodic(galaxies.clone(), BOX_LEN);
        let shifted_galaxies: Vec<Galaxy> = galaxies
            .iter()
            .map(|g| {
                let mut p = g.pos + Vec3::new(cells as f64 * h, 0.0, 0.0);
                if p.x >= BOX_LEN {
                    p.x -= BOX_LEN;
                }
                Galaxy::new(p, g.weight)
            })
            .collect();
        let shifted = Catalog::new_periodic(shifted_galaxies, BOX_LEN);
        for assignment in MassAssignment::ALL {
            let a = DensityMesh::paint(&cat, n, assignment, false);
            let b = DensityMesh::paint(&shifted, n, assignment, false);
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        let want = a.data()[(i * n + j) * n + k];
                        let got = b.data()[(((i + cells) % n) * n + j) * n + k];
                        prop_assert!(
                            (want - got).abs() < 1e-9,
                            "{assignment} cell ({i},{j},{k}): {want} vs {got}"
                        );
                    }
                }
            }
        }
    }
}
