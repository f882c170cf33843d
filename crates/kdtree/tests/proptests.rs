//! Property-based tests: the k-d tree's padded gather must hold every
//! point a brute-force scan puts within the radius, and nothing beyond
//! the pad, on arbitrary point sets, radii and query centers; its
//! unpadded count must equal the scan's.

use galactos_kdtree::{BruteForce, KdTree, TreeConfig};
use galactos_math::Vec3;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn arb_points(max_n: usize) -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(
        (-100.0f64..100.0, -100.0f64..100.0, -100.0f64..100.0)
            .prop_map(|(x, y, z)| Vec3::new(x, y, z)),
        0..max_n,
    )
}

/// The padded gather around `c`, sorted.
fn gather(tree: &KdTree, c: Vec3, rmax: f64, periodic: Option<f64>) -> Vec<u32> {
    let mut out = Vec::new();
    tree.gather_neighbors(c, rmax, periodic, &mut out);
    out.sort_unstable();
    out
}

/// `got` (sorted) holds every id of `want`, each once, and every id in
/// it lies within `reach` by `dist`.
fn check_padded(
    got: &[u32],
    want: &[u32],
    reach: f64,
    dist: impl Fn(u32) -> f64,
) -> Result<(), TestCaseError> {
    prop_assert!(
        got.windows(2).all(|w| w[0] < w[1]),
        "a point gathered twice"
    );
    for j in want {
        prop_assert!(got.binary_search(j).is_ok(), "point {} lost", j);
    }
    for &j in got {
        prop_assert!(
            dist(j) <= reach,
            "point {} at {} beyond {}",
            j,
            dist(j),
            reach
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn range_query_equals_brute_force(
        pts in arb_points(300),
        cx in -120.0f64..120.0,
        cy in -120.0f64..120.0,
        cz in -120.0f64..120.0,
        radius in 0.0f64..150.0,
        leaf_size in 1usize..40,
    ) {
        let tree = KdTree::build(&pts, TreeConfig { leaf_size });
        let brute = BruteForce::new(&pts);
        let c = Vec3::new(cx, cy, cz);
        let reach = radius + 2.0 * tree.pad(radius, None);
        check_padded(
            &gather(&tree, c, radius, None),
            &brute.within(c, radius),
            reach,
            |j| pts[j as usize].distance(c),
        )?;
        prop_assert_eq!(tree.count_within(c, radius), brute.count_within(c, radius));
    }

    #[test]
    fn every_point_finds_itself(pts in arb_points(200)) {
        let tree = KdTree::build(&pts, TreeConfig::default());
        for (i, &p) in pts.iter().enumerate() {
            let hits = gather(&tree, p, 1e-9, None);
            prop_assert!(hits.contains(&(i as u32)), "point {i} lost");
        }
    }

    #[test]
    fn tree_indices_are_a_permutation(pts in arb_points(250)) {
        let tree = KdTree::build(&pts, TreeConfig { leaf_size: 5 });
        let ids = gather(
            &tree,
            Vec3::ZERO,
            1e9, // radius covering everything
            None,
        );
        let want: Vec<u32> = (0..pts.len() as u32).collect();
        prop_assert_eq!(ids, want);
    }

    #[test]
    fn periodic_equals_minimum_image(
        seed_pts in arb_points(150),
        qx in 0.0f64..40.0,
        qy in 0.0f64..40.0,
        qz in 0.0f64..40.0,
        radius in 0.0f64..20.0,
    ) {
        let box_len = 40.0;
        // Wrap generated points into [0, L)
        let pts: Vec<Vec3> = seed_pts
            .iter()
            .map(|p| {
                Vec3::new(
                    p.x.rem_euclid(box_len),
                    p.y.rem_euclid(box_len),
                    p.z.rem_euclid(box_len),
                )
            })
            .collect();
        let tree = KdTree::build(&pts, TreeConfig { leaf_size: 7 });
        let c = Vec3::new(qx, qy, qz);
        let dist = |j: u32| pts[j as usize].periodic_delta(c, box_len).norm();
        let want: Vec<u32> = (0..pts.len() as u32).filter(|&j| dist(j) <= radius).collect();
        let reach = radius + 2.0 * tree.pad(radius, Some(box_len));
        check_padded(&gather(&tree, c, radius, Some(box_len)), &want, reach, dist)?;
    }
}
