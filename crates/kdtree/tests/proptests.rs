//! Property-based tests: the k-d tree must agree with brute force on
//! arbitrary point sets, radii and query centers.

use galactos_kdtree::{BruteForce, KdTree, TreeConfig};
use galactos_math::Vec3;
use proptest::prelude::*;

fn arb_points(max_n: usize) -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(
        (-100.0f64..100.0, -100.0f64..100.0, -100.0f64..100.0)
            .prop_map(|(x, y, z)| Vec3::new(x, y, z)),
        0..max_n,
    )
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
        let mut got = tree.within(c, radius);
        let mut want = brute.within(c, radius);
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        prop_assert_eq!(tree.count_within(c, radius), brute.count_within(c, radius));
    }

    #[test]
    fn every_point_finds_itself(pts in arb_points(200)) {
        let tree = KdTree::build(&pts, TreeConfig::default());
        for (i, &p) in pts.iter().enumerate() {
            let hits = tree.within(p, 1e-9);
            prop_assert!(hits.contains(&(i as u32)), "point {i} lost");
        }
    }

    #[test]
    fn tree_indices_are_a_permutation(pts in arb_points(250)) {
        let tree = KdTree::build(&pts, TreeConfig { leaf_size: 5 });
        let mut ids = tree.within(
            Vec3::ZERO,
            1e9, // radius covering everything
        );
        ids.sort_unstable();
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
        let mut got = Vec::new();
        tree.for_each_within_periodic(c, radius, box_len, &mut |id| got.push(id));
        got.sort_unstable();
        let mut want: Vec<u32> = (0..pts.len() as u32)
            .filter(|&i| pts[i as usize].periodic_delta(c, box_len).norm() <= radius)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
