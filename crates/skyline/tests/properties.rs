//! Property-based tests of the skyline substrate.

use proptest::prelude::*;
use wnrs_geometry::{dominates, dominates_dyn, Point};
use wnrs_rtree::bulk::bulk_load;
use wnrs_rtree::RTreeConfig;
use wnrs_skyline::{
    anti_ddr, anti_ddr_general, approx_anti_ddr, bbs_dynamic_skyline, bbs_skyline, bnl_skyline,
    ddr::max_dist, dynamic_skyline_scan, sample_dsl, sfs_skyline,
};

fn arb_points(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        prop::collection::vec(0.0f64..100.0, dim).prop_map(Point::new),
        1..max_n,
    )
}

/// Coordinates `k·1e16 + j` for `k ∈ {−1, 0, 1}` and a small integer
/// `j`: near 1e16 the f64 spacing is 2, so the coordinate sums of a
/// dominator and its victim often round to the same value.
fn arb_large_points(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<Point>> {
    let coord = (0u32..3, 0u32..4).prop_map(|(k, j)| (f64::from(k) - 1.0) * 1e16 + f64::from(j));
    prop::collection::vec(
        prop::collection::vec(coord, dim).prop_map(Point::new),
        1..max_n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bnl_and_sfs_agree_at_large_magnitudes(
        pts in arb_large_points(60, 2),
        pts3 in arb_large_points(60, 3),
    ) {
        prop_assert_eq!(bnl_skyline(&pts), sfs_skyline(&pts));
        prop_assert_eq!(bnl_skyline(&pts3), sfs_skyline(&pts3));
    }

    #[test]
    fn all_four_static_algorithms_agree(pts in arb_points(120, 2)) {
        let bnl = bnl_skyline(&pts);
        prop_assert_eq!(&bnl, &sfs_skyline(&pts));
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(5));
        let mut bbs: Vec<usize> =
            bbs_skyline(&tree).iter().map(|(id, _)| id.0 as usize).collect();
        bbs.sort_unstable();
        prop_assert_eq!(bnl, bbs);
    }

    #[test]
    fn static_algorithms_agree_in_3d(pts in arb_points(100, 3)) {
        prop_assert_eq!(bnl_skyline(&pts), sfs_skyline(&pts));
    }

    #[test]
    fn dynamic_skyline_members_are_mutually_nondominated(
        pts in arb_points(100, 2),
        q in prop::collection::vec(0.0f64..100.0, 2),
    ) {
        let q = Point::new(q);
        let dsl = dynamic_skyline_scan(&pts, &q);
        for &a in &dsl {
            for &b in &dsl {
                if a != b {
                    prop_assert!(!dominates_dyn(&pts[a], &pts[b], &q)
                        || pts[a].abs_diff(&q).same_location(&pts[b].abs_diff(&q)));
                }
            }
        }
        // Equivalence with the index-based variant.
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(5));
        let mut bbs: Vec<usize> =
            bbs_dynamic_skyline(&tree, &q).iter().map(|(id, _)| id.0 as usize).collect();
        bbs.sort_unstable();
        prop_assert_eq!(dsl, bbs);
    }

    #[test]
    fn anti_ddr_membership_matches_ground_truth(
        sky_raw in prop::collection::vec((0.1f64..90.0, 0.1f64..90.0), 1..12),
        probes in prop::collection::vec((0.0f64..99.0, 0.0f64..99.0), 20),
    ) {
        let sky: Vec<Point> = sky_raw.iter().map(|&(x, y)| Point::xy(x, y)).collect();
        let maxd = Point::xy(100.0, 100.0);
        let region = anti_ddr(&sky, &maxd);
        for &(x, y) in &probes {
            // Perturb off any exact tie with a skyline coordinate.
            let t = Point::xy(x + 0.0123456, y + 0.0317421);
            if sky.iter().any(|s| (s[0] - t[0]).abs() < 1e-9 || (s[1] - t[1]).abs() < 1e-9) {
                continue;
            }
            let truth = !sky.iter().any(|s| dominates(s, &t));
            prop_assert_eq!(region.contains(&t), truth, "at {:?}", t);
        }
    }

    #[test]
    fn general_decomposition_matches_2d(
        sky_raw in prop::collection::vec((0.1f64..90.0, 0.1f64..90.0), 1..10),
    ) {
        let sky: Vec<Point> = sky_raw.iter().map(|&(x, y)| Point::xy(x, y)).collect();
        let maxd = Point::xy(100.0, 100.0);
        let a = anti_ddr(&sky, &maxd);
        let b = anti_ddr_general(&sky, &maxd);
        prop_assert!((a.area() - b.area()).abs() < 1e-6,
            "area mismatch: {} vs {}", a.area(), b.area());
    }

    #[test]
    fn approx_anti_ddr_is_conservative(
        sky_raw in prop::collection::vec((0.1f64..90.0, 0.1f64..90.0), 2..20),
        k in 1usize..8,
    ) {
        let mut sky: Vec<Point> = sky_raw.iter().map(|&(x, y)| Point::xy(x, y)).collect();
        wnrs_geometry::dominance::prune_dominated(&mut sky, dominates);
        let maxd = Point::xy(100.0, 100.0);
        let exact = anti_ddr(&sky, &maxd);
        let sample = sample_dsl(sky.clone(), k);
        let approx = approx_anti_ddr(&sample, &maxd);
        prop_assert!(approx.area() <= exact.area() + 1e-6);
        // Spot-check membership implication on a grid.
        for xi in 0..10 {
            for yi in 0..10 {
                let t = Point::xy(xi as f64 * 9.7 + 0.13, yi as f64 * 9.7 + 0.17);
                if approx.contains(&t) {
                    prop_assert!(exact.contains(&t), "unsafe at {:?}", t);
                }
            }
        }
    }

    #[test]
    fn max_dist_covers_every_universe_point(
        c in prop::collection::vec(0.0f64..100.0, 2),
        p in prop::collection::vec(0.0f64..100.0, 2),
    ) {
        let c = Point::new(c);
        let p = Point::new(p);
        let u = wnrs_geometry::Rect::new(Point::xy(0.0, 0.0), Point::xy(100.0, 100.0));
        let m = max_dist(&c, &u);
        let t = p.abs_diff(&c);
        for i in 0..2 {
            prop_assert!(t[i] <= m[i], "distance {} exceeds cap {}", t[i], m[i]);
        }
    }
}
