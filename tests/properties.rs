//! Property-based tests (proptest) on the core cross-crate invariants.

use proptest::prelude::*;
use wnrs::prelude::*;
use wnrs::reverse_skyline::rsl_monochromatic_naive;
use wnrs::skyline::sfs_skyline;

fn arb_points(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        prop::collection::vec(-100.0f64..100.0, dim).prop_map(Point::new),
        2..max_n,
    )
}

fn arb_point(dim: usize) -> impl Strategy<Value = Point> {
    prop::collection::vec(-100.0f64..100.0, dim).prop_map(Point::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rtree_window_equals_linear_scan(
        pts in arb_points(120, 2),
        lo in prop::collection::vec(-100.0f64..100.0, 2),
        extent in prop::collection::vec(0.0f64..120.0, 2),
    ) {
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(5));
        let lo = Point::new(lo);
        let hi = Point::new(vec![lo[0] + extent[0], lo[1] + extent[1]]);
        let w = Rect::new(lo, hi);
        let mut got: Vec<u32> = tree.window(&w).iter().map(|(id, _)| id.0).collect();
        got.sort_unstable();
        let mut want: Vec<u32> = pts.iter().enumerate()
            .filter(|(_, p)| w.contains_point(p))
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn rtree_structure_survives_insert_delete_churn(
        pts in arb_points(80, 2),
        deletions in prop::collection::vec(0usize..80, 0..40),
    ) {
        let mut tree = RTree::new(2, RTreeConfig::with_max_entries(5));
        for (i, p) in pts.iter().enumerate() {
            tree.insert(ItemId(i as u32), p.clone());
        }
        wnrs::rtree::validate::check_structure(&tree).expect("valid after inserts");
        let mut deleted = std::collections::HashSet::new();
        for &d in &deletions {
            if d < pts.len() && deleted.insert(d) {
                prop_assert!(tree.delete(ItemId(d as u32), &pts[d]));
            }
        }
        wnrs::rtree::validate::check_structure(&tree).expect("valid after deletes");
        prop_assert_eq!(tree.len(), pts.len() - deleted.len());
    }

    #[test]
    fn skyline_algorithms_agree(pts in arb_points(150, 3)) {
        let bnl = bnl_skyline(&pts);
        let sfs = sfs_skyline(&pts);
        prop_assert_eq!(&bnl, &sfs);
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(5));
        let mut bbs: Vec<usize> = wnrs::skyline::bbs_skyline(&tree)
            .iter().map(|(id, _)| id.0 as usize).collect();
        bbs.sort_unstable();
        prop_assert_eq!(bnl, bbs);
    }

    #[test]
    fn dynamic_skyline_bbs_equals_scan(pts in arb_points(150, 2), q in arb_point(2)) {
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(5));
        let mut bbs: Vec<usize> = bbs_dynamic_skyline(&tree, &q)
            .iter().map(|(id, _)| id.0 as usize).collect();
        bbs.sort_unstable();
        prop_assert_eq!(dynamic_skyline_scan(&pts, &q), bbs);
    }

    #[test]
    fn bbrs_equals_naive(pts in arb_points(100, 2), q in arb_point(2)) {
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(5));
        let a: Vec<u32> = bbrs_reverse_skyline(&tree, &q).iter().map(|(id, _)| id.0).collect();
        let b: Vec<u32> = rsl_monochromatic_naive(&tree, &q).iter().map(|(id, _)| id.0).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn mwp_candidates_are_limit_valid(pts in arb_points(80, 2), q in arb_point(2), pick in 0usize..80) {
        let engine = WhyNotEngine::with_config(pts.clone(), RTreeConfig::with_max_entries(5));
        let id = ItemId((pick % pts.len()) as u32);
        let ans = engine.mwp(id, &q);
        // Every returned candidate is verified (or the explicit fallback).
        for c in &ans.candidates {
            prop_assert!(c.cost >= 0.0);
        }
        prop_assert!(ans.candidates.iter().any(|c| c.verified),
            "at least one verified candidate must exist");
        // Sorted ascending by cost.
        for w in ans.candidates.windows(2) {
            prop_assert!(w[0].cost <= w[1].cost + 1e-12);
        }
    }

    #[test]
    fn mqp_candidates_are_limit_valid(pts in arb_points(80, 2), q in arb_point(2), pick in 0usize..80) {
        let engine = WhyNotEngine::with_config(pts.clone(), RTreeConfig::with_max_entries(5));
        let id = ItemId((pick % pts.len()) as u32);
        let ans = engine.mqp(id, &q);
        prop_assert!(ans.candidates.iter().any(|c| c.verified));
        for w in ans.candidates.windows(2) {
            prop_assert!(w[0].cost <= w[1].cost + 1e-12);
        }
    }

    #[test]
    fn safe_region_preserves_membership_of_sampled_points(
        pts in arb_points(60, 2),
        q in arb_point(2),
    ) {
        let engine = WhyNotEngine::with_config(pts, RTreeConfig::with_max_entries(5));
        let rsl = engine.reverse_skyline(&q);
        let sr = engine.safe_region_for(&q, &rsl);
        prop_assert!(sr.contains(&q));
        // Sample the centre of every box of the ε-shrunk region: the
        // closed representation's boundary holds tie points where
        // membership is only a limit property (see the boundary caveat
        // in wnrs-skyline::ddr), so we test strictly interior points
        // with a margin that also absorbs f64 rounding.
        for b in sr.shrink(1e-6).boxes().iter().take(8) {
            let q_star = b.center();
            let new_rsl = engine.reverse_skyline(&q_star);
            for (id, _) in &rsl {
                prop_assert!(new_rsl.iter().any(|(n, _)| n == id),
                    "moving q to {:?} lost {:?}", q_star, id);
            }
        }
    }

    #[test]
    fn mwq_cost_bounded_by_mwp(pts in arb_points(60, 2), q in arb_point(2), pick in 0usize..60) {
        let engine = WhyNotEngine::with_config(pts.clone(), RTreeConfig::with_max_entries(5));
        let id = ItemId((pick % pts.len()) as u32);
        let (_, ans) = engine.mwq_full(id, &q);
        let mwp = engine.mwp(id, &q).best_cost();
        prop_assert!(ans.cost <= mwp + 1e-9, "MWQ {} > MWP {}", ans.cost, mwp);
    }

    #[test]
    fn region_algebra_membership(
        boxes_a in prop::collection::vec((0.0f64..50.0, 0.0f64..50.0, 0.0f64..50.0, 0.0f64..50.0), 1..6),
        boxes_b in prop::collection::vec((0.0f64..50.0, 0.0f64..50.0, 0.0f64..50.0, 0.0f64..50.0), 1..6),
        probe in (0.0f64..100.0, 0.0f64..100.0),
    ) {
        let mk = |v: &[(f64, f64, f64, f64)]| Region::from_boxes(
            v.iter().map(|&(x, y, w, h)| Rect::new(Point::xy(x, y), Point::xy(x + w, y + h))).collect()
        );
        let a = mk(&boxes_a);
        let b = mk(&boxes_b);
        let i = a.intersect(&b);
        let p = Point::xy(probe.0, probe.1);
        prop_assert_eq!(i.contains(&p), a.contains(&p) && b.contains(&p));
        // Area is monotone under intersection.
        prop_assert!(i.area() <= a.area().min(b.area()) + 1e-9);
    }
}

// Runtime invariant layer (`cargo test -q --features invariant-checks`):
// the checks below re-derive the canonical-form and containment
// guarantees the static lint pass cannot see.
#[cfg(feature = "invariant-checks")]
mod invariant_checks {
    use super::{arb_point, arb_points};
    use proptest::prelude::*;
    use wnrs::core::safe_region::{anti_ddr_of, exact_safe_region, sr_contained_in_contributors};
    use wnrs::geometry::dominance::{antisymmetric_on, transitive_on};
    use wnrs::geometry::{dominates, dominates_dyn};
    use wnrs::prelude::*;
    use wnrs::reverse_skyline::bbrs_reverse_skyline;
    use wnrs::rtree::into_ok;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn region_intersection_stays_canonical(
            boxes_a in prop::collection::vec((0.0f64..50.0, 0.0f64..50.0, 0.0f64..50.0, 0.0f64..50.0), 1..6),
            boxes_b in prop::collection::vec((0.0f64..50.0, 0.0f64..50.0, 0.0f64..50.0, 0.0f64..50.0), 1..6),
        ) {
            let mk = |v: &[(f64, f64, f64, f64)]| Region::from_boxes(
                v.iter().map(|&(x, y, w, h)| Rect::new(Point::xy(x, y), Point::xy(x + w, y + h))).collect()
            );
            let a = mk(&boxes_a);
            let b = mk(&boxes_b);
            prop_assert!(a.is_canonical());
            prop_assert!(b.is_canonical());
            prop_assert!(a.intersect(&b).is_canonical());
            prop_assert!(a.union(&b).is_canonical());
        }

        #[test]
        fn dominance_laws_hold_on_samples(
            pts in arb_points(24, 3),
            q in arb_point(3),
        ) {
            prop_assert!(antisymmetric_on(&pts, dominates));
            prop_assert!(transitive_on(&pts, dominates));
            let dyn_wrt_q = |a: &Point, b: &Point| dominates_dyn(a, b, &q);
            prop_assert!(antisymmetric_on(&pts, dyn_wrt_q));
            prop_assert!(transitive_on(&pts, dyn_wrt_q));
        }

        #[test]
        fn exact_safe_region_contained_in_every_anti_ddr(
            pts in arb_points(40, 2),
            q in arb_point(2),
        ) {
            let tree = bulk_load(&pts, RTreeConfig::with_max_entries(5));
            let universe = Rect::bounding(&pts).union_mbr(&Rect::degenerate(q.clone()));
            let rsl = bbrs_reverse_skyline(&tree, &q);
            let sr = exact_safe_region(&tree, &rsl, &universe, true);
            prop_assert!(sr.is_canonical());
            let contributors: Vec<Region> = rsl
                .iter()
                .map(|(id, c)| into_ok(anti_ddr_of(&tree, c, Some(*id), &universe, 0.0)))
                .collect();
            prop_assert!(sr_contained_in_contributors(&sr, &contributors));
        }
    }
}
