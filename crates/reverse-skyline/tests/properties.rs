//! Property-based tests of the reverse-skyline substrate.

use proptest::prelude::*;
use std::sync::Arc;
use wnrs_geometry::{dominates_dyn, Point};
use wnrs_reverse_skyline::{
    bbrs_reverse_skyline, global_skyline, is_reverse_skyline_member, paged_window_query,
    rsl_bichromatic, rsl_bichromatic_parallel, rsl_monochromatic_naive, window_query,
    window_query_with, CulpritBlock,
};
use wnrs_rtree::bulk::bulk_load;
use wnrs_rtree::persist::save;
use wnrs_rtree::{into_ok, ItemId, PagedRTree, RTreeConfig, WindowScratch};
use wnrs_storage::{BufferPool, MemPager};

fn arb_points(max_n: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        prop::collection::vec(0.0f64..100.0, 2).prop_map(Point::new),
        1..max_n,
    )
}

fn arb_point() -> impl Strategy<Value = Point> {
    prop::collection::vec(-20.0f64..120.0, 2).prop_map(Point::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn window_query_returns_exactly_the_dominators(pts in arb_points(100), c in arb_point(), q in arb_point()) {
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(5));
        let mut got: Vec<u32> = window_query(&tree, &c, &q, None).iter().map(|(id, _)| id.0).collect();
        got.sort_unstable();
        let mut want: Vec<u32> = pts.iter().enumerate()
            .filter(|(_, p)| dominates_dyn(p, &q, &c))
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(is_reverse_skyline_member(&tree, &c, &q, None), want.is_empty());
    }

    #[test]
    fn membership_definition_via_dynamic_skyline(pts in arb_points(60), q in arb_point()) {
        // c ∈ RSL(q) ⟺ q ∈ DSL(c) over the products (Definition 3).
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(5));
        for (i, c) in pts.iter().enumerate().take(10) {
            let products: Vec<Point> = pts.iter().enumerate()
                .filter(|(j, _)| *j != i).map(|(_, p)| p.clone()).collect();
            let q_in_dsl = wnrs_skyline::is_in_dynamic_skyline(&products, c, &q);
            prop_assert_eq!(
                is_reverse_skyline_member(&tree, c, &q, Some(ItemId(i as u32))),
                q_in_dsl,
                "customer {}", i
            );
        }
    }

    #[test]
    fn bbrs_naive_and_global_consistency(pts in arb_points(80), q in arb_point()) {
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(5));
        let bbrs: Vec<u32> = bbrs_reverse_skyline(&tree, &q).iter().map(|(id, _)| id.0).collect();
        let naive: Vec<u32> = rsl_monochromatic_naive(&tree, &q).iter().map(|(id, _)| id.0).collect();
        prop_assert_eq!(&bbrs, &naive);
        let globals: Vec<u32> = into_ok(global_skyline(&tree, &q))
            .iter()
            .map(|(id, _)| id.0)
            .collect();
        for id in &bbrs {
            prop_assert!(globals.contains(id), "RSL ⊄ global skyline");
        }
    }

    #[test]
    fn parallel_equals_sequential(
        products in arb_points(120),
        customers in arb_points(60),
        q in arb_point(),
        threads in 1usize..6,
    ) {
        let tree = bulk_load(&products, RTreeConfig::with_max_entries(5));
        prop_assert_eq!(
            rsl_bichromatic_parallel(&tree, &customers, &q, threads),
            rsl_bichromatic(&tree, &customers, &q)
        );
    }

    #[test]
    fn deleting_culprits_admits_the_customer(pts in arb_points(60), q in arb_point(), pick in 0usize..60) {
        // Lemma 1: removing Λ from P puts c_t into RSL(q).
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(5));
        let i = pick % pts.len();
        let c_t = &pts[i];
        let lambda = window_query(&tree, c_t, &q, Some(ItemId(i as u32)));
        let culprits: Vec<u32> = lambda.iter().map(|(id, _)| id.0).collect();
        let survivors: Vec<Point> = pts.iter().enumerate()
            .filter(|(j, _)| *j != i && !culprits.contains(&(*j as u32)))
            .map(|(_, p)| p.clone())
            .collect();
        if survivors.is_empty() {
            return Ok(());
        }
        let tree2 = bulk_load(&survivors, RTreeConfig::with_max_entries(5));
        prop_assert!(
            is_reverse_skyline_member(&tree2, c_t, &q, None),
            "Lemma 1 violated for customer {}", i
        );
    }
}

/// Ids and coordinate bits, in the order given.
fn bits<'a>(items: impl Iterator<Item = (ItemId, &'a [f64])>) -> Vec<(u32, Vec<u64>)> {
    items
        .map(|(id, row)| (id.0, row.iter().map(|x| x.to_bits()).collect()))
        .collect()
}

fn block_bits(block: &CulpritBlock) -> Vec<(u32, Vec<u64>)> {
    bits(block.iter())
}

fn boxed_bits(items: &[(ItemId, Point)]) -> Vec<(u32, Vec<u64>)> {
    bits(items.iter().map(|(id, p)| (*id, p.coords())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn window_block_equals_the_boxed_definition(
        grid in prop::collection::vec(prop::collection::vec(0u8..6, 5), 2..70),
        q_grid in prop::collection::vec(0u8..12, 5),
        pick in 0usize..70,
        dup in 0usize..70,
    ) {
        // Products on a coarse integer grid, so exact duplicates and
        // per-dimension distance ties are common; the customer is one
        // of them. Two more products: a duplicate, and one at q's
        // reflection about the customer, which ties q in every
        // dimension and so sits on the window's boundary without
        // dominating q.
        for d in [1usize, 2, 3, 5] {
            let point = |v: &[u8]| Point::new(v[..d].iter().map(|&x| f64::from(x)).collect::<Vec<_>>());
            let mut pts: Vec<Point> = grid.iter().map(|v| point(v)).collect();
            let q = Point::new(q_grid[..d].iter().map(|&x| f64::from(x) - 3.0).collect::<Vec<_>>());
            let i = pick % pts.len();
            let c = pts[i].clone();
            pts.push(pts[dup % pts.len()].clone());
            let reflection = Point::new((0..d).map(|k| 2.0 * c[k] - q[k]).collect::<Vec<_>>());
            pts.push(reflection);
            let reflection_id = ItemId((pts.len() - 1) as u32);

            let tree = bulk_load(&pts, RTreeConfig::with_max_entries(4));
            let pager = Arc::new(MemPager::paper_default());
            let meta = save(&tree, pager.as_ref()).expect("save");
            let paged = PagedRTree::open(BufferPool::new(pager, 8), meta).expect("open");

            for exclude in [Some(ItemId(i as u32)), None] {
                // The definition, boxed: every product but the excluded
                // one that dynamically dominates q w.r.t. c, by id.
                let want: Vec<(ItemId, Point)> = pts
                    .iter()
                    .enumerate()
                    .map(|(j, p)| (ItemId(j as u32), p.clone()))
                    .filter(|(id, p)| Some(*id) != exclude && dominates_dyn(p, &q, &c))
                    .collect();
                let want = boxed_bits(&want);
                let arena = into_ok(window_query_with(&tree, &c, &q, exclude, &mut WindowScratch::new()));
                let from_pages = window_query_with(&paged, &c, &q, exclude, &mut WindowScratch::new())
                    .expect("paged window");
                prop_assert_eq!(arena.dim(), d);
                prop_assert_eq!(&block_bits(&arena), &want, "arena block, d = {}", d);
                prop_assert_eq!(&block_bits(&from_pages), &want, "paged block, d = {}", d);
                prop_assert_eq!(&boxed_bits(&window_query(&tree, &c, &q, exclude)), &want);
                let boxed = paged_window_query(&paged, &c, &q, exclude).expect("paged boxed");
                prop_assert_eq!(&boxed_bits(&boxed), &want);
                prop_assert!(!arena.ids().contains(&reflection_id), "boundary tie counted");
                if exclude.is_some() {
                    prop_assert!(!arena.ids().contains(&ItemId(i as u32)), "own tuple counted");
                }
            }
        }
    }
}
