//! Property tests: every parallel execution path is equivalent to its
//! sequential reference.
//!
//! Safe-region construction, the offline approximate-DSL store build and
//! batch MWQ answering may all fan out across worker threads
//! ([`wnrs_geometry::parallel`]). Parallelism must never change results:
//!
//! * `exact_safe_region_with` / `approx_safe_region_with` equal the
//!   sequential left-fold references up to box ordering, at any thread
//!   count — the containment-pruned intersection is canonical;
//! * `ApproxDslStore::build_with` is *identical* to the sequential
//!   build (per-item work is independent);
//! * `WhyNotEngine::mwq_batch` answers are identical whatever the
//!   engine's policy;
//! * the tree reduction is invariant under shuffling of the member
//!   regions (same area, same membership).
//!
//! Datasets cover the paper's uniform (UN), correlated (CO) and
//! anti-correlated (AC) distributions; thread counts cover {1, 2, 4}.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wnrs_core::safe_region::{
    approx_safe_region, approx_safe_region_with, exact_safe_region, exact_safe_region_with,
    ApproxDslStore,
};
use wnrs_core::{Parallelism, WhyNotEngine};
use wnrs_geometry::parallel::intersect_all;
use wnrs_geometry::{Point, Rect, Region};
use wnrs_rtree::{into_ok, ItemId, RTreeConfig};

const THREADS: [usize; 3] = [1, 2, 4];

fn make_points(dist: u8, n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    match dist % 3 {
        0 => wnrs_data::uniform(&mut rng, n, 2),
        1 => wnrs_data::correlated(&mut rng, n, 2),
        _ => wnrs_data::anticorrelated(&mut rng, n, 2),
    }
}

fn engine_of(points: Vec<Point>) -> WhyNotEngine {
    WhyNotEngine::with_config(points, RTreeConfig::with_max_entries(8))
}

/// A policy that actually exercises the threaded code path even on the
/// small inputs property testing affords.
fn eager(threads: usize) -> Parallelism {
    Parallelism::new(threads).with_sequential_cutoff(1)
}

/// Canonical order-insensitive fingerprint of a region's box set.
fn sorted_boxes(region: &Region) -> Vec<String> {
    let mut keys: Vec<String> = region.boxes().iter().map(|b| format!("{b:?}")).collect();
    keys.sort();
    keys
}

fn query_in(points: &[Point], rng: &mut StdRng) -> Point {
    let bounds = Rect::bounding(points);
    let coords: Vec<f64> = (0..bounds.dim())
        .map(|i| rng.gen_range(bounds.lo()[i]..=bounds.hi()[i].max(bounds.lo()[i] + 1e-9)))
        .collect();
    Point::new(coords)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn exact_safe_region_parallel_equals_sequential(
        dist in 0u8..3,
        n in 40usize..120,
        seed in 0u64..1_000_000,
    ) {
        let points = make_points(dist, n, seed);
        let tree = wnrs_rtree::bulk::bulk_load(&points, RTreeConfig::with_max_entries(8));
        let universe = Rect::bounding(&points);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
        let q = query_in(&points, &mut rng);
        let rsl = wnrs_reverse_skyline::bbrs_reverse_skyline(&tree, &q);
        let reference = exact_safe_region(&tree, &rsl, &universe, true);
        for threads in THREADS {
            let par = into_ok(exact_safe_region_with(&tree, &rsl, &universe, true, &eager(threads)));
            prop_assert_eq!(
                sorted_boxes(&par),
                sorted_boxes(&reference),
                "threads {}", threads
            );
        }
    }

    #[test]
    fn approx_safe_region_parallel_equals_sequential(
        dist in 0u8..3,
        n in 40usize..120,
        k in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let points = make_points(dist, n, seed);
        let tree = wnrs_rtree::bulk::bulk_load(&points, RTreeConfig::with_max_entries(8));
        let universe = Rect::bounding(&points);
        let store = ApproxDslStore::build(&tree, k);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A5A);
        let q = query_in(&points, &mut rng);
        let rsl = wnrs_reverse_skyline::bbrs_reverse_skyline(&tree, &q);
        let reference = approx_safe_region(&store, &rsl, &universe);
        for threads in THREADS {
            let par = approx_safe_region_with(&store, &rsl, &universe, &eager(threads));
            prop_assert_eq!(
                sorted_boxes(&par),
                sorted_boxes(&reference),
                "threads {}", threads
            );
        }
    }

    #[test]
    fn store_build_parallel_is_identical(
        dist in 0u8..3,
        n in 30usize..100,
        k in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let points = make_points(dist, n, seed);
        let tree = wnrs_rtree::bulk::bulk_load(&points, RTreeConfig::with_max_entries(8));
        let reference = ApproxDslStore::build(&tree, k);
        for threads in THREADS {
            let par = ApproxDslStore::build_with(&tree, k, &eager(threads));
            prop_assert_eq!(par.len(), reference.len(), "threads {}", threads);
            prop_assert_eq!(par.k(), reference.k());
            for i in 0..reference.len() as u32 {
                let (a, b) = (par.sample(ItemId(i)), reference.sample(ItemId(i)));
                prop_assert_eq!(a.len(), b.len(), "item {} threads {}", i, threads);
                for (x, y) in a.iter().zip(b.iter()) {
                    prop_assert!(x.same_location(y), "item {} threads {}", i, threads);
                }
            }
        }
    }

    #[test]
    fn batch_answering_identical_across_thread_counts(
        dist in 0u8..3,
        n in 40usize..100,
        seed in 0u64..1_000_000,
    ) {
        let points = make_points(dist, n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0FF0);
        let q = query_in(&points, &mut rng);
        let ids: Vec<ItemId> = (0..points.len() as u32).step_by(7).map(ItemId).collect();
        let (reference_sr, reference) = engine_of(points.clone()).mwq_batch(&ids, &q);
        for threads in THREADS {
            let engine = engine_of(points.clone())
                .with_parallelism(eager(threads));
            let (sr, answers) = engine.mwq_batch(&ids, &q);
            prop_assert_eq!(sorted_boxes(&sr), sorted_boxes(&reference_sr), "threads {}", threads);
            prop_assert_eq!(answers.len(), reference.len());
            for ((id_a, a), (id_b, b)) in answers.iter().zip(&reference) {
                prop_assert_eq!(id_a, id_b, "threads {}", threads);
                prop_assert_eq!(a.case, b.case, "id {:?} threads {}", id_a, threads);
                prop_assert!(
                    (a.cost - b.cost).abs() < 1e-12,
                    "id {:?} threads {}: {} vs {}", id_a, threads, a.cost, b.cost
                );
            }
        }
    }

    #[test]
    fn tree_reduction_invariant_under_member_order(
        dist in 0u8..3,
        n in 40usize..120,
        seed in 0u64..1_000_000,
    ) {
        let points = make_points(dist, n, seed);
        let tree = wnrs_rtree::bulk::bulk_load(&points, RTreeConfig::with_max_entries(8));
        let universe = Rect::bounding(&points);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let q = query_in(&points, &mut rng);
        let mut rsl = wnrs_reverse_skyline::bbrs_reverse_skyline(&tree, &q);
        let reference = exact_safe_region(&tree, &rsl, &universe, true);
        // Fisher–Yates shuffle of the member order with the test's RNG.
        for i in (1..rsl.len()).rev() {
            let j = rng.gen_range(0..=i);
            rsl.swap(i, j);
        }
        let regions: Vec<Region> = rsl
            .iter()
            .map(|(id, c)| {
                into_ok(wnrs_core::safe_region::anti_ddr_of(&tree, c, Some(*id), &universe, 0.0))
            })
            .collect();
        let shuffled = intersect_all(regions, &eager(2))
            .unwrap_or_else(|| Region::from_rect(universe.clone()));
        prop_assert!((shuffled.area() - reference.area()).abs() < 1e-9);
        // Membership agrees on a probe grid over the universe.
        for _ in 0..64 {
            let p = query_in(&points, &mut rng);
            prop_assert_eq!(
                shuffled.contains(&p),
                reference.contains(&p),
                "probe {:?}", p
            );
        }
    }
}
