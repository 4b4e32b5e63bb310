//! Behaviour under non-uniform cost weights: the paper's evaluation
//! fixes equal weights, but Eqn (9) explicitly allows per-dimension
//! `α_i`/`β_i`, "set based on how much we are willing to modify q and
//! c_t along the i-th dimension". These tests pin down that the
//! algorithms actually respond to the weights.

use wnrs_core::{modify_query_point, modify_why_not_point, WhyNotEngine};
use wnrs_geometry::{CostModel, Point, Weights};
use wnrs_rtree::bulk::bulk_load;
use wnrs_rtree::{into_ok, ItemId, RTree, RTreeConfig};

fn paper_tree() -> RTree {
    bulk_load(
        &[
            Point::xy(7.5, 42.0),  // p2
            Point::xy(2.5, 70.0),  // p3
            Point::xy(7.5, 90.0),  // p4
            Point::xy(24.0, 20.0), // p5
            Point::xy(20.0, 50.0), // p6
            Point::xy(26.0, 70.0), // p7
            Point::xy(16.0, 80.0), // p8
        ],
        RTreeConfig::with_max_entries(4),
    )
}

#[test]
fn mwp_best_flips_with_weights() {
    // c1's candidates are (8, 30) (move price by 3) and (5, 48.5) (move
    // mileage by 18.5). A customer who will not budge on price must get
    // the mileage answer, and vice versa.
    let tree = paper_tree();
    let c1 = Point::xy(5.0, 30.0);
    let q = Point::xy(8.5, 55.0);

    let price_rigid = CostModel::new(Weights::equal(2), Weights::new(vec![1.0, 0.001]));
    let ans = into_ok(modify_why_not_point(
        &tree,
        &c1,
        &q,
        None,
        &price_rigid,
        1e-9,
    ));
    assert!(
        ans.best().point.approx_eq(&Point::xy(5.0, 48.5), 1e-9),
        "price-rigid customer should move mileage: {:?}",
        ans.best().point
    );

    let mileage_rigid = CostModel::new(Weights::equal(2), Weights::new(vec![0.001, 1.0]));
    let ans = into_ok(modify_why_not_point(
        &tree,
        &c1,
        &q,
        None,
        &mileage_rigid,
        1e-9,
    ));
    assert!(
        ans.best().point.approx_eq(&Point::xy(8.0, 30.0), 1e-9),
        "mileage-rigid customer should move price: {:?}",
        ans.best().point
    );
}

#[test]
fn mqp_best_flips_with_weights() {
    // q's candidates are (7.5, 55) (price −1) and (8.5, 42) (mileage
    // −13). A dealer who cannot change mileage must reprice, and vice
    // versa.
    let tree = paper_tree();
    let c1 = Point::xy(5.0, 30.0);
    let q = Point::xy(8.5, 55.0);

    let mileage_fixed = CostModel::new(Weights::new(vec![0.001, 1.0]), Weights::equal(2));
    let ans = into_ok(modify_query_point(
        &tree,
        &c1,
        &q,
        None,
        &mileage_fixed,
        1e-9,
    ));
    assert!(
        ans.best().point.approx_eq(&Point::xy(7.5, 55.0), 1e-9),
        "mileage-fixed dealer should reprice: {:?}",
        ans.best().point
    );

    let price_fixed = CostModel::new(Weights::new(vec![1.0, 0.001]), Weights::equal(2));
    let ans = into_ok(modify_query_point(&tree, &c1, &q, None, &price_fixed, 1e-9));
    assert!(
        ans.best().point.approx_eq(&Point::xy(8.5, 42.0), 1e-9),
        "price-fixed dealer should rework mileage: {:?}",
        ans.best().point
    );
}

#[test]
fn zero_weight_dimension_is_free() {
    let tree = paper_tree();
    let c1 = Point::xy(5.0, 30.0);
    let q = Point::xy(8.5, 55.0);
    // Mileage moves are free: the mileage-only candidate costs zero.
    let model = CostModel::new(Weights::equal(2), Weights::new(vec![1.0, 0.0]));
    let ans = into_ok(modify_why_not_point(&tree, &c1, &q, None, &model, 1e-9));
    assert_eq!(ans.best_cost(), 0.0);
    assert!(ans.best().point.approx_eq(&Point::xy(5.0, 48.5), 1e-9));
}

#[test]
fn engine_wide_weighted_model() {
    // The engine propagates a custom model to every algorithm,
    // including MWQ's Eqn-(11) objective.
    let points = vec![
        Point::xy(5.0, 30.0),
        Point::xy(7.5, 42.0),
        Point::xy(2.5, 70.0),
        Point::xy(7.5, 90.0),
        Point::xy(24.0, 20.0),
        Point::xy(20.0, 50.0),
        Point::xy(26.0, 70.0),
        Point::xy(16.0, 80.0),
    ];
    let model = CostModel::new(Weights::equal(2), Weights::new(vec![1.0, 0.01]));
    let engine =
        WhyNotEngine::with_config(points, RTreeConfig::with_max_entries(4)).with_cost_model(model);
    let q = Point::xy(8.5, 55.0);
    let (_, mwq) = engine.mwq_full(ItemId(0), &q);
    let mwp = engine.mwp(ItemId(0), &q);
    assert!(
        mwq.cost <= mwp.best_cost() + 1e-12,
        "the guarantee holds under any weights"
    );
    // Price-rigid: the chosen repair should be mileage-dominated.
    let c_star = mwq.c_star.expect("case C2 in the paper example");
    let c1 = Point::xy(5.0, 30.0);
    let price_move = (c_star.point[0] - c1[0]).abs();
    let mileage_move = (c_star.point[1] - c1[1]).abs();
    assert!(
        mileage_move >= price_move,
        "price-rigid weights should prefer mileage movement: {:?}",
        c_star.point
    );
}
