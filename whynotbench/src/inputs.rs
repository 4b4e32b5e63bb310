//! Workload inputs, generated from the seed alone: the program only
//! ever sees the points and the questions made here.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wnrs_data::RepeatedWorkload;
use wnrs_geometry::Point;
use wnrs_rtree::bulk::bulk_load;
use wnrs_rtree::{ItemId, RTreeConfig};

/// CarDB size for the three `cardb_*` workloads (d = 2).
pub const CARDB_N: usize = 20_000;
/// Anti-correlated size and dimensionality for `anticorr_3d`.
pub const ANTICORR_N: usize = 2_000;
pub const ANTICORR_D: usize = 3;
/// The served hot set: products × customers per product. 256 pairs, as
/// 256 × 1 rather than 16 × 16: the cost of a pair follows its product,
/// so the more products, the steadier the median cost of a seed's hot
/// set. The engine cache holds 1024 query products, so all of them fit.
pub const HOT_PRODUCTS: usize = 256;
pub const HOT_CUSTOMERS: usize = 1;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CarDb,
    AntiCorr,
}

/// One why-not question: the query product `q` and a customer
/// `c_t ∉ RSL(q)`, named by id and carried by value for the paged
/// engine, which resolves customers by coordinates.
#[derive(Clone)]
pub struct Question {
    pub q: Point,
    pub id: ItemId,
    pub c: Point,
}

/// The dataset of a workload kind.
pub fn dataset(kind: Kind, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    match kind {
        Kind::CarDb => wnrs_data::cardb(&mut rng, CARDB_N),
        Kind::AntiCorr => wnrs_data::anticorrelated(&mut rng, ANTICORR_N, ANTICORR_D),
    }
}

/// `products` query products (perturbed data points, as in
/// `wnrs_data::workload`), each with `customers` random why-not
/// customers outside its reverse skyline. Generated from a stream
/// separate from the dataset's, so every workload over the same data
/// asks the same questions.
pub fn batches(
    points: &[Point],
    seed: u64,
    products: usize,
    customers: usize,
) -> Vec<(Point, Vec<ItemId>)> {
    let dim = points[0].dim();
    let tree = bulk_load(points, RTreeConfig::paper_default(dim));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5157_4e52_5153_0001);
    RepeatedWorkload::repeated(&tree, points, products, 1, customers, &mut rng)
        .questions
        .into_iter()
        .map(|b| (b.q, b.whynot))
        .collect()
}

/// Distinct questions, one random customer per query product.
pub fn questions(points: &[Point], seed: u64, count: usize) -> Vec<Question> {
    batches(points, seed, count, 1)
        .into_iter()
        .map(|(q, ids)| {
            let id = ids[0];
            Question {
                c: points[id.0 as usize].clone(),
                q,
                id,
            }
        })
        .collect()
}
