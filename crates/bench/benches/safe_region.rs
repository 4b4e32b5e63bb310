//! Safe-region pipeline micro-benchmarks: sequential vs parallel
//! construction of the exact safe region and of the offline
//! approximate-DSL store, across worker-thread counts {1, 2, 4, 8}.
//!
//! Datasets are the CarDB surrogate at 10K and 50K points with queries
//! of `|RSL(q)| ≥ 8` (the regime the parallel tree reduction targets).
//! The store build is benchmarked over a 2K-point subsample by default
//! because a full build takes seconds per iteration; set
//! `WNRS_BENCH_FULL=1` to run it at the full dataset sizes. End-to-end
//! safe-region timings come from `whynotbench`'s `anticorr_3d`
//! workload.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wnrs_bench::{make_dataset, DatasetKind};
use wnrs_core::safe_region::ApproxDslStore;
use wnrs_core::{exact_safe_region_with, Parallelism};
use wnrs_data::workload::QueryWorkload;
use wnrs_geometry::{Point, Rect};
use wnrs_rtree::bulk::bulk_load;
use wnrs_rtree::{into_ok, RTree, RTreeConfig};

const SEED: u64 = 20_130_408;
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn full() -> bool {
    std::env::var("WNRS_BENCH_FULL").is_ok_and(|v| v == "1")
}

fn dataset(n: usize) -> (Vec<Point>, RTree) {
    let points = make_dataset(DatasetKind::CarDb, n, SEED);
    let tree = bulk_load(&points, RTreeConfig::paper_default(2));
    (points, tree)
}

fn bench_safe_region(c: &mut Criterion) {
    let mut group = c.benchmark_group("safe_region_exact");
    group.sample_size(10);
    for n in [10_000usize, 50_000] {
        let (points, tree) = dataset(n);
        let universe = Rect::bounding(&points);
        let mut rng = StdRng::seed_from_u64(SEED ^ 0x1234);
        let workload = QueryWorkload::build(&tree, &points, &[8, 10, 12], &mut rng, 6000);
        let Some(query) = workload.queries.last() else {
            continue;
        };
        for threads in THREADS {
            let par = Parallelism::new(threads);
            let id = BenchmarkId::new(format!("n{n}_rsl{}", query.rsl_size()), threads);
            group.bench_with_input(id, &par, |bench, par| {
                bench.iter(|| {
                    black_box(into_ok(exact_safe_region_with(
                        &tree, &query.rsl, &universe, true, par,
                    )))
                })
            });
        }
    }
    group.finish();
}

fn bench_store_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("approx_store_build");
    group.sample_size(10);
    let sizes: Vec<usize> = if full() {
        vec![10_000, 50_000]
    } else {
        vec![2_000]
    };
    for n in sizes {
        let (_, tree) = dataset(n);
        for threads in THREADS {
            let par = Parallelism::new(threads);
            let id = BenchmarkId::new(format!("n{n}_k10"), threads);
            group.bench_with_input(id, &par, |bench, par| {
                bench.iter(|| black_box(ApproxDslStore::build_with(&tree, 10, par)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_safe_region, bench_store_build);
criterion_main!(benches);
