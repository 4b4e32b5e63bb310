//! Measures sequential vs parallel safe-region construction and
//! approximate-DSL store build at the full 10K/50K dataset sizes and
//! writes the `BENCH_safe_region.json` summary at the repository root.
//!
//! ```text
//! cargo run --release -p wnrs-bench --bin speedup [-- --threads-list 1,2,4,8]
//! ```
//!
//! Each case is timed over a few repetitions (best-of for the cheap
//! safe-region construction, single-shot for the multi-second store
//! build). Speedups are reported relative to the one-thread run of the
//! same case; on a single-core host they hover around 1.0 by physics,
//! which the `hardware` field of the summary records.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use wnrs_bench::{make_dataset, DatasetKind};
use wnrs_core::safe_region::ApproxDslStore;
use wnrs_core::{exact_safe_region_with, Parallelism};
use wnrs_data::workload::QueryWorkload;
use wnrs_geometry::Rect;
use wnrs_rtree::bulk::bulk_load;
use wnrs_rtree::{into_ok, RTreeConfig};

const SEED: u64 = 20_130_408;

struct Case {
    op: &'static str,
    n: usize,
    rsl_size: usize,
    threads: usize,
    seconds: f64,
}

fn threads_list() -> Vec<usize> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|w| w[0] == "--threads-list")
        .map(|w| w[1].split(',').filter_map(|t| t.parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4, 8])
}

fn main() {
    // --metrics-out / --trace plumbing (no-op without `--features obs`).
    let obs = wnrs_bench::ObsSession::from_args();
    run();
    obs.finish();
}

fn run() {
    let threads = threads_list();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("speedup: threads {threads:?} on a {cores}-core host");
    let mut cases: Vec<Case> = Vec::new();

    for n in [10_000usize, 50_000] {
        let points = make_dataset(DatasetKind::CarDb, n, SEED);
        let tree = bulk_load(&points, RTreeConfig::paper_default(2));
        let universe = Rect::bounding(&points);
        let mut rng = StdRng::seed_from_u64(SEED ^ 0x1234);
        let workload = QueryWorkload::build(&tree, &points, &[8, 10, 12], &mut rng, 6000);
        let Some(query) = workload.queries.last() else {
            eprintln!("== n = {n}: no query with |RSL(q)| >= 8 found, skipping ==");
            continue;
        };
        println!("== n = {n}, |RSL(q)| = {} ==", query.rsl_size());

        for &t in &threads {
            let par = Parallelism::new(t);
            // Safe-region construction is milliseconds: best of 5 runs.
            let secs = (0..5)
                .map(|_| {
                    let clock = Instant::now();
                    std::hint::black_box(into_ok(exact_safe_region_with(
                        &tree, &query.rsl, &universe, true, &par,
                    )));
                    clock.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min);
            println!("  exact_safe_region  threads {t}: {:.3} ms", secs * 1e3);
            cases.push(Case {
                op: "exact_safe_region",
                n,
                rsl_size: query.rsl_size(),
                threads: t,
                seconds: secs,
            });
        }

        for &t in &threads {
            let par = Parallelism::new(t);
            // The store build is seconds per run: single-shot.
            let clock = Instant::now();
            std::hint::black_box(ApproxDslStore::build_with(&tree, 10, &par));
            let secs = clock.elapsed().as_secs_f64();
            println!("  approx_store_build threads {t}: {:.2} s", secs);
            cases.push(Case {
                op: "approx_store_build",
                n,
                rsl_size: 0,
                threads: t,
                seconds: secs,
            });
        }
    }

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"hardware\": {{ \"available_cores\": {cores}, \"note\": \"speedup is bounded by the physical core count; on a 1-core host parallel == sequential by physics\" }},\n"
    ));
    json.push_str(
        "  \"seed\": 20130408,\n  \"engine_mode\": \"in_memory\",\n  \"dataset\": \"CarDB\",\n  \"cases\": [\n",
    );
    let lines: Vec<String> = cases
        .iter()
        .map(|c| {
            let base = cases
                .iter()
                .find(|b| b.op == c.op && b.n == c.n && b.threads == 1)
                .map(|b| b.seconds)
                .unwrap_or(c.seconds);
            format!(
                "    {{ \"op\": \"{}\", \"n\": {}, \"rsl_size\": {}, \"threads\": {}, \"seconds\": {:.6}, \"speedup_vs_1\": {:.3} }}",
                c.op,
                c.n,
                c.rsl_size,
                c.threads,
                c.seconds,
                base / c.seconds
            )
        })
        .collect();
    json.push_str(&lines.join(",\n"));
    json.push_str("\n  ]\n}\n");

    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_safe_region.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("[could not save {}: {e}]", path.display()),
    }
}
