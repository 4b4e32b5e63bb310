//! Measures the allocation-free hot-path kernels and writes the
//! `BENCH_hotpath.json` summary at the repository root.
//!
//! ```text
//! cargo run --release -p wnrs-bench --bin hotpath [-- --threads-list 1,2,4,8]
//! ```
//!
//! Three views of the same hot path:
//!
//! * `approx_store_build` — the offline store build (one BBS pass plus
//!   sampling per customer), single-shot per thread count. The n = 10000
//!   single-thread case is the acceptance metric: the seed recorded
//!   10.703732 s for it in `BENCH_safe_region.json`, and the reworked
//!   pipeline must come in at least 2x faster.
//! * `bbs_scratch_query` — per-query dynamic-skyline latency through one
//!   reused [`BbsScratch`], i.e. the store build's steady state.
//! * `bbs_wrapper_query` — the same queries through the compat wrapper
//!   that materialises owned result points, for comparison.

use std::time::Instant;
use wnrs_bench::{make_dataset, DatasetKind};
use wnrs_core::safe_region::ApproxDslStore;
use wnrs_core::Parallelism;
use wnrs_rtree::bulk::bulk_load;
use wnrs_rtree::{into_ok, ItemId, RTreeConfig};
use wnrs_skyline::{bbs_dynamic_skyline_excluding, bbs_dynamic_skyline_scratch, BbsScratch};

const SEED: u64 = 20_130_408;

/// Single-thread n = 10000 store-build seconds recorded by the seed
/// implementation (see `BENCH_safe_region.json` history); the acceptance
/// bar is at least a 2x improvement over it.
const SEED_BASELINE_BUILD_10K: f64 = 10.703732;

/// Single-thread store-build seconds recorded on this host *before* the
/// BBS push-time-pruning / bound-arena rework (`(n, seconds)`): the
/// traversal used to rescan every popped node's entries to rebuild its
/// MBR, push every entry onto the heap even when already dominated, and
/// re-transform every item at pop. Kept so `BENCH_hotpath.json` records
/// the before/after of that fix.
const PRE_PRUNE_BUILD: [(usize, f64); 2] = [(10_000, 1.507686), (50_000, 24.508341)];

struct Case {
    op: &'static str,
    n: usize,
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
    println!("hotpath: threads {threads:?} on a {cores}-core host");
    let mut cases: Vec<Case> = Vec::new();

    for n in [10_000usize, 50_000] {
        let points = make_dataset(DatasetKind::CarDb, n, SEED);
        let tree = bulk_load(&points, RTreeConfig::paper_default(2));
        println!("== n = {n} ==");

        for &t in &threads {
            let par = Parallelism::new(t);
            let clock = Instant::now();
            std::hint::black_box(ApproxDslStore::build_with(&tree, 10, &par));
            let secs = clock.elapsed().as_secs_f64();
            println!("  approx_store_build threads {t}: {secs:.2} s");
            cases.push(Case {
                op: "approx_store_build",
                n,
                threads: t,
                seconds: secs,
            });
        }

        // Per-query BBS latency over the first 2000 customers, reusing
        // one scratch (steady state) vs the allocating compat wrapper.
        let queries = 2000.min(n);
        let mut scratch = BbsScratch::new();
        let clock = Instant::now();
        let mut total = 0usize;
        for (i, p) in points.iter().take(queries).enumerate() {
            into_ok(bbs_dynamic_skyline_scratch(
                &tree,
                p.coords(),
                Some(ItemId(i as u32)),
                &mut scratch,
            ));
            total += scratch.len();
        }
        let scratch_secs = clock.elapsed().as_secs_f64();
        let clock = Instant::now();
        let mut wrapper_total = 0usize;
        for (i, p) in points.iter().take(queries).enumerate() {
            wrapper_total += bbs_dynamic_skyline_excluding(&tree, p, Some(ItemId(i as u32))).len();
        }
        let wrapper_secs = clock.elapsed().as_secs_f64();
        assert_eq!(total, wrapper_total, "scratch and wrapper paths diverged");
        println!(
            "  bbs per query ({queries} queries): scratch {:.1} us, wrapper {:.1} us",
            scratch_secs / queries as f64 * 1e6,
            wrapper_secs / queries as f64 * 1e6,
        );
        cases.push(Case {
            op: "bbs_scratch_query",
            n,
            threads: 1,
            seconds: scratch_secs / queries as f64,
        });
        cases.push(Case {
            op: "bbs_wrapper_query",
            n,
            threads: 1,
            seconds: wrapper_secs / queries as f64,
        });
    }

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"hardware\": {{ \"available_cores\": {cores}, \"note\": \"speedup is bounded by the physical core count; on a 1-core host parallel == sequential by physics\" }},\n"
    ));
    json.push_str(&format!(
        "  \"seed\": 20130408,\n  \"engine_mode\": \"in_memory\",\n  \"dataset\": \"CarDB\",\n  \"baseline\": {{ \"op\": \"approx_store_build\", \"n\": 10000, \"threads\": 1, \"seconds\": {SEED_BASELINE_BUILD_10K} }},\n"
    ));
    json.push_str("  \"pre_prune_baseline\": [\n");
    let prior: Vec<String> = PRE_PRUNE_BUILD
        .iter()
        .map(|(n, secs)| {
            let after = cases
                .iter()
                .find(|c| c.op == "approx_store_build" && c.n == *n && c.threads == 1)
                .map(|c| c.seconds);
            let speedup = after
                .map(|a| format!(", \"speedup_after_fix\": {:.3}", secs / a))
                .unwrap_or_default();
            format!(
                "    {{ \"op\": \"approx_store_build\", \"n\": {n}, \"threads\": 1, \"seconds\": {secs}{speedup} }}"
            )
        })
        .collect();
    json.push_str(&prior.join(",\n"));
    json.push_str("\n  ],\n  \"cases\": [\n");
    let lines: Vec<String> = cases
        .iter()
        .map(|c| {
            let base = cases
                .iter()
                .find(|b| b.op == c.op && b.n == c.n && b.threads == 1)
                .map(|b| b.seconds)
                .unwrap_or(c.seconds);
            let vs_baseline = if c.op == "approx_store_build" && c.n == 10_000 && c.threads == 1 {
                format!(", \"speedup_vs_seed_baseline\": {:.3}", SEED_BASELINE_BUILD_10K / c.seconds)
            } else {
                String::new()
            };
            format!(
                "    {{ \"op\": \"{}\", \"n\": {}, \"threads\": {}, \"seconds\": {:.6}, \"speedup_vs_1\": {:.3}{} }}",
                c.op,
                c.n,
                c.threads,
                c.seconds,
                base / c.seconds,
                vs_baseline
            )
        })
        .collect();
    json.push_str(&lines.join(",\n"));
    json.push_str("\n  ]\n}\n");

    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_hotpath.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("[could not save {}: {e}]", path.display()),
    }
}
