//! Out-of-core million-point scale benchmark: streams a CarDB market
//! straight onto disk pages (external-sort STR bulk load), then answers
//! why-not questions end-to-end through the page-resident
//! [`PagedEngine`] — no in-memory point arena, no eager DSL store —
//! and writes the `BENCH_scale.json` summary at the repository root.
//!
//! ```text
//! cargo run --release -p wnrs-bench --bin scalebench [-- --smoke]
//! ```
//!
//! `--smoke` runs a 2 000-point end-to-end pass (build, explain, MWQ,
//! pool-budget assertions) for CI and **never** touches the recorded
//! JSON.
//!
//! What the numbers mean:
//!
//! * `build_seconds` — streaming STR bulk load of the generated stream
//!   onto a [`FilePager`], peak memory bounded by `RUN_CAPACITY`
//!   buffered points (the dataset never exists in memory);
//! * `ttfa_seconds` — time to first answer: stream build + pool open +
//!   the first `explain` query. The eager pipeline cannot answer its
//!   first approximate why-not question before materialising the
//!   dataset and building the O(n · BBS) [`ApproxDslStore`], so the
//!   comparison baseline `eager_store_build_seconds` is that build
//!   alone (measured in-process up to 50 000 points, extrapolated by a
//!   fitted power law above — a *lower bound* on eager TTFA, which
//!   also pays dataset materialisation and tree construction);
//! * per-query rows report wall seconds and **logical pages read**
//!   (buffer-pool [`wnrs_storage::IoStats`] deltas), with the resident
//!   page ceiling asserted against the pool budget.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wnrs_bench::{make_dataset, DatasetKind};
use wnrs_core::paged::PagedEngine;
use wnrs_core::safe_region::ApproxDslStore;
use wnrs_core::Parallelism;
use wnrs_core::{Customer, Question};
use wnrs_data::cardb_stream;
use wnrs_geometry::{CostModel, MinMaxNormalizer, Point, Rect, Weights};
use wnrs_rtree::bulk::bulk_load;
use wnrs_rtree::{bulk_load_stream, ItemId, PagedRTree, RTreeConfig};
use wnrs_storage::{BufferPool, FilePager, Pager, PAPER_PAGE_SIZE};

const SEED: u64 = 20_130_408;
const DIM: usize = 2;
/// Points buffered per sorted run in the external sort: the only
/// O(run)-sized allocation of the build (~1.6 MB at d = 2).
const RUN_CAPACITY: usize = 65_536;
/// Buffer-pool budget in pages; × [`PAPER_PAGE_SIZE`] ≈ 384 KB resident.
const POOL_PAGES: usize = 256;
/// Sample size of the eager store the baseline is calibrated against
/// (Table V's k = 10).
const EAGER_K: usize = 10;
const FULL_SIZES: [usize; 3] = [50_000, 200_000, 1_000_000];
const SMOKE_SIZES: [usize; 1] = [2_000];
/// Dataset indices probed as (customer, query) pairs per size.
const PROBES: usize = 8;
/// MWQ (full pipeline: RSL + exact SR + Algorithm 4) pairs per size.
const MWQ_PROBES: usize = 4;

struct SizeResult {
    n: usize,
    build_seconds: f64,
    first_explain_seconds: f64,
    ttfa_seconds: f64,
    explain_avg_seconds: f64,
    mwq_avg_seconds: f64,
    pages_per_explain: f64,
    pages_per_mwq: f64,
    resident_max: usize,
    leaf_height: u32,
    eager_store_build_seconds: f64,
    eager_measured: bool,
    vm_hwm_kb: Option<u64>,
}

fn main() {
    let obs = wnrs_bench::ObsSession::from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    run(smoke);
    obs.finish();
}

/// Fatal exit: a bench binary has no caller to propagate I/O errors to.
fn die(context: &str, err: &dyn std::fmt::Display) -> ! {
    eprintln!("scalebench: {context}: {err}");
    std::process::exit(1);
}

/// Peak resident set of this process so far (Linux `VmHWM`), in kB.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Measures the single-thread eager store build (dataset materialised,
/// tree bulk-loaded in memory, then the O(n) BBS-per-customer sweep).
fn eager_store_build_seconds(n: usize) -> f64 {
    let points = make_dataset(DatasetKind::CarDb, n, SEED);
    let tree = bulk_load(&points, RTreeConfig::paper_default(DIM));
    let clock = Instant::now();
    std::hint::black_box(ApproxDslStore::build_with(
        &tree,
        EAGER_K,
        &Parallelism::new(1),
    ));
    clock.elapsed().as_secs_f64()
}

fn run_size(n: usize, dir: &std::path::Path) -> SizeResult {
    println!("== n = {n} ==");
    let data_path = dir.join(format!("cardb_{n}.pg"));
    let spill_path = dir.join(format!("spill_{n}.pg"));
    let pager = Arc::new(
        FilePager::create(&data_path, PAPER_PAGE_SIZE)
            .unwrap_or_else(|e| die("create page file", &e)),
    );
    let spill = FilePager::create(&spill_path, PAPER_PAGE_SIZE)
        .unwrap_or_else(|e| die("create spill file", &e));

    // Probe indices spread across the stream; their points (and the
    // running bounding box for the cost model) are captured on the fly —
    // the only per-dataset state kept in memory.
    let probe_at: Vec<usize> = (0..PROBES)
        .map(|i| i * (n / PROBES) + n / (2 * PROBES))
        .collect();
    let mut probes: Vec<(usize, Point)> = Vec::with_capacity(PROBES);
    let mut lo = vec![f64::INFINITY; DIM];
    let mut hi = vec![f64::NEG_INFINITY; DIM];

    let clock = Instant::now();
    let mut rng = StdRng::seed_from_u64(SEED);
    let meta = {
        let stream = cardb_stream(&mut rng, n).enumerate().map(|(i, p)| {
            for d in 0..DIM {
                lo[d] = lo[d].min(p[d]);
                hi[d] = hi[d].max(p[d]);
            }
            if probe_at.binary_search(&i).is_ok() {
                probes.push((i, p.clone()));
            }
            p
        });
        bulk_load_stream(
            stream,
            DIM,
            RTreeConfig::paper_default(DIM),
            pager.as_ref(),
            &spill,
            RUN_CAPACITY,
        )
        .unwrap_or_else(|e| die("streaming bulk load", &e))
    };
    drop(spill);
    std::fs::remove_file(&spill_path).ok();

    let tree = PagedRTree::open(BufferPool::new(Arc::clone(&pager), POOL_PAGES), meta)
        .unwrap_or_else(|e| die("open paged tree", &e));
    let bounds = Rect::new(Point::new(lo), Point::new(hi));
    let cost = CostModel::new(Weights::equal(DIM), Weights::equal(DIM))
        .with_normalizer(MinMaxNormalizer::from_bounds(&bounds));
    let engine = PagedEngine::from_tree(tree, cost).unwrap_or_else(|e| die("paged engine", &e));
    let build_seconds = clock.elapsed().as_secs_f64();
    let leaf_height = engine.tree().height();
    println!(
        "  stream build: {build_seconds:.2} s ({} pages on disk)",
        pager.page_count()
    );

    // Time to first answer: the lazy pipeline explains its first
    // why-not question straight off the cold pool.
    let (i0, c0) = probes[0].clone();
    let (_, q0) = probes[PROBES - 1].clone();
    let clock = Instant::now();
    let first = engine
        .explain(&c0, Some(ItemId(i0 as u32)), &q0)
        .unwrap_or_else(|e| die("first explain", &e));
    let first_explain_seconds = clock.elapsed().as_secs_f64();
    let ttfa_seconds = build_seconds + first_explain_seconds;
    std::hint::black_box(first);
    println!("  first explain: {first_explain_seconds:.4} s (ttfa {ttfa_seconds:.2} s)");

    // Probe queries: each customer paired with the next probe's point
    // as the query, so pairs stay distinct and data-distributed.
    let stats = engine.tree().pool().stats();
    let mut resident_max = 0usize;
    let mut explain_secs = 0.0;
    let mut explain_pages = 0u64;
    for (k, (i, c)) in probes.iter().enumerate() {
        let (_, q) = &probes[(k + 1) % PROBES];
        stats.reset();
        let clock = Instant::now();
        std::hint::black_box(
            engine
                .explain(c, Some(ItemId(*i as u32)), q)
                .unwrap_or_else(|e| die("explain", &e)),
        );
        explain_secs += clock.elapsed().as_secs_f64();
        explain_pages += stats.logical_reads();
        resident_max = resident_max.max(engine.tree().pool().resident());
    }
    let mut mwq_secs = 0.0;
    let mut mwq_pages = 0u64;
    for (k, (i, c)) in probes.iter().take(MWQ_PROBES).enumerate() {
        let (_, q) = &probes[(k + 1) % PROBES];
        let question = Question::Mwq {
            customer: Customer::PointExcluding(c.clone(), ItemId(*i as u32)),
            q: q.clone(),
            approx_k: None,
        };
        stats.reset();
        let clock = Instant::now();
        std::hint::black_box(engine.answer(&question).unwrap_or_else(|e| die("mwq", &e)));
        mwq_secs += clock.elapsed().as_secs_f64();
        mwq_pages += stats.logical_reads();
        resident_max = resident_max.max(engine.tree().pool().resident());
    }
    assert!(
        resident_max <= POOL_PAGES,
        "buffer pool exceeded its {POOL_PAGES}-page budget: {resident_max}"
    );
    let explain_avg_seconds = explain_secs / PROBES as f64;
    let mwq_avg_seconds = mwq_secs / MWQ_PROBES as f64;
    let pages_per_explain = explain_pages as f64 / PROBES as f64;
    let pages_per_mwq = mwq_pages as f64 / MWQ_PROBES as f64;
    println!(
        "  explain avg {:.1} ms / {:.0} pages, mwq avg {:.1} ms / {:.0} pages, resident {} / {} pages",
        explain_avg_seconds * 1e3,
        pages_per_explain,
        mwq_avg_seconds * 1e3,
        pages_per_mwq,
        resident_max,
        POOL_PAGES
    );

    SizeResult {
        n,
        build_seconds,
        first_explain_seconds,
        ttfa_seconds,
        explain_avg_seconds,
        mwq_avg_seconds,
        pages_per_explain,
        pages_per_mwq,
        resident_max,
        leaf_height,
        eager_store_build_seconds: 0.0, // filled by the caller
        eager_measured: false,
        vm_hwm_kb: vm_hwm_kb(),
    }
}

fn run(smoke: bool) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let sizes: &[usize] = if smoke { &SMOKE_SIZES } else { &FULL_SIZES };
    println!(
        "scalebench{}: sizes {sizes:?}, pool {POOL_PAGES} x {PAPER_PAGE_SIZE} B, run capacity {RUN_CAPACITY}, {cores}-core host",
        if smoke { " (smoke)" } else { "" }
    );

    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/scalebench");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| die("create scalebench dir", &e));

    // Calibrate the eager baseline first (its in-memory arrays are tiny
    // next to the streamed datasets, but run it before them so the
    // VmHWM rows attribute peak memory to the right phase).
    let (cal_small, cal_large) = if smoke {
        (500, 2_000)
    } else {
        (10_000, 50_000)
    };
    let t_small = eager_store_build_seconds(cal_small);
    let t_large = eager_store_build_seconds(cal_large);
    let exponent = (t_large / t_small).ln() / (cal_large as f64 / cal_small as f64).ln();
    println!(
        "eager store build: {t_small:.3} s @ {cal_small}, {t_large:.3} s @ {cal_large} => ~n^{exponent:.2}"
    );
    let eager_estimate = |n: usize| t_large * (n as f64 / cal_large as f64).powf(exponent);

    let mut results: Vec<SizeResult> = Vec::new();
    for &n in sizes {
        let mut r = run_size(n, &dir);
        if n <= cal_large {
            r.eager_store_build_seconds = if n == cal_large {
                t_large
            } else {
                eager_estimate(n)
            };
            r.eager_measured = n == cal_large;
        } else {
            r.eager_store_build_seconds = eager_estimate(n);
        }
        println!(
            "  ttfa speedup vs eager store build ({}): {:.1}x",
            if r.eager_measured {
                "measured"
            } else {
                "extrapolated"
            },
            r.eager_store_build_seconds / r.ttfa_seconds
        );
        results.push(r);
    }

    if smoke {
        println!("smoke pass complete; BENCH_scale.json left untouched");
        return;
    }

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"hardware\": {{ \"available_cores\": {cores}, \"note\": \"single process; streaming build and all queries are single-threaded\" }},\n"
    ));
    json.push_str(&format!(
        "  \"seed\": {SEED},\n  \"engine_mode\": \"paged\",\n  \"dataset\": \"CarDB\",\n  \"page_size_bytes\": {PAPER_PAGE_SIZE},\n  \"pool_pages\": {POOL_PAGES},\n  \"pool_budget_bytes\": {},\n  \"run_capacity_points\": {RUN_CAPACITY},\n",
        POOL_PAGES * PAPER_PAGE_SIZE
    ));
    json.push_str(&format!(
        "  \"eager_baseline\": {{ \"op\": \"approx_store_build\", \"k\": {EAGER_K}, \"threads\": 1, \"measured\": [ {{ \"n\": {cal_small}, \"seconds\": {t_small:.6} }}, {{ \"n\": {cal_large}, \"seconds\": {t_large:.6} }} ], \"fitted_exponent\": {exponent:.4}, \"note\": \"store build alone — a lower bound on eager time-to-first-answer, which additionally materialises the dataset and builds the in-memory tree\" }},\n"
    ));
    json.push_str("  \"cases\": [\n");
    let lines: Vec<String> = results
        .iter()
        .map(|r| {
            let hwm = r
                .vm_hwm_kb
                .map(|kb| format!(", \"process_vm_hwm_kb\": {kb}"))
                .unwrap_or_default();
            format!(
                "    {{ \"n\": {}, \"build_seconds\": {:.6}, \"first_explain_seconds\": {:.6}, \"ttfa_seconds\": {:.6}, \"eager_store_build_seconds\": {:.6}, \"eager_basis\": \"{}\", \"ttfa_speedup_vs_eager\": {:.3}, \"explain_avg_seconds\": {:.6}, \"mwq_avg_seconds\": {:.6}, \"pages_read_per_explain\": {:.1}, \"pages_read_per_mwq\": {:.1}, \"pool_resident_max_pages\": {}, \"tree_height\": {}{} }}",
                r.n,
                r.build_seconds,
                r.first_explain_seconds,
                r.ttfa_seconds,
                r.eager_store_build_seconds,
                if r.eager_measured { "measured" } else { "extrapolated" },
                r.eager_store_build_seconds / r.ttfa_seconds,
                r.explain_avg_seconds,
                r.mwq_avg_seconds,
                r.pages_per_explain,
                r.pages_per_mwq,
                r.resident_max,
                r.leaf_height,
                hwm
            )
        })
        .collect();
    json.push_str(&lines.join(",\n"));
    json.push_str("\n  ]\n}\n");

    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_scale.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("[could not save {}: {e}]", path.display()),
    }
}
