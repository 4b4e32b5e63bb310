//! Measures the cross-query cache on repeated, mixed and write-mixed
//! why-not workloads and writes the `BENCH_whynot_cache.json` summary
//! at the repository root.
//!
//! ```text
//! cargo run --release -p wnrs-bench --bin cachebench [-- --smoke]
//! ```
//!
//! The read-only workloads model heavy production traffic (see
//! `wnrs_data::workload::RepeatedWorkload`): a handful of busy query
//! products each answer `W = 64` why-not questions per arrival and
//! recur throughout the stream, optionally mixed with one-off queries
//! that never amortise. Every question runs `explain_batch` +
//! `mwq_batch` on two engines built over the same dataset — one plain,
//! one `with_cache()` — and the summary records the throughput ratio
//! plus the cache's own hit/miss/eviction counters. Answers are
//! asserted identical between the two engines as they stream.
//!
//! The write-mix battery (`wnrs_data::workload::WriteMixWorkload`)
//! interleaves the repeated stream with 0% / 1% / 5% / 10% inserts and
//! deletes and replays each stream on a cached engine (surgical
//! invalidation, recorded as `cached_incremental`) against a plain
//! reference engine that applies the same writes and cross-checks every
//! answer outside the clock. The reference timing doubles as the
//! uncached baseline.
//!
//! `--smoke` shrinks the dataset and streams for CI: same code path,
//! both batteries, seconds instead of minutes, no acceptance bars, and
//! no JSON write (the committed summary stays a full-scale run).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use wnrs_bench::{make_dataset, DatasetKind};
use wnrs_core::WhyNotEngine;
use wnrs_data::workload::{RepeatedWorkload, StreamOp, WriteMixWorkload};
use wnrs_rtree::bulk::bulk_load;
use wnrs_rtree::{ItemId, RTreeConfig};

const SEED: u64 = 20_130_408;

/// Why-not questions per query product (the paper's `W`).
const W: usize = 64;

/// The write-mix battery fractions and their case labels.
const WRITE_MIXES: [(f64, &str); 4] = [
    (0.0, "write_mix_0pct"),
    (0.01, "write_mix_1pct"),
    (0.05, "write_mix_5pct"),
    (0.10, "write_mix_10pct"),
];

struct Case {
    workload: &'static str,
    mode: &'static str,
    n: usize,
    questions: usize,
    answers: usize,
    seconds: f64,
    stats: Option<wnrs_core::CacheStats>,
}

fn main() {
    let obs = wnrs_bench::ObsSession::from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    run(smoke);
    obs.finish();
}

fn run(smoke: bool) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (n, distinct, repeats, fresh) = if smoke {
        (1_000usize, 2usize, 3usize, 2usize)
    } else {
        (10_000usize, 6, 12, 6)
    };
    println!(
        "cachebench: n = {n}, W = {W}, {distinct} hot queries x {repeats} arrivals{}{} on a {cores}-core host",
        if smoke { " (smoke)" } else { "" },
        format_args!(", + {fresh} one-off queries in the mixed stream"),
    );

    let points = make_dataset(DatasetKind::CarDb, n, SEED);
    let tree = bulk_load(&points, RTreeConfig::paper_default(2));

    let mut cases: Vec<Case> = Vec::new();

    let plain = WhyNotEngine::new(points.clone());
    let mut rng = StdRng::seed_from_u64(SEED);
    let repeated = RepeatedWorkload::repeated(&tree, &points, distinct, repeats, W, &mut rng);
    let mixed = RepeatedWorkload::mixed(&tree, &points, distinct, repeats, fresh, W, &mut rng);
    for (name, workload) in [("repeated", &repeated), ("mixed", &mixed)] {
        // A fresh cached engine per workload keeps the recorded
        // hit/miss statistics per-case rather than cumulative.
        let cached = WhyNotEngine::new(points.clone()).with_cache();
        println!("== {name} workload: {} questions ==", workload.len());
        let uncached_secs = drive(&plain, workload, &mut cases, name, "uncached", n, None);
        let cached_secs = drive(
            &cached,
            workload,
            &mut cases,
            name,
            "cached",
            n,
            Some(&plain),
        );
        println!(
            "  uncached {uncached_secs:.3} s, cached {cached_secs:.3} s -> {:.2}x",
            uncached_secs / cached_secs
        );
    }

    write_mix_battery(smoke, n, &points, &tree, &mut cases);

    // Smoke runs exercise the code path but must not clobber the
    // recorded full-scale summary.
    if smoke {
        println!("[skipping BENCH_whynot_cache.json]");
        return;
    }
    write_summary(&cases, cores);

    let repeated_speedup = speedup(&cases, "repeated");
    assert!(
        repeated_speedup >= 5.0,
        "acceptance: repeated-workload speedup {repeated_speedup:.2}x is below the 5x bar"
    );
    let bar = |workload: &str, min_rate: f64| {
        let rate = cases
            .iter()
            .find(|c| c.workload == workload && c.mode == "cached_incremental")
            .and_then(|c| c.stats.as_ref())
            .map(|s| s.hit_rate())
            .unwrap_or(0.0);
        assert!(
            rate >= min_rate,
            "acceptance: {workload} incremental hit rate {:.1}% is below the {:.0}% bar",
            rate * 100.0,
            min_rate * 100.0
        );
    };
    bar("write_mix_1pct", 0.60);
    bar("write_mix_10pct", 0.40);
}

/// Runs every write-mix fraction through a cached engine with surgical
/// invalidation, recording the uncached reference engine's timing as
/// the baseline case per fraction.
fn write_mix_battery(
    smoke: bool,
    n: usize,
    points: &[wnrs_geometry::Point],
    tree: &wnrs_rtree::RTree,
    cases: &mut Vec<Case>,
) {
    let (distinct, repeats) = if smoke { (2usize, 3usize) } else { (4, 8) };
    for (fraction, name) in WRITE_MIXES {
        let mut rng = StdRng::seed_from_u64(SEED ^ 0x77);
        let base = RepeatedWorkload::repeated(tree, points, distinct, repeats, W, &mut rng);
        let stream = WriteMixWorkload::from_questions(base.questions, points, fraction, &mut rng);
        println!(
            "== {name}: {} questions, {} writes ==",
            stream.questions, stream.writes
        );
        let mode = "cached_incremental";
        let mut cached = WhyNotEngine::new(points.to_vec()).with_cache();
        let mut reference = WhyNotEngine::new(points.to_vec());
        let (cached_secs, ref_secs, answers) = drive_ops(&mut cached, &mut reference, &stream);
        let stats = cached.cache_stats();
        if let Some(stats) = &stats {
            println!(
                "  [{mode}] {cached_secs:.3} s vs uncached {ref_secs:.3} s ({:.2}x), \
                 {:.1}% hit rate, {} partial / {} full invalidations",
                ref_secs / cached_secs,
                stats.hit_rate() * 100.0,
                stats.partial_invalidations,
                stats.full_flushes
            );
        }
        for (mode, seconds, stats) in [("uncached", ref_secs, None), (mode, cached_secs, stats)] {
            cases.push(Case {
                workload: name,
                mode,
                n,
                questions: stream.questions,
                answers,
                seconds,
                stats,
            });
        }
    }
}

/// Replays a write-mixed stream on the cached engine and a plain
/// reference engine in lockstep: questions are timed on each engine
/// separately, writes are applied to both, and every answer is
/// cross-checked outside both clocks. Returns `(cached_seconds,
/// reference_seconds, answers)`.
fn drive_ops(
    cached: &mut WhyNotEngine,
    reference: &mut WhyNotEngine,
    stream: &WriteMixWorkload,
) -> (f64, f64, usize) {
    let mut cached_secs = 0.0f64;
    let mut ref_secs = 0.0f64;
    let mut answers = 0usize;
    let mut inserted: Vec<ItemId> = Vec::new();
    for op in &stream.ops {
        match op {
            StreamOp::Question(question) => {
                let clock = Instant::now();
                let explanations = cached.explain_batch(&question.whynot, &question.q);
                let (sr, mwq) = cached.mwq_batch(&question.whynot, &question.q);
                cached_secs += clock.elapsed().as_secs_f64();
                answers += explanations.len() + mwq.len();
                let clock = Instant::now();
                let ref_explanations = reference.explain_batch(&question.whynot, &question.q);
                let (ref_sr, ref_mwq) = reference.mwq_batch(&question.whynot, &question.q);
                ref_secs += clock.elapsed().as_secs_f64();
                assert_eq!(sr.len(), ref_sr.len(), "safe regions diverged");
                for (a, b) in explanations.iter().zip(&ref_explanations) {
                    assert_eq!(a.culprits.len(), b.culprits.len(), "explanations diverged");
                }
                for ((id_a, a), (id_b, b)) in mwq.iter().zip(&ref_mwq) {
                    assert_eq!(id_a, id_b);
                    assert!(
                        (a.cost - b.cost).abs() < 1e-12,
                        "mwq costs diverged for #{}: {} vs {}",
                        id_a.0,
                        a.cost,
                        b.cost
                    );
                }
            }
            StreamOp::Insert(p) => {
                let a = cached.insert(p.clone());
                let b = reference.insert(p.clone());
                assert_eq!(a, b, "engines assigned different ids");
                inserted.push(a);
            }
            StreamOp::DeleteInserted(k) => {
                let id = inserted[*k];
                assert!(cached.delete(id), "cached delete missed");
                assert!(reference.delete(id), "reference delete missed");
            }
        }
    }
    (cached_secs, ref_secs, answers)
}

/// Streams every question of `workload` through `engine`, checking each
/// answer against `reference` (the uncached engine) when given, and
/// returns the elapsed seconds (the check runs outside the clock).
fn drive(
    engine: &WhyNotEngine,
    workload: &RepeatedWorkload,
    cases: &mut Vec<Case>,
    name: &'static str,
    mode: &'static str,
    n: usize,
    reference: Option<&WhyNotEngine>,
) -> f64 {
    let mut answers = 0usize;
    let mut seconds = 0.0f64;
    for question in &workload.questions {
        let clock = Instant::now();
        let explanations = engine.explain_batch(&question.whynot, &question.q);
        let (sr, mwq) = engine.mwq_batch(&question.whynot, &question.q);
        seconds += clock.elapsed().as_secs_f64();
        answers += explanations.len() + mwq.len();
        if let Some(reference) = reference {
            let ref_explanations = reference.explain_batch(&question.whynot, &question.q);
            let (ref_sr, ref_mwq) = reference.mwq_batch(&question.whynot, &question.q);
            assert_eq!(sr.len(), ref_sr.len(), "safe regions diverged");
            for (a, b) in explanations.iter().zip(&ref_explanations) {
                assert_eq!(a.culprits.len(), b.culprits.len(), "explanations diverged");
            }
            for ((id_a, a), (id_b, b)) in mwq.iter().zip(&ref_mwq) {
                assert_eq!(id_a, id_b);
                assert!(
                    (a.cost - b.cost).abs() < 1e-12,
                    "mwq costs diverged for #{}: {} vs {}",
                    id_a.0,
                    a.cost,
                    b.cost
                );
            }
        }
    }
    let stats = engine.cache_stats();
    if let Some(stats) = &stats {
        println!(
            "  [{mode}] {} hits / {} misses ({:.1}% hit rate), {} evictions",
            stats.hits,
            stats.misses,
            stats.hit_rate() * 100.0,
            stats.evictions
        );
    }
    cases.push(Case {
        workload: name,
        mode,
        n,
        questions: workload.len(),
        answers,
        seconds,
        stats,
    });
    seconds
}

fn speedup(cases: &[Case], workload: &str) -> f64 {
    let secs = |mode: &str| {
        cases
            .iter()
            .find(|c| c.workload == workload && c.mode == mode)
            .map(|c| c.seconds)
            .unwrap_or(f64::NAN)
    };
    secs("uncached") / secs("cached")
}

fn write_summary(cases: &[Case], cores: usize) {
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"hardware\": {{ \"available_cores\": {cores}, \"note\": \"single-process wall-clock; on a 1-core host the cached and uncached runs compete for the same core, so the ratio isolates algorithmic reuse, not parallel speedup\" }},\n"
    ));
    json.push_str(&format!(
        "  \"seed\": 20130408,\n  \"engine_mode\": \"in_memory_cached\",\n  \"dataset\": \"CarDB\",\n  \"whynot_per_query\": {W},\n  \"cases\": [\n"
    ));
    let lines: Vec<String> = cases
        .iter()
        .map(|c| {
            let stats = match &c.stats {
                Some(s) => format!(
                    ", \"cache\": {{ \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}, \"invalidations\": {}, \"evictions\": {}, \"partial_invalidations\": {}, \"full_flushes\": {}, \"dsl_evictions\": {}, \"addr_evictions\": {}, \"sr_evictions\": {}, \"mwq_evictions\": {} }}",
                    s.hits,
                    s.misses,
                    s.hit_rate(),
                    s.invalidations,
                    s.evictions,
                    s.partial_invalidations,
                    s.full_flushes,
                    s.dsl_evictions,
                    s.addr_evictions,
                    s.sr_evictions,
                    s.mwq_evictions
                ),
                None => String::new(),
            };
            let speedup = if c.mode == "cached" {
                format!(
                    ", \"speedup_vs_uncached\": {:.3}",
                    speedup(cases, c.workload)
                )
            } else if c.mode.starts_with("cached_") {
                let uncached = cases
                    .iter()
                    .find(|u| u.workload == c.workload && u.mode == "uncached")
                    .map(|u| u.seconds)
                    .unwrap_or(f64::NAN);
                format!(", \"speedup_vs_uncached\": {:.3}", uncached / c.seconds)
            } else {
                String::new()
            };
            format!(
                "    {{ \"workload\": \"{}\", \"mode\": \"{}\", \"n\": {}, \"questions\": {}, \"answers\": {}, \"seconds\": {:.6}, \"answers_per_sec\": {:.1}{speedup}{stats} }}",
                c.workload,
                c.mode,
                c.n,
                c.questions,
                c.answers,
                c.seconds,
                c.answers as f64 / c.seconds
            )
        })
        .collect();
    json.push_str(&lines.join(",\n"));
    json.push_str("\n  ]\n}\n");

    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_whynot_cache.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("[could not save {}: {e}]", path.display()),
    }
}
