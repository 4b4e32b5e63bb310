//! The single-caller workloads: `cardb_memory` and `anticorr_3d` (the
//! uncached in-memory engine) and `cardb_paged` (the paged engine over
//! a page file behind a small buffer pool).
//!
//! A timed run is a closed loop of blocks: each block sets the engine
//! up afresh (timed as set-up) and then asks questions for about a
//! second, continuing through the question list where the last block
//! stopped. Spreading the set-ups over the whole run, instead of timing
//! them back to back, keeps `setup_s` from landing in one burst of host
//! slowness. Host-probe bursts bracket each block; output checks run
//! after it, off the clock.

use crate::decompose::{
    ask_memory, ask_paged, ask_traced, Answers, Backend, MemoryBackend, PagedBackend,
};
use crate::host::{self, HostProbe};
use crate::inputs::{self, Kind, Question};
use crate::report::{self, Outcome};
use crate::trace::Tracer;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use wnrs_core::engine::DEFAULT_EPS;
use wnrs_core::verify::{limit_verified_query, limit_verified_whynot};
use wnrs_core::{PagedEngine, WhyNotEngine};
use wnrs_geometry::{CostModel, MinMaxNormalizer, Point, Weights};
use wnrs_reverse_skyline::{rsl_monochromatic_naive, PagedMemberScratch};
use wnrs_rtree::bulk::bulk_load;
use wnrs_rtree::{bulk_load_stream, PagedRTree, RTreeConfig};
use wnrs_storage::{
    BufferPool, FilePager, IoStats, Page, PageId, Pager, PagerError, PAPER_PAGE_SIZE,
};

/// Set-ups per timed run, spread evenly over its questions.
const SETUPS: usize = 15;
/// `cardb_paged`'s buffer pool: about an eighth of the page file.
pub const POOL_PAGES: usize = 64;
/// Points per sorted run of the streaming bulk load (several runs at
/// n = 20,000, so the external merge is exercised).
const RUN_CAPACITY: usize = 8_192;
/// Questions per pass of a traced run.
const TRACED_CARDB: usize = 150;
const TRACED_ANTICORR: usize = 60;

/// Usual question rates (1/s) on the reference host, which size a timed
/// run: `seconds × rate` distinct questions, so a run takes about
/// `seconds` of asking there and the question count, and with it the
/// tail percentile, is the same on every run of a given length.
const CARDB_RATE: f64 = 75.0;
const ANTICORR_RATE: f64 = 26.0;
const PAGED_RATE: f64 = 50.0;

fn distinct_questions(seconds: f64, rate: f64) -> usize {
    ((seconds * rate).round() as usize).max(20)
}

/// How many questions also get their reverse skyline checked against
/// the exhaustive `rsl_monochromatic_naive` (n membership probes each).
fn naive_sample(kind: Kind) -> usize {
    match kind {
        Kind::CarDb => 3,
        Kind::AntiCorr => 12,
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The best MWP and MQP candidates of an answer: all the timed loop
/// keeps of it for the checks.
fn best(a: Answers) -> (Point, Point) {
    (a.mwp.best().point.clone(), a.mqp.best().point.clone())
}

/// Best MWP and MQP candidates must be (limit-)valid against the index.
fn check_candidates(
    engine: &WhyNotEngine,
    qu: &Question,
    (mwp, mqp): &(Point, Point),
    out: &mut Outcome,
) {
    let tree = engine.tree();
    if !limit_verified_whynot(tree, &qu.c, mwp, &qu.q, Some(qu.id), DEFAULT_EPS) {
        out.fail(format!(
            "best MWP candidate {mwp} for customer {} fails verification",
            qu.id.0
        ));
    }
    if !limit_verified_query(tree, &qu.c, &qu.q, mqp, Some(qu.id), DEFAULT_EPS) {
        out.fail(format!(
            "best MQP candidate {mqp} for customer {} fails verification",
            qu.id.0
        ));
    }
}

fn same_items(a: &[(wnrs_rtree::ItemId, Point)], b: &[(wnrs_rtree::ItemId, Point)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ia, pa), (ib, pb))| {
            ia == ib
                && pa
                    .coords()
                    .iter()
                    .map(|x| x.to_bits())
                    .eq(pb.coords().iter().map(|x| x.to_bits()))
        })
}

/// What a timed loop measured: per block, its set-up seconds, question
/// milliseconds and the wall seconds of its questions, as measured,
/// with the host's slowdown over the block (see [`crate::host`]).
#[derive(Default)]
struct Timed {
    setup_s: Vec<f64>,
    question_ms: Vec<Vec<f64>>,
    wall_s: Vec<f64>,
    slowdown: Vec<f64>,
}

impl Timed {
    /// The run's figures at the reference speed (`scaled`) or as measured.
    fn metrics(&self, out: &mut Outcome, scaled: bool) {
        let at = |b: usize, v: f64| if scaled { v / self.slowdown[b] } else { v };
        let setups: Vec<f64> = (0..self.setup_s.len())
            .map(|b| at(b, self.setup_s[b]))
            .collect();
        let ms: Vec<f64> = (0..self.question_ms.len())
            .flat_map(|b| self.question_ms[b].iter().map(move |&v| at(b, v)))
            .collect();
        let wall: f64 = (0..self.wall_s.len()).map(|b| at(b, self.wall_s[b])).sum();
        out.set("setup_s", report::median(&setups));
        out.set("questions_per_s", ms.len() as f64 / wall);
        report::latency_metrics(out, "question_p50_ms", "question_tail_ms", ms);
    }
}

/// The closed loop shared by the single-caller workloads: each of
/// `questions` asked once, in `SETUPS` blocks. A block sets the engine up
/// afresh and asks its questions; `ask` answers one and returns only
/// what the checks need, so the answers are dropped on the clock, as a
/// caller drops them. Probe bursts on both sides of a block give the
/// host's speed over it. `check` then runs on what the block kept, off
/// the clock, before the block's engine is dropped.
fn timed_loop<E, A>(
    questions: usize,
    out: &mut Outcome,
    mut set_up: impl FnMut() -> Result<E, String>,
    mut ask: impl FnMut(&E, usize) -> A,
    mut check: impl FnMut(&E, usize, A, &mut Outcome),
) -> Result<Timed, String> {
    let block = questions.div_ceil(SETUPS);
    let mut probe = HostProbe::new();
    let mut timed = Timed::default();
    for first in (0..questions).step_by(block) {
        let range = first..(first + block).min(questions);
        let before = probe.burst();
        let t = Instant::now();
        let engine = set_up()?;
        timed.setup_s.push(secs(t));
        let mut kept = Vec::with_capacity(range.len());
        let mut ms = Vec::with_capacity(range.len());
        let wall = Instant::now();
        for i in range.clone() {
            let t = Instant::now();
            kept.push(black_box(ask(&engine, i)));
            ms.push(secs(t) * 1e3);
        }
        timed.wall_s.push(secs(wall));
        timed.question_ms.push(ms);
        timed.slowdown.push(host::slowdown(&before, &probe.burst()));
        for (i, k) in range.zip(kept) {
            out.attempted += 1;
            check(&engine, i, k, out);
        }
    }
    Ok(timed)
}

/// The end-to-end metrics of a timed loop; the as-measured values go
/// to the report.
fn timed_metrics(out: &mut Outcome, timed: &Timed, peak_rss_mb: f64) {
    timed.metrics(out, true);
    out.set("peak_rss_mb", peak_rss_mb);
    let mut raw = Outcome::default();
    timed.metrics(&mut raw, false);
    out.note(format!(
        "setup_s is the median of {} set-ups; questions_per_s is questions over the wall time of the question stretches",
        timed.setup_s.len()
    ));
    out.note(report::as_measured(&raw, report::median(&timed.slowdown)));
}

/// `cardb_memory` / `anticorr_3d`, timed.
pub fn timed_memory(kind: Kind, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let rate = match kind {
        Kind::CarDb => CARDB_RATE,
        Kind::AntiCorr => ANTICORR_RATE,
    };
    let points = inputs::dataset(kind, seed);
    let questions = inputs::questions(&points, seed, distinct_questions(seconds, rate));
    let mut out = Outcome::default();
    let timed = timed_loop(
        questions.len(),
        &mut out,
        || WhyNotEngine::try_new(points.clone()).map_err(|e| e.to_string()),
        |e, i| best(ask_memory(e, &questions[i])),
        |e, i, best, out| check_candidates(e, &questions[i], &best, out),
    )?;
    let peak = report::peak_rss_mib()?;

    // Reverse skylines of a fixed sample against the exhaustive oracle.
    let engine = WhyNotEngine::try_new(points.clone()).map_err(|e| e.to_string())?;
    let sample = naive_sample(kind).min(questions.len());
    for qu in &questions[..sample] {
        let rsl = engine.reverse_skyline(&qu.q);
        if !same_items(&rsl, &rsl_monochromatic_naive(engine.tree(), &qu.q)) {
            out.fail(format!(
                "reverse skyline of {} differs from the exhaustive oracle",
                qu.q
            ));
        }
    }
    out.note(format!(
        "n {} d {}, {} distinct questions, best MWP/MQP candidates verified on every answer, {sample} reverse skylines checked exhaustively",
        points.len(),
        points[0].dim(),
        questions.len(),
    ));
    timed_metrics(&mut out, &timed, peak);
    Ok(out)
}

/// A [`Pager`] that times physical page reads; the traced paged run
/// puts it under the buffer pool.
pub struct TimedPager<P> {
    inner: P,
    // Relaxed: statistics only, read after the question that made them.
    read_ns: AtomicU64,
}

impl<P: Pager> Pager for TimedPager<P> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }
    fn allocate(&self) -> PageId {
        self.inner.allocate()
    }
    fn read_page(&self, id: PageId) -> Result<Page, PagerError> {
        let t = Instant::now();
        let page = self.inner.read_page(id);
        self.read_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        page
    }
    fn write_page(&self, id: PageId, page: &Page) -> Result<(), PagerError> {
        self.inner.write_page(id, page)
    }
    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}

/// The paged set-up: stream-load the points onto a fresh page file,
/// open the tree behind a [`POOL_PAGES`] pool, wrap it in the engine,
/// and fit the cost model to the universe recovered from the root.
fn build_paged<P: Pager>(
    points: Vec<Point>,
    dir: &Path,
    wrap: impl FnOnce(FilePager) -> P,
) -> Result<(PagedEngine<P>, Arc<P>, PageId), String> {
    let dim = points[0].dim();
    let spill_path = dir.join("spill.pg");
    let pager = Arc::new(wrap(
        FilePager::create(&dir.join("cardb.pg"), PAPER_PAGE_SIZE).map_err(|e| e.to_string())?,
    ));
    let spill = FilePager::create(&spill_path, PAPER_PAGE_SIZE).map_err(|e| e.to_string())?;
    let meta = bulk_load_stream(
        points,
        dim,
        RTreeConfig::paper_default(dim),
        pager.as_ref(),
        &spill,
        RUN_CAPACITY,
    )
    .map_err(|e| e.to_string())?;
    drop(spill);
    let _ = std::fs::remove_file(&spill_path);
    let tree = PagedRTree::open(BufferPool::new(Arc::clone(&pager), POOL_PAGES), meta)
        .map_err(|e| e.to_string())?;
    let engine = PagedEngine::from_tree(
        tree,
        CostModel::new(Weights::equal(dim), Weights::equal(dim)),
    )
    .map_err(|e| e.to_string())?;
    let cost = CostModel::new(Weights::equal(dim), Weights::equal(dim))
        .with_normalizer(MinMaxNormalizer::from_bounds(engine.universe()));
    Ok((engine.with_cost_model(cost), pager, meta))
}

/// `cardb_paged`, timed. Every answer is checked against the in-memory
/// engine's answer to the same question, bit for bit.
pub fn timed_paged(seed: u64, seconds: f64, dir: &Path) -> Result<Outcome, String> {
    let points = inputs::dataset(Kind::CarDb, seed);
    let questions = inputs::questions(&points, seed, distinct_questions(seconds, PAGED_RATE));
    let mut out = Outcome::default();
    let mut digests: Vec<Option<u64>> = vec![None; questions.len()];
    let mut pages = 0;
    let timed = timed_loop(
        questions.len(),
        &mut out,
        || {
            let (engine, pager, _) = build_paged(points.clone(), dir, |p| p)?;
            pages = pager.page_count();
            Ok(engine)
        },
        |e, i| ask_paged(e, &questions[i]).map(|a| a.digest()),
        |_, i, digest, out| match digest {
            Ok(d) => digests[i] = Some(d),
            Err(e) => out.fail(format!("question {i}: {e}")),
        },
    )?;
    let peak = report::peak_rss_mib()?;

    // The in-memory engine answers every question again, on both cores
    // so the check takes half as long.
    let engine = WhyNotEngine::try_new(points.clone()).map_err(|e| e.to_string())?;
    let digest = |qs: &[Question]| -> Vec<u64> {
        qs.iter()
            .map(|qu| ask_memory(&engine, qu).digest())
            .collect()
    };
    let (head, tail) = questions.split_at(questions.len() / 2);
    let expected = std::thread::scope(|s| {
        let tail = s.spawn(|| digest(tail));
        let mut all = digest(head);
        all.extend(
            tail.join()
                .map_err(|_| "the check's second thread panicked")?,
        );
        Ok::<_, String>(all)
    })?;
    for (i, e) in expected.into_iter().enumerate() {
        if digests[i].is_some_and(|d| d != e) {
            out.fail(format!(
                "question {i}: paged answer differs from the in-memory engine's"
            ));
        }
    }
    out.note(format!(
        "n {} d 2, {pages} pages of {PAPER_PAGE_SIZE} B, pool {POOL_PAGES} pages, {} distinct questions, every answer compared with the in-memory engine's",
        points.len(),
        questions.len(),
    ));
    timed_metrics(&mut out, &timed, peak);
    Ok(out)
}

/// The counts a traced pass must reproduce exactly on a second pass, as
/// each backend measures them: the in-memory tree counts node visits and
/// reads no pages; the paged tree's node reads are its logical page reads.
const EXACT_MEMORY: [&str; 6] = [
    "rtree.node_visits",
    "reverse_skyline.member_probes",
    "skyline.dsl_calls",
    "core.mwq_corner_calls",
    "geometry.sr_boxes",
    "geometry.dominance_tests",
];
const EXACT_PAGED: [&str; 7] = [
    "storage.logical_reads",
    "storage.physical_reads",
    "reverse_skyline.member_probes",
    "skyline.dsl_calls",
    "core.mwq_corner_calls",
    "geometry.sr_boxes",
    "geometry.dominance_tests",
];

/// The range `trace.overhead_frac` must fall in. The decomposition makes
/// the same calls as the engine plus span bookkeeping, so its median
/// question takes about as long (0 to +12% in traced runs at several
/// seeds); well below the engine's time it would be skipping work, well
/// above it doing work the engine does not.
const OVERHEAD_RANGE: (f64, f64) = (-0.1, 0.5);

/// What one traced pass measured.
#[derive(Default)]
struct Pass {
    totals: HashMap<&'static str, f64>,
    untraced_ms: Vec<f64>,
    resident_max: usize,
}

/// Asks every question both ways: through the engine with the
/// program's counters switched off (the reference answer and untraced
/// time), and through the traced decomposition with them on. The two
/// alternate which goes first, so neither always finds warm caches.
fn traced_pass<B: Backend>(
    questions: &[Question],
    tr: &Tracer,
    backend: &B,
    reference: &dyn Fn(&Question) -> Result<u64, String>,
    counts: &dyn Fn() -> [u64; 4],
    resident: &dyn Fn() -> usize,
    out: &mut Outcome,
) -> Pass {
    use wnrs_obs::Counter;
    let mut pass = Pass::default();
    let mut sums = [0u64; 4];
    let mut dominance = 0;
    for (i, qu) in questions.iter().enumerate() {
        let engine_first = i % 2 == 0;
        let mut expected = None;
        let mut run_reference = |pass: &mut Pass| {
            wnrs_obs::set_enabled(false);
            let t = Instant::now();
            expected = Some(reference(qu));
            pass.untraced_ms.push(secs(t) * 1e3);
        };
        if engine_first {
            run_reference(&mut pass);
        }
        wnrs_obs::set_enabled(true);
        let (c0, d0) = (counts(), wnrs_obs::counter_value(Counter::DominanceTests));
        let got = ask_traced(backend, tr, qu);
        let (c1, d1) = (counts(), wnrs_obs::counter_value(Counter::DominanceTests));
        wnrs_obs::set_enabled(false);
        dominance += d1 - d0;
        for k in 0..4 {
            sums[k] += c1[k] - c0[k];
        }
        pass.resident_max = pass.resident_max.max(resident());
        if !engine_first {
            run_reference(&mut pass);
        }
        out.attempted += 1;
        match (got, expected) {
            (Ok(a), Some(Ok(e))) if a.digest() == e => {}
            (Ok(_), Some(Ok(_))) => {
                out.fail(format!(
                    "question {i}: traced decomposition answers differently from the engine"
                ));
                *pass
                    .totals
                    .entry("trace.decomposition_mismatches")
                    .or_default() += 1.0;
            }
            (Err(e), _) | (_, Some(Err(e))) => out.fail(format!("question {i}: {e}")),
            (_, None) => out.fail(format!("question {i}: no reference answer")),
        }
    }
    let [visits, logical, physical, read_ns] = sums;
    let t = &mut pass.totals;
    t.insert("rtree.node_visits", visits as f64);
    t.insert("storage.logical_reads", logical as f64);
    t.insert("storage.physical_reads", physical as f64);
    t.insert("storage.read_ns", read_ns as f64);
    t.insert("geometry.dominance_tests", dominance as f64);
    for name in [
        "reverse_skyline.member_probes",
        "reverse_skyline.member_hits",
        "reverse_skyline.rsl_members",
        "reverse_skyline.culprits",
        "skyline.dsl_calls",
        "skyline.dsl_points",
        "core.mwq_corner_calls",
        "core.mwq_c2",
        "geometry.sr_boxes",
        "geometry.anti_ddr_boxes",
    ] {
        t.insert(name, tr.count(name) as f64);
    }
    pass
}

/// Turns pass totals and span aggregates into per-question metrics.
fn layer_metrics(out: &mut Outcome, tr: &Tracer, pass: &Pass, questions: usize) {
    let n = questions.max(1) as f64;
    let spans = tr.totals();
    let ms = |name: &str| spans.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6 / n);
    let self_ms = |name: &str| spans.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6 / n);
    let total = |name: &str| pass.totals.get(name).copied().unwrap_or(0.0);
    for (metric, span) in [
        ("core.rsl_ms", "core.rsl"),
        ("core.sr_ms", "core.sr"),
        ("core.explain_ms", "core.explain"),
        ("core.mwp_ms", "core.mwp"),
        ("core.mqp_ms", "core.mqp"),
        ("core.mwq_ms", "core.mwq"),
        ("core.anti_ddr_ms", "core.anti_ddr"),
        ("reverse_skyline.window_ms", "reverse_skyline.window"),
        ("reverse_skyline.member_probe_ms", "reverse_skyline.member"),
        ("skyline.dsl_ms", "skyline.dsl"),
        ("geometry.intersect_ms", "geometry.intersect"),
    ] {
        out.set(metric, ms(span));
    }
    out.set("core.mwp_self_ms", self_ms("core.mwp"));
    out.set("core.mqp_self_ms", self_ms("core.mqp"));
    out.set("core.mwq_search_ms", self_ms("core.mwq"));
    for (metric, count) in [
        ("core.mwq_corner_calls", "core.mwq_corner_calls"),
        ("core.mwq_c2_frac", "core.mwq_c2"),
        ("reverse_skyline.rsl_members", "reverse_skyline.rsl_members"),
        ("reverse_skyline.culprits", "reverse_skyline.culprits"),
        (
            "reverse_skyline.member_probes",
            "reverse_skyline.member_probes",
        ),
        ("skyline.dsl_calls", "skyline.dsl_calls"),
        ("skyline.dsl_points", "skyline.dsl_points"),
        ("geometry.anti_ddr_boxes", "geometry.anti_ddr_boxes"),
        ("geometry.sr_boxes", "geometry.sr_boxes"),
        ("geometry.dominance_tests", "geometry.dominance_tests"),
        ("rtree.node_visits", "rtree.node_visits"),
    ] {
        out.set(metric, total(count) / n);
    }
    let probes = total("reverse_skyline.member_probes");
    out.set(
        "reverse_skyline.member_hit_frac",
        if probes > 0.0 {
            total("reverse_skyline.member_hits") / probes
        } else {
            0.0
        },
    );

    let traced = tr.durations_ms("question");
    let phases: f64 = [
        "core.rsl",
        "core.sr",
        "core.explain",
        "core.mwp",
        "core.mqp",
        "core.mwq",
    ]
    .iter()
    .map(|p| spans.get(p).map_or(0, |t| t.total_ns) as f64)
    .sum();
    let question_ns = spans.get("question").map_or(0, |t| t.total_ns) as f64;
    let coverage = if question_ns > 0.0 {
        phases / question_ns
    } else {
        0.0
    };
    if coverage < 0.95 {
        out.fail(format!(
            "phase spans cover only {coverage} of the traced question time"
        ));
    }
    let traced_p50 = report::median(&traced);
    let overhead = traced_p50 / report::median(&pass.untraced_ms) - 1.0;
    if !(OVERHEAD_RANGE.0..=OVERHEAD_RANGE.1).contains(&overhead) {
        out.fail(format!(
            "traced question time is {overhead:+.3} of the engine's, outside {OVERHEAD_RANGE:?}"
        ));
    }
    out.set("trace.questions", questions as f64);
    out.set("trace.question_ms", traced_p50);
    out.set("trace.overhead_frac", overhead);
    out.set("trace.phase_coverage", coverage);
    out.set(
        "trace.decomposition_mismatches",
        total("trace.decomposition_mismatches"),
    );
}

/// Compares the exact-count totals of two passes over the same inputs.
fn exact_counts(out: &mut Outcome, first: &Pass, second: &Pass, names: &[&'static str]) {
    let mut repeated = Vec::new();
    let mut moved = Vec::new();
    for &name in names {
        let (a, b) = (first.totals.get(name), second.totals.get(name));
        if a == b {
            repeated.push(name);
        } else {
            moved.push(format!(
                "{name} ({} vs {})",
                a.copied().unwrap_or(0.0),
                b.copied().unwrap_or(0.0)
            ));
        }
    }
    out.note(format!(
        "counts that repeat exactly across two traced passes ({} of {} measured): {}",
        repeated.len(),
        names.len(),
        repeated.join(", ")
    ));
    if !moved.is_empty() {
        out.note(format!(
            "counts that moved between passes: {}",
            moved.join(", ")
        ));
    }
    out.set("trace.exact_counts", repeated.len() as f64);
}

fn traced_questions(kind: Kind, points: &[Point], seed: u64) -> Vec<Question> {
    let count = match kind {
        Kind::CarDb => TRACED_CARDB,
        Kind::AntiCorr => TRACED_ANTICORR,
    };
    inputs::questions(points, seed, count)
}

/// `cardb_memory` / `anticorr_3d`, traced: two passes over the same
/// questions, each on a freshly built engine.
pub fn traced_memory(kind: Kind, seed: u64) -> Result<Outcome, String> {
    let points = inputs::dataset(kind, seed);
    let questions = traced_questions(kind, &points, seed);
    let dim = points[0].dim();
    let mut out = Outcome::default();
    let mut passes = Vec::new();
    for pass in 0..2 {
        let t = Instant::now();
        black_box(bulk_load(&points, RTreeConfig::paper_default(dim)));
        let build_s = secs(t);
        let engine = WhyNotEngine::try_new(points.clone()).map_err(|e| e.to_string())?;
        let tr = Tracer::new();
        let counts = || [engine.tree().node_visits(), 0, 0, 0];
        let reference = |qu: &Question| Ok(ask_memory(&engine, qu).digest());
        let p = traced_pass(
            &questions,
            &tr,
            &MemoryBackend(&engine),
            &reference,
            &counts,
            &|| 0,
            &mut out,
        );
        if pass == 0 {
            layer_metrics(&mut out, &tr, &p, questions.len());
            out.set("rtree.build_s", build_s);
        }
        passes.push(p);
    }
    exact_counts(&mut out, &passes[0], &passes[1], &EXACT_MEMORY);
    out.note(format!(
        "n {} d {dim}, {} questions per traced pass",
        points.len(),
        questions.len()
    ));
    Ok(out)
}

/// `cardb_paged`, traced: the decomposition runs over a pool whose pager
/// times every physical read; the reference answers come from a second
/// engine with its own pool over the same page file, so neither warms
/// the other's pool.
pub fn traced_paged(seed: u64, dir: &Path) -> Result<Outcome, String> {
    let points = inputs::dataset(Kind::CarDb, seed);
    let questions = traced_questions(Kind::CarDb, &points, seed);
    let mut out = Outcome::default();
    let mut passes = Vec::new();
    for pass in 0..2 {
        let input = points.clone();
        let t = Instant::now();
        let (engine, pager, meta) = build_paged(input, dir, |inner| TimedPager {
            inner,
            read_ns: AtomicU64::new(0),
        })?;
        let build_s = secs(t);
        let reference_pager =
            Arc::new(FilePager::open(&dir.join("cardb.pg")).map_err(|e| e.to_string())?);
        let reference_tree = PagedRTree::open(BufferPool::new(reference_pager, POOL_PAGES), meta)
            .map_err(|e| e.to_string())?;
        let reference_engine = PagedEngine::from_tree(reference_tree, engine.cost_model().clone())
            .map_err(|e| e.to_string())?;
        let tr = Tracer::new();
        let pool = engine.tree().pool();
        let counts = || {
            let s = pool.stats();
            [
                0,
                s.logical_reads(),
                s.physical_reads(),
                pager.read_ns.load(Ordering::Relaxed),
            ]
        };
        let reference = |qu: &Question| ask_paged(&reference_engine, qu).map(|a| a.digest());
        let backend = PagedBackend {
            engine: &engine,
            scratch: RefCell::new(PagedMemberScratch::new()),
        };
        let p = traced_pass(
            &questions,
            &tr,
            &backend,
            &reference,
            &counts,
            &|| pool.resident(),
            &mut out,
        );
        if pass == 0 {
            layer_metrics(&mut out, &tr, &p, questions.len());
            let n = questions.len() as f64;
            let total = |k: &str| p.totals.get(k).copied().unwrap_or(0.0);
            let (logical, physical) = (
                total("storage.logical_reads"),
                total("storage.physical_reads"),
            );
            out.set("storage.logical_reads", logical / n);
            out.set("storage.physical_reads", physical / n);
            out.set(
                "storage.pool_hit_rate",
                if logical > 0.0 {
                    1.0 - physical / logical
                } else {
                    0.0
                },
            );
            out.set("storage.read_ms", total("storage.read_ns") / 1e6 / n);
            out.set(
                "storage.read_us",
                if physical > 0.0 {
                    total("storage.read_ns") / 1e3 / physical
                } else {
                    0.0
                },
            );
            out.set("storage.pages", pager.page_count() as f64);
            out.set("storage.resident_pages_max", p.resident_max as f64);
            out.set("storage.build_s", build_s);
        }
        passes.push(p);
    }
    exact_counts(&mut out, &passes[0], &passes[1], &EXACT_PAGED);
    out.note(format!(
        "n {} d 2, pool {POOL_PAGES} pages, {} questions per traced pass",
        points.len(),
        questions.len()
    ));
    Ok(out)
}
