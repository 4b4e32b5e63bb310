//! Page faults through the paged why-not pipeline: a page read that
//! fails and a page that is corrupt must both surface as a
//! `PersistError` from every query — never a panic, an abort, a hang, or
//! an answer built around the missing data.
//!
//! Read faults come from a pager wrapper that fails the k-th physical
//! read; every query — the approximate safe region too — is swept over
//! every physical read it makes, under a 4-page buffer pool so that
//! reads repeat, on an uncached and on a cached engine. Corrupt pages are single
//! overwritten fields of a saved 200-point CarDB tree; calls that could
//! loop on them run on a worker thread with a bounded wait.

use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wnrs_core::{PagedEngine, Question as Asked, QuestionError};
use wnrs_geometry::{CostModel, Point, Region};
use wnrs_reverse_skyline::paged_window_query;
use wnrs_rtree::bulk::bulk_load;
use wnrs_rtree::persist::{load, save, PersistError};
use wnrs_rtree::{ItemId, PagedRTree, RTreeConfig};
use wnrs_storage::{BufferPool, IoStats, MemPager, Page, PageId, Pager, PagerError};

/// A pager that fails the `fail_at`-th physical read since it was last
/// armed (0: none), with `PagerError::UnknownPage`.
struct FaultyPager {
    inner: MemPager,
    reads: AtomicU64,
    fail_at: AtomicU64,
}

impl FaultyPager {
    fn arm(&self, fail_at: u64) {
        self.reads.store(0, Ordering::SeqCst);
        self.fail_at.store(fail_at, Ordering::SeqCst);
    }

    fn reads(&self) -> u64 {
        self.reads.load(Ordering::SeqCst)
    }
}

impl Pager for FaultyPager {
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
        let n = self.reads.fetch_add(1, Ordering::SeqCst) + 1;
        if n == self.fail_at.load(Ordering::SeqCst) {
            return Err(PagerError::UnknownPage(id));
        }
        self.inner.read_page(id)
    }

    fn write_page(&self, id: PageId, page: &Page) -> Result<(), PagerError> {
        self.inner.write_page(id, page)
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}

fn cardb(n: usize) -> Vec<Point> {
    wnrs_data::cardb(&mut StdRng::seed_from_u64(20_130_408), n)
}

fn engine_over<P: Pager>(pager: &Arc<P>, meta: PageId, points: &[Point]) -> PagedEngine<P> {
    let tree = PagedRTree::open(BufferPool::new(Arc::clone(pager), 4), meta).expect("open");
    PagedEngine::from_tree(tree, CostModel::paper_default(points)).expect("engine")
}

/// One why-not question: query product `q`, customer `c` with own id.
struct Question {
    q: Point,
    c: Point,
    id: ItemId,
    rsl: Vec<(ItemId, Point)>,
    sr: Region,
}

type Query<P> = Box<dyn Fn(&PagedEngine<P>) -> Result<String, PersistError> + Send>;

/// Every query of the paged engine on question `qu`, each answer in its
/// exact `Debug` form.
fn queries<P: Pager + 'static>(qu: &Arc<Question>) -> Vec<(&'static str, Query<P>)> {
    fn fmt<T: Debug>(r: Result<T, PersistError>) -> Result<String, PersistError> {
        r.map(|a| format!("{a:?}"))
    }
    /// The reply to `question`, a failed page read as its error.
    fn answer<P: Pager>(en: &PagedEngine<P>, question: &Asked) -> Result<String, PersistError> {
        match en.answer(question) {
            Ok(reply) => Ok(format!("{reply:?}")),
            Err(QuestionError::PageRead(e)) => Err(e),
            Err(other) => panic!("{question:?}: {other}"),
        }
    }
    let [a, b, c, d, e, f, g, h, i]: [Arc<Question>; 9] = std::array::from_fn(|_| Arc::clone(qu));
    vec![
        (
            "reverse_skyline",
            Box::new(move |en| fmt(en.reverse_skyline(&a.q))),
        ),
        (
            "explain",
            Box::new(move |en| fmt(en.explain(&b.c, Some(b.id), &b.q))),
        ),
        (
            "mwp",
            Box::new(move |en| fmt(en.mwp(&c.c, Some(c.id), &c.q))),
        ),
        (
            "mqp",
            Box::new(move |en| fmt(en.mqp(&d.c, Some(d.id), &d.q))),
        ),
        (
            "dynamic_skyline",
            Box::new(move |en| fmt(en.dynamic_skyline(&e.c, Some(e.id)))),
        ),
        (
            "safe_region_for",
            Box::new(move |en| fmt(en.safe_region_for(&f.q, &f.rsl))),
        ),
        (
            "mwq",
            Box::new(move |en| fmt(en.mwq(&g.c, Some(g.id), &g.q, &g.sr))),
        ),
        (
            "is_member",
            Box::new(move |en| fmt(en.is_member(&h.c, Some(h.id), &h.q))),
        ),
        (
            "approximate safe region",
            Box::new(move |en| {
                let (q, approx_k) = (i.q.clone(), Some(4));
                answer(en, &Asked::SafeRegion { q, approx_k })
            }),
        ),
    ]
}

/// The questions `(i, customer)` on `points` given by index — the query
/// product midway between points `i` and `i + 1` — with their reverse
/// skylines and safe regions computed by `reference`.
fn questions<P: Pager>(
    points: &[Point],
    at: &[(usize, usize)],
    reference: &PagedEngine<P>,
) -> Vec<Arc<Question>> {
    at.iter()
        .map(|&(qi, ci)| {
            let (a, b) = (&points[qi], &points[qi + 1]);
            let q = Point::xy(0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]));
            let rsl = reference.reverse_skyline(&q).expect("rsl");
            let sr = reference.safe_region_for(&q, &rsl).expect("sr");
            Arc::new(Question {
                q,
                c: points[ci].clone(),
                id: ItemId(ci as u32),
                rsl,
                sr,
            })
        })
        .collect()
}

#[test]
fn every_failed_page_read_is_an_error_and_leaves_the_engine_exact() {
    let points = cardb(400);
    let tree = bulk_load(&points, RTreeConfig::paper_default(2));
    let pager = Arc::new(FaultyPager {
        inner: MemPager::paper_default(),
        reads: AtomicU64::new(0),
        fail_at: AtomicU64::new(0),
    });
    let meta = save(&tree, pager.as_ref()).expect("save");
    let reference = engine_over(&pager, meta, &points);
    // Each question's MWQ repairs the customer (case C2), so the repair
    // oracle's page reads are swept as well.
    let asked = questions(&points, &[(1, 100), (4, 0), (5, 100)], &reference);
    // A cached engine fills no memo from a failed computation, so once
    // the fault clears it answers like a fault-free engine.
    let engine = |cached: bool| {
        let engine = engine_over(&pager, meta, &points);
        if cached {
            engine.with_cache()
        } else {
            engine
        }
    };
    for (qi, qu) in asked.iter().enumerate() {
        for (name, query) in queries::<FaultyPager>(qu) {
            let want = query(&reference).expect("fault-free answer");
            for cached in [false, true] {
                let fresh = engine(cached);
                pager.arm(0);
                query(&fresh).expect("fault-free answer");
                let total = pager.reads();
                assert!(total > 0, "question {qi} {name}: no physical read to fail");
                for k in 1..=total {
                    let engine = engine(cached);
                    pager.arm(k);
                    match query(&engine) {
                        Err(PersistError::Pager(_)) => {}
                        other => panic!(
                            "question {qi} {name} (cached {cached}): physical read {k} of \
                             {total} failed, but the query returned {other:?}"
                        ),
                    }
                    pager.arm(0);
                    assert_eq!(
                        query(&engine).expect("answer after the fault"),
                        want,
                        "question {qi} {name} (cached {cached}): answer after failing read \
                         {k} differs"
                    );
                }
            }
        }
    }
    pager.arm(0);
    load(pager.as_ref(), meta).expect("fault-free load");
    let total = pager.reads();
    for k in 1..=total {
        pager.arm(k);
        assert!(
            matches!(load(pager.as_ref(), meta), Err(PersistError::Pager(_))),
            "load: physical read {k} of {total} failed, but the load did not report it"
        );
    }
}

/// A 200-point CarDB tree saved to a fresh pager, with its meta page.
fn saved() -> (Arc<MemPager>, PageId, Vec<Point>) {
    let points = cardb(200);
    let tree = bulk_load(&points, RTreeConfig::paper_default(2));
    assert!(tree.height() >= 2, "the root must have child nodes");
    let pager = Arc::new(MemPager::paper_default());
    let meta = save(&tree, pager.as_ref()).expect("save");
    (pager, meta, points)
}

/// Overwrites `bytes` at `offset` of page `page`.
fn patch(pager: &MemPager, page: PageId, offset: usize, bytes: &[u8]) {
    let mut p = pager.read_page(page).expect("read");
    p.bytes_mut()[offset..offset + bytes.len()].copy_from_slice(bytes);
    pager.write_page(page, &p).expect("write");
}

fn u64_at(pager: &MemPager, page: PageId, offset: usize) -> u64 {
    let p = pager.read_page(page).expect("read");
    u64::from_le_bytes(p.bytes()[offset..offset + 8].try_into().expect("8 bytes"))
}

/// The root's page (a field of the meta page).
fn root_page(pager: &MemPager, meta: PageId) -> PageId {
    PageId(u64_at(pager, meta, 24))
}

/// Byte offsets of the root's child ids, with the children's pages.
fn root_children(pager: &MemPager, meta: PageId) -> Vec<(usize, PageId)> {
    let root = root_page(pager, meta);
    let page = pager.read_page(root).expect("read");
    let count = u32::from_le_bytes(page.bytes()[4..8].try_into().expect("4 bytes")) as usize;
    let entry = 8 + 16 * 2;
    (0..count)
        .map(|i| (8 + i * entry, PageId(u64_at(pager, root, 8 + i * entry))))
        .collect()
}

/// Runs `f` on a worker thread, failing the test if it does not finish
/// within 20 seconds (a walk that loops on a corrupt page).
fn bounded<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(Duration::from_secs(20))
        .unwrap_or_else(|e| panic!("{what}: no result within 20 s, or the call panicked ({e})"));
    worker.join().expect("worker thread");
    out
}

fn assert_format<T: Debug>(what: &str, r: Result<T, PersistError>) {
    assert!(
        matches!(r, Err(PersistError::Format(_))),
        "{what}: expected a format error, got {r:?}"
    );
}

/// The shared walk (a window over every point) and `persist::load` both
/// report the corruption.
fn assert_walk_and_load_fail(pager: &Arc<MemPager>, meta: PageId) {
    let tree = PagedRTree::open(BufferPool::new(Arc::clone(pager), 8), meta).expect("open");
    let (c, q) = (Point::xy(50_000.0, 650.0), Point::xy(1e9, 1e9));
    assert_format(
        "window walk",
        bounded("window walk", move || {
            paged_window_query(&tree, &c, &q, None)
        }),
    );
    let pager = Arc::clone(pager);
    assert_format(
        "load",
        bounded("load", move || load(pager.as_ref(), meta).map(|t| t.len())),
    );
}

/// Every query of an engine over the corrupted pages reports the
/// corruption (`clean` was answered before the pages were corrupted).
fn assert_every_query_fails(
    pager: &Arc<MemPager>,
    meta: PageId,
    points: &[Point],
    clean: &Arc<Question>,
) {
    let engine = Arc::new(engine_over(pager, meta, points));
    for (name, query) in queries::<MemPager>(clean) {
        let engine = Arc::clone(&engine);
        assert_format(name, bounded(name, move || query(&engine)));
    }
}

/// A question with its reverse skyline and safe region, answered before
/// any page is corrupted.
fn clean_question(pager: &Arc<MemPager>, meta: PageId, points: &[Point]) -> Arc<Question> {
    let reference = engine_over(pager, meta, points);
    let qu = questions(points, &[(1, 100)], &reference).swap_remove(0);
    assert!(!qu.rsl.is_empty(), "the safe region must need a node read");
    qu
}

#[test]
fn entry_count_past_the_page_is_a_format_error() {
    let (pager, meta, _) = saved();
    let root = root_page(&pager, meta);
    patch(&pager, root, 4, &u32::MAX.to_le_bytes());
    assert_walk_and_load_fail(&pager, meta);
    let tree = PagedRTree::open(BufferPool::new(Arc::clone(&pager), 8), meta).expect("open");
    let points = cardb(200);
    assert_format(
        "from_tree",
        PagedEngine::from_tree(tree, CostModel::paper_default(&points)).map(|_| ()),
    );

    let (pager, meta, points) = saved();
    let clean = clean_question(&pager, meta, &points);
    for (_, child) in root_children(&pager, meta) {
        patch(&pager, child, 4, &u32::MAX.to_le_bytes());
    }
    assert_every_query_fails(&pager, meta, &points, &clean);
}

#[test]
fn dimension_past_the_page_is_a_format_error() {
    let (pager, meta, _) = saved();
    patch(&pager, meta, 8, &u32::MAX.to_le_bytes());
    let open = PagedRTree::open(BufferPool::new(Arc::clone(&pager), 8), meta);
    assert_format("open", open.map(|t| t.len()));
    let loader = Arc::clone(&pager);
    assert_format(
        "load",
        bounded("load", move || load(loader.as_ref(), meta).map(|t| t.len())),
    );
}

#[test]
fn child_pointing_at_its_parent_is_a_format_error() {
    let (pager, meta, _) = saved();
    let root = root_page(&pager, meta);
    let (first, _) = root_children(&pager, meta)[0];
    patch(&pager, root, first, &root.0.to_le_bytes());
    assert_walk_and_load_fail(&pager, meta);

    let (pager, meta, points) = saved();
    let clean = clean_question(&pager, meta, &points);
    let root = root_page(&pager, meta);
    for (at, _) in root_children(&pager, meta) {
        patch(&pager, root, at, &root.0.to_le_bytes());
    }
    assert_every_query_fails(&pager, meta, &points, &clean);
}

#[test]
fn non_finite_or_inverted_box_is_a_format_error() {
    let (pager, meta, _) = saved();
    let root = root_page(&pager, meta);
    let (first, _) = root_children(&pager, meta)[0];
    patch(&pager, root, first + 8, &f64::NAN.to_le_bytes());
    assert_walk_and_load_fail(&pager, meta);

    let (pager, meta, _) = saved();
    let root = root_page(&pager, meta);
    let (first, _) = root_children(&pager, meta)[0];
    let hi = f64::from_bits(u64_at(&pager, root, first + 8 + 16));
    patch(&pager, root, first + 8, &(hi + 1.0).to_le_bytes());
    assert_walk_and_load_fail(&pager, meta);
}
