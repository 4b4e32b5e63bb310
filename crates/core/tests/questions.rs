//! The one front door: `answer` on both engines.
//!
//! Every question variant is answered exactly as the direct call it
//! stands for, on the in-memory engine (cached and uncached) and on the
//! paged one; a customer named by point gets the same answer from both
//! engines over the same tree; and every false premise comes back as
//! its `QuestionError`, never a panic.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Debug;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wnrs_core::engine::DEFAULT_EPS;
use wnrs_core::{
    explain, modify_both, modify_query_point, modify_why_not_point, Customer, PagedEngine,
    Question, QuestionError, Reply, WhyNotEngine,
};
use wnrs_geometry::{CostModel, Point};
use wnrs_rtree::{into_ok, ItemId, PagedRTree};
use wnrs_storage::{BufferPool, IoStats, MemPager, Page, PageId, Pager, PagerError};

/// A pager whose reads fail once it is broken.
struct BreakablePager {
    inner: MemPager,
    broken: AtomicBool,
}

impl Pager for BreakablePager {
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
        if self.broken.load(Ordering::SeqCst) {
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

fn points() -> Vec<Point> {
    wnrs_data::uniform(&mut StdRng::seed_from_u64(20_130_408), 300, 2)
}

/// The paged engine over the in-memory engine's own tree, saved to
/// pages behind a 16-page pool.
fn paged_over(mem: &WhyNotEngine) -> (PagedEngine<BreakablePager>, Arc<BreakablePager>) {
    let pager = Arc::new(BreakablePager {
        inner: MemPager::paper_default(),
        broken: AtomicBool::new(false),
    });
    let meta = wnrs_rtree::persist::save(mem.tree(), pager.as_ref()).expect("save");
    let tree = PagedRTree::open(BufferPool::new(Arc::clone(&pager), 16), meta).expect("open");
    let cost = CostModel::paper_default(mem.points());
    (PagedEngine::from_tree(tree, cost).expect("engine"), pager)
}

/// Query products: three dataset points and one outside the data.
fn queries(pts: &[Point]) -> Vec<Point> {
    vec![
        pts[17].clone(),
        pts[91].clone(),
        pts[233].clone(),
        Point::xy(1.5, -0.5),
    ]
}

fn same<T: Debug, U: Debug>(got: T, want: U, what: &str) {
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
}

#[test]
fn memory_answers_equal_the_direct_calls() {
    let pts = points();
    for cached in [false, true] {
        let e = WhyNotEngine::try_new(pts.clone()).expect("engine");
        let e = if cached { e.with_cache() } else { e };
        let (tree, cost) = (e.tree(), e.cost_model());
        for q in queries(&pts) {
            let id = ItemId(57);
            let c = e.point(id).clone();
            let ext = Point::xy(0.3, 0.4);
            let rsl = e.reverse_skyline(&q);
            let sr = e.safe_region_for(&q, &rsl);
            let approx = e.approx_safe_region_lazy(&q, &rsl, 4);
            same(
                &approx,
                e.approx_safe_region_for(&q, &rsl, &e.build_approx_store(4)),
                "lazy and eager approximate regions",
            );
            let members = rsl.len();
            let universe = e.universe_for(&q);
            let cases: Vec<(Question, Reply)> = vec![
                (Question::Rsl { q: q.clone() }, Reply::Rsl(rsl.clone())),
                (
                    Question::Explain {
                        customer: Customer::Id(id),
                        q: q.clone(),
                    },
                    Reply::Explain(e.explain(id, &q)),
                ),
                (
                    Question::Explain {
                        customer: Customer::External(ext.clone()),
                        q: q.clone(),
                    },
                    Reply::Explain(into_ok(explain(tree, &ext, &q, None))),
                ),
                (
                    Question::Explain {
                        customer: Customer::PointExcluding(c.clone(), id),
                        q: q.clone(),
                    },
                    Reply::Explain(into_ok(explain(tree, &c, &q, Some(id)))),
                ),
                (
                    Question::Mwp {
                        customer: Customer::Id(id),
                        q: q.clone(),
                    },
                    Reply::Mwp(e.mwp(id, &q)),
                ),
                (
                    Question::Mwp {
                        customer: Customer::External(ext.clone()),
                        q: q.clone(),
                    },
                    Reply::Mwp(into_ok(modify_why_not_point(
                        tree,
                        &ext,
                        &q,
                        None,
                        cost,
                        DEFAULT_EPS,
                    ))),
                ),
                (
                    Question::Mwp {
                        customer: Customer::PointExcluding(c.clone(), id),
                        q: q.clone(),
                    },
                    Reply::Mwp(into_ok(modify_why_not_point(
                        tree,
                        &c,
                        &q,
                        Some(id),
                        cost,
                        DEFAULT_EPS,
                    ))),
                ),
                (
                    Question::Mqp {
                        customer: Customer::Id(id),
                        q: q.clone(),
                    },
                    Reply::Mqp(e.mqp(id, &q)),
                ),
                (
                    Question::Mqp {
                        customer: Customer::External(ext.clone()),
                        q: q.clone(),
                    },
                    Reply::Mqp(into_ok(modify_query_point(
                        tree,
                        &ext,
                        &q,
                        None,
                        cost,
                        DEFAULT_EPS,
                    ))),
                ),
                (
                    Question::Mqp {
                        customer: Customer::PointExcluding(c.clone(), id),
                        q: q.clone(),
                    },
                    Reply::Mqp(into_ok(modify_query_point(
                        tree,
                        &c,
                        &q,
                        Some(id),
                        cost,
                        DEFAULT_EPS,
                    ))),
                ),
                (
                    Question::SafeRegion {
                        q: q.clone(),
                        approx_k: None,
                    },
                    Reply::SafeRegion {
                        members,
                        region: sr.clone(),
                    },
                ),
                (
                    Question::SafeRegion {
                        q: q.clone(),
                        approx_k: Some(4),
                    },
                    Reply::SafeRegion {
                        members,
                        region: approx.clone(),
                    },
                ),
                (
                    Question::Mwq {
                        customer: Customer::Id(id),
                        q: q.clone(),
                        approx_k: None,
                    },
                    Reply::Mwq {
                        members,
                        answer: e.mwq(id, &q, &sr),
                    },
                ),
                (
                    Question::Mwq {
                        customer: Customer::Id(id),
                        q: q.clone(),
                        approx_k: Some(4),
                    },
                    Reply::Mwq {
                        members,
                        answer: e.mwq(id, &q, &approx),
                    },
                ),
                (
                    Question::Mwq {
                        customer: Customer::External(ext.clone()),
                        q: q.clone(),
                        approx_k: None,
                    },
                    Reply::Mwq {
                        members,
                        answer: into_ok(modify_both(
                            tree,
                            &sr,
                            &ext,
                            &q,
                            None,
                            cost,
                            &universe,
                            DEFAULT_EPS,
                        )),
                    },
                ),
                (
                    Question::Mwq {
                        customer: Customer::PointExcluding(c.clone(), id),
                        q: q.clone(),
                        approx_k: Some(4),
                    },
                    Reply::Mwq {
                        members,
                        answer: into_ok(modify_both(
                            tree,
                            &approx,
                            &c,
                            &q,
                            Some(id),
                            cost,
                            &universe,
                            DEFAULT_EPS,
                        )),
                    },
                ),
            ];
            for (question, want) in cases {
                let got = e.answer(&question).expect("answered");
                same(got, want, &format!("cached={cached}: {question:?}"));
            }
        }
    }
}

#[test]
fn paged_answers_equal_the_direct_calls() {
    let pts = points();
    let mem = WhyNotEngine::try_new(pts.clone()).expect("engine");
    let (paged, _) = paged_over(&mem);
    for q in queries(&pts) {
        let id = ItemId(57);
        let c = pts[57].clone();
        let rsl = paged.reverse_skyline(&q).expect("rsl");
        let sr = paged.safe_region_for(&q, &rsl).expect("sr");
        let members = rsl.len();
        for (customer, exclude) in [
            (Customer::PointExcluding(c.clone(), id), Some(id)),
            (Customer::External(c.clone()), None),
        ] {
            let cases: Vec<(Question, Reply)> = vec![
                (Question::Rsl { q: q.clone() }, Reply::Rsl(rsl.clone())),
                (
                    Question::Explain {
                        customer: customer.clone(),
                        q: q.clone(),
                    },
                    Reply::Explain(paged.explain(&c, exclude, &q).expect("explain")),
                ),
                (
                    Question::Mwp {
                        customer: customer.clone(),
                        q: q.clone(),
                    },
                    Reply::Mwp(paged.mwp(&c, exclude, &q).expect("mwp")),
                ),
                (
                    Question::Mqp {
                        customer: customer.clone(),
                        q: q.clone(),
                    },
                    Reply::Mqp(paged.mqp(&c, exclude, &q).expect("mqp")),
                ),
                (
                    Question::SafeRegion {
                        q: q.clone(),
                        approx_k: None,
                    },
                    Reply::SafeRegion {
                        members,
                        region: sr.clone(),
                    },
                ),
                (
                    Question::Mwq {
                        customer: customer.clone(),
                        q: q.clone(),
                        approx_k: None,
                    },
                    Reply::Mwq {
                        members,
                        answer: paged.mwq(&c, exclude, &q, &sr).expect("mwq"),
                    },
                ),
            ];
            for (question, want) in cases {
                let got = paged.answer(&question).expect("answered");
                same(got, want, &format!("{question:?}"));
            }
        }
    }
}

#[test]
fn customers_named_by_point_get_one_answer_from_both_engines() {
    let pts = points();
    let plain = WhyNotEngine::try_new(pts.clone()).expect("engine");
    let cached = WhyNotEngine::try_new(pts.clone())
        .expect("engine")
        .with_cache();
    let (paged, _) = paged_over(&plain);
    let paged_cached = paged_over(&plain).0.with_cache();
    let techniques: [fn(Customer, Point) -> Question; 6] = [
        |customer, q| Question::Explain { customer, q },
        |customer, q| Question::Mwp { customer, q },
        |customer, q| Question::Mqp { customer, q },
        |customer, q| Question::Mwq {
            customer,
            q,
            approx_k: None,
        },
        |_, q| Question::SafeRegion {
            q,
            approx_k: Some(4),
        },
        |customer, q| Question::Mwq {
            customer,
            q,
            approx_k: Some(4),
        },
    ];
    for q in queries(&pts) {
        for i in [3u32, 57, 199] {
            let c = pts[i as usize].clone();
            for customer in [
                Customer::PointExcluding(c.clone(), ItemId(i)),
                Customer::External(c.clone()),
                Customer::External(Point::xy(0.25, 0.75)),
            ] {
                for ask in techniques {
                    let question = ask(customer.clone(), q.clone());
                    let want = paged.answer(&question).expect("paged");
                    // The cached paged engine answers the same twice; a
                    // question over the reverse skyline hits the second
                    // time.
                    let hits = || paged_cached.cache_stats().map_or(0, |s| s.hits);
                    same(
                        paged_cached.answer(&question).expect("cached"),
                        &want,
                        "cached",
                    );
                    let before = hits();
                    same(
                        paged_cached.answer(&question).expect("cached"),
                        &want,
                        "repeat",
                    );
                    if question.approx_k().is_some() || matches!(question, Question::Mwq { .. }) {
                        assert!(hits() > before, "{question:?}: no cache hit when repeated");
                    }
                    for e in [&plain, &cached] {
                        same(
                            e.answer(&question).expect("memory"),
                            &want,
                            "memory vs paged",
                        );
                    }
                    // Tuple `i`'s point with its own tuple excluded is
                    // customer `i` itself.
                    if let Customer::PointExcluding(_, id) = customer {
                        let by_id = ask(Customer::Id(id), q.clone());
                        for e in [&plain, &cached] {
                            same(e.answer(&by_id).expect("by id"), &want, "id vs point");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn every_false_premise_is_a_typed_error() {
    let pts = points();
    let mem = WhyNotEngine::try_new(pts.clone()).expect("engine");
    let (paged, pager) = paged_over(&mem);
    let q = pts[17].clone();
    let q3 = Point::new(vec![0.5, 0.5, 0.5]);
    let c = pts[57].clone();
    let dim_query = Question::Rsl { q: q3.clone() };
    let dim_customer = Question::Mwp {
        customer: Customer::External(q3),
        q: q.clone(),
    };
    let zero_k = Question::SafeRegion {
        q: q.clone(),
        approx_k: Some(0),
    };
    for (name, answer) in [
        ("memory", mem.answer(&dim_query)),
        ("paged", paged.answer(&dim_query)),
    ] {
        assert!(
            matches!(
                answer,
                Err(QuestionError::DimMismatch {
                    role: "query",
                    got: 3,
                    dim: 2
                })
            ),
            "{name}: {answer:?}"
        );
    }
    for answer in [mem.answer(&dim_customer), paged.answer(&dim_customer)] {
        let role = "customer";
        assert!(
            matches!(answer, Err(QuestionError::DimMismatch { role: r, .. }) if r == role),
            "{answer:?}"
        );
    }
    for answer in [mem.answer(&zero_k), paged.answer(&zero_k)] {
        assert!(
            matches!(answer, Err(QuestionError::ZeroSampleSize)),
            "{answer:?}"
        );
    }
    let unknown = Question::Explain {
        customer: Customer::Id(ItemId(pts.len() as u32)),
        q: q.clone(),
    };
    assert!(matches!(
        mem.answer(&unknown),
        Err(QuestionError::UnknownCustomer {
            id: ItemId(300),
            len: 300
        })
    ));
    // The paged engine holds no arena to resolve ids against.
    let by_id = Question::Mwq {
        customer: Customer::Id(ItemId(57)),
        q: q.clone(),
        approx_k: None,
    };
    let answer = paged.answer(&by_id);
    assert!(
        matches!(answer, Err(QuestionError::Unsupported(_))),
        "{answer:?}"
    );
    pager.broken.store(true, Ordering::SeqCst);
    let answer = paged.answer(&Question::Mwp {
        customer: Customer::PointExcluding(c, ItemId(57)),
        q,
    });
    assert!(
        matches!(answer, Err(QuestionError::PageRead(_))),
        "{answer:?}"
    );
}
