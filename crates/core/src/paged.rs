//! The page-resident engine: the full why-not pipeline over a
//! [`PagedRTree`], whose nodes live in a bounded
//! [`wnrs_storage::BufferPool`].
//!
//! The in-memory engine assumes the dataset fits in memory twice over
//! (an owned point arena plus the in-memory tree). At million-point
//! scale that assumption breaks, so [`PagedEngine`] is the same
//! [`WhyNotEngine`] over the page file as its node source: every
//! question — reverse skyline, explanation, MWP, MQP, exact and
//! approximate safe region, MWQ — runs the engine's one body per
//! question, with its cache and parallelism, and a page-read failure
//! surfaces as the question's error. Peak memory is the pool budget
//! plus per-query scratch (and the cache, when enabled), independent of
//! `n`. Answers are **bit-identical** to the in-memory engine over the
//! same tree structure (which both `wnrs_rtree::persist::save` and the
//! streaming STR loader [`wnrs_rtree::bulk_load_stream`] produce).
//!
//! What stays source-specific is this module: [`PagedEngine::from_tree`]
//! recovers the universe from the root page, and, with no point arena
//! to index, the methods here take the why-not customer's point (plus
//! its item id for the monochromatic own-tuple exclusion). Logical page
//! traffic is observable through `tree().pool().stats()` and, with the
//! `obs` feature, the `pages_read_logical` counter.

use crate::engine::{Who, WhyNotEngine};
use crate::explain::Explanation;
use crate::mqp::MqpAnswer;
use crate::mwp::MwpAnswer;
use crate::mwq::MwqAnswer;
use std::sync::Arc;
use wnrs_geometry::{CostModel, Point, Rect, Region};
use wnrs_rtree::paged::NodeBuf;
use wnrs_rtree::persist::PersistError;
use wnrs_rtree::{ItemId, NodeSource, NodeView, PagedRTree};
use wnrs_storage::Pager;

/// A why-not reverse-skyline engine over a page-resident tree.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use wnrs_core::paged::PagedEngine;
/// use wnrs_geometry::{CostModel, Point};
/// use wnrs_rtree::bulk::bulk_load;
/// use wnrs_rtree::{ItemId, PagedRTree, RTreeConfig};
/// use wnrs_storage::{BufferPool, MemPager, PAPER_PAGE_SIZE};
///
/// let pts = vec![
///     Point::xy(5.0, 30.0), Point::xy(7.5, 42.0), Point::xy(2.5, 70.0),
///     Point::xy(7.5, 90.0), Point::xy(24.0, 20.0), Point::xy(20.0, 50.0),
///     Point::xy(26.0, 70.0), Point::xy(16.0, 80.0),
/// ];
/// let tree = bulk_load(&pts, RTreeConfig::with_max_entries(4));
/// let pager = Arc::new(MemPager::new(PAPER_PAGE_SIZE));
/// let meta = wnrs_rtree::persist::save(&tree, pager.as_ref()).unwrap();
/// let paged = PagedRTree::open(BufferPool::new(pager, 8), meta).unwrap();
/// let engine = PagedEngine::from_tree(paged, CostModel::paper_default(&pts)).unwrap();
/// let q = Point::xy(8.5, 55.0);
/// assert_eq!(engine.reverse_skyline(&q).unwrap().len(), 5);
/// let mwp = engine.mwp(&pts[0], Some(ItemId(0)), &q).unwrap();
/// assert!(mwp.best_cost() > 0.0);
/// ```
pub type PagedEngine<P> = WhyNotEngine<PagedRTree<P>>;

impl<P: Pager> WhyNotEngine<PagedRTree<P>> {
    /// Wraps an open page-resident tree. The universe is recovered from
    /// the root node's entry rectangles (R\*-tree MBRs are tight, so
    /// this equals the bounding box of the indexed points without
    /// touching any leaf page).
    ///
    /// # Errors
    ///
    /// Returns an error when the root page cannot be read or decoded.
    pub fn from_tree(tree: PagedRTree<P>, cost: CostModel) -> Result<Self, PersistError> {
        let dim = tree.dim();
        let universe = match tree.root_node() {
            None => Rect::degenerate(Point::new(vec![0.0; dim])),
            Some((root, level)) => {
                let mut buf = NodeBuf::new();
                let node = tree.read_node(root, level, &mut buf)?;
                if node.get(0).is_none() {
                    return Err(PersistError::Format("empty root node".into()));
                }
                let mut lo = vec![f64::INFINITY; dim];
                let mut hi = vec![f64::NEG_INFINITY; dim];
                for (_, l, h) in node.iter() {
                    for d in 0..dim {
                        lo[d] = lo[d].min(l[d]);
                        hi[d] = hi[d].max(h[d]);
                    }
                }
                Rect::new(Point::new(lo), Point::new(hi))
            }
        };
        Ok(Self::over(tree, Vec::new(), universe, cost))
    }

    /// The reverse skyline of `q` (BBRS), sorted by item id.
    ///
    /// # Errors
    ///
    /// Returns an error when a page read or decode fails.
    pub fn reverse_skyline(&self, q: &Point) -> Result<Vec<(ItemId, Point)>, PersistError> {
        self.rsl(q)
    }

    /// Whether customer `c` (own tuple `exclude`) is in `RSL(q)`.
    ///
    /// # Errors
    ///
    /// Returns an error when a page read or decode fails.
    pub fn is_member(
        &self,
        c: &Point,
        exclude: Option<ItemId>,
        q: &Point,
    ) -> Result<bool, PersistError> {
        self.is_member_of(&Who::point(c, exclude), q)
    }

    /// Aspect 1: why is customer `c` missing from `RSL(q)`?
    ///
    /// # Errors
    ///
    /// Returns an error when a page read or decode fails.
    pub fn explain(
        &self,
        c: &Point,
        exclude: Option<ItemId>,
        q: &Point,
    ) -> Result<Explanation, PersistError> {
        self.explain_of(&Who::point(c, exclude), q)
    }

    /// Algorithm 1 (MWP) for customer `c_t`.
    ///
    /// # Errors
    ///
    /// Returns an error when a page read or decode fails.
    pub fn mwp(
        &self,
        c_t: &Point,
        exclude: Option<ItemId>,
        q: &Point,
    ) -> Result<MwpAnswer, PersistError> {
        self.mwp_of(&Who::point(c_t, exclude), q)
    }

    /// Algorithm 2 (MQP) for customer `c_t`.
    ///
    /// # Errors
    ///
    /// Returns an error when a page read or decode fails.
    pub fn mqp(
        &self,
        c_t: &Point,
        exclude: Option<ItemId>,
        q: &Point,
    ) -> Result<MqpAnswer, PersistError> {
        self.mqp_of(&Who::point(c_t, exclude), q)
    }

    /// The dynamic skyline of customer `c` (own tuple `exclude`), in BBS
    /// discovery order — exactly what
    /// [`wnrs_skyline::bbs_dynamic_skyline_excluding`] returns in
    /// memory.
    ///
    /// # Errors
    ///
    /// Returns an error when a page read or decode fails.
    pub fn dynamic_skyline(
        &self,
        c: &Point,
        exclude: Option<ItemId>,
    ) -> Result<Vec<(ItemId, Point)>, PersistError> {
        let dsl = self.dsl(&Who::point(c, exclude))?;
        Ok(Arc::try_unwrap(dsl).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Algorithm 3: the exact safe region of `q` against a precomputed
    /// reverse skyline, each member's own tuple excluded (the
    /// monochromatic convention). Bit-identical to the in-memory
    /// engine's over the same tree.
    ///
    /// # Errors
    ///
    /// Returns an error when a page read or decode fails.
    pub fn safe_region_for(
        &self,
        q: &Point,
        rsl: &[(ItemId, Point)],
    ) -> Result<Region, PersistError> {
        self.exact_region(q, rsl)
    }

    /// Algorithm 4 (MWQ) for customer `c_t` against a precomputed safe
    /// region.
    ///
    /// # Errors
    ///
    /// Returns an error when a page read or decode fails.
    pub fn mwq(
        &self,
        c_t: &Point,
        exclude: Option<ItemId>,
        q: &Point,
        sr: &Region,
    ) -> Result<MwqAnswer, PersistError> {
        self.mwq_of(&Who::point(c_t, exclude), q, sr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::question::{Customer, Question, Reply};
    use wnrs_rtree::bulk::bulk_load;
    use wnrs_rtree::RTreeConfig;
    use wnrs_storage::{BufferPool, MemPager};

    fn pseudo_points(n: usize, seed: u64, dim: usize) -> Vec<Point> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        (0..n)
            .map(|_| Point::new((0..dim).map(|_| next() * 100.0).collect::<Vec<_>>()))
            .collect()
    }

    fn paged_engine_over(
        pts: &[Point],
        pool_pages: usize,
        streamed: bool,
    ) -> PagedEngine<MemPager> {
        let config = RTreeConfig::paper_default(pts[0].dim());
        let pager = Arc::new(MemPager::paper_default());
        let meta = if streamed {
            let spill = MemPager::paper_default();
            wnrs_rtree::bulk_load_stream(
                pts.iter().cloned(),
                pts[0].dim(),
                config,
                pager.as_ref(),
                &spill,
                256,
            )
            .expect("stream load")
        } else {
            let tree = bulk_load(pts, config);
            wnrs_rtree::persist::save(&tree, pager.as_ref()).expect("save")
        };
        let paged = PagedRTree::open(BufferPool::new(pager, pool_pages), meta).expect("open");
        PagedEngine::from_tree(paged, CostModel::paper_default(pts)).expect("engine")
    }

    #[test]
    fn universe_matches_in_memory_engine() {
        let pts = pseudo_points(300, 11, 3);
        let mem = WhyNotEngine::try_new(pts.clone()).expect("mem engine");
        let paged = paged_engine_over(&pts, 16, false);
        let q = Point::new(vec![50.0, 50.0, 50.0]);
        assert_eq!(
            format!("{:?}", mem.universe_for(&q)),
            format!("{:?}", paged.universe_for(&q))
        );
    }

    #[test]
    fn all_queries_match_in_memory_engine_bit_for_bit() {
        for streamed in [false, true] {
            let pts = pseudo_points(400, 42, 2);
            let mem = WhyNotEngine::try_new(pts.clone()).expect("mem engine");
            let paged = paged_engine_over(&pts, 24, streamed);
            for qi in [0usize, 17, 91, 233] {
                let q = &pts[qi];
                let rsl_mem = mem.reverse_skyline(q);
                let rsl_pg = paged.reverse_skyline(q).expect("rsl");
                assert_eq!(
                    format!("{rsl_mem:?}"),
                    format!("{rsl_pg:?}"),
                    "streamed={streamed} q#{qi}: reverse skylines diverge"
                );
                let sr_mem = mem.safe_region_for(q, &rsl_mem);
                let sr_pg = paged.safe_region_for(q, &rsl_pg).expect("sr");
                assert_eq!(
                    format!("{sr_mem:?}"),
                    format!("{sr_pg:?}"),
                    "streamed={streamed} q#{qi}: safe regions diverge"
                );
                for ci in [3usize, 57, 199] {
                    let id = ItemId(ci as u32);
                    let c = &pts[ci];
                    assert_eq!(
                        mem.is_member(id, q),
                        paged.is_member(c, Some(id), q).expect("member"),
                        "streamed={streamed} q#{qi} c#{ci}: membership diverges"
                    );
                    assert_eq!(
                        format!("{:?}", mem.explain(id, q)),
                        format!("{:?}", paged.explain(c, Some(id), q).expect("explain")),
                        "streamed={streamed} q#{qi} c#{ci}: explanations diverge"
                    );
                    assert_eq!(
                        format!("{:?}", mem.mwp(id, q)),
                        format!("{:?}", paged.mwp(c, Some(id), q).expect("mwp")),
                        "streamed={streamed} q#{qi} c#{ci}: MWP diverges"
                    );
                    assert_eq!(
                        format!("{:?}", mem.mqp(id, q)),
                        format!("{:?}", paged.mqp(c, Some(id), q).expect("mqp")),
                        "streamed={streamed} q#{qi} c#{ci}: MQP diverges"
                    );
                    assert_eq!(
                        format!("{:?}", mem.mwq(id, q, &sr_mem)),
                        format!("{:?}", paged.mwq(c, Some(id), q, &sr_pg).expect("mwq")),
                        "streamed={streamed} q#{qi} c#{ci}: MWQ diverges"
                    );
                }
            }
        }
    }

    #[test]
    fn dynamic_skyline_matches_in_memory() {
        let pts = pseudo_points(500, 7, 3);
        let tree = bulk_load(&pts, RTreeConfig::paper_default(3));
        let paged = paged_engine_over(&pts, 16, true);
        for ci in [0usize, 123, 456] {
            let id = ItemId(ci as u32);
            let mem = wnrs_skyline::bbs_dynamic_skyline_excluding(&tree, &pts[ci], Some(id));
            let pg = paged.dynamic_skyline(&pts[ci], Some(id)).expect("dsl");
            assert_eq!(format!("{mem:?}"), format!("{pg:?}"), "customer {ci}");
        }
    }

    #[test]
    fn mwq_answer_matches_and_pool_stays_bounded() {
        let pts = pseudo_points(800, 5, 2);
        let mem = WhyNotEngine::try_new(pts.clone()).expect("mem engine");
        let paged = paged_engine_over(&pts, 8, true);
        let q = &pts[50];
        let id = ItemId(3);
        let (_, answer) = mem.mwq_full(id, q);
        let members = mem.reverse_skyline(q).len();
        let question = Question::Mwq {
            customer: Customer::PointExcluding(pts[3].clone(), id),
            q: q.clone(),
            approx_k: None,
        };
        let reply = paged.answer(&question).expect("mwq");
        assert_eq!(
            format!("{:?}", Reply::Mwq { members, answer }),
            format!("{reply:?}")
        );
        assert!(paged.tree().pool().resident() <= 8, "pool over budget");
        assert!(
            paged.tree().pool().stats().logical_reads() > 0,
            "paged pipeline did not touch the pool"
        );
    }
}
