//! One why-not question, asked two ways.
//!
//! [`ask_memory`] and [`ask_paged`] ask it through the engines' own
//! methods; that is what timed runs measure. [`ask_traced`] asks it
//! again by calling the same public functions the uncached engines
//! call, in the same order, each inside a span — so a traced run can
//! say where the question's time goes. Both must give the same answer
//! bit for bit ([`Answers::digest`]); otherwise the trace describes a
//! different program.

use crate::inputs::Question;
use crate::trace::Tracer;
use std::cell::RefCell;
use std::hash::Hasher;
use wnrs_core::answer::Candidate;
use wnrs_core::engine::DEFAULT_EPS;
use wnrs_core::{
    anti_ddr_from_dsl, modify_both_parts, modify_query_point_core, modify_why_not_point_core,
    Explanation, MqpAnswer, MwpAnswer, MwqAnswer, MwqCase, PagedEngine, WhyNotEngine,
};
use wnrs_geometry::parallel::intersect_all;
use wnrs_geometry::{CostModel, Parallelism, Point, Rect, Region};
use wnrs_reverse_skyline::{
    bbrs_reverse_skyline, is_reverse_skyline_member, paged_bbrs_reverse_skyline,
    paged_is_reverse_skyline_member, paged_window_query, window_query, PagedMemberScratch,
};
use wnrs_rtree::ItemId;
use wnrs_skyline::bbs_dynamic_skyline_excluding;
use wnrs_storage::Pager;

/// Everything one question returns.
pub struct Answers {
    pub rsl: Vec<(ItemId, Point)>,
    pub sr: Region,
    pub explain: Explanation,
    pub mwp: MwpAnswer,
    pub mqp: MqpAnswer,
    pub mwq: MwqAnswer,
}

/// FNV-1a over the exact bits of an answer.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl Fnv {
    fn point(&mut self, p: &Point) {
        self.write_usize(p.dim());
        for x in p.coords() {
            self.write_u64(x.to_bits());
        }
    }
    fn items(&mut self, items: &[(ItemId, Point)]) {
        self.write_usize(items.len());
        for (id, p) in items {
            self.write_u32(id.0);
            self.point(p);
        }
    }
    fn candidate(&mut self, c: &Candidate) {
        self.point(&c.point);
        self.write_u64(c.cost.to_bits());
        self.write_u8(u8::from(c.verified));
    }
    fn candidates(&mut self, cs: &[Candidate]) {
        self.write_usize(cs.len());
        for c in cs {
            self.candidate(c);
        }
    }
}

impl Answers {
    /// A digest of every bit of every answer, in order.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.items(&self.rsl);
        h.write_usize(self.sr.len());
        for b in self.sr.boxes() {
            h.point(b.lo());
            h.point(b.hi());
        }
        h.items(&self.explain.culprits);
        h.candidates(&self.mwp.candidates);
        h.candidates(&self.mqp.candidates);
        h.write_u8(u8::from(self.mwq.case == MwqCase::Disjoint));
        h.point(&self.mwq.q_star);
        match &self.mwq.c_star {
            Some(c) => {
                h.write_u8(1);
                h.candidate(c);
            }
            None => h.write_u8(0),
        }
        h.write_u64(self.mwq.cost.to_bits());
        h.finish()
    }
}

/// The question through the in-memory engine's methods.
pub fn ask_memory(e: &WhyNotEngine, qu: &Question) -> Answers {
    let rsl = e.reverse_skyline(&qu.q);
    let sr = e.safe_region_for(&qu.q, &rsl);
    let explain = e.explain(qu.id, &qu.q);
    let mwp = e.mwp(qu.id, &qu.q);
    let mqp = e.mqp(qu.id, &qu.q);
    let mwq = e.mwq(qu.id, &qu.q, &sr);
    Answers {
        rsl,
        sr,
        explain,
        mwp,
        mqp,
        mwq,
    }
}

/// The question through the paged engine's methods.
pub fn ask_paged<P: Pager>(e: &PagedEngine<P>, qu: &Question) -> Result<Answers, String> {
    let io = |e: wnrs_rtree::persist::PersistError| e.to_string();
    let ex = Some(qu.id);
    let rsl = e.reverse_skyline(&qu.q).map_err(io)?;
    let sr = e.safe_region_for(&qu.q, &rsl).map_err(io)?;
    let explain = e.explain(&qu.c, ex, &qu.q).map_err(io)?;
    let mwp = e.mwp(&qu.c, ex, &qu.q).map_err(io)?;
    let mqp = e.mqp(&qu.c, ex, &qu.q).map_err(io)?;
    let mwq = e.mwq(&qu.c, ex, &qu.q, &sr).map_err(io)?;
    Ok(Answers {
        rsl,
        sr,
        explain,
        mwp,
        mqp,
        mwq,
    })
}

/// The index calls a question is made of, over either node source.
pub trait Backend {
    fn rsl(&self, q: &Point) -> Result<Vec<(ItemId, Point)>, String>;
    fn dsl(&self, c: &Point, exclude: Option<ItemId>) -> Result<Vec<(ItemId, Point)>, String>;
    fn window(
        &self,
        c: &Point,
        q: &Point,
        exclude: Option<ItemId>,
    ) -> Result<Vec<(ItemId, Point)>, String>;
    fn member(&self, c: &Point, q: &Point, exclude: Option<ItemId>) -> Result<bool, String>;
    fn universe_for(&self, q: &Point) -> Rect;
    fn cost(&self) -> &CostModel;
}

/// The calls [`WhyNotEngine`] makes without its cache.
pub struct MemoryBackend<'a>(pub &'a WhyNotEngine);

impl Backend for MemoryBackend<'_> {
    fn rsl(&self, q: &Point) -> Result<Vec<(ItemId, Point)>, String> {
        Ok(bbrs_reverse_skyline(self.0.tree(), q))
    }
    fn dsl(&self, c: &Point, exclude: Option<ItemId>) -> Result<Vec<(ItemId, Point)>, String> {
        Ok(bbs_dynamic_skyline_excluding(self.0.tree(), c, exclude))
    }
    fn window(
        &self,
        c: &Point,
        q: &Point,
        exclude: Option<ItemId>,
    ) -> Result<Vec<(ItemId, Point)>, String> {
        Ok(window_query(self.0.tree(), c, q, exclude))
    }
    fn member(&self, c: &Point, q: &Point, exclude: Option<ItemId>) -> Result<bool, String> {
        Ok(is_reverse_skyline_member(self.0.tree(), c, q, exclude))
    }
    fn universe_for(&self, q: &Point) -> Rect {
        self.0.universe_for(q)
    }
    fn cost(&self) -> &CostModel {
        self.0.cost_model()
    }
}

/// The calls [`PagedEngine`] makes.
pub struct PagedBackend<'a, P: Pager> {
    pub engine: &'a PagedEngine<P>,
    pub scratch: RefCell<PagedMemberScratch>,
}

impl<P: Pager> Backend for PagedBackend<'_, P> {
    fn rsl(&self, q: &Point) -> Result<Vec<(ItemId, Point)>, String> {
        paged_bbrs_reverse_skyline(self.engine.tree(), q).map_err(|e| e.to_string())
    }
    fn dsl(&self, c: &Point, exclude: Option<ItemId>) -> Result<Vec<(ItemId, Point)>, String> {
        self.engine
            .dynamic_skyline(c, exclude)
            .map_err(|e| e.to_string())
    }
    fn window(
        &self,
        c: &Point,
        q: &Point,
        exclude: Option<ItemId>,
    ) -> Result<Vec<(ItemId, Point)>, String> {
        paged_window_query(self.engine.tree(), c, q, exclude).map_err(|e| e.to_string())
    }
    fn member(&self, c: &Point, q: &Point, exclude: Option<ItemId>) -> Result<bool, String> {
        let mut scratch = self.scratch.borrow_mut();
        paged_is_reverse_skyline_member(self.engine.tree(), c, q, exclude, &mut scratch)
            .map_err(|e| e.to_string())
    }
    fn universe_for(&self, q: &Point) -> Rect {
        self.engine.universe_for(q)
    }
    fn cost(&self) -> &CostModel {
        self.engine.cost_model()
    }
}

/// One membership probe, timed and counted; a failure parks in `err`
/// and answers `false` so the candidate search can finish.
fn probe<B: Backend>(
    b: &B,
    tr: &Tracer,
    c: &Point,
    at: &Point,
    exclude: Option<ItemId>,
    err: &RefCell<Option<String>>,
) -> bool {
    if err.borrow().is_some() {
        return false;
    }
    let _span = tr.span("reverse_skyline.member");
    match b.member(c, at, exclude) {
        Ok(hit) => {
            tr.add("reverse_skyline.member_probes", 1);
            tr.add("reverse_skyline.member_hits", u64::from(hit));
            hit
        }
        Err(e) => {
            *err.borrow_mut() = Some(e);
            false
        }
    }
}

/// Algorithm 1 as `modify_why_not_point` runs it: the culprit window,
/// then the index-free core with a membership oracle.
fn mwp_traced<B: Backend>(
    b: &B,
    tr: &Tracer,
    c_t: &Point,
    at: &Point,
    exclude: Option<ItemId>,
    err: &RefCell<Option<String>>,
) -> Result<MwpAnswer, String> {
    let lambda = {
        let _span = tr.span("reverse_skyline.window");
        b.window(c_t, at, exclude)?
    };
    Ok(modify_why_not_point_core(
        c_t,
        at,
        &lambda,
        b.cost(),
        DEFAULT_EPS,
        &mut |c, p| probe(b, tr, c, p, exclude, err),
    ))
}

/// The question as the uncached engines compute it, one span per call.
pub fn ask_traced<B: Backend>(b: &B, tr: &Tracer, qu: &Question) -> Result<Answers, String> {
    let (q, c_t, ex) = (&qu.q, &qu.c, Some(qu.id));
    let err: RefCell<Option<String>> = RefCell::new(None);
    let _question = tr.span("question");

    let rsl = {
        let _span = tr.span("core.rsl");
        b.rsl(q)?
    };
    tr.add("reverse_skyline.rsl_members", rsl.len() as u64);

    let sr = {
        let _span = tr.span("core.sr");
        let universe = b.universe_for(q);
        let mut regions = Vec::with_capacity(rsl.len());
        for (id, c) in &rsl {
            let dsl = {
                let _span = tr.span("skyline.dsl");
                b.dsl(c, Some(*id))?
            };
            tr.add("skyline.dsl_calls", 1);
            tr.add("skyline.dsl_points", dsl.len() as u64);
            let region = {
                let _span = tr.span("core.anti_ddr");
                anti_ddr_from_dsl(c, &dsl, &universe, 0.0)
            };
            tr.add("geometry.anti_ddr_boxes", region.len() as u64);
            regions.push(region);
        }
        let _span = tr.span("geometry.intersect");
        intersect_all(regions, &Parallelism::sequential())
            .unwrap_or_else(|| Region::from_rect(universe))
    };
    tr.add("geometry.sr_boxes", sr.len() as u64);

    let explain = {
        let _span = tr.span("core.explain");
        let _window = tr.span("reverse_skyline.window");
        Explanation {
            culprits: b.window(c_t, q, ex)?,
        }
    };
    tr.add("reverse_skyline.culprits", explain.culprits.len() as u64);

    let mwp = {
        let _span = tr.span("core.mwp");
        mwp_traced(b, tr, c_t, q, ex, &err)?
    };

    let mqp = {
        let _span = tr.span("core.mqp");
        let lambda = {
            let _span = tr.span("reverse_skyline.window");
            b.window(c_t, q, ex)?
        };
        modify_query_point_core(c_t, q, &lambda, b.cost(), DEFAULT_EPS, &mut |c, p| {
            probe(b, tr, c, p, ex, &err)
        })
    };

    let mwq = {
        let _span = tr.span("core.mwq");
        let universe = b.universe_for(q);
        let dsl = {
            let _span = tr.span("skyline.dsl");
            b.dsl(c_t, ex)?
        };
        tr.add("skyline.dsl_calls", 1);
        tr.add("skyline.dsl_points", dsl.len() as u64);
        let addr = {
            let _span = tr.span("core.anti_ddr");
            anti_ddr_from_dsl(c_t, &dsl, &universe, DEFAULT_EPS)
        };
        tr.add("geometry.anti_ddr_boxes", addr.len() as u64);
        modify_both_parts(&sr, c_t, q, b.cost(), &addr, DEFAULT_EPS, |at| {
            let _span = tr.span("core.mwq_oracle");
            tr.add("core.mwq_corner_calls", 1);
            // `modify_both_parts` takes a plain `Fn` oracle: a failed
            // page read parks in `err` and the corner loses, as in
            // `PagedEngine::mwq`.
            match mwp_traced(b, tr, c_t, at, ex, &err) {
                Ok(a) => a,
                Err(e) => {
                    err.borrow_mut().get_or_insert(e);
                    MwpAnswer {
                        candidates: vec![Candidate {
                            point: at.clone(),
                            cost: f64::INFINITY,
                            verified: false,
                        }],
                    }
                }
            }
        })
    };
    tr.add("core.mwq_c2", u64::from(mwq.case == MwqCase::Disjoint));

    if let Some(e) = err.into_inner() {
        return Err(e);
    }
    Ok(Answers {
        rsl,
        sr,
        explain,
        mwp,
        mqp,
        mwq,
    })
}
