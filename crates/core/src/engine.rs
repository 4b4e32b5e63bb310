//! The [`WhyNotEngine`] façade: dataset + index + cost model + all four
//! why-not answering techniques behind one API.
//!
//! Each question is written once, over private building-block lookups
//! (dynamic skyline, anti-DDR, DSL sample, culprit window, and the
//! reverse-skyline, safe-region and MWQ-answer memos). Without a cache a
//! lookup computes its value; with [`WhyNotEngine::with_cache`] the same
//! computation fills a [`EngineCache`] entry on a miss, so cached and
//! uncached answers are bit-identical by construction.

use crate::cache::{
    CacheConfig, CacheStats, DslSampleEntry, EngineCache, SharedCulprits, SharedItems, WriteEvent,
    WriteKind, WriteProbes,
};
use crate::error::EngineError;
use crate::explain::{explain, Explanation};
use crate::mqp::{modify_query_point, modify_query_point_with_lambda, MqpAnswer};
use crate::mwp::{modify_why_not_point, modify_why_not_point_with_lambda, MwpAnswer};
use crate::mwq::{modify_both, modify_both_parts, MwqAnswer};
use crate::question::{Customer, Question, QuestionError, Reply};
use crate::safe_region::{
    anti_ddr_from_dsl, approx_anti_ddr_of_sample, approx_safe_region_with, entry_fingerprint,
    exact_safe_region_by, ApproxDslStore,
};
use std::collections::HashMap;
use std::sync::Arc;
use wnrs_geometry::parallel::{intersect_all, map_slice};
use wnrs_geometry::{
    dominates_dyn, f64_key, release_region, CoordKey, CostModel, Parallelism, Point, Rect, Region,
};
use wnrs_reverse_skyline::{
    bbrs_reverse_skyline, is_reverse_skyline_member, is_reverse_skyline_member_with,
    window_query_with,
};
use wnrs_rtree::bulk::bulk_load;
use wnrs_rtree::{into_ok, ItemId, RTree, RTreeConfig, WindowScratch};
use wnrs_skyline::approx::{approx_dsl_sample_into, ApproxDslScratch};
use wnrs_skyline::bbs_dynamic_skyline_excluding;

/// Default verification nudge (see [`crate::verify`]).
pub const DEFAULT_EPS: f64 = 1e-9;

/// A complete why-not reverse-skyline query engine over a monochromatic
/// dataset (every point serves as product and customer, as in the
/// paper's experiments). Bichromatic use is available through
/// [`WhyNotEngine::answer`], whose questions may name customers outside
/// the dataset.
///
/// # Examples
///
/// ```
/// use wnrs_core::WhyNotEngine;
/// use wnrs_geometry::Point;
/// use wnrs_rtree::ItemId;
///
/// // The paper's running example (Fig. 1).
/// let engine = WhyNotEngine::new(vec![
///     Point::xy(5.0, 30.0),  Point::xy(7.5, 42.0), Point::xy(2.5, 70.0),
///     Point::xy(7.5, 90.0),  Point::xy(24.0, 20.0), Point::xy(20.0, 50.0),
///     Point::xy(26.0, 70.0), Point::xy(16.0, 80.0),
/// ]);
/// let q = Point::xy(8.5, 55.0);
/// let rsl = engine.reverse_skyline(&q);
/// assert_eq!(rsl.len(), 5);
/// // Why is customer pt1 missing? It prefers p2.
/// let why = engine.explain(ItemId(0), &q);
/// assert_eq!(why.culprits.len(), 1);
/// // Fix it by modifying the customer minimally.
/// let mwp = engine.mwp(ItemId(0), &q);
/// assert!(mwp.best_cost() > 0.0);
/// ```
pub struct WhyNotEngine {
    points: Vec<Point>,
    /// Tombstones, parallel to `points`: a deleted customer leaves the
    /// index but its id stays addressable (its point can still pose
    /// why-not questions, like an external customer).
    deleted: Vec<bool>,
    live: usize,
    tree: RTree,
    universe: Rect,
    cost: CostModel,
    eps: f64,
    parallelism: Parallelism,
    cache: Option<EngineCache>,
}

impl WhyNotEngine {
    /// Builds an engine with the paper's defaults: R\*-tree with
    /// 1536-byte page geometry (bulk-loaded), min–max-normalised equal
    /// weights, verification nudge [`DEFAULT_EPS`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::EmptyDataset`] for an empty `points`.
    pub fn try_new(points: Vec<Point>) -> Result<Self, EngineError> {
        let Some(first) = points.first() else {
            return Err(EngineError::EmptyDataset);
        };
        let dim = first.dim();
        Self::try_with_config(points, RTreeConfig::paper_default(dim))
    }

    /// As [`WhyNotEngine::try_new`] with an explicit index configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::EmptyDataset`] for an empty `points`.
    pub fn try_with_config(points: Vec<Point>, config: RTreeConfig) -> Result<Self, EngineError> {
        if points.is_empty() {
            return Err(EngineError::EmptyDataset);
        }
        let tree = bulk_load(&points, config);
        let universe = Rect::bounding(&points);
        let cost = CostModel::paper_default(&points);
        let live = points.len();
        Ok(Self {
            deleted: vec![false; points.len()],
            live,
            points,
            tree,
            universe,
            cost,
            eps: DEFAULT_EPS,
            parallelism: Parallelism::sequential(),
            cache: None,
        })
    }

    /// Builds an engine around an existing tree (e.g. one reloaded from
    /// disk via [`wnrs_rtree::persist::load`]). Item ids must be dense
    /// `0..len`, as produced by the bulk loader.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::EmptyDataset`] for an empty tree and
    /// [`EngineError::SparseItemIds`] when item ids are not `0..len`.
    pub fn try_from_tree(tree: RTree) -> Result<Self, EngineError> {
        let items = tree.items();
        let n = items.len();
        if n == 0 {
            return Err(EngineError::EmptyDataset);
        }
        // Scatter each point into its id-indexed slot in one pass: no
        // sort, and the points move straight out of the item list into
        // their final positions instead of being collected a second
        // time. Out-of-range and duplicate ids leave a `None` hole
        // somewhere in `0..n`, so the density check below catches both.
        let mut slots: Vec<Option<Point>> = vec![None; n];
        for (id, p) in items {
            if let Some(slot) = slots.get_mut(id.0 as usize) {
                if slot.is_none() {
                    *slot = Some(p);
                }
            }
        }
        if let Some(first_gap) = slots.iter().position(Option::is_none) {
            return Err(EngineError::SparseItemIds {
                items: n,
                first_gap,
            });
        }
        let points: Vec<Point> = slots.into_iter().flatten().collect();
        let universe = Rect::bounding(&points);
        let cost = CostModel::paper_default(&points);
        Ok(Self {
            deleted: vec![false; n],
            live: n,
            points,
            tree,
            universe,
            cost,
            eps: DEFAULT_EPS,
            parallelism: Parallelism::sequential(),
            cache: None,
        })
    }

    /// Panicking façade over [`WhyNotEngine::try_new`] for examples,
    /// tests and callers that statically know the dataset is non-empty.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or of mixed dimensionality.
    #[must_use]
    pub fn new(points: Vec<Point>) -> Self {
        // lint:allow(no_panic) reason=documented panicking facade over try_new
        Self::try_new(points).expect("engine needs at least one data point")
    }

    /// Panicking façade over [`WhyNotEngine::try_with_config`].
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    #[must_use]
    pub fn with_config(points: Vec<Point>, config: RTreeConfig) -> Self {
        // lint:allow(no_panic) reason=documented panicking facade over try_with_config
        Self::try_with_config(points, config).expect("engine needs at least one data point")
    }

    /// Panicking façade over [`WhyNotEngine::try_from_tree`].
    ///
    /// # Panics
    ///
    /// Panics if the tree is empty or its item ids are not dense.
    #[must_use]
    pub fn from_tree(tree: RTree) -> Self {
        // lint:allow(no_panic) reason=documented panicking facade over try_from_tree
        Self::try_from_tree(tree).expect("engine needs a non-empty tree with dense item ids")
    }

    /// Replaces the cost model.
    #[must_use]
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        assert_eq!(cost.dim(), self.dim(), "cost model dimensionality mismatch");
        self.cost = cost;
        self
    }

    /// Replaces the concurrency policy used by safe-region construction,
    /// the offline store build and the batch answering helpers. The
    /// default is [`Parallelism::sequential`]; results are identical
    /// whatever the policy (box ordering of regions aside).
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The engine's concurrency policy.
    pub fn parallelism(&self) -> &Parallelism {
        &self.parallelism
    }

    /// Enables the cross-query cache with default capacities (see
    /// [`CacheConfig`]). Cached answers are bit-identical to uncached
    /// ones: every question runs the same building blocks, which the
    /// cache memoises. Dataset mutations ([`WhyNotEngine::insert`] /
    /// [`WhyNotEngine::delete`]) invalidate surgically — only the
    /// entries a write can perturb are evicted.
    #[must_use]
    pub fn with_cache(mut self) -> Self {
        self.cache = Some(EngineCache::new(CacheConfig::default()));
        self
    }

    /// The cross-query cache, when enabled.
    pub fn cache(&self) -> Option<&EngineCache> {
        self.cache.as_ref()
    }

    /// A snapshot of the cache's behaviour counters, when enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(EngineCache::stats)
    }

    // ------------------------------------------------------------------
    // Mutations
    // ------------------------------------------------------------------

    /// Inserts a new data point, growing the universe to cover it, and
    /// returns its id. The cost model stays as fixed at construction
    /// (weights are part of the query semantics, not the data). The
    /// cache, if enabled, is invalidated before the call returns —
    /// surgically (only entries the write can perturb are evicted), or
    /// wholesale when the point grows the universe (memoised anti-DDR
    /// clipping would go stale).
    ///
    /// # Panics
    ///
    /// Panics on dimensionality mismatch.
    pub fn insert(&mut self, p: Point) -> ItemId {
        assert_eq!(p.dim(), self.dim(), "dimensionality mismatch");
        let id = ItemId(self.points.len() as u32);
        let grew = !self.universe.contains_point(&p);
        self.universe = self.universe.union_mbr(&Rect::degenerate(p.clone()));
        self.tree.insert(id, p.clone());
        self.points.push(p);
        self.deleted.push(false);
        self.live += 1;
        self.invalidate_cache_write(WriteKind::Insert, id, grew);
        id
    }

    /// Deletes customer `id` from the index (tombstone: the id stays
    /// addressable, so its point can still pose why-not questions like
    /// an external customer, but it no longer participates in skylines).
    /// The universe never shrinks — anti-DDR clipping stays valid for
    /// every remaining point. Returns `false` when `id` is out of range
    /// or already deleted. The cache, if enabled, is invalidated
    /// surgically.
    ///
    /// When tombstones outnumber live points ([`WhyNotEngine::live_len`]
    /// falls below half of [`WhyNotEngine::len`]), the id space is
    /// compacted: live points are renumbered densely in insertion order
    /// and the index is rebuilt, so delete-heavy streams don't degrade
    /// window-query cost. Compaction always flushes the cache whole.
    pub fn delete(&mut self, id: ItemId) -> bool {
        let i = id.0 as usize;
        if i >= self.points.len() || self.deleted[i] {
            return false;
        }
        if !self.tree.delete(id, &self.points[i]) {
            return false;
        }
        self.deleted[i] = true;
        self.live -= 1;
        if self.live > 0 && self.live * 2 < self.points.len() {
            self.compact();
            if let Some(cache) = &self.cache {
                cache.invalidate();
            }
        } else {
            self.invalidate_cache_write(WriteKind::Delete, id, false);
        }
        true
    }

    /// Rebuilds the dataset densely from the live points (dropping all
    /// tombstones) and bulk-loads a fresh index over them. Ids are
    /// remapped to `0..live` preserving insertion order — deterministic,
    /// so replicated engines (e.g. a cached engine and its uncached
    /// cross-check twin) stay in lockstep. The universe is left as-is:
    /// it never shrinks.
    fn compact(&mut self) {
        let mut live_points = Vec::with_capacity(self.live);
        for (i, p) in self.points.iter().enumerate() {
            if !self.deleted[i] {
                live_points.push(p.clone());
            }
        }
        self.tree = bulk_load(&live_points, self.tree.config().clone());
        self.deleted = vec![false; live_points.len()];
        self.live = live_points.len();
        self.points = live_points;
    }

    /// Routes a dataset write to the cache's invalidation machinery:
    /// a full flush when `force_flush` (universe growth) demands it,
    /// otherwise surgical invalidation driven by index-backed
    /// [`WriteProbes`].
    fn invalidate_cache_write(&self, kind: WriteKind, id: ItemId, force_flush: bool) {
        let Some(cache) = &self.cache else {
            return;
        };
        if force_flush {
            cache.invalidate();
            return;
        }
        let ev = WriteEvent {
            kind,
            id: id.0,
            point: self.point(id),
        };
        let mut probes = EngineWriteProbes {
            tree: &self.tree,
            points: &self.points,
            universe: &self.universe,
            cost: &self.cost,
            eps: self.eps,
            id: id.0,
            scratch: WindowScratch::new(),
            affected: HashMap::new(),
            by_query: HashMap::new(),
            shields: None,
            probes_used: 0,
            budget: cache.config().write_probe_budget,
        };
        cache.invalidate_surgical(&ev, &mut probes);
    }

    /// Number of live (non-deleted) data points.
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// Whether `id` names a live (inserted, not deleted) data point.
    pub fn is_live(&self, id: ItemId) -> bool {
        (id.0 as usize) < self.points.len() && !self.deleted[id.0 as usize]
    }

    /// Dimensionality of the data.
    pub fn dim(&self) -> usize {
        self.points[0].dim()
    }

    /// The dataset.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of data points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the dataset is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The underlying R\*-tree.
    pub fn tree(&self) -> &RTree {
        &self.tree
    }

    /// The data universe (bounding box), expanded to cover `q` when a
    /// query falls outside it.
    pub fn universe_for(&self, q: &Point) -> Rect {
        self.universe.union_mbr(&Rect::degenerate(q.clone()))
    }

    /// The engine's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The point of a dataset customer.
    pub fn point(&self, id: ItemId) -> &Point {
        &self.points[id.0 as usize]
    }

    // ------------------------------------------------------------------
    // Building blocks: each runs one compute closure, returned as is
    // without a cache; with one, a hit is served and a miss fills under
    // the generation read before the lookup.
    // ------------------------------------------------------------------

    /// The dynamic skyline of customer `id` (own tuple excluded). It
    /// depends only on the dataset, so one entry serves every universe
    /// and shrink.
    fn dsl(&self, id: ItemId) -> SharedItems {
        let compute = || bbs_dynamic_skyline_excluding(&self.tree, self.point(id), Some(id));
        let Some(cache) = &self.cache else {
            return Arc::new(compute());
        };
        let expected_gen = cache.generation();
        if let Some(dsl) = cache.get_dsl(id.0) {
            return dsl;
        }
        cache.put_dsl(expected_gen, id.0, compute())
    }

    /// The anti-DDR of customer `id` for a given universe and shrink,
    /// built from [`WhyNotEngine::dsl`].
    fn anti_ddr(&self, id: ItemId, universe: &Rect, shrink: f64) -> Arc<Region> {
        let compute = || {
            let _span = wnrs_obs::span!("anti_ddr");
            anti_ddr_from_dsl(self.point(id), &self.dsl(id), universe, shrink)
        };
        let Some(cache) = &self.cache else {
            return Arc::new(compute());
        };
        let key = (id.0, CoordKey::of_rect(universe), f64_key(shrink));
        let expected_gen = cache.generation();
        if let Some(region) = cache.get_addr(&key) {
            return region;
        }
        cache.put_addr(expected_gen, key, compute())
    }

    /// The k-sampled DSL of customer `id`, computed with the same kernel
    /// the eager offline [`ApproxDslStore::build`] runs per item
    /// ([`wnrs_skyline::approx::approx_dsl_sample_into`], own tuple
    /// excluded), so the entry's coordinates and
    /// [`crate::safe_region::entry_fingerprint`] are bit-identical to
    /// the corresponding store slice.
    fn dsl_sample(&self, id: ItemId, k: usize) -> Arc<DslSampleEntry> {
        let compute = || {
            let mut scratch = ApproxDslScratch::new();
            let c = self.point(id).coords();
            let coords = approx_dsl_sample_into(&self.tree, c, Some(id), k, &mut scratch)
                .coords()
                .to_vec();
            let fingerprint = entry_fingerprint(k, self.dim(), &coords);
            DslSampleEntry {
                coords,
                fingerprint,
            }
        };
        let Some(cache) = &self.cache else {
            return Arc::new(compute());
        };
        let expected_gen = cache.generation();
        if let Some(entry) = cache.get_dsl_sample(id.0, k) {
            return entry;
        }
        wnrs_obs::record(wnrs_obs::Counter::DslLazyMaterializations);
        cache.put_dsl_sample(expected_gen, id.0, k, compute())
    }

    /// The culprit window `Λ = window(c_t, at)` of customer `id`, with
    /// the window anchored at `at` (`q` itself, or a safe-region corner
    /// during MWQ's C2 repairs).
    fn lambda(&self, id: ItemId, at: &Point) -> SharedCulprits {
        let compute = || {
            let mut scratch = WindowScratch::new();
            into_ok(window_query_with(
                &self.tree,
                self.point(id),
                at,
                Some(id),
                &mut scratch,
            ))
        };
        let Some(cache) = &self.cache else {
            return Arc::new(compute());
        };
        let key = (CoordKey::of_point(at), id.0);
        let expected_gen = cache.generation();
        if let Some(lambda) = cache.get_lambda(&key) {
            return lambda;
        }
        cache.put_lambda(expected_gen, key, at.clone(), compute())
    }

    /// The approximate safe region of `q` over `rsl`, memoised under
    /// `fingerprint` (an eager store's, or the combined fingerprint of
    /// the members' lazy samples); a hit also needs the same member ids.
    fn sr_approx(
        &self,
        q: &Point,
        fingerprint: u64,
        rsl: &[(ItemId, Point)],
        compute: impl FnOnce() -> Region,
    ) -> Region {
        let Some(cache) = &self.cache else {
            return compute();
        };
        let key = (CoordKey::of_point(q), fingerprint);
        let rsl_ids = ids_of(rsl);
        let expected_gen = cache.generation();
        if let Some(entry) = cache.get_sr_approx(&key, &rsl_ids) {
            return entry.region.clone();
        }
        cache
            .put_sr_approx(expected_gen, key, rsl_ids, compute())
            .region
            .clone()
    }

    /// MWQ for customer `id` against the full-RSL `SR(q)`, memoised per
    /// `(q, customer)` pair with the members' ids and the region's
    /// bounding box as its dependencies — safe here (unlike plain
    /// [`WhyNotEngine::mwq`]) because the region is known to be `SR(q)`.
    fn mwq_answer(&self, id: ItemId, q: &Point, rsl: &[(ItemId, Point)], sr: &Region) -> MwqAnswer {
        let compute = || self.mwq(id, q, sr);
        let Some(cache) = &self.cache else {
            return compute();
        };
        let key = (CoordKey::of_point(q), id.0);
        let expected_gen = cache.generation();
        if let Some(ans) = cache.get_mwq(&key) {
            return (*ans).clone();
        }
        let sr_bb = sr.bounding().unwrap_or_else(|| Rect::degenerate(q.clone()));
        let ans = cache.put_mwq(expected_gen, key, q.clone(), ids_of(rsl), sr_bb, compute());
        (*ans).clone()
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// The reverse skyline of `q` (BBRS), sorted by item id.
    pub fn reverse_skyline(&self, q: &Point) -> Vec<(ItemId, Point)> {
        let compute = || bbrs_reverse_skyline(&self.tree, q);
        let Some(cache) = &self.cache else {
            return compute();
        };
        let q_key = CoordKey::of_point(q);
        let expected_gen = cache.generation();
        if let Some(rsl) = cache.get_rsl(&q_key) {
            return (*rsl).clone();
        }
        (*cache.put_rsl(expected_gen, q_key, q.clone(), compute())).clone()
    }

    /// Whether dataset customer `id` is in `RSL(q)`.
    pub fn is_member(&self, id: ItemId, q: &Point) -> bool {
        is_reverse_skyline_member(&self.tree, self.point(id), q, Some(id))
    }

    /// Aspect 1: why is customer `id` missing from `RSL(q)`?
    pub fn explain(&self, id: ItemId, q: &Point) -> Explanation {
        let _span = wnrs_obs::span!("explain");
        Explanation {
            culprits: self.lambda(id, q).to_items(),
        }
    }

    /// Algorithm 1 (MWP) for dataset customer `id`.
    ///
    /// Minimally modifies the why-not customer so `q` enters their
    /// dynamic skyline; the best candidate comes first:
    ///
    /// ```
    /// use wnrs_core::WhyNotEngine;
    /// use wnrs_geometry::Point;
    /// use wnrs_rtree::ItemId;
    ///
    /// let engine = WhyNotEngine::new(vec![
    ///     Point::xy(5.0, 30.0), Point::xy(7.5, 42.0), Point::xy(2.5, 70.0),
    ///     Point::xy(7.5, 90.0), Point::xy(24.0, 20.0), Point::xy(20.0, 50.0),
    ///     Point::xy(26.0, 70.0), Point::xy(16.0, 80.0),
    /// ]);
    /// let q = Point::xy(8.5, 55.0);
    /// let ans = engine.mwp(ItemId(0), &q); // the paper's why-not c1
    /// assert!(ans.best_cost() > 0.0);
    /// assert!(ans.candidates[0].verified);
    /// ```
    pub fn mwp(&self, id: ItemId, q: &Point) -> MwpAnswer {
        let _span = wnrs_obs::span!("mwp");
        let lambda = self.lambda(id, q);
        into_ok(modify_why_not_point_with_lambda(
            &self.tree,
            self.point(id),
            q,
            &lambda,
            Some(id),
            &self.cost,
            self.eps,
        ))
    }

    /// Algorithm 2 (MQP) for dataset customer `id`.
    ///
    /// Minimally modifies the *query product* onto the customer's
    /// dynamic-skyline frontier instead of moving the customer:
    ///
    /// ```
    /// use wnrs_core::WhyNotEngine;
    /// use wnrs_geometry::Point;
    /// use wnrs_rtree::ItemId;
    ///
    /// let engine = WhyNotEngine::new(vec![
    ///     Point::xy(5.0, 30.0), Point::xy(7.5, 42.0), Point::xy(2.5, 70.0),
    ///     Point::xy(7.5, 90.0), Point::xy(24.0, 20.0), Point::xy(20.0, 50.0),
    ///     Point::xy(26.0, 70.0), Point::xy(16.0, 80.0),
    /// ]);
    /// let q = Point::xy(8.5, 55.0);
    /// let ans = engine.mqp(ItemId(0), &q);
    /// // The moved product q* puts customer 0 into RSL(q*).
    /// assert!(ans.candidates.iter().any(|c| c.verified));
    /// assert!(ans.best_cost() > 0.0);
    /// ```
    pub fn mqp(&self, id: ItemId, q: &Point) -> MqpAnswer {
        let _span = wnrs_obs::span!("mqp");
        let lambda = self.lambda(id, q);
        into_ok(modify_query_point_with_lambda(
            &self.tree,
            self.point(id),
            q,
            &lambda,
            Some(id),
            &self.cost,
            self.eps,
        ))
    }

    /// Algorithm 3: the exact safe region of `q`. Computes `RSL(q)`
    /// first; reuse [`WhyNotEngine::safe_region_for`] when the reverse
    /// skyline is already at hand (the paper stresses that one safe
    /// region serves many why-not questions).
    ///
    /// The region is a union of boxes containing `q`, inside which `q`
    /// may move without losing any reverse-skyline member:
    ///
    /// ```
    /// use wnrs_core::WhyNotEngine;
    /// use wnrs_geometry::Point;
    ///
    /// let engine = WhyNotEngine::new(vec![
    ///     Point::xy(5.0, 30.0), Point::xy(7.5, 42.0), Point::xy(2.5, 70.0),
    ///     Point::xy(7.5, 90.0), Point::xy(24.0, 20.0), Point::xy(20.0, 50.0),
    ///     Point::xy(26.0, 70.0), Point::xy(16.0, 80.0),
    /// ]);
    /// let q = Point::xy(8.5, 55.0);
    /// let sr = engine.safe_region(&q);
    /// assert!(sr.contains(&q));
    /// assert!(sr.area() > 0.0);
    /// ```
    pub fn safe_region(&self, q: &Point) -> Region {
        let rsl = self.reverse_skyline(q);
        self.safe_region_for(q, &rsl)
    }

    /// Algorithm 3 against a precomputed reverse skyline: the
    /// intersection of the members' anti-DDRs, each member resolved by
    /// its id (own tuple excluded).
    pub fn safe_region_for(&self, q: &Point, rsl: &[(ItemId, Point)]) -> Region {
        let compute = || {
            let _span = wnrs_obs::span!("sr_exact");
            let universe = self.universe_for(q);
            into_ok(exact_safe_region_by(
                rsl,
                &universe,
                &self.parallelism,
                |(id, _)| {
                    let region = self.anti_ddr(*id, &universe, 0.0);
                    Ok(Arc::try_unwrap(region).unwrap_or_else(|shared| (*shared).clone()))
                },
            ))
        };
        let Some(cache) = &self.cache else {
            return compute();
        };
        let q_key = CoordKey::of_point(q);
        let rsl_ids = ids_of(rsl);
        let expected_gen = cache.generation();
        if let Some(entry) = cache.get_sr_exact(&q_key, &rsl_ids) {
            return entry.region.clone();
        }
        cache
            .put_sr_exact(expected_gen, q_key, rsl_ids, compute())
            .region
            .clone()
    }

    /// Builds the offline approximate-DSL store (Section VI-B.1).
    pub fn build_approx_store(&self, k: usize) -> ApproxDslStore {
        ApproxDslStore::build_with(&self.tree, k, &self.parallelism)
    }

    /// The approximate safe region from a precomputed store.
    pub fn approx_safe_region_for(
        &self,
        q: &Point,
        rsl: &[(ItemId, Point)],
        store: &ApproxDslStore,
    ) -> Region {
        self.sr_approx(q, store.fingerprint(), rsl, || {
            approx_safe_region_with(store, rsl, &self.universe_for(q), &self.parallelism)
        })
    }

    /// The approximate safe region of `q` from **lazily materialised**
    /// per-member DSL samples — no offline store build. Only the
    /// reverse-skyline members' samples are ever computed (at
    /// million-point scale the eager [`ApproxDslStore::build`] is an
    /// O(n) BBS sweep; a why-not workload touches a vanishing fraction
    /// of customers), and with the cache enabled each sample is
    /// memoised under the generation protocol, so repeat queries pay
    /// nothing. The region is bit-identical to
    /// [`WhyNotEngine::approx_safe_region_for`] against a store of the
    /// same `k`: both paths run the same sampling kernel and the same
    /// [`approx_anti_ddr_of_sample`] / intersection pairing.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn approx_safe_region_lazy(&self, q: &Point, rsl: &[(ItemId, Point)], k: usize) -> Region {
        assert!(k > 0, "sample size k must be positive");
        let samples = map_slice(rsl, &self.parallelism, |(id, _)| self.dsl_sample(*id, k));
        // Content-addressed like the eager path, but over the members'
        // sample fingerprints (the lazy layer has no whole-store
        // fingerprint) — plus a tag keeping the key space disjoint from
        // eager store fingerprints.
        let fingerprint = combined_sample_fingerprint(k, &samples);
        self.sr_approx(q, fingerprint, rsl, || {
            let _span = wnrs_obs::span!("sr_approx");
            let universe = self.universe_for(q);
            let members: Vec<(&Point, &DslSampleEntry)> = rsl
                .iter()
                .zip(&samples)
                .map(|((_, c), sample)| (c, sample.as_ref()))
                .collect();
            let regions = map_slice(&members, &self.parallelism, |(c, sample)| {
                approx_anti_ddr_of_sample(&sample.coords, c, &universe)
            });
            intersect_all(regions, &self.parallelism).unwrap_or_else(|| Region::from_rect(universe))
        })
    }

    /// The lazily materialised k-sampled DSL entry of customer `id`:
    /// memoised when the cache is enabled, computed afresh otherwise.
    /// Exposed so equivalence tests can compare lazy entries against
    /// eager [`ApproxDslStore`] slices fingerprint for fingerprint.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn lazy_dsl_sample(&self, id: ItemId, k: usize) -> Arc<DslSampleEntry> {
        assert!(k > 0, "sample size k must be positive");
        self.dsl_sample(id, k)
    }

    /// Algorithm 4 (MWQ) for dataset customer `id`, against a
    /// precomputed safe region (exact or approximate).
    ///
    /// Moves `q` inside the safe region (free, Eqn 10) and, when the
    /// region misses the customer's anti-DDR, additionally repairs the
    /// customer — never costing more than plain MWP:
    ///
    /// ```
    /// use wnrs_core::WhyNotEngine;
    /// use wnrs_geometry::Point;
    /// use wnrs_rtree::ItemId;
    ///
    /// let engine = WhyNotEngine::new(vec![
    ///     Point::xy(5.0, 30.0), Point::xy(7.5, 42.0), Point::xy(2.5, 70.0),
    ///     Point::xy(7.5, 90.0), Point::xy(24.0, 20.0), Point::xy(20.0, 50.0),
    ///     Point::xy(26.0, 70.0), Point::xy(16.0, 80.0),
    /// ]);
    /// let q = Point::xy(8.5, 55.0);
    /// let sr = engine.safe_region(&q);
    /// let ans = engine.mwq(ItemId(0), &q, &sr);
    /// assert!(ans.cost <= engine.mwp(ItemId(0), &q).best_cost() + 1e-9);
    /// ```
    pub fn mwq(&self, id: ItemId, q: &Point, sr: &Region) -> MwqAnswer {
        let _span = wnrs_obs::span!("mwq");
        // The ε-shrunk anti-DDR: see `modify_both` for why both regions
        // are shrunk by the verification nudge.
        let addr = self.anti_ddr(id, &self.universe_for(q), self.eps);
        let (c, cost, eps) = (self.point(id), &self.cost, self.eps);
        modify_both_parts(sr, c, q, cost, &addr, eps, |at| self.mwp(id, at))
    }

    /// End-to-end convenience: compute the safe region and run MWQ.
    /// With the cache enabled the full answer is memoised per
    /// `(q, customer)` pair.
    pub fn mwq_full(&self, id: ItemId, q: &Point) -> (Region, MwqAnswer) {
        let rsl = self.reverse_skyline(q);
        let sr = self.safe_region_for(q, &rsl);
        let ans = self.mwq_answer(id, q, &rsl, &sr);
        (sr, ans)
    }

    /// Answers `question`: the one table mapping a question to this
    /// engine's techniques, after [`Question::check`] and the id check.
    /// A customer named by id goes through the id methods (and so
    /// through the cache, when enabled), one named by point through the
    /// `NodeSource`-generic functions the paged engine calls. Approximate safe regions come from
    /// [`WhyNotEngine::approx_safe_region_lazy`].
    ///
    /// # Errors
    ///
    /// [`QuestionError`] for a false premise.
    pub fn answer(&self, question: &Question) -> Result<Reply, QuestionError> {
        question.check(self.dim())?;
        if let Some(&Customer::Id(id)) = question.customer() {
            if id.0 as usize >= self.len() {
                let len = self.len();
                return Err(QuestionError::UnknownCustomer { id, len });
            }
        }
        let (tree, cost, eps) = (&self.tree, &self.cost, self.eps);
        let safe_region = |q: &Point, rsl: &[(ItemId, Point)]| match question.approx_k() {
            Some(k) => self.approx_safe_region_lazy(q, rsl, k),
            None => self.safe_region_for(q, rsl),
        };
        Ok(match question {
            Question::Rsl { q } => Reply::Rsl(self.reverse_skyline(q)),
            Question::Explain { customer, q } => Reply::Explain(match customer {
                Customer::Id(id) => self.explain(*id, q),
                Customer::External(c) | Customer::PointExcluding(c, _) => {
                    into_ok(explain(tree, c, q, customer.exclusion()))
                }
            }),
            Question::Mwp { customer, q } => Reply::Mwp(match customer {
                Customer::Id(id) => self.mwp(*id, q),
                Customer::External(c) | Customer::PointExcluding(c, _) => into_ok(
                    modify_why_not_point(tree, c, q, customer.exclusion(), cost, eps),
                ),
            }),
            Question::Mqp { customer, q } => Reply::Mqp(match customer {
                Customer::Id(id) => self.mqp(*id, q),
                Customer::External(c) | Customer::PointExcluding(c, _) => into_ok(
                    modify_query_point(tree, c, q, customer.exclusion(), cost, eps),
                ),
            }),
            Question::SafeRegion { q, .. } => {
                let rsl = self.reverse_skyline(q);
                let (members, region) = (rsl.len(), safe_region(q, &rsl));
                Reply::SafeRegion { members, region }
            }
            Question::Mwq { customer, q, .. } => {
                let rsl = self.reverse_skyline(q);
                let sr = safe_region(q, &rsl);
                let answer = match customer {
                    Customer::Id(id) => self.mwq(*id, q, &sr),
                    Customer::External(c) | Customer::PointExcluding(c, _) => {
                        let universe = self.universe_for(q);
                        let exclude = customer.exclusion();
                        into_ok(modify_both(tree, &sr, c, q, exclude, cost, &universe, eps))
                    }
                };
                let members = rsl.len();
                Reply::Mwq { members, answer }
            }
        })
    }

    // ------------------------------------------------------------------
    // Batch answering
    // ------------------------------------------------------------------

    /// Answers Aspect 1 for many customers against one query product,
    /// fanning out across the engine's [`Parallelism`] policy.
    pub fn explain_batch(&self, ids: &[ItemId], q: &Point) -> Vec<Explanation> {
        map_slice(ids, &self.parallelism, |&id| self.explain(id, q))
    }

    /// Answers MWQ for many customers against one query product: the
    /// safe region is computed once (the paper's headline reuse) and the
    /// per-customer answers fan out across the engine's [`Parallelism`]
    /// policy. With the cache enabled, full answers are memoised per
    /// `(q, customer)` pair exactly as in [`WhyNotEngine::mwq_full`].
    pub fn mwq_batch(&self, ids: &[ItemId], q: &Point) -> (Region, Vec<(ItemId, MwqAnswer)>) {
        let rsl = self.reverse_skyline(q);
        let sr = self.safe_region_for(q, &rsl);
        let answers = map_slice(ids, &self.parallelism, |&id| {
            (id, self.mwq_answer(id, q, &rsl, &sr))
        });
        (sr, answers)
    }
}

/// The ids of a reverse skyline's members: a safe region's or an MWQ
/// answer's dependency set in the cache.
fn ids_of(rsl: &[(ItemId, Point)]) -> Vec<u32> {
    rsl.iter().map(|(id, _)| id.0).collect()
}

/// FNV-1a over the reverse-skyline members' per-sample fingerprints
/// plus `k`, tagged so lazily keyed approximate safe regions can never
/// collide with eager whole-store fingerprints in the shared
/// `sr_approx` map.
fn combined_sample_fingerprint(k: usize, entries: &[Arc<DslSampleEntry>]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    /// ASCII "lazy_sr\0" — a domain separator, nothing more.
    const LAZY_TAG: u64 = 0x6c61_7a79_5f73_7200;
    let mut h = OFFSET;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(LAZY_TAG);
    mix(k as u64);
    mix(entries.len() as u64);
    for e in entries {
        mix(e.fingerprint);
    }
    h
}

/// Index-backed [`WriteProbes`] for surgical cache invalidation: one
/// reusable [`WindowScratch`] serves every membership probe of the
/// write, verdicts are memoised per customer / per query point, and
/// probe counts enforce the configured write budget (over budget every
/// answer degrades to the conservative `true`, and the cache falls
/// back to a full flush).
struct EngineWriteProbes<'a> {
    tree: &'a RTree,
    points: &'a [Point],
    universe: &'a Rect,
    cost: &'a CostModel,
    eps: f64,
    /// The written product's id (its point is `points[id]`, tombstoned
    /// or live — both stay addressable).
    id: u32,
    scratch: WindowScratch,
    affected: HashMap<u32, bool>,
    by_query: HashMap<CoordKey, bool>,
    /// Deletes only: ids of the victim's reverse-skyline members over
    /// the post-delete tree — the only customers whose sole dominator
    /// of any query the victim can have been. Computed lazily, once
    /// per write.
    shields: Option<Vec<u32>>,
    probes_used: usize,
    budget: usize,
}

impl EngineWriteProbes<'_> {
    /// Charges one index probe against the budget; when exhausted the
    /// caller must answer conservatively instead of probing.
    fn charge(&mut self) -> bool {
        self.probes_used += 1;
        self.probes_used <= self.budget
    }
}

impl WriteProbes for EngineWriteProbes<'_> {
    fn customer(&self, id: u32) -> &Point {
        &self.points[id as usize]
    }

    fn seed_affected(&mut self, id: u32, affected: bool) {
        self.affected.insert(id, affected);
    }

    fn affected(&mut self, id: u32) -> bool {
        if id == self.id {
            // A customer's own tuple is excluded from its DSL, so the
            // write of `id` itself never changes `DSL(id)`.
            return false;
        }
        if let Some(&v) = self.affected.get(&id) {
            return v;
        }
        let v = if self.charge() {
            // `DSL(c)` gains/loses the written point `p` iff `p` is on
            // c's dynamic-skyline frontier of the post-write tree: no
            // other product dynamically dominates it w.r.t. c. (On
            // insert `p` is in the tree but cannot dominate itself; on
            // delete it is already out.)
            into_ok(is_reverse_skyline_member_with(
                self.tree,
                &self.points[id as usize],
                &self.points[self.id as usize],
                Some(ItemId(id)),
                &mut self.scratch,
            ))
        } else {
            true
        };
        self.affected.insert(id, v);
        v
    }

    fn insert_joins_rsl(&mut self, q: &Point) -> bool {
        let key = CoordKey::of_point(q);
        if let Some(&v) = self.by_query.get(&key) {
            return v;
        }
        let v = if self.charge() {
            into_ok(is_reverse_skyline_member_with(
                self.tree,
                &self.points[self.id as usize],
                q,
                Some(ItemId(self.id)),
                &mut self.scratch,
            ))
        } else {
            true
        };
        self.by_query.insert(key, v);
        v
    }

    fn delete_admits_into_rsl(&mut self, q: &Point) -> bool {
        let key = CoordKey::of_point(q);
        if let Some(&v) = self.by_query.get(&key) {
            return v;
        }
        let v = if self.charge() {
            // A customer c joins RSL(q) only if the victim was its sole
            // dominator of q. The victim then sits on DSL(c), i.e. c is
            // in the victim's reverse skyline over the post-delete tree
            // (any product beating the victim w.r.t. c would, by
            // transitivity, still beat q). One reverse-skyline query
            // per write bounds the candidates — a handful of points —
            // and one membership probe per shielded candidate settles
            // the join exactly.
            let points = self.points;
            let tree = self.tree;
            let victim = &points[self.id as usize];
            if self.shields.is_none() {
                self.shields = Some(
                    bbrs_reverse_skyline(tree, victim)
                        .into_iter()
                        .map(|(id, _)| id.0)
                        .collect(),
                );
            }
            let shields = self.shields.clone().unwrap_or_default();
            let mut admits = false;
            for cid in shields {
                let c = &points[cid as usize];
                if !dominates_dyn(victim, q, c) {
                    continue;
                }
                if !self.charge()
                    || into_ok(is_reverse_skyline_member_with(
                        tree,
                        c,
                        q,
                        Some(ItemId(cid)),
                        &mut self.scratch,
                    ))
                {
                    admits = true;
                    break;
                }
            }
            admits
        } else {
            true
        };
        self.by_query.insert(key, v);
        v
    }

    fn insert_breaks_candidate(&self, q_star: &Point, c_star: &Point) -> bool {
        // Weak per-dimension dominance of q* w.r.t. the repaired c*,
        // widened by the verification tolerance: Algorithm 1 confirms
        // repairs through ε-nudged probes, so a point landing within ε
        // of the dominance boundary must count as breaking even if the
        // exact comparison says otherwise.
        let p = &self.points[self.id as usize];
        (0..p.dim()).all(|i| {
            let r = (q_star.get(i) - c_star.get(i)).abs();
            let tol = self.eps + 1e-9 * (1.0 + r + c_star.get(i).abs());
            (p.get(i) - c_star.get(i)).abs() <= r + tol
        })
    }

    fn delete_unblocks_cheaper(&self, c: &Point, sr_bb: &Rect, cost_bar: f64) -> bool {
        // Any repair position the victim alone was excluding lies in
        // its release region against the candidate query box; if the
        // cheapest such position (per-axis clamp — the weighted L1 is
        // separable) already costs more than the cached optimum,
        // removing the victim cannot have unblocked anything better.
        // Ties evict: an equally cheap alternative could win a
        // recomputation's ordering.
        match release_region(&self.points[self.id as usize], sr_bb, self.universe) {
            None => false,
            Some(region) => {
                let floor = self.cost.whynot_cost_to_rect(c, &region);
                floor <= cost_bar + self.eps + 1e-9 * (1.0 + cost_bar)
            }
        }
    }

    fn over_budget(&self) -> bool {
        self.probes_used > self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> WhyNotEngine {
        WhyNotEngine::with_config(
            vec![
                Point::xy(5.0, 30.0),
                Point::xy(7.5, 42.0),
                Point::xy(2.5, 70.0),
                Point::xy(7.5, 90.0),
                Point::xy(24.0, 20.0),
                Point::xy(20.0, 50.0),
                Point::xy(26.0, 70.0),
                Point::xy(16.0, 80.0),
            ],
            RTreeConfig::with_max_entries(4),
        )
    }

    #[test]
    fn end_to_end_paper_flow() {
        let e = engine();
        let q = Point::xy(8.5, 55.0);
        let rsl = e.reverse_skyline(&q);
        assert_eq!(rsl.len(), 5);
        assert!(!e.is_member(ItemId(0), &q));
        assert!(e.is_member(ItemId(1), &q));

        let (sr, ans) = e.mwq_full(ItemId(0), &q);
        assert!(sr.contains(&q));
        assert!(ans.cost > 0.0, "c1 is case C2");

        let c7 = e.mwq(ItemId(6), &q, &sr);
        assert_eq!(c7.cost, 0.0, "c7 is case C1");
    }

    #[test]
    fn costs_are_normalised() {
        // With min–max normalisation, all costs land in a comparable
        // [0, 1]-ish range regardless of raw units.
        let e = engine();
        let q = Point::xy(8.5, 55.0);
        let mwp = e.mwp(ItemId(0), &q);
        assert!(mwp.best_cost() > 0.0 && mwp.best_cost() < 1.0);
    }

    #[test]
    fn approx_store_round_trip() {
        let e = engine();
        let q = Point::xy(8.5, 55.0);
        let rsl = e.reverse_skyline(&q);
        let store = e.build_approx_store(2);
        let sr_exact = e.safe_region_for(&q, &rsl);
        let sr_approx = e.approx_safe_region_for(&q, &rsl, &store);
        assert!(sr_approx.area() <= sr_exact.area() + 1e-9);
        // MWQ against the approximate region still answers, and both
        // variants respect the MWQ ≤ MWP guarantee (q stays a candidate).
        let ans = e.mwq(ItemId(0), &q, &sr_approx);
        let exact_ans = e.mwq(ItemId(0), &q, &sr_exact);
        let mwp = e.mwp(ItemId(0), &q).best_cost();
        assert!(ans.cost >= 0.0 && ans.cost <= mwp + 1e-9);
        assert!(exact_ans.cost >= 0.0 && exact_ans.cost <= mwp + 1e-9);
    }

    #[test]
    fn external_customer_flow() {
        let e = engine();
        let q = Point::xy(8.5, 55.0);
        let c_ext = Point::xy(4.0, 28.0);
        let customer = Customer::External(c_ext.clone());
        let (tree, cost) = (e.tree(), e.cost_model());
        let mwp = into_ok(modify_why_not_point(
            tree,
            &c_ext,
            &q,
            None,
            cost,
            DEFAULT_EPS,
        ));
        assert!(mwp.best_cost() > 0.0);
        let question = Question::Mwp {
            customer: customer.clone(),
            q: q.clone(),
        };
        let Ok(Reply::Mwp(asked)) = e.answer(&question) else {
            panic!("{question:?} got no MWP reply");
        };
        assert_eq!(format!("{asked:?}"), format!("{mwp:?}"));
        let mqp = into_ok(modify_query_point(
            tree,
            &c_ext,
            &q,
            None,
            cost,
            DEFAULT_EPS,
        ));
        assert!(mqp.best_cost() > 0.0);
        let question = Question::Mqp { customer, q };
        let Ok(Reply::Mqp(asked)) = e.answer(&question) else {
            panic!("{question:?} got no MQP reply");
        };
        assert_eq!(format!("{asked:?}"), format!("{mqp:?}"));
    }

    #[test]
    fn from_tree_matches_fresh_engine() {
        let pts = vec![
            Point::xy(5.0, 30.0),
            Point::xy(7.5, 42.0),
            Point::xy(2.5, 70.0),
            Point::xy(7.5, 90.0),
        ];
        let fresh = WhyNotEngine::with_config(pts.clone(), RTreeConfig::with_max_entries(4));
        let tree = wnrs_rtree::bulk::bulk_load(&pts, RTreeConfig::with_max_entries(4));
        let rebuilt = WhyNotEngine::from_tree(tree);
        let q = Point::xy(6.0, 50.0);
        let a: Vec<u32> = fresh
            .reverse_skyline(&q)
            .iter()
            .map(|(id, _)| id.0)
            .collect();
        let b: Vec<u32> = rebuilt
            .reverse_skyline(&q)
            .iter()
            .map(|(id, _)| id.0)
            .collect();
        assert_eq!(a, b);
        assert_eq!(fresh.len(), rebuilt.len());
        for i in 0..pts.len() as u32 {
            assert!(fresh
                .point(ItemId(i))
                .same_location(rebuilt.point(ItemId(i))));
        }
    }

    #[test]
    fn from_tree_matches_fresh_engine_after_persist_round_trip() {
        // Regression for the id-scatter rebuild: a tree reloaded from
        // pages yields items in storage order, not id order, and the
        // rebuilt engine must still index every point under its
        // original id.
        let pts = vec![
            Point::xy(5.0, 30.0),
            Point::xy(7.5, 42.0),
            Point::xy(2.5, 70.0),
            Point::xy(7.5, 90.0),
            Point::xy(24.0, 20.0),
            Point::xy(20.0, 50.0),
            Point::xy(26.0, 70.0),
            Point::xy(16.0, 80.0),
        ];
        let fresh = WhyNotEngine::with_config(pts.clone(), RTreeConfig::with_max_entries(4));
        let pager = wnrs_storage::MemPager::new(wnrs_storage::PAPER_PAGE_SIZE);
        let meta = wnrs_rtree::persist::save(fresh.tree(), &pager).expect("save");
        let tree = wnrs_rtree::persist::load(&pager, meta).expect("load");
        let rebuilt = WhyNotEngine::from_tree(tree);
        for (i, p) in pts.iter().enumerate() {
            assert!(
                rebuilt.point(ItemId(i as u32)).same_location(p),
                "point #{i} lost its id through the persist round trip"
            );
        }
        let q = Point::xy(8.5, 55.0);
        let a: Vec<u32> = fresh
            .reverse_skyline(&q)
            .iter()
            .map(|(id, _)| id.0)
            .collect();
        let b: Vec<u32> = rebuilt
            .reverse_skyline(&q)
            .iter()
            .map(|(id, _)| id.0)
            .collect();
        assert_eq!(a, b);
        assert_eq!(
            format!("{:?}", fresh.mwq_full(ItemId(0), &q)),
            format!("{:?}", rebuilt.mwq_full(ItemId(0), &q))
        );
    }

    #[test]
    fn insert_delete_round_trip() {
        let mut e = engine();
        let q = Point::xy(8.5, 55.0);
        let before = e.explain(ItemId(0), &q).culprits.len();
        let id = e.insert(Point::xy(6.5, 44.0));
        assert_eq!(id, ItemId(8));
        assert_eq!(e.live_len(), 9);
        assert!(e.is_live(id));
        assert_eq!(e.explain(ItemId(0), &q).culprits.len(), before + 1);
        assert!(e.delete(id));
        assert!(!e.is_live(id), "tombstoned");
        assert!(!e.delete(id), "double delete is a no-op");
        assert_eq!(e.live_len(), 8);
        assert_eq!(e.len(), 9, "id space keeps the tombstone addressable");
        assert_eq!(e.explain(ItemId(0), &q).culprits.len(), before);
        // The tombstoned customer can still ask why-not questions.
        assert!(e.mwp(id, &q).best_cost() >= 0.0);
    }

    #[test]
    fn query_outside_universe_is_handled() {
        let e = engine();
        let q = Point::xy(100.0, 200.0); // far outside the data
        let rsl = e.reverse_skyline(&q);
        let sr = e.safe_region_for(&q, &rsl);
        assert!(sr.contains(&q), "q is always inside its own safe region");
    }
}
