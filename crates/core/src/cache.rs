//! Cross-query reuse layer: versioned memoization of per-customer
//! dynamic skylines / anti-DDR regions and per-query-point results.
//!
//! Heavy why-not traffic is dominated by *repeated substructure*: W
//! why-not questions against one query product share `RSL(q)` and
//! `SR(q)`; `explain`/MWP/MQP against the same `(c_t, q)` pair share
//! the culprit window `Λ`; and every safe region is an intersection of
//! per-customer anti-DDRs whose underlying dynamic skylines never
//! change until the dataset does. [`crate::WhyNotEngine`] writes each
//! question once over private building blocks (one per entry family
//! below); without a cache each block computes its value, and with one
//! the same computation fills an [`EngineCache`] entry on a miss. The
//! cache stores each building block exactly once:
//!
//! * **per customer** — the dynamic skyline `DSL(c)` (universe- and
//!   shrink-independent) and the anti-DDR regions derived from it,
//!   keyed by `(customer id, universe bits, shrink bits)`;
//! * **per query point** — `RSL(q)`, the exact and approximate `SR(q)`
//!   (entries remember the reverse-skyline ids and, for the approximate
//!   variant, the store fingerprint they were built from), and the
//!   end-to-end MWQ answers produced by the full-pipeline path;
//! * **per (query, customer) pair** — the culprit window `Λ`.
//!
//! ## Invalidation protocol
//!
//! The cache is *versioned*: a monotonically increasing generation
//! counter is bumped by every dataset mutation that goes through the
//! engine ([`crate::WhyNotEngine::insert`] /
//! [`crate::WhyNotEngine::delete`]), and the write is handled by
//! **surgical invalidation**: the write of product `p` evicts only the
//! entries it can actually perturb, decided per map by exact dominance
//! tests against dependency metadata recorded at fill time:
//! `DSL(c)` falls on a delete of a member or an unshielded insert;
//! anti-DDRs fall with their customer; `Λ(anchor, c)` is *repaired
//! in place* — a window result changes under a write in exactly one
//! way, gaining `p` iff it dominates the anchor w.r.t. `c` or losing
//! the victim's tuple — so it is never evicted at all; `RSL(q)` falls iff a
//! member is dominated out, the write joins, or (on delete) a
//! customer the victim alone was shielding joins — an exact test,
//! since joiners are confined to the victim's own reverse skyline;
//! exact `SR(q)` falls iff a recorded
//! reverse-skyline dependency is affected; MWQ answers fall iff a
//! dependency is affected, the membership moved, or the write
//! touches the *cached optimum itself* — an insert that dominates
//! the recorded `q*` w.r.t. the repaired `c*` (making the repair
//! infeasible; a still-feasible optimum stays optimal because
//! inserts only add constraints), or a delete whose
//! [`wnrs_geometry::release_region`] against the safe region's
//! bounding box admits a repair at or below the cached cost
//! (deletes only remove constraints, so the optimum stands unless
//! the victim was blocking something at least as cheap). Tests the cache
//! cannot decide from metadata alone are delegated to the engine
//! through [`WriteProbes`] (one memoised window probe per
//! customer/query), and a per-write probe budget falls back to the
//! epoch flush so pathological writes stay cheap. Universe growth and
//! tombstone compaction flush every map ([`EngineCache::invalidate`]).
//!
//! Either way the bump and the evictions happen in one critical
//! section under the state's write lock, and mutations require `&mut`
//! access to the engine, so no concurrent reader can observe a
//! pre-eviction entry with a post-bump generation. As defence in depth
//! every lookup still compares the entry state's generation against
//! the counter and treats a mismatch as a miss — a missed dependency
//! edge can cost a stale *eviction decision* only in the conservative
//! direction, and a stale entry can never be served even if a future
//! refactor breaks the `&mut` exclusivity argument.
//!
//! ## Key scheme
//!
//! `f64` coordinates key by bit pattern via
//! [`wnrs_geometry::CoordKey`], with `-0.0` normalised to `+0.0` so
//! numerically identical queries hit the same entry. Points are finite
//! by construction, so NaN never reaches a key. Callers build the
//! (allocating) keys once and pass them in: lookups borrow, fills take
//! ownership, and this module — a designated allocation-free hot path —
//! never clones a key or a value on the *read* path. Surgical
//! eviction walks the maps with `retain` under the write lock; the
//! only write-path allocation is the in-place repair of a culprit
//! window (its two exactly sized arrays grow or shrink by one row, and
//! a block a reader still holds is copied first).
//!
//! ## Memory bounds
//!
//! Each map has a capacity from [`CacheConfig`]. Overflow triggers an
//! epoch flush of that map (cheap, allocation-free bookkeeping versus
//! per-entry LRU chains); the dropped entries are counted as evictions
//! in [`CacheStats`]. Per-customer maps are additionally bounded by the
//! dataset size in steady state. Culprit windows are flat
//! [`CulpritBlock`]s with no spare capacity: `4 + 8·d` bytes per culprit
//! (20 B at d = 2). Dependency metadata is a compact
//! sorted `u32` id list plus one safe-region bounding rectangle per
//! MWQ entry, bounded by the same capacities.

use crate::mwq::MwqAnswer;
use crate::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wnrs_geometry::{dominates_dyn, CoordKey, Point, Rect, Region};
use wnrs_obs::Counter;
use wnrs_reverse_skyline::CulpritBlock;
use wnrs_rtree::ItemId;

/// A shared reverse-skyline / dynamic-skyline result.
pub type SharedItems = Arc<Vec<(ItemId, Point)>>;

/// A shared culprit window `Λ`.
pub type SharedCulprits = Arc<CulpritBlock>;

/// Anti-DDR key: `(customer id, universe rect bits, shrink bits)`. The
/// universe participates because `anti_ddr` clips to it and derives its
/// `max_dist` corner from it, and `universe_for(q)` grows when `q`
/// falls outside the data's bounding box.
pub type AddrKey = (u32, CoordKey, u64);

/// Per-`(window anchor, customer)` key for culprit windows and
/// full-pipeline MWQ answers. The anchor is `q` itself for
/// `explain`/MWP/MQP and a safe-region corner for MWQ's C2 repairs.
pub type PairKey = (CoordKey, u32);

/// Approximate-safe-region key: `(query point bits, store
/// fingerprint)` — see [`crate::ApproxDslStore::fingerprint`].
pub type SrApproxKey = (CoordKey, u64);

/// Capacity limits and the write-probe budget of the cache's maps.
/// Overflowing a map flushes it (an "epoch flush"), counting the
/// dropped entries as evictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Max entries in each per-query map (`RSL`, exact `SR`,
    /// approximate `SR`, MWQ answers).
    pub query_capacity: usize,
    /// Max entries in the per-`(anchor, customer)` culprit-window map —
    /// the largest map by far under batch MWQ, which probes one window
    /// per safe-region corner per customer.
    pub lambda_capacity: usize,
    /// Max entries in each per-customer map (`DSL`, anti-DDR).
    pub customer_capacity: usize,
    /// Surgical invalidation's per-write budget of index probes
    /// (affected-customer / membership window tests). A write whose
    /// blast radius needs more probes than this falls back to a full
    /// epoch flush, keeping pathological writes O(1) in probe work.
    pub write_probe_budget: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            query_capacity: 1024,
            lambda_capacity: 8192,
            customer_capacity: 65_536,
            write_probe_budget: 512,
        }
    }
}

/// A monotonic snapshot of the cache's behaviour counters (also
/// forwarded to `wnrs-obs` as the `engine_cache_*` / `cache_*`
/// counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Generation bumps (dataset mutations).
    pub invalidations: u64,
    /// Entries dropped by capacity epoch flushes.
    pub evictions: u64,
    /// Current generation.
    pub generation: u64,
    /// Writes handled surgically (only dependent entries evicted).
    pub partial_invalidations: u64,
    /// Writes (or fallbacks) that flushed every map.
    pub full_flushes: u64,
    /// Dynamic-skyline entries evicted by surgical invalidation.
    pub dsl_evictions: u64,
    /// Anti-DDR entries evicted by surgical invalidation.
    pub addr_evictions: u64,
    /// Reverse-skyline / safe-region entries evicted surgically.
    pub sr_evictions: u64,
    /// MWQ-answer entries evicted surgically (culprit windows are
    /// repaired in place, never evicted).
    pub mwq_evictions: u64,
    /// Fills dropped because the generation moved between the miss and
    /// the store (stale-fill protection; concurrent readers only).
    pub stale_fills: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when no lookups happened).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Which kind of dataset write is being applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// A new product appended to the dataset.
    Insert,
    /// An existing product tombstoned out of the index.
    Delete,
}

/// One dataset write, as seen by [`EngineCache::invalidate_surgical`].
/// The point must be the written product's location *after* the index
/// mutation has been applied (inserts are already in the tree, deletes
/// already out), so membership probes observe the post-write world.
#[derive(Debug, Clone, Copy)]
pub struct WriteEvent<'a> {
    /// Insert or delete.
    pub kind: WriteKind,
    /// The written product's id.
    pub id: u32,
    /// The written product's location.
    pub point: &'a Point,
}

/// Index-backed membership tests surgical invalidation delegates to
/// the engine. Implementations memoise per-customer / per-query
/// verdicts and count index probes against the write budget; once the
/// budget is exhausted they must answer conservatively (`true`) so
/// eviction stays sound while the caller falls back to a full flush.
pub trait WriteProbes {
    /// Location of customer `id` (live or tombstoned).
    fn customer(&self, id: u32) -> &Point;
    /// Records a verdict the cache derived from its own metadata (a
    /// cached `DSL(c)` decides "did this write change `DSL(c)`?"
    /// without touching the index), so later [`WriteProbes::affected`]
    /// calls for the same customer are free.
    fn seed_affected(&mut self, id: u32, affected: bool);
    /// Whether the write changed `DSL(id)` — exact membership test
    /// against the post-write index unless a verdict was seeded.
    fn affected(&mut self, id: u32) -> bool;
    /// Insert only: whether the written point joined `RSL(q)`.
    fn insert_joins_rsl(&mut self, q: &Point) -> bool;
    /// Delete only: whether some live customer actually *joins*
    /// `RSL(q)` now that the written point is gone. Exact, not
    /// conservative: a joiner must have had the victim as its sole
    /// dominator of `q`, which (by transitivity of dynamic dominance)
    /// confines candidates to the victim's own reverse skyline — one
    /// reverse-skyline query per write bounds the set, then one
    /// membership probe per candidate confirms the join.
    fn delete_admits_into_rsl(&mut self, q: &Point) -> bool;
    /// Insert only: whether the written point breaks a cached case-C2
    /// MWQ optimum — it (weakly, within the verification tolerance)
    /// dynamically dominates the recorded `q*` w.r.t. the repaired
    /// `c*`, so the repair is no longer feasible. A still-feasible
    /// optimum stays optimal: inserts only add constraints, so no
    /// candidate can get cheaper. Pure arithmetic — never charged
    /// against the probe budget.
    fn insert_breaks_candidate(&self, q_star: &Point, c_star: &Point) -> bool;
    /// Delete only: whether removing the written point could unblock a
    /// repair for customer `c` cheaper than `cost_bar` (Eqn 11)
    /// against *some* candidate query position inside `sr_bb` — the
    /// victim's [`wnrs_geometry::release_region`] contains a position
    /// at or below the cached cost. Pure arithmetic — never charged
    /// against the probe budget.
    fn delete_unblocks_cheaper(&self, c: &Point, sr_bb: &Rect, cost_bar: f64) -> bool;
    /// Whether the per-write probe budget has been exhausted.
    fn over_budget(&self) -> bool;
}

/// One customer's lazily materialised k-sampled dynamic skyline: the
/// flat transformed-space coordinates (the exact
/// [`wnrs_skyline::approx::approx_dsl_sample_into`] output the eager
/// [`crate::ApproxDslStore`] would hold for this customer) plus its
/// [`crate::safe_region::entry_fingerprint`]. Unlike the eager store —
/// an immutable snapshot identified wholesale by its fingerprint —
/// these entries track the *live* tree, so surgical invalidation must
/// evict them exactly like the exact per-customer DSLs.
#[derive(Debug, Clone)]
pub struct DslSampleEntry {
    /// Flat transformed-space sample coordinates (`len * dim` f64s).
    pub coords: Vec<f64>,
    /// Content hash of the sample (see
    /// [`crate::safe_region::entry_fingerprint`]).
    pub fingerprint: u64,
}

/// A reverse-skyline entry: the members plus the query point they
/// answer for (needed by surgical eviction's dominance tests).
struct RslEntry {
    q: Point,
    items: SharedItems,
}

/// A culprit-window entry: the culprits plus the window anchor.
struct LambdaEntry {
    anchor: Point,
    culprits: SharedCulprits,
}

/// A safe-region entry: the region plus the reverse-skyline ids it was
/// built from. Callers may pass RSL prefixes to `safe_region_for`, so
/// a hit requires the ids to match, not just the query point — and the
/// same id list doubles as the entry's dependency set under surgical
/// invalidation.
#[derive(Debug)]
pub struct SrEntry {
    rsl_ids: Vec<u32>,
    /// The memoised safe region.
    pub region: Region,
}

/// A full-pipeline MWQ answer plus its recorded dependencies: the
/// query point, the reverse-skyline ids the safe region was built
/// from, and the safe region's bounding box (every candidate query
/// position Algorithm 4 ranged over lies inside it).
struct MwqEntry {
    q: Point,
    deps: Vec<u32>,
    sr_bb: Rect,
    answer: Arc<MwqAnswer>,
}

struct CacheState {
    generation: u64,
    dsl: HashMap<u32, SharedItems>,
    /// Lazily materialised k-sampled DSLs, keyed `(customer id, k)`.
    dsl_sample: HashMap<(u32, usize), Arc<DslSampleEntry>>,
    addr: HashMap<AddrKey, Arc<Region>>,
    rsl: HashMap<CoordKey, RslEntry>,
    lambda: HashMap<PairKey, LambdaEntry>,
    sr_exact: HashMap<CoordKey, Arc<SrEntry>>,
    sr_approx: HashMap<SrApproxKey, Arc<SrEntry>>,
    mwq: HashMap<PairKey, MwqEntry>,
}

impl CacheState {
    fn empty() -> Self {
        CacheState {
            generation: 0,
            dsl: HashMap::new(),
            dsl_sample: HashMap::new(),
            addr: HashMap::new(),
            rsl: HashMap::new(),
            lambda: HashMap::new(),
            sr_exact: HashMap::new(),
            sr_approx: HashMap::new(),
            mwq: HashMap::new(),
        }
    }

    fn flush(&mut self) {
        self.dsl.clear();
        self.dsl_sample.clear();
        self.addr.clear();
        self.rsl.clear();
        self.lambda.clear();
        self.sr_exact.clear();
        self.sr_approx.clear();
        self.mwq.clear();
    }
}

/// The engine-side cross-query cache. Thread-safe: lookups take a read
/// lock, fills a write lock, and the parallel batch paths share one
/// instance across workers.
pub struct EngineCache {
    config: CacheConfig,
    generation: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
    partial_invalidations: AtomicU64,
    full_flushes: AtomicU64,
    dsl_evictions: AtomicU64,
    addr_evictions: AtomicU64,
    sr_evictions: AtomicU64,
    mwq_evictions: AtomicU64,
    stale_fills: AtomicU64,
    state: RwLock<CacheState>,
}

impl std::fmt::Debug for EngineCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCache")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

impl EngineCache {
    /// A fresh cache with the given capacities.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        EngineCache {
            config,
            generation: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            partial_invalidations: AtomicU64::new(0),
            full_flushes: AtomicU64::new(0),
            dsl_evictions: AtomicU64::new(0),
            addr_evictions: AtomicU64::new(0),
            sr_evictions: AtomicU64::new(0),
            mwq_evictions: AtomicU64::new(0),
            stale_fills: AtomicU64::new(0),
            state: RwLock::new(CacheState::empty()),
        }
    }

    /// The configured capacities.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The current generation (bumped by every dataset mutation).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// A snapshot of the behaviour counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            generation: self.generation(),
            partial_invalidations: self.partial_invalidations.load(Ordering::Relaxed),
            full_flushes: self.full_flushes.load(Ordering::Relaxed),
            dsl_evictions: self.dsl_evictions.load(Ordering::Relaxed),
            addr_evictions: self.addr_evictions.load(Ordering::Relaxed),
            sr_evictions: self.sr_evictions.load(Ordering::Relaxed),
            mwq_evictions: self.mwq_evictions.load(Ordering::Relaxed),
            stale_fills: self.stale_fills.load(Ordering::Relaxed),
        }
    }

    /// Bumps the generation and flushes every map in one critical
    /// section — the engine's mutation path for universe growth and
    /// compaction, and surgical invalidation's fallback for
    /// over-budget writes. Entries filled under the old generation can never be
    /// observed afterwards.
    pub fn invalidate(&self) {
        let mut state = self.write_state();
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        state.generation = generation;
        state.flush();
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        self.full_flushes.fetch_add(1, Ordering::Relaxed);
        wnrs_obs::record(Counter::CacheInvalidations);
        wnrs_obs::record(Counter::CacheFullFlushes);
    }

    /// Surgically invalidates the entries the write can perturb,
    /// bumping the generation like [`EngineCache::invalidate`] but
    /// keeping every entry the write provably cannot reach. Falls back
    /// to a full flush when the probe budget is exhausted. The engine
    /// must apply the index mutation *before* calling this, so the
    /// membership probes observe the post-write world.
    pub fn invalidate_surgical(&self, ev: &WriteEvent<'_>, probes: &mut dyn WriteProbes) {
        let mut state = self.write_state();
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        state.generation = generation;
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        wnrs_obs::record(Counter::CacheInvalidations);

        // Seed affected-verdicts from cached dynamic skylines first:
        // an insert leaves DSL(c) unchanged iff an existing member
        // dynamically dominates the new point (a "shield"); a delete
        // changes DSL(c) iff the victim was a member. Both are exact
        // and need no index probe. The customer's own tuple is always
        // excluded from its DSL, so a write of c itself never affects
        // DSL(c).
        for (&id, members) in &state.dsl {
            let verdict = if id == ev.id {
                false
            } else {
                match ev.kind {
                    WriteKind::Insert => !members
                        .iter()
                        .any(|(_, m)| dominates_dyn(m, ev.point, probes.customer(id))),
                    WriteKind::Delete => members.iter().any(|(m, _)| m.0 == ev.id),
                }
            };
            probes.seed_affected(id, verdict);
        }

        let mut dsl_dropped = 0u64;
        state.dsl.retain(|&id, _| {
            if probes.affected(id) {
                dsl_dropped += 1;
                false
            } else {
                true
            }
        });

        // Lazily materialised samples track the live tree like the
        // exact DSLs, so they share the same affected-customer verdict.
        // (A k-sample of an unchanged DSL is unchanged: sampling is a
        // pure function of the frontier.)
        state.dsl_sample.retain(|&(id, _), _| {
            if probes.affected(id) {
                dsl_dropped += 1;
                false
            } else {
                true
            }
        });

        let mut addr_dropped = 0u64;
        state.addr.retain(|&(id, _, _), _| {
            if probes.affected(id) {
                addr_dropped += 1;
                false
            } else {
                true
            }
        });

        // Λ(anchor, c) is a plain window result, so a write perturbs it
        // in exactly one way — an insert adds the written tuple iff it
        // dynamically dominates the anchor w.r.t. c, a delete removes
        // the victim's tuple — and the entry is *repaired in place*
        // rather than evicted, keeping the map hot. A delete of c
        // itself is a no-op: the customer's own tuple was excluded
        // from its windows all along. The block keeps ascending-id
        // order, so repaired entries stay bit-identical to a
        // recomputation.
        for (&(_, c_id), entry) in &mut state.lambda {
            if c_id == ev.id {
                continue;
            }
            let id = ItemId(ev.id);
            match ev.kind {
                WriteKind::Insert => {
                    if dominates_dyn(ev.point, &entry.anchor, probes.customer(c_id)) {
                        Arc::make_mut(&mut entry.culprits).insert(id, ev.point.coords());
                    }
                }
                WriteKind::Delete => {
                    if entry.culprits.ids().binary_search(&id).is_ok() {
                        Arc::make_mut(&mut entry.culprits).remove(id);
                    }
                }
            }
        }

        // RSL(q): an insert evicts a member it dominates out, or joins
        // itself; a delete evicts its own membership, or a customer it
        // alone was shielding that now joins (exact, memoised per q).
        let mut sr_dropped = 0u64;
        state.rsl.retain(|_, entry| {
            let moved = match ev.kind {
                WriteKind::Insert => {
                    entry
                        .items
                        .iter()
                        .any(|(_, c)| dominates_dyn(ev.point, &entry.q, c))
                        || probes.insert_joins_rsl(&entry.q)
                }
                WriteKind::Delete => {
                    entry.items.iter().any(|(m, _)| m.0 == ev.id)
                        || probes.delete_admits_into_rsl(&entry.q)
                }
            };
            if moved {
                sr_dropped += 1;
            }
            !moved
        });

        // Exact SR(q) depends only on its recorded reverse-skyline
        // members' anti-DDRs (plus the universe, handled by the
        // engine's growth fallback); membership changes are caught at
        // lookup by the id filter against a freshly recomputed RSL.
        state.sr_exact.retain(|_, entry| {
            let touched = entry.rsl_ids.iter().any(|&id| probes.affected(id));
            if touched {
                sr_dropped += 1;
            }
            !touched
        });

        // Approximate SR(q) entries derive from an immutable sampled
        // store snapshot (fingerprint-keyed) and customer locations,
        // not live dynamic skylines: writes never stale them, and
        // membership changes are caught by the lookup id filter.

        // MWQ answers fall with an affected customer (its anti-DDR
        // moved) or dependency (the safe region moved), or a membership
        // change of RSL(q) — a write dominating `q` out from under a
        // member, a join, or (delete) an exact admitted join. Beyond
        // membership, a write touches a cached repair only two ways:
        // an *insert* that breaks the recorded optimum `c*` (it landed
        // inside the culprit window `Λ(c*, q*)`) — a surviving optimum
        // stays optimal, since inserts only add constraints and never
        // cheapen Algorithm 1's staircase — or a *delete* whose victim
        // sat inside `Λ(c, q*)` or whose release region against the
        // safe region's bounding box admits a repair at or below the
        // cached cost (deletes only remove constraints, so anything
        // the victim wasn't blocking stands; the floor also covers
        // verification flips of equal-cost candidates).
        let mut mwq_dropped = 0u64;
        state.mwq.retain(|&(_, c_id), entry| {
            let touched = probes.affected(c_id)
                || entry.deps.iter().any(|&d| probes.affected(d))
                || match ev.kind {
                    WriteKind::Insert => {
                        entry
                            .deps
                            .iter()
                            .any(|&d| dominates_dyn(ev.point, &entry.q, probes.customer(d)))
                            || probes.insert_joins_rsl(&entry.q)
                            || entry.answer.c_star.as_ref().is_some_and(|c| {
                                probes.insert_breaks_candidate(&entry.answer.q_star, &c.point)
                            })
                    }
                    WriteKind::Delete => {
                        entry.deps.contains(&ev.id)
                            || probes.delete_admits_into_rsl(&entry.q)
                            || (entry.answer.c_star.is_some()
                                && ((c_id != ev.id
                                    && dominates_dyn(
                                        ev.point,
                                        &entry.answer.q_star,
                                        probes.customer(c_id),
                                    ))
                                    || probes.delete_unblocks_cheaper(
                                        probes.customer(c_id),
                                        &entry.sr_bb,
                                        entry.answer.cost,
                                    )))
                    }
                };
            if touched {
                mwq_dropped += 1;
            }
            !touched
        });

        if probes.over_budget() {
            // Blast radius too large: the conservative verdicts above
            // already evicted soundly, but the remaining maps were
            // judged with degraded precision — drop everything and
            // account the write as a full flush.
            state.flush();
            self.full_flushes.fetch_add(1, Ordering::Relaxed);
            wnrs_obs::record(Counter::CacheFullFlushes);
            return;
        }

        self.partial_invalidations.fetch_add(1, Ordering::Relaxed);
        self.dsl_evictions.fetch_add(dsl_dropped, Ordering::Relaxed);
        self.addr_evictions
            .fetch_add(addr_dropped, Ordering::Relaxed);
        self.sr_evictions.fetch_add(sr_dropped, Ordering::Relaxed);
        self.mwq_evictions.fetch_add(mwq_dropped, Ordering::Relaxed);
        wnrs_obs::record(Counter::CachePartialInvalidations);
        wnrs_obs::record_n(Counter::CacheEvictionsDsl, dsl_dropped);
        wnrs_obs::record_n(Counter::CacheEvictionsAntiDdr, addr_dropped);
        wnrs_obs::record_n(Counter::CacheEvictionsSr, sr_dropped);
        wnrs_obs::record_n(Counter::CacheEvictionsMwq, mwq_dropped);
    }

    // ------------------------------------------------------------------
    // Lock plumbing
    // ------------------------------------------------------------------

    // A poisoned lock means a panic mid-fill on another thread; the
    // cache holds only derived data, so continuing with the inner state
    // is sound (fills insert fully-built Arcs, never torn entries).
    fn read_state(&self) -> RwLockReadGuard<'_, CacheState> {
        match self.state.read() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn write_state(&self) -> RwLockWriteGuard<'_, CacheState> {
        match self.state.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Counts the lookup outcome (and forwards it to `wnrs-obs`), then
    /// passes the value through.
    fn counted<T>(&self, found: Option<T>) -> Option<T> {
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            wnrs_obs::record(Counter::CacheHits);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            wnrs_obs::record(Counter::CacheMisses);
        }
        found
    }

    /// Shared guard logic for every lookup: a generation mismatch is a
    /// miss (defence in depth — both invalidation paths update the
    /// state's generation eagerly, so under the engine's `&mut`
    /// mutation discipline the branch never fires).
    fn guarded<'s, T>(&self, state: &'s CacheState, value: Option<&'s T>) -> Option<&'s T> {
        if state.generation != self.generation.load(Ordering::Acquire) {
            return None;
        }
        value
    }

    /// Stale-fill protection: a fill computed under `expected_gen` may
    /// only land while the state is still at that generation. If a
    /// writer invalidated in between (possible only with concurrent
    /// readers — the engine's `&mut` mutation discipline serialises
    /// this away single-threaded), the maps were already flushed for
    /// the new generation; inserting the stale value afterwards would
    /// resurrect a pre-write answer whose generation tag looks current
    /// (an ABA the lookup-side `guarded` check cannot catch). Dropped
    /// fills are counted in [`CacheStats::stale_fills`].
    fn fill_allowed(&self, state: &CacheState, expected_gen: u64) -> bool {
        if state.generation == expected_gen {
            return true;
        }
        self.stale_fills.fetch_add(1, Ordering::Relaxed);
        wnrs_obs::record(Counter::CacheStaleFills);
        false
    }

    /// Pre-insert capacity check: flushes `map` when full, counting the
    /// dropped entries as evictions.
    fn make_room<K, V>(&self, map: &mut HashMap<K, V>, capacity: usize) {
        if map.len() >= capacity {
            let dropped = map.len() as u64;
            map.clear();
            self.evictions.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    // ------------------------------------------------------------------
    // Per-customer entries
    // ------------------------------------------------------------------

    /// The memoised dynamic skyline of customer `id` (own tuple
    /// excluded), if present.
    #[must_use]
    pub fn get_dsl(&self, id: u32) -> Option<SharedItems> {
        let state = self.read_state();
        self.counted(self.guarded(&state, state.dsl.get(&id)).map(Arc::clone))
    }

    /// Stores the dynamic skyline of customer `id`, returning the
    /// shared handle.
    ///
    /// `expected_gen` must be [`EngineCache::generation`] sampled
    /// before the lookup that missed; the fill is dropped (and the
    /// computed value simply returned to the caller) if the dataset
    /// generation moved in between. Every `put_*` method follows this
    /// contract.
    pub fn put_dsl(&self, expected_gen: u64, id: u32, dsl: Vec<(ItemId, Point)>) -> SharedItems {
        let shared = Arc::new(dsl);
        let mut state = self.write_state();
        if self.fill_allowed(&state, expected_gen) {
            self.make_room(&mut state.dsl, self.config.customer_capacity);
            state.dsl.insert(id, Arc::clone(&shared));
        }
        shared
    }

    /// The lazily materialised k-sampled DSL of customer `id` for
    /// sample size `k`, if present. A hit additionally counts towards
    /// the `dsl_lazy_hits` observability counter.
    #[must_use]
    pub fn get_dsl_sample(&self, id: u32, k: usize) -> Option<Arc<DslSampleEntry>> {
        let state = self.read_state();
        let found = self.counted(
            self.guarded(&state, state.dsl_sample.get(&(id, k)))
                .map(Arc::clone),
        );
        if found.is_some() {
            wnrs_obs::record(Counter::DslLazyHits);
        }
        found
    }

    /// Stores a lazily materialised k-sampled DSL, returning the shared
    /// handle (generation-checked, see [`EngineCache::put_dsl`]).
    pub fn put_dsl_sample(
        &self,
        expected_gen: u64,
        id: u32,
        k: usize,
        entry: DslSampleEntry,
    ) -> Arc<DslSampleEntry> {
        let shared = Arc::new(entry);
        let mut state = self.write_state();
        if self.fill_allowed(&state, expected_gen) {
            self.make_room(&mut state.dsl_sample, self.config.customer_capacity);
            state.dsl_sample.insert((id, k), Arc::clone(&shared));
        }
        shared
    }

    /// The memoised anti-DDR for an [`AddrKey`], if present.
    #[must_use]
    pub fn get_addr(&self, key: &AddrKey) -> Option<Arc<Region>> {
        let state = self.read_state();
        self.counted(self.guarded(&state, state.addr.get(key)).map(Arc::clone))
    }

    /// Stores an anti-DDR region, returning the shared handle
    /// (generation-checked, see [`EngineCache::put_dsl`]).
    pub fn put_addr(&self, expected_gen: u64, key: AddrKey, region: Region) -> Arc<Region> {
        let shared = Arc::new(region);
        let mut state = self.write_state();
        if self.fill_allowed(&state, expected_gen) {
            self.make_room(&mut state.addr, self.config.customer_capacity);
            state.addr.insert(key, Arc::clone(&shared));
        }
        shared
    }

    // ------------------------------------------------------------------
    // Per-query entries
    // ------------------------------------------------------------------

    /// The memoised reverse skyline of a query point, if present.
    #[must_use]
    pub fn get_rsl(&self, q_key: &CoordKey) -> Option<SharedItems> {
        let state = self.read_state();
        self.counted(
            self.guarded(&state, state.rsl.get(q_key))
                .map(|e| Arc::clone(&e.items)),
        )
    }

    /// Stores a reverse skyline for query point `q`, returning the
    /// shared handle. The point rides along so surgical eviction can
    /// run dominance tests without reconstructing it from the key.
    pub fn put_rsl(
        &self,
        expected_gen: u64,
        q_key: CoordKey,
        q: Point,
        rsl: Vec<(ItemId, Point)>,
    ) -> SharedItems {
        let shared = Arc::new(rsl);
        let mut state = self.write_state();
        if self.fill_allowed(&state, expected_gen) {
            self.make_room(&mut state.rsl, self.config.query_capacity);
            state.rsl.insert(
                q_key,
                RslEntry {
                    q,
                    items: Arc::clone(&shared),
                },
            );
        }
        shared
    }

    /// The memoised exact safe region for a query point, if present
    /// *and* built from exactly the reverse-skyline ids in `rsl_ids`.
    #[must_use]
    pub fn get_sr_exact(&self, q_key: &CoordKey, rsl_ids: &[u32]) -> Option<Arc<SrEntry>> {
        let state = self.read_state();
        self.counted(
            self.guarded(&state, state.sr_exact.get(q_key))
                .filter(|e| e.rsl_ids == rsl_ids)
                .map(Arc::clone),
        )
    }

    /// Stores an exact safe region, returning the shared entry
    /// (generation-checked, see [`EngineCache::put_dsl`]).
    pub fn put_sr_exact(
        &self,
        expected_gen: u64,
        q_key: CoordKey,
        rsl_ids: Vec<u32>,
        region: Region,
    ) -> Arc<SrEntry> {
        let shared = Arc::new(SrEntry { rsl_ids, region });
        let mut state = self.write_state();
        if self.fill_allowed(&state, expected_gen) {
            self.make_room(&mut state.sr_exact, self.config.query_capacity);
            state.sr_exact.insert(q_key, Arc::clone(&shared));
        }
        shared
    }

    /// The memoised approximate safe region for an [`SrApproxKey`], if
    /// present and built from `rsl_ids`.
    #[must_use]
    pub fn get_sr_approx(&self, key: &SrApproxKey, rsl_ids: &[u32]) -> Option<Arc<SrEntry>> {
        let state = self.read_state();
        self.counted(
            self.guarded(&state, state.sr_approx.get(key))
                .filter(|e| e.rsl_ids == rsl_ids)
                .map(Arc::clone),
        )
    }

    /// Stores an approximate safe region, returning the shared entry
    /// (generation-checked, see [`EngineCache::put_dsl`]).
    pub fn put_sr_approx(
        &self,
        expected_gen: u64,
        key: SrApproxKey,
        rsl_ids: Vec<u32>,
        region: Region,
    ) -> Arc<SrEntry> {
        let shared = Arc::new(SrEntry { rsl_ids, region });
        let mut state = self.write_state();
        if self.fill_allowed(&state, expected_gen) {
            self.make_room(&mut state.sr_approx, self.config.query_capacity);
            state.sr_approx.insert(key, Arc::clone(&shared));
        }
        shared
    }

    // ------------------------------------------------------------------
    // Per-(anchor, customer) entries
    // ------------------------------------------------------------------

    /// The memoised culprit window `Λ` for a [`PairKey`], if present.
    #[must_use]
    pub fn get_lambda(&self, key: &PairKey) -> Option<SharedCulprits> {
        let state = self.read_state();
        self.counted(
            self.guarded(&state, state.lambda.get(key))
                .map(|e| Arc::clone(&e.culprits)),
        )
    }

    /// Stores a culprit window anchored at `anchor`, returning the
    /// shared handle (generation-checked, see [`EngineCache::put_dsl`]).
    pub fn put_lambda(
        &self,
        expected_gen: u64,
        key: PairKey,
        anchor: Point,
        lambda: CulpritBlock,
    ) -> SharedCulprits {
        let shared = Arc::new(lambda);
        let mut state = self.write_state();
        if self.fill_allowed(&state, expected_gen) {
            self.make_room(&mut state.lambda, self.config.lambda_capacity);
            state.lambda.insert(
                key,
                LambdaEntry {
                    anchor,
                    culprits: Arc::clone(&shared),
                },
            );
        }
        shared
    }

    /// The memoised full-pipeline MWQ answer for a [`PairKey`], if
    /// present. Only the engine's `mwq_full`/`mwq_batch` paths — where
    /// the safe region is known to be the full-RSL `SR(q)` — read or
    /// fill this map; `mwq` against a caller-supplied region never
    /// does.
    #[must_use]
    pub fn get_mwq(&self, key: &PairKey) -> Option<Arc<MwqAnswer>> {
        let state = self.read_state();
        self.counted(
            self.guarded(&state, state.mwq.get(key))
                .map(|e| Arc::clone(&e.answer)),
        )
    }

    /// Stores a full-pipeline MWQ answer with its dependency metadata
    /// (query point, reverse-skyline ids, and the safe region's
    /// bounding box), returning the shared handle (generation-checked,
    /// see [`EngineCache::put_dsl`]).
    pub fn put_mwq(
        &self,
        expected_gen: u64,
        key: PairKey,
        q: Point,
        deps: Vec<u32>,
        sr_bb: Rect,
        answer: MwqAnswer,
    ) -> Arc<MwqAnswer> {
        let shared = Arc::new(answer);
        let mut state = self.write_state();
        if self.fill_allowed(&state, expected_gen) {
            self.make_room(&mut state.mwq, self.config.query_capacity);
            state.mwq.insert(
                key,
                MwqEntry {
                    q,
                    deps,
                    sr_bb,
                    answer: Arc::clone(&shared),
                },
            );
        }
        shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(x: f64, y: f64) -> CoordKey {
        CoordKey::of_point(&Point::xy(x, y))
    }

    /// A scripted [`WriteProbes`] for unit-testing the eviction passes
    /// without an index: unseeded customers and query probes answer
    /// from fixed maps, counting "index probes" against the budget.
    struct MockProbes {
        customers: Vec<Point>,
        seeded: HashMap<u32, bool>,
        affected_fallback: bool,
        joins: bool,
        releases: bool,
        breaks: bool,
        unblocks: bool,
        probes_used: usize,
        budget: usize,
    }

    impl MockProbes {
        fn new(customers: Vec<Point>) -> Self {
            MockProbes {
                customers,
                seeded: HashMap::new(),
                affected_fallback: false,
                joins: false,
                releases: false,
                breaks: false,
                unblocks: false,
                probes_used: 0,
                budget: 64,
            }
        }
    }

    impl WriteProbes for MockProbes {
        fn customer(&self, id: u32) -> &Point {
            &self.customers[id as usize]
        }
        fn seed_affected(&mut self, id: u32, affected: bool) {
            self.seeded.insert(id, affected);
        }
        fn affected(&mut self, id: u32) -> bool {
            if let Some(&v) = self.seeded.get(&id) {
                return v;
            }
            self.probes_used += 1;
            self.affected_fallback
        }
        fn insert_joins_rsl(&mut self, _q: &Point) -> bool {
            self.probes_used += 1;
            self.joins
        }
        fn delete_admits_into_rsl(&mut self, _q: &Point) -> bool {
            self.probes_used += 1;
            self.releases
        }
        fn insert_breaks_candidate(&self, _q_star: &Point, _c_star: &Point) -> bool {
            self.breaks
        }
        fn delete_unblocks_cheaper(&self, _c: &Point, _sr_bb: &Rect, _cost_bar: f64) -> bool {
            self.unblocks
        }
        fn over_budget(&self) -> bool {
            self.probes_used > self.budget
        }
    }

    #[test]
    fn miss_then_hit_then_invalidate() {
        let cache = EngineCache::new(CacheConfig::default());
        let k = key(1.0, 2.0);
        assert!(cache.get_rsl(&k).is_none());
        cache.put_rsl(
            cache.generation(),
            k.clone(),
            Point::xy(1.0, 2.0),
            vec![(ItemId(3), Point::xy(9.0, 9.0))],
        );
        let got = cache.get_rsl(&k).expect("filled entry hits");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, ItemId(3));

        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.generation, 0);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);

        cache.invalidate();
        assert!(cache.get_rsl(&k).is_none(), "flushed on invalidation");
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.full_flushes, 1);
        assert_eq!(stats.generation, 1);
    }

    #[test]
    fn negative_zero_keys_unify() {
        let cache = EngineCache::new(CacheConfig::default());
        cache.put_rsl(
            cache.generation(),
            key(-0.0, 5.0),
            Point::xy(-0.0, 5.0),
            vec![],
        );
        assert!(cache.get_rsl(&key(0.0, 5.0)).is_some());
    }

    #[test]
    fn sr_entry_requires_matching_rsl_ids() {
        let cache = EngineCache::new(CacheConfig::default());
        let k = key(3.0, 4.0);
        let region = Region::from_rect(Rect::new(Point::xy(0.0, 0.0), Point::xy(1.0, 1.0)));
        cache.put_sr_exact(cache.generation(), k.clone(), vec![1, 2, 5], region);
        assert!(cache.get_sr_exact(&k, &[1, 2, 5]).is_some());
        assert!(
            cache.get_sr_exact(&k, &[1, 2]).is_none(),
            "an RSL-prefix call must not reuse the full-RSL region"
        );
    }

    #[test]
    fn capacity_overflow_flushes_and_counts_evictions() {
        let cache = EngineCache::new(CacheConfig {
            query_capacity: 2,
            lambda_capacity: 2,
            customer_capacity: 2,
            ..CacheConfig::default()
        });
        cache.put_rsl(
            cache.generation(),
            key(0.0, 0.0),
            Point::xy(0.0, 0.0),
            vec![],
        );
        cache.put_rsl(
            cache.generation(),
            key(1.0, 0.0),
            Point::xy(1.0, 0.0),
            vec![],
        );
        // Third insert overflows: the map flushes first.
        cache.put_rsl(
            cache.generation(),
            key(2.0, 0.0),
            Point::xy(2.0, 0.0),
            vec![],
        );
        assert!(cache.get_rsl(&key(0.0, 0.0)).is_none());
        assert!(cache.get_rsl(&key(2.0, 0.0)).is_some());
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn lambda_keys_are_per_customer() {
        let cache = EngineCache::new(CacheConfig::default());
        let mut lambda = CulpritBlock::new(2);
        lambda.insert(ItemId(0), &[0.5, 0.5]);
        cache.put_lambda(
            cache.generation(),
            (key(1.0, 1.0), 7),
            Point::xy(1.0, 1.0),
            lambda,
        );
        assert!(cache.get_lambda(&(key(1.0, 1.0), 7)).is_some());
        assert!(cache.get_lambda(&(key(1.0, 1.0), 8)).is_none());
    }

    #[test]
    fn generation_mismatch_is_a_miss() {
        // Exercise the defence-in-depth branch directly: bump the
        // counter without flushing (simulating a racy writer).
        let cache = EngineCache::new(CacheConfig::default());
        cache.put_rsl(
            cache.generation(),
            key(1.0, 1.0),
            Point::xy(1.0, 1.0),
            vec![],
        );
        cache.generation.fetch_add(1, Ordering::AcqRel);
        assert!(cache.get_rsl(&key(1.0, 1.0)).is_none());
    }

    #[test]
    fn stale_fill_is_dropped_after_intervening_invalidation() {
        // The threadless replay of the fill/invalidate race: a reader
        // samples the generation, misses, computes — and a writer
        // invalidates before the fill lands. Without the generation
        // check the insert would resurrect a pre-write answer whose
        // state generation looks current.
        let cache = EngineCache::new(CacheConfig::default());
        let k = key(1.0, 1.0);
        let expected_gen = cache.generation();
        assert!(cache.get_rsl(&k).is_none());

        cache.invalidate(); // the racing writer lands first

        let returned = cache.put_rsl(
            expected_gen,
            k.clone(),
            Point::xy(1.0, 1.0),
            vec![(ItemId(3), Point::xy(9.0, 9.0))],
        );
        assert_eq!(returned.len(), 1, "the caller still gets its own value");
        assert!(
            cache.get_rsl(&k).is_none(),
            "the stale fill must not be served to later readers"
        );
        assert_eq!(cache.stats().stale_fills, 1);

        // A fill at the *current* generation lands normally.
        cache.put_rsl(cache.generation(), k.clone(), Point::xy(1.0, 1.0), vec![]);
        assert!(cache.get_rsl(&k).is_some());
        assert_eq!(cache.stats().stale_fills, 1);
    }

    #[test]
    fn surgical_insert_keeps_shielded_dsl_and_evicts_unshielded() {
        // Customer 0 at the origin holds a DSL member at (1, 1).
        // Inserting (5, 5) is dynamically dominated by the member
        // (shielded: DSL unchanged); inserting (0.5, 0.5) is not.
        let cache = EngineCache::new(CacheConfig::default());
        let origin = Point::xy(0.0, 0.0);
        cache.put_dsl(
            cache.generation(),
            0,
            vec![(ItemId(1), Point::xy(1.0, 1.0))],
        );

        let mut probes = MockProbes::new(vec![origin.clone(), Point::xy(1.0, 1.0)]);
        let shielded = Point::xy(5.0, 5.0);
        cache.invalidate_surgical(
            &WriteEvent {
                kind: WriteKind::Insert,
                id: 2,
                point: &shielded,
            },
            &mut probes,
        );
        assert!(cache.get_dsl(0).is_some(), "shielded insert keeps DSL");

        let mut probes = MockProbes::new(vec![origin, Point::xy(1.0, 1.0)]);
        let unshielded = Point::xy(0.5, 0.5);
        cache.invalidate_surgical(
            &WriteEvent {
                kind: WriteKind::Insert,
                id: 3,
                point: &unshielded,
            },
            &mut probes,
        );
        assert!(cache.get_dsl(0).is_none(), "unshielded insert evicts DSL");
        let stats = cache.stats();
        assert_eq!(stats.partial_invalidations, 2);
        assert_eq!(stats.invalidations, 2);
        assert_eq!(stats.dsl_evictions, 1);
        assert_eq!(stats.generation, 2);
    }

    #[test]
    fn surgical_delete_evicts_dsl_containing_victim_only() {
        let cache = EngineCache::new(CacheConfig::default());
        cache.put_dsl(
            cache.generation(),
            0,
            vec![(ItemId(5), Point::xy(1.0, 1.0))],
        );
        cache.put_dsl(
            cache.generation(),
            1,
            vec![(ItemId(6), Point::xy(2.0, 2.0))],
        );
        let victim = Point::xy(1.0, 1.0);
        let mut probes = MockProbes::new(vec![
            Point::xy(0.0, 0.0),
            Point::xy(9.0, 9.0),
            Point::xy(0.0, 0.0),
            Point::xy(0.0, 0.0),
            Point::xy(0.0, 0.0),
            Point::xy(1.0, 1.0),
            Point::xy(2.0, 2.0),
        ]);
        cache.invalidate_surgical(
            &WriteEvent {
                kind: WriteKind::Delete,
                id: 5,
                point: &victim,
            },
            &mut probes,
        );
        assert!(cache.get_dsl(0).is_none(), "member delete evicts");
        assert!(cache.get_dsl(1).is_some(), "non-member delete keeps");
    }

    /// A block's ids and the bits of its coordinates, row by row.
    fn block_bits(block: &CulpritBlock) -> Vec<(u32, Vec<u64>)> {
        block
            .iter()
            .map(|(id, row)| (id.0, row.iter().map(|x| x.to_bits()).collect()))
            .collect()
    }

    #[test]
    fn surgical_lambda_repair_is_in_place() {
        // Λ anchored at (10, 10) for customer 0 at the origin: an
        // insert at (4, 4) dynamically dominates the anchor (closer to
        // c in both dims) and must join the block in id order, between
        // the culprits 3 and 12; for customer 1 at (100, 100) it does
        // not dominate and the block stays untouched. Deleting the
        // written tuple again must remove exactly it. No entry is ever
        // evicted.
        let cache = EngineCache::new(CacheConfig::default());
        let anchor = Point::xy(10.0, 10.0);
        let mut lambda = CulpritBlock::new(2);
        lambda.insert(ItemId(12), &[5.0, 5.0]);
        lambda.insert(ItemId(3), &[6.5, 0.25]);
        let before = block_bits(&lambda);
        cache.put_lambda(
            cache.generation(),
            (key(10.0, 10.0), 0),
            anchor.clone(),
            lambda,
        );
        cache.put_lambda(
            cache.generation(),
            (key(10.0, 10.0), 1),
            anchor,
            CulpritBlock::new(2),
        );

        let customers = vec![Point::xy(0.0, 0.0), Point::xy(100.0, 100.0)];
        let mut probes = MockProbes::new(customers.clone());
        let p = Point::xy(4.0, 4.0);
        cache.invalidate_surgical(
            &WriteEvent {
                kind: WriteKind::Insert,
                id: 9,
                point: &p,
            },
            &mut probes,
        );
        let repaired = cache
            .get_lambda(&(key(10.0, 10.0), 0))
            .expect("repaired, not evicted");
        let bits = |xs: [f64; 2]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            block_bits(&repaired),
            vec![
                (3, bits([6.5, 0.25])),
                (9, bits([4.0, 4.0])),
                (12, bits([5.0, 5.0]))
            ],
            "written tuple joins the window in ascending id order"
        );
        assert!(
            cache
                .get_lambda(&(key(10.0, 10.0), 1))
                .is_some_and(|block| block.is_empty()),
            "write outside the customer's window leaves the block alone"
        );

        let mut probes = MockProbes::new(customers);
        cache.invalidate_surgical(
            &WriteEvent {
                kind: WriteKind::Delete,
                id: 9,
                point: &p,
            },
            &mut probes,
        );
        let repaired = cache
            .get_lambda(&(key(10.0, 10.0), 0))
            .expect("still live after the delete");
        assert_eq!(
            block_bits(&repaired),
            before,
            "deleting the tuple removes exactly it"
        );
        assert_eq!(cache.stats().mwq_evictions, 0);
    }

    #[test]
    fn surgical_mwq_eviction_keys_off_the_cached_optimum() {
        use crate::answer::Candidate;
        use crate::mwq::MwqCase;

        // A case-C2 answer with a recorded optimum: writes that leave
        // the dependencies and the optimum alone keep the entry; one
        // breaking the repair's feasibility (insert) or unblocking a
        // cheaper repair (delete) evicts it.
        let cache = EngineCache::new(CacheConfig::default());
        let k = (key(3.0, 3.0), 0);
        let answer = MwqAnswer {
            case: MwqCase::Disjoint,
            q_star: Point::xy(3.0, 3.0),
            c_star: Some(Candidate {
                point: Point::xy(4.0, 4.0),
                cost: 0.25,
                verified: true,
            }),
            cost: 0.25,
        };
        let sr_bb = Rect::new(Point::xy(2.0, 2.0), Point::xy(6.0, 6.0));
        let fill = |cache: &EngineCache| {
            cache.put_mwq(
                cache.generation(),
                k.clone(),
                Point::xy(3.0, 3.0),
                vec![],
                sr_bb.clone(),
                answer.clone(),
            );
        };
        let customers = vec![Point::xy(9.0, 9.0)];
        let p = Point::xy(50.0, 50.0);

        fill(&cache);
        let mut probes = MockProbes::new(customers.clone());
        cache.invalidate_surgical(
            &WriteEvent {
                kind: WriteKind::Insert,
                id: 7,
                point: &p,
            },
            &mut probes,
        );
        assert!(
            cache.get_mwq(&k).is_some(),
            "benign insert keeps the answer"
        );

        let mut probes = MockProbes::new(customers.clone());
        probes.breaks = true;
        cache.invalidate_surgical(
            &WriteEvent {
                kind: WriteKind::Insert,
                id: 8,
                point: &p,
            },
            &mut probes,
        );
        assert!(
            cache.get_mwq(&k).is_none(),
            "an insert breaking the repair evicts"
        );

        fill(&cache);
        let mut probes = MockProbes::new(customers);
        probes.unblocks = true;
        cache.invalidate_surgical(
            &WriteEvent {
                kind: WriteKind::Delete,
                id: 9,
                point: &p,
            },
            &mut probes,
        );
        assert!(
            cache.get_mwq(&k).is_none(),
            "a delete unblocking a cheaper repair evicts"
        );
    }

    #[test]
    fn over_budget_write_falls_back_to_full_flush() {
        let cache = EngineCache::new(CacheConfig::default());
        cache.put_rsl(
            cache.generation(),
            key(1.0, 1.0),
            Point::xy(1.0, 1.0),
            vec![],
        );
        cache.put_dsl(
            cache.generation(),
            0,
            vec![(ItemId(1), Point::xy(1.0, 1.0))],
        );
        let mut probes = MockProbes::new(vec![Point::xy(0.0, 0.0), Point::xy(1.0, 1.0)]);
        probes.budget = 0;
        let p = Point::xy(50.0, 50.0);
        cache.invalidate_surgical(
            &WriteEvent {
                kind: WriteKind::Insert,
                id: 2,
                point: &p,
            },
            &mut probes,
        );
        assert!(cache.get_rsl(&key(1.0, 1.0)).is_none());
        assert!(cache.get_dsl(0).is_none());
        let stats = cache.stats();
        assert_eq!(stats.full_flushes, 1);
        assert_eq!(stats.partial_invalidations, 0);
        assert_eq!(stats.invalidations, 1);
    }
}
