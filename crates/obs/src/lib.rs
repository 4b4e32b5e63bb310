//! # wnrs-obs — zero-dependency query observability
//!
//! Spans, counters, latency histograms and exporters for the why-not
//! reverse-skyline pipeline. The crate is deliberately dependency-free
//! (the workspace builds offline; see `vendor/README.md`) and follows
//! the same compile-time gating discipline as `invariant-checks`:
//!
//! * **without** the `enabled` feature, every recording function is an
//!   empty `#[inline]` stub and [`span!`] expands to a zero-sized guard
//!   with no `Drop` impl — instrumented hot paths pay nothing;
//! * **with** `enabled` (forwarded by the `obs` feature of each
//!   workspace crate), a global registry of relaxed atomics collects
//!   monotonic counters, per-span latency histograms, and per-span
//!   counter attribution.
//!
//! ## Spans
//!
//! ```
//! fn phase() -> u64 {
//!     let _span = wnrs_obs::span!("example_phase");
//!     wnrs_obs::record(wnrs_obs::Counter::DominanceTests);
//!     42
//! } // span duration recorded here, on drop
//!
//! assert_eq!(phase(), 42);
//! let report = wnrs_obs::report();
//! // With the `enabled` feature the report now carries the span;
//! // without it, the report is empty — either way the API is the same.
//! let _json = report.to_json();
//! ```
//!
//! Span statistics are *inclusive*: counter increments inside nested
//! spans are attributed to every enclosing span, like inclusive time
//! in a profiler. Aggregation is global (across threads); the optional
//! trace buffer ([`set_trace`]/[`take_trace`]) is thread-local and
//! meant for single-threaded query debugging.
//!
//! ## The workspace's one counter system
//!
//! Every hot-path hook in the workspace (node visits, heap pushes,
//! dominance tests, transforms, batched kernel calls) calls [`record`]
//! or [`record_n`] directly; there is no second, thread-local layer.
//! Per-query numbers are [`counter_value`] differences or span
//! attribution; `docs/OBSERVABILITY.md` documents the full
//! report/exporter pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod report;

#[cfg(feature = "enabled")]
mod imp;

pub use report::{
    render_trace, CounterSnapshot, GaugeSnapshot, Report, SpanSnapshot, TraceEvent, JSON_SCHEMA,
};

/// The global monotonic counters the pipeline records. Variants map
/// 1:1 onto the cost metrics of the paper's Section 7 experiments plus
/// the safe-region machinery added in later PRs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Point/rectangle dominance comparisons (`dominates_*` in
    /// `wnrs-geometry`).
    DominanceTests = 0,
    /// R-tree node accesses (paper metric "node accesses" / I/O proxy).
    NodeVisits = 1,
    /// Priority-queue pushes in best-first traversals (BBS/BBRS).
    HeapPushes = 2,
    /// Point transforms into query-centric space (Eqn 1).
    Transforms = 3,
    /// Window queries issued during reverse-skyline verification.
    WindowQueries = 4,
    /// Safe-region candidate boxes discarded by pruning/containment.
    SrBoxesPruned = 5,
    /// Cross-query engine-cache lookups served from the cache.
    CacheHits = 6,
    /// Cross-query engine-cache lookups that had to compute.
    CacheMisses = 7,
    /// Engine-cache generation bumps (dataset insert/delete).
    CacheInvalidations = 8,
    /// Buffer-pool page reads served from a resident frame.
    PoolHits = 9,
    /// Buffer-pool page reads that went to the backing pager.
    PoolMisses = 10,
    /// Per-customer dynamic-skyline entries dropped by surgical
    /// invalidation (a write changed `DSL(c)`).
    CacheEvictionsDsl = 11,
    /// Anti-DDR entries dropped because their customer was affected.
    CacheEvictionsAntiDdr = 12,
    /// Reverse-skyline / safe-region entries dropped because a recorded
    /// dependency customer was affected or the membership set moved.
    CacheEvictionsSr = 13,
    /// MWQ answers dropped because the write touched their dependency
    /// set, membership, or cached optimum (culprit windows are
    /// repaired in place, never evicted).
    CacheEvictionsMwq = 14,
    /// Writes handled by surgical (partial) invalidation.
    CachePartialInvalidations = 15,
    /// Writes (or capacity/consistency events) that flushed every map.
    CacheFullFlushes = 16,
    /// Cache fills dropped because the dataset generation moved between
    /// the miss and the store (concurrent readers only; see
    /// `EngineCache` stale-fill protection).
    CacheStaleFills = 17,
    /// Sampled dynamic skylines computed on demand by the lazy DSL
    /// store (first touch of a customer since the last eviction).
    DslLazyMaterializations = 18,
    /// Lazy DSL store lookups served from a memoized per-customer
    /// sample.
    DslLazyHits = 19,
    /// Logical page reads against the buffer pool (hits + misses) — the
    /// paper's per-query I/O metric for the page-resident pipeline.
    PagesReadLogical = 20,
    /// Requests decoded and admitted by `wnrs-server` (every opcode,
    /// whether it later succeeds, sheds, or times out).
    ServerRequests = 21,
    /// Server responses with an `Ok` status.
    ServerResponsesOk = 22,
    /// Server responses with an error status other than overload or
    /// deadline (bad request, unsupported, internal).
    ServerErrors = 23,
    /// Requests shed with an explicit `Overload` response because the
    /// bounded request queue was full (admission control, never a
    /// silent drop).
    ServerShedQueueFull = 24,
    /// Requests answered `DeadlineExceeded` because they aged past the
    /// per-request deadline while queued.
    ServerDeadlineTimeouts = 25,
    /// TCP connections accepted by the server.
    ServerConnsAccepted = 26,
    /// TCP connections rejected at accept time because the connection
    /// cap was reached (the client still receives an `Overload` frame).
    ServerConnsRejected = 27,
    /// Batched kernel entry points invoked (one per block/leaf scan
    /// routed through `wnrs-geometry::kernels`).
    KernelBatchedCalls = 28,
    /// Points examined by batched kernel calls (rows actually tested
    /// before an early exit, summed across batches).
    KernelPointsProcessed = 29,
}

impl Counter {
    /// Number of counters (array dimension for per-span attribution).
    pub const COUNT: usize = 30;

    /// The stable, export-facing name (snake_case; used as the JSON
    /// key and the Prometheus metric suffix).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Counter::DominanceTests => "dominance_tests",
            Counter::NodeVisits => "node_visits",
            Counter::HeapPushes => "heap_pushes",
            Counter::Transforms => "transforms",
            Counter::WindowQueries => "window_queries",
            Counter::SrBoxesPruned => "sr_boxes_pruned",
            Counter::CacheHits => "engine_cache_hits",
            Counter::CacheMisses => "engine_cache_misses",
            Counter::CacheInvalidations => "engine_cache_invalidations",
            Counter::PoolHits => "pool_page_hits",
            Counter::PoolMisses => "pool_page_misses",
            Counter::CacheEvictionsDsl => "cache_evictions_dsl",
            Counter::CacheEvictionsAntiDdr => "cache_evictions_antiddr",
            Counter::CacheEvictionsSr => "cache_evictions_sr",
            Counter::CacheEvictionsMwq => "cache_evictions_mwq",
            Counter::CachePartialInvalidations => "cache_partial_invalidations",
            Counter::CacheFullFlushes => "cache_full_flushes",
            Counter::CacheStaleFills => "cache_stale_fills",
            Counter::DslLazyMaterializations => "dsl_lazy_materializations",
            Counter::DslLazyHits => "dsl_lazy_hits",
            Counter::PagesReadLogical => "pages_read_logical",
            Counter::ServerRequests => "server_requests",
            Counter::ServerResponsesOk => "server_responses_ok",
            Counter::ServerErrors => "server_errors",
            Counter::ServerShedQueueFull => "server_shed_queue_full",
            Counter::ServerDeadlineTimeouts => "server_deadline_timeouts",
            Counter::ServerConnsAccepted => "server_conns_accepted",
            Counter::ServerConnsRejected => "server_conns_rejected",
            Counter::KernelBatchedCalls => "kernel_batched_calls",
            Counter::KernelPointsProcessed => "kernel_points_processed",
        }
    }

    /// All counters, in `repr` order (the canonical export order).
    #[must_use]
    pub const fn all() -> &'static [Counter] {
        &[
            Counter::DominanceTests,
            Counter::NodeVisits,
            Counter::HeapPushes,
            Counter::Transforms,
            Counter::WindowQueries,
            Counter::SrBoxesPruned,
            Counter::CacheHits,
            Counter::CacheMisses,
            Counter::CacheInvalidations,
            Counter::PoolHits,
            Counter::PoolMisses,
            Counter::CacheEvictionsDsl,
            Counter::CacheEvictionsAntiDdr,
            Counter::CacheEvictionsSr,
            Counter::CacheEvictionsMwq,
            Counter::CachePartialInvalidations,
            Counter::CacheFullFlushes,
            Counter::CacheStaleFills,
            Counter::DslLazyMaterializations,
            Counter::DslLazyHits,
            Counter::PagesReadLogical,
            Counter::ServerRequests,
            Counter::ServerResponsesOk,
            Counter::ServerErrors,
            Counter::ServerShedQueueFull,
            Counter::ServerDeadlineTimeouts,
            Counter::ServerConnsAccepted,
            Counter::ServerConnsRejected,
            Counter::KernelBatchedCalls,
            Counter::KernelPointsProcessed,
        ]
    }
}

/// Point-in-time level gauges (values go up *and* down, unlike the
/// monotonic [`Counter`]s). The serving layer uses these for live
/// saturation signals; they export as Prometheus `gauge` metrics.
///
/// Gauges deliberately ignore the [`set_enabled`] kill-switch: a
/// mid-flight disable must not strand a depth at a stale value, so
/// adds and subs always balance while the `enabled` *feature* is
/// compiled in (and are no-ops without it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Gauge {
    /// Requests currently sitting in the server's bounded request
    /// queue (admitted, not yet picked up by a worker).
    ServerQueueDepth = 0,
    /// Currently open client connections.
    ServerActiveConnections = 1,
    /// Requests currently executing on a worker thread.
    ServerInflightRequests = 2,
}

impl Gauge {
    /// Number of gauges (array dimension in the registry).
    pub const COUNT: usize = 3;

    /// The stable, export-facing name (snake_case; used as the JSON
    /// key and the Prometheus metric suffix).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Gauge::ServerQueueDepth => "server_queue_depth",
            Gauge::ServerActiveConnections => "server_active_connections",
            Gauge::ServerInflightRequests => "server_inflight_requests",
        }
    }

    /// All gauges, in `repr` order (the canonical export order).
    #[must_use]
    pub const fn all() -> &'static [Gauge] {
        &[
            Gauge::ServerQueueDepth,
            Gauge::ServerActiveConnections,
            Gauge::ServerInflightRequests,
        ]
    }
}

/// Sets gauge `g` to an absolute level.
#[inline]
pub fn gauge_set(g: Gauge, v: i64) {
    #[cfg(feature = "enabled")]
    imp::gauge_set(g, v);
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (g, v);
    }
}

/// Raises gauge `g` by `n`.
#[inline]
pub fn gauge_add(g: Gauge, n: i64) {
    #[cfg(feature = "enabled")]
    imp::gauge_add(g, n);
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (g, n);
    }
}

/// Lowers gauge `g` by `n`.
#[inline]
pub fn gauge_sub(g: Gauge, n: i64) {
    gauge_add(g, -n);
}

/// Current level of gauge `g` (always 0 without `enabled`).
#[must_use]
pub fn gauge_value(g: Gauge) -> i64 {
    #[cfg(feature = "enabled")]
    {
        imp::gauge_value(g)
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = g;
        0
    }
}

/// Opens an observability span over the rest of the enclosing scope.
///
/// Expands to a [`SpanGuard`] that must be bound (`let _span = …`);
/// the span's wall time — and the counter increments that happen while
/// it is live — are recorded when the guard drops. With the `enabled`
/// feature off the guard is a zero-sized no-op.
///
/// ```
/// let _span = wnrs_obs::span!("doc_example");
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        // A `cfg` here would resolve against the *calling* crate's
        // features; instead the expansion is uniform and the two
        // `SpanGuard::enter` impls (live vs zero-sized no-op) select
        // behaviour inside wnrs-obs itself.
        static SITE: ::std::sync::OnceLock<usize> = ::std::sync::OnceLock::new();
        $crate::SpanGuard::enter(&SITE, $name)
    }};
}

#[cfg(feature = "enabled")]
pub use imp::SpanGuard;

/// The no-op span guard used when the `enabled` feature is off: a
/// zero-sized type with no `Drop` impl, so `span!` sites vanish
/// entirely from optimised builds.
#[cfg(not(feature = "enabled"))]
#[must_use = "a span guard records on drop; bind it with `let _span = …`"]
pub struct SpanGuard;

#[cfg(not(feature = "enabled"))]
impl SpanGuard {
    /// No-op counterpart of the live `enter`; exists so the [`span!`]
    /// expansion is identical with and without the `enabled` feature.
    #[inline]
    pub fn enter(_site: &'static std::sync::OnceLock<usize>, _name: &'static str) -> SpanGuard {
        SpanGuard
    }
}

/// Whether this build carries the recording machinery (the `enabled`
/// feature). Reports from no-op builds set `obs_compiled: false`.
#[must_use]
pub const fn compiled() -> bool {
    cfg!(feature = "enabled")
}

/// Increments `c` by 1. No-op without the `enabled` feature or after
/// [`set_enabled`]`(false)`.
#[inline]
pub fn record(c: Counter) {
    record_n(c, 1);
}

/// Increments `c` by `n`.
#[inline]
pub fn record_n(c: Counter, n: u64) {
    #[cfg(feature = "enabled")]
    imp::record_n(c, n);
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (c, n);
    }
}

/// Current value of counter `c` (always 0 without `enabled`).
#[must_use]
pub fn counter_value(c: Counter) -> u64 {
    #[cfg(feature = "enabled")]
    {
        imp::counter_value(c)
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = c;
        0
    }
}

/// Runtime kill-switch: with `false`, compiled-in instrumentation
/// records nothing (spans still cost one atomic load). Defaults to on.
pub fn set_enabled(on: bool) {
    #[cfg(feature = "enabled")]
    imp::set_enabled(on);
    #[cfg(not(feature = "enabled"))]
    {
        let _ = on;
    }
}

/// Whether recording is currently on (always `false` without
/// `enabled`).
#[must_use]
pub fn is_enabled() -> bool {
    #[cfg(feature = "enabled")]
    {
        imp::is_enabled()
    }
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
}

/// Turns per-event tracing on or off. While on, every completed span
/// on the calling thread is appended to a thread-local buffer drained
/// by [`take_trace`].
pub fn set_trace(on: bool) {
    #[cfg(feature = "enabled")]
    imp::set_trace(on);
    #[cfg(not(feature = "enabled"))]
    {
        let _ = on;
    }
}

/// Whether tracing is currently on.
#[must_use]
pub fn is_trace() -> bool {
    #[cfg(feature = "enabled")]
    {
        imp::is_trace()
    }
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
}

/// Drains and returns this thread's trace buffer (empty without
/// `enabled` or when tracing was off).
#[must_use]
pub fn take_trace() -> Vec<TraceEvent> {
    #[cfg(feature = "enabled")]
    {
        imp::take_trace()
    }
    #[cfg(not(feature = "enabled"))]
    {
        Vec::new()
    }
}

/// Zeroes all counters and span aggregates and clears this thread's
/// trace buffer. Call between phases/queries to get per-run reports.
pub fn reset() {
    #[cfg(feature = "enabled")]
    imp::reset();
}

/// Snapshots the registry into a [`Report`]; from a build without
/// `enabled` this is [`Report::empty`]`(false)`.
#[must_use]
pub fn report() -> Report {
    #[cfg(feature = "enabled")]
    {
        imp::report()
    }
    #[cfg(not(feature = "enabled"))]
    {
        Report::empty(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_guard_is_zero_sized() {
        assert_eq!(std::mem::size_of::<SpanGuard>(), 0);
        assert!(!compiled());
        assert_eq!(report(), Report::empty(false));
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_recording_is_inert() {
        record(Counter::DominanceTests);
        record_n(Counter::NodeVisits, 100);
        set_enabled(true);
        set_trace(true);
        assert!(!is_enabled());
        assert!(!is_trace());
        assert_eq!(counter_value(Counter::DominanceTests), 0);
        gauge_add(Gauge::ServerQueueDepth, 7);
        assert_eq!(gauge_value(Gauge::ServerQueueDepth), 0);
        assert!(take_trace().is_empty());
    }

    // The enabled-path tests share one global registry, so they run as
    // a single test to avoid cross-test interference under the
    // parallel test harness.
    #[cfg(feature = "enabled")]
    #[test]
    fn enabled_end_to_end() {
        reset();
        set_enabled(true);
        set_trace(true);

        {
            let _outer = span!("test_outer");
            record_n(Counter::DominanceTests, 5);
            {
                let _inner = span!("test_inner");
                record(Counter::NodeVisits);
            }
        }

        assert!(compiled());
        assert_eq!(counter_value(Counter::DominanceTests), 5);
        assert_eq!(counter_value(Counter::NodeVisits), 1);

        let rep = report();
        assert!(rep.compiled);
        let outer = rep
            .spans
            .iter()
            .find(|s| s.name == "test_outer")
            .unwrap_or_else(|| panic!("test_outer span missing"));
        assert_eq!(outer.count, 1);
        assert!(outer.total_ns >= outer.min_ns);
        assert_eq!(outer.buckets.iter().sum::<u64>(), 1);
        // Inclusive attribution: outer sees the inner span's counter.
        let nv = outer
            .counters
            .iter()
            .find(|c| c.name == "node_visits")
            .map(|c| c.value);
        assert_eq!(nv, Some(1));

        let trace = take_trace();
        assert_eq!(trace.len(), 2);
        assert!(trace.iter().any(|e| e.name == "test_inner" && e.depth == 1));
        assert!(trace.iter().any(|e| e.name == "test_outer" && e.depth == 0));
        let rendered = render_trace(&trace);
        assert!(rendered.contains("test_outer"));

        // Kill-switch: nothing records while disabled.
        set_trace(false);
        set_enabled(false);
        let before = counter_value(Counter::Transforms);
        {
            let _s = span!("test_disabled");
            record(Counter::Transforms);
        }
        assert_eq!(counter_value(Counter::Transforms), before);
        assert!(!report().spans.iter().any(|s| s.name == "test_disabled"));

        // Gauges move both ways and ignore the kill-switch.
        set_enabled(false);
        gauge_set(Gauge::ServerActiveConnections, 3);
        gauge_add(Gauge::ServerQueueDepth, 5);
        gauge_sub(Gauge::ServerQueueDepth, 2);
        assert_eq!(gauge_value(Gauge::ServerActiveConnections), 3);
        assert_eq!(gauge_value(Gauge::ServerQueueDepth), 3);

        // Reset clears aggregates but keeps the report well-formed.
        set_enabled(true);
        reset();
        let rep2 = report();
        assert!(rep2.counters.iter().all(|c| c.value == 0));
        assert!(rep2.gauges.iter().all(|g| g.value == 0));
        assert!(rep2.spans.iter().all(|s| s.count == 0));
    }
}
