//! # wnrs-core
//!
//! The paper's contribution: answering **why-not questions on reverse
//! skyline queries** (Islam, Zhou, Liu — ICDE 2013).
//!
//! Given products `P`, a query product `q` and a why-not customer `c_t ∉
//! RSL(q)`, the library answers three ways:
//!
//! * [`mod@explain`] — *why* is `c_t` missing: the culprit products
//!   `Λ = window_query(c_t, q)` the customer prefers over `q`;
//! * [`mwp`] — **Algorithm 1**: minimally modify the why-not point,
//!   `c_t → c_t*`, so `q ∈ DSL(c_t*)`;
//! * [`mqp`] — **Algorithm 2**: minimally modify the query point,
//!   `q → q*`, so `q* ∈ DSL(c_t)` (ignoring existing customers);
//! * [`safe_region`] — **Algorithm 3**: the region `SR(q) = ∩ anti-DDR(c_l)`
//!   where `q` may move without losing any existing reverse-skyline
//!   point, exact and approximated (precomputed k-sampled DSLs);
//! * [`mwq`] — **Algorithm 4**: move `q` inside `SR(q)` and, when the
//!   safe region misses `anti-DDR(c_t)`, additionally repair `c_t` with
//!   Algorithm 1 against the best safe corner, minimising Eqn (11).
//!
//! [`engine::WhyNotEngine`] packages the dataset, index, cost model and
//! all of the above behind one façade; [`question::Question`] asks any
//! of them through one front door,
//! [`engine::WhyNotEngine::answer`]. The engine writes each question
//! once over building blocks (dynamic skylines, anti-DDRs, culprit
//! windows, reverse skylines, safe regions); under repeated why-not
//! traffic, [`mod@cache`] memoises those blocks in an optional
//! versioned cross-query reuse layer, which the batch entry points
//! ([`engine::WhyNotEngine::explain_batch`] /
//! [`engine::WhyNotEngine::mwq_batch`]) share across customers; dataset
//! mutations invalidate it atomically via a generation counter.
//!
//! ## Boundary convention
//!
//! Like the paper's own worked examples, all candidate answers are
//! *limit points*: they may tie a dominating product on the boundary and
//! become strictly valid after an arbitrarily small further move.
//! Verification helpers therefore nudge candidates by a caller-supplied
//! `ε` before testing membership (see [`verify::limit_verified_whynot`]
//! and [`verify::limit_verified_query`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod answer;
pub mod cache;
pub mod engine;
pub mod error;
pub mod eval;
pub mod explain;
pub mod flexible;
pub mod mqp;
pub mod mwp;
pub mod mwq;
pub mod paged;
pub mod question;
pub mod safe_region;
pub mod sync;
pub mod verify;

pub use answer::Candidate;
pub use cache::{CacheConfig, CacheStats, DslSampleEntry, EngineCache};
pub use engine::WhyNotEngine;
pub use error::{EngineError, WnrsError};
pub use eval::score_all_batch;
pub use explain::{explain, Explanation};
pub use flexible::{expand_safe_region, truncate_safe_region, ExpandedSafeRegion};
pub use mqp::{
    modify_query_point, modify_query_point_core, modify_query_point_with_lambda, MqpAnswer,
};
pub use mwp::{
    modify_why_not_point, modify_why_not_point_core, modify_why_not_point_with_lambda, MwpAnswer,
};
pub use mwq::{modify_both, modify_both_parts, MwqAnswer, MwqCase};
pub use paged::PagedEngine;
pub use question::{Customer, Question, QuestionError, Reply};
pub use safe_region::{
    anti_ddr_from_dsl, approx_anti_ddr_of_sample, approx_safe_region, approx_safe_region_with,
    entry_fingerprint, exact_safe_region, exact_safe_region_with, ApproxDslStore,
};
pub use wnrs_geometry::parallel::Parallelism;
