//! # wnrs-reverse-skyline
//!
//! Reverse skyline computation (Definition 3 of the paper): given
//! products `P`, customers `C` and a query product `q`, find every
//! customer whose dynamic skyline contains `q`.
//!
//! * [`window`] — the `window_query` membership primitive (Section II):
//!   `c ∈ RSL(q)` iff the window centred at `c` with per-side extents
//!   `|c − q|` contains no product dynamically dominating `q`;
//! * [`naive`] — bichromatic evaluation by per-customer window queries,
//!   sequentially or in parallel;
//! * [`bbrs`] — the BBRS algorithm of Dellis & Seeger (VLDB'07) for the
//!   monochromatic setting the paper's experiments use: compute the
//!   *global skyline* candidates with a best-first traversal, then verify
//!   each with a window query.
//!
//! The window query, the membership probe, the global skyline and BBRS
//! are each written once over [`wnrs_rtree::NodeSource`], so they run
//! unchanged on the in-memory arena and on a page-resident
//! [`wnrs_rtree::PagedRTree`]; the `paged_*` names are the page-resident
//! instances.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bbrs;
pub mod bichromatic;
pub mod naive;
pub mod window;

pub use bbrs::{bbrs_reverse_skyline, global_skyline, reverse_skyline};
pub use bichromatic::rsl_bichromatic_indexed;
pub use naive::{rsl_bichromatic, rsl_bichromatic_parallel, rsl_monochromatic_naive};
pub use window::{
    is_reverse_skyline_member, is_reverse_skyline_member_with, paged_window_query, window_query,
    window_query_with, PagedMemberScratch,
};

/// BBRS through pages: [`reverse_skyline`] under the name page-resident
/// callers use.
pub use bbrs::reverse_skyline as paged_bbrs_reverse_skyline;
/// The membership probe through pages: [`is_reverse_skyline_member_with`]
/// under the name page-resident callers use.
pub use window::is_reverse_skyline_member_with as paged_is_reverse_skyline_member;
