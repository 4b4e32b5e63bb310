//! # wnrs-skyline
//!
//! Skyline substrate for the why-not reverse-skyline library:
//!
//! * [`bnl`] — block-nested-loop skyline (Börzsönyi et al., ICDE'01);
//! * [`sfs`] — sort-filter-skyline (presorting by a monotone score);
//! * [`bbs`] — branch-and-bound skyline over the R\*-tree (Papadias et
//!   al., SIGMOD'03), in both the static space and the
//!   absolute-distance-transformed space (dynamic skyline), the latter
//!   over either node source (arena or pages);
//! * [`dynamic`] — dynamic skylines (Definition 2 of the paper);
//! * [`ddr`] — decomposition of the dynamic anti-dominance region
//!   `anti-DDR(c)` into origin-anchored boxes (the rectangles of the
//!   paper's Fig. 10), with the exact 2-d staircase and a general-d
//!   clipping construction;
//! * [`approx`] — the k-sampled approximate DSL / anti-DDR of
//!   Section VI-B.1, a conservative under-approximation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod approx;
pub mod bbs;
pub mod bnl;
pub mod ddr;
pub mod dynamic;
pub mod sfs;

pub use approx::{approx_anti_ddr, approx_dsl_sample_into, sample_dsl, ApproxDslScratch};
pub use bbs::{
    bbs_dynamic_skyline, bbs_dynamic_skyline_excluding, bbs_dynamic_skyline_scratch, bbs_skyline,
    dynamic_skyline, BbsScratch,
};
pub use bnl::bnl_skyline;
pub use ddr::{anti_ddr, anti_ddr_general, anti_ddr_original_space};
pub use dynamic::{dynamic_skyline_scan, is_in_dynamic_skyline};
pub use sfs::sfs_skyline;
