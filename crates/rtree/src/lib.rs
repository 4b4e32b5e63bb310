//! # wnrs-rtree
//!
//! An R\*-tree (Beckmann, Kriegel, Schneider, Seeger — SIGMOD'90) over
//! d-dimensional points, standing in for the R-tree index the paper builds
//! on every dataset (Section VI: page size 1536 bytes).
//!
//! Features:
//!
//! * one-by-one insertion with R\* choose-subtree, forced reinsertion and
//!   the R\* topological split;
//! * deletion with tree condensation and orphan reinsertion;
//! * STR (sort-tile-recursive) bulk loading;
//! * window (range) queries — the `window_query` primitive of the paper;
//! * best-first traversal in arbitrary `MINDIST` order, the hook the BBS
//!   skyline algorithm and k-NN search are built on;
//! * one node-access trait, [`NodeSource`], implemented by the arena
//!   tree and by the page-resident [`PagedRTree`], over which every
//!   index walk of the algorithm crates is written once;
//! * node-visit accounting (the logical-I/O metric of the access-methods
//!   literature) and persistence to [`wnrs_storage`] pages, one node per
//!   page, so fan-out is derived from the paper's page size.
//!
//! The node arena is public (read-only) so that algorithm crates
//! (BBS/BBRS) can drive custom traversals without this crate having to
//! know about skylines.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bulk;
pub mod config;
pub mod node;
pub mod paged;
pub mod persist;
pub mod query;
pub mod source;
pub mod split;
pub mod stream;
pub mod tree;
pub mod validate;

pub use config::RTreeConfig;
pub use node::{Child, Entry, ItemId, Node, NodeId};
pub use paged::PagedRTree;
pub use query::{knn, nearest, BestFirst, Frontier, Traversal};
pub use source::{into_ok, window_walk, NodeSource, NodeView, WindowScratch};
pub use stream::bulk_load_stream;
pub use tree::RTree;
