//! # wnrs-geometry
//!
//! Geometric kernel for the why-not reverse-skyline library.
//!
//! Provides the d-dimensional primitives every other crate builds on:
//!
//! * [`Point`] — an immutable d-dimensional point with value semantics.
//! * [`Rect`] — an axis-aligned (hyper-)rectangle.
//! * [`dominance`] — static, dynamic and global dominance tests used by
//!   skyline, dynamic-skyline and reverse-skyline computations.
//! * [`kernels`] — the lane-chunked dominance and min-distance inner
//!   loops plus batched one-vs-many entry points, with the scalar loops
//!   they are tested against.
//! * [`transform`] — the coordinate-wise absolute-distance transform that
//!   maps a dataset into the space centred at a query/customer point, and
//!   the orthant bookkeeping needed to map regions back.
//! * [`Region`] — a union-of-boxes region with intersection, area,
//!   membership and nearest-point queries; the representation used for
//!   anti-dominance regions and safe regions. Its algebra runs on flat
//!   box rows ([`region::Antichain`]).
//! * [`normalize`] — min–max normalisation (the paper's evaluation metric
//!   space).
//! * [`key`] — bit-pattern hashing keys ([`CoordKey`], [`f64_key`]) for
//!   finite `f64` coordinates, used by the cross-query cache layer.
//! * [`parallel`] — the [`Parallelism`] policy plus order-preserving
//!   parallel map and tree-reduced region intersection, shared by every
//!   multi-threaded code path in the workspace.
//! * [`store`] — flat contiguous point storage ([`PointStore`]) with
//!   borrow-based views ([`PointRef`], [`PointsView`]) for
//!   allocation-free hot paths.
//! * [`cost`] — weighted L1 edit-distance cost model (Eqns 8–11 of the
//!   paper).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod dominance;
pub mod invalidate;
pub mod kernels;
pub mod key;
pub mod normalize;
pub mod parallel;
pub mod point;
pub mod rect;
pub mod region;
pub mod store;
pub mod transform;

pub use cost::{CostModel, Weights};
pub use dominance::{dominates, dominates_components, dominates_dyn, dominates_global, Dominance};
pub use invalidate::release_region;
pub use key::{f64_key, CoordKey};
pub use normalize::MinMaxNormalizer;
pub use parallel::Parallelism;
pub use point::{abs_diff_into, cmp_f64, max_f64, min_f64, Point};
pub use rect::Rect;
pub use region::Region;
pub use store::{PointRef, PointStore, PointsView};
pub use transform::{orthant_of, reflect_corners, reflect_rect, to_distance_space, Orthant};
