//! d-dimensional points, and the workspace's float-ordering boundary.
//!
//! This file is the **NaN-validated boundary**: [`Point::new`] rejects
//! non-finite coordinates, and the total-order helpers below
//! ([`cmp_f64`], [`max_f64`], [`min_f64`]) are the only sanctioned way
//! to order floats anywhere else in the workspace. `wnrs-lint`'s
//! `float_cmp` rule enforces that no other module calls `partial_cmp`/
//! `total_cmp` or compares against float literals with `==`/`!=`.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Index;

/// Total-order comparison of two `f64`s (IEEE 754 `totalOrder`).
///
/// Unlike `partial_cmp().unwrap()`, this never panics: NaN sorts after
/// `+∞` (and `-NaN` before `-∞`), `-0.0 < +0.0`. On the finite values
/// the workspace's geometry actually produces, it agrees with the usual
/// `<` ordering — extreme-but-finite inputs included — so it is a
/// drop-in replacement for every coordinate/cost sort.
#[inline]
pub fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

/// The larger of two `f64`s under the total order ([`cmp_f64`]).
#[inline]
pub fn max_f64(a: f64, b: f64) -> f64 {
    match cmp_f64(a, b) {
        Ordering::Less => b,
        _ => a,
    }
}

/// The smaller of two `f64`s under the total order ([`cmp_f64`]).
#[inline]
pub fn min_f64(a: f64, b: f64) -> f64 {
    match cmp_f64(a, b) {
        Ordering::Greater => b,
        _ => a,
    }
}

/// In-place absolute-distance transform: writes `(|p^i − origin^i|)_i`
/// into `out`, clearing it first and reusing its allocation. The flat
/// analogue of [`Point::abs_diff`] for allocation-free hot paths.
///
/// One stream loop: `(a - b).abs()` over zipped slices is branch-free,
/// so LLVM emits packed code for it, and an explicit 4-lane variant only
/// added per-chunk append overhead (0.6–1.0x in `BENCH_kernels.json`'s
/// transform rows).
#[inline]
pub fn abs_diff_into(p: &[f64], origin: &[f64], out: &mut Vec<f64>) {
    debug_assert_eq!(p.len(), origin.len(), "dimensionality mismatch");
    wnrs_obs::record(wnrs_obs::Counter::Transforms);
    out.clear();
    out.extend(p.iter().zip(origin.iter()).map(|(a, b)| (a - b).abs()));
}

/// An immutable point in `R^d`.
///
/// Coordinates are stored inline in a boxed slice; cloning is a single
/// allocation. All algorithms in the workspace treat points as values and
/// never mutate them in place.
///
/// # Examples
///
/// ```
/// use wnrs_geometry::Point;
/// let q = Point::new(vec![8.5, 55.0]);
/// assert_eq!(q.dim(), 2);
/// assert_eq!(q[0], 8.5);
/// ```
#[derive(Clone, PartialEq)]
pub struct Point {
    coords: Box<[f64]>,
}

impl Point {
    /// Creates a point from its coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `coords` is empty or contains a non-finite value: points
    /// with NaN/∞ coordinates break dominance transitivity and every
    /// downstream invariant, so they are rejected at the boundary.
    #[must_use]
    pub fn new(coords: impl Into<Box<[f64]>>) -> Self {
        let coords = coords.into();
        assert!(!coords.is_empty(), "a point must have at least 1 dimension");
        assert!(
            coords.iter().all(|c| c.is_finite()),
            "point coordinates must be finite, got {coords:?}"
        );
        Self { coords }
    }

    /// Creates a 2-d point; convenience for the paper's running examples.
    #[must_use]
    pub fn xy(x: f64, y: f64) -> Self {
        Self::new(vec![x, y])
    }

    /// The dimensionality `d` of the point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// The coordinates as a slice.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Coordinate in dimension `i` (`0 ≤ i < d`).
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.coords[i]
    }

    /// Returns a new point with dimension `i` replaced by `value`.
    #[must_use]
    pub fn with_coord(&self, i: usize, value: f64) -> Self {
        let mut c = self.coords.to_vec();
        c[i] = value;
        Self::new(c)
    }

    /// L1 (Manhattan) distance to `other`.
    ///
    /// This is the unweighted edit distance `|p - p'|` the paper minimises
    /// when moving points.
    pub fn l1(&self, other: &Self) -> f64 {
        self.expect_same_dim(other);
        self.coords
            .iter()
            .zip(other.coords.iter())
            .map(|(a, b)| (a - b).abs())
            .sum()
    }

    /// Squared Euclidean distance to `other`.
    pub fn dist2(&self, other: &Self) -> f64 {
        self.expect_same_dim(other);
        self.coords
            .iter()
            .zip(other.coords.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    /// Euclidean distance to `other`.
    pub fn dist(&self, other: &Self) -> f64 {
        self.dist2(other).sqrt()
    }

    /// L∞ (Chebyshev) distance to `other`.
    pub fn linf(&self, other: &Self) -> f64 {
        self.expect_same_dim(other);
        self.coords
            .iter()
            .zip(other.coords.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Coordinate-wise absolute difference `(|p^1-q^1|, …, |p^d-q^d|)`:
    /// the image of `self` under the distance transform centred at `origin`.
    #[must_use]
    pub fn abs_diff(&self, origin: &Self) -> Self {
        self.expect_same_dim(origin);
        wnrs_obs::record(wnrs_obs::Counter::Transforms);
        Self::new(
            self.coords
                .iter()
                .zip(origin.coords.iter())
                .map(|(a, b)| (a - b).abs())
                .collect::<Vec<_>>(),
        )
    }

    /// Exact equality of all coordinates.
    ///
    /// `Point` intentionally does not implement `Eq`/`Hash` (f64); datasets
    /// address points by index instead.
    pub fn same_location(&self, other: &Self) -> bool {
        self.dim() == other.dim() && self.coords == other.coords
    }

    /// Approximate equality within `eps` per coordinate; used by tests.
    pub fn approx_eq(&self, other: &Self, eps: f64) -> bool {
        self.dim() == other.dim()
            && self
                .coords
                .iter()
                .zip(other.coords.iter())
                .all(|(a, b)| (a - b).abs() <= eps)
    }

    #[inline]
    fn expect_same_dim(&self, other: &Self) {
        assert_eq!(
            self.dim(),
            other.dim(),
            "dimensionality mismatch: {} vs {}",
            self.dim(),
            other.dim()
        );
    }
}

impl Index<usize> for Point {
    type Output = f64;

    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.coords[i]
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<Vec<f64>> for Point {
    fn from(v: Vec<f64>) -> Self {
        Self::new(v)
    }
}

impl From<&[f64]> for Point {
    fn from(v: &[f64]) -> Self {
        Self::new(v.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let p = Point::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(p.dim(), 3);
        assert_eq!(p[1], 2.0);
        assert_eq!(p.get(2), 3.0);
        assert_eq!(p.coords(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "at least 1 dimension")]
    fn empty_point_rejected() {
        let _ = Point::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let _ = Point::new(vec![1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinity_rejected() {
        let _ = Point::new(vec![f64::INFINITY]);
    }

    #[test]
    fn l1_distance() {
        let a = Point::xy(1.0, 2.0);
        let b = Point::xy(4.0, -2.0);
        assert_eq!(a.l1(&b), 7.0);
        assert_eq!(b.l1(&a), 7.0);
        assert_eq!(a.l1(&a), 0.0);
    }

    #[test]
    fn euclidean_distance() {
        let a = Point::xy(0.0, 0.0);
        let b = Point::xy(3.0, 4.0);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(a.dist2(&b), 25.0);
    }

    #[test]
    fn linf_distance() {
        let a = Point::xy(1.0, 10.0);
        let b = Point::xy(4.0, 8.0);
        assert_eq!(a.linf(&b), 3.0);
    }

    #[test]
    fn abs_diff_transform() {
        // p2 (7.5, 42) relative to q (8.5, 55) — from the paper's Fig. 2.
        let q = Point::xy(8.5, 55.0);
        let p2 = Point::xy(7.5, 42.0);
        let t = p2.abs_diff(&q);
        assert!(t.approx_eq(&Point::xy(1.0, 13.0), 1e-12));
    }

    #[test]
    fn abs_diff_into_matches_abs_diff() {
        let q = Point::xy(8.5, 55.0);
        let p2 = Point::xy(7.5, 42.0);
        let mut buf = vec![9.0; 7];
        abs_diff_into(p2.coords(), q.coords(), &mut buf);
        assert_eq!(buf.as_slice(), p2.abs_diff(&q).coords());
    }

    #[test]
    fn with_coord_replaces_one_dimension() {
        let p = Point::xy(1.0, 2.0);
        let p2 = p.with_coord(1, 9.0);
        assert!(p2.same_location(&Point::xy(1.0, 9.0)));
        assert!(p.same_location(&Point::xy(1.0, 2.0)), "original untouched");
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn mixed_dims_rejected() {
        let a = Point::xy(1.0, 2.0);
        let b = Point::new(vec![1.0]);
        let _ = a.l1(&b);
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", Point::xy(1.0, 2.5)), "(1, 2.5)");
    }
}
