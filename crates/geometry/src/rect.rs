//! Axis-aligned (hyper-)rectangles.

use crate::point::Point;
use std::fmt;

/// An axis-aligned rectangle in `R^d`, stored as its lower-left and
/// upper-right corner points (the representation the paper uses for
/// anti-dominance regions and safe regions, Fig. 10(b)).
///
/// Degenerate rectangles (zero extent in some or all dimensions) are legal:
/// a safe region can collapse to the query point itself.
#[derive(Clone, PartialEq)]
pub struct Rect {
    lo: Point,
    hi: Point,
}

impl Rect {
    /// Creates a rectangle from its lower-left and upper-right corners.
    ///
    /// # Panics
    ///
    /// Panics if the corners disagree in dimensionality or `lo ≤ hi` fails
    /// in some dimension.
    #[must_use]
    pub fn new(lo: Point, hi: Point) -> Self {
        assert_eq!(lo.dim(), hi.dim(), "corner dimensionality mismatch");
        for i in 0..lo.dim() {
            assert!(
                lo[i] <= hi[i],
                "invalid rect: lo {lo:?} exceeds hi {hi:?} in dim {i}"
            );
        }
        Self { lo, hi }
    }

    /// A rectangle containing exactly one point.
    #[must_use]
    pub fn degenerate(p: Point) -> Self {
        Self {
            lo: p.clone(),
            hi: p,
        }
    }

    /// The minimum bounding rectangle of a non-empty point set.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    #[must_use]
    pub fn bounding(points: &[Point]) -> Self {
        assert!(!points.is_empty(), "bounding rect of empty point set");
        let d = points[0].dim();
        let mut lo = points[0].coords().to_vec();
        let mut hi = lo.clone();
        for p in &points[1..] {
            for i in 0..d {
                lo[i] = lo[i].min(p[i]);
                hi[i] = hi[i].max(p[i]);
            }
        }
        Self::new(Point::new(lo), Point::new(hi))
    }

    /// Lower-left corner.
    #[inline]
    pub fn lo(&self) -> &Point {
        &self.lo
    }

    /// Upper-right corner.
    #[inline]
    pub fn hi(&self) -> &Point {
        &self.hi
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.dim()
    }

    /// Extent (`hi - lo`) in dimension `i`.
    #[inline]
    pub fn extent(&self, i: usize) -> f64 {
        self.hi[i] - self.lo[i]
    }

    /// d-dimensional volume (area for d = 2). Zero for degenerate rects.
    pub fn area(&self) -> f64 {
        (0..self.dim()).map(|i| self.extent(i)).product()
    }

    /// Sum of extents (the R*-tree "margin" heuristic).
    pub fn margin(&self) -> f64 {
        (0..self.dim()).map(|i| self.extent(i)).sum()
    }

    /// Centre point.
    pub fn center(&self) -> Point {
        Point::new(
            (0..self.dim())
                .map(|i| 0.5 * (self.lo[i] + self.hi[i]))
                .collect::<Vec<_>>(),
        )
    }

    /// Whether `p` lies inside the rectangle (boundary inclusive).
    pub fn contains_point(&self, p: &Point) -> bool {
        self.contains_coords(p.coords())
    }

    /// [`Rect::contains_point`] for a point given by its raw coordinates.
    pub fn contains_coords(&self, p: &[f64]) -> bool {
        debug_assert_eq!(self.dim(), p.len());
        (0..self.dim()).all(|i| self.lo[i] <= p[i] && p[i] <= self.hi[i])
    }

    /// Whether `p` lies strictly inside the rectangle (boundary exclusive).
    pub fn contains_point_strict(&self, p: &Point) -> bool {
        debug_assert_eq!(self.dim(), p.dim());
        (0..self.dim()).all(|i| self.lo[i] < p[i] && p[i] < self.hi[i])
    }

    /// Whether `other` is entirely inside `self` (boundary inclusive).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        (0..self.dim()).all(|i| self.lo[i] <= other.lo[i] && other.hi[i] <= self.hi[i])
    }

    /// Whether the two rectangles share at least one point.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.intersects_coords(other.lo.coords(), other.hi.coords())
    }

    /// [`Rect::intersects`] against the box `[lo, hi]` given by its raw
    /// corner coordinates.
    pub fn intersects_coords(&self, lo: &[f64], hi: &[f64]) -> bool {
        debug_assert_eq!(self.dim(), lo.len());
        (0..self.dim()).all(|i| self.lo[i] <= hi[i] && lo[i] <= self.hi[i])
    }

    /// The intersection rectangle, or `None` if disjoint.
    ///
    /// Touching rectangles intersect in a degenerate rectangle — this is
    /// deliberate: the paper's safe region may meet a customer's
    /// anti-dominance region in a single edge or corner, which is still a
    /// valid (zero-cost) placement for the query point.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        debug_assert_eq!(self.dim(), other.dim());
        let d = self.dim();
        let mut lo = Vec::with_capacity(d);
        let mut hi = Vec::with_capacity(d);
        for i in 0..d {
            let l = self.lo[i].max(other.lo[i]);
            let h = self.hi[i].min(other.hi[i]);
            if l > h {
                return None;
            }
            lo.push(l);
            hi.push(h);
        }
        Some(Rect::new(Point::new(lo), Point::new(hi)))
    }

    /// The minimum bounding rectangle of `self` and `other`.
    pub fn union_mbr(&self, other: &Rect) -> Rect {
        debug_assert_eq!(self.dim(), other.dim());
        let d = self.dim();
        let mut lo = Vec::with_capacity(d);
        let mut hi = Vec::with_capacity(d);
        for i in 0..d {
            lo.push(self.lo[i].min(other.lo[i]));
            hi.push(self.hi[i].max(other.hi[i]));
        }
        Rect::new(Point::new(lo), Point::new(hi))
    }

    /// Grows `self` in place to cover `other`.
    pub fn expand(&mut self, other: &Rect) {
        *self = self.union_mbr(other);
    }

    /// Area increase required for `self` to cover `other` (R-tree
    /// choose-subtree heuristic).
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union_mbr(other).area() - self.area()
    }

    /// Overlap volume with `other` (zero if disjoint).
    pub fn overlap(&self, other: &Rect) -> f64 {
        self.intersection(other).map_or(0.0, |r| r.area())
    }

    /// The point of the rectangle nearest to `p` (clamping), i.e. the
    /// minimiser of the distance from `p` to the rectangle. Used by
    /// Algorithm 4 step 5 (`nearest_point(rec, q)`).
    pub fn nearest_point(&self, p: &Point) -> Point {
        debug_assert_eq!(self.dim(), p.dim());
        Point::new(
            (0..self.dim())
                .map(|i| p[i].clamp(self.lo[i], self.hi[i]))
                .collect::<Vec<_>>(),
        )
    }

    /// Minimum squared Euclidean distance from `p` to the rectangle
    /// (zero if inside). The R-tree `MINDIST` bound.
    pub fn min_dist2(&self, p: &Point) -> f64 {
        debug_assert_eq!(self.dim(), p.dim());
        (0..self.dim())
            .map(|i| {
                let v = if p[i] < self.lo[i] {
                    self.lo[i] - p[i]
                } else if p[i] > self.hi[i] {
                    p[i] - self.hi[i]
                } else {
                    0.0
                };
                v * v
            })
            .sum()
    }

    /// Minimum L1 distance from `p` to the rectangle (zero if inside).
    pub fn min_l1(&self, p: &Point) -> f64 {
        debug_assert_eq!(self.dim(), p.dim());
        (0..self.dim())
            .map(|i| {
                if p[i] < self.lo[i] {
                    self.lo[i] - p[i]
                } else if p[i] > self.hi[i] {
                    p[i] - self.hi[i]
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// Minimum L1 distance from a raw coordinate slice to the rectangle:
    /// the flat analogue of [`Rect::min_l1`] for hot paths. Evaluated by
    /// whichever kernel the process-wide
    /// [`crate::kernels::KernelDispatch`] selects; both keep the scalar
    /// path's per-dim values and summation order, so the result is
    /// bit-identical to `min_l1` on the same inputs — and equal to the
    /// coordinate sum of the absolute-distance transform's lower bound
    /// (the BBS priority key).
    #[inline]
    pub fn min_l1_coords(&self, q: &[f64]) -> f64 {
        debug_assert_eq!(self.dim(), q.len());
        crate::kernels::min_l1_raw(self.lo.coords(), self.hi.coords(), q)
    }

    /// Minimum squared Euclidean distance from a raw coordinate slice to
    /// the rectangle: the flat analogue of [`Rect::min_dist2`],
    /// bit-identical on the same inputs.
    #[inline]
    pub fn min_dist2_coords(&self, q: &[f64]) -> f64 {
        debug_assert_eq!(self.dim(), q.len());
        (0..self.dim())
            .map(|i| {
                let v = if q[i] < self.lo[i] {
                    self.lo[i] - q[i]
                } else if q[i] > self.hi[i] {
                    q[i] - self.hi[i]
                } else {
                    0.0
                };
                v * v
            })
            .sum()
    }

    /// Writes the per-dimension minimum distances from `q` to the
    /// rectangle into `out` (clearing it first): the lower-bound corner
    /// of the rectangle's image under the absolute-distance transform
    /// centred at `q` — the prune bound BBS keeps per heap entry; never
    /// allocates once `out` has capacity. Evaluated
    /// by whichever kernel the process-wide
    /// [`crate::kernels::KernelDispatch`] selects (bit-identical lanes).
    #[inline]
    pub fn min_dists_into(&self, q: &[f64], out: &mut Vec<f64>) {
        debug_assert_eq!(self.dim(), q.len());
        crate::kernels::min_dists_into_raw(self.lo.coords(), self.hi.coords(), q, out);
    }

    /// All `2^d` corner points (Algorithm 4, `corner_points`).
    ///
    /// For d = 2 these are the four rectangle corners. The enumeration
    /// order is the binary counting order of the corner mask.
    pub fn corner_points(&self) -> Vec<Point> {
        let d = self.dim();
        assert!(d <= 20, "corner enumeration limited to d ≤ 20");
        (0..(1usize << d))
            .map(|mask| {
                Point::new(
                    (0..d)
                        .map(|i| {
                            if mask & (1 << i) != 0 {
                                self.hi[i]
                            } else {
                                self.lo[i]
                            }
                        })
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    /// The coordinate-wise window rectangle centred at `c` with per-side
    /// extent `|c - q|` — the paper's `window_query` window (Section II):
    /// `[c^i - |c^i - q^i|, c^i + |c^i - q^i|]` in every dimension.
    ///
    /// Bounds are widened by one ulp so that `q` itself (and any point at
    /// exactly the window distance) is always inside despite the
    /// `c ± (q − c)` round trip not being exact in f64. Candidates pulled
    /// in by the widening are filtered by the exact dominance re-check
    /// every caller performs.
    pub fn window(c: &Point, q: &Point) -> Rect {
        debug_assert_eq!(c.dim(), q.dim());
        let d = c.dim();
        let mut lo = Vec::with_capacity(d);
        let mut hi = Vec::with_capacity(d);
        for i in 0..d {
            let r = (c[i] - q[i]).abs();
            // The subtraction and re-addition each lose up to half an ulp
            // of the *largest* magnitude involved; pad accordingly.
            let pad = 4.0 * f64::EPSILON * (c[i].abs() + q[i].abs() + r);
            lo.push(c[i] - r - pad);
            hi.push(c[i] + r + pad);
        }
        Rect::new(Point::new(lo), Point::new(hi))
    }
}

impl fmt::Debug for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?} → {:?}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(lx: f64, ly: f64, hx: f64, hy: f64) -> Rect {
        Rect::new(Point::xy(lx, ly), Point::xy(hx, hy))
    }

    #[test]
    fn basic_metrics() {
        let a = r(0.0, 0.0, 4.0, 2.0);
        assert_eq!(a.area(), 8.0);
        assert_eq!(a.margin(), 6.0);
        assert!(a.center().same_location(&Point::xy(2.0, 1.0)));
        assert_eq!(a.extent(0), 4.0);
    }

    #[test]
    #[should_panic(expected = "invalid rect")]
    fn inverted_rect_rejected() {
        let _ = r(1.0, 0.0, 0.0, 1.0);
    }

    #[test]
    fn coord_slice_kernels_match_point_variants() {
        let rect = r(2.0, 3.0, 6.0, 8.0);
        let probes = [
            Point::xy(0.0, 0.0),
            Point::xy(4.0, 5.0),
            Point::xy(9.0, 1.0),
            Point::xy(2.0, 8.0),
            Point::xy(-3.5, 10.25),
        ];
        let mut buf = Vec::new();
        for p in &probes {
            assert_eq!(
                rect.min_l1_coords(p.coords()).to_bits(),
                rect.min_l1(p).to_bits()
            );
            assert_eq!(
                rect.min_dist2_coords(p.coords()).to_bits(),
                rect.min_dist2(p).to_bits()
            );
            rect.min_dists_into(p.coords(), &mut buf);
            let sum: f64 = buf.iter().sum();
            assert_eq!(sum.to_bits(), rect.min_l1(p).to_bits());
        }
    }

    #[test]
    fn degenerate_rect_is_a_point() {
        let d = Rect::degenerate(Point::xy(3.0, 4.0));
        assert_eq!(d.area(), 0.0);
        assert!(d.contains_point(&Point::xy(3.0, 4.0)));
        assert!(!d.contains_point(&Point::xy(3.0, 4.1)));
    }

    #[test]
    fn containment() {
        let outer = r(0.0, 0.0, 10.0, 10.0);
        let inner = r(2.0, 2.0, 5.0, 5.0);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_rect(&outer), "containment is reflexive");
        assert!(
            outer.contains_point(&Point::xy(0.0, 10.0)),
            "boundary inclusive"
        );
        assert!(!outer.contains_point_strict(&Point::xy(0.0, 10.0)));
    }

    #[test]
    fn intersection_cases() {
        let a = r(0.0, 0.0, 4.0, 4.0);
        let b = r(2.0, 2.0, 6.0, 6.0);
        let c = r(5.0, 5.0, 7.0, 7.0);
        assert_eq!(a.intersection(&b), Some(r(2.0, 2.0, 4.0, 4.0)));
        assert_eq!(a.intersection(&c), None);
        // Touching rects intersect in a degenerate rect.
        let d = r(4.0, 0.0, 8.0, 4.0);
        let t = a.intersection(&d).expect("touching rects intersect");
        assert_eq!(t.area(), 0.0);
        assert_eq!(t.lo()[0], 4.0);
    }

    #[test]
    fn union_and_enlargement() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(3.0, 3.0, 4.0, 4.0);
        let u = a.union_mbr(&b);
        assert_eq!(u, r(0.0, 0.0, 4.0, 4.0));
        assert_eq!(a.enlargement(&b), 16.0 - 4.0);
        assert_eq!(a.overlap(&b), 0.0);
        assert_eq!(a.overlap(&r(1.0, 1.0, 3.0, 3.0)), 1.0);
    }

    #[test]
    fn bounding_of_points() {
        let pts = vec![
            Point::xy(1.0, 5.0),
            Point::xy(3.0, 2.0),
            Point::xy(2.0, 9.0),
        ];
        let b = Rect::bounding(&pts);
        assert_eq!(b, r(1.0, 2.0, 3.0, 9.0));
    }

    #[test]
    fn nearest_point_and_distances() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let p = Point::xy(5.0, 1.0);
        assert!(a.nearest_point(&p).same_location(&Point::xy(2.0, 1.0)));
        assert_eq!(a.min_dist2(&p), 9.0);
        assert_eq!(a.min_l1(&p), 3.0);
        let inside = Point::xy(1.0, 1.0);
        assert_eq!(a.min_dist2(&inside), 0.0);
        assert!(a.nearest_point(&inside).same_location(&inside));
    }

    #[test]
    fn corners_2d() {
        let a = r(0.0, 0.0, 1.0, 2.0);
        let cs = a.corner_points();
        assert_eq!(cs.len(), 4);
        assert!(cs.iter().any(|c| c.same_location(&Point::xy(0.0, 0.0))));
        assert!(cs.iter().any(|c| c.same_location(&Point::xy(1.0, 0.0))));
        assert!(cs.iter().any(|c| c.same_location(&Point::xy(0.0, 2.0))));
        assert!(cs.iter().any(|c| c.same_location(&Point::xy(1.0, 2.0))));
    }

    #[test]
    fn corners_3d() {
        let a = Rect::new(Point::new(vec![0.0; 3]), Point::new(vec![1.0; 3]));
        assert_eq!(a.corner_points().len(), 8);
    }

    #[test]
    fn window_query_rect_matches_paper() {
        // Fig. 4(a): window of c2 (7.5,42) for q (8.5,55) spans
        // [6.5,8.5] × [29,55].
        let c2 = Point::xy(7.5, 42.0);
        let q = Point::xy(8.5, 55.0);
        let w = Rect::window(&c2, &q);
        // Bounds are ulp-widened; compare with tolerance.
        assert!(w.lo().approx_eq(&Point::xy(6.5, 29.0), 1e-9));
        assert!(w.hi().approx_eq(&Point::xy(8.5, 55.0), 1e-9));
        // q sits on the window boundary by construction and must be in.
        assert!(w.contains_point(&q));
    }
}
