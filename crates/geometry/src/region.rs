//! Union-of-boxes regions.
//!
//! The paper represents both the anti-dominance region `anti-DDR(c)` and
//! the safe region `SR(q)` as collections of (possibly overlapping)
//! axis-aligned rectangles, and computes `SR(q)` as the pairwise
//! intersection product `r11·r21 + r11·r22 + …` (Section V-B). [`Region`]
//! is that representation with the operations the algorithms need:
//! intersection, membership, union area, and nearest-point queries.
//!
//! **Box rows.** The algebra itself runs on flat rows of `f64`, not on
//! [`Rect`]s: a [`Boxes`] row is a box's lower corner then its upper
//! corner (`2·d` contiguous coordinates), and a [`Corners`] row is the
//! upper corner `u` of an origin-anchored box `[0, u]` (`d`
//! coordinates), the form every anti-DDR box takes in a customer's
//! distance space. Two kernels run over rows: the containment
//! [`Antichain`] and the pairwise product of [`Region::intersect`] and
//! [`crate::parallel::intersect_all`]. A [`Rect`] is built only for a
//! box a [`Region`] returns.
//!
//! **The antichain rule.** A candidate box is dropped when a kept box
//! contains it (boundary inclusive, so of two equal boxes the first
//! wins); otherwise the kept boxes it contains are evicted and it is
//! appended. Survivors therefore stay in first-seen order. Box order is
//! part of a region's answer: MWQ's case C1 takes the first of
//! equal-cost nearest points (`min_by`) and case C2 replaces its best
//! corner only on a strictly lower cost, both in box order.

use crate::point::{cmp_f64, Point};
use crate::rect::Rect;
use std::fmt;
use std::marker::PhantomData;

/// How a row of `f64`s stores a box, when one row's box contains
/// another's, and how [`Antichain::offer`] scans the kept rows.
pub trait RowLayout {
    /// Row width in `f64`s for boxes of dimensionality `d`.
    fn width(d: usize) -> usize;

    /// Whether the box of row `outer` contains the box of row `inner`
    /// (boundary inclusive).
    fn contains(outer: &[f64], inner: &[f64]) -> bool;

    /// Scans the kept `rows` (each `w` wide) for a container of `cand`,
    /// else for the first row `cand` contains. Kept rows form an
    /// antichain, so a candidate with a container contains no kept row,
    /// and the scan order cannot change what is found.
    ///
    /// This default searches for a container first, newest rows first
    /// (consecutive product candidates share their `a` box, so a
    /// container is most often a recent row), and for evictions only
    /// then. In the box product, which drops almost every candidate, it
    /// was 1.3× faster on `anticorr_3d`'s questions than one scan
    /// testing both directions.
    #[inline(always)]
    fn find(rows: &[f64], cand: &[f64], w: usize) -> Found {
        if rows
            .chunks_exact(w)
            .rev()
            .any(|row| Self::contains(row, cand))
        {
            return Found::Container;
        }
        match rows
            .chunks_exact(w)
            .position(|row| Self::contains(cand, row))
        {
            Some(i) => Found::Contained(i),
            None => Found::Neither,
        }
    }
}

/// What a [`RowLayout::find`] scan found among the kept rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Found {
    /// A kept row contains the candidate.
    Container,
    /// No kept row contains the candidate; the one at this index is
    /// the first it contains.
    Contained(usize),
    /// The candidate is incomparable to every kept row.
    Neither,
}

/// Rows of `2·d` coordinates: a box's lower corner, then its upper
/// corner — the one format [`Region`]'s operations run on.
#[derive(Debug)]
pub enum Boxes {}

/// Rows of `d` coordinates: the upper corner `u` of the origin-anchored
/// box `[0, u]`. Every anti-DDR box is anchored at the origin of the
/// customer's distance space, so containment is weak dominance of the
/// upper corners.
#[derive(Debug)]
pub enum Corners {}

impl RowLayout for Boxes {
    #[inline]
    fn width(d: usize) -> usize {
        2 * d
    }

    #[inline]
    fn contains(outer: &[f64], inner: &[f64]) -> bool {
        let d = outer.len() / 2;
        let (outer_lo, outer_hi) = outer.split_at(d);
        let (inner_lo, inner_hi) = inner.split_at(d);
        outer_lo.iter().zip(inner_lo).all(|(o, i)| o <= i)
            && inner_hi.iter().zip(outer_hi).all(|(i, o)| i <= o)
    }
}

impl RowLayout for Corners {
    #[inline]
    fn width(d: usize) -> usize {
        d
    }

    #[inline]
    fn contains(outer: &[f64], inner: &[f64]) -> bool {
        inner.iter().zip(outer).all(|(i, o)| i <= o)
    }

    /// One scan testing both directions at once: on `anticorr_3d`'s
    /// questions it halved the clipper's time against the default.
    #[inline(always)]
    fn find(rows: &[f64], cand: &[f64], w: usize) -> Found {
        for (i, row) in rows.chunks_exact(w).enumerate() {
            let (mut row_has_cand, mut cand_has_row) = (true, true);
            for (r, c) in row.iter().zip(cand) {
                row_has_cand &= c <= r;
                cand_has_row &= r <= c;
            }
            if row_has_cand {
                return Found::Container;
            }
            if cand_has_row {
                return Found::Contained(i);
            }
        }
        Found::Neither
    }
}

/// Flat rows kept as a containment antichain under the module's
/// first-seen rule (see the module docs).
///
/// Every dropped or evicted row counts once towards the
/// `sr_boxes_pruned` counter, recorded when the antichain is dropped.
#[derive(Debug)]
pub struct Antichain<L: RowLayout> {
    dim: usize,
    rows: Vec<f64>,
    pruned: u64,
    layout: PhantomData<L>,
}

impl<L: RowLayout> Antichain<L> {
    /// An empty antichain of `dim`-dimensional boxes.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "boxes need at least one dimension");
        Self {
            dim,
            rows: Vec::new(),
            pruned: 0,
            layout: PhantomData,
        }
    }

    /// Offers `cand` (one row): dropped if a kept row contains it,
    /// otherwise kept rows it contains are evicted and it is appended.
    /// Returns whether it was kept.
    pub fn offer(&mut self, cand: &[f64]) -> bool {
        let w = L::width(self.dim);
        debug_assert_eq!(cand.len(), w, "row width mismatch");
        // Rows of d = 3 (widths 3 and 6) get a scan compiled for their
        // width: `anticorr_3d`'s question p50 fell from 7.32 to 6.26 ms
        // with it (8 alternated pairs). Other widths take the generic one.
        let found = match w {
            3 => find_w::<L, 3>(&self.rows, cand),
            6 => find_w::<L, 6>(&self.rows, cand),
            _ => L::find(&self.rows, cand, w),
        };
        let first = match found {
            Found::Container => {
                self.pruned += 1;
                return false;
            }
            Found::Contained(first) => first,
            Found::Neither => {
                self.rows.extend_from_slice(cand);
                return true;
            }
        };
        // Past the first eviction no kept row can contain `cand`: it
        // would contain the evicted row too, and kept rows form an
        // antichain. So only evictions remain to find.
        let n = self.rows.len() / w;
        let mut write = first;
        for read in first + 1..n {
            let span = read * w..(read + 1) * w;
            let kept = self.rows.get(span.clone());
            if kept.is_some_and(|row| !L::contains(cand, row)) {
                self.rows.copy_within(span, write * w);
                write += 1;
            }
        }
        self.pruned += (n - write) as u64;
        self.rows.truncate(write * w);
        self.rows.extend_from_slice(cand);
        true
    }

    /// Dimensionality of the boxes.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The kept rows, concatenated in first-seen order.
    pub fn rows(&self) -> &[f64] {
        &self.rows
    }

    /// Whether no row is kept.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Empties the antichain, keeping its allocation. Rows dropped or
    /// evicted so far still count when it is dropped.
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// The kept rows, concatenated in first-seen order.
    #[must_use]
    pub fn into_rows(mut self) -> Vec<f64> {
        self.debug_check_antichain();
        std::mem::take(&mut self.rows)
    }

    /// With `invariant-checks`: debug-asserts that no kept row contains
    /// another.
    #[cfg(feature = "invariant-checks")]
    fn debug_check_antichain(&self) {
        let w = L::width(self.dim);
        for (i, a) in self.rows.chunks_exact(w).enumerate() {
            for (j, b) in self.rows.chunks_exact(w).enumerate() {
                debug_assert!(i == j || !L::contains(a, b), "rows left antichain form");
            }
        }
    }

    #[cfg(not(feature = "invariant-checks"))]
    #[inline]
    fn debug_check_antichain(&self) {}
}

/// [`RowLayout::find`] on rows of the compile-time width `W`.
#[inline(always)]
fn find_w<L: RowLayout, const W: usize>(rows: &[f64], cand: &[f64]) -> Found {
    let (cand, _) = cand.split_at(W);
    L::find(rows, cand, W)
}

impl<L: RowLayout> Drop for Antichain<L> {
    fn drop(&mut self) {
        if self.pruned > 0 {
            wnrs_obs::record_n(wnrs_obs::Counter::SrBoxesPruned, self.pruned);
        }
    }
}

/// The pairwise intersection product of two [`Boxes`] row sets with
/// containment pruning (`(r11 + r12) · (r21 + r22) = r11·r21 + …`),
/// formed in `a`-major order.
///
/// Pruning is applied *while* the product is built, so the quadratic
/// product never materialises when most of it is redundant (deeply
/// nested anti-DDR boxes are the common case in safe-region
/// construction).
#[must_use]
pub(crate) fn product(dim: usize, a: &[f64], b: &[f64]) -> Antichain<Boxes> {
    let w = Boxes::width(dim);
    let mut out = Antichain::new(dim);
    let mut cand = vec![0.0; w];
    for ra in a.chunks_exact(w) {
        for rb in b.chunks_exact(w) {
            if intersect_rows(ra, rb, &mut cand) {
                out.offer(&cand);
            }
        }
    }
    out
}

/// Writes the intersection of the [`Boxes`] rows `a` and `b` into `out`
/// and returns `true`, or returns `false` if they are disjoint. Touching
/// boxes meet in a degenerate box, as in [`Rect::intersection`], whose
/// per-coordinate operations this repeats.
#[inline]
pub(crate) fn intersect_rows(a: &[f64], b: &[f64], out: &mut [f64]) -> bool {
    let d = a.len() / 2;
    let (a_lo, a_hi) = a.split_at(d);
    let (b_lo, b_hi) = b.split_at(d);
    let (out_lo, out_hi) = out.split_at_mut(d);
    let lo = a_lo.iter().zip(b_lo).zip(out_lo);
    let hi = a_hi.iter().zip(b_hi).zip(out_hi);
    for (((al, bl), ol), ((ah, bh), oh)) in lo.zip(hi) {
        let l = al.max(*bl);
        let h = ah.min(*bh);
        if l > h {
            return false;
        }
        *ol = l;
        *oh = h;
    }
    true
}

/// Appends `r` to `out` as a [`Boxes`] row.
fn push_row(r: &Rect, out: &mut Vec<f64>) {
    out.extend_from_slice(r.lo().coords());
    out.extend_from_slice(r.hi().coords());
}

/// A (possibly empty) region of `R^d` represented as a union of
/// axis-aligned boxes. Boxes may overlap; containment-redundant boxes are
/// pruned eagerly so the representation stays small under repeated
/// intersection.
#[derive(Clone, PartialEq, Default)]
pub struct Region {
    boxes: Vec<Rect>,
}

impl Region {
    /// The empty region.
    #[must_use]
    pub fn empty() -> Self {
        Self { boxes: Vec::new() }
    }

    /// A region consisting of a single box.
    #[must_use]
    pub fn from_rect(r: Rect) -> Self {
        Self { boxes: vec![r] }
    }

    /// A region from a collection of boxes; containment-redundant members
    /// are pruned under the module's antichain rule.
    ///
    /// # Panics
    ///
    /// Panics if the boxes disagree in dimensionality.
    #[must_use]
    pub fn from_boxes(boxes: Vec<Rect>) -> Self {
        let Some(d) = boxes.first().map(Rect::dim) else {
            return Self::empty();
        };
        assert!(
            boxes.iter().all(|b| b.dim() == d),
            "all boxes of a region must share dimensionality"
        );
        let mut kept = Antichain::<Boxes>::new(d);
        let mut row = Vec::with_capacity(Boxes::width(d));
        for b in &boxes {
            row.clear();
            push_row(b, &mut row);
            kept.offer(&row);
        }
        Self::from_antichain(kept)
    }

    /// The region of an antichain's [`Boxes`] rows, in their order.
    #[must_use]
    pub(crate) fn from_antichain(boxes: Antichain<Boxes>) -> Self {
        let d = boxes.dim();
        Self::from_pruned_rows(d, &boxes.into_rows())
    }

    /// The region of an antichain's origin-anchored [`Corners`] rows:
    /// the boxes `[0, u]`, in their order.
    #[must_use]
    pub fn from_corners(corners: Antichain<Corners>) -> Self {
        let d = corners.dim();
        let origin = Point::new(vec![0.0; d]);
        let boxes = corners
            .into_rows()
            .chunks_exact(d)
            .map(|u| Rect::new(origin.clone(), Point::new(u)))
            .collect();
        let region = Self { boxes };
        region.debug_check_canonical();
        region
    }

    /// Builds the [`Rect`]s of `d`-dimensional [`Boxes`] rows that
    /// already form an antichain.
    #[must_use]
    pub(crate) fn from_pruned_rows(d: usize, rows: &[f64]) -> Self {
        let boxes = rows
            .chunks_exact(Boxes::width(d))
            .map(|row| {
                let (lo, hi) = row.split_at(d);
                Rect::new(Point::new(lo), Point::new(hi))
            })
            .collect();
        let region = Self { boxes };
        region.debug_check_canonical();
        region
    }

    /// The region's boxes as concatenated [`Boxes`] rows, in box order.
    #[must_use]
    pub(crate) fn to_rows(&self) -> Vec<f64> {
        let mut rows = Vec::with_capacity(self.boxes.len() * Boxes::width(self.dim().unwrap_or(0)));
        for b in &self.boxes {
            push_row(b, &mut rows);
        }
        rows
    }

    /// The boxes making up the region.
    pub fn boxes(&self) -> &[Rect] {
        &self.boxes
    }

    /// Whether the region contains no box.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Number of boxes in the representation.
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// Dimensionality, or `None` for the empty region.
    pub fn dim(&self) -> Option<usize> {
        self.boxes.first().map(|b| b.dim())
    }

    /// Whether `p` lies in the region (boundary inclusive).
    pub fn contains(&self, p: &Point) -> bool {
        self.boxes.iter().any(|b| b.contains_point(p))
    }

    /// Intersects with a single box.
    pub fn intersect_rect(&self, r: &Rect) -> Region {
        let d = r.dim();
        let mut clip = Vec::with_capacity(Boxes::width(d));
        push_row(r, &mut clip);
        let mut kept = Antichain::<Boxes>::new(d);
        let mut cand = vec![0.0; Boxes::width(d)];
        for row in self.to_rows().chunks_exact(Boxes::width(d)) {
            if intersect_rows(row, &clip, &mut cand) {
                kept.offer(&cand);
            }
        }
        Self::from_antichain(kept)
    }

    /// Intersects two regions: the pairwise product of their boxes,
    /// `self`-major, with containment pruning.
    pub fn intersect(&self, other: &Region) -> Region {
        let (Some(d), Some(_)) = (self.dim(), other.dim()) else {
            return Region::empty();
        };
        Self::from_antichain(product(d, &self.to_rows(), &other.to_rows()))
    }

    /// Unions two regions (concatenation + containment pruning).
    pub fn union(&self, other: &Region) -> Region {
        let mut boxes = self.boxes.clone();
        boxes.extend(other.boxes.iter().cloned());
        Region::from_boxes(boxes)
    }

    /// Adds a box to the region.
    pub fn push(&mut self, r: Rect) {
        if let Some(d) = self.dim() {
            assert_eq!(d, r.dim(), "box dimensionality mismatch");
        }
        let mut boxes = std::mem::take(&mut self.boxes);
        boxes.push(r);
        *self = Region::from_boxes(boxes);
    }

    /// Exact d-dimensional volume of the union, by coordinate compression:
    /// the box bounds induce a grid; a grid cell is covered iff its centre
    /// is covered. Runs in `O((2m)^d · m)` for `m` boxes — fine for the
    /// small unions that survive safe-region pruning. Degenerate boxes
    /// contribute zero volume.
    pub fn area(&self) -> f64 {
        let Some(d) = self.dim() else { return 0.0 };
        // Collect and sort the distinct coordinates per dimension.
        let mut cuts: Vec<Vec<f64>> = vec![Vec::new(); d];
        for b in &self.boxes {
            let bounds = b.lo().coords().iter().zip(b.hi().coords().iter());
            for (cut, (&l, &h)) in cuts.iter_mut().zip(bounds) {
                cut.push(l);
                cut.push(h);
            }
        }
        for c in &mut cuts {
            c.sort_by(|a, b| cmp_f64(*a, *b));
            c.dedup();
        }
        // Per-dimension grid cells: consecutive cut pairs.
        let cells: Vec<Vec<(f64, f64)>> = cuts
            .iter()
            .map(|c| {
                c.windows(2)
                    .filter_map(|w| match w {
                        [lo, hi] => Some((*lo, *hi)),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        let radix: Vec<usize> = cells.iter().map(Vec::len).collect();
        if radix.contains(&0) {
            return 0.0;
        }
        // Walk the grid cells in mixed-radix order.
        let total: usize = radix.iter().product();
        let mut sum = 0.0;
        let mut idx = vec![0usize; d];
        for _ in 0..total {
            let mut vol = 1.0;
            let mut center = Vec::with_capacity(d);
            for (cell, &k) in cells.iter().zip(idx.iter()) {
                let (lo, hi) = cell.get(k).copied().unwrap_or((0.0, 0.0));
                vol *= hi - lo;
                center.push(0.5 * (lo + hi));
            }
            if vol > 0.0 {
                let c = Point::new(center);
                if self.boxes.iter().any(|b| b.contains_point(&c)) {
                    sum += vol;
                }
            }
            // Increment mixed-radix counter.
            for (i, &r) in idx.iter_mut().zip(radix.iter()) {
                *i += 1;
                if *i < r {
                    break;
                }
                *i = 0;
            }
        }
        sum
    }

    /// The point of the region nearest to `p` under L1 distance, or `None`
    /// for the empty region. Ties broken by box order.
    pub fn nearest_point_l1(&self, p: &Point) -> Option<Point> {
        self.boxes
            .iter()
            .map(|b| b.nearest_point(p))
            .min_by(|a, b| cmp_f64(a.l1(p), b.l1(p)))
    }

    /// The point of the region nearest to `p` under L2 distance.
    pub fn nearest_point_l2(&self, p: &Point) -> Option<Point> {
        self.boxes
            .iter()
            .map(|b| b.nearest_point(p))
            .min_by(|a, b| cmp_f64(a.dist2(p), b.dist2(p)))
    }

    /// Minimum L1 distance from `p` to the region (zero if inside,
    /// `None` if empty).
    pub fn min_l1(&self, p: &Point) -> Option<f64> {
        self.boxes
            .iter()
            .map(|b| b.min_l1(p))
            .min_by(|a, b| cmp_f64(*a, *b))
    }

    /// Shrinks every box by `eps` on each side (per dimension), dropping
    /// boxes that collapse below zero extent. The result is a closed
    /// region contained in the *interior* of the original — useful when
    /// a strictly-interior point is needed (every point of a closed
    /// anti-dominance/safe region is only a limit of strictly valid
    /// points; see the boundary discussion in `wnrs-skyline::ddr`).
    ///
    /// # Panics
    ///
    /// Panics if `eps` is negative.
    pub fn shrink(&self, eps: f64) -> Region {
        assert!(eps >= 0.0, "eps must be non-negative");
        let Some(d) = self.dim() else {
            return Region::empty();
        };
        if eps <= 0.0 {
            return self.clone();
        }
        let mut kept = Antichain::<Boxes>::new(d);
        let mut rows = self.to_rows();
        'boxes: for row in rows.chunks_exact_mut(Boxes::width(d)) {
            let (lo, hi) = row.split_at_mut(d);
            for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
                *l += eps;
                *h -= eps;
                if *l > *h {
                    continue 'boxes;
                }
            }
            kept.offer(row);
        }
        Self::from_antichain(kept)
    }

    /// Bounding box of the region, or `None` if empty.
    pub fn bounding(&self) -> Option<Rect> {
        let mut it = self.boxes.iter();
        let first = it.next()?.clone();
        Some(it.fold(first, |acc, b| acc.union_mbr(b)))
    }

    /// Whether the representation is in canonical maximal-box form: no
    /// box of the region contains another (containment antichain).
    #[cfg(feature = "invariant-checks")]
    #[must_use]
    pub fn is_canonical(&self) -> bool {
        self.boxes.iter().enumerate().all(|(i, a)| {
            self.boxes
                .iter()
                .enumerate()
                .all(|(j, b)| i == j || !a.contains_rect(b))
        })
    }

    /// No-op twin of [`Self::is_canonical`] (lint rule W3): vacuously
    /// true with the invariant layer off, so callers can assert on
    /// canonical form unconditionally.
    #[cfg(not(feature = "invariant-checks"))]
    #[must_use]
    pub fn is_canonical(&self) -> bool {
        true
    }

    /// With `invariant-checks`: debug-asserts canonical maximal-box form
    /// after every canonicalising operation. Free when the feature (or
    /// debug assertions) are off.
    #[cfg(feature = "invariant-checks")]
    fn debug_check_canonical(&self) {
        debug_assert!(
            self.is_canonical(),
            "region left canonical maximal-box form: {self:?}"
        );
    }

    #[cfg(not(feature = "invariant-checks"))]
    #[inline]
    fn debug_check_canonical(&self) {}
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.boxes.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(lx: f64, ly: f64, hx: f64, hy: f64) -> Rect {
        Rect::new(Point::xy(lx, ly), Point::xy(hx, hy))
    }

    #[test]
    fn empty_region() {
        let e = Region::empty();
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        assert!(!e.contains(&Point::xy(0.0, 0.0)));
        assert!(e.nearest_point_l1(&Point::xy(0.0, 0.0)).is_none());
        assert!(e.bounding().is_none());
    }

    #[test]
    fn prune_contained_and_duplicate_boxes() {
        let region = Region::from_boxes(vec![
            r(0.0, 0.0, 4.0, 4.0),
            r(1.0, 1.0, 2.0, 2.0), // contained
            r(0.0, 0.0, 4.0, 4.0), // duplicate
            r(3.0, 3.0, 6.0, 6.0), // partial overlap — kept
        ]);
        assert_eq!(region.len(), 2);
    }

    #[test]
    fn membership() {
        let region = Region::from_boxes(vec![r(0.0, 0.0, 1.0, 1.0), r(2.0, 2.0, 3.0, 3.0)]);
        assert!(region.contains(&Point::xy(0.5, 0.5)));
        assert!(region.contains(&Point::xy(1.0, 1.0)), "boundary inclusive");
        assert!(!region.contains(&Point::xy(1.5, 1.5)));
        assert!(region.contains(&Point::xy(2.5, 3.0)));
    }

    #[test]
    fn intersection_of_unions() {
        // (r11 + r12) · (r21 + r22) from the paper's Section V-B.
        let a = Region::from_boxes(vec![r(0.0, 0.0, 2.0, 4.0), r(0.0, 0.0, 4.0, 2.0)]);
        let b = Region::from_boxes(vec![r(1.0, 1.0, 5.0, 5.0)]);
        let i = a.intersect(&b);
        assert_eq!(i.len(), 2);
        assert!(i.contains(&Point::xy(1.5, 3.0)));
        assert!(i.contains(&Point::xy(3.0, 1.5)));
        assert!(!i.contains(&Point::xy(3.0, 3.0)));
    }

    #[test]
    fn intersection_prunes_nested_product_boxes() {
        // Each operand is a telescope of nested boxes. Every product box
        // is contained in big·big, so the naive 4×4 = 16-element product
        // must collapse to that single maximal box.
        let nest = |k: f64| -> Vec<Rect> {
            (0..4)
                .map(|i| {
                    let inset = k * i as f64;
                    r(inset, inset, 10.0 - inset, 10.0 - inset)
                })
                .collect()
        };
        let a = Region { boxes: nest(0.5) }; // bypass from_boxes pruning
        let b = Region { boxes: nest(0.25) };
        let i = a.intersect(&b);
        assert_eq!(i.len(), 1);
        assert_eq!(i.boxes()[0], r(0.0, 0.0, 10.0, 10.0));
        // And the incremental prune agrees with the post-hoc one.
        let mut product = Vec::new();
        for x in a.boxes() {
            for y in b.boxes() {
                if let Some(p) = x.intersection(y) {
                    product.push(p);
                }
            }
        }
        assert_eq!(i, Region::from_boxes(product));
    }

    #[test]
    fn intersection_disjoint_is_empty() {
        let a = Region::from_rect(r(0.0, 0.0, 1.0, 1.0));
        let b = Region::from_rect(r(2.0, 2.0, 3.0, 3.0));
        assert!(a.intersect(&b).is_empty());
    }

    #[test]
    fn union_area_accounts_for_overlap() {
        // Two 2×2 boxes overlapping in a 1×1 square: area 4 + 4 − 1 = 7.
        let region = Region::from_boxes(vec![r(0.0, 0.0, 2.0, 2.0), r(1.0, 1.0, 3.0, 3.0)]);
        assert!((region.area() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn union_area_disjoint_adds() {
        let region = Region::from_boxes(vec![r(0.0, 0.0, 1.0, 1.0), r(5.0, 5.0, 7.0, 6.0)]);
        assert!((region.area() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn area_3d() {
        let unit = Rect::new(Point::new(vec![0.0; 3]), Point::new(vec![1.0; 3]));
        let shifted = Rect::new(
            Point::new(vec![0.5, 0.0, 0.0]),
            Point::new(vec![1.5, 1.0, 1.0]),
        );
        let region = Region::from_boxes(vec![unit, shifted]);
        assert!((region.area() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn degenerate_boxes_have_zero_area_but_count_for_membership() {
        let region = Region::from_rect(Rect::degenerate(Point::xy(1.0, 1.0)));
        assert_eq!(region.area(), 0.0);
        assert!(region.contains(&Point::xy(1.0, 1.0)));
    }

    #[test]
    fn nearest_point_picks_closest_box() {
        let region = Region::from_boxes(vec![r(0.0, 0.0, 1.0, 1.0), r(10.0, 0.0, 11.0, 1.0)]);
        let p = Point::xy(9.0, 0.5);
        let n = region.nearest_point_l1(&p).expect("non-empty");
        assert!(n.same_location(&Point::xy(10.0, 0.5)));
        assert_eq!(region.min_l1(&p), Some(1.0));
        // Inside point maps to itself.
        let inside = Point::xy(0.5, 0.5);
        assert!(region
            .nearest_point_l2(&inside)
            .expect("non-empty")
            .same_location(&inside));
        assert_eq!(region.min_l1(&inside), Some(0.0));
    }

    #[test]
    fn bounding_box() {
        let region = Region::from_boxes(vec![r(0.0, 0.0, 1.0, 1.0), r(5.0, -2.0, 6.0, 0.5)]);
        assert_eq!(region.bounding(), Some(r(0.0, -2.0, 6.0, 1.0)));
    }

    #[test]
    fn shrink_contracts_and_drops_degenerate() {
        let region = Region::from_boxes(vec![
            r(0.0, 0.0, 10.0, 10.0),
            r(20.0, 20.0, 20.5, 30.0), // collapses in x at eps = 1
        ]);
        let s = region.shrink(1.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.boxes()[0], r(1.0, 1.0, 9.0, 9.0));
        // eps = 0 is the identity.
        assert_eq!(region.shrink(0.0), region);
        // Full collapse yields the empty region.
        assert!(region.shrink(100.0).is_empty());
    }

    #[test]
    fn push_maintains_pruning() {
        let mut region = Region::from_rect(r(0.0, 0.0, 4.0, 4.0));
        region.push(r(1.0, 1.0, 2.0, 2.0));
        assert_eq!(region.len(), 1);
        region.push(r(3.0, 3.0, 5.0, 5.0));
        assert_eq!(region.len(), 2);
    }
}
