//! The absolute-distance transform and orthant bookkeeping.
//!
//! Dynamic skylines are ordinary skylines computed after mapping every
//! point `p` to `(|c^1 - p^1|, …, |c^d - p^d|)` with the customer point `c`
//! as origin (Section II of the paper). This module implements that mapping
//! and the inverse mapping of *origin-anchored* boxes, which is all the
//! anti-dominance-region machinery needs: anti-dominance regions are
//! downward closed in the transform space, so they are unions of boxes
//! `[0, u]`, whose preimage in the original space is the symmetric box
//! `[c - u, c + u]` (the rectangles of the paper's Fig. 10).

use crate::point::Point;
use crate::rect::Rect;
use crate::region::{intersect_rows, Antichain, Boxes, Region};

/// An orthant around a centre point, encoded as a sign bitmask: bit `i` is
/// set iff the point lies at or above the centre in dimension `i`.
///
/// Used by the BBRS global-skyline computation, where dominance only acts
/// within a single orthant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Orthant(pub u32);

impl Orthant {
    /// Number of distinct orthants in `d` dimensions.
    pub fn count(d: usize) -> usize {
        assert!(d <= 20, "orthant enumeration limited to d ≤ 20");
        1 << d
    }
}

/// The orthant of `p` relative to `center`.
///
/// Points lying exactly on an axis are assigned to the upper orthant of
/// that axis; callers needing boundary-inclusive semantics in *both*
/// orthants (as global dominance does) should use
/// [`crate::dominance::dominates_global`] rather than comparing orthant
/// codes.
pub fn orthant_of(p: &Point, center: &Point) -> Orthant {
    debug_assert_eq!(p.dim(), center.dim());
    let mut mask = 0u32;
    for i in 0..p.dim() {
        if p[i] >= center[i] {
            mask |= 1 << i;
        }
    }
    Orthant(mask)
}

/// Maps `points` into the distance space centred at `origin`.
pub fn to_distance_space(points: &[Point], origin: &Point) -> Vec<Point> {
    points.iter().map(|p| p.abs_diff(origin)).collect()
}

/// Maps an *origin-anchored* transform-space box `[0, u]` back to the
/// original space: the symmetric box `[c - u, c + u]` around `c`.
///
/// # Panics
///
/// Panics if `u` has a negative coordinate (it must be a distance vector).
pub fn reflect_rect(c: &Point, u: &Point) -> Rect {
    assert_eq!(c.dim(), u.dim());
    let d = c.dim();
    let mut row = vec![0.0; 2 * d];
    reflect_row(c.coords(), u.coords(), &mut row);
    let (lo, hi) = row.split_at(d);
    Rect::new(Point::new(lo), Point::new(hi))
}

/// [`reflect_rect`] written into `out` as a [`Boxes`] row (lower
/// corner, then upper corner).
///
/// # Panics
///
/// Panics if `u` has a negative coordinate (it must be a distance vector).
#[inline]
fn reflect_row(c: &[f64], u: &[f64], out: &mut [f64]) {
    let d = c.len();
    debug_assert_eq!(u.len(), d);
    debug_assert_eq!(out.len(), 2 * d);
    assert!(
        u.iter().all(|&ui| ui >= 0.0),
        "distance-space corner must be non-negative, got {u:?}"
    );
    for i in 0..d {
        // Widen slightly: the regions these boxes represent are closed
        // and `c ± u` does not round-trip exactly in f64, so a boundary
        // point derived from the same distances (the query point,
        // typically) must not fall out by rounding. The pad scales with
        // the magnitudes involved (the round trip loses up to a few ulps
        // of the largest).
        let pad = 4.0 * f64::EPSILON * (c[i].abs() + u[i]);
        out[i] = c[i] - u[i] - pad;
        out[d + i] = c[i] + u[i] + pad;
    }
}

/// The original-space region of a customer at `c` whose distance-space
/// boxes `[0, u]` are given as [`Corners`](crate::region::Corners) rows: each reflects to
/// `[c − u, c + u]` ([`reflect_rect`]), is clipped to `universe` and
/// offered, in row order, to one containment [`Antichain`].
#[must_use]
pub fn reflect_corners(c: &Point, corners: &[f64], universe: &Rect) -> Region {
    let d = c.dim();
    assert_eq!(d, universe.dim(), "dimensionality mismatch");
    let mut clip = Vec::with_capacity(2 * d);
    clip.extend_from_slice(universe.lo().coords());
    clip.extend_from_slice(universe.hi().coords());
    let mut boxes = Antichain::<Boxes>::new(d);
    let (mut reflected, mut clipped) = (vec![0.0; 2 * d], vec![0.0; 2 * d]);
    for u in corners.chunks_exact(d) {
        reflect_row(c.coords(), u, &mut reflected);
        if intersect_rows(&reflected, &clip, &mut clipped) {
            boxes.offer(&clipped);
        }
    }
    Region::from_antichain(boxes)
}

/// Inverse of a single-point transform restricted to one orthant: the
/// original-space point at distance vector `u` from `c` in orthant `o`.
pub fn from_distance_space(c: &Point, u: &Point, o: Orthant) -> Point {
    debug_assert_eq!(c.dim(), u.dim());
    Point::new(
        (0..c.dim())
            .map(|i| {
                if o.0 & (1 << i) != 0 {
                    c[i] + u[i]
                } else {
                    c[i] - u[i]
                }
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transform_is_distance_to_origin() {
        let c = Point::xy(7.5, 42.0);
        let pts = vec![Point::xy(5.0, 30.0), Point::xy(8.5, 55.0)];
        let t = to_distance_space(&pts, &c);
        assert!(t[0].approx_eq(&Point::xy(2.5, 12.0), 1e-12));
        assert!(t[1].approx_eq(&Point::xy(1.0, 13.0), 1e-12));
    }

    #[test]
    fn orthant_codes() {
        let c = Point::xy(0.0, 0.0);
        assert_eq!(orthant_of(&Point::xy(1.0, 1.0), &c), Orthant(0b11));
        assert_eq!(orthant_of(&Point::xy(-1.0, 1.0), &c), Orthant(0b10));
        assert_eq!(orthant_of(&Point::xy(-1.0, -1.0), &c), Orthant(0b00));
        assert_eq!(orthant_of(&Point::xy(1.0, -1.0), &c), Orthant(0b01));
        // On-axis points land in the upper orthant.
        assert_eq!(orthant_of(&Point::xy(0.0, -1.0), &c), Orthant(0b01));
        assert_eq!(Orthant::count(2), 4);
        assert_eq!(Orthant::count(3), 8);
    }

    #[test]
    fn reflect_rect_is_symmetric_box() {
        let c = Point::xy(7.5, 42.0);
        let u = Point::xy(1.0, 13.0);
        let r = reflect_rect(&c, &u);
        // Bounds are ulp-widened; compare with tolerance.
        assert!(r.lo().approx_eq(&Point::xy(6.5, 29.0), 1e-9));
        assert!(r.hi().approx_eq(&Point::xy(8.5, 55.0), 1e-9));
        // The reflected rect matches the window rect for the
        // corresponding original-space point (up to the rounding pads,
        // which differ between the two constructions).
        let q = Point::xy(8.5, 55.0);
        let w = Rect::window(&c, &q);
        assert!(r.lo().approx_eq(w.lo(), 1e-9));
        assert!(r.hi().approx_eq(w.hi(), 1e-9));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn reflect_rejects_negative_distance() {
        let _ = reflect_rect(&Point::xy(0.0, 0.0), &Point::xy(-1.0, 0.0));
    }

    #[test]
    fn from_distance_space_round_trip() {
        let c = Point::xy(3.0, 4.0);
        let p = Point::xy(1.0, 9.0);
        let u = p.abs_diff(&c);
        let o = orthant_of(&p, &c);
        let back = from_distance_space(&c, &u, o);
        assert!(back.approx_eq(&p, 1e-12));
    }

    #[test]
    fn round_trip_all_orthants_3d() {
        let c = Point::new(vec![1.0, 2.0, 3.0]);
        for &p in &[
            [0.0, 0.0, 0.0],
            [2.0, 0.0, 5.0],
            [0.5, 3.0, 1.0],
            [9.0, 9.0, 9.0],
        ] {
            let p = Point::new(p.to_vec());
            let back = from_distance_space(&c, &p.abs_diff(&c), orthant_of(&p, &c));
            assert!(back.approx_eq(&p, 1e-12), "{p:?} failed round trip");
        }
    }
}
