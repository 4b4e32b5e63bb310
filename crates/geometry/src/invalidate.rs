//! The geometric kernel behind cached MWQ answers' delete eviction.
//!
//! When a product is deleted, a cached MWQ optimum can only be undercut
//! by a repair position the victim alone was blocking. [`release_region`]
//! bounds those positions in closed form from the dynamic-dominance
//! definition `t_c(x) = |x − c|` (Eqn 1): the box of centres a deleted
//! product could have been dynamically dominating against some query
//! position in a given box (the safe region's bounding box). A repair
//! position outside it cannot have been blocked by the victim, so the
//! cache keeps the answer unless the box admits a repair at or below
//! the cached cost.
//!
//! The kernel is *conservative*: it may report a delete as relevant
//! when it is not (costing only a cache refill), never the reverse.

use crate::point::Point;
use crate::rect::Rect;

/// Relative + absolute slack applied to conservatively widened bounds
/// so floating-point rounding in midpoints/radii can never exclude a
/// genuinely affected centre.
const SLACK: f64 = 1e-9;

/// The box of centres `c'` for which the deleted product `v` could
/// dynamically dominate *some* point of the box `sr_bb` — the
/// positions whose admission (against any candidate query position
/// the MWQ pipeline ranges over) the victim alone may have been
/// blocking.
///
/// Per dimension the condition `∃ x ∈ [lo_i, hi_i]: |v_i − c'_i| ≤
/// |x − c'_i|` fails only when `c'_i` is strictly closer to *both*
/// interval endpoints than to `v_i`, i.e. strictly beyond the looser
/// of the two midpoints. The feasible set is therefore the half-line
/// bounded by `mid(v_i, far_i)` on `v`'s side, where `far_i` is the
/// endpoint on the opposite side of the interval — and the whole axis
/// when `v_i` lies inside `[lo_i, hi_i]`. Clipped against `universe`;
/// `None` when the clipped box is empty.
///
/// Midpoints are widened by a small relative slack so rounding never
/// excludes a genuinely released centre.
///
/// # Examples
///
/// ```
/// use wnrs_geometry::{release_region, Point, Rect};
///
/// let universe = Rect::new(Point::xy(0.0, 0.0), Point::xy(100.0, 100.0));
/// let sr_bb = Rect::new(Point::xy(40.0, 40.0), Point::xy(60.0, 60.0));
/// let region = release_region(&Point::xy(10.0, 10.0), &sr_bb, &universe).unwrap();
/// // Centres at or left of / below the midpoints with the far corner
/// // (35, 35) could have had the victim between them and the box.
/// assert!(region.contains_point(&Point::xy(20.0, 20.0)));
/// assert!(!region.contains_point(&Point::xy(50.0, 50.0)));
/// ```
#[must_use]
pub fn release_region(victim: &Point, sr_bb: &Rect, universe: &Rect) -> Option<Rect> {
    let dim = victim.dim();
    debug_assert_eq!(dim, sr_bb.dim());
    debug_assert_eq!(dim, universe.dim());
    let mut lo = Vec::with_capacity(dim);
    let mut hi = Vec::with_capacity(dim);
    for i in 0..dim {
        let vi = victim.get(i);
        let (a, b) = (sr_bb.lo().get(i), sr_bb.hi().get(i));
        let mut lo_i = universe.lo().get(i);
        let mut hi_i = universe.hi().get(i);
        if vi < a {
            // Farther endpoint is b: feasible centres sit at or left
            // of its midpoint with the victim.
            let mid = 0.5 * (vi + b);
            let pad = SLACK * (1.0 + mid.abs());
            hi_i = crate::point::min_f64(hi_i, mid + pad);
        } else if vi > b {
            let mid = 0.5 * (vi + a);
            let pad = SLACK * (1.0 + mid.abs());
            lo_i = crate::point::max_f64(lo_i, mid - pad);
        }
        if lo_i > hi_i {
            return None;
        }
        lo.push(lo_i);
        hi.push(hi_i);
    }
    Some(Rect::new(Point::new(lo), Point::new(hi)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::dominates_dyn;

    fn universe() -> Rect {
        Rect::new(Point::xy(0.0, 0.0), Point::xy(100.0, 100.0))
    }

    #[test]
    fn release_region_contains_every_blocked_centre() {
        // Brute force: every grid centre for which the victim
        // dynamically dominates some grid point of the box must fall
        // inside the region.
        let victim = Point::xy(22.0, 61.0);
        let sr_bb = Rect::new(Point::xy(44.0, 20.0), Point::xy(70.0, 44.0));
        let region = release_region(&victim, &sr_bb, &universe()).expect("non-empty");
        for x in 0..=50 {
            for y in 0..=50 {
                let c = Point::xy(f64::from(x) * 2.0, f64::from(y) * 2.0);
                let blocked = (0..=13).any(|qx| {
                    (0..=12).any(|qy| {
                        let q = Point::xy(44.0 + f64::from(qx) * 2.0, 20.0 + f64::from(qy) * 2.0);
                        dominates_dyn(&victim, &q, &c)
                    })
                });
                if blocked {
                    assert!(region.contains_point(&c), "missed centre {c:?}");
                }
            }
        }
    }

    #[test]
    fn release_region_inside_the_box_spans_the_axis() {
        // A victim coordinate inside the interval leaves that axis
        // unbounded: a query endpoint always exists on the far side.
        let victim = Point::xy(50.0, 10.0);
        let sr_bb = Rect::new(Point::xy(40.0, 40.0), Point::xy(60.0, 60.0));
        let region = release_region(&victim, &sr_bb, &universe()).expect("non-empty");
        assert_eq!(region.lo().get(0), 0.0);
        assert_eq!(region.hi().get(0), 100.0);
        // Below the box, the far endpoint is 60: half-line up to ~35.
        assert!(region.hi().get(1) >= 35.0 && region.hi().get(1) < 36.0);
    }

    #[test]
    fn release_region_outside_universe_is_none() {
        let small = Rect::new(Point::xy(50.0, 0.0), Point::xy(100.0, 100.0));
        let victim = Point::xy(0.0, 10.0);
        let sr_bb = Rect::new(Point::xy(10.0, 10.0), Point::xy(20.0, 20.0));
        assert!(release_region(&victim, &sr_bb, &small).is_none());
    }
}
