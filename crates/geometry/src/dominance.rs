//! Dominance relations.
//!
//! Three flavours of dominance drive the paper's algorithms:
//!
//! * **Static dominance** (Definition 1): `p1 ≻ p2` iff `p1` is no worse in
//!   every dimension and strictly better in at least one (smaller is
//!   better).
//! * **Dynamic dominance** (Definition 2): `p1 ≻_q p2` iff `p1` is at least
//!   as close to the query point `q` in every dimension and strictly closer
//!   in at least one. Equivalent to static dominance after the
//!   absolute-distance transform centred at `q`.
//! * **Global dominance** (Dellis & Seeger, VLDB'07): dynamic dominance
//!   restricted to points lying in the same orthant of `q`. Only globally
//!   non-dominated points can belong to the reverse skyline, which is what
//!   makes BBRS prune.

use crate::point::Point;

/// Outcome of a pairwise dominance comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dominance {
    /// The left point dominates the right one.
    Left,
    /// The right point dominates the left one.
    Right,
    /// Neither dominates (incomparable or coincident).
    Neither,
}

/// Static dominance `a ≻ b` (smaller preferred in every dimension).
///
/// # Examples
///
/// ```
/// use wnrs_geometry::{dominates, Point};
/// assert!(dominates(&Point::xy(1.0, 2.0), &Point::xy(1.0, 3.0)));
/// assert!(!dominates(&Point::xy(1.0, 2.0), &Point::xy(1.0, 2.0)));
/// assert!(!dominates(&Point::xy(1.0, 4.0), &Point::xy(2.0, 3.0)));
/// ```
pub fn dominates(a: &Point, b: &Point) -> bool {
    debug_assert_eq!(a.dim(), b.dim());
    dominates_components(a.coords(), b.coords())
}

/// Static dominance on raw coordinate slices: the flat analogue of
/// [`dominates`] for hot paths that keep points in shared `f64` buffers
/// instead of boxed [`Point`]s. Evaluated by
/// [`crate::kernels::dominates_chunked`], which agrees with the scalar
/// early-exit loop bit-for-bit on every input (ties, negative
/// coordinates, `-0.0` included).
#[inline]
pub fn dominates_components(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    wnrs_obs::record(wnrs_obs::Counter::DominanceTests);
    crate::kernels::dominates_chunked(a, b)
}

/// Compares `a` and `b` under static dominance in a single pass.
pub fn compare(a: &Point, b: &Point) -> Dominance {
    debug_assert_eq!(a.dim(), b.dim());
    let (mut a_better, mut b_better) = (false, false);
    for (&x, &y) in a.coords().iter().zip(b.coords().iter()) {
        if x < y {
            a_better = true;
        } else if y < x {
            b_better = true;
        }
        if a_better && b_better {
            return Dominance::Neither;
        }
    }
    match (a_better, b_better) {
        (true, false) => Dominance::Left,
        (false, true) => Dominance::Right,
        _ => Dominance::Neither,
    }
}

/// Dynamic dominance `a ≻_q b` (Definition 2): `a` is at least as close to
/// `q` as `b` in every dimension and strictly closer in one.
///
/// # Examples
///
/// ```
/// use wnrs_geometry::{dominates_dyn, Point};
/// // Paper, Fig. 2(a): p2 (7.5,42) dynamically dominates p1 (5,30) w.r.t.
/// // q (8.5,55).
/// let q = Point::xy(8.5, 55.0);
/// assert!(dominates_dyn(&Point::xy(7.5, 42.0), &Point::xy(5.0, 30.0), &q));
/// ```
pub fn dominates_dyn(a: &Point, b: &Point, q: &Point) -> bool {
    debug_assert_eq!(a.dim(), b.dim());
    debug_assert_eq!(a.dim(), q.dim());
    wnrs_obs::record(wnrs_obs::Counter::DominanceTests);
    crate::kernels::dominates_dyn_chunked(a.coords(), b.coords(), q.coords())
}

/// Compares `a` and `b` under dynamic dominance w.r.t. `q` in one pass.
pub fn compare_dyn(a: &Point, b: &Point, q: &Point) -> Dominance {
    debug_assert_eq!(a.dim(), b.dim());
    debug_assert_eq!(a.dim(), q.dim());
    let (mut a_better, mut b_better) = (false, false);
    let coords = a.coords().iter().zip(b.coords().iter());
    for ((&x, &y), &c) in coords.zip(q.coords().iter()) {
        let da = (c - x).abs();
        let db = (c - y).abs();
        if da < db {
            a_better = true;
        } else if db < da {
            b_better = true;
        }
        if a_better && b_better {
            return Dominance::Neither;
        }
    }
    match (a_better, b_better) {
        (true, false) => Dominance::Left,
        (false, true) => Dominance::Right,
        _ => Dominance::Neither,
    }
}

/// Global dominance (Dellis & Seeger): dynamic dominance where `a` and `b`
/// additionally lie on the same side of `q` in every dimension.
///
/// Points for which some product globally dominates them can never be
/// reverse-skyline points, so the global skyline is a superset of the
/// reverse skyline — the candidate set BBRS verifies with window queries.
pub fn dominates_global(a: &Point, b: &Point, q: &Point) -> bool {
    debug_assert_eq!(a.dim(), b.dim());
    debug_assert_eq!(a.dim(), q.dim());
    wnrs_obs::record(wnrs_obs::Counter::DominanceTests);
    crate::kernels::dominates_global_chunked(a.coords(), b.coords(), q.coords())
}

/// Removes every point of `points` that is dominated (per `dominated_by`)
/// by another member, in place. Quadratic; intended for the small candidate
/// sets (`Λ`, `F`, `M`) the paper's algorithms manipulate.
pub fn prune_dominated(points: &mut Vec<Point>, dominated_by: impl Fn(&Point, &Point) -> bool) {
    let pts = std::mem::take(points);
    let mut kept: Vec<Point> = Vec::with_capacity(pts.len());
    for p in pts {
        if kept.iter().any(|k| dominated_by(k, &p)) {
            continue;
        }
        kept.retain(|k| !dominated_by(&p, k));
        kept.push(p);
    }
    *points = kept;
}

/// Whether a dominance relation is antisymmetric on every pair of
/// `sample`: no two points dominate each other. Quadratic; intended for
/// the `invariant-checks` property suites.
#[cfg(feature = "invariant-checks")]
#[must_use]
pub fn antisymmetric_on(sample: &[Point], dominated_by: impl Fn(&Point, &Point) -> bool) -> bool {
    sample.iter().enumerate().all(|(i, a)| {
        sample
            .iter()
            .skip(i + 1)
            .all(|b| !(dominated_by(a, b) && dominated_by(b, a)))
    })
}

/// No-op twin of [`antisymmetric_on`] (lint rule W3): vacuously true
/// with the invariant layer off, so property suites compile either way.
#[cfg(not(feature = "invariant-checks"))]
#[must_use]
pub fn antisymmetric_on(_sample: &[Point], _dominated_by: impl Fn(&Point, &Point) -> bool) -> bool {
    true
}

/// Whether a dominance relation is transitive on every ordered triple of
/// `sample`: `a ≺ b ∧ b ≺ c ⇒ a ≺ c`. Cubic; intended for the
/// `invariant-checks` property suites on small samples.
#[cfg(feature = "invariant-checks")]
#[must_use]
pub fn transitive_on(sample: &[Point], dominated_by: impl Fn(&Point, &Point) -> bool) -> bool {
    sample.iter().all(|a| {
        sample.iter().all(|b| {
            sample
                .iter()
                .all(|c| !(dominated_by(a, b) && dominated_by(b, c)) || dominated_by(a, c))
        })
    })
}

/// No-op twin of [`transitive_on`] (lint rule W3): vacuously true with
/// the invariant layer off, so property suites compile either way.
#[cfg(not(feature = "invariant-checks"))]
#[must_use]
pub fn transitive_on(_sample: &[Point], _dominated_by: impl Fn(&Point, &Point) -> bool) -> bool {
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::xy(x, y)
    }

    #[test]
    fn static_dominance_paper_example() {
        // Fig. 1(b): skyline of all 8 car points is {p1, p3, p5};
        // p4 is dominated by p1 and p3.
        let p1 = p(5.0, 30.0);
        let p3 = p(2.5, 70.0);
        let p4 = p(7.5, 90.0);
        assert!(dominates(&p1, &p4));
        assert!(dominates(&p3, &p4));
        assert!(!dominates(&p4, &p1));
        assert!(!dominates(&p1, &p3));
        assert!(!dominates(&p3, &p1));
    }

    #[test]
    fn components_match_point_dominance() {
        let pairs = [
            (p(1.0, 2.0), p(1.0, 3.0)),
            (p(1.0, 2.0), p(1.0, 2.0)),
            (p(-1.0, 4.0), p(2.0, 3.0)),
            (p(-0.0, 1.0), p(0.0, 1.0)),
            (p(3.0, 3.0), p(2.0, 2.0)),
        ];
        for (a, b) in &pairs {
            assert_eq!(
                dominates_components(a.coords(), b.coords()),
                dominates(a, b),
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn dominance_is_irreflexive() {
        let a = p(1.0, 1.0);
        assert!(!dominates(&a, &a));
    }

    #[test]
    fn compare_matches_dominates() {
        let a = p(1.0, 2.0);
        let b = p(2.0, 3.0);
        assert_eq!(compare(&a, &b), Dominance::Left);
        assert_eq!(compare(&b, &a), Dominance::Right);
        assert_eq!(compare(&a, &a), Dominance::Neither);
        assert_eq!(compare(&p(1.0, 4.0), &p(2.0, 3.0)), Dominance::Neither);
    }

    #[test]
    fn dynamic_dominance_fig2() {
        // Fig. 2(a): DSL(q) = {p2, p6} for q(8.5, 55); p1 is dominated by
        // p2 w.r.t. q.
        let q = p(8.5, 55.0);
        let p1 = p(5.0, 30.0);
        let p2 = p(7.5, 42.0);
        let p6 = p(20.0, 50.0);
        assert!(dominates_dyn(&p2, &p1, &q));
        assert!(!dominates_dyn(&p1, &p2, &q));
        assert!(!dominates_dyn(&p2, &p6, &q));
        assert!(!dominates_dyn(&p6, &p2, &q));
    }

    #[test]
    fn dynamic_equals_static_after_transform() {
        let q = p(3.0, 7.0);
        let a = p(1.0, 9.0);
        let b = p(6.0, 2.0);
        assert_eq!(
            dominates_dyn(&a, &b, &q),
            dominates(&a.abs_diff(&q), &b.abs_diff(&q))
        );
        assert_eq!(
            dominates_dyn(&b, &a, &q),
            dominates(&b.abs_diff(&q), &a.abs_diff(&q))
        );
    }

    #[test]
    fn global_requires_same_orthant() {
        let q = p(0.0, 0.0);
        // a and b equidistant pattern but opposite sides in x.
        let a = p(1.0, 1.0);
        let b = p(-2.0, 2.0);
        assert!(dominates_dyn(&a, &b, &q));
        assert!(!dominates_global(&a, &b, &q));
        // Same orthant: global follows dynamic.
        let c = p(2.0, 2.0);
        assert!(dominates_global(&a, &c, &q));
    }

    #[test]
    fn global_boundary_point_on_axis() {
        // A point sitting exactly on the query axis belongs to both sides:
        // sa * sb == 0 must not count as "opposite sides".
        let q = p(0.0, 0.0);
        let on_axis = p(0.0, 1.0);
        let inside = p(1.0, 2.0);
        assert!(dominates_global(&on_axis, &inside, &q));
    }

    #[test]
    fn prune_keeps_skyline_only() {
        let mut pts = vec![
            p(1.0, 5.0),
            p(2.0, 2.0),
            p(5.0, 1.0),
            p(3.0, 3.0),
            p(6.0, 6.0),
        ];
        prune_dominated(&mut pts, dominates);
        assert_eq!(pts.len(), 3);
        assert!(pts.iter().any(|x| x.same_location(&p(1.0, 5.0))));
        assert!(pts.iter().any(|x| x.same_location(&p(2.0, 2.0))));
        assert!(pts.iter().any(|x| x.same_location(&p(5.0, 1.0))));
    }

    #[test]
    fn prune_with_duplicates_keeps_one_of_each() {
        // Duplicates do not dominate each other, so both survive — matching
        // the skyline definition.
        let mut pts = vec![p(1.0, 1.0), p(1.0, 1.0), p(2.0, 2.0)];
        prune_dominated(&mut pts, dominates);
        assert_eq!(pts.len(), 2);
    }
}
