//! Limit-point verification of candidate answers.
//!
//! The paper's candidate constructions place points exactly on dominance
//! boundaries (its own worked example `c_1* = (5, 48.5)` ties `p_2` in
//! the mileage dimension). Such a candidate is *valid in the limit*: any
//! strictly further move along the modified dimensions makes it strictly
//! valid. These helpers nudge a candidate by `ε` along its movement
//! direction before testing membership, so tests and callers can confirm
//! post-conditions without rejecting the paper's boundary answers.

use std::cell::RefCell;
use wnrs_geometry::Point;
use wnrs_reverse_skyline::is_reverse_skyline_member;
use wnrs_rtree::{ItemId, RTree};

/// Carries the first index error out of the oracles the candidate
/// searches call — a membership test or an MWP repair — whose
/// signatures return plain answers. The one place a page-read failure
/// inside an oracle is handled: once a call has failed, later calls do
/// no index work and answer a fallback that the search can finish with
/// but the caller never sees, because [`FirstError::finish`] then
/// returns the error instead of the search's result.
pub(crate) struct FirstError<E>(RefCell<Option<E>>);

impl<E> FirstError<E> {
    #[must_use]
    pub(crate) fn new() -> Self {
        Self(RefCell::new(None))
    }

    /// The value of `f`, or `fallback()` once any call has failed.
    pub(crate) fn run<T>(
        &self,
        f: impl FnOnce() -> Result<T, E>,
        fallback: impl FnOnce() -> T,
    ) -> T {
        if self.0.borrow().is_none() {
            match f() {
                Ok(v) => return v,
                Err(e) => *self.0.borrow_mut() = Some(e),
            }
        }
        fallback()
    }

    /// `value`, unless a call failed: then the first error.
    pub(crate) fn finish<T>(self, value: T) -> Result<T, E> {
        match self.0.into_inner() {
            Some(e) => Err(e),
            None => Ok(value),
        }
    }
}

/// Nudges `candidate` by `eps` along each dimension it moved away from
/// `origin` (no nudge in unmoved dimensions).
pub fn nudge(origin: &Point, candidate: &Point, eps: f64) -> Point {
    assert!(eps >= 0.0, "eps must be non-negative");
    Point::new(
        (0..origin.dim())
            .map(|i| {
                let delta = candidate[i] - origin[i];
                if delta > 0.0 {
                    candidate[i] + eps
                } else if delta < 0.0 {
                    candidate[i] - eps
                } else {
                    candidate[i]
                }
            })
            .collect::<Vec<_>>(),
    )
}

/// Whether the modified why-not point `c_star` (moved from `c_t`) is at
/// least limit-valid: after an `eps` nudge along its movement direction,
/// `q` enters its dynamic skyline, i.e. the nudged point is in `RSL(q)`.
pub fn limit_verified_whynot(
    products: &RTree,
    c_t: &Point,
    c_star: &Point,
    q: &Point,
    exclude: Option<ItemId>,
    eps: f64,
) -> bool {
    limit_verified_whynot_by(c_t, c_star, q, eps, &mut |c, at| {
        is_reverse_skyline_member(products, c, at, exclude)
    })
}

/// Index-agnostic core of [`limit_verified_whynot`]: `member(c, at)`
/// decides `c ∈ RSL(at)` against whatever product store the caller runs
/// on (in-memory arena, page-resident tree, …). Called at most twice.
pub fn limit_verified_whynot_by(
    c_t: &Point,
    c_star: &Point,
    q: &Point,
    eps: f64,
    member: &mut impl FnMut(&Point, &Point) -> bool,
) -> bool {
    // Exactly valid counts too (e.g. c* = q with a product at q: valid
    // at the point but not in a punctured neighbourhood).
    if member(c_star, q) {
        return true;
    }
    let nudged = nudge(c_t, c_star, eps);
    member(&nudged, q)
}

/// Whether the modified query point `q_star` (moved from `q`) is at
/// least limit-valid for customer `c_t`: after an `eps` nudge along its
/// movement direction, `c_t ∈ RSL(q_star)`.
pub fn limit_verified_query(
    products: &RTree,
    c_t: &Point,
    q: &Point,
    q_star: &Point,
    exclude: Option<ItemId>,
    eps: f64,
) -> bool {
    limit_verified_query_by(c_t, q, q_star, eps, &mut |c, at| {
        is_reverse_skyline_member(products, c, at, exclude)
    })
}

/// Index-agnostic core of [`limit_verified_query`]: `member(c, at)`
/// decides `c ∈ RSL(at)`. Called at most twice.
pub fn limit_verified_query_by(
    c_t: &Point,
    q: &Point,
    q_star: &Point,
    eps: f64,
    member: &mut impl FnMut(&Point, &Point) -> bool,
) -> bool {
    if member(c_t, q_star) {
        return true;
    }
    let nudged = nudge(q, q_star, eps);
    member(c_t, &nudged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnrs_rtree::bulk::bulk_load;
    use wnrs_rtree::RTreeConfig;

    #[test]
    fn nudge_moves_only_changed_dims() {
        let origin = Point::xy(5.0, 30.0);
        let cand = Point::xy(5.0, 48.5);
        let n = nudge(&origin, &cand, 0.01);
        assert!(n.same_location(&Point::xy(5.0, 48.51)));
        let cand2 = Point::xy(3.0, 48.5);
        let n2 = nudge(&origin, &cand2, 0.01);
        assert!(n2.same_location(&Point::xy(2.99, 48.51)));
    }

    #[test]
    fn paper_mwp_answers_are_limit_valid() {
        let products = vec![
            Point::xy(7.5, 42.0),
            Point::xy(2.5, 70.0),
            Point::xy(7.5, 90.0),
            Point::xy(24.0, 20.0),
            Point::xy(20.0, 50.0),
            Point::xy(26.0, 70.0),
            Point::xy(16.0, 80.0),
        ];
        let tree = bulk_load(&products, RTreeConfig::with_max_entries(4));
        let c1 = Point::xy(5.0, 30.0);
        let q = Point::xy(8.5, 55.0);
        // The paper's two MWP answers.
        for cand in [Point::xy(5.0, 48.5), Point::xy(8.0, 30.0)] {
            assert!(
                limit_verified_whynot(&tree, &c1, &cand, &q, None, 1e-9),
                "{cand:?} should be limit-valid"
            );
            // …and exactly on the dominance boundary without the nudge:
            // p2 still (weakly) blocks q there, which is why these are
            // limit answers.
            assert!(!limit_verified_whynot(&tree, &c1, &cand, &q, None, 0.0));
        }
        // A clearly insufficient move is not valid even nudged.
        assert!(!limit_verified_whynot(
            &tree,
            &c1,
            &Point::xy(5.0, 40.0),
            &q,
            None,
            1e-9
        ));
    }

    #[test]
    fn paper_mqp_answers_are_limit_valid() {
        let products = vec![
            Point::xy(7.5, 42.0),
            Point::xy(2.5, 70.0),
            Point::xy(7.5, 90.0),
            Point::xy(24.0, 20.0),
            Point::xy(20.0, 50.0),
            Point::xy(26.0, 70.0),
            Point::xy(16.0, 80.0),
        ];
        let tree = bulk_load(&products, RTreeConfig::with_max_entries(4));
        let c1 = Point::xy(5.0, 30.0);
        let q = Point::xy(8.5, 55.0);
        for q_star in [Point::xy(8.5, 42.0), Point::xy(7.5, 55.0)] {
            assert!(
                limit_verified_query(&tree, &c1, &q, &q_star, None, 1e-9),
                "{q_star:?} should be limit-valid"
            );
        }
        assert!(!limit_verified_query(
            &tree,
            &c1,
            &q,
            &Point::xy(8.5, 50.0),
            None,
            1e-9
        ));
    }
}
