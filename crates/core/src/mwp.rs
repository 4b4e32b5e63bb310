//! Algorithm 1 — **M**odify the **W**hy-not **P**oint.
//!
//! Move `c_t` to `c_t*` with minimum cost so that `q` enters
//! `DSL(c_t*)`. The construction works in a *directed* coordinate frame:
//! a blocker `e ∈ Λ` stops dominating `q` as soon as `c_t*` crosses, in
//! at least one dimension, the midpoint `m_i(e) = (q^i + e^i)/2` towards
//! `q` (the paper's Eqn (1) corner `u_l` is exactly this midpoint for
//! the canonical below-left configuration of Fig. 5). The feasible set is
//! therefore the complement of a union of boxes in the directed frame,
//! and the minimal-change candidates are the paper's staircase corners
//! (Eqn (2) min-merge) plus the two single-dimension end points
//! (Eqn (3)).
//!
//! Every candidate is a limit point (see [`crate::verify`]); candidates
//! are verified against the index with an ε-nudge and costed with the
//! engine's [`CostModel`].

use crate::answer::{finish_candidates, Candidate};
use crate::verify::{limit_verified_whynot_by, FirstError};
use std::cmp::Ordering;
use wnrs_geometry::{cmp_f64, CostModel, Point};
use wnrs_reverse_skyline::{is_reverse_skyline_member_with, window_query_with};
use wnrs_rtree::{ItemId, NodeSource, WindowScratch};

/// The result of Algorithm 1.
#[derive(Debug, Clone)]
pub struct MwpAnswer {
    /// Candidate new locations for the why-not point, cheapest first.
    /// Contains the unmodified `c_t` (cost 0) when `c_t ∈ RSL(q)`
    /// already.
    pub candidates: Vec<Candidate>,
}

impl MwpAnswer {
    /// The cheapest candidate.
    pub fn best(&self) -> &Candidate {
        &self.candidates[0]
    }

    /// The cheapest cost (0 when no modification is needed).
    pub fn best_cost(&self) -> f64 {
        self.best().cost
    }
}

/// Escape threshold of a blocker with coordinate `e` in one dimension
/// of the directed frame: crossing it (in direction `sign`) stops the
/// blocker from dominating `q`. `None` when this dimension cannot
/// neutralise the blocker in the chosen direction.
fn threshold(e: f64, q: f64, sign: f64) -> Option<f64> {
    // Note `signum` maps a 0.0 difference to 1.0, so the tie case
    // must be decided by comparison, not by sign extraction.
    let dir = match cmp_f64(q, e) {
        Ordering::Greater => 1.0,
        Ordering::Less => -1.0,
        // q and e tie in this dimension: no strict win possible.
        Ordering::Equal => return None,
    };
    // Escaping against the canonical direction is no escape.
    (dir == sign).then_some(sign * 0.5 * (q + e))
}

/// Whether the 2-d threshold pair `k` shadows `p`: `k` sorts no later
/// than `p` in the staircase sweep's (dim 0 desc, dim 1 desc) order and
/// `p` does not beat it in dim 1, so the sweep's record test discards
/// `p` whenever `k` is present. Thresholds are never NaN (points are
/// finite), so `<=` is the sweep's `!(b > best1)`.
fn shadows(k: (f64, f64), p: (f64, f64)) -> bool {
    cmp_f64(p.0, k.0).then(cmp_f64(p.1, k.1)).is_le() && p.1 <= k.1
}

/// Adds threshold pair `p` to the 2-d staircase candidates unless a kept
/// pair shadows it; otherwise it evicts the kept pairs it shadows.
/// Kept pairs never shadow each other, so the vector stays as small as
/// the frontier seen so far.
fn push_stair(stairs: &mut Vec<(f64, f64)>, p: (f64, f64)) {
    if stairs.iter().any(|&k| shadows(k, p)) {
        return;
    }
    stairs.retain(|&k| !shadows(p, k));
    stairs.push(p);
}

/// Runs Algorithm 1: all minimal candidate locations for `c_t*`,
/// cheapest first.
///
/// `exclude` removes the customer's own tuple from the product set
/// (monochromatic setting). The `eps` nudge is used for verification
/// only; reported candidates are the exact limit points.
///
/// # Errors
///
/// Returns the index's error when a node read fails.
pub fn modify_why_not_point<S: NodeSource>(
    products: &S,
    c_t: &Point,
    q: &Point,
    exclude: Option<ItemId>,
    cost: &CostModel,
    eps: f64,
) -> Result<MwpAnswer, S::Error> {
    let _span = wnrs_obs::span!("mwp");
    let lambda = window_query_with(products, c_t, q, exclude, &mut WindowScratch::new())?;
    modify_why_not_point_with_lambda(products, c_t, q, &lambda, exclude, cost, eps)
}

/// As [`modify_why_not_point`] against a precomputed culprit window
/// `Λ = window_query(c_t, q)` (the cross-query cache shares one window
/// result between `explain`, MWP and MQP). The index is still needed
/// for candidate verification.
///
/// # Errors
///
/// Returns the index's error when a verification probe fails.
pub fn modify_why_not_point_with_lambda<S: NodeSource>(
    products: &S,
    c_t: &Point,
    q: &Point,
    lambda: &[(ItemId, Point)],
    exclude: Option<ItemId>,
    cost: &CostModel,
    eps: f64,
) -> Result<MwpAnswer, S::Error> {
    let mut scratch = WindowScratch::new();
    let failed = FirstError::new();
    let ans = modify_why_not_point_core(c_t, q, lambda, cost, eps, &mut |c, at| {
        failed.run(
            || is_reverse_skyline_member_with(products, c, at, exclude, &mut scratch),
            || false,
        )
    });
    failed.finish(ans)
}

/// Index-agnostic core of Algorithm 1: the candidate construction uses
/// only `Λ`; the product store enters solely through `member(c, at)`
/// deciding `c ∈ RSL(at)` (in-memory arena, page-resident tree, …).
pub fn modify_why_not_point_core(
    c_t: &Point,
    q: &Point,
    lambda: &[(ItemId, Point)],
    cost: &CostModel,
    eps: f64,
    member: &mut impl FnMut(&Point, &Point) -> bool,
) -> MwpAnswer {
    assert_eq!(c_t.dim(), q.dim(), "dimensionality mismatch");
    let d = c_t.dim();
    if lambda.is_empty() {
        return MwpAnswer {
            candidates: vec![Candidate {
                point: c_t.clone(),
                cost: 0.0,
                verified: true,
            }],
        };
    }

    // Canonical escape direction: towards q (ties default to +1; such
    // dimensions rarely admit an escape and the axis analysis handles
    // them via the None thresholds).
    let sign: Vec<f64> = (0..d)
        .map(|i| if q[i] >= c_t[i] { 1.0 } else { -1.0 })
        .collect();

    // One pass over Λ, computing each blocker's thresholds on the fly.
    // Axis candidates (Eqn (3) endpoints; sole construction for d > 2)
    // move only dimension i far enough to escape every blocker, so only
    // the per-dimension maximum threshold matters: `needed[i]` folds it
    // in Λ order and turns `None` at the first blocker dimension i
    // cannot escape. In 2-d the pass also keeps the threshold pairs no
    // other pair shadows (Algorithm 1 steps 3–5) — the frontier of the
    // threshold set, in O(|Λ|·|F|) comparisons and with allocations
    // that do not grow with |Λ|.
    let mut needed: Vec<Option<f64>> = vec![Some(f64::NEG_INFINITY); d];
    let mut stairs: Vec<(f64, f64)> = Vec::new();
    for (_, e) in lambda {
        for (i, n) in needed.iter_mut().enumerate() {
            *n = n.zip(threshold(e[i], q[i], sign[i])).map(|(m, v)| m.max(v));
        }
        // In 2-d, while every blocker so far, this one included, has
        // both thresholds, its pair may lie on the staircase.
        if let [Some(_), Some(_)] = needed[..] {
            if let (Some(a), Some(b)) = (
                threshold(e[0], q[0], sign[0]),
                threshold(e[1], q[1], sign[1]),
            ) {
                push_stair(&mut stairs, (a, b));
            }
        }
    }

    let mut raw: Vec<Point> = Vec::new();
    for (i, (n, s_i)) in needed.iter().zip(&sign).enumerate() {
        if let Some(n) = n {
            // Only a move *towards* the threshold counts; if c_t is
            // already past it the blocker list would have been empty.
            raw.push(c_t.with_coord(i, s_i * n));
        }
    }

    // Staircase corners (Eqn (2) min-merge) — the 2-d construction of
    // Fig. 6(b), defined when every blocker has both thresholds. Sorting
    // the kept pairs by dim 0 descending, a pair matters only when its
    // dim-1 threshold exceeds every threshold seen so far. The pass
    // above dropped only pairs this max-sweep would discard.
    if let [Some(_), Some(_)] = needed[..] {
        stairs.sort_by(|a, b| cmp_f64(b.0, a.0).then(cmp_f64(b.1, a.1)));
        // Max-frontier sweep: descending dim 0, keep strict dim-1
        // record holders. The survivors form the staircase, now
        // ascending in dim 0 after the reverse.
        let mut best1 = f64::NEG_INFINITY;
        stairs.retain(|&(_, b)| {
            let record = b > best1;
            if record {
                best1 = b;
            }
            record
        });
        stairs.reverse();
        for w in stairs.windows(2) {
            // Escape the blockers up to w[0] via dim 0, the rest via
            // dim 1; the frontier is ascending in dim 0 and descending
            // in dim 1, so the suffix maximum in dim 1 is w[1]'s.
            raw.push(Point::xy(sign[0] * w[0].0, sign[1] * w[1].1));
        }
    }

    // Last-resort candidate: moving the customer onto the query point
    // always works.
    raw.push(q.clone());

    let candidates = raw
        .into_iter()
        .map(|p| {
            let verified = limit_verified_whynot_by(c_t, &p, q, eps, member);
            let c = cost.whynot_cost(c_t, &p);
            Candidate {
                point: p,
                cost: c,
                verified,
            }
        })
        .filter(|c| c.verified)
        .collect::<Vec<_>>();

    let candidates = if candidates.is_empty() {
        // Keep the guaranteed fallback even if ε-verification was too
        // strict (degenerate clustered data).
        vec![Candidate {
            point: q.clone(),
            cost: cost.whynot_cost(c_t, q),
            verified: false,
        }]
    } else {
        finish_candidates(candidates)
    };
    MwpAnswer { candidates }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnrs_geometry::Weights;
    use wnrs_rtree::bulk::bulk_load;
    use wnrs_rtree::{into_ok, RTreeConfig};

    fn paper_products() -> Vec<Point> {
        vec![
            Point::xy(7.5, 42.0),  // p2
            Point::xy(2.5, 70.0),  // p3
            Point::xy(7.5, 90.0),  // p4
            Point::xy(24.0, 20.0), // p5
            Point::xy(20.0, 50.0), // p6
            Point::xy(26.0, 70.0), // p7
            Point::xy(16.0, 80.0), // p8
        ]
    }

    fn unit_cost() -> CostModel {
        CostModel::new(Weights::equal(2), Weights::equal(2))
    }

    #[test]
    fn paper_worked_example() {
        // Section IV example: c1 (5, 30), q (8.5, 55) ⇒ candidates
        // {(5, 48.5), (8, 30)}.
        let tree = bulk_load(&paper_products(), RTreeConfig::with_max_entries(4));
        let ans = into_ok(modify_why_not_point(
            &tree,
            &Point::xy(5.0, 30.0),
            &Point::xy(8.5, 55.0),
            None,
            &unit_cost(),
            1e-9,
        ));
        let pts: Vec<&Point> = ans.candidates.iter().map(|c| &c.point).collect();
        assert!(
            pts.iter().any(|p| p.approx_eq(&Point::xy(5.0, 48.5), 1e-9)),
            "missing (5, 48.5): {pts:?}"
        );
        assert!(
            pts.iter().any(|p| p.approx_eq(&Point::xy(8.0, 30.0), 1e-9)),
            "missing (8, 30): {pts:?}"
        );
        // The cheapest candidate under equal weights is (8, 30): cost
        // 3/2 vs 18.5/2.
        assert!(ans.best().point.approx_eq(&Point::xy(8.0, 30.0), 1e-9));
        assert!((ans.best_cost() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn member_needs_no_modification() {
        let tree = bulk_load(&paper_products(), RTreeConfig::with_max_entries(4));
        // c2 (7.5, 42) is already in RSL(q) (window empty w.r.t. this
        // product set sans p2? p2 is in the set, but p2 == c2's tuple in
        // the bichromatic reading it is a *product*; keep it and pick a
        // clearly-member point instead: q itself).
        let q = Point::xy(8.5, 55.0);
        let ans = into_ok(modify_why_not_point(
            &tree,
            &q,
            &q,
            None,
            &unit_cost(),
            1e-9,
        ));
        assert_eq!(ans.best_cost(), 0.0);
        assert!(ans.best().point.same_location(&q));
    }

    #[test]
    fn all_candidates_limit_valid_random() {
        let pts: Vec<Point> = (0..400)
            .map(|i| {
                let f = i as f64;
                Point::xy((f * 19.3) % 100.0, (f * 31.7) % 100.0)
            })
            .collect();
        let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
        let cost = unit_cost();
        let q = Point::xy(52.0, 49.0);
        let mut tested = 0;
        for c_t in pts.iter().step_by(17) {
            let ans = into_ok(modify_why_not_point(&tree, c_t, &q, None, &cost, 1e-9));
            for cand in &ans.candidates {
                assert!(
                    cand.verified,
                    "candidate {:?} for c_t {c_t:?} unverified",
                    cand.point
                );
                assert!(cand.cost.is_finite());
                tested += 1;
            }
            // Costs are sorted ascending.
            for w in ans.candidates.windows(2) {
                assert!(w[0].cost <= w[1].cost + 1e-12);
            }
        }
        assert!(tested > 0);
    }

    #[test]
    fn blockers_on_the_far_side_of_c_t() {
        // A blocker on the opposite side of c_t from q (inside the
        // symmetric window) must still be escaped.
        let products = vec![Point::xy(2.0, 2.0)]; // c_t at (3,3), q at (5,5)
        let tree = bulk_load(&products, RTreeConfig::with_max_entries(4));
        let c_t = Point::xy(3.0, 3.0);
        let q = Point::xy(5.0, 5.0);
        // |c_t − p| = (1,1) ≤ (2,2) = |c_t − q| with strict ⇒ p blocks.
        let ans = into_ok(modify_why_not_point(
            &tree,
            &c_t,
            &q,
            None,
            &unit_cost(),
            1e-9,
        ));
        assert!(ans.best_cost() > 0.0);
        for cand in &ans.candidates {
            assert!(cand.verified);
        }
    }

    #[test]
    fn query_on_the_other_side() {
        // q below-left of c_t: the directed frame must flip.
        let products = vec![Point::xy(40.0, 45.0)];
        let tree = bulk_load(&products, RTreeConfig::with_max_entries(4));
        let c_t = Point::xy(60.0, 70.0);
        let q = Point::xy(30.0, 30.0);
        let ans = into_ok(modify_why_not_point(
            &tree,
            &c_t,
            &q,
            None,
            &unit_cost(),
            1e-9,
        ));
        assert!(ans.best_cost() > 0.0);
        assert!(ans.candidates.iter().all(|c| c.verified));
        // The midpoint thresholds: m = ((30+40)/2, (30+45)/2) = (35, 37.5);
        // axis candidates (35, 70) and (60, 37.5) must be present.
        let pts: Vec<&Point> = ans.candidates.iter().map(|c| &c.point).collect();
        assert!(
            pts.iter()
                .any(|p| p.approx_eq(&Point::xy(35.0, 70.0), 1e-9)),
            "{pts:?}"
        );
        assert!(
            pts.iter()
                .any(|p| p.approx_eq(&Point::xy(60.0, 37.5), 1e-9)),
            "{pts:?}"
        );
    }

    #[test]
    fn multi_blocker_staircase() {
        // Three blockers forming a staircase between c_t and q: expect
        // axis candidates plus inner corners, all verified.
        let products = vec![
            Point::xy(40.0, 48.0),
            Point::xy(44.0, 44.0),
            Point::xy(48.0, 40.0),
        ];
        let tree = bulk_load(&products, RTreeConfig::with_max_entries(4));
        let c_t = Point::xy(30.0, 30.0);
        let q = Point::xy(50.0, 50.0);
        let ans = into_ok(modify_why_not_point(
            &tree,
            &c_t,
            &q,
            None,
            &unit_cost(),
            1e-9,
        ));
        assert!(ans.candidates.len() >= 3, "got {:?}", ans.candidates);
        assert!(ans.candidates.iter().all(|c| c.verified));
        // Inner corners are cheaper than pure axis moves here.
        let axis_y = Point::xy(30.0, 49.0); // escape all via y: max m_y = (50+48)/2
        assert!(ans
            .candidates
            .iter()
            .any(|c| c.point.approx_eq(&axis_y, 1e-9)));
        assert!(ans.best_cost() < unit_cost().whynot_cost(&c_t, &axis_y) + 1e-12);
    }

    #[test]
    fn three_dimensional_axis_candidates() {
        let products = vec![Point::new(vec![40.0, 40.0, 40.0])];
        let tree = bulk_load(&products, RTreeConfig::with_max_entries(4));
        let c_t = Point::new(vec![30.0, 30.0, 30.0]);
        let q = Point::new(vec![50.0, 50.0, 50.0]);
        let ans = into_ok(modify_why_not_point(
            &tree,
            &c_t,
            &q,
            None,
            &CostModel::new(Weights::equal(3), Weights::equal(3)),
            1e-9,
        ));
        assert!(ans.candidates.iter().all(|c| c.verified));
        // Escaping via any one axis at the midpoint 45.
        assert!(ans
            .candidates
            .iter()
            .any(|c| c.point.approx_eq(&Point::new(vec![45.0, 30.0, 30.0]), 1e-9)));
        assert!((ans.best_cost() - 15.0 / 3.0).abs() < 1e-9);
    }
}
