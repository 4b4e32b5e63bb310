//! Differential test of the streaming MWP and MQP cores against the
//! sort-based cores they replaced, kept below as `reference`: the old
//! function bodies, unchanged. The reference's `sfs_skyline` is the
//! library's, whose tie-break keeps a dominator ahead of its victim.
//!
//! Every input must give bit-identical answers — candidate coordinates,
//! cost bits, `verified` flags and order — and the same sequence of
//! membership probes. The only exempt inputs are those on which the
//! reference panics: blockers near ±`f64::MAX`, whose thresholds or
//! transformed images overflow to ±∞ and fail `Point::new`.
//!
//! The vendored proptest does not shrink, so the random cases run from
//! explicit seeds, and a mismatch prints its seed and its question as a
//! `replay(…)` call (with `Λ` as the product set) to paste into
//! `replay_fixtures`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wnrs_core::answer::Candidate;
use wnrs_core::engine::DEFAULT_EPS;
use wnrs_core::{modify_query_point_core, modify_why_not_point_core, WhyNotEngine};
use wnrs_data::RepeatedWorkload;
use wnrs_geometry::{dominates_dyn, CostModel, Point, Weights};
use wnrs_reverse_skyline::{is_reverse_skyline_member, window_query};
use wnrs_rtree::ItemId;

/// The sort-based cores, as they were before the streaming pass.
mod reference {
    use std::cmp::Ordering;
    use wnrs_core::answer::Candidate;
    use wnrs_core::verify::{limit_verified_query_by, limit_verified_whynot_by};
    use wnrs_core::{MqpAnswer, MwpAnswer};
    use wnrs_geometry::{cmp_f64, CostModel, Point};
    use wnrs_rtree::ItemId;
    use wnrs_skyline::sfs_skyline;

    /// `wnrs_core::answer::finish_candidates`, which is crate-private.
    fn finish_candidates(mut cands: Vec<Candidate>) -> Vec<Candidate> {
        cands.sort_by(|a, b| cmp_f64(a.cost, b.cost).then_with(|| b.verified.cmp(&a.verified)));
        let mut out: Vec<Candidate> = Vec::with_capacity(cands.len());
        for c in cands {
            if !out.iter().any(|o| o.point.same_location(&c.point)) {
                out.push(c);
            }
        }
        out
    }

    /// Per-blocker escape thresholds in the directed frame: crossing
    /// `threshold[i]` (in direction `sign[i]`) in any dimension `i` stops the
    /// blocker from dominating `q`. `None` marks dimensions that cannot
    /// neutralise this blocker in the chosen direction.
    struct Thresholds {
        directed: Vec<Option<f64>>,
    }

    fn thresholds(e: &Point, q: &Point, sign: &[f64]) -> Thresholds {
        let d = q.dim();
        let mut directed = Vec::with_capacity(d);
        for i in 0..d {
            // Note `signum` maps a 0.0 difference to 1.0, so the tie case
            // must be decided by comparison, not by sign extraction.
            let dir = match cmp_f64(q[i], e[i]) {
                Ordering::Greater => 1.0,
                Ordering::Less => -1.0,
                Ordering::Equal => {
                    // q and e tie in this dimension: no strict win possible.
                    directed.push(None);
                    continue;
                }
            };
            if dir != sign[i] {
                // Escaping would require moving against the canonical
                // direction.
                directed.push(None);
            } else {
                directed.push(Some(sign[i] * 0.5 * (q[i] + e[i])));
            }
        }
        Thresholds { directed }
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

        let thr: Vec<Thresholds> = lambda
            .iter()
            .map(|(_, e)| thresholds(e, q, &sign))
            .collect();

        let mut raw: Vec<Point> = Vec::new();

        // Axis candidates (Eqn (3) endpoints; sole construction for d > 2):
        // move only dimension i far enough to escape every blocker. Only the
        // per-dimension maximum threshold matters, so no frontier pruning is
        // needed here — O(|Λ|·d).
        for (i, s_i) in sign.iter().enumerate() {
            let mut needed = f64::NEG_INFINITY;
            let mut feasible = true;
            for t in &thr {
                match t.directed[i] {
                    Some(v) => needed = needed.max(v),
                    None => {
                        feasible = false;
                        break;
                    }
                }
            }
            if feasible {
                let target = s_i * needed;
                // Only a move *towards* the threshold counts; if c_t is
                // already past it the blocker list would have been empty.
                raw.push(c_t.with_coord(i, target));
            }
        }

        // Staircase corners (Eqn (2) min-merge) — the 2-d construction of
        // Fig. 6(b). The frontier of the threshold set (Algorithm 1 steps
        // 3–5) falls out of a single sort + max-sweep instead of the paper's
        // O(|Λ|²) pairwise pruning: sorting by dim 0 descending, a blocker
        // matters only when its dim-1 threshold exceeds every threshold seen
        // so far.
        if d == 2 {
            let mut pts: Vec<(f64, f64)> = Vec::with_capacity(thr.len());
            let mut all_finite = true;
            for t in &thr {
                match (t.directed[0], t.directed[1]) {
                    (Some(a), Some(b)) => pts.push((a, b)),
                    _ => {
                        all_finite = false;
                        break;
                    }
                }
            }
            if all_finite && !pts.is_empty() {
                pts.sort_by(|a, b| cmp_f64(b.0, a.0).then(cmp_f64(b.1, a.1)));
                // Max-frontier sweep: descending dim 0, keep strict dim-1
                // record holders. The survivors form the staircase, now
                // ascending in dim 0 after the reverse.
                let mut frontier: Vec<(f64, f64)> = Vec::new();
                let mut best1 = f64::NEG_INFINITY;
                for &(a, b) in &pts {
                    if b > best1 {
                        frontier.push((a, b));
                        best1 = b;
                    }
                }
                frontier.reverse();
                for l in 0..frontier.len().saturating_sub(1) {
                    // Escape blockers ≤ l via dim 0, the rest via dim 1; the
                    // frontier is ascending in dim 0 and descending in dim 1,
                    // so the suffix maximum in dim 1 is the next element's.
                    raw.push(Point::xy(
                        sign[0] * frontier[l].0,
                        sign[1] * frontier[l + 1].1,
                    ));
                }
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

    /// Maps a transformed-space location `t` back to the original space,
    /// keeping `q`'s orientation around `c_t` in every dimension.
    fn untransform(c_t: &Point, q: &Point, t: &Point) -> Point {
        Point::new(
            (0..c_t.dim())
                .map(|i| {
                    let s = if q[i] >= c_t[i] { 1.0 } else { -1.0 };
                    c_t[i] + s * t[i]
                })
                .collect::<Vec<_>>(),
        )
    }

    /// Index-agnostic core of Algorithm 2: the candidate construction uses
    /// only `Λ`; the product store enters solely through `member(c, at)`
    /// deciding `c ∈ RSL(at)`.
    pub fn modify_query_point_core(
        c_t: &Point,
        q: &Point,
        lambda: &[(ItemId, Point)],
        cost: &CostModel,
        eps: f64,
        member: &mut impl FnMut(&Point, &Point) -> bool,
    ) -> MqpAnswer {
        assert_eq!(c_t.dim(), q.dim(), "dimensionality mismatch");
        let d = c_t.dim();
        if lambda.is_empty() {
            return MqpAnswer {
                candidates: vec![Candidate {
                    point: q.clone(),
                    cost: 0.0,
                    verified: true,
                }],
            };
        }

        // F = Λ ∩ DSL(c_t): the transformed-space skyline of the blockers
        // (steps 3–5: e1 ≻_{c_t} e2 removes e2). SFS replaces the paper's
        // O(|Λ|²) pairwise pruning — Λ can contain thousands of points when
        // the why-not customer sits deep in a dense region.
        let lambda_t: Vec<Point> = lambda.iter().map(|(_, e)| e.abs_diff(c_t)).collect();
        let f_t: Vec<Point> = sfs_skyline(&lambda_t)
            .into_iter()
            .map(|i| lambda_t[i].clone())
            .collect();
        let t_q = q.abs_diff(c_t);

        let mut raw_t: Vec<Point> = Vec::new();

        // Axis candidates (Eqn (6)): lower a single transformed coordinate
        // of q to the staircase's minimum in that dimension.
        for i in 0..d {
            let min_i = f_t.iter().map(|e| e[i]).fold(f64::INFINITY, f64::min);
            raw_t.push(t_q.with_coord(i, min_i.min(t_q[i])));
        }

        // Staircase outer corners (Eqn (5) max-merge) in 2-d.
        if d == 2 {
            let mut pts: Vec<(f64, f64)> = f_t.iter().map(|e| (e[0], e[1])).collect();
            pts.sort_by(|a, b| cmp_f64(a.0, b.0).then(cmp_f64(b.1, a.1)));
            for l in 0..pts.len().saturating_sub(1) {
                // max-merge of the successive pair: the outer stair corner.
                let corner = Point::xy(pts[l + 1].0.max(pts[l].0), pts[l].1.max(pts[l + 1].1));
                // Only useful when it actually lowers q somewhere and does
                // not raise it anywhere.
                let capped = Point::xy(corner[0].min(t_q[0]), corner[1].min(t_q[1]));
                raw_t.push(capped);
            }
        }

        // Last-resort candidate: q* = c_t (the window degenerates, membership
        // is immediate).
        raw_t.push(Point::new(vec![0.0; d]));

        let candidates = raw_t
            .into_iter()
            .map(|t| untransform(c_t, q, &t))
            .map(|p| {
                let verified = limit_verified_query_by(c_t, q, &p, eps, member);
                let c = cost.query_cost(q, &p);
                Candidate {
                    point: p,
                    cost: c,
                    verified,
                }
            })
            .filter(|c| c.verified)
            .collect::<Vec<_>>();

        let candidates = if candidates.is_empty() {
            vec![Candidate {
                point: c_t.clone(),
                cost: cost.query_cost(q, c_t),
                verified: false,
            }]
        } else {
            finish_candidates(candidates)
        };
        MqpAnswer { candidates }
    }
}

type Probes = Vec<(Vec<u64>, Vec<u64>)>;
type AnswerBits = Vec<(Vec<u64>, u64, bool)>;

fn bits(p: &Point) -> Vec<u64> {
    p.coords().iter().map(|c| c.to_bits()).collect()
}

/// Candidates as raw bits: coordinates, cost and the `verified` flag.
fn answer_bits(cands: &[Candidate]) -> AnswerBits {
    cands
        .iter()
        .map(|c| (bits(&c.point), c.cost.to_bits(), c.verified))
        .collect()
}

/// Runs one core with a probe-recording oracle: its answer and probes,
/// or `None` when it panics.
fn run(
    member: &dyn Fn(&Point, &Point) -> bool,
    core: impl FnOnce(&mut dyn FnMut(&Point, &Point) -> bool) -> Vec<Candidate>,
) -> Option<(AnswerBits, Probes)> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut probes = Probes::new();
        let cands = core(&mut |c, at| {
            probes.push((bits(c), bits(at)));
            member(c, at)
        });
        (answer_bits(&cands), probes)
    }))
    .ok()
}

/// The question as a `replay(…)` call.
fn fixture(c_t: &Point, q: &Point, lambda: &[(ItemId, Point)]) -> String {
    let pts: Vec<String> = lambda
        .iter()
        .map(|(_, e)| format!("&{:?}", e.coords()))
        .collect();
    format!(
        "replay(&{:?}, &{:?}, &[{}]);",
        c_t.coords(),
        q.coords(),
        pts.join(", ")
    )
}

/// Asserts that both cores answer one question exactly as the reference
/// does, wherever the reference does not panic. Returns how many of the
/// two reference runs completed.
fn check(
    tag: &str,
    c_t: &Point,
    q: &Point,
    lambda: &[(ItemId, Point)],
    cost: &CostModel,
    member: &dyn Fn(&Point, &Point) -> bool,
) -> usize {
    let eps = DEFAULT_EPS;
    let mut completed = 0;
    let expected = run(member, |m| {
        reference::modify_why_not_point_core(c_t, q, lambda, cost, eps, &mut |c, at| m(c, at))
            .candidates
    });
    if let Some(expected) = expected {
        completed += 1;
        let got = run(member, |m| {
            modify_why_not_point_core(c_t, q, lambda, cost, eps, &mut |c, at| m(c, at)).candidates
        });
        assert!(
            got.as_ref() == Some(&expected),
            "{tag}: MWP differs from the reference\n{}",
            fixture(c_t, q, lambda)
        );
    }
    let expected = run(member, |m| {
        reference::modify_query_point_core(c_t, q, lambda, cost, eps, &mut |c, at| m(c, at))
            .candidates
    });
    if let Some(expected) = expected {
        completed += 1;
        let got = run(member, |m| {
            modify_query_point_core(c_t, q, lambda, cost, eps, &mut |c, at| m(c, at)).candidates
        });
        assert!(
            got.as_ref() == Some(&expected),
            "{tag}: MQP differs from the reference\n{}",
            fixture(c_t, q, lambda)
        );
    }
    completed
}

fn unit_cost(d: usize) -> CostModel {
    CostModel::new(Weights::equal(d), Weights::equal(d))
}

/// Checks a question whose product set is `products`: `Λ` is the window
/// `{e : e ≺_{c_t} q}` in product order, or every product when `raw`.
fn check_products(tag: &str, c_t: &Point, q: &Point, products: &[Point], raw: bool) -> usize {
    let lambda: Vec<(ItemId, Point)> = products
        .iter()
        .enumerate()
        .filter(|(_, e)| raw || dominates_dyn(e, q, c_t))
        .map(|(i, e)| (ItemId(i as u32), e.clone()))
        .collect();
    let member = |c: &Point, at: &Point| !products.iter().any(|p| dominates_dyn(p, at, c));
    check(tag, c_t, q, &lambda, &unit_cost(c_t.dim()), &member)
}

/// Re-runs one printed question, with `Λ` as the product set.
fn replay(c_t: &[f64], q: &[f64], lambda: &[&[f64]]) -> usize {
    let products: Vec<Point> = lambda.iter().map(|e| Point::new(e.to_vec())).collect();
    check_products(
        "replay",
        &Point::new(c_t.to_vec()),
        &Point::new(q.to_vec()),
        &products,
        true,
    )
}

/// A point whose coordinates `draw` makes.
fn point(d: usize, mut draw: impl FnMut() -> f64) -> Point {
    Point::new((0..d).map(|_| draw()).collect::<Vec<_>>())
}

#[test]
fn replay_fixtures() {
    // Transformed images (1e16, 1) and (1e16, 0): their coordinate sums
    // tie in f64, and the reference's SFS once kept the dominated one.
    assert_eq!(
        replay(&[0.0, 0.0], &[3e16, 3e16], &[&[1e16, 1.0], &[1e16, 0.0]]),
        2
    );
    // A blocker tying q in dimension 0 next to a staircase of two.
    assert_eq!(
        replay(
            &[0.0, 0.0],
            &[10.0, 10.0],
            &[&[10.0, 4.0], &[6.0, 8.0], &[8.0, 6.0]]
        ),
        2
    );
}

#[test]
fn random_lambdas_match_the_reference() {
    for d in [1, 2, 3, 5] {
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed * 31 + d as u64);
            let c_t = point(d, || rng.gen_range(0.0..100.0));
            let q = point(d, || rng.gen_range(0.0..100.0));
            let n = rng.gen_range(1..400);
            let products: Vec<Point> = (0..n)
                .map(|_| point(d, || rng.gen_range(0.0..100.0)))
                .collect();
            let tag = format!("d {d}, seed {seed}");
            check_products(&format!("{tag}, window"), &c_t, &q, &products, false);
            assert_eq!(
                check_products(&format!("{tag}, raw"), &c_t, &q, &products, true),
                2
            );
        }
    }
}

#[test]
fn ties_with_q_match_the_reference() {
    // A coarse integer grid: many blockers tie q (or c_t) in one
    // dimension, so some thresholds are `None`.
    for d in [1, 2, 3, 5] {
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed * 37 + d as u64);
            let mut grid = || f64::from(rng.gen_range(0u32..7));
            let c_t = point(d, &mut grid);
            let q = point(d, &mut grid);
            let products: Vec<Point> = (0..120).map(|_| point(d, &mut grid)).collect();
            let tag = format!("grid d {d}, seed {seed}");
            assert_eq!(
                check_products(&format!("{tag}, window"), &c_t, &q, &products, false),
                2
            );
            assert_eq!(
                check_products(&format!("{tag}, raw"), &c_t, &q, &products, true),
                2
            );
        }
    }
}

#[test]
fn duplicate_blockers_match_the_reference() {
    for d in [1, 2, 3, 5] {
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed * 41 + d as u64);
            let c_t = point(d, || rng.gen_range(0.0..50.0));
            let q = point(d, || rng.gen_range(50.0..100.0));
            let mut products = Vec::new();
            for _ in 0..80 {
                let e = point(d, || rng.gen_range(0.0..100.0));
                for _ in 0..rng.gen_range(1..4) {
                    products.push(e.clone());
                }
            }
            let tag = format!("duplicates d {d}, seed {seed}");
            assert_eq!(check_products(&tag, &c_t, &q, &products, false), 2);
        }
    }
}

#[test]
fn mirrored_blockers_match_the_reference() {
    // Each blocker and its mirror image about c_t (in every dimension,
    // then in dimension 0 only) have equal |e − c_t|.
    for d in [1, 2, 3, 5] {
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed * 43 + d as u64);
            let c_t = point(d, || f64::from(rng.gen_range(40u32..60)));
            let q = point(d, || rng.gen_range(0.0..100.0));
            let mut products = Vec::new();
            for _ in 0..60 {
                let e = point(d, || f64::from(rng.gen_range(20u32..80)));
                let all: Vec<f64> = (0..d).map(|i| 2.0 * c_t[i] - e[i]).collect();
                let mut first = e.coords().to_vec();
                first[0] = 2.0 * c_t[0] - e[0];
                products.push(e);
                products.push(Point::new(all));
                products.push(Point::new(first));
            }
            let tag = format!("mirrored d {d}, seed {seed}");
            assert_eq!(
                check_products(&format!("{tag}, window"), &c_t, &q, &products, false),
                2
            );
            assert_eq!(
                check_products(&format!("{tag}, raw"), &c_t, &q, &products, true),
                2
            );
        }
    }
}

#[test]
fn signed_zeros_match_the_reference() {
    const VALUES: [f64; 6] = [-0.0, 0.0, -1.0, 1.0, -2.0, 2.0];
    for d in [1, 2, 3, 5] {
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed * 47 + d as u64);
            let mut draw = || VALUES[rng.gen_range(0..VALUES.len())];
            let c_t = point(d, &mut draw);
            let q = point(d, &mut draw);
            let products: Vec<Point> = (0..50).map(|_| point(d, &mut draw)).collect();
            let tag = format!("signed zeros d {d}, seed {seed}");
            assert_eq!(
                check_products(&format!("{tag}, window"), &c_t, &q, &products, false),
                2
            );
            assert_eq!(
                check_products(&format!("{tag}, raw"), &c_t, &q, &products, true),
                2
            );
        }
    }
}

#[test]
fn huge_coordinates_match_the_reference_where_it_completes() {
    // Near ±1e300 every threshold and image stays finite; near
    // ±f64::MAX they overflow to ±∞, where the reference panics.
    let mut completed = 0;
    let mut attempted = 0;
    for (scale, must_complete) in [(1e300, true), (1.5e308, false)] {
        for d in [1, 2, 3, 5] {
            for seed in 0..40u64 {
                let mut rng = StdRng::seed_from_u64(seed * 53 + d as u64);
                let mut draw = || scale * rng.gen_range(-1.0..1.0);
                let c_t = point(d, &mut draw);
                let q = point(d, &mut draw);
                let products: Vec<Point> = (0..60).map(|_| point(d, &mut draw)).collect();
                let tag = format!("scale {scale:e}, d {d}, seed {seed}");
                for raw in [false, true] {
                    let done = check_products(&tag, &c_t, &q, &products, raw);
                    if must_complete {
                        assert_eq!(done, 2, "{tag}: the reference panicked");
                    }
                    completed += done;
                    attempted += 2;
                }
            }
        }
    }
    assert!(completed > attempted / 2, "{completed} of {attempted}");
}

#[test]
fn cardb_questions_match_the_reference() {
    // 300 questions as `cardb_memory` asks them, at n = 2,000: the real
    // window query, the index's membership oracle and the engine's
    // fitted cost model.
    let mut rng = StdRng::seed_from_u64(20_130_408);
    let points = wnrs_data::cardb(&mut rng, 2_000);
    let engine = WhyNotEngine::new(points.clone());
    let tree = engine.tree();
    let workload = RepeatedWorkload::repeated(tree, &points, 300, 1, 1, &mut rng);
    let mut blockers = 0;
    for (k, question) in workload.questions.iter().enumerate() {
        let q = &question.q;
        let id = question.whynot[0];
        let c_t = &points[id.0 as usize];
        let lambda = window_query(tree, c_t, q, Some(id));
        blockers += lambda.len();
        let member = |c: &Point, at: &Point| is_reverse_skyline_member(tree, c, at, Some(id));
        let tag = format!("cardb question {k}");
        assert_eq!(
            check(&tag, c_t, q, &lambda, engine.cost_model(), &member),
            2
        );
    }
    assert!(blockers > 300, "the questions have almost no culprits");
}
