//! The paper's evaluation protocol (Section VI-A): comparable quality
//! scores for MWP, MQP and MWQ on a given why-not question.
//!
//! All scores are weighted L1 distances on min–max-normalised
//! coordinates with equal weights (`Σ β_i = 1`, `α = β`), exactly as in
//! Tables III–VI:
//!
//! * **MWP** — `β · |c_t − c_t*|` of the cheapest Algorithm-1 answer;
//! * **MQP** — `α · |q′ − q*| + Σ_{c_l lost} β · |c_l − c_l*|`, where
//!   `q′` is the point of `SR(q)` closest to `q*` and each lost customer
//!   is costed at its cheapest Algorithm-1 repair w.r.t. `q*`;
//! * **MWQ** — the Eqn-(11) cost of Algorithm 4 (zero when the why-not
//!   point's anti-dominance region overlaps the safe region).

use crate::engine::WhyNotEngine;
use wnrs_geometry::parallel::map_slice;
use wnrs_geometry::{cmp_f64, Point, Region};
use wnrs_rtree::ItemId;

/// Quality scores of the three methods on one why-not question.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodScores {
    /// Modify-why-not-point score.
    pub mwp: f64,
    /// Modify-query-point score (with the lost-customer penalty).
    pub mqp: f64,
    /// Modify-both score (Eqn 11).
    pub mwq: f64,
}

/// The point of `sr` minimising the engine's α-weighted query cost to
/// `target` (the paper's `q′`).
pub fn nearest_in_region(engine: &WhyNotEngine, sr: &Region, target: &Point) -> Point {
    sr.boxes()
        .iter()
        .map(|b| b.nearest_point(target))
        .min_by(|a, b| {
            cmp_f64(
                engine.cost_model().query_cost(target, a),
                engine.cost_model().query_cost(target, b),
            )
        })
        // A safe region always contains the current query point, so the
        // empty case is unreachable in practice; degrade to "stay put".
        .unwrap_or_else(|| target.clone())
}

/// MWP score: the cheapest Algorithm-1 repair of customer `id`.
pub fn score_mwp(engine: &WhyNotEngine, id: ItemId, q: &Point) -> f64 {
    engine.mwp(id, q).best_cost()
}

/// MQP score per Section VI-A: the best Algorithm-2 answer `q*`, charged
/// for leaving the safe region plus for every existing reverse-skyline
/// point it loses (each costed at its cheapest repair w.r.t. `q*`).
pub fn score_mqp(
    engine: &WhyNotEngine,
    id: ItemId,
    q: &Point,
    rsl: &[(ItemId, Point)],
    sr: &Region,
) -> f64 {
    let best = engine.mqp(id, q).best().clone();
    let q_star = best.point;
    let q_prime = nearest_in_region(engine, sr, &q_star);
    let mut total = engine.cost_model().query_cost(&q_prime, &q_star);
    for &(cid, _) in rsl {
        if cid != id && !engine.is_member(cid, &q_star) {
            total += engine.mwp(cid, &q_star).best_cost();
        }
    }
    total
}

/// MWQ score: the Eqn-(11) cost of Algorithm 4 against `sr`.
pub fn score_mwq(engine: &WhyNotEngine, id: ItemId, q: &Point, sr: &Region) -> f64 {
    engine.mwq(id, q, sr).cost
}

/// Scores all three methods for one why-not question, sharing the
/// reverse skyline and safe region.
pub fn score_all(
    engine: &WhyNotEngine,
    id: ItemId,
    q: &Point,
    rsl: &[(ItemId, Point)],
    sr: &Region,
) -> MethodScores {
    MethodScores {
        mwp: score_mwp(engine, id, q),
        mqp: score_mqp(engine, id, q, rsl, sr),
        mwq: score_mwq(engine, id, q, sr),
    }
}

/// Scores a batch of why-not questions against one shared reverse
/// skyline and safe region, fanning questions out across the engine's
/// [`WhyNotEngine::parallelism`] policy. Score order matches `ids`;
/// each entry equals the corresponding [`score_all`] call exactly
/// (per-question work is independent and read-only).
pub fn score_all_batch(
    engine: &WhyNotEngine,
    ids: &[ItemId],
    q: &Point,
    rsl: &[(ItemId, Point)],
    sr: &Region,
) -> Vec<(ItemId, MethodScores)> {
    map_slice(ids, engine.parallelism(), |&id| {
        (id, score_all(engine, id, q, rsl, sr))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnrs_rtree::RTreeConfig;

    fn engine() -> WhyNotEngine {
        WhyNotEngine::with_config(
            vec![
                Point::xy(5.0, 30.0),
                Point::xy(7.5, 42.0),
                Point::xy(2.5, 70.0),
                Point::xy(7.5, 90.0),
                Point::xy(24.0, 20.0),
                Point::xy(20.0, 50.0),
                Point::xy(26.0, 70.0),
                Point::xy(16.0, 80.0),
            ],
            RTreeConfig::with_max_entries(4),
        )
    }

    #[test]
    fn mwq_never_worse_than_mwp() {
        // The paper's headline effectiveness claim (Section VI-A.1).
        let e = engine();
        let q = Point::xy(8.5, 55.0);
        let rsl = e.reverse_skyline(&q);
        let sr = e.safe_region_for(&q, &rsl);
        for id in [0u32, 4, 6] {
            // the non-members: pt1, pt5, pt7
            let s = score_all(&e, ItemId(id), &q, &rsl, &sr);
            assert!(
                s.mwq <= s.mwp + 1e-9,
                "customer {id}: MWQ {} > MWP {}",
                s.mwq,
                s.mwp
            );
            assert!(s.mwp >= 0.0 && s.mqp >= 0.0 && s.mwq >= 0.0);
        }
    }

    #[test]
    fn c7_scores_zero_under_mwq() {
        // anti-DDR(c7) overlaps SR(q) ⇒ MWQ is free (first rows of
        // Table III show exactly this pattern).
        let e = engine();
        let q = Point::xy(8.5, 55.0);
        let rsl = e.reverse_skyline(&q);
        let sr = e.safe_region_for(&q, &rsl);
        assert_eq!(score_mwq(&e, ItemId(6), &q, &sr), 0.0);
        assert!(score_mwp(&e, ItemId(6), &q) > 0.0);
    }

    #[test]
    fn mqp_charges_for_lost_customers() {
        let e = engine();
        let q = Point::xy(8.5, 55.0);
        let rsl = e.reverse_skyline(&q);
        let sr = e.safe_region_for(&q, &rsl);
        // Raw MQP movement for c1 is small (price −1K), but the score
        // must also cover leaving the safe region and any lost members.
        let raw = e.mqp(ItemId(0), &q).best_cost();
        let scored = score_mqp(&e, ItemId(0), &q, &rsl, &sr);
        assert!(scored + 1e-12 >= 0.0);
        // The scored value is at least the out-of-SR movement, which is
        // bounded above by the raw movement (q′ lies between).
        let q_star = e.mqp(ItemId(0), &q).best().point.clone();
        let q_prime = nearest_in_region(&e, &sr, &q_star);
        let out_of_sr = e.cost_model().query_cost(&q_prime, &q_star);
        assert!(out_of_sr <= raw + 1e-12);
        assert!(scored + 1e-12 >= out_of_sr);
    }

    #[test]
    fn batch_scores_match_individual_scores() {
        let e = engine().with_parallelism(wnrs_geometry::Parallelism::new(2));
        let q = Point::xy(8.5, 55.0);
        let rsl = e.reverse_skyline(&q);
        let sr = e.safe_region_for(&q, &rsl);
        let ids = [ItemId(0), ItemId(4), ItemId(6)];
        let batch = score_all_batch(&e, &ids, &q, &rsl, &sr);
        assert_eq!(batch.len(), ids.len());
        for (i, (id, scores)) in batch.iter().enumerate() {
            assert_eq!(*id, ids[i], "order preserved");
            assert_eq!(*scores, score_all(&e, *id, &q, &rsl, &sr));
        }
    }

    #[test]
    fn nearest_in_region_is_identity_inside() {
        let e = engine();
        let q = Point::xy(8.5, 55.0);
        let sr = e.safe_region(&q);
        let n = nearest_in_region(&e, &sr, &q);
        assert!(n.approx_eq(&q, 1e-12));
    }
}
