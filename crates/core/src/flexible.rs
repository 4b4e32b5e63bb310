//! Flexible safe regions.
//!
//! Section V-B of the paper notes that the safe region "can be
//! truncated/expanded to a smaller/greater one by limiting/relaxing
//! certain product features … though the companies may lose a few
//! existing customers as a side effect". This module implements both
//! directions (a batch of why-not questions against one safe region is
//! [`WhyNotEngine::mwq_batch`], or [`WhyNotEngine::mwq`] mapped over
//! the customers when the region is an expanded one):
//!
//! * [`truncate_safe_region`] — clip the safe region to explicit feature
//!   bounds (a vendor can only reprice within a range, say);
//! * [`expand_safe_region`] — deliberately sacrifice up to `max_loss`
//!   existing reverse-skyline members, greedily dropping the customer
//!   whose anti-dominance region most constrains the safe region's
//!   area, and report exactly who would be lost.

use crate::engine::WhyNotEngine;
use crate::safe_region::anti_ddr_of;
use wnrs_geometry::parallel::map_slice;
use wnrs_geometry::{Point, Rect, Region};
use wnrs_rtree::{into_ok, ItemId};

/// Clips a safe region to explicit feature bounds. The result remains
/// safe (it is a subset); it may be empty if the bounds exclude the
/// whole region.
pub fn truncate_safe_region(sr: &Region, feature_bounds: &Rect) -> Region {
    sr.intersect_rect(feature_bounds)
}

/// The result of a sacrificing expansion.
#[derive(Debug, Clone)]
pub struct ExpandedSafeRegion {
    /// The enlarged region — safe for every member *except* the dropped
    /// ones.
    pub region: Region,
    /// The members deliberately sacrificed, in drop order.
    pub dropped: Vec<ItemId>,
}

/// Expands the safe region by dropping up to `max_loss` reverse-skyline
/// members: greedily removes the member whose anti-dominance region most
/// constrains the intersection (largest area gain), recomputing from the
/// survivors each round. Stops early when a drop no longer helps.
pub fn expand_safe_region(
    engine: &WhyNotEngine,
    q: &Point,
    rsl: &[(ItemId, Point)],
    max_loss: usize,
) -> ExpandedSafeRegion {
    let universe = engine.universe_for(q);
    let regions: Vec<(ItemId, Region)> = map_slice(rsl, engine.parallelism(), |(id, c)| {
        (
            *id,
            into_ok(anti_ddr_of(engine.tree(), c, Some(*id), &universe, 0.0)),
        )
    });

    let intersect_all = |skip: &[ItemId]| -> Region {
        let mut acc: Option<Region> = None;
        for (id, r) in &regions {
            if skip.contains(id) {
                continue;
            }
            acc = Some(match acc {
                None => r.clone(),
                Some(a) => a.intersect(r),
            });
        }
        acc.unwrap_or_else(|| Region::from_rect(universe.clone()))
    };

    let mut dropped: Vec<ItemId> = Vec::new();
    let mut current = intersect_all(&dropped);
    let mut current_area = current.area();
    for _ in 0..max_loss {
        let mut best: Option<(ItemId, Region, f64)> = None;
        for (id, _) in &regions {
            if dropped.contains(id) {
                continue;
            }
            let mut trial_skip = dropped.clone();
            trial_skip.push(*id);
            let trial = intersect_all(&trial_skip);
            let area = trial.area();
            if area > current_area + 1e-12 && best.as_ref().is_none_or(|(_, _, a)| area > *a) {
                best = Some((*id, trial, area));
            }
        }
        match best {
            Some((id, region, area)) => {
                dropped.push(id);
                current = region;
                current_area = area;
            }
            None => break, // no drop enlarges the region further
        }
    }
    ExpandedSafeRegion {
        region: current,
        dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mwq::MwqCase;
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
    fn truncation_is_a_subset_and_can_empty() {
        let e = engine();
        let q = Point::xy(8.5, 55.0);
        let sr = e.safe_region(&q);
        // Limit the price feature to ≤ 9: still non-empty, smaller.
        let bounds = Rect::new(Point::xy(0.0, 0.0), Point::xy(9.0, 120.0));
        let t = truncate_safe_region(&sr, &bounds);
        assert!(!t.is_empty());
        assert!(t.area() <= sr.area() + 1e-9);
        for b in t.boxes() {
            assert!(b.hi()[0] <= 9.0 + 1e-12);
        }
        // Impossible bounds empty it.
        let far = Rect::new(Point::xy(100.0, 100.0), Point::xy(110.0, 110.0));
        assert!(truncate_safe_region(&sr, &far).is_empty());
    }

    #[test]
    fn expansion_grows_area_and_reports_losses() {
        let e = engine();
        let q = Point::xy(8.5, 55.0);
        let rsl = e.reverse_skyline(&q);
        let exact = e.safe_region_for(&q, &rsl);
        let expanded = expand_safe_region(&e, &q, &rsl, 2);
        assert!(expanded.dropped.len() <= 2);
        assert!(expanded.region.area() >= exact.area() - 1e-9);
        if !expanded.dropped.is_empty() {
            assert!(expanded.region.area() > exact.area());
            // Dropped members were real members.
            for d in &expanded.dropped {
                assert!(rsl.iter().any(|(id, _)| id == d));
            }
        }
        // Zero budget is the exact region.
        let zero = expand_safe_region(&e, &q, &rsl, 0);
        assert!(zero.dropped.is_empty());
        assert!((zero.region.area() - exact.area()).abs() < 1e-9);
    }

    #[test]
    fn expansion_monotone_in_budget() {
        let e = engine();
        let q = Point::xy(8.5, 55.0);
        let rsl = e.reverse_skyline(&q);
        let mut last = 0.0f64;
        for budget in 0..=3 {
            let ex = expand_safe_region(&e, &q, &rsl, budget);
            assert!(
                ex.region.area() + 1e-9 >= last,
                "budget {budget} shrank the region"
            );
            last = ex.region.area();
        }
    }

    #[test]
    fn batch_shares_one_safe_region() {
        let e = engine();
        let q = Point::xy(8.5, 55.0);
        // The three non-members.
        let ids = [ItemId(0), ItemId(4), ItemId(6)];
        let (sr, answers) = e.mwq_batch(&ids, &q);
        assert_eq!(format!("{sr:?}"), format!("{:?}", e.safe_region(&q)));
        assert_eq!(answers.len(), 3);
        // c7 overlaps the safe region (case C1, free); c1 does not.
        let c7 = answers
            .iter()
            .find(|(id, _)| *id == ItemId(6))
            .expect("c7 answered");
        assert_eq!(c7.1.case, MwqCase::Overlap);
        let c1 = answers
            .iter()
            .find(|(id, _)| *id == ItemId(0))
            .expect("c1 answered");
        assert_eq!(c1.1.case, MwqCase::Disjoint);
        // Batch answers equal individual answers.
        for (id, ans) in &answers {
            let single = e.mwq(*id, &q, &sr);
            assert_eq!(ans.case, single.case);
            assert!((ans.cost - single.cost).abs() < 1e-12);
        }
    }

    #[test]
    fn expanded_region_admits_previously_unreachable_customer() {
        // With enough sacrifice the safe region can grow until a why-not
        // customer's anti-DDR overlaps it (case C2 → C1).
        let e = engine();
        let q = Point::xy(8.5, 55.0);
        let rsl = e.reverse_skyline(&q);
        let before = e.mwq(ItemId(0), &q, &e.safe_region_for(&q, &rsl));
        assert_eq!(before.case, MwqCase::Disjoint);
        let expanded = expand_safe_region(&e, &q, &rsl, rsl.len());
        let after = e.mwq(ItemId(0), &q, &expanded.region);
        // The answer can only get cheaper with a larger region.
        assert!(after.cost <= before.cost + 1e-12);
    }
}
