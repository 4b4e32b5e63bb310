//! Anti-dominance-region decomposition (the rectangles of Fig. 10).
//!
//! In the distance space centred at a customer `c`, the dynamic skyline
//! `DSL(c)` bounds the dynamic dominance region `DDR(c)` from below; its
//! complement `anti-DDR(c)` — the region where a query point is *not*
//! dynamically dominated, hence enters `DSL(c)` — is **downward closed**,
//! so it decomposes into boxes anchored at the origin.
//!
//! For `d = 2` the decomposition is the paper's staircase of
//! `|DSL(c)| + 1` overlapping rectangles; for general `d` we obtain it by
//! successive clipping: starting from the universe box, each skyline
//! point `s` replaces every box `b` by the boxes `b ∩ {t : t_i ≤ s_i}`
//! (one per dimension), with containment pruning.
//!
//! **Boundary caveat** (shared with the paper): the rectangles are
//! closed, yet a point on the *outer* boundary whose coordinates tie a
//! skyline point in some dimensions and exceed none is still undominated,
//! whereas a boundary point strictly dominated in one coordinate is not.
//! The closed representation errs by a measure-zero set; callers that
//! need strict safety (property tests) shrink by an epsilon.

use wnrs_geometry::region::{Antichain, Corners};
use wnrs_geometry::{
    cmp_f64, dominance::prune_dominated, dominates, reflect_corners, Point, Rect, Region,
};

/// Per-dimension maximum distance from `c` to anywhere in `universe` —
/// the transformed-space corner the unbounded staircase boxes are capped
/// at (the paper caps at the dataset maxima).
///
/// The cap is padded by a relative 1e-9: the capped directions are
/// genuinely unbounded in the true anti-dominance region and reflected
/// boxes are clipped back to the universe, so over-covering is harmless —
/// while an exact cap can exclude boundary points (the query itself!) by
/// one ulp, because `c + (hi − c)` does not round-trip in f64.
pub fn max_dist(c: &Point, universe: &Rect) -> Point {
    assert_eq!(c.dim(), universe.dim(), "dimensionality mismatch");
    Point::new(
        (0..c.dim())
            .map(|i| {
                let raw = (c[i] - universe.lo()[i])
                    .abs()
                    .max((universe.hi()[i] - c[i]).abs());
                raw * (1.0 + 1e-9) + f64::MIN_POSITIVE
            })
            .collect::<Vec<_>>(),
    )
}

/// The anti-dominance region of a *transformed-space* skyline `dsl_t`
/// (non-negative coordinates), capped at `maxd`, as origin-anchored
/// boxes. Dispatches to the exact 2-d staircase when possible.
///
/// An empty `dsl_t` yields the full `[0, maxd]` box: with no products,
/// nothing dominates anything.
pub fn anti_ddr(dsl_t: &[Point], maxd: &Point) -> Region {
    Region::from_corners(anti_ddr_corners(dsl_t, maxd))
}

/// [`anti_ddr`] as the upper corners of its origin-anchored boxes, in
/// the region's box order: the rows the safe-region pipeline shrinks and
/// reflects without building a box per corner.
pub fn anti_ddr_corners(dsl_t: &[Point], maxd: &Point) -> Antichain<Corners> {
    if maxd.dim() == 2 {
        anti_ddr_2d(dsl_t, maxd)
    } else {
        anti_ddr_general_corners(dsl_t, maxd)
    }
}

/// The paper's 2-d staircase: `|DSL| + 1` overlapping boxes whose upper
/// corners are the "outer" stair corners, with the two end boxes extended
/// to the universe maxima. Skyline points outside the declared universe
/// (possible in degenerate configurations) are capped at `maxd`.
fn anti_ddr_2d(dsl_t: &[Point], maxd: &Point) -> Antichain<Corners> {
    assert_eq!(maxd.dim(), 2);
    let mut sky: Vec<Point> = dsl_t.to_vec();
    prune_dominated(&mut sky, dominates);
    dedup_points(&mut sky);
    let mut corners = Antichain::<Corners>::new(2);
    if sky.is_empty() {
        corners.offer(maxd.coords());
        return corners;
    }
    // Ascending x ⇒ descending y (mutually non-dominated).
    sky.sort_by(|a, b| cmp_f64(a[0], b[0]));
    let m = sky.len();
    let mut stair = |x: f64, y: f64| {
        corners.offer(&[x.min(maxd[0]), y.min(maxd[1])]);
    };
    // Left of the staircase: x ≤ s_0.x, any y.
    stair(sky[0][0], maxd[1]);
    // Stair corners between successive skyline points.
    for l in 0..m - 1 {
        stair(sky[l + 1][0], sky[l][1]);
    }
    // Below the staircase: y ≤ s_m.y, any x.
    stair(maxd[0], sky[m - 1][1]);
    corners
}

/// General-d anti-dominance decomposition by successive clipping.
pub fn anti_ddr_general(dsl_t: &[Point], maxd: &Point) -> Region {
    Region::from_corners(anti_ddr_general_corners(dsl_t, maxd))
}

/// [`anti_ddr_general`] on upper-corner rows: each skyline point `s`
/// splits every corner `u` it dominates into the corners
/// `u` with `u_i` lowered to `s_i`, one per dimension, and the next
/// corner set is the containment antichain of the results in order.
fn anti_ddr_general_corners(dsl_t: &[Point], maxd: &Point) -> Antichain<Corners> {
    let d = maxd.dim();
    let mut sky: Vec<Point> = dsl_t.to_vec();
    prune_dominated(&mut sky, dominates);
    dedup_points(&mut sky);
    let mut corners = Antichain::<Corners>::new(d);
    corners.offer(maxd.coords());
    let mut next = Antichain::<Corners>::new(d);
    let mut cand = vec![0.0; d];
    for s in &sky {
        let s = s.coords();
        for u in corners.rows().chunks_exact(d) {
            // If the box already avoids domination by s in some
            // dimension, keep it whole.
            if u.iter().zip(s).any(|(ui, si)| ui <= si) {
                next.offer(u);
                continue;
            }
            // Otherwise split: clip along each dimension at s_i (the
            // box's lower corner is the origin).
            for i in 0..d {
                if s[i] >= 0.0 {
                    cand.copy_from_slice(u);
                    cand[i] = s[i].min(u[i]);
                    next.offer(&cand);
                }
            }
        }
        std::mem::swap(&mut corners, &mut next);
        next.clear();
        if corners.is_empty() {
            break;
        }
    }
    corners
}

/// The anti-dominance region of `c` in the **original** data space,
/// given `dsl` (the dynamic skyline of `c` in original coordinates) and
/// the data universe: each transformed box `[0, u]` reflects to the
/// symmetric box `[c − u, c + u]`, clipped to the universe.
pub fn anti_ddr_original_space(c: &Point, dsl: &[Point], universe: &Rect) -> Region {
    let maxd = max_dist(c, universe);
    let dsl_t: Vec<Point> = dsl.iter().map(|p| p.abs_diff(c)).collect();
    reflect_corners(c, anti_ddr_corners(&dsl_t, &maxd).rows(), universe)
}

fn dedup_points(pts: &mut Vec<Point>) {
    let mut i = 0;
    while i < pts.len() {
        let mut j = i + 1;
        while j < pts.len() {
            if pts[i].same_location(&pts[j]) {
                pts.swap_remove(j);
            } else {
                j += 1;
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnrs_geometry::dominates;

    fn maxd2() -> Point {
        Point::xy(100.0, 100.0)
    }

    /// Ground truth: membership in the anti-dominance region.
    fn undominated(t: &Point, sky: &[Point]) -> bool {
        !sky.iter().any(|s| dominates(s, t))
    }

    #[test]
    fn empty_dsl_gives_universe() {
        let r = anti_ddr(&[], &maxd2());
        assert_eq!(r.len(), 1);
        assert!((r.area() - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn single_point_staircase() {
        let s = Point::xy(10.0, 20.0);
        let r = anti_ddr(std::slice::from_ref(&s), &maxd2());
        assert_eq!(r.len(), 2); // |DSL| + 1
                                // Interior samples agree with ground truth.
        assert!(r.contains(&Point::xy(5.0, 99.0)));
        assert!(r.contains(&Point::xy(99.0, 5.0)));
        assert!(!r.contains(&Point::xy(10.5, 20.5)));
        // Exact union area: 10·100 + 100·20 − 10·20.
        assert!((r.area() - (1000.0 + 2000.0 - 200.0)).abs() < 1e-9);
    }

    #[test]
    fn staircase_counts_paper_fig10() {
        // DSL = {A, B} ⇒ 3 rectangles.
        let sky = vec![Point::xy(10.0, 50.0), Point::xy(30.0, 20.0)];
        let r = anti_ddr(&sky, &maxd2());
        assert_eq!(r.len(), 3);
        // The middle box corner is the stair corner (30, 50).
        assert!(r.contains(&Point::xy(29.0, 49.0)));
        assert!(!r.contains(&Point::xy(31.0, 21.0)));
    }

    #[test]
    fn staircase_membership_matches_ground_truth_on_grid() {
        let sky = vec![
            Point::xy(10.0, 80.0),
            Point::xy(25.0, 60.0),
            Point::xy(40.0, 30.0),
            Point::xy(70.0, 10.0),
        ];
        let r = anti_ddr(&sky, &maxd2());
        assert_eq!(r.len(), sky.len() + 1);
        for xi in 0..50 {
            for yi in 0..50 {
                // Sample off-boundary to avoid the closed-boundary caveat.
                let t = Point::xy(xi as f64 * 2.0 + 0.5, yi as f64 * 2.0 + 0.5);
                assert_eq!(
                    r.contains(&t),
                    undominated(&t, &sky),
                    "disagreement at {t:?}"
                );
            }
        }
    }

    #[test]
    fn general_matches_2d_staircase() {
        let sky = vec![
            Point::xy(10.0, 80.0),
            Point::xy(25.0, 60.0),
            Point::xy(40.0, 30.0),
            Point::xy(70.0, 10.0),
        ];
        let a = Region::from_corners(anti_ddr_2d(&sky, &maxd2()));
        let b = anti_ddr_general(&sky, &maxd2());
        assert!((a.area() - b.area()).abs() < 1e-9);
        for xi in 0..40 {
            for yi in 0..40 {
                let t = Point::xy(xi as f64 * 2.5 + 0.1, yi as f64 * 2.5 + 0.1);
                assert_eq!(a.contains(&t), b.contains(&t), "at {t:?}");
            }
        }
    }

    #[test]
    fn general_3d_matches_ground_truth() {
        let sky = vec![
            Point::new(vec![10.0, 50.0, 30.0]),
            Point::new(vec![40.0, 20.0, 60.0]),
            Point::new(vec![70.0, 70.0, 5.0]),
        ];
        let maxd = Point::new(vec![100.0; 3]);
        let r = anti_ddr_general(&sky, &maxd);
        let mut state: u64 = 17;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for _ in 0..2000 {
            let t = Point::new(vec![
                next() * 99.0 + 0.3,
                next() * 99.0 + 0.3,
                next() * 99.0 + 0.3,
            ]);
            assert_eq!(r.contains(&t), undominated(&t, &sky), "at {t:?}");
        }
    }

    #[test]
    fn dominated_input_points_are_ignored() {
        let sky = vec![Point::xy(10.0, 10.0)];
        let with_noise = vec![
            Point::xy(10.0, 10.0),
            Point::xy(50.0, 50.0), // dominated
            Point::xy(10.0, 10.0), // duplicate
        ];
        let a = anti_ddr(&sky, &maxd2());
        let b = anti_ddr(&with_noise, &maxd2());
        assert_eq!(a.len(), b.len());
        assert!((a.area() - b.area()).abs() < 1e-9);
    }

    #[test]
    fn skyline_point_on_axis() {
        // A product sharing a coordinate with c transforms onto an axis.
        let sky = vec![Point::xy(0.0, 30.0)];
        let r = anti_ddr(&sky, &maxd2());
        // Nothing with y > 30 survives except the degenerate x = 0 slab.
        assert!(!r.contains(&Point::xy(1.0, 31.0)));
        assert!(r.contains(&Point::xy(50.0, 29.0)));
    }

    #[test]
    fn original_space_reflection_paper_example() {
        // Paper Section V-B worked example: DDR of c7 (26, 70) over the
        // products P = all points except pt7, universe from Fig. 1 data.
        // anti-DDR(c7) = 4 rectangles:
        //   {(2.5,60),(49.5,80)}, {(16,50),(36,90)}, {(20,20),(32,120)},
        //   {(24,50),(28,90)}  (clipped to the universe here).
        let c7 = Point::xy(26.0, 70.0);
        let products = vec![
            Point::xy(5.0, 30.0),
            Point::xy(7.5, 42.0),
            Point::xy(2.5, 70.0),
            Point::xy(7.5, 90.0),
            Point::xy(24.0, 20.0),
            Point::xy(20.0, 50.0),
            Point::xy(16.0, 80.0),
        ];
        let dsl_idx = crate::dynamic::dynamic_skyline_scan(&products, &c7);
        let dsl: Vec<Point> = dsl_idx.iter().map(|&i| products[i].clone()).collect();
        // Universe generous enough to not clip the paper's rectangles.
        let universe = Rect::new(Point::xy(0.0, 0.0), Point::xy(60.0, 120.0));
        let r = anti_ddr_original_space(&c7, &dsl, &universe);
        assert_eq!(r.len(), dsl.len() + 1);
        // The paper lists these four rectangles for anti-DDR(c7). Its r4
        // is a conservative subset of the exact end box (the paper's own
        // worked numbers under-extend it), so we assert containment
        // rather than equality: every paper rectangle must lie inside the
        // computed region.
        let paper_rects = [
            Rect::new(Point::xy(2.5, 60.0), Point::xy(49.5, 80.0)),
            Rect::new(Point::xy(16.0, 50.0), Point::xy(36.0, 90.0)),
            Rect::new(Point::xy(20.0, 20.0), Point::xy(32.0, 120.0)),
            Rect::new(Point::xy(24.0, 50.0), Point::xy(28.0, 90.0)),
        ];
        for e in &paper_rects {
            let clipped = e.intersection(&universe).expect("inside universe");
            assert!(
                r.boxes().iter().any(|b| b.contains_rect(&clipped)),
                "paper rectangle {e:?} not covered by computed region {r:?}"
            );
        }
        // And the region itself matches ground truth: a point is in
        // anti-DDR(c7) iff no product dynamically dominates it w.r.t. c7.
        for xi in 0..30 {
            for yi in 0..30 {
                let t = Point::xy(xi as f64 * 2.0 + 0.25, yi as f64 * 4.0 + 0.25);
                let truth = !products
                    .iter()
                    .any(|p| wnrs_geometry::dominates_dyn(p, &t, &c7));
                assert_eq!(r.contains(&t), truth, "at {t:?}");
            }
        }
    }

    #[test]
    fn max_dist_takes_farther_side() {
        let u = Rect::new(Point::xy(0.0, 0.0), Point::xy(100.0, 50.0));
        let c = Point::xy(30.0, 45.0);
        let m = max_dist(&c, &u);
        // Padded slightly beyond the exact distances (never below).
        assert!(m.approx_eq(&Point::xy(70.0, 45.0), 1e-6));
        assert!(m[0] >= 70.0 && m[1] >= 45.0);
    }
}
