//! Sort-filter-skyline.
//!
//! Presorting by a monotone score (here: the coordinate sum) guarantees
//! that no point can be dominated by a later point in the order, so a
//! single filtering pass against the already-confirmed skyline suffices —
//! confirmed points are never evicted, unlike BNL's window. Sums that tie
//! in `f64` are broken lexicographically before the index, so the order
//! stays a linear extension of dominance when rounding merges the sums
//! of a dominator and its victim.

use std::cmp::Ordering;
use wnrs_geometry::{cmp_f64, dominates, Point};

/// Lexicographic coordinate order under plain float comparison, so
/// `-0.0` and `+0.0` are equal: a dominator is `≤` in every coordinate
/// and `<` in one, so it sorts strictly first.
fn lex_cmp(a: &[f64], b: &[f64]) -> Ordering {
    a.iter()
        .zip(b)
        .find_map(|(x, y)| {
            if x < y {
                Some(Ordering::Less)
            } else if x > y {
                Some(Ordering::Greater)
            } else {
                None
            }
        })
        .unwrap_or(Ordering::Equal)
}

/// Indices of the skyline of `points` under static dominance, in input
/// order. Equivalent output to [`crate::bnl_skyline`]; typically faster
/// on inputs with large dominated fractions.
pub fn sfs_skyline(points: &[Point]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| {
        let sa: f64 = points[a].coords().iter().sum();
        let sb: f64 = points[b].coords().iter().sum();
        cmp_f64(sa, sb)
            .then_with(|| lex_cmp(points[a].coords(), points[b].coords()))
            .then(a.cmp(&b))
    });
    let mut skyline: Vec<usize> = Vec::new();
    'outer: for &i in &order {
        for &s in &skyline {
            if dominates(&points[s], &points[i]) {
                continue 'outer;
            }
        }
        skyline.push(i);
    }
    skyline.sort_unstable();
    skyline
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnl::bnl_skyline;

    fn pseudo_points(n: usize, seed: u64, dim: usize) -> Vec<Point> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        (0..n)
            .map(|_| Point::new((0..dim).map(|_| next() * 100.0).collect::<Vec<_>>()))
            .collect()
    }

    #[test]
    fn agrees_with_bnl_on_random_inputs() {
        for seed in [1, 2, 3, 4, 5] {
            for dim in [1, 2, 3, 4] {
                let pts = pseudo_points(300, seed, dim);
                assert_eq!(
                    sfs_skyline(&pts),
                    bnl_skyline(&pts),
                    "seed {seed}, dim {dim}"
                );
            }
        }
    }

    #[test]
    fn paper_example() {
        let cars = vec![
            Point::xy(5.0, 30.0),
            Point::xy(7.5, 42.0),
            Point::xy(2.5, 70.0),
            Point::xy(7.5, 90.0),
            Point::xy(24.0, 20.0),
            Point::xy(20.0, 50.0),
            Point::xy(26.0, 70.0),
            Point::xy(16.0, 80.0),
        ];
        assert_eq!(sfs_skyline(&cars), vec![0, 2, 4]);
    }

    #[test]
    fn sum_tie_in_f64_keeps_the_dominator_first() {
        // Both sums round to 1e16; (1e16, 0) dominates (1e16, 1).
        let pts = vec![Point::xy(1e16, 1.0), Point::xy(1e16, 0.0)];
        assert_eq!(bnl_skyline(&pts), vec![1]);
        assert_eq!(sfs_skyline(&pts), vec![1]);
    }

    #[test]
    fn signed_zeros_are_equal_in_the_tie_break() {
        // Sums tie at 1e16 and (0, 1e16, 0) dominates (-0, 1e16, 1): the
        // tie-break must see 0.0 and -0.0 as equal to put it first.
        let pts = vec![
            Point::new(vec![-0.0, 1e16, 1.0]),
            Point::new(vec![0.0, 1e16, 0.0]),
        ];
        assert_eq!(bnl_skyline(&pts), vec![1]);
        assert_eq!(sfs_skyline(&pts), vec![1]);
    }

    #[test]
    fn duplicates_and_empty() {
        assert!(sfs_skyline(&[]).is_empty());
        let pts = vec![Point::xy(1.0, 1.0), Point::xy(1.0, 1.0)];
        assert_eq!(sfs_skyline(&pts), vec![0, 1]);
    }
}
