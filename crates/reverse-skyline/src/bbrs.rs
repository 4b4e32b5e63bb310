//! BBRS — branch-and-bound reverse skyline (Dellis & Seeger, VLDB'07).
//!
//! For the monochromatic setting (every data point is both product and
//! customer) the reverse skyline of `q` is a subset of the **global
//! skyline** of `q`: the points not *globally* dominated by any other
//! point, where global dominance is dynamic dominance restricted to a
//! single orthant of `q`. BBRS therefore:
//!
//! 1. computes the global skyline with a best-first R-tree traversal,
//!    pruning subtrees wholly globally dominated by a found candidate;
//! 2. verifies each candidate `c` with a window query (excluding `c`'s
//!    own tuple), exactly as the naive algorithm would — but over a far
//!    smaller candidate set.

use crate::window::is_reverse_skyline_member_with;
use wnrs_geometry::{kernels, Point};
use wnrs_rtree::{into_ok, Child, Frontier, ItemId, NodeSource, NodeView, RTree, WindowScratch};

/// Whether `s` globally dominates *every* point of the box `[lo, hi]`
/// w.r.t. `q`: per dimension the box must lie weakly on `s`'s side of
/// `q` and no closer to `q` than `s`, strictly farther in at least one
/// dimension.
fn globally_dominates_rect(s: &Point, lo: &[f64], hi: &[f64], q: &Point) -> bool {
    let d = q.dim();
    let mut strict = false;
    for i in 0..d {
        if s[i] >= q[i] {
            // Box must lie at or above q_i, at or beyond s_i.
            if lo[i] < s[i] {
                return false;
            }
            if lo[i] > s[i] {
                strict = true;
            }
        } else {
            // Box must lie at or below q_i, at or beyond s_i.
            if hi[i] > s[i] {
                return false;
            }
            if hi[i] < s[i] {
                strict = true;
            }
        }
    }
    strict
}

/// Heap payload of the global-skyline walk: a node (with its level) or
/// an item, each with the offset of its coordinates in the walk's flat
/// arena — `lo‖hi` for a node's box, the point for an item — since a
/// page may leave the pool between push and pop.
#[derive(Clone, Copy)]
enum Slot<R> {
    Node(R, u32, usize),
    Item(ItemId, usize),
}

/// The global skyline of `q` over either node source: all points not
/// globally dominated by another point, in discovery order. A superset
/// of the reverse skyline.
///
/// A best-first walk in `min_l1` order from `q`, ties broken by push
/// order; a subtree is pruned when a found point globally dominates its
/// whole box.
///
/// # Errors
///
/// Returns the source's error when a node read fails.
///
/// # Panics
///
/// Panics when `q`'s dimensionality differs from the tree's.
pub fn global_skyline<S: NodeSource>(
    data: &S,
    q: &Point,
) -> Result<Vec<(ItemId, Point)>, S::Error> {
    assert_eq!(q.dim(), data.dim(), "query dimensionality mismatch");
    let _span = wnrs_obs::span!("bbrs_global_skyline");
    let d = q.dim();
    // lint:allow(hot_path_alloc) reason=per-query accumulators, not per-entry
    let (mut found, mut ids, mut coords) = (Vec::<Point>::new(), Vec::new(), Vec::new());
    let mut heap = Frontier::default();
    let mut buf = S::Buf::default();
    // The root pops first against an empty skyline: its key and box are
    // never used.
    if let Some((root, level)) = data.root_node() {
        heap.push(0.0, Slot::Node(root, level, usize::MAX));
    }
    while let Some((_, slot)) = heap.pop() {
        match slot {
            Slot::Node(node, level, at) => {
                if at != usize::MAX {
                    let (lo, hi) = (&coords[at..at + d], &coords[at + d..at + 2 * d]);
                    if found.iter().any(|s| globally_dominates_rect(s, lo, hi, q)) {
                        continue;
                    }
                }
                for (child, lo, hi) in data.read_node(node, level, &mut buf)?.iter() {
                    let key = kernels::min_l1_chunked(lo, hi, q.coords());
                    let at = coords.len();
                    coords.extend_from_slice(lo);
                    match child {
                        Child::Node(child) => {
                            coords.extend_from_slice(hi);
                            heap.push(key, Slot::Node(child, level - 1, at));
                        }
                        Child::Item(id) => heap.push(key, Slot::Item(id, at)),
                    }
                }
            }
            Slot::Item(id, at) => {
                let p = &coords[at..at + d];
                if !kernels::any_dominates_global_points(&found, p, q) {
                    found.push(Point::from(p));
                    ids.push(id);
                }
            }
        }
    }
    Ok(ids.into_iter().zip(found).collect())
}

/// The monochromatic reverse skyline of `q` via BBRS over either node
/// source, sorted by item id: the global skyline's candidates, each
/// verified by a membership probe with its own tuple excluded.
///
/// # Errors
///
/// Returns the source's error when a node read fails.
pub fn reverse_skyline<S: NodeSource>(
    data: &S,
    q: &Point,
) -> Result<Vec<(ItemId, Point)>, S::Error> {
    let _span = wnrs_obs::span!("bbrs");
    let candidates = global_skyline(data, q)?;
    let mut scratch = WindowScratch::new();
    let mut out: Vec<(ItemId, Point)> = Vec::with_capacity(candidates.len());
    {
        let _verify = wnrs_obs::span!("bbrs_verify");
        for (id, c) in candidates {
            if is_reverse_skyline_member_with(data, &c, q, Some(id), &mut scratch)? {
                out.push((id, c));
            }
        }
    }
    out.sort_by_key(|(id, _)| *id);
    Ok(out)
}

/// [`reverse_skyline`] over the arena tree. Produces exactly the same
/// set as [`crate::naive::rsl_monochromatic_naive`].
pub fn bbrs_reverse_skyline(data: &RTree, q: &Point) -> Vec<(ItemId, Point)> {
    into_ok(reverse_skyline(data, q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::rsl_monochromatic_naive;
    use crate::paged_bbrs_reverse_skyline;
    use std::sync::Arc;
    use wnrs_geometry::dominates_global;
    use wnrs_rtree::bulk::bulk_load;
    use wnrs_rtree::persist::save;
    use wnrs_rtree::{PagedRTree, RTreeConfig};
    use wnrs_storage::{BufferPool, MemPager};

    fn pseudo_points(n: usize, seed: u64) -> Vec<Point> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        (0..n)
            .map(|_| Point::xy(next() * 100.0, next() * 100.0))
            .collect()
    }

    #[test]
    fn paper_example() {
        let pts = vec![
            Point::xy(5.0, 30.0),
            Point::xy(7.5, 42.0),
            Point::xy(2.5, 70.0),
            Point::xy(7.5, 90.0),
            Point::xy(24.0, 20.0),
            Point::xy(20.0, 50.0),
            Point::xy(26.0, 70.0),
            Point::xy(16.0, 80.0),
        ];
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(4));
        let q = Point::xy(8.5, 55.0);
        let got: Vec<u32> = bbrs_reverse_skyline(&tree, &q)
            .iter()
            .map(|(id, _)| id.0)
            .collect();
        assert_eq!(got, vec![1, 2, 3, 5, 7]);
    }

    #[test]
    fn bbrs_matches_naive_on_random_data() {
        for seed in [1, 7, 13, 29] {
            let pts = pseudo_points(400, seed);
            let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
            let q = Point::xy(47.0, 53.0);
            let a: Vec<u32> = bbrs_reverse_skyline(&tree, &q)
                .iter()
                .map(|(id, _)| id.0)
                .collect();
            let b: Vec<u32> = rsl_monochromatic_naive(&tree, &q)
                .iter()
                .map(|(id, _)| id.0)
                .collect();
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn global_skyline_is_superset_of_rsl() {
        let pts = pseudo_points(500, 5);
        let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
        let q = Point::xy(30.0, 70.0);
        let globals: Vec<u32> = into_ok(global_skyline(&tree, &q))
            .iter()
            .map(|(id, _)| id.0)
            .collect();
        let rsl: Vec<u32> = bbrs_reverse_skyline(&tree, &q)
            .iter()
            .map(|(id, _)| id.0)
            .collect();
        for id in &rsl {
            assert!(
                globals.contains(id),
                "RSL member {id} missing from global skyline"
            );
        }
        assert!(globals.len() < pts.len(), "global skyline should prune");
    }

    #[test]
    fn global_skyline_matches_bruteforce() {
        let pts = pseudo_points(300, 99);
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(8));
        let q = Point::xy(50.0, 50.0);
        let mut got: Vec<u32> = into_ok(global_skyline(&tree, &q))
            .iter()
            .map(|(id, _)| id.0)
            .collect();
        got.sort_unstable();
        let want: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(i, c)| {
                !pts.iter()
                    .enumerate()
                    .any(|(j, p)| j != *i && dominates_global(p, c, &q))
            })
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn bbrs_visits_fewer_nodes_than_naive() {
        let pts = pseudo_points(5000, 77);
        let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
        let q = Point::xy(50.0, 50.0);
        tree.reset_visits();
        let _ = bbrs_reverse_skyline(&tree, &q);
        let bbrs_visits = tree.node_visits();
        tree.reset_visits();
        let _ = rsl_monochromatic_naive(&tree, &q);
        let naive_visits = tree.node_visits();
        assert!(
            bbrs_visits < naive_visits,
            "BBRS {bbrs_visits} visits vs naive {naive_visits}"
        );
    }

    #[test]
    fn query_far_outside_data() {
        // A query far outside the dataset: every point lies in one
        // orthant; the global skyline collapses towards the near corner.
        let pts = pseudo_points(200, 3);
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(8));
        let q = Point::xy(-500.0, -500.0);
        let a: Vec<u32> = bbrs_reverse_skyline(&tree, &q)
            .iter()
            .map(|(id, _)| id.0)
            .collect();
        let b: Vec<u32> = rsl_monochromatic_naive(&tree, &q)
            .iter()
            .map(|(id, _)| id.0)
            .collect();
        assert_eq!(a, b);
    }

    fn paged_copy(tree: &RTree, pool_pages: usize) -> PagedRTree<MemPager> {
        let pager = Arc::new(MemPager::paper_default());
        let meta = save(tree, pager.as_ref()).expect("save");
        PagedRTree::open(BufferPool::new(pager, pool_pages), meta).expect("open")
    }

    #[test]
    fn global_skyline_matches_in_memory_order() {
        for seed in [1, 7, 29] {
            let pts = pseudo_points(400, seed);
            let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
            let paged = paged_copy(&tree, 16);
            let q = Point::xy(47.0, 53.0);
            let want = into_ok(global_skyline(&tree, &q));
            let got = global_skyline(&paged, &q).expect("paged");
            assert_eq!(got.len(), want.len(), "seed {seed}");
            for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                assert_eq!(g.0, w.0, "seed {seed} item {i}: discovery order diverged");
                assert_eq!(g.1.coords(), w.1.coords(), "seed {seed} item {i}");
            }
        }
    }

    #[test]
    fn bbrs_matches_in_memory() {
        for seed in [1, 13, 29] {
            let pts = pseudo_points(400, seed);
            let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
            let paged = paged_copy(&tree, 8);
            let q = Point::xy(47.0, 53.0);
            let want: Vec<u32> = bbrs_reverse_skyline(&tree, &q)
                .iter()
                .map(|(id, _)| id.0)
                .collect();
            let got: Vec<u32> = paged_bbrs_reverse_skyline(&paged, &q)
                .expect("paged")
                .iter()
                .map(|(id, _)| id.0)
                .collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn paper_example_through_pages() {
        let pts = vec![
            Point::xy(5.0, 30.0),
            Point::xy(7.5, 42.0),
            Point::xy(2.5, 70.0),
            Point::xy(7.5, 90.0),
            Point::xy(24.0, 20.0),
            Point::xy(20.0, 50.0),
            Point::xy(26.0, 70.0),
            Point::xy(16.0, 80.0),
        ];
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(4));
        let paged = paged_copy(&tree, 4);
        let q = Point::xy(8.5, 55.0);
        let got: Vec<u32> = paged_bbrs_reverse_skyline(&paged, &q)
            .expect("paged")
            .iter()
            .map(|(id, _)| id.0)
            .collect();
        assert_eq!(got, vec![1, 2, 3, 5, 7]);
    }
}
