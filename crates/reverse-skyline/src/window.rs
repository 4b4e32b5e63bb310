//! The `window_query` membership primitive.
//!
//! `c ∈ RSL(q)` iff no product `p` dynamically dominates `q` w.r.t. `c`
//! (Definition 3). All such dominators lie inside the closed window
//! centred at `c` with per-side extents `|c^i − q^i|`, so one R-tree
//! range query decides membership — and its result set `Λ` is exactly the
//! paper's first why-not answer: the products the customer finds more
//! interesting than `q`.

use wnrs_geometry::{dominates_dyn, kernels, stats, Point, Rect};
use wnrs_rtree::paged::NodeBuf;
use wnrs_rtree::persist::PersistError;
use wnrs_rtree::{into_ok, window_walk, ItemId, NodeSource, PagedRTree, RTree, WindowScratch};
use wnrs_storage::{PageId, Pager};

/// Reusable state of the membership probe over pages: the window
/// walk's scratch.
pub type PagedMemberScratch = WindowScratch<PageId, NodeBuf>;

/// The culprit set `Λ = window_query(c, q)`: all products that
/// dynamically dominate `q` with respect to `c`, in ascending id order.
/// `exclude` removes the customer's own tuple in the monochromatic
/// setting.
///
/// # Examples
///
/// ```
/// use wnrs_geometry::Point;
/// use wnrs_rtree::{bulk::bulk_load, RTreeConfig};
/// use wnrs_reverse_skyline::window_query;
///
/// // Paper, Fig. 4(b): window_query(c1, q) over p2..p8 returns {p2}.
/// let products = vec![
///     Point::xy(7.5, 42.0),  // p2
///     Point::xy(2.5, 70.0),  // p3
///     Point::xy(7.5, 90.0),  // p4
///     Point::xy(24.0, 20.0), // p5
///     Point::xy(20.0, 50.0), // p6
///     Point::xy(26.0, 70.0), // p7
///     Point::xy(16.0, 80.0), // p8
/// ];
/// let tree = bulk_load(&products, RTreeConfig::with_max_entries(4));
/// let lambda = window_query(&tree, &Point::xy(5.0, 30.0), &Point::xy(8.5, 55.0), None);
/// assert_eq!(lambda.len(), 1);
/// assert_eq!(lambda[0].0 .0, 0); // p2
/// ```
pub fn window_query(
    products: &RTree,
    c: &Point,
    q: &Point,
    exclude: Option<ItemId>,
) -> Vec<(ItemId, Point)> {
    into_ok(window_query_with(
        products,
        c,
        q,
        exclude,
        &mut WindowScratch::new(),
    ))
}

/// [`window_query`] through pages.
///
/// # Errors
///
/// Returns an error when a page read or decode fails.
pub fn paged_window_query<P: Pager>(
    tree: &PagedRTree<P>,
    c: &Point,
    q: &Point,
    exclude: Option<ItemId>,
) -> Result<Vec<(ItemId, Point)>, PersistError> {
    window_query_with(tree, c, q, exclude, &mut WindowScratch::new())
}

/// [`window_query`] over either node source, reusing a window scratch
/// across calls — the per-customer hot path of batch explanations.
/// Results are in ascending id order: a *canonical* order, independent
/// of the index's node layout, so culprit sets — and everything that
/// tie-breaks on their order, like Algorithm 1's candidate staircase —
/// compare bit-identically between a cached answer and a recomputation
/// against a tree whose shape has changed under writes.
///
/// # Errors
///
/// Returns the source's error when a node read fails.
pub fn window_query_with<S: NodeSource>(
    products: &S,
    c: &Point,
    q: &Point,
    exclude: Option<ItemId>,
    scratch: &mut WindowScratch<S::NodeRef, S::Buf>,
) -> Result<Vec<(ItemId, Point)>, S::Error> {
    // lint:allow(hot_path_alloc) reason=one result buffer per window query, not per entry
    let mut out = Vec::new();
    window_walk(products, &Rect::window(c, q), scratch, |id, p| {
        out.push((id, Point::from(p)));
        false
    })?;
    out.retain(|(id, p)| Some(*id) != exclude && dominates_dyn(p, q, c));
    out.sort_unstable_by_key(|(id, _)| *id);
    Ok(out)
}

/// Whether `c ∈ RSL(q)`: true iff the window query finds no dominating
/// product. Early-exits inside the index without materialising `Λ`.
pub fn is_reverse_skyline_member(
    products: &RTree,
    c: &Point,
    q: &Point,
    exclude: Option<ItemId>,
) -> bool {
    into_ok(is_reverse_skyline_member_with(
        products,
        c,
        q,
        exclude,
        &mut WindowScratch::new(),
    ))
}

/// The membership probe over either node source, reusing a window
/// scratch across calls so repeated probes allocate nothing. The
/// window walk stops at the first product inside `c`'s window that
/// dynamically dominates `q`; the dominance tests it ran are recorded
/// once per probe.
///
/// # Errors
///
/// Returns the source's error when a node read fails.
pub fn is_reverse_skyline_member_with<S: NodeSource>(
    products: &S,
    c: &Point,
    q: &Point,
    exclude: Option<ItemId>,
    scratch: &mut WindowScratch<S::NodeRef, S::Buf>,
) -> Result<bool, S::Error> {
    let mut tested = 0u64;
    let blocked = window_walk(products, &Rect::window(c, q), scratch, |id, p| {
        if Some(id) == exclude {
            return false;
        }
        tested += 1;
        kernels::dominates_dyn_raw(p, q.coords(), c.coords())
    });
    stats::record_dominance_tests(tested);
    Ok(!blocked?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paged_is_reverse_skyline_member;
    use std::sync::Arc;
    use wnrs_rtree::bulk::bulk_load;
    use wnrs_rtree::persist::save;
    use wnrs_rtree::RTreeConfig;
    use wnrs_storage::{BufferPool, MemPager};

    fn paper_tree_without_p1() -> RTree {
        let products = vec![
            Point::xy(7.5, 42.0),  // 0: p2
            Point::xy(2.5, 70.0),  // 1: p3
            Point::xy(7.5, 90.0),  // 2: p4
            Point::xy(24.0, 20.0), // 3: p5
            Point::xy(20.0, 50.0), // 4: p6
            Point::xy(26.0, 70.0), // 5: p7
            Point::xy(16.0, 80.0), // 6: p8
        ];
        bulk_load(&products, RTreeConfig::with_max_entries(4))
    }

    fn paper_tree_without_p2() -> RTree {
        let products = vec![
            Point::xy(5.0, 30.0),  // 0: p1
            Point::xy(2.5, 70.0),  // 1: p3
            Point::xy(7.5, 90.0),  // 2: p4
            Point::xy(24.0, 20.0), // 3: p5
            Point::xy(20.0, 50.0), // 4: p6
            Point::xy(26.0, 70.0), // 5: p7
            Point::xy(16.0, 80.0), // 6: p8
        ];
        bulk_load(&products, RTreeConfig::with_max_entries(4))
    }

    #[test]
    fn c1_is_not_member_because_of_p2() {
        let tree = paper_tree_without_p1();
        let c1 = Point::xy(5.0, 30.0);
        let q = Point::xy(8.5, 55.0);
        assert!(!is_reverse_skyline_member(&tree, &c1, &q, None));
        let lambda = window_query(&tree, &c1, &q, None);
        assert_eq!(lambda.len(), 1);
        assert!(lambda[0].1.same_location(&Point::xy(7.5, 42.0)));
    }

    #[test]
    fn c2_is_member() {
        // Fig. 4(a): the window query of c2 returns empty ⇒ c2 ∈ RSL(q).
        let tree = paper_tree_without_p2();
        let c2 = Point::xy(7.5, 42.0);
        let q = Point::xy(8.5, 55.0);
        assert!(is_reverse_skyline_member(&tree, &c2, &q, None));
        assert!(window_query(&tree, &c2, &q, None).is_empty());
    }

    #[test]
    fn exclusion_of_own_tuple() {
        // Monochromatic: p1 is inside c1's window but is c1 itself.
        let all = vec![
            Point::xy(5.0, 30.0),
            Point::xy(7.5, 42.0),
            Point::xy(20.0, 50.0),
        ];
        let tree = bulk_load(&all, RTreeConfig::with_max_entries(4));
        let c1 = all[0].clone();
        let q = Point::xy(8.5, 55.0);
        let lambda = window_query(&tree, &c1, &q, Some(ItemId(0)));
        assert_eq!(lambda.len(), 1, "only p2 dominates, own tuple excluded");
        assert_eq!(lambda[0].0, ItemId(1));
    }

    #[test]
    fn boundary_points_do_not_dominate() {
        // A product at the exact reflected image of q (all transformed
        // coordinates equal) sits on the window boundary but does not
        // dominate q, so membership holds.
        let c = Point::xy(10.0, 10.0);
        let q = Point::xy(14.0, 13.0);
        let reflected = Point::xy(6.0, 7.0); // |c−p| = |c−q| in both dims
        let tree = bulk_load(&[reflected], RTreeConfig::with_max_entries(4));
        assert!(window_query(&tree, &c, &q, None).is_empty());
        assert!(is_reverse_skyline_member(&tree, &c, &q, None));
    }

    #[test]
    fn partially_tied_point_dominates() {
        // Equal distance in x, strictly closer in y ⇒ dominates.
        let c = Point::xy(10.0, 10.0);
        let q = Point::xy(14.0, 13.0);
        let p = Point::xy(6.0, 11.0);
        let tree = bulk_load(&[p], RTreeConfig::with_max_entries(4));
        assert_eq!(window_query(&tree, &c, &q, None).len(), 1);
        assert!(!is_reverse_skyline_member(&tree, &c, &q, None));
    }

    #[test]
    fn customer_at_query_point() {
        // c = q: the window degenerates to the point c; only a product
        // exactly at c could be inside, and it cannot strictly dominate.
        let tree = paper_tree_without_p1();
        let q = Point::xy(8.5, 55.0);
        assert!(is_reverse_skyline_member(&tree, &q, &q, None));
    }

    #[test]
    fn window_query_matches_bruteforce() {
        let pts: Vec<Point> = (0..300)
            .map(|i| {
                let f = i as f64;
                Point::xy((f * 17.3) % 100.0, (f * 29.7) % 100.0)
            })
            .collect();
        let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
        let c = Point::xy(40.0, 60.0);
        let q = Point::xy(55.0, 30.0);
        let mut got: Vec<u32> = window_query(&tree, &c, &q, None)
            .iter()
            .map(|(id, _)| id.0)
            .collect();
        got.sort_unstable();
        let mut want: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| wnrs_geometry::dominates_dyn(p, &q, &c))
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(
            is_reverse_skyline_member(&tree, &c, &q, None),
            want.is_empty()
        );
    }

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
    fn window_query_matches_in_memory() {
        let pts = pseudo_points(500, 21);
        let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
        let pager = Arc::new(MemPager::paper_default());
        let meta = save(&tree, pager.as_ref()).expect("save");
        let paged = PagedRTree::open(BufferPool::new(pager, 32), meta).expect("open");
        let mut scratch = PagedMemberScratch::new();
        for (ci, c) in pts.iter().take(40).enumerate() {
            let q = Point::xy(47.0, 53.0);
            let exclude = Some(ItemId(ci as u32));
            let want = window_query(&tree, c, &q, exclude);
            let got = paged_window_query(&paged, c, &q, exclude).expect("paged");
            assert_eq!(got.len(), want.len(), "customer {ci}");
            for (g, w) in got.iter().zip(want.iter()) {
                assert_eq!(g.0, w.0, "customer {ci}");
                assert_eq!(g.1.coords(), w.1.coords(), "customer {ci}");
            }
            assert_eq!(
                paged_is_reverse_skyline_member(&paged, c, &q, exclude, &mut scratch)
                    .expect("paged"),
                is_reverse_skyline_member(&tree, c, &q, exclude),
                "customer {ci}"
            );
        }
    }
}
