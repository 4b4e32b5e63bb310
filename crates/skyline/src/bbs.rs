//! Branch-and-bound skyline over the R\*-tree (Papadias et al.,
//! SIGMOD'03), in the static space and in the absolute-distance space
//! centred at a query point (dynamic skyline).
//!
//! BBS pops R-tree entries from a min-heap keyed by `MINDIST` (the
//! coordinate sum of the rectangle's lower corner); an entry whose lower
//! corner is dominated by an already-found skyline point can be pruned
//! wholesale, which makes BBS I/O-optimal for skylines.

use wnrs_geometry::{abs_diff_into, dominates_components, kernels, Point, PointsView};
use wnrs_rtree::{into_ok, Child, Frontier, ItemId, NodeId, NodeSource, NodeView, RTree};

/// The static skyline of the indexed points via BBS, as `(id, point)`
/// pairs in discovery (MINDIST) order.
pub fn bbs_skyline(tree: &RTree) -> Vec<(ItemId, Point)> {
    let _span = wnrs_obs::span!("bbs_skyline");
    let dim = tree.dim();
    // lint:allow(hot_path_alloc) reason=per-query accumulators, not per-entry
    let (mut sky, mut out, mut lows) = (Vec::<f64>::new(), Vec::new(), Vec::<f64>::new());
    let dominated =
        |sky: &[f64], lo: &[f64]| sky.chunks_exact(dim).any(|s| dominates_components(s, lo));
    let mut heap = Frontier::default();
    if let Some((root, level)) = tree.root_node() {
        heap.push(0.0, Slot::Node(root, level, ROOT_SENTINEL));
    }
    while let Some((_, slot)) = heap.pop() {
        match slot {
            Slot::Node(node, level, at) => {
                if at != ROOT_SENTINEL && dominated(&sky, &lows[at as usize..][..dim]) {
                    continue;
                }
                for (child, lo, _) in into_ok(tree.read_node(node, level, &mut ())).iter() {
                    let key: f64 = lo.iter().sum();
                    let at = stash(&mut lows, lo);
                    match child {
                        Child::Node(child) => heap.push(key, Slot::Node(child, level - 1, at)),
                        // An item's lower corner is the point itself.
                        Child::Item(id) => heap.push(key, Slot::Item(id, at, at)),
                    }
                }
            }
            Slot::Item(id, at, _) => {
                let p = &lows[at as usize..][..dim];
                if !dominated(&sky, p) {
                    sky.extend_from_slice(p);
                    out.push((id, Point::from(p)));
                }
            }
        }
    }
    out
}

/// The dynamic skyline w.r.t. `q` (Definition 2) via BBS in the
/// transformed space, as `(id, point)` pairs in original coordinates.
///
/// # Examples
///
/// ```
/// use wnrs_geometry::Point;
/// use wnrs_rtree::{bulk::bulk_load, RTreeConfig};
/// use wnrs_skyline::bbs_dynamic_skyline;
///
/// // Paper, Fig. 2(a): DSL(q) = {p2, p6} for q(8.5, 55).
/// let pts = vec![
///     Point::xy(5.0, 30.0),  // p1
///     Point::xy(7.5, 42.0),  // p2
///     Point::xy(2.5, 70.0),  // p3
///     Point::xy(7.5, 90.0),  // p4
///     Point::xy(24.0, 20.0), // p5
///     Point::xy(20.0, 50.0), // p6
///     Point::xy(26.0, 70.0), // p7
///     Point::xy(16.0, 80.0), // p8
/// ];
/// let tree = bulk_load(&pts, RTreeConfig::with_max_entries(4));
/// let mut ids: Vec<u32> = bbs_dynamic_skyline(&tree, &Point::xy(8.5, 55.0))
///     .iter().map(|(id, _)| id.0).collect();
/// ids.sort();
/// assert_eq!(ids, vec![1, 5]);
/// ```
pub fn bbs_dynamic_skyline(tree: &RTree, q: &Point) -> Vec<(ItemId, Point)> {
    bbs_dynamic_skyline_excluding(tree, q, None)
}

/// As [`bbs_dynamic_skyline`], but ignoring the item with id `exclude` —
/// needed in the monochromatic setting, where a customer's own tuple
/// must not appear among its products (it would transform to the origin
/// and dominate everything).
pub fn bbs_dynamic_skyline_excluding(
    tree: &RTree,
    q: &Point,
    exclude: Option<ItemId>,
) -> Vec<(ItemId, Point)> {
    into_ok(dynamic_skyline(tree, q, exclude))
}

/// The dynamic skyline w.r.t. `q` via BBS over either node source,
/// ignoring the item `exclude`: `(id, point)` pairs in discovery order.
///
/// # Errors
///
/// Returns the source's error when a node read fails.
pub fn dynamic_skyline<S: NodeSource>(
    tree: &S,
    q: &Point,
    exclude: Option<ItemId>,
) -> Result<Vec<(ItemId, Point)>, S::Error> {
    let mut scratch = BbsScratch::new();
    bbs_dynamic_skyline_scratch(tree, q.coords(), exclude, &mut scratch)?;
    let pts = scratch.points();
    Ok(scratch
        .ids
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, pts.get(i).to_point()))
        .collect())
}

/// Heap payload of the BBS walks: a node to maybe-expand (with its
/// level), or a leaf entry. Both carry the arena offset of their lower
/// bound — transformed-space in the dynamic walk
/// ([`BbsScratch::tarena`]), the box's own lower corner in
/// [`bbs_skyline`] — so the pop-time prune re-check reads no node; an
/// item also carries the
/// offset of its original coordinates ([`BbsScratch::parena`]), since a
/// page may leave the pool between push and pop.
#[derive(Debug, Clone, Copy)]
enum Slot<R> {
    Node(R, u32, u32),
    Item(ItemId, u32, u32),
}

/// Arena offset marking the root node, which has no parent entry (and
/// therefore no precomputed bound — it pops first, against an empty
/// skyline, so no prune check is needed either).
const ROOT_SENTINEL: u32 = u32::MAX;

/// Reusable state for [`bbs_dynamic_skyline_scratch`] over a node
/// source addressing nodes by `R` and decoding into `B` (the arena
/// tree by default): the best-first frontier, the flat
/// transformed-space skyline, the accepted items, and their buffers.
///
/// One scratch serves any number of sequential queries; after a warm-up
/// query has grown the buffers, further queries perform **zero** heap
/// allocations. The store build holds one scratch per worker thread.
#[derive(Debug, Default)]
pub struct BbsScratch<R = NodeId, B = ()> {
    heap: Frontier<Slot<R>>,
    dim: usize,
    /// Transformed-space skyline, flat (`len * dim` coords).
    sky_t: Vec<f64>,
    /// Accepted item ids, discovery order.
    ids: Vec<ItemId>,
    /// Accepted items' original coordinates, flat, discovery order.
    pts: Vec<f64>,
    /// Per-candidate transform buffer.
    tbuf: Vec<f64>,
    /// Transformed lower bounds of heap residents, flat (`dim` coords
    /// per pushed element): computed once at push time, reused for the
    /// pop-time prune re-check.
    tarena: Vec<f64>,
    /// Original coordinates of pushed leaf entries, flat.
    parena: Vec<f64>,
    /// Node decode buffer.
    buf: B,
}

impl<R: Default, B: Default> BbsScratch<R, B> {
    /// An empty scratch; buffers grow on first use and are then reused.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl<R, B> BbsScratch<R, B> {
    /// Number of skyline points found by the last query.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the last query found no skyline points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The transformed-space dynamic skyline of the last query, in
    /// discovery order, as a flat borrowed view.
    #[must_use]
    pub fn dsl_t(&self) -> PointsView<'_> {
        PointsView::new(self.dim, &self.sky_t)
    }

    /// The accepted items' original coordinates, discovery order.
    #[must_use]
    pub fn points(&self) -> PointsView<'_> {
        PointsView::new(self.dim, &self.pts)
    }

    /// The accepted item ids of the last query, in discovery order.
    #[must_use]
    pub fn ids(&self) -> &[ItemId] {
        &self.ids
    }
}

/// Whether any point of the flat skyline arena dominates `t` — the
/// batched one-vs-many kernel (stats recorded once per arena scan).
fn any_dominates(sky: &[f64], dim: usize, t: &[f64]) -> bool {
    debug_assert!(dim > 0);
    kernels::any_dominates_block(sky, dim, t)
}

/// Appends `coords` to a flat arena and returns their offset.
fn stash(arena: &mut Vec<f64>, coords: &[f64]) -> u32 {
    let off = arena.len() as u32;
    arena.extend_from_slice(coords);
    off
}

/// The BBS dynamic-skyline walk over either node source: runs BBS in
/// the transformed space centred at `q`, leaving the results in
/// `scratch` ([`BbsScratch::ids`], [`BbsScratch::points`],
/// [`BbsScratch::dsl_t`]).
///
/// Heap keys are the `min_l1` distance of each entry's box to `q`
/// ([`kernels::min_l1_chunked`]) and ties break by insertion sequence, so
/// both sources visit entries in the same order. Entries already
/// dominated by the skyline are pruned *at push time* (the skyline only
/// grows, so anything dominated at push would be dominated at pop too);
/// survivors carry their transformed lower bound in a flat arena, so the
/// pop-time re-check costs `O(|skyline| · dim)` with no node read, and
/// expanded nodes are read exactly once. A parent entry's box *is* its
/// child's MBR (the R\*-tree keeps entry rectangles tight), so pruning
/// against it decides what the child's own entries would. After a
/// warm-up query on the same tree shape the steady state performs zero
/// heap allocations.
///
/// # Errors
///
/// Returns the source's error when a node read fails.
///
/// # Panics
///
/// Panics when `q`'s length differs from the tree's dimensionality.
pub fn bbs_dynamic_skyline_scratch<S: NodeSource>(
    tree: &S,
    q: &[f64],
    exclude: Option<ItemId>,
    scratch: &mut BbsScratch<S::NodeRef, S::Buf>,
) -> Result<(), S::Error> {
    assert_eq!(q.len(), tree.dim(), "query dimensionality mismatch");
    let _span = wnrs_obs::span!("bbs_dsl");
    let BbsScratch {
        heap,
        dim,
        sky_t,
        ids,
        pts,
        tbuf,
        tarena,
        parena,
        buf,
    } = scratch;
    heap.clear();
    *dim = q.len();
    let dim = *dim;
    sky_t.clear();
    ids.clear();
    pts.clear();
    tbuf.clear();
    tarena.clear();
    parena.clear();
    // The root is the heap's only element at this point, so its key is
    // never compared against anything and it pops against an empty
    // skyline: push 0.0 with the sentinel offset instead of a bound.
    if let Some((root, level)) = tree.root_node() {
        heap.push(0.0, Slot::Node(root, level, ROOT_SENTINEL));
    }
    while let Some((_, slot)) = heap.pop() {
        match slot {
            Slot::Node(node, level, off) => {
                if off != ROOT_SENTINEL {
                    let at = off as usize;
                    if any_dominates(sky_t, dim, &tarena[at..at + dim]) {
                        continue;
                    }
                }
                for (child, lo, hi) in tree.read_node(node, level, buf)?.iter() {
                    let key = kernels::min_l1_chunked(lo, hi, q);
                    match child {
                        Child::Node(child) => {
                            kernels::min_dists_into_chunked(lo, hi, q, tbuf);
                            if any_dominates(sky_t, dim, tbuf) {
                                continue;
                            }
                            let t_off = stash(tarena, tbuf);
                            heap.push(key, Slot::Node(child, level - 1, t_off));
                        }
                        Child::Item(id) => {
                            if Some(id) == exclude {
                                continue;
                            }
                            abs_diff_into(lo, q, tbuf);
                            if any_dominates(sky_t, dim, tbuf) {
                                continue;
                            }
                            let t_off = stash(tarena, tbuf);
                            let p_off = stash(parena, lo);
                            heap.push(key, Slot::Item(id, t_off, p_off));
                        }
                    }
                }
            }
            Slot::Item(id, t_off, p_off) => {
                let at = t_off as usize;
                let t = &tarena[at..at + dim];
                if any_dominates(sky_t, dim, t) {
                    continue;
                }
                sky_t.extend_from_slice(t);
                ids.push(id);
                let at = p_off as usize;
                pts.extend_from_slice(&parena[at..at + dim]);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnl::bnl_skyline;
    use std::sync::Arc;
    use wnrs_geometry::Rect;
    use wnrs_rtree::bulk::bulk_load;
    use wnrs_rtree::persist::save;
    use wnrs_rtree::{PagedRTree, RTreeConfig};
    use wnrs_storage::{BufferPool, MemPager};

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
    fn static_bbs_matches_bnl() {
        for seed in [11, 22, 33] {
            let pts = pseudo_points(500, seed, 2);
            let tree = bulk_load(&pts, RTreeConfig::with_max_entries(8));
            let mut got: Vec<u32> = bbs_skyline(&tree).iter().map(|(id, _)| id.0).collect();
            got.sort_unstable();
            let want: Vec<u32> = bnl_skyline(&pts).iter().map(|&i| i as u32).collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn static_bbs_3d() {
        let pts = pseudo_points(400, 5, 3);
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(10));
        let mut got: Vec<u32> = bbs_skyline(&tree).iter().map(|(id, _)| id.0).collect();
        got.sort_unstable();
        let want: Vec<u32> = bnl_skyline(&pts).iter().map(|&i| i as u32).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pruning_skips_subtrees() {
        // Subtrees whose lower corner a found skyline point dominates
        // are never read.
        let pts = pseudo_points(300, 17, 2);
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(8));
        tree.reset_visits();
        assert!(!bbs_skyline(&tree).is_empty());
        assert!((tree.node_visits() as usize) < tree.node_count());
    }

    #[test]
    fn dynamic_bbs_matches_scan() {
        for seed in [7, 8, 9] {
            let pts = pseudo_points(500, seed, 2);
            let tree = bulk_load(&pts, RTreeConfig::with_max_entries(8));
            let q = Point::xy(41.0, 67.0);
            let mut got: Vec<u32> = bbs_dynamic_skyline(&tree, &q)
                .iter()
                .map(|(id, _)| id.0)
                .collect();
            got.sort_unstable();
            let want: Vec<u32> = crate::dynamic::dynamic_skyline_scan(&pts, &q)
                .iter()
                .map(|&i| i as u32)
                .collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn dynamic_bbs_prunes_nodes() {
        let pts = pseudo_points(5000, 42, 2);
        let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
        tree.reset_visits();
        let _ = bbs_dynamic_skyline(&tree, &Point::xy(50.0, 50.0));
        assert!(
            (tree.node_visits() as usize) < tree.node_count(),
            "BBS should prune: visited {} of {} nodes",
            tree.node_visits(),
            tree.node_count()
        );
    }

    #[test]
    fn scratch_matches_wrapper_across_reuse() {
        let pts = pseudo_points(400, 13, 2);
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(8));
        let mut scratch = BbsScratch::new();
        let queries = [
            Point::xy(41.0, 67.0),
            Point::xy(3.0, 3.0),
            Point::xy(90.0, 10.0),
        ];
        for (qi, q) in queries.iter().enumerate() {
            let want = bbs_dynamic_skyline_excluding(&tree, q, Some(ItemId(7)));
            into_ok(bbs_dynamic_skyline_scratch(
                &tree,
                q.coords(),
                Some(ItemId(7)),
                &mut scratch,
            ));
            assert_eq!(scratch.len(), want.len(), "query {qi}");
            for (i, (id, p)) in want.iter().enumerate() {
                assert_eq!(scratch.ids()[i], *id, "query {qi} item {i}");
                let t = p.abs_diff(q);
                assert!(
                    scratch
                        .dsl_t()
                        .get(i)
                        .same_location(wnrs_geometry::PointRef::new(t.coords())),
                    "query {qi} item {i}"
                );
            }
        }
    }

    #[test]
    fn transformed_lo_cases() {
        // The lower corner of a box's image under the transform centred
        // at q, as the walk computes it for its prune bounds.
        let r = Rect::new(Point::xy(2.0, 2.0), Point::xy(4.0, 4.0));
        let lo = |q: [f64; 2]| {
            let mut out = Vec::new();
            kernels::min_dists_into_chunked(r.lo().coords(), r.hi().coords(), &q, &mut out);
            out
        };
        // q inside in x, below in y.
        assert_eq!(lo([3.0, 0.0]), [0.0, 2.0]);
        // q beyond the upper corner.
        assert_eq!(lo([10.0, 10.0]), [6.0, 6.0]);
        // q inside the rect entirely.
        assert_eq!(lo([3.0, 3.0]), [0.0, 0.0]);
    }

    #[test]
    fn query_point_coincides_with_data_point() {
        // A product exactly at q transforms to the origin and dominates
        // every other point: DSL = that point (plus exact duplicates).
        let mut pts = pseudo_points(100, 3, 2);
        pts.push(Point::xy(50.0, 50.0));
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(8));
        let got = bbs_dynamic_skyline(&tree, &Point::xy(50.0, 50.0));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0 .0 as usize, pts.len() - 1);
    }

    /// A copy of `tree` behind a `pool_pages`-page buffer pool.
    fn paged_copy(tree: &RTree, pool_pages: usize) -> PagedRTree<MemPager> {
        let pager = Arc::new(MemPager::paper_default());
        let meta = save(tree, pager.as_ref()).expect("save");
        PagedRTree::open(BufferPool::new(pager, pool_pages), meta).expect("open")
    }

    #[test]
    fn matches_in_memory_scratch_bit_for_bit() {
        for (seed, dim) in [(7u64, 2usize), (8, 2), (5, 3)] {
            let pts = pseudo_points(600, seed, dim);
            let tree = bulk_load(&pts, RTreeConfig::paper_default(dim));
            let paged = paged_copy(&tree, 64);
            let mut mem = BbsScratch::new();
            let mut pg = BbsScratch::new();
            let queries: Vec<Point> = pts.iter().take(25).cloned().collect();
            for (qi, q) in queries.iter().enumerate() {
                let exclude = Some(ItemId(qi as u32));
                into_ok(bbs_dynamic_skyline_scratch(
                    &tree,
                    q.coords(),
                    exclude,
                    &mut mem,
                ));
                bbs_dynamic_skyline_scratch(&paged, q.coords(), exclude, &mut pg).expect("paged");
                assert_eq!(pg.ids(), mem.ids(), "seed {seed} query {qi}");
                assert_eq!(
                    pg.dsl_t().coords(),
                    mem.dsl_t().coords(),
                    "seed {seed} query {qi}: transformed skylines diverge"
                );
                // Original coordinates round-trip through the pages.
                for (i, id) in pg.ids().iter().enumerate() {
                    assert_eq!(
                        pg.points().get(i).coords(),
                        pts[id.0 as usize].coords(),
                        "seed {seed} query {qi} item {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn bounded_pool_still_exact() {
        let pts = pseudo_points(3000, 99, 2);
        let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
        let paged = paged_copy(&tree, 4);
        let mut mem = BbsScratch::new();
        let mut pg = BbsScratch::new();
        let q = Point::xy(41.0, 67.0);
        into_ok(bbs_dynamic_skyline_scratch(
            &tree,
            q.coords(),
            None,
            &mut mem,
        ));
        bbs_dynamic_skyline_scratch(&paged, q.coords(), None, &mut pg).expect("paged");
        assert_eq!(pg.ids(), mem.ids());
        assert!(paged.pool().resident() <= 4);
    }

    #[test]
    fn empty_exclusion_of_everything_is_fine() {
        let pts = vec![Point::xy(1.0, 1.0)];
        let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
        let paged = paged_copy(&tree, 4);
        let mut pg = BbsScratch::new();
        bbs_dynamic_skyline_scratch(&paged, &[0.0, 0.0], Some(ItemId(0)), &mut pg).expect("paged");
        assert!(pg.is_empty());
    }
}
