//! The R\*-tree proper: arena, insertion with forced reinsertion,
//! deletion with condensation, and window queries.

use crate::config::RTreeConfig;
use crate::node::{Child, Entry, ItemId, Node, NodeId};
use crate::source::{into_ok, window_walk, NodeSource, WindowScratch};
use crate::split::rstar_split;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use wnrs_geometry::{cmp_f64, Point, Rect};

/// An R\*-tree over d-dimensional points.
///
/// Nodes live in an arena indexed by [`NodeId`]; query code counts node
/// visits (the logical-I/O metric) in a thread-safe counter readable via
/// [`RTree::node_visits`].
///
/// # Examples
///
/// ```
/// use wnrs_geometry::{Point, Rect};
/// use wnrs_rtree::{RTree, RTreeConfig, ItemId};
///
/// let mut tree = RTree::new(2, RTreeConfig::with_max_entries(8));
/// for (i, (x, y)) in [(1.0, 2.0), (3.0, 4.0), (5.0, 0.5)].iter().enumerate() {
///     tree.insert(ItemId(i as u32), Point::xy(*x, *y));
/// }
/// let hits = tree.window(&Rect::new(Point::xy(0.0, 0.0), Point::xy(4.0, 5.0)));
/// assert_eq!(hits.len(), 2);
/// ```
pub struct RTree {
    dim: usize,
    config: RTreeConfig,
    pub(crate) nodes: Vec<Node>,
    free: Vec<NodeId>,
    root: NodeId,
    height: u32,
    len: usize,
    visits: AtomicU64,
}

impl RTree {
    /// An empty tree for `dim`-dimensional points.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or the configuration is inconsistent.
    #[must_use]
    pub fn new(dim: usize, config: RTreeConfig) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        assert!(
            config.is_valid(),
            "invalid R*-tree configuration: {config:?}"
        );
        Self {
            dim,
            config,
            nodes: vec![Node::new(0)],
            free: Vec::new(),
            root: NodeId(0),
            height: 1,
            len: 0,
            visits: AtomicU64::new(0),
        }
    }

    /// An empty tree with the paper's page geometry (1536-byte pages).
    #[must_use]
    pub fn with_paper_pages(dim: usize) -> Self {
        Self::new(dim, RTreeConfig::paper_default(dim))
    }

    /// Dimensionality of the indexed points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The tree's configuration.
    pub fn config(&self) -> &RTreeConfig {
        &self.config
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (1 for a single leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Read access to a node of the arena.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Node visits accumulated by queries since the last
    /// [`RTree::reset_visits`].
    pub fn node_visits(&self) -> u64 {
        self.visits.load(Ordering::Relaxed)
    }

    /// Resets the node-visit counter.
    pub fn reset_visits(&self) {
        self.visits.store(0, Ordering::Relaxed);
    }

    /// Records one node visit in the logical-I/O counter. Public so that
    /// external algorithms driving their own traversals (BBS, BBRS,
    /// bichromatic pruning) report comparable statistics.
    #[inline]
    pub fn record_visit(&self) {
        wnrs_obs::record(wnrs_obs::Counter::NodeVisits);
        self.visits.fetch_add(1, Ordering::Relaxed);
    }

    /// Installs the root/height/len computed by the bulk loader.
    pub(crate) fn set_bulk_state(&mut self, root: NodeId, height: u32, len: usize) {
        self.root = root;
        self.height = height;
        self.len = len;
    }

    /// MBR of the whole tree, or `None` when empty.
    pub fn mbr(&self) -> Option<Rect> {
        if self.is_empty() {
            None
        } else {
            Some(self.node(self.root).mbr())
        }
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    /// Inserts a point with its item id. Duplicate locations and ids are
    /// permitted (the tree is a multiset; id semantics belong to the
    /// caller).
    ///
    /// # Panics
    ///
    /// Panics if `p.dim()` differs from the tree's dimensionality.
    pub fn insert(&mut self, id: ItemId, p: Point) {
        assert_eq!(p.dim(), self.dim, "point dimensionality mismatch");
        // One forced-reinsertion pass per level per insertion (R* rule).
        let mut reinserted = vec![false; self.height as usize];
        self.insert_entry(Entry::item(id, p), 0, &mut reinserted);
        self.len += 1;
    }

    fn alloc(&mut self, node: Node) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.nodes[id.index()] = node;
            id
        } else {
            self.nodes.push(node);
            NodeId(self.nodes.len() as u32 - 1)
        }
    }

    /// Root-to-target path choosing subtrees per the R\* heuristics.
    fn choose_path(&self, rect: &Rect, target_level: u32) -> Vec<NodeId> {
        let mut path = vec![self.root];
        let mut current = self.root;
        while self.node(current).level() > target_level {
            let node = self.node(current);
            let child_level = node.level() - 1;
            let best = if child_level == 0 {
                // Children are leaves: minimise overlap enlargement,
                // ties by area enlargement, then by area.
                self.pick_min_overlap_child(node, rect)
            } else {
                self.pick_min_enlargement_child(node, rect)
            };
            // An inner node with no node children is structurally
            // impossible; stop descending rather than panic if it
            // happens, so the entry lands at the shallowest valid level.
            let Some(best) = best else { break };
            current = best;
            path.push(current);
        }
        path
    }

    fn pick_min_enlargement_child(&self, node: &Node, rect: &Rect) -> Option<NodeId> {
        let mut best = None;
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for e in node.entries() {
            let Child::Node(id) = e.child() else { continue };
            let enlargement = e.rect().enlargement(rect);
            let area = e.rect().area();
            if (enlargement, area) < best_key {
                best_key = (enlargement, area);
                best = Some(id);
            }
        }
        best
    }

    fn pick_min_overlap_child(&self, node: &Node, rect: &Rect) -> Option<NodeId> {
        let entries = node.entries();
        let mut best = None;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for (i, e) in entries.iter().enumerate() {
            let Child::Node(id) = e.child() else { continue };
            let grown = e.rect().union_mbr(rect);
            let mut overlap_delta = 0.0;
            for (j, other) in entries.iter().enumerate() {
                if i == j {
                    continue;
                }
                overlap_delta += grown.overlap(other.rect()) - e.rect().overlap(other.rect());
            }
            let key = (overlap_delta, e.rect().enlargement(rect), e.rect().area());
            if key < best_key {
                best_key = key;
                best = Some(id);
            }
        }
        best
    }

    fn insert_entry(&mut self, entry: Entry, level: u32, reinserted: &mut [bool]) {
        let path = self.choose_path(entry.rect(), level);
        // `choose_path` always returns at least the root.
        let Some(&target) = path.last() else { return };
        self.nodes[target.index()].push(entry);
        self.propagate(path, reinserted);
    }

    /// Walks the path bottom-up: fixes parent rectangles and resolves
    /// overflows by forced reinsertion or splitting.
    fn propagate(&mut self, mut path: Vec<NodeId>, reinserted: &mut [bool]) {
        while let Some(node_id) = path.pop() {
            let over = self.node(node_id).len() > self.config.max_entries;
            if over {
                let level = self.node(node_id).level();
                let is_root = node_id == self.root;
                let may_reinsert =
                    !is_root && self.config.reinsert_count > 0 && !reinserted[level as usize];
                if may_reinsert {
                    reinserted[level as usize] = true;
                    let orphans = self.remove_farthest(node_id);
                    self.fix_parent_rect(&path, node_id);
                    self.fix_path_rects(&path);
                    for e in orphans {
                        self.insert_entry(e, level, reinserted);
                    }
                    // The recursive inserts fixed their own paths; ours is
                    // fully handled.
                    return;
                }
                self.split_node(node_id, &path);
            }
            self.fix_parent_rect(&path, node_id);
        }
    }

    /// Removes the `p` entries farthest from the node's MBR centre,
    /// returning them closest-first (the R\* "close reinsert").
    fn remove_farthest(&mut self, node_id: NodeId) -> Vec<Entry> {
        let p = self.config.reinsert_count;
        let node = &mut self.nodes[node_id.index()];
        let center = node.mbr().center();
        let mut entries = node.take_entries();
        entries.sort_by(|a, b| {
            let da = a.rect().center().dist2(&center);
            let db = b.rect().center().dist2(&center);
            cmp_f64(da, db)
        });
        let keep = entries.len() - p;
        let mut orphans = entries.split_off(keep);
        // split_off returns the farthest block; reinsert closest-first.
        orphans.reverse();
        *self.nodes[node_id.index()].entries_mut() = entries;
        orphans
    }

    fn split_node(&mut self, node_id: NodeId, path: &[NodeId]) {
        let level = self.node(node_id).level();
        let entries = self.nodes[node_id.index()].take_entries();
        let split = rstar_split(entries, &self.config);
        *self.nodes[node_id.index()].entries_mut() = split.left;
        let sibling = self.alloc(Node::with_entries(level, split.right));
        let sibling_rect = self.node(sibling).mbr();

        if node_id == self.root {
            let node_rect = self.node(node_id).mbr();
            let new_root = self.alloc(Node::with_entries(
                level + 1,
                vec![
                    Entry::node(node_rect, node_id),
                    Entry::node(sibling_rect, sibling),
                ],
            ));
            self.root = new_root;
            self.height += 1;
            debug_assert!(path.is_empty(), "root split with non-empty remaining path");
        } else if let Some(&parent) = path.last() {
            self.nodes[parent.index()].push(Entry::node(sibling_rect, sibling));
        } else {
            debug_assert!(false, "non-root node has a parent on the path");
        }
    }

    /// Recomputes the parent's entry rectangle for `child`.
    fn fix_parent_rect(&mut self, path: &[NodeId], child: NodeId) {
        let Some(&parent) = path.last() else { return };
        let mbr = self.node(child).mbr();
        let parent_node = &mut self.nodes[parent.index()];
        for e in parent_node.entries_mut() {
            if e.child() == Child::Node(child) {
                e.set_rect(mbr);
                return;
            }
        }
        debug_assert!(false, "child {child:?} missing from parent {parent:?}");
    }

    /// Recomputes rectangles bottom-up along a whole path.
    fn fix_path_rects(&mut self, path: &[NodeId]) {
        for i in (1..path.len()).rev() {
            self.fix_parent_rect(&path[..i], path[i]);
        }
    }

    // ------------------------------------------------------------------
    // Deletion
    // ------------------------------------------------------------------

    /// Removes one entry matching `(id, p)`. Returns whether an entry was
    /// found and removed.
    pub fn delete(&mut self, id: ItemId, p: &Point) -> bool {
        assert_eq!(p.dim(), self.dim, "point dimensionality mismatch");
        let Some(path) = self.find_leaf(self.root, id, p, &mut Vec::new()) else {
            return false;
        };
        let Some(&leaf) = path.last() else {
            return false;
        };
        let entries = self.nodes[leaf.index()].entries_mut();
        let Some(pos) = entries.iter().position(|e| {
            matches!(e.child(), Child::Item(i) if i == id) && e.point().same_location(p)
        }) else {
            // find_leaf guarantees a match; treat a miss as "not found".
            return false;
        };
        entries.remove(pos);
        self.len -= 1;
        self.condense(path);
        true
    }

    fn find_leaf(
        &self,
        node_id: NodeId,
        id: ItemId,
        p: &Point,
        path: &mut Vec<NodeId>,
    ) -> Option<Vec<NodeId>> {
        path.push(node_id);
        let node = self.node(node_id);
        if node.is_leaf() {
            let hit = node.entries().iter().any(|e| {
                matches!(e.child(), Child::Item(i) if i == id) && e.point().same_location(p)
            });
            if hit {
                return Some(path.clone());
            }
        } else {
            for e in node.entries() {
                if e.rect().contains_point(p) {
                    let Child::Node(child) = e.child() else {
                        continue;
                    };
                    if let Some(found) = self.find_leaf(child, id, p, path) {
                        return Some(found);
                    }
                }
            }
        }
        path.pop();
        None
    }

    fn condense(&mut self, mut path: Vec<NodeId>) {
        let mut orphans: Vec<(u32, Entry)> = Vec::new();
        while let Some(node_id) = path.pop() {
            if node_id == self.root {
                break;
            }
            let node = self.node(node_id);
            if node.len() < self.config.min_entries {
                let level = node.level();
                // A non-root node always has a parent on the path.
                let Some(&parent) = path.last() else { break };
                let parent_entries = self.nodes[parent.index()].entries_mut();
                if let Some(pos) = parent_entries
                    .iter()
                    .position(|e| e.child() == Child::Node(node_id))
                {
                    parent_entries.remove(pos);
                }
                for e in self.nodes[node_id.index()].take_entries() {
                    orphans.push((level, e));
                }
                self.free.push(node_id);
            } else {
                self.fix_parent_rect(&path, node_id);
            }
        }
        // Fix rectangles on the remaining path up to the root.
        self.fix_path_rects_full();

        // Shrink the root while it is an inner node with a single child.
        while !self.node(self.root).is_leaf() && self.node(self.root).len() == 1 {
            let child = self.node(self.root).entries().first().map(|e| e.child());
            let Some(Child::Node(child)) = child else {
                break;
            };
            self.free.push(self.root);
            self.root = child;
            self.height -= 1;
        }
        // An inner root with zero entries can only arise when the tree
        // emptied completely; reset to a fresh leaf.
        if self.node(self.root).is_empty() && !self.node(self.root).is_leaf() {
            self.free.push(self.root);
            let leaf = self.alloc(Node::new(0));
            self.root = leaf;
            self.height = 1;
        }

        // Reinsert orphans at their original levels (deepest first so
        // inner-node orphans find a tall-enough tree).
        orphans.sort_by_key(|(level, _)| std::cmp::Reverse(*level));
        for (level, entry) in orphans {
            let mut reinserted = vec![true; self.height as usize]; // no forced reinsert here
            let level = level.min(self.height - 1);
            self.insert_entry(entry, level, &mut reinserted);
        }
    }

    /// Recomputes every inner rectangle (used after structural surgery).
    fn fix_path_rects_full(&mut self) {
        // Cheap full fix: recompute all inner entries bottom-up by level.
        let max_level = self.node(self.root).level();
        for level in 1..=max_level {
            let ids: Vec<NodeId> = (0..self.nodes.len() as u32)
                .map(NodeId)
                .filter(|id| {
                    !self.free.contains(id)
                        && self.nodes[id.index()].level() == level
                        && !self.nodes[id.index()].is_empty()
                })
                .collect();
            for id in ids {
                let fixes: Vec<(usize, Rect)> = self
                    .node(id)
                    .entries()
                    .iter()
                    .enumerate()
                    .filter_map(|(i, e)| match e.child() {
                        Child::Node(c) if !self.node(c).is_empty() => Some((i, self.node(c).mbr())),
                        _ => None,
                    })
                    .collect();
                for (i, rect) in fixes {
                    self.nodes[id.index()].entries_mut()[i].set_rect(rect);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// All items whose point lies inside `window` (boundary inclusive) —
    /// the paper's `window_query` primitive once the window is built with
    /// [`Rect::window`].
    pub fn window(&self, window: &Rect) -> Vec<(ItemId, Point)> {
        let mut out = Vec::new();
        into_ok(window_walk(
            self,
            window,
            &mut WindowScratch::new(),
            |id, p| {
                out.push((id, Point::from(p)));
                false
            },
        ));
        out
    }

    /// Whether any indexed point lies inside `window` (early-exit
    /// variant; the reverse-skyline membership test only needs emptiness).
    /// `skip` is invoked per candidate point and can exclude e.g. the
    /// customer's own tuple.
    pub fn window_any(&self, window: &Rect, mut skip: impl FnMut(ItemId, &[f64]) -> bool) -> bool {
        into_ok(window_walk(
            self,
            window,
            &mut WindowScratch::new(),
            |id, p| !skip(id, p),
        ))
    }

    /// All `(id, point)` pairs in the tree, in arbitrary order.
    pub fn items(&self) -> Vec<(ItemId, Point)> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each_item(|id, p| out.push((id, p.clone())));
        out
    }

    /// Visits every `(id, point)` pair in the tree, in arbitrary order,
    /// without materialising an intermediate collection. The streaming
    /// form of [`RTree::items`] for callers that scatter the points into
    /// their own storage (e.g. a dense flat table keyed by item id).
    pub fn for_each_item(&self, mut f: impl FnMut(ItemId, &Point)) {
        if self.is_empty() {
            return;
        }
        let mut stack = vec![self.root];
        while let Some(node_id) = stack.pop() {
            let node = self.node(node_id);
            if node.is_leaf() {
                for e in node.entries() {
                    f(e.item_id(), e.point());
                }
            } else {
                for e in node.entries() {
                    if let Child::Node(child) = e.child() {
                        stack.push(child);
                    }
                }
            }
        }
    }

    /// Whether an exact `(id, point)` entry exists.
    pub fn contains(&self, id: ItemId, p: &Point) -> bool {
        self.find_leaf(self.root, id, p, &mut Vec::new()).is_some()
    }
}

impl NodeSource for RTree {
    type NodeRef = NodeId;
    type Node = Node;
    type Buf = ();
    type Error = Infallible;

    fn dim(&self) -> usize {
        self.dim
    }

    fn root_node(&self) -> Option<(NodeId, u32)> {
        (!self.is_empty()).then_some((self.root, self.height - 1))
    }

    /// Lends the arena node in place and records one node visit.
    fn read_node<'a>(
        &'a self,
        node: NodeId,
        level: u32,
        _buf: &'a mut (),
    ) -> Result<&'a Node, Infallible> {
        self.record_visit();
        let node = self.node(node);
        debug_assert_eq!(node.level(), level, "arena node off its level");
        Ok(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::check_structure;

    fn build(n: usize, max_entries: usize) -> (RTree, Vec<Point>) {
        // Deterministic pseudo-random points via an LCG.
        let mut tree = RTree::new(2, RTreeConfig::with_max_entries(max_entries));
        let mut pts = Vec::new();
        let mut state: u64 = 0x2545F4914F6CDD1D;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for i in 0..n {
            let p = Point::xy(next() * 100.0, next() * 100.0);
            tree.insert(ItemId(i as u32), p.clone());
            pts.push(p);
        }
        (tree, pts)
    }

    #[test]
    fn insert_and_len() {
        let (tree, _) = build(100, 8);
        assert_eq!(tree.len(), 100);
        assert!(tree.height() > 1, "100 points with fanout 8 must split");
        check_structure(&tree).expect("valid structure");
    }

    #[test]
    fn window_matches_linear_scan() {
        let (tree, pts) = build(500, 8);
        let windows = [
            Rect::new(Point::xy(10.0, 10.0), Point::xy(40.0, 60.0)),
            Rect::new(Point::xy(0.0, 0.0), Point::xy(100.0, 100.0)),
            Rect::new(Point::xy(99.0, 99.0), Point::xy(99.5, 99.5)),
            Rect::degenerate(pts[7].clone()),
        ];
        for w in &windows {
            let mut got: Vec<u32> = tree.window(w).iter().map(|(id, _)| id.0).collect();
            got.sort_unstable();
            let mut want: Vec<u32> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| w.contains_point(p))
                .map(|(i, _)| i as u32)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "window {w:?}");
        }
    }

    #[test]
    fn window_any_early_exit_and_skip() {
        let (tree, pts) = build(200, 8);
        let everything = Rect::new(Point::xy(0.0, 0.0), Point::xy(100.0, 100.0));
        assert!(tree.window_any(&everything, |_, _| false));
        // Skipping every item means nothing matches.
        assert!(!tree.window_any(&everything, |_, _| true));
        // Window containing exactly pts[0], skipping id 0.
        let w = Rect::degenerate(pts[0].clone());
        assert!(!tree.window_any(&w, |id, _| id == ItemId(0)));
    }

    #[test]
    fn empty_tree_queries() {
        let tree = RTree::new(2, RTreeConfig::with_max_entries(8));
        let w = Rect::new(Point::xy(0.0, 0.0), Point::xy(1.0, 1.0));
        assert!(tree.window(&w).is_empty());
        assert!(!tree.window_any(&w, |_, _| false));
        assert!(tree.mbr().is_none());
        assert_eq!(tree.items().len(), 0);
    }

    #[test]
    fn duplicates_are_kept() {
        let mut tree = RTree::new(2, RTreeConfig::with_max_entries(4));
        for i in 0..20 {
            tree.insert(ItemId(i), Point::xy(5.0, 5.0));
        }
        assert_eq!(tree.len(), 20);
        let w = Rect::degenerate(Point::xy(5.0, 5.0));
        assert_eq!(tree.window(&w).len(), 20);
        check_structure(&tree).expect("valid with duplicates");
    }

    #[test]
    fn contains_finds_exact_entries() {
        let (tree, pts) = build(100, 8);
        assert!(tree.contains(ItemId(42), &pts[42]));
        assert!(!tree.contains(ItemId(42), &pts[43]));
        assert!(!tree.contains(ItemId(999), &pts[42]));
    }

    #[test]
    fn delete_removes_and_preserves_structure() {
        let (mut tree, pts) = build(300, 8);
        for i in (0..300).step_by(2) {
            assert!(tree.delete(ItemId(i as u32), &pts[i]), "delete {i}");
        }
        assert_eq!(tree.len(), 150);
        check_structure(&tree).expect("valid after deletes");
        // Deleted gone, survivors present.
        assert!(!tree.contains(ItemId(0), &pts[0]));
        assert!(tree.contains(ItemId(1), &pts[1]));
        // Window still agrees with a scan of the survivors.
        let w = Rect::new(Point::xy(0.0, 0.0), Point::xy(50.0, 50.0));
        let mut got: Vec<u32> = tree.window(&w).iter().map(|(id, _)| id.0).collect();
        got.sort_unstable();
        let mut want: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(i, p)| i % 2 == 1 && w.contains_point(p))
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn delete_everything_then_reuse() {
        let (mut tree, pts) = build(100, 6);
        for (i, p) in pts.iter().enumerate() {
            assert!(tree.delete(ItemId(i as u32), p));
        }
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
        // The tree remains usable.
        tree.insert(ItemId(0), Point::xy(1.0, 1.0));
        assert_eq!(tree.len(), 1);
        check_structure(&tree).expect("valid after full churn");
    }

    #[test]
    fn delete_missing_returns_false() {
        let (mut tree, pts) = build(50, 8);
        assert!(!tree.delete(ItemId(999), &pts[0]));
        assert_eq!(tree.len(), 50);
    }

    #[test]
    fn visits_counted_and_resettable() {
        let (tree, _) = build(500, 8);
        tree.reset_visits();
        let w = Rect::new(Point::xy(0.0, 0.0), Point::xy(100.0, 100.0));
        let _ = tree.window(&w);
        let full = tree.node_visits();
        assert!(
            full as usize >= tree.node_count(),
            "full scan visits all nodes"
        );
        tree.reset_visits();
        let _ = tree.window(&Rect::new(Point::xy(0.0, 0.0), Point::xy(1.0, 1.0)));
        assert!(
            tree.node_visits() < full,
            "selective window visits fewer nodes"
        );
    }

    #[test]
    fn three_dimensional_round_trip() {
        let mut tree = RTree::new(3, RTreeConfig::with_max_entries(8));
        let pts: Vec<Point> = (0..200)
            .map(|i| {
                let f = i as f64;
                Point::new(vec![
                    f.sin() * 50.0 + 50.0,
                    f.cos() * 50.0 + 50.0,
                    (f * 0.37) % 100.0,
                ])
            })
            .collect();
        for (i, p) in pts.iter().enumerate() {
            tree.insert(ItemId(i as u32), p.clone());
        }
        check_structure(&tree).expect("valid 3-d tree");
        let w = Rect::new(Point::new(vec![0.0; 3]), Point::new(vec![100.0; 3]));
        assert_eq!(tree.window(&w).len(), 200);
    }

    #[test]
    fn paper_page_config_builds() {
        let mut tree = RTree::with_paper_pages(2);
        for i in 0..2000 {
            let f = i as f64;
            tree.insert(
                ItemId(i as u32),
                Point::xy((f * 13.7) % 100.0, (f * 7.3) % 100.0),
            );
        }
        assert_eq!(tree.len(), 2000);
        check_structure(&tree).expect("valid paper-config tree");
        assert!(tree.height() >= 2);
    }
}
