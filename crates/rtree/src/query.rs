//! Best-first traversal and nearest-neighbour search.
//!
//! [`BestFirst`] is the priority-queue traversal of the arena tree used
//! by k-NN search and the static BBS skyline: entries are popped in
//! increasing order of a caller-supplied key on their bounding
//! rectangles, and the caller decides whether to expand each popped node
//! (which is what lets BBS prune dominated subtrees). [`Frontier`] is
//! the min-heap behind it, which the walks over either node source (the
//! BBS dynamic skyline, BBRS's global skyline) pop from as well.

use crate::node::{Child, ItemId, NodeId};
use crate::tree::RTree;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use wnrs_geometry::{cmp_f64, Point, Rect};

/// One element popped from a [`BestFirst`] traversal.
#[derive(Debug, Clone, PartialEq)]
pub enum Traversal {
    /// An inner or leaf node, not yet expanded.
    Node {
        /// The node's id (pass to [`BestFirst::expand`] to descend).
        id: NodeId,
        /// The node's level (0 = leaf).
        level: u32,
        /// The key of the node's bounding rectangle.
        key: f64,
        /// The node's bounding rectangle.
        rect: Rect,
    },
    /// A data point.
    Item {
        /// The item's id.
        id: ItemId,
        /// The point.
        point: Point,
        /// The key of the point's (degenerate) rectangle.
        key: f64,
    },
}

impl Traversal {
    /// The priority key of the element.
    pub fn key(&self) -> f64 {
        match self {
            Traversal::Node { key, .. } | Traversal::Item { key, .. } => *key,
        }
    }
}

enum Payload {
    Node(NodeId),
    Item(ItemId, Point),
}

/// The frontier of a best-first walk: a min-heap on `f64` keys that
/// pops the smallest key first and breaks ties by push order, so every
/// walk over it is deterministic. Each push counts one heap push in the
/// query statistics.
#[derive(Debug)]
pub struct Frontier<T> {
    heap: BinaryHeap<Ranked<T>>,
    seq: u64,
}

#[derive(Debug)]
struct Ranked<T> {
    key: f64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Ranked<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl<T> Eq for Ranked<T> {}
impl<T> PartialOrd for Ranked<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Ranked<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the smallest key pops first;
        // break ties by insertion order for determinism.
        cmp_f64(other.key, self.key).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> Default for Frontier<T> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T> Frontier<T> {
    /// Empties the frontier, keeping its allocation.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
    }

    /// Adds `item` under `key`.
    pub fn push(&mut self, key: f64, item: T) {
        wnrs_geometry::stats::record_heap_push();
        self.seq += 1;
        self.heap.push(Ranked {
            key,
            seq: self.seq,
            item,
        });
    }

    /// Removes the smallest-key item (the earliest pushed among equal
    /// keys), with its key.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.heap.pop().map(|r| (r.key, r.item))
    }
}

/// A best-first traversal of an [`RTree`] driven by a key function on
/// bounding rectangles.
///
/// # Examples
///
/// Nearest-first enumeration of all points:
///
/// ```
/// use wnrs_geometry::{cmp_f64, Point, Rect};
/// use wnrs_rtree::{bulk::bulk_load, BestFirst, RTreeConfig, Traversal};
///
/// let pts = vec![Point::xy(0.0, 0.0), Point::xy(5.0, 5.0), Point::xy(1.0, 1.0)];
/// let tree = bulk_load(&pts, RTreeConfig::with_max_entries(8));
/// let q = Point::xy(0.0, 0.0);
/// let mut bf = BestFirst::new(&tree, move |r: &Rect| r.min_dist2(&q));
/// let mut order = Vec::new();
/// while let Some(t) = bf.pop() {
///     match t {
///         Traversal::Node { id, .. } => bf.expand(id),
///         Traversal::Item { id, .. } => order.push(id.0),
///     }
/// }
/// assert_eq!(order, vec![0, 2, 1]);
/// ```
pub struct BestFirst<'a, K> {
    tree: &'a RTree,
    key: K,
    heap: Frontier<Payload>,
}

impl<'a, K: FnMut(&Rect) -> f64> BestFirst<'a, K> {
    /// Starts a traversal at the root.
    #[must_use]
    pub fn new(tree: &'a RTree, key: K) -> Self {
        let mut this = Self {
            tree,
            key,
            heap: Frontier::default(),
        };
        if !tree.is_empty() {
            let root = tree.root();
            let rect = tree.node(root).mbr();
            let k = (this.key)(&rect);
            this.heap.push(k, Payload::Node(root));
        }
        this
    }

    /// Pops the smallest-key element, or `None` when exhausted.
    pub fn pop(&mut self) -> Option<Traversal> {
        let (key, payload) = self.heap.pop()?;
        Some(match payload {
            Payload::Node(id) => {
                let node = self.tree.node(id);
                Traversal::Node {
                    id,
                    level: node.level(),
                    key,
                    rect: node.mbr(),
                }
            }
            Payload::Item(id, point) => Traversal::Item { id, point, key },
        })
    }

    /// Pushes the children of `node` onto the frontier (counts one node
    /// visit). Call after popping a `Traversal::Node` you decide not to
    /// prune.
    pub fn expand(&mut self, node: NodeId) {
        self.tree.record_visit();
        for e in self.tree.node(node).entries() {
            let k = (self.key)(e.rect());
            let payload = match e.child() {
                Child::Node(id) => Payload::Node(id),
                // lint:allow(hot_path_alloc) reason=owned Point required by the public Traversal API
                Child::Item(id) => Payload::Item(id, e.point().clone()),
            };
            self.heap.push(k, payload);
        }
    }
}

/// The `k` nearest neighbours of `q` by Euclidean distance, nearest
/// first. Ties broken by traversal order.
pub fn knn(tree: &RTree, q: &Point, k: usize) -> Vec<(ItemId, Point)> {
    assert_eq!(q.dim(), tree.dim(), "query dimensionality mismatch");
    // lint:allow(hot_path_alloc) reason=one query-point clone per knn call, not per candidate
    let q = q.clone();
    let mut bf = BestFirst::new(tree, move |r: &Rect| r.min_dist2(&q));
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        match bf.pop() {
            Some(Traversal::Node { id, .. }) => bf.expand(id),
            Some(Traversal::Item { id, point, .. }) => out.push((id, point)),
            None => break,
        }
    }
    out
}

/// The single nearest neighbour of `q`, or `None` for an empty tree.
pub fn nearest(tree: &RTree, q: &Point) -> Option<(ItemId, Point)> {
    knn(tree, q, 1).into_iter().next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::bulk_load;
    use crate::config::RTreeConfig;

    fn pts(n: usize) -> Vec<Point> {
        let mut state: u64 = 7;
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
    fn knn_matches_linear_scan() {
        let points = pts(500);
        let tree = bulk_load(&points, RTreeConfig::with_max_entries(8));
        let q = Point::xy(33.0, 66.0);
        for k in [1, 5, 20, 100] {
            let got: Vec<u32> = knn(&tree, &q, k).iter().map(|(id, _)| id.0).collect();
            let mut want: Vec<(f64, u32)> = points
                .iter()
                .enumerate()
                .map(|(i, p)| (p.dist2(&q), i as u32))
                .collect();
            want.sort_by(|a, b| a.0.total_cmp(&b.0));
            let want: Vec<u32> = want.into_iter().take(k).map(|(_, i)| i).collect();
            assert_eq!(got, want, "k = {k}");
        }
    }

    #[test]
    fn knn_with_k_larger_than_tree() {
        let points = pts(10);
        let tree = bulk_load(&points, RTreeConfig::with_max_entries(8));
        let got = knn(&tree, &Point::xy(0.0, 0.0), 100);
        assert_eq!(got.len(), 10);
    }

    #[test]
    fn nearest_on_empty_tree() {
        let tree = RTree::new(2, RTreeConfig::with_max_entries(8));
        assert!(nearest(&tree, &Point::xy(0.0, 0.0)).is_none());
    }

    #[test]
    fn best_first_yields_nondecreasing_keys() {
        let points = pts(300);
        let tree = bulk_load(&points, RTreeConfig::with_max_entries(8));
        let q = Point::xy(50.0, 50.0);
        let mut bf = BestFirst::new(&tree, move |r: &Rect| r.min_dist2(&q));
        let mut last_item_key = f64::NEG_INFINITY;
        let mut items = 0;
        while let Some(t) = bf.pop() {
            match t {
                Traversal::Node { id, key, .. } => {
                    // A node's key lower-bounds everything below it.
                    assert!(key >= 0.0);
                    bf.expand(id);
                }
                Traversal::Item { key, .. } => {
                    assert!(
                        key >= last_item_key - 1e-12,
                        "items must come out in non-decreasing key order"
                    );
                    last_item_key = key;
                    items += 1;
                }
            }
        }
        assert_eq!(items, 300);
    }

    #[test]
    fn pruning_skips_subtrees() {
        let points = pts(300);
        let tree = bulk_load(&points, RTreeConfig::with_max_entries(8));
        let q = Point::xy(0.0, 0.0);
        // Expand nothing beyond keys ≤ 1000: traversal must terminate
        // early and visit fewer nodes than a full walk.
        tree.reset_visits();
        let mut bf = BestFirst::new(&tree, move |r: &Rect| r.min_dist2(&q));
        let mut seen = 0usize;
        while let Some(t) = bf.pop() {
            if let Traversal::Node { id, key, .. } = t {
                if key <= 1000.0 {
                    bf.expand(id);
                }
            } else {
                seen += 1;
            }
        }
        assert!(seen < 300);
        assert!((tree.node_visits() as usize) < tree.node_count());
    }
}
