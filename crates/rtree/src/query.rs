//! The best-first frontier and nearest-neighbour search.
//!
//! [`Frontier`] is the min-heap every best-first walk pops from: k-NN
//! search here, and over either node source the BBS skylines and BBRS's
//! global skyline.

use crate::node::{Child, ItemId, NodeId};
use crate::source::{into_ok, NodeSource, NodeView};
use crate::tree::RTree;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use wnrs_geometry::rect::box_min_dist2;
use wnrs_geometry::{cmp_f64, Point};

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
        wnrs_obs::record(wnrs_obs::Counter::HeapPushes);
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

/// An entry of the k-NN frontier: a node with its level, or an item
/// with the offset of its coordinates in the walk's flat arena.
enum Slot {
    Node(NodeId, u32),
    Item(ItemId, usize),
}

/// The `k` nearest neighbours of `q` by Euclidean distance, nearest
/// first. Ties broken by traversal order.
///
/// # Examples
///
/// ```
/// use wnrs_geometry::Point;
/// use wnrs_rtree::{bulk::bulk_load, knn, RTreeConfig};
///
/// let pts = vec![Point::xy(0.0, 0.0), Point::xy(5.0, 5.0), Point::xy(1.0, 1.0)];
/// let tree = bulk_load(&pts, RTreeConfig::with_max_entries(8));
/// let order: Vec<u32> = knn(&tree, &Point::xy(0.0, 0.0), 3)
///     .iter()
///     .map(|(id, _)| id.0)
///     .collect();
/// assert_eq!(order, vec![0, 2, 1]);
/// ```
pub fn knn(tree: &RTree, q: &Point, k: usize) -> Vec<(ItemId, Point)> {
    assert_eq!(q.dim(), tree.dim(), "query dimensionality mismatch");
    let d = q.dim();
    let mut out = Vec::with_capacity(k);
    // lint:allow(hot_path_alloc) reason=per-query arena of pushed item coordinates, not per-entry
    let mut coords = Vec::new();
    let mut heap = Frontier::default();
    // The root pops first, alone on the frontier: its key is never
    // compared.
    if let Some((root, level)) = tree.root_node() {
        heap.push(0.0, Slot::Node(root, level));
    }
    while out.len() < k {
        match heap.pop() {
            Some((_, Slot::Node(node, level))) => {
                for (child, lo, hi) in into_ok(tree.read_node(node, level, &mut ())).iter() {
                    let key = box_min_dist2(lo, hi, q.coords());
                    match child {
                        Child::Node(child) => heap.push(key, Slot::Node(child, level - 1)),
                        Child::Item(id) => {
                            heap.push(key, Slot::Item(id, coords.len()));
                            coords.extend_from_slice(lo);
                        }
                    }
                }
            }
            Some((_, Slot::Item(id, at))) => out.push((id, Point::from(&coords[at..at + d]))),
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
    fn knn_yields_nearest_first() {
        let points = pts(300);
        let tree = bulk_load(&points, RTreeConfig::with_max_entries(8));
        let q = Point::xy(50.0, 50.0);
        let all = knn(&tree, &q, points.len());
        assert_eq!(all.len(), 300);
        let mut ids: Vec<u32> = all.iter().map(|(id, _)| id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 300, "every item comes out once");
        for pair in all.windows(2) {
            assert!(
                pair[0].1.dist2(&q) <= pair[1].1.dist2(&q),
                "items must come out in non-decreasing distance order"
            );
        }
        for (id, p) in &all {
            assert!(p.same_location(&points[id.0 as usize]));
        }
    }

    #[test]
    fn knn_visits_fewer_nodes_than_the_tree_holds() {
        let points = pts(300);
        let tree = bulk_load(&points, RTreeConfig::with_max_entries(8));
        tree.reset_visits();
        let got = knn(&tree, &Point::xy(0.0, 0.0), 5);
        assert_eq!(got.len(), 5);
        assert!((tree.node_visits() as usize) < tree.node_count());
    }
}
