//! Nodes and entries of the R\*-tree arena.

use crate::source::NodeView;
use wnrs_geometry::{Point, Rect};

/// Identifier of a data item (index into the caller's dataset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ItemId(pub u32);

/// Identifier of a node in the tree's arena.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The payload an entry points at: a child node (inner levels) or a data
/// item (leaves). `N` addresses the child node: a [`NodeId`] in the
/// arena, a page id in a page-resident tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Child<N = NodeId> {
    /// Subtree rooted at the given node.
    Node(N),
    /// A data point.
    Item(ItemId),
}

/// One slot of a node: a bounding rectangle plus what it bounds. For leaf
/// entries the rectangle is degenerate (the point itself).
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    rect: Rect,
    child: Child,
}

impl Entry {
    /// An inner entry bounding `child`'s subtree.
    #[must_use]
    pub fn node(rect: Rect, child: NodeId) -> Self {
        Self {
            rect,
            child: Child::Node(child),
        }
    }

    /// A leaf entry for data point `p` with id `id`.
    #[must_use]
    pub fn item(id: ItemId, p: Point) -> Self {
        Self {
            rect: Rect::degenerate(p),
            child: Child::Item(id),
        }
    }

    /// The entry's bounding rectangle.
    #[inline]
    pub fn rect(&self) -> &Rect {
        &self.rect
    }

    /// The entry's payload.
    #[inline]
    pub fn child(&self) -> Child {
        self.child
    }

    /// For a leaf entry, the stored point (the rect's lower corner).
    ///
    /// # Panics
    ///
    /// Panics if called on an inner entry.
    pub fn point(&self) -> &Point {
        match self.child {
            Child::Item(_) => self.rect.lo(),
            // lint:allow(no_panic) reason=documented API contract; no point exists for an inner entry
            Child::Node(_) => panic!("point() called on an inner entry"),
        }
    }

    /// For a leaf entry, the item id.
    ///
    /// # Panics
    ///
    /// Panics if called on an inner entry.
    pub fn item_id(&self) -> ItemId {
        match self.child {
            Child::Item(id) => id,
            // lint:allow(no_panic) reason=documented API contract; inner entries carry no item id
            Child::Node(_) => panic!("item_id() called on an inner entry"),
        }
    }

    pub(crate) fn set_rect(&mut self, rect: Rect) {
        self.rect = rect;
    }
}

/// A node of the tree. `level == 0` for leaves; the root is the unique
/// node at `level == height − 1`.
#[derive(Debug, Clone)]
pub struct Node {
    level: u32,
    entries: Vec<Entry>,
}

impl Node {
    /// An empty node at the given level.
    #[must_use]
    pub fn new(level: u32) -> Self {
        Self {
            level,
            entries: Vec::new(),
        }
    }

    /// A node with the given entries.
    #[must_use]
    pub fn with_entries(level: u32, entries: Vec<Entry>) -> Self {
        Self { level, entries }
    }

    /// The node's level (0 = leaf).
    #[inline]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Whether this is a leaf node.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// The node's entries.
    #[inline]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the node has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Minimum bounding rectangle of all entries.
    ///
    /// # Panics
    ///
    /// Panics on an empty node (an empty node has no extent; only a
    /// freshly created root may be empty and it is never asked for an
    /// MBR).
    pub fn mbr(&self) -> Rect {
        let mut it = self.entries.iter();
        // lint:allow(no_panic) reason=documented API contract; an empty node has no extent
        let first = it.next().expect("mbr of empty node").rect().clone();
        it.fold(first, |acc, e| acc.union_mbr(e.rect()))
    }

    pub(crate) fn entries_mut(&mut self) -> &mut Vec<Entry> {
        &mut self.entries
    }

    pub(crate) fn push(&mut self, e: Entry) {
        self.entries.push(e);
    }

    pub(crate) fn take_entries(&mut self) -> Vec<Entry> {
        std::mem::take(&mut self.entries)
    }
}

impl NodeView<NodeId> for Node {
    #[inline]
    fn get(&self, i: usize) -> Option<(Child, &[f64], &[f64])> {
        let e = self.entries.get(i)?;
        Some((e.child, e.rect.lo().coords(), e.rect.hi().coords()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_entry_accessors() {
        let e = Entry::item(ItemId(3), Point::xy(1.0, 2.0));
        assert_eq!(e.item_id(), ItemId(3));
        assert!(e.point().same_location(&Point::xy(1.0, 2.0)));
        assert_eq!(e.rect().area(), 0.0);
    }

    #[test]
    #[should_panic(expected = "inner entry")]
    fn point_on_inner_entry_panics() {
        let r = Rect::new(Point::xy(0.0, 0.0), Point::xy(1.0, 1.0));
        let e = Entry::node(r, NodeId(0));
        let _ = e.point();
    }

    #[test]
    fn node_mbr_covers_entries() {
        let mut n = Node::new(0);
        n.push(Entry::item(ItemId(0), Point::xy(1.0, 5.0)));
        n.push(Entry::item(ItemId(1), Point::xy(4.0, 2.0)));
        let mbr = n.mbr();
        assert_eq!(mbr, Rect::new(Point::xy(1.0, 2.0), Point::xy(4.0, 5.0)));
        assert!(n.is_leaf());
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn level_semantics() {
        assert!(Node::new(0).is_leaf());
        assert!(!Node::new(1).is_leaf());
    }
}
