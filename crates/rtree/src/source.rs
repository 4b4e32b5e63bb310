//! One node-access interface over both node stores.
//!
//! BBS, BBRS and the paper's `window_query` only ever read a node's
//! entries — each entry's `lo`/`hi` corners and its child, an item or a
//! subtree. [`NodeSource`] is exactly that read: the in-memory
//! [`crate::RTree`] arena lends its nodes in place and cannot fail, the
//! page-resident [`crate::PagedRTree`] decodes a page from its buffer
//! pool into a caller-owned [`crate::paged::NodeBuf`] and can. Every
//! index walk is written once over this trait, so both stores visit the
//! same entries in the same order and give the same answers bit for bit;
//! a page-read failure simply leaves the walk through its `Result`.
//!
//! Every read names the level the caller expects: `height − 1` for the
//! root, the parent's level − 1 for a child. The paged store rejects a
//! page at any other level, so along every path levels strictly
//! decrease and no walk can loop on a corrupt child pointer.

use crate::node::{Child, ItemId, NodeId};
use std::convert::Infallible;
use wnrs_geometry::Rect;

/// A store of R-tree nodes that walks read one node at a time.
pub trait NodeSource {
    /// Address of a node within the store.
    type NodeRef: Copy + Default;
    /// A node as one read yields it.
    type Node: NodeView<Self::NodeRef>;
    /// Caller-owned space a read may decode into, reused across reads.
    type Buf: Default;
    /// Why a read can fail.
    type Error;

    /// Dimensionality of the indexed points.
    fn dim(&self) -> usize;

    /// The root node and its level (`height − 1`), or `None` when the
    /// store indexes no points.
    fn root_node(&self) -> Option<(Self::NodeRef, u32)>;

    /// Reads `node`, which the caller expects at `level`.
    ///
    /// # Errors
    ///
    /// Returns the store's error when the node cannot be read or is not
    /// a well-formed node at `level`.
    fn read_node<'a>(
        &'a self,
        node: Self::NodeRef,
        level: u32,
        buf: &'a mut Self::Buf,
    ) -> Result<&'a Self::Node, Self::Error>;
}

/// The entries of one node, as [`NodeSource::read_node`] yields them:
/// each entry's child with its box's `lo` and `hi` corners. Leaf entries
/// are items, whose corners both hold the point; entries of inner nodes
/// are child nodes.
pub trait NodeView<R> {
    /// Entry `i`, or `None` past the last entry.
    fn get(&self, i: usize) -> Option<(Child<R>, &[f64], &[f64])>;

    /// The entries in order.
    fn iter(&self) -> impl Iterator<Item = (Child<R>, &[f64], &[f64])> {
        (0..).map_while(move |i| self.get(i))
    }
}

/// The value of a walk over a store that cannot fail (the in-memory
/// arena, whose error type is [`Infallible`]).
pub fn into_ok<T>(r: Result<T, Infallible>) -> T {
    match r {
        Ok(v) => v,
        Err(never) => match never {},
    }
}

/// Reusable state of a window walk: the descent stack and the node
/// decode buffer. A walk that reuses one performs no allocation once
/// the stack has grown to the tree's needs.
#[derive(Debug, Default)]
pub struct WindowScratch<R = NodeId, B = ()> {
    stack: Vec<(R, u32)>,
    buf: B,
}

impl<R: Default, B: Default> WindowScratch<R, B> {
    /// An empty scratch; allocates lazily on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// The window walk: visits every item inside `window` (boundary
/// inclusive) depth-first, stopping at the first call of `visit` that
/// returns `true`. Returns whether one did.
///
/// # Errors
///
/// Returns the store's error when a node read fails.
///
/// # Panics
///
/// Panics if `window`'s dimensionality differs from the store's.
pub fn window_walk<S: NodeSource>(
    tree: &S,
    window: &Rect,
    scratch: &mut WindowScratch<S::NodeRef, S::Buf>,
    mut visit: impl FnMut(ItemId, &[f64]) -> bool,
) -> Result<bool, S::Error> {
    assert_eq!(window.dim(), tree.dim(), "window dimensionality mismatch");
    wnrs_obs::record(wnrs_obs::Counter::WindowQueries);
    let WindowScratch { stack, buf } = scratch;
    stack.clear();
    stack.extend(tree.root_node());
    while let Some((node, level)) = stack.pop() {
        for (child, lo, hi) in tree.read_node(node, level, buf)?.iter() {
            match child {
                Child::Item(id) => {
                    if window.contains_coords(lo) && visit(id, lo) {
                        return Ok(true);
                    }
                }
                Child::Node(child) => {
                    if window.intersects_coords(lo, hi) {
                        stack.push((child, level - 1));
                    }
                }
            }
        }
    }
    Ok(false)
}
