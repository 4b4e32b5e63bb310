//! Persistence: one node per storage page.
//!
//! Serialises a tree into a [`Pager`] so fan-out really is bounded by the
//! page size, and loads it back. Layout:
//!
//! * **meta page** — magic, dim, height, len, root page id, config;
//! * **node pages** — header (`level: u32`, `count: u32`) followed by
//!   `count` entries of (`tagged child id: u64`, `lo`, `hi` coordinates).
//!   The high bit of the child id tags items (set) vs child nodes
//!   (clear); child nodes are referenced by their *page* id.

use crate::config::{node_capacity, RTreeConfig};
use crate::node::{Child, Entry, Node, NodeId};
use crate::paged::NodeBuf;
use crate::source::NodeView;
use crate::tree::RTree;
use std::collections::HashMap;
use std::fmt;
use wnrs_geometry::{Point, Rect};
use wnrs_storage::{Decoder, Encoder, Page, PageId, Pager};

pub(crate) const MAGIC: u64 = 0x524E_5753_5254_5245; // "WNRS RTRE"
pub(crate) const ITEM_TAG: u64 = 1 << 63;

/// Persistence failure.
#[derive(Debug)]
pub enum PersistError {
    /// The page store failed.
    Pager(wnrs_storage::pager::PagerError),
    /// A node did not fit in a page, or a page was malformed.
    Format(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Pager(e) => write!(f, "pager error: {e}"),
            PersistError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<wnrs_storage::pager::PagerError> for PersistError {
    fn from(e: wnrs_storage::pager::PagerError) -> Self {
        PersistError::Pager(e)
    }
}

impl From<wnrs_storage::codec::CodecError> for PersistError {
    fn from(e: wnrs_storage::codec::CodecError) -> Self {
        PersistError::Format(e.to_string())
    }
}

/// Writes `tree` to `pager`, returning the meta page id.
pub fn save<P: Pager>(tree: &RTree, pager: &P) -> Result<PageId, PersistError> {
    let dim = tree.dim();
    check_fits(tree.config(), dim, pager.page_size())?;

    // Assign a page to every reachable node (pre-order).
    let meta_page = pager.allocate();
    let mut page_of: HashMap<NodeId, PageId> = HashMap::new();
    let mut order = Vec::new();
    let mut stack = vec![tree.root()];
    while let Some(id) = stack.pop() {
        let page = pager.allocate();
        page_of.insert(id, page);
        order.push(id);
        let node = tree.node(id);
        if !node.is_leaf() {
            for e in node.entries() {
                if let Child::Node(c) = e.child() {
                    stack.push(c);
                }
            }
        }
    }
    for id in order {
        write_node(pager, page_of[&id], tree.node(id), dim, |n| page_of[&n].0)?;
    }
    let root = page_of[&tree.root()];
    write_meta(
        pager,
        meta_page,
        dim,
        tree.height(),
        tree.len(),
        root,
        tree.config(),
    )?;
    Ok(meta_page)
}

/// Rejects a configuration whose full nodes do not fit one page.
pub(crate) fn check_fits(
    config: &RTreeConfig,
    dim: usize,
    page_size: usize,
) -> Result<(), PersistError> {
    if config.max_entries > node_capacity(page_size, dim) {
        return Err(PersistError::Format(format!(
            "{} entries of dimension {dim} overflow {page_size}-byte pages",
            config.max_entries
        )));
    }
    Ok(())
}

/// Serialises one node page, with `child_page` mapping `NodeId`s to
/// page ids.
pub(crate) fn write_node<P: Pager>(
    pager: &P,
    page_id: PageId,
    node: &Node,
    dim: usize,
    child_page: impl Fn(NodeId) -> u64,
) -> Result<(), PersistError> {
    let mut page = Page::zeroed(pager.page_size());
    {
        let mut enc = Encoder::new(page.bytes_mut());
        enc.put_u32(node.level())?;
        enc.put_u32(node.len() as u32)?;
        for e in node.entries() {
            let child = match e.child() {
                Child::Item(item) => ITEM_TAG | item.0 as u64,
                Child::Node(n) => child_page(n),
            };
            enc.put_u64(child)?;
            for i in 0..dim {
                enc.put_f64(e.rect().lo()[i])?;
            }
            for i in 0..dim {
                enc.put_f64(e.rect().hi()[i])?;
            }
        }
    }
    pager.write_page(page_id, &page)?;
    Ok(())
}

/// Writes the meta page.
pub(crate) fn write_meta<P: Pager>(
    pager: &P,
    meta_page: PageId,
    dim: usize,
    height: u32,
    len: usize,
    root_page: PageId,
    config: &RTreeConfig,
) -> Result<(), PersistError> {
    let mut page = Page::zeroed(pager.page_size());
    {
        let mut enc = Encoder::new(page.bytes_mut());
        enc.put_u64(MAGIC)?;
        enc.put_u32(dim as u32)?;
        enc.put_u32(height)?;
        enc.put_u64(len as u64)?;
        enc.put_u64(root_page.0)?;
        enc.put_u32(config.max_entries as u32)?;
        enc.put_u32(config.min_entries as u32)?;
        enc.put_u32(config.reinsert_count as u32)?;
    }
    pager.write_page(meta_page, &page)?;
    Ok(())
}

/// The fields of a meta page.
pub(crate) struct Meta {
    pub(crate) dim: usize,
    pub(crate) height: u32,
    pub(crate) len: usize,
    pub(crate) root: PageId,
    pub(crate) config: RTreeConfig,
}

/// Decodes the meta page `bytes`, rejecting anything [`save`] cannot
/// have written: a bad magic, a zero height, an invalid configuration,
/// or a dimensionality at which not even one entry fits a page.
pub(crate) fn read_meta(bytes: &[u8]) -> Result<Meta, PersistError> {
    let mut dec = Decoder::new(bytes);
    if dec.get_u64()? != MAGIC {
        return Err(PersistError::Format("bad magic".into()));
    }
    let dim = dec.get_u32()? as usize;
    let height = dec.get_u32()?;
    let len = dec.get_u64()? as usize;
    let root = PageId(dec.get_u64()?);
    let config = RTreeConfig {
        max_entries: dec.get_u32()? as usize,
        min_entries: dec.get_u32()? as usize,
        reinsert_count: dec.get_u32()? as usize,
    };
    if dim == 0 || height == 0 || !config.is_valid() || node_capacity(bytes.len(), dim) == 0 {
        return Err(PersistError::Format("corrupt meta page".into()));
    }
    Ok(Meta {
        dim,
        height,
        len,
        root,
        config,
    })
}

/// Loads a tree previously written by [`save`].
///
/// # Errors
///
/// Returns an error when a page cannot be read or is malformed; node
/// pages are checked as [`crate::PagedRTree`] checks them, so a corrupt
/// child pointer cannot make the load loop.
pub fn load<P: Pager>(pager: &P, meta_page: PageId) -> Result<RTree, PersistError> {
    let meta = read_meta(pager.read_page(meta_page)?.bytes())?;
    let mut tree = RTree::new(meta.dim, meta.config);
    tree.nodes.clear();
    let mut node_of: HashMap<PageId, NodeId> = HashMap::new();
    let root = load_node(pager, meta.root, meta.height - 1, &mut tree, &mut node_of)?;
    tree.set_bulk_state(root, meta.height, meta.len);
    Ok(tree)
}

fn load_node<P: Pager>(
    pager: &P,
    page_id: PageId,
    level: u32,
    tree: &mut RTree,
    node_of: &mut HashMap<PageId, NodeId>,
) -> Result<NodeId, PersistError> {
    let mut buf = NodeBuf::new();
    buf.decode(pager.read_page(page_id)?.bytes(), tree.dim(), level)?;
    let mut entries = Vec::new();
    for (child, lo, hi) in buf.iter() {
        entries.push(match child {
            Child::Item(id) => Entry::item(id, Point::from(lo)),
            Child::Node(child_page) => {
                let child_node = match node_of.get(&child_page) {
                    Some(&n) => n,
                    None => load_node(pager, child_page, level - 1, tree, node_of)?,
                };
                Entry::node(Rect::new(Point::from(lo), Point::from(hi)), child_node)
            }
        });
    }
    tree.nodes.push(Node::with_entries(level, entries));
    let id = NodeId(tree.nodes.len() as u32 - 1);
    node_of.insert(page_id, id);
    Ok(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::bulk_load;
    use crate::node::ItemId;
    use crate::validate::check_structure;
    use wnrs_storage::MemPager;

    fn pts(n: usize) -> Vec<Point> {
        let mut state: u64 = 3;
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
    fn save_load_round_trip() {
        let points = pts(1000);
        let tree = bulk_load(&points, RTreeConfig::paper_default(2));
        let pager = MemPager::paper_default();
        let meta = save(&tree, &pager).expect("save");
        let loaded = load(&pager, meta).expect("load");
        assert_eq!(loaded.len(), tree.len());
        assert_eq!(loaded.height(), tree.height());
        check_structure(&loaded).expect("loaded tree valid");
        // Query equivalence.
        let w = Rect::new(Point::xy(20.0, 20.0), Point::xy(60.0, 80.0));
        let mut a: Vec<u32> = tree.window(&w).iter().map(|(id, _)| id.0).collect();
        let mut b: Vec<u32> = loaded.window(&w).iter().map(|(id, _)| id.0).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn page_count_reflects_node_count() {
        let points = pts(500);
        let tree = bulk_load(&points, RTreeConfig::paper_default(2));
        let pager = MemPager::paper_default();
        let _ = save(&tree, &pager).expect("save");
        assert_eq!(
            pager.page_count() as usize,
            tree.node_count() + 1,
            "nodes + meta"
        );
    }

    #[test]
    fn oversized_node_rejected() {
        let points = pts(100);
        // Fanout 64 needs 8 + 64·40 bytes > 1536.
        let tree = bulk_load(&points, RTreeConfig::with_max_entries(64));
        let pager = MemPager::paper_default();
        assert!(matches!(save(&tree, &pager), Err(PersistError::Format(_))));
    }

    #[test]
    fn bad_magic_rejected() {
        let pager = MemPager::paper_default();
        let id = pager.allocate();
        assert!(matches!(load(&pager, id), Err(PersistError::Format(_))));
    }

    #[test]
    fn single_point_round_trip() {
        let tree = bulk_load(&[Point::xy(3.5, 4.5)], RTreeConfig::paper_default(2));
        let pager = MemPager::paper_default();
        let meta = save(&tree, &pager).expect("save");
        let loaded = load(&pager, meta).expect("load");
        assert_eq!(loaded.len(), 1);
        assert!(loaded.contains(ItemId(0), &Point::xy(3.5, 4.5)));
    }
}
