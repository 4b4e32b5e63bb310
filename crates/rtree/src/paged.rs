//! A page-resident, read-only R\*-tree view.
//!
//! [`crate::persist`] materialises a persisted tree back into an arena;
//! [`PagedRTree`] instead serves the index walks *directly from the
//! pages*: as a [`NodeSource`] it pulls each node through an LRU
//! [`BufferPool`] and decodes it into a caller-owned [`NodeBuf`]. This
//! is how the paper's testbed actually executes — index traffic goes
//! through the buffer manager — and it makes the logical/physical I/O
//! split measurable: `pool().stats()` reports hits/misses while queries
//! run with bounded memory.

use crate::config::node_capacity;
use crate::node::{Child, ItemId};
use crate::persist::{read_meta, Meta, PersistError, ITEM_TAG};
use crate::source::{NodeSource, NodeView};
use wnrs_storage::{BufferPool, Decoder, PageId, Pager};

/// A reusable, allocation-free decode target for one node page:
/// children stay raw tagged ids, coordinates one flat `lo‖hi` buffer per
/// entry. Reusing it across reads keeps a whole walk at zero
/// steady-state allocations.
#[derive(Debug, Default)]
pub struct NodeBuf {
    dim: usize,
    /// Tagged child ids: high bit set = item, clear = child page.
    children: Vec<u64>,
    /// `2·dim` coordinates per entry: `lo` then `hi`.
    coords: Vec<f64>,
}

impl NodeBuf {
    /// An empty buffer (filled by node reads).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes the node page `bytes` of a `dim`-dimensional tree into
    /// `self`, reusing its allocations. Rejects a page whose level is
    /// not `level`, whose entry count exceeds what the page can hold,
    /// whose entry kinds disagree with its level (items exactly at
    /// level 0), or whose entry boxes are not finite with `lo ≤ hi`.
    pub(crate) fn decode(
        &mut self,
        bytes: &[u8],
        dim: usize,
        level: u32,
    ) -> Result<(), PersistError> {
        let corrupt = |what: String| Err(PersistError::Format(what));
        let mut dec = Decoder::new(bytes);
        let found = dec.get_u32()?;
        if found != level {
            return corrupt(format!("node at level {found}, expected level {level}"));
        }
        let count = dec.get_u32()? as usize;
        if count > node_capacity(bytes.len(), dim) {
            return corrupt(format!(
                "{count} entries overflow a {}-byte page",
                bytes.len()
            ));
        }
        self.dim = dim;
        self.children.clear();
        self.coords.clear();
        self.children.reserve(count);
        self.coords.reserve(count * 2 * dim);
        for _ in 0..count {
            let child = dec.get_u64()?;
            if (child & ITEM_TAG != 0) != (level == 0) {
                return corrupt(format!("entry kind does not match node level {level}"));
            }
            self.children.push(child);
            let lo = self.coords.len();
            for k in 0..2 * dim {
                let x = dec.get_f64()?;
                // Each `hi` coordinate (k ≥ dim) must not undercut its `lo`.
                if !x.is_finite() || (k >= dim && x < self.coords[lo + k - dim]) {
                    return corrupt("entry box not finite with lo ≤ hi".into());
                }
                self.coords.push(x);
            }
        }
        Ok(())
    }
}

impl NodeView<PageId> for NodeBuf {
    #[inline]
    fn get(&self, i: usize) -> Option<(Child<PageId>, &[f64], &[f64])> {
        let tagged = *self.children.get(i)?;
        let width = 2 * self.dim;
        let (lo, hi) = self
            .coords
            .get(width * i..width * (i + 1))?
            .split_at(self.dim);
        let child = if tagged & ITEM_TAG != 0 {
            Child::Item(ItemId((tagged & !ITEM_TAG) as u32))
        } else {
            Child::Node(PageId(tagged))
        };
        Some((child, lo, hi))
    }
}

/// A read-only R\*-tree whose nodes live in pages behind a buffer pool.
pub struct PagedRTree<P: Pager> {
    pool: BufferPool<P>,
    meta: Meta,
}

impl<P: Pager> PagedRTree<P> {
    /// Opens a tree previously written by [`crate::persist::save`],
    /// reading only the meta page eagerly.
    ///
    /// # Errors
    ///
    /// Returns an error when the meta page cannot be read, or is not a
    /// tree's meta page whose entries fit this pager's pages.
    pub fn open(pool: BufferPool<P>, meta_page: PageId) -> Result<Self, PersistError> {
        let meta = read_meta(pool.read(meta_page)?.bytes())?;
        Ok(Self { pool, meta })
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.meta.len
    }

    /// Whether the tree holds no points.
    pub fn is_empty(&self) -> bool {
        self.meta.len == 0
    }

    /// Tree height.
    pub fn height(&self) -> u32 {
        self.meta.height
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.meta.dim
    }

    /// The buffer pool (its stats expose logical/physical I/O).
    pub fn pool(&self) -> &BufferPool<P> {
        &self.pool
    }
}

impl<P: Pager> NodeSource for PagedRTree<P> {
    type NodeRef = PageId;
    type Node = NodeBuf;
    type Buf = NodeBuf;
    type Error = PersistError;

    fn dim(&self) -> usize {
        self.meta.dim
    }

    fn root_node(&self) -> Option<(PageId, u32)> {
        (!self.is_empty()).then_some((self.meta.root, self.meta.height - 1))
    }

    /// Reads the page through the pool (one logical read) and decodes
    /// it into `buf`.
    fn read_node<'a>(
        &'a self,
        page: PageId,
        level: u32,
        buf: &'a mut NodeBuf,
    ) -> Result<&'a NodeBuf, PersistError> {
        buf.decode(self.pool.read(page)?.bytes(), self.meta.dim, level)?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::bulk_load;
    use crate::config::RTreeConfig;
    use crate::persist::save;
    use crate::source::{window_walk, WindowScratch};
    use std::sync::Arc;
    use wnrs_geometry::{Point, Rect};
    use wnrs_storage::MemPager;

    /// The ids of the items inside `w`, through the shared window walk.
    fn window_ids(paged: &PagedRTree<MemPager>, w: &Rect) -> Vec<u32> {
        let mut ids = Vec::new();
        window_walk(paged, w, &mut WindowScratch::new(), |id, _| {
            ids.push(id.0);
            false
        })
        .expect("query");
        ids
    }

    fn pts(n: usize) -> Vec<Point> {
        let mut state: u64 = 77;
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

    fn setup(n: usize, pool_pages: usize) -> (Vec<Point>, PagedRTree<MemPager>) {
        let points = pts(n);
        let tree = bulk_load(&points, RTreeConfig::paper_default(2));
        let pager = Arc::new(MemPager::paper_default());
        let meta = save(&tree, pager.as_ref()).expect("save");
        let pool = BufferPool::new(pager, pool_pages);
        let paged = PagedRTree::open(pool, meta).expect("open");
        (points, paged)
    }

    #[test]
    fn window_matches_scan_through_pages() {
        let (points, paged) = setup(2000, 64);
        assert_eq!(paged.len(), 2000);
        let windows = [
            Rect::new(Point::xy(10.0, 10.0), Point::xy(35.0, 70.0)),
            Rect::new(Point::xy(0.0, 0.0), Point::xy(100.0, 100.0)),
            Rect::degenerate(points[11].clone()),
        ];
        for w in &windows {
            let mut got = window_ids(&paged, w);
            got.sort_unstable();
            let mut want: Vec<u32> = points
                .iter()
                .enumerate()
                .filter(|(_, p)| w.contains_point(p))
                .map(|(i, _)| i as u32)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
            let any = window_walk(&paged, w, &mut WindowScratch::new(), |_, _| true);
            assert_eq!(any.expect("query"), !want.is_empty());
        }
    }

    #[test]
    fn buffer_pool_caches_hot_paths() {
        let (_, paged) = setup(5000, 256);
        let w = Rect::new(Point::xy(40.0, 40.0), Point::xy(45.0, 45.0));
        let _ = window_ids(&paged, &w);
        let cold_miss = paged.pool().stats().physical_reads();
        for _ in 0..10 {
            let _ = window_ids(&paged, &w);
        }
        let warm_miss = paged.pool().stats().physical_reads();
        assert_eq!(
            cold_miss, warm_miss,
            "repeated identical query must be all hits"
        );
        assert!(paged.pool().stats().hit_rate().expect("reads") > 0.8);
    }

    #[test]
    fn bounded_memory_under_tiny_pool() {
        // A 4-page pool forces eviction yet answers stay exact.
        let (points, paged) = setup(3000, 4);
        let w = Rect::new(Point::xy(0.0, 0.0), Point::xy(100.0, 100.0));
        let got = window_ids(&paged, &w);
        assert_eq!(got.len(), points.len());
        assert!(paged.pool().resident() <= 4);
    }

    #[test]
    fn bad_meta_rejected() {
        let pager = Arc::new(MemPager::paper_default());
        let id = pager.allocate();
        let pool = BufferPool::new(pager, 8);
        assert!(PagedRTree::open(pool, id).is_err());
    }
}
