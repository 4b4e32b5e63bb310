//! Streaming STR bulk loading: out-of-core tree construction.
//!
//! [`bulk_load_stream`] packs a point stream of unknown (and possibly
//! huge) length directly into persisted pages — the [`crate::persist`]
//! format exactly — without ever holding the dataset in memory. Peak
//! memory is bounded by `run_capacity` buffered points plus one spill
//! page per sorted run plus the `O(n / fanout)` directory of upper-level
//! rectangles; the points themselves live on the spill pager between the
//! two passes.
//!
//! The construction is a textbook external sort grafted onto the
//! in-memory STR tiler so that the resulting tree is **structurally
//! identical** to `persist::save(bulk_load(points))`:
//!
//! 1. **Run formation** — points are buffered `run_capacity` at a time,
//!    stably sorted by their first coordinate ([`cmp_f64`], the same
//!    comparator the in-memory tiler uses) and spilled to the `spill`
//!    pager as fixed-width `(id, coords…)` records.
//! 2. **Merge + tile** — a k-way merge keyed on `(coord₀, run index)`
//!    replays the exact global stable sort (runs are consecutive input
//!    chunks, so among equal keys a lower run index means an earlier
//!    original position). The merged stream is cut into axis-0 slabs with
//!    the same integer arithmetic as the in-memory `tile_rec`, each slab
//!    is tiled in memory by the very same `tile_rec` on the remaining
//!    axes, and finished leaves are written out immediately. Upper levels
//!    reuse `tile` on the (small) list of child rectangles.
//!
//! The meta page is allocated first and written last, so a crash mid-load
//! leaves an unreadable (never a half-valid) tree.

use crate::bulk::{tile, tile_rec};
use crate::config::RTreeConfig;
use crate::node::{Entry, ItemId, Node, NodeId};
use crate::persist::{check_fits, write_meta, write_node, PersistError};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use wnrs_geometry::{cmp_f64, Point, Rect};
use wnrs_storage::{Decoder, Encoder, Page, PageId, Pager};

/// One spilled sorted run: its pages (in order) and record count.
struct Run {
    pages: Vec<PageId>,
    len: usize,
}

/// Bulk loads a point stream into `pager` in the [`crate::persist`]
/// on-page format, returning the meta page id (pass it to
/// [`crate::persist::load`] or [`crate::PagedRTree::open`]).
///
/// Item ids are assigned in stream order (`0..n`). The produced tree has
/// exactly the structure `persist::save(bulk_load(points))` would — node
/// levels, entry order and rectangles are bit-identical; only the page
/// numbering differs — while buffering at most `run_capacity` points at a
/// time. `spill` holds the sorted runs between the two passes and can be
/// discarded afterwards.
///
/// # Errors
///
/// Returns [`PersistError::Format`] when the stream is empty, when a node
/// of `config.max_entries` entries does not fit a page of `pager`, or
/// when a single record does not fit a page of `spill`.
///
/// # Panics
///
/// Panics on an invalid `config`, `dim == 0`, `run_capacity == 0`, or
/// mixed point dimensionality.
pub fn bulk_load_stream<P, S, I>(
    points: I,
    dim: usize,
    config: RTreeConfig,
    pager: &P,
    spill: &S,
    run_capacity: usize,
) -> Result<PageId, PersistError>
where
    P: Pager,
    S: Pager,
    I: IntoIterator<Item = Point>,
{
    assert!(config.is_valid(), "invalid R*-tree configuration");
    assert!(dim > 0, "dimension must be positive");
    assert!(run_capacity > 0, "run_capacity must be positive");
    check_fits(&config, dim, pager.page_size())?;
    let rec_bytes = record_bytes(dim);
    let rpp = spill.page_size() / rec_bytes;
    if rpp == 0 {
        return Err(PersistError::Format(format!(
            "spill record needs {rec_bytes} bytes but pages hold {}",
            spill.page_size()
        )));
    }

    // The meta page id is fixed up front (so callers can predict it) but
    // written only once the whole tree is on disk.
    let meta_page = pager.allocate();

    // Pass 1: form sorted runs.
    let mut runs: Vec<Run> = Vec::new();
    let mut buf: Vec<(u32, Point)> = Vec::new();
    let mut n = 0usize;
    for p in points {
        assert_eq!(p.dim(), dim, "mixed dimensionality at point {n}");
        buf.push((n as u32, p));
        n += 1;
        if buf.len() == run_capacity {
            runs.push(spill_run(spill, &mut buf, rpp, rec_bytes)?);
        }
    }
    if n == 0 {
        return Err(PersistError::Format(
            "bulk_load_stream requires at least one point".into(),
        ));
    }
    if runs.is_empty() && n <= config.max_entries {
        // Everything fits one leaf: the in-memory loader never sorts in
        // this case, so keep the original stream order.
        let entries: Vec<Entry> = buf
            .drain(..)
            .map(|(id, p)| Entry::item(ItemId(id), p))
            .collect();
        let node = Node::with_entries(0, entries);
        let root_page = pager.allocate();
        write_node(pager, root_page, &node, dim, |_| {
            // lint:allow(no_panic) reason=level-0 node; the child mapper is never consulted for item entries
            unreachable!("leaf has no node children")
        })?;
        write_meta(pager, meta_page, dim, 1, n, root_page, &config)?;
        return Ok(meta_page);
    }
    if !buf.is_empty() {
        runs.push(spill_run(spill, &mut buf, rpp, rec_bytes)?);
    }

    // Pass 2: merge the runs back in globally sorted order and tile.
    let mut merge = Merge::new(spill, runs, dim, rpp, rec_bytes)?;
    let max_entries = config.max_entries;
    let k = n.div_ceil(max_entries);
    let mut current: Vec<(PageId, Rect)> = Vec::with_capacity(k);
    if k <= 1 {
        // One leaf, original order: undo the sort via the stream ids.
        let mut entries: Vec<(u32, Point)> = Vec::with_capacity(n);
        while let Some(rec) = merge.next()? {
            entries.push(rec);
        }
        entries.sort_unstable_by_key(|(id, _)| *id);
        let group: Vec<Entry> = entries
            .into_iter()
            .map(|(id, p)| Entry::item(ItemId(id), p))
            .collect();
        write_leaf_group(pager, group, &mut current, dim)?;
    } else if dim == 1 {
        // `tile_rec` at axis 0 == dim−1 falls straight to `chunk_even`;
        // the merged stream is already in its (stable-sorted) order.
        let mut start = 0usize;
        for i in 0..k {
            let end = (n * (i + 1)) / k;
            let group = take_entries(&mut merge, end - start)?;
            write_leaf_group(pager, group, &mut current, dim)?;
            start = end;
        }
    } else {
        // Mirror `tile_rec(entries, 0, dim, k)`: slab the sorted stream
        // along axis 0, then hand each (memory-sized) slab to the
        // in-memory tiler for the remaining axes.
        let s = ((k as f64).powf(1.0 / dim as f64).ceil() as usize).clamp(1, k);
        let mut consumed_nodes = 0usize;
        let mut consumed_entries = 0usize;
        for slab in 0..s {
            let nodes_here = (k * (slab + 1)) / s - consumed_nodes;
            if nodes_here == 0 {
                continue;
            }
            let target_end = (n * (consumed_nodes + nodes_here)) / k;
            let take = target_end - consumed_entries;
            let slab_entries = take_entries(&mut merge, take)?;
            consumed_nodes += nodes_here;
            consumed_entries = target_end;
            for group in tile_rec(slab_entries, 1, dim, nodes_here) {
                write_leaf_group(pager, group, &mut current, dim)?;
            }
        }
        debug_assert!(merge.next()?.is_none(), "merge not exhausted");
    }

    // Upper levels: the child directory is O(n / fanout), small enough to
    // tile entirely in memory with the same code the in-memory loader
    // uses (`NodeId` doubles as an index into `current`).
    let mut level = 0u32;
    loop {
        level += 1;
        if current.len() <= max_entries {
            break;
        }
        let entries = directory_entries(&current);
        let mut next: Vec<(PageId, Rect)> = Vec::new();
        for g in tile(entries, 0, dim, &config) {
            let node = Node::with_entries(level, g);
            let mbr = node.mbr();
            let page = pager.allocate();
            write_node(pager, page, &node, dim, |id| current[id.index()].0 .0)?;
            next.push((page, mbr));
        }
        current = next;
    }
    let (root_page, height) = if current.len() == 1 && level == 1 {
        // k ≤ 1 wrote the single leaf root directly.
        (current[0].0, 1)
    } else {
        let node = Node::with_entries(level, directory_entries(&current));
        let page = pager.allocate();
        write_node(pager, page, &node, dim, |id| current[id.index()].0 .0)?;
        (page, level + 1)
    };
    write_meta(pager, meta_page, dim, height, n, root_page, &config)?;
    Ok(meta_page)
}

/// Fixed spill record width: `u32` stream id + `dim` coordinates.
fn record_bytes(dim: usize) -> usize {
    4 + 8 * dim
}

/// Stably sorts `buf` by the first coordinate and writes it out as one
/// run of fixed-width records, draining the buffer.
fn spill_run<S: Pager>(
    spill: &S,
    buf: &mut Vec<(u32, Point)>,
    rpp: usize,
    _rec_bytes: usize,
) -> Result<Run, PersistError> {
    buf.sort_by(|a, b| cmp_f64(a.1.coords()[0], b.1.coords()[0]));
    let mut pages = Vec::with_capacity(buf.len().div_ceil(rpp));
    for chunk in buf.chunks(rpp) {
        let page_id = spill.allocate();
        let mut page = Page::zeroed(spill.page_size());
        {
            let mut enc = Encoder::new(page.bytes_mut());
            for (id, p) in chunk {
                enc.put_u32(*id)?;
                for &c in p.coords() {
                    enc.put_f64(c)?;
                }
            }
        }
        spill.write_page(page_id, &page)?;
        pages.push(page_id);
    }
    let run = Run {
        pages,
        len: buf.len(),
    };
    buf.clear();
    Ok(run)
}

/// Read cursor over one spilled run; keeps exactly one page resident.
struct RunCursor {
    pages: Vec<PageId>,
    len: usize,
    next: usize,
    resident: Option<(usize, Page)>,
}

impl RunCursor {
    fn ensure<S: Pager>(&mut self, spill: &S, rpp: usize) -> Result<&Page, PersistError> {
        let want = self.next / rpp;
        if self.resident.as_ref().map(|(i, _)| *i) != Some(want) {
            self.resident = Some((want, spill.read_page(self.pages[want])?));
        }
        // lint:allow(no_panic) reason=the slot is assigned on the line above when empty or stale
        Ok(&self.resident.as_ref().expect("just set").1)
    }

    /// First coordinate of the head record, if any.
    fn peek_key<S: Pager>(
        &mut self,
        spill: &S,
        rpp: usize,
        rec_bytes: usize,
    ) -> Result<Option<f64>, PersistError> {
        if self.next >= self.len {
            return Ok(None);
        }
        let off = (self.next % rpp) * rec_bytes;
        let page = self.ensure(spill, rpp)?;
        let mut dec = Decoder::new(&page.bytes()[off..]);
        let _id = dec.get_u32()?;
        Ok(Some(dec.get_f64()?))
    }

    fn pop<S: Pager>(
        &mut self,
        spill: &S,
        dim: usize,
        rpp: usize,
        rec_bytes: usize,
    ) -> Result<(u32, Point), PersistError> {
        debug_assert!(self.next < self.len);
        let off = (self.next % rpp) * rec_bytes;
        let page = self.ensure(spill, rpp)?;
        let mut dec = Decoder::new(&page.bytes()[off..]);
        let id = dec.get_u32()?;
        let mut coords = Vec::with_capacity(dim);
        for _ in 0..dim {
            coords.push(dec.get_f64()?);
        }
        self.next += 1;
        Ok((id, Point::new(coords)))
    }
}

/// Heap key: smallest first coordinate wins; ties go to the lowest run
/// index, which (runs being consecutive input chunks) replays the global
/// stable sort's tie-breaking exactly.
struct MergeKey {
    key: f64,
    run: usize,
}

impl PartialEq for MergeKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for MergeKey {}
impl PartialOrd for MergeKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the minimum.
        cmp_f64(other.key, self.key).then_with(|| other.run.cmp(&self.run))
    }
}

/// K-way merge over the spilled runs.
struct Merge<'a, S: Pager> {
    spill: &'a S,
    cursors: Vec<RunCursor>,
    heap: BinaryHeap<MergeKey>,
    dim: usize,
    rpp: usize,
    rec_bytes: usize,
}

impl<'a, S: Pager> Merge<'a, S> {
    fn new(
        spill: &'a S,
        runs: Vec<Run>,
        dim: usize,
        rpp: usize,
        rec_bytes: usize,
    ) -> Result<Self, PersistError> {
        let mut cursors: Vec<RunCursor> = runs
            .into_iter()
            .map(|r| RunCursor {
                pages: r.pages,
                len: r.len,
                next: 0,
                resident: None,
            })
            .collect();
        let mut heap = BinaryHeap::with_capacity(cursors.len());
        for (run, c) in cursors.iter_mut().enumerate() {
            if let Some(key) = c.peek_key(spill, rpp, rec_bytes)? {
                heap.push(MergeKey { key, run });
            }
        }
        Ok(Self {
            spill,
            cursors,
            heap,
            dim,
            rpp,
            rec_bytes,
        })
    }

    fn next(&mut self) -> Result<Option<(u32, Point)>, PersistError> {
        let Some(MergeKey { run, .. }) = self.heap.pop() else {
            return Ok(None);
        };
        let cursor = &mut self.cursors[run];
        let rec = cursor.pop(self.spill, self.dim, self.rpp, self.rec_bytes)?;
        if let Some(key) = cursor.peek_key(self.spill, self.rpp, self.rec_bytes)? {
            self.heap.push(MergeKey { key, run });
        }
        Ok(Some(rec))
    }
}

/// Pulls the next `count` merged records as leaf entries.
fn take_entries<S: Pager>(
    merge: &mut Merge<'_, S>,
    count: usize,
) -> Result<Vec<Entry>, PersistError> {
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let (id, p) = merge
            .next()?
            .ok_or_else(|| PersistError::Format("merge exhausted early".into()))?;
        out.push(Entry::item(ItemId(id), p));
    }
    Ok(out)
}

/// Writes one finished leaf group and records its page and MBR.
fn write_leaf_group<P: Pager>(
    pager: &P,
    group: Vec<Entry>,
    current: &mut Vec<(PageId, Rect)>,
    dim: usize,
) -> Result<(), PersistError> {
    let node = Node::with_entries(0, group);
    let mbr = node.mbr();
    let page = pager.allocate();
    write_node(pager, page, &node, dim, |_| {
        // lint:allow(no_panic) reason=level-0 node; the child mapper is never consulted for item entries
        unreachable!("leaf has no node children")
    })?;
    current.push((page, mbr));
    Ok(())
}

/// The upper-level tiling input: each child as an `Entry::node` whose
/// `NodeId` is its index into `current`.
fn directory_entries(current: &[(PageId, Rect)]) -> Vec<Entry> {
    current
        .iter()
        .enumerate()
        .map(|(i, (_, rect))| Entry::node(rect.clone(), NodeId(i as u32)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::bulk_load;
    use crate::persist::{load, save};
    use crate::validate::check_structure;
    use wnrs_storage::MemPager;

    fn pts(n: usize, dim: usize) -> Vec<Point> {
        let mut state: u64 = 7;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        (0..n)
            .map(|_| Point::new((0..dim).map(|_| next() * 1000.0).collect::<Vec<_>>()))
            .collect()
    }

    /// Serialises both trees with `persist::save` (pre-order page
    /// numbering) and compares every page byte — equal bytes mean equal
    /// structure, levels, entry order and rectangles.
    fn assert_same_structure(a: &crate::tree::RTree, b: &crate::tree::RTree) {
        let pa = MemPager::paper_default();
        let pb = MemPager::paper_default();
        save(a, &pa).expect("save a");
        save(b, &pb).expect("save b");
        assert_eq!(pa.page_count(), pb.page_count(), "page counts differ");
        for i in 0..pa.page_count() {
            let x = pa.read_page(PageId(i)).unwrap();
            let y = pb.read_page(PageId(i)).unwrap();
            assert_eq!(x.bytes(), y.bytes(), "page {i} differs");
        }
    }

    fn round_trip(n: usize, dim: usize, run_capacity: usize) {
        let points = pts(n, dim);
        let config = RTreeConfig::paper_default(dim);
        let pager = MemPager::paper_default();
        let spill = MemPager::paper_default();
        let meta = bulk_load_stream(
            points.iter().cloned(),
            dim,
            config.clone(),
            &pager,
            &spill,
            run_capacity,
        )
        .expect("stream load");
        let streamed = load(&pager, meta).expect("load streamed");
        check_structure(&streamed).expect("streamed tree valid");
        let reference = bulk_load(&points, config);
        assert_eq!(streamed.len(), reference.len(), "n = {n}");
        assert_eq!(streamed.height(), reference.height(), "n = {n}");
        assert_same_structure(&streamed, &reference);
    }

    #[test]
    fn matches_in_memory_bulk_load_across_sizes() {
        for n in [1, 8, 9, 39, 64, 65, 500, 1537, 5000] {
            round_trip(n, 2, 128);
        }
    }

    #[test]
    fn matches_with_tiny_runs() {
        // Many runs: every record crosses the merge.
        round_trip(700, 2, 13);
    }

    #[test]
    fn matches_when_everything_fits_one_run() {
        round_trip(5000, 2, 1 << 20);
    }

    #[test]
    fn matches_in_three_dimensions() {
        round_trip(2000, 3, 97);
    }

    #[test]
    fn duplicate_keys_keep_stream_order() {
        // All equal on axis 0: ordering is decided purely by the stable
        // tie-breaking the merge must reproduce.
        let points: Vec<Point> = (0..300).map(|i| Point::xy(42.0, (i % 17) as f64)).collect();
        let config = RTreeConfig::paper_default(2);
        let pager = MemPager::paper_default();
        let spill = MemPager::paper_default();
        let meta = bulk_load_stream(
            points.iter().cloned(),
            2,
            config.clone(),
            &pager,
            &spill,
            31,
        )
        .expect("stream load");
        let streamed = load(&pager, meta).expect("load");
        let reference = bulk_load(&points, config);
        assert_same_structure(&streamed, &reference);
    }

    #[test]
    fn empty_stream_rejected() {
        let pager = MemPager::paper_default();
        let spill = MemPager::paper_default();
        let err = bulk_load_stream(
            std::iter::empty::<Point>(),
            2,
            RTreeConfig::paper_default(2),
            &pager,
            &spill,
            64,
        )
        .unwrap_err();
        assert!(matches!(err, PersistError::Format(_)));
    }

    #[test]
    fn oversized_node_rejected() {
        let pager = MemPager::paper_default();
        let spill = MemPager::paper_default();
        let err = bulk_load_stream(
            pts(10, 2),
            2,
            RTreeConfig::with_max_entries(64),
            &pager,
            &spill,
            64,
        )
        .unwrap_err();
        assert!(matches!(err, PersistError::Format(_)));
    }

    #[test]
    fn paged_queries_agree_with_reference() {
        use crate::paged::PagedRTree;
        use crate::source::{window_walk, WindowScratch};
        use std::sync::Arc;
        use wnrs_storage::BufferPool;
        let points = pts(3000, 2);
        let config = RTreeConfig::paper_default(2);
        let pager = Arc::new(MemPager::paper_default());
        let spill = MemPager::paper_default();
        let meta = bulk_load_stream(
            points.iter().cloned(),
            2,
            config.clone(),
            pager.as_ref(),
            &spill,
            256,
        )
        .expect("stream load");
        let paged = PagedRTree::open(BufferPool::new(pager, 64), meta).expect("open");
        let reference = bulk_load(&points, config);
        let w = Rect::new(Point::xy(100.0, 100.0), Point::xy(600.0, 800.0));
        let mut got: Vec<u32> = Vec::new();
        window_walk(&paged, &w, &mut WindowScratch::new(), |id, _| {
            got.push(id.0);
            false
        })
        .expect("window");
        got.sort_unstable();
        let mut want: Vec<u32> = reference.window(&w).iter().map(|(id, _)| id.0).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
