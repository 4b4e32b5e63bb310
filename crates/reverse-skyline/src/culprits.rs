//! The culprit set `Λ` as one flat block.
//!
//! A window query on CarDB returns thousands of culprits, and every
//! consumer — Algorithms 1 and 2, MWQ's per-corner repairs, the engine
//! cache — reads them row by row. [`CulpritBlock`] keeps them as two
//! arrays: the item ids in ascending order and their coordinates,
//! row-major, `dim` per culprit. Building one costs a few allocations
//! per window, not one per culprit, and a cached block holds
//! `4 + 8·dim` bytes per culprit. Boxed `(ItemId, Point)` pairs are
//! built from it only where an answer hands them out
//! ([`CulpritBlock::to_items`]).

use wnrs_geometry::Point;
use wnrs_rtree::ItemId;

/// Culprits in ascending id order with their coordinates, row-major.
///
/// Both arrays are sized exactly: a block built by the window query or
/// cloned has no spare capacity, and [`CulpritBlock::insert`] /
/// [`CulpritBlock::remove`] keep it that way.
#[derive(Debug, Clone)]
pub struct CulpritBlock {
    dim: usize,
    ids: Vec<ItemId>,
    coords: Vec<f64>,
}

impl CulpritBlock {
    /// An empty block of `dim`-dimensional culprits.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "a culprit block needs at least 1 dimension");
        Self {
            dim,
            ids: Vec::new(),
            coords: Vec::new(),
        }
    }

    /// A block from ids in strictly ascending order and their rows.
    #[must_use]
    pub(crate) fn from_sorted(dim: usize, ids: Vec<ItemId>, coords: Vec<f64>) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids not ascending");
        debug_assert_eq!(coords.len(), ids.len() * dim);
        Self { dim, ids, coords }
    }

    /// Number of culprits.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the block is empty — for a window result, whether the
    /// customer is a reverse-skyline member.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Dimensionality of the culprits.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The culprits' ids, ascending.
    pub fn ids(&self) -> &[ItemId] {
        &self.ids
    }

    /// The culprits' coordinates, one `dim`-wide row each, in id order.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.coords.chunks_exact(self.dim)
    }

    /// The culprits as `(id, coordinates)`, in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (ItemId, &[f64])> {
        self.ids.iter().copied().zip(self.rows())
    }

    /// The culprits as boxed `(id, point)` pairs, in id order: the form
    /// answers hand out. One allocation per culprit.
    pub fn to_items(&self) -> Vec<(ItemId, Point)> {
        self.iter()
            .map(|(id, row)| (id, Point::from(row)))
            .collect()
    }

    /// Adds culprit `id` at `row` in its id position; `false` (and no
    /// change) when `id` is already present.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `dim` wide.
    pub fn insert(&mut self, id: ItemId, row: &[f64]) -> bool {
        assert_eq!(row.len(), self.dim, "culprit dimensionality mismatch");
        let Err(at) = self.ids.binary_search(&id) else {
            return false;
        };
        self.ids.reserve_exact(1);
        self.ids.insert(at, id);
        self.coords.reserve_exact(self.dim);
        let start = at * self.dim;
        self.coords.splice(start..start, row.iter().copied());
        true
    }

    /// Removes culprit `id`; `false` when it is absent.
    pub fn remove(&mut self, id: ItemId) -> bool {
        let Ok(at) = self.ids.binary_search(&id) else {
            return false;
        };
        self.ids.remove(at);
        self.ids.shrink_to_fit();
        let start = at * self.dim;
        self.coords.drain(start..start + self.dim);
        self.coords.shrink_to_fit();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_remove_keep_id_order_and_exact_capacity() {
        let mut block = CulpritBlock::new(2);
        assert!(block.insert(ItemId(7), &[7.0, 70.0]));
        assert!(block.insert(ItemId(2), &[2.0, 20.0]));
        assert!(block.insert(ItemId(9), &[9.0, 90.0]));
        assert!(!block.insert(ItemId(7), &[0.0, 0.0]), "duplicate id");
        assert_eq!(block.ids(), &[ItemId(2), ItemId(7), ItemId(9)]);
        let rows: Vec<&[f64]> = block.rows().collect();
        assert_eq!(rows, vec![&[2.0, 20.0][..], &[7.0, 70.0], &[9.0, 90.0]]);
        assert!(block.remove(ItemId(7)));
        assert!(!block.remove(ItemId(7)));
        assert_eq!(block.ids(), &[ItemId(2), ItemId(9)]);
        assert_eq!(block.coords, vec![2.0, 20.0, 9.0, 90.0]);
        assert_eq!(block.ids.capacity(), block.ids.len());
        assert_eq!(block.coords.capacity(), block.coords.len());
        let items = block.to_items();
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].0, ItemId(9));
        assert_eq!(items[1].1.coords(), &[9.0, 90.0]);
    }
}
