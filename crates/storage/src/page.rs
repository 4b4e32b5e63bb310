//! Fixed-size pages.

use std::fmt;

/// The page size the paper configures its R-tree with (Section VI).
pub const PAPER_PAGE_SIZE: usize = 1536;

/// Identifier of a page within a pager. Dense, starting at zero.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// The page index as a usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

/// A fixed-size block of bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    data: Box<[u8]>,
}

impl Page {
    /// A zeroed page of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[must_use]
    pub fn zeroed(size: usize) -> Self {
        assert!(size > 0, "page size must be positive");
        Self {
            data: vec![0u8; size].into_boxed_slice(),
        }
    }

    /// Builds a page from raw bytes.
    #[must_use]
    pub fn from_bytes(data: Vec<u8>) -> Self {
        assert!(!data.is_empty(), "page size must be positive");
        Self {
            data: data.into_boxed_slice(),
        }
    }

    /// The page size in bytes.
    #[inline]
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the page contents.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable view of the page contents.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Page({} bytes)", self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page() {
        let p = Page::zeroed(64);
        assert_eq!(p.size(), 64);
        assert!(p.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_rejected() {
        let _ = Page::zeroed(0);
    }

    #[test]
    fn mutation_round_trip() {
        let mut p = Page::zeroed(16);
        p.bytes_mut()[3] = 0xAB;
        assert_eq!(p.bytes()[3], 0xAB);
    }

    #[test]
    fn page_id_ordering() {
        assert!(PageId(1) < PageId(2));
        assert_eq!(PageId(7).index(), 7);
        assert_eq!(PageId(7).to_string(), "page#7");
    }
}
