//! Typed errors for engine construction, persistence and front-ends.
//!
//! The workspace lint (`cargo run -p xtask -- lint`) bans `unwrap`,
//! `expect` and `panic!` in non-test library code, so every fallible
//! path must name its failure. This module holds the hand-rolled enums
//! (the container is offline, so no `thiserror`): [`EngineError`] for
//! dataset/configuration problems at engine construction, and
//! [`WnrsError`] as the umbrella the CLI and other front-ends thread
//! upward, with `From` conversions from every layer below.

use crate::question::QuestionError;
use std::fmt;
use std::io;
use wnrs_storage::PagerError;

/// A dataset or configuration problem detected at engine construction.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The dataset is empty — reverse skylines are undefined over
    /// nothing.
    EmptyDataset,
    /// A reloaded tree's item ids are not the dense `0..len` range
    /// produced by the bulk loader.
    SparseItemIds {
        /// Number of items in the tree.
        items: usize,
        /// First index whose id does not equal its rank.
        first_gap: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::EmptyDataset => {
                write!(f, "engine needs at least one data point")
            }
            EngineError::SparseItemIds { items, first_gap } => {
                write!(
                    f,
                    "engine requires dense item ids 0..{items}; first gap at rank {first_gap}"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Umbrella error for front-ends (the `wnrs` CLI and tools built on the
/// library): wraps every lower layer with `From` conversions so `?`
/// threads cleanly from storage, persistence and engine construction up
/// to `main`.
#[derive(Debug)]
pub enum WnrsError {
    /// Bad command-line usage or malformed textual input.
    Usage(String),
    /// Filesystem failure.
    Io(io::Error),
    /// Engine construction failure.
    Engine(EngineError),
    /// Page-level storage failure.
    Pager(PagerError),
    /// A question with a false premise, or one the engine cannot answer.
    Question(QuestionError),
}

impl WnrsError {
    /// A usage error from anything displayable (parse failures,
    /// missing flags).
    #[must_use]
    pub fn usage(msg: impl Into<String>) -> Self {
        WnrsError::Usage(msg.into())
    }
}

impl fmt::Display for WnrsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WnrsError::Usage(msg) => write!(f, "{msg}"),
            WnrsError::Io(e) => write!(f, "i/o error: {e}"),
            WnrsError::Engine(e) => write!(f, "{e}"),
            WnrsError::Pager(e) => write!(f, "storage error: {e}"),
            WnrsError::Question(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WnrsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WnrsError::Usage(_) => None,
            WnrsError::Io(e) => Some(e),
            WnrsError::Engine(e) => Some(e),
            WnrsError::Pager(e) => Some(e),
            WnrsError::Question(e) => Some(e),
        }
    }
}

impl From<io::Error> for WnrsError {
    fn from(e: io::Error) -> Self {
        WnrsError::Io(e)
    }
}

impl From<EngineError> for WnrsError {
    fn from(e: EngineError) -> Self {
        WnrsError::Engine(e)
    }
}

impl From<PagerError> for WnrsError {
    fn from(e: PagerError) -> Self {
        WnrsError::Pager(e)
    }
}

impl From<QuestionError> for WnrsError {
    fn from(e: QuestionError) -> Self {
        WnrsError::Question(e)
    }
}

impl From<String> for WnrsError {
    fn from(msg: String) -> Self {
        WnrsError::Usage(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_descriptive() {
        let e = EngineError::SparseItemIds {
            items: 8,
            first_gap: 3,
        };
        assert!(e.to_string().contains("0..8"));
        assert!(e.to_string().contains("rank 3"));
        let w: WnrsError = e.into();
        assert!(w.to_string().contains("dense item ids"));
        assert!(std::error::Error::source(&w).is_some());
    }

    #[test]
    fn from_conversions_thread_through_question_mark() {
        fn inner() -> Result<(), WnrsError> {
            Err(EngineError::EmptyDataset)?
        }
        assert!(matches!(inner(), Err(WnrsError::Engine(_))));
    }
}
