//! The shared engine host: one engine, many worker threads.
//!
//! Lock discipline (xtask lint L7): this module is the *only* place
//! the engine lock is acquired, and it exposes closure funnels —
//! `with_engine` / `with_engine_mut` — so request handlers never hold
//! a guard in their own scope. Guards live exactly as long as the
//! closure call; nothing else happens under them.

use std::sync::{PoisonError, RwLock};
use wnrs_core::{PagedEngine, WhyNotEngine};
use wnrs_storage::FilePager;

/// The engine variants a server can front. Constructed via
/// [`EngineHost::memory`] / [`EngineHost::paged`] (re-exported from
/// [`crate::server`]).
pub enum EngineHost {
    /// An in-memory engine (optionally cache-enabled) behind a
    /// readers-writer lock: queries share read access, insert/delete
    /// take the write side and flow through surgical cache
    /// invalidation.
    Memory(Box<MemoryHost>),
    /// A read-only page-resident engine (optionally cached) over a
    /// bounded buffer pool; queries need no outer lock (pool and cache
    /// synchronise internally) and writes are answered `Unsupported`.
    Paged(Box<PagedEngine<FilePager>>),
}

impl EngineHost {
    /// Hosts an in-memory engine.
    #[must_use]
    pub fn memory(engine: WhyNotEngine) -> EngineHost {
        EngineHost::Memory(Box::new(MemoryHost {
            engine: RwLock::new(engine),
        }))
    }

    /// Hosts a paged (out-of-core, read-only) engine.
    #[must_use]
    pub fn paged(engine: PagedEngine<FilePager>) -> EngineHost {
        EngineHost::Paged(Box::new(engine))
    }

    /// The engine mode's stable name (recorded in bench output):
    /// `in_memory`, `in_memory_cached`, `paged` or `paged_cached`.
    #[must_use]
    pub fn mode_name(&self) -> &'static str {
        match self {
            EngineHost::Memory(h) => {
                if h.with_engine(|e| e.cache().is_some()) {
                    "in_memory_cached"
                } else {
                    "in_memory"
                }
            }
            EngineHost::Paged(e) => {
                if e.cache().is_some() {
                    "paged_cached"
                } else {
                    "paged"
                }
            }
        }
    }
}

/// The in-memory half of [`EngineHost`].
pub struct MemoryHost {
    engine: RwLock<WhyNotEngine>,
}

impl MemoryHost {
    /// Runs `f` with shared (read) access to the engine. A poisoned
    /// lock is recovered: the engine's interior cache is itself
    /// thread-safe and a query panic cannot corrupt the point arena.
    pub fn with_engine<R>(&self, f: impl FnOnce(&WhyNotEngine) -> R) -> R {
        let g = self.engine.read().unwrap_or_else(PoisonError::into_inner);
        f(&g)
    }

    /// Runs `f` with exclusive (write) access to the engine.
    pub fn with_engine_mut<R>(&self, f: impl FnOnce(&mut WhyNotEngine) -> R) -> R {
        let mut g = self.engine.write().unwrap_or_else(PoisonError::into_inner);
        f(&mut g)
    }
}
