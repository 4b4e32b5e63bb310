//! Workspace discovery: which files are linted, under which rule sets.
//!
//! The pass covers every `.rs` file under `crates/*/src/` plus the
//! workspace façade's `src/` — i.e. all first-party code. `vendor/`
//! (offline stand-ins for registry crates), `target/`, tests, benches,
//! examples and lint fixtures are out of scope: the rules govern the
//! code we ship, and test code is explicitly exempt from the rules
//! anyway.

use crate::rules::FileClass;
use crate::Error;
use std::fs;
use std::path::{Path, PathBuf};

/// Modules designated "hot path" for the `no_index` rule: the dominance
/// kernel, region algebra, the parallel primitives and the R-tree node
/// arena. These sit under every query; a stray `[i]` here is both a
/// panic risk and a bounds-check cost.
const HOT_PATHS: [&str; 4] = [
    "crates/geometry/src/dominance.rs",
    "crates/geometry/src/region.rs",
    "crates/geometry/src/parallel.rs",
    "crates/rtree/src/node.rs",
];

/// Modules designated allocation-free for the `hot_path_alloc` rule:
/// their inner loops run once per customer (or per tree node) and must
/// not produce per-element heap traffic. Cold setup paths use the
/// `lint:allow(hot_path_alloc)` escape. The index walks are included —
/// the window walk and the window query that fills the flat culprit
/// block from it (per-query buffers only, never one per culprit), the
/// membership probe, BBS and BBRS's global skyline, each written once
/// over both node sources — and so is the page decode
/// under every out-of-core read, where a stray per-entry allocation
/// multiplies by the page fan-out.
const ALLOC_HOT_PATHS: [&str; 9] = [
    "crates/skyline/src/bbs.rs",
    "crates/rtree/src/query.rs",
    "crates/rtree/src/source.rs",
    "crates/rtree/src/paged.rs",
    "crates/reverse-skyline/src/window.rs",
    "crates/reverse-skyline/src/bbrs.rs",
    "crates/geometry/src/dominance.rs",
    "crates/geometry/src/kernels.rs",
    "crates/core/src/cache.rs",
];

/// The NaN-validated float boundary: the one file allowed to use raw
/// float comparison primitives, because `Point::new` rejects non-finite
/// coordinates there and the `float` helpers it hosts wrap `total_cmp`.
const FLOAT_BOUNDARY: &str = "crates/geometry/src/point.rs";

/// Files holding lock- or atomic-bearing code, subject to the scope
/// pass (L7 `lock_discipline`, L8 `atomic_ordering`). Every file with
/// an `Atomic*` or `RwLock`/`Mutex` in first-party code must be listed
/// here, so the per-site ordering policies in `rules_scope` stay
/// exhaustive.
const CONCURRENCY: [&str; 9] = [
    "crates/core/src/cache.rs",
    "crates/core/src/sync.rs",
    "crates/obs/src/imp.rs",
    "crates/rtree/src/tree.rs",
    "crates/storage/src/stats.rs",
    "crates/storage/src/file.rs",
    "crates/server/src/host.rs",
    "crates/server/src/queue.rs",
    "crates/server/src/server.rs",
];

/// A source file scheduled for linting.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub path: PathBuf,
    /// Workspace-relative path with `/` separators (stable across OSes).
    pub rel: String,
    /// Rule applicability.
    pub class: FileClass,
}

/// Collects every lintable source file under `root` (the workspace
/// root), sorted by relative path.
pub fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, Error> {
    let mut src_dirs: Vec<PathBuf> = vec![root.join("src")];
    let crates_dir = root.join("crates");
    let entries = fs::read_dir(&crates_dir).map_err(|e| Error::io(&crates_dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| Error::io(&crates_dir, e))?;
        let dir = entry.path();
        if dir.is_dir() && dir.join("Cargo.toml").is_file() {
            src_dirs.push(dir.join("src"));
        }
    }
    let mut files = Vec::new();
    for dir in src_dirs {
        if dir.is_dir() {
            walk_rs_files(&dir, &mut files)?;
        }
    }
    let mut out = Vec::new();
    for path in files {
        let rel = relative_slash_path(root, &path);
        let class = classify(&rel);
        out.push(SourceFile { path, rel, class });
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

fn walk_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), Error> {
    let entries = fs::read_dir(dir).map_err(|e| Error::io(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| Error::io(dir, e))?;
        let path = entry.path();
        if path.is_dir() {
            walk_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative_slash_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    parts.join("/")
}

fn classify(rel: &str) -> FileClass {
    FileClass {
        crate_root: rel.ends_with("src/lib.rs") || rel.ends_with("src/main.rs"),
        hot_path: HOT_PATHS.contains(&rel),
        alloc_hot_path: ALLOC_HOT_PATHS.contains(&rel),
        float_boundary: rel == FLOAT_BOUNDARY,
        concurrency: CONCURRENCY.contains(&rel),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(classify("crates/core/src/lib.rs").crate_root);
        assert!(classify("crates/cli/src/main.rs").crate_root);
        assert!(!classify("crates/core/src/engine.rs").crate_root);
        assert!(classify("crates/geometry/src/region.rs").hot_path);
        assert!(!classify("crates/geometry/src/rect.rs").hot_path);
        assert!(classify("crates/skyline/src/bbs.rs").alloc_hot_path);
        assert!(classify("crates/rtree/src/query.rs").alloc_hot_path);
        assert!(classify("crates/geometry/src/dominance.rs").alloc_hot_path);
        assert!(classify("crates/geometry/src/kernels.rs").alloc_hot_path);
        assert!(classify("crates/core/src/cache.rs").alloc_hot_path);
        assert!(classify("crates/rtree/src/source.rs").alloc_hot_path);
        assert!(classify("crates/rtree/src/paged.rs").alloc_hot_path);
        assert!(classify("crates/reverse-skyline/src/window.rs").alloc_hot_path);
        assert!(classify("crates/reverse-skyline/src/bbrs.rs").alloc_hot_path);
        assert!(!classify("crates/skyline/src/approx.rs").alloc_hot_path);
        assert!(!classify("crates/core/src/paged.rs").alloc_hot_path);
        assert!(classify("crates/geometry/src/point.rs").float_boundary);
        assert!(classify("crates/core/src/cache.rs").concurrency);
        assert!(classify("crates/core/src/sync.rs").concurrency);
        assert!(!classify("crates/geometry/src/kernels.rs").concurrency);
        assert!(classify("crates/storage/src/file.rs").concurrency);
        assert!(classify("crates/server/src/server.rs").concurrency);
        assert!(classify("crates/server/src/queue.rs").concurrency);
        assert!(classify("crates/server/src/host.rs").concurrency);
        assert!(!classify("crates/server/src/handler.rs").concurrency);
        assert!(!classify("crates/core/src/engine.rs").concurrency);
    }
}
