//! Shared parallel-execution primitives.
//!
//! Every parallel path in the workspace — safe-region construction, the
//! offline DSL store build, batch why-not answering, the bichromatic
//! reverse-skyline scan — goes through the two helpers here so threading
//! policy lives in one place. The helpers are built on `crossbeam`
//! scoped threads; workers borrow the input slice directly, no `Arc`
//! cloning or channel plumbing.
//!
//! A [`Parallelism`] value describes *how much* concurrency a call site
//! may use. The default is [`Parallelism::sequential`], so callers that
//! never opt in keep the exact single-threaded behaviour (and allocation
//! pattern) they had before this module existed. All helpers guarantee
//! result order matches input order, so a parallel map is a drop-in
//! replacement for `iter().map(..).collect()`.

use crate::region::{product, Region};

/// Concurrency policy for parallelisable operations.
///
/// `workers` is the number of OS threads a helper may spawn; a value of
/// `1` (the default) means "run on the caller's thread". The
/// `sequential_cutoff` guards against paying thread-spawn latency for
/// tiny inputs: a workload with fewer items than the cutoff runs
/// sequentially even when `workers > 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parallelism {
    workers: usize,
    sequential_cutoff: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::sequential()
    }
}

impl Parallelism {
    /// Items-per-workload below which parallel dispatch is skipped.
    pub const DEFAULT_SEQUENTIAL_CUTOFF: usize = 4;

    /// Single-threaded execution (the default).
    #[must_use]
    pub fn sequential() -> Self {
        Self {
            workers: 1,
            sequential_cutoff: Self::DEFAULT_SEQUENTIAL_CUTOFF,
        }
    }

    /// Execution with up to `workers` threads. `workers == 0` is
    /// normalised to `1`.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            sequential_cutoff: Self::DEFAULT_SEQUENTIAL_CUTOFF,
        }
    }

    /// Uses the parallelism the OS reports as available
    /// (`std::thread::available_parallelism`), falling back to `1`.
    #[must_use]
    pub fn available() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(workers)
    }

    /// Overrides the minimum workload size for parallel dispatch.
    #[must_use]
    pub fn with_sequential_cutoff(mut self, cutoff: usize) -> Self {
        self.sequential_cutoff = cutoff.max(1);
        self
    }

    /// Maximum number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Minimum workload size (in items) for parallel dispatch.
    pub fn sequential_cutoff(&self) -> usize {
        self.sequential_cutoff
    }

    /// Whether a workload of `items` items should be run in parallel
    /// under this policy.
    pub fn is_parallel(&self, items: usize) -> bool {
        self.workers > 1 && items >= self.sequential_cutoff
    }

    /// Number of chunks to split a workload of `items` items into:
    /// at most `workers`, and never more than `items`.
    fn chunks_for(&self, items: usize) -> usize {
        self.workers.min(items).max(1)
    }
}

/// Maps `f` over `items`, preserving order, fanning out across the
/// threads allowed by `par`. Falls back to a plain sequential map when
/// the policy says the workload is too small (or `workers == 1`).
pub fn map_slice<T, U, F>(items: &[T], par: &Parallelism, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if !par.is_parallel(items.len()) {
        return items.iter().map(f).collect();
    }
    let n_chunks = par.chunks_for(items.len());
    let chunk_len = items.len().div_ceil(n_chunks);
    let mut results: Vec<Vec<U>> = Vec::new();
    crossbeam::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(|_| chunk.iter().map(&f).collect::<Vec<U>>()))
            .collect();
        results = handles
            .into_iter()
            // A worker panic is re-raised on the caller's thread with its
            // original payload instead of being masked by a new panic.
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect();
    })
    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    results.into_iter().flatten().collect()
}

/// Maps `f` over the index range `0..n`, preserving order, fanning out
/// across the threads allowed by `par`. The range analogue of
/// [`map_slice`] for workloads indexed by dense ids rather than borrowed
/// from a slice.
pub fn map_range<U, F>(n: usize, par: &Parallelism, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    if !par.is_parallel(n) {
        return (0..n).map(f).collect();
    }
    let n_chunks = par.chunks_for(n);
    let chunk_len = n.div_ceil(n_chunks);
    let bounds: Vec<(usize, usize)> = (0..n)
        .step_by(chunk_len)
        .map(|lo| (lo, (lo + chunk_len).min(n)))
        .collect();
    let mut results: Vec<Vec<U>> = Vec::new();
    let f = &f;
    crossbeam::scope(|scope| {
        let handles: Vec<_> = bounds
            .iter()
            .map(|&(lo, hi)| scope.spawn(move |_| (lo..hi).map(f).collect::<Vec<U>>()))
            .collect();
        results = handles
            .into_iter()
            // See `map_slice`: re-raise the worker's own panic payload.
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect();
    })
    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    results.into_iter().flatten().collect()
}

/// Maps `f` over *contiguous chunks* of the index range `0..n`, one
/// chunk per worker, returning the per-chunk outputs in chunk order.
///
/// This is the scratch-reuse analogue of [`map_range`]: where
/// `map_range` calls `f` once per index (forcing any per-call state to
/// be rebuilt `n` times), `map_range_chunked` hands each worker one
/// `Range` so the callee can allocate its scratch state once and sweep
/// the whole chunk with it. Chunk boundaries are identical to
/// [`map_range`]'s, and the sequential path is a single `f(0..n)` call —
/// so concatenating per-item results produced inside `f` yields the same
/// sequence regardless of worker count.
pub fn map_range_chunked<U, F>(n: usize, par: &Parallelism, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(std::ops::Range<usize>) -> U + Sync,
{
    if !par.is_parallel(n) {
        if n == 0 {
            return Vec::new();
        }
        return vec![f(0..n)];
    }
    let n_chunks = par.chunks_for(n);
    let chunk_len = n.div_ceil(n_chunks);
    let bounds: Vec<(usize, usize)> = (0..n)
        .step_by(chunk_len)
        .map(|lo| (lo, (lo + chunk_len).min(n)))
        .collect();
    let mut results: Vec<U> = Vec::new();
    let f = &f;
    crossbeam::scope(|scope| {
        let handles: Vec<_> = bounds
            .iter()
            .map(|&(lo, hi)| scope.spawn(move |_| f(lo..hi)))
            .collect();
        results = handles
            .into_iter()
            // See `map_slice`: re-raise the worker's own panic payload.
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect();
    })
    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    results
}

/// Intersects a collection of regions by balanced tree reduction,
/// optionally evaluating each round's pairwise intersections in
/// parallel. Returns `None` for an empty input.
///
/// The inputs are first sorted by ascending box count (stable, so equal
/// sizes keep their relative order); small operands meeting first keeps
/// intermediate products small. Rounds then halve the working set:
/// `[r0·r1, r2·r3, …]`, an odd trailing region carrying over untouched.
///
/// Each region is flattened into [`Boxes`](crate::region::Boxes) rows
/// once; every round's products run on rows, and [`Rect`]s are built
/// only for the result.
///
/// Region intersection with containment pruning produces the canonical
/// set of maximal boxes of the point-set intersection, which is
/// independent of association order — so the result equals a sequential
/// left fold of [`Region::intersect`] up to box ordering. The sequential
/// (`workers == 1`) and parallel paths perform the *same* pairings, so
/// they are bit-identical to each other.
///
/// [`Rect`]: crate::rect::Rect
pub fn intersect_all(mut regions: Vec<Region>, par: &Parallelism) -> Option<Region> {
    if regions.len() <= 1 {
        return regions.pop();
    }
    regions.sort_by_key(Region::len);
    let Some(d) = regions.iter().find_map(Region::dim) else {
        return Some(Region::empty());
    };
    let mut rows: Vec<Vec<f64>> = regions.iter().map(Region::to_rows).collect();
    drop(regions);
    while rows.len() > 1 {
        let mut pairs: Vec<(Vec<f64>, Vec<f64>)> = Vec::with_capacity(rows.len() / 2);
        let mut carry: Option<Vec<f64>> = None;
        let mut it = rows.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => pairs.push((a, b)),
                None => carry = Some(a),
            }
        }
        let mut next: Vec<Vec<f64>> = map_slice(&pairs, par, |(a, b)| product(d, a, b).into_rows());
        if let Some(c) = carry {
            next.push(c);
        }
        // An empty product annihilates the whole intersection; stop early.
        if next.iter().any(Vec::is_empty) {
            return Some(Region::empty());
        }
        rows = next;
    }
    rows.pop().map(|r| Region::from_pruned_rows(d, &r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use crate::rect::Rect;

    #[test]
    fn default_is_sequential() {
        let par = Parallelism::default();
        assert_eq!(par.workers(), 1);
        assert!(!par.is_parallel(1_000_000));
    }

    #[test]
    fn zero_workers_normalised() {
        assert_eq!(Parallelism::new(0).workers(), 1);
    }

    #[test]
    fn cutoff_gates_small_workloads() {
        let par = Parallelism::new(4).with_sequential_cutoff(10);
        assert!(!par.is_parallel(9));
        assert!(par.is_parallel(10));
    }

    #[test]
    fn map_slice_matches_sequential() {
        let items: Vec<i64> = (0..103).collect();
        let seq: Vec<i64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 4, 7] {
            let par = Parallelism::new(workers).with_sequential_cutoff(1);
            assert_eq!(map_slice(&items, &par, |x| x * x), seq, "workers={workers}");
        }
    }

    #[test]
    fn map_range_matches_sequential() {
        let seq: Vec<usize> = (0..57).map(|i| i * 3 + 1).collect();
        for workers in [1, 2, 4, 8] {
            let par = Parallelism::new(workers).with_sequential_cutoff(1);
            assert_eq!(map_range(57, &par, |i| i * 3 + 1), seq, "workers={workers}");
        }
    }

    #[test]
    fn map_empty_inputs() {
        let par = Parallelism::new(4).with_sequential_cutoff(1);
        assert!(map_slice::<i32, i32, _>(&[], &par, |x| *x).is_empty());
        assert!(map_range(0, &par, |i| i).is_empty());
        assert!(map_range_chunked::<usize, _>(0, &par, |r| r.len()).is_empty());
    }

    #[test]
    fn map_range_chunked_concatenates_like_map_range() {
        let seq: Vec<usize> = (0..57).map(|i| i * 3 + 1).collect();
        for workers in [1, 2, 4, 8] {
            let par = Parallelism::new(workers).with_sequential_cutoff(1);
            let chunks = map_range_chunked(57, &par, |range| {
                // Per-chunk scratch state: allocated once per worker.
                let mut out = Vec::with_capacity(range.len());
                for i in range {
                    out.push(i * 3 + 1);
                }
                out
            });
            let flat: Vec<usize> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, seq, "workers={workers}");
        }
    }

    fn r(lx: f64, ly: f64, hx: f64, hy: f64) -> Region {
        Region::from_rect(Rect::new(Point::xy(lx, ly), Point::xy(hx, hy)))
    }

    #[test]
    fn intersect_all_empty_input() {
        assert!(intersect_all(vec![], &Parallelism::sequential()).is_none());
    }

    #[test]
    fn intersect_all_single() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert_eq!(
            intersect_all(vec![a.clone()], &Parallelism::sequential()),
            Some(a)
        );
    }

    #[test]
    fn intersect_all_matches_left_fold() {
        let regions = vec![
            r(0.0, 0.0, 10.0, 10.0),
            r(1.0, 0.0, 11.0, 9.0),
            r(0.0, 2.0, 9.0, 12.0),
            r(3.0, 1.0, 8.0, 8.0),
            r(2.0, 2.0, 12.0, 12.0),
        ];
        let fold = regions[1..]
            .iter()
            .fold(regions[0].clone(), |acc, next| acc.intersect(next));
        for workers in [1, 2, 4] {
            let par = Parallelism::new(workers).with_sequential_cutoff(1);
            let tree = intersect_all(regions.clone(), &par).expect("non-empty input");
            assert_eq!(
                sorted_boxes(&tree),
                sorted_boxes(&fold),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn intersect_all_annihilates_on_disjoint() {
        let regions = vec![
            r(0.0, 0.0, 1.0, 1.0),
            r(5.0, 5.0, 6.0, 6.0),
            r(0.0, 0.0, 10.0, 10.0),
        ];
        let out = intersect_all(regions, &Parallelism::new(2).with_sequential_cutoff(1))
            .expect("non-empty input");
        assert!(out.is_empty());
    }

    fn sorted_boxes(region: &Region) -> Vec<String> {
        let mut v: Vec<String> = region.boxes().iter().map(|b| format!("{b:?}")).collect();
        v.sort();
        v
    }
}
