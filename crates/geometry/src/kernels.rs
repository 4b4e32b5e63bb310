//! Lane-chunked dominance/transform/min-dist kernels with runtime
//! dispatch.
//!
//! Every query in the workspace bottoms out in three scalar inner
//! loops: the dominance test ([`crate::dominates_components`] and its
//! dynamic/global flavours), the absolute-distance transform
//! ([`crate::abs_diff_into`]), and the per-dimension min-distance
//! ([`crate::Rect::min_l1_coords`]). This module provides 4-lane
//! *chunked* variants of each — branch-free accumulation over
//! `chunks_exact(4)` with a scalar tail — written in safe Rust (the
//! crate carries `#![forbid(unsafe_code)]`, so no `core::arch`
//! intrinsics) in a shape LLVM autovectorizes, plus *batched
//! one-vs-many* entry points that answer dominance for a whole
//! contiguous block per call and record query statistics once per block
//! instead of once per pair.
//!
//! ## Dispatch
//!
//! A process-wide [`KernelDispatch`] policy selects the implementation
//! at runtime: `Scalar` runs the historical early-exit loops, `Chunked`
//! the lane-chunked ones. The default is `Chunked`; the `WNRS_KERNELS`
//! environment variable (`scalar` | `chunked` | `auto`) or
//! [`set_dispatch`] / [`set_dispatch_from_str`] (the CLI's `--kernels`
//! flag) override it for A/B comparisons. The selector is a single
//! `Relaxed` atomic load on the hot path; ordering carries no
//! cross-thread data dependency (the value only picks between two
//! bit-identical implementations), per the policy table in DESIGN.md §4.
//!
//! ## Bit-identity contract
//!
//! The chunked kernels are **bit-identical** to the scalar ones on
//! every input the workspace produces (finite coordinates, ties, `-0.0`
//! included), which is what makes runtime dispatch safe:
//!
//! * dominance is a pure pair predicate `¬∃i: aᵢ>bᵢ ∧ ∃i: aᵢ<bᵢ` — the
//!   scalar early exit is an evaluation-order detail, so a branch-free
//!   evaluation of all dimensions returns the same boolean;
//! * the transform is elementwise (`|aᵢ−bᵢ|`), so chunking cannot
//!   change any lane;
//! * the per-dimension min-distance replaces the scalar branches with
//!   `max(lo−q, max(q−hi, 0.0)) + 0.0` — exact for non-zero distances,
//!   and the trailing `+ 0.0` canonicalises a possible `-0.0` (only
//!   reachable via signed-zero corner inputs) to the `+0.0` the scalar
//!   branches produce. Tail handling: the last `len mod 4` dimensions
//!   always run the same lane formula via `ChunksExact::remainder`, and
//!   L1 summation stays strictly sequential left-to-right (only the
//!   per-lane distance computation is vectorized, never the adds).
//!
//! The contract is enforced by proptests in
//! `crates/geometry/tests/kernel_equivalence.rs` (dims 1–16, adversarial
//! signed zeros and ties) and end-to-end by
//! `crates/core/tests/kernel_pipeline.rs`.

use crate::point::Point;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel implementation the process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelDispatch {
    /// The historical early-exit scalar loops.
    Scalar,
    /// 4-lane chunked, branch-free kernels (the default).
    Chunked,
}

impl KernelDispatch {
    /// The stable flag/export name (`scalar` / `chunked`).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            KernelDispatch::Scalar => "scalar",
            KernelDispatch::Chunked => "chunked",
        }
    }
}

/// 0 = unresolved (first use reads `WNRS_KERNELS`), 1 = scalar,
/// 2 = chunked. Relaxed throughout: the value only selects between two
/// bit-identical implementations, so no ordering is required.
static DISPATCH: AtomicU8 = AtomicU8::new(0);

const TAG_SCALAR: u8 = 1;
const TAG_CHUNKED: u8 = 2;

/// The currently selected dispatch policy. First call resolves the
/// `WNRS_KERNELS` environment default (`scalar`/`chunked`; anything
/// else, including unset and `auto`, selects `Chunked`).
#[inline]
#[must_use]
pub fn current() -> KernelDispatch {
    match DISPATCH.load(Ordering::Relaxed) {
        TAG_SCALAR => KernelDispatch::Scalar,
        TAG_CHUNKED => KernelDispatch::Chunked,
        _ => init_from_env(),
    }
}

/// Resolves the environment default exactly once per process (a lost
/// race re-reads the same environment, so the outcome is identical).
#[cold]
fn init_from_env() -> KernelDispatch {
    let tag = match std::env::var("WNRS_KERNELS").as_deref() {
        Ok("scalar") => TAG_SCALAR,
        _ => TAG_CHUNKED,
    };
    // Keep a concurrent explicit set_dispatch() if one won the race.
    let _ = DISPATCH.compare_exchange(0, tag, Ordering::Relaxed, Ordering::Relaxed);
    match DISPATCH.load(Ordering::Relaxed) {
        TAG_SCALAR => KernelDispatch::Scalar,
        _ => KernelDispatch::Chunked,
    }
}

/// Selects the dispatch policy for the whole process (A/B switch).
pub fn set_dispatch(d: KernelDispatch) {
    let tag = match d {
        KernelDispatch::Scalar => TAG_SCALAR,
        KernelDispatch::Chunked => TAG_CHUNKED,
    };
    DISPATCH.store(tag, Ordering::Relaxed);
}

/// Parses and applies a `--kernels` flag value: `scalar`, `chunked`, or
/// `auto` (re-resolve the `WNRS_KERNELS` environment default). Returns
/// the dispatch now in effect.
pub fn set_dispatch_from_str(s: &str) -> Result<KernelDispatch, String> {
    match s {
        "scalar" => {
            set_dispatch(KernelDispatch::Scalar);
            Ok(KernelDispatch::Scalar)
        }
        "chunked" => {
            set_dispatch(KernelDispatch::Chunked);
            Ok(KernelDispatch::Chunked)
        }
        "auto" => {
            DISPATCH.store(0, Ordering::Relaxed);
            Ok(current())
        }
        other => Err(format!(
            "unknown kernel dispatch {other:?} (expected scalar, chunked or auto)"
        )),
    }
}

// ---------------------------------------------------------------------
// Pair kernels (no stats recording — callers tally per pair or batch)
// ---------------------------------------------------------------------

/// Scalar static dominance `a ≻ b` on raw slices: the historical
/// early-exit loop, without stats recording.
#[inline]
#[must_use]
pub fn dominates_scalar(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strict = false;
    for (&x, &y) in a.iter().zip(b.iter()) {
        if x > y {
            return false;
        }
        if x < y {
            strict = true;
        }
    }
    strict
}

/// Chunked static dominance: 4-lane branch-free accumulation of the
/// `∃ aᵢ>bᵢ` / `∃ aᵢ<bᵢ` flags, scalar tail. Bit-identical to
/// [`dominates_scalar`] (the early exit is evaluation order only).
#[inline]
#[must_use]
pub fn dominates_chunked(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    if a.len() < 4 {
        // No complete lane to chunk: all the work would happen in the
        // tail loop, which — unlike the scalar reference — cannot exit
        // on the first `>`. Delegating keeps low-d pair calls on the
        // early-exit path (identical answer by definition).
        return dominates_scalar(a, b);
    }
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    let mut gt = [false; 4];
    let mut lt = [false; 4];
    for (xs, ys) in ac.by_ref().zip(bc.by_ref()) {
        for ((g, l), (&x, &y)) in gt.iter_mut().zip(lt.iter_mut()).zip(xs.iter().zip(ys)) {
            *g |= x > y;
            *l |= x < y;
        }
    }
    let mut any_gt = gt.iter().any(|&g| g);
    let mut any_lt = lt.iter().any(|&l| l);
    for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
        any_gt |= x > y;
        any_lt |= x < y;
    }
    !any_gt && any_lt
}

/// Scalar dynamic dominance `a ≻_q b` on raw slices (early exit, no
/// stats).
#[inline]
#[must_use]
pub fn dominates_dyn_scalar(a: &[f64], b: &[f64], q: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), q.len());
    let mut strict = false;
    for ((&x, &y), &c) in a.iter().zip(b.iter()).zip(q.iter()) {
        let da = (c - x).abs();
        let db = (c - y).abs();
        if da > db {
            return false;
        }
        if da < db {
            strict = true;
        }
    }
    strict
}

/// Chunked dynamic dominance: per-lane `|c−x|` vs `|c−y|` with
/// branch-free flag accumulation. Bit-identical to
/// [`dominates_dyn_scalar`].
#[inline]
#[must_use]
pub fn dominates_dyn_chunked(a: &[f64], b: &[f64], q: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), q.len());
    if a.len() < 4 {
        // See `dominates_chunked`: tail-only work forfeits the early
        // exit for nothing.
        return dominates_dyn_scalar(a, b, q);
    }
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    let mut qc = q.chunks_exact(4);
    let mut gt = [false; 4];
    let mut lt = [false; 4];
    for ((xs, ys), cs) in ac.by_ref().zip(bc.by_ref()).zip(qc.by_ref()) {
        let lanes = gt.iter_mut().zip(lt.iter_mut());
        for ((g, l), ((&x, &y), &c)) in lanes.zip(xs.iter().zip(ys).zip(cs)) {
            let da = (c - x).abs();
            let db = (c - y).abs();
            *g |= da > db;
            *l |= da < db;
        }
    }
    let mut any_gt = gt.iter().any(|&g| g);
    let mut any_lt = lt.iter().any(|&l| l);
    let tail = ac
        .remainder()
        .iter()
        .zip(bc.remainder())
        .zip(qc.remainder());
    for ((&x, &y), &c) in tail {
        let da = (c - x).abs();
        let db = (c - y).abs();
        any_gt |= da > db;
        any_lt |= da < db;
    }
    !any_gt && any_lt
}

/// Scalar global dominance on raw slices (early exit, no stats).
#[inline]
#[must_use]
pub fn dominates_global_scalar(a: &[f64], b: &[f64], q: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), q.len());
    let mut strict = false;
    for ((&x, &y), &c) in a.iter().zip(b.iter()).zip(q.iter()) {
        let sa = x - c;
        let sb = y - c;
        if sa * sb < 0.0 {
            return false;
        }
        let (da, db) = (sa.abs(), sb.abs());
        if da > db {
            return false;
        }
        if da < db {
            strict = true;
        }
    }
    strict
}

/// Chunked global dominance: the orthant check folds into a third
/// branch-free flag. Bit-identical to [`dominates_global_scalar`].
#[inline]
#[must_use]
pub fn dominates_global_chunked(a: &[f64], b: &[f64], q: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), q.len());
    if a.len() < 4 {
        // See `dominates_chunked`: tail-only work forfeits the early
        // exit for nothing.
        return dominates_global_scalar(a, b, q);
    }
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    let mut qc = q.chunks_exact(4);
    let mut opp = [false; 4];
    let mut gt = [false; 4];
    let mut lt = [false; 4];
    for ((xs, ys), cs) in ac.by_ref().zip(bc.by_ref()).zip(qc.by_ref()) {
        let flags = opp.iter_mut().zip(gt.iter_mut()).zip(lt.iter_mut());
        for (((o, g), l), ((&x, &y), &c)) in flags.zip(xs.iter().zip(ys).zip(cs)) {
            let sa = x - c;
            let sb = y - c;
            *o |= sa * sb < 0.0;
            let da = sa.abs();
            let db = sb.abs();
            *g |= da > db;
            *l |= da < db;
        }
    }
    let mut any_opp = opp.iter().any(|&o| o);
    let mut any_gt = gt.iter().any(|&g| g);
    let mut any_lt = lt.iter().any(|&l| l);
    let tail = ac
        .remainder()
        .iter()
        .zip(bc.remainder())
        .zip(qc.remainder());
    for ((&x, &y), &c) in tail {
        let sa = x - c;
        let sb = y - c;
        any_opp |= sa * sb < 0.0;
        let da = sa.abs();
        let db = sb.abs();
        any_gt |= da > db;
        any_lt |= da < db;
    }
    !any_opp && !any_gt && any_lt
}

/// Dispatching static dominance on raw slices, without stats — for
/// callers that batch their own tallies per block/leaf.
#[inline]
#[must_use]
pub fn dominates_raw(a: &[f64], b: &[f64]) -> bool {
    match current() {
        KernelDispatch::Scalar => dominates_scalar(a, b),
        KernelDispatch::Chunked => dominates_chunked(a, b),
    }
}

/// Dispatching dynamic dominance on raw slices, without stats.
#[inline]
#[must_use]
pub fn dominates_dyn_raw(a: &[f64], b: &[f64], q: &[f64]) -> bool {
    match current() {
        KernelDispatch::Scalar => dominates_dyn_scalar(a, b, q),
        KernelDispatch::Chunked => dominates_dyn_chunked(a, b, q),
    }
}

/// Dispatching global dominance on raw slices, without stats.
#[inline]
#[must_use]
pub fn dominates_global_raw(a: &[f64], b: &[f64], q: &[f64]) -> bool {
    match current() {
        KernelDispatch::Scalar => dominates_global_scalar(a, b, q),
        KernelDispatch::Chunked => dominates_global_chunked(a, b, q),
    }
}

// ---------------------------------------------------------------------
// Transform / min-dist kernels
// ---------------------------------------------------------------------

/// Scalar absolute-distance transform into a reused buffer (no stats).
#[inline]
pub fn abs_diff_into_scalar(p: &[f64], origin: &[f64], out: &mut Vec<f64>) {
    debug_assert_eq!(p.len(), origin.len());
    out.clear();
    out.extend(p.iter().zip(origin.iter()).map(|(a, b)| (a - b).abs()));
}

/// Chunked absolute-distance transform: each 4-lane chunk is computed
/// into a stack array and appended whole, so no prefill pass touches
/// the buffer. Elementwise, hence trivially bit-identical to
/// [`abs_diff_into_scalar`].
#[inline]
pub fn abs_diff_into_chunked(p: &[f64], origin: &[f64], out: &mut Vec<f64>) {
    debug_assert_eq!(p.len(), origin.len());
    out.clear();
    out.reserve(p.len());
    let mut pc = p.chunks_exact(4);
    let mut qc = origin.chunks_exact(4);
    for (xs, cs) in pc.by_ref().zip(qc.by_ref()) {
        let mut lane = [0.0f64; 4];
        for (o, (&x, &c)) in lane.iter_mut().zip(xs.iter().zip(cs)) {
            *o = (x - c).abs();
        }
        out.extend_from_slice(&lane);
    }
    for (&x, &c) in pc.remainder().iter().zip(qc.remainder()) {
        out.push((x - c).abs());
    }
}

/// Dispatching absolute-distance transform, without stats.
///
/// Both dispatches route to the scalar stream loop: `(a - b).abs()`
/// over zipped slices is branch-free already, so LLVM emits packed
/// code for it, and the explicit lane variant only adds per-chunk
/// append overhead (0.7–1.0x in `kernelbench`'s transform row, which
/// measures [`abs_diff_into_chunked`] directly to keep that ablation
/// on record). The chunked variant remains the reference lane
/// formulation for the equivalence suite.
#[inline]
pub fn abs_diff_into_raw(p: &[f64], origin: &[f64], out: &mut Vec<f64>) {
    abs_diff_into_scalar(p, origin, out);
}

/// Branch-free per-dimension distance from `q` to `[lo, hi]`. Exact for
/// non-zero distances; the trailing `+ 0.0` canonicalises the `-0.0`
/// that signed-zero corner inputs can produce, matching the `+0.0` the
/// scalar branches return.
#[inline]
fn lane_dist(lo: f64, hi: f64, q: f64) -> f64 {
    f64::max(lo - q, f64::max(q - hi, 0.0)) + 0.0
}

/// Scalar per-dimension branch form of the min-distance (no stats):
/// mirrors `Rect::min_l1_coords` exactly.
#[inline]
#[must_use]
pub fn min_l1_scalar(lo: &[f64], hi: &[f64], q: &[f64]) -> f64 {
    debug_assert_eq!(lo.len(), hi.len());
    debug_assert_eq!(lo.len(), q.len());
    let dims = lo.iter().zip(hi.iter()).zip(q.iter());
    dims.map(|((&l, &h), &c)| {
        if c < l {
            l - c
        } else if c > h {
            c - h
        } else {
            0.0
        }
    })
    .sum()
}

/// Chunked minimum L1 distance: the four lane distances of each chunk
/// are computed branch-free, then added **sequentially left-to-right**
/// so the summation order — and therefore every rounding step — is
/// identical to [`min_l1_scalar`].
#[inline]
#[must_use]
pub fn min_l1_chunked(lo: &[f64], hi: &[f64], q: &[f64]) -> f64 {
    debug_assert_eq!(lo.len(), hi.len());
    debug_assert_eq!(lo.len(), q.len());
    let mut lc = lo.chunks_exact(4);
    let mut hc = hi.chunks_exact(4);
    let mut qc = q.chunks_exact(4);
    let mut sum = 0.0f64;
    for ((ls, hs), cs) in lc.by_ref().zip(hc.by_ref()).zip(qc.by_ref()) {
        let mut lanes = [0.0f64; 4];
        for (d, ((&l, &h), &c)) in lanes.iter_mut().zip(ls.iter().zip(hs).zip(cs)) {
            *d = lane_dist(l, h, c);
        }
        for d in lanes {
            sum += d;
        }
    }
    let tail = lc
        .remainder()
        .iter()
        .zip(hc.remainder())
        .zip(qc.remainder());
    for ((&l, &h), &c) in tail {
        sum += lane_dist(l, h, c);
    }
    sum
}

/// Dispatching minimum L1 distance from `q` to the box `[lo, hi]`.
#[inline]
#[must_use]
pub fn min_l1_raw(lo: &[f64], hi: &[f64], q: &[f64]) -> f64 {
    match current() {
        KernelDispatch::Scalar => min_l1_scalar(lo, hi, q),
        KernelDispatch::Chunked => min_l1_chunked(lo, hi, q),
    }
}

/// Scalar per-dimension min-distance vector (the transformed lower
/// corner BBS prunes with) into a reused buffer.
#[inline]
pub fn min_dists_into_scalar(lo: &[f64], hi: &[f64], q: &[f64], out: &mut Vec<f64>) {
    debug_assert_eq!(lo.len(), hi.len());
    debug_assert_eq!(lo.len(), q.len());
    out.clear();
    let dims = lo.iter().zip(hi.iter()).zip(q.iter());
    out.extend(dims.map(|((&l, &h), &c)| {
        if c < l {
            l - c
        } else if c > h {
            c - h
        } else {
            0.0
        }
    }));
}

/// Chunked per-dimension min-distance vector: each 4-lane chunk of
/// branch-free `lane_dist` values is appended whole (no prefill
/// pass). Elementwise, bit-identical to [`min_dists_into_scalar`].
#[inline]
pub fn min_dists_into_chunked(lo: &[f64], hi: &[f64], q: &[f64], out: &mut Vec<f64>) {
    debug_assert_eq!(lo.len(), hi.len());
    debug_assert_eq!(lo.len(), q.len());
    out.clear();
    out.reserve(lo.len());
    let mut lc = lo.chunks_exact(4);
    let mut hc = hi.chunks_exact(4);
    let mut qc = q.chunks_exact(4);
    for ((ls, hs), cs) in lc.by_ref().zip(hc.by_ref()).zip(qc.by_ref()) {
        let mut lane = [0.0f64; 4];
        for (o, ((&l, &h), &c)) in lane.iter_mut().zip(ls.iter().zip(hs).zip(cs)) {
            *o = lane_dist(l, h, c);
        }
        out.extend_from_slice(&lane);
    }
    let tail = lc
        .remainder()
        .iter()
        .zip(hc.remainder())
        .zip(qc.remainder());
    for ((&l, &h), &c) in tail {
        out.push(lane_dist(l, h, c));
    }
}

/// Dispatching per-dimension min-distance vector, without stats.
#[inline]
pub fn min_dists_into_raw(lo: &[f64], hi: &[f64], q: &[f64], out: &mut Vec<f64>) {
    match current() {
        KernelDispatch::Scalar => min_dists_into_scalar(lo, hi, q, out),
        KernelDispatch::Chunked => min_dists_into_chunked(lo, hi, q, out),
    }
}

// ---------------------------------------------------------------------
// Batched one-vs-many entry points
// ---------------------------------------------------------------------

/// Rows evaluated per strip by the chunked block kernels. A strip is
/// judged branch-free as a whole (one `any` flag), then re-scanned for
/// the first dominating row only when it contains one — so the
/// data-dependent branch fires once per strip instead of once per row,
/// while the reported row tallies stay identical to the scalar early
/// exit.
const STRIP_ROWS: usize = 64;

/// Rows of [`any_dominates_block`] scanned with the scalar early-exit
/// loop before strip-mining begins. Positive probes against a
/// priority-ordered arena usually resolve this early; without the
/// prefix every such hit would pay a full branch-free strip plus the
/// first-dominator re-scan.
const PREFIX_ROWS: usize = 8;

/// Expands to a `match` over the runtime dimensionality that calls the
/// const-generic `$f::<D>` for `D = 1..=16` (full unroll + LLVM
/// autovectorization per dimension) and `$generic` beyond.
macro_rules! dim_dispatch {
    ($dim:expr, $f:ident($($args:expr),*), $generic:expr) => {
        match $dim {
            1 => $f::<1>($($args),*),
            2 => $f::<2>($($args),*),
            3 => $f::<3>($($args),*),
            4 => $f::<4>($($args),*),
            5 => $f::<5>($($args),*),
            6 => $f::<6>($($args),*),
            7 => $f::<7>($($args),*),
            8 => $f::<8>($($args),*),
            9 => $f::<9>($($args),*),
            10 => $f::<10>($($args),*),
            11 => $f::<11>($($args),*),
            12 => $f::<12>($($args),*),
            13 => $f::<13>($($args),*),
            14 => $f::<14>($($args),*),
            15 => $f::<15>($($args),*),
            16 => $f::<16>($($args),*),
            _ => $generic,
        }
    };
}

/// Whether any row of `strip` dominates `t`, fixed dimensionality:
/// every row is evaluated branch-free and the per-row results fold into
/// one flag, so the loop carries no data-dependent branches at all.
#[inline]
fn strip_any_fixed<const D: usize>(strip: &[f64], t: &[f64]) -> bool {
    // `dim_dispatch!` selects D == t.len(); the defensive fallback
    // keeps this total without a panic path.
    let Ok(t) = <&[f64; D]>::try_from(t) else {
        return strip_any_generic(strip, D, t);
    };
    let mut any = false;
    for row in strip.chunks_exact(D) {
        let mut gt = false;
        let mut lt = false;
        for (&x, &y) in row.iter().zip(t.iter()) {
            gt |= x > y;
            lt |= x < y;
        }
        any |= !gt & lt;
    }
    any
}

/// Generic-dimensionality fallback of [`strip_any_fixed`].
#[inline]
fn strip_any_generic(strip: &[f64], dim: usize, t: &[f64]) -> bool {
    let mut any = false;
    for row in strip.chunks_exact(dim) {
        any |= dominates_chunked(row, t);
    }
    any
}

/// Number of rows of `strip` that dominate `t`, fixed dimensionality
/// (branch-free accumulation; the microbench's throughput kernel).
#[inline]
fn strip_count_fixed<const D: usize>(strip: &[f64], t: &[f64]) -> usize {
    // See `strip_any_fixed` on the defensive fallback.
    let Ok(t) = <&[f64; D]>::try_from(t) else {
        return strip_count_generic(strip, D, t);
    };
    let mut n = 0usize;
    for row in strip.chunks_exact(D) {
        let mut gt = false;
        let mut lt = false;
        for (&x, &y) in row.iter().zip(t.iter()) {
            gt |= x > y;
            lt |= x < y;
        }
        n += usize::from(!gt & lt);
    }
    n
}

/// Generic-dimensionality fallback of [`strip_count_fixed`].
#[inline]
fn strip_count_generic(strip: &[f64], dim: usize, t: &[f64]) -> usize {
    strip
        .chunks_exact(dim)
        .filter(|row| dominates_chunked(row, t))
        .count()
}

/// Whether any row of the flat row-major arena `block` (`dim` coords
/// per row) statically dominates `t`. Replaces per-pair
/// `dominates_components` loops in the BBS leaf/arena scans. Under
/// `Chunked` dispatch the block is strip-mined (`STRIP_ROWS` rows per
/// branch-free evaluation); rows report in scalar order, so the
/// dominance-test tally — recorded **once per call** — is the number of
/// rows the scalar early-exit loop would have examined, and the boolean
/// answer is identical.
#[must_use]
pub fn any_dominates_block(block: &[f64], dim: usize, t: &[f64]) -> bool {
    debug_assert!(dim > 0 && block.len().is_multiple_of(dim));
    debug_assert_eq!(t.len(), dim);
    let mut tested = 0u64;
    let mut found = false;
    match current() {
        KernelDispatch::Scalar => {
            for row in block.chunks_exact(dim) {
                tested += 1;
                if dominates_scalar(row, t) {
                    found = true;
                    break;
                }
            }
        }
        KernelDispatch::Chunked => {
            // Scalar prefix: BBS-style callers order their arenas so
            // the strongest pruners come first, making positive probes
            // resolve within the first few rows — where a branch-free
            // strip would evaluate STRIP_ROWS rows and then re-scan.
            // The prefix keeps those hits on the early-exit path; the
            // strips only take over for the long all-miss scans where
            // they win.
            let prefix_rows = PREFIX_ROWS.min(block.len() / dim);
            for row in block[..prefix_rows * dim].chunks_exact(dim) {
                tested += 1;
                if dominates_scalar(row, t) {
                    found = true;
                    break;
                }
            }
            let strip_len = dim * STRIP_ROWS;
            let mut start = prefix_rows * dim;
            while start < block.len() && !found {
                let end = (start + strip_len).min(block.len());
                let strip = &block[start..end];
                if dim_dispatch!(
                    dim,
                    strip_any_fixed(strip, t),
                    strip_any_generic(strip, dim, t)
                ) {
                    // The strip contains a dominator: locate the first
                    // one so the reported tally matches the scalar
                    // early exit exactly.
                    for row in strip.chunks_exact(dim) {
                        tested += 1;
                        if dominates_chunked(row, t) {
                            found = true;
                            break;
                        }
                    }
                } else {
                    tested += (strip.len() / dim) as u64;
                }
                start = end;
            }
        }
    }
    crate::stats::record_dominance_tests(tested);
    crate::stats::record_kernel_batch(tested);
    found
}

/// Number of rows of the flat arena `block` that statically dominate
/// `t` — a full scan with no early exit (every row is one dominance
/// test). The microbench's throughput entry point; also useful for
/// cardinality probes.
#[must_use]
pub fn count_dominating_block(block: &[f64], dim: usize, t: &[f64]) -> usize {
    debug_assert!(dim > 0 && block.len().is_multiple_of(dim));
    debug_assert_eq!(t.len(), dim);
    let rows = (block.len() / dim) as u64;
    let n = match current() {
        KernelDispatch::Scalar => block
            .chunks_exact(dim)
            .filter(|row| dominates_scalar(row, t))
            .count(),
        KernelDispatch::Chunked => {
            dim_dispatch!(
                dim,
                strip_count_fixed(block, t),
                strip_count_generic(block, dim, t)
            )
        }
    };
    crate::stats::record_dominance_tests(rows);
    crate::stats::record_kernel_batch(rows);
    n
}

/// Whether any point of `points` dynamically dominates `b` w.r.t. `q`.
/// The batched form of the dynamic-skyline membership scan: same
/// iteration order and early exit as `points.iter().any(…)`, one stats
/// record per call.
#[must_use]
pub fn any_dominates_dyn_points(points: &[Point], b: &Point, q: &Point) -> bool {
    let mut tested = 0u64;
    let mut found = false;
    match current() {
        KernelDispatch::Scalar => {
            for p in points {
                tested += 1;
                if dominates_dyn_scalar(p.coords(), b.coords(), q.coords()) {
                    found = true;
                    break;
                }
            }
        }
        KernelDispatch::Chunked => {
            for p in points {
                tested += 1;
                if dominates_dyn_chunked(p.coords(), b.coords(), q.coords()) {
                    found = true;
                    break;
                }
            }
        }
    }
    crate::stats::record_dominance_tests(tested);
    crate::stats::record_kernel_batch(tested);
    found
}

/// Whether any point of `points` globally dominates the point with
/// coordinates `b` w.r.t. `q`. The batched form of the BBRS candidate
/// scan: same iteration order and early exit, one stats record per call.
#[must_use]
pub fn any_dominates_global_points(points: &[Point], b: &[f64], q: &Point) -> bool {
    let mut tested = 0u64;
    let mut found = false;
    match current() {
        KernelDispatch::Scalar => {
            for p in points {
                tested += 1;
                if dominates_global_scalar(p.coords(), b, q.coords()) {
                    found = true;
                    break;
                }
            }
        }
        KernelDispatch::Chunked => {
            for p in points {
                tested += 1;
                if dominates_global_chunked(p.coords(), b, q.coords()) {
                    found = true;
                    break;
                }
            }
        }
    }
    crate::stats::record_dominance_tests(tested);
    crate::stats::record_kernel_batch(tested);
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    // The dispatch selector is process-global, so every test that
    // mutates it lives in this single test fn — the parallel harness
    // must not interleave two tests that assert on `current()`.
    #[test]
    fn dispatch_round_trips_and_batched_paths() {
        let before = current();
        set_dispatch(KernelDispatch::Scalar);
        assert_eq!(current(), KernelDispatch::Scalar);
        assert_eq!(current().name(), "scalar");
        set_dispatch(KernelDispatch::Chunked);
        assert_eq!(current(), KernelDispatch::Chunked);
        assert_eq!(
            set_dispatch_from_str("scalar").unwrap(),
            KernelDispatch::Scalar
        );
        assert_eq!(
            set_dispatch_from_str("chunked").unwrap(),
            KernelDispatch::Chunked
        );
        assert!(set_dispatch_from_str("wat").is_err());
        // `auto` resolves the environment default (chunked when unset).
        let auto = set_dispatch_from_str("auto").unwrap();
        assert_eq!(auto, current());

        // Batched entries agree across both dispatches, including on
        // blocks larger than one strip.
        let mut st = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            st ^= st << 13;
            st ^= st >> 7;
            st ^= st << 17;
            (st >> 11) as f64 / (1u64 << 53) as f64
        };
        let dim = 3;
        let block: Vec<f64> = (0..dim * (2 * super::STRIP_ROWS + 7))
            .map(|_| next())
            .collect();
        let t: Vec<f64> = (0..dim).map(|_| next() * 0.6 + 0.2).collect();
        set_dispatch(KernelDispatch::Scalar);
        let any_s = any_dominates_block(&block, dim, &t);
        let count_s = count_dominating_block(&block, dim, &t);
        set_dispatch(KernelDispatch::Chunked);
        assert_eq!(any_dominates_block(&block, dim, &t), any_s);
        assert_eq!(count_dominating_block(&block, dim, &t), count_s);

        set_dispatch(before);
    }

    #[test]
    fn chunked_matches_scalar_on_fixed_cases() {
        let cases: &[(Vec<f64>, Vec<f64>)] = &[
            (vec![1.0], vec![2.0]),
            (vec![1.0, 2.0, 3.0], vec![1.0, 2.0, 3.0]),
            (vec![-0.0, 1.0, 2.0, 3.0], vec![0.0, 1.0, 2.0, 3.0]),
            (vec![1.0, 2.0, 3.0, 4.0, 5.0], vec![1.0, 2.0, 3.0, 4.0, 6.0]),
            (
                vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0],
            ),
            (
                vec![5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0],
            ),
        ];
        for (a, b) in cases {
            assert_eq!(
                dominates_chunked(a, b),
                dominates_scalar(a, b),
                "{a:?} {b:?}"
            );
            assert_eq!(
                dominates_chunked(b, a),
                dominates_scalar(b, a),
                "{b:?} {a:?}"
            );
            let q: Vec<f64> = a.iter().map(|x| x * 0.5 + 0.25).collect();
            assert_eq!(
                dominates_dyn_chunked(a, b, &q),
                dominates_dyn_scalar(a, b, &q)
            );
            assert_eq!(
                dominates_global_chunked(a, b, &q),
                dominates_global_scalar(a, b, &q)
            );
        }
    }

    #[test]
    fn min_l1_signed_zero_canonicalisation() {
        // lo = -0.0, q = +0.0 is the corner where the branch-free form
        // would produce -0.0 without the canonicalising `+ 0.0`.
        let lo = [-0.0, 1.0, 2.0, 3.0, -0.0];
        let hi = [-0.0, 2.0, 3.0, 4.0, 0.0];
        let q = [0.0, 1.5, 9.0, 0.0, 0.0];
        let s = min_l1_scalar(&lo, &hi, &q);
        let c = min_l1_chunked(&lo, &hi, &q);
        assert_eq!(s.to_bits(), c.to_bits());
        let mut bs = Vec::new();
        let mut bc = Vec::new();
        min_dists_into_scalar(&lo, &hi, &q, &mut bs);
        min_dists_into_chunked(&lo, &hi, &q, &mut bc);
        let sb: Vec<u64> = bs.iter().map(|v| v.to_bits()).collect();
        let cb: Vec<u64> = bc.iter().map(|v| v.to_bits()).collect();
        assert_eq!(sb, cb);
    }

    #[test]
    fn transform_buffers_match() {
        let p = [1.0, -2.0, 3.5, 4.0, 5.25, -6.0];
        let o = [0.5, 2.0, -3.5, 4.0, 0.0, 6.0];
        let mut a = vec![9.0; 2];
        let mut b = Vec::new();
        abs_diff_into_scalar(&p, &o, &mut a);
        abs_diff_into_chunked(&p, &o, &mut b);
        assert_eq!(a, b);
    }
}
