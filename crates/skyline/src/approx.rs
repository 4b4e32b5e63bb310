//! Approximate dynamic skylines and anti-dominance regions
//! (Section VI-B.1 of the paper).
//!
//! To make safe-region computation cheap, the paper precomputes for each
//! customer an approximation of its DSL: the DSL is sorted along one
//! dimension and every `(|DSL|/k)`-th point is kept, **always including
//! the first and the last point** so the approximate region keeps the
//! staircase's full extent.
//!
//! The approximate anti-DDR is then built *without* the Eqn-(5) pair
//! merging: each sampled point contributes the box `[0, s]` directly
//! (plus the two extended end boxes). Because `[0, s]` for a skyline
//! point `s` is always inside the true anti-dominance region, the
//! approximation is a **conservative under-approximation** — the shaded
//! region of the paper's Fig. 16 is what it misses. A safe region built
//! from it can only be smaller than the exact one, never unsafe.
//!
//! Two forms are provided: the boxed-[`Point`] API ([`sample_dsl`],
//! [`approx_anti_ddr`]) and the flat, allocation-free pipeline
//! ([`approx_dsl_sample_into`] with an [`ApproxDslScratch`]) used by the
//! offline store build. Both produce bit-identical samples.

use crate::bbs::{bbs_dynamic_skyline_scratch, BbsScratch};
use wnrs_geometry::region::{Antichain, Corners};
use wnrs_geometry::{
    cmp_f64, dominance::prune_dominated, dominates, dominates_components, Point, PointsView, Region,
};
use wnrs_rtree::{ItemId, NodeId, NodeSource};

/// Samples a transformed-space DSL down to roughly `k` points: the first
/// and last point of the sequence sorted by dimension 0 are always kept,
/// plus every `⌈|DSL|/k⌉`-th point in between.
///
/// Takes the DSL by value and sorts an index permutation, so no point is
/// ever cloned. Returns the full (pruned, sorted) skyline when
/// `|DSL| ≤ k`.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn sample_dsl(dsl_t: Vec<Point>, k: usize) -> Vec<Point> {
    assert!(k > 0, "sample size k must be positive");
    let mut sky = dsl_t;
    prune_dominated(&mut sky, dominates);
    dedup(&mut sky);
    let m = sky.len();
    // Sort a permutation, not the points: comparisons read through the
    // indices and the picked points are moved out at the end.
    let mut perm: Vec<usize> = (0..m).collect();
    perm.sort_by(|&a, &b| cmp_f64(sky[a][0], sky[b][0]));
    let mut picks: Vec<usize> = Vec::with_capacity(k.min(m) + 2);
    if m <= k.max(2) {
        picks.extend(perm.iter().copied());
    } else {
        let step = m.div_ceil(k);
        picks.push(perm[0]);
        let mut i = step;
        while i < m - 1 {
            picks.push(perm[i]);
            i += step;
        }
        picks.push(perm[m - 1]);
    }
    let mut slots: Vec<Option<Point>> = sky.into_iter().map(Some).collect();
    picks.into_iter().filter_map(|j| slots[j].take()).collect()
}

/// The approximate anti-dominance region from a (sampled) transformed
/// skyline: one box `[0, s]` per sample plus the two end boxes extended
/// to `maxd` (no pair merging), mirroring the paper's approximate
/// construction. A subset of [`crate::anti_ddr`] of the full skyline.
pub fn approx_anti_ddr(sample_t: &[Point], maxd: &Point) -> Region {
    let d = maxd.dim();
    let mut flat: Vec<f64> = Vec::with_capacity(sample_t.len() * d);
    for p in sample_t {
        flat.extend_from_slice(p.coords());
    }
    Region::from_corners(approx_anti_ddr_corners(&flat, maxd))
}

/// [`approx_anti_ddr`] as the upper corners of its origin-anchored
/// boxes, in the region's box order, reading the sample from a flat
/// buffer of `len · maxd.dim()` coordinates. The internal
/// prune/dedup/sort operates on an index permutation.
pub fn approx_anti_ddr_corners(sample_t: &[f64], maxd: &Point) -> Antichain<Corners> {
    let d = maxd.dim();
    debug_assert_eq!(sample_t.len() % d, 0);
    let n = sample_t.len() / d;
    let pt = |j: usize| &sample_t[j * d..(j + 1) * d];
    // Prune + dedup an index permutation — no point clones.
    let mut idx: Vec<usize> = Vec::with_capacity(n);
    for i in 0..n {
        let p = pt(i);
        if idx.iter().any(|&j| dominates_components(pt(j), p)) {
            continue;
        }
        idx.retain(|&j| !dominates_components(p, pt(j)));
        idx.push(i);
    }
    dedup_indices(&mut idx, |a, b| pt(a) == pt(b));
    let mut corners = Antichain::<Corners>::new(d);
    if idx.is_empty() {
        corners.offer(maxd.coords());
        return corners;
    }
    idx.sort_by(|&a, &b| cmp_f64(sample_t[a * d], sample_t[b * d]));
    let mut corner = vec![0.0; d];
    let cap = |j: usize, corner: &mut Vec<f64>| {
        for ((c, &p), &m) in corner.iter_mut().zip(pt(j)).zip(maxd.coords()) {
            *c = p.min(m);
        }
    };
    // Left extension: everything with dim-0 below the first sample.
    corner.copy_from_slice(maxd.coords());
    corner[0] = sample_t[idx[0] * d].min(maxd[0]);
    corners.offer(&corner);
    // One box per sampled skyline point.
    for &j in &idx {
        cap(j, &mut corner);
        corners.offer(&corner);
    }
    // Right extension: the last sample's dim-0 pushed to the maximum,
    // other dimensions kept (for 2-d this is the "below the staircase"
    // slab).
    cap(idx[idx.len() - 1], &mut corner);
    corner[0] = maxd[0];
    corners.offer(&corner);
    corners
}

/// Reusable state for [`approx_dsl_sample_into`]: a [`BbsScratch`] for
/// the per-customer BBS pass over a node source with node address `R`
/// and decode buffer `B` (the arena's by default), plus permutation and
/// output buffers for the sampling step. One scratch per worker; zero
/// allocations at steady state.
#[derive(Debug, Default)]
pub struct ApproxDslScratch<R = NodeId, B = ()> {
    bbs: BbsScratch<R, B>,
    perm: Vec<u64>,
    out: Vec<f64>,
}

impl<R: Default, B: Default> ApproxDslScratch<R, B> {
    /// An empty scratch; buffers grow on first use and are then reused.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Computes the sampled approximate DSL of the customer at `c` straight
/// into the scratch's flat output buffer and returns a borrowed view of
/// it: a scratch-based BBS pass over either node source followed by the
/// flat equivalent of [`sample_dsl`].
///
/// The returned sample is coordinate-for-coordinate identical to
/// `sample_dsl(dsl_t, k)` on the transformed DSL of `c`.
///
/// # Errors
///
/// Returns the source's error when a node read fails.
///
/// # Panics
///
/// Panics if `k == 0` or `c`'s dimensionality differs from the tree's.
pub fn approx_dsl_sample_into<'s, S: NodeSource>(
    tree: &S,
    c: &[f64],
    exclude: Option<ItemId>,
    k: usize,
    scratch: &'s mut ApproxDslScratch<S::NodeRef, S::Buf>,
) -> Result<PointsView<'s>, S::Error> {
    assert!(k > 0, "sample size k must be positive");
    bbs_dynamic_skyline_scratch(tree, c, exclude, &mut scratch.bbs)?;
    let dim = tree.dim();
    flat_sample(
        scratch.bbs.dsl_t().coords(),
        dim,
        k,
        &mut scratch.perm,
        &mut scratch.out,
    );
    Ok(PointsView::new(dim, &scratch.out))
}

/// Flat equivalent of [`sample_dsl`] over a `len · dim` coordinate
/// buffer: prunes, dedups and stably sorts an index permutation, then
/// writes the sampled coordinates into `out`. `perm` and `out` are
/// caller-owned scratch buffers reused across calls — the function
/// performs no allocation once they have capacity.
fn flat_sample(sky: &[f64], dim: usize, k: usize, perm: &mut Vec<u64>, out: &mut Vec<f64>) {
    debug_assert!(k > 0 && dim > 0);
    let n = sky.len() / dim;
    debug_assert!(
        n <= u32::MAX as usize,
        "flat sampler limited to 2^32 points"
    );
    out.clear();
    perm.clear();
    let pt = |j: u64| &sky[j as usize * dim..(j as usize + 1) * dim];
    // `prune_dominated`, on indices. (BBS already returns an antichain,
    // so nothing is dropped here in practice — kept for exact
    // equivalence with `sample_dsl` on arbitrary inputs.)
    for i in 0..n as u64 {
        let p = pt(i);
        if perm.iter().any(|&j| dominates_components(pt(j), p)) {
            continue;
        }
        perm.retain(|&j| !dominates_components(p, pt(j)));
        perm.push(i);
    }
    // `dedup`, mirroring its swap_remove traversal order.
    let mut i = 0;
    while i < perm.len() {
        let mut j = i + 1;
        while j < perm.len() {
            if pt(perm[i]) == pt(perm[j]) {
                perm.swap_remove(j);
            } else {
                j += 1;
            }
        }
        i += 1;
    }
    // Stable sort by dimension 0 without allocating: `sort_by` on slices
    // heap-allocates merge buffers, so pack each entry's pre-sort
    // position into the high bits and sort unstably — the position
    // tiebreak reproduces the stable order exactly.
    let m = perm.len();
    for (pos, v) in perm.iter_mut().enumerate() {
        *v |= (pos as u64) << 32;
    }
    perm.sort_unstable_by(|&a, &b| {
        let (ia, ib) = (a & 0xFFFF_FFFF, b & 0xFFFF_FFFF);
        cmp_f64(pt(ia)[0], pt(ib)[0]).then_with(|| a.cmp(&b))
    });
    for v in perm.iter_mut() {
        *v &= 0xFFFF_FFFF;
    }
    // Step selection, keeping both endpoints (`sample_dsl` exactly).
    if m <= k.max(2) {
        for &j in perm.iter() {
            out.extend_from_slice(pt(j));
        }
        return;
    }
    let step = m.div_ceil(k);
    out.extend_from_slice(pt(perm[0]));
    let mut i = step;
    while i < m - 1 {
        out.extend_from_slice(pt(perm[i]));
        i += step;
    }
    out.extend_from_slice(pt(perm[m - 1]));
}

fn dedup(pts: &mut Vec<Point>) {
    let mut i = 0;
    while i < pts.len() {
        let mut j = i + 1;
        while j < pts.len() {
            if pts[i].same_location(&pts[j]) {
                pts.swap_remove(j);
            } else {
                j += 1;
            }
        }
        i += 1;
    }
}

fn dedup_indices(idx: &mut Vec<usize>, same: impl Fn(usize, usize) -> bool) {
    let mut i = 0;
    while i < idx.len() {
        let mut j = i + 1;
        while j < idx.len() {
            if same(idx[i], idx[j]) {
                idx.swap_remove(j);
            } else {
                j += 1;
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddr::anti_ddr;

    fn staircase(m: usize) -> Vec<Point> {
        (0..m)
            .map(|i| {
                Point::xy(
                    5.0 + i as f64 * 90.0 / m as f64,
                    95.0 - i as f64 * 90.0 / m as f64,
                )
            })
            .collect()
    }

    #[test]
    fn sample_keeps_endpoints() {
        let sky = staircase(50);
        for k in [1, 3, 10, 25] {
            let s = sample_dsl(sky.clone(), k);
            assert!(
                s.first().expect("non-empty").same_location(&sky[0]),
                "k = {k}"
            );
            assert!(
                s.last().expect("non-empty").same_location(&sky[49]),
                "k = {k}"
            );
            assert!(s.len() <= k + 2, "k = {k}: got {}", s.len());
        }
    }

    #[test]
    fn small_dsl_returned_whole() {
        let sky = staircase(3);
        let s = sample_dsl(sky, 10);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn flat_sample_matches_sample_dsl() {
        // Includes duplicates and dominated points so the prune/dedup
        // paths are exercised, plus first-coordinate ties for the
        // stable-sort emulation.
        let mut pts = staircase(30);
        pts.push(pts[4].clone()); // duplicate
        pts.push(Point::xy(50.0, 95.0)); // dominated
        pts.push(Point::xy(5.0, 96.0)); // ties sky[0] on dim 0
        let flat: Vec<f64> = pts.iter().flat_map(|p| p.coords().to_vec()).collect();
        let mut perm = Vec::new();
        let mut out = Vec::new();
        for k in [1, 2, 3, 7, 40] {
            let want = sample_dsl(pts.clone(), k);
            flat_sample(&flat, 2, k, &mut perm, &mut out);
            let want_flat: Vec<f64> = want.iter().flat_map(|p| p.coords().to_vec()).collect();
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want_flat.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "k = {k}"
            );
        }
    }

    #[test]
    fn approx_region_is_subset_of_exact() {
        let sky = staircase(40);
        let maxd = Point::xy(100.0, 100.0);
        let exact = anti_ddr(&sky, &maxd);
        for k in [2, 5, 10] {
            let sample = sample_dsl(sky.clone(), k);
            let approx = approx_anti_ddr(&sample, &maxd);
            assert!(approx.area() <= exact.area() + 1e-9, "k = {k}");
            // Membership subset on a grid (off-boundary samples).
            for xi in 0..40 {
                for yi in 0..40 {
                    let t = Point::xy(xi as f64 * 2.5 + 0.1, yi as f64 * 2.5 + 0.1);
                    if approx.contains(&t) {
                        assert!(exact.contains(&t), "k = {k}: {t:?} unsafe");
                    }
                }
            }
        }
    }

    #[test]
    fn approx_area_grows_with_k() {
        let sky = staircase(60);
        let maxd = Point::xy(100.0, 100.0);
        let a2 = approx_anti_ddr(&sample_dsl(sky.clone(), 2), &maxd).area();
        let a10 = approx_anti_ddr(&sample_dsl(sky.clone(), 10), &maxd).area();
        let a60 = approx_anti_ddr(&sample_dsl(sky, 60), &maxd).area();
        assert!(a2 <= a10 + 1e-9);
        assert!(a10 <= a60 + 1e-9);
    }

    #[test]
    fn full_sample_still_underapproximates_without_merging() {
        // Even with every skyline point kept, skipping the Eqn-(5) pair
        // merge loses the stair-corner triangles (Fig. 16).
        let sky = staircase(10);
        let maxd = Point::xy(100.0, 100.0);
        let exact = anti_ddr(&sky, &maxd);
        let approx = approx_anti_ddr(&sample_dsl(sky, 10), &maxd);
        assert!(approx.area() < exact.area());
    }

    #[test]
    fn empty_dsl_gives_universe() {
        let maxd = Point::xy(10.0, 10.0);
        let r = approx_anti_ddr(&[], &maxd);
        assert!((r.area() - 100.0).abs() < 1e-9);
        let rf = Region::from_corners(approx_anti_ddr_corners(&[], &maxd));
        assert!((rf.area() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn corners_match_boxed_region() {
        let sky = staircase(25);
        let maxd = Point::xy(100.0, 100.0);
        let sample = sample_dsl(sky, 6);
        let flat: Vec<f64> = sample.iter().flat_map(|p| p.coords().to_vec()).collect();
        let a = approx_anti_ddr(&sample, &maxd);
        let b = Region::from_corners(approx_anti_ddr_corners(&flat, &maxd));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_k_rejected() {
        let _ = sample_dsl(staircase(5), 0);
    }
}
