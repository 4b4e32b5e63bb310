//! Algorithm 3 — the safe region `SR(q)`, exact and approximated.
//!
//! `SR(q) = ∩_{c_l ∈ RSL(q)} anti-DDR(c_l)` (Lemma 2): moving `q`
//! anywhere inside keeps every existing reverse-skyline point. Each
//! `anti-DDR(c_l)` is a union of rectangles (Fig. 10), so the
//! intersection is the pairwise rectangle product with containment
//! pruning (Section V-B).
//!
//! The approximate variant (Section VI-B.1) replaces each exact
//! `DSL(c_l)` with a precomputed k-sample ([`ApproxDslStore`]); the
//! resulting region is a subset of the exact safe region, so it is still
//! safe — just possibly smaller, which can only make MWQ's answers more
//! conservative (Tables V–VI).

use wnrs_geometry::parallel::{intersect_all, map_range_chunked, map_slice, Parallelism};
use wnrs_geometry::region::{Antichain, Corners};
use wnrs_geometry::{reflect_corners, Point, PointsView, Rect, Region};
use wnrs_rtree::{into_ok, ItemId, NodeSource, RTree};
use wnrs_skyline::{
    approx::approx_anti_ddr_corners, approx::approx_dsl_sample_into, approx::ApproxDslScratch,
    ddr::anti_ddr_corners, ddr::max_dist, dynamic_skyline,
};

/// Computes the exact anti-dominance region of customer `c` in the
/// original space, from its dynamic skyline over the indexed products
/// (excluding `exclude`, the customer's own tuple in the monochromatic
/// setting), clipped to `universe`.
///
/// `shrink` pulls every box's outer corner towards `c` by that amount in
/// the distance space (clamped at zero). With `shrink = 0` the region is
/// the paper's closed representation, whose *outer* boundary contains
/// tie points where a product still weakly dominates; a tiny positive
/// `shrink` yields a region every point of which strictly admits `c`
/// into `RSL(q*)` — Algorithm 4 uses that for a robust C1/C2 decision.
///
/// # Errors
///
/// Returns the index's error when a node read fails.
pub fn anti_ddr_of<S: NodeSource>(
    products: &S,
    c: &Point,
    exclude: Option<ItemId>,
    universe: &Rect,
    shrink: f64,
) -> Result<Region, S::Error> {
    let _span = wnrs_obs::span!("anti_ddr");
    let dsl = dynamic_skyline(products, c, exclude)?;
    Ok(anti_ddr_from_dsl(c, &dsl, universe, shrink))
}

/// As [`anti_ddr_of`] from an already-computed dynamic skyline of `c`
/// (original-space points, as returned by
/// [`wnrs_skyline::bbs_dynamic_skyline_excluding`]). The dynamic
/// skyline itself does not depend on `universe` or `shrink`, so the
/// cross-query cache stores it once per customer and re-derives the
/// anti-DDR here for whatever universe the current query implies.
pub fn anti_ddr_from_dsl(
    c: &Point,
    dsl: &[(ItemId, Point)],
    universe: &Rect,
    shrink: f64,
) -> Region {
    assert!(shrink >= 0.0, "shrink must be non-negative");
    let dsl_t: Vec<Point> = dsl.iter().map(|(_, p)| p.abs_diff(c)).collect();
    let maxd = max_dist(c, universe);
    let mut corners = anti_ddr_corners(&dsl_t, &maxd);
    if shrink > 0.0 {
        // Pruned before reflecting, as whole shrunk boxes would be:
        // clipping to the universe can make a pruned corner's box equal
        // to its container's, and which of two equal boxes comes first
        // decides the region's box order.
        let d = maxd.dim();
        let mut shrunk = Antichain::<Corners>::new(d);
        let mut u = vec![0.0; d];
        for row in corners.rows().chunks_exact(d) {
            for (ui, &hi) in u.iter_mut().zip(row) {
                *ui = (hi - shrink).max(0.0);
            }
            shrunk.offer(&u);
        }
        corners = shrunk;
    }
    reflect_corners(c, corners.rows(), universe)
}

/// The exact safe region of `q` given its reverse skyline (Algorithm 3).
/// With an empty reverse skyline there is nothing to preserve and the
/// whole universe is safe.
///
/// `exclude_self` controls the monochromatic convention: when true, each
/// reverse-skyline member's own tuple is excluded from its product set.
pub fn exact_safe_region(
    products: &RTree,
    rsl: &[(ItemId, Point)],
    universe: &Rect,
    exclude_self: bool,
) -> Region {
    let _span = wnrs_obs::span!("sr_exact");
    let mut sr: Option<Region> = None;
    #[cfg(feature = "invariant-checks")]
    let mut contributors: Vec<Region> = Vec::new();
    for (id, c) in rsl {
        let exclude = if exclude_self { Some(*id) } else { None };
        let region = into_ok(anti_ddr_of(products, c, exclude, universe, 0.0));
        #[cfg(feature = "invariant-checks")]
        contributors.push(region.clone());
        sr = Some(match sr {
            None => region,
            Some(acc) => acc.intersect(&region),
        });
    }
    let sr = sr.unwrap_or_else(|| Region::from_rect(universe.clone()));
    #[cfg(feature = "invariant-checks")]
    debug_assert!(
        sr_contained_in_contributors(&sr, &contributors),
        "exact safe region escapes a contributing anti-DDR"
    );
    sr
}

/// [`exact_safe_region`] under an explicit concurrency policy: the
/// per-member `anti-DDR(c_l)` constructions fan out across `par`'s
/// workers, and the intersection is a balanced tree reduction over the
/// member regions (pre-sorted by ascending box count) instead of a left
/// fold. Since containment-pruned region intersection is canonical, the
/// result equals [`exact_safe_region`] up to box ordering — and the
/// parallel and `workers == 1` paths of this function perform identical
/// pairings, so they agree bit for bit.
///
/// # Errors
///
/// Returns the index's error when a node read fails.
pub fn exact_safe_region_with<S>(
    products: &S,
    rsl: &[(ItemId, Point)],
    universe: &Rect,
    exclude_self: bool,
    par: &Parallelism,
) -> Result<Region, S::Error>
where
    S: NodeSource + Sync,
    S::Error: Send,
{
    let _span = wnrs_obs::span!("sr_exact");
    exact_safe_region_by(rsl, universe, par, |(id, c)| {
        let exclude = if exclude_self { Some(*id) } else { None };
        anti_ddr_of(products, c, exclude, universe, 0.0)
    })
}

/// The intersection of `region_of(member)` over the reverse-skyline
/// members, or the whole universe when there are none: the member
/// regions fan out across `par`'s workers and meet in the balanced tree
/// reduction of [`intersect_all`]. [`exact_safe_region_with`] passes
/// [`anti_ddr_of`] and `WhyNotEngine` its (possibly memoised) anti-DDR
/// building block, so both build the same regions in the same pairing
/// and agree bit for bit.
///
/// # Errors
///
/// Returns the first error `region_of` returns.
pub(crate) fn exact_safe_region_by<E: Send>(
    rsl: &[(ItemId, Point)],
    universe: &Rect,
    par: &Parallelism,
    region_of: impl Fn(&(ItemId, Point)) -> Result<Region, E> + Sync,
) -> Result<Region, E> {
    let regions = map_slice(rsl, par, region_of)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    #[cfg(feature = "invariant-checks")]
    let contributors = regions.clone();
    let sr = intersect_all(regions, par).unwrap_or_else(|| Region::from_rect(universe.clone()));
    #[cfg(feature = "invariant-checks")]
    debug_assert!(
        sr_contained_in_contributors(&sr, &contributors),
        "exact safe region escapes a contributing anti-DDR"
    );
    Ok(sr)
}

/// Whether every box of `sr` lies inside a single box of **each**
/// contributing anti-DDR. The exact safe region is the intersection
/// `∩ anti-DDR(c_l)`, and each product box is an intersection of one box
/// from every contributor, so this containment is structural — the check
/// catches pruning or reduction bugs that would let the safe region leak
/// outside a member's anti-dominance area.
#[cfg(feature = "invariant-checks")]
#[must_use]
pub fn sr_contained_in_contributors(sr: &Region, contributors: &[Region]) -> bool {
    sr.boxes().iter().all(|b| {
        contributors
            .iter()
            .all(|r| r.boxes().iter().any(|rb| rb.contains_rect(b)))
    })
}

/// No-op twin of [`sr_contained_in_contributors`] (lint rule W3): with
/// the invariant layer off the containment check vacuously holds, so
/// callers can assert on it unconditionally.
#[cfg(not(feature = "invariant-checks"))]
#[must_use]
pub fn sr_contained_in_contributors(_sr: &Region, _contributors: &[Region]) -> bool {
    true
}

/// Precomputed k-sampled dynamic skylines for every indexed point
/// (Section VI-B.1). Built offline once per dataset; a safe region can
/// then be assembled without any skyline computation at query time.
///
/// Samples are held in one flat coordinate buffer (structure-of-arrays):
/// item `i`'s transformed-space sample occupies point indices
/// `offsets[i]..offsets[i + 1]`, each point being `dim` consecutive
/// `f64`s. Accessors hand out borrowed [`PointsView`]s, so reading a
/// sample never allocates.
#[derive(Debug, Clone)]
pub struct ApproxDslStore {
    k: usize,
    dim: usize,
    /// Concatenated sample coordinates in item-id order.
    coords: Vec<f64>,
    /// Prefix offsets in points, length `len + 1`.
    offsets: Vec<u32>,
    /// Content hash over `(k, dim, offsets, coords)`; two stores with
    /// the same fingerprint hold the same samples (up to the
    /// astronomically unlikely 64-bit collision). The cross-query cache
    /// keys approximate safe regions by this.
    fingerprint: u64,
}

/// FNV-1a over the store's defining content. `f64` coordinates hash by
/// bit pattern with `-0.0` normalised to `+0.0` (matching
/// [`wnrs_geometry::f64_key`]), so numerically equal stores fingerprint
/// equally.
fn store_fingerprint(k: usize, dim: usize, coords: &[f64], offsets: &[u32]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(k as u64);
    mix(dim as u64);
    mix(offsets.len() as u64);
    for &o in offsets {
        mix(u64::from(o));
    }
    for &v in coords {
        mix(wnrs_geometry::f64_key(v));
    }
    h
}

/// FNV-1a content hash of **one** customer's k-sampled DSL (flat
/// transformed-space coordinates). Mixes `k`, `dim` and the point count
/// before the coordinate bits, mirroring `store_fingerprint`'s f64
/// treatment (`-0.0` normalised to `+0.0`), so a lazily materialised
/// sample and the corresponding [`ApproxDslStore`] slice fingerprint
/// equally iff they hold the same sample.
#[must_use]
pub fn entry_fingerprint(k: usize, dim: usize, coords: &[f64]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(k as u64);
    mix(dim as u64);
    mix((coords.len() / dim.max(1)) as u64);
    for &v in coords {
        mix(wnrs_geometry::f64_key(v));
    }
    h
}

/// The approximate anti-dominance region of a customer at `c` from its
/// flat transformed-space DSL sample — the single code path shared by
/// [`ApproxDslStore::anti_ddr`] (eager, offline store) and the engine's
/// lazily materialised per-customer samples, so both produce
/// bit-identical regions from identical samples.
#[must_use]
pub fn approx_anti_ddr_of_sample(sample_coords: &[f64], c: &Point, universe: &Rect) -> Region {
    let maxd = max_dist(c, universe);
    let corners = approx_anti_ddr_corners(sample_coords, &maxd);
    reflect_corners(c, corners.rows(), universe)
}

impl ApproxDslStore {
    /// Builds the store for all items of `products` (item ids must be
    /// dense `0..len`, as produced by [`wnrs_rtree::bulk::bulk_load`]).
    /// Each item's DSL is computed with its own tuple excluded.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the ids are not dense.
    #[must_use]
    pub fn build(products: &RTree, k: usize) -> Self {
        Self::build_with(products, k, &Parallelism::sequential())
    }

    /// [`Self::build`] under an explicit concurrency policy: the dense
    /// item-id range is chunked across `par`'s workers, each computing
    /// its items' DSL samples independently. Per-item work only reads
    /// the shared tree, so the resulting store is identical to the
    /// sequential build whatever the worker count.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the ids are not dense.
    #[must_use]
    pub fn build_with(products: &RTree, k: usize, par: &Parallelism) -> Self {
        assert!(k > 0, "sample size k must be positive");
        let _span = wnrs_obs::span!("approx_store_build");
        let n = products.len();
        let dim = products.dim();
        // Gather item locations into one dense flat buffer, verifying id
        // density along the way (no per-item Point clones, no sort).
        let mut pts = vec![0.0; n * dim];
        let mut seen = vec![false; n];
        products.for_each_item(|id, p| {
            let i = id.0 as usize;
            assert!(i < n && !seen[i], "ApproxDslStore requires dense item ids");
            seen[i] = true;
            pts[i * dim..(i + 1) * dim].copy_from_slice(p.coords());
        });
        assert!(
            seen.iter().all(|&s| s),
            "ApproxDslStore requires dense item ids"
        );
        // One scratch per worker chunk: the per-customer BBS pass and
        // sampling step allocate nothing once the buffers are warm.
        let chunks = map_range_chunked(n, par, |range| {
            let mut scratch = ApproxDslScratch::new();
            let mut coords: Vec<f64> = Vec::new();
            let mut counts: Vec<u32> = Vec::with_capacity(range.len());
            for i in range {
                let c = &pts[i * dim..(i + 1) * dim];
                let id = Some(ItemId(i as u32));
                let sample = into_ok(approx_dsl_sample_into(products, c, id, k, &mut scratch));
                counts.push(sample.len() as u32);
                coords.extend_from_slice(sample.coords());
            }
            (coords, counts)
        });
        let mut coords = Vec::new();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut total = 0u32;
        for (chunk_coords, chunk_counts) in chunks {
            coords.extend_from_slice(&chunk_coords);
            for count in chunk_counts {
                total += count;
                offsets.push(total);
            }
        }
        let fingerprint = store_fingerprint(k, dim, &coords, &offsets);
        Self {
            k,
            dim,
            coords,
            offsets,
            fingerprint,
        }
    }

    /// The configured sample size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The store's content fingerprint (see the field docs).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The dimensionality of the stored sample points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A borrowed view of the stored transformed-space sample for item
    /// `id`.
    pub fn sample(&self, id: ItemId) -> PointsView<'_> {
        let i = id.0 as usize;
        let lo = self.offsets[i] as usize * self.dim;
        let hi = self.offsets[i + 1] as usize * self.dim;
        PointsView::new(self.dim, &self.coords[lo..hi])
    }

    /// The approximate anti-dominance region of item `id` (located at
    /// `c`) in the original space.
    pub fn anti_ddr(&self, id: ItemId, c: &Point, universe: &Rect) -> Region {
        approx_anti_ddr_of_sample(self.sample(id).coords(), c, universe)
    }

    /// The [`entry_fingerprint`] of item `id`'s stored sample — what a
    /// lazy materialisation of the same customer must reproduce.
    #[must_use]
    pub fn entry_fingerprint(&self, id: ItemId) -> u64 {
        entry_fingerprint(self.k, self.dim, self.sample(id).coords())
    }
}

/// The approximate safe region of `q` from precomputed DSL samples —
/// always a subset of [`exact_safe_region`].
pub fn approx_safe_region(
    store: &ApproxDslStore,
    rsl: &[(ItemId, Point)],
    universe: &Rect,
) -> Region {
    let _span = wnrs_obs::span!("sr_approx");
    let mut sr: Option<Region> = None;
    for (id, c) in rsl {
        let region = store.anti_ddr(*id, c, universe);
        sr = Some(match sr {
            None => region,
            Some(acc) => acc.intersect(&region),
        });
    }
    sr.unwrap_or_else(|| Region::from_rect(universe.clone()))
}

/// [`approx_safe_region`] under an explicit concurrency policy —
/// parallel per-member anti-DDR lookup plus tree-reduced intersection,
/// mirroring [`exact_safe_region_with`]. Equal to the sequential
/// variant up to box ordering.
pub fn approx_safe_region_with(
    store: &ApproxDslStore,
    rsl: &[(ItemId, Point)],
    universe: &Rect,
    par: &Parallelism,
) -> Region {
    let _span = wnrs_obs::span!("sr_approx");
    let regions = map_slice(rsl, par, |(id, c)| store.anti_ddr(*id, c, universe));
    intersect_all(regions, par).unwrap_or_else(|| Region::from_rect(universe.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnrs_reverse_skyline::bbrs_reverse_skyline;
    use wnrs_rtree::bulk::bulk_load;
    use wnrs_rtree::RTreeConfig;

    fn paper_points() -> Vec<Point> {
        vec![
            Point::xy(5.0, 30.0),  // pt1
            Point::xy(7.5, 42.0),  // pt2
            Point::xy(2.5, 70.0),  // pt3
            Point::xy(7.5, 90.0),  // pt4
            Point::xy(24.0, 20.0), // pt5
            Point::xy(20.0, 50.0), // pt6
            Point::xy(26.0, 70.0), // pt7
            Point::xy(16.0, 80.0), // pt8
        ]
    }

    fn paper_universe() -> Rect {
        Rect::new(Point::xy(0.0, 0.0), Point::xy(30.0, 120.0))
    }

    #[test]
    fn paper_safe_region_example() {
        // Section V-B: SR(q) for q (8.5, 55) over the full dataset is
        //   {(7.5, 50), (10, 58)} ∪ {(7.5, 50), (12.5, 54)}.
        let pts = paper_points();
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(4));
        let q = Point::xy(8.5, 55.0);
        let rsl = bbrs_reverse_skyline(&tree, &q);
        assert_eq!(rsl.len(), 5);
        let sr = exact_safe_region(&tree, &rsl, &paper_universe(), true);
        // q itself is always safe.
        assert!(sr.contains(&q));
        // The paper's rectangles are covered by the computed region. The
        // exact region is a strict superset: the paper caps the first
        // rectangle at y = 58 (pt6's innermost anti-DDR band) although
        // e.g. (8.5, 65) is demonstrably safe — pt6's wider staircase box
        // admits it; the soundness test below verifies our region
        // directly against RSL preservation.
        let r1 = Rect::new(Point::xy(7.5, 50.0), Point::xy(10.0, 58.0));
        let r2 = Rect::new(Point::xy(7.5, 50.0), Point::xy(12.5, 54.0));
        for r in [&r1, &r2] {
            assert!(
                sr.boxes().iter().any(|b| b.contains_rect(r)),
                "paper rectangle {r:?} not covered: {sr:?}"
            );
        }
        // And the second paper rectangle is reproduced exactly.
        assert!(sr
            .boxes()
            .iter()
            .any(|b| b.lo().approx_eq(r2.lo(), 1e-9) && b.hi().approx_eq(r2.hi(), 1e-9)));
    }

    #[test]
    fn safe_region_preserves_reverse_skyline() {
        // Soundness (Lemma 2): for sampled interior q* ∈ SR(q), every
        // original reverse-skyline member stays a member.
        let pts = paper_points();
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(4));
        let q = Point::xy(8.5, 55.0);
        let rsl = bbrs_reverse_skyline(&tree, &q);
        let sr = exact_safe_region(&tree, &rsl, &paper_universe(), true);
        // Sample strictly interior points (the closed boundary holds tie
        // points where membership is a limit property).
        for b in sr.shrink(1e-6).boxes() {
            let q_star = b.center();
            let new_rsl = bbrs_reverse_skyline(&tree, &q_star);
            for (id, _) in &rsl {
                assert!(
                    new_rsl.iter().any(|(nid, _)| nid == id),
                    "moving q to {q_star:?} lost customer {id:?}"
                );
            }
        }
    }

    #[test]
    fn empty_rsl_gives_universe() {
        let pts = paper_points();
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(4));
        let sr = exact_safe_region(&tree, &[], &paper_universe(), true);
        assert!((sr.area() - paper_universe().area()).abs() < 1e-9);
    }

    #[test]
    fn safe_region_shrinks_with_more_members() {
        // Fig. 14: more reverse-skyline points ⇒ smaller safe region.
        let pts = paper_points();
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(4));
        let q = Point::xy(8.5, 55.0);
        let rsl = bbrs_reverse_skyline(&tree, &q);
        let u = paper_universe();
        let mut last = f64::INFINITY;
        for n in 1..=rsl.len() {
            let area = exact_safe_region(&tree, &rsl[..n], &u, true).area();
            assert!(area <= last + 1e-9, "area grew at n = {n}");
            last = area;
        }
    }

    #[test]
    fn approx_region_is_subset_of_exact() {
        let pts = paper_points();
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(4));
        let q = Point::xy(8.5, 55.0);
        let rsl = bbrs_reverse_skyline(&tree, &q);
        let u = paper_universe();
        let exact = exact_safe_region(&tree, &rsl, &u, true);
        for k in [1, 2, 5] {
            let store = ApproxDslStore::build(&tree, k);
            let approx = approx_safe_region(&store, &rsl, &u);
            assert!(approx.area() <= exact.area() + 1e-9, "k = {k}");
            // q remains safe in the approximation (its membership is what
            // the store's first/last retention is designed to keep).
            for xi in 0..30 {
                for yi in 0..40 {
                    let t = Point::xy(xi as f64 + 0.21, yi as f64 * 3.0 + 0.37);
                    if approx.contains(&t) {
                        assert!(exact.contains(&t), "k = {k}: {t:?} unsafe");
                    }
                }
            }
        }
    }

    #[test]
    fn store_build_and_shape() {
        let pts = paper_points();
        let tree = bulk_load(&pts, RTreeConfig::with_max_entries(4));
        let store = ApproxDslStore::build(&tree, 3);
        assert_eq!(store.len(), 8);
        assert_eq!(store.k(), 3);
        for i in 0..8 {
            let s = store.sample(ItemId(i));
            assert!(!s.is_empty(), "item {i} has an empty DSL sample");
            assert!(s.len() <= 5); // ≤ k + endpoints
        }
    }
}
