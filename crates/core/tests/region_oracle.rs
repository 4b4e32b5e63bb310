//! Differential test of the region algebra's row kernels against the
//! `Vec<Rect>` algorithms they replaced, kept below as `oracle`: the old
//! function bodies, unchanged apart from returning the number of boxes
//! they pruned instead of recording it.
//!
//! Every case must return the same box list — the same length and the
//! same `to_bits` of every coordinate, box by box — and, under
//! `--features obs`, raise `sr_boxes_pruned` by exactly the oracle's
//! count. Box order matters: MWQ's answers take the first of equal-cost
//! options in box order.
//!
//! The vendored proptest does not shrink, so each case is generated from
//! one `u64` seed: a mismatch panics with the instance as a `replay_*(…)`
//! call to paste into `replay_fixtures`, and the failing seed follows.
//!
//! ```text
//! cargo test -q -p wnrs-core --test region_oracle [--features obs]
//! ```

use std::panic::{catch_unwind, resume_unwind};
use std::sync::{Mutex, PoisonError};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wnrs_core::engine::DEFAULT_EPS;
use wnrs_core::safe_region::{anti_ddr_from_dsl, approx_anti_ddr_of_sample};
use wnrs_geometry::parallel::intersect_all;
use wnrs_geometry::{Parallelism, Point, Rect, Region};
use wnrs_obs::{counter_value, Counter};
use wnrs_rtree::ItemId;
use wnrs_skyline::ddr::{anti_ddr, anti_ddr_original_space, max_dist};
use wnrs_skyline::{dynamic_skyline_scan, sample_dsl};

/// The `Vec<Rect>` region algorithms as they were before box rows.
mod oracle {
    use wnrs_geometry::dominance::prune_dominated;
    use wnrs_geometry::{cmp_f64, dominates, dominates_components, Point, Rect};
    use wnrs_skyline::ddr::max_dist;

    /// `Region::prune`: the incremental containment antichain.
    pub fn prune(boxes: Vec<Rect>) -> (Vec<Rect>, u64) {
        if boxes.len() <= 1 {
            return (boxes, 0);
        }
        let mut kept: Vec<Rect> = Vec::with_capacity(boxes.len());
        let mut pruned: u64 = 0;
        for b in boxes {
            if kept.iter().any(|k| k.contains_rect(&b)) {
                pruned += 1;
                continue;
            }
            let before = kept.len();
            kept.retain(|k| !b.contains_rect(k));
            pruned += (before - kept.len()) as u64;
            kept.push(b);
        }
        (kept, pruned)
    }

    /// `Region::intersect`: the pairwise product, pruned while built.
    pub fn intersect(a: &[Rect], b: &[Rect]) -> (Vec<Rect>, u64) {
        let mut out: Vec<Rect> = Vec::new();
        let mut pruned: u64 = 0;
        for x in a {
            for y in b {
                let Some(i) = x.intersection(y) else { continue };
                if out.iter().any(|kept| kept.contains_rect(&i)) {
                    pruned += 1;
                    continue;
                }
                let before = out.len();
                out.retain(|kept| !i.contains_rect(kept));
                pruned += (before - out.len()) as u64;
                out.push(i);
            }
        }
        (out, pruned)
    }

    /// `Region::intersect_rect`: clip every box, then prune.
    pub fn intersect_rect(a: &[Rect], r: &Rect) -> (Vec<Rect>, u64) {
        prune(a.iter().filter_map(|b| b.intersection(r)).collect())
    }

    /// `Region::shrink`: move every side in by `eps`, drop the boxes
    /// that collapse, then prune.
    pub fn shrink(a: &[Rect], eps: f64) -> (Vec<Rect>, u64) {
        if eps <= 0.0 {
            return (a.to_vec(), 0);
        }
        prune(
            a.iter()
                .filter_map(|b| {
                    let d = b.dim();
                    let mut lo = Vec::with_capacity(d);
                    let mut hi = Vec::with_capacity(d);
                    for (&l0, &h0) in b.lo().coords().iter().zip(b.hi().coords().iter()) {
                        let l = l0 + eps;
                        let h = h0 - eps;
                        if l > h {
                            return None;
                        }
                        lo.push(l);
                        hi.push(h);
                    }
                    Some(Rect::new(Point::new(lo), Point::new(hi)))
                })
                .collect(),
        )
    }

    /// `parallel::intersect_all`: sort by box count, then pair up in
    /// rounds. Workers change only who computes a pair, not the pairs.
    pub fn intersect_all(mut regions: Vec<Vec<Rect>>) -> (Option<Vec<Rect>>, u64) {
        let mut pruned = 0;
        if regions.is_empty() {
            return (None, 0);
        }
        regions.sort_by_key(Vec::len);
        while regions.len() > 1 {
            let mut pairs = Vec::new();
            let mut carry = None;
            let mut it = regions.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => pairs.push((a, b)),
                    None => carry = Some(a),
                }
            }
            let mut next: Vec<Vec<Rect>> = Vec::new();
            for (a, b) in &pairs {
                let (p, n) = intersect(a, b);
                pruned += n;
                next.push(p);
            }
            if let Some(c) = carry {
                next.push(c);
            }
            if next.iter().any(Vec::is_empty) {
                return (Some(Vec::new()), pruned);
            }
            regions = next;
        }
        (regions.pop(), pruned)
    }

    fn origin(d: usize) -> Point {
        Point::new(vec![0.0; d])
    }

    fn min_point(p: &Point, cap: &Point) -> Point {
        Point::new((0..p.dim()).map(|i| p[i].min(cap[i])).collect::<Vec<_>>())
    }

    fn dedup_points(pts: &mut Vec<Point>) {
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

    /// `ddr::anti_ddr`: the 2-d staircase or the general clipper.
    pub fn anti_ddr(dsl_t: &[Point], maxd: &Point) -> (Vec<Rect>, u64) {
        if maxd.dim() == 2 {
            anti_ddr_2d(dsl_t, maxd)
        } else {
            anti_ddr_general(dsl_t, maxd)
        }
    }

    fn anti_ddr_2d(dsl_t: &[Point], maxd: &Point) -> (Vec<Rect>, u64) {
        let mut sky: Vec<Point> = dsl_t.to_vec();
        prune_dominated(&mut sky, dominates);
        dedup_points(&mut sky);
        if sky.is_empty() {
            return (vec![Rect::new(origin(2), maxd.clone())], 0);
        }
        sky.sort_by(|a, b| cmp_f64(a[0], b[0]));
        let m = sky.len();
        let mut boxes = Vec::with_capacity(m + 1);
        boxes.push(Rect::new(
            origin(2),
            min_point(&Point::xy(sky[0][0], maxd[1]), maxd),
        ));
        for l in 0..m - 1 {
            boxes.push(Rect::new(
                origin(2),
                min_point(&Point::xy(sky[l + 1][0], sky[l][1]), maxd),
            ));
        }
        boxes.push(Rect::new(
            origin(2),
            min_point(&Point::xy(maxd[0], sky[m - 1][1]), maxd),
        ));
        prune(boxes)
    }

    /// `ddr::anti_ddr_general`: successive clipping, re-pruned into a
    /// fresh `Vec<Rect>` after every skyline point.
    pub fn anti_ddr_general(dsl_t: &[Point], maxd: &Point) -> (Vec<Rect>, u64) {
        let d = maxd.dim();
        let mut sky: Vec<Point> = dsl_t.to_vec();
        prune_dominated(&mut sky, dominates);
        dedup_points(&mut sky);
        let mut pruned = 0;
        let mut boxes = vec![Rect::new(origin(d), maxd.clone())];
        for s in &sky {
            let mut next: Vec<Rect> = Vec::new();
            for b in &boxes {
                if (0..d).any(|i| b.hi()[i] <= s[i]) {
                    next.push(b.clone());
                    continue;
                }
                for i in 0..d {
                    if s[i] >= b.lo()[i] {
                        let hi = b.hi().with_coord(i, s[i].min(b.hi()[i]));
                        next.push(Rect::new(b.lo().clone(), hi));
                    }
                }
            }
            let (kept, n) = prune(next);
            pruned += n;
            boxes = kept;
            if boxes.is_empty() {
                break;
            }
        }
        let (boxes, n) = prune(boxes);
        (boxes, pruned + n)
    }

    /// `transform::reflect_rect`.
    fn reflect_rect(c: &Point, u: &Point) -> Rect {
        assert_eq!(c.dim(), u.dim());
        for i in 0..u.dim() {
            assert!(u[i] >= 0.0, "distance-space corner must be non-negative");
        }
        let d = c.dim();
        let pad = |i: usize| 4.0 * f64::EPSILON * (c[i].abs() + u[i]);
        let lo: Vec<f64> = (0..d).map(|i| c[i] - u[i] - pad(i)).collect();
        let hi: Vec<f64> = (0..d).map(|i| c[i] + u[i] + pad(i)).collect();
        Rect::new(Point::new(lo), Point::new(hi))
    }

    /// `safe_region::reflect_region`.
    pub fn reflect_region(c: &Point, boxes_t: &[Rect], universe: &Rect) -> (Vec<Rect>, u64) {
        prune(
            boxes_t
                .iter()
                .filter_map(|b| reflect_rect(c, b.hi()).intersection(universe))
                .collect(),
        )
    }

    /// `safe_region::anti_ddr_from_dsl`.
    pub fn anti_ddr_from_dsl(
        c: &Point,
        dsl: &[Point],
        universe: &Rect,
        shrink: f64,
    ) -> (Vec<Rect>, u64) {
        let dsl_t: Vec<Point> = dsl.iter().map(|p| p.abs_diff(c)).collect();
        let maxd = max_dist(c, universe);
        let (mut region_t, mut pruned) = anti_ddr(&dsl_t, &maxd);
        if shrink > 0.0 {
            let (kept, n) = prune(
                region_t
                    .iter()
                    .map(|b| {
                        let hi = Point::new(
                            (0..b.dim())
                                .map(|i| (b.hi()[i] - shrink).max(0.0))
                                .collect::<Vec<_>>(),
                        );
                        Rect::new(b.lo().clone(), hi)
                    })
                    .collect(),
            );
            region_t = kept;
            pruned += n;
        }
        let (boxes, n) = reflect_region(c, &region_t, universe);
        (boxes, pruned + n)
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

    /// `approx::approx_anti_ddr_flat`, whose rows `approx_anti_ddr_corners`
    /// now builds.
    pub fn approx_anti_ddr_flat(sample_t: &[f64], maxd: &Point) -> (Vec<Rect>, u64) {
        let d = maxd.dim();
        let origin = Point::new(vec![0.0; d]);
        let n = sample_t.len() / d;
        let pt = |j: usize| &sample_t[j * d..(j + 1) * d];
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
        if idx.is_empty() {
            return (vec![Rect::new(origin, maxd.clone())], 0);
        }
        idx.sort_by(|&a, &b| cmp_f64(sample_t[a * d], sample_t[b * d]));
        let cap = |j: usize| Point::new((0..d).map(|i| pt(j)[i].min(maxd[i])).collect::<Vec<_>>());
        let mut boxes = Vec::with_capacity(idx.len() + 2);
        let first = idx[0];
        let left = maxd.with_coord(0, sample_t[first * d].min(maxd[0]));
        boxes.push(Rect::new(origin.clone(), left));
        for &j in &idx {
            boxes.push(Rect::new(origin.clone(), cap(j)));
        }
        let last = idx[idx.len() - 1];
        let right = cap(last).with_coord(0, maxd[0]);
        boxes.push(Rect::new(origin, right));
        prune(boxes)
    }

    /// `safe_region::approx_anti_ddr_of_sample`.
    pub fn approx_anti_ddr_of_sample(
        sample: &[f64],
        c: &Point,
        universe: &Rect,
    ) -> (Vec<Rect>, u64) {
        let maxd = max_dist(c, universe);
        let (boxes_t, pruned) = approx_anti_ddr_flat(sample, &maxd);
        let (boxes, n) = reflect_region(c, &boxes_t, universe);
        (boxes, pruned + n)
    }
}

// ----------------------------------------------------------------------
// Comparison
// ----------------------------------------------------------------------

/// `sr_boxes_pruned` is process-global: every test here holds this lock,
/// so no other test records into the window a check reads.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` and returns its result with the rise of `sr_boxes_pruned`.
fn pruned_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = counter_value(Counter::SrBoxesPruned);
    let out = f();
    (out, counter_value(Counter::SrBoxesPruned) - before)
}

/// Every coordinate's bits, box by box, lower corner first.
fn bits(boxes: &[Rect]) -> Vec<u64> {
    boxes
        .iter()
        .flat_map(|b| b.lo().coords().iter().chain(b.hi().coords()))
        .map(|v| v.to_bits())
        .collect()
}

/// Asserts that `got` (with its counter rise) equals the oracle's
/// answer; `replay` names the instance.
fn same(what: &str, got: (&[Rect], u64), want: (&[Rect], u64), replay: &str) {
    assert!(
        got.0.len() == want.0.len() && bits(got.0) == bits(want.0),
        "{what}: box lists differ\n  new:    {:?}\n  oracle: {:?}\nreplay: {replay}",
        got.0,
        want.0
    );
    if cfg!(feature = "obs") {
        assert_eq!(
            got.1, want.1,
            "{what}: sr_boxes_pruned differs\nreplay: {replay}"
        );
    }
}

fn rects(d: usize, rows: &[f64]) -> Vec<Rect> {
    rows.chunks_exact(2 * d)
        .map(|r| Rect::new(Point::new(&r[..d]), Point::new(&r[d..])))
        .collect()
}

fn points(d: usize, coords: &[f64]) -> Vec<Point> {
    coords.chunks_exact(d).map(Point::new).collect()
}

// ----------------------------------------------------------------------
// Replays: one instance through every operation that reads it
// ----------------------------------------------------------------------

/// `from_boxes`, `intersect`, `union`, `intersect_rect` and `shrink` on
/// two box lists (`lo ‖ hi` rows).
fn replay_boxes(d: usize, a: &[f64], b: &[f64]) {
    let replay = format!("replay_boxes({d}, &{a:?}, &{b:?})");
    let (ra, rb) = (rects(d, a), rects(d, b));
    let mut both = ra.clone();
    both.extend(rb.iter().cloned());
    for (what, boxes) in [("from_boxes(a)", &ra), ("from_boxes(a ++ b)", &both)] {
        let (got, n) = pruned_by(|| Region::from_boxes(boxes.clone()));
        let (want, m) = oracle::prune(boxes.clone());
        same(what, (got.boxes(), n), (&want, m), &replay);
    }
    let region_a = Region::from_boxes(ra.clone());
    let region_b = Region::from_boxes(rb.clone());
    for (what, x, y) in [
        ("a.intersect(b)", &region_a, &region_b),
        ("b.intersect(a)", &region_b, &region_a),
        ("a.intersect(a)", &region_a, &region_a),
    ] {
        let (got, n) = pruned_by(|| x.intersect(y));
        let (want, m) = oracle::intersect(x.boxes(), y.boxes());
        same(what, (got.boxes(), n), (&want, m), &replay);
    }
    let (got, n) = pruned_by(|| region_a.union(&region_b));
    let (want, m) = oracle::prune(
        region_a
            .boxes()
            .iter()
            .chain(region_b.boxes())
            .cloned()
            .collect(),
    );
    same("a.union(b)", (got.boxes(), n), (&want, m), &replay);
    if let Some(clip) = rb.first() {
        let (got, n) = pruned_by(|| region_a.intersect_rect(clip));
        let (want, m) = oracle::intersect_rect(region_a.boxes(), clip);
        same(
            "a.intersect_rect(b[0])",
            (got.boxes(), n),
            (&want, m),
            &replay,
        );
    }
    // MWQ shrinks by DEFAULT_EPS; 0.5 collapses many grid boxes.
    for eps in [0.0, DEFAULT_EPS, 0.5] {
        let what = format!("a.shrink({eps:e})");
        let (got, n) = pruned_by(|| region_a.shrink(eps));
        let (want, m) = oracle::shrink(region_a.boxes(), eps);
        same(&what, (got.boxes(), n), (&want, m), &replay);
    }
}

/// `intersect_all`, sequential and on two workers, over regions made
/// from `lo ‖ hi` rows.
fn replay_regions(d: usize, regions: &[&[f64]]) {
    let listed: Vec<String> = regions.iter().map(|r| format!("&{r:?}")).collect();
    let replay = format!("replay_regions({d}, &[{}])", listed.join(", "));
    let regions: Vec<Region> = regions
        .iter()
        .map(|rows| Region::from_boxes(rects(d, rows)))
        .collect();
    let lists: Vec<Vec<Rect>> = regions.iter().map(|r| r.boxes().to_vec()).collect();
    let (want, m) = oracle::intersect_all(lists);
    let want = want.unwrap_or_default();
    for (what, par) in [
        ("intersect_all sequential", Parallelism::sequential()),
        (
            "intersect_all on 2 workers",
            Parallelism::new(2).with_sequential_cutoff(1),
        ),
    ] {
        let (got, n) = pruned_by(|| intersect_all(regions.clone(), &par));
        let got = got.unwrap_or_default();
        same(what, (got.boxes(), n), (&want, m), &replay);
    }
}

/// The anti-DDR constructions of a customer at `c` over `products`
/// (flat coordinates) inside the universe `[lo, hi]`, with the
/// approximate region sampled at `k`.
fn replay_skyline(c: &[f64], products: &[f64], lo: &[f64], hi: &[f64], k: usize) {
    let replay = format!("replay_skyline(&{c:?}, &{products:?}, &{lo:?}, &{hi:?}, {k})");
    let d = c.len();
    let c = Point::new(c);
    let products = points(d, products);
    let universe = Rect::new(Point::new(lo), Point::new(hi));
    let dsl_idx = dynamic_skyline_scan(&products, &c);
    let dsl: Vec<Point> = dsl_idx.iter().map(|&i| products[i].clone()).collect();
    let dsl_items: Vec<(ItemId, Point)> = dsl_idx
        .iter()
        .map(|&i| (ItemId(i as u32), products[i].clone()))
        .collect();
    let dsl_t: Vec<Point> = dsl.iter().map(|p| p.abs_diff(&c)).collect();
    let maxd = max_dist(&c, &universe);

    let (got, n) = pruned_by(|| anti_ddr(&dsl_t, &maxd));
    let (want, m) = oracle::anti_ddr(&dsl_t, &maxd);
    same("anti_ddr", (got.boxes(), n), (&want, m), &replay);
    if d > 2 {
        let (got, n) = pruned_by(|| wnrs_skyline::anti_ddr_general(&dsl_t, &maxd));
        let (want, m) = oracle::anti_ddr_general(&dsl_t, &maxd);
        same("anti_ddr_general", (got.boxes(), n), (&want, m), &replay);
    }

    let (got, n) = pruned_by(|| anti_ddr_original_space(&c, &dsl, &universe));
    let (want, m) = oracle::anti_ddr_from_dsl(&c, &dsl, &universe, 0.0);
    same(
        "anti_ddr_original_space",
        (got.boxes(), n),
        (&want, m),
        &replay,
    );

    // DEFAULT_EPS is MWQ's shrink; 0.5 makes many grid distances clamp
    // at zero, so shrunk boxes nest and collide.
    for shrink in [0.0, DEFAULT_EPS, 0.5] {
        let what = format!("anti_ddr_from_dsl(shrink = {shrink:e})");
        let (got, n) = pruned_by(|| anti_ddr_from_dsl(&c, &dsl_items, &universe, shrink));
        let (want, m) = oracle::anti_ddr_from_dsl(&c, &dsl, &universe, shrink);
        same(&what, (got.boxes(), n), (&want, m), &replay);
    }

    let sample: Vec<f64> = sample_dsl(dsl_t.clone(), k)
        .iter()
        .flat_map(|p| p.coords().to_vec())
        .collect();
    let (got, n) = pruned_by(|| approx_anti_ddr_of_sample(&sample, &c, &universe));
    let (want, m) = oracle::approx_anti_ddr_of_sample(&sample, &c, &universe);
    same(
        "approx_anti_ddr_of_sample",
        (got.boxes(), n),
        (&want, m),
        &replay,
    );
}

// ----------------------------------------------------------------------
// Random instances
// ----------------------------------------------------------------------

/// A coordinate: mostly from a small grid holding both zeros, so ties,
/// duplicates, touching and degenerate boxes are common.
fn coord(rng: &mut StdRng) -> f64 {
    const GRID: [f64; 8] = [-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0];
    if rng.gen_range(0..4usize) == 0 {
        rng.gen_range(-1.0..5.0)
    } else {
        GRID[rng.gen_range(0..GRID.len())]
    }
}

/// Appends one `lo ‖ hi` row: a duplicate, a nested copy, a touching
/// neighbour or a degenerate box of an earlier row, or a fresh box.
fn push_box(rng: &mut StdRng, d: usize, rows: &mut Vec<f64>) {
    let earlier = rows.len() / (2 * d);
    let base: Vec<f64> = if earlier > 0 {
        let j = rng.gen_range(0..earlier);
        rows[j * 2 * d..(j + 1) * 2 * d].to_vec()
    } else {
        Vec::new()
    };
    let mut row = vec![0.0; 2 * d];
    match (rng.gen_range(0..8usize), base.is_empty()) {
        (0, false) => row.copy_from_slice(&base),
        (1, false) => {
            for i in 0..d {
                let (l, h) = (base[i], base[d + i]);
                row[i] = l + (h - l) * rng.gen_range(0.0..0.5);
                row[d + i] = h - (h - row[i]) * rng.gen_range(0.0..0.5);
            }
        }
        (2, false) => {
            let i = rng.gen_range(0..d);
            for j in 0..d {
                let (a, b) = (coord(rng), coord(rng));
                row[j] = a.min(b);
                row[d + j] = a.max(b);
            }
            let w = row[d + i] - row[i];
            row[i] = base[d + i];
            row[d + i] = base[d + i] + w;
        }
        (3, _) => {
            for i in 0..d {
                row[i] = coord(rng);
                row[d + i] = row[i];
            }
        }
        _ => {
            for i in 0..d {
                let (a, b) = (coord(rng), coord(rng));
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                row[i] = lo;
                row[d + i] = hi;
            }
        }
    }
    rows.extend_from_slice(&row);
}

fn box_rows(rng: &mut StdRng, d: usize, max: usize) -> Vec<f64> {
    let mut rows = Vec::new();
    for _ in 0..rng.gen_range(0..max) {
        push_box(rng, d, &mut rows);
    }
    rows
}

/// Box cases run d = 1…7, past every row width the kernels compile a
/// scan for.
fn boxes_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = rng.gen_range(1..8usize);
    let a = box_rows(&mut rng, d, 24);
    let b = box_rows(&mut rng, d, 24);
    replay_boxes(d, &a, &b);
}

fn regions_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = rng.gen_range(1..8usize);
    // Wide boxes over a shared core keep products non-empty for a few
    // rounds; an occasional narrow one annihilates early. Products of
    // wide boxes rarely nest in high d, so the box count can grow as
    // the product of the regions' counts: fewer, smaller regions there.
    let (regions, boxes) = if d >= 5 { (5, 4) } else { (9, 10) };
    let regions: Vec<Vec<f64>> = (0..rng.gen_range(1..regions))
        .map(|_| {
            let mut rows = Vec::new();
            for _ in 0..rng.gen_range(1..boxes) {
                for _ in 0..d {
                    rows.push(rng.gen_range(-4.0..0.5));
                }
                for _ in 0..d {
                    rows.push(rng.gen_range(0.5..5.0));
                }
                if rng.gen_range(0..6usize) == 0 {
                    push_box(&mut rng, d, &mut rows);
                }
            }
            rows
        })
        .collect();
    let slices: Vec<&[f64]> = regions.iter().map(Vec::as_slice).collect();
    replay_regions(d, &slices);
}

fn skyline_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = rng.gen_range(2..7usize);
    // Grid products tie the customer and each other; keep d ≥ 5 small
    // enough for the quadratic oracle.
    let n = rng.gen_range(1..[0usize, 0, 60, 40, 24, 14, 9][d]);
    let grid = |rng: &mut StdRng| -> f64 {
        if rng.gen_range(0..3usize) == 0 {
            rng.gen_range(0.0..8.0)
        } else {
            f64::from(rng.gen_range(0u32..9))
        }
    };
    let products: Vec<f64> = (0..n * d).map(|_| grid(&mut rng)).collect();
    let c: Vec<f64> = (0..d).map(|_| grid(&mut rng)).collect();
    // Usually the bounding box of products and customer; sometimes the
    // products' alone (the customer may fall outside) or a wider box.
    let mut lo: Vec<f64> = (0..d)
        .map(|i| {
            products
                .chunks_exact(d)
                .map(|p| p[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let mut hi: Vec<f64> = (0..d)
        .map(|i| {
            products
                .chunks_exact(d)
                .map(|p| p[i])
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .collect();
    match rng.gen_range(0..5usize) {
        0 => {}
        1 => {
            for i in 0..d {
                lo[i] -= 1.0;
                hi[i] += 2.0;
            }
        }
        _ => {
            for i in 0..d {
                lo[i] = lo[i].min(c[i]);
                hi[i] = hi[i].max(c[i]);
            }
        }
    }
    let k = rng.gen_range(1..8usize);
    replay_skyline(&c, &products, &lo, &hi, k);
}

/// Runs `case(seed)`, naming the seed when it fails.
fn seeded(seed: u64, case: fn(u64)) {
    if let Err(panic) = catch_unwind(|| case(seed)) {
        eprintln!("failing seed: {seed}");
        resume_unwind(panic);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn from_boxes_and_intersect_match_the_oracle(seed in 0u64..u64::MAX) {
        let _serial = serial();
        seeded(seed, boxes_case);
    }

    #[test]
    fn intersect_all_matches_the_oracle(seed in 0u64..u64::MAX) {
        let _serial = serial();
        seeded(seed, regions_case);
    }

    #[test]
    fn anti_ddrs_match_the_oracle(seed in 0u64..u64::MAX) {
        let _serial = serial();
        seeded(seed, skyline_case);
    }
}

#[test]
fn replay_fixtures() {
    let _serial = serial();
    // Equal boxes whose zeros differ in sign: the first one's bits win.
    replay_boxes(
        2,
        &[-0.0, 0.0, 1.0, 1.0, 0.0, -0.0, 1.0, 1.0],
        &[0.0, 0.0, 1.0, 1.0],
    );
    // Touching boxes meet in a degenerate box; a nested and a duplicate
    // box are pruned.
    replay_boxes(
        3,
        &[
            0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 2.0, 1.0, 1.0, 0.5, 0.5, 0.5, 1.0, 1.0,
            1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0,
        ],
        &[1.0, 0.0, 0.0, 3.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    );
    // A single region passes through; a disjoint pair annihilates.
    replay_regions(2, &[&[0.0, 0.0, 1.0, 1.0]]);
    replay_regions(
        2,
        &[
            &[0.0, 0.0, 1.0, 1.0],
            &[2.0, 2.0, 3.0, 3.0],
            &[0.0, 0.0, 4.0, 4.0, 1.0, 1.0, 2.0, 2.0],
        ],
    );
    // A customer tying products in one dimension, outside the universe.
    replay_skyline(
        &[0.0, 4.0, 2.0],
        &[0.0, 1.0, 2.0, 3.0, 4.0, 2.0, 1.0, 1.0, 1.0, 3.0, 3.0, 0.0],
        &[0.5, 0.5, 0.5],
        &[4.0, 4.0, 4.0],
        2,
    );
}
