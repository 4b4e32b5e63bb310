//! Equivalence of the allocation-free hot-path kernels with their boxed
//! reference implementations:
//!
//! * a [`BbsScratch`] reused across many sequential queries returns the
//!   same skylines as fresh state per query (and as the compat wrapper);
//! * `abs_diff_into` / `dominates_components` agree with `abs_diff` /
//!   `dominates` on arbitrary inputs, including negatives and ties;
//! * the by-value `sample_dsl` is byte-identical to the seed's
//!   slice-based implementation on UN / CO / AC data.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wnrs_geometry::{
    abs_diff_into, cmp_f64, dominance::prune_dominated, dominates, dominates_components, Point,
};
use wnrs_rtree::bulk::bulk_load;
use wnrs_rtree::{into_ok, ItemId, RTreeConfig};
use wnrs_skyline::{
    bbs_dynamic_skyline_excluding, bbs_dynamic_skyline_scratch, sample_dsl, BbsScratch,
};

/// The seed implementation of `sample_dsl` (slice in, clones out),
/// kept verbatim as the regression reference.
fn sample_dsl_reference(dsl_t: &[Point], k: usize) -> Vec<Point> {
    assert!(k > 0, "sample size k must be positive");
    let mut sky: Vec<Point> = dsl_t.to_vec();
    prune_dominated(&mut sky, dominates);
    dedup_reference(&mut sky);
    sky.sort_by(|a, b| cmp_f64(a[0], b[0]));
    let m = sky.len();
    if m <= k.max(2) {
        return sky;
    }
    let step = m.div_ceil(k);
    let mut out: Vec<Point> = Vec::with_capacity(k + 2);
    out.push(sky[0].clone());
    let mut i = step;
    while i < m - 1 {
        out.push(sky[i].clone());
        i += step;
    }
    out.push(sky[m - 1].clone());
    out
}

/// The seed's duplicate removal, `swap_remove` traversal order included.
fn dedup_reference(pts: &mut Vec<Point>) {
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

fn bits(points: &[Point]) -> Vec<Vec<u64>> {
    points
        .iter()
        .map(|p| p.coords().iter().map(|c| c.to_bits()).collect())
        .collect()
}

#[test]
fn sample_dsl_matches_seed_on_un_co_ac() {
    let mut rng = StdRng::seed_from_u64(0x2013_0408);
    for d in [2usize, 3, 4] {
        let datasets = [
            ("UN", wnrs_data::synthetic::uniform(&mut rng, 250, d)),
            ("CO", wnrs_data::synthetic::correlated(&mut rng, 250, d)),
            ("AC", wnrs_data::synthetic::anticorrelated(&mut rng, 250, d)),
        ];
        for (name, pts) in datasets {
            for k in [1usize, 2, 3, 5, 10, 100, 400] {
                let want = sample_dsl_reference(&pts, k);
                let got = sample_dsl(pts.clone(), k);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{name} d = {d} k = {k}: sampled output diverged from seed"
                );
            }
        }
    }
}

#[test]
fn scratch_reuse_across_hundred_queries_matches_fresh_state() {
    let mut rng = StdRng::seed_from_u64(7);
    let pts = wnrs_data::synthetic::anticorrelated(&mut rng, 600, 2);
    let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
    let mut reused = BbsScratch::new();
    for i in 0..100u32 {
        let q = &pts[i as usize];
        let exclude = Some(ItemId(i));
        into_ok(bbs_dynamic_skyline_scratch(
            &tree,
            q.coords(),
            exclude,
            &mut reused,
        ));
        let mut fresh = BbsScratch::new();
        into_ok(bbs_dynamic_skyline_scratch(
            &tree,
            q.coords(),
            exclude,
            &mut fresh,
        ));
        assert_eq!(reused.ids(), fresh.ids(), "query {i}: id sequence diverged");
        assert_eq!(
            reused.dsl_t().coords(),
            fresh.dsl_t().coords(),
            "query {i}: transformed skyline diverged"
        );
        // And against the compat wrapper, transform included.
        let wrapper = bbs_dynamic_skyline_excluding(&tree, q, exclude);
        let wrapper_ids: Vec<ItemId> = wrapper.iter().map(|(id, _)| *id).collect();
        assert_eq!(reused.ids(), wrapper_ids.as_slice(), "query {i}");
        for ((_, p), t) in wrapper.iter().zip(reused.dsl_t().iter()) {
            assert_eq!(
                p.abs_diff(q).coords(),
                t.coords(),
                "query {i}: transform mismatch"
            );
        }
    }
}

/// Builds two d-dimensional coordinate vectors from raw draws, forcing
/// per-dimension ties and signed zeros according to the mask bits so the
/// equality branches of the kernels are exercised.
fn make_pair(
    d: usize,
    raw_a: &[f64],
    raw_b: &[f64],
    tie_mask: u64,
    zero_mask: u64,
) -> (Vec<f64>, Vec<f64>) {
    let mut a: Vec<f64> = raw_a[..d].to_vec();
    let mut b: Vec<f64> = raw_b[..d].to_vec();
    for i in 0..d {
        if zero_mask & (1 << i) != 0 {
            a[i] = 0.0;
        }
        if zero_mask & (1 << (i + 8)) != 0 {
            b[i] = -0.0;
        }
        if tie_mask & (1 << i) != 0 {
            b[i] = a[i];
        }
    }
    (a, b)
}

proptest! {
    #[test]
    fn abs_diff_into_matches_abs_diff(
        d in 1usize..6,
        raw_a in prop::collection::vec(-100.0f64..100.0, 6),
        raw_b in prop::collection::vec(-100.0f64..100.0, 6),
        tie_mask in 0u64..64,
        zero_mask in 0u64..65536,
    ) {
        let (a, b) = make_pair(d, &raw_a, &raw_b, tie_mask, zero_mask);
        let pa = Point::new(a.clone());
        let pb = Point::new(b.clone());
        let want = pa.abs_diff(&pb);
        let mut out = Vec::new();
        abs_diff_into(&a, &b, &mut out);
        let want_bits: Vec<u64> = want.coords().iter().map(|c| c.to_bits()).collect();
        let got_bits: Vec<u64> = out.iter().map(|c| c.to_bits()).collect();
        prop_assert_eq!(got_bits, want_bits);
        // Reuse: a second call through the same buffer fully replaces it.
        abs_diff_into(&b, &a, &mut out);
        prop_assert_eq!(out.len(), a.len());
    }

    #[test]
    fn dominates_components_matches_dominates(
        d in 1usize..6,
        raw_a in prop::collection::vec(-100.0f64..100.0, 6),
        raw_b in prop::collection::vec(-100.0f64..100.0, 6),
        tie_mask in 0u64..64,
        zero_mask in 0u64..65536,
    ) {
        let (a, b) = make_pair(d, &raw_a, &raw_b, tie_mask, zero_mask);
        let pa = Point::new(a.clone());
        let pb = Point::new(b.clone());
        prop_assert_eq!(dominates_components(&a, &b), dominates(&pa, &pb));
        prop_assert_eq!(dominates_components(&b, &a), dominates(&pb, &pa));
        // Irreflexive on ties.
        prop_assert!(!dominates_components(&a, &a));
    }
}
