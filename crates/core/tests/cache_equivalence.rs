//! Property tests: the cross-query cache is answer-invisible.
//!
//! A [`WhyNotEngine`] built `with_cache()` must return *bit-identical*
//! answers to a plain engine over the same data, for every algorithm
//! (explain, MWP, MQP, safe region, MWQ), at every point of a random
//! interleaving of queries and dataset mutations:
//!
//! * repeated identical query points exercise the hit paths (the second
//!   ask is served from the memo and must equal the first);
//! * `insert`/`delete` bump the cache generation and flush it — a
//!   mutation can never leave a stale answer behind;
//! * `±0.0` coordinates key to the same entry (`f64_key` normalises the
//!   sign of zero) and still produce the right answers;
//! * the batch entry points equal their one-at-a-time counterparts.
//!
//! Answers carry `f64` costs and coordinates, so equality is asserted
//! on `Debug` renderings — any bit difference shows up.
//!
//! The lazy-DSL suite at the bottom extends the same bar to the
//! on-demand sample store: lazily materialised per-customer samples and
//! the lazy approximate safe region must be bit-identical to an eager
//! [`ApproxDslStore`] of the same `k` — in any query order, for any `k`
//! (memo keys must not alias two sample sizes), and across insert/delete
//! interleavings (where the uncached engine, which recomputes every
//! sample on every ask, is the ground truth the surgically evicted
//! cache must keep matching).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wnrs_core::WhyNotEngine;
use wnrs_geometry::{Point, Rect};
use wnrs_rtree::{ItemId, RTreeConfig};

fn make_points(dist: u8, n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    match dist % 3 {
        0 => wnrs_data::uniform(&mut rng, n, 2),
        1 => wnrs_data::correlated(&mut rng, n, 2),
        _ => wnrs_data::anticorrelated(&mut rng, n, 2),
    }
}

fn engines_of(points: Vec<Point>) -> (WhyNotEngine, WhyNotEngine) {
    let plain = WhyNotEngine::with_config(points.clone(), RTreeConfig::with_max_entries(8));
    let cached = WhyNotEngine::with_config(points, RTreeConfig::with_max_entries(8)).with_cache();
    (plain, cached)
}

fn query_in(points: &[Point], rng: &mut StdRng) -> Point {
    let bounds = Rect::bounding(points);
    let coords: Vec<f64> = (0..bounds.dim())
        .map(|i| rng.gen_range(bounds.lo()[i]..=bounds.hi()[i].max(bounds.lo()[i] + 1e-9)))
        .collect();
    Point::new(coords)
}

/// Asserts every algorithm agrees between the two engines for one
/// `(customer, query)` pair, asking the cached engine twice so both the
/// fill and the hit path are checked against the plain answer.
fn assert_all_algorithms_agree(plain: &WhyNotEngine, cached: &WhyNotEngine, id: ItemId, q: &Point) {
    let rsl_p = plain.reverse_skyline(q);
    for _round in 0..2 {
        let rsl_c = cached.reverse_skyline(q);
        assert_eq!(format!("{rsl_p:?}"), format!("{rsl_c:?}"), "rsl diverged");
        assert_eq!(
            format!("{:?}", plain.explain(id, q)),
            format!("{:?}", cached.explain(id, q)),
            "explain diverged"
        );
        assert_eq!(
            format!("{:?}", plain.mwp(id, q)),
            format!("{:?}", cached.mwp(id, q)),
            "mwp diverged"
        );
        assert_eq!(
            format!("{:?}", plain.mqp(id, q)),
            format!("{:?}", cached.mqp(id, q)),
            "mqp diverged"
        );
        assert_eq!(
            format!("{:?}", plain.safe_region_for(q, &rsl_p)),
            format!("{:?}", cached.safe_region_for(q, &rsl_c)),
            "safe region diverged"
        );
        assert_eq!(
            format!("{:?}", plain.mwq_full(id, q)),
            format!("{:?}", cached.mwq_full(id, q)),
            "mwq diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn cached_equals_uncached_on_repeated_queries(
        dist in 0u8..3,
        n in 30usize..80,
        seed in 0u64..1_000_000,
    ) {
        let points = make_points(dist, n, seed);
        let (plain, cached) = engines_of(points.clone());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        // Two distinct queries, each asked for two customers, the whole
        // block twice over — plenty of identical repeats.
        let queries = [query_in(&points, &mut rng), query_in(&points, &mut rng)];
        for _pass in 0..2 {
            for q in &queries {
                for _ in 0..2 {
                    let id = ItemId(rng.gen_range(0..n) as u32);
                    assert_all_algorithms_agree(&plain, &cached, id, q);
                }
            }
        }
        let stats = cached.cache_stats().expect("cache enabled");
        prop_assert!(stats.hits > 0, "repeats must hit the cache");
        prop_assert_eq!(stats.invalidations, 0);
    }

    #[test]
    fn mutation_interleavings_never_leave_stale_answers(
        dist in 0u8..3,
        n in 30usize..60,
        seed in 0u64..1_000_000,
        ops in prop::collection::vec((0u8..4, 0usize..1_000_000), 4..10),
    ) {
        let points = make_points(dist, n, seed);
        let (mut plain, mut cached) = engines_of(points.clone());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD00D);
        // One hot query point reused across the whole interleaving, so
        // mutations strike while its entries are warm.
        let hot_q = query_in(&points, &mut rng);
        let mut mutations = 0u64;
        for (op, pick) in ops {
            match op {
                // Insert a fresh point (possibly outside the universe).
                0 => {
                    let mut p = query_in(&points, &mut rng);
                    if pick % 3 == 0 {
                        p = Point::xy(p[0] * 1.5 + 1.0, p[1] * 1.5 + 1.0);
                    }
                    let a = plain.insert(p.clone());
                    let b = cached.insert(p);
                    prop_assert_eq!(a, b, "ids must stay in lockstep");
                    mutations += 1;
                }
                // Delete a live id (skip if it would empty the dataset).
                1 => {
                    let id = ItemId((pick % plain.len()) as u32);
                    if plain.is_live(id) && plain.live_len() > 1 {
                        prop_assert!(plain.delete(id));
                        prop_assert!(cached.delete(id));
                        mutations += 1;
                        // Double delete is a no-op on both.
                        prop_assert!(!plain.delete(id));
                        prop_assert!(!cached.delete(id));
                    }
                }
                // Query the hot point or a fresh one.
                _ => {
                    let q = if op == 2 { hot_q.clone() } else { query_in(&points, &mut rng) };
                    let id = ItemId((pick % plain.len()) as u32);
                    assert_all_algorithms_agree(&plain, &cached, id, &q);
                }
            }
            prop_assert_eq!(plain.live_len(), cached.live_len());
        }
        // Every answer after the final mutation reflects the final
        // dataset: the generation counter matches the mutation count
        // and one last full check runs against the hot query.
        let last = ItemId((plain.len() - 1) as u32);
        assert_all_algorithms_agree(&plain, &cached, last, &hot_q);
        let stats = cached.cache_stats().expect("cache enabled");
        prop_assert_eq!(stats.invalidations, mutations);
        prop_assert_eq!(stats.generation, mutations);
    }

    #[test]
    fn surgical_interleavings_stay_partial_and_correct(
        dist in 0u8..3,
        n in 30usize..60,
        seed in 0u64..1_000_000,
        ops in prop::collection::vec((0u8..4, 0usize..1_000_000), 4..10),
    ) {
        // Like the interleaving test above, but every insert stays
        // inside the dataset bounding box, so no write can grow the
        // universe: the incremental cache must handle every mutation
        // surgically — zero full flushes — while staying
        // answer-identical to the plain engine.
        let points = make_points(dist, n, seed);
        let (mut plain, mut cached) = engines_of(points.clone());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFACE);
        let hot_q = query_in(&points, &mut rng);
        let mut mutations = 0u64;
        for (op, pick) in ops {
            match op {
                0 => {
                    let p = query_in(&points, &mut rng);
                    let a = plain.insert(p.clone());
                    let b = cached.insert(p);
                    prop_assert_eq!(a, b, "ids must stay in lockstep");
                    mutations += 1;
                }
                1 => {
                    let id = ItemId((pick % plain.len()) as u32);
                    if plain.is_live(id) && plain.live_len() > 1 {
                        prop_assert!(plain.delete(id));
                        prop_assert!(cached.delete(id));
                        mutations += 1;
                    }
                }
                _ => {
                    let q = if op == 2 { hot_q.clone() } else { query_in(&points, &mut rng) };
                    let id = ItemId((pick % plain.len()) as u32);
                    assert_all_algorithms_agree(&plain, &cached, id, &q);
                }
            }
        }
        let last = ItemId((plain.len() - 1) as u32);
        assert_all_algorithms_agree(&plain, &cached, last, &hot_q);
        let stats = cached.cache_stats().expect("cache enabled");
        prop_assert_eq!(stats.invalidations, mutations);
        prop_assert_eq!(stats.generation, mutations);
        prop_assert_eq!(stats.partial_invalidations, mutations);
        prop_assert_eq!(stats.full_flushes, 0);
    }

    #[test]
    fn batch_entry_points_match_singles(
        dist in 0u8..3,
        n in 30usize..70,
        seed in 0u64..1_000_000,
    ) {
        let points = make_points(dist, n, seed);
        let (plain, cached) = engines_of(points.clone());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C);
        let q = query_in(&points, &mut rng);
        let ids: Vec<ItemId> = (0..8).map(|_| ItemId(rng.gen_range(0..n) as u32)).collect();
        for engine in [&plain, &cached] {
            let explanations = engine.explain_batch(&ids, &q);
            let (sr, answers) = engine.mwq_batch(&ids, &q);
            prop_assert_eq!(explanations.len(), ids.len());
            let sr_single = plain.safe_region(&q);
            prop_assert_eq!(format!("{sr:?}"), format!("{sr_single:?}"));
            for (i, &id) in ids.iter().enumerate() {
                prop_assert_eq!(
                    format!("{:?}", explanations[i]),
                    format!("{:?}", plain.explain(id, &q))
                );
                prop_assert_eq!(answers[i].0, id);
                prop_assert_eq!(
                    format!("{:?}", answers[i].1),
                    format!("{:?}", plain.mwq(id, &q, &sr_single))
                );
            }
        }
    }
}

#[test]
fn negative_zero_queries_share_entries_and_answers() {
    // A dataset straddling zero so a ±0.0 query coordinate is in range.
    let mut points = make_points(0, 40, 77);
    points.push(Point::xy(0.0, 0.5));
    points.push(Point::xy(-0.25, -0.5));
    let (plain, cached) = engines_of(points);
    let pos = Point::xy(0.0, 0.3);
    let neg = Point::xy(-0.0, 0.3);
    let id = ItemId(3);
    assert_all_algorithms_agree(&plain, &cached, id, &pos);
    let after_pos = cached.cache_stats().expect("cache enabled");
    assert_all_algorithms_agree(&plain, &cached, id, &neg);
    let after_neg = cached.cache_stats().expect("cache enabled");
    // The -0.0 round recomputes nothing new: every per-query lookup
    // lands on the +0.0 entries, so misses stay flat.
    assert_eq!(
        after_neg.misses, after_pos.misses,
        "-0.0 must key to the +0.0 entries"
    );
    assert!(after_neg.hits > after_pos.hits);
}

#[test]
fn surgical_invalidation_is_selective() {
    // The paper's running example (Fig. 2): customer c5 = pt5 = (24, 20)
    // has DSL(c5) = {(19, 10), (16.5, 22), (4, 30), (2, 50)} in its
    // distance space. A write *shielded* by a DSL member must leave the
    // memoised entry in place; a write that joins the dynamic skyline
    // must evict it — and both stay answer-identical to a plain engine.
    let points = vec![
        Point::xy(5.0, 30.0),  // pt1
        Point::xy(7.5, 42.0),  // pt2
        Point::xy(2.5, 70.0),  // pt3
        Point::xy(7.5, 90.0),  // pt4
        Point::xy(24.0, 20.0), // pt5 = c5
        Point::xy(20.0, 50.0), // pt6
        Point::xy(26.0, 70.0), // pt7
        Point::xy(16.0, 80.0), // pt8
    ];
    let (mut plain, mut cached) = engines_of(points);
    let q = Point::xy(8.5, 55.0);
    let c5 = ItemId(4);
    let has_dsl = |e: &WhyNotEngine| e.cache().expect("cache enabled").get_dsl(4).is_some();

    assert_all_algorithms_agree(&plain, &cached, c5, &q);
    assert!(has_dsl(&cached), "warm-up must memoise DSL(c5)");

    // (7.0, 44.0) transforms to (17, 24) at c5 — dominated by the DSL
    // member (16.5, 22), so DSL(c5) cannot change: the entry survives.
    plain.insert(Point::xy(7.0, 44.0));
    cached.insert(Point::xy(7.0, 44.0));
    assert!(has_dsl(&cached), "shielded write must not evict DSL(c5)");
    assert_all_algorithms_agree(&plain, &cached, c5, &q);

    // (25.0, 60.0) transforms to (1, 40) — no DSL member dominates it,
    // so it joins DSL(c5) and the stale entry must go.
    assert!(has_dsl(&cached));
    plain.insert(Point::xy(25.0, 60.0));
    cached.insert(Point::xy(25.0, 60.0));
    assert!(
        !has_dsl(&cached),
        "write inside the dominance region must evict DSL(c5)"
    );
    assert_all_algorithms_agree(&plain, &cached, c5, &q);

    // Both writes landed inside the universe: handled surgically.
    let stats = cached.cache_stats().expect("cache enabled");
    assert_eq!(stats.partial_invalidations, 2);
    assert_eq!(stats.full_flushes, 0);
    assert!(
        stats.dsl_evictions >= 1,
        "the joining write evicts DSL entries"
    );
}

#[test]
fn mutation_invalidates_immediately() {
    // Deterministic stale-answer probe: warm the cache, then insert a
    // point that lands inside the hot window so the old culprit list
    // would be visibly wrong if served.
    let points = vec![
        Point::xy(5.0, 30.0),
        Point::xy(7.5, 42.0),
        Point::xy(2.5, 70.0),
        Point::xy(7.5, 90.0),
        Point::xy(24.0, 20.0),
        Point::xy(20.0, 50.0),
        Point::xy(26.0, 70.0),
        Point::xy(16.0, 80.0),
    ];
    let (mut plain, mut cached) = engines_of(points);
    let q = Point::xy(8.5, 55.0);
    let id = ItemId(0);
    assert_all_algorithms_agree(&plain, &cached, id, &q);
    let warm = cached.cache_stats().expect("cache enabled");
    assert!(warm.hits > 0);

    // Midway between customer 0 and q: a new culprit for explain(0, q).
    let culprits_before = cached.explain(id, &q).culprits.len();
    plain.insert(Point::xy(6.5, 44.0));
    cached.insert(Point::xy(6.5, 44.0));
    let culprits_after = cached.explain(id, &q).culprits.len();
    assert_eq!(
        culprits_after,
        culprits_before + 1,
        "stale culprit list served"
    );
    assert_all_algorithms_agree(&plain, &cached, id, &q);

    // Deleting the new culprit restores the original answer.
    let new_id = ItemId(8);
    assert!(plain.delete(new_id));
    assert!(cached.delete(new_id));
    assert_eq!(cached.explain(id, &q).culprits.len(), culprits_before);
    assert_all_algorithms_agree(&plain, &cached, id, &q);
    let stats = cached.cache_stats().expect("cache enabled");
    assert_eq!(stats.invalidations, 2);
}

/// Coordinates as raw bit patterns: `assert_eq!` on `f64` slices would
/// conflate `±0.0` and choke on NaN; bits catch every difference.
fn bits_of(coords: &[f64]) -> Vec<u64> {
    coords.iter().map(|v| v.to_bits()).collect()
}

/// Asserts the lazy path is bit-identical to an eager store of the same
/// `k` for one query: the safe region (memoised on `cached`, streaming
/// on `plain`, eager on the store) and every reverse-skyline member's
/// sample, fingerprint *and* coordinates.
fn assert_lazy_matches_eager_store(
    plain: &WhyNotEngine,
    cached: &WhyNotEngine,
    q: &Point,
    k: usize,
) {
    let rsl = plain.reverse_skyline(q);
    let store = plain.build_approx_store(k);
    let eager = format!("{:?}", plain.approx_safe_region_for(q, &rsl, &store));
    // Two rounds on the cached engine: the first fills the lazy sample
    // and sr_approx entries, the second must serve them unchanged.
    for _round in 0..2 {
        assert_eq!(
            eager,
            format!("{:?}", cached.approx_safe_region_lazy(q, &rsl, k)),
            "memoised lazy safe region diverged from the eager store"
        );
    }
    assert_eq!(
        eager,
        format!("{:?}", plain.approx_safe_region_lazy(q, &rsl, k)),
        "unmemoised lazy safe region diverged from the eager store"
    );
    for (id, _) in &rsl {
        for entry in [
            cached.lazy_dsl_sample(*id, k),
            plain.lazy_dsl_sample(*id, k),
        ] {
            assert_eq!(
                entry.fingerprint,
                store.entry_fingerprint(*id),
                "lazy sample fingerprint diverged for {id:?}"
            );
            assert_eq!(
                bits_of(&entry.coords),
                bits_of(store.sample(*id).coords()),
                "lazy sample coordinates diverged for {id:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn lazy_dsl_equals_eager_store_in_any_query_order(
        dist in 0u8..3,
        n in 30usize..70,
        seed in 0u64..1_000_000,
        k in 1usize..6,
        order in prop::collection::vec(0usize..4, 4..8),
    ) {
        let points = make_points(dist, n, seed);
        let (plain, cached) = engines_of(points.clone());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1A27);
        let queries: Vec<Point> = (0..4).map(|_| query_in(&points, &mut rng)).collect();
        // Whatever order the queries arrive in (repeats included), every
        // lazy answer matches the eager store built over the same data.
        for i in order {
            assert_lazy_matches_eager_store(&plain, &cached, &queries[i], k);
        }
        let stats = cached.cache_stats().expect("cache enabled");
        prop_assert!(stats.hits > 0, "repeats must hit the lazy entries");
        prop_assert_eq!(stats.invalidations, 0);
    }

    #[test]
    fn lazy_equivalence_survives_mutation_interleavings(
        dist in 0u8..3,
        n in 30usize..60,
        seed in 0u64..1_000_000,
        k in 1usize..5,
        ops in prop::collection::vec((0u8..4, 0usize..1_000_000), 4..10),
    ) {
        // The eager store demands dense ids, so after deletes the ground
        // truth is the uncached engine: it recomputes every sample on
        // every ask, while the surgical cache keeps whatever its write
        // probes deemed unaffected. A stale sample that dodged surgical
        // eviction shows up as a fingerprint or region diff.
        let points = make_points(dist, n, seed);
        let (plain, surgical) = engines_of(points.clone());
        let mut engines = [plain, surgical];
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1A55);
        let hot_q = query_in(&points, &mut rng);
        let check = |engines: &[WhyNotEngine; 2], q: &Point| {
            let [plain, surgical] = engines;
            let rsl = plain.reverse_skyline(q);
            assert_eq!(
                format!("{:?}", plain.approx_safe_region_lazy(q, &rsl, k)),
                format!("{:?}", surgical.approx_safe_region_lazy(q, &rsl, k)),
                "lazy safe region diverged after mutations"
            );
            for (id, _) in &rsl {
                let a = surgical.lazy_dsl_sample(*id, k);
                let b = plain.lazy_dsl_sample(*id, k);
                assert_eq!(
                    a.fingerprint, b.fingerprint,
                    "surgically retained sample went stale for {id:?}"
                );
                assert_eq!(bits_of(&a.coords), bits_of(&b.coords));
            }
        };
        for (op, pick) in ops {
            match op {
                0 => {
                    let p = query_in(&points, &mut rng);
                    let ids: Vec<ItemId> =
                        engines.iter_mut().map(|e| e.insert(p.clone())).collect();
                    prop_assert_eq!(ids[0], ids[1]);
                }
                1 => {
                    let id = ItemId((pick % engines[0].len()) as u32);
                    if engines[0].is_live(id) && engines[0].live_len() > 1 {
                        for e in &mut engines {
                            prop_assert!(e.delete(id));
                        }
                    }
                }
                _ => {
                    let q = if op == 2 { hot_q.clone() } else { query_in(&points, &mut rng) };
                    check(&engines, &q);
                }
            }
        }
        check(&engines, &hot_q);
    }
}

/// A sample size past `u32::MAX` must not share memo entries with the
/// size it equals modulo 2^32: after a `k = 1` ask, the cached engine
/// must still answer `k = 2^32 + 1` (which keeps every DSL point) like
/// the uncached one.
#[cfg(target_pointer_width = "64")]
#[test]
fn lazy_sample_keys_keep_the_full_sample_size() {
    let points = make_points(2, 60, 2013);
    let (plain, cached) = engines_of(points.clone());
    let huge = (1usize << 32) + 1;
    let mut rng = StdRng::seed_from_u64(0x6B31);
    for _ in 0..4 {
        let q = query_in(&points, &mut rng);
        let rsl = plain.reverse_skyline(&q);
        cached.approx_safe_region_lazy(&q, &rsl, 1);
        assert_eq!(
            format!("{:?}", plain.approx_safe_region_lazy(&q, &rsl, huge)),
            format!("{:?}", cached.approx_safe_region_lazy(&q, &rsl, huge)),
            "k = 2^32 + 1 was served the k = 1 samples"
        );
        for (id, _) in &rsl {
            assert_eq!(
                bits_of(&plain.lazy_dsl_sample(*id, huge).coords),
                bits_of(&cached.lazy_dsl_sample(*id, huge).coords),
                "sample of {id:?} aliased across sample sizes"
            );
        }
    }
}
