//! Deterministic-interleaving harness for the cached engine
//! (`--features dt-sched`).
//!
//! With `dt-sched` on, the engine cache's internal `RwLock` (and the
//! outer engine lock built here) report every acquisition to
//! [`wnrs_core::sync::sched::Scheduler`], which picks the next runnable
//! thread from a seeded PRNG. Each seed therefore names one exact
//! interleaving of concurrent explain/MWQ/RSL/lazy-safe-region readers
//! and insert/delete writers over one shared cached engine — and
//! replays it forever.
//!
//! Correctness oracle: every operation records its `Debug`-rendered
//! answer in a linearization log ordered by the outer lock (readers
//! share it, so reader/reader order is immaterial — they see the same
//! dataset). Replaying the log single-threaded against a *plain,
//! uncached* engine must reproduce every recorded answer bit for bit:
//! the cache, under every explored interleaving, is answer-invisible.
//!
//! The stale-fill test drives the `EngineCache` directly (no outer
//! lock), racing a reader's miss→compute→fill against a writer's
//! invalidation — the ABA that motivated generation-checked fills.

#![cfg(feature = "dt-sched")]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex, PoisonError};
use wnrs_core::sync::sched::{self, Scheduler};
use wnrs_core::sync::RwLock;
use wnrs_core::{EngineCache, WhyNotEngine};
use wnrs_geometry::{CoordKey, Point};
use wnrs_rtree::{ItemId, RTreeConfig};

const BASE_POINTS: usize = 24;
/// Readers only ever query these customer ids; writers only ever
/// delete ids from `DELETE_FROM` up — so a query target can never be a
/// tombstone, whatever the interleaving.
const QUERY_IDS: u32 = 5;
const DELETE_FROM: u32 = 20;

/// Sample size for the lazy safe-region reader op — small enough that
/// every base customer's DSL truncates differently, so a stale sample
/// is visible in the region.
const LAZY_K: usize = 3;

#[derive(Debug, Clone)]
enum Op {
    Rsl(Point),
    Explain(ItemId, Point),
    MwqFull(ItemId, Point),
    /// Reverse skyline + lazy approximate safe region in one reader op:
    /// exercises the memoised per-customer DSL samples (and their
    /// surgical eviction) under every explored interleaving.
    LazySr(Point),
    Insert(Point),
    Delete(ItemId),
}

fn base_points() -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(0xB45E);
    wnrs_data::uniform(&mut rng, BASE_POINTS, 2)
}

fn rand_point(rng: &mut StdRng) -> Point {
    Point::xy(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0))
}

/// One seeded workload: two reader threads and one writer thread, op
/// mixes derived from the same seed that drives the schedule.
fn workload(seed: u64) -> Vec<Vec<Op>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut threads = Vec::new();
    for _reader in 0..2 {
        let mut ops = Vec::new();
        for _ in 0..3 {
            let id = ItemId(rng.gen_range(0..QUERY_IDS));
            let q = rand_point(&mut rng);
            ops.push(match rng.gen_range(0..4u8) {
                0 => Op::Rsl(q),
                1 => Op::Explain(id, q),
                2 => Op::LazySr(q),
                _ => Op::MwqFull(id, q),
            });
        }
        threads.push(ops);
    }
    threads.push(vec![
        Op::Insert(rand_point(&mut rng)),
        Op::Delete(ItemId(
            DELETE_FROM + rng.gen_range(0..(BASE_POINTS as u32 - DELETE_FROM)),
        )),
        Op::Insert(rand_point(&mut rng)),
    ]);
    threads
}

fn run_reader_op(engine: &WhyNotEngine, op: &Op) -> String {
    match op {
        Op::Rsl(q) => format!("{:?}", engine.reverse_skyline(q)),
        Op::Explain(id, q) => format!("{:?}", engine.explain(*id, q)),
        Op::MwqFull(id, q) => format!("{:?}", engine.mwq_full(*id, q)),
        Op::LazySr(q) => {
            let rsl = engine.reverse_skyline(q);
            format!(
                "{:?}",
                (&rsl, engine.approx_safe_region_lazy(q, &rsl, LAZY_K))
            )
        }
        Op::Insert(_) | Op::Delete(_) => unreachable!("writer op on the read path"),
    }
}

fn run_writer_op(engine: &mut WhyNotEngine, op: &Op) -> String {
    match op {
        Op::Insert(p) => format!("{:?}", engine.insert(p.clone())),
        Op::Delete(id) => format!("{:?}", engine.delete(*id)),
        _ => unreachable!("reader op on the write path"),
    }
}

/// Runs one seeded schedule of the workload against a shared cached
/// engine; returns the schedule log and the linearization log.
fn run_schedule(seed: u64) -> (Vec<usize>, Vec<(Op, String)>) {
    let engine =
        WhyNotEngine::with_config(base_points(), RTreeConfig::with_max_entries(8)).with_cache();
    let world = Arc::new(RwLock::new(engine));
    let log: Arc<Mutex<Vec<(Op, String)>>> = Arc::new(Mutex::new(Vec::new()));

    let mut tasks: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    for (t, ops) in workload(seed).into_iter().enumerate() {
        let world = Arc::clone(&world);
        let log = Arc::clone(&log);
        let is_writer = t == 2;
        tasks.push(Box::new(move || {
            for op in ops {
                if is_writer {
                    let mut guard = world.write().unwrap_or_else(PoisonError::into_inner);
                    let result = run_writer_op(&mut guard, &op);
                    // Logged under the exclusive guard: the log order is
                    // the outer-lock linearization order.
                    log.lock().unwrap().push((op, result));
                } else {
                    let guard = world.read().unwrap_or_else(PoisonError::into_inner);
                    let result = run_reader_op(&guard, &op);
                    log.lock().unwrap().push((op, result));
                }
                sched::yield_point();
            }
        }));
    }

    let schedule = Scheduler::run(seed, tasks);
    let entries = Arc::try_unwrap(log)
        .expect("all tasks joined")
        .into_inner()
        .unwrap();
    (schedule, entries)
}

/// Replays a linearization log single-threaded against a plain
/// uncached engine and asserts every answer matches bit for bit.
fn assert_matches_uncached_oracle(seed: u64, entries: &[(Op, String)]) {
    let mut oracle = WhyNotEngine::with_config(base_points(), RTreeConfig::with_max_entries(8));
    for (i, (op, recorded)) in entries.iter().enumerate() {
        let replayed = match op {
            Op::Insert(_) | Op::Delete(_) => run_writer_op(&mut oracle, op),
            _ => run_reader_op(&oracle, op),
        };
        assert_eq!(
            &replayed, recorded,
            "seed {seed}: entry {i} ({op:?}) diverged from the uncached oracle"
        );
    }
}

/// The acceptance gate: 256 seeded interleavings of concurrent cached
/// readers and writers, each bit-identical to the single-threaded
/// uncached oracle.
#[test]
fn two_hundred_fifty_six_interleavings_match_uncached_oracle() {
    for seed in 0..256u64 {
        let (_schedule, entries) = run_schedule(seed);
        assert_eq!(entries.len(), 9, "seed {seed}: every op must complete");
        assert_matches_uncached_oracle(seed, &entries);
    }
}

proptest! {
    /// Replay determinism: the same seed reproduces the identical
    /// schedule and the identical answers, run after run.
    #[test]
    fn same_seed_replays_the_identical_schedule(seed in 0u64..100_000) {
        let (sched_a, lin_a) = run_schedule(seed);
        let (sched_b, lin_b) = run_schedule(seed);
        prop_assert_eq!(&sched_a, &sched_b);
        prop_assert_eq!(
            format!("{lin_a:?}"),
            format!("{lin_b:?}")
        );
    }
}

/// Drives the cache directly (no outer engine lock) through the
/// fill/invalidate race: thread A samples the generation, misses,
/// "computes", then fills; thread B invalidates somewhere in between.
/// Whatever the interleaving, a stale value must never be servable.
#[test]
fn stale_fill_race_never_serves_stale_entries() {
    #[derive(Debug, PartialEq, Clone, Copy)]
    enum Ev {
        Captured,
        Filled,
        Invalidated,
    }

    let mut outcomes = [0usize; 3];
    for seed in 0..64u64 {
        let cache = Arc::new(EngineCache::new());
        let events: Arc<Mutex<Vec<Ev>>> = Arc::new(Mutex::new(Vec::new()));
        let q = Point::xy(1.0, 1.0);
        let k = CoordKey::of_point(&q);

        let filler = {
            let cache = Arc::clone(&cache);
            let events = Arc::clone(&events);
            let (q, k) = (q.clone(), k.clone());
            Box::new(move || {
                // Each event is pushed with no schedule point between it
                // and the action it names (Captured just before the
                // un-checkpointed load; Filled/Invalidated just after
                // their critical sections), so the shared log reflects
                // the true interleaving.
                events.lock().unwrap().push(Ev::Captured);
                let expected_gen = cache.generation();
                assert!(cache.get_rsl(&k).is_none());
                sched::yield_point(); // the "compute" window
                cache.put_rsl(expected_gen, k, q, vec![(ItemId(3), Point::xy(9.0, 9.0))]);
                events.lock().unwrap().push(Ev::Filled);
            }) as Box<dyn FnOnce() + Send>
        };
        let invalidator = {
            let cache = Arc::clone(&cache);
            let events = Arc::clone(&events);
            Box::new(move || {
                cache.invalidate();
                events.lock().unwrap().push(Ev::Invalidated);
            }) as Box<dyn FnOnce() + Send>
        };

        Scheduler::run(seed, vec![filler, invalidator]);
        let events = events.lock().unwrap().clone();
        let stats = cache.stats();
        let entry = cache.get_rsl(&k);

        let inv_at = events.iter().position(|&e| e == Ev::Invalidated).unwrap();
        let captured_at = events.iter().position(|&e| e == Ev::Captured).unwrap();
        let filled_at = events.iter().position(|&e| e == Ev::Filled).unwrap();
        if inv_at < captured_at {
            // Writer first: the fill was computed at the new generation
            // and lands normally.
            assert!(entry.is_some(), "seed {seed}: fresh fill must land");
            assert_eq!(stats.stale_fills, 0, "seed {seed}");
            outcomes[0] += 1;
        } else if inv_at < filled_at {
            // The ABA window: without generation-checked fills this
            // interleaving would leave a stale entry that looks current.
            assert!(entry.is_none(), "seed {seed}: stale fill must be dropped");
            assert_eq!(stats.stale_fills, 1, "seed {seed}");
            outcomes[1] += 1;
        } else {
            // Writer last: the flush removed the (valid-at-fill) entry.
            assert!(entry.is_none(), "seed {seed}: flush evicts the entry");
            assert_eq!(stats.stale_fills, 0, "seed {seed}");
            outcomes[2] += 1;
        }
    }
    assert!(
        outcomes.iter().all(|&n| n > 0),
        "64 seeds must exercise all three orders, got {outcomes:?}"
    );
}

/// The scheduler's runnability filter: a thread parked on a write
/// acquisition is not scheduled while readers hold the lock, so the
/// cooperative design never wedges on plain contention.
#[test]
fn writer_parked_behind_reader_is_not_scheduled_until_release() {
    for seed in 0..16u64 {
        let lock = Arc::new(RwLock::new(0u32));
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..3)
            .map(|t| {
                let lock = Arc::clone(&lock);
                Box::new(move || {
                    if t == 2 {
                        *lock.write().unwrap_or_else(PoisonError::into_inner) += 1;
                    } else {
                        let guard = lock.read().unwrap_or_else(PoisonError::into_inner);
                        sched::yield_point(); // hold the read lock across a schedule point
                        drop(guard);
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        Scheduler::run(seed, tasks);
        assert_eq!(*lock.read().unwrap_or_else(PoisonError::into_inner), 1);
    }
}
