//! Proves that the allocations of the MWP and MQP cores do not grow with
//! the culprit set `Λ`: appending 10,000 blockers that change neither
//! core's frontier nor its answer must leave the number of heap
//! allocations of one call unchanged.
//!
//! The extra blockers sit just behind blockers already in `Λ`, in each
//! core's own frame: for MWP each escape threshold is slightly lower
//! (the blocker moved away from `q`), for MQP each image `|e − c_t|` is
//! slightly larger in every dimension. A counting `#[global_allocator]`
//! wraps the system allocator; the test binary is single-test on
//! purpose so no concurrent test case can bleed allocations into the
//! measured window.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;
use wnrs_core::answer::Candidate;
use wnrs_core::engine::DEFAULT_EPS;
use wnrs_core::{modify_query_point_core, modify_why_not_point_core};
use wnrs_data::RepeatedWorkload;
use wnrs_geometry::{dominates_dyn, CostModel, Point, Weights};
use wnrs_reverse_skyline::window_query;
use wnrs_rtree::bulk::bulk_load;
use wnrs_rtree::{ItemId, RTreeConfig};

/// System allocator wrapper counting every allocation and reallocation.
struct CountingAlloc;

/// A statistic only: `Relaxed` suffices, it publishes no other data.
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const EXTRA: usize = 10_000;

/// Runs `f`, returning its result and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    let out = f();
    (out, ALLOC_CALLS.load(Ordering::SeqCst) - before)
}

/// Candidates as raw bits: coordinates, cost and the `verified` flag.
fn answer_bits(cands: &[Candidate]) -> Vec<(Vec<u64>, u64, bool)> {
    cands
        .iter()
        .map(|c| {
            let coords = c.point.coords().iter().map(|x| x.to_bits()).collect();
            (coords, c.cost.to_bits(), c.verified)
        })
        .collect()
}

/// `Λ` followed by `EXTRA` blockers, each `shift(e, k)` of a blocker
/// `e` of `Λ`, taken round robin.
fn extended(
    lambda: &[(ItemId, Point)],
    shift: impl Fn(&Point, usize) -> Point,
) -> Vec<(ItemId, Point)> {
    let mut out = lambda.to_vec();
    for k in 0..EXTRA {
        let (id, e) = &lambda[k % lambda.len()];
        out.push((*id, shift(e, k)));
    }
    out
}

#[test]
fn core_allocations_do_not_grow_with_the_culprit_set() {
    let mut rng = StdRng::seed_from_u64(20_130_408);
    let points = wnrs_data::cardb(&mut rng, 2_000);
    let tree = bulk_load(&points, RTreeConfig::paper_default(2));
    let workload = RepeatedWorkload::repeated(&tree, &points, 20, 1, 1, &mut rng);
    // The question with the largest culprit set among twenty.
    let (q, id, lambda) = workload
        .questions
        .iter()
        .map(|b| {
            let id = b.whynot[0];
            let c_t = &points[id.0 as usize];
            (b.q.clone(), id, window_query(&tree, c_t, &b.q, Some(id)))
        })
        .max_by_key(|(_, _, lambda)| lambda.len())
        .expect("twenty questions");
    assert!(lambda.len() >= 20, "only {} culprits", lambda.len());
    let c_t = points[id.0 as usize].clone();
    // An allocation-free oracle: brute force over the products.
    let member = |c: &Point, at: &Point| {
        !points
            .iter()
            .enumerate()
            .any(|(i, p)| i != id.0 as usize && dominates_dyn(p, at, c))
    };
    let cost = CostModel::new(Weights::equal(2), Weights::equal(2));
    let eps = DEFAULT_EPS;

    // MWP: move each blocker away from q, lowering its directed escape
    // thresholds. Blockers tying q in some dimension have no direction
    // to move in there, so they are left out.
    let mwp_lambda: Vec<(ItemId, Point)> = lambda
        .iter()
        .filter(|(_, e)| (0..2).all(|i| e[i] != q[i]))
        .cloned()
        .collect();
    assert!(!mwp_lambda.is_empty());
    let mwp_extended = extended(&mwp_lambda, |e, k| {
        let step = 1.0 + (k % 7) as f64;
        Point::new(
            (0..2)
                .map(|i| {
                    if e[i] < q[i] {
                        e[i] - step
                    } else {
                        e[i] + step
                    }
                })
                .collect::<Vec<_>>(),
        )
    });
    let mwp = |lambda: &[(ItemId, Point)]| {
        modify_why_not_point_core(&c_t, &q, lambda, &cost, eps, &mut |c, at| member(c, at))
            .candidates
    };

    // MQP: push each blocker's image |e − c_t| outwards in every
    // dimension, so the blocker it came from dominates it.
    let mqp_extended = extended(&lambda, |e, k| {
        let step = 1.0 + (k % 7) as f64;
        Point::new(
            (0..2)
                .map(|i| {
                    if e[i] < c_t[i] {
                        e[i] - step
                    } else {
                        e[i] + step
                    }
                })
                .collect::<Vec<_>>(),
        )
    });
    let mqp = |lambda: &[(ItemId, Point)]| {
        modify_query_point_core(&c_t, &q, lambda, &cost, eps, &mut |c, at| member(c, at)).candidates
    };

    // Warm-up: process-wide lazy state (the kernel dispatch reads the
    // environment once) must not land in a measured call.
    let _ = (mwp(&mwp_lambda), mqp(&lambda));

    let (base, base_allocs) = counted(|| answer_bits(&mwp(&mwp_lambda)));
    let (more, more_allocs) = counted(|| answer_bits(&mwp(&mwp_extended)));
    assert_eq!(base, more, "MWP: the extra blockers changed the answer");
    assert_eq!(
        base_allocs,
        more_allocs,
        "MWP allocated {base_allocs} times over {} culprits and {more_allocs} times over {}",
        mwp_lambda.len(),
        mwp_extended.len()
    );

    let (base, base_allocs) = counted(|| answer_bits(&mqp(&lambda)));
    let (more, more_allocs) = counted(|| answer_bits(&mqp(&mqp_extended)));
    assert_eq!(base, more, "MQP: the extra blockers changed the answer");
    assert_eq!(
        base_allocs,
        more_allocs,
        "MQP allocated {base_allocs} times over {} culprits and {more_allocs} times over {}",
        lambda.len(),
        mqp_extended.len()
    );
}
