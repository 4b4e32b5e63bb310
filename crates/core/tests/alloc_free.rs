//! Proves the per-customer inner loop of `ApproxDslStore::build_with` is
//! allocation-free at steady state: after one warm-up pass over every
//! item (which grows the scratch buffers to their high-water marks), a
//! second identical pass must perform **zero** heap allocations.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! binary is single-test on purpose so no concurrent test case can bleed
//! allocations into the measured window.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use wnrs_geometry::Point;
use wnrs_rtree::bulk::bulk_load;
use wnrs_rtree::{into_ok, ItemId, RTreeConfig};
use wnrs_skyline::approx::{approx_dsl_sample_into, ApproxDslScratch};

/// System allocator wrapper counting every allocation and reallocation.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

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

fn pseudo_points(n: usize, seed: u64) -> Vec<Point> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (f64::from(u32::MAX))
    };
    (0..n)
        .map(|_| Point::xy(next() * 100.0, next() * 100.0))
        .collect()
}

#[test]
fn store_build_inner_loop_is_allocation_free_after_warmup() {
    let pts = pseudo_points(800, 20_130_408);
    let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
    let k = 5;
    let mut scratch = ApproxDslScratch::new();

    // Warm-up: one full pass grows every scratch buffer (BBS heap,
    // skyline arena, permutation, sample output) to its peak size.
    let mut warm_checksum = 0.0f64;
    for (i, p) in pts.iter().enumerate() {
        let id = Some(ItemId(i as u32));
        let sample = into_ok(approx_dsl_sample_into(
            &tree,
            p.coords(),
            id,
            k,
            &mut scratch,
        ));
        warm_checksum += sample.coords().iter().sum::<f64>();
    }

    // Measured pass: identical queries through the warm scratch. Any
    // allocation here is a regression in the hot path.
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    let mut checksum = 0.0f64;
    for (i, p) in pts.iter().enumerate() {
        let id = Some(ItemId(i as u32));
        let sample = into_ok(approx_dsl_sample_into(
            &tree,
            p.coords(),
            id,
            k,
            &mut scratch,
        ));
        checksum += sample.coords().iter().sum::<f64>();
    }
    let delta = ALLOC_CALLS.load(Ordering::SeqCst) - before;

    assert_eq!(
        checksum.to_bits(),
        warm_checksum.to_bits(),
        "passes diverged"
    );
    assert_eq!(
        delta, 0,
        "per-customer inner loop allocated {delta} times after warm-up"
    );
}
