//! Times each shipped dominance/min-distance kernel against its scalar
//! reference loop across d = 2…10.
//!
//! ```text
//! cargo run --release -p wnrs-bench --bin kernelbench [-- --smoke]
//! ```
//!
//! Each row is the throughput of one kernel family over a
//! cache-resident 4000-row block with 64 rotating query rows (the
//! BBS/BBRS probe pattern: same block, changing thresholds, so the
//! branch predictor cannot memorise one query's outcome pattern):
//!
//! * **dominance** — [`kernels::count_dominating_block`] against the
//!   per-row [`kernels::dominates_scalar`] fold;
//! * **min_dist** — [`kernels::min_l1_chunked`] against
//!   [`kernels::min_l1_scalar`].
//!
//! Each measurement is the *minimum* over repeats — the right statistic
//! on a single-core host where any interruption only ever inflates a
//! sample — and both sides' checksums must agree. End-to-end timing is
//! the why-not benchmark's job (`whynotbench/`); `BENCH_kernels.json`
//! keeps the original study, with its end-to-end rows and the transform
//! ablation.
//!
//! Acceptance (full-scale runs only): chunked dominance throughput at
//! d = 8 must be ≥ 2x scalar. `--smoke` shrinks everything for CI —
//! same code path, no acceptance bar.

use std::time::Instant;
use wnrs_geometry::kernels;

const SEED: u64 = 20_130_408;

/// Rows in the resident micro block (~`4000 * d * 8` bytes: L2-resident
/// at every d in the sweep, as in a BBS leaf/skyline scan).
const MICRO_ROWS: usize = 4_000;

/// Distinct query rows cycled through the micro loops.
const MICRO_QUERIES: usize = 64;

fn main() {
    let obs = wnrs_bench::ObsSession::from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    run(smoke);
    obs.finish();
}

fn xorshift(state: &mut u64) -> f64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Minimum elapsed seconds over `reps` runs of `f`; the checksum of the
/// last run is returned so the work cannot be optimised away.
fn time_min(reps: usize, mut f: impl FnMut() -> usize) -> (f64, usize) {
    let mut best = f64::MAX;
    let mut out = 0;
    for _ in 0..reps {
        let start = Instant::now();
        out = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, out)
}

/// XOR of the bits of `kernel(lo, hi, t)` over every query `t` and
/// every box `[lo, hi]` of the two `d`-wide corner blocks. Generic over
/// the kernel so each side is monomorphised and inlined alike.
fn min_dist_bits(
    lo_block: &[f64],
    hi_block: &[f64],
    d: usize,
    queries: &[Vec<f64>],
    kernel: impl Fn(&[f64], &[f64], &[f64]) -> f64,
) -> usize {
    let mut bits = 0u64;
    for t in queries {
        for (lo, hi) in lo_block.chunks_exact(d).zip(hi_block.chunks_exact(d)) {
            bits ^= kernel(lo, hi, t).to_bits();
        }
    }
    bits as usize
}

fn run(smoke: bool) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (rows, reps) = if smoke {
        (256usize, 3usize)
    } else {
        (MICRO_ROWS, 60)
    };
    println!(
        "kernelbench: {rows}-row resident block x {MICRO_QUERIES} rotating queries, \
         min over {reps} repeats{} on a {cores}-core host",
        if smoke { " (smoke)" } else { "" }
    );

    let mut dom8 = 0.0f64;
    println!(
        "\n{:>3} {:>12} {:>14} {:>14} {:>8}",
        "d", "kernel", "scalar Mrow/s", "chunked Mrow/s", "speedup"
    );
    for d in 2..=10usize {
        let mut st = SEED | 1;
        let block: Vec<f64> = (0..rows * d).map(|_| xorshift(&mut st)).collect();
        // Thresholds biased to the middle of the value range: dominance
        // outcomes stay mixed, so neither kernel gets an all-false
        // early-out pattern to coast on.
        let queries: Vec<Vec<f64>> = (0..MICRO_QUERIES)
            .map(|_| (0..d).map(|_| xorshift(&mut st) * 0.5 + 0.25).collect())
            .collect();
        let total_rows = (rows * MICRO_QUERIES) as u64;

        let (dom_s, check_s) = time_min(reps, || {
            let mut n = 0usize;
            for t in &queries {
                n += block
                    .chunks_exact(d)
                    .filter(|row| kernels::dominates_scalar(row, t))
                    .count();
            }
            n
        });
        let (dom_c, check_c) = time_min(reps, || {
            let mut n = 0usize;
            for t in &queries {
                n += kernels::count_dominating_block(&block, d, t);
            }
            n
        });
        assert_eq!(check_s, check_c, "dominance counts diverged at d={d}");
        // Min-distance probes: each block row is a rectangle corner
        // with a fixed extent, as in best-first priority computation.
        let ext = 0.125f64;
        let hi_block: Vec<f64> = block.iter().map(|v| v + ext).collect();
        let (md_s, md_cs) = time_min(reps, || {
            min_dist_bits(&block, &hi_block, d, &queries, kernels::min_l1_scalar)
        });
        let (md_c, md_cc) = time_min(reps, || {
            min_dist_bits(&block, &hi_block, d, &queries, kernels::min_l1_chunked)
        });
        assert_eq!(md_cs, md_cc, "min-dist checksums diverged at d={d}");

        for (kernel, s, c) in [("dominance", dom_s, dom_c), ("min_dist", md_s, md_c)] {
            println!(
                "{d:>3} {kernel:>12} {:>14.1} {:>14.1} {:>7.2}x",
                total_rows as f64 / s / 1e6,
                total_rows as f64 / c / 1e6,
                s / c
            );
        }
        if d == 8 {
            dom8 = dom_s / dom_c;
        }
    }

    if !smoke {
        assert!(
            dom8 >= 2.0,
            "acceptance: chunked dominance at d=8 is {dom8:.2}x scalar, below the 2x bar"
        );
        println!("[acceptance: dominance d=8 {dom8:.2}x >= 2x]");
    }
}
