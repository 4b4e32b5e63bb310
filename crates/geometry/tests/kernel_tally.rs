//! The batched kernels' counter tallies, pinned through `wnrs-obs`.
//!
//! Each call to a batched entry point must raise
//! `Counter::DominanceTests` by exactly the number of rows the scalar
//! early-exit fold examines (the first dominator's 1-based position, or
//! every row when none dominates; every row for the counting kernel),
//! `Counter::KernelPointsProcessed` by the same number, and
//! `Counter::KernelBatchedCalls` by one. Traced benchmark runs compare
//! `geometry.dominance_tests` across builds, so the strip-mined kernels
//! must keep reporting the scalar loop's count.
//!
//! The registry is process-global: this file holds a single `#[test]`,
//! so no concurrent test records into the counters it reads.
//!
//! ```text
//! cargo test -q -p wnrs-geometry --features obs --test kernel_tally
//! ```

#![cfg(feature = "obs")]

use wnrs_geometry::{kernels, Point};
use wnrs_obs::{counter_value, Counter};

/// Block sizes around the 8-row scalar prefix and the 64-row strips
/// that follow it (strips end at rows 72, 136, 200).
const ROWS: [usize; 14] = [0, 1, 7, 8, 9, 63, 64, 71, 72, 73, 135, 136, 137, 201];

struct Rng(u64);

impl Rng {
    /// Uniform in `[0, 1)`.
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() * n as f64) as usize
    }
}

/// Rows the scalar early-exit fold over `hits` examines.
fn early_exit_rows(hits: impl IntoIterator<Item = bool>) -> u64 {
    let mut rows = 0;
    for hit in hits {
        rows += 1;
        if hit {
            break;
        }
    }
    rows
}

/// Runs `call` and asserts it raised the dominance-test and
/// points-processed counters by `want` and the batched-call counter by
/// one. Returns the call's answer.
fn tallied<T>(what: &str, want: u64, call: impl FnOnce() -> T) -> T {
    let tests = counter_value(Counter::DominanceTests);
    let points = counter_value(Counter::KernelPointsProcessed);
    let calls = counter_value(Counter::KernelBatchedCalls);
    let out = call();
    assert_eq!(
        counter_value(Counter::DominanceTests) - tests,
        want,
        "{what}: dominance tests"
    );
    assert_eq!(
        counter_value(Counter::KernelPointsProcessed) - points,
        want,
        "{what}: points processed"
    );
    assert_eq!(
        counter_value(Counter::KernelBatchedCalls) - calls,
        1,
        "{what}: batched calls"
    );
    out
}

#[test]
fn batched_kernels_tally_the_scalar_fold() {
    wnrs_obs::set_enabled(true);
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for dim in 1..=16usize {
        for rows in ROWS {
            // Three targets per block: one no row dominates (every
            // coordinate lies above it), one dominated only by a row
            // planted at a random position, and a random one.
            let planted = (rows > 0).then(|| rng.below(rows));
            for case in ["none", "planted", "random"] {
                let mut block: Vec<f64> = (0..rows * dim).map(|_| 0.1 + rng.next()).collect();
                let t: Vec<f64> = match case {
                    "none" => vec![0.05; dim],
                    "planted" => {
                        if let Some(p) = planted {
                            block[p * dim..(p + 1) * dim].fill(0.0);
                        }
                        vec![0.05; dim]
                    }
                    _ => (0..dim).map(|_| 0.3 + 0.8 * rng.next()).collect(),
                };
                let q: Vec<f64> = (0..dim).map(|_| 0.1 + rng.next()).collect();
                let what = format!("dim {dim}, {rows} rows, {case}");

                let rows_of = || block.chunks_exact(dim);
                let want = early_exit_rows(rows_of().map(|r| kernels::dominates_scalar(r, &t)));
                let any = tallied(&format!("any_dominates_block, {what}"), want, || {
                    kernels::any_dominates_block(&block, dim, &t)
                });
                assert_eq!(any, rows_of().any(|r| kernels::dominates_scalar(r, &t)));
                if case == "none" {
                    assert!(!any, "{what}: no row lies below the target");
                }
                if case == "planted" && rows > 0 {
                    assert!(any, "{what}: the planted row dominates");
                }

                let count = tallied(
                    &format!("count_dominating_block, {what}"),
                    rows as u64,
                    || kernels::count_dominating_block(&block, dim, &t),
                );
                let want_count = rows_of()
                    .filter(|r| kernels::dominates_scalar(r, &t))
                    .count();
                assert_eq!(count, want_count, "{what}");

                let points: Vec<Point> = rows_of().map(|r| Point::new(r.to_vec())).collect();
                let (b, q_pt) = (Point::new(t.clone()), Point::new(q.clone()));
                let want =
                    early_exit_rows(rows_of().map(|r| kernels::dominates_dyn_scalar(r, &t, &q)));
                tallied(&format!("any_dominates_dyn_points, {what}"), want, || {
                    kernels::any_dominates_dyn_points(&points, &b, &q_pt)
                });
                let want =
                    early_exit_rows(rows_of().map(|r| kernels::dominates_global_scalar(r, &t, &q)));
                tallied(
                    &format!("any_dominates_global_points, {what}"),
                    want,
                    || kernels::any_dominates_global_points(&points, &t, &q_pt),
                );
            }
        }
    }
}
