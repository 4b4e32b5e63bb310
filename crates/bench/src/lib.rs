//! # wnrs-bench
//!
//! Experiment harness regenerating every table and figure of the
//! paper's evaluation (Section VI). One binary per exhibit:
//!
//! | binary   | reproduces                                          |
//! |----------|-----------------------------------------------------|
//! | `table3` | Table III — MWP/MQP/MWQ quality, CarDB 50/100/200K  |
//! | `table4` | Table IV — quality on UN/CO/AC 100K & 200K          |
//! | `table5` | Table V — adds Approx-MWQ (k=10/20), CarDB          |
//! | `table6` | Table VI — adds Approx-MWQ (k=10), UN/CO/AC         |
//! | `fig14`  | Fig. 14 — |RSL| vs safe-region area                 |
//! | `fig15`  | Fig. 15 — execution time of MWP/MQP/SR/MWQ          |
//! | `fig17`  | Fig. 17 — execution time with Approx-MWQ            |
//! | `ablation` | k-sweep + page-size sweep (design-knob data)      |
//! | `bichromatic` | naive vs parallel vs indexed bichromatic RSL   |
//! | `dimensionality` | behaviour across d ∈ {2, 3, 4} (extension)  |
//! | `kernelbench` | each shipped dominance/min-distance kernel vs its scalar reference, d ∈ 2…10 (extension) |
//!
//! Every binary prints the paper-style rows and writes CSV under
//! `target/experiments/`. Scale with `WNRS_SCALE` (fraction of the
//! paper's dataset sizes, default `0.1`) and `WNRS_SEED`. The quality
//! and timing binaries (`table3`–`table6`, `fig15`, `fig17`) accept
//! `--threads N` (or `WNRS_THREADS`) to run safe-region construction,
//! the approximate-DSL store build and batch answering in parallel —
//! results are identical at any thread count.
//!
//! Every binary also accepts `--metrics-out <path|->` and
//! `--trace <path|->` (via [`harness::ObsSession`]): with the `obs`
//! feature they dump the wnrs-obs metrics report / span trace after the
//! run, and without it they emit empty reports. See
//! `docs/OBSERVABILITY.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;
pub mod quality;
pub mod timing;

pub use harness::{
    make_dataset, out_dir, parallelism_flag, scale, seed, threads_flag, write_report, DatasetKind,
    ExperimentSetup, ObsSession,
};
pub use quality::{quality_rows, QualityRow};
pub use timing::{timing_rows, TimingRow};
