//! The why-not benchmark.
//!
//! One binary, four workloads. A timed run (`--trace 0`, built without
//! the `trace` feature) measures the end-to-end metrics; a traced run
//! (`--trace 1`, built with it) splits each question across the
//! repository's modules by timing the calls it makes into their public
//! functions. Both print a human-readable report on stderr and, as the
//! last line of stdout, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Run it through `python3 whynotbench/run.py`, which builds both
//! variants and picks the right one; see `whynotbench/README.md`.

mod decompose;
mod host;
mod inputs;
mod report;
mod served;
mod single;
mod trace;

use report::Outcome;
use std::process::ExitCode;

/// The workload seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 20_130_408;
/// Measured seconds per run when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 15.0;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["cardb_memory", "cardb_paged", "cardb_served", "anticorr_3d"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: time one `cardb_served` set-up and print its seconds at
    /// the reference speed and as measured.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        setup_only,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    // A traced run needs the program's counters compiled in, and a timed
    // run must not pay for them: refuse the wrong build outright.
    if args.trace != wnrs_obs::compiled() {
        return Err(format!(
            "--trace {} needs the build {} the `trace` feature (run through whynotbench/run.py)",
            u8::from(args.trace),
            if args.trace { "with" } else { "without" }
        ));
    }
    let tmp = report::TempDir::create(args.seed)?;
    let outcome = match (args.workload.as_str(), args.trace) {
        ("cardb_memory", false) => {
            single::timed_memory(inputs::Kind::CarDb, args.seed, args.seconds)
        }
        ("anticorr_3d", false) => {
            single::timed_memory(inputs::Kind::AntiCorr, args.seed, args.seconds)
        }
        ("cardb_paged", false) => single::timed_paged(args.seed, args.seconds, tmp.path()),
        ("cardb_served", false) => served::timed(args.seed, args.seconds),
        ("cardb_memory", true) => single::traced_memory(inputs::Kind::CarDb, args.seed),
        ("anticorr_3d", true) => single::traced_memory(inputs::Kind::AntiCorr, args.seed),
        ("cardb_paged", true) => single::traced_paged(args.seed, tmp.path()),
        ("cardb_served", true) => served::traced(args.seed, args.seconds),
        _ => Err(format!("unknown workload {}", args.workload)),
    };
    tmp.remove();
    outcome
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("whynotbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        return match served::setup_only(args.seed) {
            Ok((scaled, raw)) => {
                println!("{scaled} {raw}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("whynotbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    eprintln!(
        "whynotbench: workload {} seed {} seconds {} trace {} (nproc {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    match run(&args) {
        Ok(outcome) => {
            outcome.print(&args.workload, args.trace);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("whynotbench: {e}");
            ExitCode::FAILURE
        }
    }
}
