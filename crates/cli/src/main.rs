//! `wnrs` — command-line front-end for why-not reverse skyline queries.
//!
//! ```text
//! wnrs generate --kind cardb|un|co|ac --n 10000 [--seed 42] --out data.csv
//! wnrs rsl      --data data.csv --query 8500,55000
//! wnrs explain  --data data.csv --query 8500,55000 --whynot 17
//! wnrs mwp      --data data.csv --query 8500,55000 --whynot 17
//! wnrs mqp      --data data.csv --query 8500,55000 --whynot 17
//! wnrs mwq      --data data.csv --query 8500,55000 --whynot 17 [--approx-k 10]
//! wnrs safe-region --data data.csv --query 8500,55000
//! wnrs profile  --data data.csv --query 8500,55000 --whynot 17 --metrics-out metrics.json
//! ```
//!
//! Argument parsing is deliberately dependency-free.
//!
//! Every command accepts `--metrics-out <path|->` (observability report;
//! `.prom`/`.txt` extension selects Prometheus text format, anything
//! else JSON) and `--trace <path|->` (per-span event trace). Both emit
//! empty reports unless the binary is built with `--features obs`; see
//! `docs/OBSERVABILITY.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use wnrs_core::{Customer, PagedEngine, Question, Reply, WhyNotEngine, WnrsError};
use wnrs_geometry::{Parallelism, Point};
use wnrs_rtree::{ItemId, NodeSource};
use wnrs_server::server::EngineHost;
use wnrs_storage::file::FilePagerError;
use wnrs_storage::{FilePager, Pager as _};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            // The usage text helps only when the command line was wrong,
            // not when a file, a page read or the question failed.
            if matches!(e, WnrsError::Usage(_)) {
                eprintln!();
                eprintln!("{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  wnrs generate --kind cardb|un|co|ac --n <count> [--seed <u64>] --out <file.csv>
  wnrs index --data <file.csv> --out <file.idx>      (persist the R*-tree, 1536-byte pages)
  wnrs stats --data <file.csv> | --index <file.idx>
  wnrs rsl --data <file.csv> --query <x,y,...>
  wnrs explain|mwp|mqp --data <file.csv> --query <x,y,...> --whynot <index>
  wnrs mwq --data <file.csv> --query <x,y,...> --whynot <index> [--approx-k <k>]
  wnrs safe-region --data <file.csv> --query <x,y,...> [--approx-k <k>]
  wnrs profile --data <file.csv> --query <x,y,...> --whynot <index> [--approx-k <k>]
  wnrs serve --data <file.csv> | --index <file.idx> [--addr 127.0.0.1:7878]
             [--threads <n>] [--queue-depth <n>] [--max-conns <n>]
             [--deadline-ms <n>] [--cache on|off] [--paged on [--pool-pages <n>]]
             [--approx-k <k>]
  wnrs client --addr <host:port> --op ping|rsl|explain|mwp|mqp|safe-region|mwq|
              insert|delete|shutdown [--query <x,y,...>] [--whynot <id>]
              [--whynot-point <x,y,...>] [--point <x,y,...>]

every command that accepts --data also accepts --index to load a
persisted tree instead of rebuilding it. the why-not customer is a
dataset tuple (--whynot <index>), a point (--whynot-point <x,y,...>),
or both: a point whose own tuple <index> is excluded. query commands
also accept --threads <n> to parallelise safe-region construction and
the approximate-DSL store build (results are identical at any count),
and --cache on|off (default off) to enable the cross-query reuse layer
(memoised skylines / anti-DDRs / safe regions; answers are identical;
`profile` prints the hit/miss statistics). --approx-k <k> asks for the
safe region approximated from k-sampled dynamic skylines.

out-of-core mode: rsl, explain, mwp, mqp, safe-region and mwq accept
--paged on with --index <file.idx> to run end-to-end through the
page-resident engine (bounded buffer pool, no point arena, answers
bit-identical; --pool-pages <n> sets the budget, default 256 pages of
1536 bytes). the why-not customer is then given by coordinates
(--whynot-point); --approx-k, --cache and --threads apply as in memory.

serving: `wnrs serve` hosts the engine behind the wire protocol of
docs/SERVING.md (threaded workers, bounded admission queue, explicit
overload shedding, draining shutdown) and blocks until a client sends
the shutdown opcode. `wnrs client` performs one request against a
running server and prints the answer; --op shutdown stops the server
gracefully. serving flags: --threads sets the worker pool (the hosted
engine itself runs sequentially), --queue-depth the admission queue,
--max-conns the connection cap, --deadline-ms the per-request
deadline, --approx-k serves approximate safe regions.

observability (requires building with --features obs, else empty):
  --metrics-out <path|->   write the metrics report after the command
                           (.prom/.txt extension = Prometheus text,
                           anything else = JSON, - = summary to stdout)
  --trace <path|->         record per-span events and write the trace";

fn run(args: &[String]) -> Result<(), WnrsError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(WnrsError::usage("no command given"));
    };
    let Some(known) = command_flags(cmd) else {
        return Err(WnrsError::usage(format!("unknown command `{cmd}`")));
    };
    let opts = parse_opts(cmd, rest, known)?;
    if opts.contains_key("trace") {
        wnrs_obs::set_trace(true);
    }
    // `serve` handles --paged itself (the server hosts either engine
    // mode); of the other commands only questions run paged.
    let paged = !matches!(cmd.as_str(), "serve" | "client") && paged_mode(&opts)?;
    match cmd.as_str() {
        "serve" => serve(&opts),
        "client" => client_cmd(&opts),
        "generate" | "index" | "stats" | "profile" if paged => Err(WnrsError::usage(format!(
            "--paged on does not apply to `{cmd}`"
        ))),
        "generate" => generate(&opts),
        "index" => index(&opts),
        "stats" => stats(&opts),
        "profile" => profile(&opts),
        _ => ask(cmd, &opts, paged),
    }?;
    emit_observability(&opts)
}

/// Honours `--metrics-out` and `--trace` after a successful command.
/// `-` writes to stdout; a `.prom`/`.txt` metrics extension selects the
/// Prometheus text format, anything else the stable JSON schema.
fn emit_observability(opts: &HashMap<String, String>) -> Result<(), WnrsError> {
    if let Some(out) = opts.get("metrics-out") {
        let report = wnrs_obs::report();
        if out == "-" {
            print!("{}", report.to_summary());
        } else if out.ends_with(".prom") || out.ends_with(".txt") {
            std::fs::write(out, report.to_prometheus())
                .map_err(|e| format!("writing {out}: {e}"))?;
        } else {
            std::fs::write(out, report.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
        }
    }
    if let Some(out) = opts.get("trace") {
        let rendered = wnrs_obs::render_trace(&wnrs_obs::take_trace());
        if out == "-" {
            print!("{rendered}");
        } else {
            std::fs::write(out, rendered).map_err(|e| format!("writing {out}: {e}"))?;
        }
    }
    Ok(())
}

/// The flags `cmd` reads besides `--metrics-out` and `--trace`, or
/// `None` for an unknown command. The question commands share one
/// flags → `Question` parser, and so one set.
fn command_flags(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "generate" => &["kind", "n", "seed", "out", "paged"],
        "index" => &["data", "index", "cache", "out", "paged"],
        "stats" => &["data", "index", "cache", "paged"],
        "profile" => &[
            "data", "index", "cache", "threads", "paged", "query", "whynot", "approx-k",
        ],
        "rsl" | "explain" | "mwp" | "mqp" | "safe-region" | "mwq" => &[
            "data",
            "index",
            "cache",
            "threads",
            "paged",
            "pool-pages",
            "query",
            "whynot",
            "whynot-point",
            "approx-k",
        ],
        "serve" => &[
            "data",
            "index",
            "cache",
            "paged",
            "pool-pages",
            "addr",
            "threads",
            "queue-depth",
            "max-conns",
            "deadline-ms",
            "approx-k",
        ],
        "client" => &[
            "addr",
            "op",
            "query",
            "whynot",
            "whynot-point",
            "point",
            "approx-k",
        ],
        _ => return None,
    })
}

/// Reads `--flag value` pairs, refusing any flag `cmd` does not read
/// (a misspelt or retired flag would otherwise be ignored, and the
/// command would answer a different question than the one typed).
fn parse_opts(
    cmd: &str,
    args: &[String],
    known: &[&str],
) -> Result<HashMap<String, String>, WnrsError> {
    let mut opts = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(key) = flag.strip_prefix("--") else {
            return Err(WnrsError::usage(format!("expected a --flag, got `{flag}`")));
        };
        if !known.contains(&key) && !["metrics-out", "trace"].contains(&key) {
            return Err(WnrsError::usage(format!(
                "unknown flag --{key} for `{cmd}`"
            )));
        }
        let value = it
            .next()
            .ok_or_else(|| WnrsError::usage(format!("--{key} needs a value")))?;
        opts.insert(key.to_string(), value.clone());
    }
    Ok(opts)
}

fn require<'a>(opts: &'a HashMap<String, String>, key: &str) -> Result<&'a str, WnrsError> {
    opts.get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| WnrsError::usage(format!("missing --{key}")))
}

/// Parses `s`, the value of `--{key}`, as comma-separated finite
/// coordinates.
fn parse_point(key: &str, s: &str) -> Result<Point, WnrsError> {
    let coords: Result<Vec<f64>, _> = s.split(',').map(|f| f.trim().parse::<f64>()).collect();
    let coords = coords.map_err(|e| format!("bad --{key}: {e}"))?;
    if coords.is_empty() {
        return Err(WnrsError::usage(format!("empty --{key}")));
    }
    if let Some(c) = coords.iter().find(|c| !c.is_finite()) {
        return Err(WnrsError::usage(format!(
            "bad --{key}: coordinate {c} is not finite"
        )));
    }
    Ok(Point::new(coords))
}

/// Parses the `--approx-k` sample size, which must be at least 1.
fn parse_approx_k(s: &str) -> Result<usize, WnrsError> {
    match s.parse() {
        Ok(0) => Err(WnrsError::usage("--approx-k must be at least 1")),
        Ok(k) => Ok(k),
        Err(e) => Err(WnrsError::usage(format!("bad --approx-k: {e}"))),
    }
}

fn load_engine(opts: &HashMap<String, String>) -> Result<WhyNotEngine, WnrsError> {
    let engine = if let Some(path) = opts.get("index") {
        let tree = load_index(path)?;
        WhyNotEngine::try_from_tree(tree)?
    } else {
        let path = require(opts, "data")?;
        let points = wnrs_data::csv::load(Path::new(path)).map_err(|e| {
            if e.kind() == std::io::ErrorKind::InvalidData {
                WnrsError::usage(format!("loading {path}: {e}"))
            } else {
                file_error("loading", path, e)
            }
        })?;
        if points.is_empty() {
            return Err(WnrsError::usage(format!("{path} holds no points")));
        }
        WhyNotEngine::try_new(points)?
    };
    cache_opt(engine, opts)
}

/// Applies `--cache on|off` (default off) to either source's engine.
fn cache_opt<S: NodeSource>(
    engine: WhyNotEngine<S>,
    opts: &HashMap<String, String>,
) -> Result<WhyNotEngine<S>, WnrsError> {
    match opts.get("cache").map(String::as_str) {
        Some("on") => Ok(engine.with_cache()),
        Some("off") | None => Ok(engine),
        Some(other) => Err(WnrsError::usage(format!(
            "bad --cache `{other}` (expected on|off)"
        ))),
    }
}

fn parallelism_opt(opts: &HashMap<String, String>) -> Result<Parallelism, WnrsError> {
    match opts.get("threads") {
        Some(t) => {
            let threads: usize = t.parse().map_err(|e| format!("bad --threads: {e}"))?;
            if threads == 0 {
                return Err(WnrsError::usage("--threads must be at least 1"));
            }
            Ok(Parallelism::new(threads))
        }
        None => Ok(Parallelism::sequential()),
    }
}

fn load_index(path: &str) -> Result<wnrs_rtree::RTree, WnrsError> {
    let pager = open_page_file(path)?;
    Ok(wnrs_rtree::persist::load(&pager, wnrs_storage::PageId(0))
        .map_err(|e| format!("loading index {path}: {e}"))?)
}

/// Opens the page file at `path`: a file that cannot be read is an i/o
/// error, one that is not a page file a usage error.
fn open_page_file(path: &str) -> Result<FilePager, WnrsError> {
    FilePager::open(Path::new(path)).map_err(|e| match e {
        FilePagerError::Io(e) => file_error("opening", path, e),
        FilePagerError::Format(_) => WnrsError::usage(format!("opening {path}: {e}")),
    })
}

/// An i/o error on `path`, with what was being done to it.
fn file_error(doing: &str, path: &str, e: std::io::Error) -> WnrsError {
    WnrsError::Io(std::io::Error::new(
        e.kind(),
        format!("{doing} {path}: {e}"),
    ))
}

fn paged_mode(opts: &HashMap<String, String>) -> Result<bool, WnrsError> {
    match opts.get("paged").map(String::as_str) {
        Some("on") => Ok(true),
        Some("off") | None => Ok(false),
        Some(other) => Err(WnrsError::usage(format!(
            "bad --paged `{other}` (expected on|off)"
        ))),
    }
}

/// Opens a persisted index behind a bounded buffer pool and wraps it in
/// the out-of-core engine, the cost model normalised to the universe
/// recovered from the root page (the same min–max fit the in-memory
/// engine computes from the point arena), with `--cache` applied.
fn load_paged_engine(opts: &HashMap<String, String>) -> Result<PagedEngine<FilePager>, WnrsError> {
    let path = opts
        .get("index")
        .ok_or_else(|| WnrsError::usage("--paged on requires --index <file.idx>"))?;
    let pool_pages: usize = opts
        .get("pool-pages")
        .map(|s| s.parse())
        .transpose()
        .map_err(|e| format!("bad --pool-pages: {e}"))?
        .unwrap_or(256);
    if pool_pages == 0 {
        return Err(WnrsError::usage("--pool-pages must be at least 1"));
    }
    let pager = std::sync::Arc::new(open_page_file(path)?);
    let tree = wnrs_rtree::PagedRTree::open(
        wnrs_storage::BufferPool::new(pager, pool_pages),
        wnrs_storage::PageId(0),
    )
    .map_err(|e| format!("opening paged index {path}: {e}"))?;
    let dim = tree.dim();
    let equal = || wnrs_geometry::Weights::equal(dim);
    let engine = PagedEngine::from_tree(tree, wnrs_geometry::CostModel::new(equal(), equal()))
        .map_err(|e| format!("reading index root: {e}"))?;
    let normalizer = wnrs_geometry::MinMaxNormalizer::from_bounds(engine.universe());
    let cost = wnrs_geometry::CostModel::new(equal(), equal()).with_normalizer(normalizer);
    cache_opt(engine.with_cost_model(cost), opts)
}

/// The question a query command (or `client --op`) asks, read from its
/// flags: `--query`, the why-not customer (`--whynot <id>`,
/// `--whynot-point <x,y,...>`, or both for a point whose own tuple is
/// excluded) and `--approx-k`.
fn parse_question(op: &str, opts: &HashMap<String, String>) -> Result<Question, WnrsError> {
    let q = || parse_point("query", require(opts, "query")?);
    let customer = || -> Result<Customer, WnrsError> {
        let point = opts.get("whynot-point");
        let point = point.map(|p| parse_point("whynot-point", p)).transpose()?;
        let id = opts.get("whynot").map(|_| whynot(opts)).transpose()?;
        match (point, id) {
            (Some(p), Some(id)) => Ok(Customer::PointExcluding(p, id)),
            (Some(p), None) => Ok(Customer::External(p)),
            (None, Some(id)) => Ok(Customer::Id(id)),
            (None, None) => Err(WnrsError::usage(format!(
                "{op} needs --whynot <id> or --whynot-point <x,y,...>"
            ))),
        }
    };
    let approx_k = || opts.get("approx-k").map(|k| parse_approx_k(k)).transpose();
    Ok(match op {
        "rsl" => Question::Rsl { q: q()? },
        "explain" => Question::Explain {
            customer: customer()?,
            q: q()?,
        },
        "mwp" => Question::Mwp {
            customer: customer()?,
            q: q()?,
        },
        "mqp" => Question::Mqp {
            customer: customer()?,
            q: q()?,
        },
        "safe-region" => Question::SafeRegion {
            q: q()?,
            approx_k: approx_k()?,
        },
        "mwq" => Question::Mwq {
            customer: customer()?,
            q: q()?,
            approx_k: approx_k()?,
        },
        other => return Err(WnrsError::usage(format!("unknown command `{other}`"))),
    })
}

/// `--whynot <id>`.
fn whynot(opts: &HashMap<String, String>) -> Result<ItemId, WnrsError> {
    let id = require(opts, "whynot")?.parse();
    Ok(ItemId(id.map_err(|e| format!("bad --whynot: {e}"))?))
}

/// A query command: one question from the flags, answered by the
/// in-memory engine or, with `--paged on`, the page-resident one.
fn ask(cmd: &str, opts: &HashMap<String, String>, paged: bool) -> Result<(), WnrsError> {
    let question = parse_question(cmd, opts)?;
    if !paged {
        let engine = load_engine(opts)?.with_parallelism(parallelism_opt(opts)?);
        let reply = engine.answer(&question)?;
        let id_point = match question.customer() {
            Some(Customer::Id(id)) => Some(engine.point(*id)),
            _ => None,
        };
        print_reply(&question, &reply, id_point);
        return Ok(());
    }
    let engine = load_paged_engine(opts)?.with_parallelism(parallelism_opt(opts)?);
    let reply = engine.answer(&question)?;
    print_reply(&question, &reply, None);
    let pool = engine.tree().pool();
    println!(
        "[paged: {} logical page read(s), {} resident of {} budget]",
        pool.stats().logical_reads(),
        pool.resident(),
        pool.capacity()
    );
    Ok(())
}

/// Prints `reply` to `question`. A customer named by id is printed as
/// `#id` (with `id_point`, its point in the arena), one named by point
/// by its coordinates.
fn print_reply(question: &Question, reply: &Reply, id_point: Option<&Point>) {
    let q = question.query();
    let (id, c) = match question.customer() {
        Some(Customer::Id(id)) => (Some(id.0), id_point),
        Some(Customer::External(c) | Customer::PointExcluding(c, _)) => (None, Some(c)),
        None => (None, None),
    };
    let c = c.map(ToString::to_string).unwrap_or_default();
    match reply {
        Reply::Rsl(rsl) => {
            println!("RSL({q}) has {} members:", rsl.len());
            print_items(rsl);
        }
        Reply::Explain(ex) if ex.is_member() => match id {
            Some(id) => println!("customer #{id} is already in RSL({q})"),
            None => println!("customer at {c} is already in RSL({q})"),
        },
        Reply::Explain(ex) => {
            let n = ex.culprits.len();
            match id {
                Some(id) => {
                    println!("customer #{id} at {c} is not in RSL({q}); it prefers {n} product(s):")
                }
                None => println!("customer at {c} is not in RSL({q}); it prefers {n} product(s):"),
            }
            print_items(&ex.culprits);
        }
        Reply::Mwp(ans) => {
            match id {
                Some(id) => println!("MWP: move customer #{id} from {c} to one of:"),
                None => println!("MWP: move the customer from {c} to one of:"),
            }
            print_candidates(&ans.candidates);
        }
        Reply::Mqp(ans) => {
            println!("MQP: move the query point {q} to one of:");
            print_candidates(&ans.candidates);
            if id.is_some() {
                println!(
                    "(note: MQP may lose existing reverse-skyline customers; use mwq to keep them)"
                );
            }
        }
        Reply::SafeRegion { members, region } => {
            println!(
                "SR({q}) over {members} reverse-skyline member(s): {} rectangle(s), area {:.6}",
                region.len(),
                region.area()
            );
            for b in region.boxes() {
                println!("  {} -> {}", b.lo(), b.hi());
            }
        }
        Reply::Mwq { members, answer } => {
            match id {
                Some(id) => println!("MWQ for customer #{id} ({members} existing members kept):"),
                None => println!("MWQ for the customer at {c} ({members} existing members kept):"),
            }
            match answer.case {
                wnrs_core::MwqCase::Overlap => {
                    println!(
                        "  case C1: move the query point to {} (cost 0)",
                        answer.q_star
                    );
                }
                wnrs_core::MwqCase::Disjoint => {
                    println!("  case C2: move the query point to {}", answer.q_star);
                    if let Some(cand) = &answer.c_star {
                        println!(
                            "           and the customer to {} (cost {:.9}{})",
                            cand.point,
                            cand.cost,
                            verified_tag(cand.verified)
                        );
                    }
                }
            }
        }
    }
}

/// `  #id     point` lines.
fn print_items(items: &[(ItemId, Point)]) {
    for (id, p) in items {
        println!("  #{:<6} {p}", id.0);
    }
}

/// `  point   cost c` lines.
fn print_candidates(cands: &[wnrs_core::Candidate]) {
    for c in cands {
        println!(
            "  {:<28} cost {:.9}{}",
            c.point.to_string(),
            c.cost,
            verified_tag(c.verified)
        );
    }
}

fn parse_usize_opt(
    opts: &HashMap<String, String>,
    key: &str,
    default: usize,
) -> Result<usize, WnrsError> {
    match opts.get(key) {
        Some(s) => Ok(s.parse().map_err(|e| format!("bad --{key}: {e}"))?),
        None => Ok(default),
    }
}

/// `wnrs serve`: hosts the engine (in-memory or paged) behind the wire
/// protocol of `docs/SERVING.md` and blocks until a client sends the
/// shutdown opcode. `--metrics-out`/`--trace` are written afterwards,
/// so a serving session's counters, gauges and spans land in one
/// report.
fn serve(opts: &HashMap<String, String>) -> Result<(), WnrsError> {
    use wnrs_server::server::{Server, ServerConfig};

    let addr = opts.get("addr").map_or("127.0.0.1:7878", String::as_str);
    let workers = parse_usize_opt(opts, "threads", 2)?;
    let queue_depth = parse_usize_opt(opts, "queue-depth", 128)?;
    let max_conns = parse_usize_opt(opts, "max-conns", 1024)?;
    let deadline_ms = parse_usize_opt(opts, "deadline-ms", 10_000)?;
    let approx_k = opts.get("approx-k").map(|k| parse_approx_k(k));
    let approx_k = approx_k.transpose()?;
    let host = serve_host(opts)?;
    let mode = host.mode_name();
    let config = ServerConfig::default()
        .with_addr(addr)
        .with_workers(workers)
        .with_queue_depth(queue_depth)
        .with_max_conns(max_conns)
        .with_deadline(std::time::Duration::from_millis(deadline_ms as u64))
        .with_approx_k(approx_k);
    let server =
        Server::start(config, host).map_err(|e| format!("starting server on {addr}: {e}"))?;
    println!(
        "serving {mode} engine on {} ({workers} worker(s), queue depth {queue_depth}, \
         max {max_conns} conn(s), deadline {deadline_ms} ms)",
        server.local_addr()
    );
    println!(
        "stop with: wnrs client --addr {} --op shutdown",
        server.local_addr()
    );
    server.wait().map_err(|e| format!("server teardown: {e}"))?;
    println!("server drained and stopped");
    Ok(())
}

/// The engine `wnrs serve` hosts, with `--cache` applied: the paged one
/// with `--paged on`, else the in-memory one. Either runs each question
/// sequentially: `--threads` sizes the worker pool, not the engine.
fn serve_host(opts: &HashMap<String, String>) -> Result<EngineHost, WnrsError> {
    Ok(if paged_mode(opts)? {
        EngineHost::paged(load_paged_engine(opts)?)
    } else {
        EngineHost::memory(load_engine(opts)?)
    })
}

/// `wnrs client`: one request against a running server, answer printed
/// in the same shapes the offline commands use.
fn client_cmd(opts: &HashMap<String, String>) -> Result<(), WnrsError> {
    use wnrs_server::client::Client;
    use wnrs_server::proto::{Request, ResponseBody};

    let addr = require(opts, "addr")?;
    let op = require(opts, "op")?;
    let req = match op {
        "ping" => Request::Ping,
        "shutdown" => Request::Shutdown,
        "insert" => Request::Insert {
            point: parse_point("point", require(opts, "point")?)?,
        },
        "delete" => Request::Delete { id: whynot(opts)? },
        _ => Request::from(parse_question(op, opts)?),
    };
    let mut client = Client::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let resp = client
        .call(&req)
        .map_err(|e| format!("request failed: {e}"))?;
    match resp.body {
        ResponseBody::Ok(answer) => print_answer(&answer),
        ResponseBody::Error(kind, msg) => {
            let detail = if msg.is_empty() {
                String::new()
            } else {
                format!(": {msg}")
            };
            Err(format!("server refused [{}]{detail}", kind.name()))?;
        }
    }
    Ok(())
}

fn print_answer(answer: &wnrs_server::proto::Answer) {
    use wnrs_server::proto::Answer;
    match answer {
        Answer::Empty => println!("ok"),
        Answer::Items(items) => {
            println!("{} item(s):", items.len());
            print_items(items);
        }
        Answer::Candidates(cands) => {
            println!("{} candidate(s):", cands.len());
            print_candidates(cands);
        }
        Answer::Region(boxes) => {
            println!("{} rectangle(s):", boxes.len());
            for (lo, hi) in boxes {
                println!("  {lo} -> {hi}");
            }
        }
        Answer::Mwq {
            case,
            q_star,
            c_star,
            cost,
        } => match case {
            wnrs_core::MwqCase::Overlap => {
                println!("case C1: move the query point to {q_star} (cost 0)");
            }
            wnrs_core::MwqCase::Disjoint => {
                println!("case C2: move the query point to {q_star} (cost {cost:.9})");
                if let Some(c) = c_star {
                    println!(
                        "         and the customer to {} (cost {:.9}{})",
                        c.point,
                        c.cost,
                        verified_tag(c.verified)
                    );
                }
            }
        },
        Answer::Inserted(id) => println!("inserted as #{}", id.0),
        Answer::Deleted(removed) => {
            println!(
                "{}",
                if *removed {
                    "deleted"
                } else {
                    "nothing to delete"
                }
            );
        }
    }
}

fn index(opts: &HashMap<String, String>) -> Result<(), WnrsError> {
    let engine = load_engine(opts)?;
    let out = require(opts, "out")?;
    let pager = wnrs_storage::FilePager::create(Path::new(out), wnrs_storage::PAPER_PAGE_SIZE)
        .map_err(|e| format!("creating {out}: {e}"))?;
    let meta = wnrs_rtree::persist::save(engine.tree(), &pager)
        .map_err(|e| format!("saving index: {e}"))?;
    if meta != wnrs_storage::PageId(0) {
        return Err(WnrsError::usage("internal error: meta page must be page 0"));
    }
    println!(
        "indexed {} points into {out}: {} pages of {} bytes",
        engine.len(),
        pager.page_count(),
        pager.page_size()
    );
    Ok(())
}

fn stats(opts: &HashMap<String, String>) -> Result<(), WnrsError> {
    let engine = load_engine(opts)?;
    let tree = engine.tree();
    let bounds = wnrs_geometry::Rect::bounding(engine.points());
    println!("points:      {}", engine.len());
    println!("dimensions:  {}", engine.dim());
    println!("bounds:      {} -> {}", bounds.lo(), bounds.hi());
    println!("tree height: {}", tree.height());
    println!("tree nodes:  {}", tree.node_count());
    println!(
        "node fanout: {} max / {} min (1536-byte page geometry)",
        tree.config().max_entries,
        tree.config().min_entries
    );
    Ok(())
}

fn whynot_id(opts: &HashMap<String, String>, engine: &WhyNotEngine) -> Result<ItemId, WnrsError> {
    let (id, len) = (whynot(opts)?, engine.len());
    if id.0 as usize >= len {
        return Err(wnrs_core::QuestionError::UnknownCustomer { id, len }.into());
    }
    Ok(id)
}

fn generate(opts: &HashMap<String, String>) -> Result<(), WnrsError> {
    let kind = require(opts, "kind")?;
    let n: usize = require(opts, "n")?
        .parse()
        .map_err(|e| format!("bad --n: {e}"))?;
    let seed: u64 = opts
        .get("seed")
        .map(|s| s.parse())
        .transpose()
        .map_err(|e| format!("bad --seed: {e}"))?
        .unwrap_or(42);
    let out = require(opts, "out")?;
    let mut rng = StdRng::seed_from_u64(seed);
    let points = match kind {
        "cardb" => wnrs_data::cardb(&mut rng, n),
        "un" => wnrs_data::uniform(&mut rng, n, 2),
        "co" => wnrs_data::correlated(&mut rng, n, 2),
        "ac" => wnrs_data::anticorrelated(&mut rng, n, 2),
        other => {
            return Err(WnrsError::usage(format!(
                "unknown --kind `{other}` (cardb|un|co|ac)"
            )))
        }
    };
    wnrs_data::csv::save(&points, Path::new(out)).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {n} {kind} points to {out}");
    Ok(())
}

/// Runs all four why-not algorithms (explain, MWP, MQP, MWQ — the
/// latter against the exact, the eager `k`-sampled and the lazily
/// materialised approximate safe regions) against one query/customer
/// pair, so a single `--metrics-out` run captures a per-phase breakdown
/// like the paper's Section 7 tables. The registry is reset after
/// engine construction: the report covers query phases only, not the
/// index build.
fn profile(opts: &HashMap<String, String>) -> Result<(), WnrsError> {
    let engine = load_engine(opts)?.with_parallelism(parallelism_opt(opts)?);
    let q = parse_point("query", require(opts, "query")?)?;
    Question::Rsl { q: q.clone() }.check(engine.dim())?;
    let id = whynot_id(opts, &engine)?;
    let k = opts
        .get("approx-k")
        .map(|s| parse_approx_k(s))
        .transpose()?
        .unwrap_or(10);

    wnrs_obs::reset();
    let ex = engine.explain(id, &q);
    let mwp = engine.mwp(id, &q);
    let mqp = engine.mqp(id, &q);
    let rsl = engine.reverse_skyline(&q);
    let sr = engine.safe_region_for(&q, &rsl);
    let store = engine.build_approx_store(k);
    let sr_approx = engine.approx_safe_region_for(&q, &rsl, &store);
    let sr_lazy = engine.approx_safe_region_lazy(&q, &rsl, k);
    let mwq = engine.mwq(id, &q, &sr);

    println!("profile: customer #{} against q = {q}", id.0);
    println!("  explain:     {} culprit(s)", ex.culprits.len());
    println!("  mwp:         best cost {:.9}", mwp.best_cost());
    println!("  mqp:         best cost {:.9}", mqp.best_cost());
    println!("  rsl:         {} member(s)", rsl.len());
    println!(
        "  safe region: exact {} box(es) area {:.6}, approx(k={k}) {} box(es) area {:.6}",
        sr.len(),
        sr.area(),
        sr_approx.len(),
        sr_approx.area()
    );
    println!(
        "  lazy sr:     {} box(es) area {:.6} ({} sample materialisation(s), {} memo hit(s))",
        sr_lazy.len(),
        sr_lazy.area(),
        wnrs_obs::counter_value(wnrs_obs::Counter::DslLazyMaterializations),
        wnrs_obs::counter_value(wnrs_obs::Counter::DslLazyHits)
    );
    println!("  mwq:         case {:?}, cost {:.9}", mwq.case, mwq.cost);
    println!(
        "  paged io:    {} logical page read(s)",
        wnrs_obs::counter_value(wnrs_obs::Counter::PagesReadLogical)
    );
    if let Some(stats) = engine.cache_stats() {
        println!(
            "  cache:       {} hit(s) / {} miss(es) ({:.1}% hit rate), {} invalidation(s), {} eviction(s), generation {}",
            stats.hits,
            stats.misses,
            stats.hit_rate() * 100.0,
            stats.invalidations,
            stats.evictions,
            stats.generation
        );
        println!(
            "  writes:      {} surgical / {} full flush(es); evicted {} dsl, {} anti-ddr, {} safe-region, {} mwq entr(ies)",
            stats.partial_invalidations,
            stats.full_flushes,
            stats.dsl_evictions,
            stats.addr_evictions,
            stats.sr_evictions,
            stats.mwq_evictions
        );
    }
    if !wnrs_obs::compiled() {
        println!("(built without --features obs: metrics report will be empty)");
    }
    print!("{}", wnrs_obs::report().to_summary());
    Ok(())
}

fn verified_tag(v: bool) -> &'static str {
    if v {
        ""
    } else {
        "  [unverified]"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn serve_threads_size_the_pool_not_the_engine() {
        let dir = std::env::temp_dir().join(format!("wnrs_serve_host_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the fixture directory");
        let data = dir.join("points.csv");
        std::fs::write(&data, "1,2\n3,1\n2,3\n").expect("write the dataset");
        let data = data.to_string_lossy().into_owned();
        let idx = dir.join("points.idx").to_string_lossy().into_owned();
        index(&flags(&[("data", &data), ("out", &idx)])).expect("write the index");
        for threads in ["1", "8"] {
            let opts = flags(&[("data", &data), ("threads", threads), ("cache", "on")]);
            let paged = [("paged", "on"), ("index", &idx), ("approx-k", "8")];
            let paged = flags(&[&paged[..], &[("threads", threads), ("cache", "on")]].concat());
            let hosted = match serve_host(&opts).expect("in-memory host") {
                EngineHost::Memory(m) => {
                    m.with_engine(|e| (e.parallelism().clone(), e.cache().is_some()))
                }
                EngineHost::Paged(_) => panic!("in-memory flags hosted the paged engine"),
            };
            assert_eq!(
                hosted,
                (Parallelism::sequential(), true),
                "--threads {threads}"
            );
            let hosted = match serve_host(&paged).expect("paged host") {
                EngineHost::Paged(e) => (e.parallelism().clone(), e.cache().is_some()),
                EngineHost::Memory(_) => panic!("--paged on hosted the in-memory engine"),
            };
            assert_eq!(
                hosted,
                (Parallelism::sequential(), true),
                "paged --threads {threads}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
