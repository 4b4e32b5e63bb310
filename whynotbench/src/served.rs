//! `cardb_served`: the cached engine behind `wnrs-server`, driven by two
//! closed-loop connections over loopback.
//!
//! A question is one `Explain`, `Mwp`, `Mqp` and `Mwq` request, in
//! sequence on one connection, timed at the client from the first send
//! to the last receive. Both connections ask the 256-pair hot set round
//! robin, from opposite ends; connection A also sends one write after
//! every fifth of its questions (about one per ten questions overall),
//! alternating an insert of an interpolated product with a delete of
//! the oldest insert still live. Keeping every write on one connection
//! fixes the order the server applies them in, which the output check
//! replays.
//!
//! A timed run asks a fixed number of questions, so the cache, and with
//! it the peak RSS, ends each run in about the same state. It starts
//! one server; the other set-up samples come from child processes
//! (`--setup-only`), because freed engine memory stays in the
//! allocator's per-thread arenas and a second server in the same
//! process would inflate the first's peak RSS.

use crate::host::{self, HostProbe};
use crate::inputs::{self, Kind};
use crate::report::{self, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use wnrs_core::WhyNotEngine;
use wnrs_geometry::Point;
use wnrs_rtree::ItemId;
use wnrs_server::proto::{
    self, decode_response, encode_request, encode_response, Answer, Customer, Request, Response,
    ResponseBody,
};
use wnrs_server::server::{EngineHost, Server, ServerConfig};

const WORKERS: usize = 2;
/// Set-ups timed in child processes, besides the run's own.
const SETUP_CHILDREN: usize = 2;
/// Connection A writes after every `WRITE_EVERY`-th of its questions.
const WRITE_EVERY: u64 = 5;
/// Hot-set questions re-asked after the timed phase for the
/// byte-for-byte check.
const SAMPLE: usize = 16;
/// Usual question rate (1/s, both connections) on the reference host:
/// a run asks `seconds × RATE` questions.
const RATE: f64 = 150.0;

/// One write as the server applied it, for the oracle to replay.
#[derive(Clone)]
enum Write {
    Insert(Point, ItemId),
    Delete(ItemId),
}

/// The write stream of connection A, generated from the seed.
struct Writes {
    rng: StdRng,
    inserted: Vec<ItemId>,
    next_delete: usize,
    log: Vec<Write>,
}

impl Writes {
    fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed ^ 0x5752_4954_4553_0002),
            inserted: Vec::new(),
            next_delete: 0,
            log: Vec::new(),
        }
    }

    /// The next write: an insert when nothing inserted is left to
    /// delete or the last write deleted, otherwise a delete.
    fn next(&mut self, points: &[Point]) -> Request {
        let delete = self.next_delete < self.inserted.len()
            && matches!(self.log.last(), Some(Write::Insert(..)));
        if delete {
            Request::Delete {
                id: self.inserted[self.next_delete],
            }
        } else {
            let a = &points[self.rng.gen_range(0..points.len())];
            let b = &points[self.rng.gen_range(0..points.len())];
            let t = self.rng.gen::<f64>();
            Request::Insert {
                point: Point::new(
                    (0..a.dim())
                        .map(|i| a[i] + t * (b[i] - a[i]))
                        .collect::<Vec<_>>(),
                ),
            }
        }
    }

    /// Records what the server did with `req`.
    fn applied(&mut self, req: &Request, answer: &Answer) -> Result<(), String> {
        match (req, answer) {
            (Request::Insert { point }, Answer::Inserted(id)) => {
                self.inserted.push(*id);
                self.log.push(Write::Insert(point.clone(), *id));
                Ok(())
            }
            (Request::Delete { id }, Answer::Deleted(true)) => {
                self.next_delete += 1;
                self.log.push(Write::Delete(*id));
                Ok(())
            }
            _ => Err(format!(
                "unexpected answer {answer:?} to {:?}",
                req.opcode()
            )),
        }
    }
}

/// One reply with the bytes it took.
struct Reply {
    resp: Response,
    payload: Vec<u8>,
    request_bytes: usize,
    codec_ns: u64,
}

/// A blocking client connection that frames requests itself, so the
/// codec calls can be timed.
struct Conn {
    stream: TcpStream,
    next_id: u64,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(Self { stream, next_id: 1 })
    }

    fn call(&mut self, req: &Request) -> Result<Reply, String> {
        let id = self.next_id;
        self.next_id += 1;
        let t = Instant::now();
        let frame = encode_request(id, req).map_err(|e| e.to_string())?;
        let mut codec_ns = t.elapsed().as_nanos() as u64;
        proto::write_frame(&mut self.stream, &frame).map_err(|e| e.to_string())?;
        let payload = proto::read_frame(&mut self.stream)
            .map_err(|e| e.to_string())?
            .ok_or("server closed the connection")?;
        let t = Instant::now();
        let resp = decode_response(&payload).map_err(|e| e.to_string())?;
        codec_ns += t.elapsed().as_nanos() as u64;
        if resp.id != id {
            return Err(format!("response id {} for request {id}", resp.id));
        }
        Ok(Reply {
            resp,
            payload,
            request_bytes: frame.len(),
            codec_ns,
        })
    }
}

/// The four requests of one question.
fn question_requests(q: &Point, id: ItemId) -> [Request; 4] {
    let customer = || Customer::Id(id);
    [
        Request::Explain {
            customer: customer(),
            q: q.clone(),
        },
        Request::Mwp {
            customer: customer(),
            q: q.clone(),
        },
        Request::Mqp {
            customer: customer(),
            q: q.clone(),
        },
        Request::Mwq {
            customer: customer(),
            q: q.clone(),
        },
    ]
}

/// Whether `answer` has the shape its request asks for.
fn well_formed(req: &Request, answer: &Answer) -> bool {
    match (req, answer) {
        (Request::Explain { .. }, Answer::Items(_)) | (Request::Mwq { .. }, Answer::Mwq { .. }) => {
            true
        }
        (Request::Mwp { .. } | Request::Mqp { .. }, Answer::Candidates(c)) => !c.is_empty(),
        _ => false,
    }
}

/// What one connection saw during a timed segment.
#[derive(Default)]
struct ClientStats {
    question_ms: Vec<f64>,
    write_ms: Vec<f64>,
    questions: u64,
    writes: u64,
    failed: u64,
    errors: u64,
    notes: Vec<String>,
    rtt_ns: u64,
    codec_ns: u64,
    request_bytes: u64,
    response_bytes: u64,
}

impl ClientStats {
    fn failure(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 10 {
            self.notes.push(why);
        }
    }

    fn merge(&mut self, o: ClientStats) {
        self.question_ms.extend(o.question_ms);
        self.write_ms.extend(o.write_ms);
        self.questions += o.questions;
        self.writes += o.writes;
        self.failed += o.failed;
        self.errors += o.errors;
        self.notes.extend(o.notes);
        self.rtt_ns += o.rtt_ns;
        self.codec_ns += o.codec_ns;
        self.request_bytes += o.request_bytes;
        self.response_bytes += o.response_bytes;
    }
}

/// The hot set: pair `k` is product `k % P` with its `(k / P) % C`-th
/// customer (`P` products, `C` customers each), so consecutive
/// questions change product.
struct HotSet(Vec<(Point, Vec<ItemId>)>);

impl HotSet {
    fn pair(&self, k: usize) -> (&Point, ItemId) {
        let n = self.0.len();
        let (q, ids) = &self.0[k % n];
        (q, ids[(k / n) % ids.len()])
    }
    fn len(&self) -> usize {
        self.0.len() * inputs::HOT_CUSTOMERS
    }
}

/// Asks one question; returns false when any of its requests failed.
fn ask(conn: &mut Conn, q: &Point, id: ItemId, st: &mut ClientStats) -> bool {
    for req in question_requests(q, id) {
        let t = Instant::now();
        let reply = conn.call(&req);
        st.rtt_ns += t.elapsed().as_nanos() as u64;
        match reply {
            Ok(r) => {
                st.codec_ns += r.codec_ns;
                st.request_bytes += r.request_bytes as u64;
                st.response_bytes += r.payload.len() as u64 + 4;
                match &r.resp.body {
                    ResponseBody::Ok(a) if well_formed(&req, a) => {}
                    ResponseBody::Ok(a) => {
                        st.failure(format!("{:?} answered with {a:?}", req.opcode()));
                        return false;
                    }
                    ResponseBody::Error(kind, msg) => {
                        st.errors += 1;
                        st.failure(format!("{:?} refused: {} {msg}", req.opcode(), kind.name()));
                        return false;
                    }
                }
            }
            Err(e) => {
                st.errors += 1;
                st.failure(format!("{:?}: {e}", req.opcode()));
                return false;
            }
        }
    }
    true
}

/// One closed-loop client, starting at hot pair `start`, asking while
/// tickets last; `writes` is `Some` on the connection that writes.
fn client(
    conn: &mut Conn,
    hot: &HotSet,
    start: usize,
    tickets: &AtomicUsize,
    budget: usize,
    points: &[Point],
    mut writes: Option<&mut Writes>,
) -> ClientStats {
    let mut st = ClientStats::default();
    let mut k = start;
    // Relaxed: the counter only hands out tickets.
    while tickets.fetch_add(1, Ordering::Relaxed) < budget {
        let (q, id) = hot.pair(k);
        k += 1;
        let t = Instant::now();
        let ok = ask(conn, q, id, &mut st);
        st.question_ms.push(t.elapsed().as_secs_f64() * 1e3);
        st.questions += 1;
        if !ok {
            continue;
        }
        if let Some(w) = writes.as_deref_mut() {
            if st.questions % WRITE_EVERY == 0 {
                let req = w.next(points);
                let t = Instant::now();
                let reply = conn.call(&req);
                st.write_ms.push(t.elapsed().as_secs_f64() * 1e3);
                st.writes += 1;
                match reply.map(|r| r.resp.body) {
                    Ok(ResponseBody::Ok(a)) => {
                        if let Err(e) = w.applied(&req, &a) {
                            st.failure(e);
                        }
                    }
                    Ok(ResponseBody::Error(kind, msg)) => {
                        st.errors += 1;
                        st.failure(format!("write refused: {} {msg}", kind.name()));
                    }
                    Err(e) => {
                        st.errors += 1;
                        st.failure(format!("write: {e}"));
                    }
                }
            }
        }
    }
    st
}

/// A running server with both connections, warmed over the hot set.
struct Served {
    server: Server,
    a: Conn,
    b: Conn,
}

/// Warm-up chunks of a set-up, each bracketed by probe bursts.
const WARM_CHUNKS: usize = 8;

/// The set-up `setup_s` times: cached engine build, server start, both
/// connections, one warm-up pass over the hot set. The pass runs in
/// [`WARM_CHUNKS`] stretches with probe bursts between them (the
/// server's threads are idle then); each stretch, and the build and
/// start before the first, is scaled by the bursts on both sides of it.
/// Returns the served pair and the set-up's seconds as measured and at
/// the reference speed.
fn set_up(
    points: &[Point],
    hot: &HotSet,
    probe: &mut HostProbe,
) -> Result<(Served, f64, f64), String> {
    let input = points.to_vec();
    let mut before = probe.burst();
    let t = Instant::now();
    let engine = WhyNotEngine::try_new(input)
        .map_err(|e| e.to_string())?
        .with_cache();
    let server = Server::start(
        ServerConfig::default()
            .with_addr("127.0.0.1:0")
            .with_workers(WORKERS),
        EngineHost::memory(engine),
    )
    .map_err(|e| format!("server start: {e}"))?;
    let mut a = Conn::connect(server.local_addr())?;
    let b = Conn::connect(server.local_addr())?;
    let mut stretch = t.elapsed().as_secs_f64();
    let (mut raw, mut scaled) = (0.0, 0.0);
    let mut warm = ClientStats::default();
    let chunk = hot.len().div_ceil(WARM_CHUNKS);
    for first in (0..hot.len()).step_by(chunk) {
        let t = Instant::now();
        for k in first..(first + chunk).min(hot.len()) {
            let (q, id) = hot.pair(k);
            if !ask(&mut a, q, id, &mut warm) {
                return Err(format!("warm-up failed: {}", warm.notes.join("; ")));
            }
        }
        stretch += t.elapsed().as_secs_f64();
        let after = probe.burst();
        raw += stretch;
        scaled += stretch / host::slowdown(&before, &after);
        (before, stretch) = (after, 0.0);
    }
    Ok((Served { server, a, b }, raw, scaled))
}

/// Both connections in a closed loop until `questions` have been
/// asked; returns their merged stats and the segment's wall time.
fn timed_segment(
    s: &mut Served,
    hot: &HotSet,
    points: &[Point],
    writes: &mut Writes,
    questions: usize,
    start: usize,
) -> (ClientStats, f64) {
    let tickets = AtomicUsize::new(0);
    let half = hot.len() / 2;
    let (a, b) = (&mut s.a, &mut s.b);
    let t = Instant::now();
    let (mut sa, sb) = std::thread::scope(|scope| {
        let hb = scope.spawn(|| client(b, hot, start + half, &tickets, questions, points, None));
        let sa = client(a, hot, start, &tickets, questions, points, Some(writes));
        // A client thread that panicked has no stats to give.
        (sa, hb.join().ok())
    });
    let wall = t.elapsed().as_secs_f64();
    match sb {
        Some(sb) => sa.merge(sb),
        None => sa.failure("connection B's client panicked".into()),
    }
    (sa, wall)
}

/// Re-asks the sample over the wire and shuts the server down; returns
/// each sampled request with the raw response payload.
fn resample(mut s: Served, hot: &HotSet) -> Result<Vec<(Request, Vec<u8>)>, String> {
    let mut got = Vec::with_capacity(SAMPLE * 4);
    for i in 0..SAMPLE {
        let (q, id) = hot.pair(i * (inputs::HOT_PRODUCTS + 1));
        for req in question_requests(q, id) {
            let reply = s.a.call(&req)?;
            got.push((req, reply.payload));
        }
    }
    drop((s.a, s.b));
    s.server
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))?;
    Ok(got)
}

/// Compares sampled responses byte for byte with an uncached engine
/// that applied the same writes in the server's order; every
/// mismatching response, and every insert the oracle numbers
/// differently, counts as a failure.
fn check_sample(
    points: &[Point],
    log: &[Write],
    got: &[(Request, Vec<u8>)],
    out: &mut Outcome,
) -> Result<(), String> {
    let mut oracle = WhyNotEngine::try_new(points.to_vec()).map_err(|e| e.to_string())?;
    for w in log {
        match w {
            Write::Insert(p, id) => {
                if oracle.insert(p.clone()) != *id {
                    out.fail(format!(
                        "insert numbered {} by the server, differently by the oracle",
                        id.0
                    ));
                }
            }
            Write::Delete(id) => {
                oracle.delete(*id);
            }
        }
    }
    for (req, payload) in got {
        let answer = match req {
            Request::Explain {
                customer: Customer::Id(id),
                q,
            } => Answer::Items(oracle.explain(*id, q).culprits),
            Request::Mwp {
                customer: Customer::Id(id),
                q,
            } => Answer::Candidates(oracle.mwp(*id, q).candidates),
            Request::Mqp {
                customer: Customer::Id(id),
                q,
            } => Answer::Candidates(oracle.mqp(*id, q).candidates),
            Request::Mwq {
                customer: Customer::Id(id),
                q,
            } => {
                let rsl = oracle.reverse_skyline(q);
                let sr = oracle.safe_region_for(q, &rsl);
                let a = oracle.mwq(*id, q, &sr);
                Answer::Mwq {
                    case: a.case,
                    q_star: a.q_star,
                    c_star: a.c_star,
                    cost: a.cost,
                }
            }
            other => return Err(format!("unexpected sampled request {:?}", other.opcode())),
        };
        let id = decode_response(payload).map_err(|e| e.to_string())?.id;
        let expected = encode_response(&Response {
            id,
            opcode: req.opcode(),
            body: ResponseBody::Ok(answer),
        })
        .map_err(|e| e.to_string())?;
        if expected.get(4..) != Some(payload.as_slice()) {
            out.fail(format!(
                "{:?} response differs from the uncached oracle's",
                req.opcode()
            ));
        }
    }
    Ok(())
}

fn hot_set(points: &[Point], seed: u64) -> HotSet {
    HotSet(inputs::batches(
        points,
        seed,
        inputs::HOT_PRODUCTS,
        inputs::HOT_CUSTOMERS,
    ))
}

fn absorb(out: &mut Outcome, st: &ClientStats) {
    out.attempted += st.questions + st.writes;
    for n in &st.notes {
        out.fail(n.clone());
    }
    // `fail` counted one per note; the rest of the failures had none.
    out.failed += st.failed - st.notes.len() as u64;
}

/// One set-up in this process, torn down again: what `--setup-only`
/// child processes time. Returns its seconds at the reference speed
/// and as measured.
pub fn setup_only(seed: u64) -> Result<(f64, f64), String> {
    let points = inputs::dataset(Kind::CarDb, seed);
    let hot = hot_set(&points, seed);
    let (served, raw, scaled) = set_up(&points, &hot, &mut HostProbe::new())?;
    drop((served.a, served.b));
    served
        .server
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))?;
    Ok((scaled, raw))
}

/// Times set-ups in fresh child processes of this binary; each gives
/// its seconds at the reference speed and as measured.
fn child_setups(seed: u64) -> Result<Vec<(f64, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut out = Vec::with_capacity(SETUP_CHILDREN);
    for _ in 0..SETUP_CHILDREN {
        let done = Command::new(&exe)
            .args([
                "--workload",
                "cardb_served",
                "--seed",
                &seed.to_string(),
                "--setup-only",
            ])
            .output()
            .map_err(|e| format!("set-up child: {e}"))?;
        let text = String::from_utf8_lossy(&done.stdout);
        let secs = text
            .lines()
            .last()
            .and_then(|l| {
                let mut it = l.split_whitespace().map(|v| v.parse::<f64>().ok());
                Some((it.next()??, it.next()??))
            })
            .filter(|_| done.status.success())
            .ok_or_else(|| {
                format!(
                    "set-up child failed: {}",
                    String::from_utf8_lossy(&done.stderr)
                )
            })?;
        out.push(secs);
    }
    Ok(out)
}

/// Stretches of a timed run, each bracketed by probe bursts.
const STRETCHES: usize = 10;

/// `cardb_served`, timed.
pub fn timed(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let children = child_setups(seed)?;
    let points = inputs::dataset(Kind::CarDb, seed);
    let hot = hot_set(&points, seed);
    let budget = ((seconds * RATE).round() as usize).max(STRETCHES * 2);
    let mut out = Outcome::default();
    let mut probe = HostProbe::new();
    let (mut served, raw_setup, setup_s) = set_up(&points, &hot, &mut probe)?;
    let mut writes = Writes::new(seed);
    let (mut all, mut raw_ms) = (ClientStats::default(), Vec::new());
    let (mut wall, mut raw_wall) = (0.0, 0.0);
    let mut scaled_ms = Vec::new();
    let mut slowdowns = Vec::with_capacity(STRETCHES);
    let mut before = probe.burst();
    for stretch in 0..STRETCHES {
        let share = budget / STRETCHES + usize::from(stretch < budget % STRETCHES);
        let start = all.questions as usize;
        let (st, w) = timed_segment(&mut served, &hot, &points, &mut writes, share, start);
        let after = probe.burst();
        let slowdown = host::slowdown(&before, &after);
        before = after;
        slowdowns.push(slowdown);
        raw_wall += w;
        wall += w / slowdown;
        scaled_ms.extend(st.question_ms.iter().map(|ms| ms / slowdown));
        raw_ms.extend(st.question_ms.iter().copied());
        all.merge(st);
    }
    let got = resample(served, &hot)?;
    let peak = report::peak_rss_mib()?;
    absorb(&mut out, &all);
    check_sample(&points, &writes.log, &got, &mut out)?;
    out.attempted += got.len() as u64;
    out.note(format!(
        "n {} d 2, {WORKERS} workers, 2 connections, hot set {}x{}, {} questions and {} writes ({} writes per question), {SAMPLE} sampled questions compared byte for byte, setup_s is the median of {} set-ups ({SETUP_CHILDREN} in child processes)",
        points.len(),
        inputs::HOT_PRODUCTS,
        inputs::HOT_CUSTOMERS,
        all.questions,
        writes.log.len(),
        writes.log.len() as f64 / all.questions.max(1) as f64,
        children.len() + 1,
    ));
    let mut setups: Vec<(f64, f64)> = children;
    setups.push((setup_s, raw_setup));
    let scaled_setups: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let raw_setups: Vec<f64> = setups.iter().map(|s| s.1).collect();
    out.set("setup_s", report::median(&scaled_setups));
    out.set("questions_per_s", all.questions as f64 / wall);
    out.set("peak_rss_mb", peak);
    report::latency_metrics(&mut out, "question_p50_ms", "question_tail_ms", scaled_ms);
    let mut raw = Outcome::default();
    raw.set("setup_s", report::median(&raw_setups));
    raw.set("questions_per_s", all.questions as f64 / raw_wall);
    report::latency_metrics(&mut raw, "question_p50_ms", "question_tail_ms", raw_ms);
    report::latency_metrics(&mut raw, "write_p50_ms", "write_tail_ms", all.write_ms);
    out.note(report::as_measured(&raw, report::median(&slowdowns)));
    Ok(out)
}

/// Counter and span totals of the program's own observability report.
fn obs_totals() -> HashMap<String, f64> {
    let r = wnrs_obs::report();
    let mut m = HashMap::new();
    for c in r.counters {
        m.insert(c.name, c.value as f64);
    }
    for s in r.spans {
        m.insert(format!("span.{}", s.name), s.total_ns as f64);
    }
    m
}

/// `cardb_served`, traced: one set-up, then four segments of a quarter
/// of the timed run's questions each, with the program's counters
/// alternately off and on. Layer metrics come from
/// the "on" segments, `trace.overhead_frac` compares the two kinds.
pub fn traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let points = inputs::dataset(Kind::CarDb, seed);
    let hot = hot_set(&points, seed);
    let mut out = Outcome::default();
    wnrs_obs::set_enabled(false);
    let (mut served, _, _) = set_up(&points, &hot, &mut HostProbe::new())?;
    let mut writes = Writes::new(seed);
    let (mut on, mut off) = (ClientStats::default(), ClientStats::default());
    let mut delta: HashMap<String, f64> = HashMap::new();
    let mut write_wait = (0.0, 0usize);
    let mut start = 0;
    let quarter = ((seconds * RATE / 4.0).round() as usize).max(5);
    for segment in 0..4 {
        let traced = segment % 2 == 1;
        wnrs_obs::set_enabled(traced);
        let before = obs_totals();
        let (st, _) = timed_segment(&mut served, &hot, &points, &mut writes, quarter, start);
        start += st.questions as usize;
        wnrs_obs::set_enabled(false);
        let after = obs_totals();
        absorb(&mut out, &st);
        if traced {
            for (k, v) in &after {
                *delta.entry(k.clone()).or_default() += v - before.get(k).copied().unwrap_or(0.0);
            }
            write_wait.0 += st.write_ms.iter().sum::<f64>();
            write_wait.1 += st.write_ms.len();
            on.merge(st);
        } else {
            off.merge(st);
        }
    }
    let got = resample(served, &hot)?;
    check_sample(&points, &writes.log, &got, &mut out)?;
    out.attempted += got.len() as u64;

    let n = on.questions.max(1) as f64;
    let d = |k: &str| delta.get(k).copied().unwrap_or(0.0);
    let span_ms = |k: &str| d(&format!("span.{k}")) / 1e6 / n;
    let service = ["serve_explain", "serve_mwp", "serve_mqp", "serve_mwq"]
        .iter()
        .map(|s| span_ms(s))
        .sum::<f64>();
    let rtt = on.rtt_ns as f64 / 1e6 / n;
    let codec_us = on.codec_ns as f64 / 1e3 / n;
    out.set("server.rtt_ms", rtt);
    out.set("server.service_ms", service);
    out.set("server.codec_us", codec_us);
    out.set("server.wait_ms", rtt - service - codec_us / 1e3);
    out.set("server.request_bytes", on.request_bytes as f64 / n);
    out.set("server.response_bytes", on.response_bytes as f64 / n);
    out.set("server.errors", (on.errors + off.errors) as f64);
    let write_service = (d("span.serve_insert") + d("span.serve_delete")) / 1e6;
    if write_wait.1 > 0 {
        out.set(
            "server.write_wait_ms",
            (write_wait.0 - write_service) / write_wait.1 as f64,
        );
    }
    let mut w = Outcome::default();
    report::latency_metrics(
        &mut w,
        "server.write_p50_ms",
        "server.write_tail_ms",
        off.write_ms.clone(),
    );
    out.metrics.extend(w.metrics);
    out.notes.extend(w.notes);

    for (metric, span) in [
        ("core.rsl_ms", "bbrs"),
        ("core.sr_ms", "sr_exact"),
        ("core.explain_ms", "serve_explain"),
        ("core.mwp_ms", "serve_mwp"),
        ("core.mqp_ms", "serve_mqp"),
        ("core.mwq_ms", "serve_mwq"),
        ("core.anti_ddr_ms", "anti_ddr"),
        ("skyline.dsl_ms", "bbs_dsl"),
    ] {
        out.set(metric, span_ms(span));
    }
    let (hits, misses) = (d("engine_cache_hits"), d("engine_cache_misses"));
    out.set("core.cache_hits", hits);
    out.set("core.cache_misses", misses);
    out.set(
        "core.cache_hit_rate",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    out.set(
        "core.cache_partial_invalidations",
        d("cache_partial_invalidations"),
    );
    out.set("core.cache_full_flushes", d("cache_full_flushes"));
    out.set(
        "core.cache_evictions",
        [
            "cache_evictions_dsl",
            "cache_evictions_antiddr",
            "cache_evictions_sr",
            "cache_evictions_mwq",
        ]
        .iter()
        .map(|k| d(k))
        .sum(),
    );
    out.set("core.cache_stale_fills", d("cache_stale_fills"));
    out.set("geometry.dominance_tests", d("dominance_tests") / n);
    out.set("rtree.node_visits", d("node_visits") / n);

    let traced_p50 = report::median(&on.question_ms);
    out.set("trace.questions", on.questions as f64);
    out.set("trace.question_ms", traced_p50);
    out.set(
        "trace.overhead_frac",
        traced_p50 / report::median(&off.question_ms) - 1.0,
    );
    out.set(
        "trace.phase_coverage",
        if rtt > 0.0 {
            (service + codec_us / 1e3) / rtt
        } else {
            0.0
        },
    );
    out.note(format!(
        "{} traced and {} untraced questions, {} writes; server-side service covers {:.3} of the round trips",
        on.questions,
        off.questions,
        writes.log.len(),
        if rtt > 0.0 { service / rtt } else { 0.0 }
    ));
    Ok(out)
}
