//! The threaded TCP server: accept → decode → bounded queue → worker
//! pool → response, with admission control, per-request deadlines and
//! draining shutdown.
//!
//! Thread layout (`docs/SERVING.md` has the operations runbook):
//!
//! * **acceptor** — owns the listener; enforces the connection cap by
//!   answering over-cap connections with one `Overload` frame and
//!   closing them;
//! * **one reader per connection** — parses frames, answers malformed
//!   bodies with `BadRequest`, and `try_push`es decoded requests into
//!   the bounded queue; a full queue yields an immediate `Overload`
//!   response (an explicit shed, never a silent drop);
//! * **N workers** — pop jobs, drop those that aged past the deadline
//!   with `DeadlineExceeded`, execute the rest against the shared
//!   engine and write the response under the connection's write lock
//!   (responses to pipelined requests may interleave; the echoed
//!   request id re-associates them).
//!
//! Shutdown drains: `begin_shutdown` (or a client's `Shutdown`
//! request) stops admission — later requests get `ShuttingDown` — while
//! already-queued work is still executed and answered; then sockets
//! close and every thread is joined.
//!
//! All atomics here are `Relaxed` (xtask lint L8 policy): they are
//! monotonic flags and counters whose cross-thread ordering is
//! established by the queue's mutex and the socket syscalls, never by
//! the atomic itself.

use crate::handler;
use crate::proto::{self, encode_response, ErrorKind, Opcode, Request, Response, ResponseBody};
use crate::queue::{BoundedQueue, PushError};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wnrs_obs::{Counter, Gauge};

pub use crate::host::EngineHost;

/// Server tuning. Build with [`ServerConfig::default`] and override
/// with the `with_*` methods; every knob is documented operationally
/// in `docs/SERVING.md`.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    addr: String,
    workers: usize,
    queue_depth: usize,
    max_conns: usize,
    deadline: Duration,
    approx_k: Option<usize>,
}

impl Default for ServerConfig {
    /// `127.0.0.1:0` (ephemeral port), 2 workers, queue depth 128,
    /// 1024 connections, a 10-second deadline, exact safe regions.
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 128,
            max_conns: 1024,
            deadline: Duration::from_secs(10),
            approx_k: None,
        }
    }
}

impl ServerConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    #[must_use]
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Worker-thread count (clamped to at least 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Bounded request-queue depth; the admission-control knob. A full
    /// queue sheds with explicit `Overload` responses.
    #[must_use]
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Connection cap; over-cap connects receive one `Overload` frame
    /// and are closed.
    #[must_use]
    pub fn with_max_conns(mut self, max: usize) -> Self {
        self.max_conns = max.max(1);
        self
    }

    /// Per-request deadline, measured from admission to worker pickup;
    /// requests that age out are answered `DeadlineExceeded` without
    /// executing.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Answer safe-region/MWQ requests from the `k`-sample approximate
    /// region, built from lazily materialised samples (in-memory
    /// engines only; the paged engine refuses such questions).
    #[must_use]
    pub fn with_approx_k(mut self, k: Option<usize>) -> Self {
        self.approx_k = k;
        self
    }
}

/// One connection's shared half: the write side (workers serialise
/// responses through the mutex) and a raw handle the shutdown path
/// uses to unblock the reader.
struct ConnShared {
    id: u64,
    writer: Mutex<TcpStream>,
    raw: TcpStream,
}

impl ConnShared {
    /// Best-effort response write; a failed write means the peer is
    /// gone and its reader will observe the error and deregister.
    fn send(&self, resp: &Response) {
        match &resp.body {
            ResponseBody::Ok(_) => wnrs_obs::record(Counter::ServerResponsesOk),
            ResponseBody::Error(
                ErrorKind::BadRequest | ErrorKind::Unsupported | ErrorKind::Internal,
                _,
            ) => wnrs_obs::record(Counter::ServerErrors),
            ResponseBody::Error(_, _) => {}
        }
        if let Ok(frame) = encode_response(resp) {
            let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = proto::write_frame(&mut *w, &frame);
        }
    }

    fn send_error(&self, id: u64, opcode: Opcode, kind: ErrorKind, msg: impl Into<String>) {
        self.send(&Response {
            id,
            opcode,
            body: ResponseBody::Error(kind, msg.into()),
        });
    }
}

/// A decoded, admitted request waiting for a worker.
struct Job {
    conn: Arc<ConnShared>,
    id: u64,
    opcode: Opcode,
    req: Request,
    enqueued: Instant,
}

struct Shared {
    host: EngineHost,
    /// `Some(k)`: safe-region and MWQ requests get the `k`-sample
    /// approximate region.
    approx_k: Option<usize>,
    deadline: Duration,
    queue: BoundedQueue<Job>,
    shutting_down: AtomicBool,
    active_conns: AtomicUsize,
    max_conns: usize,
    local_addr: SocketAddr,
    conns: Mutex<HashMap<u64, Arc<ConnShared>>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    next_conn_id: AtomicUsize,
}

impl Shared {
    fn conns_lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<ConnShared>>> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn readers_lock(&self) -> std::sync::MutexGuard<'_, Vec<JoinHandle<()>>> {
        self.readers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Flips the shutdown flag once; closes the queue for admission
    /// and pokes the acceptor awake with a loopback connect.
    fn begin_shutdown(&self) {
        if !self.shutting_down.swap(true, Ordering::Relaxed) {
            self.queue.close();
            let _ = TcpStream::connect(self.local_addr);
        }
    }
}

/// A running server. Dropping the handle without calling
/// [`Server::shutdown`]/[`Server::wait`] leaves the service threads
/// running for the life of the process.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and the acceptor, and returns the
    /// running server.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn failures as [`std::io::Error`].
    pub fn start(cfg: ServerConfig, host: EngineHost) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            host,
            approx_k: cfg.approx_k,
            deadline: cfg.deadline,
            queue: BoundedQueue::new(cfg.queue_depth),
            shutting_down: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            max_conns: cfg.max_conns,
            local_addr,
            conns: Mutex::new(HashMap::new()),
            readers: Mutex::new(Vec::new()),
            next_conn_id: AtomicUsize::new(0),
        });
        let mut workers = Vec::with_capacity(cfg.workers);
        for i in 0..cfg.workers {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("wnrs-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("wnrs-acceptor".to_string())
                .spawn(move || acceptor_loop(&listener, &shared))?
        };
        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves an ephemeral `:0` port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Starts a graceful shutdown without blocking: admission stops
    /// (later requests get `ShuttingDown`), queued work keeps
    /// draining. Pair with [`Server::wait`] to join. Idempotent.
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Gracefully shuts down and joins every thread: queued requests
    /// are answered, then sockets close.
    ///
    /// # Errors
    ///
    /// Never fails today; the `io::Result` reserves room for socket
    /// teardown errors.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.shared.begin_shutdown();
        self.finish()
    }

    /// Blocks until some client sends `Shutdown` (or another thread
    /// calls [`Server::begin_shutdown`]), then drains and joins.
    ///
    /// # Errors
    ///
    /// Never fails today; see [`Server::shutdown`].
    pub fn wait(mut self) -> io::Result<()> {
        self.finish()
    }

    /// Join order matters: the acceptor first (it exits once the
    /// shutdown flag is up), then workers (the closed queue lets them
    /// drain every admitted job and exit), and only then are the
    /// connection sockets shut down — so every in-flight response is
    /// written before readers are unblocked and joined.
    fn finish(&mut self) -> io::Result<()> {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let conns: Vec<Arc<ConnShared>> = self.shared.conns_lock().values().cloned().collect();
        for c in conns {
            let _ = c.raw.shutdown(std::net::Shutdown::Both);
        }
        let readers: Vec<JoinHandle<()>> = self.shared.readers_lock().drain(..).collect();
        for h in readers {
            let _ = h.join();
        }
        Ok(())
    }
}

fn acceptor_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Frames are small; Nagle would trade a 40 ms coalescing delay
        // for nothing here.
        let _ = stream.set_nodelay(true);
        if shared.active_conns.load(Ordering::Relaxed) >= shared.max_conns {
            // Explicit rejection: one Overload frame, then close.
            wnrs_obs::record(Counter::ServerConnsRejected);
            if let Ok(frame) = encode_response(&Response {
                id: 0,
                opcode: Opcode::Ping,
                body: ResponseBody::Error(
                    ErrorKind::Overload,
                    "connection limit reached".to_string(),
                ),
            }) {
                let mut s = &stream;
                let _ = proto::write_frame(&mut s, &frame);
            }
            continue;
        }
        let (Ok(writer), Ok(raw)) = (stream.try_clone(), stream.try_clone()) else {
            continue;
        };
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed) as u64;
        let conn = Arc::new(ConnShared {
            id: conn_id,
            writer: Mutex::new(writer),
            raw,
        });
        shared.conns_lock().insert(conn_id, Arc::clone(&conn));
        shared.active_conns.fetch_add(1, Ordering::Relaxed);
        wnrs_obs::record(Counter::ServerConnsAccepted);
        wnrs_obs::gauge_add(Gauge::ServerActiveConnections, 1);
        let shared2 = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name(format!("wnrs-conn-{conn_id}"))
            .stack_size(256 * 1024)
            .spawn(move || reader_loop(stream, &conn, &shared2));
        match spawned {
            Ok(h) => shared.readers_lock().push(h),
            Err(_) => deregister(shared, conn_id),
        }
    }
}

fn deregister(shared: &Arc<Shared>, conn_id: u64) {
    if shared.conns_lock().remove(&conn_id).is_some() {
        shared.active_conns.fetch_sub(1, Ordering::Relaxed);
        wnrs_obs::gauge_sub(Gauge::ServerActiveConnections, 1);
    }
}

fn reader_loop(mut stream: TcpStream, conn: &Arc<ConnShared>, shared: &Arc<Shared>) {
    // The loop ends on clean close, stream failure, or an oversized
    // frame header: either way the byte stream can no longer be
    // trusted, so the connection ends there.
    while let Ok(Some(payload)) = proto::read_frame(&mut stream) {
        wnrs_obs::record(Counter::ServerRequests);
        let Ok((id, opcode)) = proto::decode_request_header(&payload) else {
            // Headerless garbage: answer on id 0, then drop the
            // connection (frame boundaries may be lost).
            conn.send_error(0, Opcode::Ping, ErrorKind::BadRequest, "unreadable header");
            break;
        };
        let req = match proto::decode_request(&payload) {
            Ok((_, req)) => req,
            Err(e) => {
                // The frame boundary held, so the stream stays usable.
                conn.send_error(id, opcode, ErrorKind::BadRequest, e.to_string());
                continue;
            }
        };
        if matches!(req, Request::Shutdown) {
            // Answered here, not queued: admission stops at once.
            let _span = wnrs_obs::span!("serve_shutdown");
            conn.send(&Response {
                id,
                opcode,
                body: ResponseBody::Ok(proto::Answer::Empty),
            });
            shared.begin_shutdown();
            continue;
        }
        if shared.shutting_down.load(Ordering::Relaxed) {
            conn.send_error(id, opcode, ErrorKind::ShuttingDown, "");
            continue;
        }
        let job = Job {
            conn: Arc::clone(conn),
            id,
            opcode,
            req,
            enqueued: Instant::now(),
        };
        match shared.queue.try_push(job) {
            Ok(()) => wnrs_obs::gauge_add(Gauge::ServerQueueDepth, 1),
            Err((PushError::Full, job)) => {
                wnrs_obs::record(Counter::ServerShedQueueFull);
                job.conn.send_error(
                    job.id,
                    job.opcode,
                    ErrorKind::Overload,
                    "request queue full",
                );
            }
            Err((PushError::Closed, job)) => {
                job.conn
                    .send_error(job.id, job.opcode, ErrorKind::ShuttingDown, "");
            }
        }
    }
    deregister(shared, conn.id);
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        wnrs_obs::gauge_sub(Gauge::ServerQueueDepth, 1);
        if job.enqueued.elapsed() > shared.deadline {
            wnrs_obs::record(Counter::ServerDeadlineTimeouts);
            job.conn
                .send_error(job.id, job.opcode, ErrorKind::DeadlineExceeded, "");
            continue;
        }
        wnrs_obs::gauge_add(Gauge::ServerInflightRequests, 1);
        let body = {
            let _span = match job.opcode {
                Opcode::Ping => wnrs_obs::span!("serve_ping"),
                Opcode::Rsl => wnrs_obs::span!("serve_rsl"),
                Opcode::Explain => wnrs_obs::span!("serve_explain"),
                Opcode::Mwp => wnrs_obs::span!("serve_mwp"),
                Opcode::Mqp => wnrs_obs::span!("serve_mqp"),
                Opcode::SafeRegion => wnrs_obs::span!("serve_safe_region"),
                Opcode::Mwq => wnrs_obs::span!("serve_mwq"),
                Opcode::Insert => wnrs_obs::span!("serve_insert"),
                Opcode::Delete => wnrs_obs::span!("serve_delete"),
                // Readers answer `Shutdown` themselves; never queued.
                Opcode::Shutdown => wnrs_obs::span!("serve_shutdown"),
            };
            match handler::handle(&shared.host, shared.approx_k, job.req) {
                Ok(answer) => ResponseBody::Ok(answer),
                Err((kind, msg)) => ResponseBody::Error(kind, msg),
            }
        };
        job.conn.send(&Response {
            id: job.id,
            opcode: job.opcode,
            body,
        });
        wnrs_obs::gauge_sub(Gauge::ServerInflightRequests, 1);
    }
}
