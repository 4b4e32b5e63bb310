//! End-to-end serving tests: every opcode in both engine modes,
//! concurrent clients checked bit-identically against a
//! single-threaded uncached oracle, admission control, deadlines, and
//! graceful shutdown under load.
//!
//! Byte-level equivalence works because `proto_roundtrip.rs` proves
//! decode∘encode is the identity on well-formed responses: re-encoding
//! a received response and comparing against the oracle's encoding
//! compares the exact bytes the server produced.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;
use wnrs_core::engine::DEFAULT_EPS;
use wnrs_core::{modify_why_not_point, WhyNotEngine};
use wnrs_geometry::{CostModel, Point};
use wnrs_rtree::bulk::bulk_load;
use wnrs_rtree::{into_ok, ItemId, PagedRTree, RTreeConfig};
use wnrs_server::client::Client;
use wnrs_server::proto::{
    self, encode_request, encode_response, Answer, Customer, ErrorKind, Opcode, Request, Response,
    ResponseBody,
};
use wnrs_server::server::{EngineHost, Server, ServerConfig};
use wnrs_storage::{BufferPool, FilePager, PAPER_PAGE_SIZE};

/// The paper's Table-II running example (products P1..P8).
fn paper_points() -> Vec<Point> {
    vec![
        Point::xy(5.0, 30.0),
        Point::xy(7.5, 42.0),
        Point::xy(2.5, 70.0),
        Point::xy(7.5, 90.0),
        Point::xy(24.0, 20.0),
        Point::xy(20.0, 50.0),
        Point::xy(26.0, 70.0),
        Point::xy(16.0, 80.0),
    ]
}

fn start_memory(cfg: ServerConfig, pts: Vec<Point>, cached: bool) -> Server {
    let engine = if cached {
        WhyNotEngine::new(pts).with_cache()
    } else {
        WhyNotEngine::new(pts)
    };
    Server::start(cfg, EngineHost::memory(engine)).expect("server starts")
}

/// Encodes the response the single-threaded oracle would produce.
fn oracle_frame(id: u64, opcode: Opcode, answer: Answer) -> Vec<u8> {
    encode_response(&Response {
        id,
        opcode,
        body: ResponseBody::Ok(answer),
    })
    .expect("oracle encode")
}

/// Re-encodes a received response for byte comparison.
fn received_frame(resp: &Response) -> Vec<u8> {
    encode_response(resp).expect("re-encode")
}

fn expect_error(resp: &Response, kind: ErrorKind) {
    match &resp.body {
        ResponseBody::Error(k, _) if *k == kind => {}
        other => panic!("expected {kind:?} error, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Every opcode, in-memory
// ---------------------------------------------------------------------

#[test]
fn all_opcodes_memory_match_oracle() {
    let pts = paper_points();
    let oracle = WhyNotEngine::new(pts.clone());
    let q = Point::xy(8.5, 55.0);
    let server = start_memory(ServerConfig::default(), pts.clone(), true);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Requests answered by the oracle, in the order sent (ids 1..).
    let rsl = oracle.reverse_skyline(&q);
    let sr = oracle.safe_region_for(&q, &rsl);
    let cases: Vec<(Request, Answer)> = vec![
        (Request::Ping, Answer::Empty),
        (Request::Rsl { q: q.clone() }, Answer::Items(rsl.clone())),
        (
            Request::Explain {
                customer: Customer::Id(ItemId(3)),
                q: q.clone(),
            },
            Answer::Items(oracle.explain(ItemId(3), &q).culprits),
        ),
        (
            Request::Mwp {
                customer: Customer::Id(ItemId(3)),
                q: q.clone(),
            },
            Answer::Candidates(oracle.mwp(ItemId(3), &q).candidates),
        ),
        (
            Request::Mwp {
                customer: Customer::External(Point::xy(18.0, 60.0)),
                q: q.clone(),
            },
            Answer::Candidates(
                into_ok(modify_why_not_point(
                    oracle.tree(),
                    &Point::xy(18.0, 60.0),
                    &q,
                    None,
                    oracle.cost_model(),
                    DEFAULT_EPS,
                ))
                .candidates,
            ),
        ),
        (
            Request::Mqp {
                customer: Customer::Id(ItemId(3)),
                q: q.clone(),
            },
            Answer::Candidates(oracle.mqp(ItemId(3), &q).candidates),
        ),
        (
            Request::SafeRegion { q: q.clone() },
            Answer::Region(proto::region_to_wire(&sr)),
        ),
        (
            Request::Mwq {
                customer: Customer::Id(ItemId(3)),
                q: q.clone(),
            },
            {
                let ans = oracle.mwq(ItemId(3), &q, &sr);
                Answer::Mwq {
                    case: ans.case,
                    q_star: ans.q_star,
                    c_star: ans.c_star,
                    cost: ans.cost,
                }
            },
        ),
        // Customers named by point: answered in memory as in paged mode.
        (
            Request::Explain {
                customer: Customer::External(Point::xy(18.0, 60.0)),
                q: q.clone(),
            },
            Answer::Items(
                wnrs_core::explain(oracle.tree(), &Point::xy(18.0, 60.0), &q, None)
                    .unwrap_or_else(|e| match e {})
                    .culprits,
            ),
        ),
        (
            Request::Mwq {
                customer: Customer::PointExcluding(pts[3].clone(), ItemId(3)),
                q: q.clone(),
            },
            {
                let ans = oracle.mwq(ItemId(3), &q, &sr);
                Answer::Mwq {
                    case: ans.case,
                    q_star: ans.q_star,
                    c_star: ans.c_star,
                    cost: ans.cost,
                }
            },
        ),
    ];
    for (i, (req, expected)) in cases.iter().enumerate() {
        let resp = client.call(req).expect("call");
        assert_eq!(
            received_frame(&resp),
            oracle_frame(i as u64 + 1, req.opcode(), expected.clone()),
            "response bytes diverge from the oracle for {:?}",
            req.opcode()
        );
    }

    // Writes flow through and report their effects.
    let resp = client
        .call(&Request::Insert {
            point: Point::xy(1.0, 25.0),
        })
        .expect("insert");
    assert!(
        matches!(resp.body, ResponseBody::Ok(Answer::Inserted(ItemId(8)))),
        "unexpected insert response: {resp:?}"
    );
    let resp = client
        .call(&Request::Delete { id: ItemId(8) })
        .expect("delete");
    assert!(matches!(resp.body, ResponseBody::Ok(Answer::Deleted(true))));

    // Typed errors, not closed connections.
    let resp = client
        .call(&Request::Rsl {
            q: Point::new(vec![1.0, 2.0, 3.0]),
        })
        .expect("dim mismatch answered");
    expect_error(&resp, ErrorKind::BadRequest);
    let resp = client
        .call(&Request::Delete { id: ItemId(999) })
        .expect("bad id answered");
    expect_error(&resp, ErrorKind::BadRequest);
    let resp = client
        .call(&Request::Mwp {
            customer: Customer::Id(ItemId(999)),
            q: q.clone(),
        })
        .expect("unknown customer answered");
    expect_error(&resp, ErrorKind::BadRequest);

    // The connection is still healthy after every error above.
    let resp = client.call(&Request::Ping).expect("ping after errors");
    assert!(matches!(resp.body, ResponseBody::Ok(Answer::Empty)));

    server.shutdown().expect("shutdown");
}

// ---------------------------------------------------------------------
// Every opcode, paged
// ---------------------------------------------------------------------

#[test]
fn paged_mode_serves_queries_and_rejects_writes() {
    let pts = paper_points();
    let dir = std::env::temp_dir().join(format!("wnrs-server-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let idx = dir.join("paged-int.idx");
    let _ = std::fs::remove_file(&idx);
    let pager = Arc::new(FilePager::create(&idx, PAPER_PAGE_SIZE).expect("create index"));
    let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
    let meta = wnrs_rtree::persist::save(&tree, pager.as_ref()).expect("save");
    let paged = PagedRTree::open(BufferPool::new(pager, 16), meta).expect("open");
    let engine =
        wnrs_core::PagedEngine::from_tree(paged, CostModel::paper_default(&pts)).expect("engine");

    let oracle = WhyNotEngine::new(pts.clone());
    let q = Point::xy(8.5, 55.0);
    let server =
        Server::start(ServerConfig::default(), EngineHost::paged(engine)).expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Queries agree with the in-memory oracle, byte for byte.
    let resp = client.call(&Request::Rsl { q: q.clone() }).expect("rsl");
    assert_eq!(
        received_frame(&resp),
        oracle_frame(1, Opcode::Rsl, Answer::Items(oracle.reverse_skyline(&q)))
    );
    let resp = client
        .call(&Request::Mwp {
            customer: Customer::PointExcluding(pts[3].clone(), ItemId(3)),
            q: q.clone(),
        })
        .expect("mwp");
    assert_eq!(
        received_frame(&resp),
        oracle_frame(
            2,
            Opcode::Mwp,
            Answer::Candidates(oracle.mwp(ItemId(3), &q).candidates)
        ),
        "paged MWP diverges from the in-memory oracle"
    );
    let resp = client
        .call(&Request::Explain {
            customer: Customer::PointExcluding(pts[3].clone(), ItemId(3)),
            q: q.clone(),
        })
        .expect("explain");
    assert_eq!(
        received_frame(&resp),
        oracle_frame(
            3,
            Opcode::Explain,
            Answer::Items(oracle.explain(ItemId(3), &q).culprits)
        )
    );
    let resp = client
        .call(&Request::SafeRegion { q: q.clone() })
        .expect("safe region");
    let rsl = oracle.reverse_skyline(&q);
    assert_eq!(
        received_frame(&resp),
        oracle_frame(
            4,
            Opcode::SafeRegion,
            Answer::Region(proto::region_to_wire(&oracle.safe_region_for(&q, &rsl)))
        )
    );

    // The page-resident index is read-only: typed Unsupported.
    let resp = client
        .call(&Request::Insert {
            point: Point::xy(1.0, 1.0),
        })
        .expect("insert answered");
    expect_error(&resp, ErrorKind::Unsupported);
    let resp = client
        .call(&Request::Delete { id: ItemId(0) })
        .expect("delete answered");
    expect_error(&resp, ErrorKind::Unsupported);
    // ...and id-addressed customers need the in-memory arena.
    let resp = client
        .call(&Request::Mwp {
            customer: Customer::Id(ItemId(0)),
            q: q.clone(),
        })
        .expect("id customer answered");
    expect_error(&resp, ErrorKind::Unsupported);
    server.shutdown().expect("shutdown");

    // A cached paged server answers approximate safe regions and MWQ
    // against them like the in-memory oracle.
    let pager = Arc::new(FilePager::open(&idx).expect("reopen index"));
    let paged = PagedRTree::open(BufferPool::new(pager, 16), meta).expect("open");
    let engine = wnrs_core::PagedEngine::from_tree(paged, CostModel::paper_default(&pts))
        .expect("engine")
        .with_cache();
    let config = ServerConfig::default().with_approx_k(Some(4));
    let server = Server::start(config, EngineHost::paged(engine)).expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let approx = oracle.approx_safe_region_lazy(&q, &rsl, 4);
    let resp = client
        .call(&Request::SafeRegion { q: q.clone() })
        .expect("approximate safe region");
    assert_eq!(
        received_frame(&resp),
        oracle_frame(
            1,
            Opcode::SafeRegion,
            Answer::Region(proto::region_to_wire(&approx))
        )
    );
    let resp = client
        .call(&Request::Mwq {
            customer: Customer::PointExcluding(pts[0].clone(), ItemId(0)),
            q: q.clone(),
        })
        .expect("mwq");
    let want = oracle.mwq(ItemId(0), &q, &approx);
    assert_eq!(
        received_frame(&resp),
        oracle_frame(
            2,
            Opcode::Mwq,
            Answer::Mwq {
                case: want.case,
                q_star: want.q_star,
                c_star: want.c_star,
                cost: want.cost,
            }
        ),
        "paged approximate MWQ diverges from the in-memory oracle"
    );
    server.shutdown().expect("shutdown");
    let _ = std::fs::remove_file(&idx);
}

// ---------------------------------------------------------------------
// Concurrency ≡ oracle
// ---------------------------------------------------------------------

#[test]
fn concurrent_clients_match_oracle_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(20_130_408);
    let pts = wnrs_data::uniform(&mut rng, 300, 2);
    let oracle = WhyNotEngine::new(pts.clone());
    let n = pts.len() as u32;

    const THREADS: usize = 6;
    const CALLS: usize = 20;
    let make_request = move |t: usize, i: usize| -> Request {
        let q = Point::xy(
            0.1 + 0.8 * ((t * CALLS + i) as f64 / (THREADS * CALLS) as f64),
            0.7 - 0.5 * (i as f64 / CALLS as f64),
        );
        match (t + i) % 4 {
            0 => Request::Rsl { q },
            1 => Request::Mwp {
                customer: Customer::Id(ItemId(((t * 31 + i) as u32) % n)),
                q,
            },
            2 => Request::SafeRegion { q },
            _ => Request::Mwq {
                customer: Customer::Id(ItemId(((t * 17 + i) as u32) % n)),
                q,
            },
        }
    };
    // Single-threaded, uncached oracle answers, computed up front.
    let expected: Vec<Vec<Vec<u8>>> = (0..THREADS)
        .map(|t| {
            (0..CALLS)
                .map(|i| {
                    let req = make_request(t, i);
                    let answer = match &req {
                        Request::Rsl { q } => Answer::Items(oracle.reverse_skyline(q)),
                        Request::Mwp {
                            customer: Customer::Id(id),
                            q,
                        } => Answer::Candidates(oracle.mwp(*id, q).candidates),
                        Request::SafeRegion { q } => {
                            let rsl = oracle.reverse_skyline(q);
                            Answer::Region(proto::region_to_wire(&oracle.safe_region_for(q, &rsl)))
                        }
                        Request::Mwq {
                            customer: Customer::Id(id),
                            q,
                        } => {
                            let rsl = oracle.reverse_skyline(q);
                            let sr = oracle.safe_region_for(q, &rsl);
                            let ans = oracle.mwq(*id, q, &sr);
                            Answer::Mwq {
                                case: ans.case,
                                q_star: ans.q_star,
                                c_star: ans.c_star,
                                cost: ans.cost,
                            }
                        }
                        other => panic!("unplanned request {other:?}"),
                    };
                    oracle_frame(i as u64 + 1, req.opcode(), answer)
                })
                .collect()
        })
        .collect();

    let server = start_memory(
        ServerConfig::default()
            .with_workers(4)
            .with_queue_depth(256),
        pts,
        true,
    );
    let addr = server.local_addr();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || -> Vec<Vec<u8>> {
                let mut client = Client::connect(addr).expect("connect");
                (0..CALLS)
                    .map(|i| {
                        let resp = client.call(&make_request(t, i)).expect("call");
                        assert_eq!(resp.id, i as u64 + 1);
                        received_frame(&resp)
                    })
                    .collect()
            })
        })
        .collect();
    for (t, h) in handles.into_iter().enumerate() {
        let got = h.join().expect("client thread");
        assert_eq!(
            got, expected[t],
            "thread {t}: served bytes diverge from the single-threaded oracle"
        );
    }
    server.shutdown().expect("shutdown");
}

#[test]
fn write_mix_is_serialized_and_converges_to_oracle() {
    let mut rng = StdRng::seed_from_u64(42);
    let pts = wnrs_data::uniform(&mut rng, 200, 2);
    let server = start_memory(ServerConfig::default().with_workers(3), pts.clone(), true);
    let addr = server.local_addr();
    let q = Point::xy(0.4, 0.6);

    // One writer applies a deterministic op sequence over its own
    // connection (in-order per connection ⇒ serialized against the
    // engine's write lock).
    let ops: Vec<Request> = (0..30)
        .map(|i| {
            if i % 3 == 2 {
                Request::Delete {
                    id: ItemId(200 + i as u32 / 3),
                }
            } else {
                Request::Insert {
                    point: Point::xy(0.3 + 0.01 * f64::from(i), 0.5 - 0.01 * f64::from(i)),
                }
            }
        })
        .collect();
    let writer_ops = ops.clone();
    let writer = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        for op in &writer_ops {
            let resp = client.call(op).expect("write answered");
            assert!(
                matches!(resp.body, ResponseBody::Ok(_)),
                "write rejected: {resp:?}"
            );
        }
    });
    // Readers hammer queries throughout; every answer must be a
    // well-formed Ok (each query sees some consistent engine state).
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let q = q.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..40 {
                    let resp = client.call(&Request::Rsl { q: q.clone() }).expect("rsl");
                    assert!(matches!(resp.body, ResponseBody::Ok(Answer::Items(_))));
                }
            })
        })
        .collect();
    writer.join().expect("writer");
    for r in readers {
        r.join().expect("reader");
    }

    // Quiesced state equals the oracle with the same ops applied.
    let mut oracle = WhyNotEngine::new(pts);
    for op in &ops {
        match op {
            Request::Insert { point } => {
                oracle.insert(point.clone());
            }
            Request::Delete { id } => {
                oracle.delete(*id);
            }
            _ => unreachable!(),
        }
    }
    let mut client = Client::connect(addr).expect("connect");
    let resp = client.call(&Request::Rsl { q: q.clone() }).expect("rsl");
    assert_eq!(
        received_frame(&resp),
        oracle_frame(1, Opcode::Rsl, Answer::Items(oracle.reverse_skyline(&q))),
        "post-write state diverges from the oracle"
    );
    server.shutdown().expect("shutdown");
}

// ---------------------------------------------------------------------
// Admission control and deadlines
// ---------------------------------------------------------------------

#[test]
fn connection_cap_rejects_with_explicit_overload() {
    let server = start_memory(
        ServerConfig::default().with_max_conns(1),
        paper_points(),
        false,
    );
    let mut first = Client::connect(server.local_addr()).expect("connect");
    // Completing a round-trip guarantees the first connection is
    // registered before the second arrives.
    first.call(&Request::Ping).expect("ping");

    let mut second = Client::connect(server.local_addr()).expect("tcp connect");
    let resp = second.recv().expect("rejection frame");
    assert_eq!(resp.id, 0);
    expect_error(&resp, ErrorKind::Overload);
    // ...after which the socket is closed.
    assert!(second.recv().is_err());

    // The admitted connection keeps working.
    first.call(&Request::Ping).expect("ping still works");
    server.shutdown().expect("shutdown");
}

#[test]
fn full_queue_sheds_with_explicit_overload() {
    let mut rng = StdRng::seed_from_u64(7);
    let pts = wnrs_data::anticorrelated(&mut rng, 2000, 3);
    let server = start_memory(
        ServerConfig::default().with_workers(1).with_queue_depth(1),
        pts,
        false,
    );
    const PIPELINED: usize = 200;
    let stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let mut write_half = stream.try_clone().expect("clone");
    let reader = std::thread::spawn(move || {
        let mut stream = stream;
        let mut ok = 0usize;
        let mut shed = 0usize;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..PIPELINED {
            let payload = proto::read_frame(&mut stream)
                .expect("read")
                .expect("no eof before all responses");
            let resp = proto::decode_response(&payload).expect("decode");
            assert!(seen.insert(resp.id), "duplicate response id {}", resp.id);
            match resp.body {
                ResponseBody::Ok(_) => ok += 1,
                ResponseBody::Error(ErrorKind::Overload, _) => shed += 1,
                other => panic!("unexpected response body: {other:?}"),
            }
        }
        (ok, shed)
    });
    let q = Point::new(vec![0.5, 0.5, 0.5]);
    for id in 1..=PIPELINED as u64 {
        let frame = encode_request(
            id,
            &Request::Mwq {
                customer: Customer::External(q.clone()),
                q: q.clone(),
            },
        )
        .expect("encode");
        proto::write_frame(&mut write_half, &frame).expect("write");
    }
    let (ok, shed) = reader.join().expect("reader thread");
    // Conservation: every request answered exactly once, explicitly.
    assert_eq!(ok + shed, PIPELINED);
    assert!(ok > 0, "no request was served");
    assert!(
        shed > 0,
        "a 1-deep queue with 1 worker absorbed {PIPELINED} pipelined MWQs without shedding"
    );
    server.shutdown().expect("shutdown");
}

#[test]
fn zero_sample_size_is_refused_before_binding() {
    // The address is taken, so a server that bound first would fail
    // with `AddrInUse`; the configuration check must come before it.
    let taken = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = taken.local_addr().expect("addr").to_string();
    let cfg = ServerConfig::default()
        .with_addr(addr)
        .with_approx_k(Some(0));
    let host = EngineHost::memory(WhyNotEngine::new(paper_points()));
    match Server::start(cfg, host) {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}"),
        Ok(server) => {
            server.shutdown().expect("shutdown");
            panic!("a server with k = 0 started");
        }
    }
}

#[test]
fn expired_deadline_is_answered_not_executed() {
    let server = start_memory(
        ServerConfig::default().with_deadline(Duration::from_nanos(1)),
        paper_points(),
        false,
    );
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let resp = client
        .call(&Request::Rsl {
            q: Point::xy(8.5, 55.0),
        })
        .expect("answered");
    expect_error(&resp, ErrorKind::DeadlineExceeded);
    server.shutdown().expect("shutdown");
}

// ---------------------------------------------------------------------
// Graceful shutdown
// ---------------------------------------------------------------------

#[test]
fn graceful_shutdown_drains_under_load() {
    let mut rng = StdRng::seed_from_u64(11);
    let pts = wnrs_data::uniform(&mut rng, 400, 2);
    let server = start_memory(ServerConfig::default().with_workers(2), pts, true);
    let addr = server.local_addr();

    let clients: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut answered = 0usize;
                for i in 0..60 {
                    let q = Point::xy(0.2 + 0.001 * (t * 60 + i) as f64, 0.6);
                    match client.call(&Request::Rsl { q }) {
                        Ok(resp) => {
                            // During the drain a request may be refused,
                            // but always with a typed response.
                            match resp.body {
                                ResponseBody::Ok(Answer::Items(_))
                                | ResponseBody::Error(
                                    ErrorKind::ShuttingDown | ErrorKind::Overload,
                                    _,
                                ) => answered += 1,
                                other => panic!("unexpected body: {other:?}"),
                            }
                        }
                        // Socket teardown after the drain.
                        Err(_) => break,
                    }
                }
                answered
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(30));
    let mut trigger = Client::connect(addr).expect("connect");
    let resp = trigger.call(&Request::Shutdown).expect("shutdown acked");
    assert!(matches!(resp.body, ResponseBody::Ok(Answer::Empty)));

    // wait() returns only after the queue drained and all threads
    // joined; a hang here is the failure mode this test guards.
    server.wait().expect("drained shutdown");
    for c in clients {
        let answered = c.join().expect("client thread");
        assert!(answered > 0, "client finished no calls before teardown");
    }
}
