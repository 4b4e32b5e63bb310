//! The served request spans, with the `obs` feature: each opcode is
//! timed under its own `serve_*` name. The binary holds a single test,
//! so no other server in the process records into the global registry
//! while it runs.

#![cfg(feature = "obs")]

use wnrs_core::WhyNotEngine;
use wnrs_geometry::Point;
use wnrs_server::client::Client;
use wnrs_server::proto::{Answer, Request, ResponseBody};
use wnrs_server::server::{EngineHost, Server, ServerConfig};

fn span_count(name: &str) -> u64 {
    wnrs_obs::report()
        .spans
        .iter()
        .find(|s| s.name == name)
        .map_or(0, |s| s.count)
}

#[test]
fn shutdown_is_timed_as_serve_shutdown_not_serve_ping() {
    let engine = WhyNotEngine::new(vec![Point::xy(5.0, 30.0), Point::xy(7.5, 42.0)]);
    let server =
        Server::start(ServerConfig::default(), EngineHost::memory(engine)).expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    wnrs_obs::reset();

    for req in [Request::Ping, Request::Shutdown] {
        let resp = client.call(&req).expect("answered");
        assert!(matches!(resp.body, ResponseBody::Ok(Answer::Empty)));
    }
    // Every thread is joined, so every span has closed.
    server.wait().expect("drained shutdown");

    assert_eq!(span_count("serve_ping"), 1, "only the Ping is a ping");
    assert_eq!(span_count("serve_shutdown"), 1);
}
