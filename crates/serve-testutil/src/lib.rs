//! Shared fixtures for `ripki-serve` integration tests: a
//! scenario-backed server and a raw TCP HTTP client.
//!
//! A dev-dependency crate instead of a `tests/common` module so each
//! test binary can use its own subset of the helpers without blanket
//! `#![allow(dead_code)]` — unused `pub` items in a library are not
//! dead code.

use ripki::engine::StudyEngine;
use ripki::exposure::ExposureConfig;
use ripki_serve::{EpochView, Server, ServerConfig, SharedView};
use ripki_websim::{Scenario, ScenarioConfig};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A small measured world with its engine and a running server.
pub struct Fixture {
    /// The generated world.
    pub scenario: Scenario,
    /// The engine measuring it.
    pub engine: StudyEngine,
    /// The view handle the server answers from (publish new epochs
    /// here).
    pub view: Arc<SharedView>,
    /// A server answering for the measured epoch.
    pub server: Server,
}

/// Build a `domains`-sized scenario, measure it, and serve it.
pub fn serve_scenario(domains: usize, seed: u64) -> Fixture {
    serve_scenario_config(domains, seed, ServerConfig::default())
}

/// [`serve_scenario`] with explicit server tunables — how the
/// backpressure tests shrink deadlines, watermarks, and send buffers.
pub fn serve_scenario_config(domains: usize, seed: u64, config: ServerConfig) -> Fixture {
    let scenario = Scenario::build(ScenarioConfig {
        seed,
        ..ScenarioConfig::with_domains(domains)
    });
    let engine = StudyEngine::for_scenario(&scenario, 0);
    let results = engine.run(&scenario.ranking);
    let view = EpochView::new(
        engine.snapshot(),
        Arc::new(results),
        Some(Arc::new(scenario.topology.clone())),
        ExposureConfig {
            attackers_per_domain: 1,
            stride: 1,
            ..Default::default()
        },
    );
    let view = Arc::new(SharedView::new(view));
    let server = Server::start("127.0.0.1:0", Arc::clone(&view), config).expect("bind test server");
    Fixture {
        scenario,
        engine,
        view,
        server,
    }
}

/// One response: status code, headers and body.
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Lower-cased header names with their values.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: String,
}

impl Reply {
    /// Parse the body as a JSON value tree.
    pub fn json(&self) -> serde_json::Value {
        serde_json::from_str(&self.body)
            .unwrap_or_else(|e| panic!("body is not JSON ({e:?}): {}", self.body))
    }

    /// First value of a response header (case-insensitive name).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Issue one GET over a fresh connection.
pub fn get(addr: SocketAddr, path: &str) -> Reply {
    raw_roundtrip(
        addr,
        &format!("GET {path} HTTP/1.1\r\nhost: test\r\nconnection: close\r\n\r\n"),
    )
}

/// A raw client connection with a 10 s read timeout, so a test waiting
/// on a server that never answers fails instead of hanging.
pub fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

/// Send each request in turn over ONE connection, reading one
/// `Content-Length`-framed response after each. Stops early — returning
/// the replies collected so far — when the server closes the
/// connection, which is how tests observe keep-alive being honoured or
/// withdrawn.
pub fn keep_alive_session(addr: SocketAddr, requests: &[String]) -> Vec<Reply> {
    let mut stream = connect(addr);
    let mut replies = Vec::new();
    let mut pending: Vec<u8> = Vec::new();
    for request in requests {
        if stream.write_all(request.as_bytes()).is_err() {
            break;
        }
        let Some(reply) = read_framed_response(&mut stream, &mut pending) else {
            break;
        };
        replies.push(reply);
    }
    replies
}

/// Read exactly one response (head + `Content-Length` bytes of body)
/// from the stream, leaving any pipelined surplus in `pending`. `None`
/// on EOF or socket error before a full response arrived.
fn read_framed_response(stream: &mut TcpStream, pending: &mut Vec<u8>) -> Option<Reply> {
    let head_end = loop {
        if let Some(pos) = pending.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if !fill(stream, pending) {
            return None;
        }
    };
    let head = String::from_utf8_lossy(&pending[..head_end]).to_string();
    let content_length: usize = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0);
    while pending.len() < head_end + content_length {
        if !fill(stream, pending) {
            return None;
        }
    }
    let raw = String::from_utf8_lossy(&pending[..head_end + content_length]).to_string();
    pending.drain(..head_end + content_length);
    Some(parse_response(&raw))
}

fn fill(stream: &mut TcpStream, pending: &mut Vec<u8>) -> bool {
    let mut chunk = [0u8; 4096];
    match stream.read(&mut chunk) {
        Ok(0) | Err(_) => false,
        Ok(n) => {
            pending.extend_from_slice(&chunk[..n]);
            true
        }
    }
}

/// Write arbitrary bytes, read the full response.
pub fn raw_roundtrip(addr: SocketAddr, request: &str) -> Reply {
    let mut stream = connect(addr);
    stream.write_all(request.as_bytes()).expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    parse_response(&raw)
}

/// Read everything until EOF, failing the test on a connection reset:
/// shed, close and drain paths must end with an orderly FIN, not an RST
/// destroying buffered responses.
pub fn read_to_eof_no_reset(stream: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return out,
            Ok(n) => out.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => panic!(
                "connection died uncleanly ({e:?}) after {} bytes",
                out.len()
            ),
        }
    }
}

/// Split a raw byte stream of HTTP responses into individual replies
/// using their `content-length` framing.
pub fn split_responses(raw: &[u8]) -> Vec<Reply> {
    let text = String::from_utf8_lossy(raw).to_string();
    let mut replies = Vec::new();
    let mut rest = text.as_str();
    while let Some(head_end) = rest.find("\r\n\r\n") {
        let head = &rest[..head_end + 4];
        let content_length: usize = head
            .lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .unwrap_or(0);
        let total = head_end + 4 + content_length;
        assert!(
            rest.len() >= total,
            "truncated response: head promises {content_length} body bytes"
        );
        replies.push(parse_response(&rest[..total]));
        rest = &rest[total..];
    }
    assert!(
        rest.is_empty(),
        "trailing bytes are not a response: {rest:?}"
    );
    replies
}

/// Split an HTTP/1.1 response into status + headers + body.
pub fn parse_response(raw: &str) -> Reply {
    let status: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split(' ').next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or_default();
    let headers = head
        .lines()
        .skip(1) // status line
        .filter_map(|line| line.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Reply {
        status,
        headers,
        body,
    }
}
