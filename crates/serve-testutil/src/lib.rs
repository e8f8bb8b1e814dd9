//! Shared fixtures for `ripki-serve` integration tests: a
//! scenario-backed server and a raw TCP HTTP client. The client frames
//! every response with the serving plane's own decoder
//! ([`ripki_serve::http::frame_response`]), so a malformed response
//! fails the test with the decoder's typed error.
//!
//! A dev-dependency crate instead of a `tests/common` module so each
//! test binary can use its own subset of the helpers without blanket
//! `#![allow(dead_code)]` — unused `pub` items in a library are not
//! dead code.

use ripki::engine::StudyEngine;
use ripki::exposure::ExposureConfig;
use ripki_serve::http::{frame_response, header_value, HttpError, ResponseHead};
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
        header_value(&self.headers, name)
    }

    fn new(head: ResponseHead, body: &[u8]) -> Reply {
        Reply {
            status: head.status,
            headers: head.headers,
            body: String::from_utf8_lossy(body).into_owned(),
        }
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

/// Send each request in turn over ONE connection, reading one framed
/// response after each. Stops early — returning the replies collected
/// so far — when the server closes the connection between responses,
/// which is how tests observe keep-alive being honoured or withdrawn.
pub fn keep_alive_session(addr: SocketAddr, requests: &[String]) -> Vec<Reply> {
    let mut stream = connect(addr);
    let mut replies = Vec::new();
    let mut pending: Vec<u8> = Vec::new();
    for request in requests {
        if stream.write_all(request.as_bytes()).is_err() {
            break;
        }
        let Some(reply) = next_reply(&mut stream, &mut pending) else {
            break;
        };
        replies.push(reply);
    }
    replies
}

/// Read until one whole response is framed at the front of `pending`
/// and take it off, leaving any pipelined surplus. `None` when the
/// connection ends (EOF or socket error) before the response's first
/// byte.
fn next_reply(stream: &mut TcpStream, pending: &mut Vec<u8>) -> Option<Reply> {
    let mut chunk = [0u8; 4096];
    let mut eof = false;
    loop {
        if let Some((head, body)) =
            frame_response(pending, eof).unwrap_or_else(|e| malformed(e, pending))
        {
            let reply = Reply::new(head, &pending[body.clone()]);
            pending.drain(..body.end);
            return Some(reply);
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) if pending.is_empty() => return None,
            Ok(0) | Err(_) => eof = true,
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
        }
    }
}

fn malformed(error: HttpError, raw: &[u8]) -> ! {
    panic!(
        "malformed response ({error:?}): {:?}",
        String::from_utf8_lossy(raw)
    )
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

/// Split a raw byte stream, read to EOF, into the responses it holds,
/// each framed by its own head.
pub fn split_responses(raw: &[u8]) -> Vec<Reply> {
    let mut replies = Vec::new();
    let mut rest = raw;
    while !rest.is_empty() {
        // At EOF the decoder frames a message or refuses it.
        let (head, body) = frame_response(rest, true)
            .and_then(|framed| framed.ok_or(HttpError::Truncated))
            .unwrap_or_else(|e| malformed(e, rest));
        replies.push(Reply::new(head, &rest[body.clone()]));
        rest = &rest[body.end..];
    }
    replies
}

/// Decode a connection's whole output (read to EOF), which must be
/// exactly one response.
pub fn parse_response(raw: &str) -> Reply {
    let mut replies = split_responses(raw.as_bytes());
    assert_eq!(replies.len(), 1, "not one response: {raw:?}");
    replies.remove(0)
}
