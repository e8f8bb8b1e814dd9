//! Keep-alive load harness for the event-driven HTTP serving plane.
//!
//! Opens a large population of concurrent keep-alive sessions against a
//! running `ripki-cli serve` (or any `ripki-serve` instance), drives a
//! bounded number of them at a time round-robin so every session serves
//! traffic without tripping the server's overload shedding, and reports
//! sustained throughput plus the server-side p99 interpolated from the
//! `/metrics` cumulative latency histogram. The client is built on the
//! same `poll(2)` readiness primitives as the server's reactor
//! ([`ripki_serve::reactor::poll_fds`]) — one thread, no blocking I/O,
//! which is what makes 10k sockets from a single process practical.
//!
//! Writes `results/BENCH_serve_async.json`, which `scripts/bench_gate.py`
//! gates against its own checked-in predecessor.
//!
//! ```text
//! serve_load --connect 127.0.0.1:8080 --sessions 10000 --requests 50000
//! ```

#![allow(clippy::disallowed_methods)]

use ripki_serve::http::{frame_response, parse_response_head, Framing};
use ripki_serve::reactor::{poll_fds, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// How many connect attempts are in flight at once while building the
/// session population. Bounded so the server's accept backlog (and the
/// kernel SYN queue) never overflows into multi-second retransmits.
const CONNECT_BATCH: usize = 256;

/// Harness tunables, all settable from the command line.
struct Options {
    connect: SocketAddr,
    sessions: usize,
    active: usize,
    requests: usize,
    pipeline: usize,
    query: String,
    out: String,
}

fn usage() -> &'static str {
    "usage: serve_load --connect ADDR [--sessions N] [--active N]\n\
     \u{20}                 [--requests N] [--pipeline N] [--query PATH]\n\
     \u{20}                 [--out FILE]\n\
     drive N concurrent keep-alive sessions against a running\n\
     ripki-serve instance and write results/BENCH_serve_async.json"
}

fn parse_options() -> Result<Options, String> {
    let mut connect = None;
    let mut options = Options {
        connect: "127.0.0.1:0".parse().expect("literal addr"),
        sessions: 10_000,
        active: 48,
        requests: 50_000,
        pipeline: 4,
        query: "/api/v1/validity?asn=AS65000&prefix=10.0.0.0/24".into(),
        out: "results/BENCH_serve_async.json".into(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--connect" => {
                connect = Some(
                    value("--connect")?
                        .parse()
                        .map_err(|e| format!("--connect: {e}"))?,
                )
            }
            "--sessions" => {
                options.sessions = value("--sessions")?
                    .parse()
                    .map_err(|e| format!("--sessions: {e}"))?
            }
            "--active" => {
                options.active = value("--active")?
                    .parse()
                    .map_err(|e| format!("--active: {e}"))?
            }
            "--requests" => {
                options.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?
            }
            "--pipeline" => {
                options.pipeline = value("--pipeline")?
                    .parse()
                    .map_err(|e| format!("--pipeline: {e}"))?
            }
            "--query" => options.query = value("--query")?,
            "--out" => options.out = value("--out")?,
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    options.connect = connect.ok_or_else(|| format!("--connect is required\n{}", usage()))?;
    options.sessions = options.sessions.max(1);
    options.active = options.active.clamp(1, options.sessions);
    options.pipeline = options.pipeline.max(1);
    options.requests = options.requests.max(options.sessions);
    Ok(options)
}

/// One keep-alive session: its socket, unsent request bytes, the
/// response-reassembly buffer, and how many responses it still owes.
struct Session {
    stream: TcpStream,
    write_buf: Vec<u8>,
    written: usize,
    read_buf: Vec<u8>,
    awaiting: usize,
}

impl Session {
    fn new(stream: TcpStream) -> Session {
        Session {
            stream,
            write_buf: Vec::new(),
            written: 0,
            read_buf: Vec::new(),
            awaiting: 0,
        }
    }
}

/// Establish `count` non-blocking connections in bounded batches.
fn establish(addr: SocketAddr, count: usize) -> Result<Vec<Session>, String> {
    let mut sessions = Vec::with_capacity(count);
    while sessions.len() < count {
        let batch = CONNECT_BATCH.min(count - sessions.len());
        let mut pending: Vec<TcpStream> = Vec::with_capacity(batch);
        for _ in 0..batch {
            let stream = TcpStream::connect(addr)
                .map_err(|e| format!("connect {addr} (session {}): {e}", sessions.len()))?;
            stream
                .set_nonblocking(true)
                .map_err(|e| format!("set_nonblocking: {e}"))?;
            let _ = stream.set_nodelay(true);
            pending.push(stream);
        }
        // Each batch connected with blocking sockets, so the streams are
        // established on return; a per-batch error check still catches
        // servers that accept-then-reset under pressure.
        for stream in pending {
            if let Ok(Some(e)) = stream.take_error() {
                return Err(format!("session failed during connect: {e}"));
            }
            sessions.push(Session::new(stream));
        }
        // Pace against the server's own accounting: on a shared single
        // core the connect loop can outrun the acceptor by more than
        // the listen backlog, and every overflowed handshake stalls for
        // a full SYN retransmit. The roundtrip also yields the CPU to
        // the acceptor, which is half the point.
        if sessions.len() < count {
            wait_until_accepted(addr, sessions.len())?;
        }
    }
    Ok(sessions)
}

/// Block until the server's `/status` gauge reports at least `at_least`
/// open connections.
fn wait_until_accepted(addr: SocketAddr, at_least: usize) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = control_get(addr, "/status")?;
        let open = status_u64(&status, "open_connections").unwrap_or(0);
        if open as usize >= at_least {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!(
                "server accepted only {open}/{at_least} sessions within 30s"
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Queue `count` pipelined requests on the session.
fn enqueue_requests(session: &mut Session, query: &str, count: usize) {
    for _ in 0..count {
        session
            .write_buf
            .extend_from_slice(format!("GET {query} HTTP/1.1\r\nhost: load\r\n\r\n").as_bytes());
    }
    session.awaiting += count;
}

/// Consume complete content-length-framed responses from the session's
/// read buffer. Returns completed responses; errors on a non-200.
fn harvest(session: &mut Session) -> Result<usize, String> {
    let mut done = 0usize;
    while session.awaiting > 0 {
        let Some((head, head_len)) = parse_response_head(&session.read_buf)
            .map_err(|e| format!("malformed response under load: {e}"))?
        else {
            break;
        };
        if head.status != 200 {
            return Err(format!("non-200 response under load: {}", head.status));
        }
        let Framing::Length(body_len) = head.framing else {
            return Err("response without content-length framing".to_string());
        };
        if session.read_buf.len() < head_len + body_len {
            break;
        }
        session.read_buf.drain(..head_len + body_len);
        session.awaiting -= 1;
        done += 1;
    }
    Ok(done)
}

/// Drive `total` requests round-robin across all sessions, at most
/// `active` sessions in flight at a time. Returns the spent wall time.
fn drive(sessions: &mut [Session], options: &Options, total: usize) -> Result<Duration, String> {
    // Per-session remaining budget; round-robin queue of session
    // indices with budget left ensures every session serves requests.
    let mut budget = vec![total / sessions.len(); sessions.len()];
    for slot in budget.iter_mut().take(total % sessions.len()) {
        *slot += 1;
    }
    let mut queue: VecDeque<usize> = (0..sessions.len()).filter(|i| budget[*i] > 0).collect();
    let mut in_flight: Vec<usize> = Vec::with_capacity(options.active);
    let mut completed = 0usize;
    let started = Instant::now();
    let deadline = started + Duration::from_secs(600);
    let mut fds: Vec<PollFd> = Vec::with_capacity(options.active);
    while completed < total {
        if Instant::now() > deadline {
            return Err(format!(
                "load run timed out: {completed}/{total} responses after 600s"
            ));
        }
        // Admit sessions into the active window.
        while in_flight.len() < options.active {
            let Some(idx) = queue.pop_front() else { break };
            let burst = options.pipeline.min(budget[idx]);
            budget[idx] -= burst;
            enqueue_requests(&mut sessions[idx], &options.query, burst);
            in_flight.push(idx);
        }
        if in_flight.is_empty() {
            return Err(format!(
                "drive stalled: {completed}/{total} responses, no sessions in flight"
            ));
        }
        // Poll only the in-flight sockets: idle keep-alive sessions
        // stay open but cost nothing here.
        fds.clear();
        for &idx in &in_flight {
            let session = &sessions[idx];
            let mut events = POLLIN;
            if session.written < session.write_buf.len() {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(session.stream.as_raw_fd(), events));
        }
        poll_fds(&mut fds, 1000).map_err(|e| format!("poll: {e}"))?;
        let mut finished: Vec<usize> = Vec::new();
        for (slot, &idx) in in_flight.iter().enumerate() {
            let revents = fds[slot].revents;
            if revents & (POLLERR | POLLNVAL) != 0 {
                return Err(format!("session {idx} failed mid-run"));
            }
            let session = &mut sessions[idx];
            if revents & POLLOUT != 0 && session.written < session.write_buf.len() {
                match session.stream.write(&session.write_buf[session.written..]) {
                    Ok(n) => session.written += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("session {idx} write: {e}")),
                }
                if session.written == session.write_buf.len() {
                    session.write_buf.clear();
                    session.written = 0;
                }
            }
            if revents & (POLLIN | POLLHUP) != 0 {
                let mut chunk = [0u8; 16 * 1024];
                loop {
                    match session.stream.read(&mut chunk) {
                        Ok(0) => {
                            return Err(format!(
                                "session {idx} closed by server with {} responses pending",
                                session.awaiting
                            ))
                        }
                        Ok(n) => {
                            session.read_buf.extend_from_slice(&chunk[..n]);
                            if n < chunk.len() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(e) => return Err(format!("session {idx} read: {e}")),
                    }
                }
                completed += harvest(session)?;
            }
            if sessions[idx].awaiting == 0 {
                finished.push(slot);
            }
        }
        // Retire finished sessions (highest slot first so the
        // swap-removes do not shift pending entries).
        for slot in finished.into_iter().rev() {
            let idx = in_flight.swap_remove(slot);
            if budget[idx] > 0 {
                queue.push_back(idx);
            }
        }
    }
    Ok(started.elapsed())
}

/// One blocking GET over a fresh connection (control plane, not timed).
fn control_get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("control connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("control timeout: {e}"))?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nhost: load\r\nconnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("control send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("control read {path}: {e}"))?;
    let (head, body) = frame_response(&raw, true)
        .map_err(|e| format!("control response to {path}: {e}"))?
        .ok_or_else(|| format!("control response to {path} is incomplete"))?;
    if head.status != 200 {
        return Err(format!("control GET {path}: status {}", head.status));
    }
    Ok(String::from_utf8_lossy(&raw[body]).into_owned())
}

/// Parse the cumulative `endpoint="validity"` latency buckets out of the
/// Prometheus exposition and interpolate the p99 in seconds.
fn p99_from_metrics(text: &str) -> Result<f64, String> {
    let mut buckets: Vec<(f64, u64)> = Vec::new();
    for line in text.lines() {
        let Some(rest) = line
            .strip_prefix("ripki_http_request_duration_seconds_bucket{endpoint=\"validity\",le=\"")
        else {
            continue;
        };
        let Some((le, count)) = rest.split_once("\"} ") else {
            continue;
        };
        let le = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse()
                .map_err(|e| format!("bucket bound {le:?}: {e}"))?
        };
        let count: u64 = count
            .trim()
            .parse()
            .map_err(|e| format!("bucket count {count:?}: {e}"))?;
        buckets.push((le, count));
    }
    let total = buckets.last().map(|(_, n)| *n).unwrap_or(0);
    if total == 0 {
        return Err("no validity observations in the server histogram".into());
    }
    let rank = (total as f64 * 0.99).ceil() as u64;
    let mut previous_bound = 0.0f64;
    let mut previous_count = 0u64;
    for (le, count) in buckets {
        if count >= rank {
            if le.is_infinite() {
                // p99 beyond the last finite bucket: report that bound.
                return Ok(previous_bound);
            }
            let in_bucket = (count - previous_count).max(1) as f64;
            let need = (rank - previous_count) as f64;
            return Ok(previous_bound + (le - previous_bound) * need / in_bucket);
        }
        previous_bound = le;
        previous_count = count;
    }
    Ok(previous_bound)
}

/// Pull one u64 field out of the `/status` JSON body without a parser
/// dependency: the value is a bare number after `"<key>":`.
fn status_u64(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)? + needle.len();
    let digits: String = body[at..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn run() -> Result<(), String> {
    let options = parse_options()?;

    eprintln!(
        "establishing {} keep-alive sessions against {} ...",
        options.sessions, options.connect
    );
    let t0 = Instant::now();
    let mut sessions = establish(options.connect, options.sessions)?;
    eprintln!(
        "  {} sessions open in {:.1}s",
        sessions.len(),
        t0.elapsed().as_secs_f64()
    );

    // Server-observed concurrency while the population is at its peak.
    let status = control_get(options.connect, "/status")?;
    let server_open = status_u64(&status, "open_connections")
        .ok_or_else(|| format!("/status body has no open_connections: {status}"))?;
    let admission_window = status_u64(&status, "admission_window")
        .ok_or_else(|| format!("/status body has no admission_window: {status}"))?;
    eprintln!(
        "  server reports open_connections={server_open} admission_window={admission_window}"
    );

    eprintln!(
        "driving {} requests, {} sessions active at a time (pipeline {}) ...",
        options.requests, options.active, options.pipeline
    );
    let elapsed = drive(&mut sessions, &options, options.requests)?;
    let req_per_s = options.requests as f64 / elapsed.as_secs_f64();

    let metrics = control_get(options.connect, "/metrics")?;
    let p99_seconds = p99_from_metrics(&metrics)?;

    println!(
        "\n=== serve_load: event-driven plane under {} sessions ===",
        sessions.len()
    );
    println!(
        "{} requests in {:.2}s -> {req_per_s:.0} req/s",
        options.requests,
        elapsed.as_secs_f64(),
    );
    println!("server-side validity p99 {:.3} ms", p99_seconds * 1e3);

    let mut json = serde_json::Map::new();
    let num = |v: f64| serde_json::to_value(&v).expect("f64 serializes");
    let int = |v: u64| serde_json::to_value(&v).expect("u64 serializes");
    json.insert("bench".into(), "serve_load".into());
    json.insert("concurrent_sessions".into(), int(sessions.len() as u64));
    json.insert("server_open_connections".into(), int(server_open));
    json.insert("requests".into(), int(options.requests as u64));
    json.insert("active_window".into(), int(options.active as u64));
    json.insert("pipeline_depth".into(), int(options.pipeline as u64));
    json.insert("req_per_s".into(), num(req_per_s));
    json.insert("p99_seconds".into(), num(p99_seconds));
    let json = serde_json::Value::Object(json);
    if let Some(parent) = std::path::Path::new(&options.out).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(
        &options.out,
        serde_json::to_string_pretty(&json).expect("report serializes") + "\n",
    )
    .map_err(|e| format!("write {}: {e}", options.out))?;
    println!("wrote {}", options.out);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("serve_load: {message}");
            ExitCode::from(2)
        }
    }
}
