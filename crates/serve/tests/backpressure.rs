//! Backpressure and shedding behaviour of the event-driven serving
//! plane: slow-loris and write-stall deadlines, ready-queue 503
//! shedding with clean keep-alive teardown (the PR 3/9 regression:
//! sheds must never poison a pipelining client with an RST), and
//! graceful-drain shutdown.

use ripki_serve::ServerConfig;
use ripki_serve_testutil::{
    parse_response, read_to_eof_no_reset, serve_scenario_config, split_responses,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[test]
fn slow_loris_partial_head_gets_408_and_counts() {
    let fixture = serve_scenario_config(
        20,
        7,
        ServerConfig {
            read_deadline: Duration::from_millis(150),
            ..ServerConfig::default()
        },
    );
    let addr = fixture.server.addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // A head that never completes: the deadline must answer 408 and
    // close rather than hold the connection (or hang the test).
    stream.write_all(b"GET /status HTT").unwrap();
    let raw = read_to_eof_no_reset(&mut stream);
    let reply = parse_response(&String::from_utf8_lossy(&raw));
    assert_eq!(reply.status, 408, "slow-loris must be answered 408");
    assert_eq!(reply.header("connection"), Some("close"));
    assert!(
        fixture.server.metrics().read_timeouts() >= 1,
        "the read-deadline counter must record the kill"
    );
}

#[test]
fn stalled_writer_is_dropped_and_counted() {
    let fixture = serve_scenario_config(
        20,
        7,
        ServerConfig {
            write_stall_timeout: Duration::from_millis(300),
            // Tiny kernel send buffer so the stall is observable without
            // megabytes of queued responses.
            send_buffer_bytes: Some(4096),
            pipeline_depth: 16,
            max_requests_per_connection: 4096,
            ..ServerConfig::default()
        },
    );
    let addr = fixture.server.addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    // Pipeline enough /metrics responses (~10 KiB each) to overrun the
    // shrunken send buffer plus the peer's receive window, then never
    // read: the server must drop the stalled connection, not wait.
    let burst: String = (0..96)
        .map(|_| "GET /metrics HTTP/1.1\r\nhost: t\r\n\r\n")
        .collect();
    stream.write_all(burst.as_bytes()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while fixture.server.metrics().write_stall_timeouts() == 0 {
        assert!(
            Instant::now() < deadline,
            "write stall was never detected; counter stayed 0"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    drop(stream);
}

#[test]
fn overload_sheds_with_close_framing_not_resets() {
    // One worker, a one-slot admission ceiling, and a one-deep ready
    // queue: simultaneous bursts from many pipelining clients must shed
    // with well-formed close-framed 503s.
    let fixture = serve_scenario_config(
        20,
        7,
        ServerConfig {
            workers: 1,
            admission_min: 1,
            admission_max: 1,
            queue_depth: 1,
            pipeline_depth: 4,
            ..ServerConfig::default()
        },
    );
    let addr = fixture.server.addr();
    const CONNS: usize = 16;
    // Connect everyone first so the bursts land together.
    let mut streams: Vec<TcpStream> = (0..CONNS)
        .map(|_| {
            let s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            s
        })
        .collect();
    // Each connection pipelines four requests; the first carries a body
    // — the original bug dropped shed connections without draining it,
    // so the kernel answered the unread bytes with RST and destroyed
    // the buffered 503 mid-pipeline.
    let body = "x".repeat(100);
    let burst = format!(
        "GET /status HTTP/1.1\r\nhost: t\r\ncontent-length: 100\r\n\r\n{body}\
         GET /status HTTP/1.1\r\nhost: t\r\n\r\n\
         GET /status HTTP/1.1\r\nhost: t\r\n\r\n\
         GET /status HTTP/1.1\r\nhost: t\r\n\r\n"
    );
    for stream in &mut streams {
        stream.write_all(burst.as_bytes()).unwrap();
    }
    let mut ok = 0usize;
    let mut shed = 0usize;
    for stream in &mut streams {
        let raw = read_to_eof_no_reset(stream);
        let replies = split_responses(&raw);
        assert!(
            !replies.is_empty(),
            "every connection must receive at least one well-formed response"
        );
        for reply in &replies {
            match reply.status {
                200 => ok += 1,
                503 => {
                    shed += 1;
                    assert_eq!(
                        reply.header("connection"),
                        Some("close"),
                        "sheds must advertise the close"
                    );
                }
                other => panic!("unexpected status {other}"),
            }
        }
        // A 503, if present, is the connection's final response.
        if let Some(pos) = replies.iter().position(|r| r.status == 503) {
            assert_eq!(pos, replies.len() - 1, "shed must close the connection");
        }
    }
    assert!(ok > 0, "some requests must still be served under overload");
    assert!(
        shed > 0,
        "the one-deep ready queue must shed at least one request"
    );
    let text = fixture.server.metrics().render(0, 0);
    assert!(
        text.contains("ripki_http_requests_shed_total")
            && !text.contains("ripki_http_requests_shed_total 0\n"),
        "request-shed counter must be non-zero:\n{text}"
    );
}

#[test]
fn graceful_shutdown_drains_the_in_flight_request() {
    let mut fixture = serve_scenario_config(20, 7, ServerConfig::default());
    let addr = fixture.server.addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(
            b"GET /api/v1/validity?asn=AS65000&prefix=10.0.0.0/24 HTTP/1.1\r\nhost: t\r\n\r\n",
        )
        .unwrap();
    // Let the reactor parse and dispatch, then shut down while the
    // response may still be in flight: drain must deliver it whole.
    std::thread::sleep(Duration::from_millis(100));
    fixture.server.shutdown();
    let raw = read_to_eof_no_reset(&mut stream);
    let replies = split_responses(&raw);
    assert_eq!(replies.len(), 1, "the in-flight request must be answered");
    assert_eq!(replies[0].status, 200);
    assert!(
        replies[0].body.contains("validated_route"),
        "drained response must be complete: {}",
        replies[0].body
    );
}
