//! The proxy `http` target holds its connections on the `ripki-serve`
//! reactor, not on a thread each. Alone in its own test binary so the
//! thread census of the process is exact.

use ripki_payload::{PayloadUpdate, VrpPayload};
use ripki_proxy::targets::start_http_target;
use ripki_proxy::Log;
use ripki_serve::ServerConfig;
use ripki_serve_testutil::{connect, get};
use std::io::{Read, Write};
use std::net::TcpStream;

/// Threads of this process, as the kernel counts them.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line");
    line.trim().parse().expect("thread count")
}

#[test]
#[cfg(target_os = "linux")]
fn idle_keep_alive_connections_cost_no_threads() {
    let (handle, mut install) =
        start_http_target("t", "127.0.0.1:0", &Log::sink(), ServerConfig::default()).expect("bind");
    install(PayloadUpdate::snapshot(VrpPayload::new(1, Vec::new())));

    // 64 clients that each made a request and then sit on their
    // keep-alive connection.
    let before = thread_count();
    let idle: Vec<TcpStream> = (0..64)
        .map(|_| {
            let mut stream = connect(handle.addr);
            stream
                .write_all(b"GET /status HTTP/1.1\r\nhost: t\r\n\r\n")
                .expect("request");
            let mut first = [0u8; 15];
            stream.read_exact(&mut first).expect("response");
            assert_eq!(&first, b"HTTP/1.1 200 OK");
            stream
        })
        .collect();
    assert_eq!(thread_count(), before, "64 held connections, no new thread");

    // A 65th client is answered while they are all still open.
    let reply = get(handle.addr, "/status");
    assert_eq!(reply.status, 200);
    assert_eq!(reply.json()["epoch"].as_u128(), Some(1));
    let metrics = get(handle.addr, "/metrics").body;
    let open = metrics
        .lines()
        .find_map(|l| l.strip_prefix("ripki_http_open_connections "))
        .expect("the plane's own series are exported");
    assert!(
        open.parse::<u64>().expect("gauge") >= 64,
        "open connections: {open}"
    );

    drop(idle);
    drop(handle);
}
