//! `ripki-cli serve` under SIGTERM while it is still applying churn
//! epochs: the handlers must be in place before the first epoch, so the
//! process leaves the loop, drains the HTTP plane and exits 0 — not die
//! in the default signal disposition with a request in flight.

#![cfg(unix)]

use ripki_serve::http::frame_response;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

extern "C" {
    fn kill(pid: i32, signal: i32) -> i32;
}
const SIGTERM: i32 = 15;

/// Read one response off a keep-alive connection, framed by the
/// serving plane's own decoder and consuming exactly its bytes; returns
/// its head.
fn read_response(stream: &mut impl BufRead) -> String {
    let mut raw = Vec::new();
    loop {
        let chunk = stream.fill_buf().expect("response");
        let (eof, seen) = (chunk.is_empty(), raw.len());
        raw.extend_from_slice(chunk);
        let framed = frame_response(&raw, eof).expect("a well-formed response");
        let end = framed.as_ref().map_or(raw.len(), |(_, body)| body.end);
        stream.consume(end - seen);
        if let Some((_, body)) = framed {
            return String::from_utf8_lossy(&raw[..body.start]).into_owned();
        }
    }
}

#[test]
fn sigterm_during_churn_drains_and_exits_cleanly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ripki-cli"))
        .args(["serve", "--domains", "200", "--seed", "3"])
        .args(["--listen", "127.0.0.1:0"])
        .args(["--epochs", "1000", "--epoch-interval-ms", "100"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn ripki-cli serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut seen = String::new();
    while !seen.contains("epoch 2:") {
        let n = stdout.read_line(&mut seen).expect("read child stdout");
        assert!(n > 0, "stdout closed before the first churn epoch:\n{seen}");
    }
    let addr = seen
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("no listen address in {seen:?}"));

    // A keep-alive client that has been answered once and has its next
    // request on the wire when the signal lands.
    let stream = TcpStream::connect(addr).expect("connect to the query plane");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
    let request = b"GET /status HTTP/1.1\r\nhost: t\r\n\r\n";
    (&stream).write_all(request).expect("first request");
    assert!(read_response(&mut reader).starts_with("HTTP/1.1 200"));
    (&stream).write_all(request).expect("second request");

    // SAFETY: `kill(2)` on our own child's pid with a valid signal.
    assert_eq!(unsafe { kill(child.id() as i32, SIGTERM) }, 0);
    let head = read_response(&mut reader);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let status = child.wait().expect("serve exits");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("remaining stdout");
    assert!(status.success(), "exit {status:?}; stdout: {seen}{rest}");
    assert!(rest.contains("draining in-flight requests"), "{rest}");
    assert!(rest.contains("drained; exiting cleanly"), "{rest}");
    assert!(
        !rest.contains("epoch 1000:"),
        "the loop was left mid-churn: {rest}"
    );
    // The connection ended in an orderly close after the answer.
    let mut tail = Vec::new();
    reader.read_to_end(&mut tail).expect("EOF, not a reset");
    assert!(tail.is_empty(), "{} stray bytes", tail.len());
}
