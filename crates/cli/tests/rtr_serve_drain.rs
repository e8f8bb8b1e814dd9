//! `ripki-cli rtr-serve` under SIGTERM: the process must close its
//! router sessions through `RtrListener::shutdown` and exit 0, not die
//! in the default signal disposition with a session open.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

extern "C" {
    fn kill(pid: i32, signal: i32) -> i32;
}
const SIGTERM: i32 = 15;

#[test]
fn sigterm_closes_router_sessions_and_exits_cleanly() {
    let dir = std::env::temp_dir().join(format!("ripki-rtr-serve-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let args = [
        "generate",
        "--out",
        dir.to_str().unwrap(),
        "--domains",
        "300",
    ];
    ripki_cli::run(&args.map(String::from), &mut Vec::new()).expect("generate a world");

    let mut child = Command::new(env!("CARGO_BIN_EXE_ripki-cli"))
        .args(["rtr-serve", "--data", dir.to_str().unwrap()])
        .args(["--listen", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn ripki-cli rtr-serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("startup line");
    let addr = banner
        .split(" on ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("no listen address in {banner:?}"));

    // A router that has synced and stays connected.
    let stream = TcpStream::connect(addr).expect("connect to the cache");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut router = ripki_rtr::Client::new(stream.try_clone().expect("clone socket"));
    router.sync().expect("reset sync");

    // SAFETY: `kill(2)` on our own child's pid with a valid signal.
    assert_eq!(unsafe { kill(child.id() as i32, SIGTERM) }, 0);
    let status = child.wait().expect("rtr-serve exits");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("remaining stdout");
    assert!(status.success(), "exit {status:?}; stdout: {rest}");
    assert!(
        rest.contains("closed 1 router sessions; exiting cleanly"),
        "{rest}"
    );
    // The session ended in an orderly close, with nothing half-written.
    let mut tail = Vec::new();
    (&stream).read_to_end(&mut tail).expect("EOF, not a reset");
    assert!(tail.is_empty(), "{} stray bytes", tail.len());
    let _ = std::fs::remove_dir_all(&dir);
}
