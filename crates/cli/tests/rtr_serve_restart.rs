//! A restarted `ripki-cli rtr-serve` is a new cache: it draws a new RTR
//! session id, so a router that reconnects with the serial it held
//! before is told to flush it (RFC 6810 §5.1) instead of keeping the
//! old set as current, or having the new run's deltas applied on top.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

extern "C" {
    fn kill(pid: i32, signal: i32) -> i32;
}
const SIGTERM: i32 = 15;

/// Generate a 300-domain world from `seed` into a fresh directory.
fn world(seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ripki-rtr-serve-restart-{}-{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let args = [
        "generate",
        "--out",
        dir.to_str().unwrap(),
        "--domains",
        "300",
        "--seed",
        &seed.to_string(),
    ];
    ripki_cli::run(&args.map(String::from), &mut Vec::new()).expect("generate a world");
    dir
}

/// A running `rtr-serve` and the read end of its stdout; killed if the
/// test fails before it is stopped.
struct Served(Child, BufReader<ChildStdout>);

impl Served {
    /// SIGTERM, then a clean exit.
    fn stop(mut self) {
        // SAFETY: `kill(2)` on our own child's pid with a valid signal.
        assert_eq!(unsafe { kill(self.0.id() as i32, SIGTERM) }, 0);
        let mut rest = String::new();
        self.1.read_to_string(&mut rest).expect("remaining stdout");
        let status = self.0.wait().expect("rtr-serve exits");
        assert!(status.success(), "exit {status:?}; stdout: {rest}");
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `rtr-serve` over `dir`; returns the process and its address.
fn rtr_serve(dir: &Path) -> (Served, String) {
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
    (Served(child, stdout), addr.to_string())
}

fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to the cache");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

#[test]
fn a_router_reconnecting_to_a_restarted_rtr_serve_holds_the_new_set() {
    let (first, second) = (world(7), world(8));

    let (cache, addr) = rtr_serve(&first);
    let mut router = ripki_rtr::Client::new(connect(&addr));
    router.sync().expect("reset sync of the first run");
    let old = router.vrps().clone();
    cache.stop();

    // The cache comes back over another world, at the same serial.
    let (cache, addr) = rtr_serve(&second);
    router.reconnect(connect(&addr));
    // The router's Serial Query names the old session: the cache
    // answers Corrupt Data, the router flushes, and reloads.
    if router.sync().is_err() {
        router.sync().expect("reset sync after the flush");
    }
    let mut fresh = ripki_rtr::Client::new(connect(&addr));
    fresh.sync().expect("a fresh router's reset sync");
    assert_ne!(fresh.vrps(), &old, "the two worlds serve different sets");
    assert_eq!(
        router.vrps(),
        fresh.vrps(),
        "the router holds the new run's set"
    );
    cache.stop();
    let _ = std::fs::remove_dir_all(first);
    let _ = std::fs::remove_dir_all(second);
}
