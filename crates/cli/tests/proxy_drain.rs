//! `ripki-cli proxy` under SIGTERM: an `rtr`-rooted fabric never drains
//! on its own, so the process must wait for the signal, stop through
//! `Manager::shutdown` (units joined, the `rtr` target's sessions closed
//! in order) and exit 0 — not die in the default signal disposition with
//! a router session open.

#![cfg(unix)]

use ripki_bgp::rov::VrpTriple;
use ripki_net::Asn;
use std::io::{BufRead, BufReader, Read};
use std::net::{TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

extern "C" {
    fn kill(pid: i32, signal: i32) -> i32;
}
const SIGTERM: i32 = 15;

/// Read the child's stdout until every needle has appeared; returns the
/// lines read.
fn read_until_all(stdout: &mut impl BufRead, needles: &[&str]) -> String {
    let mut seen = String::new();
    while !needles.iter().all(|n| seen.contains(n)) {
        let n = stdout.read_line(&mut seen).expect("read child stdout");
        assert!(n > 0, "stdout closed before {needles:?}; saw:\n{seen}");
    }
    seen
}

#[test]
fn sigterm_stops_an_rtr_rooted_hop_and_exits_cleanly() {
    // The upstream cache the hop ingests from.
    let upstream = Arc::new(ripki_rtr::CacheServer::new(0x0dad));
    upstream.update([VrpTriple {
        prefix: "85.201.0.0/16".parse().expect("prefix"),
        max_length: 16,
        asn: Asn::new(64_500),
    }]);
    let mut upstream_listener = ripki_rtr::RtrListener::spawn(
        TcpListener::bind("127.0.0.1:0").expect("bind upstream"),
        Arc::clone(&upstream),
        ripki_rtr::ListenerConfig::default(),
    )
    .expect("spawn upstream listener");

    let config = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("proxy-drain-{}.toml", std::process::id()));
    std::fs::write(
        &config,
        format!(
            "[units.up]\n\
             type = \"rtr\"\n\
             connect = \"{}\"\n\
             poll-ms = 50\n\
             \n\
             [targets.relay]\n\
             type = \"rtr\"\n\
             listen = \"127.0.0.1:0\"\n\
             unit = \"up\"\n",
            upstream_listener.addr()
        ),
    )
    .expect("write hop config");

    let mut child = Command::new(env!("CARGO_BIN_EXE_ripki-cli"))
        .args(["proxy", "--config", config.to_str().expect("utf8 path")])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn ripki-cli proxy");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    // The relay holds the upstream's set. By then the command is long in
    // its signal wait: the fabric only starts syncing after
    // `Manager::from_toml` has returned to it.
    const LISTENING: &str = "target relay (rtr): listening on ";
    let startup = read_until_all(&mut stdout, &[LISTENING, "target relay (rtr): serial "]);
    let addr = startup
        .split(LISTENING)
        .nth(1)
        .and_then(|rest| rest.lines().next())
        .expect("address after 'listening on'")
        .trim();

    // A router that has synced and stays connected.
    let stream = TcpStream::connect(addr).expect("connect to the relay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut router = ripki_rtr::Client::new(stream.try_clone().expect("clone socket"));
    router.sync().expect("reset sync");
    assert_eq!(router.vrps().len(), 1);

    // SAFETY: `kill(2)` on our own child's pid with a valid signal.
    assert_eq!(unsafe { kill(child.id() as i32, SIGTERM) }, 0);
    let status = child.wait().expect("proxy exits");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("remaining stdout");
    assert!(status.success(), "exit {status:?}; stdout: {rest}");
    assert!(rest.contains("fabric stopped; exiting cleanly"), "{rest}");
    // The session ended in an orderly close, with nothing half-written.
    let mut tail = Vec::new();
    (&stream).read_to_end(&mut tail).expect("EOF, not a reset");
    assert!(tail.is_empty(), "{} stray bytes", tail.len());

    upstream_listener.shutdown();
    let _ = std::fs::remove_file(&config);
}
