//! The tentpole demo: a multi-process VRP distribution chain.
//!
//! Process 1 runs an engine-rooted fabric (local validator → RTR +
//! JSON targets). Process 2 runs a relay fabric that ingests process 1
//! over *both* transports (RTR client unit + conditional JSON poller),
//! fails over between them with `any`, and re-serves RTR. The test then
//! acts as the router at the end of the chain and proves the deployment
//! story end to end:
//!
//! * the VRP set two hops downstream is **byte-identical** to the
//!   engine's, and
//! * every hop's RTR serial is in **lockstep** with the engine's epoch.
#![expect(clippy::disallowed_methods, reason = "R2 exempts test code")]

use std::collections::BTreeSet;
use std::io::BufRead;
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Final epoch the engine publishes: 1 initial + CHURN_EPOCHS churn.
const CHURN_EPOCHS: u64 = 3;
const FINAL_EPOCH: u64 = 1 + CHURN_EPOCHS;
const DEADLINE: Duration = Duration::from_secs(60);

/// A spawned `ripki-cli` child whose stdout lines arrive over a
/// channel. Killed on drop so a failing assert never leaks processes.
struct Proxy {
    child: Child,
    lines: mpsc::Receiver<String>,
    /// Every line received so far, in order.
    seen: Vec<String>,
}

impl Proxy {
    fn spawn(config: &std::path::Path) -> Proxy {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ripki-cli"))
            .args(["proxy", "--config", config.to_str().expect("utf8 path")])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn ripki-cli proxy");
        let stdout = child.stdout.take().expect("piped stdout");
        let (sink, lines) = mpsc::channel();
        std::thread::spawn(move || {
            for line in std::io::BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if sink.send(line).is_err() {
                    break;
                }
            }
        });
        Proxy {
            child,
            lines,
            seen: Vec::new(),
        }
    }

    /// Wait until some stdout line satisfies `pred`.
    fn wait_for_line<F: Fn(&str) -> bool>(&mut self, what: &str, pred: F) -> String {
        if let Some(line) = self.seen.iter().find(|l| pred(l)) {
            return line.clone();
        }
        let deadline = Instant::now() + DEADLINE;
        // A timeout and an exited child (the sender is gone) both fail.
        while let Ok(line) = self
            .lines
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
        {
            self.seen.push(line.clone());
            if pred(&line) {
                return line;
            }
        }
        panic!(
            "timed out waiting for {what}; stdout so far:\n{}",
            self.seen.join("\n")
        );
    }

    /// The `host:port` a named target logged at startup.
    fn target_addr(&mut self, target: &str) -> String {
        let needle = format!("target {target} ");
        let line = self.wait_for_line(&format!("{target} listening"), |l| {
            l.contains(&needle) && l.contains("listening on ")
        });
        line.split("listening on ")
            .nth(1)
            .expect("address after 'listening on'")
            .trim()
            .to_string()
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Sync one RTR client against `addr` until it reports `epoch`,
/// waiting for the cache's Serial Notify between syncs. A cache without
/// data yet answers with an Error Report; its first install is pushed
/// as a notify too. The read timeout bounds each wait.
fn sync_until_epoch(addr: &str, epoch: u64) -> ripki_payload::VrpPayload {
    let stream = TcpStream::connect(addr).expect("connect to the cache");
    stream
        .set_read_timeout(Some(DEADLINE))
        .expect("read timeout");
    let mut client = ripki_rtr::Client::new(stream);
    let mut last = None;
    loop {
        if client.sync().is_ok() {
            if let Some(payload) = client.payload() {
                if payload.epoch() == epoch {
                    return payload;
                }
                last = Some(payload.epoch());
            }
        }
        if !matches!(client.poll_notify(), Ok(Some(_))) {
            panic!("cache at {addr} never reached epoch {epoch} (last seen: {last:?})");
        }
    }
}

#[test]
fn two_hop_chain_stays_byte_identical_and_in_serial_lockstep() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("proxy-chain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // Hop 1: local engine fans out over RTR and JSON-over-HTTP.
    let hop1_config = dir.join("hop1.toml");
    std::fs::write(
        &hop1_config,
        format!(
            "[units.world]\n\
             type = \"engine\"\n\
             domains = 60\n\
             seed = 13\n\
             epochs = {CHURN_EPOCHS}\n\
             interval-ms = 300\n\
             \n\
             [targets.cache]\n\
             type = \"rtr\"\n\
             listen = \"127.0.0.1:0\"\n\
             unit = \"world\"\n\
             \n\
             [targets.export]\n\
             type = \"http\"\n\
             listen = \"127.0.0.1:0\"\n\
             unit = \"world\"\n"
        ),
    )
    .expect("write hop1 config");
    let mut hop1 = Proxy::spawn(&hop1_config);
    let hop1_rtr = hop1.target_addr("cache");
    let hop1_http = hop1.target_addr("export");

    // Hop 2: ingest hop 1 over both transports, fail over with `any`,
    // re-serve RTR. The epochs agree (same origin), so `any` forwards
    // whichever transport delivers first.
    let hop2_config = dir.join("hop2.toml");
    std::fs::write(
        &hop2_config,
        format!(
            "[units.rtr-up]\n\
             type = \"rtr\"\n\
             connect = \"{hop1_rtr}\"\n\
             poll-ms = 50\n\
             \n\
             [units.json-up]\n\
             type = \"json\"\n\
             url = \"http://{hop1_http}/vrps.json\"\n\
             poll-ms = 100\n\
             \n\
             [units.feed]\n\
             type = \"any\"\n\
             sources = [\"rtr-up\", \"json-up\"]\n\
             \n\
             [targets.relay]\n\
             type = \"rtr\"\n\
             listen = \"127.0.0.1:0\"\n\
             unit = \"feed\"\n"
        ),
    )
    .expect("write hop2 config");
    let mut hop2 = Proxy::spawn(&hop2_config);
    let hop2_rtr = hop2.target_addr("relay");

    // The router at the end of the chain reaches the engine's final
    // epoch...
    let end_of_chain = sync_until_epoch(&hop2_rtr, FINAL_EPOCH);
    // ...and the set it holds is byte-identical to what hop 1 serves.
    let origin = sync_until_epoch(&hop1_rtr, FINAL_EPOCH);
    assert_eq!(
        end_of_chain, origin,
        "two hops downstream must serve the origin's exact VRP set"
    );
    assert_eq!(end_of_chain.digest(), origin.digest());
    assert!(
        !end_of_chain.is_empty(),
        "a world with 60 domains must produce VRPs"
    );
    let vrps: BTreeSet<_> = end_of_chain.vrps().iter().copied().collect();
    assert_eq!(vrps.len(), end_of_chain.len());

    // Serial lockstep, as logged by each hop's RTR target: the cache
    // serial equals the engine epoch at both hops.
    let lockstep = format!("serial {FINAL_EPOCH} in lockstep with epoch {FINAL_EPOCH} ");
    hop1.wait_for_line("hop1 lockstep log", |l| {
        l.contains("target cache (rtr):") && l.contains(&lockstep)
    });
    hop2.wait_for_line("hop2 lockstep log", |l| {
        l.contains("target relay (rtr):") && l.contains(&lockstep)
    });

    // rtr-probe (the operator's view) agrees with the in-test client.
    let probe = Command::new(env!("CARGO_BIN_EXE_ripki-cli"))
        .args(["rtr-probe", "--connect", &hop2_rtr])
        .output()
        .expect("run rtr-probe");
    assert!(probe.status.success(), "rtr-probe failed: {probe:?}");
    let text = String::from_utf8(probe.stdout).expect("utf8 probe output");
    assert!(
        text.contains(&format!("serial {FINAL_EPOCH} in lockstep with {origin}")),
        "probe output out of lockstep: {text}"
    );

    drop(hop2);
    drop(hop1);
    let _ = std::fs::remove_dir_all(&dir);
}
