//! A proxy hop's pure stages run on the thread that published: the
//! benchmark's hop shape (`rtr` → `slurm` → `any` → `rtr` target) costs
//! three threads — the `rtr` unit, the SLURM file watch, the edge's
//! session loop — and still carries the origin's set to a router. Alone
//! in its own test binary so the thread census of the process is exact.
#![expect(clippy::disallowed_methods, reason = "R2 exempts test code")]

use ripki_net::Asn;
use ripki_payload::{VrpPayload, VrpTriple};
use ripki_proxy::{Log, Manager};
use ripki_rtr::{CacheServer, Client, ClientError, ListenerConfig, RtrListener};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Threads of this process, as the kernel counts them.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line");
    line.trim().parse().expect("thread count")
}

fn vrp(prefix: &str, asn: u32) -> VrpTriple {
    VrpTriple {
        prefix: prefix.parse().expect("prefix"),
        max_length: 24,
        asn: Asn::new(asn),
    }
}

#[test]
#[cfg(target_os = "linux")]
fn a_hop_adds_three_threads_and_carries_the_origin_to_a_router() {
    let origin = Arc::new(CacheServer::new(7));
    origin.install_payload(&VrpPayload::new(
        1,
        [vrp("10.0.0.0/24", 1), vrp("10.1.0.0/24", 2)],
    ));
    let mut origin_listener = RtrListener::spawn(
        TcpListener::bind("127.0.0.1:0").expect("bind origin"),
        Arc::clone(&origin),
        ListenerConfig::default(),
    )
    .expect("origin listener");
    let slurm = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("fabric-threads-{}.json", std::process::id()));
    std::fs::write(&slurm, r#"{ "slurmVersion": 1 }"#).expect("write slurm file");
    let toml = format!(
        "[units.up]\ntype = \"rtr\"\nconnect = \"{}\"\n\n\
         [units.local]\ntype = \"slurm\"\nfile = \"{}\"\nsource = \"up\"\n\n\
         [units.relay]\ntype = \"any\"\nsources = [\"local\"]\n\n\
         [targets.edge]\ntype = \"rtr\"\nlisten = \"127.0.0.1:0\"\nunit = \"relay\"\n",
        origin_listener.addr(),
        slurm.display(),
    );

    let before = thread_count();
    let manager = Manager::from_toml(&toml, &Log::sink()).expect("start the hop");
    let hop_threads = || thread_count() - before;
    assert!(hop_threads() <= 3, "the hop runs {} threads", hop_threads());

    // A router behind the hop; the edge answers "no data" until the
    // first payload has crossed.
    let (_, edge) = manager.target_addrs().remove(0);
    let stream = TcpStream::connect(edge).expect("connect to the edge");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut router = Client::new(stream);
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut follow_to = |serial: u32| loop {
        assert!(Instant::now() < deadline, "router never reached {serial}");
        match router.sync() {
            Ok(_) if router.state().map(|(_, held)| held) == Some(serial) => {
                break router.payload().expect("a synced router holds a payload");
            }
            // Not there yet: wait for the edge's next Serial Notify.
            Ok(_) => drop(router.poll_notify().expect("wait for a notify")),
            Err(ClientError::CacheError { .. }) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => panic!("router sync: {e}"),
        }
    };
    assert_eq!(follow_to(1), origin.payload().expect("origin payload"));

    assert!(origin.apply_delta(2, &[vrp("10.2.0.0/24", 3)], &[vrp("10.0.0.0/24", 1)]));
    let held = follow_to(2);
    let served = origin.payload().expect("origin payload");
    assert_eq!(held.digest(), served.digest());
    assert_eq!(held, served);
    assert!(hop_threads() <= 3, "the hop runs {} threads", hop_threads());

    manager.shutdown();
    origin_listener.shutdown();
    let _ = std::fs::remove_file(slurm);
}
