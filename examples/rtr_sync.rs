//! End-to-end RTR over real TCP on localhost: validate the scenario's
//! RPKI, serve the VRPs from an RFC 6810 cache, let a router client
//! synchronize (full load, then an incremental delta after the next
//! validation run), and use the synced set for origin validation.
//!
//! ```sh
//! cargo run --release --example rtr_sync
//! ```

#![allow(clippy::print_stdout)]

use ripki_repro::ripki_bgp::rov::RpkiState;
use ripki_repro::ripki_rpki::{faults, validate};
use ripki_repro::ripki_rtr::{CacheServer, Client, ListenerConfig, RtrListener, SyncOutcome};
use ripki_repro::ripki_websim::{Scenario, ScenarioConfig};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

fn main() {
    println!("building ecosystem and validating the RPKI…");
    let mut scenario = Scenario::build(ScenarioConfig::with_domains(10_000));
    let report = validate(&scenario.repository, scenario.now);
    println!(
        "validation run #1: {} VRPs ({} objects accepted)",
        report.vrps.len(),
        report.accepted_count()
    );

    // The cache loads run #1 and listens on localhost.
    let cache = Arc::new(CacheServer::new(0x1715));
    cache.update(report.vrps.iter().copied());
    let bound = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    let listener = RtrListener::spawn(bound, cache.clone(), ListenerConfig::default())
        .expect("start the RTR session loop");
    let addr = listener.addr();
    println!(
        "RTR cache listening on {addr} (session {:#06x})",
        cache.session_id()
    );

    // A router connects and performs its initial Reset Query.
    let mut router = Client::new(TcpStream::connect(addr).expect("connect"));
    match router.sync().expect("initial sync") {
        SyncOutcome::Updated {
            serial,
            announced,
            withdrawn,
        } => println!(
            "router synced: serial {serial}, +{announced} −{withdrawn} ({} VRPs held)",
            router.vrps().len()
        ),
    }

    // The router can now do RFC 6811 with what it fetched.
    let validator = router.to_validator();
    let sample = router.vrps().iter().next().expect("at least one VRP");
    println!(
        "spot check: {} from {} validates {}",
        sample.prefix,
        sample.asn,
        validator.validate(&sample.prefix, sample.asn)
    );
    println!(
        "           {} from AS4199999999 validates {}",
        sample.prefix,
        validator.validate(
            &sample.prefix,
            ripki_repro::ripki_net::Asn::new(4_199_999_999)
        )
    );

    // Time passes; a CA's publication point breaks; the next validation
    // run loses its VRPs and the cache serial bumps.
    let victim_ca = faults::publication_points(&scenario.repository)
        .into_iter()
        .find(|ca| !scenario.repository.points[ca].roas.is_empty())
        .expect("a CA with ROAs");
    let lost = scenario.repository.points[&victim_ca].roas.len();
    faults::stale_crl(&mut scenario.repository, victim_ca);
    let report2 = validate(&scenario.repository, scenario.now);
    println!(
        "\nvalidation run #2 after a CA's CRL went stale: {} VRPs (lost ≈{lost})",
        report2.vrps.len()
    );
    cache.update(report2.vrps.iter().copied());

    // The router picks up the *delta* with a Serial Query.
    match router.sync().expect("incremental sync") {
        SyncOutcome::Updated {
            serial,
            announced,
            withdrawn,
        } => println!(
            "router delta sync: serial {serial}, +{announced} −{withdrawn} ({} VRPs held)",
            router.vrps().len()
        ),
    }
    assert_eq!(router.vrps().len(), report2.vrps.len());

    // The lost ROAs' routes degrade from Valid to NotFound at the router.
    let validator2 = router.to_validator();
    let gone = report
        .vrps
        .iter()
        .find(|v| !report2.vrps.contains(v))
        .expect("something was lost");
    println!(
        "\nroute {} from {}: was {}, now {}",
        gone.prefix,
        gone.asn,
        RpkiState::Valid,
        validator2.validate(&gone.prefix, gone.asn)
    );
    println!("— a stale CRL silently downgrades protection, router-side.");
}
