//! Integration: the whole delivery chain of step 4 — repository →
//! cryptographic validation → RTR cache → router client — yields a
//! router-side validator that agrees exactly with the pipeline's own.

use ripki_repro::ripki::engine::StudyEngine;
use ripki_repro::ripki_rpki::validate;
use ripki_repro::ripki_rtr::{CacheServer, Client};
use ripki_repro::ripki_websim::{Scenario, ScenarioConfig};
use std::os::unix::net::UnixStream;
use std::sync::Arc;

#[test]
fn router_via_rtr_agrees_with_pipeline_validator() {
    let scenario = Scenario::build(ScenarioConfig::with_domains(5_000));
    let report = validate(&scenario.repository, scenario.now);
    assert!(!report.vrps.is_empty());

    // Serve the validated VRPs over RTR.
    let cache = Arc::new(CacheServer::new(42));
    cache.update(report.vrps.iter().copied());
    let (a, b) = UnixStream::pair().unwrap();
    let server = cache.clone();
    let handle = std::thread::spawn(move || {
        let _ = server.serve_connection(b);
    });
    let mut router = Client::new(a);
    router.sync().unwrap();
    assert_eq!(router.vrps().len(), report.vrps.len());
    let router_validator = router.to_validator();

    // The pipeline's internal validator and the router's RTR-fed one
    // classify every measured pair identically.
    let engine = StudyEngine::for_scenario(&scenario, 0);
    let results = engine.run(&scenario.ranking);
    let mut pairs_checked = 0usize;
    for d in &results.domains {
        for pair in d.bare.pairs.iter().chain(d.www.pairs.iter()) {
            let via_rtr = router_validator.validate(&pair.prefix, pair.origin);
            assert_eq!(via_rtr, pair.state, "disagreement on {pair:?}");
            pairs_checked += 1;
        }
    }
    assert!(pairs_checked > 1_000, "checked {pairs_checked} pairs");
    drop(router);
    let _ = handle.join();
}
