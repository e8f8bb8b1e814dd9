//! Integration: topology/table coherence. Rebuilding the BGP table with
//! AS paths from actual policy routing changes the paths but not a
//! single measurement — and the rebuilt paths are genuine routes of the
//! scenario topology.

use ripki_repro::ripki::engine::StudyEngine;
use ripki_repro::ripki::pipeline::PipelineConfig;
use ripki_repro::ripki_bgp::topology::Relationship;
use ripki_repro::ripki_net::Asn;
use ripki_repro::ripki_websim::scenario::COLLECTOR_PEERS;
use ripki_repro::ripki_websim::{Scenario, ScenarioConfig};

#[test]
fn propagated_paths_preserve_measurements() {
    let scenario = Scenario::build(ScenarioConfig::with_domains(3_000));
    let realistic = scenario.rebuild_rib_with_propagated_paths();

    let config = PipelineConfig {
        bogus_dns_ppm: 0,
        now: scenario.now,
        threads: 2,
        ..Default::default()
    };
    let synthetic_results = StudyEngine::new(
        scenario.zones.clone(),
        scenario.rib.clone(),
        &scenario.repository,
        config.clone(),
    )
    .run(&scenario.ranking);
    let realistic_results = StudyEngine::new(
        scenario.zones.clone(),
        realistic.clone(),
        &scenario.repository,
        config,
    )
    .run(&scenario.ranking);

    // Pair-for-pair identical measurements: prefixes, origins, states.
    for (a, b) in synthetic_results
        .domains
        .iter()
        .zip(&realistic_results.domains)
    {
        let mut pa = a.bare.pairs.clone();
        let mut pb = b.bare.pairs.clone();
        pa.sort_by_key(|p| (p.prefix, p.origin));
        pb.sort_by_key(|p| (p.prefix, p.origin));
        assert_eq!(pa, pb, "rank {}", a.rank);
    }
}

#[test]
fn propagated_paths_are_real_topology_walks() {
    let scenario = Scenario::build(ScenarioConfig::with_domains(2_000));
    let realistic = scenario.rebuild_rib_with_propagated_paths();
    let peers: Vec<Asn> = COLLECTOR_PEERS.iter().map(|p| Asn::new(*p)).collect();

    let mut checked = 0usize;
    for entry in realistic.iter().take(2_000) {
        let Some(_) = entry.path.origin().asn() else {
            continue;
        };
        assert!(peers.contains(&entry.peer));
        // Every consecutive hop pair is an actual topology edge, starting
        // from the peer itself.
        let hops: Vec<Asn> = std::iter::once(entry.peer)
            .chain(entry.path.segments().iter().flat_map(|s| match s {
                ripki_repro::ripki_bgp::path::Segment::Sequence(v) => v.clone(),
                ripki_repro::ripki_bgp::path::Segment::Set(v) => v.clone(),
            }))
            .collect();
        for w in hops.windows(2) {
            let rel = scenario.topology.relationship(w[0], w[1]);
            assert!(
                matches!(
                    rel,
                    Some(Relationship::Provider)
                        | Some(Relationship::Customer)
                        | Some(Relationship::Peer)
                ),
                "hop AS{}→AS{} is not a topology edge",
                w[0].value(),
                w[1].value()
            );
        }
        checked += 1;
    }
    assert!(checked > 500, "checked only {checked} entries");
}

#[test]
fn path_lengths_become_realistic() {
    // Synthetic paths are exactly 2 hops; propagated ones vary.
    let scenario = Scenario::build(ScenarioConfig::with_domains(2_000));
    let realistic = scenario.rebuild_rib_with_propagated_paths();
    let lengths: std::collections::BTreeSet<usize> = realistic
        .iter()
        .filter(|e| e.path.origin().asn().is_some())
        .map(|e| e.path.hop_count())
        .collect();
    assert!(
        lengths.len() > 1,
        "propagated paths should vary in length, got {lengths:?}"
    );
    assert!(*lengths.iter().max().unwrap() >= 3);
}
