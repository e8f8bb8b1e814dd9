//! Integration: the attacker model (§2.3) on the *measured* world — the
//! same VRPs the pipeline validated drive ROV in the hijack simulation,
//! and the scenario's real topology is the battlefield.

use ripki_repro::ripki::engine::{StudyEngine, WorldSnapshot};
use ripki_repro::ripki_bgp::hijack::{run, HijackScenario};
use ripki_repro::ripki_bgp::rov::RpkiState;
use ripki_repro::ripki_net::Asn;
use ripki_repro::ripki_websim::{Scenario, ScenarioConfig};
use std::collections::BTreeSet;
use std::sync::Arc;

fn build() -> (
    Scenario,
    ripki_repro::ripki::pipeline::StudyResults,
    Arc<WorldSnapshot>,
) {
    let scenario = Scenario::build(ScenarioConfig::with_domains(10_000));
    let snapshot = StudyEngine::for_scenario(&scenario, 0).snapshot();
    let results = snapshot.run(&scenario.ranking);
    (scenario, results, snapshot)
}

#[test]
fn measured_valid_prefix_is_defendable() {
    let (scenario, results, snapshot) = build();
    // Find a domain the pipeline measured as fully Valid.
    let victim_domain = results
        .domains
        .iter()
        .find(|d| {
            !d.bare.pairs.is_empty() && d.bare.pairs.iter().all(|p| p.state == RpkiState::Valid)
        })
        .expect("some domain is fully valid at this scale");
    let pair = victim_domain.bare.pairs[0];
    assert_eq!(
        snapshot.validator().validate(&pair.prefix, pair.origin),
        RpkiState::Valid
    );

    // The announcing AS defends its prefix against a stub attacker.
    let victim_as = pair.origin;
    assert!(
        scenario.topology.contains(victim_as),
        "victim AS in topology"
    );
    let attacker = scenario
        .topology
        .asns()
        .find(|a| *a != victim_as && scenario.topology.node(*a).unwrap().is_stub())
        .expect("an attacker stub exists");
    let attack = HijackScenario::origin_hijack(victim_as, attacker, pair.prefix);

    // Without ROV: some capture.
    let none = run(
        &scenario.topology,
        &attack,
        snapshot.validator(),
        &BTreeSet::new(),
    );
    // With universal ROV over the *measured* VRPs: zero capture.
    let everyone: BTreeSet<Asn> = scenario.topology.asns().collect();
    let full = run(&scenario.topology, &attack, snapshot.validator(), &everyone);
    assert_eq!(full.capture_rate(), 0.0, "ROA-covered prefix defended");
    assert!(none.capture_rate() >= full.capture_rate());
}

#[test]
fn unprotected_prefix_stays_hijackable_even_with_rov() {
    let (scenario, results, snapshot) = build();
    // Find a NotFound-only domain: the common case the paper worries
    // about.
    let victim_domain = results
        .domains
        .iter()
        .find(|d| {
            !d.bare.pairs.is_empty() && d.bare.pairs.iter().all(|p| p.state == RpkiState::NotFound)
        })
        .expect("most domains are uncovered");
    let pair = victim_domain.bare.pairs[0];
    let victim_as = pair.origin;
    let attacker = scenario
        .topology
        .asns()
        .find(|a| *a != victim_as && scenario.topology.node(*a).unwrap().is_stub())
        .unwrap();
    let attack = HijackScenario::origin_hijack(victim_as, attacker, pair.prefix);
    let everyone: BTreeSet<Asn> = scenario.topology.asns().collect();
    let out = run(&scenario.topology, &attack, snapshot.validator(), &everyone);
    // ROV filters Invalid only; NotFound passes — the attack succeeds
    // against someone.
    assert!(
        out.capture_rate() > 0.0,
        "no ROA ⇒ ROV cannot help: capture {}",
        out.capture_rate()
    );
}
