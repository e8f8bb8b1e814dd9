//! Integration: misbehaving authorities vs the measurement pipeline.
//!
//! When a CA's repository breaks (stale CRL, withheld objects, corrupted
//! signatures), the relying party loses exactly that CA's VRPs, and the
//! measured "valid" share of the web drops accordingly — never does a
//! broken repository *create* coverage.

use ripki_repro::ripki::engine::StudyEngine;
use ripki_repro::ripki::figures::fig2_rpki_outcome;
use ripki_repro::ripki_rpki::faults;
use ripki_repro::ripki_websim::{Scenario, ScenarioConfig};

fn valid_share(scenario: &Scenario) -> (f64, usize) {
    let snapshot = StudyEngine::for_scenario(scenario, 0).snapshot();
    let vrps = snapshot.validator().len();
    let results = snapshot.run(&scenario.ranking);
    let fig2 = fig2_rpki_outcome(&results, 1_000);
    (fig2.valid.overall_mean().unwrap_or(0.0), vrps)
}

#[test]
fn breaking_all_publication_points_zeroes_coverage() {
    let mut scenario = Scenario::build(ScenarioConfig::with_domains(6_000));
    let (before, vrps_before) = valid_share(&scenario);
    assert!(before > 0.0 && vrps_before > 0);

    for ca in faults::publication_points(&scenario.repository) {
        faults::stale_crl(&mut scenario.repository, ca);
    }
    let (after, vrps_after) = valid_share(&scenario);
    assert_eq!(vrps_after, 0, "no VRP survives universal CRL staleness");
    assert_eq!(after, 0.0);
}

#[test]
fn corrupting_roa_signatures_only_removes_coverage() {
    let mut scenario = Scenario::build(ScenarioConfig::with_domains(6_000));
    let (before, vrps_before) = valid_share(&scenario);
    for ca in faults::publication_points(&scenario.repository) {
        faults::corrupt_roa_signatures(&mut scenario.repository, ca);
    }
    let (after, vrps_after) = valid_share(&scenario);
    assert!(vrps_after < vrps_before);
    assert!(after <= before);
    assert_eq!(after, 0.0, "all ROAs were corrupted");
}

#[test]
fn unpublishing_one_point_is_contained() {
    let mut scenario = Scenario::build(ScenarioConfig::with_domains(6_000));
    let (_, vrps_before) = valid_share(&scenario);
    // Remove one *non-TA* publication point that actually holds ROAs.
    let candidate = faults::publication_points(&scenario.repository)
        .into_iter()
        .find(|ca| !scenario.repository.points[ca].roas.is_empty())
        .expect("some CA publishes ROAs");
    let removed = scenario.repository.points[&candidate].roas.len();
    faults::unpublish(&mut scenario.repository, candidate);
    let (_, vrps_after) = valid_share(&scenario);
    // Exactly that CA's ROA payloads disappear; everyone else's survive.
    assert!(vrps_after < vrps_before);
    assert!(
        vrps_before - vrps_after <= removed + 4,
        "collateral damage too large: {vrps_before} -> {vrps_after} (removed {removed})"
    );
    assert!(vrps_after > 0, "other CAs unaffected");
}
