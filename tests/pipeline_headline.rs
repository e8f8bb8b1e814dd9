//! Workspace-level integration: the §4 headline numbers keep their shape
//! at a moderate scale, and the table-dump round trip does not change a
//! single measurement (the pipeline is a pure function of its inputs,
//! like re-running the study from archived RIS dumps).

use ripki_repro::ripki::engine::StudyEngine;
use ripki_repro::ripki::pipeline::PipelineConfig;
use ripki_repro::ripki::report::HeadlineStats;
use ripki_repro::ripki_bgp::dump::TableDump;
use ripki_repro::ripki_websim::{Scenario, ScenarioConfig};

#[test]
fn headline_shapes_hold() {
    let (_, results) = ripki_repro::run_default_study(30_000);
    let stats = HeadlineStats::compute(&results);
    assert_eq!(stats.domains, 30_000);
    // The paper gathered ≈1.17 addresses per domain; our popular head is
    // multi-address too. Loose sanity band.
    let per_domain = stats.bare_addresses as f64 / stats.domains as f64;
    assert!(
        (1.0..2.0).contains(&per_domain),
        "addresses per domain {per_domain}"
    );
    // More prefix-AS pairs than addresses (aggregates + specifics +
    // MOAS), like the paper's 1,369,030 pairs over 1,167,086 addresses.
    assert!(stats.www_pairs >= stats.www_addresses);
    assert!(stats.bare_pairs >= stats.bare_addresses);
    let ratio = stats.pairs_per_address();
    assert!((1.0..1.5).contains(&ratio), "pairs per address {ratio}");
    // Noise floors in the right decade.
    assert!(stats.invalid_dns_fraction > 0.0001 && stats.invalid_dns_fraction < 0.003);
    assert!(stats.unreachable_fraction < 0.003);
    // Service names (CDN-internal hosts) have no www form; a small
    // number of resolution failures is expected and matches the paper's
    // "n/a" Table 1 cells.
    let failure_share = stats.resolve_failures as f64 / stats.domains as f64;
    assert!(failure_share < 0.02, "failure share {failure_share}");
}

#[test]
fn table_dump_roundtrip_preserves_measurements() {
    let scenario = Scenario::build(ScenarioConfig::with_domains(2_000));
    let config = PipelineConfig {
        bogus_dns_ppm: 0,
        now: scenario.now,
        threads: 2,
        ..Default::default()
    };

    // Archive the table like a RIS dump, reload, re-measure.
    let text = TableDump::to_string(&scenario.rib);
    let reloaded = TableDump::parse(&text).expect("own dump parses");
    assert_eq!(reloaded.len(), scenario.rib.len());

    let direct = StudyEngine::new(
        scenario.zones.clone(),
        scenario.rib.clone(),
        &scenario.repository,
        config.clone(),
    )
    .run(&scenario.ranking);
    let replayed = StudyEngine::new(
        scenario.zones.clone(),
        reloaded.clone(),
        &scenario.repository,
        config,
    )
    .run(&scenario.ranking);

    assert_eq!(direct.domains.len(), replayed.domains.len());
    for (a, b) in direct.domains.iter().zip(&replayed.domains) {
        assert_eq!(a.bare.pairs, b.bare.pairs, "at rank {}", a.rank);
        assert_eq!(a.www.pairs, b.www.pairs, "at rank {}", a.rank);
        assert_eq!(a.bare.as_set_skipped, b.bare.as_set_skipped);
    }
}

#[test]
fn dns_noise_does_not_change_rpki_conclusions() {
    // The 0.07% bogus answers must not move the valid share measurably.
    let scenario = Scenario::build(ScenarioConfig::with_domains(8_000));
    let run_with = |ppm: u32| {
        let engine = StudyEngine::new(
            scenario.zones.clone(),
            scenario.rib.clone(),
            &scenario.repository,
            PipelineConfig {
                bogus_dns_ppm: ppm,
                now: scenario.now,
                ..Default::default()
            },
        );
        let results = engine.run(&scenario.ranking);
        ripki_repro::ripki::figures::fig2_rpki_outcome(&results, 1_000)
            .valid
            .overall_mean()
            .unwrap()
    };
    let clean = run_with(0);
    let noisy = run_with(700);
    assert!(
        (clean - noisy).abs() < 0.005,
        "bogus answers shifted valid share: {clean} vs {noisy}"
    );
}
