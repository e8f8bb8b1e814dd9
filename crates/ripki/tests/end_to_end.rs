//! End-to-end: scenario → pipeline → figures, with shape assertions
//! against the paper's findings (at reduced scale).

use ripki::classify::HttpArchiveClassifier;
use ripki::engine::StudyEngine;
use ripki::figures;
use ripki::pipeline::PipelineConfig;
use ripki::report::HeadlineStats;
use ripki::stats::trend_slope;
use ripki::tables;
use ripki_websim::{Scenario, ScenarioConfig};

const DOMAINS: usize = 20_000;
const BIN: usize = 2_000; // scaled-down stand-in for the paper's 10k bins

fn study() -> (Scenario, ripki::pipeline::StudyResults) {
    let scenario = Scenario::build(ScenarioConfig::with_domains(DOMAINS));
    let engine = StudyEngine::new(
        scenario.zones.clone(),
        scenario.rib.clone(),
        &scenario.repository,
        PipelineConfig {
            bogus_dns_ppm: scenario.config.bogus_dns_ppm,
            now: scenario.now,
            ..Default::default()
        },
    );
    let results = engine.run(&scenario.ranking);
    (scenario, results)
}

#[test]
fn full_study_reproduces_paper_shapes() {
    let (scenario, results) = study();
    assert_eq!(results.domains.len(), DOMAINS);
    assert_eq!(results.rpki_rejected, 0);

    // ---- Headline (§4) ----
    let stats = HeadlineStats::compute(&results);
    // ≈0.07% invalid DNS answers.
    assert!(
        stats.invalid_dns_fraction > 0.0002 && stats.invalid_dns_fraction < 0.002,
        "invalid DNS fraction {}",
        stats.invalid_dns_fraction
    );
    // ≈0.01% unreachable (small).
    assert!(
        stats.unreachable_fraction < 0.002,
        "unreachable {}",
        stats.unreachable_fraction
    );
    // More pairs than addresses (covering aggregates + specifics).
    assert!(
        stats.pairs_per_address() > 1.0,
        "pairs/address {}",
        stats.pairs_per_address()
    );
    assert!(stats.vrp_count > 0);

    // ---- Figure 1: www equality rises with rank ----
    let fig1 = figures::fig1_www_overlap(&results, BIN);
    let top = fig1.range_mean(0, DOMAINS / 10).unwrap();
    let tail = fig1.range_mean(DOMAINS * 9 / 10, DOMAINS).unwrap();
    assert!(top > 0.60 && top < 0.90, "fig1 top {top}");
    assert!(tail > 0.88, "fig1 tail {tail}");
    assert!(tail > top, "fig1 must rise: top {top} tail {tail}");

    // ---- Figure 2: valid share rises with rank; invalid flat & tiny ----
    let fig2 = figures::fig2_rpki_outcome(&results, BIN);
    let valid_top = fig2.valid.range_mean(0, DOMAINS / 10).unwrap();
    let valid_tail = fig2.valid.range_mean(DOMAINS * 9 / 10, DOMAINS).unwrap();
    assert!(
        valid_tail > valid_top,
        "valid share must rise with rank: top {valid_top} tail {valid_tail}"
    );
    assert!(
        (0.01..0.10).contains(&valid_top),
        "valid top ≈4%: {valid_top}"
    );
    assert!(
        (0.02..0.12).contains(&valid_tail),
        "valid tail ≈5.5%: {valid_tail}"
    );
    assert!(trend_slope(&fig2.valid).unwrap() > 0.0);
    let invalid_avg = fig2.invalid.overall_mean().unwrap();
    assert!(
        invalid_avg > 0.0001 && invalid_avg < 0.01,
        "invalid ≈0.09%: {invalid_avg}"
    );
    let nf_avg = fig2.not_found.overall_mean().unwrap();
    assert!(nf_avg > 0.88 && nf_avg < 0.99, "notfound ≈93–96%: {nf_avg}");

    // ---- Figure 3: CDN share decays; HTTPArchive ≥ heuristic ----
    let patterns: Vec<String> = scenario
        .cdn_infras
        .iter()
        .map(|i| format!("{}-sim.net", i.name))
        .collect();
    let classifier = HttpArchiveClassifier::new(&scenario.zones, patterns);
    let fig3 = figures::fig3_cdn_popularity(&results, &classifier, BIN);
    let cdn_top = fig3.cname_heuristic.range_mean(0, DOMAINS / 10).unwrap();
    let cdn_tail = fig3
        .cname_heuristic
        .range_mean(DOMAINS * 9 / 10, DOMAINS)
        .unwrap();
    assert!(
        cdn_top > cdn_tail + 0.05,
        "CDN share decays: {cdn_top} vs {cdn_tail}"
    );
    assert!(trend_slope(&fig3.cname_heuristic).unwrap() < 0.0);
    let ha_top = fig3.httparchive.range_mean(0, DOMAINS / 10).unwrap();
    assert!(
        ha_top > cdn_top,
        "HTTPArchive sees more CDNs than the conservative heuristic: {ha_top} vs {cdn_top}"
    );

    // ---- Figure 4: CDN-hosted RPKI share flat, ≈1%, far below overall --
    let fig4 = figures::fig4_rpki_on_cdns(&results, BIN);
    let overall = fig4.rpki_enabled.overall_mean().unwrap();
    let on_cdn = fig4.rpki_enabled_on_cdns.overall_mean().unwrap();
    assert!(
        on_cdn < overall / 2.0,
        "CDN-hosted RPKI share ({on_cdn}) must be well below overall ({overall})"
    );
    assert!(on_cdn < 0.05, "CDN-hosted share ≈0.9%: {on_cdn}");
    // Flat-ish: the rank trend of the CDN series is an order of magnitude
    // weaker than the overall series' own scale.
    if let Some(slope) = trend_slope(&fig4.rpki_enabled_on_cdns) {
        assert!(
            slope.abs() < 0.01,
            "CDN series should be ~flat, slope {slope}"
        );
    }

    // ---- Table 1: exists and is rank-ordered with real coverage ----
    let rows = tables::table1_top_covered(&results, 10);
    assert!(!rows.is_empty(), "some top domains must show coverage");
    for w in rows.windows(2) {
        assert!(w[0].rank < w[1].rank);
    }
    for row in &rows {
        assert!(row.www.any_coverage() || row.bare.any_coverage());
    }
}

#[test]
fn cdn_audit_reproduces_section_4_2() {
    let (scenario, _) = study();
    let report = ripki_rpki::validate(&scenario.repository, scenario.now);
    let names: Vec<&str> = ripki_websim::operators::CDN_SPECS
        .iter()
        .map(|(n, _, _)| *n)
        .collect();
    let rows = ripki::cdn_audit::audit_cdns(&scenario.registry, &report.vrps, &names);
    let summary = ripki::cdn_audit::summarize(&rows, &scenario.registry, &report.vrps);
    // 199 CDN ASes by keyword spotting.
    assert_eq!(summary.total_cdn_asns, 199);
    // Exactly four RPKI entries, all Internap's, on three origin ASes.
    assert_eq!(summary.total_rpki_entries, 4);
    assert_eq!(summary.cdns_with_deployment, vec!["Internap".to_string()]);
    let internap = rows.iter().find(|r| r.cdn == "Internap").unwrap();
    assert_eq!(internap.as_count, 41);
    assert_eq!(internap.rpki_prefixes.len(), 4);
    assert_eq!(internap.origin_asns.len(), 3);
    // ISPs/webhosters show real penetration (paper: >5%).
    assert!(
        summary.isp_penetration > 0.02,
        "ISP penetration {}",
        summary.isp_penetration
    );
    assert!(
        summary.webhoster_penetration > 0.02,
        "webhoster penetration {}",
        summary.webhoster_penetration
    );
}

#[test]
fn vantage_choice_does_not_change_conclusions() {
    // The paper: "our main results remain independent of the DNS server
    // selection because CDNs are reluctant to create ROAs at all."
    let scenario = Scenario::build(ScenarioConfig::with_domains(6_000));
    let mut means = Vec::new();
    for vantage in [
        ripki_dns::Vantage::GOOGLE_DNS_BERLIN,
        ripki_dns::Vantage::OPEN_DNS,
        ripki_dns::Vantage::LOOKING_GLASS_US01,
    ] {
        let engine = StudyEngine::new(
            scenario.zones.clone(),
            scenario.rib.clone(),
            &scenario.repository,
            PipelineConfig {
                vantage,
                bogus_dns_ppm: 0,
                now: scenario.now,
                ..Default::default()
            },
        );
        let results = engine.run(&scenario.ranking);
        let fig2 = figures::fig2_rpki_outcome(&results, 1_000);
        means.push(fig2.valid.overall_mean().unwrap());
    }
    let spread = means.iter().cloned().fold(f64::MIN, f64::max)
        - means.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread < 0.01, "vantage spread too large: {means:?}");
}
