//! `EpochView::domain`/`domain_entry` answer from the name index the
//! results table shares across epochs: every name form of every measured
//! domain resolves to what a scan of the table finds, on a world where a
//! skipped domain makes position differ from rank, and consecutive views
//! share one index.

use ripki::engine::StudyEngine;
use ripki::exposure::ExposureConfig;
use ripki::pipeline::{DomainMeasurement, PipelineConfig, StudyResults};
use ripki_dns::DomainName;
use ripki_serve::EpochView;
use ripki_websim::churn::{ChurnConfig, ChurnStream};
use ripki_websim::{Scenario, ScenarioConfig};
use std::sync::Arc;

/// The index's contract restated as a scan: the last row any of whose
/// three name forms is `name`, else the same for `name` without `www.`.
fn scan<'r>(
    results: &'r StudyResults,
    name: &DomainName,
) -> Option<(usize, &'r DomainMeasurement)> {
    let find = |name: &DomainName| {
        results.domains.iter().enumerate().rfind(|(_, d)| {
            let bare = d.listed.without_www();
            *name == d.listed || *name == bare || *name == bare.with_www()
        })
    };
    find(name).or_else(|| find(&name.without_www()))
}

fn assert_lookups_match_scan(view: &EpochView) {
    let results = view.results();
    for d in &results.domains {
        let bare = d.listed.without_www();
        for name in [d.listed.clone(), bare.with_www(), bare] {
            let expected = scan(results, &name).expect("a measured name");
            let (index, found) = view.domain_entry(&name).expect("a measured name");
            assert_eq!(index, expected.0, "{name:?}");
            assert!(std::ptr::eq(found, expected.1), "{name:?}");
            assert!(std::ptr::eq(view.domain(&name).unwrap(), expected.1));
        }
    }
}

#[test]
fn every_name_form_resolves_like_a_scan_and_views_share_one_index() {
    let scenario = Scenario::build(ScenarioConfig {
        seed: 23,
        ..ScenarioConfig::with_domains(120)
    });
    let poisoned = scenario.ranking[40].clone();
    let engine = StudyEngine::new(
        scenario.zones.clone(),
        scenario.rib.clone(),
        &scenario.repository,
        PipelineConfig {
            now: scenario.now,
            poison_domain: Some(poisoned.clone()),
            ..Default::default()
        },
    );
    let mut results = engine.run(&scenario.ranking);
    assert_eq!(results.skipped, [40]);
    assert_eq!(results.domains[40].rank, 41, "positions trail ranks");

    let view_of = |results: &StudyResults| {
        EpochView::new(
            engine.snapshot(),
            Arc::new(results.clone()),
            None,
            ExposureConfig::default(),
        )
    };
    let first = view_of(&results);
    assert_lookups_match_scan(&first);
    let unknown = DomainName::parse("www.not-in-the-ranking.example").unwrap();
    assert!(first.domain(&unknown).is_none());
    assert!(
        first.domain_entry(&poisoned).is_none(),
        "skipped, not listed"
    );

    let batch = ChurnStream::new(&scenario, ChurnConfig::default()).next_epoch();
    let delta = engine.apply_events(&batch, &mut results);
    assert!(
        delta.domains_remeasured > 0,
        "the epoch must patch something"
    );
    let second = view_of(&results);
    assert!(second
        .results()
        .domains
        .shares_index_with(&first.results().domains));
    assert_lookups_match_scan(&second);
    assert_lookups_match_scan(&first);
    assert_ne!(first.results().domains, second.results().domains);
}
