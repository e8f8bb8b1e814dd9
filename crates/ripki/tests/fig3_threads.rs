//! Figure 3 is one serial pass over the rows, so the `RIPKI_THREADS`
//! knob no longer reaches it: with the variable at one worker and at
//! several, it draws the same series.
//!
//! The only test in its own binary, because it sets the process-wide
//! `RIPKI_THREADS` variable that every `PipelineConfig` reads.

use ripki::classify::HttpArchiveClassifier;
use ripki::figures::fig3_cdn_popularity;
use ripki::{PipelineConfig, StudyEngine};
use ripki_websim::{Scenario, ScenarioConfig};

#[test]
fn one_thread_and_many_draw_the_same_fig3() {
    let scenario = Scenario::build(ScenarioConfig::with_domains(2_000));
    let engine = StudyEngine::new(
        scenario.zones.clone(),
        scenario.rib.clone(),
        &scenario.repository,
        PipelineConfig {
            now: scenario.now,
            ..Default::default()
        },
    );
    let results = engine.run(&scenario.ranking);
    let patterns = scenario
        .cdn_infras
        .iter()
        .map(|i| format!("{}-sim.net", i.name))
        .collect();
    let mut classifier = HttpArchiveClassifier::new(&scenario.zones, patterns);
    // Leave some ranks out of coverage so `None` samples are folded too.
    classifier.limit = 1_500;

    let series = |threads: &str| {
        std::env::set_var("RIPKI_THREADS", threads);
        let fig3 = fig3_cdn_popularity(&results, &classifier, 200);
        (fig3.cname_heuristic, fig3.httparchive)
    };
    let single = series("1");
    let multi = series("4");
    assert_eq!(single, multi);
    assert!(single.1.overall_mean().unwrap() > 0.0);
    assert_eq!(single.1.means.last(), Some(&None));
}
