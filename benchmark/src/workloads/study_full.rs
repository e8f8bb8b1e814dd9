//! `study_full`: the paper's own job, one caller, closed loop. Each
//! iteration builds a `StudyEngine` (full RPKI validation), measures the
//! whole ranking with a cold resolution cache, and regenerates every
//! figure, Table 1 and the CDN audit.

use super::{overhead_pct, Outcome, Plan, Window};
use crate::host;
use crate::metrics::Metrics;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::world::{web_scenario, Rng, Size};
use ripki::cdn_audit::{audit_cdns, CdnAuditRow};
use ripki::classify::HttpArchiveClassifier;
use ripki::tables::CoverageCell;
use ripki::{figures, tables, BinnedSeries, PipelineConfig, StudyEngine, StudyResults};
use ripki_rpki::validate::validate;
use ripki_websim::operators::CDN_SPECS;
use ripki_websim::Scenario;
use std::time::Instant;

/// Everything the study prints, in comparable form.
#[derive(PartialEq)]
struct StudyReport {
    fig1: BinnedSeries,
    fig2: [BinnedSeries; 3],
    fig3: [BinnedSeries; 2],
    fig4: [BinnedSeries; 2],
    table1: Vec<(usize, String, CoverageCell, CoverageCell)>,
    audit: Vec<CdnAuditRow>,
}

fn report(scenario: &Scenario, results: &StudyResults) -> StudyReport {
    let bin = (scenario.ranking.len() / 10).max(1);
    let patterns = scenario
        .cdn_infras
        .iter()
        .map(|i| format!("{}-sim.net", i.name))
        .collect();
    let classifier = HttpArchiveClassifier::new(&scenario.zones, patterns);
    let fig2 = figures::fig2_rpki_outcome(results, bin);
    let fig3 = figures::fig3_cdn_popularity(results, &classifier, bin);
    let fig4 = figures::fig4_rpki_on_cdns(results, bin);
    let vrps = validate(&scenario.repository, scenario.now).vrps;
    let names: Vec<&str> = CDN_SPECS.iter().map(|(n, _, _)| *n).collect();
    StudyReport {
        fig1: figures::fig1_www_overlap(results, bin),
        fig2: [fig2.valid, fig2.invalid, fig2.not_found],
        fig3: [fig3.cname_heuristic, fig3.httparchive],
        fig4: [fig4.rpki_enabled, fig4.rpki_enabled_on_cdns],
        table1: tables::table1_top_covered(results, 10)
            .into_iter()
            .map(|r| (r.rank, r.domain, r.www, r.bare))
            .collect(),
        audit: audit_cdns(&scenario.registry, &vrps, &names),
    }
}

struct Iteration {
    engine: StudyEngine,
    results: StudyResults,
    report: StudyReport,
    origin_ms: f64,
    total_ms: f64,
}

fn iterate(scenario: &Scenario, cfg: &PipelineConfig, tracer: &mut Tracer, i: u64) -> Iteration {
    let started = Instant::now();
    let whole = tracer.enter("study.iteration", i);
    let span = tracer.enter("ripki.engine_new", i);
    let engine = StudyEngine::new(
        scenario.zones.clone(),
        scenario.rib.clone(),
        &scenario.repository,
        cfg.clone(),
    );
    tracer.exit(span);
    let span = tracer.enter("ripki.run", i);
    let results = engine.run(&scenario.ranking);
    tracer.exit(span);
    let origin_ms = started.elapsed().as_secs_f64() * 1e3;
    let span = tracer.enter("ripki.figures", i);
    let report = report(scenario, &results);
    tracer.exit(span);
    tracer.exit(whole);
    Iteration {
        engine,
        results,
        report,
        origin_ms,
        total_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome::new();

    let started = Instant::now();
    let scenario = web_scenario(plan.size, plan.seed);
    let scenario_s = started.elapsed().as_secs_f64();
    let cfg = PipelineConfig {
        bogus_dns_ppm: scenario.config.bogus_dns_ppm,
        now: scenario.now,
        ..PipelineConfig::default()
    };

    // Set-up: the reference study, then one discarded warm-up.
    let mut setup = Samples::new();
    let mut set_up = |out: &mut Outcome| {
        let started = Instant::now();
        let first = iterate(&scenario, &cfg, &mut out.tracer, 0);
        let warm = iterate(&scenario, &cfg, &mut out.tracer, 0);
        setup.push(started.elapsed().as_secs_f64());
        out.checks.expect(
            warm.results == first.results && warm.report == first.report,
            || "warm-up study differs from the reference study".into(),
        );
        first
    };
    let reference = set_up(&mut out);
    // Read here, not after the window: two studies are alive, as during
    // every timed iteration, and the reading is steady (506–508 MiB over
    // 26 runs). The high-water mark after twenty more iterations is a
    // maximum over them, and about one iteration in two hundred adds
    // 55–60 MiB at once (allocator placement, not the code under test).
    let peak_rss_mib = host::peak_rss_mib();

    let iterations = match plan.size {
        Size::Full => plan.seconds.max(4) as usize,
        Size::Smoke => 4,
    };
    let mut total_ms = Vec::with_capacity(iterations);
    let mut origin_ms = Samples::new();
    let mut window = Window::open();
    for i in 0..iterations {
        out.tracer.set_on(plan.traces(i));
        let it = iterate(&scenario, &cfg, &mut out.tracer, i as u64 + 1);
        out.tracer.set_on(false);
        total_ms.push(it.total_ms);
        origin_ms.push(it.origin_ms);
        window.excluded(|| {
            out.checks.expect(it.results == reference.results, || {
                format!("iteration {i}: results differ from the reference")
            });
            out.checks.expect(it.report == reference.report, || {
                format!("iteration {i}: figures or tables differ from the reference")
            });
        });
        window.guard.tick_now();
    }
    let totals = window.close();
    for _ in 1..plan.setup_reps {
        drop(set_up(&mut out));
    }

    let op: Samples = total_ms.iter().copied().collect();
    out.common_metrics(&setup, scenario_s, peak_rss_mib, &totals, iterations);
    out.e2e.set("op_ms_p50", op.median(), op.len());
    out.e2e
        .set("origin_ms_p50", origin_ms.median(), origin_ms.len());
    out.note(format_args!(
        "study_full: {iterations} iterations over {} domains, {} VRPs, window {:.1} s",
        scenario.ranking.len(),
        reference.results.vrp_count,
        totals.wall.as_secs_f64(),
    ));

    if plan.traced {
        let (layers, tracer) = (&mut out.layers, &out.tracer);
        layers.set("study_ms_p50", op.median(), op.len());
        layers.set("websim.scenario_build_s", scenario_s, 1);
        for (metric, span) in [
            ("ripki.engine_new_ms", "ripki.engine_new"),
            ("ripki.run_ms", "ripki.run"),
            ("ripki.figures_ms", "ripki.figures"),
        ] {
            let d = tracer.durations_ms(span);
            layers.set(metric, d.median(), d.len());
        }
        let (pct, pairs) = overhead_pct(&total_ms);
        layers.set("trace.overhead_pct", pct, pairs);
        layer_probes(plan, &scenario, &cfg, &reference, tracer, layers);
    }
    out
}

/// Isolated calls into the layers the study is made of, on the
/// reference engine's snapshot, after the timed window.
fn layer_probes(
    plan: &Plan,
    scenario: &Scenario,
    cfg: &PipelineConfig,
    reference: &Iteration,
    tracer: &Tracer,
    layers: &mut Metrics,
) {
    let snapshot = reference.engine.snapshot();
    let mut rng = Rng::new(plan.seed ^ 0xd45);

    // dns: uncached resolution of seeded ranked names (both forms).
    let names = match plan.size {
        Size::Full => 10_000,
        Size::Smoke => 500,
    };
    let resolver = snapshot.resolver();
    let mut resolve_us = Samples::new();
    for k in 0..names {
        let listed = &scenario.ranking[rng.below(scenario.ranking.len())];
        let name = if k % 2 == 0 {
            listed.without_www().with_www()
        } else {
            listed.without_www()
        };
        let started = Instant::now();
        let _ = std::hint::black_box(resolver.resolve(&name));
        resolve_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    layers.set("dns.resolve_us_p50", resolve_us.median(), resolve_us.len());

    // bgp: RFC 6811 verdicts for seeded (prefix, origin) pairs of the
    // RIB, timed in batches of 100 to stay above clock resolution.
    let pairs = scenario.rib.all_prefix_origins();
    let batches = match plan.size {
        Size::Full => 1_000,
        Size::Smoke => 50,
    };
    let mut validity_ns = Samples::new();
    for _ in 0..batches {
        let picks: Vec<usize> = (0..100).map(|_| rng.below(pairs.len())).collect();
        let started = Instant::now();
        for &k in &picks {
            std::hint::black_box(snapshot.validity(&pairs[k].prefix, pairs[k].origin));
        }
        validity_ns.push(started.elapsed().as_nanos() as f64 / 100.0);
    }
    layers.set(
        "bgp.validity_ns_p50",
        validity_ns.median(),
        validity_ns.len() * 100,
    );

    // par: the same run on one worker thread.
    let single = StudyEngine::new(
        scenario.zones.clone(),
        scenario.rib.clone(),
        &scenario.repository,
        PipelineConfig {
            threads: 1,
            ..cfg.clone()
        },
    );
    let started = Instant::now();
    let results = single.run(&scenario.ranking);
    let single_ms = started.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(results);
    let run_ms = tracer.durations_ms("ripki.run").median();
    layers.set("par.threads_effective", cfg.worker_threads() as f64, 1);
    layers.set("par.run_speedup_vs_1", single_ms / run_ms, 1);
}
