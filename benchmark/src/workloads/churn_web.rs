//! `churn_web`: `ripki-cli serve --rtr-listen` + `ripki-cli proxy` + a
//! router, in one process. An open loop releases one web churn batch
//! every 410 ms; the driver thread re-spells `cmd_serve`'s loop from
//! public functions, in `cmd_serve`'s order.

use super::churn::{analyse, release, schedule, EventStamp};
use super::{Outcome, Plan, Window};
use crate::chain::{Chain, CATCH_UP};
use crate::host;
use crate::httpc::{json_u64, prometheus_value, HttpConn};
use crate::sched::OpenLoop;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::world::{serve_pipeline_config, slurm_text, web_scenario};
use ripki::exposure::ExposureConfig;
use ripki::{StudyEngine, StudyResults};
use ripki_bgp::topology::Topology;
use ripki_payload::VrpPayload;
use ripki_serve::{EpochView, Server, ServerConfig, SharedView};
use ripki_websim::churn::{ChurnConfig, ChurnStream, EpochChurn};
use ripki_websim::Scenario;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The measured world with its indices built: what `ripki-cli serve`
/// holds once it starts churning.
pub struct ServedWorld {
    pub engine: StudyEngine,
    pub results: StudyResults,
    pub index_build_ms: f64,
}

/// `StudyEngine::new` → `run` → first `apply_events` (which builds the
/// reverse indices); leaves the engine at epoch 2.
pub fn serve_world(scenario: &Scenario, first: &EpochChurn) -> ServedWorld {
    let engine = StudyEngine::new(
        scenario.zones.clone(),
        scenario.rib.clone(),
        &scenario.repository,
        serve_pipeline_config(scenario),
    );
    let mut results = engine.run(&scenario.ranking);
    let started = Instant::now();
    engine.apply_events(first, &mut results);
    ServedWorld {
        engine,
        results,
        index_build_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

pub fn view_of(
    engine: &StudyEngine,
    results: &StudyResults,
    topology: &Arc<Topology>,
    tracer: &mut Tracer,
    epoch: u64,
) -> EpochView {
    let span = tracer.enter("serve.results_clone", epoch);
    let shared = Arc::new(results.clone());
    tracer.exit(span);
    let span = tracer.enter("serve.epoch_view_new", epoch);
    let view = EpochView::new(
        engine.snapshot(),
        shared,
        Some(Arc::clone(topology)),
        ExposureConfig::default(),
    );
    tracer.exit(span);
    view
}

pub fn payload_of(engine: &StudyEngine) -> VrpPayload {
    let snapshot = engine.snapshot();
    VrpPayload::new(snapshot.epoch(), snapshot.vrps().iter().copied())
}

struct Live {
    world: ServedWorld,
    shared: Arc<SharedView>,
    server: Server,
    chain: Chain,
}

fn bring_up(
    scenario: &Scenario,
    topology: &Arc<Topology>,
    first: &EpochChurn,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Live, String> {
    let world = serve_world(scenario, first);
    let view = view_of(&world.engine, &world.results, topology, tracer, 0);
    let shared = Arc::new(SharedView::new(view));
    let server = Server::start("127.0.0.1:0", Arc::clone(&shared), ServerConfig::default())
        .map_err(|e| e.to_string())?;
    let initial = payload_of(&world.engine);
    let chain = Chain::start(&initial, &slurm_text(&initial, seed))?;
    Ok(Live {
        world,
        shared,
        server,
        chain,
    })
}

pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome::new();

    // Input generation, once: the world, the churn stream, its first batch.
    let started = Instant::now();
    let scenario = web_scenario(plan.size, plan.seed);
    let scenario_s = started.elapsed().as_secs_f64();
    let mut stream = ChurnStream::new(
        &scenario,
        ChurnConfig {
            seed: plan.seed,
            ..ChurnConfig::default()
        },
    );
    let first = stream.next_epoch();
    let generation_s = started.elapsed().as_secs_f64();
    let topology = Arc::new(scenario.topology.clone());

    // Set-up of the system under test.
    let mut setup = Samples::new();
    let started = Instant::now();
    let live = match bring_up(&scenario, &topology, &first, plan.seed, &mut out.tracer) {
        Ok(live) => live,
        Err(e) => return out.abandoned(format!("set-up failed: {e}")),
    };
    setup.push(started.elapsed().as_secs_f64());
    let Live {
        world,
        shared,
        mut server,
        chain,
    } = live;
    let ServedWorld {
        engine,
        mut results,
        index_build_ms,
    } = world;

    let (period, epochs, warmup) = schedule(plan);
    let mut probe = HttpConn::new(server.addr());
    let probe_path = scenario
        .rib
        .iter()
        .next()
        .map(|e| format!("/api/v1/validity?asn=AS64500&prefix={}", e.prefix))
        .expect("the generated RIB is not empty");

    let mut events: Vec<EventStamp> = Vec::with_capacity(epochs);
    let mut next_epoch_ms = Samples::new();
    let mut events_per_epoch = Samples::new();
    let mut remeasured = Samples::new();
    let mut batch = stream.next_epoch();
    let mut window = Window::open();
    let sched = OpenLoop::starting_at(Instant::now() + Duration::from_millis(20), period);
    let tracer = &mut out.tracer;
    for i in 0..epochs {
        let epoch = engine.epoch() + 1;
        let (due, started, root) = release(&sched, i, plan, tracer, epoch);

        let span = tracer.enter("apply", epoch);
        let delta = engine.apply_events(&batch, &mut results);
        tracer.exit(span);
        shared.announce_epoch(delta.to_epoch);
        let span = tracer.enter("view_build", epoch);
        let view = view_of(&engine, &results, &topology, tracer, epoch);
        shared.publish(view);
        tracer.exit(span);
        let span = tracer.enter("cache_apply", epoch);
        if !chain
            .cache
            .apply_delta(delta.to_epoch as u32, &delta.announced, &delta.withdrawn)
        {
            chain.cache.install_payload(&payload_of(&engine));
        }
        tracer.exit(span);
        let cached = Instant::now();
        tracer.exit(root);
        let mut ok = delta.to_epoch == epoch && chain.cache.serial() == epoch as u32;

        let span = tracer.enter("http_probe", epoch);
        let answered = probe.get(&probe_path);
        tracer.exit(span);
        let http = Instant::now();
        ok &= answered.is_ok_and(|r| r.status == 200 && json_u64(&r.body, "epoch") == Some(epoch));
        tracer.set_on(false);

        events.push(EventStamp {
            serial: epoch as u32,
            due,
            started,
            cached,
            http: Some(http),
            root,
            ok,
        });
        events_per_epoch.push(batch.events.len() as f64);
        remeasured.push(delta.domains_remeasured as f64);

        // The generator runs between events, outside every span.
        if i + 1 < epochs {
            let started = Instant::now();
            batch = stream.next_epoch();
            next_epoch_ms.push(started.elapsed().as_secs_f64() * 1e3);
            window.guard.tick(sched.until_due(i + 1));
        }
    }
    let last = events.last().map_or(0, |e| e.serial);
    let drained = chain.wait_for(last, CATCH_UP);
    let totals = window.close();

    // Teardown: stop the chain, then the reference checks (untimed).
    let final_payload = payload_of(&engine);
    let log = chain.stop();
    out.checks.expect(drained, || {
        format!("router never reached the final serial {last}")
    });
    let scratch = engine.run(&scenario.ranking);
    out.checks.expect(results == scratch, || {
        "incrementally maintained results differ from a from-scratch run".into()
    });
    out.checks
        .expect(shared.current().epoch() == engine.epoch(), || {
            "HTTP plane and engine disagree on the final epoch".into()
        });
    let scrape = probe.get("/metrics");
    server.shutdown();
    let peak_rss_mib = host::peak_rss_mib();
    drop((engine, results, shared, scratch));
    for _ in 1..plan.setup_reps {
        let started = Instant::now();
        match bring_up(&scenario, &topology, &first, plan.seed, &mut out.tracer) {
            Ok(mut live) => {
                setup.push(started.elapsed().as_secs_f64());
                live.server.shutdown();
                live.chain.stop();
            }
            Err(e) => out
                .checks
                .expect(false, || format!("repeated set-up failed: {e}")),
        }
    }

    out.common_metrics(&setup, generation_s, peak_rss_mib, &totals, events.len());
    out.note(format_args!(
        "churn_web: {} epochs every {} ms ({} timed), {} domains, {} VRPs, window {:.1} s",
        events.len(),
        period.as_millis(),
        events.len().saturating_sub(warmup),
        scenario.ranking.len(),
        final_payload.len(),
        totals.wall.as_secs_f64(),
    ));
    let readings = analyse(
        &mut out,
        plan,
        "churn_web",
        &events,
        warmup,
        &log,
        &final_payload,
    );

    if plan.traced {
        let (layers, tracer) = (&mut out.layers, &out.tracer);
        let http = &readings.http_ms;
        layers.set("event_to_http_ms_p50", http.median(), http.len());
        layers.set("websim.scenario_build_s", scenario_s, 1);
        layers.set(
            "websim.next_epoch_ms_p50",
            next_epoch_ms.median(),
            next_epoch_ms.len(),
        );
        layers.set(
            "gen.events_per_epoch",
            events_per_epoch.mean(),
            events_per_epoch.len(),
        );
        layers.set("ripki.index_build_ms", index_build_ms, 1);
        layers.set(
            "ripki.domains_remeasured_per_epoch",
            remeasured.mean(),
            remeasured.len(),
        );
        let apply = tracer.durations_ms("apply");
        layers.set("ripki.apply_events_ms_p50", apply.median(), apply.len());
        layers.set("ripki.apply_events_ms_p90", apply.p(90.0), apply.len());
        layers.set("ripki.apply_events_ms_p99", apply.p(99.0), apply.len());
        let d = tracer.durations_ms("serve.epoch_view_new");
        layers.set("serve.view_build_ms_p50", d.median(), d.len());
        let d = tracer.durations_ms("serve.results_clone");
        layers.set("serve.results_clone_ms_p50", d.median(), d.len());
        let d = tracer.durations_ms("cache_apply");
        layers.set("rtr.cache_apply_delta_us_p50", d.median() * 1e3, d.len());
        let shed = scrape
            .ok()
            .and_then(|r| prometheus_value(&r.body, "ripki_http_requests_shed_total"));
        layers.set("serve.shed_503", shed.unwrap_or(0.0), 1);
    }
    out
}
