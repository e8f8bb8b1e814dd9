//! `query_mixed`: reads beside writes on the `serve` plane. One
//! generator thread keeps two keep-alive connections busy with a fixed,
//! seeded request mix (closed loop, fixed count); a second thread
//! publishes a new epoch every 1010 ms (open loop), as `ripki-cli serve`
//! does while it churns.

use super::churn_web::{serve_world, view_of, ServedWorld};
use super::{overhead_pct, Outcome, Plan, Window};
use crate::host;
use crate::httpc::{json_str, json_u64, prometheus_value, HttpConn};
use crate::sched::OpenLoop;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::world::{web_scenario, Rng, Size};
use ripki::WorldSnapshot;
use ripki_net::{Asn, IpPrefix};
use ripki_serve::api::state_label;
use ripki_serve::{Server, ServerConfig, SharedView};
use ripki_websim::churn::{ChurnConfig, ChurnStream};
use ripki_websim::Scenario;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Incommensurate with the serving plane's 10 ms idle scan and with
/// the request cycle, so publishes land at every phase of the load.
const PERIOD: Duration = Duration::from_millis(1010);
/// Requests per second of `--seconds`: calibrated once on the 2-core
/// reference host so that the window lasts about `--seconds`, then
/// frozen — the count, not the duration, is what a run fixes.
const REQUESTS_PER_SECOND: u64 = 1_000;
const CYCLE: usize = 20_000;
const WARMUP_REQUESTS: usize = 2_000;
/// Spans are recorded in alternating blocks of this many requests.
const TRACE_BLOCK: usize = 1_000;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Validity,
    Domain,
    Status,
    Metrics,
    VrpsJson,
}

struct Request {
    kind: Kind,
    path: String,
    /// For validity requests: what was asked.
    route: Option<(IpPrefix, Asn)>,
}

/// The fixed cycle: 70 % validity (query and path forms), 25 % domain
/// (rank-skewed), 2 % status, 2 % metrics, 1 % full export.
fn request_cycle(scenario: &Scenario, snapshot: &WorldSnapshot, seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x9e7);
    let mut routes: Vec<(IpPrefix, Asn)> = scenario
        .rib
        .all_prefix_origins()
        .into_iter()
        .map(|po| (po.prefix, po.origin))
        .collect();
    routes.extend(snapshot.vrps().iter().map(|v| (v.prefix, v.asn)));
    (0..CYCLE)
        .map(|_| {
            let roll = rng.below(100);
            if roll < 70 {
                let (prefix, origin) = routes[rng.below(routes.len())];
                // One in five asks about a foreign origin.
                let asn = if rng.below(5) == 0 {
                    Asn::new(64_500 + rng.below(400) as u32)
                } else {
                    origin
                };
                let path = if roll.is_multiple_of(2) {
                    format!("/api/v1/validity?asn={asn}&prefix={prefix}")
                } else {
                    format!("/api/v1/validity/{asn}/{prefix}")
                };
                Request {
                    kind: Kind::Validity,
                    path,
                    route: Some((prefix, asn)),
                }
            } else if roll < 95 {
                let u = rng.unit();
                let rank = ((u * u * u) * scenario.ranking.len() as f64) as usize;
                let name = &scenario.ranking[rank.min(scenario.ranking.len() - 1)];
                Request {
                    kind: Kind::Domain,
                    path: format!("/api/v1/domain/{}", name.as_str()),
                    route: None,
                }
            } else if roll < 97 {
                Request {
                    kind: Kind::Status,
                    path: "/status".into(),
                    route: None,
                }
            } else if roll < 99 {
                Request {
                    kind: Kind::Metrics,
                    path: "/metrics".into(),
                    route: None,
                }
            } else {
                Request {
                    kind: Kind::VrpsJson,
                    path: "/vrps.json".into(),
                    route: None,
                }
            }
        })
        .collect()
}

/// The epoch a response was answered from, by endpoint.
fn epoch_of(kind: Kind, body: &[u8]) -> Option<u64> {
    match kind {
        Kind::Validity | Kind::Domain | Kind::Status | Kind::VrpsJson => json_u64(body, "epoch"),
        Kind::Metrics => prometheus_value(body, "ripki_serve_epoch").map(|epoch| epoch as u64),
    }
}

struct Published {
    epoch: u64,
    due: Instant,
    done: Instant,
    snapshot: Arc<WorldSnapshot>,
}

struct Publisher {
    published: Vec<Published>,
    tracer: Tracer,
    world: ServedWorld,
}

pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome::new();

    // Input generation, once.
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
    type Live = (ServedWorld, Arc<SharedView>, Server);
    let bring_up = |tracer: &mut Tracer| -> std::io::Result<Live> {
        let world = serve_world(&scenario, &first);
        let view = view_of(&world.engine, &world.results, &topology, tracer, 0);
        let shared = Arc::new(SharedView::new(view));
        let server = Server::start("127.0.0.1:0", Arc::clone(&shared), ServerConfig::default())?;
        Ok((world, shared, server))
    };
    let mut setup = Samples::new();
    let started = Instant::now();
    let (world, shared, mut server) = match bring_up(&mut out.tracer) {
        Ok(up) => up,
        Err(e) => return out.abandoned(format!("set-up failed: {e}")),
    };
    setup.push(started.elapsed().as_secs_f64());
    let initial_snapshot = world.engine.snapshot();
    let cycle = request_cycle(&scenario, &initial_snapshot, plan.seed);

    let (period, requests, warmup) = match plan.size {
        Size::Full => (
            PERIOD,
            (plan.seconds * REQUESTS_PER_SECOND) as usize,
            WARMUP_REQUESTS,
        ),
        Size::Smoke => (Duration::from_millis(150), 1_500, 100),
    };
    let mut conns = [HttpConn::new(server.addr()), HttpConn::new(server.addr())];
    let mut cursor = 0usize;
    // Warm-up: connections open, caches and the first memo entries fill.
    for _ in 0..warmup {
        let request = &cycle[cursor % CYCLE];
        cursor += 1;
        let ok = conns[0].get(&request.path).is_ok_and(|r| r.status == 200);
        out.checks
            .expect(ok, || format!("warm-up GET {} failed", request.path));
    }

    // The publisher: open loop on its own thread, until told to stop.
    let stop = Arc::new(AtomicBool::new(false));
    let publisher = {
        let stop = Arc::clone(&stop);
        let shared = Arc::clone(&shared);
        let topology = Arc::clone(&topology);
        let traced = plan.traced;
        let publisher_tracer = out.tracer.sibling();
        let mut stream = stream;
        let mut world = world;
        std::thread::Builder::new()
            .name("bench-publisher".into())
            .spawn(move || {
                let mut tracer = publisher_tracer;
                let mut published = Vec::new();
                let sched = OpenLoop::starting_at(Instant::now() + period, period);
                let mut batch = stream.next_epoch();
                for i in 0.. {
                    // Sleep in short steps so a stop request is seen.
                    while !sched.until_due(i).is_zero() && !stop.load(Ordering::SeqCst) {
                        std::thread::sleep(sched.until_due(i).min(Duration::from_millis(20)));
                    }
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let due = sched.due(i);
                    let epoch = world.engine.epoch() + 1;
                    tracer.set_on(traced && i % 2 == 1);
                    let root = tracer.enter_at("publish", epoch, due);
                    let span = tracer.enter("apply", epoch);
                    let delta = world.engine.apply_events(&batch, &mut world.results);
                    tracer.exit(span);
                    shared.announce_epoch(delta.to_epoch);
                    let span = tracer.enter("view_build", epoch);
                    let view =
                        view_of(&world.engine, &world.results, &topology, &mut tracer, epoch);
                    shared.publish(view);
                    tracer.exit(span);
                    tracer.exit(root);
                    tracer.set_on(false);
                    published.push(Published {
                        epoch,
                        due,
                        done: Instant::now(),
                        snapshot: world.engine.snapshot(),
                    });
                    batch = stream.next_epoch();
                }
                Publisher {
                    published,
                    tracer,
                    world,
                }
            })
    };
    let publisher = match publisher {
        Ok(handle) => handle,
        Err(e) => {
            server.shutdown();
            return out.abandoned(format!("cannot start the publisher thread: {e}"));
        }
    };

    // The generator: two requests in flight, one per connection.
    let mut latency_ms: Vec<(Kind, f32)> = Vec::with_capacity(requests);
    let mut first_seen: Vec<(u64, Instant)> = Vec::new();
    let mut newest = initial_snapshot.epoch();
    let mut last_epoch = [0u64; 2];
    let mut sampled: Vec<(u64, IpPrefix, Asn, String)> = Vec::new();
    let mut validity_seen = 0usize;
    // When the newest answered request was sent.
    let mut last_sent = Instant::now();
    let mut window = Window::open();
    let mut done = 0usize;
    while done < requests {
        let in_flight = 2.min(requests - done);
        let traced = plan.traced && (done / TRACE_BLOCK) % 2 == 1;
        out.tracer.set_on(traced);
        let mut sent = [Instant::now(); 2];
        let mut spans = [None, None];
        let mut sent_ok = [false; 2];
        let picks = [cursor % CYCLE, (cursor + 1) % CYCLE];
        cursor += in_flight;
        for c in 0..in_flight {
            sent[c] = Instant::now();
            spans[c] = out.tracer.enter("serve.request", (done + c) as u64);
            // Siblings, not nested: close the stack entry at once and
            // set the real end when the response is in.
            out.tracer.exit(spans[c]);
            sent_ok[c] = conns[c].send(&cycle[picks[c]].path).is_ok();
        }
        for c in 0..in_flight {
            let request = &cycle[picks[c]];
            let reply = if sent_ok[c] {
                conns[c].recv()
            } else {
                Err(std::io::ErrorKind::BrokenPipe.into())
            };
            let at = Instant::now();
            out.tracer.set_end(spans[c], at);
            latency_ms.push((request.kind, at.duration_since(sent[c]).as_secs_f32() * 1e3));
            let reply = match reply {
                Ok(reply) => reply,
                Err(e) => {
                    out.checks
                        .expect(false, || format!("GET {}: no response: {e}", request.path));
                    continue;
                }
            };
            last_sent = last_sent.max(sent[c]);
            let epoch = epoch_of(request.kind, &reply.body);
            let monotone = epoch.is_some_and(|e| e >= last_epoch[c]);
            out.checks.expect(reply.status == 200 && monotone, || {
                format!(
                    "GET {}: status {}, epoch {epoch:?} after {}",
                    request.path, reply.status, last_epoch[c]
                )
            });
            let Some(epoch) = epoch else { continue };
            last_epoch[c] = epoch;
            if epoch > newest {
                newest = epoch;
                first_seen.push((epoch, at));
            }
            if let (Kind::Validity, Some((prefix, asn))) = (request.kind, request.route) {
                validity_seen += 1;
                if validity_seen.is_multiple_of(100) {
                    let state = json_str(&reply.body, "state").unwrap_or("").to_string();
                    sampled.push((epoch, prefix, asn, state));
                }
            }
        }
        done += in_flight;
        if done % 4096 < 2 {
            window.guard.tick_now();
        }
    }
    out.tracer.set_on(false);
    let totals = window.close();
    let scrape = conns[0].get("/metrics");
    stop.store(true, Ordering::SeqCst);
    let Ok(Publisher {
        published,
        tracer: publisher_tracer,
        world,
    }) = publisher.join()
    else {
        server.shutdown();
        return out.abandoned("publisher thread panicked".into());
    };
    server.shutdown();
    out.tracer.absorb(publisher_tracer);

    // Teardown: reference checks (untimed).
    let mut http_ms = Samples::new();
    for p in &published {
        // A publish counts once a request sent after it returned has
        // been answered: that request cannot have seen an older view.
        if p.done > last_sent {
            continue;
        }
        let seen = first_seen.iter().find(|(epoch, _)| *epoch >= p.epoch);
        out.checks.expect(seen.is_some(), || {
            format!("epoch {} was never answered over HTTP", p.epoch)
        });
        if let Some((_, at)) = seen {
            http_ms.push(at.saturating_duration_since(p.due).as_secs_f64() * 1e3);
        }
    }
    for (epoch, prefix, asn, state) in &sampled {
        let snapshot = published
            .iter()
            .find(|p| p.epoch == *epoch)
            .map(|p| &p.snapshot)
            .or((*epoch == initial_snapshot.epoch()).then_some(&initial_snapshot));
        let expected = snapshot.map(|s| state_label(s.validity(prefix, *asn).state));
        out.checks.expect(expected == Some(state.as_str()), || {
            format!("validity of {prefix} from {asn} at epoch {epoch}: got {state:?}, expected {expected:?}")
        });
    }
    let scratch = world.engine.run(&scenario.ranking);
    out.checks.expect(world.results == scratch, || {
        "incrementally maintained results differ from a from-scratch run".into()
    });
    let peak_rss_mib = host::peak_rss_mib();
    drop((world, scratch, shared));
    for _ in 1..plan.setup_reps {
        let started = Instant::now();
        match bring_up(&mut out.tracer) {
            Ok((_, _, mut server)) => {
                setup.push(started.elapsed().as_secs_f64());
                server.shutdown();
            }
            Err(e) => out
                .checks
                .expect(false, || format!("repeated set-up failed: {e}")),
        }
    }

    let all: Samples = latency_ms.iter().map(|(_, ms)| f64::from(*ms)).collect();
    out.common_metrics(&setup, generation_s, peak_rss_mib, &totals, requests);
    out.e2e.set("op_ms_p50", all.median(), all.len());
    out.e2e
        .set("origin_ms_p50", http_ms.median(), http_ms.len());
    let rate = requests as f64 / totals.wall.as_secs_f64();
    out.note(format_args!(
        "query_mixed: {requests} requests on 2 connections in {:.1} s ({rate:.0} req/s), {} publishes every {} ms, \
         query_ms p50 {:.3} p99 {:.3}, event_to_http_ms p50 {:.1} ({} samples)",
        totals.wall.as_secs_f64(),
        published.len(),
        period.as_millis(),
        all.median(),
        all.p(99.0),
        http_ms.median(),
        http_ms.len(),
    ));

    if plan.traced {
        let (layers, tracer) = (&mut out.layers, &out.tracer);
        layers.set("query_req_per_s", rate, requests);
        layers.set("query_ms_p50", all.median(), all.len());
        layers.set("query_ms_p99", all.p(99.0), all.len());
        layers.set("event_to_http_ms_p50", http_ms.median(), http_ms.len());
        layers.set("websim.scenario_build_s", scenario_s, 1);
        let of = |kind: Kind| -> Samples {
            latency_ms
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, ms)| f64::from(*ms))
                .collect()
        };
        let validity = of(Kind::Validity);
        layers.set("serve.validity_ms_p50", validity.median(), validity.len());
        layers.set("serve.validity_ms_p99", validity.p(99.0), validity.len());
        let domain = of(Kind::Domain);
        layers.set("serve.domain_ms_p50", domain.median(), domain.len());
        layers.set("serve.domain_ms_p99", domain.p(99.0), domain.len());
        let export = of(Kind::VrpsJson);
        layers.set("serve.vrps_json_ms_p50", export.median(), export.len());
        let shed = scrape
            .ok()
            .and_then(|r| prometheus_value(&r.body, "ripki_http_requests_shed_total"));
        layers.set("serve.shed_503", shed.unwrap_or(0.0), 1);
        let reconnects = conns.iter().map(|c| c.reconnects).sum::<u64>();
        layers.set("serve.reconnects", reconnects as f64, requests);
        let d = tracer.durations_ms("serve.epoch_view_new");
        layers.set("serve.view_build_ms_p50", d.median(), d.len());
        let d = tracer.durations_ms("serve.results_clone");
        layers.set("serve.results_clone_ms_p50", d.median(), d.len());
        // Blocks alternate untraced, traced; compare their medians.
        let block_ms: Vec<f64> = latency_ms
            .chunks(TRACE_BLOCK)
            .map(|block| {
                block
                    .iter()
                    .map(|(_, ms)| f64::from(*ms))
                    .collect::<Samples>()
                    .median()
            })
            .collect();
        let (pct, pairs) = overhead_pct(&block_ms);
        layers.set("trace.overhead_pct", pct, pairs);
    }
    out
}
