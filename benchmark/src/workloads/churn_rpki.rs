//! `churn_rpki`: a relying party over an RIR-scale repository feeding
//! the same chain as `churn_web`. An open loop releases one repository
//! snapshot every 410 ms; the driver validates it incrementally, builds
//! the payload delta and installs it in the origin cache. Every fourth
//! event a fresh router cold-syncs from the hop's edge.

use super::churn::{analyse, release, schedule, EventStamp};
use super::{Outcome, Plan, Window};
use crate::chain::{cold_sync, Chain, CATCH_UP};
use crate::host;
use crate::metrics::Metrics;
use crate::sched::OpenLoop;
use crate::stats::Samples;
use crate::world::{slurm_text, triple, RirStream, Rng, Size};
use ripki::PipelineConfig;
use ripki_net::{IpPrefix, PrefixTrie};
use ripki_payload::json::{parse_vrps_json, write_vrps_json};
use ripki_payload::{PayloadUpdate, VrpDelta, VrpPayload};
use ripki_proxy::Gossip;
use ripki_rpki::repo::Repository;
use ripki_rpki::validate::validate;
use ripki_rpki::IncrementalValidator;
use ripki_rtr::{CacheServer, Client, ListenerConfig, Pdu, RtrListener};
use ripki_slurm::SlurmApplier;
use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A fresh router cold-syncs after every `COLD_EVERY`-th event.
const COLD_EVERY: usize = 4;
/// Payloads kept to check what a cold router (which may be a few
/// serials behind the origin) received, and for the layer probes.
const HISTORY: usize = 16;

struct Live {
    validator: IncrementalValidator,
    payload: VrpPayload,
    chain: Chain,
    full_validate_ms: f64,
}

fn bring_up(first: &Repository, stream: &RirStream, seed: u64) -> Result<Live, String> {
    let mut validator = IncrementalValidator::default();
    // The engine sizes its validator from the one thread knob; a
    // stand-alone relying party does the same.
    validator.set_worker_threads(PipelineConfig::default().worker_threads());
    let started = Instant::now();
    validator.apply(first, stream.now);
    let full_validate_ms = started.elapsed().as_secs_f64() * 1e3;
    let payload = VrpPayload::new(1, validator.vrps().iter().map(triple));
    let chain = Chain::start(&payload, &slurm_text(&payload, seed))?;
    Ok(Live {
        validator,
        payload,
        chain,
        full_validate_ms,
    })
}

pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome::new();

    // Input generation, once: issue the hierarchy, sign the first snapshot.
    let started = Instant::now();
    let mut stream = RirStream::issue(plan.size, plan.seed);
    let first = stream.snapshot();
    let generation_s = started.elapsed().as_secs_f64();

    // Set-up of the system under test.
    let mut setup = Samples::new();
    let started = Instant::now();
    let live = match bring_up(&first, &stream, plan.seed) {
        Ok(live) => live,
        Err(e) => return out.abandoned(format!("set-up failed: {e}")),
    };
    setup.push(started.elapsed().as_secs_f64());
    let Live {
        mut validator,
        mut payload,
        chain,
        full_validate_ms,
    } = live;

    let (period, epochs, warmup) = schedule(plan);
    let mut history: VecDeque<PayloadUpdate> = VecDeque::with_capacity(HISTORY + 1);
    history.push_back(PayloadUpdate::snapshot(payload.clone()));
    let mut events: Vec<EventStamp> = Vec::with_capacity(epochs);
    let mut snapshot_ms = Samples::new();
    let mut cold_ms = Samples::new();
    let mut revalidated = Samples::new();
    let (mut points_reused, mut points_total) = (0usize, 0usize);
    let mut repo = stream.next_snapshot();
    let mut window = Window::open();
    let sched = OpenLoop::starting_at(Instant::now() + Duration::from_millis(20), period);
    let (tracer, checks) = (&mut out.tracer, &mut out.checks);
    for i in 0..epochs {
        let epoch = payload.epoch() + 1;
        let (due, started, root) = release(&sched, i, plan, tracer, epoch);

        let span = tracer.enter("apply", epoch);
        let delta = validator.apply(&repo, stream.now);
        tracer.exit(span);
        let span = tracer.enter("payload_build", epoch);
        let vrp_delta = VrpDelta::new(
            payload.epoch(),
            epoch,
            delta.announced.iter().map(triple).collect(),
            delta.withdrawn.iter().map(triple).collect(),
        );
        let inner = tracer.enter("payload.apply", epoch);
        let next = payload.apply(&vrp_delta);
        tracer.exit(inner);
        let mut ok = next.is_some();
        payload =
            next.unwrap_or_else(|| VrpPayload::new(epoch, validator.vrps().iter().map(triple)));
        let update = PayloadUpdate {
            payload: payload.clone(),
            delta: Some(vrp_delta),
        };
        tracer.exit(span);
        let span = tracer.enter("cache_apply", epoch);
        ok &= chain.cache.install_update(&update);
        tracer.exit(span);
        let cached = Instant::now();
        tracer.exit(root);
        ok &= chain.cache.serial() == epoch as u32;

        history.push_back(update);
        if history.len() > HISTORY {
            history.pop_front();
        }
        if i % COLD_EVERY == COLD_EVERY - 1 {
            let span = tracer.enter("cold_sync", epoch);
            let cold_started = Instant::now();
            let synced = cold_sync(chain.edge);
            let took = elapsed_ms(cold_started);
            tracer.exit(span);
            window.excluded(|| match synced {
                Ok((serial, vrps)) => {
                    let expected = history
                        .iter()
                        .find(|u| u.payload.serial() == serial)
                        .map(|u| chain.exceptions.excepted(&u.payload));
                    checks.expect(expected.is_some_and(|e| e.vrps() == &vrps), || {
                        format!("cold router at serial {serial} holds an unexpected set")
                    });
                    if i >= warmup {
                        cold_ms.push(took);
                    }
                }
                Err(e) => checks.expect(false, || format!("cold router sync failed: {e}")),
            });
        }
        tracer.set_on(false);

        events.push(EventStamp {
            serial: epoch as u32,
            due,
            started,
            cached,
            http: None,
            root,
            ok,
        });
        revalidated.push(delta.stats.objects_validated as f64);
        points_reused += delta.stats.points_reused;
        points_total += delta.stats.points_total;

        // The generator runs between events, outside every span.
        if i + 1 < epochs {
            let started = Instant::now();
            repo = stream.next_snapshot();
            snapshot_ms.push(elapsed_ms(started));
            window.guard.tick(sched.until_due(i + 1));
        }
    }
    let last = events.last().map_or(0, |e| e.serial);
    let drained = chain.wait_for(last, CATCH_UP);
    let totals = window.close();

    // Teardown: stop the chain, then the reference checks (untimed).
    let log = chain.stop();
    out.checks.expect(drained, || {
        format!("router never reached the final serial {last}")
    });
    out.checks
        .expect(validate(&repo, stream.now).vrps == validator.vrps(), || {
            "incremental validator diverged from a from-scratch validation".into()
        });
    let peak_rss_mib = host::peak_rss_mib();
    drop(validator);
    for _ in 1..plan.setup_reps {
        let started = Instant::now();
        match bring_up(&first, &stream, plan.seed) {
            Ok(live) => {
                setup.push(started.elapsed().as_secs_f64());
                live.chain.stop();
            }
            Err(e) => out
                .checks
                .expect(false, || format!("repeated set-up failed: {e}")),
        }
    }

    out.common_metrics(&setup, generation_s, peak_rss_mib, &totals, events.len());
    out.note(format_args!(
        "churn_rpki: {} epochs every {} ms ({} timed), {} VRPs, {} cold syncs, window {:.1} s",
        events.len(),
        period.as_millis(),
        events.len().saturating_sub(warmup),
        payload.len(),
        cold_ms.len(),
        totals.wall.as_secs_f64(),
    ));
    analyse(
        &mut out,
        plan,
        "churn_rpki",
        &events,
        warmup,
        &log,
        &payload,
    );

    if plan.traced {
        let (layers, tracer) = (&mut out.layers, &out.tracer);
        layers.set("router_cold_sync_ms_p50", cold_ms.median(), cold_ms.len());
        layers.set(
            "websim.next_epoch_ms_p50",
            snapshot_ms.median(),
            snapshot_ms.len(),
        );
        layers.set("rpki.full_validate_ms", full_validate_ms, 1);
        let apply = tracer.durations_ms("apply");
        layers.set("rpki.apply_ms_p50", apply.median(), apply.len());
        layers.set("rpki.apply_ms_p90", apply.p(90.0), apply.len());
        layers.set(
            "rpki.objects_revalidated_per_epoch",
            revalidated.mean(),
            revalidated.len(),
        );
        layers.set(
            "rpki.points_reused_share",
            points_reused as f64 / points_total.max(1) as f64 * 100.0,
            points_total,
        );
        let d = tracer.durations_ms("payload.apply");
        layers.set("payload.apply_ms_p50", d.median(), d.len());
        layer_probes(plan, &history, &log.exceptions, layers);
    }
    out
}

fn elapsed_ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Isolated calls into `slurm`, `payload`, `proxy`, `rtr` and the
/// prefix trie on the updates the fabric just carried, after the timed
/// window. Socket probes run over loopback.
fn layer_probes(
    plan: &Plan,
    history: &VecDeque<PayloadUpdate>,
    exceptions: &ripki_slurm::ExceptionSet,
    layers: &mut Metrics,
) {
    let updates: Vec<&PayloadUpdate> = history.iter().collect();
    let newest = &updates[updates.len() - 1].payload;

    // slurm: the stateful applier over the same chained updates.
    let mut applier = SlurmApplier::new(exceptions.clone());
    applier.ingest(&PayloadUpdate::snapshot(updates[0].payload.clone()));
    let stats = applier.stats();
    layers.set("slurm.filtered_vrps", stats.filtered as f64, 1);
    layers.set("slurm.asserted_vrps", stats.asserted as f64, 1);
    let mut ingest_us = Samples::new();
    for update in &updates[1..] {
        let started = Instant::now();
        std::hint::black_box(applier.ingest(update));
        ingest_us.push(elapsed_ms(started) * 1e3);
    }
    layers.set("slurm.ingest_us_p50", ingest_us.median(), ingest_us.len());

    // payload: diffing two neighbouring sets, and the JSON wire form.
    let mut diff_ms = Samples::new();
    for pair in updates.windows(2) {
        let started = Instant::now();
        std::hint::black_box(PayloadUpdate::from_previous(
            &pair[0].payload,
            pair[1].payload.clone(),
        ));
        diff_ms.push(elapsed_ms(started));
    }
    layers.set(
        "payload.from_previous_ms_p50",
        diff_ms.median(),
        diff_ms.len(),
    );
    let mut body = Vec::new();
    let started = Instant::now();
    let written = write_vrps_json(newest, None, &mut body).unwrap_or(0);
    layers.set("payload.json_write_ms", elapsed_ms(started), 1);
    layers.set("payload.json_bytes", written as f64, 1);
    // The strict parser's cost grows quadratically with the document
    // (17 ms at 500 VRPs, minutes at 100 000), so the parse probe reads
    // back an export of the first 1 000 VRPs whatever the set's size.
    let head = VrpPayload::new(newest.epoch(), newest.vrps().iter().take(1_000).copied());
    let mut body = Vec::new();
    let _ = write_vrps_json(&head, None, &mut body);
    let started = Instant::now();
    let parsed = std::str::from_utf8(&body)
        .ok()
        .and_then(|t| parse_vrps_json(t).ok());
    layers.set("payload.json_parse_ms", elapsed_ms(started), head.len());
    std::hint::black_box(parsed);

    // proxy: one gossip hop, publisher thread to subscriber thread.
    let gossip = Gossip::new();
    let mut subscription = gossip.subscribe();
    let receiver = std::thread::spawn(move || {
        let mut seen = Vec::new();
        while let Some(update) = subscription.recv() {
            seen.push((update.epoch(), Instant::now()));
        }
        seen
    });
    let mut sent = Vec::new();
    for k in 0..50u64 {
        let update = PayloadUpdate::snapshot(VrpPayload::from_shared(
            newest.epoch() + 1 + k,
            newest.shared_vrps(),
        ));
        sent.push((update.epoch(), Instant::now()));
        gossip.publish(update);
        std::thread::sleep(Duration::from_millis(2));
    }
    gossip.close();
    let seen = receiver.join().unwrap_or_default();
    let hop_us: Samples = seen
        .iter()
        .filter_map(|(epoch, at)| {
            let (_, sent_at) = sent.iter().find(|(e, _)| e == epoch)?;
            Some(at.saturating_duration_since(*sent_at).as_secs_f64() * 1e6)
        })
        .collect();
    layers.set("proxy.gossip_hop_us_p50", hop_us.median(), hop_us.len());

    // rtr, cache side: snapshot install, query handling, encoding.
    let mut install_ms = Samples::new();
    for _ in 0..3 {
        let cache = CacheServer::new(1);
        let started = Instant::now();
        cache.install_payload(newest);
        install_ms.push(elapsed_ms(started));
    }
    layers.set(
        "rtr.cache_install_snapshot_ms",
        install_ms.median(),
        install_ms.len(),
    );
    let cache = Arc::new(CacheServer::new(0x0bec));
    cache.install_payload(&updates[0].payload);
    let mut pdu_bytes = Samples::new();
    let mut query_us = Samples::new();
    for update in &updates[1..] {
        let before = cache.serial();
        cache.install_update(update);
        let query = Pdu::SerialQuery {
            session_id: cache.session_id(),
            serial: before,
        };
        let started = Instant::now();
        let response = cache.handle_query(&query);
        query_us.push(elapsed_ms(started) * 1e3);
        pdu_bytes.push(response.iter().map(|p| p.encode().len()).sum::<usize>() as f64);
    }
    layers.set(
        "rtr.handle_serial_query_us_p50",
        query_us.median(),
        query_us.len(),
    );
    layers.set("rtr.pdu_bytes_per_epoch", pdu_bytes.mean(), pdu_bytes.len());
    let started = Instant::now();
    let reset_bytes: usize = cache
        .handle_query(&Pdu::ResetQuery)
        .iter()
        .map(|p| p.encode().len())
        .sum();
    layers.set("rtr.encode_reset_ms", elapsed_ms(started), 1);
    std::hint::black_box(reset_bytes);

    // rtr, client side: `Client::sync` against `serve_connection`.
    let (delta_syncs, notify_phases) = match plan.size {
        Size::Full => (20, 3),
        Size::Smoke => (6, 1),
    };
    if let Some((reset_ms, delta_ms)) = client_sync_probe(&cache, newest, delta_syncs) {
        layers.set(
            "rtr.client_reset_sync_ms_p50",
            reset_ms.median(),
            reset_ms.len(),
        );
        layers.set(
            "rtr.client_delta_sync_ms_p50",
            delta_ms.median(),
            delta_ms.len(),
        );
    }
    if let Some(wait_ms) = notify_wait_probe(&cache, newest, notify_phases) {
        layers.set("rtr.notify_wait_ms_p50", wait_ms.median(), wait_ms.len());
    }

    // net-types: covering lookups in a trie of every served prefix.
    let mut trie: PrefixTrie<u32> = PrefixTrie::new();
    for vrp in newest.vrps() {
        trie.insert(vrp.prefix, vrp.asn.value());
    }
    let prefixes: Vec<IpPrefix> = newest.vrps().iter().map(|v| v.prefix).collect();
    let mut rng = Rng::new(plan.seed ^ 0x7a1e);
    let batches = match plan.size {
        Size::Full => 1_000,
        Size::Smoke => 50,
    };
    let mut covering_ns = Samples::new();
    for _ in 0..batches {
        let picks: Vec<usize> = (0..100).map(|_| rng.below(prefixes.len())).collect();
        let started = Instant::now();
        for &k in &picks {
            std::hint::black_box(trie.covering(&prefixes[k]));
        }
        covering_ns.push(started.elapsed().as_nanos() as f64 / 100.0);
    }
    layers.set(
        "net.trie_covering_ns_p50",
        covering_ns.median(),
        covering_ns.len() * 100,
    );
}

/// Reset syncs by fresh clients, then delta syncs by one client as the
/// cache advances one serial at a time (one VRP out, one in).
fn client_sync_probe(
    cache: &Arc<CacheServer>,
    newest: &VrpPayload,
    delta_syncs: usize,
) -> Option<(Samples, Samples)> {
    let listener = TcpListener::bind("127.0.0.1:0").ok()?;
    let addr = listener.local_addr().ok()?;
    let resets = 3;
    let server = {
        let cache = Arc::clone(cache);
        std::thread::spawn(move || {
            for _ in 0..resets {
                if let Ok((conn, _)) = listener.accept() {
                    let _ = cache.serve_connection(conn);
                }
            }
        })
    };
    let connect = || -> Option<Client<TcpStream>> {
        let stream = TcpStream::connect(addr).ok()?;
        stream.set_read_timeout(Some(CATCH_UP)).ok()?;
        Some(Client::new(stream))
    };
    let mut reset_ms = Samples::new();
    let mut delta_ms = Samples::new();
    for _ in 1..resets {
        let mut client = connect()?;
        let started = Instant::now();
        client.sync().ok()?;
        reset_ms.push(elapsed_ms(started));
    }
    let mut client = connect()?;
    let started = Instant::now();
    client.sync().ok()?;
    reset_ms.push(elapsed_ms(started));
    let swap: Vec<_> = newest.vrps().iter().take(delta_syncs).copied().collect();
    for (k, vrp) in swap.iter().enumerate() {
        // Odd steps withdraw a VRP, even steps announce it again.
        let serial = cache.serial().wrapping_add(1);
        let applied = if k % 2 == 0 {
            cache.apply_delta(serial, &[], &[*vrp])
        } else {
            cache.apply_delta(serial, &[swap[k - 1]], &[])
        };
        if !applied {
            break;
        }
        let started = Instant::now();
        client.sync().ok()?;
        delta_ms.push(elapsed_ms(started));
    }
    drop(client);
    let _ = server.join();
    Some((reset_ms, delta_ms))
}

/// Serial advanced → Serial Notify read, on a default `RtrListener`
/// session with a directly attached client.
fn notify_wait_probe(
    cache: &Arc<CacheServer>,
    newest: &VrpPayload,
    phases: u32,
) -> Option<Samples> {
    let bound = TcpListener::bind("127.0.0.1:0").ok()?;
    let mut listener =
        RtrListener::spawn(bound, Arc::clone(cache), ListenerConfig::default()).ok()?;
    let stream = TcpStream::connect(listener.addr()).ok()?;
    let control = stream.try_clone().ok()?;
    control.set_read_timeout(Some(CATCH_UP)).ok()?;
    let mut client = Client::new(stream);
    client.sync().ok()?;
    let vrp = *newest.vrps().iter().next()?;
    let mut wait_ms = Samples::new();
    for k in 1..=phases {
        // The session's poll timer restarts when it answers a query;
        // advance the serial at evenly spaced phases of it (one phase:
        // half way; three: a quarter, a half, three quarters).
        std::thread::sleep(ListenerConfig::default().session_poll / (phases + 1) * k);
        let serial = cache.serial().wrapping_add(1);
        let holds = cache.payload().is_some_and(|p| p.vrps().contains(&vrp));
        let applied = if holds {
            cache.apply_delta(serial, &[], &[vrp])
        } else {
            cache.apply_delta(serial, &[vrp], &[])
        };
        if !applied {
            break;
        }
        let started = Instant::now();
        control
            .set_read_timeout(Some(Duration::from_millis(5)))
            .ok()?;
        let deadline = started + CATCH_UP;
        loop {
            match client.poll_notify() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {}
                _ => {
                    listener.shutdown();
                    return None;
                }
            }
        }
        wait_ms.push(elapsed_ms(started));
        control.set_read_timeout(Some(CATCH_UP)).ok()?;
        client.sync().ok()?;
    }
    drop(client);
    listener.shutdown();
    Some(wait_ms)
}
