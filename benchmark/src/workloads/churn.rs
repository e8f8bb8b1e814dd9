//! What the two churn workloads share: per-event stamps, matching them
//! against the router's arrivals, and the stage table.

use super::{overhead_pct, Outcome, Plan};
use crate::chain::{Arrival, FollowerLog, CATCH_UP};
use crate::sched::OpenLoop;
use crate::stats::{tail_supported, Samples};
use crate::trace::Tracer;
use crate::world::Size;
use ripki_payload::VrpPayload;
use std::fmt::Write;
use std::time::{Duration, Instant};

/// Incommensurate with the 100 ms and 1 s poll timers of the chain, so
/// timer phases are swept evenly instead of locking to the driver.
const PERIOD: Duration = Duration::from_millis(410);
/// Discarded leading events (even, so traced/untraced pairs stay aligned).
const WARMUP: usize = 6;

/// Period, number of events and warm-up events of a churn window.
pub fn schedule(plan: &Plan) -> (Duration, usize, usize) {
    match plan.size {
        Size::Full => (
            PERIOD,
            (plan.seconds * 1000 / PERIOD.as_millis() as u64) as usize,
            WARMUP,
        ),
        Size::Smoke => (Duration::from_millis(50), 10, 2),
    }
}

/// Wait until event `i` is due, then open its root span (from the due
/// time) with the queue wait as first child. Returns the due time, the
/// instant the driver got to the event, and the root span.
pub fn release(
    sched: &OpenLoop,
    i: usize,
    plan: &Plan,
    tracer: &mut Tracer,
    epoch: u64,
) -> (Instant, Instant, Option<usize>) {
    sched.wait_until_due(i);
    let due = sched.due(i);
    let started = Instant::now();
    tracer.set_on(plan.traces(i));
    let root = tracer.enter_at("event", epoch, due);
    tracer.record("queue_wait", epoch, due, started, root);
    (due, started, root)
}

/// Instants the driver stamps for one event. Latencies count from `due`.
pub struct EventStamp {
    /// The epoch (= RTR serial) the event produced.
    pub serial: u32,
    pub due: Instant,
    /// When the driver began working on it (`due` + queue wait).
    pub started: Instant,
    /// When the origin cache held `serial`.
    pub cached: Instant,
    /// When a loopback GET was answered from `serial` (`churn_web`).
    pub http: Option<Instant>,
    /// The event's root span, when this event was traced.
    pub root: Option<usize>,
    /// Whether the driver-side checks of this event held.
    pub ok: bool,
}

/// Stage names of the churn table, in chain order. Each is the name of
/// a span directly under an event's root span.
pub const STAGES: [(&str, &str); 7] = [
    ("stage.queue_wait_ms", "queue_wait"),
    ("stage.apply_ms", "apply"),
    ("stage.payload_build_ms", "payload_build"),
    ("stage.view_build_ms", "view_build"),
    ("stage.cache_apply_ms", "cache_apply"),
    ("stage.relay_hop_ms", "relay_hop"),
    ("stage.router_sync_ms", "router_sync"),
];

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

pub struct ChainReadings {
    pub router_ms: Samples,
    pub cache_ms: Samples,
    pub http_ms: Samples,
    pub late_ms: Samples,
}

/// Everything after a churn window: match every timed event with the
/// first router sync that reached its serial (one operation per event),
/// check what the router ended up holding against the hop's exceptions
/// over the final origin payload, report the end-to-end pair, and on a
/// traced pass close the root spans, print the stage table and report
/// the chain's per-layer rows.
pub fn analyse(
    out: &mut Outcome,
    plan: &Plan,
    workload: &str,
    events: &[EventStamp],
    warmup: usize,
    log: &FollowerLog,
    final_payload: &VrpPayload,
) -> ChainReadings {
    let mut readings = ChainReadings {
        router_ms: Samples::new(),
        cache_ms: Samples::new(),
        http_ms: Samples::new(),
        late_ms: Samples::new(),
    };
    let mut relay_ms = Samples::new();
    if let Some(error) = &log.error {
        out.checks
            .expect(false, || format!("router thread: {error}"));
    }
    out.tracer.set_on(true);
    let mut next = 0;
    for (i, event) in events.iter().enumerate() {
        while next < log.arrivals.len() && log.arrivals[next].serial < event.serial {
            next += 1;
        }
        let arrival: Option<&Arrival> = log.arrivals.get(next);
        // A conflated sync may have been notified before this event
        // was cached; the hop cannot take negative time.
        let notified = arrival.map(|a| a.notified.max(event.cached));
        if let (Some(a), Some(notified), Some(_)) = (arrival, notified, event.root) {
            let epoch = u64::from(event.serial);
            out.tracer
                .record("relay_hop", epoch, event.cached, notified, event.root);
            out.tracer
                .record("router_sync", epoch, notified, a.synced, event.root);
            out.tracer.set_end(event.root, a.synced);
        }
        if i < warmup {
            continue;
        }
        let router = arrival.map(|a| ms(event.due, a.synced));
        let in_time = router.is_some_and(|r| r <= CATCH_UP.as_secs_f64() * 1e3);
        let succeeded = event.ok && in_time;
        out.checks.expect(succeeded, || {
            format!(
                "event for serial {}: driver checks {}, router {}",
                event.serial,
                if event.ok { "ok" } else { "failed" },
                router.map_or("never caught up".to_string(), |r| format!("took {r:.0} ms")),
            )
        });
        // A failed operation misses every latency.
        let or_missed = |v: f64| if succeeded { v } else { f64::INFINITY };
        readings
            .router_ms
            .push(or_missed(router.unwrap_or(f64::INFINITY)));
        readings
            .cache_ms
            .push(or_missed(ms(event.due, event.cached)));
        if let Some(http) = event.http {
            readings.http_ms.push(or_missed(ms(event.due, http)));
        }
        readings.late_ms.push(ms(event.due, event.started));
        if let Some(notified) = notified {
            relay_ms.push(ms(event.cached, notified));
        }
    }
    out.tracer.set_on(false);

    let expected = log.exceptions.excepted(final_payload);
    out.checks.expect(&log.vrps == expected.vrps(), || {
        format!(
            "router holds {} VRPs, expected {} (excepted final payload)",
            log.vrps.len(),
            expected.len()
        )
    });

    let r = &readings;
    out.e2e
        .set("op_ms_p50", r.router_ms.median(), r.router_ms.len());
    out.e2e
        .set("origin_ms_p50", r.cache_ms.median(), r.cache_ms.len());
    out.note(format_args!(
        "  event_to_router_ms p50 {:.1} p90 {:.1} ({} samples; p90 has ten beyond it: {}), \
         event_to_cache_ms p50 {:.1}, late p90 {:.2} ms",
        r.router_ms.median(),
        r.router_ms.p(90.0),
        r.router_ms.len(),
        tail_supported(r.router_ms.len(), 90.0),
        r.cache_ms.median(),
        r.late_ms.p(90.0),
    ));
    if !plan.traced {
        return readings;
    }

    let layers = &mut out.layers;
    layers.set(
        "event_to_router_ms_p50",
        r.router_ms.median(),
        r.router_ms.len(),
    );
    layers.set(
        "event_to_router_ms_p90",
        r.router_ms.p(90.0),
        r.router_ms.len(),
    );
    layers.set(
        "event_to_cache_ms_p50",
        r.cache_ms.median(),
        r.cache_ms.len(),
    );
    layers.set("gen.late_ms_p90", r.late_ms.p(90.0), r.late_ms.len());
    layers.set("proxy.relay_hop_ms_p50", relay_ms.median(), relay_ms.len());
    layers.set("proxy.relay_hop_ms_p90", relay_ms.p(90.0), relay_ms.len());
    let conflated: u32 = log
        .arrivals
        .windows(2)
        .map(|w| w[1].serial.saturating_sub(w[0].serial).saturating_sub(1))
        .sum();
    layers.set(
        "proxy.epochs_conflated",
        f64::from(conflated),
        log.arrivals.len(),
    );
    // `warmup` is even, so pairs stay (untraced, traced).
    let cache_ms: Vec<f64> = events
        .iter()
        .skip(warmup)
        .map(|e| ms(e.due, e.cached))
        .collect();
    let (pct, pairs) = overhead_pct(&cache_ms);
    layers.set("trace.overhead_pct", pct, pairs);
    stage_table(out, workload);
    readings
}

/// Print the stage table of the traced events and record its rows. The
/// rows are means: means of contiguous stages add up to the mean total,
/// medians do not.
fn stage_table(out: &mut Outcome, workload: &str) {
    let spans = out.tracer.spans();
    let own = out.tracer.self_ns();
    let roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == "event" && spans[i].end_ns > spans[i].start_ns)
        .collect();
    if roots.is_empty() {
        return;
    }
    let n = roots.len() as f64;
    let total_ms: f64 = roots.iter().map(|&r| spans[r].duration_ms()).sum::<f64>() / n;
    let unattributed_ms: f64 = roots.iter().map(|&r| own[r] as f64 / 1e6).sum::<f64>() / n;
    let mut table = format!(
        "{workload} stage table (mean over {} traced events, ms):\n",
        roots.len()
    );
    let mut attributed = 0.0;
    for (metric, stage) in STAGES {
        let per_event: Samples = roots
            .iter()
            .map(|&r| {
                spans
                    .iter()
                    .filter(|s| s.parent == Some(r) && s.name == stage)
                    .map(|s| s.duration_ms())
                    .fold(0.0, |sum, ms| sum + ms)
            })
            .collect();
        attributed += per_event.mean();
        out.layers.set(metric, per_event.mean(), per_event.len());
        let _ = writeln!(
            table,
            "  {stage:<14} mean {:>9.3}   p50 {:>9.3}",
            per_event.mean(),
            per_event.median()
        );
    }
    let pct = unattributed_ms / total_ms * 100.0;
    out.layers.set("trace.unattributed_pct", pct, roots.len());
    let _ = writeln!(
        table,
        "  {:<14} mean {unattributed_ms:>9.3}\n  {:<14} mean {total_ms:>9.3}   (stages {attributed:.3} + unattributed = event→router; {pct:.2} % unattributed)",
        "unattributed", "event→router",
    );
    out.text.push_str(&table);
}
