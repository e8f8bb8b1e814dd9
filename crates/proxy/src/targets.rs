//! Fan-out targets: everything that *serves* payloads out of the
//! fabric.
//!
//! A target is a bound listener plus an [`Install`]: the function the
//! fabric's pump calls with each update of the unit the target follows,
//! keeping the serving state in lockstep with the fabric's epoch. This
//! module spawns no thread and knows no channel; serving is left to the
//! repo's two event loops. The RTR target feeds a [`CacheServer`] and
//! serves it through the one RTR session plane, [`RtrListener`] — every
//! install wakes that loop, which pushes Serial Notify to the routers
//! at once. The HTTP target is a route function on the one HTTP plane,
//! [`ripki_serve::Server`] — connection caps, read deadlines,
//! write-stall drops, graceful drain and the reactor's `/metrics`
//! series are that plane's — serving the JSON/CSV exports (through the
//! shared [`vrp_export`] responder) plus `/status` and Prometheus
//! `/metrics`.

use crate::log::Log;
use ripki_payload::{PayloadUpdate, VrpPayload};
use ripki_rtr::{CacheServer, ListenerConfig, RtrListener};
use ripki_serve::http::{Request, Response};
use ripki_serve::server::{vrp_export, Export};
use ripki_serve::{Endpoint, Metrics, Server, ServerConfig};
use serde_json::{Map, Value};
use std::hash::{BuildHasher, RandomState};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// A running target: its bound address and its serving side. Dropping
/// the handle stops serving: responses in flight are delivered whole
/// before their connections close.
pub struct TargetHandle {
    /// The target's configured name.
    pub name: String,
    /// The socket the target actually bound (port 0 resolved).
    pub addr: SocketAddr,
    /// The event loop that keeps serving the target's clients until the
    /// handle drops, so late ones can still fetch the final state: the
    /// RTR session loop ([`RtrListener`]) or the HTTP reactor and its
    /// workers ([`Server`]), each of which shuts down in its `Drop`.
    _serving: Box<dyn Send + Sync>,
}

/// A target's sink: install one update into the serving state and
/// return the lockstep line to log for it.
pub type Install = Box<dyn FnMut(PayloadUpdate) -> String + Send>;

/// How an update reached a target, as its lockstep line tags it. A
/// delta that fails to chain onto what the target holds (stale base
/// after a missed epoch) must become an explicit, counted snapshot
/// re-sync — never a silent skip.
fn install_mode(update: &PayloadUpdate, chained: bool, resyncs: &AtomicU64) -> String {
    match (&update.delta, chained) {
        (Some(_), true) => String::from("delta"),
        (Some(_), false) => {
            // Relaxed: standalone monotonic counter for reporting.
            let n = resyncs.fetch_add(1, Ordering::Relaxed) + 1;
            format!("snapshot resync #{n}")
        }
        (None, _) => String::from("snapshot"),
    }
}

/// A per-target RTR session id: the name mixed into a draw made once per
/// process, so chained caches present distinct sessions and a restarted
/// proxy's caches are new ones (RFC 6810 §5.1).
fn session_id(name: &str) -> u16 {
    static DRAWN: OnceLock<u16> = OnceLock::new();
    // Truncation: any 16 bits of the keyed hash will do.
    let mut h = *DRAWN.get_or_init(|| RandomState::new().hash_one("ripki-proxy") as u16);
    for b in name.bytes() {
        h = h.rotate_left(5) ^ u16::from(b);
    }
    h
}

/// Start an RTR cache target: bind `listen` and serve a [`CacheServer`]
/// to its routers (with pushed Serial Notify) from one [`RtrListener`]
/// session loop; the returned [`Install`] feeds that cache. Returns
/// once the socket is bound (so the caller knows the real port before
/// any log line races).
pub fn start_rtr_target(
    name: &str,
    listen: &str,
    log: &Log,
) -> io::Result<(TargetHandle, Install)> {
    let listener = TcpListener::bind(listen)?;
    let addr = listener.local_addr()?;
    log.line(&format_args!("target {name} (rtr): listening on {addr}"));
    let cache = Arc::new(CacheServer::new(session_id(name)));

    let serving = RtrListener::spawn(listener, Arc::clone(&cache), ListenerConfig::default())?;
    let handle = TargetHandle {
        name: name.to_string(),
        addr,
        _serving: Box::new(serving),
    };
    Ok((handle, rtr_install(cache)))
}

/// An RTR target's [`Install`]: stream each update's delta into `cache`
/// when it chains onto the serial held, install the full payload
/// otherwise.
pub(crate) fn rtr_install(cache: Arc<CacheServer>) -> Install {
    let resyncs = AtomicU64::new(0);
    Box::new(move |update: PayloadUpdate| {
        let chained = update
            .delta
            .as_ref()
            .is_some_and(|delta| cache.apply_vrp_delta(delta));
        if !chained {
            cache.install_payload(&update.payload);
        }
        format!(
            "serial {} in lockstep with {} [{}]",
            cache.serial(),
            update.payload,
            install_mode(&update, chained, &resyncs),
        )
    })
}

/// Serving state shared between the HTTP route and the target's
/// [`Install`].
struct HttpState {
    payload: Mutex<Option<VrpPayload>>,
    updates_total: AtomicU64,
    /// Updates whose delta did not chain onto the held epoch — each one
    /// is a full re-sync the operator should be able to see.
    resyncs_total: AtomicU64,
}

impl HttpState {
    /// The held payload. The slot is only ever replaced whole, so a
    /// holder that panicked leaves it valid: recover from poisoning
    /// instead of taking a serve worker down with it.
    fn held(&self) -> MutexGuard<'_, Option<VrpPayload>> {
        self.payload.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The target's route function: answer one request from the held
/// payload. Runs on a `ripki-serve` worker.
fn route(state: &HttpState, metrics: &Metrics, request: &Request) -> (Endpoint, Response) {
    if request.method != "GET" {
        return (
            Endpoint::Other,
            Response::error(405, "only GET is supported"),
        );
    }
    let Some(payload) = state.held().clone() else {
        return (
            Endpoint::Other,
            Response::error(503, "no payload received yet"),
        );
    };
    // Relaxed: point-in-time counter reads for reporting.
    let updates = state.updates_total.load(Ordering::Relaxed);
    let resyncs = state.resyncs_total.load(Ordering::Relaxed); // Relaxed: as above
    let requests = metrics.total_requests();
    match request.path.as_str() {
        "/vrps.json" => {
            let form = Export::Json { rejected: None };
            (Endpoint::VrpsJson, vrp_export(&payload, request, form))
        }
        "/vrps.csv" => (
            Endpoint::VrpsCsv,
            vrp_export(&payload, request, Export::Csv),
        ),
        "/status" => {
            let mut root = Map::new();
            root.insert("epoch".into(), payload.epoch().into());
            root.insert("vrps".into(), payload.len().into());
            root.insert("digest".into(), format!("{:016x}", payload.digest()).into());
            root.insert("updates_total".into(), updates.into());
            root.insert("requests_total".into(), requests.into());
            root.insert("resyncs_total".into(), resyncs.into());
            (Endpoint::Status, Response::json(200, &Value::Object(root)))
        }
        "/metrics" => {
            let mut text = format!(
                "# TYPE ripki_proxy_epoch gauge\nripki_proxy_epoch {}\n\
                 # TYPE ripki_proxy_vrps gauge\nripki_proxy_vrps {}\n\
                 # TYPE ripki_proxy_updates_total counter\nripki_proxy_updates_total {updates}\n\
                 # TYPE ripki_proxy_requests_total counter\nripki_proxy_requests_total {requests}\n\
                 # TYPE ripki_proxy_resyncs_total counter\nripki_proxy_resyncs_total {resyncs}\n",
                payload.epoch(),
                payload.len(),
            );
            // The serving plane's own series: connections, sheds,
            // deadlines, per-endpoint latency.
            text.push_str(&metrics.render(payload.epoch(), payload.len()));
            (Endpoint::Metrics, Response::text(200, text))
        }
        _ => (Endpoint::Other, Response::error(404, "unknown path")),
    }
}

/// Start an HTTP export target serving `/vrps.json`, `/vrps.csv`,
/// `/status`, and `/metrics` from the payload last installed. Returns
/// once the socket is bound. `config` is the serving plane's tunables,
/// which only tests shrink.
pub fn start_http_target(
    name: &str,
    listen: &str,
    log: &Log,
    config: ServerConfig,
) -> io::Result<(TargetHandle, Install)> {
    let state = Arc::new(HttpState {
        payload: Mutex::new(None),
        updates_total: AtomicU64::new(0),
        resyncs_total: AtomicU64::new(0),
    });
    let server = {
        let state = Arc::clone(&state);
        Server::with_route(listen, config, move |request, metrics| {
            route(&state, metrics, request)
        })?
    };
    let addr = server.addr();
    log.line(&format_args!("target {name} (http): listening on {addr}"));

    let install = move |update: PayloadUpdate| {
        let mut held = state.held();
        let chained = matches!(
            (&update.delta, held.as_ref()),
            (Some(delta), Some(prev)) if delta.from_epoch == prev.epoch()
        );
        let mode = install_mode(&update, chained, &state.resyncs_total);
        let line = format!("in lockstep with {} [{mode}]", update.payload);
        *held = Some(update.payload);
        drop(held);
        // Relaxed: standalone monotonic counter; the payload itself is
        // published under the mutex.
        state.updates_total.fetch_add(1, Ordering::Relaxed);
        line
    };
    let handle = TargetHandle {
        name: name.to_string(),
        addr,
        _serving: Box::new(server),
    };
    Ok((handle, Box::new(install)))
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "R2 exempts test code")]
mod tests {
    use super::*;
    use ripki_net::Asn;
    use ripki_payload::{PayloadUpdate, VrpTriple};
    use ripki_serve::http::parse_response_head;
    use ripki_serve::server::export_etag;
    use ripki_serve_testutil::{
        connect, get, parse_response, raw_roundtrip, read_to_eof_no_reset, serve_scenario,
        split_responses,
    };
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};

    /// The payload the target serves at `/vrps.json`.
    fn served(base: &str) -> VrpPayload {
        let response = crate::http::get(&format!("{base}/vrps.json"), &[], Duration::from_secs(1))
            .expect("fetch");
        assert_eq!(response.status, 200);
        let text = std::str::from_utf8(&response.body).expect("utf8 body");
        ripki_payload::json::parse_vrps_json(text).expect("parseable export")
    }

    fn vrp(prefix: &str, asn: u32) -> VrpTriple {
        VrpTriple {
            prefix: prefix.parse().expect("prefix"),
            max_length: 24,
            asn: Asn::new(asn),
        }
    }

    #[test]
    fn http_target_serves_payloads_with_etags() {
        let (handle, mut install) =
            start_http_target("t", "127.0.0.1:0", &Log::sink(), ServerConfig::default())
                .expect("bind");
        let base = format!("http://{}", handle.addr);

        // Before any payload: 503.
        let early = crate::http::get(&format!("{base}/vrps.json"), &[], Duration::from_secs(1))
            .expect("fetch");
        assert_eq!(early.status, 503);

        let payload = ripki_payload::VrpPayload::new(
            4,
            [vrp("10.0.0.0/24", 64496), vrp("10.1.0.0/24", 64497)],
        );
        let line = install(PayloadUpdate::snapshot(payload.clone()));
        assert_eq!(line, format!("in lockstep with {payload} [snapshot]"));
        assert_eq!(served(&base), payload, "served set is byte-identical");

        // Conditional refetch: 304 against the served ETag.
        let conditional = crate::http::get(
            &format!("{base}/vrps.json"),
            &[("if-none-match", "\"ripki-epoch-4\"")],
            Duration::from_secs(1),
        )
        .expect("conditional fetch");
        assert_eq!(conditional.status, 304);
        assert!(conditional.body.is_empty());

        // Status + metrics reflect the lockstep state.
        let status = crate::http::get(&format!("{base}/status"), &[], Duration::from_secs(1))
            .expect("status");
        let text = std::str::from_utf8(&status.body).expect("utf8");
        assert!(text.contains("\"epoch\":4"), "status: {text}");
        let metrics = crate::http::get(&format!("{base}/metrics"), &[], Duration::from_secs(1))
            .expect("metrics");
        let text = std::str::from_utf8(&metrics.body).expect("utf8");
        assert!(text.contains("ripki_proxy_epoch 4"), "metrics: {text}");

        drop(handle);
    }

    #[test]
    fn rtr_target_installs_updates_into_its_cache() {
        let (handle, mut install) =
            start_rtr_target("r", "127.0.0.1:0", &Log::sink()).expect("bind");

        let payload = ripki_payload::VrpPayload::new(2, [vrp("10.0.0.0/24", 64496)]);
        let line = install(PayloadUpdate::snapshot(payload.clone()));
        assert_eq!(
            line,
            format!("serial 2 in lockstep with {payload} [snapshot]")
        );

        // A real RTR client syncing against the target sees the set.
        let mut client = ripki_rtr::Client::new(connect(handle.addr));
        client.sync().expect("sync");
        assert_eq!(client.payload().expect("payload"), payload);
        let (_, serial) = client.state().expect("synced state");
        assert_eq!(serial, 2, "RTR serial tracks the fabric epoch");

        drop(handle);
    }

    #[test]
    fn session_ids_differ_per_target_name() {
        assert_ne!(session_id("rtr-a"), session_id("rtr-b"));
    }

    #[test]
    fn http_target_counts_a_resync_when_a_unit_resumes_mid_stream() {
        // Simulates a feeding unit killed during epoch 2 and resumed at
        // epoch 3: the target holds epoch 1 and receives a 2→3 delta it
        // cannot chain. That must be an explicit, counted re-sync.
        let (handle, mut install) =
            start_http_target("t", "127.0.0.1:0", &Log::sink(), ServerConfig::default())
                .expect("bind");
        let base = format!("http://{}", handle.addr);

        let p1 = ripki_payload::VrpPayload::new(1, [vrp("10.0.0.0/24", 64496)]);
        install(PayloadUpdate::snapshot(p1));

        // The unit died at epoch 2; its resumed self diffs 2→3.
        let p2 = ripki_payload::VrpPayload::new(
            2,
            [vrp("10.0.0.0/24", 64496), vrp("10.1.0.0/24", 64497)],
        );
        let p3 = ripki_payload::VrpPayload::new(
            3,
            [vrp("10.0.0.0/24", 64496), vrp("10.2.0.0/24", 64498)],
        );
        let line = install(PayloadUpdate::from_previous(&p2, p3.clone()));
        assert!(line.ends_with("[snapshot resync #1]"), "line: {line}");
        assert_eq!(
            served(&base),
            p3,
            "resync serves the snapshot, never a skip"
        );

        let status = crate::http::get(&format!("{base}/status"), &[], Duration::from_secs(1))
            .expect("status");
        let text = std::str::from_utf8(&status.body).expect("utf8");
        assert!(text.contains("\"resyncs_total\":1"), "status: {text}");
        let metrics = crate::http::get(&format!("{base}/metrics"), &[], Duration::from_secs(1))
            .expect("metrics");
        let text = std::str::from_utf8(&metrics.body).expect("utf8");
        assert!(
            text.contains("ripki_proxy_resyncs_total 1"),
            "metrics: {text}"
        );

        // A chaining 3→4 delta is incremental again: the counter stays.
        let p4 = ripki_payload::VrpPayload::new(4, [vrp("10.0.0.0/24", 64496)]);
        let line = install(PayloadUpdate::from_previous(&p3, p4));
        assert!(line.ends_with("[delta]"), "line: {line}");
        let status = crate::http::get(&format!("{base}/status"), &[], Duration::from_secs(1))
            .expect("status");
        let text = std::str::from_utf8(&status.body).expect("utf8");
        assert!(text.contains("\"resyncs_total\":1"), "status: {text}");

        drop(handle);
    }

    #[test]
    fn rtr_target_resyncs_explicitly_on_an_unchained_delta() {
        let (handle, mut install) =
            start_rtr_target("r", "127.0.0.1:0", &Log::sink()).expect("bind");

        let p1 = ripki_payload::VrpPayload::new(1, [vrp("10.0.0.0/24", 64496)]);
        let line = install(PayloadUpdate::snapshot(p1));
        assert!(line.starts_with("serial 1 in lockstep"), "line: {line}");

        // Killed during epoch 2, resumed at 3: the 2→3 delta cannot
        // chain onto serial 1 and must fall back to a counted snapshot.
        let p2 = ripki_payload::VrpPayload::new(2, [vrp("10.1.0.0/24", 64497)]);
        let p3 = ripki_payload::VrpPayload::new(3, [vrp("10.2.0.0/24", 64498)]);
        let line = install(PayloadUpdate::from_previous(&p2, p3.clone()));
        assert!(line.ends_with("[snapshot resync #1]"), "line: {line}");

        // The cache still converged on the full epoch-3 set.
        let mut client = ripki_rtr::Client::new(connect(handle.addr));
        client.sync().expect("sync");
        assert_eq!(client.payload().expect("payload"), p3);

        drop(handle);
    }

    // ---- the HTTP target on the `ripki-serve` plane ----

    /// A started HTTP target holding `payload`, with `config` as the
    /// plane's tunables.
    fn serving(payload: &VrpPayload, config: ServerConfig) -> TargetHandle {
        let (handle, mut install) =
            start_http_target("t", "127.0.0.1:0", &Log::sink(), config).expect("bind");
        install(PayloadUpdate::snapshot(payload.clone()));
        handle
    }

    fn small_payload(epoch: u64) -> VrpPayload {
        VrpPayload::new(
            epoch,
            [vrp("10.0.0.0/24", 64496), vrp("10.1.0.0/24", 64497)],
        )
    }

    #[test]
    fn a_trickling_client_gets_408_at_the_deadline_and_delays_nobody() {
        let deadline = Duration::from_millis(600);
        let config = ServerConfig {
            read_deadline: deadline,
            ..ServerConfig::default()
        };
        let handle = serving(&small_payload(4), config);

        // One header byte per 200 ms: every read succeeds, so only a
        // deadline on the *message* can end this.
        let mut slow = connect(handle.addr);
        let started = Instant::now();
        let mut head = b"GET /vrps.json HTTP/1.1\r\nhost: t\r\n".iter();
        let mut bystander_served = false;
        while started.elapsed() < deadline {
            let byte = head.next().expect("head outlasts the deadline");
            slow.write_all(&[*byte]).expect("trickle");
            if !bystander_served {
                let reply = get(handle.addr, "/vrps.json");
                assert_eq!(reply.status, 200, "a second client is served meanwhile");
                assert!(started.elapsed() < deadline, "and not after the slow one");
                bystander_served = true;
            }
            std::thread::sleep(Duration::from_millis(200));
        }
        let reply = parse_response(&String::from_utf8_lossy(&read_to_eof_no_reset(&mut slow)));
        let took = started.elapsed();
        assert_eq!(reply.status, 408);
        assert_eq!(reply.header("connection"), Some("close"));
        assert!(took >= deadline, "answered early, after {took:?}");
        assert!(took < deadline + Duration::from_secs(1), "took {took:?}");

        drop(handle);
    }

    #[test]
    fn pipelined_requests_are_answered_in_order_on_their_connection() {
        let handle = serving(&small_payload(4), ServerConfig::default());
        let mut stream = connect(handle.addr);
        stream
            .write_all(
                b"GET /status HTTP/1.1\r\nhost: t\r\n\r\n\
                  GET /status HTTP/1.1\r\nhost: t\r\n\r\n\
                  GET /status HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
            )
            .expect("pipeline");
        let replies = split_responses(&read_to_eof_no_reset(&mut stream));
        assert_eq!(replies.len(), 3);
        // `requests_total` counts the requests answered before this
        // one, so it numbers the responses in the order they were made.
        let served: Vec<u128> = replies
            .iter()
            .map(|reply| {
                assert_eq!(reply.status, 200);
                reply.json()["requests_total"].as_u128().expect("counter")
            })
            .collect();
        assert_eq!(served, [served[0], served[0] + 1, served[0] + 2]);
        assert_eq!(replies[1].header("connection"), Some("keep-alive"));
        assert_eq!(replies[2].header("connection"), Some("close"));

        drop(handle);
    }

    #[test]
    fn if_none_match_is_a_weak_list_match_on_every_export() {
        let payload = small_payload(4);
        let handle = serving(&payload, ServerConfig::default());
        let study = serve_scenario(20, 7);
        let study_payload = study.view.current().payload().clone();
        assert_eq!(export_etag(&payload), "\"ripki-epoch-4\"");

        for (node, addr, held) in [
            ("proxy http target", handle.addr, &payload),
            ("ripki-serve", study.server.addr(), &study_payload),
        ] {
            let etag = export_etag(held);
            for path in ["/vrps.json", "/vrps.csv"] {
                for (sent, status) in [
                    (format!("\"x\", W/{etag}"), 304),
                    (etag.clone(), 304),
                    (String::from("*"), 304),
                    (String::from("\"x\", \"y\""), 200),
                ] {
                    let reply = raw_roundtrip(
                        addr,
                        &format!(
                            "GET {path} HTTP/1.1\r\nhost: t\r\nif-none-match: {sent}\r\n\
                             connection: close\r\n\r\n"
                        ),
                    );
                    assert_eq!(reply.status, status, "{node} {path} If-None-Match: {sent}");
                    assert_eq!(reply.header("etag"), Some(etag.as_str()), "{node} {path}");
                    assert_eq!(reply.body.is_empty(), status == 304, "{node} {path}");
                }
            }
        }

        drop(handle);
    }

    #[test]
    fn stop_delivers_the_response_in_flight_then_closes() {
        // Large enough that the kernel's socket buffers cannot hold the
        // export: most of it is still queued in the reactor when the
        // target is told to stop.
        let vrps = (0..300_000u32).map(|i| VrpTriple {
            prefix: ripki_net::IpPrefix::new(
                std::net::Ipv4Addr::from(0x0a00_0000 + (i << 8)).into(),
                24,
            )
            .expect("prefix"),
            max_length: 24,
            asn: Asn::new(64496 + i % 7),
        });
        let payload = VrpPayload::new(4, vrps);
        let mut expected = Vec::new();
        ripki_payload::json::write_vrps_json(&payload, None, &mut expected).expect("serialise");
        assert!(
            expected.len() > 16 << 20,
            "export is {} bytes",
            expected.len()
        );
        let handle = serving(&payload, ServerConfig::default());
        let addr = handle.addr;

        let mut stream = connect(addr);
        stream
            .write_all(b"GET /vrps.json HTTP/1.1\r\nhost: t\r\n\r\n")
            .expect("request");
        let mut first = [0u8; 1024];
        stream
            .read_exact(&mut first)
            .expect("the response has begun");

        let stopper = std::thread::spawn(move || drop(handle));
        // The listener is gone once the drain has begun …
        let status = format!("http://{addr}/status");
        while crate::http::get(&status, &[], Duration::from_secs(1)).is_ok() {
            std::thread::sleep(Duration::from_millis(5));
        }
        // … and the response it found in flight still arrives whole,
        // ended by a FIN.
        let mut raw = first.to_vec();
        raw.extend(read_to_eof_no_reset(&mut stream));
        let (_, head_end) = parse_response_head(&raw)
            .expect("head")
            .expect("whole head");
        assert!(raw.starts_with(b"HTTP/1.1 200 OK\r\n"));
        assert!(
            raw[head_end..] == expected[..],
            "body differs from the export"
        );
        stopper.join().expect("stop returns");
    }
}
