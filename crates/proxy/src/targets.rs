//! Fan-out targets: everything that *serves* payloads out of the
//! fabric.
//!
//! Each target subscribes to one unit's gossip and keeps its serving
//! state in lockstep with the fabric's epoch. The RTR target feeds a
//! [`CacheServer`] and serves it through the one RTR session plane,
//! [`RtrListener`] — every install wakes that loop, which pushes Serial
//! Notify to the routers at once; the HTTP target reuses the hardened
//! request parser from [`ripki_serve::http`] and serves the JSON/CSV
//! exports plus `/status` and Prometheus `/metrics`.

use crate::comms::{Subscription, Wait};
use crate::log::Log;
use ripki_payload::VrpPayload;
use ripki_rtr::{CacheServer, ListenerConfig, RtrListener};
use ripki_serve::http::{
    body_disposition, drain_body, read_request, Body, BodyDisposition, Request, Response,
};
use serde_json::{Map, Value};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the subscription drainers re-check the shutdown flag
/// while their feed is quiet (an update wakes them at once).
const IDLE_POLL: Duration = Duration::from_millis(100);

/// What keeps serving a target's clients until shutdown, so late ones
/// can still fetch the final state.
enum Serving {
    /// The RTR session loop.
    Rtr(RtrListener),
    /// The HTTP accept loop, which checks the shutdown flag between
    /// connections.
    Http(JoinHandle<()>),
}

/// A running target: its bound address, the thread the manager joins
/// on drain (`consume`), and the serving side it stops on shutdown.
pub struct TargetHandle {
    /// The target's configured name.
    pub name: String,
    /// The socket the target actually bound (port 0 resolved).
    pub addr: SocketAddr,
    /// The subscription-draining thread; finishes when the feeding
    /// unit closes its gossip.
    pub consume: Option<JoinHandle<()>>,
    serving: Serving,
}

impl TargetHandle {
    /// Join the drainer and stop serving. The caller has raised the
    /// shutdown flag and closed the feeding gossip.
    pub fn stop(self) {
        if let Some(consume) = self.consume {
            let _ = consume.join();
        }
        match self.serving {
            Serving::Rtr(mut listener) => listener.shutdown(),
            Serving::Http(accept) => {
                // The accept loop only checks the flag between
                // connections; poke it so it notices.
                let _ = TcpStream::connect(self.addr);
                let _ = accept.join();
            }
        }
    }
}

/// A deterministic per-target RTR session id, so chained caches present
/// distinct sessions (a router failing over between hops must resync,
/// not silently mix serial spaces).
fn session_id(name: &str) -> u16 {
    let mut h: u16 = 0x1715;
    for b in name.bytes() {
        h = h.rotate_left(5) ^ u16::from(b);
    }
    h
}

/// Start an RTR cache target: bind `listen`, feed a [`CacheServer`]
/// from `sub`, serve its routers (with pushed Serial Notify) from one
/// [`RtrListener`] session loop. Returns once the socket is bound (so
/// the caller knows the real port before any log line races).
pub fn start_rtr_target(
    name: &str,
    listen: &str,
    mut sub: Subscription,
    log: &Log,
    shutdown: &Arc<AtomicBool>,
) -> io::Result<TargetHandle> {
    let listener = TcpListener::bind(listen)?;
    let addr = listener.local_addr()?;
    log.line(&format_args!("target {name} (rtr): listening on {addr}"));
    let cache = Arc::new(CacheServer::new(session_id(name)));

    let consume = {
        let cache = Arc::clone(&cache);
        let log = log.clone();
        let shutdown = Arc::clone(shutdown);
        let name = name.to_string();
        std::thread::spawn(move || {
            let mut resyncs: u64 = 0;
            loop {
                match sub.recv_timeout(IDLE_POLL) {
                    Wait::Update(update) => {
                        // A delta that fails to chain onto the cache's
                        // serial (stale base after a missed epoch) must
                        // become an explicit, counted snapshot re-sync —
                        // never a silent skip.
                        let mode = match &update.delta {
                            Some(delta) if cache.apply_vrp_delta(delta) => String::from("delta"),
                            Some(_) => {
                                cache.install_payload(&update.payload);
                                resyncs += 1;
                                format!("snapshot resync #{resyncs}")
                            }
                            None => {
                                cache.install_payload(&update.payload);
                                String::from("snapshot")
                            }
                        };
                        log.line(&format_args!(
                            "target {name} (rtr): serial {} in lockstep with {} [{mode}]",
                            cache.serial(),
                            update.payload,
                        ));
                    }
                    Wait::TimedOut => {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    Wait::Closed => break,
                }
            }
            log.line(&format_args!("target {name} (rtr): feed drained"));
        })
    };

    let serving = RtrListener::spawn(listener, cache, ListenerConfig::default())?;

    Ok(TargetHandle {
        name: name.to_string(),
        addr,
        consume: Some(consume),
        serving: Serving::Rtr(serving),
    })
}

/// Serving state shared between the HTTP accept loop and the
/// subscription drainer.
struct HttpState {
    payload: Mutex<Option<VrpPayload>>,
    updates_total: AtomicU64,
    requests_total: AtomicU64,
    /// Updates whose delta did not chain onto the held epoch — each one
    /// is a full re-sync the operator should be able to see.
    resyncs_total: AtomicU64,
}

impl HttpState {
    fn current(&self) -> Option<VrpPayload> {
        self.payload
            .lock()
            .expect("http target state poisoned")
            .clone()
    }
}

/// The entity tag for an epoch's JSON export — stable across proxies
/// serving the same epoch, which is what makes conditional polling
/// across a chain cheap.
fn etag(epoch: u64) -> String {
    format!("\"ripki-epoch-{epoch}\"")
}

/// Route one request against the current payload.
fn route(state: &HttpState, request: &Request) -> Response {
    // Relaxed: a standalone monotonic counter — no other memory hangs
    // off its value, readers only ever report it.
    state.requests_total.fetch_add(1, Ordering::Relaxed);
    if request.method != "GET" {
        return Response::error(405, "only GET is supported");
    }
    let Some(payload) = state.current() else {
        return Response::error(503, "no payload received yet");
    };
    match request.path.as_str() {
        "/vrps.json" => {
            let tag = etag(payload.epoch());
            if request.header("if-none-match") == Some(tag.as_str()) {
                return Response::not_modified(tag);
            }
            let mut body = Vec::new();
            // Writing into a Vec cannot fail; degrade instead of panic.
            if ripki_payload::json::write_vrps_json(&payload, None, &mut body).is_err() {
                return Response::error(500, "export serialization failed");
            }
            Response {
                status: 200,
                content_type: "application/json",
                headers: vec![("etag", tag)],
                body: Body::Full(body),
            }
        }
        "/vrps.csv" => {
            let mut body = Vec::new();
            if ripki_payload::json::write_vrps_csv(&payload, &mut body).is_err() {
                return Response::error(500, "export serialization failed");
            }
            Response {
                status: 200,
                content_type: "text/csv; charset=utf-8",
                headers: vec![("etag", etag(payload.epoch()))],
                body: Body::Full(body),
            }
        }
        "/status" => {
            let mut root = Map::new();
            root.insert("epoch".into(), payload.epoch().into());
            root.insert("vrps".into(), payload.len().into());
            root.insert("digest".into(), format!("{:016x}", payload.digest()).into());
            root.insert(
                "updates_total".into(),
                // Relaxed: point-in-time counter reads for reporting.
                state.updates_total.load(Ordering::Relaxed).into(),
            );
            root.insert(
                "requests_total".into(),
                // Relaxed: point-in-time counter reads for reporting.
                state.requests_total.load(Ordering::Relaxed).into(),
            );
            root.insert(
                "resyncs_total".into(),
                // Relaxed: point-in-time counter reads for reporting.
                state.resyncs_total.load(Ordering::Relaxed).into(),
            );
            Response::json(200, &Value::Object(root))
        }
        "/metrics" => {
            let text = format!(
                "# TYPE ripki_proxy_epoch gauge\nripki_proxy_epoch {}\n\
                 # TYPE ripki_proxy_vrps gauge\nripki_proxy_vrps {}\n\
                 # TYPE ripki_proxy_updates_total counter\nripki_proxy_updates_total {}\n\
                 # TYPE ripki_proxy_requests_total counter\nripki_proxy_requests_total {}\n\
                 # TYPE ripki_proxy_resyncs_total counter\nripki_proxy_resyncs_total {}\n",
                payload.epoch(),
                payload.len(),
                // Relaxed: point-in-time counter reads for reporting.
                state.updates_total.load(Ordering::Relaxed),
                state.requests_total.load(Ordering::Relaxed), // Relaxed: as above
                state.resyncs_total.load(Ordering::Relaxed),  // Relaxed: as above
            );
            Response::text(200, text)
        }
        _ => Response::error(404, "unknown path"),
    }
}

/// One HTTP connection: parse, route, respond, keep alive when safe.
fn serve_http_connection(state: &HttpState, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_nodelay(true);
    let mut buf = Vec::new();
    loop {
        let request = match read_request(&mut stream, &mut buf) {
            Ok(Ok(Some(request))) => request,
            Ok(Ok(None)) => return,
            Ok(Err(e)) => {
                let _ = Response::from_http_error(&e).write_to(&mut stream, false);
                return;
            }
            Err(_) => return, // timeout or reset: drop the connection
        };
        let mut keep_alive = request.keep_alive();
        match body_disposition(&request) {
            BodyDisposition::None => {}
            BodyDisposition::Drain(len) => {
                if drain_body(&mut stream, &mut buf, len).is_err() {
                    return;
                }
            }
            BodyDisposition::Close => keep_alive = false,
        }
        let response = route(state, &request);
        match response.write_to(&mut stream, keep_alive) {
            Ok(true) => {}
            _ => return,
        }
    }
}

/// Start an HTTP export target serving `/vrps.json`, `/vrps.csv`,
/// `/status`, and `/metrics` from the newest payload on `sub`.
pub fn start_http_target(
    name: &str,
    listen: &str,
    mut sub: Subscription,
    log: &Log,
    shutdown: &Arc<AtomicBool>,
) -> io::Result<TargetHandle> {
    let listener = TcpListener::bind(listen)?;
    let addr = listener.local_addr()?;
    log.line(&format_args!("target {name} (http): listening on {addr}"));
    let state = Arc::new(HttpState {
        payload: Mutex::new(None),
        updates_total: AtomicU64::new(0),
        requests_total: AtomicU64::new(0),
        resyncs_total: AtomicU64::new(0),
    });

    let consume = {
        let state = Arc::clone(&state);
        let log = log.clone();
        let shutdown = Arc::clone(shutdown);
        let name = name.to_string();
        std::thread::spawn(move || {
            loop {
                match sub.recv_timeout(IDLE_POLL) {
                    Wait::Update(update) => {
                        // A delta that does not chain onto the held
                        // epoch (stale base after a missed epoch) is an
                        // explicit, counted re-sync — never silent.
                        let mut held = state.payload.lock().expect("http target state poisoned");
                        let mode = match (&update.delta, held.as_ref()) {
                            (Some(delta), Some(prev)) if delta.from_epoch == prev.epoch() => {
                                String::from("delta")
                            }
                            (Some(_), Some(_)) => {
                                // Relaxed: standalone monotonic counter
                                // for reporting.
                                let n = state.resyncs_total.fetch_add(1, Ordering::Relaxed) + 1;
                                format!("snapshot resync #{n}")
                            }
                            _ => String::from("snapshot"),
                        };
                        log.line(&format_args!(
                            "target {name} (http): in lockstep with {} [{mode}]",
                            update.payload,
                        ));
                        *held = Some(update.payload);
                        drop(held);
                        // Relaxed: standalone monotonic counter; the
                        // payload itself is published under the mutex.
                        state.updates_total.fetch_add(1, Ordering::Relaxed);
                    }
                    Wait::TimedOut => {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    Wait::Closed => break,
                }
            }
            log.line(&format_args!("target {name} (http): feed drained"));
        })
    };

    let accept = {
        let state = Arc::clone(&state);
        let shutdown = Arc::clone(shutdown);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let state = Arc::clone(&state);
                std::thread::spawn(move || serve_http_connection(&state, stream));
            }
        })
    };

    Ok(TargetHandle {
        name: name.to_string(),
        addr,
        consume: Some(consume),
        serving: Serving::Http(accept),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comms::Gossip;
    use ripki_net::Asn;
    use ripki_payload::{PayloadUpdate, VrpTriple};

    fn vrp(prefix: &str, asn: u32) -> VrpTriple {
        VrpTriple {
            prefix: prefix.parse().expect("prefix"),
            max_length: 24,
            asn: Asn::new(asn),
        }
    }

    fn wait_for_epoch(url: &str, epoch: u64) -> ripki_payload::VrpPayload {
        for _ in 0..100 {
            if let Ok(response) = crate::http::get(url, &[], Duration::from_secs(1)) {
                if response.status == 200 {
                    let text = std::str::from_utf8(&response.body).expect("utf8 body");
                    let payload =
                        ripki_payload::json::parse_vrps_json(text).expect("parseable export");
                    if payload.epoch() == epoch {
                        return payload;
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("target never served epoch {epoch}");
    }

    #[test]
    fn http_target_serves_payloads_with_etags() {
        let gossip = Gossip::new();
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = start_http_target(
            "t",
            "127.0.0.1:0",
            gossip.subscribe(),
            &Log::sink(),
            &shutdown,
        )
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
        gossip.publish(PayloadUpdate::snapshot(payload.clone()));
        let served = wait_for_epoch(&format!("{base}/vrps.json"), 4);
        assert_eq!(served, payload, "served set is byte-identical");

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

        gossip.close();
        shutdown.store(true, Ordering::SeqCst);
        handle.stop();
    }

    #[test]
    fn rtr_target_installs_updates_into_its_cache() {
        let gossip = Gossip::new();
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut handle = start_rtr_target(
            "r",
            "127.0.0.1:0",
            gossip.subscribe(),
            &Log::sink(),
            &shutdown,
        )
        .expect("bind");

        let payload = ripki_payload::VrpPayload::new(2, [vrp("10.0.0.0/24", 64496)]);
        gossip.publish(PayloadUpdate::snapshot(payload.clone()));
        gossip.close();
        handle
            .consume
            .take()
            .expect("consume handle")
            .join()
            .expect("consume");

        // A real RTR client syncing against the target sees the set.
        let stream = TcpStream::connect(handle.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        let mut client = ripki_rtr::Client::new(stream);
        client.sync().expect("sync");
        assert_eq!(client.payload().expect("payload"), payload);
        let (_, serial) = client.state().expect("synced state");
        assert_eq!(serial, 2, "RTR serial tracks the fabric epoch");

        shutdown.store(true, Ordering::SeqCst);
        handle.stop();
    }

    #[test]
    fn session_ids_differ_per_target_name() {
        assert_ne!(session_id("rtr-a"), session_id("rtr-b"));
    }

    /// A log sink tests can read back.
    #[derive(Clone, Default)]
    struct Capture(Arc<Mutex<Vec<u8>>>);

    impl Capture {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().expect("capture").clone()).expect("utf8 log")
        }
    }

    impl std::io::Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("capture").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn http_target_counts_a_resync_when_a_unit_resumes_mid_stream() {
        // Simulates a feeding unit killed during epoch 2 and resumed at
        // epoch 3: the target holds epoch 1 and receives a 2→3 delta it
        // cannot chain. That must be an explicit, counted re-sync.
        let gossip = Gossip::new();
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = start_http_target(
            "t",
            "127.0.0.1:0",
            gossip.subscribe(),
            &Log::sink(),
            &shutdown,
        )
        .expect("bind");
        let base = format!("http://{}", handle.addr);

        let p1 = ripki_payload::VrpPayload::new(1, [vrp("10.0.0.0/24", 64496)]);
        gossip.publish(PayloadUpdate::snapshot(p1));
        wait_for_epoch(&format!("{base}/vrps.json"), 1);

        // The unit died at epoch 2; its resumed self diffs 2→3.
        let p2 = ripki_payload::VrpPayload::new(
            2,
            [vrp("10.0.0.0/24", 64496), vrp("10.1.0.0/24", 64497)],
        );
        let p3 = ripki_payload::VrpPayload::new(
            3,
            [vrp("10.0.0.0/24", 64496), vrp("10.2.0.0/24", 64498)],
        );
        gossip.publish(PayloadUpdate::from_previous(&p2, p3.clone()));
        let served = wait_for_epoch(&format!("{base}/vrps.json"), 3);
        assert_eq!(served, p3, "resync serves the snapshot, never a skip");

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
        gossip.publish(PayloadUpdate::from_previous(&p3, p4));
        wait_for_epoch(&format!("{base}/vrps.json"), 4);
        let status = crate::http::get(&format!("{base}/status"), &[], Duration::from_secs(1))
            .expect("status");
        let text = std::str::from_utf8(&status.body).expect("utf8");
        assert!(text.contains("\"resyncs_total\":1"), "status: {text}");

        gossip.close();
        shutdown.store(true, Ordering::SeqCst);
        handle.stop();
    }

    #[test]
    fn rtr_target_resyncs_explicitly_on_an_unchained_delta() {
        let capture = Capture::default();
        let log = Log::to(Box::new(capture.clone()));
        let gossip = Gossip::new();
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut handle = start_rtr_target("r", "127.0.0.1:0", gossip.subscribe(), &log, &shutdown)
            .expect("bind");

        let p1 = ripki_payload::VrpPayload::new(1, [vrp("10.0.0.0/24", 64496)]);
        gossip.publish(PayloadUpdate::snapshot(p1));
        for _ in 0..100 {
            if capture.text().contains("serial 1 in lockstep") {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }

        // Killed during epoch 2, resumed at 3: the 2→3 delta cannot
        // chain onto serial 1 and must fall back to a counted snapshot.
        let p2 = ripki_payload::VrpPayload::new(2, [vrp("10.1.0.0/24", 64497)]);
        let p3 = ripki_payload::VrpPayload::new(3, [vrp("10.2.0.0/24", 64498)]);
        gossip.publish(PayloadUpdate::from_previous(&p2, p3.clone()));
        gossip.close();
        handle
            .consume
            .take()
            .expect("consume handle")
            .join()
            .expect("consume");
        let text = capture.text();
        assert!(text.contains("[snapshot resync #1]"), "log: {text}");

        // The cache still converged on the full epoch-3 set.
        let stream = TcpStream::connect(handle.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        let mut client = ripki_rtr::Client::new(stream);
        client.sync().expect("sync");
        assert_eq!(client.payload().expect("payload"), p3);

        shutdown.store(true, Ordering::SeqCst);
        handle.stop();
    }
}
