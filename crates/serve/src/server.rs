//! The TCP front end: configuration, routing, and lifecycle of the
//! event-driven serving plane.
//!
//! `Server::start` binds a non-blocking listener and spawns one reactor
//! thread (see [`crate::reactor`]) plus a small worker pool
//! ([`crate::pool`]). The reactor owns every socket; workers only ever
//! see parsed requests and produce fully serialised responses, which
//! the reactor writes back under `POLLOUT` interest.
//!
//! What a server answers is its *route function* — request in,
//! `(Endpoint, Response)` out — handed to [`Server::with_route`]; the
//! plane accounts and serialises whatever it returns. [`Server::start`]
//! is the study's own route over a [`SharedView`], resolved once per
//! request, so each response is computed against one pinned epoch no
//! matter how many publishes land while it runs; the proxy's `http`
//! target is a second route on the same plane.

use crate::api;
use crate::http::{Body, Request, Response, StreamFn};
use crate::metrics::{Endpoint, Metrics};
use crate::pool::{CompletionQueue, Handler, WorkerPool};
use crate::reactor::{Reactor, SocketWaker};
use crate::view::SharedView;
use ripki_dns::DomainName;
use ripki_net::{Asn, IpPrefix};
use ripki_payload::VrpPayload;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of the serving front end.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing request handlers.
    pub workers: usize,
    /// Connections allowed to wait for dispatch before the newest
    /// waiter's request is shed with a close-framed 503.
    pub queue_depth: usize,
    /// Idle timeout: a silent keep-alive peer with nothing queued is
    /// dropped after this long.
    pub read_timeout: Duration,
    /// Requests served on one connection before it is closed (bounds
    /// how long a single peer can pin server state).
    pub max_requests_per_connection: usize,
    /// Hard cap on concurrently open connections; at the watermark the
    /// least-recently-active idle connection is shed to admit a
    /// newcomer (the newcomer is refused if nobody is idle).
    pub max_connections: usize,
    /// Slow-loris deadline: a connection holding a partially-read
    /// message longer than this is answered 408 and closed.
    pub read_deadline: Duration,
    /// A connection whose queued response bytes make no progress for
    /// this long is dropped.
    pub write_stall_timeout: Duration,
    /// Parsed-but-unanswered requests one connection may hold before
    /// it loses read interest (HTTP/1.1 pipelining bound).
    pub pipeline_depth: usize,
    /// Floor of the load-adaptive admission window.
    pub admission_min: usize,
    /// Ceiling of the admission window; `0` means `workers * 2`.
    pub admission_max: usize,
    /// Handler-latency target the admission controller steers toward.
    pub target_latency: Duration,
    /// How long a graceful shutdown waits for in-flight requests to
    /// drain before force-closing stragglers.
    pub shutdown_grace: Duration,
    /// Kernel send-buffer override per connection (`None` keeps the
    /// default); shrunk by tests to make write stalls observable.
    pub send_buffer_bytes: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 8,
            queue_depth: 64,
            read_timeout: Duration::from_secs(5),
            max_requests_per_connection: 1024,
            max_connections: 4096,
            read_deadline: Duration::from_secs(5),
            write_stall_timeout: Duration::from_secs(5),
            pipeline_depth: 4,
            admission_min: 1,
            admission_max: 0,
            target_latency: Duration::from_millis(25),
            shutdown_grace: Duration::from_secs(3),
            send_buffer_bytes: None,
        }
    }
}

impl ServerConfig {
    /// The admission-window ceiling with the `0 = workers * 2` default
    /// resolved. Also sizes the worker job channel, so a window within
    /// the ceiling can always dispatch without blocking.
    pub fn effective_admission_max(&self) -> usize {
        if self.admission_max == 0 {
            self.workers.max(1) * 2
        } else {
            self.admission_max
        }
    }
}

/// A running server; dropping it (or calling [`shutdown`]
/// (Server::shutdown)) drains in-flight requests and joins the reactor
/// and every worker.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    reactor: Option<JoinHandle<()>>,
    wake: UnixStream,
    metrics: Arc<Metrics>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and start serving `view`.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        view: Arc<SharedView>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let workers = config.workers;
        Server::with_route(addr, config, move |request, metrics| {
            route(&view, metrics, request, workers)
        })
    }

    /// Bind `addr` and answer every request with `route`, which runs on
    /// a worker thread and gets the plane's live [`Metrics`] beside the
    /// request. It must not panic: a panicking worker is not replaced
    /// and strands its connection (lint R1 is the guard).
    pub fn with_route<A, F>(addr: A, config: ServerConfig, route: F) -> io::Result<Server>
    where
        A: ToSocketAddrs,
        F: Fn(&Request, &Metrics) -> (Endpoint, Response) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let metrics = Arc::new(Metrics::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let completions = Arc::new(CompletionQueue::new(Box::new(SocketWaker(
            wake_tx.try_clone()?,
        ))));
        let handler = request_handler(route, Arc::clone(&metrics));
        // Channel capacity = the admission ceiling, so dispatch within
        // the window never finds the channel full. Built here so a
        // thread-spawn failure surfaces as an `Err` from `start`.
        let pool = WorkerPool::new(
            config.workers,
            config.effective_admission_max(),
            handler,
            Arc::clone(&completions),
        )?;
        let reactor = Reactor::new(
            listener,
            wake_rx,
            pool,
            completions,
            config,
            Arc::clone(&metrics),
            Arc::clone(&shutdown),
        );
        let handle = std::thread::Builder::new()
            .name("ripki-serve-reactor".into())
            .spawn(move || reactor.run())?;
        Ok(Server {
            addr,
            shutdown,
            reactor: Some(handle),
            wake: wake_tx,
            metrics,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live metrics (shared with `/metrics`).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Stop accepting, drain in-flight requests (bounded by
    /// `shutdown_grace`), and join the reactor and workers.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // The reactor may be parked in poll(); a wake byte makes it
        // observe the flag immediately.
        let _ = (&self.wake).write(&[1]);
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Build the worker-side handler: route the request, serialise the
/// response, account the latency. Returns the bytes plus the final
/// keep-alive verdict (streamed bodies are close-delimited and always
/// downgrade).
fn request_handler<F>(route: F, metrics: Arc<Metrics>) -> Handler
where
    F: Fn(&Request, &Metrics) -> (Endpoint, Response) + Send + Sync + 'static,
{
    Arc::new(move |request: &Request, want_keep: bool| {
        let started = Instant::now();
        let (endpoint, response) = route(request, &metrics);
        let status = response.status;
        let mut bytes: Vec<u8> = Vec::with_capacity(512);
        let keep = matches!(response.write_to(&mut bytes, want_keep), Ok(true));
        metrics.record(endpoint, status, started.elapsed());
        (bytes, keep)
    })
}

/// The study's route function: dispatch one request against `view`.
/// Returns the endpoint label for accounting together with the response.
fn route(
    view: &SharedView,
    metrics: &Metrics,
    request: &Request,
    workers: usize,
) -> (Endpoint, Response) {
    if request.method != "GET" {
        return (
            Endpoint::Other,
            Response::error(405, "only GET is supported"),
        );
    }
    // Pin the epoch once; everything below answers from `current`.
    let current = view.current();
    let path = request.path.as_str();
    match path {
        "/api/v1/validity" => (Endpoint::Validity, validity_from_query(&current, request)),
        "/vrps.json" => {
            let rejected = Some(current.snapshot().rpki_rejected());
            let export = vrp_export(current.payload(), request, Export::Json { rejected });
            (Endpoint::VrpsJson, export)
        }
        "/vrps.csv" => (
            Endpoint::VrpsCsv,
            vrp_export(current.payload(), request, Export::Csv),
        ),
        "/metrics" => {
            let text = metrics.render_with_slurm(
                current.epoch(),
                current.payload().len(),
                current.slurm_stats().map(|s| (s.filtered, s.asserted)),
            );
            (
                Endpoint::Metrics,
                Response {
                    status: 200,
                    content_type: "text/plain; version=0.0.4",
                    headers: Vec::new(),
                    body: Body::Full(text.into_bytes()),
                },
            )
        }
        "/status" => {
            // Lag is computed against the epoch pinned above, not a
            // re-read — the reported pair (epoch, epoch_lag) must be
            // consistent within one response.
            let lag = view.newest_epoch().saturating_sub(current.epoch());
            let payload = api::status(
                &current,
                metrics.uptime().as_secs_f64(),
                metrics.total_requests(),
                workers,
                lag,
                metrics.open_connections(),
                metrics.admission_window(),
            );
            (Endpoint::Status, Response::json(200, &payload))
        }
        _ => {
            if let Some(rest) = path.strip_prefix("/api/v1/validity/") {
                return (Endpoint::Validity, validity_from_path(&current, rest));
            }
            if let Some(name) = path.strip_prefix("/api/v1/domain/") {
                return (Endpoint::Domain, domain_lookup(&current, name));
            }
            (Endpoint::Other, Response::error(404, "no such endpoint"))
        }
    }
}

/// The strong entity tag of an epoch-pinned VRP export. The exports are
/// a pure function of the published epoch (which also drives the RTR
/// serial), so the epoch number is the whole cache key — and the same
/// on every node serving that epoch, which is what makes conditional
/// polling across a proxy chain cheap.
pub fn export_etag(payload: &VrpPayload) -> String {
    format!("\"ripki-epoch-{}\"", payload.epoch())
}

/// RFC 9110 `If-None-Match`: a comma-separated list of entity tags, or
/// `*`. Weak-comparison (`W/` prefixes are ignored) — the right choice
/// for cache revalidation per the RFC.
fn if_none_match_matches(request: &Request, etag: &str) -> bool {
    let Some(raw) = request.header("if-none-match") else {
        return false;
    };
    raw.split(',').map(str::trim).any(|candidate| {
        candidate == "*" || candidate.strip_prefix("W/").unwrap_or(candidate) == etag
    })
}

/// Which wire form of the VRP set an export request names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Export {
    /// `/vrps.json`: Routinator's shape, with the validator's
    /// rejected-object count in the metadata where the node knows it.
    Json {
        /// The `rpki_rejected` metadata field, if any.
        rejected: Option<usize>,
    },
    /// `/vrps.csv`: RTR-client-style CSV.
    Csv,
}

/// A VRP export, answered conditionally: a matching `If-None-Match`
/// gets an empty 304 (connection stays reusable, nothing re-streamed);
/// otherwise the export is streamed with its `ETag` attached. The one
/// responder behind `/vrps.{json,csv}` on every HTTP listener of the
/// repo (this plane's own route and the proxy's `http` target).
pub fn vrp_export(payload: &VrpPayload, request: &Request, form: Export) -> Response {
    let etag = export_etag(payload);
    if if_none_match_matches(request, &etag) {
        return Response::not_modified(etag);
    }
    let payload = payload.clone();
    let (content_type, writer): (_, StreamFn) = match form {
        Export::Json { rejected } => (
            "application/json",
            Box::new(move |w: &mut dyn Write| {
                ripki_payload::json::write_vrps_json(&payload, rejected, w)
            }),
        ),
        Export::Csv => (
            "text/csv",
            Box::new(move |w: &mut dyn Write| ripki_payload::json::write_vrps_csv(&payload, w)),
        ),
    };
    Response {
        status: 200,
        content_type,
        headers: vec![("etag", etag)],
        body: Body::Stream(writer),
    }
}

fn validity_from_query(view: &crate::view::EpochView, request: &Request) -> Response {
    let (Some(asn), Some(prefix)) = (request.query_param("asn"), request.query_param("prefix"))
    else {
        return Response::error(400, "query parameters `asn` and `prefix` are required");
    };
    validity_response(view, asn, prefix)
}

/// Routinator's path form: `/api/v1/validity/AS{n}/{prefix}` where the
/// prefix itself contains a slash.
fn validity_from_path(view: &crate::view::EpochView, rest: &str) -> Response {
    let Some((asn, prefix)) = rest.split_once('/') else {
        return Response::error(400, "expected /api/v1/validity/{asn}/{prefix}");
    };
    validity_response(view, asn, prefix)
}

fn validity_response(view: &crate::view::EpochView, asn: &str, prefix: &str) -> Response {
    let Ok(origin) = asn.parse::<Asn>() else {
        return Response::error(400, "unparseable ASN");
    };
    let Ok(prefix) = prefix.parse::<IpPrefix>() else {
        return Response::error(400, "unparseable prefix");
    };
    Response::json(200, &api::validity(view, &prefix, origin))
}

fn domain_lookup(view: &crate::view::EpochView, raw: &str) -> Response {
    let Ok(name) = DomainName::parse(raw.trim_end_matches('/')) else {
        return Response::error(400, "unparseable domain name");
    };
    match api::domain(view, &name) {
        Some(payload) => Response::json(200, &payload),
        None => Response::error(404, "domain not in the measured ranking"),
    }
}
