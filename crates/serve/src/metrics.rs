//! Lock-free serving metrics with Prometheus text exposition.
//!
//! Counters and histograms are plain `AtomicU64`s updated with relaxed
//! ordering — per-request accounting must never contend with the hot
//! path. The `/metrics` endpoint renders the standard text format
//! (counters, gauges, cumulative `le`-bucketed histograms) so any
//! Prometheus scraper can watch the query plane without adapters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Histogram bucket upper bounds in microseconds. Spans sub-100µs cache
/// hits through multi-second full exports; `+Inf` is implicit.
pub const BUCKET_BOUNDS_MICROS: [u64; 10] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 250_000, 1_000_000,
];

// Every metric cell is an independent statistic: no other memory is
// published through these atomics and scrapes tolerate being a few
// updates behind, so `Relaxed` is sufficient for all of them. Routing
// every access through these two helpers keeps that argument (and the
// ordering choice) in exactly one place.
fn bump(cell: &AtomicU64, by: u64) {
    // Relaxed: independent statistic, see the policy note above.
    cell.fetch_add(by, Ordering::Relaxed);
}

fn read(cell: &AtomicU64) -> u64 {
    // Relaxed: independent statistic, see the policy note above.
    cell.load(Ordering::Relaxed)
}

/// A fixed-bucket latency histogram.
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_MICROS.len()],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, elapsed: Duration) {
        let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        for (bound, bucket) in BUCKET_BOUNDS_MICROS.iter().zip(&self.buckets) {
            if micros <= *bound {
                bump(bucket, 1);
            }
        }
        bump(&self.count, 1);
        bump(&self.sum_micros, micros);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        read(&self.count)
    }

    fn render(&self, out: &mut String, name: &str, labels: &str) {
        use std::fmt::Write;
        for (bound, bucket) in BUCKET_BOUNDS_MICROS.iter().zip(&self.buckets) {
            let le = *bound as f64 / 1e6;
            let _ = writeln!(out, "{name}_bucket{{{labels}le=\"{le}\"}} {}", read(bucket));
        }
        let count = read(&self.count);
        let _ = writeln!(out, "{name}_bucket{{{labels}le=\"+Inf\"}} {count}");
        let _ = writeln!(
            out,
            "{name}_sum{{{labels}}} {}",
            read(&self.sum_micros) as f64 / 1e6
        );
        let _ = writeln!(out, "{name}_count{{{labels}}} {count}");
    }
}

/// The endpoints the router distinguishes for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `/api/v1/validity`
    Validity,
    /// `/vrps.json`
    VrpsJson,
    /// `/vrps.csv`
    VrpsCsv,
    /// `/api/v1/domain/{name}`
    Domain,
    /// `/metrics`
    Metrics,
    /// `/status`
    Status,
    /// Anything else (404s, bad requests, unknown paths).
    Other,
}

impl Endpoint {
    /// All endpoints, for iteration during rendering.
    pub const ALL: [Endpoint; 7] = [
        Endpoint::Validity,
        Endpoint::VrpsJson,
        Endpoint::VrpsCsv,
        Endpoint::Domain,
        Endpoint::Metrics,
        Endpoint::Status,
        Endpoint::Other,
    ];

    /// The Prometheus label value.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Validity => "validity",
            Endpoint::VrpsJson => "vrps_json",
            Endpoint::VrpsCsv => "vrps_csv",
            Endpoint::Domain => "domain",
            Endpoint::Metrics => "metrics",
            Endpoint::Status => "status",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            Endpoint::Validity => 0,
            Endpoint::VrpsJson => 1,
            Endpoint::VrpsCsv => 2,
            Endpoint::Domain => 3,
            Endpoint::Metrics => 4,
            Endpoint::Status => 5,
            Endpoint::Other => 6,
        }
    }
}

#[derive(Default)]
struct EndpointStats {
    requests: AtomicU64,
    errors: AtomicU64,
    latency: Histogram,
}

/// All serving metrics, shared across worker threads.
pub struct Metrics {
    started: Instant,
    endpoints: [EndpointStats; Endpoint::ALL.len()],
    connections: AtomicU64,
    connections_rejected: AtomicU64,
    open_connections: AtomicU64,
    admission_window: AtomicU64,
    connections_shed: AtomicU64,
    requests_shed: AtomicU64,
    read_timeouts: AtomicU64,
    write_stall_timeouts: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

impl Metrics {
    /// Fresh metrics; uptime counts from here.
    pub fn new() -> Metrics {
        Metrics {
            started: Instant::now(),
            endpoints: Default::default(),
            connections: AtomicU64::new(0),
            connections_rejected: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
            admission_window: AtomicU64::new(0),
            connections_shed: AtomicU64::new(0),
            requests_shed: AtomicU64::new(0),
            read_timeouts: AtomicU64::new(0),
            write_stall_timeouts: AtomicU64::new(0),
        }
    }

    fn stats(&self, endpoint: Endpoint) -> &EndpointStats {
        // lint: allow(no-panic) Endpoint::index enumerates 0..ALL.len()
        // and the array is sized by ALL.len(), so the bound holds by
        // construction.
        &self.endpoints[endpoint.index()]
    }

    /// Account one handled request (any status).
    pub fn record(&self, endpoint: Endpoint, status: u16, elapsed: Duration) {
        let stats = self.stats(endpoint);
        bump(&stats.requests, 1);
        if status >= 400 {
            bump(&stats.errors, 1);
        }
        stats.latency.observe(elapsed);
    }

    /// Account one accepted connection.
    pub fn connection_opened(&self) {
        bump(&self.connections, 1);
    }

    /// Account one connection turned away by the full queue (503).
    pub fn connection_rejected(&self) {
        bump(&self.connections_rejected, 1);
    }

    /// Publish the reactor's current open-connection count.
    pub fn set_open_connections(&self, n: u64) {
        // Relaxed: independent statistic, see the policy note above.
        self.open_connections.store(n, Ordering::Relaxed);
    }

    /// Open connections as last published by the reactor.
    pub fn open_connections(&self) -> u64 {
        read(&self.open_connections)
    }

    /// Publish the reactor's current admission-window size.
    pub fn set_admission_window(&self, n: u64) {
        // Relaxed: independent statistic, see the policy note above.
        self.admission_window.store(n, Ordering::Relaxed);
    }

    /// The load-adaptive admission window as last published.
    pub fn admission_window(&self) -> u64 {
        read(&self.admission_window)
    }

    /// Account one idle connection shed at the max-connection watermark.
    pub fn connection_shed(&self) {
        bump(&self.connections_shed, 1);
    }

    /// Account one queued request shed with a close-framed 503.
    pub fn request_shed(&self) {
        bump(&self.requests_shed, 1);
    }

    /// Account one read deadline firing (slow-loris or silent idle peer).
    pub fn read_timeout(&self) {
        bump(&self.read_timeouts, 1);
    }

    /// Read-deadline expiries so far.
    pub fn read_timeouts(&self) -> u64 {
        read(&self.read_timeouts)
    }

    /// Account one stalled-write connection being dropped.
    pub fn write_stall_timeout(&self) {
        bump(&self.write_stall_timeouts, 1);
    }

    /// Write-stall expiries so far.
    pub fn write_stall_timeouts(&self) -> u64 {
        read(&self.write_stall_timeouts)
    }

    /// Total requests across all endpoints.
    pub fn total_requests(&self) -> u64 {
        self.endpoints.iter().map(|s| read(&s.requests)).sum()
    }

    /// Seconds since the metrics were created.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Render the Prometheus text exposition. `epoch` and `vrp_count`
    /// come from the *current* epoch view so the scrape shows which
    /// world version the answers reflect.
    pub fn render(&self, epoch: u64, vrp_count: usize) -> String {
        self.render_with_slurm(epoch, vrp_count, None)
    }

    /// [`Metrics::render`] with the SLURM exception-layer gauges
    /// appended when a layer is configured (`(filtered, asserted)`
    /// VRP counts from the current view).
    pub fn render_with_slurm(
        &self,
        epoch: u64,
        vrp_count: usize,
        slurm: Option<(usize, usize)>,
    ) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(4096);
        if let Some((filtered, asserted)) = slurm {
            let _ = writeln!(
                out,
                "# HELP ripki_serve_slurm_filtered VRPs removed by RFC 8416 local filters."
            );
            let _ = writeln!(out, "# TYPE ripki_serve_slurm_filtered gauge");
            let _ = writeln!(out, "ripki_serve_slurm_filtered {filtered}");
            let _ = writeln!(
                out,
                "# HELP ripki_serve_slurm_asserted VRPs added by RFC 8416 local assertions."
            );
            let _ = writeln!(out, "# TYPE ripki_serve_slurm_asserted gauge");
            let _ = writeln!(out, "ripki_serve_slurm_asserted {asserted}");
        }
        let _ = writeln!(
            out,
            "# HELP ripki_serve_epoch Epoch of the currently served world view."
        );
        let _ = writeln!(out, "# TYPE ripki_serve_epoch gauge");
        let _ = writeln!(out, "ripki_serve_epoch {epoch}");
        let _ = writeln!(
            out,
            "# HELP ripki_serve_vrps Validated ROA payloads in the current epoch."
        );
        let _ = writeln!(out, "# TYPE ripki_serve_vrps gauge");
        let _ = writeln!(out, "ripki_serve_vrps {vrp_count}");
        let _ = writeln!(
            out,
            "# HELP ripki_serve_uptime_seconds Time since the server started."
        );
        let _ = writeln!(out, "# TYPE ripki_serve_uptime_seconds gauge");
        let _ = writeln!(
            out,
            "ripki_serve_uptime_seconds {:.3}",
            self.uptime().as_secs_f64()
        );
        let _ = writeln!(
            out,
            "# HELP ripki_http_connections_total Accepted TCP connections."
        );
        let _ = writeln!(out, "# TYPE ripki_http_connections_total counter");
        let _ = writeln!(
            out,
            "ripki_http_connections_total {}",
            read(&self.connections)
        );
        let _ = writeln!(
            out,
            "# HELP ripki_http_connections_rejected_total Connections refused by the full worker queue."
        );
        let _ = writeln!(out, "# TYPE ripki_http_connections_rejected_total counter");
        let _ = writeln!(
            out,
            "ripki_http_connections_rejected_total {}",
            read(&self.connections_rejected)
        );
        let _ = writeln!(
            out,
            "# HELP ripki_http_open_connections Connections currently held by the reactor."
        );
        let _ = writeln!(out, "# TYPE ripki_http_open_connections gauge");
        let _ = writeln!(
            out,
            "ripki_http_open_connections {}",
            read(&self.open_connections)
        );
        let _ = writeln!(
            out,
            "# HELP ripki_serve_admission_window Load-adaptive concurrent-dispatch window."
        );
        let _ = writeln!(out, "# TYPE ripki_serve_admission_window gauge");
        let _ = writeln!(
            out,
            "ripki_serve_admission_window {}",
            read(&self.admission_window)
        );
        let _ = writeln!(
            out,
            "# HELP ripki_http_connections_shed_total Idle connections shed at the max-connection watermark."
        );
        let _ = writeln!(out, "# TYPE ripki_http_connections_shed_total counter");
        let _ = writeln!(
            out,
            "ripki_http_connections_shed_total {}",
            read(&self.connections_shed)
        );
        let _ = writeln!(
            out,
            "# HELP ripki_http_requests_shed_total Requests answered 503 by ready-queue overflow shedding."
        );
        let _ = writeln!(out, "# TYPE ripki_http_requests_shed_total counter");
        let _ = writeln!(
            out,
            "ripki_http_requests_shed_total {}",
            read(&self.requests_shed)
        );
        let _ = writeln!(
            out,
            "# HELP ripki_http_read_timeouts_total Read deadlines fired (slow-loris or idle peers)."
        );
        let _ = writeln!(out, "# TYPE ripki_http_read_timeouts_total counter");
        let _ = writeln!(
            out,
            "ripki_http_read_timeouts_total {}",
            read(&self.read_timeouts)
        );
        let _ = writeln!(
            out,
            "# HELP ripki_http_write_stall_timeouts_total Connections dropped for stalled writes."
        );
        let _ = writeln!(out, "# TYPE ripki_http_write_stall_timeouts_total counter");
        let _ = writeln!(
            out,
            "ripki_http_write_stall_timeouts_total {}",
            read(&self.write_stall_timeouts)
        );
        let _ = writeln!(
            out,
            "# HELP ripki_http_requests_total Handled requests per endpoint."
        );
        let _ = writeln!(out, "# TYPE ripki_http_requests_total counter");
        for endpoint in Endpoint::ALL {
            let _ = writeln!(
                out,
                "ripki_http_requests_total{{endpoint=\"{}\"}} {}",
                endpoint.label(),
                read(&self.stats(endpoint).requests)
            );
        }
        let _ = writeln!(
            out,
            "# HELP ripki_http_errors_total Requests answered with a 4xx/5xx status."
        );
        let _ = writeln!(out, "# TYPE ripki_http_errors_total counter");
        for endpoint in Endpoint::ALL {
            let _ = writeln!(
                out,
                "ripki_http_errors_total{{endpoint=\"{}\"}} {}",
                endpoint.label(),
                read(&self.stats(endpoint).errors)
            );
        }
        let _ = writeln!(
            out,
            "# HELP ripki_http_request_duration_seconds Request handling latency."
        );
        let _ = writeln!(out, "# TYPE ripki_http_request_duration_seconds histogram");
        for endpoint in Endpoint::ALL {
            let labels = format!("endpoint=\"{}\",", endpoint.label());
            self.stats(endpoint).latency.render(
                &mut out,
                "ripki_http_request_duration_seconds",
                &labels,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(50));
        h.observe(Duration::from_micros(200));
        h.observe(Duration::from_micros(600));
        let mut out = String::new();
        h.render(&mut out, "x", "");
        assert!(out.contains("x_bucket{le=\"0.0001\"} 1"), "{out}");
        assert!(out.contains("x_bucket{le=\"0.00025\"} 2"), "{out}");
        assert!(out.contains("x_bucket{le=\"0.001\"} 3"), "{out}");
        assert!(out.contains("x_bucket{le=\"+Inf\"} 3"), "{out}");
        assert!(out.contains("x_count{} 3"), "{out}");
    }

    #[test]
    fn render_exposes_epoch_and_per_endpoint_counters() {
        let m = Metrics::new();
        m.record(Endpoint::Validity, 200, Duration::from_micros(120));
        m.record(Endpoint::Validity, 400, Duration::from_micros(80));
        m.record(Endpoint::VrpsJson, 200, Duration::from_millis(2));
        m.connection_opened();
        m.connection_rejected();
        let text = m.render(7, 123);
        assert!(text.contains("ripki_serve_epoch 7"), "{text}");
        assert!(text.contains("ripki_serve_vrps 123"), "{text}");
        assert!(
            text.contains("ripki_http_requests_total{endpoint=\"validity\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("ripki_http_errors_total{endpoint=\"validity\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("ripki_http_requests_total{endpoint=\"vrps_json\"} 1"),
            "{text}"
        );
        assert!(text.contains("ripki_http_connections_total 1"), "{text}");
        assert!(
            text.contains("ripki_http_connections_rejected_total 1"),
            "{text}"
        );
        assert!(
            text.contains(
                "ripki_http_request_duration_seconds_bucket{endpoint=\"validity\",le=\"+Inf\"} 2"
            ),
            "{text}"
        );
        assert_eq!(m.total_requests(), 3);
    }

    #[test]
    fn render_exposes_backpressure_gauges_and_counters() {
        let m = Metrics::new();
        m.set_open_connections(12);
        m.set_admission_window(7);
        m.connection_shed();
        m.request_shed();
        m.request_shed();
        m.read_timeout();
        m.write_stall_timeout();
        let text = m.render(1, 0);
        assert!(text.contains("ripki_http_open_connections 12"), "{text}");
        assert!(text.contains("ripki_serve_admission_window 7"), "{text}");
        assert!(
            text.contains("ripki_http_connections_shed_total 1"),
            "{text}"
        );
        assert!(text.contains("ripki_http_requests_shed_total 2"), "{text}");
        assert!(text.contains("ripki_http_read_timeouts_total 1"), "{text}");
        assert!(
            text.contains("ripki_http_write_stall_timeouts_total 1"),
            "{text}"
        );
        assert_eq!(m.open_connections(), 12);
        assert_eq!(m.admission_window(), 7);
        assert_eq!(m.read_timeouts(), 1);
        assert_eq!(m.write_stall_timeouts(), 1);
    }
}
