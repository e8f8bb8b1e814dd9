//! The four workloads and what they share: the run plan, the outcome,
//! and failed-operation accounting.

pub mod churn;
pub mod churn_rpki;
pub mod churn_web;
pub mod query_mixed;
pub mod study_full;

use crate::host::{self, HostGuard};
use crate::metrics::Metrics;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::world::Size;
use std::fmt::Write;
use std::time::{Duration, Instant};

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub size: Size,
    /// Length of the timed window; operation counts derive from it by
    /// fixed factors, so equal `seconds` means equal work.
    pub seconds: u64,
    /// Record spans on every second operation and report per-layer
    /// metrics.
    pub traced: bool,
    /// How often the set-up is run (`setup_s` is the median). The
    /// first run feeds the timed window; the others follow the window
    /// and are torn down at once, so `peak_rss_mib`, read before them
    /// (`study_full`: before the window too), is that of one set-up and
    /// one window, as a user would see it.
    pub setup_reps: usize,
}

impl Plan {
    /// Whether operation `i` of a window records spans: every second
    /// one of a traced pass, so traced and untraced operations share
    /// one window and their difference is the tracing overhead.
    pub fn traces(&self, i: usize) -> bool {
        self.traced && i % 2 == 1
    }
}

/// Operations attempted and failed. A wrong answer, a non-200, a
/// catch-up timeout and a reference mismatch each fail one operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// What a run produces; workloads fill it in as they go.
pub struct Outcome {
    pub checks: Checks,
    pub e2e: Metrics,
    pub layers: Metrics,
    pub tracer: Tracer,
    /// Human-readable lines (stage table, notes).
    pub text: String,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            checks: Checks::default(),
            e2e: Metrics::new(),
            layers: Metrics::new(),
            tracer: Tracer::new(Instant::now()),
            text: String::new(),
        }
    }

    /// Give up on the run with one failed operation.
    pub fn abandoned(mut self, why: String) -> Outcome {
        self.checks.expect(false, || why);
        self
    }

    pub fn note(&mut self, line: std::fmt::Arguments<'_>) {
        let _ = writeln!(self.text, "{line}");
    }

    /// The metrics every workload reports the same way.
    pub fn common_metrics(
        &mut self,
        setup: &Samples,
        generation_s: f64,
        peak_rss_mib: f64,
        totals: &WindowTotals,
        ops: usize,
    ) {
        let e2e = &mut self.e2e;
        e2e.set("setup_s", generation_s + setup.median(), setup.len());
        e2e.set("peak_rss_mib", peak_rss_mib, 1);
        e2e.set("cpu_ms_per_op", totals.cpu_ms / ops.max(1) as f64, ops);
        self.layers.set("host.calib_mops_min", totals.calib_min, 1);
        self.layers.set("host.calib_mops_max", totals.calib_max, 1);
    }
}

/// Wall, CPU and host-speed accounting of one timed window. Work the
/// harness does inside the window for its own sake (calibration
/// readings, per-iteration reference checks) is single-threaded and is
/// subtracted from both wall and CPU.
pub struct Window {
    started: Instant,
    cpu_start_ms: f64,
    excluded: Duration,
    pub guard: HostGuard,
}

pub struct WindowTotals {
    pub wall: Duration,
    pub cpu_ms: f64,
    pub calib_min: f64,
    pub calib_max: f64,
}

impl Window {
    pub fn open() -> Window {
        let guard = HostGuard::start();
        Window {
            started: Instant::now(),
            cpu_start_ms: host::process_cpu_ms(),
            excluded: Duration::ZERO,
            guard,
        }
    }

    /// Run harness-only work inside the window without charging it.
    pub fn excluded<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        self.excluded += started.elapsed();
        out
    }

    pub fn close(self) -> WindowTotals {
        let wall = self.started.elapsed();
        let cpu_ms = host::process_cpu_ms() - self.cpu_start_ms;
        let excluded = self.excluded + self.guard.spent();
        let (calib_min, calib_max) = self.guard.finish();
        WindowTotals {
            wall: wall.saturating_sub(excluded),
            cpu_ms: (cpu_ms - excluded.as_secs_f64() * 1e3).max(0.0),
            calib_min,
            calib_max,
        }
    }
}

/// Tracing overhead from one window in which every second operation
/// recorded spans: the median difference between each traced operation
/// and the untraced one just before it, as a share of the untraced
/// median. Pairing neighbours cancels host drift across the window.
/// Returns the percentage and the number of pairs.
pub fn overhead_pct(values: &[f64]) -> (f64, usize) {
    let differences: Samples = values
        .chunks_exact(2)
        .map(|pair| pair[1] - pair[0])
        .collect();
    let untraced: Samples = values.chunks_exact(2).map(|pair| pair[0]).collect();
    (
        differences.median() / untraced.median() * 100.0,
        differences.len(),
    )
}

pub struct WorkloadDef {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// What `op_ms_p50` measures here.
    pub op: &'static str,
    /// What `origin_ms_p50` measures here.
    pub origin: &'static str,
    pub run: fn(&Plan) -> Outcome,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "study_full",
        why: "batch study of the 100k-domain world: rpki validate, dns, bgp rov, engine full path, par; no fabric or serving code runs (bypass)",
        op: "study_ms: world in memory -> results and every figure/table complete",
        origin: "StudyEngine::new + run complete (results exist, figures not yet)",
        run: study_full::run,
    },
    WorkloadDef {
        name: "churn_web",
        why: "open loop, a web churn batch every 410 ms through apply_events, view publish, RTR cache, proxy hop, router: CPU is engine+serve, latency is timers",
        op: "event_to_router_ms: event due -> router behind the proxy hop synced its epoch",
        origin: "event_to_cache_ms: event due -> origin CacheServer holds the epoch",
        run: churn_web::run,
    },
    WorkloadDef {
        name: "churn_rpki",
        why: "open loop, a 100k-VRP repository snapshot every 410 ms through incremental validation, payload, slurm, proxy, rtr; engine/dns/serve idle (bypass)",
        op: "event_to_router_ms: event due -> router behind the proxy hop synced its epoch",
        origin: "event_to_cache_ms: event due -> origin CacheServer holds the epoch",
        run: churn_rpki::run,
    },
    WorkloadDef {
        name: "query_mixed",
        why: "closed-loop HTTP reads (validity, domain, status, export) on 2 connections beside an epoch publish every 1010 ms: readers and writers share serve",
        op: "query_ms: request sent -> full body read",
        origin: "event_to_http_ms: publish due -> a validity answer carries that epoch",
        run: query_mixed::run,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_pairs_each_traced_operation_with_its_predecessor() {
        // (untraced, traced) pairs: +1 on 10, +2 on 20, +3 on 30.
        let (pct, pairs) = overhead_pct(&[10.0, 11.0, 20.0, 22.0, 30.0, 33.0, 99.0]);
        assert_eq!(pairs, 3);
        assert_eq!(pct, 2.0 / 20.0 * 100.0);
    }
}
