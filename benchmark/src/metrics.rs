//! The one metric vocabulary: every name the benchmark prints, with its
//! unit and direction. `BENCHMARK.json` is generated from these tables
//! (`-- manifest`) and a unit test keeps the two identical.

use std::collections::BTreeMap;
use std::fmt::Write;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better: "lower",
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "lower",
        bound: 0.0,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "higher",
        bound: 0.0,
    }
}

/// Gated, reported by every workload with `--trace 0`. What `op` and
/// `origin` mean per workload is in `workloads::WORKLOADS` and the README.
///
/// The bounds are three times the widest ten-seed spread measured on
/// the 2-core reference host (README, *Noise*), capped at the 0.25 the
/// driver allows: CPU-bound readings move by 12 % with the host's two
/// speed states, memory and timer-bound ones hardly at all.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mib", "MiB", 0.1),
    e2e("cpu_ms_per_op", "ms", 0.25),
    e2e("op_ms_p50", "ms", 0.25),
    e2e("origin_ms_p50", "ms", 0.25),
];

/// Ungated, reported with `--trace 1`. Grouped by the crate whose
/// public call the benchmark times (or whose sockets it watches).
pub const PER_LAYER: &[Def] = &[
    // The issue's workload-specific end-to-end names, each measured on
    // the workloads that have the thing it names.
    lower("study_ms_p50", "ms"),
    lower("event_to_cache_ms_p50", "ms"),
    lower("event_to_http_ms_p50", "ms"),
    lower("event_to_router_ms_p50", "ms"),
    lower("event_to_router_ms_p90", "ms"),
    lower("router_cold_sync_ms_p50", "ms"),
    higher("query_req_per_s", "1/s"),
    lower("query_ms_p50", "ms"),
    lower("query_ms_p99", "ms"),
    // websim / generator
    lower("websim.scenario_build_s", "s"),
    lower("websim.next_epoch_ms_p50", "ms"),
    lower("gen.late_ms_p90", "ms"),
    higher("gen.events_per_epoch", "count"),
    // rpki
    lower("rpki.full_validate_ms", "ms"),
    lower("rpki.apply_ms_p50", "ms"),
    lower("rpki.apply_ms_p90", "ms"),
    lower("rpki.objects_revalidated_per_epoch", "count"),
    higher("rpki.points_reused_share", "%"),
    // ripki
    lower("ripki.engine_new_ms", "ms"),
    lower("ripki.run_ms", "ms"),
    lower("ripki.figures_ms", "ms"),
    lower("ripki.index_build_ms", "ms"),
    lower("ripki.apply_events_ms_p50", "ms"),
    lower("ripki.apply_events_ms_p90", "ms"),
    lower("ripki.apply_events_ms_p99", "ms"),
    lower("ripki.domains_remeasured_per_epoch", "count"),
    // dns, bgp, net-types
    lower("dns.resolve_us_p50", "us"),
    lower("bgp.validity_ns_p50", "ns"),
    lower("net.trie_covering_ns_p50", "ns"),
    // par
    higher("par.threads_effective", "count"),
    higher("par.run_speedup_vs_1", "x"),
    // slurm
    lower("slurm.ingest_us_p50", "us"),
    higher("slurm.filtered_vrps", "count"),
    higher("slurm.asserted_vrps", "count"),
    // payload
    lower("payload.apply_ms_p50", "ms"),
    lower("payload.from_previous_ms_p50", "ms"),
    lower("payload.json_write_ms", "ms"),
    lower("payload.json_parse_ms", "ms"),
    lower("payload.json_bytes", "B"),
    // proxy
    lower("proxy.gossip_hop_us_p50", "us"),
    lower("proxy.relay_hop_ms_p50", "ms"),
    lower("proxy.relay_hop_ms_p90", "ms"),
    lower("proxy.epochs_conflated", "count"),
    // rtr
    lower("rtr.cache_apply_delta_us_p50", "us"),
    lower("rtr.cache_install_snapshot_ms", "ms"),
    lower("rtr.handle_serial_query_us_p50", "us"),
    lower("rtr.encode_reset_ms", "ms"),
    lower("rtr.client_delta_sync_ms_p50", "ms"),
    lower("rtr.client_reset_sync_ms_p50", "ms"),
    lower("rtr.notify_wait_ms_p50", "ms"),
    lower("rtr.pdu_bytes_per_epoch", "B"),
    // serve
    lower("serve.view_build_ms_p50", "ms"),
    lower("serve.results_clone_ms_p50", "ms"),
    lower("serve.validity_ms_p50", "ms"),
    lower("serve.validity_ms_p99", "ms"),
    lower("serve.domain_ms_p50", "ms"),
    lower("serve.domain_ms_p99", "ms"),
    lower("serve.vrps_json_ms_p50", "ms"),
    lower("serve.shed_503", "count"),
    lower("serve.reconnects", "count"),
    // The churn stage table: mean time per stage of one event, in
    // chain order; the rows and `unattributed` sum to the mean
    // event-to-router latency.
    lower("stage.queue_wait_ms", "ms"),
    lower("stage.apply_ms", "ms"),
    lower("stage.payload_build_ms", "ms"),
    lower("stage.view_build_ms", "ms"),
    lower("stage.cache_apply_ms", "ms"),
    lower("stage.relay_hop_ms", "ms"),
    lower("stage.router_sync_ms", "ms"),
    // harness: validity of the run
    higher("host.calib_mops_min", "Mops"),
    higher("host.calib_mops_max", "Mops"),
    lower("trace.overhead_pct", "%"),
    lower("trace.unattributed_pct", "%"),
    higher("trace.spans", "count"),
];

fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Measured values by catalogued name, each with its sample count.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<&'static str, (f64, usize)>);

impl Metrics {
    pub fn new() -> Metrics {
        Metrics(BTreeMap::new())
    }

    /// Record `value` under a catalogued name; a name outside the
    /// catalog is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let def = def(name).unwrap_or_else(|| panic!("metric {name:?} is not in the catalog"));
        self.0.insert(def.name, (value, samples));
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    /// Add every metric of `other` that this set does not hold yet.
    pub fn fill_from(&mut self, other: &Metrics) {
        for (name, entry) in &other.0 {
            self.0.entry(name).or_insert(*entry);
        }
    }

    /// Names of `table` with no value here.
    pub fn missing(&self, table: &[Def]) -> Vec<&'static str> {
        table
            .iter()
            .map(|d| d.name)
            .filter(|n| !self.0.contains_key(n))
            .collect()
    }

    /// One line per metric: name, value, unit, sample count.
    pub fn render(&self, table: &[Def]) -> String {
        let mut out = String::new();
        for d in table {
            if let Some((value, samples)) = self.0.get(d.name) {
                let _ = writeln!(
                    out,
                    "  {:<38} {:>14.4} {:<6} n={}",
                    d.name, value, d.unit, samples
                );
            }
        }
        out
    }

    /// The `metrics` object of the result line, restricted to `table`.
    pub fn json(&self, table: &[Def]) -> String {
        let fields: Vec<String> = table
            .iter()
            .filter_map(|d| {
                let (value, _) = self.0.get(d.name)?;
                Some(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(*value),
                    d.unit
                ))
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A float as JSON with all its digits (`NaN`/infinite become `null`,
/// which the reader treats as a missing value).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn fill_from_keeps_own_values() {
        let mut own = Metrics::new();
        own.set("trace.overhead_pct", 1.5, 10);
        let mut other = Metrics::new();
        other.set("trace.overhead_pct", 9.0, 3);
        other.set("trace.spans", 12.0, 1);
        own.fill_from(&other);
        assert_eq!(own.get("trace.overhead_pct"), Some(1.5));
        assert_eq!(own.get("trace.spans"), Some(12.0));
        assert!(own
            .json(PER_LAYER)
            .contains("\"trace.spans\": {\"value\": 12, \"unit\": \"count\"}"));
    }
}
