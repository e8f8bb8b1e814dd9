//! Pure endpoint handlers: `EpochView` in, JSON/CSV out.
//!
//! Nothing here touches sockets or locks — each function answers from
//! the single `EpochView` it is handed, which is what makes every
//! response attributable to exactly one epoch (and what the concurrency
//! test exploits: the `epoch` field stamped into each payload names the
//! view that produced it).
//!
//! The validity payload mirrors Routinator's `/api/v1/validity` shape
//! (`validated_route.route` + `validity.state/reason/description/VRPs`)
//! so existing RPKI tooling can point at the reproduction unchanged.

use crate::view::EpochView;
use ripki::pipeline::NameMeasurement;
use ripki_bgp::rov::{RpkiState, ValidityDetail, VrpTriple};
use ripki_net::{Asn, IpPrefix};
use serde_json::{Map, Value};

/// The wire spelling of an RFC 6811 state (Routinator uses kebab-case).
pub fn state_label(state: RpkiState) -> &'static str {
    match state {
        RpkiState::Valid => "valid",
        RpkiState::Invalid => "invalid",
        RpkiState::NotFound => "not-found",
    }
}

fn vrp_value(vrp: &VrpTriple) -> Value {
    let mut obj = Map::new();
    obj.insert("asn".into(), vrp.asn.to_string().into());
    obj.insert("prefix".into(), vrp.prefix.to_string().into());
    obj.insert("max_length".into(), vrp.max_length.into());
    Value::Object(obj)
}

fn vrp_list(vrps: &[VrpTriple]) -> Value {
    Value::Array(vrps.iter().map(vrp_value).collect())
}

/// `GET /api/v1/validity` — the RFC 6811 verdict for one announcement,
/// with the covering VRPs partitioned by why they did or did not match.
pub fn validity(view: &EpochView, prefix: &IpPrefix, origin: Asn) -> Value {
    // Answered from the view's effective validator, so a configured
    // SLURM exception layer changes verdicts and exports in lockstep.
    let detail: ValidityDetail = view.validity(prefix, origin);

    let mut route = Map::new();
    route.insert("origin_asn".into(), origin.to_string().into());
    route.insert("prefix".into(), prefix.to_string().into());

    let mut vrps = Map::new();
    vrps.insert("matched".into(), vrp_list(&detail.matched));
    vrps.insert("unmatched_as".into(), vrp_list(&detail.unmatched_asn));
    vrps.insert(
        "unmatched_length".into(),
        vrp_list(&detail.unmatched_length),
    );

    let mut validity = Map::new();
    validity.insert("state".into(), state_label(detail.state).into());
    if let Some(reason) = detail.reason() {
        validity.insert("reason".into(), reason.into());
    }
    validity.insert("description".into(), detail.description().into());
    validity.insert("VRPs".into(), Value::Object(vrps));

    let mut validated = Map::new();
    validated.insert("route".into(), Value::Object(route));
    validated.insert("validity".into(), Value::Object(validity));

    let mut root = Map::new();
    root.insert("validated_route".into(), Value::Object(validated));
    root.insert("epoch".into(), view.epoch().into());
    Value::Object(root)
}

fn name_measurement_value(view: &EpochView, m: &NameMeasurement) -> Value {
    let mut obj = Map::new();
    obj.insert(
        "addresses".into(),
        Value::Array(m.addresses.iter().map(|a| a.to_string().into()).collect()),
    );
    obj.insert(
        "cname_chain".into(),
        Value::Array(m.cname_chain.iter().map(|n| n.as_str().into()).collect()),
    );
    obj.insert("resolve_failed".into(), m.resolve_failed.into());
    obj.insert("dnssec_authenticated".into(), m.dnssec_authenticated.into());
    let pairs: Vec<Value> = m
        .pairs
        .iter()
        .map(|p| {
            let mut pair = Map::new();
            pair.insert("prefix".into(), p.prefix.to_string().into());
            pair.insert("origin".into(), p.origin.to_string().into());
            pair.insert("state".into(), state_label(p.state).into());
            // Re-deriving the reason from the snapshot is sound because
            // the view binds these measurements to this validator.
            if let Some(reason) = view.snapshot().validity(&p.prefix, p.origin).reason() {
                pair.insert("reason".into(), reason.into());
            }
            Value::Object(pair)
        })
        .collect();
    obj.insert("pairs".into(), Value::Array(pairs));
    let (covered, total) = m.coverage_counts();
    let mut coverage = Map::new();
    coverage.insert("covered".into(), covered.into());
    coverage.insert("total".into(), total.into());
    obj.insert("coverage".into(), Value::Object(coverage));
    Value::Object(obj)
}

/// `GET /api/v1/domain/{name}` — the stored measurement of one ranked
/// domain plus its hijack exposure, or `None` for unmeasured names.
pub fn domain(view: &EpochView, name: &ripki_dns::DomainName) -> Option<Value> {
    let (index, d) = view.domain_entry(name)?;
    let mut root = Map::new();
    root.insert("epoch".into(), view.epoch().into());
    root.insert("rank".into(), d.rank.into());
    root.insert("listed".into(), d.listed.as_str().into());
    root.insert("www".into(), name_measurement_value(view, &d.www));
    root.insert("bare".into(), name_measurement_value(view, &d.bare));
    root.insert("equal_prefixes".into(), d.equal_prefixes().into());
    // The hijack simulation behind this value is the endpoint's only
    // expensive step, so the view memoizes it per (epoch, domain).
    let exposure = match view.exposure(index) {
        Some((capture_rate, fully_covered)) => {
            let mut obj = Map::new();
            obj.insert("capture_rate".into(), capture_rate.into());
            obj.insert("fully_covered".into(), fully_covered.into());
            Value::Object(obj)
        }
        // No topology, or measured but not simulable.
        None => Value::Null,
    };
    root.insert("exposure".into(), exposure);
    Some(Value::Object(root))
}

/// `GET /status` — one-look liveness summary. `worker_threads` is the
/// effective pool size actually handling requests and `epoch_lag` the
/// distance between the served epoch and the newest epoch known to
/// exist upstream (0 when fully caught up) — the two numbers an
/// operator needs to tell "quiet" from "stuck". `open_connections` and
/// `admission_window` expose the reactor's live backpressure state.
#[allow(clippy::too_many_arguments)]
pub fn status(
    view: &EpochView,
    uptime_seconds: f64,
    requests_total: u64,
    worker_threads: usize,
    epoch_lag: u64,
    open_connections: u64,
    admission_window: u64,
) -> Value {
    let mut root = Map::new();
    root.insert("epoch".into(), view.epoch().into());
    root.insert("epoch_lag".into(), epoch_lag.into());
    // The served payload, not the raw snapshot: with a SLURM exception
    // layer the two differ and the exports serve the former.
    root.insert("vrps".into(), view.payload().len().into());
    root.insert(
        "rpki_rejected".into(),
        view.snapshot().rpki_rejected().into(),
    );
    if let Some(stats) = view.slurm_stats() {
        root.insert("slurm_filtered".into(), stats.filtered.into());
        root.insert("slurm_asserted".into(), stats.asserted.into());
    }
    root.insert("domains".into(), view.results().domains.len().into());
    root.insert("uptime_seconds".into(), uptime_seconds.into());
    root.insert("requests_total".into(), requests_total.into());
    root.insert("worker_threads".into(), worker_threads.into());
    root.insert("open_connections".into(), open_connections.into());
    root.insert("admission_window".into(), admission_window.into());
    Value::Object(root)
}
