//! RFC 8416 SLURM: Simplified Local Internet Number Resource
//! Management with the RPKI.
//!
//! A SLURM file lets a relying party overrule the globally validated
//! VRP set with *local* knowledge: `prefixFilters` remove VRPs the
//! operator considers wrong for their network, `prefixAssertions` add
//! VRPs the global RPKI does not (yet) carry. This crate parses and
//! validates the RFC 8416 JSON shape ([`SlurmFile::parse`]), compiles
//! it into an efficient matcher ([`SlurmFile::compile`] →
//! [`ExceptionSet`]), and applies it over the `ripki-payload` currency
//! **per epoch and delta-aware**: a [`SlurmApplier`] maps a whole
//! [`PayloadUpdate`] — snapshot *and* delta — so exceptions compose
//! with `VrpDelta` streaming without forcing downstream hops into
//! snapshot rebuilds. The governing algebra is commutation:
//!
//! ```text
//! excepted(base).apply(map_delta(d))  ==  excepted(base.apply(d))
//! ```
//!
//! BGPsec filters and assertions are parsed but ignored (the simulation
//! does not model BGPsec); ignoring them is surfaced through
//! [`SlurmFile::warnings`], never silently.

use ripki_bgp::rov::VrpTriple;
use ripki_net::{Asn, IpPrefix};
use ripki_payload::{PayloadUpdate, VrpDelta, VrpPayload};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A SLURM document that cannot be used, with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlurmError(pub String);

impl fmt::Display for SlurmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slurm: {}", self.0)
    }
}

impl std::error::Error for SlurmError {}

fn err(message: impl Into<String>) -> SlurmError {
    SlurmError(message.into())
}

/// One RFC 8416 §3.3.1 prefix filter: drop every VRP whose prefix is
/// equal to or covered by `prefix` (when present) and whose origin
/// equals `asn` (when present). At least one of the two is required.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixFilter {
    /// Covering prefix to match VRPs against, if any.
    pub prefix: Option<IpPrefix>,
    /// Origin ASN to match VRPs against, if any.
    pub asn: Option<Asn>,
    /// Operator-facing explanation from the file, if any.
    pub comment: Option<String>,
}

impl PrefixFilter {
    /// Whether this filter removes `vrp` (RFC 8416 §3.3.1: every
    /// present member must match).
    pub fn matches(&self, vrp: &VrpTriple) -> bool {
        if let Some(prefix) = &self.prefix {
            if !prefix.covers(&vrp.prefix) {
                return false;
            }
        }
        if let Some(asn) = self.asn {
            if asn != vrp.asn {
                return false;
            }
        }
        true
    }
}

/// One RFC 8416 §3.4.1 prefix assertion: a VRP the operator adds
/// locally, present in the excepted set at every epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixAssertion {
    /// Asserted prefix.
    pub prefix: IpPrefix,
    /// Asserted origin.
    pub asn: Asn,
    /// Maximum announcement length; defaults to the prefix length.
    pub max_length: Option<u8>,
    /// Operator-facing explanation from the file, if any.
    pub comment: Option<String>,
}

impl PrefixAssertion {
    /// The VRP this assertion contributes.
    pub fn vrp(&self) -> VrpTriple {
        VrpTriple {
            prefix: self.prefix,
            max_length: self.max_length.unwrap_or_else(|| self.prefix.len()),
            asn: self.asn,
        }
    }
}

/// A parsed and validated RFC 8416 SLURM document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlurmFile {
    /// `validationOutputFilters.prefixFilters`, in file order.
    pub filters: Vec<PrefixFilter>,
    /// `locallyAddedAssertions.prefixAssertions`, in file order.
    pub assertions: Vec<PrefixAssertion>,
    /// Non-fatal findings (ignored BGPsec sections). The caller decides
    /// where these surface; library code never prints.
    pub warnings: Vec<String>,
}

impl SlurmFile {
    /// Parse an RFC 8416 SLURM JSON document.
    ///
    /// `slurmVersion` must be 1; prefix filters need at least one of
    /// `prefix`/`asn`; assertions need both `prefix` and `asn` and a
    /// `maxPrefixLength` (when given) within `[len(prefix), family
    /// bits]`. `bgpsecFilters`/`bgpsecAssertions` are ignored with a
    /// warning. Unknown members are ignored, malformed ones are errors —
    /// a typo in an operator's exception file must never silently
    /// change which routes get dropped.
    pub fn parse(text: &str) -> Result<SlurmFile, SlurmError> {
        let root: serde_json::Value =
            serde_json::from_str(text).map_err(|e| err(format!("invalid JSON: {e}")))?;
        let field = |v: &serde_json::Value, key: &str| -> Option<serde_json::Value> {
            v.as_object().and_then(|m| m.get(key)).cloned()
        };
        root.as_object()
            .ok_or_else(|| err("top level must be an object"))?;
        let version = field(&root, "slurmVersion")
            .and_then(|v| v.as_u128())
            .ok_or_else(|| err("missing slurmVersion"))?;
        if version != 1 {
            return Err(err(format!(
                "unsupported slurmVersion {version} (expected 1)"
            )));
        }
        let mut file = SlurmFile::default();
        let section =
            |v: &serde_json::Value, name: &str| -> Result<Vec<serde_json::Value>, SlurmError> {
                match field(v, name) {
                    None => Ok(Vec::new()),
                    Some(arr) => arr
                        .as_array()
                        .map(<[serde_json::Value]>::to_vec)
                        .ok_or_else(|| err(format!("{name} must be an array"))),
                }
            };
        if let Some(filters) = field(&root, "validationOutputFilters") {
            for (i, entry) in section(&filters, "prefixFilters")?.iter().enumerate() {
                file.filters.push(parse_filter(entry, i)?);
            }
            let bgpsec = section(&filters, "bgpsecFilters")?;
            if !bgpsec.is_empty() {
                file.warnings.push(format!(
                    "ignoring {} bgpsecFilters (BGPsec is not modeled)",
                    bgpsec.len()
                ));
            }
        }
        if let Some(assertions) = field(&root, "locallyAddedAssertions") {
            for (i, entry) in section(&assertions, "prefixAssertions")?.iter().enumerate() {
                file.assertions.push(parse_assertion(entry, i)?);
            }
            let bgpsec = section(&assertions, "bgpsecAssertions")?;
            if !bgpsec.is_empty() {
                file.warnings.push(format!(
                    "ignoring {} bgpsecAssertions (BGPsec is not modeled)",
                    bgpsec.len()
                ));
            }
        }
        Ok(file)
    }

    /// Read and parse a SLURM file from disk.
    pub fn load(path: &std::path::Path) -> Result<SlurmFile, SlurmError> {
        let text =
            std::fs::read_to_string(path).map_err(|e| err(format!("{}: {e}", path.display())))?;
        SlurmFile::parse(&text)
    }

    /// Compile into the matcher applied on the payload path.
    pub fn compile(&self) -> ExceptionSet {
        let mut asn_filters = BTreeSet::new();
        let mut prefix_rules = Vec::new();
        for filter in &self.filters {
            match (filter.prefix, filter.asn) {
                // Validated at parse time: a filter carries at least
                // one of prefix/asn.
                (None, Some(asn)) => {
                    asn_filters.insert(asn);
                }
                (Some(prefix), asn) => prefix_rules.push((prefix, asn)),
                (None, None) => {}
            }
        }
        ExceptionSet {
            asn_filters,
            prefix_rules,
            asserted: Arc::new(self.assertions.iter().map(PrefixAssertion::vrp).collect()),
        }
    }
}

/// The compiled exception matcher: which VRPs the local operator drops
/// and which they add. Cheap to clone (the assertion set is shared).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExceptionSet {
    /// Filters that match on ASN alone: one set lookup per VRP.
    asn_filters: BTreeSet<Asn>,
    /// Filters that match on a covering prefix (optionally AND an ASN).
    prefix_rules: Vec<(IpPrefix, Option<Asn>)>,
    /// VRPs asserted locally — present in every excepted epoch.
    asserted: Arc<BTreeSet<VrpTriple>>,
}

/// What applying an [`ExceptionSet`] to one payload epoch did, for
/// `/status` and `/metrics` surfacing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlurmStats {
    /// VRPs the filters removed from this epoch's set.
    pub filtered: usize,
    /// Asserted VRPs added (not already present after filtering).
    pub asserted: usize,
}

impl ExceptionSet {
    /// An exception set that changes nothing.
    pub fn empty() -> ExceptionSet {
        ExceptionSet::default()
    }

    /// Whether this set neither filters nor asserts anything.
    pub fn is_empty(&self) -> bool {
        self.asn_filters.is_empty() && self.prefix_rules.is_empty() && self.asserted.is_empty()
    }

    /// Number of compiled filter rules.
    pub fn filter_rule_count(&self) -> usize {
        self.asn_filters.len() + self.prefix_rules.len()
    }

    /// Number of locally asserted VRPs.
    pub fn assertion_count(&self) -> usize {
        self.asserted.len()
    }

    /// The locally asserted VRPs.
    pub fn asserted(&self) -> &BTreeSet<VrpTriple> {
        &self.asserted
    }

    /// Whether the filters drop `vrp` from the validated set.
    pub fn filters_out(&self, vrp: &VrpTriple) -> bool {
        self.asn_filters.contains(&vrp.asn)
            || self
                .prefix_rules
                .iter()
                .any(|(prefix, asn)| prefix.covers(&vrp.prefix) && asn.is_none_or(|a| a == vrp.asn))
    }

    /// The excepted set at `payload`'s epoch: filters applied, then
    /// assertions added (assertions are local truth — they are not
    /// themselves subject to the filters, per RFC 8416 §4).
    pub fn excepted(&self, payload: &VrpPayload) -> VrpPayload {
        self.excepted_with_stats(payload).0
    }

    /// [`ExceptionSet::excepted`], also reporting what changed.
    pub fn excepted_with_stats(&self, payload: &VrpPayload) -> (VrpPayload, SlurmStats) {
        let mut vrps: Vec<VrpTriple> = payload
            .vrps()
            .iter()
            .filter(|vrp| !self.filters_out(vrp))
            .copied()
            .collect();
        let kept = vrps.len();
        vrps.extend(self.asserted.iter().copied());
        // The set drops assertions the filtered input already held.
        let excepted = VrpPayload::new(payload.epoch(), vrps);
        let stats = SlurmStats {
            filtered: payload.len() - kept,
            asserted: excepted.len() - kept,
        };
        (excepted, stats)
    }

    /// Map a delta through the exceptions so it chains between
    /// *excepted* epochs: filtered VRPs never enter the excepted set
    /// (drop their announcements and withdrawals), asserted VRPs never
    /// leave it (drop their withdrawals; announcements are redundant).
    /// This is the half that makes exceptions compose with streaming —
    /// `excepted(base).apply(map_delta(d)) == excepted(base.apply(d))`
    /// (the commutation proptest in `tests/commute_prop.rs`).
    pub fn map_delta(&self, delta: &VrpDelta) -> VrpDelta {
        // The R5 bargain for this blessed module: the epochs below are
        // copied verbatim, so forward motion must be re-asserted here
        // rather than inherited from a constructor.
        assert!(
            delta.to_epoch > delta.from_epoch,
            "slurm can only map forward deltas ({} -> {})",
            delta.from_epoch,
            delta.to_epoch,
        );
        let keep = |vrp: &&VrpTriple| !self.filters_out(vrp) && !self.asserted.contains(vrp);
        VrpDelta {
            from_epoch: delta.from_epoch,
            to_epoch: delta.to_epoch,
            announced: delta.announced.iter().filter(keep).copied().collect(),
            withdrawn: delta.withdrawn.iter().filter(keep).copied().collect(),
        }
    }
}

/// What feeding one source update through a [`SlurmApplier`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedUpdate {
    /// The excepted update to publish downstream.
    pub update: PayloadUpdate,
    /// True when the source delta chained and the output stayed
    /// incremental (no snapshot rebuild).
    pub incremental: bool,
    /// True when a present-but-stale delta forced a snapshot re-sync
    /// (counted in [`SlurmApplier::resyncs`]).
    pub resync: bool,
}

/// A stateful exception applier for fabric hops: holds the compiled
/// exceptions, the last excepted output, and the epoch offset
/// introduced by hot reloads.
///
/// Two invariants make it delta-aware end to end:
///
/// - A source delta that chains is *mapped*, not re-excepted: the next
///   output is `last_out.apply(map_delta(d))` — O(|delta|), correct by
///   the commutation law. (The cost claim rests on the payload's set:
///   `apply` copies the chunks the delta touches and shares the rest
///   with `last_out`, and `last_raw` is a handle on the source's set.)
/// - A hot [`SlurmApplier::reload`] publishes a **new epoch** without a
///   new source epoch by bumping a constant offset added to every
///   source epoch from then on, so later source deltas still chain
///   downstream instead of degenerating into permanent snapshot mode.
///
/// A source update whose delta does *not* chain (stale base after a
/// missed epoch — e.g. the upstream unit died and resumed mid-stream)
/// triggers an explicit snapshot re-sync, counted, never a silent skip.
#[derive(Debug, Clone, Default)]
pub struct SlurmApplier {
    exceptions: ExceptionSet,
    /// Epochs added on top of the source epoch space; +1 per reload.
    offset: u64,
    /// Last raw source payload (re-excepted on reload).
    last_raw: Option<VrpPayload>,
    /// Last excepted output (the delta base).
    last_out: Option<VrpPayload>,
    stats: SlurmStats,
    resyncs: u64,
}

impl SlurmApplier {
    /// Start applying `exceptions` with no payload seen yet.
    pub fn new(exceptions: ExceptionSet) -> SlurmApplier {
        SlurmApplier {
            exceptions,
            ..SlurmApplier::default()
        }
    }

    /// The currently active exception set.
    pub fn exceptions(&self) -> &ExceptionSet {
        &self.exceptions
    }

    /// What the exceptions did to the current epoch's set.
    pub fn stats(&self) -> SlurmStats {
        self.stats
    }

    /// How many stale deltas forced a snapshot re-sync so far.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// The last source payload ingested — the base the next chaining
    /// source delta advances.
    pub fn last_raw(&self) -> Option<&VrpPayload> {
        self.last_raw.as_ref()
    }

    /// The last excepted output, if any epoch has been ingested.
    pub fn last_out(&self) -> Option<&VrpPayload> {
        self.last_out.as_ref()
    }

    /// Feed one source update through the exceptions. Returns `None`
    /// when the update does not advance the output epoch.
    pub fn ingest(&mut self, source: &PayloadUpdate) -> Option<AppliedUpdate> {
        let out_epoch = source.payload.epoch() + self.offset;
        if self
            .last_out
            .as_ref()
            .is_some_and(|prev| prev.epoch() >= out_epoch)
        {
            return None;
        }
        // Fast path: the source delta chains from our held base (in
        // shifted epoch space) — map it and apply, O(|delta|).
        if let (Some(prev), Some(delta)) = (&self.last_out, &source.delta) {
            if delta.from_epoch + self.offset == prev.epoch() {
                let mapped = shift_delta(self.exceptions.map_delta(delta), self.offset);
                let next = prev.apply(&mapped)?;
                self.track_delta(delta);
                self.last_raw = Some(source.payload.clone());
                self.last_out = Some(next.clone());
                return Some(AppliedUpdate {
                    update: PayloadUpdate {
                        payload: next,
                        delta: Some(mapped),
                    },
                    incremental: true,
                    resync: false,
                });
            }
        }
        // Snapshot path: first epoch, delta-less source, or a stale
        // base after a missed epoch. The last case is the counted
        // re-sync; all of them still hand downstream a diff delta when
        // we have a base, so *they* stay incremental.
        let resync = self.last_out.is_some() && source.delta.is_some();
        if resync {
            self.resyncs += 1;
        }
        let (excepted, stats) = self.exceptions.excepted_with_stats(&source.payload);
        let out = VrpPayload::from_shared(out_epoch, excepted.shared_vrps());
        let update = match &self.last_out {
            Some(prev) => PayloadUpdate::from_previous(prev, out.clone()),
            None => PayloadUpdate::snapshot(out.clone()),
        };
        self.stats = stats;
        self.last_raw = Some(source.payload.clone());
        self.last_out = Some(out);
        Some(AppliedUpdate {
            update,
            incremental: false,
            resync,
        })
    }

    /// Swap in a new exception set (hot reload). When a base payload
    /// exists, re-excepts it under the new rules and returns the update
    /// publishing it at a **new** epoch (offset bumped so future source
    /// deltas keep chaining). Returns `None` before the first ingest.
    pub fn reload(&mut self, exceptions: ExceptionSet) -> Option<AppliedUpdate> {
        self.exceptions = exceptions;
        let raw = self.last_raw.clone()?;
        self.offset += 1;
        let (excepted, stats) = self.exceptions.excepted_with_stats(&raw);
        let out = VrpPayload::from_shared(raw.epoch() + self.offset, excepted.shared_vrps());
        let update = match &self.last_out {
            Some(prev) => PayloadUpdate::from_previous(prev, out.clone()),
            None => PayloadUpdate::snapshot(out.clone()),
        };
        self.stats = stats;
        self.last_out = Some(out);
        Some(AppliedUpdate {
            update,
            incremental: false,
            resync: false,
        })
    }

    /// Update the per-epoch stats from an exact raw delta: filtered
    /// VRPs entering/leaving the raw set move the filtered count;
    /// asserted VRPs gaining/losing raw backing move the added count.
    fn track_delta(&mut self, delta: &VrpDelta) {
        for vrp in &delta.announced {
            if self.exceptions.filters_out(vrp) {
                self.stats.filtered += 1;
            } else if self.exceptions.asserted.contains(vrp) {
                self.stats.asserted = self.stats.asserted.saturating_sub(1);
            }
        }
        for vrp in &delta.withdrawn {
            if self.exceptions.filters_out(vrp) {
                self.stats.filtered = self.stats.filtered.saturating_sub(1);
            } else if self.exceptions.asserted.contains(vrp) {
                self.stats.asserted += 1;
            }
        }
    }
}

/// Shift a delta into the reload-offset epoch space, preserving its
/// contents verbatim.
fn shift_delta(delta: VrpDelta, offset: u64) -> VrpDelta {
    VrpDelta {
        from_epoch: delta.from_epoch + offset,
        to_epoch: delta.to_epoch + offset,
        announced: delta.announced,
        withdrawn: delta.withdrawn,
    }
}

impl fmt::Display for ExceptionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} filter rules, {} assertions",
            self.filter_rule_count(),
            self.assertion_count()
        )
    }
}

fn parse_prefix(value: &serde_json::Value, what: &str) -> Result<IpPrefix, SlurmError> {
    let text = value
        .as_str()
        .ok_or_else(|| err(format!("{what}: prefix must be a string")))?;
    text.parse()
        .map_err(|e| err(format!("{what}: prefix {text:?}: {e}")))
}

fn parse_asn(value: &serde_json::Value, what: &str) -> Result<Asn, SlurmError> {
    // RFC 8416 carries ASNs as JSON numbers; accept the "AS64496"
    // string spelling too, since operators hand-write these files.
    if let Some(n) = value.as_u128() {
        let n = u32::try_from(n).map_err(|_| err(format!("{what}: asn {n} out of range")))?;
        return Ok(Asn::new(n));
    }
    let text = value
        .as_str()
        .ok_or_else(|| err(format!("{what}: asn must be a number or string")))?;
    text.parse()
        .map_err(|e| err(format!("{what}: asn {text:?}: {e}")))
}

fn parse_comment(entry: &serde_json::Value) -> Option<String> {
    entry
        .as_object()
        .and_then(|m| m.get("comment"))
        .and_then(|v| v.as_str().map(str::to_string))
}

fn parse_filter(entry: &serde_json::Value, index: usize) -> Result<PrefixFilter, SlurmError> {
    let what = format!("prefixFilters[{index}]");
    let map = entry
        .as_object()
        .ok_or_else(|| err(format!("{what}: must be an object")))?;
    let prefix = match map.get("prefix") {
        Some(v) => Some(parse_prefix(v, &what)?),
        None => None,
    };
    let asn = match map.get("asn") {
        Some(v) => Some(parse_asn(v, &what)?),
        None => None,
    };
    if prefix.is_none() && asn.is_none() {
        return Err(err(format!("{what}: needs at least one of prefix/asn")));
    }
    Ok(PrefixFilter {
        prefix,
        asn,
        comment: parse_comment(entry),
    })
}

fn parse_assertion(entry: &serde_json::Value, index: usize) -> Result<PrefixAssertion, SlurmError> {
    let what = format!("prefixAssertions[{index}]");
    let map = entry
        .as_object()
        .ok_or_else(|| err(format!("{what}: must be an object")))?;
    let prefix = parse_prefix(
        map.get("prefix")
            .ok_or_else(|| err(format!("{what}: missing prefix")))?,
        &what,
    )?;
    let asn = parse_asn(
        map.get("asn")
            .ok_or_else(|| err(format!("{what}: missing asn")))?,
        &what,
    )?;
    let max_length = match map.get("maxPrefixLength") {
        None => None,
        Some(v) => {
            let n = v
                .as_u128()
                .and_then(|n| u8::try_from(n).ok())
                .ok_or_else(|| err(format!("{what}: maxPrefixLength must be a small number")))?;
            let family_bits = match prefix {
                IpPrefix::V4(_) => 32,
                IpPrefix::V6(_) => 128,
            };
            if n < prefix.len() || n > family_bits {
                return Err(err(format!(
                    "{what}: maxPrefixLength {n} outside [{}, {family_bits}]",
                    prefix.len()
                )));
            }
            Some(n)
        }
    };
    Ok(PrefixAssertion {
        prefix,
        asn,
        max_length,
        comment: parse_comment(entry),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripki_payload::VrpDelta;

    fn vrp(prefix: &str, ml: u8, asn: u32) -> VrpTriple {
        VrpTriple {
            prefix: prefix.parse().expect("test prefix"),
            max_length: ml,
            asn: Asn::new(asn),
        }
    }

    fn exceptions(text: &str) -> ExceptionSet {
        SlurmFile::parse(text).expect("parse").compile()
    }

    const FILTER_AND_ASSERT: &str = r#"{
        "slurmVersion": 1,
        "validationOutputFilters": {
            "prefixFilters": [
                { "prefix": "10.0.0.0/8", "comment": "drop everything under 10/8" },
                { "asn": 64511 },
                { "prefix": "192.0.2.0/24", "asn": 64500 }
            ]
        },
        "locallyAddedAssertions": {
            "prefixAssertions": [
                { "prefix": "198.51.100.0/24", "asn": 64501 },
                { "prefix": "2001:db8::/32", "asn": 64502, "maxPrefixLength": 48 }
            ]
        }
    }"#;

    #[test]
    fn filter_semantics_follow_rfc8416() {
        let ex = exceptions(FILTER_AND_ASSERT);
        // Covered-by on the prefix-only rule, including more specifics.
        assert!(ex.filters_out(&vrp("10.0.0.0/8", 8, 1)));
        assert!(ex.filters_out(&vrp("10.2.0.0/16", 16, 1)));
        assert!(!ex.filters_out(&vrp("11.0.0.0/8", 8, 1)));
        // ASN-only rule hits every prefix with that origin.
        assert!(ex.filters_out(&vrp("203.0.113.0/24", 24, 64511)));
        // Both-member rule needs both to match.
        assert!(ex.filters_out(&vrp("192.0.2.0/24", 24, 64500)));
        assert!(!ex.filters_out(&vrp("192.0.2.0/24", 24, 64501)));
        assert_eq!(ex.filter_rule_count(), 3);
        assert_eq!(ex.assertion_count(), 2);
    }

    #[test]
    fn assertion_max_length_defaults_to_prefix_length() {
        let ex = exceptions(FILTER_AND_ASSERT);
        assert!(ex.asserted().contains(&vrp("198.51.100.0/24", 24, 64501)));
        assert!(ex.asserted().contains(&vrp("2001:db8::/32", 48, 64502)));
    }

    #[test]
    fn excepted_filters_then_asserts_preserving_epoch() {
        let ex = exceptions(FILTER_AND_ASSERT);
        let base = VrpPayload::new(
            7,
            [vrp("10.1.0.0/16", 16, 2), vrp("203.0.113.0/24", 24, 64499)],
        );
        let (excepted, stats) = ex.excepted_with_stats(&base);
        assert_eq!(excepted.epoch(), 7);
        assert_eq!(
            stats,
            SlurmStats {
                filtered: 1,
                asserted: 2
            }
        );
        assert!(!excepted.vrps().contains(&vrp("10.1.0.0/16", 16, 2)));
        assert!(excepted.vrps().contains(&vrp("203.0.113.0/24", 24, 64499)));
        assert!(excepted.vrps().contains(&vrp("198.51.100.0/24", 24, 64501)));
        assert_eq!(excepted.len(), 3);
    }

    #[test]
    fn mapped_delta_chains_between_excepted_epochs() {
        let ex = exceptions(FILTER_AND_ASSERT);
        let base = VrpPayload::new(3, [vrp("20.0.0.0/8", 8, 3)]);
        let delta = VrpDelta::new(
            3,
            4,
            // One clean announcement, one filtered, one already asserted.
            vec![
                vrp("21.0.0.0/8", 8, 4),
                vrp("10.9.0.0/16", 16, 5),
                vrp("198.51.100.0/24", 24, 64501),
            ],
            // Withdrawing an asserted VRP must not remove it locally.
            vec![vrp("20.0.0.0/8", 8, 3), vrp("198.51.100.0/24", 24, 64501)],
        );
        let mapped = ex.map_delta(&delta);
        assert_eq!(mapped.announced, vec![vrp("21.0.0.0/8", 8, 4)]);
        assert_eq!(mapped.withdrawn, vec![vrp("20.0.0.0/8", 8, 3)]);
        let left = ex.excepted(&base).apply(&mapped).expect("chains");
        let right = ex.excepted(&base.apply(&delta).expect("chains"));
        assert_eq!(left, right);
    }

    #[test]
    fn apply_maps_both_halves_of_an_update() {
        let ex = exceptions(FILTER_AND_ASSERT);
        let prev = VrpPayload::new(1, [vrp("20.0.0.0/8", 8, 3), vrp("10.0.0.0/8", 8, 9)]);
        let next = VrpPayload::new(2, [vrp("20.0.0.0/8", 8, 3), vrp("30.0.0.0/8", 8, 4)]);
        let mut applier = SlurmApplier::new(ex.clone());
        applier.ingest(&PayloadUpdate::snapshot(prev.clone()));
        let out = applier
            .ingest(&PayloadUpdate::from_previous(&prev, next))
            .expect("epoch 2 advances")
            .update;
        assert_eq!(out.epoch(), 2);
        let delta = out.delta.expect("delta preserved");
        // Withdrawal of the filtered 10/8 VRP is dropped — it was never
        // in the excepted set.
        assert_eq!(delta.announced, vec![vrp("30.0.0.0/8", 8, 4)]);
        assert!(delta.withdrawn.is_empty());
        assert_eq!(
            ex.excepted(&prev).apply(&delta).expect("chains"),
            out.payload
        );
    }

    #[test]
    fn bgpsec_sections_warn_not_fail() {
        let file = SlurmFile::parse(
            r#"{
                "slurmVersion": 1,
                "validationOutputFilters": {
                    "bgpsecFilters": [{ "asn": 64496 }]
                },
                "locallyAddedAssertions": {
                    "bgpsecAssertions": [{ "asn": 64496, "SKI": "ab", "routerPublicKey": "cd" }]
                }
            }"#,
        )
        .expect("parse");
        assert_eq!(file.warnings.len(), 2);
        assert!(file.warnings[0].contains("bgpsecFilters"));
        assert!(file.warnings[1].contains("bgpsecAssertions"));
        assert!(file.compile().is_empty());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[]",
            r#"{"slurmVersion": 2}"#,
            r#"{"validationOutputFilters": {}}"#,
            r#"{"slurmVersion": 1, "validationOutputFilters": {"prefixFilters": [{}]}}"#,
            r#"{"slurmVersion": 1, "validationOutputFilters": {"prefixFilters": [{"prefix": "bogus"}]}}"#,
            r#"{"slurmVersion": 1, "validationOutputFilters": {"prefixFilters": 5}}"#,
            r#"{"slurmVersion": 1, "locallyAddedAssertions": {"prefixAssertions": [{"prefix": "10.0.0.0/8"}]}}"#,
            r#"{"slurmVersion": 1, "locallyAddedAssertions": {"prefixAssertions": [{"prefix": "10.0.0.0/8", "asn": 1, "maxPrefixLength": 4}]}}"#,
            r#"{"slurmVersion": 1, "locallyAddedAssertions": {"prefixAssertions": [{"prefix": "10.0.0.0/8", "asn": 1, "maxPrefixLength": 40}]}}"#,
        ] {
            assert!(SlurmFile::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn empty_exception_set_is_identity() {
        let ex = ExceptionSet::empty();
        assert!(ex.is_empty());
        let base = VrpPayload::new(5, [vrp("10.0.0.0/8", 8, 1)]);
        let update = PayloadUpdate::snapshot(base.clone());
        let applied = SlurmApplier::new(ex).ingest(&update).expect("first epoch");
        assert_eq!(applied.update, update);
    }

    #[test]
    fn applier_stays_incremental_on_chained_deltas() {
        let ex = exceptions(FILTER_AND_ASSERT);
        let mut applier = SlurmApplier::new(ex.clone());
        let base = VrpPayload::new(1, [vrp("20.0.0.0/8", 8, 3), vrp("10.0.0.0/8", 8, 9)]);
        let first = applier
            .ingest(&PayloadUpdate::snapshot(base.clone()))
            .expect("first epoch");
        assert!(!first.incremental);
        assert!(!first.resync);
        assert_eq!(first.update.payload, ex.excepted(&base));
        let next = VrpPayload::new(2, [vrp("20.0.0.0/8", 8, 3), vrp("30.0.0.0/8", 8, 4)]);
        let out = applier
            .ingest(&PayloadUpdate::from_previous(&base, next.clone()))
            .expect("second epoch");
        assert!(out.incremental, "chained delta must not rebuild");
        assert_eq!(out.update.payload, ex.excepted(&next), "commutation");
        assert_eq!(applier.resyncs(), 0);
        // Stats tracked through the delta path: 10/8 left the raw set.
        assert_eq!(applier.stats().filtered, 0);
        assert_eq!(applier.stats().asserted, 2);
    }

    #[test]
    fn applier_counts_snapshot_resyncs_on_stale_deltas() {
        let ex = exceptions(FILTER_AND_ASSERT);
        let mut applier = SlurmApplier::new(ex.clone());
        let base = VrpPayload::new(1, [vrp("20.0.0.0/8", 8, 3)]);
        applier
            .ingest(&PayloadUpdate::snapshot(base))
            .expect("first");
        // The upstream died during epoch 2 and resumed at 3: its delta
        // chains 2 -> 3, our base is epoch 1.
        let resumed = VrpPayload::new(3, [vrp("21.0.0.0/8", 8, 4)]);
        let stale_delta = VrpDelta::new(2, 3, vec![vrp("21.0.0.0/8", 8, 4)], Vec::new());
        let out = applier
            .ingest(&PayloadUpdate {
                payload: resumed.clone(),
                delta: Some(stale_delta),
            })
            .expect("resync publishes");
        assert!(out.resync, "stale delta must be a counted re-sync");
        assert!(!out.incremental);
        assert_eq!(applier.resyncs(), 1);
        assert_eq!(out.update.payload, ex.excepted(&resumed));
        // Downstream still gets a chaining diff, not a bare snapshot.
        let delta = out.update.delta.expect("diff attached");
        assert_eq!(delta.from_epoch, 1);
        assert_eq!(delta.to_epoch, 3);
    }

    #[test]
    fn applier_reload_publishes_a_new_epoch_and_keeps_chaining() {
        let ex = exceptions(FILTER_AND_ASSERT);
        let mut applier = SlurmApplier::new(ex);
        let base = VrpPayload::new(5, [vrp("20.0.0.0/8", 8, 3), vrp("10.0.0.0/8", 8, 9)]);
        applier
            .ingest(&PayloadUpdate::snapshot(base.clone()))
            .expect("first");
        // Reload with an empty file: the 10/8 VRP comes back, the
        // assertions go away — at a *new* epoch.
        let out = applier
            .reload(ExceptionSet::empty())
            .expect("reload republishes");
        assert_eq!(out.update.epoch(), 6, "reload bumps the epoch");
        assert_eq!(out.update.payload.vrps(), base.vrps());
        let delta = out.update.delta.expect("reload carries a diff");
        assert_eq!((delta.from_epoch, delta.to_epoch), (5, 6));
        // A later source delta (raw 5 -> 6) still chains through the
        // offset: published as 6 -> 7.
        let next = VrpPayload::new(6, [vrp("20.0.0.0/8", 8, 3)]);
        let out = applier
            .ingest(&PayloadUpdate::from_previous(&base, next))
            .expect("post-reload epoch");
        assert!(out.incremental, "offset must keep source deltas chaining");
        assert_eq!(out.update.epoch(), 7);
        assert_eq!(applier.resyncs(), 0);
    }

    #[test]
    fn applier_ignores_stale_source_epochs() {
        let mut applier = SlurmApplier::new(ExceptionSet::empty());
        let base = VrpPayload::new(4, [vrp("20.0.0.0/8", 8, 3)]);
        applier
            .ingest(&PayloadUpdate::snapshot(base.clone()))
            .expect("first");
        assert!(applier.ingest(&PayloadUpdate::snapshot(base)).is_none());
    }

    #[test]
    #[should_panic(expected = "forward")]
    fn mapping_a_backwards_delta_panics() {
        let mut delta = VrpDelta::new(1, 2, Vec::new(), Vec::new());
        delta.to_epoch = 1;
        let _ = ExceptionSet::empty().map_delta(&delta);
    }
}
