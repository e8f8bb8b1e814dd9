//! # ripki-payload
//!
//! The crate-neutral VRP payload abstraction every serving layer sits
//! on. Before this crate, each plane carried its own private
//! representation of "a validated VRP set at a point in time": the RTR
//! cache kept a `BTreeSet` behind a serial, the HTTP exporter walked a
//! `WorldSnapshot`'s slice, and the engine emitted `EpochDelta`s that
//! only the RTR cache knew how to consume. A distribution fabric — one
//! validator feeding chained proxies feeding routers — needs one
//! currency that flows through every hop unchanged:
//!
//! * [`VrpPayload`] — an **epoch-stamped, canonically ordered** VRP set.
//!   The set is a [`VrpSet`]: sorted chunks of a few hundred VRPs, each
//!   behind an `Arc`, under an `Arc`'d spine. A clone — fan-out to N
//!   subscribers, a Reset snapshot, a cache's `payload()` — is a handle;
//!   a successor shares every chunk its delta did not touch. Two
//!   payloads are byte-identical on the wire iff they are `==` here
//!   (the set's order is `VrpTriple`'s `Ord`, whatever the chunking).
//! * [`VrpDelta`] — what changed between two adjacent epochs, in RTR
//!   announce/withdraw terms. Built by [`VrpPayload::diff`] or converted
//!   from the engine's `EpochDelta`; consumed by the RTR cache's
//!   incremental install path and by proxy hops that forward deltas
//!   instead of re-snapshotting.
//! * [`PayloadUpdate`] — the unit of gossip in the proxy fabric: a full
//!   payload plus, when the publisher knows it, the delta from the
//!   previous epoch. Receivers that are in lockstep apply the delta;
//!   receivers that fell behind fall back to the snapshot.
//!
//! ## Epochs vs serials
//!
//! The study engine stamps epochs as `u64`; RTR serials are `u32` with
//! RFC 1982 wrap semantics. The payload keeps the engine's `u64` epoch
//! as the source of truth and derives the RTR serial by truncation
//! ([`VrpPayload::serial`]). Within any window the fabric actually
//! compares (bounded delta history, contiguous hops), truncation is
//! injective; the RTR layers already force a Cache Reset on any
//! non-contiguous jump, which covers the pathological wrap.
//!
//! ## What an epoch costs
//!
//! Per epoch and holder, advancing by a delta of k records
//! ([`VrpPayload::apply`], `CacheServer::apply_delta`, a proxy unit
//! following its upstream) is one spine copy (one pointer per chunk,
//! ≈ 400 at 100 000 VRPs) plus at most 2k chunk copies (≤ 32 KiB
//! each) — never the 6.4 MB the elements occupy. When the last handle on
//! the previous epoch dies, what is freed is that epoch's spine and the
//! chunks the delta replaced; the rest lives on in the successor. A set
//! built from scratch ([`VrpPayload::new`], a `vrps.json` parse, a
//! router's full reload) shares nothing and costs O(n log n) once.
//! [`VrpPayload::diff`] between a set and its successor skips shared
//! chunks by pointer, so it too costs the delta, not the set.
//!
//! This module is one of the lint catalog's *blessed epoch modules*
//! (R5): it writes `epoch`/`from_epoch`/`to_epoch` fields directly and
//! in exchange carries the monotonicity assertions every consumer
//! inherits by construction.

pub use ripki_bgp::rov::VrpTriple;
pub use ripki_net::VrpSet;

use std::fmt;

/// An epoch-stamped, canonically ordered VRP set.
///
/// Cheap to clone (a [`VrpSet`] handle) and totally ordered inside, so
/// equality here implies byte equality of every derived wire form (RTR
/// PDU stream, `vrps.json`, CSV).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VrpPayload {
    epoch: u64,
    vrps: VrpSet,
}

impl VrpPayload {
    /// Stamp a VRP set with its epoch.
    pub fn new<I: IntoIterator<Item = VrpTriple>>(epoch: u64, vrps: I) -> VrpPayload {
        VrpPayload {
            epoch,
            vrps: vrps.into_iter().collect(),
        }
    }

    /// Stamp an existing set (a handle: nothing is copied).
    pub fn from_shared(epoch: u64, vrps: VrpSet) -> VrpPayload {
        VrpPayload { epoch, vrps }
    }

    /// The epoch this set was validated at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The RTR serial this payload maps to (truncating; see the module
    /// docs for why that is sound in the windows RTR compares).
    pub fn serial(&self) -> u32 {
        self.epoch as u32
    }

    /// The VRPs, in canonical order.
    pub fn vrps(&self) -> &VrpSet {
        &self.vrps
    }

    /// A handle on the set (for zero-copy fan-out).
    pub fn shared_vrps(&self) -> VrpSet {
        self.vrps.clone()
    }

    /// Number of VRPs.
    pub fn len(&self) -> usize {
        self.vrps.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.vrps.is_empty()
    }

    /// A digest of the set contents, kept by the set as it is edited
    /// (see [`VrpSet::digest`]) — reading it costs nothing. Equal sets
    /// share a digest however they were reached; equal digests plus
    /// equal lengths make byte-identity overwhelmingly likely (tests use
    /// full `==`, operators use this for log lines). The value is only
    /// meaningful within one build of this crate.
    pub fn digest(&self) -> u64 {
        self.vrps.digest()
    }

    /// The delta that turns `self` into `newer`.
    ///
    /// # Panics
    ///
    /// If `newer.epoch() <= self.epoch()` — deltas only describe forward
    /// motion; a backwards "delta" would launder a serial regression
    /// into the fabric.
    pub fn diff(&self, newer: &VrpPayload) -> VrpDelta {
        assert!(
            newer.epoch > self.epoch,
            "payload diff must move the epoch forward ({} -> {})",
            self.epoch,
            newer.epoch,
        );
        VrpDelta {
            from_epoch: self.epoch,
            to_epoch: newer.epoch,
            announced: newer.vrps.difference(&self.vrps),
            withdrawn: self.vrps.difference(&newer.vrps),
        }
    }

    /// Apply a delta, producing the next payload — which shares every
    /// chunk the delta did not touch with this one. Returns `None` when
    /// the delta does not chain from this payload's epoch (the caller
    /// falls back to a snapshot fetch, mirroring RTR's Cache Reset).
    pub fn apply(&self, delta: &VrpDelta) -> Option<VrpPayload> {
        if delta.from_epoch != self.epoch {
            return None;
        }
        let mut vrps = self.vrps.clone();
        for vrp in &delta.withdrawn {
            vrps.remove(vrp);
        }
        for vrp in &delta.announced {
            vrps.insert(*vrp);
        }
        Some(VrpPayload {
            epoch: delta.to_epoch,
            vrps,
        })
    }
}

impl fmt::Display for VrpPayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epoch {} ({} vrps, digest {:016x})",
            self.epoch,
            self.vrps.len(),
            self.digest()
        )
    }
}

/// What changed between two adjacent payload epochs, in RTR
/// announce/withdraw terms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VrpDelta {
    /// Epoch the set moved from.
    pub from_epoch: u64,
    /// Epoch the set moved to.
    pub to_epoch: u64,
    /// VRPs present now but not before.
    pub announced: Vec<VrpTriple>,
    /// VRPs present before but not now.
    pub withdrawn: Vec<VrpTriple>,
}

impl VrpDelta {
    /// Build a delta from its parts.
    ///
    /// # Panics
    ///
    /// If `to_epoch <= from_epoch` — the single construction site where
    /// forward motion is enforced for every consumer (the R5 bargain).
    pub fn new(
        from_epoch: u64,
        to_epoch: u64,
        announced: Vec<VrpTriple>,
        withdrawn: Vec<VrpTriple>,
    ) -> VrpDelta {
        assert!(
            to_epoch > from_epoch,
            "VrpDelta must move the epoch forward ({from_epoch} -> {to_epoch})"
        );
        VrpDelta {
            from_epoch,
            to_epoch,
            announced,
            withdrawn,
        }
    }

    /// No VRP-level change between the epochs.
    pub fn is_empty(&self) -> bool {
        self.announced.is_empty() && self.withdrawn.is_empty()
    }
}

/// The unit of gossip in the proxy fabric: the full payload, plus the
/// delta from the previous published epoch when the publisher knows it
/// chains contiguously.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PayloadUpdate {
    /// The complete set at this epoch (always present — late joiners
    /// and desynced hops resync from it).
    pub payload: VrpPayload,
    /// The change from the previously published epoch, when contiguous.
    pub delta: Option<VrpDelta>,
}

impl PayloadUpdate {
    /// A snapshot-only update (no delta context).
    pub fn snapshot(payload: VrpPayload) -> PayloadUpdate {
        PayloadUpdate {
            payload,
            delta: None,
        }
    }

    /// An update carrying its delta from `previous`.
    ///
    /// # Panics
    ///
    /// Via [`VrpPayload::diff`] if `payload` does not advance past
    /// `previous`.
    pub fn from_previous(previous: &VrpPayload, payload: VrpPayload) -> PayloadUpdate {
        let delta = previous.diff(&payload);
        PayloadUpdate {
            payload,
            delta: Some(delta),
        }
    }

    /// The epoch of the carried payload.
    pub fn epoch(&self) -> u64 {
        self.payload.epoch()
    }
}

pub mod json {
    //! The Routinator-shaped `vrps.json` wire form, shared by the HTTP
    //! serving plane (writer), the proxy's JSON target (writer), and the
    //! proxy's JSON-over-HTTP ingest unit (parser). One shape, one
    //! module — a proxy chained behind `ripki-serve` round-trips
    //! byte-identically.

    use super::{VrpPayload, VrpTriple};
    use std::io::{self, Write};

    /// Stream `payload` as `vrps.json`: Routinator's `metadata` +
    /// `roas` shape, with the epoch and an optional rejected-object
    /// count in the metadata. Returns the bytes written.
    pub fn write_vrps_json(
        payload: &VrpPayload,
        rejected: Option<usize>,
        w: &mut dyn Write,
    ) -> io::Result<u64> {
        let mut written = 0u64;
        let mut put = |w: &mut dyn Write, s: &str| -> io::Result<()> {
            w.write_all(s.as_bytes())?;
            written += s.len() as u64;
            Ok(())
        };
        let rejected_field = match rejected {
            Some(n) => format!(",\"rpki_rejected\":{n}"),
            None => String::new(),
        };
        put(
            w,
            &format!(
                "{{\"metadata\":{{\"epoch\":{},\"vrp_count\":{}{}}},\"roas\":[",
                payload.epoch(),
                payload.len(),
                rejected_field,
            ),
        )?;
        for (i, vrp) in payload.vrps().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            put(
                w,
                &format!(
                    "{sep}{{\"asn\":\"{}\",\"prefix\":\"{}\",\"maxLength\":{},\"ta\":\"sim\"}}",
                    vrp.asn, vrp.prefix, vrp.max_length
                ),
            )?;
        }
        put(w, "]}\n")?;
        Ok(written)
    }

    /// Stream `payload` as the RTR-client-style CSV export.
    pub fn write_vrps_csv(payload: &VrpPayload, w: &mut dyn Write) -> io::Result<u64> {
        let mut written = 0u64;
        let header = "ASN,IP Prefix,Max Length,Trust Anchor\n";
        w.write_all(header.as_bytes())?;
        written += header.len() as u64;
        for vrp in payload.vrps() {
            let line = format!("{},{},{},sim\n", vrp.asn, vrp.prefix, vrp.max_length);
            w.write_all(line.as_bytes())?;
            written += line.len() as u64;
        }
        Ok(written)
    }

    /// Parse failures from [`parse_vrps_json`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum ParseError {
        /// Lexically or structurally broken document.
        Malformed(String),
        /// The same VRP appeared twice in `roas`. A VRP set has no
        /// duplicates; a producer that emits them is corrupt, and
        /// rejecting beats silently deduplicating its output.
        DuplicateVrp {
            /// Index of the second occurrence in `roas`.
            index: usize,
            /// The duplicated record, rendered `ASN prefix-maxlen`.
            record: String,
        },
        /// `metadata` carried both an `epoch` and a disagreeing
        /// `serial` — two overlapping serial claims leave the document
        /// with no well-defined epoch.
        ConflictingSerial {
            /// The `metadata.epoch` value.
            epoch: u64,
            /// The disagreeing `metadata.serial` value.
            serial: u64,
        },
    }

    impl std::fmt::Display for ParseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                ParseError::Malformed(s) => write!(f, "vrps.json: {s}"),
                ParseError::DuplicateVrp { index, record } => {
                    write!(f, "vrps.json: roas[{index}]: duplicate VRP {record}")
                }
                ParseError::ConflictingSerial { epoch, serial } => write!(
                    f,
                    "vrps.json: metadata: serial {serial} conflicts with epoch {epoch}"
                ),
            }
        }
    }

    impl std::error::Error for ParseError {}

    /// Parse a `vrps.json` document back into a payload. Accepts the
    /// exact shape [`write_vrps_json`] produces (which is Routinator's);
    /// unknown fields are ignored, malformed records are an error, not
    /// a skip — a proxy must never silently drop VRPs.
    pub fn parse_vrps_json(text: &str) -> Result<VrpPayload, ParseError> {
        use std::collections::BTreeSet;
        let malformed = |s: String| ParseError::Malformed(s);
        let root: serde_json::Value =
            serde_json::from_str(text).map_err(|e| malformed(format!("invalid JSON: {e}")))?;
        fn field<'a>(v: &'a serde_json::Value, key: &str) -> Option<&'a serde_json::Value> {
            v.as_object().and_then(|m| m.get(key))
        }
        let number = |v: Option<&serde_json::Value>| {
            v.and_then(serde_json::Value::as_u128)
                .and_then(|n| u64::try_from(n).ok())
        };
        let metadata = field(&root, "metadata");
        let epoch = number(metadata.and_then(|m| field(m, "epoch")))
            .ok_or_else(|| malformed("missing metadata.epoch".into()))?;
        // A producer that also stamps a `serial` must agree with its own
        // epoch; two overlapping serial claims are garbage, not data.
        if let Some(serial) = number(metadata.and_then(|m| field(m, "serial"))) {
            if serial != epoch {
                return Err(ParseError::ConflictingSerial { epoch, serial });
            }
        }
        let roas = field(&root, "roas")
            .and_then(serde_json::Value::as_array)
            .ok_or_else(|| malformed("missing roas array".into()))?;
        let mut vrps = Vec::with_capacity(roas.len());
        let mut seen: BTreeSet<VrpTriple> = BTreeSet::new();
        for (i, roa) in roas.iter().enumerate() {
            let asn = field(roa, "asn")
                .and_then(serde_json::Value::as_str)
                .ok_or_else(|| malformed(format!("roas[{i}]: missing asn")))?;
            let prefix = field(roa, "prefix")
                .and_then(serde_json::Value::as_str)
                .ok_or_else(|| malformed(format!("roas[{i}]: missing prefix")))?;
            let max_length = field(roa, "maxLength")
                .and_then(serde_json::Value::as_u128)
                .ok_or_else(|| malformed(format!("roas[{i}]: missing maxLength")))?;
            let max_length = u8::try_from(max_length)
                .map_err(|_| malformed(format!("roas[{i}]: maxLength {max_length} > 255")))?;
            let vrp = VrpTriple {
                prefix: prefix
                    .parse()
                    .map_err(|e| malformed(format!("roas[{i}]: prefix {prefix:?}: {e}")))?,
                max_length,
                asn: asn
                    .parse()
                    .map_err(|e| malformed(format!("roas[{i}]: asn {asn:?}: {e}")))?,
            };
            if !seen.insert(vrp) {
                return Err(ParseError::DuplicateVrp {
                    index: i,
                    record: format!("{asn} {prefix}-{max_length}"),
                });
            }
            vrps.push(vrp);
        }
        Ok(VrpPayload::new(epoch, vrps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripki_net::Asn;
    use std::collections::BTreeSet;

    fn vrp(prefix: &str, ml: u8, asn: u32) -> VrpTriple {
        VrpTriple {
            prefix: prefix.parse().expect("test prefix"),
            max_length: ml,
            asn: Asn::new(asn),
        }
    }

    #[test]
    fn diff_then_apply_round_trips() {
        let a = VrpPayload::new(3, [vrp("10.0.0.0/16", 16, 1), vrp("11.0.0.0/16", 16, 2)]);
        let b = VrpPayload::new(4, [vrp("10.0.0.0/16", 16, 1), vrp("12.0.0.0/16", 16, 3)]);
        let delta = a.diff(&b);
        assert_eq!(delta.from_epoch, 3);
        assert_eq!(delta.to_epoch, 4);
        assert_eq!(delta.announced, vec![vrp("12.0.0.0/16", 16, 3)]);
        assert_eq!(delta.withdrawn, vec![vrp("11.0.0.0/16", 16, 2)]);
        assert_eq!(a.apply(&delta), Some(b));
    }

    #[test]
    fn apply_refuses_non_chaining_delta() {
        let a = VrpPayload::new(3, [vrp("10.0.0.0/16", 16, 1)]);
        let delta = VrpDelta::new(5, 6, vec![vrp("12.0.0.0/16", 16, 3)], Vec::new());
        assert_eq!(a.apply(&delta), None);
    }

    #[test]
    #[should_panic(expected = "forward")]
    fn backwards_diff_panics() {
        let a = VrpPayload::new(3, [vrp("10.0.0.0/16", 16, 1)]);
        let b = VrpPayload::new(3, [vrp("10.0.0.0/16", 16, 1)]);
        let _ = a.diff(&b);
    }

    #[test]
    #[should_panic(expected = "forward")]
    fn backwards_delta_panics() {
        let _ = VrpDelta::new(4, 4, Vec::new(), Vec::new());
    }

    #[test]
    fn equal_sets_share_digest_and_equality() {
        let a = VrpPayload::new(1, [vrp("10.0.0.0/16", 16, 1), vrp("2001:db8::/32", 48, 2)]);
        let b = VrpPayload::new(1, [vrp("2001:db8::/32", 48, 2), vrp("10.0.0.0/16", 16, 1)]);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let c = VrpPayload::new(1, [vrp("10.0.0.0/16", 16, 1)]);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn digest_separates_every_field_of_a_vrp() {
        let base = vrp("10.0.0.0/16", 20, 64500);
        let variants = [
            base,
            vrp("10.1.0.0/16", 20, 64500),
            vrp("10.0.0.0/17", 20, 64500),
            vrp("10.0.0.0/16", 21, 64500),
            vrp("10.0.0.0/16", 20, 64501),
            vrp("a00::/16", 20, 64500), // same leading octets, other family
        ];
        let digests: BTreeSet<u64> = variants
            .iter()
            .map(|v| VrpPayload::new(1, [*v]).digest())
            .collect();
        assert_eq!(digests.len(), variants.len());
        // The epoch is not part of the set's digest.
        assert_eq!(
            VrpPayload::new(1, [base]).digest(),
            VrpPayload::new(2, [base]).digest()
        );
    }

    #[test]
    fn digest_follows_the_set_through_apply() {
        let (a, b, c) = (
            vrp("10.0.0.0/16", 16, 1),
            vrp("11.0.0.0/16", 16, 2),
            vrp("2001:db8::/32", 48, 3),
        );
        let base = VrpPayload::new(1, [a, b]);
        let next = base
            .apply(&VrpDelta::new(1, 2, vec![c], vec![a]))
            .expect("chains");
        assert_eq!(next.digest(), VrpPayload::new(2, [b, c]).digest());
        // Announcing what is held and withdrawing what is not change
        // neither the set nor its digest.
        let same = next
            .apply(&VrpDelta::new(2, 3, vec![b, c], vec![a]))
            .expect("chains");
        assert_eq!(same.vrps(), next.vrps());
        assert_eq!(same.digest(), next.digest());
        assert_eq!(VrpPayload::new(1, []).digest(), 0);
    }

    #[test]
    fn serial_truncates_epoch() {
        let p = VrpPayload::new(u64::from(u32::MAX) + 5, [] as [VrpTriple; 0]);
        assert_eq!(p.serial(), 4);
    }

    #[test]
    fn json_round_trips_byte_identically() {
        let payload = VrpPayload::new(
            7,
            [
                vrp("10.0.0.0/16", 20, 64500),
                vrp("2001:db8::/32", 48, 64501),
            ],
        );
        let mut bytes = Vec::new();
        json::write_vrps_json(&payload, Some(2), &mut bytes).expect("write");
        let text = String::from_utf8(bytes.clone()).expect("utf8");
        let parsed = json::parse_vrps_json(&text).expect("parse");
        assert_eq!(parsed, payload);
        // Re-serialising the parsed payload reproduces the bytes
        // exactly (modulo the rejected count only the origin knows).
        let mut again = Vec::new();
        json::write_vrps_json(&parsed, Some(2), &mut again).expect("write");
        assert_eq!(bytes, again);
    }

    #[test]
    fn json_parse_rejects_malformed_records() {
        assert!(json::parse_vrps_json("{").is_err());
        assert!(json::parse_vrps_json("{\"roas\":[]}").is_err());
        let missing_prefix =
            "{\"metadata\":{\"epoch\":1},\"roas\":[{\"asn\":\"AS1\",\"maxLength\":24}]}";
        assert!(json::parse_vrps_json(missing_prefix).is_err());
        let bad_asn = "{\"metadata\":{\"epoch\":1},\"roas\":[{\"asn\":\"bogus\",\
                       \"prefix\":\"10.0.0.0/8\",\"maxLength\":24}]}";
        assert!(json::parse_vrps_json(bad_asn).is_err());
    }

    #[test]
    fn update_from_previous_carries_delta() {
        let a = VrpPayload::new(1, [vrp("10.0.0.0/16", 16, 1)]);
        let b = VrpPayload::new(2, [vrp("10.0.0.0/16", 16, 1), vrp("11.0.0.0/16", 16, 2)]);
        let update = PayloadUpdate::from_previous(&a, b.clone());
        assert_eq!(update.epoch(), 2);
        let delta = update.delta.expect("delta present");
        assert!(a.apply(&delta) == Some(b));
    }
}
