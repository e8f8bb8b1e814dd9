//! RFC 6811 BGP prefix origin validation.
//!
//! Given the validated ROA payloads (VRPs) from the RPKI, a route
//! `(prefix, origin)` is classified:
//!
//! * **NotFound** — no VRP covers the prefix;
//! * **Valid** — some covering VRP matches the origin AS and the
//!   announced length does not exceed its `maxLength`;
//! * **Invalid** — covering VRPs exist but none matches.
//!
//! This is the paper's step 4 per prefix-AS pair, and the import filter
//! the hijack simulation applies at ROV-deploying ASes.

pub use ripki_net::Vrp as VrpTriple;
use ripki_net::{Asn, IpPrefix, VrpSet};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The three RFC 6811 validation states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RpkiState {
    /// A covering VRP authorizes this exact (prefix length, origin).
    Valid,
    /// Covering VRPs exist, none authorizes this announcement.
    Invalid,
    /// The prefix is not covered by the RPKI at all.
    NotFound,
}

impl fmt::Display for RpkiState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpkiState::Valid => write!(f, "valid"),
            RpkiState::Invalid => write!(f, "invalid"),
            RpkiState::NotFound => write!(f, "not found"),
        }
    }
}

/// An origin validator: a handle on a [`VrpSet`]. Building one from a
/// set, cloning it and advancing the set it wraps copy no VRP; a
/// lookup walks [`VrpSet::covering`] in place and allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct RouteOriginValidator(VrpSet);

impl RouteOriginValidator {
    /// Empty validator (everything is NotFound).
    pub fn new() -> RouteOriginValidator {
        RouteOriginValidator::default()
    }

    /// Build from VRP triples, in any order, duplicates dropped.
    pub fn from_vrps<I: IntoIterator<Item = VrpTriple>>(iter: I) -> RouteOriginValidator {
        RouteOriginValidator(iter.into_iter().collect())
    }

    /// Number of VRPs loaded.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no VRPs are loaded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The VRP set this validator answers from, in canonical order —
    /// what a snapshot feeds an RTR cache or advances by an epoch's
    /// delta.
    pub fn vrps(&self) -> &VrpSet {
        &self.0
    }

    /// RFC 6811 validation of an announcement.
    pub fn validate(&self, prefix: &IpPrefix, origin: Asn) -> RpkiState {
        let mut state = RpkiState::NotFound;
        for vrp in self.0.covering(prefix) {
            if vrp.asn == origin && prefix.len() <= vrp.max_length {
                return RpkiState::Valid;
            }
            state = RpkiState::Invalid;
        }
        state
    }

    /// Full RFC 6811 verdict with the covering VRPs partitioned by why
    /// they did (not) match — what a relying-party validity API returns
    /// (cf. Routinator's `/api/v1/validity`). The `state` agrees with
    /// [`validate`](Self::validate) for every input; each list holds
    /// the shortest VRP prefix first, then by max length and ASN.
    pub fn validity(&self, prefix: &IpPrefix, origin: Asn) -> ValidityDetail {
        let mut detail = ValidityDetail {
            state: RpkiState::NotFound,
            matched: Vec::new(),
            unmatched_asn: Vec::new(),
            unmatched_length: Vec::new(),
        };
        for &vrp in self.0.covering(prefix) {
            if vrp.asn != origin {
                detail.unmatched_asn.push(vrp);
            } else if prefix.len() > vrp.max_length {
                detail.unmatched_length.push(vrp);
            } else {
                detail.matched.push(vrp);
            }
        }
        detail.state = if !detail.matched.is_empty() {
            RpkiState::Valid
        } else if detail.unmatched_asn.is_empty() && detail.unmatched_length.is_empty() {
            RpkiState::NotFound
        } else {
            RpkiState::Invalid
        };
        detail
    }
}

impl From<VrpSet> for RouteOriginValidator {
    fn from(vrps: VrpSet) -> RouteOriginValidator {
        RouteOriginValidator(vrps)
    }
}

/// The outcome of [`RouteOriginValidator::validity`]: the RFC 6811
/// state plus every covering VRP, partitioned by match outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidityDetail {
    /// The RFC 6811 state (identical to `validate`'s answer).
    pub state: RpkiState,
    /// Covering VRPs that authorize the announcement.
    pub matched: Vec<VrpTriple>,
    /// Covering VRPs whose origin AS differs.
    pub unmatched_asn: Vec<VrpTriple>,
    /// Covering VRPs with the right origin but an exceeded maxLength.
    pub unmatched_length: Vec<VrpTriple>,
}

impl ValidityDetail {
    /// Routinator-style reason token for an Invalid verdict (`"as"` when
    /// some covering VRP has a different origin, `"length"` when the
    /// origin matches but the announcement is too specific).
    pub fn reason(&self) -> Option<&'static str> {
        if self.state != RpkiState::Invalid {
            None
        } else if !self.unmatched_asn.is_empty() {
            Some("as")
        } else {
            Some("length")
        }
    }

    /// Human-readable description of the verdict.
    pub fn description(&self) -> &'static str {
        match self.state {
            RpkiState::Valid => "At least one VRP Matches the Route Prefix",
            RpkiState::NotFound => "No VRP Covers the Route Prefix",
            RpkiState::Invalid => {
                if !self.unmatched_asn.is_empty() {
                    "At least one VRP Covers the Route Prefix, but no VRP ASN matches the route origin ASN"
                } else {
                    "At least one VRP Covers the Route Prefix, but the Route Prefix length is greater than the maximum length allowed by VRP(s) matching this route origin ASN"
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    fn vrp(prefix: &str, ml: u8, asn: u32) -> VrpTriple {
        VrpTriple {
            prefix: p(prefix),
            max_length: ml,
            asn: Asn::new(asn),
        }
    }

    #[test]
    fn not_found_when_uncovered() {
        let v = RouteOriginValidator::from_vrps([vrp("10.0.0.0/16", 16, 100)]);
        assert_eq!(
            v.validate(&p("11.0.0.0/16"), Asn::new(100)),
            RpkiState::NotFound
        );
        // A *less specific* announcement than any VRP is also uncovered.
        assert_eq!(
            v.validate(&p("10.0.0.0/8"), Asn::new(100)),
            RpkiState::NotFound
        );
    }

    #[test]
    fn valid_exact_match() {
        let v = RouteOriginValidator::from_vrps([vrp("10.0.0.0/16", 16, 100)]);
        assert_eq!(
            v.validate(&p("10.0.0.0/16"), Asn::new(100)),
            RpkiState::Valid
        );
    }

    #[test]
    fn invalid_wrong_origin() {
        let v = RouteOriginValidator::from_vrps([vrp("10.0.0.0/16", 16, 100)]);
        assert_eq!(
            v.validate(&p("10.0.0.0/16"), Asn::new(200)),
            RpkiState::Invalid
        );
    }

    #[test]
    fn maxlength_controls_more_specifics() {
        let v = RouteOriginValidator::from_vrps([vrp("10.0.0.0/16", 20, 100)]);
        assert_eq!(
            v.validate(&p("10.0.0.0/20"), Asn::new(100)),
            RpkiState::Valid
        );
        assert_eq!(
            v.validate(&p("10.0.0.0/18"), Asn::new(100)),
            RpkiState::Valid
        );
        // Too specific: the classic subprefix-hijack defence.
        assert_eq!(
            v.validate(&p("10.0.0.0/24"), Asn::new(100)),
            RpkiState::Invalid
        );
    }

    #[test]
    fn validity_detail_partitions_covering_vrps() {
        let v = RouteOriginValidator::from_vrps([
            vrp("10.0.0.0/16", 20, 100),
            vrp("10.0.0.0/16", 16, 200),
        ]);
        // Valid: matched carries the authorizing VRP, the wrong-origin
        // one lands in unmatched_asn.
        let d = v.validity(&p("10.0.0.0/20"), Asn::new(100));
        assert_eq!(d.state, RpkiState::Valid);
        assert_eq!(d.matched, vec![vrp("10.0.0.0/16", 20, 100)]);
        assert_eq!(d.unmatched_asn, vec![vrp("10.0.0.0/16", 16, 200)]);
        assert_eq!(d.reason(), None);
        // Invalid by origin.
        let d = v.validity(&p("10.0.0.0/16"), Asn::new(300));
        assert_eq!(d.state, RpkiState::Invalid);
        assert_eq!(d.reason(), Some("as"));
        assert_eq!(d.unmatched_asn.len(), 2);
        // Invalid by length only: right origin, too specific.
        let v2 = RouteOriginValidator::from_vrps([vrp("10.0.0.0/16", 20, 100)]);
        let d = v2.validity(&p("10.0.0.0/24"), Asn::new(100));
        assert_eq!(d.state, RpkiState::Invalid);
        assert_eq!(d.reason(), Some("length"));
        assert_eq!(d.unmatched_length, vec![vrp("10.0.0.0/16", 20, 100)]);
        // NotFound.
        let d = v.validity(&p("11.0.0.0/16"), Asn::new(100));
        assert_eq!(d.state, RpkiState::NotFound);
        assert_eq!(d.reason(), None);
        assert!(!d.description().is_empty());
    }

    #[test]
    fn validity_state_agrees_with_validate() {
        let v = RouteOriginValidator::from_vrps([
            vrp("10.0.0.0/16", 20, 100),
            vrp("10.0.0.0/16", 16, 200),
            vrp("10.0.0.0/8", 16, 300),
        ]);
        for pfx in ["10.0.0.0/8", "10.0.0.0/16", "10.0.0.0/24", "11.0.0.0/16"] {
            for asn in [100u32, 200, 300, 400] {
                let asn = Asn::new(asn);
                assert_eq!(
                    v.validity(&p(pfx), asn).state,
                    v.validate(&p(pfx), asn),
                    "{pfx} {asn}"
                );
            }
        }
    }

    #[test]
    fn multiple_vrps_any_match_suffices() {
        let v = RouteOriginValidator::from_vrps([
            vrp("10.0.0.0/16", 16, 100),
            vrp("10.0.0.0/16", 16, 200),
        ]);
        assert_eq!(
            v.validate(&p("10.0.0.0/16"), Asn::new(100)),
            RpkiState::Valid
        );
        assert_eq!(
            v.validate(&p("10.0.0.0/16"), Asn::new(200)),
            RpkiState::Valid
        );
        assert_eq!(
            v.validate(&p("10.0.0.0/16"), Asn::new(300)),
            RpkiState::Invalid
        );
    }

    #[test]
    fn covering_vrp_from_shorter_prefix() {
        // VRP for /8 with maxlen 16 covers /12 announcements.
        let v = RouteOriginValidator::from_vrps([vrp("10.0.0.0/8", 16, 100)]);
        assert_eq!(
            v.validate(&p("10.16.0.0/12"), Asn::new(100)),
            RpkiState::Valid
        );
        assert_eq!(
            v.validate(&p("10.16.0.0/12"), Asn::new(9)),
            RpkiState::Invalid
        );
        assert_eq!(
            v.validate(&p("10.0.0.0/24"), Asn::new(100)),
            RpkiState::Invalid
        );
    }

    #[test]
    fn as0_roa_invalidates_everything() {
        // RFC 7607: AS0 ROAs state "do not route"; any real origin is
        // invalid because AS0 never matches an announcement's origin.
        let v = RouteOriginValidator::from_vrps([vrp("192.0.2.0/24", 24, 0)]);
        assert_eq!(
            v.validate(&p("192.0.2.0/24"), Asn::new(100)),
            RpkiState::Invalid
        );
    }

    #[test]
    fn empty_validator_finds_nothing() {
        let v = RouteOriginValidator::new();
        assert!(v.is_empty());
        assert_eq!(
            v.validate(&p("10.0.0.0/8"), Asn::new(1)),
            RpkiState::NotFound
        );
    }

    #[test]
    fn families_do_not_interfere() {
        let v = RouteOriginValidator::from_vrps([vrp("10.0.0.0/8", 8, 100)]);
        assert_eq!(
            v.validate(&p("2001:db8::/32"), Asn::new(100)),
            RpkiState::NotFound
        );
    }

    #[test]
    fn len_counts_vrps() {
        let v = RouteOriginValidator::from_vrps([
            vrp("10.0.0.0/16", 16, 100),
            vrp("10.0.0.0/16", 16, 200),
            vrp("11.0.0.0/16", 16, 100),
        ]);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
    }
}
