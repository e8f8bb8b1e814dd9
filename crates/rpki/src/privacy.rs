//! Business-relationship exposure analysis (paper §5.2).
//!
//! The paper's operator interviews surfaced an RPKI-specific deterrent:
//! ROAs are a *proactive, public catalog*. A prefix owner who authorizes a
//! partner's AS — say a secret mutual-backup CDN arrangement — publishes
//! that relation **before** any route is ever announced. BGP collectors,
//! in contrast, only reveal a relation *after* routes carrying it
//! propagate.
//!
//! This module quantifies that asymmetry. Given
//!
//! * the ROA catalog (as `(prefix, asn)` authorizations), and
//! * the set of `(prefix, origin)` pairs actually observed in routing,
//!
//! it classifies every authorization as **operational** (observably
//! announced) or **latent** (authorized but never announced — exactly the
//! backup/standby relations operators worry about exposing).

use crate::validate::Vrp;
use ripki_net::{Asn, IpPrefix};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// One authorization relation extracted from the ROA catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Authorization {
    /// The authorized prefix.
    pub prefix: IpPrefix,
    /// The AS authorized to originate it.
    pub asn: Asn,
}

/// Result of the exposure analysis.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ExposureReport {
    /// Authorizations whose (prefix, asn) was seen in BGP: the relation
    /// was public anyway.
    pub operational: Vec<Authorization>,
    /// Authorizations never observed in BGP: relations *only* the RPKI
    /// reveals (secret backups, standby arrangements, pre-provisioning).
    pub latent: Vec<Authorization>,
}

impl ExposureReport {
    /// Fraction of catalog relations that are latent (0 when empty).
    pub fn latent_fraction(&self) -> f64 {
        let total = self.operational.len() + self.latent.len();
        if total == 0 {
            0.0
        } else {
            self.latent.len() as f64 / total as f64
        }
    }

    /// Total relations in the catalog.
    pub fn total(&self) -> usize {
        self.operational.len() + self.latent.len()
    }
}

/// Classify every VRP against observed `(prefix, origin)` announcements.
///
/// A VRP is *operational* if some observed announcement matches it under
/// RFC 6811 semantics (covered by the VRP prefix, length ≤ maxLength,
/// same origin). Everything else is *latent*.
pub fn exposure<'a>(
    vrps: impl IntoIterator<Item = &'a Vrp>,
    announced: &BTreeSet<(IpPrefix, Asn)>,
) -> ExposureReport {
    let mut report = ExposureReport::default();
    for vrp in vrps {
        let auth = Authorization {
            prefix: vrp.prefix,
            asn: vrp.asn,
        };
        let used = announced.iter().any(|(pfx, origin)| {
            *origin == vrp.asn && vrp.prefix.covers(pfx) && pfx.len() <= vrp.max_length
        });
        if used {
            report.operational.push(auth);
        } else {
            report.latent.push(auth);
        }
    }
    report.operational.sort();
    report.operational.dedup();
    report.latent.sort();
    report.latent.dedup();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    fn vrp(prefix: &str, ml: u8, asn: u32) -> Vrp {
        Vrp {
            prefix: p(prefix),
            max_length: ml,
            asn: Asn::new(asn),
        }
    }

    #[test]
    fn announced_relation_is_operational() {
        let vrps = vec![vrp("10.0.0.0/16", 16, 100)];
        let mut seen = BTreeSet::new();
        seen.insert((p("10.0.0.0/16"), Asn::new(100)));
        let rep = exposure(&vrps, &seen);
        assert_eq!(rep.operational.len(), 1);
        assert!(rep.latent.is_empty());
        assert_eq!(rep.latent_fraction(), 0.0);
    }

    #[test]
    fn unannounced_backup_is_latent() {
        // Primary AS100 announces; backup AS200 is authorized but silent.
        let vrps = vec![vrp("10.0.0.0/16", 16, 100), vrp("10.0.0.0/16", 16, 200)];
        let mut seen = BTreeSet::new();
        seen.insert((p("10.0.0.0/16"), Asn::new(100)));
        let rep = exposure(&vrps, &seen);
        assert_eq!(rep.operational.len(), 1);
        assert_eq!(rep.latent.len(), 1);
        assert_eq!(rep.latent[0].asn, Asn::new(200));
        assert!((rep.latent_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(rep.total(), 2);
    }

    #[test]
    fn more_specific_within_maxlength_counts_as_use() {
        let vrps = vec![vrp("10.0.0.0/16", 24, 100)];
        let mut seen = BTreeSet::new();
        seen.insert((p("10.0.5.0/24"), Asn::new(100)));
        let rep = exposure(&vrps, &seen);
        assert_eq!(rep.operational.len(), 1);
    }

    #[test]
    fn too_specific_announcement_does_not_count() {
        let vrps = vec![vrp("10.0.0.0/16", 20, 100)];
        let mut seen = BTreeSet::new();
        seen.insert((p("10.0.5.0/24"), Asn::new(100)));
        let rep = exposure(&vrps, &seen);
        assert_eq!(rep.latent.len(), 1);
    }

    #[test]
    fn different_origin_does_not_count() {
        let vrps = vec![vrp("10.0.0.0/16", 16, 100)];
        let mut seen = BTreeSet::new();
        seen.insert((p("10.0.0.0/16"), Asn::new(999)));
        let rep = exposure(&vrps, &seen);
        assert_eq!(rep.latent.len(), 1);
    }

    #[test]
    fn empty_inputs() {
        let rep = exposure(&[], &BTreeSet::new());
        assert_eq!(rep.total(), 0);
        assert_eq!(rep.latent_fraction(), 0.0);
    }
}
