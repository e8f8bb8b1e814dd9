//! The §4.2 CDN audit: keyword spotting on AS assignment lists joined
//! against the RPKI.
//!
//! "To derive the AS numbers of these CDNs, we apply keyword spotting on
//! common AS assignment lists. […] We discover 199 ASes operated by these
//! CDNs. From these, we find only four entries in the RPKI. These four
//! prefixes are owned by Internap and are tied to three origin ASes."
//! The audit also computes the contrast class: "web hosters or common
//! ISPs … have far higher levels of penetration (> 5%)."

use ripki_net::{Asn, IpPrefix};
use ripki_rpki::validate::Vrp;
use ripki_websim::operators::OperatorClass;
use ripki_websim::registry::AsRegistry;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Audit result for one CDN keyword.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CdnAuditRow {
    /// The keyword searched (CDN name).
    pub cdn: String,
    /// ASes matched by keyword spotting.
    pub as_count: usize,
    /// RPKI entries (VRP prefixes) originated by those ASes.
    pub rpki_prefixes: Vec<IpPrefix>,
    /// Distinct origin ASes among those entries.
    pub origin_asns: BTreeSet<Asn>,
}

impl fmt::Display for CdnAuditRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<12} {:>4} ASes, {:>3} RPKI prefixes, {:>2} origin ASes",
            self.cdn,
            self.as_count,
            self.rpki_prefixes.len(),
            self.origin_asns.len(),
        )
    }
}

/// Run the keyword audit for the given CDN names over any VRP collection.
pub fn audit_cdns<'a, V>(registry: &AsRegistry, vrps: V, cdn_names: &[&str]) -> Vec<CdnAuditRow>
where
    V: IntoIterator<Item = &'a Vrp> + Copy,
{
    cdn_names
        .iter()
        .map(|name| {
            let asns: BTreeSet<Asn> = registry.search(name).into_iter().collect();
            let mut rpki_prefixes: Vec<IpPrefix> = Vec::new();
            let mut origin_asns = BTreeSet::new();
            for vrp in vrps {
                if asns.contains(&vrp.asn) {
                    rpki_prefixes.push(vrp.prefix);
                    origin_asns.insert(vrp.asn);
                }
            }
            rpki_prefixes.sort();
            rpki_prefixes.dedup();
            CdnAuditRow {
                cdn: name.to_string(),
                as_count: asns.len(),
                rpki_prefixes,
                origin_asns,
            }
        })
        .collect()
}

/// Penetration of a class: fraction of its ASes originating at least one
/// VRP (the paper's ">5%" for ISPs/webhosters).
pub fn class_penetration<'a>(
    registry: &AsRegistry,
    vrps: impl IntoIterator<Item = &'a Vrp>,
    class: OperatorClass,
) -> f64 {
    let asns = registry.asns_of_class(class);
    if asns.is_empty() {
        return 0.0;
    }
    let with_roa: BTreeSet<Asn> = vrps.into_iter().map(|v| v.asn).collect();
    let covered = asns.iter().filter(|a| with_roa.contains(a)).count();
    covered as f64 / asns.len() as f64
}

/// Summary over all audited CDNs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CdnAuditSummary {
    /// Total ASes found by keyword spotting (paper: 199).
    pub total_cdn_asns: usize,
    /// Total RPKI entries across the audited CDNs (paper: 4).
    pub total_rpki_entries: usize,
    /// CDNs with at least one entry (paper: only Internap).
    pub cdns_with_deployment: Vec<String>,
    /// ISP penetration (paper: > 5%).
    pub isp_penetration: f64,
    /// Webhoster penetration (paper: > 5%).
    pub webhoster_penetration: f64,
}

/// Compute the summary.
pub fn summarize<'a, V>(rows: &[CdnAuditRow], registry: &AsRegistry, vrps: V) -> CdnAuditSummary
where
    V: IntoIterator<Item = &'a Vrp> + Copy,
{
    CdnAuditSummary {
        total_cdn_asns: rows.iter().map(|r| r.as_count).sum(),
        total_rpki_entries: rows.iter().map(|r| r.rpki_prefixes.len()).sum(),
        cdns_with_deployment: rows
            .iter()
            .filter(|r| !r.rpki_prefixes.is_empty())
            .map(|r| r.cdn.clone())
            .collect(),
        isp_penetration: class_penetration(registry, vrps, OperatorClass::Isp),
        webhoster_penetration: class_penetration(registry, vrps, OperatorClass::Webhoster),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripki_websim::operators::OperatorId;
    use ripki_websim::registry::AsInfo;

    fn registry() -> AsRegistry {
        let mut r = AsRegistry::new();
        for (asn, name, class) in [
            (100u32, "INTERNAP-SIM-1, Internap Inc.", OperatorClass::Cdn),
            (101, "INTERNAP-SIM-2, Internap Inc.", OperatorClass::Cdn),
            (200, "AKAMAI-SIM-1, Akamai Inc.", OperatorClass::Cdn),
            (300, "ISP-0-NET-1, ISP-0 Telecom", OperatorClass::Isp),
            (301, "ISP-1-NET-1, ISP-1 Telecom", OperatorClass::Isp),
            (
                400,
                "HOSTER-0-NET-1, HOSTER-0 Hosting GmbH",
                OperatorClass::Webhoster,
            ),
        ] {
            r.insert(
                Asn::new(asn),
                AsInfo {
                    name: name.into(),
                    operator: OperatorId(asn),
                    class,
                    rir: 0,
                },
            );
        }
        r
    }

    fn vrp(prefix: &str, asn: u32) -> Vrp {
        Vrp {
            prefix: prefix.parse().unwrap(),
            max_length: 16,
            asn: Asn::new(asn),
        }
    }

    #[test]
    fn keyword_audit_counts_entries() {
        let reg = registry();
        let vrps = vec![
            vrp("9.0.0.0/16", 100),
            vrp("9.1.0.0/16", 100),
            vrp("9.2.0.0/16", 101),
            vrp("77.0.0.0/16", 300), // ISP, not a CDN match
        ];
        let rows = audit_cdns(&reg, &vrps, &["Internap", "Akamai", "Cloudflare"]);
        assert_eq!(rows[0].as_count, 2);
        assert_eq!(rows[0].rpki_prefixes.len(), 3);
        assert_eq!(rows[0].origin_asns.len(), 2);
        assert_eq!(rows[1].as_count, 1);
        assert!(rows[1].rpki_prefixes.is_empty());
        assert_eq!(rows[2].as_count, 0);
    }

    #[test]
    fn penetration_math() {
        let reg = registry();
        let vrps = vec![vrp("77.0.0.0/16", 300), vrp("78.0.0.0/16", 400)];
        assert!((class_penetration(&reg, &vrps, OperatorClass::Isp) - 0.5).abs() < 1e-9);
        assert!((class_penetration(&reg, &vrps, OperatorClass::Webhoster) - 1.0).abs() < 1e-9);
        assert_eq!(class_penetration(&reg, &[], OperatorClass::Isp), 0.0);
        assert_eq!(
            class_penetration(&reg, &vrps, OperatorClass::Enterprise),
            0.0
        );
    }

    #[test]
    fn summary_identifies_deployers() {
        let reg = registry();
        let vrps = vec![vrp("9.0.0.0/16", 100)];
        let rows = audit_cdns(&reg, &vrps, &["Internap", "Akamai"]);
        let s = summarize(&rows, &reg, &vrps);
        assert_eq!(s.total_cdn_asns, 3);
        assert_eq!(s.total_rpki_entries, 1);
        assert_eq!(s.cdns_with_deployment, vec!["Internap".to_string()]);
    }

    #[test]
    fn duplicate_vrp_prefixes_deduplicated() {
        let reg = registry();
        let vrps = vec![vrp("9.0.0.0/16", 100), vrp("9.0.0.0/16", 100)];
        let rows = audit_cdns(&reg, &vrps, &["Internap"]);
        assert_eq!(rows[0].rpki_prefixes.len(), 1);
    }

    #[test]
    fn row_display() {
        let reg = registry();
        let rows = audit_cdns(&reg, &[], &["Akamai"]);
        let s = rows[0].to_string();
        assert!(s.contains("Akamai"));
        assert!(s.contains("1 ASes"));
    }
}
