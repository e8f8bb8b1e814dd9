//! Headline statistics and report export.
//!
//! The §4 intro numbers: address counts per name form, prefix-AS pair
//! counts, excluded DNS answers, unreachable addresses — computed from
//! the same per-domain measurements the figures use.

use crate::pipeline::StudyResults;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The §4 headline statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HeadlineStats {
    /// Domains measured.
    pub domains: usize,
    /// Addresses gathered for the `www` forms (paper: 1,167,086 at 1M).
    pub www_addresses: usize,
    /// Addresses gathered for the bare forms (paper: 1,154,170).
    pub bare_addresses: usize,
    /// Distinct prefix-AS pairs for the `www` forms (paper: 1,369,030).
    pub www_pairs: usize,
    /// Distinct prefix-AS pairs for the bare forms (paper: 1,334,957).
    pub bare_pairs: usize,
    /// Fraction of DNS answers excluded as special-purpose
    /// (paper: 0.07%).
    pub invalid_dns_fraction: f64,
    /// Fraction of kept addresses unreachable from the BGP vantage
    /// (paper: 0.01%).
    pub unreachable_fraction: f64,
    /// Table entries skipped for `AS_SET` origins.
    pub as_set_skipped: usize,
    /// Names that failed to resolve entirely.
    pub resolve_failures: usize,
    /// VRPs used for origin validation.
    pub vrp_count: usize,
}

impl HeadlineStats {
    /// Compute from study results.
    pub fn compute(results: &StudyResults) -> HeadlineStats {
        let mut s = HeadlineStats {
            domains: results.domains.len(),
            vrp_count: results.vrp_count,
            ..Default::default()
        };
        let mut total_answers = 0usize;
        let mut excluded = 0usize;
        let mut unreachable = 0usize;
        for d in &results.domains {
            s.www_addresses += d.www.addresses.len();
            s.bare_addresses += d.bare.addresses.len();
            s.www_pairs += d.www.pairs.len();
            s.bare_pairs += d.bare.pairs.len();
            for m in [&d.www, &d.bare] {
                total_answers += m.addresses.len() + m.excluded_invalid;
                excluded += m.excluded_invalid;
                unreachable += m.unreachable;
                s.as_set_skipped += m.as_set_skipped;
                if m.resolve_failed {
                    s.resolve_failures += 1;
                }
            }
        }
        if total_answers > 0 {
            s.invalid_dns_fraction = excluded as f64 / total_answers as f64;
        }
        let kept = s.www_addresses + s.bare_addresses;
        if kept > 0 {
            s.unreachable_fraction = unreachable as f64 / kept as f64;
        }
        s
    }

    /// Average prefix-AS pairs per kept address (the paper's ≈1.17).
    pub fn pairs_per_address(&self) -> f64 {
        let addrs = (self.www_addresses + self.bare_addresses) as f64;
        if addrs == 0.0 {
            return 0.0;
        }
        (self.www_pairs + self.bare_pairs) as f64 / addrs
    }

    /// Serialize to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("stats are serializable")
    }
}

impl fmt::Display for HeadlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "domains measured:          {}", self.domains)?;
        writeln!(f, "www addresses:             {}", self.www_addresses)?;
        writeln!(f, "w/o www addresses:         {}", self.bare_addresses)?;
        writeln!(f, "www prefix-AS pairs:       {}", self.www_pairs)?;
        writeln!(f, "w/o www prefix-AS pairs:   {}", self.bare_pairs)?;
        writeln!(
            f,
            "invalid DNS answers:       {:.3}%",
            self.invalid_dns_fraction * 100.0
        )?;
        writeln!(
            f,
            "unreachable addresses:     {:.3}%",
            self.unreachable_fraction * 100.0
        )?;
        writeln!(f, "AS_SET entries skipped:    {}", self.as_set_skipped)?;
        writeln!(f, "resolution failures:       {}", self.resolve_failures)?;
        write!(f, "VRPs loaded:               {}", self.vrp_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{DomainMeasurement, NameMeasurement, PairState};
    use ripki_bgp::rov::RpkiState;
    use ripki_net::Asn;

    fn nm(addrs: usize, pairs: usize, excluded: usize, unreachable: usize) -> NameMeasurement {
        NameMeasurement {
            addresses: (0..addrs)
                .map(|i| format!("9.9.{i}.1").parse().unwrap())
                .collect(),
            pairs: (0..pairs)
                .map(|i| PairState {
                    prefix: format!("9.{i}.0.0/16").parse().unwrap(),
                    origin: Asn::new(1),
                    state: RpkiState::NotFound,
                })
                .collect(),
            excluded_invalid: excluded,
            unreachable,
            ..Default::default()
        }
    }

    #[test]
    fn compute_aggregates() {
        let results = StudyResults {
            domains: vec![
                DomainMeasurement {
                    rank: 0,
                    listed: ripki_dns::DomainName::parse("a.example").unwrap(),
                    www: nm(2, 3, 1, 0),
                    bare: nm(1, 1, 0, 1),
                },
                DomainMeasurement {
                    rank: 1,
                    listed: ripki_dns::DomainName::parse("b.example").unwrap(),
                    www: nm(1, 1, 0, 0),
                    bare: NameMeasurement {
                        resolve_failed: true,
                        ..Default::default()
                    },
                },
            ]
            .into(),
            vrp_count: 42,
            rpki_rejected: 0,
            ..Default::default()
        };
        let s = HeadlineStats::compute(&results);
        assert_eq!(s.domains, 2);
        assert_eq!(s.www_addresses, 3);
        assert_eq!(s.bare_addresses, 1);
        assert_eq!(s.www_pairs, 4);
        assert_eq!(s.bare_pairs, 1);
        assert_eq!(s.resolve_failures, 1);
        assert_eq!(s.vrp_count, 42);
        // 5 total answers incl. 1 excluded.
        assert!((s.invalid_dns_fraction - 0.2).abs() < 1e-9);
        // 4 kept addresses, 1 unreachable.
        assert!((s.unreachable_fraction - 0.25).abs() < 1e-9);
        assert!((s.pairs_per_address() - 5.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_results_no_nan() {
        let s = HeadlineStats::compute(&StudyResults::default());
        assert_eq!(s.invalid_dns_fraction, 0.0);
        assert_eq!(s.unreachable_fraction, 0.0);
        assert_eq!(s.pairs_per_address(), 0.0);
    }

    #[test]
    fn json_roundtrip() {
        let s = HeadlineStats {
            domains: 7,
            vrp_count: 3,
            ..Default::default()
        };
        let json = s.to_json();
        let back: HeadlineStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let s = HeadlineStats {
            domains: 1000,
            www_addresses: 1167,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("1000"));
        assert!(text.contains("1167"));
        assert!(text.contains("w/o www"));
    }
}
