//! Table builders — Table 1: the top-ranked domains with any RPKI
//! coverage.

use crate::pipeline::{NameMeasurement, StudyResults};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Coverage mark for one name form, as printed in Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoverageMark {
    /// All prefixes covered (the paper's check mark).
    Full,
    /// Some but not all prefixes covered (the paper's half mark).
    Partial,
    /// No prefix covered (the paper's cross).
    None,
    /// Name form did not resolve / no data (the paper's "n/a").
    NotAvailable,
}

impl fmt::Display for CoverageMark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverageMark::Full => write!(f, "✓"),
            CoverageMark::Partial => write!(f, "◐"),
            CoverageMark::None => write!(f, "✗"),
            CoverageMark::NotAvailable => write!(f, "n/a"),
        }
    }
}

/// One Table 1 cell: mark plus `(covered/total)` counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageCell {
    /// The mark.
    pub mark: CoverageMark,
    /// Covered prefix-AS pairs.
    pub covered: usize,
    /// Total prefix-AS pairs.
    pub total: usize,
}

impl CoverageCell {
    /// Build from a name measurement.
    pub fn of(m: &NameMeasurement) -> CoverageCell {
        if m.resolve_failed || m.pairs.is_empty() {
            return CoverageCell {
                mark: CoverageMark::NotAvailable,
                covered: 0,
                total: 0,
            };
        }
        let (covered, total) = m.coverage_counts();
        let mark = if covered == 0 {
            CoverageMark::None
        } else if covered == total {
            CoverageMark::Full
        } else {
            CoverageMark::Partial
        };
        CoverageCell {
            mark,
            covered,
            total,
        }
    }

    /// Whether this cell shows any coverage.
    pub fn any_coverage(&self) -> bool {
        self.covered > 0
    }
}

impl fmt::Display for CoverageCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mark {
            CoverageMark::NotAvailable => write!(f, "n/a"),
            _ => write!(f, "{} ({}/{})", self.mark, self.covered, self.total),
        }
    }
}

/// One Table 1 row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// 1-based Alexa-style rank.
    pub rank: usize,
    /// The domain as listed.
    pub domain: String,
    /// Coverage of the `www` form.
    pub www: CoverageCell,
    /// Coverage of the bare form.
    pub bare: CoverageCell,
}

impl fmt::Display for Table1Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>7}  {:<34} {:>12} {:>12}",
            self.rank,
            self.domain,
            self.www.to_string(),
            self.bare.to_string()
        )
    }
}

/// Table 1: the first `n` ranked domains having RPKI coverage on at
/// least one name form (the paper shows the top 10).
pub fn table1_top_covered(results: &StudyResults, n: usize) -> Vec<Table1Row> {
    let mut rows = Vec::with_capacity(n);
    for d in &results.domains {
        let www = CoverageCell::of(&d.www);
        let bare = CoverageCell::of(&d.bare);
        if www.any_coverage() || bare.any_coverage() {
            rows.push(Table1Row {
                rank: d.rank + 1,
                domain: d.listed.to_string(),
                www,
                bare,
            });
            if rows.len() == n {
                break;
            }
        }
    }
    rows
}

/// Render Table 1 rows with a header, paper-style.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out =
        String::from("   rank  domain                                      www      w/o www\n");
    for row in rows {
        out.push_str(&row.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{DomainMeasurement, PairState};
    use ripki_bgp::rov::RpkiState;
    use ripki_net::Asn;

    fn nm(states: &[RpkiState]) -> NameMeasurement {
        NameMeasurement {
            pairs: states
                .iter()
                .enumerate()
                .map(|(i, s)| PairState {
                    prefix: format!("10.{i}.0.0/16").parse().unwrap(),
                    origin: Asn::new(1),
                    state: *s,
                })
                .collect(),
            ..Default::default()
        }
    }

    fn dm(rank: usize, www: &[RpkiState], bare: &[RpkiState]) -> DomainMeasurement {
        DomainMeasurement {
            rank,
            listed: ripki_dns::DomainName::parse(&format!("d{rank}.example")).unwrap(),
            www: nm(www),
            bare: nm(bare),
        }
    }

    use RpkiState::*;

    #[test]
    fn coverage_cells() {
        let full = CoverageCell::of(&nm(&[Valid, Invalid]));
        assert_eq!(full.mark, CoverageMark::Full);
        assert_eq!((full.covered, full.total), (2, 2));
        let partial = CoverageCell::of(&nm(&[Valid, NotFound, NotFound]));
        assert_eq!(partial.mark, CoverageMark::Partial);
        assert_eq!(partial.to_string(), "◐ (1/3)");
        let none = CoverageCell::of(&nm(&[NotFound]));
        assert_eq!(none.mark, CoverageMark::None);
        assert!(!none.any_coverage());
        let na = CoverageCell::of(&nm(&[]));
        assert_eq!(na.mark, CoverageMark::NotAvailable);
        assert_eq!(na.to_string(), "n/a");
        let failed = CoverageCell::of(&NameMeasurement {
            resolve_failed: true,
            ..Default::default()
        });
        assert_eq!(failed.mark, CoverageMark::NotAvailable);
    }

    #[test]
    fn table1_picks_first_covered_in_rank_order() {
        let results = StudyResults {
            domains: vec![
                dm(0, &[NotFound], &[NotFound]),
                dm(1, &[Valid, Valid], &[Valid]),
                dm(2, &[NotFound], &[Invalid, NotFound]),
                dm(3, &[NotFound], &[NotFound]),
                dm(4, &[Valid], &[NotFound]),
            ]
            .into(),
            vrp_count: 0,
            rpki_rejected: 0,
            ..Default::default()
        };
        let rows = table1_top_covered(&results, 10);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].rank, 2);
        assert_eq!(rows[0].www.mark, CoverageMark::Full);
        assert_eq!(rows[1].rank, 3);
        assert_eq!(rows[1].bare.mark, CoverageMark::Partial);
        assert_eq!(rows[2].rank, 5);
        // Invalid counts as covered, per the paper ("either correctly or
        // incorrectly announced").
        assert!(rows[1].bare.any_coverage());
    }

    #[test]
    fn table1_respects_n() {
        let results = StudyResults {
            domains: (0..20).map(|r| dm(r, &[Valid], &[Valid])).collect(),
            vrp_count: 0,
            rpki_rejected: 0,
            ..Default::default()
        };
        assert_eq!(table1_top_covered(&results, 10).len(), 10);
    }

    #[test]
    fn rendering_contains_header_and_rows() {
        let results = StudyResults {
            domains: vec![dm(0, &[Valid], &[NotFound])].into(),
            vrp_count: 0,
            rpki_rejected: 0,
            ..Default::default()
        };
        let rows = table1_top_covered(&results, 10);
        let text = render_table1(&rows);
        assert!(text.contains("w/o www"));
        assert!(text.contains("d0.example"));
        assert!(text.contains("✓ (1/1)"));
        assert!(text.contains("✗ (0/1)"));
    }
}
