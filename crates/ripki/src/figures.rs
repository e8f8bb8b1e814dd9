//! Figure builders: the exact per-bin series of the paper's four graphs.

use crate::classify::{cname_chain_is_cdn, HttpArchiveClassifier};
use crate::pipeline::{DomainMeasurement, PipelineConfig, StudyResults};
use crate::stats::BinnedSeries;
use ripki_bgp::rov::RpkiState;
use serde::{Deserialize, Serialize};

/// Figure 1: fraction of domains whose `www` and bare forms map to equal
/// prefix sets, per rank bin.
pub fn fig1_www_overlap(results: &StudyResults, bin: usize) -> BinnedSeries {
    let total = results.domains.len();
    let mut scratch = Default::default();
    BinnedSeries::from_samples(
        results.domains.iter().map(|d| {
            // Only domains where both forms produced prefixes count.
            if d.www.pairs.is_empty() && d.bare.pairs.is_empty() {
                (d.rank, None)
            } else {
                let equal = d.equal_prefixes_with(&mut scratch);
                (d.rank, Some(if equal { 1.0 } else { 0.0 }))
            }
        }),
        total,
        bin,
    )
}

/// Figure 2: the three RFC 6811 outcome series (per-domain probabilities
/// for the bare name form, as the paper's per-domain "RPKI coverage").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Series {
    /// Mean fraction of valid pairs per bin.
    pub valid: BinnedSeries,
    /// Mean fraction of invalid pairs per bin.
    pub invalid: BinnedSeries,
    /// Mean fraction of uncovered pairs per bin.
    pub not_found: BinnedSeries,
}

/// Build Figure 2.
pub fn fig2_rpki_outcome(results: &StudyResults, bin: usize) -> Fig2Series {
    let total = results.domains.len();
    let series = |state: RpkiState| {
        BinnedSeries::from_samples(
            results
                .domains
                .iter()
                .map(|d| (d.rank, d.bare.state_fraction(state))),
            total,
            bin,
        )
    };
    Fig2Series {
        valid: series(RpkiState::Valid),
        invalid: series(RpkiState::Invalid),
        not_found: series(RpkiState::NotFound),
    }
}

/// Figure 3: CDN share per bin as seen by the two classifiers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Series {
    /// The paper's CNAME-chain (≥2 indirections) heuristic.
    pub cname_heuristic: BinnedSeries,
    /// The HTTPArchive pattern classifier (first 300k ranks only).
    pub httparchive: BinnedSeries,
}

/// Build Figure 3. `classifier` supplies the HTTPArchive side; pass the
/// scenario's CDN patterns to construct it. The classifier's walks run
/// on [`PipelineConfig::worker_threads`] threads (the `RIPKI_THREADS`
/// knob) and are folded in rank order, so the series do not depend on
/// the thread count.
pub fn fig3_cdn_popularity(
    results: &StudyResults,
    classifier: &HttpArchiveClassifier<'_>,
    bin: usize,
) -> Fig3Series {
    let total = results.domains.len();
    let cname_heuristic = BinnedSeries::from_samples(
        results.domains.iter().map(|d| {
            (
                d.rank,
                Some(if cname_chain_is_cdn(d, 2) { 1.0 } else { 0.0 }),
            )
        }),
        total,
        bin,
    );
    let domains: Vec<&DomainMeasurement> = results.domains.iter().collect();
    let verdicts = ripki_par::run_indexed(
        PipelineConfig::default().worker_threads(),
        &domains,
        |_| (),
        |(), _, d| classifier.classify(d.rank, &d.listed),
    );
    let httparchive = BinnedSeries::from_samples(
        domains.iter().zip(verdicts).map(|(d, verdict)| {
            // A panicked walk is a bug, not an out-of-coverage rank.
            let verdict = verdict.unwrap_or_else(|| panic!("classifying {} panicked", d.listed));
            (d.rank, verdict.map(|c| if c { 1.0 } else { 0.0 }))
        }),
        total,
        bin,
    );
    Fig3Series {
        cname_heuristic,
        httparchive,
    }
}

/// Figure 4: RPKI-enabled share per bin, overall vs CDN-hosted only.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Series {
    /// All domains: mean covered fraction (Valid or Invalid).
    pub rpki_enabled: BinnedSeries,
    /// Only domains the CNAME heuristic classifies as CDN-hosted.
    pub rpki_enabled_on_cdns: BinnedSeries,
}

/// Build Figure 4.
pub fn fig4_rpki_on_cdns(results: &StudyResults, bin: usize) -> Fig4Series {
    let total = results.domains.len();
    let rpki_enabled = BinnedSeries::from_samples(
        results
            .domains
            .iter()
            .map(|d| (d.rank, d.bare.covered_fraction())),
        total,
        bin,
    );
    let rpki_enabled_on_cdns = BinnedSeries::from_samples(
        results.domains.iter().map(|d| {
            if cname_chain_is_cdn(d, 2) {
                // CDN-hosted: the www form is the CDN-served one.
                (d.rank, d.www.covered_fraction())
            } else {
                (d.rank, None)
            }
        }),
        total,
        bin,
    );
    Fig4Series {
        rpki_enabled,
        rpki_enabled_on_cdns,
    }
}

/// Extension (paper §7 future work): RPKI coverage vs DNSSEC signing
/// across the ranking.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExtDnssecSeries {
    /// Mean RPKI-covered fraction per bin (bare form; as Fig 4 overall).
    pub rpki_covered: BinnedSeries,
    /// Fraction of domains whose bare-name resolution authenticated.
    pub dnssec_signed: BinnedSeries,
}

/// Build the RPKI-vs-DNSSEC comparison.
pub fn ext_dnssec_comparison(results: &StudyResults, bin: usize) -> ExtDnssecSeries {
    let total = results.domains.len();
    ExtDnssecSeries {
        rpki_covered: BinnedSeries::from_samples(
            results
                .domains
                .iter()
                .map(|d| (d.rank, d.bare.covered_fraction())),
            total,
            bin,
        ),
        dnssec_signed: BinnedSeries::from_samples(
            results.domains.iter().map(|d| {
                if d.bare.resolve_failed {
                    (d.rank, None)
                } else {
                    (
                        d.rank,
                        Some(if d.bare.dnssec_authenticated {
                            1.0
                        } else {
                            0.0
                        }),
                    )
                }
            }),
            total,
            bin,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{NameMeasurement, PairState};
    use ripki_net::Asn;

    fn nm(states: &[RpkiState], chain: usize) -> NameMeasurement {
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
            cname_chain: (0..chain)
                .map(|i| ripki_dns::DomainName::parse(&format!("c{i}.cdn-x.net")).unwrap())
                .collect(),
            ..Default::default()
        }
    }

    fn dm(rank: usize, states: &[RpkiState], chain: usize) -> DomainMeasurement {
        DomainMeasurement {
            rank,
            listed: ripki_dns::DomainName::parse(&format!("d{rank}.example")).unwrap(),
            www: nm(states, chain),
            bare: nm(states, 0),
        }
    }

    fn results(domains: Vec<DomainMeasurement>) -> StudyResults {
        StudyResults {
            domains: domains.into(),
            ..Default::default()
        }
    }

    use RpkiState::*;

    #[test]
    fn fig2_probabilities() {
        let r = results(vec![
            dm(0, &[Valid, NotFound], 0),
            dm(1, &[Invalid], 0),
            dm(2, &[NotFound, NotFound], 0),
        ]);
        let f = fig2_rpki_outcome(&r, 10);
        assert_eq!(f.valid.means[0], Some((0.5 + 0.0 + 0.0) / 3.0));
        assert_eq!(f.invalid.means[0], Some(1.0 / 3.0));
        assert!((f.not_found.means[0].unwrap() - (0.5 + 0.0 + 1.0) / 3.0).abs() < 1e-12);
        // The three series sum to 1 where defined.
        let s =
            f.valid.means[0].unwrap() + f.invalid.means[0].unwrap() + f.not_found.means[0].unwrap();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig2_skips_unresolvable_domains() {
        let r = results(vec![dm(0, &[], 0), dm(1, &[Valid], 0)]);
        let f = fig2_rpki_outcome(&r, 10);
        assert_eq!(f.valid.counts[0], 1);
        assert_eq!(f.valid.means[0], Some(1.0));
    }

    #[test]
    fn fig1_equality() {
        let mut equal = dm(0, &[Valid], 0);
        equal.www = equal.bare.clone();
        let differing = dm(1, &[Valid, NotFound], 0); // www has 2 pairs, bare 2 — same
                                                      // Make bare differ.
        let mut differing = differing;
        differing.bare = nm(&[Valid], 0);
        let r = results(vec![equal, differing]);
        let f = fig1_www_overlap(&r, 10);
        assert_eq!(f.means[0], Some(0.5));
    }

    #[test]
    fn fig4_cdn_conditioning() {
        let r = results(vec![
            dm(0, &[Valid], 2),    // CDN-hosted (chain 2), covered
            dm(1, &[NotFound], 0), // not CDN
            dm(2, &[NotFound], 2), // CDN-hosted, uncovered
        ]);
        let f = fig4_rpki_on_cdns(&r, 10);
        // Overall: mean of (1, 0, 0) = 1/3.
        assert!((f.rpki_enabled.means[0].unwrap() - 1.0 / 3.0).abs() < 1e-12);
        // CDN-only: ranks 0 and 2 → mean of (1, 0) = 0.5.
        assert_eq!(f.rpki_enabled_on_cdns.counts[0], 2);
        assert_eq!(f.rpki_enabled_on_cdns.means[0], Some(0.5));
    }
}
