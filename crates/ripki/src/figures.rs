//! Figure builders: the exact per-bin series of the paper's four graphs,
//! each figure built in one pass over the rows.

use crate::classify::{cname_chain_is_cdn, HttpArchiveClassifier};
use crate::pipeline::{DomainMeasurement, StudyResults};
use crate::stats::{BinAccumulator, BinnedSeries};
use ripki_bgp::rov::RpkiState;
use serde::{Deserialize, Serialize};

/// One pass over the rows in rank order: `samples` gives a row's value
/// for each of the `N` series (`None` = undefined there, skipped).
fn binned<const N: usize>(
    results: &StudyResults,
    bin: usize,
    mut samples: impl FnMut(&DomainMeasurement) -> [Option<f64>; N],
) -> [BinnedSeries; N] {
    let total = results.domains.len();
    let mut series: [BinAccumulator; N] = std::array::from_fn(|_| BinAccumulator::new(total, bin));
    for d in &results.domains {
        for (bins, value) in series.iter_mut().zip(samples(d)) {
            bins.add(d.rank, value);
        }
    }
    series.map(BinAccumulator::finish)
}

/// A yes/no sample.
fn indicator(yes: bool) -> f64 {
    f64::from(u8::from(yes))
}

/// Figure 1: fraction of domains whose `www` and bare forms map to equal
/// prefix sets, per rank bin.
pub fn fig1_www_overlap(results: &StudyResults, bin: usize) -> BinnedSeries {
    let mut scratch = Default::default();
    let [overlap] = binned(results, bin, |d| {
        // Only domains where both forms produced prefixes count.
        let both_empty = d.www.pairs.is_empty() && d.bare.pairs.is_empty();
        [(!both_empty).then(|| indicator(d.equal_prefixes_with(&mut scratch)))]
    });
    overlap
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
    let [valid, invalid, not_found] = binned(results, bin, |d| {
        [RpkiState::Valid, RpkiState::Invalid, RpkiState::NotFound]
            .map(|state| d.bare.state_fraction(state))
    });
    Fig2Series {
        valid,
        invalid,
        not_found,
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

/// Build Figure 3 in one serial pass over the rows. `classifier`, built
/// with the scenario's CDN patterns, reads its verdicts off the rows'
/// CNAME chains and resolves again only a form its row cannot answer
/// for (see [`crate::classify`]). The rows must come from a run over the
/// zones `classifier` was built on.
pub fn fig3_cdn_popularity(
    results: &StudyResults,
    classifier: &HttpArchiveClassifier<'_>,
    bin: usize,
) -> Fig3Series {
    let [cname_heuristic, httparchive] = binned(results, bin, |d| {
        [
            Some(indicator(cname_chain_is_cdn(d, 2))),
            classifier.classify_row(d).map(indicator),
        ]
    });
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
    let [rpki_enabled, rpki_enabled_on_cdns] = binned(results, bin, |d| {
        [
            d.bare.covered_fraction(),
            // CDN-hosted: the www form is the CDN-served one.
            d.www
                .covered_fraction()
                .filter(|_| cname_chain_is_cdn(d, 2)),
        ]
    });
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
    let [rpki_covered, dnssec_signed] = binned(results, bin, |d| {
        [
            d.bare.covered_fraction(),
            (!d.bare.resolve_failed).then(|| indicator(d.bare.dnssec_authenticated)),
        ]
    });
    ExtDnssecSeries {
        rpki_covered,
        dnssec_signed,
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
