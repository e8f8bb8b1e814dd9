//! CDN classification (paper §4.3).
//!
//! Two independent classifiers, compared in Fig 3:
//!
//! * [`cname_chain_is_cdn`] — the paper's own heuristic: "We say a domain
//!   is served by a CDN, if the IP address of its domain name is
//!   indirectly accessed via two or more CNAMEs." Conservative: misses
//!   single-CNAME and direct-A CDN deployments.
//! * [`HttpArchiveClassifier`] — the cross-check: "HTTPArchive classifies
//!   the first 300k Alexa domains based on DNS pattern matching of
//!   CNAMEs", from a geographically distinct vantage (Redwood City).
//!
//! The HTTPArchive side reads only the CNAME chain. From its vantage it
//! follows each name with [`ZoneStore::lookup`] over names borrowed from
//! the zone's own records, running [`Resolver::resolve`]'s loop step for
//! step: the same [`MAX_CHAIN`] bound, the same loop test against the
//! query and every link so far, NXDOMAIN when a lookup finds nothing,
//! and no-address when the terminal record set has no A/AAAA. A walk
//! that `resolve` would fail fails here too and counts "not CDN"; one it
//! would answer yields the same chain, so the verdict — "some link
//! matches a pattern" — is `resolve`'s. What the walk skips is what the
//! verdict never read: the [`Resolution`](ripki_dns::Resolution), its
//! address vector and the per-link DNSSEC check. The walk allocates
//! nothing; `classify` builds the two name forms once per domain.
//!
//! [`Resolver::resolve`]: ripki_dns::Resolver::resolve

use crate::pipeline::DomainMeasurement;
use ripki_dns::resolver::MAX_CHAIN;
use ripki_dns::vantage::Vantage;
use ripki_dns::zone::ZoneStore;
use ripki_dns::{DomainName, RecordData};

/// HTTPArchive's classification covered only the first 300k ranks.
pub const HTTPARCHIVE_LIMIT: usize = 300_000;

/// The paper's CNAME-chain heuristic over a measured domain: CDN-served
/// iff either name form needed ≥ `threshold` DNS indirections
/// (paper value: 2).
pub fn cname_chain_is_cdn(m: &DomainMeasurement, threshold: usize) -> bool {
    m.www.indirections() >= threshold || m.bare.indirections() >= threshold
}

/// An HTTPArchive-style classifier: pattern matching of CNAME targets
/// against known CDN domain suffixes, resolved from its own vantage.
pub struct HttpArchiveClassifier<'z> {
    zones: &'z ZoneStore,
    patterns: Vec<String>,
    vantage: Vantage,
    /// Rank limit (HTTPArchive covered 300k; tests may shrink it).
    pub limit: usize,
}

impl<'z> HttpArchiveClassifier<'z> {
    /// Build a classifier with the given CDN suffix patterns (e.g.
    /// `"akamai-sim.net"`).
    pub fn new(zones: &'z ZoneStore, patterns: Vec<String>) -> HttpArchiveClassifier<'z> {
        HttpArchiveClassifier {
            zones,
            patterns: patterns
                .into_iter()
                .map(|p| p.to_ascii_lowercase())
                .collect(),
            vantage: Vantage::HTTPARCHIVE_REDWOOD,
            limit: HTTPARCHIVE_LIMIT,
        }
    }

    /// Whether a CNAME target matches any CDN pattern.
    fn matches_pattern(&self, name: &DomainName) -> bool {
        self.patterns.iter().any(|p| name.has_suffix(p))
    }

    /// Classify one domain: `None` if out of coverage (rank ≥ limit),
    /// otherwise whether any CNAME in either name form's chain matches a
    /// CDN pattern.
    pub fn classify(&self, rank: usize, listed: &DomainName) -> Option<bool> {
        if rank >= self.limit {
            return None;
        }
        let bare = listed.without_www();
        let www = bare.with_www();
        Some(self.chain_matches(&www) || self.chain_matches(&bare))
    }

    /// Whether `name` resolves from this vantage through a CNAME that
    /// matches a CDN pattern (see the module doc for the walk).
    fn chain_matches(&self, name: &DomainName) -> bool {
        let mut chain = [name; MAX_CHAIN];
        let mut len = 0;
        let mut current = name;
        loop {
            let Some(records) = self.zones.lookup(current, self.vantage) else {
                return false; // NXDOMAIN
            };
            if let Some(target) = records.iter().find_map(RecordData::cname) {
                if len == MAX_CHAIN || target == name || chain[..len].contains(&target) {
                    return false; // chain too long, or a loop
                }
                chain[len] = target;
                len += 1;
                current = target;
                continue;
            }
            return records.iter().any(|r| r.addr().is_some())
                && chain[..len].iter().any(|c| self.matches_pattern(c));
        }
    }
}

/// Precision/recall of a classifier against ground truth — used by the
/// threshold ablation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClassifierScore {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
    /// True negatives.
    pub tn: usize,
}

impl ClassifierScore {
    /// Add one (predicted, actual) observation.
    pub fn observe(&mut self, predicted: bool, actual: bool) {
        match (predicted, actual) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, true) => self.fn_ += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// Precision (1.0 when no positives were predicted).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall (1.0 when there were no actual positives).
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::NameMeasurement;

    fn n(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn measurement(www_chain: &[&str], bare_chain: &[&str]) -> DomainMeasurement {
        let chain = |names: &[&str]| NameMeasurement {
            cname_chain: names.iter().map(|s| n(s)).collect(),
            ..Default::default()
        };
        DomainMeasurement {
            rank: 0,
            listed: n("x.example"),
            www: chain(www_chain),
            bare: chain(bare_chain),
        }
    }

    #[test]
    fn chain_heuristic_threshold() {
        let two = measurement(&["a.cdn.net", "edge.cdn.net"], &[]);
        assert!(cname_chain_is_cdn(&two, 2));
        let one = measurement(&["edge.cdn.net"], &[]);
        assert!(!cname_chain_is_cdn(&one, 2));
        assert!(cname_chain_is_cdn(&one, 1));
        let none = measurement(&[], &[]);
        assert!(!cname_chain_is_cdn(&none, 1));
        // Either form suffices.
        let bare_only = measurement(&[], &["a.cdn.net", "b.cdn.net"]);
        assert!(cname_chain_is_cdn(&bare_only, 2));
    }

    fn zones() -> ZoneStore {
        let mut z = ZoneStore::new();
        // CDN chain visible from the HTTPArchive vantage.
        z.add_cname(n("www.shop.example"), n("shop.edgesuite.akamai-sim.net"));
        z.add_cname(n("shop.edgesuite.akamai-sim.net"), n("a9.g.akamai-sim.net"));
        z.add_addr(n("a9.g.akamai-sim.net"), "8.8.8.8".parse().unwrap());
        z.add_addr(n("shop.example"), "9.9.9.9".parse().unwrap());
        // Plain host.
        z.add_addr(n("plain.example"), "9.9.9.1".parse().unwrap());
        z.add_addr(n("www.plain.example"), "9.9.9.1".parse().unwrap());
        // Single CNAME into CDN space: pattern classifier catches it,
        // chain-length-2 heuristic would not.
        z.add_cname(n("www.single.example"), n("e1.g.cloudflare-sim.net"));
        z.add_addr(n("e1.g.cloudflare-sim.net"), "7.7.7.7".parse().unwrap());
        z.add_addr(n("single.example"), "7.7.7.8".parse().unwrap());
        z
    }

    #[test]
    fn httparchive_matches_patterns() {
        let z = zones();
        let c = HttpArchiveClassifier::new(
            &z,
            vec!["akamai-sim.net".into(), "cloudflare-sim.net".into()],
        );
        assert_eq!(c.classify(0, &n("shop.example")), Some(true));
        assert_eq!(c.classify(1, &n("plain.example")), Some(false));
        assert_eq!(c.classify(2, &n("single.example")), Some(true));
    }

    #[test]
    fn httparchive_limit_respected() {
        let z = zones();
        let mut c = HttpArchiveClassifier::new(&z, vec!["akamai-sim.net".into()]);
        c.limit = 2;
        assert!(c.classify(1, &n("shop.example")).is_some());
        assert_eq!(c.classify(2, &n("shop.example")), None);
    }

    #[test]
    fn pattern_match_respects_label_boundaries() {
        let z = {
            let mut z = ZoneStore::new();
            z.add_cname(n("www.t.example"), n("notakamai-sim.net"));
            z.add_addr(n("notakamai-sim.net"), "5.5.5.5".parse().unwrap());
            z.add_addr(n("t.example"), "5.5.5.6".parse().unwrap());
            z
        };
        let c = HttpArchiveClassifier::new(&z, vec!["akamai-sim.net".into()]);
        assert_eq!(c.classify(0, &n("t.example")), Some(false));
    }

    /// The classification `classify` replaced: a full
    /// `Resolver::resolve` of each name form, kept as the oracle.
    fn classify_by_resolving(
        c: &HttpArchiveClassifier<'_>,
        rank: usize,
        listed: &DomainName,
    ) -> Option<bool> {
        if rank >= c.limit {
            return None;
        }
        let resolver = ripki_dns::Resolver::new(c.zones, c.vantage);
        let bare = listed.without_www();
        let www = bare.with_www();
        let mut is_cdn = false;
        for name in [&www, &bare] {
            if let Ok(res) = resolver.resolve(name) {
                if res.cname_chain.iter().any(|link| c.matches_pattern(link)) {
                    is_cdn = true;
                }
            }
        }
        Some(is_cdn)
    }

    #[test]
    fn chain_walk_equals_full_resolution_on_a_scenario() {
        let scenario =
            ripki_websim::Scenario::build(ripki_websim::ScenarioConfig::with_domains(2_000));
        let patterns = scenario
            .cdn_infras
            .iter()
            .map(|i| format!("{}-sim.net", i.name))
            .collect();
        let c = HttpArchiveClassifier::new(&scenario.zones, patterns);
        let mut cdn = 0;
        for (rank, listed) in scenario.ranking.iter().enumerate() {
            let verdict = c.classify(rank, listed);
            assert_eq!(verdict, classify_by_resolving(&c, rank, listed), "{listed}");
            cdn += usize::from(verdict == Some(true));
        }
        assert!(cdn > 0 && cdn < scenario.ranking.len(), "{cdn} CDN domains");
    }

    #[test]
    fn chain_walk_equals_full_resolution_on_failing_chains() {
        let a = |s: &str| s.parse().unwrap();
        let mut z = ZoneStore::new();
        // A loop back to the query through a CDN name.
        z.add_cname(n("www.loop.example"), n("l1.akamai-sim.net"));
        z.add_cname(n("l1.akamai-sim.net"), n("www.loop.example"));
        // A loop among CDN names, not through the query.
        z.add_cname(n("www.ring.example"), n("r1.akamai-sim.net"));
        z.add_cname(n("r1.akamai-sim.net"), n("r2.akamai-sim.net"));
        z.add_cname(n("r2.akamai-sim.net"), n("r1.akamai-sim.net"));
        // NXDOMAIN after a CDN name.
        z.add_cname(n("www.nx.example"), n("nx.akamai-sim.net"));
        z.add_cname(n("nx.akamai-sim.net"), n("void.example"));
        // A record-less tail: the zone API cannot hold an empty record
        // set (a delta that empties one removes the name), so the tail a
        // resolver finds without addresses reads as absent.
        z.add_cname(n("www.na.example"), n("na.akamai-sim.net"));
        z.add_addr(n("na.akamai-sim.net"), a("7.7.7.1"));
        let mut delta = ripki_dns::ZoneDelta::new();
        delta.set_records(n("na.akamai-sim.net"), Vec::new());
        let (z, _) = ZoneStore::apply(std::sync::Arc::new(z), &delta);
        let mut z = z;
        // MAX_CHAIN links resolve; MAX_CHAIN + 1 do not.
        for (query, links) in [
            ("www.ok.example", MAX_CHAIN),
            ("www.long.example", MAX_CHAIN + 1),
        ] {
            let hop = |i: usize| n(&format!("h{i}.{}.akamai-sim.net", links));
            z.add_cname(n(query), hop(1));
            for i in 1..links {
                z.add_cname(hop(i), hop(i + 1));
            }
            z.add_addr(hop(links), a("7.7.7.2"));
        }
        // The HTTPArchive vantage sees a CDN chain the base does not…
        z.add_addr(n("www.geo.example"), a("7.7.7.3"));
        z.add_override(
            n("www.geo.example"),
            Vantage::HTTPARCHIVE_REDWOOD,
            RecordData::Cname(n("geo.akamai-sim.net")),
        );
        z.add_addr(n("geo.akamai-sim.net"), a("7.7.7.4"));
        // …and an address where the base has a CDN chain.
        z.add_cname(n("www.direct.example"), n("d.akamai-sim.net"));
        z.add_addr(n("d.akamai-sim.net"), a("7.7.7.5"));
        z.add_override(
            n("www.direct.example"),
            Vantage::HTTPARCHIVE_REDWOOD,
            RecordData::A("7.7.7.6".parse().unwrap()),
        );

        let c = HttpArchiveClassifier::new(&z, vec!["AKAMAI-sim.net".into()]);
        for (listed, expected) in [
            ("loop.example", false),
            ("ring.example", false),
            ("nx.example", false),
            ("na.example", false),
            ("ok.example", true),
            ("long.example", false),
            ("geo.example", true),
            ("direct.example", false),
            ("absent.example", false),
        ] {
            let listed = n(listed);
            assert_eq!(c.classify(0, &listed), Some(expected), "{listed}");
            assert_eq!(
                c.classify(0, &listed),
                classify_by_resolving(&c, 0, &listed),
                "{listed}"
            );
        }
    }

    #[test]
    fn classifier_score_math() {
        let mut s = ClassifierScore::default();
        s.observe(true, true);
        s.observe(true, true);
        s.observe(true, false);
        s.observe(false, true);
        s.observe(false, false);
        assert_eq!(s.tp, 2);
        assert!((s.precision() - 2.0 / 3.0).abs() < 1e-9);
        assert!((s.recall() - 2.0 / 3.0).abs() < 1e-9);
        let empty = ClassifierScore::default();
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
    }
}
