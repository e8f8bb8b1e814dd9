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
//! HTTPArchive's verdict on a name form is whether [`Resolver::resolve`]
//! from Redwood City, the one walk there is, passes a CNAME matching a
//! pattern. Fig 3 reads it off the study's rows: a resolved row stores
//! the chain its vantage walked, which is Redwood City's chain unless a
//! name on it is *divergent* — two vantages see answers of different
//! shape for it (whether it exists, its first CNAME target, whether it
//! holds an address: all that one step reads). Only a name with an
//! override can be, so [`HttpArchiveClassifier::new`] scans the
//! overrides once. A form is resolved again if it failed (its row keeps
//! no chain), if an answer was excluded as special-purpose (where every
//! corrupted answer lands, chainless), or if its query name or a link is
//! divergent. The rows must come from a run over the classifier's zones.
//!
//! [`Resolver::resolve`]: ripki_dns::Resolver::resolve

use crate::pipeline::{DomainMeasurement, NameMeasurement};
use ripki_dns::vantage::Vantage;
use ripki_dns::zone::ZoneStore;
use ripki_dns::{DomainName, RecordData, Resolver};
use std::collections::HashSet;

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
    /// The zone's divergent names (see the module doc).
    divergent: HashSet<&'z str>,
    /// Rank limit (HTTPArchive covered 300k; tests may shrink it).
    pub limit: usize,
}

impl<'z> HttpArchiveClassifier<'z> {
    /// Build a classifier with the given CDN suffix patterns (e.g.
    /// `"akamai-sim.net"`).
    pub fn new(zones: &'z ZoneStore, patterns: Vec<String>) -> HttpArchiveClassifier<'z> {
        HttpArchiveClassifier {
            zones,
            patterns: patterns.iter().map(|p| p.to_ascii_lowercase()).collect(),
            divergent: divergent_names(zones),
            limit: HTTPARCHIVE_LIMIT,
        }
    }

    /// Whether any link of a CNAME chain matches a CDN pattern.
    fn any_link_matches(&self, chain: &[DomainName]) -> bool {
        chain
            .iter()
            .any(|link| self.patterns.iter().any(|p| link.has_suffix(p)))
    }

    /// Classify one domain: `None` if out of coverage (rank ≥ limit),
    /// otherwise whether either name form resolves from HTTPArchive's
    /// vantage through a CNAME that matches a CDN pattern.
    pub fn classify(&self, rank: usize, listed: &DomainName) -> Option<bool> {
        let bare = listed.without_www();
        (rank < self.limit).then(|| {
            self.resolves_through_cdn(&bare.with_www()) || self.resolves_through_cdn(&bare)
        })
    }

    /// The walk: resolve `name` from HTTPArchive's vantage.
    fn resolves_through_cdn(&self, name: &DomainName) -> bool {
        Resolver::new(self.zones, Vantage::HTTPARCHIVE_REDWOOD)
            .resolve(name)
            .is_ok_and(|res| self.any_link_matches(&res.cname_chain))
    }

    /// [`classify`](Self::classify) of a row from a run over this
    /// classifier's zones: each form's stored chain answers unless the
    /// module doc's rules send the form to the walk.
    pub(crate) fn classify_row(&self, d: &DomainMeasurement) -> Option<bool> {
        let bare = || d.listed.without_www();
        (d.rank < self.limit).then(|| {
            self.form_is_cdn(&d.www, || bare().with_www()) || self.form_is_cdn(&d.bare, bare)
        })
    }

    /// One form's verdict from its row, or from the walk when the row
    /// cannot give it. `name` builds the query name, only when needed.
    fn form_is_cdn(&self, m: &NameMeasurement, name: impl Fn() -> DomainName) -> bool {
        let divergent = |n: &DomainName| self.divergent.contains(n.as_str());
        let walk = m.resolve_failed
            || m.excluded_invalid > 0
            || (!self.divergent.is_empty()
                && (divergent(&name()) || m.cname_chain.iter().any(divergent)));
        if walk {
            self.resolves_through_cdn(&name())
        } else {
            self.any_link_matches(&m.cname_chain)
        }
    }
}

/// What one step of a walk reads of a name's records: whether the name
/// exists, the CNAME it follows, and whether it holds an address.
fn shape(records: Option<&[RecordData]>) -> Option<(Option<&DomainName>, bool)> {
    let address = |r: &RecordData| r.addr().is_some();
    records.map(|r| (r.iter().find_map(RecordData::cname), r.iter().any(address)))
}

/// The divergent names: those with an override whose shape differs from
/// the base records'. (If every vantage overrides a name, no vantage
/// sees its base records; comparing with them can only add the name.)
fn divergent_names(zones: &ZoneStore) -> HashSet<&str> {
    zones
        .overrides()
        .filter(|(_, base, answers)| answers.iter().any(|(_, r)| shape(Some(r)) != shape(*base)))
        .map(|(name, ..)| name.as_str())
        .collect()
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
    use crate::engine::StudyEngine;
    use crate::pipeline::{PipelineConfig, StudyResults};
    use ripki_bgp::rib::Rib;
    use ripki_dns::resolver::MAX_CHAIN;
    use ripki_rpki::repo::Repository;

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

    /// The rows of a run over `zones` from Google DNS Berlin, without
    /// routes or RPKI: the DNS outcome is all Fig 3 reads of a row.
    fn run(zones: &ZoneStore, ranking: &[DomainName], bogus_dns_ppm: u32) -> StudyResults {
        let config = PipelineConfig {
            bogus_dns_ppm,
            ..Default::default()
        };
        StudyEngine::new(zones.clone(), Rib::new(), &Repository::default(), config).run(ranking)
    }

    #[test]
    fn row_verdict_equals_full_resolution_on_a_scenario() {
        let scenario =
            ripki_websim::Scenario::build(ripki_websim::ScenarioConfig::with_domains(2_000));
        let patterns = scenario
            .cdn_infras
            .iter()
            .map(|i| format!("{}-sim.net", i.name))
            .collect();
        let c = HttpArchiveClassifier::new(&scenario.zones, patterns);
        let results = run(
            &scenario.zones,
            &scenario.ranking,
            scenario.config.bogus_dns_ppm,
        );
        let mut cdn = 0;
        for d in &results.domains {
            let verdict = c.classify_row(d);
            assert_eq!(verdict, c.classify(d.rank, &d.listed), "{}", d.listed);
            cdn += usize::from(verdict == Some(true));
        }
        assert!(cdn > 0 && cdn < scenario.ranking.len(), "{cdn} CDN domains");
    }

    #[test]
    fn row_verdict_equals_full_resolution_on_failing_chains() {
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
        // A special-purpose answer at the end of a CDN chain.
        z.add_cname(n("www.special.example"), n("s.akamai-sim.net"));
        z.add_addr(n("s.akamai-sim.net"), a("127.0.0.1"));
        // Mid-chain, an address where the base goes on into CDN space.
        z.add_cname(n("www.mid.example"), n("m1.plain.example"));
        z.add_cname(n("m1.plain.example"), n("m2.akamai-sim.net"));
        z.add_addr(n("m2.akamai-sim.net"), a("7.7.7.8"));
        z.add_override(
            n("m1.plain.example"),
            Vantage::HTTPARCHIVE_REDWOOD,
            RecordData::A("7.7.7.9".parse().unwrap()),
        );
        // A dangling CDN name that only the HTTPArchive vantage answers.
        z.add_cname(n("www.detour.example"), n("x.akamai-sim.net"));
        z.add_cname(n("x.akamai-sim.net"), n("void.example"));
        z.add_override(
            n("x.akamai-sim.net"),
            Vantage::HTTPARCHIVE_REDWOOD,
            RecordData::A("7.7.7.7".parse().unwrap()),
        );

        let c = HttpArchiveClassifier::new(&z, vec!["AKAMAI-sim.net".into()]);
        let cases = [
            ("loop.example", false),
            ("ring.example", false),
            ("nx.example", false),
            ("na.example", false),
            ("ok.example", true),
            ("long.example", false),
            ("geo.example", true),
            ("direct.example", false),
            ("special.example", true),
            ("mid.example", false),
            ("detour.example", true),
            ("absent.example", false),
        ];
        let ranking: Vec<DomainName> = cases.iter().map(|(listed, _)| n(listed)).collect();
        // At a million ppm every answer is corrupted, so every form
        // goes to the walk.
        for bogus_dns_ppm in [0, 1_000_000] {
            let results = run(&z, &ranking, bogus_dns_ppm);
            for (d, (listed, expected)) in results.domains.iter().zip(cases) {
                assert_eq!(
                    c.classify_row(d),
                    Some(expected),
                    "{listed} {bogus_dns_ppm}"
                );
                assert_eq!(c.classify(d.rank, &d.listed), Some(expected), "{listed}");
            }
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
