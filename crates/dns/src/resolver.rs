//! The resolver simulator.
//!
//! Resolves a name from one vantage point, chasing CNAME chains with loop
//! detection, and returns everything step 2 of the methodology needs:
//! the terminal addresses *and* the chain of canonical names (the CDN
//! classification heuristic counts DNS indirections).

use crate::name::DomainName;
use crate::record::RecordData;
use crate::vantage::Vantage;
use crate::zone::ZoneStore;
use std::fmt;
use std::net::IpAddr;

/// Longest CNAME chain a resolver will follow (BIND uses a similar bound).
pub const MAX_CHAIN: usize = 16;

/// Resolution failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// The name (or a CNAME target) does not exist.
    NxDomain(DomainName),
    /// CNAMEs formed a loop.
    CnameLoop(DomainName),
    /// Chain exceeded [`MAX_CHAIN`].
    ChainTooLong(DomainName),
    /// The name exists but has no address records (only unfollowable
    /// data).
    NoAddress(DomainName),
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::NxDomain(n) => write!(f, "NXDOMAIN {n}"),
            ResolveError::CnameLoop(n) => write!(f, "CNAME loop at {n}"),
            ResolveError::ChainTooLong(n) => write!(f, "CNAME chain too long at {n}"),
            ResolveError::NoAddress(n) => write!(f, "no address records for {n}"),
        }
    }
}

impl std::error::Error for ResolveError {}

/// A successful resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    /// The name queried.
    pub query: DomainName,
    /// Canonical names traversed, in order (empty when the query name
    /// carried address records directly).
    pub cname_chain: Vec<DomainName>,
    /// Terminal addresses (A and AAAA), in zone order.
    pub addresses: Vec<IpAddr>,
    /// Whether every zone on the resolution path (query name and each
    /// CNAME target) is DNSSEC-signed — a validating resolver's AD bit.
    pub authenticated: bool,
}

impl Resolution {
    /// Number of DNS indirections. The paper classifies a domain as
    /// CDN-served "if the IP address of its domain name is indirectly
    /// accessed via two or more CNAMEs".
    pub fn indirections(&self) -> usize {
        self.cname_chain.len()
    }

    /// The terminal canonical name (query name if no CNAMEs).
    pub fn canonical_name(&self) -> &DomainName {
        self.cname_chain.last().unwrap_or(&self.query)
    }
}

/// A resolver bound to a zone store and a vantage point.
#[derive(Debug, Clone, Copy)]
pub struct Resolver<'z> {
    zones: &'z ZoneStore,
    vantage: Vantage,
}

impl<'z> Resolver<'z> {
    /// A resolver at `vantage` over `zones`.
    pub fn new(zones: &'z ZoneStore, vantage: Vantage) -> Resolver<'z> {
        Resolver { zones, vantage }
    }

    /// The vantage this resolver answers from.
    pub fn vantage(&self) -> Vantage {
        self.vantage
    }

    /// Resolve `name`, chasing CNAMEs.
    pub fn resolve(&self, name: &DomainName) -> Result<Resolution, ResolveError> {
        self.walk(name, None)
    }

    /// Resolve `name` like [`resolve`](Self::resolve) (same answers,
    /// same errors), and append to `touched` every name whose records
    /// the walk read: the query, then each CNAME target followed, in
    /// walk order. A zone edit touching none of these names cannot
    /// change the outcome. When the outcome is `Ok`, they are exactly
    /// the query and its `cname_chain`; on an error they stop at the
    /// last name read (a loop's or an over-long chain's next target is
    /// not read again).
    pub fn resolve_traced(
        &self,
        name: &DomainName,
        touched: &mut Vec<DomainName>,
    ) -> Result<Resolution, ResolveError> {
        self.walk(name, Some(touched))
    }

    /// The one CNAME walk behind both entry points. It reads the zone
    /// store and writes only its own locals and the caller's sink.
    fn walk(
        &self,
        name: &DomainName,
        mut touched: Option<&mut Vec<DomainName>>,
    ) -> Result<Resolution, ResolveError> {
        let mut chain: Vec<DomainName> = Vec::new();
        let mut authenticated = self.zones.is_signed(name);
        loop {
            let current = chain.last().unwrap_or(name);
            if let Some(touched) = touched.as_deref_mut() {
                touched.push(current.clone());
            }
            let Some(records) = self.zones.lookup(current, self.vantage) else {
                return Err(ResolveError::NxDomain(current.clone()));
            };
            // Real DNS forbids CNAME alongside other data; the generator
            // conforms, but be defensive: a CNAME wins if present.
            if let Some(target) = records.iter().find_map(RecordData::cname) {
                if chain.len() + 1 > MAX_CHAIN {
                    return Err(ResolveError::ChainTooLong(name.clone()));
                }
                if *target == *name || chain.contains(target) {
                    return Err(ResolveError::CnameLoop(target.clone()));
                }
                authenticated &= self.zones.is_signed(target);
                chain.push(target.clone());
                continue;
            }
            let addresses: Vec<IpAddr> = records.iter().filter_map(RecordData::addr).collect();
            if addresses.is_empty() {
                return Err(ResolveError::NoAddress(current.clone()));
            }
            return Ok(Resolution {
                query: name.clone(),
                cname_chain: chain,
                addresses,
                authenticated,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultyResolver;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn n(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn store() -> ZoneStore {
        let mut z = ZoneStore::new();
        // Direct A/AAAA.
        z.add_addr(n("direct.example"), "192.0.2.10".parse().unwrap());
        z.add_addr(n("direct.example"), "2001:db8::10".parse().unwrap());
        // CDN-style chain: www.shop.example → shop.cdnprovider.net →
        // edge7.cdnprovider.net → A
        z.add_cname(n("www.shop.example"), n("shop.cdnprovider.net"));
        z.add_cname(n("shop.cdnprovider.net"), n("edge7.cdnprovider.net"));
        z.add_addr(n("edge7.cdnprovider.net"), "198.51.100.7".parse().unwrap());
        // Loop: a → b → a
        z.add_cname(n("a.loop.example"), n("b.loop.example"));
        z.add_cname(n("b.loop.example"), n("a.loop.example"));
        // Dangling CNAME.
        z.add_cname(n("dangling.example"), n("void.example"));
        z
    }

    #[test]
    fn direct_resolution() {
        let z = store();
        let r = Resolver::new(&z, Vantage::GOOGLE_DNS_BERLIN);
        let res = r.resolve(&n("direct.example")).unwrap();
        assert_eq!(res.indirections(), 0);
        assert_eq!(res.addresses.len(), 2);
        assert_eq!(res.canonical_name(), &n("direct.example"));
    }

    #[test]
    fn cname_chain_followed_and_counted() {
        let z = store();
        let r = Resolver::new(&z, Vantage::GOOGLE_DNS_BERLIN);
        let res = r.resolve(&n("www.shop.example")).unwrap();
        assert_eq!(res.indirections(), 2);
        assert_eq!(
            res.cname_chain,
            vec![n("shop.cdnprovider.net"), n("edge7.cdnprovider.net")]
        );
        assert_eq!(
            res.addresses,
            vec!["198.51.100.7".parse::<IpAddr>().unwrap()]
        );
        assert_eq!(res.canonical_name(), &n("edge7.cdnprovider.net"));
    }

    #[test]
    fn loop_detected() {
        let z = store();
        let r = Resolver::new(&z, Vantage::OPEN_DNS);
        assert!(matches!(
            r.resolve(&n("a.loop.example")),
            Err(ResolveError::CnameLoop(_))
        ));
    }

    #[test]
    fn self_loop_detected() {
        let mut z = ZoneStore::new();
        z.add_cname(n("self.example"), n("self.example"));
        let r = Resolver::new(&z, Vantage::OPEN_DNS);
        assert!(matches!(
            r.resolve(&n("self.example")),
            Err(ResolveError::CnameLoop(_))
        ));
    }

    #[test]
    fn nxdomain_and_dangling() {
        let z = store();
        let r = Resolver::new(&z, Vantage::OPEN_DNS);
        assert_eq!(
            r.resolve(&n("missing.example")),
            Err(ResolveError::NxDomain(n("missing.example")))
        );
        assert_eq!(
            r.resolve(&n("dangling.example")),
            Err(ResolveError::NxDomain(n("void.example")))
        );
    }

    #[test]
    fn chain_too_long() {
        let mut z = ZoneStore::new();
        for i in 0..=MAX_CHAIN {
            z.add_cname(
                n(&format!("h{i}.example")),
                n(&format!("h{}.example", i + 1)),
            );
        }
        z.add_addr(
            n(&format!("h{}.example", MAX_CHAIN + 1)),
            "10.0.0.1".parse().unwrap(),
        );
        let r = Resolver::new(&z, Vantage::OPEN_DNS);
        assert!(matches!(
            r.resolve(&n("h0.example")),
            Err(ResolveError::ChainTooLong(_))
        ));
    }

    #[test]
    fn vantage_dependent_answers() {
        let mut z = ZoneStore::new();
        z.add_cname(n("www.geo.example"), n("geo.cdn.example"));
        z.add_addr(n("geo.cdn.example"), "203.0.113.1".parse().unwrap());
        z.add_override(
            n("geo.cdn.example"),
            Vantage::HTTPARCHIVE_REDWOOD,
            RecordData::A("203.0.113.2".parse().unwrap()),
        );
        let berlin = Resolver::new(&z, Vantage::GOOGLE_DNS_BERLIN)
            .resolve(&n("www.geo.example"))
            .unwrap();
        let redwood = Resolver::new(&z, Vantage::HTTPARCHIVE_REDWOOD)
            .resolve(&n("www.geo.example"))
            .unwrap();
        assert_ne!(berlin.addresses, redwood.addresses);
        // Same chain, different terminal addresses — like a real CDN.
        assert_eq!(berlin.cname_chain, redwood.cname_chain);
    }

    #[test]
    fn shared_tail_resolves_alike_for_every_referrer() {
        let mut z = ZoneStore::new();
        // Two sites CNAME into the same CDN tail.
        z.add_cname(n("www.one.example"), n("lb.cdn.net"));
        z.add_cname(n("www.two.example"), n("lb.cdn.net"));
        z.add_cname(n("lb.cdn.net"), n("edge.cdn.net"));
        z.add_addr(n("edge.cdn.net"), "198.51.100.9".parse().unwrap());
        let r = Resolver::new(&z, Vantage::OPEN_DNS);
        let (mut touched_one, mut touched_two) = (Vec::new(), Vec::new());
        let one = r
            .resolve_traced(&n("www.one.example"), &mut touched_one)
            .unwrap();
        let two = r
            .resolve_traced(&n("www.two.example"), &mut touched_two)
            .unwrap();
        assert_eq!(one.addresses, two.addresses);
        assert_eq!(one.cname_chain, two.cname_chain);
        assert_eq!(two.cname_chain, vec![n("lb.cdn.net"), n("edge.cdn.net")]);
        assert_eq!(touched_one[1..], touched_two[1..]);
    }

    #[test]
    fn loop_checks_run_against_the_whole_chain() {
        let mut z = ZoneStore::new();
        // tail.example resolves fine on its own…
        z.add_cname(n("tail.example"), n("back.example"));
        z.add_addr(n("back.example"), "203.0.113.5".parse().unwrap());
        // …but a query whose chain already visited back2.example loops.
        z.add_cname(n("enter.example"), n("back2.example"));
        z.add_cname(n("back2.example"), n("tail2.example"));
        z.add_cname(n("tail2.example"), n("back2.example"));
        let r = Resolver::new(&z, Vantage::OPEN_DNS);
        assert!(r.resolve(&n("tail.example")).is_ok());
        let mut touched = Vec::new();
        let outcome = r.resolve_traced(&n("enter.example"), &mut touched);
        assert_eq!(outcome, r.resolve(&n("enter.example")));
        assert_eq!(outcome, Err(ResolveError::CnameLoop(n("back2.example"))));
        assert_eq!(
            touched,
            [n("enter.example"), n("back2.example"), n("tail2.example")]
        );
    }

    #[test]
    fn traced_resolution_matches_untraced_and_covers_chain() {
        let z = store();
        let r = Resolver::new(&z, Vantage::GOOGLE_DNS_BERLIN);
        for name in [
            "direct.example",
            "www.shop.example",
            // Mid-chain and terminal nodes of another walk.
            "shop.cdnprovider.net",
            "edge7.cdnprovider.net",
            "a.loop.example",
            "dangling.example",
            "missing.example",
        ] {
            let name = n(name);
            let mut touched = Vec::new();
            let outcome = r.resolve_traced(&name, &mut touched);
            assert_eq!(outcome, r.resolve(&name), "divergence on {name}");
            assert_eq!(touched[0], name);
            // A resolved walk consulted exactly the query and its
            // chain: the engine indexes resolved rows by that set
            // without walking them again.
            if let Ok(res) = &outcome {
                let touched: BTreeSet<_> = touched.iter().collect();
                let walked: BTreeSet<_> = std::iter::once(&name).chain(&res.cname_chain).collect();
                assert_eq!(touched, walked, "touched set of {name}");
            }
        }
        // A corrupted answer never reads zone data: it touches exactly
        // the query, whatever the honest walk would have followed.
        let faulty = FaultyResolver::new(r, 1_000_000, 7);
        for name in ["www.shop.example", "direct.example", "a.loop.example"] {
            let name = n(name);
            let mut touched = Vec::new();
            let res = faulty
                .resolve_traced(&name, &mut touched)
                .expect("a corrupted answer resolves");
            assert!(res.cname_chain.is_empty());
            assert_eq!(touched, vec![name]);
        }
        // The terminal name of a dangling CNAME is a dependency too: if
        // void.example appeared, dangling.example would start resolving.
        let mut touched = Vec::new();
        let outcome = r.resolve_traced(&n("dangling.example"), &mut touched);
        assert_eq!(outcome, Err(ResolveError::NxDomain(n("void.example"))));
        assert_eq!(touched, [n("dangling.example"), n("void.example")]);
    }

    /// Names on the generated ladder: room for a chain one past
    /// [`MAX_CHAIN`] plus a few names off it.
    const LADDER: usize = MAX_CHAIN + 4;

    /// The vantage the generated overrides answer for.
    const GEO: Vantage = Vantage::HTTPARCHIVE_REDWOOD;

    /// What one ladder name holds, in the base zone or for [`GEO`].
    #[derive(Debug, Clone)]
    enum Node {
        Absent,
        Addr,
        Cname(usize),
        /// The name exists but answers no record (NODATA).
        NoData,
    }

    fn rung(i: usize) -> DomainName {
        n(&format!("l{i}.ladder.example"))
    }

    fn node() -> impl Strategy<Value = Node> {
        prop_oneof![
            Just(Node::Absent),
            Just(Node::Addr),
            Just(Node::NoData),
            (0..LADDER).prop_map(Node::Cname),
        ]
    }

    fn put(z: &mut ZoneStore, i: usize, node: &Node, vantage: Option<Vantage>) {
        let data = match node {
            Node::Absent => return,
            Node::Addr => RecordData::A(std::net::Ipv4Addr::new(10, 0, 0, i as u8)),
            Node::Cname(j) => RecordData::Cname(rung(*j)),
            Node::NoData => {
                for v in vantage.map_or(Vantage::ALL.to_vec(), |v| vec![v]) {
                    z.add_empty_override(rung(i), v);
                }
                return;
            }
        };
        match vantage {
            Some(v) => z.add_override(rung(i), v, data),
            None => z.add(rung(i), data),
        }
    }

    /// The names a walk from `query` reads, found with plain lookups:
    /// the query, then each CNAME target until a target would repeat a
    /// name or exceed [`MAX_CHAIN`], or a name holds no CNAME.
    fn names_read(z: &ZoneStore, vantage: Vantage, query: &DomainName) -> Vec<DomainName> {
        let mut read = vec![query.clone()];
        let cname = |name: &DomainName| {
            z.lookup(name, vantage)
                .and_then(|records| records.iter().find_map(RecordData::cname))
        };
        while let Some(target) = cname(read.last().expect("starts with the query")) {
            if read.len() > MAX_CHAIN || read.contains(target) {
                break;
            }
            read.push(target.clone());
        }
        read
    }

    proptest! {
        /// Over ladders of every length around [`MAX_CHAIN`], ending in
        /// an address, NXDOMAIN, NODATA or a CNAME back up the ladder,
        /// with random base edits and [`GEO`] overrides: the traced walk
        /// answers as `resolve` does; an `Ok` walk touched exactly the
        /// query and its chain; an `Err` walk touched exactly the names
        /// it read. The same holds through a `FaultyResolver`, whose
        /// corrupted answers touch the query alone.
        #[test]
        fn traced_walk_reports_what_it_read(
            len in prop_oneof![Just(MAX_CHAIN), Just(MAX_CHAIN + 1), 0..LADDER],
            tail in node(),
            edits in proptest::collection::vec((0..LADDER, node()), 0..3),
            overrides in proptest::collection::vec((0..LADDER, node()), 0..4),
            fault_seed in any::<u64>(),
        ) {
            let mut nodes: Vec<Node> = (0..LADDER)
                .map(|i| if i < len { Node::Cname(i + 1) } else { Node::Absent })
                .collect();
            nodes[len] = tail;
            for (i, node) in edits {
                nodes[i] = node;
            }
            let mut z = ZoneStore::new();
            for (i, node) in nodes.iter().enumerate() {
                put(&mut z, i, node, None);
            }
            for (i, node) in &overrides {
                put(&mut z, *i, node, Some(GEO));
            }
            for vantage in [GEO, Vantage::GOOGLE_DNS_BERLIN] {
                let r = Resolver::new(&z, vantage);
                let faulty = FaultyResolver::new(r, 500_000, fault_seed);
                for query in (0..LADDER).map(rung) {
                    let mut touched = Vec::new();
                    let outcome = r.resolve_traced(&query, &mut touched);
                    prop_assert_eq!(&outcome, &r.resolve(&query));
                    match &outcome {
                        Ok(res) => {
                            let walked: BTreeSet<_> =
                                std::iter::once(&query).chain(&res.cname_chain).collect();
                            prop_assert_eq!(touched.iter().collect::<BTreeSet<_>>(), walked);
                        }
                        Err(_) => prop_assert_eq!(&touched, &names_read(&z, vantage, &query)),
                    }
                    let mut faulty_touched = Vec::new();
                    let faulty_outcome = faulty.resolve_traced(&query, &mut faulty_touched);
                    prop_assert_eq!(&faulty_outcome, &faulty.resolve(&query));
                    if faulty.is_corrupted(&query) {
                        prop_assert_eq!(faulty_touched, vec![query]);
                    } else {
                        prop_assert_eq!((faulty_outcome, faulty_touched), (outcome, touched));
                    }
                }
            }
        }
    }

    #[test]
    fn empty_record_set_reports_no_address() {
        let mut z = ZoneStore::new();
        // A name with an empty record vector (possible via direct API use).
        z.add(n("odd.example"), RecordData::A("10.0.0.1".parse().unwrap()));
        let r = Resolver::new(&z, Vantage::OPEN_DNS);
        assert!(r.resolve(&n("odd.example")).is_ok());
    }
}
