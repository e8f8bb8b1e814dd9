//! The resolver simulator.
//!
//! Resolves a name from one vantage point, chasing CNAME chains with loop
//! detection, and returns everything step 2 of the methodology needs:
//! the terminal addresses *and* the chain of canonical names (the CDN
//! classification heuristic counts DNS indirections).

use crate::cache::{CachedTail, ResolutionCache, Terminal};
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

/// A resolution outcome plus every name whose records were consulted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracedResolution {
    /// Exactly what [`Resolver::resolve`] would have returned.
    pub outcome: Result<Resolution, ResolveError>,
    /// Every name whose zone data the walk depended on: the query, each
    /// CNAME target followed, and each memoized-tail node spliced in.
    /// A zone edit touching none of these names cannot change `outcome`.
    /// When `outcome` is `Ok`, these are exactly the query and its
    /// `cname_chain`, whether the walk was fresh or spliced.
    pub touched: Vec<DomainName>,
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
        let mut chain: Vec<DomainName> = Vec::new();
        let mut current = name.clone();
        let mut authenticated = self.zones.is_signed(name);
        loop {
            let Some(records) = self.zones.lookup(&current, self.vantage) else {
                return Err(ResolveError::NxDomain(current));
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
                current = target.clone();
                continue;
            }
            let addresses: Vec<IpAddr> = records.iter().filter_map(RecordData::addr).collect();
            if addresses.is_empty() {
                return Err(ResolveError::NoAddress(current));
            }
            return Ok(Resolution {
                query: name.clone(),
                cname_chain: chain,
                addresses,
                authenticated,
            });
        }
    }

    /// Resolve `name` with shared-tail memoization, and report every
    /// name whose zone data the walk consulted. The outcome is identical
    /// to [`resolve`](Self::resolve) (same answers, same errors), but
    /// CNAME tails already walked — by this call or any other thread
    /// sharing `cache` — are spliced in instead of re-walked. Loop and
    /// chain-length checks run against the caller's full chain, so the
    /// memoization is observably transparent.
    ///
    /// Panics if `cache` is pinned to a different vantage (answers are
    /// vantage-dependent; mixing would serve wrong data).
    ///
    /// The incremental engine uses the touched set as a dependency
    /// list: a zone delta
    /// that changes none of the touched names cannot alter `outcome`
    /// (the walk never read anything else). The set is a slight
    /// over-approximation on errors — memoized tail nodes past a loop /
    /// length violation are included even though the walk stopped early.
    pub fn resolve_cached_traced(
        &self,
        name: &DomainName,
        cache: &ResolutionCache,
    ) -> TracedResolution {
        assert_eq!(
            cache.vantage(),
            self.vantage,
            "resolution cache pinned to a different vantage"
        );
        let mut touched = vec![name.clone()];
        let mut chain: Vec<DomainName> = Vec::new();
        let mut current = name.clone();
        let mut authenticated = self.zones.is_signed(name);
        loop {
            if let Some(tail) = cache.get(&current) {
                touched.extend(tail.chain.iter().cloned());
                let outcome = self.splice(name, chain, authenticated, &tail);
                return TracedResolution { outcome, touched };
            }
            let Some(records) = self.zones.lookup(&current, self.vantage) else {
                cache.fill(&chain, &Terminal::NxDomain(current.clone()));
                return TracedResolution {
                    outcome: Err(ResolveError::NxDomain(current)),
                    touched,
                };
            };
            if let Some(target) = records.iter().find_map(RecordData::cname) {
                if chain.len() + 1 > MAX_CHAIN {
                    return TracedResolution {
                        outcome: Err(ResolveError::ChainTooLong(name.clone())),
                        touched,
                    };
                }
                if *target == *name || chain.contains(target) {
                    return TracedResolution {
                        outcome: Err(ResolveError::CnameLoop(target.clone())),
                        touched,
                    };
                }
                authenticated &= self.zones.is_signed(target);
                touched.push(target.clone());
                chain.push(target.clone());
                current = target.clone();
                continue;
            }
            let addresses: Vec<IpAddr> = records.iter().filter_map(RecordData::addr).collect();
            if addresses.is_empty() {
                cache.fill(&chain, &Terminal::NoAddress(current.clone()));
                return TracedResolution {
                    outcome: Err(ResolveError::NoAddress(current)),
                    touched,
                };
            }
            cache.fill(&chain, &Terminal::Addresses(addresses.clone()));
            return TracedResolution {
                outcome: Ok(Resolution {
                    query: name.clone(),
                    cname_chain: chain,
                    addresses,
                    authenticated,
                }),
                touched,
            };
        }
    }

    /// Continue a partially walked chain with a memoized tail, re-running
    /// the per-step loop/length checks the uncached walk would perform.
    fn splice(
        &self,
        query: &DomainName,
        mut chain: Vec<DomainName>,
        mut authenticated: bool,
        tail: &CachedTail,
    ) -> Result<Resolution, ResolveError> {
        for target in &tail.chain {
            if chain.len() + 1 > MAX_CHAIN {
                return Err(ResolveError::ChainTooLong(query.clone()));
            }
            if *target == *query || chain.contains(target) {
                return Err(ResolveError::CnameLoop(target.clone()));
            }
            authenticated &= self.zones.is_signed(target);
            chain.push(target.clone());
        }
        // No fill here: the tail's own nodes were indexed by the walk
        // that cached it, and the freshly walked prefix nodes are
        // per-query aliases that other queries do not funnel through —
        // indexing them would put a write lock and an allocation on
        // every spliced (i.e. hot) resolution for entries that are
        // never probed again.
        match &tail.terminal {
            Terminal::Addresses(addresses) => Ok(Resolution {
                query: query.clone(),
                cname_chain: chain,
                addresses: addresses.clone(),
                authenticated,
            }),
            Terminal::NxDomain(n) => Err(ResolveError::NxDomain(n.clone())),
            Terminal::NoAddress(n) => Err(ResolveError::NoAddress(n.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultyResolver;
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
    fn cached_resolution_identical_to_uncached() {
        let z = store();
        let r = Resolver::new(&z, Vantage::GOOGLE_DNS_BERLIN);
        let cache = ResolutionCache::new(Vantage::GOOGLE_DNS_BERLIN);
        for name in [
            "direct.example",
            "www.shop.example",
            "shop.cdnprovider.net",
            "edge7.cdnprovider.net",
            "a.loop.example",
            "dangling.example",
            "missing.example",
        ] {
            let name = n(name);
            // Twice: once filling, once hitting.
            for _ in 0..2 {
                assert_eq!(
                    r.resolve_cached_traced(&name, &cache).outcome,
                    r.resolve(&name),
                    "divergence on {name}"
                );
            }
        }
        // Shared tails were actually memoized and reused.
        assert!(cache.hits() > 0);
    }

    #[test]
    fn cached_tail_reused_across_queries() {
        let mut z = ZoneStore::new();
        // Two sites CNAME into the same CDN tail.
        z.add_cname(n("www.one.example"), n("lb.cdn.net"));
        z.add_cname(n("www.two.example"), n("lb.cdn.net"));
        z.add_cname(n("lb.cdn.net"), n("edge.cdn.net"));
        z.add_addr(n("edge.cdn.net"), "198.51.100.9".parse().unwrap());
        let r = Resolver::new(&z, Vantage::OPEN_DNS);
        let cache = ResolutionCache::new(Vantage::OPEN_DNS);
        let one = r
            .resolve_cached_traced(&n("www.one.example"), &cache)
            .outcome
            .unwrap();
        let hits_before = cache.hits();
        let two = r
            .resolve_cached_traced(&n("www.two.example"), &cache)
            .outcome
            .unwrap();
        assert!(cache.hits() > hits_before, "second query must hit the tail");
        assert_eq!(one.addresses, two.addresses);
        assert_eq!(one.cname_chain, two.cname_chain);
        assert_eq!(two.cname_chain, vec![n("lb.cdn.net"), n("edge.cdn.net")]);
    }

    #[test]
    fn cached_loop_checks_respect_caller_chain() {
        let mut z = ZoneStore::new();
        // tail.example resolves fine on its own…
        z.add_cname(n("tail.example"), n("back.example"));
        z.add_addr(n("back.example"), "203.0.113.5".parse().unwrap());
        // …but a query whose chain already visited back.example loops.
        z.add_cname(n("enter.example"), n("back2.example"));
        z.add_cname(n("back2.example"), n("tail2.example"));
        z.add_cname(n("tail2.example"), n("back2.example"));
        let r = Resolver::new(&z, Vantage::OPEN_DNS);
        let cache = ResolutionCache::new(Vantage::OPEN_DNS);
        // Warm the cache with the inner tail.
        let _ = r.resolve_cached_traced(&n("tail.example"), &cache);
        assert_eq!(
            r.resolve_cached_traced(&n("enter.example"), &cache).outcome,
            r.resolve(&n("enter.example"))
        );
    }

    #[test]
    #[should_panic(expected = "different vantage")]
    fn cache_vantage_mismatch_panics() {
        let z = store();
        let r = Resolver::new(&z, Vantage::GOOGLE_DNS_BERLIN);
        let cache = ResolutionCache::new(Vantage::OPEN_DNS);
        let _ = r.resolve_cached_traced(&n("direct.example"), &cache);
    }

    #[test]
    fn traced_resolution_matches_untraced_and_covers_chain() {
        let z = store();
        let r = Resolver::new(&z, Vantage::GOOGLE_DNS_BERLIN);
        let cache = ResolutionCache::new(Vantage::GOOGLE_DNS_BERLIN);
        for name in [
            "direct.example",
            "www.shop.example",
            // Mid-chain and terminal nodes of a walk already cached.
            "shop.cdnprovider.net",
            "edge7.cdnprovider.net",
            "a.loop.example",
            "dangling.example",
            "missing.example",
        ] {
            let name = n(name);
            // Twice: once filling, once splicing from the cache.
            for _ in 0..2 {
                let traced = r.resolve_cached_traced(&name, &cache);
                assert_eq!(traced.outcome, r.resolve(&name), "divergence on {name}");
                assert_eq!(traced.touched[0], name);
                // A resolved walk consulted exactly the query and its
                // chain: the engine indexes resolved rows by that set
                // without walking them again.
                if let Ok(res) = &traced.outcome {
                    let touched: BTreeSet<_> = traced.touched.iter().collect();
                    let walked: BTreeSet<_> =
                        std::iter::once(&name).chain(&res.cname_chain).collect();
                    assert_eq!(touched, walked, "touched set of {name}");
                }
            }
        }
        // A corrupted answer never reads zone data: it touches exactly
        // the query, whatever the honest walk would have followed.
        let faulty = FaultyResolver::new(r, 1_000_000, 7);
        for name in ["www.shop.example", "direct.example", "a.loop.example"] {
            let name = n(name);
            let traced = faulty.resolve_cached_traced(&name, &cache);
            let res = traced.outcome.expect("a corrupted answer resolves");
            assert!(res.cname_chain.is_empty());
            assert_eq!(traced.touched, vec![name]);
        }
        // The terminal name of a dangling CNAME is a dependency too: if
        // void.example appeared, dangling.example would start resolving.
        let traced = r.resolve_cached_traced(&n("dangling.example"), &cache);
        assert!(
            traced.touched.contains(&n("void.example")) || {
                // NxDomain names the missing node; the walk consulted it.
                matches!(&traced.outcome, Err(ResolveError::NxDomain(m)) if *m == n("void.example"))
            }
        );
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
