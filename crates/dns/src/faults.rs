//! Deterministic DNS answer corruption.
//!
//! The paper reports excluding "0.07% incorrect DNS answers" — responses
//! carrying IANA special-purpose addresses (broken load balancers, DNS
//! hijacking boxes, parked wildcard records, and plain misconfiguration
//! produce these in the wild). [`FaultyResolver`] reproduces that noise
//! floor deterministically: a fixed pseudo-random subset of names, chosen
//! by hashing `(seed, name)`, answers with reserved addresses instead of
//! the authoritative data.

use crate::name::DomainName;
use crate::resolver::{Resolution, ResolveError, Resolver};
use std::net::{IpAddr, Ipv4Addr};

/// Reserved addresses that corrupted answers draw from (all of them are
/// on the IANA special-purpose registry, so the pipeline's filter catches
/// them).
const BOGUS_POOL: [Ipv4Addr; 4] = [
    Ipv4Addr::new(127, 0, 0, 1),
    Ipv4Addr::new(0, 0, 0, 0),
    Ipv4Addr::new(192, 168, 1, 1),
    Ipv4Addr::new(10, 0, 0, 1),
];

/// FNV-1a, for a cheap, stable, dependency-free name hash.
fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A resolver wrapper that corrupts a deterministic fraction of answers.
#[derive(Debug, Clone, Copy)]
pub struct FaultyResolver<'z> {
    inner: Resolver<'z>,
    /// Corruption probability in parts per million.
    bogus_ppm: u32,
    seed: u64,
}

impl<'z> FaultyResolver<'z> {
    /// Wrap `inner`, corrupting `bogus_ppm` parts-per-million of names.
    ///
    /// The paper's 0.07% is `bogus_ppm = 700`.
    pub fn new(inner: Resolver<'z>, bogus_ppm: u32, seed: u64) -> FaultyResolver<'z> {
        FaultyResolver {
            inner,
            bogus_ppm,
            seed,
        }
    }

    /// Whether this wrapper corrupts `name` (stable per seed).
    pub fn is_corrupted(&self, name: &DomainName) -> bool {
        if self.bogus_ppm == 0 {
            return false;
        }
        let h = fnv1a(self.seed, name.as_str().as_bytes());
        (h % 1_000_000) < self.bogus_ppm as u64
    }

    /// Resolve, possibly answering garbage.
    pub fn resolve(&self, name: &DomainName) -> Result<Resolution, ResolveError> {
        if self.is_corrupted(name) {
            return Ok(self.bogus_resolution(name));
        }
        self.inner.resolve(name)
    }

    /// Resolve like [`resolve`](Self::resolve), appending the names
    /// the answer depends on to `touched` (see
    /// [`Resolver::resolve_traced`]). Corruption keys on the query name
    /// and never consults zone data, so a corrupted answer depends on
    /// the query name alone.
    pub fn resolve_traced(
        &self,
        name: &DomainName,
        touched: &mut Vec<DomainName>,
    ) -> Result<Resolution, ResolveError> {
        if self.is_corrupted(name) {
            touched.push(name.clone());
            return Ok(self.bogus_resolution(name));
        }
        self.inner.resolve_traced(name, touched)
    }

    fn bogus_resolution(&self, name: &DomainName) -> Resolution {
        let h = fnv1a(self.seed.wrapping_add(1), name.as_str().as_bytes());
        let bogus = BOGUS_POOL[(h % BOGUS_POOL.len() as u64) as usize];
        Resolution {
            query: name.clone(),
            cname_chain: Vec::new(),
            addresses: vec![IpAddr::V4(bogus)],
            // Spoofed garbage never validates.
            authenticated: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vantage::Vantage;
    use crate::zone::ZoneStore;

    fn n(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn store(count: usize) -> ZoneStore {
        let mut z = ZoneStore::new();
        for i in 0..count {
            z.add_addr(
                n(&format!("site{i}.example")),
                "93.184.216.34".parse().unwrap(),
            );
        }
        z
    }

    #[test]
    fn zero_rate_never_corrupts() {
        let z = store(100);
        let r = FaultyResolver::new(Resolver::new(&z, Vantage::OPEN_DNS), 0, 42);
        for i in 0..100 {
            let name = n(&format!("site{i}.example"));
            assert!(!r.is_corrupted(&name));
            assert_eq!(
                r.resolve(&name).unwrap().addresses[0].to_string(),
                "93.184.216.34"
            );
        }
    }

    #[test]
    fn corruption_rate_close_to_requested() {
        let z = store(0);
        // 5% for a statistically stable small-sample check.
        let r = FaultyResolver::new(Resolver::new(&z, Vantage::OPEN_DNS), 50_000, 7);
        let corrupted = (0..20_000)
            .filter(|i| r.is_corrupted(&n(&format!("host{i}.example"))))
            .count();
        let rate = corrupted as f64 / 20_000.0;
        assert!((rate - 0.05).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn corruption_is_deterministic() {
        let z = store(1);
        let r1 = FaultyResolver::new(Resolver::new(&z, Vantage::OPEN_DNS), 500_000, 9);
        let r2 = FaultyResolver::new(Resolver::new(&z, Vantage::OPEN_DNS), 500_000, 9);
        for i in 0..200 {
            let name = n(&format!("d{i}.example"));
            assert_eq!(r1.is_corrupted(&name), r2.is_corrupted(&name));
        }
    }

    #[test]
    fn corrupted_answers_are_special_purpose() {
        let z = store(0);
        // 100% corruption: every answer must be bogus and reserved.
        let r = FaultyResolver::new(Resolver::new(&z, Vantage::OPEN_DNS), 1_000_000, 3);
        for i in 0..20 {
            let name = n(&format!("x{i}.example"));
            let res = r.resolve(&name).unwrap();
            let addr = res.addresses[0];
            assert!(
                ripki_net::special::SpecialRegistry::global().is_invalid_answer(addr),
                "{addr} should be reserved"
            );
        }
    }

    #[test]
    fn different_seeds_corrupt_different_names() {
        let z = store(0);
        let a = FaultyResolver::new(Resolver::new(&z, Vantage::OPEN_DNS), 100_000, 1);
        let b = FaultyResolver::new(Resolver::new(&z, Vantage::OPEN_DNS), 100_000, 2);
        let set_a: Vec<bool> = (0..500)
            .map(|i| a.is_corrupted(&n(&format!("s{i}.example"))))
            .collect();
        let set_b: Vec<bool> = (0..500)
            .map(|i| b.is_corrupted(&n(&format!("s{i}.example"))))
            .collect();
        assert_ne!(set_a, set_b);
    }
}
