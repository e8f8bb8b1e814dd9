//! Resource sets: collections of prefixes and ASN ranges with subset
//! semantics.
//!
//! RFC 3779 certificate extensions carry *sets* of IP address blocks and
//! AS identifiers, and RPKI validation (RFC 6487 §7) requires that a
//! subordinate certificate's resources be *encompassed* by its issuer's.
//! [`PrefixSet::encompasses`] and [`AsnSet::encompasses`] implement exactly
//! that check; `ripki-rpki` builds its resource-containment validation on
//! them.

use crate::asn::{Asn, AsnRange};
use crate::prefix::IpPrefix;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A normalised set of CIDR prefixes.
///
/// Internally the set is kept sorted and *minimal*: any prefix covered by
/// another member is dropped at normalisation time. (Adjacent-block
/// aggregation — merging `10.0.0.0/25` + `10.0.0.128/25` into `/24` — is
/// deliberately **not** performed: RPKI resource checks never need it, and
/// keeping members as-issued makes audit output match certificate
/// contents.)
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PrefixSet {
    members: Vec<IpPrefix>,
}

impl PrefixSet {
    /// The empty set.
    pub fn empty() -> PrefixSet {
        PrefixSet::default()
    }

    /// Build a set from any iterator of prefixes, normalising it.
    pub fn from_prefixes<I: IntoIterator<Item = IpPrefix>>(iter: I) -> PrefixSet {
        let mut members: Vec<IpPrefix> = iter.into_iter().collect();
        Self::normalise(&mut members);
        PrefixSet { members }
    }

    fn normalise(members: &mut Vec<IpPrefix>) {
        members.sort();
        members.dedup();
        // After sorting, a covering prefix sorts immediately before the
        // prefixes it covers — one pass with a "last kept" cursor removes
        // all covered members.
        let mut kept: Vec<IpPrefix> = Vec::with_capacity(members.len());
        for p in members.drain(..) {
            match kept.last() {
                Some(last) if last.covers(&p) => {}
                _ => kept.push(p),
            }
        }
        *members = kept;
    }

    /// Insert one prefix (re-normalising).
    pub fn insert(&mut self, prefix: IpPrefix) {
        if self.contains_prefix(&prefix) {
            return;
        }
        self.members.push(prefix);
        Self::normalise(&mut self.members);
    }

    /// The normalised members, sorted.
    pub fn members(&self) -> &[IpPrefix] {
        &self.members
    }

    /// Number of (minimal) member prefixes.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `prefix` is fully contained in the set, i.e. some member
    /// covers it.
    pub fn contains_prefix(&self, prefix: &IpPrefix) -> bool {
        self.members.iter().any(|m| m.covers(prefix))
    }

    /// Whether every member of `other` is contained in `self` — the
    /// RFC 3779 "encompasses" relation used for issuer/subject resource
    /// checks.
    pub fn encompasses(&self, other: &PrefixSet) -> bool {
        other.members.iter().all(|p| self.contains_prefix(p))
    }

    /// Members of `other` that are *not* contained in `self` — the
    /// "overclaim" a misbehaving CA introduces. Empty iff
    /// [`encompasses`](Self::encompasses) holds.
    pub fn excess_of<'o>(&self, other: &'o PrefixSet) -> Vec<&'o IpPrefix> {
        other
            .members
            .iter()
            .filter(|p| !self.contains_prefix(p))
            .collect()
    }

    /// Union of two sets.
    pub fn union(&self, other: &PrefixSet) -> PrefixSet {
        PrefixSet::from_prefixes(self.members.iter().chain(other.members.iter()).copied())
    }
}

impl FromIterator<IpPrefix> for PrefixSet {
    fn from_iter<I: IntoIterator<Item = IpPrefix>>(iter: I) -> PrefixSet {
        PrefixSet::from_prefixes(iter)
    }
}

impl fmt::Display for PrefixSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.members.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

/// A normalised set of AS numbers, stored as merged inclusive ranges.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AsnSet {
    ranges: Vec<AsnRange>,
}

impl AsnSet {
    /// The empty set.
    pub fn empty() -> AsnSet {
        AsnSet::default()
    }

    /// Build from ranges, merging overlapping and adjacent ones.
    pub fn from_ranges<I: IntoIterator<Item = AsnRange>>(iter: I) -> AsnSet {
        let mut ranges: Vec<AsnRange> = iter.into_iter().collect();
        Self::normalise(&mut ranges);
        AsnSet { ranges }
    }

    /// Build from individual ASNs.
    pub fn from_asns<I: IntoIterator<Item = Asn>>(iter: I) -> AsnSet {
        AsnSet::from_ranges(iter.into_iter().map(AsnRange::single))
    }

    fn normalise(ranges: &mut Vec<AsnRange>) {
        ranges.sort_by_key(|r| (r.start, r.end));
        let mut merged: Vec<AsnRange> = Vec::with_capacity(ranges.len());
        for r in ranges.drain(..) {
            match merged.last_mut() {
                Some(last) if r.start.value() <= last.end.value().saturating_add(1) => {
                    if r.end > last.end {
                        last.end = r.end;
                    }
                }
                _ => merged.push(r),
            }
        }
        *ranges = merged;
    }

    /// Insert one ASN (re-normalising).
    pub fn insert(&mut self, asn: Asn) {
        self.ranges.push(AsnRange::single(asn));
        Self::normalise(&mut self.ranges);
    }

    /// The merged, sorted ranges.
    pub fn ranges(&self) -> &[AsnRange] {
        &self.ranges
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total number of ASNs in the set.
    pub fn count(&self) -> u64 {
        self.ranges.iter().map(AsnRange::len).sum()
    }

    /// Whether the set contains `asn`. Binary search over merged ranges.
    pub fn contains(&self, asn: Asn) -> bool {
        self.ranges
            .binary_search_by(|r| {
                if r.end < asn {
                    std::cmp::Ordering::Less
                } else if r.start > asn {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Whether every ASN of `other` is in `self` (RFC 3779 encompasses).
    pub fn encompasses(&self, other: &AsnSet) -> bool {
        other
            .ranges
            .iter()
            .all(|r| self.ranges.iter().any(|mine| mine.contains_range(r)))
    }

    /// Iterate every individual ASN. Intended for small sets (tests,
    /// reports); ranges can be astronomically large.
    pub fn iter(&self) -> impl Iterator<Item = Asn> + '_ {
        self.ranges
            .iter()
            .flat_map(|r| (r.start.value()..=r.end.value()).map(Asn::new))
    }

    /// Union of two sets.
    pub fn union(&self, other: &AsnSet) -> AsnSet {
        AsnSet::from_ranges(self.ranges.iter().chain(other.ranges.iter()).copied())
    }
}

impl FromIterator<Asn> for AsnSet {
    fn from_iter<I: IntoIterator<Item = Asn>>(iter: I) -> AsnSet {
        AsnSet::from_asns(iter)
    }
}

impl fmt::Display for AsnSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.ranges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    #[test]
    fn prefix_set_drops_covered_members() {
        let s = PrefixSet::from_prefixes(vec![
            p("10.0.0.0/8"),
            p("10.1.0.0/16"),
            p("10.1.2.0/24"),
            p("192.0.2.0/24"),
        ]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.members(), &[p("10.0.0.0/8"), p("192.0.2.0/24")]);
    }

    #[test]
    fn prefix_set_does_not_merge_siblings() {
        let s = PrefixSet::from_prefixes(vec![p("10.0.0.0/25"), p("10.0.0.128/25")]);
        assert_eq!(s.len(), 2);
        assert!(!s.contains_prefix(&p("10.0.0.0/24")));
    }

    #[test]
    fn prefix_set_contains() {
        let s = PrefixSet::from_prefixes(vec![p("10.0.0.0/8"), p("2001:db8::/32")]);
        assert!(s.contains_prefix(&p("10.5.0.0/16")));
        assert!(s.contains_prefix(&p("10.0.0.0/8")));
        assert!(!s.contains_prefix(&p("11.0.0.0/16")));
        assert!(s.contains_prefix(&p("2001:db8:1::/48")));
        assert!(!s.contains_prefix(&p("2001:db9::/48")));
    }

    #[test]
    fn prefix_set_encompasses_and_excess() {
        let issuer = PrefixSet::from_prefixes(vec![p("10.0.0.0/8"), p("192.0.2.0/24")]);
        let ok = PrefixSet::from_prefixes(vec![p("10.9.0.0/16"), p("192.0.2.128/25")]);
        let bad = PrefixSet::from_prefixes(vec![p("10.9.0.0/16"), p("198.51.100.0/24")]);
        assert!(issuer.encompasses(&ok));
        assert!(!issuer.encompasses(&bad));
        let excess = issuer.excess_of(&bad);
        assert_eq!(excess, vec![&p("198.51.100.0/24")]);
        assert!(issuer.excess_of(&ok).is_empty());
        assert!(issuer.encompasses(&PrefixSet::empty()));
        assert!(!PrefixSet::empty().encompasses(&ok));
    }

    #[test]
    fn prefix_set_insert_and_union() {
        let mut s = PrefixSet::empty();
        s.insert(p("10.1.0.0/16"));
        s.insert(p("10.0.0.0/8")); // absorbs the /16
        assert_eq!(s.len(), 1);
        s.insert(p("10.2.0.0/16")); // already covered, no-op
        assert_eq!(s.len(), 1);
        let u = s.union(&PrefixSet::from_prefixes(vec![p("172.16.0.0/12")]));
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn prefix_set_display() {
        let s = PrefixSet::from_prefixes(vec![p("10.0.0.0/8")]);
        assert_eq!(s.to_string(), "{10.0.0.0/8}");
    }

    fn r(a: u32, b: u32) -> AsnRange {
        AsnRange::new(Asn::new(a), Asn::new(b)).unwrap()
    }

    #[test]
    fn asn_set_merges_overlaps_and_adjacency() {
        let s = AsnSet::from_ranges(vec![r(10, 20), r(15, 25), r(26, 30), r(40, 41)]);
        assert_eq!(s.ranges(), &[r(10, 30), r(40, 41)]);
        assert_eq!(s.count(), 23);
    }

    #[test]
    fn asn_set_contains_binary_search() {
        let s = AsnSet::from_ranges(vec![r(10, 20), r(40, 50), r(100, 100)]);
        for v in [10, 15, 20, 40, 50, 100] {
            assert!(s.contains(Asn::new(v)), "expected {v}");
        }
        for v in [9, 21, 39, 51, 99, 101] {
            assert!(!s.contains(Asn::new(v)), "unexpected {v}");
        }
    }

    #[test]
    fn asn_set_encompasses() {
        let issuer = AsnSet::from_ranges(vec![r(100, 200)]);
        assert!(issuer.encompasses(&AsnSet::from_ranges(vec![r(100, 150), r(180, 200)])));
        assert!(!issuer.encompasses(&AsnSet::from_ranges(vec![r(150, 201)])));
        assert!(issuer.encompasses(&AsnSet::empty()));
    }

    #[test]
    fn asn_set_from_asns_and_iter() {
        let s = AsnSet::from_asns([3, 1, 2, 10].map(Asn::new));
        assert_eq!(s.ranges(), &[r(1, 3), r(10, 10)]);
        let all: Vec<u32> = s.iter().map(super::super::asn::Asn::value).collect();
        assert_eq!(all, vec![1, 2, 3, 10]);
    }

    #[test]
    fn asn_set_merge_does_not_overflow_at_u32_max() {
        let s = AsnSet::from_ranges(vec![r(u32::MAX - 1, u32::MAX), r(0, 0)]);
        assert_eq!(s.ranges().len(), 2);
        assert!(s.contains(Asn::new(u32::MAX)));
    }
}
