//! CIDR prefixes for IPv4 and IPv6.
//!
//! A prefix is stored canonically: all bits below the prefix length are
//! forced to zero, so two prefixes that denote the same address block
//! always compare equal. The RiPKI pipeline manipulates prefixes in every
//! step after DNS resolution: mapping addresses to covering prefixes,
//! comparing the prefix footprints of `www`/non-`www` names (Fig 1), and
//! RFC 6811 origin validation (Fig 2).

use crate::error::NetParseError;
use crate::Family;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

/// An IPv4 prefix in canonical form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ipv4Prefix {
    bits: u32,
    len: u8,
}

/// An IPv6 prefix in canonical form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ipv6Prefix {
    bits: u128,
    len: u8,
}

/// Mask with the top `len` bits of a 32-bit word set.
fn mask4(len: u8) -> u32 {
    debug_assert!(len <= 32);
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len)
    }
}

/// Mask with the top `len` bits of a 128-bit word set.
fn mask6(len: u8) -> u128 {
    debug_assert!(len <= 128);
    if len == 0 {
        0
    } else {
        u128::MAX << (128 - len)
    }
}

impl Ipv4Prefix {
    /// Construct from an address and a length, canonicalising host bits.
    ///
    /// Returns an error if `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Result<Ipv4Prefix, NetParseError> {
        if len > 32 {
            return Err(NetParseError::InvalidPrefixLength(format!("/{len}")));
        }
        Ok(Ipv4Prefix {
            bits: u32::from(addr) & mask4(len),
            len,
        })
    }

    /// The all-IPv4 prefix `0.0.0.0/0`.
    pub const fn default_route() -> Ipv4Prefix {
        Ipv4Prefix { bits: 0, len: 0 }
    }

    /// A host route (`/32`) for a single address.
    pub fn host(addr: Ipv4Addr) -> Ipv4Prefix {
        Ipv4Prefix {
            bits: u32::from(addr),
            len: 32,
        }
    }

    /// The network address (lowest address in the block).
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.bits)
    }

    /// The highest address in the block.
    pub fn broadcast(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.bits | !mask4(self.len))
    }

    /// The prefix length in bits.
    #[allow(clippy::len_without_is_empty)] // mask length, not a container
    pub fn len(&self) -> u8 {
        self.len
    }

    /// The raw network bits, left-aligned.
    pub fn raw_bits(&self) -> u32 {
        self.bits
    }

    /// Whether `addr` falls within this prefix.
    pub fn contains_addr(&self, addr: Ipv4Addr) -> bool {
        (u32::from(addr) & mask4(self.len)) == self.bits
    }

    /// Whether `other` is equal to or more specific than `self`
    /// (i.e. `self` *covers* `other`).
    pub fn covers(&self, other: &Ipv4Prefix) -> bool {
        self.len <= other.len && (other.bits & mask4(self.len)) == self.bits
    }

    /// The immediate parent prefix (one bit shorter), or `None` for `/0`.
    pub fn parent(&self) -> Option<Ipv4Prefix> {
        if self.len == 0 {
            None
        } else {
            let len = self.len - 1;
            Some(Ipv4Prefix {
                bits: self.bits & mask4(len),
                len,
            })
        }
    }

    /// The two child prefixes (one bit longer), or `None` for `/32`.
    pub fn children(&self) -> Option<(Ipv4Prefix, Ipv4Prefix)> {
        if self.len == 32 {
            None
        } else {
            let len = self.len + 1;
            let left = Ipv4Prefix {
                bits: self.bits,
                len,
            };
            let right = Ipv4Prefix {
                bits: self.bits | (1u32 << (32 - len)),
                len,
            };
            Some((left, right))
        }
    }

    /// Value of the bit at position `index` (0 = most significant).
    pub fn bit(&self, index: u8) -> bool {
        debug_assert!(index < 32);
        (self.bits >> (31 - index)) & 1 == 1
    }

    /// Number of addresses in the block, as a `u64` (to represent `/0`).
    pub fn address_count(&self) -> u64 {
        1u64 << (32 - self.len as u64)
    }
}

impl Ipv6Prefix {
    /// Construct from an address and a length, canonicalising host bits.
    ///
    /// Returns an error if `len > 128`.
    pub fn new(addr: Ipv6Addr, len: u8) -> Result<Ipv6Prefix, NetParseError> {
        if len > 128 {
            return Err(NetParseError::InvalidPrefixLength(format!("/{len}")));
        }
        Ok(Ipv6Prefix {
            bits: u128::from(addr) & mask6(len),
            len,
        })
    }

    /// The all-IPv6 prefix `::/0`.
    pub const fn default_route() -> Ipv6Prefix {
        Ipv6Prefix { bits: 0, len: 0 }
    }

    /// A host route (`/128`) for a single address.
    pub fn host(addr: Ipv6Addr) -> Ipv6Prefix {
        Ipv6Prefix {
            bits: u128::from(addr),
            len: 128,
        }
    }

    /// The network address (lowest address in the block).
    pub fn network(&self) -> Ipv6Addr {
        Ipv6Addr::from(self.bits)
    }

    /// The highest address in the block.
    pub fn last_addr(&self) -> Ipv6Addr {
        Ipv6Addr::from(self.bits | !mask6(self.len))
    }

    /// The prefix length in bits.
    #[allow(clippy::len_without_is_empty)] // mask length, not a container
    pub fn len(&self) -> u8 {
        self.len
    }

    /// The raw network bits, left-aligned.
    pub fn raw_bits(&self) -> u128 {
        self.bits
    }

    /// Whether `addr` falls within this prefix.
    pub fn contains_addr(&self, addr: Ipv6Addr) -> bool {
        (u128::from(addr) & mask6(self.len)) == self.bits
    }

    /// Whether `other` is equal to or more specific than `self`.
    pub fn covers(&self, other: &Ipv6Prefix) -> bool {
        self.len <= other.len && (other.bits & mask6(self.len)) == self.bits
    }

    /// The immediate parent prefix (one bit shorter), or `None` for `/0`.
    pub fn parent(&self) -> Option<Ipv6Prefix> {
        if self.len == 0 {
            None
        } else {
            let len = self.len - 1;
            Some(Ipv6Prefix {
                bits: self.bits & mask6(len),
                len,
            })
        }
    }

    /// The two child prefixes (one bit longer), or `None` for `/128`.
    pub fn children(&self) -> Option<(Ipv6Prefix, Ipv6Prefix)> {
        if self.len == 128 {
            None
        } else {
            let len = self.len + 1;
            let left = Ipv6Prefix {
                bits: self.bits,
                len,
            };
            let right = Ipv6Prefix {
                bits: self.bits | (1u128 << (128 - len)),
                len,
            };
            Some((left, right))
        }
    }

    /// Value of the bit at position `index` (0 = most significant).
    pub fn bit(&self, index: u8) -> bool {
        debug_assert!(index < 128);
        (self.bits >> (127 - index)) & 1 == 1
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl fmt::Display for Ipv6Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl FromStr for Ipv4Prefix {
    type Err = NetParseError;

    fn from_str(s: &str) -> Result<Ipv4Prefix, NetParseError> {
        let (addr, len) = split_cidr(s)?;
        let addr: Ipv4Addr = addr
            .parse()
            .map_err(|_| NetParseError::InvalidAddress(addr.to_string()))?;
        Ipv4Prefix::new(addr, len)
    }
}

impl FromStr for Ipv6Prefix {
    type Err = NetParseError;

    fn from_str(s: &str) -> Result<Ipv6Prefix, NetParseError> {
        let (addr, len) = split_cidr(s)?;
        let addr: Ipv6Addr = addr
            .parse()
            .map_err(|_| NetParseError::InvalidAddress(addr.to_string()))?;
        Ipv6Prefix::new(addr, len)
    }
}

fn split_cidr(s: &str) -> Result<(&str, u8), NetParseError> {
    let (addr, len) = s
        .split_once('/')
        .ok_or_else(|| NetParseError::Malformed(s.to_string()))?;
    let len: u8 = len
        .parse()
        .map_err(|_| NetParseError::InvalidPrefixLength(s.to_string()))?;
    Ok((addr, len))
}

/// Ordering: by network bits, then by length (shorter first). This makes a
/// sorted list of prefixes place covering prefixes immediately before the
/// prefixes they cover, which [`crate::set::PrefixSet`] exploits.
impl Ord for Ipv4Prefix {
    fn cmp(&self, other: &Ipv4Prefix) -> Ordering {
        self.bits.cmp(&other.bits).then(self.len.cmp(&other.len))
    }
}

impl PartialOrd for Ipv4Prefix {
    fn partial_cmp(&self, other: &Ipv4Prefix) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ipv6Prefix {
    fn cmp(&self, other: &Ipv6Prefix) -> Ordering {
        self.bits.cmp(&other.bits).then(self.len.cmp(&other.len))
    }
}

impl PartialOrd for Ipv6Prefix {
    fn partial_cmp(&self, other: &Ipv6Prefix) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A prefix of either address family.
///
/// ```
/// use ripki_net::IpPrefix;
/// let p: IpPrefix = "192.0.2.0/24".parse().unwrap();
/// assert!(p.contains_addr("192.0.2.55".parse().unwrap()));
/// let p6: IpPrefix = "2001:db8::/32".parse().unwrap();
/// assert_eq!(p6.len(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum IpPrefix {
    /// An IPv4 prefix.
    V4(Ipv4Prefix),
    /// An IPv6 prefix.
    V6(Ipv6Prefix),
}

impl IpPrefix {
    /// Construct from any IP address and a length.
    pub fn new(addr: IpAddr, len: u8) -> Result<IpPrefix, NetParseError> {
        match addr {
            IpAddr::V4(a) => Ipv4Prefix::new(a, len).map(IpPrefix::V4),
            IpAddr::V6(a) => Ipv6Prefix::new(a, len).map(IpPrefix::V6),
        }
    }

    /// A host route for a single address (`/32` or `/128`).
    pub fn host(addr: IpAddr) -> IpPrefix {
        match addr {
            IpAddr::V4(a) => IpPrefix::V4(Ipv4Prefix::host(a)),
            IpAddr::V6(a) => IpPrefix::V6(Ipv6Prefix::host(a)),
        }
    }

    /// The address family.
    pub fn family(&self) -> Family {
        match self {
            IpPrefix::V4(_) => Family::V4,
            IpPrefix::V6(_) => Family::V6,
        }
    }

    /// The prefix length in bits.
    #[allow(clippy::len_without_is_empty)] // mask length, not a container
    pub fn len(&self) -> u8 {
        match self {
            IpPrefix::V4(p) => p.len(),
            IpPrefix::V6(p) => p.len(),
        }
    }

    /// The network address.
    pub fn network(&self) -> IpAddr {
        match self {
            IpPrefix::V4(p) => IpAddr::V4(p.network()),
            IpPrefix::V6(p) => IpAddr::V6(p.network()),
        }
    }

    /// The highest address in the block.
    pub fn last_addr(&self) -> IpAddr {
        match self {
            IpPrefix::V4(p) => IpAddr::V4(p.broadcast()),
            IpPrefix::V6(p) => IpAddr::V6(p.last_addr()),
        }
    }

    /// Whether `addr` falls within this prefix. Always false across
    /// families.
    pub fn contains_addr(&self, addr: IpAddr) -> bool {
        match (self, addr) {
            (IpPrefix::V4(p), IpAddr::V4(a)) => p.contains_addr(a),
            (IpPrefix::V6(p), IpAddr::V6(a)) => p.contains_addr(a),
            _ => false,
        }
    }

    /// Whether `other` is equal to or more specific than `self`. Always
    /// false across families.
    pub fn covers(&self, other: &IpPrefix) -> bool {
        match (self, other) {
            (IpPrefix::V4(a), IpPrefix::V4(b)) => a.covers(b),
            (IpPrefix::V6(a), IpPrefix::V6(b)) => a.covers(b),
            _ => false,
        }
    }

    /// The immediate parent prefix, or `None` for a default route.
    pub fn parent(&self) -> Option<IpPrefix> {
        match self {
            IpPrefix::V4(p) => p.parent().map(IpPrefix::V4),
            IpPrefix::V6(p) => p.parent().map(IpPrefix::V6),
        }
    }

    /// The inner IPv4 prefix, if this is one.
    pub fn as_v4(&self) -> Option<&Ipv4Prefix> {
        match self {
            IpPrefix::V4(p) => Some(p),
            IpPrefix::V6(_) => None,
        }
    }

    /// The inner IPv6 prefix, if this is one.
    pub fn as_v6(&self) -> Option<&Ipv6Prefix> {
        match self {
            IpPrefix::V6(p) => Some(p),
            IpPrefix::V4(_) => None,
        }
    }
}

impl fmt::Display for IpPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpPrefix::V4(p) => p.fmt(f),
            IpPrefix::V6(p) => p.fmt(f),
        }
    }
}

impl FromStr for IpPrefix {
    type Err = NetParseError;

    fn from_str(s: &str) -> Result<IpPrefix, NetParseError> {
        // IPv6 textual form always contains ':'.
        if s.contains(':') {
            s.parse::<Ipv6Prefix>().map(IpPrefix::V6)
        } else {
            s.parse::<Ipv4Prefix>().map(IpPrefix::V4)
        }
    }
}

impl From<Ipv4Prefix> for IpPrefix {
    fn from(p: Ipv4Prefix) -> IpPrefix {
        IpPrefix::V4(p)
    }
}

impl From<Ipv6Prefix> for IpPrefix {
    fn from(p: Ipv6Prefix) -> IpPrefix {
        IpPrefix::V6(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p4(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn p6(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn canonicalises_host_bits() {
        assert_eq!(p4("192.0.2.77/24"), p4("192.0.2.0/24"));
        assert_eq!(p6("2001:db8::dead:beef/32"), p6("2001:db8::/32"));
    }

    #[test]
    fn rejects_bad_lengths() {
        assert!("10.0.0.0/33".parse::<Ipv4Prefix>().is_err());
        assert!("::/129".parse::<Ipv6Prefix>().is_err());
        assert!("10.0.0.0/-1".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    fn rejects_missing_slash() {
        assert!("10.0.0.0".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0".parse::<IpPrefix>().is_err());
    }

    #[test]
    fn rejects_wrong_family_literal() {
        assert!("::1/128".parse::<Ipv4Prefix>().is_err());
        assert!("1.2.3.4/32".parse::<Ipv6Prefix>().is_err());
    }

    #[test]
    fn display_roundtrip() {
        for s in [
            "0.0.0.0/0",
            "10.0.0.0/8",
            "192.0.2.128/25",
            "203.0.113.7/32",
        ] {
            assert_eq!(s.parse::<Ipv4Prefix>().unwrap().to_string(), s);
        }
        for s in ["::/0", "2001:db8::/32", "fe80::/10", "::1/128"] {
            assert_eq!(s.parse::<Ipv6Prefix>().unwrap().to_string(), s);
        }
    }

    #[test]
    fn contains_addr_boundaries() {
        let p = p4("192.0.2.0/24");
        assert!(p.contains_addr("192.0.2.0".parse().unwrap()));
        assert!(p.contains_addr("192.0.2.255".parse().unwrap()));
        assert!(!p.contains_addr("192.0.3.0".parse().unwrap()));
        assert!(!p.contains_addr("192.0.1.255".parse().unwrap()));
    }

    #[test]
    fn default_route_contains_everything() {
        let d4 = Ipv4Prefix::default_route();
        assert!(d4.contains_addr("255.255.255.255".parse().unwrap()));
        assert!(d4.contains_addr("0.0.0.0".parse().unwrap()));
        let d6 = Ipv6Prefix::default_route();
        assert!(d6.contains_addr("::".parse().unwrap()));
        assert!(d6.contains_addr("ffff::1".parse().unwrap()));
    }

    #[test]
    fn covers_is_reflexive_and_length_ordered() {
        let a = p4("10.0.0.0/8");
        let b = p4("10.1.0.0/16");
        assert!(a.covers(&a));
        assert!(a.covers(&b));
        assert!(!b.covers(&a));
        assert!(!a.covers(&p4("11.0.0.0/16")));
    }

    #[test]
    fn covers_does_not_cross_families() {
        let a: IpPrefix = "0.0.0.0/0".parse().unwrap();
        let b: IpPrefix = "::/0".parse().unwrap();
        assert!(!a.covers(&b));
        assert!(!b.covers(&a));
        assert!(!a.contains_addr("::1".parse().unwrap()));
    }

    #[test]
    fn parent_and_children_invert() {
        let p = p4("192.0.2.128/25");
        assert_eq!(p.parent().unwrap(), p4("192.0.2.0/24"));
        let (l, r) = p4("192.0.2.0/24").children().unwrap();
        assert_eq!(l, p4("192.0.2.0/25"));
        assert_eq!(r, p4("192.0.2.128/25"));
        assert!(p4("1.2.3.4/32").children().is_none());
        assert!(Ipv4Prefix::default_route().parent().is_none());
    }

    #[test]
    fn children_v6() {
        let (l, r) = p6("2001:db8::/32").children().unwrap();
        assert_eq!(l, p6("2001:db8::/33"));
        assert_eq!(r, p6("2001:db8:8000::/33"));
        assert!(Ipv6Prefix::host("::1".parse().unwrap())
            .children()
            .is_none());
    }

    #[test]
    fn bit_indexing() {
        let p = p4("128.0.0.0/1");
        assert!(p.bit(0));
        let p = p4("64.0.0.0/2");
        assert!(!p.bit(0));
        assert!(p.bit(1));
        let p = p6("8000::/1");
        assert!(p.bit(0));
    }

    #[test]
    fn broadcast_and_counts() {
        let p = p4("192.0.2.0/24");
        assert_eq!(p.broadcast(), "192.0.2.255".parse::<Ipv4Addr>().unwrap());
        assert_eq!(p.address_count(), 256);
        assert_eq!(Ipv4Prefix::default_route().address_count(), 1u64 << 32);
        assert_eq!(
            p6("2001:db8::/127").last_addr(),
            "2001:db8::1".parse::<Ipv6Addr>().unwrap()
        );
    }

    #[test]
    fn ordering_places_covering_before_covered() {
        let mut v = vec![p4("10.0.0.0/16"), p4("10.0.0.0/8"), p4("9.0.0.0/8")];
        v.sort();
        assert_eq!(
            v,
            vec![p4("9.0.0.0/8"), p4("10.0.0.0/8"), p4("10.0.0.0/16")]
        );
    }

    #[test]
    fn ip_prefix_dispatch() {
        let p: IpPrefix = "2001:db8::/48".parse().unwrap();
        assert_eq!(p.family(), Family::V6);
        assert_eq!(p.len(), 48);
        assert!(p.as_v6().is_some());
        assert!(p.as_v4().is_none());
        assert_eq!(p.parent().unwrap().to_string(), "2001:db8::/47");
        let h = IpPrefix::host("10.0.0.1".parse().unwrap());
        assert_eq!(h.to_string(), "10.0.0.1/32");
    }
}
