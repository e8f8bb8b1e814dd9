//! # ripki-net
//!
//! Foundation types for the `ripki` workspace: IP prefixes, autonomous
//! system numbers, longest-prefix-match tries, prefix/ASN sets, and the
//! IANA special-purpose address registries.
//!
//! This crate is deliberately dependency-light and synchronous. Its design
//! follows the smoltcp school: simple, robust data structures with explicit
//! error types, no macro or type-level tricks, and extensive documentation.
//!
//! ## What is implemented
//!
//! * [`Asn`] — 32-bit AS numbers with `AS64496`-style parsing and the
//!   IANA-reserved ranges (documentation, private use).
//! * [`IpPrefix`], [`Ipv4Prefix`], [`Ipv6Prefix`] — canonical CIDR prefixes
//!   (host bits forced to zero) with containment and covering predicates.
//! * [`PrefixTrie`] — a binary radix trie per address family supporting
//!   exact lookup, longest-prefix match, *all covering prefixes* of an
//!   address or prefix (the operation RiPKI step 3 needs), and enumeration
//!   of covered entries (the operation RFC 6811 needs).
//! * [`PrefixSet`] / [`AsnSet`] — resource sets with subset tests, used by
//!   the RFC 3779 resource-extension logic in `ripki-rpki`.
//! * [`special`] — the IANA special-purpose registries (RFC 6890 family),
//!   used by the measurement pipeline to discard invalid DNS answers.
//! * [`Vrp`] — the (prefix, maxLength, ASN) triple `ripki-rpki` validates
//!   out of ROAs and `ripki-bgp` validates announcements against.
//! * [`VrpSet`] — the persistent, structurally shared sorted set of
//!   [`Vrp`]s every payload, RTR cache and origin validator holds.
//!
//! ## What is omitted
//!
//! * No IP packet formats; this crate is about address *algebra* only.
//! * No IPv6 scope identifiers or zone indices.

pub mod asn;
pub mod error;
pub mod prefix;
pub mod set;
pub mod special;
pub mod trie;
pub mod vrp;
pub mod vrp_set;

pub use asn::{Asn, AsnRange};
pub use error::NetParseError;
pub use prefix::{IpPrefix, Ipv4Prefix, Ipv6Prefix};
pub use set::{AsnSet, PrefixSet};
pub use trie::PrefixTrie;
pub use vrp::Vrp;
pub use vrp_set::VrpSet;

use std::net::IpAddr;

/// Address family of a prefix or address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    /// IPv4 (32-bit addresses).
    V4,
    /// IPv6 (128-bit addresses).
    V6,
}

impl Family {
    /// The number of bits in an address of this family.
    pub fn bits(self) -> u8 {
        match self {
            Family::V4 => 32,
            Family::V6 => 128,
        }
    }

    /// The family of an [`IpAddr`].
    pub fn of(addr: IpAddr) -> Family {
        match addr {
            IpAddr::V4(_) => Family::V4,
            IpAddr::V6(_) => Family::V6,
        }
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Family::V4 => write!(f, "IPv4"),
            Family::V6 => write!(f, "IPv6"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_bits() {
        assert_eq!(Family::V4.bits(), 32);
        assert_eq!(Family::V6.bits(), 128);
    }

    #[test]
    fn family_of_addr() {
        assert_eq!(Family::of("1.2.3.4".parse().unwrap()), Family::V4);
        assert_eq!(Family::of("::1".parse().unwrap()), Family::V6);
    }

    #[test]
    fn family_display() {
        assert_eq!(Family::V4.to_string(), "IPv4");
        assert_eq!(Family::V6.to_string(), "IPv6");
    }
}
