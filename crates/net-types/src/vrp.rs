//! The Validated ROA Payload triple.
//!
//! Defined here, below both the RPKI object model (which produces VRPs)
//! and the BGP origin validator (which consumes them), so the two share
//! one type: `ripki_rpki::validate::Vrp` and `ripki_bgp::rov::VrpTriple`
//! are re-exports of [`Vrp`].

use crate::{Asn, IpPrefix};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A Validated ROA Payload: the (prefix, maxLength, ASN) triple that
/// feeds route origin validation (RFC 6811).
///
/// The derived order — prefix, then max length, then ASN — is the wire
/// order of `/vrps.json` and of RTR resets, which serve a
/// [`VrpSet`](crate::VrpSet) front to back, and it is what lets the set
/// find the VRPs covering a route with one seek per prefix length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Vrp {
    /// Authorized prefix.
    pub prefix: IpPrefix,
    /// Maximum announced length considered authorized.
    pub max_length: u8,
    /// Authorized origin AS.
    pub asn: Asn,
}

impl fmt::Display for Vrp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{} => {}", self.prefix, self.max_length, self.asn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::BTreeSet;
    use std::hash::{Hash, Hasher};

    fn vrp(prefix: &str, max_length: u8, asn: u32) -> Vrp {
        Vrp {
            prefix: prefix.parse().unwrap(),
            max_length,
            asn: Asn::new(asn),
        }
    }

    fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut hasher = DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    /// The set order is the field order (prefix, max length, ASN): it
    /// is what `/vrps.json` and an RTR reset put on the wire.
    #[test]
    fn orders_by_prefix_then_max_length_then_asn() {
        let set: BTreeSet<Vrp> = [
            vrp("2001:db8::/32", 48, 1),
            vrp("10.1.0.0/16", 24, 7),
            vrp("10.1.0.0/16", 24, 3),
            vrp("10.1.0.0/16", 16, 9),
            vrp("10.0.0.0/8", 32, 9),
        ]
        .into_iter()
        .collect();
        let wire: Vec<String> = set.iter().map(Vrp::to_string).collect();
        assert_eq!(
            wire,
            [
                "10.0.0.0/8-32 => AS9",
                "10.1.0.0/16-16 => AS9",
                "10.1.0.0/16-24 => AS3",
                "10.1.0.0/16-24 => AS7",
                "2001:db8::/32-48 => AS1",
            ]
        );
    }

    /// Hashes as the field tuple, so a `HashSet<Vrp>` deduplicates on
    /// all three fields and on nothing else.
    #[test]
    fn hashes_as_its_fields() {
        let v = vrp("10.1.0.0/16", 24, 7);
        assert_eq!(hash_of(&v), hash_of(&(v.prefix, v.max_length, v.asn)));
        assert_ne!(hash_of(&v), hash_of(&vrp("10.1.0.0/16", 24, 8)));
        assert_ne!(hash_of(&v), hash_of(&vrp("10.1.0.0/16", 25, 7)));
    }

    /// Serialized as an object of the three named fields in declaration
    /// order, and read back to the same value (both families).
    #[test]
    fn serde_round_trips_field_for_field() {
        for v in [vrp("10.1.0.0/16", 24, 7), vrp("2001:db8::/32", 48, 65_551)] {
            let tree = v.to_value();
            let keys: Vec<&str> = tree
                .as_object()
                .expect("a struct serializes as an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["prefix", "max_length", "asn"]);
            assert_eq!(tree["prefix"], v.prefix.to_value());
            assert_eq!(tree["max_length"], Value::from(v.max_length));
            assert_eq!(tree["asn"], v.asn.to_value());
            assert_eq!(Vrp::from_value(&tree), Ok(v));
        }
    }
}
