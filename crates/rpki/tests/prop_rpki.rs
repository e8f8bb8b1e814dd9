//! Property-based tests for `ripki-rpki`: validator soundness under
//! randomly generated hierarchies and random tampering.

use proptest::prelude::*;
use ripki_net::{Asn, IpPrefix, Ipv4Prefix};
use ripki_rpki::repo::RepositoryBuilder;
use ripki_rpki::resources::Resources;
use ripki_rpki::roa::RoaPrefix;
use ripki_rpki::time::{Duration, SimTime};
use ripki_rpki::validate::{validate, Vrp};
use std::net::Ipv4Addr;

/// A generated ROA spec under an ISP: (/16 index within 85.0.0.0/8, asn,
/// optional maxlen extension).
fn arb_roa_spec() -> impl Strategy<Value = (u8, u32, Option<u8>)> {
    (0u8..=255, 1u32..100_000, prop::option::of(17u8..=24))
}

fn prefix_for(idx: u8) -> IpPrefix {
    IpPrefix::V4(Ipv4Prefix::new(Ipv4Addr::new(85, idx, 0, 0), 16).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness + completeness on well-formed repositories: every ROA the
    /// builder published yields exactly its VRPs; nothing is rejected.
    #[test]
    fn validator_accepts_exactly_what_was_published(
        specs in prop::collection::vec(arb_roa_spec(), 0..20),
        seed in 0u64..1000,
    ) {
        let now = SimTime::EPOCH + Duration::days(1);
        let mut b = RepositoryBuilder::new(seed, SimTime::EPOCH);
        let ta = b.add_trust_anchor(
            "RIPE",
            Resources::from_prefixes(vec!["80.0.0.0/4".parse().unwrap()]),
        );
        let isp = b
            .add_ca(ta, "ISP-1", Resources::from_prefixes(vec!["85.0.0.0/8".parse().unwrap()]))
            .unwrap();
        let mut expected: Vec<Vrp> = Vec::new();
        for (idx, asn, maxlen) in &specs {
            let prefix = prefix_for(*idx);
            let rp = match maxlen {
                Some(ml) => RoaPrefix::up_to(prefix, *ml),
                None => RoaPrefix::exact(prefix),
            };
            b.add_roa(isp, Asn::new(*asn), vec![rp]).unwrap();
            expected.push(Vrp {
                prefix,
                max_length: maxlen.unwrap_or(16),
                asn: Asn::new(*asn),
            });
        }
        let repo = b.finalize();
        let report = validate(&repo, now);
        prop_assert_eq!(report.rejected_count(), 0);
        expected.sort();
        expected.dedup();
        prop_assert_eq!(report.vrps, expected);
    }

    /// Tampering with any single ROA's ASN after publication never yields
    /// a VRP for the tampered ASN (no forgery passes).
    #[test]
    fn tampered_asn_never_validates(
        specs in prop::collection::vec(arb_roa_spec(), 1..10),
        victim in any::<prop::sample::Index>(),
        seed in 0u64..200,
    ) {
        let now = SimTime::EPOCH + Duration::days(1);
        let mut b = RepositoryBuilder::new(seed, SimTime::EPOCH);
        let ta = b.add_trust_anchor(
            "RIPE",
            Resources::from_prefixes(vec!["80.0.0.0/4".parse().unwrap()]),
        );
        let isp = b
            .add_ca(ta, "ISP-1", Resources::from_prefixes(vec!["85.0.0.0/8".parse().unwrap()]))
            .unwrap();
        for (idx, asn, maxlen) in &specs {
            let prefix = prefix_for(*idx);
            let rp = match maxlen {
                Some(ml) => RoaPrefix::up_to(prefix, *ml),
                None => RoaPrefix::exact(prefix),
            };
            b.add_roa(isp, Asn::new(*asn), vec![rp]).unwrap();
        }
        let mut repo = b.finalize();
        const EVIL: u32 = 4_000_000_000;
        let pp = repo.points.get_mut(
            &ripki_crypto::keystore::Keypair::derive(seed, "ca/ISP-1").key_id
        ).unwrap();
        let i = victim.index(pp.roas.len());
        std::sync::Arc::make_mut(&mut pp.roas[i]).asn = Asn::new(EVIL);
        let report = validate(&repo, now);
        prop_assert!(report.vrps.iter().all(|v| v.asn != Asn::new(EVIL)));
    }

    /// Validation at a time far beyond every validity window yields no
    /// VRPs, regardless of repository shape.
    #[test]
    fn expired_world_is_empty(
        specs in prop::collection::vec(arb_roa_spec(), 0..8),
        seed in 0u64..200,
    ) {
        let mut b = RepositoryBuilder::new(seed, SimTime::EPOCH);
        let ta = b.add_trust_anchor(
            "RIPE",
            Resources::from_prefixes(vec!["80.0.0.0/4".parse().unwrap()]),
        );
        let isp = b
            .add_ca(ta, "ISP-1", Resources::from_prefixes(vec!["85.0.0.0/8".parse().unwrap()]))
            .unwrap();
        for (idx, asn, _) in &specs {
            b.add_roa(isp, Asn::new(*asn), vec![RoaPrefix::exact(prefix_for(*idx))])
                .unwrap();
        }
        let repo = b.finalize();
        let report = validate(&repo, SimTime::EPOCH + Duration::years(50));
        prop_assert!(report.vrps.is_empty());
    }

    /// Revoking a random subset of ROA EE serials removes exactly those
    /// ROAs' VRPs.
    #[test]
    fn revocation_is_precise(
        n_roas in 1usize..12,
        revoke_mask in any::<u16>(),
        seed in 0u64..200,
    ) {
        let now = SimTime::EPOCH + Duration::days(1);
        let mut b = RepositoryBuilder::new(seed, SimTime::EPOCH);
        let ta = b.add_trust_anchor(
            "RIPE",
            Resources::from_prefixes(vec!["80.0.0.0/4".parse().unwrap()]),
        );
        let isp = b
            .add_ca(ta, "ISP-1", Resources::from_prefixes(vec!["85.0.0.0/8".parse().unwrap()]))
            .unwrap();
        // Serials: TA=1, ISP=2, ROA EEs = 3..3+n
        let mut kept: Vec<Asn> = Vec::new();
        for i in 0..n_roas {
            let asn = Asn::new(1000 + i as u32);
            b.add_roa(isp, asn, vec![RoaPrefix::exact(prefix_for(i as u8))]).unwrap();
            let serial = 3 + i as u64;
            if revoke_mask & (1 << i) != 0 {
                b.revoke(isp, serial).unwrap();
            } else {
                kept.push(asn);
            }
        }
        let repo = b.finalize();
        let report = validate(&repo, now);
        let mut got: Vec<Asn> = report.vrps.iter().map(|v| v.asn).collect();
        got.sort();
        kept.sort();
        prop_assert_eq!(got, kept);
    }
}
