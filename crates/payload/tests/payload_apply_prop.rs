//! `VrpPayload::apply` over the shared `VrpSet`: a payload advanced by
//! a delta equals one built from scratch, and a successor shares every
//! chunk its delta did not touch (the set's own model tests live beside
//! the type, in `ripki-net`).

use proptest::prelude::*;
use ripki_net::{Asn, IpPrefix};
use ripki_payload::{VrpDelta, VrpPayload, VrpTriple as Vrp};
use std::collections::{BTreeSet, HashSet};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::sync::Arc;

/// Indices `0..UNIVERSE` name the VRPs the runs draw from.
const UNIVERSE: u16 = 300;

/// The `i`th VRP of the universe: distinct for distinct `i`, spread
/// over both families, several lengths and ASNs.
fn vrp(i: u16) -> Vrp {
    let scrambled = i.wrapping_mul(40_503); // odd: a bijection on u16
    let prefix = if i.is_multiple_of(3) {
        let addr = Ipv6Addr::from(u128::from(scrambled) << 96 | 0x2001 << 112);
        IpPrefix::new(IpAddr::V6(addr), 32)
    } else {
        IpPrefix::new(IpAddr::V4(Ipv4Addr::from(u32::from(scrambled) << 16)), 16)
    }
    .expect("length within the family");
    Vrp {
        prefix,
        max_length: prefix.len() + (i % 5) as u8,
        asn: Asn::new(64_500 + u32::from(i % 7)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `VrpPayload::apply` itself — redundant announcements and
    /// withdrawals included — lands on the set, and the digest, that
    /// `VrpPayload::new` builds from the model.
    #[test]
    fn payload_apply_matches_the_model(
        start in proptest::collection::vec(0..UNIVERSE, 0..200),
        deltas in proptest::collection::vec(
            (
                proptest::collection::vec(0..UNIVERSE, 0..16),
                proptest::collection::vec(0..UNIVERSE, 0..16),
            ),
            1..12,
        ),
    ) {
        let mut model: BTreeSet<Vrp> = start.iter().map(|&i| vrp(i)).collect();
        let mut payload = VrpPayload::new(1, model.iter().copied());
        for (announced, withdrawn) in deltas {
            let delta = VrpDelta::new(
                payload.epoch(),
                payload.epoch() + 1,
                announced.iter().map(|&i| vrp(i)).collect(),
                withdrawn.iter().map(|&i| vrp(i)).collect(),
            );
            for v in &delta.withdrawn {
                model.remove(v);
            }
            model.extend(delta.announced.iter().copied());
            let next = payload.apply(&delta).expect("the delta chains");
            let rebuilt = VrpPayload::new(next.epoch(), model.iter().copied());
            prop_assert_eq!(&next, &rebuilt);
            prop_assert_eq!(next.digest(), rebuilt.digest());
            prop_assert_eq!(payload.diff(&next), payload.diff(&rebuilt));
            payload = next;
        }
    }
}

/// The sharing bound at the size the fabric runs: after `apply` of a
/// +k −k delta on a 100 000-VRP payload, at most 2k chunks of the
/// result are new allocations — every other chunk *is* the base's.
#[test]
fn a_successor_shares_all_but_the_chunks_its_delta_touched() {
    let v4 = |block: u32, i: u32| Vrp {
        prefix: IpPrefix::new(IpAddr::V4(Ipv4Addr::from(block << 24 | i)), 32).expect("a /32"),
        max_length: 32,
        asn: Asn::new(64_500 + i % 1_000),
    };
    let model: BTreeSet<Vrp> = (0..100_000).map(|i| v4(10, i)).collect();
    for k in [1u32, 4, 32] {
        let base = VrpPayload::new(1, model.iter().copied());
        let delta = VrpDelta::new(
            1,
            2,
            (0..k).map(|j| v4(11, j * 2_999)).collect(),
            (0..k).map(|j| v4(10, 17 + j * 3_001)).collect(),
        );
        let next = base.apply(&delta).expect("the delta chains");

        let of_base: HashSet<_> = base.vrps().chunks().iter().map(Arc::as_ptr).collect();
        let fresh = next
            .vrps()
            .chunks()
            .iter()
            .filter(|c| !of_base.contains(&Arc::as_ptr(c)))
            .count();
        assert!(
            (1..=2 * k as usize).contains(&fresh),
            "+{k} −{k}: {fresh} of {} chunks are not the base's",
            next.vrps().chunks().len()
        );
        assert_eq!(
            base.diff(&next),
            delta,
            "the sharing-aware diff finds the delta"
        );

        // The base is untouched, and the successor does not lean on it.
        assert!(base.vrps() == &model);
        drop(base);
        let mut expected = model.clone();
        for v in &delta.withdrawn {
            assert!(expected.remove(v));
        }
        expected.extend(delta.announced.iter().copied());
        assert!(next.vrps() == &expected);
        assert!(&expected == next.vrps());
        assert_eq!(next.digest(), VrpPayload::new(2, expected).digest());
    }
}
