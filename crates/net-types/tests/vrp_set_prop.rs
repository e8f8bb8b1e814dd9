//! `VrpSet` against a `BTreeSet` model, and its O(delta) claims as
//! properties rather than timings: how many chunks any churn can leave
//! behind (what a payload's successor shares with its base is pinned in
//! `ripki-payload`'s `payload_apply_prop`).
//!
//! The model runs use an 8-VRP chunk bound so a few hundred edits over
//! a few hundred VRPs split and fold chunks constantly; the same runs
//! at the default bound pin the type the rest of the workspace uses.

use proptest::prelude::*;
use ripki_net::{Asn, Family, IpPrefix, Vrp, VrpSet};
use std::collections::BTreeSet;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::ops::Bound;

/// Indices `0..UNIVERSE` name the VRPs the model runs draw from.
const UNIVERSE: u16 = 300;

/// The `i`th VRP of the universe: distinct for distinct `i`, spread
/// over both families, lengths from /16 (IPv4) and /32 (IPv6) up to
/// host routes, several ASNs, and ordered unlike the indices.
fn vrp(i: u16) -> Vrp {
    let scrambled = i.wrapping_mul(40_503); // odd: a bijection on u16
    let prefix = if i.is_multiple_of(3) {
        let addr = Ipv6Addr::from(u128::from(scrambled) << 96 | 0x2001 << 112);
        IpPrefix::new(IpAddr::V6(addr), 32 + (i % 97) as u8)
    } else {
        let addr = Ipv4Addr::from(u32::from(scrambled) << 16);
        IpPrefix::new(IpAddr::V4(addr), 16 + (i % 17) as u8)
    }
    .expect("length within the family");
    Vrp {
        prefix,
        max_length: (prefix.len() + (i % 5) as u8).min(prefix.family().bits()),
        asn: Asn::new(64_500 + u32::from(i % 7)),
    }
}

#[derive(Debug, Clone)]
enum Step {
    Insert(u16),
    Remove(u16),
    /// What a payload's `apply` does with a delta, redundant records
    /// and all: withdrawals first, then announcements.
    Apply {
        announced: Vec<u16>,
        withdrawn: Vec<u16>,
    },
    /// Start over from shuffled input with duplicates.
    Collect(Vec<u16>),
}

fn arb_step() -> impl Strategy<Value = Step> {
    let index = || 0..UNIVERSE;
    let indices = |most| proptest::collection::vec(index(), 0..most);
    prop_oneof![
        index().prop_map(Step::Insert),
        index().prop_map(Step::Remove),
        // Removals twice as likely as anything else: the runs drain
        // chunks as readily as they fill them.
        index().prop_map(Step::Remove),
        (indices(12), indices(12)).prop_map(|(announced, withdrawn)| Step::Apply {
            announced,
            withdrawn
        }),
        (indices(12), indices(40)).prop_map(|(announced, withdrawn)| Step::Apply {
            announced,
            withdrawn
        }),
        indices(2 * usize::from(UNIVERSE)).prop_map(Step::Collect),
    ]
}

/// Every invariant the type documents, for a set of chunk bound `B`.
fn assert_chunk_invariants<const B: usize>(set: &VrpSet<B>) {
    let chunks = set.chunks();
    assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), set.len());
    assert!(
        chunks.len() <= set.len() / (B / 4) + 1,
        "{} chunks for {} VRPs at bound {B}",
        chunks.len(),
        set.len()
    );
    for chunk in chunks {
        assert!(!chunk.is_empty(), "an empty chunk");
        assert!(chunk.len() <= B, "a chunk of {} > {B}", chunk.len());
        assert!(chunk.windows(2).all(|w| w[0] < w[1]), "unsorted chunk");
    }
    assert!(
        chunks.windows(2).all(|w| w[0].last() < w[1].first()),
        "chunks overlap or are out of order"
    );
}

/// `set` is `model`, by every observation the API offers — the
/// per-family prefix-length counts included.
fn assert_matches_model<const B: usize>(set: &VrpSet<B>, model: &BTreeSet<Vrp>, probes: &[u16]) {
    assert_chunk_invariants(set);
    assert_eq!(set.len(), model.len());
    for family in [Family::V4, Family::V6] {
        let mut recount = vec![0u32; usize::from(family.bits()) + 1];
        for vrp in model.iter().filter(|v| v.prefix.family() == family) {
            recount[usize::from(vrp.prefix.len())] += 1;
        }
        assert_eq!(set.length_counts(family), recount, "{family} length counts");
    }
    assert_eq!(set.is_empty(), model.is_empty());
    assert_eq!(set.iter().len(), model.len());
    assert!(set.iter().eq(model.iter()), "iteration order");
    assert!(set.into_iter().eq(model), "IntoIterator for &VrpSet");
    assert!(set == model, "VrpSet == BTreeSet");
    assert!(model == set, "BTreeSet == VrpSet");
    for i in 0..UNIVERSE {
        assert_eq!(set.contains(&vrp(i)), model.contains(&vrp(i)), "vrp {i}");
    }
    let rebuilt: VrpSet<B> = model.iter().copied().collect();
    assert_eq!(set, &rebuilt, "equality ignores how the set was reached");
    assert_eq!(set.digest(), rebuilt.digest());
    // Resume-after: from members and non-members, from the set's own
    // first and last VRP, and from keys before and past everything.
    let outside = |addr: IpAddr, len: u8, asn: u32| Vrp {
        prefix: IpPrefix::new(addr, len).expect("length within the family"),
        max_length: len,
        asn: Asn::new(asn),
    };
    let ends = [
        model.first().copied(),
        model.last().copied(),
        Some(outside(IpAddr::V4(Ipv4Addr::from(0)), 0, 0)),
        Some(outside(
            IpAddr::V6(Ipv6Addr::from(u128::MAX)),
            128,
            u32::MAX,
        )),
    ];
    for key in probes
        .iter()
        .map(|&i| vrp(i))
        .chain(ends.into_iter().flatten())
    {
        let expected = model.range((Bound::Excluded(key), Bound::Unbounded));
        let resumed = set.iter_after(&key);
        assert_eq!(resumed.len(), expected.clone().count(), "after {key:?}");
        assert!(resumed.eq(expected), "after {key:?}");
    }
}

fn run_against_model<const B: usize>(steps: &[Step], probes: &[u16]) {
    let mut set = VrpSet::<B>::new();
    let mut model = BTreeSet::new();
    assert_matches_model(&set, &model, probes);
    for step in steps {
        // A handle taken before the step must not see it.
        let (held, held_model) = (set.clone(), model.clone());
        match step {
            Step::Insert(i) => assert_eq!(set.insert(vrp(*i)), model.insert(vrp(*i))),
            Step::Remove(i) => assert_eq!(set.remove(&vrp(*i)), model.remove(&vrp(*i))),
            Step::Apply {
                announced,
                withdrawn,
            } => {
                for i in withdrawn {
                    assert_eq!(set.remove(&vrp(*i)), model.remove(&vrp(*i)));
                }
                for i in announced {
                    assert_eq!(set.insert(vrp(*i)), model.insert(vrp(*i)));
                }
            }
            Step::Collect(indices) => {
                set = indices.iter().map(|&i| vrp(i)).collect();
                model = indices.iter().map(|&i| vrp(i)).collect();
            }
        }
        assert_matches_model(&set, &model, probes);
        assert!(held == held_model, "an edit reached an older handle");
        let gained: Vec<_> = model.difference(&held_model).copied().collect();
        let lost: Vec<_> = held_model.difference(&model).copied().collect();
        assert_eq!(set.difference(&held), gained);
        assert_eq!(held.difference(&set), lost);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vrp_set_matches_a_btreeset_model(
        steps in proptest::collection::vec(arb_step(), 1..120),
        probes in proptest::collection::vec(0..UNIVERSE, 1..6),
    ) {
        run_against_model::<8>(&steps, &probes);
        run_against_model::<512>(&steps, &probes);
    }

}

/// Adversarial churn for the chunk-count bound: drain a full set in an
/// order that empties every chunk at the same pace, refill it in
/// another, drain it from one end — the invariants hold after every
/// single edit, so no run of removals can leave a trail of tiny chunks.
#[test]
fn chunk_count_stays_bounded_under_remove_heavy_churn() {
    const N: u32 = 2_000;
    let all = |stride: u32| (0..N).map(move |i| vrp((i * stride % N) as u16));
    let mut set: VrpSet<8> = all(1).collect();
    assert_eq!(set.len(), N as usize);
    assert_chunk_invariants(&set);
    // 7 and 1 999 are coprime to 2 000: each pass visits every VRP.
    for v in all(7) {
        assert!(set.remove(&v));
        assert_chunk_invariants(&set);
    }
    assert!(set.is_empty() && set.chunks().is_empty());
    for v in all(1_999) {
        assert!(set.insert(v));
        assert_chunk_invariants(&set);
    }
    let ordered: Vec<Vrp> = set.iter().copied().collect();
    for v in &ordered[..ordered.len() - 3] {
        assert!(set.remove(v));
        assert_chunk_invariants(&set);
    }
    let left = &ordered[ordered.len() - 3..];
    assert!(set.iter().eq(left));
    assert_eq!(set, left.iter().copied().collect::<VrpSet<8>>());
}
