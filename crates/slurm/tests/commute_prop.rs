//! The commutation law that makes SLURM delta-aware: applying the
//! exceptions to a streamed delta must land on the same set as
//! re-excepting the full snapshot —
//! `excepted(base).apply(map_delta(d)) == excepted(base.apply(d))`
//! for every filter/assertion mix and every forward delta.

use proptest::prelude::*;
use ripki_bgp::rov::VrpTriple;
use ripki_net::{Asn, IpPrefix};
use ripki_payload::{PayloadUpdate, VrpDelta, VrpPayload};
use ripki_slurm::{ExceptionSet, PrefixAssertion, PrefixFilter, SlurmApplier, SlurmFile};

/// A small shared universe so payloads, deltas, filters, and
/// assertions collide constantly — the interesting regime.
fn prefix_for(idx: u8, v6: bool, len_bump: u8) -> IpPrefix {
    if v6 {
        format!("2001:db8:{idx}::/{}", 48 + len_bump)
            .parse()
            .expect("v6 prefix")
    } else {
        format!("10.{idx}.0.0/{}", 16 + len_bump)
            .parse()
            .expect("v4 prefix")
    }
}

fn arb_vrp() -> impl Strategy<Value = VrpTriple> {
    (0u8..6, any::<bool>(), 0u8..4, 1u32..8).prop_map(|(idx, v6, bump, asn)| VrpTriple {
        prefix: prefix_for(idx, v6, bump),
        max_length: if v6 { 48 + bump } else { 16 + bump },
        asn: Asn::new(asn),
    })
}

fn arb_filter() -> impl Strategy<Value = PrefixFilter> {
    prop_oneof![
        // ASN-only.
        (1u32..8).prop_map(|asn| PrefixFilter {
            prefix: None,
            asn: Some(Asn::new(asn)),
            comment: None,
        }),
        // Prefix-only: short lengths so covered-by bites more specifics.
        (0u8..6, any::<bool>()).prop_map(|(idx, v6)| PrefixFilter {
            prefix: Some(prefix_for(idx, v6, 0)),
            asn: None,
            comment: None,
        }),
        // Both members.
        (0u8..6, any::<bool>(), 0u8..4, 1u32..8).prop_map(|(idx, v6, bump, asn)| PrefixFilter {
            prefix: Some(prefix_for(idx, v6, bump)),
            asn: Some(Asn::new(asn)),
            comment: None,
        }),
    ]
}

fn arb_exceptions() -> impl Strategy<Value = ExceptionSet> {
    (
        prop::collection::vec(arb_filter(), 0..4),
        prop::collection::vec(arb_vrp(), 0..4),
    )
        .prop_map(|(filters, asserted)| {
            let file = SlurmFile {
                filters,
                assertions: asserted
                    .into_iter()
                    .map(|vrp| PrefixAssertion {
                        prefix: vrp.prefix,
                        asn: vrp.asn,
                        max_length: Some(vrp.max_length),
                        comment: None,
                    })
                    .collect(),
                warnings: Vec::new(),
            };
            file.compile()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The law itself, with the delta derived from a real diff (the
    /// shape every fabric publisher produces).
    #[test]
    fn slurm_commutes_with_diffed_deltas(
        ex in arb_exceptions(),
        base_vrps in prop::collection::btree_set(arb_vrp(), 0..12),
        next_vrps in prop::collection::btree_set(arb_vrp(), 0..12),
    ) {
        let base = VrpPayload::new(1, base_vrps);
        let next = VrpPayload::new(2, next_vrps);
        let delta = base.diff(&next);
        let left = ex
            .excepted(&base)
            .apply(&ex.map_delta(&delta))
            .expect("mapped delta chains from the excepted base");
        let right = ex.excepted(&next);
        prop_assert_eq!(left, right);
    }

    /// The law also holds for arbitrary (possibly redundant) deltas:
    /// announcements of already-present VRPs, withdrawals of absent
    /// ones — payload application is set-idempotent and SLURM must not
    /// break that.
    #[test]
    fn slurm_commutes_with_arbitrary_deltas(
        ex in arb_exceptions(),
        base_vrps in prop::collection::btree_set(arb_vrp(), 0..12),
        announced in prop::collection::vec(arb_vrp(), 0..8),
        withdrawn in prop::collection::vec(arb_vrp(), 0..8),
    ) {
        let base = VrpPayload::new(4, base_vrps);
        let delta = VrpDelta::new(4, 5, announced, withdrawn);
        let left = ex
            .excepted(&base)
            .apply(&ex.map_delta(&delta))
            .expect("mapped delta chains from the excepted base");
        let right = ex.excepted(&base.apply(&delta).expect("delta chains from base"));
        prop_assert_eq!(left, right);
    }

    /// A fabric hop's `SlurmApplier` keeps the delta usable: a
    /// downstream hop holding the previous *excepted* epoch can keep
    /// streaming, never forced into a snapshot resync.
    #[test]
    fn excepted_updates_still_chain(
        ex in arb_exceptions(),
        prev_vrps in prop::collection::btree_set(arb_vrp(), 0..12),
        next_vrps in prop::collection::btree_set(arb_vrp(), 0..12),
    ) {
        let prev = VrpPayload::new(7, prev_vrps);
        let next = VrpPayload::new(8, next_vrps);
        let mut applier = SlurmApplier::new(ex.clone());
        applier.ingest(&PayloadUpdate::snapshot(prev.clone()));
        let out = applier
            .ingest(&PayloadUpdate::from_previous(&prev, next))
            .expect("epoch 8 advances")
            .update;
        let delta = out.delta.expect("delta preserved through ingest");
        let chained = ex
            .excepted(&prev)
            .apply(&delta)
            .expect("excepted delta chains");
        prop_assert_eq!(chained, out.payload);
    }
}
