//! The incremental engine's central property: replaying a random
//! `WorldEvent` stream through `StudyEngine::apply_events` yields, at
//! every step, a `StudyResults` byte-identical to a from-scratch full
//! run against the cumulative post-churn world — and each step's
//! `EpochDelta` announce/withdraw sets are exactly the VRP set
//! difference between the epochs. The commit is copy-on-write per
//! domain: a step replaces exactly the re-measured rows, and a clone
//! taken at any earlier epoch keeps answering for that epoch.
//!
//! The cumulative world is maintained independently of the engine, by
//! applying the same typed events through the substrate copy-on-write
//! layers (`ZoneStore::apply` / `Rib::apply`) and adopting each batch's
//! repository snapshot — so a bug in the engine's own delta plumbing or
//! reverse-index invalidation cannot cancel out of the comparison.

use proptest::prelude::*;
use ripki::engine::StudyEngine;
use ripki::pipeline::PipelineConfig;
use ripki_bgp::rib::{Rib, RibDelta};
use ripki_bgp::rov::VrpTriple;
use ripki_dns::zone::{ZoneDelta, ZoneStore};
use ripki_rpki::repo::Repository;
use ripki_websim::churn::{ChurnConfig, ChurnStream, EpochChurn, WorldEvent};
use ripki_websim::{Scenario, ScenarioConfig};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The same event → substrate-delta partition the engine applies,
/// restated here so the reference world evolves through the public
/// substrate API rather than through the engine under test.
fn substrate_deltas(batch: &EpochChurn) -> (ZoneDelta, RibDelta) {
    let mut zone_delta = ZoneDelta::new();
    let mut rib_delta = RibDelta::new();
    for event in &batch.events {
        match event {
            WorldEvent::ZoneEdit { name, records } => {
                zone_delta.set_records(name.clone(), records.clone());
            }
            WorldEvent::CnameRetarget { name, target } => {
                zone_delta.set_cname(name.clone(), target.clone());
            }
            WorldEvent::RibAnnounce(entry) => rib_delta.announce(entry.clone()),
            WorldEvent::RibWithdraw { prefix, peer } => rib_delta.withdraw(*prefix, *peer),
            WorldEvent::RoaAdded { .. }
            | WorldEvent::RoaExpired { .. }
            | WorldEvent::RoaRevoked { .. }
            | WorldEvent::KeyRollover { .. } => {}
        }
    }
    (zone_delta, rib_delta)
}

proptest! {
    // Each case builds a scenario and runs `epochs` full studies for
    // the reference comparison, so keep the case count low and the
    // scale modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn incremental_replay_matches_full_rerun(
        domains in 200usize..300,
        seed in 0u64..1_000_000,
        churn_seed in 0u64..1_000_000,
        epochs in 2u64..5,
        knobs in (
            0usize..5, // zone_edits
            0usize..4, // cname_retargets
            0usize..4, // rib_announces
            0usize..3, // rib_withdrawals
            0usize..3, // roa_additions
            0usize..3, // roa_expirations
            0usize..2, // roa_revocations
            0usize..2, // key_rollovers
        ),
    ) {
        let (
            zone_edits,
            cname_retargets,
            rib_announces,
            rib_withdrawals,
            roa_additions,
            roa_expirations,
            roa_revocations,
            key_rollovers,
        ) = knobs;
        let scenario = Scenario::build(ScenarioConfig {
            seed,
            ..ScenarioConfig::with_domains(domains)
        });
        let config = PipelineConfig {
            bogus_dns_ppm: scenario.config.bogus_dns_ppm,
            now: scenario.now,
            ..Default::default()
        };
        let engine = StudyEngine::new(
            scenario.zones.clone(),
            scenario.rib.clone(),
            &scenario.repository,
            config.clone(),
        );
        let mut results = engine.run(&scenario.ranking);
        prop_assert!(results.skipped.is_empty());

        let mut stream = ChurnStream::new(&scenario, ChurnConfig {
            seed: churn_seed,
            zone_edits,
            cname_retargets,
            rib_announces,
            rib_withdrawals,
            roa_additions,
            roa_expirations,
            roa_revocations,
            key_rollovers,
        });

        // The independently maintained cumulative world.
        let mut zones = Arc::new(scenario.zones.clone());
        let mut rib = Arc::new(scenario.rib.clone());
        let mut repository = scenario.repository.clone();
        let mut total_events = 0usize;
        // A clone of every epoch's results beside its from-scratch run.
        let mut held = Vec::new();

        for step in 0..epochs {
            let batch = stream.next_epoch();
            total_events += batch.events.len();
            let before: BTreeSet<VrpTriple> =
                engine.snapshot().vrps().iter().copied().collect();
            let previous = results.clone();
            let delta = engine.apply_events(&batch, &mut results);
            let after: BTreeSet<VrpTriple> =
                engine.snapshot().vrps().iter().copied().collect();

            // A re-measured domain always gets a fresh row, even when
            // its value came out equal; every other row is still the
            // allocation the previous epoch holds.
            let shared = previous
                .domains
                .rows()
                .zip(results.domains.rows())
                .filter(|(a, b)| Arc::ptr_eq(a, b))
                .count();
            prop_assert_eq!(shared, results.domains.len() - delta.domains_remeasured);

            // Exact per-step delta: epochs advance by one, and the
            // announce/withdraw sets are the VRP set difference.
            prop_assert_eq!(delta.from_epoch, step + 1);
            prop_assert_eq!(delta.to_epoch, step + 2);
            prop_assert_eq!(results.epoch, step + 2);
            let announced: Vec<VrpTriple> = after.difference(&before).copied().collect();
            let withdrawn: Vec<VrpTriple> = before.difference(&after).copied().collect();
            prop_assert_eq!(delta.announced, announced);
            prop_assert_eq!(delta.withdrawn, withdrawn);

            // Evolve the reference world with the same events.
            let (zone_delta, rib_delta) = substrate_deltas(&batch);
            if !zone_delta.is_empty() {
                let (z, _) = ZoneStore::apply(Arc::clone(&zones), &zone_delta);
                zones = Arc::new(z);
            }
            if !rib_delta.is_empty() {
                let (r, _) = Rib::apply(Arc::clone(&rib), &rib_delta);
                rib = Arc::new(r);
            }
            if let Some(repo) = &batch.repository {
                repository = Repository::clone(repo);
            }

            // From-scratch run over the cumulative world.
            let fresh = StudyEngine::from_shared(
                Arc::clone(&zones),
                Arc::clone(&rib),
                &repository,
                PipelineConfig { now: batch.now, ..config.clone() },
            )
            .run(&scenario.ranking);
            prop_assert!(fresh.skipped.is_empty());
            prop_assert_eq!(results.vrp_count, fresh.vrp_count);
            prop_assert_eq!(results.rpki_rejected, fresh.rpki_rejected);
            let incremental_bytes = serde_json::to_string(&results.domains)
                .expect("serialize incremental results");
            let fresh_bytes = serde_json::to_string(&fresh.domains)
                .expect("serialize fresh results");
            prop_assert_eq!(incremental_bytes, fresh_bytes, "diverged at step {}", step);

            // Snapshot isolation: a clone never sees a later patch, so
            // every one taken so far (up to three epochs back) still
            // equals the from-scratch run of its own epoch.
            held.push((results.clone(), fresh));
            for (clone, reference) in &held {
                prop_assert!(
                    clone.domains == reference.domains,
                    "the clone of epoch {} changed by step {}",
                    clone.epoch,
                    step
                );
            }
        }

        // Guard against a vacuous pass: zone edits and RIB announces
        // are unconditional generators, so asking for them must yield
        // a non-empty stream.
        if zone_edits + rib_announces > 0 {
            prop_assert!(total_events > 0, "churn stream generated no events");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A stream without zone events moves only the RIB and the VRP set:
    /// no re-measured domain resolves again, and every step still lands
    /// byte-identical to a from-scratch run over the cumulative world.
    #[test]
    fn route_only_replay_resolves_nothing(
        domains in 200usize..300,
        seed in 0u64..1_000_000,
        churn_seed in 0u64..1_000_000,
        epochs in 2u64..5,
        knobs in (
            1usize..4, // rib_announces
            0usize..3, // rib_withdrawals
            0usize..3, // roa_additions
            0usize..3, // roa_expirations
            0usize..2, // roa_revocations
            0usize..2, // key_rollovers
        ),
    ) {
        let (
            rib_announces,
            rib_withdrawals,
            roa_additions,
            roa_expirations,
            roa_revocations,
            key_rollovers,
        ) = knobs;
        let scenario = Scenario::build(ScenarioConfig {
            seed,
            ..ScenarioConfig::with_domains(domains)
        });
        let config = PipelineConfig {
            bogus_dns_ppm: scenario.config.bogus_dns_ppm,
            now: scenario.now,
            ..Default::default()
        };
        let engine = StudyEngine::new(
            scenario.zones.clone(),
            scenario.rib.clone(),
            &scenario.repository,
            config.clone(),
        );
        let mut results = engine.run(&scenario.ranking);
        let mut stream = ChurnStream::new(&scenario, ChurnConfig {
            seed: churn_seed,
            zone_edits: 0,
            cname_retargets: 0,
            rib_announces,
            rib_withdrawals,
            roa_additions,
            roa_expirations,
            roa_revocations,
            key_rollovers,
        });

        let zones = Arc::new(scenario.zones.clone());
        let mut rib = Arc::new(scenario.rib.clone());
        let mut repository = scenario.repository.clone();
        let mut remeasured = 0;
        for step in 0..epochs {
            let batch = stream.next_epoch();
            let delta = engine.apply_events(&batch, &mut results);
            prop_assert_eq!(delta.domains_resolved, 0, "resolved at step {}", step);
            remeasured += delta.domains_remeasured;

            let (zone_delta, rib_delta) = substrate_deltas(&batch);
            prop_assert!(zone_delta.is_empty());
            if !rib_delta.is_empty() {
                let (r, _) = Rib::apply(Arc::clone(&rib), &rib_delta);
                rib = Arc::new(r);
            }
            if let Some(repo) = &batch.repository {
                repository = Repository::clone(repo);
            }
            let fresh = StudyEngine::from_shared(
                Arc::clone(&zones),
                Arc::clone(&rib),
                &repository,
                PipelineConfig { now: batch.now, ..config.clone() },
            )
            .run(&scenario.ranking);
            prop_assert_eq!(results.vrp_count, fresh.vrp_count);
            prop_assert_eq!(results.rpki_rejected, fresh.rpki_rejected);
            let incremental_bytes = serde_json::to_string(&results.domains)
                .expect("serialize incremental results");
            let fresh_bytes = serde_json::to_string(&fresh.domains)
                .expect("serialize fresh results");
            prop_assert_eq!(incremental_bytes, fresh_bytes, "diverged at step {}", step);
        }
        // Guard against a vacuous pass: announces land on hosting
        // operators' holdings, and in every generated case they reach
        // some domain.
        prop_assert!(remeasured > 0, "no domain was re-measured");
    }
}
