//! Property tests for the snapshot-based study engine at websim scale:
//! shard-count invariance (a multi-threaded run must be byte-identical
//! to the serial run) and RPKI-refresh equivalence (a repository-only
//! `apply_events` batch at a later instant must match a full re-run,
//! and the emitted delta must be exactly the VRP set change).

use proptest::prelude::*;
use ripki::engine::StudyEngine;
use ripki::pipeline::PipelineConfig;
use ripki_bgp::rov::VrpTriple;
use ripki_rpki::time::Duration;
use ripki_websim::churn::EpochChurn;
use ripki_websim::{Scenario, ScenarioConfig};
use std::collections::BTreeSet;
use std::sync::Arc;

fn build_scenario(domains: usize, seed: u64) -> Scenario {
    Scenario::build(ScenarioConfig {
        seed,
        ..ScenarioConfig::with_domains(domains)
    })
}

fn engine_for(scenario: &Scenario, threads: usize) -> StudyEngine {
    StudyEngine::new(
        scenario.zones.clone(),
        scenario.rib.clone(),
        &scenario.repository,
        PipelineConfig {
            bogus_dns_ppm: scenario.config.bogus_dns_ppm,
            now: scenario.now,
            threads,
            ..Default::default()
        },
    )
}

proptest! {
    // Scenario construction dominates the cost, so run few cases at the
    // ≥1k-domain scale the acceptance criteria ask for.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A sharded multi-thread run is byte-identical (per serialized
    /// measurement) to the serial run over the same generated world.
    #[test]
    fn sharded_run_is_byte_identical_to_serial(
        domains in 1000usize..1200,
        seed in 0u64..1_000_000,
        threads in 2usize..9,
    ) {
        let scenario = build_scenario(domains, seed);
        let serial = engine_for(&scenario, 1).run(&scenario.ranking);
        let sharded = engine_for(&scenario, threads).run(&scenario.ranking);

        prop_assert!(serial.skipped.is_empty());
        prop_assert!(sharded.skipped.is_empty());
        prop_assert_eq!(serial.vrp_count, sharded.vrp_count);
        prop_assert_eq!(serial.rpki_rejected, sharded.rpki_rejected);
        prop_assert_eq!(serial.domains.len(), domains);
        let serial_bytes =
            serde_json::to_string(&serial.domains).expect("serialize serial run");
        let sharded_bytes =
            serde_json::to_string(&sharded.domains).expect("serialize sharded run");
        prop_assert_eq!(serial_bytes, sharded_bytes);
    }

    /// Re-observing the same repository at a later instant through a
    /// repository-only batch matches a full re-run from scratch at that
    /// instant, and the delta's announce/withdraw sets are exactly the
    /// VRP set difference between the epochs.
    #[test]
    fn repository_only_batch_matches_full_rerun(
        domains in 1000usize..1200,
        seed in 0u64..1_000_000,
        advance_days in 60u64..2000,
    ) {
        let scenario = build_scenario(domains, seed);
        let engine = engine_for(&scenario, 0);
        let mut results = engine.run(&scenario.ranking);
        let before: BTreeSet<VrpTriple> =
            engine.snapshot().vrps().iter().copied().collect();

        // Re-observe the same world later: some objects have expired,
        // others have become valid.
        let later = scenario.now + Duration::days(advance_days);
        let old_states: Vec<_> = results
            .domains
            .iter()
            .flat_map(|d| d.www.pairs.iter().chain(&d.bare.pairs))
            .map(|p| p.state)
            .collect();
        let batch = EpochChurn {
            events: vec![],
            repository: Some(Arc::new(scenario.repository.clone())),
            now: later,
        };
        let delta = engine.apply_events(&batch, &mut results);
        let after: BTreeSet<VrpTriple> =
            engine.snapshot().vrps().iter().copied().collect();

        // Delta is the exact set difference, in both directions.
        let announced: Vec<VrpTriple> = after.difference(&before).copied().collect();
        let withdrawn: Vec<VrpTriple> = before.difference(&after).copied().collect();
        prop_assert_eq!(delta.announced, announced);
        prop_assert_eq!(delta.withdrawn, withdrawn);
        prop_assert_eq!(delta.from_epoch, 1);
        prop_assert_eq!(delta.to_epoch, 2);

        // DNS and RIB are unchanged, so every pair keeps its (prefix,
        // origin): pairs_changed counts each flipped step-4 state twice
        // (the old triple leaves the set, the new one enters).
        let new_states: Vec<_> = results
            .domains
            .iter()
            .flat_map(|d| d.www.pairs.iter().chain(&d.bare.pairs))
            .map(|p| p.state)
            .collect();
        let flipped = old_states
            .iter()
            .zip(&new_states)
            .filter(|(a, b)| a != b)
            .count();
        prop_assert_eq!(delta.pairs_changed, 2 * flipped);

        // The patched study equals a full run from scratch at the new
        // instant.
        let fresh = StudyEngine::new(
            scenario.zones.clone(),
            scenario.rib.clone(),
            &scenario.repository,
            PipelineConfig {
                bogus_dns_ppm: scenario.config.bogus_dns_ppm,
                now: later,
                ..Default::default()
            },
        )
        .run(&scenario.ranking);
        prop_assert_eq!(results.vrp_count, fresh.vrp_count);
        prop_assert_eq!(results.rpki_rejected, fresh.rpki_rejected);
        let patched_bytes =
            serde_json::to_string(&results.domains).expect("serialize patched study");
        let fresh_bytes =
            serde_json::to_string(&fresh.domains).expect("serialize fresh run");
        prop_assert_eq!(patched_bytes, fresh_bytes);
    }
}
