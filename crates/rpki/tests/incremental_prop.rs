//! The incremental validator's central property: after every step of a
//! random churn stream, [`IncrementalValidator`] agrees *exactly* with a
//! from-scratch [`validate`] pass over the same repository and clock —
//! identical VRP sets, an identical per-object event log (so every
//! verdict and rejection reason matches, not just the accept set), and
//! a per-step [`VrpDelta`] that is precisely the VRP set difference.
//!
//! The op alphabet covers all four invalidation classes the dependency
//! graph has to get right:
//! * ROA/certificate expiry — `AdvanceTime` moves only the validation
//!   clock, without a fresh snapshot, so reuse must be refused purely by
//!   each cached point's validity era;
//! * CRL revocation — `RevokeRoa` dirties the CRL and must drag the
//!   revoked EE's *siblings* through revalidation with it;
//! * manifest replacement — `Republish` re-signs an unchanged point;
//! * key rollover — `Rollover` replaces a CA's key, killing the old
//!   subtree and re-issuing every ROA under the new one.
//!
//! A fifth class is not the issuer's doing at all: `Tamper` damages a
//! copy of the repository the validator has *already validated* (the
//! [`faults`] mutators — a corrupted store, a withholding or complicit
//! authority) and applies it to the same validator. What the validator
//! remembers about the undamaged objects must not leak into its verdict
//! on the damaged ones; afterwards the CA republishes, none the wiser,
//! and the validator must recover just as exactly.

use proptest::prelude::*;
use ripki_crypto::keystore::{KeyId, Keypair};
use ripki_net::{Asn, IpPrefix};
use ripki_rpki::faults;
use ripki_rpki::repo::{Repository, RepositoryBuilder};
use ripki_rpki::resources::Resources;
use ripki_rpki::roa::RoaPrefix;
use ripki_rpki::time::{Duration, SimTime};
use ripki_rpki::validate::{validate, Vrp};
use ripki_rpki::IncrementalValidator;
use std::collections::BTreeSet;

const TAS: usize = 2;
const CAS_PER_TA: usize = 2;
const INITIAL_ROAS_PER_CA: usize = 2;

#[derive(Debug, Clone)]
enum Op {
    /// Publish a fresh ROA under CA `ca` (fresh /24, fresh ASN).
    AddRoa { ca: usize },
    /// Withdraw CA `ca`'s oldest published ROA, if any.
    RemoveRoa { ca: usize },
    /// Revoke CA `ca`'s oldest ROA's EE certificate in its CRL.
    RevokeRoa { ca: usize },
    /// Re-sign CA `ca`'s CRL and manifest without changing content.
    Republish { ca: usize },
    /// Roll CA `ca`'s key, revoking the old certificate and re-issuing
    /// its ROAs under the new key.
    Rollover { ca: usize },
    /// Advance the validation clock without republishing anything.
    /// Large enough advances cross the 20-day certificate / 7-day CRL
    /// validity edges and force era-driven revalidation.
    AdvanceTime { hours: u64 },
    /// Damage CA `ca`'s publication point in a copy of the repository
    /// the validator last saw, then have the CA republish.
    Tamper { ca: usize, fault: Fault },
}

/// One way of damaging a publication point behind the issuer's back.
#[derive(Debug, Clone, Copy)]
enum Fault {
    CorruptRoaSignatures,
    StaleCrl,
    WithholdRoa,
    SubstituteRoaAsn,
    /// A manifest entry nobody signed for: the signature breaks.
    GhostManifestEntry,
    /// The same, re-signed by a complicit CA: validly signed, inconsistent.
    GhostManifestEntryResigned,
    /// A complicit CA re-signs its unchanged manifest out of schedule.
    ResignManifest,
    Unpublish,
}

const FAULTS: [Fault; 8] = [
    Fault::CorruptRoaSignatures,
    Fault::StaleCrl,
    Fault::WithholdRoa,
    Fault::SubstituteRoaAsn,
    Fault::GhostManifestEntry,
    Fault::GhostManifestEntryResigned,
    Fault::ResignManifest,
    Fault::Unpublish,
];

fn op_strategy() -> impl Strategy<Value = Op> {
    let ca = 0..TAS * CAS_PER_TA;
    prop_oneof![
        ca.clone().prop_map(|ca| Op::AddRoa { ca }),
        ca.clone().prop_map(|ca| Op::RemoveRoa { ca }),
        ca.clone().prop_map(|ca| Op::RevokeRoa { ca }),
        ca.clone().prop_map(|ca| Op::Republish { ca }),
        ca.clone().prop_map(|ca| Op::Rollover { ca }),
        (1u64..1000).prop_map(|hours| Op::AdvanceTime { hours }),
        (ca, 0..FAULTS.len()).prop_map(|(ca, k)| Op::Tamper {
            ca,
            fault: FAULTS[k]
        }),
    ]
}

/// The world under churn: the issuing builder and what it last
/// published, the CA handle table (rollover replaces ids and bumps the
/// key generation), the validation clock, and a monotonically increasing
/// counter minting fresh /24s.
struct World {
    seed: u64,
    builder: RepositoryBuilder,
    published: Repository,
    cas: Vec<Ca>,
    now: SimTime,
    next_roa: usize,
}

#[derive(Debug, Clone, Copy)]
struct Ca {
    t: usize,
    c: usize,
    id: KeyId,
    generation: u32,
}

impl World {
    fn build(seed: u64) -> World {
        let start = SimTime::EPOCH;
        let mut builder = RepositoryBuilder::new(seed, start)
            .cert_validity(Duration::days(20))
            .crl_validity(Duration::days(7));
        let mut cas = Vec::new();
        let mut next_roa = 0;
        for t in 0..TAS {
            let ta = builder
                .add_trust_anchor(&format!("TA-{t}"), Resources::from_prefixes([block(t, 8)]));
            for c in 0..CAS_PER_TA {
                let ca = builder
                    .add_ca(
                        ta,
                        &format!("CA-{t}-{c}"),
                        Resources::from_prefixes([format!("{}.{c}.0.0/16", 10 + t)
                            .parse::<IpPrefix>()
                            .unwrap()]),
                    )
                    .expect("CA resources within TA");
                for _ in 0..INITIAL_ROAS_PER_CA {
                    add_fresh_roa(&mut builder, ca, t, c, &mut next_roa);
                }
                cas.push(Ca {
                    t,
                    c,
                    id: ca,
                    generation: 0,
                });
            }
        }
        let published = builder.snapshot();
        World {
            seed,
            builder,
            published,
            cas,
            now: start + Duration::hours(1),
            next_roa,
        }
    }

    /// Apply one op and return every repository state a relying party
    /// gets to see because of it, in order. Issuer-side ops publish one
    /// new snapshot; a pure clock advance shows the last one again (the
    /// expiry-sweep path); tampering shows a damaged copy of the last
    /// one and then the CA's next, clean publication.
    fn step(&mut self, op: &Op) -> Vec<Repository> {
        let slot = |ca: usize| ca % self.cas.len();
        match *op {
            Op::AddRoa { ca } => {
                let Ca { t, c, id, .. } = self.cas[slot(ca)];
                add_fresh_roa(&mut self.builder, id, t, c, &mut self.next_roa);
            }
            Op::RemoveRoa { ca } => {
                let id = self.cas[slot(ca)].id;
                if let Some(serial) = self.oldest_roa(id) {
                    self.builder.remove_roa(id, serial).expect("CA exists");
                }
            }
            Op::RevokeRoa { ca } => {
                let id = self.cas[slot(ca)].id;
                if let Some(serial) = self.oldest_roa(id) {
                    self.builder.revoke(id, serial).expect("CA exists");
                }
            }
            Op::Republish { ca } => {
                let id = self.cas[slot(ca)].id;
                self.builder.republish(id).expect("CA exists");
            }
            Op::Rollover { ca } => {
                let slot = slot(ca);
                let id = self.cas[slot].id;
                self.cas[slot].id = self.builder.rollover_key(id).expect("leaf CA rolls over");
                self.cas[slot].generation += 1;
            }
            Op::AdvanceTime { hours } => {
                self.now = self.now + Duration::hours(hours);
                self.builder.set_now(self.now);
                return vec![self.published.clone()];
            }
            Op::Tamper { ca, fault } => {
                let ca = self.cas[slot(ca)];
                let mut damaged = self.published.clone();
                self.damage(&mut damaged, ca, fault);
                self.builder.republish(ca.id).expect("CA exists");
                self.published = self.builder.snapshot();
                return vec![damaged, self.published.clone()];
            }
        }
        self.published = self.builder.snapshot();
        vec![self.published.clone()]
    }

    fn damage(&self, repo: &mut Repository, ca: Ca, fault: Fault) {
        let resign = |repo: &mut Repository| {
            let mut label = format!("ca/CA-{}-{}", ca.t, ca.c);
            if ca.generation > 0 {
                label.push_str(&format!("#gen{}", ca.generation));
            }
            let keys = Keypair::derive(self.seed, &label);
            assert_eq!(keys.key_id, ca.id, "the test re-derives the CA's key");
            faults::resign_manifest(repo, ca.id, &keys.secret);
        };
        match fault {
            Fault::CorruptRoaSignatures => {
                faults::corrupt_roa_signatures(repo, ca.id);
            }
            Fault::StaleCrl => {
                faults::stale_crl(repo, ca.id);
            }
            Fault::WithholdRoa => {
                faults::withhold_roa(repo, ca.id, 0);
            }
            Fault::SubstituteRoaAsn => {
                faults::substitute_roa_asn(repo, ca.id, 666);
            }
            Fault::GhostManifestEntry => {
                faults::ghost_manifest_entry(repo, ca.id);
            }
            Fault::GhostManifestEntryResigned => {
                faults::ghost_manifest_entry(repo, ca.id);
                resign(repo);
            }
            Fault::ResignManifest => resign(repo),
            Fault::Unpublish => {
                faults::unpublish(repo, ca.id);
            }
        }
    }

    fn oldest_roa(&self, ca: KeyId) -> Option<u64> {
        self.builder
            .list_roas()
            .into_iter()
            .find(|(owner, _, _)| *owner == ca)
            .map(|(_, serial, _)| serial)
    }
}

fn block(t: usize, len: u8) -> IpPrefix {
    format!("{}.0.0.0/{len}", 10 + t).parse().unwrap()
}

fn add_fresh_roa(
    builder: &mut RepositoryBuilder,
    ca: KeyId,
    t: usize,
    c: usize,
    next_roa: &mut usize,
) {
    let third = *next_roa % 256;
    *next_roa += 1;
    let prefix: IpPrefix = format!("{}.{c}.{third}.0/24", 10 + t).parse().unwrap();
    builder
        .add_roa(
            ca,
            Asn::new((64500 + *next_roa) as u32),
            vec![RoaPrefix::exact(prefix)],
        )
        .expect("ROA within CA resources");
}

/// One step's worth of assertions: the incremental validator and a
/// fresh full pass agree exactly, and the delta is the set difference.
fn check_step(
    inc: &mut IncrementalValidator,
    repo: &Repository,
    now: SimTime,
    prev: &BTreeSet<Vrp>,
) -> BTreeSet<Vrp> {
    let delta = inc.apply(repo, now);
    let current: BTreeSet<Vrp> = inc.vrps().into_iter().collect();

    // Delta ≡ set difference, with no overlap or phantom entries.
    let announced: BTreeSet<Vrp> = delta.announced.iter().copied().collect();
    let withdrawn: BTreeSet<Vrp> = delta.withdrawn.iter().copied().collect();
    prop_assert_eq!(
        &announced,
        &current.difference(prev).copied().collect::<BTreeSet<_>>(),
        "announced is not the set difference"
    );
    prop_assert_eq!(
        &withdrawn,
        &prev.difference(&current).copied().collect::<BTreeSet<_>>(),
        "withdrawn is not the set difference"
    );

    // Full agreement: VRPs, the entire event log, and the reject count.
    let full = validate(repo, now);
    let replay = inc.report();
    prop_assert_eq!(&replay.vrps, &full.vrps, "VRP exports diverge");
    prop_assert_eq!(&replay.log, &full.log, "event logs diverge");
    prop_assert_eq!(inc.rejected_count(), full.rejected_count());
    prop_assert_eq!(
        current.iter().copied().collect::<Vec<_>>(),
        full.vrps.clone(),
        "validator VRP multiset view diverges from the full pass"
    );
    current
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_validation_equals_full_validation(
        seed in 0u64..1_000_000,
        ops in prop::collection::vec(op_strategy(), 1..12),
    ) {
        let mut world = World::build(seed);
        let mut inc = IncrementalValidator::default();
        let mut prev = check_step(&mut inc, &world.published, world.now, &BTreeSet::new());

        for op in &ops {
            for repo in world.step(op) {
                prev = check_step(&mut inc, &repo, world.now, &prev);
            }
        }
    }

    /// Parallel ≡ serial: the same churn stream applied at 1 thread and
    /// at 4 threads produces byte-identical results at every step — the
    /// full [`VrpDelta`] (announce/withdraw sets *and* work stats), the
    /// maintained event log, and the VRP view. The commit stage folds
    /// execute outcomes in plan order, so thread count must only ever
    /// change wall-clock time.
    #[test]
    fn parallel_apply_equals_serial_apply(
        seed in 0u64..1_000_000,
        ops in prop::collection::vec(op_strategy(), 1..12),
    ) {
        let mut world = World::build(seed);
        let mut serial = IncrementalValidator::default();
        serial.set_worker_threads(1);
        let mut parallel = IncrementalValidator::default();
        parallel.set_worker_threads(4);

        let mut step = 0usize;
        let mut check = |repo: &Repository, now| {
            let serial_delta = serial.apply(repo, now);
            let parallel_delta = parallel.apply(repo, now);
            prop_assert_eq!(&serial_delta, &parallel_delta, "VrpDelta diverges at step {}", step);
            let serial_report = serial.report();
            let parallel_report = parallel.report();
            prop_assert_eq!(&serial_report.vrps, &parallel_report.vrps, "VRPs diverge at step {}", step);
            prop_assert_eq!(&serial_report.log, &parallel_report.log, "event logs diverge at step {}", step);
            prop_assert_eq!(serial.rejected_count(), parallel.rejected_count());
            step += 1;
        };
        check(&world.published, world.now);
        for op in &ops {
            for repo in world.step(op) {
                check(&repo, world.now);
            }
        }
    }
}

/// Deterministic companion: one stream exercising every invalidation
/// class in sequence, so coverage of all four hard cases does not
/// depend on what the random sampler happens to draw.
#[test]
fn all_four_invalidation_classes_in_one_stream() {
    let mut world = World::build(7);
    let mut inc = IncrementalValidator::default();
    let mut prev = check_step(&mut inc, &world.published, world.now, &BTreeSet::new());

    let script = [
        Op::RevokeRoa { ca: 0 },            // CRL revocation
        Op::Republish { ca: 1 },            // manifest replacement
        Op::Rollover { ca: 2 },             // key rollover
        Op::AdvanceTime { hours: 24 * 8 },  // CRLs go stale (7-day span)
        Op::AdvanceTime { hours: 24 * 30 }, // every certificate expires
        // Recovery: rolling CA 3's key reissues its certificate and
        // both of its ROAs at the advanced clock, and a fresh ROA rides
        // along. Every other CA certificate stays expired.
        Op::Rollover { ca: 3 },
        Op::AddRoa { ca: 3 },
    ];
    for op in &script {
        for repo in world.step(op) {
            prev = check_step(&mut inc, &repo, world.now, &prev);
        }
    }
    assert_eq!(
        prev.len(),
        INITIAL_ROAS_PER_CA + 1,
        "exactly the reissued CA's ROAs survive total expiry: {prev:?}"
    );
}

/// Deterministic companion for the fifth class: every fault, applied
/// behind the back of one validator that has seen the clean repository,
/// then republished away — at a CA that has also rolled its key, so the
/// re-signing faults meet a second key generation.
#[test]
fn every_fault_after_a_clean_pass_in_one_stream() {
    let mut world = World::build(11);
    let mut inc = IncrementalValidator::default();
    let mut prev = check_step(&mut inc, &world.published, world.now, &BTreeSet::new());
    let all = prev.len();

    let mut script = vec![Op::Rollover { ca: 1 }];
    for (k, fault) in FAULTS.into_iter().enumerate() {
        script.push(Op::Tamper { ca: k % 2, fault });
    }
    for op in &script {
        let seen = world.step(op);
        for repo in &seen {
            prev = check_step(&mut inc, repo, world.now, &prev);
        }
        assert_eq!(prev.len(), all, "republication restores every VRP");
    }
}

/// The minimal regression: a validator that has validated a repository
/// must not keep serving the VRP of a ROA whose ASN is then rewritten
/// in the store. (A validator that detects change by serials and
/// signatures reuses both points here and keeps the stale VRPs.)
#[test]
fn substituted_roa_after_a_clean_pass_withdraws_its_vrps() {
    let world = World::build(7);
    let mut inc = IncrementalValidator::default();
    inc.apply(&world.published, world.now);
    let victim = world.cas[0].id;
    let held: Vec<Vrp> = inc.vrps();

    let mut damaged = world.published.clone();
    assert_eq!(
        faults::substitute_roa_asn(&mut damaged, victim, 666),
        INITIAL_ROAS_PER_CA
    );
    let delta = inc.apply(&damaged, world.now);
    assert_eq!(delta.stats.points_revalidated, 1);
    assert_eq!(delta.withdrawn.len(), INITIAL_ROAS_PER_CA);
    assert!(delta.announced.is_empty());
    let full = validate(&damaged, world.now);
    assert_eq!(inc.vrps(), full.vrps);
    assert_eq!(inc.report().log, full.log);

    // The copy was damaged, not the original: going back restores it.
    let delta = inc.apply(&world.published, world.now);
    assert_eq!(delta.announced.len(), INITIAL_ROAS_PER_CA);
    assert_eq!(inc.vrps(), held);
}
