//! World-event churn streams: how the ecosystem evolves between epochs.
//!
//! The paper measures a single instant, but its argument (§2.3, §4) is
//! longitudinal: ROAs appear, expire, and get revoked; routes flap and
//! get hijacked; CDN CNAME graphs churn. [`ChurnStream`] turns a built
//! [`Scenario`] into a deterministic sequence of [`EpochChurn`] batches
//! of typed [`WorldEvent`]s, which the incremental study engine applies
//! as copy-on-write deltas.
//!
//! RPKI events are produced by *replaying* the scenario's issuing
//! program ([`Scenario::issuing_builder`]) and then evolving the still
//! open builder, so each epoch's repository snapshot is exactly what the
//! scenario's CAs would publish after that evolution — signatures,
//! CRLs, and manifest numbers included.
//!
//! The stream keeps the simulated clock fixed at the scenario's `now`:
//! "expiry" is modelled as the CA unpublishing the ROA (the relying
//! party's view is identical), which keeps every already-issued
//! certificate inside its validity window.

use crate::adoption::PrefixHolding;
use crate::operators::Operator;
use crate::scenario::{Scenario, COLLECTOR_PEERS, TRANSIT_POOL};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ripki_bgp::path::AsPath;
use ripki_bgp::rib::RibEntry;
use ripki_crypto::keystore::KeyId;
use ripki_dns::vantage::Vantage;
use ripki_dns::{DomainName, RecordData};
use ripki_net::{Asn, IpPrefix};
use ripki_rpki::repo::{Repository, RepositoryBuilder};
use ripki_rpki::resources::Resources;
use ripki_rpki::roa::RoaPrefix;
use ripki_rpki::time::SimTime;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One typed change to the world between two epochs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorldEvent {
    /// A zone operator replaces the base record set of a name
    /// (re-hosting, renumbering).
    ZoneEdit {
        /// The owner name whose records change.
        name: DomainName,
        /// The replacement record set.
        records: Vec<RecordData>,
    },
    /// A CNAME owner points at a different canonical tail (CDN switch).
    CnameRetarget {
        /// The aliased owner name.
        name: DomainName,
        /// The new canonical target.
        target: DomainName,
    },
    /// A collector peer reports a new route (traffic engineering
    /// more-specific, new transit, or a hijack).
    RibAnnounce(RibEntry),
    /// One peer's route for a prefix disappears.
    RibWithdraw {
        /// The withdrawn prefix.
        prefix: IpPrefix,
        /// The peer that lost the route.
        peer: Asn,
    },
    /// A CA published a new ROA authorizing `asn` for `prefix`.
    RoaAdded {
        /// The authorized prefix.
        prefix: IpPrefix,
        /// The authorized origin.
        asn: Asn,
    },
    /// A ROA left publication (modelling expiry / cleanup).
    RoaExpired {
        /// The formerly authorized prefix.
        prefix: IpPrefix,
        /// The formerly authorized origin.
        asn: Asn,
    },
    /// A ROA's EE certificate landed on its CA's CRL.
    RoaRevoked {
        /// The prefix of the revoked authorization.
        prefix: IpPrefix,
        /// The origin of the revoked authorization.
        asn: Asn,
    },
    /// A leaf CA rolled its key (old cert revoked, ROAs re-signed).
    KeyRollover {
        /// Name of the CA that rolled its key.
        ca: String,
    },
}

/// Everything that happened in one epoch: the event list plus, when any
/// RPKI event fired, the repository snapshot the CAs published.
#[derive(Debug, Clone)]
pub struct EpochChurn {
    /// The epoch's events, in application order.
    pub events: Vec<WorldEvent>,
    /// `Some` iff the epoch contained RPKI events; the engine re-runs
    /// relying-party validation against it. Shared (`Arc`) because the
    /// consuming engine keeps the last repository alive for incremental
    /// expiry sweeps, and a 20k-object repository is expensive to clone.
    pub repository: Option<Arc<Repository>>,
    /// The measurement instant of the epoch.
    pub now: SimTime,
}

impl EpochChurn {
    /// Whether the epoch carries no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Per-epoch event counts (each is "how many of this kind per epoch").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnConfig {
    /// Stream seed; with the scenario seed, fully determines the stream.
    pub seed: u64,
    /// Base record-set replacements.
    pub zone_edits: usize,
    /// CNAME tail switches.
    pub cname_retargets: usize,
    /// New collector-peer routes.
    pub rib_announces: usize,
    /// Routes disappearing from one peer.
    pub rib_withdrawals: usize,
    /// Newly published ROAs.
    pub roa_additions: usize,
    /// ROAs leaving publication by expiry.
    pub roa_expirations: usize,
    /// ROAs revoked via their CA's CRL.
    pub roa_revocations: usize,
    /// Leaf-CA key rollovers.
    pub key_rollovers: usize,
}

impl Default for ChurnConfig {
    fn default() -> ChurnConfig {
        ChurnConfig {
            seed: 0xc0_ffee,
            zone_edits: 3,
            cname_retargets: 2,
            rib_announces: 2,
            rib_withdrawals: 1,
            roa_additions: 1,
            roa_expirations: 1,
            roa_revocations: 0,
            key_rollovers: 0,
        }
    }
}

/// A deterministic generator of [`EpochChurn`] batches over one scenario.
///
/// Owns copies of everything it samples from, so it outlives the
/// snapshots the engine swaps in.
pub struct ChurnStream {
    cfg: ChurnConfig,
    scenario_seed: u64,
    now: SimTime,
    /// The replayed issuing side of the scenario's RPKI (kept open).
    builder: RepositoryBuilder,
    ranking: Vec<DomainName>,
    operators: Vec<Operator>,
    holdings: Vec<PrefixHolding>,
    /// Ranked names currently CNAME-delegated, with their current target.
    cname_owners: Vec<(DomainName, DomainName)>,
    /// Distinct first-hop CNAME targets seen in the original zones.
    target_pool: Vec<DomainName>,
    /// `(prefix, peer)` routes believed live (kept in sync with emitted
    /// announce/withdraw events).
    live_routes: Vec<(IpPrefix, Asn)>,
    /// Holding indices not yet covered by a churn-added ROA.
    roa_addition_candidates: Vec<usize>,
    /// CAs created by churn (per operator index), so repeated additions
    /// from one operator share a CA.
    churn_cas: Vec<(usize, KeyId)>,
    /// EE serials already revoked (never revoke twice).
    revoked: BTreeSet<u64>,
    epoch_index: u64,
}

impl ChurnStream {
    /// A stream over `scenario` with the given per-epoch counts.
    pub fn new(scenario: &Scenario, cfg: ChurnConfig) -> ChurnStream {
        let (builder, summary) = scenario.issuing_builder();

        let mut cname_owners = Vec::new();
        let mut target_pool: Vec<DomainName> = Vec::new();
        let mut seen = BTreeSet::new();
        for listed in &scenario.ranking {
            let bare = listed.without_www();
            for name in [bare.clone(), bare.with_www()] {
                let Some(records) = scenario.zones.lookup(&name, Vantage::GOOGLE_DNS_BERLIN) else {
                    continue;
                };
                if let Some(target) = records.iter().find_map(RecordData::cname) {
                    cname_owners.push((name, target.clone()));
                    if seen.insert(target.clone()) {
                        target_pool.push(target.clone());
                    }
                }
            }
        }

        let mut live_routes: Vec<(IpPrefix, Asn)> = Vec::new();
        let mut seen_routes = BTreeSet::new();
        for entry in scenario.rib.iter() {
            if seen_routes.insert((entry.prefix, entry.peer)) {
                live_routes.push((entry.prefix, entry.peer));
            }
        }

        // Operators that stayed out of the RPKI can adopt during churn.
        let roa_addition_candidates: Vec<usize> = scenario
            .holdings
            .iter()
            .enumerate()
            .filter(|(_, h)| !summary.adopters.contains(&h.operator))
            .map(|(i, _)| i)
            .collect();

        ChurnStream {
            cfg,
            scenario_seed: scenario.config.seed,
            now: scenario.now,
            builder,
            ranking: scenario.ranking.clone(),
            operators: scenario.operators.clone(),
            holdings: scenario.holdings.clone(),
            cname_owners,
            target_pool,
            live_routes,
            roa_addition_candidates,
            churn_cas: Vec::new(),
            revoked: BTreeSet::new(),
            epoch_index: 0,
        }
    }

    /// Generate the next epoch's churn batch. Deterministic: the same
    /// scenario and config yield the same sequence of batches.
    pub fn next_epoch(&mut self) -> EpochChurn {
        self.epoch_index += 1;
        let mut rng = StdRng::seed_from_u64(
            self.cfg.seed
                ^ self.scenario_seed.rotate_left(31)
                ^ self.epoch_index.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let mut events = Vec::new();
        let mut rpki_dirty = false;

        self.gen_zone_edits(&mut rng, &mut events);
        self.gen_cname_retargets(&mut rng, &mut events);
        self.gen_rib_announces(&mut rng, &mut events);
        self.gen_rib_withdrawals(&mut rng, &mut events);
        rpki_dirty |= self.gen_roa_additions(&mut rng, &mut events);
        rpki_dirty |= self.gen_roa_expirations(&mut rng, &mut events);
        rpki_dirty |= self.gen_roa_revocations(&mut rng, &mut events);
        rpki_dirty |= self.gen_key_rollovers(&mut rng, &mut events);

        let repository = rpki_dirty.then(|| Arc::new(self.builder.snapshot()));
        EpochChurn {
            events,
            repository,
            now: self.now,
        }
    }

    /// A deterministic host address inside one of the scenario's v4
    /// holdings (never the network address).
    fn random_holding_addr(&self, rng: &mut StdRng) -> Option<std::net::IpAddr> {
        let v4: Vec<&PrefixHolding> = self
            .holdings
            .iter()
            .filter(|h| h.prefix.as_v4().is_some())
            .collect();
        if v4.is_empty() {
            return None;
        }
        let h = v4[rng.gen_range(0..v4.len())];
        let p = h.prefix.as_v4().expect("filtered to v4");
        let size = 1u64 << (32 - p.len() as u64);
        let offset = 1 + (rng.gen::<u64>() % (size - 1)) as u32;
        Some(std::net::IpAddr::V4(std::net::Ipv4Addr::from(
            p.raw_bits() | offset,
        )))
    }

    fn gen_zone_edits(&mut self, rng: &mut StdRng, events: &mut Vec<WorldEvent>) {
        for _ in 0..self.cfg.zone_edits {
            if self.ranking.is_empty() {
                return;
            }
            let Some(addr) = self.random_holding_addr(rng) else {
                return;
            };
            let rank = rng.gen_range(0..self.ranking.len());
            let name = self.ranking[rank].without_www();
            events.push(WorldEvent::ZoneEdit {
                name,
                records: vec![RecordData::from_addr(addr)],
            });
        }
    }

    fn gen_cname_retargets(&mut self, rng: &mut StdRng, events: &mut Vec<WorldEvent>) {
        for _ in 0..self.cfg.cname_retargets {
            if self.cname_owners.is_empty() || self.target_pool.len() < 2 {
                return;
            }
            let i = rng.gen_range(0..self.cname_owners.len());
            let current = self.cname_owners[i].1.clone();
            // Bounded retry keeps determinism even if the draw repeats.
            let mut target = None;
            for _ in 0..8 {
                let cand = &self.target_pool[rng.gen_range(0..self.target_pool.len())];
                if *cand != current && *cand != self.cname_owners[i].0 {
                    target = Some(cand.clone());
                    break;
                }
            }
            let Some(target) = target else { continue };
            self.cname_owners[i].1 = target.clone();
            events.push(WorldEvent::CnameRetarget {
                name: self.cname_owners[i].0.clone(),
                target,
            });
        }
    }

    fn gen_rib_announces(&mut self, rng: &mut StdRng, events: &mut Vec<WorldEvent>) {
        for _ in 0..self.cfg.rib_announces {
            if self.holdings.is_empty() {
                return;
            }
            let h = self.holdings[rng.gen_range(0..self.holdings.len())];
            // Half traffic engineering (true origin via a new transit),
            // half origin hijack from an unassigned ASN.
            let hijack = rng.gen_bool(0.5);
            let origin = if hijack {
                Asn::new(h.asn.value().wrapping_add(1_000_000))
            } else {
                h.asn
            };
            let transit = TRANSIT_POOL
                [(origin.value() as usize ^ self.epoch_index as usize) % TRANSIT_POOL.len()];
            let peer = Asn::new(COLLECTOR_PEERS[rng.gen_range(0..COLLECTOR_PEERS.len())]);
            let entry = RibEntry {
                prefix: h.prefix,
                path: AsPath::sequence([transit, origin.value()]),
                peer,
            };
            self.live_routes.push((h.prefix, peer));
            events.push(WorldEvent::RibAnnounce(entry));
        }
    }

    fn gen_rib_withdrawals(&mut self, rng: &mut StdRng, events: &mut Vec<WorldEvent>) {
        for _ in 0..self.cfg.rib_withdrawals {
            if self.live_routes.is_empty() {
                return;
            }
            let i = rng.gen_range(0..self.live_routes.len());
            let (prefix, peer) = self.live_routes.swap_remove(i);
            events.push(WorldEvent::RibWithdraw { prefix, peer });
        }
    }

    fn gen_roa_additions(&mut self, rng: &mut StdRng, events: &mut Vec<WorldEvent>) -> bool {
        let mut dirty = false;
        for _ in 0..self.cfg.roa_additions {
            if self.roa_addition_candidates.is_empty() {
                break;
            }
            let slot = rng.gen_range(0..self.roa_addition_candidates.len());
            let holding_idx = self.roa_addition_candidates.swap_remove(slot);
            let h = self.holdings[holding_idx];
            let op = &self.operators[h.operator];
            let ca = match self.churn_cas.iter().find(|(o, _)| *o == h.operator) {
                Some((_, ca)) => *ca,
                None => {
                    let ta = self
                        .builder
                        .find_ca(crate::allocation::RIR_NAMES[op.rir])
                        .expect("scenario builder created all five TAs");
                    let resources = Resources::from_prefixes(
                        self.holdings
                            .iter()
                            .filter(|x| x.operator == h.operator)
                            .map(|x| x.prefix),
                    );
                    let ca = self
                        .builder
                        .add_ca(ta, &format!("{}-late-{}", op.name, h.operator), resources)
                        .expect("operator holdings are within the RIR's space");
                    self.churn_cas.push((h.operator, ca));
                    ca
                }
            };
            self.builder
                .add_roa(
                    ca,
                    h.asn,
                    vec![RoaPrefix::up_to(h.prefix, h.deepest_announced)],
                )
                .expect("holding within the CA's resources");
            events.push(WorldEvent::RoaAdded {
                prefix: h.prefix,
                asn: h.asn,
            });
            dirty = true;
        }
        dirty
    }

    fn gen_roa_expirations(&mut self, rng: &mut StdRng, events: &mut Vec<WorldEvent>) -> bool {
        let mut dirty = false;
        for _ in 0..self.cfg.roa_expirations {
            let roas = self.builder.list_roas();
            if roas.is_empty() {
                break;
            }
            let (ca, ee_serial, asn) = roas[rng.gen_range(0..roas.len())];
            let prefixes = self.builder.roa_prefixes(ca, ee_serial).unwrap_or_default();
            if self.builder.remove_roa(ca, ee_serial).unwrap_or(false) {
                for rp in prefixes {
                    events.push(WorldEvent::RoaExpired {
                        prefix: rp.prefix,
                        asn,
                    });
                }
                dirty = true;
            }
        }
        dirty
    }

    fn gen_roa_revocations(&mut self, rng: &mut StdRng, events: &mut Vec<WorldEvent>) -> bool {
        let mut dirty = false;
        for _ in 0..self.cfg.roa_revocations {
            let candidates: Vec<(KeyId, u64, Asn)> = self
                .builder
                .list_roas()
                .into_iter()
                .filter(|(_, ee, _)| !self.revoked.contains(ee))
                .collect();
            if candidates.is_empty() {
                break;
            }
            let (ca, ee_serial, asn) = candidates[rng.gen_range(0..candidates.len())];
            let prefixes = self.builder.roa_prefixes(ca, ee_serial).unwrap_or_default();
            if self.builder.revoke(ca, ee_serial).is_ok() {
                self.revoked.insert(ee_serial);
                for rp in prefixes {
                    events.push(WorldEvent::RoaRevoked {
                        prefix: rp.prefix,
                        asn,
                    });
                }
                dirty = true;
            }
        }
        dirty
    }

    fn gen_key_rollovers(&mut self, rng: &mut StdRng, events: &mut Vec<WorldEvent>) -> bool {
        let mut dirty = false;
        for _ in 0..self.cfg.key_rollovers {
            let candidates = self.builder.rollover_candidates();
            if candidates.is_empty() {
                break;
            }
            let ca = candidates[rng.gen_range(0..candidates.len())];
            let name = self.builder.ca_name(ca).unwrap_or_default().to_string();
            if self.builder.rollover_key(ca).is_ok() {
                events.push(WorldEvent::KeyRollover { ca: name });
                dirty = true;
            }
        }
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioConfig};

    fn small_scenario() -> Scenario {
        Scenario::build(ScenarioConfig {
            domains: 60,
            seed: 11,
            ..Default::default()
        })
    }

    #[test]
    fn streams_are_deterministic() {
        let scenario = small_scenario();
        let cfg = ChurnConfig {
            roa_revocations: 1,
            key_rollovers: 1,
            ..Default::default()
        };
        let mut a = ChurnStream::new(&scenario, cfg);
        let mut b = ChurnStream::new(&scenario, cfg);
        for _ in 0..5 {
            let ea = a.next_epoch();
            let eb = b.next_epoch();
            assert_eq!(ea.events, eb.events);
            assert_eq!(ea.repository.is_some(), eb.repository.is_some());
            if let (Some(ra), Some(rb)) = (&ea.repository, &eb.repository) {
                assert_eq!(ra.points.len(), rb.points.len());
            }
        }
    }

    #[test]
    fn epochs_produce_requested_event_mix() {
        let scenario = small_scenario();
        let cfg = ChurnConfig::default();
        let mut stream = ChurnStream::new(&scenario, cfg);
        let epoch = stream.next_epoch();
        let zone_edits = epoch
            .events
            .iter()
            .filter(|e| matches!(e, WorldEvent::ZoneEdit { .. }))
            .count();
        let announces = epoch
            .events
            .iter()
            .filter(|e| matches!(e, WorldEvent::RibAnnounce(_)))
            .count();
        assert_eq!(zone_edits, cfg.zone_edits);
        assert_eq!(announces, cfg.rib_announces);
        // Default config has RPKI churn, so a repository must ship.
        assert!(epoch.repository.is_some());
    }

    #[test]
    fn roa_lifecycle_events_reach_publication() {
        let scenario = small_scenario();
        let cfg = ChurnConfig {
            zone_edits: 0,
            cname_retargets: 0,
            rib_announces: 0,
            rib_withdrawals: 0,
            roa_additions: 1,
            roa_expirations: 0,
            roa_revocations: 0,
            key_rollovers: 0,
            ..Default::default()
        };
        let mut stream = ChurnStream::new(&scenario, cfg);
        let epoch = stream.next_epoch();
        let added: Vec<_> = epoch
            .events
            .iter()
            .filter_map(|e| match e {
                WorldEvent::RoaAdded { prefix, asn } => Some((*prefix, *asn)),
                _ => None,
            })
            .collect();
        assert_eq!(added.len(), 1);
        let repo = epoch.repository.expect("RPKI event must snapshot");
        let report = ripki_rpki::validate::validate(&repo, epoch.now);
        let (prefix, asn) = added[0];
        assert!(
            report
                .vrps
                .iter()
                .any(|v| v.prefix == prefix && v.asn == asn),
            "late-adopter ROA must become a VRP"
        );
    }
}
