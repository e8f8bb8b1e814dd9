//! The snapshot-based study engine.
//!
//! A study that borrows its substrate (`&ZoneStore`, `&Rib`) cannot be
//! shared across threads that outlive the caller, cannot swap in a
//! fresh RPKI state without rebuilding everything, and cannot hand the
//! RTR cache a live view of the validated VRPs. Hence:
//!
//! * [`WorldSnapshot`] — an immutable, `Arc`-shared view of one
//!   observation instant: zones + RIB + the validated VRP set, stamped
//!   with a monotonically increasing **epoch**. All measurement runs
//!   against a snapshot, so concurrent readers never observe a
//!   half-updated world.
//! * [`StudyEngine`] — owns the current snapshot behind an
//!   `RwLock<Arc<_>>`. Every change to the world — zone and RIB
//!   events, a re-fetched RPKI repository, a clock advance — goes
//!   through [`apply_events`](StudyEngine::apply_events): unchanged
//!   substrate is structurally shared (`Arc` clones), the origin
//!   validator's VRP set is advanced by the validator's delta, and an
//!   [`EpochDelta`] records the announced/withdrawn VRPs — exactly what
//!   an RTR cache needs to bump its serial.
//! * Resolution keeps no state: every name form is one walk over the
//!   snapshot's zones that takes no lock and writes nothing shared, so
//!   a zone delta needs no invalidation — the next walk reads the new
//!   layer. (A memo of shared CNAME tails measured as a loss; see
//!   DESIGN.md, "No resolution cache".)
//!
//! Worker panics during a sharded run no longer abort the study: each
//! domain is measured under a panic guard and failures are reported as
//! skipped ranks ([`StudyResults::skipped`]) or as a structured
//! [`EngineError`] from [`StudyEngine::try_run`].
//!
//! ## Plan / execute / commit
//!
//! Both parallel paths — the sharded full [`run`](WorldSnapshot::run)
//! and the incremental re-measure inside
//! [`apply_events`](StudyEngine::apply_events) — follow one shape, with
//! the execute stage on `ripki_par`'s work-stealing executor:
//!
//! 1. **Plan** (serial): derive an independent work list — the full
//!    ranking, or the affected ranks recovered from the reverse indices
//!    — with everything a worker needs captured per item.
//! 2. **Execute** (parallel): [`ripki_par::run_indexed`] maps each item
//!    to a pure outcome — a measurement, plus its touched names where
//!    the commit needs them — with one resolver per worker and per-item
//!    panic isolation. No shared mutable state.
//! 3. **Commit** (serial): fold the outcomes *in plan order* — pair
//!    diffs, index patches, result writes. Outcomes come back in item
//!    order regardless of scheduling, so results are byte-identical at
//!    any thread count (property-tested in
//!    `tests/engine_parallel_prop.rs`); a panicked item commits as a
//!    skipped rank instead of poisoning the epoch.
//!
//! The incremental RPKI validator runs the same shape internally (see
//! `ripki_rpki::incremental`); [`PipelineConfig::worker_threads`] is the
//! single knob for all three planes.

use crate::model::{
    DomainMeasurement, DomainTable, NameMeasurement, PairState, PipelineConfig, StudyResults,
};
use ripki_bgp::rib::{Rib, RibChanges, RibDelta};
use ripki_bgp::rov::{RouteOriginValidator, ValidityDetail, VrpTriple};
use ripki_dns::faults::FaultyResolver;
use ripki_dns::resolver::Resolver;
use ripki_dns::zone::{ZoneChanges, ZoneDelta, ZoneStore};
use ripki_dns::DomainName;
use ripki_net::special::SpecialRegistry;
use ripki_net::{Asn, IpPrefix, VrpSet};
use ripki_rpki::incremental::{ApplyStats, IncrementalValidator, VrpDelta};
use ripki_rpki::repo::Repository;
use ripki_rpki::time::SimTime;
use ripki_rpki::validate::ValidationOptions;
use ripki_websim::churn::{EpochChurn, WorldEvent};
use ripki_websim::Scenario;
use std::collections::{BTreeSet, HashSet};
use std::sync::{Arc, Mutex, RwLock};

/// An immutable view of the measured world at one epoch.
///
/// Cheap to clone through its [`Arc`] handles; all measurement methods
/// take `&self` and are safe to call from many threads at once.
pub struct WorldSnapshot {
    epoch: u64,
    zones: Arc<ZoneStore>,
    rib: Arc<Rib>,
    validator: RouteOriginValidator,
    rpki_rejected: usize,
    config: PipelineConfig,
}

impl WorldSnapshot {
    /// The snapshot's epoch (1 for a fresh engine, +1 per applied batch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The DNS substrate.
    pub fn zones(&self) -> &ZoneStore {
        &self.zones
    }

    /// The BGP table.
    pub fn rib(&self) -> &Rib {
        &self.rib
    }

    /// The origin validator over this epoch's validated VRPs.
    pub fn validator(&self) -> &RouteOriginValidator {
        &self.validator
    }

    /// Full RFC 6811 verdict for one announcement, with the covering
    /// VRPs partitioned by match outcome — the payload of a validity
    /// query API. Consistent with the states [`measure_domain`]
    /// (Self::measure_domain) stamps on pairs at this epoch.
    pub fn validity(&self, prefix: &IpPrefix, origin: Asn) -> ValidityDetail {
        self.validator.validity(prefix, origin)
    }

    /// This epoch's validated VRPs, in canonical order: the previous
    /// epoch's set advanced by this epoch's delta, sharing every chunk
    /// the delta did not touch — the set an origin's payload wraps.
    pub fn vrps(&self) -> &VrpSet {
        self.validator.vrps()
    }

    /// Objects rejected during cryptographic RPKI validation.
    pub fn rpki_rejected(&self) -> usize {
        self.rpki_rejected
    }

    /// The configuration this snapshot was built with.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// A resolver over this snapshot's zones: a `Copy` handle of the
    /// zones, the vantage and the fault-injection settings, holding no
    /// state of its own — workers share nothing through it.
    pub fn resolver(&self) -> FaultyResolver<'_> {
        FaultyResolver::new(
            Resolver::new(&self.zones, self.config.vantage),
            self.config.bogus_dns_ppm,
            self.config.dns_fault_seed,
        )
    }

    /// Measure one name form with a caller-provided (per-worker)
    /// resolver: steps 1–2 (resolution and the special-purpose
    /// exclusion), then [`route_name`](Self::route_name) for steps 3–4.
    /// Every entry point (full runs, incremental re-measurement) routes
    /// through it or, when the name's answers cannot have moved, through
    /// `route_name` alone.
    ///
    /// With a `touched` sink, the walk appends its *touched set*: every
    /// name whose zone data it consulted. A zone delta touching none of
    /// those names cannot change this measurement — the invalidation
    /// rule the incremental engine relies on. A full run passes none.
    fn measure_name_traced(
        &self,
        resolver: &FaultyResolver<'_>,
        name: &DomainName,
        touched: Option<&mut Vec<DomainName>>,
    ) -> NameMeasurement {
        let mut m = NameMeasurement::default();
        let outcome = match touched {
            Some(touched) => resolver.resolve_traced(name, touched),
            None => resolver.resolve(name),
        };
        let Ok(resolution) = outcome else {
            m.resolve_failed = true;
            return m;
        };
        m.cname_chain = resolution.cname_chain;
        m.dnssec_authenticated = resolution.authenticated;
        let registry = SpecialRegistry::global();
        for addr in resolution.addresses {
            // Step 2 exclusion: special-purpose answers are invalid.
            if registry.is_invalid_answer(addr) {
                m.excluded_invalid += 1;
            } else {
                m.addresses.push(addr);
            }
        }
        self.route_name(&mut m);
        m
    }

    /// Steps 3–4 over a name form's retained addresses, in address
    /// order: the single implementation of both. Resets `pairs`,
    /// `unreachable` and `as_set_skipped` and recomputes them from
    /// `addresses` against this snapshot's RIB and VRPs, so a
    /// measurement taken at an earlier epoch can be re-routed in place
    /// when only the RIB or the VRP set moved.
    fn route_name(&self, m: &mut NameMeasurement) {
        m.pairs.clear();
        m.unreachable = 0;
        m.as_set_skipped = 0;
        // Within one epoch the state is a function of (prefix, origin),
        // so deduplicating on the pair before validating preserves the
        // old `Vec::contains` output while dropping the O(n²) scan and
        // the redundant validator lookups.
        let mut seen: HashSet<(IpPrefix, Asn)> = HashSet::new();
        for &addr in &m.addresses {
            // Step 3: all covering prefixes and origins.
            let mapping = self.rib.origins_for_addr(addr);
            m.as_set_skipped += mapping.as_set_skipped;
            if !mapping.is_reachable() {
                m.unreachable += 1;
                continue;
            }
            for po in mapping.pairs {
                if !seen.insert((po.prefix, po.origin)) {
                    continue;
                }
                // Step 4: RFC 6811 per pair.
                let state = self.validator.validate(&po.prefix, po.origin);
                m.pairs.push(PairState {
                    prefix: po.prefix,
                    origin: po.origin,
                    state,
                });
            }
        }
    }

    /// Measure one ranked domain (both name forms).
    pub fn measure_domain(&self, rank: usize, listed: &DomainName) -> DomainMeasurement {
        self.measure_domain_traced(&self.resolver(), rank, listed, None, None)
    }

    /// The one per-domain entry: measure both name forms. With a
    /// `touched` sink, append the union of their touched name sets for
    /// index maintenance and leave the sink sorted and deduplicated.
    ///
    /// With `reroute`, a stored measurement of this domain whose DNS
    /// answers cannot have moved, only steps 3–4 run again, over its
    /// addresses; nothing is resolved and the sink is left as it is
    /// (the caller's stored touched set still holds).
    fn measure_domain_traced(
        &self,
        resolver: &FaultyResolver<'_>,
        rank: usize,
        listed: &DomainName,
        reroute: Option<&DomainMeasurement>,
        mut touched: Option<&mut Vec<DomainName>>,
    ) -> DomainMeasurement {
        assert!(
            self.config.poison_domain.as_ref() != Some(listed),
            "injected measurement fault for {listed:?} (PipelineConfig::poison_domain)"
        );
        if let Some(row) = reroute {
            let mut m = row.clone();
            self.route_name(&mut m.www);
            self.route_name(&mut m.bare);
            return m;
        }
        let bare = listed.without_www();
        let www = bare.with_www();
        let www_m = self.measure_name_traced(resolver, &www, touched.as_deref_mut());
        let bare_m = self.measure_name_traced(resolver, &bare, touched.as_deref_mut());
        if let Some(touched) = touched {
            touched.sort();
            touched.dedup();
        }
        DomainMeasurement {
            rank,
            listed: listed.clone(),
            www: www_m,
            bare: bare_m,
        }
    }

    /// Run the full study over a ranked list, sharded across threads.
    /// A domain whose measurement panics is skipped and its rank
    /// recorded in [`StudyResults::skipped`] — one bad domain cannot
    /// kill a million-domain study.
    pub fn run(&self, ranking: &[DomainName]) -> StudyResults {
        let (domains, skipped) = self.run_sharded(ranking);
        StudyResults {
            domains,
            vrp_count: self.validator.len(),
            rpki_rejected: self.rpki_rejected,
            epoch: self.epoch,
            skipped,
        }
    }

    /// Like [`run`](Self::run), but any skipped domain turns the whole
    /// study into a structured [`EngineError`] for callers that must
    /// not publish partial results.
    pub fn try_run(&self, ranking: &[DomainName]) -> Result<StudyResults, EngineError> {
        let results = self.run(ranking);
        if results.skipped.is_empty() {
            Ok(results)
        } else {
            Err(EngineError::DomainsPanicked {
                ranks: results.skipped,
            })
        }
    }

    fn run_sharded(&self, ranking: &[DomainName]) -> (DomainTable, Vec<usize>) {
        if ranking.is_empty() {
            return (DomainTable::default(), Vec::new());
        }
        // Plan: the ranking itself is the work list (rank == index).
        // Execute: one resolver per worker, work-stealing over the
        // ranks, per-domain panic isolation. Commit: fold the outcomes
        // in rank order — a `None` slot is a panicked measurement and
        // becomes a skipped rank. The rows are allocated here, one after
        // another, and not by the workers: a figure pass walks them in
        // rank order, and rows interleaved across the workers' arenas
        // cost it a cache miss per domain.
        let outcomes = ripki_par::run_indexed(
            self.config.worker_threads(),
            ranking,
            |_| self.resolver(),
            |resolver, rank, name| self.measure_domain_traced(resolver, rank, name, None, None),
        );
        let mut skipped = Vec::new();
        let domains = outcomes
            .into_iter()
            .enumerate()
            .filter_map(|(rank, outcome)| {
                if outcome.is_none() {
                    skipped.push(rank);
                }
                outcome
            })
            .collect();
        (domains, skipped)
    }
}

/// What changed between two RPKI epochs, in RTR terms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochDelta {
    /// Epoch the engine moved from.
    pub from_epoch: u64,
    /// Epoch the engine moved to.
    pub to_epoch: u64,
    /// VRPs present now but not before.
    pub announced: Vec<VrpTriple>,
    /// VRPs present before but not now.
    pub withdrawn: Vec<VrpTriple>,
    /// Size of the symmetric difference between the (prefix, origin,
    /// state) sets before and after, summed over the re-measured name
    /// forms: a pair whose state flipped counts twice.
    pub pairs_changed: usize,
    /// Domains [`StudyEngine::apply_events`] re-measured.
    pub domains_remeasured: usize,
    /// How many of `domains_remeasured` went through DNS again: those a
    /// zone change reached. The rest were reached only through the RIB
    /// or the VRP set and redid steps 3–4 over their stored addresses.
    pub domains_resolved: usize,
    /// Work accounting from the incremental RPKI validator, when the
    /// epoch involved validation (a repository swap or a clock advance).
    /// `None` for pure DNS/BGP epochs.
    pub rpki_stats: Option<ApplyStats>,
}

impl EpochDelta {
    /// No VRP-level change between the epochs.
    pub fn is_empty(&self) -> bool {
        self.announced.is_empty() && self.withdrawn.is_empty()
    }
}

/// Structured failure from [`StudyEngine::try_run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// These ranks panicked during measurement and were not measured.
    DomainsPanicked {
        /// Ranks (0-based positions in the input ranking) skipped.
        ranks: Vec<usize>,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::DomainsPanicked { ranks } => {
                write!(
                    f,
                    "{} domain measurement(s) panicked (ranks {:?})",
                    ranks.len(),
                    ranks
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Per-rank postings: everything one domain's measurement depends on,
/// kept so the reverse indices can be patched when the rank is
/// re-measured. Each list is sorted and deduplicated.
#[derive(Default)]
struct RankPostings {
    /// Names whose zone data either name form's resolution consulted.
    names: Vec<DomainName>,
    /// Host (`/32` / `/128`) prefixes of every retained address.
    hosts: Vec<IpPrefix>,
    /// Prefixes of every (prefix, origin) pair.
    pairs: Vec<IpPrefix>,
}

/// Reverse indices from world state into domain ranks: given a changed
/// name, RIB prefix, or VRP prefix, which domains must be re-measured,
/// and must they resolve again or only re-route?
///
/// Invalidation rules (each an over-approximation, never an under-
/// approximation — see DESIGN.md):
///
/// * **zone delta** touching name `n` → ranks posted under `n`; a
///   resolution that never consulted `n`'s records cannot change. These
///   ranks **re-resolve**: steps 1–4 run again.
/// * **RIB delta** on prefix `p` → ranks whose host prefixes are
///   covered by `p`; step 3 depends only on the prefixes covering each
///   retained address.
/// * **VRP delta** on prefix `v` → ranks with a pair prefix covered by
///   `v`; RFC 6811 only consults VRPs whose prefix covers the route.
///
/// A rank reached by the last two rules only **re-routes**: DNS answers
/// depend on zones alone and none of its touched names changed, so
/// steps 3–4 redo over its stored addresses and its touched names stay.
///
/// Each index is one sorted set of `(key, rank)` postings: a lookup is
/// a range scan ([`covered`]), a patch ([`patch`](Self::patch)) one
/// insert or remove per key that moved.
struct DomainIndex {
    /// Epoch of the [`StudyResults`] this index describes.
    epoch: u64,
    by_name: BTreeSet<(DomainName, usize)>,
    by_host: BTreeSet<(IpPrefix, usize)>,
    by_pair: BTreeSet<(IpPrefix, usize)>,
    /// Indexed by rank; a rank without a row has empty postings.
    per_rank: Vec<RankPostings>,
}

/// The ranks a batch reaches, split by the half of the chain it reaches
/// them through (see [`DomainIndex`]). The two sets are disjoint.
struct Affected {
    /// Reached through a touched name: resolve again.
    resolve: BTreeSet<usize>,
    /// Reached only through a host or pair prefix: re-route.
    route: BTreeSet<usize>,
}

/// Call `f(key, added)` for every key in exactly one of two sorted,
/// deduplicated lists — `added` when it is in `new` — in one merge.
fn for_each_difference<T: Ord>(old: &[T], new: &[T], mut f: impl FnMut(&T, bool)) {
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        match old[i].cmp(&new[j]) {
            std::cmp::Ordering::Less => {
                f(&old[i], false);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                f(&new[j], true);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    old[i..].iter().for_each(|k| f(k, false));
    new[j..].iter().for_each(|k| f(k, true));
}

/// Size of the symmetric difference between two measurements of one
/// name form, as (prefix, origin, state) sets.
fn pair_difference(before: &NameMeasurement, after: &NameMeasurement) -> usize {
    let sorted = |m: &NameMeasurement| {
        let mut keys: Vec<_> = m
            .pairs
            .iter()
            .map(|p| (p.prefix, p.origin, p.state))
            .collect();
        keys.sort_unstable();
        keys
    };
    let mut changed = 0;
    for_each_difference(&sorted(before), &sorted(after), |_, _| changed += 1);
    changed
}

/// The sorted, distinct prefixes of a domain's pairs over both name
/// forms: its pair postings.
fn pair_prefixes(d: &DomainMeasurement) -> Vec<IpPrefix> {
    let mut pairs: Vec<IpPrefix> = d
        .www
        .pairs
        .iter()
        .chain(&d.bare.pairs)
        .map(|p| p.prefix)
        .collect();
    pairs.sort();
    pairs.dedup();
    pairs
}

/// Insert `(key, rank)` for each key only `new` holds, remove it for
/// each key only `old` holds.
fn toggle<K: Ord + Clone>(set: &mut BTreeSet<(K, usize)>, old: &[K], new: &[K], rank: usize) {
    for_each_difference(old, new, |key, added| {
        let posting = (key.clone(), rank);
        if added {
            set.insert(posting);
        } else {
            set.remove(&posting);
        }
    });
}

/// The `(key, rank)` postings whose key `prefix` covers. Prefixes order
/// by (family, network bits, length), and a key `prefix` covers lies
/// between `prefix` itself and the host route of its last address.
fn covered(prefix: &IpPrefix) -> std::ops::RangeInclusive<(IpPrefix, usize)> {
    (*prefix, 0)..=(IpPrefix::host(prefix.last_addr()), usize::MAX)
}

impl DomainIndex {
    /// Index an existing study against the snapshot that produced it,
    /// in bulk: each index is one list of postings, sorted once.
    ///
    /// Hosts, pairs and the names of a form that resolved come from the
    /// stored rows: such a walk consulted exactly the form's name and
    /// its CNAME chain. A form whose resolution failed is walked again
    /// against the snapshot's (identical) zones — measurements don't
    /// record which names a failed resolution consulted.
    fn build(snapshot: &WorldSnapshot, results: &StudyResults) -> DomainIndex {
        let resolver = snapshot.resolver();
        let (mut names, mut hosts, mut pairs) = (Vec::new(), Vec::new(), Vec::new());
        let mut per_rank = Vec::new();
        for d in &results.domains {
            let bare = d.listed.without_www();
            let mut touched = Vec::new();
            for (form, m) in [(bare.with_www(), &d.www), (bare, &d.bare)] {
                if m.resolve_failed {
                    let _ = resolver.resolve_traced(&form, &mut touched);
                } else {
                    touched.extend(m.cname_chain.iter().cloned());
                    touched.push(form);
                }
            }
            touched.sort();
            touched.dedup();
            let postings = Self::postings(d, touched);
            names.extend(postings.names.iter().map(|n| (n.clone(), d.rank)));
            hosts.extend(postings.hosts.iter().map(|&p| (p, d.rank)));
            pairs.extend(postings.pairs.iter().map(|&p| (p, d.rank)));
            per_rank.resize_with(per_rank.len().max(d.rank + 1), RankPostings::default);
            per_rank[d.rank] = postings;
        }
        DomainIndex {
            epoch: results.epoch,
            by_name: names.into_iter().collect(),
            by_host: hosts.into_iter().collect(),
            by_pair: pairs.into_iter().collect(),
            per_rank,
        }
    }

    fn postings(d: &DomainMeasurement, names: Vec<DomainName>) -> RankPostings {
        let mut hosts: Vec<IpPrefix> = d
            .www
            .addresses
            .iter()
            .chain(&d.bare.addresses)
            .map(|a| IpPrefix::host(*a))
            .collect();
        hosts.sort();
        hosts.dedup();
        RankPostings {
            names,
            hosts,
            pairs: pair_prefixes(d),
        }
    }

    /// Make `postings` the rank's postings, inserting or removing one
    /// `(key, rank)` pair per key that differs from its old ones (a
    /// sorted merge per list): a rank whose names, hosts and pairs did
    /// not move costs no index update. `rank` must have had a row when
    /// the index was built.
    fn patch(&mut self, rank: usize, postings: RankPostings) {
        let old = std::mem::replace(&mut self.per_rank[rank], postings);
        let new = &self.per_rank[rank];
        toggle(&mut self.by_name, &old.names, &new.names, rank);
        toggle(&mut self.by_host, &old.hosts, &new.hosts, rank);
        toggle(&mut self.by_pair, &old.pairs, &new.pairs, rank);
    }

    /// [`patch`](Self::patch) for a re-routed rank: steps 3–4 moved
    /// only its pairs, so its names and hosts stay as they are.
    fn patch_pairs(&mut self, rank: usize, pairs: Vec<IpPrefix>) {
        let old = std::mem::replace(&mut self.per_rank[rank].pairs, pairs);
        toggle(&mut self.by_pair, &old, &self.per_rank[rank].pairs, rank);
    }

    /// Ranks whose measurement may be affected by the given changes.
    fn affected(
        &self,
        zone_changes: &ZoneChanges,
        rib_changes: &RibChanges,
        vrp_prefixes: &BTreeSet<IpPrefix>,
    ) -> Affected {
        let mut resolve = BTreeSet::new();
        for name in &zone_changes.changed {
            let run = (name.clone(), 0)..=(name.clone(), usize::MAX);
            resolve.extend(self.by_name.range(run).map(|&(_, rank)| rank));
        }
        let mut route = BTreeSet::new();
        for (set, prefixes) in [
            (&self.by_host, &rib_changes.changed),
            (&self.by_pair, vrp_prefixes),
        ] {
            for prefix in prefixes {
                let postings = set.range(covered(prefix)).map(|&(_, rank)| rank);
                route.extend(postings.filter(|rank| !resolve.contains(rank)));
            }
        }
        Affected { resolve, route }
    }
}

/// The study engine: owns the current [`WorldSnapshot`] and swaps it
/// atomically on every applied batch.
///
/// `&StudyEngine` is all a consumer needs — readers grab an `Arc` to
/// the snapshot they started with and are immune to concurrent swaps.
pub struct StudyEngine {
    current: RwLock<Arc<WorldSnapshot>>,
    /// Reverse indices for [`apply_events`](Self::apply_events), built
    /// lazily against the results the caller maintains.
    index: Mutex<Option<DomainIndex>>,
    /// The stateful incremental validator plus the repository it last
    /// validated (kept alive for clock-only expiry sweeps). Locked after
    /// `current`'s write lock, never the other way around.
    rpki: Mutex<RpkiState>,
}

/// Validator state carried across epochs.
struct RpkiState {
    validator: IncrementalValidator,
    repository: Arc<Repository>,
}

impl RpkiState {
    /// Validate `repository` (or re-validate the held one when `None`)
    /// as of `now`, reusing every publication point whose inputs did
    /// not change. `threads` sizes the validator's parallel execute
    /// stage — always [`PipelineConfig::worker_threads`], so all planes
    /// share one knob.
    fn apply(
        &mut self,
        repository: Option<&Arc<Repository>>,
        now: SimTime,
        threads: usize,
    ) -> VrpDelta {
        if let Some(repo) = repository {
            self.repository = Arc::clone(repo);
        }
        self.validator.set_worker_threads(threads);
        self.validator.apply(&self.repository, now)
    }
}

impl StudyEngine {
    /// Build an engine at epoch 1 from owned substrate.
    pub fn new(
        zones: ZoneStore,
        rib: Rib,
        repository: &Repository,
        config: PipelineConfig,
    ) -> StudyEngine {
        StudyEngine::from_shared(Arc::new(zones), Arc::new(rib), repository, config)
    }

    /// Build an engine at epoch 1 over a generated world, as every
    /// scenario-backed origin measures it: at the scenario's instant,
    /// without DNS answer corruption, on `threads` workers (0 =
    /// auto-detect). A study that wants the scenario's own
    /// `bogus_dns_ppm`, another vantage or another instant spells its
    /// [`PipelineConfig`] out and calls [`new`](Self::new).
    pub fn for_scenario(scenario: &Scenario, threads: usize) -> StudyEngine {
        StudyEngine::new(
            scenario.zones.clone(),
            scenario.rib.clone(),
            &scenario.repository,
            PipelineConfig {
                bogus_dns_ppm: 0,
                now: scenario.now,
                threads,
                ..Default::default()
            },
        )
    }

    /// Build an engine at epoch 1 from already-shared substrate.
    pub fn from_shared(
        zones: Arc<ZoneStore>,
        rib: Arc<Rib>,
        repository: &Repository,
        config: PipelineConfig,
    ) -> StudyEngine {
        let mut rpki = RpkiState {
            validator: IncrementalValidator::new(ValidationOptions::default()),
            repository: Arc::new(repository.clone()),
        };
        rpki.apply(None, config.now, config.worker_threads());
        let snapshot = WorldSnapshot {
            epoch: 1,
            zones,
            rib,
            validator: RouteOriginValidator::from_vrps(rpki.validator.vrps()),
            rpki_rejected: rpki.validator.rejected_count(),
            config,
        };
        StudyEngine {
            current: RwLock::new(Arc::new(snapshot)),
            index: Mutex::new(None),
            rpki: Mutex::new(rpki),
        }
    }

    /// The current snapshot. Hold the `Arc` for a consistent view
    /// across an entire computation.
    pub fn snapshot(&self) -> Arc<WorldSnapshot> {
        self.current
            .read()
            .expect("engine snapshot lock poisoned")
            .clone()
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Apply one epoch's churn incrementally: advance the world by the
    /// batch's zone/RIB deltas (copy-on-write successors, structurally
    /// shared with the old snapshot) and its repository snapshot if
    /// any, then re-measure **only the domains the changes can reach**
    /// — found through reverse indices from names, covering prefixes,
    /// and VRP prefixes back to domain ranks; a domain no changed name
    /// reaches redoes steps 3–4 over its stored addresses without
    /// resolving (see `DomainIndex`) — and commit each to
    /// `results` copy-on-write ([`DomainTable::replace`]): a clone of
    /// `results` taken before the call keeps its own epoch, which is
    /// what lets a server publish `results.clone()` per epoch at the
    /// price of one pointer per chunk of rows.
    ///
    /// `results` must be the current study for this engine's epoch
    /// (from [`run`](Self::run) or a previous `apply_events`); the
    /// reverse indices are (re)built lazily against it and patched as
    /// domains are re-measured. Equivalent to a full re-run against the
    /// post-churn world — the equivalence is property-tested in
    /// `tests/engine_incremental_prop.rs`.
    ///
    /// Every call advances the epoch by exactly one (even for an empty
    /// batch), preserving the epoch == RTR-serial contract: the
    /// returned [`EpochDelta`] feeds `CacheServer::apply_delta`
    /// unchanged.
    pub fn apply_events(&self, batch: &EpochChurn, results: &mut StudyResults) -> EpochDelta {
        let mut guard = self.current.write().expect("engine snapshot lock poisoned");
        let old = Arc::clone(&guard);
        assert_eq!(
            results.epoch, old.epoch,
            "apply_events requires results from the engine's current epoch"
        );

        // Partition the typed events into substrate deltas. RPKI events
        // carry no per-event payload here — the batch's repository
        // snapshot is the authoritative post-churn publication state.
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
                WorldEvent::RibAnnounce(entry) => {
                    rib_delta.announce(entry.clone());
                }
                WorldEvent::RibWithdraw { prefix, peer } => {
                    rib_delta.withdraw(*prefix, *peer);
                }
                WorldEvent::RoaAdded { .. }
                | WorldEvent::RoaExpired { .. }
                | WorldEvent::RoaRevoked { .. }
                | WorldEvent::KeyRollover { .. } => {}
            }
        }

        // Copy-on-write successors: unchanged substrate is shared by
        // `Arc` clone, changed substrate becomes a thin delta layer.
        let (zones, zone_changes) = if zone_delta.is_empty() {
            (Arc::clone(&old.zones), ZoneChanges::default())
        } else {
            let (z, ch) = ZoneStore::apply(Arc::clone(&old.zones), &zone_delta);
            (Arc::new(z), ch)
        };
        let (rib, rib_changes) = if rib_delta.is_empty() {
            (Arc::clone(&old.rib), RibChanges::default())
        } else {
            let (r, ch) = Rib::apply(Arc::clone(&old.rib), &rib_delta);
            (Arc::new(r), ch)
        };
        let mut config = old.config.clone();
        config.now = batch.now;
        // The validator runs only when its inputs moved: a republished
        // repository or a clock advance (expiry sweep). Its delta IS the
        // epoch's announce/withdraw set — no full-set diffing — and
        // advances the old epoch's VRP set in O(delta).
        let rpki_work = batch.repository.is_some() || batch.now != old.config.now;
        let (vrp_delta, rpki_rejected) = if rpki_work {
            let mut rpki = self.rpki.lock().expect("engine rpki lock poisoned");
            let threads = config.worker_threads();
            let vrp_delta = rpki.apply(batch.repository.as_ref(), batch.now, threads);
            (Some(vrp_delta), rpki.validator.rejected_count())
        } else {
            (None, old.rpki_rejected)
        };
        let (announced, withdrawn, rpki_stats) = match vrp_delta {
            Some(d) => (d.announced, d.withdrawn, Some(d.stats)),
            None => (Vec::new(), Vec::new(), None),
        };
        let mut vrps = old.vrps().clone();
        let applies =
            withdrawn.iter().all(|v| vrps.remove(v)) && announced.iter().all(|&v| vrps.insert(v));
        assert!(
            applies,
            "the validator's delta does not apply to the last epoch's VRPs"
        );
        let next = WorldSnapshot {
            epoch: old.epoch + 1,
            zones,
            rib,
            validator: RouteOriginValidator::from(vrps),
            rpki_rejected,
            config,
        };
        let vrp_prefixes: BTreeSet<IpPrefix> = announced
            .iter()
            .chain(&withdrawn)
            .map(|v| v.prefix)
            .collect();

        // Reverse-index lookup: which ranks can the changes reach?
        let mut index_guard = self.index.lock().expect("engine index lock poisoned");
        if index_guard
            .as_ref()
            .is_none_or(|ix| ix.epoch != results.epoch)
        {
            *index_guard = Some(DomainIndex::build(&old, results));
        }
        let affected = index_guard.as_ref().expect("index just built").affected(
            &zone_changes,
            &rib_changes,
            &vrp_prefixes,
        );

        let index = index_guard.as_mut().expect("index just built");

        // Plan: the affected ranks in ascending rank order, each with its
        // result position and whether it only re-routes — an independent
        // work list. A skipped rank has no position and stays skipped; a
        // rank skipped by an earlier batch may hold a row older than its
        // names' answers, so it resolves again.
        let work: Vec<(usize, usize, bool)> = affected
            .resolve
            .union(&affected.route)
            .filter_map(|&rank| {
                let pos = results.domains.position_of_rank(rank)?;
                let reroute =
                    affected.route.contains(&rank) && results.skipped.binary_search(&rank).is_err();
                Some((rank, pos, reroute))
            })
            .collect();

        // Execute: measure every planned rank against the new snapshot,
        // one resolver per worker, each item a pure (measurement,
        // touched-set) outcome; a re-routed rank starts from its row and
        // has no new touched set.
        let domains = &results.domains;
        let outcomes = ripki_par::run_indexed(
            next.config.worker_threads(),
            &work,
            |_| next.resolver(),
            |resolver, _, &(rank, pos, reroute)| {
                let row = &domains[pos];
                let mut touched = (!reroute).then(Vec::new);
                let measured = next.measure_domain_traced(
                    resolver,
                    rank,
                    &row.listed,
                    reroute.then_some(row),
                    touched.as_mut(),
                );
                (measured, touched)
            },
        );

        // Commit: fold the outcomes in plan order — deterministic at
        // any thread count. A panicked measurement (a `None` slot)
        // keeps the rank's previous measurement and postings and is
        // recorded as skipped; the next batch that reaches it will try
        // again.
        let mut pairs_changed = 0;
        let mut remeasured = 0;
        let mut resolved = 0;
        for (&(rank, pos, _), outcome) in work.iter().zip(outcomes) {
            let Some((measured, touched)) = outcome else {
                results.skipped.push(rank);
                continue;
            };
            let prior = &results.domains[pos];
            pairs_changed += pair_difference(&prior.www, &measured.www)
                + pair_difference(&prior.bare, &measured.bare);
            match touched {
                Some(names) => {
                    resolved += 1;
                    index.patch(rank, DomainIndex::postings(&measured, names));
                }
                None => index.patch_pairs(rank, pair_prefixes(&measured)),
            }
            results.domains.replace(pos, measured);
            remeasured += 1;
        }
        results.skipped.sort_unstable();
        results.skipped.dedup();
        index.epoch = next.epoch;

        results.epoch = next.epoch;
        results.vrp_count = next.validator.len();
        results.rpki_rejected = next.rpki_rejected;
        let delta = EpochDelta {
            from_epoch: old.epoch,
            to_epoch: next.epoch,
            announced,
            withdrawn,
            pairs_changed,
            domains_remeasured: remeasured,
            domains_resolved: resolved,
            rpki_stats,
        };
        *guard = Arc::new(next);
        delta
    }

    /// Run the full study against the current snapshot (skip-and-count
    /// panic policy; see [`WorldSnapshot::run`]).
    pub fn run(&self, ranking: &[DomainName]) -> StudyResults {
        self.snapshot().run(ranking)
    }

    /// Run, failing with a structured error if any domain was skipped.
    pub fn try_run(&self, ranking: &[DomainName]) -> Result<StudyResults, EngineError> {
        self.snapshot().try_run(ranking)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripki_bgp::path::AsPath;
    use ripki_bgp::rib::RibEntry;
    use ripki_bgp::rov::RpkiState;
    use ripki_dns::RecordData;
    use ripki_rpki::repo::RepositoryBuilder;
    use ripki_rpki::resources::Resources;
    use ripki_rpki::roa::RoaPrefix;
    use ripki_rpki::time::Duration;

    fn n(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn cfg(now: SimTime) -> PipelineConfig {
        PipelineConfig {
            bogus_dns_ppm: 0,
            now,
            threads: 2,
            ..Default::default()
        }
    }

    /// Hand-built world: four domains across three prefixes, one with a
    /// valid ROA, a shared CNAME tail, and a spare announced prefix.
    fn world() -> (ZoneStore, Rib, RepositoryBuilder, SimTime) {
        let mut zones = ZoneStore::new();
        zones.add_addr(n("covered.example"), "85.1.2.3".parse().unwrap());
        zones.add_cname(n("www.covered.example"), n("covered.example"));
        zones.add_addr(n("plain.example"), "9.9.1.1".parse().unwrap());
        zones.add_addr(n("www.plain.example"), "9.9.1.1".parse().unwrap());
        // Two CDN customers sharing a tail.
        zones.add_cname(n("cdn-a.example"), n("edge.cdn.example"));
        zones.add_cname(n("www.cdn-a.example"), n("edge.cdn.example"));
        zones.add_cname(n("cdn-b.example"), n("edge.cdn.example"));
        zones.add_cname(n("www.cdn-b.example"), n("edge.cdn.example"));
        zones.add_addr(n("edge.cdn.example"), "85.3.0.1".parse().unwrap());

        let mut rib = Rib::new();
        for (pfx, origin) in [
            ("85.1.0.0/16", 100u32),
            ("85.3.0.0/16", 300),
            ("9.9.0.0/16", 9),
            ("77.7.0.0/16", 77),
        ] {
            rib.insert(RibEntry {
                prefix: pfx.parse().unwrap(),
                path: AsPath::sequence([64601, origin]),
                peer: Asn::new(64496),
            });
        }

        let mut b = RepositoryBuilder::new(1, SimTime::EPOCH);
        let ta = b.add_trust_anchor(
            "RIPE",
            Resources::from_prefixes(vec!["80.0.0.0/4".parse().unwrap()]),
        );
        let isp = b
            .add_ca(
                ta,
                "ISP-1",
                Resources::from_prefixes(vec!["85.0.0.0/8".parse().unwrap()]),
            )
            .unwrap();
        b.add_roa(
            isp,
            Asn::new(100),
            vec![RoaPrefix::exact("85.1.0.0/16".parse().unwrap())],
        )
        .unwrap();
        (zones, rib, b, SimTime::EPOCH + Duration::days(1))
    }

    fn ranking() -> Vec<DomainName> {
        vec![
            n("covered.example"),
            n("plain.example"),
            n("cdn-a.example"),
            n("cdn-b.example"),
        ]
    }

    /// Full re-run on the post-churn world, for comparison. Uses the
    /// same CoW apply path (whose flat-replay equivalence is tested in
    /// the dns/bgp crates) but a fresh engine and a fresh measurement
    /// of every domain.
    fn full_rerun(
        zones: &ZoneStore,
        rib: &Rib,
        batch: &EpochChurn,
        repo: &Repository,
        now: SimTime,
    ) -> StudyResults {
        let mut zd = ZoneDelta::new();
        let mut rd = RibDelta::new();
        for event in &batch.events {
            match event {
                WorldEvent::ZoneEdit { name, records } => {
                    zd.set_records(name.clone(), records.clone());
                }
                WorldEvent::CnameRetarget { name, target } => {
                    zd.set_cname(name.clone(), target.clone());
                }
                WorldEvent::RibAnnounce(e) => rd.announce(e.clone()),
                WorldEvent::RibWithdraw { prefix, peer } => rd.withdraw(*prefix, *peer),
                _ => {}
            }
        }
        let (zones2, _) = ZoneStore::apply(Arc::new(zones.clone()), &zd);
        let (rib2, _) = Rib::apply(Arc::new(rib.clone()), &rd);
        let repo = batch.repository.as_deref().unwrap_or(repo);
        StudyEngine::new(zones2, rib2, repo, cfg(now)).run(&ranking())
    }

    fn assert_same_study(incremental: &StudyResults, fresh: &StudyResults) {
        assert_eq!(incremental.domains, fresh.domains);
        assert_eq!(incremental.vrp_count, fresh.vrp_count);
        assert_eq!(incremental.rpki_rejected, fresh.rpki_rejected);
    }

    /// The engine's patched reverse indices equal a fresh build against
    /// its current snapshot and `results`.
    fn assert_index_fresh(engine: &StudyEngine, results: &StudyResults) {
        let guard = engine.index.lock().unwrap();
        let patched = guard.as_ref().expect("built by apply_events");
        let fresh = DomainIndex::build(&engine.snapshot(), results);
        assert_eq!(patched.epoch, fresh.epoch);
        assert_eq!(patched.by_name, fresh.by_name);
        assert_eq!(patched.by_host, fresh.by_host);
        assert_eq!(patched.by_pair, fresh.by_pair);
        assert_eq!(patched.per_rank.len(), fresh.per_rank.len());
        for (a, b) in patched.per_rank.iter().zip(&fresh.per_rank) {
            assert_eq!(
                (&a.names, &a.hosts, &a.pairs),
                (&b.names, &b.hosts, &b.pairs)
            );
        }
    }

    #[test]
    fn zone_edit_remeasures_only_referring_domains() {
        let (zones, rib, mut b, now) = world();
        let repo = b.snapshot();
        let engine = StudyEngine::new(zones.clone(), rib.clone(), &repo, cfg(now));
        let mut results = engine.run(&ranking());

        // Retarget the shared CDN tail: exactly cdn-a and cdn-b depend
        // on it; covered/plain must not be re-measured.
        let batch = EpochChurn {
            events: vec![WorldEvent::ZoneEdit {
                name: n("edge.cdn.example"),
                records: vec![RecordData::from_addr("77.7.7.7".parse().unwrap())],
            }],
            repository: None,
            now,
        };
        let delta = engine.apply_events(&batch, &mut results);
        assert_eq!(delta.from_epoch, 1);
        assert_eq!(delta.to_epoch, 2);
        assert_eq!(delta.domains_remeasured, 2);
        assert_eq!(delta.domains_resolved, 2);
        assert!(delta.is_empty());
        assert_eq!(results.epoch, 2);
        // The tail moved to AS77 space.
        let cdn_a = &results.domains[2];
        assert_eq!(cdn_a.bare.pairs.len(), 1);
        assert_eq!(cdn_a.bare.pairs[0].origin, Asn::new(77));

        assert_same_study(&results, &full_rerun(&zones, &rib, &batch, &repo, now));
    }

    #[test]
    fn rib_change_remeasures_only_covered_domains() {
        let (zones, rib, mut b, now) = world();
        let repo = b.snapshot();
        let engine = StudyEngine::new(zones.clone(), rib.clone(), &repo, cfg(now));
        let mut results = engine.run(&ranking());

        // A more-specific hijack of covered.example's /16: only that
        // domain hosts addresses under 85.1/16.
        let batch = EpochChurn {
            events: vec![WorldEvent::RibAnnounce(RibEntry {
                prefix: "85.1.2.0/24".parse().unwrap(),
                path: AsPath::sequence([64601, 666]),
                peer: Asn::new(64497),
            })],
            repository: None,
            now,
        };
        let delta = engine.apply_events(&batch, &mut results);
        assert_eq!(delta.domains_remeasured, 1);
        let covered = &results.domains[0];
        // Now two pairs: the old valid /16 and the invalid hijack /24.
        assert_eq!(covered.bare.pairs.len(), 2);
        assert!(covered
            .bare
            .pairs
            .iter()
            .any(|p| p.origin == Asn::new(666) && p.state == RpkiState::Invalid));

        assert_same_study(&results, &full_rerun(&zones, &rib, &batch, &repo, now));
    }

    #[test]
    fn rpki_batch_remeasures_only_vrp_covered_domains() {
        let (zones, rib, mut b, now) = world();
        let repo = b.snapshot();
        let engine = StudyEngine::new(zones.clone(), rib.clone(), &repo, cfg(now));
        let mut results = engine.run(&ranking());
        assert_eq!(results.vrp_count, 1);

        // The CA issues a ROA for the CDN prefix with the wrong origin:
        // cdn-a and cdn-b flip NotFound→Invalid; the rest are untouched.
        let isp = b.find_ca("ISP-1").unwrap();
        b.add_roa(
            isp,
            Asn::new(999),
            vec![RoaPrefix::exact("85.3.0.0/16".parse().unwrap())],
        )
        .unwrap();
        let batch = EpochChurn {
            events: vec![WorldEvent::RoaAdded {
                prefix: "85.3.0.0/16".parse().unwrap(),
                asn: Asn::new(999),
            }],
            repository: Some(Arc::new(b.snapshot())),
            now,
        };
        let delta = engine.apply_events(&batch, &mut results);
        assert_eq!(delta.announced.len(), 1);
        assert!(delta.withdrawn.is_empty());
        assert_eq!(delta.domains_remeasured, 2);
        // Each of cdn-a/cdn-b flips one pair in both name forms.
        assert_eq!(delta.pairs_changed, 8);
        assert_eq!(results.vrp_count, 2);
        for i in [2usize, 3] {
            assert_eq!(results.domains[i].bare.pairs[0].state, RpkiState::Invalid);
        }

        assert_same_study(&results, &full_rerun(&zones, &rib, &batch, &repo, now));
    }

    #[test]
    fn empty_batch_still_bumps_epoch() {
        let (zones, rib, mut b, now) = world();
        let repo = b.snapshot();
        let engine = StudyEngine::new(zones, rib, &repo, cfg(now));
        let mut results = engine.run(&ranking());
        let batch = EpochChurn {
            events: vec![],
            repository: None,
            now,
        };
        let delta = engine.apply_events(&batch, &mut results);
        assert_eq!(delta.to_epoch, 2);
        assert_eq!(delta.domains_remeasured, 0);
        assert_eq!(results.epoch, 2);
        assert_eq!(engine.epoch(), 2);
    }

    #[test]
    fn zone_edit_to_failed_domain_revives_it() {
        // A domain that never resolved must still be re-measured when
        // its name appears: the index carries failed walks' touched
        // sets too.
        let (mut zones, rib, mut b, now) = world();
        zones.add_cname(n("dangling.example"), n("nowhere.example"));
        zones.add_cname(n("www.dangling.example"), n("nowhere.example"));
        let repo = b.snapshot();
        let engine = StudyEngine::new(zones, rib, &repo, cfg(now));
        let ranking = vec![n("dangling.example")];
        let mut results = engine.run(&ranking);
        assert!(results.domains[0].bare.resolve_failed);

        let batch = EpochChurn {
            events: vec![WorldEvent::ZoneEdit {
                name: n("nowhere.example"),
                records: vec![RecordData::from_addr("9.9.1.1".parse().unwrap())],
            }],
            repository: None,
            now,
        };
        let delta = engine.apply_events(&batch, &mut results);
        assert_eq!(delta.domains_remeasured, 1);
        assert!(!results.domains[0].bare.resolve_failed);
        assert_eq!(results.domains[0].bare.pairs[0].origin, Asn::new(9));
    }

    #[test]
    fn consecutive_batches_chain() {
        let (zones, rib, mut b, now) = world();
        let repo = b.snapshot();
        let engine = StudyEngine::new(zones.clone(), rib.clone(), &repo, cfg(now));
        let mut results = engine.run(&ranking());
        for step in 0..3u32 {
            let batch = EpochChurn {
                events: vec![WorldEvent::ZoneEdit {
                    name: n("plain.example"),
                    records: vec![RecordData::from_addr(
                        format!("85.1.9.{}", step + 1).parse().unwrap(),
                    )],
                }],
                repository: None,
                now,
            };
            let delta = engine.apply_events(&batch, &mut results);
            assert_eq!(delta.to_epoch, u64::from(step) + 2);
            assert_eq!(delta.domains_remeasured, 1);
        }
        assert_eq!(results.epoch, 4);
        // plain.example's bare form now sits in covered space: Valid.
        assert_eq!(results.domains[1].bare.pairs[0].state, RpkiState::Valid);
        // Its www form was not edited and still points at 9.9/16.
        assert_eq!(results.domains[1].www.pairs[0].origin, Asn::new(9));
    }

    fn announce(prefix: &str, origin: u32) -> WorldEvent {
        WorldEvent::RibAnnounce(RibEntry {
            prefix: prefix.parse().unwrap(),
            path: AsPath::sequence([64601, origin]),
            peer: Asn::new(64496),
        })
    }

    #[test]
    fn rib_and_repository_batches_resolve_nothing() {
        let (zones, rib, mut b, now) = world();
        let repo = b.snapshot();
        let engine = StudyEngine::new(zones.clone(), rib.clone(), &repo, cfg(now));
        let mut results = engine.run(&ranking());

        // A RIB-only batch: a more-specific under the CDN tail's /16.
        let hijack = announce("85.3.0.0/24", 666);
        let batch = EpochChurn {
            events: vec![hijack.clone()],
            repository: None,
            now,
        };
        let delta = engine.apply_events(&batch, &mut results);
        assert_eq!((delta.domains_remeasured, delta.domains_resolved), (2, 0));
        assert_same_study(&results, &full_rerun(&zones, &rib, &batch, &repo, now));
        assert_index_fresh(&engine, &results);

        // A repository-only batch: a ROA that makes the hijack valid.
        let isp = b.find_ca("ISP-1").unwrap();
        b.add_roa(
            isp,
            Asn::new(666),
            vec![RoaPrefix::exact("85.3.0.0/24".parse().unwrap())],
        )
        .unwrap();
        let repository = Arc::new(b.snapshot());
        let batch = EpochChurn {
            events: vec![],
            repository: Some(Arc::clone(&repository)),
            now,
        };
        let delta = engine.apply_events(&batch, &mut results);
        assert_eq!((delta.domains_remeasured, delta.domains_resolved), (2, 0));
        assert_eq!(results.domains[2].bare.pairs.len(), 2);
        let both = EpochChurn {
            events: vec![hijack],
            repository: Some(repository),
            now,
        };
        assert_same_study(&results, &full_rerun(&zones, &rib, &both, &repo, now));
        assert_index_fresh(&engine, &results);
    }

    #[test]
    fn zone_edit_and_covering_announce_resolve_the_domain() {
        let (zones, rib, mut b, now) = world();
        let repo = b.snapshot();
        let engine = StudyEngine::new(zones.clone(), rib.clone(), &repo, cfg(now));
        let mut results = engine.run(&ranking());

        // plain.example moves into covered space while a more-specific
        // appears over its old address: the index reaches it through
        // both its name and its host, and only resolving again finds
        // the new address.
        let batch = EpochChurn {
            events: vec![
                WorldEvent::ZoneEdit {
                    name: n("plain.example"),
                    records: vec![RecordData::from_addr("85.1.9.1".parse().unwrap())],
                },
                announce("9.9.1.0/24", 666),
            ],
            repository: None,
            now,
        };
        let delta = engine.apply_events(&batch, &mut results);
        assert_eq!((delta.domains_remeasured, delta.domains_resolved), (1, 1));
        assert_eq!(results.domains[1].bare.pairs[0].state, RpkiState::Valid);
        assert_same_study(&results, &full_rerun(&zones, &rib, &batch, &repo, now));
    }

    #[test]
    fn withdrawing_the_only_covering_route_leaves_the_domain_unreachable() {
        let (zones, rib, mut b, now) = world();
        let repo = b.snapshot();
        let engine = StudyEngine::new(zones.clone(), rib.clone(), &repo, cfg(now));
        let original = engine.run(&ranking());
        let mut results = original.clone();

        let batch = EpochChurn {
            events: vec![WorldEvent::RibWithdraw {
                prefix: "9.9.0.0/16".parse().unwrap(),
                peer: Asn::new(64496),
            }],
            repository: None,
            now,
        };
        let delta = engine.apply_events(&batch, &mut results);
        assert_eq!((delta.domains_remeasured, delta.domains_resolved), (1, 0));
        for m in [&results.domains[1].www, &results.domains[1].bare] {
            assert_eq!(m.unreachable, 1);
            assert!(m.pairs.is_empty());
        }
        assert_same_study(&results, &full_rerun(&zones, &rib, &batch, &repo, now));
        assert_index_fresh(&engine, &results);

        // Announcing it again restores the original measurement: the
        // re-route recounts, it does not add to the stored counters.
        let batch = EpochChurn {
            events: vec![announce("9.9.0.0/16", 9)],
            repository: None,
            now,
        };
        let delta = engine.apply_events(&batch, &mut results);
        assert_eq!((delta.domains_remeasured, delta.domains_resolved), (1, 0));
        assert_eq!(results.domains[1].bare.unreachable, 0);
        assert_same_study(&results, &original);
        assert_index_fresh(&engine, &results);
    }

    #[test]
    fn a_moved_pair_leaves_no_stale_posting() {
        let (zones, rib, mut b, now) = world();
        let repo = b.snapshot();
        let engine = StudyEngine::new(zones.clone(), rib.clone(), &repo, cfg(now));
        let mut results = engine.run(&ranking());

        // covered.example (both forms) leaves 85.1/16 for 9.9/16.
        let edit = WorldEvent::ZoneEdit {
            name: n("covered.example"),
            records: vec![RecordData::from_addr("9.9.1.1".parse().unwrap())],
        };
        let batch = EpochChurn {
            events: vec![edit.clone()],
            repository: None,
            now,
        };
        assert_eq!(
            engine.apply_events(&batch, &mut results).domains_resolved,
            1
        );

        // A VRP change on 85.1/16 now reaches no domain.
        let isp = b.find_ca("ISP-1").unwrap();
        b.add_roa(
            isp,
            Asn::new(101),
            vec![RoaPrefix::exact("85.1.0.0/16".parse().unwrap())],
        )
        .unwrap();
        let repository = Arc::new(b.snapshot());
        let batch = EpochChurn {
            events: vec![],
            repository: Some(Arc::clone(&repository)),
            now,
        };
        let delta = engine.apply_events(&batch, &mut results);
        assert_eq!(delta.announced.len(), 1);
        assert_eq!(delta.domains_remeasured, 0);
        let both = EpochChurn {
            events: vec![edit],
            repository: Some(repository),
            now,
        };
        assert_same_study(&results, &full_rerun(&zones, &rib, &both, &repo, now));
    }

    /// The index derives a resolved form's touched names from its row
    /// and walks only failed forms again. Oracle: the names a fresh
    /// traced walk of both forms reports, on a world where walks end
    /// every way they can — a direct answer, a shared CNAME tail,
    /// NXDOMAIN (direct and behind a CNAME), a CNAME loop, a chain over
    /// [`MAX_CHAIN`], and corrupted answers.
    #[test]
    fn index_names_from_rows_equal_a_fresh_walk() {
        use ripki_dns::resolver::MAX_CHAIN;
        let (mut zones, rib, mut b, now) = world();
        zones.add_cname(n("www.dangling.example"), n("void.example"));
        zones.add_cname(n("loop.example"), n("www.loop.example"));
        zones.add_cname(n("www.loop.example"), n("loop.example"));
        zones.add_cname(n("long.example"), n("h0.long.example"));
        for i in 0..=MAX_CHAIN {
            let (from, to) = (
                format!("h{i}.long.example"),
                format!("h{}.long.example", i + 1),
            );
            zones.add_cname(n(&from), n(&to));
        }
        zones.add_addr(
            n(&format!("h{}.long.example", MAX_CHAIN + 1)),
            "85.3.0.9".parse().unwrap(),
        );
        let mut ranking = ranking();
        ranking.extend(["dangling.example", "loop.example", "long.example"].map(n));
        for i in 0..40 {
            let site = format!("s{i}.example");
            zones.add_cname(
                n(&format!("www.{site}")),
                n(&format!("lb{}.cdn.example", i % 3)),
            );
            zones.add_addr(n(&site), "9.9.2.2".parse().unwrap());
            ranking.push(n(&site));
        }
        for i in 0..3 {
            zones.add_cname(n(&format!("lb{i}.cdn.example")), n("edge.cdn.example"));
        }
        let config = PipelineConfig {
            bogus_dns_ppm: 200_000,
            ..cfg(now)
        };
        let engine = StudyEngine::new(zones, rib, &b.snapshot(), config);
        let results = engine.run(&ranking);
        let snapshot = engine.snapshot();
        let index = DomainIndex::build(&snapshot, &results);

        let resolver = snapshot.resolver();
        let forms = |d: &DomainMeasurement| {
            let bare = d.listed.without_www();
            [(bare.with_www(), d.www.clone()), (bare, d.bare.clone())]
        };
        let all_forms: Vec<_> = results.domains.iter().flat_map(forms).collect();
        assert!(all_forms.iter().any(|(_, m)| m.resolve_failed));
        assert!(all_forms.iter().any(|(_, m)| m.cname_chain.len() >= 2));
        assert!(all_forms.iter().any(|(f, m)| resolver.is_corrupted(f)
            && !m.resolve_failed
            && f.as_str().starts_with("www.s")));
        let mut by_name = BTreeSet::new();
        for d in &results.domains {
            let mut walked: Vec<DomainName> = forms(d)
                .iter()
                .flat_map(|(form, _)| {
                    let mut touched = Vec::new();
                    let _ = resolver.resolve_traced(form, &mut touched);
                    touched
                })
                .collect();
            walked.sort();
            walked.dedup();
            assert_eq!(index.per_rank[d.rank].names, walked, "{}", d.listed);
            by_name.extend(walked.into_iter().map(|name| (name, d.rank)));
        }
        assert_eq!(index.by_name, by_name);
    }

    fn prefix_strategy() -> impl proptest::strategy::Strategy<Value = IpPrefix> {
        use proptest::prelude::*;
        let v4_bits = prop_oneof![
            any::<u32>(),
            0u32..0x100,
            0x0a00_0000u32..0x0a00_0100,
            (u32::MAX - 0xff)..=u32::MAX,
        ];
        let v6_bits = prop_oneof![
            0..u128::MAX,
            0u128..0x100,
            (u128::MAX - 0xff)..u128::MAX,
            Just(u128::MAX),
        ];
        let v4 = (v4_bits, prop_oneof![0u8..=32, Just(0u8), Just(32u8)])
            .prop_map(|(bits, len)| IpPrefix::new(std::net::Ipv4Addr::from(bits).into(), len));
        let v6 = (
            v6_bits,
            prop_oneof![0u8..=128, Just(0u8), Just(128u8), 120u8..=128],
        )
            .prop_map(|(bits, len)| IpPrefix::new(std::net::Ipv6Addr::from(bits).into(), len));
        prop_oneof![v4, v6].prop_map(|p| p.expect("length in range"))
    }

    proptest::proptest! {
        /// A range scan over `(key, rank)` postings finds exactly the keys
        /// [`PrefixTrie::covered_by`] finds, in both families, down to
        /// the default routes and up to the last address of each space.
        #[test]
        fn covered_range_equals_trie_covered_by(
            keys in proptest::collection::vec((prefix_strategy(), 0usize..4), 0..60),
            queries in proptest::collection::vec(prefix_strategy(), 1..12),
        ) {
            let tops = ["0.0.0.0/0", "::/0", "255.255.255.0/24", "255.255.255.255/32"];
            let edges: Vec<IpPrefix> = tops
                .iter()
                .map(|p| p.parse().unwrap())
                .chain([IpPrefix::host(std::net::Ipv6Addr::from(u128::MAX).into())])
                .collect();
            let edge_postings = edges.iter().flat_map(|&p| [(p, 0), (p, 3)]);
            let mut trie = ripki_net::PrefixTrie::new();
            let mut set = BTreeSet::new();
            for (key, rank) in keys.iter().copied().chain(edge_postings) {
                trie.insert(key, ());
                set.insert((key, rank));
            }
            for query in queries.iter().chain(&edges) {
                let keys: BTreeSet<IpPrefix> =
                    trie.covered_by(query).into_iter().map(|(k, _)| k).collect();
                let want: Vec<_> = set.iter().filter(|(k, _)| keys.contains(k)).collect();
                let got: Vec<_> = set.range(covered(query)).collect();
                proptest::prop_assert_eq!(got, want, "query {}", query);
            }
        }
    }

    /// The measurement semantics of one snapshot (the four pipeline
    /// steps on a hand-built world).
    mod measurement {
        use super::*;
        use ripki_bgp::path::AsPath;
        use ripki_bgp::rib::RibEntry;
        use ripki_bgp::rov::RpkiState;
        use ripki_net::Asn;
        use ripki_rpki::repo::RepositoryBuilder;
        use ripki_rpki::resources::Resources;
        use ripki_rpki::roa::RoaPrefix;
        use ripki_rpki::time::{Duration, SimTime};

        fn n(s: &str) -> DomainName {
            DomainName::parse(s).unwrap()
        }

        /// Small hand-built world: two domains, one ROA-covered prefix.
        fn world() -> (ZoneStore, Rib, Repository, SimTime) {
            let mut zones = ZoneStore::new();
            // covered.example on 85.1.0.0/16 (valid ROA, AS100)
            zones.add_addr(n("covered.example"), "85.1.2.3".parse().unwrap());
            zones.add_cname(n("www.covered.example"), n("covered.example"));
            // plain.example on 9.9.0.0/16 (no ROA)
            zones.add_addr(n("plain.example"), "9.9.1.1".parse().unwrap());
            zones.add_addr(n("www.plain.example"), "9.9.1.1".parse().unwrap());
            // hijacked.example on 85.2.0.0/16 announced by wrong AS
            zones.add_addr(n("hijacked.example"), "85.2.9.9".parse().unwrap());
            zones.add_addr(n("www.hijacked.example"), "85.2.9.9".parse().unwrap());
            // bogus.example answers a reserved address
            zones.add_addr(n("bogus.example"), "127.0.0.1".parse().unwrap());
            zones.add_addr(n("www.bogus.example"), "127.0.0.1".parse().unwrap());
            // dark.example resolves to unannounced space
            zones.add_addr(n("dark.example"), "77.7.7.7".parse().unwrap());
            zones.add_addr(n("www.dark.example"), "77.7.7.7".parse().unwrap());

            let mut rib = Rib::new();
            for (pfx, origin) in [
                ("85.1.0.0/16", 100u32),
                ("85.2.0.0/16", 666),
                ("9.9.0.0/16", 9),
            ] {
                rib.insert(RibEntry {
                    prefix: pfx.parse().unwrap(),
                    path: AsPath::sequence([64601, origin]),
                    peer: Asn::new(64496),
                });
            }

            let mut b = RepositoryBuilder::new(1, SimTime::EPOCH);
            let ta = b.add_trust_anchor(
                "RIPE",
                Resources::from_prefixes(vec!["80.0.0.0/4".parse().unwrap()]),
            );
            let isp = b
                .add_ca(
                    ta,
                    "ISP-1",
                    Resources::from_prefixes(vec!["85.0.0.0/8".parse().unwrap()]),
                )
                .unwrap();
            b.add_roa(
                isp,
                Asn::new(100),
                vec![RoaPrefix::exact("85.1.0.0/16".parse().unwrap())],
            )
            .unwrap();
            b.add_roa(
                isp,
                Asn::new(555),
                vec![RoaPrefix::exact("85.2.0.0/16".parse().unwrap())],
            )
            .unwrap();
            (zones, rib, b.finalize(), SimTime::EPOCH + Duration::days(1))
        }

        /// An epoch-1 snapshot of the given world.
        fn snapshot(
            zones: &ZoneStore,
            rib: &Rib,
            repo: &Repository,
            config: PipelineConfig,
        ) -> Arc<WorldSnapshot> {
            StudyEngine::new(zones.clone(), rib.clone(), repo, config).snapshot()
        }

        fn pipeline_cfg(now: SimTime) -> PipelineConfig {
            PipelineConfig {
                bogus_dns_ppm: 0,
                now,
                threads: 2,
                ..Default::default()
            }
        }

        #[test]
        fn states_assigned_correctly() {
            let (zones, rib, repo, now) = world();
            let p = snapshot(&zones, &rib, &repo, pipeline_cfg(now));
            let covered = p.measure_domain(0, &n("covered.example"));
            assert_eq!(covered.bare.pairs.len(), 1);
            assert_eq!(covered.bare.pairs[0].state, RpkiState::Valid);
            assert_eq!(covered.bare.coverage_counts(), (1, 1));
            // www form CNAMEs to bare: one indirection, same pairs.
            assert_eq!(covered.www.indirections(), 1);
            assert!(covered.equal_prefixes());

            let plain = p.measure_domain(1, &n("plain.example"));
            assert_eq!(plain.bare.pairs[0].state, RpkiState::NotFound);
            assert_eq!(plain.bare.covered_fraction(), Some(0.0));

            let hijacked = p.measure_domain(2, &n("hijacked.example"));
            assert_eq!(hijacked.bare.pairs[0].state, RpkiState::Invalid);
            assert_eq!(hijacked.bare.covered_fraction(), Some(1.0));
        }

        #[test]
        fn special_purpose_answers_excluded() {
            let (zones, rib, repo, now) = world();
            let p = snapshot(&zones, &rib, &repo, pipeline_cfg(now));
            let m = p.measure_domain(0, &n("bogus.example"));
            assert_eq!(m.bare.excluded_invalid, 1);
            assert!(m.bare.addresses.is_empty());
            assert!(m.bare.pairs.is_empty());
            assert_eq!(m.bare.state_fraction(RpkiState::Valid), None);
        }

        #[test]
        fn unreachable_addresses_counted() {
            let (zones, rib, repo, now) = world();
            let p = snapshot(&zones, &rib, &repo, pipeline_cfg(now));
            let m = p.measure_domain(0, &n("dark.example"));
            assert_eq!(m.bare.unreachable, 1);
            assert_eq!(m.bare.addresses.len(), 1);
            assert!(m.bare.pairs.is_empty());
        }

        #[test]
        fn nxdomain_reported() {
            let (zones, rib, repo, now) = world();
            let p = snapshot(&zones, &rib, &repo, pipeline_cfg(now));
            let m = p.measure_domain(0, &n("missing.example"));
            assert!(m.bare.resolve_failed);
            assert!(m.www.resolve_failed);
        }

        #[test]
        fn run_preserves_rank_order_across_threads() {
            let (zones, rib, repo, now) = world();
            let p = snapshot(&zones, &rib, &repo, pipeline_cfg(now));
            let ranking = vec![
                n("covered.example"),
                n("plain.example"),
                n("hijacked.example"),
                n("dark.example"),
                n("bogus.example"),
            ];
            let results = p.run(&ranking);
            assert_eq!(results.domains.len(), 5);
            for (i, d) in results.domains.iter().enumerate() {
                assert_eq!(d.rank, i);
                assert_eq!(&d.listed, &ranking[i]);
            }
            assert_eq!(results.vrp_count, 2);
            assert_eq!(results.rpki_rejected, 0);
            assert_eq!(results.epoch, 1);
            assert!(results.skipped.is_empty());
        }

        #[test]
        fn run_empty_ranking() {
            let (zones, rib, repo, now) = world();
            let p = snapshot(&zones, &rib, &repo, pipeline_cfg(now));
            let results = p.run(&[]);
            assert!(results.domains.is_empty());
        }

        #[test]
        fn single_thread_equals_multi_thread() {
            let (zones, rib, repo, now) = world();
            let ranking = vec![n("covered.example"), n("plain.example")];
            let single = snapshot(
                &zones,
                &rib,
                &repo,
                PipelineConfig {
                    threads: 1,
                    bogus_dns_ppm: 0,
                    now,
                    ..Default::default()
                },
            )
            .run(&ranking);
            let multi = snapshot(
                &zones,
                &rib,
                &repo,
                PipelineConfig {
                    threads: 4,
                    bogus_dns_ppm: 0,
                    now,
                    ..Default::default()
                },
            )
            .run(&ranking);
            assert_eq!(single.domains.len(), multi.domains.len());
            for (a, b) in single.domains.iter().zip(&multi.domains) {
                assert_eq!(a.bare, b.bare);
                assert_eq!(a.www, b.www);
            }
        }

        #[test]
        fn explicit_thread_count_is_uncapped() {
            // CI runs the suite under a RIPKI_THREADS matrix, and the env
            // var deliberately outranks the config field — so compute what
            // the knob should resolve to rather than pinning 100.
            let env_threads = std::env::var("RIPKI_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok());
            let cfg = PipelineConfig {
                threads: 100,
                ..Default::default()
            };
            let auto = PipelineConfig {
                threads: 0,
                ..Default::default()
            };
            match env_threads {
                Some(t) if t > 0 => {
                    assert_eq!(cfg.worker_threads(), t);
                    assert_eq!(auto.worker_threads(), t);
                }
                // RIPKI_THREADS=0 forces auto-detect even over an explicit
                // config; unset (or unparseable) leaves the config in
                // charge.
                Some(_) => {
                    assert!((1..=64).contains(&cfg.worker_threads()));
                    assert!((1..=64).contains(&auto.worker_threads()));
                }
                None => {
                    assert_eq!(cfg.worker_threads(), 100);
                    assert!((1..=64).contains(&auto.worker_threads()));
                }
            }
        }

        #[test]
        fn www_listed_input_measured_same_as_bare_listed() {
            let (zones, rib, repo, now) = world();
            let p = snapshot(&zones, &rib, &repo, pipeline_cfg(now));
            let from_bare = p.measure_domain(0, &n("covered.example"));
            let from_www = p.measure_domain(0, &n("www.covered.example"));
            assert_eq!(from_bare.bare, from_www.bare);
            assert_eq!(from_bare.www, from_www.www);
        }

        /// The RPKI refresh route: a batch that carries only a
        /// repository and a clock. Starting from an expired view
        /// (everything NotFound), it must land on exactly the study a
        /// fresh engine measures at the new instant, and on what the
        /// same engine measures from scratch after the batch.
        #[test]
        fn repository_only_batch_matches_full_rerun() {
            let (zones, rib, repo, now) = world();
            let late = SimTime::EPOCH + Duration::years(30);
            let engine = StudyEngine::new(zones.clone(), rib.clone(), &repo, pipeline_cfg(late));
            let ranking = vec![
                n("covered.example"),
                n("hijacked.example"),
                n("plain.example"),
            ];
            let mut results = engine.run(&ranking);
            assert_eq!(results.epoch, 1);
            assert_eq!(results.vrp_count, 0);
            assert!(results
                .domains
                .iter()
                .flat_map(|d| d.www.pairs.iter().chain(&d.bare.pairs))
                .all(|p| p.state == RpkiState::NotFound));

            // Swap in the un-expired view of the same repository.
            let batch = EpochChurn {
                events: vec![],
                repository: Some(Arc::new(repo.clone())),
                now,
            };
            let delta = engine.apply_events(&batch, &mut results);
            assert_eq!(delta.from_epoch, 1);
            assert_eq!(delta.to_epoch, 2);
            // Both ROAs come alive: two announced VRPs, nothing withdrawn.
            assert_eq!(delta.announced.len(), 2);
            assert!(delta.withdrawn.is_empty());
            // Only the two VRP-covered domains are re-measured: covered
            // (NotFound→Valid) and hijacked (NotFound→Invalid) flip one
            // pair in both name forms, each flip counting twice.
            assert_eq!(delta.domains_remeasured, 2);
            assert_eq!(delta.pairs_changed, 8);
            assert_eq!(results.epoch, 2);

            let fresh = StudyEngine::new(zones, rib, &repo, pipeline_cfg(now)).run(&ranking);
            for full in [fresh, engine.run(&ranking)] {
                assert_eq!(results.domains, full.domains);
                assert_eq!(results.vrp_count, full.vrp_count);
                assert_eq!(results.rpki_rejected, full.rpki_rejected);
            }
        }

        #[test]
        fn ipv6_pairs_validated() {
            let mut zones = ZoneStore::new();
            zones.add_addr(n("six.example"), "2001:600::1".parse().unwrap());
            zones.add_addr(n("www.six.example"), "2001:600::1".parse().unwrap());
            let mut rib = Rib::new();
            rib.insert(RibEntry {
                prefix: "2001:600::/32".parse().unwrap(),
                path: AsPath::sequence([64601, 700]),
                peer: Asn::new(64496),
            });
            let mut b = RepositoryBuilder::new(2, SimTime::EPOCH);
            let ta = b.add_trust_anchor(
                "RIPE",
                Resources::from_prefixes(vec!["2001::/16".parse().unwrap()]),
            );
            let isp = b
                .add_ca(
                    ta,
                    "v6-ISP",
                    Resources::from_prefixes(vec!["2001:600::/24".parse().unwrap()]),
                )
                .unwrap();
            b.add_roa(
                isp,
                Asn::new(700),
                vec![RoaPrefix::exact("2001:600::/32".parse().unwrap())],
            )
            .unwrap();
            let repo = b.finalize();
            let p = snapshot(
                &zones,
                &rib,
                &repo,
                pipeline_cfg(SimTime::EPOCH + Duration::days(1)),
            );
            let m = p.measure_domain(0, &n("six.example"));
            assert_eq!(m.bare.pairs.len(), 1);
            assert_eq!(m.bare.pairs[0].state, RpkiState::Valid);
            assert!(matches!(m.bare.pairs[0].prefix, ripki_net::IpPrefix::V6(_)));
        }

        #[test]
        fn expired_rpki_yields_all_notfound() {
            let (zones, rib, repo, _) = world();
            let late = SimTime::EPOCH + Duration::years(30);
            let p = snapshot(&zones, &rib, &repo, pipeline_cfg(late));
            assert_eq!(p.validator().len(), 0);
            let m = p.measure_domain(0, &n("covered.example"));
            assert_eq!(m.bare.pairs[0].state, RpkiState::NotFound);
        }
    }
}
