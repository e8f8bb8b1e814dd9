//! Per-object incremental validation.
//!
//! Full validation ([`crate::validate::validate`]) re-checks every
//! signature in the repository on every run. Between two relying-party
//! passes almost nothing changes: the paper's longitudinal study replays
//! years of ROA churn where each day touches a handful of publication
//! points out of thousands. [`IncrementalValidator`] exploits that at
//! two grains: it caches the outcome of every publication point and only
//! revalidates the ones whose inputs changed, and when it does revalidate
//! a point it only re-decides the objects that are new or whose CRL
//! entry or validity window turned.
//!
//! ## The dependency graph
//!
//! A publication point's validation outcome is a pure function of:
//!
//! * the issuing CA certificate (its key verifies the CRL, manifest and
//!   every child signature; its resources bound the children's);
//! * the point's published content (CRL, manifest, child certs, ROAs);
//! * the trust anchor name baked into the logged events;
//! * the evaluation time `now` — but only through the validity windows
//!   the walk consults, which partition time into intervals of constant
//!   outcome (an [`Era`]).
//!
//! So a cached entry keeps exactly those inputs — the issuing
//! certificate, the published objects, the trust-anchor name — and is
//! reusable while they are the same and `era.contains(now)`. Everything
//! the paper's hard cases require falls out of this: a CRL revoking a
//! sibling re-issues the CRL, so the whole point (all sibling ROAs) is
//! revalidated; a manifest replacement likewise; a key rollover changes
//! the parent's content (new child cert) *and* every descendant's issuing
//! cert, dirtying the whole subtree; an expiry sweep moves `now` out of
//! some points' eras and only those are revisited.
//!
//! ## Plan / execute / commit
//!
//! Each [`apply`](IncrementalValidator::apply) is a breadth-first wave
//! sweep in three stages per wave:
//!
//! 1. **Plan** (serial): compare the frontier's CA certificates and
//!    publication points against the cache, splitting it into reused
//!    entries and an independent dirty work list.
//! 2. **Execute** (parallel): revalidate the dirty points over the
//!    work-stealing pool (`ripki-par`), each item a pure
//!    `(CA cert, point, previous entry) → CachedPoint` computation with
//!    no shared mutable state. A panicking item is isolated: its point
//!    alone is marked skipped ([`ApplyStats::points_skipped`]) and
//!    revalidated on the next pass.
//! 3. **Commit** (serial): fold outcomes back in frontier order —
//!    VRP refcounts, the point cache, the next wave's frontier. Commit
//!    order is the plan order, so parallel ≡ serial byte-for-byte;
//!    thread count can change wall-clock time only, never results. A
//!    point's VRPs are committed as a diff the execute stage computed:
//!    only ROAs that left, arrived or were decided afresh move a
//!    refcount.
//!
//! ## "The same" means the same allocation
//!
//! A [`Repository`] keeps every object behind an `Arc`, and
//! [`RepositoryBuilder`](crate::repo::RepositoryBuilder) hands out the
//! same `Arc` from every snapshot until it reissues the object. The
//! cache keeps a pointer-copy of what it validated, and both stages
//! compare *addresses*, never contents:
//!
//! * **Plan.** A point is reused iff its trust-anchor name, its issuing
//!   certificate and every published object are pointer-identical to
//!   the cached ones and the era contains `now` — one pointer compare
//!   per object in the repository.
//! * **Execute.** A dirty point runs `validate_point`, which walks every
//!   object in order with every short-circuit. What depends on nothing
//!   except an object's bytes and the issuing certificate — its file
//!   name and manifest digest, its issuer-signature verdict, and for a
//!   ROA the rest of its decision: content signature, resources, the
//!   event it logs and the VRPs it yields — is taken from the previous
//!   outcome when the object is the very allocation that outcome holds
//!   *and* the issuing certificate and trust-anchor name are too. Two
//!   inputs of a ROA decision change without a new allocation, and
//!   both are re-checked on every pass: whether the point's CRL lists
//!   the EE serial, and whether the EE window contains `now` (which
//!   narrows the point's era exactly as a fresh decision would). A
//!   decision they still lead to is carried, event and all; one they
//!   flip is taken afresh. Republishing a 400-ROA point to swap one ROA
//!   verifies four signatures, not 802
//!   ([`ApplyStats::signatures_verified`]), and decides one ROA, not
//!   400 ([`ApplyStats::objects_validated`]).
//!
//! This is sound because the address is that of an immutable value the
//! cache itself keeps alive: it cannot be freed and handed to another
//! object, and nobody else can edit it in place — `Arc::make_mut` on a
//! shared object copies, which is what [`crate::faults`] does. Tampering
//! with a repository the validator has already seen therefore shows up
//! as new allocations and is validated like any other new object.
//!
//! A repository whose objects are all fresh allocations (a loaded
//! archive, a builder replayed from its event log) shares nothing with
//! the cache: validating it is a full pass — correct, merely not
//! incremental.
//!
//! Each CA key is assumed reachable from at most one trust anchor (true
//! of every builder-produced repository); a key shared between anchor
//! hierarchies would thrash its single cache slot.
//!
//! ## The event log is kept, not replayed
//!
//! Every cached point pre-renders its event stream into chunks split at
//! child-descent positions; each event is an `Arc` its decision shares,
//! so a carried decision costs its point a pointer, not a string.
//! [`report`](IncrementalValidator::report) walks the cached tree in the
//! full validator's order, copying the chunks, and reads the VRP set off
//! the refcount table — no object is revalidated. A pass itself touches
//! no log beyond the chunks of the points it revalidates.

use crate::cert::Cert;
use crate::repo::{PublicationPoint, Repository};
use crate::roa::Roa;
use crate::time::{Era, SimTime};
use crate::validate::{
    accepted_vrps, ca_accept_event, missing_point_event, roa_vrps, trust_anchor_event,
    validate_point, ObjectFacts, PointFacts, PointItem, PointOutcome, ValidationEvent,
    ValidationOptions, ValidationReport, Vrp,
};
use ripki_crypto::keystore::KeyId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Work accounting for one [`IncrementalValidator::apply`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApplyStats {
    /// Publication points reachable in this pass (cached or not).
    pub points_total: usize,
    /// Points whose cached outcome was reused untouched.
    pub points_reused: usize,
    /// Points (re)validated from scratch this pass.
    pub points_revalidated: usize,
    /// Object decisions this pass recomputed (trust anchors, CA certs,
    /// ROAs, point-level CRL/manifest verdicts). A ROA decision carried
    /// over from the previous pass — the same object under the same
    /// issuing certificate, still unrevoked and still in its window if
    /// it was before — costs none.
    pub objects_validated: usize,
    /// Points whose revalidation panicked on the execute stage and were
    /// skipped (their subtree is withdrawn until the next pass).
    #[serde(default)]
    pub points_skipped: usize,
    /// Schnorr verifications this pass executed (trust-anchor
    /// self-signatures, CRLs, manifests, child and EE certificates, ROA
    /// contents). A recomputed decision about an object the validator
    /// has already seen under the same issuing certificate costs none.
    #[serde(default)]
    pub signatures_verified: usize,
}

impl ApplyStats {
    /// Whether any cached work was actually reused — `false` means the
    /// pass was equivalent to a full validation.
    pub fn full_pass_avoided(&self) -> bool {
        self.points_reused > 0
    }
}

/// The change in the validated VRP set produced by one `apply` call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VrpDelta {
    /// VRPs present now that were absent before, sorted.
    pub announced: Vec<Vrp>,
    /// VRPs absent now that were present before, sorted.
    pub withdrawn: Vec<Vrp>,
    /// What it cost to compute.
    pub stats: ApplyStats,
}

impl VrpDelta {
    /// Whether the VRP set changed at all.
    pub fn is_empty(&self) -> bool {
        self.announced.is_empty() && self.withdrawn.is_empty()
    }
}

/// Cached verdict for one trust anchor, in walk order. It answers for a
/// repository's anchor that equals it by value (name and certificate).
#[derive(Debug, Clone)]
struct CachedTa {
    name: Arc<str>,
    /// The anchor's key id: its publication point's key.
    id: KeyId,
    /// The anchor certificate. One allocation for as long as the
    /// verdict is reused, so the anchor's own publication point — whose
    /// issuing certificate this is — can be reused with it.
    cert: Arc<Cert>,
    era: Era,
    event: Arc<ValidationEvent>,
    usable: bool,
}

/// Cached outcome for one publication point (or its absence), together
/// with the inputs it was computed from.
///
/// The point's event stream is pre-rendered into `chunks`: `chunks[i]`
/// holds the events up to and including child `i`'s accept event, and
/// the final chunk holds the trailing events. Each event is the one the
/// decision's [`ObjectFacts`] hold, so a decision carried into the next
/// outcome carries its event too: a pointer, not a string.
#[derive(Debug, Clone)]
struct CachedPoint {
    ta_name: Arc<str>,
    /// The issuing CA certificate.
    issuer: Arc<Cert>,
    /// The published objects, as a pointer-copy of the publication
    /// point: holding them is what makes their addresses identities.
    /// `None` caches "no publication point exists for this CA".
    published: Option<PublicationPoint>,
    /// What validating `published` under `issuer` established about
    /// each object, slot for slot — each ROA's decision included, which
    /// is also what says which VRPs the point contributes.
    facts: PointFacts,
    era: Era,
    /// Pre-rendered event chunks; `chunks.len() == children.len() + 1`
    /// for validated points, empty for skipped ones.
    chunks: Vec<Vec<Arc<ValidationEvent>>>,
    /// Accepted child CA certificates in walk order, interleaved with
    /// `chunks` — the allocations `published` holds, so they are the
    /// children's issuing certificates by identity — each with its key
    /// id, hashed once here rather than on every pass.
    children: Vec<(KeyId, Arc<Cert>)>,
    rejected: usize,
    /// Object decisions this entry cost to compute (what a revalidation
    /// adds to [`ApplyStats::objects_validated`]).
    objects: usize,
    /// Signatures it cost to compute (likewise,
    /// [`ApplyStats::signatures_verified`]).
    signatures: usize,
    /// The execute stage panicked on this point: it holds no outcome,
    /// is never reusable, and is invisible in the event log.
    skipped: bool,
}

impl CachedPoint {
    /// The entry for `outcome`, its items rendered into event chunks
    /// split at child descents: each child's accept event closes its
    /// chunk.
    fn from_outcome(
        ta_name: &Arc<str>,
        issuer: &Arc<Cert>,
        pp: &PublicationPoint,
        outcome: PointOutcome,
    ) -> CachedPoint {
        let mut entry = CachedPoint {
            published: Some(pp.clone()),
            era: outcome.era,
            objects: outcome.items.len() - outcome.carried,
            signatures: outcome.signatures_verified,
            facts: outcome.facts,
            ..CachedPoint::empty(Arc::clone(ta_name), Arc::clone(issuer))
        };
        let mut chunk = Vec::with_capacity(outcome.items.len());
        for item in outcome.items {
            match item {
                PointItem::Event(event) => {
                    entry.rejected += usize::from(event.rejected.is_some());
                    chunk.push(event);
                }
                PointItem::Child(child) => {
                    chunk.push(Arc::new(ca_accept_event(ta_name, &child)));
                    entry.chunks.push(std::mem::take(&mut chunk));
                    entry.children.push((child.subject_key_id(), child));
                }
            }
        }
        entry.chunks.push(chunk);
        entry
    }

    /// An entry with no outcome: `missing` and `skipped` fill it in.
    fn empty(ta_name: Arc<str>, issuer: Arc<Cert>) -> CachedPoint {
        CachedPoint {
            ta_name,
            issuer,
            published: None,
            facts: PointFacts::default(),
            era: Era::unbounded(),
            chunks: Vec::new(),
            children: Vec::new(),
            rejected: 0,
            objects: 0,
            signatures: 0,
            skipped: false,
        }
    }

    fn missing(ta_name: Arc<str>, issuer: Arc<Cert>) -> CachedPoint {
        let event = missing_point_event(&ta_name, &issuer);
        CachedPoint {
            chunks: vec![vec![Arc::new(event)]],
            rejected: 1,
            ..CachedPoint::empty(ta_name, issuer)
        }
    }

    fn skipped(ta_name: Arc<str>, issuer: Arc<Cert>) -> CachedPoint {
        CachedPoint {
            skipped: true,
            ..CachedPoint::empty(ta_name, issuer)
        }
    }

    /// The ROAs this entry decided about, slot for slot with
    /// `facts.roas`.
    fn roas(&self) -> &[Arc<Roa>] {
        self.published.as_ref().map_or(&[], |pp| &pp.roas)
    }

    /// The VRPs this entry contributes, duplicates kept.
    fn vrps(&self) -> impl Iterator<Item = Vrp> + '_ {
        accepted_vrps(self.roas(), &self.facts.roas)
    }

    /// Whether this outcome still stands for `pp` (or its absence)
    /// under `issuer` at `now`: every input is the one it was computed
    /// from, by identity.
    fn reusable(
        &self,
        ta_name: &str,
        issuer: &Arc<Cert>,
        pp: Option<&PublicationPoint>,
        now: SimTime,
    ) -> bool {
        !self.skipped
            && *self.ta_name == *ta_name
            && Arc::ptr_eq(&self.issuer, issuer)
            && match (&self.published, pp) {
                (Some(mine), Some(theirs)) => mine.ptr_eq(theirs),
                (None, None) => true,
                _ => false,
            }
            && self.era.contains(now)
    }
}

/// What `old` established that still holds for `pp` under `issuer` and
/// `ta_name`: the facts, last decisions included, of each object of `pp`
/// that is the very allocation `old` holds — and nothing at all unless
/// the issuing certificate and the trust-anchor name are the same, too.
/// Also, for each ROA of `pp`, the slot of `old` its facts came from.
fn recall(
    old: Option<&CachedPoint>,
    ta_name: &str,
    issuer: &Arc<Cert>,
    pp: &PublicationPoint,
) -> (PointFacts, Vec<Option<usize>>) {
    let old = old.filter(|old| Arc::ptr_eq(&old.issuer, issuer) && *old.ta_name == *ta_name);
    let Some((old, mine)) = old.and_then(|old| Some((old, old.published.as_ref()?))) else {
        return (PointFacts::unknown(pp), vec![None; pp.roas.len()]);
    };
    let recalled = |same: bool, facts: &ObjectFacts| {
        if same {
            facts.clone()
        } else {
            ObjectFacts::default()
        }
    };
    let (child_certs, _) = carry_over(&mine.child_certs, &old.facts.child_certs, &pp.child_certs);
    let (roas, origins) = carry_over(&mine.roas, &old.facts.roas, &pp.roas);
    let known = PointFacts {
        crl: recalled(Arc::ptr_eq(&mine.crl, &pp.crl), &old.facts.crl),
        manifest: recalled(
            Arc::ptr_eq(&mine.manifest, &pp.manifest),
            &old.facts.manifest,
        ),
        child_certs,
        roas,
    };
    (known, origins)
}

/// The facts of each `new` object: those of the `old` object at the
/// same address, wherever there is one, and which old slot they came
/// from. An old slot is recalled at most once, so a republished
/// duplicate pairs with one copy, not two.
fn carry_over<T>(
    old: &[Arc<T>],
    old_facts: &[ObjectFacts],
    new: &[Arc<T>],
) -> (Vec<ObjectFacts>, Vec<Option<usize>>) {
    let mut by_address: HashMap<*const T, usize> = old
        .iter()
        .enumerate()
        .map(|(slot, object)| (Arc::as_ptr(object), slot))
        .collect();
    new.iter()
        .map(|object| match by_address.remove(&Arc::as_ptr(object)) {
            Some(slot) => (old_facts[slot].clone(), Some(slot)),
            None => (ObjectFacts::default(), None),
        })
        .unzip()
}

/// The refcount moves that turn one point's VRP contribution into
/// another's.
#[derive(Debug, Default)]
struct VrpMoves {
    released: Vec<Vrp>,
    acquired: Vec<Vrp>,
}

impl VrpMoves {
    /// From `old` (if any) to `new`, whose ROA `j` was recalled from
    /// `old`'s slot `origins[j]`: a ROA whose decision `new` carried
    /// over moves nothing; one that left, arrived or was decided afresh
    /// moves its VRPs.
    fn between(
        old: Option<&CachedPoint>,
        new: &CachedPoint,
        origins: &[Option<usize>],
    ) -> VrpMoves {
        let mut moves = VrpMoves::default();
        let mut kept = vec![false; old.map_or(0, |old| old.facts.roas.len())];
        for ((roa, known), origin) in new.roas().iter().zip(&new.facts.roas).zip(origins) {
            match (old, *origin) {
                (Some(old), Some(slot)) if old.facts.roas[slot].same_decision(known) => {
                    kept[slot] = true;
                }
                _ if known.accepted() => moves.acquired.extend(roa_vrps(roa)),
                _ => {}
            }
        }
        if let Some(old) = old {
            let left = old.roas().iter().zip(&old.facts.roas).zip(kept);
            for ((roa, known), kept) in left {
                if !kept && known.accepted() {
                    moves.released.extend(roa_vrps(roa));
                }
            }
        }
        moves
    }
}

/// One frontier entry after the plan stage classified it.
enum Planned {
    /// Cached outcome still valid: left in place untouched.
    Reused(KeyId),
    /// Inputs changed (or the point is gone): the outcome is computed
    /// on the (parallel) execute stage, which may still recall
    /// per-object facts from `old`.
    Dirty {
        ca_id: KeyId,
        cert: Arc<Cert>,
        ta_name: Arc<str>,
        old: Option<Box<CachedPoint>>,
    },
}

/// A CA whose publication point the next wave visits — its key id and
/// certificate — and the trust anchor it descends from.
type Frontier = Vec<(KeyId, Arc<Cert>, Arc<str>)>;

/// A validator that carries per-publication-point outcome caches across
/// repository snapshots and clock advances.
#[derive(Debug, Clone)]
pub struct IncrementalValidator {
    options: ValidationOptions,
    /// Worker threads for the execute stage (1 = fully serial inline).
    threads: usize,
    tas: Vec<CachedTa>,
    points: HashMap<KeyId, CachedPoint>,
    /// Reference-counted VRP multiset: distinct ROAs may assert the same
    /// payload, and one leaving must not withdraw the other's.
    vrp_counts: BTreeMap<Vrp, usize>,
    /// Rejection events of the cached points (the anchors' are counted
    /// on demand).
    rejected: usize,
    /// Test-only fault hook: points whose revalidation panics.
    poisoned: HashSet<KeyId>,
}

impl Default for IncrementalValidator {
    fn default() -> IncrementalValidator {
        IncrementalValidator::new(ValidationOptions::default())
    }
}

impl IncrementalValidator {
    /// An empty validator; the first [`apply`](Self::apply) is a full pass.
    pub fn new(options: ValidationOptions) -> IncrementalValidator {
        IncrementalValidator {
            options,
            threads: 1,
            tas: Vec::new(),
            points: HashMap::new(),
            vrp_counts: BTreeMap::new(),
            rejected: 0,
            poisoned: HashSet::new(),
        }
    }

    /// Set the worker-thread count for the parallel execute stage
    /// (clamped to at least 1; 1 = fully serial). Thread count never
    /// changes results — the parallel ≡ serial equivalence is
    /// property-tested in `tests/incremental_prop.rs`.
    pub fn set_worker_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The execute stage's current worker-thread count.
    pub fn worker_threads(&self) -> usize {
        self.threads
    }

    /// Test-only fault hook: make the execute stage panic when it
    /// (re)validates `point`, exercising the skip-and-count isolation
    /// path. Has no effect while the point's cached outcome is reusable.
    #[doc(hidden)]
    pub fn poison_point_for_tests(&mut self, point: KeyId) {
        self.poisoned.insert(point);
    }

    /// Clear the test-only fault hook.
    #[doc(hidden)]
    pub fn clear_poison_for_tests(&mut self) {
        self.poisoned.clear();
    }

    /// Current validated VRP set, deduplicated and sorted.
    pub fn vrps(&self) -> Vec<Vrp> {
        self.vrp_counts.keys().copied().collect()
    }

    /// Number of rejection events in the current (cached) walk.
    pub fn rejected_count(&self) -> usize {
        let anchors = self.tas.iter().filter(|t| t.event.rejected.is_some());
        anchors.count() + self.rejected
    }

    /// Validate `repo` as of `now`, reusing every cached publication
    /// point whose inputs are unchanged and, within a changed point,
    /// the cryptography of every object that is not new; return the VRP
    /// delta relative to the previous call.
    ///
    /// "Unchanged" is object identity (see the module documentation): a
    /// repository that shares its allocations with the previously
    /// applied one — successive snapshots of one builder, or a clone
    /// edited copy-on-write — costs what changed; any other repository
    /// is a full pass.
    ///
    /// Runs as a breadth-first wave sweep: each wave plans serially
    /// (pointer compares), executes the dirty points in parallel
    /// (over [`worker_threads`](Self::worker_threads) workers), and
    /// commits serially in plan order — so the outcome is byte-for-byte
    /// independent of the thread count.
    pub fn apply(&mut self, repo: &Repository, now: SimTime) -> VrpDelta {
        let mut stats = ApplyStats::default();
        // VRP presence before this pass first touched the entry, recorded
        // lazily: a count that dips to zero and recovers within one apply
        // must not surface in the delta.
        let mut touched: HashMap<Vrp, bool> = HashMap::new();
        // Points reached this pass. A reused entry stays where it is, a
        // dirty one is taken out and its successor put back; whatever
        // is left unvisited at the end is dead.
        let mut visited: HashSet<KeyId> = HashSet::with_capacity(self.points.len());
        let prev_tas = std::mem::take(&mut self.tas);

        // Trust-anchor stage, serial: one signature check per anchor at
        // worst, and the anchors seed the first wave's frontier.
        let mut frontier: Frontier = Vec::new();
        for ta in &repo.trust_anchors {
            let cached = prev_tas
                .iter()
                .find(|c| *c.name == *ta.name && *c.cert == ta.cert && c.era.contains(now));
            let entry = match cached {
                Some(c) => c.clone(),
                None => {
                    stats.objects_validated += 1;
                    let mut era = Era::unbounded();
                    let event =
                        trust_anchor_event(ta, now, &mut era, &mut stats.signatures_verified);
                    CachedTa {
                        name: ta.name.as_str().into(),
                        id: ta.cert.subject_key_id(),
                        cert: Arc::new(ta.cert.clone()),
                        era,
                        usable: event.rejected.is_none(),
                        event: Arc::new(event),
                    }
                }
            };
            if entry.usable {
                frontier.push((entry.id, Arc::clone(&entry.cert), Arc::clone(&entry.name)));
            }
            self.tas.push(entry);
        }

        while !frontier.is_empty() {
            // --- Plan (serial): compare the frontier with the cache. ---
            let mut plan: Vec<Planned> = Vec::with_capacity(frontier.len());
            for (ca_id, cert, ta_name) in frontier.drain(..) {
                if !visited.insert(ca_id) {
                    continue;
                }
                stats.points_total += 1;
                let pp = repo.points.get(&ca_id);
                let cached = self.points.get(&ca_id);
                if cached.is_some_and(|entry| entry.reusable(&ta_name, &cert, pp, now)) {
                    stats.points_reused += 1;
                    plan.push(Planned::Reused(ca_id));
                } else {
                    stats.points_revalidated += 1;
                    plan.push(Planned::Dirty {
                        ca_id,
                        cert,
                        ta_name,
                        old: self.points.remove(&ca_id).map(Box::new),
                    });
                }
            }

            // --- Execute (parallel): pure (cert, point, old) → outcome. ---
            let dirty: Vec<&Planned> = plan
                .iter()
                .filter(|p| matches!(p, Planned::Dirty { .. }))
                .collect();
            let options = self.options;
            let poisoned = &self.poisoned;
            let outcomes = ripki_par::run_indexed(
                self.threads,
                &dirty,
                |_| (),
                |(), _, p| {
                    let Planned::Dirty {
                        ca_id,
                        cert,
                        ta_name,
                        old,
                    } = p
                    else {
                        unreachable!("execute stage only sees dirty work items");
                    };
                    assert!(
                        !poisoned.contains(ca_id),
                        "publication point poisoned for tests"
                    );
                    // No publication point: a verdict without crypto.
                    let Some(pp) = repo.points.get(ca_id) else {
                        let entry = CachedPoint::missing(Arc::clone(ta_name), Arc::clone(cert));
                        let moves = VrpMoves::between(old.as_deref(), &entry, &[]);
                        return (entry, moves);
                    };
                    let (known, origins) = recall(old.as_deref(), ta_name, cert, pp);
                    let outcome = validate_point(cert, pp, ta_name, now, options, known);
                    let entry = CachedPoint::from_outcome(ta_name, cert, pp, outcome);
                    let moves = VrpMoves::between(old.as_deref(), &entry, &origins);
                    (entry, moves)
                },
            );

            // --- Commit (serial, plan order): fold outcomes back. ---
            let mut outcome_iter = outcomes.into_iter();
            for planned in plan {
                let ca_id = match planned {
                    Planned::Reused(ca_id) => ca_id,
                    Planned::Dirty {
                        ca_id,
                        cert,
                        ta_name,
                        old,
                    } => {
                        let (entry, moves) = match outcome_iter
                            .next()
                            .expect("one execute outcome per dirty item")
                        {
                            Some((entry, moves)) => {
                                stats.objects_validated += entry.objects;
                                stats.signatures_verified += entry.signatures;
                                (entry, moves)
                            }
                            None => {
                                stats.points_skipped += 1;
                                let entry = CachedPoint::skipped(ta_name, cert);
                                let moves = VrpMoves::between(old.as_deref(), &entry, &[]);
                                (entry, moves)
                            }
                        };
                        let counts = &mut self.vrp_counts;
                        release_vrps(counts, moves.released, &mut touched);
                        acquire_vrps(counts, moves.acquired, &mut touched);
                        self.rejected += entry.rejected;
                        self.rejected -= old.map_or(0, |old| old.rejected);
                        self.points.insert(ca_id, entry);
                        ca_id
                    }
                };
                let entry = &self.points[&ca_id];
                for (id, child) in &entry.children {
                    frontier.push((*id, Arc::clone(child), Arc::clone(&entry.ta_name)));
                }
            }
        }

        // Points no longer reachable: withdraw their VRPs.
        if self.points.len() > visited.len() {
            let (counts, rejected) = (&mut self.vrp_counts, &mut self.rejected);
            self.points.retain(|ca_id, entry| {
                let live = visited.contains(ca_id);
                if !live {
                    release_vrps(counts, entry.vrps(), &mut touched);
                    *rejected -= entry.rejected;
                }
                live
            });
        }

        let mut delta = VrpDelta {
            stats,
            ..VrpDelta::default()
        };
        for (vrp, was_present) in touched {
            let is_present = self.vrp_counts.contains_key(&vrp);
            match (was_present, is_present) {
                (false, true) => delta.announced.push(vrp),
                (true, false) => delta.withdrawn.push(vrp),
                _ => {}
            }
        }
        delta.announced.sort();
        delta.withdrawn.sort();
        delta
    }

    /// The [`ValidationReport`] a full `validate_with` run would produce
    /// for the last applied `(repo, now)` — identical event order and
    /// VRP set — read off the cached tree: a depth-first descent
    /// matching the full validator's walk order, copying each point's
    /// pre-rendered events, and the VRP refcount table. Nothing is
    /// revalidated.
    ///
    /// A point skipped by panic isolation is absent from the log until a
    /// later pass revalidates it.
    pub fn report(&self) -> ValidationReport {
        let mut log = Vec::new();
        let mut seen: HashSet<KeyId> = HashSet::new();
        for ta in &self.tas {
            log.push(ValidationEvent::clone(&ta.event));
            if ta.usable {
                self.linearize(ta.id, &mut seen, &mut log);
            }
        }
        ValidationReport {
            vrps: self.vrps(),
            log,
        }
    }

    fn linearize(&self, ca_id: KeyId, seen: &mut HashSet<KeyId>, log: &mut Vec<ValidationEvent>) {
        if !seen.insert(ca_id) {
            return;
        }
        let Some(entry) = self.points.get(&ca_id) else {
            return;
        };
        for (i, chunk) in entry.chunks.iter().enumerate() {
            log.extend(chunk.iter().map(|event| ValidationEvent::clone(event)));
            if let Some((child, _)) = entry.children.get(i) {
                self.linearize(*child, seen, log);
            }
        }
    }
}

fn acquire_vrps(
    counts: &mut BTreeMap<Vrp, usize>,
    vrps: impl IntoIterator<Item = Vrp>,
    touched: &mut HashMap<Vrp, bool>,
) {
    for vrp in vrps {
        let count = counts.entry(vrp).or_insert(0);
        touched.entry(vrp).or_insert(*count > 0);
        *count += 1;
    }
}

fn release_vrps(
    counts: &mut BTreeMap<Vrp, usize>,
    vrps: impl IntoIterator<Item = Vrp>,
    touched: &mut HashMap<Vrp, bool>,
) {
    for vrp in vrps {
        let count = counts
            .get_mut(&vrp)
            .expect("released VRP was never acquired");
        touched.entry(vrp).or_insert(true);
        *count -= 1;
        if *count == 0 {
            counts.remove(&vrp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;
    use crate::repo::RepositoryBuilder;
    use crate::resources::Resources;
    use crate::roa::RoaPrefix;
    use crate::time::Duration;
    use crate::validate::{validate, RejectReason};
    use ripki_crypto::keystore::Keypair;
    use ripki_net::{Asn, IpPrefix};

    fn p(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    fn res(prefixes: &[&str]) -> Resources {
        Resources::from_prefixes(prefixes.iter().map(|s| p(s)))
    }

    /// Both validators must agree exactly: VRPs and full event log.
    fn assert_equiv(inc: &IncrementalValidator, repo: &Repository, now: SimTime) {
        let full = validate(repo, now);
        let replay = inc.report();
        assert_eq!(replay.vrps, full.vrps, "VRP sets diverge");
        assert_eq!(replay.log, full.log, "event logs diverge");
        assert_eq!(inc.vrps(), full.vrps);
        assert_eq!(inc.rejected_count(), full.rejected_count());
    }

    #[test]
    fn initial_apply_matches_full_validation() {
        let now = SimTime::EPOCH + Duration::days(1);
        let mut b = RepositoryBuilder::new(5, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        b.add_roa(isp, Asn::new(100), vec![RoaPrefix::exact(p("85.1.0.0/16"))])
            .unwrap();
        let repo = b.snapshot();
        let mut inc = IncrementalValidator::default();
        let delta = inc.apply(&repo, now);
        assert_eq!(delta.announced.len(), 1);
        assert!(delta.withdrawn.is_empty());
        assert!(!delta.stats.full_pass_avoided());
        assert_equiv(&inc, &repo, now);
    }

    #[test]
    fn unchanged_repo_reuses_every_point() {
        let now = SimTime::EPOCH + Duration::days(1);
        let mut b = RepositoryBuilder::new(5, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        b.add_roa(isp, Asn::new(100), vec![RoaPrefix::exact(p("85.1.0.0/16"))])
            .unwrap();
        let repo = b.snapshot();
        let mut inc = IncrementalValidator::default();
        inc.apply(&repo, now);
        let delta = inc.apply(&repo, now);
        assert!(delta.is_empty());
        assert_eq!(delta.stats.points_reused, delta.stats.points_total);
        assert_eq!(delta.stats.objects_validated, 0);
        assert_equiv(&inc, &repo, now);
    }

    #[test]
    fn roa_addition_revalidates_only_its_point() {
        let now = SimTime::EPOCH + Duration::days(1);
        let mut b = RepositoryBuilder::new(5, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp1 = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        let isp2 = b.add_ca(ta, "ISP-2", res(&["86.0.0.0/8"])).unwrap();
        b.add_roa(
            isp1,
            Asn::new(100),
            vec![RoaPrefix::exact(p("85.1.0.0/16"))],
        )
        .unwrap();
        b.add_roa(
            isp2,
            Asn::new(200),
            vec![RoaPrefix::exact(p("86.1.0.0/16"))],
        )
        .unwrap();
        let mut inc = IncrementalValidator::default();
        inc.apply(&b.snapshot(), now);

        b.add_roa(
            isp2,
            Asn::new(201),
            vec![RoaPrefix::exact(p("86.2.0.0/16"))],
        )
        .unwrap();
        let repo = b.snapshot();
        let delta = inc.apply(&repo, now);
        assert_eq!(delta.announced.len(), 1);
        assert_eq!(delta.announced[0].asn, Asn::new(201));
        assert!(delta.withdrawn.is_empty());
        // TA point dirty? No: ISP-2's *content* changed, not the TA's.
        // Only ISP-2's point is revalidated; TA and ISP-1 points reused.
        assert_eq!(delta.stats.points_revalidated, 1);
        assert_eq!(delta.stats.points_reused, 2);
        assert!(delta.stats.full_pass_avoided());
        assert_equiv(&inc, &repo, now);
    }

    #[test]
    fn crl_revocation_revalidates_sibling_roas() {
        let now = SimTime::EPOCH + Duration::days(1);
        let mut b = RepositoryBuilder::new(5, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        b.add_roa(isp, Asn::new(100), vec![RoaPrefix::exact(p("85.1.0.0/16"))])
            .unwrap();
        b.add_roa(isp, Asn::new(200), vec![RoaPrefix::exact(p("85.2.0.0/16"))])
            .unwrap();
        let mut inc = IncrementalValidator::default();
        inc.apply(&b.snapshot(), now);

        // ROA EEs have serials 3 and 4 (TA=1, ISP=2).
        b.revoke(isp, 3).unwrap();
        let repo = b.snapshot();
        let delta = inc.apply(&repo, now);
        assert_eq!(delta.withdrawn.len(), 1);
        assert_eq!(delta.withdrawn[0].asn, Asn::new(100));
        assert!(delta.announced.is_empty());
        assert_eq!(delta.stats.points_revalidated, 1);
        assert_equiv(&inc, &repo, now);
    }

    #[test]
    fn key_rollover_revalidates_subtree() {
        let now = SimTime::EPOCH + Duration::days(1);
        let mut b = RepositoryBuilder::new(5, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        b.add_roa(isp, Asn::new(100), vec![RoaPrefix::exact(p("85.1.0.0/16"))])
            .unwrap();
        let mut inc = IncrementalValidator::default();
        inc.apply(&b.snapshot(), now);

        let new_isp = b.rollover_key(isp).unwrap();
        assert_ne!(new_isp, isp);
        let repo = b.snapshot();
        let delta = inc.apply(&repo, now);
        // Same VRP reappears under the new key: refcount sees no change.
        assert!(delta.is_empty(), "delta: {delta:?}");
        // TA point (new child cert) and the rolled CA's point both redo.
        assert_eq!(delta.stats.points_revalidated, 2);
        assert_equiv(&inc, &repo, now);
    }

    #[test]
    fn expiry_sweep_only_touches_expiring_points() {
        let start = SimTime::EPOCH + Duration::days(1);
        let mut b = RepositoryBuilder::new(5, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        b.add_roa(isp, Asn::new(100), vec![RoaPrefix::exact(p("85.1.0.0/16"))])
            .unwrap();
        let repo = b.snapshot();
        let mut inc = IncrementalValidator::default();
        inc.apply(&repo, start);
        assert_eq!(inc.vrps().len(), 1);

        // One hour later: still inside every era — nothing revalidates.
        let delta = inc.apply(&repo, start + Duration::hours(1));
        assert!(delta.is_empty());
        assert_eq!(delta.stats.points_revalidated, 0);
        assert_equiv(&inc, &repo, start + Duration::hours(1));

        // Past the CRL window (7 days): points expire, VRPs withdraw.
        let late = SimTime::EPOCH + Duration::days(30);
        let delta = inc.apply(&repo, late);
        assert_eq!(delta.withdrawn.len(), 1);
        assert!(inc.vrps().is_empty());
        assert_equiv(&inc, &repo, late);
    }

    #[test]
    fn manifest_replacement_revalidates_point() {
        let now = SimTime::EPOCH + Duration::days(1);
        let mut b = RepositoryBuilder::new(5, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        b.add_roa(isp, Asn::new(100), vec![RoaPrefix::exact(p("85.1.0.0/16"))])
            .unwrap();
        let mut inc = IncrementalValidator::default();
        inc.apply(&b.snapshot(), now);

        b.republish(isp).unwrap();
        let repo = b.snapshot();
        let delta = inc.apply(&repo, now);
        assert!(delta.is_empty());
        assert_eq!(delta.stats.points_revalidated, 1);
        assert_eq!(delta.stats.points_reused, 1);
        assert_equiv(&inc, &repo, now);
    }

    #[test]
    fn duplicate_vrps_reference_counted() {
        let now = SimTime::EPOCH + Duration::days(1);
        let mut b = RepositoryBuilder::new(5, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp1 = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        let isp2 = b.add_ca(ta, "ISP-2", res(&["85.0.0.0/8"])).unwrap();
        // Same VRP asserted by two ROAs at two different points.
        b.add_roa(
            isp1,
            Asn::new(100),
            vec![RoaPrefix::exact(p("85.1.0.0/16"))],
        )
        .unwrap();
        b.add_roa(
            isp2,
            Asn::new(100),
            vec![RoaPrefix::exact(p("85.1.0.0/16"))],
        )
        .unwrap();
        let mut inc = IncrementalValidator::default();
        let delta = inc.apply(&b.snapshot(), now);
        assert_eq!(delta.announced.len(), 1);

        // Removing one copy must not withdraw the VRP. EE serials: TA=1,
        // ISP certs 2 and 3, ROA EEs 4 and 5; drop ISP-2's copy (5).
        b.remove_roa(isp2, 5).unwrap();
        let repo = b.snapshot();
        let delta = inc.apply(&repo, now);
        assert!(delta.is_empty(), "delta: {delta:?}");
        assert_eq!(inc.vrps().len(), 1);
        assert_equiv(&inc, &repo, now);
    }

    #[test]
    fn missing_point_cached_and_recovered() {
        let now = SimTime::EPOCH + Duration::days(1);
        let mut b = RepositoryBuilder::new(5, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        b.add_roa(isp, Asn::new(100), vec![RoaPrefix::exact(p("85.1.0.0/16"))])
            .unwrap();
        let mut repo = b.snapshot();
        repo.points.remove(&isp);
        let mut inc = IncrementalValidator::default();
        let delta = inc.apply(&repo, now);
        assert!(delta.announced.is_empty());
        assert_equiv(&inc, &repo, now);

        // Reused on a second pass.
        let delta = inc.apply(&repo, now);
        assert_eq!(delta.stats.points_reused, delta.stats.points_total);

        // Point comes back: revalidated, VRP announced.
        let repo = b.snapshot();
        let delta = inc.apply(&repo, now);
        assert_eq!(delta.announced.len(), 1);
        assert_equiv(&inc, &repo, now);
    }

    /// TA → ISP-1 holding `n` ROAs and ISP-2 holding one, all valid, and
    /// a validator that has seen the first snapshot.
    fn counted_world(n: usize) -> (RepositoryBuilder, KeyId, IncrementalValidator) {
        let mut b = RepositoryBuilder::new(5, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp1 = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        let isp2 = b.add_ca(ta, "ISP-2", res(&["86.0.0.0/8"])).unwrap();
        for k in 0..n {
            let prefix = p(&format!("85.{k}.0.0/16"));
            b.add_roa(isp1, Asn::new(100), vec![RoaPrefix::exact(prefix)])
                .unwrap();
        }
        b.add_roa(
            isp2,
            Asn::new(200),
            vec![RoaPrefix::exact(p("86.1.0.0/16"))],
        )
        .unwrap();
        let mut inc = IncrementalValidator::default();
        inc.apply(&b.snapshot(), NOW);
        (b, isp1, inc)
    }

    /// One day in: every window the builder opens at the epoch is current.
    const NOW: SimTime = SimTime(Duration::days(1).0);

    /// The sizes every count below is taken at: the cost of an edit must
    /// not depend on how many ROAs sit beside it.
    const SIBLINGS: [usize; 2] = [1, 40];

    #[test]
    fn first_pass_verifies_every_signature_once() {
        for n in SIBLINGS {
            let (mut b, _, _) = counted_world(n);
            let repo = b.snapshot();
            let expected = repo.trust_anchors.len()
                + repo
                    .points
                    .values()
                    .map(|pp| 2 + pp.child_certs.len() + 2 * pp.roas.len())
                    .sum::<usize>();
            assert_eq!(expected, 11 + 2 * n);
            let stats = IncrementalValidator::default().apply(&repo, NOW).stats;
            assert_eq!(stats.signatures_verified, expected, "n={n}");
        }
    }

    #[test]
    fn unchanged_repository_verifies_nothing() {
        for n in SIBLINGS {
            let (mut b, _, mut inc) = counted_world(n);
            let stats = inc.apply(&b.snapshot(), NOW).stats;
            assert_eq!(stats.signatures_verified, 0, "n={n}");
            assert_eq!(stats.points_revalidated, 0);
        }
    }

    #[test]
    fn added_roa_costs_four_signatures() {
        for n in SIBLINGS {
            let (mut b, isp1, mut inc) = counted_world(n);
            b.add_roa(
                isp1,
                Asn::new(101),
                vec![RoaPrefix::exact(p("85.200.0.0/16"))],
            )
            .unwrap();
            let repo = b.snapshot();
            let delta = inc.apply(&repo, NOW);
            // CRL, manifest, the new EE certificate, the new content.
            assert_eq!(delta.stats.signatures_verified, 4, "n={n}");
            // The new ROA is decided; its siblings' decisions carry over.
            assert_eq!(delta.stats.objects_validated, 1, "n={n}");
            assert_eq!(delta.announced.len(), 1);
            assert_equiv(&inc, &repo, NOW);
        }
    }

    #[test]
    fn republication_costs_two_signatures() {
        for n in SIBLINGS {
            let (mut b, isp1, mut inc) = counted_world(n);
            b.republish(isp1).unwrap();
            let repo = b.snapshot();
            let delta = inc.apply(&repo, NOW);
            assert_eq!(delta.stats.signatures_verified, 2, "n={n}");
            assert_eq!(delta.stats.objects_validated, 0, "n={n}");
            assert!(delta.is_empty());
            assert_equiv(&inc, &repo, NOW);
        }
    }

    #[test]
    fn revocation_flips_a_decision_without_new_signatures() {
        for n in SIBLINGS {
            let (mut b, isp1, mut inc) = counted_world(n);
            let (_, serial, _) = b.list_roas()[0];
            b.revoke(isp1, serial).unwrap();
            let repo = b.snapshot();
            let delta = inc.apply(&repo, NOW);
            // The new CRL and manifest; the revoked EE's signature is
            // remembered and the CRL lookup alone rejects it: its
            // decision is the one not carried.
            assert_eq!(delta.stats.signatures_verified, 2, "n={n}");
            assert_eq!(delta.stats.objects_validated, 1, "n={n}");
            assert_eq!(delta.withdrawn.len(), 1);
            let object = format!("ROA #{serial} (");
            assert!(inc.report().log.iter().any(|e| {
                e.object.starts_with(&object) && e.rejected == Some(RejectReason::Revoked)
            }));
            assert_equiv(&inc, &repo, NOW);
        }
    }

    #[test]
    fn expiry_sweep_verifies_nothing() {
        for n in SIBLINGS {
            // ROAs directly under the anchor, so that one of them can
            // lapse before its issuing certificate does: one issued at
            // the epoch, `n` a hundred days later.
            let mut b = RepositoryBuilder::new(5, SimTime::EPOCH).crl_validity(Duration::years(3));
            let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
            b.add_roa(ta, Asn::new(99), vec![RoaPrefix::exact(p("84.0.0.0/16"))])
                .unwrap();
            b.set_now(SimTime::EPOCH + Duration::days(100));
            for k in 0..n {
                let prefix = p(&format!("85.{k}.0.0/16"));
                b.add_roa(ta, Asn::new(100), vec![RoaPrefix::exact(prefix)])
                    .unwrap();
            }
            let mut inc = IncrementalValidator::default();
            inc.apply(&b.snapshot(), SimTime::EPOCH + Duration::days(101));
            assert_eq!(inc.vrps().len(), n + 1);

            // A republication carries every decision, so the era the
            // sweep below leaves is one the carried decisions narrowed.
            let day_200 = SimTime::EPOCH + Duration::days(200);
            b.set_now(day_200);
            b.republish(ta).unwrap();
            let repo = b.snapshot();
            let delta = inc.apply(&repo, day_200);
            assert_eq!(delta.stats.objects_validated, 0, "n={n}");
            assert_equiv(&inc, &repo, day_200);

            let late = SimTime::EPOCH + Duration::years(1) + Duration::days(1);
            let delta = inc.apply(&repo, late);
            assert_eq!(delta.stats.points_revalidated, 1);
            // The lapsed ROA flips; the `n` still in their windows carry.
            assert_eq!(delta.stats.objects_validated, 1, "n={n}");
            assert_eq!(delta.stats.signatures_verified, 0, "n={n}");
            assert_eq!(delta.withdrawn.len(), 1);
            assert_eq!(delta.withdrawn[0].asn, Asn::new(99));
            assert_equiv(&inc, &repo, late);

            // The next republication carries the `Expired` decision.
            b.set_now(late);
            b.republish(ta).unwrap();
            let repo = b.snapshot();
            let delta = inc.apply(&repo, late);
            assert_eq!(delta.stats.objects_validated, 0, "n={n}");
            assert!(delta.is_empty());
            assert_equiv(&inc, &repo, late);
        }
    }

    #[test]
    fn key_rollover_reverifies_only_what_the_new_key_signed() {
        for n in SIBLINGS {
            let (mut b, isp1, mut inc) = counted_world(n);
            b.rollover_key(isp1).unwrap();
            let repo = b.snapshot();
            let delta = inc.apply(&repo, NOW);
            // At the parent: CRL, manifest and the replacement child
            // certificate (ISP-2's is remembered). Under the new key
            // nothing is: CRL, manifest, and every reissued ROA's EE
            // certificate and content.
            assert_eq!(delta.stats.signatures_verified, 3 + 2 + 2 * n, "n={n}");
            assert_eq!(delta.stats.points_revalidated, 2);
            assert!(delta.is_empty());
            assert_equiv(&inc, &repo, NOW);
        }
    }

    /// The `churn_rpki` epoch at a reduced size: four CAs each retire
    /// their oldest ROA and issue a fresh one.
    #[test]
    fn swap_epoch_verifies_four_signatures_per_republished_point() {
        const ROAS: usize = 10;
        let mut b = RepositoryBuilder::new(5, SimTime::EPOCH);
        let mut cas = Vec::new();
        for t in 0..2 {
            let ta = b.add_trust_anchor(&format!("TA-{t}"), res(&[&format!("{}.0.0.0/8", 10 + t)]));
            for c in 0..3 {
                let block = format!("{}.{c}.0.0/16", 10 + t);
                let ca = b
                    .add_ca(ta, &format!("CA-{t}-{c}"), res(&[&block]))
                    .unwrap();
                for k in 0..ROAS {
                    let prefix = p(&format!("{}.{c}.{k}.0/24", 10 + t));
                    b.add_roa(ca, Asn::new(100), vec![RoaPrefix::exact(prefix)])
                        .unwrap();
                }
                cas.push((t, c, ca));
            }
        }
        let mut inc = IncrementalValidator::default();
        inc.apply(&b.snapshot(), NOW);

        let published = b.list_roas();
        for &(t, c, ca) in &cas[..4] {
            let (_, oldest, _) = published.iter().find(|(owner, _, _)| *owner == ca).unwrap();
            b.remove_roa(ca, *oldest).unwrap();
            let prefix = p(&format!("{}.{c}.200.0/24", 10 + t));
            b.add_roa(ca, Asn::new(500), vec![RoaPrefix::exact(prefix)])
                .unwrap();
        }
        let repo = b.snapshot();
        let delta = inc.apply(&repo, NOW);
        assert_eq!(delta.stats.points_revalidated, 4);
        // Per point, the one new ROA: every sibling's decision carries.
        assert_eq!(delta.stats.objects_validated, 4);
        // Per point: CRL, manifest, one EE certificate, one content —
        // where validating the point afresh costs 2 + 2·ROAS.
        assert_eq!(delta.stats.signatures_verified, 4 * 4);
        assert_eq!((delta.announced.len(), delta.withdrawn.len()), (4, 4));
        assert_equiv(&inc, &repo, NOW);
    }

    /// The same repository under a renamed anchor: the points below it
    /// keep their issuing certificates and objects, but every decision
    /// names the anchor it was taken under, so none is carried.
    #[test]
    fn a_renamed_anchor_carries_no_decision() {
        for n in SIBLINGS {
            let (mut b, _, mut inc) = counted_world(n);
            let mut repo = b.snapshot();
            repo.trust_anchors[0].name = "RIPE NCC".to_string();
            let delta = inc.apply(&repo, NOW);
            assert!(delta.is_empty());
            assert_equiv(&inc, &repo, NOW);
        }
    }

    /// ISP-1's certificate reissued under the same key with narrower
    /// resources: its point keeps its key and its objects, but a
    /// decision taken under the old certificate is not carried — every
    /// ROA outside the new holdings now overclaims.
    #[test]
    fn a_reissued_issuer_carries_no_decision() {
        for n in SIBLINGS {
            let (mut b, isp1, mut inc) = counted_world(n);
            let mut repo = b.snapshot();
            let anchor = Keypair::derive(5, "ta/RIPE");
            let pp = repo.points.get_mut(&anchor.key_id).unwrap();
            let slot = pp
                .child_certs
                .iter()
                .position(|c| c.subject_key_id() == isp1)
                .unwrap();
            let cert = Arc::make_mut(&mut pp.child_certs[slot]);
            cert.resources = res(&["85.0.0.0/16"]);
            cert.signature = anchor.secret.sign(&cert.tbs_bytes());
            let mut entries = pp.manifest.entries.clone();
            entries.insert(PublicationPoint::cert_file_name(cert), cert.digest());
            pp.manifest = Arc::new(Manifest::issue(
                &anchor.secret,
                anchor.key_id,
                pp.manifest.manifest_number + 1,
                entries,
                pp.manifest.validity,
            ));
            let delta = inc.apply(&repo, NOW);
            // 85.0.0.0/16 alone is still held.
            assert_eq!(delta.withdrawn.len(), n - 1, "n={n}");
            assert_equiv(&inc, &repo, NOW);
        }
    }

    /// Two-CA world for the panic-isolation cases below.
    fn poisoned_world() -> (RepositoryBuilder, KeyId, KeyId) {
        let mut b = RepositoryBuilder::new(5, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp1 = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        let isp2 = b.add_ca(ta, "ISP-2", res(&["86.0.0.0/8"])).unwrap();
        b.add_roa(
            isp1,
            Asn::new(100),
            vec![RoaPrefix::exact(p("85.1.0.0/16"))],
        )
        .unwrap();
        b.add_roa(
            isp2,
            Asn::new(200),
            vec![RoaPrefix::exact(p("86.1.0.0/16"))],
        )
        .unwrap();
        (b, isp1, isp2)
    }

    /// A poisoned work item marks only its own publication point as
    /// skipped: siblings still validate, the skipped point's VRPs are
    /// withdrawn, and the next (healthy) pass recovers them.
    #[test]
    fn poisoned_point_is_skipped_and_recovered() {
        let now = SimTime::EPOCH + Duration::days(1);
        let (mut b, _isp1, isp2) = poisoned_world();
        for threads in [1usize, 4] {
            let mut inc = IncrementalValidator::default();
            inc.set_worker_threads(threads);
            inc.apply(&b.snapshot(), now);
            assert_eq!(inc.vrps().len(), 2);

            // Dirty both CAs (republish) with ISP-2 poisoned: only its
            // point skips, ISP-1 revalidates normally.
            b.republish(isp2).unwrap();
            inc.poison_point_for_tests(isp2);
            let repo = b.snapshot();
            let delta = inc.apply(&repo, now);
            assert_eq!(delta.stats.points_skipped, 1, "threads={threads}");
            assert_eq!(delta.withdrawn.len(), 1, "threads={threads}");
            assert_eq!(delta.withdrawn[0].asn, Asn::new(200));
            assert_eq!(inc.vrps().len(), 1);
            // The skipped point is invisible in the maintained log; the
            // healthy siblings still match the full pass's prefix.
            let replay = inc.report();
            assert!(replay
                .log
                .iter()
                .all(|e| !e.object.contains("ISP-2") || e.object.contains("CA cert")));

            // Healthy pass: the skipped entry is never reusable, so the
            // point revalidates and its VRP comes back.
            inc.clear_poison_for_tests();
            let delta = inc.apply(&repo, now);
            assert_eq!(delta.stats.points_skipped, 0);
            assert_eq!(delta.announced.len(), 1);
            assert_eq!(delta.announced[0].asn, Asn::new(200));
            assert_equiv(&inc, &repo, now);
        }
    }
}
