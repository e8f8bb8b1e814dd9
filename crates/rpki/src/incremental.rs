//! Per-object incremental validation.
//!
//! Full validation ([`crate::validate::validate`]) re-checks every
//! signature in the repository on every run. Between two relying-party
//! passes almost nothing changes: the paper's longitudinal study replays
//! years of ROA churn where each day touches a handful of publication
//! points out of thousands. [`IncrementalValidator`] exploits that at
//! two grains: it caches the outcome of every publication point and only
//! revalidates the ones whose inputs changed, and when it does revalidate
//! a point it only re-does the cryptography of the objects that are new.
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
//!    thread count can change wall-clock time only, never results.
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
//! * **Execute.** A dirty point runs `validate_point` in full: every
//!   decision, in order, with every short-circuit, era narrowing, CRL
//!   lookup, window and resource check. But the three answers that
//!   depend on nothing except an object's bytes and the issuing key —
//!   its manifest digest, its issuer-signature verdict, a ROA's
//!   content-signature verdict — are taken from the previous outcome
//!   when the object is the very allocation that outcome holds *and*
//!   the issuing certificate is too. Republishing a 400-ROA point to
//!   swap one ROA verifies four signatures, not 802
//!   ([`ApplyStats::signatures_verified`]).
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
//! ## The event log is maintained, not replayed
//!
//! Every cached point pre-renders its event stream into chunks split at
//! child-descent positions (`Arc`-shared, so relinearization is pointer
//! work). Whenever a pass changes any point or trust anchor, the flat
//! log is re-linearized from the cached tree in O(points); an unchanged
//! pass leaves it untouched. [`report`](IncrementalValidator::report)
//! therefore just concatenates the maintained chunks and reads the VRP
//! set off the refcount table — there is no full-rebuild replay path.

use crate::cert::Cert;
use crate::repo::{PublicationPoint, Repository};
use crate::time::{Era, SimTime};
use crate::validate::{
    ca_accept_event, missing_point_event, trust_anchor_event, validate_point, ObjectFacts,
    PointFacts, PointItem, PointOutcome, ValidationEvent, ValidationOptions, ValidationReport, Vrp,
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
    /// Individual object decisions recomputed (trust anchors, CA certs,
    /// ROAs, point-level CRL/manifest verdicts).
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
    /// The anchor certificate. One allocation for as long as the
    /// verdict is reused, so the anchor's own publication point — whose
    /// issuing certificate this is — can be reused with it.
    cert: Arc<Cert>,
    era: Era,
    event: ValidationEvent,
    usable: bool,
}

/// Cached outcome for one publication point (or its absence), together
/// with the inputs it was computed from.
///
/// The point's event stream is pre-rendered into `chunks`: `chunks[i]`
/// holds the events up to and including child `i`'s accept event, and
/// the final chunk holds the trailing events. Rendering once at
/// validation time makes relinearizing the whole log after a change
/// pure `Arc`-pointer work.
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
    /// each object, slot for slot.
    facts: PointFacts,
    era: Era,
    /// Pre-rendered event chunks; `chunks.len() == children.len() + 1`
    /// for validated points, empty for skipped ones.
    chunks: Vec<Arc<Vec<ValidationEvent>>>,
    /// Accepted child CA certificates in walk order, interleaved with
    /// `chunks` — the allocations `published` holds, so they are the
    /// children's issuing certificates by identity.
    children: Vec<Arc<Cert>>,
    vrps: Vec<Vrp>,
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
    fn from_outcome(
        ta_name: &Arc<str>,
        issuer: &Arc<Cert>,
        pp: &PublicationPoint,
        outcome: PointOutcome,
    ) -> CachedPoint {
        let rejected = outcome
            .items
            .iter()
            .filter(|i| matches!(i, PointItem::Event(e) if e.rejected.is_some()))
            .count();
        let objects = outcome.items.len();
        let (chunks, children) = render_chunks(&outcome.items, ta_name);
        CachedPoint {
            ta_name: Arc::clone(ta_name),
            issuer: Arc::clone(issuer),
            published: Some(pp.clone()),
            facts: outcome.facts,
            era: outcome.era,
            chunks,
            children,
            vrps: outcome.vrps,
            rejected,
            objects,
            signatures: outcome.signatures_verified,
            skipped: false,
        }
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
            vrps: Vec::new(),
            rejected: 0,
            objects: 0,
            signatures: 0,
            skipped: false,
        }
    }

    fn missing(ta_name: Arc<str>, issuer: Arc<Cert>) -> CachedPoint {
        let event = missing_point_event(&ta_name, &issuer);
        CachedPoint {
            chunks: vec![Arc::new(vec![event])],
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

    /// What this outcome established that still holds for `pp` under
    /// `issuer`: the facts of each object of `pp` that is the very
    /// allocation this entry holds — and nothing at all unless the
    /// issuing certificate is, too.
    fn recall(&self, issuer: &Arc<Cert>, pp: &PublicationPoint) -> PointFacts {
        let mut known = PointFacts::unknown(pp);
        let Some(mine) = &self.published else {
            return known;
        };
        if !Arc::ptr_eq(&self.issuer, issuer) {
            return known;
        }
        if Arc::ptr_eq(&mine.crl, &pp.crl) {
            known.crl = self.facts.crl;
        }
        if Arc::ptr_eq(&mine.manifest, &pp.manifest) {
            known.manifest = self.facts.manifest;
        }
        carry_over(
            &mine.child_certs,
            &self.facts.child_certs,
            &pp.child_certs,
            &mut known.child_certs,
        );
        carry_over(&mine.roas, &self.facts.roas, &pp.roas, &mut known.roas);
        known
    }
}

/// Copy the facts of each `old` object into the `known` slot of the
/// `new` object at the same address, wherever there is one.
fn carry_over<T>(
    old: &[Arc<T>],
    old_facts: &[ObjectFacts],
    new: &[Arc<T>],
    known: &mut [ObjectFacts],
) {
    let by_address: HashMap<*const T, ObjectFacts> = old
        .iter()
        .map(Arc::as_ptr)
        .zip(old_facts.iter().copied())
        .collect();
    for (object, slot) in new.iter().zip(known) {
        if let Some(facts) = by_address.get(&Arc::as_ptr(object)) {
            *slot = *facts;
        }
    }
}

/// Render a point's items into event chunks split at child descents
/// (each child's accept event closes its chunk), plus the child list.
fn render_chunks(
    items: &[PointItem],
    ta_name: &str,
) -> (Vec<Arc<Vec<ValidationEvent>>>, Vec<Arc<Cert>>) {
    let mut chunks = Vec::new();
    let mut children = Vec::new();
    let mut current: Vec<ValidationEvent> = Vec::new();
    for item in items {
        match item {
            PointItem::Event(e) => current.push(e.clone()),
            PointItem::Child(child) => {
                current.push(ca_accept_event(ta_name, child));
                chunks.push(Arc::new(std::mem::take(&mut current)));
                children.push(Arc::clone(child));
            }
        }
    }
    chunks.push(Arc::new(current));
    (chunks, children)
}

/// One frontier entry after the plan stage classified it.
enum Planned {
    /// Cached outcome still valid: committed untouched.
    Reused(KeyId, CachedPoint),
    /// Inputs changed (or the point is gone): the outcome is computed
    /// on the (parallel) execute stage, which may still recall
    /// per-object facts from `old`.
    Dirty {
        ca_id: KeyId,
        cert: Arc<Cert>,
        ta_name: Arc<str>,
        old: Option<CachedPoint>,
    },
}

/// A CA certificate whose publication point the next wave visits, and
/// the trust anchor it descends from.
type Frontier = Vec<(Arc<Cert>, Arc<str>)>;

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
    rejected: usize,
    /// The maintained flat event log: the cached tree linearized in walk
    /// order, `Arc`-sharing each point's pre-rendered chunks. Rebuilt in
    /// O(points) only by passes that changed something.
    log_pieces: Vec<Arc<Vec<ValidationEvent>>>,
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
            log_pieces: Vec::new(),
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
        self.rejected
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
        let mut visited: HashSet<KeyId> = HashSet::new();
        // Previous cache; entries still live move back into self.points,
        // the rest are dead and release their VRPs.
        let mut prev = std::mem::take(&mut self.points);
        let prev_tas = std::mem::take(&mut self.tas);
        // Whether anything in the cached tree changed this pass — only
        // then is the maintained flat log relinearized.
        let mut log_dirty = false;

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
                    log_dirty = true;
                    let mut era = Era::unbounded();
                    let event =
                        trust_anchor_event(ta, now, &mut era, &mut stats.signatures_verified);
                    CachedTa {
                        name: ta.name.as_str().into(),
                        cert: Arc::new(ta.cert.clone()),
                        era,
                        usable: event.rejected.is_none(),
                        event,
                    }
                }
            };
            if entry.usable {
                frontier.push((Arc::clone(&entry.cert), Arc::clone(&entry.name)));
            }
            self.tas.push(entry);
        }
        // Anchor removals and reorders change the log even when every
        // surviving anchor hit the cache.
        if self.tas.len() != prev_tas.len()
            || self
                .tas
                .iter()
                .zip(&prev_tas)
                .any(|(a, b)| !Arc::ptr_eq(&a.cert, &b.cert))
        {
            log_dirty = true;
        }

        while !frontier.is_empty() {
            // --- Plan (serial): compare the frontier with the cache. ---
            let mut plan: Vec<Planned> = Vec::with_capacity(frontier.len());
            for (cert, ta_name) in frontier.drain(..) {
                let ca_id = cert.subject_key_id();
                if !visited.insert(ca_id) {
                    continue;
                }
                stats.points_total += 1;
                match prev.remove(&ca_id) {
                    Some(entry)
                        if entry.reusable(&ta_name, &cert, repo.points.get(&ca_id), now) =>
                    {
                        stats.points_reused += 1;
                        plan.push(Planned::Reused(ca_id, entry));
                    }
                    old => {
                        stats.points_revalidated += 1;
                        plan.push(Planned::Dirty {
                            ca_id,
                            cert,
                            ta_name,
                            old,
                        });
                    }
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
                        return CachedPoint::missing(Arc::clone(ta_name), Arc::clone(cert));
                    };
                    let known = match old {
                        Some(old) => old.recall(cert, pp),
                        None => PointFacts::unknown(pp),
                    };
                    let outcome = validate_point(cert, pp, ta_name, now, options, known);
                    CachedPoint::from_outcome(ta_name, cert, pp, outcome)
                },
            );

            // --- Commit (serial, plan order): fold outcomes back. ---
            let mut outcome_iter = outcomes.into_iter();
            for planned in plan {
                match planned {
                    Planned::Reused(ca_id, entry) => {
                        for child in &entry.children {
                            frontier.push((Arc::clone(child), Arc::clone(&entry.ta_name)));
                        }
                        self.points.insert(ca_id, entry);
                    }
                    Planned::Dirty {
                        ca_id,
                        cert,
                        ta_name,
                        old,
                    } => {
                        log_dirty = true;
                        let entry = match outcome_iter
                            .next()
                            .expect("one execute outcome per dirty item")
                        {
                            Some(entry) => {
                                stats.objects_validated += entry.objects;
                                stats.signatures_verified += entry.signatures;
                                entry
                            }
                            None => {
                                stats.points_skipped += 1;
                                CachedPoint::skipped(ta_name, cert)
                            }
                        };
                        self.commit_fresh(ca_id, entry, old, &mut frontier, &mut touched);
                    }
                }
            }
        }

        // Points no longer reachable: withdraw their VRPs.
        for (_, dead) in prev.drain() {
            log_dirty = true;
            self.release_vrps(&dead.vrps, &mut touched);
        }

        self.rejected = self
            .tas
            .iter()
            .filter(|t| t.event.rejected.is_some())
            .count()
            + self.points.values().map(|p| p.rejected).sum::<usize>();

        if log_dirty {
            self.relinearize_log();
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

    /// Commit one freshly computed (or skipped) entry: swap the VRP
    /// refcounts, extend the next wave's frontier, install the entry.
    fn commit_fresh(
        &mut self,
        ca_id: KeyId,
        entry: CachedPoint,
        old: Option<CachedPoint>,
        frontier: &mut Frontier,
        touched: &mut HashMap<Vrp, bool>,
    ) {
        if let Some(old) = old {
            self.release_vrps(&old.vrps, touched);
        }
        self.acquire_vrps(&entry.vrps, touched);
        for child in &entry.children {
            frontier.push((Arc::clone(child), Arc::clone(&entry.ta_name)));
        }
        self.points.insert(ca_id, entry);
    }

    fn acquire_vrps(&mut self, vrps: &[Vrp], touched: &mut HashMap<Vrp, bool>) {
        for vrp in vrps {
            let count = self.vrp_counts.entry(*vrp).or_insert(0);
            touched.entry(*vrp).or_insert(*count > 0);
            *count += 1;
        }
    }

    fn release_vrps(&mut self, vrps: &[Vrp], touched: &mut HashMap<Vrp, bool>) {
        for vrp in vrps {
            let count = self
                .vrp_counts
                .get_mut(vrp)
                .expect("released VRP was never acquired");
            touched.entry(*vrp).or_insert(true);
            *count -= 1;
            if *count == 0 {
                self.vrp_counts.remove(vrp);
            }
        }
    }

    /// Rebuild the maintained flat log from the cached tree: a
    /// depth-first descent (matching the full validator's walk order)
    /// that clones chunk `Arc`s, never events — O(points), not
    /// O(events).
    fn relinearize_log(&mut self) {
        let mut pieces: Vec<Arc<Vec<ValidationEvent>>> = Vec::with_capacity(self.log_pieces.len());
        let mut seen: HashSet<KeyId> = HashSet::new();
        for ta in &self.tas {
            pieces.push(Arc::new(vec![ta.event.clone()]));
            if ta.usable {
                Self::linearize(&self.points, &ta.cert, &mut seen, &mut pieces);
            }
        }
        self.log_pieces = pieces;
    }

    fn linearize(
        points: &HashMap<KeyId, CachedPoint>,
        ca_cert: &Cert,
        seen: &mut HashSet<KeyId>,
        pieces: &mut Vec<Arc<Vec<ValidationEvent>>>,
    ) {
        let ca_id = ca_cert.subject_key_id();
        if !seen.insert(ca_id) {
            return;
        }
        let Some(entry) = points.get(&ca_id) else {
            return;
        };
        for (i, chunk) in entry.chunks.iter().enumerate() {
            if !chunk.is_empty() {
                pieces.push(Arc::clone(chunk));
            }
            if let Some(child) = entry.children.get(i) {
                Self::linearize(points, child, seen, pieces);
            }
        }
    }

    /// The [`ValidationReport`] a full `validate_with` run would produce
    /// for the last applied `(repo, now)` — identical event order and
    /// VRP set — assembled from the incrementally maintained log and the
    /// VRP refcount table. No walk is replayed and nothing is
    /// revalidated; the cost is one clone of the event stream.
    ///
    /// A point skipped by panic isolation is absent from the log until a
    /// later pass revalidates it.
    pub fn report(&self) -> ValidationReport {
        let total: usize = self.log_pieces.iter().map(|c| c.len()).sum();
        let mut log = Vec::with_capacity(total);
        for chunk in &self.log_pieces {
            log.extend(chunk.iter().cloned());
        }
        ValidationReport {
            vrps: self.vrps(),
            log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repo::RepositoryBuilder;
    use crate::resources::Resources;
    use crate::roa::RoaPrefix;
    use crate::time::Duration;
    use crate::validate::validate;
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
            // Every decision at the point is still re-derived.
            assert_eq!(delta.stats.objects_validated, n + 1);
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
            assert_eq!(delta.stats.objects_validated, n);
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
            // remembered and the CRL lookup alone rejects it.
            assert_eq!(delta.stats.signatures_verified, 2, "n={n}");
            assert_eq!(delta.withdrawn.len(), 1);
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
            let repo = b.snapshot();
            let mut inc = IncrementalValidator::default();
            inc.apply(&repo, SimTime::EPOCH + Duration::days(101));
            assert_eq!(inc.vrps().len(), n + 1);

            let late = SimTime::EPOCH + Duration::years(1) + Duration::days(1);
            let delta = inc.apply(&repo, late);
            assert_eq!(delta.stats.points_revalidated, 1);
            assert_eq!(delta.stats.objects_validated, n + 1);
            assert_eq!(delta.stats.signatures_verified, 0, "n={n}");
            assert_eq!(delta.withdrawn.len(), 1);
            assert_eq!(delta.withdrawn[0].asn, Asn::new(99));
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
        assert_eq!(delta.stats.objects_validated, 4 * ROAS);
        // Per point: CRL, manifest, one EE certificate, one content —
        // where validating the point afresh costs 2 + 2·ROAS.
        assert_eq!(delta.stats.signatures_verified, 4 * 4);
        assert_eq!((delta.announced.len(), delta.withdrawn.len()), (4, 4));
        assert_equiv(&inc, &repo, NOW);
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
