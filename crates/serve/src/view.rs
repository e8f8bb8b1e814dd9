//! The epoch-consistent view the HTTP plane answers from.
//!
//! Every response is computed against exactly one [`EpochView`]: a
//! `WorldSnapshot` and the `StudyResults` measured *from that snapshot*,
//! bound together and stamped with the shared epoch. The view is
//! published atomically behind an `Arc` swap ([`SharedView`]), so a
//! request either sees the world entirely at epoch N or entirely at
//! epoch N+1 — never VRPs from one epoch and measurements from another.
//! The constructor enforces the contract; the concurrency test in
//! `tests/concurrent_epoch.rs` hammers it under live churn.

use ripki::engine::WorldSnapshot;
use ripki::exposure::{exposure_curve, ExposureConfig};
use ripki::pipeline::{DomainMeasurement, StudyResults};
use ripki_bgp::rov::{RouteOriginValidator, ValidityDetail};
use ripki_bgp::topology::Topology;
use ripki_dns::DomainName;
use ripki_net::{Asn, IpPrefix};
use ripki_payload::VrpPayload;
use ripki_slurm::SlurmStats;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One epoch of the world, packaged for serving.
pub struct EpochView {
    snapshot: Arc<WorldSnapshot>,
    results: Arc<StudyResults>,
    payload: VrpPayload,
    /// A handle on `payload`'s set, which every query answers from.
    validator: RouteOriginValidator,
    topology: Option<Arc<Topology>>,
    exposure: ExposureConfig,
    exposure_memo: Mutex<HashMap<usize, Option<(f64, bool)>>>,
    /// RFC 8416 local-exception layer: when present, `payload` holds
    /// the excepted set and the stats say how far it diverges from the
    /// snapshot's.
    slurm: Option<SlurmStats>,
}

impl EpochView {
    /// Bind a snapshot to the results measured from it, serving the
    /// snapshot's own VRP set.
    ///
    /// # Panics
    ///
    /// If `snapshot.epoch() != results.epoch` — pairing a snapshot with
    /// results from a different epoch is exactly the inconsistency this
    /// type exists to rule out.
    pub fn new(
        snapshot: Arc<WorldSnapshot>,
        results: Arc<StudyResults>,
        topology: Option<Arc<Topology>>,
        exposure: ExposureConfig,
    ) -> EpochView {
        let payload = VrpPayload::from_shared(snapshot.epoch(), snapshot.vrps().clone());
        EpochView::with_payload(snapshot, results, topology, exposure, payload, None)
    }

    /// Bind a snapshot to the results measured from it and to the
    /// payload the origin serves for it: the snapshot's VRP set, or —
    /// with `slurm` stats — that set behind the RFC 8416 local-exception
    /// layer. Validity and exposure queries answer from the payload's
    /// set, so `/vrps.{json,csv}`, `/api/v1/validity`, and the
    /// co-hosted RTR cache installed from the same payload all agree.
    /// The exports and every co-hosted plane serve this one canonically
    /// ordered payload, so equal epochs are byte-identical across every
    /// wire form.
    ///
    /// # Panics
    ///
    /// If the snapshot, the results and the payload do not share one
    /// epoch, or if without `slurm` the payload is not the snapshot's
    /// set (compared by length and digest, O(1)).
    pub fn with_payload(
        snapshot: Arc<WorldSnapshot>,
        results: Arc<StudyResults>,
        topology: Option<Arc<Topology>>,
        exposure: ExposureConfig,
        payload: VrpPayload,
        slurm: Option<SlurmStats>,
    ) -> EpochView {
        assert_eq!(
            snapshot.epoch(),
            results.epoch,
            "epoch-consistency contract: snapshot and results must share an epoch"
        );
        assert_eq!(
            snapshot.epoch(),
            payload.epoch(),
            "epoch-consistency contract: snapshot and payload must share an epoch"
        );
        let (served, measured) = (payload.vrps(), snapshot.vrps());
        assert!(
            slurm.is_some()
                || (served.len(), served.digest()) == (measured.len(), measured.digest()),
            "epoch-consistency contract: without exceptions the payload is the snapshot's set"
        );
        // The first view of a ranking pays for the name index here, at
        // start-up, instead of in its first request; every later view is
        // built from a clone that already shares it.
        results.domains.ensure_index();
        EpochView {
            snapshot,
            results,
            validator: RouteOriginValidator::from(payload.shared_vrps()),
            payload,
            topology,
            exposure,
            exposure_memo: Mutex::new(HashMap::new()),
            slurm,
        }
    }

    /// How the local-exception layer changed this epoch's set, when one
    /// is configured: `(filtered, asserted)` VRP counts.
    pub fn slurm_stats(&self) -> Option<SlurmStats> {
        self.slurm
    }

    /// The validator queries answer from: a handle on the payload's
    /// set, exception-layered when configured.
    pub fn validator(&self) -> &RouteOriginValidator {
        &self.validator
    }

    /// Full RFC 6811 verdict for one announcement, answered from the
    /// same VRP set the exports serve (exception-layered when
    /// configured).
    pub fn validity(&self, prefix: &IpPrefix, origin: Asn) -> ValidityDetail {
        self.validator().validity(prefix, origin)
    }

    /// The epoch both halves of the view share.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// The epoch's VRP set as the crate-neutral payload every serving
    /// plane shares (handed to [`EpochView::with_payload`]).
    pub fn payload(&self) -> &VrpPayload {
        &self.payload
    }

    /// The underlying world snapshot.
    pub fn snapshot(&self) -> &WorldSnapshot {
        &self.snapshot
    }

    /// The measurements taken from this snapshot.
    pub fn results(&self) -> &StudyResults {
        &self.results
    }

    /// Look up a measured domain by either name form.
    pub fn domain(&self, name: &DomainName) -> Option<&DomainMeasurement> {
        self.domain_entry(name).map(|(_, d)| d)
    }

    /// Like [`EpochView::domain`], but also yields the domain's index in
    /// `results().domains` — the key the exposure memo is filed under.
    pub fn domain_entry(&self, name: &DomainName) -> Option<(usize, &DomainMeasurement)> {
        self.results.domains.lookup(name)
    }

    /// Hijack exposure `(capture_rate, fully_covered)` for the measured
    /// domain at `index`, or `None` when the view has no topology or the
    /// domain is not simulable (no usable pair, or its origin AS lies
    /// outside the topology).
    ///
    /// Memoized per epoch: the view is immutable, so the first request
    /// for a domain pays for the BGP hijack simulation and every repeat
    /// within the epoch is a map hit. The simulation itself runs outside
    /// the memo lock — a slow first computation never blocks lookups for
    /// other domains; two racing requests at worst both compute the same
    /// deterministic value.
    pub fn exposure(&self, index: usize) -> Option<(f64, bool)> {
        let topology = self.topology.as_deref()?;
        if let Some(hit) = self.memo_get(index) {
            return hit;
        }
        let domain = self.results.domains.get(index)?;
        let cfg = ExposureConfig {
            stride: 1,
            ..self.exposure.clone()
        };
        let computed = exposure_curve([domain], topology, self.validator(), &cfg)
            .first()
            .map(|e| (e.capture_rate, e.fully_covered));
        self.memo_put(index, computed);
        computed
    }

    fn memo_get(&self, index: usize) -> Option<Option<(f64, bool)>> {
        // Poison recovery: the memo caches pure-function results keyed
        // by index, so a panicked holder cannot have left a wrong or
        // torn value behind.
        let memo = self
            .exposure_memo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        memo.get(&index).copied()
    }

    fn memo_put(&self, index: usize, value: Option<(f64, bool)>) {
        // Poison recovery: see `memo_get`.
        let mut memo = self
            .exposure_memo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        memo.insert(index, value);
    }

    /// The AS topology for exposure simulation, when the operator
    /// provided one (scenario-backed servers do; file-backed worlds
    /// have no topology and skip exposure).
    pub fn topology(&self) -> Option<&Topology> {
        self.topology.as_deref()
    }
}

/// The swap point between the study engine and the request handlers.
pub struct SharedView {
    inner: RwLock<Arc<EpochView>>,
    /// Newest epoch known to exist anywhere upstream (announced via
    /// [`SharedView::announce_epoch`] before the view for it is built,
    /// and by every publish). `/status` reports the distance between
    /// this and the served epoch as `epoch_lag`.
    newest: AtomicU64,
}

impl SharedView {
    /// Start serving `view`.
    pub fn new(view: EpochView) -> SharedView {
        let newest = AtomicU64::new(view.epoch());
        SharedView {
            inner: RwLock::new(Arc::new(view)),
            newest,
        }
    }

    /// Record that epoch `epoch` exists upstream (validated by the
    /// engine, gossiped by a proxy) even though its view may not be
    /// built yet. Monotonic: older announcements never lower the mark.
    pub fn announce_epoch(&self, epoch: u64) {
        self.newest.fetch_max(epoch, Ordering::SeqCst);
    }

    /// The newest epoch announced or published so far.
    pub fn newest_epoch(&self) -> u64 {
        self.newest.load(Ordering::SeqCst)
    }

    /// How far the served view trails the newest announced epoch
    /// (0 when fully caught up).
    pub fn epoch_lag(&self) -> u64 {
        self.newest_epoch().saturating_sub(self.current().epoch())
    }

    /// The view requests should answer from right now. The returned
    /// `Arc` pins that epoch for the whole request even if a publish
    /// lands mid-handler.
    pub fn current(&self) -> Arc<EpochView> {
        // A poisoned lock only means some thread panicked while holding
        // it; the guarded value is a whole `Arc` that is never left
        // half-swapped, so recovering the guard is always safe and
        // beats cascading the panic into every request thread.
        let guard = self
            .inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(&guard)
    }

    /// Atomically replace the served view. Epochs must move forward;
    /// publishing a stale view would silently answer queries from the
    /// past.
    pub fn publish(&self, view: EpochView) {
        // Poison recovery: see `current` — the Arc swap below is atomic
        // from the reader's perspective, so a previously panicked holder
        // cannot have left torn state behind.
        let mut guard = self
            .inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        assert!(
            view.epoch() > guard.epoch(),
            "publish must advance the epoch ({} -> {})",
            guard.epoch(),
            view.epoch()
        );
        self.newest.fetch_max(view.epoch(), Ordering::SeqCst);
        let retired = std::mem::replace(&mut *guard, Arc::new(view));
        // Unlock first: if this is the retired view's last reference,
        // freeing it must not keep every reader waiting on the lock.
        drop(guard);
        drop(retired);
    }
}
