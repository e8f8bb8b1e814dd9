//! The origin driver: the one shipped spelling of "commit an epoch and
//! hand it to the serving planes".
//!
//! An origin is a study engine plus whatever answers from it — the HTTP
//! query plane's [`SharedView`], an RTR [`CacheServer`], a gossip
//! channel. [`EpochDriver::step`] advances all of them by one epoch, in
//! one order: `apply_events` → announce the epoch → advance the raw
//! payload by the engine's exact delta → one [`SlurmApplier::ingest`] →
//! publish one [`EpochView`] over the excepted payload → install the
//! same update into the cache. `ripki-cli longitudinal`, `ripki-cli
//! serve` and the proxy's `engine` unit are loops around it;
//! `ripki-cli rtr-serve`, which validates a directory and measures
//! nothing, ends in the same [`Planes::hand_off`] with the RTR plane
//! only.

use ripki::engine::{EpochDelta, StudyEngine, WorldSnapshot};
use ripki::exposure::ExposureConfig;
use ripki::pipeline::StudyResults;
use ripki_bgp::topology::Topology;
use ripki_payload::{PayloadUpdate, VrpDelta, VrpPayload};
use ripki_rtr::CacheServer;
use ripki_serve::{EpochView, SharedView};
use ripki_slurm::{ExceptionSet, SlurmApplier};
use ripki_websim::churn::EpochChurn;
use ripki_websim::Scenario;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The epoch whose hand-off did not advance the served set: the planes
/// already hold it or a later one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OriginError(pub u64);

impl fmt::Display for OriginError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch {} does not advance the served set", self.0)
    }
}

impl std::error::Error for OriginError {}

/// The HTTP plane: the swap point the server answers from (created by
/// the first hand-off — a `SharedView` cannot exist without a view) and
/// what every view of it is built with.
struct HttpPlane {
    shared: Option<Arc<SharedView>>,
    topology: Option<Arc<Topology>>,
    exposure: ExposureConfig,
}

/// What an origin hands its epochs to: the exception layer every plane
/// sits behind, and the planes attached at construction.
pub struct Planes {
    /// Holds the raw and the excepted payload of the last epoch handed
    /// off; an empty exception set without `--slurm`.
    slurm: SlurmApplier,
    /// Whether an exception file was given (even one without rules):
    /// views then answer from the excepted set and report its stats.
    layered: bool,
    http: Option<HttpPlane>,
    rtr: Option<Arc<CacheServer>>,
}

impl Planes {
    /// No plane attached yet; `exceptions` is the compiled `--slurm`
    /// file when one was given.
    pub fn new(exceptions: Option<ExceptionSet>) -> Planes {
        Planes {
            layered: exceptions.is_some(),
            slurm: SlurmApplier::new(exceptions.unwrap_or_default()),
            http: None,
            rtr: None,
        }
    }

    /// Publish an [`EpochView`] per epoch, built with this topology and
    /// exposure configuration.
    pub fn with_http(
        mut self,
        topology: Option<Arc<Topology>>,
        exposure: ExposureConfig,
    ) -> Planes {
        self.http = Some(HttpPlane {
            shared: None,
            topology,
            exposure,
        });
        self
    }

    /// Install every epoch into `cache`, with the epoch as RTR serial.
    pub fn with_rtr(mut self, cache: Arc<CacheServer>) -> Planes {
        self.rtr = Some(cache);
        self
    }

    /// The HTTP plane's swap point, once the first epoch was handed to
    /// a plane attached with [`with_http`](Self::with_http).
    pub fn view(&self) -> Option<&Arc<SharedView>> {
        self.http.as_ref()?.shared.as_ref()
    }

    /// Hand one committed epoch to every attached plane: `snapshot` is
    /// the engine's current one, `delta` what `apply_events` returned
    /// for it (`None` at epoch 1), `results` the study measured from it
    /// (`None` only for an origin that measured nothing, which
    /// therefore has no view to publish). Returns the raw update — what
    /// an `engine` unit gossips.
    ///
    /// The payload is a handle on the snapshot's VRP set — the previous
    /// epoch's advanced by this delta, sharing every untouched chunk —
    /// so building it copies no VRP. The exception layer maps the same
    /// delta, so excepted VRPs never churn on the wire, and the cache
    /// streams it when it chains onto its serial and reinstalls the
    /// snapshot otherwise.
    pub fn hand_off(
        &mut self,
        snapshot: Arc<WorldSnapshot>,
        delta: Option<&EpochDelta>,
        results: Option<&StudyResults>,
    ) -> Result<PayloadUpdate, OriginError> {
        let delta = delta.map(|d| {
            VrpDelta::new(
                d.from_epoch,
                d.to_epoch,
                d.announced.clone(),
                d.withdrawn.clone(),
            )
        });
        let payload = VrpPayload::from_shared(snapshot.epoch(), snapshot.vrps().clone());
        let raw = PayloadUpdate { payload, delta };
        let applied = self.slurm.ingest(&raw).ok_or(OriginError(raw.epoch()))?;

        // HTTP views and RTR serials advance in lockstep with the
        // engine's epoch — the serving plane's consistency contract.
        if let (Some(http), Some(results)) = (&mut self.http, results) {
            let view = EpochView::with_payload(
                snapshot,
                Arc::new(results.clone()),
                http.topology.clone(),
                http.exposure.clone(),
                applied.update.payload.clone(),
                self.layered.then(|| self.slurm.stats()),
            );
            match &http.shared {
                Some(shared) => shared.publish(view),
                None => http.shared = Some(Arc::new(SharedView::new(view))),
            }
        }
        if let Some(cache) = &self.rtr {
            cache.install_update(&applied.update);
        }
        Ok(raw)
    }
}

/// What one [`EpochDriver::step`] did: what its callers print and
/// forward.
pub struct EpochReport {
    /// The engine's account of the epoch: events applied, domains
    /// re-measured, VRPs announced and withdrawn, validator stats.
    pub delta: EpochDelta,
    /// The raw update, for the fabric.
    pub raw: PayloadUpdate,
}

/// A measured world and the planes serving it, advanced together.
pub struct EpochDriver {
    engine: StudyEngine,
    results: StudyResults,
    planes: Planes,
}

impl EpochDriver {
    /// Measure `scenario` on `threads` workers (0 = auto-detect) and
    /// hand epoch 1 to `planes`.
    pub fn measure(
        scenario: &Scenario,
        threads: usize,
        mut planes: Planes,
    ) -> Result<EpochDriver, OriginError> {
        let engine = StudyEngine::for_scenario(scenario, threads);
        let results = engine.run(&scenario.ranking);
        planes.hand_off(engine.snapshot(), None, Some(&results))?;
        Ok(EpochDriver {
            engine,
            results,
            planes,
        })
    }

    /// Apply one churn batch and hand the epoch it commits to every
    /// plane.
    pub fn step(&mut self, batch: &EpochChurn) -> Result<EpochReport, OriginError> {
        let delta = self.engine.apply_events(batch, &mut self.results);
        // The epoch exists the moment the engine commits it; the
        // announcement lets `/status` report lag until its view is
        // published.
        if let Some(view) = self.planes.view() {
            view.announce_epoch(delta.to_epoch);
        }
        let raw =
            self.planes
                .hand_off(self.engine.snapshot(), Some(&delta), Some(&self.results))?;
        Ok(EpochReport { delta, raw })
    }

    /// The engine (its epoch, its current snapshot).
    pub fn engine(&self) -> &StudyEngine {
        &self.engine
    }

    /// The study as of the last epoch.
    pub fn results(&self) -> &StudyResults {
        &self.results
    }

    /// The validated VRP set of the last epoch.
    pub fn raw(&self) -> &VrpPayload {
        self.planes
            .slurm
            .last_raw()
            .expect("measure handed epoch 1 off")
    }

    /// The excepted set every plane answers from.
    pub fn served(&self) -> &VrpPayload {
        self.planes
            .slurm
            .last_out()
            .expect("measure handed epoch 1 off")
    }

    /// The HTTP plane's swap point, when one is attached.
    pub fn view(&self) -> Option<&Arc<SharedView>> {
        self.planes.view()
    }
}

/// The longest stretch [`pause`] sleeps without re-checking its flag.
const PAUSE_SLICE: Duration = Duration::from_millis(50);

/// Sleep for `interval`, or until `stop` is raised — whichever comes
/// first. Returns whether the whole interval passed. The pause between
/// two epochs of every origin loop, and the signal wait of every
/// serving command: a shutdown is honoured within one slice however
/// long the interval.
pub fn pause(interval: Duration, stop: &AtomicBool) -> bool {
    let mut left = interval;
    while !stop.load(Ordering::SeqCst) {
        if left.is_zero() {
            return true;
        }
        let slice = left.min(PAUSE_SLICE);
        std::thread::sleep(slice);
        left -= slice;
    }
    false
}
