//! Ingest units and combinators: everything that *produces* payload
//! updates into the fabric.
//!
//! Only the units that wait on a clock or a socket — `engine`, `rtr`,
//! `json` — run as threads (workspace policy: `std::net` + threads, no
//! async). Each follows a publish (and its final close) with
//! [`Fabric::pump`], which carries the update through every stage
//! downstream on that same thread, and re-checks a shared shutdown flag
//! between blocking steps. The `slurm` unit and the combinators do no
//! I/O: each is a [`Stage`], a non-blocking step the pump calls under
//! the fabric lock.

use crate::comms::{Gossip, Subscription};
use crate::log::Log;
use crate::manager::{Fabric, Stage};
use crate::origin::{pause, EpochDriver, Planes};
use ripki_payload::{PayloadUpdate, VrpDelta, VrpPayload, VrpSet, VrpTriple};
use ripki_rtr::{Backoff, Client, ClientError, PduError, WireDelta};
use ripki_slurm::{SlurmApplier, SlurmFile};
use ripki_websim::churn::{ChurnConfig, ChurnStream};
use ripki_websim::{Scenario, ScenarioConfig};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, SystemTime};

/// The local-validator unit: a study engine plus its churn stream,
/// publishing one payload per epoch.
#[derive(Debug, Clone)]
pub struct EngineUnitConfig {
    /// Ranked domains in the simulated world.
    pub domains: usize,
    /// World seed.
    pub seed: u64,
    /// Churn seed.
    pub churn_seed: u64,
    /// Churn epochs to publish after the initial one (the unit closes
    /// its output when done).
    pub epochs: u64,
    /// Pause between epochs.
    pub interval: Duration,
}

/// Run a local study engine as an ingest unit: an origin with no
/// serving plane of its own. Publishes the initial validation epoch,
/// then `epochs` churn epochs (each with its exact engine delta
/// attached), then closes its output.
pub fn run_engine_unit(
    name: &str,
    config: &EngineUnitConfig,
    gossip: &Gossip,
    fabric: &Fabric,
    log: &Log,
    shutdown: &AtomicBool,
) {
    let scenario = Scenario::build(ScenarioConfig {
        seed: config.seed,
        ..ScenarioConfig::with_domains(config.domains)
    });
    let publish = |update: PayloadUpdate| {
        log.line(&format_args!(
            "unit {name} (engine): epoch {} validated ({})",
            update.epoch(),
            update.payload,
        ));
        gossip.publish(update);
        fabric.pump(log);
    };
    let mut stream = ChurnStream::new(
        &scenario,
        ChurnConfig {
            seed: config.churn_seed,
            ..ChurnConfig::default()
        },
    );
    let outcome = EpochDriver::measure(&scenario, 0, Planes::new(None)).and_then(|mut driver| {
        publish(PayloadUpdate::snapshot(driver.raw().clone()));
        for _ in 0..config.epochs {
            if !pause(config.interval, shutdown) {
                break;
            }
            publish(driver.step(&stream.next_epoch())?.raw);
        }
        Ok(())
    });
    if let Err(e) = outcome {
        log.line(&format_args!("unit {name} (engine): {e}"));
    }
    log.line(&format_args!("unit {name} (engine): finished"));
    gossip.close();
    fabric.pump(log);
}

/// The RTR ingest unit: a router-side client feeding an upstream
/// cache's serials into the fabric as epochs.
#[derive(Debug, Clone)]
pub struct RtrUnitConfig {
    /// Upstream cache address (`host:port`).
    pub connect: String,
    /// The socket read timeout while waiting for a Serial Notify: how
    /// often an idle unit re-checks for shutdown, and the pause after a
    /// failed sync. Not on the latency path — a notify ends the wait.
    pub poll: Duration,
}

/// How long the `rtr` unit's dial waits for a connect before it backs
/// off and retries. Not `poll`: that can be a minute, and shutdown waits
/// out a dial in flight.
const DIAL_TIMEOUT: Duration = Duration::from_secs(1);

/// Run an RTR client unit until shutdown, with one [`Client`] for its
/// whole life. A dial or a sync that fails at the transport is logged at
/// once; the unit then waits out a capped exponential [`Backoff`]
/// (50 ms doubling to 2 s, reset by a successful sync), redials, and
/// [`Client::reconnect`]s, so the session resumes with an incremental
/// Serial Query. Any other failure is retried on the same connection
/// after `poll`. Every wait is a [`pause`] and every dial gives up after
/// `DIAL_TIMEOUT`, so shutdown is honoured within about a second even
/// while the upstream is down or drops SYNs. What each sync publishes is
/// [`RelayEpochs::after_sync`]'s decision.
pub fn run_rtr_unit(
    name: &str,
    config: &RtrUnitConfig,
    gossip: &Gossip,
    fabric: &Fabric,
    log: &Log,
    shutdown: &AtomicBool,
) {
    let mut backoff = Backoff::new(Duration::from_millis(50), Duration::from_secs(2));
    // Dial until connected, waiting out the backoff after each failure;
    // `None` once shut down.
    let dial = |backoff: &mut Backoff| loop {
        let dialed = ripki_rtr::dial(&config.connect, DIAL_TIMEOUT).and_then(|stream| {
            // The read timeout bounds an idle `poll_notify`, i.e. how
            // often the shutdown flag is re-checked; a notify returns at
            // once.
            stream.set_read_timeout(Some(config.poll))?;
            Ok(stream)
        });
        match dialed {
            Ok(stream) => return Some(stream),
            Err(e) => log.line(&format_args!(
                "unit {name} (rtr): dial {} failed: {e}",
                config.connect,
            )),
        }
        if !pause(backoff.next_delay(), shutdown) {
            return None;
        }
    };
    let Some(stream) = dial(&mut backoff) else {
        gossip.close();
        fabric.pump(log);
        return;
    };
    let mut client = Client::new(stream);
    let mut epochs = RelayEpochs::default();

    while !shutdown.load(Ordering::SeqCst) {
        match client.sync() {
            Ok(_) => backoff.reset(),
            Err(e) => {
                log.line(&format_args!("unit {name} (rtr): sync failed: {e}"));
                if !matches!(e, ClientError::Pdu(PduError::Io { .. })) {
                    pause(config.poll, shutdown);
                } else if pause(backoff.next_delay(), shutdown) {
                    // The connection died: resume the session on a new
                    // one (`None` means shutdown, which the loop sees).
                    if let Some(stream) = dial(&mut backoff) {
                        client.reconnect(stream);
                    }
                }
                continue;
            }
        }
        if let Some(update) = epochs.after_sync(client.state(), client.vrps(), client.last_delta())
        {
            log.line(&format_args!(
                "unit {name} (rtr): synced {} from {}",
                update.payload, config.connect,
            ));
            gossip.publish(update);
            fabric.pump(log);
        }
        // Idle until the cache pushes a Serial Notify (or the poll
        // timeout passes — then loop to re-check shutdown; a dead
        // connection ends the wait quietly, and the next sync says so
        // and redials).
        while !shutdown.load(Ordering::SeqCst) {
            match client.poll_notify() {
                Ok(Some(_)) | Err(ClientError::Pdu(PduError::Io { .. })) => break,
                Ok(None) => {}
                Err(e) => {
                    log.line(&format_args!("unit {name} (rtr): notify poll failed: {e}"));
                    break;
                }
            }
        }
    }
    gossip.close();
    fabric.pump(log);
}

/// The `rtr` unit's publish decision, a pure step over what a sync left
/// the client holding. Every new serial is published, at upstream serial
/// plus `base`; an upstream that comes back below the last epoch, or at
/// it under a new session id, restarted, and `base` moves so that its
/// reload is published at that epoch + 1. The step keeps its own payload
/// and advances it by the wire delta when that starts at the payload's
/// epoch — O(delta), forwarding the same delta; a full reload (first
/// contact, Cache Reset, cache restart, a voided client) is rebuilt from
/// the client's set and diffed against the previous payload.
#[derive(Default)]
pub(crate) struct RelayEpochs {
    /// The payload last published.
    previous: Option<VrpPayload>,
    base: u64,
    /// The upstream session the last sync was answered under.
    session: Option<u16>,
}

impl RelayEpochs {
    /// The update to publish after a sync that left the client at
    /// `state`, holding `vrps`, with `wire` the delta it applied; `None`
    /// when the epoch did not advance or the client was voided.
    pub(crate) fn after_sync(
        &mut self,
        state: Option<(u16, u32)>,
        vrps: &BTreeSet<VrpTriple>,
        wire: Option<&WireDelta>,
    ) -> Option<PayloadUpdate> {
        let (session_id, serial) = state?;
        let restarted = self.session.replace(session_id) != Some(session_id);
        let mut epoch = self.base + u64::from(serial);
        if let Some(prev) = &self.previous {
            if epoch < prev.epoch() || (restarted && epoch == prev.epoch()) {
                self.base = prev.epoch() + 1 - u64::from(serial);
                epoch = self.base + u64::from(serial);
            } else if epoch == prev.epoch() {
                return None;
            }
        }
        let update = match (&self.previous, wire) {
            // Every advance is published, so the set the sync started
            // from is `prev`'s whenever the serials agree: the wire
            // delta is exactly prev → now.
            (Some(prev), Some(wire)) if self.base + u64::from(wire.from_serial) == prev.epoch() => {
                let delta = VrpDelta::new(
                    prev.epoch(),
                    epoch,
                    wire.announced.clone(),
                    wire.withdrawn.clone(),
                );
                PayloadUpdate {
                    payload: prev
                        .apply(&delta)
                        .expect("the delta starts at prev's epoch"),
                    delta: Some(delta),
                }
            }
            (prev, _) => {
                let payload = VrpPayload::new(epoch, vrps.iter().copied());
                match prev {
                    Some(prev) => PayloadUpdate::from_previous(prev, payload),
                    None => PayloadUpdate::snapshot(payload),
                }
            }
        };
        debug_assert_eq!(update.payload.vrps(), vrps);
        self.previous = Some(update.payload.clone());
        Some(update)
    }
}

/// The JSON-over-HTTP ingest unit: polls a `/vrps.json` endpoint with
/// conditional requests.
#[derive(Debug, Clone)]
pub struct JsonUnitConfig {
    /// Export URL (`http://host:port/vrps.json`).
    pub url: String,
    /// Poll interval.
    pub poll: Duration,
}

/// Run a JSON polling unit until shutdown. Sends `If-None-Match` with
/// the last seen `ETag`, so an unchanged epoch costs a 304 and no body.
pub fn run_json_unit(
    name: &str,
    config: &JsonUnitConfig,
    gossip: &Gossip,
    fabric: &Fabric,
    log: &Log,
    shutdown: &AtomicBool,
) {
    let mut etag: Option<String> = None;
    let mut previous: Option<VrpPayload> = None;
    while !shutdown.load(Ordering::SeqCst) {
        let mut conditional = Vec::new();
        if let Some(tag) = &etag {
            conditional.push(("if-none-match", tag.as_str()));
        }
        match crate::http::get(
            &config.url,
            &conditional,
            config.poll.max(Duration::from_millis(250)),
        ) {
            Ok(response) if response.status == 304 => {}
            Ok(response) if response.status == 200 => {
                let parsed = std::str::from_utf8(&response.body)
                    .map_err(|_| "non-UTF-8 body".to_string())
                    .and_then(|text| {
                        ripki_payload::json::parse_vrps_json(text).map_err(|e| e.to_string())
                    });
                match parsed {
                    Ok(payload) => {
                        let newer = previous
                            .as_ref()
                            .is_none_or(|prev| payload.epoch() > prev.epoch());
                        if newer {
                            etag = response.header("etag").map(str::to_string);
                            log.line(&format_args!(
                                "unit {name} (json): fetched {payload} from {}",
                                config.url,
                            ));
                            let update = match &previous {
                                Some(prev) if payload.epoch() > prev.epoch() => {
                                    PayloadUpdate::from_previous(prev, payload.clone())
                                }
                                _ => PayloadUpdate::snapshot(payload.clone()),
                            };
                            previous = Some(payload);
                            gossip.publish(update);
                            fabric.pump(log);
                        }
                    }
                    Err(e) => {
                        log.line(&format_args!("unit {name} (json): bad payload: {e}"));
                    }
                }
            }
            Ok(response) => {
                log.line(&format_args!(
                    "unit {name} (json): unexpected status {} from {}",
                    response.status, config.url,
                ));
            }
            Err(e) => {
                log.line(&format_args!("unit {name} (json): fetch failed: {e}"));
            }
        }
        pause(config.poll, shutdown);
    }
    gossip.close();
    fabric.pump(log);
}

fn slurm_mtime(path: &Path) -> Option<SystemTime> {
    std::fs::metadata(path).and_then(|m| m.modified()).ok()
}

fn load_slurm(name: &str, path: &Path, log: &Log) -> Result<ripki_slurm::ExceptionSet, String> {
    let file = SlurmFile::load(path).map_err(|e| e.to_string())?;
    for warning in &file.warnings {
        log.line(&format_args!("unit {name} (slurm): warning: {warning}"));
    }
    Ok(file.compile())
}

/// The SLURM exception unit: RFC 8416 local filters/assertions applied
/// over a single source, with mtime-based hot reload of the file.
/// Every source update is re-published with the exceptions applied —
/// delta-aware when the source delta chains (`[delta]`), via a counted
/// snapshot re-sync when it does not (`[snapshot resync #N]`, never a
/// silent skip). Editing the file hot-reloads it and publishes the
/// re-excepted set at a **new** epoch. The stage ends, closing `out`,
/// once its source has closed.
pub fn slurm_stage(
    name: &str,
    file: PathBuf,
    mut source: Subscription,
    out: Gossip,
    log: &Log,
) -> Stage {
    let name = name.to_string();
    let exceptions = match load_slurm(&name, &file, log) {
        Ok(exceptions) => exceptions,
        Err(e) => {
            // The manager validated the file at plan time; losing it
            // between plan and start degrades to a pass-through, loudly.
            log.line(&format_args!(
                "unit {name} (slurm): {e}; passing payloads through unfiltered",
            ));
            ripki_slurm::ExceptionSet::empty()
        }
    };
    log.line(&format_args!(
        "unit {name} (slurm): loaded {} ({exceptions})",
        file.display(),
    ));
    let mut applier = SlurmApplier::new(exceptions);
    let mut mtime = slurm_mtime(&file);
    Box::new(move |log| {
        // Hot reload: a changed mtime swaps the exception set and
        // republishes the held base at a fresh epoch.
        let current = slurm_mtime(&file);
        if current != mtime {
            mtime = current;
            match load_slurm(&name, &file, log) {
                Ok(exceptions) => {
                    log.line(&format_args!(
                        "unit {name} (slurm): reloaded {} ({exceptions})",
                        file.display(),
                    ));
                    if let Some(applied) = applier.reload(exceptions) {
                        publish_slurm(&name, &applier, applied, &out, log);
                    }
                }
                Err(e) => {
                    log.line(&format_args!(
                        "unit {name} (slurm): reload failed ({e}); keeping previous exceptions",
                    ));
                }
            }
        }
        while let Some(update) = source.try_recv() {
            if let Some(applied) = applier.ingest(&update) {
                publish_slurm(&name, &applier, applied, &out, log);
            }
        }
        if !source.is_closed() {
            return true;
        }
        log.line(&format_args!("unit {name} (slurm): source drained"));
        out.close();
        false
    })
}

fn publish_slurm(
    name: &str,
    applier: &SlurmApplier,
    out: ripki_slurm::AppliedUpdate,
    gossip: &Gossip,
    log: &Log,
) {
    let stats = applier.stats();
    let mode = if out.incremental {
        "delta".to_string()
    } else if out.resync {
        format!("snapshot resync #{}", applier.resyncs())
    } else {
        "snapshot".to_string()
    };
    log.line(&format_args!(
        "unit {name} (slurm): epoch {} out ({}) [{mode}] ({} filtered, {} asserted)",
        out.update.epoch(),
        out.update.payload,
        stats.filtered,
        stats.asserted,
    ));
    gossip.publish(out.update);
}

/// The set-level operation a combinator applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combinator {
    /// Forward the newest epoch any source offers (failover: when the
    /// preferred source stalls, a newer epoch from any other flows).
    /// Sources must share an epoch space — e.g. the same origin over
    /// different transports.
    Any,
    /// The union of every source's newest set. The output epoch is the
    /// sum of the source epochs: it advances whenever any source does,
    /// and never regresses because each source is monotonic.
    Merge,
    /// The VRPs the first source serves that the second does not
    /// (shadow-deployment comparison). Output epoch as for `Merge`.
    Diff,
}

impl Combinator {
    /// Parse a config `type` string.
    pub fn from_kind(kind: &str) -> Option<Combinator> {
        match kind {
            "any" => Some(Combinator::Any),
            "merge" => Some(Combinator::Merge),
            "diff" => Some(Combinator::Diff),
            _ => None,
        }
    }
}

/// A combinator over its source subscriptions. Output updates carry a
/// delta from the previous output payload, so in-lockstep receivers
/// stay incremental. The stage ends, closing `out`, once every source
/// has closed.
pub fn combinator_stage(
    name: &str,
    kind: Combinator,
    mut sources: Vec<Subscription>,
    out: Gossip,
) -> Stage {
    let name = name.to_string();
    let mut latest: Vec<Option<VrpPayload>> = sources.iter().map(|_| None).collect();
    let mut newest_arrival: Option<PayloadUpdate> = None;
    let mut previous_out: Option<VrpPayload> = None;
    Box::new(move |log| {
        let mut changed = false;
        for (source, latest) in sources.iter_mut().zip(&mut latest) {
            while let Some(update) = source.try_recv() {
                let is_newest = newest_arrival
                    .as_ref()
                    .is_none_or(|held| update.epoch() > held.epoch());
                if is_newest {
                    newest_arrival = Some(update.clone());
                }
                *latest = Some(update.payload);
                changed = true;
            }
        }
        let (arrival, held) = (newest_arrival.as_ref(), previous_out.as_ref());
        let next = if changed {
            next_output(kind, &latest, arrival, held)
        } else {
            None
        };
        if let Some(update) = next {
            log.line(&format_args!(
                "unit {name} ({kind:?}): epoch {} out ({})",
                update.epoch(),
                update.payload,
            ));
            previous_out = Some(update.payload.clone());
            out.publish(update);
        }
        if !sources.iter().all(Subscription::is_closed) {
            return true;
        }
        log.line(&format_args!("unit {name} ({kind:?}): sources drained"));
        out.close();
        false
    })
}

/// What a combinator publishes once its sources hold `latest`: nothing
/// until the combination advances past `previous_out`.
fn next_output(
    kind: Combinator,
    latest: &[Option<VrpPayload>],
    newest_arrival: Option<&PayloadUpdate>,
    previous_out: Option<&VrpPayload>,
) -> Option<PayloadUpdate> {
    let payload = match kind {
        Combinator::Any => newest_arrival?.payload.clone(),
        Combinator::Merge => combined(latest, |a, b| a.iter().chain(b).copied().collect())?,
        Combinator::Diff => combined(latest, |a, b| a.difference(b).into_iter().collect())?,
    };
    let Some(prev) = previous_out else {
        return Some(PayloadUpdate::snapshot(payload));
    };
    if payload.epoch() <= prev.epoch() {
        return None;
    }
    Some(
        match (kind, newest_arrival.and_then(|u| u.delta.as_ref())) {
            // `any` forwards the arrival's own delta when it chains from
            // what we previously emitted (lockstep fast path).
            (Combinator::Any, Some(delta)) if delta.from_epoch == prev.epoch() => PayloadUpdate {
                payload,
                delta: Some(delta.clone()),
            },
            _ => PayloadUpdate::from_previous(prev, payload),
        },
    )
}

/// Apply a binary set operation left-to-right across every source's
/// newest payload; the output epoch is the sum of source epochs.
/// `None` until every source has reported at least once (emitting a
/// union with a missing source would publish a *shrunken* set later,
/// which downstream RTR clients would see as mass withdrawals).
fn combined(
    latest: &[Option<VrpPayload>],
    op: fn(&VrpSet, &VrpSet) -> VrpSet,
) -> Option<VrpPayload> {
    let mut payloads = latest.iter();
    let first = payloads.next()?.as_ref()?;
    let mut set = first.shared_vrps();
    let mut epoch = first.epoch();
    for payload in payloads {
        let payload = payload.as_ref()?;
        set = op(&set, payload.vrps());
        epoch += payload.epoch();
    }
    Some(VrpPayload::from_shared(epoch, set))
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "R2 exempts test code")]
mod tests {
    use super::*;
    use ripki_net::Asn;
    use ripki_payload::VrpTriple;
    use std::sync::Arc;

    fn vrp(prefix: &str, asn: u32) -> VrpTriple {
        VrpTriple {
            prefix: prefix.parse().expect("prefix"),
            max_length: 24,
            asn: Asn::new(asn),
        }
    }

    /// Publish each feed's payloads in turn, stepping the combinator
    /// after every publish; returns what it published.
    fn run_combinator_once(kind: Combinator, feeds: Vec<Vec<VrpPayload>>) -> Vec<PayloadUpdate> {
        let inputs: Vec<Gossip> = feeds.iter().map(|_| Gossip::new()).collect();
        let sources = inputs.iter().map(Gossip::subscribe).collect();
        let output = Gossip::new();
        let mut collected = output.subscribe();
        let log = Log::sink();
        let mut step = combinator_stage("t", kind, sources, output);
        let mut updates = Vec::new();
        for (gossip, payloads) in inputs.iter().zip(feeds) {
            for payload in payloads {
                gossip.publish(PayloadUpdate::snapshot(payload));
                assert!(step(&log), "sources are still open");
                updates.extend(collected.try_recv());
            }
        }
        for gossip in &inputs {
            gossip.close();
        }
        assert!(!step(&log), "every source closed");
        assert!(collected.is_closed(), "and so did the output");
        updates
    }

    #[test]
    fn any_forwards_the_newest_epoch() {
        let updates = run_combinator_once(
            Combinator::Any,
            vec![
                vec![VrpPayload::new(1, [vrp("10.0.0.0/24", 1)])],
                vec![VrpPayload::new(3, [vrp("11.0.0.0/24", 2)])],
            ],
        );
        let last = updates.last().expect("an update");
        assert_eq!(last.epoch(), 3);
        assert!(last.payload.vrps().contains(&vrp("11.0.0.0/24", 2)));
    }

    #[test]
    fn merge_unions_and_sums_epochs() {
        let updates = run_combinator_once(
            Combinator::Merge,
            vec![
                vec![VrpPayload::new(2, [vrp("10.0.0.0/24", 1)])],
                vec![VrpPayload::new(5, [vrp("11.0.0.0/24", 2)])],
            ],
        );
        let last = updates.last().expect("an update");
        assert_eq!(last.epoch(), 7, "epoch is the sum of source epochs");
        assert_eq!(last.payload.len(), 2);
    }

    #[test]
    fn diff_subtracts_the_second_source() {
        let updates = run_combinator_once(
            Combinator::Diff,
            vec![
                vec![VrpPayload::new(
                    2,
                    [vrp("10.0.0.0/24", 1), vrp("11.0.0.0/24", 2)],
                )],
                vec![VrpPayload::new(3, [vrp("11.0.0.0/24", 2)])],
            ],
        );
        let last = updates.last().expect("an update");
        assert_eq!(
            last.payload.vrps().iter().copied().collect::<Vec<_>>(),
            [vrp("10.0.0.0/24", 1)]
        );
    }

    #[test]
    fn merge_waits_for_every_source() {
        // Only one of two sources has reported: no output yet.
        let updates = run_combinator_once(
            Combinator::Merge,
            vec![vec![VrpPayload::new(2, [vrp("10.0.0.0/24", 1)])], vec![]],
        );
        assert!(updates.is_empty(), "partial unions must not be published");
    }

    /// Write a throwaway SLURM file under the OS temp dir.
    fn slurm_file(name: &str, body: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("ripki-proxy-{}-{name}.json", std::process::id()));
        std::fs::write(&path, body).expect("write slurm file");
        path
    }

    /// Wait for an `rtr` unit's thread to publish.
    fn recv_update(sub: &mut Subscription) -> PayloadUpdate {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(update) = sub.try_recv() {
                return update;
            }
            assert!(!sub.is_closed(), "unit closed without publishing");
            assert!(std::time::Instant::now() < deadline, "unit never published");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    const UNIT_SLURM: &str = r#"{
        "slurmVersion": 1,
        "validationOutputFilters": {
            "prefixFilters": [{ "prefix": "10.0.0.0/24", "comment": "drop" }],
            "bgpsecFilters": []
        },
        "locallyAddedAssertions": {
            "prefixAssertions": [{ "prefix": "192.0.2.0/24", "asn": 64500 }],
            "bgpsecAssertions": []
        }
    }"#;

    /// A `slurm` stage over `file` between a source and its output.
    fn slurm_between(file: &Path) -> (Gossip, Stage, Subscription) {
        let source = Gossip::new();
        let output = Gossip::new();
        let out = output.subscribe();
        let feed = source.subscribe();
        let step = slurm_stage("s", file.to_path_buf(), feed, output, &Log::sink());
        (source, step, out)
    }

    #[test]
    fn slurm_unit_applies_exceptions_delta_aware() {
        let file = slurm_file("delta-aware", UNIT_SLURM);
        let (source, mut step, mut out) = slurm_between(&file);
        let log = Log::sink();

        let p1 = VrpPayload::new(1, [vrp("10.0.0.0/24", 64496), vrp("10.1.0.0/24", 64497)]);
        source.publish(PayloadUpdate::snapshot(p1.clone()));
        assert!(step(&log));
        let first = out.try_recv().expect("the excepted snapshot");
        assert_eq!(first.epoch(), 1);
        assert!(
            !first.payload.vrps().contains(&vrp("10.0.0.0/24", 64496)),
            "filtered VRP must not pass"
        );
        assert!(
            first.payload.vrps().contains(&vrp("192.0.2.0/24", 64500)),
            "asserted VRP must appear"
        );

        // A chaining churn delta stays incremental: the output carries a
        // mapped delta, not a rebuilt snapshot.
        let p2 = VrpPayload::new(
            2,
            [
                vrp("10.0.0.0/24", 64496),
                vrp("10.1.0.0/24", 64497),
                vrp("10.2.0.0/24", 64498),
            ],
        );
        source.publish(PayloadUpdate::from_previous(&p1, p2));
        assert!(step(&log));
        let second = out.try_recv().expect("the excepted delta");
        assert_eq!(second.epoch(), 2);
        let delta = second.delta.expect("delta-aware output");
        assert_eq!((delta.from_epoch, delta.to_epoch), (1, 2));
        assert_eq!(delta.announced, [vrp("10.2.0.0/24", 64498)]);
        assert!(
            second.payload.vrps().contains(&vrp("192.0.2.0/24", 64500)),
            "assertion survives churn"
        );

        source.close();
        assert!(!step(&log), "the source closed");
        assert!(out.is_closed(), "and so did the output");
        let _ = std::fs::remove_file(file);
    }

    #[test]
    fn slurm_unit_hot_reloads_at_a_new_epoch() {
        let file = slurm_file("hot-reload", UNIT_SLURM);
        let (source, mut step, mut out) = slurm_between(&file);
        let log = Log::sink();

        let p1 = VrpPayload::new(1, [vrp("10.0.0.0/24", 64496), vrp("10.1.0.0/24", 64497)]);
        source.publish(PayloadUpdate::snapshot(p1.clone()));
        assert!(step(&log));
        let first = out.try_recv().expect("the excepted snapshot");
        assert_eq!(first.epoch(), 1);
        assert!(!first.payload.vrps().contains(&vrp("10.0.0.0/24", 64496)));

        // Rewrite the file without the filter (stamped a second on, so
        // the mtime moves whatever the clock's grain): with no source
        // update at all, the next step must republish the held base at
        // a NEW epoch, with the dropped VRP restored.
        std::fs::write(&file, r#"{ "slurmVersion": 1 }"#).expect("rewrite slurm file");
        let rewritten = std::fs::File::options()
            .write(true)
            .open(&file)
            .expect("open");
        rewritten
            .set_modified(SystemTime::now() + Duration::from_secs(1))
            .expect("set mtime");
        assert!(step(&log));
        let reloaded = out.try_recv().expect("the re-excepted set");
        assert_eq!(reloaded.epoch(), 2, "reload publishes a fresh epoch");
        assert!(
            reloaded.payload.vrps().contains(&vrp("10.0.0.0/24", 64496)),
            "former filter no longer applies"
        );
        assert!(
            !reloaded
                .payload
                .vrps()
                .contains(&vrp("192.0.2.0/24", 64500)),
            "former assertion no longer applies"
        );
        let delta = reloaded.delta.expect("reload chains from the held epoch");
        assert_eq!((delta.from_epoch, delta.to_epoch), (1, 2));

        // Source deltas keep chaining after the reload, shifted by the
        // reload's epoch offset.
        let p2 = VrpPayload::new(2, [vrp("10.0.0.0/24", 64496)]);
        source.publish(PayloadUpdate::from_previous(&p1, p2));
        assert!(step(&log));
        let shifted = out.try_recv().expect("the shifted delta");
        assert_eq!(shifted.epoch(), 3);
        let delta = shifted.delta.expect("still delta-aware after reload");
        assert_eq!((delta.from_epoch, delta.to_epoch), (2, 3));
        let _ = std::fs::remove_file(file);
    }

    /// An origin cache behind the RTR session plane, an `rtr` unit
    /// following it, and the unit's output.
    struct RtrFeed {
        cache: Arc<ripki_rtr::CacheServer>,
        out: Subscription,
        shutdown: Arc<AtomicBool>,
        unit: std::thread::JoinHandle<()>,
        origin: ripki_rtr::RtrListener,
    }

    impl RtrFeed {
        fn start(initial: &VrpPayload) -> RtrFeed {
            let cache = Arc::new(ripki_rtr::CacheServer::new(7));
            cache.install_payload(initial);
            let origin = RtrFeed::listen("127.0.0.1:0", &cache);
            let gossip = Gossip::new();
            let out = gossip.subscribe();
            let shutdown = Arc::new(AtomicBool::new(false));
            let config = RtrUnitConfig {
                connect: origin.addr().to_string(),
                poll: Duration::from_millis(20),
            };
            let unit = {
                let shutdown = Arc::clone(&shutdown);
                std::thread::spawn(move || {
                    let fabric = Fabric::default();
                    run_rtr_unit("up", &config, &gossip, &fabric, &Log::sink(), &shutdown);
                })
            };
            RtrFeed {
                cache,
                out,
                shutdown,
                unit,
                origin,
            }
        }

        fn listen(addr: &str, cache: &Arc<ripki_rtr::CacheServer>) -> ripki_rtr::RtrListener {
            ripki_rtr::RtrListener::spawn(
                std::net::TcpListener::bind(addr).expect("bind"),
                Arc::clone(cache),
                ripki_rtr::ListenerConfig::default(),
            )
            .expect("origin listener")
        }

        /// Take the origin off the network: the unit's session drops.
        fn go_down(&mut self) {
            self.origin.shutdown();
        }

        /// Serve `cache` at the origin's address again.
        fn come_up(&mut self, cache: Arc<ripki_rtr::CacheServer>) {
            self.origin = RtrFeed::listen(&self.origin.addr().to_string(), &cache);
            self.cache = cache;
        }

        /// Receive until the unit has published `epoch`. The slot keeps
        /// only the latest update, so this thread may miss one: a delta
        /// that starts at `previous` must be exactly the difference to
        /// its payload, any other update re-bases `previous`; and the
        /// last one is what the origin serves.
        fn follow_to(&mut self, previous: &mut VrpPayload, epoch: u64) -> PayloadUpdate {
            loop {
                let update = recv_update(&mut self.out);
                let chains = |delta: &&VrpDelta| delta.from_epoch == previous.epoch();
                if let Some(delta) = update.delta.as_ref().filter(chains) {
                    assert_eq!(*delta, previous.diff(&update.payload));
                }
                *previous = update.payload.clone();
                if update.epoch() == epoch {
                    assert_eq!(update.payload, self.cache.payload().expect("payload"));
                    return update;
                }
            }
        }

        fn stop(self) {
            self.shutdown.store(true, Ordering::SeqCst);
            self.unit.join().expect("rtr unit thread");
        }
    }

    #[test]
    fn rtr_unit_publishes_the_wire_delta() {
        let p1 = VrpPayload::new(1, [vrp("10.0.0.0/24", 1), vrp("10.1.0.0/24", 2)]);
        let mut feed = RtrFeed::start(&p1);
        let first = recv_update(&mut feed.out);
        assert_eq!(first, PayloadUpdate::snapshot(p1.clone()));

        // One serial, then two at once (a record that comes and goes
        // inside the answer must not show up in the forwarded delta).
        assert!(feed
            .cache
            .apply_delta(2, &[vrp("10.2.0.0/24", 3)], &[vrp("10.0.0.0/24", 1)]));
        let second = recv_update(&mut feed.out);
        assert_eq!(second.payload, feed.cache.payload().expect("payload"));
        assert_eq!(second.delta, Some(p1.diff(&second.payload)));

        let mut previous = second.payload;
        feed.cache.apply_delta(3, &[vrp("10.3.0.0/24", 4)], &[]);
        feed.cache
            .apply_delta(4, &[vrp("10.4.0.0/24", 5)], &[vrp("10.3.0.0/24", 4)]);
        // The unit may catch serial 3 on its own or 3 and 4 together,
        // and this thread may see its serial 3 or only its 3 → 4.
        feed.follow_to(&mut previous, 4);

        // From here on the unit's own payload — advanced by wire deltas,
        // never re-read from the client — has to survive everything an
        // upstream can do to a session. A serial jump: Cache Reset, the
        // one full reload, published with the snapshot diff.
        let p9 = VrpPayload::new(9, [vrp("10.4.0.0/24", 5), vrp("10.9.0.0/24", 9)]);
        feed.cache.install_payload(&p9);
        let before = previous.clone();
        let reloaded = feed.follow_to(&mut previous, 9);
        assert_eq!(reloaded.delta, Some(before.diff(&p9)));

        // A dropped connection: two serials pass while the unit is cut
        // off; it resumes with a Serial Query and forwards their net.
        feed.go_down();
        feed.cache.apply_delta(10, &[vrp("10.10.0.0/24", 10)], &[]);
        feed.cache
            .apply_delta(11, &[vrp("10.11.0.0/24", 11)], &[vrp("10.9.0.0/24", 9)]);
        feed.come_up(Arc::clone(&feed.cache));
        let resumed = feed.follow_to(&mut previous, 11);
        assert_eq!(resumed.delta, Some(p9.diff(&resumed.payload)));

        // A cache restart: new session, unrelated set. The unit's
        // context is void; it reloads and publishes the difference.
        feed.go_down();
        let restarted = Arc::new(ripki_rtr::CacheServer::new(8));
        let p20 = VrpPayload::new(20, [vrp("10.20.0.0/24", 20), vrp("10.11.0.0/24", 11)]);
        restarted.install_payload(&p20);
        feed.come_up(restarted);
        let reloaded = feed.follow_to(&mut previous, 20);
        assert_eq!(reloaded.delta, Some(resumed.payload.diff(&p20)));

        // And the new session is followed incrementally again.
        feed.cache.apply_delta(21, &[], &[vrp("10.20.0.0/24", 20)]);
        let next = feed.follow_to(&mut previous, 21);
        assert_eq!(next.delta, Some(p20.diff(&next.payload)));
        feed.stop();
    }

    #[test]
    fn rtr_unit_follows_an_upstream_that_restarts_at_a_lower_serial() {
        let p1 = VrpPayload::new(1, [vrp("10.0.0.0/24", 1)]);
        let mut feed = RtrFeed::start(&p1);
        assert_eq!(recv_update(&mut feed.out).epoch(), 1);
        feed.cache.apply_delta(2, &[vrp("10.2.0.0/24", 2)], &[]);
        let prev = recv_update(&mut feed.out).payload;
        assert_eq!(prev.epoch(), 2);

        // The origin restarts at serial 1 under a new session id, with
        // another set: published at prev + 1, as the snapshot diff.
        let restart = |feed: &mut RtrFeed, vrps: &[VrpTriple]| {
            feed.go_down();
            let cache = Arc::new(ripki_rtr::CacheServer::new(8));
            cache.install_snapshot(1, vrps.iter().copied());
            feed.come_up(cache);
        };
        restart(&mut feed, &[vrp("10.5.0.0/24", 5)]);
        let reloaded = recv_update(&mut feed.out);
        assert_eq!(
            reloaded.payload,
            VrpPayload::new(3, [vrp("10.5.0.0/24", 5)])
        );
        assert_eq!(reloaded.delta, Some(prev.diff(&reloaded.payload)));

        // Its next delta follows from that base, on the wire delta.
        feed.cache.apply_delta(2, &[vrp("10.6.0.0/24", 6)], &[]);
        let next = recv_update(&mut feed.out);
        assert_eq!(next.epoch(), 4);
        let delta = next.delta.expect("delta");
        assert_eq!((delta.from_epoch, delta.to_epoch), (3, 4));
        assert_eq!(delta.announced, [vrp("10.6.0.0/24", 6)]);

        // A restart under the same session id is seen by its serial.
        restart(&mut feed, &[vrp("10.7.0.0/24", 7)]);
        let again = recv_update(&mut feed.out);
        assert_eq!(again.payload, VrpPayload::new(5, [vrp("10.7.0.0/24", 7)]));
        assert_eq!(again.delta, Some(next.payload.diff(&again.payload)));
        feed.stop();
    }

    /// One scripted RTR answer: Cache Response, an IPv4 record per
    /// entry (`true` = announce), End of Data at `serial`.
    fn rtr_answer(records: &[(bool, VrpTriple)], serial: u32) -> Vec<u8> {
        use ripki_rtr::Pdu;
        let mut out = Pdu::CacheResponse { session_id: 7 }.encode();
        for (announce, vrp) in records {
            let prefix = *vrp.prefix.as_v4().expect("scripted answers are IPv4");
            Pdu::Ipv4Prefix {
                announce: *announce,
                prefix_len: prefix.len(),
                max_len: vrp.max_length,
                prefix: prefix.network(),
                asn: vrp.asn,
            }
            .encode_into(&mut out);
        }
        Pdu::EndOfData {
            session_id: 7,
            serial,
        }
        .encode_into(&mut out);
        out
    }

    /// Upstreams are untrusted: one that answers a Serial Query with a
    /// delta contradicting what it served before must cost the unit one
    /// reload, not wedge it on a half-applied set that every retry of
    /// the same query trips over again.
    #[test]
    fn rtr_unit_recovers_from_a_delta_that_contradicts_its_set() {
        use ripki_rtr::pdu::PduBuf;
        use ripki_rtr::Pdu;
        use std::io::{Read, Write};

        /// The unit's next query: what is buffered, else what the
        /// stream brings; `None` once it is closed.
        fn read_query(stream: &mut std::net::TcpStream, buf: &mut PduBuf) -> Option<Pdu> {
            loop {
                if let Some(query) = buf.next_pdu().expect("a query decodes") {
                    return Some(query);
                }
                let mut chunk = [0u8; 64];
                match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => return None,
                    Ok(n) => buf.extend(&chunk[..n]),
                }
            }
        }

        let (a, b, c) = (
            vrp("10.0.0.0/24", 1),
            vrp("10.1.0.0/24", 2),
            vrp("10.2.0.0/24", 3),
        );
        let mut first = rtr_answer(&[(true, a), (true, b)], 1);
        Pdu::SerialNotify {
            session_id: 7,
            serial: 2,
        }
        .encode_into(&mut first);
        let script = [
            first,
            // The delta's first record applies; its second announces a
            // VRP the unit already holds.
            rtr_answer(&[(true, c), (true, a)], 2),
            rtr_answer(&[(true, a), (true, b), (true, c)], 2),
        ];
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let connect = listener.local_addr().expect("addr").to_string();
        let upstream = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("the unit connects");
            let mut buf = PduBuf::new();
            let mut queries = Vec::new();
            for reply in script {
                queries.push(read_query(&mut stream, &mut buf).expect("a query"));
                stream.write_all(&reply).expect("reply");
            }
            // Keep the session open until the unit hangs up.
            let _ = read_query(&mut stream, &mut buf);
            queries
        });

        let gossip = Gossip::new();
        let mut out = gossip.subscribe();
        let shutdown = Arc::new(AtomicBool::new(false));
        let unit = {
            let shutdown = Arc::clone(&shutdown);
            let config = RtrUnitConfig {
                connect,
                poll: Duration::from_millis(20),
            };
            std::thread::spawn(move || {
                let fabric = Fabric::default();
                run_rtr_unit("up", &config, &gossip, &fabric, &Log::sink(), &shutdown);
            })
        };

        let p1 = VrpPayload::new(1, [a, b]);
        assert_eq!(recv_update(&mut out), PayloadUpdate::snapshot(p1.clone()));
        let recovered = recv_update(&mut out);
        assert_eq!(recovered.payload, VrpPayload::new(2, [a, b, c]));
        assert_eq!(
            recovered.delta,
            Some(p1.diff(&recovered.payload)),
            "a reload is published with the snapshot diff"
        );

        shutdown.store(true, Ordering::SeqCst);
        unit.join().expect("rtr unit thread");
        assert_eq!(
            upstream.join().expect("upstream thread"),
            [
                Pdu::ResetQuery,
                Pdu::SerialQuery {
                    session_id: 7,
                    serial: 1
                },
                Pdu::ResetQuery,
            ]
        );
    }

    #[test]
    fn rtr_unit_falls_back_to_a_full_diff_after_a_cache_reset() {
        let p1 = VrpPayload::new(1, [vrp("10.0.0.0/24", 1), vrp("10.1.0.0/24", 2)]);
        let mut feed = RtrFeed::start(&p1);
        assert_eq!(recv_update(&mut feed.out).epoch(), 1);

        // A serial jump clears the origin's history: the unit's Serial
        // Query is answered with a Cache Reset and it reloads the set.
        let p9 = VrpPayload::new(9, [vrp("10.1.0.0/24", 2), vrp("10.9.0.0/24", 9)]);
        feed.cache.install_payload(&p9);
        let reloaded = recv_update(&mut feed.out);
        assert_eq!(reloaded.payload, p9);
        // No wire delta exists for a reload; downstream still gets the
        // exact 1 → 9 difference (and counts its non-contiguous resync).
        assert_eq!(reloaded.delta, Some(p1.diff(&p9)));

        // The next contiguous serial is incremental again.
        feed.cache.apply_delta(10, &[], &[vrp("10.9.0.0/24", 9)]);
        let next = recv_update(&mut feed.out);
        let delta = next.delta.expect("delta");
        assert_eq!((delta.from_epoch, delta.to_epoch), (9, 10));
        assert_eq!(delta.withdrawn, [vrp("10.9.0.0/24", 9)]);
        feed.stop();
    }

    #[test]
    fn engine_unit_publishes_initial_and_churn_epochs() {
        let gossip = Gossip::new();
        let mut sub = gossip.subscribe();
        let shutdown = AtomicBool::new(false);
        run_engine_unit(
            "e",
            &EngineUnitConfig {
                domains: 40,
                seed: 7,
                churn_seed: 9,
                epochs: 2,
                interval: Duration::ZERO,
            },
            &gossip,
            &Fabric::default(),
            &Log::sink(),
            &shutdown,
        );
        let mut epochs = Vec::new();
        while let Some(update) = sub.recv() {
            epochs.push(update.epoch());
        }
        assert_eq!(*epochs.last().expect("epochs"), 3, "1 initial + 2 churn");
    }
}

#[cfg(test)]
mod relay_epochs_tests {
    //! The `rtr` unit's publish step on its own: one row per branch.
    use super::*;
    use ripki_net::Asn;

    fn vrp(i: u32) -> VrpTriple {
        VrpTriple {
            prefix: format!("10.{i}.0.0/24").parse().expect("prefix"),
            max_length: 24,
            asn: Asn::new(i),
        }
    }

    #[test]
    fn each_sync_outcome_publishes_what_its_branch_says() {
        let (a, b, c) = (vrp(1), vrp(2), vrp(3));
        let prev = VrpPayload::new(5, [a, b]);
        let wire = |from_serial, announced: &[VrpTriple], withdrawn: &[VrpTriple]| WireDelta {
            from_serial,
            announced: announced.to_vec(),
            withdrawn: withdrawn.to_vec(),
        };
        // Each row follows a reload published at epoch 5: session 7,
        // serial 5, `{a, b}`. It gives the next sync's state, set and
        // wire delta, and the epoch it publishes (`None`: nothing).
        let rows = [
            (
                "a wire delta that chains onto prev",
                Some((7, 6)),
                vec![a, b, c],
                Some(wire(5, &[c], &[])),
                Some(6),
            ),
            (
                "a full reload, diffed against prev",
                Some((7, 9)),
                vec![b, c],
                None,
                Some(9),
            ),
            (
                "a wire delta from another serial, diffed against prev",
                Some((7, 8)),
                vec![c],
                Some(wire(7, &[], &[b])),
                Some(8),
            ),
            (
                "a serial below the last epoch, re-based to prev + 1",
                Some((7, 2)),
                vec![c],
                None,
                Some(6),
            ),
            (
                "the same epoch under a new session id, re-based",
                Some((8, 5)),
                vec![a, c],
                None,
                Some(6),
            ),
            (
                "no advance",
                Some((7, 5)),
                vec![a, b],
                Some(wire(5, &[], &[])),
                None,
            ),
            ("a voided client", None, vec![], None, None),
        ];
        for (branch, state, vrps, wire, epoch) in rows {
            let mut epochs = RelayEpochs::default();
            let first = epochs.after_sync(Some((7, 5)), &BTreeSet::from([a, b]), None);
            assert_eq!(first, Some(PayloadUpdate::snapshot(prev.clone())));
            let vrps = BTreeSet::from_iter(vrps);
            let update = epochs.after_sync(state, &vrps, wire.as_ref());
            let expected =
                epoch.map(|e| PayloadUpdate::from_previous(&prev, VrpPayload::new(e, vrps)));
            assert_eq!(update, expected, "{branch}");
        }
    }

    /// After a re-base the upstream's next delta chains onto the new
    /// base and is forwarded as it came off the wire.
    #[test]
    fn a_re_based_upstream_is_followed_by_its_wire_deltas() {
        let (a, b) = (vrp(1), vrp(2));
        let mut epochs = RelayEpochs::default();
        epochs.after_sync(Some((7, 5)), &BTreeSet::from([a]), None);
        let reload = epochs.after_sync(Some((8, 1)), &BTreeSet::from([b]), None);
        assert_eq!(reload.map(|u| u.epoch()), Some(6));
        let wire = WireDelta {
            from_serial: 1,
            announced: vec![a],
            withdrawn: vec![],
        };
        let next = epochs
            .after_sync(Some((8, 2)), &BTreeSet::from([a, b]), Some(&wire))
            .expect("an advance");
        assert_eq!(next.delta, Some(VrpDelta::new(6, 7, vec![a], vec![])));
        assert_eq!(next.payload, VrpPayload::new(7, [a, b]));
    }
}
