//! The fabric manager: builds a running pipeline from a parsed
//! [`ProxyConfig`], owns every thread in it, and tears it down.
//!
//! Wiring is name-based and declaration-order independent: every unit
//! gets a [`Gossip`] up front, and a reference to an undeclared unit or
//! a `sources` cycle is a startup error, not a silently dead hop. Only
//! the units that wait on a clock or a socket (`engine`, `rtr`, `json`)
//! get a thread. Everything else — the `slurm` unit, the combinators,
//! the targets' installs — is a [`Stage`] in the [`Fabric`]: a list in
//! topological order behind one lock, which the thread that just
//! published pumps before it goes back to its socket, so an update
//! travels from the ingest unit to every target's serving state on one
//! thread.

use crate::comms::{Gossip, Subscription};
use crate::config::{ConfigError, ProxyConfig, Section};
use crate::log::Log;
use crate::origin::pause;
use crate::targets::{start_http_target, start_rtr_target, Install, TargetHandle};
use crate::units::{
    combinator_stage, run_engine_unit, run_json_unit, run_rtr_unit, slurm_stage, Combinator,
    EngineUnitConfig, JsonUnitConfig, RtrUnitConfig,
};
use ripki_serve::ServerConfig;
use ripki_slurm::SlurmFile;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Why a pipeline could not be started.
#[derive(Debug)]
pub enum FabricError {
    /// The declaration is malformed or inconsistent.
    Config(ConfigError),
    /// A listener could not be bound.
    Io(io::Error),
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Config(e) => e.fmt(f),
            FabricError::Io(e) => write!(f, "proxy i/o error: {e}"),
        }
    }
}

impl std::error::Error for FabricError {}

impl From<ConfigError> for FabricError {
    fn from(e: ConfigError) -> FabricError {
        FabricError::Config(e)
    }
}

impl From<io::Error> for FabricError {
    fn from(e: io::Error) -> FabricError {
        FabricError::Io(e)
    }
}

fn wiring_error(message: impl Into<String>) -> FabricError {
    FabricError::Config(ConfigError {
        line: 0,
        message: message.into(),
    })
}

/// A validated unit declaration, ready to start.
enum UnitPlan {
    Engine(EngineUnitConfig),
    Rtr(RtrUnitConfig),
    Json(JsonUnitConfig),
    Slurm {
        file: PathBuf,
        /// How often the file's mtime is looked at when nothing flows.
        poll: Duration,
        source: String,
    },
    Combinator(Combinator, Vec<String>),
}

impl UnitPlan {
    /// The units this one subscribes to.
    fn sources(&self) -> &[String] {
        match self {
            UnitPlan::Slurm { source, .. } => std::slice::from_ref(source),
            UnitPlan::Combinator(_, sources) => sources,
            UnitPlan::Engine(_) | UnitPlan::Rtr(_) | UnitPlan::Json(_) => &[],
        }
    }
}

/// Check that `unit`, which section `[owner]` refers to, is declared.
fn check_declared(config: &ProxyConfig, owner: &str, unit: &str) -> Result<(), FabricError> {
    if config.units.iter().any(|(n, _)| n == unit) {
        return Ok(());
    }
    Err(wiring_error(format!(
        "[{owner}] references undeclared unit {unit:?}",
    )))
}

enum TargetKind {
    Rtr,
    Http,
}

/// A validated target declaration, ready to bind.
struct TargetPlan {
    name: String,
    kind: TargetKind,
    listen: String,
    unit: String,
}

/// Validate every unit section: types, required keys, and source
/// references (forward references are fine — names resolve against the
/// whole declaration). The plans come back in topological order: every
/// unit after its sources.
fn plan_units(config: &ProxyConfig) -> Result<Vec<(String, UnitPlan)>, FabricError> {
    let mut plans = Vec::new();
    for (name, table) in &config.units {
        let section = Section::new("units", name, table);
        let kind = section.str("type")?;
        let plan = match kind {
            "engine" => {
                let seed = section.int_or("seed", 42)?;
                UnitPlan::Engine(EngineUnitConfig {
                    domains: usize::try_from(section.int_or("domains", 150)?)
                        .map_err(|_| wiring_error("domains out of range"))?,
                    seed,
                    churn_seed: section.int_or("churn-seed", seed ^ 0x5eed)?,
                    epochs: section.int_or("epochs", 5)?,
                    interval: Duration::from_millis(section.int_or("interval-ms", 0)?),
                })
            }
            "rtr" => UnitPlan::Rtr(RtrUnitConfig {
                connect: section.str("connect")?.to_string(),
                poll: Duration::from_millis(section.int_or("poll-ms", 100)?),
            }),
            "json" => UnitPlan::Json(JsonUnitConfig {
                url: section.str("url")?.to_string(),
                poll: Duration::from_millis(section.int_or("poll-ms", 200)?),
            }),
            "slurm" => {
                let file = PathBuf::from(section.str("file")?);
                // Fail the whole pipeline now if the exception file is
                // malformed — a typo must never silently change which
                // routes get dropped (the unit re-loads at start and on
                // every mtime change).
                SlurmFile::load(&file).map_err(|e| wiring_error(format!("[units.{name}]: {e}")))?;
                let source = section.str("source")?.to_string();
                check_declared(config, &format!("units.{name}"), &source)?;
                UnitPlan::Slurm {
                    file,
                    poll: Duration::from_millis(section.int_or("poll-ms", 100)?),
                    source,
                }
            }
            combinator => {
                let Some(kind) = Combinator::from_kind(combinator) else {
                    return Err(wiring_error(format!(
                        "[units.{name}] has unknown type {combinator:?} \
                         (expected engine, rtr, json, slurm, any, merge, or diff)",
                    )));
                };
                let sources = section.list("sources")?.to_vec();
                if sources.is_empty() {
                    return Err(wiring_error(format!(
                        "[units.{name}] needs at least one source",
                    )));
                }
                for source in &sources {
                    check_declared(config, &format!("units.{name}"), source)?;
                }
                UnitPlan::Combinator(kind, sources)
            }
        };
        plans.push((name.clone(), plan));
    }
    // Place a unit once all its sources are placed; a round that places
    // nothing has found a cycle (a unit that lists itself is the
    // shortest).
    let mut ordered: Vec<(String, UnitPlan)> = Vec::new();
    while !plans.is_empty() {
        let placed = |source: &String| ordered.iter().any(|(name, _)| name == source);
        let (ready, blocked): (Vec<_>, Vec<_>) = plans
            .into_iter()
            .partition(|(_, plan)| plan.sources().iter().all(placed));
        if ready.is_empty() {
            let names: Vec<&str> = blocked.iter().map(|(name, _)| name.as_str()).collect();
            return Err(wiring_error(format!(
                "units {} cannot be ordered: their sources form a cycle",
                names.join(", "),
            )));
        }
        ordered.extend(ready);
        plans = blocked;
    }
    Ok(ordered)
}

/// Validate every target section against the declared units.
fn plan_targets(config: &ProxyConfig) -> Result<Vec<TargetPlan>, FabricError> {
    let mut plans = Vec::new();
    for (name, table) in &config.targets {
        let section = Section::new("targets", name, table);
        let kind = match section.str("type")? {
            "rtr" => TargetKind::Rtr,
            "http" => TargetKind::Http,
            other => {
                return Err(wiring_error(format!(
                    "[targets.{name}] has unknown type {other:?} (expected rtr or http)",
                )));
            }
        };
        let unit = section.str("unit")?.to_string();
        check_declared(config, &format!("targets.{name}"), &unit)?;
        plans.push(TargetPlan {
            name: name.clone(),
            kind,
            listen: section.str("listen")?.to_string(),
            unit,
        });
    }
    Ok(plans)
}

/// A part of the pipeline that does no I/O, as its one non-blocking
/// step: take what its subscriptions hold, transform, publish or
/// install, log. `false` once its sources have closed and it has said
/// so and closed its own output — it then leaves the fabric.
pub type Stage = Box<dyn FnMut(&Log) -> bool + Send>;

/// Every [`Stage`] of a pipeline, each after the stages it subscribes
/// to, behind the one fabric lock. Stages publish with
/// [`Gossip::publish`] and never pump, so the lock is not re-entered,
/// and no channel or target lock is held when it is taken.
#[derive(Default)]
pub struct Fabric {
    pub(crate) stages: Mutex<Vec<Stage>>,
}

impl Fabric {
    /// Step every stage once, in order, on the calling thread. One pass
    /// reaches quiescence: a stage publishes only to stages after it,
    /// and a publish from outside is followed by its own pump. When
    /// this returns, whatever was published before the call has reached
    /// every target it leads to. `false` once no stage is left.
    pub fn pump(&self, log: &Log) -> bool {
        let Ok(mut stages) = self.stages.lock() else {
            // A stage panicked under this lock, so its state may be
            // half-updated: forwarding stops, and every publish that
            // goes nowhere says so.
            log.line(&format_args!(
                "fabric: a stage panicked; updates are no longer forwarded"
            ));
            return false;
        };
        stages.retain_mut(|step| step(log));
        !stages.is_empty()
    }
}

/// A target's stage: install what `feed` holds and log the lockstep
/// line under `label` (`name (type)`).
pub(crate) fn install_stage(label: String, mut feed: Subscription, mut install: Install) -> Stage {
    Box::new(move |log| {
        while let Some(update) = feed.try_recv() {
            let state = install(update);
            log.line(&format_args!("target {label}: {state}"));
        }
        if !feed.is_closed() {
            return true;
        }
        log.line(&format_args!("target {label}: feed drained"));
        false
    })
}

/// A running fabric: its threads — the stages they pump live as long
/// as they do — and the serving side of every target.
pub struct Manager {
    shutdown: Arc<AtomicBool>,
    /// One thread per `engine`, `rtr` and `json` unit, plus the file
    /// watch of a pipeline with a `slurm` unit: it pumps when nothing
    /// flows, so an edited SLURM file is noticed.
    threads: Vec<JoinHandle<()>>,
    targets: Vec<TargetHandle>,
}

impl Manager {
    /// Parse and start a pipeline in one step.
    pub fn from_toml(text: &str, log: &Log) -> Result<Manager, FabricError> {
        let config = ProxyConfig::parse(text)?;
        Manager::start(&config, log)
    }

    /// Start every stage of `config`. The declaration is validated in
    /// full *before* any thread spawns or socket binds, so a bad
    /// pipeline never half-starts. Returns once all listeners are bound
    /// (their addresses have been logged) and all threads are running.
    pub fn start(config: &ProxyConfig, log: &Log) -> Result<Manager, FabricError> {
        let units = plan_units(config)?;
        let targets = plan_targets(config)?;

        let gossips: BTreeMap<String, Gossip> = config
            .units
            .iter()
            .map(|(name, _)| (name.clone(), Gossip::new()))
            .collect();

        // Targets first: binding is the only fallible step left, and
        // with nothing running yet a bind failure tears down cleanly.
        let mut handles = Vec::new();
        let mut installs: Vec<Stage> = Vec::new();
        for plan in targets {
            let (name, listen) = (&plan.name, &plan.listen);
            let (started, kind) = match plan.kind {
                TargetKind::Rtr => (start_rtr_target(name, listen, log), "rtr"),
                TargetKind::Http => {
                    let plane = ServerConfig::default();
                    (start_http_target(name, listen, log, plane), "http")
                }
            };
            // On failure the targets bound so far stop as they drop.
            let (handle, install) = started?;
            handles.push(handle);
            let feed = gossips[&plan.unit].subscribe();
            installs.push(install_stage(format!("{name} ({kind})"), feed, install));
        }

        // Wired under the fabric lock: a unit that publishes before the
        // last stage is in place waits here with its first pump.
        let fabric = Arc::new(Fabric::default());
        let mut stages = fabric.stages.lock().expect("a new lock is not poisoned");
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();
        let mut watch_every: Option<Duration> = None;
        for (name, plan) in units {
            let subscribe = |source: &String| gossips[source].subscribe();
            let gossip = gossips[&name].clone();
            let (fabric, log) = (Arc::clone(&fabric), log.clone());
            let shutdown = Arc::clone(&shutdown);
            match plan {
                UnitPlan::Engine(unit) => threads.push(std::thread::spawn(move || {
                    run_engine_unit(&name, &unit, &gossip, &fabric, &log, &shutdown);
                })),
                UnitPlan::Rtr(unit) => threads.push(std::thread::spawn(move || {
                    run_rtr_unit(&name, &unit, &gossip, &fabric, &log, &shutdown);
                })),
                UnitPlan::Json(unit) => threads.push(std::thread::spawn(move || {
                    run_json_unit(&name, &unit, &gossip, &fabric, &log, &shutdown);
                })),
                // `plan_units` put these after their sources.
                UnitPlan::Slurm { file, poll, source } => {
                    watch_every = Some(watch_every.map_or(poll, |every| every.min(poll)));
                    stages.push(slurm_stage(&name, file, subscribe(&source), gossip, &log));
                }
                UnitPlan::Combinator(kind, sources) => {
                    let sources = sources.iter().map(subscribe).collect();
                    stages.push(combinator_stage(&name, kind, sources, gossip));
                }
            }
        }
        stages.extend(installs);
        drop(stages);
        if let Some(every) = watch_every {
            let (log, shutdown) = (log.clone(), Arc::clone(&shutdown));
            threads.push(std::thread::spawn(move || {
                while pause(every, &shutdown) && fabric.pump(&log) {}
            }));
        }
        Ok(Manager {
            shutdown,
            threads,
            targets: handles,
        })
    }

    /// The bound address of every target, in declaration order.
    pub fn target_addrs(&self) -> Vec<(String, SocketAddr)> {
        self.targets
            .iter()
            .map(|t| (t.name.clone(), t.addr))
            .collect()
    }

    /// Block until the pipeline has drained: every ingest unit has
    /// ended — an `engine` unit does after its last epoch — and closed
    /// its output. The pump that follows a close is synchronous, so
    /// every stage downstream has then seen it and every target has
    /// installed the final payload; the file watch ends with the last
    /// stage. Targets keep *serving* that final state afterwards.
    ///
    /// Only meaningful for pipelines rooted at finite units (`engine`
    /// with an epoch budget); an `rtr`/`json`-fed pipeline never drains
    /// on its own — use [`shutdown`](Self::shutdown) instead.
    pub fn drain(&mut self) {
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }

    /// Stop everything: raise the shutdown flag, join every thread — a
    /// unit closes its output on the way out, and the stages downstream
    /// say they drained — and stop every target, in declaration order,
    /// by dropping it.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.drain();
        self.targets.clear();
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "R2 exempts test code")]
mod tests {
    use super::*;
    use crate::log::tests::captured;
    use ripki_net::Asn;
    use ripki_payload::{PayloadUpdate, VrpPayload, VrpTriple};
    use std::net::TcpStream;
    use std::sync::mpsc;
    use std::time::Instant;

    /// Read the log up to the end of the line that carries `needle`.
    fn wait_for(logged: &mpsc::Receiver<String>, needle: &str) {
        let mut seen = String::new();
        while !(seen.contains(needle) && seen.ends_with('\n')) {
            seen.push_str(&logged.recv().expect("the line is logged"));
        }
    }

    /// Everything logged so far.
    fn logged_so_far(logged: &mpsc::Receiver<String>) -> String {
        logged.try_iter().collect()
    }

    #[test]
    fn engine_pipeline_reaches_both_targets_in_lockstep() {
        let toml = r#"
[units.world]
type = "engine"
domains = 40
seed = 11
epochs = 2

[units.feed]
type = "any"
sources = ["world"]

[targets.cache]
type = "rtr"
listen = "127.0.0.1:0"
unit = "feed"

[targets.export]
type = "http"
listen = "127.0.0.1:0"
unit = "feed"
"#;
        let log = Log::sink();
        let mut manager = Manager::from_toml(toml, &log).expect("start");
        let addrs: BTreeMap<String, SocketAddr> = manager.target_addrs().into_iter().collect();
        manager.drain();

        // RTR target: a real client sync sees the final epoch.
        let stream = TcpStream::connect(addrs["cache"]).expect("connect rtr");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        let mut client = ripki_rtr::Client::new(stream);
        client.sync().expect("sync");
        let rtr_payload = client.payload().expect("rtr payload");
        assert_eq!(rtr_payload.epoch(), 3, "initial epoch + 2 churn epochs");

        // HTTP target serves the byte-identical set.
        let response = crate::http::get(
            &format!("http://{}/vrps.json", addrs["export"]),
            &[],
            Duration::from_secs(2),
        )
        .expect("fetch export");
        assert_eq!(response.status, 200);
        let text = std::str::from_utf8(&response.body).expect("utf8");
        let http_payload = ripki_payload::json::parse_vrps_json(text).expect("parse export");
        assert_eq!(http_payload, rtr_payload, "targets are in lockstep");

        manager.shutdown();
    }

    #[test]
    fn shutdown_interrupts_a_unit_in_its_pause() {
        for (toml, in_its_pause) in [
            // Once epoch 1 is out the unit sits in its minute-long pause.
            (
                "[units.world]\ntype = \"engine\"\ndomains = 40\nepochs = 3\ninterval-ms = 60000\n",
                "epoch 1 validated",
            ),
            // Nothing listens on port 1: the first fetch fails at once.
            (
                "[units.up]\ntype = \"json\"\nurl = \"http://127.0.0.1:1/vrps.json\"\npoll-ms = 60000\n",
                "fetch failed",
            ),
            // The first dial fails at once and is logged; the unit then
            // waits out its backoff and redials, on and on.
            (
                "[units.up]\ntype = \"rtr\"\nconnect = \"127.0.0.1:1\"\npoll-ms = 60000\n",
                "failed",
            ),
        ] {
            let (log, logged) = captured();
            let started = Instant::now();
            let manager = Manager::from_toml(toml, &log).expect("start");
            wait_for(&logged, in_its_pause);
            let paused = Instant::now();
            manager.shutdown();
            let took = paused.elapsed();
            assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
            let whole = started.elapsed();
            assert!(whole < Duration::from_secs(2), "start to stop took {whole:?}");
        }

        // An upstream that drops SYNs: a backlog-0 listener holding one
        // unaccepted connection (on Linux loopback every later SYN is
        // dropped). Only the dial's own bound ends a connect in flight.
        let blackhole = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        ripki_serve::reactor::set_accept_backlog(&blackhole, 0).expect("listen");
        let addr = blackhole.local_addr().expect("addr");
        let _queued = TcpStream::connect(addr).expect("the one queued connection");
        let (log, _logged) = captured();
        let started = Instant::now();
        let toml = format!("[units.up]\ntype = \"rtr\"\nconnect = \"{addr}\"\npoll-ms = 60000\n");
        Manager::from_toml(&toml, &log).expect("start").shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(2), "start to stop took {took:?}");
    }

    fn epoch(epoch: u64, asns: std::ops::Range<u32>) -> VrpPayload {
        VrpPayload::new(
            epoch,
            asns.map(|asn| VrpTriple {
                prefix: "10.0.0.0/24".parse().expect("prefix"),
                max_length: 24,
                asn: Asn::new(asn),
            }),
        )
    }

    #[test]
    fn a_pump_carries_the_newest_update_through_every_stage() {
        let (log, logged) = captured();
        let (up, relay) = (Gossip::new(), Gossip::new());
        let (edge, install) = start_rtr_target("edge", "127.0.0.1:0", &log).expect("bind");
        let fabric = Fabric::default();
        fabric.stages.lock().expect("fabric").extend([
            combinator_stage(
                "relay",
                Combinator::Any,
                vec![up.subscribe()],
                relay.clone(),
            ),
            install_stage("edge (rtr)".into(), relay.subscribe(), install),
        ]);
        wait_for(&logged, "listening on");
        let (p1, p2, p3) = (epoch(1, 0..1), epoch(2, 0..2), epoch(3, 0..3));

        // One publish, one pump: the update is at the edge when the
        // pump returns, and each stage has logged its line in order.
        up.publish(PayloadUpdate::snapshot(p1.clone()));
        assert!(fabric.pump(&log));
        assert_eq!(
            logged_so_far(&logged),
            format!(
                "unit relay (Any): epoch 1 out ({p1})\n\
                 target edge (rtr): serial 1 in lockstep with {p1} [snapshot]\n"
            )
        );

        // Two publishes before a pump conflate: the stages see only the
        // newest, whose delta no longer chains — a counted re-sync.
        up.publish(PayloadUpdate::from_previous(&p1, p2.clone()));
        up.publish(PayloadUpdate::from_previous(&p2, p3.clone()));
        assert!(fabric.pump(&log));
        assert_eq!(
            logged_so_far(&logged),
            format!(
                "unit relay (Any): epoch 3 out ({p3})\n\
                 target edge (rtr): serial 3 in lockstep with {p3} [snapshot resync #1]\n"
            )
        );

        // A pump with nothing new does nothing; the pump after a close
        // carries it down the fabric and leaves no stage behind.
        assert!(fabric.pump(&log));
        assert_eq!(logged_so_far(&logged), "");
        up.close();
        assert!(!fabric.pump(&log));
        assert_eq!(
            logged_so_far(&logged),
            "unit relay (Any): sources drained\ntarget edge (rtr): feed drained\n"
        );
        drop(edge);
    }

    #[test]
    fn a_stage_that_panicked_stops_the_fabric_loudly() {
        let (log, logged) = captured();
        let fabric = Arc::new(Fabric::default());
        let poisoner = {
            let fabric = Arc::clone(&fabric);
            std::thread::spawn(move || {
                let _stages = fabric.stages.lock().expect("first holder");
                panic!("a stage panics under the fabric lock");
            })
        };
        assert!(poisoner.join().is_err());
        fabric.pump(&log);
        assert!(logged_so_far(&logged).contains("a stage panicked"));
    }

    #[test]
    fn bad_wiring_is_a_startup_error() {
        let log = Log::sink();
        for (toml, needle) in [
            (
                "[units.a]\ntype = \"any\"\nsources = [\"ghost\"]",
                "undeclared unit",
            ),
            (
                "[units.a]\ntype = \"any\"\nsources = [\"a\"]",
                "units a cannot be ordered",
            ),
            (
                "[units.a]\ntype = \"any\"\nsources = [\"b\"]\n\
                 [units.b]\ntype = \"any\"\nsources = [\"a\"]",
                "units a, b cannot be ordered",
            ),
            ("[units.a]\ntype = \"flux\"", "unknown type"),
            (
                "[units.a]\ntype = \"engine\"\n[targets.t]\ntype = \"rtr\"\nlisten = \"127.0.0.1:0\"\nunit = \"ghost\"",
                "undeclared unit",
            ),
            (
                "[units.a]\ntype = \"engine\"\n[targets.t]\ntype = \"smoke\"\nlisten = \"127.0.0.1:0\"\nunit = \"a\"",
                "unknown type",
            ),
        ] {
            match Manager::from_toml(toml, &log) {
                Err(e) => {
                    let message = e.to_string();
                    assert!(message.contains(needle), "{message:?} missing {needle:?}");
                }
                Ok(manager) => {
                    manager.shutdown();
                    panic!("accepted bad wiring: {toml}");
                }
            }
        }
    }
}
