//! The fabric manager: builds a running pipeline from a parsed
//! [`ProxyConfig`], owns every thread in it, and tears it down.
//!
//! Wiring is name-based and declaration-order independent: every unit
//! gets a [`Gossip`] up front, then producers (units), transforms
//! (combinators), and consumers (targets) are spawned against those
//! channels. A reference to an undeclared unit is a startup error, not
//! a silently dead hop.

use crate::comms::Gossip;
use crate::config::{ConfigError, ProxyConfig, Section};
use crate::log::Log;
use crate::targets::{start_http_target, start_rtr_target, TargetHandle};
use crate::units::{
    run_combinator, run_engine_unit, run_json_unit, run_rtr_unit, run_slurm_unit, Combinator,
    EngineUnitConfig, JsonUnitConfig, RtrUnitConfig, SlurmUnitConfig,
};
use ripki_slurm::SlurmFile;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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

/// A validated unit declaration, ready to spawn.
enum UnitPlan {
    Engine(EngineUnitConfig),
    Rtr(RtrUnitConfig),
    Json(JsonUnitConfig),
    Slurm(SlurmUnitConfig, String),
    Combinator(Combinator, Vec<String>),
}

/// Check that `source` names another declared unit.
fn check_source(config: &ProxyConfig, name: &str, source: &str) -> Result<(), FabricError> {
    if source == name {
        return Err(wiring_error(format!(
            "[units.{name}] lists itself as a source",
        )));
    }
    if !config.units.iter().any(|(n, _)| n == source) {
        return Err(wiring_error(format!(
            "[units.{name}] references undeclared unit {source:?}",
        )));
    }
    Ok(())
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
/// whole declaration).
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
                let file = std::path::PathBuf::from(section.str("file")?);
                // Fail the whole pipeline now if the exception file is
                // malformed — a typo must never silently change which
                // routes get dropped (the unit re-loads at spawn and on
                // every mtime change).
                SlurmFile::load(&file).map_err(|e| wiring_error(format!("[units.{name}]: {e}")))?;
                let source = section.str("source")?.to_string();
                check_source(config, name, &source)?;
                UnitPlan::Slurm(
                    SlurmUnitConfig {
                        file,
                        poll: Duration::from_millis(section.int_or("poll-ms", 100)?),
                    },
                    source,
                )
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
                    check_source(config, name, source)?;
                }
                UnitPlan::Combinator(kind, sources)
            }
        };
        plans.push((name.clone(), plan));
    }
    Ok(plans)
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
        if !config.units.iter().any(|(n, _)| n == &unit) {
            return Err(wiring_error(format!(
                "[targets.{name}] references undeclared unit {unit:?}",
            )));
        }
        plans.push(TargetPlan {
            name: name.clone(),
            kind,
            listen: section.str("listen")?.to_string(),
            unit,
        });
    }
    Ok(plans)
}

/// A running fabric: all threads of all units, combinators, and
/// targets, plus the shared shutdown flag.
pub struct Manager {
    shutdown: Arc<AtomicBool>,
    gossips: Vec<Gossip>,
    /// Threads that finish on their own once their input drains
    /// (engine units, combinators, target consumers).
    finite: Vec<JoinHandle<()>>,
    /// Threads that only stop on shutdown (rtr/json ingest units).
    service: Vec<JoinHandle<()>>,
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

        let shutdown = Arc::new(AtomicBool::new(false));
        let gossips: BTreeMap<String, Gossip> = config
            .units
            .iter()
            .map(|(name, _)| (name.clone(), Gossip::new()))
            .collect();

        let mut manager = Manager {
            shutdown: Arc::clone(&shutdown),
            gossips: gossips.values().cloned().collect(),
            finite: Vec::new(),
            service: Vec::new(),
            targets: Vec::new(),
        };

        // Targets first: binding is the only fallible step left, and
        // with no units running yet a bind failure tears down cleanly.
        for plan in targets {
            let feed = gossips[&plan.unit].subscribe();
            let started = match plan.kind {
                TargetKind::Rtr => start_rtr_target(&plan.name, &plan.listen, feed, log),
                TargetKind::Http => start_http_target(&plan.name, &plan.listen, feed, log),
            };
            match started {
                Ok(handle) => manager.targets.push(handle),
                Err(e) => {
                    manager.shutdown();
                    return Err(e.into());
                }
            }
        }

        for (name, plan) in units {
            let gossip = gossips[&name].clone();
            let log = log.clone();
            let shutdown_flag = Arc::clone(&shutdown);
            match plan {
                UnitPlan::Engine(unit) => manager.finite.push(std::thread::spawn(move || {
                    run_engine_unit(&name, &unit, &gossip, &log, &shutdown_flag);
                })),
                UnitPlan::Rtr(unit) => manager.service.push(std::thread::spawn(move || {
                    run_rtr_unit(&name, &unit, &gossip, &log, &shutdown_flag);
                })),
                UnitPlan::Json(unit) => manager.service.push(std::thread::spawn(move || {
                    run_json_unit(&name, &unit, &gossip, &log, &shutdown_flag);
                })),
                UnitPlan::Slurm(unit, source) => {
                    let source = gossips[&source].subscribe();
                    manager.finite.push(std::thread::spawn(move || {
                        run_slurm_unit(&name, &unit, source, &gossip, &log, &shutdown_flag);
                    }));
                }
                UnitPlan::Combinator(kind, sources) => {
                    let sources = sources
                        .iter()
                        .map(|source| gossips[source].subscribe())
                        .collect();
                    manager.finite.push(std::thread::spawn(move || {
                        run_combinator(&name, kind, sources, &gossip, &log, &shutdown_flag);
                    }));
                }
            }
        }

        Ok(manager)
    }

    /// The bound address of every target, in declaration order.
    pub fn target_addrs(&self) -> Vec<(String, SocketAddr)> {
        self.targets
            .iter()
            .map(|t| (t.name.clone(), t.addr))
            .collect()
    }

    /// Block until every self-terminating stage has drained: engine
    /// units have published their last epoch, combinators have seen all
    /// sources close, and target consumers have installed the final
    /// payload. Targets keep *serving* that final state afterwards.
    ///
    /// Only meaningful for pipelines rooted at finite units (`engine`
    /// with an epoch budget); an `rtr`/`json`-fed pipeline never drains
    /// on its own — use [`shutdown`](Self::shutdown) instead.
    pub fn drain(&mut self) {
        for handle in self.finite.drain(..) {
            let _ = handle.join();
        }
        for target in &mut self.targets {
            if let Some(consume) = target.consume.take() {
                let _ = consume.join();
            }
        }
    }

    /// Stop everything: raise the shutdown flag, close all gossip
    /// channels, join every unit thread, and stop every target.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for gossip in &self.gossips {
            gossip.close();
        }
        for handle in self.finite.drain(..) {
            let _ = handle.join();
        }
        for handle in self.service.drain(..) {
            let _ = handle.join();
        }
        for target in self.targets.drain(..) {
            target.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;
    use std::time::Duration;

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
    fn shutdown_interrupts_an_engine_unit_in_its_pause() {
        struct Lines(std::sync::mpsc::Sender<String>);
        impl io::Write for Lines {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let _ = self.0.send(String::from_utf8_lossy(buf).into_owned());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let (lines, logged) = std::sync::mpsc::channel();
        let toml =
            "[units.world]\ntype = \"engine\"\ndomains = 40\nepochs = 3\ninterval-ms = 60000\n";
        let manager = Manager::from_toml(toml, &Log::to(Box::new(Lines(lines)))).expect("start");
        // Once epoch 1 is out the unit sits in its minute-long pause.
        let mut seen = String::new();
        while !seen.contains("epoch 1 validated") {
            seen.push_str(&logged.recv().expect("the unit logs its first epoch"));
        }
        let started = std::time::Instant::now();
        manager.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    }

    #[test]
    fn bad_wiring_is_a_startup_error() {
        let log = Log::sink();
        for (toml, needle) in [
            (
                "[units.a]\ntype = \"any\"\nsources = [\"ghost\"]",
                "undeclared unit",
            ),
            ("[units.a]\ntype = \"any\"\nsources = [\"a\"]", "itself"),
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
