//! ripki-proxy: a composable VRP distribution fabric.
//!
//! The RiPKI study argues that RPKI-filtered serving only deploys if
//! the *distribution* side is operationally cheap: one validator's
//! output must fan out to many relying parties over whatever transport
//! they already speak. This crate refactors the repository's
//! one-process pipeline (engine → serve/rtr) into RTRTR-style building
//! blocks, declared in a small TOML file and wired at startup:
//!
//! * **Units** ingest payloads: a local [`StudyEngine`] run
//!   ([`units::run_engine_unit`]), an RTR client with reconnect/resume
//!   ([`units::run_rtr_unit`]), or a conditional `/vrps.json` poller
//!   ([`units::run_json_unit`]). The `slurm` unit and the combinators
//!   (`any`, `merge`, `diff`) are units whose input is other units.
//! * **Targets** fan out: an RTR cache server ([`targets`]) and a
//!   JSON/CSV/metrics HTTP exporter.
//! * The [`comms::Gossip`] watch channel carries [`VrpPayload`] epochs
//!   between them with monotonicity enforced at both ends.
//! * Only the ingest units have threads; everything downstream of them
//!   is a step the publishing thread runs under the one fabric lock
//!   ([`manager::Fabric`]).
//! * [`origin`] is where epochs come from: the one driver that commits
//!   an engine epoch and hands it to an origin's serving planes, under
//!   the `engine` unit and the CLI's serving commands alike.
//!
//! Because every hop speaks [`ripki_payload::VrpPayload`], a chain of
//! proxies is transparent: the VRP set a router receives N hops
//! downstream is byte-identical to the engine's, and its RTR serial
//! stays in lockstep with the engine's epoch (the multi-process chain
//! test in `crates/cli` demonstrates exactly that).
//!
//! [`StudyEngine`]: ripki::engine::StudyEngine
//! [`VrpPayload`]: ripki_payload::VrpPayload

pub mod comms;
pub mod config;
pub mod http;
pub mod log;
pub mod manager;
pub mod origin;
#[cfg(test)]
mod sim;
pub mod targets;
pub mod units;

pub use comms::{Gossip, Subscription};
pub use config::{ConfigError, ProxyConfig};
pub use log::Log;
pub use manager::{FabricError, Manager};
pub use origin::{EpochDriver, EpochReport, OriginError, Planes};
