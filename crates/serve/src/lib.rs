//! # ripki-serve
//!
//! The epoch-consistent HTTP query plane over the study engine: an
//! event-driven HTTP/1.1 server built on a hand-rolled `poll(2)`
//! reactor (`std::net` + one reactor thread + a small worker pool — no
//! async runtime, per the workspace's offline-build policy) exposing
//! the live study state that until now was only reachable through the
//! CLI's batch reports and the RTR binary protocol.
//!
//! The moving parts:
//!
//! * [`reactor`] — the readiness loop owning non-blocking accept, all
//!   socket reads/writes, deadlines, and backpressure (admission
//!   window, ready-queue shed, connection watermark, lingering close).
//! * [`conn`] — the pure per-connection HTTP/1.1 state machine:
//!   incremental head parsing, bounded body draining, pipelining with
//!   in-order responses, close/shed framing.
//! * [`pool`] — worker threads running handlers off the reactor thread
//!   and handing serialised responses back through a wake-on-push
//!   completion queue.
//!
//! Endpoints:
//!
//! | path | payload |
//! |------|---------|
//! | `GET /api/v1/validity?asn=&prefix=` | RFC 6811 verdict with covering VRPs, Routinator-compatible |
//! | `GET /api/v1/validity/{asn}/{prefix}` | same, path form |
//! | `GET /vrps.json`, `GET /vrps.csv` | the current epoch's full VRP export, streamed |
//! | `GET /api/v1/domain/{name}` | a ranked domain's measurement + hijack exposure |
//! | `GET /metrics` | Prometheus text: request counters, latency histograms, epoch, VRP count |
//! | `GET /status` | liveness summary |
//!
//! The consistency story is the crate's spine: handlers answer from an
//! [`EpochView`](view::EpochView) — a `WorldSnapshot` bound to the
//! `StudyResults` measured from it, swapped atomically on each churn
//! epoch ([`SharedView`](view::SharedView)) and stamped into every
//! response. HTTP answers, RTR serials and `EpochDelta`s all advance in
//! lockstep; `DESIGN.md` § "The serving plane" states the contract.

// The request path must not panic on hostile input (ripki-lint R1 checks
// the same ground transitively). clippy.toml exempts test code.
#![deny(clippy::unwrap_used)]

pub mod api;
pub mod conn;
pub mod http;
pub mod metrics;
pub mod pool;
pub mod reactor;
pub mod server;
pub mod view;

pub use metrics::{Endpoint, Metrics};
pub use server::{Server, ServerConfig};
pub use view::{EpochView, SharedView};
