//! # ripki-rtr
//!
//! The RPKI-to-Router protocol, RFC 6810 (version 0): how validated ROA
//! payloads travel from a relying-party cache to BGP routers. The paper's
//! measurement step 4 "follows the necessary steps to perform origin
//! validation at BGP routers" — in deployments, this protocol *is* that
//! step's delivery path (cf. RTRlib, the authors' own implementation).
//!
//! Four layers, all std-networking with no async runtime:
//!
//! * [`pdu`] — the nine PDU types with exact RFC 6810 wire encoding,
//!   incremental parsing, and error reporting;
//! * [`cache`] — the cache side: versioned VRP state with serial-numbered
//!   incremental deltas, answering Reset/Serial Queries, and waking its
//!   session loops on every serial advance;
//! * [`listener`] — the session plane: one I/O-free session machine
//!   ([`listener::Session`]) under two shells — the one TCP serving
//!   stack, a single wake-driven `poll(2)` loop that owns every router
//!   session of a cache and *pushes* Serial Notify the moment the
//!   serial moves, and the blocking [`CacheServer::serve_connection`];
//! * [`client`] — the router side, the same shape: one I/O-free machine
//!   ([`client::ClientMachine`]) that stages an answer until End of
//!   Data and yields a `BTreeSet` of VRPs ([`Client::to_validator`]
//!   copies it into a validator's `VrpSet`), remembering the delta the
//!   wire just carried so a proxy can forward it, keeping its session
//!   context across a reconnect and flushing it when the cache
//!   restarted — under one blocking shell, [`Client`].
//!
//! Neither machine touches a stream or a clock, so a test can drive a
//! router against a cache in memory; the shells, [`Client`] and
//! [`CacheServer::serve_connection`], work over any `Read + Write`
//! transport.
//!
//! ## Omissions
//!
//! * No RFC 8210 (version 1) router-key PDUs; origin validation only.
//! * Serial Notify push needs readiness notification, so it is served
//!   on TCP by [`RtrListener`]; the generic `Read + Write` server is
//!   strictly request/response.
//! * No TCP-AO/SSH transport security (RFC 6810 §7 lists them as
//!   options; the transport is pluggable).

// Hostile PDUs must never panic the codec or the session loop (ripki-lint R1
// checks the same ground transitively). clippy.toml exempts test code.
#![deny(clippy::unwrap_used)]

pub mod cache;
pub mod client;
pub mod listener;
pub mod pdu;

pub use cache::CacheServer;
pub use client::{dial, Backoff, Client, ClientError, SyncOutcome, WireDelta};
pub use listener::{ListenerConfig, RtrListener};
pub use pdu::{ErrorCode, Pdu, PduError, PROTOCOL_VERSION};
