//! # ripki-dns
//!
//! The DNS substrate for the RiPKI measurement pipeline: an authoritative
//! zone store and a resolver simulator that produces exactly what the
//! paper's step 2 consumed — `A`, `AAAA`, and `CNAME` records for every
//! domain, from several vantage points, with CNAME chains preserved.
//!
//! * [`name::DomainName`] — normalised ASCII domain names with the
//!   `www.`/non-`www.` pairing the paper measures (Fig 1).
//! * [`record::RecordData`] — `A`/`AAAA`/`CNAME` data.
//! * [`zone::ZoneStore`] — authoritative data, with per-vantage overrides
//!   modelling CDN geo-DNS (different edge caches for different resolver
//!   locations).
//! * [`resolver::Resolver`] — CNAME-chasing resolution with loop
//!   detection; reports the full chain so the CDN classification
//!   heuristic ("two or more CNAMEs") can be applied downstream.
//! * [`vantage::Vantage`] — the measurement vantage points (the paper
//!   used Google DNS from Berlin, OpenDNS, and a DNS looking glass, plus
//!   HTTPArchive's Redwood City agent for cross-checking).
//! * [`faults::FaultyResolver`] — deterministic answer corruption,
//!   reproducing the "0.07% incorrect DNS answers" the paper excluded.
//!
//! Every answer is one walk over the zone store that takes no lock and
//! writes no shared state. There is no memo of CNAME tails: a chain
//! averages about half a name, so a memo saves at most about one zone
//! lookup per walk and costs a locked probe on every one (measured in
//! DESIGN.md, "No resolution cache").
//!
//! ## Omissions
//!
//! * No wire format, no UDP/TCP transport, no caching and no TTL
//!   semantics — the pipeline consumes final answers, not packets.
//! * No DNSSEC (the paper explicitly defers it to future work).
//! * No internationalised names; labels are ASCII, as in the Alexa list.

pub mod faults;
pub mod name;
pub mod record;
pub mod resolver;
pub mod vantage;
pub mod zone;
pub mod zonefile;

pub use name::DomainName;
pub use record::RecordData;
pub use resolver::{Resolution, ResolveError, Resolver};
pub use vantage::Vantage;
pub use zone::{ZoneChanges, ZoneDelta, ZoneOp, ZoneStore};
