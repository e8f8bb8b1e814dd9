//! # ripki
//!
//! The RiPKI measurement methodology (Wählisch et al., HotNets 2015, §3),
//! implemented over the workspace's substrates:
//!
//! 1. **Selecting domain names** — the ranked list (an Alexa stand-in
//!    from `ripki-websim`, or any list you provide).
//! 2. **Mapping domains to IP addresses** — resolve each name and its
//!    `www` twin via `ripki-dns`, exclude IANA special-purpose answers.
//! 3. **Mapping IP addresses to prefixes and ASNs** — all covering
//!    prefixes from the BGP table, right-most-ASN origins, `AS_SET`
//!    entries excluded (`ripki-bgp`).
//! 4. **RPKI validation** — RFC 6811 against the VRPs produced by
//!    cryptographic validation of the repository (`ripki-rpki`).
//!
//! On top of the four steps ([`engine`]):
//!
//! * [`stats`] — the 10k-domain binning used by every figure;
//! * [`classify`] — the CNAME-chain CDN heuristic and the
//!   HTTPArchive-style pattern classifier (Fig 3);
//! * [`figures`] / [`tables`] — builders regenerating Figures 1–4 and
//!   Table 1;
//! * [`cdn_audit`] — §4.2's keyword-spotting audit of CDN ASes;
//! * [`report`] — headline statistics and CSV/JSON export.
//!
//! The measurement core is the snapshot-based [`engine`]: an
//! `Arc`-shared, epoch-versioned `WorldSnapshot` owned by a
//! `StudyEngine`, with lock-free resolution and panic-tolerant sharded
//! runs — a 1M-domain study is embarrassingly parallel.
//! The result types are [`model`]'s; [`pipeline`] is their historical
//! import path.

pub mod cdn_audit;
pub mod classify;
pub mod engine;
pub mod exposure;
pub mod figures;
pub mod model;
pub mod pipeline;
pub mod report;
pub mod stats;
pub mod tables;

pub use engine::{EngineError, EpochDelta, StudyEngine, WorldSnapshot};
pub use model::{
    DomainMeasurement, DomainTable, NameMeasurement, PairState, PipelineConfig, StudyResults,
};
pub use report::HeadlineStats;
pub use stats::BinnedSeries;
