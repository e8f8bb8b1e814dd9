//! The measurement data model: per-name, per-domain, and study-wide
//! result types plus the pipeline configuration.
//!
//! One module so the engine, the report writers, and the
//! incremental-update machinery all share one
//! definition of what a measurement *is*. The types are deliberately
//! dumb data: all production logic lives in [`crate::engine`].

use ripki_bgp::rov::RpkiState;
use ripki_dns::vantage::Vantage;
use ripki_dns::DomainName;
use ripki_net::{Asn, IpPrefix};
use ripki_rpki::time::SimTime;
use serde::{Deserialize, Serialize};
use std::net::IpAddr;

/// One (covering prefix, origin AS) pair with its RFC 6811 state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairState {
    /// The covering prefix found in the table dump.
    pub prefix: IpPrefix,
    /// Its origin AS.
    pub origin: Asn,
    /// Validation outcome.
    pub state: RpkiState,
}

/// Step 2–4 results for one name form (`www` or bare).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NameMeasurement {
    /// Addresses kept after excluding special-purpose answers.
    pub addresses: Vec<IpAddr>,
    /// Special-purpose answers discarded (the paper's "incorrect DNS
    /// answers", 0.07%).
    pub excluded_invalid: usize,
    /// Addresses with no covering prefix in the table (the paper's
    /// "0.01% … not reachable from our BGP vantage points").
    pub unreachable: usize,
    /// CNAME chain traversed during resolution.
    pub cname_chain: Vec<DomainName>,
    /// Distinct (prefix, origin) pairs with validation state.
    pub pairs: Vec<PairState>,
    /// Table entries skipped because their origin was an `AS_SET`.
    pub as_set_skipped: usize,
    /// Resolution failed entirely (NXDOMAIN etc.).
    pub resolve_failed: bool,
    /// Whether the resolution was DNSSEC-authenticated end to end
    /// (extension: the paper's future-work DNSSEC comparison).
    #[serde(default)]
    pub dnssec_authenticated: bool,
}

impl NameMeasurement {
    /// Distinct prefixes among the pairs.
    pub fn prefixes(&self) -> Vec<IpPrefix> {
        let mut v: Vec<IpPrefix> = self.pairs.iter().map(|p| p.prefix).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Fraction of pairs in `state` (`None` if no pairs — the paper
    /// assigns per-domain probabilities like "3/5 RPKI coverage").
    pub fn state_fraction(&self, state: RpkiState) -> Option<f64> {
        if self.pairs.is_empty() {
            return None;
        }
        let n = self.pairs.iter().filter(|p| p.state == state).count();
        Some(n as f64 / self.pairs.len() as f64)
    }

    /// Fraction of pairs covered by the RPKI (Valid or Invalid) — the
    /// paper's "RPKI coverage" of a name.
    pub fn covered_fraction(&self) -> Option<f64> {
        self.state_fraction(RpkiState::NotFound).map(|nf| 1.0 - nf)
    }

    /// Covered/total prefix counts as printed in Table 1, e.g. `(1, 3)`.
    pub fn coverage_counts(&self) -> (usize, usize) {
        let covered = self
            .pairs
            .iter()
            .filter(|p| p.state != RpkiState::NotFound)
            .count();
        (covered, self.pairs.len())
    }

    /// DNS indirection count (the CDN heuristic input).
    pub fn indirections(&self) -> usize {
        self.cname_chain.len()
    }
}

/// Full measurement of one ranked domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainMeasurement {
    /// Rank in the input list (0-based).
    pub rank: usize,
    /// The name as listed.
    pub listed: DomainName,
    /// Measurement of the `www.`-prefixed form.
    pub www: NameMeasurement,
    /// Measurement of the bare ("w/o www") form.
    pub bare: NameMeasurement,
}

impl DomainMeasurement {
    /// Whether both name forms mapped to exactly equal prefix sets
    /// (Fig 1's quantity).
    pub fn equal_prefixes(&self) -> bool {
        self.www.prefixes() == self.bare.prefixes()
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Resolver vantage (the paper's default: Google DNS from Berlin).
    pub vantage: Vantage,
    /// DNS corruption rate in ppm (700 = the paper's 0.07%).
    pub bogus_dns_ppm: u32,
    /// Seed for the deterministic DNS corruption.
    pub dns_fault_seed: u64,
    /// Simulated instant at which the RPKI is validated.
    pub now: SimTime,
    /// Number of worker threads (0 = available parallelism). An
    /// explicit value is honored as given; see
    /// [`worker_threads`](Self::worker_threads).
    pub threads: usize,
    /// Test-only fault hook: measuring this listed domain panics,
    /// exercising the skip-and-count isolation path that a real
    /// measurement bug would hit. `None` (the default) in production.
    pub poison_domain: Option<DomainName>,
}

impl PipelineConfig {
    /// The worker count every parallel plane actually uses — the
    /// sharded full run, the incremental validator's execute stage, and
    /// the incremental re-measure all read this one knob.
    ///
    /// The `RIPKI_THREADS` environment variable, when set to a positive
    /// integer, overrides the configured value (`RIPKI_THREADS=0`
    /// forces auto-detection). Otherwise an explicit `threads` value is
    /// taken at face value — callers who ask for 256 workers get 256.
    /// Only the auto-detected path (`threads == 0`) is clamped to 64:
    /// `available_parallelism` on very wide machines would otherwise
    /// spawn far more workers than the sharding can keep busy.
    pub fn worker_threads(&self) -> usize {
        let configured = std::env::var("RIPKI_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(self.threads);
        if configured > 0 {
            configured
        } else {
            std::thread::available_parallelism()
                .map_or(4, std::num::NonZero::get)
                .clamp(1, 64)
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            vantage: Vantage::GOOGLE_DNS_BERLIN,
            bogus_dns_ppm: 700,
            dns_fault_seed: 0x0ddf_a017,
            now: SimTime::start_of_study(),
            threads: 0,
            poison_domain: None,
        }
    }
}

/// Aggregate study output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StudyResults {
    /// Per-domain measurements in rank order.
    pub domains: Vec<DomainMeasurement>,
    /// Count of VRPs used for validation.
    pub vrp_count: usize,
    /// Objects rejected during cryptographic RPKI validation.
    pub rpki_rejected: usize,
    /// Epoch of the snapshot that produced (or last revalidated) these
    /// results; 0 for hand-built results.
    pub epoch: u64,
    /// Ranks whose measurement panicked and was skipped (empty on a
    /// healthy run).
    pub skipped: Vec<usize>,
}
