//! The measurement data model: per-name, per-domain, and study-wide
//! result types plus the pipeline configuration.
//!
//! One module so the engine, the report writers, and the
//! incremental-update machinery all share one
//! definition of what a measurement *is*. The types are deliberately
//! dumb data: all production logic lives in [`crate::engine`]. The one
//! type with an invariant is [`DomainTable`], the copy-on-write storage
//! behind [`StudyResults::domains`].

use ripki_bgp::rov::RpkiState;
use ripki_dns::vantage::Vantage;
use ripki_dns::DomainName;
use ripki_net::{Asn, IpPrefix};
use ripki_rpki::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::{Arc, OnceLock};

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
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
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
    /// The distinct prefixes among the pairs, sorted, written over
    /// `buf`: a pass over many rows reuses one buffer instead of
    /// allocating per row.
    pub fn prefixes_into<'b>(&self, buf: &'b mut Vec<IpPrefix>) -> &'b [IpPrefix] {
        buf.clear();
        buf.extend(self.pairs.iter().map(|p| p.prefix));
        buf.sort_unstable();
        buf.dedup();
        buf
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
        self.equal_prefixes_with(&mut Default::default())
    }

    /// [`equal_prefixes`](Self::equal_prefixes) over two caller buffers,
    /// so a pass over every row allocates nothing per row.
    pub fn equal_prefixes_with(&self, (www, bare): &mut (Vec<IpPrefix>, Vec<IpPrefix>)) -> bool {
        self.www.prefixes_into(www) == self.bare.prefixes_into(bare)
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

/// The per-domain table of a study: one shared measurement per position,
/// in rank order.
///
/// Copy-on-write at domain granularity: a `clone` copies one pointer per
/// domain, [`replace`](Self::replace) swaps a single one, and every
/// other clone keeps the measurement it had — which is how the engine
/// hands each epoch to the serving plane without copying the world.
/// The name index is built by the first [`lookup`](Self::lookup) and
/// shared by every clone made before or after; it stays valid because
/// no operation changes which name sits at which position.
#[derive(Clone, Default)]
pub struct DomainTable {
    rows: Vec<Arc<DomainMeasurement>>,
    /// Listed, bare and `www.` form of every domain → its position.
    names: Arc<OnceLock<HashMap<DomainName, usize>>>,
}

/// Borrowing iterator over a [`DomainTable`].
pub type DomainIter<'a> = std::iter::Map<
    std::slice::Iter<'a, Arc<DomainMeasurement>>,
    fn(&'a Arc<DomainMeasurement>) -> &'a DomainMeasurement,
>;

impl DomainTable {
    /// Number of measured domains.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no domain was measured.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The measurement at `pos`.
    pub fn get(&self, pos: usize) -> Option<&DomainMeasurement> {
        self.rows.get(pos).map(|row| &**row)
    }

    /// The measurements in position order.
    pub fn iter(&self) -> DomainIter<'_> {
        self.rows.iter().map(|row| &**row)
    }

    /// The shared rows themselves: `Arc::ptr_eq` on two tables' rows
    /// tells whether a domain was re-measured between them.
    pub fn rows(&self) -> &[Arc<DomainMeasurement>] {
        &self.rows
    }

    /// Position of the domain ranked `rank`, or `None` when it was
    /// skipped. A binary search: the rows must be in rank order, as
    /// every engine run produces them.
    pub fn position_of_rank(&self, rank: usize) -> Option<usize> {
        self.rows.binary_search_by_key(&rank, |row| row.rank).ok()
    }

    /// Commit a fresh measurement of the domain at `pos`; clones taken
    /// earlier keep the old one.
    ///
    /// # Panics
    ///
    /// If `measured` is not the same ranked name as the row it replaces
    /// — the name index shared across clones relies on positions never
    /// changing their name.
    pub fn replace(&mut self, pos: usize, measured: DomainMeasurement) {
        let row = &mut self.rows[pos];
        assert!(
            row.rank == measured.rank && row.listed == measured.listed,
            "replace must keep rank and listed name ({} {:?} -> {} {:?})",
            row.rank,
            row.listed,
            measured.rank,
            measured.listed
        );
        *row = Arc::new(measured);
    }

    /// Find a domain by its listed, bare or `www.` name: its position
    /// and measurement.
    pub fn lookup(&self, name: &DomainName) -> Option<(usize, &DomainMeasurement)> {
        let names = self.names();
        let &pos = names.get(name).or_else(|| names.get(&name.without_www()))?;
        Some((pos, self.get(pos)?))
    }

    /// Build the name index now unless this table or a clone of it
    /// already has — for a caller that would rather pay at start-up
    /// than in its first [`lookup`](Self::lookup).
    pub fn ensure_index(&self) {
        self.names();
    }

    fn names(&self) -> &HashMap<DomainName, usize> {
        self.names.get_or_init(|| {
            let mut names = HashMap::with_capacity(self.rows.len() * 2);
            for (pos, row) in self.rows.iter().enumerate() {
                let bare = row.listed.without_www();
                names.insert(bare.with_www(), pos);
                names.insert(bare, pos);
                names.insert(row.listed.clone(), pos);
            }
            names
        })
    }

    /// Whether `other` is a clone of the same lineage, answering
    /// lookups from the same index allocation.
    pub fn shares_index_with(&self, other: &DomainTable) -> bool {
        Arc::ptr_eq(&self.names, &other.names)
    }
}

/// Equality is over the measurements alone; rows two tables share
/// compare by pointer, so two lineages of one study cost O(changed).
impl PartialEq for DomainTable {
    fn eq(&self, other: &DomainTable) -> bool {
        self.rows == other.rows
    }
}

impl Eq for DomainTable {}

impl std::fmt::Debug for DomainTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl std::ops::Index<usize> for DomainTable {
    type Output = DomainMeasurement;

    fn index(&self, pos: usize) -> &DomainMeasurement {
        &self.rows[pos]
    }
}

impl<'a> IntoIterator for &'a DomainTable {
    type Item = &'a DomainMeasurement;
    type IntoIter = DomainIter<'a>;

    fn into_iter(self) -> DomainIter<'a> {
        self.iter()
    }
}

impl FromIterator<DomainMeasurement> for DomainTable {
    fn from_iter<I: IntoIterator<Item = DomainMeasurement>>(iter: I) -> DomainTable {
        DomainTable {
            rows: iter.into_iter().map(Arc::new).collect(),
            names: Arc::default(),
        }
    }
}

impl From<Vec<DomainMeasurement>> for DomainTable {
    fn from(domains: Vec<DomainMeasurement>) -> DomainTable {
        domains.into_iter().collect()
    }
}

impl Serialize for DomainTable {
    fn to_value(&self) -> serde::Value {
        serde::Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

/// Aggregate study output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StudyResults {
    /// Per-domain measurements in rank order.
    pub domains: DomainTable,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn dm(rank: usize, listed: &str) -> DomainMeasurement {
        DomainMeasurement {
            rank,
            listed: DomainName::parse(listed).expect("test name"),
            www: NameMeasurement::default(),
            bare: NameMeasurement::default(),
        }
    }

    #[test]
    fn replace_patches_one_table_and_equality_ignores_the_index() {
        let original: DomainTable = vec![dm(0, "a.example"), dm(2, "www.b.example")].into();
        let name = DomainName::parse("b.example").expect("test name");
        assert_eq!(
            original.lookup(&name).map(|(pos, d)| (pos, d.rank)),
            Some((1, 2))
        );
        assert_eq!(original.position_of_rank(2), Some(1));
        assert_eq!(original.position_of_rank(1), None);

        let mut patched = original.clone();
        let mut measured = dm(2, "www.b.example");
        measured.bare.resolve_failed = true;
        patched.replace(1, measured);
        assert!(patched.shares_index_with(&original));
        assert!(
            patched
                .lookup(&name)
                .expect("still listed")
                .1
                .bare
                .resolve_failed
        );
        assert!(
            !original
                .lookup(&name)
                .expect("still listed")
                .1
                .bare
                .resolve_failed
        );
        assert_ne!(patched, original);

        let rebuilt: DomainTable = original.iter().cloned().collect();
        assert!(!rebuilt.shares_index_with(&original));
        assert_eq!(rebuilt, original);
    }

    #[test]
    #[should_panic(expected = "replace must keep rank and listed name")]
    fn replace_rejects_a_changed_rank() {
        let mut table: DomainTable = vec![dm(0, "a.example")].into();
        table.replace(0, dm(1, "a.example"));
    }

    #[test]
    #[should_panic(expected = "replace must keep rank and listed name")]
    fn replace_rejects_a_changed_listed_name() {
        let mut table: DomainTable = vec![dm(0, "a.example")].into();
        table.replace(0, dm(0, "b.example"));
    }
}
