//! The measurement data model: per-name, per-domain, and study-wide
//! result types plus the pipeline configuration.
//!
//! One module so the engine, the report writers, and the
//! incremental-update machinery all share one
//! definition of what a measurement *is*. The types are deliberately
//! dumb data: all production logic lives in [`crate::engine`]. The one
//! type with an invariant is [`DomainTable`], the copy-on-write storage
//! behind [`StudyResults::domains`]: one shared row per domain, held in
//! shared chunks of consecutive rows, so that handing an epoch's table
//! to a reader costs one count per chunk and retiring it frees only
//! the chunks a later epoch rewrote.

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

/// Rows per chunk of a [`DomainTable`]. An epoch copies one chunk per
/// re-measured domain at most, and a clone bumps one count per chunk.
/// A chunk copy bumps the counts of rows allocated next to each other,
/// while each chunk's own count sits in an allocation of its own, so
/// the wider chunk publishes faster: of 8, 16 and 32 rows, 32 read the
/// cheapest clone and view build at 100 000 domains.
const CHUNK: usize = 32;

/// `CHUNK` consecutive rows, shared by every table that has not
/// replaced one of them.
type Chunk = Arc<[Arc<DomainMeasurement>]>;

/// The per-domain table of a study: one shared measurement per position,
/// in rank order.
///
/// Copy-on-write at domain granularity, held in shared chunks of
/// `CHUNK` consecutive rows: a `clone` copies one pointer per chunk,
/// [`replace`](Self::replace) swaps a single row after copying the one
/// chunk that holds it unless this table already owns that chunk, and
/// every other clone keeps the measurement it had. That is how the
/// engine hands each epoch to the serving plane without copying the
/// world; dropping the retired table frees only the chunks its
/// successor replaced.
///
/// The name index is built by the first [`lookup`](Self::lookup) and
/// shared by every clone made before or after; it stays valid because
/// no operation changes which name sits at which position.
#[derive(Clone, Default)]
pub struct DomainTable {
    /// The rows in position order, `CHUNK` to a chunk: no chunk is
    /// empty and only the last may be shorter, so position `p` is row
    /// `p % CHUNK` of chunk `p / CHUNK`.
    chunks: Vec<Chunk>,
    /// Listed, bare and `www.` form of every domain → its position.
    names: Arc<OnceLock<HashMap<DomainName, usize>>>,
}

/// The shared rows of a [`DomainTable`], in position order: a walk of
/// the chunks and, within each, of its rows.
#[derive(Clone)]
pub struct Rows<'a> {
    /// Rows left in the chunk the front has entered.
    front: std::slice::Iter<'a, Arc<DomainMeasurement>>,
    /// Chunks neither end has entered.
    chunks: std::slice::Iter<'a, Chunk>,
    /// Rows left in the chunk the back has entered.
    back: std::slice::Iter<'a, Arc<DomainMeasurement>>,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a Arc<DomainMeasurement>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(row) = self.front.next() {
                return Some(row);
            }
            match self.chunks.next() {
                Some(chunk) => self.front = chunk.iter(),
                None => return self.back.next(),
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.len();
        (len, Some(len))
    }

    fn fold<B, F: FnMut(B, Self::Item) -> B>(self, init: B, mut f: F) -> B {
        let acc = self.front.fold(init, &mut f);
        let acc = self
            .chunks
            .fold(acc, |acc, chunk| chunk.iter().fold(acc, &mut f));
        self.back.fold(acc, f)
    }
}

impl DoubleEndedIterator for Rows<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(row) = self.back.next_back() {
                return Some(row);
            }
            match self.chunks.next_back() {
                Some(chunk) => self.back = chunk.iter(),
                None => return self.front.next_back(),
            }
        }
    }
}

impl ExactSizeIterator for Rows<'_> {
    fn len(&self) -> usize {
        self.front.len() + rows_in(self.chunks.as_slice()) + self.back.len()
    }
}

/// Rows in a run of a table's chunks: every chunk but the table's last
/// is full, and a run that holds the last ends with it.
fn rows_in(chunks: &[Chunk]) -> usize {
    chunks
        .last()
        .map_or(0, |last| (chunks.len() - 1) * CHUNK + last.len())
}

/// Borrowing iterator over a [`DomainTable`]'s measurements.
pub type DomainIter<'a> =
    std::iter::Map<Rows<'a>, fn(&'a Arc<DomainMeasurement>) -> &'a DomainMeasurement>;

impl DomainTable {
    /// Number of measured domains.
    pub fn len(&self) -> usize {
        rows_in(&self.chunks)
    }

    /// Whether no domain was measured.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The measurement at `pos`.
    pub fn get(&self, pos: usize) -> Option<&DomainMeasurement> {
        self.chunks
            .get(pos / CHUNK)?
            .get(pos % CHUNK)
            .map(|row| &**row)
    }

    /// The measurements in position order.
    pub fn iter(&self) -> DomainIter<'_> {
        self.rows().map(|row| &**row)
    }

    /// The shared rows themselves, in position order: `Arc::ptr_eq` on
    /// two tables' rows tells whether a domain was re-measured between
    /// them.
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            front: [].iter(),
            chunks: self.chunks.iter(),
            back: [].iter(),
        }
    }

    /// Position of the domain ranked `rank`, or `None` when it was
    /// skipped. A binary search: the rows must be in rank order, as
    /// every engine run produces them.
    pub fn position_of_rank(&self, rank: usize) -> Option<usize> {
        let chunk = self
            .chunks
            .partition_point(|chunk| chunk[0].rank <= rank)
            .checked_sub(1)?;
        let row = self.chunks[chunk]
            .binary_search_by_key(&rank, |row| row.rank)
            .ok()?;
        Some(chunk * CHUNK + row)
    }

    /// Commit a fresh measurement of the domain at `pos`; clones taken
    /// earlier keep the old one. Copies the chunk that holds `pos`
    /// first unless no other table shares it.
    ///
    /// # Panics
    ///
    /// If `measured` is not the same ranked name as the row it replaces
    /// — the name index shared across clones relies on positions never
    /// changing their name.
    pub fn replace(&mut self, pos: usize, measured: DomainMeasurement) {
        let chunk = &mut self.chunks[pos / CHUNK];
        let row = &chunk[pos % CHUNK];
        assert!(
            row.rank == measured.rank && row.listed == measured.listed,
            "replace must keep rank and listed name ({} {:?} -> {} {:?})",
            row.rank,
            row.listed,
            measured.rank,
            measured.listed
        );
        Arc::make_mut(chunk)[pos % CHUNK] = Arc::new(measured);
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
            let mut names = HashMap::with_capacity(self.len() * 2);
            for (pos, row) in self.iter().enumerate() {
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

/// Equality is over the measurements alone; chunks and rows two tables
/// share compare by pointer, so two lineages of one study cost
/// O(changed chunks).
impl PartialEq for DomainTable {
    fn eq(&self, other: &DomainTable) -> bool {
        self.chunks.len() == other.chunks.len()
            && self
                .chunks
                .iter()
                .zip(&other.chunks)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
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
        &self.chunks[pos / CHUNK][pos % CHUNK]
    }
}

impl<'a> IntoIterator for &'a DomainTable {
    type Item = &'a DomainMeasurement;
    type IntoIter = DomainIter<'a>;

    fn into_iter(self) -> DomainIter<'a> {
        self.iter()
    }
}

/// Fills the chunks in order, one row allocation per measurement.
impl FromIterator<DomainMeasurement> for DomainTable {
    fn from_iter<I: IntoIterator<Item = DomainMeasurement>>(iter: I) -> DomainTable {
        let mut chunks = Vec::new();
        let mut chunk = Vec::with_capacity(CHUNK);
        for measured in iter {
            chunk.push(Arc::new(measured));
            if chunk.len() == CHUNK {
                chunks.push(chunk.drain(..).collect());
            }
        }
        if !chunk.is_empty() {
            chunks.push(chunk.into());
        }
        DomainTable {
            chunks,
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
    use proptest::prelude::*;

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

    /// A table under test beside its flat model: the rows it must hold,
    /// one identity per chunk that a replace renews (two tables share a
    /// chunk by pointer exactly when their identities agree), and the
    /// lineage whose name index it answers from.
    struct Live {
        table: DomainTable,
        rows: Vec<Arc<DomainMeasurement>>,
        ids: Vec<u64>,
        lineage: u64,
    }

    #[derive(Debug, Clone)]
    enum Op {
        Clone(usize),
        Replace(usize, usize),
        Drop(usize),
        Rebuild(usize),
    }

    /// Ranks leave gaps (rank 3p + 1 at position p) so that a missing
    /// rank sits beside every present one; odd positions list `www.`.
    fn listed(pos: usize) -> DomainMeasurement {
        let www = if pos % 2 == 1 { "www." } else { "" };
        dm(3 * pos + 1, &format!("{www}d{pos}.example"))
    }

    fn table_op() -> impl Strategy<Value = Op> {
        (0u8..4, 0usize..64, 0usize..1000).prop_map(|(kind, i, pos)| match kind {
            0 => Op::Clone(i),
            1 => Op::Replace(i, pos),
            2 => Op::Drop(i),
            _ => Op::Rebuild(i),
        })
    }

    fn assert_matches_model(live: &Live) {
        let (table, rows) = (&live.table, &live.rows);
        assert_eq!(table.len(), rows.len());
        assert_eq!(table.is_empty(), rows.is_empty());
        assert_eq!(table.chunks.len(), live.ids.len());
        let same = |a: &Arc<DomainMeasurement>, b: &Arc<DomainMeasurement>| Arc::ptr_eq(a, b);
        assert_eq!(table.rows().len(), rows.len());
        assert!(table.rows().zip(rows).all(|(a, b)| same(a, b)));
        assert!(table
            .rows()
            .rev()
            .zip(rows.iter().rev())
            .all(|(a, b)| same(a, b)));
        let unreachable = |d: &DomainMeasurement| d.www.unreachable;
        assert_eq!(
            table.iter().map(unreachable).sum::<usize>(),
            rows.iter().map(|d| unreachable(d)).sum::<usize>()
        );
        assert_eq!(table.iter().count(), rows.len());
        assert_eq!(
            table.iter().rev().map(|d| d.rank).collect::<Vec<_>>(),
            rows.iter().rev().map(|d| d.rank).collect::<Vec<_>>()
        );
        // The exact length holds while both ends advance.
        let mut walk = table.iter();
        for taken in 0..rows.len() {
            assert_eq!(walk.len(), rows.len() - taken);
            let row = if taken % 3 == 1 {
                walk.next_back()
            } else {
                walk.next()
            };
            assert!(row.is_some());
        }
        assert_eq!((walk.len(), walk.next(), walk.next_back()), (0, None, None));
        for (pos, row) in rows.iter().enumerate() {
            assert!(std::ptr::eq(table.get(pos).expect("in range"), &**row));
            assert!(std::ptr::eq(&table[pos], &**row));
            assert_eq!(table.position_of_rank(row.rank), Some(pos));
            assert_eq!(table.position_of_rank(row.rank - 1), None);
            let (found, measured) = table.lookup(&row.listed).expect("listed");
            assert_eq!(found, pos);
            assert!(std::ptr::eq(measured, &**row));
        }
        assert!(table.get(rows.len()).is_none());
        assert_eq!(table.position_of_rank(3 * rows.len() + 1), None);
        let missing = DomainName::parse("absent.example").expect("test name");
        assert!(table.lookup(&missing).is_none());
    }

    proptest! {
        /// `DomainTable` against a `Vec` of shared rows, across chunk
        /// boundaries: every answer agrees, clones share exactly the
        /// chunks no replace has written, and dropping one clone leaves
        /// the others' rows where they were.
        #[test]
        fn table_matches_a_flat_model(
            len in (0usize..8).prop_map(|i| {
                [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 3 * CHUNK + 5, 5 * CHUNK - 1][i]
            }),
            ops in prop::collection::vec(table_op(), 0..40),
        ) {
            let table: DomainTable = (0..len).map(listed).collect();
            let rows: Vec<_> = table.rows().cloned().collect();
            let ids = (0..len.div_ceil(CHUNK) as u64).collect();
            let mut next_id = len as u64;
            let mut next_lineage = 1;
            let mut stamp = 0;
            let mut lives = vec![Live { table, rows, ids, lineage: 0 }];
            for op in ops {
                match op {
                    Op::Clone(i) => {
                        let live = &lives[i % lives.len()];
                        let clone = Live {
                            table: live.table.clone(),
                            rows: live.rows.clone(),
                            ids: live.ids.clone(),
                            lineage: live.lineage,
                        };
                        lives.push(clone);
                    }
                    Op::Replace(i, pos) => {
                        let n = lives.len();
                        let live = &mut lives[i % n];
                        if live.rows.is_empty() {
                            continue;
                        }
                        let pos = pos % live.rows.len();
                        let mut measured = (*live.rows[pos]).clone();
                        stamp += 1;
                        measured.www.unreachable = stamp;
                        live.table.replace(pos, measured.clone());
                        prop_assert_eq!(&live.table[pos], &measured);
                        live.rows[pos] = Arc::clone(&live.table.chunks[pos / CHUNK][pos % CHUNK]);
                        live.ids[pos / CHUNK] = next_id;
                        next_id += 1;
                    }
                    Op::Drop(i) => {
                        if lives.len() > 1 {
                            let n = lives.len();
                            lives.remove(i % n);
                        }
                    }
                    Op::Rebuild(i) => {
                        let n = lives.len();
                        let live = &lives[i % n];
                        let table: DomainTable = live.table.iter().cloned().collect();
                        prop_assert!(table == live.table);
                        prop_assert!(!table.shares_index_with(&live.table));
                        let rows = table.rows().cloned().collect();
                        let ids = (0..live.ids.len() as u64).map(|k| next_id + k).collect();
                        next_id += live.ids.len() as u64;
                        lives.push(Live { table, rows, ids, lineage: next_lineage });
                        next_lineage += 1;
                    }
                }
                for live in &lives {
                    assert_matches_model(live);
                }
                for a in &lives {
                    for b in &lives {
                        prop_assert_eq!(a.table == b.table, a.rows == b.rows);
                        prop_assert_eq!(
                            a.table.shares_index_with(&b.table),
                            a.lineage == b.lineage
                        );
                        for (c, (x, y)) in a.table.chunks.iter().zip(&b.table.chunks).enumerate() {
                            prop_assert_eq!(Arc::ptr_eq(x, y), a.ids[c] == b.ids[c]);
                        }
                    }
                }
            }
        }
    }
}
