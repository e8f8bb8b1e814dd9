//! [`VrpSet`]: the persistent, canonically ordered VRP set behind every
//! VRP payload, RTR cache and proxy hop.
//!
//! Sorted chunks of at most `BOUND` VRPs, each behind an `Arc`, under
//! an `Arc`'d spine. A clone is a handle. An edit copies the spine (one
//! pointer per chunk — ≈ 400 at 100 000 VRPs) and the one chunk it
//! touches (≤ 32 KiB at the default bound); every other chunk is shared
//! with the set the edit started from, so advancing a set by a delta of
//! k records costs one spine copy plus at most 2k chunk copies, and
//! dropping the older set frees exactly those. Iteration order is
//! `Vrp`'s `Ord`, which fixes every derived wire form.
//!
//! It also answers RFC 6811 in place: [`VrpSet::covering`] seeks once
//! per prefix length present up to the route's (see there).

use crate::{Family, IpPrefix, Vrp};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// VRPs per chunk at most: 512 × 64 B = 32 KiB, the most one edit copies.
const CHUNK_BOUND: usize = 512;

type Chunk = Arc<Vec<Vrp>>;

/// A persistent sorted set of VRPs (see the module docs for the shape
/// and its cost model). `BOUND` is the chunk size limit; everything but
/// the set's own tests uses the default.
///
/// Invariants: chunks are non-empty, sorted and strictly increasing
/// across chunk boundaries; no chunk holds more than `BOUND` VRPs, and
/// none fewer than `BOUND / 4` unless it is the only one — so the chunk
/// count stays within `len / (BOUND / 4) + 1` under any churn.
#[derive(Clone)]
pub struct VrpSet<const BOUND: usize = CHUNK_BOUND> {
    chunks: Arc<Vec<Chunk>>,
    len: usize,
    /// Wrapping sum of [`mix`] over the elements.
    digest: u64,
    /// How many elements have each prefix length: IPv4 /0–/32 at
    /// 0..=32, IPv6 /0–/128 at 33..=161 (see [`length_slot`]).
    lengths: [u32; 162],
}

/// Where `prefix`'s length is counted in [`VrpSet::lengths`].
fn length_slot(prefix: &IpPrefix) -> usize {
    let offset = if prefix.family() == Family::V4 { 0 } else { 33 };
    offset + usize::from(prefix.len())
}

/// One VRP's contribution to the set digest: a 64-bit mix of family
/// tag, network bits, prefix length, max length and ASN.
fn mix(vrp: &Vrp) -> u64 {
    // The splitmix64 finalizer: a bijection on u64 with full avalanche.
    fn scramble(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
    let (family, bits) = match vrp.prefix {
        IpPrefix::V4(p) => (4u64, u128::from(p.raw_bits())),
        IpPrefix::V6(p) => (6u64, p.raw_bits()),
    };
    let fields = (family << 48)
        | (u64::from(vrp.prefix.len()) << 40)
        | (u64::from(vrp.max_length) << 32)
        | u64::from(vrp.asn.value());
    let h = scramble(fields);
    let h = scramble(h ^ (bits >> 64) as u64);
    scramble(h ^ bits as u64)
}

/// Cut a sorted, duplicate-free run into evenly filled chunks of about
/// half the bound: as far from a split as from a fold, so a fresh set
/// absorbs a delta without either.
fn chunked<const BOUND: usize>(sorted: &[Vrp]) -> Vec<Chunk> {
    let pieces = sorted.len().div_ceil(BOUND / 2);
    let mut rest = sorted;
    (0..pieces)
        .map(|i| {
            let size = sorted.len() / pieces + usize::from(i < sorted.len() % pieces);
            let (piece, tail) = rest.split_at(size);
            rest = tail;
            Arc::new(piece.to_vec())
        })
        .collect()
}

/// A chunk this handle may edit in place, with room for one more VRP:
/// the chunk itself when nothing else holds it, a copy otherwise.
fn editable(chunk: &mut Chunk) -> &mut Vec<Vrp> {
    if Arc::get_mut(chunk).is_none() {
        let mut copy = Vec::with_capacity(chunk.len() + 1);
        copy.extend_from_slice(chunk);
        *chunk = Arc::new(copy);
    }
    Arc::get_mut(chunk).expect("sole owner: checked or created just above")
}

impl<const BOUND: usize> VrpSet<BOUND> {
    const UNDERFULL: usize = {
        assert!(BOUND >= 4, "a chunk must be able to split and fold");
        BOUND / 4
    };

    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of VRPs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A digest of the contents, kept as the set is edited: the wrapping
    /// sum of a per-VRP 64-bit mix, so it depends on the elements only,
    /// never on the order or the edits that produced them.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The chunks, in order — for sharing tests (`Arc::ptr_eq`) and
    /// invariant checks; nothing on a serving path looks at these.
    pub fn chunks(&self) -> &[Arc<Vec<Vrp>>] {
        &self.chunks
    }

    /// How many VRPs of each prefix length the set holds in `family`:
    /// entry l counts the /l prefixes (33 entries for IPv4, 129 for
    /// IPv6). Kept as the set is edited, like the digest.
    pub fn length_counts(&self, family: Family) -> &[u32] {
        let (v4, v6) = self.lengths.split_at(33);
        match family {
            Family::V4 => v4,
            Family::V6 => v6,
        }
    }

    /// Where `vrp` is, or where it would go: `(chunk, Ok(offset))` when
    /// present, `(chunk, Err(offset))` when absent. The chunk index is
    /// in range unless the set is empty.
    fn locate(&self, vrp: &Vrp) -> (usize, Result<usize, usize>) {
        let chunk = self
            .chunks
            .partition_point(|c| c[0] <= *vrp)
            .saturating_sub(1);
        let at = self
            .chunks
            .get(chunk)
            .map_or(Err(0), |c| c.binary_search(vrp));
        (chunk, at)
    }

    /// Whether `vrp` is in the set.
    pub fn contains(&self, vrp: &Vrp) -> bool {
        self.locate(vrp).1.is_ok()
    }

    /// The VRPs in canonical order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            chunks: self.chunks.iter(),
            current: [].iter(),
            remaining: self.len,
        }
    }

    /// The VRPs whose prefix covers `prefix` (equal or less specific,
    /// same family): the RFC 6811 candidates for a route on `prefix`,
    /// shortest VRP prefix first, then by max length and ASN. `Vrp`'s
    /// order puts the VRPs on the route masked to length l side by
    /// side, so this is one seek — spine, then chunk — per length the
    /// set holds up to `prefix`'s, and allocates nothing.
    pub fn covering<'a>(&'a self, prefix: &IpPrefix) -> impl Iterator<Item = &'a Vrp> + 'a {
        let route = *prefix;
        (0..=route.len())
            .zip(self.length_counts(route.family()))
            .filter(|(_, count)| **count > 0)
            .filter_map(move |(len, _)| IpPrefix::new(route.network(), len).ok())
            .flat_map(move |masked| {
                let below = |vrp: &Vrp| vrp.prefix < masked;
                let chunk = self.chunks.partition_point(|c| c.last().is_some_and(below));
                let from = self.chunks.get(chunk..).unwrap_or_default();
                let offset = from.first().map_or(0, |c| c.partition_point(below));
                let run = from.iter().flat_map(|c| c.iter()).skip(offset);
                run.take_while(move |vrp| vrp.prefix == masked)
            })
    }

    /// The VRPs strictly after `after`, in canonical order: how a
    /// chunked Reset response resumes where its last chunk ended.
    pub fn iter_after(&self, after: &Vrp) -> Iter<'_> {
        let (chunk, at) = self.locate(after);
        let offset = at.map_or_else(|absent| absent, |present| present + 1);
        let Some(first) = self.chunks.get(chunk) else {
            return self.iter();
        };
        let rest = &self.chunks[chunk + 1..];
        Iter {
            chunks: rest.iter(),
            current: first[offset..].iter(),
            remaining: first.len() - offset + rest.iter().map(|c| c.len()).sum::<usize>(),
        }
    }

    /// Add `vrp`; `false` (and nothing touched) when already present.
    pub fn insert(&mut self, vrp: Vrp) -> bool {
        let (at, Err(offset)) = self.locate(&vrp) else {
            return false;
        };
        let chunks = Arc::make_mut(&mut self.chunks);
        if chunks.is_empty() {
            chunks.push(Arc::new(vec![vrp]));
        } else {
            let chunk = editable(&mut chunks[at]);
            chunk.insert(offset, vrp);
            if chunk.len() > BOUND {
                let upper = chunk.split_off(chunk.len() / 2);
                chunks.insert(at + 1, Arc::new(upper));
            }
        }
        self.len += 1;
        self.digest = self.digest.wrapping_add(mix(&vrp));
        self.lengths[length_slot(&vrp.prefix)] += 1;
        true
    }

    /// Remove `vrp`; `false` (and nothing touched) when absent.
    pub fn remove(&mut self, vrp: &Vrp) -> bool {
        let (at, Ok(offset)) = self.locate(vrp) else {
            return false;
        };
        let chunks = Arc::make_mut(&mut self.chunks);
        let left = editable(&mut chunks[at]);
        left.remove(offset);
        if left.is_empty() {
            chunks.remove(at);
        } else if left.len() < Self::UNDERFULL && chunks.len() > 1 {
            // Fold the under-full chunk into a neighbour; halve the
            // result when the two do not fit one chunk.
            let at = at.max(1) - 1;
            let right = chunks.remove(at + 1);
            let left = editable(&mut chunks[at]);
            left.extend_from_slice(&right);
            if left.len() > BOUND {
                let upper = left.split_off(left.len() / 2);
                chunks.insert(at + 1, Arc::new(upper));
            }
        }
        self.len -= 1;
        self.digest = self.digest.wrapping_sub(mix(vrp));
        self.lengths[length_slot(&vrp.prefix)] -= 1;
        true
    }

    /// The VRPs of `self` that `other` does not hold, in canonical
    /// order. Chunks the two sets share are skipped without a look
    /// inside, so diffing a set against its successor costs the chunks
    /// the delta touched, not the set.
    pub fn difference(&self, other: &Self) -> Vec<Vrp> {
        let (ours, theirs) = (&self.chunks[..], &other.chunks[..]);
        let mut out = Vec::new();
        let (mut i, mut io, mut j, mut jo) = (0, 0, 0, 0);
        while i < ours.len() {
            let Some(their) = theirs.get(j) else {
                out.extend_from_slice(&ours[i][io..]);
                (i, io) = (i + 1, 0);
                continue;
            };
            if io == 0 && jo == 0 && Arc::ptr_eq(&ours[i], their) {
                (i, j) = (i + 1, j + 1);
                continue;
            }
            match ours[i][io].cmp(&their[jo]) {
                Ordering::Less => {
                    out.push(ours[i][io]);
                    io += 1;
                }
                Ordering::Equal => (io, jo) = (io + 1, jo + 1),
                Ordering::Greater => jo += 1,
            }
            if io == ours[i].len() {
                (i, io) = (i + 1, 0);
            }
            if jo == their.len() {
                (j, jo) = (j + 1, 0);
            }
        }
        out
    }
}

/// Iterator over a [`VrpSet`] in canonical order.
#[derive(Clone)]
pub struct Iter<'a> {
    chunks: std::slice::Iter<'a, Chunk>,
    current: std::slice::Iter<'a, Vrp>,
    remaining: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Vrp;

    fn next(&mut self) -> Option<&'a Vrp> {
        loop {
            if let Some(vrp) = self.current.next() {
                self.remaining -= 1;
                return Some(vrp);
            }
            self.current = self.chunks.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a, const BOUND: usize> IntoIterator for &'a VrpSet<BOUND> {
    type Item = &'a Vrp;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl<const BOUND: usize> FromIterator<Vrp> for VrpSet<BOUND> {
    fn from_iter<I: IntoIterator<Item = Vrp>>(vrps: I) -> Self {
        let mut sorted: Vec<Vrp> = vrps.into_iter().collect();
        sorted.sort_unstable();
        sorted.dedup();
        let mut lengths = [0; 162];
        for vrp in &sorted {
            lengths[length_slot(&vrp.prefix)] += 1;
        }
        VrpSet {
            chunks: Arc::new(chunked::<BOUND>(&sorted)),
            len: sorted.len(),
            digest: sorted.iter().fold(0, |sum, vrp| sum.wrapping_add(mix(vrp))),
            lengths,
        }
    }
}

impl<const BOUND: usize> Default for VrpSet<BOUND> {
    fn default() -> Self {
        std::iter::empty().collect()
    }
}

impl<const BOUND: usize> fmt::Debug for VrpSet<BOUND> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Equality is over the elements, never the chunking: two sets that
/// reached the same contents through different edits are equal.
impl<const BOUND: usize> PartialEq for VrpSet<BOUND> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.chunks, &other.chunks)
            || (self.len == other.len
                && self.digest == other.digest
                && self.iter().eq(other.iter()))
    }
}

impl<const BOUND: usize> Eq for VrpSet<BOUND> {}

impl<const BOUND: usize> PartialEq<BTreeSet<Vrp>> for VrpSet<BOUND> {
    fn eq(&self, other: &BTreeSet<Vrp>) -> bool {
        self.len == other.len() && self.iter().eq(other.iter())
    }
}

impl<const BOUND: usize> PartialEq<VrpSet<BOUND>> for BTreeSet<Vrp> {
    fn eq(&self, other: &VrpSet<BOUND>) -> bool {
        other == self
    }
}
