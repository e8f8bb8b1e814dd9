//! Authoritative zone data.
//!
//! One store holds all simulated zones (the generator writes into it
//! directly; there is no delegation tree to traverse). Per-vantage
//! overrides model geo-DNS: a CDN name resolves to a nearby edge cache,
//! so different vantage points receive different `A` records.
//!
//! # Copy-on-write layering
//!
//! A [`ZoneStore`] can be a *root* (all data local) or a *layer* over a
//! shared parent (`Arc<ZoneStore>`). [`ZoneStore::apply`] consumes a
//! [`ZoneDelta`] and produces a structurally-shared successor: only the
//! touched names live in the new layer, everything else is answered by
//! walking the parent chain. Removals are recorded as tombstones so a
//! layer can hide a name its parent still carries. Chains are compacted
//! (flattened into a fresh root) once they exceed [`MAX_LAYER_DEPTH`],
//! bounding lookup cost.
//!
//! Each store's own data (base records, tombstones, overrides, signed
//! apexes) sits behind an `Arc` too, the root's included: cloning a
//! store is O(1) — two pointer bumps and three counters — and both
//! copies share that data until one of them edits, which then copies it
//! once (`Arc::make_mut`). An engine built over a generated world
//! therefore shares the world's 100 000-name map instead of copying it.
//!
//! Deltas only touch *base* records; per-vantage overrides and DNSSEC
//! signing flags always win regardless of layer, mirroring how geo-DNS
//! steering and zone signing outlive individual record edits.
//!
//! Lookups take the name as `&str` internally (`DomainName: Borrow<str>`)
//! and allocate nothing: overrides are keyed by name with the handful of
//! per-vantage answers under it, and the DNSSEC walk steps through label
//! suffixes of the query string.

use crate::name::DomainName;
use crate::record::RecordData;
use crate::vantage::Vantage;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::net::IpAddr;
use std::sync::Arc;

/// Parent-chain length at which [`ZoneStore::apply`] flattens into a
/// fresh root instead of adding another layer.
pub const MAX_LAYER_DEPTH: usize = 64;

/// One name's entry in [`ZoneStore::overrides`]: the name, its base
/// records, and one layer's answers per overridden vantage.
pub type Overrides<'z> = (
    &'z DomainName,
    Option<&'z [RecordData]>,
    &'z [(Vantage, Vec<RecordData>)],
);

/// The authoritative record store.
#[derive(Debug, Clone, Default)]
pub struct ZoneStore {
    /// This layer's own data, shared between clones until one edits.
    layer: Arc<Layer>,
    parent: Option<Arc<ZoneStore>>,
    depth: usize,
    /// Effective number of names with base records (whole chain).
    names: usize,
    /// Effective number of base records (whole chain).
    records: usize,
}

/// The data one layer owns.
#[derive(Debug, Clone, Default)]
struct Layer {
    base: HashMap<DomainName, Vec<RecordData>>,
    /// Tombstones: names present in an ancestor layer but deleted here.
    removed: HashSet<DomainName>,
    /// Per-vantage answers, keyed by name (a name has at most one entry
    /// per vantage, and there are only a few vantages).
    overrides: HashMap<DomainName, Vec<(Vantage, Vec<RecordData>)>>,
    /// Zone apexes whose operators sign with DNSSEC. A name is
    /// authenticatable when it or a parent is listed here (modelling a
    /// validating resolver's AD bit, not the full DS/DNSKEY machinery).
    signed_zones: HashSet<DomainName>,
}

impl ZoneStore {
    /// Empty store.
    pub fn new() -> ZoneStore {
        ZoneStore::default()
    }

    /// Append a record for `name` (visible from every vantage unless an
    /// override exists for that vantage).
    pub fn add(&mut self, name: DomainName, data: RecordData) {
        let mut recs = self
            .base_records(name.as_str())
            .map(<[_]>::to_vec)
            .unwrap_or_default();
        recs.push(data);
        self.set_base_records(name, recs);
    }

    /// Append an address record for `name`.
    pub fn add_addr(&mut self, name: DomainName, addr: IpAddr) {
        self.add(name, RecordData::from_addr(addr));
    }

    /// Append a CNAME for `name`.
    pub fn add_cname(&mut self, name: DomainName, target: DomainName) {
        self.add(name, RecordData::Cname(target));
    }

    /// Append a record visible only from `vantage` (replacing the base
    /// answer for that vantage entirely).
    pub fn add_override(&mut self, name: DomainName, vantage: Vantage, data: RecordData) {
        let mut recs = self
            .override_records(name.as_str(), vantage)
            .map(<[_]>::to_vec)
            .unwrap_or_default();
        recs.push(data);
        Arc::make_mut(&mut self.layer).set_override(name, vantage, recs);
    }

    /// The records `vantage` receives for `name`.
    pub fn lookup(&self, name: &DomainName, vantage: Vantage) -> Option<&[RecordData]> {
        let name = name.as_str();
        self.override_records(name, vantage)
            .or_else(|| self.base_records(name))
    }

    /// Effective base records for `name`, honouring layer tombstones.
    fn base_records(&self, name: &str) -> Option<&[RecordData]> {
        if let Some(v) = self.layer.base.get(name) {
            return Some(v);
        }
        if self.layer.removed.contains(name) {
            return None;
        }
        self.parent.as_ref().and_then(|p| p.base_records(name))
    }

    fn override_records(&self, name: &str, vantage: Vantage) -> Option<&[RecordData]> {
        let here = self.layer.overrides.get(name).and_then(|per_vantage| {
            per_vantage
                .iter()
                .find(|(v, _)| *v == vantage)
                .map(|(_, recs)| recs.as_slice())
        });
        here.or_else(|| {
            self.parent
                .as_ref()
                .and_then(|p| p.override_records(name, vantage))
        })
    }

    fn has_any_override(&self, name: &str) -> bool {
        self.layer.overrides.contains_key(name)
            || self
                .parent
                .as_ref()
                .is_some_and(|p| p.has_any_override(name))
    }

    /// Every name with per-vantage overrides, layer by layer from the
    /// newest: the name, the base records every other vantage sees, and
    /// that layer's per-vantage answers. A name overridden in several
    /// layers appears once per layer, so an answer a newer layer
    /// replaced is listed too; [`lookup`](Self::lookup) gives the
    /// effective one.
    pub fn overrides(&self) -> impl Iterator<Item = Overrides<'_>> + '_ {
        std::iter::successors(Some(self), |s| s.parent.as_deref()).flat_map(move |s| {
            s.layer
                .overrides
                .iter()
                .map(move |(name, answers)| (name, self.base_records(name.as_str()), &answers[..]))
        })
    }

    /// Whether any record exists for `name` from any vantage.
    pub fn contains(&self, name: &DomainName) -> bool {
        let name = name.as_str();
        self.base_records(name).is_some() || self.has_any_override(name)
    }

    /// Number of names with base records.
    pub fn name_count(&self) -> usize {
        self.names
    }

    /// Total base records.
    pub fn record_count(&self) -> usize {
        self.records
    }

    /// Mark `apex` as a DNSSEC-signed zone.
    pub fn set_signed(&mut self, apex: DomainName) {
        if !self.is_signed_exact(apex.as_str()) {
            Arc::make_mut(&mut self.layer).signed_zones.insert(apex);
        }
    }

    fn is_signed_exact(&self, apex: &str) -> bool {
        self.layer.signed_zones.contains(apex)
            || self
                .parent
                .as_ref()
                .is_some_and(|p| p.is_signed_exact(apex))
    }

    /// Whether `name` belongs to a signed zone (itself or any ancestor).
    pub fn is_signed(&self, name: &DomainName) -> bool {
        let mut suffix = name.as_str();
        loop {
            if self.is_signed_exact(suffix) {
                return true;
            }
            match suffix.split_once('.') {
                Some((_, parent)) => suffix = parent,
                None => return false,
            }
        }
    }

    /// Number of signed zone apexes.
    pub fn signed_zone_count(&self) -> usize {
        self.layer.signed_zones.len() + self.parent.as_ref().map_or(0, |p| p.signed_zone_count())
    }

    /// Number of layers above the root (0 for a root store).
    pub fn layer_depth(&self) -> usize {
        self.depth
    }

    /// Replace the effective base record set for `name`, keeping the
    /// name/record counters accurate. An empty `recs` is a removal.
    fn set_base_records(&mut self, name: DomainName, recs: Vec<RecordData>) {
        match self.base_records(name.as_str()).map(<[_]>::len) {
            Some(len) => self.records -= len,
            None => {
                if recs.is_empty() {
                    return;
                }
                self.names += 1;
            }
        }
        let layer = Arc::make_mut(&mut self.layer);
        if recs.is_empty() {
            self.names -= 1;
            layer.base.remove(&name);
            if self
                .parent
                .as_ref()
                .is_some_and(|p| p.base_records(name.as_str()).is_some())
            {
                layer.removed.insert(name);
            } else {
                layer.removed.remove(&name);
            }
        } else {
            self.records += recs.len();
            layer.removed.remove(&name);
            layer.base.insert(name, recs);
        }
    }

    /// Collapse the whole parent chain into a fresh root store.
    pub fn flatten(&self) -> ZoneStore {
        let mut chain: Vec<&ZoneStore> = Vec::new();
        let mut cursor = Some(self);
        while let Some(s) = cursor {
            chain.push(s);
            cursor = s.parent.as_deref();
        }
        chain.reverse(); // root first, newest layer last
        let mut flat = ZoneStore::new();
        for store in chain {
            let layer = &store.layer;
            for name in &layer.removed {
                flat.set_base_records(name.clone(), Vec::new());
            }
            for (name, recs) in &layer.base {
                flat.set_base_records(name.clone(), recs.clone());
            }
            for (name, per_vantage) in &layer.overrides {
                for (vantage, recs) in per_vantage {
                    Arc::make_mut(&mut flat.layer).set_override(
                        name.clone(),
                        *vantage,
                        recs.clone(),
                    );
                }
            }
            for apex in &layer.signed_zones {
                flat.set_signed(apex.clone());
            }
        }
        flat
    }

    /// Apply `delta` on top of `parent`, producing a structurally-shared
    /// successor plus the set of names whose base answer actually
    /// changed (idempotent ops are filtered out).
    pub fn apply(parent: Arc<ZoneStore>, delta: &ZoneDelta) -> (ZoneStore, ZoneChanges) {
        let mut next = if parent.depth + 1 > MAX_LAYER_DEPTH {
            parent.flatten()
        } else {
            ZoneStore {
                layer: Arc::default(),
                names: parent.names,
                records: parent.records,
                depth: parent.depth + 1,
                parent: Some(parent),
            }
        };
        let mut changed = BTreeSet::new();
        for op in &delta.ops {
            match op {
                ZoneOp::SetRecords(name, recs) => {
                    let unchanged = next
                        .base_records(name.as_str())
                        .map_or(recs.is_empty(), |old| old == recs.as_slice());
                    if unchanged {
                        continue;
                    }
                    next.set_base_records(name.clone(), recs.clone());
                    changed.insert(name.clone());
                }
                ZoneOp::Remove(name) => {
                    if next.base_records(name.as_str()).is_none() {
                        continue;
                    }
                    next.set_base_records(name.clone(), Vec::new());
                    changed.insert(name.clone());
                }
            }
        }
        (next, ZoneChanges { changed })
    }
}

impl Layer {
    /// Set this layer's answer for `(name, vantage)`, replacing any.
    fn set_override(&mut self, name: DomainName, vantage: Vantage, recs: Vec<RecordData>) {
        let per_vantage = self.overrides.entry(name).or_default();
        match per_vantage.iter_mut().find(|(v, _)| *v == vantage) {
            Some((_, slot)) => *slot = recs,
            None => per_vantage.push((vantage, recs)),
        }
    }
}

/// One edit to the base record set of a name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneOp {
    /// Replace the full base record set for the name (empty = remove).
    SetRecords(DomainName, Vec<RecordData>),
    /// Delete all base records for the name.
    Remove(DomainName),
}

/// An ordered batch of zone edits for one epoch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ZoneDelta {
    /// The edits, in application order.
    pub ops: Vec<ZoneOp>,
}

impl ZoneDelta {
    /// An empty batch.
    pub fn new() -> ZoneDelta {
        ZoneDelta::default()
    }

    /// Queue a record-set replacement.
    pub fn set_records(&mut self, name: DomainName, recs: Vec<RecordData>) {
        self.ops.push(ZoneOp::SetRecords(name, recs));
    }

    /// Queue an address-record replacement.
    pub fn set_addr(&mut self, name: DomainName, addr: IpAddr) {
        self.set_records(name, vec![RecordData::from_addr(addr)]);
    }

    /// Queue a CNAME replacement.
    pub fn set_cname(&mut self, name: DomainName, target: DomainName) {
        self.set_records(name, vec![RecordData::Cname(target)]);
    }

    /// Queue a name removal.
    pub fn remove(&mut self, name: DomainName) {
        self.ops.push(ZoneOp::Remove(name));
    }

    /// Whether the batch holds no edits.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of queued edits.
    pub fn len(&self) -> usize {
        self.ops.len()
    }
}

/// Names whose effective base answer changed when a delta was applied.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ZoneChanges {
    /// The affected names.
    pub changed: BTreeSet<DomainName>,
}

impl ZoneChanges {
    /// Whether no name changed.
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn add_and_lookup() {
        let mut z = ZoneStore::new();
        z.add_addr(n("example.com"), "93.184.216.34".parse().unwrap());
        z.add_addr(n("example.com"), "2606:2800::1".parse().unwrap());
        let recs = z
            .lookup(&n("example.com"), Vantage::GOOGLE_DNS_BERLIN)
            .unwrap();
        assert_eq!(recs.len(), 2);
        assert!(z.contains(&n("example.com")));
        assert!(!z.contains(&n("absent.example")));
        assert_eq!(z.name_count(), 1);
        assert_eq!(z.record_count(), 2);
        assert!(z.lookup(&n("absent.example"), Vantage::OPEN_DNS).is_none());
    }

    #[test]
    fn overrides_replace_per_vantage() {
        let mut z = ZoneStore::new();
        z.add_addr(n("edge.cdn.example"), "198.18.252.1".parse().unwrap());
        z.add_override(
            n("edge.cdn.example"),
            Vantage::HTTPARCHIVE_REDWOOD,
            RecordData::A("198.18.252.2".parse().unwrap()),
        );
        let berlin = z
            .lookup(&n("edge.cdn.example"), Vantage::GOOGLE_DNS_BERLIN)
            .unwrap();
        let redwood = z
            .lookup(&n("edge.cdn.example"), Vantage::HTTPARCHIVE_REDWOOD)
            .unwrap();
        assert_ne!(berlin, redwood);
        assert_eq!(redwood.len(), 1);
        assert_eq!(redwood[0].addr().unwrap().to_string(), "198.18.252.2");
    }

    #[test]
    fn overrides_are_listed_across_layers() {
        let mut z = ZoneStore::new();
        z.add_addr(n("edge.cdn.example"), "198.18.252.1".parse().unwrap());
        z.add_override(
            n("edge.cdn.example"),
            Vantage::OPEN_DNS,
            RecordData::A("198.18.252.2".parse().unwrap()),
        );
        let (mut z, _) = ZoneStore::apply(Arc::new(z), &ZoneDelta::new());
        z.add_override(
            n("geo.example"),
            Vantage::HTTPARCHIVE_REDWOOD,
            RecordData::A("198.18.252.3".parse().unwrap()),
        );
        let mut listed: Vec<_> = z
            .overrides()
            .map(|(name, base, answers)| (name.clone(), base.map(<[_]>::len), answers.to_vec()))
            .collect();
        listed.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(
            listed,
            vec![
                (
                    n("edge.cdn.example"),
                    Some(1),
                    vec![(
                        Vantage::OPEN_DNS,
                        vec![RecordData::A("198.18.252.2".parse().unwrap())]
                    )]
                ),
                (
                    n("geo.example"),
                    None,
                    vec![(
                        Vantage::HTTPARCHIVE_REDWOOD,
                        vec![RecordData::A("198.18.252.3".parse().unwrap())]
                    )]
                ),
            ]
        );
        assert_eq!(ZoneStore::new().overrides().count(), 0);
    }

    #[test]
    fn override_only_name_is_contained() {
        let mut z = ZoneStore::new();
        z.add_override(
            n("geo.example"),
            Vantage::OPEN_DNS,
            RecordData::A("10.0.0.1".parse().unwrap()),
        );
        assert!(z.contains(&n("geo.example")));
        assert!(z
            .lookup(&n("geo.example"), Vantage::GOOGLE_DNS_BERLIN)
            .is_none());
        assert!(z.lookup(&n("geo.example"), Vantage::OPEN_DNS).is_some());
    }

    #[test]
    fn cname_records_stored() {
        let mut z = ZoneStore::new();
        z.add_cname(n("www.shop.example"), n("shop.cdn.example"));
        let recs = z.lookup(&n("www.shop.example"), Vantage::OPEN_DNS).unwrap();
        assert_eq!(recs[0].cname().unwrap().as_str(), "shop.cdn.example");
    }
}

#[cfg(test)]
mod cow_tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn a(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn root() -> ZoneStore {
        let mut z = ZoneStore::new();
        z.add_addr(n("a.example"), a("85.1.0.1"));
        z.add_addr(n("b.example"), a("85.1.0.2"));
        z.add_cname(n("www.a.example"), n("edge.cdn.example"));
        z.add_addr(n("edge.cdn.example"), a("9.9.1.1"));
        z.set_signed(n("a.example"));
        z.add_override(
            n("edge.cdn.example"),
            Vantage::OPEN_DNS,
            RecordData::A("9.9.1.2".parse().unwrap()),
        );
        z
    }

    /// Replay the same ops into a flat (non-layered) store for comparison.
    fn flat_replay(mut z: ZoneStore, delta: &ZoneDelta) -> ZoneStore {
        for op in &delta.ops {
            match op {
                ZoneOp::SetRecords(name, recs) => z.set_base_records(name.clone(), recs.clone()),
                ZoneOp::Remove(name) => z.set_base_records(name.clone(), Vec::new()),
            }
        }
        z
    }

    fn assert_equivalent(layered: &ZoneStore, flat: &ZoneStore, names: &[&str]) {
        for s in names {
            let name = n(s);
            for vantage in [Vantage::GOOGLE_DNS_BERLIN, Vantage::OPEN_DNS] {
                assert_eq!(
                    layered.lookup(&name, vantage),
                    flat.lookup(&name, vantage),
                    "lookup mismatch for {s}"
                );
            }
            assert_eq!(layered.contains(&name), flat.contains(&name));
            assert_eq!(layered.is_signed(&name), flat.is_signed(&name));
        }
        assert_eq!(layered.name_count(), flat.name_count());
        assert_eq!(layered.record_count(), flat.record_count());
        assert_eq!(layered.signed_zone_count(), flat.signed_zone_count());
    }

    #[test]
    fn layered_apply_matches_flat_replay() {
        let base = root();
        let mut delta = ZoneDelta::new();
        delta.set_addr(n("a.example"), a("85.2.0.9"));
        delta.set_cname(n("www.a.example"), n("other.cdn.example"));
        delta.set_addr(n("other.cdn.example"), a("9.9.2.2"));
        delta.remove(n("b.example"));

        let flat = flat_replay(base.clone(), &delta);
        let (layered, changes) = ZoneStore::apply(Arc::new(base), &delta);
        assert_eq!(layered.layer_depth(), 1);
        assert_eq!(changes.changed.len(), 4);
        assert_equivalent(
            &layered,
            &flat,
            &[
                "a.example",
                "b.example",
                "www.a.example",
                "edge.cdn.example",
                "other.cdn.example",
                "missing.example",
            ],
        );
        // Flattening the layered store is also equivalent.
        assert_equivalent(
            &layered.flatten(),
            &flat,
            &["a.example", "b.example", "other.cdn.example"],
        );
    }

    #[test]
    fn idempotent_ops_report_no_change() {
        let base = root();
        let same = base
            .lookup(&n("a.example"), Vantage::GOOGLE_DNS_BERLIN)
            .unwrap()
            .to_vec();
        let mut delta = ZoneDelta::new();
        delta.set_records(n("a.example"), same);
        delta.remove(n("never.existed.example"));
        let (next, changes) = ZoneStore::apply(Arc::new(base.clone()), &delta);
        assert!(changes.is_empty());
        assert_eq!(next.name_count(), base.name_count());
        assert_eq!(next.record_count(), base.record_count());
    }

    #[test]
    fn tombstone_hides_parent_records_and_reinsert_revives() {
        let base = Arc::new(root());
        let mut d1 = ZoneDelta::new();
        d1.remove(n("b.example"));
        let (l1, c1) = ZoneStore::apply(base.clone(), &d1);
        assert_eq!(c1.changed.len(), 1);
        assert!(l1.lookup(&n("b.example"), Vantage::OPEN_DNS).is_none());
        assert!(!l1.contains(&n("b.example")));
        // Parent untouched.
        assert!(base.lookup(&n("b.example"), Vantage::OPEN_DNS).is_some());

        let mut d2 = ZoneDelta::new();
        d2.set_addr(n("b.example"), a("77.7.7.7"));
        let (l2, _) = ZoneStore::apply(Arc::new(l1), &d2);
        assert_eq!(
            l2.lookup(&n("b.example"), Vantage::OPEN_DNS).unwrap()[0]
                .addr()
                .unwrap(),
            a("77.7.7.7")
        );
        assert_eq!(l2.layer_depth(), 2);
    }

    #[test]
    fn deep_chains_compact() {
        let mut current = Arc::new(root());
        for i in 0..(MAX_LAYER_DEPTH + 4) {
            let mut delta = ZoneDelta::new();
            delta.set_addr(
                n("a.example"),
                a(&format!("85.9.{}.{}", i % 250, 1 + i % 250)),
            );
            let (next, changes) = ZoneStore::apply(current, &delta);
            assert!(!changes.is_empty());
            assert!(next.layer_depth() <= MAX_LAYER_DEPTH + 1);
            current = Arc::new(next);
        }
        assert_eq!(current.name_count(), 4);
        assert!(current.is_signed(&n("www.a.example")));
    }
}

#[cfg(test)]
mod sharing_tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn world() -> ZoneStore {
        let mut z = ZoneStore::new();
        z.add_addr(n("a.example"), "85.1.0.1".parse().unwrap());
        z.add_cname(n("www.a.example"), n("edge.cdn.example"));
        z.add_addr(n("edge.cdn.example"), "9.9.1.1".parse().unwrap());
        z.add_override(
            n("edge.cdn.example"),
            Vantage::OPEN_DNS,
            RecordData::A("9.9.1.2".parse().unwrap()),
        );
        z.set_signed(n("a.example"));
        z
    }

    const PROBES: [&str; 6] = [
        "a.example",
        "www.a.example",
        "edge.cdn.example",
        "new.example",
        "b.example",
        "x.signed.example",
    ];

    /// Everything a reader can observe of `z` over [`PROBES`].
    fn observe(z: &ZoneStore) -> Vec<String> {
        let mut seen = vec![format!("{} {}", z.name_count(), z.record_count())];
        for s in PROBES {
            let name = n(s);
            for vantage in Vantage::ALL {
                seen.push(format!("{s} {vantage:?} {:?}", z.lookup(&name, vantage)));
            }
            seen.push(format!("{s} {} {}", z.contains(&name), z.is_signed(&name)));
        }
        seen
    }

    type Edit = fn(&mut ZoneStore);

    fn edits() -> [(&'static str, Edit); 4] {
        [
            ("add", |z| {
                z.add_addr(n("new.example"), "10.0.0.1".parse().unwrap());
            }),
            ("add_override", |z| {
                z.add_override(
                    n("a.example"),
                    Vantage::HTTPARCHIVE_REDWOOD,
                    RecordData::A("10.0.0.2".parse().unwrap()),
                );
            }),
            ("set_signed", |z| z.set_signed(n("signed.example"))),
            ("apply", |z| {
                let mut delta = ZoneDelta::new();
                delta.set_addr(n("b.example"), "10.0.0.3".parse().unwrap());
                delta.remove(n("a.example"));
                *z = ZoneStore::apply(Arc::new(z.clone()), &delta).0;
            }),
        ]
    }

    #[test]
    fn a_clone_shares_its_layer_until_edited() {
        let original = world();
        let mut copy = original.clone();
        assert!(Arc::ptr_eq(&original.layer, &copy.layer));
        copy.add_addr(n("new.example"), "10.0.0.1".parse().unwrap());
        assert!(!Arc::ptr_eq(&original.layer, &copy.layer));
        // An edit of a store nobody shares stays in place.
        let before = Arc::as_ptr(&copy.layer);
        copy.add_addr(n("newer.example"), "10.0.0.4".parse().unwrap());
        assert_eq!(Arc::as_ptr(&copy.layer), before);
    }

    #[test]
    fn an_edit_on_either_side_leaves_the_other_unchanged() {
        for (what, edit) in edits() {
            // Edit the clone: the original reads as before.
            let original = world();
            let expected = observe(&original);
            let mut copy = original.clone();
            edit(&mut copy);
            assert_ne!(observe(&copy), expected, "{what} changed nothing");
            assert_eq!(observe(&original), expected, "{what} on the clone");

            // Edit the original: the clone reads as before.
            let mut original = world();
            let copy = original.clone();
            edit(&mut original);
            assert_eq!(observe(&copy), expected, "{what} on the original");
        }
    }

    #[test]
    fn contains_sees_a_parent_override_and_not_a_tombstone() {
        let mut root = ZoneStore::new();
        root.add_override(
            n("geo.example"),
            Vantage::LOOKING_GLASS_US01,
            RecordData::A("10.0.0.5".parse().unwrap()),
        );
        root.add_addr(n("gone.example"), "10.0.0.6".parse().unwrap());
        let mut delta = ZoneDelta::new();
        delta.remove(n("gone.example"));
        let (layer, _) = ZoneStore::apply(Arc::new(root), &delta);
        assert_eq!(layer.layer_depth(), 1);
        assert!(layer.contains(&n("geo.example")));
        assert!(!layer.contains(&n("gone.example")));
        assert!(!layer.contains(&n("example")));
    }
}

#[cfg(test)]
mod dnssec_tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn signed_zone_covers_subdomains() {
        let mut z = ZoneStore::new();
        z.set_signed(n("example.org"));
        assert!(z.is_signed(&n("example.org")));
        assert!(z.is_signed(&n("www.example.org")));
        assert!(z.is_signed(&n("a.b.example.org")));
        assert!(!z.is_signed(&n("example.com")));
        assert!(!z.is_signed(&n("org")));
        assert_eq!(z.signed_zone_count(), 1);
    }

    #[test]
    fn resolver_sets_ad_bit_only_when_whole_chain_signed() {
        use crate::resolver::Resolver;
        let mut z = ZoneStore::new();
        z.set_signed(n("shop.example"));
        z.set_signed(n("signedcdn.net"));
        // Fully signed chain.
        z.add_cname(n("www.shop.example"), n("e1.signedcdn.net"));
        z.add_addr(n("e1.signedcdn.net"), "9.9.9.9".parse().unwrap());
        // Chain escaping into an unsigned zone.
        z.add_cname(n("img.shop.example"), n("e1.plaincdn.net"));
        z.add_addr(n("e1.plaincdn.net"), "9.9.9.8".parse().unwrap());
        // Unsigned origin.
        z.add_addr(n("other.example"), "9.9.9.7".parse().unwrap());

        let r = Resolver::new(&z, Vantage::GOOGLE_DNS_BERLIN);
        assert!(r.resolve(&n("www.shop.example")).unwrap().authenticated);
        assert!(!r.resolve(&n("img.shop.example")).unwrap().authenticated);
        assert!(!r.resolve(&n("other.example")).unwrap().authenticated);
    }
}

#[cfg(test)]
impl ZoneStore {
    /// Answer `name` with no record at all from `vantage` (NODATA): the
    /// name exists there, but a resolver finds neither an alias nor an
    /// address.
    pub(crate) fn add_empty_override(&mut self, name: DomainName, vantage: Vantage) {
        Arc::make_mut(&mut self.layer).set_override(name, vantage, Vec::new());
    }
}
