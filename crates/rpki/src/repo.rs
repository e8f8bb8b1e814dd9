//! The repository: publication points and a builder that plays the CA.
//!
//! A real relying party rsyncs a tree of files per CA ("publication
//! point"): the CA's issued certificates, its ROAs, one CRL, and one
//! manifest. [`Repository`] is that tree in memory; [`RepositoryBuilder`]
//! is the issuing side — it owns the keys, hands out certificates down a
//! hierarchy, signs ROAs via one-time EE certificates, and emits
//! consistent CRLs and manifests at [`RepositoryBuilder::finalize`].

use crate::cert::Cert;
use crate::crl::Crl;
use crate::manifest::Manifest;
use crate::resources::Resources;
use crate::roa::{Roa, RoaPrefix};
use crate::ta::TrustAnchor;
use crate::time::{Duration, SimTime, Validity};
use ripki_crypto::keystore::{KeyId, Keypair};
use ripki_net::Asn;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// Everything one CA publishes.
///
/// Every object sits behind an `Arc`, so a snapshot is *persistent*:
/// cloning a point (or a whole [`Repository`]) copies pointers, two
/// successive [`RepositoryBuilder::snapshot`]s share every object that
/// was not reissued in between, and editing an object through
/// `Arc::make_mut` copies that one object and leaves every other holder
/// of it untouched. The incremental validator relies on exactly this:
/// an object it still holds cannot change underneath it.
#[derive(Debug, Clone)]
pub struct PublicationPoint {
    /// Certificates this CA issued to subordinate CAs.
    pub child_certs: Vec<Arc<Cert>>,
    /// ROAs published by this CA.
    pub roas: Vec<Arc<Roa>>,
    /// The CA's current CRL.
    pub crl: Arc<Crl>,
    /// The CA's current manifest.
    pub manifest: Arc<Manifest>,
}

impl PublicationPoint {
    /// Canonical file name for a child certificate.
    pub fn cert_file_name(cert: &Cert) -> String {
        format!("cert-{}.cer", cert.serial)
    }

    /// Canonical file name for a ROA (keyed by its EE serial).
    pub fn roa_file_name(roa: &Roa) -> String {
        format!("roa-{}.roa", roa.ee.serial)
    }

    /// Canonical file name of the CRL.
    pub const CRL_FILE_NAME: &'static str = "ca.crl";

    /// Whether `self` and `other` publish the very same objects — the
    /// same allocations in the same order, not merely equal values. Two
    /// snapshots of one [`RepositoryBuilder`] agree on a point iff
    /// nothing there was reissued in between; a point whose objects
    /// were allocated afresh (a loaded archive, a replayed builder)
    /// agrees with nothing but its own clones.
    pub fn ptr_eq(&self, other: &PublicationPoint) -> bool {
        fn all_ptr_eq<T>(a: &[Arc<T>], b: &[Arc<T>]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| Arc::ptr_eq(x, y))
        }
        Arc::ptr_eq(&self.crl, &other.crl)
            && Arc::ptr_eq(&self.manifest, &other.manifest)
            && all_ptr_eq(&self.child_certs, &other.child_certs)
            && all_ptr_eq(&self.roas, &other.roas)
    }
}

/// A complete RPKI repository: trust anchors plus one publication point
/// per CA (keyed by the CA's subject key id).
#[derive(Debug, Clone, Default)]
pub struct Repository {
    /// The trust anchors (the five RIRs in full scenarios).
    pub trust_anchors: Vec<TrustAnchor>,
    /// Publication points by CA subject key id.
    pub points: HashMap<KeyId, PublicationPoint>,
}

impl Repository {
    /// Total number of ROAs across all publication points.
    pub fn roa_count(&self) -> usize {
        self.points.values().map(|p| p.roas.len()).sum()
    }

    /// Total number of CA certificates (trust anchors + issued).
    pub fn ca_count(&self) -> usize {
        self.trust_anchors.len()
            + self
                .points
                .values()
                .flat_map(|p| &p.child_certs)
                .filter(|c| c.is_ca)
                .count()
    }

    /// Iterate all ROAs (regardless of validity — validation is the
    /// relying party's job).
    pub fn all_roas(&self) -> impl Iterator<Item = &Roa> {
        self.points
            .values()
            .flat_map(|p| p.roas.iter().map(|r| &**r))
    }
}

impl fmt::Display for Repository {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "repository: {} TAs, {} publication points, {} ROAs",
            self.trust_anchors.len(),
            self.points.len(),
            self.roa_count(),
        )
    }
}

/// Errors from the building side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Referenced CA does not exist.
    UnknownCa(KeyId),
    /// The requested resources are not encompassed by the parent's.
    ResourcesExceedParent {
        /// The parent's resource set.
        parent: String,
        /// The resources the child asked for.
        requested: String,
    },
    /// Key rollover is only modelled for leaf (childless, non-TA) CAs.
    RolloverUnsupported(KeyId),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownCa(id) => write!(f, "unknown CA {id}"),
            BuildError::ResourcesExceedParent { parent, requested } => write!(
                f,
                "requested resources {requested} exceed parent's {parent}"
            ),
            BuildError::RolloverUnsupported(id) => {
                write!(
                    f,
                    "key rollover unsupported for CA {id} (TA or has children)"
                )
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Internal per-CA issuing state.
struct CaState {
    name: String,
    keys: Keypair,
    cert: Arc<Cert>,
    children: Vec<Arc<Cert>>,
    roas: Vec<Arc<Roa>>,
    revoked: BTreeSet<u64>,
    is_trust_anchor: bool,
    /// Key generation, bumped on rollover (keys derive from name + gen).
    generation: u32,
    /// The CRL/manifest pair signed at the last snapshot, handed out
    /// again (the same allocations) while the point's content is
    /// unchanged. `None` marks the point dirty: the next
    /// [`RepositoryBuilder::snapshot`] re-signs it. Real CAs behave the
    /// same way — a manifest is only reissued when the point
    /// republishes.
    published: Option<(Arc<Crl>, Arc<Manifest>)>,
}

/// The issuing side of the RPKI: builds a consistent [`Repository`].
///
/// All keys are derived deterministically from `master_seed`, so the same
/// build program yields byte-identical repositories.
pub struct RepositoryBuilder {
    master_seed: u64,
    now: SimTime,
    cert_validity: Duration,
    crl_validity: Duration,
    serial_counter: u64,
    /// Bumped on every [`RepositoryBuilder::snapshot`], so successive
    /// publications carry increasing manifest numbers (RFC 9286).
    manifest_number: u64,
    cas: HashMap<KeyId, CaState>,
    /// Insertion order of CAs, for deterministic iteration.
    order: Vec<KeyId>,
}

impl RepositoryBuilder {
    /// Start building; certificates issued from `now`.
    pub fn new(master_seed: u64, now: SimTime) -> RepositoryBuilder {
        RepositoryBuilder {
            master_seed,
            now,
            cert_validity: Duration::years(1),
            crl_validity: Duration::days(7),
            serial_counter: 0,
            manifest_number: 0,
            cas: HashMap::new(),
            order: Vec::new(),
        }
    }

    /// Advance the builder's clock: later certificates, CRLs, and
    /// manifests are issued from the new instant. Already-issued
    /// certificates keep their original validity.
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Override the certificate validity span (default one year).
    pub fn cert_validity(mut self, dur: Duration) -> RepositoryBuilder {
        self.cert_validity = dur;
        self
    }

    /// Override CRL/manifest currency span (default seven days).
    pub fn crl_validity(mut self, dur: Duration) -> RepositoryBuilder {
        self.crl_validity = dur;
        self
    }

    /// The simulated instant this builder issues at.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn next_serial(&mut self) -> u64 {
        self.serial_counter += 1;
        self.serial_counter
    }

    /// Create a self-signed trust anchor holding `resources`.
    pub fn add_trust_anchor(&mut self, name: &str, resources: Resources) -> KeyId {
        let keys = Keypair::derive(self.master_seed, &format!("ta/{name}"));
        let serial = self.next_serial();
        let cert = Arc::new(Cert::issue(
            serial,
            name,
            keys.public,
            &keys.secret,
            keys.key_id,
            Validity::starting(self.now, Duration::years(10)),
            resources,
            true,
        ));
        let id = keys.key_id;
        self.cas.insert(
            id,
            CaState {
                name: name.to_string(),
                keys,
                cert,
                children: Vec::new(),
                roas: Vec::new(),
                revoked: BTreeSet::new(),
                is_trust_anchor: true,
                generation: 0,
                published: None,
            },
        );
        self.order.push(id);
        id
    }

    /// Mark `ca` dirty: its CRL and manifest are re-signed at the next
    /// snapshot instead of reusing the cached publication.
    fn touch(&mut self, ca: KeyId) {
        if let Some(state) = self.cas.get_mut(&ca) {
            state.published = None;
        }
    }

    /// Issue a subordinate CA certificate under `parent`.
    pub fn add_ca(
        &mut self,
        parent: KeyId,
        name: &str,
        resources: Resources,
    ) -> Result<KeyId, BuildError> {
        let serial = self.next_serial();
        let parent_state = self.cas.get(&parent).ok_or(BuildError::UnknownCa(parent))?;
        if !parent_state.cert.resources.encompasses(&resources) {
            return Err(BuildError::ResourcesExceedParent {
                parent: parent_state.cert.resources.to_string(),
                requested: resources.to_string(),
            });
        }
        let keys = Keypair::derive(self.master_seed, &format!("ca/{name}"));
        let cert = Arc::new(Cert::issue(
            serial,
            name,
            keys.public,
            &parent_state.keys.secret,
            parent,
            Validity::starting(self.now, self.cert_validity),
            resources,
            true,
        ));
        let id = keys.key_id;
        {
            let parent_state = self.cas.get_mut(&parent).expect("parent just looked up");
            parent_state.children.push(Arc::clone(&cert));
            parent_state.published = None;
        }
        self.cas.insert(
            id,
            CaState {
                name: name.to_string(),
                keys,
                cert,
                children: Vec::new(),
                roas: Vec::new(),
                revoked: BTreeSet::new(),
                is_trust_anchor: false,
                generation: 0,
                published: None,
            },
        );
        self.order.push(id);
        Ok(id)
    }

    /// Publish a ROA at `ca` authorizing `asn` for `prefixes`.
    ///
    /// The ROA's one-time EE certificate is issued by `ca`; its resources
    /// are exactly the ROA's prefixes, which must be encompassed by the
    /// CA's own resources.
    pub fn add_roa(
        &mut self,
        ca: KeyId,
        asn: Asn,
        prefixes: Vec<RoaPrefix>,
    ) -> Result<(), BuildError> {
        let serial = self.next_serial();
        let seed = self.master_seed;
        let validity_dur = self.cert_validity;
        let now = self.now;
        let state = self.cas.get_mut(&ca).ok_or(BuildError::UnknownCa(ca))?;
        let claimed = Resources::from_prefixes(prefixes.iter().map(|rp| rp.prefix));
        if !state.cert.resources.encompasses(&claimed) {
            return Err(BuildError::ResourcesExceedParent {
                parent: state.cert.resources.to_string(),
                requested: claimed.to_string(),
            });
        }
        let roa = Roa::create(
            &state.keys.secret,
            ca,
            serial,
            (seed, &format!("ee/{serial}")),
            asn,
            prefixes,
            Validity::starting(now, validity_dur),
        );
        state.roas.push(Arc::new(roa));
        state.published = None;
        Ok(())
    }

    /// Mark `serial` as revoked in `ca`'s next CRL.
    pub fn revoke(&mut self, ca: KeyId, serial: u64) -> Result<(), BuildError> {
        let state = self.cas.get_mut(&ca).ok_or(BuildError::UnknownCa(ca))?;
        state.revoked.insert(serial);
        state.published = None;
        Ok(())
    }

    /// Force `ca` to re-sign its CRL and manifest at the next snapshot
    /// even though its content is unchanged (a CA re-publishing on its
    /// reissuance schedule). To a relying party this is a manifest
    /// replacement: same objects, new manifest number and windows.
    pub fn republish(&mut self, ca: KeyId) -> Result<(), BuildError> {
        if !self.cas.contains_key(&ca) {
            return Err(BuildError::UnknownCa(ca));
        }
        self.touch(ca);
        Ok(())
    }

    /// The public key id of a CA added earlier, by name (test helper).
    pub fn find_ca(&self, name: &str) -> Option<KeyId> {
        self.order
            .iter()
            .find(|id| self.cas[id].name == name)
            .copied()
    }

    /// Withdraw a ROA from publication (modelling expiry or operator
    /// cleanup), keyed by its EE certificate serial. Returns whether a
    /// ROA was actually removed.
    pub fn remove_roa(&mut self, ca: KeyId, ee_serial: u64) -> Result<bool, BuildError> {
        let state = self.cas.get_mut(&ca).ok_or(BuildError::UnknownCa(ca))?;
        let before = state.roas.len();
        state.roas.retain(|r| r.ee.serial != ee_serial);
        let removed = state.roas.len() != before;
        if removed {
            state.published = None;
        }
        Ok(removed)
    }

    /// Every published ROA as `(issuing CA, EE serial, authorized ASN)`,
    /// in deterministic (CA insertion, then issue) order.
    pub fn list_roas(&self) -> Vec<(KeyId, u64, Asn)> {
        self.order
            .iter()
            .flat_map(|id| {
                self.cas[id]
                    .roas
                    .iter()
                    .map(move |r| (*id, r.ee.serial, r.asn))
            })
            .collect()
    }

    /// The prefixes of the published ROA with the given EE serial.
    pub fn roa_prefixes(&self, ca: KeyId, ee_serial: u64) -> Option<Vec<RoaPrefix>> {
        self.cas
            .get(&ca)?
            .roas
            .iter()
            .find(|r| r.ee.serial == ee_serial)
            .map(|r| r.prefixes.clone())
    }

    /// CAs eligible for [`rollover_key`](Self::rollover_key): non-TA,
    /// childless CAs, in deterministic order.
    pub fn rollover_candidates(&self) -> Vec<KeyId> {
        self.order
            .iter()
            .copied()
            .filter(|id| {
                let s = &self.cas[id];
                !s.is_trust_anchor && s.children.is_empty()
            })
            .collect()
    }

    /// The display name of a CA added earlier.
    pub fn ca_name(&self, id: KeyId) -> Option<&str> {
        self.cas.get(&id).map(|s| s.name.as_str())
    }

    /// Roll `ca`'s key: derive a new keypair, have the parent issue a
    /// replacement certificate (revoking the old one in its CRL), and
    /// re-sign all of the CA's ROAs under the new key. Returns the new
    /// CA key id — the old id is dead from here on.
    ///
    /// Only leaf CAs are supported: rolling a CA with children would
    /// cascade re-issuance down the whole subtree, which this model
    /// defers (see ROADMAP).
    pub fn rollover_key(&mut self, ca: KeyId) -> Result<KeyId, BuildError> {
        let state = self.cas.get(&ca).ok_or(BuildError::UnknownCa(ca))?;
        if state.is_trust_anchor || !state.children.is_empty() {
            return Err(BuildError::RolloverUnsupported(ca));
        }
        let name = state.name.clone();
        let generation = state.generation + 1;
        let resources = state.cert.resources.clone();
        let old_serial = state.cert.serial;
        let roa_specs: Vec<(Asn, Vec<RoaPrefix>)> = state
            .roas
            .iter()
            .map(|r| (r.asn, r.prefixes.clone()))
            .collect();
        let parent = self
            .order
            .iter()
            .copied()
            .find(|pid| {
                self.cas[pid]
                    .children
                    .iter()
                    .any(|c| c.subject_key_id() == ca)
            })
            .ok_or(BuildError::UnknownCa(ca))?;
        let serial = self.next_serial();
        let keys = Keypair::derive(self.master_seed, &format!("ca/{name}#gen{generation}"));
        let new_id = keys.key_id;
        let cert = {
            let parent_state = &self.cas[&parent];
            Arc::new(Cert::issue(
                serial,
                &name,
                keys.public,
                &parent_state.keys.secret,
                parent,
                Validity::starting(self.now, self.cert_validity),
                resources,
                true,
            ))
        };
        {
            let parent_state = self.cas.get_mut(&parent).expect("parent just looked up");
            parent_state.children.retain(|c| c.subject_key_id() != ca);
            parent_state.children.push(Arc::clone(&cert));
            parent_state.revoked.insert(old_serial);
            parent_state.published = None;
        }
        let old_state = self.cas.remove(&ca).expect("CA just looked up");
        let pos = self
            .order
            .iter()
            .position(|id| *id == ca)
            .expect("CA is in insertion order");
        self.order[pos] = new_id;
        self.cas.insert(
            new_id,
            CaState {
                name,
                keys,
                cert,
                children: Vec::new(),
                roas: Vec::new(),
                revoked: old_state.revoked,
                is_trust_anchor: false,
                generation,
                published: None,
            },
        );
        for (asn, prefixes) in roa_specs {
            self.add_roa(new_id, asn, prefixes)
                .expect("reissued ROA stays within unchanged CA resources");
        }
        Ok(new_id)
    }

    /// Sign CRLs and manifests where needed and emit the current
    /// repository state, leaving the builder usable for further
    /// evolution (the longitudinal engine publishes once per epoch).
    ///
    /// Only *dirty* publication points — those whose content changed
    /// since the last snapshot, or whose cached CRL/manifest is no
    /// longer current at the builder's clock — are re-signed; clean
    /// points reuse the exact CRL and manifest signed before, as a real
    /// CA would (manifests are only replaced when the point
    /// republishes). Each call bumps the global manifest number, so
    /// every republication carries a strictly larger number (RFC 9286).
    ///
    /// The snapshot shares its objects with the builder and with every
    /// earlier snapshot: an object is a new allocation only when it was
    /// issued since (see [`PublicationPoint::ptr_eq`]).
    pub fn snapshot(&mut self) -> Repository {
        self.manifest_number += 1;
        let manifest_number = self.manifest_number;
        let mut repo = Repository::default();
        let crl_window = Validity::starting(self.now, self.crl_validity);
        let now = self.now;
        for id in &self.order {
            let state = self.cas.get_mut(id).expect("ordered CA exists");
            if state.is_trust_anchor {
                repo.trust_anchors
                    .push(TrustAnchor::new(state.name.clone(), (*state.cert).clone()));
            }
            let stale = match &state.published {
                Some((crl, manifest)) => !crl.is_current(now) || !manifest.is_current(now),
                None => true,
            };
            if stale {
                let crl = Crl::issue(
                    &state.keys.secret,
                    *id,
                    state.revoked.iter().copied(),
                    crl_window,
                );
                let mut entries: Vec<(String, ripki_crypto::sha256::Digest)> = Vec::new();
                entries.push((PublicationPoint::CRL_FILE_NAME.to_string(), crl.digest()));
                for cert in &state.children {
                    entries.push((PublicationPoint::cert_file_name(cert), cert.digest()));
                }
                for roa in &state.roas {
                    entries.push((PublicationPoint::roa_file_name(roa), roa.digest()));
                }
                let manifest = Manifest::issue(
                    &state.keys.secret,
                    *id,
                    manifest_number,
                    entries,
                    crl_window,
                );
                state.published = Some((Arc::new(crl), Arc::new(manifest)));
            }
            let (crl, manifest) = state.published.clone().expect("published just ensured");
            repo.points.insert(
                *id,
                PublicationPoint {
                    child_certs: state.children.clone(),
                    roas: state.roas.clone(),
                    crl,
                    manifest,
                },
            );
        }
        repo
    }

    /// Sign CRLs and manifests everywhere and emit the repository.
    pub fn finalize(mut self) -> Repository {
        self.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripki_net::IpPrefix;

    fn p(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    fn res(prefixes: &[&str]) -> Resources {
        Resources::from_prefixes(prefixes.iter().map(|s| p(s)))
    }

    #[test]
    fn build_small_hierarchy() {
        let mut b = RepositoryBuilder::new(1, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4", "2001::/16"]));
        let isp = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        b.add_roa(isp, Asn::new(100), vec![RoaPrefix::exact(p("85.1.0.0/16"))])
            .unwrap();
        let repo = b.finalize();
        assert_eq!(repo.trust_anchors.len(), 1);
        assert_eq!(repo.points.len(), 2);
        assert_eq!(repo.roa_count(), 1);
        assert_eq!(repo.ca_count(), 2);
        // Manifest of the ISP lists exactly the CRL and the ROA.
        let pp = &repo.points[&isp];
        assert_eq!(pp.manifest.entries.len(), 2);
        assert!(pp.manifest.digest_of("ca.crl").is_some());
        // TA's point lists CRL + the ISP cert.
        let tapp = &repo.points[&ta];
        assert_eq!(tapp.manifest.entries.len(), 2);
        assert_eq!(tapp.child_certs.len(), 1);
    }

    #[test]
    fn overclaiming_ca_rejected_at_build_time() {
        let mut b = RepositoryBuilder::new(1, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let err = b.add_ca(ta, "greedy", res(&["10.0.0.0/8"])).unwrap_err();
        assert!(matches!(err, BuildError::ResourcesExceedParent { .. }));
    }

    #[test]
    fn roa_beyond_ca_resources_rejected() {
        let mut b = RepositoryBuilder::new(1, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        let err = b
            .add_roa(isp, Asn::new(100), vec![RoaPrefix::exact(p("9.9.9.0/24"))])
            .unwrap_err();
        assert!(matches!(err, BuildError::ResourcesExceedParent { .. }));
    }

    #[test]
    fn unknown_ca_errors() {
        let mut b = RepositoryBuilder::new(1, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let repo_key = {
            let mut other = RepositoryBuilder::new(2, SimTime::EPOCH);
            other.add_trust_anchor("GHOST", Resources::empty())
        };
        assert_eq!(
            b.add_ca(repo_key, "x", Resources::empty()).unwrap_err(),
            BuildError::UnknownCa(repo_key)
        );
        assert!(b.add_roa(repo_key, Asn::new(1), vec![]).is_err());
        assert!(b.revoke(repo_key, 1).is_err());
        let _ = ta;
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            let mut b = RepositoryBuilder::new(7, SimTime::EPOCH);
            let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
            let isp = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
            b.add_roa(isp, Asn::new(100), vec![RoaPrefix::exact(p("85.1.0.0/16"))])
                .unwrap();
            b.finalize()
        };
        let a = build();
        let b = build();
        let ka: Vec<_> = a.points[&a.trust_anchors[0].cert.subject_key_id()]
            .manifest
            .tbs_bytes();
        let kb: Vec<_> = b.points[&b.trust_anchors[0].cert.subject_key_id()]
            .manifest
            .tbs_bytes();
        assert_eq!(ka, kb);
    }

    #[test]
    fn find_ca_by_name() {
        let mut b = RepositoryBuilder::new(1, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        assert_eq!(b.find_ca("ISP-1"), Some(isp));
        assert_eq!(b.find_ca("RIPE"), Some(ta));
        assert_eq!(b.find_ca("nope"), None);
    }

    #[test]
    fn snapshot_allows_continued_evolution() {
        let mut b = RepositoryBuilder::new(3, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        b.add_roa(isp, Asn::new(100), vec![RoaPrefix::exact(p("85.1.0.0/16"))])
            .unwrap();
        let first = b.snapshot();
        assert_eq!(first.roa_count(), 1);
        assert_eq!(first.points[&isp].manifest.manifest_number, 1);

        b.add_roa(isp, Asn::new(200), vec![RoaPrefix::exact(p("85.2.0.0/16"))])
            .unwrap();
        let second = b.snapshot();
        assert_eq!(second.roa_count(), 2);
        assert_eq!(second.points[&isp].manifest.manifest_number, 2);
        // The earlier snapshot is unaffected.
        assert_eq!(first.roa_count(), 1);
    }

    #[test]
    fn remove_roa_unpublishes() {
        let mut b = RepositoryBuilder::new(3, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        b.add_roa(isp, Asn::new(100), vec![RoaPrefix::exact(p("85.1.0.0/16"))])
            .unwrap();
        let roas = b.list_roas();
        assert_eq!(roas.len(), 1);
        let (ca, ee_serial, asn) = roas[0];
        assert_eq!(ca, isp);
        assert_eq!(asn, Asn::new(100));
        assert!(b.remove_roa(ca, ee_serial).unwrap());
        assert!(!b.remove_roa(ca, ee_serial).unwrap());
        assert_eq!(b.snapshot().roa_count(), 0);
    }

    #[test]
    fn key_rollover_replaces_cert_and_reissues_roas() {
        use crate::validate::validate;

        let mut b = RepositoryBuilder::new(5, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        b.add_roa(isp, Asn::new(100), vec![RoaPrefix::exact(p("85.1.0.0/16"))])
            .unwrap();
        let before = validate(&b.snapshot(), SimTime::EPOCH + Duration::days(1));

        assert_eq!(b.rollover_candidates(), vec![isp]);
        let new_isp = b.rollover_key(isp).unwrap();
        assert_ne!(new_isp, isp);
        assert_eq!(b.ca_name(new_isp), Some("ISP-1"));
        assert_eq!(b.ca_name(isp), None);
        // TAs and CAs with children cannot roll.
        assert!(matches!(
            b.rollover_key(ta),
            Err(BuildError::RolloverUnsupported(_))
        ));

        let repo = b.snapshot();
        let after = validate(&repo, SimTime::EPOCH + Duration::days(1));
        // The VRP set is unchanged by the rollover…
        assert_eq!(before.vrps, after.vrps);
        // …the old CA cert is revoked at the TA…
        let old_serial = 2; // TA cert serial 1, ISP cert serial 2
        assert!(repo.points[&ta].crl.is_revoked(old_serial));
        // …and the old publication point is gone.
        assert!(!repo.points.contains_key(&isp));
        assert!(repo.points.contains_key(&new_isp));
    }

    #[test]
    fn clean_points_keep_their_publication_across_snapshots() {
        let mut b = RepositoryBuilder::new(3, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        b.add_roa(isp, Asn::new(100), vec![RoaPrefix::exact(p("85.1.0.0/16"))])
            .unwrap();
        b.add_roa(isp, Asn::new(101), vec![RoaPrefix::exact(p("85.3.0.0/16"))])
            .unwrap();
        let first = b.snapshot();

        // Only the ISP republishes; the TA's point is untouched and is
        // handed out again as the very same objects.
        b.add_roa(isp, Asn::new(200), vec![RoaPrefix::exact(p("85.2.0.0/16"))])
            .unwrap();
        let second = b.snapshot();
        assert!(first.points[&ta].ptr_eq(&second.points[&ta]));
        assert!(first.points[&ta].ptr_eq(&first.clone().points[&ta]));

        // The point that gained a ROA keeps every old ROA and has a new
        // CRL and manifest.
        let (old, new) = (&first.points[&isp], &second.points[&isp]);
        assert!(!old.ptr_eq(new));
        assert_eq!(new.roas.len(), old.roas.len() + 1);
        for (a, b) in old.roas.iter().zip(&new.roas) {
            assert!(Arc::ptr_eq(a, b));
        }
        assert!(!Arc::ptr_eq(&old.crl, &new.crl));
        assert!(!Arc::ptr_eq(&old.manifest, &new.manifest));
        assert_eq!(new.manifest.manifest_number, 2);

        // An explicit republish replaces exactly the CRL and manifest.
        b.republish(ta).unwrap();
        let third = b.snapshot();
        let (old, new) = (&second.points[&ta], &third.points[&ta]);
        assert!(!Arc::ptr_eq(&old.crl, &new.crl));
        assert!(!Arc::ptr_eq(&old.manifest, &new.manifest));
        assert_ne!(old.manifest, new.manifest);
        assert_eq!(new.manifest.manifest_number, 3);
        assert_eq!(new.child_certs.len(), 1);
        assert!(Arc::ptr_eq(&old.child_certs[0], &new.child_certs[0]));
        assert!(second.points[&isp].ptr_eq(&third.points[&isp]));
    }

    #[test]
    fn stale_publication_reissued_when_clock_advances() {
        let mut b = RepositoryBuilder::new(3, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let first = b.snapshot();
        // Within the CRL window nothing is re-signed…
        b.set_now(SimTime::EPOCH + Duration::days(3));
        let second = b.snapshot();
        assert_eq!(first.points[&ta].crl, second.points[&ta].crl);
        // …but past it the CA is on its reissuance schedule.
        b.set_now(SimTime::EPOCH + Duration::days(10));
        let third = b.snapshot();
        assert_ne!(second.points[&ta].crl, third.points[&ta].crl);
        assert!(third.points[&ta]
            .crl
            .is_current(SimTime::EPOCH + Duration::days(10)));
    }

    #[test]
    fn revocations_land_in_crl() {
        let mut b = RepositoryBuilder::new(1, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        // Revoke the ISP's cert at the TA.
        let isp_serial = {
            let repo = RepositoryBuilder::new(1, SimTime::EPOCH); // placeholder
            drop(repo);
            2u64 // TA cert got serial 1, ISP cert serial 2
        };
        b.revoke(ta, isp_serial).unwrap();
        let repo = b.finalize();
        assert!(repo.points[&ta].crl.is_revoked(isp_serial));
        assert!(!repo.points[&isp].crl.is_revoked(isp_serial));
    }
}
