//! Top-down validation: from trust anchors to Validated ROA Payloads.
//!
//! This is the relying-party side (what Routinator or the RTRlib cache
//! does). The walk re-checks everything the issuing side promised:
//!
//! 1. trust anchor certificates are self-signed, within validity, CA;
//! 2. per publication point: the CRL verifies and is current, the
//!    manifest verifies, is current, and lists *exactly* the published
//!    objects with matching SHA-256 hashes;
//! 3. subordinate CA certificates verify against the issuer key, are
//!    within validity, unrevoked, flagged CA, and their RFC 3779
//!    resources are encompassed by the issuer's;
//! 4. ROAs: the embedded EE certificate passes the same checks (with
//!    `is_ca = false`), the payload verifies under the EE key, every
//!    ROA prefix is covered by the EE certificate's resources, and every
//!    `maxLength` is well-formed.
//!
//! Every decision is recorded in a [`ValidationEvent`]; accepted ROAs
//! contribute [`Vrp`]s. The paper's step 4 — "only cryptographically
//! correct ROAs are further used" — is [`ValidationReport::vrps`].

use crate::cert::Cert;
use crate::repo::{PublicationPoint, Repository};
use crate::roa::Roa;
use crate::ta::TrustAnchor;
use crate::time::{Era, SimTime};
use ripki_crypto::keystore::KeyId;
use ripki_crypto::sha256::Digest;
pub use ripki_net::Vrp;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// Why an object was rejected.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// Signature did not verify under the issuer key.
    BadSignature,
    /// Certificate/CRL/manifest outside its validity window.
    Expired,
    /// Validity window has not started yet.
    NotYetValid,
    /// Serial listed on the issuer's CRL.
    Revoked,
    /// Subject claims resources the issuer does not hold.
    ResourceOverclaim,
    /// Trust anchor certificate is not self-signed or not a CA.
    MalformedTrustAnchor,
    /// Subordinate certificate not flagged CA but used as one.
    NotACa,
    /// EE certificate flagged CA (ROAs must embed EE certs).
    UnexpectedCa,
    /// The CRL of the publication point failed (reason nested).
    BadCrl(Box<RejectReason>),
    /// The manifest of the publication point failed (reason nested).
    BadManifest(Box<RejectReason>),
    /// Object missing from manifest, digest mismatch, or manifest lists a
    /// file the point does not publish.
    ManifestMismatch(String),
    /// ROA payload signature (by the EE key) failed.
    BadContentSignature,
    /// A ROA prefix entry violates `len <= maxLength <= bits`.
    MalformedRoaPrefix,
    /// ROA prefixes not covered by the EE certificate's resources.
    RoaResourceMismatch,
    /// CA has no publication point in the repository.
    MissingPublicationPoint,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::BadSignature => write!(f, "bad signature"),
            RejectReason::Expired => write!(f, "expired"),
            RejectReason::NotYetValid => write!(f, "not yet valid"),
            RejectReason::Revoked => write!(f, "revoked"),
            RejectReason::ResourceOverclaim => write!(f, "resource overclaim"),
            RejectReason::MalformedTrustAnchor => write!(f, "malformed trust anchor"),
            RejectReason::NotACa => write!(f, "not a CA certificate"),
            RejectReason::UnexpectedCa => write!(f, "EE slot holds a CA certificate"),
            RejectReason::BadCrl(r) => write!(f, "publication point CRL invalid: {r}"),
            RejectReason::BadManifest(r) => write!(f, "manifest invalid: {r}"),
            RejectReason::ManifestMismatch(d) => write!(f, "manifest mismatch: {d}"),
            RejectReason::BadContentSignature => write!(f, "ROA payload signature invalid"),
            RejectReason::MalformedRoaPrefix => write!(f, "malformed ROA prefix entry"),
            RejectReason::RoaResourceMismatch => {
                write!(f, "ROA prefixes exceed EE certificate resources")
            }
            RejectReason::MissingPublicationPoint => {
                write!(f, "no publication point for CA")
            }
        }
    }
}

/// One validation decision.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidationEvent {
    /// Human-readable object description, e.g. `"CA cert #12 \"ISP-3\""`.
    pub object: String,
    /// The trust anchor the walk started from.
    pub trust_anchor: String,
    /// `None` if accepted, otherwise the rejection reason.
    pub rejected: Option<RejectReason>,
}

impl ValidationEvent {
    pub(crate) fn accepted(ta: &str, object: impl Into<String>) -> ValidationEvent {
        ValidationEvent {
            object: object.into(),
            trust_anchor: ta.to_string(),
            rejected: None,
        }
    }

    pub(crate) fn rejected(
        ta: &str,
        object: impl Into<String>,
        reason: RejectReason,
    ) -> ValidationEvent {
        ValidationEvent {
            object: object.into(),
            trust_anchor: ta.to_string(),
            rejected: Some(reason),
        }
    }
}

/// Options governing strictness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationOptions {
    /// If `true` (default), a publication point whose manifest is invalid
    /// or inconsistent is discarded wholesale. If `false`, objects are
    /// still processed individually (RFC 6486 left this to local policy;
    /// the ablation bench compares both).
    pub strict_manifests: bool,
}

impl Default for ValidationOptions {
    fn default() -> ValidationOptions {
        ValidationOptions {
            strict_manifests: true,
        }
    }
}

/// The outcome of a full validation run.
#[derive(Debug, Clone, Default)]
pub struct ValidationReport {
    /// All validated ROA payloads, deduplicated and sorted.
    pub vrps: Vec<Vrp>,
    /// Every accept/reject decision taken during the walk.
    pub log: Vec<ValidationEvent>,
}

impl ValidationReport {
    /// Number of rejected objects.
    pub fn rejected_count(&self) -> usize {
        self.log.iter().filter(|e| e.rejected.is_some()).count()
    }

    /// Number of accepted objects.
    pub fn accepted_count(&self) -> usize {
        self.log.iter().filter(|e| e.rejected.is_none()).count()
    }

    /// Events with a given rejection reason (discriminant match on the
    /// outer variant).
    pub fn rejections(&self) -> impl Iterator<Item = &ValidationEvent> {
        self.log.iter().filter(|e| e.rejected.is_some())
    }
}

/// Validate `repo` as of `now` with default options.
pub fn validate(repo: &Repository, now: SimTime) -> ValidationReport {
    validate_with(repo, now, ValidationOptions::default())
}

/// Validate `repo` as of `now`.
pub fn validate_with(
    repo: &Repository,
    now: SimTime,
    options: ValidationOptions,
) -> ValidationReport {
    let mut report = ValidationReport::default();
    let mut vrps: HashSet<Vrp> = HashSet::new();
    for ta in &repo.trust_anchors {
        let mut era = Era::unbounded();
        report
            .log
            .push(trust_anchor_event(ta, now, &mut era, &mut 0));
        if report.log.last().is_some_and(|e| e.rejected.is_some()) {
            continue;
        }
        // Guard against certificate cycles: a CA key is walked only once.
        let mut visited: HashSet<KeyId> = HashSet::new();
        walk_ca(
            repo,
            &ta.cert,
            &ta.name,
            now,
            options,
            &mut report,
            &mut vrps,
            &mut visited,
        );
    }
    let mut sorted: Vec<Vrp> = vrps.into_iter().collect();
    sorted.sort();
    report.vrps = sorted;
    report
}

/// Check a trust anchor certificate and produce its accept/reject event.
///
/// `era` is narrowed to the interval of `now` values over which the
/// verdict is unchanged (the incremental validator caches on it);
/// `verified` counts the self-signature check if the walk reaches it.
pub(crate) fn trust_anchor_event(
    ta: &TrustAnchor,
    now: SimTime,
    era: &mut Era,
    verified: &mut usize,
) -> ValidationEvent {
    let cert = &ta.cert;
    let desc = format!("trust anchor \"{}\"", ta.name);
    if !cert.is_self_signed() || !cert.is_ca {
        return ValidationEvent::rejected(&ta.name, desc, RejectReason::MalformedTrustAnchor);
    }
    *verified += 1;
    if !cert.verify_signature(&cert.subject_key) {
        return ValidationEvent::rejected(&ta.name, desc, RejectReason::BadSignature);
    }
    era.observe(&cert.validity, now);
    if let Some(reason) = window_reason(cert, now) {
        return ValidationEvent::rejected(&ta.name, desc, reason);
    }
    ValidationEvent::accepted(&ta.name, desc)
}

fn window_reason(cert: &Cert, now: SimTime) -> Option<RejectReason> {
    if cert.validity.premature(now) {
        Some(RejectReason::NotYetValid)
    } else if cert.validity.expired(now) {
        Some(RejectReason::Expired)
    } else {
        None
    }
}

/// What validating a publication point established about one of its
/// objects that neither the clock nor a CRL can change: each is a
/// function of the object's bytes and (for `issuer_signed`) the issuing
/// key alone. `None` means the walk never needed the answer — it
/// short-circuited first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ObjectFacts {
    /// The file name a manifest lists it under.
    name: Option<FileName>,
    /// SHA-256 of the full encoding, as a manifest lists it.
    digest: Option<Digest>,
    /// Whether the object's signature verifies under the issuing CA key.
    issuer_signed: Option<bool>,
    /// ROAs only: whether the content verifies under the EE key.
    content_signed: Option<bool>,
    /// ROAs only: the event of the decision taken about the object, an
    /// `Arc` so that a carried decision is recognisable by address.
    /// Going into [`validate_point`] it is the last pass's decision
    /// under the same issuing certificate and trust-anchor name, if the
    /// caller knows one; coming out it is this pass's, or `None` if the
    /// walk stopped before the point's objects.
    decision: Option<Arc<ValidationEvent>>,
}

impl ObjectFacts {
    /// Whether the walk accepted the object (a ROA's VRPs count).
    pub fn accepted(&self) -> bool {
        self.decision.as_ref().is_some_and(|e| e.rejected.is_none())
    }

    /// Whether `self` and `other` hold the very same decision event:
    /// one was carried over from the other.
    pub fn same_decision(&self, other: &ObjectFacts) -> bool {
        match (&self.decision, &other.decision) {
            (Some(mine), Some(theirs)) => Arc::ptr_eq(mine, theirs),
            _ => false,
        }
    }

    /// The object's manifest entry, remembered after the first ask.
    fn entry(
        &mut self,
        name: impl FnOnce() -> String,
        digest: impl FnOnce() -> Digest,
    ) -> (&[u8], &Digest) {
        let name = self.name.get_or_insert_with(|| FileName::new(&name()));
        (name.as_bytes(), self.digest.get_or_insert_with(digest))
    }
}

/// A manifest file name, held inline: a canonical name is a short
/// prefix and suffix around a `u64` serial of at most 20 digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileName {
    len: u8,
    bytes: [u8; 30],
}

impl FileName {
    fn new(name: &str) -> FileName {
        let mut bytes = [0; 30];
        bytes
            .get_mut(..name.len())
            .expect("a canonical file name fits inline")
            .copy_from_slice(name.as_bytes());
        FileName {
            len: name.len() as u8,
            bytes,
        }
    }

    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

/// The [`ObjectFacts`] of every object of one publication point, slot
/// for slot in publication order.
///
/// [`validate_point`] takes one in — what the caller already knows —
/// and hands it back completed by whatever it had to compute. The full
/// walk knows nothing ([`PointFacts::unknown`]); the incremental
/// validator carries over the facts of objects it has seen before.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct PointFacts {
    pub crl: ObjectFacts,
    pub manifest: ObjectFacts,
    pub child_certs: Vec<ObjectFacts>,
    pub roas: Vec<ObjectFacts>,
}

impl PointFacts {
    /// Nothing known about any object of `pp`.
    pub fn unknown(pp: &PublicationPoint) -> PointFacts {
        PointFacts {
            child_certs: vec![ObjectFacts::default(); pp.child_certs.len()],
            roas: vec![ObjectFacts::default(); pp.roas.len()],
            ..PointFacts::default()
        }
    }
}

/// A signature verdict: the known one if there is one, otherwise
/// verified now, counted and remembered.
fn verdict(known: &mut Option<bool>, verified: &mut usize, verify: impl FnOnce() -> bool) -> bool {
    *known.get_or_insert_with(|| {
        *verified += 1;
        verify()
    })
}

/// Compare the manifest against the actually published objects in one
/// walk over both in file-name order: every published name is listed
/// with its digest, every listed name is published, and no name is
/// published twice.
fn manifest_consistency(pp: &PublicationPoint, facts: &mut PointFacts) -> Result<(), String> {
    let crl = *facts.crl.digest.get_or_insert_with(|| pp.crl.digest());
    let mut published: Vec<(&[u8], &Digest)> =
        Vec::with_capacity(1 + pp.child_certs.len() + pp.roas.len());
    published.push((PublicationPoint::CRL_FILE_NAME.as_bytes(), &crl));
    for (cert, known) in pp.child_certs.iter().zip(&mut facts.child_certs) {
        published.push(known.entry(|| PublicationPoint::cert_file_name(cert), || cert.digest()));
    }
    for (roa, known) in pp.roas.iter().zip(&mut facts.roas) {
        published.push(known.entry(|| PublicationPoint::roa_file_name(roa), || roa.digest()));
    }
    // Issue order is nearly name order: a stable sort merges its runs.
    published.sort_by(|a, b| a.0.cmp(b.0));
    let mut listed = pp.manifest.entries.iter().peekable();
    for (k, &(name, digest)) in published.iter().enumerate() {
        let shown = || String::from_utf8_lossy(name);
        if published.get(k + 1).is_some_and(|next| next.0 == name) {
            return Err(format!("{} published twice", shown()));
        }
        if let Some((ghost, _)) = listed.next_if(|(listed, _)| listed.as_bytes() < name) {
            return Err(format!("{ghost} on manifest but not published"));
        }
        match listed.next_if(|(listed, _)| listed.as_bytes() == name) {
            None => return Err(format!("{} published but not on manifest", shown())),
            Some((_, listed)) if listed != digest => {
                return Err(format!("{} hash mismatch", shown()))
            }
            Some(_) => {}
        }
    }
    match listed.next() {
        Some((ghost, _)) => Err(format!("{ghost} on manifest but not published")),
        None => Ok(()),
    }
}

/// One logged decision of a publication-point validation, in walk order.
///
/// An accepted subordinate CA is kept as the certificate itself (not just
/// its accept event) so a cached outcome carries everything needed to
/// re-emit the event *and* descend into the child's own point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PointItem {
    /// A terminal decision: point-level failure, child/ROA reject, or
    /// ROA accept. A ROA's event is the one its [`ObjectFacts`] hold.
    Event(Arc<ValidationEvent>),
    /// An accepted subordinate CA certificate — the publication point's
    /// own allocation; the walk emits its accept event and recurses into
    /// its publication point.
    Child(Arc<Cert>),
}

/// The complete, self-contained outcome of validating one publication
/// point under a given issuing certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PointOutcome {
    /// Decisions in exactly the order `validate` logs them.
    pub items: Vec<PointItem>,
    /// Interval of `now` values over which this outcome is unchanged.
    /// Every validity window the walk consulted narrows it.
    pub era: Era,
    /// The facts the walk was given, completed by those it computed;
    /// each ROA's slot holds this walk's decision about it.
    pub facts: PointFacts,
    /// Schnorr verifications the walk executed itself, i.e. signature
    /// verdicts it was not given.
    pub signatures_verified: usize,
    /// ROA decisions the walk carried over from the facts it was given
    /// (the rest of `items` it took itself).
    pub carried: usize,
}

/// The accept event emitted for a subordinate CA certificate.
pub(crate) fn ca_accept_event(ta_name: &str, child: &Cert) -> ValidationEvent {
    ValidationEvent::accepted(
        ta_name,
        format!("CA cert #{} \"{}\"", child.serial, child.subject),
    )
}

/// The reject event emitted for a CA whose publication point is absent.
pub(crate) fn missing_point_event(ta_name: &str, ca_cert: &Cert) -> ValidationEvent {
    ValidationEvent::rejected(
        ta_name,
        format!("publication point of \"{}\"", ca_cert.subject),
        RejectReason::MissingPublicationPoint,
    )
}

/// The VRPs an accepted ROA contributes.
pub(crate) fn roa_vrps(roa: &Roa) -> impl Iterator<Item = Vrp> + '_ {
    roa.prefixes.iter().map(|rp| Vrp {
        prefix: rp.prefix,
        max_length: rp.effective_max_length(),
        asn: roa.asn,
    })
}

/// The VRPs of every ROA the walk accepted, slot for slot with its
/// facts, duplicates kept.
pub(crate) fn accepted_vrps<'a>(
    roas: &'a [Arc<Roa>],
    facts: &'a [ObjectFacts],
) -> impl Iterator<Item = Vrp> + 'a {
    roas.iter()
        .zip(facts)
        .filter(|(_, known)| known.accepted())
        .flat_map(|(roa, _)| roa_vrps(roa))
}

/// The checks a ROA meets once its signature, the CRL and the clock have
/// let it through. They read nothing but the ROA and its issuing
/// certificate.
fn roa_content_reason(
    roa: &Roa,
    ca_cert: &Cert,
    content_signed: &mut Option<bool>,
    verified: &mut usize,
) -> Option<RejectReason> {
    let ee = &roa.ee;
    if ee.is_ca {
        Some(RejectReason::UnexpectedCa)
    } else if !ca_cert.resources.encompasses(&ee.resources) {
        Some(RejectReason::ResourceOverclaim)
    } else if !verdict(content_signed, verified, || roa.verify_content_signature()) {
        Some(RejectReason::BadContentSignature)
    } else if roa.prefixes.iter().any(|rp| !rp.is_well_formed()) {
        Some(RejectReason::MalformedRoaPrefix)
    } else if !ee.resources.prefixes.encompasses(&roa.claimed_prefixes()) {
        Some(RejectReason::RoaResourceMismatch)
    } else {
        None
    }
}

/// What [`roa_content_reason`] answered when `decision` was taken, if
/// the decision got that far: it is accepted, or rejected by one of
/// those checks.
fn content_verdict(decision: &ValidationEvent) -> Option<Option<RejectReason>> {
    match &decision.rejected {
        None => Some(None),
        Some(
            reason @ (RejectReason::UnexpectedCa
            | RejectReason::ResourceOverclaim
            | RejectReason::BadContentSignature
            | RejectReason::MalformedRoaPrefix
            | RejectReason::RoaResourceMismatch),
        ) => Some(Some(reason.clone())),
        Some(_) => None,
    }
}

/// Validate a single publication point under its issuing certificate.
///
/// This is the one place the per-object checks live; the full walk and
/// the incremental validator both consume it. The returned era is only
/// narrowed by windows the walk actually consulted: a child whose
/// signature fails is rejected regardless of time, so its window does
/// not constrain the outcome.
///
/// `known` holds what the caller already established about `pp`'s
/// objects *under this very `ca_cert`* and trust-anchor name. Every
/// decision is still taken, in the same order with the same
/// short-circuits; a known fact only replaces the computation that
/// would have produced it. A known ROA decision is re-checked against
/// the two inputs that change without a new allocation — the CRL and
/// the clock — and carried, event and all, if they still lead to it.
pub(crate) fn validate_point(
    ca_cert: &Cert,
    pp: &PublicationPoint,
    ta_name: &str,
    now: SimTime,
    options: ValidationOptions,
    known: PointFacts,
) -> PointOutcome {
    // A short slot list would silently drop objects from the zips below.
    assert!(
        known.child_certs.len() == pp.child_certs.len() && known.roas.len() == pp.roas.len(),
        "known facts do not line up with the publication point"
    );
    let mut out = PointOutcome {
        items: Vec::with_capacity(1 + pp.child_certs.len() + pp.roas.len()),
        era: Era::unbounded(),
        facts: known,
        signatures_verified: 0,
        carried: 0,
    };
    if !point_usable(ca_cert, pp, ta_name, now, options, &mut out) {
        // No object of the point is decided, so no decision stands.
        for known in &mut out.facts.roas {
            known.decision = None;
        }
        return out;
    }
    let ca_key = &ca_cert.subject_key;

    // Subordinate CA certificates.
    for (child, known) in pp.child_certs.iter().zip(&mut out.facts.child_certs) {
        let reason = if !verdict(
            &mut known.issuer_signed,
            &mut out.signatures_verified,
            || child.verify_signature(ca_key),
        ) {
            Some(RejectReason::BadSignature)
        } else if pp.crl.is_revoked(child.serial) {
            Some(RejectReason::Revoked)
        } else {
            out.era.observe(&child.validity, now);
            if let Some(r) = window_reason(child, now) {
                Some(r)
            } else if !child.is_ca {
                Some(RejectReason::NotACa)
            } else if !ca_cert.resources.encompasses(&child.resources) {
                Some(RejectReason::ResourceOverclaim)
            } else {
                None
            }
        };
        out.items.push(match reason {
            Some(r) => {
                let desc = format!("CA cert #{} \"{}\"", child.serial, child.subject);
                PointItem::Event(Arc::new(ValidationEvent::rejected(ta_name, desc, r)))
            }
            None => PointItem::Child(Arc::clone(child)),
        });
    }

    // ROAs.
    for (roa, known) in pp.roas.iter().zip(&mut out.facts.roas) {
        let ee = &roa.ee;
        let last = known.decision.take();
        let reason = if !verdict(
            &mut known.issuer_signed,
            &mut out.signatures_verified,
            || ee.verify_signature(ca_key),
        ) {
            Some(RejectReason::BadSignature)
        } else if pp.crl.is_revoked(ee.serial) {
            Some(RejectReason::Revoked)
        } else {
            out.era.observe(&ee.validity, now);
            window_reason(ee, now).or_else(|| match last.as_deref().and_then(content_verdict) {
                Some(reason) => reason,
                None => roa_content_reason(
                    roa,
                    ca_cert,
                    &mut known.content_signed,
                    &mut out.signatures_verified,
                ),
            })
        };
        let event = match last {
            Some(last) if last.rejected == reason => {
                out.carried += 1;
                last
            }
            _ => Arc::new(ValidationEvent {
                object: format!("ROA #{} ({})", ee.serial, roa),
                trust_anchor: ta_name.to_string(),
                rejected: reason,
            }),
        };
        known.decision = Some(Arc::clone(&event));
        out.items.push(PointItem::Event(event));
    }
    out
}

/// The point-level checks — the CRL, then the manifest — logging the
/// first failure; whether the walk goes on to the point's objects.
fn point_usable(
    ca_cert: &Cert,
    pp: &PublicationPoint,
    ta_name: &str,
    now: SimTime,
    options: ValidationOptions,
    out: &mut PointOutcome,
) -> bool {
    let ca_key = &ca_cert.subject_key;
    let mut reject = |reason| {
        let desc = format!("publication point of \"{}\"", ca_cert.subject);
        let event = ValidationEvent::rejected(ta_name, desc, reason);
        out.items.push(PointItem::Event(Arc::new(event)));
    };

    // A broken CRL makes revocation status unknowable; the point is
    // unusable.
    if !verdict(
        &mut out.facts.crl.issuer_signed,
        &mut out.signatures_verified,
        || pp.crl.verify_signature(ca_key),
    ) {
        reject(RejectReason::BadCrl(Box::new(RejectReason::BadSignature)));
        return false;
    }
    out.era.observe(&pp.crl.validity, now);
    if !pp.crl.is_current(now) {
        reject(RejectReason::BadCrl(Box::new(RejectReason::Expired)));
        return false;
    }

    let manifest = if !verdict(
        &mut out.facts.manifest.issuer_signed,
        &mut out.signatures_verified,
        || pp.manifest.verify_signature(ca_key),
    ) {
        Some(RejectReason::BadManifest(Box::new(
            RejectReason::BadSignature,
        )))
    } else {
        out.era.observe(&pp.manifest.validity, now);
        if !pp.manifest.is_current(now) {
            Some(RejectReason::BadManifest(Box::new(RejectReason::Expired)))
        } else {
            manifest_consistency(pp, &mut out.facts)
                .err()
                .map(RejectReason::ManifestMismatch)
        }
    };
    match manifest {
        None => true,
        Some(reason) => {
            reject(reason);
            !options.strict_manifests
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn walk_ca(
    repo: &Repository,
    ca_cert: &Cert,
    ta_name: &str,
    now: SimTime,
    options: ValidationOptions,
    report: &mut ValidationReport,
    vrps: &mut HashSet<Vrp>,
    visited: &mut HashSet<KeyId>,
) {
    let ca_id = ca_cert.subject_key_id();
    if !visited.insert(ca_id) {
        return;
    }
    let Some(pp) = repo.points.get(&ca_id) else {
        report.log.push(missing_point_event(ta_name, ca_cert));
        return;
    };
    let PointOutcome { items, facts, .. } =
        validate_point(ca_cert, pp, ta_name, now, options, PointFacts::unknown(pp));
    vrps.extend(accepted_vrps(&pp.roas, &facts.roas));
    // The facts share each ROA's event: let the log take it, not a copy.
    drop(facts);
    for item in items {
        match item {
            PointItem::Event(event) => report.log.push(Arc::unwrap_or_clone(event)),
            PointItem::Child(child) => {
                report.log.push(ca_accept_event(ta_name, &child));
                walk_ca(repo, &child, ta_name, now, options, report, vrps, visited);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::IncrementalValidator;
    use crate::repo::RepositoryBuilder;
    use crate::resources::Resources;
    use crate::roa::RoaPrefix;
    use crate::time::Duration;
    use ripki_crypto::sha256::sha256;
    use ripki_net::{Asn, IpPrefix, PrefixSet};

    fn p(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    fn res(prefixes: &[&str]) -> Resources {
        Resources::from_prefixes(prefixes.iter().map(|s| p(s)))
    }

    /// TA → ISP → two ROAs; everything validates.
    fn happy_repo() -> (Repository, SimTime) {
        let now = SimTime::EPOCH + Duration::days(1);
        let mut b = RepositoryBuilder::new(5, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4", "2001::/16"]));
        let isp = b
            .add_ca(ta, "ISP-1", res(&["85.0.0.0/8", "2001:600::/24"]))
            .unwrap();
        b.add_roa(
            isp,
            Asn::new(100),
            vec![RoaPrefix::up_to(p("85.1.0.0/16"), 24)],
        )
        .unwrap();
        b.add_roa(
            isp,
            Asn::new(100),
            vec![RoaPrefix::exact(p("2001:600::/32"))],
        )
        .unwrap();
        (b.finalize(), now)
    }

    #[test]
    fn happy_path_emits_all_vrps() {
        let (repo, now) = happy_repo();
        let report = validate(&repo, now);
        assert_eq!(report.rejected_count(), 0, "log: {:?}", report.log);
        assert_eq!(report.vrps.len(), 2);
        assert!(report.vrps.contains(&Vrp {
            prefix: p("85.1.0.0/16"),
            max_length: 24,
            asn: Asn::new(100),
        }));
        assert!(report.vrps.contains(&Vrp {
            prefix: p("2001:600::/32"),
            max_length: 32,
            asn: Asn::new(100),
        }));
        // TA + pubpoints’ objects: TA cert, ISP cert, 2 ROAs accepted.
        assert_eq!(report.accepted_count(), 4);
    }

    #[test]
    fn expired_ee_rejected() {
        let now_late = SimTime::EPOCH + Duration::years(2);
        let mut b = RepositoryBuilder::new(5, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        b.add_roa(isp, Asn::new(100), vec![RoaPrefix::exact(p("85.1.0.0/16"))])
            .unwrap();
        let repo = b.finalize();
        // Two years later everything (certs 1y, CRLs 7d) is stale; the
        // TA (10y) survives but its publication point CRL is expired.
        let report = validate(&repo, now_late);
        assert!(report.vrps.is_empty());
        assert!(report
            .log
            .iter()
            .any(|e| matches!(e.rejected, Some(RejectReason::BadCrl(_)))));
    }

    #[test]
    fn validation_before_not_before_rejects() {
        let issue_at = SimTime::EPOCH + Duration::days(10);
        let mut b = RepositoryBuilder::new(5, issue_at);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        b.add_roa(isp, Asn::new(100), vec![RoaPrefix::exact(p("85.1.0.0/16"))])
            .unwrap();
        let repo = b.finalize();
        let report = validate(&repo, SimTime::EPOCH);
        assert!(report.vrps.is_empty());
    }

    #[test]
    fn revoked_roa_dropped() {
        let now = SimTime::EPOCH + Duration::days(1);
        let mut b = RepositoryBuilder::new(5, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        b.add_roa(isp, Asn::new(100), vec![RoaPrefix::exact(p("85.1.0.0/16"))])
            .unwrap();
        b.add_roa(isp, Asn::new(200), vec![RoaPrefix::exact(p("85.2.0.0/16"))])
            .unwrap();
        // ROA EEs got serials 3 and 4 (TA=1, ISP=2). Revoke the first.
        b.revoke(isp, 3).unwrap();
        let repo = b.finalize();
        let report = validate(&repo, now);
        assert_eq!(report.vrps.len(), 1);
        assert_eq!(report.vrps[0].asn, Asn::new(200));
        assert!(report
            .log
            .iter()
            .any(|e| e.rejected == Some(RejectReason::Revoked)));
    }

    #[test]
    fn revoked_ca_prunes_subtree() {
        let now = SimTime::EPOCH + Duration::days(1);
        let mut b = RepositoryBuilder::new(5, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        b.add_roa(isp, Asn::new(100), vec![RoaPrefix::exact(p("85.1.0.0/16"))])
            .unwrap();
        b.revoke(ta, 2).unwrap(); // ISP cert serial
        let repo = b.finalize();
        let report = validate(&repo, now);
        assert!(report.vrps.is_empty());
        assert!(report
            .log
            .iter()
            .any(|e| e.rejected == Some(RejectReason::Revoked)));
    }

    #[test]
    fn tampered_roa_asn_rejected_as_bad_content_signature() {
        let (mut repo, now) = happy_repo();
        for pp in repo.points.values_mut() {
            for roa in &mut pp.roas {
                Arc::make_mut(roa).asn = Asn::new(666);
            }
        }
        // Re-fix manifests? No — tampering also breaks manifest hashes.
        let report = validate(&repo, now);
        assert!(report.vrps.is_empty());
        assert!(report
            .log
            .iter()
            .any(|e| matches!(e.rejected, Some(RejectReason::ManifestMismatch(_)))));
    }

    #[test]
    fn relaxed_manifests_still_catch_content_tamper() {
        let (mut repo, now) = happy_repo();
        for pp in repo.points.values_mut() {
            for roa in &mut pp.roas {
                Arc::make_mut(roa).asn = Asn::new(666);
            }
        }
        let report = validate_with(
            &repo,
            now,
            ValidationOptions {
                strict_manifests: false,
            },
        );
        // Manifest mismatch logged, objects processed anyway, and the EE
        // content signature check still kills the tampered ROAs.
        assert!(report.vrps.is_empty());
        assert!(report
            .log
            .iter()
            .any(|e| e.rejected == Some(RejectReason::BadContentSignature)));
    }

    /// One ROA published twice under a re-signed manifest that also
    /// lists a file nobody publishes: the name counts agree, the point
    /// does not.
    #[test]
    fn duplicate_publication_hides_a_ghost_manifest_entry() {
        let (clean, now) = happy_repo();
        let isp = ripki_crypto::keystore::Keypair::derive(5, "ca/ISP-1");
        let mut repo = clean.clone();
        let pp = repo.points.get_mut(&isp.key_id).unwrap();
        let twin = Arc::clone(&pp.roas[0]);
        pp.roas.push(twin);
        let mut entries = pp.manifest.entries.clone();
        entries.insert("ghost.roa".to_string(), sha256(b"never published"));
        pp.manifest = Arc::new(crate::manifest::Manifest::issue(
            &isp.secret,
            isp.key_id,
            pp.manifest.manifest_number + 1,
            entries,
            pp.manifest.validity,
        ));

        let report = validate(&repo, now);
        assert!(report.vrps.is_empty(), "vrps: {:?}", report.vrps);
        assert!(report.log.iter().any(|e| {
            matches!(&e.rejected, Some(RejectReason::ManifestMismatch(d)) if d.contains("published twice"))
        }));

        // The incremental validator agrees under either manifest policy,
        // on the way in and out — the last step withholds the twin's
        // original, so a refcount the duplicate left behind would show.
        let mut withheld = clean.clone();
        crate::faults::withhold_roa(&mut withheld, isp.key_id, 0);
        for strict_manifests in [true, false] {
            let options = ValidationOptions { strict_manifests };
            let mut inc = IncrementalValidator::new(options);
            for step in [&clean, &repo, &clean, &repo, &withheld] {
                inc.apply(step, now);
                let full = validate_with(step, now, options);
                let replay = inc.report();
                assert_eq!(replay.vrps, full.vrps, "strict={strict_manifests}");
                assert_eq!(replay.log, full.log, "strict={strict_manifests}");
            }
        }
    }

    #[test]
    fn overclaiming_ee_rejected() {
        // Build a valid repo, then maliciously widen an EE's resources
        // *with* a correct CA signature (a compromised CA key could do
        // this): the ROA claims space the CA does not hold, so the chain
        // check must reject it one level up.
        let now = SimTime::EPOCH + Duration::days(1);
        let mut b = RepositoryBuilder::new(5, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        b.add_roa(isp, Asn::new(100), vec![RoaPrefix::exact(p("85.1.0.0/16"))])
            .unwrap();
        let mut repo = b.finalize();

        // Forge: re-issue the EE with resources outside the CA's holdings,
        // signed by the real CA key (replayed via the builder's key
        // derivation), and update the manifest accordingly.
        let ca_keys = ripki_crypto::keystore::Keypair::derive(5, "ca/ISP-1");
        let pp = repo.points.get_mut(&ca_keys.key_id).unwrap();
        let roa = Arc::make_mut(&mut pp.roas[0]);
        let mut forged_ee = roa.ee.clone();
        forged_ee.resources = Resources {
            prefixes: PrefixSet::from_prefixes(vec![p("9.0.0.0/8")]),
            ..Default::default()
        };
        forged_ee.signature = ca_keys.secret.sign(&forged_ee.tbs_bytes());
        roa.ee = forged_ee;
        let digest = roa.digest();
        let name = PublicationPoint::roa_file_name(roa);
        // Re-sign the manifest with the updated hash (CA is complicit).
        let mut entries = pp.manifest.entries.clone();
        entries.insert(name, digest);
        pp.manifest = crate::manifest::Manifest::issue(
            &ca_keys.secret,
            ca_keys.key_id,
            2,
            entries,
            pp.manifest.validity,
        )
        .into();

        let report = validate(&repo, now);
        assert!(report.vrps.is_empty());
        assert!(report
            .log
            .iter()
            .any(|e| e.rejected == Some(RejectReason::ResourceOverclaim)));
    }

    #[test]
    fn missing_publication_point_logged_not_fatal() {
        let now = SimTime::EPOCH + Duration::days(1);
        let mut b = RepositoryBuilder::new(5, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        b.add_roa(isp, Asn::new(100), vec![RoaPrefix::exact(p("85.1.0.0/16"))])
            .unwrap();
        let mut repo = b.finalize();
        // Remove the ISP's publication point: its cert is fine but its
        // objects are unreachable. (TA manifest still lists the TA's own
        // objects, which are intact.)
        let ca_keys = ripki_crypto::keystore::Keypair::derive(5, "ca/ISP-1");
        repo.points.remove(&ca_keys.key_id);
        let report = validate(&repo, now);
        assert!(report.vrps.is_empty());
        assert!(report
            .log
            .iter()
            .any(|e| e.rejected == Some(RejectReason::MissingPublicationPoint)));
        // The TA itself and the ISP cert are still accepted.
        assert!(report.accepted_count() >= 2);
    }

    #[test]
    fn two_trust_anchors_independent() {
        let now = SimTime::EPOCH + Duration::days(1);
        let mut b = RepositoryBuilder::new(5, SimTime::EPOCH);
        let ripe = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let arin = b.add_trust_anchor("ARIN", res(&["96.0.0.0/4"]));
        let isp1 = b.add_ca(ripe, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        let isp2 = b.add_ca(arin, "ISP-2", res(&["100.0.0.0/8"])).unwrap();
        b.add_roa(isp1, Asn::new(1), vec![RoaPrefix::exact(p("85.1.0.0/16"))])
            .unwrap();
        b.add_roa(isp2, Asn::new(2), vec![RoaPrefix::exact(p("100.1.0.0/16"))])
            .unwrap();
        let repo = b.finalize();
        let report = validate(&repo, now);
        assert_eq!(report.vrps.len(), 2);
        let tas: HashSet<&str> = report.log.iter().map(|e| e.trust_anchor.as_str()).collect();
        assert!(tas.contains("RIPE") && tas.contains("ARIN"));
    }

    #[test]
    fn vrps_deduplicated_and_sorted() {
        let now = SimTime::EPOCH + Duration::days(1);
        let mut b = RepositoryBuilder::new(5, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", res(&["80.0.0.0/4"]));
        let isp = b.add_ca(ta, "ISP-1", res(&["85.0.0.0/8"])).unwrap();
        // Same VRP twice via two ROAs.
        for _ in 0..2 {
            b.add_roa(isp, Asn::new(100), vec![RoaPrefix::exact(p("85.1.0.0/16"))])
                .unwrap();
        }
        b.add_roa(isp, Asn::new(50), vec![RoaPrefix::exact(p("85.0.0.0/16"))])
            .unwrap();
        let repo = b.finalize();
        let report = validate(&repo, now);
        assert_eq!(report.vrps.len(), 2);
        let mut sorted = report.vrps.clone();
        sorted.sort();
        assert_eq!(sorted, report.vrps);
    }
}
