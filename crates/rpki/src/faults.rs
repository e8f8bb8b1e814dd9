//! Fault injection for repositories.
//!
//! Following the smoltcp tradition of first-class fault injection, these
//! helpers corrupt a finished [`Repository`] the way real-world failures
//! do. Tests and ablation benches use them to prove that every validator
//! rejection path fires (and that *only* the intended objects are lost).
//!
//! Every function edits the repository it is handed and returns how many
//! objects it touched. Objects are shared between snapshots, clones and
//! validator caches, so an edit is copy-on-write per object
//! (`Arc::make_mut`): the damaged repository gets its own copy of each
//! object it changes and keeps sharing the rest; no other holder —
//! `repo.clone()`'s source, the builder, a validator — ever sees the
//! damage.

use crate::manifest::Manifest;
use crate::repo::Repository;
use crate::time::{Duration, Validity};
use ripki_crypto::keystore::KeyId;
use ripki_crypto::schnorr::Signature;
use std::sync::Arc;

/// Flip a bit in every ROA content signature at `ca`'s publication point,
/// simulating storage corruption or a broken signer.
pub fn corrupt_roa_signatures(repo: &mut Repository, ca: KeyId) -> usize {
    let Some(pp) = repo.points.get_mut(&ca) else {
        return 0;
    };
    for roa in pp.roas.iter_mut().map(Arc::make_mut) {
        roa.signature = Signature {
            e: roa.signature.e ^ 1,
            s: roa.signature.s,
        };
    }
    pp.roas.len()
}

/// Replace the CRL with one whose validity window ended in the past,
/// simulating an unattended CA that stopped re-signing (the most common
/// real-world RPKI operational failure).
pub fn stale_crl(repo: &mut Repository, ca: KeyId) -> usize {
    let Some(pp) = repo.points.get_mut(&ca) else {
        return 0;
    };
    let v = pp.crl.validity;
    // Shift the window to end before it begins relative to "now" users:
    // one second of life at the original not_before.
    Arc::make_mut(&mut pp.crl).validity =
        Validity::new(v.not_before, v.not_before + Duration::secs(1));
    // NOTE: deliberately does NOT re-sign — a stale *but authentic* CRL.
    // The signature is now invalid too (validity is in the TBS), which is
    // fine: the validator reports the first failure it hits.
    1
}

/// Drop an object from the publication point without touching the
/// manifest: the classic "withheld object" attack from *On the Risk of
/// Misbehaving RPKI Authorities*. Returns the number of ROAs removed.
pub fn withhold_roa(repo: &mut Repository, ca: KeyId, index: usize) -> usize {
    let Some(pp) = repo.points.get_mut(&ca) else {
        return 0;
    };
    if index < pp.roas.len() {
        pp.roas.remove(index);
        1
    } else {
        0
    }
}

/// Replace one ROA's bytes after manifest issuance (hash mismatch).
pub fn substitute_roa_asn(repo: &mut Repository, ca: KeyId, new_asn: u32) -> usize {
    let Some(pp) = repo.points.get_mut(&ca) else {
        return 0;
    };
    let mut touched = 0;
    for roa in pp.roas.iter_mut().map(Arc::make_mut) {
        roa.asn = ripki_net::Asn::new(new_asn);
        touched += 1;
    }
    touched
}

/// Add a manifest entry for a file that is not published ("ghost entry").
pub fn ghost_manifest_entry(repo: &mut Repository, ca: KeyId) -> usize {
    let Some(pp) = repo.points.get_mut(&ca) else {
        return 0;
    };
    // Signed by nobody — reuse the old signature; the signature check
    // fails first unless callers re-sign. To exercise the *mismatch*
    // (not signature) path, forge with the correct structure but keep
    // the break localized: tests that want a signed-but-inconsistent
    // manifest should use [`resign_manifest`] afterwards.
    Arc::make_mut(&mut pp.manifest).entries.insert(
        "ghost.roa".to_string(),
        ripki_crypto::sha256::sha256(b"never published"),
    );
    1
}

/// Re-sign `ca`'s manifest with the given secret key (for tests that model
/// a complicit CA producing a *validly signed* inconsistent manifest).
pub fn resign_manifest(
    repo: &mut Repository,
    ca: KeyId,
    secret: &ripki_crypto::schnorr::SecretKey,
) -> bool {
    let Some(pp) = repo.points.get_mut(&ca) else {
        return false;
    };
    pp.manifest = Arc::new(Manifest::issue(
        secret,
        ca,
        pp.manifest.manifest_number + 1,
        pp.manifest.entries.clone(),
        pp.manifest.validity,
    ));
    true
}

/// Delete `ca`'s publication point entirely (unreachable repository).
pub fn unpublish(repo: &mut Repository, ca: KeyId) -> bool {
    repo.points.remove(&ca).is_some()
}

/// Convenience: iterate over all publication-point key ids (sorted for
/// determinism).
pub fn publication_points(repo: &Repository) -> Vec<KeyId> {
    let mut ids: Vec<KeyId> = repo.points.keys().copied().collect();
    ids.sort();
    ids
}

/// Which ROAs survive validation after a fault — a compact summary for
/// tests: `(vrps_before, vrps_after)`.
pub fn vrp_delta(
    before: &crate::validate::ValidationReport,
    after: &crate::validate::ValidationReport,
) -> (usize, usize) {
    (before.vrps.len(), after.vrps.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repo::RepositoryBuilder;
    use crate::resources::Resources;
    use crate::roa::RoaPrefix;
    use crate::time::{Duration, SimTime};
    use crate::validate::{validate, RejectReason};
    use ripki_net::{Asn, IpPrefix};

    fn p(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    fn build() -> (Repository, KeyId, SimTime) {
        let mut b = RepositoryBuilder::new(8, SimTime::EPOCH);
        let ta = b.add_trust_anchor("RIPE", Resources::from_prefixes(vec![p("80.0.0.0/4")]));
        let isp = b
            .add_ca(ta, "ISP-1", Resources::from_prefixes(vec![p("85.0.0.0/8")]))
            .unwrap();
        b.add_roa(isp, Asn::new(100), vec![RoaPrefix::exact(p("85.1.0.0/16"))])
            .unwrap();
        b.add_roa(isp, Asn::new(200), vec![RoaPrefix::exact(p("85.2.0.0/16"))])
            .unwrap();
        (b.finalize(), isp, SimTime::EPOCH + Duration::days(1))
    }

    #[test]
    fn corrupt_signatures_rejects_roas_only() {
        let (mut repo, isp, now) = build();
        let before = validate(&repo, now);
        assert_eq!(corrupt_roa_signatures(&mut repo, isp), 2);
        let after = validate(&repo, now);
        assert_eq!(vrp_delta(&before, &after), (2, 0));
        // Manifest hashes broke too; under strict manifests that is the
        // reported reason.
        assert!(after
            .log
            .iter()
            .any(|e| matches!(e.rejected, Some(RejectReason::ManifestMismatch(_)))));
    }

    #[test]
    fn stale_crl_kills_publication_point() {
        let (mut repo, isp, now) = build();
        assert_eq!(stale_crl(&mut repo, isp), 1);
        let report = validate(&repo, now);
        assert!(report.vrps.is_empty());
        assert!(report
            .log
            .iter()
            .any(|e| matches!(e.rejected, Some(RejectReason::BadCrl(_)))));
    }

    #[test]
    fn withheld_roa_detected_via_manifest() {
        let (mut repo, isp, now) = build();
        assert_eq!(withhold_roa(&mut repo, isp, 0), 1);
        let report = validate(&repo, now);
        // Strict manifests: whole point rejected, both VRPs gone — the
        // "withholding is detectable" property from the misbehaving-
        // authorities paper.
        assert!(report.vrps.is_empty());
        assert!(report.log.iter().any(|e| {
            matches!(&e.rejected, Some(RejectReason::ManifestMismatch(d)) if d.contains("manifest but not published"))
        }));
    }

    #[test]
    fn substituted_roa_hash_mismatch() {
        let (mut repo, isp, now) = build();
        assert_eq!(substitute_roa_asn(&mut repo, isp, 666), 2);
        let report = validate(&repo, now);
        assert!(report.vrps.is_empty());
        assert!(report.log.iter().any(|e| {
            matches!(&e.rejected, Some(RejectReason::ManifestMismatch(d)) if d.contains("hash mismatch"))
        }));
    }

    #[test]
    fn ghost_entry_detected_after_resign() {
        let (mut repo, isp, now) = build();
        ghost_manifest_entry(&mut repo, isp);
        let keys = ripki_crypto::keystore::Keypair::derive(8, "ca/ISP-1");
        assert!(resign_manifest(&mut repo, isp, &keys.secret));
        let report = validate(&repo, now);
        assert!(report.vrps.is_empty());
        assert!(report.log.iter().any(|e| {
            matches!(&e.rejected, Some(RejectReason::ManifestMismatch(d)) if d.contains("ghost.roa"))
        }));
    }

    #[test]
    fn unpublish_removes_point() {
        let (mut repo, isp, now) = build();
        assert!(unpublish(&mut repo, isp));
        assert!(!unpublish(&mut repo, isp));
        let report = validate(&repo, now);
        assert!(report.vrps.is_empty());
    }

    #[test]
    fn faults_on_unknown_ca_are_noops() {
        let (mut repo, _, _) = build();
        let bogus = ripki_crypto::keystore::Keypair::derive(99, "nobody").key_id;
        assert_eq!(corrupt_roa_signatures(&mut repo, bogus), 0);
        assert_eq!(stale_crl(&mut repo, bogus), 0);
        assert_eq!(withhold_roa(&mut repo, bogus, 0), 0);
        assert_eq!(substitute_roa_asn(&mut repo, bogus, 1), 0);
        assert_eq!(ghost_manifest_entry(&mut repo, bogus), 0);
    }

    /// Faults copy on write: damaging a clone never reaches the
    /// repository it was cloned from, and the two keep sharing every
    /// object the fault did not touch.
    #[test]
    fn faults_on_a_clone_leave_the_original_intact_and_share_the_rest() {
        let (original, isp, now) = build();
        let clean = validate(&original, now);
        assert_eq!(clean.rejected_count(), 0);
        let ta = original.trust_anchors[0].cert.subject_key_id();

        let mut copy = original.clone();
        assert!(copy.points[&isp].ptr_eq(&original.points[&isp]));
        assert_eq!(substitute_roa_asn(&mut copy, isp, 666), 2);
        assert_eq!(stale_crl(&mut copy, isp), 1);
        assert!(validate(&copy, now).vrps.is_empty());

        let after = validate(&original, now);
        assert_eq!(after.vrps, clean.vrps);
        assert_eq!(after.log, clean.log);
        let (ours, theirs) = (&original.points[&isp], &copy.points[&isp]);
        assert!(ours.roas.iter().all(|r| r.asn != Asn::new(666)));
        assert!(!Arc::ptr_eq(&ours.roas[0], &theirs.roas[0]));
        assert!(!Arc::ptr_eq(&ours.crl, &theirs.crl));
        // Untouched: the damaged point's manifest, the whole TA point.
        assert!(Arc::ptr_eq(&ours.manifest, &theirs.manifest));
        assert!(original.points[&ta].ptr_eq(&copy.points[&ta]));

        // One ROA withheld: the survivor is still the shared object.
        let mut copy = original.clone();
        assert_eq!(withhold_roa(&mut copy, isp, 0), 1);
        assert!(Arc::ptr_eq(&ours.roas[1], &copy.points[&isp].roas[0]));
        assert_eq!(ours.roas.len(), 2);
    }

    #[test]
    fn publication_points_sorted() {
        let (repo, _, _) = build();
        let ids = publication_points(&repo);
        assert_eq!(ids.len(), 2);
        assert!(ids.windows(2).all(|w| w[0] <= w[1]));
    }
}
