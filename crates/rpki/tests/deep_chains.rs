//! Validator behaviour on deeper and weirder hierarchies than the
//! builder normally produces: multi-level CA chains (TA → NIR → LIR →
//! customer), mid-chain resource narrowing, and hand-forged certificates
//! hitting the NotACa / UnexpectedCa rejection paths.

use ripki_crypto::keystore::Keypair;
use ripki_net::{Asn, IpPrefix};
use ripki_rpki::cert::Cert;
use ripki_rpki::repo::{PublicationPoint, RepositoryBuilder};
use ripki_rpki::resources::Resources;
use ripki_rpki::roa::RoaPrefix;
use ripki_rpki::time::{Duration, SimTime};
use ripki_rpki::validate::{validate, RejectReason};

fn p(s: &str) -> IpPrefix {
    s.parse().unwrap()
}

fn res(prefixes: &[&str]) -> Resources {
    Resources::from_prefixes(prefixes.iter().map(|s| p(s)))
}

#[test]
fn four_level_chain_validates() {
    let now = SimTime::EPOCH + Duration::days(1);
    let mut b = RepositoryBuilder::new(21, SimTime::EPOCH);
    let ta = b.add_trust_anchor("APNIC", res(&["1.0.0.0/8"]));
    let nir = b.add_ca(ta, "NIR-JP", res(&["1.0.0.0/10"])).unwrap();
    let lir = b.add_ca(nir, "LIR-tokyo", res(&["1.16.0.0/12"])).unwrap();
    let cust = b.add_ca(lir, "customer-77", res(&["1.16.0.0/16"])).unwrap();
    b.add_roa(
        cust,
        Asn::new(2500),
        vec![RoaPrefix::exact(p("1.16.0.0/16"))],
    )
    .unwrap();
    let repo = b.finalize();
    let report = validate(&repo, now);
    assert_eq!(report.rejected_count(), 0, "{:?}", report.log);
    assert_eq!(report.vrps.len(), 1);
    assert_eq!(report.vrps[0].asn, Asn::new(2500));
    // All four pub points exist.
    assert_eq!(repo.points.len(), 4);
}

#[test]
fn mid_chain_expiry_prunes_descendants_only() {
    // Issue the mid-level CA with a short life: everything below it dies
    // with it, siblings survive.
    let issue = SimTime::EPOCH;
    let mut b = RepositoryBuilder::new(22, issue).cert_validity(Duration::days(10));
    let ta = b.add_trust_anchor("APNIC", res(&["1.0.0.0/8"]));
    let lir_a = b.add_ca(ta, "LIR-a", res(&["1.0.0.0/12"])).unwrap();
    let lir_b = b.add_ca(ta, "LIR-b", res(&["1.16.0.0/12"])).unwrap();
    b.add_roa(lir_a, Asn::new(1), vec![RoaPrefix::exact(p("1.0.0.0/16"))])
        .unwrap();
    b.add_roa(lir_b, Asn::new(2), vec![RoaPrefix::exact(p("1.16.0.0/16"))])
        .unwrap();
    let mut repo = b.finalize();

    // Rewind LIR-a's certificate validity by re-issuing it expired —
    // signed correctly by the TA key, so only the window check fires.
    let ta_keys = Keypair::derive(22, "ta/APNIC");
    let lir_a_keys = Keypair::derive(22, "ca/LIR-a");
    let ta_pp = repo.points.get_mut(&ta_keys.key_id).unwrap();
    let idx = ta_pp
        .child_certs
        .iter()
        .position(|c| c.subject_key_id() == lir_a_keys.key_id)
        .unwrap();
    let old = &ta_pp.child_certs[idx];
    let expired = Cert::issue(
        old.serial,
        &old.subject,
        old.subject_key,
        &ta_keys.secret,
        ta_keys.key_id,
        ripki_rpki::time::Validity::starting(SimTime::EPOCH, Duration::secs(1)),
        old.resources.clone(),
        true,
    );
    ta_pp.child_certs[idx] = expired.clone().into();
    // Fix the TA manifest for the re-issued cert (complicit CA).
    let mut entries = ta_pp.manifest.entries.clone();
    entries.insert(PublicationPoint::cert_file_name(&expired), expired.digest());
    ta_pp.manifest = ripki_rpki::manifest::Manifest::issue(
        &ta_keys.secret,
        ta_keys.key_id,
        2,
        entries,
        ta_pp.manifest.validity,
    )
    .into();

    let report = validate(&repo, SimTime::EPOCH + Duration::days(1));
    let asns: Vec<Asn> = report.vrps.iter().map(|v| v.asn).collect();
    assert_eq!(asns, vec![Asn::new(2)], "only LIR-b's ROA survives");
    assert!(report
        .log
        .iter()
        .any(|e| e.rejected == Some(RejectReason::Expired)));
}

#[test]
fn non_ca_cert_in_ca_position_rejected() {
    let now = SimTime::EPOCH + Duration::days(1);
    let mut b = RepositoryBuilder::new(23, SimTime::EPOCH);
    let ta = b.add_trust_anchor("APNIC", res(&["1.0.0.0/8"]));
    let lir = b.add_ca(ta, "LIR", res(&["1.0.0.0/12"])).unwrap();
    b.add_roa(lir, Asn::new(9), vec![RoaPrefix::exact(p("1.0.0.0/16"))])
        .unwrap();
    let mut repo = b.finalize();

    // Forge: flip the LIR cert's CA bit (and re-sign + re-manifest, so
    // only the NotACa check can fire).
    let ta_keys = Keypair::derive(23, "ta/APNIC");
    let ta_pp = repo.points.get_mut(&ta_keys.key_id).unwrap();
    let old = &ta_pp.child_certs[0];
    let not_ca = Cert::issue(
        old.serial,
        &old.subject,
        old.subject_key,
        &ta_keys.secret,
        ta_keys.key_id,
        old.validity,
        old.resources.clone(),
        false, // ← the forgery
    );
    ta_pp.child_certs[0] = not_ca.clone().into();
    let mut entries = ta_pp.manifest.entries.clone();
    entries.insert(PublicationPoint::cert_file_name(&not_ca), not_ca.digest());
    ta_pp.manifest = ripki_rpki::manifest::Manifest::issue(
        &ta_keys.secret,
        ta_keys.key_id,
        2,
        entries,
        ta_pp.manifest.validity,
    )
    .into();

    let report = validate(&repo, now);
    assert!(report.vrps.is_empty());
    assert!(report
        .log
        .iter()
        .any(|e| e.rejected == Some(RejectReason::NotACa)));
}

#[test]
fn ca_flagged_ee_in_roa_rejected() {
    let now = SimTime::EPOCH + Duration::days(1);
    let mut b = RepositoryBuilder::new(24, SimTime::EPOCH);
    let ta = b.add_trust_anchor("APNIC", res(&["1.0.0.0/8"]));
    let lir = b.add_ca(ta, "LIR", res(&["1.0.0.0/12"])).unwrap();
    b.add_roa(lir, Asn::new(9), vec![RoaPrefix::exact(p("1.0.0.0/16"))])
        .unwrap();
    let mut repo = b.finalize();

    // Forge: mark the ROA's EE cert as a CA (re-signed by the real LIR
    // key; manifest fixed).
    let lir_keys = Keypair::derive(24, "ca/LIR");
    let pp = repo.points.get_mut(&lir_keys.key_id).unwrap();
    let roa = std::sync::Arc::make_mut(&mut pp.roas[0]);
    let old_ee = &roa.ee;
    let forged_ee = Cert::issue(
        old_ee.serial,
        &old_ee.subject,
        old_ee.subject_key,
        &lir_keys.secret,
        lir_keys.key_id,
        old_ee.validity,
        old_ee.resources.clone(),
        true, // ← EE must never be a CA
    );
    roa.ee = forged_ee;
    let digest = roa.digest();
    let name = PublicationPoint::roa_file_name(roa);
    let mut entries = pp.manifest.entries.clone();
    entries.insert(name, digest);
    pp.manifest = ripki_rpki::manifest::Manifest::issue(
        &lir_keys.secret,
        lir_keys.key_id,
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
        .any(|e| e.rejected == Some(RejectReason::UnexpectedCa)));
}

#[test]
fn sibling_isolation_under_deep_hierarchy() {
    // Two NIRs under one TA, two LIRs each; breaking one LIR's CRL kills
    // exactly its subtree.
    let now = SimTime::EPOCH + Duration::days(1);
    let mut b = RepositoryBuilder::new(25, SimTime::EPOCH);
    let ta = b.add_trust_anchor("APNIC", res(&["1.0.0.0/8"]));
    let mut leaf_cas = Vec::new();
    for (n, nir_block) in [("jp", "1.0.0.0/10"), ("cn", "1.64.0.0/10")] {
        let nir = b
            .add_ca(ta, &format!("NIR-{n}"), res(&[nir_block]))
            .unwrap();
        for l in 0..2 {
            let base: IpPrefix = nir_block.parse().unwrap();
            let lir_block = format!(
                "1.{}.0.0/12",
                match (n, l) {
                    ("jp", 0) => 0,
                    ("jp", 1) => 16,
                    ("cn", 0) => 64,
                    _ => 80,
                }
            );
            let _ = base;
            let lir = b
                .add_ca(nir, &format!("LIR-{n}-{l}"), res(&[&lir_block]))
                .unwrap();
            b.add_roa(
                lir,
                Asn::new(100 + l as u32),
                vec![RoaPrefix::exact(lir_block.parse().unwrap())],
            )
            .unwrap();
            leaf_cas.push(lir);
        }
    }
    let mut repo = b.finalize();
    let before = validate(&repo, now);
    assert_eq!(before.vrps.len(), 4);

    ripki_rpki::faults::stale_crl(&mut repo, leaf_cas[0]);
    let after = validate(&repo, now);
    assert_eq!(after.vrps.len(), 3);
}
