//! Browse a generated RPKI repository like an RPKI monitor (cf. the
//! paper's reference to RPKI MIRO): trust anchors, publication points,
//! manifests, CRLs, ROAs — then break something and watch validation
//! reject it.
//!
//! ```sh
//! cargo run --release --example repo_inspect
//! ```

#![allow(clippy::print_stdout)]

use ripki_repro::ripki_net::{Asn, IpPrefix};
use ripki_repro::ripki_rpki::faults;
use ripki_repro::ripki_rpki::repo::RepositoryBuilder;
use ripki_repro::ripki_rpki::resources::Resources;
use ripki_repro::ripki_rpki::roa::RoaPrefix;
use ripki_repro::ripki_rpki::time::{Duration, SimTime};
use ripki_repro::ripki_rpki::validate;

fn p(s: &str) -> IpPrefix {
    s.parse().unwrap()
}

fn main() {
    let now = SimTime::EPOCH + Duration::days(1);
    let mut b = RepositoryBuilder::new(1234, SimTime::EPOCH);
    let ripe = b.add_trust_anchor(
        "RIPE",
        Resources::from_prefixes(vec![p("77.0.0.0/8"), p("2a00::/12")]),
    );
    let isp = b
        .add_ca(
            ripe,
            "MegaNet",
            Resources::from_prefixes(vec![p("77.10.0.0/15")]),
        )
        .unwrap();
    let hoster = b
        .add_ca(
            ripe,
            "TinyHost",
            Resources::from_prefixes(vec![p("77.200.0.0/16")]),
        )
        .unwrap();
    b.add_roa(
        isp,
        Asn::new(64_800),
        vec![RoaPrefix::up_to(p("77.10.0.0/16"), 20)],
    )
    .unwrap();
    b.add_roa(
        isp,
        Asn::new(64_800),
        vec![RoaPrefix::exact(p("77.11.0.0/16"))],
    )
    .unwrap();
    b.add_roa(
        hoster,
        Asn::new(64_900),
        vec![RoaPrefix::exact(p("77.200.0.0/16"))],
    )
    .unwrap();
    let mut repo = b.finalize();

    println!("== repository tree ==");
    println!("{repo}\n");
    for ta in &repo.trust_anchors {
        println!("{ta}");
    }
    for key_id in faults::publication_points(&repo) {
        let pp = &repo.points[&key_id];
        println!("\npublication point {key_id}:");
        println!("  {}", pp.manifest);
        println!("  {}", pp.crl);
        for cert in &pp.child_certs {
            println!("  child: {cert}");
        }
        for roa in &pp.roas {
            println!("  {} (digest {})", roa, roa.digest().short());
        }
    }

    println!("\n== validation (healthy repository) ==");
    let report = validate(&repo, now);
    println!(
        "accepted {} / rejected {}",
        report.accepted_count(),
        report.rejected_count()
    );
    for vrp in &report.vrps {
        println!("  VRP {vrp}");
    }

    // Now sabotage MegaNet's publication point.
    println!("\n== fault injection: withholding one of MegaNet's ROAs ==");
    let meganet = ripki_repro::ripki_crypto::keystore::Keypair::derive(1234, "ca/MegaNet").key_id;
    faults::withhold_roa(&mut repo, meganet, 0);
    let report = validate(&repo, now);
    println!(
        "accepted {} / rejected {} — VRPs now: {}",
        report.accepted_count(),
        report.rejected_count(),
        report.vrps.len()
    );
    for event in report.rejections() {
        println!(
            "  rejected: {} — {}",
            event.object,
            event.rejected.as_ref().unwrap()
        );
    }
    println!("\nthe manifest made the withheld object detectable, and the");
    println!("whole publication point is discarded under strict validation —");
    println!("TinyHost's ROA survives unaffected.");
}
