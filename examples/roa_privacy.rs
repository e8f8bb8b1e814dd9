//! §5.2's business-policy conflict made runnable: "imagine that two large
//! CDNs serve secretly as backups for each other."
//!
//! Two content networks authorize each other's ASes in their ROAs so they
//! can fail over via BGP without waiting for DNS. The backup never
//! activates. A BGP route collector — the *reactive* channel — never
//! learns the relation; the RPKI — a *proactive* catalog — exposes it the
//! day the ROA is published.
//!
//! ```sh
//! cargo run --release --example roa_privacy
//! ```

#![allow(clippy::print_stdout)]

use ripki_repro::ripki_bgp::collector::Collector;
use ripki_repro::ripki_bgp::propagate::{accept_all, propagate};
use ripki_repro::ripki_bgp::topology::Topology;
use ripki_repro::ripki_net::{Asn, IpPrefix};
use ripki_repro::ripki_rpki::privacy::exposure;
use ripki_repro::ripki_rpki::repo::RepositoryBuilder;
use ripki_repro::ripki_rpki::resources::Resources;
use ripki_repro::ripki_rpki::roa::RoaPrefix;
use ripki_repro::ripki_rpki::time::{Duration, SimTime};
use ripki_repro::ripki_rpki::validate;

fn main() {
    let now = SimTime::EPOCH + Duration::days(1);
    let cdn_a = Asn::new(64_701);
    let cdn_b = Asn::new(64_702);
    let prefix_a: IpPrefix = "31.10.0.0/16".parse().unwrap();
    let prefix_b: IpPrefix = "31.20.0.0/16".parse().unwrap();

    // Both CDNs publish ROAs for their prefixes — authorizing BOTH ASes,
    // so either can originate the other's space in an emergency.
    let mut b = RepositoryBuilder::new(9, SimTime::EPOCH);
    let ta = b.add_trust_anchor(
        "RIPE",
        Resources::from_prefixes(vec!["31.0.0.0/8".parse().unwrap()]),
    );
    let ca_a = b
        .add_ca(ta, "cdn-a", Resources::from_prefixes(vec![prefix_a]))
        .unwrap();
    let ca_b = b
        .add_ca(ta, "cdn-b", Resources::from_prefixes(vec![prefix_b]))
        .unwrap();
    b.add_roa(ca_a, cdn_a, vec![RoaPrefix::exact(prefix_a)])
        .unwrap();
    b.add_roa(ca_a, cdn_b, vec![RoaPrefix::exact(prefix_a)])
        .unwrap(); // the secret backup
    b.add_roa(ca_b, cdn_b, vec![RoaPrefix::exact(prefix_b)])
        .unwrap();
    b.add_roa(ca_b, cdn_a, vec![RoaPrefix::exact(prefix_b)])
        .unwrap(); // and vice versa
    let repo = b.finalize();
    let report = validate(&repo, now);
    println!("RPKI catalog ({} VRPs):", report.vrps.len());
    for vrp in &report.vrps {
        println!("  {vrp}");
    }

    // Normal operation: each CDN announces only its own prefix.
    let mut topology = Topology::generate(77, 4, 20, 100, 0.1);
    topology.add_customer_provider(cdn_a, Asn::new(1000));
    topology.add_customer_provider(cdn_b, Asn::new(1001));
    // Vantages at two tier-1s of the generated topology (ASNs 10, 11).
    let mut collector = Collector::new([Asn::new(10), Asn::new(11)]);
    collector.observe(prefix_a, &propagate(&topology, &[cdn_a], &accept_all));
    collector.observe(prefix_b, &propagate(&topology, &[cdn_b], &accept_all));
    println!("\nBGP collector view ({collector}):");
    for (p, o) in collector.observations() {
        println!("  {p} originated by {o}");
    }

    // Join the two views.
    let exposure_report = exposure(&report.vrps, collector.observations());
    println!("\nexposure analysis (paper §5.2):");
    println!(
        "  operational relations (visible in BGP anyway): {}",
        exposure_report.operational.len()
    );
    println!(
        "  LATENT relations (only the RPKI reveals them): {}",
        exposure_report.latent.len()
    );
    for auth in &exposure_report.latent {
        println!(
            "    {} may originate {} — never announced",
            auth.asn, auth.prefix
        );
    }
    println!(
        "  latent fraction: {:.0}%",
        exposure_report.latent_fraction() * 100.0
    );
    println!("\n\"As soon as at least one ROA for an IP prefix exists, all valid");
    println!("origin ASes for this IP prefix need to be assigned in the RPKI\" —");
    println!("and the backup arrangement is public before it is ever used.");
}
