//! The paper's attacker model (§2.3) made runnable: hijack a website's
//! prefix on a realistic AS topology and watch what ROAs + route origin
//! validation change.
//!
//! Three acts:
//!   1. origin hijack, no RPKI anywhere — the attacker splits the world;
//!   2. subprefix hijack, no RPKI — the attacker takes *everything*
//!      ("TLS does not necessarily protect against such an attack");
//!   3. the same attacks against a ROA'd prefix under increasing ROV
//!      deployment — the capture rate collapses.
//!
//! ```sh
//! cargo run --release --example hijack_defense
//! ```

#![allow(clippy::print_stdout)]

use ripki_repro::ripki_bgp::hijack::{deployment_sweep, run, HijackScenario};
use ripki_repro::ripki_bgp::rov::{RouteOriginValidator, VrpTriple};
use ripki_repro::ripki_bgp::topology::Topology;
use ripki_repro::ripki_net::{Asn, IpPrefix};
use std::collections::BTreeSet;

fn main() {
    // An Internet-like arena: 5 tier-1s, 40 regional ISPs, 400 stubs.
    let topology = Topology::generate(2015, 5, 40, 400, 0.08);
    let victim = Asn::new(10_007); // a stub hosting "the website"
    let attacker = Asn::new(10_311); // another stub, far away
    let prefix: IpPrefix = "85.201.0.0/16".parse().unwrap();
    let subprefix: IpPrefix = "85.201.128.0/17".parse().unwrap();

    println!("arena: {topology}");
    println!(
        "victim AS{} announces {prefix}; attacker is AS{}\n",
        victim.value(),
        attacker.value()
    );

    // Act 1: origin hijack, no RPKI.
    let origin_attack = HijackScenario::origin_hijack(victim, attacker, prefix);
    let no_rpki = RouteOriginValidator::new();
    let out = run(&topology, &origin_attack, &no_rpki, &BTreeSet::new());
    println!("== act 1: origin hijack, no RPKI ==");
    println!(
        "  attacker captures {:.1}% of ASes ({} hijacked, {} safe)",
        out.capture_rate() * 100.0,
        out.hijacked.len(),
        out.safe.len()
    );
    println!("  → 'the attacker can harm specific subsets of clients'\n");

    // Act 2: subprefix hijack, no RPKI.
    let sub_attack = HijackScenario::subprefix_hijack(victim, attacker, prefix, subprefix);
    let out = run(&topology, &sub_attack, &no_rpki, &BTreeSet::new());
    println!("== act 2: subprefix hijack ({subprefix}), no RPKI ==");
    println!(
        "  attacker captures {:.1}% of ASes — longest-prefix match beats path length",
        out.capture_rate() * 100.0
    );
    println!("  → this is the Pakistan-Telecom/YouTube shape of attack\n");

    // Act 3: the victim creates a ROA (maxLength pinned to /16!) and the
    // world gradually deploys ROV.
    let validator = RouteOriginValidator::from_vrps([VrpTriple {
        prefix,
        max_length: 16,
        asn: victim,
    }]);
    println!("== act 3: ROA published (maxLength 16), sweeping ROV deployment ==");
    println!("  ROV deployed   origin-hijack capture   subprefix-hijack capture");
    let fractions = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0];
    let origin_sweep = deployment_sweep(&topology, &origin_attack, &validator, &fractions, 7);
    let sub_sweep = deployment_sweep(&topology, &sub_attack, &validator, &fractions, 7);
    for ((f, origin_rate), (_, sub_rate)) in origin_sweep.iter().zip(&sub_sweep) {
        println!(
            "  {:>10.0}%   {:>19.1}%   {:>22.1}%",
            f * 100.0,
            origin_rate * 100.0,
            sub_rate * 100.0
        );
    }
    println!("\n  with full ROV and a correct ROA, both attacks die.");
    println!("  without the ROA, ROV has nothing to filter — which is why the");
    println!("  paper's finding (CDNs don't create ROAs) matters.");
}
