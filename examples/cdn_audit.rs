//! §4.2 reproduced: keyword-spot the AS assignment lists for the sixteen
//! CDNs, join against validated ROAs, and print who actually deployed.
//!
//! ```sh
//! cargo run --release --example cdn_audit
//! ```

#![allow(clippy::print_stdout)]

use ripki_repro::ripki::cdn_audit::{audit_cdns, summarize};
use ripki_repro::ripki_rpki::validate;
use ripki_repro::ripki_websim::operators::CDN_SPECS;
use ripki_repro::ripki_websim::{Scenario, ScenarioConfig};

fn main() {
    println!("building ecosystem…");
    let scenario = Scenario::build(ScenarioConfig::with_domains(20_000));

    println!("validating the five RIR repositories…");
    let report = validate(&scenario.repository, scenario.now);
    println!(
        "  {} objects accepted, {} rejected, {} VRPs\n",
        report.accepted_count(),
        report.rejected_count(),
        report.vrps.len()
    );

    let names: Vec<&str> = CDN_SPECS.iter().map(|(n, _, _)| *n).collect();
    let rows = audit_cdns(&scenario.registry, &report.vrps, &names);
    println!("== CDN audit (keyword spotting on AS assignment lists) ==");
    for row in &rows {
        println!("  {row}");
        for p in &row.rpki_prefixes {
            println!("      RPKI entry: {p}");
        }
    }

    let summary = summarize(&rows, &scenario.registry, &report.vrps);
    println!("\n== summary ==");
    println!("  CDN ASes discovered:      {}", summary.total_cdn_asns);
    println!("  CDN RPKI entries:         {}", summary.total_rpki_entries);
    println!(
        "  CDNs with any deployment: {:?}",
        summary.cdns_with_deployment
    );
    println!(
        "  ISP penetration:          {:.1}%",
        summary.isp_penetration * 100.0
    );
    println!(
        "  webhoster penetration:    {:.1}%",
        summary.webhoster_penetration * 100.0
    );
    println!("\nthe paper's observation holds: \"One might mistakenly think that");
    println!("Internap has engaged widely with RPKI. However, Internap operates at");
    println!("least 41 ASes, the bulk of which are not secured via RPKI.\"");
}
