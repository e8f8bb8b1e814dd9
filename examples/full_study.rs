//! The complete study at configurable scale: every figure, the table,
//! the headline numbers, and the CDN audit — the paper's §4 end to end.
//!
//! ```sh
//! cargo run --release --example full_study            # 100k domains
//! cargo run --release --example full_study -- 1000000 # the paper's 1M
//! ```

#![allow(clippy::print_stdout, clippy::disallowed_methods)]

use ripki_repro::ripki::cdn_audit;
use ripki_repro::ripki::classify::HttpArchiveClassifier;
use ripki_repro::ripki::figures;
use ripki_repro::ripki::report::HeadlineStats;
use ripki_repro::ripki::tables;
use ripki_repro::ripki_rpki::validate;
use ripki_repro::ripki_websim::operators::CDN_SPECS;

fn print_series(label: &str, s: &ripki_repro::ripki::BinnedSeries, pct: bool) {
    print!("{label:<26}");
    for m in &s.means {
        match m {
            Some(v) if pct => print!(" {:>6.2}", v * 100.0),
            Some(v) => print!(" {v:>6.3}"),
            None => print!("      -"),
        }
    }
    println!();
}

fn main() {
    let domains: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let bin = (domains / 10).max(1);

    println!("== RiPKI full study: {domains} domains, bin {bin} ==\n");
    let t0 = std::time::Instant::now();
    let (scenario, results) = ripki_repro::run_default_study(domains);
    println!("world built + measured in {:.1?}\n", t0.elapsed());

    println!("-- headline (§4) --");
    println!("{}\n", HeadlineStats::compute(&results));

    println!("-- Figure 1: www vs w/o-www equal prefixes (% per bin) --");
    let fig1 = figures::fig1_www_overlap(&results, bin);
    print_series("equal prefixes", &fig1, true);

    println!("\n-- Figure 2: RPKI validation outcome (% per bin) --");
    let fig2 = figures::fig2_rpki_outcome(&results, bin);
    print_series("valid", &fig2.valid, true);
    print_series("invalid", &fig2.invalid, true);
    print_series("not found", &fig2.not_found, true);

    println!("\n-- Figure 3: CDN share by classifier (% per bin) --");
    let patterns: Vec<String> = scenario
        .cdn_infras
        .iter()
        .map(|i| format!("{}-sim.net", i.name))
        .collect();
    let classifier = HttpArchiveClassifier::new(&scenario.zones, patterns);
    let fig3 = figures::fig3_cdn_popularity(&results, &classifier, bin);
    print_series("CNAME heuristic", &fig3.cname_heuristic, true);
    print_series("HTTPArchive", &fig3.httparchive, true);

    println!("\n-- Figure 4: RPKI-enabled share (% per bin) --");
    let fig4 = figures::fig4_rpki_on_cdns(&results, bin);
    print_series("all domains", &fig4.rpki_enabled, true);
    print_series("CDN-hosted only", &fig4.rpki_enabled_on_cdns, true);

    println!("\n-- Table 1: top domains with RPKI coverage --");
    let rows = tables::table1_top_covered(&results, 10);
    print!("{}", tables::render_table1(&rows));

    println!("\n-- §4.2 CDN audit --");
    let report = validate(&scenario.repository, scenario.now);
    let names: Vec<&str> = CDN_SPECS.iter().map(|(n, _, _)| *n).collect();
    let audit = cdn_audit::audit_cdns(&scenario.registry, &report.vrps, &names);
    let summary = cdn_audit::summarize(&audit, &scenario.registry, &report.vrps);
    println!(
        "CDN ASes: {}   CDN RPKI entries: {}   deployers: {:?}",
        summary.total_cdn_asns, summary.total_rpki_entries, summary.cdns_with_deployment
    );
    println!(
        "ISP penetration: {:.1}%   webhoster penetration: {:.1}%",
        summary.isp_penetration * 100.0,
        summary.webhoster_penetration * 100.0
    );

    println!("\ntotal runtime {:.1?}", t0.elapsed());
}
