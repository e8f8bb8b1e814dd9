//! Quickstart: build a small synthetic web ecosystem, run the RiPKI
//! four-step measurement pipeline on it, and print the key findings.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![allow(clippy::print_stdout)]

use ripki_repro::ripki::figures;
use ripki_repro::ripki::report::HeadlineStats;
use ripki_repro::ripki::tables;

fn main() {
    let domains = 20_000;
    println!("building synthetic web ecosystem ({domains} domains)…");
    let (scenario, results) = ripki_repro::run_default_study(domains);

    println!("\n== headline statistics (paper §4) ==");
    let stats = HeadlineStats::compute(&results);
    println!("{stats}");

    let bin = domains / 10;
    let fig2 = figures::fig2_rpki_outcome(&results, bin);
    println!("\n== RPKI validation outcome by rank bin (Figure 2) ==");
    println!("bin_start   valid    invalid  notfound");
    for (i, ((v, inv), nf)) in fig2
        .valid
        .means
        .iter()
        .zip(&fig2.invalid.means)
        .zip(&fig2.not_found.means)
        .enumerate()
    {
        println!(
            "{:>9}   {:>6.3}%  {:>6.3}%  {:>6.2}%",
            i * bin,
            v.unwrap_or(0.0) * 100.0,
            inv.unwrap_or(0.0) * 100.0,
            nf.unwrap_or(0.0) * 100.0,
        );
    }
    let top = fig2.valid.range_mean(0, domains / 10).unwrap_or(0.0);
    let tail = fig2
        .valid
        .range_mean(domains * 9 / 10, domains)
        .unwrap_or(0.0);
    println!(
        "\nperversely, the popular head ({:.2}%) is LESS secured than the tail ({:.2}%)",
        top * 100.0,
        tail * 100.0
    );

    println!("\n== top domains with any RPKI coverage (Table 1) ==");
    let rows = tables::table1_top_covered(&results, 10);
    print!("{}", tables::render_table1(&rows));

    println!("\nworld summary: {}", scenario.repository);
    println!("               {}", scenario.topology);
}
