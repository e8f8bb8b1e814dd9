//! The experiment record: regenerates every figure, table, ablation and
//! extension of the paper over one world at a configurable scale, prints
//! the paper-style series, and writes machine-readable JSON + CSV to
//! `results/`.
//!
//! ```sh
//! experiments [DOMAINS] [SECTION…]
//! cargo run --release -p ripki-bench --bin experiments                  # all, 20k
//! cargo run --release -p ripki-bench --bin experiments -- 200000        # all, bigger
//! cargo run --release -p ripki-bench --bin experiments -- 20000 cdn_audit exposure_curve
//! ```
//!
//! Section names are those of `ripki_bench::sections::SECTIONS`; with
//! none given every section runs and the record files are written (a
//! partial pass prints only, so it never overwrites a full record).

#![allow(clippy::disallowed_methods)]

use ripki_bench::{sections, Study};
use std::io::Write;

fn main() -> std::io::Result<()> {
    let mut names: Vec<String> = std::env::args().skip(1).collect();
    let domains = match names.first().map(|s| s.parse::<usize>()) {
        Some(Ok(n)) => {
            names.remove(0);
            n
        }
        _ => 20_000,
    };
    let selected = match sections::select(&names) {
        Ok(selected) => selected,
        Err(message) => {
            eprintln!("experiments: {message}\nusage: experiments [DOMAINS] [SECTION…]");
            std::process::exit(2);
        }
    };

    let mut out = std::io::stdout().lock();
    writeln!(out, "=== RiPKI experiment record, {domains} domains ===")?;
    let t0 = std::time::Instant::now();
    let study = Study::at_scale(domains);
    writeln!(out, "world + measurement: {:.1?}\n", t0.elapsed())?;
    let record = sections::run(&study, &selected, &mut out)?;

    if names.is_empty() {
        std::fs::create_dir_all("results")?;
        for (stem, text) in &record.csv {
            std::fs::write(format!("results/{stem}_{domains}.csv"), text)?;
        }
        let path = format!("results/experiments_{domains}.json");
        let json = serde_json::to_string_pretty(&serde_json::Value::Object(record.json))
            .expect("a JSON value serializes");
        std::fs::write(&path, json + "\n")?;
        writeln!(out, "\nwrote {path}")?;
    }
    writeln!(out, "total {:.1?}", t0.elapsed())
}
