//! CLI entry point: `ripki-lint check [--format text|json]`,
//! `ripki-lint bench`, and `ripki-lint rules`, each run from the
//! workspace root.
//!
//! Exit codes: 0 = clean, 1 = violations found, 2 = usage or I/O error.

#![allow(clippy::print_stderr, clippy::disallowed_methods)]

use ripki_lint::catalog::{ALL_RULES, CATALOG_VERSION};
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
ripki-lint — workspace invariant checker (run from the workspace root)

USAGE:
    ripki-lint check [--format text|json]
    ripki-lint bench
    ripki-lint rules

OPTIONS:
    --format FORMAT  `text` (default) or `json`

`bench` writes results/BENCH_lint.json, the best wall time of 3 scans.
";

/// Where `bench` writes, and how many scans it keeps the best of.
const BENCH_OUT: &str = "results/BENCH_lint.json";
const BENCH_ITERS: u32 = 3;

/// Write to stdout without panicking when the reader has gone away
/// (`ripki-lint rules | head` closes the pipe mid-stream).
fn emit(text: &str) {
    let _ = std::io::stdout().write_all(text.as_bytes());
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => run_check(&args[1..]),
        Some("bench") => run_bench(&args[1..]),
        Some("rules") => {
            let mut text = format!("rule catalog v{CATALOG_VERSION}:\n");
            for rule in ALL_RULES {
                use std::fmt::Write as _;
                let _ = writeln!(
                    text,
                    "  {} {:<13} {}",
                    rule.code(),
                    rule.id(),
                    rule.summary()
                );
            }
            emit(&text);
            ExitCode::SUCCESS
        }
        Some("--help" | "-h") | None => {
            emit(USAGE);
            ExitCode::from(if args.is_empty() { 2 } else { 0 })
        }
        Some(other) => usage_error(&format!("unknown command `{other}`")),
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("ripki-lint: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn run_check(args: &[String]) -> ExitCode {
    let format = match args {
        [] => "text",
        [flag, value] if flag == "--format" && matches!(value.as_str(), "text" | "json") => value,
        _ => return usage_error("`check` takes only `--format text|json`"),
    };
    let report = match ripki_lint::check_workspace(Path::new(".")) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("ripki-lint: cannot scan the workspace: {e}");
            return ExitCode::from(2);
        }
    };
    match format {
        "json" => emit(&report.render_json()),
        _ => emit(&report.render_text()),
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Time the full two-phase workspace scan (lex + parse + link + every
/// rule) and write the bench JSON `scripts/bench_gate.py` gates on. The
/// scan repeats [`BENCH_ITERS`] times and keeps the best wall time: the
/// gate bounds the *tool's* cost, not the host's page-cache state.
fn run_bench(args: &[String]) -> ExitCode {
    if !args.is_empty() {
        return usage_error("`bench` takes no options");
    }
    let mut best_ms = f64::INFINITY;
    let mut files_scanned = 0usize;
    let mut violations = 0usize;
    for _ in 0..BENCH_ITERS {
        let start = Instant::now();
        let report = match ripki_lint::check_workspace(Path::new(".")) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("ripki-lint: cannot scan the workspace: {e}");
                return ExitCode::from(2);
            }
        };
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
        files_scanned = report.files_scanned;
        violations = report.violations.len();
    }

    let json = format!(
        "{{\"bench\":\"lint_workspace\",\"catalog_version\":{CATALOG_VERSION},\
         \"wall_ms\":{best_ms:.3},\"files_scanned\":{files_scanned},\
         \"violations\":{violations},\"iters\":{BENCH_ITERS}}}\n"
    );
    let _ = std::fs::create_dir_all("results");
    if let Err(e) = std::fs::write(BENCH_OUT, &json) {
        eprintln!("ripki-lint: cannot write {BENCH_OUT}: {e}");
        return ExitCode::from(2);
    }
    emit(&format!(
        "lint_workspace: {files_scanned} file(s) in {best_ms:.1} ms \
         (best of {BENCH_ITERS}) -> {BENCH_OUT}\n"
    ));
    ExitCode::SUCCESS
}
