//! # ripki-cli
//!
//! The command-line face of the workspace — what an operator or
//! researcher would actually run. Everything is file-based, using the
//! workspace's interchange formats (zone files, RIS-style table dumps,
//! RPKI archives), so worlds can be generated once and re-analysed many
//! times:
//!
//! ```text
//! ripki-cli generate --domains 20000 --seed 42 --out world/
//! ripki-cli validate --data world/
//! ripki-cli rov --data world/ 85.1.0.0/16 AS100
//! ripki-cli study --data world/ --bin 2000
//! ripki-cli rtr-serve --data world/ --listen 127.0.0.1:8282
//! ```
//!
//! The library exposes [`run`] so tests drive the exact code path the
//! binary uses, with output captured. This file is the dispatcher —
//! errors, usage text, flag parsing — and each command lives in the
//! module of its kind: `world` is the data-directory layout, `study`
//! the file-based commands (`generate`, `validate`, `rov`, `study`),
//! `origin` the commands that advance and serve an origin
//! (`longitudinal`, `serve`, `rtr-serve`) as shells over
//! `ripki_proxy::origin`, `fabric` the distribution-fabric commands
//! (`proxy`, `rtr-probe`), `whatif` the counterfactual runner, and
//! `signal` the SIGTERM/SIGINT wait every serving command ends in.

// R2 and R4 exempt the command-line crate: it prints, and it may read
// the wall clock.
#![allow(clippy::print_stdout, clippy::print_stderr, clippy::disallowed_methods)]

use std::fmt;
use std::io::Write;

mod fabric;
mod origin;
mod signal;
mod study;
mod whatif;
mod world;

/// CLI failures, each mapping to a non-zero exit.
#[derive(Debug)]
pub enum CliError {
    /// No or unknown subcommand.
    Usage(String),
    /// A flag was malformed or missing its value.
    BadFlag(String),
    /// Filesystem problem.
    Io(std::io::Error),
    /// A data file failed to parse.
    Data(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(s) => write!(f, "{s}\n\n{USAGE}"),
            CliError::BadFlag(s) => write!(f, "bad flag: {s}"),
            CliError::Io(e) => write!(f, "I/O error: {e}"),
            CliError::Data(s) => write!(f, "data error: {s}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError::Io(e)
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
ripki-cli — the RiPKI reproduction toolbox

USAGE:
  ripki-cli generate --out DIR [--domains N] [--seed S]
      build a synthetic world and write its data files
  ripki-cli validate --data DIR
      cryptographically validate the RPKI archive, print VRPs
  ripki-cli rov --data DIR PREFIX ASN
      RFC 6811 validation state of one announcement
  ripki-cli study --data DIR [--bin N]
      run the full four-step measurement from the data files
  ripki-cli rtr-serve --data DIR --listen ADDR
      validate, then serve the VRPs over RPKI-to-Router (RFC 6810)
  ripki-cli longitudinal [--domains N] [--seed S] [--epochs E]
                         [--churn-seed C] [--stride K] [--threads T]
                         [--slurm FILE]
      replay E epochs of world churn through the incremental engine
      and report validation outcome + hijack exposure over time
      (--threads 0 = auto-detect; the RIPKI_THREADS env var overrides)
  ripki-cli serve [--domains N] [--seed S] [--listen ADDR]
                  [--rtr-listen ADDR] [--epochs E] [--epoch-interval-ms MS]
                  [--churn-seed C] [--stride K] [--exit-after-churn BOOL]
                  [--slurm FILE] [--max-conns N] [--idle-timeout-ms MS]
      measure a synthetic world and serve it over the HTTP query plane
      (validity API, VRP exports, domain lookups, Prometheus metrics),
      optionally alongside an RTR cache, applying E churn epochs live;
      --slurm layers RFC 8416 local exceptions over every serving plane.
      The HTTP plane is a poll(2) event loop: --max-conns sets the
      connection watermark (LRA idle shedding beyond it) and
      --idle-timeout-ms drops silent keep-alive peers
  ripki-cli whatif [--domains N] [--seed S] [--stride K] [--bin B]
                   [--rov F] [--threads T] [--out FILE]
                   [--scenario SPEC]...
      run a ROV-deployment counterfactual: measure the baseline hijack
      exposure curve, compile the declarative scenario levers into one
      synthetic churn epoch, re-measure, and report capture-rate deltas
      per rank bin (CSV written to FILE). SPEC is one of
        cdn-signs:NAME         CDN NAME signs ROAs for all its prefixes
        top-k-drop-invalid:K   operators of the top-K ranks drop Invalids
        revoke-class:CLASS     revoke every ROA issued by operators of
                               CLASS (isp|webhoster|cdn|enterprise)
      with no --scenario the run reproduces the baseline exactly
  ripki-cli proxy --config FILE [--exit-after-drain BOOL]
      run a VRP distribution fabric (units → combinators → targets)
      declared in FILE; targets keep serving after finite units drain,
      until SIGTERM/ctrl-c stops the units and drains the targets
      (--exit-after-drain only returns for engine-rooted pipelines)
  ripki-cli rtr-probe --connect ADDR [--timeout-ms MS]
      sync once against an RTR cache and print its session, serial,
      and payload summary (epoch, VRP count, digest)
  ripki-cli help
      this text";

/// Tiny flag parser: `--key value` pairs plus positionals.
struct Flags {
    pairs: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, CliError> {
        let mut pairs = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| CliError::BadFlag(format!("--{key} needs a value")))?;
                pairs.push((key.to_string(), value.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Flags { pairs, positional })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every occurrence of a repeatable flag, in argument order
    /// (`--scenario a --scenario b`).
    fn get_all(&self, key: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::BadFlag(format!("--{key} {v}: cannot parse"))),
        }
    }

    fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError::BadFlag(format!("--{key} is required")))
    }
}

/// Dispatch a full argument vector (without the program name).
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage("no subcommand".into()));
    };
    let flags = Flags::parse(&args[1..])?;
    match command.as_str() {
        "generate" => study::cmd_generate(&flags, out),
        "validate" => study::cmd_validate(&flags, out),
        "rov" => study::cmd_rov(&flags, out),
        "study" => study::cmd_study(&flags, out),
        "rtr-serve" => origin::cmd_rtr_serve(&flags, out),
        "longitudinal" => origin::cmd_longitudinal(&flags, out),
        "whatif" => whatif::cmd_whatif(&flags, out),
        "serve" => origin::cmd_serve(&flags, out),
        "proxy" => fabric::cmd_proxy(&flags, out),
        "rtr-probe" => fabric::cmd_rtr_probe(&flags, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown subcommand {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A fresh directory path under the OS temp dir (not created).
    pub(crate) fn scratch() -> PathBuf {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ripki-cli-test-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Run one command in-process, returning its captured stdout.
    pub(crate) fn run_args(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(std::string::ToString::to_string).collect();
        let mut out = Vec::new();
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    /// [`run_args`] for a command that must succeed.
    pub(crate) fn run_ok(args: &[&str]) -> String {
        run_args(args).expect("command succeeds")
    }

    #[test]
    fn help_prints_usage() {
        let text = run_ok(&["help"]);
        assert!(text.contains("ripki-cli"));
        assert!(text.contains("generate"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(matches!(run_args(&["frobnicate"]), Err(CliError::Usage(_))));
        assert!(matches!(run_args(&[]), Err(CliError::Usage(_))));
    }

    #[test]
    fn flag_errors() {
        for args in [
            &["generate", "--out"][..],
            &["generate"],
            &["generate", "--out", "/tmp/x", "--domains", "many"],
        ] {
            assert!(matches!(run_args(args), Err(CliError::BadFlag(_))));
        }
    }
}
