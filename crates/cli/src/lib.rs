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
//! binary uses, with output captured.

use ripki::classify::HttpArchiveClassifier;
use ripki::engine::{EpochDelta, StudyEngine};
use ripki::exposure::{exposure_curve, ExposureConfig};
use ripki::figures;
use ripki::pipeline::PipelineConfig;
use ripki::report::HeadlineStats;
use ripki::tables;
use ripki_bgp::dump::TableDump;
use ripki_bgp::rov::{RouteOriginValidator, RpkiState};
use ripki_dns::DomainName;
use ripki_net::{Asn, IpPrefix};
use ripki_rpki::time::SimTime;
use ripki_rpki::validate;
use ripki_websim::churn::{ChurnConfig, ChurnStream};
use ripki_websim::{Scenario, ScenarioConfig};
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

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
        "generate" => cmd_generate(&flags, out),
        "validate" => cmd_validate(&flags, out),
        "rov" => cmd_rov(&flags, out),
        "study" => cmd_study(&flags, out),
        "rtr-serve" => cmd_rtr_serve(&flags, out),
        "longitudinal" => cmd_longitudinal(&flags, out),
        "whatif" => cmd_whatif(&flags, out),
        "serve" => cmd_serve(&flags, out),
        "proxy" => cmd_proxy(&flags, out),
        "rtr-probe" => cmd_rtr_probe(&flags, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown subcommand {other:?}"))),
    }
}

// ---- data directory layout -------------------------------------------------

fn ranking_path(dir: &Path) -> PathBuf {
    dir.join("ranking.txt")
}
fn zones_path(dir: &Path) -> PathBuf {
    dir.join("zones.zone")
}
fn table_path(dir: &Path) -> PathBuf {
    dir.join("table.dump")
}
fn rpki_path(dir: &Path) -> PathBuf {
    dir.join("rpki")
}
fn meta_path(dir: &Path) -> PathBuf {
    dir.join("meta.txt")
}

struct World {
    ranking: Vec<DomainName>,
    zones: ripki_dns::ZoneStore,
    rib: ripki_bgp::Rib,
    repository: ripki_rpki::Repository,
    now: SimTime,
}

fn load_world(dir: &Path) -> Result<World, CliError> {
    let ranking_text = std::fs::read_to_string(ranking_path(dir))?;
    let ranking: Result<Vec<DomainName>, _> = ranking_text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(DomainName::parse)
        .collect();
    let ranking = ranking.map_err(|e| CliError::Data(format!("ranking.txt: {e}")))?;
    let zones = ripki_dns::zonefile::parse(&std::fs::read_to_string(zones_path(dir))?)
        .map_err(|e| CliError::Data(format!("zones.zone: {e}")))?;
    let rib = TableDump::parse(&std::fs::read_to_string(table_path(dir))?)
        .map_err(|e| CliError::Data(format!("table.dump: {e}")))?;
    let repository = ripki_rpki::load_archive(&rpki_path(dir))
        .map_err(|e| CliError::Data(format!("rpki/: {e}")))?;
    Ok(World {
        ranking,
        zones,
        rib,
        repository,
        now: read_now(dir)?,
    })
}

/// The instant a data directory is validated at: the `now:` line of its
/// `meta.txt`. A directory without the file or the line is validated at
/// the start of the study; a value that is there but does not parse is
/// an error, never a silent fall-back to a different instant.
fn read_now(dir: &Path) -> Result<SimTime, CliError> {
    let path = meta_path(dir);
    let meta = std::fs::read_to_string(&path).unwrap_or_default();
    match meta.lines().find_map(|l| l.strip_prefix("now: ")) {
        None => Ok(SimTime::start_of_study()),
        Some(v) => v.trim().parse().map(SimTime).map_err(|_| {
            CliError::Data(format!(
                "{}: `now: {}` is not a number of seconds",
                path.display(),
                v.trim()
            ))
        }),
    }
}

// ---- subcommands -----------------------------------------------------------

fn cmd_generate(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let dir = PathBuf::from(flags.require("out")?);
    let domains: usize = flags.get_parsed("domains", 20_000)?;
    let seed: u64 = flags.get_parsed("seed", 42)?;
    writeln!(out, "generating world: {domains} domains, seed {seed}")?;
    let scenario = Scenario::build(ScenarioConfig {
        seed,
        ..ScenarioConfig::with_domains(domains)
    });

    std::fs::create_dir_all(&dir)?;
    let mut ranking_text = String::new();
    for name in &scenario.ranking {
        ranking_text.push_str(name.as_str());
        ranking_text.push('\n');
    }
    std::fs::write(ranking_path(&dir), ranking_text)?;

    // Export every name the resolver may touch: listed names, both
    // forms, their chains, and asset subdomains.
    let mut all_names: Vec<DomainName> = Vec::new();
    let resolver = ripki_dns::Resolver::new(&scenario.zones, ripki_dns::Vantage::GOOGLE_DNS_BERLIN);
    for listed in &scenario.ranking {
        let bare = listed.without_www();
        for form in [bare.clone(), bare.with_www()] {
            if let Ok(res) = resolver.resolve(&form) {
                all_names.push(form);
                all_names.extend(res.cname_chain);
            }
        }
        if let Ok(static_name) = DomainName::parse(&format!("static.{bare}")) {
            if let Ok(res) = resolver.resolve(&static_name) {
                all_names.push(static_name);
                all_names.extend(res.cname_chain);
            }
        }
    }
    let zone_text = ripki_dns::zonefile::export(&scenario.zones, &mut all_names.iter());
    std::fs::write(zones_path(&dir), zone_text)?;
    std::fs::write(table_path(&dir), TableDump::to_string(&scenario.rib))?;
    ripki_rpki::save_archive(&scenario.repository, &rpki_path(&dir))
        .map_err(|e| CliError::Data(e.to_string()))?;
    std::fs::write(
        meta_path(&dir),
        format!(
            "now: {}\nseed: {seed}\ndomains: {domains}\n",
            scenario.now.as_secs()
        ),
    )?;
    writeln!(
        out,
        "wrote {}: {} names, {} table entries, {} ROAs",
        dir.display(),
        scenario.ranking.len(),
        scenario.rib.len(),
        scenario.repository.roa_count(),
    )?;
    Ok(())
}

fn cmd_validate(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let dir = PathBuf::from(flags.require("data")?);
    let repository =
        ripki_rpki::load_archive(&rpki_path(&dir)).map_err(|e| CliError::Data(e.to_string()))?;
    let now = read_now(&dir)?;
    let report = validate(&repository, now);
    writeln!(
        out,
        "validated at T+{}s: {} accepted, {} rejected, {} VRPs",
        now.as_secs(),
        report.accepted_count(),
        report.rejected_count(),
        report.vrps.len(),
    )?;
    for vrp in &report.vrps {
        writeln!(out, "  {vrp}")?;
    }
    for event in report.rejections() {
        writeln!(
            out,
            "  REJECTED {} — {}",
            event.object,
            event.rejected.as_ref().expect("rejections() filters")
        )?;
    }
    Ok(())
}

fn build_validator(dir: &Path) -> Result<(RouteOriginValidator, SimTime), CliError> {
    let repository =
        ripki_rpki::load_archive(&rpki_path(dir)).map_err(|e| CliError::Data(e.to_string()))?;
    let now = read_now(dir)?;
    let report = validate(&repository, now);
    let validator = RouteOriginValidator::from_vrps(report.vrps.iter().copied());
    Ok((validator, now))
}

fn cmd_rov(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let dir = PathBuf::from(flags.require("data")?);
    if flags.positional.len() != 2 {
        return Err(CliError::Usage("rov needs PREFIX and ASN".into()));
    }
    let prefix: IpPrefix = flags.positional[0]
        .parse()
        .map_err(|e| CliError::Data(format!("prefix: {e}")))?;
    let asn: Asn = flags.positional[1]
        .parse()
        .map_err(|e| CliError::Data(format!("asn: {e}")))?;
    let (validator, _) = build_validator(&dir)?;
    writeln!(
        out,
        "{} from {} → {}",
        prefix,
        asn,
        validator.validate(&prefix, asn)
    )?;
    Ok(())
}

fn cmd_study(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let dir = PathBuf::from(flags.require("data")?);
    let world = load_world(&dir)?;
    let bin: usize = flags.get_parsed("bin", (world.ranking.len() / 10).max(1))?;
    let engine = StudyEngine::new(
        world.zones.clone(),
        world.rib.clone(),
        &world.repository,
        PipelineConfig {
            bogus_dns_ppm: 0,
            now: world.now,
            ..Default::default()
        },
    );
    let results = engine.run(&world.ranking);
    writeln!(out, "{}", HeadlineStats::compute(&results))?;

    let fig2 = figures::fig2_rpki_outcome(&results, bin);
    writeln!(out, "\nFigure 2 (valid % per {bin}-rank bin):")?;
    for (i, m) in fig2.valid.means.iter().enumerate() {
        if let Some(v) = m {
            writeln!(out, "  {:>8}  {:.3}%", i * bin, v * 100.0)?;
        }
    }
    let fig1 = figures::fig1_www_overlap(&results, bin);
    writeln!(
        out,
        "\nFigure 1 overall www/bare equality: {:.1}%",
        fig1.overall_mean().unwrap_or(0.0) * 100.0
    )?;
    // Fig 3 needs the CDN pattern table; infer patterns from the zone
    // data (names matching the simulated CDN namespace).
    let patterns: Vec<String> = ripki_websim::operators::CDN_SPECS
        .iter()
        .map(|(n, _, _)| format!("{}-sim.net", n.to_ascii_lowercase()))
        .collect();
    let classifier = HttpArchiveClassifier::new(&world.zones, patterns);
    let fig3 = figures::fig3_cdn_popularity(&results, &classifier, bin);
    writeln!(
        out,
        "Figure 3 overall CDN share: heuristic {:.1}%, HTTPArchive {:.1}%",
        fig3.cname_heuristic.overall_mean().unwrap_or(0.0) * 100.0,
        fig3.httparchive.overall_mean().unwrap_or(0.0) * 100.0
    )?;
    let fig4 = figures::fig4_rpki_on_cdns(&results, bin);
    writeln!(
        out,
        "Figure 4: RPKI-enabled {:.2}% overall vs {:.2}% on CDNs",
        fig4.rpki_enabled.overall_mean().unwrap_or(0.0) * 100.0,
        fig4.rpki_enabled_on_cdns.overall_mean().unwrap_or(0.0) * 100.0
    )?;
    let rows = tables::table1_top_covered(&results, 10);
    writeln!(out, "\n{}", tables::render_table1(&rows))?;
    Ok(())
}

fn cmd_rtr_serve(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let dir = PathBuf::from(flags.require("data")?);
    let listen = flags.require("listen")?;
    let world = load_world(&dir)?;
    // The engine validates the repository into an epoch-1 snapshot; the
    // RTR cache serves that snapshot's VRPs under the epoch as serial,
    // as every later `apply_events` epoch would be.
    let engine = StudyEngine::new(
        world.zones,
        world.rib,
        &world.repository,
        PipelineConfig {
            bogus_dns_ppm: 0,
            now: world.now,
            ..Default::default()
        },
    );
    let snapshot = engine.snapshot();
    let cache = std::sync::Arc::new(ripki_rtr::CacheServer::new(0x1715));
    cache.install_snapshot(snapshot.epoch() as u32, snapshot.vrps().iter().copied());
    let listener = std::net::TcpListener::bind(listen)?;
    writeln!(
        out,
        "RTR cache serving {} VRPs on {} (session {:#06x}); ctrl-c to stop",
        cache.vrp_count(),
        listener.local_addr()?,
        cache.session_id(),
    )?;
    out.flush()?;
    // The RTR session plane: one wake-driven loop for every router,
    // with a session watermark and pushed Serial Notify.
    let rtr_listener =
        ripki_rtr::RtrListener::spawn(listener, cache, ripki_rtr::ListenerConfig::default())?;
    wait_for_shutdown_signal();
    let open = rtr_listener.session_count();
    writeln!(out, "shutdown signal received; closing router sessions")?;
    stop_serving(None, Some(rtr_listener));
    writeln!(out, "closed {open} router sessions; exiting cleanly")?;
    Ok(())
}

/// The tail of every serving command: stop the HTTP plane first (its
/// graceful drain answers what is in flight), then the RTR session
/// loop, which closes the listener and every router session and joins
/// its thread.
fn stop_serving(server: Option<ripki_serve::Server>, rtr_listener: Option<ripki_rtr::RtrListener>) {
    if let Some(mut server) = server {
        server.shutdown();
    }
    if let Some(mut rtr_listener) = rtr_listener {
        rtr_listener.shutdown();
    }
}

/// Load and compile the `--slurm` exception file when the flag is
/// given, echoing its warnings (ignored BGPsec stanzas and the like).
fn load_exceptions(
    flags: &Flags,
    out: &mut dyn Write,
) -> Result<Option<ripki_slurm::ExceptionSet>, CliError> {
    let Some(path) = flags.get("slurm") else {
        return Ok(None);
    };
    let file =
        ripki_slurm::SlurmFile::load(Path::new(path)).map_err(|e| CliError::Data(e.to_string()))?;
    for warning in &file.warnings {
        writeln!(out, "slurm: warning: {warning}")?;
    }
    let exceptions = file.compile();
    writeln!(out, "slurm: loaded {path} ({exceptions})")?;
    Ok(Some(exceptions))
}

/// Engine epoch → RTR cache, spelled once: the epoch as a
/// `PayloadUpdate` (with the engine's exact delta when there is one)
/// goes through the exception layer — empty without `--slurm` — so
/// excepted VRPs never churn on the wire, and into the cache, which
/// streams the delta when it chains onto its serial and reinstalls the
/// snapshot otherwise. Returns the set the cache now serves.
fn install_epoch(
    engine: &StudyEngine,
    delta: Option<&EpochDelta>,
    slurm: &mut ripki_slurm::SlurmApplier,
    cache: &ripki_rtr::CacheServer,
) -> Result<ripki_payload::VrpPayload, CliError> {
    let update = ripki_proxy::units::epoch_update(&engine.snapshot(), delta);
    let applied = slurm.ingest(&update).ok_or_else(|| {
        CliError::Data(format!(
            "epoch {} does not advance the served set",
            update.epoch()
        ))
    })?;
    cache.install_update(&applied.update);
    Ok(applied.update.payload)
}

/// One row of the longitudinal report: aggregate validation outcome and
/// hijack exposure of the measured domains at one epoch.
fn longitudinal_row(
    scenario: &Scenario,
    results: &ripki::StudyResults,
    served: &ripki_payload::VrpPayload,
    exposure_cfg: &ExposureConfig,
) -> (f64, f64, f64) {
    let (mut valid, mut covered, mut total) = (0usize, 0usize, 0usize);
    for d in &results.domains {
        for p in d.bare.pairs.iter().chain(&d.www.pairs) {
            total += 1;
            if p.state == RpkiState::Valid {
                valid += 1;
            }
            if p.state != RpkiState::NotFound {
                covered += 1;
            }
        }
    }
    let share = |n: usize| {
        if total == 0 {
            0.0
        } else {
            n as f64 / total as f64
        }
    };
    let validator = RouteOriginValidator::from_vrps(served.vrps().iter().copied());
    let exposures = exposure_curve(
        &results.domains,
        &scenario.topology,
        &validator,
        exposure_cfg,
    );
    let capture = if exposures.is_empty() {
        0.0
    } else {
        exposures.iter().map(|e| e.capture_rate).sum::<f64>() / exposures.len() as f64
    };
    (share(valid), share(covered), capture)
}

fn cmd_longitudinal(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let domains: usize = flags.get_parsed("domains", 2_000)?;
    let seed: u64 = flags.get_parsed("seed", 42)?;
    let epochs: u64 = flags.get_parsed("epochs", 8)?;
    let churn_seed: u64 = flags.get_parsed("churn-seed", ChurnConfig::default().seed)?;
    let stride: usize = flags.get_parsed("stride", 50)?;
    let threads: usize = flags.get_parsed("threads", 0)?;
    writeln!(
        out,
        "longitudinal study: {domains} domains, seed {seed}, {epochs} epochs of churn"
    )?;
    let exceptions = load_exceptions(flags, out)?;

    let scenario = Scenario::build(ScenarioConfig {
        seed,
        ..ScenarioConfig::with_domains(domains)
    });
    let config = PipelineConfig {
        bogus_dns_ppm: 0,
        now: scenario.now,
        threads,
        ..Default::default()
    };
    // One line with the *effective* count (after the RIPKI_THREADS
    // override and auto-detection), so CI can grep that the knob took.
    writeln!(out, "worker threads: {}", config.worker_threads())?;
    let engine = StudyEngine::new(
        scenario.zones.clone(),
        scenario.rib.clone(),
        &scenario.repository,
        config,
    );
    let mut results = engine.run(&scenario.ranking);

    // The RTR cache shadows the engine: the initial snapshot is
    // installed once, then each `EpochDelta`'s announce/withdraw sets
    // stream in as a delta under the epoch as serial — the same
    // incremental path a router sees, not a full reinstall.
    let cache = ripki_rtr::CacheServer::new(0x1715);
    let mut slurm = ripki_slurm::SlurmApplier::new(exceptions.unwrap_or_default());
    let served = install_epoch(&engine, None, &mut slurm, &cache)?;
    let exposure_cfg = ExposureConfig {
        stride: stride.max(1),
        ..Default::default()
    };

    writeln!(
        out,
        "{:>5} {:>7} {:>6} {:>5} {:>5} {:>6} {:>7} {:>7} {:>9}",
        "epoch", "events", "remeas", "+vrp", "-vrp", "vrps", "valid%", "cover%", "capture%"
    )?;
    let print_row = |out: &mut dyn Write,
                     results: &ripki::StudyResults,
                     served: &ripki_payload::VrpPayload,
                     events: usize,
                     remeasured: usize,
                     announced: usize,
                     withdrawn: usize|
     -> Result<(), CliError> {
        let (valid, covered, capture) = longitudinal_row(&scenario, results, served, &exposure_cfg);
        writeln!(
            out,
            "{:>5} {:>7} {:>6} {:>5} {:>5} {:>6} {:>6.1}% {:>6.1}% {:>8.1}%",
            results.epoch,
            events,
            remeasured,
            announced,
            withdrawn,
            served.len(),
            valid * 100.0,
            covered * 100.0,
            capture * 100.0,
        )?;
        Ok(())
    };
    print_row(out, &results, &served, 0, results.domains.len(), 0, 0)?;

    let mut stream = ChurnStream::new(
        &scenario,
        ChurnConfig {
            seed: churn_seed,
            ..ChurnConfig::default()
        },
    );
    let mut inc_objects = 0usize;
    let mut inc_reused = 0usize;
    let mut inc_points = 0usize;
    let mut inc_epochs = 0usize;
    for _ in 0..epochs {
        let batch = stream.next_epoch();
        let events = batch.events.len();
        let delta = engine.apply_events(&batch, &mut results);
        if let Some(stats) = delta.rpki_stats {
            if stats.full_pass_avoided() {
                inc_objects += stats.objects_validated;
                inc_reused += stats.points_reused;
                inc_points += stats.points_total;
                inc_epochs += 1;
            }
        }
        let served = install_epoch(&engine, Some(&delta), &mut slurm, &cache)?;
        print_row(
            out,
            &results,
            &served,
            events,
            delta.domains_remeasured,
            delta.announced.len(),
            delta.withdrawn.len(),
        )?;
    }
    if inc_epochs > 0 {
        writeln!(
            out,
            "validated {inc_objects} objects incrementally (full pass avoided; \
             {inc_reused}/{inc_points} publication-point validations reused \
             across {inc_epochs} epochs)",
        )?;
    }
    writeln!(
        out,
        "final epoch {}, RTR serial {}, {} VRPs cached",
        engine.epoch(),
        cache.serial(),
        cache.vrp_count(),
    )?;
    Ok(())
}

fn cmd_serve(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    use ripki_serve::{EpochView, Server, ServerConfig, SharedView};
    use std::sync::Arc;

    let domains: usize = flags.get_parsed("domains", 1_000)?;
    let seed: u64 = flags.get_parsed("seed", 42)?;
    let listen = flags.get("listen").unwrap_or("127.0.0.1:8080");
    let epochs: u64 = flags.get_parsed("epochs", 0)?;
    let interval_ms: u64 = flags.get_parsed("epoch-interval-ms", 1_000)?;
    let churn_seed: u64 = flags.get_parsed("churn-seed", ChurnConfig::default().seed)?;
    let stride: usize = flags.get_parsed("stride", 50)?;
    let exit_after_churn: bool = flags.get_parsed("exit-after-churn", false)?;

    // Event-loop tunables; everything else is `ServerConfig::default()`.
    let defaults = ServerConfig::default();
    let max_conns: usize = flags.get_parsed("max-conns", defaults.max_connections)?;
    let idle_timeout_ms: u64 =
        flags.get_parsed("idle-timeout-ms", defaults.read_timeout.as_millis() as u64)?;
    let server_config = ServerConfig {
        read_timeout: std::time::Duration::from_millis(idle_timeout_ms.max(1)),
        max_connections: max_conns.max(1),
        ..defaults
    };

    writeln!(out, "measuring world: {domains} domains, seed {seed}")?;
    let exceptions = load_exceptions(flags, out)?;
    let scenario = Scenario::build(ScenarioConfig {
        seed,
        ..ScenarioConfig::with_domains(domains)
    });
    let engine = StudyEngine::new(
        scenario.zones.clone(),
        scenario.rib.clone(),
        &scenario.repository,
        PipelineConfig {
            bogus_dns_ppm: 0,
            now: scenario.now,
            ..Default::default()
        },
    );
    let mut results = engine.run(&scenario.ranking);
    let topology = Arc::new(scenario.topology.clone());
    let exposure_cfg = ExposureConfig {
        stride: stride.max(1),
        ..Default::default()
    };
    let make_view = |snapshot, results: &ripki::StudyResults| {
        let view = EpochView::new(
            snapshot,
            Arc::new(results.clone()),
            Some(Arc::clone(&topology)),
            exposure_cfg.clone(),
        );
        match &exceptions {
            Some(x) => view.with_exceptions(x),
            None => view,
        }
    };

    let shared = Arc::new(SharedView::new(make_view(engine.snapshot(), &results)));
    let server = Server::start(listen, Arc::clone(&shared), server_config)?;
    writeln!(
        out,
        "HTTP query plane on http://{} — epoch {}, {} VRPs, {} domains",
        server.addr(),
        engine.epoch(),
        shared.current().payload().len(),
        results.domains.len(),
    )?;

    // Optional RTR cache side by side, fed by the same delta stream
    // (exception-layered like every other serving plane).
    let mut slurm = ripki_slurm::SlurmApplier::new(exceptions.clone().unwrap_or_default());
    let rtr_cache = match flags.get("rtr-listen") {
        Some(rtr_listen) => {
            let cache = Arc::new(ripki_rtr::CacheServer::new(0x1715));
            install_epoch(&engine, None, &mut slurm, &cache)?;
            let listener = std::net::TcpListener::bind(rtr_listen)?;
            writeln!(
                out,
                "RTR cache on {} (session {:#06x}, serial {})",
                listener.local_addr()?,
                cache.session_id(),
                cache.serial(),
            )?;
            // The RTR session plane, beside the HTTP reactor: one loop
            // for every router, woken by each install into `cache`.
            let rtr_listener = ripki_rtr::RtrListener::spawn(
                listener,
                Arc::clone(&cache),
                ripki_rtr::ListenerConfig::default(),
            )?;
            Some((cache, rtr_listener))
        }
        None => None,
    };

    if epochs > 0 {
        let mut stream = ChurnStream::new(
            &scenario,
            ChurnConfig {
                seed: churn_seed,
                ..ChurnConfig::default()
            },
        );
        for _ in 0..epochs {
            std::thread::sleep(std::time::Duration::from_millis(interval_ms));
            let batch = stream.next_epoch();
            let events = batch.events.len();
            let delta = engine.apply_events(&batch, &mut results);
            // The epoch exists the moment the engine commits it; the
            // announcement lets `/status` report lag until its view is
            // published. The results half of that view is a pointer
            // copy; the payload and any exception layer are still
            // rebuilt from the whole VRP set.
            shared.announce_epoch(delta.to_epoch);
            // HTTP views and RTR serials advance in lockstep with the
            // engine's epoch — the serving plane's consistency contract.
            shared.publish(make_view(engine.snapshot(), &results));
            if let Some((cache, _)) = &rtr_cache {
                install_epoch(&engine, Some(&delta), &mut slurm, cache)?;
            }
            writeln!(
                out,
                "epoch {}: {events} events, {} domains re-measured, +{} -{} VRPs",
                delta.to_epoch,
                delta.domains_remeasured,
                delta.announced.len(),
                delta.withdrawn.len(),
            )?;
        }
    }

    if !exit_after_churn {
        writeln!(out, "serving; ctrl-c to stop")?;
        out.flush()?;
        wait_for_shutdown_signal();
        writeln!(out, "shutdown signal received; draining in-flight requests")?;
    }
    stop_serving(Some(server), rtr_cache.map(|(_, listener)| listener));
    if exit_after_churn {
        writeln!(out, "exiting after churn (epoch {})", engine.epoch())?;
    } else {
        writeln!(out, "drained; exiting cleanly")?;
    }
    Ok(())
}

/// Park the calling thread until SIGTERM or SIGINT arrives. The handler
/// performs a single atomic store — async-signal-safe — so `serve` can
/// drain its event loop on shutdown instead of dying mid-response.
#[cfg(unix)]
fn wait_for_shutdown_signal() {
    use std::os::raw::c_int;
    use std::sync::atomic::{AtomicBool, Ordering};
    static REQUESTED: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_signal(_signum: c_int) {
        // Release: pairs with the Acquire load in the wait loop, so the
        // waiter observes everything sequenced before the signal.
        REQUESTED.store(true, Ordering::Release);
    }
    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;
    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
    }
    // SAFETY: the handler only performs an atomic store (async-signal-
    // safe), and the function pointer lives for the whole process.
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
    // Acquire: pairs with the Release store in the signal handler.
    while !REQUESTED.load(Ordering::Acquire) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

#[cfg(not(unix))]
fn wait_for_shutdown_signal() {
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_proxy(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let path = PathBuf::from(flags.require("config")?);
    let exit_after_drain: bool = flags.get_parsed("exit-after-drain", false)?;
    let text = std::fs::read_to_string(&path)?;
    writeln!(out, "starting distribution fabric from {}", path.display())?;
    out.flush()?;
    // Fabric threads outlive this call's borrow of `out`, so the fabric
    // logs straight to stdout — in the binary that is the same stream,
    // and the multi-process chain test (and CI smoke) greps those lines.
    let log = ripki_proxy::Log::to(Box::new(std::io::stdout()));
    let mut manager =
        ripki_proxy::Manager::from_toml(&text, &log).map_err(|e| CliError::Data(e.to_string()))?;
    if exit_after_drain {
        manager.drain();
        manager.shutdown();
        writeln!(out, "fabric drained; exiting")?;
        return Ok(());
    }
    // An `rtr`/`json`-rooted pipeline never drains on its own, so the
    // serving form does not wait for that: it waits for the signal.
    writeln!(out, "fabric running; ctrl-c to stop")?;
    out.flush()?;
    wait_for_shutdown_signal();
    writeln!(out, "shutdown signal received; stopping units and targets")?;
    manager.shutdown();
    writeln!(out, "fabric stopped; exiting cleanly")?;
    Ok(())
}

fn cmd_rtr_probe(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let addr = flags.require("connect")?;
    let timeout_ms: u64 = flags.get_parsed("timeout-ms", 3_000)?;
    let stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_millis(timeout_ms)))?;
    let mut client = ripki_rtr::Client::new(stream);
    client
        .sync()
        .map_err(|e| CliError::Data(format!("rtr sync against {addr} failed: {e}")))?;
    let (session, serial) = client
        .state()
        .ok_or_else(|| CliError::Data(format!("cache at {addr} sent no data")))?;
    let payload = client
        .payload()
        .ok_or_else(|| CliError::Data(format!("cache at {addr} sent no data")))?;
    writeln!(
        out,
        "rtr-probe {addr}: session {session:#06x} serial {serial} in lockstep with {payload}",
    )?;
    Ok(())
}

// ---- counterfactual scenario runner ----------------------------------------

/// A declarative counterfactual lever, parsed from `--scenario`.
enum WhatIf {
    /// CDN `name` signs ROAs for every prefix it announces.
    CdnSigns(String),
    /// Operators hosting the top-`k` ranks deploy ROV (drop Invalids).
    TopKDropInvalid(usize),
    /// Every ROA issued by operators of this class is revoked.
    RevokeClass(ripki_websim::operators::OperatorClass),
}

fn parse_whatif(spec: &str) -> Result<WhatIf, CliError> {
    use ripki_websim::operators::OperatorClass;
    let bad = |why: &str| CliError::BadFlag(format!("--scenario {spec}: {why}"));
    let (kind, arg) = spec
        .split_once(':')
        .ok_or_else(|| bad("expected KIND:ARG"))?;
    match kind {
        "cdn-signs" => Ok(WhatIf::CdnSigns(arg.to_string())),
        "top-k-drop-invalid" => {
            let k: usize = arg.parse().map_err(|_| bad("K must be a number"))?;
            Ok(WhatIf::TopKDropInvalid(k))
        }
        "revoke-class" => {
            let class = match arg.to_ascii_lowercase().as_str() {
                "isp" => OperatorClass::Isp,
                "webhoster" => OperatorClass::Webhoster,
                "cdn" => OperatorClass::Cdn,
                "enterprise" => OperatorClass::Enterprise,
                _ => return Err(bad("class must be isp|webhoster|cdn|enterprise")),
            };
            Ok(WhatIf::RevokeClass(class))
        }
        _ => Err(bad(
            "kind must be cdn-signs|top-k-drop-invalid|revoke-class",
        )),
    }
}

/// The scenario levers compiled against one built world: a synthetic
/// churn epoch (events + evolved repository) plus exposure-side knobs.
struct CompiledWhatIf {
    events: Vec<ripki_websim::churn::WorldEvent>,
    repository: Option<std::sync::Arc<ripki_rpki::Repository>>,
    extra_deployers: Vec<Asn>,
}

fn compile_whatif(
    specs: &[WhatIf],
    scenario: &Scenario,
    results: &ripki::StudyResults,
    out: &mut dyn Write,
) -> Result<CompiledWhatIf, CliError> {
    use ripki_websim::churn::WorldEvent;
    use ripki_websim::operators::OperatorClass;
    use std::collections::{BTreeSet, HashMap};

    let mut events = Vec::new();
    let mut extra: BTreeSet<Asn> = BTreeSet::new();
    // RPKI levers evolve the still-open deterministic issuing program
    // that produced `scenario.repository`: untouched CAs re-issue
    // byte-identically, so the engine's incremental validator sees only
    // the counterfactual's own additions/revocations as the delta.
    let mut builder: Option<ripki_rpki::RepositoryBuilder> = None;

    for spec in specs {
        match spec {
            WhatIf::CdnSigns(name) => {
                let (idx, op) = scenario
                    .operators
                    .iter()
                    .enumerate()
                    .find(|(_, op)| {
                        op.class == OperatorClass::Cdn && op.name.eq_ignore_ascii_case(name)
                    })
                    .ok_or_else(|| {
                        CliError::BadFlag(format!("--scenario cdn-signs:{name}: unknown CDN"))
                    })?;
                let b = builder.get_or_insert_with(|| scenario.issuing_builder().0);
                let ca_name = format!("{}-{}", op.name, idx);
                let err = |e: ripki_rpki::repo::BuildError| {
                    CliError::Data(format!("cdn-signs:{name}: {e}"))
                };
                let ca = match b.find_ca(&ca_name) {
                    Some(ca) => ca,
                    None => {
                        let ta = b
                            .find_ca(ripki_websim::allocation::RIR_NAMES[op.rir])
                            .expect("the issuing program created all five RIR trust anchors");
                        let resources = ripki_rpki::Resources {
                            prefixes: ripki_net::PrefixSet::from_prefixes(
                                scenario
                                    .holdings
                                    .iter()
                                    .filter(|h| h.operator == idx)
                                    .map(|h| h.prefix),
                            ),
                            ..Default::default()
                        };
                        b.add_ca(ta, &ca_name, resources).map_err(err)?
                    }
                };
                let mut signed = 0usize;
                for h in scenario.holdings.iter().filter(|h| h.operator == idx) {
                    b.add_roa(
                        ca,
                        h.asn,
                        vec![ripki_rpki::RoaPrefix::up_to(h.prefix, h.deepest_announced)],
                    )
                    .map_err(err)?;
                    events.push(WorldEvent::RoaAdded {
                        prefix: h.prefix,
                        asn: h.asn,
                    });
                    signed += 1;
                }
                writeln!(
                    out,
                    "lever: CDN {} signs ROAs for {signed} prefixes",
                    op.name
                )?;
            }
            WhatIf::TopKDropInvalid(k) => {
                let owner: HashMap<Asn, usize> = scenario
                    .holdings
                    .iter()
                    .map(|h| (h.asn, h.operator))
                    .collect();
                let mut ops: BTreeSet<usize> = BTreeSet::new();
                let mut asns: BTreeSet<Asn> = BTreeSet::new();
                for d in results.domains.iter().filter(|d| d.rank < *k) {
                    for p in d.bare.pairs.iter().chain(&d.www.pairs) {
                        match owner.get(&p.origin) {
                            // The whole operator flips the knob, not
                            // just the one AS a domain happened to hit.
                            Some(op) => {
                                ops.insert(*op);
                            }
                            None => {
                                asns.insert(p.origin);
                            }
                        }
                    }
                }
                for op in &ops {
                    asns.extend(scenario.operators[*op].asns.iter().copied());
                }
                writeln!(
                    out,
                    "lever: operators of the top-{k} ranks drop Invalids \
                     ({} operators, {} ASes)",
                    ops.len(),
                    asns.len(),
                )?;
                extra.extend(asns);
            }
            WhatIf::RevokeClass(class) => {
                let b = builder.get_or_insert_with(|| scenario.issuing_builder().0);
                let mut revoked = 0usize;
                for (idx, op) in scenario
                    .operators
                    .iter()
                    .enumerate()
                    .filter(|(_, op)| op.class == *class)
                {
                    let Some(ca) = b.find_ca(&format!("{}-{}", op.name, idx)) else {
                        continue; // never adopted: nothing to revoke
                    };
                    for (ca_id, serial, _) in b.list_roas() {
                        if ca_id == ca {
                            b.revoke(ca, serial).map_err(|e| {
                                CliError::Data(format!("revoke-class:{class}: {e}"))
                            })?;
                            revoked += 1;
                        }
                    }
                    for h in scenario.holdings.iter().filter(|h| h.operator == idx) {
                        events.push(WorldEvent::RoaRevoked {
                            prefix: h.prefix,
                            asn: h.asn,
                        });
                    }
                }
                writeln!(out, "lever: revoke {class} ROAs ({revoked} revoked)")?;
            }
        }
    }
    let repository = builder.map(|mut b| std::sync::Arc::new(b.snapshot()));
    Ok(CompiledWhatIf {
        events,
        repository,
        extra_deployers: extra.into_iter().collect(),
    })
}

fn cmd_whatif(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    use ripki::exposure::binned;
    use ripki_websim::churn::EpochChurn;

    let domains: usize = flags.get_parsed("domains", 2_000)?;
    let seed: u64 = flags.get_parsed("seed", 42)?;
    let stride: usize = flags.get_parsed("stride", 25)?;
    let threads: usize = flags.get_parsed("threads", 0)?;
    let rov: f64 = flags.get_parsed("rov", ExposureConfig::default().rov_deployment)?;
    let bin: usize = flags.get_parsed("bin", domains.div_ceil(10).max(1))?;
    let out_path = PathBuf::from(
        flags
            .get("out")
            .map_or_else(|| format!("results/whatif_{domains}.csv"), String::from),
    );
    let specs: Vec<WhatIf> = flags
        .get_all("scenario")
        .into_iter()
        .map(parse_whatif)
        .collect::<Result<_, _>>()?;

    writeln!(
        out,
        "what-if study: {domains} domains, seed {seed}, {} scenario lever(s)",
        specs.len()
    )?;
    let scenario = Scenario::build(ScenarioConfig {
        seed,
        ..ScenarioConfig::with_domains(domains)
    });
    let engine = StudyEngine::new(
        scenario.zones.clone(),
        scenario.rib.clone(),
        &scenario.repository,
        PipelineConfig {
            bogus_dns_ppm: 0,
            now: scenario.now,
            threads,
            ..Default::default()
        },
    );
    let mut results = engine.run(&scenario.ranking);

    let exposure_cfg = ExposureConfig {
        rov_deployment: rov,
        stride: stride.max(1),
        ..Default::default()
    };
    let baseline_snapshot = engine.snapshot();
    let baseline = exposure_curve(
        &results.domains,
        &scenario.topology,
        baseline_snapshot.validator(),
        &exposure_cfg,
    );
    writeln!(
        out,
        "baseline: epoch {}, {} VRPs, {} domains sampled for exposure",
        baseline_snapshot.epoch(),
        baseline_snapshot.vrp_count(),
        baseline.len(),
    )?;

    let compiled = compile_whatif(&specs, &scenario, &results, out)?;
    if compiled.repository.is_some() {
        // One synthetic churn epoch carries the whole counterfactual
        // through the same incremental path real churn takes — no
        // engine rebuild, no full revalidation.
        let batch = EpochChurn {
            events: compiled.events,
            repository: compiled.repository,
            now: scenario.now,
        };
        let delta = engine.apply_events(&batch, &mut results);
        writeln!(
            out,
            "counterfactual epoch {} -> {}: +{} -{} VRPs, {} domains re-measured",
            delta.from_epoch,
            delta.to_epoch,
            delta.announced.len(),
            delta.withdrawn.len(),
            delta.domains_remeasured,
        )?;
    }
    let counter_cfg = ExposureConfig {
        extra_deployers: compiled.extra_deployers,
        ..exposure_cfg
    };
    let counter_snapshot = engine.snapshot();
    let counterfactual = exposure_curve(
        &results.domains,
        &scenario.topology,
        counter_snapshot.validator(),
        &counter_cfg,
    );

    let base_bins = binned(&baseline, domains, bin);
    let cf_bins = binned(&counterfactual, domains, bin);
    writeln!(
        out,
        "{:>14} {:>10} {:>10} {:>9}",
        "rank_bin_start", "baseline", "whatif", "delta"
    )?;
    let mut csv = String::from("rank_bin_start,baseline_capture,whatif_capture,delta\n");
    for (i, (b, c)) in base_bins.means.iter().zip(&cf_bins.means).enumerate() {
        let start = i * bin;
        let (Some(b), Some(c)) = (b, c) else {
            writeln!(out, "{start:>14} {:>10} {:>10} {:>9}", "-", "-", "-")?;
            continue;
        };
        writeln!(out, "{start:>14} {b:>10.6} {c:>10.6} {:>+9.6}", c - b)?;
        csv.push_str(&format!("{start},{b:.6},{c:.6},{:.6}\n", c - b));
    }
    if let (Some(b), Some(c)) = (
        base_bins.means.first().copied().flatten(),
        cf_bins.means.first().copied().flatten(),
    ) {
        writeln!(
            out,
            "top-bin capture: baseline {b:.6} -> whatif {c:.6} (delta {:+.6})",
            c - b
        )?;
    }
    if let (Some(b), Some(c)) = (base_bins.overall_mean(), cf_bins.overall_mean()) {
        writeln!(out, "exposure delta (overall): {:+.6}", c - b)?;
    }
    if let Some(parent) = out_path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(&out_path, csv)?;
    writeln!(out, "wrote {}", out_path.display())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripki_bgp::rov::VrpTriple;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn scratch() -> PathBuf {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ripki-cli-test-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn run_ok(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(std::string::ToString::to_string).collect();
        let mut out = Vec::new();
        run(&args, &mut out).expect("command succeeds");
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn help_prints_usage() {
        let text = run_ok(&["help"]);
        assert!(text.contains("ripki-cli"));
        assert!(text.contains("generate"));
    }

    #[test]
    fn unknown_command_errors() {
        let args = vec!["frobnicate".to_string()];
        let mut out = Vec::new();
        assert!(matches!(run(&args, &mut out), Err(CliError::Usage(_))));
        let mut out = Vec::new();
        assert!(matches!(run(&[], &mut out), Err(CliError::Usage(_))));
    }

    #[test]
    fn flag_errors() {
        let mut out = Vec::new();
        let args: Vec<String> = ["generate", "--out"]
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        assert!(matches!(run(&args, &mut out), Err(CliError::BadFlag(_))));
        let args: Vec<String> = ["generate"]
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        assert!(matches!(run(&args, &mut out), Err(CliError::BadFlag(_))));
        let args: Vec<String> = ["generate", "--out", "/tmp/x", "--domains", "many"]
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        assert!(matches!(run(&args, &mut out), Err(CliError::BadFlag(_))));
    }

    #[test]
    fn meta_now_defaults_when_absent_and_errors_when_unparsable() {
        let dir = scratch();
        std::fs::create_dir_all(&dir).unwrap();
        // No meta.txt, and a meta.txt without the line: the default.
        assert_eq!(read_now(&dir).unwrap(), SimTime::start_of_study());
        std::fs::write(meta_path(&dir), "seed: 42\n").unwrap();
        assert_eq!(read_now(&dir).unwrap(), SimTime::start_of_study());
        std::fs::write(meta_path(&dir), "now: 1234 \nseed: 42\n").unwrap();
        assert_eq!(read_now(&dir).unwrap(), SimTime(1234));
        // A typo is an error naming the file, not a different instant.
        std::fs::write(meta_path(&dir), "now: 12x\nseed: 42\n").unwrap();
        let err = read_now(&dir).unwrap_err();
        assert!(matches!(err, CliError::Data(_)), "{err}");
        let text = err.to_string();
        assert!(text.contains("meta.txt") && text.contains("12x"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generate_validate_rov_study_end_to_end() {
        let dir = scratch();
        let dir_s = dir.to_str().unwrap();
        let text = run_ok(&[
            "generate",
            "--out",
            dir_s,
            "--domains",
            "1500",
            "--seed",
            "7",
        ]);
        assert!(text.contains("wrote"));
        assert!(dir.join("ranking.txt").is_file());
        assert!(dir.join("zones.zone").is_file());
        assert!(dir.join("table.dump").is_file());
        assert!(dir.join("rpki/tals").is_dir());

        let text = run_ok(&["validate", "--data", dir_s]);
        assert!(text.contains("0 rejected"), "{text}");
        assert!(text.contains("VRPs"));

        // Pick a VRP line and check `rov` agrees it is valid.
        let vrp_line = text
            .lines()
            .find(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
            .expect("some VRP printed");
        // Format: "  <prefix>-<ml> => AS<asn>"
        let parts: Vec<&str> = vrp_line.trim().split(" => ").collect();
        let prefix = parts[0].rsplit_once('-').unwrap().0;
        let asn = parts[1];
        let text = run_ok(&["rov", "--data", dir_s, prefix, asn]);
        assert!(text.contains("valid"), "{text}");
        let text = run_ok(&["rov", "--data", dir_s, prefix, "AS4294000000"]);
        assert!(text.contains("invalid"), "{text}");
        let text = run_ok(&["rov", "--data", dir_s, "198.51.100.0/24", "AS1"]);
        assert!(text.contains("not found"), "{text}");

        let text = run_ok(&["study", "--data", dir_s, "--bin", "300"]);
        assert!(text.contains("Figure 2"));
        assert!(text.contains("Figure 4"));
        assert!(text.contains("domains measured:          1500"));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn longitudinal_replays_churn_epochs() {
        let text = run_ok(&[
            "longitudinal",
            "--domains",
            "300",
            "--seed",
            "5",
            "--epochs",
            "3",
            "--stride",
            "25",
            "--threads",
            "2",
        ]);
        assert!(text.contains("3 epochs of churn"), "{text}");
        // The effective worker count is logged (RIPKI_THREADS, when set
        // by CI's thread matrix, overrides the flag — compute the same
        // answer the engine will).
        let effective = PipelineConfig {
            threads: 2,
            ..Default::default()
        }
        .worker_threads();
        assert!(
            text.contains(&format!("worker threads: {effective}")),
            "{text}"
        );
        // Initial epoch-1 row plus one row per churn epoch.
        assert!(text.contains("epoch"), "{text}");
        let rows: Vec<&str> = text
            .lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
            .collect();
        assert_eq!(rows.len(), 4, "{text}");
        // Epoch == RTR serial all the way through.
        assert!(text.contains("final epoch 4, RTR serial 4"), "{text}");
        // RPKI epochs went through the incremental path, not full passes.
        assert!(
            text.contains("objects incrementally (full pass avoided"),
            "{text}"
        );
    }

    #[test]
    fn serve_runs_http_and_rtr_side_by_side() {
        use std::io::Read as _;
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let mut thread_buf = buf.clone();
        let handle = std::thread::spawn(move || {
            let args: Vec<String> = [
                "serve",
                "--domains",
                "200",
                "--seed",
                "3",
                "--listen",
                "127.0.0.1:0",
                "--rtr-listen",
                "127.0.0.1:0",
                "--epochs",
                "2",
                "--epoch-interval-ms",
                "400",
                "--exit-after-churn",
                "true",
            ]
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
            run(&args, &mut thread_buf)
        });

        // Wait for both listeners to announce their bound addresses.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let (http_addr, rtr_addr) = loop {
            assert!(std::time::Instant::now() < deadline, "serve never started");
            let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
            let http = text
                .lines()
                .find_map(|l| l.split_once("http://").map(|(_, r)| r))
                .and_then(|r| r.split_whitespace().next().map(str::to_string));
            let rtr = text
                .lines()
                .find(|l| l.starts_with("RTR cache on "))
                .and_then(|l| l.split_whitespace().nth(3).map(str::to_string));
            match (http, rtr) {
                (Some(h), Some(r)) => break (h, r),
                _ => std::thread::sleep(std::time::Duration::from_millis(20)),
            }
        };

        // The HTTP plane answers while churn epochs apply.
        let mut stream = std::net::TcpStream::connect(&http_addr).unwrap();
        stream
            .write_all(b"GET /status HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(response.contains("\"epoch\""), "{response}");

        // The RTR cache serves the same world to a router client.
        let conn = std::net::TcpStream::connect(&rtr_addr).unwrap();
        let mut client = ripki_rtr::Client::new(conn);
        client.sync().expect("RTR sync");
        assert!(!client.vrps().is_empty());

        handle.join().unwrap().expect("serve exits cleanly");
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("epoch 2:"), "{text}");
        assert!(text.contains("epoch 3:"), "{text}");
        assert!(text.contains("exiting after churn (epoch 3)"), "{text}");
    }

    #[test]
    fn serve_applies_slurm_exceptions_across_planes() {
        use std::io::Read as _;
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        // Pick a real VRP out of the same world `serve` will build, so
        // the SLURM file can filter something that actually exists.
        let scenario = Scenario::build(ScenarioConfig {
            seed: 3,
            ..ScenarioConfig::with_domains(200)
        });
        let report = validate(&scenario.repository, scenario.now);
        let victim = *report.vrps.first().expect("world has VRPs");
        let dir = scratch();
        std::fs::create_dir_all(&dir).unwrap();
        let slurm_path = dir.join("exceptions.json");
        std::fs::write(
            &slurm_path,
            format!(
                r#"{{
                    "slurmVersion": 1,
                    "validationOutputFilters": {{
                        "prefixFilters": [{{ "prefix": "{}", "asn": "{}" }}]
                    }},
                    "locallyAddedAssertions": {{
                        "prefixAssertions": [{{ "prefix": "198.51.100.0/24", "asn": 64496 }}]
                    }}
                }}"#,
                victim.prefix, victim.asn,
            ),
        )
        .unwrap();

        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let mut thread_buf = buf.clone();
        let slurm_arg = slurm_path.to_str().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let args: Vec<String> = [
                "serve",
                "--domains",
                "200",
                "--seed",
                "3",
                "--listen",
                "127.0.0.1:0",
                "--rtr-listen",
                "127.0.0.1:0",
                "--epochs",
                "2",
                "--epoch-interval-ms",
                "700",
                "--exit-after-churn",
                "true",
                "--slurm",
                &slurm_arg,
            ]
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
            run(&args, &mut thread_buf)
        });

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let (http_addr, rtr_addr) = loop {
            assert!(std::time::Instant::now() < deadline, "serve never started");
            let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
            let http = text
                .lines()
                .find_map(|l| l.split_once("http://").map(|(_, r)| r))
                .and_then(|r| r.split_whitespace().next().map(str::to_string));
            let rtr = text
                .lines()
                .find(|l| l.starts_with("RTR cache on "))
                .and_then(|l| l.split_whitespace().nth(3).map(str::to_string));
            match (http, rtr) {
                (Some(h), Some(r)) => break (h, r),
                _ => std::thread::sleep(std::time::Duration::from_millis(20)),
            }
        };

        let get = |path: &str| -> String {
            let mut stream = std::net::TcpStream::connect(&http_addr).unwrap();
            stream
                .write_all(
                    format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
                        .as_bytes(),
                )
                .unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response
        };

        // The JSON export serves the excepted set: asserted VRP in,
        // filtered VRP out.
        let export = get("/vrps.json");
        assert!(export.contains("198.51.100.0/24"), "{export}");
        assert!(
            !export.contains(&victim.prefix.to_string()),
            "filtered VRP still exported: {}",
            victim.prefix
        );

        // The validity API agrees with the export.
        let verdict = get("/api/v1/validity/AS64496/198.51.100.0/24");
        assert!(verdict.contains("\"state\":\"valid\""), "{verdict}");

        // Status and metrics surface the exception counts.
        let status = get("/status");
        assert!(status.contains("\"slurm_asserted\":1"), "{status}");
        assert!(status.contains("\"slurm_filtered\":"), "{status}");
        let metrics = get("/metrics");
        assert!(
            metrics.contains("ripki_serve_slurm_asserted 1"),
            "{metrics}"
        );

        // The RTR cache serves the same excepted set.
        let conn = std::net::TcpStream::connect(&rtr_addr).unwrap();
        let mut client = ripki_rtr::Client::new(conn);
        client.sync().expect("RTR sync");
        let asserted = VrpTriple {
            prefix: "198.51.100.0/24".parse().unwrap(),
            max_length: 24,
            asn: Asn::new(64496),
        };
        assert!(
            client.vrps().contains(&asserted),
            "assertion missing in RTR"
        );
        assert!(
            !client.vrps().contains(&victim),
            "filtered VRP still in RTR"
        );

        handle.join().unwrap().expect("serve exits cleanly");
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("slurm: loaded"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn longitudinal_applies_slurm_exceptions() {
        let dir = scratch();
        std::fs::create_dir_all(&dir).unwrap();
        let slurm_path = dir.join("exceptions.json");
        std::fs::write(
            &slurm_path,
            r#"{
                "slurmVersion": 1,
                "locallyAddedAssertions": {
                    "prefixAssertions": [{ "prefix": "198.51.100.0/24", "asn": 64496 }]
                }
            }"#,
        )
        .unwrap();
        let text = run_ok(&[
            "longitudinal",
            "--domains",
            "300",
            "--seed",
            "5",
            "--epochs",
            "2",
            "--stride",
            "25",
            "--threads",
            "2",
            "--slurm",
            slurm_path.to_str().unwrap(),
        ]);
        assert!(text.contains("slurm: loaded"), "{text}");
        assert!(text.contains("1 assertions"), "{text}");
        // The excepted set chains through the RTR cache epoch by epoch.
        assert!(text.contains("final epoch 3, RTR serial 3"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn study_from_files_matches_in_memory_study() {
        let dir = scratch();
        let dir_s = dir.to_str().unwrap();
        run_ok(&[
            "generate",
            "--out",
            dir_s,
            "--domains",
            "800",
            "--seed",
            "9",
        ]);

        // File-based.
        let world = load_world(&dir).unwrap();
        let engine = StudyEngine::new(
            world.zones.clone(),
            world.rib.clone(),
            &world.repository,
            PipelineConfig {
                bogus_dns_ppm: 0,
                now: world.now,
                ..Default::default()
            },
        );
        let file_results = engine.run(&world.ranking);

        // In-memory.
        let scenario = Scenario::build(ScenarioConfig {
            seed: 9,
            ..ScenarioConfig::with_domains(800)
        });
        let engine = StudyEngine::new(
            scenario.zones.clone(),
            scenario.rib.clone(),
            &scenario.repository,
            PipelineConfig {
                bogus_dns_ppm: 0,
                now: scenario.now,
                ..Default::default()
            },
        );
        let mem_results = engine.run(&scenario.ranking);

        assert_eq!(file_results.domains.len(), mem_results.domains.len());
        for (a, b) in file_results.domains.iter().zip(&mem_results.domains) {
            assert_eq!(a.bare.pairs, b.bare.pairs, "rank {}", a.rank);
            assert_eq!(a.www.pairs, b.www.pairs, "rank {}", a.rank);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rtr_probe_reports_cache_state() {
        let cache = std::sync::Arc::new(ripki_rtr::CacheServer::new(0xBEEF));
        cache.install_snapshot(
            3,
            [VrpTriple {
                prefix: "10.0.0.0/24".parse().unwrap(),
                max_length: 24,
                asn: Asn::new(64496),
            }],
        );
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let cache = std::sync::Arc::clone(&cache);
            std::thread::spawn(move || {
                let (conn, _) = listener.accept().expect("accept");
                let _ = cache.serve_connection(conn);
            })
        };
        let text = run_ok(&["rtr-probe", "--connect", &addr.to_string()]);
        assert!(text.contains("session 0xbeef"), "{text}");
        assert!(text.contains("serial 3"), "{text}");
        assert!(text.contains("epoch 3 (1 vrps"), "{text}");
        server.join().unwrap();
    }

    #[test]
    fn proxy_rejects_bad_configs() {
        let mut out = Vec::new();
        let args: Vec<String> = vec!["proxy".into()];
        assert!(matches!(run(&args, &mut out), Err(CliError::BadFlag(_))));

        let args: Vec<String> = vec![
            "proxy".into(),
            "--config".into(),
            "/nonexistent.toml".into(),
        ];
        assert!(matches!(run(&args, &mut out), Err(CliError::Io(_))));

        let dir = scratch();
        std::fs::create_dir_all(&dir).unwrap();
        let config = dir.join("broken.toml");
        std::fs::write(&config, "[units.a]\ntype = \"flux\"\n").unwrap();
        let args: Vec<String> = vec![
            "proxy".into(),
            "--config".into(),
            config.to_str().unwrap().into(),
        ];
        match run(&args, &mut out) {
            Err(CliError::Data(message)) => {
                assert!(message.contains("unknown type"), "{message}");
            }
            other => panic!("expected a data error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn proxy_engine_pipeline_drains_and_exits() {
        let dir = scratch();
        std::fs::create_dir_all(&dir).unwrap();
        let config = dir.join("proxy.toml");
        std::fs::write(
            &config,
            "[units.world]\ntype = \"engine\"\ndomains = 40\nepochs = 1\n\
             \n[targets.cache]\ntype = \"rtr\"\nlisten = \"127.0.0.1:0\"\nunit = \"world\"\n",
        )
        .unwrap();
        let text = run_ok(&[
            "proxy",
            "--config",
            config.to_str().unwrap(),
            "--exit-after-drain",
            "true",
        ]);
        assert!(text.contains("fabric drained; exiting"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The two numbers of a `"... baseline X -> whatif Y ..."` line.
    fn capture_pair(output: &str, prefix: &str) -> (f64, f64) {
        let line = output
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no {prefix:?} line in {output}"));
        let nums: Vec<f64> = line
            .split_whitespace()
            .filter_map(|w| w.trim_start_matches('(').parse().ok())
            .collect();
        (nums[0], nums[1])
    }

    #[test]
    fn whatif_empty_scenario_reproduces_baseline() {
        let dir = scratch();
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("whatif.csv");
        let output = run_ok(&[
            "whatif",
            "--domains",
            "400",
            "--seed",
            "5",
            "--stride",
            "5",
            "--bin",
            "100",
            "--out",
            csv.to_str().unwrap(),
        ]);
        assert!(
            output.contains("exposure delta (overall): +0.000000"),
            "{output}"
        );
        let written = std::fs::read_to_string(&csv).unwrap();
        let mut lines = written.lines();
        assert_eq!(
            lines.next(),
            Some("rank_bin_start,baseline_capture,whatif_capture,delta")
        );
        let mut rows = 0;
        for line in lines {
            assert!(
                line.ends_with(",0.000000"),
                "empty scenario must reproduce the baseline exactly: {line}"
            );
            rows += 1;
        }
        assert_eq!(rows, 4, "400 domains / bin 100");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn whatif_top_cdn_signing_lowers_top_bin_capture() {
        let dir = scratch();
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("whatif.csv");
        let output = run_ok(&[
            "whatif",
            "--domains",
            "400",
            "--seed",
            "5",
            "--stride",
            "5",
            "--bin",
            "100",
            "--scenario",
            "cdn-signs:Akamai",
            "--out",
            csv.to_str().unwrap(),
        ]);
        assert!(
            output.contains("lever: CDN Akamai signs ROAs for"),
            "{output}"
        );
        // The counterfactual rode one incremental churn epoch (announce
        // only — untouched CAs re-issued identically, nothing withdrawn).
        assert!(output.contains("counterfactual epoch 1 -> 2:"), "{output}");
        assert!(output.contains("-0 VRPs"), "{output}");
        let (baseline, whatif) = capture_pair(&output, "top-bin capture:");
        assert!(
            whatif < baseline,
            "signing the top CDN's prefixes must strictly lower top-bin \
             capture: {baseline} -> {whatif}\n{output}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn whatif_revoking_a_class_raises_exposure() {
        let dir = scratch();
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("whatif.csv");
        let output = run_ok(&[
            "whatif",
            "--domains",
            "400",
            "--seed",
            "5",
            "--stride",
            "5",
            "--bin",
            "100",
            "--scenario",
            "revoke-class:webhoster",
            "--out",
            csv.to_str().unwrap(),
        ]);
        assert!(output.contains("lever: revoke webhoster ROAs"), "{output}");
        assert!(
            !output.contains("(0 revoked)"),
            "the adoption model always produces webhoster ROAs: {output}"
        );
        let delta_line = output
            .lines()
            .find(|l| l.starts_with("exposure delta (overall):"))
            .unwrap();
        let delta: f64 = delta_line
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap_or_else(|_| panic!("unparsable delta in {delta_line:?}"));
        assert!(
            delta > 0.0,
            "revoking a class's ROAs must raise exposure: {output}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn whatif_top_k_lever_reports_deployers() {
        let dir = scratch();
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("whatif.csv");
        let output = run_ok(&[
            "whatif",
            "--domains",
            "400",
            "--seed",
            "5",
            "--stride",
            "5",
            "--bin",
            "100",
            "--scenario",
            "top-k-drop-invalid:100",
            "--out",
            csv.to_str().unwrap(),
        ]);
        assert!(
            output.contains("lever: operators of the top-100 ranks drop Invalids"),
            "{output}"
        );
        // A pure exposure-side lever runs no churn epoch at all.
        assert!(!output.contains("counterfactual epoch"), "{output}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn whatif_rejects_malformed_scenarios() {
        for spec in [
            "nonsense",
            "cdn-signs",
            "top-k-drop-invalid:many",
            "revoke-class:bank",
        ] {
            let args: Vec<String> = ["whatif", "--scenario", spec]
                .iter()
                .map(std::string::ToString::to_string)
                .collect();
            let mut out = Vec::new();
            assert!(
                matches!(run(&args, &mut out), Err(CliError::BadFlag(_))),
                "spec {spec:?} must be rejected"
            );
        }
        let args: Vec<String> = [
            "whatif",
            "--domains",
            "100",
            "--scenario",
            "cdn-signs:NoSuchCdn",
        ]
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
        let mut out = Vec::new();
        assert!(matches!(run(&args, &mut out), Err(CliError::BadFlag(_))));
    }
}
