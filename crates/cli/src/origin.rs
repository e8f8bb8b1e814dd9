//! The commands that advance and serve an origin — `longitudinal`,
//! `serve`, `rtr-serve` — as argument and printing shells over
//! `ripki_proxy::origin`.

use crate::signal::{shutdown_flag, wait_for_shutdown_signal};
use crate::world::load_world;
use crate::{CliError, Flags};
use ripki::engine::EpochDelta;
use ripki::exposure::{exposure_curve, ExposureConfig};
use ripki_bgp::rov::{RouteOriginValidator, RpkiState};
use ripki_proxy::origin::{pause, EpochDriver, OriginError, Planes};
use ripki_rtr::{CacheServer, ListenerConfig, RtrListener};
use ripki_websim::churn::{ChurnConfig, ChurnStream};
use ripki_websim::{Scenario, ScenarioConfig};
use std::hash::{BuildHasher, RandomState};
use std::io::Write;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// A fresh RTR session id for an origin cache this process starts: a
/// restarted origin must not take a router's serials from the run
/// before as its own (RFC 6810 §5.1). Drawn from `RandomState`'s
/// per-process random keys, not from a clock.
fn fresh_session_id() -> u16 {
    // Truncation: any 16 bits of the keyed hash will do.
    RandomState::new().hash_one("ripki-origin") as u16
}

impl From<OriginError> for CliError {
    fn from(e: OriginError) -> CliError {
        CliError::Data(e.to_string())
    }
}

pub(crate) fn cmd_rtr_serve(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let dir = PathBuf::from(flags.require("data")?);
    let listen = flags.require("listen")?;
    // The engine validates the repository into an epoch-1 snapshot; the
    // RTR cache is handed that epoch under the epoch as serial, the way
    // every later epoch of a churning origin is. Nothing is measured,
    // so there are no results and no view.
    let engine = load_world(&dir)?.engine();
    let cache = Arc::new(CacheServer::new(fresh_session_id()));
    Planes::new(None)
        .with_rtr(Arc::clone(&cache))
        .hand_off(engine.snapshot(), None, None)?;
    let listener = TcpListener::bind(listen)?;
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
    let mut rtr_listener = RtrListener::spawn(listener, cache, ListenerConfig::default())?;
    wait_for_shutdown_signal();
    let open = rtr_listener.session_count();
    writeln!(out, "shutdown signal received; closing router sessions")?;
    rtr_listener.shutdown();
    writeln!(out, "closed {open} router sessions; exiting cleanly")?;
    Ok(())
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
    let validator = RouteOriginValidator::from(served.shared_vrps());
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

pub(crate) fn cmd_longitudinal(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
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
    // The RTR cache shadows the engine: epoch 1 is installed whole,
    // then each epoch's announce/withdraw sets stream in as a delta
    // under the epoch as serial — the same incremental path a router
    // sees, not a full reinstall.
    let cache = Arc::new(CacheServer::new(fresh_session_id()));
    let planes = Planes::new(exceptions).with_rtr(Arc::clone(&cache));
    let mut driver = EpochDriver::measure(&scenario, threads, planes)?;
    // One line with the *effective* count (after the RIPKI_THREADS
    // override and auto-detection), so CI can grep that the knob took.
    writeln!(
        out,
        "worker threads: {}",
        driver.engine().snapshot().config().worker_threads()
    )?;
    let exposure_cfg = ExposureConfig {
        stride: stride.max(1),
        ..Default::default()
    };

    writeln!(
        out,
        "{:>5} {:>7} {:>6} {:>5} {:>5} {:>6} {:>7} {:>7} {:>9}",
        "epoch", "events", "remeas", "+vrp", "-vrp", "vrps", "valid%", "cover%", "capture%"
    )?;
    // Epoch 1 has no delta: every domain was measured, no VRP moved.
    let print_row = |out: &mut dyn Write,
                     driver: &EpochDriver,
                     events: usize,
                     delta: Option<&EpochDelta>|
     -> Result<(), CliError> {
        let (results, served) = (driver.results(), driver.served());
        let (valid, covered, capture) = longitudinal_row(&scenario, results, served, &exposure_cfg);
        let (remeasured, announced, withdrawn) = delta.map_or((results.domains.len(), 0, 0), |d| {
            (d.domains_remeasured, d.announced.len(), d.withdrawn.len())
        });
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
    print_row(out, &driver, 0, None)?;

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
        let delta = driver.step(&batch)?.delta;
        if let Some(stats) = delta.rpki_stats {
            if stats.full_pass_avoided() {
                inc_objects += stats.objects_validated;
                inc_reused += stats.points_reused;
                inc_points += stats.points_total;
                inc_epochs += 1;
            }
        }
        print_row(out, &driver, batch.events.len(), Some(&delta))?;
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
        driver.engine().epoch(),
        cache.serial(),
        cache.vrp_count(),
    )?;
    Ok(())
}

pub(crate) fn cmd_serve(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    use ripki_serve::{Server, ServerConfig};

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
        read_timeout: Duration::from_millis(idle_timeout_ms.max(1)),
        max_connections: max_conns.max(1),
        ..defaults
    };

    writeln!(out, "measuring world: {domains} domains, seed {seed}")?;
    let exceptions = load_exceptions(flags, out)?;
    let scenario = Scenario::build(ScenarioConfig {
        seed,
        ..ScenarioConfig::with_domains(domains)
    });
    let exposure_cfg = ExposureConfig {
        stride: stride.max(1),
        ..Default::default()
    };
    // Optional RTR cache side by side: the driver hands it the same
    // excepted update, epoch by epoch, that the HTTP view is built on.
    let rtr = flags
        .get("rtr-listen")
        .map(|addr| (addr, Arc::new(CacheServer::new(fresh_session_id()))));
    let mut planes =
        Planes::new(exceptions).with_http(Some(Arc::new(scenario.topology.clone())), exposure_cfg);
    if let Some((_, cache)) = &rtr {
        planes = planes.with_rtr(Arc::clone(cache));
    }
    let mut driver = EpochDriver::measure(&scenario, 0, planes)?;

    let shared = Arc::clone(driver.view().expect("the HTTP plane is attached"));
    let mut server = Server::start(listen, Arc::clone(&shared), server_config)?;
    writeln!(
        out,
        "HTTP query plane on http://{} — epoch {}, {} VRPs, {} domains",
        server.addr(),
        driver.engine().epoch(),
        shared.current().payload().len(),
        driver.results().domains.len(),
    )?;
    let rtr_listener = match rtr {
        Some((rtr_listen, cache)) => {
            let listener = TcpListener::bind(rtr_listen)?;
            writeln!(
                out,
                "RTR cache on {} (session {:#06x}, serial {})",
                listener.local_addr()?,
                cache.session_id(),
                cache.serial(),
            )?;
            // The RTR session plane, beside the HTTP reactor: one loop
            // for every router, woken by each install into `cache`.
            Some(RtrListener::spawn(
                listener,
                cache,
                ListenerConfig::default(),
            )?)
        }
        None => None,
    };

    // From here on a signal drains both planes, mid-churn included.
    let stop = shutdown_flag();
    let mut signalled = false;
    let mut stream = ChurnStream::new(
        &scenario,
        ChurnConfig {
            seed: churn_seed,
            ..ChurnConfig::default()
        },
    );
    for _ in 0..epochs {
        if !pause(Duration::from_millis(interval_ms), stop) {
            signalled = true;
            break;
        }
        let batch = stream.next_epoch();
        let delta = driver.step(&batch)?.delta;
        writeln!(
            out,
            "epoch {}: {} events, {} domains re-measured, +{} -{} VRPs",
            delta.to_epoch,
            batch.events.len(),
            delta.domains_remeasured,
            delta.announced.len(),
            delta.withdrawn.len(),
        )?;
    }

    if !signalled && !exit_after_churn {
        writeln!(out, "serving; ctrl-c to stop")?;
        out.flush()?;
        wait_for_shutdown_signal();
        signalled = true;
    }
    if signalled {
        writeln!(out, "shutdown signal received; draining in-flight requests")?;
    }
    // The HTTP plane first (its graceful drain answers what is in
    // flight), then the RTR session loop, which closes the listener and
    // every router session and joins its thread.
    server.shutdown();
    if let Some(mut rtr_listener) = rtr_listener {
        rtr_listener.shutdown();
    }
    if signalled {
        writeln!(out, "drained; exiting cleanly")?;
    } else {
        writeln!(
            out,
            "exiting after churn (epoch {})",
            driver.engine().epoch()
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;
    use crate::tests::{run_ok, scratch};
    use ripki::pipeline::PipelineConfig;
    use ripki_bgp::rov::VrpTriple;
    use ripki_net::Asn;
    use ripki_rpki::validate;
    use std::sync::Mutex;

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

    /// `serve --domains 200 --seed 3 --exit-after-churn true` with both
    /// planes on ephemeral ports, running on its own thread.
    struct Serving {
        out: SharedBuf,
        thread: std::thread::JoinHandle<Result<(), CliError>>,
        http_addr: String,
        rtr_addr: String,
    }

    impl Serving {
        /// Start it with `extra` flags and wait for both listeners to
        /// announce their bound addresses.
        fn start(extra: &[&str]) -> Serving {
            let out = SharedBuf(Arc::new(Mutex::new(Vec::new())));
            let mut thread_out = out.clone();
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
                "--exit-after-churn",
                "true",
            ]
            .iter()
            .chain(extra)
            .map(std::string::ToString::to_string)
            .collect();
            let thread = std::thread::spawn(move || run(&args, &mut thread_out));
            let deadline = std::time::Instant::now() + Duration::from_secs(60);
            loop {
                assert!(std::time::Instant::now() < deadline, "serve never started");
                let text = String::from_utf8(out.0.lock().unwrap().clone()).unwrap();
                let http = text
                    .lines()
                    .find_map(|l| l.split_once("http://").map(|(_, r)| r))
                    .and_then(|r| r.split_whitespace().next().map(str::to_string));
                let rtr = text
                    .lines()
                    .find(|l| l.starts_with("RTR cache on "))
                    .and_then(|l| l.split_whitespace().nth(3).map(str::to_string));
                if let (Some(http_addr), Some(rtr_addr)) = (http, rtr) {
                    return Serving {
                        out,
                        thread,
                        http_addr,
                        rtr_addr,
                    };
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }

        /// One GET over a fresh connection: the whole raw response.
        fn get(&self, path: &str) -> String {
            use std::io::Read as _;
            let mut stream = std::net::TcpStream::connect(&self.http_addr).unwrap();
            let request = format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n");
            stream.write_all(request.as_bytes()).unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response
        }

        /// Wait for the clean exit and return everything it printed.
        fn finish(self) -> String {
            self.thread.join().unwrap().expect("serve exits cleanly");
            let text = self.out.0.lock().unwrap().clone();
            String::from_utf8(text).unwrap()
        }
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
        // Golden: the table the parent of the driver refactor printed.
        assert_eq!(
            rows,
            [
                "    1       0    300     0     0     18    5.5%    6.1%     55.3%",
                "    2      10     12     1     1     18    5.8%    6.5%     55.3%",
                "    3      10     19     1     1     18    6.1%    6.1%     55.3%",
                "    4      10      6     1     1     18    6.1%    6.1%     53.8%",
            ],
            "{text}"
        );
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
        let serving = Serving::start(&["--epochs", "2", "--epoch-interval-ms", "400"]);

        // The HTTP plane answers while churn epochs apply.
        let response = serving.get("/status");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(response.contains("\"epoch\""), "{response}");

        // The RTR cache serves the same world to a router client.
        let conn = std::net::TcpStream::connect(&serving.rtr_addr).unwrap();
        let mut client = ripki_rtr::Client::new(conn);
        client.sync().expect("RTR sync");
        assert!(!client.vrps().is_empty());

        let text = serving.finish();
        // Golden: the epoch lines the parent of the driver refactor printed.
        assert!(
            text.contains("epoch 2: 10 events, 9 domains re-measured, +1 -1 VRPs"),
            "{text}"
        );
        assert!(
            text.contains("epoch 3: 10 events, 8 domains re-measured, +1 -1 VRPs"),
            "{text}"
        );
        assert!(text.contains("exiting after churn (epoch 3)"), "{text}");
    }

    #[test]
    fn serve_applies_slurm_exceptions_across_planes() {
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

        let serving = Serving::start(&[
            "--epochs",
            "2",
            "--epoch-interval-ms",
            "700",
            "--slurm",
            slurm_path.to_str().unwrap(),
        ]);
        // The JSON export serves the excepted set: asserted VRP in,
        // filtered VRP out.
        let export = serving.get("/vrps.json");
        assert!(export.contains("198.51.100.0/24"), "{export}");
        assert!(
            !export.contains(&victim.prefix.to_string()),
            "filtered VRP still exported: {}",
            victim.prefix
        );

        // The validity API agrees with the export.
        let verdict = serving.get("/api/v1/validity/AS64496/198.51.100.0/24");
        assert!(verdict.contains("\"state\":\"valid\""), "{verdict}");

        // Status and metrics surface the exception counts.
        let status = serving.get("/status");
        assert!(status.contains("\"slurm_asserted\":1"), "{status}");
        assert!(status.contains("\"slurm_filtered\":"), "{status}");
        let metrics = serving.get("/metrics");
        assert!(
            metrics.contains("ripki_serve_slurm_asserted 1"),
            "{metrics}"
        );

        // The RTR cache serves the same excepted set.
        let conn = std::net::TcpStream::connect(&serving.rtr_addr).unwrap();
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

        let text = serving.finish();
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
        // Golden: the asserted VRP is in every epoch's served count.
        for row in [
            "    1       0    300     0     0     19    5.5%    6.1%     55.3%",
            "    2      10     12     1     1     19    5.8%    6.5%     55.3%",
            "    3      10     19     1     1     19    6.1%    6.1%     55.3%",
        ] {
            assert!(text.contains(row), "{text}");
        }
        // The excepted set chains through the RTR cache epoch by epoch.
        assert!(text.contains("final epoch 3, RTR serial 3"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
