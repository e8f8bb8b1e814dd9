//! The repository's benchmark. Drives the workspace crates from
//! outside, through their public API only.
//!
//! ```text
//! ripki-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ripki-benchmark all       [--seed <n>] [--seconds <s>]
//! ripki-benchmark selfcheck [--seed <n>] [--seconds <s>]
//! ripki-benchmark manifest
//! ```
//!
//! The first form is one run in this process and ends with one JSON
//! line; `all` and `selfcheck` start one child process per run, so that
//! peak memory is per workload.

mod chain;
mod host;
mod httpc;
mod metrics;
mod sched;
mod stats;
mod trace;
mod workloads;
mod world;

use metrics::{json_number, Def, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Outcome, Plan, WorkloadDef, WORKLOADS};
use world::Size;

/// Length of a gated run's timed window, as `BENCHMARK.json` fixes it.
const RUN_SECONDS: u64 = 20;
/// Set-up repetitions of a gated run (`setup_s` is their median).
const SETUP_REPS: usize = 3;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn number(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("{name} {raw:?} is not a whole number")),
    }
}

fn main() -> ExitCode {
    // Library defaults are measured as shipped: no thread override.
    std::env::remove_var("RIPKI_THREADS");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("all") => all(&args),
        Some("selfcheck") => selfcheck(&args),
        Some("manifest") => {
            print!("{}", manifest());
            Ok(true)
        }
        _ => one_run(&args),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("ripki-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// The contract form: one workload, one JSON line last on stdout.
fn one_run(args: &[String]) -> Result<bool, String> {
    let name = flag(args, "--workload").ok_or("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> | all | selfcheck | manifest")?;
    let workload = workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (expected one of {known:?})")
    })?;
    let seed = number(args, "--seed", 42)?;
    let seconds = number(args, "--seconds", RUN_SECONDS)?.clamp(1, 60);
    let traced = match flag(args, "--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other:?} is neither 0 nor 1")),
    };
    let plan = Plan {
        seed,
        size: Size::Full,
        seconds,
        traced,
        setup_reps: if traced { 1 } else { SETUP_REPS },
    };
    let mut outcome = (workload.run)(&plan);
    let (table, values) = if traced {
        finish_traced(workload, &plan, &mut outcome)?;
        (PER_LAYER, &outcome.layers)
    } else {
        (END_TO_END, &outcome.e2e)
    };
    print!("{}", outcome.text);
    println!(
        "{} (seed {seed}, {seconds} s, trace {}):",
        workload.name,
        u8::from(traced)
    );
    println!("  op     = {}\n  origin = {}", workload.op, workload.origin);
    print!("{}", values.render(table));
    for failure in &outcome.checks.failures {
        println!("  FAILED: {failure}");
    }
    let missing = values.missing(table);
    if !missing.is_empty() {
        println!("  MISSING: {missing:?}");
    }
    let correct = outcome.checks.failed == 0 && missing.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.checks.attempted.max(1),
        outcome.checks.failed,
        values.json(table),
    );
    Ok(true)
}

/// A traced run reports every per-layer metric. The layers its own
/// workload bypasses get reference rows from the other workloads run at
/// smoke size in this process (a few hundred objects, a couple of
/// seconds each); its own readings always win. Then the spans go to disk.
fn finish_traced(workload: &WorkloadDef, plan: &Plan, outcome: &mut Outcome) -> Result<(), String> {
    outcome
        .layers
        .set("trace.spans", outcome.tracer.spans().len() as f64, 1);
    for other in WORKLOADS.iter().filter(|w| w.name != workload.name) {
        let smoke = (other.run)(&Plan {
            size: Size::Smoke,
            setup_reps: 1,
            ..*plan
        });
        outcome.layers.fill_from(&smoke.layers);
        outcome.checks.attempted += smoke.checks.attempted;
        outcome.checks.failed += smoke.checks.failed;
        for failure in smoke.checks.failures {
            outcome
                .checks
                .failures
                .push(format!("{} at smoke size: {failure}", other.name));
        }
    }
    let path = host::scratch_dir().join(format!("trace-{}-{}.json", workload.name, plan.seed));
    outcome
        .tracer
        .write_json(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    outcome.text.push_str(&format!(
        "{} spans written to {}; self time by span name (ms):\n",
        outcome.tracer.spans().len(),
        path.display()
    ));
    for (name, own_ms, count) in outcome.tracer.self_ms_by_name().into_iter().take(12) {
        outcome
            .text
            .push_str(&format!("  {name:<24} {own_ms:>12.3}  n={count}\n"));
    }
    Ok(())
}

/// What a child run printed last.
struct RunResult {
    correct: bool,
    failed: u64,
    values: Vec<(&'static str, f64)>,
}

fn parse_result(line: &str) -> Option<RunResult> {
    let root: serde_json::Value = serde_json::from_str(line).ok()?;
    let root = root.as_object()?;
    let metrics = root.get("metrics")?.as_object()?;
    let value = |name: &str| metrics.get(name)?.as_object()?.get("value")?.as_f64();
    Some(RunResult {
        correct: root.get("correct")?.as_bool()?,
        failed: u64::try_from(root.get("failed")?.as_u128()?).ok()?,
        values: END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter_map(|d| Some((d.name, value(d.name)?)))
            .collect(),
    })
}

/// Run one workload in a child process; echo its report, return its
/// result line.
fn child(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in &lines {
        println!("{line}");
    }
    parse_result(last).ok_or_else(|| format!("{workload}: no result line (exit {})", output.status))
}

/// Every workload, untraced then traced, every metric by name.
fn all(args: &[String]) -> Result<bool, String> {
    let seed = number(args, "--seed", 42)?;
    let seconds = number(args, "--seconds", RUN_SECONDS)?.clamp(1, 60);
    let mut good = true;
    for workload in WORKLOADS {
        for traced in [false, true] {
            let result = child(workload.name, seed, seconds, traced)?;
            if !result.correct {
                println!(
                    "{}: INCORRECT, {} operations failed",
                    workload.name, result.failed
                );
                good = false;
            }
            let late = result.values.iter().find(|(n, _)| *n == "gen.late_ms_p90");
            let open_loop = workload.name.starts_with("churn");
            if let (true, Some((_, late))) = (traced && open_loop, late) {
                if *late >= 20.0 {
                    println!(
                        "{}: generator ran {late:.1} ms late at p90: not an open loop",
                        workload.name
                    );
                    good = false;
                }
            }
        }
    }
    println!(
        "all: {}",
        if good {
            "every output correct"
        } else {
            "FAILED"
        }
    );
    Ok(good)
}

/// The A/A test: every workload twice on this tree, second round in
/// reverse order; any end-to-end metric further apart than its bound
/// fails.
fn selfcheck(args: &[String]) -> Result<bool, String> {
    let seed = number(args, "--seed", 42)?;
    let seconds = number(args, "--seconds", RUN_SECONDS)?.clamp(1, 60);
    let mut rounds: Vec<Vec<(&str, RunResult)>> = Vec::new();
    for round in 0..2 {
        let mut order: Vec<&WorkloadDef> = WORKLOADS.iter().collect();
        if round == 1 {
            order.reverse();
        }
        let mut results = Vec::new();
        for workload in order {
            results.push((workload.name, child(workload.name, seed, seconds, false)?));
        }
        rounds.push(results);
    }
    let mut good = true;
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for workload in WORKLOADS {
        let pick = |round: usize| {
            rounds[round]
                .iter()
                .find(|(n, _)| *n == workload.name)
                .map(|(_, r)| r)
        };
        let (Some(a), Some(b)) = (pick(0), pick(1)) else {
            continue;
        };
        good &= a.correct && b.correct;
        for def in END_TO_END {
            let value = |r: &RunResult| {
                r.values
                    .iter()
                    .find(|(n, _)| *n == def.name)
                    .map_or(f64::NAN, |(_, v)| *v)
            };
            let (x, y) = (value(a), value(b));
            let diff = (y - x).abs() / x.abs();
            let within = diff <= def.bound;
            good &= within;
            println!(
                "{:<12} {:<16} {x:>14.4} {y:>14.4} {:>8.2}% {:>6.0}%{}",
                workload.name,
                def.name,
                diff * 100.0,
                def.bound * 100.0,
                if within { "" } else { "  OUT OF BOUND" },
            );
        }
    }
    println!(
        "selfcheck: {}",
        if good {
            "two runs of this tree agree within every bound"
        } else {
            "FAILED"
        }
    );
    Ok(good)
}

fn defs_json(table: &[Def], with_bound: bool) -> String {
    let rows: Vec<String> = table
        .iter()
        .map(|d| {
            let bound = if with_bound {
                format!(", \"bound\": {}", json_number(d.bound))
            } else {
                String::new()
            };
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                d.name, d.unit, d.better
            )
        })
        .collect();
    rows.join(",\n")
}

/// `BENCHMARK.json`, generated from the tables this program measures by.
fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        defs_json(END_TO_END, true),
        defs_json(PER_LAYER, false),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::Metrics;

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `-- manifest > BENCHMARK.json`"
        );
        assert!(on_disk.len() < 64 * 1024);
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
        }
    }

    #[test]
    fn result_line_round_trips() {
        let mut m = Metrics::new();
        m.set("setup_s", 3.25, 3);
        m.set("op_ms_p50", 812.0625, 42);
        let line = format!(
            "{{\"correct\": true, \"attempted\": 45, \"failed\": 2, \"metrics\": {}}}",
            m.json(END_TO_END)
        );
        let parsed = parse_result(&line).expect("own format parses");
        assert!(parsed.correct);
        assert_eq!(parsed.failed, 2);
        assert_eq!(
            parsed.values,
            vec![("setup_s", 3.25), ("op_ms_p50", 812.0625)]
        );
    }

    /// Every workload at smoke size (500 domains / 500 VRPs), traced:
    /// all reference checks green, every per-layer name covered by the
    /// four together, each within five seconds.
    #[test]
    fn smoke_size_workloads_are_correct_and_cover_every_layer_metric() {
        std::env::remove_var("RIPKI_THREADS");
        let mut covered = Metrics::new();
        for workload in WORKLOADS {
            let started = std::time::Instant::now();
            let outcome = (workload.run)(&Plan {
                seed: 7,
                size: Size::Smoke,
                seconds: 1,
                traced: true,
                setup_reps: 1,
            });
            let took = started.elapsed();
            assert_eq!(
                outcome.checks.failed, 0,
                "{}: {:?}",
                workload.name, outcome.checks.failures
            );
            assert!(outcome.checks.attempted > 0);
            assert!(
                outcome.e2e.missing(END_TO_END).is_empty(),
                "{}",
                workload.name
            );
            assert!(took.as_secs_f64() < 5.0, "{} took {took:?}", workload.name);
            covered.fill_from(&outcome.layers);
        }
        covered.set("trace.spans", 1.0, 1);
        assert_eq!(covered.missing(PER_LAYER), Vec::<&str>::new());
    }
}
