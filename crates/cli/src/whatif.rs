//! The counterfactual scenario runner: declarative levers compiled
//! into one synthetic churn epoch over a measured world.

use crate::{CliError, Flags};
use ripki::engine::StudyEngine;
use ripki::exposure::{exposure_curve, ExposureConfig};
use ripki_net::Asn;
use ripki_websim::{Scenario, ScenarioConfig};
use std::io::Write;
use std::path::PathBuf;

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

pub(crate) fn cmd_whatif(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
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
    let engine = StudyEngine::for_scenario(&scenario, threads);
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
        baseline_snapshot.vrps().len(),
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
    use crate::tests::{run_args, run_ok, scratch};
    use crate::CliError;

    /// `whatif --domains 400 --seed 5 --stride 5 --bin 100` with the given
    /// levers: its stdout and the CSV it wrote.
    fn whatif_400(levers: &[&str]) -> (String, String) {
        let dir = scratch();
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("whatif.csv");
        let mut args = vec!["whatif", "--domains", "400", "--seed", "5"];
        args.extend(["--stride", "5", "--bin", "100"]);
        args.extend(levers);
        args.extend(["--out", csv.to_str().unwrap()]);
        let output = run_ok(&args);
        let written = std::fs::read_to_string(&csv).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        (output, written)
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
        let (output, written) = whatif_400(&[]);
        assert!(
            output.contains("exposure delta (overall): +0.000000"),
            "{output}"
        );
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
    }

    #[test]
    fn whatif_top_cdn_signing_lowers_top_bin_capture() {
        let (output, _) = whatif_400(&["--scenario", "cdn-signs:Akamai"]);
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
    }

    #[test]
    fn whatif_revoking_a_class_raises_exposure() {
        let (output, _) = whatif_400(&["--scenario", "revoke-class:webhoster"]);
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
    }

    #[test]
    fn whatif_top_k_lever_reports_deployers() {
        let (output, _) = whatif_400(&["--scenario", "top-k-drop-invalid:100"]);
        assert!(
            output.contains("lever: operators of the top-100 ranks drop Invalids"),
            "{output}"
        );
        // A pure exposure-side lever runs no churn epoch at all.
        assert!(!output.contains("counterfactual epoch"), "{output}");
    }

    #[test]
    fn whatif_rejects_malformed_scenarios() {
        for spec in [
            "nonsense",
            "cdn-signs",
            "top-k-drop-invalid:many",
            "revoke-class:bank",
        ] {
            assert!(
                matches!(
                    run_args(&["whatif", "--scenario", spec]),
                    Err(CliError::BadFlag(_))
                ),
                "spec {spec:?} must be rejected"
            );
        }
        let unknown_cdn = [
            "whatif",
            "--domains",
            "100",
            "--scenario",
            "cdn-signs:NoSuchCdn",
        ];
        assert!(matches!(run_args(&unknown_cdn), Err(CliError::BadFlag(_))));
    }
}
