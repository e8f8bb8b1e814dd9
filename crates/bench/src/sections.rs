//! The sections of the experiment record: one per figure, table,
//! ablation and extension, each a function over the one [`Study`] the
//! `experiments` binary builds. Only the sections that are *about* a
//! different world build more: `ablation_vantage` re-measures from other
//! resolvers, `ablation_manifest_strictness` damages a copy of the
//! repository, `extension_longitudinal` replays adoption epochs, and
//! `hijack_defense` runs §2.3's attacker on a topology of its own.

use crate::{write_bin_header, write_percent_series, Study};
use ripki::cdn_audit::{audit_cdns, summarize};
use ripki::classify::{cname_chain_is_cdn, ClassifierScore};
use ripki::engine::StudyEngine;
use ripki::exposure::{self, ExposureConfig};
use ripki::figures;
use ripki::pipeline::PipelineConfig;
use ripki::report::HeadlineStats;
use ripki::stats::trend_slope;
use ripki::tables;
use ripki_bgp::collector::Collector;
use ripki_bgp::hijack::{deployment_sweep, HijackScenario};
use ripki_bgp::rov::{RouteOriginValidator, VrpTriple};
use ripki_bgp::topology::Topology;
use ripki_dns::{DomainName, Vantage};
use ripki_net::{Asn, IpPrefix};
use ripki_rpki::validate::{validate_with, ValidationOptions};
use ripki_rpki::{faults, privacy};
use ripki_websim::adoption::AdoptionConfig;
use ripki_websim::operators::CDN_SPECS;
use ripki_websim::{Scenario, ScenarioConfig};
use std::collections::BTreeSet;
use std::io::{self, Write};

/// What a pass leaves behind besides its printed series: the JSON
/// record and the per-figure CSVs for plotting.
#[derive(Default)]
pub struct Record {
    /// `results/experiments_N.json`, keyed by experiment.
    pub json: serde_json::Map,
    /// `(stem, text)` of each `results/{stem}_N.csv`.
    pub csv: Vec<(&'static str, String)>,
}

/// One named experiment.
pub struct Section {
    /// The positional name `experiments` selects it by.
    pub name: &'static str,
    /// What it regenerates, for the header line.
    pub title: &'static str,
    run: fn(&Study, &mut dyn Write, &mut Record) -> io::Result<()>,
}

/// Builds [`SECTIONS`] from `function: "title"` rows, so a section's
/// name is its function's and the two cannot drift apart.
macro_rules! sections {
    ($($run:ident: $title:literal,)*) => {
        /// Every section, in the order a full pass runs them.
        pub const SECTIONS: &[Section] = &[$(Section {
            name: stringify!($run),
            title: $title,
            run: $run,
        },)*];
    };
}

sections! {
    fig1_www_overlap: "Figure 1: www vs w/o-www equal prefixes",
    fig2_rpki_outcome: "Figure 2: RPKI validation outcome",
    fig3_cdn_popularity: "Figure 3: CDN popularity by classifier",
    fig4_rpki_on_cdns: "Figure 4: RPKI-enabled, all vs CDN-hosted",
    table1_top_covered: "Table 1: top domains with RPKI coverage",
    cdn_audit: "§4.2 CDN audit",
    hijack_defense: "§2.3: hijack capture rate vs ROV deployment",
    roa_privacy: "§5.2: ROA catalog exposure vs BGP collectors",
    ablation_binning: "ablation: bin size (Figure 2 valid series)",
    ablation_vantage: "ablation: DNS vantage (Figure 2 overall means)",
    ablation_cname_threshold: "ablation: CNAME-chain threshold vs ground truth",
    ablation_manifest_strictness: "ablation: manifest strictness",
    ablation_subdomains: "ablation: subdomain sharding (§5.3)",
    exposure_curve: "exposure: mean hijack capture rate across the ranking",
    extension_dnssec: "extension: RPKI vs DNSSEC adoption across the ranking",
    extension_longitudinal: "extension: the study replayed across adoption epochs",
}

/// Resolve positional section names; none selects every section.
pub fn select(names: &[String]) -> Result<Vec<&'static Section>, String> {
    if names.is_empty() {
        return Ok(SECTIONS.iter().collect());
    }
    names
        .iter()
        .map(|name| {
            SECTIONS.iter().find(|s| s.name == name).ok_or_else(|| {
                let known: Vec<&str> = SECTIONS.iter().map(|s| s.name).collect();
                format!("unknown section {name:?}; sections: {}", known.join(" "))
            })
        })
        .collect()
}

/// Print the §4 headline and then every selected section over `study`.
pub fn run(study: &Study, selected: &[&Section], out: &mut dyn Write) -> io::Result<Record> {
    let mut record = Record::default();
    record
        .json
        .insert("domains".into(), study.results.domains.len().into());
    let stats = HeadlineStats::compute(&study.results);
    writeln!(out, "--- headline (§4) ---\n{stats}")?;
    record.json.insert("headline".into(), to_json(&stats));
    for section in selected {
        writeln!(out, "\n=== {} — {} ===", section.name, section.title)?;
        (section.run)(study, out, &mut record)?;
    }
    Ok(record)
}

fn to_json<T: serde::Serialize>(value: &T) -> serde_json::Value {
    serde_json::to_value(value).expect("experiment records are plain data")
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn fig1_www_overlap(study: &Study, out: &mut dyn Write, record: &mut Record) -> io::Result<()> {
    let n = study.results.domains.len();
    let fig = figures::fig1_www_overlap(&study.results, study.bin);
    write_bin_header(out, study.bin, fig.len())?;
    write_percent_series(out, "equal prefixes %", &fig)?;
    writeln!(
        out,
        "head (first 10%): {:.1}%   tail (last 10%): {:.1}%   (paper: >76% head, >94% tail)",
        fig.range_mean(0, n / 10).unwrap_or(0.0) * 100.0,
        fig.range_mean(n * 9 / 10, n).unwrap_or(0.0) * 100.0,
    )?;
    record.json.insert("fig1".into(), to_json(&fig));
    record
        .csv
        .push(("fig1_equal_prefixes", fig.to_csv("equal_fraction")));
    Ok(())
}

fn fig2_rpki_outcome(study: &Study, out: &mut dyn Write, record: &mut Record) -> io::Result<()> {
    let n = study.results.domains.len();
    let fig = figures::fig2_rpki_outcome(&study.results, study.bin);
    write_bin_header(out, study.bin, fig.valid.len())?;
    write_percent_series(out, "valid %", &fig.valid)?;
    write_percent_series(out, "invalid %", &fig.invalid)?;
    write_percent_series(out, "not found %", &fig.not_found)?;
    writeln!(
        out,
        "valid head {:.2}% → tail {:.2}%   invalid avg {:.3}%   (paper: 4.0% → 5.5%, 0.09%)",
        fig.valid.range_mean(0, n / 10).unwrap_or(0.0) * 100.0,
        fig.valid.range_mean(n * 9 / 10, n).unwrap_or(0.0) * 100.0,
        fig.invalid.overall_mean().unwrap_or(0.0) * 100.0,
    )?;
    record.json.insert("fig2".into(), to_json(&fig));
    record.csv.extend([
        ("fig2_valid", fig.valid.to_csv("valid_fraction")),
        ("fig2_invalid", fig.invalid.to_csv("invalid_fraction")),
        ("fig2_not_found", fig.not_found.to_csv("not_found_fraction")),
    ]);
    Ok(())
}

/// Paper: both classifiers decay with rank; the CNAME-chain heuristic is
/// a conservative underestimate of HTTPArchive's pattern matching.
fn fig3_cdn_popularity(study: &Study, out: &mut dyn Write, record: &mut Record) -> io::Result<()> {
    let fig = figures::fig3_cdn_popularity(&study.results, &study.httparchive(), study.bin);
    write_bin_header(out, study.bin, fig.cname_heuristic.len())?;
    write_percent_series(out, "CNAME heuristic %", &fig.cname_heuristic)?;
    write_percent_series(out, "HTTPArchive %", &fig.httparchive)?;
    writeln!(
        out,
        "overall: heuristic {:.1}%, HTTPArchive {:.1}% (heuristic is the conservative lower bound)",
        fig.cname_heuristic.overall_mean().unwrap_or(0.0) * 100.0,
        fig.httparchive.overall_mean().unwrap_or(0.0) * 100.0,
    )?;
    record.json.insert("fig3".into(), to_json(&fig));
    record.csv.extend([
        (
            "fig3_cname_heuristic",
            fig.cname_heuristic.to_csv("cdn_fraction"),
        ),
        ("fig3_httparchive", fig.httparchive.to_csv("cdn_fraction")),
    ]);
    Ok(())
}

fn fig4_rpki_on_cdns(study: &Study, out: &mut dyn Write, record: &mut Record) -> io::Result<()> {
    let fig = figures::fig4_rpki_on_cdns(&study.results, study.bin);
    write_bin_header(out, study.bin, fig.rpki_enabled.len())?;
    write_percent_series(out, "RPKI-enabled %", &fig.rpki_enabled)?;
    write_percent_series(out, "RPKI-enabled on CDNs %", &fig.rpki_enabled_on_cdns)?;
    writeln!(
        out,
        "overall {:.2}% vs CDN-hosted {:.2}%   (paper: ≈5% vs ≈0.9%)",
        fig.rpki_enabled.overall_mean().unwrap_or(0.0) * 100.0,
        fig.rpki_enabled_on_cdns.overall_mean().unwrap_or(0.0) * 100.0,
    )?;
    record.json.insert("fig4".into(), to_json(&fig));
    record.csv.extend([
        (
            "fig4_rpki_enabled",
            fig.rpki_enabled.to_csv("covered_fraction"),
        ),
        (
            "fig4_on_cdns",
            fig.rpki_enabled_on_cdns.to_csv("covered_fraction"),
        ),
    ]);
    Ok(())
}

/// "Top 10 Alexa domains that have partial or full RPKI coverage,
/// including number of prefixes."
fn table1_top_covered(study: &Study, out: &mut dyn Write, record: &mut Record) -> io::Result<()> {
    let rows = tables::table1_top_covered(&study.results, 10);
    write!(out, "{}", tables::render_table1(&rows))?;
    writeln!(
        out,
        "(paper: facebook.com full, most others partial; lowest listed rank 130)"
    )?;
    record.json.insert("table1".into(), to_json(&rows));
    Ok(())
}

/// "CDN Content Benefits from 3rd Party ISPs" — the keyword audit.
fn cdn_audit(study: &Study, out: &mut dyn Write, record: &mut Record) -> io::Result<()> {
    // The VRPs the study's engine validated out of the repository.
    let snapshot = study.engine.snapshot();
    let names: Vec<&str> = CDN_SPECS.iter().map(|(n, _, _)| *n).collect();
    let rows = audit_cdns(&study.scenario.registry, snapshot.vrps(), &names);
    let summary = summarize(&rows, &study.scenario.registry, snapshot.vrps());
    for row in &rows {
        writeln!(out, "  {row}")?;
    }
    writeln!(
        out,
        "total CDN ASes {}   RPKI entries {}   deployers {:?}",
        summary.total_cdn_asns, summary.total_rpki_entries, summary.cdns_with_deployment
    )?;
    writeln!(
        out,
        "ISP penetration {:.1}%   webhoster penetration {:.1}%   (paper: 199 ASes, 4 entries, only Internap, >5%)",
        summary.isp_penetration * 100.0,
        summary.webhoster_penetration * 100.0,
    )?;
    record.json.insert("cdn_audit".into(), to_json(&summary));
    Ok(())
}

/// §2.3 attacker model: prefix hijacks vs ROV deployment on an
/// Internet-like topology.
fn hijack_defense(_study: &Study, out: &mut dyn Write, _record: &mut Record) -> io::Result<()> {
    let topology = Topology::generate(2015, 5, 40, 400, 0.08);
    let victim = Asn::new(10_007);
    let attacker = Asn::new(10_311);
    let prefix: IpPrefix = "85.201.0.0/16".parse().expect("literal prefix");
    let validator = RouteOriginValidator::from_vrps([VrpTriple {
        prefix,
        max_length: 16,
        asn: victim,
    }]);
    let origin = HijackScenario::origin_hijack(victim, attacker, prefix);
    let sub = HijackScenario::subprefix_hijack(
        victim,
        attacker,
        prefix,
        "85.201.128.0/17".parse().expect("literal prefix"),
    );
    let fractions = [0.0, 0.25, 0.5, 0.75, 1.0];

    writeln!(out, "ROV%      origin-hijack   subprefix-hijack")?;
    let o = deployment_sweep(&topology, &origin, &validator, &fractions, 7);
    let s = deployment_sweep(&topology, &sub, &validator, &fractions, 7);
    for ((f, or), (_, sr)) in o.iter().zip(&s) {
        writeln!(
            out,
            "{:>4.0}%   {:>12.1}%   {:>15.1}%",
            f * 100.0,
            or * 100.0,
            sr * 100.0
        )?;
    }
    writeln!(
        out,
        "(paper's premise: ROAs + ROV neutralise both attack shapes)"
    )
}

/// §5.2: how much does the ROA catalog reveal beyond what BGP collectors
/// already show?
fn roa_privacy(study: &Study, out: &mut dyn Write, _record: &mut Record) -> io::Result<()> {
    // The collector sees what the scenario's table announces.
    let mut collector = Collector::new(
        ripki_websim::scenario::COLLECTOR_PEERS
            .iter()
            .map(|a| Asn::new(*a)),
    );
    for po in study.scenario.rib.all_prefix_origins() {
        collector.observe_raw(po.prefix, po.origin);
    }
    let observed: BTreeSet<_> = collector.observations().clone();
    let exp = privacy::exposure(study.engine.snapshot().vrps(), &observed);

    writeln!(out, "catalog relations:     {}", exp.total())?;
    writeln!(out, "operational (in BGP):  {}", exp.operational.len())?;
    writeln!(out, "latent (RPKI-only):    {}", exp.latent.len())?;
    writeln!(
        out,
        "latent fraction:       {:.1}%  (misconfigured + standby authorizations)",
        exp.latent_fraction() * 100.0
    )
}

/// The paper settled on 10k bins "after experimenting with different bin
/// sizes": the head-vs-tail trend must be robust across bin widths.
fn ablation_binning(study: &Study, out: &mut dyn Write, _record: &mut Record) -> io::Result<()> {
    let n = study.results.domains.len();
    // Bin widths proportional to the paper's 1k/5k/10k/50k over 1M.
    let widths = [n / 100, n / 20, n / 10, n / 2];

    writeln!(out, "bin width   bins   head%   tail%   slope sign")?;
    for w in widths {
        let w = w.max(1);
        let fig = figures::fig2_rpki_outcome(&study.results, w);
        let head = fig.valid.range_mean(0, n / 10).unwrap_or(0.0);
        let tail = fig.valid.range_mean(n * 9 / 10, n).unwrap_or(0.0);
        let slope = trend_slope(&fig.valid);
        writeln!(
            out,
            "{:>9}   {:>4}   {:>5.2}   {:>5.2}   {}",
            w,
            fig.valid.len(),
            head * 100.0,
            tail * 100.0,
            match slope {
                Some(s) if s > 0.0 => "rising",
                Some(s) if s < 0.0 => "falling",
                _ => "flat",
            }
        )?;
    }
    writeln!(
        out,
        "(the rank trend must not be an artifact of the bin width)"
    )
}

/// The paper argues "our main results remain independent of the DNS
/// server selection because CDNs are reluctant to create ROAs at all":
/// re-run the pipeline from all three resolver vantages.
fn ablation_vantage(study: &Study, out: &mut dyn Write, _record: &mut Record) -> io::Result<()> {
    writeln!(
        out,
        "vantage                     valid%   invalid%   notfound%"
    )?;
    for vantage in [
        Vantage::GOOGLE_DNS_BERLIN,
        Vantage::OPEN_DNS,
        Vantage::LOOKING_GLASS_US01,
    ] {
        let engine = StudyEngine::new(
            study.scenario.zones.clone(),
            study.scenario.rib.clone(),
            &study.scenario.repository,
            PipelineConfig {
                vantage,
                bogus_dns_ppm: 0,
                now: study.scenario.now,
                ..Default::default()
            },
        );
        let results = engine.run(&study.scenario.ranking);
        let fig = figures::fig2_rpki_outcome(&results, study.bin);
        writeln!(
            out,
            "{:<26}  {:>6.2}   {:>8.3}   {:>9.2}",
            vantage.to_string(),
            fig.valid.overall_mean().unwrap_or(0.0) * 100.0,
            fig.invalid.overall_mean().unwrap_or(0.0) * 100.0,
            fig.not_found.overall_mean().unwrap_or(0.0) * 100.0,
        )?;
    }
    writeln!(out, "(the conclusions must agree across vantages)")
}

/// The paper uses "two or more CNAMEs" and argues a conservative
/// underestimate sharpens the analysis; score thresholds 1, 2, 3 against
/// the generator's ground truth.
fn ablation_cname_threshold(
    study: &Study,
    out: &mut dyn Write,
    _record: &mut Record,
) -> io::Result<()> {
    writeln!(out, "threshold   precision   recall")?;
    for threshold in [1usize, 2, 3] {
        let mut score = ClassifierScore::default();
        for (d, truth) in study.results.domains.iter().zip(&study.scenario.truth) {
            score.observe(cname_chain_is_cdn(d, threshold), truth.cdn.is_some());
        }
        writeln!(
            out,
            "{:>9}   {:>9.3}   {:>6.3}",
            threshold,
            score.precision(),
            score.recall()
        )?;
    }
    writeln!(
        out,
        "(threshold 2 trades recall for near-perfect precision — the"
    )?;
    writeln!(
        out,
        " paper's 'conservative (under)-estimate … sharpens our view')"
    )
}

/// Strict vs relaxed manifest handling (RFC 6486 left the policy local).
/// On a healthy repository both modes agree; after fault injection,
/// strict validation drops whole publication points while relaxed
/// validation salvages intact objects.
fn ablation_manifest_strictness(
    study: &Study,
    out: &mut dyn Write,
    _record: &mut Record,
) -> io::Result<()> {
    let now = study.scenario.now;
    let strict = ValidationOptions {
        strict_manifests: true,
    };
    let relaxed = ValidationOptions {
        strict_manifests: false,
    };

    // Withhold one ROA from every ROA-publishing point.
    let mut broken = study.scenario.repository.clone();
    let mut damaged_points = 0;
    for ca in faults::publication_points(&broken) {
        if !broken.points[&ca].roas.is_empty() {
            faults::withhold_roa(&mut broken, ca, 0);
            damaged_points += 1;
        }
    }

    writeln!(out, "repository   mode      VRPs   rejected objects")?;
    for (label, repository) in [
        ("healthy    ".to_string(), &study.scenario.repository),
        (format!("damaged({damaged_points:>2})"), &broken),
    ] {
        for (mode, options) in [("strict ", strict), ("relaxed", relaxed)] {
            let report = validate_with(repository, now, options);
            writeln!(
                out,
                "{label}  {mode}  {:>5}   {:>5}",
                report.vrps.len(),
                report.rejected_count()
            )?;
        }
    }
    writeln!(
        out,
        "(strict mode trades availability for withheld-object detection)"
    )
}

/// Paper §5.3: does measuring only the registered domain understate
/// exposure? The crawler probes `static.<domain>` like a real
/// measurement extension would (no ground truth consulted) and measures
/// the asset subdomains through the identical pipeline.
fn ablation_subdomains(study: &Study, out: &mut dyn Write, _record: &mut Record) -> io::Result<()> {
    let snapshot = study.engine.snapshot();

    // Discover asset subdomains by probing, crawler-style.
    let static_names: Vec<(usize, DomainName)> = study
        .scenario
        .ranking
        .iter()
        .enumerate()
        .filter_map(|(rank, listed)| {
            let name = DomainName::parse(&format!("static.{}", listed.without_www())).ok()?;
            study.scenario.zones.contains(&name).then_some((rank, name))
        })
        .collect();
    writeln!(
        out,
        "{} of {} domains expose a static. asset subdomain",
        static_names.len(),
        study.scenario.ranking.len()
    )?;

    // Measure the subdomains through the same snapshot (same epoch, same
    // zones as the apex run).
    let mut covered_apex = Vec::new();
    let mut covered_static = Vec::new();
    for (rank, name) in &static_names {
        let m = snapshot.measure_domain(*rank, name);
        if let Some(f) = m.bare.covered_fraction() {
            covered_static.push(f);
        }
        if let Some(f) = study.results.domains[*rank].bare.covered_fraction() {
            covered_apex.push(f);
        }
    }
    writeln!(
        out,
        "RPKI coverage among sharding domains: apex {:.2}%  vs  static subdomain {:.2}%",
        mean(&covered_apex) * 100.0,
        mean(&covered_static) * 100.0
    )?;
    let overall = figures::fig2_rpki_outcome(&study.results, study.bin)
        .valid
        .overall_mean()
        .unwrap_or(0.0);
    writeln!(
        out,
        "(whole-ranking apex valid share for reference: {:.2}%)",
        overall * 100.0
    )?;
    writeln!(
        out,
        "asset subdomains ride CDNs → their routing protection is the CDN's,"
    )?;
    writeln!(
        out,
        "i.e. almost none — an apex-only crawl overstates a site's protection."
    )
}

/// §2.3's attacker turned loose on §4's measured web, on the scenario's
/// real AS topology with the measured VRPs and 50% ROV deployment. The
/// expected result is the paper's thesis as a routing outcome: the
/// popular (CDN-heavy, ROA-poor) head of the ranking is *more*
/// capturable than the tail.
fn exposure_curve(study: &Study, out: &mut dyn Write, _record: &mut Record) -> io::Result<()> {
    let snapshot = study.engine.snapshot();
    let config = ExposureConfig {
        stride: 40,
        ..Default::default()
    };
    let exposures = exposure::exposure_curve(
        &study.results.domains,
        &study.scenario.topology,
        snapshot.validator(),
        &config,
    );
    let series = exposure::binned(&exposures, study.results.domains.len(), study.bin);

    writeln!(
        out,
        "({} domains sampled, ROV at {:.0}% of {} ASes, {} attackers each)",
        exposures.len(),
        config.rov_deployment * 100.0,
        study.scenario.topology.len(),
        config.attackers_per_domain,
    )?;
    write_bin_header(out, study.bin, series.len())?;
    write_percent_series(out, "capture rate %", &series)?;
    let capture_where = |covered: bool| -> Vec<f64> {
        exposures
            .iter()
            .filter(|e| e.fully_covered == covered)
            .map(|e| e.capture_rate)
            .collect()
    };
    let (covered, uncovered) = (capture_where(true), capture_where(false));
    writeln!(
        out,
        "fully ROA-covered domains: {:.1}% mean capture  |  uncovered: {:.1}%",
        mean(&covered) * 100.0,
        mean(&uncovered) * 100.0
    )?;
    assert!(
        covered.is_empty() || uncovered.is_empty() || mean(&covered) < mean(&uncovered),
        "ROA coverage must reduce capture under partial ROV"
    );
    Ok(())
}

/// Paper §7: "we will compare RPKI deployment with the adoption of other
/// core protocols such as DNSSEC." The scenario signs second-level zones
/// at per-TLD 2015-era rates; the pipeline records a validating
/// resolver's AD bit alongside the RPKI outcome.
fn extension_dnssec(study: &Study, out: &mut dyn Write, _record: &mut Record) -> io::Result<()> {
    let ext = figures::ext_dnssec_comparison(&study.results, study.bin);
    write_bin_header(out, study.bin, ext.rpki_covered.len())?;
    write_percent_series(out, "RPKI-covered %", &ext.rpki_covered)?;
    write_percent_series(out, "DNSSEC-signed %", &ext.dnssec_signed)?;
    writeln!(
        out,
        "overall: RPKI {:.2}% vs DNSSEC {:.2}% — both niche, DNSSEC the rarer at the SLD level",
        ext.rpki_covered.overall_mean().unwrap_or(0.0) * 100.0,
        ext.dnssec_signed.overall_mean().unwrap_or(0.0) * 100.0,
    )
}

/// One adoption epoch: the default world at `domains` with the per-class
/// adoption rates scaled by `factor`, measured end to end.
fn run_epoch(domains: usize, factor: f64) -> (f64, usize) {
    let base = ScenarioConfig::with_domains(domains);
    let scenario = Scenario::build(ScenarioConfig {
        adoption: AdoptionConfig {
            isp: base.adoption.isp * factor,
            webhoster: base.adoption.webhoster * factor,
            enterprise: base.adoption.enterprise * factor,
            ..base.adoption
        },
        ..base
    });
    let engine = StudyEngine::for_scenario(&scenario, 0);
    let results = engine.run(&scenario.ranking);
    let valid = figures::fig2_rpki_outcome(&results, (domains / 10).max(1))
        .valid
        .overall_mean()
        .unwrap_or(0.0);
    (valid, scenario.adoption_summary.adopters.len())
}

/// The paper measured "repeatedly over several weeks in 2014 and 2015",
/// during the RPKI's steady growth phase. Replay the study at five
/// epochs with scaled adoption rates — the per-operator adoption draw is
/// deterministic, so adopter sets grow monotonically, exactly like
/// re-measuring the same Internet months apart. Five worlds are built,
/// so the scale is capped at 10 000 domains.
fn extension_longitudinal(
    study: &Study,
    out: &mut dyn Write,
    _record: &mut Record,
) -> io::Result<()> {
    let domains = study.results.domains.len().min(10_000);
    writeln!(
        out,
        "epoch   adoption scale   adopters   measured valid share"
    )?;
    let mut last_valid = 0.0;
    let mut last_adopters = 0;
    for (epoch, factor) in [0.4, 0.55, 0.7, 0.85, 1.0].iter().enumerate() {
        let (valid, adopters) = run_epoch(domains, *factor);
        writeln!(
            out,
            "{epoch:>5}   {:>14.2}   {adopters:>8}   {:>8.2}%",
            factor,
            valid * 100.0
        )?;
        assert!(
            adopters >= last_adopters,
            "adopter sets must grow monotonically"
        );
        last_adopters = adopters;
        last_valid = valid;
    }
    writeln!(
        out,
        "final valid share {:.2}% — re-measuring over the study period only\nraises coverage; the head-vs-tail inversion persists at every epoch.",
        last_valid * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full pass at test scale: every section prints once, the
    /// assertions inside `exposure_curve` and `extension_longitudinal`
    /// execute (a failure panics here), and the paper's shape holds.
    /// 1 000 domains is the smallest round scale at which the exposure
    /// sample holds a fully covered domain and 100-rank bins are not
    /// noise.
    #[test]
    fn every_section_runs_once_and_keeps_the_paper_shape() {
        let study = Study::at_scale(1_000);
        let all = select(&[]).expect("no names selects everything");
        assert_eq!(all.len(), SECTIONS.len());
        let mut out = Vec::new();
        let record = run(&study, &all, &mut out).expect("writes to a buffer");
        let text = String::from_utf8(out).expect("utf8 output");
        for section in SECTIONS {
            let header = format!("\n=== {} — ", section.name);
            assert_eq!(text.matches(&header).count(), 1, "{header:?} in:\n{text}");
        }
        // Reached only if neither ported assertion fired.
        assert!(text.contains("fully ROA-covered domains: "), "{text}");
        assert!(text.contains("final valid share "), "{text}");

        // "Less popular sites are more likely to be secured."
        let fig2 = figures::fig2_rpki_outcome(&study.results, study.bin);
        let (first, last) = (fig2.valid.means[0], fig2.valid.means[fig2.valid.len() - 1]);
        assert!(
            last >= first,
            "valid share: last bin {last:?} < first {first:?}"
        );
        // "Large CDNs do not deploy."
        let fig4 = figures::fig4_rpki_on_cdns(&study.results, study.bin);
        assert!(fig4.rpki_enabled_on_cdns.overall_mean() < fig4.rpki_enabled.overall_mean());
        let audit = record.json.get("cdn_audit").expect("audit in the record");
        let deployers = audit["cdns_with_deployment"].as_array().expect("a list");
        assert_eq!(deployers, [serde_json::Value::from("Internap")]);
        assert_eq!(record.csv.len(), 8);
    }

    #[test]
    fn selection_is_by_name_and_rejects_unknown_names() {
        let picked = select(&["cdn_audit".into(), "fig1_www_overlap".into()]).expect("known");
        let names: Vec<&str> = picked.iter().map(|s| s.name).collect();
        assert_eq!(names, ["cdn_audit", "fig1_www_overlap"]);
        let err = select(&["fig9".into()]).err().expect("unknown name");
        assert!(
            err.contains("fig9") && err.contains("exposure_curve"),
            "{err}"
        );
    }
}
