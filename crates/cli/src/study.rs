//! The file-based commands: `generate` writes a data directory,
//! `validate`, `rov` and `study` read one.

use crate::world::{
    load_world, meta_path, ranking_path, read_now, rpki_path, table_path, zones_path,
};
use crate::{CliError, Flags};
use ripki::classify::HttpArchiveClassifier;
use ripki::figures;
use ripki::report::HeadlineStats;
use ripki::tables;
use ripki_bgp::dump::TableDump;
use ripki_bgp::rov::RouteOriginValidator;
use ripki_dns::DomainName;
use ripki_net::{Asn, IpPrefix};
use ripki_rpki::time::SimTime;
use ripki_rpki::validate;
use ripki_websim::{Scenario, ScenarioConfig};
use std::io::Write;
use std::path::{Path, PathBuf};

pub(crate) fn cmd_generate(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
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

pub(crate) fn cmd_validate(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
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

pub(crate) fn cmd_rov(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
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

pub(crate) fn cmd_study(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let dir = PathBuf::from(flags.require("data")?);
    let world = load_world(&dir)?;
    let bin: usize = flags.get_parsed("bin", (world.ranking.len() / 10).max(1))?;
    let engine = world.engine();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{run_ok, scratch};
    use ripki::engine::StudyEngine;

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
        let engine = world.engine();
        let file_results = engine.run(&world.ranking);

        // In-memory.
        let scenario = Scenario::build(ScenarioConfig {
            seed: 9,
            ..ScenarioConfig::with_domains(800)
        });
        let engine = StudyEngine::for_scenario(&scenario, 0);
        let mem_results = engine.run(&scenario.ranking);

        assert_eq!(file_results.domains.len(), mem_results.domains.len());
        for (a, b) in file_results.domains.iter().zip(&mem_results.domains) {
            assert_eq!(a.bare.pairs, b.bare.pairs, "rank {}", a.rank);
            assert_eq!(a.www.pairs, b.www.pairs, "rank {}", a.rank);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
