//! # ripki-bench
//!
//! The experiment record. Every figure, table, ablation and extension of
//! the paper is one named section of [`sections::SECTIONS`], and the
//! `experiments` binary (`experiments [DOMAINS] [SECTION…]`, see its
//! header) is the only way to regenerate them: it builds **one**
//! calibrated [`Study`] at the requested scale, prints the series of
//! every selected section over it (the rows the paper plots), and — on a
//! full pass — writes the machine-readable JSON + CSV record to
//! `results/`. Timings are not this crate's business: they come from the
//! repository benchmark (`benchmark/`).
//!
//! The other binary, `serve_load`, is the HTTP plane's idle-session load
//! generator.

pub mod sections;

use ripki::classify::HttpArchiveClassifier;
use ripki::engine::StudyEngine;
use ripki::pipeline::{PipelineConfig, StudyResults};
use ripki::stats::BinnedSeries;
use ripki_websim::{Scenario, ScenarioConfig};
use std::io::{self, Write};

/// A fully built and measured study: the input to every section.
pub struct Study {
    /// The generated world.
    pub scenario: Scenario,
    /// Snapshot-owning engine over this study's world (for per-domain
    /// measurements and the snapshot's validator).
    pub engine: StudyEngine,
    /// Engine output over the whole ranking.
    pub results: StudyResults,
    /// Bin width scaled so each study has 10 bins (mirrors the paper's
    /// 10k bins over 1M domains).
    pub bin: usize,
}

impl Study {
    /// Build and measure at the given scale.
    pub fn at_scale(domains: usize) -> Study {
        let scenario = Scenario::build(ScenarioConfig::with_domains(domains));
        let engine = StudyEngine::new(
            scenario.zones.clone(),
            scenario.rib.clone(),
            &scenario.repository,
            PipelineConfig {
                bogus_dns_ppm: scenario.config.bogus_dns_ppm,
                now: scenario.now,
                ..Default::default()
            },
        );
        let results = engine.run(&scenario.ranking);
        let bin = (domains / 10).max(1);
        Study {
            scenario,
            engine,
            results,
            bin,
        }
    }

    /// The HTTPArchive classifier for this study's CDN namespace.
    pub fn httparchive(&self) -> HttpArchiveClassifier<'_> {
        HttpArchiveClassifier::new(&self.scenario.zones, self.cdn_patterns())
    }

    /// CDN DNS suffix patterns of the generated world.
    pub fn cdn_patterns(&self) -> Vec<String> {
        self.scenario
            .cdn_infras
            .iter()
            .map(|i| format!("{}-sim.net", i.name))
            .collect()
    }
}

/// Write a series as one row of percentages, paper-style.
pub(crate) fn write_percent_series(
    out: &mut dyn Write,
    label: &str,
    series: &BinnedSeries,
) -> io::Result<()> {
    write!(out, "{label:<26}")?;
    for m in &series.means {
        match m {
            Some(v) => write!(out, " {:>6.2}", v * 100.0)?,
            None => write!(out, "      -")?,
        }
    }
    writeln!(out)
}

/// Write a bin-start header row aligned with [`write_percent_series`].
pub(crate) fn write_bin_header(out: &mut dyn Write, bin: usize, n_bins: usize) -> io::Result<()> {
    write!(out, "{:<26}", "rank bin start")?;
    for i in 0..n_bins {
        write!(out, " {:>6}", i * bin / 1000)?;
    }
    writeln!(out, "  (thousands)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_builds_at_small_scale() {
        let s = Study::at_scale(400);
        assert_eq!(s.results.domains.len(), 400);
        assert_eq!(s.bin, 40);
        assert_eq!(s.cdn_patterns().len(), 16);
        // Re-running through the engine gives identical counts.
        let again = s.engine.run(&s.scenario.ranking);
        assert_eq!(again.domains.len(), 400);
    }
}
