//! The data-directory layout `generate` writes and every file-based
//! command reads.

use crate::CliError;
use ripki::engine::StudyEngine;
use ripki::pipeline::PipelineConfig;
use ripki_bgp::dump::TableDump;
use ripki_dns::DomainName;
use ripki_rpki::time::SimTime;
use std::path::{Path, PathBuf};

pub(crate) fn ranking_path(dir: &Path) -> PathBuf {
    dir.join("ranking.txt")
}
pub(crate) fn zones_path(dir: &Path) -> PathBuf {
    dir.join("zones.zone")
}
pub(crate) fn table_path(dir: &Path) -> PathBuf {
    dir.join("table.dump")
}
pub(crate) fn rpki_path(dir: &Path) -> PathBuf {
    dir.join("rpki")
}
pub(crate) fn meta_path(dir: &Path) -> PathBuf {
    dir.join("meta.txt")
}

pub(crate) struct World {
    pub(crate) ranking: Vec<DomainName>,
    pub(crate) zones: ripki_dns::ZoneStore,
    pub(crate) rib: ripki_bgp::Rib,
    pub(crate) repository: ripki_rpki::Repository,
    pub(crate) now: SimTime,
}

impl World {
    /// The engine the file-based commands validate and measure with:
    /// at the directory's instant, without DNS answer corruption.
    pub(crate) fn engine(&self) -> StudyEngine {
        StudyEngine::new(
            self.zones.clone(),
            self.rib.clone(),
            &self.repository,
            PipelineConfig {
                bogus_dns_ppm: 0,
                now: self.now,
                ..Default::default()
            },
        )
    }
}

pub(crate) fn load_world(dir: &Path) -> Result<World, CliError> {
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
pub(crate) fn read_now(dir: &Path) -> Result<SimTime, CliError> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::scratch;

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
}
