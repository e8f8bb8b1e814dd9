//! On-disk repository archives.
//!
//! A relying party's view of the RPKI is a directory tree fetched over
//! rsync/RRDP: trust anchor locators plus one directory of signed objects
//! per publication point. This module persists a [`Repository`] in that
//! shape and loads it back — the paper's "All data will be made
//! available" for the simulated world, and the interchange format the
//! `ripki-cli` tool works on:
//!
//! ```text
//! <dir>/
//!   tals/<NAME>.tal        # trust anchor locator (name + key)
//!   tals/<NAME>.cer        # the self-signed TA certificate
//!   <key-id-hex>/          # one directory per publication point
//!     ca.crl
//!     ca.mft
//!     cert-<serial>.cer    # issued CA certificates
//!     roa-<serial>.roa     # ROAs (archive framing)
//! ```
//!
//! Loading performs **no validation** — that is [`crate::validate()`]'s
//! job, exactly as with a real fetched repository.

use crate::cert::Cert;
use crate::crl::Crl;
use crate::manifest::Manifest;
use crate::repo::{PublicationPoint, Repository};
use crate::roa::Roa;
use crate::ta::TrustAnchor;
use ripki_crypto::keystore::KeyId;
use ripki_crypto::sha256::Digest;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Archive I/O and format errors.
#[derive(Debug)]
pub enum ArchiveError {
    /// Filesystem failure.
    Io(io::Error),
    /// A file failed to decode.
    Decode {
        /// Path of the undecodable file.
        path: String,
        /// What the decoder objected to.
        detail: String,
    },
    /// A directory name was not a valid key id.
    BadKeyId(String),
    /// A publication point directory was missing a required file.
    Missing {
        /// The publication point directory.
        point: String,
        /// The file that should have been there.
        file: &'static str,
    },
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::Io(e) => write!(f, "archive I/O error: {e}"),
            ArchiveError::Decode { path, detail } => {
                write!(f, "failed to decode {path}: {detail}")
            }
            ArchiveError::BadKeyId(name) => {
                write!(f, "directory name {name:?} is not a key id")
            }
            ArchiveError::Missing { point, file } => {
                write!(f, "publication point {point} is missing {file}")
            }
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<io::Error> for ArchiveError {
    fn from(e: io::Error) -> ArchiveError {
        ArchiveError::Io(e)
    }
}

/// Write `repo` under `dir` (created if absent; existing contents of the
/// target subdirectories are replaced).
pub fn save(repo: &Repository, dir: &Path) -> Result<(), ArchiveError> {
    let tals = dir.join("tals");
    fs::create_dir_all(&tals)?;
    for ta in &repo.trust_anchors {
        let tal_text = format!(
            "# ripki trust anchor locator\nname: {}\nkey-id: {}\n",
            ta.name,
            ta.cert.subject_key_id().0.to_hex(),
        );
        fs::write(tals.join(format!("{}.tal", ta.name)), tal_text)?;
        fs::write(tals.join(format!("{}.cer", ta.name)), ta.cert.encoded())?;
    }
    for (key_id, pp) in &repo.points {
        let point_dir = dir.join(key_id.0.to_hex());
        fs::create_dir_all(&point_dir)?;
        fs::write(
            point_dir.join(PublicationPoint::CRL_FILE_NAME),
            pp.crl.encoded(),
        )?;
        fs::write(point_dir.join("ca.mft"), pp.manifest.encoded())?;
        for cert in &pp.child_certs {
            fs::write(
                point_dir.join(PublicationPoint::cert_file_name(cert)),
                cert.encoded(),
            )?;
        }
        for roa in &pp.roas {
            fs::write(
                point_dir.join(PublicationPoint::roa_file_name(roa)),
                roa.archive_encoded(),
            )?;
        }
    }
    Ok(())
}

fn decode_err(path: &Path, detail: impl ToString) -> ArchiveError {
    ArchiveError::Decode {
        path: path.display().to_string(),
        detail: detail.to_string(),
    }
}

/// Load a repository from `dir`.
pub fn load(dir: &Path) -> Result<Repository, ArchiveError> {
    let mut repo = Repository::default();
    let tals = dir.join("tals");
    if tals.is_dir() {
        let mut names: Vec<_> = fs::read_dir(&tals)?
            .filter_map(std::result::Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "cer"))
            .collect();
        names.sort();
        for cer_path in names {
            let name = cer_path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("unknown")
                .to_string();
            let bytes = fs::read(&cer_path)?;
            let cert = Cert::decode(&bytes).map_err(|e| decode_err(&cer_path, e))?;
            repo.trust_anchors.push(TrustAnchor::new(name, cert));
        }
    }
    let mut entries: Vec<_> = fs::read_dir(dir)?
        .filter_map(std::result::Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != "tals"))
        .collect();
    entries.sort();
    for point_dir in entries {
        let dirname = point_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        let digest =
            Digest::from_hex(&dirname).ok_or_else(|| ArchiveError::BadKeyId(dirname.clone()))?;
        let key_id = KeyId(digest);

        let crl_path = point_dir.join(PublicationPoint::CRL_FILE_NAME);
        if !crl_path.is_file() {
            return Err(ArchiveError::Missing {
                point: dirname,
                file: "ca.crl",
            });
        }
        let crl = Crl::decode(&fs::read(&crl_path)?).map_err(|e| decode_err(&crl_path, e))?;
        let mft_path = point_dir.join("ca.mft");
        if !mft_path.is_file() {
            return Err(ArchiveError::Missing {
                point: dirname,
                file: "ca.mft",
            });
        }
        let manifest =
            Manifest::decode(&fs::read(&mft_path)?).map_err(|e| decode_err(&mft_path, e))?;

        let mut child_certs = Vec::new();
        let mut roas = Vec::new();
        let mut files: Vec<_> = fs::read_dir(&point_dir)?
            .filter_map(std::result::Result::ok)
            .map(|e| e.path())
            .collect();
        files.sort();
        for file in files {
            match file.extension().and_then(|x| x.to_str()) {
                Some("cer") => {
                    let cert = Cert::decode(&fs::read(&file)?).map_err(|e| decode_err(&file, e))?;
                    child_certs.push(Arc::new(cert));
                }
                Some("roa") => {
                    let roa = Roa::decode(&fs::read(&file)?).map_err(|e| decode_err(&file, e))?;
                    roas.push(Arc::new(roa));
                }
                _ => {}
            }
        }
        repo.points.insert(
            key_id,
            PublicationPoint {
                child_certs,
                roas,
                crl: Arc::new(crl),
                manifest: Arc::new(manifest),
            },
        );
    }
    Ok(repo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repo::RepositoryBuilder;
    use crate::resources::Resources;
    use crate::roa::RoaPrefix;
    use crate::time::{Duration, SimTime};
    use crate::validate::validate;
    use ripki_net::{Asn, IpPrefix};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn p(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    /// Unique scratch directory per test invocation.
    fn scratch() -> std::path::PathBuf {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("ripki-archive-test-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_repo() -> Repository {
        let mut b = RepositoryBuilder::new(31, SimTime::EPOCH);
        let ta = b.add_trust_anchor(
            "RIPE",
            Resources::from_prefixes(vec![p("80.0.0.0/4"), p("2a00::/12")]),
        );
        let isp = b
            .add_ca(ta, "ISP-1", Resources::from_prefixes(vec![p("85.0.0.0/8")]))
            .unwrap();
        b.add_roa(
            isp,
            Asn::new(100),
            vec![RoaPrefix::up_to(p("85.1.0.0/16"), 24)],
        )
        .unwrap();
        b.add_roa(isp, Asn::new(200), vec![RoaPrefix::exact(p("85.2.0.0/16"))])
            .unwrap();
        b.revoke(isp, 999).unwrap();
        b.finalize()
    }

    #[test]
    fn save_load_roundtrip_validates_identically() {
        let repo = sample_repo();
        let dir = scratch();
        save(&repo, &dir).unwrap();
        let loaded = load(&dir).unwrap();
        assert_eq!(loaded.trust_anchors.len(), repo.trust_anchors.len());
        assert_eq!(loaded.points.len(), repo.points.len());
        assert_eq!(loaded.roa_count(), repo.roa_count());

        let now = SimTime::EPOCH + Duration::days(1);
        let before = validate(&repo, now);
        let after = validate(&loaded, now);
        assert_eq!(before.vrps, after.vrps);
        assert_eq!(before.rejected_count(), after.rejected_count());
        assert_eq!(after.rejected_count(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn archive_layout_is_as_documented() {
        let repo = sample_repo();
        let dir = scratch();
        save(&repo, &dir).unwrap();
        assert!(dir.join("tals/RIPE.tal").is_file());
        assert!(dir.join("tals/RIPE.cer").is_file());
        let tal = fs::read_to_string(dir.join("tals/RIPE.tal")).unwrap();
        assert!(tal.contains("name: RIPE"));
        // Two publication points (TA + ISP), named by key-id hex.
        let point_dirs: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(std::result::Result::ok)
            .filter(|e| e.path().is_dir() && e.file_name() != "tals")
            .collect();
        assert_eq!(point_dirs.len(), 2);
        for d in &point_dirs {
            assert!(d.path().join("ca.crl").is_file());
            assert!(d.path().join("ca.mft").is_file());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_file_fails_decode_or_validation() {
        let repo = sample_repo();
        let dir = scratch();
        save(&repo, &dir).unwrap();
        // Flip one byte in every .roa file.
        let mut flipped = 0;
        for entry in fs::read_dir(&dir)
            .unwrap()
            .filter_map(std::result::Result::ok)
        {
            if !entry.path().is_dir() || entry.file_name() == "tals" {
                continue;
            }
            for file in fs::read_dir(entry.path())
                .unwrap()
                .filter_map(std::result::Result::ok)
            {
                if file.path().extension().is_some_and(|x| x == "roa") {
                    let mut bytes = fs::read(file.path()).unwrap();
                    let last = bytes.len() - 1;
                    bytes[last] ^= 0xff;
                    fs::write(file.path(), bytes).unwrap();
                    flipped += 1;
                }
            }
        }
        assert_eq!(flipped, 2);
        // Either decoding fails, or validation rejects the objects —
        // tampering must never pass silently.
        match load(&dir) {
            Err(ArchiveError::Decode { .. }) => {}
            Ok(loaded) => {
                let now = SimTime::EPOCH + Duration::days(1);
                let report = validate(&loaded, now);
                assert!(report.vrps.is_empty());
                assert!(report.rejected_count() > 0);
            }
            Err(other) => panic!("unexpected error {other}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_crl_reported() {
        let repo = sample_repo();
        let dir = scratch();
        save(&repo, &dir).unwrap();
        for entry in fs::read_dir(&dir)
            .unwrap()
            .filter_map(std::result::Result::ok)
        {
            if entry.path().is_dir() && entry.file_name() != "tals" {
                fs::remove_file(entry.path().join("ca.crl")).unwrap();
            }
        }
        assert!(matches!(
            load(&dir),
            Err(ArchiveError::Missing { file: "ca.crl", .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_directory_name_reported() {
        let repo = sample_repo();
        let dir = scratch();
        save(&repo, &dir).unwrap();
        fs::create_dir(dir.join("not-a-key-id")).unwrap();
        // Must contain the mandatory files to get past earlier checks…
        // actually the name check fires first.
        assert!(matches!(load(&dir), Err(ArchiveError::BadKeyId(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_directory_loads_empty_repository() {
        let dir = scratch();
        let repo = load(&dir).unwrap();
        assert!(repo.trust_anchors.is_empty());
        assert!(repo.points.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
