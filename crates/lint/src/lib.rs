//! `ripki-lint`: the workspace invariant checker for the rules clippy
//! cannot express.
//!
//! The engine rests on invariants no compiler pass checks: panic-freedom
//! on the `ripki-serve` request path and the RTR PDU codec, reached
//! through any workspace call chain; justified atomic orderings; epoch
//! monotonicity between `WorldSnapshot`, `EpochDelta`, and the RTR
//! serial; no blocking inside an I/O loop turn; one lock order. This
//! crate enforces them as a versioned rule catalog ([`catalog`]) over a
//! hand-rolled token stream ([`lex`] — the offline build has no `syn`)
//! and the workspace call graph ([`graph`]), with a counted,
//! justification-required `// lint: allow(<rule>)` escape hatch. The
//! rules that look at one expression — wall-clock reads and prints —
//! are clippy's (`clippy.toml`, `[workspace.lints.clippy]`).
//!
//! Run as `cargo run -p ripki-lint -- check` from the workspace root
//! (wired into `scripts/check.sh` and the CI `static-analysis` job).

pub mod catalog;
pub mod graph;
pub mod lex;
pub mod parse;
pub mod report;
pub mod rules;

use report::Report;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Check every in-scope source file under `root` (a workspace root:
/// `crates/*/src/**/*.rs` plus the root package's `src/`). Test
/// directories are exempt wholesale — the rules target shipping code —
/// and `vendor/` holds offline stand-ins for external crates, which are
/// not ours to lint.
///
/// Two phases: every file is lexed and parsed into the shared
/// [`rules::CheckSet`] first, then the per-file rules and the
/// call-graph rules (transitive R1, R6, R7) run over the assembled
/// workspace.
pub fn check_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_sources(root, &mut files)?;
    files.sort();
    let mut set = rules::CheckSet::default();
    let mut report = Report::default();
    for path in files {
        let source = fs::read_to_string(root.join(&path))?;
        set.add_file(&catalog::canonical(&path), &source);
        report.files_scanned += 1;
    }
    let (violations, allows) = set.run();
    report.violations = violations;
    report.allows = allows;
    report
        .violations
        .sort_by(|a, b| (&a.path, a.line, a.column).cmp(&(&b.path, b.line, b.column)));
    report
        .allows
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(report)
}

fn collect_sources(root: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(root, &src, out)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(root, &root_src, out)?;
    }
    Ok(())
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tool must accept its own workspace: running it over the repo
    /// root from the test (CARGO_MANIFEST_DIR/../..) reports zero
    /// violations — the acceptance criterion of the PR that added it.
    #[test]
    fn own_workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let report = check_workspace(root).expect("workspace scan");
        assert!(
            report.files_scanned > 50,
            "scanned {}",
            report.files_scanned
        );
        assert!(
            report.clean(),
            "workspace has lint violations:\n{}",
            report.render_text()
        );
        // Every allow-list entry must carry a written justification and
        // suppress something real (both enforced as violations above,
        // but assert directly for clarity).
        for allow in &report.allows {
            assert!(!allow.justification.is_empty(), "{allow:?}");
            assert!(allow.used, "{allow:?}");
        }
    }
}
