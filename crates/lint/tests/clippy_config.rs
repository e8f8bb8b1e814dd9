//! Clippy enforces the single-expression rules — R2 (wall clock) and R4
//! (prints) — and the `unwrap` ban of `serve` and `rtr` (DESIGN.md
//! § "Invariants & enforcement"). A config that goes missing does not
//! fail clippy, it just stops checking, so this test pins each piece.

use std::path::Path;

fn read(relative: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::read_to_string(root.join(relative)).unwrap_or_else(|e| panic!("{relative}: {e}"))
}

/// Does any line of `text`, trimmed, equal `line`?
fn has_line(text: &str, line: &str) -> bool {
    text.lines().any(|l| l.trim() == line)
}

/// The `path = "…"` entries of a clippy.toml's `disallowed-methods`.
fn disallowed_methods(toml: &str) -> Vec<&str> {
    let list = toml
        .split_once("disallowed-methods = [")
        .and_then(|(_, rest)| rest.split_once("\n]"))
        .expect("a disallowed-methods list")
        .0;
    list.split("path = \"")
        .skip(1)
        .filter_map(|entry| entry.split_once('"').map(|(path, _)| path))
        .collect()
}

#[test]
fn clock_reads_are_disallowed_and_test_code_is_exempt() {
    // The serving plane measures deadlines: `Instant::now` is its job.
    // Its clippy.toml replaces the root one rather than merging, so it
    // repeats the test exemptions.
    for (file, methods) in [
        (
            "clippy.toml",
            &["std::time::Instant::now", "std::time::SystemTime::now"][..],
        ),
        ("crates/serve/clippy.toml", &["std::time::SystemTime::now"]),
    ] {
        let toml = read(file);
        assert_eq!(disallowed_methods(&toml), methods, "{file}");
        for key in ["unwrap", "print", "dbg"] {
            let line = format!("allow-{key}-in-tests = true");
            assert!(has_line(&toml, &line), "{file} lacks {line}");
        }
    }
}

#[test]
fn print_lints_and_the_unwrap_deny_reach_serve_and_rtr() {
    let workspace = read("Cargo.toml");
    let (_, lints) = workspace
        .split_once("\n[workspace.lints.clippy]\n")
        .expect("[workspace.lints.clippy]");
    let lints = lints.split("\n[").next().unwrap_or_default();
    for lint in ["print_stdout", "print_stderr", "dbg_macro"] {
        assert!(has_line(lints, &format!("{lint} = \"warn\"")), "{lint}");
    }
    for krate in ["serve", "rtr"] {
        let manifest = read(&format!("crates/{krate}/Cargo.toml"));
        // Inherited, not a copy of the table that drifts.
        assert!(
            manifest.contains("\n[lints]\nworkspace = true\n"),
            "{krate}"
        );
        assert!(!manifest.contains("[lints."), "{krate}");
        let lib = read(&format!("crates/{krate}/src/lib.rs"));
        assert!(has_line(&lib, "#![deny(clippy::unwrap_used)]"), "{krate}");
    }
}
