//! End-to-end tests of the `ripki-lint` binary over fixture workspaces
//! under `tests/fixtures/`: one tree per outcome (violating, allowed,
//! clean), each mirroring the real `crates/<name>/src/` layout so the
//! catalog's path scopes apply unchanged. The binary scans its working
//! directory, so each run starts inside its fixture.

use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run_in(fixture: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ripki-lint"))
        .args(args)
        .current_dir(fixture_root(fixture))
        .output()
        .expect("run ripki-lint")
}

fn run(args: &[&str]) -> Output {
    run_in("clean", args)
}

fn check(fixture: &str, extra: &[&str]) -> Output {
    let mut args = vec!["check"];
    args.extend_from_slice(extra);
    run_in(fixture, &args)
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("utf-8 stdout")
}

#[test]
fn violating_fixture_fails_with_exact_diagnostics() {
    let output = check("violating", &[]);
    assert_eq!(output.status.code(), Some(1));
    let text = stdout(&output);
    let expected = [
        "crates/dns/src/counter.rs:6:36: R3[atomic-order]: `Ordering::Relaxed` \
         without a same-line or preceding justification comment",
        "crates/ripki/src/engine.rs:1:1: R5[epoch-write]: blessed epoch module \
         carries no epoch monotonicity assertion",
        "crates/rtr/src/pdu.rs:5:9: R1[no-panic]: `panic!` on the panic-free path",
        "crates/serve/src/handler.rs:4:10: R1[no-panic]: `[…]` indexing can panic \
         — use `.get(…)`/`split_at_checked` or justify",
        "crates/serve/src/handler.rs:8:11: R1[no-panic]: `.unwrap()` on the \
         panic-free path — return a typed error instead",
        "crates/serve/src/view.rs:8:10: R5[epoch-write]: `epoch` written outside \
         the blessed engine module — epochs must move through the asserting \
         constructors",
    ];
    let mut lines = text.lines();
    for want in expected {
        assert_eq!(lines.next(), Some(want), "full output:\n{text}");
    }
    assert_eq!(
        lines.next(),
        Some("ripki-lint: 5 file(s), 6 violation(s) [R1 3, R3 1, R5 2], 0 allow(s) (catalog v10)"),
        "full output:\n{text}"
    );
    assert_eq!(lines.next(), None, "trailing output:\n{text}");
}

#[test]
fn violating_fixture_json_report_is_structured() {
    let output = check("violating", &["--format", "json"]);
    assert_eq!(output.status.code(), Some(1));
    let json: Value = serde_json::from_str(&stdout(&output)).expect("valid JSON");
    assert_eq!(json["clean"], Value::from(false));
    assert_eq!(json["catalog_version"], Value::from(10));
    assert_eq!(json["files_scanned"], Value::from(5));
    assert_eq!(json["violations"].as_array().map(<[Value]>::len), Some(6));
    assert_eq!(json["violations_by_rule"]["no-panic"], Value::from(3));
    assert_eq!(json["violations_by_rule"]["atomic-order"], Value::from(1));
    assert_eq!(json["violations_by_rule"]["epoch-write"], Value::from(2));
    // Violations come sorted by (path, line, column) with all locator
    // fields populated.
    let first = &json["violations"][0];
    assert_eq!(first["path"], Value::from("crates/dns/src/counter.rs"));
    assert_eq!(first["rule"], Value::from("atomic-order"));
    assert_eq!(first["line"], Value::from(6));
    assert_eq!(first["column"], Value::from(36));
}

#[test]
fn allowed_fixture_passes_and_audits_every_entry() {
    let output = check("allowed", &["--format", "json"]);
    assert_eq!(output.status.code(), Some(0));
    let json: Value = serde_json::from_str(&stdout(&output)).expect("valid JSON");
    assert_eq!(json["clean"], Value::from(true));
    let allows = json["allows"].as_array().expect("allows array");
    assert_eq!(allows.len(), 3);
    for entry in allows {
        assert_eq!(entry["used"], Value::from(true), "{entry:?}");
        assert_ne!(entry["justification"], Value::from(""), "{entry:?}");
    }
    // The text rendering lists the same audit trail.
    let text_run = check("allowed", &[]);
    assert_eq!(text_run.status.code(), Some(0));
    let text = stdout(&text_run);
    assert!(text.contains("allow-list entries (3):"), "{text}");
    assert!(
        text.contains(
            "crates/serve/src/handler.rs:4: allow(no-panic) — caller guarantees a non-empty buffer"
        ),
        "{text}"
    );
    assert!(
        text.contains("ripki-lint: 3 file(s), 0 violation(s), 3 allow(s) (catalog v10)"),
        "{text}"
    );
}

#[test]
fn clean_fixture_passes_silently() {
    let output = check("clean", &[]);
    assert_eq!(output.status.code(), Some(0));
    assert_eq!(
        stdout(&output),
        "ripki-lint: 2 file(s), 0 violation(s), 0 allow(s) (catalog v10)\n"
    );
    let json_run = check("clean", &["--format", "json"]);
    let json: Value = serde_json::from_str(&stdout(&json_run)).expect("valid JSON");
    assert_eq!(json["clean"], Value::from(true));
    assert_eq!(json["violations"].as_array().map(<[Value]>::len), Some(0));
    assert_eq!(json["allows"].as_array().map(<[Value]>::len), Some(0));
}

#[test]
fn transitive_fixture_flags_call_site_and_panic_site() {
    let output = check("transitive", &[]);
    assert_eq!(output.status.code(), Some(1));
    let text = stdout(&output);
    let expected = [
        // Panic site: out of scope for direct R1, reached 2 hops and
        // one crate boundary away from in-scope `respond`.
        "crates/bgp/src/lib.rs:10:30: R1[no-panic]: `expect` can panic and is \
         reachable from the panic-free path: respond -> frame_len -> decode_header",
        // Call site: the in-scope edge where the chain leaves serve.
        "crates/serve/src/handler.rs:8:5: R1[no-panic]: call into `frame_len` \
         reaches a panic site at crates/bgp/src/lib.rs:10 \
         (respond -> frame_len -> decode_header)",
    ];
    let mut lines = text.lines();
    for want in expected {
        assert_eq!(lines.next(), Some(want), "full output:\n{text}");
    }
    assert_eq!(
        lines.next(),
        Some("ripki-lint: 2 file(s), 2 violation(s) [R1 2], 0 allow(s) (catalog v10)"),
        "full output:\n{text}"
    );
    // `unreferenced_helper` has the same `.expect` shape but no caller
    // on the panic-free path: exactly two diagnostics, not three.
    assert_eq!(lines.next(), None, "trailing output:\n{text}");
}

#[test]
fn reactor_blocking_fixture_follows_two_hops_but_not_blessed_sites() {
    let output = check("reactor_blocking", &[]);
    assert_eq!(output.status.code(), Some(1));
    let text = stdout(&output);
    assert_eq!(
        text.lines().next(),
        Some(
            "crates/par/src/lib.rs:4:18: R6[no-blocking]: blocking `std::thread::sleep` \
             reachable from the reactor: Reactor::turn -> Reactor::service -> \
             wait_for_workers — one blocked turn stalls every connection"
        ),
        "full output:\n{text}"
    );
    // The blessed `poll_fds` also blocks (park_timeout) and is also
    // called from `turn`, but R6 must not traverse it: one finding.
    assert!(
        text.contains("1 violation(s) [R6 1]"),
        "full output:\n{text}"
    );
    assert!(!text.contains("park_timeout"), "full output:\n{text}");
}

#[test]
fn session_loop_fixture_roots_r6_at_the_rtr_session_plane() {
    let output = check("session_loop_blocking", &[]);
    assert_eq!(output.status.code(), Some(1));
    let text = stdout(&output);
    assert_eq!(
        text.lines().next(),
        Some(
            "crates/rtr/src/listener.rs:14:41: R6[no-blocking]: blocking `.recv()` \
             reachable from the reactor: SessionLoop::turn -> Session::drive — one \
             blocked turn stalls every connection"
        ),
        "full output:\n{text}"
    );
    // The blessed `poll_ready` (park_timeout) and `Peer::read_ready`
    // (accept) sit on the same turn and must not be reported.
    assert!(
        text.contains("1 violation(s) [R6 1]"),
        "full output:\n{text}"
    );
}

#[test]
fn lock_order_fixture_flags_inversion_but_not_scoped_release() {
    let output = check("lock_order", &[]);
    assert_eq!(output.status.code(), Some(1));
    let text = stdout(&output);
    assert_eq!(
        text.lines().next(),
        Some(
            "crates/proxy/src/gossip.rs:17:40: R7[lock-order]: lock order inversion: \
             `Gossip::broadcast` takes `Gossip.peers` then `Gossip.journal`, but \
             another path orders `Gossip.journal` before `Gossip.peers` — pick one \
             global order"
        ),
        "full output:\n{text}"
    );
    // `snapshot` touches both locks but releases the first before
    // taking the second; it must not add a third direction or a second
    // diagnostic.
    assert!(
        text.contains("1 violation(s) [R7 1]"),
        "full output:\n{text}"
    );
}

#[test]
fn declared_order_fixture_flags_the_reverse_nesting_alone() {
    let output = check("declared_order", &[]);
    assert_eq!(output.status.code(), Some(1));
    let text = stdout(&output);
    assert_eq!(
        text.lines().next(),
        Some(
            "crates/rtr/src/cache.rs:34:32: R7[lock-order]: lock order inversion: \
             `CacheServer::prune` takes `CacheServer.wakers` then `CacheServer.state`, \
             but another path orders `CacheServer.state` before `CacheServer.wakers` \
             — pick one global order"
        ),
        "full output:\n{text}"
    );
    // Sequential acquisition and the declared nesting are both clean.
    assert!(
        text.contains("1 violation(s) [R7 1]"),
        "full output:\n{text}"
    );
}

#[test]
fn fp_r1_fixture_is_clean_despite_panic_shaped_text() {
    // Panics in #[cfg(test)] code, string literals, comments, and doc
    // examples — the false positives the PR 5 token heuristic emitted.
    let output = check("fp_r1", &[]);
    assert_eq!(output.status.code(), Some(0));
    assert_eq!(
        stdout(&output),
        "ripki-lint: 1 file(s), 0 violation(s), 0 allow(s) (catalog v10)\n"
    );
}

#[test]
fn usage_errors_exit_2() {
    // Unknown subcommand.
    assert_eq!(run(&["frobnicate"]).status.code(), Some(2));
    // Unknown format value.
    assert_eq!(check("clean", &["--format", "yaml"]).status.code(), Some(2));
    // Missing option value, unknown options.
    assert_eq!(run(&["check", "--format"]).status.code(), Some(2));
    assert_eq!(run(&["check", "--root", "."]).status.code(), Some(2));
    assert_eq!(run(&["bench", "--iters", "1"]).status.code(), Some(2));
    // A directory with no `crates/` or `src/` is vacuously clean.
    let output = run_in("", &["check"]);
    assert_eq!(
        output.status.code(),
        Some(0),
        "empty tree is vacuously clean"
    );
    // No args at all prints usage and exits 2.
    assert_eq!(run(&[]).status.code(), Some(2));
}

#[test]
fn rules_subcommand_lists_the_catalog() {
    let output = run(&["rules"]);
    assert_eq!(output.status.code(), Some(0));
    let text = stdout(&output);
    assert!(text.contains("rule catalog v10:"), "{text}");
    let codes: Vec<&str> = text
        .lines()
        .skip(1)
        .filter_map(|line| line.split_whitespace().next())
        .collect();
    // R2 and R4 are clippy's (tests/clippy_config.rs); codes are not reused.
    assert_eq!(codes, ["R1", "R3", "R5", "R6", "R7"], "{text}");
}
