//! Diagnostics and the two output formats (human text, machine JSON).

use crate::catalog::{Rule, ALL_RULES, CATALOG_VERSION};
use serde_json::{Map, Value};
use std::fmt::Write as _;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (`no-panic`, …) or `allow-syntax` for broken escape
    /// hatches.
    pub rule: String,
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column.
    pub column: usize,
    /// What went wrong and what to do instead.
    pub message: String,
}

/// One `// lint: allow(<rule>) <justification>` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule id the entry suppresses.
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the comment.
    pub line: usize,
    /// The written justification (empty string = violation).
    pub justification: String,
    /// Whether the entry actually suppressed a violation.
    pub used: bool,
}

/// The full run result.
#[derive(Debug, Default)]
pub struct Report {
    /// All violations across the workspace, in path/line order.
    pub violations: Vec<Violation>,
    /// All allow-list entries found.
    pub allows: Vec<AllowEntry>,
    /// Files checked.
    pub files_scanned: usize,
}

impl Report {
    /// Did the workspace pass?
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable rendering: `path:line:col: Rn[id]: message` per
    /// violation, then the allow-list audit, then a one-line summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            let code = Rule::from_id(&v.rule).map_or("--", Rule::code);
            let _ = writeln!(
                out,
                "{}:{}:{}: {}[{}]: {}",
                v.path, v.line, v.column, code, v.rule, v.message
            );
        }
        if !self.allows.is_empty() {
            let _ = writeln!(out, "allow-list entries ({}):", self.allows.len());
            for a in &self.allows {
                let _ = writeln!(
                    out,
                    "  {}:{}: allow({}) — {}{}",
                    a.path,
                    a.line,
                    a.rule,
                    a.justification,
                    if a.used { "" } else { "  [UNUSED]" }
                );
            }
        }
        let mut per_rule: Vec<(Rule, usize)> = ALL_RULES
            .iter()
            .map(|r| {
                (
                    *r,
                    self.violations.iter().filter(|v| v.rule == r.id()).count(),
                )
            })
            .collect();
        per_rule.retain(|(_, n)| *n > 0);
        let breakdown = per_rule
            .iter()
            .map(|(r, n)| format!("{} {}", r.code(), n))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "ripki-lint: {} file(s), {} violation(s){}, {} allow(s) (catalog v{})",
            self.files_scanned,
            self.violations.len(),
            if breakdown.is_empty() {
                String::new()
            } else {
                format!(" [{breakdown}]")
            },
            self.allows.len(),
            CATALOG_VERSION,
        );
        out
    }

    /// Machine-readable rendering for `--format json` (one object, keys
    /// sorted by serde_json's map ordering).
    pub fn render_json(&self) -> String {
        let mut root = Map::new();
        root.insert("catalog_version".into(), CATALOG_VERSION.into());
        root.insert("files_scanned".into(), self.files_scanned.into());
        root.insert("clean".into(), self.clean().into());
        let violations: Vec<Value> = self
            .violations
            .iter()
            .map(|v| {
                let mut obj = Map::new();
                obj.insert("rule".into(), v.rule.as_str().into());
                obj.insert("path".into(), v.path.as_str().into());
                obj.insert("line".into(), v.line.into());
                obj.insert("column".into(), v.column.into());
                obj.insert("message".into(), v.message.as_str().into());
                Value::Object(obj)
            })
            .collect();
        root.insert("violations".into(), Value::Array(violations));
        let allows: Vec<Value> = self
            .allows
            .iter()
            .map(|a| {
                let mut obj = Map::new();
                obj.insert("rule".into(), a.rule.as_str().into());
                obj.insert("path".into(), a.path.as_str().into());
                obj.insert("line".into(), a.line.into());
                obj.insert("justification".into(), a.justification.as_str().into());
                obj.insert("used".into(), a.used.into());
                Value::Object(obj)
            })
            .collect();
        root.insert("allows".into(), Value::Array(allows));
        let mut summary = Map::new();
        for rule in ALL_RULES {
            summary.insert(
                rule.id().into(),
                self.violations
                    .iter()
                    .filter(|v| v.rule == rule.id())
                    .count()
                    .into(),
            );
        }
        root.insert("violations_by_rule".into(), Value::Object(summary));
        let mut text = serde_json::to_string(&Value::Object(root))
            .unwrap_or_else(|_| "{\"error\":\"report serialization failed\"}".to_string());
        text.push('\n');
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            violations: vec![Violation {
                rule: "no-panic".into(),
                path: "crates/serve/src/http.rs".into(),
                line: 10,
                column: 7,
                message: "`.unwrap()` on the panic-free path".into(),
            }],
            allows: vec![AllowEntry {
                rule: "atomic-order".into(),
                path: "crates/serve/src/metrics.rs".into(),
                line: 3,
                justification: "independent counter".into(),
                used: true,
            }],
            files_scanned: 2,
        }
    }

    #[test]
    fn text_report_has_file_line_diagnostics() {
        let text = sample().render_text();
        assert!(
            text.contains("crates/serve/src/http.rs:10:7: R1[no-panic]:"),
            "{text}"
        );
        assert!(text.contains("2 file(s), 1 violation(s)"), "{text}");
        assert!(
            text.contains("allow(atomic-order) — independent counter"),
            "{text}"
        );
    }

    #[test]
    fn json_report_is_machine_readable() {
        let json: Value = serde_json::from_str(&sample().render_json()).expect("valid JSON");
        assert_eq!(json["catalog_version"], Value::from(CATALOG_VERSION));
        assert_eq!(json["clean"], Value::from(false));
        assert_eq!(json["violations"][0]["rule"], Value::from("no-panic"));
        assert_eq!(json["violations"][0]["line"], Value::from(10));
        assert_eq!(json["violations_by_rule"]["no-panic"], Value::from(1));
        assert_eq!(json["allows"][0]["used"], Value::from(true));
    }
}
