//! The R1, R3 and R5–R7 checks, evaluated over the parsed item tree
//! and the workspace call graph.
//!
//! The per-file rules (direct R1, R3, R5) walk each function's [`Op`]
//! stream — string literals, comments, and doc examples were never
//! tokens, and `#[cfg(test)]` items are masked at item granularity by
//! the parser, so the classic heuristic false positives are impossible
//! by construction. The graph rules (transitive R1, R6, R7) run over
//! the assembled [`Workspace`]: BFS reachability from the rule's roots,
//! with diagnostics that print the call chain.
//!
//! The `// lint: allow(<rule>) <justification>` escape hatch is
//! unchanged: same line or the contiguous comment block directly above,
//! justification required, unused entries are themselves violations.

use crate::catalog::{
    is_blessed_epoch_module, Rule, BLOCKING_METHODS, BLOCKING_PATHS, DECLARED_LOCK_ORDER,
    REACTOR_BLESSED, REACTOR_ROOTS,
};
use crate::graph::{FnId, FnNode, LockOrder, Workspace};
use crate::lex::{tokenize, Token};
use crate::parse::{parse_file, Op};
use crate::report::{AllowEntry, Violation};
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};

/// Per-file facts the checks and the allow machinery query.
struct FileView {
    /// Lines that contain at least one comment token.
    comment_lines: BTreeSet<usize>,
    /// Lines that contain at least one significant token.
    code_lines: BTreeSet<usize>,
    /// Parsed `lint: allow(...)` comments by line.
    allows: Vec<ParsedAllow>,
    /// Syntactically broken allow comments (unknown rule id).
    bad_allows: Vec<(usize, String)>,
}

struct ParsedAllow {
    rule: Rule,
    line: usize,
    justification: String,
    used: std::cell::Cell<bool>,
}

/// Result of checking one file (compat surface for unit tests; the
/// workspace walk uses [`CheckSet`] directly).
pub struct FileReport {
    /// Rule violations (allow-suppressed candidates excluded).
    pub violations: Vec<Violation>,
    /// Every allow-list entry found, with usage accounting.
    pub allows: Vec<AllowEntry>,
}

/// The whole-workspace analysis: parsed files feeding one call graph.
#[derive(Default)]
pub struct CheckSet {
    views: Vec<(String, FileView)>,
    view_by_path: HashMap<PathBuf, usize>,
    ws: Workspace,
    crate_names: BTreeSet<String>,
}

impl CheckSet {
    /// Add one source file. `path` is workspace-relative and
    /// `/`-separated (see [`crate::catalog::canonical`]).
    pub fn add_file(&mut self, path: &str, source: &str) {
        let tokens = tokenize(source);
        let mut comment_lines = BTreeSet::new();
        let mut code_lines = BTreeSet::new();
        let mut allows = Vec::new();
        let mut bad_allows = Vec::new();
        let mut sig = Vec::new();
        for token in tokens {
            if token.is_comment() {
                comment_lines.insert(token.line);
                parse_allow_comment(&token, &mut allows, &mut bad_allows);
            } else {
                code_lines.insert(token.line);
                sig.push(token);
            }
        }
        let parsed = parse_file(&sig);
        let krate = crate_of(path);
        self.crate_names.insert(krate.clone());
        self.ws.add_file(Path::new(path), &krate, parsed);
        self.view_by_path
            .insert(PathBuf::from(path), self.views.len());
        self.views.push((
            path.to_string(),
            FileView {
                comment_lines,
                code_lines,
                allows,
                bad_allows,
            },
        ));
    }

    /// Run every rule and the allow audit. Violations are unsorted;
    /// the caller orders them.
    pub fn run(mut self) -> (Vec<Violation>, Vec<AllowEntry>) {
        self.ws.link(&self.crate_names);
        let mut out = Vec::new();
        self.check_file_rules(&mut out);
        self.check_transitive_panics(&mut out);
        self.check_reactor_blocking(&mut out);
        self.check_lock_order(&mut out);
        let allows = self.finish_allows(&mut out);
        (out, allows)
    }

    fn view_of(&self, path: &Path) -> Option<&FileView> {
        self.view_by_path.get(path).map(|&i| &self.views[i].1)
    }

    /// Emit unless an adjacent allow entry for `rule` suppresses it.
    fn emit(
        &self,
        rule: Rule,
        path: &Path,
        line: usize,
        column: usize,
        message: String,
        out: &mut Vec<Violation>,
    ) {
        if let Some(view) = self.view_of(path) {
            if view.consume_allow(rule, line) {
                return;
            }
        }
        out.push(Violation {
            rule: rule.id().into(),
            path: path.to_string_lossy().into_owned(),
            line,
            column,
            message,
        });
    }

    // -------------------------------------------------- per-file rules

    fn check_file_rules(&self, out: &mut Vec<Violation>) {
        for id in 0..self.ws.fns.len() {
            let node = &self.ws.fns[id];
            if node.def.is_test {
                continue;
            }
            let path_str = node.path.to_string_lossy().into_owned();
            let view = self.view_of(&node.path);
            let r1 = Rule::NoPanic.applies_to(&path_str);
            let r5 = Rule::EpochWrite.applies_to(&path_str);
            for op in &node.def.ops {
                match op {
                    Op::Method {
                        name, line, column, ..
                    } if r1 && matches!(name.as_str(), "unwrap" | "expect") => {
                        self.emit(
                            Rule::NoPanic,
                            &node.path,
                            *line,
                            *column,
                            format!(
                                "`.{name}()` on the panic-free path — return a typed error instead"
                            ),
                            out,
                        );
                    }
                    Op::MacroUse {
                        name, line, column, ..
                    } if r1 && is_panic_macro(name) => {
                        self.emit(
                            Rule::NoPanic,
                            &node.path,
                            *line,
                            *column,
                            format!("`{name}!` on the panic-free path"),
                            out,
                        );
                    }
                    Op::Index { line, column } if r1 => {
                        self.emit(
                            Rule::NoPanic,
                            &node.path,
                            *line,
                            *column,
                            "`[…]` indexing can panic — use `.get(…)`/`split_at_checked` or \
                             justify"
                                .to_string(),
                            out,
                        );
                    }
                    Op::OrderingUse { name, line, column } => {
                        let justified = view.is_some_and(|v| v.has_adjacent_comment(*line));
                        if !justified {
                            self.emit(
                                Rule::AtomicOrder,
                                &node.path,
                                *line,
                                *column,
                                format!(
                                    "`Ordering::{name}` without a same-line or preceding \
                                     justification comment"
                                ),
                                out,
                            );
                        }
                    }
                    Op::FieldWrite { name, line, column } if r5 => {
                        self.emit(
                            Rule::EpochWrite,
                            &node.path,
                            *line,
                            *column,
                            format!(
                                "`{name}` written outside the blessed engine module — epochs \
                                 must move through the asserting constructors"
                            ),
                            out,
                        );
                    }
                    _ => {}
                }
            }
        }
        // The blessed modules' side of the R5 bargain: their non-test
        // code must actually carry an epoch assertion.
        for (path_str, _) in &self.views {
            if !is_blessed_epoch_module(path_str) {
                continue;
            }
            let upheld = self.ws.fns.iter().any(|n| {
                n.path.to_string_lossy() == *path_str
                    && !n.def.is_test
                    && n.def.ops.iter().any(|op| {
                        matches!(
                            op,
                            Op::MacroUse { name, epoch_assert: true, .. }
                                if name.starts_with("assert")
                        )
                    })
            });
            if !upheld {
                out.push(Violation {
                    rule: Rule::EpochWrite.id().into(),
                    path: path_str.clone(),
                    line: 1,
                    column: 1,
                    message: "blessed epoch module carries no epoch monotonicity assertion".into(),
                });
            }
        }
    }

    // ------------------------------------------------ R1 (transitive)

    /// A panic in *any* workspace function reachable from the
    /// panic-free scope is flagged at the panic site and at the
    /// in-scope call that first leaves the scope toward it. Indexing is
    /// deliberately direct-scope-only: the hot path must not index, but
    /// a bounds-checked slice walk deep in the engine is that crate's
    /// own business.
    fn check_transitive_panics(&self, out: &mut Vec<Violation>) {
        let in_scope = |node: &FnNode| Rule::NoPanic.applies_to(&node.path.to_string_lossy());
        let roots: Vec<FnId> = (0..self.ws.fns.len())
            .filter(|&id| in_scope(&self.ws.fns[id]) && !self.ws.fns[id].def.is_test)
            .collect();
        if roots.is_empty() {
            return;
        }
        let pred = self.ws.reach(&roots);
        let mut reached: Vec<FnId> = pred.keys().copied().collect();
        reached.sort_unstable();
        for id in reached {
            let node = &self.ws.fns[id];
            if in_scope(node) {
                continue; // direct pass owns in-scope sites
            }
            let sites: Vec<(&str, usize, usize)> = node
                .def
                .ops
                .iter()
                .filter_map(|op| match op {
                    Op::Method {
                        name, line, column, ..
                    } if matches!(name.as_str(), "unwrap" | "expect") => {
                        Some((name.as_str(), *line, *column))
                    }
                    Op::MacroUse {
                        name, line, column, ..
                    } if is_panic_macro(name) => Some((name.as_str(), *line, *column)),
                    _ => None,
                })
                .collect();
            if sites.is_empty() {
                continue;
            }
            let chain = self.ws.chain_text(&pred, id);
            for (what, line, column) in &sites {
                self.emit(
                    Rule::NoPanic,
                    &node.path,
                    *line,
                    *column,
                    format!(
                        "`{what}` can panic and is reachable from the panic-free path: {chain}"
                    ),
                    out,
                );
            }
            // The in-scope call site: the last in-scope fn on the
            // chain, at the op that resolves to the next hop.
            if let Some((caller, callee)) = self.scope_exit_edge(&pred, id, &in_scope) {
                let caller_node = &self.ws.fns[caller];
                if let Some((line, column)) = self.op_position_of_edge(caller, callee) {
                    self.emit(
                        Rule::NoPanic,
                        &caller_node.path,
                        line,
                        column,
                        format!(
                            "call into `{}` reaches a panic site at {}:{} ({})",
                            self.ws.fn_label(callee),
                            node.path.to_string_lossy(),
                            sites[0].1,
                            chain
                        ),
                        out,
                    );
                }
            }
        }
    }

    /// Walk the predecessor chain of `id` back to its root and return
    /// the edge where the chain last leaves the rule scope.
    fn scope_exit_edge(
        &self,
        pred: &HashMap<FnId, FnId>,
        id: FnId,
        in_scope: &dyn Fn(&FnNode) -> bool,
    ) -> Option<(FnId, FnId)> {
        let mut chain = vec![id];
        let mut cur = id;
        while let Some(&p) = pred.get(&cur) {
            if p == cur {
                break;
            }
            chain.push(p);
            cur = p;
        }
        chain.reverse(); // root … id
        for w in chain.windows(2).rev() {
            if in_scope(&self.ws.fns[w[0]]) && !in_scope(&self.ws.fns[w[1]]) {
                return Some((w[0], w[1]));
            }
        }
        None
    }

    /// Source position of the op in `caller` that resolves to `callee`.
    fn op_position_of_edge(&self, caller: FnId, callee: FnId) -> Option<(usize, usize)> {
        for op in &self.ws.fns[caller].def.ops {
            if self.ws.resolve_op(caller, op, &self.crate_names) == Some(callee) {
                match op {
                    Op::Call { line, column, .. } | Op::Method { line, column, .. } => {
                        return Some((*line, *column));
                    }
                    _ => {}
                }
            }
        }
        None
    }

    // ------------------------------------------------------------- R6

    /// Nothing blocking reachable from a reactor turn. Roots and
    /// blessed sites come from the catalog; traversal stops at blessed
    /// fns (their bodies are the sanctioned poll/idle-sweep sites).
    fn check_reactor_blocking(&self, out: &mut Vec<Violation>) {
        let roots: Vec<FnId> = REACTOR_ROOTS
            .iter()
            .filter_map(|(suffix, ty, name)| self.ws.find_fn(suffix, *ty, name))
            .collect();
        if roots.is_empty() {
            return;
        }
        let blessed: BTreeSet<FnId> = REACTOR_BLESSED
            .iter()
            .filter_map(|(suffix, ty, name)| self.ws.find_fn(suffix, *ty, name))
            .collect();
        let pred = self.ws.reach_excluding(&roots, &blessed);
        let locks = self.ws.transitive_locks();
        let mut reached: Vec<FnId> = pred.keys().copied().collect();
        reached.sort_unstable();
        for id in reached {
            let node = &self.ws.fns[id];
            let chain = self.ws.chain_text(&pred, id);
            let mut held: Vec<(String, usize)> = Vec::new();
            let mut depth = 0usize;
            for op in &node.def.ops {
                match op {
                    Op::BlockOpen => depth += 1,
                    Op::BlockClose => {
                        depth = depth.saturating_sub(1);
                        held.retain(|(_, d)| *d <= depth);
                    }
                    Op::Method {
                        name,
                        recv,
                        line,
                        column,
                    } => {
                        if BLOCKING_METHODS.contains(&name.as_str()) {
                            self.emit(
                                Rule::NoBlocking,
                                &node.path,
                                *line,
                                *column,
                                format!(
                                    "blocking `.{name}()` reachable from the reactor: {chain} \
                                     — one blocked turn stalls every connection"
                                ),
                                out,
                            );
                        }
                        if let Some(lock) = self.ws.lock_acquired(node, name, recv) {
                            held.push((lock, depth));
                        } else if let Some(callee) = self.ws.resolve_op(id, op, &self.crate_names) {
                            self.flag_handoff_under_lock(
                                node, &held, callee, &locks, *line, *column, &chain, out,
                            );
                        }
                    }
                    Op::Call { line, column, path } => {
                        if path
                            .last()
                            .is_some_and(|l| BLOCKING_PATHS.contains(&l.as_str()))
                        {
                            self.emit(
                                Rule::NoBlocking,
                                &node.path,
                                *line,
                                *column,
                                format!(
                                    "blocking `{}` reachable from the reactor: {chain} — one \
                                     blocked turn stalls every connection",
                                    path.join("::")
                                ),
                                out,
                            );
                        } else if let Some(callee) = self.ws.resolve_op(id, op, &self.crate_names) {
                            self.flag_handoff_under_lock(
                                node, &held, callee, &locks, *line, *column, &chain, out,
                            );
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// On the reactor path, a lock held across a call into a function
    /// that itself takes locks is a hand-off under lock: the reactor
    /// thread's critical section now includes someone else's.
    #[allow(clippy::too_many_arguments)]
    fn flag_handoff_under_lock(
        &self,
        node: &FnNode,
        held: &[(String, usize)],
        callee: FnId,
        locks: &[BTreeSet<String>],
        line: usize,
        column: usize,
        chain: &str,
        out: &mut Vec<Violation>,
    ) {
        if held.is_empty() || locks[callee].is_empty() {
            return;
        }
        let held_names: Vec<&str> = held.iter().map(|(l, _)| l.as_str()).collect();
        self.emit(
            Rule::NoBlocking,
            &node.path,
            line,
            column,
            format!(
                "`{}` held across call into `{}` (which takes `{}`) on the reactor path: {chain}",
                held_names.join("`, `"),
                self.ws.fn_label(callee),
                locks[callee]
                    .iter()
                    .cloned()
                    .collect::<Vec<_>>()
                    .join("`, `"),
            ),
            out,
        );
    }

    // ------------------------------------------------------------- R7

    /// One global acquisition order over the serve/par/proxy lock set.
    /// Guard lifetime is approximated as held-to-end-of-enclosing-block;
    /// calls made under a lock order that lock against everything the
    /// callee transitively acquires.
    fn check_lock_order(&self, out: &mut Vec<Violation>) {
        let in_scope = |lock: &str| {
            let owner = lock.split('.').next().unwrap_or(lock);
            self.ws
                .lock_owner_paths
                .get(owner)
                .is_some_and(|p| Rule::LockOrder.applies_to(&p.to_string_lossy()))
        };
        let locks = self.ws.transitive_locks();
        let mut order = LockOrder::default();
        // The declared pairs go in first, so they are the witnessed
        // direction and any code nesting them the other way is the
        // reported inversion.
        for (first, second) in DECLARED_LOCK_ORDER {
            order.record(
                first,
                second,
                Path::new("crates/lint/src/catalog.rs"),
                0,
                0,
                "the declared order (DECLARED_LOCK_ORDER)".to_string(),
            );
        }
        for id in 0..self.ws.fns.len() {
            let node = &self.ws.fns[id];
            if node.def.is_test {
                continue;
            }
            let mut held: Vec<(String, usize)> = Vec::new();
            let mut depth = 0usize;
            for op in &node.def.ops {
                match op {
                    Op::BlockOpen => depth += 1,
                    Op::BlockClose => {
                        depth = depth.saturating_sub(1);
                        held.retain(|(_, d)| *d <= depth);
                    }
                    Op::Method {
                        name,
                        recv,
                        line,
                        column,
                    } => {
                        if let Some(lock) = self.ws.lock_acquired(node, name, recv) {
                            if in_scope(&lock) {
                                for (h, _) in &held {
                                    order.record(
                                        h,
                                        &lock,
                                        &node.path,
                                        *line,
                                        *column,
                                        self.ws.fn_label(id),
                                    );
                                }
                                held.push((lock, depth));
                            }
                        } else if let Some(callee) = self.ws.resolve_op(id, op, &self.crate_names) {
                            for (h, _) in &held {
                                for l in &locks[callee] {
                                    if in_scope(l) {
                                        order.record(
                                            h,
                                            l,
                                            &node.path,
                                            *line,
                                            *column,
                                            self.ws.fn_label(id),
                                        );
                                    }
                                }
                            }
                        }
                    }
                    Op::Call { line, column, .. } => {
                        if let Some(callee) = self.ws.resolve_op(id, op, &self.crate_names) {
                            for (h, _) in &held {
                                for l in &locks[callee] {
                                    if in_scope(l) {
                                        order.record(
                                            h,
                                            l,
                                            &node.path,
                                            *line,
                                            *column,
                                            self.ws.fn_label(id),
                                        );
                                    }
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        for ((a, b), (path, line, column, via)) in order.cycles() {
            self.emit(
                Rule::LockOrder,
                path,
                *line,
                *column,
                format!(
                    "lock order inversion: `{via}` takes `{a}` then `{b}`, but another path \
                     orders `{b}` before `{a}` — pick one global order"
                ),
                out,
            );
        }
    }

    // ------------------------------------------------------ allow audit

    fn finish_allows(&self, out: &mut Vec<Violation>) -> Vec<AllowEntry> {
        let mut allows = Vec::new();
        for (path, view) in &self.views {
            for (line, id) in &view.bad_allows {
                out.push(Violation {
                    rule: "allow-syntax".into(),
                    path: path.clone(),
                    line: *line,
                    column: 1,
                    message: format!("allow comment names unknown rule `{id}`"),
                });
            }
            for allow in &view.allows {
                if allow.justification.is_empty() {
                    out.push(Violation {
                        rule: allow.rule.id().into(),
                        path: path.clone(),
                        line: allow.line,
                        column: 1,
                        message: format!(
                            "allow({}) entry has no written justification",
                            allow.rule.id()
                        ),
                    });
                } else if !allow.used.get() {
                    out.push(Violation {
                        rule: allow.rule.id().into(),
                        path: path.clone(),
                        line: allow.line,
                        column: 1,
                        message: format!(
                            "allow({}) entry suppresses nothing — remove the stale escape hatch",
                            allow.rule.id()
                        ),
                    });
                }
                allows.push(AllowEntry {
                    rule: allow.rule.id().into(),
                    path: path.clone(),
                    line: allow.line,
                    justification: allow.justification.clone(),
                    used: allow.used.get(),
                });
            }
        }
        allows
    }
}

/// Run every applicable rule over one file in isolation (unit-test
/// surface; workspace analysis adds the graph rules across files).
pub fn check_file(path: &str, source: &str) -> FileReport {
    let mut set = CheckSet::default();
    set.add_file(path, source);
    let (mut violations, allows) = set.run();
    violations.sort_by_key(|a| (a.line, a.column));
    FileReport { violations, allows }
}

/// `crates/serve/src/…` → `ripki_serve` (the importable crate name);
/// the root package's `src/` → `ripki_repro`.
fn crate_of(path: &str) -> String {
    let mut comps = path.split('/');
    if comps.next() == Some("crates") {
        match comps.next() {
            Some("ripki") => "ripki".to_string(),
            Some("net-types") => "ripki_net".to_string(),
            Some(dir) => format!("ripki_{}", dir.replace('-', "_")),
            None => "ripki_repro".to_string(),
        }
    } else {
        "ripki_repro".to_string()
    }
}

fn is_panic_macro(name: &str) -> bool {
    matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
}

impl FileView {
    /// Is there a comment on `line`, or on the contiguous run of
    /// comment-only lines directly above it?
    fn has_adjacent_comment(&self, line: usize) -> bool {
        if self.comment_lines.contains(&line) {
            return true;
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            let has_comment = self.comment_lines.contains(&l);
            let has_code = self.code_lines.contains(&l);
            if has_comment && !has_code {
                return true;
            }
            if has_code || !has_comment {
                // A code line (or blank line) breaks the comment block.
                return false;
            }
        }
        false
    }

    /// Find an allow entry for `rule` adjacent to `line` (same line or
    /// the contiguous comment block directly above) and mark it used.
    fn consume_allow(&self, rule: Rule, line: usize) -> bool {
        let mut candidate_lines: Vec<usize> = vec![line];
        let mut l = line;
        while l > 1 {
            l -= 1;
            if self.comment_lines.contains(&l) && !self.code_lines.contains(&l) {
                candidate_lines.push(l);
            } else {
                break;
            }
        }
        for allow in &self.allows {
            if allow.rule == rule && candidate_lines.contains(&allow.line) {
                allow.used.set(true);
                return true;
            }
        }
        false
    }
}

fn parse_allow_comment(
    token: &Token,
    allows: &mut Vec<ParsedAllow>,
    bad: &mut Vec<(usize, String)>,
) {
    // A directive is a comment that *starts* with `lint: allow(…)` —
    // prose that merely mentions the syntax mid-sentence is not one.
    let body = token
        .text
        .trim_start_matches('/')
        .trim_start_matches('*')
        .trim_start_matches('!')
        .trim_start();
    let Some(rest) = body.strip_prefix("lint: allow(") else {
        return;
    };
    let Some(close) = rest.find(')') else {
        bad.push((token.line, rest.trim().to_string()));
        return;
    };
    let id = rest[..close].trim();
    let mut justification = rest[close + 1..].trim();
    justification = justification
        .trim_end_matches("*/")
        .trim_start_matches("--")
        .trim();
    match Rule::from_id(id) {
        Some(rule) => allows.push(ParsedAllow {
            rule,
            line: token.line,
            justification: justification.to_string(),
            used: std::cell::Cell::new(false),
        }),
        None => bad.push((token.line, id.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SERVE_PATH: &str = "crates/serve/src/http.rs";

    fn violations(path: &str, src: &str) -> Vec<Violation> {
        check_file(path, src).violations
    }

    #[test]
    fn unwrap_on_request_path_is_flagged() {
        let v = violations(SERVE_PATH, "fn f(x: Option<u8>) -> u8 { x.unwrap() }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-panic");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn unwrap_in_test_mod_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn f(x: Option<u8>) { x.unwrap(); }\n}\n";
        assert!(violations(SERVE_PATH, src).is_empty());
    }

    #[test]
    fn unwrap_outside_scope_is_not_flagged() {
        let v = violations(
            "crates/dns/src/zone.rs",
            "fn f(x: Option<u8>) { x.unwrap(); }",
        );
        assert!(v.is_empty());
    }

    #[test]
    fn panic_in_string_literal_or_comment_is_invisible() {
        let src = "fn f() -> &'static str {\n    // a panic! here is just prose\n    \
                   \"otherwise we panic!(now)\"\n}\n\
                   /// Example: `x.unwrap()` would panic!(here)\nfn g() {}\n";
        assert!(violations(SERVE_PATH, src).is_empty());
    }

    #[test]
    fn allow_comment_suppresses_and_is_counted() {
        let src = "fn f(b: &[u8]) -> u8 {\n    // lint: allow(no-panic) caller checked len\n    b[0]\n}\n";
        let report = check_file(SERVE_PATH, src);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.allows.len(), 1);
        assert!(report.allows[0].used);
        assert_eq!(report.allows[0].justification, "caller checked len");
    }

    #[test]
    fn allow_without_justification_is_a_violation() {
        let src = "fn f(b: &[u8]) -> u8 {\n    b[0] // lint: allow(no-panic)\n}\n";
        let report = check_file(SERVE_PATH, src);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0]
            .message
            .contains("no written justification"));
    }

    #[test]
    fn stale_allow_is_a_violation() {
        let src = "// lint: allow(no-panic) nothing here anymore\nfn f() {}\n";
        let report = check_file(SERVE_PATH, src);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].message.contains("suppresses nothing"));
    }

    #[test]
    fn indexing_is_flagged_but_types_are_not() {
        let src = "fn f(b: &[u8], i: usize) -> u8 { let _a: [u8; 4] = [0; 4]; b[i] }";
        let v = violations(SERVE_PATH, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("indexing"));
    }

    #[test]
    fn ordering_needs_a_comment() {
        let bare = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
        let same_line =
            "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); // independent counter\n }";
        let above = "fn f(c: &AtomicU64) {\n    // independent counter\n    c.fetch_add(1, Ordering::Relaxed);\n}";
        let path = "crates/dns/src/cache.rs";
        assert_eq!(violations(path, bare).len(), 1);
        assert!(violations(path, same_line).is_empty());
        assert!(violations(path, above).is_empty());
        // SeqCst is the conservative default and never flagged.
        let seqcst = "fn f(c: &AtomicU64) { c.load(Ordering::SeqCst); }";
        assert!(violations(path, seqcst).is_empty());
    }

    #[test]
    fn cmp_ordering_is_not_atomic_ordering() {
        let src = "fn f() -> std::cmp::Ordering { std::cmp::Ordering::Less }";
        assert!(violations("crates/dns/src/cache.rs", src).is_empty());
    }

    #[test]
    fn epoch_write_outside_engine_flagged() {
        let literal = "fn f(e: u64) -> Delta { Delta { from_epoch: e, payload: 0 } }";
        let assign = "fn f(r: &mut Results) { r.epoch = 9; }";
        let path = "crates/serve/src/view.rs";
        assert_eq!(violations(path, literal).len(), 1);
        assert_eq!(violations(path, assign).len(), 1);
    }

    #[test]
    fn epoch_declarations_are_not_writes() {
        let decl = "pub struct Delta { pub from_epoch: u64, pub to_epoch: u64 }";
        let param = "fn stamp(epoch: u64) -> u64 { epoch }";
        let path = "crates/serve/src/view.rs";
        assert!(violations(path, decl).is_empty(), "struct decl");
        assert!(violations(path, param).is_empty(), "fn param");
        // Closure parameter annotations are declarations too.
        let closure = "fn f() { let g = |epoch: u64, n: usize| epoch + n as u64; g(1, 2); }";
        assert!(violations(path, closure).is_empty(), "closure param");
        // Reads and comparisons are free.
        let read = "fn f(r: &Results) -> bool { r.epoch == 4 && r.epoch >= 2 }";
        assert!(violations(path, read).is_empty(), "reads");
    }

    #[test]
    fn slurm_epoch_writes_blessed_under_its_assert() {
        // The fixture mirrors ripki-slurm's delta mapping: epochs
        // copied verbatim into a struct literal, guarded by the
        // module's own forward-motion assertion.
        let shift = "fn shift(d: Delta, off: u64) -> Delta {\n\
                     \x20   assert!(d.to_epoch > d.from_epoch, \"forward\");\n\
                     \x20   Delta { from_epoch: d.from_epoch + off, to_epoch: d.to_epoch + off }\n\
                     }";
        assert!(
            violations("crates/slurm/src/lib.rs", shift).is_empty(),
            "slurm is a blessed epoch module"
        );
        // The same writes anywhere else stay violations.
        assert_eq!(violations("crates/proxy/src/units.rs", shift).len(), 2);
        // And the blessing is a bargain: drop the assert and the slurm
        // module itself gets flagged.
        let unguarded =
            "fn shift(d: Delta) -> Delta { Delta { from_epoch: d.from_epoch, to_epoch: 0 } }";
        let v = violations("crates/slurm/src/lib.rs", unguarded);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("monotonicity assertion"));
    }

    #[test]
    fn blessed_module_must_assert() {
        let good = "fn publish(old: u64, new_epoch: u64) { assert!(new_epoch > old, \"epoch\"); }";
        let bad = "fn publish(e: u64) -> u64 { e + 1 }";
        assert!(violations("crates/ripki/src/engine.rs", good).is_empty());
        let v = violations("crates/ripki/src/engine.rs", bad);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("monotonicity assertion"));
    }

    // ------------------------------------------ graph rules, in-memory

    fn run_set(files: &[(&str, &str)]) -> Vec<Violation> {
        let mut set = CheckSet::default();
        for (path, src) in files {
            set.add_file(path, src);
        }
        let (mut v, _) = set.run();
        v.sort_by(|a, b| (&a.path, a.line, a.column).cmp(&(&b.path, b.line, b.column)));
        v
    }

    #[test]
    fn transitive_panic_two_hops_cross_crate() {
        let v = run_set(&[
            (
                "crates/serve/src/http.rs",
                "use ripki_payload::json;\nfn respond(b: &[u8]) { json::encode(b); }\n",
            ),
            (
                "crates/payload/src/json.rs",
                "pub fn encode(b: &[u8]) { deep(b); }\nfn deep(b: &[u8]) { \
                 b.first().unwrap(); }\n",
            ),
        ]);
        // Two findings: the panic site in payload, the call site in serve.
        assert_eq!(v.len(), 2, "{v:?}");
        let panic_site = v
            .iter()
            .find(|x| x.path.contains("payload"))
            .expect("panic site");
        assert!(panic_site.message.contains("respond -> encode -> deep"));
        let call_site = v
            .iter()
            .find(|x| x.path.contains("serve"))
            .expect("call site");
        assert!(call_site.message.contains("reaches a panic site"));
    }

    #[test]
    fn unreachable_panic_outside_scope_is_clean() {
        let v = run_set(&[
            (
                "crates/serve/src/http.rs",
                "fn respond(b: &[u8]) -> usize { b.len() }\n",
            ),
            (
                "crates/payload/src/json.rs",
                "pub fn never_called(b: &[u8]) { b.first().unwrap(); }\n",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn reactor_blocking_two_hops_down() {
        let v = run_set(&[
            (
                "crates/serve/src/reactor.rs",
                "impl Reactor { pub fn turn(&mut self) -> bool { helper(); true } }\n\
                 fn helper() { ripki_par::throttle(); }\n",
            ),
            (
                "crates/par/src/lib.rs",
                "pub fn throttle() { std::thread::sleep(std::time::Duration::from_millis(1)); }\n",
            ),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "no-blocking");
        assert!(v[0].message.contains("Reactor::turn -> helper -> throttle"));
    }

    #[test]
    fn blessed_reactor_sites_are_not_traversed() {
        let v = run_set(&[(
            "crates/serve/src/reactor.rs",
            "impl Reactor { pub fn turn(&mut self) -> bool { \
             self.drain_wake_pipe(); poll_fds(); true } \
             fn drain_wake_pipe(&mut self) { self.pipe_reader.recv(); } }\n\
             fn poll_fds() { unsafe_poll_wait(); }\nfn unsafe_poll_wait() {}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn lock_order_inversion_is_flagged_and_consistent_order_is_clean() {
        let inverted = run_set(&[(
            "crates/serve/src/view.rs",
            "pub struct A { alpha: Mutex<u8> }\npub struct B { beta: Mutex<u8> }\n\
             impl A { fn forward(&self, b: &B) { let _g = self.alpha.lock(); \
             let _h = b.beta.lock(); } }\n\
             impl B { fn backward(&self, a: &A) { let _g = self.beta.lock(); \
             let _h = a.alpha.lock(); } }\n",
        )]);
        assert_eq!(inverted.len(), 1, "{inverted:?}");
        assert_eq!(inverted[0].rule, "lock-order");
        assert!(inverted[0].message.contains("lock order inversion"));

        let consistent = run_set(&[(
            "crates/serve/src/view.rs",
            "pub struct A { alpha: Mutex<u8> }\npub struct B { beta: Mutex<u8> }\n\
             impl A { fn one(&self, b: &B) { let _g = self.alpha.lock(); \
             let _h = b.beta.lock(); } \
             fn two(&self, b: &B) { let _g = self.alpha.lock(); let _h = b.beta.lock(); } }\n",
        )]);
        assert!(consistent.is_empty(), "{consistent:?}");
    }

    #[test]
    fn scoped_guard_release_breaks_the_order_edge() {
        // The first lock is dropped (block closed) before the second is
        // taken: no edge, no inversion even against a reversed pair.
        let v = run_set(&[(
            "crates/serve/src/view.rs",
            "pub struct A { alpha: Mutex<u8> }\npub struct B { beta: Mutex<u8> }\n\
             impl A { fn forward(&self, b: &B) { { let _g = self.alpha.lock(); } \
             let _h = b.beta.lock(); } }\n\
             impl B { fn backward(&self, a: &A) { { let _g = self.beta.lock(); } \
             let _h = a.alpha.lock(); } }\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }
}
