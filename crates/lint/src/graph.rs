//! The workspace call graph over [`crate::parse`]'s item trees.
//!
//! Every parsed file contributes its functions as nodes; edges are
//! resolved from body [`Op`]s using the file's `use` map, the crate's
//! module tree, impl-type receivers, and (as a last resort) a
//! unique-name match for `var.method()` calls whose method name occurs
//! exactly once in the workspace. Paths into `std`/`core`/`alloc` or
//! vendored crates produce no edges — the graph is *workspace*-exact,
//! and external effects (blocking, panicking) are modelled by the op
//! patterns in [`crate::rules`], not by edges.
//!
//! On top of the graph: BFS reachability with predecessor chains (for
//! "reachable from the reactor via a → b → c" diagnostics) and a
//! per-function transitive lock-acquisition summary for R7.

use crate::parse::{FnDef, LockKind, Op, ParsedFile, Recv};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::path::{Path, PathBuf};

/// Methods so common on std types that a unique-name fallback match
/// would be noise, never signal.
const COMMON_METHODS: &[&str] = &[
    "all",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "borrow",
    "borrow_mut",
    "capacity",
    "chain",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "copied",
    "count",
    "dedup",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "extend",
    "filter",
    "filter_map",
    "find",
    "flat_map",
    "flatten",
    "fold",
    "get",
    "get_mut",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lock",
    "map",
    "max",
    "min",
    "next",
    "parse",
    "peek",
    "pop",
    "position",
    "push",
    "read",
    "recv",
    "remove",
    "retain",
    "rev",
    "send",
    "skip",
    "sort",
    "sort_by",
    "split",
    "starts_with",
    "sum",
    "take",
    "then",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "try_into",
    "unwrap",
    "unwrap_or",
    "values",
    "wait",
    "write",
    "zip",
];

/// Path prefixes that never resolve into the workspace.
const EXTERNAL_ROOTS: &[&str] = &[
    "std",
    "core",
    "alloc",
    "libc",
    "rand",
    "proptest",
    "bytes",
    "serde",
    "serde_json",
    "loom",
];

/// A function's identity in the graph.
pub type FnId = usize;

/// One graph node: a function plus where it lives.
pub struct FnNode {
    /// Workspace-relative file path (canonical form).
    pub path: PathBuf,
    /// Crate name as importable (`ripki_serve`, not `ripki-serve`).
    pub krate: String,
    /// The parsed definition.
    pub def: FnDef,
}

/// The assembled workspace.
#[derive(Default)]
pub struct Workspace {
    /// All nodes, indexed by [`FnId`].
    pub fns: Vec<FnNode>,
    /// Resolved call edges, deduplicated, caller → callees.
    pub edges: Vec<Vec<FnId>>,
    /// Per-file `use` maps: binding name → path segments.
    use_maps: HashMap<PathBuf, HashMap<String, Vec<String>>>,
    /// Glob imports per file: the module paths starred in.
    glob_uses: HashMap<PathBuf, Vec<Vec<String>>>,
    /// (crate, module-chain, fn-name) → id, for free functions.
    free_fns: HashMap<(String, Vec<String>, String), FnId>,
    /// (impl type, method name) → ids (cross-crate; usually unique).
    methods: HashMap<(String, String), Vec<FnId>>,
    /// Method name → ids across all impls, for the unique-name
    /// fallback.
    by_method_name: HashMap<String, Vec<FnId>>,
    /// Lock fields: (owner type, field name) → kind.
    pub lock_fields: HashMap<(String, String), LockKind>,
    /// Field name → owners, to resolve `self.field.lock()` when the
    /// impl type is known, and bare `name.lock()` when unique.
    lock_field_owners: HashMap<String, Vec<String>>,
    /// Lock owner type → file that declares it, so rules can scope the
    /// lock set to the concurrent crates.
    pub lock_owner_paths: HashMap<String, PathBuf>,
}

/// A resolved call edge paired with the op it came from — kept per
/// function for rule checks that need op-level positions.
pub struct ResolvedOp<'a> {
    /// The originating op.
    pub op: &'a Op,
    /// The workspace callee, when resolution found one.
    pub callee: Option<FnId>,
}

impl Workspace {
    /// Add one parsed file. `path` must be the canonical
    /// workspace-relative path (`crates/<name>/src/...`).
    pub fn add_file(&mut self, path: &Path, krate: &str, file: ParsedFile) {
        let mut use_map = HashMap::new();
        let mut globs = Vec::new();
        for u in &file.uses {
            if u.name == "*" {
                globs.push(u.path.clone());
            } else {
                use_map.insert(u.name.clone(), u.path.clone());
            }
        }
        self.use_maps.insert(path.to_path_buf(), use_map);
        self.glob_uses.insert(path.to_path_buf(), globs);
        for lf in &file.lock_fields {
            self.lock_fields
                .insert((lf.owner.clone(), lf.field.clone()), lf.kind);
            self.lock_field_owners
                .entry(lf.field.clone())
                .or_default()
                .push(lf.owner.clone());
            self.lock_owner_paths
                .entry(lf.owner.clone())
                .or_insert_with(|| path.to_path_buf());
        }
        let file_module = file_module_chain(path);
        for def in file.fns {
            let id = self.fns.len();
            let mut module = file_module.clone();
            module.extend(def.module.iter().cloned());
            if let Some(ty) = &def.impl_type {
                self.methods
                    .entry((ty.clone(), def.name.clone()))
                    .or_default()
                    .push(id);
                self.by_method_name
                    .entry(def.name.clone())
                    .or_default()
                    .push(id);
            } else {
                self.free_fns
                    .entry((krate.to_string(), module.clone(), def.name.clone()))
                    .or_insert(id);
            }
            self.fns.push(FnNode {
                path: path.to_path_buf(),
                krate: krate.to_string(),
                def,
            });
        }
    }

    /// Resolve all edges. Call once after every file is added.
    pub fn link(&mut self, crate_names: &BTreeSet<String>) {
        self.edges = (0..self.fns.len())
            .map(|id| {
                let mut out = BTreeSet::new();
                for op in &self.fns[id].def.ops {
                    if let Some(callee) = self.resolve_op(id, op, crate_names) {
                        if callee != id {
                            out.insert(callee);
                        }
                    }
                }
                out.into_iter().collect()
            })
            .collect();
    }

    /// Resolve one op to a workspace callee, if any.
    pub fn resolve_op(
        &self,
        caller: FnId,
        op: &Op,
        crate_names: &BTreeSet<String>,
    ) -> Option<FnId> {
        let node = &self.fns[caller];
        match op {
            Op::Call { path, .. } => self.resolve_path_call(node, path, crate_names),
            Op::Method { name, recv, .. } => self.resolve_method(node, name, recv),
            _ => None,
        }
    }

    fn resolve_path_call(
        &self,
        node: &FnNode,
        path: &[String],
        crate_names: &BTreeSet<String>,
    ) -> Option<FnId> {
        match path {
            [] => None,
            [name] => {
                // Bare call: same module, then use map, then glob
                // imports.
                let module = self.module_of(node);
                if let Some(&id) =
                    self.free_fns
                        .get(&(node.krate.clone(), module.clone(), name.clone()))
                {
                    return Some(id);
                }
                if let Some(full) = self.use_maps.get(&node.path).and_then(|m| m.get(name)) {
                    return self.resolve_absolute(node, full, crate_names);
                }
                for glob in self.glob_uses.get(&node.path).into_iter().flatten() {
                    let mut full = glob.clone();
                    full.push(name.clone());
                    if let Some(id) = self.resolve_absolute(node, &full, crate_names) {
                        return Some(id);
                    }
                }
                // Enclosing modules up to the crate root (Rust requires
                // explicit `self::`/`super::` for parents, but a bare
                // name also finds items in ancestor scopes of the same
                // file's nested mods; cheap and safe to try).
                let mut prefix = module;
                while prefix.pop().is_some() {
                    if let Some(&id) =
                        self.free_fns
                            .get(&(node.krate.clone(), prefix.clone(), name.clone()))
                    {
                        return Some(id);
                    }
                }
                None
            }
            [head, rest @ ..] => {
                // Qualified path. `Type::method` first: a two-segment
                // path whose head is a known impl type (directly or via
                // an alias).
                if rest.len() == 1 {
                    let ty = if head == "Self" {
                        node.def.impl_type.clone()
                    } else {
                        Some(head.clone())
                    };
                    if let Some(ty) = ty {
                        let ty = self
                            .use_maps
                            .get(&node.path)
                            .and_then(|m| m.get(&ty))
                            .and_then(|p| p.last())
                            .cloned()
                            .unwrap_or(ty);
                        if let Some(ids) = self.methods.get(&(ty, rest[0].clone())) {
                            if let [id] = ids.as_slice() {
                                return Some(*id);
                            }
                        }
                    }
                }
                // Absolute or use-aliased module path.
                let mut full: Vec<String> = Vec::new();
                if let Some(mapped) = self.use_maps.get(&node.path).and_then(|m| m.get(head)) {
                    full.extend(mapped.iter().cloned());
                    full.extend(rest.iter().cloned());
                } else {
                    full.push(head.clone());
                    full.extend(rest.iter().cloned());
                }
                self.resolve_absolute(node, &full, crate_names)
            }
        }
    }

    /// Resolve a fully-spelled path (`crate::a::f`, `super::f`,
    /// `ripki_payload::json::encode`, …) to a free fn or a
    /// `Type::method`.
    fn resolve_absolute(
        &self,
        node: &FnNode,
        path: &[String],
        crate_names: &BTreeSet<String>,
    ) -> Option<FnId> {
        let (krate, segs): (String, Vec<String>) = match path.first().map(String::as_str) {
            Some("crate") => (node.krate.clone(), path[1..].to_vec()),
            Some("self") => {
                let mut m = self.module_of(node);
                m.extend(path[1..].iter().cloned());
                (node.krate.clone(), m)
            }
            Some("super") => {
                let mut m = self.module_of(node);
                let mut rest = path;
                while rest.first().map(String::as_str) == Some("super") {
                    m.pop();
                    rest = &rest[1..];
                }
                m.extend(rest.iter().cloned());
                (node.krate.clone(), m)
            }
            Some(head) if EXTERNAL_ROOTS.contains(&head) => return None,
            Some(head) if crate_names.contains(head) => (head.to_string(), path[1..].to_vec()),
            // Unanchored multi-segment path: relative to the current
            // module (`mod sub; … sub::helper()`).
            Some(_) => {
                let mut m = self.module_of(node);
                m.extend(path.iter().cloned());
                (node.krate.clone(), m)
            }
            None => return None,
        };
        let [module @ .., name] = segs.as_slice() else {
            return None;
        };
        if let Some(&id) = self
            .free_fns
            .get(&(krate.clone(), module.to_vec(), name.clone()))
        {
            return Some(id);
        }
        // `path::Type::method` — second-to-last segment an impl type.
        if let [_module_rest @ .., ty] = module {
            if ty.starts_with(char::is_uppercase) {
                if let Some(ids) = self.methods.get(&(ty.clone(), name.clone())) {
                    if let [id] = ids.as_slice() {
                        return Some(*id);
                    }
                }
            }
        }
        None
    }

    fn resolve_method(&self, node: &FnNode, name: &str, recv: &Recv) -> Option<FnId> {
        match recv {
            Recv::SelfRecv => {
                let ty = node.def.impl_type.as_ref()?;
                match self
                    .methods
                    .get(&(ty.clone(), name.to_string()))?
                    .as_slice()
                {
                    [id] => Some(*id),
                    ids => ids
                        .iter()
                        .copied()
                        .find(|&id| self.fns[id].krate == node.krate),
                }
            }
            Recv::Field(_) | Recv::Var(_) | Recv::Expr => {
                // Unique-name fallback: method names that exist exactly
                // once in the workspace and are not std noise resolve
                // even without type information. This is what makes
                // 2-hop chains like `conn.machine.step()` traceable.
                if COMMON_METHODS.contains(&name) {
                    return None;
                }
                match self.by_method_name.get(name)?.as_slice() {
                    [id] => Some(*id),
                    _ => None,
                }
            }
        }
    }

    fn module_of(&self, node: &FnNode) -> Vec<String> {
        let mut m = file_module_chain(&node.path);
        m.extend(node.def.module.iter().cloned());
        m
    }

    /// BFS from `roots`; returns, for each reached fn, its predecessor
    /// (and the root is its own predecessor). Test fns are never
    /// traversed.
    pub fn reach(&self, roots: &[FnId]) -> HashMap<FnId, FnId> {
        self.reach_excluding(roots, &BTreeSet::new())
    }

    /// [`Workspace::reach`] that never enters `skip` nodes — used by R6
    /// so traversal stops at the blessed poll/idle-sweep sites.
    pub fn reach_excluding(&self, roots: &[FnId], skip: &BTreeSet<FnId>) -> HashMap<FnId, FnId> {
        let mut pred: HashMap<FnId, FnId> = HashMap::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        for &r in roots {
            if !self.fns[r].def.is_test && !skip.contains(&r) {
                pred.insert(r, r);
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            for &next in &self.edges[id] {
                if self.fns[next].def.is_test || skip.contains(&next) {
                    continue;
                }
                if let std::collections::hash_map::Entry::Vacant(e) = pred.entry(next) {
                    e.insert(id);
                    queue.push_back(next);
                }
            }
        }
        pred
    }

    /// Render the call chain root → … → `id` as `a::b → c::d` for
    /// diagnostics.
    pub fn chain_text(&self, pred: &HashMap<FnId, FnId>, id: FnId) -> String {
        let mut chain = vec![id];
        let mut cur = id;
        while let Some(&p) = pred.get(&cur) {
            if p == cur {
                break;
            }
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
            .iter()
            .map(|&f| self.fn_label(f))
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    /// `Type::name` or plain `name`, qualified enough to find.
    pub fn fn_label(&self, id: FnId) -> String {
        let node = &self.fns[id];
        match &node.def.impl_type {
            Some(ty) => format!("{ty}::{}", node.def.name),
            None => node.def.name.clone(),
        }
    }

    /// Find a function by `(path-suffix, impl type, name)`.
    pub fn find_fn(&self, path_suffix: &str, impl_type: Option<&str>, name: &str) -> Option<FnId> {
        self.fns.iter().position(|n| {
            n.path.to_string_lossy().ends_with(path_suffix)
                && n.def.impl_type.as_deref() == impl_type
                && n.def.name == name
        })
    }

    /// The lock id `"Owner.field"` for a lock-acquiring method op, if
    /// the receiver names a known lock field. `.lock()` acquires a
    /// Mutex; `.read()`/`.write()` acquire a RwLock (only counted on
    /// fields known to *be* RwLocks — IO reads/writes don't match
    /// because their receivers aren't lock fields).
    pub fn lock_acquired(&self, node: &FnNode, name: &str, recv: &Recv) -> Option<String> {
        let field = match recv {
            Recv::Field(f) => f,
            Recv::Var(v) => v,
            _ => return None,
        };
        let owners = self.lock_field_owners.get(field)?;
        // Prefer the impl type of the enclosing fn; else unique owner.
        let owner = match &node.def.impl_type {
            Some(ty) if owners.contains(ty) => ty.clone(),
            _ => match owners.as_slice() {
                [one] => one.clone(),
                _ => return None,
            },
        };
        let kind = *self.lock_fields.get(&(owner.clone(), field.clone()))?;
        let acquires = match kind {
            LockKind::Mutex => name == "lock",
            LockKind::RwLock => name == "read" || name == "write",
        };
        acquires.then(|| format!("{owner}.{field}"))
    }

    /// Per-function transitive lock-acquisition summary: fixpoint over
    /// the call graph of "locks this fn (or anything it calls) takes".
    pub fn transitive_locks(&self) -> Vec<BTreeSet<String>> {
        let mut own: Vec<BTreeSet<String>> = Vec::with_capacity(self.fns.len());
        for node in &self.fns {
            let mut set = BTreeSet::new();
            for op in &node.def.ops {
                if let Op::Method { name, recv, .. } = op {
                    if let Some(lock) = self.lock_acquired(node, name, recv) {
                        set.insert(lock);
                    }
                }
            }
            own.push(set);
        }
        // Propagate along reversed edges until stable. The graph is
        // small (hundreds of fns); a simple fixpoint is fine.
        let mut changed = true;
        while changed {
            changed = false;
            for id in 0..self.fns.len() {
                let mut add: Vec<String> = Vec::new();
                for &callee in &self.edges[id] {
                    for lock in &own[callee] {
                        if !own[id].contains(lock) {
                            add.push(lock.clone());
                        }
                    }
                }
                if !add.is_empty() {
                    own[id].extend(add);
                    changed = true;
                }
            }
        }
        own
    }
}

/// `crates/serve/src/reactor.rs` → `["reactor"]`; `…/src/lib.rs` and
/// `…/src/main.rs` → `[]`; `…/src/sub/mod.rs` → `["sub"]`;
/// `…/src/bin/x.rs` → `[]` (its own root).
pub fn file_module_chain(path: &Path) -> Vec<String> {
    let mut segs: Vec<String> = Vec::new();
    let mut in_src = false;
    for comp in path.components() {
        let s = comp.as_os_str().to_string_lossy();
        if !in_src {
            if s == "src" {
                in_src = true;
            }
            continue;
        }
        segs.push(s.into_owned());
    }
    if !in_src {
        return Vec::new();
    }
    let Some(last) = segs.pop() else {
        return Vec::new();
    };
    let stem = last.strip_suffix(".rs").unwrap_or(&last);
    match stem {
        "lib" | "main" | "mod" => {}
        _ => segs.push(stem.to_string()),
    }
    if segs.first().map(String::as_str) == Some("bin") {
        segs.clear();
    }
    segs
}

/// First witness of a lock-order edge: `(path, line, column,
/// description)` of the acquisition that created it.
pub type EdgeWitness = (PathBuf, usize, usize, String);

/// One detected inversion: the offending `(held, acquired)` direction
/// plus the witness of the edge to fix.
pub type CycleFinding<'a> = ((String, String), &'a EdgeWitness);

/// Directed lock-order graph: `order[a]` contains `b` when some path
/// holds `a` while (transitively) acquiring `b`. A cycle means two
/// paths disagree on acquisition order.
#[derive(Default)]
pub struct LockOrder {
    /// Edge → first witness.
    pub edges: BTreeMap<(String, String), EdgeWitness>,
}

impl LockOrder {
    /// Record `held` then `acquired` at a source position.
    pub fn record(
        &mut self,
        held: &str,
        acquired: &str,
        path: &Path,
        line: usize,
        column: usize,
        via: String,
    ) {
        if held == acquired {
            return;
        }
        self.edges
            .entry((held.to_string(), acquired.to_string()))
            .or_insert_with(|| (path.to_path_buf(), line, column, via));
    }

    /// Find cycles: returns each reversed pair `(a, b)` where both
    /// `a→b` and `b→a` exist, plus any longer cycle detected by DFS,
    /// with the witness of the lexically-later edge (the one to fix).
    pub fn cycles(&self) -> Vec<CycleFinding<'_>> {
        let mut out = Vec::new();
        // Direct inversions first — the common case and the clearest
        // diagnostic.
        for (edge, witness) in &self.edges {
            let rev = (edge.1.clone(), edge.0.clone());
            if self.edges.contains_key(&rev) && edge.0 < edge.1 {
                // Report the lexically-greater direction as the
                // violation (stable choice; the fixture pins it).
                let (e, w) = (rev.clone(), &self.edges[&rev]);
                out.push((e, w));
            }
            let _ = witness;
        }
        // Longer cycles via DFS coloring.
        let nodes: BTreeSet<&String> = self.edges.keys().flat_map(|(a, b)| [a, b]).collect();
        let mut color: HashMap<&String, u8> = HashMap::new();
        let mut stack_edges: Vec<(String, String)> = Vec::new();
        for &start in &nodes {
            if color.get(start).copied().unwrap_or(0) != 0 {
                continue;
            }
            self.dfs(start, &mut color, &mut stack_edges, &mut out);
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out.dedup_by(|a, b| a.0 == b.0);
        out
    }

    fn dfs<'a>(
        &'a self,
        node: &'a String,
        color: &mut HashMap<&'a String, u8>,
        stack: &mut Vec<(String, String)>,
        out: &mut Vec<CycleFinding<'a>>,
    ) {
        color.insert(node, 1);
        for ((a, b), witness) in &self.edges {
            if a != node {
                continue;
            }
            match color.get(b).copied().unwrap_or(0) {
                1 => {
                    // Back edge → cycle; skip 2-cycles already reported
                    // by the direct-inversion pass.
                    let rev = (b.clone(), a.clone());
                    if !self.edges.contains_key(&rev) {
                        out.push(((a.clone(), b.clone()), witness));
                    }
                }
                0 => {
                    stack.push((a.clone(), b.clone()));
                    self.dfs(b, color, stack, out);
                    stack.pop();
                }
                _ => {}
            }
        }
        color.insert(node, 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::tokenize;
    use crate::parse::parse_file;

    fn ws(files: &[(&str, &str, &str)]) -> Workspace {
        let mut w = Workspace::default();
        let mut names = BTreeSet::new();
        for (krate, _, _) in files {
            names.insert(krate.to_string());
        }
        for (krate, path, src) in files {
            let sig: Vec<_> = tokenize(src)
                .into_iter()
                .filter(|t| !t.is_comment())
                .collect();
            w.add_file(Path::new(path), krate, parse_file(&sig));
        }
        w.link(&names);
        w
    }

    fn edge(
        w: &Workspace,
        from: (&str, Option<&str>, &str),
        to: (&str, Option<&str>, &str),
    ) -> bool {
        let f = w.find_fn(from.0, from.1, from.2).expect("from fn");
        let t = w.find_fn(to.0, to.1, to.2).expect("to fn");
        w.edges[f].contains(&t)
    }

    #[test]
    fn same_module_and_use_resolution() {
        let w = ws(&[
            (
                "ripki_serve",
                "crates/serve/src/http.rs",
                "use ripki_payload::json::encode;\n\
                 fn respond() { encode(); local(); }\nfn local() {}\n",
            ),
            (
                "ripki_payload",
                "crates/payload/src/json.rs",
                "pub fn encode() { inner(); }\nfn inner() {}\n",
            ),
        ]);
        assert!(edge(
            &w,
            ("http.rs", None, "respond"),
            ("json.rs", None, "encode")
        ));
        assert!(edge(
            &w,
            ("http.rs", None, "respond"),
            ("http.rs", None, "local")
        ));
        assert!(edge(
            &w,
            ("json.rs", None, "encode"),
            ("json.rs", None, "inner")
        ));
    }

    #[test]
    fn two_hop_cross_crate_reachability_with_chain() {
        let w = ws(&[
            (
                "ripki_serve",
                "crates/serve/src/reactor.rs",
                "impl Reactor { fn turn(&mut self) { self.dispatch(); } \
                 fn dispatch(&mut self) { ripki_payload::json::encode(); } }",
            ),
            (
                "ripki_payload",
                "crates/payload/src/json.rs",
                "pub fn encode() { deep(); }\nfn deep() {}\n",
            ),
        ]);
        let turn = w.find_fn("reactor.rs", Some("Reactor"), "turn").unwrap();
        let deep = w.find_fn("json.rs", None, "deep").unwrap();
        let pred = w.reach(&[turn]);
        assert!(pred.contains_key(&deep));
        assert_eq!(
            w.chain_text(&pred, deep),
            "Reactor::turn -> Reactor::dispatch -> encode -> deep"
        );
    }

    #[test]
    fn test_fns_are_not_traversed() {
        let w = ws(&[(
            "ripki_serve",
            "crates/serve/src/lib.rs",
            "fn root() { helper(); }\n#[cfg(test)]\nmod tests { \
             pub fn helper() { super::dangerous(); } }\nfn dangerous() {}\n",
        )]);
        let root = w.find_fn("lib.rs", None, "root").unwrap();
        let dangerous = w.find_fn("lib.rs", None, "dangerous").unwrap();
        let pred = w.reach(&[root]);
        assert!(!pred.contains_key(&dangerous));
    }

    #[test]
    fn self_method_and_type_method_resolution() {
        let w = ws(&[(
            "ripki_rtr",
            "crates/rtr/src/pdu.rs",
            "impl Pdu { fn parse(b: &[u8]) -> Pdu { Pdu::validate(b); todo() } \
             fn validate(b: &[u8]) {} }\nfn todo() -> Pdu { loop {} }\n",
        )]);
        assert!(edge(
            &w,
            ("pdu.rs", Some("Pdu"), "parse"),
            ("pdu.rs", Some("Pdu"), "validate")
        ));
        assert!(edge(
            &w,
            ("pdu.rs", Some("Pdu"), "parse"),
            ("pdu.rs", None, "todo")
        ));
    }

    #[test]
    fn unique_method_name_fallback_and_common_name_refusal() {
        let w = ws(&[
            (
                "ripki_serve",
                "crates/serve/src/conn.rs",
                "impl Conn { fn on_ready(&mut self, m: Machine) { m.step_machine(); m.len(); } }",
            ),
            (
                "ripki_serve",
                "crates/serve/src/machine.rs",
                "impl Machine { pub fn step_machine(&mut self) {} pub fn len(&self) -> usize { 0 } }",
            ),
        ]);
        assert!(edge(
            &w,
            ("conn.rs", Some("Conn"), "on_ready"),
            ("machine.rs", Some("Machine"), "step_machine")
        ));
        // `len` is on the common-method deny list: no edge even though
        // the workspace has exactly one `len`.
        let f = w.find_fn("conn.rs", Some("Conn"), "on_ready").unwrap();
        let t = w.find_fn("machine.rs", Some("Machine"), "len").unwrap();
        assert!(!w.edges[f].contains(&t));
    }

    #[test]
    fn std_paths_produce_no_edges() {
        let w = ws(&[(
            "ripki_serve",
            "crates/serve/src/lib.rs",
            "fn f() { std::thread::sleep(d); String::from(\"x\"); }",
        )]);
        let f = w.find_fn("lib.rs", None, "f").unwrap();
        assert!(w.edges[f].is_empty());
    }

    #[test]
    fn lock_fields_and_transitive_locks() {
        let w = ws(&[(
            "ripki_serve",
            "crates/serve/src/pool.rs",
            "pub struct Q { queue: Mutex<V> }\n\
             pub struct S { inner: RwLock<A> }\n\
             impl Q { fn push_job(&self) { self.queue.lock(); } }\n\
             impl S { fn publish(&self) { self.inner.write(); self.helper(); } \
             fn helper(&self) {} }\n\
             fn outer(q: &Q) { q.push_job(); }\n",
        )]);
        let locks = w.transitive_locks();
        let push = w.find_fn("pool.rs", Some("Q"), "push_job").unwrap();
        let publish = w.find_fn("pool.rs", Some("S"), "publish").unwrap();
        let outer = w.find_fn("pool.rs", None, "outer").unwrap();
        assert!(locks[push].contains("Q.queue"));
        assert!(locks[publish].contains("S.inner"));
        // `q.push_job()` resolves via unique-name fallback → outer
        // transitively takes Q.queue.
        assert!(locks[outer].contains("Q.queue"));
    }

    #[test]
    fn lock_order_cycle_detection() {
        let mut order = LockOrder::default();
        let p = Path::new("crates/serve/src/a.rs");
        order.record("A.x", "B.y", p, 1, 1, "f".into());
        order.record("B.y", "A.x", p, 9, 5, "g".into());
        let cycles = order.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].0, ("B.y".to_string(), "A.x".to_string()));
        assert_eq!(cycles[0].1 .1, 9);
    }

    #[test]
    fn module_chains_from_paths() {
        assert_eq!(
            file_module_chain(Path::new("crates/serve/src/reactor.rs")),
            vec!["reactor".to_string()]
        );
        assert!(file_module_chain(Path::new("crates/serve/src/lib.rs")).is_empty());
        assert_eq!(
            file_module_chain(Path::new("crates/rpki/src/sub/mod.rs")),
            vec!["sub".to_string()]
        );
        assert!(file_module_chain(Path::new("src/main.rs")).is_empty());
        assert!(file_module_chain(Path::new("crates/cli/src/bin/probe.rs")).is_empty());
    }
}
