//! The versioned rule catalog: what each rule forbids and where it
//! applies. DESIGN.md ("Invariants & enforcement") is the prose twin of
//! this file; bump [`CATALOG_VERSION`] whenever a rule's scope or
//! semantics change so downstream automation can detect drift.
//!
//! The rules here are the ones that need the workspace call graph or
//! the comment stream. R2 (wall clock) and R4 (prints) look at one
//! expression each, so clippy enforces them (`clippy.toml`,
//! `[workspace.lints.clippy]`); their codes are not reused.

use std::fmt;
use std::path::Path;

/// Version of the rule set encoded below.
///
/// v4: R1 became transitive panic-reachability over the workspace call
/// graph (flagging both the in-scope call site and the out-of-scope
/// panic site); R2 admits the monotonic `Instant::now` inside
/// `crates/serve/**` (a real-time serving plane measures deadlines —
/// `SystemTime` stays confined); R6 (no blocking reachable from a
/// reactor turn) and R7 (consistent lock acquisition order) were added
/// on the same graph.
///
/// v5: the RTR session plane is an I/O loop like the reactor — R6 roots
/// at `SessionLoop::turn` too, R6/R7 scope `crates/rtr/src/**`, R2
/// admits `Instant::now` in `crates/rtr/src/listener.rs` (write-stall
/// deadlines), and R7 checks against a *declared* order
/// ([`DECLARED_LOCK_ORDER`]) besides the orders the code exhibits.
///
/// v6: the proxy `http` target's route function runs on `ripki-serve`
/// workers, where a panic kills the worker and strands its connection —
/// R1 scopes `crates/proxy/src/targets.rs`.
///
/// v7: the proxy's pure stages run under one fabric lock
/// (`Fabric.stages`) on the thread that published — R7 declares that
/// lock outermost over the channel and target locks a stage takes.
///
/// v8: R2 and R4 moved to clippy, which resolves paths by meaning
/// (`disallowed_methods`, `print_stdout`/`print_stderr`/`dbg_macro`).
///
/// v9: the RTR session is an I/O-free machine — R6 blesses the poll
/// shell's `Peer::read_ready`/`write_some`, not `Session`'s.
///
/// v10: the router's RTR machine decodes an untrusted upstream on the
/// fabric's threads — R1 scopes `crates/rtr/src/client.rs`.
pub const CATALOG_VERSION: u32 = 10;

/// The enforced invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// R1: no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
    /// `unimplemented!` and no `[]` indexing on the serving request path
    /// (`crates/serve/src/**`, which includes the poll(2) reactor and
    /// connection state machines), in the RTR PDU codec
    /// (`crates/rtr/src/pdu.rs`), in the RTR session plane
    /// (`crates/rtr/src/listener.rs`), in the router's RTR machine and
    /// its shell (`crates/rtr/src/client.rs`), or in the proxy targets
    /// (`crates/proxy/src/targets.rs`, whose HTTP route runs on serve's
    /// workers) — *including transitively*: a
    /// helper anywhere in the workspace that can panic and is reachable
    /// from an in-scope function is flagged at the panic site and at
    /// the in-scope call that reaches it. A malformed request or PDU
    /// must map to a typed error, never a worker or reactor panic.
    NoPanic,
    /// R3: every `Ordering::Relaxed` / `Acquire` / `Release` / `AcqRel`
    /// carries a same-line or immediately-preceding comment saying why
    /// that ordering is sufficient. (`SeqCst` is exempt: it is the
    /// conservative default.)
    AtomicOrder,
    /// R5: epoch-bearing fields (`epoch`, `from_epoch`, `to_epoch`) are
    /// written only inside the blessed engine module, whose constructors
    /// assert monotonicity; everywhere else must go through those
    /// constructors/setters.
    EpochWrite,
    /// R6: nothing that can block — `thread::sleep`, channel
    /// `recv`/`recv_timeout`, `join`, condvar `wait`, blocking
    /// `accept`/`connect` — is reachable from an I/O loop's turn
    /// (`Reactor::turn`, the RTR `SessionLoop::turn`) outside the
    /// blessed poll/ready-fd sites. One blocked turn stalls every
    /// connection on the loop at once.
    NoBlocking,
    /// R7: the workspace lock set (struct fields of `Mutex`/`RwLock`
    /// type in `serve`/`par`/`proxy`/`rtr`) is acquired in one
    /// consistent order; any path that holds lock A while
    /// (transitively) taking lock B, when another path — or
    /// [`DECLARED_LOCK_ORDER`] — orders them B-then-A, is flagged.
    LockOrder,
}

/// All rules, in report order.
pub const ALL_RULES: [Rule; 5] = [
    Rule::NoPanic,
    Rule::AtomicOrder,
    Rule::EpochWrite,
    Rule::NoBlocking,
    Rule::LockOrder,
];

impl Rule {
    /// Stable machine identifier, used in `// lint: allow(<id>)` and in
    /// the JSON report.
    pub fn id(self) -> &'static str {
        match self {
            Rule::NoPanic => "no-panic",
            Rule::AtomicOrder => "atomic-order",
            Rule::EpochWrite => "epoch-write",
            Rule::NoBlocking => "no-blocking",
            Rule::LockOrder => "lock-order",
        }
    }

    /// Short catalog code (`R1`, `R3`, `R5`–`R7`).
    pub fn code(self) -> &'static str {
        match self {
            Rule::NoPanic => "R1",
            Rule::AtomicOrder => "R3",
            Rule::EpochWrite => "R5",
            Rule::NoBlocking => "R6",
            Rule::LockOrder => "R7",
        }
    }

    /// One-line description for `ripki-lint rules`.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::NoPanic => {
                "no unwrap/expect/panic!/unreachable!/todo!/unimplemented! or [] indexing \
                 on the serve request path (reactor included), the RTR PDU codec, the RTR \
                 session plane, and the proxy targets — directly or via any workspace \
                 function they reach"
            }
            Rule::AtomicOrder => {
                "every Ordering::Relaxed/Acquire/Release/AcqRel needs a same-line or \
                 preceding justification comment"
            }
            Rule::EpochWrite => {
                "epoch/from_epoch/to_epoch fields are written only in the blessed engine \
                 module, which must assert epoch monotonicity"
            }
            Rule::NoBlocking => {
                "no thread::sleep, channel recv, join, condvar wait, or blocking \
                 accept/connect reachable from an I/O loop turn (Reactor::turn, RTR \
                 SessionLoop::turn) outside the blessed poll/ready-fd sites"
            }
            Rule::LockOrder => {
                "the serve/par/proxy/rtr Mutex/RwLock field set is acquired in one global \
                 order; a path holding A then taking B while another path (or the \
                 declared order) takes B then A is a deadlock seed"
            }
        }
    }

    /// Parse a rule id (as written in allow comments).
    pub fn from_id(id: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.id() == id)
    }

    /// Does this rule apply to the (workspace-relative, `/`-separated)
    /// file at all? Test code is additionally exempted per-item by the
    /// parser; this is the file-level scope. The graph rules (R1
    /// transitive, R6, R7) root in these scopes but may *report* inside
    /// any workspace file their chains reach.
    pub fn applies_to(self, path: &str) -> bool {
        match self {
            Rule::NoPanic => {
                path.starts_with("crates/serve/src/")
                    || path == "crates/rtr/src/pdu.rs"
                    || path == "crates/rtr/src/listener.rs"
                    || path == "crates/rtr/src/client.rs"
                    || path == "crates/proxy/src/targets.rs"
            }
            Rule::AtomicOrder => true,
            Rule::EpochWrite => !is_blessed_epoch_module(path),
            // R6 roots in the I/O loops; R7 collects locks from the
            // concurrent crates. Reporting sites follow chains, so the
            // file-level scope is where *analysis roots* live.
            Rule::NoBlocking => {
                path.starts_with("crates/serve/src/") || path.starts_with("crates/rtr/src/")
            }
            Rule::LockOrder => {
                path.starts_with("crates/serve/src/")
                    || path.starts_with("crates/par/src/")
                    || path.starts_with("crates/proxy/src/")
                    || path.starts_with("crates/rtr/src/")
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.code(), self.id())
    }
}

/// The modules allowed to write epoch fields directly. They carry the
/// monotonicity assertions every other caller inherits by construction:
/// the engine commits epochs, the payload crate's constructors stamp
/// them onto the wire currency, the proxy gossip channel enforces
/// forward motion at every fabric hop, and the SLURM crate maps deltas
/// between epoch spaces (exception reloads shift epochs by a constant
/// offset) under its own forward-motion assertion.
pub fn is_blessed_epoch_module(path: &str) -> bool {
    matches!(
        path,
        "crates/ripki/src/engine.rs"
            | "crates/payload/src/lib.rs"
            | "crates/proxy/src/comms.rs"
            | "crates/slurm/src/lib.rs"
    )
}

/// R6 analysis roots: `(file suffix, impl type, fn name)` of the
/// functions one I/O loop turn executes. `Reactor::turn` is the per-
/// iteration body `Reactor::run` loops over; `run` itself is *not* a
/// root because its post-loop teardown legitimately joins the pool.
/// `SessionLoop::turn` is the same cut of the RTR session plane.
pub const REACTOR_ROOTS: &[(&str, Option<&str>, &str)] = &[
    ("crates/serve/src/reactor.rs", Some("Reactor"), "turn"),
    ("crates/rtr/src/listener.rs", Some("SessionLoop"), "turn"),
];

/// R6 blessed sites: functions allowed to contain (or reach) op shapes
/// that look blocking, with the reason they are safe on the reactor.
///
/// `poll_fds` is the event source — blocking in `poll(2)` with a
/// timeout *is* the reactor idle state. The readiness handlers
/// (`read_ready`, `write_some`, `accept_ready`, `drain_wake_pipe`)
/// only ever touch fds already reported ready, in nonblocking mode.
/// `CompletionQueue::drain`/`push` hold a lock for a bounded O(len)
/// splice that the loom lane models. The RTR session loop has the same
/// shape: `poll_ready` is its idle state, and `accept_ready`,
/// `drain_wake`, `Peer::read_ready`/`write_some` touch non-blocking
/// fds only. The `Session` machine they feed touches no fd at all.
pub const REACTOR_BLESSED: &[(&str, Option<&str>, &str)] = &[
    ("crates/rtr/src/listener.rs", None, "poll_ready"),
    (
        "crates/rtr/src/listener.rs",
        Some("SessionLoop"),
        "accept_ready",
    ),
    (
        "crates/rtr/src/listener.rs",
        Some("SessionLoop"),
        "drain_wake",
    ),
    ("crates/rtr/src/listener.rs", Some("Peer"), "read_ready"),
    ("crates/rtr/src/listener.rs", Some("Peer"), "write_some"),
    ("crates/serve/src/reactor.rs", None, "poll_fds"),
    ("crates/serve/src/reactor.rs", Some("Reactor"), "read_ready"),
    ("crates/serve/src/reactor.rs", None, "write_some"),
    (
        "crates/serve/src/reactor.rs",
        Some("Reactor"),
        "accept_ready",
    ),
    (
        "crates/serve/src/reactor.rs",
        Some("Reactor"),
        "drain_wake_pipe",
    ),
    ("crates/serve/src/pool.rs", Some("CompletionQueue"), "drain"),
    ("crates/serve/src/pool.rs", Some("CompletionQueue"), "push"),
];

/// R7's declared order: `(first, second)` pairs of `Owner.field` locks
/// whose order is fixed by design even where no code path nests them.
/// Each pair seeds the order graph, so a path nesting them the other
/// way is flagged as an inversion against the declaration.
///
/// `CacheServer.state` → `CacheServer.wakers`: every mutator releases
/// `state` before it signals the wakers, so today nothing nests the two
/// at all; the declared direction is the only one a future nesting may
/// take (a signal under `state` is tolerable, a state read under
/// `wakers` would let a slow waker list stall every query).
///
/// `Fabric.stages` → `Channel.slot`, `CacheServer.state`,
/// `HttpState.payload`: a pump steps every stage under the fabric lock,
/// and a stage takes from and publishes into gossip slots and installs
/// into its target's serving state. The other way round — pumping with
/// a slot, cache or payload lock held — would deadlock against a pump
/// in progress on another unit's thread, so `Publisher` releases the
/// slot before it pumps and stages publish with the plain
/// `Gossip::publish`.
pub const DECLARED_LOCK_ORDER: &[(&str, &str)] = &[
    ("CacheServer.state", "CacheServer.wakers"),
    ("Fabric.stages", "Channel.slot"),
    ("Fabric.stages", "CacheServer.state"),
    ("Fabric.stages", "HttpState.payload"),
];

/// Method names R6 treats as potentially blocking when reached from a
/// reactor root. `lock`/`read`/`write` are deliberately *absent*:
/// bounded lock hand-offs are R7's domain (order, not duration), and
/// readiness-mode IO is blessed at the fn granularity above.
pub const BLOCKING_METHODS: &[&str] = &[
    "recv",
    "recv_timeout",
    "join",
    "wait",
    "wait_timeout",
    "accept",
    "connect",
];

/// Free-fn / path tails R6 treats as blocking (`thread::sleep`,
/// `TcpStream::connect`, …).
pub const BLOCKING_PATHS: &[&str] = &["sleep", "park", "park_timeout"];

/// Convert an OS path (relative to the workspace root) to the canonical
/// `/`-separated form the scopes above match on.
pub fn canonical(path: &Path) -> String {
    let mut out = String::new();
    for comp in path.components() {
        if !out.is_empty() {
            out.push('/');
        }
        out.push_str(&comp.as_os_str().to_string_lossy());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip() {
        for rule in ALL_RULES {
            assert_eq!(Rule::from_id(rule.id()), Some(rule));
        }
        assert_eq!(Rule::from_id("nonsense"), None);
    }

    #[test]
    fn scopes_match_the_catalog() {
        assert!(Rule::NoPanic.applies_to("crates/serve/src/http.rs"));
        assert!(Rule::NoPanic.applies_to("crates/serve/src/reactor.rs"));
        assert!(Rule::NoPanic.applies_to("crates/serve/src/conn.rs"));
        assert!(Rule::NoPanic.applies_to("crates/rtr/src/pdu.rs"));
        assert!(Rule::NoPanic.applies_to("crates/rtr/src/listener.rs"));
        assert!(Rule::NoPanic.applies_to("crates/proxy/src/targets.rs"));
        assert!(!Rule::NoPanic.applies_to("crates/proxy/src/units.rs"));
        assert!(!Rule::NoPanic.applies_to("crates/proxy/src/origin.rs"));
        assert!(!Rule::NoPanic.applies_to("crates/rtr/src/cache.rs"));
        assert!(!Rule::NoPanic.applies_to("crates/rpki/src/validate.rs"));

        assert!(Rule::AtomicOrder.applies_to("crates/dns/src/cache.rs"));

        assert!(!Rule::EpochWrite.applies_to("crates/ripki/src/engine.rs"));
        assert!(!Rule::EpochWrite.applies_to("crates/payload/src/lib.rs"));
        assert!(!Rule::EpochWrite.applies_to("crates/proxy/src/comms.rs"));
        assert!(!Rule::EpochWrite.applies_to("crates/slurm/src/lib.rs"));
        assert!(Rule::EpochWrite.applies_to("crates/serve/src/view.rs"));
        assert!(Rule::EpochWrite.applies_to("crates/proxy/src/units.rs"));
        assert!(Rule::EpochWrite.applies_to("crates/proxy/src/origin.rs"));

        assert!(Rule::NoBlocking.applies_to("crates/serve/src/reactor.rs"));
        assert!(Rule::NoBlocking.applies_to("crates/rtr/src/listener.rs"));
        assert!(!Rule::NoBlocking.applies_to("crates/par/src/lib.rs"));
        assert!(Rule::LockOrder.applies_to("crates/par/src/lib.rs"));
        assert!(Rule::LockOrder.applies_to("crates/proxy/src/comms.rs"));
        assert!(Rule::LockOrder.applies_to("crates/proxy/src/origin.rs"));
        assert!(Rule::LockOrder.applies_to("crates/rtr/src/cache.rs"));
        assert!(!Rule::LockOrder.applies_to("crates/rpki/src/validate.rs"));
    }
}
