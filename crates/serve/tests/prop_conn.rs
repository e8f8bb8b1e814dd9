//! Property tests of the per-connection readiness state machine:
//! however the input byte stream is fragmented and however the output
//! is consumed, a connection must produce byte-identical responses to
//! the one-shot path. This is the invariant that makes the reactor's
//! partial reads and writes safe — TCP segmentation cannot change what
//! a client observes.

use proptest::prelude::*;
use ripki_serve::conn::{ConnConfig, ConnMachine};

/// Deterministic stand-in for the worker pool: a canned response that
/// is a pure function of the request path, echoing the keep-alive wish.
fn canned_response(path: &str, keep_alive: bool) -> Vec<u8> {
    let body = format!("echo:{path}");
    let connection = if keep_alive { "keep-alive" } else { "close" };
    format!(
        "HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\ncontent-length: {}\r\nconnection: {connection}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Run every dispatchable request through the canned handler, exactly
/// as the reactor would (one in flight at a time, responses in order).
fn pump(machine: &mut ConnMachine) {
    while machine.dispatchable() {
        let job = machine.next_job().unwrap();
        let response = canned_response(&job.request.path, job.keep_alive);
        machine.complete(&response, job.keep_alive);
    }
}

/// Drain all currently writable bytes in `chunk`-sized slices,
/// emulating partial socket writes.
fn drain_output(machine: &mut ConnMachine, chunk: usize, out: &mut Vec<u8>) {
    while machine.has_output() {
        let take = machine.writable().len().min(chunk.max(1));
        out.extend_from_slice(&machine.writable()[..take]);
        machine.advance_write(take);
    }
}

/// Feed `input` split at the given boundaries, pumping the handler and
/// draining output (in `write_chunk`-sized pieces) after every step.
/// Returns everything the "socket" would have carried to the client.
fn run_fragmented(input: &[u8], boundaries: &[usize], write_chunk: usize) -> Vec<u8> {
    let mut machine = ConnMachine::new(ConnConfig::default());
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut cuts: Vec<usize> = boundaries.iter().map(|b| b % (input.len() + 1)).collect();
    cuts.sort_unstable();
    cuts.push(input.len());
    for cut in cuts {
        if cut > start {
            machine.on_bytes(&input[start..cut]);
            start = cut;
        }
        pump(&mut machine);
        drain_output(&mut machine, write_chunk, &mut out);
    }
    machine.on_eof();
    pump(&mut machine);
    drain_output(&mut machine, write_chunk, &mut out);
    out
}

fn re(pattern: &str) -> proptest::string::RegexStrategy {
    proptest::string::string_regex(pattern).expect("supported pattern")
}

fn path_strategy() -> proptest::string::RegexStrategy {
    re("/[a-z0-9/_.-]{0,24}")
}

fn request_text(path: &str, keep_alive: bool, body: &str) -> String {
    let mut head = format!("GET {path} HTTP/1.1\r\nhost: prop\r\n");
    if !keep_alive {
        head.push_str("connection: close\r\n");
    }
    if !body.is_empty() {
        head.push_str(&format!("content-length: {}\r\n", body.len()));
    }
    format!("{head}\r\n{body}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary read fragmentation and write chunking must not change
    /// a single output byte relative to the one-shot run.
    #[test]
    fn fragmentation_is_invisible(
        paths in proptest::collection::vec(path_strategy(), 1..5),
        bodies in proptest::collection::vec(re("[a-z]{0,64}"), 1..5),
        close_last in any::<bool>(),
        boundaries in proptest::collection::vec(any::<usize>(), 0..12),
        write_chunk in 1usize..64,
    ) {
        let mut input = String::new();
        let n = paths.len();
        for (i, path) in paths.iter().enumerate() {
            let body = bodies.get(i).map_or("", |b| b.as_str());
            let keep = !(close_last && i == n - 1);
            input.push_str(&request_text(path, keep, body));
        }
        let reference = run_fragmented(input.as_bytes(), &[], usize::MAX);
        let fragmented = run_fragmented(input.as_bytes(), &boundaries, write_chunk);
        prop_assert_eq!(
            String::from_utf8_lossy(&reference),
            String::from_utf8_lossy(&fragmented)
        );
        prop_assert!(!reference.is_empty(), "at least one response expected");
    }

    /// Garbage after valid requests: the deterministic error response
    /// must also be fragmentation-invariant, and the machine must
    /// always reach a terminal state (never hang waiting for reads).
    #[test]
    fn trailing_garbage_errors_identically(
        path in path_strategy(),
        garbage in proptest::collection::vec(any::<u8>(), 1..128),
        boundaries in proptest::collection::vec(any::<usize>(), 0..8),
        write_chunk in 1usize..32,
    ) {
        let mut input = request_text(&path, true, "").into_bytes();
        // Force a parse error: a line the head parser must reject.
        input.extend_from_slice(b"NOT-HTTP ");
        input.extend_from_slice(&garbage);
        input.extend_from_slice(b"\r\n\r\n");
        let reference = run_fragmented(&input, &[], usize::MAX);
        let fragmented = run_fragmented(&input, &boundaries, write_chunk);
        prop_assert_eq!(
            String::from_utf8_lossy(&reference),
            String::from_utf8_lossy(&fragmented)
        );
    }

    /// After EOF plus a full pump/drain cycle the machine reports
    /// `done()` — no input schedule can wedge a connection open.
    #[test]
    fn every_schedule_terminates(
        input in proptest::collection::vec(any::<u8>(), 0..512),
        boundaries in proptest::collection::vec(any::<usize>(), 0..8),
    ) {
        let mut machine = ConnMachine::new(ConnConfig::default());
        let mut cuts: Vec<usize> = boundaries.iter().map(|b| b % (input.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.push(input.len());
        let mut start = 0usize;
        let mut out = Vec::new();
        for cut in cuts {
            if cut > start {
                machine.on_bytes(&input[start..cut]);
                start = cut;
            }
            pump(&mut machine);
            drain_output(&mut machine, 16, &mut out);
        }
        machine.on_eof();
        pump(&mut machine);
        drain_output(&mut machine, 16, &mut out);
        prop_assert!(machine.done(), "machine wedged after EOF");
    }
}
