//! Per-connection HTTP/1.1 state machine for the event loop.
//!
//! [`ConnMachine`] is deliberately I/O-free: the reactor feeds it bytes
//! as they arrive ([`ConnMachine::on_bytes`]) and drains serialised
//! response bytes back out ([`ConnMachine::writable`]), which is what
//! makes the machine property-testable — splitting the same input at
//! arbitrary byte boundaries must produce byte-identical output to
//! feeding it in one shot.
//!
//! The machine reuses the hardened incremental head parser from
//! [`crate::http`] unchanged, and preserves the thread-pool server's
//! body contract: small announced bodies are discarded so keep-alive
//! survives, chunked or oversized ones cost the connection. Response
//! ordering is enforced structurally — at most one request is in
//! flight, parsed-but-undispatched requests wait in a bounded FIFO,
//! and an error or shed response is *deferred* until every response
//! ahead of it has been queued, so pipelined peers never see replies
//! out of order.

use crate::http::{body_disposition, parse_head, BodyDisposition, Request, Response};
use std::collections::VecDeque;

/// Static per-connection limits, distilled from the server config.
#[derive(Debug, Clone)]
pub struct ConnConfig {
    /// Requests served on one connection before it is closed.
    pub max_requests: usize,
    /// Parsed requests (queued + in flight) a connection may hold; when
    /// the bound is reached the machine stops asking for bytes and TCP
    /// backpressure reaches the peer.
    pub pipeline_depth: usize,
}

impl Default for ConnConfig {
    fn default() -> ConnConfig {
        ConnConfig {
            max_requests: 1024,
            pipeline_depth: 4,
        }
    }
}

/// A parsed request ready for dispatch, with the keep-alive verdict the
/// response serialiser must honour (folds the peer's wish, the body
/// disposition, and the per-connection request cap).
#[derive(Debug)]
pub struct PendingRequest {
    /// The parsed request head.
    pub request: Request,
    /// Whether the connection may stay open after this response.
    pub keep_alive: bool,
}

/// What the parser is doing with the next input bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadState {
    /// Accumulating and parsing a request head.
    Head,
    /// Discarding this many announced body bytes before the next head.
    Drain(usize),
    /// Never parse again (error, close-framed response, request cap, or
    /// EOF); remaining input is discarded.
    Stopped,
}

/// The pure state machine behind one event-loop connection.
pub struct ConnMachine {
    config: ConnConfig,
    /// Unparsed input bytes.
    buf: Vec<u8>,
    /// Serialised response bytes not yet written to the socket.
    out: Vec<u8>,
    /// How much of `out` has already been written.
    out_pos: usize,
    /// Parsed requests waiting for dispatch, oldest first.
    pending: VecDeque<PendingRequest>,
    /// Whether a request is currently with a worker.
    inflight: bool,
    read_state: ReadState,
    /// Requests parsed off this connection so far.
    accepted: usize,
    /// An error/timeout response waiting for the responses ahead of it.
    deferred: Option<Vec<u8>>,
    /// No response may follow the ones already queued; close once
    /// everything is flushed.
    close_after_flush: bool,
    /// The peer half-closed; finish queued work, then close.
    eof: bool,
    /// The close was triggered while client bytes may still be in
    /// flight (parse error, shed, unread body) — the reactor should
    /// linger-drain before closing to keep the response out of an RST.
    dirty_close: bool,
}

impl ConnMachine {
    /// A fresh machine for one accepted connection.
    pub fn new(config: ConnConfig) -> ConnMachine {
        ConnMachine {
            config,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            pending: VecDeque::new(),
            inflight: false,
            read_state: ReadState::Head,
            accepted: 0,
            deferred: None,
            close_after_flush: false,
            eof: false,
            dirty_close: false,
        }
    }

    // ------------------------------------------------------------ input

    /// Feed freshly read bytes. Returns the status of a request the
    /// machine rejected inline (parse failure), for metrics accounting;
    /// the rejection response is already queued in order.
    pub fn on_bytes(&mut self, data: &[u8]) -> Option<u16> {
        if self.read_state == ReadState::Stopped {
            // Anything past the stop point is body or garbage we will
            // never frame; drop it instead of buffering unbounded.
            return None;
        }
        self.buf.extend_from_slice(data);
        self.advance()
    }

    /// The peer sent FIN. Queued requests still get answered (TCP
    /// half-close), then the connection winds down.
    pub fn on_eof(&mut self) -> Option<u16> {
        self.eof = true;
        let mut rejected = None;
        if self.read_state == ReadState::Head && !self.buf.is_empty() && self.deferred.is_none() {
            // A partial head can never complete: tell the peer before
            // closing, mirroring the blocking server's 400.
            rejected = Some(400);
            self.defer_close(error_bytes(400, "connection closed mid-request"));
        }
        self.read_state = ReadState::Stopped;
        self.buf.clear();
        self.maybe_flush_deferred();
        rejected
    }

    /// Incremental parse over the buffered input. Returns a rejected
    /// status exactly as [`ConnMachine::on_bytes`] does.
    fn advance(&mut self) -> Option<u16> {
        let mut rejected = None;
        loop {
            match self.read_state {
                ReadState::Stopped => {
                    self.buf.clear();
                    break;
                }
                ReadState::Drain(remaining) => {
                    let take = remaining.min(self.buf.len());
                    self.buf.drain(..take);
                    if take < remaining {
                        self.read_state = ReadState::Drain(remaining - take);
                        break; // need more bytes to finish the body
                    }
                    self.read_state = ReadState::Head;
                }
                ReadState::Head => {
                    if self.pending.len() + usize::from(self.inflight) >= self.pipeline_capacity() {
                        break; // bounded queue full: leave bytes unparsed
                    }
                    match parse_head(&self.buf) {
                        Ok(None) => break,
                        Ok(Some((request, consumed))) => {
                            self.buf.drain(..consumed);
                            self.admit(request);
                        }
                        Err(e) => {
                            rejected = Some(e.status());
                            self.read_state = ReadState::Stopped;
                            self.dirty_close = true;
                            self.defer_close(response_bytes(Response::from_http_error(&e)));
                        }
                    }
                }
            }
        }
        self.maybe_flush_deferred();
        rejected
    }

    /// Queue one parsed request and update the parser state from its
    /// body framing and the request cap.
    fn admit(&mut self, request: Request) {
        self.accepted += 1;
        let disposition = body_disposition(&request);
        let capped = self.accepted >= self.config.max_requests;
        let keep_alive = request.keep_alive() && disposition != BodyDisposition::Close && !capped;
        match disposition {
            BodyDisposition::None => {}
            BodyDisposition::Drain(n) => self.read_state = ReadState::Drain(n),
            BodyDisposition::Close => {
                // The body length is unknowable (or too large to read):
                // nothing after it can ever be framed.
                self.read_state = ReadState::Stopped;
                self.dirty_close = true;
            }
        }
        if capped {
            // The cap may leave body or pipelined bytes unread; linger
            // on close so the final response survives.
            self.read_state = ReadState::Stopped;
            self.dirty_close = true;
        }
        self.pending.push_back(PendingRequest {
            request,
            keep_alive,
        });
    }

    // --------------------------------------------------------- dispatch

    /// Whether a request is ready for dispatch (FIFO order, one in
    /// flight at a time).
    pub fn dispatchable(&self) -> bool {
        !self.inflight && !self.pending.is_empty()
    }

    /// Take the next request for a worker. `None` while one is already
    /// in flight or nothing is queued.
    pub fn next_job(&mut self) -> Option<PendingRequest> {
        if self.inflight {
            return None;
        }
        let job = self.pending.pop_front()?;
        self.inflight = true;
        Some(job)
    }

    /// A worker finished the in-flight request: queue its serialised
    /// response. `keep_alive == false` (close-framed response) ends the
    /// connection once flushed — any pipelined followers are dropped,
    /// exactly as the blocking server dropped them.
    pub fn complete(&mut self, response: &[u8], keep_alive: bool) {
        self.inflight = false;
        self.out.extend_from_slice(response);
        if !keep_alive {
            self.close_after_flush = true;
            self.read_state = ReadState::Stopped;
            self.pending.clear();
            self.deferred = None;
            self.buf.clear();
        }
        self.maybe_flush_deferred();
        // Completing freed a pipeline slot; parse any waiting bytes.
        self.advance();
    }

    /// Shed the next queued request instead of dispatching it: its
    /// response becomes `response` (a 503 with `Connection: close`) and
    /// the connection winds down in order. Only legal when nothing is
    /// in flight — the reactor sheds at dispatch time, so the invariant
    /// holds structurally. Returns `false` if there was nothing to shed.
    pub fn shed_next(&mut self, response: &[u8]) -> bool {
        if self.inflight || self.pending.is_empty() {
            return false;
        }
        self.pending.clear();
        self.out.extend_from_slice(response);
        self.close_after_flush = true;
        self.read_state = ReadState::Stopped;
        self.deferred = None;
        self.buf.clear();
        self.dirty_close = true;
        true
    }

    /// Abort input with a final response (e.g. 408 on a slow-loris read
    /// deadline). The response is deferred behind queued work so the
    /// wire order stays correct.
    pub fn abort_input(&mut self, response: Vec<u8>) {
        if self.deferred.is_none() && !self.close_after_flush {
            self.defer_close(response);
        }
        self.read_state = ReadState::Stopped;
        self.buf.clear();
        self.dirty_close = true;
        self.maybe_flush_deferred();
    }

    /// Server-initiated drain (graceful shutdown): stop reading new
    /// requests, finish queued ones, close once flushed.
    pub fn begin_drain(&mut self) {
        self.read_state = ReadState::Stopped;
        self.buf.clear();
        self.eof = true;
        self.maybe_flush_deferred();
    }

    fn defer_close(&mut self, response: Vec<u8>) {
        self.deferred = Some(response);
    }

    /// Once every response ahead of it is queued, emit the deferred
    /// close response.
    fn maybe_flush_deferred(&mut self) {
        if self.inflight || !self.pending.is_empty() {
            return;
        }
        if let Some(bytes) = self.deferred.take() {
            self.out.extend_from_slice(&bytes);
            self.close_after_flush = true;
        }
    }

    // ----------------------------------------------------------- output

    /// Response bytes ready for the socket.
    pub fn writable(&self) -> &[u8] {
        self.out.get(self.out_pos..).unwrap_or_default()
    }

    /// Whether any output is waiting.
    pub fn has_output(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Account `n` bytes accepted by the socket.
    pub fn advance_write(&mut self, n: usize) {
        self.out_pos = (self.out_pos + n).min(self.out.len());
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
    }

    // ------------------------------------------------------------ state

    /// Whether the reactor should keep read interest on this socket.
    pub fn wants_read(&self) -> bool {
        if self.close_after_flush || self.eof {
            return false;
        }
        match self.read_state {
            // Reading while draining a body is always useful.
            ReadState::Drain(_) => true,
            ReadState::Head => {
                self.pending.len() + usize::from(self.inflight) < self.pipeline_capacity()
            }
            ReadState::Stopped => false,
        }
    }

    /// Mid-message: a partial head or an unfinished body drain — the
    /// state the slow-loris deadline arms on.
    pub fn mid_message(&self) -> bool {
        match self.read_state {
            ReadState::Drain(_) => true,
            ReadState::Head => !self.buf.is_empty(),
            ReadState::Stopped => false,
        }
    }

    /// Completely quiescent between requests: eligible for idle timeout
    /// and least-recently-active shedding.
    pub fn is_idle(&self) -> bool {
        !self.inflight
            && self.pending.is_empty()
            && self.buf.is_empty()
            && !self.has_output()
            && self.deferred.is_none()
            && self.read_state == ReadState::Head
    }

    /// Everything queued has been answered and flushed; the socket can
    /// close.
    pub fn done(&self) -> bool {
        let drained = !self.inflight && self.pending.is_empty() && self.deferred.is_none();
        let flushed = !self.has_output();
        drained && flushed && (self.close_after_flush || self.eof)
    }

    /// Whether closing now risks an RST eating the final response: the
    /// peer may still have bytes in flight we never read. The reactor
    /// half-closes and linger-drains instead of dropping the socket.
    pub fn needs_linger(&self) -> bool {
        self.dirty_close
    }

    /// Requests parsed off this connection so far.
    pub fn requests_accepted(&self) -> usize {
        self.accepted
    }

    fn pipeline_capacity(&self) -> usize {
        self.config.pipeline_depth.max(1)
    }
}

/// Serialise a response for the out buffer. Writing to a `Vec` cannot
/// fail; on the impossible error the bytes written so far are used.
fn response_bytes(response: Response) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(256);
    let _ = response.write_to(&mut bytes, false);
    bytes
}

/// A canned close-framed error response.
pub fn error_bytes(status: u16, reason: &str) -> Vec<u8> {
    response_bytes(Response::error(status, reason))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> ConnMachine {
        ConnMachine::new(ConnConfig::default())
    }

    /// Run every dispatchable request through a trivial echo handler.
    fn pump(m: &mut ConnMachine) {
        while let Some(job) = m.next_job() {
            let body = format!("echo {}", job.request.path);
            let bytes = response_bytes(Response::text(200, body));
            m.complete(&bytes, job.keep_alive);
        }
    }

    fn drain_out(m: &mut ConnMachine) -> Vec<u8> {
        let bytes = m.writable().to_vec();
        m.advance_write(bytes.len());
        bytes
    }

    #[test]
    fn single_request_roundtrip() {
        let mut m = machine();
        assert_eq!(m.on_bytes(b"GET /a HTTP/1.1\r\nhost: t\r\n\r\n"), None);
        assert!(m.dispatchable());
        pump(&mut m);
        let out = String::from_utf8(drain_out(&mut m)).unwrap();
        assert!(out.contains("echo /a"), "{out}");
        assert!(!m.done(), "keep-alive connection stays open");
        assert!(m.is_idle());
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let mut m = machine();
        m.on_bytes(b"GET /1 HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\r\n\r\n");
        pump(&mut m);
        let out = String::from_utf8(drain_out(&mut m)).unwrap();
        let first = out.find("echo /1").unwrap();
        let second = out.find("echo /2").unwrap();
        assert!(first < second, "{out}");
    }

    #[test]
    fn parse_error_after_pipelined_request_is_deferred() {
        let mut m = machine();
        // A good request, then garbage: the 400 must not jump the queue.
        let rejected = m.on_bytes(b"GET /ok HTTP/1.1\r\n\r\nGARBAGE\r\n\r\n");
        assert_eq!(rejected, Some(400));
        assert!(
            !m.has_output(),
            "error response must wait for the good request"
        );
        pump(&mut m);
        let out = String::from_utf8(drain_out(&mut m)).unwrap();
        let ok = out.find("echo /ok").unwrap();
        let err = out.find("HTTP/1.1 400").unwrap();
        assert!(ok < err, "{out}");
        assert!(m.done());
        assert!(m.needs_linger());
    }

    #[test]
    fn announced_body_is_drained_across_chunks() {
        let mut m = machine();
        m.on_bytes(b"POST /s HTTP/1.1\r\ncontent-length: 6\r\n\r\nabc");
        assert!(m.mid_message(), "body drain in progress");
        pump(&mut m);
        m.on_bytes(b"defGET /next HTTP/1.1\r\n\r\n");
        assert!(m.dispatchable(), "body bytes must not be parsed as head");
        pump(&mut m);
        let out = String::from_utf8(drain_out(&mut m)).unwrap();
        assert!(out.contains("echo /next"), "{out}");
    }

    #[test]
    fn oversized_body_stops_parsing() {
        let mut m = machine();
        let head = format!("POST /s HTTP/1.1\r\ncontent-length: {}\r\n\r\n", 9 * 1024);
        m.on_bytes(head.as_bytes());
        let job = m.next_job().unwrap();
        assert!(!job.keep_alive, "oversized body costs the connection");
        // Whatever follows is body; it must never become a request.
        m.on_bytes(b"GET /x HTTP/1.1\r\n\r\n");
        assert!(!m.dispatchable());
    }

    #[test]
    fn pipeline_depth_applies_backpressure() {
        let mut m = ConnMachine::new(ConnConfig {
            pipeline_depth: 2,
            ..ConnConfig::default()
        });
        let mut input = Vec::new();
        for i in 0..5 {
            input.extend_from_slice(format!("GET /{i} HTTP/1.1\r\n\r\n").as_bytes());
        }
        m.on_bytes(&input);
        assert_eq!(m.requests_accepted(), 2, "queue bounded at depth");
        assert!(!m.wants_read(), "full queue must drop read interest");
        pump(&mut m); // completing frees slots and resumes parsing
        assert_eq!(m.requests_accepted(), 5);
    }

    #[test]
    fn request_cap_closes_the_connection() {
        let mut m = ConnMachine::new(ConnConfig {
            max_requests: 2,
            ..ConnConfig::default()
        });
        m.on_bytes(b"GET /1 HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\r\n\r\nGET /3 HTTP/1.1\r\n\r\n");
        let first = m.next_job().unwrap();
        assert!(first.keep_alive);
        m.complete(&response_bytes(Response::text(200, "a")), true);
        let second = m.next_job().unwrap();
        assert!(!second.keep_alive, "last allowed request must close");
        m.complete(&response_bytes(Response::text(200, "b")), false);
        drain_out(&mut m);
        assert!(m.done());
        assert_eq!(m.requests_accepted(), 2, "third request never parsed");
    }

    #[test]
    fn shed_replaces_the_next_response_and_closes() {
        let mut m = machine();
        m.on_bytes(b"GET /1 HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\r\n\r\n");
        let shed = error_bytes(503, "server overloaded");
        assert!(m.shed_next(&shed));
        let out = String::from_utf8(drain_out(&mut m)).unwrap();
        assert!(out.contains("HTTP/1.1 503"), "{out}");
        assert!(out.contains("connection: close"), "{out}");
        assert!(m.done());
        assert!(!m.dispatchable(), "followers dropped after a shed");
    }

    #[test]
    fn eof_mid_head_answers_400_after_queued_work() {
        let mut m = machine();
        m.on_bytes(b"GET /ok HTTP/1.1\r\n\r\nGET /partial");
        assert_eq!(m.on_eof(), Some(400));
        pump(&mut m);
        let out = String::from_utf8(drain_out(&mut m)).unwrap();
        assert!(out.find("echo /ok").unwrap() < out.find("HTTP/1.1 400").unwrap());
        assert!(m.done());
    }

    #[test]
    fn clean_eof_between_requests_closes_quietly() {
        let mut m = machine();
        m.on_bytes(b"GET /a HTTP/1.1\r\n\r\n");
        pump(&mut m);
        drain_out(&mut m);
        assert_eq!(m.on_eof(), None);
        assert!(m.done());
        assert!(!m.needs_linger());
    }
}
