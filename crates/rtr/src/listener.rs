//! The RTR session plane: one I/O-free session machine (`Session`,
//! shaped like `ripki-serve`'s `ConnMachine`: bytes and `now` in,
//! encoded answers, a stall deadline and "finished" out) under two
//! shells — a wake-driven `poll(2)` loop serving every router of a
//! [`CacheServer`], and [`CacheServer::serve_connection`] over one
//! blocking stream.
//!
//! ```text
//!                  ┌────────── query decoded ──────────┐
//!                  ▼                                   │
//!   accept ──▶  Idle ──(serial advanced)──▶ queue Serial Notify ──┐
//!    │         wants_read                                         │
//!    │           ▲                                                ▼
//!    │           └── queue drained ◀── Responding (writable while bytes
//!    │                                  │           are queued; a Reset
//!    │   malformed PDU                  │           refills one chunk
//!    ▼        │                         │           per drained buffer)
//!  refused    ▼                         ▼
//!  (at cap)  Closing: Error Report,   no progress for WRITE_STALL,
//!            flush, finished          hang-up: dropped by the shell
//! ```
//!
//! The poll shell is the only RTR serving stack over TCP —
//! `ripki-cli serve --rtr-listen`, `rtr-serve` and the proxy's `rtr`
//! target all run it. One thread owns the listener, a wake socket and
//! every session socket, all non-blocking, in one `poll` set (its own
//! minimal binding: rtr sits below `ripki-serve` in the crate layering,
//! and `std` links the platform libc, so the symbol resolves without a
//! new dependency).
//!
//! **Serial Notify is a push.** The loop registers the write end of a
//! socket pair with the cache ([`CacheServer::register_waker`]); every
//! serial advance writes one byte to it, `poll` returns, and each idle
//! session whose `notified_serial` differs from the cache's serial gets
//! exactly one Serial Notify. `notified_serial` is the serial of the
//! End of Data the session was last *sent*, and the comparison runs
//! again whenever a session goes back to idle — so an advance landing
//! while a response is in flight is still notified. No timer sits on
//! that path: [`ListenerConfig::session_poll`] is only the loop's idle
//! `poll` timeout.
//!
//! **One peer cannot hurt another.** Input is decoded incrementally
//! (a query may arrive a byte at a time); output is one buffer per
//! response, written with `TCP_NODELAY`, queued per session and flushed
//! on `POLLOUT`, one buffer per turn; a Reset response is encoded in
//! bounded chunks from a snapshot, never under the cache lock. A
//! session reads its next query only once its previous answer is
//! flushed, so a peer that stops reading stalls only itself and is
//! dropped after [`WRITE_STALL`]; a malformed PDU earns an Error Report
//! and a close. At `max_sessions` newcomers are dropped before the
//! handshake, which a compliant router treats as a cache failure and
//! retries (RFC 6810 §6).

use crate::cache::{CacheServer, Response};
use crate::pdu::{ErrorCode, Pdu, PduBuf, PduError};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_ulong};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLNVAL: i16 = 0x020;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Block until a watched descriptor is ready or `timeout` passes;
/// `EINTR` retries. This is the loop's idle state.
fn poll_ready(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    // Round up: a 0 ms timeout for a deadline 300 µs away would spin.
    let timeout_ms = timeout.as_micros().div_ceil(1000).min(i32::MAX as u128) as c_int;
    loop {
        // SAFETY: `fds` is a valid exclusively-borrowed slice, its
        // length is passed as `nfds`, and the kernel only writes the
        // `revents` fields within those bounds.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc >= 0 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// How long a session's outbound queue may make no progress before the
/// peer is dropped (the same bound `ripki-serve` gives a stalled HTTP
/// write).
pub const WRITE_STALL: Duration = Duration::from_secs(5);

/// Tunables of the RTR session plane.
#[derive(Debug, Clone)]
pub struct ListenerConfig {
    /// Concurrent RTR sessions allowed; newcomers beyond the watermark
    /// are refused before the handshake.
    pub max_sessions: usize,
    /// The loop's idle `poll` timeout: how often, with nothing
    /// happening, it re-runs its sweeps (pending notifies, write
    /// stalls) as a safety net for a lost wake. It is **off the latency
    /// path** — a serial advance, a connection, router bytes and
    /// [`RtrListener::shutdown`] all wake the loop at once.
    pub session_poll: Duration,
}

impl Default for ListenerConfig {
    fn default() -> ListenerConfig {
        ListenerConfig {
            max_sessions: 1024,
            session_poll: Duration::from_secs(1),
        }
    }
}

/// A running RTR session loop; dropping it (or calling
/// [`RtrListener::shutdown`]) closes the listener and every session and
/// joins the loop's thread.
pub struct RtrListener {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    sessions: Arc<AtomicUsize>,
    refused: Arc<AtomicUsize>,
    /// Our own handle on the loop's wake socket (the cache holds
    /// another): shutdown must not wait out an idle `poll`.
    waker: UnixStream,
    thread: Option<JoinHandle<()>>,
}

impl RtrListener {
    /// Take ownership of a bound listener and start serving RTR
    /// sessions for `cache`.
    pub fn spawn(
        listener: TcpListener,
        cache: Arc<CacheServer>,
        config: ListenerConfig,
    ) -> io::Result<RtrListener> {
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (wake_rx, waker) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        waker.set_nonblocking(true)?;
        cache.register_waker(waker.try_clone()?)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let sessions = Arc::new(AtomicUsize::new(0));
        let refused = Arc::new(AtomicUsize::new(0));
        let session_loop = SessionLoop {
            listener,
            wake_rx,
            cache,
            config,
            peers: Vec::new(),
            session_gauge: Arc::clone(&sessions),
            refused: Arc::clone(&refused),
        };
        let thread = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("ripki-rtr-sessions".into())
                .spawn(move || session_loop.run(&shutdown))?
        };
        Ok(RtrListener {
            addr,
            shutdown,
            sessions,
            refused,
            waker,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// RTR sessions currently being served.
    pub fn session_count(&self) -> usize {
        // Relaxed: an independent statistic; readers tolerate slack.
        self.sessions.load(Ordering::Relaxed)
    }

    /// Connections refused at the `max_sessions` watermark so far.
    pub fn refused_count(&self) -> usize {
        // Relaxed: an independent statistic; readers tolerate slack.
        self.refused.load(Ordering::Relaxed)
    }

    /// Stop serving: wake the loop, let it close the listener and every
    /// session, and join its thread.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // A full wake socket already means the loop is about to run.
        let _ = (&self.waker).write_all(&[1]);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for RtrListener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One router connection as an I/O-free state machine, with no socket
/// and no clock: `Idle` (wants input) when nothing is queued,
/// `Responding` while `outbound`/`response` hold bytes, `Closing` once
/// an Error Report is queued.
pub struct Session {
    inbound: PduBuf,
    /// Encoded bytes the peer has not accepted yet, from `sent` on.
    outbound: Vec<u8>,
    sent: usize,
    /// A Reset response with chunks still to encode.
    response: Option<Response>,
    /// Serial of the last End of Data (or Serial Notify) queued for
    /// this router — what it holds, or knows to ask for.
    notified_serial: u32,
    /// When the peer last accepted bytes, or the session last left
    /// `Idle`; a non-idle session is judged stalled against this.
    progress: Instant,
    /// The input did not decode: an Error Report answering this is
    /// queued, and the session is finished once it is flushed.
    failed: Option<PduError>,
    /// The peer hung up, or its transport failed.
    closed: bool,
}

impl Session {
    /// A fresh, idle session whose router has been told nothing newer
    /// than `serial`.
    pub fn new(serial: u32, now: Instant) -> Session {
        Session {
            inbound: PduBuf::new(),
            outbound: Vec::new(),
            sent: 0,
            response: None,
            notified_serial: serial,
            progress: now,
            failed: None,
            closed: false,
        }
    }

    fn has_output(&self) -> bool {
        self.sent < self.outbound.len()
    }

    /// Idle: nothing queued or streaming, ready for the next query (or
    /// a Serial Notify). A session takes its next query only once its
    /// previous answer is flushed, so a peer that stops reading stalls
    /// only itself.
    pub fn wants_read(&self) -> bool {
        !self.has_output() && self.response.is_none() && self.failed.is_none() && !self.closed
    }

    /// When a session that owes its peer bytes is given up on.
    pub fn stall_deadline(&self) -> Option<Instant> {
        (!self.wants_read()).then(|| self.progress + WRITE_STALL)
    }

    /// Owed bytes have made no progress for [`WRITE_STALL`].
    pub fn expired(&self, now: Instant) -> bool {
        self.stall_deadline()
            .is_some_and(|deadline| now >= deadline)
    }

    /// Nothing more will be said: the peer hung up, or the Error Report
    /// is flushed.
    pub fn finished(&self) -> bool {
        self.closed || (self.failed.is_some() && !self.has_output())
    }

    /// The peer hung up or its transport failed.
    pub fn hang_up(&mut self) {
        self.closed = true;
    }

    /// Bytes from the peer: buffered, and answered as far as the
    /// previous answer's flush allows.
    pub fn received(&mut self, bytes: &[u8], cache: &CacheServer, now: Instant) {
        self.inbound.extend(bytes);
        self.answer(cache, now);
    }

    /// Encoded bytes waiting for the peer.
    pub fn writable(&self) -> &[u8] {
        self.outbound.get(self.sent..).unwrap_or_default()
    }

    /// The peer accepted `n` bytes of [`writable`](Self::writable). A
    /// drained queue is refilled with the streaming response's next
    /// chunk, or the answer to the next buffered query.
    pub fn advance_write(&mut self, n: usize, cache: &CacheServer, now: Instant) {
        if n == 0 {
            return;
        }
        self.sent += n;
        self.progress = now;
        if !self.has_output() {
            self.outbound.clear();
            self.sent = 0;
            self.answer(cache, now);
        }
    }

    /// With nothing left on the wire, queue what comes next: the
    /// streaming response's next chunk, else the answer to the next
    /// complete query, else — for input that does not decode — an
    /// Error Report.
    fn answer(&mut self, cache: &CacheServer, now: Instant) {
        while !self.has_output() && self.failed.is_none() && !self.closed {
            if let Some(response) = &mut self.response {
                if !response.next_chunk(&mut self.outbound) {
                    self.response = None;
                }
                continue;
            }
            match self.inbound.next_pdu() {
                Ok(Some(query)) => {
                    let mut response = cache.response_to(&query);
                    if let Some(serial) = response.end_of_data {
                        self.notified_serial = serial;
                    }
                    if response.next_chunk(&mut self.outbound) {
                        self.response = Some(response);
                    }
                }
                Ok(None) => return,
                Err(e) => {
                    self.outbound = corrupt_data_report(&e);
                    self.failed = Some(e);
                }
            }
            self.progress = now;
        }
    }

    /// Queue one Serial Notify if the cache moved past what this idle
    /// router was last told; `true` if one was queued.
    pub fn notify(&mut self, notify: &Pdu, now: Instant) -> bool {
        let Pdu::SerialNotify { serial, .. } = notify else {
            return false;
        };
        if !self.wants_read() || self.notified_serial == *serial {
            return false;
        }
        self.notified_serial = *serial;
        notify.encode_into(&mut self.outbound);
        self.progress = now;
        true
    }
}

/// The Error Report a session sends before dropping a peer whose bytes
/// do not decode.
fn corrupt_data_report(error: &PduError) -> Vec<u8> {
    Pdu::ErrorReport {
        code: ErrorCode::CorruptData,
        erroneous_pdu: Vec::new(),
        text: error.to_string(),
    }
    .encode()
}

/// Bytes one read takes from a peer: RTR queries are 8 or 12 bytes.
const READ_CHUNK: usize = 4096;

/// The poll shell's side of one session: the non-blocking socket the
/// machine's bytes travel over.
struct Peer {
    stream: TcpStream,
    session: Session,
}

impl Peer {
    /// The socket is readable: hand what one read takes (`poll` is
    /// level-triggered) to the machine.
    fn on_readable(&mut self, cache: &CacheServer, now: Instant) {
        let mut chunk = [0u8; READ_CHUNK];
        match self.read_ready(&mut chunk) {
            Ok(0) => self.session.hang_up(),
            Ok(n) => self
                .session
                .received(chunk.get(..n).unwrap_or_default(), cache, now),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => self.session.hang_up(),
        }
    }

    /// Push the machine's pending buffer into the socket until it is
    /// accepted or the socket would block. One buffer per turn: a
    /// streaming Reset yields after each chunk, so one cold router
    /// cannot monopolise a turn; `POLLOUT` re-arms it.
    fn flush(&mut self, cache: &CacheServer, now: Instant) {
        let mut left = self.session.writable().len();
        while left > 0 {
            match self.write_some() {
                Ok(0) => return self.session.hang_up(),
                Ok(n) => {
                    left = left.saturating_sub(n);
                    self.session.advance_write(n, cache, now);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return self.session.hang_up(),
            }
        }
    }

    /// One non-blocking read of a socket `poll` reported readable. With
    /// [`write_some`](Self::write_some), the only calls that touch the
    /// session's fd.
    fn read_ready(&mut self, chunk: &mut [u8]) -> io::Result<usize> {
        self.stream.read(chunk)
    }

    /// One non-blocking write of the machine's pending bytes.
    fn write_some(&mut self) -> io::Result<usize> {
        self.stream.write(self.session.writable())
    }
}

impl CacheServer {
    /// Serve one router connection until it closes (`Ok`), driving the
    /// session loop's machine over a blocking stream: write what it has
    /// to say, then read. Strictly request/response (no Serial Notify)
    /// — the transport for in-memory streams and tests; TCP routers are
    /// served by [`RtrListener`]. Input that does not decode gets an
    /// Error Report, then its decoding error is returned.
    #[expect(
        clippy::disallowed_methods,
        reason = "R2 carve-out: the session machine takes the monotonic clock as an argument"
    )]
    pub fn serve_connection<S: Read + Write>(&self, mut stream: S) -> Result<(), PduError> {
        let mut session = Session::new(self.serial(), Instant::now());
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            while !session.writable().is_empty() {
                let n = session.writable().len();
                if let Err(e) = stream.write_all(session.writable()) {
                    return Err(session.failed.take().unwrap_or_else(|| e.into()));
                }
                session.advance_write(n, self, Instant::now());
            }
            if let Some(e) = session.failed {
                return Err(e); // the Error Report is out: drop the session
            }
            stream.flush()?;
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return Ok(()),
                Ok(n) => session.received(chunk.get(..n).unwrap_or_default(), self, Instant::now()),
            }
        }
    }
}

struct SessionLoop {
    listener: TcpListener,
    wake_rx: UnixStream,
    cache: Arc<CacheServer>,
    config: ListenerConfig,
    peers: Vec<Peer>,
    session_gauge: Arc<AtomicUsize>,
    refused: Arc<AtomicUsize>,
}

impl SessionLoop {
    fn run(mut self, shutdown: &AtomicBool) {
        while !shutdown.load(Ordering::SeqCst) {
            if self.turn().is_err() {
                break; // `poll` itself failed: nothing left to wait on
            }
        }
        // Relaxed: an independent statistic; readers tolerate slack.
        self.session_gauge.store(0, Ordering::Relaxed);
    }

    /// One iteration: wait for readiness, serve what is ready, then
    /// sweep for pending notifies and stalled writers. Never blocks
    /// outside `poll_ready`.
    #[expect(
        clippy::disallowed_methods,
        reason = "R2 carve-out: write-stall deadlines need the monotonic clock"
    )]
    fn turn(&mut self) -> io::Result<()> {
        let mut fds = Vec::with_capacity(2 + self.peers.len());
        fds.push(PollFd {
            fd: self.listener.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        fds.push(PollFd {
            fd: self.wake_rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        fds.extend(self.peers.iter().map(|peer| PollFd {
            fd: peer.stream.as_raw_fd(),
            events: if peer.session.wants_read() {
                POLLIN
            } else {
                POLLOUT
            },
            revents: 0,
        }));
        poll_ready(&mut fds, self.poll_timeout(Instant::now()))?;
        let now = Instant::now();

        let mut ready = fds.iter().map(|fd| fd.revents);
        let accept = ready.next().unwrap_or(0) != 0;
        if ready.next().unwrap_or(0) != 0 {
            self.drain_wake();
        }
        // New peers are pushed behind the polled ones, so the zip below
        // pairs each old peer with its own `revents`.
        for (peer, revents) in self.peers.iter_mut().zip(ready) {
            if revents & (POLLERR | POLLNVAL) != 0 {
                peer.session.hang_up();
            } else if revents != 0 {
                if peer.session.wants_read() {
                    peer.on_readable(&self.cache, now);
                }
                peer.flush(&self.cache, now);
            }
        }
        if accept {
            self.accept_ready();
        }

        // Every turn, not only a woken one: a session that just went
        // idle must hear of an advance that landed mid-response.
        if let Some(notify) = self.cache.notify_pdu() {
            for peer in &mut self.peers {
                if peer.session.notify(&notify, now) {
                    peer.flush(&self.cache, now);
                }
            }
        }
        self.peers
            .retain(|peer| !peer.session.finished() && !peer.session.expired(now));
        let live = self.peers.len();
        // Relaxed: an independent statistic; readers tolerate slack.
        self.session_gauge.store(live, Ordering::Relaxed);
        Ok(())
    }

    /// `session_poll`, shortened to the earliest write-stall deadline.
    fn poll_timeout(&self, now: Instant) -> Duration {
        self.peers
            .iter()
            .filter_map(|peer| peer.session.stall_deadline())
            .map(|deadline| deadline.saturating_duration_since(now))
            .fold(self.config.session_poll, Duration::min)
    }

    fn drain_wake(&mut self) {
        let mut sink = [0u8; 64];
        while matches!(self.wake_rx.read(&mut sink), Ok(n) if n > 0) {}
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "R2 carve-out: a session's stall clock starts at accept"
    )]
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.peers.len() >= self.config.max_sessions.max(1) {
                        // Relaxed: independent statistic, see above.
                        self.refused.fetch_add(1, Ordering::Relaxed);
                        continue; // dropped: refused before the handshake
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Responses are whole buffers; never wait for the
                    // peer's delayed ACK to send a second segment.
                    let _ = stream.set_nodelay(true);
                    let session = Session::new(self.cache.serial(), Instant::now());
                    self.peers.push(Peer { stream, session });
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break, // WouldBlock, or a failure `poll` will re-report
            }
        }
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "R2 exempts test code")]
mod tests {
    //! The session machine with no socket: time is injected, and the
    //! peer is whatever the test takes off `writable`.
    use super::*;
    use crate::cache::RESET_CHUNK;
    use proptest::prelude::*;
    use ripki_bgp::rov::VrpTriple;
    use ripki_net::Asn;

    fn vrps(range: std::ops::Range<u32>) -> impl Iterator<Item = VrpTriple> {
        range.map(|i| VrpTriple {
            prefix: format!("10.{}.{}.0/24", i >> 8, i & 0xff).parse().unwrap(),
            max_length: 24,
            asn: Asn::new(i),
        })
    }

    fn decode_all(mut bytes: &[u8]) -> Vec<Pdu> {
        let mut pdus = Vec::new();
        while let Some((pdu, used)) = Pdu::decode(bytes).unwrap() {
            pdus.push(pdu);
            bytes = &bytes[used..];
        }
        assert!(bytes.is_empty(), "trailing bytes after the last PDU");
        pdus
    }

    /// The peer accepts up to `n` bytes of what the machine has queued
    /// (time stands still).
    fn accept(session: &mut Session, n: usize, cache: &CacheServer, out: &mut Vec<u8>) {
        let taken = session.writable().len().min(n);
        out.extend_from_slice(&session.writable()[..taken]);
        session.advance_write(taken, cache, session.progress);
    }

    /// Answer `queries` over an `n`-record set whose serial advances
    /// once 7 bytes are out, with the loop's notify sweep between
    /// buffers. Returns each response as `(records, End of Data
    /// serial)`, and the Serial Notifies sent.
    fn advance_mid_response(n: u32, queries: &[Pdu]) -> (Vec<(u32, u32)>, Vec<u32>) {
        let cache = CacheServer::new(7);
        cache.install_snapshot(1, vrps(0..n));
        let now = Instant::now();
        let mut session = Session::new(1, now);
        let input: Vec<u8> = queries.iter().flat_map(Pdu::encode).collect();
        session.received(&input, &cache, now);
        let mut out = Vec::new();
        accept(&mut session, 7, &cache, &mut out);
        cache.install_snapshot(2, vrps(0..n + 1));
        let notify = cache.notify_pdu().unwrap();
        while session.notify(&notify, now) || !session.writable().is_empty() {
            accept(&mut session, usize::MAX, &cache, &mut out);
        }
        let (mut responses, mut notifies, mut records) = (Vec::new(), Vec::new(), 0);
        for pdu in decode_all(&out) {
            match pdu {
                Pdu::Ipv4Prefix { .. } => records += 1,
                Pdu::EndOfData { serial, .. } => {
                    responses.push((std::mem::take(&mut records), serial));
                }
                Pdu::SerialNotify { serial, .. } => notifies.push(serial),
                _ => {}
            }
        }
        (responses, notifies)
    }

    #[test]
    fn an_advance_mid_response_is_announced_exactly_once() {
        // The answer on the wire says serial 1: the router is told of 2
        // once — after the answer is flushed, never inside it.
        let query = Pdu::SerialQuery {
            session_id: 7,
            serial: 1,
        };
        assert_eq!(advance_mid_response(1, &[query]), (vec![(0, 1)], vec![2]));
        // Eight pipelined Resets over three chunks: the first streams
        // the set it started with; the rest are answered after the
        // advance, so they say serial 2 and no notify is owed.
        let n = RESET_CHUNK as u32 * 2 + 5;
        let mut expected = vec![(n + 1, 2); 8];
        expected[0] = (n, 1);
        let resets = vec![Pdu::ResetQuery; 8];
        assert_eq!(advance_mid_response(n, &resets), (expected, vec![]));
    }

    #[test]
    fn a_session_that_owes_bytes_expires_at_the_stall_bound() {
        let cache = CacheServer::new(7);
        cache.install_snapshot(1, vrps(0..RESET_CHUNK as u32 + 1));
        let (start, ms) = (Instant::now(), Duration::from_millis);
        let mut session = Session::new(1, start);
        // An idle session owes nothing and never expires.
        assert_eq!(session.stall_deadline(), None);
        assert!(!session.expired(start + WRITE_STALL * 10));

        // Answering starts the clock; a refused write is no progress …
        let asked = start + ms(100);
        session.received(&Pdu::ResetQuery.encode(), &cache, asked);
        // (One bounded chunk is encoded at a time.)
        assert_eq!(decode_all(session.writable()).len(), 1 + RESET_CHUNK);
        session.advance_write(0, &cache, asked + ms(4000));
        assert_eq!(session.stall_deadline(), Some(asked + WRITE_STALL));
        assert!(!session.expired(asked + WRITE_STALL - ms(1)));
        assert!(session.expired(asked + WRITE_STALL));

        // … accepted bytes re-arm it …
        let wrote = asked + ms(4000);
        session.advance_write(1, &cache, wrote);
        assert!(!session.expired(wrote + WRITE_STALL - ms(1)));
        assert!(session.expired(wrote + WRITE_STALL));

        // … and a flushed session is idle again.
        while !session.writable().is_empty() {
            accept(&mut session, usize::MAX, &cache, &mut Vec::new());
        }
        assert!(!session.expired(wrote + WRITE_STALL * 10));
    }

    /// Feed `input` in the pieces `cuts` marks, letting the peer accept
    /// one write (sizes cycling through `writes`, 0 = pushed back)
    /// after each piece, then drain. Returns the bytes on the wire.
    fn run_split(cache: &CacheServer, input: &[u8], cuts: &[usize], writes: &[usize]) -> Vec<u8> {
        let now = Instant::now();
        let mut session = Session::new(cache.serial(), now);
        let mut sizes = writes.iter().copied().cycle();
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (input.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.push(input.len());
        let (mut start, mut out) = (0, Vec::new());
        for cut in cuts {
            session.received(&input[start..cut], cache, now);
            start = cut;
            accept(&mut session, sizes.next().unwrap(), cache, &mut out);
        }
        while !session.writable().is_empty() {
            accept(&mut session, sizes.next().unwrap().max(1), cache, &mut out);
        }
        out
    }

    /// What a router is owed for `input`, decoded independently of the
    /// machine: each query's `handle_query` answer in order, and an
    /// Error Report in place of the first PDU that does not decode.
    fn expected(cache: &CacheServer, mut input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        loop {
            match Pdu::decode(input) {
                Ok(Some((query, used))) => {
                    cache
                        .handle_query(&query)
                        .iter()
                        .for_each(|pdu| pdu.encode_into(&mut out));
                    input = &input[used..];
                }
                Ok(None) => return out,
                Err(e) => return [out, corrupt_data_report(&e)].concat(),
            }
        }
    }

    /// No data yet, or three serials whose newest set is exactly two
    /// Reset chunks (its End of Data goes out in a chunk of its own).
    fn split_cache(with_data: bool) -> CacheServer {
        let cache = CacheServer::new(9);
        let c = RESET_CHUNK as u32;
        if with_data {
            cache.update(vrps(0..2 * c + 1));
            cache.update(vrps(1..2 * c + 3));
            let v6 = VrpTriple {
                prefix: "2001:db8::/32".parse().unwrap(),
                max_length: 48,
                asn: Asn::new(2),
            };
            cache.update(vrps(2..2 * c + 1).chain([v6]));
        }
        cache
    }

    fn arb_query() -> impl Strategy<Value = Pdu> {
        prop_oneof![
            Just(Pdu::ResetQuery),
            (0u32..5).prop_map(|serial| Pdu::SerialQuery {
                session_id: 9,
                serial
            }),
            Just(Pdu::SerialQuery {
                session_id: 8,
                serial: 3
            }),
            Just(Pdu::CacheReset),
        ]
    }

    #[test]
    fn a_query_delivered_one_byte_at_a_time_is_answered_as_one_shot() {
        let cache = split_cache(true);
        let input = [
            Pdu::SerialQuery {
                session_id: 9,
                serial: 2,
            }
            .encode(),
            Pdu::ResetQuery.encode(),
        ]
        .concat();
        let every_byte: Vec<usize> = (0..input.len()).collect();
        let one_shot = run_split(&cache, &input, &[], &[usize::MAX]);
        assert_eq!(run_split(&cache, &input, &every_byte, &[1]), one_shot);
        assert_eq!(one_shot, expected(&cache, &input));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// However the query bytes are split and however many bytes
        /// each write accepts, the wire carries exactly what one shot
        /// does — and that is each query's reference answer in order.
        #[test]
        fn output_is_invariant_under_input_splits_and_write_sizes(
            with_data in any::<bool>(),
            queries in prop::collection::vec(arb_query(), 1..6),
            garbage in prop::collection::vec(any::<u8>(), 0..12),
            cuts in prop::collection::vec(any::<usize>(), 0..10),
            writes in prop::collection::vec(0usize..3000, 1..6),
        ) {
            let cache = split_cache(with_data);
            let input = [queries.iter().flat_map(Pdu::encode).collect(), garbage].concat();
            let one_shot = run_split(&cache, &input, &[], &[usize::MAX]);
            prop_assert_eq!(&one_shot, &expected(&cache, &input));
            prop_assert_eq!(run_split(&cache, &input, &cuts, &writes), one_shot);
        }
    }
}
