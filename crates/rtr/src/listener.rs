//! The RTR session plane: one wake-driven `poll(2)` loop serving every
//! router of a [`CacheServer`].
//!
//! This is the only RTR serving stack over TCP — `ripki-cli serve
//! --rtr-listen`, `rtr-serve` and the proxy's `rtr` target all run it.
//! One thread owns the listener, a wake socket and every session
//! socket, all non-blocking, in one `poll` set (its own minimal binding:
//! rtr sits below `ripki-serve` in the crate layering, and `std` links
//! the platform libc, so the symbol resolves without a new dependency).
//!
//! ```text
//!                  ┌────────── query decoded ──────────┐
//!                  ▼                                   │
//!   accept ──▶  Idle ──(serial advanced)──▶ queue Serial Notify ──┐
//!    │           ▲  POLLIN                                        │
//!    │           │                                                ▼
//!    │           └── queue drained ◀── Responding (POLLOUT while bytes
//!    │                                  │           are queued; a Reset
//!    │   malformed PDU                  │           refills one chunk
//!    ▼        │                         │           per turn)
//!  refused    ▼                         ▼
//!  (at cap)  Closing: Error Report,   no progress for WRITE_STALL,
//!            flush, drop              EOF, or socket error: drop
//! ```
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
//! on `POLLOUT`; a Reset response is encoded in bounded chunks from a
//! snapshot, never under the cache lock. A session reads its next query
//! only once its previous answer is flushed, so a peer that stops
//! reading stalls only itself and is dropped after [`WRITE_STALL`]; a
//! malformed PDU earns an Error Report and a close. At `max_sessions`
//! newcomers are dropped before the handshake, which a compliant router
//! treats as a cache failure and retries (RFC 6810 §6).

use crate::cache::{corrupt_data_report, CacheServer, Response};
use crate::pdu::{Pdu, PduBuf};
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
            sessions: Vec::new(),
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

/// One router connection as a small state machine: `Idle` (reading)
/// when nothing is queued, `Responding` while `outbound`/`response`
/// hold bytes, `Closing` once an Error Report is queued.
struct Session {
    stream: TcpStream,
    inbound: PduBuf,
    /// Encoded bytes the socket has not accepted yet, from `sent` on.
    outbound: Vec<u8>,
    sent: usize,
    /// A Reset response with chunks still to encode.
    response: Option<Response>,
    /// Serial of the last End of Data (or Serial Notify) queued for
    /// this router — what it holds, or knows to ask for.
    notified_serial: u32,
    /// When the socket last accepted bytes, or the session last left
    /// `Idle`; a non-idle session is judged stalled against this.
    progress: Instant,
    /// An Error Report is queued: drop the session once it is flushed.
    closing: bool,
    dead: bool,
}

impl Session {
    /// An accepted (already non-blocking) connection, idle, whose
    /// router has been told nothing newer than `serial`.
    fn new(stream: TcpStream, serial: u32, now: Instant) -> Session {
        Session {
            stream,
            inbound: PduBuf::new(),
            outbound: Vec::new(),
            sent: 0,
            response: None,
            notified_serial: serial,
            progress: now,
            closing: false,
            dead: false,
        }
    }

    fn has_output(&self) -> bool {
        self.sent < self.outbound.len()
    }

    /// Nothing queued, nothing streaming: ready for the next query (or
    /// a Serial Notify).
    fn idle(&self) -> bool {
        !self.has_output() && self.response.is_none() && !self.closing
    }

    /// When a session that owes its peer bytes is given up on.
    fn stall_deadline(&self) -> Option<Instant> {
        (!self.idle()).then(|| self.progress + WRITE_STALL)
    }

    fn interest(&self) -> i16 {
        if self.idle() {
            POLLIN
        } else {
            POLLOUT
        }
    }

    /// The socket is readable: take what is there (one read per turn —
    /// `poll` is level-triggered) into the inbound buffer.
    fn read_ready(&mut self) {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => self.dead = true,
            Ok(n) => self.inbound.extend(chunk.get(..n).unwrap_or_default()),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => self.dead = true,
        }
    }

    /// Drive the machine as far as the socket allows: flush, then turn
    /// the next buffered query into a queued response, until the
    /// socket pushes back or the input runs dry.
    fn drive(&mut self, cache: &CacheServer, now: Instant) {
        loop {
            self.write_some(now);
            // A streaming Reset yields after each chunk, so one cold
            // router cannot monopolise a turn; POLLOUT re-arms it.
            if self.dead || self.has_output() || self.response.is_some() {
                return;
            }
            if self.closing {
                self.dead = true;
                return;
            }
            match self.inbound.next_pdu() {
                Ok(Some(query)) => self.queue_response(cache.response_to(&query)),
                Ok(None) => return,
                Err(e) => {
                    self.outbound = corrupt_data_report(&e);
                    self.closing = true;
                }
            }
            self.progress = now;
        }
    }

    fn queue_response(&mut self, mut response: Response) {
        if let Some(serial) = response.end_of_data {
            self.notified_serial = serial;
        }
        if response.next_chunk(&mut self.outbound) {
            self.response = Some(response);
        }
    }

    /// Queue one Serial Notify if the cache moved past what this idle
    /// router was last told.
    fn notify(&mut self, notify: &Pdu, now: Instant) {
        let Pdu::SerialNotify { serial, .. } = notify else {
            return;
        };
        if self.idle() && self.notified_serial != *serial {
            self.notified_serial = *serial;
            notify.encode_into(&mut self.outbound);
            self.progress = now;
            self.write_some(now);
        }
    }

    /// Push queued bytes into the socket until it would block. An empty
    /// queue (`outbound` is then cleared, `sent` zero) is first refilled
    /// with the streaming response's next chunk.
    fn write_some(&mut self, now: Instant) {
        if !self.has_output() {
            if let Some(response) = &mut self.response {
                if !response.next_chunk(&mut self.outbound) {
                    self.response = None;
                }
            }
        }
        while let Some(pending) = self.outbound.get(self.sent..).filter(|p| !p.is_empty()) {
            match self.stream.write(pending) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.sent += n;
                    self.progress = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.outbound.clear();
        self.sent = 0;
    }
}

struct SessionLoop {
    listener: TcpListener,
    wake_rx: UnixStream,
    cache: Arc<CacheServer>,
    config: ListenerConfig,
    sessions: Vec<Session>,
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
        let mut fds = Vec::with_capacity(2 + self.sessions.len());
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
        fds.extend(self.sessions.iter().map(|s| PollFd {
            fd: s.stream.as_raw_fd(),
            events: s.interest(),
            revents: 0,
        }));
        poll_ready(&mut fds, self.poll_timeout(Instant::now()))?;
        let now = Instant::now();

        let mut ready = fds.iter().map(|fd| fd.revents);
        let accept = ready.next().unwrap_or(0) != 0;
        if ready.next().unwrap_or(0) != 0 {
            self.drain_wake();
        }
        // New sessions are pushed behind the polled ones, so the zip
        // below pairs each old session with its own `revents`.
        for (session, revents) in self.sessions.iter_mut().zip(ready) {
            if revents & (POLLERR | POLLNVAL) != 0 {
                session.dead = true;
            } else if revents != 0 {
                if session.idle() {
                    session.read_ready();
                }
                session.drive(&self.cache, now);
            }
        }
        if accept {
            self.accept_ready();
        }

        // Every turn, not only a woken one: a session that just went
        // idle must hear of an advance that landed mid-response.
        if let Some(notify) = self.cache.notify_pdu() {
            for session in &mut self.sessions {
                session.notify(&notify, now);
            }
        }
        self.sessions
            .retain(|s| !s.dead && s.stall_deadline().is_none_or(|deadline| now < deadline));
        let live = self.sessions.len();
        // Relaxed: an independent statistic; readers tolerate slack.
        self.session_gauge.store(live, Ordering::Relaxed);
        Ok(())
    }

    /// `session_poll`, shortened to the earliest write-stall deadline.
    fn poll_timeout(&self, now: Instant) -> Duration {
        self.sessions
            .iter()
            .filter_map(Session::stall_deadline)
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
                    if self.sessions.len() >= self.config.max_sessions.max(1) {
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
                    let serial = self.cache.serial();
                    self.sessions
                        .push(Session::new(stream, serial, Instant::now()));
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
    use super::*;
    use crate::client::{Client, SyncOutcome};
    use ripki_bgp::rov::VrpTriple;

    fn cache_with_vrps() -> Arc<CacheServer> {
        let cache = Arc::new(CacheServer::new(0x2222));
        let vrp = VrpTriple {
            asn: "AS65000".parse().unwrap(),
            prefix: "192.0.2.0/24".parse().unwrap(),
            max_length: 24,
        };
        cache.install_snapshot(1, [vrp]);
        cache
    }

    /// An accepted, non-blocking session plus the router's end of it.
    fn session_pair(cache: &CacheServer) -> (Session, TcpStream) {
        let bound = TcpListener::bind("127.0.0.1:0").unwrap();
        let router = TcpStream::connect(bound.local_addr().unwrap()).unwrap();
        let (stream, _) = bound.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        (Session::new(stream, cache.serial(), Instant::now()), router)
    }

    #[test]
    fn an_advance_between_a_response_and_its_bookkeeping_is_still_notified() {
        let cache = cache_with_vrps();
        let (mut session, mut router) = session_pair(&cache);
        // The response is computed at serial 1 …
        let response = cache.response_to(&Pdu::SerialQuery {
            session_id: 0x2222,
            serial: 1,
        });
        // … the cache moves on before the session records anything …
        cache.install_snapshot(2, []);
        let now = Instant::now();
        session.queue_response(response);
        session.drive(&cache, now);
        // … so the session must remember what it *sent* (End of Data 1),
        // not what the cache holds now, and owe the router a notify.
        assert_eq!(session.notified_serial, 1);
        session.notify(&cache.notify_pdu().unwrap(), now);
        assert_eq!(session.notified_serial, 2);
        // Exactly one: the same advance is not announced twice.
        session.notify(&cache.notify_pdu().unwrap(), now);

        router
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut buf = PduBuf::new();
        let mut seen = Vec::new();
        while let Ok(pdu) = crate::pdu::read_pdu(&mut router, &mut buf) {
            seen.push(pdu);
        }
        assert_eq!(
            seen,
            [
                Pdu::CacheResponse { session_id: 0x2222 },
                Pdu::EndOfData {
                    session_id: 0x2222,
                    serial: 1
                },
                Pdu::SerialNotify {
                    session_id: 0x2222,
                    serial: 2
                },
            ]
        );
    }

    #[test]
    fn listener_serves_a_full_rtr_sync() {
        let cache = cache_with_vrps();
        let bound = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut listener =
            RtrListener::spawn(bound, Arc::clone(&cache), ListenerConfig::default()).unwrap();
        let stream = TcpStream::connect(listener.addr()).unwrap();
        let mut client = Client::new(stream);
        let SyncOutcome::Updated { serial, .. } = client.sync().unwrap();
        assert_eq!(serial, 1);
        assert_eq!(client.vrps().len(), 1);
        listener.shutdown();
    }

    #[test]
    fn watermark_refuses_extra_sessions_but_keeps_serving() {
        let cache = cache_with_vrps();
        let bound = TcpListener::bind("127.0.0.1:0").unwrap();
        let config = ListenerConfig {
            max_sessions: 1,
            ..ListenerConfig::default()
        };
        let mut listener = RtrListener::spawn(bound, Arc::clone(&cache), config).unwrap();
        // First session occupies the single slot.
        let stream = TcpStream::connect(listener.addr()).unwrap();
        let mut client = Client::new(stream);
        let SyncOutcome::Updated { .. } = client.sync().unwrap();
        assert_eq!(client.vrps().len(), 1);
        // While it is held open (the client keeps the socket), a second
        // connection must be refused: its socket closes without a
        // single RTR PDU arriving.
        let mut second = TcpStream::connect(listener.addr()).unwrap();
        second
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let mut byte = [0u8; 1];
            match second.read(&mut byte) {
                Ok(0) => break, // refused: clean close, no PDU
                Ok(_) => panic!("refused session received data"),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "refusal did not surface in time"
                    );
                }
                Err(_) => break, // reset also counts as refusal
            }
        }
        assert!(listener.refused_count() >= 1);
        // The original session still works after the refusal.
        let SyncOutcome::Updated { serial, .. } = client.sync().unwrap();
        assert_eq!(serial, 1);
        drop(client);
        listener.shutdown();
    }

    #[test]
    fn shutdown_returns_promptly_without_a_wakeup_connection() {
        let cache = cache_with_vrps();
        let bound = TcpListener::bind("127.0.0.1:0").unwrap();
        // An idle poll of 30 s: only the wake socket can make this fast.
        let config = ListenerConfig {
            session_poll: Duration::from_secs(30),
            ..ListenerConfig::default()
        };
        let mut listener = RtrListener::spawn(bound, cache, config).unwrap();
        let started = std::time::Instant::now();
        listener.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "shutdown must not wait for a connection or a poll timeout"
        );
    }
}
