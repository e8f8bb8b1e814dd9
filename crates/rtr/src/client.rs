//! The router side of RTR: one I/O-free machine and its blocking shell.
//!
//! [`ClientMachine`] is the protocol, shaped like the cache's
//! [`Session`](crate::listener::Session): query bytes out, the cache's
//! bytes in, and an [`Event`] — notified, synced or failed — once one is
//! complete; no stream, no clock. [`Client`] is its one blocking shell
//! over any `Read + Write` stream. The session context outlives a
//! connection ([`Client::reconnect`]), and is flushed when the cache
//! turns out to have restarted (RFC 8210 §5.1). When to redial, and how
//! long to wait, is the caller's: the proxy's `rtr` unit paces its
//! attempts with a [`Backoff`].

use crate::pdu::{ErrorCode, Pdu, PduBuf, PduError};
use ripki_bgp::rov::{RouteOriginValidator, VrpTriple};
use ripki_net::{IpPrefix, Ipv4Prefix, Ipv6Prefix};
use ripki_payload::VrpPayload;
use std::collections::BTreeSet;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Transport or decoding problem.
    Pdu(PduError),
    /// The cache sent an Error Report.
    CacheError {
        /// The reported code.
        code: ErrorCode,
        /// The reported diagnostic text.
        text: String,
    },
    /// The cache sent something that violates the protocol state machine.
    ProtocolViolation(&'static str),
    /// A withdraw for a VRP we do not hold (RFC 6810 §10 code 6).
    WithdrawalOfUnknown(VrpTriple),
    /// An announce for a VRP we already hold (RFC 6810 §10 code 7).
    DuplicateAnnouncement(VrpTriple),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Pdu(e) => write!(f, "{e}"),
            ClientError::CacheError { code, text } => {
                write!(f, "cache reported {code}: {text}")
            }
            ClientError::ProtocolViolation(what) => {
                write!(f, "protocol violation: {what}")
            }
            ClientError::WithdrawalOfUnknown(v) => {
                write!(f, "withdrawal of unknown record {v:?}")
            }
            ClientError::DuplicateAnnouncement(v) => {
                write!(f, "duplicate announcement {v:?}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<PduError> for ClientError {
    fn from(e: PduError) -> ClientError {
        ClientError::Pdu(e)
    }
}

/// What a sync accomplished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncOutcome {
    /// State updated to `serial`; counts of applied records.
    Updated {
        /// The serial now held.
        serial: u32,
        /// Announcements applied.
        announced: usize,
        /// Withdrawals applied.
        withdrawn: usize,
    },
}

/// The net change one incremental sync applied: what a Serial Query's
/// answer carried, with records that cancel inside a multi-serial
/// answer (announced at one serial, withdrawn at the next) removed.
/// Both lists are in canonical VRP order, so this equals the set
/// difference between the states before and after the sync.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireDelta {
    /// The serial the sync started from.
    pub from_serial: u32,
    /// VRPs held now but not before.
    pub announced: Vec<VrpTriple>,
    /// VRPs held before but not now.
    pub withdrawn: Vec<VrpTriple>,
}

/// What [`ClientMachine::received`] reports once bytes complete it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Idle, the cache pushed Serial Notify (the newest buffered).
    Notified(u32),
    /// The sync finished.
    Synced(SyncOutcome),
    /// The sync failed, or an idle router got another PDU.
    Failed(ClientError),
}

/// A query in flight and what its answer has delivered so far.
struct Exchange {
    /// The serial a Serial Query asked from; `None` for a Reset Query.
    from_serial: Option<u32>,
    /// The Cache Response's session id, once it arrived.
    session_id: Option<u16>,
    /// Records staged until End of Data arrives intact.
    staged: Vec<(bool, VrpTriple)>,
    /// This is the Reset Query that followed a Cache Reset.
    retry: bool,
}

/// The router's RTR session as an I/O-free state machine.
///
/// The VRP set is the router's own model: a plain `BTreeSet`, edited in
/// place by every sync and never shared. It is never half advanced: a
/// failed sync leaves the set as it was (records are staged until End
/// of Data) or — after a Cache Reset, a response that contradicts the
/// set held, or a cache whose session no longer matches — empty with no
/// `(session, serial)`, so the next sync is a Reset Query.
#[derive(Default)]
pub struct ClientMachine {
    inbound: PduBuf,
    /// Query bytes the cache has not taken yet.
    outbound: Vec<u8>,
    exchange: Option<Exchange>,
    /// `(session_id, serial)` once synchronized.
    state: Option<(u16, u32)>,
    vrps: BTreeSet<VrpTriple>,
    /// Latest serial announced by an unsolicited Serial Notify.
    notified_serial: Option<u32>,
    /// What the last successful sync changed, when it was incremental.
    last_delta: Option<WireDelta>,
}

impl ClientMachine {
    /// Carry on over a fresh connection with `(session_id, serial)` and
    /// the VRP set; whatever else the old connection left is dropped.
    pub fn reconnect(&mut self) {
        *self = ClientMachine {
            state: self.state,
            vrps: std::mem::take(&mut self.vrps),
            ..ClientMachine::default()
        };
    }

    /// The `(session_id, serial)` pair, once synchronized.
    pub fn state(&self) -> Option<(u16, u32)> {
        self.state
    }

    /// The VRPs currently held.
    pub fn vrps(&self) -> &BTreeSet<VrpTriple> {
        &self.vrps
    }

    /// The serial most recently announced by an unsolicited Serial
    /// Notify (RFC 6810 §5.2), if any arrived.
    pub fn notified_serial(&self) -> Option<u32> {
        self.notified_serial
    }

    /// The net announce/withdraw lists of the last successful sync,
    /// when a Serial Query was answered with a delta.
    pub fn last_delta(&self) -> Option<&WireDelta> {
        self.last_delta.as_ref()
    }

    /// Start a sync, abandoning any in flight: queue a Serial Query
    /// when synchronized, a Reset Query otherwise.
    pub fn sync(&mut self) {
        self.outbound.clear();
        self.ask(false);
    }

    /// Query bytes waiting for the cache.
    pub fn writable(&self) -> &[u8] {
        &self.outbound
    }

    /// The cache took `n` bytes of [`writable`](Self::writable).
    pub fn advance_write(&mut self, n: usize) {
        self.outbound.drain(..n.min(self.outbound.len()));
    }

    /// Bytes from the cache, decoded until an [`Event`] is complete
    /// (`None`: more are needed); what follows it stays buffered for the
    /// next call. Serial Notify is absorbed at any time.
    pub fn received(&mut self, bytes: &[u8]) -> Option<Event> {
        self.inbound.extend(bytes);
        let mut notified = None;
        loop {
            let pdu = match self.inbound.next_pdu() {
                Ok(Some(pdu)) => pdu,
                Ok(None) => return notified.map(Event::Notified),
                Err(e) => return Some(self.fail(ClientError::Pdu(e))),
            };
            if let Pdu::SerialNotify { serial, .. } = pdu {
                self.notified_serial = Some(serial);
                notified = self.exchange.is_none().then_some(serial);
            } else if let Some(event) = self.answer(pdu) {
                return Some(event);
            }
        }
    }

    /// Queue the query the state calls for and open its exchange.
    fn ask(&mut self, retry: bool) {
        self.last_delta = None;
        let query = match self.state {
            Some((session_id, serial)) => Pdu::SerialQuery { session_id, serial },
            None => Pdu::ResetQuery,
        };
        query.encode_into(&mut self.outbound);
        self.exchange = Some(Exchange {
            from_serial: self.state.map(|(_, serial)| serial),
            session_id: None,
            staged: Vec::new(),
            retry,
        });
    }

    /// End the exchange in flight with `error`.
    fn fail(&mut self, error: ClientError) -> Event {
        self.exchange = None;
        Event::Failed(error)
    }

    /// One PDU other than Serial Notify: staged in the exchange in
    /// flight, or the event that ends it.
    fn answer(&mut self, pdu: Pdu) -> Option<Event> {
        let violation = ClientError::ProtocolViolation;
        let Some(exchange) = &mut self.exchange else {
            return Some(Event::Failed(violation(
                "unsolicited PDU other than Serial Notify",
            )));
        };
        let (retry, serial_query) = (exchange.retry, exchange.from_serial.is_some());
        let Some(session_id) = exchange.session_id else {
            return match pdu {
                Pdu::CacheResponse { session_id } => {
                    // An answer under another session id than the one
                    // held: the cache restarted, and RFC 8210 §5.1 says
                    // the router MUST flush what it learned.
                    if self.state.is_some_and(|(held, _)| held != session_id) {
                        self.forget();
                        return Some(self.fail(violation("session id changed mid-session")));
                    }
                    exchange.session_id = Some(session_id);
                    None
                }
                Pdu::CacheReset => self.cache_reset(retry),
                Pdu::ErrorReport { code, text, .. } => {
                    Some(self.cache_error(code, text, serial_query))
                }
                _ => Some(self.fail(violation("expected Cache Response"))),
            };
        };
        let (announce, prefix, max_length, asn) = match pdu {
            Pdu::Ipv4Prefix {
                announce,
                prefix_len,
                max_len,
                prefix,
                asn,
            } => match Ipv4Prefix::new(prefix, prefix_len) {
                Ok(prefix) => (announce, IpPrefix::V4(prefix), max_len, asn),
                Err(_) => return Some(self.fail(violation("bad v4 prefix"))),
            },
            Pdu::Ipv6Prefix {
                announce,
                prefix_len,
                max_len,
                prefix,
                asn,
            } => match Ipv6Prefix::new(prefix, prefix_len) {
                Ok(prefix) => (announce, IpPrefix::V6(prefix), max_len, asn),
                Err(_) => return Some(self.fail(violation("bad v6 prefix"))),
            },
            Pdu::EndOfData {
                serial,
                session_id: eod_session,
            } => {
                if eod_session != session_id {
                    self.forget();
                    return Some(self.fail(violation("End of Data session mismatch")));
                }
                let staged = std::mem::take(&mut exchange.staged);
                let from_serial = exchange.from_serial;
                self.exchange = None;
                return Some(self.apply(staged, from_serial, (session_id, serial)));
            }
            // The cache noticed mid-response that it cannot finish the
            // delta (history evicted under it, serial wrapped): discard
            // everything staged and start over, exactly as for an
            // up-front Cache Reset.
            Pdu::CacheReset => return self.cache_reset(retry),
            Pdu::ErrorReport { code, text, .. } => {
                return Some(self.cache_error(code, text, serial_query))
            }
            _ => return Some(self.fail(violation("unexpected PDU inside response"))),
        };
        let vrp = VrpTriple {
            prefix,
            max_length,
            asn,
        };
        exchange.staged.push((announce, vrp));
        None
    }

    /// Void everything learned from the cache, so the next sync starts
    /// over with a Reset Query.
    fn forget(&mut self) {
        self.state = None;
        self.vrps.clear();
        self.last_delta = None;
    }

    /// A Cache Reset: drop state and ask again with a Reset Query —
    /// unless this exchange is that retry already.
    fn cache_reset(&mut self, retry: bool) -> Option<Event> {
        if retry {
            return Some(self.fail(ClientError::ProtocolViolation(
                "Cache Reset in response to Reset Query",
            )));
        }
        self.forget();
        self.ask(true);
        None
    }

    /// An Error Report from the cache, which ends the exchange. Corrupt
    /// Data in answer to a Serial Query is how a cache rejects a session
    /// id it does not know — it restarted — so what we learned from it
    /// is [forgotten](Self::forget) (RFC 8210 §5.1).
    fn cache_error(&mut self, code: ErrorCode, text: String, serial_query: bool) -> Event {
        if code == ErrorCode::CorruptData && serial_query {
            self.forget();
        }
        self.fail(ClientError::CacheError { code, text })
    }

    /// End of Data arrived intact: apply what was staged. A response
    /// that contradicts the set held (a duplicate announcement, a
    /// withdrawal of an unknown record) cannot be trusted in any part:
    /// the machine [forgets](Self::forget) what it held rather than
    /// keep a set that is half advanced under the old serial, which
    /// every retry of the same Serial Query would trip over again.
    fn apply(
        &mut self,
        staged: Vec<(bool, VrpTriple)>,
        from_serial: Option<u32>,
        (session_id, serial): (u16, u32),
    ) -> Event {
        let (mut announced, mut withdrawn) = (0usize, 0usize);
        // Net change of an incremental answer (records that cancel
        // across the serials of one answer drop out); a full reload has
        // none worth keeping — it is the whole set.
        let mut net = from_serial.map(|from| (from, BTreeSet::new(), BTreeSet::new()));
        for (announce, vrp) in staged {
            if announce {
                if !self.vrps.insert(vrp) {
                    self.forget();
                    return Event::Failed(ClientError::DuplicateAnnouncement(vrp));
                }
                announced += 1;
            } else {
                if !self.vrps.remove(&vrp) {
                    self.forget();
                    return Event::Failed(ClientError::WithdrawalOfUnknown(vrp));
                }
                withdrawn += 1;
            }
            if let Some((_, net_announced, net_withdrawn)) = &mut net {
                let (same, opposite) = if announce {
                    (net_announced, net_withdrawn)
                } else {
                    (net_withdrawn, net_announced)
                };
                if !opposite.remove(&vrp) {
                    same.insert(vrp);
                }
            }
        }
        self.last_delta = net.map(|(from_serial, announced, withdrawn)| WireDelta {
            from_serial,
            announced: announced.into_iter().collect(),
            withdrawn: withdrawn.into_iter().collect(),
        });
        self.state = Some((session_id, serial));
        Event::Synced(SyncOutcome::Updated {
            serial,
            announced,
            withdrawn,
        })
    }
}

/// Bytes one read of the shell takes: a 100k-record Reset response is
/// about thirty of them.
const READ_CHUNK: usize = 64 * 1024;

/// An RTR client over any blocking byte stream: the [`ClientMachine`]'s
/// one shell, writing what it queues and feeding it what each read
/// returns.
pub struct Client<S: Read + Write> {
    stream: S,
    machine: ClientMachine,
}

impl<S: Read + Write> Client<S> {
    /// Wrap a connected stream.
    pub fn new(stream: S) -> Client<S> {
        Client {
            stream,
            machine: ClientMachine::default(),
        }
    }

    /// Carry on over `stream`, a fresh connection replacing one that
    /// died, keeping `(session_id, serial)` and the VRP set: the next
    /// [`sync`](Self::sync) is an incremental Serial Query, and the
    /// cache decides whether the gap is still bridgeable.
    pub fn reconnect(&mut self, stream: S) {
        self.stream = stream;
        self.machine.reconnect();
    }

    /// The `(session_id, serial)` pair, once synchronized.
    pub fn state(&self) -> Option<(u16, u32)> {
        self.machine.state()
    }

    /// The VRPs currently held.
    pub fn vrps(&self) -> &BTreeSet<VrpTriple> {
        self.machine.vrps()
    }

    /// The serial most recently announced by an unsolicited Serial
    /// Notify (RFC 6810 §5.2), if any arrived. A value newer than
    /// [`state`](Self::state)'s serial means a [`sync`](Self::sync) is
    /// due.
    pub fn notified_serial(&self) -> Option<u32> {
        self.machine.notified_serial()
    }

    /// Whether the cache has announced data newer than what we hold.
    pub fn needs_sync(&self) -> bool {
        match (self.notified_serial(), self.state()) {
            (Some(n), Some((_, held))) => n != held,
            (Some(_), None) => true,
            _ => false,
        }
    }

    /// Build an origin validator from the current VRP set.
    pub fn to_validator(&self) -> RouteOriginValidator {
        RouteOriginValidator::from_vrps(self.vrps().iter().copied())
    }

    /// The current VRP set converted to an epoch-stamped payload
    /// (`None` before the first sync) — an O(n) copy, for probes, tests
    /// and a follower's full reload; a follower that stays in lockstep
    /// advances its own payload by [`last_delta`](Self::last_delta)
    /// instead. The epoch is the RTR serial widened to `u64`, mirroring
    /// [`VrpPayload::serial`]'s truncation in the other direction.
    pub fn payload(&self) -> Option<VrpPayload> {
        self.state()
            .map(|(_, serial)| VrpPayload::new(u64::from(serial), self.vrps().iter().copied()))
    }

    /// The net announce/withdraw lists of the last successful
    /// [`sync`](Self::sync), when a Serial Query was answered with a
    /// delta; `None` after a full reload (first contact, Cache Reset)
    /// or a failed sync. A proxy forwards this instead of diffing two
    /// full sets to rediscover it.
    pub fn last_delta(&self) -> Option<&WireDelta> {
        self.machine.last_delta()
    }

    /// Wait for an unsolicited Serial Notify without issuing a query,
    /// returning the newest serial absorbed (`Ok(None)` when none
    /// arrived). A notify already buffered returns at once; otherwise
    /// the stream must have a read timeout (or be non-blocking), and a
    /// timed-out read is "nothing pending". Back-to-back notifies
    /// collapse to the newest. Anything other than a Serial Notify
    /// outside a query/response exchange is a protocol violation.
    pub fn poll_notify(&mut self) -> Result<Option<u32>, ClientError> {
        loop {
            match self.next_event() {
                Ok(Event::Notified(serial)) => return Ok(Some(serial)),
                Ok(Event::Failed(e)) => return Err(e),
                // The late answer to a sync abandoned at the transport.
                Ok(Event::Synced(_)) => {}
                Err(e) if e.is_idle() => return Ok(None),
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Synchronize with the cache: Serial Query when we have state,
    /// Reset Query otherwise; falls back to a Reset Query when the cache
    /// answers Cache Reset.
    pub fn sync(&mut self) -> Result<SyncOutcome, ClientError> {
        self.machine.sync();
        loop {
            match self.next_event()? {
                Event::Synced(outcome) => return Ok(outcome),
                Event::Failed(e) => return Err(e),
                Event::Notified(_) => {}
            }
        }
    }

    /// Send what the machine queued, then feed it what is buffered and
    /// one read at a time until it reports.
    fn next_event(&mut self) -> Result<Event, PduError> {
        let (mut chunk, mut read) = ([0; READ_CHUNK], 0);
        loop {
            let queued = self.machine.writable().len();
            if queued > 0 {
                self.stream.write_all(self.machine.writable())?;
                self.stream.flush()?;
                self.machine.advance_write(queued);
            }
            let bytes = chunk.get(..read).unwrap_or_default();
            if let Some(event) = self.machine.received(bytes) {
                return Ok(event);
            }
            // A Cache Reset queued a Reset Query: it goes out first.
            read = 0;
            if self.machine.writable().is_empty() {
                read = self.stream.read(&mut chunk)?;
                if read == 0 {
                    return Err(PduError::Io {
                        kind: io::ErrorKind::UnexpectedEof,
                        message: "connection closed mid-PDU".into(),
                    });
                }
            }
        }
    }
}

/// Connect to a cache at `addr` (`host:port`), trying each address it
/// resolves to for at most `timeout`. A bare `TcpStream::connect` to an
/// upstream that drops SYNs blocks for the OS connect timeout (≈ 2 min
/// on Linux), and with it whatever waits on the caller.
pub fn dial(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let mut last = io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("{addr} resolves to no address"),
    );
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Capped exponential backoff schedule for reconnect attempts.
///
/// Pure duration bookkeeping — it never sleeps or reads a clock itself,
/// so callers stay testable with zero delays.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    current: Duration,
}

impl Backoff {
    /// A schedule starting at `base` and doubling up to `cap`.
    pub fn new(base: Duration, cap: Duration) -> Backoff {
        Backoff {
            base,
            cap,
            current: base,
        }
    }

    /// The delay to wait before the next attempt; doubles the
    /// following one (capped).
    pub fn next_delay(&mut self) -> Duration {
        let delay = self.current;
        self.current = self.current.saturating_mul(2).min(self.cap);
        delay
    }

    /// Return to the base delay after a successful attempt.
    pub fn reset(&mut self) {
        self.current = self.base;
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "R2 exempts test code")]
mod tests {
    //! The router machine with no socket: it talks to the cache's
    //! [`Session`] machine in memory, or takes a canned answer script.
    use super::*;
    use crate::cache::CacheServer;
    use crate::listener::Session;
    use proptest::prelude::*;
    use ripki_net::Asn;
    use std::time::Instant;

    fn vrp(prefix: &str, ml: u8, asn: u32) -> VrpTriple {
        VrpTriple {
            prefix: prefix.parse().unwrap(),
            max_length: ml,
            asn: Asn::new(asn),
        }
    }

    /// What `Client::payload` makes of the router's set.
    fn payload(router: &ClientMachine) -> Option<VrpPayload> {
        let vrps = router.vrps().iter().copied();
        router
            .state()
            .map(|(_, serial)| VrpPayload::new(u64::from(serial), vrps))
    }

    /// One connection to `cache`: its session machine, fed in memory.
    struct Conn<'c> {
        cache: &'c CacheServer,
        session: Session,
        now: Instant,
    }

    impl<'c> Conn<'c> {
        fn open(cache: &'c CacheServer) -> Conn<'c> {
            let now = Instant::now();
            Conn {
                cache,
                session: Session::new(cache.serial(), now),
                now,
            }
        }

        /// Run one sync of `router` to its end, moving every byte.
        fn sync(&mut self, router: &mut ClientMachine) -> Result<SyncOutcome, ClientError> {
            router.sync();
            loop {
                let query = router.writable().to_vec();
                router.advance_write(query.len());
                self.session.received(&query, self.cache, self.now);
                let answer = self.session.writable().to_vec();
                self.session
                    .advance_write(answer.len(), self.cache, self.now);
                assert!(
                    !query.is_empty() || !answer.is_empty(),
                    "neither end has anything to say"
                );
                match router.received(&answer) {
                    Some(Event::Synced(outcome)) => return Ok(outcome),
                    Some(Event::Failed(e)) => return Err(e),
                    Some(Event::Notified(_)) | None => {}
                }
            }
        }
    }

    /// A fresh router synced over a fresh connection.
    fn connect(cache: &CacheServer) -> (ClientMachine, Conn<'_>) {
        (ClientMachine::default(), Conn::open(cache))
    }

    #[test]
    fn initial_reset_sync() {
        let cache = CacheServer::new(11);
        cache.update([vrp("10.0.0.0/16", 20, 100), vrp("2001:db8::/32", 32, 200)]);
        let (mut client, mut conn) = connect(&cache);
        let outcome = conn.sync(&mut client).unwrap();
        assert_eq!(
            outcome,
            SyncOutcome::Updated {
                serial: 1,
                announced: 2,
                withdrawn: 0
            }
        );
        assert_eq!(client.state(), Some((11, 1)));
        assert_eq!(client.vrps().len(), 2);
        let validator = RouteOriginValidator::from_vrps(client.vrps().iter().copied());
        assert_eq!(
            validator.validate(&"10.0.0.0/18".parse().unwrap(), Asn::new(100)),
            ripki_bgp::rov::RpkiState::Valid
        );
    }

    #[test]
    fn incremental_sync_applies_delta() {
        let cache = CacheServer::new(11);
        cache.update([vrp("10.0.0.0/16", 16, 100)]);
        let (mut client, mut conn) = connect(&cache);
        conn.sync(&mut client).unwrap();

        cache.update([vrp("11.0.0.0/16", 16, 200)]); // withdraw 10/16, announce 11/16
        let outcome = conn.sync(&mut client).unwrap();
        assert_eq!(
            outcome,
            SyncOutcome::Updated {
                serial: 2,
                announced: 1,
                withdrawn: 1
            }
        );
        assert_eq!(client.vrps().len(), 1);
        assert!(client.vrps().contains(&vrp("11.0.0.0/16", 16, 200)));
    }

    #[test]
    fn last_delta_is_the_net_change_of_an_incremental_sync() {
        let cache = CacheServer::new(11);
        cache.update([vrp("10.0.0.0/16", 16, 1), vrp("11.0.0.0/16", 16, 2)]);
        let (mut client, mut conn) = connect(&cache);
        conn.sync(&mut client).unwrap();
        assert_eq!(client.last_delta(), None, "a full reload has no delta");
        let before = payload(&client).unwrap();

        // Three serials in one answer: 12/16 comes and goes again,
        // 11/16 goes and comes back, 13/16 stays.
        cache.update([
            vrp("10.0.0.0/16", 16, 1),
            vrp("11.0.0.0/16", 16, 2),
            vrp("12.0.0.0/16", 16, 3),
        ]);
        cache.update([vrp("10.0.0.0/16", 16, 1), vrp("13.0.0.0/16", 16, 4)]);
        cache.update([
            vrp("11.0.0.0/16", 16, 2),
            vrp("13.0.0.0/16", 16, 4),
            vrp("14.0.0.0/16", 16, 5),
        ]);
        conn.sync(&mut client).unwrap();
        let after = payload(&client).unwrap();
        assert_eq!(after, cache.payload().unwrap());
        let wire = client.last_delta().unwrap();
        let diff = before.diff(&after);
        assert_eq!(wire.from_serial, 1);
        assert_eq!(wire.announced, diff.announced);
        assert_eq!(wire.withdrawn, diff.withdrawn);
        // The payload taken before the sync still holds the old set.
        assert_eq!(before.len(), 2);

        // An empty answer is an empty delta, not a stale one.
        conn.sync(&mut client).unwrap();
        assert_eq!(
            client.last_delta(),
            Some(&WireDelta {
                from_serial: 4,
                ..WireDelta::default()
            })
        );
    }

    #[test]
    fn noop_sync_when_current() {
        let cache = CacheServer::new(11);
        cache.update([vrp("10.0.0.0/16", 16, 100)]);
        let (mut client, mut conn) = connect(&cache);
        conn.sync(&mut client).unwrap();
        let outcome = conn.sync(&mut client).unwrap();
        assert_eq!(
            outcome,
            SyncOutcome::Updated {
                serial: 1,
                announced: 0,
                withdrawn: 0
            }
        );
    }

    #[test]
    fn stale_client_recovers_via_cache_reset() {
        let cache = CacheServer::new(11).with_max_history(1);
        cache.update([vrp("10.0.0.0/16", 16, 100)]);
        let (mut client, mut conn) = connect(&cache);
        conn.sync(&mut client).unwrap();
        // Age the client's serial out of the history window.
        for i in 0..4 {
            cache.update([vrp(&format!("10.{i}.0.0/16"), 16, 100)]);
        }
        let outcome = conn.sync(&mut client).unwrap();
        match outcome {
            SyncOutcome::Updated {
                serial,
                announced,
                withdrawn,
            } => {
                assert_eq!(serial, 5);
                assert_eq!(announced, 1, "full reload of the current set");
                assert_eq!(withdrawn, 0);
            }
        }
        assert_eq!(client.vrps().len(), 1);
        assert!(client.vrps().contains(&vrp("10.3.0.0/16", 16, 100)));
    }

    #[test]
    fn empty_cache_error_is_reported() {
        let cache = CacheServer::new(11);
        let (mut client, mut conn) = connect(&cache);
        match conn.sync(&mut client) {
            Err(ClientError::CacheError { code, .. }) => {
                assert_eq!(code, ErrorCode::NoDataAvailable);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn many_vrps_over_the_wire() {
        let cache = CacheServer::new(3);
        let vrps: Vec<VrpTriple> = (0..2000u32)
            .map(|i| vrp(&format!("10.{}.{}.0/24", i / 256, i % 256), 24, i))
            .collect();
        cache.update(vrps.clone());
        let (mut client, mut conn) = connect(&cache);
        let outcome = conn.sync(&mut client).unwrap();
        assert_eq!(
            outcome,
            SyncOutcome::Updated {
                serial: 1,
                announced: 2000,
                withdrawn: 0
            }
        );
        assert_eq!(client.vrps().len(), 2000);
    }

    #[test]
    fn multiple_clients_share_one_cache() {
        let cache = CacheServer::new(5);
        cache.update([vrp("10.0.0.0/16", 16, 1)]);
        let (mut c1, mut conn1) = connect(&cache);
        let (mut c2, mut conn2) = connect(&cache);
        conn1.sync(&mut c1).unwrap();
        conn2.sync(&mut c2).unwrap();
        assert_eq!(c1.vrps(), c2.vrps());
    }

    /// The resume-after-serial-gap scenario: a dropped connection does
    /// not lose the `(session_id, serial)` context. `reconnect` carries
    /// it onto a fresh connection and the next sync is an incremental
    /// Serial Query covering exactly the missed serials.
    #[test]
    fn resume_after_serial_gap_is_incremental() {
        let cache = CacheServer::new(11);
        cache.update([vrp("10.0.0.0/16", 16, 1), vrp("11.0.0.0/16", 16, 2)]);
        let (mut client, mut conn) = connect(&cache);
        conn.sync(&mut client).unwrap();
        assert_eq!(client.state(), Some((11, 1)));

        // Connection drops; the world moves on by two serials.
        cache.update([
            vrp("10.0.0.0/16", 16, 1),
            vrp("11.0.0.0/16", 16, 2),
            vrp("12.0.0.0/16", 16, 3),
        ]);
        cache.update([
            vrp("10.0.0.0/16", 16, 1),
            vrp("12.0.0.0/16", 16, 3),
            vrp("13.0.0.0/16", 16, 4),
        ]);

        let mut conn = Conn::open(&cache);
        client.reconnect();
        let outcome = conn.sync(&mut client).unwrap();
        // Only the gap's delta crosses the wire, not the full set.
        assert_eq!(
            outcome,
            SyncOutcome::Updated {
                serial: 3,
                announced: 2,
                withdrawn: 1
            }
        );
        assert_eq!(client.state(), Some((11, 3)));
        assert_eq!(client.vrps().len(), 3);
        assert_eq!(
            payload(&client).unwrap(),
            cache.payload().unwrap(),
            "resumed set is byte-identical to the cache's"
        );
    }

    /// A cache restart between connections: under its new session id
    /// the router's context is void. The first sync fails and flushes
    /// (RFC 8210 §5.1); the second reloads under the new session.
    #[test]
    fn reconnecting_to_a_restarted_cache_flushes_then_reloads() {
        let before = CacheServer::new(5);
        before.update([vrp("10.0.0.0/16", 16, 1)]);
        let (mut client, mut conn) = connect(&before);
        conn.sync(&mut client).unwrap();
        assert_eq!(client.state(), Some((5, 1)));

        // The cache comes back with a new session id and serial space.
        let after = CacheServer::new(9);
        after.update([vrp("12.0.0.0/16", 16, 3)]);
        let mut conn = Conn::open(&after);
        client.reconnect();
        assert!(matches!(
            conn.sync(&mut client),
            Err(ClientError::CacheError {
                code: ErrorCode::CorruptData,
                ..
            })
        ));
        assert_eq!(client.state(), None);
        assert!(client.vrps().is_empty());

        let outcome = conn.sync(&mut client).unwrap();
        assert_eq!(
            outcome,
            SyncOutcome::Updated {
                serial: 1,
                announced: 1,
                withdrawn: 0
            }
        );
        assert_eq!(client.state(), Some((9, 1)));
        assert_eq!(
            client.vrps().iter().copied().collect::<Vec<_>>(),
            [vrp("12.0.0.0/16", 16, 3)]
        );
    }

    /// A router fed a canned answer script, for cache behaviours the
    /// real `CacheServer` never shows (e.g. a mid-response Cache
    /// Reset). Each sync decodes its answer from what is buffered; the
    /// queries it sends are kept for inspection.
    struct Scripted {
        router: ClientMachine,
        script: Vec<u8>,
        sent: Vec<u8>,
    }

    impl Scripted {
        fn new(script: Vec<u8>) -> Scripted {
            Scripted {
                router: ClientMachine::default(),
                script,
                sent: Vec::new(),
            }
        }

        fn sync(&mut self) -> Result<SyncOutcome, ClientError> {
            self.router.sync();
            let event = self.router.received(&std::mem::take(&mut self.script));
            self.sent.extend_from_slice(self.router.writable());
            self.router.advance_write(usize::MAX);
            match event {
                Some(Event::Synced(outcome)) => Ok(outcome),
                Some(Event::Failed(e)) => Err(e),
                other => panic!("the script ran out: {other:?}"),
            }
        }

        /// The queries sent so far.
        fn queries(&self) -> Vec<Pdu> {
            let mut buf = PduBuf::new();
            buf.extend(&self.sent);
            std::iter::from_fn(|| buf.next_pdu().unwrap()).collect()
        }
    }

    /// A scripted answer: Cache Response, one IPv4 record per entry
    /// (`true` = announce), End of Data at `serial`.
    fn answer(session_id: u16, records: &[(bool, VrpTriple)], serial: u32) -> Vec<u8> {
        let mut out = Pdu::CacheResponse { session_id }.encode();
        for (announce, vrp) in records {
            let IpPrefix::V4(prefix) = vrp.prefix else {
                panic!("scripted answers are IPv4");
            };
            Pdu::Ipv4Prefix {
                announce: *announce,
                prefix_len: prefix.len(),
                max_len: vrp.max_length,
                prefix: prefix.network(),
                asn: vrp.asn,
            }
            .encode_into(&mut out);
        }
        Pdu::EndOfData { session_id, serial }.encode_into(&mut out);
        out
    }

    /// Upstreams are untrusted: a delta that contradicts the set held
    /// must not leave the router half advanced under its old serial —
    /// every retry of the same Serial Query would then fail on the
    /// delta's *first* record. The client forgets what it held instead
    /// and the next sync is a Reset Query.
    #[test]
    fn a_failed_delta_voids_the_client_instead_of_half_applying() {
        let (a, b, c) = (
            vrp("10.0.0.0/16", 16, 1),
            vrp("11.0.0.0/16", 16, 2),
            vrp("12.0.0.0/16", 16, 3),
        );
        let mut script = answer(7, &[(true, a), (true, b)], 1);
        // The delta's first record is fine; its second announces a VRP
        // the router already holds.
        script.extend(answer(7, &[(true, c), (true, a)], 2));
        // What the cache really serves at serial 2.
        script.extend(answer(7, &[(true, a), (true, b), (true, c)], 2));

        let mut client = Scripted::new(script);
        client.sync().unwrap();
        assert_eq!(client.router.state(), Some((7, 1)));

        assert_eq!(client.sync(), Err(ClientError::DuplicateAnnouncement(a)));
        assert_eq!(
            client.router.state(),
            None,
            "the old serial no longer describes the set"
        );
        assert!(client.router.vrps().is_empty());
        assert_eq!(client.router.last_delta(), None);
        assert_eq!(payload(&client.router), None);

        let outcome = client.sync().unwrap();
        assert_eq!(
            outcome,
            SyncOutcome::Updated {
                serial: 2,
                announced: 3,
                withdrawn: 0
            }
        );
        assert_eq!(client.router.vrps(), &BTreeSet::from([a, b, c]));
        assert_eq!(
            client.router.last_delta(),
            None,
            "a full reload has no delta"
        );
        assert_eq!(
            client.queries(),
            [
                Pdu::ResetQuery,
                Pdu::SerialQuery {
                    session_id: 7,
                    serial: 1
                },
                Pdu::ResetQuery,
            ]
        );
    }

    /// A cache that restarted no longer knows session 7 and answers the
    /// router's Serial Query with `restarted`. The router must flush all
    /// data learned from that cache (RFC 8210 §5.1): the next sync is a
    /// Reset Query, not the same Serial Query again.
    fn assert_a_cache_restart_flushes_the_set(restarted: &Pdu) {
        let (a, b) = (vrp("10.0.0.0/16", 16, 1), vrp("11.0.0.0/16", 16, 2));
        let mut script = answer(7, &[(true, a)], 1);
        script.extend(restarted.encode());
        script.extend(answer(8, &[(true, b)], 1));

        let mut client = Scripted::new(script);
        client.sync().unwrap();
        assert!(client.sync().is_err());
        assert_eq!(client.router.state(), None, "the old session is void");
        assert!(client.router.vrps().is_empty());
        assert_eq!(client.router.last_delta(), None);

        client.sync().unwrap();
        assert_eq!(client.router.state(), Some((8, 1)));
        assert_eq!(client.router.vrps(), &BTreeSet::from([b]));
        assert_eq!(
            client.queries(),
            [
                Pdu::ResetQuery,
                Pdu::SerialQuery {
                    session_id: 7,
                    serial: 1
                },
                Pdu::ResetQuery,
            ]
        );
    }

    #[test]
    fn corrupt_data_in_answer_to_a_serial_query_flushes_the_set() {
        assert_a_cache_restart_flushes_the_set(&Pdu::ErrorReport {
            code: ErrorCode::CorruptData,
            erroneous_pdu: Vec::new(),
            text: "session id mismatch".into(),
        });
    }

    #[test]
    fn a_cache_response_under_another_session_flushes_the_set() {
        assert_a_cache_restart_flushes_the_set(&Pdu::CacheResponse { session_id: 8 });
    }

    #[test]
    fn cache_reset_mid_stream_discards_staged_records() {
        let good = vrp("11.0.0.0/16", 16, 2);
        let mut script = Vec::new();
        // First exchange: the cache starts answering, then bails with
        // a mid-stream Cache Reset. The staged 10/16 must NOT apply.
        script.extend(Pdu::CacheResponse { session_id: 7 }.encode());
        script.extend(
            Pdu::Ipv4Prefix {
                announce: true,
                prefix_len: 16,
                max_len: 16,
                prefix: "10.0.0.0".parse().unwrap(),
                asn: Asn::new(1),
            }
            .encode(),
        );
        script.extend(Pdu::CacheReset.encode());
        // Recovery exchange (the client's follow-up Reset Query).
        script.extend(answer(7, &[(true, good)], 5));

        let mut client = Scripted::new(script);
        let outcome = client.sync().unwrap();
        assert_eq!(
            outcome,
            SyncOutcome::Updated {
                serial: 5,
                announced: 1,
                withdrawn: 0
            }
        );
        assert_eq!(
            client.router.vrps().iter().copied().collect::<Vec<_>>(),
            [good]
        );
        assert_eq!(client.router.state(), Some((7, 5)));
        assert_eq!(client.queries(), [Pdu::ResetQuery, Pdu::ResetQuery]);
    }

    /// Serial Notify is absorbed at any time: while idle, back-to-back
    /// notifies are one event carrying the newest serial; inside a
    /// response, it is noted and the sync goes on.
    #[test]
    fn notifies_collapse_while_idle_and_are_absorbed_mid_response() {
        let notify = |serial| Pdu::SerialNotify {
            session_id: 7,
            serial,
        };
        let mut router = ClientMachine::default();
        let idle = [notify(4).encode(), notify(5).encode(), vec![0, 0, 0]].concat();
        assert_eq!(router.received(&idle), Some(Event::Notified(5)));
        assert_eq!(router.notified_serial(), Some(5));
        assert_ne!(router.notified_serial(), router.state().map(|(_, s)| s));
        router.reconnect();

        let a = vrp("10.0.0.0/16", 16, 1);
        let mut script = answer(7, &[(true, a)], 6);
        let end_of_data = script.split_off(script.len() - 12);
        router.sync();
        let mid = [script, notify(6).encode(), end_of_data].concat();
        assert_eq!(
            router.received(&mid),
            Some(Event::Synced(SyncOutcome::Updated {
                serial: 6,
                announced: 1,
                withdrawn: 0
            }))
        );
        assert_eq!(router.notified_serial(), Some(6));
        assert_eq!(router.notified_serial(), router.state().map(|(_, s)| s));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut b = Backoff::new(Duration::from_millis(100), Duration::from_millis(400));
        assert_eq!(b.next_delay(), Duration::from_millis(100));
        assert_eq!(b.next_delay(), Duration::from_millis(200));
        assert_eq!(b.next_delay(), Duration::from_millis(400));
        assert_eq!(b.next_delay(), Duration::from_millis(400), "capped");
        b.reset();
        assert_eq!(b.next_delay(), Duration::from_millis(100));
    }

    // ---- hostile caches: any bytes, in any split ------------------------

    /// A small record pool, so duplicates and unknown withdrawals are
    /// common.
    fn pool(i: u8) -> VrpTriple {
        vrp(&format!("10.{}.0.0/16", i % 4), 16, u32::from(i % 2))
    }

    /// An announce or withdraw of a pool record.
    fn arb_record() -> impl Strategy<Value = Vec<u8>> {
        (any::<bool>(), any::<u8>()).prop_map(|(announce, i)| {
            let v = pool(i);
            let IpPrefix::V4(prefix) = v.prefix else {
                unreachable!()
            };
            Pdu::Ipv4Prefix {
                announce,
                prefix_len: prefix.len(),
                max_len: v.max_length,
                prefix: prefix.network(),
                asn: v.asn,
            }
            .encode()
        })
    }

    /// What a cache (hostile or not) may send: PDUs of every type
    /// around sessions 7 and 8, and bytes that do not decode.
    fn arb_piece() -> impl Strategy<Value = Vec<u8>> {
        let session = 7u16..9;
        prop_oneof![
            session
                .clone()
                .prop_map(|s| Pdu::CacheResponse { session_id: s }.encode()),
            arb_record(),
            (any::<bool>(), 0u8..=130).prop_map(|(announce, len)| Pdu::Ipv6Prefix {
                announce,
                prefix_len: len,
                max_len: 64,
                prefix: "2001:db8::".parse().unwrap(),
                asn: Asn::new(3),
            }
            .encode()),
            (session.clone(), 0u32..4).prop_map(|(s, n)| Pdu::EndOfData {
                session_id: s,
                serial: n
            }
            .encode()),
            (session, 0u32..4).prop_map(|(s, n)| Pdu::SerialNotify {
                session_id: s,
                serial: n
            }
            .encode()),
            Just(Pdu::CacheReset.encode()),
            Just(Pdu::ResetQuery.encode()),
            (0u16..8).prop_map(|code| Pdu::ErrorReport {
                code: ErrorCode::from_code(code).unwrap(),
                erroneous_pdu: Vec::new(),
                text: "no".into(),
            }
            .encode()),
            prop::collection::vec(any::<u8>(), 1..12),
        ]
    }

    /// Something shaped like an answer, so that whole answers — ones
    /// that apply and ones that contradict the set part way through —
    /// are common: a Cache Response and End of Data, each present half
    /// the time, around records that mostly fit a router holding
    /// `{pool(0), pool(1)}` (one in four is flipped), then any pieces.
    fn arb_answer() -> impl Strategy<Value = Vec<u8>> {
        let flip = prop_oneof![Just(false), Just(false), Just(false), Just(true)];
        (
            prop::option::of(7u16..9),
            prop::collection::vec((0u8..4, flip), 0..5),
            prop::option::of((7u16..9, 0u32..4)),
            prop::collection::vec(arb_piece(), 0..3),
        )
            .prop_map(|(session, records, end, tail)| {
                let mut out = Vec::new();
                if let Some(session_id) = session {
                    Pdu::CacheResponse { session_id }.encode_into(&mut out);
                }
                for (i, flip) in records {
                    let v = pool(i);
                    let IpPrefix::V4(prefix) = v.prefix else {
                        unreachable!()
                    };
                    Pdu::Ipv4Prefix {
                        announce: (i >= 2) != flip,
                        prefix_len: prefix.len(),
                        max_len: v.max_length,
                        prefix: prefix.network(),
                        asn: v.asn,
                    }
                    .encode_into(&mut out);
                }
                if let Some((session_id, serial)) = end {
                    Pdu::EndOfData { session_id, serial }.encode_into(&mut out);
                }
                [out, tail.concat()].concat()
            })
    }

    /// What a sync left behind, to compare runs.
    type Outcome = (
        Option<Event>,
        Option<(u16, u32)>,
        BTreeSet<VrpTriple>,
        Option<WireDelta>,
        Vec<u8>,
    );

    /// Start a sync on a router that holds `{a, b}` at `(7, 1)` (so
    /// its query is a Serial Query) or nothing (a Reset Query), feed it
    /// `input` in the pieces `cuts` marks, and stop at the first event.
    /// After every piece the set is as it was, or empty with no state —
    /// never half applied; a finished sync applied its answer whole.
    fn hostile_sync(holding: bool, input: &[u8], cuts: &[usize]) -> Outcome {
        let mut router = ClientMachine::default();
        if holding {
            router.sync();
            let held = answer(7, &[(true, pool(0)), (true, pool(1))], 1);
            assert!(matches!(router.received(&held), Some(Event::Synced(_))));
        }
        let (before, held) = (router.vrps().clone(), router.state());
        router.sync();
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (input.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.push(input.len());
        let (mut start, mut event) = (0, None);
        for cut in cuts {
            event = router.received(&input[start..cut]);
            start = cut;
            if !matches!(event, Some(Event::Synced(_))) {
                let intact = router.vrps() == &before && router.state() == held;
                let flushed = router.vrps().is_empty() && router.state().is_none();
                assert!(intact || flushed, "half applied: {:?}", router.vrps());
            }
            if event.is_some() {
                break;
            }
        }
        if let Some(Event::Synced(_)) = event {
            assert!(router.state().is_some());
            if let Some(delta) = router.last_delta() {
                assert_eq!(Some(delta.from_serial), held.map(|(_, serial)| serial));
                let mut applied = before.clone();
                delta
                    .withdrawn
                    .iter()
                    .for_each(|v| assert!(applied.remove(v)));
                delta
                    .announced
                    .iter()
                    .for_each(|v| assert!(applied.insert(*v)));
                assert_eq!(&applied, router.vrps(), "the whole delta, once");
            }
        }
        (
            event,
            router.state(),
            router.vrps().clone(),
            router.last_delta().cloned(),
            router.writable().to_vec(),
        )
    }

    #[test]
    fn an_answer_delivered_one_byte_at_a_time_syncs_as_one_shot() {
        let (a, b, c) = (pool(0), pool(1), pool(2));
        let input = [
            answer(7, &[(true, c), (false, a)], 2),
            Pdu::SerialNotify {
                session_id: 7,
                serial: 3,
            }
            .encode(),
        ]
        .concat();
        let every_byte: Vec<usize> = (0..input.len()).collect();
        let one_shot = hostile_sync(true, &input, &[]);
        assert_eq!(hostile_sync(true, &input, &every_byte), one_shot);
        assert_eq!(one_shot.2, BTreeSet::from([b, c]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever a cache sends after a Reset Query or a Serial
        /// Query, however it is split, the machine does not panic,
        /// never holds a half-applied set, and ends exactly as when the
        /// same bytes arrive in one piece.
        #[test]
        fn hostile_bytes_in_any_split_never_half_apply(
            holding in any::<bool>(),
            answers in prop::collection::vec(arb_answer(), 1..3),
            cuts in prop::collection::vec(any::<usize>(), 0..12),
        ) {
            let input = answers.concat();
            let one_shot = hostile_sync(holding, &input, &[]);
            prop_assert_eq!(hostile_sync(holding, &input, &cuts), one_shot);
        }
    }
}
