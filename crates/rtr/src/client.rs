//! The router side of RTR: a synchronous client state machine.
//!
//! A router keeps `(session_id, serial)` plus the VRP set. Each
//! [`Client::sync`] either performs a Reset Query (first contact, or
//! after a Cache Reset) or a Serial Query, applies the announce/withdraw
//! records, and hands back a summary. The resulting VRP set plugs
//! straight into [`ripki_bgp::rov::RouteOriginValidator`].
//!
//! The context outlives a connection: [`Client::reconnect`] carries
//! `(session_id, serial)` and the set onto a fresh stream, so a dropped
//! session resumes with an incremental Serial Query, not a full
//! refetch. It is void once the cache's session no longer matches —
//! another session id in its answer, or Corrupt Data in answer to a
//! Serial Query, i.e. a cache restart — and the client then flushes
//! what it learned (RFC 8210 §5.1) so the next sync is a Reset Query.
//! When to redial, and how long to wait, is the caller's: the proxy's
//! `rtr` unit paces its attempts with a [`Backoff`].

use crate::pdu::{read_pdu, ErrorCode, Pdu, PduBuf, PduError};
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

/// An RTR client over any blocking byte stream.
///
/// The VRP set is the router's own model: a plain `BTreeSet`, edited in
/// place by every sync and never shared. [`vrps`](Self::vrps) lends it;
/// [`payload`](Self::payload) converts it (O(n)). It is never half
/// advanced: a failed sync leaves the set as it was (records are staged
/// until End of Data) or — after a Cache Reset, a response that
/// contradicts the set held, or a cache whose session no longer matches
/// — empty with no `(session, serial)`, so the next sync is a Reset
/// Query.
pub struct Client<S: Read + Write> {
    stream: S,
    buf: PduBuf,
    /// `(session_id, serial)` once synchronized.
    state: Option<(u16, u32)>,
    /// The router's own mutable model of the cache's set: plain, owned,
    /// edited in place by every sync and shared with nobody.
    vrps: BTreeSet<VrpTriple>,
    /// Latest serial announced by an unsolicited Serial Notify.
    notified_serial: Option<u32>,
    /// What the last successful sync changed, when it was incremental.
    last_delta: Option<WireDelta>,
}

fn pdu_vrp(
    announce: bool,
    prefix: IpPrefix,
    max_len: u8,
    asn: ripki_net::Asn,
) -> (bool, VrpTriple) {
    (
        announce,
        VrpTriple {
            prefix,
            max_length: max_len,
            asn,
        },
    )
}

impl<S: Read + Write> Client<S> {
    /// Wrap a connected stream.
    pub fn new(stream: S) -> Client<S> {
        Client {
            stream,
            buf: PduBuf::new(),
            state: None,
            vrps: BTreeSet::new(),
            notified_serial: None,
            last_delta: None,
        }
    }

    /// Carry on over `stream`, a fresh connection replacing one that
    /// died, keeping `(session_id, serial)` and the VRP set: the next
    /// [`sync`](Self::sync) is an incremental Serial Query, and the
    /// cache decides whether the gap is still bridgeable or forces a
    /// reload. What was read off the old stream is dropped — a partial
    /// PDU is never decoded — and so are the last delta and any notified
    /// serial.
    pub fn reconnect(&mut self, stream: S) {
        self.stream = stream;
        self.buf = PduBuf::new();
        self.notified_serial = None;
        self.last_delta = None;
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
    /// Notify (RFC 6810 §5.2), if any arrived. A value newer than
    /// [`state`](Self::state)'s serial means a [`sync`](Self::sync) is
    /// due.
    pub fn notified_serial(&self) -> Option<u32> {
        self.notified_serial
    }

    /// Whether the cache has announced data newer than what we hold.
    pub fn needs_sync(&self) -> bool {
        match (self.notified_serial, self.state) {
            (Some(n), Some((_, held))) => n != held,
            (Some(_), None) => true,
            _ => false,
        }
    }

    /// Build an origin validator from the current VRP set.
    pub fn to_validator(&self) -> RouteOriginValidator {
        RouteOriginValidator::from_vrps(self.vrps.iter().copied())
    }

    /// The current VRP set converted to an epoch-stamped payload
    /// (`None` before the first sync) — an O(n) copy, for probes, tests
    /// and a follower's full reload; a follower that stays in lockstep
    /// advances its own payload by [`last_delta`](Self::last_delta)
    /// instead. The epoch is the RTR serial widened to `u64`, mirroring
    /// [`VrpPayload::serial`]'s truncation in the other direction.
    pub fn payload(&self) -> Option<VrpPayload> {
        self.state
            .map(|(_, serial)| VrpPayload::new(u64::from(serial), self.vrps.iter().copied()))
    }

    /// The net announce/withdraw lists of the last successful
    /// [`sync`](Self::sync), when a Serial Query was answered with a
    /// delta; `None` after a full reload (first contact, Cache Reset)
    /// or a failed sync. A proxy forwards this instead of diffing two
    /// full sets to rediscover it.
    pub fn last_delta(&self) -> Option<&WireDelta> {
        self.last_delta.as_ref()
    }

    /// Wait for an unsolicited Serial Notify without issuing a query,
    /// returning the newest serial absorbed (`Ok(None)` when none
    /// arrived).
    ///
    /// Blocks in at most one read: the stream must have a read timeout
    /// (or be non-blocking), and a timed-out read is reported as
    /// "nothing pending". Once a notify is decoded, only PDUs already
    /// complete in the buffer are drained — back-to-back notifies
    /// collapse to the newest — and the call returns at once rather
    /// than waiting out another timeout. Anything other than a Serial
    /// Notify outside a query/response exchange is a protocol
    /// violation.
    pub fn poll_notify(&mut self) -> Result<Option<u32>, ClientError> {
        let mut latest = None;
        loop {
            let pdu = if latest.is_none() {
                match read_pdu(&mut self.stream, &mut self.buf) {
                    Ok(pdu) => pdu,
                    Err(e) if e.is_idle() => return Ok(None),
                    Err(e) => return Err(e.into()),
                }
            } else {
                match self.buf.next_pdu()? {
                    Some(pdu) => pdu,
                    None => return Ok(latest),
                }
            };
            let Pdu::SerialNotify { serial, .. } = pdu else {
                return Err(ClientError::ProtocolViolation(
                    "unsolicited PDU other than Serial Notify",
                ));
            };
            self.notified_serial = Some(serial);
            latest = Some(serial);
        }
    }

    /// Synchronize with the cache: Serial Query when we have state,
    /// Reset Query otherwise; falls back to a Reset Query when the cache
    /// answers Cache Reset.
    pub fn sync(&mut self) -> Result<SyncOutcome, ClientError> {
        let query = match self.state {
            Some((session_id, serial)) => Pdu::SerialQuery { session_id, serial },
            None => Pdu::ResetQuery,
        };
        match self.exchange(&query)? {
            Some(outcome) => Ok(outcome),
            None => {
                // Cache Reset: drop state and start over.
                self.forget();
                match self.exchange(&Pdu::ResetQuery)? {
                    Some(outcome) => Ok(outcome),
                    None => Err(ClientError::ProtocolViolation(
                        "Cache Reset in response to Reset Query",
                    )),
                }
            }
        }
    }

    /// Void everything learned from the cache, so the next
    /// [`sync`](Self::sync) starts over with a Reset Query.
    fn forget(&mut self) {
        self.state = None;
        self.vrps.clear();
        self.last_delta = None;
    }

    /// An Error Report from the cache. Corrupt Data in answer to a
    /// Serial Query is how a cache rejects a session id it does not
    /// know — it restarted — so what we learned from it is
    /// [forgotten](Self::forget) (RFC 8210 §5.1).
    fn cache_error(&mut self, query: &Pdu, code: ErrorCode, text: String) -> ClientError {
        if code == ErrorCode::CorruptData && matches!(query, Pdu::SerialQuery { .. }) {
            self.forget();
        }
        ClientError::CacheError { code, text }
    }

    /// Send one query and apply the response. `Ok(None)` means the cache
    /// sent a Cache Reset. A response that arrives intact but contradicts
    /// the set held (a duplicate announcement, a withdrawal of an unknown
    /// record) cannot be trusted in any part: the client
    /// [forgets](Self::forget) what it held rather than keep a set that
    /// is half advanced under the old serial, which every retry of the
    /// same Serial Query would trip over again. So does an answer under
    /// another session id than the one held: the cache restarted, and
    /// RFC 8210 §5.1 says the router MUST flush what it learned.
    fn exchange(&mut self, query: &Pdu) -> Result<Option<SyncOutcome>, ClientError> {
        self.last_delta = None;
        self.stream
            .write_all(&query.encode())
            .map_err(PduError::from)?;
        self.stream.flush().map_err(PduError::from)?;

        // Unsolicited Serial Notifies may arrive at any time; absorb them.
        let first = loop {
            match read_pdu(&mut self.stream, &mut self.buf)? {
                Pdu::SerialNotify { serial, .. } => {
                    self.notified_serial = Some(serial);
                }
                other => break other,
            }
        };
        let session_id = match first {
            Pdu::CacheResponse { session_id } => session_id,
            Pdu::CacheReset => return Ok(None),
            Pdu::ErrorReport { code, text, .. } => return Err(self.cache_error(query, code, text)),
            _ => return Err(ClientError::ProtocolViolation("expected Cache Response")),
        };
        if self.state.is_some_and(|(held, _)| held != session_id) {
            self.forget();
            return Err(ClientError::ProtocolViolation(
                "session id changed mid-session",
            ));
        }

        let mut announced = 0usize;
        let mut withdrawn = 0usize;
        // Stage records; apply only when End of Data arrives intact.
        let mut staged: Vec<(bool, VrpTriple)> = Vec::new();
        let serial = loop {
            match read_pdu(&mut self.stream, &mut self.buf)? {
                Pdu::SerialNotify { serial, .. } => {
                    self.notified_serial = Some(serial);
                }
                Pdu::Ipv4Prefix {
                    announce,
                    prefix_len,
                    max_len,
                    prefix,
                    asn,
                } => {
                    let prefix = IpPrefix::V4(
                        Ipv4Prefix::new(prefix, prefix_len)
                            .map_err(|_| ClientError::ProtocolViolation("bad v4 prefix"))?,
                    );
                    staged.push(pdu_vrp(announce, prefix, max_len, asn));
                }
                Pdu::Ipv6Prefix {
                    announce,
                    prefix_len,
                    max_len,
                    prefix,
                    asn,
                } => {
                    let prefix = IpPrefix::V6(
                        Ipv6Prefix::new(prefix, prefix_len)
                            .map_err(|_| ClientError::ProtocolViolation("bad v6 prefix"))?,
                    );
                    staged.push(pdu_vrp(announce, prefix, max_len, asn));
                }
                Pdu::EndOfData {
                    serial,
                    session_id: eod_session,
                } => {
                    if eod_session != session_id {
                        self.forget();
                        return Err(ClientError::ProtocolViolation(
                            "End of Data session mismatch",
                        ));
                    }
                    break serial;
                }
                // The cache noticed mid-response that it cannot finish
                // the delta (history evicted under it, serial wrapped):
                // discard everything staged and start over via Reset
                // Query, exactly as for an up-front Cache Reset.
                Pdu::CacheReset => return Ok(None),
                Pdu::ErrorReport { code, text, .. } => {
                    return Err(self.cache_error(query, code, text))
                }
                _ => {
                    return Err(ClientError::ProtocolViolation(
                        "unexpected PDU inside response",
                    ))
                }
            }
        };
        // Net change of an incremental answer (records that cancel
        // across the serials of one answer drop out); a full reload has
        // none worth keeping — it is the whole set.
        let mut net = match query {
            Pdu::SerialQuery { serial, .. } => Some((*serial, BTreeSet::new(), BTreeSet::new())),
            _ => None,
        };
        for (announce, vrp) in staged {
            if announce {
                if !self.vrps.insert(vrp) {
                    self.forget();
                    return Err(ClientError::DuplicateAnnouncement(vrp));
                }
                announced += 1;
            } else {
                if !self.vrps.remove(&vrp) {
                    self.forget();
                    return Err(ClientError::WithdrawalOfUnknown(vrp));
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
        Ok(Some(SyncOutcome::Updated {
            serial,
            announced,
            withdrawn,
        }))
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
mod tests {
    use super::*;
    use crate::cache::CacheServer;
    use ripki_net::Asn;
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;

    fn vrp(prefix: &str, ml: u8, asn: u32) -> VrpTriple {
        VrpTriple {
            prefix: prefix.parse().unwrap(),
            max_length: ml,
            asn: Asn::new(asn),
        }
    }

    /// Serve a cache on one end of a socket pair; the other is the
    /// router's.
    fn serve(cache: Arc<CacheServer>) -> (UnixStream, std::thread::JoinHandle<()>) {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let handle = std::thread::spawn(move || {
            let _ = cache.serve_connection(b);
        });
        (a, handle)
    }

    /// A client of a cache served on one end of a socket pair.
    fn connect(cache: Arc<CacheServer>) -> (Client<UnixStream>, std::thread::JoinHandle<()>) {
        let (stream, handle) = serve(cache);
        (Client::new(stream), handle)
    }

    #[test]
    fn initial_reset_sync() {
        let cache = Arc::new(CacheServer::new(11));
        cache.update([vrp("10.0.0.0/16", 20, 100), vrp("2001:db8::/32", 32, 200)]);
        let (mut client, _h) = connect(cache.clone());
        let outcome = client.sync().unwrap();
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
        let validator = client.to_validator();
        assert_eq!(
            validator.validate(&"10.0.0.0/18".parse().unwrap(), Asn::new(100)),
            ripki_bgp::rov::RpkiState::Valid
        );
    }

    #[test]
    fn incremental_sync_applies_delta() {
        let cache = Arc::new(CacheServer::new(11));
        cache.update([vrp("10.0.0.0/16", 16, 100)]);
        let (mut client, _h) = connect(cache.clone());
        client.sync().unwrap();

        cache.update([vrp("11.0.0.0/16", 16, 200)]); // withdraw 10/16, announce 11/16
        let outcome = client.sync().unwrap();
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
        let cache = Arc::new(CacheServer::new(11));
        cache.update([vrp("10.0.0.0/16", 16, 1), vrp("11.0.0.0/16", 16, 2)]);
        let (mut client, _h) = connect(cache.clone());
        client.sync().unwrap();
        assert_eq!(client.last_delta(), None, "a full reload has no delta");
        let before = client.payload().unwrap();

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
        client.sync().unwrap();
        let after = client.payload().unwrap();
        assert_eq!(after, cache.payload().unwrap());
        let wire = client.last_delta().unwrap();
        let diff = before.diff(&after);
        assert_eq!(wire.from_serial, 1);
        assert_eq!(wire.announced, diff.announced);
        assert_eq!(wire.withdrawn, diff.withdrawn);
        // The payload taken before the sync still holds the old set.
        assert_eq!(before.len(), 2);

        // An empty answer is an empty delta, not a stale one.
        client.sync().unwrap();
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
        let cache = Arc::new(CacheServer::new(11));
        cache.update([vrp("10.0.0.0/16", 16, 100)]);
        let (mut client, _h) = connect(cache);
        client.sync().unwrap();
        let outcome = client.sync().unwrap();
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
        let cache = Arc::new(CacheServer::new(11).with_max_history(1));
        cache.update([vrp("10.0.0.0/16", 16, 100)]);
        let (mut client, _h) = connect(cache.clone());
        client.sync().unwrap();
        // Age the client's serial out of the history window.
        for i in 0..4 {
            cache.update([vrp(&format!("10.{i}.0.0/16"), 16, 100)]);
        }
        let outcome = client.sync().unwrap();
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
        let cache = Arc::new(CacheServer::new(11));
        let (mut client, _h) = connect(cache);
        match client.sync() {
            Err(ClientError::CacheError { code, .. }) => {
                assert_eq!(code, ErrorCode::NoDataAvailable);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn many_vrps_over_the_wire() {
        let cache = Arc::new(CacheServer::new(3));
        let vrps: Vec<VrpTriple> = (0..2000u32)
            .map(|i| vrp(&format!("10.{}.{}.0/24", i / 256, i % 256), 24, i))
            .collect();
        cache.update(vrps.clone());
        let (mut client, _h) = connect(cache);
        let outcome = client.sync().unwrap();
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
        let cache = Arc::new(CacheServer::new(5));
        cache.update([vrp("10.0.0.0/16", 16, 1)]);
        let (mut c1, _h1) = connect(cache.clone());
        let (mut c2, _h2) = connect(cache.clone());
        c1.sync().unwrap();
        c2.sync().unwrap();
        assert_eq!(c1.vrps(), c2.vrps());
    }

    /// The resume-after-serial-gap scenario: a dropped connection does
    /// not lose the `(session_id, serial)` context. `reconnect` carries
    /// it onto a fresh connection and the next sync is an incremental
    /// Serial Query covering exactly the missed serials.
    #[test]
    fn resume_after_serial_gap_is_incremental() {
        let cache = Arc::new(CacheServer::new(11));
        cache.update([vrp("10.0.0.0/16", 16, 1), vrp("11.0.0.0/16", 16, 2)]);
        let (mut client, _h) = connect(cache.clone());
        client.sync().unwrap();
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

        let (stream, _h2) = serve(cache.clone());
        client.reconnect(stream);
        let outcome = client.sync().unwrap();
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
            client.payload().unwrap(),
            cache.payload().unwrap(),
            "resumed set is byte-identical to the cache's"
        );
    }

    /// A cache restart between connections: under its new session id
    /// the router's context is void. The first sync fails and flushes
    /// (RFC 8210 §5.1); the second reloads under the new session.
    #[test]
    fn reconnecting_to_a_restarted_cache_flushes_then_reloads() {
        let before = Arc::new(CacheServer::new(5));
        before.update([vrp("10.0.0.0/16", 16, 1)]);
        let (mut client, _h) = connect(before);
        client.sync().unwrap();
        assert_eq!(client.state(), Some((5, 1)));

        // The cache comes back with a new session id and serial space.
        let after = Arc::new(CacheServer::new(9));
        after.update([vrp("12.0.0.0/16", 16, 3)]);
        let (stream, _h2) = serve(after);
        client.reconnect(stream);
        assert!(matches!(
            client.sync(),
            Err(ClientError::CacheError {
                code: ErrorCode::CorruptData,
                ..
            })
        ));
        assert_eq!(client.state(), None);
        assert!(client.vrps().is_empty());

        let outcome = client.sync().unwrap();
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

    /// A transcript stream: reads come from a canned PDU script,
    /// writes are kept for inspection. Lets a test exercise server
    /// behaviors the real `CacheServer` never emits (e.g. a
    /// mid-response Cache Reset).
    struct Scripted {
        script: std::io::Cursor<Vec<u8>>,
        sent: Vec<u8>,
    }

    impl Scripted {
        fn new(script: Vec<u8>) -> Scripted {
            Scripted {
                script: std::io::Cursor::new(script),
                sent: Vec::new(),
            }
        }

        /// The queries written so far.
        fn queries(&self) -> Vec<Pdu> {
            let mut buf = PduBuf::new();
            buf.extend(&self.sent);
            std::iter::from_fn(|| buf.next_pdu().unwrap()).collect()
        }
    }

    impl std::io::Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.script.read(buf)
        }
    }

    impl std::io::Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.sent.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
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

        let mut client = Client::new(Scripted::new(script));
        client.sync().unwrap();
        assert_eq!(client.state(), Some((7, 1)));

        assert_eq!(client.sync(), Err(ClientError::DuplicateAnnouncement(a)));
        assert_eq!(
            client.state(),
            None,
            "the old serial no longer describes the set"
        );
        assert!(client.vrps().is_empty());
        assert_eq!(client.last_delta(), None);
        assert_eq!(client.payload(), None);

        let outcome = client.sync().unwrap();
        assert_eq!(
            outcome,
            SyncOutcome::Updated {
                serial: 2,
                announced: 3,
                withdrawn: 0
            }
        );
        assert_eq!(client.vrps(), &BTreeSet::from([a, b, c]));
        assert_eq!(client.last_delta(), None, "a full reload has no delta");
        assert_eq!(
            client.stream.queries(),
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

        let mut client = Client::new(Scripted::new(script));
        client.sync().unwrap();
        assert!(client.sync().is_err());
        assert_eq!(client.state(), None, "the old session is void");
        assert!(client.vrps().is_empty());
        assert_eq!(client.last_delta(), None);

        client.sync().unwrap();
        assert_eq!(client.state(), Some((8, 1)));
        assert_eq!(client.vrps(), &BTreeSet::from([b]));
        assert_eq!(
            client.stream.queries(),
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
        script.extend(Pdu::CacheResponse { session_id: 7 }.encode());
        script.extend(
            Pdu::Ipv4Prefix {
                announce: true,
                prefix_len: 16,
                max_len: 16,
                prefix: "11.0.0.0".parse().unwrap(),
                asn: Asn::new(2),
            }
            .encode(),
        );
        script.extend(
            Pdu::EndOfData {
                session_id: 7,
                serial: 5,
            }
            .encode(),
        );

        let mut client = Client::new(Scripted::new(script));
        let outcome = client.sync().unwrap();
        assert_eq!(
            outcome,
            SyncOutcome::Updated {
                serial: 5,
                announced: 1,
                withdrawn: 0
            }
        );
        assert_eq!(client.vrps().iter().copied().collect::<Vec<_>>(), [good]);
        assert_eq!(client.state(), Some((7, 5)));
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
}
