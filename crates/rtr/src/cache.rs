//! The cache side of RTR: versioned VRP state and query handling.
//!
//! A relying-party cache validates the RPKI periodically; each validation
//! run becomes a new **serial**. Routers either fetch everything (Reset
//! Query) or ask for the delta since the serial they hold (Serial
//! Query). The cache keeps a bounded delta history; askers that fall
//! off the end get a Cache Reset and start over — exactly RFC 6810 §5.

use crate::pdu::{ErrorCode, Pdu};
use ripki_bgp::rov::VrpTriple;
use ripki_net::IpPrefix;
use ripki_payload::{PayloadUpdate, VrpDelta, VrpPayload, VrpSet};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::os::unix::net::UnixStream;
use std::sync::Mutex;

/// One serial increment's changes.
#[derive(Debug, Clone, Default)]
struct Delta {
    to_serial: u32,
    announced: Vec<VrpTriple>,
    withdrawn: Vec<VrpTriple>,
}

struct CacheState {
    session_id: u16,
    serial: u32,
    has_data: bool,
    /// A Reset response streams from a handle on this set without the
    /// lock, and [`CacheServer::payload`] hands one out; an edit copies
    /// the chunks it touches, never the set, whoever else holds it.
    current: VrpSet,
    history: VecDeque<Delta>,
}

/// A shareable RTR cache server.
///
/// Lock order: `state` before `wakers`, and never nested — every
/// mutator releases `state` before it signals.
pub struct CacheServer {
    state: Mutex<CacheState>,
    /// Write ends of the session loops' wake sockets (see
    /// [`register_waker`](Self::register_waker)).
    wakers: Mutex<Vec<UnixStream>>,
    max_history: usize,
}

/// VRP records a Reset response encodes per chunk (≈ 80 KiB of wire
/// bytes): what one session may hold encoded but unsent.
pub(crate) const RESET_CHUNK: usize = 4096;

/// One query's answer as wire bytes, handed out in bounded chunks.
///
/// Everything but a Reset response is a single chunk. A Reset response
/// streams its records from a snapshot of the set taken under the
/// cache lock and encoded outside it, [`RESET_CHUNK`] records at a
/// time, so neither the lock nor a 100k-element `Vec<Pdu>` is held
/// while a socket drains.
pub(crate) struct Response {
    /// Encoded, not yet handed out.
    head: Vec<u8>,
    reset: Option<ResetBody>,
    /// Serial of the End of Data this response finishes with, if it
    /// does: what the router will hold once it has read the response.
    pub(crate) end_of_data: Option<u32>,
}

struct ResetBody {
    set: VrpSet,
    /// The last record handed out: the next chunk resumes after it.
    resume: Option<VrpTriple>,
    session_id: u16,
    serial: u32,
}

impl Response {
    fn encoded(pdus: &[Pdu]) -> Response {
        let mut head = Vec::new();
        for pdu in pdus {
            pdu.encode_into(&mut head);
        }
        let end_of_data = match pdus.last() {
            Some(Pdu::EndOfData { serial, .. }) => Some(*serial),
            _ => None,
        };
        Response {
            head,
            reset: None,
            end_of_data,
        }
    }

    /// Append the next chunk to `out`; `false` once that chunk was the
    /// last.
    pub(crate) fn next_chunk(&mut self, out: &mut Vec<u8>) -> bool {
        out.append(&mut self.head);
        let Some(body) = &mut self.reset else {
            return false;
        };
        let mut taken = 0;
        let records = match body.resume {
            Some(last) => body.set.iter_after(&last),
            None => body.set.iter(),
        };
        for vrp in records.take(RESET_CHUNK) {
            vrp_pdu(vrp, true).encode_into(out);
            body.resume = Some(*vrp);
            taken += 1;
        }
        if taken == RESET_CHUNK {
            return true;
        }
        Pdu::EndOfData {
            session_id: body.session_id,
            serial: body.serial,
        }
        .encode_into(out);
        self.reset = None;
        false
    }
}

/// RFC 1982 serial-number arithmetic (as required by RFC 8210 §5.1):
/// is `a` less than `b` in sequence space? Neither total nor transitive
/// over the full space — exactly half the space is "greater" — but
/// well-defined for the windows RTR compares.
pub fn serial_lt(a: u32, b: u32) -> bool {
    a != b && b.wrapping_sub(a) < (1 << 31)
}

/// Turn a VRP into its announce/withdraw PDU.
fn vrp_pdu(vrp: &VrpTriple, announce: bool) -> Pdu {
    match vrp.prefix {
        IpPrefix::V4(p) => Pdu::Ipv4Prefix {
            announce,
            prefix_len: p.len(),
            max_len: vrp.max_length,
            prefix: p.network(),
            asn: vrp.asn,
        },
        IpPrefix::V6(p) => Pdu::Ipv6Prefix {
            announce,
            prefix_len: p.len(),
            max_len: vrp.max_length,
            prefix: p.network(),
            asn: vrp.asn,
        },
    }
}

impl CacheServer {
    /// Lock the state, recovering from poisoning. Every mutation under
    /// this lock either completes before unlock or replaces the state
    /// wholesale, so the last consistent snapshot is always servable —
    /// and serving it beats propagating a worker's panic into the RTR
    /// accept loop (R1: the serving plane never panics).
    fn state_lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A fresh cache with no data (Serial/Reset queries answer
    /// "No Data Available" until the first [`update`](Self::update)).
    pub fn new(session_id: u16) -> CacheServer {
        CacheServer {
            state: Mutex::new(CacheState {
                session_id,
                serial: 0,
                has_data: false,
                current: VrpSet::new(),
                history: VecDeque::new(),
            }),
            wakers: Mutex::new(Vec::new()),
            max_history: 16,
        }
    }

    /// Register the write end of a socket pair to be signalled — one
    /// byte, never blocking — on every serial advance, so the holder
    /// of the read end can sleep in `poll(2)` instead of polling
    /// [`serial`](Self::serial) on a timer. A waker whose read end is
    /// gone is dropped by the next signal.
    pub fn register_waker(&self, waker: UnixStream) -> io::Result<()> {
        waker.set_nonblocking(true)?;
        self.wakers_lock().push(waker);
        Ok(())
    }

    /// Wakers currently registered (dead ones linger until the next
    /// serial advance prunes them).
    pub fn waker_count(&self) -> usize {
        self.wakers_lock().len()
    }

    fn wakers_lock(&self) -> std::sync::MutexGuard<'_, Vec<UnixStream>> {
        // Same recovery argument as `state_lock`: a push or a retain
        // leaves the list valid at every step.
        self.wakers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Signal every registered waker. Callers have released `state`.
    fn wake(&self) {
        self.wakers_lock().retain(|waker| {
            let mut waker: &UnixStream = waker;
            match waker.write_all(&[1]) {
                Ok(()) => true,
                // A full socket already means "signalled".
                Err(e) => e.kind() == io::ErrorKind::WouldBlock,
            }
        });
    }

    /// Cap on retained deltas (default 16).
    pub fn with_max_history(mut self, n: usize) -> CacheServer {
        self.max_history = n;
        self
    }

    /// Install a new validation result; returns the new serial.
    ///
    /// Crossing the u32 wrap (serial `0xFFFF_FFFF` → `0`) discards the
    /// delta history: serial comparisons are ambiguous across the wrap
    /// boundary's half-space, so every router is forced through a Cache
    /// Reset and refetches the full set (RFC 8210 §5.1 / RFC 1982).
    pub fn update<I: IntoIterator<Item = VrpTriple>>(&self, vrps: I) -> u32 {
        let new: VrpSet = vrps.into_iter().collect();
        let serial = {
            let mut st = self.state_lock();
            let serial = st.serial.wrapping_add(1);
            self.install_locked(&mut st, serial, new);
            serial
        };
        self.wake();
        serial
    }

    /// Install a VRP snapshot stamped with an externally assigned
    /// serial (e.g. a study-engine epoch) instead of self-incrementing.
    ///
    /// When `serial` is exactly one past the cache's current serial the
    /// change is recorded as an incremental delta, so routers holding
    /// the previous serial sync with announce/withdraw PDUs only. Any
    /// other jump (engine restarted, epochs skipped, serial regressed)
    /// clears the delta history: affected routers get a Cache Reset and
    /// refetch the full set, which is always correct. The u32 wrap
    /// (`0xFFFF_FFFF` → `0`) is numerically contiguous but clears the
    /// history too — RFC 1982 comparisons are ambiguous across the wrap
    /// boundary, so a forced Cache Reset is the only safe resync.
    ///
    /// Returns `false` (and installs nothing) if `serial` equals the
    /// current serial while data is already present — same epoch, no-op.
    pub fn install_snapshot<I: IntoIterator<Item = VrpTriple>>(
        &self,
        serial: u32,
        vrps: I,
    ) -> bool {
        self.install_set(serial, vrps.into_iter().collect())
    }

    fn install_set(&self, serial: u32, new: VrpSet) -> bool {
        let installed = self.install_locked(&mut self.state_lock(), serial, new);
        if installed {
            self.wake();
        }
        installed
    }

    /// The one install path, under the state lock: record a contiguous
    /// step as a delta, clear the history on any other jump (the wrap
    /// included). The caller wakes the sessions once the lock is gone.
    fn install_locked(&self, st: &mut CacheState, serial: u32, new: VrpSet) -> bool {
        if st.has_data && serial == st.serial {
            return false;
        }
        let wraps = st.serial == u32::MAX && serial == 0;
        let contiguous = st.has_data && !wraps && serial == st.serial.wrapping_add(1);
        if contiguous {
            let announced = new.difference(&st.current);
            let withdrawn = st.current.difference(&new);
            st.history.push_back(Delta {
                to_serial: serial,
                announced,
                withdrawn,
            });
            while st.history.len() > self.max_history {
                st.history.pop_front();
            }
        } else {
            st.history.clear();
        }
        st.serial = serial;
        st.current = new;
        st.has_data = true;
        true
    }

    /// Stream one serial increment's announce/withdraw sets into the
    /// cache without materializing the full VRP snapshot — the
    /// incremental counterpart of [`install_snapshot`]
    /// (Self::install_snapshot), fed directly from a study engine's
    /// `EpochDelta`.
    ///
    /// Succeeds only when the delta chains contiguously: the cache has
    /// data, `to_serial` is exactly one past the current serial, and the
    /// step does not cross the u32 wrap (RFC 1982 comparisons are
    /// ambiguous there — see `install_snapshot`). On any other jump it
    /// installs nothing and returns `false`; the caller falls back to a
    /// full `install_snapshot`, which routers resync from via Cache
    /// Reset.
    ///
    /// Withdrawals of absent VRPs and announcements of already-present
    /// VRPs are applied idempotently (the set semantics routers expect),
    /// but are still recorded in the delta history verbatim only when
    /// they change the set — the history entry holds the *effective*
    /// changes, so replaying it reproduces the cache state exactly.
    pub fn apply_delta(
        &self,
        to_serial: u32,
        announced: &[VrpTriple],
        withdrawn: &[VrpTriple],
    ) -> bool {
        {
            let mut st = self.state_lock();
            let wraps = st.serial == u32::MAX;
            if !st.has_data || wraps || to_serial != st.serial.wrapping_add(1) {
                return false;
            }
            let mut effective = Delta {
                to_serial,
                announced: Vec::new(),
                withdrawn: Vec::new(),
            };
            for vrp in withdrawn {
                if st.current.remove(vrp) {
                    effective.withdrawn.push(*vrp);
                }
            }
            for vrp in announced {
                if st.current.insert(*vrp) {
                    effective.announced.push(*vrp);
                }
            }
            st.serial = to_serial;
            st.history.push_back(effective);
            while st.history.len() > self.max_history {
                st.history.pop_front();
            }
        }
        self.wake();
        true
    }

    /// Install a [`PayloadUpdate`] from the distribution fabric: the
    /// delta path when the update chains contiguously from the cache's
    /// serial, the snapshot path otherwise. This is the single entry
    /// point proxy targets use, so every hop shares one resync policy.
    ///
    /// Returns `true` when the cache state changed (serial advanced).
    pub fn install_update(&self, update: &PayloadUpdate) -> bool {
        if let Some(delta) = &update.delta {
            if self.apply_vrp_delta(delta) {
                return true;
            }
        }
        self.install_payload(&update.payload)
    }

    /// Install a full payload snapshot under its serial (see
    /// [`install_snapshot`](Self::install_snapshot) for the delta-vs-
    /// reset rules the serial jump decides). The cache adopts the
    /// payload's set as a handle; nothing is copied or re-sorted.
    pub fn install_payload(&self, payload: &VrpPayload) -> bool {
        self.install_set(payload.serial(), payload.shared_vrps())
    }

    /// Stream a payload delta into the cache. Succeeds only when the
    /// delta chains contiguously in serial space (see
    /// [`apply_delta`](Self::apply_delta)); epochs are mapped to RTR
    /// serials by truncation, matching [`VrpPayload::serial`].
    pub fn apply_vrp_delta(&self, delta: &VrpDelta) -> bool {
        // A delta whose epoch step is not exactly +1 cannot be serial-
        // contiguous either; `apply_delta` would refuse it, but checking
        // here keeps the truncation from aliasing a 2^32-epoch jump
        // onto a plausible-looking serial step.
        if delta.to_epoch != delta.from_epoch.wrapping_add(1) {
            return false;
        }
        self.apply_delta(delta.to_epoch as u32, &delta.announced, &delta.withdrawn)
    }

    /// The currently served set as an epoch-stamped payload, or `None`
    /// before the first install. The epoch is the serial widened to
    /// `u64` — exact for every engine-fed cache (engine epochs are the
    /// serials) and still monotonic for self-incrementing ones.
    pub fn payload(&self) -> Option<VrpPayload> {
        let st = self.state_lock();
        st.has_data
            .then(|| VrpPayload::from_shared(u64::from(st.serial), st.current.clone()))
    }

    /// Current serial.
    pub fn serial(&self) -> u32 {
        self.state_lock().serial
    }

    /// Session id.
    pub fn session_id(&self) -> u16 {
        self.state_lock().session_id
    }

    /// Number of VRPs currently served.
    pub fn vrp_count(&self) -> usize {
        self.state_lock().current.len()
    }

    /// Compute the response PDUs for one router query. Pure function of
    /// the current state — the unit-testable heart of the server.
    pub fn handle_query(&self, query: &Pdu) -> Vec<Pdu> {
        let st = self.state_lock();
        match query {
            Pdu::ResetQuery => {
                if !st.has_data {
                    return vec![Pdu::ErrorReport {
                        code: ErrorCode::NoDataAvailable,
                        erroneous_pdu: query.encode(),
                        text: "cache has not completed a validation run".into(),
                    }];
                }
                let mut out = vec![Pdu::CacheResponse {
                    session_id: st.session_id,
                }];
                out.extend(st.current.iter().map(|v| vrp_pdu(v, true)));
                out.push(Pdu::EndOfData {
                    session_id: st.session_id,
                    serial: st.serial,
                });
                out
            }
            Pdu::SerialQuery { session_id, serial } => {
                if !st.has_data {
                    return vec![Pdu::ErrorReport {
                        code: ErrorCode::NoDataAvailable,
                        erroneous_pdu: query.encode(),
                        text: "cache has not completed a validation run".into(),
                    }];
                }
                if *session_id != st.session_id {
                    return vec![Pdu::ErrorReport {
                        code: ErrorCode::CorruptData,
                        erroneous_pdu: query.encode(),
                        text: "session id mismatch".into(),
                    }];
                }
                if *serial == st.serial {
                    // Router is current: empty delta.
                    return vec![
                        Pdu::CacheResponse {
                            session_id: st.session_id,
                        },
                        Pdu::EndOfData {
                            session_id: st.session_id,
                            serial: st.serial,
                        },
                    ];
                }
                if serial_lt(st.serial, *serial) {
                    // The router's serial is from our future (RFC 1982
                    // comparison): it outlived a cache restart or a
                    // serial wrap. Only a full restart is safe.
                    return vec![Pdu::CacheReset];
                }
                // Collect deltas (serial, current]: they must chain
                // contiguously from the router's serial.
                let mut chain: Vec<&Delta> = Vec::new();
                let mut expect = serial.wrapping_add(1);
                for d in &st.history {
                    if d.to_serial == expect {
                        chain.push(d);
                        expect = expect.wrapping_add(1);
                    }
                }
                if chain.is_empty() || chain.last().map(|d| d.to_serial) != Some(st.serial) {
                    // Too old (or future serial): make the router restart.
                    return vec![Pdu::CacheReset];
                }
                let mut out = vec![Pdu::CacheResponse {
                    session_id: st.session_id,
                }];
                for d in chain {
                    out.extend(d.announced.iter().map(|v| vrp_pdu(v, true)));
                    out.extend(d.withdrawn.iter().map(|v| vrp_pdu(v, false)));
                }
                out.push(Pdu::EndOfData {
                    session_id: st.session_id,
                    serial: st.serial,
                });
                out
            }
            other => vec![Pdu::ErrorReport {
                code: ErrorCode::InvalidRequest,
                erroneous_pdu: other.encode(),
                text: format!("unexpected PDU type {} from router", other.type_byte()),
            }],
        }
    }

    /// The Serial Notify PDU for the current state, if any data exists.
    pub fn notify_pdu(&self) -> Option<Pdu> {
        let st = self.state_lock();
        st.has_data.then_some(Pdu::SerialNotify {
            session_id: st.session_id,
            serial: st.serial,
        })
    }

    /// One query's answer in wire form — the single response encoder,
    /// called by the session machine behind both
    /// [`serve_connection`](Self::serve_connection) and the
    /// [`RtrListener`](crate::RtrListener) session loop.
    pub(crate) fn response_to(&self, query: &Pdu) -> Response {
        if matches!(query, Pdu::ResetQuery) {
            let st = self.state_lock();
            if st.has_data {
                let mut head = Vec::new();
                Pdu::CacheResponse {
                    session_id: st.session_id,
                }
                .encode_into(&mut head);
                return Response {
                    head,
                    reset: Some(ResetBody {
                        set: st.current.clone(),
                        resume: None,
                        session_id: st.session_id,
                        serial: st.serial,
                    }),
                    end_of_data: Some(st.serial),
                };
            }
        }
        Response::encoded(&self.handle_query(query))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripki_net::Asn;

    fn vrp(prefix: &str, ml: u8, asn: u32) -> VrpTriple {
        VrpTriple {
            prefix: prefix.parse().unwrap(),
            max_length: ml,
            asn: Asn::new(asn),
        }
    }

    #[test]
    fn empty_cache_reports_no_data() {
        let cache = CacheServer::new(7);
        let out = cache.handle_query(&Pdu::ResetQuery);
        assert!(matches!(
            out[0],
            Pdu::ErrorReport {
                code: ErrorCode::NoDataAvailable,
                ..
            }
        ));
        let out = cache.handle_query(&Pdu::SerialQuery {
            session_id: 7,
            serial: 0,
        });
        assert!(matches!(
            out[0],
            Pdu::ErrorReport {
                code: ErrorCode::NoDataAvailable,
                ..
            }
        ));
    }

    #[test]
    fn reset_query_returns_everything() {
        let cache = CacheServer::new(7);
        let serial = cache.update([vrp("10.0.0.0/16", 16, 1), vrp("2001:db8::/32", 48, 2)]);
        assert_eq!(serial, 1);
        let out = cache.handle_query(&Pdu::ResetQuery);
        assert_eq!(out.len(), 4); // response + 2 prefixes + EOD
        assert!(matches!(out[0], Pdu::CacheResponse { session_id: 7 }));
        assert!(matches!(
            out[3],
            Pdu::EndOfData {
                serial: 1,
                session_id: 7
            }
        ));
        let announce_count = out
            .iter()
            .filter(|p| {
                matches!(
                    p,
                    Pdu::Ipv4Prefix { announce: true, .. } | Pdu::Ipv6Prefix { announce: true, .. }
                )
            })
            .count();
        assert_eq!(announce_count, 2);
    }

    #[test]
    fn serial_query_current_gets_empty_delta() {
        let cache = CacheServer::new(7);
        cache.update([vrp("10.0.0.0/16", 16, 1)]);
        let out = cache.handle_query(&Pdu::SerialQuery {
            session_id: 7,
            serial: 1,
        });
        assert_eq!(out.len(), 2);
        assert!(matches!(out[1], Pdu::EndOfData { serial: 1, .. }));
    }

    #[test]
    fn serial_query_gets_incremental_delta() {
        let cache = CacheServer::new(7);
        cache.update([vrp("10.0.0.0/16", 16, 1), vrp("11.0.0.0/16", 16, 2)]);
        cache.update([vrp("10.0.0.0/16", 16, 1), vrp("12.0.0.0/16", 16, 3)]);
        let out = cache.handle_query(&Pdu::SerialQuery {
            session_id: 7,
            serial: 1,
        });
        // response + announce 12/16 + withdraw 11/16 + EOD
        assert_eq!(out.len(), 4);
        let announces: Vec<_> = out
            .iter()
            .filter_map(|p| match p {
                Pdu::Ipv4Prefix {
                    announce, prefix, ..
                } => Some((*announce, *prefix)),
                _ => None,
            })
            .collect();
        assert!(announces.contains(&(true, "12.0.0.0".parse().unwrap())));
        assert!(announces.contains(&(false, "11.0.0.0".parse().unwrap())));
        assert!(matches!(out.last(), Some(Pdu::EndOfData { serial: 2, .. })));
    }

    #[test]
    fn multi_step_deltas_chain() {
        let cache = CacheServer::new(7);
        cache.update([vrp("10.0.0.0/16", 16, 1)]); // serial 1
        cache.update([vrp("10.0.0.0/16", 16, 1), vrp("11.0.0.0/16", 16, 2)]); // 2
        cache.update([vrp("11.0.0.0/16", 16, 2)]); // 3: withdraw 10/16
        let out = cache.handle_query(&Pdu::SerialQuery {
            session_id: 7,
            serial: 1,
        });
        let (mut ann, mut wit) = (0, 0);
        for p in &out {
            if let Pdu::Ipv4Prefix { announce, .. } = p {
                if *announce {
                    ann += 1;
                } else {
                    wit += 1;
                }
            }
        }
        assert_eq!((ann, wit), (1, 1));
        assert!(matches!(out.last(), Some(Pdu::EndOfData { serial: 3, .. })));
    }

    #[test]
    fn stale_serial_triggers_cache_reset() {
        let cache = CacheServer::new(7).with_max_history(2);
        cache.update([vrp("10.0.0.0/16", 16, 1)]);
        for i in 0..5 {
            cache.update([vrp(&format!("10.{i}.0.0/16"), 16, 1)]);
        }
        let out = cache.handle_query(&Pdu::SerialQuery {
            session_id: 7,
            serial: 1,
        });
        assert_eq!(out, vec![Pdu::CacheReset]);
        // Future serial likewise.
        let out = cache.handle_query(&Pdu::SerialQuery {
            session_id: 7,
            serial: 99,
        });
        assert_eq!(out, vec![Pdu::CacheReset]);
    }

    #[test]
    fn session_mismatch_is_corrupt_data() {
        let cache = CacheServer::new(7);
        cache.update([vrp("10.0.0.0/16", 16, 1)]);
        let out = cache.handle_query(&Pdu::SerialQuery {
            session_id: 8,
            serial: 1,
        });
        assert!(matches!(
            out[0],
            Pdu::ErrorReport {
                code: ErrorCode::CorruptData,
                ..
            }
        ));
    }

    #[test]
    fn unexpected_pdu_is_invalid_request() {
        let cache = CacheServer::new(7);
        cache.update([vrp("10.0.0.0/16", 16, 1)]);
        let out = cache.handle_query(&Pdu::CacheReset);
        assert!(matches!(
            out[0],
            Pdu::ErrorReport {
                code: ErrorCode::InvalidRequest,
                ..
            }
        ));
    }

    #[test]
    fn identical_update_produces_empty_delta() {
        let cache = CacheServer::new(7);
        cache.update([vrp("10.0.0.0/16", 16, 1)]);
        cache.update([vrp("10.0.0.0/16", 16, 1)]);
        let out = cache.handle_query(&Pdu::SerialQuery {
            session_id: 7,
            serial: 1,
        });
        assert_eq!(out.len(), 2); // response + EOD only
        assert_eq!(cache.serial(), 2);
        assert_eq!(cache.vrp_count(), 1);
    }

    #[test]
    fn install_snapshot_contiguous_serial_yields_delta() {
        let cache = CacheServer::new(7);
        assert!(cache.install_snapshot(5, [vrp("10.0.0.0/16", 16, 1)]));
        assert_eq!(cache.serial(), 5);
        assert!(cache.install_snapshot(6, [vrp("11.0.0.0/16", 16, 2)]));
        let out = cache.handle_query(&Pdu::SerialQuery {
            session_id: 7,
            serial: 5,
        });
        // response + announce 11/16 + withdraw 10/16 + EOD
        assert_eq!(out.len(), 4);
        assert!(matches!(out.last(), Some(Pdu::EndOfData { serial: 6, .. })));
    }

    #[test]
    fn install_snapshot_serial_jump_resets_history() {
        let cache = CacheServer::new(7);
        assert!(cache.install_snapshot(1, [vrp("10.0.0.0/16", 16, 1)]));
        assert!(cache.install_snapshot(2, [vrp("11.0.0.0/16", 16, 2)]));
        // Jump past 3: history must be discarded, not chained.
        assert!(cache.install_snapshot(9, [vrp("12.0.0.0/16", 16, 3)]));
        let out = cache.handle_query(&Pdu::SerialQuery {
            session_id: 7,
            serial: 2,
        });
        assert_eq!(out, vec![Pdu::CacheReset]);
        // Full refetch still serves the latest set.
        let out = cache.handle_query(&Pdu::ResetQuery);
        assert!(matches!(out.last(), Some(Pdu::EndOfData { serial: 9, .. })));
    }

    #[test]
    fn apply_delta_streams_incremental_changes() {
        let cache = CacheServer::new(7);
        assert!(cache.install_snapshot(3, [vrp("10.0.0.0/16", 16, 1)]));
        assert!(cache.apply_delta(
            4,
            &[vrp("11.0.0.0/16", 16, 2)],
            &[vrp("10.0.0.0/16", 16, 1)]
        ));
        assert_eq!(cache.serial(), 4);
        assert_eq!(cache.vrp_count(), 1);
        // A router at serial 3 syncs with exactly the streamed delta.
        let out = cache.handle_query(&Pdu::SerialQuery {
            session_id: 7,
            serial: 3,
        });
        assert_eq!(out.len(), 4); // response + announce + withdraw + EOD
        assert!(matches!(out.last(), Some(Pdu::EndOfData { serial: 4, .. })));
        // The resulting set matches what install_snapshot would serve.
        let reset = cache.handle_query(&Pdu::ResetQuery);
        let announced: Vec<_> = reset
            .iter()
            .filter_map(|p| match p {
                Pdu::Ipv4Prefix { prefix, .. } => Some(*prefix),
                _ => None,
            })
            .collect();
        assert_eq!(
            announced,
            vec!["11.0.0.0".parse::<std::net::Ipv4Addr>().unwrap()]
        );
    }

    #[test]
    fn apply_delta_rejects_non_contiguous_serials() {
        let cache = CacheServer::new(7);
        // No data yet: stream refused, caller must install a snapshot.
        assert!(!cache.apply_delta(1, &[vrp("10.0.0.0/16", 16, 1)], &[]));
        assert!(cache.install_snapshot(1, [vrp("10.0.0.0/16", 16, 1)]));
        // Serial jump and same-serial replay are refused.
        assert!(!cache.apply_delta(5, &[vrp("11.0.0.0/16", 16, 2)], &[]));
        assert!(!cache.apply_delta(1, &[vrp("11.0.0.0/16", 16, 2)], &[]));
        assert_eq!(cache.vrp_count(), 1);
        // The wrap step is numerically contiguous but must be refused.
        let wrap_cache = CacheServer::new(7);
        assert!(wrap_cache.install_snapshot(u32::MAX, [vrp("10.0.0.0/16", 16, 1)]));
        assert!(!wrap_cache.apply_delta(0, &[vrp("11.0.0.0/16", 16, 2)], &[]));
    }

    #[test]
    fn apply_delta_is_idempotent_on_redundant_changes() {
        let cache = CacheServer::new(7);
        assert!(cache.install_snapshot(1, [vrp("10.0.0.0/16", 16, 1)]));
        // Announce an already-present VRP, withdraw an absent one.
        assert!(cache.apply_delta(
            2,
            &[vrp("10.0.0.0/16", 16, 1)],
            &[vrp("99.0.0.0/16", 16, 9)]
        ));
        assert_eq!(cache.vrp_count(), 1);
        // The history entry carries no spurious changes: a router at 1
        // gets an empty delta.
        let out = cache.handle_query(&Pdu::SerialQuery {
            session_id: 7,
            serial: 1,
        });
        assert_eq!(out.len(), 2); // response + EOD only
        assert!(matches!(out.last(), Some(Pdu::EndOfData { serial: 2, .. })));
    }

    #[test]
    fn install_snapshot_same_serial_is_noop() {
        let cache = CacheServer::new(7);
        assert!(cache.install_snapshot(3, [vrp("10.0.0.0/16", 16, 1)]));
        assert!(!cache.install_snapshot(3, [vrp("11.0.0.0/16", 16, 2)]));
        assert_eq!(cache.vrp_count(), 1);
    }

    #[test]
    fn install_update_prefers_delta_falls_back_to_snapshot() {
        let cache = CacheServer::new(7);
        let p3 = VrpPayload::new(3, [vrp("10.0.0.0/16", 16, 1)]);
        assert!(cache.install_payload(&p3));
        assert_eq!(cache.serial(), 3);
        assert_eq!(cache.payload(), Some(p3.clone()));

        // Contiguous update: the delta path applies and routers at
        // serial 3 sync incrementally.
        let p4 = VrpPayload::new(4, [vrp("10.0.0.0/16", 16, 1), vrp("11.0.0.0/16", 16, 2)]);
        let update = PayloadUpdate::from_previous(&p3, p4.clone());
        assert!(update.delta.is_some());
        assert!(cache.install_update(&update));
        assert_eq!(cache.payload(), Some(p4.clone()));
        let out = cache.handle_query(&Pdu::SerialQuery {
            session_id: 7,
            serial: 3,
        });
        assert_eq!(out.len(), 3); // response + announce 11/16 + EOD
        assert!(matches!(out.last(), Some(Pdu::EndOfData { serial: 4, .. })));

        // Epoch jump: the delta cannot chain, the snapshot path takes
        // over, and stale routers are forced through a Cache Reset.
        let p9 = VrpPayload::new(9, [vrp("12.0.0.0/16", 16, 3)]);
        let jump = PayloadUpdate::from_previous(&p4, p9.clone());
        assert!(cache.install_update(&jump));
        assert_eq!(cache.payload(), Some(p9));
        let out = cache.handle_query(&Pdu::SerialQuery {
            session_id: 7,
            serial: 4,
        });
        assert_eq!(out, vec![Pdu::CacheReset]);

        // Same-epoch replay is a no-op.
        let replay = PayloadUpdate::snapshot(VrpPayload::new(9, [vrp("13.0.0.0/16", 16, 4)]));
        assert!(!cache.install_update(&replay));
        assert_eq!(cache.vrp_count(), 1);
    }

    #[test]
    fn wakers_are_signalled_on_every_advance_and_only_then() {
        use std::io::Read;
        let cache = CacheServer::new(7);
        let (rx, tx) = UnixStream::pair().unwrap();
        rx.set_nonblocking(true).unwrap();
        cache.register_waker(tx).unwrap();
        let signals = |mut rx: &UnixStream| {
            let mut sink = [0u8; 16];
            rx.read(&mut sink).unwrap_or(0)
        };
        assert_eq!(signals(&rx), 0);
        cache.update([vrp("10.0.0.0/16", 16, 1)]);
        assert_eq!(signals(&rx), 1);
        assert!(cache.install_snapshot(5, [vrp("10.0.0.0/16", 16, 1)]));
        assert!(cache.apply_delta(6, &[vrp("11.0.0.0/16", 16, 2)], &[]));
        assert_eq!(signals(&rx), 2);
        // Refused installs leave the serial alone and wake nobody.
        assert!(!cache.install_snapshot(6, [vrp("12.0.0.0/16", 16, 3)]));
        assert!(!cache.apply_delta(9, &[vrp("12.0.0.0/16", 16, 3)], &[]));
        assert_eq!(signals(&rx), 0);
        // A waker whose reader is gone is pruned by the next signal; a
        // full one is kept (it already says "signalled").
        assert_eq!(cache.waker_count(), 1);
        drop(rx);
        cache.update([vrp("10.0.0.0/16", 16, 1)]);
        assert_eq!(cache.waker_count(), 0);
    }

    #[test]
    fn payload_is_a_handle_on_the_served_set() {
        let cache = CacheServer::new(7);
        assert!(cache.install_snapshot(3, [vrp("10.0.0.0/16", 16, 1)]));
        let held = cache.payload().unwrap();
        // Mutating under a live handle copies; the handle keeps its set.
        assert!(cache.apply_delta(4, &[vrp("11.0.0.0/16", 16, 2)], &[]));
        assert_eq!(held.len(), 1);
        assert_eq!(cache.payload().unwrap().len(), 2);
        assert_eq!(cache.payload().unwrap().epoch(), 4);
    }

    #[test]
    fn payload_is_none_before_first_install() {
        let cache = CacheServer::new(7);
        assert_eq!(cache.payload(), None);
    }

    #[test]
    fn serial_lt_follows_rfc1982() {
        assert!(serial_lt(1, 2));
        assert!(!serial_lt(2, 1));
        assert!(!serial_lt(5, 5));
        // Wrap-adjacent: MAX is "less than" 0 in sequence space.
        assert!(serial_lt(u32::MAX, 0));
        assert!(!serial_lt(0, u32::MAX));
        // Half-space edge: exactly 2^31 apart is NOT less-than.
        assert!(!serial_lt(0, 1 << 31));
        assert!(serial_lt(0, (1 << 31) - 1));
    }

    #[test]
    fn install_snapshot_wrap_forces_cache_reset() {
        let cache = CacheServer::new(7);
        assert!(cache.install_snapshot(u32::MAX - 1, [vrp("10.0.0.0/16", 16, 1)]));
        assert!(cache.install_snapshot(u32::MAX, [vrp("11.0.0.0/16", 16, 2)]));
        // Pre-wrap serials still sync incrementally.
        let out = cache.handle_query(&Pdu::SerialQuery {
            session_id: 7,
            serial: u32::MAX - 1,
        });
        assert!(matches!(
            out.last(),
            Some(Pdu::EndOfData {
                serial: u32::MAX,
                ..
            })
        ));
        // The wrap itself is numerically contiguous but must reset.
        assert!(cache.install_snapshot(0, [vrp("12.0.0.0/16", 16, 3)]));
        assert_eq!(cache.serial(), 0);
        let out = cache.handle_query(&Pdu::SerialQuery {
            session_id: 7,
            serial: u32::MAX,
        });
        assert_eq!(out, vec![Pdu::CacheReset]);
        // A full refetch recovers and serves the post-wrap serial.
        let out = cache.handle_query(&Pdu::ResetQuery);
        assert!(matches!(out.last(), Some(Pdu::EndOfData { serial: 0, .. })));
    }

    #[test]
    fn update_wrap_forces_cache_reset() {
        let cache = CacheServer::new(7);
        assert!(cache.install_snapshot(u32::MAX, [vrp("10.0.0.0/16", 16, 1)]));
        // Self-incrementing update crosses the wrap.
        let serial = cache.update([vrp("11.0.0.0/16", 16, 2)]);
        assert_eq!(serial, 0);
        let out = cache.handle_query(&Pdu::SerialQuery {
            session_id: 7,
            serial: u32::MAX,
        });
        assert_eq!(out, vec![Pdu::CacheReset]);
        // Post-wrap deltas chain normally again.
        cache.update([vrp("12.0.0.0/16", 16, 3)]);
        let out = cache.handle_query(&Pdu::SerialQuery {
            session_id: 7,
            serial: 0,
        });
        assert!(matches!(out.last(), Some(Pdu::EndOfData { serial: 1, .. })));
    }

    #[test]
    fn future_serial_is_explicit_cache_reset() {
        let cache = CacheServer::new(7);
        cache.update([vrp("10.0.0.0/16", 16, 1)]);
        cache.update([vrp("11.0.0.0/16", 16, 2)]);
        // serial 3 is in the cache's future per RFC 1982.
        let out = cache.handle_query(&Pdu::SerialQuery {
            session_id: 7,
            serial: 3,
        });
        assert_eq!(out, vec![Pdu::CacheReset]);
    }
}
