//! The RTR session plane over real TCP: Serial Notify is pushed the
//! moment the cache's serial advances, every session lives on one
//! wake-driven loop, and no peer can hurt another.
#![expect(clippy::disallowed_methods, reason = "R2 exempts test code")]

use ripki_bgp::rov::VrpTriple;
use ripki_net::Asn;
use ripki_rtr::listener::WRITE_STALL;
use ripki_rtr::{CacheServer, Client, ErrorCode, ListenerConfig, Pdu, RtrListener, SyncOutcome};
use std::io::ErrorKind::{TimedOut, WouldBlock};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn vrp(prefix: &str, asn: u32) -> VrpTriple {
    VrpTriple {
        prefix: prefix.parse().unwrap(),
        max_length: 24,
        asn: Asn::new(asn),
    }
}

/// `n` distinct /24s under 10.0.0.0/8 … 11.x.
fn many_vrps(n: u32) -> Vec<VrpTriple> {
    (0..n)
        .map(|i| {
            vrp(
                &format!("{}.{}.{}.0/24", 10 + (i >> 16), (i >> 8) & 0xff, i & 0xff),
                i,
            )
        })
        .collect()
}

/// A listener whose idle `poll` timeout is far beyond every deadline
/// below: whatever arrives in time was pushed, not polled.
fn spawn(cache: &Arc<CacheServer>) -> RtrListener {
    let config = ListenerConfig {
        session_poll: Duration::from_secs(30),
        ..ListenerConfig::default()
    };
    let bound = TcpListener::bind("127.0.0.1:0").unwrap();
    RtrListener::spawn(bound, Arc::clone(cache), config).unwrap()
}

/// A synced router plus a handle on its socket's read timeout.
fn connect(listener: &RtrListener) -> (Client<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(listener.addr()).unwrap();
    let ctrl = stream.try_clone().unwrap();
    ctrl.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut router = Client::new(stream);
    router.sync().unwrap();
    (router, ctrl)
}

/// Every PDU a raw socket delivers until the peer closes it.
fn read_pdus_to_close(stream: &mut TcpStream) -> Vec<Pdu> {
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).unwrap();
    let mut rest: &[u8] = &bytes;
    let mut pdus = Vec::new();
    while let Some((pdu, used)) = Pdu::decode(rest).unwrap() {
        pdus.push(pdu);
        rest = &rest[used..];
    }
    assert!(rest.is_empty(), "trailing bytes after the last PDU");
    pdus
}

/// Poll `done` until it holds; fail after the stall bound plus 5 s.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + WRITE_STALL + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_serial_advance_is_pushed_not_polled() {
    let cache = Arc::new(CacheServer::new(5));
    cache.update([vrp("10.0.0.0/24", 1)]);
    let listener = spawn(&cache);
    let (mut router, _ctrl) = connect(&listener);
    assert!(!router.needs_sync());

    let advanced = Instant::now();
    cache.update([vrp("10.0.0.0/24", 1), vrp("10.0.1.0/24", 2)]);
    assert_eq!(router.poll_notify().unwrap(), Some(2));
    assert!(
        advanced.elapsed() < Duration::from_millis(250),
        "notify took {:?} with a 30 s idle poll",
        advanced.elapsed()
    );
    assert!(router.needs_sync());
    assert_eq!(router.notified_serial(), Some(2));

    let outcome = router.sync().unwrap();
    assert_eq!(
        outcome,
        SyncOutcome::Updated {
            serial: 2,
            announced: 1,
            withdrawn: 0
        }
    );
    assert_eq!(router.vrps().len(), 2);
    assert!(!router.needs_sync());
}

#[test]
fn sixty_four_sessions_each_get_exactly_one_notify_per_advance() {
    let cache = Arc::new(CacheServer::new(6));
    cache.update([vrp("10.9.0.0/24", 9)]);
    let listener = spawn(&cache);
    let mut routers: Vec<_> = (0..64).map(|_| connect(&listener)).collect();
    assert_eq!(listener.session_count(), 64);
    assert_eq!(cache.waker_count(), 1, "one loop, one waker, 64 sessions");

    for serial in 2..=3u32 {
        cache.update(many_vrps(serial));
        for (router, ctrl) in &mut routers {
            ctrl.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            assert_eq!(router.poll_notify().unwrap(), Some(serial));
        }
        // Exactly one: nothing else is on the wire afterwards.
        for (router, ctrl) in &mut routers {
            ctrl.set_read_timeout(Some(Duration::from_millis(2)))
                .unwrap();
            assert_eq!(router.poll_notify().unwrap(), None);
        }
        // A router that does not sync is not nagged; one that does is
        // told about the next advance again. Alternate.
        for (router, ctrl) in routers.iter_mut().step_by(2) {
            ctrl.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            router.sync().unwrap();
            assert_eq!(router.state().unwrap().1, serial);
        }
    }
}

#[test]
fn garbage_gets_an_error_report_and_only_that_session_closes() {
    let cache = Arc::new(CacheServer::new(9));
    cache.update([vrp("10.0.0.0/24", 1)]);
    let listener = spawn(&cache);
    let (mut bystander, _ctrl) = connect(&listener);

    let mut raw = TcpStream::connect(listener.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(&[0xff; 16]).unwrap();
    let pdus = read_pdus_to_close(&mut raw);
    assert!(
        matches!(
            pdus.as_slice(),
            [Pdu::ErrorReport {
                code: ErrorCode::CorruptData,
                ..
            }]
        ),
        "{pdus:?}"
    );

    // The loop is unharmed: the old session and a new one both work.
    cache.update([vrp("10.0.1.0/24", 2)]);
    assert_eq!(bystander.poll_notify().unwrap(), Some(2));
    let (fresh, _ctrl) = connect(&listener);
    assert_eq!(fresh.state().unwrap().1, 2);
}

#[test]
fn a_peer_that_never_reads_delays_nobody_and_is_dropped_at_the_stall_bound() {
    let cache = Arc::new(CacheServer::new(10));
    cache.update(many_vrps(100_000));
    let listener = spawn(&cache);
    let (mut router, _ctrl) = connect(&listener);

    // Sixteen 2 MB Reset responses owed to a peer that reads nothing:
    // far more than the socket buffers absorb, so its queue stalls.
    let mut stalled = TcpStream::connect(listener.addr()).unwrap();
    for _ in 0..16 {
        stalled.write_all(&Pdu::ResetQuery.encode()).unwrap();
    }
    wait_until("the stalled session never showed up", || {
        listener.session_count() == 2
    });
    std::thread::sleep(Duration::from_millis(200)); // let its buffers fill

    // The healthy router's notify is not behind the stalled peer's 32 MB.
    // (The clock starts at the advance, not at building its input.)
    let next = many_vrps(100_001);
    let advanced = Instant::now();
    cache.update(next);
    assert_eq!(router.poll_notify().unwrap(), Some(2));
    assert!(
        advanced.elapsed() < Duration::from_millis(250),
        "notify took {:?} beside a stalled peer",
        advanced.elapsed()
    );
    router.sync().unwrap();
    assert_eq!(router.vrps().len(), 100_001);

    // The stalled peer alone is dropped (the machine's stall bound is
    // pinned with injected time in the listener's unit tests) — with a
    // 30 s idle poll, so the loop must have armed that deadline itself.
    wait_until("stalled peer never dropped", || {
        listener.session_count() == 1
    });
    cache.update(many_vrps(100_002));
    assert_eq!(router.poll_notify().unwrap(), Some(3));
}

#[test]
fn disconnected_sessions_and_stopped_loops_leave_nothing_behind() {
    let cache = Arc::new(CacheServer::new(11));
    cache.update([vrp("10.0.0.0/24", 1)]);
    let mut listener = spawn(&cache);
    let routers: Vec<_> = (0..8).map(|_| connect(&listener)).collect();
    assert_eq!(listener.session_count(), 8);
    drop(routers);
    wait_until("sessions outlived their routers", || {
        listener.session_count() == 0
    });
    // The registry holds the loop's waker, not one per session, and
    // lets go of it on the first advance after the loop is gone.
    assert_eq!(cache.waker_count(), 1);
    listener.shutdown();
    cache.update([vrp("10.0.1.0/24", 2)]);
    assert_eq!(cache.waker_count(), 0);
}

#[test]
fn watermark_refuses_extra_sessions_but_keeps_serving() {
    let cache = Arc::new(CacheServer::new(13));
    cache.update([vrp("192.0.2.0/24", 65000)]);
    let config = ListenerConfig {
        max_sessions: 1,
        ..ListenerConfig::default()
    };
    let bound = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut listener = RtrListener::spawn(bound, Arc::clone(&cache), config).unwrap();
    // The first session occupies the single slot.
    let (mut router, _ctrl) = connect(&listener);
    assert_eq!(router.vrps().len(), 1);
    // While it is held open, a second connection is refused: its socket
    // closes (or resets) without a single RTR PDU arriving.
    let mut second = TcpStream::connect(listener.addr()).unwrap();
    second
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    match second.read(&mut [0u8; 1]) {
        Ok(n) => assert_eq!(n, 0, "refused session received data"),
        // A reset also counts; a timeout means no refusal.
        Err(e) => assert!(!matches!(e.kind(), WouldBlock | TimedOut), "{e}"),
    }
    assert!(listener.refused_count() >= 1);
    // The original session still works after the refusal.
    let SyncOutcome::Updated { serial, .. } = router.sync().unwrap();
    assert_eq!(serial, 1);
    drop(router);
    listener.shutdown();
}

#[test]
fn shutdown_returns_promptly_without_a_wakeup_connection() {
    let cache = Arc::new(CacheServer::new(14));
    cache.update([vrp("192.0.2.0/24", 65000)]);
    // An idle poll of 30 s: only the wake socket can make this fast.
    let mut listener = spawn(&cache);
    let started = Instant::now();
    listener.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shutdown must not wait for a connection or a poll timeout"
    );
}

/// A transport that delivers its script in one read and counts how
/// often it is asked; once drained it reports a read timeout.
struct Scripted {
    script: Vec<u8>,
    reads: Arc<AtomicUsize>,
}

impl Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads.fetch_add(1, Ordering::SeqCst);
        if self.script.is_empty() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        let n = self.script.len().min(buf.len());
        buf[..n].copy_from_slice(&self.script[..n]);
        self.script.drain(..n);
        Ok(n)
    }
}

impl Write for Scripted {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn poll_notify_returns_the_newest_buffered_notify_after_one_read() {
    // Two notifies back to back, then half a PDU: the call must return
    // the newer serial from what the first read delivered, and must not
    // go back to the transport for the rest.
    let mut script = Vec::new();
    for serial in [4, 5] {
        script.extend(
            Pdu::SerialNotify {
                session_id: 1,
                serial,
            }
            .encode(),
        );
    }
    script.extend_from_slice(&[0, 0, 0]);
    let reads = Arc::new(AtomicUsize::new(0));
    let mut router = Client::new(Scripted {
        script,
        reads: Arc::clone(&reads),
    });
    assert_eq!(router.poll_notify().unwrap(), Some(5));
    assert_eq!(reads.load(Ordering::SeqCst), 1);
    assert_eq!(router.notified_serial(), Some(5));
    // A quiet transport is "nothing pending" — decided by the error's
    // kind, whatever its text says.
    assert_eq!(router.poll_notify().unwrap(), None);
}
