//! Loom model of RTR serial-number wrap (RFC 1982 / RFC 8210 §5.1).
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (CI's static-analysis
//! lane):
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p ripki-rtr --test loom_serial
//! ```
//!
//! The invariant: when the cache serial wraps `0xFFFF_FFFF -> 0`, a
//! router still holding the pre-wrap serial must be forced through a
//! Cache Reset — it must never receive a delta response across the wrap
//! boundary, because RFC 1982 comparisons are ambiguous there. Routers
//! querying concurrently with the wrapping install may legitimately see
//! either the pre-wrap world (empty delta, serial `MAX`) or the
//! post-wrap reset; what they must never see is a stale delta chain.
//!
//! The vendored `loom` is an offline stand-in (bounded randomized
//! stress, not exhaustive model checking — see `vendor/loom`).
#![cfg(loom)]

use loom::thread;
use ripki_bgp::rov::VrpTriple;
use ripki_net::Asn;
use ripki_rtr::cache::{serial_lt, CacheServer};
use ripki_rtr::pdu::Pdu;
use std::sync::Arc;

fn vrp(third_octet: u8) -> VrpTriple {
    VrpTriple {
        prefix: format!("10.0.{third_octet}.0/24").parse().unwrap(),
        max_length: 24,
        asn: Asn::new(64500),
    }
}

#[test]
fn serial_wrap_forces_cache_reset_not_stale_deltas() {
    loom::model(|| {
        let cache = Arc::new(CacheServer::new(9));
        // Seed the cache at the edge of sequence space with history.
        assert!(cache.install_snapshot(u32::MAX - 1, [vrp(1)]));
        assert!(cache.install_snapshot(u32::MAX, [vrp(1), vrp(2)]));

        // Routers holding the pre-wrap serial query while the wrapping
        // install races with them.
        let routers: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || {
                    let reply = cache.handle_query(&Pdu::SerialQuery {
                        session_id: 9,
                        serial: u32::MAX,
                    });
                    match reply.first() {
                        // Post-wrap: history is gone, restart required.
                        Some(Pdu::CacheReset) => {}
                        // Pre-wrap: router is current; the response must
                        // be the empty delta ending at serial MAX, never
                        // a delta chain crossing the wrap.
                        Some(Pdu::CacheResponse { .. }) => {
                            assert_eq!(
                                reply.last(),
                                Some(&Pdu::EndOfData {
                                    session_id: 9,
                                    serial: u32::MAX,
                                }),
                                "delta response crossed the serial wrap: {reply:?}"
                            );
                        }
                        other => panic!("unexpected head PDU {other:?}"),
                    }
                })
            })
            .collect();

        let writer = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                // Numerically contiguous (MAX -> 0) but across the wrap:
                // must clear history rather than record a delta.
                assert!(cache.install_snapshot(0, [vrp(1), vrp(2), vrp(3)]));
            })
        };

        for router in routers {
            router.join().unwrap();
        }
        writer.join().unwrap();

        // After the wrap settles: serial is 0, and the pre-wrap serial
        // can only resync via Cache Reset.
        assert_eq!(cache.serial(), 0);
        assert!(serial_lt(u32::MAX, 0), "RFC 1982: 0 succeeds MAX");
        let reply = cache.handle_query(&Pdu::SerialQuery {
            session_id: 9,
            serial: u32::MAX,
        });
        assert_eq!(reply, vec![Pdu::CacheReset]);
    });
}
