//! Property tests for the RTR wire format and cache/client convergence.

use proptest::prelude::*;
use ripki_bgp::rov::VrpTriple;
use ripki_net::{Asn, IpPrefix, Ipv4Prefix};
use ripki_rtr::pdu::{ErrorCode, Pdu};
use ripki_rtr::CacheServer;
use std::net::Ipv4Addr;

fn arb_pdu() -> impl Strategy<Value = Pdu> {
    prop_oneof![
        (any::<u16>(), any::<u32>()).prop_map(|(s, n)| Pdu::SerialNotify {
            session_id: s,
            serial: n
        }),
        (any::<u16>(), any::<u32>()).prop_map(|(s, n)| Pdu::SerialQuery {
            session_id: s,
            serial: n
        }),
        Just(Pdu::ResetQuery),
        any::<u16>().prop_map(|s| Pdu::CacheResponse { session_id: s }),
        (
            any::<bool>(),
            0u8..=32,
            0u8..=32,
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(a, pl, ml, pfx, asn)| Pdu::Ipv4Prefix {
                announce: a,
                prefix_len: pl,
                max_len: ml,
                prefix: Ipv4Addr::from(pfx),
                asn: Asn::new(asn),
            }),
        (
            any::<bool>(),
            0u8..=128,
            0u8..=128,
            any::<u128>(),
            any::<u32>()
        )
            .prop_map(|(a, pl, ml, pfx, asn)| Pdu::Ipv6Prefix {
                announce: a,
                prefix_len: pl,
                max_len: ml,
                prefix: std::net::Ipv6Addr::from(pfx),
                asn: Asn::new(asn),
            }),
        (any::<u16>(), any::<u32>()).prop_map(|(s, n)| Pdu::EndOfData {
            session_id: s,
            serial: n
        }),
        Just(Pdu::CacheReset),
        (
            0u16..8,
            prop::collection::vec(any::<u8>(), 0..64),
            proptest::string::string_regex("[ -~]{0,40}").unwrap()
        )
            .prop_map(|(c, pdu, text)| Pdu::ErrorReport {
                code: ErrorCode::from_code(c).unwrap(),
                erroneous_pdu: pdu,
                text,
            }),
    ]
}

proptest! {
    /// Every PDU round-trips exactly, and consumes exactly its length.
    #[test]
    fn pdu_roundtrip(pdu in arb_pdu()) {
        let bytes = pdu.encode();
        let (back, used) = Pdu::decode(&bytes).unwrap().unwrap();
        prop_assert_eq!(back, pdu);
        prop_assert_eq!(used, bytes.len());
        // Length header matches reality.
        let declared = u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        prop_assert_eq!(declared as usize, bytes.len());
    }

    /// Decoding arbitrary bytes never panics — it returns Ok(None),
    /// Ok(Some), or a typed error.
    #[test]
    fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = Pdu::decode(&bytes);
    }

    /// Two PDUs back to back decode independently of chunking.
    #[test]
    fn stream_reassembly(a in arb_pdu(), b in arb_pdu(), split in any::<usize>()) {
        let mut wire = a.encode();
        wire.extend(b.encode());
        let cut = split % (wire.len() + 1);
        // Feed in two chunks through the incremental decoder manually.
        let mut buf: Vec<u8> = wire[..cut].to_vec();
        let mut seen = Vec::new();
        loop {
            match Pdu::decode(&buf).unwrap() {
                Some((pdu, used)) => {
                    buf.drain(..used);
                    seen.push(pdu);
                    if seen.len() == 2 {
                        break;
                    }
                }
                None => {
                    buf.extend_from_slice(&wire[cut..]);
                    prop_assert!(buf.len() >= wire.len() - cut);
                }
            }
        }
        prop_assert_eq!(seen, vec![a, b]);
    }

    /// Cache + client converge: after any sequence of updates, a client
    /// syncing incrementally holds exactly the cache's current set.
    #[test]
    fn cache_client_convergence(
        updates in prop::collection::vec(
            prop::collection::btree_set((any::<u16>(), 1u32..500), 0..12),
            1..6,
        ),
        sync_after in prop::collection::vec(any::<bool>(), 1..6),
    ) {
        use std::os::unix::net::UnixStream;
        use std::sync::Arc;
        let cache = Arc::new(CacheServer::new(1));
        let (a, b) = UnixStream::pair().unwrap();
        let server_cache = cache.clone();
        let handle = std::thread::spawn(move || {
            let _ = server_cache.serve_connection(b);
        });
        let mut client = ripki_rtr::Client::new(a);
        let mut last: std::collections::BTreeSet<VrpTriple> = Default::default();
        for (i, set) in updates.iter().enumerate() {
            let vrps: std::collections::BTreeSet<VrpTriple> = set
                .iter()
                .map(|(slot, asn)| VrpTriple {
                    prefix: IpPrefix::V4(
                        Ipv4Prefix::new(
                            Ipv4Addr::new(10, (*slot >> 8) as u8, (*slot & 0xff) as u8, 0),
                            24,
                        )
                        .unwrap(),
                    ),
                    max_length: 24,
                    asn: Asn::new(*asn),
                })
                .collect();
            cache.update(vrps.clone());
            last = vrps;
            // Sometimes skip syncing to force multi-delta catch-up.
            if *sync_after.get(i % sync_after.len()).unwrap_or(&true) {
                client.sync().unwrap();
                prop_assert_eq!(client.vrps(), &last);
            }
        }
        client.sync().unwrap();
        prop_assert_eq!(client.vrps(), &last);
        drop(client);
        let _ = handle.join();
    }
}

// ---- decoder fuzzing: malformed and truncated wire input ------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A strict prefix of any valid encoding is *incomplete*, never a
    /// parse and never an error — the incremental decoder must keep
    /// asking for bytes until the declared length is buffered.
    #[test]
    fn truncated_pdu_is_incomplete_not_an_error(
        pdu in arb_pdu(),
        cut in any::<prop::sample::Index>(),
    ) {
        let bytes = pdu.encode();
        let cut = cut.index(bytes.len()); // 0..len: strictly shorter
        match Pdu::decode(&bytes[..cut]) {
            Ok(None) => {}
            Ok(Some(_)) => prop_assert!(false, "complete parse from a strict prefix"),
            Err(e) => prop_assert!(false, "truncation errored: {e:?}"),
        }
    }

    /// Single-byte corruption of a valid PDU never panics: the decoder
    /// yields a parse within bounds, asks for more bytes (a corrupted
    /// length field), or returns a typed protocol error.
    #[test]
    fn corrupted_pdu_never_panics(
        pdu in arb_pdu(),
        at in any::<prop::sample::Index>(),
        to in any::<u8>(),
    ) {
        let mut bytes = pdu.encode();
        let i = at.index(bytes.len());
        bytes[i] = to;
        match Pdu::decode(&bytes) {
            Ok(Some((_, used))) => prop_assert!(used <= bytes.len()),
            Ok(None) => {}
            Err(_) => {}
        }
    }

    /// A router speaking garbage gets a clean session teardown: the
    /// cache emits only well-formed PDUs, and when it rejects the
    /// stream it says so with an RTR Error Report — never a panic,
    /// never malformed bytes on the wire.
    #[test]
    fn garbage_session_ends_in_error_report(
        bytes in prop::collection::vec(any::<u8>(), 1..96),
    ) {
        use std::io::{Read, Write};
        use std::os::unix::net::UnixStream;
        let cache = CacheServer::new(9);
        cache.update([VrpTriple {
            prefix: IpPrefix::V4(Ipv4Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 24).unwrap()),
            max_length: 24,
            asn: Asn::new(64500),
        }]);
        let (mut a, b) = UnixStream::pair().unwrap();
        let handle = std::thread::spawn(move || cache.serve_connection(b));
        a.write_all(&bytes).unwrap();
        a.shutdown(std::net::Shutdown::Write).unwrap();
        let mut received = Vec::new();
        a.read_to_end(&mut received).unwrap();
        let outcome = handle.join().expect("serve_connection must not panic");

        // Everything the cache wrote decodes as a PDU sequence.
        let mut rest: &[u8] = &received;
        let mut pdus = Vec::new();
        loop {
            match Pdu::decode(rest) {
                Ok(Some((pdu, used))) => {
                    rest = &rest[used..];
                    pdus.push(pdu);
                }
                Ok(None) => break,
                Err(e) => prop_assert!(false, "cache wrote malformed bytes: {e:?}"),
            }
        }
        prop_assert!(rest.is_empty(), "trailing bytes after the last PDU");
        // A rejected stream is always announced with an Error Report.
        if outcome.is_err() {
            prop_assert!(
                matches!(pdus.last(), Some(Pdu::ErrorReport { .. })),
                "session failed without an Error Report: {pdus:?}"
            );
        }
    }
}
