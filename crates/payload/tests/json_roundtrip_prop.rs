//! Property: any payload survives `write_vrps_json` → `parse_vrps_json`
//! byte-loss-free, and the parser rejects duplicate/overlapping-serial
//! garbage with a named error instead of quietly repairing it.

use proptest::prelude::*;
use ripki_bgp::rov::VrpTriple;
use ripki_net::{Asn, IpPrefix};
use ripki_payload::json::{parse_vrps_json, write_vrps_json, ParseError};
use ripki_payload::VrpPayload;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// An arbitrary VRP: IPv4 or IPv6, any legal length, maxLength anywhere
/// in `[len, family bits]`. `IpPrefix::new` canonicalises host bits, so
/// every generated prefix is on the wire exactly as constructed.
fn arb_vrp() -> impl Strategy<Value = VrpTriple> {
    let v4 = (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| {
        (
            IpPrefix::new(IpAddr::V4(Ipv4Addr::from(addr)), len).expect("len <= 32"),
            32u8,
        )
    });
    let v6 = (any::<u128>(), 0u8..=128).prop_map(|(addr, len)| {
        (
            IpPrefix::new(IpAddr::V6(Ipv6Addr::from(addr)), len).expect("len <= 128"),
            128u8,
        )
    });
    (prop_oneof![v4, v6], any::<u32>(), any::<u8>()).prop_map(|((prefix, bits), asn, slack)| {
        let span = bits - prefix.len();
        let max_length = if span == 0 {
            prefix.len()
        } else {
            prefix.len() + slack % (span + 1)
        };
        VrpTriple {
            prefix,
            max_length,
            asn: Asn::new(asn),
        }
    })
}

fn arb_payload() -> impl Strategy<Value = VrpPayload> {
    (any::<u64>(), proptest::collection::vec(arb_vrp(), 0..40))
        .prop_map(|(epoch, vrps)| VrpPayload::new(epoch, vrps))
}

proptest! {
    #[test]
    fn json_round_trip_is_byte_loss_free(payload in arb_payload()) {
        let mut bytes = Vec::new();
        write_vrps_json(&payload, None, &mut bytes).expect("write to Vec");
        let text = String::from_utf8(bytes.clone()).expect("writer emits UTF-8");
        let parsed = parse_vrps_json(&text).expect("own output parses");
        prop_assert_eq!(&parsed, &payload, "parse(write(p)) == p");
        let mut again = Vec::new();
        write_vrps_json(&parsed, None, &mut again).expect("write to Vec");
        prop_assert_eq!(again, bytes, "write is a fixed point after one trip");
    }

    #[test]
    fn a_duplicated_record_is_rejected_by_name(
        epoch in any::<u64>(),
        vrps in proptest::collection::vec(arb_vrp(), 1..40),
        pick in any::<proptest::sample::Index>(),
    ) {
        let payload = VrpPayload::new(epoch, vrps);
        let vrps = payload.vrps();
        let dup = vrps
            .iter()
            .nth(pick.index(vrps.len()))
            .copied()
            .expect("index in range");
        let mut bytes = Vec::new();
        write_vrps_json(&payload, None, &mut bytes).expect("write to Vec");
        let text = String::from_utf8(bytes).expect("writer emits UTF-8");
        // Splice the duplicate record in front of the roas array.
        let record = format!(
            "{{\"asn\":\"{}\",\"prefix\":\"{}\",\"maxLength\":{},\"ta\":\"sim\"}},",
            dup.asn, dup.prefix, dup.max_length
        );
        let garbled = text.replacen("\"roas\":[", &format!("\"roas\":[{record}"), 1);
        match parse_vrps_json(&garbled) {
            Err(ParseError::DuplicateVrp { .. }) => {}
            other => prop_assert!(false, "expected DuplicateVrp, got {:?}", other),
        }
    }

    #[test]
    fn an_overlapping_serial_claim_is_rejected_by_name(
        payload in arb_payload(),
        raw_serial in any::<u64>(),
    ) {
        let serial = if raw_serial == payload.epoch() {
            raw_serial.wrapping_add(1)
        } else {
            raw_serial
        };
        let mut bytes = Vec::new();
        write_vrps_json(&payload, None, &mut bytes).expect("write to Vec");
        let text = String::from_utf8(bytes).expect("writer emits UTF-8");
        let garbled = text.replacen(
            "\"metadata\":{",
            &format!("\"metadata\":{{\"serial\":{serial},"),
            1,
        );
        prop_assert_eq!(
            parse_vrps_json(&garbled),
            Err(ParseError::ConflictingSerial { epoch: payload.epoch(), serial })
        );
        // An agreeing serial is redundant, not garbage.
        let agreeing = text.replacen(
            "\"metadata\":{",
            &format!("\"metadata\":{{\"serial\":{},", payload.epoch()),
            1,
        );
        prop_assert_eq!(parse_vrps_json(&agreeing), Ok(payload));
    }
}

/// The fabric's working size, deterministically: 100 000 VRPs survive
/// the round trip. No timing assertion — the point is that it finishes
/// (the parser used to be quadratic in the document: minutes here).
#[test]
fn a_100_000_vrp_document_round_trips() {
    let vrps = (0..100_000u32).map(|i| {
        let prefix = if i.is_multiple_of(4) {
            IpPrefix::new(
                IpAddr::V6(Ipv6Addr::from(u128::from(i) << 80 | 0x2001 << 112)),
                48,
            )
        } else {
            IpPrefix::new(IpAddr::V4(Ipv4Addr::from(i << 8)), 24)
        }
        .expect("length within the family");
        VrpTriple {
            prefix,
            max_length: prefix.len() + (i % 3) as u8,
            asn: Asn::new(64_500 + i % 5_000),
        }
    });
    let payload = VrpPayload::new(7, vrps);
    assert_eq!(payload.len(), 100_000);
    let mut bytes = Vec::new();
    write_vrps_json(&payload, Some(3), &mut bytes).expect("write to Vec");
    let text = String::from_utf8(bytes).expect("writer emits UTF-8");
    let parsed = parse_vrps_json(&text).expect("own output parses");
    assert_eq!(parsed, payload);
    assert_eq!(parsed.digest(), payload.digest());
}
