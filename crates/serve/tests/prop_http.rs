//! Fuzzing the HTTP request parser: arbitrary and mutated input must
//! never panic, truncation must ask for more bytes (never mis-parse),
//! and whatever garbage a live connection sends, the server answers
//! with a well-formed error response.

use proptest::prelude::*;
use ripki_serve::http::{parse_head, HttpError, MAX_HEAD_BYTES};
use ripki_serve_testutil::{parse_response, serve_scenario};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A generator biased toward almost-HTTP: either raw bytes or a valid
/// request head with a random mutation applied.
fn re(pattern: &str) -> proptest::string::RegexStrategy {
    proptest::string::string_regex(pattern).expect("supported pattern")
}

fn arb_input() -> impl Strategy<Value = Vec<u8>> {
    let raw = proptest::collection::vec(any::<u8>(), 0..512);
    let mutated = (
        re("[a-zA-Z]{1,8}"),
        re("[ -~]{0,64}"),
        proptest::collection::vec((re("[a-zA-Z-]{1,16}"), re("[ -~]{0,32}")), 0..4),
        any::<u16>(),
        any::<u8>(),
    )
        .prop_map(|(method, target, headers, mutate_at, mutate_to)| {
            let mut text = format!("{method} /{target} HTTP/1.1\r\n");
            for (name, value) in headers {
                text.push_str(&format!("{name}: {value}\r\n"));
            }
            text.push_str("\r\n");
            let mut bytes = text.into_bytes();
            let i = mutate_at as usize % bytes.len().max(1);
            if i < bytes.len() {
                bytes[i] = mutate_to;
            }
            bytes
        });
    prop_oneof![raw, mutated]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever the bytes, `parse_head` returns — it never panics, and
    /// a successful parse consumed no more than the buffer.
    #[test]
    fn parser_never_panics(input in arb_input()) {
        match parse_head(&input) {
            Ok(Some((request, consumed))) => {
                prop_assert!(consumed <= input.len());
                prop_assert!(request.path.starts_with('/'));
            }
            Ok(None) => prop_assert!(input.len() < MAX_HEAD_BYTES),
            Err(e) => prop_assert!(matches!(
                e.status(),
                400 | 414 | 431 | 505
            )),
        }
    }

    /// Every strict prefix of a request that parses must either ask for
    /// more bytes or fail — never yield a (different) complete parse
    /// from fewer bytes than the full head.
    #[test]
    fn truncation_is_never_a_complete_parse(
        target in re("[a-z0-9/._-]{0,40}"),
        cut in any::<prop::sample::Index>(),
    ) {
        let text = format!("GET /{target} HTTP/1.1\r\nhost: x\r\n\r\n");
        let bytes = text.as_bytes();
        let (_, full_len) = parse_head(bytes)
            .expect("well-formed")
            .expect("complete");
        prop_assert_eq!(full_len, bytes.len());
        let cut = cut.index(bytes.len() - 1); // strictly shorter
        match parse_head(&bytes[..cut]) {
            Ok(None) => {}
            Ok(Some(_)) => prop_assert!(false, "complete parse from a strict prefix"),
            // A cut can land inside a percent escape etc.; errors are
            // acceptable, silent mis-parses are not.
            Err(_) => {}
        }
    }
}

/// Deterministic end-to-end check: garbage over a real socket gets a
/// parseable HTTP error response, and the connection closes.
#[test]
fn live_server_answers_garbage_with_well_formed_errors() {
    let fx = serve_scenario(100, 29);
    let addr = fx.server.addr();
    let cases: [&[u8]; 6] = [
        b"\x00\x01\x02\x03\r\n\r\n",
        b"GET\r\n\r\n",
        b"GET / HTTP/9.9\r\n\r\n",
        b"FROB / HTTP/1.1\r\nbad header line\r\n\r\n",
        b"GET /%zz HTTP/1.1\r\n\r\n",
        b"POST /api/v1/validity HTTP/1.1\r\ncontent-length: 4\r\n\r\nably",
    ];
    for case in cases {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(case).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let reply = parse_response(&raw);
        assert!(
            matches!(reply.status, 400 | 405 | 505),
            "{case:?} -> {}",
            reply.status
        );
        assert!(raw.contains("content-length:"), "{raw}");
        assert!(reply.body.contains("error"), "{raw}");
    }

    // An oversized head is cut off with 431 without buffering it all.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let huge = vec![b'a'; MAX_HEAD_BYTES + 1024];
    // The server may close mid-write; ignore the write error and read
    // whatever response made it out.
    let _ = stream.write_all(b"GET / HTTP/1.1\r\nx: ");
    let _ = stream.write_all(&huge);
    let _ = stream.write_all(b"\r\n\r\n");
    let mut raw = String::new();
    let _ = stream.read_to_string(&mut raw);
    assert!(raw.starts_with("HTTP/1.1 431"), "{raw:.60}");
}

/// The parser error → status mapping is total and stable.
#[test]
fn error_statuses_are_canonical() {
    assert_eq!(HttpError::Malformed("x").status(), 400);
    assert_eq!(HttpError::TargetTooLong.status(), 414);
    assert_eq!(HttpError::HeadTooLarge.status(), 431);
    assert_eq!(HttpError::BadVersion.status(), 505);
}
