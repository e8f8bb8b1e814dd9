//! Hostile bytes against the response decoder, the client-side twin of
//! `prop_http`: valid and mutated responses, fed whole or split
//! anywhere (the `prop_conn` harness shape), must decode identically,
//! never panic, never hand out a short `Content-Length` body, and never
//! allocate for a declared length before its bytes exist.

use proptest::prelude::*;
use ripki_serve::http::{frame_response, Framing, HttpError, ResponseHead, MAX_HEAD_BYTES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, remembering the largest single request.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter has no effect on the memory.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Relaxed: a monotone high-water mark read after the fact; no
        // other memory is published through it.
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// How the generated head declares its body length.
#[derive(Debug, Clone)]
enum Length {
    Absent,
    Exact,
    /// `+n` or `-n`: digits-only is the rule.
    Signed(bool),
    /// The right length, twice.
    Twice,
    /// Two copies that disagree.
    Conflicting,
    /// A digit string past `usize`.
    PastUsize(usize),
    /// A length in `usize` far beyond the bytes that follow.
    Declared(u64),
}

/// What is done to the well-formed wire image.
#[derive(Debug, Clone)]
enum Mutation {
    None,
    /// Overwrite one byte.
    Flip(prop::sample::Index, u8),
    /// Cut the message short at some point.
    Truncate(prop::sample::Index),
    /// Pad the head past the cap with one long field.
    GrowHead,
    /// Not generated from a response at all: random bytes.
    Raw,
}

#[derive(Debug, Clone)]
struct Case {
    wire: Vec<u8>,
    status: u16,
    length: Length,
    coding: Option<&'static str>,
    mutation: Mutation,
}

fn re(pattern: &str) -> proptest::string::RegexStrategy {
    proptest::string::string_regex(pattern).expect("supported pattern")
}

fn arb_length() -> impl Strategy<Value = Length> {
    prop_oneof![
        Just(Length::Absent),
        Just(Length::Exact),
        Just(Length::Exact),
        any::<bool>().prop_map(Length::Signed),
        Just(Length::Twice),
        Just(Length::Conflicting),
        (20usize..40).prop_map(Length::PastUsize),
        ((1u64 << 32)..u64::MAX >> 2).prop_map(Length::Declared),
    ]
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        Just(Mutation::None),
        Just(Mutation::None),
        (any::<prop::sample::Index>(), any::<u8>()).prop_map(|(i, b)| Mutation::Flip(i, b)),
        any::<prop::sample::Index>().prop_map(Mutation::Truncate),
        Just(Mutation::GrowHead),
    ]
}

fn arb_case() -> impl Strategy<Value = Case> {
    let generated = (
        prop_oneof![
            Just(100u16),
            Just(200),
            Just(204),
            Just(304),
            Just(404),
            Just(503),
            100u16..1000
        ],
        proptest::collection::vec((re("[a-zA-Z-]{1,12}"), re("[ -~]{0,24}")), 0..4),
        arb_length(),
        prop_oneof![
            Just(None),
            Just(None),
            Just(Some("chunked")),
            Just(Some("identity")),
            Just(Some("gzip")),
        ],
        proptest::collection::vec(any::<u8>(), 0..64),
        arb_mutation(),
    )
        .prop_map(|(status, fields, length, coding, body, mutation)| {
            let mut head = format!("HTTP/1.1 {status} Reason\r\n");
            for (name, value) in fields {
                head.push_str(&format!("{name}: {value}\r\n"));
            }
            let n = body.len();
            let lengths = match &length {
                Length::Absent => vec![],
                Length::Exact => vec![n.to_string()],
                Length::Signed(plus) => vec![format!("{}{n}", if *plus { '+' } else { '-' })],
                Length::Twice => vec![n.to_string(), n.to_string()],
                Length::Conflicting => vec![n.to_string(), (n + 1).to_string()],
                Length::PastUsize(digits) => vec!["9".repeat(*digits)],
                Length::Declared(declared) => vec![declared.to_string()],
            };
            for value in lengths {
                head.push_str(&format!("content-length: {value}\r\n"));
            }
            if let Some(coding) = coding {
                head.push_str(&format!("transfer-encoding: {coding}\r\n"));
            }
            if matches!(mutation, Mutation::GrowHead) {
                head.push_str(&format!("x-pad: {}\r\n", "p".repeat(MAX_HEAD_BYTES)));
            }
            head.push_str("\r\n");
            let mut wire = head.into_bytes();
            wire.extend_from_slice(&body);
            match &mutation {
                Mutation::Flip(at, byte) => {
                    let at = at.index(wire.len());
                    wire[at] = *byte;
                }
                Mutation::Truncate(at) => wire.truncate(at.index(wire.len())),
                Mutation::None | Mutation::GrowHead | Mutation::Raw => {}
            }
            Case {
                wire,
                status,
                length,
                coding,
                mutation,
            }
        });
    let raw = proptest::collection::vec(any::<u8>(), 0..512).prop_map(|wire| Case {
        wire,
        status: 0,
        length: Length::Absent,
        coding: None,
        mutation: Mutation::Raw,
    });
    prop_oneof![generated, raw]
}

type Framed = Result<(ResponseHead, Range<usize>), HttpError>;

/// Decode the whole buffer at once, as after the peer closed.
fn one_shot(wire: &[u8]) -> Framed {
    match frame_response(wire, true) {
        Ok(Some(framed)) => Ok(framed),
        Ok(None) => panic!("the decoder asked for more bytes after EOF"),
        Err(e) => Err(e),
    }
}

/// Feed `wire` the way a socket reader does: the buffer grows at each
/// cut, the decoder is asked after every read, and EOF is reported
/// only once every byte has arrived.
fn split_anywhere(wire: &[u8], boundaries: &[usize]) -> Framed {
    let mut cuts: Vec<usize> = boundaries.iter().map(|b| b % (wire.len() + 1)).collect();
    cuts.sort_unstable();
    for cut in cuts {
        match frame_response(&wire[..cut], false) {
            Ok(None) => {}
            Ok(Some(framed)) => return Ok(framed),
            Err(e) => return Err(e),
        }
    }
    one_shot(wire)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn hostile_responses_decode_the_same_however_they_arrive(
        case in arb_case(),
        boundaries in proptest::collection::vec(any::<usize>(), 0..12),
        cut in any::<prop::sample::Index>(),
    ) {
        let wire = &case.wire;
        let whole = one_shot(wire);
        prop_assert_eq!(&split_anywhere(wire, &boundaries), &whole);

        if let Ok((head, body)) = &whole {
            prop_assert!(body.end <= wire.len());
            match head.framing {
                Framing::Length(n) => {
                    prop_assert_eq!(body.len(), n, "a Length body is exactly n bytes");
                    // Every strict prefix of a framed message is
                    // "more bytes, please" — and at EOF an error, never
                    // a shorter message.
                    let cut = cut.index(body.end);
                    prop_assert_eq!(frame_response(&wire[..cut], false), Ok(None));
                    prop_assert!(frame_response(&wire[..cut], true).is_err());
                }
                Framing::UntilClose => prop_assert_eq!(body.end, wire.len()),
                Framing::NoBody => prop_assert!(body.is_empty()),
            }
        }

        if matches!(case.mutation, Mutation::None) {
            let chunked = case.coding.is_some_and(|c| c != "identity");
            match (&case.length, &whole) {
                _ if chunked => {
                    let refused = whole.as_ref().err();
                    prop_assert_eq!(refused, Some(&HttpError::UnsupportedTransferEncoding));
                }
                (Length::Signed(_) | Length::Conflicting, Err(HttpError::Malformed(_))) => {}
                (Length::PastUsize(_), Err(HttpError::BodyTooLarge)) => {}
                (Length::Declared(_), Ok((head, _))) => {
                    prop_assert_eq!(head.framing, Framing::NoBody, "only a bodiless status");
                }
                (Length::Declared(_), Err(HttpError::Truncated)) => {}
                (Length::Absent | Length::Exact | Length::Twice, Ok(_)) => {}
                (length, outcome) => {
                    prop_assert!(false, "{:?} decoded to {:?}", length, outcome);
                }
            }
            if let Ok((head, _)) = &whole {
                let status = case.status;
                let bodiless = (100..200).contains(&status) || status == 204 || status == 304;
                prop_assert_eq!(head.status, status);
                prop_assert_eq!(head.framing == Framing::NoBody, bodiless, "status {}", status);
            }
        }
        if let Length::Declared(declared) = case.length {
            // Relaxed: one atomic, and the decoding bounded here ran on
            // this thread, so program order makes its allocations visible.
            let largest = LARGEST.load(Ordering::Relaxed) as u64;
            prop_assert!(largest < declared, "allocated {} for a declared {}", largest, declared);
        }
        if matches!(case.mutation, Mutation::GrowHead) {
            prop_assert_eq!(whole.as_ref().err(), Some(&HttpError::HeadTooLarge));
        }
    }
}
