//! RFC 6810 PDU wire format.
//!
//! Every PDU starts with a common 8-byte header:
//!
//! ```text
//! 0         8        16                31
//! +---------+---------+----------------+
//! | version | pdu type|  session id    |   (session field doubles as
//! +---------+---------+----------------+    error code / zero)
//! |              length                 |   (total, including header)
//! +-------------------------------------+
//! ```
//!
//! Encoding and decoding are exact: unknown versions, unknown types,
//! short buffers, and length mismatches all surface as typed
//! [`PduError`]s — a router must be able to send a precise Error Report.

use bytes::Buf;
use ripki_net::Asn;
use std::fmt;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr};

/// RFC 6810 is protocol version 0.
pub const PROTOCOL_VERSION: u8 = 0;

/// Header size in bytes.
pub const HEADER_LEN: usize = 8;

/// Hard cap on PDU length we will accept (Error Reports carry text and
/// an encapsulated PDU; anything bigger than this is corrupt).
pub const MAX_PDU_LEN: usize = 64 * 1024;

/// RFC 6810 §10 error codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// 0: Corrupt Data.
    CorruptData,
    /// 1: Internal Error.
    InternalError,
    /// 2: No Data Available.
    NoDataAvailable,
    /// 3: Invalid Request.
    InvalidRequest,
    /// 4: Unsupported Protocol Version.
    UnsupportedVersion,
    /// 5: Unsupported PDU Type.
    UnsupportedPduType,
    /// 6: Withdrawal of Unknown Record.
    WithdrawalOfUnknown,
    /// 7: Duplicate Announcement Received.
    DuplicateAnnouncement,
}

impl ErrorCode {
    /// The wire value.
    pub fn code(self) -> u16 {
        match self {
            ErrorCode::CorruptData => 0,
            ErrorCode::InternalError => 1,
            ErrorCode::NoDataAvailable => 2,
            ErrorCode::InvalidRequest => 3,
            ErrorCode::UnsupportedVersion => 4,
            ErrorCode::UnsupportedPduType => 5,
            ErrorCode::WithdrawalOfUnknown => 6,
            ErrorCode::DuplicateAnnouncement => 7,
        }
    }

    /// Parse a wire value.
    pub fn from_code(code: u16) -> Option<ErrorCode> {
        Some(match code {
            0 => ErrorCode::CorruptData,
            1 => ErrorCode::InternalError,
            2 => ErrorCode::NoDataAvailable,
            3 => ErrorCode::InvalidRequest,
            4 => ErrorCode::UnsupportedVersion,
            5 => ErrorCode::UnsupportedPduType,
            6 => ErrorCode::WithdrawalOfUnknown,
            7 => ErrorCode::DuplicateAnnouncement,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::CorruptData => "corrupt data",
            ErrorCode::InternalError => "internal error",
            ErrorCode::NoDataAvailable => "no data available",
            ErrorCode::InvalidRequest => "invalid request",
            ErrorCode::UnsupportedVersion => "unsupported protocol version",
            ErrorCode::UnsupportedPduType => "unsupported PDU type",
            ErrorCode::WithdrawalOfUnknown => "withdrawal of unknown record",
            ErrorCode::DuplicateAnnouncement => "duplicate announcement received",
        };
        f.write_str(s)
    }
}

/// A parsed PDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pdu {
    /// Type 0: the cache tells the router new data exists.
    SerialNotify {
        /// Cache session.
        session_id: u16,
        /// Latest serial at the cache.
        serial: u32,
    },
    /// Type 1: the router asks for deltas since `serial`.
    SerialQuery {
        /// Session the serial belongs to.
        session_id: u16,
        /// Last serial the router holds.
        serial: u32,
    },
    /// Type 2: the router asks for everything.
    ResetQuery,
    /// Type 3: the cache starts answering a query.
    CacheResponse {
        /// Cache session.
        session_id: u16,
    },
    /// Type 4: one IPv4 VRP record.
    Ipv4Prefix {
        /// `true` = announce, `false` = withdraw.
        announce: bool,
        /// Prefix length.
        prefix_len: u8,
        /// Max length.
        max_len: u8,
        /// The prefix bits.
        prefix: Ipv4Addr,
        /// Origin AS.
        asn: Asn,
    },
    /// Type 6: one IPv6 VRP record.
    Ipv6Prefix {
        /// `true` = announce, `false` = withdraw.
        announce: bool,
        /// Prefix length.
        prefix_len: u8,
        /// Max length.
        max_len: u8,
        /// The prefix bits.
        prefix: Ipv6Addr,
        /// Origin AS.
        asn: Asn,
    },
    /// Type 7: the cache finished answering; `serial` is now current.
    EndOfData {
        /// Cache session.
        session_id: u16,
        /// Serial the router should store.
        serial: u32,
    },
    /// Type 8: the cache cannot serve deltas; router must Reset Query.
    CacheReset,
    /// Type 10: something went wrong.
    ErrorReport {
        /// What went wrong.
        code: ErrorCode,
        /// The PDU that caused it, verbatim (may be empty).
        erroneous_pdu: Vec<u8>,
        /// Diagnostic text (may be empty).
        text: String,
    },
}

/// Decoding / framing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PduError {
    /// Fewer bytes than a header.
    Truncated,
    /// Version byte other than 0.
    BadVersion(u8),
    /// Unknown PDU type byte.
    UnknownType(u8),
    /// Header length field disagrees with the type's required size or
    /// exceeds [`MAX_PDU_LEN`].
    BadLength {
        /// Type byte of the offending PDU.
        pdu_type: u8,
        /// The length the header claimed.
        length: u32,
    },
    /// Reserved fields had non-zero content or enum fields were invalid.
    Malformed(&'static str),
    /// I/O failure underneath: the `io::Error`'s kind (what callers
    /// branch on) and its text (what operators read).
    Io {
        /// The failure class, as the transport reported it.
        kind: io::ErrorKind,
        /// The `io::Error`'s display text.
        message: String,
    },
}

impl PduError {
    /// Did the transport merely have nothing to read yet — a read
    /// timeout or a non-blocking socket with an empty queue — as
    /// opposed to failing? Decided on the `io::ErrorKind`, never on the
    /// wording of the platform's error text.
    pub fn is_idle(&self) -> bool {
        matches!(
            self,
            PduError::Io {
                kind: io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut,
                ..
            }
        )
    }
}

impl From<io::Error> for PduError {
    fn from(e: io::Error) -> PduError {
        PduError::Io {
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

impl fmt::Display for PduError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PduError::Truncated => write!(f, "truncated PDU"),
            PduError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            PduError::UnknownType(t) => write!(f, "unknown PDU type {t}"),
            PduError::BadLength { pdu_type, length } => {
                write!(f, "bad length {length} for PDU type {pdu_type}")
            }
            PduError::Malformed(what) => write!(f, "malformed PDU: {what}"),
            PduError::Io { message, .. } => write!(f, "transport error: {message}"),
        }
    }
}

impl std::error::Error for PduError {}

impl Pdu {
    /// The wire type byte.
    pub fn type_byte(&self) -> u8 {
        match self {
            Pdu::SerialNotify { .. } => 0,
            Pdu::SerialQuery { .. } => 1,
            Pdu::ResetQuery => 2,
            Pdu::CacheResponse { .. } => 3,
            Pdu::Ipv4Prefix { .. } => 4,
            Pdu::Ipv6Prefix { .. } => 6,
            Pdu::EndOfData { .. } => 7,
            Pdu::CacheReset => 8,
            Pdu::ErrorReport { .. } => 10,
        }
    }

    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the wire bytes to `out` — the allocation-free form the
    /// serving side uses to build a whole response as one buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let (session, body_len) = match self {
            Pdu::SerialNotify { session_id, .. }
            | Pdu::SerialQuery { session_id, .. }
            | Pdu::EndOfData { session_id, .. } => (*session_id, 4),
            Pdu::CacheResponse { session_id } => (*session_id, 0),
            Pdu::ResetQuery | Pdu::CacheReset => (0, 0),
            Pdu::Ipv4Prefix { .. } => (0, 12),
            Pdu::Ipv6Prefix { .. } => (0, 24),
            Pdu::ErrorReport {
                code,
                erroneous_pdu,
                text,
            } => (code.code(), 8 + erroneous_pdu.len() + text.len()),
        };
        out.reserve(HEADER_LEN + body_len);
        out.push(PROTOCOL_VERSION);
        out.push(self.type_byte());
        out.extend_from_slice(&session.to_be_bytes());
        out.extend_from_slice(&((HEADER_LEN + body_len) as u32).to_be_bytes());
        match self {
            Pdu::SerialNotify { serial, .. }
            | Pdu::SerialQuery { serial, .. }
            | Pdu::EndOfData { serial, .. } => out.extend_from_slice(&serial.to_be_bytes()),
            Pdu::ResetQuery | Pdu::CacheReset | Pdu::CacheResponse { .. } => {}
            Pdu::Ipv4Prefix {
                announce,
                prefix_len,
                max_len,
                prefix,
                asn,
            } => {
                out.extend_from_slice(&[*announce as u8, *prefix_len, *max_len, 0]);
                out.extend_from_slice(&prefix.octets());
                out.extend_from_slice(&asn.value().to_be_bytes());
            }
            Pdu::Ipv6Prefix {
                announce,
                prefix_len,
                max_len,
                prefix,
                asn,
            } => {
                out.extend_from_slice(&[*announce as u8, *prefix_len, *max_len, 0]);
                out.extend_from_slice(&prefix.octets());
                out.extend_from_slice(&asn.value().to_be_bytes());
            }
            Pdu::ErrorReport {
                erroneous_pdu,
                text,
                ..
            } => {
                out.extend_from_slice(&(erroneous_pdu.len() as u32).to_be_bytes());
                out.extend_from_slice(erroneous_pdu);
                out.extend_from_slice(&(text.len() as u32).to_be_bytes());
                out.extend_from_slice(text.as_bytes());
            }
        }
    }

    /// Decode one PDU from the front of `buf`. Returns the PDU and the
    /// number of bytes consumed, or `Ok(None)` if more bytes are needed.
    pub fn decode(buf: &[u8]) -> Result<Option<(Pdu, usize)>, PduError> {
        // The slice pattern both proves the bounds and names the whole
        // fixed header at once — no indexing, no panic path.
        let &[version, pdu_type, s0, s1, l0, l1, l2, l3, ..] = buf else {
            return Ok(None);
        };
        if version != PROTOCOL_VERSION {
            return Err(PduError::BadVersion(version));
        }
        let session = u16::from_be_bytes([s0, s1]);
        let length = u32::from_be_bytes([l0, l1, l2, l3]);
        if (length as usize) < HEADER_LEN || length as usize > MAX_PDU_LEN {
            return Err(PduError::BadLength { pdu_type, length });
        }
        if buf.len() < length as usize {
            return Ok(None);
        }
        let Some(mut body) = buf.get(HEADER_LEN..length as usize) else {
            return Ok(None); // unreachable: length bounds checked above
        };
        let expect_len = |want: usize| -> Result<(), PduError> {
            if length as usize == HEADER_LEN + want {
                Ok(())
            } else {
                Err(PduError::BadLength { pdu_type, length })
            }
        };
        let pdu = match pdu_type {
            0 | 1 => {
                expect_len(4)?;
                let serial = body.get_u32();
                if pdu_type == 0 {
                    Pdu::SerialNotify {
                        session_id: session,
                        serial,
                    }
                } else {
                    Pdu::SerialQuery {
                        session_id: session,
                        serial,
                    }
                }
            }
            2 => {
                expect_len(0)?;
                Pdu::ResetQuery
            }
            3 => {
                expect_len(0)?;
                Pdu::CacheResponse {
                    session_id: session,
                }
            }
            4 => {
                expect_len(12)?;
                let flags = body.get_u8();
                if flags > 1 {
                    return Err(PduError::Malformed("flags must be 0 or 1"));
                }
                let prefix_len = body.get_u8();
                let max_len = body.get_u8();
                let _zero = body.get_u8();
                if prefix_len > 32 || max_len > 32 {
                    return Err(PduError::Malformed("IPv4 length fields > 32"));
                }
                let mut octets = [0u8; 4];
                body.copy_to_slice(&mut octets);
                let asn = Asn::new(body.get_u32());
                Pdu::Ipv4Prefix {
                    announce: flags == 1,
                    prefix_len,
                    max_len,
                    prefix: Ipv4Addr::from(octets),
                    asn,
                }
            }
            6 => {
                expect_len(24)?;
                let flags = body.get_u8();
                if flags > 1 {
                    return Err(PduError::Malformed("flags must be 0 or 1"));
                }
                let prefix_len = body.get_u8();
                let max_len = body.get_u8();
                let _zero = body.get_u8();
                if prefix_len > 128 || max_len > 128 {
                    return Err(PduError::Malformed("IPv6 length fields > 128"));
                }
                let mut octets = [0u8; 16];
                body.copy_to_slice(&mut octets);
                let asn = Asn::new(body.get_u32());
                Pdu::Ipv6Prefix {
                    announce: flags == 1,
                    prefix_len,
                    max_len,
                    prefix: Ipv6Addr::from(octets),
                    asn,
                }
            }
            7 => {
                expect_len(4)?;
                Pdu::EndOfData {
                    session_id: session,
                    serial: body.get_u32(),
                }
            }
            8 => {
                expect_len(0)?;
                Pdu::CacheReset
            }
            10 => {
                if body.remaining() < 4 {
                    return Err(PduError::BadLength { pdu_type, length });
                }
                let pdu_len = body.get_u32() as usize;
                let erroneous_pdu = body
                    .get(..pdu_len)
                    .ok_or(PduError::BadLength { pdu_type, length })?
                    .to_vec();
                if body.remaining() < pdu_len + 4 {
                    return Err(PduError::BadLength { pdu_type, length });
                }
                body.advance(pdu_len);
                let text_len = body.get_u32() as usize;
                if body.remaining() != text_len {
                    return Err(PduError::BadLength { pdu_type, length });
                }
                let text = body
                    .get(..text_len)
                    .map(|raw| String::from_utf8_lossy(raw).into_owned())
                    .ok_or(PduError::BadLength { pdu_type, length })?;
                let code = ErrorCode::from_code(session)
                    .ok_or(PduError::Malformed("unknown error code"))?;
                Pdu::ErrorReport {
                    code,
                    erroneous_pdu,
                    text,
                }
            }
            other => return Err(PduError::UnknownType(other)),
        };
        Ok(Some((pdu, length as usize)))
    }
}

/// Bytes received but not yet decoded.
///
/// Decoding advances a consumed cursor instead of shifting the buffer,
/// and the consumed prefix is dropped once per [`extend`](Self::extend)
/// — a 100k-record response costs one small memmove per read, not one
/// per PDU.
#[derive(Debug, Default)]
pub struct PduBuf {
    bytes: Vec<u8>,
    consumed: usize,
}

impl PduBuf {
    /// An empty buffer.
    pub fn new() -> PduBuf {
        PduBuf::default()
    }

    /// Decode the next PDU if it is already complete in the buffer;
    /// `Ok(None)` means more bytes are needed. Never touches a
    /// transport.
    pub fn next_pdu(&mut self) -> Result<Option<Pdu>, PduError> {
        let pending = self.bytes.get(self.consumed..).unwrap_or_default();
        Ok(Pdu::decode(pending)?.map(|(pdu, used)| {
            self.consumed += used;
            pdu
        }))
    }

    /// Append bytes a caller read itself (both session machines, the
    /// cache's and the router's, take their transport's reads here).
    pub fn extend(&mut self, chunk: &[u8]) {
        self.bytes.drain(..self.consumed);
        self.consumed = 0;
        self.bytes.extend_from_slice(chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(pdu: Pdu) {
        let bytes = pdu.encode();
        let (back, used) = Pdu::decode(&bytes).unwrap().unwrap();
        assert_eq!(back, pdu);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn all_types_roundtrip() {
        roundtrip(Pdu::SerialNotify {
            session_id: 7,
            serial: 42,
        });
        roundtrip(Pdu::SerialQuery {
            session_id: 7,
            serial: 42,
        });
        roundtrip(Pdu::ResetQuery);
        roundtrip(Pdu::CacheResponse { session_id: 9 });
        roundtrip(Pdu::Ipv4Prefix {
            announce: true,
            prefix_len: 16,
            max_len: 24,
            prefix: "85.1.0.0".parse().unwrap(),
            asn: Asn::new(64500),
        });
        roundtrip(Pdu::Ipv4Prefix {
            announce: false,
            prefix_len: 0,
            max_len: 0,
            prefix: "0.0.0.0".parse().unwrap(),
            asn: Asn::new(0),
        });
        roundtrip(Pdu::Ipv6Prefix {
            announce: true,
            prefix_len: 32,
            max_len: 48,
            prefix: "2001:db8::".parse().unwrap(),
            asn: Asn::new(u32::MAX),
        });
        roundtrip(Pdu::EndOfData {
            session_id: 1,
            serial: u32::MAX,
        });
        roundtrip(Pdu::CacheReset);
        roundtrip(Pdu::ErrorReport {
            code: ErrorCode::NoDataAvailable,
            erroneous_pdu: vec![1, 2, 3],
            text: "nothing cached yet".into(),
        });
        roundtrip(Pdu::ErrorReport {
            code: ErrorCode::CorruptData,
            erroneous_pdu: vec![],
            text: String::new(),
        });
    }

    #[test]
    fn header_layout_is_exact() {
        let bytes = Pdu::SerialQuery {
            session_id: 0x1234,
            serial: 0xdead_beef,
        }
        .encode();
        assert_eq!(bytes.len(), 12);
        assert_eq!(bytes[0], 0); // version
        assert_eq!(bytes[1], 1); // type
        assert_eq!(&bytes[2..4], &[0x12, 0x34]);
        assert_eq!(&bytes[4..8], &[0, 0, 0, 12]); // length
        assert_eq!(&bytes[8..12], &[0xde, 0xad, 0xbe, 0xef]);
    }

    #[test]
    fn ipv4_prefix_layout() {
        let bytes = Pdu::Ipv4Prefix {
            announce: true,
            prefix_len: 24,
            max_len: 24,
            prefix: "192.0.2.0".parse().unwrap(),
            asn: Asn::new(65000),
        }
        .encode();
        assert_eq!(bytes.len(), 20);
        assert_eq!(bytes[8], 1); // flags
        assert_eq!(bytes[9], 24); // prefix len
        assert_eq!(bytes[10], 24); // max len
        assert_eq!(bytes[11], 0); // zero
        assert_eq!(&bytes[12..16], &[192, 0, 2, 0]);
    }

    #[test]
    fn partial_input_asks_for_more() {
        let bytes = Pdu::ResetQuery.encode();
        for cut in 0..bytes.len() {
            assert_eq!(Pdu::decode(&bytes[..cut]).unwrap(), None, "cut {cut}");
        }
    }

    #[test]
    fn concatenated_pdus_decode_sequentially() {
        let mut stream = Pdu::CacheResponse { session_id: 3 }.encode();
        stream.extend(
            Pdu::Ipv4Prefix {
                announce: true,
                prefix_len: 16,
                max_len: 16,
                prefix: "10.0.0.0".parse().unwrap(),
                asn: Asn::new(1),
            }
            .encode(),
        );
        stream.extend(
            Pdu::EndOfData {
                session_id: 3,
                serial: 1,
            }
            .encode(),
        );
        let mut offset = 0;
        let mut seen = Vec::new();
        while let Some((pdu, used)) = Pdu::decode(&stream[offset..]).unwrap() {
            seen.push(pdu);
            offset += used;
        }
        assert_eq!(offset, stream.len());
        assert_eq!(seen.len(), 3);
        assert!(matches!(seen[2], Pdu::EndOfData { serial: 1, .. }));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = Pdu::ResetQuery.encode();
        bytes[0] = 1;
        assert_eq!(Pdu::decode(&bytes), Err(PduError::BadVersion(1)));
    }

    #[test]
    fn unknown_type_rejected() {
        let mut bytes = Pdu::ResetQuery.encode();
        bytes[1] = 99;
        assert_eq!(Pdu::decode(&bytes), Err(PduError::UnknownType(99)));
    }

    #[test]
    fn bad_lengths_rejected() {
        // Claim a longer body than the type allows.
        let mut bytes = Pdu::ResetQuery.encode();
        bytes[7] = 13;
        bytes.extend_from_slice(&[0; 5]);
        assert!(matches!(
            Pdu::decode(&bytes),
            Err(PduError::BadLength { pdu_type: 2, .. })
        ));
        // Length smaller than the header.
        let mut bytes = Pdu::ResetQuery.encode();
        bytes[7] = 4;
        assert!(matches!(
            Pdu::decode(&bytes),
            Err(PduError::BadLength { .. })
        ));
    }

    #[test]
    fn malformed_fields_rejected() {
        let mut bytes = Pdu::Ipv4Prefix {
            announce: true,
            prefix_len: 16,
            max_len: 16,
            prefix: "10.0.0.0".parse().unwrap(),
            asn: Asn::new(1),
        }
        .encode();
        bytes[8] = 2; // flags
        assert_eq!(
            Pdu::decode(&bytes),
            Err(PduError::Malformed("flags must be 0 or 1"))
        );
        let mut bytes = Pdu::Ipv4Prefix {
            announce: true,
            prefix_len: 16,
            max_len: 16,
            prefix: "10.0.0.0".parse().unwrap(),
            asn: Asn::new(1),
        }
        .encode();
        bytes[9] = 33; // prefix_len
        assert!(matches!(Pdu::decode(&bytes), Err(PduError::Malformed(_))));
    }

    #[test]
    fn error_report_with_nested_lengths() {
        let inner = Pdu::SerialQuery {
            session_id: 1,
            serial: 2,
        }
        .encode();
        let report = Pdu::ErrorReport {
            code: ErrorCode::InvalidRequest,
            erroneous_pdu: inner.clone(),
            text: "don't".into(),
        };
        let bytes = report.encode();
        let (back, _) = Pdu::decode(&bytes).unwrap().unwrap();
        match back {
            Pdu::ErrorReport {
                code,
                erroneous_pdu,
                text,
            } => {
                assert_eq!(code, ErrorCode::InvalidRequest);
                assert_eq!(erroneous_pdu, inner);
                assert_eq!(text, "don't");
            }
            other => panic!("{other:?}"),
        }
    }

    fn sample_stream() -> (Vec<Pdu>, Vec<u8>) {
        let pdus = vec![
            Pdu::CacheResponse { session_id: 3 },
            Pdu::Ipv4Prefix {
                announce: true,
                prefix_len: 16,
                max_len: 16,
                prefix: "10.0.0.0".parse().unwrap(),
                asn: Asn::new(1),
            },
            Pdu::Ipv6Prefix {
                announce: false,
                prefix_len: 32,
                max_len: 48,
                prefix: "2001:db8::".parse().unwrap(),
                asn: Asn::new(2),
            },
            Pdu::EndOfData {
                session_id: 3,
                serial: 9,
            },
        ];
        let wire = pdus.iter().flat_map(Pdu::encode).collect();
        (pdus, wire)
    }

    #[test]
    fn buffered_decoding_is_fragmentation_invariant() {
        let (pdus, wire) = sample_stream();
        for step in [1, 3, 7, 19, 20, 21, wire.len()] {
            let mut buf = PduBuf::new();
            let mut decoded = Vec::new();
            for chunk in wire.chunks(step) {
                buf.extend(chunk);
                while let Some(pdu) = buf.next_pdu().unwrap() {
                    decoded.push(pdu);
                }
            }
            assert_eq!(decoded, pdus, "chunks of {step}");
            assert_eq!(buf.next_pdu().unwrap(), None);
        }
    }

    #[test]
    fn idle_is_decided_by_error_kind_not_wording() {
        for kind in [io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut] {
            let e = PduError::from(io::Error::new(kind, "worded however the platform likes"));
            assert!(e.is_idle(), "{e:?}");
        }
        let closed = PduError::from(io::Error::new(
            io::ErrorKind::ConnectionReset,
            "timed out — says the text, not the kind",
        ));
        assert!(!closed.is_idle());
        assert!(!PduError::Truncated.is_idle());
    }

    #[test]
    fn error_codes_roundtrip() {
        for code in 0..8u16 {
            let ec = ErrorCode::from_code(code).unwrap();
            assert_eq!(ec.code(), code);
            assert!(!ec.to_string().is_empty());
        }
        assert_eq!(ErrorCode::from_code(8), None);
    }
}
