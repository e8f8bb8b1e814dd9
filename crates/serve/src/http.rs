//! A minimal, hardened HTTP/1.1 message layer over raw byte buffers:
//! the one place in the workspace that decides HTTP framing, for both
//! ends of the protocol.
//!
//! The workspace policy is synchronous `std::net` + threads, and the
//! container has no HTTP crate to lean on, so the query plane carries
//! its own parser. It follows the same incremental-decode shape as
//! [`ripki_rtr`]'s `Pdu::decode`: [`parse_head`] consumes a byte buffer
//! and answers *need more bytes* (`Ok(None)`), *here is a request and
//! how many bytes it used* (`Ok(Some(_))`), or *this connection is
//! speaking garbage* (`Err(_)`) — the error carrying the exact status
//! code the peer should see before the socket closes.
//! [`parse_response_head`] is its twin for responses, sharing the head
//! search, the header-line loop and the `Content-Length` rule; every
//! HTTP client in the workspace frames through it ([`frame_response`]).
//!
//! Hardening is by construction: hard caps on head size, header count
//! and line length; no allocation proportional to attacker-controlled
//! numbers; bytes outside the printable ASCII range in the request line
//! are rejected rather than interpreted.

use std::fmt;
use std::io::{self, Write};
use std::ops::Range;

/// Total bytes of request head (request line + headers + CRLFCRLF) we
/// are willing to buffer before giving up with 431.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Cap on the request-target length (everything after the method).
pub const MAX_TARGET_BYTES: usize = 8 * 1024;
/// Cap on the number of header fields.
pub const MAX_HEADERS: usize = 64;

/// A parse failure, mapped to the HTTP status the peer should receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line or header field → 400.
    Malformed(&'static str),
    /// Request target longer than [`MAX_TARGET_BYTES`] → 414.
    TargetTooLong,
    /// Head larger than [`MAX_HEAD_BYTES`] or more than [`MAX_HEADERS`]
    /// fields → 431.
    HeadTooLarge,
    /// An HTTP version other than 1.x → 505.
    BadVersion,
    /// A body past the reader's bound (or a length past `usize`) → 413.
    BodyTooLarge,
    /// A `Transfer-Encoding` other than `identity`, chunked too → 501.
    UnsupportedTransferEncoding,
    /// The peer closed before the whole message arrived → 400.
    Truncated,
}

impl HttpError {
    /// The status code this error maps to on the wire.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Malformed(_) => 400,
            HttpError::TargetTooLong => 414,
            HttpError::HeadTooLarge => 431,
            HttpError::BadVersion => 505,
            HttpError::BodyTooLarge => 413,
            HttpError::UnsupportedTransferEncoding => 501,
            HttpError::Truncated => 400,
        }
    }

    /// Human-readable reason sent in the error body.
    pub fn reason(&self) -> &'static str {
        match self {
            HttpError::Malformed(why) => why,
            HttpError::TargetTooLong => "request target too long",
            HttpError::HeadTooLarge => "request head too large",
            HttpError::BadVersion => "only HTTP/1.x is supported",
            HttpError::BodyTooLarge => "body too large",
            HttpError::UnsupportedTransferEncoding => "transfer-encoding is not supported",
            HttpError::Truncated => "connection closed mid-message",
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.reason())
    }
}

impl std::error::Error for HttpError {}

/// A parsed request head. Bodies are never *used*: every endpoint of
/// the query plane is a GET. Small announced bodies are read and
/// discarded by the connection machine so the connection stays
/// reusable; chunked or oversized ones close it (see
/// [`body_disposition`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method token (`GET`, `POST`, …).
    pub method: String,
    /// Percent-decoded path, always starting with `/`.
    pub path: String,
    /// Decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Header fields with lower-cased names, in order of appearance.
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// First value of a header (name compared case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        header_value(&self.headers, name)
    }

    /// First value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the peer asked to keep the connection open. HTTP/1.1
    /// defaults to keep-alive; an explicit `Connection: close` wins.
    pub fn keep_alive(&self) -> bool {
        !matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }
}

/// Try to parse one request head from the front of `buf`.
///
/// * `Ok(Some((request, n)))` — a complete head occupied `buf[..n]`.
/// * `Ok(None)` — no CRLFCRLF yet and the buffer is still under the
///   head cap; read more bytes and call again.
/// * `Err(e)` — the bytes can never become a valid request; answer
///   `e.status()` and close.
pub fn parse_head(buf: &[u8]) -> Result<Option<(Request, usize)>, HttpError> {
    let Some((mut lines, head_len)) = split_head(buf)? else {
        return Ok(None);
    };
    let request_line = lines.next().ok_or(HttpError::Malformed("empty head"))?;
    let (method, target, version) = split_request_line(request_line)?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadVersion);
    }
    if target.len() > MAX_TARGET_BYTES {
        return Err(HttpError::TargetTooLong);
    }
    let (path, query) = parse_target(target)?;
    let headers = parse_fields(lines)?;
    Ok(Some((
        Request {
            method,
            path,
            query,
            headers,
        },
        head_len,
    )))
}

/// Find the complete head at the front of `buf`: its lines (line ends
/// and the blank terminator stripped) and its length on the wire.
/// `Ok(None)` while there is no CRLFCRLF yet and the buffer is under the
/// head cap.
fn split_head(buf: &[u8]) -> Result<Option<(impl Iterator<Item = &[u8]>, usize)>, HttpError> {
    let Some(head_len) = find_head_end(buf) else {
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        return Ok(None);
    };
    if head_len > MAX_HEAD_BYTES {
        return Err(HttpError::HeadTooLarge);
    }
    // Strip the CRLFCRLF; `find_head_end` guarantees both bounds.
    let Some(head) = head_len.checked_sub(4).and_then(|n| buf.get(..n)) else {
        return Err(HttpError::Malformed("impossible head bounds"));
    };
    let lines = head
        .split(|&b| b == b'\n')
        .map(|l| l.strip_suffix(b"\r").unwrap_or(l));
    Ok(Some((lines, head_len)))
}

/// Locate the end of the head (index just past CRLFCRLF), scanning no
/// further than the head cap plus slack for the terminator itself.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let window = buf.len().min(MAX_HEAD_BYTES + 4);
    buf.get(..window)
        .unwrap_or(buf)
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
}

/// The header-field lines of a head, requests and responses alike:
/// lower-cased names, trimmed values, at most [`MAX_HEADERS`].
fn parse_fields<'a>(
    lines: impl Iterator<Item = &'a [u8]>,
) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            // An empty line inside the head means bare LF line endings
            // produced a phantom field; reject rather than guess.
            return Err(HttpError::Malformed("empty header line"));
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::HeadTooLarge);
        }
        let colon = line
            .iter()
            .position(|&b| b == b':')
            .ok_or(HttpError::Malformed("header field without colon"))?;
        let (name, rest) = line.split_at(colon);
        if name.is_empty() || !name.iter().all(|&b| is_token_byte(b)) {
            return Err(HttpError::Malformed("invalid header name"));
        }
        let value = rest.get(1..).unwrap_or_default();
        if value.iter().any(|&b| b < 0x20 && b != b'\t') {
            return Err(HttpError::Malformed("control byte in header value"));
        }
        let name = String::from_utf8_lossy(name).to_ascii_lowercase();
        let value = String::from_utf8_lossy(value).trim().to_string();
        headers.push((name, value));
    }
    Ok(headers)
}

/// First value of a header among lower-cased `headers` (name compared
/// case-insensitively).
pub fn header_value<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// The one `Content-Length` rule, for requests and responses: digits
/// only, and every copy of the field must agree. `Ok(None)` when there
/// is none.
fn content_length(headers: &[(String, String)]) -> Result<Option<usize>, HttpError> {
    let mut lengths = headers
        .iter()
        .filter(|(name, _)| name == "content-length")
        .map(|(_, value)| value.as_str());
    let Some(first) = lengths.next() else {
        return Ok(None);
    };
    if lengths.any(|other| other != first) {
        return Err(HttpError::Malformed("conflicting content-length fields"));
    }
    if first.is_empty() || !first.bytes().all(|b| b.is_ascii_digit()) {
        return Err(HttpError::Malformed("content-length is not a digit string"));
    }
    // Digits only, so the parse fails only past `usize`.
    first.parse().map(Some).map_err(|_| HttpError::BodyTooLarge)
}

fn split_request_line(line: &[u8]) -> Result<(String, &[u8], &str), HttpError> {
    if line
        .iter()
        .any(|&b| !(0x21..=0x7e).contains(&b) && b != b' ')
    {
        return Err(HttpError::Malformed("non-printable byte in request line"));
    }
    let mut parts = line.split(|&b| b == b' ');
    let method = parts.next().filter(|m| !m.is_empty());
    let target = parts.next().filter(|t| !t.is_empty());
    let version = parts.next().filter(|v| !v.is_empty());
    let (Some(method), Some(target), Some(version), None) = (method, target, version, parts.next())
    else {
        return Err(HttpError::Malformed(
            "request line is not METHOD SP TARGET SP VERSION",
        ));
    };
    if !method.iter().all(|&b| is_token_byte(b)) {
        return Err(HttpError::Malformed("invalid method token"));
    }
    let method = String::from_utf8_lossy(method).to_ascii_uppercase();
    let version = std::str::from_utf8(version).map_err(|_| HttpError::BadVersion)?;
    Ok((method, target, version))
}

fn parse_target(target: &[u8]) -> Result<(String, Vec<(String, String)>), HttpError> {
    if target.first() != Some(&b'/') {
        return Err(HttpError::Malformed("request target must be origin-form"));
    }
    let (raw_path, raw_query) = match target.iter().position(|&b| b == b'?') {
        Some(i) => {
            let (path, rest) = target.split_at(i);
            (path, rest.get(1..))
        }
        None => (target, None),
    };
    let path = percent_decode(raw_path, false)?;
    if path.bytes().any(|b| b < 0x20 || b == 0x7f) {
        return Err(HttpError::Malformed("control byte in decoded path"));
    }
    let mut query = Vec::new();
    if let Some(raw) = raw_query {
        for pair in raw.split(|&b| b == b'&').filter(|p| !p.is_empty()) {
            let eq = pair.iter().position(|&b| b == b'=').unwrap_or(pair.len());
            let (k, rest) = pair.split_at(eq);
            let v = rest.get(1..).unwrap_or_default();
            query.push((percent_decode(k, true)?, percent_decode(v, true)?));
        }
    }
    Ok((path, query))
}

/// Decode `%XX` escapes (and, in query components, `+` as space).
fn percent_decode(raw: &[u8], plus_is_space: bool) -> Result<String, HttpError> {
    let mut out = Vec::with_capacity(raw.len());
    let mut i = 0;
    while let Some(&byte) = raw.get(i) {
        match byte {
            b'%' => {
                let hi = raw.get(i + 1).and_then(|b| (*b as char).to_digit(16));
                let lo = raw.get(i + 2).and_then(|b| (*b as char).to_digit(16));
                let (Some(hi), Some(lo)) = (hi, lo) else {
                    return Err(HttpError::Malformed("truncated percent escape"));
                };
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| HttpError::Malformed("invalid UTF-8 after decoding"))
}

fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Largest announced request body the server will read and discard to
/// keep the connection alive; anything larger (or chunked) costs the
/// connection instead of worker time.
pub const MAX_DRAIN_BODY_BYTES: usize = 8 * 1024;

/// What to do with a request body none of the endpoints ever read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyDisposition {
    /// No body announced — nothing to do.
    None,
    /// Small fixed-length body: read and discard these many bytes, then
    /// the connection is reusable.
    Drain(usize),
    /// Chunked, oversized, or malformed framing: answer and close.
    Close,
}

/// Classify the request's body framing for the connection machine.
///
/// `Content-Length` is parsed strictly (digits only, all occurrences
/// must agree) — anything questionable closes the connection rather
/// than risking request smuggling on a reused stream.
pub fn body_disposition(request: &Request) -> BodyDisposition {
    if request.header("transfer-encoding").is_some() {
        return BodyDisposition::Close;
    }
    match content_length(&request.headers) {
        Ok(None | Some(0)) => BodyDisposition::None,
        Ok(Some(n)) if n <= MAX_DRAIN_BODY_BYTES => BodyDisposition::Drain(n),
        _ => BodyDisposition::Close,
    }
}

// ------------------------------------------------------- response decoder

/// How a response body is delimited on the wire (RFC 9112 §6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// Exactly this many bytes follow the head (`Content-Length`).
    Length(usize),
    /// The body runs until the peer closes the connection.
    UntilClose,
    /// 1xx, 204 and 304: nothing follows the head, whatever it declares.
    NoBody,
}

/// A decoded response head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseHead {
    /// Status code from the status line.
    pub status: u16,
    /// Header fields with lower-cased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// How the body that follows is delimited.
    pub framing: Framing,
}

/// [`parse_head`] for the client side: the same answers and caps, and
/// the same `Content-Length` rule. A non-`identity`
/// `Transfer-Encoding` is [`HttpError::UnsupportedTransferEncoding`].
pub fn parse_response_head(buf: &[u8]) -> Result<Option<(ResponseHead, usize)>, HttpError> {
    let Some((mut lines, head_len)) = split_head(buf)? else {
        return Ok(None);
    };
    let status = parse_status_line(lines.next().unwrap_or_default())?;
    let headers = parse_fields(lines)?;
    let coded = |(name, value): &(String, String)| {
        name == "transfer-encoding" && !value.eq_ignore_ascii_case("identity")
    };
    if headers.iter().any(coded) {
        return Err(HttpError::UnsupportedTransferEncoding);
    }
    let length = content_length(&headers)?;
    let framing = match status {
        100..=199 | 204 | 304 => Framing::NoBody,
        _ => length.map_or(Framing::UntilClose, Framing::Length),
    };
    let head = ResponseHead {
        status,
        headers,
        framing,
    };
    Ok(Some((head, head_len)))
}

/// `HTTP/1.x SP 3DIGIT [SP reason]` → the status code. The reason
/// phrase is never read.
fn parse_status_line(line: &[u8]) -> Result<u16, HttpError> {
    let [b'H', b'T', b'T', b'P', b'/', b'1', b'.', b'0'..=b'9', rest @ ..] = line else {
        return Err(HttpError::BadVersion);
    };
    let (&[b' ', a, b, c] | &[b' ', a, b, c, b' ', ..]) = rest else {
        return Err(HttpError::Malformed("malformed status line"));
    };
    let code = [a, b, c];
    if !code.iter().all(u8::is_ascii_digit) {
        return Err(HttpError::Malformed("status code is not three digits"));
    }
    Ok(code
        .iter()
        .fold(0, |n, digit| n * 10 + u16::from(digit - b'0')))
}

/// Frame one whole response at the front of `buf`: its head and the
/// range of its body, which ends where the next message starts.
/// `Ok(None)` while more bytes may arrive; `eof` says none will, so an
/// incomplete head or a short `Content-Length` body is then
/// [`HttpError::Truncated`], never a short message. The head is decoded
/// on every call: a reader of long bodies decodes it once with
/// [`parse_response_head`] and reads by its [`Framing`].
pub fn frame_response(
    buf: &[u8],
    eof: bool,
) -> Result<Option<(ResponseHead, Range<usize>)>, HttpError> {
    let (head, head_len) = match parse_response_head(buf)? {
        Some(decoded) => decoded,
        None if eof => return Err(HttpError::Truncated),
        None => return Ok(None),
    };
    let available = buf.len().saturating_sub(head_len);
    let body_len = match head.framing {
        Framing::NoBody => 0,
        Framing::Length(n) if available >= n => n,
        Framing::Length(_) if eof => return Err(HttpError::Truncated),
        Framing::UntilClose if eof => available,
        Framing::Length(_) | Framing::UntilClose => return Ok(None),
    };
    Ok(Some((head, head_len..head_len + body_len)))
}

// ---------------------------------------------------------------- response

/// A writer-driven body producer: writes the payload and returns the
/// number of bytes written.
pub type StreamFn = Box<dyn FnOnce(&mut dyn Write) -> io::Result<u64> + Send>;

/// A response body: fully materialised, or streamed straight to the
/// socket (used by the VRP exports, which can be large at scale).
pub enum Body {
    /// In-memory payload, sent with `Content-Length` (keep-alive safe).
    Full(Vec<u8>),
    /// Writer-driven payload. No length is known up front, so the
    /// response is delimited by connection close (`Connection: close`).
    Stream(StreamFn),
}

/// A response ready to serialise.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra response headers (e.g. `etag`) beyond the fixed set
    /// `write_to` always emits. Names must be lower-case.
    pub headers: Vec<(&'static str, String)>,
    /// The payload.
    pub body: Body,
}

impl Response {
    /// A JSON response from a value tree.
    pub fn json(status: u16, value: &serde_json::Value) -> Response {
        // Serialising an in-memory value tree cannot fail in practice;
        // if it ever does, degrade to a well-formed error payload
        // instead of panicking inside a request handler.
        let mut text = serde_json::to_string(value)
            .unwrap_or_else(|_| r#"{"error":"response serialization failed"}"#.to_string());
        text.push('\n');
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: Body::Full(text.into_bytes()),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, text: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: Body::Full(text.into().into_bytes()),
        }
    }

    /// Attach an extra response header (builder-style).
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }

    /// An empty-bodied `304 Not Modified` carrying the entity tag the
    /// conditional request matched. `Body::Full` keeps the connection
    /// reusable, which is the whole point of answering 304.
    pub fn not_modified(etag: impl Into<String>) -> Response {
        Response {
            status: 304,
            content_type: "text/plain; charset=utf-8",
            headers: vec![("etag", etag.into())],
            body: Body::Full(Vec::new()),
        }
    }

    /// The canonical error shape: `{"error": reason}` with a status.
    pub fn error(status: u16, reason: &str) -> Response {
        let mut obj = serde_json::Map::new();
        obj.insert("error".into(), reason.into());
        Response::json(status, &serde_json::Value::Object(obj))
    }

    /// The response a parse failure maps to.
    pub fn from_http_error(e: &HttpError) -> Response {
        Response::error(e.status(), e.reason())
    }

    /// Serialise head + body to `w`. Returns whether the connection may
    /// stay open afterwards (`false` for streamed bodies and for
    /// `want_keep_alive == false`).
    pub fn write_to(self, w: &mut dyn Write, want_keep_alive: bool) -> io::Result<bool> {
        let keep_alive = want_keep_alive && matches!(self.body, Body::Full(_));
        let reason = status_reason(self.status);
        let mut extra = String::new();
        for (name, value) in &self.headers {
            extra.push_str(name);
            extra.push_str(": ");
            extra.push_str(value);
            extra.push_str("\r\n");
        }
        match self.body {
            Body::Full(payload) => {
                write!(
                    w,
                    "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n{extra}connection: {}\r\n\r\n",
                    self.status,
                    reason,
                    self.content_type,
                    payload.len(),
                    if keep_alive { "keep-alive" } else { "close" },
                )?;
                w.write_all(&payload)?;
            }
            Body::Stream(writer) => {
                write!(
                    w,
                    "HTTP/1.1 {} {}\r\ncontent-type: {}\r\n{extra}connection: close\r\n\r\n",
                    self.status, reason, self.content_type,
                )?;
                writer(w)?;
            }
        }
        w.flush()?;
        Ok(keep_alive)
    }
}

/// Reason phrases for the statuses the query plane emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Option<(Request, usize)>, HttpError> {
        parse_head(s.as_bytes())
    }

    #[test]
    fn parses_a_simple_get() {
        let (req, n) = parse("GET /status HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(n, 33);
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/status");
        assert!(req.query.is_empty());
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.keep_alive());
    }

    #[test]
    fn decodes_query_and_percent_escapes() {
        let (req, _) =
            parse("GET /api/v1/validity?asn=AS65000&prefix=10.0.0.0%2F24 HTTP/1.1\r\n\r\n")
                .unwrap()
                .unwrap();
        assert_eq!(req.query_param("asn"), Some("AS65000"));
        assert_eq!(req.query_param("prefix"), Some("10.0.0.0/24"));
    }

    #[test]
    fn incomplete_head_wants_more_bytes() {
        assert_eq!(parse("GET / HTTP/1.1\r\nHost:").unwrap(), None);
        assert_eq!(parse("").unwrap(), None);
    }

    #[test]
    fn leftover_bytes_stay_in_buffer() {
        let text = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (req, n) = parse(text).unwrap().unwrap();
        assert_eq!(req.path, "/a");
        let (req2, _) = parse_head(&text.as_bytes()[n..]).unwrap().unwrap();
        assert_eq!(req2.path, "/b");
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for bad in [
            "GET\r\n\r\n",
            "GET /\r\n\r\n",
            "GET / HTTP/1.1 extra\r\n\r\n",
            "GET relative HTTP/1.1\r\n\r\n",
            "G\x01T / HTTP/1.1\r\n\r\n",
            "GET /%zz HTTP/1.1\r\n\r\n",
        ] {
            assert_eq!(parse(bad).unwrap_err().status(), 400, "{bad:?}");
        }
        assert_eq!(
            parse("GET / SPDY/3\r\n\r\n").unwrap_err(),
            HttpError::BadVersion
        );
    }

    #[test]
    fn enforces_size_limits() {
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_TARGET_BYTES));
        assert_eq!(parse(&long_target).unwrap_err(), HttpError::TargetTooLong);

        let mut many_headers = String::from("GET / HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            many_headers.push_str(&format!("x-h{i}: v\r\n"));
        }
        many_headers.push_str("\r\n");
        assert_eq!(parse(&many_headers).unwrap_err(), HttpError::HeadTooLarge);

        // A buffer at the cap with no terminator can never complete.
        let oversized = vec![b'a'; MAX_HEAD_BYTES];
        assert_eq!(parse_head(&oversized).unwrap_err(), HttpError::HeadTooLarge);
    }

    #[test]
    fn connection_close_disables_keep_alive() {
        let (req, _) = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive());
    }

    #[test]
    fn response_serialises_with_length() {
        let mut out = Vec::new();
        let keep = Response::text(200, "hi").write_to(&mut out, true).unwrap();
        assert!(keep);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 2\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nhi"), "{text}");
    }

    #[test]
    fn extra_headers_serialise_before_connection() {
        let mut out = Vec::new();
        Response::text(200, "hi")
            .with_header("etag", "\"e-1\"")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("etag: \"e-1\"\r\n"), "{text}");
        assert!(text.contains("connection: keep-alive\r\n"), "{text}");
    }

    #[test]
    fn not_modified_keeps_the_connection_and_has_no_body() {
        let mut out = Vec::new();
        let keep = Response::not_modified("\"e-7\"")
            .write_to(&mut out, true)
            .unwrap();
        assert!(keep, "304 must not cost the connection");
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 304 Not Modified\r\n"), "{text}");
        assert!(text.contains("etag: \"e-7\"\r\n"), "{text}");
        assert!(text.contains("content-length: 0\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n"), "{text}");
    }

    #[test]
    fn decodes_a_response_head_and_its_framing() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\ncontent-length: 5\r\n\r\nhello";
        let (head, n) = parse_response_head(wire).unwrap().unwrap();
        assert_eq!(n, wire.len() - 5);
        assert_eq!(head.status, 200);
        assert_eq!(
            header_value(&head.headers, "content-type"),
            Some("text/plain")
        );
        assert_eq!(head.framing, Framing::Length(5));
        let (_, body) = frame_response(wire, false).unwrap().unwrap();
        assert_eq!(&wire[body], b"hello");

        let (head, _) = parse_response_head(b"HTTP/1.0 200 OK\r\netag: \"e\"\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(head.framing, Framing::UntilClose);
        // A missing reason phrase is tolerated; the code is not.
        let (head, _) = parse_response_head(b"HTTP/1.1 404\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(head.status, 404);
    }

    #[test]
    fn bodiless_statuses_frame_nothing_whatever_they_declare() {
        for status in [100, 204, 304] {
            let wire = format!("HTTP/1.1 {status} X\r\ncontent-length: 7\r\n\r\nnext");
            let (head, body) = frame_response(wire.as_bytes(), false).unwrap().unwrap();
            assert_eq!(head.framing, Framing::NoBody, "{status}");
            assert!(body.is_empty(), "{status}");
            assert_eq!(&wire.as_bytes()[body.end..], b"next", "{status}");
        }
    }

    #[test]
    fn content_length_is_strict_on_both_ends() {
        for bad in ["+5", "-5", " ", "5 5", "0x5", "5,5"] {
            let wire = format!("HTTP/1.1 200 OK\r\ncontent-length: {bad}\r\n\r\nhello");
            assert_eq!(
                parse_response_head(wire.as_bytes()).unwrap_err().status(),
                400,
                "{bad:?}"
            );
            let request = format!("POST / HTTP/1.1\r\ncontent-length: {bad}\r\n\r\n");
            let (request, _) = parse_head(request.as_bytes()).unwrap().unwrap();
            assert_eq!(
                body_disposition(&request),
                BodyDisposition::Close,
                "{bad:?}"
            );
        }
        let twice = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\ncontent-length: 6\r\n\r\n";
        assert!(matches!(
            parse_response_head(twice),
            Err(HttpError::Malformed(_))
        ));
        let agreeing = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\ncontent-length: 5\r\n\r\n";
        assert_eq!(
            parse_response_head(agreeing).unwrap().unwrap().0.framing,
            Framing::Length(5)
        );
        let past_usize = format!(
            "HTTP/1.1 200 OK\r\ncontent-length: 9{}\r\n\r\n",
            "9".repeat(40)
        );
        assert_eq!(
            parse_response_head(past_usize.as_bytes()),
            Err(HttpError::BodyTooLarge)
        );
    }

    #[test]
    fn only_identity_transfer_coding_is_accepted() {
        for coding in ["chunked", "gzip, chunked", "CHUNKED"] {
            let wire = format!("HTTP/1.1 200 OK\r\ntransfer-encoding: {coding}\r\n\r\n");
            assert_eq!(
                parse_response_head(wire.as_bytes()),
                Err(HttpError::UnsupportedTransferEncoding),
                "{coding}"
            );
        }
        let identity = b"HTTP/1.1 200 OK\r\ntransfer-encoding: Identity\r\n\r\nx";
        assert_eq!(
            parse_response_head(identity).unwrap().unwrap().0.framing,
            Framing::UntilClose
        );
    }

    #[test]
    fn malformed_status_lines_are_typed_errors() {
        for bad in [
            "SPDY/3 200 OK\r\n\r\n",
            "HTTP/2 200 OK\r\n\r\n",
            "HTTP/1.x 200 OK\r\n\r\n",
        ] {
            assert_eq!(
                parse_response_head(bad.as_bytes()),
                Err(HttpError::BadVersion),
                "{bad:?}"
            );
        }
        for bad in [
            "HTTP/1.1 20 OK\r\n\r\n",
            "HTTP/1.1 2000 OK\r\n\r\n",
            "HTTP/1.1 +20 OK\r\n\r\n",
            "HTTP/1.1 200OK\r\n\r\n",
            "HTTP/1.1 200 OK\r\nno colon\r\n\r\n",
            "HTTP/1.1 200 OK\r\nbad name: v\r\n\r\n",
        ] {
            assert_eq!(
                parse_response_head(bad.as_bytes()).unwrap_err().status(),
                400,
                "{bad:?}"
            );
        }
    }

    #[test]
    fn response_heads_obey_the_request_caps() {
        assert_eq!(
            parse_response_head(b"HTTP/1.1 200 OK\r\nx: y").unwrap(),
            None
        );
        let oversized = vec![b'a'; MAX_HEAD_BYTES];
        assert_eq!(
            parse_response_head(&oversized),
            Err(HttpError::HeadTooLarge)
        );
        let mut many = String::from("HTTP/1.1 200 OK\r\n");
        for i in 0..=MAX_HEADERS {
            many.push_str(&format!("x-h{i}: v\r\n"));
        }
        many.push_str("\r\n");
        assert_eq!(
            parse_response_head(many.as_bytes()),
            Err(HttpError::HeadTooLarge)
        );
    }

    #[test]
    fn a_short_body_is_truncation_at_eof_never_a_short_body() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhel";
        assert_eq!(frame_response(wire, false), Ok(None));
        assert_eq!(frame_response(wire, true), Err(HttpError::Truncated));
        assert_eq!(frame_response(&wire[..10], true), Err(HttpError::Truncated));
        // A close-delimited body is whatever arrived before the close.
        let close = b"HTTP/1.1 200 OK\r\n\r\nabc";
        assert_eq!(frame_response(close, false), Ok(None));
        let (head, body) = frame_response(close, true).unwrap().unwrap();
        assert_eq!(
            (head.framing, &close[body]),
            (Framing::UntilClose, &b"abc"[..])
        );
    }

    /// Every response the server can emit decodes back, through the
    /// client-side decoder, to the status, headers, body and framing it
    /// was written with, whether or not the connection stays open.
    #[test]
    fn every_server_response_round_trips_through_the_decoder() {
        let errors = [
            HttpError::Malformed("bad"),
            HttpError::TargetTooLong,
            HttpError::HeadTooLarge,
            HttpError::BadVersion,
            HttpError::BodyTooLarge,
            HttpError::UnsupportedTransferEncoding,
            HttpError::Truncated,
        ];
        type Make = Box<dyn Fn() -> Response>;
        let mut cases: Vec<(Make, Option<&str>, String)> = vec![
            (
                Box::new(|| Response::json(200, &serde_json::Value::Bool(true))),
                None,
                "true\n".into(),
            ),
            (
                Box::new(|| Response::text(404, "no such path").with_header("etag", "\"e-1\"")),
                Some("\"e-1\""),
                "no such path".into(),
            ),
            (
                Box::new(|| Response::not_modified("\"e-7\"")),
                Some("\"e-7\""),
                String::new(),
            ),
            (
                Box::new(|| Response::error(503, "overloaded")),
                None,
                "{\"error\":\"overloaded\"}\n".into(),
            ),
            (
                Box::new(|| Response {
                    status: 200,
                    content_type: "text/csv",
                    headers: vec![("etag", "\"e-9\"".to_string())],
                    body: Body::Stream(Box::new(|w: &mut dyn Write| {
                        w.write_all(b"a,b\n")?;
                        Ok(4)
                    })),
                }),
                Some("\"e-9\""),
                "a,b\n".into(),
            ),
        ];
        for e in errors {
            let body = format!("{{\"error\":\"{}\"}}\n", e.reason());
            cases.push((Box::new(move || Response::from_http_error(&e)), None, body));
        }

        for (make, etag, body) in &cases {
            for want_keep_alive in [true, false] {
                let response = make();
                let (status, content_type) = (response.status, response.content_type);
                let streamed = matches!(response.body, Body::Stream(_));
                let mut wire = Vec::new();
                let keep = response.write_to(&mut wire, want_keep_alive).unwrap();
                assert_eq!(keep, want_keep_alive && !streamed, "{status}");
                let (head, range) = frame_response(&wire, true).unwrap().unwrap();
                assert_eq!(
                    range.end,
                    wire.len(),
                    "{status}: one message, nothing after"
                );
                assert_eq!(head.status, status);
                assert_eq!(
                    header_value(&head.headers, "content-type"),
                    Some(content_type)
                );
                assert_eq!(header_value(&head.headers, "etag"), *etag, "{status}");
                let connection = if keep { "keep-alive" } else { "close" };
                assert_eq!(
                    header_value(&head.headers, "connection"),
                    Some(connection),
                    "{status}"
                );
                assert_eq!(&wire[range], body.as_bytes(), "{status}");
                let framing = match (status, streamed) {
                    (304, _) => Framing::NoBody,
                    (_, true) => Framing::UntilClose,
                    (_, false) => Framing::Length(body.len()),
                };
                assert_eq!(head.framing, framing, "{status}");
            }
        }
    }

    #[test]
    fn streamed_response_closes_connection() {
        let mut out = Vec::new();
        let response = Response {
            status: 200,
            content_type: "text/csv",
            headers: Vec::new(),
            body: Body::Stream(Box::new(|w: &mut dyn Write| {
                w.write_all(b"a,b\n")?;
                Ok(4)
            })),
        };
        let keep = response.write_to(&mut out, true).unwrap();
        assert!(!keep);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("connection: close\r\n"), "{text}");
        assert!(text.ends_with("a,b\n"), "{text}");
    }
}
