//! A minimal blocking HTTP/1.1 GET client for the JSON ingest unit.
//!
//! A blocking shell over the serving plane's own response decoder
//! ([`ripki_serve::http::parse_response_head`]): the same module frames
//! what the server writes and what this client reads, so both ends
//! agree on the head caps, the strict `Content-Length` rule and the
//! bodiless statuses. Just enough client to poll `/vrps.json` with
//! conditional requests: `http://host:port/path` URLs, `Content-Length`
//! bodies and close-delimited bodies (what [`ripki_serve`] streams its
//! exports as). No redirects, no TLS, no chunked encoding — a peer
//! answering with any of those is an error, not a silent truncation.
//! The upstream is untrusted: a head beyond
//! [`ripki_serve::http::MAX_HEAD_BYTES`] or a body beyond [`MAX_BODY`]
//! is an error too, before memory is spent on it.

use ripki_serve::http::{header_value, parse_response_head, Framing, HttpError};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A decoded HTTP response: status, headers (lower-cased names), body.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code from the response line.
    pub status: u16,
    /// Header fields with lower-cased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// The complete response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First value of a header (name compared case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        header_value(&self.headers, name)
    }
}

/// The largest response body accepted: several times the `vrps.json`
/// of the whole RPKI.
pub const MAX_BODY: usize = 256 << 20;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Split an `http://host:port/path` URL into authority and path.
pub fn split_url(url: &str) -> io::Result<(&str, &str)> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| bad(format!("only http:// URLs are supported: {url}")))?;
    let (authority, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/"),
    };
    if authority.is_empty() {
        return Err(bad(format!("URL has no host: {url}")));
    }
    Ok((authority, path))
}

/// Issue one GET and read the whole response. `extra_headers` are sent
/// verbatim (e.g. `("if-none-match", etag)`); `timeout` bounds connect
/// and each read.
pub fn get(
    url: &str,
    extra_headers: &[(&str, &str)],
    timeout: Duration,
) -> io::Result<HttpResponse> {
    let (authority, path) = split_url(url)?;
    let addr = authority
        .parse()
        .map_err(|_| bad(format!("unparseable host:port in URL: {authority}")))?;
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let _ = stream.set_nodelay(true);
    let mut request = format!("GET {path} HTTP/1.1\r\nhost: {authority}\r\n");
    for (name, value) in extra_headers {
        request.push_str(name);
        request.push_str(": ");
        request.push_str(value);
        request.push_str("\r\n");
    }
    request.push_str("connection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    stream.flush()?;
    read_response(&mut stream)
}

/// Read one full response off `stream` (head, then the body by its
/// framing), within the decoder's head caps and [`MAX_BODY`]. A framing
/// error is an [`io::ErrorKind::InvalidData`] error carrying the
/// [`HttpError`].
pub fn read_response<R: Read>(stream: &mut R) -> io::Result<HttpResponse> {
    read_bounded(stream, MAX_BODY)
}

fn read_bounded<R: Read>(stream: &mut R, max_body: usize) -> io::Result<HttpResponse> {
    let invalid = |e: HttpError| io::Error::new(io::ErrorKind::InvalidData, e);
    let mut raw = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    // The head is decoded again after each read; its cap bounds that
    // work, and the body below is read once, by its framing.
    let (head, head_len) = loop {
        if let Some(decoded) = parse_response_head(&raw).map_err(invalid)? {
            break decoded;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(invalid(HttpError::Truncated));
        }
        raw.extend_from_slice(&chunk[..n]);
    };
    let want = match head.framing {
        Framing::Length(len) if len > max_body => return Err(invalid(HttpError::BodyTooLarge)),
        Framing::Length(len) => len,
        // A close-delimited body runs to EOF; reading one byte past the
        // bound is enough to know it ran over.
        Framing::UntilClose => max_body + 1,
        Framing::NoBody => 0,
    };
    let mut body = raw.split_off(head_len);
    let missing = want.saturating_sub(body.len()) as u64;
    stream.by_ref().take(missing).read_to_end(&mut body)?;
    if matches!(head.framing, Framing::Length(len) if body.len() < len) {
        return Err(invalid(HttpError::Truncated));
    }
    body.truncate(want);
    if body.len() > max_body {
        return Err(invalid(HttpError::BodyTooLarge));
    }
    Ok(HttpResponse {
        status: head.status,
        headers: head.headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripki_serve::http::MAX_HEAD_BYTES;

    #[test]
    fn parses_content_length_response() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\nContent-Length: 5\r\n\r\nhello";
        let response = read_response(&mut &wire[..]).expect("parse");
        assert_eq!(response.status, 200);
        assert_eq!(response.header("content-type"), Some("text/plain"));
        assert_eq!(response.body, b"hello");
    }

    #[test]
    fn parses_close_delimited_response() {
        let wire = b"HTTP/1.1 200 OK\r\netag: \"e-7\"\r\n\r\n{\"roas\":[]}";
        let response = read_response(&mut &wire[..]).expect("parse");
        assert_eq!(response.header("etag"), Some("\"e-7\""));
        assert_eq!(response.body, b"{\"roas\":[]}");
    }

    #[test]
    fn rejects_chunked_and_garbage() {
        let chunked = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n";
        assert!(read_response(&mut &chunked[..]).is_err());
        let garbage = b"SPDY/3 200\r\n\r\n";
        assert!(read_response(&mut &garbage[..]).is_err());
    }

    /// The framing error a response was refused with.
    fn refused(result: io::Result<HttpResponse>) -> HttpError {
        let error = result.expect_err("the response is refused");
        assert_eq!(error.kind(), io::ErrorKind::InvalidData, "{error}");
        error
            .get_ref()
            .and_then(|inner| inner.downcast_ref::<HttpError>())
            .cloned()
            .unwrap_or_else(|| panic!("not a framing error: {error}"))
    }

    #[test]
    fn an_oversized_head_or_body_is_a_typed_error() {
        // A head that never ends, and one that ends past the bound.
        assert_eq!(
            refused(read_response(&mut io::repeat(b'a'))),
            HttpError::HeadTooLarge
        );
        let padded = format!(
            "HTTP/1.1 200 OK\r\nx: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert_eq!(
            refused(read_response(&mut padded.as_bytes())),
            HttpError::HeadTooLarge
        );
        let fits = format!(
            "HTTP/1.1 200 OK\r\nx: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES / 2)
        );
        assert!(read_response(&mut fits.as_bytes()).is_ok());
        // A declared length is refused before anything is allocated for
        // it; a close-delimited body as soon as it runs over.
        let declared = b"HTTP/1.1 200 OK\r\ncontent-length: 999999999999\r\n\r\n";
        assert_eq!(
            refused(read_response(&mut &declared[..])),
            HttpError::BodyTooLarge
        );
        let mut endless = b"HTTP/1.1 200 OK\r\n\r\n".chain(io::repeat(b'x'));
        assert_eq!(
            refused(read_bounded(&mut endless, 1 << 16)),
            HttpError::BodyTooLarge
        );
        // A body cut short by the close is refused, not returned short.
        let short = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhel";
        assert_eq!(
            refused(read_response(&mut &short[..])),
            HttpError::Truncated
        );
    }

    #[test]
    fn a_signed_content_length_is_rejected() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: +5\r\n\r\nhello";
        assert!(matches!(
            refused(read_response(&mut &wire[..])),
            HttpError::Malformed(_)
        ));
    }

    #[test]
    fn disagreeing_content_lengths_are_rejected() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\ncontent-length: 6\r\n\r\nhello!";
        assert!(matches!(
            refused(read_response(&mut &wire[..])),
            HttpError::Malformed(_)
        ));
    }

    /// A reader that fails the test if anything reads past the head.
    struct NothingAfterTheHead;

    impl Read for NothingAfterTheHead {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            Err(io::Error::other("read past a bodiless response's head"))
        }
    }

    #[test]
    fn a_bodiless_status_completes_without_reading_to_eof() {
        for status in ["204 No Content", "304 Not Modified"] {
            let head = format!("HTTP/1.1 {status}\r\netag: \"e-7\"\r\n\r\n");
            let mut wire = head.as_bytes().chain(NothingAfterTheHead);
            let response = read_response(&mut wire).expect(status);
            assert!(response.body.is_empty(), "{status}");
            assert_eq!(response.header("etag"), Some("\"e-7\""), "{status}");
        }
    }

    #[test]
    fn splits_urls() {
        assert_eq!(
            split_url("http://127.0.0.1:8080/vrps.json").expect("url"),
            ("127.0.0.1:8080", "/vrps.json")
        );
        assert_eq!(
            split_url("http://127.0.0.1:8080").expect("url"),
            ("127.0.0.1:8080", "/")
        );
        assert!(split_url("https://x/").is_err());
        assert!(split_url("ftp://x/").is_err());
    }
}
