//! A minimal blocking HTTP/1.1 GET client for the JSON ingest unit.
//!
//! The serving side already has its hardened parser in
//! [`ripki_serve::http`]; this is the *other* direction — just enough
//! client to poll `/vrps.json` with conditional requests. Supports
//! `http://host:port/path` URLs, `Content-Length` bodies, and
//! close-delimited bodies (what [`ripki_serve`] streams its exports
//! as). No redirects, no TLS, no chunked encoding — a peer answering
//! with any of those is an error, not a silent truncation. The upstream
//! is untrusted: a head or body beyond [`MAX_HEAD`] / [`MAX_BODY`] is an
//! error too, before memory is spent on it.

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
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// The longest response head accepted.
pub const MAX_HEAD: usize = 16 << 10;

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

/// Parse a full response off `stream` (status line, headers, body),
/// within [`MAX_HEAD`] and [`MAX_BODY`].
pub fn read_response<R: Read>(stream: &mut R) -> io::Result<HttpResponse> {
    read_bounded(stream, MAX_HEAD, MAX_BODY)
}

fn read_bounded<R: Read>(
    stream: &mut R,
    max_head: usize,
    max_body: usize,
) -> io::Result<HttpResponse> {
    let head_too_long = || bad(format!("response head exceeds {max_head} bytes"));
    let body_too_long = || bad(format!("response body exceeds {max_body} bytes"));
    let mut raw = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    let mut scanned = 0;
    let head_end = loop {
        if let Some(i) = find_head_end(&raw[scanned..]) {
            break scanned + i;
        }
        if raw.len() >= max_head {
            return Err(head_too_long());
        }
        // The terminator may straddle two reads.
        scanned = raw.len().saturating_sub(3);
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed before response head"));
        }
        raw.extend_from_slice(&chunk[..n]);
    };
    if head_end > max_head {
        return Err(head_too_long());
    }
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("unsupported version {version:?}")));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("unparseable status code"))?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad(format!("malformed header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let response = HttpResponse {
        status,
        headers,
        body: Vec::new(),
    };
    if response
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(bad("chunked transfer encoding is not supported"));
    }
    let mut body = raw.split_off(head_end + 4);
    let declared = match response.header("content-length") {
        Some(len) => Some(
            len.parse::<usize>()
                .map_err(|_| bad(format!("unparseable content-length {len:?}")))?,
        ),
        None => None,
    };
    if declared.is_some_and(|len| len > max_body) {
        return Err(body_too_long());
    }
    // A close-delimited body runs to EOF; reading one byte past the
    // bound is enough to know it ran over.
    let want = declared.unwrap_or(max_body + 1);
    let missing = want.saturating_sub(body.len()) as u64;
    stream.by_ref().take(missing).read_to_end(&mut body)?;
    match declared {
        Some(len) if body.len() < len => return Err(bad("connection closed mid-body")),
        Some(len) => body.truncate(len),
        None if body.len() > max_body => return Err(body_too_long()),
        None => {}
    }
    Ok(HttpResponse { body, ..response })
}

/// Index of the `\r\n\r\n` terminating the head, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn an_oversized_head_or_body_is_a_typed_error() {
        let rejected = |result: io::Result<HttpResponse>, which: &str| {
            let error = result.expect_err("an oversized response is refused");
            assert_eq!(error.kind(), io::ErrorKind::InvalidData);
            assert!(error.to_string().contains(which), "{error}");
        };
        // A head that never ends, and one that ends past the bound.
        rejected(read_response(&mut io::repeat(b'a')), "head exceeds");
        let padded = format!("HTTP/1.1 200 OK\r\nx: {}\r\n\r\n", "a".repeat(64));
        rejected(read_bounded(&mut padded.as_bytes(), 64, 64), "head exceeds");
        assert!(read_bounded(&mut padded.as_bytes(), 128, 64).is_ok());
        // A declared length is refused before anything is allocated for
        // it; a close-delimited body as soon as it runs over.
        let declared = b"HTTP/1.1 200 OK\r\ncontent-length: 999999999999\r\n\r\n";
        rejected(read_response(&mut &declared[..]), "body exceeds");
        let mut endless = b"HTTP/1.1 200 OK\r\n\r\n".chain(io::repeat(b'x'));
        rejected(read_bounded(&mut endless, 1 << 10, 1 << 16), "body exceeds");
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
