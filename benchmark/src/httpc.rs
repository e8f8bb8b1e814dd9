//! A minimal blocking HTTP/1.1 client for loopback load: keep-alive,
//! one request in flight per connection, transparent reconnect when the
//! server closes (streamed bodies, the per-connection request cap).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

pub struct HttpConn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Connections opened after the first (server-initiated closes).
    pub reconnects: u64,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl HttpConn {
    pub fn new(addr: SocketAddr) -> HttpConn {
        HttpConn {
            addr,
            stream: None,
            buf: Vec::with_capacity(4096),
            reconnects: 0,
        }
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(5)))?;
            self.buf.clear();
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("stream just ensured"))
    }

    /// Write one GET; pair with [`HttpConn::recv`].
    pub fn send(&mut self, path: &str) -> io::Result<()> {
        let request = format!("GET {path} HTTP/1.1\r\nhost: bench\r\n\r\n");
        self.stream()?.write_all(request.as_bytes())
    }

    /// Read one full response (head and body).
    pub fn recv(&mut self) -> io::Result<Reply> {
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(at) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break at + 4;
            }
            let n = self.stream()?.read(&mut chunk)?;
            if n == 0 {
                self.stream = None;
                return Err(bad("connection closed before a response head"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length: Option<usize> = None;
        let mut close = false;
        for line in head.lines().skip(1) {
            if let Some(v) = line.strip_prefix("content-length: ") {
                length = v.trim().parse().ok();
            } else if line == "connection: close" {
                close = true;
            }
        }
        let mut body = self.buf.split_off(head_end);
        self.buf.clear();
        match length {
            Some(len) => {
                while body.len() < len {
                    let n = self.stream()?.read(&mut chunk)?;
                    if n == 0 {
                        self.stream = None;
                        return Err(bad("connection closed inside a body"));
                    }
                    body.extend_from_slice(&chunk[..n]);
                }
                // One request in flight: nothing may follow the body.
                if body.len() != len {
                    return Err(bad("bytes beyond content-length"));
                }
            }
            // Close-delimited (streamed export): the body runs to EOF.
            None => {
                self.stream()?.read_to_end(&mut body)?;
                close = true;
            }
        }
        if close {
            self.stream = None;
            self.reconnects += 1;
        }
        Ok(Reply { status, body })
    }

    pub fn get(&mut self, path: &str) -> io::Result<Reply> {
        self.send(path)?;
        self.recv()
    }
}

/// The integer after `"key":` in a JSON body (first occurrence).
pub fn json_u64(body: &[u8], key: &str) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let needle = format!("\"{key}\":");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The string after `"key":"` in a JSON body (first occurrence).
pub fn json_str<'a>(body: &'a [u8], key: &str) -> Option<&'a str> {
    let text = std::str::from_utf8(body).ok()?;
    let needle = format!("\"{key}\":\"");
    let rest = &text[text.find(&needle)? + needle.len()..];
    rest.split('"').next()
}

/// The value of the unlabelled sample `name` in a Prometheus scrape.
pub fn prometheus_value(body: &[u8], name: &str) -> Option<f64> {
    std::str::from_utf8(body).ok()?.lines().find_map(|line| {
        line.strip_prefix(name)?
            .strip_prefix(' ')?
            .trim()
            .parse()
            .ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_field_scanners() {
        let body = br#"{"validated_route":{"validity":{"state":"not-found"}},"epoch":17}"#;
        assert_eq!(json_u64(body, "epoch"), Some(17));
        assert_eq!(json_str(body, "state"), Some("not-found"));
        assert_eq!(json_u64(body, "absent"), None);
        let scrape =
            b"# TYPE ripki_serve_epoch gauge\nripki_serve_epoch 12\nripki_serve_epoch_lag 3\n";
        assert_eq!(prometheus_value(scrape, "ripki_serve_epoch"), Some(12.0));
        assert_eq!(prometheus_value(scrape, "ripki_serve"), None);
    }
}
