//! A blocking HTTP/1.1 client that times each phase of a request:
//! connect, send, time to first byte and body transfer. One request per
//! connection, matching the server's `Connection: close` model.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Phase timings of one request, microseconds, plus the response size.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// TCP connect.
    pub connect_us: f64,
    /// Writing the request.
    pub send_us: f64,
    /// From the request written to the first response byte.
    pub ttfb_us: f64,
    /// From the first response byte to the connection's close.
    pub body_us: f64,
    /// Response bytes, headers included.
    pub bytes: usize,
}

/// A completed request.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// Phase timings.
    pub timing: Timing,
}

/// Issue one request; `body` of `Some(..)` is sent with a
/// `Content-Length` (POST).
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<Response> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let t_connect = Instant::now();
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let t_sent = Instant::now();
    let mut raw = Vec::with_capacity(4096);
    let mut buf = [0u8; 16 * 1024];
    let first = stream.read(&mut buf)?;
    let t_first = Instant::now();
    raw.extend_from_slice(&buf[..first]);
    if first > 0 {
        stream.read_to_end(&mut raw)?;
    }
    let t_end = Instant::now();
    let (status, body) = pse_serve::client::parse_response(&String::from_utf8_lossy(&raw))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let us = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e6;
    Ok(Response {
        status,
        body,
        timing: Timing {
            connect_us: us(t0, t_connect),
            send_us: us(t_connect, t_sent),
            ttfb_us: us(t_sent, t_first),
            body_us: us(t_first, t_end),
            bytes: raw.len(),
        },
    })
}

/// Percent-encode one query value (everything but unreserved characters).
pub fn encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_values_are_percent_encoded() {
        assert_eq!(encode("abc-123"), "abc-123");
        assert_eq!(encode("a b&c=d"), "a%20b%26c%3Dd");
    }
}
