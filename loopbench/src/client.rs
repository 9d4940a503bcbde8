//! The closed-loop HTTP client: one request per connection, as the server
//! speaks it, with optional split timestamps for the traced run.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Read timeout per socket read; the slowest request (a d=100 refit) is
/// far below it.
const READ_TIMEOUT: Duration = Duration::from_secs(120);

/// Serialized request bytes, the same framing `sider_loadgen` sends.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: sider\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Instants of one exchange. Without tracing only `start` and `end` are
/// taken; the split points repeat `start`.
#[derive(Debug, Clone, Copy)]
pub struct Stamps {
    /// Before connect.
    pub start: Instant,
    /// Connection established.
    pub connected: Instant,
    /// Request written.
    pub sent: Instant,
    /// First response byte read.
    pub first_byte: Instant,
    /// Last response byte read (EOF).
    pub end: Instant,
}

/// A parsed reply.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Offset of the body within the response buffer.
    pub body_at: usize,
}

/// Send one request and read the whole response into `buf` (cleared).
/// Transport failures and malformed replies are `Err`; the timestamps are
/// returned either way so a failed attempt still has a duration.
pub fn exchange(
    addr: SocketAddr,
    request: &[u8],
    buf: &mut Vec<u8>,
    split: bool,
) -> (Result<Reply, String>, Stamps) {
    let start = Instant::now();
    let mut stamps = Stamps {
        start,
        connected: start,
        sent: start,
        first_byte: start,
        end: start,
    };
    let result = exchange_inner(addr, request, buf, split, &mut stamps);
    stamps.end = Instant::now();
    (result, stamps)
}

fn exchange_inner(
    addr: SocketAddr,
    request: &[u8],
    buf: &mut Vec<u8>,
    split: bool,
    stamps: &mut Stamps,
) -> Result<Reply, String> {
    buf.clear();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    if split {
        stamps.connected = Instant::now();
    }
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| format!("socket: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("socket: {e}"))?;
    stream
        .write_all(request)
        .map_err(|e| format!("send: {e}"))?;
    if split {
        stamps.sent = Instant::now();
    }
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let n = stream.read(&mut chunk).map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            break;
        }
        if split && buf.is_empty() {
            stamps.first_byte = Instant::now();
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    parse_reply(buf)
}

/// Frame a complete response: status line, headers, and a body whose
/// length matches `Content-Length`.
pub fn parse_reply(buf: &[u8]) -> Result<Reply, String> {
    let head_end = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("no header terminator in {} bytes", buf.len()))?;
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|e| format!("head: {e}"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let length: usize = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .ok_or("no content-length")?;
    let body_at = head_end + 4;
    if buf.len() - body_at != length {
        return Err(format!(
            "body is {} bytes, content-length {length}",
            buf.len() - body_at
        ));
    }
    Ok(Reply { status, body_at })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_a_response() {
        let raw = b"HTTP/1.1 201 Created\r\nContent-Type: application/json\r\nContent-Length: 3\r\nConnection: close\r\n\r\n{}\n";
        let r = parse_reply(raw).unwrap();
        assert_eq!(r.status, 201);
        assert_eq!(&raw[r.body_at..], b"{}\n");
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{}\n").is_err());
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\n").is_err());
    }

    #[test]
    fn a_refused_connection_is_a_transport_error() {
        // Bind then drop a listener: its port refuses connections.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let (result, stamps) = exchange(
            addr,
            b"GET /health HTTP/1.1\r\n\r\n",
            &mut Vec::new(),
            false,
        );
        assert!(result.unwrap_err().starts_with("connect:"));
        assert!(stamps.end >= stamps.start);
    }
}
