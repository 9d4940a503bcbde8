//! Minimal HTTP/1.1 plumbing: request parsing and response serialization.
//!
//! Scope is deliberately small — exactly what a JSON API over TCP needs:
//! request line + headers + `Content-Length` body in, status line +
//! headers + body out, one request per connection (every response carries
//! `Connection: close`, which HTTP/1.1 clients honor). No chunked
//! encoding, no TLS, no keep-alive: the server's unit of work is one
//! exploration-loop step, which dwarfs connection setup.
//!
//! Parsing is built around [`RequestParser`], a resumable push parser:
//! bytes are `feed`-ed in whatever fragments the transport produces and
//! `poll` returns a complete [`Request`] once one is framed.
//! [`Response::to_bytes`] serializes a response into one buffer. Neither
//! touches a socket: the event loop's [`crate::conn::Conn`] moves the
//! bytes and enforces the read and write deadlines.
//!
//! Responses never include a `Date` header or any other
//! run-dependent field — response bytes are a pure function of the request
//! and session state, which is what lets the end-to-end tests compare
//! whole responses byte for byte across thread counts.

use sider_json::Json;
use std::io::Write;

/// Parsing limit: maximal total header block size.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Parsing limit: maximal request body size (inline CSV datasets are the
/// largest legitimate payload).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Why a request could not be served at the HTTP layer.
#[derive(Debug)]
pub enum HttpError {
    /// The stream ended before a request was framed (the client went
    /// away mid-request).
    Io(std::io::Error),
    /// The bytes were not a well-formed HTTP/1.1 request.
    Malformed(String),
    /// A size limit was exceeded; the payload carries the offending limit.
    TooLarge(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o: {e}"),
            HttpError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            HttpError::TooLarge(msg) => write!(f, "request too large: {msg}"),
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Decoded path without the query string (`/api/sessions/s1`).
    pub path: String,
    /// Raw query string, if any (without the `?`).
    pub query: Option<String>,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body parsed as JSON; an empty body parses as `{}` (every POST
    /// endpoint treats all fields as optional).
    pub fn json_body(&self) -> Result<Json, String> {
        if self.body.is_empty() {
            return Ok(Json::Obj(Default::default()));
        }
        let text =
            std::str::from_utf8(&self.body).map_err(|e| format!("body is not UTF-8: {e}"))?;
        Json::parse(text)
    }
}

/// Fields of a request whose headers are still being parsed.
#[derive(Debug)]
struct PartialRequest {
    method: String,
    path: String,
    query: Option<String>,
    headers: Vec<(String, String)>,
}

/// Where the parser stands inside the current request.
#[derive(Debug)]
enum ParseState {
    /// Waiting for (the rest of) the request line.
    RequestLine,
    /// Request line parsed; collecting header lines.
    Headers(PartialRequest),
    /// Headers complete; waiting for `usize` body bytes.
    Body(PartialRequest, usize),
}

/// Which [`HttpError`] variant a stored failure rebuilds into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailKind {
    Io(std::io::ErrorKind),
    Malformed,
    TooLarge,
}

/// A sticky, replayable parse failure: kind + message + the absolute
/// stream offset at which it was detected.
#[derive(Debug)]
struct StoredError {
    kind: FailKind,
    message: String,
    offset: usize,
}

impl StoredError {
    fn rebuild(&self) -> HttpError {
        match self.kind {
            FailKind::Io(k) => HttpError::Io(std::io::Error::new(k, self.message.clone())),
            FailKind::Malformed => HttpError::Malformed(self.message.clone()),
            FailKind::TooLarge => HttpError::TooLarge(self.message.clone()),
        }
    }
}

/// A resumable HTTP/1.1 request parser.
///
/// Bytes arrive via [`RequestParser::feed`] in arbitrary fragments;
/// [`RequestParser::poll`] makes as much progress as the buffered bytes
/// allow and returns `Ok(Some(request))` once a full request is framed.
/// After a request is returned the parser resets and keeps any surplus
/// bytes, so pipelined requests on one stream frame one after another.
///
/// Failures are **sticky** and **chunking-invariant**: once `poll`
/// reports an error, every later `poll` reports the same error, and
/// [`RequestParser::error_offset`] names the absolute byte offset at
/// which the failure was detected — the same offset no matter how the
/// stream was split into `feed` calls. That invariance is what the
/// framing property tests pin.
#[derive(Debug)]
pub struct RequestParser {
    /// Unconsumed stream bytes (current line/body onward).
    buf: Vec<u8>,
    /// Absolute stream offset of `buf[0]`.
    base: usize,
    /// Start of the current line within `buf`.
    line_start: usize,
    /// Scan cursor: `buf[line_start..scan]` is known to be `\n`-free.
    scan: usize,
    state: ParseState,
    /// Cumulative header-line bytes for the current request.
    header_bytes: usize,
    eof: bool,
    failed: Option<StoredError>,
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestParser {
    /// A parser at the start of a stream.
    pub fn new() -> RequestParser {
        RequestParser {
            buf: Vec::new(),
            base: 0,
            line_start: 0,
            scan: 0,
            state: ParseState::RequestLine,
            header_bytes: 0,
            eof: false,
            failed: None,
        }
    }

    /// Append newly received stream bytes. Ignored after a failure (the
    /// error is already determined, buffering more would be waste).
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.failed.is_none() && !self.eof {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Signal end-of-stream: no more bytes will ever arrive.
    pub fn feed_eof(&mut self) {
        self.eof = true;
    }

    /// True once end-of-stream has been signalled.
    pub fn saw_eof(&self) -> bool {
        self.eof
    }

    /// The absolute stream offset at which parsing failed, if it has.
    /// Depends only on stream content, never on how it was chunked.
    pub fn error_offset(&self) -> Option<usize> {
        self.failed.as_ref().map(|f| f.offset)
    }

    /// Record a failure and return it; later polls replay it.
    fn fail(&mut self, kind: FailKind, message: String, offset: usize) -> HttpError {
        let stored = StoredError {
            kind,
            message,
            offset,
        };
        let err = stored.rebuild();
        self.failed = Some(stored);
        err
    }

    /// Drop consumed bytes so the buffer never grows past one request.
    fn compact(&mut self) {
        if self.line_start > 0 {
            self.buf.drain(..self.line_start);
            self.base += self.line_start;
            self.scan -= self.line_start;
            self.line_start = 0;
        }
    }

    /// Try to take one complete header-section line from the buffer.
    ///
    /// Returns the line (terminator stripped) plus the absolute offset of
    /// its terminating `\n` — the offset any malformed-line error is
    /// attributed to. `Ok(None)` means more bytes are needed. At EOF a
    /// trailing unterminated line is returned as if terminated; an empty
    /// buffer at EOF fails.
    fn take_line(&mut self) -> Result<Option<(String, usize)>, HttpError> {
        // Overlong-line check runs *before* looking for the terminator so
        // the failure offset is independent of whether the terminator has
        // arrived yet — the first excess byte is the crime scene.
        let newline = self.buf[self.scan..].iter().position(|&b| b == b'\n');
        let line_len_so_far = match newline {
            Some(p) => self.scan + p - self.line_start,
            None => self.buf.len() - self.line_start,
        };
        if line_len_so_far > MAX_HEADER_BYTES {
            let offset = self.base + self.line_start + MAX_HEADER_BYTES;
            return Err(self.fail(
                FailKind::TooLarge,
                format!("line exceeds {MAX_HEADER_BYTES} bytes"),
                offset,
            ));
        }
        let (end, nl_offset) = match newline {
            Some(p) => (self.scan + p, self.base + self.scan + p),
            None => {
                self.scan = self.buf.len();
                if !self.eof {
                    return Ok(None);
                }
                if self.buf.len() == self.line_start {
                    let offset = self.base + self.line_start;
                    let msg = if offset == 0 {
                        "connection closed before request line"
                    } else {
                        "connection closed mid-request"
                    };
                    return Err(self.fail(
                        FailKind::Io(std::io::ErrorKind::UnexpectedEof),
                        msg.to_string(),
                        offset,
                    ));
                }
                // EOF terminates the trailing line.
                (self.buf.len(), self.base + self.buf.len())
            }
        };
        let mut line = &self.buf[self.line_start..end];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        let line = match std::str::from_utf8(line) {
            Ok(s) => s.to_string(),
            Err(e) => {
                return Err(self.fail(
                    FailKind::Malformed,
                    format!("non-UTF-8 header: {e}"),
                    nl_offset,
                ))
            }
        };
        self.line_start = (end + 1).min(self.buf.len());
        self.scan = self.line_start;
        Ok(Some((line, nl_offset)))
    }

    /// Advance the state machine as far as the buffered bytes allow.
    pub fn poll(&mut self) -> Result<Option<Request>, HttpError> {
        if let Some(f) = &self.failed {
            return Err(f.rebuild());
        }
        loop {
            if let ParseState::Body(_, content_length) = &self.state {
                let content_length = *content_length;
                if self.buf.len() < content_length {
                    if self.eof {
                        let offset = self.base + self.buf.len();
                        return Err(self.fail(
                            FailKind::Io(std::io::ErrorKind::UnexpectedEof),
                            "connection closed mid-body".to_string(),
                            offset,
                        ));
                    }
                    return Ok(None);
                }
                let body: Vec<u8> = self.buf.drain(..content_length).collect();
                self.base += content_length;
                self.line_start = 0;
                self.scan = 0;
                self.header_bytes = 0;
                let partial = match std::mem::replace(&mut self.state, ParseState::RequestLine) {
                    ParseState::Body(partial, _) => partial,
                    _ => unreachable!("checked above"),
                };
                return Ok(Some(Request {
                    method: partial.method,
                    path: partial.path,
                    query: partial.query,
                    headers: partial.headers,
                    body,
                }));
            }
            let Some((line, nl_offset)) = self.take_line()? else {
                return Ok(None);
            };
            match std::mem::replace(&mut self.state, ParseState::RequestLine) {
                ParseState::RequestLine => {
                    let mut parts = line.split_whitespace();
                    let (method, target, version) = match (parts.next(), parts.next(), parts.next())
                    {
                        (Some(m), Some(t), Some(v)) => (m, t, v),
                        _ => {
                            return Err(self.fail(
                                FailKind::Malformed,
                                format!("bad request line: {line:?}"),
                                nl_offset,
                            ))
                        }
                    };
                    if !version.starts_with("HTTP/1.") {
                        return Err(self.fail(
                            FailKind::Malformed,
                            format!("bad version: {version}"),
                            nl_offset,
                        ));
                    }
                    let (path, query) = match target.split_once('?') {
                        Some((p, q)) => (p.to_string(), Some(q.to_string())),
                        None => (target.to_string(), None),
                    };
                    self.state = ParseState::Headers(PartialRequest {
                        method: method.to_string(),
                        path,
                        query,
                        headers: Vec::new(),
                    });
                }
                ParseState::Headers(mut partial) => {
                    if line.is_empty() {
                        // Blank line: headers complete. Resolve the body
                        // length before buffering a single body byte.
                        let content_length =
                            match partial.headers.iter().find(|(n, _)| n == "content-length") {
                                Some((_, v)) => match v.parse::<usize>() {
                                    Ok(n) => n,
                                    Err(_) => {
                                        return Err(self.fail(
                                            FailKind::Malformed,
                                            format!("bad content-length: {v:?}"),
                                            nl_offset,
                                        ))
                                    }
                                },
                                None => 0,
                            };
                        if content_length > MAX_BODY_BYTES {
                            return Err(self.fail(
                                FailKind::TooLarge,
                                format!("body of {content_length} bytes exceeds {MAX_BODY_BYTES}"),
                                nl_offset,
                            ));
                        }
                        self.compact();
                        self.state = ParseState::Body(partial, content_length);
                    } else {
                        self.header_bytes += line.len();
                        if self.header_bytes > MAX_HEADER_BYTES {
                            return Err(self.fail(
                                FailKind::TooLarge,
                                format!("header block exceeds {MAX_HEADER_BYTES} bytes"),
                                nl_offset,
                            ));
                        }
                        let Some((name, value)) = line.split_once(':') else {
                            return Err(self.fail(
                                FailKind::Malformed,
                                format!("bad header line: {line:?}"),
                                nl_offset,
                            ));
                        };
                        partial
                            .headers
                            .push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
                        self.state = ParseState::Headers(partial);
                    }
                }
                ParseState::Body(..) => unreachable!("body state handled above"),
            }
        }
    }
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (200, 404, …).
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, value: &Json) -> Response {
        let mut body = value.dump().into_bytes();
        body.push(b'\n');
        Response {
            status,
            content_type: "application/json",
            body,
        }
    }

    /// A `200 OK` SVG response (the rendered SIDER view).
    pub fn svg(body: String) -> Response {
        Response {
            status: 200,
            content_type: "image/svg+xml",
            body: body.into_bytes(),
        }
    }

    /// An error response with a JSON `{"error": …}` body.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, &Json::obj([("error", Json::from(message))]))
    }

    /// The standard reason phrase for the status code.
    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            201 => "Created",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            _ => "Unknown",
        }
    }

    /// Serialize head + body into `out` (cleared first). The fixed header
    /// set (`Content-Type`, `Content-Length`, `Connection: close`) is
    /// deliberately free of dates and versions so identical API state
    /// produces identical bytes — the event loop queues exactly these
    /// bytes for incremental draining.
    pub fn to_bytes(&self, out: &mut Vec<u8>) {
        out.clear();
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        )
        .expect("writing to a Vec cannot fail");
        out.extend_from_slice(&self.body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One whole stream: every byte, then EOF.
    fn parse(raw: &str) -> Result<Request, HttpError> {
        let mut parser = RequestParser::new();
        parser.feed(raw.as_bytes());
        parser.feed_eof();
        Ok(parser.poll()?.expect("at EOF the parser frames or fails"))
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse("GET /api/sessions?limit=3 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/api/sessions");
        assert_eq!(req.query.as_deref(), Some("limit=3"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert!(req.body.is_empty());
        assert!(req.json_body().unwrap().as_obj().unwrap().is_empty());
    }

    #[test]
    fn parses_post_with_content_length() {
        let req = parse(
            "POST /x HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 13\r\n\r\n{\"seed\": 42}\n",
        )
        .unwrap();
        assert_eq!(req.body.len(), 13);
        assert_eq!(req.json_body().unwrap().require_num("seed").unwrap(), 42.0);
    }

    #[test]
    fn lf_only_lines_accepted() {
        let req = parse("GET / HTTP/1.1\nHost: y\n\n").unwrap();
        assert_eq!(req.header("host"), Some("y"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            parse("FLUB\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / SPDY/9\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(parse(""), Err(HttpError::Io(_))));
    }

    #[test]
    fn rejects_oversized_declarations() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(&raw), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn truncated_body_is_io_error() {
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nab"),
            Err(HttpError::Io(_))
        ));
    }

    #[test]
    fn incremental_feed_frames_a_request() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
        let mut parser = RequestParser::new();
        for byte in raw {
            assert!(parser.poll().unwrap().is_none(), "incomplete until fed");
            parser.feed(std::slice::from_ref(byte));
        }
        let req = parser.poll().unwrap().expect("complete after last byte");
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hi");
    }

    #[test]
    fn pipelined_requests_frame_in_order() {
        let mut parser = RequestParser::new();
        parser.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        let a = parser.poll().unwrap().expect("first request");
        assert_eq!(a.path, "/a");
        let b = parser.poll().unwrap().expect("second request");
        assert_eq!(b.path, "/b");
        assert!(parser.poll().unwrap().is_none(), "no third request");
    }

    #[test]
    fn parser_errors_are_sticky_with_stable_offset() {
        let mut parser = RequestParser::new();
        parser.feed(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n");
        let first = parser.poll();
        assert!(matches!(first, Err(HttpError::Malformed(_))));
        let offset = parser.error_offset().expect("offset recorded");
        // The offending '\n' terminates "broken header\r".
        assert_eq!(offset, b"GET / HTTP/1.1\r\nbroken header\r".len());
        parser.feed(b"more bytes that must not matter");
        let again = parser.poll();
        assert!(matches!(again, Err(HttpError::Malformed(_))));
        assert_eq!(parser.error_offset(), Some(offset));
    }

    #[test]
    fn response_bytes_are_deterministic() {
        let resp = Response::json(200, &Json::obj([("ok", Json::from(true))]));
        let mut a = Vec::new();
        let mut b = vec![b'x'; 4];
        resp.to_bytes(&mut a);
        resp.to_bytes(&mut b);
        assert_eq!(a, b, "to_bytes clears its buffer first");
        let text = String::from_utf8(a).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"ok\":true}\n"));
        assert!(!text.contains("Date:"));
    }

    #[test]
    fn error_response_shape() {
        let resp = Response::error(404, "no such session");
        assert_eq!(resp.status, 404);
        assert_eq!(
            String::from_utf8(resp.body).unwrap(),
            "{\"error\":\"no such session\"}\n"
        );
    }
}
