//! Per-connection state machine, with its deadline, for the event loop
//! that serves every client connection.
//!
//! A [`Conn`] owns one non-blocking stream and walks it through the
//! protocol's phases — **Reading** (incremental [`RequestParser`] over
//! whatever fragments arrive), **Handling** (request dispatched to a
//! worker; no I/O interest), **Writing** (draining pre-serialized
//! response bytes across partial writes). The state machine is generic
//! over `Read + Write` so fault-injection tests drive it with scripted
//! in-memory streams instead of sockets. The protocol is one request, one
//! `Connection: close` response, whose bytes are exactly
//! [`Response::to_bytes`] of what the handler returned.
//!
//! This module owns the two per-connection time budgets: [`READ_DEADLINE`]
//! for a whole request and [`WRITE_DEADLINE`] for a whole response. A
//! slowloris client trickling (or sipping) one byte at a time is closed
//! when its budget runs out, however steadily it sends.
//!
//! Each connection carries one deadline, which its phase sets: the read
//! deadline from accept, none while a worker holds the request, and the
//! write deadline from the first refused write. The caller passes the
//! time in (no clock reads here), so deadline tests inject any "now" they
//! like and run in microseconds.

use crate::http::{HttpError, Request, RequestParser, Response};
use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// How often the event loop looks for expired connections while any is
/// open — coarse is fine, the deadlines are tens of seconds.
pub const TICK: Duration = Duration::from_millis(100);

/// Total time budget for reading one request (request line + headers +
/// body), counted from accept.
pub const READ_DEADLINE: Duration = Duration::from_secs(30);

/// Total time budget for writing one response, counted from the moment
/// the socket first refuses more bytes.
pub const WRITE_DEADLINE: Duration = Duration::from_secs(60);

/// Which protocol phase a connection is in.
#[derive(Debug)]
enum Phase {
    /// Accumulating request bytes into the resumable parser.
    Reading(RequestParser),
    /// Request handed to a worker; no I/O interest until it completes.
    Handling,
    /// Draining serialized response bytes.
    Writing { buf: Vec<u8>, written: usize },
}

/// What the event loop should do after pumping a readable connection.
#[derive(Debug)]
pub enum ReadStep {
    /// More bytes needed — keep read interest and the read deadline.
    Continue,
    /// A full request framed: hand it to the workers, drop I/O interest.
    Dispatch(Request),
    /// A protocol error staged an error response: switch to write
    /// interest.
    Respond,
    /// The peer is gone (EOF/reset mid-request) — close now.
    Close,
}

/// What the event loop should do after pumping a writable connection.
#[derive(Debug, PartialEq, Eq)]
pub enum WriteStep {
    /// The socket buffer filled — keep write interest.
    Blocked,
    /// Response fully drained — close (the protocol is one-shot).
    Done,
    /// The peer vanished mid-response — close.
    Close,
}

/// One connection owned by the event loop.
#[derive(Debug)]
pub struct Conn<S> {
    stream: S,
    /// When the connection is closed if it is still open (see the module
    /// docs); `None` while a worker holds the request.
    deadline: Option<Instant>,
    phase: Phase,
}

impl<S: Read + Write> Conn<S> {
    /// A connection accepted at `now`, in the Reading phase with the
    /// read deadline set.
    pub fn new(stream: S, now: Instant) -> Conn<S> {
        Conn {
            stream,
            deadline: Some(now + READ_DEADLINE),
            phase: Phase::Reading(RequestParser::new()),
        }
    }

    /// True once the connection's deadline has passed at `now`.
    pub fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|deadline| now >= deadline)
    }

    /// The underlying stream (the event loop needs its fd).
    pub fn stream(&self) -> &S {
        &self.stream
    }

    /// True while a dispatched request is with the workers.
    pub fn is_handling(&self) -> bool {
        matches!(self.phase, Phase::Handling)
    }

    /// True while response bytes remain to drain.
    pub fn is_writing(&self) -> bool {
        matches!(self.phase, Phase::Writing { .. })
    }

    /// Pump reads: pull whatever the socket has through the parser.
    ///
    /// `scratch` is the caller's reusable read buffer (one per event
    /// loop, not per connection). EAGAIN leaves the phase — and with it
    /// the read deadline — untouched.
    pub fn on_readable(&mut self, scratch: &mut [u8]) -> ReadStep {
        loop {
            let Phase::Reading(parser) = &mut self.phase else {
                // Readiness on a non-reading conn means HUP/ERR was
                // folded into the event; the write path (or the close
                // below) will observe the failure. Nothing to read here.
                return ReadStep::Continue;
            };
            match parser.poll() {
                Ok(Some(request)) => {
                    self.deadline = None;
                    self.phase = Phase::Handling;
                    return ReadStep::Dispatch(request);
                }
                Ok(None) => {}
                Err(HttpError::Io(_)) => return ReadStep::Close,
                Err(HttpError::Malformed(msg)) => {
                    self.stage_response(&Response::error(400, &msg));
                    return ReadStep::Respond;
                }
                Err(HttpError::TooLarge(msg)) => {
                    self.stage_response(&Response::error(413, &msg));
                    return ReadStep::Respond;
                }
            }
            if parser.saw_eof() {
                // poll() after EOF either framed a request or failed —
                // reaching here means it returned Ok(None) without EOF
                // being consumed yet; the next poll settles it.
                return ReadStep::Close;
            }
            match self.stream.read(scratch) {
                Ok(0) => {
                    let Phase::Reading(parser) = &mut self.phase else {
                        unreachable!("phase unchanged since match above");
                    };
                    parser.feed_eof();
                }
                Ok(n) => {
                    let Phase::Reading(parser) = &mut self.phase else {
                        unreachable!("phase unchanged since match above");
                    };
                    parser.feed(&scratch[..n]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return ReadStep::Continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return ReadStep::Close,
            }
        }
    }

    /// Queue a serialized response for draining and enter the Writing
    /// phase. This retires any read deadline; the write deadline is set
    /// by the first refused write.
    pub fn stage_response(&mut self, response: &Response) {
        let mut buf = Vec::new();
        response.to_bytes(&mut buf);
        self.deadline = None;
        self.phase = Phase::Writing { buf, written: 0 };
    }

    /// Pump writes at `now`: push staged response bytes until done or
    /// EAGAIN. The first EAGAIN sets the write deadline; later ones keep it.
    pub fn on_writable(&mut self, now: Instant) -> WriteStep {
        loop {
            let Phase::Writing { buf, written } = &mut self.phase else {
                return WriteStep::Blocked; // spurious wakeup
            };
            if *written == buf.len() {
                let _ = self.stream.flush();
                return WriteStep::Done;
            }
            match self.stream.write(&buf[*written..]) {
                Ok(0) => return WriteStep::Close,
                Ok(n) => *written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.deadline.get_or_insert(now + WRITE_DEADLINE);
                    return WriteStep::Blocked;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return WriteStep::Close,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::io;

    /// A scripted stream: reads pop from a queue of results, writes
    /// accept at most `write_budget` bytes before returning EAGAIN.
    struct FakeStream {
        reads: VecDeque<io::Result<Vec<u8>>>,
        write_budget: usize,
        written: Vec<u8>,
    }

    impl FakeStream {
        fn new() -> FakeStream {
            FakeStream {
                reads: VecDeque::new(),
                write_budget: usize::MAX,
                written: Vec::new(),
            }
        }

        fn push_read(&mut self, bytes: &[u8]) {
            self.reads.push_back(Ok(bytes.to_vec()));
        }

        fn push_eagain(&mut self) {
            self.reads
                .push_back(Err(io::Error::new(io::ErrorKind::WouldBlock, "eagain")));
        }
    }

    impl Read for FakeStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.reads.pop_front() {
                Some(Ok(bytes)) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(Err(e)) => Err(e),
                None => Err(io::Error::new(io::ErrorKind::WouldBlock, "script empty")),
            }
        }
    }

    impl Write for FakeStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.write_budget == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "buffer full"));
            }
            let n = buf.len().min(self.write_budget);
            self.write_budget -= n;
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn fragmented_request_dispatches_once_complete() {
        let mut stream = FakeStream::new();
        stream.push_read(b"POST /x HTTP/1.1\r\nConte");
        stream.push_eagain();
        stream.push_read(b"nt-Length: 2\r\n\r\n");
        stream.push_eagain();
        stream.push_read(b"ok");
        let mut conn = Conn::new(stream, Instant::now());
        let mut scratch = vec![0u8; 4096];

        assert!(matches!(conn.on_readable(&mut scratch), ReadStep::Continue));
        assert!(matches!(conn.on_readable(&mut scratch), ReadStep::Continue));
        match conn.on_readable(&mut scratch) {
            ReadStep::Dispatch(req) => {
                assert_eq!(req.method, "POST");
                assert_eq!(req.body, b"ok");
            }
            other => panic!("expected dispatch, got {other:?}"),
        }
        assert!(conn.is_handling());
    }

    #[test]
    fn malformed_request_stages_error_response() {
        let mut stream = FakeStream::new();
        stream.push_read(b"NOT HTTP AT ALL\r\n\r\n");
        let mut conn = Conn::new(stream, Instant::now());
        let mut scratch = vec![0u8; 4096];
        assert!(matches!(conn.on_readable(&mut scratch), ReadStep::Respond));
        assert!(conn.is_writing());
        assert_eq!(conn.on_writable(Instant::now()), WriteStep::Done);
    }

    #[test]
    fn peer_eof_mid_request_closes() {
        let mut stream = FakeStream::new();
        stream.push_read(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nab");
        stream.push_read(b""); // EOF
        let mut conn = Conn::new(stream, Instant::now());
        let mut scratch = vec![0u8; 4096];
        assert!(matches!(conn.on_readable(&mut scratch), ReadStep::Close));
    }

    #[test]
    fn half_closed_peer_with_complete_request_still_dispatches() {
        // Client sends the whole request then shutdown(SHUT_WR): read
        // returns the bytes, then EOF — the request must still dispatch.
        let mut stream = FakeStream::new();
        stream.push_read(b"GET /health HTTP/1.1\r\n\r\n");
        stream.push_read(b""); // EOF
        let mut conn = Conn::new(stream, Instant::now());
        let mut scratch = vec![0u8; 4096];
        assert!(matches!(
            conn.on_readable(&mut scratch),
            ReadStep::Dispatch(_)
        ));
    }

    #[test]
    fn partial_writes_drain_across_eagain_cycles() {
        let mut stream = FakeStream::new();
        stream.write_budget = 5;
        let mut conn = Conn::new(stream, Instant::now());
        let response = Response::error(404, "nope");
        let mut expected = Vec::new();
        response.to_bytes(&mut expected);
        conn.stage_response(&response);

        let mut rounds = 0;
        loop {
            match conn.on_writable(Instant::now()) {
                WriteStep::Done => break,
                WriteStep::Blocked => {
                    // Socket drained by the peer: restore some budget.
                    assert!(conn.is_writing(), "blocked implies writing");
                    conn.stream.write_budget = 7;
                    rounds += 1;
                    assert!(rounds < 100, "must terminate");
                }
                WriteStep::Close => panic!("no close in script"),
            }
        }
        assert_eq!(conn.stream.written, expected, "bytes drained in order");
        assert!(rounds > 1, "test must actually exercise partial writes");
    }

    // ---- deadlines ----

    #[test]
    fn expired_read_deadline_mid_header_closes_connection() {
        // The client sent half a request line and stalled: the read
        // deadline set at accept expires READ_DEADLINE later.
        let mut stream = FakeStream::new();
        stream.push_read(b"GET /slow");
        let accepted = Instant::now();
        let mut conn = Conn::new(stream, accepted);
        let mut scratch = vec![0u8; 4096];

        assert!(matches!(conn.on_readable(&mut scratch), ReadStep::Continue));
        let due = accepted + READ_DEADLINE;
        assert!(!conn.expired(due - Duration::from_millis(1)));
        assert!(conn.expired(due), "read deadline counts from accept");
    }

    #[test]
    fn expired_write_deadline_mid_body_is_live() {
        // Response partially drained, client stopped reading: the write
        // deadline counts from the first refused write, and later refused
        // writes do not push it back.
        let mut stream = FakeStream::new();
        stream.write_budget = 3;
        let accepted = Instant::now();
        let mut conn = Conn::new(stream, accepted);
        conn.stage_response(&Response::error(404, "x"));
        let refused = accepted + Duration::from_secs(40);

        assert_eq!(conn.on_writable(refused), WriteStep::Blocked);
        let later = refused + Duration::from_secs(30);
        assert_eq!(
            conn.on_writable(later),
            WriteStep::Blocked,
            "EAGAIN is sticky"
        );
        let due = refused + WRITE_DEADLINE;
        assert!(!conn.expired(due - Duration::from_millis(1)));
        assert!(
            conn.expired(due),
            "write deadline counts from the first refusal"
        );
    }

    #[test]
    fn deadline_survives_eagain_cycles_but_retires_on_dispatch() {
        let mut stream = FakeStream::new();
        stream.push_read(b"GET /x HT");
        stream.push_eagain();
        stream.push_eagain();
        stream.push_read(b"TP/1.1\r\n\r\n");
        let accepted = Instant::now();
        let mut conn = Conn::new(stream, accepted);
        let mut scratch = vec![0u8; 4096];

        // EAGAIN-terminated pump rounds keep the accept-time deadline.
        assert!(matches!(conn.on_readable(&mut scratch), ReadStep::Continue));
        assert!(matches!(conn.on_readable(&mut scratch), ReadStep::Continue));
        assert!(conn.expired(accepted + READ_DEADLINE));

        // The rest arrives; while a worker holds the request, nothing
        // expires, however long the handler runs.
        assert!(matches!(
            conn.on_readable(&mut scratch),
            ReadStep::Dispatch(_)
        ));
        assert!(!conn.expired(accepted + READ_DEADLINE + WRITE_DEADLINE));
    }
}
