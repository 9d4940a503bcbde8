//! Per-connection state machine + timer wheel for the event loop that
//! serves every client connection.
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
//! Deadlines live in a [`TimerWheel`] keyed by `(token, generation)`:
//! every phase transition bumps the connection's generation, so a timer
//! armed for an earlier phase expires into a stale pair and is ignored —
//! cancellation without searching the wheel. The wheel works purely in
//! abstract tick numbers (no clock reads), so deadline tests inject any
//! "now" they like and run in microseconds.

use crate::http::{HttpError, Request, RequestParser, Response};
use std::io::{Read, Write};
use std::time::Duration;

/// Timer wheel granularity. Deadlines are rounded up to the next tick —
/// coarse is fine, the deadlines are tens of seconds.
pub const TICK: Duration = Duration::from_millis(100);

/// Total time budget for reading one request (request line + headers +
/// body), counted from accept.
pub const READ_DEADLINE: Duration = Duration::from_secs(30);

/// Total time budget for writing one response, counted from the moment
/// the socket first refuses more bytes.
pub const WRITE_DEADLINE: Duration = Duration::from_secs(60);

/// [`READ_DEADLINE`] in ticks.
pub const READ_DEADLINE_TICKS: u64 = ticks(READ_DEADLINE);

/// [`WRITE_DEADLINE`] in ticks.
pub const WRITE_DEADLINE_TICKS: u64 = ticks(WRITE_DEADLINE);

/// Whole ticks in `budget`, rounded up.
const fn ticks(budget: Duration) -> u64 {
    budget.as_millis().div_ceil(TICK.as_millis()) as u64
}

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
    /// interest and arm the write deadline.
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
    /// Poller token (stable for the connection's lifetime, never reused).
    pub token: u64,
    /// Phase generation: bumped on every transition so deadline entries
    /// armed for earlier phases become stale instead of firing.
    pub gen: u64,
    phase: Phase,
}

impl<S: Read + Write> Conn<S> {
    /// A fresh connection in the Reading phase.
    pub fn new(stream: S, token: u64) -> Conn<S> {
        Conn {
            stream,
            token,
            gen: 0,
            phase: Phase::Reading(RequestParser::new()),
        }
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
    /// loop, not per connection). EAGAIN leaves the phase — and the
    /// generation, hence the armed read deadline — untouched.
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
                    self.gen += 1;
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
    /// phase (bumping the generation, which retires any read deadline).
    pub fn stage_response(&mut self, response: &Response) {
        let mut buf = Vec::new();
        response.to_bytes(&mut buf);
        self.gen += 1;
        self.phase = Phase::Writing { buf, written: 0 };
    }

    /// Pump writes: push staged response bytes until done or EAGAIN.
    pub fn on_writable(&mut self) -> WriteStep {
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
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return WriteStep::Blocked,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return WriteStep::Close,
            }
        }
    }
}

/// One armed deadline: expires for `(token, gen)` at tick `due`.
#[derive(Debug, Clone, Copy)]
struct TimerEntry {
    token: u64,
    gen: u64,
    due: u64,
}

/// A hashed timer wheel over abstract tick numbers.
///
/// `schedule` is O(1); `advance(now)` visits only the slots between the
/// cursor and `now` (capped at one full rotation). Entries further than
/// one rotation out simply survive extra scans — their `due` has not
/// arrived. Cancellation is lazy: the event loop compares an expired
/// entry's generation against the live connection's and ignores stale
/// pairs, so retiring a deadline costs nothing.
#[derive(Debug)]
pub struct TimerWheel {
    slots: Vec<Vec<TimerEntry>>,
    /// Next tick not yet processed by `advance`.
    cursor: u64,
    armed: usize,
}

impl TimerWheel {
    /// A wheel with `nslots` buckets (one rotation = `nslots` ticks).
    pub fn new(nslots: usize) -> TimerWheel {
        TimerWheel {
            slots: (0..nslots.max(1)).map(|_| Vec::new()).collect(),
            cursor: 0,
            armed: 0,
        }
    }

    /// Arm a deadline for `(token, gen)` at tick `due` (clamped to the
    /// cursor so a deadline in the past fires on the next advance).
    pub fn schedule(&mut self, token: u64, gen: u64, due: u64) {
        let due = due.max(self.cursor);
        let slot = (due % self.slots.len() as u64) as usize;
        self.slots[slot].push(TimerEntry { token, gen, due });
        self.armed += 1;
    }

    /// Collect every entry due at or before `now` into `expired`
    /// (appended as `(token, gen)` pairs) and move the cursor past `now`.
    pub fn advance(&mut self, now: u64, expired: &mut Vec<(u64, u64)>) {
        if now < self.cursor {
            return;
        }
        let nslots = self.slots.len() as u64;
        let span = (now - self.cursor + 1).min(nslots);
        for i in 0..span {
            let idx = ((self.cursor + i) % nslots) as usize;
            let before = self.slots[idx].len();
            self.slots[idx].retain(|e| {
                if e.due <= now {
                    expired.push((e.token, e.gen));
                    false
                } else {
                    true
                }
            });
            self.armed -= before - self.slots[idx].len();
        }
        self.cursor = now + 1;
    }

    /// Number of armed entries (stale ones included until they expire).
    pub fn armed(&self) -> usize {
        self.armed
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
        let mut conn = Conn::new(stream, 2);
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
        let mut conn = Conn::new(stream, 2);
        let mut scratch = vec![0u8; 4096];
        assert!(matches!(conn.on_readable(&mut scratch), ReadStep::Respond));
        assert!(conn.is_writing());
        assert_eq!(conn.on_writable(), WriteStep::Done);
    }

    #[test]
    fn peer_eof_mid_request_closes() {
        let mut stream = FakeStream::new();
        stream.push_read(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nab");
        stream.push_read(b""); // EOF
        let mut conn = Conn::new(stream, 2);
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
        let mut conn = Conn::new(stream, 2);
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
        let mut conn = Conn::new(stream, 2);
        let response = Response::error(404, "nope");
        let mut expected = Vec::new();
        response.to_bytes(&mut expected);
        conn.stage_response(&response);

        let mut rounds = 0;
        loop {
            match conn.on_writable() {
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

    // ---- timer wheel ----

    #[test]
    fn wheel_expires_due_entries_in_cursor_order() {
        let mut wheel = TimerWheel::new(8);
        wheel.schedule(10, 0, 3);
        wheel.schedule(11, 0, 5);
        wheel.schedule(12, 0, 100); // beyond one rotation
        assert_eq!(wheel.armed(), 3);

        let mut expired = Vec::new();
        wheel.advance(2, &mut expired);
        assert!(expired.is_empty(), "nothing due yet");
        wheel.advance(4, &mut expired);
        assert_eq!(expired, vec![(10, 0)]);
        expired.clear();
        wheel.advance(99, &mut expired);
        assert_eq!(expired, vec![(11, 0)]);
        expired.clear();
        wheel.advance(100, &mut expired);
        assert_eq!(expired, vec![(12, 0)]);
        assert_eq!(wheel.armed(), 0);
    }

    #[test]
    fn wheel_clamps_past_deadlines_to_next_advance() {
        let mut wheel = TimerWheel::new(4);
        let mut expired = Vec::new();
        wheel.advance(50, &mut expired);
        wheel.schedule(1, 0, 10); // already past: clamped to cursor (51)
        wheel.advance(51, &mut expired);
        assert_eq!(expired, vec![(1, 0)]);
    }

    #[test]
    fn expired_read_deadline_mid_header_closes_connection() {
        // The client sent half a request line and stalled. The read
        // deadline armed at accept must fire with the original
        // generation — which still matches, so the loop would close.
        let mut stream = FakeStream::new();
        stream.push_read(b"GET /slow");
        let mut conn = Conn::new(stream, 7);
        let mut scratch = vec![0u8; 4096];
        let mut wheel = TimerWheel::new(512);
        wheel.schedule(conn.token, conn.gen, READ_DEADLINE_TICKS);

        assert!(matches!(conn.on_readable(&mut scratch), ReadStep::Continue));
        let mut expired = Vec::new();
        wheel.advance(READ_DEADLINE_TICKS, &mut expired);
        assert_eq!(expired, vec![(7, 0)]);
        let (token, gen) = expired[0];
        assert_eq!((token, gen), (conn.token, conn.gen), "deadline is live");
    }

    #[test]
    fn expired_write_deadline_mid_body_is_live() {
        // Response partially drained, client stopped reading: the write
        // deadline (armed at stage_response with the bumped generation)
        // must still match the connection when it fires.
        let mut stream = FakeStream::new();
        stream.write_budget = 3;
        let mut conn = Conn::new(stream, 9);
        conn.stage_response(&Response::error(404, "x"));
        let mut wheel = TimerWheel::new(1024);
        let now = 42;
        wheel.schedule(conn.token, conn.gen, now + WRITE_DEADLINE_TICKS);

        assert_eq!(conn.on_writable(), WriteStep::Blocked);
        assert_eq!(conn.on_writable(), WriteStep::Blocked, "EAGAIN is sticky");
        let mut expired = Vec::new();
        wheel.advance(now + WRITE_DEADLINE_TICKS, &mut expired);
        assert_eq!(expired, vec![(conn.token, conn.gen)], "write deadline live");
    }

    #[test]
    fn deadline_survives_eagain_cycles_but_retires_on_dispatch() {
        let mut stream = FakeStream::new();
        stream.push_read(b"GET /x HT");
        stream.push_eagain();
        stream.push_eagain();
        stream.push_read(b"TP/1.1\r\n\r\n");
        let mut conn = Conn::new(stream, 5);
        let mut scratch = vec![0u8; 4096];
        let mut wheel = TimerWheel::new(512);
        wheel.schedule(conn.token, conn.gen, READ_DEADLINE_TICKS);

        // Three EAGAIN-terminated pump rounds: generation must not move,
        // the armed deadline stays valid the whole time.
        let gen_at_accept = conn.gen;
        assert!(matches!(conn.on_readable(&mut scratch), ReadStep::Continue));
        assert!(matches!(conn.on_readable(&mut scratch), ReadStep::Continue));
        assert_eq!(conn.gen, gen_at_accept, "EAGAIN must not bump generation");

        // The rest arrives; dispatch bumps the generation.
        assert!(matches!(
            conn.on_readable(&mut scratch),
            ReadStep::Dispatch(_)
        ));
        assert_ne!(conn.gen, gen_at_accept);

        // When the old read deadline fires it is stale: generations
        // mismatch, so the event loop ignores it instead of closing a
        // connection that progressed.
        let mut expired = Vec::new();
        wheel.advance(READ_DEADLINE_TICKS, &mut expired);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].0, conn.token);
        assert_ne!(expired[0].1, conn.gen, "expired entry is stale");
    }
}
