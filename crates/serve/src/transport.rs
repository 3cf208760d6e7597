//! The transport seam between the daemon loop and the kernel: a
//! [`Listener`]/[`Connection`] trait pair implemented for Unix-domain
//! and TCP sockets, plus the bounded [`LineReader`] both share.
//!
//! The daemon loop (`daemon.rs`) is written once against these traits;
//! `serve_unix` and `serve_tcp` differ only in which listener they
//! hand it. Accepting is non-blocking (`poll_accept`) so the loop can
//! interleave accepts with stop/drain-flag checks without a poke
//! connection, and reads carry a deadline so a stalled peer cannot
//! pin a connection thread forever.
//!
//! [`LineReader`] is the frame bound the wire protocol relies on: it
//! accumulates bytes until a newline, and refuses to buffer more than
//! `max_line` bytes of unterminated frame — the typed
//! [`Error::FrameTooLarge`] instead of unbounded memory growth when a
//! peer streams garbage without ever sending a newline.

use bitgen::Error;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::Duration;

/// One accepted peer: a byte stream with deadlines and an out-of-band
/// hangup, independent of address family.
pub trait Connection: Read + Write + Send {
    /// A second handle onto the same socket (reader/writer split).
    fn split(&self) -> io::Result<Self>
    where
        Self: Sized;

    /// Hang up both directions; unblocks any thread parked in a read.
    /// Best-effort: the socket may already be gone.
    fn hang_up(&self);

    /// Bound how long a single `read` may park. `None` removes the
    /// bound. Reads that trip it fail `WouldBlock`/`TimedOut`.
    fn set_read_deadline(&self, timeout: Option<Duration>) -> io::Result<()>;

    /// Bound how long a single `write` may park.
    fn set_write_deadline(&self, timeout: Option<Duration>) -> io::Result<()>;
}

impl Connection for UnixStream {
    fn split(&self) -> io::Result<Self> {
        self.try_clone()
    }

    fn hang_up(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }

    fn set_read_deadline(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }

    fn set_write_deadline(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_write_timeout(timeout)
    }
}

impl Connection for TcpStream {
    fn split(&self) -> io::Result<Self> {
        self.try_clone()
    }

    fn hang_up(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }

    fn set_read_deadline(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }

    fn set_write_deadline(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_write_timeout(timeout)
    }
}

/// An accept source the daemon can poll without parking, so one loop
/// interleaves accepting peers with watching its stop and drain flags.
pub trait Listener: Send {
    /// The connection type this listener produces.
    type Conn: Connection + 'static;

    /// Accept one pending peer, or `Ok(None)` when none is waiting.
    /// The returned connection is in blocking mode.
    fn poll_accept(&self) -> io::Result<Option<Self::Conn>>;
}

fn nonblocking_accept<C>(accepted: io::Result<C>) -> io::Result<Option<C>> {
    match accepted {
        Ok(conn) => Ok(Some(conn)),
        Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
        // A peer that connected and vanished before we accepted is not
        // a listener failure; try again on the next poll.
        Err(e) if e.kind() == ErrorKind::ConnectionAborted => Ok(None),
        Err(e) => Err(e),
    }
}

impl Listener for UnixListener {
    type Conn = UnixStream;

    fn poll_accept(&self) -> io::Result<Option<UnixStream>> {
        match nonblocking_accept(self.accept().map(|(conn, _)| conn))? {
            Some(conn) => {
                conn.set_nonblocking(false)?;
                Ok(Some(conn))
            }
            None => Ok(None),
        }
    }
}

impl Listener for TcpListener {
    type Conn = TcpStream;

    fn poll_accept(&self) -> io::Result<Option<TcpStream>> {
        match nonblocking_accept(self.accept().map(|(conn, _)| conn))? {
            Some(conn) => {
                conn.set_nonblocking(false)?;
                // One request per line: latency over batching.
                let _ = conn.set_nodelay(true);
                Ok(Some(conn))
            }
            None => Ok(None),
        }
    }
}

/// What one [`LineReader::read_frame`] call produced.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete newline-terminated line (newline and any trailing
    /// `\r` stripped).
    Line(String),
    /// The peer closed the connection. Any unterminated trailing bytes
    /// are discarded — a frame without its newline was never sent
    /// completely.
    Eof,
    /// The read deadline elapsed with no complete line; buffered bytes
    /// are kept and the caller may poll again.
    TimedOut,
}

/// A newline framer with a hard bound on how much unterminated input
/// it will buffer.
///
/// Frames longer than `max_line` bytes (excluding the terminator) are
/// refused with [`Error::FrameTooLarge`]. After a refusal the stream
/// is out of sync (the oversized frame was only partially consumed),
/// so the caller should reply with the typed error and drop the
/// connection.
pub struct LineReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// How far `buf` has already been scanned for a newline, so
    /// repeated polls don't rescan the accumulated prefix.
    scanned: usize,
    max_line: usize,
}

impl<R: Read> LineReader<R> {
    /// Wraps `inner`, bounding unterminated frames at `max_line` bytes.
    pub fn new(inner: R, max_line: usize) -> Self {
        LineReader { inner, buf: Vec::new(), scanned: 0, max_line }
    }

    /// `true` when unterminated bytes are buffered — the peer is
    /// mid-frame. The daemon uses this to tell a stalled half-frame
    /// (enforce the read deadline) from an idle connection (leave it
    /// alone).
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    fn take_line(&mut self, newline_at: usize) -> Result<Frame, Error> {
        let mut line: Vec<u8> = self.buf.drain(..=newline_at).collect();
        self.scanned = 0;
        line.pop(); // the newline itself
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        if line.len() > self.max_line {
            return Err(Error::FrameTooLarge { limit: self.max_line, length: line.len() });
        }
        // A well-formed frame is UTF-8 already and becomes the line as it
        // is; anything else is repaired into something that parses to a
        // typed refusal.
        let line = String::from_utf8(line)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
        Ok(Frame::Line(line))
    }

    /// Reads until a complete line, EOF, the read deadline, or the
    /// frame bound — whichever comes first.
    pub fn read_frame(&mut self) -> Result<Frame, Error> {
        loop {
            if let Some(pos) =
                self.buf[self.scanned..].iter().position(|&b| b == b'\n')
            {
                return self.take_line(self.scanned + pos);
            }
            self.scanned = self.buf.len();
            if self.buf.len() > self.max_line {
                return Err(Error::FrameTooLarge {
                    limit: self.max_line,
                    length: self.buf.len(),
                });
            }
            let mut chunk = [0u8; 8 * 1024];
            match self.inner.read(&mut chunk) {
                Ok(0) => return Ok(Frame::Eof),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock
                        || e.kind() == ErrorKind::TimedOut =>
                {
                    return Ok(Frame::TimedOut);
                }
                Err(_) => return Ok(Frame::Eof),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_lines_and_keeps_partial_bytes_across_polls() {
        let input: &[u8] = b"first\nsecond\r\nthird";
        let mut reader = LineReader::new(input, 64);
        assert_eq!(reader.read_frame().unwrap(), Frame::Line("first".to_string()));
        assert_eq!(reader.read_frame().unwrap(), Frame::Line("second".to_string()));
        // The trailing unterminated bytes never formed a frame.
        assert_eq!(reader.read_frame().unwrap(), Frame::Eof);
    }

    #[test]
    fn pipelined_lines_in_one_read_all_come_out() {
        let input: &[u8] = b"a\nb\nc\n";
        let mut reader = LineReader::new(input, 8);
        for expect in ["a", "b", "c"] {
            assert_eq!(reader.read_frame().unwrap(), Frame::Line(expect.to_string()));
        }
        assert_eq!(reader.read_frame().unwrap(), Frame::Eof);
    }

    #[test]
    fn line_at_exactly_the_bound_passes() {
        let limit = 16;
        let mut input = vec![b'x'; limit];
        input.push(b'\n');
        let mut reader = LineReader::new(&input[..], limit);
        assert_eq!(
            reader.read_frame().unwrap(),
            Frame::Line("x".repeat(limit)),
            "a frame of exactly max_line bytes must parse"
        );
    }

    #[test]
    fn one_byte_over_the_bound_is_a_typed_refusal() {
        let limit = 16;
        // Terminated but one over: the bound is on content length.
        let mut input = vec![b'y'; limit + 1];
        input.push(b'\n');
        let mut reader = LineReader::new(&input[..], limit);
        match reader.read_frame() {
            Err(Error::FrameTooLarge { limit: l, length }) => {
                assert_eq!(l, limit);
                assert_eq!(length, limit + 1);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn unterminated_flood_trips_the_bound_without_buffering_it_all() {
        struct Flood {
            remaining: usize,
        }
        impl Read for Flood {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = buf.len().min(self.remaining);
                if n == 0 {
                    return Ok(0);
                }
                buf[..n].fill(b'z');
                self.remaining -= n;
                Ok(n)
            }
        }
        let limit = 4 * 1024;
        let mut reader = LineReader::new(Flood { remaining: 1 << 20 }, limit);
        match reader.read_frame() {
            Err(Error::FrameTooLarge { limit: l, length }) => {
                assert_eq!(l, limit);
                // It stopped within one read chunk of the bound instead
                // of swallowing the whole megabyte.
                assert!(length <= limit + 8 * 1024, "buffered {length} bytes");
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn timeout_reads_surface_as_timed_out_and_resume() {
        struct Stutter {
            phase: usize,
        }
        impl Read for Stutter {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.phase += 1;
                match self.phase {
                    1 => {
                        buf[..3].copy_from_slice(b"ab\n");
                        Ok(3)
                    }
                    2 => Err(io::Error::new(ErrorKind::WouldBlock, "deadline")),
                    3 => {
                        buf[..3].copy_from_slice(b"cd\n");
                        Ok(3)
                    }
                    _ => Ok(0),
                }
            }
        }
        let mut reader = LineReader::new(Stutter { phase: 0 }, 64);
        assert_eq!(reader.read_frame().unwrap(), Frame::Line("ab".to_string()));
        assert_eq!(reader.read_frame().unwrap(), Frame::TimedOut);
        assert_eq!(reader.read_frame().unwrap(), Frame::Line("cd".to_string()));
        assert_eq!(reader.read_frame().unwrap(), Frame::Eof);
    }
}
