//! The only module that knows Unix-domain from TCP: an [`Endpoint`]
//! names where a daemon listens and a client connects, a [`Listener`]
//! binds and accepts on it, and a [`Socket`] is one connected peer of
//! either family. The daemon loop and the client are written once
//! against these two types, plus the bounded [`LineReader`] both share.
//!
//! Binding a Unix path replaces only a *stale* socket: a path that is
//! not a socket, or a socket some daemon still answers on, is refused.
//! Accepting is non-blocking (`poll_accept`) so the loop can interleave
//! accepts with stop/drain-flag checks without a poke connection, and
//! reads carry a deadline so a stalled peer cannot pin a connection
//! thread forever.
//!
//! [`LineReader`] is the frame bound the wire protocol relies on: it
//! accumulates bytes until a newline, and refuses to buffer more than
//! `max_line` bytes of unterminated frame — the typed
//! [`Error::FrameTooLarge`] instead of unbounded memory growth when a
//! peer streams garbage without ever sending a newline. A raw push's
//! payload is read under the same bound, deadline and end of input.

use bitgen::Error;
use std::fmt;
use std::io::{self, BufRead, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Where a daemon listens and a client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket file.
    Unix(PathBuf),
    /// A TCP address, e.g. `"127.0.0.1:7700"`.
    Tcp(String),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Unix(path) => path.display().fmt(f),
            Endpoint::Tcp(addr) => f.write_str(addr),
        }
    }
}

/// One connected peer, of either family.
pub(crate) enum Socket {
    Unix(UnixStream),
    Tcp(TcpStream),
}

/// Runs `$body` on whichever stream `$socket` holds, bound to `$s`.
macro_rules! either {
    ($socket:expr, $s:ident => $body:expr) => {
        match $socket {
            Socket::Unix($s) => $body,
            Socket::Tcp($s) => $body,
        }
    };
}

impl Socket {
    /// Connects to `endpoint`, with `timeout` bounding every read and
    /// write.
    pub(crate) fn connect(endpoint: &Endpoint, timeout: Option<Duration>) -> io::Result<Socket> {
        let socket = match endpoint {
            Endpoint::Unix(path) => Socket::Unix(UnixStream::connect(path)?),
            Endpoint::Tcp(addr) => Socket::tcp(TcpStream::connect(addr.as_str())?),
        };
        socket.set_deadlines(timeout, timeout)?;
        Ok(socket)
    }

    fn tcp(stream: TcpStream) -> Socket {
        // One request per line: latency over batching.
        let _ = stream.set_nodelay(true);
        Socket::Tcp(stream)
    }

    /// A second handle onto the same socket (reader/writer split).
    pub(crate) fn try_clone(&self) -> io::Result<Socket> {
        match self {
            Socket::Unix(s) => s.try_clone().map(Socket::Unix),
            Socket::Tcp(s) => s.try_clone().map(Socket::Tcp),
        }
    }

    /// Hang up both directions; unblocks any thread parked in a read.
    /// Best-effort: the socket may already be gone.
    pub(crate) fn hang_up(&self) {
        let _ = either!(self, s => s.shutdown(Shutdown::Both));
    }

    /// Bounds how long a single `read` and a single `write` may park,
    /// on every handle of the socket. `None` removes a bound. Reads that
    /// trip it fail `WouldBlock`/`TimedOut`.
    pub(crate) fn set_deadlines(
        &self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> io::Result<()> {
        either!(self, s => s.set_read_timeout(read))?;
        either!(self, s => s.set_write_timeout(write))
    }
}

impl Read for Socket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        either!(self, s => s.read(buf))
    }
}

impl Write for Socket {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        either!(self, s => s.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        either!(self, s => s.flush())
    }
}

/// A bound, non-blocking accept source the daemon can poll without
/// parking, so one loop interleaves accepting peers with watching its
/// stop and drain flags. A Unix listener removes its socket file when
/// dropped.
pub(crate) enum Listener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl Listener {
    /// Binds `endpoint` for non-blocking accepts.
    ///
    /// # Errors
    ///
    /// A Unix path that exists and is not a socket is refused with
    /// [`ErrorKind::AlreadyExists`], and a socket that still accepts a
    /// connection with [`ErrorKind::AddrInUse`]; only a stale socket is
    /// replaced. Otherwise the bind's own failure.
    pub(crate) fn bind(endpoint: &Endpoint) -> io::Result<Listener> {
        let listener = match endpoint {
            Endpoint::Unix(path) => Listener::Unix(bind_unix(path)?, path.clone()),
            Endpoint::Tcp(addr) => Listener::Tcp(TcpListener::bind(addr.as_str())?),
        };
        match &listener {
            Listener::Unix(l, _) => l.set_nonblocking(true)?,
            Listener::Tcp(l) => l.set_nonblocking(true)?,
        }
        Ok(listener)
    }

    /// Accept one pending peer, or `Ok(None)` when none is waiting.
    /// The returned socket is in blocking mode.
    pub(crate) fn poll_accept(&self) -> io::Result<Option<Socket>> {
        let accepted = match self {
            Listener::Unix(l, _) => l.accept().map(|(conn, _)| Socket::Unix(conn)),
            Listener::Tcp(l) => l.accept().map(|(conn, _)| Socket::tcp(conn)),
        };
        match accepted {
            Ok(conn) => {
                either!(&conn, s => s.set_nonblocking(false))?;
                Ok(Some(conn))
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
            // A peer that connected and vanished before we accepted is
            // not a listener failure; try again on the next poll.
            Err(e) if e.kind() == ErrorKind::ConnectionAborted => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Binds a Unix socket at `path`, replacing a socket file no daemon
/// answers on and refusing anything else that is there.
fn bind_unix(path: &Path) -> io::Result<UnixListener> {
    match std::fs::symlink_metadata(path) {
        Ok(meta) if !meta.file_type().is_socket() => {
            return Err(io::Error::new(
                ErrorKind::AlreadyExists,
                format!("{} exists and is not a socket", path.display()),
            ));
        }
        Ok(_) => match UnixStream::connect(path) {
            Ok(_) => {
                return Err(io::Error::new(
                    ErrorKind::AddrInUse,
                    format!("a daemon is already serving on {}", path.display()),
                ));
            }
            // Nothing listens on it: the socket is stale.
            Err(e) if e.kind() == ErrorKind::ConnectionRefused => std::fs::remove_file(path)?,
            Err(e) => return Err(e),
        },
        Err(e) if e.kind() == ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    // Listening under a sibling name first, the socket is published by a
    // hard link: the path appears only once it accepts, and the link
    // fails `AlreadyExists` where a bind there would fail.
    static BINDS: AtomicUsize = AtomicUsize::new(0);
    let mut temp = path.as_os_str().to_owned();
    temp.push(format!(".{}-{}", std::process::id(), BINDS.fetch_add(1, Ordering::Relaxed)));
    let listener = UnixListener::bind(&temp)?;
    let published = std::fs::hard_link(&temp, path);
    std::fs::remove_file(&temp)?;
    published.map(|()| listener)
}

/// What one [`LineReader::read_frame`] call produced.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete newline-terminated line (newline and any trailing
    /// `\r` stripped).
    Line(String),
    /// All the bytes [`LineReader::expect_payload`] asked for, as sent.
    Payload(Vec<u8>),
    /// The peer closed the connection. Any unterminated trailing bytes,
    /// or a payload short of its length, are discarded — that frame was
    /// never sent completely.
    Eof,
    /// The read deadline elapsed with no complete line; buffered bytes
    /// are kept and the caller may poll again.
    TimedOut,
}

/// How many owed payload bytes [`LineReader::expect_payload`] makes room
/// for before any of them arrive: a served chunk's worth.
const PAYLOAD_READ_AHEAD: usize = 64 * 1024;

/// A newline framer with a hard bound on how much unterminated input
/// it will buffer, which also reads the raw payload a line announces.
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
    /// The length of the raw payload owed next: it gathers in `buf`.
    payload: Option<usize>,
}

impl<R: Read> LineReader<R> {
    /// Wraps `inner`, bounding unterminated frames at `max_line` bytes.
    pub fn new(inner: R, max_line: usize) -> Self {
        LineReader { inner, buf: Vec::new(), scanned: 0, max_line, payload: None }
    }

    /// `true` when unterminated bytes are buffered or a payload is owed
    /// — the peer is mid-frame. The daemon uses this to tell a stalled
    /// half-frame (enforce the read deadline) from an idle connection
    /// (leave it alone).
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty() || self.payload.is_some()
    }

    /// Makes the next frame the `len` raw bytes after the line just read:
    /// those buffered first, then read straight into the buffer.
    ///
    /// # Errors
    ///
    /// [`Error::FrameTooLarge`] past `max_line`, with nothing read.
    pub fn expect_payload(&mut self, len: usize) -> Result<(), Error> {
        if len > self.max_line {
            return Err(Error::FrameTooLarge { limit: self.max_line, length: len });
        }
        // Sized up front only as far as one read ahead: past that the
        // buffer grows as bytes arrive, never on the length's word alone.
        self.buf.reserve_exact(len.saturating_sub(self.buf.len()).min(PAYLOAD_READ_AHEAD));
        self.payload = Some(len);
        Ok(())
    }

    /// Hands over the line ending at `scanned`; the line keeps the
    /// buffer, and only the bytes after it move.
    fn take_line(&mut self) -> Result<Frame, Error> {
        let rest = self.buf.split_off(self.scanned);
        let mut line = std::mem::replace(&mut self.buf, rest);
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

    /// Reads until a complete line (or the armed payload), EOF, the
    /// read deadline, or the frame bound — whichever comes first.
    pub fn read_frame(&mut self) -> Result<Frame, Error> {
        loop {
            let read = match self.payload {
                // Handed over as `take_line` hands over a line; a payload
                // is armed only right after one, with `scanned` at 0.
                Some(len) if self.buf.len() >= len => {
                    self.payload = None;
                    let rest = self.buf.split_off(len);
                    return Ok(Frame::Payload(std::mem::replace(&mut self.buf, rest)));
                }
                // Straight into the buffer, and no further than the payload.
                Some(len) => {
                    let missing = (len - self.buf.len()) as u64;
                    self.inner.by_ref().take(missing).read_to_end(&mut self.buf)
                }
                None => {
                    // `skip_until` finds the newline a word at a time
                    // (std's `memchr`); the bytes before `scanned` hold none.
                    let mut unscanned = &self.buf[self.scanned..];
                    self.scanned += unscanned.skip_until(b'\n').unwrap_or(0);
                    if self.buf[..self.scanned].ends_with(b"\n") {
                        return self.take_line();
                    }
                    // A trailing `\r` may be the first half of a `\r\n` the
                    // next read completes: it is not part of the frame yet.
                    let length = self.buf.len() - usize::from(self.buf.last() == Some(&b'\r'));
                    if length > self.max_line {
                        return Err(Error::FrameTooLarge { limit: self.max_line, length });
                    }
                    let mut chunk = [0u8; 8 * 1024];
                    let read = self.inner.read(&mut chunk);
                    if let Ok(n) = read {
                        self.buf.extend_from_slice(&chunk[..n]);
                    }
                    read
                }
            };
            match read {
                Ok(0) => return Ok(Frame::Eof),
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
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
    use proptest::prelude::*;

    #[test]
    fn a_unix_socket_path_appears_only_once_it_listens() {
        // A client that connects the instant the path exists is never
        // refused: between a bind and its listen, it would be (about one
        // round in 25 on two CPUs).
        let path = std::env::temp_dir().join(format!("bitgen-bind-{}.sock", std::process::id()));
        let endpoint = Endpoint::Unix(path.clone());
        for round in 0..1000 {
            let (watched, (started, running)) = (path.clone(), std::sync::mpsc::channel());
            let client = std::thread::spawn(move || {
                started.send(()).unwrap();
                let deadline = std::time::Instant::now() + Duration::from_secs(10);
                loop {
                    match UnixStream::connect(&watched) {
                        Err(e) if e.kind() == ErrorKind::NotFound => {}
                        connected => return connected.map(drop),
                    }
                    assert!(std::time::Instant::now() < deadline, "the path never appeared");
                }
            });
            running.recv().unwrap();
            let listener = Listener::bind(&endpoint).unwrap();
            let connected = client.join().unwrap();
            drop(listener);
            assert!(connected.is_ok(), "round {round}: {connected:?}");
        }
        assert!(!path.exists(), "the listener takes its path with it");
    }

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

    /// Serves `bytes` in the planned pieces, each preceded by the planned
    /// stall (`0` would block, `1` is interrupted, anything else none);
    /// past the plan, everything that is left at once.
    struct Pieces {
        bytes: Vec<u8>,
        plan: Vec<(usize, u8)>,
        step: usize,
        stalled: bool,
        served: usize,
        would_blocks: usize,
    }

    impl Read for Pieces {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let (size, stall) = self.plan.get(self.step).copied().unwrap_or((usize::MAX, 2));
            if stall < 2 && !self.stalled {
                self.stalled = true;
                self.would_blocks += usize::from(stall == 0);
                let kind = if stall == 0 { ErrorKind::WouldBlock } else { ErrorKind::Interrupted };
                return Err(io::Error::new(kind, "stall"));
            }
            (self.stalled, self.step) = (false, self.step + 1);
            let n = size.min(buf.len()).min(self.bytes.len() - self.served);
            buf[..n].copy_from_slice(&self.bytes[self.served..self.served + n]);
            self.served += n;
            Ok(n)
        }
    }

    /// What a frame should be: a line, a payload, or the end of the reads.
    #[derive(Debug, PartialEq)]
    enum Want {
        Line(String),
        Payload(Vec<u8>),
        TooLarge,
        Eof,
    }

    /// The payload length a line announces in these tests: `#` and a
    /// number, as a raw `PUSH` header ends.
    fn announced(line: &[u8]) -> Option<usize> {
        std::str::from_utf8(line.strip_prefix(b"#")?).ok()?.parse().ok()
    }

    /// The whole input walked front to back: lines split on `\n`, one
    /// trailing `\r` stripped, and after a line that announces a payload
    /// exactly that many bytes, whatever they are. A line or payload
    /// longer than `max_line` is refused and ends the frames, and so
    /// does an unterminated tail or a payload cut short. Each frame with
    /// its byte length on the wire.
    fn oracle(input: &[u8], max_line: usize) -> Vec<(Want, usize)> {
        let mut frames = Vec::new();
        let mut at = 0;
        loop {
            let rest = &input[at..];
            let Some(newline) = rest.iter().position(|&b| b == b'\n') else {
                let tail = rest.strip_suffix(b"\r").unwrap_or(rest);
                frames.push((if tail.len() > max_line { Want::TooLarge } else { Want::Eof }, 0));
                return frames;
            };
            let raw = &rest[..newline];
            let line = raw.strip_suffix(b"\r").unwrap_or(raw);
            if line.len() > max_line {
                frames.push((Want::TooLarge, 0));
                return frames;
            }
            frames.push((Want::Line(String::from_utf8_lossy(line).into_owned()), newline + 1));
            at += newline + 1;
            if let Some(len) = announced(line) {
                if len > max_line || input.len() - at < len {
                    frames.push((if len > max_line { Want::TooLarge } else { Want::Eof }, 0));
                    return frames;
                }
                frames.push((Want::Payload(input[at..at + len].to_vec()), len));
                at += len;
            }
        }
    }

    #[test]
    fn a_payload_is_its_announced_bytes_under_the_line_bounds() {
        // Any byte, newlines included, and framing resumes right after.
        let input: &[u8] = b"#5\na\n\r\xff#next\n#4\nab";
        let mut reader = LineReader::new(input, 8);
        assert_eq!(reader.read_frame().unwrap(), Frame::Line("#5".to_string()));
        reader.expect_payload(5).unwrap();
        assert!(reader.has_partial(), "an owed payload is mid-frame");
        assert_eq!(reader.read_frame().unwrap(), Frame::Payload(b"a\n\r\xff#".to_vec()));
        assert_eq!(reader.read_frame().unwrap(), Frame::Line("next".to_string()));
        assert_eq!(reader.read_frame().unwrap(), Frame::Line("#4".to_string()));
        // Cut short: the end of input, never a short payload.
        reader.expect_payload(4).unwrap();
        assert_eq!(reader.read_frame().unwrap(), Frame::Eof);
        // Past the bound: refused before a byte is read.
        let mut reader = LineReader::new(&b"#9\n123456789"[..], 8);
        assert_eq!(reader.read_frame().unwrap(), Frame::Line("#9".to_string()));
        match reader.expect_payload(9) {
            Err(Error::FrameTooLarge { limit: 8, length: 9 }) => {}
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        assert!(reader.payload.is_none(), "nothing is armed past the bound");
    }

    #[test]
    fn an_announced_length_alone_reserves_at_most_one_read_ahead() {
        let bound = 4 << 20;
        let mut reader = LineReader::new(&b"#4194304\n"[..], bound);
        assert_eq!(reader.read_frame().unwrap(), Frame::Line("#4194304".to_string()));
        reader.expect_payload(bound).unwrap();
        let reserved = reader.buf.capacity();
        assert!(reserved <= PAYLOAD_READ_AHEAD + 64, "{reserved} bytes reserved for nothing sent");
        assert_eq!(reader.read_frame().unwrap(), Frame::Eof);
        // A payload past the read-ahead grows as it arrives, exactly.
        let payload: Vec<u8> = (0..3 * PAYLOAD_READ_AHEAD + 5).map(|i| (i % 251) as u8).collect();
        let input = [&b"#196613\n"[..], &payload, b"next\n"].concat();
        let mut reader = LineReader::new(&input[..], bound);
        assert_eq!(reader.read_frame().unwrap(), Frame::Line("#196613".to_string()));
        reader.expect_payload(payload.len()).unwrap();
        assert_eq!(reader.read_frame().unwrap(), Frame::Payload(payload));
        assert_eq!(reader.read_frame().unwrap(), Frame::Line("next".to_string()));
    }

    /// Lines of `len` bytes drawn from an alphabet with a stray `\r` and
    /// bytes that are not UTF-8, each ended by `\n`, `\r\n`, nothing (it
    /// runs into the next) or a lone `\r`; and, for the ends 4 and 5, raw
    /// frames: the header `#<len>` ended by `\n` or `\r\n`, then `len`
    /// bytes with `\n`, `\r`, `0xff` and `#` among them.
    fn wire_bytes(segments: &[(usize, u8, u64)]) -> Vec<u8> {
        const ALPHABET: &[u8] = b"az \r\xff\xc3\xa9\xe2";
        const PAYLOAD: &[u8] = b"az\n\r\xff#";
        let mut bytes = Vec::new();
        for &(len, end, seed) in segments {
            let (alphabet, end) = match end {
                0..4 => (ALPHABET, [&b"\n"[..], b"\r\n", b"", b"\r"][usize::from(end)]),
                _ => (PAYLOAD, if end == 4 { &b"\n"[..] } else { b"\r\n" }),
            };
            if alphabet == PAYLOAD {
                bytes.extend_from_slice(format!("#{len}").as_bytes());
                bytes.extend_from_slice(end);
            }
            let mut x = seed | 1;
            bytes.extend((0..len).map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                alphabet[(x >> 33) as usize % alphabet.len()]
            }));
            if alphabet == ALPHABET {
                bytes.extend_from_slice(end);
            }
        }
        bytes
    }

    proptest! {
        /// Whatever pieces the bytes arrive in and whatever stalls come
        /// between them, the frames are the whole input's walk, and the
        /// reader holds at most `max_line` bytes, a `\r` that may start a
        /// terminator and one read.
        #[test]
        fn line_reader_frames_like_splitting_the_whole_input(
            segments in prop::collection::vec(
                (
                    prop_oneof![0usize..9, 0usize..80, 8185usize..8200],
                    0u8..6,
                    any::<u64>(),
                ),
                0..7,
            ),
            plan in prop::collection::vec(
                (prop_oneof![1usize..4, 1usize..100, 1usize..12_000], 0u8..5),
                0..40,
            ),
            max_line in prop::sample::select(vec![1usize, 7, 64, 8193]),
            cut in any::<u64>(),
        ) {
            let mut bytes = wire_bytes(&segments);
            // One input in four ends early, mid-line or mid-payload.
            if cut.is_multiple_of(4) {
                bytes.truncate((cut / 4) as usize % (bytes.len() + 1));
            }
            let want = oracle(&bytes, max_line);
            let source =
                Pieces { bytes, plan, step: 0, stalled: false, served: 0, would_blocks: 0 };
            let mut reader = LineReader::new(source, max_line);
            let (mut got, mut consumed, mut timeouts) = (Vec::new(), 0, 0);
            let last = loop {
                let frame = reader.read_frame();
                // Everything served and not yet framed was buffered at once.
                let held = reader.inner.served - consumed;
                prop_assert!(held <= max_line + 1 + 8 * 1024, "held {} bytes", held);
                match frame {
                    Ok(Frame::TimedOut) => {
                        timeouts += 1;
                        prop_assert_eq!(reader.buf.len(), held, "the partial frame is kept");
                    }
                    Ok(Frame::Line(line)) => {
                        let Some((_, raw)) = want.get(got.len()) else { break Want::Line(line) };
                        consumed += raw;
                        let armed = announced(line.as_bytes()).map(|len| reader.expect_payload(len));
                        got.push(Want::Line(line));
                        if let Some(Err(Error::FrameTooLarge { limit, length })) = armed {
                            prop_assert!(limit == max_line && length > max_line);
                            break Want::TooLarge;
                        }
                    }
                    Ok(Frame::Payload(payload)) => {
                        consumed += payload.len();
                        got.push(Want::Payload(payload));
                    }
                    Ok(Frame::Eof) => break Want::Eof,
                    Err(Error::FrameTooLarge { limit, length }) => {
                        prop_assert!(limit == max_line && length > max_line);
                        break Want::TooLarge;
                    }
                    Err(e) => panic!("{e}"),
                }
            };
            got.push(last);
            let want: Vec<Want> = want.into_iter().map(|(frame, _)| frame).collect();
            prop_assert_eq!(got, want, "max_line {}", max_line);
            if timeouts < reader.inner.would_blocks {
                prop_assert!(matches!(want.last(), Some(Want::TooLarge)), "a stall went unseen");
            }
            prop_assert!(timeouts <= reader.inner.would_blocks);
        }
    }
}
