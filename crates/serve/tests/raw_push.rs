//! The raw `PUSH` frame at the daemon: a header line `PUSH <id>
//! <offset|-> #<len>`, then `len` bytes as they are. It is served exactly
//! as the hex line of the same chunk, a payload that stalls is timed out
//! as a half line is, and a re-pushed frame is answered from the replay
//! window. The client sends it for every chunk, the empty one included.

use bitgen::BitGen;
use bitgen_serve::{serve, wire, Client, DaemonConfig, Endpoint, ScanService, ServeConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const PATTERNS: &[&str] = &["a\\nb", "x[^x]+x", "GET /[a-z]+"];

/// Chunks whose bytes a line could not hold raw: newlines, carriage
/// returns, `0xff`, and a `PUSH` line in the middle of a payload; and
/// the empty chunk.
const CHUNKS: &[&[u8]] = &[
    b"GET /ab\na\nb x\r\xff x",
    b"\n\nPUSH 1 - #3\nx\xffx GET /z",
    b"a",
    b"\nb\r\n",
    b"",
];

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bitgen-raw-{tag}-{}.sock", std::process::id()))
}

fn start(socket: &Path, config: DaemonConfig) -> JoinHandle<std::io::Result<()>> {
    let endpoint = Endpoint::Unix(socket.to_path_buf());
    let server = std::thread::spawn(move || {
        serve(&endpoint, ScanService::start(ServeConfig::default()), config).map(|_| ())
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "daemon never bound {}", socket.display());
        std::thread::sleep(Duration::from_millis(2));
    }
    server
}

/// A connection that speaks the protocol by hand.
struct Raw {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Raw {
    fn connect(socket: &Path) -> Raw {
        let stream = UnixStream::connect(socket).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Raw { stream, reader }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).unwrap();
    }

    /// The next reply line, or `None` when the daemon hung up.
    fn reply(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(line.trim_end().to_string()),
        }
    }

    fn ask(&mut self, bytes: &[u8]) -> String {
        self.send(bytes);
        self.reply().expect("the daemon replies")
    }
}

/// The same chunk on twin streams, once as a hand-written hex `PUSH`
/// line and once through `Client::push`, gets the same ends and moves the
/// stream to the same offset; both equal a standalone scanner's.
#[test]
fn raw_and_hex_pushes_of_a_chunk_are_served_alike() {
    let socket = socket_path("twins");
    let server = start(&socket, DaemonConfig::default());
    let mut client = Client::connect(&socket).unwrap();
    let (raw_id, _) = client.open("twin", PATTERNS).unwrap();
    let mut hex = Raw::connect(&socket);
    let mut open = format!("OPEN {}", wire::hex_encode(b"twin"));
    for pattern in PATTERNS {
        open.push_str(&format!(" {}", wire::hex_encode(pattern.as_bytes())));
    }
    let hex_id: u64 = hex.ask(format!("{open}\n").as_bytes())
        .strip_prefix("OK ")
        .and_then(|rest| rest.split(' ').next()?.parse().ok())
        .expect("OPEN replies `OK <id> HIT|MISS`");

    let engine = BitGen::compile(PATTERNS).unwrap();
    let mut scanner = engine.streamer().unwrap();
    let mut offset = 0u64;
    for chunk in CHUNKS {
        let standalone = scanner.push(chunk).unwrap();
        let line = format!("PUSH {hex_id} {offset} {}\n", wire::hex_encode(chunk));
        let hex_reply = hex.ask(line.as_bytes());
        let raw_ends = client.push(raw_id, chunk).unwrap();
        let mut want = format!("OK {}", standalone.len());
        for end in &standalone {
            want.push_str(&format!(" {end}"));
        }
        assert_eq!(hex_reply, want, "hex push of {chunk:?}");
        assert_eq!(raw_ends, standalone, "raw push of {chunk:?}");
        offset += chunk.len() as u64;
        assert_eq!(client.offset(raw_id), Some(offset));
    }
    let closed = hex.ask(format!("CLOSE {hex_id}\n").as_bytes());
    assert!(closed.starts_with(&format!("OK {offset} ")), "got {closed:?}");
    assert_eq!(client.close(raw_id).unwrap().0, offset);
    assert_eq!(scanner.consumed(), offset);
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

/// What `Client::push` puts on the wire: the header line, then the
/// chunk as it is — an empty chunk is the header alone.
#[test]
fn the_client_sends_a_raw_frame_for_every_chunk() {
    let socket = socket_path("client");
    let listener = UnixListener::bind(&socket).unwrap();
    let fake = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let mut requests = Vec::new();
        for want in [&b"PUSH 9 5 #4\n\n\xff\r\n"[..], b"PUSH 9 9 #0\n"] {
            let mut got = vec![0u8; want.len()];
            conn.read_exact(&mut got).unwrap();
            requests.push(got);
            conn.write_all(b"OK 0\n").unwrap();
        }
        requests
    });
    let mut client = Client::connect(&socket).unwrap();
    client.set_offset(9, 5);
    assert_eq!(client.push(9, b"\n\xff\r\n").unwrap(), Vec::<u64>::new());
    assert_eq!(client.push(9, b"").unwrap(), Vec::<u64>::new());
    let requests = fake.join().unwrap();
    assert_eq!(requests, [&b"PUSH 9 5 #4\n\n\xff\r\n"[..], b"PUSH 9 9 #0\n"]);
    let _ = std::fs::remove_file(&socket);
}

/// A payload that stops arriving is a half frame: past `read_timeout`
/// the daemon replies `ERR PROTO` and hangs up, and nothing is scanned.
#[test]
fn a_raw_frame_stalled_mid_payload_is_timed_out_and_hung_up() {
    let socket = socket_path("stall");
    let config = DaemonConfig { read_timeout: Duration::from_millis(150), ..DaemonConfig::default() };
    let server = start(&socket, config);
    let mut client = Client::connect(&socket).unwrap();
    let (id, _) = client.open("stall", PATTERNS).unwrap();
    let mut raw = Raw::connect(&socket);
    let started = Instant::now();
    raw.send(format!("PUSH {id} 0 #10\nGET /").as_bytes());
    let refusal = raw.reply().expect("a typed refusal before the hang-up");
    assert!(refusal.starts_with("ERR PROTO"), "got {refusal:?}");
    assert!(started.elapsed() >= Duration::from_millis(150), "refused before the deadline");
    assert_eq!(raw.reply(), None, "the daemon hangs up");
    assert_eq!(client.close(id).unwrap(), (0, 0), "nothing was scanned");
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

/// A frame that finishes restarts the mid-frame deadline, a blank line
/// included: a `\r` that stalled before its `\n` does not shorten the
/// time the next half frame is given.
#[test]
fn a_finished_blank_line_restarts_the_read_deadline() {
    let socket = socket_path("blank");
    let config = DaemonConfig { read_timeout: Duration::from_millis(1000), ..DaemonConfig::default() };
    let server = start(&socket, config);
    let mut raw = Raw::connect(&socket);
    raw.send(b"\r");
    std::thread::sleep(Duration::from_millis(700));
    // Each half frame stalls 700 ms, under the deadline; the two
    // together are well over it.
    raw.send(b"\nPI");
    std::thread::sleep(Duration::from_millis(700));
    assert_eq!(raw.ask(b"NG\n"), "OK");
    drop(raw);
    Client::connect(&socket).unwrap().shutdown().unwrap();
    server.join().unwrap().unwrap();
}

/// A raw frame re-pushed at the same offset after its ack was lost is
/// answered from the replay window: same reply, scanned once.
#[test]
fn a_raw_re_push_after_a_dropped_ack_is_replayed() {
    let socket = socket_path("replay");
    let server = start(&socket, DaemonConfig::default());
    let mut client = Client::connect(&socket).unwrap();
    let (id, _) = client.open_durable("replay", PATTERNS).unwrap();
    let chunk = CHUNKS[0];
    let ends = BitGen::compile(PATTERNS).unwrap().streamer().unwrap().push(chunk).unwrap();
    let mut want = format!("OK {}", ends.len());
    for end in &ends {
        want.push_str(&format!(" {end}"));
    }
    let frame = wire::push_frame(id, Some(0), chunk);
    // The first connection goes away once the push committed, its ack
    // unread.
    let mut first = Raw::connect(&socket);
    first.send(&frame);
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.metrics().unwrap().pushes_completed == 0 {
        assert!(Instant::now() < deadline, "the first push never committed");
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(first);
    let mut again = Raw::connect(&socket);
    assert_eq!(again.ask(&frame), want, "the replay window answers");
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.pushes_completed, 1);
    assert_eq!(metrics.pushes_replayed, 1);
    assert_eq!(metrics.bytes_scanned, chunk.len() as u64, "scanned once");
    // The stream moved on by the chunk once.
    assert_eq!(client.close(id).unwrap().0, chunk.len() as u64);
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

/// A raw push at an offset the stream is not at is refused `OFFSET`, and
/// the client takes the committed offset from the refusal, so the next
/// push lands.
#[test]
fn a_raw_push_at_a_wrong_offset_resyncs_the_client() {
    let socket = socket_path("offset");
    let server = start(&socket, DaemonConfig::default());
    let mut client = Client::connect(&socket).unwrap();
    let (id, _) = client.open("offset", PATTERNS).unwrap();
    client.push(id, CHUNKS[2]).unwrap();
    client.set_offset(id, 7);
    let refused = client.push(id, CHUNKS[3]).unwrap_err();
    assert!(refused.to_string().starts_with("OFFSET 1 "), "got {refused}");
    assert_eq!(client.offset(id), Some(1), "the committed offset, from the refusal");
    client.push(id, CHUNKS[3]).unwrap();
    let consumed = (CHUNKS[2].len() + CHUNKS[3].len()) as u64;
    assert_eq!(client.close(id).unwrap().0, consumed);
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}
