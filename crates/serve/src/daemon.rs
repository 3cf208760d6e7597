//! The socket daemon wrapping a [`ScanService`] — Unix-domain or TCP,
//! one code path ([`crate::transport`]) — plus the matching retrying
//! client.
//!
//! One connection is one client session speaking the [`crate::wire`]
//! line protocol. Streams opened without the durable flag are closed
//! when their connection ends (no leaks from vanished clients);
//! durable streams outlive connections so clients can reconnect and
//! resume. `SHUTDOWN` from any client stops the listener, hangs up
//! every other connection (idle clients see EOF, not a hang), drains
//! the worker pool, and returns. `DRAIN` — or the configured signal
//! flag — instead runs the graceful-drain lifecycle: refuse new work
//! with typed `DRAINING` errors, finish (or deadline-cancel) in-flight
//! pushes, checkpoint every durable stream into a
//! [`DrainManifest`], write it to the configured path, and return it
//! in the [`ServeOutcome`] so a successor daemon (started with the
//! same manifest path) adopts every stream bit-identically.
//!
//! Frames are bounded ([`DaemonConfig::max_line`]): a peer that
//! streams bytes without a newline, or announces a raw payload longer
//! than a line, gets a typed `FRAME` error and a hangup, never unbounded
//! buffering. A seeded [`WireFaultPlan`] can
//! be installed to corrupt replies deterministically — the test
//! harness for the client's retry/replay machinery.

use crate::drain::DrainManifest;
use crate::fault::{WireFaultKind, WireFaultPlan};
use crate::metrics::ServeMetrics;
use crate::service::{ScanService, ServeError, StreamId};
use crate::transport::{Endpoint, Frame, LineReader, Listener, Socket};
use crate::wire::{self, ErrCode, Request};
use bitgen::Error;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

/// How a daemon run behaves around the protocol itself: frame bounds,
/// deadlines, the drain lifecycle, and (for tests) fault injection.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Longest request line accepted, in bytes (excluding the
    /// newline), and longest raw `PUSH` payload: the largest chunk a
    /// [`Client`] can push is `max_line` bytes. One-over is refused with
    /// a typed `FRAME` error and a hangup.
    pub max_line: usize,
    /// How long a peer may sit mid-frame (a line without its newline, or
    /// a raw payload short of its length) before the connection is
    /// dropped. Idle connections — nothing owed — are never timed out.
    pub read_timeout: Duration,
    /// Bound on a single reply write; a peer that stops reading is
    /// dropped instead of blocking a handler forever.
    pub write_timeout: Option<Duration>,
    /// How long a drain waits for in-flight pushes before cancelling
    /// the stragglers (they roll back; nothing is half-scanned).
    pub drain_deadline: Duration,
    /// When set: a manifest found here at startup is adopted (and the
    /// file removed) before serving, and a drain writes its manifest
    /// here — so "same path, restart" is the whole handoff recipe.
    pub manifest_path: Option<PathBuf>,
    /// External drain trigger — a signal handler sets the flag, the
    /// accept loop polls it. This is how `SIGTERM` becomes a graceful
    /// drain in the `bitgen-serve` binary.
    pub drain_signal: Option<&'static AtomicBool>,
    /// Deterministic wire-fault schedule for tests; `None` in
    /// production.
    pub faults: Option<WireFaultPlan>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            max_line: 4 * 1024 * 1024,
            read_timeout: Duration::from_secs(10),
            write_timeout: Some(Duration::from_secs(10)),
            drain_deadline: Duration::from_secs(5),
            manifest_path: None,
            drain_signal: None,
            faults: None,
        }
    }
}

/// How a daemon run ended.
#[derive(Debug)]
pub struct ServeOutcome {
    /// `Some` when the daemon drained (wire `DRAIN` or signal): the
    /// manifest of checkpointed streams, also written to
    /// [`DaemonConfig::manifest_path`] when one is set. `None` after a
    /// plain `SHUTDOWN`.
    pub drained: Option<DrainManifest>,
    /// `true` when the drain overran its deadline and had to cancel
    /// in-flight pushes (exit code 3 in the binary).
    pub forced: bool,
}

/// Runs `service` behind `endpoint` until a client sends `SHUTDOWN` or
/// `DRAIN`. The caller constructs (and may pre-[`warm`]) the service;
/// this function owns it from here and shuts it down on the way out.
/// A manifest at [`DaemonConfig::manifest_path`] is adopted before the
/// bind. On a Unix path only a stale socket is replaced, and the socket
/// file is removed again when done. Blocks the calling thread for the
/// life of the daemon; connection handlers run on their own threads.
///
/// [`warm`]: ScanService::warm
///
/// # Errors
///
/// Manifest adoption/write failures and socket bind/accept failures:
/// on a Unix path, [`io::ErrorKind::AlreadyExists`] when something that
/// is not a socket is there, and [`io::ErrorKind::AddrInUse`] when a
/// daemon still answers on it. Protocol and scan errors go to the
/// offending client as `ERR` lines instead.
pub fn serve(
    endpoint: &Endpoint,
    service: ScanService,
    config: DaemonConfig,
) -> io::Result<ServeOutcome> {
    // Adopt before binding: the socket file appearing is the readiness
    // signal, so a successor must not become visible until every
    // manifest stream is resumable — and a corrupt manifest must
    // refuse to serve before ever accepting a connection.
    adopt_at_startup(&service, &config)?;
    let listener = Listener::bind(endpoint)?;
    serve_loop(&listener, service, config)
}

/// [`serve`] on a Unix socket at `path` with default [`DaemonConfig`].
///
/// # Errors
///
/// As [`serve`].
pub fn serve_unix(path: &Path, service: ScanService) -> io::Result<ServeOutcome> {
    serve(&Endpoint::Unix(path.to_path_buf()), service, DaemonConfig::default())
}

/// Adopts (then deletes) a drain manifest left by a predecessor, before
/// the daemon starts accepting. Adoption failure is a hard refusal to
/// serve — better down than up with silently lost streams.
fn adopt_at_startup(service: &ScanService, config: &DaemonConfig) -> io::Result<()> {
    if let Some(path) = &config.manifest_path {
        if path.exists() {
            let manifest = DrainManifest::load(path).map_err(io::Error::other)?;
            service.adopt_manifest(&manifest).map_err(io::Error::other)?;
            // Adopted; a crash from here re-checkpoints at drain time,
            // so the stale manifest must not be re-adopted twice.
            std::fs::remove_file(path)?;
        }
    }
    Ok(())
}

/// Shared references every connection handler holds.
struct ConnCtx<'a> {
    service: &'a ScanService,
    stop: &'a AtomicBool,
    drain: &'a AtomicBool,
    closing: &'a AtomicBool,
    config: &'a DaemonConfig,
    index: u64,
}

fn serve_loop(
    listener: &Listener,
    service: ScanService,
    config: DaemonConfig,
) -> io::Result<ServeOutcome> {
    let stop = AtomicBool::new(false);
    let drain = AtomicBool::new(false);
    let closing = AtomicBool::new(false);
    let drained = std::thread::scope(|scope| -> io::Result<Option<(DrainManifest, bool)>> {
        // Only this thread touches `peers`: each live connection's
        // hang-up handle beside its handler, pruned once the handler
        // has finished, so a finished connection holds no descriptor.
        // Handlers get their own split handles.
        let mut peers: Vec<(Socket, ScopedJoinHandle<'_, ()>)> = Vec::new();
        let mut conn_index = 0u64;
        let accept_result = loop {
            if stop.load(Ordering::SeqCst) {
                break Ok(());
            }
            if config.drain_signal.is_some_and(|flag| flag.load(Ordering::SeqCst)) {
                drain.store(true, Ordering::SeqCst);
            }
            if drain.load(Ordering::SeqCst) {
                break Ok(());
            }
            match listener.poll_accept() {
                Ok(Some(conn)) => {
                    peers.retain(|(_, handler)| !handler.is_finished());
                    let (Ok(writer), Ok(peer)) = (conn.try_clone(), conn.try_clone()) else {
                        continue;
                    };
                    let ctx = ConnCtx {
                        service: &service,
                        stop: &stop,
                        drain: &drain,
                        closing: &closing,
                        config: &config,
                        index: conn_index,
                    };
                    conn_index += 1;
                    peers.push((peer, scope.spawn(move || handle_connection(conn, writer, ctx))));
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => break Err(e),
            }
        };
        // The drain runs while handler threads are still alive: late
        // requests on open connections get the typed DRAINING refusal,
        // and in-flight pushes finish (or cancel at the deadline)
        // before the checkpoints are taken.
        let mut drained = None;
        let mut save_result = Ok(());
        if accept_result.is_ok() && drain.load(Ordering::SeqCst) && !stop.load(Ordering::SeqCst)
        {
            let (manifest, forced) = service.drain(config.drain_deadline);
            if let Some(path) = &config.manifest_path {
                save_result = manifest.save(path);
            }
            drained = Some((manifest, forced));
        }
        closing.store(true, Ordering::SeqCst);
        for (peer, _) in peers.drain(..) {
            peer.hang_up();
        }
        accept_result.and(save_result).map(|()| drained)
    })?;
    service.shutdown();
    Ok(ServeOutcome {
        forced: drained.as_ref().is_some_and(|(_, forced)| *forced),
        drained: drained.map(|(manifest, _)| manifest),
    })
}

/// What a request asks the daemon lifecycle to do after the reply.
enum Action {
    None,
    Drain,
    Shutdown,
}

/// Serves one connection until EOF, a frame-bound trip, a mid-frame
/// stall, a raw header that cannot be framed, shutdown, or daemon
/// closing. Streams the client opened without the durable flag are
/// closed on the way out.
fn handle_connection(conn: Socket, mut writer: Socket, ctx: ConnCtx<'_>) {
    // The socket deadline is a short poll tick so the loop observes
    // `closing`; the real mid-frame deadline is enforced below.
    let poll = ctx.config.read_timeout.min(Duration::from_millis(100));
    let _ = conn.set_deadlines(Some(poll.max(Duration::from_millis(1))), ctx.config.write_timeout);
    let mut reader = LineReader::new(conn, ctx.config.max_line);
    let mut opened: Vec<StreamId> = Vec::new();
    let mut replies = 0u64;
    let mut partial_since: Option<Instant> = None;
    // The last raw push header's stream and offset: its payload's push.
    let mut header: (u64, Option<u64>) = (0, None);
    // The refusal a connection that cannot go on is hung up with.
    let last_words = loop {
        if ctx.closing.load(Ordering::SeqCst) {
            break None;
        }
        let frame = match reader.read_frame() {
            Ok(Frame::TimedOut) => {
                if !reader.has_partial() {
                    partial_since = None;
                } else if partial_since.get_or_insert_with(Instant::now).elapsed()
                    >= ctx.config.read_timeout
                {
                    break Some(wire::err_line(ErrCode::Proto, "read deadline: frame never finished"));
                }
                continue;
            }
            Ok(frame) => frame,
            // The stream is out of sync past an oversized frame.
            Err(e) => break Some(wire::err_line(ErrCode::Frame, &e.to_string())),
        };
        // Any other frame finishes the one the deadline was timing.
        partial_since = None;
        let request = match frame {
            Frame::Eof | Frame::TimedOut => break None,
            Frame::Payload(chunk) => Ok(Request::Push { id: header.0, offset: header.1, chunk }),
            Frame::Line(line) if line.trim().is_empty() => continue,
            Frame::Line(line) => match wire::parse_request(&line) {
                Ok(Request::PushHeader { id, offset, len }) => {
                    if let Err(e) = reader.expect_payload(len) {
                        break Some(wire::err_line(ErrCode::Frame, &e.to_string()));
                    }
                    header = (id, offset);
                    continue;
                }
                // What follows a refused raw header cannot be framed.
                Err(complaint) if wire::announces_payload(&line) => {
                    break Some(wire::err_line(ErrCode::Proto, &complaint));
                }
                parsed => parsed,
            },
        };
        let (reply, action, exempt) = respond(request, ctx.service, &mut opened);
        let fault = if exempt {
            None
        } else {
            ctx.config
                .faults
                .as_ref()
                .and_then(|plan| plan.decide(ctx.index, replies).map(|kind| (kind, plan)))
        };
        let request_index = replies;
        replies += 1;
        let (sent, dropped) = match fault {
            None => (write_line(&mut writer, &reply), false),
            Some((kind, plan)) => {
                apply_fault(&mut writer, &reply, kind, plan, ctx.index, request_index)
            }
        };
        match action {
            Action::Shutdown => {
                ctx.stop.store(true, Ordering::SeqCst);
                break None;
            }
            Action::Drain => ctx.drain.store(true, Ordering::SeqCst),
            Action::None => {}
        }
        if sent.is_err() || dropped {
            break None;
        }
    };
    if let Some(refusal) = last_words {
        let _ = write_line(&mut writer, &refusal);
    }
    // The accept loop keeps a handle too: hang up for real.
    writer.hang_up();
    for id in opened {
        let _ = ctx.service.close_stream(id);
    }
}

fn write_line<W: Write>(writer: &mut W, line: &str) -> io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Injects one scheduled fault into a reply. Returns (write result,
/// connection-must-drop).
fn apply_fault<W: Write>(
    writer: &mut W,
    reply: &str,
    kind: WireFaultKind,
    plan: &WireFaultPlan,
    connection: u64,
    request: u64,
) -> (io::Result<()>, bool) {
    match kind {
        WireFaultKind::DropMidFrame => {
            let half = &reply.as_bytes()[..reply.len() / 2];
            let result = writer.write_all(half).and_then(|()| writer.flush());
            (result, true)
        }
        WireFaultKind::TruncateReply => {
            let half = reply.get(..reply.len() / 2).unwrap_or(reply);
            (write_line(writer, half), false)
        }
        WireFaultKind::GarbageBytes => {
            (write_line(writer, &plan.garbage(connection, request)), false)
        }
        WireFaultKind::DelayReply => {
            std::thread::sleep(plan.delay());
            (write_line(writer, reply), false)
        }
    }
}

/// Maps a service failure onto its wire error line.
fn error_reply(e: &ServeError, draining: bool) -> String {
    match e {
        ServeError::OffsetMismatch { expected, .. } => {
            wire::err_line(ErrCode::Offset, &format!("{expected} {e}"))
        }
        ServeError::Scan(Error::Overloaded { .. }) => {
            wire::err_line(ErrCode::Overloaded, &e.to_string())
        }
        ServeError::Scan(Error::Draining) => wire::err_line(ErrCode::Draining, &e.to_string()),
        ServeError::Scan(Error::FrameTooLarge { .. }) => {
            wire::err_line(ErrCode::Frame, &e.to_string())
        }
        // A push cancelled *by* the drain deadline rolled back cleanly;
        // tell the client to retry against the successor, same as any
        // other drain refusal.
        ServeError::Scan(Error::Exec(bitgen_exec::ExecError::Cancelled)) if draining => {
            wire::err_line(
                ErrCode::Draining,
                "push cancelled by the drain deadline and rolled back; \
                 re-push these bytes to the successor",
            )
        }
        ServeError::Scan(_) => wire::err_line(ErrCode::Scan, &e.to_string()),
        ServeError::UnknownStream(_) => wire::err_line(ErrCode::UnknownStream, &e.to_string()),
        ServeError::ShuttingDown => wire::err_line(ErrCode::Shutdown, &e.to_string()),
    }
}

/// Computes the reply line for one parsed request, the lifecycle action
/// it demands, and whether the reply is exempt from fault injection
/// (stream lifecycle replies stay exact so accounting reconciles; the
/// push/ack path is where the faults belong).
fn respond(
    request: Result<Request, String>,
    service: &ScanService,
    opened: &mut Vec<StreamId>,
) -> (String, Action, bool) {
    let request = match request {
        Ok(r) => r,
        Err(complaint) => {
            return (wire::err_line(ErrCode::Proto, &complaint), Action::None, false)
        }
    };
    let draining = service.is_draining();
    let exempt = matches!(
        request,
        Request::Open { .. } | Request::Close { .. } | Request::Drain | Request::Shutdown
    );
    let reply = match request {
        Request::Open { tenant, durable, patterns } => {
            let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
            service.open_stream(&tenant, &refs).map(|admission| {
                // Durable streams outlive this connection; the service
                // checkpoints them into the drain manifest.
                if !durable {
                    opened.push(admission.stream);
                    let _ = service.set_durable(admission.stream, false);
                }
                let verdict = if admission.cache_hit { "HIT" } else { "MISS" };
                format!("OK {} {verdict}", admission.stream)
            })
        }
        Request::Push { id, offset, chunk } => service.push_chunk_at(id, offset, chunk).map(|ends| {
            let mut reply = format!("OK {}", ends.len());
            for end in ends {
                // Writing into a `String` cannot fail.
                let _ = write!(reply, " {end}");
            }
            reply
        }),
        // The connection loop reads a header's payload and serves the
        // push the two make.
        Request::PushHeader { .. } => {
            return (wire::err_line(ErrCode::Proto, "raw push header"), Action::None, false)
        }
        Request::Swap { id, patterns } => {
            let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
            service.swap_rules(id, &refs).map(|generation| format!("OK {generation}"))
        }
        Request::Cancel { id } => service.cancel_stream(id).map(|()| "OK".to_string()),
        Request::Reset { id } => service.reset_cancel(id).map(|()| "OK".to_string()),
        Request::Close { id } => service.close_stream(id).map(|stats| {
            opened.retain(|open| *open != id);
            format!("OK {} {}", stats.consumed, stats.match_count)
        }),
        Request::Stats => Ok(format!("OK {}", service.metrics().to_json())),
        Request::Ping => Ok("OK".to_string()),
        Request::Drain => return ("OK".to_string(), Action::Drain, true),
        Request::Shutdown => return ("OK".to_string(), Action::Shutdown, true),
    };
    (reply.unwrap_or_else(|e| error_reply(&e, draining)), Action::None, exempt)
}

/// Retry/backoff policy for [`Client`]. The default performs no
/// retries (one attempt, no read deadline) — the pre-fault-tolerance
/// behavior. [`RetryConfig::resilient`] is the crash-tolerant profile.
#[derive(Debug, Clone, Copy)]
pub struct RetryConfig {
    /// Total attempts per operation (min 1).
    pub attempts: u32,
    /// First backoff sleep; doubles each retry.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Seed for the deterministic backoff jitter, so a test schedule
    /// replays exactly.
    pub seed: u64,
    /// Per-read deadline on replies. A daemon that stalls past it is
    /// treated as failed: the connection is dropped and the operation
    /// retried on a fresh one.
    pub io_timeout: Option<Duration>,
}

impl Default for RetryConfig {
    fn default() -> RetryConfig {
        RetryConfig {
            attempts: 1,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(640),
            seed: 0x5eed_u64,
            io_timeout: None,
        }
    }
}

impl RetryConfig {
    /// The crash-tolerant profile: 10 attempts, 10ms→640ms exponential
    /// backoff with seeded jitter, 2s reply deadline.
    pub fn resilient() -> RetryConfig {
        RetryConfig {
            attempts: 10,
            io_timeout: Some(Duration::from_secs(2)),
            ..RetryConfig::default()
        }
    }
}

/// One live connection: framed reader plus writer.
struct ClientWire {
    reader: LineReader<Socket>,
    writer: Socket,
}

impl std::fmt::Debug for ClientWire {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ClientWire")
    }
}

/// Replies the daemon can't send are still bounded client-side; STATS
/// with many tenants and dense push replies stay far under this.
const CLIENT_MAX_LINE: usize = 256 * 1024 * 1024;

/// What one attempt produced (before retry classification).
enum Attempt {
    Ok(String),
    Refused(ErrCode, String),
}

/// A request line: `head`, each pattern hex-encoded, the newline.
fn pattern_line(mut head: String, patterns: &[&str]) -> Vec<u8> {
    for pattern in patterns {
        head.push(' ');
        head.push_str(&wire::hex_encode(pattern.as_bytes()));
    }
    head.push('\n');
    head.into_bytes()
}

/// A blocking client for the daemon's line protocol, over Unix or TCP,
/// with optional retry/backoff and idempotent push resume.
///
/// The client tracks each stream's byte offset (from
/// [`Client::open`]/[`Client::open_durable`], or seeded with
/// [`Client::set_offset`] after a reconnect) and sends it as the
/// push's idempotency key. When a connection dies mid-push — ack lost
/// — the retry reconnects and re-pushes the same boundary; the daemon
/// replays the committed result instead of scanning twice, so retries
/// can never duplicate or lose matches.
#[derive(Debug)]
pub struct Client {
    endpoint: Endpoint,
    retry: RetryConfig,
    rng: u64,
    wire: Option<ClientWire>,
    offsets: HashMap<u64, u64>,
}

impl Client {
    /// Connects to a Unix-socket daemon at `path` (no retries — the
    /// pre-fault-tolerance profile; see [`Client::connect_to`]).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(path: &Path) -> io::Result<Client> {
        Client::connect_to(&Endpoint::Unix(path.to_path_buf()), RetryConfig::default())
    }

    /// Connects to the daemon at `endpoint` with an explicit retry
    /// policy. The first connection is made here; later ones replace a
    /// connection a failure dropped.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect_to(endpoint: &Endpoint, retry: RetryConfig) -> io::Result<Client> {
        let mut client = Client {
            endpoint: endpoint.clone(),
            retry,
            rng: retry.seed | 1,
            wire: None,
            offsets: HashMap::new(),
        };
        client.ensure_wire()?;
        Ok(client)
    }

    /// The client's record of `id`'s byte offset, when it tracks one.
    pub fn offset(&self, id: u64) -> Option<u64> {
        self.offsets.get(&id).copied()
    }

    /// Seeds the offset record for a stream this client did not open —
    /// after reconnecting to a successor daemon that adopted the
    /// stream, say. Subsequent pushes carry the offset as their
    /// idempotency key.
    pub fn set_offset(&mut self, id: u64, offset: u64) {
        self.offsets.insert(id, offset);
    }

    fn ensure_wire(&mut self) -> io::Result<&mut ClientWire> {
        if self.wire.is_none() {
            let socket = Socket::connect(&self.endpoint, self.retry.io_timeout)?;
            let writer = socket.try_clone()?;
            let reader = LineReader::new(socket, CLIENT_MAX_LINE);
            self.wire = Some(ClientWire { reader, writer });
        }
        self.wire.as_mut().ok_or_else(|| io::Error::other("wire vanished"))
    }

    /// One request/reply exchange on the current connection: the whole
    /// request, its newline or raw payload included, goes out in one
    /// write. `sent` is set once request bytes may have reached the
    /// daemon — the point past which retrying a non-idempotent request
    /// could double it.
    fn try_once(&mut self, request: &[u8], sent: &mut bool) -> io::Result<Attempt> {
        let wire = self.ensure_wire()?;
        *sent = true;
        wire.writer.write_all(request)?;
        match wire.reader.read_frame() {
            Ok(Frame::Line(line)) => {
                if let Some(ok) = line.strip_prefix("OK") {
                    return Ok(Attempt::Ok(ok.trim_start().to_string()));
                }
                if let Some((code, msg)) = wire::split_err(&line) {
                    return Ok(Attempt::Refused(code, msg.to_string()));
                }
                Err(io::Error::other(format!("malformed daemon reply: {line:?}")))
            }
            // A client reader is never armed for a payload.
            Ok(Frame::Eof | Frame::Payload(_)) => {
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "daemon hung up"))
            }
            Ok(Frame::TimedOut) => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "no reply within the read deadline",
            )),
            Err(e) => Err(io::Error::other(e.to_string())),
        }
    }

    fn backoff(&mut self, attempt: u32) {
        let doubled = self.retry.base.saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        let capped = doubled.min(self.retry.cap);
        // xorshift64: deterministic jitter in [0.5, 1.0) of the step.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let frac = 0.5 + (self.rng >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
        std::thread::sleep(capped.mul_f64(frac));
    }

    /// Sends `request` with retry/backoff, parsing the `OK` payload
    /// with `parse`. Transport failures reconnect;
    /// `OVERLOADED`/`DRAINING` refusals back off and retry in place. A
    /// payload `parse` rejects counts as a transport failure too — a
    /// fault can truncate a reply into one that still carries the `OK`
    /// prefix, and it must be retried, not surfaced as an answer.
    /// Failures after the request may have been delivered are only
    /// retried when `idempotent` — re-sending a non-idempotent request
    /// (an `OPEN`, say) could double it.
    fn call<T>(
        &mut self,
        request: &[u8],
        idempotent: bool,
        parse: impl Fn(&str) -> Option<T>,
    ) -> io::Result<T> {
        let attempts = self.retry.attempts.max(1);
        let mut attempt = 0;
        loop {
            attempt += 1;
            let mut sent = false;
            let failure = match self.try_once(request, &mut sent) {
                Ok(Attempt::Ok(payload)) => match parse(&payload) {
                    Some(value) => return Ok(value),
                    None => io::Error::other(format!("corrupt daemon reply: {payload:?}")),
                },
                Ok(Attempt::Refused(code, msg)) => {
                    if code.retryable() && attempt < attempts {
                        self.backoff(attempt);
                        continue;
                    }
                    return Err(io::Error::other(format!("{} {msg}", code.token())));
                }
                Err(e) => e,
            };
            // Anything anomalous desyncs the request/reply cadence;
            // reconnect rather than trust the old connection.
            self.wire = None;
            if (!sent || idempotent) && attempt < attempts {
                self.backoff(attempt);
                continue;
            }
            return Err(failure);
        }
    }

    fn open_inner(&mut self, tenant: &str, durable: bool, patterns: &[&str]) -> io::Result<(u64, bool)> {
        let tenant = wire::hex_encode(tenant.as_bytes());
        let request = pattern_line(format!("OPEN {tenant}{}", if durable { " D" } else { "" }), patterns);
        let (id, hit) = self.call(&request, false, |payload| {
            let mut parts = payload.split_whitespace();
            let id = parts.next()?.parse::<u64>().ok()?;
            let hit = match parts.next()? {
                "HIT" => true,
                "MISS" => false,
                _ => return None,
            };
            parts.next().is_none().then_some((id, hit))
        })?;
        self.offsets.insert(id, 0);
        Ok((id, hit))
    }

    /// Opens a connection-scoped stream; returns `(stream id, cache
    /// hit)`. The daemon closes it if this connection ends first.
    ///
    /// # Errors
    ///
    /// Transport failures, or the daemon's `ERR` reply (overload,
    /// drain, compile failure) as [`io::ErrorKind::Other`].
    pub fn open(&mut self, tenant: &str, patterns: &[&str]) -> io::Result<(u64, bool)> {
        self.open_inner(tenant, false, patterns)
    }

    /// Opens a durable stream: it survives this connection, so the
    /// client can reconnect (to this daemon or its successor) and keep
    /// pushing. Required for retry across restarts.
    ///
    /// # Errors
    ///
    /// As [`Client::open`].
    pub fn open_durable(&mut self, tenant: &str, patterns: &[&str]) -> io::Result<(u64, bool)> {
        self.open_inner(tenant, true, patterns)
    }

    /// Pushes one chunk; returns the global match-end positions in it.
    /// When the client tracks the stream's offset (it does for streams
    /// it opened), the push is idempotent: a lost ack is retried and
    /// answered from the daemon's replay window, never scanned twice.
    ///
    /// # Errors
    ///
    /// Transport failures or the daemon's `ERR` reply.
    pub fn push(&mut self, id: u64, chunk: &[u8]) -> io::Result<Vec<u64>> {
        let offset = self.offsets.get(&id).copied();
        let request = wire::push_frame(id, offset, chunk);
        let parse = |payload: &str| {
            let mut parts = payload.split_whitespace();
            let count = parts.next()?.parse::<u64>().ok()?;
            let ends = parts.map(|p| p.parse::<u64>().ok()).collect::<Option<Vec<u64>>>()?;
            (ends.len() as u64 == count).then_some(ends)
        };
        let ends = match self.call(&request, offset.is_some(), parse) {
            Ok(ends) => ends,
            Err(e) => {
                // Resync the offset record from an OFFSET refusal so
                // the caller can recover deliberately.
                let text = e.to_string();
                if let Some(rest) = text.strip_prefix("OFFSET ") {
                    if let Some(expected) =
                        rest.split_whitespace().next().and_then(|t| t.parse::<u64>().ok())
                    {
                        self.offsets.insert(id, expected);
                    }
                }
                return Err(e);
            }
        };
        if let Some(at) = offset {
            self.offsets.insert(id, at + chunk.len() as u64);
        }
        Ok(ends)
    }

    /// Hot-swaps the stream onto a new pattern set; returns the new
    /// generation.
    ///
    /// # Errors
    ///
    /// Transport failures or the daemon's `ERR` reply.
    pub fn swap(&mut self, id: u64, patterns: &[&str]) -> io::Result<u64> {
        self.call(&pattern_line(format!("SWAP {id}"), patterns), false, |payload| {
            let mut parts = payload.split_whitespace();
            let generation = parts.next()?.parse::<u64>().ok()?;
            parts.next().is_none().then_some(generation)
        })
    }

    /// Closes the stream; returns `(bytes consumed, match count)`.
    ///
    /// # Errors
    ///
    /// Transport failures or the daemon's `ERR` reply.
    pub fn close(&mut self, id: u64) -> io::Result<(u64, u64)> {
        let totals = self.call(format!("CLOSE {id}\n").as_bytes(), false, |payload| {
            let mut parts = payload.split_whitespace();
            let consumed = parts.next()?.parse::<u64>().ok()?;
            let matches = parts.next()?.parse::<u64>().ok()?;
            parts.next().is_none().then_some((consumed, matches))
        })?;
        self.offsets.remove(&id);
        Ok(totals)
    }

    /// Fetches and parses the service counters. A reply that does not
    /// parse is retried like a torn one, never returned.
    ///
    /// # Errors
    ///
    /// Transport failures or the daemon's `ERR` reply.
    pub fn metrics(&mut self) -> io::Result<ServeMetrics> {
        self.call(b"STATS\n", true, ServeMetrics::from_json)
    }

    /// Asks the daemon to drain: checkpoint every durable stream into
    /// its manifest and exit. Returns once the daemon acknowledged the
    /// request (the drain itself proceeds asynchronously).
    ///
    /// # Errors
    ///
    /// Transport failures or the daemon's `ERR` reply.
    pub fn drain(&mut self) -> io::Result<()> {
        self.call(b"DRAIN\n", true, |payload| payload.is_empty().then_some(()))
    }

    /// Asks the daemon to exit cleanly without draining.
    ///
    /// # Errors
    ///
    /// Transport failures or the daemon's `ERR` reply.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.call(b"SHUTDOWN\n", true, |payload| payload.is_empty().then_some(()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;

    /// A push reply is `OK`, the count, then each end: written into one
    /// buffer, byte for byte what it was when each end was its own
    /// string.
    #[test]
    fn push_replies_are_exact() {
        let service = ScanService::start(ServeConfig::default());
        let mut opened = Vec::new();
        let open = Request::Open {
            tenant: "t".to_string(),
            durable: false,
            patterns: vec!["GET /[a-z]+".to_string()],
        };
        let (reply, _, exempt) = respond(Ok(open), &service, &mut opened);
        let id = reply.strip_suffix(" MISS").and_then(|r| r.strip_prefix("OK "));
        let id: u64 = id.and_then(|id| id.parse().ok()).expect("OK <id> MISS");
        assert!(exempt);
        let mut push = |chunk: &[u8]| {
            let request = Request::Push { id, offset: None, chunk: chunk.to_vec() };
            respond(Ok(request), &service, &mut opened).0
        };
        assert_eq!(push(b"GET /index"), "OK 5 5 6 7 8 9");
        assert_eq!(push(b" no match"), "OK 0");
        assert_eq!(push(b" GET /ab"), "OK 2 25 26");
        let header = Request::PushHeader { id, offset: None, len: 3 };
        assert_eq!(respond(Ok(header), &service, &mut opened).0, "ERR PROTO raw push header");
        service.shutdown();
    }
}
