//! The crash-tolerance soak: daemons are drained, killed, and restarted
//! under multi-stream load, replies are corrupted on the wire, and every
//! surviving stream must still be **bit-identical** to a standalone
//! scanner fed the same bytes — with the service counters reconciling
//! exactly (no match double-counted through a retry, none lost through
//! a drain).
//!
//! Four layers get soaked here:
//!  * drain → manifest → adopt across two daemon processes' worth of
//!    services over a Unix socket, 64 streams at once;
//!  * the TCP transport speaking the same protocol;
//!  * the retrying client against a seeded [`WireFaultPlan`] corrupting
//!    replies (torn, truncated, garbage, delayed);
//!  * deadline-forced drain with an in-flight push, which must roll
//!    back and re-push cleanly on the successor.

use bitgen::BitGen;
use bitgen_serve::{
    serve, Client, DaemonConfig, Endpoint, RetryConfig, ScanService, ServeConfig, WireFaultPlan,
};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Shared rule-set pool, as in the serve soak.
const SETS: &[&[&str]] = &[
    &["cat", "do+g"],
    &["GET /[a-z]+", "err(or)?"],
    &["a+b", "(ab)*c"],
    &["x[ab]{1,4}y", "warn"],
];

/// Byte soup that trips every set somewhere.
const SOUP: &[u8] = b"cat dooog GET /index error aab ababc xaby warn xy ";

/// One stream's whole life, decided up front: what it scans, how the
/// bytes are chunked, and at which chunk boundary the daemon restart
/// splits it.
struct Plan {
    tenant: String,
    set: usize,
    input: Vec<u8>,
    chunks: Vec<(usize, usize)>,
    /// Chunks `..split` go to the first daemon, the rest to its
    /// successor.
    split: usize,
}

/// Deterministic plans without pulling in an RNG: lengths and splits
/// are mixed from the stream index.
fn build_plans(count: usize) -> Vec<Plan> {
    (0..count)
        .map(|idx| {
            let len = 150 + (idx * 37) % 180;
            let input: Vec<u8> =
                (0..len).map(|i| SOUP[(i * 7 + idx * 13) % SOUP.len()]).collect();
            let mut chunks = Vec::new();
            let mut pos = 0usize;
            let mut step = 5 + idx % 11;
            while pos < len {
                let end = (pos + step).min(len);
                chunks.push((pos, end));
                pos = end;
                step = 5 + (step * 3 + 1) % 17;
            }
            let split = 1 + (idx * 5 + 3) % (chunks.len() - 1);
            Plan { tenant: format!("tenant-{}", idx % 5), set: idx % SETS.len(), input, chunks, split }
        })
        .collect()
}

/// Ground truth: one uninterrupted standalone scan over the same chunks.
fn expected_ends(plan: &Plan) -> Vec<u64> {
    let engine = BitGen::compile(SETS[plan.set]).unwrap();
    let mut scanner = engine.streamer().unwrap();
    let mut ends = Vec::new();
    for &(s, e) in &plan.chunks {
        ends.extend(scanner.push(&plan.input[s..e]).unwrap());
    }
    ends
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bitgen-drain-{tag}-{}", std::process::id()))
}

fn wait_for_socket(path: &Path) {
    let mut waited = 0;
    while !path.exists() && waited < 1000 {
        std::thread::sleep(Duration::from_millis(5));
        waited += 1;
    }
    assert!(path.exists(), "daemon never bound {}", path.display());
}

/// The tentpole acceptance: 64 durable streams scattered across two
/// daemon lifetimes stitch together bit-identically, the manifest file
/// carries them across the restart, and both daemons' counters
/// reconcile exactly.
#[test]
fn drain_handoff_64_streams_bit_identical() {
    let socket = temp_path("handoff.sock");
    let manifest_path = temp_path("handoff.manifest");
    let _ = std::fs::remove_file(&manifest_path);
    let plans = build_plans(64);
    let expected: Vec<Vec<u64>> = plans.iter().map(expected_ends).collect();

    let config = DaemonConfig {
        manifest_path: Some(manifest_path.clone()),
        ..DaemonConfig::default()
    };
    let first = {
        let socket = socket.clone();
        let config = config.clone();
        std::thread::spawn(move || {
            serve(
                &Endpoint::Unix(socket),
                ScanService::start(ServeConfig { workers: 4, ..ServeConfig::default() }),
                config,
            )
        })
    };
    wait_for_socket(&socket);

    // First life: open every stream durable, push the head chunks.
    let mut client = Client::connect(&socket).unwrap();
    let mut ids = Vec::new();
    let mut served: Vec<Vec<u64>> = Vec::new();
    for plan in &plans {
        let (id, _) = client.open_durable(&plan.tenant, SETS[plan.set]).unwrap();
        let mut ends = Vec::new();
        for &(s, e) in &plan.chunks[..plan.split] {
            ends.extend(client.push(id, &plan.input[s..e]).unwrap());
        }
        ids.push(id);
        served.push(ends);
    }
    let offsets: Vec<u64> = ids.iter().map(|id| client.offset(*id).unwrap()).collect();

    client.drain().unwrap();
    let outcome = first.join().unwrap().unwrap();
    assert!(!outcome.forced, "nothing was in flight; the drain must be clean");
    let manifest = outcome.drained.expect("a drain must produce its manifest");
    assert_eq!(manifest.entries.len(), 64, "every durable stream is checkpointed");
    assert!(manifest_path.exists(), "the manifest must be written for the successor");
    assert!(!socket.exists(), "the drained daemon must remove its socket");

    // Second life: the successor adopts from the manifest file, and the
    // same stream ids keep working at the same offsets.
    let second = {
        let socket = socket.clone();
        std::thread::spawn(move || {
            serve(
                &Endpoint::Unix(socket),
                ScanService::start(ServeConfig { workers: 4, ..ServeConfig::default() }),
                config,
            )
        })
    };
    wait_for_socket(&socket);
    assert!(!manifest_path.exists(), "an adopted manifest must be consumed");

    let mut client = Client::connect(&socket).unwrap();
    for (idx, plan) in plans.iter().enumerate() {
        let id = ids[idx];
        client.set_offset(id, offsets[idx]);
        let ends = &mut served[idx];
        for &(s, e) in &plan.chunks[plan.split..] {
            ends.extend(client.push(id, &plan.input[s..e]).unwrap());
        }
        let (consumed, matches) = client.close(id).unwrap();
        assert_eq!(consumed, plan.input.len() as u64, "stream {id} lost bytes in the handoff");
        assert_eq!(matches, ends.len() as u64, "stream {id} lost matches in the handoff");
    }
    let metrics = client.metrics().unwrap();
    client.shutdown().unwrap();
    let outcome = second.join().unwrap().unwrap();
    assert!(outcome.drained.is_none(), "SHUTDOWN is not a drain");

    for (idx, (got, want)) in served.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "stream {idx} diverged from its uninterrupted standalone scan");
    }

    // Exact successor accounting: 64 adoptions, 64 closes, every tail
    // push completed, no retries and no replays on a clean handoff.
    assert_eq!(metrics.streams_adopted, 64);
    assert_eq!(metrics.streams_opened, 64, "adoption counts as an open");
    assert_eq!(metrics.pushes_replayed, 0);
    assert_eq!(metrics.rejected_draining, 0);
    assert_eq!(
        metrics.pushes_completed,
        plans.iter().map(|p| (p.chunks.len() - p.split) as u64).sum::<u64>()
    );
    assert_eq!(
        metrics.bytes_scanned,
        plans
            .iter()
            .map(|p| p.chunks[p.split..].iter().map(|(s, e)| (e - s) as u64).sum::<u64>())
            .sum::<u64>()
    );
    let head_matches = served_head_total(&expected, &plans);
    let all_matches = expected.iter().map(|e| e.len() as u64).sum::<u64>();
    assert_eq!(metrics.match_count, all_matches - head_matches);
    // Per-tenant gauges return to zero once every stream is closed.
    for (tenant, t) in &metrics.tenants {
        assert_eq!(t.open_streams, 0, "tenant {tenant} leaked a stream");
    }
}

/// Matches produced during the first daemon's life (the successor's
/// `match_count` covers only the tail).
fn served_head_total(expected: &[Vec<u64>], plans: &[Plan]) -> u64 {
    expected
        .iter()
        .zip(plans)
        .map(|(ends, plan)| {
            let boundary = plan.chunks[plan.split - 1].1 as u64;
            ends.iter().filter(|&&e| e <= boundary).count() as u64
        })
        .sum()
}

/// The TCP transport speaks the identical protocol: same client code,
/// same bit-identical output, same shutdown handshake.
#[test]
fn tcp_transport_round_trips_bit_identically() {
    // Reserve a free port, then hand its address to the daemon.
    let addr = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().to_string();
    let endpoint = Endpoint::Tcp(addr);
    let server = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            serve(&endpoint, ScanService::start(ServeConfig::default()), DaemonConfig::default())
        })
    };

    let input: Vec<u8> = SOUP.repeat(5);
    let mut waited = 0;
    let mut client = loop {
        match Client::connect_to(&endpoint, RetryConfig::default()) {
            Ok(client) => break client,
            Err(e) => assert!(waited < 1000, "daemon never bound {endpoint}: {e}"),
        }
        std::thread::sleep(Duration::from_millis(5));
        waited += 1;
    };
    let (id, hit) = client.open("tcp-tenant", SETS[1]).unwrap();
    assert!(!hit);
    let mut served = Vec::new();
    for chunk in input.chunks(19) {
        served.extend(client.push(id, chunk).unwrap());
    }
    let (consumed, matches) = client.close(id).unwrap();
    assert_eq!(consumed, input.len() as u64);
    assert_eq!(matches, served.len() as u64);

    let engine = BitGen::compile(SETS[1]).unwrap();
    let mut scanner = engine.streamer().unwrap();
    let mut standalone = Vec::new();
    for chunk in input.chunks(19) {
        standalone.extend(scanner.push(chunk).unwrap());
    }
    assert_eq!(served, standalone, "TCP-served matches must be bit-identical");

    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

/// A frame past the daemon's bound gets the typed `FRAME` refusal and a
/// hangup, not unbounded buffering — asserted at the wire level.
#[test]
fn oversized_frame_is_refused_typed_on_the_wire() {
    let socket = temp_path("frame.sock");
    let config = DaemonConfig { max_line: 64, ..DaemonConfig::default() };
    let server = {
        let socket = socket.clone();
        std::thread::spawn(move || {
            serve(
                &Endpoint::Unix(socket),
                ScanService::start(ServeConfig::default()),
                config,
            )
        })
    };
    wait_for_socket(&socket);

    let mut raw = UnixStream::connect(&socket).unwrap();
    raw.write_all(b"PING x").unwrap();
    raw.write_all(&vec![b'x'; 4096]).unwrap();
    raw.write_all(b"\n").unwrap();
    let mut line = String::new();
    BufReader::new(raw.try_clone().unwrap()).read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR FRAME"), "expected a typed frame refusal, got {line:?}");

    let mut client = Client::connect(&socket).unwrap();
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

/// The wire-fault sweep: a seeded plan corrupts one in four replies —
/// torn connections, truncated lines, garbage, holds past the client's
/// read deadline — and a resilient client still produces bit-identical
/// output. `bytes_scanned` proves no chunk was ever scanned twice: lost
/// acks were answered from the replay window.
#[test]
fn wire_faults_are_survived_by_the_retrying_client() {
    let socket = temp_path("faults.sock");
    let config = DaemonConfig {
        faults: Some(
            WireFaultPlan::from_seed(0xfa17, 4).with_delay(Duration::from_millis(400)),
        ),
        ..DaemonConfig::default()
    };
    let server = {
        let socket = socket.clone();
        std::thread::spawn(move || {
            serve(
                &Endpoint::Unix(socket),
                ScanService::start(ServeConfig::default()),
                config,
            )
        })
    };
    wait_for_socket(&socket);

    let retry = RetryConfig {
        attempts: 12,
        io_timeout: Some(Duration::from_millis(150)),
        ..RetryConfig::resilient()
    };
    let input: Vec<u8> = SOUP.repeat(8);
    let chunks: Vec<&[u8]> = input.chunks(21).collect();
    let mut client = Client::connect_to(&Endpoint::Unix(socket), retry).unwrap();
    // Durable: the stream must survive the torn connections.
    let (id, _) = client.open_durable("fault-tenant", SETS[0]).unwrap();
    let mut served = Vec::new();
    for chunk in &chunks {
        served.extend(client.push(id, chunk).unwrap());
    }
    let (consumed, matches) = client.close(id).unwrap();
    assert_eq!(consumed, input.len() as u64);
    assert_eq!(matches, served.len() as u64);

    let engine = BitGen::compile(SETS[0]).unwrap();
    let mut scanner = engine.streamer().unwrap();
    let mut standalone = Vec::new();
    for chunk in &chunks {
        standalone.extend(scanner.push(chunk).unwrap());
    }
    assert_eq!(served, standalone, "faulted wire must not change a single match");

    // STATS replies are fault-eligible too; retry until a clean record.
    let metrics = (0..32)
        .find_map(|_| client.metrics().ok())
        .expect("a clean STATS reply within 32 attempts");
    assert_eq!(
        metrics.bytes_scanned,
        input.len() as u64,
        "every chunk scanned exactly once — replays answered from the ack window"
    );
    assert_eq!(metrics.match_count, served.len() as u64);
    assert_eq!(metrics.pushes_completed, chunks.len() as u64);
    assert!(
        metrics.pushes_replayed > 0,
        "a 1-in-4 fault rate over {} pushes must exercise the replay window",
        chunks.len()
    );
    let tenant = metrics.tenants.get("fault-tenant").expect("per-tenant row");
    assert_eq!(tenant.retries, metrics.pushes_replayed);

    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

/// A corrupt manifest refuses adoption at startup — typed, before the
/// socket ever binds — instead of serving with silently lost streams.
#[test]
fn tampered_manifest_refuses_to_serve() {
    let socket = temp_path("tamper.sock");
    let manifest_path = temp_path("tamper.manifest");
    std::fs::write(&manifest_path, b"BGDM not a manifest").unwrap();
    let err = serve(
        &Endpoint::Unix(socket.clone()),
        ScanService::start(ServeConfig::default()),
        DaemonConfig { manifest_path: Some(manifest_path.clone()), ..DaemonConfig::default() },
    )
    .unwrap_err();
    assert!(err.to_string().contains("checkpoint"), "typed refusal, got: {err}");
    assert!(!socket.exists(), "a refused adoption must never bind");
    let _ = std::fs::remove_file(&manifest_path);
}

/// Starts a default daemon on a Unix socket at `path` and returns why it
/// refused to start; fails if it is serving there after five seconds.
fn refused_serve(path: &Path) -> std::io::Error {
    let endpoint = Endpoint::Unix(path.to_path_buf());
    let (sent, outcome) = std::sync::mpsc::channel();
    let daemon = std::thread::spawn(move || {
        let service = ScanService::start(ServeConfig::default());
        let _ = sent.send(serve(&endpoint, service, DaemonConfig::default()));
    });
    match outcome.recv_timeout(Duration::from_secs(5)) {
        Ok(result) => {
            daemon.join().unwrap();
            result.expect_err("serve must refuse this path")
        }
        Err(_) => panic!("serve took over {} and is serving on it", path.display()),
    }
}

/// `serve` replaces only a stale socket: a regular file at the path is
/// refused, typed, and keeps its content.
#[test]
fn serve_leaves_a_file_that_is_not_a_socket() {
    let path = temp_path("regular.sock");
    std::fs::write(&path, b"keep me").unwrap();
    let err = refused_serve(&path);
    assert_eq!(err.kind(), ErrorKind::AlreadyExists, "got: {err}");
    assert_eq!(std::fs::read(&path).unwrap(), b"keep me", "the file must survive");
    std::fs::remove_file(&path).unwrap();
}

/// A second daemon on a live daemon's socket is refused, typed, and the
/// first keeps its address and still answers `PING`. Once it is gone, a
/// socket file nobody answers on is stale and a new daemon replaces it.
#[test]
fn serve_refuses_a_live_socket_and_replaces_a_stale_one() {
    let socket = temp_path("live.sock");
    let spawn = || {
        let socket = socket.clone();
        std::thread::spawn(move || {
            serve(
                &Endpoint::Unix(socket),
                ScanService::start(ServeConfig::default()),
                DaemonConfig::default(),
            )
        })
    };
    let first = spawn();
    wait_for_socket(&socket);

    let err = refused_serve(&socket);
    assert_eq!(err.kind(), ErrorKind::AddrInUse, "got: {err}");
    let mut raw = UnixStream::connect(&socket).expect("the first daemon keeps its socket");
    raw.write_all(b"PING\n").unwrap();
    let mut line = String::new();
    BufReader::new(raw).read_line(&mut line).unwrap();
    assert_eq!(line, "OK\n", "the first daemon must still answer");
    Client::connect(&socket).unwrap().shutdown().unwrap();
    first.join().unwrap().unwrap();

    // A socket file whose listener is gone: stale, so it is replaced.
    drop(std::os::unix::net::UnixListener::bind(&socket).unwrap());
    let second = spawn();
    let mut waited = 0;
    let mut client = loop {
        match Client::connect(&socket) {
            Ok(client) => break client,
            Err(e) => assert!(waited < 1000, "the stale socket was never replaced: {e}"),
        }
        std::thread::sleep(Duration::from_millis(5));
        waited += 1;
    };
    client.shutdown().unwrap();
    second.join().unwrap().unwrap();
    assert!(!socket.exists(), "the daemon must remove its socket on exit");
}

/// Forced drain: a push caught in flight at the deadline is cancelled
/// and rolled back, the manifest still seals a consistent boundary, and
/// re-pushing the refused bytes on the successor lands bit-identically.
/// (Whether the racing push commits or cancels is timing-dependent;
/// both outcomes must stitch to the same standalone scan.)
#[test]
fn forced_drain_rolls_back_and_successor_resumes() {
    use bitgen_serve::ServeError;

    let service = ScanService::start(ServeConfig::default());
    let head: Vec<u8> = SOUP.repeat(3);
    let big: Vec<u8> = SOUP.repeat(200_000); // ~10 MB: long enough to catch in flight
    let tail: Vec<u8> = SOUP.repeat(2);

    let admission = service.open_stream("forced", SETS[0]).unwrap();
    let id = admission.stream;
    let mut head_ends = service.push_chunk(id, &head).unwrap();

    let (manifest, forced, racer_result) = std::thread::scope(|scope| {
        let racer = scope.spawn(|| service.push_chunk(id, &big));
        // Give the racer a moment to enter the scan, then force.
        std::thread::sleep(Duration::from_millis(5));
        let (manifest, forced) = service.drain(Duration::ZERO);
        (manifest, forced, racer.join().unwrap())
    });
    assert_eq!(manifest.entries.len(), 1);
    let metrics = service.metrics();
    assert_eq!(metrics.drains, 1);
    assert_eq!(metrics.drains_forced, u64::from(forced));
    service.shutdown();

    let big_committed = match &racer_result {
        Ok(ends) => {
            head_ends.extend(ends.iter().copied());
            true
        }
        Err(ServeError::Scan(_)) => false,
        Err(other) => panic!("unexpected racer failure: {other}"),
    };
    let entry = &manifest.entries[0];
    let expected_boundary =
        head.len() as u64 + if big_committed { big.len() as u64 } else { 0 };
    // The manifest's checkpoint must sit exactly on a push boundary —
    // a cancelled push rolled back completely.
    let successor = ScanService::start(ServeConfig::default());
    successor.adopt_manifest(&manifest).unwrap();
    let resumed = successor.checkpoint(entry.stream).unwrap();
    assert_eq!(resumed.consumed(), expected_boundary, "forced drain tore a push boundary");

    let mut ends = head_ends;
    if !big_committed {
        ends.extend(successor.push_chunk(entry.stream, &big).unwrap());
    }
    ends.extend(successor.push_chunk(entry.stream, &tail).unwrap());
    successor.close_stream(entry.stream).unwrap();
    successor.shutdown();

    let engine = BitGen::compile(SETS[0]).unwrap();
    let mut scanner = engine.streamer().unwrap();
    let mut standalone = Vec::new();
    for chunk in [&head[..], &big[..], &tail[..]] {
        standalone.extend(scanner.push(chunk).unwrap());
    }
    assert_eq!(ends, standalone, "forced drain must not lose or duplicate a match");
}
