//! Adversarial decoding at the daemon's untrusted edge, in the style of
//! `tests/checkpoint_fuzz.rs`: request lines ([`wire::parse_request`]),
//! raw `PUSH` frames, `STATS` replies ([`ServeMetrics::from_json`]) and
//! drain manifests ([`DrainManifest::from_bytes`]) come from other
//! processes. Whatever bit flips, truncations and spliced-in bytes do to
//! a valid encoding, the decoder returns a value that re-encodes to
//! itself or fails typed; it never panics and never sizes an allocation
//! from a length field the input does not back (a raw frame's length
//! buys at most one 64 KiB read ahead, pinned by `bitgen-serve`'s
//! transport unit tests).

use bitgen::{BitGen, Error};
use bitgen_ir::{fnv1a, FNV_OFFSET};
use bitgen_serve::wire::{self, Request};
use bitgen_serve::{
    serve, AckRecord, DaemonConfig, DrainEntry, DrainManifest, Endpoint, ScanService,
    ServeConfig, ServeMetrics, TenantMetrics,
};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// One fuzzing step on encoded bytes; parameters are reduced modulo the
/// current length when applied, so every step is valid for every
/// intermediate buffer.
fn mutate(bytes: &mut Vec<u8>, steps: &[(u8, usize, u8)]) {
    for &(kind, pos, byte) in steps {
        match kind {
            0 if !bytes.is_empty() => {
                let bit = pos % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            0 => {}
            1 => bytes.truncate(pos % (bytes.len() + 1)),
            _ => bytes.insert(pos % (bytes.len() + 1), byte),
        }
    }
}

fn arb_mutations() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
    prop::collection::vec((0u8..3, 0usize..4096, 0u8..=255), 0..8)
}

/// Text with what the encoders must escape: quotes, backslashes,
/// control characters, whitespace, multi-byte scalars, the empty string.
fn arb_text() -> impl Strategy<Value = String> {
    let alphabet: Vec<char> = "ab(c)*\" \\\n\t\u{1}:,{}-Dé🦀".chars().collect();
    prop::collection::vec(prop::sample::select(alphabet), 0..12)
        .prop_map(|chars| chars.into_iter().collect())
}

fn arb_patterns() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(arb_text(), 1..4)
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (arb_text(), any::<bool>(), arb_patterns())
            .prop_map(|(tenant, durable, patterns)| Request::Open { tenant, durable, patterns }),
        (any::<u64>(), any::<bool>(), any::<u64>(), prop::collection::vec(any::<u8>(), 0..64)).prop_map(
            |(id, checked, at, chunk)| Request::Push { id, offset: checked.then_some(at), chunk }
        ),
        (any::<u64>(), any::<bool>(), any::<u64>(), any::<u32>()).prop_map(
            |(id, checked, at, len)| Request::PushHeader {
                id,
                offset: checked.then_some(at),
                len: len as usize,
            }
        ),
        (any::<u64>(), arb_patterns()).prop_map(|(id, patterns)| Request::Swap { id, patterns }),
        any::<u64>().prop_map(|id| Request::Cancel { id }),
        any::<u64>().prop_map(|id| Request::Reset { id }),
        any::<u64>().prop_map(|id| Request::Close { id }),
        prop::sample::select(vec![
            Request::Stats,
            Request::Ping,
            Request::Drain,
            Request::Shutdown
        ]),
    ]
}

/// The line a client sends for `request` (the table in `wire`'s docs).
fn request_line(request: &Request) -> String {
    let hex_all = |texts: &[String]| -> String {
        texts.iter().map(|t| format!(" {}", wire::hex_encode(t.as_bytes()))).collect()
    };
    match request {
        Request::Open { tenant, durable, patterns } => format!(
            "OPEN {}{}{}",
            wire::hex_encode(tenant.as_bytes()),
            if *durable { " D" } else { "" },
            hex_all(patterns)
        ),
        Request::Push { id, offset, chunk } => format!(
            "PUSH {id} {} {}",
            offset.map_or("-".to_string(), |at| at.to_string()),
            wire::hex_encode(chunk)
        ),
        Request::PushHeader { id, offset, len } => {
            format!("PUSH {id} {} #{len}", offset.map_or("-".to_string(), |at| at.to_string()))
        }
        Request::Swap { id, patterns } => format!("SWAP {id}{}", hex_all(patterns)),
        Request::Cancel { id } => format!("CANCEL {id}"),
        Request::Reset { id } => format!("RESET {id}"),
        Request::Close { id } => format!("CLOSE {id}"),
        Request::Stats => "STATS".to_string(),
        Request::Ping => "PING".to_string(),
        Request::Drain => "DRAIN".to_string(),
        Request::Shutdown => "SHUTDOWN".to_string(),
    }
}

/// The request grammar over the tokens of the *whole* line
/// (`split_whitespace`, every token collected first): what
/// `wire::parse_request`, which peels operands off the front and never
/// tokenises a chunk, must keep accepting.
fn parse_by_tokens(line: &str) -> Option<Request> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let (verb, rest) = tokens.split_first()?;
    let text = |token: &&str| String::from_utf8(wire::hex_decode(token)?).ok();
    let id = || rest.first()?.parse::<u64>().ok();
    let patterns = |tokens: &[&str]| -> Option<Vec<String>> {
        (!tokens.is_empty()).then(|| tokens.iter().map(text).collect())?
    };
    Some(match *verb {
        "OPEN" => {
            let durable = rest.get(1) == Some(&"D");
            Request::Open {
                tenant: text(rest.first()?)?,
                durable,
                patterns: patterns(&rest[if durable { 2 } else { 1 }..])?,
            }
        }
        "PUSH" => {
            let (id, offset) = (
                id()?,
                match *rest.get(1)? {
                    "-" => None,
                    at => Some(at.parse::<u64>().ok()?),
                },
            );
            let operand = rest.get(2).copied().unwrap_or("-");
            match operand.strip_prefix('#') {
                Some(len) if len.bytes().all(|b| b.is_ascii_digit()) => {
                    Request::PushHeader { id, offset, len: len.parse().ok()? }
                }
                Some(_) => return None,
                None => Request::Push { id, offset, chunk: wire::hex_decode(operand)? },
            }
        }
        "SWAP" => Request::Swap { id: id()?, patterns: patterns(&rest[1..])? },
        "CANCEL" => Request::Cancel { id: id()? },
        "RESET" => Request::Reset { id: id()? },
        "CLOSE" => Request::Close { id: id()? },
        "STATS" => Request::Stats,
        "PING" => Request::Ping,
        "DRAIN" => Request::Drain,
        "SHUTDOWN" => Request::Shutdown,
        _ => return None,
    })
}

fn arb_metrics() -> impl Strategy<Value = ServeMetrics> {
    let tenant = (arb_text(), any::<u32>(), any::<u32>()).prop_map(|(name, a, b)| {
        let (a, b) = (u64::from(a), u64::from(b));
        (name, TenantMetrics { open_streams: a % 7, pushes: a, rejections: b % 5, retries: b })
    });
    (prop::collection::vec(any::<u32>(), 20), prop::collection::vec(tenant, 0..4)).prop_map(
        |(v, tenants)| {
            let c = |i: usize| u64::from(v[i]) << (i % 3 * 8);
            ServeMetrics {
                cache_hits: c(0),
                cache_misses: c(1),
                cache_evictions: c(2),
                streams_opened: c(3),
                streams_closed: c(4),
                rejected_admissions: c(5),
                rejected_pushes: c(6),
                rejected_draining: c(7),
                pushes_completed: c(8),
                pushes_failed: c(9),
                pushes_replayed: c(10),
                queue_wait_seconds: f64::from(v[11]) / 1024.0,
                queue_wait_max_seconds: f64::from(v[12]) / 3.0,
                hot_swaps: c(13),
                bytes_scanned: c(14),
                match_count: c(15),
                drains: c(16),
                drains_forced: c(17),
                streams_drained: c(18),
                streams_adopted: c(19),
                tenants: tenants.into_iter().collect(),
            }
        },
    )
}

fn arb_manifest() -> impl Strategy<Value = DrainManifest> {
    let ack = (any::<bool>(), any::<u64>(), prop::collection::vec(any::<u64>(), 0..5))
        .prop_map(|(some, offset, ends)| some.then_some(AckRecord { offset, ends }));
    let entry = (
        (any::<u64>(), any::<u64>()),
        arb_text(),
        prop::collection::vec(arb_text(), 0..4),
        prop::collection::vec(any::<u8>(), 0..48),
        ack,
    )
        .prop_map(|((stream, generation), tenant, patterns, checkpoint, last_ack)| {
            DrainEntry { stream, tenant, generation, patterns, checkpoint, last_ack }
        });
    prop::collection::vec(entry, 0..4).prop_map(|entries| DrainManifest { entries })
}

/// Re-seals a tampered payload (FNV-1a over everything before the
/// trailing eight bytes) so it reaches the field decoder behind the seal.
fn reseal(bytes: &mut Vec<u8>) {
    bytes.truncate(bytes.len().saturating_sub(8));
    let seal = fnv1a(FNV_OFFSET, bytes);
    bytes.extend(seal.to_le_bytes());
}

/// A decoded manifest re-encodes to itself, and none of its vectors was
/// sized beyond what `input` could hold.
fn assert_manifest_is_backed_by(manifest: &DrainManifest, input: &[u8]) {
    assert_eq!(DrainManifest::from_bytes(&manifest.to_bytes()).as_ref(), Ok(manifest));
    let n = input.len();
    assert!(manifest.entries.capacity() <= n);
    for entry in &manifest.entries {
        assert!(entry.patterns.capacity() <= n && entry.checkpoint.capacity() <= n);
        assert!(entry.patterns.iter().all(|pattern| pattern.capacity() <= n));
        assert!(entry.last_ack.iter().all(|ack| ack.ends.capacity() <= n));
    }
}

fn manifest_or_typed(bytes: &[u8]) -> Option<DrainManifest> {
    match DrainManifest::from_bytes(bytes) {
        Ok(manifest) => Some(manifest),
        Err(Error::CheckpointInvalid { .. }) => None,
        Err(other) => panic!("from_bytes must fail typed, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn mutated_request_lines_parse_stably_or_fail_typed(
        request in arb_request(),
        steps in arb_mutations(),
    ) {
        let line = request_line(&request);
        prop_assert_eq!(wire::parse_request(&line).as_ref(), Ok(&request));
        let mut bytes = line.into_bytes();
        mutate(&mut bytes, &steps);
        // The daemon's reader hands the parser text; a mangled line
        // parses to *some* request (one hex digit off is still hex)
        // that survives its own round trip, or to a complaint.
        if let Ok(parsed) = wire::parse_request(&String::from_utf8_lossy(&bytes)) {
            prop_assert_eq!(wire::parse_request(&request_line(&parsed)), Ok(parsed));
        }
    }

    #[test]
    fn peeled_operands_are_the_tokens_of_the_whole_line(
        request in arb_request(),
        splices in prop::collection::vec((0usize..4096, 0usize..12), 0..6),
        steps in arb_mutations(),
    ) {
        // Separators of every kind `split_whitespace` knows (one- and
        // multi-byte), doubled, leading, trailing, inside operands, and
        // tokens after the last operand — then the usual damage.
        const SPLICES: [&str; 12] = [
            " ", "\t", "\r", "\u{b}", "\u{c}", "\u{85}", "\u{a0}", "\u{2003}", "  ", " - ", " D ",
            " 6a zz",
        ];
        let mut line = request_line(&request);
        for (at, what) in splices {
            let mut at = at % (line.len() + 1);
            while !line.is_char_boundary(at) {
                at -= 1;
            }
            line.insert_str(at, SPLICES[what]);
        }
        prop_assert_eq!(wire::parse_request(&line).ok(), parse_by_tokens(&line), "{:?}", line);
        let mut bytes = line.into_bytes();
        mutate(&mut bytes, &steps);
        let line = String::from_utf8_lossy(&bytes);
        prop_assert_eq!(wire::parse_request(&line).ok(), parse_by_tokens(&line), "{:?}", line);
    }

    #[test]
    fn mutated_stats_json_parses_stably_or_not_at_all(
        metrics in arb_metrics(),
        steps in arb_mutations(),
    ) {
        let json = metrics.to_json();
        prop_assert_eq!(ServeMetrics::from_json(&json).as_ref(), Some(&metrics));
        let mut bytes = json.into_bytes();
        mutate(&mut bytes, &steps);
        if let Some(parsed) = ServeMetrics::from_json(&String::from_utf8_lossy(&bytes)) {
            let again = ServeMetrics::from_json(&parsed.to_json()).expect("own rendering parses");
            // `1e999` reads as infinity, which renders as `null`.
            if parsed.queue_wait_seconds.is_finite() && parsed.queue_wait_max_seconds.is_finite() {
                prop_assert_eq!(again, parsed);
            }
        }
    }

    #[test]
    fn mutated_manifests_never_panic_or_overallocate(
        manifest in arb_manifest(),
        steps in arb_mutations(),
    ) {
        let original = manifest.to_bytes();
        prop_assert_eq!(DrainManifest::from_bytes(&original).as_ref(), Ok(&manifest));
        let mut bytes = original.clone();
        mutate(&mut bytes, &steps);
        // Sealed: changed bytes do not parse unless the changes cancelled.
        if let Some(parsed) = manifest_or_typed(&bytes) {
            prop_assert_eq!(&bytes, &original);
            prop_assert_eq!(parsed, manifest);
        }
        // Re-sealed, the same damage reaches the field decoder.
        reseal(&mut bytes);
        if let Some(parsed) = manifest_or_typed(&bytes) {
            assert_manifest_is_backed_by(&parsed, &bytes);
        }
    }
}

/// The frame bound of the raw-frame fuzz's daemon: small, so lengths
/// past it are cheap to write.
const FRAME_BOUND: usize = 64;

/// The patterns the raw-frame fuzz scans with.
const FRAME_PATTERNS: &[&str] = &["a\\nb", "xb+"];

/// A daemon on a fresh socket, shut down on drop.
struct FuzzDaemon {
    socket: std::path::PathBuf,
    server: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl FuzzDaemon {
    fn start(tag: u64) -> FuzzDaemon {
        let socket = std::env::temp_dir()
            .join(format!("bitgen-wire-fuzz-{}-{tag}.sock", std::process::id()));
        let endpoint = Endpoint::Unix(socket.clone());
        let config = DaemonConfig { max_line: FRAME_BOUND, ..DaemonConfig::default() };
        let server = std::thread::spawn(move || {
            serve(&endpoint, ScanService::start(ServeConfig::default()), config).map(|_| ())
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while !socket.exists() {
            assert!(Instant::now() < deadline, "daemon never bound {}", socket.display());
            std::thread::sleep(Duration::from_millis(1));
        }
        FuzzDaemon { socket, server: Some(server) }
    }
}

impl Drop for FuzzDaemon {
    fn drop(&mut self) {
        if let Ok(mut conn) = UnixStream::connect(&self.socket) {
            let _ = conn.write_all(b"SHUTDOWN\n");
            let _ = BufReader::new(conn).read_line(&mut String::new());
        }
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
    }
}

/// A reply as the fuzz predicts it: an `OK` line exactly, or the code
/// of an `ERR` line.
#[derive(Debug, PartialEq)]
enum Reply {
    Ok(String),
    Err(String),
}

fn classify(line: &str) -> Reply {
    match line.strip_prefix("ERR ") {
        Some(rest) => Reply::Err(rest.split(' ').next().unwrap_or("").to_string()),
        None => Reply::Ok(line.to_string()),
    }
}

/// One raw frame of the fuzz, damaged or not: `PUSH <id> - #<len>`, then
/// the payload. The damage is none (0), a cut mid-payload that ends the
/// input (1), a length past the bound (2), a length that is missing or
/// not decimal (3), or bytes trailing the payload (4).
fn damaged_frame(id: u64, payload: &[u8], damage: u8, pick: usize, trail: &[u8]) -> Vec<u8> {
    const BAD_LENGTHS: [&str; 8] = ["#", "#+5", "#-1", "#0x10", "#5a", "# 5", "#\u{661}", "#5.0"];
    let length = match damage {
        2 => format!("#{}", FRAME_BOUND + 1 + pick),
        3 => BAD_LENGTHS[pick % BAD_LENGTHS.len()].to_string(),
        _ => format!("#{}", payload.len()),
    };
    let mut frame = format!("PUSH {id} - {length}\n").into_bytes();
    match damage {
        1 => frame.extend_from_slice(&payload[..pick % (payload.len() + 1)]),
        4 => {
            frame.extend_from_slice(payload);
            frame.extend_from_slice(trail);
        }
        _ => frame.extend_from_slice(payload),
    }
    frame
}

/// The replies a daemon with `FRAME_BOUND` owes `input` on a connection
/// that then ends, by walking the whole input: lines split on `\n`, and
/// after a raw header exactly its `len` bytes. A refusal that cannot be
/// framed past (a line or a length over the bound, a `#` operand that
/// does not parse) ends the replies, as the end of input does.
fn frame_replies(input: &[u8], scanner: &mut bitgen::StreamScanner<'_>) -> Vec<Reply> {
    let mut scan = |chunk: &[u8]| {
        let ends = scanner.push(chunk).unwrap();
        let mut reply = format!("OK {}", ends.len());
        for end in ends {
            reply.push_str(&format!(" {end}"));
        }
        Reply::Ok(reply)
    };
    let (mut replies, mut at) = (Vec::new(), 0);
    while let Some(newline) = input[at..].iter().position(|&b| b == b'\n') {
        let raw = &input[at..at + newline];
        let line = raw.strip_suffix(b"\r").unwrap_or(raw);
        at += newline + 1;
        if line.len() > FRAME_BOUND {
            replies.push(Reply::Err("FRAME".to_string()));
            return replies;
        }
        let text = String::from_utf8_lossy(line);
        if text.trim().is_empty() {
            continue;
        }
        match wire::parse_request(&text) {
            Ok(Request::PushHeader { len, .. }) if len > FRAME_BOUND => {
                replies.push(Reply::Err("FRAME".to_string()));
                return replies;
            }
            Ok(Request::PushHeader { len, .. }) => {
                let Some(payload) = input.get(at..at + len) else { return replies };
                at += len;
                replies.push(scan(payload));
            }
            Ok(Request::Push { chunk, .. }) => replies.push(scan(&chunk)),
            Ok(Request::Ping) => replies.push(Reply::Ok("OK".to_string())),
            Ok(other) => panic!("the fuzz never builds {other:?}"),
            Err(_) => {
                replies.push(Reply::Err("PROTO".to_string()));
                if wire::announces_payload(&text) {
                    return replies;
                }
            }
        }
    }
    let tail = input[at..].strip_suffix(b"\r").unwrap_or(&input[at..]);
    if tail.len() > FRAME_BOUND {
        replies.push(Reply::Err("FRAME".to_string()));
    }
    replies
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Raw frames through a daemon, damaged the ways a frame can be:
    /// cut mid-payload, a length past the bound, a length missing or not
    /// decimal, bytes trailing the payload. Payloads hold `\n`, `\r`
    /// and `0xff`. Every reply is the one a walk of the whole input
    /// predicts — a scan of exactly the announced bytes, or a typed
    /// refusal — and the connection ends; nothing panics, hangs or
    /// reads a payload as requests.
    #[test]
    fn damaged_raw_frames_frame_exactly_or_refuse_typed(
        frames in prop::collection::vec(
            (
                prop::collection::vec(prop::sample::select(b"ab\n\r\xffx ".to_vec()), 0..48),
                prop_oneof![Just(0u8), 0u8..5],
                0usize..256,
                prop::collection::vec(prop::sample::select(b"ab\n\r\xffx ".to_vec()), 1..12),
            ),
            1..4,
        ),
        tag in any::<u64>(),
    ) {
        let daemon = FuzzDaemon::start(tag);
        let mut conn = UnixStream::connect(&daemon.socket).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut open = format!("OPEN {}", wire::hex_encode(b"fuzz"));
        for pattern in FRAME_PATTERNS {
            open.push_str(&format!(" {}", wire::hex_encode(pattern.as_bytes())));
        }
        conn.write_all(format!("{open}\n").as_bytes()).unwrap();
        let mut opened = String::new();
        reader.read_line(&mut opened).unwrap();
        let id: u64 = opened.split(' ').nth(1).and_then(|id| id.parse().ok()).expect("OK <id>");

        let mut input = Vec::new();
        for (payload, damage, pick, trail) in &frames {
            input.extend(damaged_frame(id, payload, *damage, *pick, trail));
            if *damage == 1 {
                break;
            }
        }
        if !frames.iter().any(|(_, damage, _, _)| *damage == 1) {
            input.extend_from_slice(b"PING\n");
        }
        // The daemon may hang up before it has read everything.
        let _ = conn.write_all(&input);
        let _ = conn.shutdown(Shutdown::Write);
        let mut got = Vec::new();
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => got.push(classify(line.trim_end_matches('\n'))),
            }
        }
        let engine = BitGen::compile(FRAME_PATTERNS).unwrap();
        let mut scanner = engine.streamer().unwrap();
        let want = frame_replies(&input, &mut scanner);
        prop_assert_eq!(got, want, "input {:?}", String::from_utf8_lossy(&input));
    }
}

/// Every count and length field of a manifest, forged to `u32::MAX` (and
/// to a value a lazy allocator would grant) under a valid seal, is
/// refused or bounded by the bytes present — found by position sweep, so
/// the test does not restate the layout. Forged to zero, the pattern-set
/// count of each entry is a typed refusal: an entry must name what its
/// stream runs.
#[test]
fn forged_manifest_counts_are_refused_before_allocating() {
    let text = |s: &str| s.to_string();
    let manifest = DrainManifest {
        entries: vec![
            DrainEntry {
                stream: 7,
                tenant: text("acme"),
                generation: 1,
                patterns: vec![text("a+b"), text("cat"), text("dog"), text("x")],
                checkpoint: vec![0xab; 40],
                last_ack: Some(AckRecord { offset: 64, ends: vec![3, 9, 27] }),
            },
            DrainEntry {
                stream: 8,
                tenant: text("zeta"),
                generation: 0,
                patterns: vec![text("x[ab]{1,4}y")],
                checkpoint: vec![0xcd; 24],
                last_ack: None,
            },
        ],
    };
    let original = manifest.to_bytes();
    let mut refused = 0;
    for forged in [u32::MAX, 1 << 24] {
        for at in 0..original.len() - 8 - 4 {
            let mut bytes = original.clone();
            bytes[at..at + 4].copy_from_slice(&forged.to_le_bytes());
            reseal(&mut bytes);
            match manifest_or_typed(&bytes) {
                Some(parsed) => assert_manifest_is_backed_by(&parsed, &bytes),
                None => refused += 1,
            }
        }
    }
    // 15 count and length fields, each forged twice at its exact offset.
    assert!(refused >= 30, "the sweep reached the length fields ({refused} refusals)");
    let mut empty_sets = std::collections::BTreeSet::new();
    for at in 0..original.len() - 8 - 4 {
        let mut bytes = original.clone();
        bytes[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
        reseal(&mut bytes);
        match DrainManifest::from_bytes(&bytes) {
            Ok(parsed) => assert_manifest_is_backed_by(&parsed, &bytes),
            Err(Error::CheckpointInvalid { reason }) if reason.contains("no pattern set") => {
                empty_sets.insert(reason);
            }
            Err(Error::CheckpointInvalid { .. }) => {}
            Err(other) => panic!("from_bytes must fail typed, got {other:?}"),
        }
    }
    let streams: Vec<bool> = ["stream 7 ", "stream 8 "]
        .iter()
        .map(|stream| empty_sets.iter().any(|reason| reason.contains(stream)))
        .collect();
    assert_eq!(streams, [true, true], "each entry's zero-set lineage is refused: {empty_sets:?}");
}
