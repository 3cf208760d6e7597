//! The daemon's line protocol: one request per line, one `OK`/`ERR`
//! reply per request. Text operands (tenant names, patterns) and a
//! text client's chunk bytes are lowercase-hex-encoded so the framing
//! never collides with payload bytes; a raw `PUSH` instead sends its
//! chunk as it is, behind a header line that gives its length.
//!
//! Requests:
//!
//! | line | reply |
//! |---|---|
//! | `OPEN <tenant-hex> [D] <pattern-hex>…` | `OK <id> HIT\|MISS` |
//! | `PUSH <id> <offset\|-> #<len>`, then `<len>` raw bytes | `OK <n> <end>…` |
//! | `PUSH <id> <offset\|-> <chunk-hex>` | `OK <n> <end>…` |
//! | `SWAP <id> <pattern-hex>…` | `OK <generation>` |
//! | `CANCEL <id>` / `RESET <id>` | `OK` |
//! | `CLOSE <id>` | `OK <consumed> <matches>` |
//! | `STATS` | `OK <json>` |
//! | `PING` | `OK` |
//! | `DRAIN` | `OK` (daemon drains: checkpoints streams, then exits) |
//! | `SHUTDOWN` | `OK` (daemon then exits cleanly) |
//!
//! An empty hex operand is spelled `-` so every token is non-empty.
//!
//! Framing: a request is one line of at most the daemon's `max_line`
//! bytes. A raw `PUSH` header ([`Request::PushHeader`], built by
//! [`push_frame`]) is followed by exactly `<len>` bytes of any value,
//! `\n` included; `<len>` is decimal and at most `max_line`. A longer
//! one is refused `FRAME` unread, a `PUSH` line that does not parse but
//! has a `#` operand ([`announces_payload`]) is refused `PROTO`, and
//! both hang up: what follows cannot be framed.
//!
//! `OPEN`'s optional `D` marks the stream **durable**: it survives the
//! connection that opened it, so a client that loses its connection can
//! reconnect and keep pushing the same stream id. Without it the stream
//! is connection-scoped and closed when the connection ends (the PR 9
//! leak protection for vanished clients).
//!
//! `PUSH`'s second operand is the client's record of the stream's byte
//! offset before this chunk — the idempotency key. When it equals the
//! stream's committed offset the chunk is scanned; when it names the
//! chunk the server *already* committed (the ack was lost on the wire),
//! the cached reply is replayed instead of scanning the bytes twice;
//! anything else is a typed `OFFSET` refusal. `-` skips the check.
//!
//! Errors come back as `ERR <CODE> <message>` with the message
//! flattened onto one line; [`ErrCode`] lists the codes and which of
//! them mean "back off and retry".

/// Lowercase hex encoding; the empty payload is `-`.
pub fn hex_encode(bytes: &[u8]) -> String {
    if bytes.is_empty() {
        return "-".to_string();
    }
    let mut digits = vec![0u8; 2 * bytes.len()];
    for (pair, &byte) in digits.chunks_exact_mut(2).zip(bytes) {
        pair.copy_from_slice(&HEX_PAIRS[usize::from(byte)]);
    }
    String::from_utf8(digits).expect("hex digits are valid UTF-8")
}

/// Both digits of each byte value.
const HEX_PAIRS: [[u8; 2]; 256] = {
    let mut table = [[0u8; 2]; 256];
    let mut byte = 0;
    while byte < 256 {
        table[byte] = [b"0123456789abcdef"[byte >> 4], b"0123456789abcdef"[byte & 0xf]];
        byte += 1;
    }
    table
};

/// One `PUSH` as [`crate::Client`] sends it, in one write: the raw
/// frame of `chunk`, its header line then its bytes.
pub fn push_frame(id: u64, offset: Option<u64>, chunk: &[u8]) -> Vec<u8> {
    let offset = offset.map_or_else(|| "-".to_string(), |at| at.to_string());
    let header = format!("PUSH {id} {offset} #{}\n", chunk.len());
    [header.as_bytes(), chunk].concat()
}

/// Whether `line`, when [`parse_request`] refuses it, was still meant as
/// a raw `PUSH` header: its verb is `PUSH` and one of its operands starts
/// with `#`. Raw bytes follow such a line, so nothing after it can be
/// framed.
pub fn announces_payload(line: &str) -> bool {
    let mut tokens = line.split_whitespace();
    tokens.next() == Some("PUSH") && tokens.any(|token| token.starts_with('#'))
}

/// Value of each byte as a hex digit (either case), `NOT_HEX` otherwise.
const HEX_VALUE: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut digit = 0u8;
    while digit < 16 {
        let lower = b"0123456789abcdef"[digit as usize];
        table[lower as usize] = digit;
        table[lower.to_ascii_uppercase() as usize] = digit;
        digit += 1;
    }
    table
};
const NOT_HEX: u8 = 0xff;

/// Inverse of [`hex_encode`]; `None` on odd length or a non-hex digit.
pub fn hex_decode(text: &str) -> Option<Vec<u8>> {
    if text == "-" {
        return Some(Vec::new());
    }
    decode_digits(text.as_bytes())
}

fn decode_digits(digits: &[u8]) -> Option<Vec<u8>> {
    if !digits.len().is_multiple_of(2) {
        return None;
    }
    let mut bytes = vec![0u8; digits.len() / 2];
    // Digit values are below 16, so only `NOT_HEX` sets a high bit: one
    // check after the loop instead of a branch per digit.
    let mut seen = 0u8;
    for (byte, pair) in bytes.iter_mut().zip(digits.chunks_exact(2)) {
        let (high, low) = (HEX_VALUE[usize::from(pair[0])], HEX_VALUE[usize::from(pair[1])]);
        seen |= high | low;
        *byte = high << 4 | low;
    }
    (seen & 0xf0 == 0).then_some(bytes)
}

/// The machine-readable first token of an `ERR` reply, so clients can
/// tell backpressure (retry with backoff) from protocol misuse and scan
/// failures (don't).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// The request line did not parse; nothing was executed.
    Proto,
    /// The scan layer failed (compile error, execution fault, checkpoint
    /// refusal); the stream stays at its previous boundary.
    Scan,
    /// No stream with this id is open on the daemon.
    UnknownStream,
    /// Typed backpressure: a queue or budget bound was hit. Nothing was
    /// buffered — back off and retry.
    Overloaded,
    /// The daemon is draining (or this push was cancelled *by* the
    /// drain): streams are being checkpointed for adoption. Back off and
    /// retry against the successor instance.
    Draining,
    /// The request frame exceeded the daemon's line bound and was
    /// discarded unread; the connection is out of sync and will close.
    Frame,
    /// A `PUSH` offset matched neither the stream's committed boundary
    /// nor the replay window; the message leads with the committed
    /// offset so the client can see how far it diverged.
    Offset,
    /// The daemon is shutting down without draining.
    Shutdown,
}

/// Each code with its wire token, in declaration order: the one table
/// both directions read.
const ERR_TOKENS: [(ErrCode, &str); 8] = [
    (ErrCode::Proto, "PROTO"),
    (ErrCode::Scan, "SCAN"),
    (ErrCode::UnknownStream, "UNKNOWN"),
    (ErrCode::Overloaded, "OVERLOADED"),
    (ErrCode::Draining, "DRAINING"),
    (ErrCode::Frame, "FRAME"),
    (ErrCode::Offset, "OFFSET"),
    (ErrCode::Shutdown, "SHUTDOWN"),
];

impl ErrCode {
    /// The wire token for this code.
    pub fn token(self) -> &'static str {
        ERR_TOKENS[self as usize].1
    }

    /// Inverse of [`ErrCode::token`].
    pub fn parse(token: &str) -> Option<ErrCode> {
        ERR_TOKENS.iter().find(|(_, t)| *t == token).map(|(code, _)| *code)
    }

    /// `true` for the transient rejections a client should retry with
    /// backoff ([`ErrCode::Overloaded`], [`ErrCode::Draining`]).
    pub fn retryable(self) -> bool {
        matches!(self, ErrCode::Overloaded | ErrCode::Draining)
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Admit a stream: tenant name plus the pattern set.
    Open {
        /// Tenant the stream belongs to.
        tenant: String,
        /// `true` when the stream outlives the connection that opened
        /// it (the `D` flag) — required for reconnect-and-resume.
        durable: bool,
        /// The pattern set, in submission order.
        patterns: Vec<String>,
    },
    /// Scan the next chunk of a stream.
    Push {
        /// Stream handle from `OPEN`.
        id: u64,
        /// The client's record of the stream's byte offset before this
        /// chunk (idempotency key); `None` skips the check.
        offset: Option<u64>,
        /// The chunk bytes.
        chunk: Vec<u8>,
    },
    /// The header line of a raw push, `PUSH <id> <offset|-> #<len>`:
    /// the chunk is the `len` bytes after the line, which the daemon
    /// reads and then serves as the [`Request::Push`] they make.
    PushHeader {
        /// Stream handle from `OPEN`.
        id: u64,
        /// As [`Request::Push`]'s.
        offset: Option<u64>,
        /// How many payload bytes follow the header line.
        len: usize,
    },
    /// Hot-swap a live stream onto a new pattern set.
    Swap {
        /// Stream handle from `OPEN`.
        id: u64,
        /// The new pattern set.
        patterns: Vec<String>,
    },
    /// Cancel the stream's in-flight (or next) push.
    Cancel {
        /// Stream handle from `OPEN`.
        id: u64,
    },
    /// Re-arm a cancelled stream.
    Reset {
        /// Stream handle from `OPEN`.
        id: u64,
    },
    /// Close a stream and fetch its final accounting.
    Close {
        /// Stream handle from `OPEN`.
        id: u64,
    },
    /// Fetch the service counters as JSON.
    Stats,
    /// Liveness probe.
    Ping,
    /// Stop admitting, checkpoint every open stream into the drain
    /// manifest, then exit.
    Drain,
    /// Ask the daemon to exit cleanly without draining.
    Shutdown,
}

/// Splits the next whitespace-separated token off `rest`: the tokens of
/// [`str::split_whitespace`], one at a time, so that a long last operand
/// is never scanned for the tokens after it.
fn next_token<'a>(rest: &mut &'a str) -> Option<&'a str> {
    let text = rest.trim_start();
    let (token, tail) = text.split_at(text.find(char::is_whitespace).unwrap_or(text.len()));
    *rest = tail;
    (!token.is_empty()).then_some(token)
}

/// The chunk of a `PUSH`: the first token of `rest` (`-` when there is
/// none), tokens after it ignored.
fn chunk_operand(rest: &str) -> Option<Vec<u8>> {
    let text = rest.trim();
    // A chunk is the last thing on its line unless the client appended
    // something: decode what is there, and look for a token boundary only
    // if that is not hex.
    hex_decode(text).or_else(|| hex_decode(text.split_whitespace().next().unwrap_or("-")))
}

/// Parses one request line; `Err` carries the complaint for an `ERR
/// PROTO` reply.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut rest = line;
    let verb = next_token(&mut rest).ok_or_else(|| "empty request".to_string())?;
    let text_operand = |token: &str, what: &str| -> Result<String, String> {
        let bytes =
            hex_decode(token).ok_or_else(|| format!("{what} is not hex: {token:?}"))?;
        String::from_utf8(bytes).map_err(|_| format!("{what} is not UTF-8"))
    };
    let id_operand = |token: Option<&str>| -> Result<u64, String> {
        token
            .ok_or_else(|| "missing stream id".to_string())?
            .parse::<u64>()
            .map_err(|_| format!("bad stream id: {:?}", token.unwrap_or("")))
    };
    let patterns_operand = |tokens: &str| -> Result<Vec<String>, String> {
        let patterns: Vec<String> = (tokens.split_whitespace())
            .map(|t| text_operand(t, "pattern"))
            .collect::<Result<_, _>>()?;
        if patterns.is_empty() {
            return Err("at least one pattern is required".to_string());
        }
        Ok(patterns)
    };
    match verb {
        "OPEN" => {
            let tenant = text_operand(
                next_token(&mut rest).ok_or_else(|| "missing tenant".to_string())?,
                "tenant",
            )?;
            let mut after_flag = rest;
            let durable = next_token(&mut after_flag) == Some("D");
            let patterns = patterns_operand(if durable { after_flag } else { rest })?;
            Ok(Request::Open { tenant, durable, patterns })
        }
        "PUSH" => {
            let id = id_operand(next_token(&mut rest))?;
            let offset = match next_token(&mut rest) {
                None => return Err("missing push offset".to_string()),
                Some("-") => None,
                Some(tok) => Some(
                    tok.parse::<u64>().map_err(|_| format!("bad push offset: {tok:?}"))?,
                ),
            };
            if let Some(len) = rest.trim_start().strip_prefix('#') {
                let digits = &len[..len.find(char::is_whitespace).unwrap_or(len.len())];
                let len = Some(digits)
                    .filter(|d| d.bytes().all(|b| b.is_ascii_digit()))
                    .and_then(|d| d.parse::<usize>().ok())
                    .ok_or_else(|| format!("bad push length: {digits:?}"))?;
                return Ok(Request::PushHeader { id, offset, len });
            }
            let chunk = chunk_operand(rest).ok_or_else(|| "chunk is not hex".to_string())?;
            Ok(Request::Push { id, offset, chunk })
        }
        "SWAP" => {
            let id = id_operand(next_token(&mut rest))?;
            Ok(Request::Swap { id, patterns: patterns_operand(rest)? })
        }
        "CANCEL" => Ok(Request::Cancel { id: id_operand(next_token(&mut rest))? }),
        "RESET" => Ok(Request::Reset { id: id_operand(next_token(&mut rest))? }),
        "CLOSE" => Ok(Request::Close { id: id_operand(next_token(&mut rest))? }),
        "STATS" => Ok(Request::Stats),
        "PING" => Ok(Request::Ping),
        "DRAIN" => Ok(Request::Drain),
        "SHUTDOWN" => Ok(Request::Shutdown),
        other => Err(format!("unknown request {other:?}")),
    }
}

/// Flattens an error onto one `ERR <CODE> <message>` line.
pub fn err_line(code: ErrCode, message: &str) -> String {
    format!("ERR {} {}", code.token(), message.replace(['\n', '\r'], " "))
}

/// Splits a reply line into its [`ErrCode`] and message, when it is an
/// `ERR` line. Replies from daemons predating the code column fall back
/// to [`ErrCode::Scan`] with the whole text as the message.
pub fn split_err(reply: &str) -> Option<(ErrCode, &str)> {
    let rest = reply.strip_prefix("ERR")?.trim_start();
    let (head, tail) = rest.split_once(' ').unwrap_or((rest, ""));
    match ErrCode::parse(head) {
        Some(code) => Some((code, tail)),
        None => Some((ErrCode::Scan, rest)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips_including_empty() {
        assert_eq!(hex_encode(b""), "-");
        assert_eq!(hex_decode("-"), Some(Vec::new()));
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)), Some(bytes));
        assert_eq!(hex_decode("0g"), None);
        assert_eq!(hex_decode("abc"), None);
        assert_eq!(hex_decode(""), Some(Vec::new()));
        assert_eq!(hex_decode("--"), None);
    }

    #[test]
    fn hex_decode_accepts_exactly_the_hex_digits_in_either_case() {
        // Every byte value survives the round trip, upper-cased too.
        let all: Vec<u8> = (0..=255).collect();
        let encoded = hex_encode(&all);
        assert_eq!(hex_decode(&encoded), Some(all.clone()));
        assert_eq!(hex_decode(&encoded.to_ascii_uppercase()), Some(all));
        // Each of the 234 bytes that is not a hex digit is refused in
        // the high and in the low nibble position.
        let mut refused = 0;
        for byte in 0..=255u8 {
            if byte.is_ascii_hexdigit() {
                assert!(decode_digits(&[byte, b'0']).is_some());
                assert!(decode_digits(&[b'0', byte]).is_some());
                continue;
            }
            refused += 1;
            assert_eq!(decode_digits(&[byte, b'0']), None, "high nibble {byte:#04x}");
            assert_eq!(decode_digits(&[b'0', byte]), None, "low nibble {byte:#04x}");
            assert_eq!(decode_digits(&[b'a', b'f', byte, b'0']), None, "after a good pair");
        }
        assert_eq!(refused, 234);
    }

    #[test]
    fn parses_the_full_verb_set() {
        let open = format!("OPEN {} {} {}", hex_encode(b"acme"), hex_encode(b"a b"), hex_encode(b"c+"));
        assert_eq!(
            parse_request(&open).unwrap(),
            Request::Open {
                tenant: "acme".to_string(),
                durable: false,
                patterns: vec!["a b".to_string(), "c+".to_string()],
            }
        );
        let durable = format!("OPEN {} D {}", hex_encode(b"acme"), hex_encode(b"c+"));
        assert_eq!(
            parse_request(&durable).unwrap(),
            Request::Open {
                tenant: "acme".to_string(),
                durable: true,
                patterns: vec!["c+".to_string()],
            }
        );
        assert_eq!(
            parse_request(&format!("PUSH 3 128 {}", hex_encode(b"xyz"))).unwrap(),
            Request::Push { id: 3, offset: Some(128), chunk: b"xyz".to_vec() }
        );
        assert_eq!(
            parse_request(&format!("PUSH 3 - {}", hex_encode(b"xyz"))).unwrap(),
            Request::Push { id: 3, offset: None, chunk: b"xyz".to_vec() }
        );
        assert_eq!(
            parse_request("PUSH 3 - -").unwrap(),
            Request::Push { id: 3, offset: None, chunk: vec![] }
        );
        assert_eq!(parse_request("CLOSE 9").unwrap(), Request::Close { id: 9 });
        assert_eq!(parse_request("STATS").unwrap(), Request::Stats);
        assert_eq!(parse_request("DRAIN").unwrap(), Request::Drain);
        assert_eq!(parse_request("SHUTDOWN").unwrap(), Request::Shutdown);
        // Every malformed shape is a complaint, not a panic.
        for bad in
            ["", "OPEN", "OPEN zz", "PUSH x", "PUSH 1", "PUSH 1 z 61", "PUSH 1 - 0g", "NOPE 1", "SWAP 1"]
        {
            assert!(parse_request(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn raw_push_headers_parse_and_bad_lengths_are_refused() {
        assert_eq!(
            parse_request("PUSH 3 128 #65536").unwrap(),
            Request::PushHeader { id: 3, offset: Some(128), len: 65536 }
        );
        assert_eq!(
            parse_request(" PUSH 3 - #0 ").unwrap(),
            Request::PushHeader { id: 3, offset: None, len: 0 }
        );
        // Decimal digits only, and present; a hex chunk never starts
        // with `#`, so the hex form parses as before.
        for bad in ["PUSH 3 - #", "PUSH 3 - # 5", "PUSH 3 - #+5", "PUSH 3 - #-5", "PUSH 3 - #0x10",
            "PUSH 3 - #5a", "PUSH 3 - #99999999999999999999999", "PUSH 3 #5", "PUSH x - #5"]
        {
            assert!(parse_request(bad).is_err(), "{bad:?} should not parse");
        }
        assert_eq!(
            parse_request("PUSH 3 - 6162").unwrap(),
            Request::Push { id: 3, offset: None, chunk: b"ab".to_vec() }
        );
    }

    #[test]
    fn a_push_frame_is_its_header_line_then_the_chunk_as_it_is() {
        let chunk = b"a\nb\r\xff";
        let frame = push_frame(7, Some(64), chunk);
        assert_eq!(frame, b"PUSH 7 64 #5\na\nb\r\xff");
        let header = std::str::from_utf8(&frame[..frame.len() - chunk.len() - 1]).unwrap();
        assert_eq!(
            parse_request(header).unwrap(),
            Request::PushHeader { id: 7, offset: Some(64), len: chunk.len() }
        );
        // An empty chunk is a header with nothing after it.
        assert_eq!(push_frame(7, None, b""), b"PUSH 7 - #0\n");
    }

    #[test]
    fn a_refused_push_with_a_hash_operand_announces_a_payload() {
        for meant in ["PUSH 3 - #", "PUSH 3 - #5a", "PUSH x - #5", "PUSH 3 #5", "\tPUSH 3 - # 5"] {
            assert!(parse_request(meant).is_err(), "{meant:?} should not parse");
            assert!(announces_payload(meant), "{meant:?} announces a payload");
        }
        // Another verb, or no `#` operand, announces nothing.
        for text in ["PUSHX 3 - #5", "PING #5", "PUSH 3 - zz", "PUSH 3 - 6g#"] {
            assert!(!announces_payload(text), "{text:?} announces no payload");
        }
    }

    #[test]
    fn err_lines_carry_codes_and_stay_single_line() {
        let line = err_line(ErrCode::Overloaded, "multi\nline\rmsg");
        assert_eq!(line, "ERR OVERLOADED multi line msg");
        assert_eq!(split_err(&line), Some((ErrCode::Overloaded, "multi line msg")));
        // Legacy / free-form messages classify as scan errors.
        assert_eq!(
            split_err("ERR something went wrong"),
            Some((ErrCode::Scan, "something went wrong"))
        );
        assert_eq!(split_err("OK 3"), None);
        for (code, token) in ERR_TOKENS {
            assert_eq!(code.token(), token, "the table is in declaration order");
            assert_eq!(ErrCode::parse(token), Some(code));
            assert_eq!(
                code.retryable(),
                matches!(code, ErrCode::Overloaded | ErrCode::Draining)
            );
        }
    }
}
