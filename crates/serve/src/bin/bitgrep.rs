//! `bitgrep` — a grep-like multi-pattern scanner over the BitGen stack.
//!
//! ```text
//! bitgrep -e PATTERN [-e PATTERN ...] [FILE] [options]
//!
//!   -e PATTERN          pattern to search for (repeatable)
//!   -f FILE             read patterns from FILE, one per line (repeatable)
//!   -c, --count         print only the number of matching lines
//!   -n, --line-number   prefix each line with its line number
//!   --positions         print raw match-end byte offsets instead of lines
//!   --engine ENGINE     bitgen (default) | nfa | dfa | hybrid | cpu-bitstream
//!   --scheme SCHEME     seq | base | dtm- | dtm | sr | zbs (default zbs)
//!   --device DEV        3090 (default) | h100 | l40s
//!   --threads N         threads per CTA (default 64)
//!   --scan-threads N    host threads for the scan (default: all cores)
//!   --match-star        use the MatchStar (while-free) star lowering
//!   --profile           print an Nsight-style launch profile to stderr
//!   --checkpoint FILE   resume from FILE if present; keep it current while
//!                       scanning (bitgen engine only)
//!   --max-bytes N       stop after scanning N bytes this run, leaving the
//!                       checkpoint in place for the next run
//!   --swap-rules FILE@OFFSET
//!                       hot-swap to the patterns in FILE (one per line)
//!                       once OFFSET bytes have been scanned (bitgen
//!                       engine only)
//! ```
//!
//! Reads FILE, or stdin when no file is given. The default `bitgen`
//! engine streams the input in fixed 64 KiB chunks through the engine's
//! carry-propagating [`StreamScanner`], so stdin pipes and files larger
//! than memory scan in constant space; the baseline engines and
//! `--profile` (which needs a whole-launch report) read the input up
//! front instead.
//!
//! The streaming path runs with [`RetryPolicy::resilient`]: a window
//! that faults is replayed on fresh scratch and, if it keeps failing,
//! the chunk falls back to the exact CPU interpreter (a note on stderr
//! reports how many chunks degraded — matches are never silently
//! wrong).
//!
//! With `--checkpoint FILE` the scanner's state is persisted (atomic
//! tmp-file + rename) after every chunk. A rerun with the same flag
//! resumes where the previous run stopped — after `--max-bytes`, a
//! closed output pipe, a crash, or a scan failure (failed pushes roll
//! back to the last good chunk boundary first). On a file input the
//! resumed run seeks to the checkpoint offset; on stdin the caller must
//! re-feed the stream from the beginning and the already-consumed bytes
//! are read and discarded. The checkpoint file is removed when the scan
//! reaches a clean end of input. Note that resuming restarts line
//! numbering and line reassembly at the checkpoint boundary — match
//! *positions* (`--positions`) are exact across suspend/resume.
//!
//! `--swap-rules FILE@OFFSET` drives the engine's two-phase live rule
//! swap: the new pattern set is compiled up front (phase 1 — a bad rule
//! file fails the run before any scanning), and the scanner adopts it at
//! a chunk boundary placed exactly at OFFSET (phase 2). Matches before
//! OFFSET come from the original patterns, matches from OFFSET on from
//! the new ones, with no bytes dropped or rescanned. Checkpoints record
//! the rule-set generation, so a `--checkpoint` rerun resumes on
//! whichever side of the swap it stopped — pass the same `--swap-rules`
//! flag again.
//!
//! Exit codes follow grep convention, extended so scripts can tell the
//! failure stages apart: 0 matches found, 1 no matches, 2 usage or I/O
//! error, 3 pattern failed to compile (including blown compile budgets),
//! 4 execution failed. A downstream consumer closing our stdout (EPIPE,
//! e.g. `bitgrep ... | head`) is a normal way for a pipeline to finish
//! and exits 0.
//!
//! [`StreamScanner`]: bitgen::StreamScanner
//! [`RetryPolicy::resilient`]: bitgen::RetryPolicy::resilient

use bitgen::{
    BitGen, DeviceConfig, EngineConfig, RetryPolicy, Scheme, StagedRules, StreamCheckpoint,
    StreamScanner,
};
use bitgen_baselines::{CpuBitstreamEngine, DfaEngine, HybridEngine, MultiNfa};
use std::io::{Read as _, Seek as _};
use std::process::ExitCode;

#[derive(Default)]
struct Options {
    patterns: Vec<String>,
    file: Option<String>,
    count: bool,
    line_numbers: bool,
    positions: bool,
    engine: String,
    /// The bitgen engine's configuration: `--scheme`, `--device`,
    /// `--threads`, `--scan-threads` and `--match-star` set its fields.
    config: EngineConfig,
    profile: bool,
    checkpoint: Option<String>,
    max_bytes: Option<u64>,
    /// `(rules file, byte offset)` for a mid-stream rule-set swap.
    swap_rules: Option<(String, u64)>,
}

/// bitgrep's exit codes, grep-compatible for 0/1/2.
mod exit {
    /// Usage or I/O error (grep uses 2 here too).
    pub const USAGE: u8 = 2;
    /// A pattern failed to compile, or the set blew a compile budget.
    pub const COMPILE: u8 = 3;
    /// The scan itself failed (executor error, cancelled, worker panic).
    pub const EXEC: u8 = 4;
}

/// A scan failure split by stage, so `main` can pick the exit code.
enum ScanFailure {
    Usage(String),
    Compile(String),
    Exec(String),
}

fn usage() -> ! {
    eprintln!(
        "usage: bitgrep -e PATTERN [-e PATTERN ...] [-f FILE ...] [FILE] \
         [--count] [--line-number] [--positions] [--engine E] [--scheme S] \
         [--device D] [--threads N] [--scan-threads N] [--match-star] \
         [--profile] [--checkpoint FILE] [--max-bytes N] \
         [--swap-rules FILE@OFFSET]"
    );
    std::process::exit(exit::USAGE as i32);
}

fn parse_args() -> Options {
    let mut opts = Options { engine: "bitgen".to_string(), ..Options::default() };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-e" | "--regexp" => opts.patterns.push(args.next().unwrap_or_else(|| usage())),
            "-f" | "--file" => {
                let path = args.next().unwrap_or_else(|| usage());
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("bitgrep: {path}: {e}");
                    std::process::exit(exit::USAGE as i32);
                });
                opts.patterns
                    .extend(text.lines().filter(|l| !l.is_empty()).map(String::from));
            }
            "-c" | "--count" => opts.count = true,
            "-n" | "--line-number" => opts.line_numbers = true,
            "--positions" => opts.positions = true,
            "--engine" => opts.engine = args.next().unwrap_or_else(|| usage()),
            "--scheme" => {
                opts.config.scheme = match args.next().as_deref() {
                    Some("seq") => Scheme::Sequential,
                    Some("base") => Scheme::Base,
                    Some("dtm-") => Scheme::DtmStatic,
                    Some("dtm") => Scheme::Dtm,
                    Some("sr") => Scheme::Sr,
                    Some("zbs") => Scheme::Zbs,
                    _ => usage(),
                }
            }
            "--device" => {
                opts.config.device = match args.next().as_deref() {
                    Some("3090") => DeviceConfig::rtx3090(),
                    Some("h100") => DeviceConfig::h100(),
                    Some("l40s") => DeviceConfig::l40s(),
                    _ => usage(),
                }
            }
            "--threads" => opts.config.threads = number(&mut args),
            "--scan-threads" => opts.config.scan_threads = number(&mut args),
            "--match-star" => opts.config.match_star = true,
            "--profile" => opts.profile = true,
            "--checkpoint" => opts.checkpoint = Some(args.next().unwrap_or_else(|| usage())),
            "--max-bytes" => opts.max_bytes = Some(number(&mut args)),
            "--swap-rules" => {
                let spec = args.next().unwrap_or_else(|| usage());
                let (file, offset) = spec.rsplit_once('@').unwrap_or_else(|| usage());
                let offset: u64 = offset.parse().unwrap_or_else(|_| usage());
                opts.swap_rules = Some((file.to_string(), offset));
            }
            "-h" | "--help" => usage(),
            other if !other.starts_with('-') && opts.file.is_none() => {
                opts.file = Some(other.to_string());
            }
            _ => usage(),
        }
    }
    if opts.patterns.is_empty() {
        usage();
    }
    if (opts.checkpoint.is_some() || opts.max_bytes.is_some() || opts.swap_rules.is_some())
        && opts.engine != "bitgen"
    {
        eprintln!("bitgrep: --checkpoint/--max-bytes/--swap-rules require the bitgen engine");
        std::process::exit(exit::USAGE as i32);
    }
    if opts.swap_rules.is_some() && opts.profile {
        eprintln!("bitgrep: --swap-rules needs the streaming path; drop --profile");
        std::process::exit(exit::USAGE as i32);
    }
    opts
}

/// The next argument as a number; usage when there is none.
fn number<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>) -> T {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
}

fn read_input(file: &Option<String>) -> std::io::Result<Vec<u8>> {
    match file {
        Some(path) => std::fs::read(path),
        None => {
            let mut buf = Vec::new();
            std::io::stdin().read_to_end(&mut buf)?;
            Ok(buf)
        }
    }
}

/// Streaming chunk size for the bitgen engine: large enough to amortise
/// per-push overhead, small enough to keep memory flat.
const STREAM_CHUNK: usize = 64 * 1024;

/// Incremental match-to-line mapper: consumes chunks plus their global
/// match ends and emits grep-style output as each line completes,
/// retaining only the current (possibly chunk-spanning) line. A line
/// matches when some match end falls in `[line_start, next_line_start)`
/// — its own trailing newline included. The whole-input path feeds it
/// one chunk. Writes through an [`std::io::Write`] so a closed pipe
/// surfaces as an error the caller can map to a clean exit instead of a
/// panic.
struct LinePrinter<'o, W: std::io::Write> {
    opts: &'o Options,
    out: W,
    line_no: usize,
    line_buf: Vec<u8>,
    line_matched: bool,
    matched_lines: usize,
    any_match: bool,
}

impl<'o, W: std::io::Write> LinePrinter<'o, W> {
    fn new(opts: &'o Options, out: W) -> LinePrinter<'o, W> {
        LinePrinter {
            opts,
            out,
            line_no: 1,
            line_buf: Vec::new(),
            line_matched: false,
            matched_lines: 0,
            any_match: false,
        }
    }

    /// Consumes the next chunk (starting at global byte `offset`) and
    /// the ascending global match ends that fell inside it.
    fn feed(&mut self, chunk: &[u8], ends: &[u64], offset: u64) -> std::io::Result<()> {
        self.any_match |= !ends.is_empty();
        if self.opts.positions {
            for e in ends {
                writeln!(self.out, "{e}")?;
            }
            return Ok(());
        }
        let mut ei = 0usize;
        let mut start = 0usize;
        while let Some(rel) = chunk[start..].iter().position(|&b| b == b'\n') {
            let nl = start + rel;
            while ei < ends.len() && ends[ei] <= offset + nl as u64 {
                self.line_matched = true;
                ei += 1;
            }
            self.line_buf.extend_from_slice(&chunk[start..nl]);
            self.flush_line()?;
            start = nl + 1;
        }
        self.line_buf.extend_from_slice(&chunk[start..]);
        if ei < ends.len() {
            // Remaining ends all land in the still-open line.
            self.line_matched = true;
        }
        Ok(())
    }

    fn flush_line(&mut self) -> std::io::Result<()> {
        if self.line_matched {
            self.matched_lines += 1;
            if !self.opts.count {
                if self.opts.line_numbers {
                    write!(self.out, "{}:", self.line_no)?;
                }
                writeln!(self.out, "{}", String::from_utf8_lossy(&self.line_buf))?;
            }
        }
        self.line_buf.clear();
        self.line_matched = false;
        self.line_no += 1;
        Ok(())
    }

    /// Flushes the final newline-less line and returns the exit code.
    fn finish(mut self) -> std::io::Result<ExitCode> {
        if !self.line_buf.is_empty() || self.line_matched {
            self.flush_line()?;
        }
        if self.opts.positions {
            self.out.flush()?;
            return Ok(if self.any_match { ExitCode::SUCCESS } else { ExitCode::FAILURE });
        }
        if self.opts.count {
            writeln!(self.out, "{}", self.matched_lines)?;
        }
        self.out.flush()?;
        Ok(if self.matched_lines == 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
    }
}

/// Opens the input for a streaming scan, positioned `skip` bytes in. A
/// file is seeked; stdin has the already-scanned prefix read and
/// discarded (the checkpoint remembers match state, not the bytes).
fn open_reader(
    file: &Option<String>,
    skip: u64,
) -> Result<Box<dyn std::io::Read>, ScanFailure> {
    match file {
        Some(path) => {
            let mut f = std::fs::File::open(path)
                .map_err(|e| ScanFailure::Usage(format!("{path}: {e}")))?;
            f.seek(std::io::SeekFrom::Start(skip))
                .map_err(|e| ScanFailure::Usage(format!("{path}: seek: {e}")))?;
            Ok(Box::new(f))
        }
        None => {
            let mut stdin = std::io::stdin();
            let skipped = std::io::copy(&mut stdin.by_ref().take(skip), &mut std::io::sink())
                .map_err(|e| ScanFailure::Usage(e.to_string()))?;
            if skipped < skip {
                return Err(ScanFailure::Usage(format!(
                    "checkpoint is {skip} bytes in, but stdin ended after {skipped} \
                     bytes; re-feed the original stream to resume"
                )));
            }
            Ok(Box::new(stdin))
        }
    }
}

/// Writes the scanner's current checkpoint to `path` atomically
/// (tmp-file then rename), so a crash mid-write never clobbers the
/// previous good checkpoint.
fn persist_checkpoint(path: &str, scanner: &StreamScanner<'_>) -> Result<(), ScanFailure> {
    let tmp = format!("{path}.tmp");
    let write = std::fs::write(&tmp, scanner.checkpoint().to_bytes())
        .and_then(|()| std::fs::rename(&tmp, path));
    write.map_err(|e| ScanFailure::Usage(format!("{path}: {e}")))
}

/// `true` for the I/O errors that mean "our reader went away" — a
/// normal pipeline shutdown, not a failure.
fn is_closed_output(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::ConnectionReset
    )
}

/// The streaming path for the bitgen engine: fixed-size chunks through a
/// carry-propagating [`bitgen::StreamScanner`], constant memory in the
/// input length. Recovery story: resilient retry policy, per-chunk
/// checkpointing under `--checkpoint`, and EPIPE-as-success.
fn run_streaming(opts: &Options) -> Result<ExitCode, ScanFailure> {
    let pats: Vec<&str> = opts.patterns.iter().map(String::as_str).collect();
    let engine = BitGen::compile_with(&pats, opts.config.clone())
        .map_err(|e| ScanFailure::Compile(e.to_string()))?;
    // Phase 1 of `--swap-rules`: compile the replacement set up front,
    // under the same config and budgets. A bad rules file fails the run
    // here, before a byte is scanned.
    let swap: Option<(StagedRules, u64)> = match &opts.swap_rules {
        Some((path, offset)) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ScanFailure::Usage(format!("{path}: {e}")))?;
            let new_pats: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
            if new_pats.is_empty() {
                return Err(ScanFailure::Usage(format!("{path}: no patterns")));
            }
            let staged = engine
                .prepare_swap(&new_pats)
                .map_err(|e| ScanFailure::Compile(format!("{path}: {e}")))?;
            Some((staged, *offset))
        }
        None => None,
    };
    // Whether the scanner is already past the commit (set when resuming
    // a post-swap checkpoint, or once the boundary is reached below).
    let mut swapped = false;
    let mut scanner = match &opts.checkpoint {
        Some(path) => match std::fs::read(path) {
            Ok(bytes) => {
                let ckpt = StreamCheckpoint::from_bytes(&bytes)
                    .map_err(|e| ScanFailure::Usage(format!("{path}: {e}")))?;
                // A post-swap checkpoint lives on the staged generation;
                // resume it there (the original engine would refuse it).
                let resume_on = match &swap {
                    Some((staged, _)) if ckpt.generation() == staged.generation() => {
                        swapped = true;
                        staged.engine()
                    }
                    _ => &engine,
                };
                let scanner = resume_on
                    .resume(&ckpt)
                    .map_err(|e| ScanFailure::Usage(format!("{path}: {e}")))?;
                eprintln!(
                    "bitgrep: resuming at byte {} (rule generation {}) from {path}",
                    scanner.consumed(),
                    scanner.generation()
                );
                scanner
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                engine.streamer().map_err(|e| ScanFailure::Exec(e.to_string()))?
            }
            Err(e) => return Err(ScanFailure::Usage(format!("{path}: {e}"))),
        },
        None => engine.streamer().map_err(|e| ScanFailure::Exec(e.to_string()))?,
    };
    scanner.set_retry_policy(RetryPolicy::resilient());
    let mut reader = open_reader(&opts.file, scanner.consumed())?;
    let mut printer = LinePrinter::new(opts, std::io::BufWriter::new(std::io::stdout().lock()));
    let mut buf = vec![0u8; STREAM_CHUNK];
    let mut budget = opts.max_bytes;
    let mut stopped_early = false;
    loop {
        let mut want = match budget {
            Some(0) => {
                stopped_early = true;
                break;
            }
            Some(b) => STREAM_CHUNK.min(b as usize),
            None => STREAM_CHUNK,
        };
        if let Some((staged, at)) = &swap {
            // Phase 2: adopt the staged generation once the stream
            // reaches the requested offset. Until then, cap reads so a
            // chunk boundary lands exactly on it.
            if !swapped && scanner.consumed() >= *at {
                scanner
                    .commit_swap(staged)
                    .map_err(|e| ScanFailure::Exec(e.to_string()))?;
                swapped = true;
                eprintln!(
                    "bitgrep: rule-set swapped to generation {} at byte {}",
                    scanner.generation(),
                    scanner.consumed()
                );
            }
            if !swapped {
                want = want.min((*at - scanner.consumed()) as usize);
            }
        }
        let n = match reader.read(&mut buf[..want]) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ScanFailure::Usage(e.to_string())),
        };
        if let Some(b) = &mut budget {
            *b -= n as u64;
        }
        let offset = scanner.consumed();
        let pushed = scanner.push(&buf[..n]);
        // A failed push rolled back to the last chunk boundary; either
        // way the checkpoint is kept current, so a rerun resumes there.
        if let Some(path) = &opts.checkpoint {
            persist_checkpoint(path, &scanner)?;
        }
        let ends = pushed.map_err(|e| ScanFailure::Exec(e.to_string()))?;
        match printer.feed(&buf[..n], &ends, offset) {
            Ok(()) => {}
            Err(e) if is_closed_output(&e) => {
                // Downstream closed our stdout (e.g. `| head`): a normal
                // pipeline finish. The checkpoint stays for a rerun.
                report_degraded(&scanner);
                return Ok(ExitCode::SUCCESS);
            }
            Err(e) => return Err(ScanFailure::Usage(e.to_string())),
        }
    }
    if let Some(path) = &opts.checkpoint {
        if stopped_early {
            persist_checkpoint(path, &scanner)?;
            eprintln!(
                "bitgrep: stopped after {} bytes; checkpoint kept at {path}",
                scanner.consumed()
            );
        } else {
            // Clean end of input: the stream is complete, drop the file.
            let _ = std::fs::remove_file(path);
        }
    }
    report_degraded(&scanner);
    printed(printer.finish())
}

/// The exit code of a finished print; a closed stdout is success, as it
/// is mid-stream.
fn printed(code: std::io::Result<ExitCode>) -> Result<ExitCode, ScanFailure> {
    match code {
        Ok(code) => Ok(code),
        Err(e) if is_closed_output(&e) => Ok(ExitCode::SUCCESS),
        Err(e) => Err(ScanFailure::Usage(e.to_string())),
    }
}

/// Tells the operator when chunks were recovered on the CPU path —
/// matches are exact either way, but the device path is misbehaving.
fn report_degraded(scanner: &StreamScanner<'_>) {
    let m = scanner.metrics();
    if m.is_degraded() {
        eprintln!(
            "bitgrep: note: {} chunk(s) recovered on the CPU interpreter \
             ({} window retries); matches are exact",
            m.degraded, m.retries
        );
    }
}

/// The whole-input path: every baseline engine, and the bitgen engine
/// under `--profile` (which needs the whole-launch report).
fn run_batch(opts: &Options) -> Result<ExitCode, ScanFailure> {
    let input = read_input(&opts.file).map_err(|e| ScanFailure::Usage(e.to_string()))?;
    let pats: Vec<&str> = opts.patterns.iter().map(String::as_str).collect();
    let matches = match opts.engine.as_str() {
        "bitgen" => {
            let engine = BitGen::compile_with(&pats, opts.config.clone())
                .map_err(|e| ScanFailure::Compile(e.to_string()))?;
            let report =
                engine.find(&input).map_err(|e| ScanFailure::Exec(e.to_string()))?;
            if opts.profile {
                eprint!("{}", report.profile(&opts.config.device));
                eprintln!(
                    "modelled: {:.3} ms, {:.1} MB/s",
                    report.seconds() * 1e3,
                    report.throughput_mbps()
                );
            }
            report.matches
        }
        other => {
            let asts: Vec<_> = pats
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    bitgen::parse(p)
                        .map_err(|e| ScanFailure::Compile(format!("pattern {i}: {e}")))
                })
                .collect::<Result<_, _>>()?;
            match other {
                "nfa" => MultiNfa::build(&asts).run(&input).ends,
                "dfa" => DfaEngine::new(&asts).run(&input).ends,
                "hybrid" => HybridEngine::new(&asts).run(&input),
                "cpu-bitstream" => CpuBitstreamEngine::new(&[asts]).run(&input),
                _ => return Err(ScanFailure::Usage(format!("unknown engine {other:?}"))),
            }
        }
    };
    let ends: Vec<u64> = matches.positions().into_iter().map(|p| p as u64).collect();
    let mut printer = LinePrinter::new(opts, std::io::BufWriter::new(std::io::stdout().lock()));
    printed(printer.feed(&input, &ends, 0).and_then(|()| printer.finish()))
}

fn main() -> ExitCode {
    let opts = parse_args();
    // The bitgen engine streams; `--profile` needs the whole-launch
    // report, so it (and every baseline engine) scans in one batch.
    let streams = opts.engine == "bitgen" && !opts.profile;
    let run = if streams { run_streaming(&opts) } else { run_batch(&opts) };
    run.unwrap_or_else(|failure| {
        let (msg, code) = match failure {
            ScanFailure::Usage(m) => (m, exit::USAGE),
            ScanFailure::Compile(m) => (m, exit::COMPILE),
            ScanFailure::Exec(m) => (m, exit::EXEC),
        };
        eprintln!("bitgrep: {msg}");
        ExitCode::from(code)
    })
}
