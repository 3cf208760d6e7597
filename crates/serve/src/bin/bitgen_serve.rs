//! `bitgen-serve` — the scan daemon and its command-line client.
//!
//! ```text
//! bitgen-serve serve (--socket PATH | --tcp ADDR) [--workers N] [--queue N]
//!                    [--cache N] [--drain-manifest FILE] [--drain-deadline SECS]
//!                    [-e PATTERN ...] [-f FILE]
//!     Run the daemon; -e/-f patterns pre-warm the compiled-pattern
//!     cache. SIGTERM/SIGINT (and the DRAIN wire verb) trigger a
//!     graceful drain: in-flight pushes finish, every durable stream is
//!     checkpointed into --drain-manifest, and a restart with the same
//!     flags adopts them all. Exits 0 on clean shutdown or clean drain,
//!     3 when the drain deadline forced in-flight pushes to cancel,
//!     2 on startup/socket errors.
//!
//! bitgen-serve scan (--socket PATH | --tcp ADDR) [--tenant NAME]
//!                   (-e PATTERN ... | -f FILE) [--chunk N] [--retry] [FILE]
//!     Open a stream, push FILE (or stdin) through it in chunks, print
//!     match-end byte offsets one per line (the same output as
//!     `bitgrep --positions`). With --retry the stream is durable and
//!     pushes survive daemon restarts: the client reconnects with
//!     backoff and resumes idempotently from its last acked offset.
//!     Exit 0 matches found, 1 none, 2 I/O or daemon-reported error.
//!
//! bitgen-serve stats (--socket PATH | --tcp ADDR)
//!     Print the daemon's service counters as one JSON object.
//!
//! bitgen-serve drain (--socket PATH | --tcp ADDR)
//!     Ask the daemon to drain (checkpoint durable streams and exit).
//!
//! bitgen-serve shutdown (--socket PATH | --tcp ADDR)
//!     Ask the daemon to exit cleanly without draining.
//! ```

use bitgen_serve::{
    Client, DaemonConfig, Endpoint, RetryConfig, ScanService, ServeConfig, ServeOutcome,
};
use std::io::Read as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set by the signal handler, polled by the daemon's accept loop.
static DRAIN_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_drain_signal(_signum: i32) {
    // Only async-signal-safe work here: one atomic store.
    DRAIN_REQUESTED.store(true, Ordering::SeqCst);
}

/// Routes `SIGTERM` and `SIGINT` into [`DRAIN_REQUESTED`] so an
/// orchestrator's stop becomes a graceful drain instead of an abort.
/// Raw FFI rather than a signal crate: the workspace carries no such
/// dependency, and one `signal(2)` call per signal is all this needs.
fn install_drain_signals() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the C library's own entry point; the handler
    // is an `extern "C"` fn that performs a single atomic store, which
    // is async-signal-safe.
    unsafe {
        signal(SIGINT, on_drain_signal);
        signal(SIGTERM, on_drain_signal);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: bitgen-serve serve (--socket PATH | --tcp ADDR) [--workers N] [--queue N] \
         [--cache N] [--drain-manifest FILE] [--drain-deadline SECS] [-e PAT ...] [-f FILE]\n\
         \x20      bitgen-serve scan (--socket PATH | --tcp ADDR) [--tenant NAME] \
         (-e PAT ... | -f FILE) [--chunk N] [--retry] [FILE]\n\
         \x20      bitgen-serve stats (--socket PATH | --tcp ADDR)\n\
         \x20      bitgen-serve drain (--socket PATH | --tcp ADDR)\n\
         \x20      bitgen-serve shutdown (--socket PATH | --tcp ADDR)"
    );
    std::process::exit(2);
}

#[derive(Default)]
struct Options {
    endpoint: Option<Endpoint>,
    tenant: String,
    patterns: Vec<String>,
    chunk: usize,
    workers: usize,
    queue: usize,
    cache: usize,
    retry: bool,
    drain_manifest: Option<String>,
    drain_deadline: Option<u64>,
    file: Option<String>,
}

fn parse_options(args: &mut std::env::Args) -> Options {
    let mut opts = Options {
        tenant: "default".to_string(),
        chunk: 64 * 1024,
        ..Options::default()
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" | "--tcp" => {
                let value = args.next().unwrap_or_else(|| usage());
                let endpoint = if arg == "--socket" {
                    Endpoint::Unix(PathBuf::from(value))
                } else {
                    Endpoint::Tcp(value)
                };
                let kind = std::mem::discriminant(&endpoint);
                if opts.endpoint.as_ref().is_some_and(|e| std::mem::discriminant(e) != kind) {
                    eprintln!("bitgen-serve: pick one of --socket and --tcp");
                    std::process::exit(2);
                }
                opts.endpoint = Some(endpoint);
            }
            "--tenant" => opts.tenant = args.next().unwrap_or_else(|| usage()),
            "-e" | "--regexp" => opts.patterns.push(args.next().unwrap_or_else(|| usage())),
            "-f" | "--file" => {
                let path = args.next().unwrap_or_else(|| usage());
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("bitgen-serve: {path}: {e}");
                    std::process::exit(2);
                });
                opts.patterns
                    .extend(text.lines().filter(|l| !l.is_empty()).map(String::from));
            }
            "--chunk" => match number(args) {
                0 => usage(),
                n => opts.chunk = n,
            },
            "--workers" => opts.workers = number(args),
            "--queue" => opts.queue = number(args),
            "--cache" => opts.cache = number(args),
            "--retry" => opts.retry = true,
            "--drain-manifest" => opts.drain_manifest = Some(args.next().unwrap_or_else(|| usage())),
            "--drain-deadline" => opts.drain_deadline = Some(number(args)),
            "-h" | "--help" => usage(),
            other if !other.starts_with('-') && opts.file.is_none() => {
                opts.file = Some(other.to_string());
            }
            _ => usage(),
        }
    }
    opts
}

/// The next argument as a number; usage when there is none.
fn number<T: std::str::FromStr>(args: &mut std::env::Args) -> T {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
}

/// Reports `e` and exits 2: an I/O, startup or daemon-reported error.
fn fail(e: &dyn std::fmt::Display) -> ExitCode {
    eprintln!("bitgen-serve: {e}");
    ExitCode::from(2)
}

/// The `--socket` or `--tcp` endpoint; every command needs one.
fn endpoint(opts: &Options) -> &Endpoint {
    opts.endpoint.as_ref().unwrap_or_else(|| usage())
}

fn connect(opts: &Options) -> std::io::Result<Client> {
    let retry = if opts.retry { RetryConfig::resilient() } else { RetryConfig::default() };
    Client::connect_to(endpoint(opts), retry)
}

fn run_serve(opts: &Options) -> ExitCode {
    let mut config = ServeConfig::default();
    if opts.workers > 0 {
        config.workers = opts.workers;
    }
    if opts.queue > 0 {
        config.queue_capacity = opts.queue;
    }
    if opts.cache > 0 {
        config.cache_capacity = opts.cache;
    }
    let service = ScanService::start(config);
    if !opts.patterns.is_empty() {
        let pats: Vec<&str> = opts.patterns.iter().map(String::as_str).collect();
        if let Err(e) = service.warm(&pats) {
            return fail(&e);
        }
    }
    install_drain_signals();
    let mut daemon_config = DaemonConfig {
        manifest_path: opts.drain_manifest.clone().map(PathBuf::from),
        drain_signal: Some(&DRAIN_REQUESTED),
        ..DaemonConfig::default()
    };
    if let Some(secs) = opts.drain_deadline {
        daemon_config.drain_deadline = Duration::from_secs(secs);
    }
    let endpoint = endpoint(opts);
    eprintln!("bitgen-serve: serving on {endpoint}");
    match bitgen_serve::serve(endpoint, service, daemon_config) {
        Ok(ServeOutcome { drained: Some(manifest), forced }) => {
            eprintln!(
                "bitgen-serve: drained {} stream(s){}",
                manifest.entries.len(),
                if forced { " (deadline-forced)" } else { "" }
            );
            ExitCode::from(if forced { 3 } else { 0 })
        }
        Ok(ServeOutcome { drained: None, .. }) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn run_scan(opts: &Options) -> ExitCode {
    if opts.patterns.is_empty() {
        usage();
    }
    let input = match &opts.file {
        Some(path) => match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) => return fail(&format!("{path}: {e}")),
        },
        None => {
            let mut buf = Vec::new();
            if let Err(e) = std::io::stdin().read_to_end(&mut buf) {
                return fail(&format!("stdin: {e}"));
            }
            buf
        }
    };
    let outcome = (|| -> std::io::Result<(u64, u64)> {
        let mut client = connect(opts)?;
        let pats: Vec<&str> = opts.patterns.iter().map(String::as_str).collect();
        // A durable stream survives daemon restarts (the drain manifest
        // carries it to the successor); a plain one is cheaper to
        // reap if this process dies mid-scan.
        let (id, hit) = if opts.retry {
            client.open_durable(&opts.tenant, &pats)?
        } else {
            client.open(&opts.tenant, &pats)?
        };
        eprintln!("bitgen-serve: cache: {}", if hit { "hit" } else { "miss" });
        let mut total = 0u64;
        for chunk in input.chunks(opts.chunk) {
            for end in client.push(id, chunk)? {
                println!("{end}");
                total += 1;
            }
        }
        let (consumed, matches) = client.close(id)?;
        debug_assert_eq!(matches, total);
        Ok((consumed, matches))
    })();
    match outcome {
        Ok((consumed, matches)) => {
            eprintln!("bitgen-serve: {consumed} bytes scanned, {matches} matches");
            if matches > 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => fail(&e),
    }
}

/// Runs one of the daemon verbs `stats`, `drain` and `shutdown`.
fn run_verb(opts: &Options, verb: impl FnOnce(&mut Client) -> std::io::Result<()>) -> ExitCode {
    match connect(opts).and_then(|mut client| verb(&mut client)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args();
    let _ = args.next();
    let command = args.next().unwrap_or_else(|| usage());
    let opts = parse_options(&mut args);
    match command.as_str() {
        "serve" => run_serve(&opts),
        "scan" => run_scan(&opts),
        "stats" => run_verb(&opts, |c| c.metrics().map(|m| println!("{}", m.to_json()))),
        "drain" => run_verb(&opts, Client::drain),
        "shutdown" => run_verb(&opts, Client::shutdown),
        _ => usage(),
    }
}
