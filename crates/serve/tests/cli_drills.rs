//! Cross-process drills: the built binaries driven the way an operator
//! drives them, so `cargo test` covers what a shell script used to.

use bitgen_serve::{Client, Endpoint, RetryConfig, ServeMetrics};
use std::ffi::OsString;
use std::fs::File;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Output, Stdio};
use std::time::{Duration, Instant};

const BITGREP: &str = env!("CARGO_BIN_EXE_bitgrep");
const SERVE: &str = env!("CARGO_BIN_EXE_bitgen-serve");

/// A per-test scratch directory, removed when the test ends either way.
struct Scratch(PathBuf);

impl Scratch {
    fn new(drill: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("bitgen-{drill}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch directory");
        Scratch(dir)
    }

    fn file(&self, name: &str, content: &[u8]) -> PathBuf {
        let path = self.0.join(name);
        std::fs::write(&path, content).expect("scratch file");
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A spawned long-running process — a `bitgen-serve serve` daemon, or a
/// client that outlives one — killed if the test fails before it exited.
struct Spawned(Child);

impl Spawned {
    /// Boots a daemon on `endpoint` and waits until it accepts.
    fn daemon(endpoint: &Endpoint, extra: &[&str]) -> Spawned {
        let child = Command::new(SERVE)
            .arg("serve")
            .args(flags(endpoint))
            .args(extra)
            .stderr(Stdio::null())
            .spawn()
            .expect("bitgen-serve serve starts");
        let daemon = Spawned(child);
        let bound = Instant::now() + Duration::from_secs(5);
        while Client::connect_to(endpoint, RetryConfig::default()).is_err() {
            assert!(Instant::now() < bound, "daemon never bound {endpoint}");
            std::thread::sleep(Duration::from_millis(20));
        }
        daemon
    }

    /// The exit status of a process that has been given its reason to
    /// stop.
    fn exit(&mut self) -> ExitStatus {
        let gone = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(status) = self.0.try_wait().expect("child is waitable") {
                return status;
            }
            assert!(Instant::now() < gone, "process {} never exited", self.0.id());
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Spawned {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The command-line flag and value that name `endpoint`.
fn flags(endpoint: &Endpoint) -> [OsString; 2] {
    match endpoint {
        Endpoint::Unix(path) => ["--socket".into(), path.into()],
        Endpoint::Tcp(addr) => ["--tcp".into(), addr.into()],
    }
}

/// `bitgen-serve <verb> (--socket PATH | --tcp ADDR)`, run to completion.
fn control(verb: &str, endpoint: &Endpoint) -> Output {
    Command::new(SERVE).arg(verb).args(flags(endpoint)).output().expect("client runs")
}

fn stats(endpoint: &Endpoint) -> ServeMetrics {
    let out = control("stats", endpoint);
    assert!(out.status.success(), "stats failed: {}", String::from_utf8_lossy(&out.stderr));
    let json = String::from_utf8(out.stdout).expect("stats is text");
    ServeMetrics::from_json(json.trim()).unwrap_or_else(|| panic!("stats is not JSON: {json}"))
}

/// `bitgrep ARGS`, run to completion.
fn bitgrep<I, S>(args: I) -> Output
where
    I: IntoIterator<Item = S>,
    S: AsRef<std::ffi::OsStr>,
{
    Command::new(BITGREP).args(args).output().expect("bitgrep runs")
}

fn patterns(pats: &[&str]) -> Vec<String> {
    pats.iter().flat_map(|p| ["-e".to_string(), p.to_string()]).collect()
}

/// A `bitgrep` run with `--swap-rules` must emit exactly the union of a
/// prefix scanned under the old rules and a suffix scanned
/// (offset-rebased) under the new.
#[test]
fn bitgrep_swap_rules_reports_old_prefix_and_new_suffix() {
    let dir = Scratch::new("swap-drill");
    let input = dir.file("input.bin", b"cat dog cat cat dog xx");
    let rules = dir.file("new.rules", b"dog\n");
    let swap_at = format!("{}@12", rules.display());
    let run = bitgrep([
        "-e",
        "cat",
        "--swap-rules",
        &swap_at,
        "--positions",
        input.to_str().expect("utf-8 temp dir"),
    ]);
    assert!(run.status.success(), "bitgrep failed: {}", String::from_utf8_lossy(&run.stderr));
    assert_eq!(String::from_utf8_lossy(&run.stdout), "2\n10\n18\n");
}

/// The whole-input path (`--engine nfa`, as every baseline engine and
/// `--profile`) and the default streaming path share one line mapper:
/// on a multi-line input whose last, newline-less line matches, `-n`,
/// `-c` and `--positions` print the same bytes and exit the same way.
#[test]
fn bitgrep_batch_and_streaming_paths_print_the_same() {
    let dir = Scratch::new("line-drill");
    let input = dir.file("input.txt", b"a cat\nnothing here\n\ndog and cat\nxx\nlast dog");
    for (pats, code) in [(&["cat", "do+g"][..], 0), (&["zebra"][..], 1)] {
        for mode in ["-n", "-c", "--positions"] {
            let args = |engine: &[&str]| {
                let mut args = patterns(pats);
                args.push(mode.to_string());
                args.extend(engine.iter().map(|a| a.to_string()));
                args.push(input.display().to_string());
                args
            };
            let streamed = bitgrep(args(&[]));
            let batch = bitgrep(args(&["--engine", "nfa"]));
            assert_eq!(streamed.status.code(), Some(code), "{pats:?} {mode}");
            assert_eq!(batch.status.code(), Some(code), "{pats:?} {mode} --engine nfa");
            assert_eq!(
                String::from_utf8_lossy(&batch.stdout),
                String::from_utf8_lossy(&streamed.stdout),
                "{pats:?} {mode}"
            );
        }
    }
    let mut args = patterns(&["cat", "do+g"]);
    args.extend(["-n".to_string(), input.display().to_string()]);
    assert_eq!(
        String::from_utf8_lossy(&bitgrep(args).stdout),
        "1:a cat\n4:dog and cat\n6:last dog\n"
    );
}

/// `bitgrep` scans, `bitgen-serve` serves: the daemon flags are gone
/// from the scanner's command line.
#[test]
fn bitgrep_no_longer_serves() {
    let run = bitgrep(["--serve", "/nonexistent/bitgen.sock"]);
    assert_eq!(run.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&run.stderr).starts_with("usage: bitgrep"));
}

/// Suspend a stream in one process, resume it in another: two
/// `--checkpoint --max-bytes` runs print, between them, exactly what one
/// uninterrupted run prints, and the finished scan leaves no checkpoint
/// file behind.
#[test]
fn bitgrep_checkpoint_resumes_across_processes() {
    let dir = Scratch::new("checkpoint-drill");
    let input = dir.file("input.bin", &b"cat dog aab cat xaby dooog aab xx ".repeat(4096));
    let ckpt = dir.0.join("scan.ckpt");
    let pats = patterns(&["cat", "do+g", "a+b"]);
    let whole =
        bitgrep(pats.iter().cloned().chain(["--positions".into(), input.display().to_string()]));
    assert!(whole.status.success());
    let half = || {
        bitgrep(pats.iter().cloned().chain([
            "--positions".into(),
            "--checkpoint".into(),
            ckpt.display().to_string(),
            "--max-bytes".into(),
            "70000".into(),
            input.display().to_string(),
        ]))
    };
    let first = half();
    assert!(first.status.success(), "{}", String::from_utf8_lossy(&first.stderr));
    assert!(ckpt.exists(), "a run stopped by --max-bytes keeps its checkpoint");
    let second = half();
    assert!(second.status.success(), "{}", String::from_utf8_lossy(&second.stderr));
    assert!(String::from_utf8_lossy(&second.stderr).contains("resuming at byte 70000"));
    assert!(!ckpt.exists(), "a scan that reached end of input removes its checkpoint");
    assert!(!first.stdout.is_empty() && !second.stdout.is_empty());
    assert_eq!([first.stdout, second.stdout].concat(), whole.stdout);
}

/// Serve smoke: 8 concurrent clients against one daemon — the even ones
/// sharing a pattern set (the compiled-pattern cache must report hits),
/// the odd ones split across distinct sets — every client's output
/// byte-identical to `bitgrep --positions` on the same input, and a
/// clean daemon exit (status 0) after `shutdown`. Then the same daemon
/// binary on a TCP endpoint: one client, the same diff, `stats` and a
/// clean `shutdown` over `--tcp`.
#[test]
fn serve_smoke_eight_clients_match_bitgrep_and_share_the_cache() {
    let dir = Scratch::new("serve-drill");
    let socket = Endpoint::Unix(dir.0.join("bitgen.sock"));
    let inputs = [
        dir.file("in0.bin", &b"cat dog aab cat xaby dooog aab xx ".repeat(4)),
        dir.file("in1.bin", &b"aab xaby cat cat dog aab dooog yy ".repeat(5)),
    ];
    let pats_of = |i: usize| -> &[&str] {
        match i {
            0 | 2 | 4 | 6 => &["cat", "do+g"],
            1 | 5 => &["a+b"],
            3 => &["x[ab]{1,4}y"],
            _ => &["a+b", "x[ab]{1,4}y"],
        }
    };
    let scan = |endpoint: &Endpoint, i: usize| {
        Command::new(SERVE)
            .arg("scan")
            .args(flags(endpoint))
            .args(["--tenant", &format!("t{i}"), "--chunk", &(7 + i).to_string()])
            .args(patterns(pats_of(i)))
            .arg(&inputs[i % 2])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("scan client starts")
    };
    let check = |i: usize, client: Child| {
        let got = client.wait_with_output().expect("scan client finishes");
        assert!(got.status.success(), "client {i} failed");
        let mut args = patterns(pats_of(i));
        args.extend(["--positions".to_string(), inputs[i % 2].display().to_string()]);
        let want = bitgrep(args);
        assert!(!want.stdout.is_empty());
        assert_eq!(got.stdout, want.stdout, "client {i} drifted from bitgrep --positions");
    };

    let mut daemon = Spawned::daemon(&socket, &["-e", "cat"]);
    let clients: Vec<Child> = (0..8).map(|i| scan(&socket, i)).collect();
    for (i, client) in clients.into_iter().enumerate() {
        check(i, client);
    }
    assert!(stats(&socket).cache_hits > 0, "four tenants shared one pattern set");
    assert!(control("shutdown", &socket).status.success());
    assert!(daemon.exit().success(), "daemon exited nonzero after shutdown");

    // A free port, reserved by binding it and letting it go.
    let free = std::net::TcpListener::bind("127.0.0.1:0").and_then(|l| l.local_addr());
    let tcp = Endpoint::Tcp(free.expect("a free local port").to_string());
    let mut daemon = Spawned::daemon(&tcp, &[]);
    check(7, scan(&tcp, 7));
    let pushes = std::fs::metadata(&inputs[1]).expect("input").len().div_ceil(14);
    assert_eq!(stats(&tcp).pushes_completed, pushes, "client 7's input in 14-byte chunks");
    assert!(control("shutdown", &tcp).status.success());
    assert!(daemon.exit().success(), "TCP daemon exited nonzero after shutdown");
}

/// Drain → adopt: a daemon is drained mid-scan, its durable streams
/// checkpointed into a manifest, and a fresh daemon on the same socket
/// adopts them; the retrying client rides across the restart and its
/// positions must still equal `bitgrep --positions`.
#[test]
fn drained_daemon_hands_its_streams_to_a_successor() {
    let dir = Scratch::new("drain-drill");
    let socket = Endpoint::Unix(dir.0.join("drain.sock"));
    let manifest = dir.0.join("drain.manifest");
    let input = dir.file("input.bin", &b"cat dog aab cat xaby dooog aab xx ".repeat(4096));
    let got = dir.0.join("got");
    let manifest_flags = ["--drain-manifest", manifest.to_str().expect("utf-8 temp dir")];
    let mut drained = Spawned::daemon(&socket, &manifest_flags);
    let scan = Command::new(SERVE)
        .arg("scan")
        .args(flags(&socket))
        .args(["--retry", "--tenant", "mover", "--chunk", "96", "-e", "cat", "-e", "do+g"])
        .arg(&input)
        .stdout(File::create(&got).expect("output file"))
        .stderr(Stdio::null())
        .spawn()
        .expect("scan client starts");
    let mut scan = Spawned(scan);
    // Drain once the scan is under way, not before it opened its stream.
    let under_way = Instant::now() + Duration::from_secs(10);
    while stats(&socket).pushes_completed == 0 {
        assert!(Instant::now() < under_way, "the scan never pushed");
    }
    let _ = control("drain", &socket);
    assert!(drained.exit().success(), "drained daemon exited nonzero");
    // Restart on the same socket and manifest: durable streams are
    // adopted and the in-flight client resumes from its last acked offset.
    let mut successor = Spawned::daemon(&socket, &manifest_flags);
    assert!(scan.exit().success(), "the retrying client failed");
    let want = bitgrep(["-e", "cat", "-e", "do+g", "--positions", input.to_str().expect("utf-8")]);
    assert!(!want.stdout.is_empty());
    assert_eq!(
        std::fs::read(&got).expect("client output"),
        want.stdout,
        "positions drifted across the restart"
    );
    assert!(control("shutdown", &socket).status.success());
    assert!(successor.exit().success(), "successor daemon exited nonzero");
}
