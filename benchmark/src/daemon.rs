//! The in-process daemon the serve workloads talk to, and how its
//! set-up is timed.
//!
//! One worker, one engine thread, one client connection: with the
//! process pinned to one core, daemon, worker and client hand off by
//! context switch, never by a cross-CPU wake-up, which is what makes a
//! push time repeat.

use crate::clock::{quantile, Calibrator, REF_CAL_US};
use crate::layers::engine_config;
use bitgen_serve::{serve_unix, Client, ScanService, ServeConfig, ServeOutcome};
use std::io;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tenant every benchmark stream belongs to.
pub const TENANT: &str = "bench";
/// Complete set-ups timed before the measured phase of an untraced
/// run, and again after it: the two batches sit half a minute apart, so
/// one bad stretch of the host cannot colour them all. The median of
/// all of them is reported.
pub const SETUP_REPS: usize = 12;
/// Probes run after each set-up to learn the host's speed for it.
const SETUP_PROBES: usize = 9;

/// The service configuration of every serve workload but its cache size.
pub fn serve_config(cache_capacity: usize) -> ServeConfig {
    ServeConfig {
        engine: engine_config(),
        workers: 1,
        cache_capacity,
        ..ServeConfig::default()
    }
}

/// The daemon thread and the one client connection to it.
pub struct Daemon {
    thread: JoinHandle<io::Result<ServeOutcome>>,
    pub client: Client,
}

impl Daemon {
    /// Fresh service, daemon thread, socket bind and client connect.
    pub fn start(cache_capacity: usize) -> Daemon {
        let dir = PathBuf::from("benchmark/out");
        std::fs::create_dir_all(&dir).expect("benchmark/out is creatable inside the checkout");
        // Relative, so the socket address stays short wherever the
        // checkout lives.
        let path = dir.join(format!("bench-{}.sock", std::process::id()));
        let service = ScanService::start(serve_config(cache_capacity));
        let bind = path.clone();
        let thread = std::thread::spawn(move || serve_unix(&bind, service));
        let deadline = Instant::now() + Duration::from_secs(10);
        let client = loop {
            match Client::connect(&path) {
                Ok(client) => break client,
                Err(e) if Instant::now() >= deadline => panic!("daemon never bound {path:?}: {e}"),
                Err(_) => std::thread::sleep(Duration::from_micros(100)),
            }
        };
        Daemon { thread, client }
    }

    /// Shuts the daemon down and waits for its thread.
    pub fn stop(mut self) {
        self.client
            .shutdown()
            .expect("daemon acknowledges SHUTDOWN");
        self.thread
            .join()
            .expect("daemon thread does not panic")
            .expect("daemon exits cleanly after SHUTDOWN");
    }
}

/// Times `reps` complete set-ups, each brought to reference speed by
/// probes run right after it, and appends the seconds to `times`.
/// Returns the product of the last set-up; `teardown` disposes of the
/// earlier ones outside the timed region.
pub fn timed_setups<T>(
    reps: usize,
    times: &mut Vec<f64>,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> T {
    let mut probe = Calibrator::new();
    let mut kept: Option<T> = None;
    for _ in 0..reps {
        if let Some(previous) = kept.take() {
            teardown(previous);
        }
        let start = Instant::now();
        let product = setup();
        let seconds = start.elapsed().as_secs_f64();
        let mut probes: Vec<f64> = (0..SETUP_PROBES)
            .map(|_| probe.run() as f64 / 1e3)
            .collect();
        times.push(seconds * REF_CAL_US / quantile(&mut probes, 0.5));
        kept = Some(product);
    }
    kept.expect("at least one set-up ran")
}
