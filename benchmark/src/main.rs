//! The benchmark's one binary. `run.sh` builds it, pins it to one CPU
//! and passes its arguments through; see README.md.

mod alloc;
mod batch;
mod churn;
mod clock;
mod daemon;
mod inputs;
mod layers;
mod report;
mod stability;
mod stream;
mod trace;
mod twins;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 4] = ["serve-small", "serve-bulk", "serve-churn", "batch-scan"];
/// Length of the measured phase when `--seconds` is not given; the
/// same value `BENCHMARK.json` records as `run_seconds`.
const RUN_SECONDS: f64 = 24.0;
const SMOKE_SECONDS: f64 = 3.0;

/// One run's arguments.
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
}

/// Share of a traced run spent untraced, as the overhead reference.
const UNTRACED_SHARE: f64 = 0.25;

impl RunConfig {
    /// Length of the untraced phase: all of an untraced run, the first
    /// part of a traced one.
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds * UNTRACED_SHARE
        } else {
            self.seconds
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh <workload> [--seed N] [--seconds S] [--trace [0|1]] [--smoke]\n       \
         run.sh --selfcheck\n  workloads: {}",
        WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn main() {
    let mut config = RunConfig {
        workload: String::new(),
        seed: 0xb17,
        seconds: RUN_SECONDS,
        trace: false,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => config.workload = args.next().unwrap_or_else(|| usage()),
            "--seed" => {
                config.seed = args
                    .next()
                    .as_deref()
                    .and_then(parse_seed)
                    .unwrap_or_else(|| usage())
            }
            "--seconds" => {
                config.seconds = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            // `--trace` alone means on; the driver spells it `--trace 0|1`.
            "--trace" => {
                config.trace = args
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1")
            }
            "--smoke" => config.seconds = SMOKE_SECONDS,
            "--summarize" => {
                let path = args.next().unwrap_or_else(|| usage());
                stability::summarize(&path);
                return;
            }
            name if !name.starts_with('-') && config.workload.is_empty() => {
                config.workload = name.to_string()
            }
            _ => usage(),
        }
    }
    let outcome = match config.workload.as_str() {
        "serve-small" => stream::run(&config, &stream::SMALL),
        "serve-bulk" => stream::run(&config, &stream::BULK),
        "serve-churn" => churn::run(&config),
        "batch-scan" => batch::run(&config),
        _ => usage(),
    };
    report::print(&outcome, config.trace);
    if outcome.tally.failed > 0 {
        std::process::exit(1);
    }
}
