//! How a host timing is taken so that it repeats on a shared box.
//!
//! Three things stack (README.md, "The estimator"):
//!
//! 1. every op is timed with [`Recorder::time`]; after every 4th op (or
//!    5 ms, whichever comes first) a fixed integer kernel owned by the
//!    benchmark runs, so each stretch of the run knows how fast the
//!    host was while it ran;
//! 2. the run is cut into windows of about half a second; each
//!    window's statistic is scaled by `REF_CAL_US / cal_p50(window)`,
//!    i.e. reported "at reference speed";
//! 3. the reported value is a low quartile across windows for
//!    latencies and a high one for throughputs, because what is left
//!    of the interference after scaling only ever slows a window down.

use std::hint::black_box;
use std::time::Instant;

/// Median duration of [`Calibrator::run`] on the box the benchmark was
/// written on, in its usual quiet state. Fixed once; every host timing
/// is reported at this speed. Changing it rescales every timed metric.
pub const REF_CAL_US: f64 = 46.0;

/// Window length of the estimator.
const WINDOW_NS: u64 = 500_000_000;
/// Calibrate after this many ops …
const CAL_EVERY_OPS: u32 = 4;
/// … or once this much time has passed since the last calibration.
const CAL_EVERY_NS: u64 = 5_000_000;
/// Quantile across windows reported for a latency.
pub const LATENCY_Q: f64 = 0.25;
/// Quantile across windows reported for a throughput.
pub const THROUGHPUT_Q: f64 = 0.75;

/// The host-speed probe: a bitonic sorting network over 1024 words.
///
/// Integer-only, branch-free, L1-resident and no repository code, so a
/// change to the system under test cannot move it. It is a network of
/// compare-exchanges rather than an arithmetic chain on purpose: what
/// slows this box for seconds at a time barely touches a dependent ALU
/// chain (+5 %) but slows every load/store-dense loop — the probe
/// (+35 %) and the system's code (+35…50 %) alike — so only a probe of
/// the second kind can stand in for the system's speed (README.md, "How
/// the probe was chosen").
pub struct Calibrator {
    seed: Vec<u32>,
    work: Vec<u32>,
}

impl Calibrator {
    const WORDS: usize = 1024;

    pub fn new() -> Calibrator {
        let seed: Vec<u32> = (0..Calibrator::WORDS as u32)
            .map(|i| i.wrapping_mul(2_654_435_761) ^ (i << 7))
            .collect();
        Calibrator {
            work: seed.clone(),
            seed,
        }
    }

    /// One probe; returns its duration in nanoseconds.
    pub fn run(&mut self) -> u64 {
        let start = Instant::now();
        let v = &mut self.work[..];
        v.copy_from_slice(&self.seed);
        let n = v.len();
        let mut k = 2;
        while k <= n {
            let mut j = k / 2;
            while j > 0 {
                for i in 0..n {
                    let l = i ^ j;
                    if l > i {
                        let (lo, hi) = (v[i].min(v[l]), v[i].max(v[l]));
                        let ascending = i & k == 0;
                        v[i] = if ascending { lo } else { hi };
                        v[l] = if ascending { hi } else { lo };
                    }
                }
                j /= 2;
            }
            k *= 2;
        }
        black_box(&mut self.work);
        start.elapsed().as_nanos() as u64
    }
}

/// What an op was, for grouping latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Push,
    OpenHit,
    OpenMiss,
    Close,
    /// open (hit) → pushes → close, timed as one unit.
    Session,
    ScanSmall,
    ScanBulk,
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    op: Op,
    end_ns: u64,
    dur_ns: u64,
    bytes: u64,
    /// Last op of one round of the workload's loop; see
    /// [`Recorder::end_cycle`].
    cycle_end: bool,
}

/// Collects op and calibration samples of one phase. Buffers are
/// allocated up front so recording does not allocate.
pub struct Recorder {
    epoch: Instant,
    cal: Calibrator,
    samples: Vec<Sample>,
    cals: Vec<(u64, u64)>,
    ops_since_cal: u32,
    last_cal_ns: u64,
    probe_ns: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            cal: Calibrator::new(),
            samples: Vec::with_capacity(1 << 18),
            cals: Vec::with_capacity(1 << 17),
            ops_since_cal: 0,
            last_cal_ns: 0,
            probe_ns: 0,
        }
    }

    /// Forgets everything recorded and restarts the clock.
    pub fn restart(&mut self) {
        self.samples.clear();
        self.cals.clear();
        self.ops_since_cal = 0;
        self.last_cal_ns = 0;
        self.epoch = Instant::now();
    }

    /// Nanoseconds since the phase began.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Total time spent in probes since the recorder was made; lets a
    /// caller take the probes out of a duration that spans several ops.
    pub fn probe_ns(&self) -> u64 {
        self.probe_ns
    }

    /// Seconds since the phase began.
    pub fn elapsed_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Times `f` as one `op` carrying `bytes` of payload.
    pub fn time<T>(&mut self, op: Op, bytes: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.note(op, bytes, dur_ns);
        out
    }

    /// Records an op whose duration the caller measured (a unit made of
    /// several timed ops, such as a session). Never triggers a probe.
    pub fn note_compound(&mut self, op: Op, dur_ns: u64) {
        let end_ns = self.now_ns();
        self.samples.push(Sample {
            op,
            end_ns,
            dur_ns,
            bytes: 0,
            cycle_end: false,
        });
    }

    fn note(&mut self, op: Op, bytes: usize, dur_ns: u64) {
        let end_ns = self.now_ns();
        self.samples.push(Sample {
            op,
            end_ns,
            dur_ns,
            bytes: bytes as u64,
            cycle_end: false,
        });
        self.ops_since_cal += 1;
        if self.ops_since_cal >= CAL_EVERY_OPS || end_ns - self.last_cal_ns >= CAL_EVERY_NS {
            self.calibrate();
        }
    }

    /// Marks the op just recorded as the last of one round of the
    /// workload's loop (a push, a group of sessions, one bulk scan and
    /// its small ones). Windows close only here, so every window holds
    /// the loop's ops in the loop's own proportions.
    pub fn end_cycle(&mut self) {
        if let Some(last) = self.samples.last_mut() {
            last.cycle_end = true;
        }
    }

    /// Runs the probe now.
    fn calibrate(&mut self) {
        let dur = self.cal.run();
        self.probe_ns += dur;
        let end = self.now_ns();
        self.cals.push((end, dur));
        self.ops_since_cal = 0;
        self.last_cal_ns = end;
    }

    /// Median probe time over the whole phase, in microseconds.
    pub fn cal_p50_us(&self) -> f64 {
        let mut durs: Vec<f64> = self.cals.iter().map(|c| c.1 as f64 / 1e3).collect();
        quantile(&mut durs, 0.5)
    }

    /// Factor that brings a duration measured in this phase to
    /// reference speed, from the phase-wide calibration median.
    pub fn speed_scale(&self) -> f64 {
        to_reference(self.cal_p50_us())
    }

    /// Plain quantile of one op's raw durations, in milliseconds (for
    /// the ungated tail figures).
    pub fn raw_quantile_ms(&self, op: Op, q: f64) -> f64 {
        let mut durs: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.op == op)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect();
        quantile(&mut durs, q)
    }

    /// How many samples of `op` were recorded.
    pub fn count(&self, op: Op) -> usize {
        self.samples.iter().filter(|s| s.op == op).count()
    }

    /// Cuts the phase into windows. A window closes at the first cycle
    /// end at least [`WINDOW_NS`] after it opened, so no op straddles
    /// two windows; the unfinished last window is dropped unless it is
    /// the only one.
    pub fn windows(&self) -> Vec<Window> {
        let mut out = Vec::new();
        let mut start_ns = 0u64;
        let mut first = 0usize;
        let mut cal_at = 0usize;
        for (i, s) in self.samples.iter().enumerate() {
            let last = i + 1 == self.samples.len();
            let due = s.cycle_end && s.end_ns - start_ns >= WINDOW_NS;
            if !(due || last && out.is_empty()) {
                continue;
            }
            let mut cal_durs = Vec::new();
            while cal_at < self.cals.len() && self.cals[cal_at].0 <= s.end_ns {
                cal_durs.push(self.cals[cal_at].1 as f64 / 1e3);
                cal_at += 1;
            }
            // A probe that ended after the closing op belongs to the
            // next window; one that ran inside this one is not work.
            let cal_ns: f64 = cal_durs.iter().sum::<f64>() * 1e3;
            out.push(Window {
                samples: self.samples[first..=i].to_vec(),
                wall_ns: (s.end_ns - start_ns) as f64,
                cal_ns,
                cal_us: quantile(&mut cal_durs, 0.5),
            });
            start_ns = s.end_ns;
            first = i + 1;
        }
        out
    }
}

/// One window of a phase.
pub struct Window {
    samples: Vec<Sample>,
    wall_ns: f64,
    cal_ns: f64,
    cal_us: f64,
}

impl Window {
    fn scale(&self) -> f64 {
        to_reference(self.cal_us)
    }

    /// Median latency of `op` in this window at reference speed, ms.
    fn latency_ms(&self, op: Op) -> Option<f64> {
        let mut durs: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.op == op)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect();
        if durs.is_empty() {
            return None;
        }
        Some(quantile(&mut durs, 0.5) * self.scale())
    }

    /// Payload bytes per second of this window at reference speed,
    /// MB/s; the probe's own time is not charged to the system.
    fn throughput_mbps(&self) -> f64 {
        let bytes: u64 = self.samples.iter().map(|s| s.bytes).sum();
        let busy_s = (self.wall_ns - self.cal_ns) / 1e9;
        bytes as f64 / 1e6 / busy_s / self.scale()
    }
}

/// The quiet-window estimates of one phase.
pub struct Estimates {
    windows: Vec<Window>,
}

impl Estimates {
    pub fn of(recorder: &Recorder) -> Estimates {
        Estimates {
            windows: recorder.windows(),
        }
    }

    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// Latency of `op`: [`LATENCY_Q`] across the windows' medians, ms.
    /// `0` when the op never ran.
    pub fn latency_ms(&self, op: Op) -> f64 {
        let mut per: Vec<f64> = self
            .windows
            .iter()
            .filter_map(|w| w.latency_ms(op))
            .collect();
        quantile(&mut per, LATENCY_Q)
    }

    /// Throughput of the whole loop: [`THROUGHPUT_Q`] across windows.
    pub fn throughput_mbps(&self) -> f64 {
        let mut per: Vec<f64> = self.windows.iter().map(Window::throughput_mbps).collect();
        quantile(&mut per, THROUGHPUT_Q)
    }

    /// Slowest ÷ fastest window calibration: how much the host's speed
    /// moved during the phase.
    pub fn cal_drift(&self) -> f64 {
        let cals: Vec<f64> = self
            .windows
            .iter()
            .map(|w| w.cal_us)
            .filter(|c| *c > 0.0)
            .collect();
        let lo = cals.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = cals.iter().copied().fold(0.0, f64::max);
        if cals.is_empty() {
            0.0
        } else {
            hi / lo
        }
    }

    /// p75 ÷ p10 of the windows' scaled medians of `op`: a run made in
    /// a heavy phase of the box flags itself here.
    pub fn window_spread(&self, op: Op) -> f64 {
        let mut per: Vec<f64> = self
            .windows
            .iter()
            .filter_map(|w| w.latency_ms(op))
            .collect();
        let lo = quantile(&mut per, 0.10);
        if lo > 0.0 {
            quantile(&mut per, 0.75) / lo
        } else {
            0.0
        }
    }
}

/// Factor that brings a duration measured while the probe took
/// `cal_us` to reference speed (`1` when no probe ran).
fn to_reference(cal_us: f64) -> f64 {
    if cal_us > 0.0 {
        REF_CAL_US / cal_us
    } else {
        1.0
    }
}

/// Linear-interpolated quantile; sorts `values`. `0` for no values.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}
