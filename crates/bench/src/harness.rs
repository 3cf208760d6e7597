//! Engine runners and aggregation for the reproduction harness.
//!
//! Engines come in two timing regimes. *Modelled* engines (BitGen and
//! the ngAP-like GPU NFA) report deterministic device-model seconds with
//! their scan, which go straight into [`timed`]. *Measured* engines
//! really run on the host CPU, and [`measure`] wall-clocks one scan of
//! them. Every engine is scanned exactly once per result.

use bitgen::{BitGen, EngineConfig, Metrics, Scheme};
use bitgen_baselines::{
    run_gpu_nfa, CpuBitstreamEngine, GpuNfaModel, HybridEngine, HybridMt, MultiNfa,
};
use bitgen_gpu::DeviceConfig;
use bitgen_workloads::{generate, AppKind, Workload, WorkloadConfig};
use std::time::Instant;

/// Harness-wide configuration (command-line adjustable).
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Regexes per application (the paper uses the full rule sets; the
    /// emulated default is scaled down).
    pub regexes: usize,
    /// Input bytes (the paper uses 10^6).
    pub input_len: usize,
    /// Workload seed.
    pub seed: u64,
    /// Threads per CTA.
    pub threads: usize,
    /// Regex groups = CTAs.
    pub cta_count: usize,
    /// Default merge size (the paper's breakdown default is 8).
    pub merge_size: usize,
    /// Default ZBS interval (paper default 8).
    pub interval: usize,
    /// Device for GPU models.
    pub device: DeviceConfig,
}

impl Default for HarnessConfig {
    fn default() -> HarnessConfig {
        HarnessConfig {
            regexes: 32,
            input_len: 1 << 16,
            seed: 0xb17,
            threads: 128,
            cta_count: 8,
            merge_size: 8,
            interval: 8,
            device: DeviceConfig::rtx3090(),
        }
    }
}

impl HarnessConfig {
    /// Generates one application's workload under this configuration.
    pub fn workload(&self, kind: AppKind) -> Workload {
        generate(
            kind,
            &WorkloadConfig {
                regexes: self.regexes,
                input_len: self.input_len,
                seed: self.seed,
                witness_density: 0.05,
            },
        )
    }

    /// The BitGen engine configuration for a scheme/parameters.
    pub fn engine_config(&self, scheme: Scheme) -> EngineConfig {
        EngineConfig {
            cta_count: self.cta_count,
            threads: self.threads,
            merge_size: self.merge_size,
            interval: self.interval,
            scheme,
            device: self.device.clone(),
            ..EngineConfig::default()
        }
    }
}

/// Prepares all ten applications.
pub fn prepare(config: &HarnessConfig) -> Vec<Workload> {
    AppKind::ALL.iter().map(|&k| config.workload(k)).collect()
}

/// One engine's result on one application.
#[derive(Debug, Clone)]
pub struct EngineResult {
    /// Throughput in MB/s (modelled for GPU engines, measured for CPU).
    pub mbps: f64,
    /// Number of match-end positions found (for cross-checking).
    pub matches: usize,
}

/// Full per-application result set for the overall comparison.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// The application.
    pub kind: AppKind,
    /// BitGen (full ZBS scheme), modelled.
    pub bitgen: EngineResult,
    /// Hyperscan-like, single thread, measured.
    pub hs_1t: EngineResult,
    /// Hyperscan-like, best multi-threaded configuration, measured.
    pub hs_mt: EngineResult,
    /// ngAP-like GPU NFA, modelled.
    pub ngap: EngineResult,
    /// icgrep-like CPU bitstream, measured.
    pub icgrep: EngineResult,
    /// BitGen's unified metrics record for the run.
    pub metrics: Metrics,
}

/// The result of scanning `bytes` in `seconds` — the device model's for
/// a modelled engine — floored at 1 ns so throughput stays finite.
pub fn timed(bytes: usize, seconds: f64, matches: usize) -> EngineResult {
    EngineResult { mbps: bytes as f64 / 1e6 / seconds.max(1e-9), matches }
}

/// A measured engine's result: wall-clocks one `scan` of `input`, which
/// returns its match count.
pub fn measure(input: &[u8], scan: impl FnOnce(&[u8]) -> usize) -> EngineResult {
    let start = Instant::now();
    let matches = scan(input);
    timed(input.len(), start.elapsed().as_secs_f64(), matches)
}

/// Runs BitGen (one-shot) on a workload with a scheme, returning the
/// throughput/match summary plus the run's unified [`Metrics`].
pub fn run_bitgen(
    w: &Workload,
    config: &HarnessConfig,
    scheme: Scheme,
) -> (EngineResult, Metrics) {
    let engine = BitGen::from_asts(w.asts.clone(), config.engine_config(scheme))
        .expect("workloads compile within budget");
    let report = engine.find(&w.input).expect("harness workloads execute");
    (timed(w.input.len(), report.seconds(), report.match_count()), report.metrics)
}

/// Runs the ngAP-like model.
pub fn run_ngap(w: &Workload, config: &HarnessConfig) -> EngineResult {
    let nfa = MultiNfa::build(&w.asts);
    let report = run_gpu_nfa(&nfa, &w.input, &config.device, &GpuNfaModel::default());
    timed(w.input.len(), report.seconds, report.ends.count_ones())
}

/// Runs the Hyperscan-like engine single-threaded (wall-clock).
pub fn run_hybrid_st(w: &Workload) -> EngineResult {
    let engine = HybridEngine::new(&w.asts);
    measure(&w.input, |input| engine.run(input).count_ones())
}

/// Runs the Hyperscan-like engine multi-threaded, sweeping shard counts
/// (1, 2, 4, 8) and keeping the best — the paper's HS-MT methodology,
/// which also sweeps thread counts per application. Including 1 makes the
/// sweep degrade gracefully on hosts with few cores.
pub fn run_hybrid_mt(w: &Workload) -> EngineResult {
    let mut best = EngineResult { mbps: 0.0, matches: 0 };
    for shards in [1usize, 2, 4, 8] {
        let engine = HybridMt::new(&w.asts, shards);
        let run = measure(&w.input, |input| engine.run(input).count_ones());
        if run.mbps > best.mbps {
            best = run;
        }
    }
    best
}

/// Runs the icgrep-like CPU bitstream engine (wall-clock).
pub fn run_cpu_bitstream(w: &Workload, config: &HarnessConfig) -> EngineResult {
    // Same grouping as the GPU engine for a fair comparison.
    let groups = bitgen::group_regexes(
        &w.asts,
        config.cta_count,
        bitgen::GroupingStrategy::BalancedLength,
    );
    let grouped: Vec<Vec<bitgen_regex::Ast>> = groups
        .iter()
        .map(|g| g.iter().map(|&i| w.asts[i].clone()).collect())
        .collect();
    let engine = CpuBitstreamEngine::new(&grouped);
    measure(&w.input, |input| engine.run(input).count_ones())
}

/// Geometric mean of positive values (zero for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HarnessConfig {
        HarnessConfig { regexes: 4, input_len: 4096, threads: 8, cta_count: 2, ..Default::default() }
    }

    #[test]
    fn all_runners_agree_on_matches() {
        let config = tiny();
        let w = config.workload(AppKind::Tcp);
        let (bg, _) = run_bitgen(&w, &config, Scheme::Zbs);
        let ng = run_ngap(&w, &config);
        let hs = run_hybrid_st(&w);
        let ic = run_cpu_bitstream(&w, &config);
        assert_eq!(bg.matches, ng.matches);
        assert_eq!(bg.matches, hs.matches);
        assert_eq!(bg.matches, ic.matches);
    }

    #[test]
    fn bitgen_result_is_its_metrics_throughput_and_repeats() {
        let config = tiny();
        let w = config.workload(AppKind::ExactMatch);
        let (a, metrics) = run_bitgen(&w, &config, Scheme::Zbs);
        let (b, _) = run_bitgen(&w, &config, Scheme::Zbs);
        assert_eq!(a.mbps.to_bits(), metrics.throughput_mbps().to_bits());
        assert_eq!(a.mbps.to_bits(), b.mbps.to_bits());
        assert_eq!(a.matches, b.matches);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn prepare_builds_ten_apps() {
        let apps = prepare(&tiny());
        assert_eq!(apps.len(), 10);
    }
}
