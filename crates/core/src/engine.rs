//! The BitGen engine: the public face of the whole pipeline.
//!
//! [`BitGen::compile`] parses and groups the patterns, lowers each group
//! to a bitstream program, and freezes the execution configuration;
//! [`BitGen::find`] transposes the input, runs every group's program as
//! one CTA under the configured scheme, prices the launch on the
//! configured device, and reports matches plus modelled performance.

use crate::error::Error;
use crate::group::{group_regexes, GroupingStrategy};
use crate::price::TwinPrice;
use bitgen_bitstream::BitStream;
use bitgen_exec::{
    BatchPlan, ExecConfig, ExecMetrics, FallbackPolicy, Metrics, PreparedProgram, Scheme,
};
use bitgen_gpu::{CostBreakdown, DeviceConfig};
use bitgen_ir::{
    lower_group_checked, CancelToken, CompileLimits, LowerOptions, Program, RunControl,
};
use bitgen_regex::{parse, Ast, ParseError};
use std::fmt;
use std::sync::OnceLock;
use std::time::Duration;

/// What a scan does when a (group × stream) CTA fails — a worker
/// panic, a detected race, or a kernel-scheme execution error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Surface the failure as a typed [`Error`] (default).
    #[default]
    Fail,
    /// Replay the failed CTA's group lowering on the reference
    /// interpreter — the degrade replay a streamed window gets too, run
    /// in the failed slot's own worker — and keep scanning. Matches stay
    /// correct; the affected slots report no device metrics and the
    /// [`ScanReport`] is flagged `degraded`.
    Degrade,
}

/// Engine configuration: the paper's tunables plus simulation knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of regex groups = CTAs (the paper's *CTA count*, default
    /// 256 there; smaller here because CTAs are emulated).
    pub cta_count: usize,
    /// Threads per CTA (the paper uses 512).
    pub threads: usize,
    /// Shift barrier merge size (§5.3).
    pub merge_size: usize,
    /// Zero-block-skipping interval (§6).
    pub interval: usize,
    /// Register cap per thread (the paper's `-maxrregcount`, default 128).
    pub max_regs: u32,
    /// Lower single-class Kleene stars with the Parabix `MatchStar`
    /// identity (long addition) instead of fixpoint loops — an extension
    /// beyond the paper's Fig. 2e lowering, off by default.
    pub match_star: bool,
    /// Lower `C{n,m}` with O(log n) prefix-doubled run streams instead of
    /// the Fig. 2d linear unrolling — an extension, off by default.
    pub log_repetition: bool,
    /// Case-insensitive matching: every letter class is widened to both
    /// cases before lowering.
    pub case_insensitive: bool,
    /// Simplify pattern ASTs before lowering (flattening, duplicate
    /// removal, common-prefix factoring). Language-preserving; on by
    /// default.
    pub optimize_patterns: bool,
    /// Execution scheme; [`Scheme::Zbs`] is full BitGen.
    pub scheme: Scheme,
    /// Simulated device.
    pub device: DeviceConfig,
    /// Store one union output stream per group instead of one per regex
    /// (cheaper; per-pattern results unavailable).
    pub combine_outputs: bool,
    /// Regex-to-CTA assignment strategy.
    pub grouping: GroupingStrategy,
    /// Overlap-overflow handling.
    pub fallback: FallbackPolicy,
    /// Host threads a scan session shards the (group × stream) CTA grid
    /// across; `0` (the default) means one per available hardware
    /// thread. Results are bit-identical regardless of this value.
    pub scan_threads: usize,
    /// Compile budgets: caps on AST nodes, distinct byte classes, and IR
    /// instructions per group. Exceeding one is a typed
    /// [`Error::LimitExceeded`], never an OOM or a hang.
    pub limits: CompileLimits,
    /// What to do when a CTA fails at scan time.
    pub recovery: RecoveryPolicy,
    /// Cross-check every CTA's outputs against the reference interpreter
    /// (roughly doubles scan cost; catches silent emulator corruption).
    pub cross_check: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            cta_count: 8,
            threads: 64,
            merge_size: 8,
            interval: 8,
            max_regs: 128,
            match_star: false,
            log_repetition: false,
            case_insensitive: false,
            optimize_patterns: true,
            scheme: Scheme::Zbs,
            device: DeviceConfig::rtx3090(),
            combine_outputs: true,
            grouping: GroupingStrategy::BalancedLength,
            fallback: FallbackPolicy::Sequential,
            scan_threads: 0,
            limits: CompileLimits::standard(),
            recovery: RecoveryPolicy::Fail,
            cross_check: false,
        }
    }
}

impl EngineConfig {
    /// Sets the simulated device.
    pub fn with_device(mut self, device: DeviceConfig) -> EngineConfig {
        self.device = device;
        self
    }

    /// Sets the execution scheme.
    pub fn with_scheme(mut self, scheme: Scheme) -> EngineConfig {
        self.scheme = scheme;
        self
    }

    /// Sets the host-thread count scan sessions use (`0` = one per
    /// available hardware thread).
    pub fn with_threads(mut self, scan_threads: usize) -> EngineConfig {
        self.scan_threads = scan_threads;
        self
    }

    /// Sets per-regex (`false`) vs union-only (`true`) match streams.
    pub fn with_combine_outputs(mut self, combine: bool) -> EngineConfig {
        self.combine_outputs = combine;
        self
    }

    /// Sets the number of regex groups (CTAs).
    pub fn with_cta_count(mut self, cta_count: usize) -> EngineConfig {
        self.cta_count = cta_count;
        self
    }

    /// Sets the simulated threads per CTA.
    pub fn with_cta_threads(mut self, threads: usize) -> EngineConfig {
        self.threads = threads;
        self
    }

    /// Sets the MatchStar (while-free) star lowering.
    pub fn with_match_star(mut self, match_star: bool) -> EngineConfig {
        self.match_star = match_star;
        self
    }

    /// Sets the compile budgets. Use [`CompileLimits::unbounded`] to
    /// disable budget enforcement entirely.
    pub fn with_limits(mut self, limits: CompileLimits) -> EngineConfig {
        self.limits = limits;
        self
    }

    /// Sets the scan-failure recovery policy.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> EngineConfig {
        self.recovery = recovery;
        self
    }

    /// Enables cross-checking CTA outputs against the reference
    /// interpreter on every scan.
    pub fn with_cross_check(mut self, cross_check: bool) -> EngineConfig {
        self.cross_check = cross_check;
        self
    }
}

/// Pattern `index` failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Index of the offending pattern.
    pub index: usize,
    /// The parse failure.
    pub error: ParseError,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pattern {}: {}", self.index, self.error)
    }
}

impl std::error::Error for CompileError {}

/// A compiled multi-pattern engine.
#[derive(Debug, Clone)]
pub struct BitGen {
    pub(crate) groups: Vec<Vec<usize>>,
    /// Each group's one lowering with its streaming tables, under every
    /// config: class circuits and carry layout prepared once. A
    /// [`crate::StreamScanner`] runs it as it is — shift rebalancing
    /// introduces non-causal retreats that cannot stream — and the batch
    /// side and the degrade replay are built from it. A `MatchStar`
    /// addition streams like an advance: its carry-out is an OR over
    /// markers. See DESIGN.md §10.
    pub(crate) stream_programs: Vec<PreparedProgram>,
    /// What each group's window costs as the paper's fused launch on the
    /// engine's rung would run it, and whether that bill is exact (its
    /// batch slots then walk): a few counts per fused segment and loop,
    /// derived once ([`BitGen::fused_form`]).
    pub(crate) stream_prices: Box<[TwinPrice]>,
    /// Each group's batch side — the transformed program, its transform
    /// record, segments, overlap analyses and compiled kernels — built by
    /// the first batch scan that reaches the group and then shared by
    /// every session, worker thread and `find_many` stream of this
    /// engine. Lazily, so an engine that only streams, or walks every
    /// group (Sequential, Base, DTM-), never pays for, or holds, a
    /// transformed program or a kernel.
    ///
    /// A build runs inside the scan slot's `catch_unwind`. A std
    /// `OnceLock` does not poison: if the build unwinds, the cell stays
    /// empty, that slot fails (or degrades) like any panicking slot, and
    /// the next scan to reach the group builds the plan again.
    batch: Vec<OnceLock<BatchPlan>>,
    /// [`BitGen::stream_fingerprint`], hashed once from the streaming
    /// programs above.
    pub(crate) stream_fingerprint: u64,
    pattern_count: usize,
    /// Rule-set generation: `0` for a fresh compile, the one asked of
    /// [`BitGen::compile_at`] (which [`BitGen::prepare_swap`] asks for
    /// parent + 1), set nowhere else. Checked (alongside the stream
    /// fingerprint) when resuming a [`crate::StreamCheckpoint`], so a
    /// stream suspended after a swap only restores onto the generation
    /// it was actually serving.
    pub(crate) generation: u64,
    config: EngineConfig,
}

/// One match occurrence: pattern `pattern_id` has a match ending at
/// byte `end`.
///
/// Under `combine_outputs` (the default) the engine keeps only the
/// union stream, so occurrences carry [`Match::UNATTRIBUTED`]; compile
/// with [`EngineConfig::with_combine_outputs`]`(false)` for per-pattern
/// attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Match {
    /// Byte position the match ends at (all-match semantics: every end
    /// position of every pattern is an occurrence).
    pub end: usize,
    /// Index of the matched pattern in the compiled set, or
    /// [`Match::UNATTRIBUTED`].
    pub pattern_id: usize,
}

impl Match {
    /// `pattern_id` value meaning "some pattern, not attributed":
    /// the engine ran with combined outputs.
    pub const UNATTRIBUTED: usize = usize::MAX;
}

/// Result of scanning one input: the match streams plus one unified
/// [`Metrics`] record.
///
/// Everything the report used to expose through individual fields
/// (`seconds`, `throughput_mbps`, `cost`, per-CTA metrics,
/// `pass_metrics`, `degraded`) now lives inside [`ScanReport::metrics`];
/// the accessor methods here are thin views over that one record.
#[derive(Debug, Clone)]
pub struct ScanReport {
    /// Union match-end stream: bit *i* set ⇔ some pattern matches ending
    /// at byte *i*.
    pub matches: BitStream,
    /// Per-pattern match-end streams (only when `combine_outputs` is
    /// off), indexed like the compiled patterns.
    pub per_pattern: Option<Vec<BitStream>>,
    /// The unified metrics record of the launch this report came from:
    /// timings, volume, counters, pass totals, and per-CTA detail. For a
    /// multi-stream [`BitGen::find_many`] launch, the timing and byte
    /// totals describe the *whole* launch (the streams share the
    /// device); `match_count` and the per-CTA slice are this stream's.
    pub metrics: Metrics,
}

impl ScanReport {
    /// Number of match-end positions.
    pub fn match_count(&self) -> usize {
        self.matches.count_ones()
    }

    /// Modelled end-to-end seconds (transpose + kernel) on the device.
    /// View over [`Metrics::seconds`].
    pub fn seconds(&self) -> f64 {
        self.metrics.seconds()
    }

    /// Modelled throughput in MB/s. View over
    /// [`Metrics::throughput_mbps`].
    pub fn throughput_mbps(&self) -> f64 {
        self.metrics.throughput_mbps()
    }

    /// Device cost breakdown of the launch. View over [`Metrics::cost`].
    pub fn cost(&self) -> &CostBreakdown {
        &self.metrics.cost
    }

    /// Per-CTA execution metrics, one per group. View over
    /// [`Metrics::ctas`].
    pub fn cta_metrics(&self) -> &[ExecMetrics] {
        &self.metrics.ctas
    }

    /// True when at least one of this stream's CTAs failed on the
    /// kernel scheme and was recovered by replaying its group's lowering
    /// on the reference interpreter ([`RecoveryPolicy::Degrade`]).
    /// Matches are still exact; timings and counters undercount the
    /// recovered slots. View over [`Metrics::is_degraded`].
    pub fn degraded(&self) -> bool {
        self.metrics.is_degraded()
    }

    /// Iterates over match occurrences ordered by end position (ties by
    /// pattern index).
    ///
    /// With per-pattern streams (`combine_outputs` off) each occurrence
    /// names its pattern; otherwise the union stream is reported with
    /// [`Match::UNATTRIBUTED`].
    ///
    /// # Examples
    ///
    /// ```
    /// use bitgen::{BitGen, EngineConfig};
    ///
    /// let config = EngineConfig::default().with_combine_outputs(false);
    /// let engine = BitGen::compile_with(&["ab", "bc"], config)?;
    /// let report = engine.find(b"abc")?;
    /// let hits: Vec<(usize, usize)> =
    ///     report.iter_matches().map(|m| (m.end, m.pattern_id)).collect();
    /// assert_eq!(hits, vec![(1, 0), (2, 1)]);
    /// # Ok::<(), bitgen::Error>(())
    /// ```
    pub fn iter_matches(&self) -> impl Iterator<Item = Match> + '_ {
        let mut hits: Vec<Match> = match &self.per_pattern {
            Some(per) => per
                .iter()
                .enumerate()
                .flat_map(|(pattern_id, stream)| {
                    stream.positions().into_iter().map(move |end| Match { end, pattern_id })
                })
                .collect(),
            None => self
                .matches
                .positions()
                .into_iter()
                .map(|end| Match { end, pattern_id: Match::UNATTRIBUTED })
                .collect(),
        };
        hits.sort();
        hits.into_iter()
    }

    /// Match-end positions of one pattern, ascending. `None` when the
    /// engine ran with combined outputs (no per-pattern attribution) or
    /// when `pattern_id` is out of range for the compiled set.
    pub fn matches_for(&self, pattern_id: usize) -> Option<Vec<usize>> {
        self.per_pattern.as_ref()?.get(pattern_id).map(BitStream::positions)
    }

    /// Renders an Nsight-style profile of the launch (per-CTA events and
    /// cycle attribution) for `device` — normally the device the engine
    /// was configured with.
    pub fn profile(&self, device: &DeviceConfig) -> String {
        let works: Vec<bitgen_gpu::CtaWork> =
            self.metrics.ctas.iter().map(ExecMetrics::cta_work).collect();
        bitgen_gpu::profile_report(device, &works, &self.metrics.cost)
    }
}

impl BitGen {
    /// Compiles a set of regex patterns with the default configuration.
    ///
    /// # Errors
    ///
    /// Returns the first pattern that fails to parse.
    ///
    /// # Examples
    ///
    /// ```
    /// use bitgen::BitGen;
    ///
    /// let engine = BitGen::compile(&["a(bc)*d", "cat"])?;
    /// let report = engine.find(b"bobcat abcbcd")?;
    /// assert_eq!(report.matches.positions(), vec![5, 12]);
    /// # Ok::<(), bitgen::Error>(())
    /// ```
    pub fn compile(patterns: &[&str]) -> Result<BitGen, Error> {
        BitGen::compile_with(patterns, EngineConfig::default())
    }

    /// Compiles with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns the first pattern that fails to parse.
    pub fn compile_with(patterns: &[&str], config: EngineConfig) -> Result<BitGen, Error> {
        let mut asts = Vec::with_capacity(patterns.len());
        for (index, p) in patterns.iter().enumerate() {
            asts.push(parse(p).map_err(|error| CompileError { index, error })?);
        }
        BitGen::from_asts(asts, config)
    }

    /// Builds an engine from already-parsed regexes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LimitExceeded`] when a group blows through a
    /// compile budget ([`EngineConfig::with_limits`]).
    pub fn from_asts(asts: Vec<Ast>, config: EngineConfig) -> Result<BitGen, Error> {
        let mut asts: Vec<Ast> = if config.case_insensitive {
            asts.iter().map(crate::fold_case).collect()
        } else {
            asts
        };
        if config.optimize_patterns {
            for a in &mut asts {
                *a = bitgen_regex::optimize_owned(std::mem::take(a));
            }
        }
        let groups = if asts.is_empty() {
            Vec::new()
        } else {
            group_regexes(&asts, config.cta_count, config.grouping)
        };
        let opts =
            LowerOptions { match_star: config.match_star, log_repetition: config.log_repetition };
        let lowered = groups
            .iter()
            .map(|g| {
                // The groups partition the patterns: each tree moves once.
                let members: Vec<Ast> = g.iter().map(|&i| std::mem::take(&mut asts[i])).collect();
                if config.combine_outputs && config.optimize_patterns && members.len() > 1 {
                    // Only the union matters: lower the whole group as one
                    // alternation so the optimizer can factor prefixes
                    // *across* rules (Hyperscan-style set compilation).
                    let combined = bitgen_regex::optimize_owned(Ast::Alt(members));
                    return lower_group_checked(
                        std::slice::from_ref(&combined),
                        opts,
                        &config.limits,
                    );
                }
                let mut prog = lower_group_checked(&members, opts, &config.limits)?;
                if config.combine_outputs {
                    prog.combine_outputs();
                }
                Ok(prog)
            })
            .collect::<Result<Vec<Program>, _>>()?;
        // Streaming, batch and degrade replay all read this one lowering.
        // What stays resident is a deep copy made while the builder's
        // output is still alive: exact-sized and contiguous, where that
        // output has slack capacity and sits among the lowering's
        // temporaries. Every push walks these statements (serve-small
        // `op_p50_ms` 0.183 → 0.163 ms, resident heap 0.207 → 0.180 MB for
        // the copy).
        let stream_programs = PreparedProgram::new_all(lowered.clone());
        let mut engine = BitGen {
            batch: std::iter::repeat_with(OnceLock::new).take(groups.len()).collect(),
            groups,
            stream_fingerprint: crate::stream_scan::fingerprint_of(&stream_programs),
            stream_programs,
            stream_prices: Box::default(),
            pattern_count: asts.len(),
            generation: 0,
            config,
        };
        // Priced once the parse and lowering are gone: pricing compiles
        // kernels, and none of its transients should stack on theirs.
        drop((asts, lowered));
        engine.stream_prices = TwinPrice::of_all(&engine.stream_programs, &engine.exec_config());
        Ok(engine)
    }

    /// Number of compiled patterns.
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// Rule-set generation: `0` for a fresh compile, parent + 1 for an
    /// engine produced by [`BitGen::prepare_swap`], or the one asked of
    /// [`BitGen::compile_at`]. See [`crate::StagedRules`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of groups (CTAs) the patterns were partitioned into.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Group `group`'s batch side if a batch scan has built it yet; every
    /// later scan of this engine runs this same plan.
    pub fn batch_plan(&self, group: usize) -> Option<&BatchPlan> {
        self.batch.get(group)?.get()
    }

    /// Group `group`'s batch side, built now if nothing has asked before —
    /// under the executor configuration [`BitGen::config`] fixes for the
    /// engine (a scan only ever overrides `fault`).
    ///
    /// # Panics
    ///
    /// Panics if `group` is not below [`BitGen::group_count`].
    pub fn batch(&self, group: usize) -> &BatchPlan {
        self.batch[group]
            .get_or_init(|| BatchPlan::build(self.stream_programs[group].program(), &self.exec_config()))
    }

    /// The prepared streaming programs, one per group: the untransformed
    /// lowerings a [`crate::StreamScanner`] executes, with their class
    /// circuits and carry layouts.
    pub fn stream_programs(&self) -> &[PreparedProgram] {
        &self.stream_programs
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Scans `input`, returning matches and modelled performance.
    ///
    /// Convenience for one-off scans: equivalent to creating a
    /// [`crate::ScanSession`] and scanning once. Callers scanning many
    /// inputs should hold a session instead, which reuses its scratch
    /// buffers across calls.
    ///
    /// # Errors
    ///
    /// An overlap overflow under [`FallbackPolicy::Error`], a cancellation
    /// or deadline, and under [`RecoveryPolicy::Fail`] a cross-check
    /// mismatch, a counter or race detection, or a worker panic.
    pub fn find(&self, input: &[u8]) -> Result<ScanReport, Error> {
        self.session().scan(input)
    }

    /// Scans several independent input streams in one launch — the
    /// paper's MIMD regime: with S streams and G groups, S·G CTAs run
    /// concurrently, each pairing one group's program with one stream.
    ///
    /// Returns one [`ScanReport`] per stream. Every report's `seconds`
    /// and `cost` describe the *whole* launch (the streams share the
    /// device), so each `throughput_mbps` is already the batch
    /// throughput over the total bytes.
    ///
    /// # Errors
    ///
    /// Propagates the first execution failure in (stream, group) order.
    ///
    /// # Examples
    ///
    /// ```
    /// use bitgen::BitGen;
    ///
    /// let engine = BitGen::compile(&["ab"])?;
    /// let reports = engine.find_many(&[b"abab".as_slice(), b"xxab"])?;
    /// assert_eq!(reports[0].matches.positions(), vec![1, 3]);
    /// assert_eq!(reports[1].matches.positions(), vec![3]);
    /// # Ok::<(), bitgen::Error>(())
    /// ```
    pub fn find_many(&self, inputs: &[&[u8]]) -> Result<Vec<ScanReport>, Error> {
        self.session().scan_many(inputs)
    }

    /// The executor configuration every scan of this engine runs under;
    /// fixed per engine (a scan only ever overrides `fault`).
    pub(crate) fn exec_config(&self) -> ExecConfig {
        ExecConfig {
            scheme: self.config.scheme,
            threads: self.config.threads,
            merge_size: self.config.merge_size,
            interval: self.config.interval,
            max_regs: self.config.max_regs,
            fallback: self.config.fallback,
            cross_check: self.config.cross_check,
            ..ExecConfig::default()
        }
    }
}

/// Interruption control for one batch scan or one streaming push, from
/// its owner's cancel token and timeout. Built once per scan or push:
/// every slot, and every retry of a window, shares the one deadline
/// rather than getting a fresh budget.
pub(crate) fn run_control(cancel: Option<&CancelToken>, timeout: Option<Duration>) -> RunControl {
    let mut ctl = RunControl::unlimited();
    if let Some(token) = cancel {
        ctl = ctl.with_cancel(token.clone());
    }
    if let Some(budget) = timeout {
        ctl = ctl.deadline_in(budget);
    }
    ctl
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitgen_regex::multi_match_ends;

    #[test]
    fn multi_pattern_union() {
        let engine = BitGen::compile(&["ab", "bc", "c+d"]).unwrap();
        let input = b"abcd xx bccd";
        let report = engine.find(input).unwrap();
        let asts: Vec<Ast> = ["ab", "bc", "c+d"].iter().map(|p| parse(p).unwrap()).collect();
        assert_eq!(report.matches.positions(), multi_match_ends(&asts, input));
        assert!(report.seconds() > 0.0);
        assert!(report.throughput_mbps() > 0.0);
    }

    #[test]
    fn per_pattern_streams() {
        let config = EngineConfig { combine_outputs: false, cta_count: 2, ..Default::default() };
        let engine = BitGen::compile_with(&["ab", "bc"], config).unwrap();
        let report = engine.find(b"abc").unwrap();
        let per = report.per_pattern.as_ref().expect("per-pattern mode");
        assert_eq!(per[0].positions(), vec![1]);
        assert_eq!(per[1].positions(), vec![2]);
        assert_eq!(report.matches.positions(), vec![1, 2]);
    }

    #[test]
    fn grouping_does_not_change_matches() {
        let pats = ["abc", "a(bc)*d", "x[0-9]{1,2}y", "zz"];
        let input = b"abcbcd x42y zz abc";
        let mut reference = None;
        for ctas in [1, 2, 4] {
            let config = EngineConfig { cta_count: ctas, ..Default::default() };
            let engine = BitGen::compile_with(&pats, config).unwrap();
            assert!(engine.group_count() <= ctas);
            let got = engine.find(input).unwrap().matches.positions();
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(&got, r, "cta_count {ctas}"),
            }
        }
    }

    #[test]
    fn schemes_agree_end_to_end() {
        let pats = ["a(bc)*d", "cat", "[0-9]+x"];
        let input = b"abcbcd cat 42x catd";
        let mut reference = None;
        for scheme in Scheme::ALL {
            let config = EngineConfig { scheme, ..Default::default() };
            let engine = BitGen::compile_with(&pats, config).unwrap();
            let got = engine.find(input).unwrap().matches.positions();
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(&got, r, "scheme {scheme}"),
            }
        }
    }

    #[test]
    fn compile_error_carries_index() {
        let err = BitGen::compile(&["ok", "(broken"]).unwrap_err();
        let Error::Compile(compile) = &err else {
            panic!("expected a compile error, got {err:?}");
        };
        assert_eq!(compile.index, 1);
        assert!(err.to_string().contains("pattern 1"));
    }

    #[test]
    fn iter_matches_and_matches_for() {
        let config = EngineConfig::default().with_combine_outputs(false).with_cta_count(2);
        let engine = BitGen::compile_with(&["ab", "bc"], config).unwrap();
        let report = engine.find(b"abcab").unwrap();
        let hits: Vec<(usize, usize)> =
            report.iter_matches().map(|m| (m.end, m.pattern_id)).collect();
        assert_eq!(hits, vec![(1, 0), (2, 1), (4, 0)]);
        assert_eq!(report.matches_for(0), Some(vec![1, 4]));
        assert_eq!(report.matches_for(1), Some(vec![2]));

        // Combined outputs: occurrences exist but are unattributed.
        let combined = BitGen::compile(&["ab", "bc"]).unwrap();
        let report = combined.find(b"abcab").unwrap();
        assert_eq!(report.matches_for(0), None);
        let hits: Vec<Match> = report.iter_matches().collect();
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|m| m.pattern_id == Match::UNATTRIBUTED));
        assert_eq!(
            hits.iter().map(|m| m.end).collect::<Vec<_>>(),
            report.matches.positions()
        );
    }

    #[test]
    fn matches_for_out_of_range_is_none() {
        let config = EngineConfig::default().with_combine_outputs(false);
        let engine = BitGen::compile_with(&["ab"], config).unwrap();
        let report = engine.find(b"abab").unwrap();
        assert_eq!(report.matches_for(0), Some(vec![1, 3]));
        assert_eq!(report.matches_for(1), None);
        assert_eq!(report.matches_for(usize::MAX), None);
    }

    #[test]
    fn empty_engine() {
        let engine = BitGen::compile(&[]).unwrap();
        let report = engine.find(b"anything").unwrap();
        assert_eq!(report.match_count(), 0);
        assert_eq!(engine.group_count(), 0);
    }

    #[test]
    fn find_many_matches_individual_finds() {
        let engine = BitGen::compile(&["ab", "c+d"]).unwrap();
        let inputs: [&[u8]; 3] = [b"abcd", b"ccd ab", b"none"];
        let batch = engine.find_many(&inputs).unwrap();
        assert_eq!(batch.len(), 3);
        for (input, report) in inputs.iter().zip(&batch) {
            let solo = engine.find(input).unwrap();
            assert_eq!(report.matches.positions(), solo.matches.positions());
        }
        // Batch launch amortises: total time under the sum of solo times.
        let solo_total: f64 =
            inputs.iter().map(|i| engine.find(i).unwrap().seconds()).sum();
        assert!(batch[0].seconds() < solo_total, "{} vs {}", batch[0].seconds(), solo_total);
        // All reports describe the same launch.
        assert_eq!(batch[0].seconds(), batch[1].seconds());
    }

    #[test]
    fn find_many_empty_batch() {
        let engine = BitGen::compile(&["a"]).unwrap();
        assert!(engine.find_many(&[]).unwrap().is_empty());
    }

    #[test]
    fn match_count_helper() {
        let engine = BitGen::compile(&["a"]).unwrap();
        let report = engine.find(b"aaa").unwrap();
        assert_eq!(report.match_count(), 3);
    }
}
