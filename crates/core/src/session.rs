//! Reusable scan sessions: pre-sized scratch buffers plus a host-thread
//! executor for the (group × stream) CTA grid.
//!
//! The paper's MIMD regime launches S·G CTAs at once — every regex
//! group paired with every input stream. A [`ScanSession`] emulates
//! those CTAs on host threads (`std::thread::scope`, no work stealing:
//! each worker owns a contiguous chunk of the flattened grid) and keeps
//! per-worker [`ExecScratch`]es and per-stream [`Basis`] buffers alive
//! across calls, so repeated scans of same-sized inputs reach a steady
//! state with no per-call buffer growth.
//!
//! Determinism: CTA outcomes are merged in canonical (stream-major,
//! group-minor) slot order no matter which worker produced them, and
//! the device cost model aggregates permutation-invariantly, so
//! matches, metrics, and modelled seconds are bit-identical for every
//! thread count.

use crate::engine::{run_control, BitGen, RecoveryPolicy, ScanReport};
use crate::error::Error;
use bitgen_bitstream::{Basis, BitStream};
use bitgen_exec::{ExecConfig, ExecError, ExecMetrics, ExecOutcome, ExecScratch, Metrics};
use bitgen_gpu::FaultPlan;
use bitgen_ir::{try_interpret, CancelToken, RunControl};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// How one (group × stream) CTA slot ended: cleanly, or with a typed
/// error — an executor failure, or a panic caught and isolated to the
/// slot ([`Error::WorkerPanicked`]).
type SlotRun = Result<Box<ExecOutcome>, Error>;

/// Per-stream accumulator used by `merge`: the union match stream,
/// optional per-pattern streams, per-group metrics, degraded slots.
type StreamPartial = (BitStream, Option<Vec<BitStream>>, Vec<ExecMetrics>, u64);

/// Everything a worker needs to run grid slots, shared read-only across
/// threads.
#[derive(Clone, Copy)]
struct GridCtx<'a> {
    /// Group count: slot `i` pairs program `i % g` with stream `i / g`.
    g: usize,
    engine: &'a BitGen,
    bases: &'a [Basis],
    config: &'a ExecConfig,
    fault: Option<(usize, usize, FaultPlan)>,
    ctl: &'a RunControl,
}

/// A reusable scanner over a compiled engine.
///
/// Owns the transpose targets (one [`Basis`] per stream slot) and one
/// executor scratch per worker thread; both persist across scans. Use
/// [`BitGen::session`] to create one, [`ScanSession::scan`] /
/// [`ScanSession::scan_many`] to run it. [`BitGen::find`] and
/// [`BitGen::find_many`] are one-shot wrappers over a fresh session.
///
/// # Examples
///
/// ```
/// use bitgen::BitGen;
///
/// let engine = BitGen::compile(&["ab", "c+d"])?;
/// let mut session = engine.session();
/// for input in [b"abcd".as_slice(), b"ccd ab", b"none"] {
///     let report = session.scan(input)?;
///     println!("{} matches", report.match_count());
/// }
/// # Ok::<(), bitgen::Error>(())
/// ```
#[derive(Debug)]
pub struct ScanSession<'e> {
    engine: &'e BitGen,
    /// Worker count; 0 until the batch grid first needs it resolved.
    threads: usize,
    /// Transpose targets, one per stream slot, grown on demand.
    bases: Vec<Basis>,
    /// Executor scratch, one per worker, grown on demand.
    scratches: Vec<ExecScratch>,
    /// Deterministic fault armed on one (stream, group) slot — a test
    /// and drill hook, never set in normal operation.
    fault: Option<(usize, usize, FaultPlan)>,
    /// Cooperative cancellation checked at word-chunk granularity.
    cancel: Option<CancelToken>,
    /// Per-scan wall-clock budget.
    timeout: Option<Duration>,
}

impl BitGen {
    /// Creates a scan session over this engine.
    ///
    /// The worker count comes from [`crate::EngineConfig::scan_threads`]
    /// (`0` = one per available hardware thread, asked of the OS by the
    /// first batch scan). Buffers are allocated lazily on first scan and
    /// reused afterwards.
    pub fn session(&self) -> ScanSession<'_> {
        ScanSession {
            engine: self,
            threads: self.config().scan_threads,
            bases: Vec::new(),
            scratches: Vec::new(),
            fault: None,
            cancel: None,
            timeout: None,
        }
    }
}

impl ScanSession<'_> {
    /// The resolved worker thread count.
    pub fn threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            n => n,
        }
    }

    /// Total words of capacity currently held by session-owned buffers
    /// (basis streams and executor scratch buffers). Stable across
    /// repeated scans of same-sized inputs — exposed so reuse tests and
    /// benchmarks can assert that.
    pub fn buffer_capacity_words(&self) -> usize {
        let basis_words: usize = self
            .bases
            .iter()
            .flat_map(|b| b.streams().iter().map(BitStream::capacity_words))
            .sum();
        let pool_words: usize = self.scratches.iter().map(ExecScratch::pooled_words).sum();
        basis_words + pool_words
    }

    /// Arms a deterministic fault on the CTA pairing `stream` with
    /// `group`, applied to every subsequent scan until cleared with
    /// [`ScanSession::clear_fault`]. This is the fault-drill hook: tests
    /// use it to prove panics stay isolated to one slot and corruption
    /// never escapes undetected.
    pub fn inject_fault(&mut self, stream: usize, group: usize, plan: FaultPlan) {
        self.fault = Some((stream, group, plan));
    }

    /// Disarms a previously injected fault.
    pub fn clear_fault(&mut self) {
        self.fault = None;
    }

    /// Sets a cancellation token polled cooperatively during scans;
    /// cancelling it makes in-flight and future scans return
    /// [`bitgen_exec::ExecError::Cancelled`].
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Gives every subsequent scan a wall-clock budget; overrunning it
    /// returns [`bitgen_exec::ExecError::DeadlineExceeded`]. `None`
    /// removes the budget.
    pub fn set_timeout(&mut self, budget: Option<Duration>) {
        self.timeout = budget;
    }

    /// Scans one input. Same result as [`BitGen::find`].
    ///
    /// # Errors
    ///
    /// Propagates execution failures.
    pub fn scan(&mut self, input: &[u8]) -> Result<ScanReport, Error> {
        let mut reports = self.scan_many(&[input])?;
        Ok(reports.pop().expect("one report per stream"))
    }

    /// Scans several independent input streams as one launch — the
    /// paper's MIMD regime. Same results as [`BitGen::find_many`].
    ///
    /// # Errors
    ///
    /// Propagates the first execution failure in (stream, group) order.
    /// A worker panic surfaces as [`Error::WorkerPanicked`] naming the
    /// slot; under [`crate::RecoveryPolicy::Degrade`] failed slots are
    /// replayed on the reference interpreter instead and the affected
    /// reports come back with `degraded` set.
    pub fn scan_many(&mut self, inputs: &[&[u8]]) -> Result<Vec<ScanReport>, Error> {
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        self.threads = self.threads();
        self.transpose_streams(inputs);
        let ctl = run_control(self.cancel.as_ref(), self.timeout);
        let slots = self.execute_grid(inputs.len(), &ctl);
        let outcomes = self.resolve(slots, &ctl)?;
        Ok(self.merge(inputs, outcomes))
    }

    /// Phase 1: fill `bases[..s]` from the inputs, sharded across
    /// workers by contiguous chunks.
    fn transpose_streams(&mut self, inputs: &[&[u8]]) {
        let s = inputs.len();
        if self.bases.len() < s {
            self.bases.resize_with(s, Basis::empty);
        }
        let active = &mut self.bases[..s];
        let workers = self.threads.min(s).max(1);
        if workers <= 1 {
            for (basis, input) in active.iter_mut().zip(inputs) {
                basis.transpose_into(input);
            }
            return;
        }
        let chunk = s.div_ceil(workers);
        std::thread::scope(|scope| {
            for (bases, ins) in active.chunks_mut(chunk).zip(inputs.chunks(chunk)) {
                scope.spawn(move || {
                    for (basis, input) in bases.iter_mut().zip(ins) {
                        basis.transpose_into(input);
                    }
                });
            }
        });
    }

    /// Runs one CTA slot with panic isolation: a panicking emulator (or
    /// injected [`FaultPlan`]) is caught here, its scratch — in an
    /// unknown state mid-unwind — is discarded, and the failure stays
    /// confined to this slot.
    fn run_slot(cx: GridCtx<'_>, idx: usize, scratch: &mut ExecScratch) -> SlotRun {
        let armed = cx.fault.filter(|&(stream, group, _)| idx == stream * cx.g + group);
        let config = ExecConfig { fault: armed.map(|(.., plan)| plan), ..*cx.config };
        let (group, stream) = (idx % cx.g, idx / cx.g);
        let run = catch_unwind(AssertUnwindSafe(|| {
            // The engine's resident plan: only the first scan to reach a
            // group segments, analyses and compiles it.
            let (plan, prog) = (cx.engine.batch_plan_or_build(group), &cx.engine.programs[group]);
            plan.execute(prog, &cx.bases[stream], &config, scratch, cx.ctl)
        }));
        match run {
            Ok(Ok(outcome)) => Ok(Box::new(outcome)),
            Ok(Err(e)) => Err(Error::Exec(e)),
            Err(_) => {
                *scratch = ExecScratch::new();
                Err(Error::WorkerPanicked { group, stream })
            }
        }
    }

    /// Phase 2: run all `s × g` CTAs. Slot `i` pairs stream `i / g`
    /// with group `i % g`; workers take contiguous slot chunks and each
    /// reuses its own scratch. Results land in slot order, so the merge
    /// below never depends on scheduling.
    fn execute_grid(&mut self, s: usize, ctl: &RunControl) -> Vec<SlotRun> {
        let g = self.engine.programs.len();
        let slot_count = s * g;
        let mut slots: Vec<Option<SlotRun>> = Vec::new();
        slots.resize_with(slot_count, || None);
        let workers = self.threads.min(slot_count).max(1);
        if self.scratches.len() < workers {
            self.scratches.resize_with(workers, ExecScratch::new);
        }
        let cx = GridCtx {
            g,
            engine: self.engine,
            bases: &self.bases[..s],
            config: &self.engine.exec_config(),
            fault: self.fault,
            ctl,
        };
        if workers <= 1 {
            let scratch = &mut self.scratches[0];
            for (idx, slot) in slots.iter_mut().enumerate() {
                *slot = Some(Self::run_slot(cx, idx, scratch));
            }
        } else {
            let chunk = slot_count.div_ceil(workers);
            std::thread::scope(|scope| {
                for ((ci, slot_chunk), scratch) in
                    slots.chunks_mut(chunk).enumerate().zip(self.scratches.iter_mut())
                {
                    scope.spawn(move || {
                        for (j, slot) in slot_chunk.iter_mut().enumerate() {
                            let idx = ci * chunk + j;
                            *slot = Some(Self::run_slot(cx, idx, scratch));
                        }
                    });
                }
            });
        }
        slots.into_iter().map(|slot| slot.expect("every slot executed")).collect()
    }

    /// Phase 2½: recover or surface failed slots. Under
    /// [`crate::RecoveryPolicy::Degrade`] a failed slot's prepared program
    /// is replayed on the reference interpreter, under the scan's own
    /// cancel token and deadline, and flagged degraded; otherwise
    /// the first failure in canonical slot order becomes the scan's
    /// error, independent of which worker hit it first.
    fn resolve(
        &self,
        slots: Vec<SlotRun>,
        ctl: &RunControl,
    ) -> Result<Vec<(ExecOutcome, bool)>, Error> {
        let g = self.engine.programs.len();
        let mut resolved = Vec::with_capacity(slots.len());
        for (idx, slot) in slots.into_iter().enumerate() {
            match slot {
                Ok(outcome) => resolved.push((*outcome, false)),
                Err(failure) => {
                    let (group, stream) = (idx % g, idx / g);
                    // Cancellation and deadlines are honoured regardless
                    // of policy: every slot fails the same way, and
                    // "recovering" them all on the CPU would silently
                    // override the caller's request to stop.
                    if failure.is_interrupt()
                        || self.engine.config().recovery != RecoveryPolicy::Degrade
                    {
                        return Err(failure);
                    }
                    // The transforms are semantics-preserving, so the
                    // prepared program's interpretation lines up with the
                    // kernel path's outputs slot for slot.
                    let program = &self.engine.programs[group];
                    let replay = try_interpret(program, &self.bases[stream], ctl)
                        .map_err(|e| Error::Exec(ExecError::from(e)))?;
                    resolved.push((
                        ExecOutcome {
                            outputs: replay.outputs,
                            metrics: ExecMetrics::default(),
                            fault_fired: false,
                        },
                        true,
                    ));
                }
            }
        }
        Ok(resolved)
    }

    /// Phase 3: fold the slot outcomes into per-stream reports and
    /// price the whole launch once, exactly as the sequential path did.
    fn merge(&self, inputs: &[&[u8]], outcomes: Vec<(ExecOutcome, bool)>) -> Vec<ScanReport> {
        let engine = self.engine;
        let g = engine.programs.len();
        let device = &engine.config().device;
        let combine = engine.config().combine_outputs;
        let total_bytes: usize = inputs.iter().map(|i| i.len()).sum();
        let mut works = Vec::with_capacity(outcomes.len());
        let mut partial: Vec<StreamPartial> = Vec::with_capacity(inputs.len());
        let mut outcomes = outcomes.into_iter();
        for &input in inputs {
            let mut union = BitStream::zeros(input.len());
            let mut per_pattern = if combine {
                None
            } else {
                Some(vec![BitStream::zeros(input.len()); engine.pattern_count()])
            };
            let mut metrics = Vec::with_capacity(g);
            let mut degraded = 0u64;
            for (gi, group) in engine.groups.iter().enumerate() {
                let (mut outcome, slot_degraded) =
                    outcomes.next().expect("one outcome per slot");
                degraded += u64::from(slot_degraded);
                for (oi, out) in outcome.outputs.iter().enumerate() {
                    // or_clipped is the shared final-partial-word clip:
                    // the window stream is one peek bit longer than the
                    // input-length union.
                    union.or_clipped(out);
                    if let Some(per) = per_pattern.as_mut() {
                        per[group[oi]] = out.resized(input.len());
                    }
                }
                works.push(outcome.metrics.cta_work());
                // Prepared runs execute programs transformed at compile
                // time, so their per-CTA `passes` comes from the engine's
                // compile-time record — the same data the one-shot
                // `execute` path measures itself, keeping `passes`
                // populated consistently across both entry points.
                outcome.metrics.passes = engine.pass_metrics[gi];
                metrics.push(outcome.metrics);
            }
            partial.push((union, per_pattern, metrics, degraded));
        }
        // One launch: all S·G CTAs priced together, plus one transpose
        // per stream (summed; conservative, as transposes overlap on
        // device). Degraded slots contribute default (zero) metrics, so
        // the model prices only the work the device actually did.
        let cost = device.estimate(&works);
        let transpose: f64 = inputs.iter().map(|i| device.transpose_seconds(i.len())).sum();
        let mut passes = bitgen_passes::PassMetrics::default();
        for p in &engine.pass_metrics {
            passes.absorb(p);
        }
        partial
            .into_iter()
            .map(|(matches, per_pattern, ctas, degraded)| {
                let match_count = matches.count_ones() as u64;
                ScanReport {
                    matches,
                    per_pattern,
                    metrics: Metrics {
                        kernel_seconds: cost.seconds,
                        transpose_seconds: transpose,
                        bytes_scanned: total_bytes as u64,
                        match_count,
                        passes,
                        retries: 0,
                        degraded,
                        swaps: 0,
                        swap_rollbacks: 0,
                        cost: cost.clone(),
                        ctas,
                    },
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use bitgen_exec::BatchPlan;

    fn streams() -> Vec<Vec<u8>> {
        (0..9)
            .map(|i| {
                let mut v = Vec::new();
                for j in 0..40 + i * 13 {
                    v.extend_from_slice(match (i + j) % 4 {
                        0 => b"abcbcd".as_slice(),
                        1 => b"zzzz",
                        2 => b"cat ",
                        _ => b"a1x ",
                    });
                }
                v
            })
            .collect()
    }

    fn reports_agree(a: &[ScanReport], b: &[ScanReport]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.matches, y.matches);
            assert_eq!(x.per_pattern, y.per_pattern);
            assert_eq!(x.seconds().to_bits(), y.seconds().to_bits());
            assert_eq!(x.metrics.cost.seconds.to_bits(), y.metrics.cost.seconds.to_bits());
            assert_eq!(x.metrics.ctas.len(), y.metrics.ctas.len());
            for (mx, my) in x.metrics.ctas.iter().zip(&y.metrics.ctas) {
                // The compile-time pass record carries wall-clock nanos,
                // which legitimately differ between separately compiled
                // engines; everything else must be bit-identical.
                let (mut mx, mut my) = (mx.clone(), my.clone());
                mx.passes.rebalance_nanos = 0;
                mx.passes.zbs_nanos = 0;
                my.passes.rebalance_nanos = 0;
                my.passes.zbs_nanos = 0;
                assert_eq!(mx, my);
            }
        }
    }

    #[test]
    fn thread_count_never_changes_results() {
        let pats = ["a(bc)*d", "cat", "[0-9]+x"];
        let inputs = streams();
        let slices: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
        let reference = {
            let config = EngineConfig::default().with_threads(1);
            let engine = BitGen::compile_with(&pats, config).unwrap();
            engine.session().scan_many(&slices).unwrap()
        };
        // 0 asks for one worker per hardware thread, resolved by the scan.
        let machine = std::thread::available_parallelism().map_or(1, usize::from);
        for threads in [0, 2, 3, 8, 64] {
            let config = EngineConfig::default().with_threads(threads);
            let engine = BitGen::compile_with(&pats, config).unwrap();
            let mut session = engine.session();
            let want = if threads == 0 { machine } else { threads };
            assert_eq!(session.threads(), want);
            let got = session.scan_many(&slices).unwrap();
            reports_agree(&reference, &got);
            assert_eq!(session.threads(), want);
        }
    }

    #[test]
    fn session_matches_one_shot_entry_points() {
        let engine = BitGen::compile(&["ab", "c+d"]).unwrap();
        let inputs = streams();
        let slices: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
        let mut session = engine.session();
        reports_agree(&session.scan_many(&slices).unwrap(), &engine.find_many(&slices).unwrap());
        reports_agree(
            std::slice::from_ref(&session.scan(slices[0]).unwrap()),
            std::slice::from_ref(&engine.find(slices[0]).unwrap()),
        );
    }

    #[test]
    fn repeated_scans_stop_growing_buffers() {
        let engine =
            BitGen::compile_with(&["a(bc)*d", "cat"], EngineConfig::default().with_threads(4))
                .unwrap();
        let inputs = streams();
        let slices: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
        let mut session = engine.session();
        // Warm-up populates the buffers; afterwards same-sized batches
        // must leave every capacity untouched.
        let first = session.scan_many(&slices).unwrap();
        let warm = session.buffer_capacity_words();
        assert!(warm > 0);
        for _ in 0..3 {
            let again = session.scan_many(&slices).unwrap();
            reports_agree(&first, &again);
            assert_eq!(session.buffer_capacity_words(), warm);
        }
        // Smaller batches fit in the same buffers too.
        session.scan(slices[0]).unwrap();
        assert_eq!(session.buffer_capacity_words(), warm);
    }

    #[test]
    fn one_batch_plan_per_group_serves_every_session_and_stream() {
        let pats = ["a(bc)*d", "cat", "[0-9]+x", "x[ab]{1,4}y"];
        let config = EngineConfig::default().with_threads(4).with_cta_count(3);
        let engine = BitGen::compile_with(&pats, config).unwrap();
        let groups = engine.group_count();
        assert!(groups > 1);
        let plans = |engine: &BitGen| -> Vec<Option<*const BatchPlan>> {
            (0..groups).map(|g| engine.batch_plan(g).map(std::ptr::from_ref)).collect()
        };
        assert_eq!(plans(&engine), vec![None; groups], "compiling builds no plan");
        let inputs = streams();
        let slices: Vec<&[u8]> = inputs[..4].iter().map(Vec::as_slice).collect();
        // Four worker threads race for each group's cell on the first scan.
        let mut first = engine.session();
        let reference = first.scan_many(&slices).unwrap();
        let built = plans(&engine);
        assert!(built.iter().all(Option::is_some), "the first scan builds every group's plan");
        // A second session, a re-scan and a fresh `find_many` all run the
        // same plans and report the same bits.
        let mut second = engine.session();
        reports_agree(&reference, &second.scan_many(&slices).unwrap());
        reports_agree(&reference, &first.scan_many(&slices).unwrap());
        reports_agree(&reference, &engine.find_many(&slices).unwrap());
        assert_eq!(plans(&engine), built, "plans are built once per engine");
        // An engine that only streams never builds one.
        let streaming = BitGen::compile(&pats).unwrap();
        let mut scanner = streaming.streamer().unwrap();
        for chunk in inputs[0].chunks(7) {
            scanner.push(chunk).unwrap();
        }
        assert!((0..streaming.group_count()).all(|g| streaming.batch_plan(g).is_none()));
    }

    #[test]
    fn prepared_scans_populate_pass_metrics() {
        // Session scans run prepared programs, so each CTA's `passes`
        // must be the engine's compile-time record, not the default the
        // raw `BatchPlan::execute` reports.
        let engine = BitGen::compile(&["a(bc)*d", "cat"]).unwrap();
        let report = engine.find(b"abcbcd cat").unwrap();
        assert_eq!(report.metrics.ctas.len(), engine.pass_metrics().len());
        for (m, p) in report.metrics.ctas.iter().zip(engine.pass_metrics()) {
            assert_eq!(&m.passes, p);
        }
    }

    #[test]
    fn degrade_replay_is_typed_and_runs_under_the_scans_control() {
        let config = EngineConfig::default().with_recovery(RecoveryPolicy::Degrade);
        let engine = BitGen::compile_with(&["a(bc)*d"], config).unwrap();
        let mut session = engine.session();
        let input: &[u8] = b"abcbcd ad";
        session.transpose_streams(&[input]);
        let failed = || vec![Err(Error::WorkerPanicked { group: 0, stream: 0 })];
        // A failed slot is replayed on the reference interpreter and
        // flagged degraded.
        let replayed = session.resolve(failed(), &RunControl::unlimited()).unwrap();
        assert!(replayed[0].1);
        assert_eq!(
            session.merge(&[input], replayed)[0].matches,
            engine.find(input).unwrap().matches
        );
        // The replay polls the scan's cancel token: it used to run to
        // completion on a door that could only panic.
        let token = CancelToken::new();
        token.cancel();
        let stopped = RunControl::unlimited().with_cancel(token);
        assert_eq!(
            session.resolve(failed(), &stopped).err(),
            Some(Error::Exec(ExecError::Cancelled))
        );
    }

    #[test]
    fn empty_batch_and_empty_engine() {
        let engine = BitGen::compile(&["a"]).unwrap();
        assert!(engine.session().scan_many(&[]).unwrap().is_empty());
        let empty = BitGen::compile(&[]).unwrap();
        let report = empty.session().scan(b"anything").unwrap();
        assert_eq!(report.match_count(), 0);
    }
}
