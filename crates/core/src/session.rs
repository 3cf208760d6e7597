//! Reusable scan sessions: pre-sized scratch buffers plus a host-thread
//! executor for the (group × stream) CTA grid.
//!
//! The paper's MIMD regime launches S·G CTAs at once — every regex
//! group paired with every input stream. A [`ScanSession`] runs those
//! CTAs on host threads (`std::thread::scope`, no work stealing: each
//! worker owns a contiguous chunk of the flattened grid) and keeps
//! per-worker [`ExecScratch`]es and per-stream [`Basis`] buffers alive
//! across calls, so repeated scans of same-sized inputs reach a steady
//! state with no per-call buffer growth. A CTA whose group's fused form is
//! exact walks as a one-push stream does; the others emulate the group's
//! [`bitgen_exec::BatchPlan`].
//!
//! Determinism: CTA outcomes are merged in canonical (stream-major,
//! group-minor) slot order no matter which worker produced them, and
//! the device cost model aggregates permutation-invariantly, so
//! matches, metrics, and modelled seconds are bit-identical for every
//! thread count.

use crate::engine::{run_control, BitGen, RecoveryPolicy, ScanReport};
use crate::error::Error;
use bitgen_bitstream::{Basis, BitStream};
use bitgen_exec::{
    ClassStreams, ExecConfig, ExecError, ExecMetrics, ExecOutcome, ExecScratch, FallbackPolicy,
    Metrics, PreparedProgram,
};
use bitgen_gpu::FaultPlan;
use bitgen_ir::{try_interpret_chunk, CancelToken, CarryState, Program, RunControl};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// How one (group × stream) CTA slot ended: its outcome and whether the
/// degrade `replay` recovered it, or the typed error that stopped it.
type SlotRun = Result<(ExecOutcome, bool), Error>;

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

/// A grid worker's buffers, kept across scans: its executor scratch and,
/// for its walked slots, the class streams of the input `on` in this scan,
/// if any.
#[derive(Debug, Default)]
struct Worker {
    scratch: ExecScratch,
    classes: ClassStreams,
    on: Option<usize>,
}

/// The one panic guard of a (group × stream) slot, batch CTA or streamed
/// window: runs `run` on `scratch`, and if it panics (a fault in the
/// emulator, or an injected [`FaultPlan`]) replaces the scratch — in an
/// unknown state mid-unwind — and reports [`Error::WorkerPanicked`], so
/// the failure stays confined to the slot.
pub(crate) fn guarded<T>(
    scratch: &mut ExecScratch,
    group: usize,
    stream: usize,
    run: impl FnOnce(&mut ExecScratch) -> Result<T, ExecError>,
) -> Result<T, Error> {
    match catch_unwind(AssertUnwindSafe(|| run(scratch))) {
        Ok(ran) => ran.map_err(Error::Exec),
        Err(_) => {
            *scratch = ExecScratch::new();
            Err(Error::WorkerPanicked { group, stream })
        }
    }
}

/// The window a push runs per group and an exact group's batch slot per
/// slot: the group's stream twin walked from `carry` under the panic guard
/// (`output` shown each output once it passed its checks), then priced as
/// the fused launch on the engine's rung.
#[allow(clippy::too_many_arguments)]
pub(crate) fn priced_window(
    engine: &BitGen,
    (group, stream): (usize, usize),
    (basis, classes): (&Basis, &ClassStreams),
    config: &ExecConfig,
    scratch: &mut ExecScratch,
    ctl: &RunControl,
    carry: &mut CarryState,
    output: &mut dyn FnMut(Option<&BitStream>),
) -> Result<(ExecMetrics, ExecMetrics), Error> {
    let prepared = &engine.stream_programs[group];
    scratch.frontiers.restart(engine.records_frontiers(group));
    let walked = guarded(scratch, group, stream, |scratch| {
        prepared.execute_window_with(classes, basis, config, scratch, ctl, carry, output)
    })?;
    let fused = engine.fused_form(group, &walked, &scratch.frontiers, basis.len());
    Ok((walked, fused))
}

/// The one degrade replay: the group's lowering — the specification the
/// transforms and kernels refine, so its outputs line up with the kernel
/// path's without trusting the passes it backs up — run on the reference
/// interpreter over `basis` from `carry`, under the scan's or push's own
/// cancel token and deadline. A push replays from its boundary carry; a
/// batch slot from a zeroed one, over which one chunk interprets exactly
/// as the whole input does.
pub(crate) fn replay(
    prepared: &PreparedProgram,
    basis: &Basis,
    ctl: &RunControl,
    carry: &mut CarryState,
) -> Result<Vec<BitStream>, Error> {
    try_interpret_chunk(prepared.program(), basis, ctl, carry)
        .map(|replayed| replayed.outputs)
        .map_err(|e| Error::Exec(ExecError::from(e)))
}

/// The session's one worker loop: `items` in contiguous chunks, one per
/// state in `states` (never more chunks than items), each chunk on its
/// own scoped thread with its own state — or all in place on the first
/// state when one worker is enough. `run` is handed each item's index.
///
/// # Panics
///
/// Panics if `states` is empty.
fn in_chunks<T: Send, S: Send>(
    items: &mut [T],
    states: &mut [S],
    run: impl Fn(usize, &mut T, &mut S) + Sync,
) {
    let workers = states.len().min(items.len());
    if workers <= 1 {
        let state = &mut states[0];
        items.iter_mut().enumerate().for_each(|(i, item)| run(i, item, state));
        return;
    }
    let chunk = items.len().div_ceil(workers);
    let run = &run;
    std::thread::scope(|scope| {
        for ((ci, part), state) in items.chunks_mut(chunk).enumerate().zip(states) {
            scope.spawn(move || {
                for (j, item) in part.iter_mut().enumerate() {
                    run(ci * chunk + j, item, state);
                }
            });
        }
    });
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
    /// Worker buffers, one per worker, grown on demand.
    workers: Vec<Worker>,
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
            workers: Vec::new(),
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
    /// (basis streams, and each worker's scratch buffers and class
    /// streams). Stable across repeated scans of same-sized inputs —
    /// exposed so reuse tests and benchmarks can assert that.
    pub fn buffer_capacity_words(&self) -> usize {
        let basis_words: usize = self
            .bases
            .iter()
            .flat_map(|b| b.streams().iter().map(BitStream::capacity_words))
            .sum();
        let worker = |w: &Worker| w.scratch.pooled_words() + w.classes.capacity_words();
        basis_words + self.workers.iter().map(worker).sum::<usize>()
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
    /// slot; under [`crate::RecoveryPolicy::Degrade`] a failed slot is
    /// replayed on the reference interpreter instead and the affected
    /// report comes back with `degraded` set.
    pub fn scan_many(&mut self, inputs: &[&[u8]]) -> Result<Vec<ScanReport>, Error> {
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        self.threads = self.threads();
        self.transpose_streams(inputs);
        let ctl = run_control(self.cancel.as_ref(), self.timeout);
        // The first failure in canonical slot order is the scan's error,
        // whichever worker hit it first.
        let outcomes = self.execute_grid(inputs.len(), &ctl).into_iter().collect::<Result<_, _>>()?;
        Ok(self.merge(inputs, outcomes))
    }

    /// Phase 1: fill `bases[..s]` from the inputs, sharded across
    /// workers by contiguous chunks.
    fn transpose_streams(&mut self, inputs: &[&[u8]]) {
        let s = inputs.len();
        if self.bases.len() < s {
            self.bases.resize_with(s, Basis::empty);
        }
        in_chunks(&mut self.bases[..s], &mut vec![(); self.threads], |i, basis, ()| {
            basis.transpose_into(inputs[i]);
        });
    }

    /// Runs one CTA slot under the panic guard, and recovers it there if
    /// it fails: an interrupt (cancellation, deadline) is returned as it
    /// is — every slot fails the same way, and recovering them all would
    /// override the caller's request to stop — and under
    /// [`crate::RecoveryPolicy::Degrade`] any other failure is replayed at
    /// once, in this worker, and flagged degraded.
    fn run_slot(cx: GridCtx<'_>, idx: usize, worker: &mut Worker) -> SlotRun {
        let armed = cx.fault.filter(|&(stream, group, _)| idx == stream * cx.g + group);
        let config = ExecConfig { fault: armed.map(|(.., plan)| plan), ..*cx.config };
        let (group, stream) = (idx % cx.g, idx / cx.g);
        let (basis, prepared) = (&cx.bases[stream], &cx.engine.stream_programs[group]);
        let scratch = &mut worker.scratch;
        let fresh = || CarryState::for_layout(prepared.carry_layout());
        let price = &cx.engine.stream_prices[group];
        let ran = if price.exact {
            // What a one-push stream of this input runs, from a zeroed carry,
            // unless a segment outgrows the window under the Error policy. A
            // worker evaluates the one class table once per input it reaches.
            if worker.on.replace(stream) != Some(stream) {
                prepared.evaluate_classes(basis, &mut worker.classes);
            }
            let (mut outputs, len) = (Vec::new(), Program::stream_len(basis.len()));
            let zeros = || BitStream::zeros(len);
            let keep = &mut |v: Option<&BitStream>| outputs.push(v.cloned().unwrap_or_else(zeros));
            let (slot, input, carry) = ((group, stream), (basis, &worker.classes), &mut fresh());
            let ran = match price.overflow.filter(|_| config.fallback == FallbackPolicy::Error) {
                Some(overflow) => Err(Error::Exec(overflow.into())),
                None => priced_window(cx.engine, slot, input, &config, scratch, cx.ctl, carry, keep),
            };
            let outcome = |metrics| ExecOutcome { outputs, metrics, fault_fired: false };
            ran.map(|(_, fused)| outcome(fused))
        } else {
            // The engine's resident plan: only the first scan to reach a
            // group transforms, segments, analyses and compiles it.
            let plan = cx.engine.batch(group);
            guarded(scratch, group, stream, |s| plan.execute(basis, &config, s, cx.ctl))
        };
        let failure = match ran {
            Ok(outcome) => return Ok((outcome, false)),
            Err(failure) => failure,
        };
        if failure.is_interrupt() || cx.engine.config().recovery != RecoveryPolicy::Degrade {
            return Err(failure);
        }
        let outputs = replay(prepared, basis, cx.ctl, &mut fresh())?;
        Ok((ExecOutcome { outputs, metrics: ExecMetrics::default(), fault_fired: false }, true))
    }

    /// Phase 2: run all `s × g` CTAs. Slot `i` pairs stream `i / g`
    /// with group `i % g`; workers take contiguous slot chunks and each
    /// reuses its own buffers. Results land in slot order, so the merge
    /// below never depends on scheduling.
    fn execute_grid(&mut self, s: usize, ctl: &RunControl) -> Vec<SlotRun> {
        let g = self.engine.group_count();
        let slot_count = s * g;
        let mut slots: Vec<Option<SlotRun>> = Vec::new();
        slots.resize_with(slot_count, || None);
        let workers = self.threads.min(slot_count).max(1);
        if self.workers.len() < workers {
            self.workers.resize_with(workers, Worker::default);
        }
        // The classes a worker holds are of the last scan's inputs.
        self.workers.iter_mut().for_each(|worker| worker.on = None);
        let cx = GridCtx {
            g,
            engine: self.engine,
            bases: &self.bases[..s],
            config: &self.engine.exec_config(),
            fault: self.fault,
            ctl,
        };
        in_chunks(&mut slots, &mut self.workers[..workers], |idx, slot, worker| {
            *slot = Some(Self::run_slot(cx, idx, worker));
        });
        slots.into_iter().map(|slot| slot.expect("every slot executed")).collect()
    }

    /// Phase 3: fold the slot outcomes into per-stream reports and
    /// price the whole launch once, exactly as the sequential path did.
    fn merge(&self, inputs: &[&[u8]], outcomes: Vec<(ExecOutcome, bool)>) -> Vec<ScanReport> {
        let engine = self.engine;
        let g = engine.group_count();
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
            for group in &engine.groups {
                let (outcome, slot_degraded) = outcomes.next().expect("one outcome per slot");
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
        partial
            .into_iter()
            .map(|(matches, per_pattern, ctas, degraded)| {
                let match_count = matches.count_ones() as u64;
                // What this stream's plans report; a degraded slot ran no
                // plan and adds nothing, like its device metrics.
                let mut passes = bitgen_passes::PassMetrics::default();
                ctas.iter().for_each(|m| passes.absorb(&m.passes));
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
                        fused_pushes: 0,
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
    use bitgen_exec::Scheme;

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
        // A failed slot recovers in whichever worker ran it, and that never
        // shows: the same exact matches, degraded flags and modelled time at
        // every worker count.
        let degraded: Vec<Vec<ScanReport>> = [1, 2, 8, 64]
            .into_iter()
            .map(|threads| {
                let config = EngineConfig::default()
                    .with_threads(threads)
                    .with_recovery(RecoveryPolicy::Degrade)
                    .with_combine_outputs(false);
                let engine = BitGen::compile_with(&pats, config).unwrap();
                let mut session = engine.session();
                let plan = FaultPlan { kind: bitgen_gpu::FaultKind::Panic, trigger: 1, seed: 0 };
                session.inject_fault(4, engine.group_count() - 1, plan);
                session.scan_many(&slices).unwrap()
            })
            .collect();
        for got in &degraded {
            for (i, (x, y)) in degraded[0].iter().zip(got).enumerate() {
                assert_eq!(x.matches, reference[i].matches);
                assert_eq!(x.matches, y.matches);
                assert_eq!(x.per_pattern, y.per_pattern);
                assert_eq!((x.degraded(), y.degraded()), (i == 4, i == 4));
                assert_eq!(x.metrics.kernel_seconds.to_bits(), y.metrics.kernel_seconds.to_bits());
            }
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
        // A walking session's class streams are among its buffers; a DTM
        // session's grid mixes walked and emulated slots.
        for scheme in Scheme::ALL {
            let config = EngineConfig::default().with_threads(4).with_scheme(scheme);
            let engine = BitGen::compile_with(&["a(bc)*d", "cat"], config).unwrap();
            let inputs = streams();
            let slices: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
            let mut session = engine.session();
            // Warm-up populates the buffers; afterwards same-sized batches
            // must leave every capacity untouched.
            let first = session.scan_many(&slices).unwrap();
            let warm = session.buffer_capacity_words();
            assert!(warm > 0, "{scheme}");
            let classes: usize = session.workers.iter().map(|w| w.classes.capacity_words()).sum();
            assert_eq!(classes > 0, scheme <= Scheme::Dtm, "{scheme}");
            for _ in 0..3 {
                let again = session.scan_many(&slices).unwrap();
                reports_agree(&first, &again);
                assert_eq!(session.buffer_capacity_words(), warm, "{scheme}");
            }
            // Smaller batches fit in the same buffers too.
            session.scan(slices[0]).unwrap();
            assert_eq!(session.buffer_capacity_words(), warm, "{scheme}");
        }
    }

    #[test]
    fn one_batch_plan_per_group_serves_every_session_and_stream() {
        let pats = ["a(bc)*d", "cat", "[0-9]+x", "x[ab]{1,4}y"];
        let config = EngineConfig::default().with_threads(4).with_cta_count(3);
        let engine = BitGen::compile_with(&pats, config).unwrap();
        let groups = engine.group_count();
        assert!(groups > 1);
        let plans = |engine: &BitGen| -> Vec<Option<usize>> {
            (0..groups).map(|g| engine.batch_plan(g).map(|p| std::ptr::from_ref(p) as usize)).collect()
        };
        assert_eq!(plans(&engine), vec![None; groups], "compiling builds no plan");
        // Four workers released together race for every group's cell: each
        // cell is built once and every worker is handed that one plan.
        let gate = std::sync::Barrier::new(4);
        let seen: Vec<Vec<Option<usize>>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        gate.wait();
                        (0..groups).map(|g| Some(std::ptr::from_ref(engine.batch(g)) as usize)).collect()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("worker")).collect()
        });
        let built = plans(&engine);
        assert!(built.iter().all(Option::is_some));
        assert!(seen.iter().all(|worker| *worker == built), "one plan per cell");
        // Every session, re-scan and fresh `find_many` runs those plans:
        // same bits, and each CTA reports its plan's own transform record
        // (wall-clock nanos included, so a second build would show).
        let inputs = streams();
        let slices: Vec<&[u8]> = inputs[..4].iter().map(Vec::as_slice).collect();
        let mut first = engine.session();
        let reference = first.scan_many(&slices).unwrap();
        for report in &reference {
            for (g, cta) in report.metrics.ctas.iter().enumerate() {
                assert_eq!(&cta.passes, engine.batch(g).passes());
            }
        }
        let mut second = engine.session();
        reports_agree(&reference, &second.scan_many(&slices).unwrap());
        reports_agree(&reference, &first.scan_many(&slices).unwrap());
        reports_agree(&reference, &engine.find_many(&slices).unwrap());
        assert_eq!(plans(&engine), built, "plans are built once per engine");
    }

    #[test]
    fn the_served_path_never_builds_a_batch_side() {
        // Everything `bitgen-serve` calls — compile, swap staging, a
        // compile at a later generation, streamer, resume, push — leaves
        // every cell empty: no transformed program, no kernel.
        let idle = |e: &BitGen| (0..e.group_count()).all(|g| e.batch_plan(g).is_none());
        let generations: [&[&str]; 3] = [&["a(bc)*d", "cat", "[0-9]+x"], &["dog", "c+d"], &["x[ab]{1,4}y"]];
        let config = EngineConfig::default().with_cta_count(3);
        let engine = BitGen::compile_with(generations[0], config.clone()).unwrap();
        let staged = engine.prepare_swap(generations[1]).unwrap();
        let replayed = BitGen::compile_at(generations[2], config, 2).unwrap();
        assert_eq!(replayed.generation(), 2);
        let input = &streams()[8];
        let mut scanner = engine.streamer().unwrap();
        for (i, chunk) in input.chunks(input.len() / 100).take(100).enumerate() {
            scanner.push(chunk).unwrap();
            if i % 10 == 9 {
                scanner = engine.resume(&scanner.into_checkpoint()).unwrap();
            }
        }
        scanner.commit_swap(&staged).unwrap();
        scanner.push(b"dog ccd").unwrap();
        assert!(idle(&engine) && idle(staged.engine()) && idle(&replayed));
        // Nor does any scan of a Sequential, Base or DTM- engine: it walks
        // what a push walks.
        let inputs = streams();
        let slices: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
        for scheme in [Scheme::Sequential, Scheme::Base, Scheme::DtmStatic] {
            let config = EngineConfig::default().with_cta_count(3).with_scheme(scheme);
            let walking = BitGen::compile_with(generations[0], config).unwrap();
            walking.find(input).unwrap();
            walking.find_many(&slices).unwrap();
            walking.session().scan_many(&slices).unwrap();
            assert!(idle(&walking), "{scheme}");
        }
    }

    #[test]
    fn prepared_scans_populate_pass_metrics() {
        // Every CTA's `passes` is its plan's record — the same data the
        // one-shot `bitgen_exec::execute` measures for itself — and the
        // report's total is their sum.
        let engine = BitGen::compile(&["a(bc)*d", "cat"]).unwrap();
        let report = engine.find(b"abcbcd cat").unwrap();
        assert_eq!(report.metrics.ctas.len(), engine.group_count());
        let mut total = bitgen_passes::PassMetrics::default();
        for (g, m) in report.metrics.ctas.iter().enumerate() {
            assert_eq!(&m.passes, engine.batch(g).passes());
            assert!(m.passes.total_visits() > 0, "the default scheme transforms");
            total.absorb(&m.passes);
        }
        assert_eq!(report.metrics.passes, total);
    }

    #[test]
    fn a_degraded_slot_replays_the_untransformed_lowering() {
        use bitgen_gpu::FaultKind;
        use bitgen_ir::try_interpret;
        let pats = ["a[bc]*d", "cat", "[0-9]*x"];
        let asts: Vec<_> = pats.iter().map(|p| bitgen_regex::parse(p).unwrap()).collect();
        let inputs: [&[u8]; 2] = [b"abcbcd cat 42x", b"ad cat x abbd 7x"];
        // A walked slot (Base, DTM-) panics in its walk, an emulated one
        // (ZBS, DTM with a loop or an `Add` in group 0) in the emulator, and
        // each replays the same lowering.
        let schemes = [Scheme::Zbs, Scheme::Dtm, Scheme::DtmStatic, Scheme::Base];
        let arms = schemes.map(|s| [(s, false), (s, true)]);
        for (scheme, match_star) in arms.into_iter().flatten() {
            let config = EngineConfig::default()
                .with_scheme(scheme)
                .with_recovery(RecoveryPolicy::Degrade)
                .with_match_star(match_star)
                .with_combine_outputs(false)
                .with_cta_count(2);
            let engine = BitGen::compile_with(&pats, config).unwrap();
            let mut session = engine.session();
            session.inject_fault(1, 0, FaultPlan { kind: FaultKind::Panic, trigger: 1, seed: 0 });
            let reports = session.scan_many(&inputs).unwrap();
            assert!(!reports[0].degraded() && reports[1].degraded());
            for (report, input) in reports.iter().zip(inputs) {
                assert_eq!(report.matches.positions(), bitgen_regex::multi_match_ends(&asts, input));
            }
            // The panicked slot's streams are the reference interpretation
            // of the group's one lowering — the program it streams and its
            // batch side is built from — not of the program the passes made.
            let lowering = engine.stream_programs[0].program();
            assert_eq!(lowering.while_count() == 0, match_star);
            let walks = engine.stream_prices[0].exact;
            assert_eq!(walks, scheme <= Scheme::DtmStatic, "{scheme}");
            if walks {
                assert!(engine.batch_plan(0).is_none(), "a walked slot runs its lowering");
            } else {
                let rebuilt = bitgen_exec::BatchPlan::build(lowering, &engine.exec_config());
                assert_eq!(engine.batch(0).program(), rebuilt.program());
                let transforms = scheme.uses_rebalancing() || scheme.uses_zbs();
                assert_eq!(lowering != engine.batch(0).program(), transforms, "{scheme}");
            }
            let replay =
                try_interpret(lowering, &Basis::transpose(inputs[1]), &RunControl::unlimited())
                    .unwrap();
            let per_pattern = reports[1].per_pattern.as_ref().expect("per-pattern streams");
            for (out, &pattern) in replay.outputs.iter().zip(&engine.groups[0]) {
                assert_eq!(per_pattern[pattern], out.resized(inputs[1].len()));
            }
        }
    }

    #[test]
    fn degrade_replay_is_typed_and_runs_under_the_scans_control() {
        use bitgen_gpu::FaultKind;
        let config = EngineConfig::default().with_recovery(RecoveryPolicy::Degrade);
        let engine = BitGen::compile_with(&["a(bc)*d"], config).unwrap();
        let mut session = engine.session();
        let input: &[u8] = b"abcbcd ad";
        // A failed slot is replayed on the reference interpreter and
        // flagged degraded.
        session.inject_fault(0, 0, FaultPlan { kind: FaultKind::Panic, trigger: 1, seed: 0 });
        let replayed = session.scan(input).unwrap();
        assert!(replayed.degraded());
        assert_eq!(replayed.matches, engine.find(input).unwrap().matches);
        // The replay polls the scan's cancel token: it used to run to
        // completion on a door that could only panic.
        let token = CancelToken::new();
        token.cancel();
        let stopped = RunControl::unlimited().with_cancel(token);
        let prepared = &engine.stream_programs[0];
        let mut carry = CarryState::for_layout(prepared.carry_layout());
        assert_eq!(
            replay(prepared, &Basis::transpose(input), &stopped, &mut carry).err(),
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
