//! Program execution on the simulated GPU: the interleaved (fused) path
//! with dependency-aware windows, and the sequential path used by the
//! strawman schemes and the overlap-overflow fallback.

use crate::blit::blit_or;
use crate::metrics::ExecMetrics;
use crate::prepared::{BatchPlan, ClassStreams, FusedPlan, StreamTables};
use crate::scheme::Scheme;
use crate::segment::Segment;
use crate::seq::{Accounting, Slots};
use bitgen_bitstream::{Basis, BitStream};
use bitgen_gpu::{Cta, CtaCounters, CtaFiles, FaultPlan, KernelFacts, RaceError, WindowInputs};
use bitgen_ir::{
    try_interpret, try_interpret_chunk, walk, ById, CarryState, CarryWalk, DefUse, Frontiers,
    InterpError, Interrupt, Program, RunControl, Stmt, StreamEnv, StreamId,
};
use bitgen_kernel::WORD_BITS;
use bitgen_passes::{
    insert_zero_skips_with, rebalance_with, Hull, Overflow, OverlapInfo, PassMetrics, Window,
    WindowRunner, WindowTally, ZbsConfig,
};
use std::fmt;
use std::ops::Range;

/// What to do when a window's required overlap exceeds the capacity of
/// interleaved execution (§8.2, "Limits of Overlap Distance").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackPolicy {
    /// Fail with [`ExecError::OverlapOverflow`].
    Error,
    /// Re-run the affected segment sequentially (the paper's proposed
    /// future-work fallback, implemented here).
    Sequential,
}

/// Execution configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Execution scheme (Table 3 row).
    pub scheme: Scheme,
    /// Threads per CTA (the paper uses 512; tests use fewer).
    pub threads: usize,
    /// Maximum shifts per barrier group (§5.3) for schemes with barrier
    /// merging.
    pub merge_size: usize,
    /// Zero-block-skipping guard interval (§6).
    pub interval: usize,
    /// Initial extra overlap (bits) granted to programs with loops before
    /// any retry.
    pub dynamic_allowance: u64,
    /// Register cap per thread (the paper's `-maxrregcount` tuning knob):
    /// the cost model clamps the liveness-based register estimate here.
    pub max_regs: u32,
    /// Overflow handling.
    pub fallback: FallbackPolicy,
    /// Deterministic fault to arm on each fused segment's CTA (testing
    /// hook — proves the runtime checks catch corrupted execution).
    pub fault: Option<FaultPlan>,
    /// Validate the final outputs against the reference interpreter and
    /// fail with [`ExecError::CrossCheckMismatch`] on any difference.
    /// Roughly doubles scan cost; meant for hardening and fault drills.
    pub cross_check: bool,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            scheme: Scheme::Zbs,
            threads: 64,
            merge_size: 8,
            interval: 8,
            dynamic_allowance: 64,
            max_regs: 128,
            fallback: FallbackPolicy::Sequential,
            fault: None,
            cross_check: false,
        }
    }
}

impl ExecConfig {
    /// Convenience: the default configuration for a given scheme.
    pub fn for_scheme(scheme: Scheme) -> ExecConfig {
        ExecConfig { scheme, ..ExecConfig::default() }
    }

    /// Window width in bits.
    pub fn window_bits(&self) -> usize {
        self.threads * WORD_BITS
    }

    /// The windows a fused segment runs on: all but a word of each may be
    /// overlap, and a first one gets [`ExecConfig::dynamic_allowance`].
    pub fn window(&self) -> Window {
        let bits = self.window_bits() as u64;
        Window { bits, capacity: bits - WORD_BITS as u64, allowance: self.dynamic_allowance }
    }
}

/// Why execution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A window needed more overlap than interleaved execution can
    /// provide and the policy was [`FallbackPolicy::Error`].
    OverlapOverflow {
        /// The overlap the window needed.
        required: Hull,
        /// The maximum total overlap the window size allows.
        capacity: u64,
    },
    /// The generated kernel violated the barrier discipline (a compiler
    /// bug by construction; surfaced for tests).
    Race(RaceError),
    /// The run's cancel token was triggered.
    Cancelled,
    /// The run's deadline passed.
    DeadlineExceeded,
    /// The program read a stream before writing it (malformed program).
    UnwrittenStream {
        /// The stream read while undefined.
        id: StreamId,
    },
    /// A fixpoint loop ran past its trip bound (miscompiled or corrupted
    /// program).
    FixpointDiverged,
    /// The executor's outputs disagree with the reference interpreter —
    /// corrupted execution that every other check missed.
    CrossCheckMismatch {
        /// Index of the first differing output stream.
        output: usize,
    },
    /// A streaming window's carry-out disagrees with the reference
    /// interpreter's replay ([`ExecConfig::cross_check`]): this window's
    /// outputs were right but the state handed to the *next* window is
    /// corrupted, so executing on would poison all later matches.
    CarryDiverged,
    /// The emulator's window-iteration counter disagrees with the
    /// executor's own count of windows launched — counter corruption.
    /// For streaming windows the same variant reports a corrupted carry
    /// slot walk (pre-order slots consumed vs. the program's layout).
    CounterMismatch {
        /// Windows the executor launched.
        expected: u64,
        /// Iterations the emulator's counters claim.
        observed: u64,
    },
    /// A streaming window committed fewer stores than instructions it
    /// issued — a lost store. Without this check a dropped write leaves
    /// a stale value in the destination stream, which is silent
    /// corruption whenever the stream was written by an earlier trip of
    /// the same window.
    StoreElided {
        /// Instructions the window issued.
        issued: u64,
        /// Stores that actually committed.
        stored: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OverlapOverflow { required, capacity } => write!(
                f,
                "required overlap {}+{} bits exceeds window capacity {capacity}",
                required.left, required.right
            ),
            ExecError::Race(e) => write!(f, "{e}"),
            ExecError::Cancelled => write!(f, "execution cancelled"),
            ExecError::DeadlineExceeded => write!(f, "execution deadline exceeded"),
            ExecError::UnwrittenStream { id } => {
                write!(f, "sequential read of unwritten stream {id}")
            }
            ExecError::FixpointDiverged => write!(f, "while loop exceeded its fixpoint bound"),
            ExecError::CrossCheckMismatch { output } => {
                write!(f, "output {output} disagrees with the reference interpreter")
            }
            ExecError::CarryDiverged => {
                write!(f, "streaming carry-out diverged from the reference interpreter")
            }
            ExecError::CounterMismatch { expected, observed } => write!(
                f,
                "window counter corrupted: launched {expected} windows, counters claim {observed}"
            ),
            ExecError::StoreElided { issued, stored } => write!(
                f,
                "streaming window issued {issued} instructions but committed {stored} stores"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<Interrupt> for ExecError {
    fn from(i: Interrupt) -> ExecError {
        match i {
            Interrupt::Cancelled => ExecError::Cancelled,
            Interrupt::DeadlineExceeded => ExecError::DeadlineExceeded,
        }
    }
}

impl From<Overflow> for ExecError {
    fn from(Overflow { required, capacity }: Overflow) -> ExecError {
        ExecError::OverlapOverflow { required, capacity }
    }
}

impl From<InterpError> for ExecError {
    fn from(e: InterpError) -> ExecError {
        match e {
            InterpError::Cancelled => ExecError::Cancelled,
            InterpError::DeadlineExceeded => ExecError::DeadlineExceeded,
            InterpError::UnwrittenStream { id } => ExecError::UnwrittenStream { id },
            InterpError::FixpointDiverged => ExecError::FixpointDiverged,
        }
    }
}

/// Reusable executor scratch: the buffers an execution computes in.
///
/// A batch call ([`execute_prepared_with`] without a carry) keeps the
/// streams that cross segments in an environment keyed by stream id,
/// draws window output buffers from a pool and returns every intermediate
/// to it afterwards. A streaming window computes in the few slot buffers
/// its program's stream plan assigns (DESIGN.md §10) and leaves them,
/// outputs included, in place for the next window. Either way a caller
/// that runs many same-sized inputs through one scratch reaches a steady
/// state where no per-call heap growth occurs, and a fresh scratch behaves
/// exactly like the scratch-free entry points — the scratch never changes
/// outputs or metrics, only where the buffers come from.
#[derive(Debug, Clone, Default)]
pub struct ExecScratch {
    env: ById,
    pool: Vec<BitStream>,
    /// Streaming windows: one buffer per slot of the widest plan run so
    /// far, plus the buffer the next instruction computes into.
    slots: Vec<BitStream>,
    spare: BitStream,
    /// Streaming windows: one bit per stream the window has written.
    written: Vec<u64>,
    /// Streaming windows: private copies of class streams a fault drill
    /// corrupted (see [`Slots`]).
    private: Vec<(StreamId, BitStream)>,
    /// Fused segments: the CTA's files, one set for every kernel.
    cta: CtaFiles,
    /// Streaming windows: the last one's loop checks, while recording.
    pub frontiers: Frontiers,
}

impl ExecScratch {
    /// An empty scratch with no buffers.
    pub fn new() -> ExecScratch {
        ExecScratch::default()
    }

    /// Every stream buffer the scratch holds on to between calls.
    fn buffers(&self) -> impl Iterator<Item = &BitStream> {
        self.pool.iter().chain(&self.slots).chain([&self.spare])
    }

    /// Total words of capacity currently held by recycled buffers.
    /// Exposed so reuse tests can assert capacity stability.
    pub fn pooled_words(&self) -> usize {
        self.buffers().map(BitStream::capacity_words).sum()
    }

    /// Number of recycled buffers currently holding capacity.
    pub fn pooled_streams(&self) -> usize {
        self.buffers().filter(|s| s.capacity_words() > 0).count()
    }

    /// Replaces the pool with this call's environment streams, bounding
    /// the pool at one call's working-set size so repeated scans cannot
    /// grow it without limit.
    fn recycle(&mut self) {
        self.pool.clear();
        self.pool.extend(self.env.drain());
    }
}

/// Result of executing a program.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// One match-end stream per program output.
    pub outputs: Vec<BitStream>,
    /// Everything Tables 4–6 need.
    pub metrics: ExecMetrics,
    /// Whether an armed [`ExecConfig::fault`] actually corrupted an event
    /// during this run (always `false` without a fault).
    pub fault_fired: bool,
}

impl ExecOutcome {
    /// Union of all output streams.
    pub fn union(&self) -> BitStream {
        let len = self.outputs.first().map_or(0, BitStream::len);
        let mut acc = BitStream::zeros(len);
        self.outputs.iter().for_each(|s| acc.or_assign(s));
        acc
    }
}

/// Executes `program` over the transposed input under `config`.
///
/// Applies the scheme's transforms (rebalancing, zero-block skipping),
/// cuts the program into segments, and runs each segment blockwise —
/// interleaved with dependency-aware windows for fused segments,
/// instruction-at-a-time for sequential ones.
///
/// # Errors
///
/// [`ExecError::OverlapOverflow`] under [`FallbackPolicy::Error`] when a
/// marker chain outruns the window; [`ExecError::Race`] if a generated
/// kernel races (a bug, caught by the emulator).
///
/// # Examples
///
/// ```
/// use bitgen_regex::parse;
/// use bitgen_ir::lower;
/// use bitgen_bitstream::Basis;
/// use bitgen_exec::{execute, ExecConfig, Scheme};
///
/// let prog = lower(&parse("a(bc)*d").unwrap());
/// let basis = Basis::transpose(b"xxabcbcd");
/// let out = execute(&prog, &basis, &ExecConfig::for_scheme(Scheme::Zbs))?;
/// assert_eq!(out.outputs[0].positions(), vec![7]);
/// # Ok::<(), bitgen_exec::ExecError>(())
/// ```
pub fn execute(program: &Program, basis: &Basis, config: &ExecConfig) -> Result<ExecOutcome, ExecError> {
    let ctl = RunControl::unlimited();
    BatchPlan::build(program, config).execute(basis, config, &mut ExecScratch::new(), &ctl)
}

/// Applies the scheme's compile-time transforms (shift rebalancing,
/// zero-block skipping) to `program` in place, returning what they did
/// and what they cost.
///
/// [`BatchPlan::build`] is its caller: [`execute`] builds a plan per
/// call, an engine that scans many inputs keeps one. The def/use analysis
/// is computed once and threaded through both passes rather than
/// recomputed per pass.
pub fn apply_transforms(program: &mut Program, config: &ExecConfig) -> PassMetrics {
    let mut metrics = PassMetrics::default();
    let wants_rebalance = config.scheme.uses_rebalancing();
    let wants_zbs = config.scheme.uses_zbs();
    if wants_rebalance || wants_zbs {
        let mut du = DefUse::of(program);
        if wants_rebalance {
            let start = std::time::Instant::now();
            metrics.rebalance = rebalance_with(program, &mut du);
            metrics.rebalance_nanos = start.elapsed().as_nanos() as u64;
        }
        if wants_zbs {
            let start = std::time::Instant::now();
            metrics.zbs = insert_zero_skips_with(
                program,
                ZbsConfig { interval: config.interval, min_range: 2 },
                &du,
            );
            metrics.zbs_nanos = start.elapsed().as_nanos() as u64;
        }
    }
    debug_assert_eq!(
        bitgen_ir::verify(program).map_err(|e| e.to_string()),
        Ok(()),
        "transform passes must preserve program well-formedness"
    );
    metrics
}

/// Executes a program whose transforms were already applied by
/// [`apply_transforms`] (or that should run untransformed), drawing its
/// intermediate buffers from a caller-owned [`ExecScratch`]. The scratch
/// only changes where buffers are allocated, never outputs or metrics.
///
/// With `carry: Some(..)` the call executes one *streaming window*: the
/// basis is a single chunk of a longer input, shift/add carries are read
/// from and accumulated into the [`CarryState`]
/// (built by [`CarryState::for_program`] and
/// [rotated](CarryState::rotate) between windows by the caller), and the
/// whole program runs on the sequential instruction-at-a-time path —
/// fused windowed execution assumes whole-stream inputs and is skipped.
/// Streaming callers must pass *untransformed* programs (shift
/// rebalancing introduces non-causal retreats that cannot stream).
/// This is the one-shot door, never interrupted: the program's stream
/// tables and class streams (without a carry, its [`BatchPlan`]) are
/// derived for this call only, and the outputs are copied out. Callers
/// that stream many windows keep a [`crate::PreparedProgram`], callers
/// that scan many inputs the plan; both take a [`RunControl`].
///
/// # Errors
///
/// Same as [`BatchPlan::execute`].
pub fn execute_prepared_with(
    prog: &Program,
    basis: &Basis,
    config: &ExecConfig,
    scratch: &mut ExecScratch,
    carry: Option<&mut CarryState>,
) -> Result<ExecOutcome, ExecError> {
    let ctl = RunControl::unlimited();
    let Some(carry) = carry else {
        return BatchPlan::new(prog.clone(), config).execute(basis, config, scratch, &ctl);
    };
    let (tables, mut classes) = (StreamTables::of(prog), ClassStreams::new());
    tables.classes.evaluate(basis, &mut classes);
    let stream_len = Program::stream_len(basis.len());
    let mut outputs = Vec::with_capacity(prog.outputs().len());
    let mut copy = |value: Option<&BitStream>| {
        outputs.push(value.cloned().unwrap_or_else(|| BitStream::zeros(stream_len)));
    };
    let (metrics, fault_fired) = execute_streaming_window(
        prog, &tables, &classes, basis, config, scratch, &ctl, carry, &mut copy,
    )?;
    Ok(ExecOutcome { outputs, metrics, fault_fired })
}

impl BatchPlan {
    /// Executes the plan's program over the transposed input, neither
    /// transforming, segmenting, analysing nor compiling.
    /// `ctl` is polled once per window (fused segments) and once per
    /// statement (sequential segments) — word-chunk granularity either way.
    ///
    /// This is also where the runtime hardening checks live: the emulator's
    /// window-iteration counter is verified against the executor's own launch
    /// count on every run, and with [`ExecConfig::cross_check`] the final
    /// outputs are compared against the reference interpreter.
    ///
    /// # Errors
    ///
    /// Everything [`execute`] can return, plus [`ExecError::Cancelled`] /
    /// [`ExecError::DeadlineExceeded`] from `ctl`, and the corruption
    /// detections [`ExecError::CounterMismatch`] /
    /// [`ExecError::CrossCheckMismatch`].
    ///
    /// # Panics
    ///
    /// Panics if `config` asks for another scheme or effective merge size
    /// than the plan was built for.
    pub fn execute(
        &self,
        basis: &Basis,
        config: &ExecConfig,
        scratch: &mut ExecScratch,
        ctl: &RunControl,
    ) -> Result<ExecOutcome, ExecError> {
        let key = BatchPlan::key_of(config);
        assert_eq!(self.key, key, "plan built for another scheme or merge size");
        let prog = self.program();
        let stream_len = Program::stream_len(basis.len());
        let mut metrics = ExecMetrics {
            passes: *self.passes(),
            segments: self.segments.len(),
            intermediates: self.intermediates,
            threads: config.threads,
            ..ExecMetrics::default()
        };
        scratch.env.reset(prog.num_streams() as usize);
        let fault_fired = {
            let mut cx =
                ExecCtx { config, metrics: &mut metrics, stream_len, ctl, fault_fired: false };
            for (seg, fused) in &self.segments {
                let stmts = &prog.stmts()[seg.stmts.clone()];
                let fused = fused.as_ref().map(|f| run_fused(seg, f, basis, scratch, &mut cx));
                match fused {
                    Some(Ok(())) => {}
                    Some(Err(ExecError::OverlapOverflow { .. }))
                        if config.fallback == FallbackPolicy::Sequential =>
                    {
                        cx.metrics.fallbacks += 1;
                        run_sequential(stmts, basis, &mut scratch.env, &mut cx)?;
                    }
                    Some(Err(e)) => return Err(e),
                    None => run_sequential(stmts, basis, &mut scratch.env, &mut cx)?,
                }
                let resident: usize = scratch.env.resident().map(|s| s.len().div_ceil(8)).sum();
                cx.metrics.peak_materialized_bytes =
                    cx.metrics.peak_materialized_bytes.max(resident);
            }
            cx.fault_fired
        };
        // The executor's own count of the windows it ran, against the
        // emulator's.
        if metrics.counters.window_iterations != metrics.window_iterations {
            return Err(ExecError::CounterMismatch {
                expected: metrics.window_iterations,
                observed: metrics.counters.window_iterations,
            });
        }
        let zeros = || BitStream::zeros(stream_len);
        let output = |&id: &StreamId| scratch.env.get(id).cloned().unwrap_or_else(zeros);
        let outputs: Vec<BitStream> = prog.outputs().iter().map(output).collect();
        scratch.recycle();
        if config.cross_check {
            let reference = try_interpret(prog, basis, ctl)?;
            for (i, (got, want)) in outputs.iter().zip(&reference.outputs).enumerate() {
                if got != want {
                    return Err(ExecError::CrossCheckMismatch { output: i });
                }
            }
        }
        Ok(ExecOutcome { outputs, metrics, fault_fired })
    }
}

/// One streaming window of `prog` over a chunk basis: the whole program
/// runs sequentially (instruction at a time) with cross-chunk carries —
/// the body behind [`crate::PreparedProgram::execute_window_into`] and
/// the carry-parameterised branch of [`execute_prepared_with`]. `tables`
/// must have been built from `prog`, and `classes` are `tables`' class
/// table evaluated over `basis`.
///
/// Every value a later statement reads from memory lives where the plan
/// puts it — a slot buffer in `scratch`, or the class streams, which the
/// window only reads (DESIGN.md §10, "Stream plan"); what the window
/// charges the modelled clock is a function of the instructions and the
/// window length alone and does not see that. Once every check has
/// passed, `output` is shown each program output in order, still in its
/// place (`None`: nothing wrote it, all zeros); the slots stay warm for
/// the next window.
///
/// Hardening mirrors the batch path: an armed [`ExecConfig::fault`]
/// corrupts the window deterministically (see [`crate::seq::StreamFault`]), the
/// carry slot walk is verified against the program's layout on every
/// run ([`ExecError::CounterMismatch`]), and with
/// [`ExecConfig::cross_check`] both the outputs *and the carry-out* are
/// replayed on the reference interpreter
/// ([`ExecError::CrossCheckMismatch`] / [`ExecError::CarryDiverged`]).
///
/// On error the carry state may hold a partially-accumulated window;
/// callers that want to survive must drop it with
/// [`CarryState::discard_outgoing`] (that is exactly what `bitgen`'s
/// `StreamScanner` transaction does).
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_streaming_window(
    prog: &Program,
    tables: &StreamTables,
    classes: &ClassStreams,
    basis: &Basis,
    config: &ExecConfig,
    scratch: &mut ExecScratch,
    ctl: &RunControl,
    carry: &mut CarryState,
    output: &mut dyn FnMut(Option<&BitStream>),
) -> Result<(ExecMetrics, bool), ExecError> {
    let plan = tables.plan.as_ref().map_err(|&e| ExecError::from(e))?;
    let stream_len = Program::stream_len(basis.len());
    let mut metrics = ExecMetrics { segments: 1, threads: config.threads, ..ExecMetrics::default() };
    assert!(
        classes.streams().len() == tables.classes.len()
            && classes.streams().iter().all(|s| s.len() == stream_len),
        "class streams were not evaluated over this window by this program's class table"
    );
    if scratch.slots.len() < plan.slot_count() {
        scratch.slots.resize_with(plan.slot_count(), BitStream::default);
    }
    fit_slots(scratch, stream_len.div_ceil(64));
    scratch.written.clear();
    scratch.written.resize(plan.stream_count().div_ceil(64), 0);
    scratch.private.clear();
    let reference = config.cross_check.then(|| carry.fork());
    let expected_slots = carry.slot_count() as u64;
    let mut env = Slots {
        plan,
        bufs: &mut scratch.slots,
        spare: &mut scratch.spare,
        written: &mut scratch.written,
        table: &tables.classes,
        classes: classes.streams(),
        private: &mut scratch.private,
        linked: None,
    };
    let mut seq = Accounting::new(&mut metrics.counters, stream_len, config, config.fault);
    seq.frontiers = Some(&mut scratch.frontiers);
    let carries = CarryWalk::new(carry, &tables.layout);
    let walk_end = walk(prog.stmts(), &mut env, &mut seq, basis, ctl, Some(carries))?.carry_slots;
    let Accounting { fault: fault_state, issued, stored, .. } = seq;
    // Always-on lost-store invariant: every issued instruction commits
    // exactly one store; a shortfall means a write was dropped, leaving
    // a stale value behind that no later check can tell from a real one.
    if issued != stored {
        return Err(ExecError::StoreElided { issued, stored });
    }
    // Always-on walk invariant: a clean window consumes exactly the
    // program's slots in pre-order; any other count means the walk (or a
    // corrupted counter) desynchronised from the layout, and the carries
    // that were read/written are untrustworthy.
    let observed = walk_end as u64 + fault_state.as_ref().map_or(0, |f| f.counter_bump);
    if observed != expected_slots {
        return Err(ExecError::CounterMismatch { expected: expected_slots, observed });
    }
    // The sequential model materialises every stream it writes, however
    // few of them the host stored.
    let streams_written: usize = env.written.iter().map(|w| w.count_ones() as usize).sum();
    metrics.peak_materialized_bytes = streams_written * stream_len.div_ceil(8);
    if let Some(mut fork) = reference {
        let want = try_interpret_chunk(prog, basis, ctl, &mut fork)?;
        for (i, (&id, want)) in prog.outputs().iter().zip(&want.outputs).enumerate() {
            if env.get(id).map_or(want.any(), |got| got != want) {
                return Err(ExecError::CrossCheckMismatch { output: i });
            }
        }
        if fork != *carry {
            return Err(ExecError::CarryDiverged);
        }
    }
    for &id in prog.outputs() {
        output(env.get(id));
    }
    fit_slots(scratch, 0);
    Ok((metrics, fault_state.is_some_and(|f| f.fired)))
}

/// Sizes every slot buffer in use to the widest window so far, `words` at
/// least: the buffers trade places as windows compute, and where one lands
/// must never make it grow. Runs before a window and after it.
fn fit_slots(scratch: &mut ExecScratch, words: usize) {
    let held = scratch.slots.iter().chain([&scratch.spare]).map(BitStream::capacity_words);
    let words = held.fold(words, usize::max);
    (scratch.slots.iter_mut().chain([&mut scratch.spare]))
        .filter(|buf| (1..words).contains(&buf.capacity_words()))
        .for_each(|buf| *buf = BitStream::zeros(words * 64));
}

/// Mutable state threaded through one execution: the run's metrics, its
/// interruption control, and the hardening tallies.
struct ExecCtx<'a> {
    config: &'a ExecConfig,
    metrics: &'a mut ExecMetrics,
    stream_len: usize,
    ctl: &'a RunControl,
    /// Whether the armed fault (if any) has corrupted an event.
    fault_fired: bool,
}

/// Interleaved execution of one fused segment (§4): [`Window::run`] on the
/// CTA emulator, each stored window's valid region blitted exactly.
fn run_fused(
    seg: &Segment<Range<usize>>,
    (facts, fused): &(KernelFacts, FusedPlan),
    basis: &Basis,
    scratch: &mut ExecScratch,
    cx: &mut ExecCtx<'_>,
) -> Result<(), ExecError> {
    let (config, stream_len) = (cx.config, cx.stream_len);
    fused.charge_shape(cx.metrics, config);
    // Boundary inputs are read where earlier segments left them; output
    // buffers come from the pool and go back on any exit but a commit.
    let ExecScratch { env, pool, cta: files, .. } = scratch;
    let globals = (seg.inputs.iter())
        .map(|&id| env.get(id).ok_or(ExecError::UnwrittenStream { id }))
        .collect::<Result<Vec<&BitStream>, ExecError>>()?;
    let mut outs = pool.split_off(pool.len().saturating_sub(seg.outputs.len()));
    outs.resize_with(seg.outputs.len(), BitStream::default);
    outs.iter_mut().for_each(|s| s.reset_zeros(stream_len));
    let kernel = &fused.compiled.kernel;
    let mut cta = Cta::with_files(kernel, facts, config.threads, std::mem::take(files));
    if let Some(plan) = config.fault {
        cta.arm_fault(plan);
    }
    let inputs = WindowInputs { basis: basis.streams(), globals: &globals };
    let (info, counters) = (&fused.info, &mut cx.metrics.counters);
    let mut emulated = Emulated { cta, inputs, info, outs, ctl: cx.ctl, counters };
    let mut tally = WindowTally::default();
    let result = config.window().run(info, stream_len as u64, &mut tally, &mut emulated);
    // On every exit: a fault fired during an abandoned attempt still
    // counts as injected.
    let Emulated { cta, outs, .. } = emulated;
    cx.fault_fired |= cta.fault_fired();
    *files = cta.into_files();
    cx.metrics.add_windows(&tally);
    if let Err(e) = result {
        pool.extend(outs);
        return Err(e);
    }
    for (id, s) in seg.outputs.iter().zip(outs) {
        env.commit(*id, s);
    }
    Ok(())
}

/// [`run_fused`]'s windows: each runs on the CTA emulator, and a stored
/// one's valid region is ORed into the segment's outputs.
struct Emulated<'a> {
    cta: Cta<'a>,
    inputs: WindowInputs<'a>,
    info: &'a OverlapInfo,
    outs: Vec<BitStream>,
    ctl: &'a RunControl,
    counters: &'a mut CtaCounters,
}

impl WindowRunner for Emulated<'_> {
    type Error = ExecError;

    fn run(&mut self, start: i64, _: u64, _: u64) -> Result<(u64, Hull), ExecError> {
        self.ctl.check()?;
        self.cta.run_window(self.inputs, start, self.counters).map_err(ExecError::Race)?;
        Ok((1, self.info.required(self.cta.loop_trips())))
    }

    fn store(&mut self, start: i64, from: u64, to: u64) {
        let offset = (from as i64 - start) as usize;
        for (dst, words) in self.outs.iter_mut().zip(self.cta.output_words()) {
            blit_or(dst, from as usize, words, offset, (to - from) as usize);
        }
    }
}

/// Sequential blockwise execution (Fig. 1a / Fig. 5) of one segment: the
/// interpreter's machine in the by-id environment the fused segments
/// around it read and write, charged by [`Accounting`].
fn run_sequential(
    stmts: &[Stmt],
    basis: &Basis,
    env: &mut ById,
    cx: &mut ExecCtx<'_>,
) -> Result<(), ExecError> {
    let mut seq = Accounting::new(&mut cx.metrics.counters, cx.stream_len, cx.config, None);
    walk(stmts, env, &mut seq, basis, cx.ctl, None)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitgen_gpu::FaultKind;
    use bitgen_ir::{interpret, lower, lower_group, ByteSet, Op, Stmt};
    use bitgen_regex::parse;

    /// [`execute_prepared_with`] on a fresh scratch, no carry.
    fn execute_prepared(
        prog: &Program,
        basis: &Basis,
        config: &ExecConfig,
    ) -> Result<ExecOutcome, ExecError> {
        execute_prepared_with(prog, basis, config, &mut ExecScratch::new(), None)
    }

    fn check_all_schemes(pattern: &str, input: &[u8]) {
        let prog = lower(&parse(pattern).unwrap());
        let basis = Basis::transpose(input);
        let expect = interpret(&prog, &basis).outputs[0].positions();
        for scheme in Scheme::ALL {
            for threads in [2, 8] {
                let config = ExecConfig { scheme, threads, ..ExecConfig::default() };
                let out = execute(&prog, &basis, &config)
                    .unwrap_or_else(|e| panic!("{scheme} failed: {e}"));
                assert_eq!(
                    out.outputs[0].positions(),
                    expect,
                    "pattern {pattern:?} scheme {scheme} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn all_schemes_match_reference() {
        for (pat, input) in [
            ("cat", &b"bobcat and more cats"[..]),
            ("(abc)|d", b"abcdabce"),
            ("a(bc)*d", b"ad abcd abcbcbcd xbcd"),
            ("a+b", b"aab aaab b ab"),
            ("[a-f]{2,4}", b"abcdefgh xx ab"),
            ("(ab|ba)+c", b"ababc bac xc"),
        ] {
            check_all_schemes(pat, input);
        }
    }

    #[test]
    fn multi_block_inputs() {
        // Inputs spanning many windows with matches crossing window
        // boundaries exercise the overlap machinery.
        let mut input = Vec::new();
        for i in 0..40 {
            input.extend_from_slice(if i % 3 == 0 { b"abcbcd" } else { b"zzzzzz" });
        }
        check_all_schemes("a(bc)*d", &input);
        check_all_schemes("abcbcd", &input);
    }

    #[test]
    fn match_spanning_window_boundary() {
        // threads=2 → 64-bit windows; plant a literal right across the
        // boundary.
        let mut input = vec![b'x'; 6];
        input.extend_from_slice(b"abcdefgh");
        input.extend(vec![b'x'; 20]);
        let prog = lower(&parse("abcdefgh").unwrap());
        let basis = Basis::transpose(&input);
        for scheme in Scheme::ALL {
            let config = ExecConfig { scheme, threads: 2, ..ExecConfig::default() };
            let out = execute(&prog, &basis, &config).unwrap();
            assert_eq!(out.outputs[0].positions(), vec![13], "scheme {scheme}");
        }
    }

    #[test]
    fn long_chain_triggers_retry_or_fallback() {
        // A run of (bc) long enough that the marker chain outruns the
        // default dynamic allowance within a tiny window.
        let mut input = b"a".to_vec();
        for _ in 0..40 {
            input.extend_from_slice(b"bc");
        }
        input.push(b'd');
        let prog = lower(&parse("a(bc)*d").unwrap());
        let basis = Basis::transpose(&input);
        let expect = interpret(&prog, &basis).outputs[0].positions();
        let config = ExecConfig {
            scheme: Scheme::Dtm,
            threads: 2,
            dynamic_allowance: 0,
            ..ExecConfig::default()
        };
        let out = execute(&prog, &basis, &config).unwrap();
        assert_eq!(out.outputs[0].positions(), expect);
        assert!(
            out.metrics.retries > 0 || out.metrics.fallbacks > 0,
            "expected dynamic overlap handling: {:?}",
            out.metrics
        );
    }

    #[test]
    fn overflow_error_policy_reports() {
        // Chain longer than the whole window with fallback disabled.
        let mut input = b"a".to_vec();
        for _ in 0..200 {
            input.extend_from_slice(b"bc");
        }
        input.push(b'd');
        let prog = lower(&parse("a(bc)*d").unwrap());
        let basis = Basis::transpose(&input);
        let config = ExecConfig {
            scheme: Scheme::Dtm,
            threads: 2,
            fallback: FallbackPolicy::Error,
            ..ExecConfig::default()
        };
        let err = execute(&prog, &basis, &config).unwrap_err();
        assert!(matches!(err, ExecError::OverlapOverflow { .. }), "got {err}");
    }

    #[test]
    fn sequential_fallback_rescues_overflow() {
        let mut input = b"a".to_vec();
        for _ in 0..200 {
            input.extend_from_slice(b"bc");
        }
        input.push(b'd');
        let prog = lower(&parse("a(bc)*d").unwrap());
        let basis = Basis::transpose(&input);
        let expect = interpret(&prog, &basis).outputs[0].positions();
        let config = ExecConfig { scheme: Scheme::Zbs, threads: 2, ..ExecConfig::default() };
        let out = execute(&prog, &basis, &config).unwrap();
        assert_eq!(out.outputs[0].positions(), expect);
        assert!(out.metrics.fallbacks > 0);
    }

    #[test]
    fn a_fallback_runs_alike_through_both_doors_and_keeps_the_scratch_stable() {
        // The overlap-overflow fallback walks the plan's statement range
        // of the program; the abandoned window buffers go back to the pool.
        let mut input = b"a".to_vec();
        for _ in 0..200 {
            input.extend_from_slice(b"bc");
        }
        input.push(b'd');
        let basis = Basis::transpose(&input);
        let config = ExecConfig { scheme: Scheme::Zbs, threads: 2, ..ExecConfig::default() };
        let mut prog = lower(&parse("a(bc)*d").unwrap());
        apply_transforms(&mut prog, &config);
        let one_shot = execute_prepared(&prog, &basis, &config).unwrap();
        assert!(one_shot.metrics.fallbacks > 0);
        let plan = BatchPlan::new(prog.clone(), &config);
        let mut scratch = ExecScratch::new();
        let (mut warm, ctl) = (None, RunControl::unlimited());
        for _ in 0..3 {
            let out = plan.execute(&basis, &config, &mut scratch, &ctl).unwrap();
            assert_eq!(out.outputs, one_shot.outputs);
            assert_eq!(out.metrics, one_shot.metrics);
            let held = (scratch.pooled_words(), scratch.pooled_streams());
            assert_eq!(*warm.get_or_insert(held), held);
        }
    }

    #[test]
    #[should_panic(expected = "another scheme or merge size")]
    fn a_plan_refuses_a_config_it_was_not_built_for() {
        let prog = lower(&parse("ab").unwrap());
        let plan = BatchPlan::new(prog, &ExecConfig::for_scheme(Scheme::Sr));
        let other = ExecConfig { merge_size: 2, ..ExecConfig::for_scheme(Scheme::Sr) };
        let _ = plan.execute(
            &Basis::transpose(b"ab"),
            &other,
            &mut ExecScratch::new(),
            &RunControl::unlimited(),
        );
    }

    #[test]
    fn fused_execution_touches_less_dram() {
        // The Table 4 effect: DTM does dramatically less global traffic
        // than Base, which does less than Sequential.
        let input: Vec<u8> = b"abcd".iter().cycle().take(512).copied().collect();
        let prog = lower(&parse("abcd").unwrap());
        let basis = Basis::transpose(&input);
        let traffic = |scheme: Scheme| {
            let config = ExecConfig { scheme, threads: 4, ..ExecConfig::default() };
            let m = execute(&prog, &basis, &config).unwrap().metrics;
            m.counters.global_words()
        };
        let seq = traffic(Scheme::Sequential);
        let base = traffic(Scheme::Base);
        let dtm = traffic(Scheme::Dtm);
        assert!(seq > base, "seq {seq} vs base {base}");
        assert!(base > dtm, "base {base} vs dtm {dtm}");
    }

    #[test]
    fn zbs_skips_work_on_sparse_input() {
        let input = vec![b'z'; 2048];
        // A long literal: the zero path dwarfs the guard/pre-zero
        // overhead, as in the paper's sparse workloads.
        let prog = lower(&parse("abcdefghijklmnop").unwrap());
        let basis = Basis::transpose(&input);
        let zbs = execute(&prog, &basis, &ExecConfig { scheme: Scheme::Zbs, threads: 4, ..ExecConfig::default() }).unwrap();
        let sr = execute(&prog, &basis, &ExecConfig { scheme: Scheme::Sr, threads: 4, ..ExecConfig::default() }).unwrap();
        assert!(zbs.metrics.counters.skipped_ops > 0);
        assert!(
            zbs.metrics.counters.alu_ops < sr.metrics.counters.alu_ops,
            "zbs {} vs sr {}",
            zbs.metrics.counters.alu_ops,
            sr.metrics.counters.alu_ops
        );
        assert!(!zbs.outputs[0].any());
    }

    #[test]
    fn merging_reduces_barriers() {
        let input: Vec<u8> = b"abcdefgh".iter().cycle().take(1024).copied().collect();
        let prog = lower(&parse("abcdefgh").unwrap());
        let basis = Basis::transpose(&input);
        let barriers = |merge: usize| {
            let config = ExecConfig {
                scheme: Scheme::Sr,
                threads: 4,
                merge_size: merge,
                ..ExecConfig::default()
            };
            execute(&prog, &basis, &config).unwrap().metrics.counters.barriers
        };
        assert!(barriers(8) < barriers(1));
    }

    #[test]
    fn group_programs_execute() {
        let asts = vec![parse("ab").unwrap(), parse("bc").unwrap(), parse("c+d").unwrap()];
        let prog = lower_group(&asts);
        let input = b"abcd bccd xx abcccd";
        let basis = Basis::transpose(input);
        let expect = interpret(&prog, &basis);
        let out = execute(&prog, &basis, &ExecConfig::default()).unwrap();
        for (i, o) in out.outputs.iter().enumerate() {
            assert_eq!(o.positions(), expect.outputs[i].positions(), "output {i}");
        }
        assert_eq!(out.union().positions(), expect.union().positions());
    }

    #[test]
    fn metrics_populated() {
        let input: Vec<u8> = b"abcbcd".iter().cycle().take(600).copied().collect();
        let prog = lower(&parse("a(bc)*d").unwrap());
        let basis = Basis::transpose(&input);
        let out = execute(&prog, &basis, &ExecConfig { scheme: Scheme::Zbs, threads: 4, ..ExecConfig::default() }).unwrap();
        let m = &out.metrics;
        assert_eq!(m.segments, 1);
        assert_eq!(m.intermediates, 0);
        assert!(m.window_iterations > 1);
        assert!(m.static_overlap > 0);
        assert!(m.recompute_frac > 0.0 && m.recompute_frac < 1.0);
        assert!(m.counters.barriers > 0);
        assert!(m.regs_per_thread > 0);
        assert!(m.smem_bytes > 0);
        assert!(m.shift_groups > 0);
    }

    #[test]
    fn scratch_reuse_is_identical_and_capacity_stable() {
        let input: Vec<u8> = b"abcbcd".iter().cycle().take(600).copied().collect();
        let mut prog = lower(&parse("a(bc)*d").unwrap());
        let config = ExecConfig { threads: 4, ..ExecConfig::default() };
        apply_transforms(&mut prog, &config);
        let basis = Basis::transpose(&input);
        let fresh = execute_prepared(&prog, &basis, &config).unwrap();
        let mut scratch = ExecScratch::new();
        // Warm the scratch, record its footprint, then re-scan: outputs
        // and metrics must match the fresh path bit for bit, and the
        // pooled capacity must stop growing.
        let first = execute_prepared_with(&prog, &basis, &config, &mut scratch, None).unwrap();
        let warm_words = scratch.pooled_words();
        let warm_streams = scratch.pooled_streams();
        for _ in 0..3 {
            let again = execute_prepared_with(&prog, &basis, &config, &mut scratch, None).unwrap();
            assert_eq!(again.outputs, fresh.outputs);
            assert_eq!(again.metrics, fresh.metrics);
            assert_eq!(scratch.pooled_words(), warm_words);
            assert_eq!(scratch.pooled_streams(), warm_streams);
        }
        assert_eq!(first.outputs, fresh.outputs);
        assert_eq!(first.metrics, fresh.metrics);
    }

    #[test]
    fn empty_input_is_fine() {
        let prog = lower(&parse("ab").unwrap());
        let basis = Basis::transpose(b"");
        for scheme in Scheme::ALL {
            let out = execute(&prog, &basis, &ExecConfig::for_scheme(scheme)).unwrap();
            assert!(!out.outputs[0].any());
        }
    }

    #[test]
    fn cancellation_stops_both_paths() {
        use bitgen_ir::CancelToken;
        let input: Vec<u8> = b"abcbcd".iter().cycle().take(600).copied().collect();
        let basis = Basis::transpose(&input);
        let token = CancelToken::new();
        token.cancel();
        let ctl = RunControl::unlimited().with_cancel(token);
        for scheme in [Scheme::Zbs, Scheme::Sequential] {
            let prog = lower(&parse("a(bc)*d").unwrap());
            let config = ExecConfig { scheme, threads: 4, ..ExecConfig::default() };
            let err = BatchPlan::build(&prog, &config)
                .execute(&basis, &config, &mut ExecScratch::new(), &ctl)
                .unwrap_err();
            assert_eq!(err, ExecError::Cancelled, "scheme {scheme}");
        }
    }

    #[test]
    fn expired_deadline_stops_execution() {
        use std::time::{Duration, Instant};
        let input: Vec<u8> = b"abcbcd".iter().cycle().take(600).copied().collect();
        let basis = Basis::transpose(&input);
        let prog = lower(&parse("a(bc)*d").unwrap());
        let config = ExecConfig { threads: 4, ..ExecConfig::default() };
        let expired =
            RunControl::unlimited().with_deadline(Instant::now() - Duration::from_secs(1));
        let plan = BatchPlan::build(&prog, &config);
        let err = plan.execute(&basis, &config, &mut ExecScratch::new(), &expired).unwrap_err();
        assert_eq!(err, ExecError::DeadlineExceeded);
        // A lax deadline leaves results untouched.
        let lax = RunControl::unlimited().deadline_in(Duration::from_secs(3600));
        let out = plan.execute(&basis, &config, &mut ExecScratch::new(), &lax).unwrap();
        assert_eq!(out.outputs, execute(&prog, &basis, &config).unwrap().outputs);
    }

    fn stream_in_chunks(
        prog: &Program,
        input: &[u8],
        chunk: usize,
        config: &ExecConfig,
    ) -> Vec<usize> {
        let mut carry = CarryState::for_program(prog);
        let mut scratch = ExecScratch::new();
        let mut ends = Vec::new();
        let mut off = 0usize;
        for c in input.chunks(chunk.max(1)) {
            let basis = Basis::transpose(c);
            let out = execute_prepared_with(prog, &basis, config, &mut scratch, Some(&mut carry))
                .unwrap();
            ends.extend(out.union().positions().into_iter().filter(|&p| p < c.len()).map(|p| off + p));
            carry.rotate();
            off += c.len();
        }
        ends
    }

    #[test]
    fn streaming_windows_match_batch_execution() {
        // The carry-parameterised executor path agrees with whole-stream
        // interpretation under every chunking, unbounded patterns included.
        for (pat, input) in [
            ("a+b", &b"xaaab aab b ab"[..]),
            ("a(bc)*d", b"adxabcd.abcbcbcd"),
            ("a{2,}", b"aaaa a aaa"),
            ("(a|bb)*c", b"abbac bbc c"),
        ] {
            let prog = lower(&parse(pat).unwrap());
            let batch = interpret(&prog, &Basis::transpose(input)).union().positions();
            for chunk in [1usize, 2, 3, 7, 64] {
                // cross_check = true replays every window through the
                // reference chunk interpreter.
                let config = ExecConfig { cross_check: true, ..ExecConfig::default() };
                assert_eq!(
                    stream_in_chunks(&prog, input, chunk, &config),
                    batch,
                    "pattern {pat:?} chunk {chunk}"
                );
            }
        }
    }

    #[test]
    fn streaming_scratch_is_capacity_stable_and_bounded_by_the_plan() {
        // The streaming counterpart of
        // `scratch_reuse_is_identical_and_capacity_stable`: one scratch
        // and one set of class streams serve every group of every push.
        use crate::{ClassStreams, PreparedProgram};
        let groups: Vec<Program> = [
            &["a(bc)*d", "cat"][..],
            &["[0-9]+x", "(a|bb)+c", "x[ab]{1,4}y"],
            &["a{2,}", "c{3,}d"],
        ]
        .iter()
        .map(|g| lower_group(&g.iter().map(|p| parse(p).unwrap()).collect::<Vec<_>>()))
        .collect();
        let prepared = PreparedProgram::new_all(groups);
        let input: Vec<u8> =
            b"abcbcd cat 42x bbc xaby aaa cccd ".iter().cycle().take(6 * 4096).copied().collect();
        let ctl = RunControl::unlimited();
        let config = ExecConfig::default();
        let mut carries: Vec<CarryState> =
            prepared.iter().map(|p| CarryState::for_layout(p.carry_layout())).collect();
        let (mut scratch, mut classes) = (ExecScratch::new(), ClassStreams::new());
        let mut fresh_ends = Vec::new();
        let mut warm = None;
        for (window, piece) in input.chunks(4096).enumerate() {
            let basis = Basis::transpose(piece);
            prepared[0].evaluate_classes(&basis, &mut classes);
            for (p, carry) in prepared.iter().zip(&mut carries) {
                // The one-shot door on a fresh scratch, deriving its own
                // tables and classes, is the reference: reuse never
                // changes outputs or metrics.
                let mut fork = carry.clone();
                let fresh = execute_prepared_with(
                    p.program(),
                    &basis,
                    &config,
                    &mut ExecScratch::new(),
                    Some(&mut fork),
                )
                .unwrap();
                let mut union = BitStream::zeros(piece.len());
                let metrics = p
                    .execute_window_into(
                        &classes,
                        &basis,
                        &config,
                        &mut scratch,
                        &ctl,
                        carry,
                        &mut union,
                    )
                    .unwrap();
                assert_eq!(union, fresh.union().resized(piece.len()));
                assert_eq!(metrics, fresh.metrics);
                assert_eq!(*carry, fork);
                carry.rotate();
                fresh_ends.extend(union.positions());
            }
            let held = (scratch.pooled_words(), classes.capacity_words());
            let words = Program::stream_len(piece.len()).div_ceil(64);
            let slots = prepared.iter().map(PreparedProgram::live_slots).max().unwrap();
            assert!(
                held.0 <= slots * words && held.1 == prepared[0].class_count() * words,
                "window {window}: {held:?} words for {slots} slots and {} classes of {words}",
                prepared[0].class_count()
            );
            assert_eq!(*warm.get_or_insert(held), held, "window {window} grew the scratch");
        }
        assert!(!fresh_ends.is_empty());
        assert!(
            prepared.iter().all(|p| p.live_slots() < p.program().num_streams() as usize),
            "a plan needs fewer buffers than its program has streams"
        );
    }

    #[test]
    fn every_slot_buffer_in_use_holds_the_widest_window_whatever_the_order() {
        // Windows of programs with different slot counts over inputs of
        // different lengths, in many orders through one scratch, as a scan
        // session's worker runs them. Every buffer in use holds exactly the
        // widest window, whichever slot it landed in, so the same pass
        // again grows nothing. Left to grow where they land, buffers that
        // trade places keep whatever their own history made them (here 132
        // words for buffers of 15), and a worker's second scan could grow.
        use crate::{ClassStreams, PreparedProgram};
        let groups: Vec<Program> = [&["a(bc)*d", "cat"][..], &["[0-9]+x", "x[ab]{1,4}y"], &["ab"]]
            .iter()
            .map(|g| lower_group(&g.iter().map(|p| parse(p).unwrap()).collect::<Vec<_>>()))
            .collect();
        let prepared = PreparedProgram::new_all(groups);
        let text = b"abcbcd cat 42x bbc xaby aaa cccd ".iter().cycle();
        let sizes = [40, 300, 700, 500, 900];
        let inputs: Vec<Vec<u8>> =
            sizes.iter().map(|&n| text.clone().take(n).copied().collect()).collect();
        let widest = Program::stream_len(sizes.into_iter().max().unwrap()).div_ceil(64);
        let runs: Vec<(usize, usize)> =
            (0..inputs.len()).flat_map(|i| (0..prepared.len()).map(move |p| (i, p))).collect();
        let (config, ctl) = (ExecConfig::default(), RunControl::unlimited());
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        for round in 0..64 {
            // A deterministic shuffle of the (input, program) windows.
            let mut order = runs.clone();
            for i in (1..order.len()).rev() {
                seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                order.swap(i, (seed >> 33) as usize % (i + 1));
            }
            let (mut scratch, mut classes) = (ExecScratch::new(), ClassStreams::new());
            let mut pass = |scratch: &mut ExecScratch| {
                for &(input, program) in &order {
                    let (basis, p) = (Basis::transpose(&inputs[input]), &prepared[program]);
                    p.evaluate_classes(&basis, &mut classes);
                    let mut carry = CarryState::for_layout(p.carry_layout());
                    let mut union = BitStream::zeros(inputs[input].len());
                    let (carry, union) = (&mut carry, &mut union);
                    p.execute_window_into(&classes, &basis, &config, scratch, &ctl, carry, union)
                        .unwrap();
                }
            };
            pass(&mut scratch);
            let warm = scratch.pooled_words();
            assert_eq!(warm % widest, 0, "round {round}: {warm} words, not buffers of {widest}");
            pass(&mut scratch);
            assert_eq!(scratch.pooled_words(), warm, "round {round}: {order:?} grew the scratch");
        }
    }

    /// `dst = match(class)` twice, then their AND and an output each.
    fn two_matches_of_one_class() -> Program {
        let class = ByteSet::singleton(b'a');
        Program::new(
            vec![
                Stmt::Op(Op::MatchCc { dst: StreamId(0), class }),
                Stmt::Op(Op::MatchCc { dst: StreamId(1), class }),
                Stmt::Op(Op::And { dst: StreamId(2), a: StreamId(0), b: StreamId(1) }),
            ],
            3,
            vec![StreamId(0), StreamId(1)],
        )
    }

    #[test]
    fn a_fault_on_a_class_match_corrupts_that_value_only() {
        use crate::{ClassStreams, PreparedProgram};
        let prepared = PreparedProgram::new_all(vec![two_matches_of_one_class()]).remove(0);
        assert_eq!(prepared.class_count(), 1, "one class, matched twice");
        let basis = Basis::transpose(b"aaaaaaaa");
        let mut classes = ClassStreams::new();
        prepared.evaluate_classes(&basis, &mut classes);
        let pristine = classes.clone();
        // Each value through the one-shot door, whose own class streams
        // are shared by both matches; the engine's shared streams through
        // the union door.
        let run = |fault| {
            let config = ExecConfig { fault, ..ExecConfig::default() };
            let mut carry = CarryState::for_layout(prepared.carry_layout());
            let mut union = BitStream::zeros(8);
            let ctl = RunControl::unlimited();
            prepared
                .execute_window_into(
                    &classes,
                    &basis,
                    &config,
                    &mut ExecScratch::new(),
                    &ctl,
                    &mut carry.clone(),
                    &mut union,
                )
                .unwrap();
            let (prog, mut scratch) = (prepared.program(), ExecScratch::new());
            let out = execute_prepared_with(prog, &basis, &config, &mut scratch, Some(&mut carry));
            let out = out.unwrap();
            assert_eq!(union, out.union().resized(8));
            out
        };
        let clean = run(None);
        for kind in [FaultKind::SmemFlip, FaultKind::CorruptTrips] {
            // Trigger 1 is the first `MatchCc`; seed 3 flips its bit 3.
            let hit = run(Some(FaultPlan { kind, trigger: 1, seed: 3 }));
            assert!(hit.fault_fired, "{kind:?}");
            assert_eq!(hit.outputs[1], clean.outputs[1], "{kind:?}: the second match");
            assert_eq!(classes.streams(), pristine.streams(), "{kind:?} reached the class streams");
            if kind == FaultKind::SmemFlip {
                assert_eq!(hit.outputs[0].positions(), vec![0, 1, 2, 4, 5, 6, 7]);
            }
        }
    }

    /// The fault an armed window injects, on the reference machine: one
    /// buffer per stream, every statement its own step.
    struct FaultAt {
        plan: FaultPlan,
        seen: u32,
    }

    impl bitgen_ir::Observer for FaultAt {
        fn inspects(&self) -> bool {
            true
        }

        fn value(
            &mut self,
            _op: &Op,
            value: &mut BitStream,
            _carry: Option<&mut CarryState>,
        ) -> bool {
            self.seen += 1;
            if self.seen != self.plan.trigger {
                return true;
            }
            if self.plan.kind == FaultKind::SkipBarrier {
                return false;
            }
            let bit = self.plan.seed as usize % value.len();
            let flipped = !value.get(bit);
            value.set(bit, flipped);
            true
        }
    }

    #[test]
    fn faults_fire_on_the_op_they_name_whatever_an_unarmed_window_fuses() {
        use crate::{ClassStreams, PreparedProgram};
        // A literal twice over: class matches a window reads in place,
        // and a chain of `&`/`>>` links it runs as one pass. An armed
        // window takes them one by one again, so trigger `t` is the
        // `t`-th instruction of the program text, as it always was.
        let prog = lower_group(&[parse("abcab").unwrap(), parse("cab").unwrap()]);
        let ops: Vec<Op> = {
            let mut ops = Vec::new();
            prog.for_each_op(&mut |op| ops.push(op.clone()));
            ops
        };
        assert_eq!(ops.len(), prog.stmts().len(), "straight-line");
        let prepared = PreparedProgram::new_all(vec![prog.clone()]).remove(0);
        let (fused, advances) = prepared.fused_advances();
        assert!(prepared.class_copies() == 0 && fused == advances && advances >= 8);
        let tables = StreamTables::of(&prog);
        let plan = tables.plan.as_ref().unwrap();
        let basis = Basis::transpose(b"abcab cab abcabcab xcab");
        let ctl = RunControl::unlimited();
        let mut classes = ClassStreams::new();
        prepared.evaluate_classes(&basis, &mut classes);
        let pristine = classes.clone();
        let mut scratch = ExecScratch::new();
        let (mut on_match, mut on_link) = (0, 0);
        for (at, op) in ops.iter().enumerate() {
            let trigger = at as u32 + 1;
            on_match += usize::from(matches!(op, Op::MatchCc { .. }));
            on_link += usize::from(matches!(op, Op::And { .. }) && plan.is_link(op.dst()));
            for kind in [FaultKind::SmemFlip, FaultKind::SkipBarrier] {
                let plan = FaultPlan { kind, trigger, seed: 5 + u64::from(trigger) };
                let config = ExecConfig { fault: Some(plan), ..ExecConfig::default() };
                let mut carry = CarryState::for_layout(prepared.carry_layout());
                let mut union = BitStream::zeros(basis.len());
                let shared = prepared.execute_window_into(
                    &classes,
                    &basis,
                    &config,
                    &mut scratch,
                    &ctl,
                    &mut carry.clone(),
                    &mut union,
                );
                assert_eq!(classes.streams(), pristine.streams(), "{kind:?} at {trigger}");
                let got =
                    execute_prepared_with(&prog, &basis, &config, &mut scratch, Some(&mut carry));
                let what = format!("{kind:?} at {trigger}");
                match (&shared, &got) {
                    (Ok(metrics), Ok(got)) => {
                        assert_eq!(*metrics, got.metrics, "{what}");
                        assert_eq!(union, got.union().resized(basis.len()), "{what}");
                    }
                    _ => assert_eq!(shared.as_ref().err(), got.as_ref().err(), "{what}"),
                }

                let mut env = ById::default();
                env.reset(prog.num_streams() as usize);
                let mut want_carry = CarryState::for_program(&prog);
                let layout = bitgen_ir::CarryLayout::of(&prog);
                let walked = walk(
                    prog.stmts(),
                    &mut env,
                    &mut FaultAt { plan, seen: 0 },
                    &basis,
                    &ctl,
                    Some(CarryWalk::new(&mut want_carry, &layout)),
                );
                match (kind, walked) {
                    // A flipped bit flows wherever the value is read.
                    (FaultKind::SmemFlip, Ok(_)) => {
                        let got = got.unwrap_or_else(|e| panic!("flip at {trigger}: {e}"));
                        assert!(got.fault_fired, "flip at {trigger}");
                        for (&id, out) in prog.outputs().iter().zip(&got.outputs) {
                            assert_eq!(Some(out), env.get(id), "flip at {trigger}: output {id}");
                        }
                        assert_eq!(carry, want_carry, "flip at {trigger}");
                    }
                    // A lost store is missed by its first reader, or by
                    // the store count if nothing reads it.
                    (FaultKind::SkipBarrier, Err(e)) => {
                        assert_eq!(e, InterpError::UnwrittenStream { id: op.dst() });
                        assert_eq!(got.unwrap_err(), ExecError::UnwrittenStream { id: op.dst() });
                    }
                    (FaultKind::SkipBarrier, Ok(_)) => {
                        let (issued, stored) = (ops.len() as u64, ops.len() as u64 - 1);
                        assert_eq!(got.unwrap_err(), ExecError::StoreElided { issued, stored });
                    }
                    (kind, walked) => panic!("{kind:?} at {trigger}: {walked:?}"),
                }
            }
        }
        assert!(on_match >= 3 && on_link >= 4, "{on_match} class matches, {on_link} elided `&`s");
    }

    #[test]
    fn a_lost_store_never_reads_as_another_streams_bits() {
        // Every value dies at the next instruction, so two slots
        // alternate: s2 recycles the slot that held s0, s3 the one that
        // held s1.
        let s = StreamId;
        let chain = Program::new(
            vec![
                Stmt::Op(Op::Ones { dst: s(0) }),
                Stmt::Op(Op::Advance { dst: s(1), src: s(0), amount: 1 }),
                Stmt::Op(Op::Advance { dst: s(2), src: s(1), amount: 1 }),
                Stmt::Op(Op::Advance { dst: s(3), src: s(2), amount: 1 }),
            ],
            4,
            vec![s(3)],
        );
        let lose = |prog: &Program, trigger| {
            let plan = FaultPlan { kind: FaultKind::SkipBarrier, trigger, seed: 0 };
            let config = ExecConfig { fault: Some(plan), ..ExecConfig::default() };
            let mut carry = CarryState::for_program(prog);
            execute_prepared_with(
                prog,
                &Basis::transpose(b"abcdef"),
                &config,
                &mut ExecScratch::new(),
                Some(&mut carry),
            )
            .unwrap_err()
        };
        // The last store lost: nothing reads s3 again, the store count
        // tells.
        assert_eq!(lose(&chain, 4), ExecError::StoreElided { issued: 4, stored: 3 });
        // s2's store lost: its slot still holds s0's ones, and the read
        // that follows is refused, not served from them.
        assert_eq!(lose(&chain, 3), ExecError::UnwrittenStream { id: s(2) });
        // A loop's second trip loses the store of a stream its first
        // trip wrote: the stale value is the stream's own, the store
        // count tells.
        let looped = Program::new(
            vec![
                Stmt::Op(Op::MatchCc { dst: s(0), class: ByteSet::range(b'a', b'c') }),
                Stmt::Op(Op::Assign { dst: s(1), src: s(0) }),
                Stmt::While {
                    cond: s(1),
                    body: vec![
                        Stmt::Op(Op::Advance { dst: s(2), src: s(1), amount: 1 }),
                        Stmt::Op(Op::And { dst: s(1), a: s(2), b: s(0) }),
                    ],
                },
            ],
            3,
            vec![s(1)],
        );
        assert!(matches!(lose(&looped, 5), ExecError::StoreElided { .. }));
    }

    #[test]
    fn reads_of_unwritten_streams_are_typed_before_and_during_a_window() {
        let s = StreamId;
        let run = |prog: &Program| {
            let mut carry = CarryState::for_program(prog);
            execute_prepared_with(
                prog,
                &Basis::transpose(b"xyz"),
                &ExecConfig::default(),
                &mut ExecScratch::new(),
                Some(&mut carry),
            )
        };
        // Nothing ever writes s0: the plan refuses the program.
        let never = Program::new(vec![Stmt::Op(Op::Not { dst: s(1), src: s(0) })], 2, vec![s(1)]);
        assert_eq!(run(&never).unwrap_err(), ExecError::UnwrittenStream { id: s(0) });
        // s2 is written only by a loop that does not run on this input.
        let skipped = Program::new(
            vec![
                Stmt::Op(Op::Zero { dst: s(0) }),
                Stmt::While { cond: s(0), body: vec![Stmt::Op(Op::Ones { dst: s(2) })] },
                Stmt::Op(Op::Not { dst: s(1), src: s(2) }),
            ],
            3,
            vec![s(1)],
        );
        assert_eq!(run(&skipped).unwrap_err(), ExecError::UnwrittenStream { id: s(2) });
        // An output nothing wrote reads as zeros, listed twice or not.
        let unwritten_output =
            Program::new(vec![Stmt::Op(Op::Ones { dst: s(0) })], 2, vec![s(1), s(0), s(0)]);
        let out = run(&unwritten_output).unwrap();
        assert_eq!(out.outputs, vec![BitStream::zeros(4), BitStream::ones(4), BitStream::ones(4)]);
    }

    #[test]
    fn the_reference_does_not_share_the_plan() {
        // The cross-check replay runs the same walker, but in its own
        // by-id environment: a wrong slot assignment must never be
        // reproduced by it. Every program below runs in the slots another
        // program's plan assigns (same stream count, so every table is
        // sized alike).
        use bitgen_ir::SlotPlan;
        let lowered: Vec<Program> = ["a(bc)*d", "(a|bb)+c", "x[ab]{1,4}y", "a{2,}b", "cat"]
            .iter()
            .map(|p| lower(&parse(p).unwrap()))
            .collect();
        let streams = lowered.iter().map(Program::num_streams).max().unwrap();
        let programs: Vec<Program> = lowered
            .iter()
            .map(|p| Program::new(p.stmts().to_vec(), streams, p.outputs().to_vec()))
            .collect();
        let basis = Basis::transpose(b"abcbcd bbac xaby aaab cat abcd xy");
        let config = ExecConfig { cross_check: true, ..ExecConfig::default() };
        let ctl = RunControl::unlimited();
        let zeros = BitStream::zeros(Program::stream_len(basis.len()));
        let mut caught = 0;
        for (i, prog) in programs.iter().enumerate() {
            let mut fork = CarryState::for_program(prog);
            let want = try_interpret_chunk(prog, &basis, &ctl, &mut fork).unwrap().outputs;
            for (j, other) in programs.iter().enumerate() {
                let mut tables = StreamTables::of(prog);
                tables.plan = SlotPlan::of(other);
                let mut classes = ClassStreams::new();
                tables.classes.evaluate(&basis, &mut classes);
                let mut carry = CarryState::for_program(prog);
                let mut scratch = ExecScratch::new();
                let mut outputs = Vec::new();
                match execute_streaming_window(
                    prog,
                    &tables,
                    &classes,
                    &basis,
                    &config,
                    &mut scratch,
                    &ctl,
                    &mut carry,
                    &mut |value| outputs.push(value.unwrap_or(&zeros).clone()),
                ) {
                    Ok(_) => assert_eq!(outputs, want, "program {i} in the slots of {j}"),
                    Err(
                        ExecError::CrossCheckMismatch { .. }
                        | ExecError::UnwrittenStream { .. }
                        | ExecError::StoreElided { .. },
                    ) => {
                        assert_ne!(i, j, "a program fails in its own plan");
                        caught += 1;
                    }
                    Err(e) => panic!("program {i} in the slots of {j}: {e}"),
                }
            }
        }
        assert!(caught >= programs.len(), "only {caught} wrong plans were caught");
    }

    #[test]
    fn streaming_window_errors_propagate() {
        use bitgen_ir::CancelToken;
        let prepared = crate::PreparedProgram::new_all(vec![lower(&parse("a+b").unwrap())]);
        let basis = Basis::transpose(b"aaab");
        let mut classes = ClassStreams::new();
        prepared[0].evaluate_classes(&basis, &mut classes);
        let mut carry = CarryState::for_layout(prepared[0].carry_layout());
        let token = CancelToken::new();
        token.cancel();
        let ctl = RunControl::unlimited().with_cancel(token);
        let mut union = BitStream::from_positions(4, &[1]);
        let err = prepared[0]
            .execute_window_into(
                &classes,
                &basis,
                &ExecConfig::default(),
                &mut ExecScratch::new(),
                &ctl,
                &mut carry,
                &mut union,
            )
            .unwrap_err();
        assert_eq!(err, ExecError::Cancelled);
        assert_eq!(union.positions(), vec![1], "a failed window leaves the union alone");
    }

    #[test]
    fn cross_check_passes_on_clean_runs() {
        let input: Vec<u8> = b"abcbcd".iter().cycle().take(300).copied().collect();
        let basis = Basis::transpose(&input);
        let prog = lower(&parse("a(bc)*d").unwrap());
        let config = ExecConfig { threads: 4, cross_check: true, ..ExecConfig::default() };
        let out = execute(&prog, &basis, &config).unwrap();
        assert!(!out.fault_fired);
        assert_eq!(
            out.outputs[0].positions(),
            interpret(&prog, &basis).outputs[0].positions()
        );
    }

    #[test]
    fn counter_fault_is_always_detected() {
        use bitgen_gpu::{FaultKind, FaultPlan};
        let input: Vec<u8> = b"abcbcd".iter().cycle().take(300).copied().collect();
        let basis = Basis::transpose(&input);
        let prog = lower(&parse("a(bc)*d").unwrap());
        let config = ExecConfig {
            threads: 4,
            fault: Some(FaultPlan { kind: FaultKind::CorruptCounter, trigger: 1, seed: 9 }),
            ..ExecConfig::default()
        };
        let err = execute(&prog, &basis, &config).unwrap_err();
        assert!(matches!(err, ExecError::CounterMismatch { .. }), "got {err}");
    }

    #[test]
    fn injected_faults_never_pass_silently() {
        // The tentpole property at the exec layer: for a seeded sweep of
        // fault plans, every run either errors or produces output
        // bit-identical to the clean run (the fault was masked).
        use bitgen_gpu::FaultPlan;
        let input: Vec<u8> = b"abcbcd".iter().cycle().take(300).copied().collect();
        let basis = Basis::transpose(&input);
        let mut prog = lower(&parse("a(bc)*d").unwrap());
        let base = ExecConfig { threads: 4, cross_check: true, ..ExecConfig::default() };
        apply_transforms(&mut prog, &base);
        let clean = execute_prepared(&prog, &basis, &base).unwrap();
        let mut fired = 0;
        let mut detected = 0;
        for seed in 0..40u64 {
            let plan = FaultPlan::from_seed(seed);
            if plan.kind == bitgen_gpu::FaultKind::Panic {
                continue; // panic isolation is the session layer's job
            }
            let config = ExecConfig { fault: Some(plan), ..base };
            match execute_prepared(&prog, &basis, &config) {
                Err(_) => detected += 1,
                Ok(out) => {
                    if out.fault_fired {
                        fired += 1;
                        assert_eq!(
                            out.outputs, clean.outputs,
                            "seed {seed}: fault fired, no error, but outputs differ — silent corruption"
                        );
                    }
                }
            }
        }
        assert!(detected > 0, "sweep produced no detections at all");
        assert!(fired + detected > 10, "sweep barely exercised the fault machinery");
    }
}
