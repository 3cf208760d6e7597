//! Prepared programs: everything about a program that does not depend on
//! the input, derived once instead of once per call — a stream program's
//! class table, carry layout and stream plan; a batch program's transforms,
//! segments, overlap analyses and compiled kernels, its [`BatchPlan`]. Each
//! owns its program (DESIGN.md §10).

use crate::engine::{apply_transforms, execute_streaming_window, ExecConfig, ExecError, ExecScratch};
use crate::metrics::ExecMetrics;
use crate::scheme::Scheme;
use crate::segment::{intermediate_count, segment_ranges, Segment, SegmentKind};
use bitgen_bitstream::{class_gate_count, Basis, BitStream, ClassCircuit};
use bitgen_gpu::KernelFacts;
use bitgen_ir::{
    ByteSet, CarryLayout, CarryState, InterpError, Op, Place, Program, RunControl, SlotPlan,
};
use bitgen_kernel::{CodegenOptions, Compiled, Compiler};
use bitgen_passes::{OverlapInfo, PassMetrics};
use std::ops::Range;
use std::sync::Arc;

/// The distinct byte classes of the programs prepared together, sorted so
/// a `MatchCc` finds its index by search, and the one circuit computing
/// them all. The index is the class's position in a [`ClassStreams`].
#[derive(Debug)]
pub(crate) struct ClassTable {
    classes: Box<[ByteSet]>,
    circuit: ClassCircuit,
    /// Per class, the gates of its circuit compiled alone: what a
    /// `MatchCc` costs on the modelled device, which evaluates the paper's
    /// circuit per class whatever the host shares.
    gates: Box<[u32]>,
}

impl ClassTable {
    fn of_all(programs: &[Program]) -> ClassTable {
        let mut classes = Vec::new();
        for program in programs {
            program.for_each_op(&mut |op| {
                if let Op::MatchCc { class, .. } = op {
                    classes.push(*class);
                }
            });
        }
        classes.sort_unstable();
        classes.dedup();
        let gates = classes.iter().map(|class| class_gate_count(class) as u32).collect();
        let circuit = ClassCircuit::for_classes(&classes);
        ClassTable { classes: classes.into_boxed_slice(), circuit, gates }
    }

    /// The table's classes, sorted.
    pub(crate) fn classes(&self) -> &[ByteSet] {
        &self.classes
    }

    /// Index and gate count of `class`, `None` for a class of no program
    /// the table was built from.
    pub(crate) fn find(&self, class: &ByteSet) -> Option<(usize, usize)> {
        let index = self.classes.binary_search(class).ok()?;
        Some((index, self.gates(index)))
    }

    /// Gate count of the class at `index`, compiled alone.
    pub(crate) fn gates(&self, index: usize) -> usize {
        self.gates[index] as usize
    }

    pub(crate) fn len(&self) -> usize {
        self.classes.len()
    }

    /// Gates per position of the shared circuit, and of the classes
    /// compiled one by one.
    pub(crate) fn gate_counts(&self) -> (usize, usize) {
        (self.circuit.gate_count(), self.gates.iter().map(|&gates| gates as usize).sum())
    }

    /// Evaluates every class over `basis` into `out`, one window-length
    /// stream each (peek position clear), reusing `out`'s buffers: one
    /// sweep of the shared circuit over the basis.
    pub(crate) fn evaluate(&self, basis: &Basis, out: &mut ClassStreams) {
        let stream_len = Program::stream_len(basis.len());
        out.streams.resize_with(self.classes.len(), BitStream::default);
        (out.streams.iter_mut().filter(|stream| stream.len() != stream_len))
            .for_each(|stream| stream.reset_zeros(stream_len));
        self.circuit.eval_into(basis, &mut out.streams);
    }
}

/// One chunk's class streams: every distinct class of an engine
/// evaluated once over the chunk's basis, then read by each group's
/// `MatchCc` instructions and by every retry of those windows. Filled by
/// [`PreparedProgram::evaluate_classes`]; the buffers are reused from
/// chunk to chunk.
#[derive(Debug, Clone, Default)]
pub struct ClassStreams {
    streams: Vec<BitStream>,
}

impl ClassStreams {
    /// No streams yet.
    pub fn new() -> ClassStreams {
        ClassStreams::default()
    }

    /// Total words of capacity held — stable once warm, like
    /// [`ExecScratch::pooled_words`].
    pub fn capacity_words(&self) -> usize {
        self.streams.iter().map(BitStream::capacity_words).sum()
    }

    pub(crate) fn streams(&self) -> &[BitStream] {
        &self.streams
    }
}

/// The tables a streaming window reads instead of re-deriving: the class
/// table (shared by the programs prepared together — an engine's groups
/// reuse most of their classes), the carry layout and the place of every
/// stream: a slot, or the table's stream of its class.
#[derive(Debug, Clone)]
pub(crate) struct StreamTables {
    pub(crate) classes: Arc<ClassTable>,
    pub(crate) layout: CarryLayout,
    /// `Err` for a program that reads a stream before writing it;
    /// executing a window reports it.
    pub(crate) plan: Result<SlotPlan, InterpError>,
}

impl StreamTables {
    pub(crate) fn of(program: &Program) -> StreamTables {
        StreamTables::of_all(std::slice::from_ref(program)).remove(0)
    }

    fn of_all(programs: &[Program]) -> Vec<StreamTables> {
        let classes = Arc::new(ClassTable::of_all(programs));
        programs
            .iter()
            .map(|p| StreamTables {
                classes: Arc::clone(&classes),
                layout: CarryLayout::of(p),
                plan: SlotPlan::with_classes(p, classes.classes()),
            })
            .collect()
    }
}

/// A stream program together with its input-independent tables — what an
/// engine keeps resident so that a streaming window only executes.
///
/// [`PreparedProgram::execute_window_into`] and the one-shot
/// [`crate::execute_prepared_with`]`(.., Some(carry))` run the same body;
/// the latter derives the tables and class streams for that one call.
#[derive(Debug, Clone)]
pub struct PreparedProgram {
    program: Program,
    tables: StreamTables,
}

impl PreparedProgram {
    /// Prepares an engine's *untransformed* programs for streaming; they
    /// share one class table.
    pub fn new_all(programs: Vec<Program>) -> Vec<PreparedProgram> {
        let tables = StreamTables::of_all(&programs);
        programs
            .into_iter()
            .zip(tables)
            .map(|(program, tables)| PreparedProgram { program, tables })
            .collect()
    }

    /// The program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The program's carry layout: build states with
    /// [`CarryState::for_layout`], check them with
    /// [`CarryState::validate`].
    pub fn carry_layout(&self) -> &CarryLayout {
        &self.tables.layout
    }

    /// Stream buffers a window of this program keeps resident at once
    /// (`0` for a program that reads a stream before writing it). Class
    /// streams are not among them: a window reads those in place.
    pub fn live_slots(&self) -> usize {
        self.tables.plan.as_ref().map_or(0, SlotPlan::slot_count)
    }

    /// `Advance` instructions a window runs inside a fused pass — the
    /// value shifted or the shifted value is a link of the stream plan,
    /// never stored — and all `Advance` instructions of the program.
    pub fn fused_advances(&self) -> (usize, usize) {
        let Ok(plan) = &self.tables.plan else { return (0, 0) };
        let (mut fused, mut all) = (0, 0);
        self.program.for_each_op(&mut |op| {
            if let Op::Advance { dst, src, .. } = op {
                all += 1;
                fused += usize::from(plan.is_link(*dst) || plan.is_link(*src));
            }
        });
        (fused, all)
    }

    /// `MatchCc` instructions whose value a window copies out of the
    /// shared class streams into a slot, instead of reading it in place.
    pub fn class_copies(&self) -> usize {
        let Ok(plan) = &self.tables.plan else { return 0 };
        let mut copies = 0;
        self.program.for_each_op(&mut |op| {
            if let Op::MatchCc { dst, .. } = op {
                copies += usize::from(!matches!(plan.place(*dst), Some(Place::Class(_))));
            }
        });
        copies
    }

    /// Gates per position of the one circuit
    /// [`PreparedProgram::evaluate_classes`] runs, and of the same classes
    /// compiled one by one — what the windows' `MatchCc` instructions
    /// charge the modelled device.
    pub fn class_gates(&self) -> (usize, usize) {
        self.tables.classes.gate_counts()
    }

    /// Gates of `class` compiled alone — what a window's `MatchCc` of it
    /// charges — if a program prepared together with this one matches it.
    pub fn class_gates_of(&self, class: &ByteSet) -> Option<usize> {
        self.tables.classes.find(class).map(|(_, gates)| gates)
    }

    /// Distinct classes of the programs prepared together — the streams
    /// [`PreparedProgram::evaluate_classes`] fills.
    pub fn class_count(&self) -> usize {
        self.tables.classes.len()
    }

    /// Evaluates the class table shared by the programs prepared together
    /// over one chunk. One call serves every group's window over that
    /// chunk, retries included.
    pub fn evaluate_classes(&self, basis: &Basis, out: &mut ClassStreams) {
        self.tables.classes.evaluate(basis, out);
    }

    /// Executes one streaming window over a chunk basis, reading the
    /// class streams the caller evaluated over the same `basis` with
    /// [`PreparedProgram::evaluate_classes`] of this program (or of one
    /// prepared together with it) — see [`crate::execute_prepared_with`]
    /// for the carry contract. Every output is ORed into `union` (a
    /// stream over the chunk's positions; the window's peek position is
    /// dropped) where the window left it, and nothing is copied out.
    /// `union` is touched only by a window that passed all its checks.
    ///
    /// # Errors
    ///
    /// Same as [`BatchPlan::execute`].
    ///
    /// # Panics
    ///
    /// Panics if `classes` was not evaluated over `basis` by a program
    /// prepared together with this one.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_window_into(
        &self,
        classes: &ClassStreams,
        basis: &Basis,
        config: &ExecConfig,
        scratch: &mut ExecScratch,
        ctl: &RunControl,
        carry: &mut CarryState,
        union: &mut BitStream,
    ) -> Result<ExecMetrics, ExecError> {
        let mut or_in = |v: Option<&BitStream>| v.into_iter().for_each(|v| union.or_clipped(v));
        self.execute_window_with(classes, basis, config, scratch, ctl, carry, &mut or_in)
    }

    /// [`PreparedProgram::execute_window_into`], showing `output` each
    /// program output in order, in its place (`None`: all zeros), instead.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_window_with(
        &self,
        classes: &ClassStreams,
        basis: &Basis,
        config: &ExecConfig,
        scratch: &mut ExecScratch,
        ctl: &RunControl,
        carry: &mut CarryState,
        output: &mut dyn FnMut(Option<&BitStream>),
    ) -> Result<ExecMetrics, ExecError> {
        let (p, t) = (&self.program, &self.tables);
        execute_streaming_window(p, t, classes, basis, config, scratch, ctl, carry, output)
            .map(|(metrics, _)| metrics)
    }
}

/// What the batch planner makes of a fused segment ([`plan_segments`]).
#[derive(Debug, Clone)]
pub struct FusedPlan {
    /// The segment's overlap analysis.
    pub info: OverlapInfo,
    /// Its kernel, at the plan's merge size.
    pub compiled: Compiled,
    /// [`bitgen_kernel::Kernel::max_live_regs`], found once: a sweep over
    /// every register interval.
    pub max_live_regs: u32,
}

impl FusedPlan {
    /// Charges the kernel to the shape of a launch by CTAs of `config`:
    /// shift groups add up, the rest take the largest kernel's.
    pub fn charge_shape(&self, metrics: &mut ExecMetrics, config: &ExecConfig) {
        let kernel = &self.compiled.kernel;
        metrics.shift_groups += self.compiled.stats.shift_groups;
        metrics.smem_bytes = metrics.smem_bytes.max(kernel.smem_bytes(config.threads));
        // A liveness-based allocator's register count, clamped at the
        // configured cap (the paper's max-register parameter).
        metrics.regs_per_thread =
            metrics.regs_per_thread.max(self.max_live_regs.min(config.max_regs));
        metrics.static_overlap = metrics.static_overlap.max(self.info.base.total());
        if metrics.counters.loop_trips.len() < kernel.num_sites as usize {
            metrics.counters.loop_trips.resize(kernel.num_sites as usize, 0);
        }
    }
}

/// A segment of a plan, and what was kept of it if it runs fused.
pub type PlannedSegment<T> = (Segment<Range<usize>>, Option<T>);

/// The batch planner's chain under `(scheme, merge_size)`: `program`'s
/// segments, each fused one analysed for overlap, compiled by `compiler`
/// and made into a `T` by `keep`; and the count of intermediates.
pub fn plan_segments<T>(
    program: &Program,
    (scheme, merge_size): (Scheme, usize),
    compiler: &mut Compiler,
    mut keep: impl FnMut(FusedPlan) -> T,
) -> (Vec<PlannedSegment<T>>, usize) {
    let options = CodegenOptions { merge_size };
    let segments = segment_ranges(program, scheme);
    let intermediates = intermediate_count(&segments, program);
    let segments = (segments.into_iter())
        .map(|seg| {
            let fused = (seg.kind == SegmentKind::Fused).then(|| {
                let stmts = program.stmts()[seg.stmts.clone()].to_vec();
                let sub = Program::new(stmts, program.num_streams(), seg.outputs.clone());
                let compiled = compiler.compile(&sub, &seg.inputs, &seg.outputs, &options);
                let max_live_regs = compiled.kernel.max_live_regs();
                keep(FusedPlan { info: OverlapInfo::analyze(&sub), compiled, max_live_regs })
            });
            (seg, fused)
        })
        .collect();
    (segments, intermediates)
}

/// The batch counterpart of a [`PreparedProgram`]: a group's transformed
/// program together with everything derived from it — the transform
/// record, its segments for one scheme, every fused segment analysed and
/// compiled to its kernel at one effective merge size. The paper's
/// "generate and compile the kernel once, launch it per input":
/// [`BatchPlan::execute`] only runs it.
///
/// A segment is a range of the top-level statements of the plan's own
/// program, so the statements are held once.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    program: Program,
    passes: PassMetrics,
    /// The scheme and effective merge size the plan is specific to.
    pub(crate) key: (Scheme, usize),
    /// A fused segment's plan comes with the emulator's facts of its kernel.
    pub(crate) segments: Vec<PlannedSegment<(KernelFacts, FusedPlan)>>,
    pub(crate) intermediates: usize,
}

impl BatchPlan {
    /// Builds the batch side of `lowering`: a copy of it goes through
    /// [`apply_transforms`] and is planned for `config`'s scheme and merge
    /// size.
    pub fn build(lowering: &Program, config: &ExecConfig) -> BatchPlan {
        let mut program = lowering.clone();
        let passes = apply_transforms(&mut program, config);
        BatchPlan { passes, ..BatchPlan::new(program, config) }
    }

    /// Plans `program` to run as it is — transformed by
    /// [`apply_transforms`] already, or meant to run untransformed — so
    /// [`BatchPlan::passes`] is the default record.
    pub fn new(program: Program, config: &ExecConfig) -> BatchPlan {
        let key = BatchPlan::key_of(config);
        let with_facts = |plan: FusedPlan| (KernelFacts::of(&plan.compiled.kernel), plan);
        let (segments, intermediates) =
            plan_segments(&program, key, &mut Compiler::default(), with_facts);
        BatchPlan { program, passes: PassMetrics::default(), key, segments, intermediates }
    }

    /// The program the plan runs: the lowering after the transforms.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// What transforming the lowering did and cost; every
    /// [`BatchPlan::execute`] reports it as its `metrics.passes`.
    pub fn passes(&self) -> &PassMetrics {
        &self.passes
    }

    /// The scheme, and the merge size its kernels are compiled at.
    pub(crate) fn key_of(config: &ExecConfig) -> (Scheme, usize) {
        let merges = config.scheme.uses_barrier_merging();
        (config.scheme, if merges { config.merge_size } else { 1 })
    }
}
