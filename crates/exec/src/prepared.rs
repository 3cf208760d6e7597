//! Prepared programs: everything about a program that does not depend on
//! the input, derived once instead of once per call — a stream program's
//! class table, carry layout and stream plan; a batch program's transforms,
//! segments, overlap analyses and compiled kernels, its [`BatchPlan`]. Each
//! owns its program (DESIGN.md §10).

use crate::engine::{
    apply_transforms, execute_streaming_window, ExecConfig, ExecError, ExecOutcome, ExecScratch,
};
use crate::scheme::Scheme;
use crate::segment::{intermediate_count, segment_program, SegmentKind};
use bitgen_bitstream::{Basis, BitStream, CcCode};
use bitgen_ir::{
    ByteSet, CarryLayout, CarryState, InterpError, Op, Program, RunControl, SlotPlan, StreamId,
};
use bitgen_kernel::{compile, CodegenOptions, Compiled};
use bitgen_passes::{OverlapInfo, PassMetrics};
use std::ops::Range;
use std::sync::Arc;

/// The distinct byte classes of the programs prepared together, each with
/// its flattened circuit, sorted by class so a `MatchCc` finds its index
/// by search. The index is the class's position in a [`ClassStreams`].
#[derive(Debug)]
pub(crate) struct ClassTable {
    classes: Box<[ByteSet]>,
    circuits: Box<[CcCode]>,
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
        let circuits = classes.iter().map(CcCode::for_class).collect();
        ClassTable { classes: classes.into_boxed_slice(), circuits }
    }

    /// Index and circuit of `class`, `None` for a class of no program the
    /// table was built from.
    pub(crate) fn find(&self, class: &ByteSet) -> Option<(usize, &CcCode)> {
        let index = self.classes.binary_search(class).ok()?;
        Some((index, &self.circuits[index]))
    }

    pub(crate) fn len(&self) -> usize {
        self.classes.len()
    }

    /// Evaluates every class over `basis` into `out`, one window-length
    /// stream each (peek position clear), reusing `out`'s buffers.
    pub(crate) fn evaluate(&self, basis: &Basis, out: &mut ClassStreams) {
        let stream_len = Program::stream_len(basis.len());
        out.streams.resize_with(self.circuits.len(), BitStream::default);
        for (circuit, stream) in self.circuits.iter().zip(&mut out.streams) {
            if stream.len() != stream_len {
                stream.reset_zeros(stream_len);
            }
            circuit.eval_into(basis, stream);
        }
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
/// reuse most of their classes), the carry layout and the slot of every
/// stream.
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
                plan: SlotPlan::of(p),
            })
            .collect()
    }
}

/// A stream program together with its input-independent tables — what an
/// engine keeps resident so that a streaming window only executes.
///
/// [`PreparedProgram::execute_window`] and the one-shot
/// [`crate::execute_prepared_with`]`(.., Some(carry))` run the same body;
/// the latter derives the tables for that one call.
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
    /// (`0` for a program that reads a stream before writing it).
    pub fn live_slots(&self) -> usize {
        self.tables.plan.as_ref().map_or(0, SlotPlan::slot_count)
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

    /// Executes one streaming window over a chunk basis — see
    /// [`crate::execute_prepared_with`] for the carry contract and
    /// [`BatchPlan::execute`] for the errors. The class streams
    /// are evaluated for this call; callers running several programs
    /// over one chunk evaluate them once and use
    /// [`PreparedProgram::execute_window_on`].
    ///
    /// # Errors
    ///
    /// Same as [`BatchPlan::execute`].
    pub fn execute_window(
        &self,
        basis: &Basis,
        config: &ExecConfig,
        scratch: &mut ExecScratch,
        ctl: &RunControl,
        carry: &mut CarryState,
    ) -> Result<ExecOutcome, ExecError> {
        execute_streaming_window(
            &self.program,
            &self.tables,
            None,
            basis,
            config,
            scratch,
            ctl,
            carry,
        )
    }

    /// [`PreparedProgram::execute_window`] reading class streams the
    /// caller evaluated over the same `basis` with
    /// [`PreparedProgram::evaluate_classes`] of this program (or of one
    /// prepared together with it).
    ///
    /// # Errors
    ///
    /// Same as [`PreparedProgram::execute_window`].
    ///
    /// # Panics
    ///
    /// Panics if `classes` was not evaluated over `basis` by a program
    /// prepared together with this one.
    pub fn execute_window_on(
        &self,
        classes: &ClassStreams,
        basis: &Basis,
        config: &ExecConfig,
        scratch: &mut ExecScratch,
        ctl: &RunControl,
        carry: &mut CarryState,
    ) -> Result<ExecOutcome, ExecError> {
        execute_streaming_window(
            &self.program,
            &self.tables,
            Some(classes),
            basis,
            config,
            scratch,
            ctl,
            carry,
        )
    }
}

/// One segment of a [`BatchPlan`]: `program.stmts()[range]`, the streams
/// crossing its boundary, and what running it interleaved reads.
#[derive(Debug, Clone)]
pub(crate) struct PlannedSegment {
    pub(crate) range: Range<usize>,
    pub(crate) inputs: Vec<StreamId>,
    pub(crate) outputs: Vec<StreamId>,
    /// `None`: the segment runs sequentially.
    pub(crate) fused: Option<FusedPlan>,
}

/// A fused segment's overlap analysis, kernel and
/// [`bitgen_kernel::Kernel::max_live_regs`] (a sweep over every register
/// interval of the kernel).
#[derive(Debug, Clone)]
pub(crate) struct FusedPlan {
    pub(crate) info: OverlapInfo,
    pub(crate) compiled: Compiled,
    pub(crate) max_live_regs: u32,
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
    pub(crate) segments: Vec<PlannedSegment>,
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
        let options = CodegenOptions { merge_size: key.1, ..CodegenOptions::default() };
        let segments = segment_program(&program, key.0);
        let intermediates = intermediate_count(&segments, &program);
        // Segments are consecutive runs of whole top-level statements.
        let mut at = 0;
        let segments: Vec<PlannedSegment> = segments
            .into_iter()
            .map(|seg| {
                let range = at..at + seg.stmts.len();
                at = range.end;
                let fused = (seg.kind == SegmentKind::Fused).then(|| {
                    let sub = Program::new(seg.stmts, program.num_streams(), seg.outputs.clone());
                    let compiled = compile(&sub, &seg.inputs, &seg.outputs, &options);
                    let max_live_regs = compiled.kernel.max_live_regs();
                    FusedPlan { info: OverlapInfo::analyze(&sub), compiled, max_live_regs }
                });
                PlannedSegment { range, inputs: seg.inputs, outputs: seg.outputs, fused }
            })
            .collect();
        debug_assert_eq!(at, program.stmts().len(), "segments cover the program");
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
