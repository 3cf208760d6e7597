//! What a served push costs the modelled device when its windows run as
//! the paper's fused kernels would (DESIGN.md §10, "How a served push is
//! billed").
//!
//! A streaming window walks its group's untransformed program a statement
//! at a time, and its [`ExecMetrics`] price that walk as sequential
//! blockwise execution (Fig. 1a): one loop, one barrier and one stored
//! stream per instruction. Under [`Scheme::DtmStatic`] the same program
//! runs as segments — each run of straight-line statements one fused
//! kernel over overlapping windows, each `while` loop sequential. A
//! straight-line statement runs exactly once per window, so what it costs
//! walked and what its kernel costs per CTA window are both fixed at
//! compile time; only the loops' trips depend on the data, and the walk
//! has already counted those. A window's fused form is therefore
//! arithmetic on its own counts,
//!
//! `fused = window − sequential(fused statements) + Σ per_window · windows`,
//!
//! and it is what `BatchPlan::new(program, DtmStatic).execute` counts on
//! the CTA emulator for a one-push stream, field for field
//! (`tests/served_pricing.rs`).

use crate::engine::BitGen;
use bitgen_exec::{
    intermediate_count, segment_ranges, sequential_charge, ExecConfig, ExecMetrics,
    PreparedProgram, Scheme, SegmentKind,
};
use bitgen_ir::{Op, Program, Stmt};
use bitgen_kernel::{CodegenOptions, Compiler, WindowCounts, WORD_BITS};
use bitgen_passes::OverlapInfo;

/// One group's stream twin priced under DTM-, reduced to the counts a
/// window's fused form needs (a few hundred bytes; no program or kernel
/// is kept).
#[derive(Debug, Clone)]
pub(crate) struct TwinPrice {
    /// What the window's sequential model charges the statements that run
    /// fused: ALU issues per block pass, words loaded per stream word, and
    /// instructions (a barrier and a word stored per stream word each).
    sequential: [u32; 3],
    /// Per fused segment that fits the window: its kernel's events per
    /// CTA window and its static overlap `left + right`.
    fused: Box<[(WindowCounts, u32)]>,
    /// The plan's shape as `BatchPlan::execute` reports it: segments,
    /// intermediates, fallbacks, shift groups, static overlap, registers
    /// per thread and shared-memory bytes.
    shape: [u32; 7],
}

impl TwinPrice {
    /// Every group's price for an engine running under `config`, or `None`
    /// when its pushes bill sequentially only: a `Sequential` or `Base`
    /// engine, or a fused segment that is not straight-line (a lowering
    /// has none).
    pub(crate) fn of_all(
        programs: &[PreparedProgram],
        config: &ExecConfig,
    ) -> Option<Box<[TwinPrice]>> {
        if config.scheme < Scheme::DtmStatic {
            return None;
        }
        // The groups share most of their classes: one circuit table.
        let mut compiler = Compiler::default();
        programs.iter().map(|prepared| TwinPrice::of(prepared, config, &mut compiler)).collect()
    }

    /// Plans `prepared`'s program as `BatchPlan::new` does under DTM- —
    /// segments, overlap analysis, kernels at DTM-'s merge size of one —
    /// one fused segment at a time, keeping only its counts.
    fn of(
        prepared: &PreparedProgram,
        config: &ExecConfig,
        compiler: &mut Compiler,
    ) -> Option<TwinPrice> {
        let program = prepared.program();
        let segments = segment_ranges(program, Scheme::DtmStatic);
        // Interleaved execution keeps a word of forward progress per window.
        let capacity = (config.window_bits() - WORD_BITS) as u64;
        let (mut sequential, mut fused) = ([0u32; 3], Vec::new());
        let [mut fallbacks, mut shift_groups, mut static_overlap, mut regs, mut smem] = [0u32; 5];
        for seg in segments.iter().filter(|seg| seg.kind == SegmentKind::Fused) {
            let stmts = &program.stmts()[seg.stmts.clone()];
            let sub = Program::new(stmts.to_vec(), program.num_streams(), seg.outputs.clone());
            let overlap = OverlapInfo::analyze(&sub).base.total();
            let options = CodegenOptions { merge_size: 1 };
            let compiled = compiler.compile(&sub, &seg.inputs, &seg.outputs, &options);
            let kernel = &compiled.kernel;
            shift_groups += compiled.stats.shift_groups as u32;
            smem = smem.max(kernel.smem_bytes(config.threads) as u32);
            regs = regs.max(kernel.max_live_regs().min(config.max_regs));
            static_overlap = static_overlap.max(overlap as u32);
            if overlap > capacity {
                // Runs sequentially, as the batch path's fallback does.
                fallbacks += 1;
                continue;
            }
            fused.push((kernel.window_counts(config.threads)?, overlap as u32));
            for stmt in stmts {
                let Stmt::Op(op) = stmt else { return None };
                let gates = match op {
                    Op::MatchCc { class, .. } => prepared.class_gates_of(class)?,
                    _ => 0,
                };
                let (alu, loads) = sequential_charge(op, gates);
                let charge = [alu as u32, loads as u32, 1];
                (0..3).for_each(|i| sequential[i] += charge[i]);
            }
        }
        let intermediates = intermediate_count(&segments, program) as u32;
        Some(TwinPrice {
            sequential,
            fused: fused.into_boxed_slice(),
            shape: [
                segments.len() as u32,
                intermediates,
                fallbacks,
                shift_groups,
                static_overlap,
                regs,
                smem,
            ],
        })
    }

    /// `window` — a window's metrics over a `len`-byte chunk — as the
    /// DTM- launch counts the same work.
    pub(crate) fn fused_form(
        &self,
        window: &ExecMetrics,
        len: usize,
        config: &ExecConfig,
    ) -> ExecMetrics {
        let stream_len = Program::stream_len(len) as u64;
        let window_bits = config.window_bits() as u64;
        let passes = stream_len.div_ceil(window_bits);
        let words = stream_len.div_ceil(WORD_BITS as u64);
        let mut c = window.counters.clone();
        let [alu, loads, instructions] = self.sequential.map(u64::from);
        c.alu_ops -= alu * passes;
        c.global_load_words -= loads * words;
        c.global_store_words -= instructions * words;
        c.barriers -= instructions;
        let mut recompute_frac = 0.0f64;
        for &(per_window, overlap) in self.fused.iter() {
            // Each window stores `window_bits - overlap` new positions.
            let overlap = u64::from(overlap);
            let windows = stream_len.div_ceil(window_bits - overlap);
            let times = |count: u32| u64::from(count) * windows;
            c.alu_ops += times(per_window.alu_ops);
            c.smem_stores += times(per_window.smem_stores);
            c.smem_loads += times(per_window.smem_loads);
            c.barriers += times(per_window.barriers);
            c.global_load_words += times(per_window.global_load_words);
            c.global_store_words += times(per_window.global_store_words);
            c.window_iterations += windows;
            let overlap_bits = windows * overlap;
            let frac = overlap_bits as f64 / (overlap_bits + stream_len).max(1) as f64;
            recompute_frac = recompute_frac.max(frac);
        }
        let [segments, intermediates, fallbacks, shift_groups, static_overlap, regs, smem] =
            self.shape;
        ExecMetrics {
            window_iterations: c.window_iterations,
            counters: c,
            segments: segments as usize,
            intermediates: intermediates as usize,
            static_overlap: u64::from(static_overlap),
            recompute_frac,
            fallbacks: u64::from(fallbacks),
            shift_groups: shift_groups as usize,
            smem_bytes: smem as usize,
            regs_per_thread: regs,
            threads: config.threads,
            ..window.clone()
        }
    }
}

impl BitGen {
    /// Group `group`'s streaming window over a `len`-byte chunk — its
    /// metrics as [`bitgen_exec::PreparedProgram::execute_window_into`]
    /// reports them, the walk priced as sequential blockwise execution —
    /// priced instead as the paper's DTM- launch: straight-line segments
    /// fused, each a kernel over overlapping windows, `while` loops
    /// sequential as walked. A push bills whichever launch is cheaper
    /// ([`crate::StreamScanner::metrics`]). `None` when this engine bills
    /// its pushes sequentially only (under [`Scheme::Sequential`] or
    /// [`Scheme::Base`]).
    ///
    /// # Panics
    ///
    /// Panics if `group` is not below [`BitGen::group_count`], and in
    /// debug builds if `window` did not walk this group's program over
    /// `len` bytes (it charged less than the statements the form reprices).
    pub fn fused_form(
        &self,
        group: usize,
        window: &ExecMetrics,
        len: usize,
    ) -> Option<ExecMetrics> {
        let prices = self.stream_prices.as_deref()?;
        Some(prices[group].fused_form(window, len, &self.exec_config()))
    }
}
