//! What a served push costs the modelled device when its windows run as
//! the paper's fused kernels would (DESIGN.md §10, "How a served push is
//! billed").
//!
//! A streaming window walks its group's untransformed program a statement
//! at a time, and its [`ExecMetrics`] price that walk as sequential
//! blockwise execution (Fig. 1a): one loop, one barrier and one stored
//! stream per instruction. An engine bills its own rung of the paper's
//! ladder, DTM at most. Under DTM the whole program is one kernel over
//! overlapping windows, loops included; under DTM- (a `DtmStatic` engine,
//! or a program with an `Add`) each run of straight-line statements is a
//! kernel and each `while` runs sequentially as walked.
//!
//! Neither is emulated. Outside its loops a kernel runs every instruction
//! once per CTA window, and a loop body once per trip, so a window's
//! events are its kernel's static counts plus its trips times its bodies'
//! (`bitgen_kernel::Kernel::site_counts`). The trips are the data's: the
//! walk records every `while` check's condition ([`Frontiers`]), and a
//! CTA window takes as many trips of a loop as the walk has checks of it
//! with a bit inside the window. The price replays the batch executor's
//! window loop — dynamic overlap, retries, overflow — over that record,
//! arithmetic only; a kernel without loops is its closed form,
//! `⌈len / (window − overlap)⌉` windows.
//!
//! `fused = window − walk(fused statements) + Σ windows`, and that is what
//! `BatchPlan::new(program, rung).execute` counts on the CTA emulator for
//! a one-push stream: field for field under DTM-, and under DTM wherever
//! the walk's global frontier is each window's local one
//! (`tests/served_pricing.rs`).

use crate::engine::BitGen;
use bitgen_exec::{
    intermediate_count, segment_ranges, sequential_charge, ExecConfig, ExecMetrics,
    PreparedProgram, Scheme, SegmentKind,
};
use bitgen_gpu::CtaCounters;
use bitgen_ir::{Frontiers, Op, Program, Stmt};
use bitgen_kernel::{CodegenOptions, Compiler, SiteCounts, WindowCounts, WORD_BITS};
use bitgen_passes::{Hull, OverlapInfo, BASE_TRIPS};

/// One group's stream twin priced on its engine's rung, reduced to the
/// counts a window's fused form needs (no program or kernel is kept).
#[derive(Debug, Clone)]
pub(crate) struct TwinPrice {
    /// What the window's walk charged the statements that run fused: ALU
    /// issues per block pass, words loaded per stream word, and
    /// instructions (a barrier and a word stored per stream word each).
    /// `None` when the whole program runs fused: the walk's charge goes.
    sequential: Option<[u32; 3]>,
    /// Each fused segment that fits the window.
    fused: Box<[Fused]>,
    /// The plan's shape as `BatchPlan::execute` reports it: segments,
    /// intermediates, fallbacks, shift groups, static overlap, registers
    /// per thread, shared-memory bytes, and the kernels' dynamic sites.
    shape: [u32; 8],
}

/// A fused segment's kernel, reduced to what replaying its windows reads.
#[derive(Debug, Clone)]
struct Fused {
    /// The events of one CTA window outside any loop.
    outside: WindowCounts,
    /// The `while`s at top level: each is entered once per window.
    entries: u32,
    /// Every `while`, in pre-order.
    loops: Box<[Loop]>,
    /// The static overlap.
    base: Hull,
    /// The left overlap of the first window: `base.left`, plus the
    /// dynamic allowance when a loop reaches across blocks.
    left: u64,
}

/// One `while` of a fused kernel.
#[derive(Debug, Clone, Copy)]
struct Loop {
    site: u32,
    /// Conditions a trip reduces: the loop's next check, and one entry
    /// per loop directly inside it.
    reductions: u32,
    /// The events of one trip of its body.
    body: WindowCounts,
    /// The overlap each trip past [`BASE_TRIPS`] adds.
    growth: Hull,
}

impl TwinPrice {
    /// Every group's price for an engine running under `config`, or `None`
    /// when its pushes bill sequentially only: a `Sequential` or `Base`
    /// engine, or a program with an `if` (a lowering has none).
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

    /// Plans `prepared`'s program as `BatchPlan::new` does on the engine's
    /// rung — segments, overlap analysis, kernels at merge size one — one
    /// fused segment at a time, keeping only its counts.
    fn of(
        prepared: &PreparedProgram,
        config: &ExecConfig,
        compiler: &mut Compiler,
    ) -> Option<TwinPrice> {
        let program = prepared.program();
        // An `Add`'s carry run per window is not recorded: its program
        // keeps DTM-, which runs additions sequentially.
        let mut adds = false;
        program.for_each_op(&mut |op| adds |= matches!(op, Op::Add { .. }));
        let rung = if adds { Scheme::DtmStatic } else { config.scheme.min(Scheme::Dtm) };
        let segments = segment_ranges(program, rung);
        // Interleaved execution keeps a word of forward progress per window.
        let capacity = (config.window_bits() - WORD_BITS) as u64;
        let (mut sequential, mut fused) = ([0u32; 3], Vec::new());
        let [mut fallbacks, mut shift_groups, mut static_overlap, mut regs, mut smem, mut sites] =
            [0u32; 6];
        for seg in segments.iter().filter(|seg| seg.kind == SegmentKind::Fused) {
            let stmts = &program.stmts()[seg.stmts.clone()];
            let sub = Program::new(stmts.to_vec(), program.num_streams(), seg.outputs.clone());
            let info = OverlapInfo::analyze(&sub);
            let options = CodegenOptions { merge_size: 1 };
            let compiled = compiler.compile(&sub, &seg.inputs, &seg.outputs, &options);
            let kernel = &compiled.kernel;
            shift_groups += compiled.stats.shift_groups as u32;
            smem = smem.max(kernel.smem_bytes(config.threads) as u32);
            regs = regs.max(kernel.max_live_regs().min(config.max_regs));
            static_overlap = static_overlap.max(info.base.total() as u32);
            sites = sites.max(kernel.num_sites);
            let allowance = if info.is_static() { 0 } else { config.dynamic_allowance };
            if info.base.total() + allowance > capacity {
                // Runs sequentially, as the batch path's fallback does.
                fallbacks += 1;
                continue;
            }
            fused.push(Fused::new(kernel.site_counts(config.threads)?, &info, allowance));
            if rung == Scheme::Dtm {
                continue;
            }
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
        let whole = rung == Scheme::Dtm && !fused.is_empty();
        let intermediates = intermediate_count(&segments, program) as u32;
        Some(TwinPrice {
            sequential: (!whole).then_some(sequential),
            fused: fused.into_boxed_slice(),
            shape: [
                segments.len() as u32,
                intermediates,
                fallbacks,
                shift_groups,
                static_overlap,
                regs,
                smem,
                sites,
            ],
        })
    }

    /// Whether a window's fused form reads its loop checks: some fused
    /// kernel has a loop. Only such a window records them.
    pub(crate) fn reads_frontiers(&self) -> bool {
        self.fused.iter().any(|fused| !fused.loops.is_empty())
    }

    /// `window` — a window's metrics over a `len`-byte chunk, its walk's
    /// loop checks in `frontiers` — as the fused launch counts the same
    /// work.
    pub(crate) fn fused_form(
        &self,
        window: &ExecMetrics,
        frontiers: &Frontiers,
        len: usize,
        config: &ExecConfig,
    ) -> ExecMetrics {
        let stream_len = Program::stream_len(len) as u64;
        let [segments, intermediates, fallbacks, shift_groups, static_overlap, regs, smem, sites] =
            self.shape;
        let mut form = ExecMetrics {
            counters: CtaCounters::new(sites as usize),
            segments: segments as usize,
            intermediates: intermediates as usize,
            static_overlap: u64::from(static_overlap),
            fallbacks: u64::from(fallbacks),
            shift_groups: shift_groups as usize,
            smem_bytes: smem as usize,
            regs_per_thread: regs,
            threads: config.threads,
            peak_materialized_bytes: window.peak_materialized_bytes,
            ..ExecMetrics::default()
        };
        if let Some(charged) = self.sequential {
            // The loops stay walked; the statements that run fused go.
            let passes = stream_len.div_ceil(config.window_bits() as u64);
            let words = stream_len.div_ceil(WORD_BITS as u64);
            let [alu, loads, instructions] = charged.map(u64::from);
            let loop_trips = std::mem::take(&mut form.counters.loop_trips);
            let c = &mut form.counters;
            *c = CtaCounters { loop_trips, ..window.counters.clone() };
            c.alu_ops -= alu * passes;
            c.global_load_words -= loads * words;
            c.global_store_words -= instructions * words;
            c.barriers -= instructions;
        }
        for fused in self.fused.iter() {
            if !fused.replay(frontiers, stream_len, config, &mut form) {
                // A window needed more overlap than it holds: the windows
                // so far stay counted and the segment — the whole program
                // — runs as walked, as the batch executor's fallback does.
                form.fallbacks += 1;
                form.counters += &window.counters;
            }
        }
        form.window_iterations = form.counters.window_iterations;
        form
    }
}

impl Fused {
    fn new(counts: SiteCounts, info: &OverlapInfo, allowance: u64) -> Fused {
        let inside = |site: u32| counts.loops.iter().filter(|l| l.parent == Some(site)).count();
        let loops = (counts.loops.iter())
            .map(|l| Loop {
                site: l.site,
                reductions: 1 + inside(l.site) as u32,
                body: l.body,
                growth: info.loop_growth[l.site as usize],
            })
            .collect();
        Fused {
            outside: counts.outside,
            entries: counts.loops.iter().filter(|l| l.parent.is_none()).count() as u32,
            loops,
            base: info.base,
            left: info.base.left + allowance,
        }
    }

    /// Replays the batch executor's window loop over a `stream_len`-bit
    /// stream, each window taking as many trips of a loop as `frontiers`
    /// has checks of it with a bit inside the window, and adds what every
    /// window ran to `form`. `false` when a window needed more overlap than
    /// a window holds: what ran until then stays counted.
    fn replay(
        &self,
        frontiers: &Frontiers,
        stream_len: u64,
        config: &ExecConfig,
        form: &mut ExecMetrics,
    ) -> bool {
        let window_bits = config.window_bits() as u64;
        let capacity = window_bits - WORD_BITS as u64;
        let (mut left, mut right) = (self.left, self.base.right);
        let (mut store_pos, mut overlap_bits, mut stored_windows) = (0, 0, 0);
        let (mut dynamic_sum, mut dynamic_max) = (0, 0);
        let (c, retries) = (&mut form.counters, &mut form.retries);
        while store_pos < stream_len {
            let start = (store_pos as i64 - left as i64).max(0) as u64;
            let end = store_pos + window_bits - left;
            let step = window_bits - left - right;
            // The windows no check reaches take no trip: up to the first
            // one that some check does, they run as a loop-free kernel's.
            let reach = if self.loops.is_empty() {
                u64::MAX
            } else {
                frontiers.checks().map(|check| check.next_from(start)).min().unwrap_or(u64::MAX)
            };
            if reach >= end {
                let quiet = (reach - end) / step + 1;
                let windows = quiet.min((stream_len - store_pos).div_ceil(step));
                add(c, &self.outside, windows);
                c.reductions += u64::from(self.entries) * windows;
                c.window_iterations += windows;
                overlap_bits += windows * (left + right);
                stored_windows += windows;
                store_pos = (store_pos + windows * step).min(stream_len);
                continue;
            }
            add(c, &self.outside, 1);
            c.reductions += u64::from(self.entries);
            c.window_iterations += 1;
            let mut required = self.base;
            for l in self.loops.iter() {
                let trips = (frontiers.checks())
                    .filter(|check| check.site == l.site as usize && check.next_from(start) < end)
                    .count() as u64;
                add(c, &l.body, trips);
                c.reductions += u64::from(l.reductions) * trips;
                c.loop_trips[l.site as usize] += trips;
                let beyond = trips.saturating_sub(BASE_TRIPS);
                required.left += l.growth.left * beyond;
                required.right += l.growth.right * beyond;
            }
            if !required.fits(Hull { left, right }) {
                if required.total() > capacity {
                    return false;
                }
                // Re-run the window with the overlap enlarged.
                left = left.max(required.left);
                right = right.max(required.right);
                *retries += 1;
                continue;
            }
            let dynamic = required.total().saturating_sub(self.base.total());
            dynamic_sum += dynamic;
            dynamic_max = dynamic_max.max(dynamic);
            overlap_bits += left + right;
            stored_windows += 1;
            store_pos = (store_pos + step).min(stream_len);
        }
        if stored_windows > 0 {
            // Merged across segments as the batch executor does: the worst.
            let frac = overlap_bits as f64 / (overlap_bits + stream_len).max(1) as f64;
            form.recompute_frac = form.recompute_frac.max(frac);
            let avg = dynamic_sum as f64 / stored_windows as f64;
            form.dynamic_overlap_avg = form.dynamic_overlap_avg.max(avg);
            form.dynamic_overlap_max = form.dynamic_overlap_max.max(dynamic_max);
        }
        true
    }
}

/// Adds `times` runs of `counts` to `c`.
fn add(c: &mut CtaCounters, counts: &WindowCounts, times: u64) {
    let times = |count: u32| u64::from(count) * times;
    c.alu_ops += times(counts.alu_ops);
    c.smem_stores += times(counts.smem_stores);
    c.smem_loads += times(counts.smem_loads);
    c.barriers += times(counts.barriers);
    c.global_load_words += times(counts.global_load_words);
    c.global_store_words += times(counts.global_store_words);
}

impl BitGen {
    /// Group `group`'s streaming window over a `len`-byte chunk — its
    /// metrics as [`bitgen_exec::PreparedProgram::execute_window_into`]
    /// reports them, the walk priced as sequential blockwise execution,
    /// and the loop checks it recorded into the scratch's
    /// [`bitgen_exec::ExecScratch::frontiers`] — priced instead as the
    /// paper's fused launch on this engine's rung: DTM, the whole program
    /// one kernel over overlapping windows with the loops' trips read off
    /// `frontiers`; or DTM- (under [`Scheme::DtmStatic`], or for a program
    /// with an `Add`), straight-line segments fused and `while` loops
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
        frontiers: &Frontiers,
        len: usize,
    ) -> Option<ExecMetrics> {
        let prices = self.stream_prices.as_deref()?;
        Some(prices[group].fused_form(window, frontiers, len, &self.exec_config()))
    }

    /// Whether group `group`'s windows record their loop checks for
    /// [`BitGen::fused_form`]: its fused form is DTM's with a loop.
    pub fn records_frontiers(&self, group: usize) -> bool {
        self.stream_prices.as_deref().is_some_and(|prices| prices[group].reads_frontiers())
    }
}
