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
//! or a later one's program with an `Add`) each run of straight-line
//! statements is a kernel and each `while` runs sequentially as walked;
//! under Base only runs of bitwise instructions fuse, under Sequential none.
//!
//! Neither is emulated. Outside its loops a kernel runs every instruction
//! once per CTA window, and a loop body once per trip, so a window's
//! events are its kernel's static counts plus its trips times its bodies'
//! (`bitgen_kernel::Kernel::site_counts`). The trips are the data's: the
//! walk records every `while` check's condition ([`Frontiers`]), and a
//! CTA window takes as many trips of a loop as the walk has checks of it
//! with a bit inside the window. Segments and kernels are the batch
//! planner's ([`plan_segments`]), and the batch executor's window loop
//! ([`bitgen_passes::Window::run`]) steps the windows, counted instead of
//! emulated: a kernel without loops is its closed form.
//!
//! `fused = window − walk(fused statements) + Σ windows`, resident what the
//! kernels store and what walked segments write. That is every field
//! `BatchPlan::new(program, rung).execute` counts on the CTA emulator for a
//! one-push stream wherever no fused kernel loops, so an exact group's batch
//! scan bills it ([`crate::ScanSession`]), and under DTM with loops wherever
//! the walk's global frontier is each window's local one
//! (`tests/served_pricing.rs`).

use crate::engine::BitGen;
use bitgen_exec::{
    plan_segments, sequential_charge, ExecConfig, ExecMetrics, PreparedProgram, Scheme,
};
use bitgen_gpu::CtaCounters;
use bitgen_ir::{Check, Frontiers, Op, Program, Stmt};
use bitgen_kernel::{Compiler, SiteCounts, WindowCounts, WORD_BITS};
use bitgen_passes::{Hull, Overflow, OverlapInfo, WindowRunner, WindowTally};

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
    /// The launch as `BatchPlan::execute` reports it before its first
    /// window: segments, intermediates, segments that fall back before
    /// any window, and what the kernels ask of a CTA.
    shape: ExecMetrics,
    /// Of what the walk writes, Base's and DTM-'s kernels do not store
    /// `unstored` streams; DTM's one kernel stores `stored`.
    unstored: u32,
    stored: u32,
    /// [`bitgen_passes::Window::first`]'s error for the first segment that
    /// outgrows the window, which a batch slot may fail with.
    pub(crate) overflow: Option<Overflow>,
    /// Whether the fused form is the emulator's count on the engine's own
    /// scheme (priced on it, no fused kernel loops): the group's slots walk.
    pub(crate) exact: bool,
}

/// A fused segment's kernel, reduced to what running its windows reads.
#[derive(Debug, Clone)]
struct Fused {
    /// A window's events outside the loops, and each loop's per trip.
    counts: SiteCounts,
    /// The segment's overlap analysis.
    info: OverlapInfo,
}

impl TwinPrice {
    /// Every group's price for an engine running under `config`.
    pub(crate) fn of_all(programs: &[PreparedProgram], config: &ExecConfig) -> Box<[TwinPrice]> {
        // The groups share most of their classes: one circuit table.
        let mut compiler = Compiler::default();
        programs.iter().map(|prepared| TwinPrice::of(prepared, config, &mut compiler)).collect()
    }

    /// Plans `prepared`'s program as `BatchPlan::new` does on the engine's
    /// rung, kernels at merge size one, keeping only their counts.
    ///
    /// # Panics
    ///
    /// Panics if a fused segment holds an `if`. A lowering's only `if`
    /// guards a MatchStar `Add` (`bitgen_ir::lower`), which keeps its
    /// program at DTM-, where a statement holding an `Add` runs
    /// sequentially.
    fn of(prepared: &PreparedProgram, config: &ExecConfig, compiler: &mut Compiler) -> TwinPrice {
        let program = prepared.program();
        // An `Add`'s carry run per window is not recorded: its program
        // stays at DTM- or below, which run additions sequentially.
        let mut adds = false;
        program.for_each_op(&mut |op| adds |= matches!(op, Op::Add { .. }));
        let rung = config.scheme.min(if adds { Scheme::DtmStatic } else { Scheme::Dtm });
        let (segments, intermediates) = plan_segments(program, (rung, 1), compiler, |plan| plan);
        let mut shape =
            ExecMetrics { segments: segments.len(), intermediates, ..Default::default() };
        let (mut sequential, mut fused) = ([0u32; 3], Vec::new());
        let (mut unstored, mut stored, mut overflow) = (0, 0, None);
        for (seg, plan) in segments {
            let Some(plan) = plan else { continue };
            plan.charge_shape(&mut shape, config);
            if let Err(outgrown) = config.window().first(&plan.info) {
                // Runs sequentially, as the batch path's fallback does.
                shape.fallbacks += 1;
                overflow = overflow.or(Some(outgrown));
                continue;
            }
            let counts = plan.compiled.kernel.site_counts(config.threads);
            fused.push(Fused { counts: counts.expect("a fused kernel has no `if`"), info: plan.info });
            stored += seg.outputs.len() as u32;
            if rung == Scheme::Dtm {
                continue;
            }
            for stmt in &program.stmts()[seg.stmts] {
                let Stmt::Op(op) = stmt else { unreachable!("a fused kernel has no `if`") };
                unstored += u32::from(!seg.outputs.contains(&op.dst()));
                let gates = match op {
                    Op::MatchCc { class, .. } => {
                        prepared.class_gates_of(class).expect("a class of the group's table")
                    }
                    _ => 0,
                };
                let (alu, loads) = sequential_charge(op, gates);
                let charge = [alu as u32, loads as u32, 1];
                (0..3).for_each(|i| sequential[i] += charge[i]);
            }
        }
        let whole = rung == Scheme::Dtm && !fused.is_empty();
        let (sequential, fused) = ((!whole).then_some(sequential), fused.into_boxed_slice());
        let twin = TwinPrice { sequential, fused, shape, unstored, stored, overflow, exact: false };
        let exact = rung == config.scheme && !twin.reads_frontiers();
        TwinPrice { exact, ..twin }
    }

    /// Whether a window's fused form reads its loop checks: some fused
    /// kernel has a loop. Only such a window records them.
    pub(crate) fn reads_frontiers(&self) -> bool {
        self.fused.iter().any(|fused| !fused.counts.loops.is_empty())
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
        let (bytes, written) = (stream_len.div_ceil(8) as usize, window.peak_materialized_bytes);
        let peak_materialized_bytes = match self.sequential {
            Some(_) => written - self.unstored as usize * bytes,
            None => self.stored as usize * bytes,
        };
        let mut form =
            ExecMetrics { threads: config.threads, peak_materialized_bytes, ..self.shape.clone() };
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
        let windows = config.window();
        for fused in self.fused.iter() {
            let (mut tally, counters) = (WindowTally::default(), &mut form.counters);
            let mut served =
                Served { fused, frontiers, bits: windows.bits, trips: vec![], counters };
            let run = windows.run(&fused.info, stream_len, &mut tally, &mut served);
            form.add_windows(&tally);
            if run.is_err() {
                // A window needed more overlap than it holds: the windows
                // so far stay counted and the segment — the whole program
                // — runs as walked, as the batch executor's fallback does.
                form.fallbacks += 1;
                form.counters += &window.counters;
                form.peak_materialized_bytes = written;
            }
        }
        form
    }
}

/// A served window's fused segment as the window loop runs it: a CTA
/// window takes as many trips of a loop as `frontiers` has checks of it
/// with a bit inside the window, and is counted, not emulated.
struct Served<'a> {
    fused: &'a Fused,
    frontiers: &'a Frontiers,
    bits: u64,
    /// The last window's trips per site.
    trips: Vec<u64>,
    counters: &'a mut CtaCounters,
}

impl WindowRunner for Served<'_> {
    type Error = Overflow;

    fn run(&mut self, start: i64, step: u64, most: u64) -> Result<(u64, Hull), Overflow> {
        let (counts, c) = (&self.fused.counts, &mut *self.counters);
        let (from, end) = (start.max(0) as u64, (start + self.bits as i64) as u64);
        // The windows no check reaches take no trip: up to the first one
        // that some check does, they run as a loop-free kernel's.
        let checks = || self.frontiers.checks();
        let reach = if counts.loops.is_empty() {
            u64::MAX
        } else {
            checks().map(|check| check.next_from(from)).min().unwrap_or(u64::MAX)
        };
        let quiet = reach >= end;
        let windows = if quiet { ((reach - end) / step + 1).min(most) } else { 1 };
        add(c, &counts.outside, windows);
        c.window_iterations += windows;
        self.trips.resize(self.fused.info.loop_count(), 0);
        for l in &counts.loops {
            let site = l.site as usize;
            let taken = |check: &Check| check.site == site && check.next_from(from) < end;
            let trips = if quiet { 0 } else { checks().filter(taken).count() as u64 };
            add(c, &l.body, trips);
            // A trip's check, and a check per entry: once per window at
            // top level, once per trip of the loop around it otherwise.
            c.reductions += trips + l.parent.map_or(windows, |parent| self.trips[parent as usize]);
            c.loop_trips[site] += trips;
            self.trips[site] = trips;
        }
        Ok((windows, self.fused.info.required(&self.trips)))
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
    /// `frontiers`; DTM- (under [`Scheme::DtmStatic`], or for a later
    /// scheme's program with an `Add`), straight-line segments fused and
    /// `while` loops sequential as walked; Base, runs of bitwise
    /// instructions fused; or Sequential, the walk itself. A push bills
    /// whichever launch is cheaper ([`crate::StreamScanner::metrics`]), the
    /// walk on a tie.
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
    ) -> ExecMetrics {
        self.stream_prices[group].fused_form(window, frontiers, len, &self.exec_config())
    }

    /// Whether group `group`'s windows record their loop checks for
    /// [`BitGen::fused_form`]: its fused form is DTM's with a loop.
    pub fn records_frontiers(&self, group: usize) -> bool {
        self.stream_prices[group].reads_frontiers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
    use bitgen_bitstream::{Basis, BitStream};
    use bitgen_exec::{ClassStreams, ExecScratch};
    use bitgen_ir::{walk_window, CarryState, RunControl};
    use bitgen_workloads::{generate, AppKind, WorkloadConfig};

    /// A window whose trips are not its walk's: its start, and its trips
    /// per site as counted and as walked.
    type Diverged = (i64, Vec<u64>, Vec<u64>);

    /// The counting runner, every window it takes walked over its extent
    /// (`tests/window_semantics.rs` holds the emulator to the same walk).
    struct Checked<'a> {
        served: Served<'a>,
        program: &'a Program,
        basis: &'a Basis,
        diverged: Vec<Diverged>,
    }

    impl WindowRunner for Checked<'_> {
        type Error = Overflow;

        fn run(&mut self, start: i64, step: u64, most: u64) -> Result<(u64, Hull), Overflow> {
            let (windows, required) = self.served.run(start, step, most)?;
            let counted = &self.served.trips;
            for at in (0..windows).map(|i| start + (i * step) as i64) {
                let extent = at..at + self.served.bits as i64;
                let walked = walk_window(self.program, self.basis, extent).unwrap().trips;
                if counted.iter().all(|&trips| trips == 0) {
                    // Taken as quiet: no check reaches the window.
                    assert!(walked.iter().all(|&t| t == 0), "a quiet window at {at}: {walked:?}");
                }
                if walked[..counted.len()] != counted[..] {
                    self.diverged.push((at, counted.clone(), walked));
                }
            }
            Ok((windows, required))
        }
    }

    /// Per group of `engine`, the windows of its fused form over `chunk`
    /// whose counted trips are not their walk's.
    fn diverged(engine: &BitGen, chunk: &[u8]) -> Vec<Vec<Diverged>> {
        let (config, programs) = (engine.exec_config(), engine.stream_programs());
        let prices = &engine.stream_prices;
        let basis = Basis::transpose(chunk);
        let mut classes = ClassStreams::new();
        programs[0].evaluate_classes(&basis, &mut classes);
        let (ctl, mut scratch) = (RunControl::unlimited(), ExecScratch::new());
        let stream_len = Program::stream_len(chunk.len()) as u64;
        let mut groups = Vec::new();
        for (group, (prepared, price)) in programs.iter().zip(prices).enumerate() {
            let mut carry = CarryState::for_layout(prepared.carry_layout());
            let mut union = BitStream::zeros(chunk.len());
            scratch.frontiers.restart(engine.records_frontiers(group));
            let walked = prepared.execute_window_into(
                &classes,
                &basis,
                &config,
                &mut scratch,
                &ctl,
                &mut carry,
                &mut union,
            );
            walked.expect("clean window");
            let mut diverged = Vec::new();
            for fused in price.fused.iter() {
                let mut counters = CtaCounters::new(fused.info.loop_count());
                let (frontiers, bits) = (&scratch.frontiers, config.window().bits);
                let served =
                    Served { fused, frontiers, bits, trips: vec![], counters: &mut counters };
                let program = prepared.program();
                let mut checked = Checked { served, program, basis: &basis, diverged };
                let mut tally = WindowTally::default();
                // An overflow stops the segment; what ran was checked.
                let _ = config.window().run(&fused.info, stream_len, &mut tally, &mut checked);
                diverged = checked.diverged;
            }
            groups.push(diverged);
        }
        groups
    }

    /// Where the counting runner's trips are not the window's own, as
    /// DESIGN.md §10 "What is exact and what is bounded" accounts for
    /// them: the application, rules, chunk and group, and whether every
    /// such window counts at least its walk's trips at every site (the
    /// walk's global frontier reaching a window whose own iterate died
    /// earlier) or not (a window's local loop outrunning the frontier).
    const DIVERGENT: &[(&str, usize, usize, usize, bool)] = &[
        ("Brill", 8, 65536, 0, true),
        ("Brill", 32, 4096, 1, true),
        ("Brill", 32, 65536, 0, true),
        ("Brill", 32, 65536, 1, true),
        ("Brill", 32, 65536, 5, true),
        ("Brill", 32, 65536, 7, true),
        ("Dotstar", 8, 65536, 0, true),
        ("Dotstar", 8, 65536, 3, true),
        ("Dotstar", 8, 65536, 4, true),
        ("Dotstar", 8, 65536, 7, false),
        ("Dotstar", 32, 4096, 2, true),
        ("Dotstar", 32, 4096, 3, true),
        ("Dotstar", 32, 65536, 0, true),
        ("Dotstar", 32, 65536, 2, true),
        ("Dotstar", 32, 65536, 3, true),
        ("Dotstar", 32, 65536, 4, true),
        ("Dotstar", 32, 65536, 6, true),
        ("Dotstar", 32, 65536, 7, true),
        ("Snort", 32, 65536, 0, true),
        ("Ranges1", 32, 65536, 5, true),
        ("TCP", 8, 65536, 5, true),
    ];

    #[test]
    fn every_counted_window_is_its_walk_window() {
        let mut divergent = Vec::new();
        for (kind, rules) in AppKind::ALL.into_iter().flat_map(|kind| [(kind, 8), (kind, 32)]) {
            let (regexes, input_len, seed) = (rules, 65536, 0xb17);
            let workload = WorkloadConfig { regexes, input_len, seed, witness_density: 0.05 };
            let w = generate(kind, &workload);
            let patterns: Vec<&str> = w.patterns.iter().map(String::as_str).collect();
            let engine = BitGen::compile_with(&patterns, EngineConfig::default()).unwrap();
            for len in [64, 4096, 65536] {
                for (group, windows) in diverged(&engine, &w.input[..len]).iter().enumerate() {
                    let name = kind.name();
                    for (at, counted, walked) in windows {
                        println!(
                            "{name} ×{rules} group {group} at {len}: the window at {at} counts \
                             trips {counted:?}, walks {walked:?}"
                        );
                    }
                    let over = |(_, counted, walked): &Diverged| {
                        counted.iter().zip(walked).all(|(counted, walked)| counted >= walked)
                    };
                    if !windows.is_empty() {
                        divergent.push((name, rules, len, group, windows.iter().all(over)));
                    }
                }
            }
        }
        assert_eq!(divergent, DIVERGENT);
    }
}
