//! The SIMT CTA emulator.
//!
//! Executes a [`Kernel`] the way one CTA would: T lock-step threads, each
//! holding one 32-bit word per register; cross-thread data moves only
//! through shared-memory slots. The emulator *checks* the barrier
//! discipline — a shifted read from a slot stored since the last barrier,
//! or a store to a slot read since the last barrier, is the Fig. 6 data
//! race and aborts with [`RaceError`] instead of silently producing the
//! corrupt values a real GPU would.
//!
//! The emulator executes one *window* at a time: a span of
//! `T × 32` bit positions starting at a (possibly negative) offset into
//! the streams. Dependency-aware thread-data mapping — choosing window
//! offsets, store regions, overlap retries — is the executor's job
//! (`bitgen-exec`); the emulator only runs the kernel faithfully.

use crate::counters::CtaCounters;
use crate::fault::{FaultKind, FaultPlan};
use bitgen_bitstream::BitStream;
use bitgen_kernel::{KOp, KStmt, Kernel, Reg, WORD_BITS};
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// A shared-memory data race detected by the emulator.
///
/// On real hardware this is the silent corruption of Fig. 6; here it is a
/// hard error so tests can prove the generated barrier placement is
/// sufficient (and that removing barriers is caught).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceError {
    /// Which slot raced.
    pub slot: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for RaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shared-memory race on slot {}: {}", self.slot, self.message)
    }
}

impl Error for RaceError {}

/// Inputs available to a window execution.
#[derive(Debug, Clone, Copy)]
pub struct WindowInputs<'a> {
    /// The eight basis bitstreams (full length).
    pub basis: &'a [BitStream; 8],
    /// Materialised global input streams (full length), indexed by the
    /// kernel's `LoadGlobal` table.
    pub globals: &'a [&'a BitStream],
}

/// A reusable CTA execution context for one kernel.
///
/// Registers, shared memory and the window's output words each live in
/// one flat buffer (`index × threads + thread`), allocated once here and
/// rewritten in place by every window: executing allocates nothing.
#[derive(Debug)]
pub struct Cta<'k> {
    kernel: &'k Kernel,
    threads: usize,
    regs: Vec<u32>,
    smem: Vec<u32>,
    out_words: Vec<u32>,
    loop_trips: Vec<u64>,
    /// Per-slot epoch flags for race checking.
    stored_since_barrier: Vec<bool>,
    read_since_barrier: Vec<bool>,
    /// Armed fault, its remaining event countdown, and whether it fired.
    fault: Option<FaultPlan>,
    fault_countdown: u32,
    fault_fired: bool,
}

/// Checks once, for every path of the kernel including bodies a window
/// may skip, that each register and shared-memory slot it names is inside
/// the file it declares.
fn check_bounds(stmts: &[KStmt], kernel: &Kernel) {
    let (regs, slots) = (kernel.num_regs, kernel.num_slots);
    for stmt in stmts {
        let in_bounds = match stmt {
            KStmt::Op(op) => {
                op.regs().all(|r| r.0 < regs)
                    && match op {
                        KOp::SmemStore { slot, .. } | KOp::ShiftRead { slot, .. } => slot.0 < slots,
                        _ => true,
                    }
            }
            KStmt::If { cond, body } | KStmt::While { cond, body, .. } => {
                check_bounds(body, kernel);
                cond.0 < regs
            }
        };
        assert!(in_bounds, "{stmt:?} is outside the kernel's {regs} registers and {slots} slots");
    }
}

impl<'k> Cta<'k> {
    /// Creates an execution context for `kernel` with `threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero, or if `kernel` names a register or a
    /// shared-memory slot outside the `num_regs` / `num_slots` it
    /// declares (a code generator bug; hand-built kernels meet it too).
    pub fn new(kernel: &'k Kernel, threads: usize) -> Cta<'k> {
        assert!(threads > 0, "a CTA needs at least one thread");
        check_bounds(&kernel.stmts, kernel);
        Cta {
            kernel,
            threads,
            regs: vec![0; kernel.num_regs as usize * threads],
            smem: vec![0; kernel.num_slots as usize * threads],
            out_words: vec![0; kernel.num_outputs as usize * threads],
            loop_trips: vec![0; kernel.num_sites as usize],
            stored_since_barrier: vec![false; kernel.num_slots as usize],
            read_since_barrier: vec![false; kernel.num_slots as usize],
            fault: None,
            fault_countdown: 0,
            fault_fired: false,
        }
    }

    /// Where the `threads` words of entry `index` of a flat file live.
    fn lanes(&self, index: u32) -> Range<usize> {
        let at = index as usize * self.threads;
        at..at + self.threads
    }

    /// Arms a single-shot [`FaultPlan`]: the trigger-th occurrence of the
    /// plan's event is corrupted, once, across all subsequent windows.
    pub fn arm_fault(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
        self.fault_countdown = plan.trigger.max(1);
        self.fault_fired = false;
    }

    /// Whether the armed fault has corrupted an event yet. A plan whose
    /// trigger exceeds the events the run produces never fires — it
    /// injected nothing.
    pub fn fault_fired(&self) -> bool {
        self.fault_fired
    }

    /// Counts down toward the armed fault on one occurrence of `kind`'s
    /// event; returns the plan's mixed seed bits exactly once, at the
    /// firing occurrence.
    fn fault_due(&mut self, kind: FaultKind) -> Option<u64> {
        let plan = self.fault?;
        if plan.kind != kind || self.fault_fired {
            return None;
        }
        self.fault_countdown -= 1;
        if self.fault_countdown > 0 {
            return None;
        }
        self.fault_fired = true;
        Some(plan.seed)
    }

    /// Window width in bits.
    pub fn window_bits(&self) -> usize {
        self.threads * WORD_BITS
    }

    /// Executes the kernel over the window starting at bit `start`
    /// (negative starts read zeros), updating `counters`; the results are
    /// in [`Cta::output_words`] and [`Cta::loop_trips`] until the next
    /// window.
    ///
    /// # Errors
    ///
    /// Returns [`RaceError`] if the kernel violates the barrier
    /// discipline.
    pub fn run_window(
        &mut self,
        inputs: WindowInputs<'_>,
        start: i64,
        counters: &mut CtaCounters,
    ) -> Result<(), RaceError> {
        // Fresh register state per window: interleaved execution never
        // forwards values between iterations (that is the whole point of
        // recomputation), and stale values would mask missing-overlap
        // bugs.
        self.regs.fill(0);
        self.out_words.fill(0);
        self.loop_trips.fill(0);
        // Race-check flags deliberately persist across windows: the real
        // kernel's block loop runs back-to-back iterations, so a trailing
        // barrier elided at the end of one iteration races with the first
        // shared-memory store of the next.
        counters.window_iterations += 1;
        if self.fault_due(FaultKind::Panic).is_some() {
            panic!("injected fault: forced panic on window entry");
        }
        let kernel = self.kernel;
        self.run_stmts(&kernel.stmts, inputs, start, counters)?;
        if let Some(bits) = self.fault_due(FaultKind::CorruptTrips) {
            // Zero a recorded trip count: under-reporting the dynamic
            // reach is the dangerous direction (over-reporting only makes
            // the executor more conservative).
            if !self.loop_trips.is_empty() {
                let i = bits as usize % self.loop_trips.len();
                self.loop_trips[i] = 0;
            }
        }
        if let Some(bits) = self.fault_due(FaultKind::CorruptCounter) {
            counters.window_iterations =
                counters.window_iterations.wrapping_add(1 + bits % 3);
        }
        for (total, trips) in counters.loop_trips.iter_mut().zip(&self.loop_trips) {
            *total += trips;
        }
        Ok(())
    }

    /// Per output stream, in order: the T words the last window computed.
    pub fn output_words(&self) -> std::slice::ChunksExact<'_, u32> {
        self.out_words.chunks_exact(self.threads)
    }

    /// Per dynamic site: trips taken by each `while` loop, or the longest
    /// carry-feeding run (bits) observed by each `add`, during the last
    /// window.
    pub fn loop_trips(&self) -> &[u64] {
        &self.loop_trips
    }

    fn run_stmts(
        &mut self,
        stmts: &[KStmt],
        inputs: WindowInputs<'_>,
        start: i64,
        counters: &mut CtaCounters,
    ) -> Result<(), RaceError> {
        for stmt in stmts {
            match stmt {
                KStmt::Op(op) => self.exec(op, inputs, start, counters)?,
                KStmt::If { cond, body } => {
                    counters.reductions += 1;
                    if self.any(*cond) {
                        self.run_stmts(body, inputs, start, counters)?;
                    } else {
                        counters.skipped_ops += KStmt::count_ops(body) as u64;
                    }
                }
                KStmt::While { cond, body, site } => {
                    // Fixpoint bound: a marker loop cannot need more trips
                    // than there are window positions (plus slack).
                    let mut fuel = self.window_bits() as u64 + 4;
                    loop {
                        counters.reductions += 1;
                        if !self.any(*cond) {
                            break;
                        }
                        assert!(fuel > 0, "kernel while-loop exceeded its fixpoint bound");
                        fuel -= 1;
                        self.loop_trips[*site as usize] += 1;
                        self.run_stmts(body, inputs, start, counters)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn exec(
        &mut self,
        op: &KOp,
        inputs: WindowInputs<'_>,
        start: i64,
        counters: &mut CtaCounters,
    ) -> Result<(), RaceError> {
        match op {
            KOp::LoadBasis { dst, bit } => {
                self.load(*dst, &inputs.basis[*bit as usize], start, counters)
            }
            KOp::LoadGlobal { dst, input } => {
                self.load(*dst, inputs.globals[*input as usize], start, counters)
            }
            KOp::Const { dst, ones } => {
                counters.alu_ops += 1;
                let dst = self.lanes(dst.0);
                self.regs[dst].fill(if *ones { u32::MAX } else { 0 });
            }
            KOp::Not { dst, a } => self.binop(*dst, *a, *a, counters, |x, _| !x),
            KOp::And { dst, a, b } => self.binop(*dst, *a, *b, counters, |x, y| x & y),
            KOp::Add { dst, a, b, site } => {
                // Window-wide long addition: on hardware a CTA-level
                // carry scan (log T steps through shared memory); here an
                // exact sequential ripple plus the corresponding costs.
                counters.alu_ops += (self.threads.ilog2() as u64).max(1) + 2;
                counters.smem_stores += 1;
                counters.smem_loads += 1;
                counters.barriers += 2;
                let (dst, a, b) =
                    (self.lanes(dst.0).start, self.lanes(a.0).start, self.lanes(b.0).start);
                let mut carry = 0u64;
                let mut run = 0u64;
                let mut max_run = 0u64;
                for t in 0..self.threads {
                    let va = self.regs[a + t] as u64;
                    let vb = self.regs[b + t] as u64;
                    let sum = va + vb + carry;
                    self.regs[dst + t] = sum as u32;
                    carry = sum >> 32;
                    // The *exact* carry reach: positions receiving a
                    // carry-in are `sum ⊕ a ⊕ b`; the longest consecutive
                    // carry run is how far this addition reached across
                    // blocks — the dynamic quantity the overlap check
                    // compares against the window margin.
                    let mut carry_in = (sum as u32) ^ (va as u32) ^ (vb as u32);
                    for _ in 0..32 {
                        if carry_in & 1 == 1 {
                            run += 1;
                            max_run = max_run.max(run);
                        } else {
                            run = 0;
                        }
                        carry_in >>= 1;
                    }
                }
                let slot = &mut self.loop_trips[*site as usize];
                *slot = (*slot).max(max_run);
            }
            KOp::Or { dst, a, b } => self.binop(*dst, *a, *b, counters, |x, y| x | y),
            KOp::Xor { dst, a, b } => self.binop(*dst, *a, *b, counters, |x, y| x ^ y),
            KOp::Copy { dst, a } => {
                counters.alu_ops += 1;
                let (dst, a) = (self.lanes(dst.0), self.lanes(a.0));
                self.regs.copy_within(a, dst.start);
            }
            KOp::SmemStore { slot, src } => {
                counters.smem_stores += 1;
                let s = slot.0 as usize;
                if self.read_since_barrier[s] || self.stored_since_barrier[s] {
                    return Err(RaceError {
                        slot: slot.0,
                        message: "store to a slot already accessed since the last barrier"
                            .to_string(),
                    });
                }
                self.stored_since_barrier[s] = true;
                let (words, src) = (self.lanes(slot.0), self.lanes(src.0));
                self.smem[words.clone()].copy_from_slice(&self.regs[src]);
                if let Some(bits) = self.fault_due(FaultKind::SmemFlip) {
                    let word = bits as usize % self.threads;
                    let bit = (bits >> 8) % 32;
                    self.smem[words.start + word] ^= 1 << bit;
                }
            }
            KOp::Barrier => {
                // A skipped barrier still costs a barrier on hardware; only
                // its synchronisation effect (the flag clearing) is lost.
                counters.barriers += 1;
                if self.fault_due(FaultKind::SkipBarrier).is_some() {
                    return Ok(());
                }
                self.stored_since_barrier.fill(false);
                self.read_since_barrier.fill(false);
            }
            KOp::ShiftRead { dst, slot, shift } => {
                counters.smem_loads += 1;
                let s = slot.0 as usize;
                if self.stored_since_barrier[s] {
                    return Err(RaceError {
                        slot: slot.0,
                        message: format!(
                            "shifted read of a slot stored since the last barrier (shift {shift})"
                        ),
                    });
                }
                self.read_since_barrier[s] = true;
                let (dst, src) = (self.lanes(dst.0), &self.smem[self.lanes(slot.0)]);
                for (t, w) in self.regs[dst].iter_mut().enumerate() {
                    // Window-level shift: destination window bit i reads
                    // source window bit i - shift (advance) — bits outside
                    // the window read as zero.
                    let bit_start = t as i64 * WORD_BITS as i64 - shift;
                    *w = gather_word(src, bit_start);
                }
            }
            KOp::StoreGlobal { output, src } => {
                counters.global_store_words += self.threads as u64;
                let (words, src) = (self.lanes(*output), self.lanes(src.0));
                self.out_words[words].copy_from_slice(&self.regs[src]);
            }
        }
        Ok(())
    }

    /// Loads this window's words of `stream` (zero outside it) into `dst`.
    fn load(&mut self, dst: Reg, stream: &BitStream, start: i64, counters: &mut CtaCounters) {
        counters.global_load_words += self.threads as u64;
        let dst = self.lanes(dst.0);
        for (t, w) in self.regs[dst].iter_mut().enumerate() {
            *w = stream_word(stream, start + (t * WORD_BITS) as i64);
        }
    }

    /// `dst[t] = f(a[t], b[t])` on every lane; `dst` may be `a` or `b`.
    fn binop(
        &mut self,
        dst: Reg,
        a: Reg,
        b: Reg,
        counters: &mut CtaCounters,
        f: impl Fn(u32, u32) -> u32,
    ) {
        counters.alu_ops += 1;
        let (dst, a, b) = (self.lanes(dst.0).start, self.lanes(a.0).start, self.lanes(b.0).start);
        for t in 0..self.threads {
            self.regs[dst + t] = f(self.regs[a + t], self.regs[b + t]);
        }
    }

    /// CTA-wide `any` reduction of a register (the `atomicOr` of §6).
    fn any(&self, reg: Reg) -> bool {
        self.regs[self.lanes(reg.0)].iter().any(|&w| w != 0)
    }
}

/// Extracts the 32-bit word of `stream` starting at signed bit offset
/// `start`. Positions outside the stream read as zero: outside its words
/// here, past its length inside its last word by `BitStream`'s invariant.
fn stream_word(stream: &BitStream, start: i64) -> u32 {
    let words = stream.as_words();
    let word = |i: i64| usize::try_from(i).ok().and_then(|i| words.get(i)).map_or(0, |&w| w);
    let (at, off) = (start.div_euclid(64), start.rem_euclid(64) as u32);
    let hi = if off > 32 { word(at + 1) << (64 - off) } else { 0 };
    (word(at) >> off | hi) as u32
}

/// Extracts a 32-bit word from a T-word slot array at signed window-bit
/// offset `bit_start` (outside the slot reads zero).
fn gather_word(slot: &[u32], bit_start: i64) -> u32 {
    let total_bits = slot.len() as i64 * WORD_BITS as i64;
    if bit_start >= total_bits || bit_start + (WORD_BITS as i64) <= 0 {
        return 0;
    }
    if bit_start % WORD_BITS as i64 == 0 {
        let idx = bit_start / WORD_BITS as i64;
        return if idx >= 0 { slot[idx as usize] } else { 0 };
    }
    let lo_idx = bit_start.div_euclid(WORD_BITS as i64);
    let off = bit_start.rem_euclid(WORD_BITS as i64) as u32;
    let lo = if lo_idx >= 0 && lo_idx < slot.len() as i64 { slot[lo_idx as usize] } else { 0 };
    let hi_idx = lo_idx + 1;
    let hi = if hi_idx >= 0 && hi_idx < slot.len() as i64 { slot[hi_idx as usize] } else { 0 };
    (lo >> off) | (hi << (32 - off))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitgen_ir::lower;
    use bitgen_kernel::{compile, CodegenOptions, KStmt, Reg, Slot};
    use bitgen_regex::parse;

    fn basis_for(input: &[u8]) -> [BitStream; 8] {
        let b = bitgen_bitstream::Basis::transpose(input);
        b.streams().clone()
    }

    /// Runs a whole (single-window) match for a short input.
    fn run_once(pattern: &str, input: &[u8], threads: usize) -> Vec<usize> {
        let prog = lower(&parse(pattern).unwrap());
        let compiled = compile(&prog, &[], &[], &CodegenOptions::default());
        let basis = basis_for(input);
        let mut cta = Cta::new(&compiled.kernel, threads);
        let mut counters = CtaCounters::new(compiled.kernel.num_sites as usize);
        cta.run_window(WindowInputs { basis: &basis, globals: &[] }, 0, &mut counters)
            .expect("no races in generated kernels");
        // Collect set bits below the stream length.
        let len = input.len() + 1;
        let mut ends = Vec::new();
        for (t, w) in cta.output_words().next().unwrap().iter().enumerate() {
            for j in 0..32 {
                let pos = t * 32 + j;
                if pos < len && w >> j & 1 == 1 {
                    ends.push(pos);
                }
            }
        }
        ends
    }

    #[test]
    fn matches_reference_for_small_inputs() {
        for (pat, input) in [
            ("cat", &b"bobcat"[..]),
            ("(abc)|d", b"abcdabce"),
            ("a(bc)*d", b"abcbcd"),
            ("a+", b"xaaax"),
            ("[a-c]{2}", b"abcab"),
        ] {
            let expect = bitgen_regex::match_ends(&parse(pat).unwrap(), input);
            let got = run_once(pat, input, 4);
            assert_eq!(got, expect, "pattern {pat:?}");
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        for threads in [1, 2, 4, 16] {
            assert_eq!(run_once("a(bc)*d", b"xxabcbcdyy", threads), vec![7]);
        }
    }

    #[test]
    fn window_offsets_read_zero_outside() {
        let stream = BitStream::from_positions(64, &[0, 5, 63]);
        let words = |start: i64| [0, 32, 64].map(|at| stream_word(&stream, start + at));
        assert_eq!(words(-32), [0, 0b100001, 1 << 31]);
        assert_eq!(words(32), [1 << 31, 0, 0]);
        // Unaligned reads straddle 64-bit words and both ends.
        assert_eq!(words(-1), [0b1000010, 0, 1]);
        assert_eq!(words(33), [1 << 30, 0, 0]);
        assert_eq!(words(-64), [0, 0, 0b100001]);
    }

    #[test]
    fn gather_word_cross_boundary() {
        let slot = vec![0x8000_0000u32, 0x0000_0001u32];
        // Window bit 31 is set (end of word 0) and bit 32 (start of word 1).
        assert_eq!(gather_word(&slot, 31), 0b11);
        assert_eq!(gather_word(&slot, -1), 0x8000_0000u32 << 1);
        assert_eq!(gather_word(&slot, 64), 0);
        assert_eq!(gather_word(&slot, -32), 0);
    }

    #[test]
    fn missing_barrier_is_detected() {
        // Store then shifted-read with no barrier: the Fig. 6 hazard.
        let kernel = Kernel {
            stmts: vec![
                KStmt::Op(KOp::Const { dst: Reg(0), ones: true }),
                KStmt::Op(KOp::SmemStore { slot: Slot(0), src: Reg(0) }),
                KStmt::Op(KOp::ShiftRead { dst: Reg(1), slot: Slot(0), shift: 1 }),
            ],
            num_regs: 2,
            num_slots: 1,
            num_inputs: 0,
            num_outputs: 0,
            num_sites: 0,
        };
        let basis: [BitStream; 8] = std::array::from_fn(|_| BitStream::zeros(32));
        let mut cta = Cta::new(&kernel, 2);
        let mut c = CtaCounters::new(0);
        let err = cta
            .run_window(WindowInputs { basis: &basis, globals: &[] }, 0, &mut c)
            .unwrap_err();
        assert!(err.to_string().contains("race"));
    }

    #[test]
    fn write_after_read_is_detected() {
        let kernel = Kernel {
            stmts: vec![
                KStmt::Op(KOp::Const { dst: Reg(0), ones: true }),
                KStmt::Op(KOp::SmemStore { slot: Slot(0), src: Reg(0) }),
                KStmt::Op(KOp::Barrier),
                KStmt::Op(KOp::ShiftRead { dst: Reg(1), slot: Slot(0), shift: 1 }),
                // Missing barrier here:
                KStmt::Op(KOp::SmemStore { slot: Slot(0), src: Reg(1) }),
            ],
            num_regs: 2,
            num_slots: 1,
            num_inputs: 0,
            num_outputs: 0,
            num_sites: 0,
        };
        let basis: [BitStream; 8] = std::array::from_fn(|_| BitStream::zeros(32));
        let mut cta = Cta::new(&kernel, 2);
        let mut c = CtaCounters::new(0);
        assert!(cta
            .run_window(WindowInputs { basis: &basis, globals: &[] }, 0, &mut c)
            .is_err());
    }

    #[test]
    fn out_of_range_registers_and_slots_are_refused_before_any_window() {
        // In a flat register file an index past the end is still a panic,
        // but only on the path that executes it; the constructor refuses
        // the kernel whole, skipped bodies and loop conditions included.
        let kernel = |stmts: Vec<KStmt>| Kernel {
            stmts,
            num_regs: 2,
            num_slots: 1,
            num_inputs: 0,
            num_outputs: 0,
            num_sites: 1,
        };
        let good = KStmt::Op(KOp::And { dst: Reg(1), a: Reg(0), b: Reg(1) });
        let refused = |stmt: KStmt| {
            let k = kernel(vec![good.clone(), stmt]);
            std::panic::catch_unwind(|| Cta::new(&k, 4).window_bits()).is_err()
        };
        assert!(!refused(good.clone()));
        assert!(refused(KStmt::Op(KOp::And { dst: Reg(1), a: Reg(0), b: Reg(2) })));
        assert!(refused(KStmt::Op(KOp::Const { dst: Reg(2), ones: true })));
        assert!(refused(KStmt::Op(KOp::StoreGlobal { output: 0, src: Reg(7) })));
        assert!(refused(KStmt::Op(KOp::SmemStore { slot: Slot(1), src: Reg(0) })));
        assert!(refused(KStmt::Op(KOp::ShiftRead { dst: Reg(0), slot: Slot(3), shift: 1 })));
        assert!(refused(KStmt::While { cond: Reg(2), body: [].into(), site: 0 }));
        // Reg(0) stays zero, so this body never runs.
        let hidden = KStmt::Op(KOp::Not { dst: Reg(5), a: Reg(0) });
        assert!(refused(KStmt::If { cond: Reg(0), body: [hidden].into() }));
    }

    #[test]
    fn generated_kernels_pass_race_checking() {
        // Codegen's barrier placement must satisfy the checker for a
        // shift-heavy, rebalanced, guarded program.
        use bitgen_passes::{insert_zero_skips, rebalance, ZbsConfig};
        let mut prog = lower(&parse("ab{2,4}c(de)*f").unwrap());
        rebalance(&mut prog);
        insert_zero_skips(&mut prog, ZbsConfig::default());
        let compiled = compile(&prog, &[], &[], &CodegenOptions { merge_size: 4 });
        let basis = basis_for(b"abbcdedef abbbbcf");
        let mut cta = Cta::new(&compiled.kernel, 8);
        let mut c = CtaCounters::new(compiled.kernel.num_sites as usize);
        cta.run_window(WindowInputs { basis: &basis, globals: &[] }, 0, &mut c)
            .expect("generated kernel must be race-free");
        assert!(c.barriers > 0);
    }

    #[test]
    fn counters_track_events() {
        let prog = lower(&parse("a(bc)*d").unwrap());
        let compiled = compile(&prog, &[], &[], &CodegenOptions::default());
        let basis = basis_for(b"abcbcd");
        let mut cta = Cta::new(&compiled.kernel, 2);
        let mut c = CtaCounters::new(compiled.kernel.num_sites as usize);
        cta.run_window(WindowInputs { basis: &basis, globals: &[] }, 0, &mut c).unwrap();
        assert!(c.alu_ops > 0);
        assert!(c.barriers >= 2);
        assert!(c.reductions >= 1);
        assert_eq!(c.window_iterations, 1);
        assert_eq!(c.loop_trips.len(), 1);
        assert!(c.loop_trips[0] >= 2, "two (bc) passes: {:?}", c.loop_trips);
        assert!(c.global_load_words > 0);
        assert!(c.global_store_words > 0);
    }

    #[test]
    fn a_straight_line_kernel_counts_what_its_static_walk_says_on_any_window() {
        // No loop, no guard: every instruction runs once per window, so
        // the emulator's counts are the kernel's, whatever the data.
        let prog = lower(&parse("ab[0-9]{2,4}c|x.y").unwrap());
        let compiled = compile(&prog, &[], &[], &CodegenOptions::default());
        let input: Vec<u8> = (0..700u32).map(|i| b"ab012cx-y"[i as usize % 9]).collect();
        let basis = basis_for(&input);
        for threads in [1, 2, 8, 64] {
            let want = compiled.kernel.window_counts(threads).expect("straight-line kernel");
            let mut cta = Cta::new(&compiled.kernel, threads);
            for start in [-64i64, 0, 37, 640] {
                let mut c = CtaCounters::new(0);
                let inputs = WindowInputs { basis: &basis, globals: &[] };
                cta.run_window(inputs, start, &mut c).unwrap();
                let got = [c.alu_ops, c.smem_stores, c.smem_loads, c.barriers];
                let counted = [want.alu_ops, want.smem_stores, want.smem_loads, want.barriers];
                assert_eq!(got, counted.map(u64::from));
                assert_eq!(c.global_load_words, u64::from(want.global_load_words));
                assert_eq!(c.global_store_words, u64::from(want.global_store_words));
                assert_eq!((c.reductions, c.skipped_ops, c.window_iterations), (0, 0, 1));
            }
        }
        let looped = lower(&parse("a(bc)*d").unwrap());
        let looped = compile(&looped, &[], &[], &CodegenOptions::default());
        assert_eq!(looped.kernel.window_counts(8), None);
    }

    #[test]
    fn unarmed_cta_never_fires() {
        let prog = lower(&parse("cat").unwrap());
        let compiled = compile(&prog, &[], &[], &CodegenOptions::default());
        let basis = basis_for(b"bobcat");
        let mut cta = Cta::new(&compiled.kernel, 2);
        let mut c = CtaCounters::new(0);
        cta.run_window(WindowInputs { basis: &basis, globals: &[] }, 0, &mut c).unwrap();
        assert!(!cta.fault_fired());
    }

    #[test]
    fn smem_flip_fires_once_and_changes_output() {
        // a(bc)*d routes data through shared memory (shifts), so a flipped
        // smem bit must perturb the output words of the faulted run.
        let prog = lower(&parse("a(bc)*d").unwrap());
        let compiled = compile(&prog, &[], &[], &CodegenOptions::default());
        let basis = basis_for(b"abcbcd");
        let run = |plan: Option<FaultPlan>| {
            let mut cta = Cta::new(&compiled.kernel, 2);
            if let Some(p) = plan {
                cta.arm_fault(p);
            }
            let mut c = CtaCounters::new(compiled.kernel.num_sites as usize);
            cta.run_window(WindowInputs { basis: &basis, globals: &[] }, 0, &mut c).unwrap();
            let words: Vec<Vec<u32>> = cta.output_words().map(<[u32]>::to_vec).collect();
            (words, cta.fault_fired())
        };
        let (clean, fired) = run(None);
        assert!(!fired);
        // A flip in a word past the input (or one the kernel masks off) is
        // harmless, so scan a few seeds: at least one must corrupt the
        // output, and every fired plan must replay identically.
        let mut corrupted = 0;
        for seed in 0..8 {
            let plan = FaultPlan { kind: FaultKind::SmemFlip, trigger: 1, seed };
            let (faulted, fired) = run(Some(plan));
            assert!(fired, "the kernel stores to smem, so trigger 1 must fire");
            assert_eq!(run(Some(plan)).0, faulted, "same plan must corrupt identically");
            if faulted != clean {
                corrupted += 1;
            }
        }
        assert!(corrupted > 0, "no seed's smem flip reached the output");
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn panic_fault_panics_on_window_entry() {
        let prog = lower(&parse("cat").unwrap());
        let compiled = compile(&prog, &[], &[], &CodegenOptions::default());
        let basis = basis_for(b"bobcat");
        let mut cta = Cta::new(&compiled.kernel, 2);
        cta.arm_fault(FaultPlan { kind: FaultKind::Panic, trigger: 1, seed: 0 });
        let mut c = CtaCounters::new(0);
        let _ = cta.run_window(WindowInputs { basis: &basis, globals: &[] }, 0, &mut c);
    }

    #[test]
    fn counter_fault_inflates_window_iterations() {
        let prog = lower(&parse("cat").unwrap());
        let compiled = compile(&prog, &[], &[], &CodegenOptions::default());
        let basis = basis_for(b"bobcat");
        let mut cta = Cta::new(&compiled.kernel, 2);
        cta.arm_fault(FaultPlan { kind: FaultKind::CorruptCounter, trigger: 1, seed: 3 });
        let mut c = CtaCounters::new(0);
        cta.run_window(WindowInputs { basis: &basis, globals: &[] }, 0, &mut c).unwrap();
        assert!(cta.fault_fired());
        assert!(c.window_iterations > 1, "counter must be inflated past the true 1");
    }

    #[test]
    fn high_trigger_fault_never_fires() {
        let prog = lower(&parse("cat").unwrap());
        let compiled = compile(&prog, &[], &[], &CodegenOptions::default());
        let basis = basis_for(b"bobcat");
        let mut cta = Cta::new(&compiled.kernel, 2);
        cta.arm_fault(FaultPlan { kind: FaultKind::Panic, trigger: 1000, seed: 0 });
        let mut c = CtaCounters::new(0);
        cta.run_window(WindowInputs { basis: &basis, globals: &[] }, 0, &mut c).unwrap();
        assert!(!cta.fault_fired());
    }

    #[test]
    fn skipped_ops_counted_for_guards() {
        use bitgen_passes::{insert_zero_skips, ZbsConfig};
        let mut prog = lower(&parse("abcdefgh").unwrap());
        insert_zero_skips(&mut prog, ZbsConfig::default());
        let compiled = compile(&prog, &[], &[], &CodegenOptions::default());
        // Input with no 'a': guards fire.
        let basis = basis_for(b"zzzzzzzz");
        let mut cta = Cta::new(&compiled.kernel, 2);
        let mut c = CtaCounters::new(compiled.kernel.num_sites as usize);
        cta.run_window(WindowInputs { basis: &basis, globals: &[] }, 0, &mut c).unwrap();
        assert!(c.skipped_ops > 0, "guards should have skipped work");
    }
}
