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
//! Lock-step is also how the emulator runs an instruction: over the whole
//! register at once — the T words its threads hold, one flat slice — as
//! zip loops the host compiler vectorises. Only the boundary lanes of a
//! shifted read or a load, whose words straddle the edge of the slot or
//! the stream, take the word-at-a-time path (`gather_word`,
//! `stream_word`).
//!
//! The emulator executes one *window* at a time: a span of
//! `T × 32` bit positions starting at a (possibly negative) offset into
//! the streams. Dependency-aware thread-data mapping — choosing window
//! offsets, store regions, overlap retries — is the executor's job
//! (`bitgen-exec`); the emulator only runs the kernel faithfully.

use crate::counters::CtaCounters;
use crate::fault::{FaultKind, FaultPlan};
use bitgen_bitstream::BitStream;
use bitgen_kernel::{pack_spans, KOp, KStmt, Kernel, Reg, UNTOUCHED_SPAN, WORD_BITS};
use std::borrow::Cow;
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

/// What holds for every window of one kernel, proven once: that each
/// register, shared-memory slot and output it names is inside the file it
/// declares, on every path including bodies a window may skip; which
/// entries of those files some path reads before the window writes them —
/// its *exposed* entries; and which row of the CTA's register file holds
/// each register.
///
/// A window zeroes its exposed entries and nothing else. Every other entry
/// is written before it is read on every path (any `if` body may be
/// skipped, any `while` may take no trip), so whatever an earlier window or
/// another kernel left there is never seen: the window computes what it
/// would on fresh, zeroed files. A generated kernel computes every value
/// before it reads it and stores its outputs unguarded, so its exposed
/// sets are usually empty.
///
/// Registers share a row when no window can need both values at once, as
/// a register allocator would have them ([`pack_spans`], the packer a
/// stream window's slots use too): the file holds as many rows as
/// registers are live at once (34–40 for the Snort ×32 batch kernels,
/// which name 262–289), not one per register.
#[derive(Debug, Clone)]
pub struct KernelFacts {
    /// `num_regs`, `num_slots` and `num_outputs` of the kernel proven.
    files: [u32; 3],
    /// Per register, its row of the register file.
    rows: Box<[u32]>,
    /// Rows of the register file.
    height: u32,
    regs: Box<[u32]>,
    slots: Box<[u32]>,
    outputs: Box<[u32]>,
}

impl KernelFacts {
    /// Proves `kernel`'s facts.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` names a register, shared-memory slot or output
    /// outside the `num_regs` / `num_slots` / `num_outputs` it declares (a
    /// code generator bug; hand-built kernels meet it too).
    pub fn of(kernel: &Kernel) -> KernelFacts {
        let [regs, slots, outputs] = [kernel.num_regs, kernel.num_slots, kernel.num_outputs];
        let (at_slots, at_outputs) = (regs as usize, regs as usize + slots as usize);
        let len = at_outputs + outputs as usize;
        let mut proof = Proof {
            kernel,
            slots: at_slots,
            outputs: at_outputs,
            written: vec![false; len],
            exposed: vec![false; len],
            trail: Vec::new(),
            spans: vec![UNTOUCHED_SPAN; regs as usize],
            at: 0,
        };
        proof.stmts(&kernel.stmts);
        let Proof { written, exposed, mut spans, .. } = proof;
        // An exposed register's row is zeroed at the window's start and
        // must keep that zero until the register is read.
        for (span, _) in spans.iter_mut().zip(&exposed).filter(|(_, &exposed)| exposed) {
            span.0 = 0;
        }
        let (rows, height) = pack_spans(&spans);
        let entries = |flags: &[bool], set: bool| {
            (0u32..).zip(flags).filter(|&(_, &flag)| flag == set).map(|(i, _)| i).collect()
        };
        KernelFacts {
            files: [regs, slots, outputs],
            rows,
            height,
            regs: entries(&exposed[..at_slots], true),
            slots: entries(&exposed[at_slots..at_outputs], true),
            // The host reads every output after the window.
            outputs: entries(&written[at_outputs..], false),
        }
    }

    /// The exposed registers, shared-memory slots and outputs, ascending.
    pub fn exposed(&self) -> [&[u32]; 3] {
        [&self.regs, &self.slots, &self.outputs]
    }

    /// Rows of the register file: the most registers a window of the
    /// kernel keeps live at once.
    pub fn register_rows(&self) -> u32 {
        self.height
    }
}

/// One walk over a kernel's statements, in pre-order, proving its facts.
/// Its registers, slots and outputs are laid end to end as *entries*:
/// register `r` is entry `r`, slot `s` entry `slots + s`, output `o` entry
/// `outputs + o`.
struct Proof<'k> {
    kernel: &'k Kernel,
    slots: usize,
    outputs: usize,
    /// Per entry, whether every path to here wrote it.
    written: Vec<bool>,
    /// Per entry, whether some path to here read it unwritten.
    exposed: Vec<bool>,
    /// The entries `written` set, so that a body's writes can be undone.
    trail: Vec<usize>,
    /// Per register, its *span*: the first and the last statement that
    /// touches it, stretched over every `while` it is touched in.
    spans: Vec<(u32, u32)>,
    /// The statement the walk is at.
    at: u32,
}

impl Proof<'_> {
    fn read(&mut self, entry: usize) {
        self.exposed[entry] |= !self.written[entry];
    }

    fn write(&mut self, entry: usize) {
        if !self.written[entry] {
            self.written[entry] = true;
            self.trail.push(entry);
        }
    }

    fn touch(&mut self, reg: Reg) {
        let span = &mut self.spans[reg.0 as usize];
        *span = (span.0.min(self.at), span.1.max(self.at));
    }

    fn stmts(&mut self, stmts: &[KStmt]) {
        let Kernel { num_regs: regs, num_slots: slots, num_outputs: outputs, .. } = *self.kernel;
        for stmt in stmts {
            self.at += 1;
            // Every path, including bodies a window may skip: each register,
            // slot and output named is inside the file it declares.
            let in_bounds = match stmt {
                KStmt::Op(op) => {
                    op.regs().all(|r| r.0 < regs)
                        && match op {
                            KOp::SmemStore { slot, .. } | KOp::ShiftRead { slot, .. } => {
                                slot.0 < slots
                            }
                            KOp::StoreGlobal { output, .. } => *output < outputs,
                            _ => true,
                        }
                }
                KStmt::If { cond, .. } | KStmt::While { cond, .. } => cond.0 < regs,
            };
            assert!(
                in_bounds,
                "{stmt:?} is outside the kernel's {regs} registers, {slots} slots and \
                 {outputs} outputs"
            );
            match stmt {
                KStmt::Op(op) => {
                    for reg in op.regs() {
                        self.touch(reg);
                    }
                    for src in op.regs().skip(usize::from(op.dst().is_some())) {
                        self.read(src.0 as usize);
                    }
                    match *op {
                        KOp::ShiftRead { slot, .. } => self.read(self.slots + slot.0 as usize),
                        KOp::SmemStore { slot, .. } => self.write(self.slots + slot.0 as usize),
                        KOp::StoreGlobal { output, .. } => {
                            self.write(self.outputs + output as usize);
                        }
                        _ => {}
                    }
                    if let Some(dst) = op.dst() {
                        self.write(dst.0 as usize);
                    }
                }
                KStmt::If { cond, body } | KStmt::While { cond, body, .. } => {
                    self.touch(*cond);
                    self.read(cond.0 as usize);
                    let (start, mark) = (self.at, self.trail.len());
                    self.stmts(body);
                    // The body may be skipped or take no trip, so nothing it
                    // writes is written after it. A later trip starts from at
                    // least what the first did: one pass finds every read.
                    for entry in self.trail.drain(mark..) {
                        self.written[entry] = false;
                    }
                    // A later trip reads what an earlier one wrote, so what
                    // a loop touches stays live over all of it; a skipped
                    // `if` body touches nothing, so an `if` stretches nothing.
                    if let KStmt::While { .. } = stmt {
                        let end = self.at;
                        for span in self.spans.iter_mut().filter(|s| s.1 >= start && s.0 <= end) {
                            *span = (span.0.min(start), span.1.max(end));
                        }
                    }
                }
            }
        }
    }
}

/// The buffers a [`Cta`] computes in, kept apart from any kernel so that
/// one set serves kernel after kernel ([`Cta::with_files`],
/// [`Cta::into_files`]).
#[derive(Debug, Clone, Default)]
pub struct CtaFiles {
    regs: Vec<u32>,
    smem: Vec<u32>,
    out_words: Vec<u32>,
    /// One register's words: an instruction computes here, then copies to
    /// its destination, which may be one of its operands.
    lane: Vec<u32>,
    loop_trips: Vec<u64>,
    /// Per-slot epoch flags for race checking.
    stored_since_barrier: Vec<bool>,
    read_since_barrier: Vec<bool>,
}

/// A reusable CTA execution context for one kernel.
///
/// Registers, shared memory and the window's output words each live in
/// one flat file (`index × threads + thread`; a register's index is its
/// row), and an instruction runs over a whole register — its `threads`
/// words — at once. Every window rewrites the files in place and
/// allocates nothing, and neither does a context built on files an
/// earlier one handed back once they are as large as its kernel needs.
/// Nothing wipes them between windows or kernels: a window zeroes only its
/// kernel's exposed entries ([`KernelFacts`]).
#[derive(Debug)]
pub struct Cta<'k> {
    kernel: &'k Kernel,
    facts: Cow<'k, KernelFacts>,
    threads: usize,
    files: CtaFiles,
    /// Armed fault, its remaining event countdown, and whether it fired.
    fault: Option<FaultPlan>,
    fault_countdown: u32,
    fault_fired: bool,
}

impl<'k> Cta<'k> {
    /// Creates an execution context for `kernel` with `threads` threads,
    /// proving the kernel's [`KernelFacts`] and allocating fresh files.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero, or where [`KernelFacts::of`] does.
    pub fn new(kernel: &'k Kernel, threads: usize) -> Cta<'k> {
        Cta::build(kernel, Cow::Owned(KernelFacts::of(kernel)), threads, CtaFiles::default())
    }

    /// Creates an execution context for `kernel` from its `facts`, proven
    /// once by [`KernelFacts::of`] of this kernel, on `files` an earlier
    /// context handed back (grown if this kernel needs more).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero, or if `facts` were proven for a kernel
    /// with other file sizes.
    pub fn with_files(
        kernel: &'k Kernel,
        facts: &'k KernelFacts,
        threads: usize,
        files: CtaFiles,
    ) -> Cta<'k> {
        Cta::build(kernel, Cow::Borrowed(facts), threads, files)
    }

    fn build(
        kernel: &'k Kernel,
        facts: Cow<'k, KernelFacts>,
        threads: usize,
        mut files: CtaFiles,
    ) -> Cta<'k> {
        assert!(threads > 0, "a CTA needs at least one thread");
        let sizes = [kernel.num_regs, kernel.num_slots, kernel.num_outputs];
        assert_eq!(facts.files, sizes, "facts proven for another kernel");
        for (file, entries) in [
            (&mut files.regs, facts.height),
            (&mut files.smem, kernel.num_slots),
            (&mut files.out_words, kernel.num_outputs),
            (&mut files.lane, 1),
        ] {
            // What an earlier kernel left stays: a window zeroes what it
            // may read before writing. A file too small is replaced, not
            // grown, so it holds exactly the largest kernel's words and
            // never two buffers at once.
            let words = entries as usize * threads;
            if file.capacity() < words {
                *file = Vec::new();
                file.reserve_exact(words);
            }
            file.resize(words, 0);
        }
        files.loop_trips.clear();
        files.loop_trips.resize(kernel.num_sites as usize, 0);
        for flags in [&mut files.stored_since_barrier, &mut files.read_since_barrier] {
            flags.clear();
            flags.resize(kernel.num_slots as usize, false);
        }
        Cta { kernel, facts, threads, files, fault: None, fault_countdown: 0, fault_fired: false }
    }

    /// Hands the files back, to build the next context on.
    pub fn into_files(self) -> CtaFiles {
        self.files
    }

    /// Where the `threads` words of entry `index` of a flat file live.
    fn lanes(&self, index: u32) -> Range<usize> {
        let at = index as usize * self.threads;
        at..at + self.threads
    }

    /// Where register `reg`'s words live: its row of the register file.
    fn reg(&self, reg: Reg) -> Range<usize> {
        self.lanes(self.facts.rows[reg.0 as usize])
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
        // Fresh state per window: interleaved execution never forwards
        // values between iterations (that is the whole point of
        // recomputation), and stale values would mask missing-overlap
        // bugs. Zeroing the kernel's exposed entries is enough (see
        // `KernelFacts`): every other entry is overwritten before any
        // read, whatever the last window or kernel left in it.
        let (t, facts, files) = (self.threads, &self.facts, &mut self.files);
        let zero = |file: &mut [u32], entry: u32| file[entry as usize * t..][..t].fill(0);
        facts.regs.iter().for_each(|&reg| zero(&mut files.regs, facts.rows[reg as usize]));
        facts.slots.iter().for_each(|&slot| zero(&mut files.smem, slot));
        facts.outputs.iter().for_each(|&output| zero(&mut files.out_words, output));
        files.loop_trips.fill(0);
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
            let trips = &mut self.files.loop_trips;
            if !trips.is_empty() {
                let i = bits as usize % trips.len();
                trips[i] = 0;
            }
        }
        if let Some(bits) = self.fault_due(FaultKind::CorruptCounter) {
            counters.window_iterations =
                counters.window_iterations.wrapping_add(1 + bits % 3);
        }
        for (total, trips) in counters.loop_trips.iter_mut().zip(&self.files.loop_trips) {
            *total += trips;
        }
        Ok(())
    }

    /// Per output stream, in order: the T words the last window computed.
    pub fn output_words(&self) -> std::slice::ChunksExact<'_, u32> {
        self.files.out_words.chunks_exact(self.threads)
    }

    /// Per dynamic site: trips taken by each `while` loop, or the longest
    /// carry-feeding run (bits) observed by each `add`, during the last
    /// window.
    pub fn loop_trips(&self) -> &[u64] {
        &self.files.loop_trips
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
                        self.files.loop_trips[*site as usize] += 1;
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
                let dst = self.reg(*dst);
                self.files.regs[dst].fill(if *ones { u32::MAX } else { 0 });
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
                let (dst, a, b) = (self.reg(*dst), self.reg(*a), self.reg(*b));
                let CtaFiles { regs, lane, loop_trips, .. } = &mut self.files;
                let mut carry = 0u64;
                let mut run = 0u64;
                let mut max_run = 0u64;
                for ((out, &va), &vb) in lane.iter_mut().zip(&regs[a]).zip(&regs[b]) {
                    let sum = u64::from(va) + u64::from(vb) + carry;
                    *out = sum as u32;
                    carry = sum >> 32;
                    // The *exact* carry reach: positions receiving a
                    // carry-in are `sum ⊕ a ⊕ b`; the longest consecutive
                    // carry run is how far this addition reached across
                    // blocks — the dynamic quantity the overlap check
                    // compares against the window margin.
                    let mut carry_in = (sum as u32) ^ va ^ vb;
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
                regs[dst].copy_from_slice(lane);
                let slot = &mut loop_trips[*site as usize];
                *slot = (*slot).max(max_run);
            }
            KOp::Or { dst, a, b } => self.binop(*dst, *a, *b, counters, |x, y| x | y),
            KOp::Xor { dst, a, b } => self.binop(*dst, *a, *b, counters, |x, y| x ^ y),
            KOp::Copy { dst, a } => {
                counters.alu_ops += 1;
                let (dst, a) = (self.reg(*dst), self.reg(*a));
                self.files.regs.copy_within(a, dst.start);
            }
            KOp::SmemStore { slot, src } => {
                counters.smem_stores += 1;
                let s = slot.0 as usize;
                let files = &mut self.files;
                if files.read_since_barrier[s] || files.stored_since_barrier[s] {
                    return Err(RaceError {
                        slot: slot.0,
                        message: "store to a slot already accessed since the last barrier"
                            .to_string(),
                    });
                }
                files.stored_since_barrier[s] = true;
                let (words, src) = (self.lanes(slot.0), self.reg(*src));
                self.files.smem[words.clone()].copy_from_slice(&self.files.regs[src]);
                if let Some(bits) = self.fault_due(FaultKind::SmemFlip) {
                    let word = bits as usize % self.threads;
                    let bit = (bits >> 8) % 32;
                    self.files.smem[words.start + word] ^= 1 << bit;
                }
            }
            KOp::Barrier => {
                // A skipped barrier still costs a barrier on hardware; only
                // its synchronisation effect (the flag clearing) is lost.
                counters.barriers += 1;
                if self.fault_due(FaultKind::SkipBarrier).is_some() {
                    return Ok(());
                }
                self.files.stored_since_barrier.fill(false);
                self.files.read_since_barrier.fill(false);
            }
            KOp::ShiftRead { dst, slot, shift } => {
                counters.smem_loads += 1;
                let s = slot.0 as usize;
                if self.files.stored_since_barrier[s] {
                    return Err(RaceError {
                        slot: slot.0,
                        message: format!(
                            "shifted read of a slot stored since the last barrier (shift {shift})"
                        ),
                    });
                }
                self.files.read_since_barrier[s] = true;
                let (dst, src) = (self.reg(*dst), self.lanes(slot.0));
                let CtaFiles { regs, smem, .. } = &mut self.files;
                shift_words(&mut regs[dst], &smem[src], *shift);
            }
            KOp::StoreGlobal { output, src } => {
                counters.global_store_words += self.threads as u64;
                let (words, src) = (self.lanes(*output), self.reg(*src));
                let CtaFiles { regs, out_words, .. } = &mut self.files;
                out_words[words].copy_from_slice(&regs[src]);
            }
        }
        Ok(())
    }

    /// Loads this window's words of `stream` (zero outside it) into `dst`.
    fn load(&mut self, dst: Reg, stream: &BitStream, start: i64, counters: &mut CtaCounters) {
        counters.global_load_words += self.threads as u64;
        let dst = self.reg(dst);
        load_words(&mut self.files.regs[dst], stream, start);
    }

    /// `dst = f(a, b)` on every lane, computed into the lane buffer and
    /// then copied, so `dst` may be `a` or `b`.
    fn binop(
        &mut self,
        dst: Reg,
        a: Reg,
        b: Reg,
        counters: &mut CtaCounters,
        f: impl Fn(u32, u32) -> u32,
    ) {
        counters.alu_ops += 1;
        let (dst, a, b) = (self.reg(dst), self.reg(a), self.reg(b));
        let CtaFiles { regs, lane, .. } = &mut self.files;
        for ((out, &x), &y) in lane.iter_mut().zip(&regs[a]).zip(&regs[b]) {
            *out = f(x, y);
        }
        regs[dst].copy_from_slice(lane);
    }

    /// CTA-wide `any` reduction of a register (the `atomicOr` of §6).
    fn any(&self, reg: Reg) -> bool {
        self.files.regs[self.reg(reg)].iter().fold(0, |acc, &w| acc | w) != 0
    }
}

/// Window-level shift of a slot into `dst`: lane `t` is
/// `gather_word(src, 32·t − shift)`, so destination window bit i reads
/// source window bit i − shift (advance) and bits outside the window read
/// as zero. The lanes whose two source words both lie in the slot are one
/// funnel-shift zip; only the boundary lanes gather word by word.
fn shift_words(dst: &mut [u32], src: &[u32], shift: i64) {
    let lanes = dst.len() as i64;
    // Lane t starts at source bit 32·(t + at) + off.
    let (at, off) = ((-shift).div_euclid(32), (-shift).rem_euclid(32) as u32);
    let first = (-at).clamp(0, lanes) as usize;
    let end = (lanes - at - i64::from(off > 0)).clamp(first as i64, lanes) as usize;
    if first < end {
        let from = (first as i64 + at) as usize;
        if off == 0 {
            dst[first..end].copy_from_slice(&src[from..][..end - first]);
        } else {
            let inner = dst[first..end].iter_mut().zip(&src[from..]).zip(&src[from + 1..]);
            for ((w, &lo), &hi) in inner {
                *w = lo >> off | hi << (32 - off);
            }
        }
    }
    for t in (0..first).chain(end..dst.len()) {
        dst[t] = gather_word(src, t as i64 * WORD_BITS as i64 - shift);
    }
}

/// The window's words of `stream` from bit `start` into `dst`: lane `t`
/// is `stream_word(stream, start + 32·t)`. Lane pairs whose 64 bits start
/// inside the stream's words and end inside them (or at a word boundary)
/// are one funnel shift of two adjacent words; only the boundary lanes
/// extract word by word.
fn load_words(dst: &mut [u32], stream: &BitStream, start: i64) {
    let words = stream.as_words();
    let (at, off) = (start.div_euclid(64), start.rem_euclid(64) as u32);
    let pairs = (dst.len() / 2) as i64;
    let first = (-at).clamp(0, pairs) as usize;
    let end = (words.len() as i64 - at - i64::from(off > 0)).clamp(first as i64, pairs) as usize;
    if first < end {
        let from = (first as i64 + at) as usize;
        let pairs = dst[2 * first..2 * end].chunks_exact_mut(2);
        let put = |pair: &mut [u32], word: u64| {
            pair[0] = word as u32;
            pair[1] = (word >> 32) as u32;
        };
        if off == 0 {
            pairs.zip(&words[from..]).for_each(|(pair, &w)| put(pair, w));
        } else {
            for ((pair, &lo), &hi) in pairs.zip(&words[from..]).zip(&words[from + 1..]) {
                put(pair, lo >> off | hi << (64 - off));
            }
        }
    }
    for t in (0..2 * first).chain(2 * end..dst.len()) {
        dst[t] = stream_word(stream, start + (t * WORD_BITS) as i64);
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

/// Extracts the 32-bit word starting at signed bit offset `bit_start` of a
/// buffer of 32-bit words — a slot's T words, a window's output words
/// (outside the buffer reads zero).
pub fn gather_word(slot: &[u32], bit_start: i64) -> u32 {
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
    use proptest::prelude::*;

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The funnel-shift form of a shifted read is `gather_word` lane by
        /// lane, for every shift into, across and out of a slot of any size.
        #[test]
        fn shifted_reads_equal_the_per_lane_gather(
            slot in (1usize..=64).prop_flat_map(|t| prop::collection::vec(any::<u32>(), t))
        ) {
            let reach = 32 * slot.len() as i64 + 33;
            let mut dst = vec![0; slot.len()];
            for shift in -reach..=reach {
                dst.fill(0xdead_beef);
                shift_words(&mut dst, &slot, shift);
                for (t, &word) in dst.iter().enumerate() {
                    assert_eq!(word, gather_word(&slot, t as i64 * 32 - shift), "shift {shift}");
                }
            }
        }

        /// The paired form of a load is `stream_word` lane by lane, for
        /// windows starting before, inside (aligned or not) and past the
        /// end of a stream of any length.
        #[test]
        fn loads_equal_the_per_lane_extract(
            threads in 1usize..=64,
            bits in prop::collection::vec(any::<bool>(), 0..700),
        ) {
            let positions: Vec<usize> = (0..bits.len()).filter(|&i| bits[i]).collect();
            let stream = BitStream::from_positions(bits.len(), &positions);
            let (window, len) = (32 * threads as i64, bits.len() as i64);
            let mut dst = vec![0; threads];
            for start in -window - 65..=len + 65 {
                dst.fill(0xdead_beef);
                load_words(&mut dst, &stream, start);
                for (t, &word) in dst.iter().enumerate() {
                    assert_eq!(word, stream_word(&stream, start + 32 * t as i64), "start {start}");
                }
            }
        }
    }

    #[test]
    fn a_register_written_only_under_control_flow_reads_zero_in_the_next_window() {
        // r1 is written only inside an `if`, r2 only inside a `while`, and
        // both are read after them. The first window runs both bodies; the
        // second, past the end of the input, skips the `if` and takes no
        // trip, so it must store zeros: not what the first window wrote,
        // nor the ones r3 puts in whichever row it shares first.
        let op = KStmt::Op;
        let ones = |reg| op(KOp::Const { dst: Reg(reg), ones: true });
        let kernel = Kernel {
            stmts: vec![
                op(KOp::LoadBasis { dst: Reg(0), bit: 7 }),
                ones(3),
                op(KOp::StoreGlobal { output: 2, src: Reg(3) }),
                KStmt::If { cond: Reg(0), body: [ones(1)].into() },
                op(KOp::StoreGlobal { output: 0, src: Reg(1) }),
                KStmt::While {
                    cond: Reg(0),
                    body: [ones(2), op(KOp::Const { dst: Reg(0), ones: false })].into(),
                    site: 0,
                },
                op(KOp::StoreGlobal { output: 1, src: Reg(2) }),
            ],
            num_regs: 4,
            num_slots: 0,
            num_inputs: 0,
            num_outputs: 3,
            num_sites: 1,
        };
        let facts = KernelFacts::of(&kernel);
        let none: &[u32] = &[];
        assert_eq!(facts.exposed(), [&[1, 2][..], none, none]);
        assert_eq!(facts.register_rows(), 4);
        let basis = basis_for(b"a");
        let mut cta = Cta::new(&kernel, 2);
        let mut window = |start: i64| {
            let mut c = CtaCounters::new(1);
            cta.run_window(WindowInputs { basis: &basis, globals: &[] }, start, &mut c).unwrap();
            let words: Vec<Vec<u32>> = cta.output_words().map(<[u32]>::to_vec).collect();
            (words, cta.loop_trips().to_vec(), c.skipped_ops)
        };
        assert_eq!(window(0), (vec![vec![u32::MAX; 2]; 3], vec![1], 0));
        let quiet = vec![vec![0; 2], vec![0; 2], vec![u32::MAX; 2]];
        assert_eq!(window(64), (quiet, vec![0], 1));
    }

    /// One window of `cta` from `start`: its output words, counters and
    /// per-site trips.
    fn window(cta: &mut Cta<'_>, basis: &[BitStream; 8], start: i64) -> Window {
        let mut c = CtaCounters::new(cta.kernel.num_sites as usize);
        cta.run_window(WindowInputs { basis, globals: &[] }, start, &mut c).unwrap();
        (cta.output_words().map(<[u32]>::to_vec).collect(), c, cta.loop_trips().to_vec())
    }

    type Window = (Vec<Vec<u32>>, CtaCounters, Vec<u64>);

    #[test]
    fn files_carry_over_from_kernel_to_kernel_unseen() {
        // One file set through two kernels and back: each window equals a
        // fresh context's, though the files hold the other kernel's words.
        let programs = ["a(bc)*d", "x[0-9]{2,4}y|zz"].map(|p| lower(&parse(p).unwrap()));
        let kernels = programs.map(|p| compile(&p, &[], &[], &CodegenOptions::default()).kernel);
        let basis = basis_for(b"abcbcd x123y zz abcd x9y");
        let mut files = CtaFiles::default();
        for kernel in [&kernels[0], &kernels[1], &kernels[0]] {
            let facts = KernelFacts::of(kernel);
            let mut cta = Cta::with_files(kernel, &facts, 4, files);
            for start in [0, 100, -5, 200] {
                let fresh = window(&mut Cta::new(kernel, 4), &basis, start);
                assert_eq!(window(&mut cta, &basis, start), fresh);
            }
            files = cta.into_files();
        }
    }

    #[test]
    fn shared_register_rows_compute_what_a_row_per_register_does() {
        // Loops, guards and rebalanced shifts, each kernel run with its
        // assigned rows and with one row per register.
        use bitgen_passes::{insert_zero_skips, rebalance, ZbsConfig};
        let basis = basis_for(b"abbcdedef abbbbcf x12y abcbcd qz kk x3y bbc abbbcdedef");
        let groups =
            [&["ab{2,4}c(de)*f", "a(bc)*d"][..], &["x[0-9]+y|(a|bb)+c"], &["q.{0,3}z", "k+"]];
        for patterns in groups {
            let asts: Vec<_> = patterns.iter().map(|p| parse(p).unwrap()).collect();
            let mut prog = bitgen_ir::lower_group(&asts);
            for step in 0..3 {
                match step {
                    1 => drop(rebalance(&mut prog)),
                    2 => drop(insert_zero_skips(&mut prog, ZbsConfig::default())),
                    _ => {}
                }
                let kernel = compile(&prog, &[], &[], &CodegenOptions { merge_size: 4 }).kernel;
                let shared = KernelFacts::of(&kernel);
                let rows = (0..kernel.num_regs).collect();
                let one_each = KernelFacts { rows, height: kernel.num_regs, ..shared.clone() };
                assert!(shared.register_rows() < kernel.num_regs, "{patterns:?}");
                for threads in [1, 3, 8] {
                    let new = |facts| Cta::with_files(&kernel, facts, threads, CtaFiles::default());
                    let (mut narrow, mut wide) = (new(&shared), new(&one_each));
                    for start in [-40, 0, 17, 96, 400] {
                        let got = window(&mut narrow, &basis, start);
                        assert_eq!(got, window(&mut wide, &basis, start), "{patterns:?} {step}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "facts proven for another kernel")]
    fn facts_of_another_kernel_are_refused() {
        let [small, large] = ["ab", "a(bc)*d"].map(|p| {
            compile(&lower(&parse(p).unwrap()), &[], &[], &CodegenOptions::default()).kernel
        });
        let facts = KernelFacts::of(&small);
        let _ = Cta::with_files(&large, &facts, 2, CtaFiles::default());
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
            num_outputs: 1,
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
        assert!(refused(KStmt::Op(KOp::StoreGlobal { output: 1, src: Reg(0) })));
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
            let counts = compiled.kernel.site_counts(threads).expect("no guard");
            assert!(counts.loops.is_empty(), "a straight-line kernel");
            let want = counts.outside;
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
        assert!(!looped.kernel.site_counts(8).expect("no guard").loops.is_empty());
    }

    #[test]
    fn a_looped_kernel_counts_its_static_walk_plus_its_trips() {
        // Given a window's trips, its events are arithmetic: the code
        // outside the loops once, each body once per trip, and a reduction
        // per trip and per entry — once per window at top level, once per
        // trip of the enclosing loop for a nested one.
        let input: Vec<u8> = (0..900u32).map(|i| b"abcbcdbcbcbcdexaee"[i as usize % 18]).collect();
        let basis = basis_for(&input);
        for pattern in ["a(bc)*d", "a((bc)*d)*e", "x(a|(bc)+)*e", "(ab|c)*(d(bc)*)+e"] {
            let program = lower(&parse(pattern).unwrap());
            let compiled = compile(&program, &[], &[], &CodegenOptions::default());
            let mut taken = 0;
            for threads in [1, 2, 8, 64] {
                let counts = compiled.kernel.site_counts(threads).expect("no guards");
                assert!(!counts.loops.is_empty(), "{pattern}");
                let mut cta = Cta::new(&compiled.kernel, threads);
                for start in [-64i64, 0, 37, 640, 7000] {
                    let (_, got, trips) = window(&mut cta, &basis, start);
                    let mut want = CtaCounters::new(trips.len());
                    let mut add = |c: &bitgen_kernel::WindowCounts, n: u64| {
                        want.alu_ops += u64::from(c.alu_ops) * n;
                        want.smem_stores += u64::from(c.smem_stores) * n;
                        want.smem_loads += u64::from(c.smem_loads) * n;
                        want.barriers += u64::from(c.barriers) * n;
                        want.global_load_words += u64::from(c.global_load_words) * n;
                        want.global_store_words += u64::from(c.global_store_words) * n;
                    };
                    add(&counts.outside, 1);
                    let mut reductions = 0;
                    for l in &counts.loops {
                        let trips_of = |site: u32| trips[site as usize];
                        add(&l.body, trips_of(l.site));
                        reductions += trips_of(l.site) + l.parent.map_or(1, trips_of);
                    }
                    want.reductions = reductions;
                    want.window_iterations = 1;
                    want.loop_trips = trips.clone();
                    assert_eq!(got, want, "{pattern} at T={threads} from {start}");
                    taken += trips.iter().filter(|&&t| t > 0).count();
                }
            }
            assert!(taken > 0, "{pattern}: no window took a trip");
        }
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
