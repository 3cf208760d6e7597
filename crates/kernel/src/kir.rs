//! The kernel IR: what BitGen "emits" instead of CUDA C.
//!
//! A [`Kernel`] is the device function one CTA executes. Every register
//! holds one machine word (W = 32 bits) per thread; cross-thread data
//! only ever moves through shared-memory slots guarded by barriers —
//! exactly the discipline the paper's generated CUDA follows. The SIMT
//! emulator in `bitgen-gpu` executes this IR and *checks* the barrier
//! discipline rather than assuming it.

use bitgen_ir::{pack_spans, UNTOUCHED_SPAN};
use std::fmt;

/// Machine word size in bits (the GPU word size of the paper).
pub const WORD_BITS: usize = 32;

/// A per-thread register index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A shared-memory slot holding one word per thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slot(pub u32);

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "smem{}", self.0)
    }
}

/// A kernel instruction, executed by all T threads of the CTA in lockstep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KOp {
    /// Load this thread's window word of basis bitstream `bit` (0..8).
    LoadBasis {
        /// Destination register.
        dst: Reg,
        /// Basis stream index (0 = most significant bit of each byte).
        bit: u8,
    },
    /// Load this thread's window word of materialised global stream
    /// `input` (a segment boundary stream).
    LoadGlobal {
        /// Destination register.
        dst: Reg,
        /// Index into the kernel's input-stream table.
        input: u32,
    },
    /// Load a constant word (all-zeros or all-ones).
    Const {
        /// Destination register.
        dst: Reg,
        /// `true` for all-ones.
        ones: bool,
    },
    /// `dst = ~a`.
    Not {
        /// Destination register.
        dst: Reg,
        /// Operand.
        a: Reg,
    },
    /// `dst = a & b`.
    And {
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `dst = a | b`.
    Or {
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `dst = a + b`: window-wide long addition (a CTA-level carry scan
    /// on real hardware). Carries are a cross-block dependency: the
    /// emulator reports the longest carry-feeding run via the op's
    /// dynamic `site`, exactly like loop trip counts.
    Add {
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
        /// Dynamic-site index (pre-order over `while`s and `add`s).
        site: u32,
    },
    /// `dst = a ^ b`.
    Xor {
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `dst = a`.
    Copy {
        /// Destination register.
        dst: Reg,
        /// Source register.
        a: Reg,
    },
    /// Publish this thread's word of `src` to shared memory.
    SmemStore {
        /// Slot to write.
        slot: Slot,
        /// Source register.
        src: Reg,
    },
    /// CTA-wide barrier.
    Barrier,
    /// Read a window-level shifted word from a slot: positive `shift`
    /// is the paper's `>>` (marker advance; data comes from lower
    /// thread indices), negative its `<<`.
    ///
    /// Requires a barrier between the slot's stores and this read; the
    /// emulator enforces it.
    ShiftRead {
        /// Destination register.
        dst: Reg,
        /// Slot published by a preceding [`KOp::SmemStore`].
        slot: Slot,
        /// Signed shift distance in bits.
        shift: i64,
    },
    /// Store this thread's word of `src` as output stream `output`.
    StoreGlobal {
        /// Index into the kernel's output-stream table.
        output: u32,
        /// Source register.
        src: Reg,
    },
}

impl KOp {
    /// Destination register, if the op writes one.
    pub fn dst(&self) -> Option<Reg> {
        match *self {
            KOp::LoadBasis { dst, .. }
            | KOp::LoadGlobal { dst, .. }
            | KOp::Const { dst, .. }
            | KOp::Not { dst, .. }
            | KOp::And { dst, .. }
            | KOp::Or { dst, .. }
            | KOp::Add { dst, .. }
            | KOp::Xor { dst, .. }
            | KOp::Copy { dst, .. }
            | KOp::ShiftRead { dst, .. } => Some(dst),
            KOp::SmemStore { .. } | KOp::Barrier | KOp::StoreGlobal { .. } => None,
        }
    }

    /// Every register the op names: its destination, then its sources.
    pub fn regs(&self) -> impl Iterator<Item = Reg> {
        let (regs, named) = match *self {
            KOp::LoadBasis { dst, .. }
            | KOp::LoadGlobal { dst, .. }
            | KOp::Const { dst, .. }
            | KOp::ShiftRead { dst, .. } => ([dst; 3], 1),
            KOp::SmemStore { src, .. } | KOp::StoreGlobal { src, .. } => ([src; 3], 1),
            KOp::Not { dst, a } | KOp::Copy { dst, a } => ([dst, a, a], 2),
            KOp::And { dst, a, b }
            | KOp::Or { dst, a, b }
            | KOp::Add { dst, a, b, .. }
            | KOp::Xor { dst, a, b } => ([dst, a, b], 3),
            KOp::Barrier => ([Reg(0); 3], 0),
        };
        regs.into_iter().take(named)
    }
}

/// A kernel statement: an instruction or block-wide control flow.
///
/// Conditions are *CTA-wide*: the body runs iff any thread's word of
/// `cond` over the current window is non-zero (the paper's block-wide
/// `atomicOr` reduction; no warp divergence).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KStmt {
    /// A plain instruction.
    Op(KOp),
    /// Zero-block-skipping guard.
    If {
        /// Condition register (reduced CTA-wide).
        cond: Reg,
        /// Guarded body.
        body: Box<[KStmt]>,
    },
    /// Fixpoint loop.
    While {
        /// Condition register (reduced CTA-wide each trip).
        cond: Reg,
        /// Loop body.
        body: Box<[KStmt]>,
        /// Dynamic-site index (pre-order over `while`s and `add`s); the
        /// emulator reports this loop's trip count under it.
        site: u32,
    },
}

/// A complete device function for one CTA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kernel {
    /// The statement list executed once per window iteration.
    pub stmts: Vec<KStmt>,
    /// Size of the per-thread register file. [`crate::compile`] numbers
    /// the registers a kernel references densely, so for a generated
    /// kernel this is exactly how many it names (`0..num_regs`, every one
    /// referenced), and not how many a liveness-based allocator would keep
    /// live at once, which is [`Kernel::max_live_regs`].
    pub num_regs: u32,
    /// Number of shared-memory slots (each T words).
    pub num_slots: u32,
    /// Number of materialised input streams ([`KOp::LoadGlobal`] indices).
    pub num_inputs: u32,
    /// Number of output streams ([`KOp::StoreGlobal`] indices).
    pub num_outputs: u32,
    /// Number of dynamic sites (`while` loops and `add` carries) in
    /// structural pre-order; the emulator reports a per-site dynamic
    /// measure (trips / longest carry run) under this numbering, matching
    /// the overlap analysis.
    pub num_sites: u32,
}

impl KStmt {
    /// Instructions in `stmts`, bodies included (control-flow headers are
    /// not instructions).
    pub fn count_ops(stmts: &[KStmt]) -> usize {
        stmts
            .iter()
            .map(|s| match s {
                KStmt::Op(_) => 1,
                KStmt::If { body, .. } | KStmt::While { body, .. } => KStmt::count_ops(body),
            })
            .sum()
    }
}

impl Kernel {
    /// Total instructions (not counting control-flow headers).
    pub fn op_count(&self) -> usize {
        KStmt::count_ops(&self.stmts)
    }

    /// Number of [`KOp::Barrier`]s in the static code.
    pub fn barrier_count(&self) -> usize {
        let mut n = 0;
        self.for_each_op(&mut |op| {
            if matches!(op, KOp::Barrier) {
                n += 1;
            }
        });
        n
    }

    /// Visits every instruction, entering control-flow bodies.
    pub fn for_each_op<F: FnMut(&KOp)>(&self, f: &mut F) {
        fn walk<F: FnMut(&KOp)>(stmts: &[KStmt], f: &mut F) {
            for s in stmts {
                match s {
                    KStmt::Op(op) => f(op),
                    KStmt::If { body, .. } | KStmt::While { body, .. } => walk(body, f),
                }
            }
        }
        walk(&self.stmts, f);
    }

    /// Shared memory bytes required per CTA for `threads` threads.
    pub fn smem_bytes(&self, threads: usize) -> usize {
        self.num_slots as usize * threads * (WORD_BITS / 8)
    }

    /// Estimates the number of physical registers a liveness-based
    /// allocator would need: the maximum number of simultaneously live
    /// virtual registers.
    ///
    /// The kernel IR keeps one register per stream, basis word and shared
    /// circuit node for clarity (numbered densely, never reused); a
    /// real register allocator reuses registers once values die, and the
    /// paper's `-maxrregcount` tuning presumes exactly that. Registers
    /// touched inside a loop are conservatively kept live across the whole
    /// loop (loop-carried values are live between trips). The count is
    /// the rows [`pack_spans`] takes for those spans.
    pub fn max_live_regs(&self) -> u32 {
        fn touch(spans: &mut Vec<(u32, u32)>, r: Reg, pos: u32) {
            let at = r.0 as usize;
            if at >= spans.len() {
                spans.resize(at + 1, UNTOUCHED_SPAN);
            }
            let span = &mut spans[at];
            *span = (span.0.min(pos), span.1.max(pos));
        }
        fn walk(stmts: &[KStmt], pos: &mut u32, spans: &mut Vec<(u32, u32)>) {
            for s in stmts {
                *pos += 1;
                match s {
                    KStmt::Op(op) => op.regs().for_each(|r| touch(spans, r, *pos)),
                    KStmt::If { cond, body } | KStmt::While { cond, body, .. } => {
                        let start = *pos;
                        touch(spans, *cond, start);
                        walk(body, pos, spans);
                        let end = *pos;
                        // Any register live anywhere in the body is kept
                        // live across the whole body (loop-carried values
                        // are live between trips).
                        for span in spans.iter_mut().filter(|s| s.1 >= start && s.0 <= end) {
                            *span = (span.0.min(start), span.1.max(end));
                        }
                    }
                }
            }
        }
        let mut spans = vec![UNTOUCHED_SPAN; self.num_regs as usize];
        walk(&self.stmts, &mut 0, &mut spans);
        pack_spans(&spans).1.max(1)
    }

    /// What one window of this kernel costs a CTA of `threads` threads,
    /// event for event as the emulator counts it, short of the data: the
    /// instructions outside any loop run exactly once per window, and each
    /// `while`'s body once per trip, so a window costs
    /// `outside + Σ trips · body` and reduces `trips + entries` conditions
    /// per loop — entered once per window at top level, once per trip of
    /// the loop around it otherwise. `None` for a kernel with an `if`,
    /// whose skips depend on the data.
    pub fn site_counts(&self, threads: usize) -> Option<SiteCounts> {
        fn walk(
            stmts: &[KStmt],
            threads: usize,
            parent: Option<u32>,
            at: &mut WindowCounts,
            loops: &mut Vec<LoopCounts>,
        ) -> Option<()> {
            for stmt in stmts {
                match stmt {
                    KStmt::Op(op) => at.charge(op, threads),
                    KStmt::If { .. } => return None,
                    KStmt::While { body, site, .. } => {
                        let index = loops.len();
                        let mut trip = WindowCounts::default();
                        loops.push(LoopCounts { site: *site, parent, body: trip });
                        walk(body, threads, Some(*site), &mut trip, loops)?;
                        loops[index].body = trip;
                    }
                }
            }
            Some(())
        }
        let mut counts = SiteCounts::default();
        walk(&self.stmts, threads, None, &mut counts.outside, &mut counts.loops)?;
        Some(counts)
    }
}

/// What one window of a kernel without `if`s costs a CTA, short of its
/// loops' trips ([`Kernel::site_counts`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteCounts {
    /// The events of the instructions outside any loop.
    pub outside: WindowCounts,
    /// Every `while`, in pre-order.
    pub loops: Vec<LoopCounts>,
}

/// One `while` of a kernel ([`SiteCounts::loops`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopCounts {
    /// Its dynamic site ([`KStmt::While::site`]).
    pub site: u32,
    /// The site of the loop whose body it is in; `None` at top level.
    pub parent: Option<u32>,
    /// The events of one trip of its body, nested loops' bodies excluded.
    pub body: WindowCounts,
}

/// The events of a kernel's instructions outside its loops in one window,
/// or of one trip of a loop body ([`Kernel::site_counts`]), named as the
/// emulator's counters are. One window's worth fits 32 bits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowCounts {
    /// Register ALU instructions issued.
    pub alu_ops: u32,
    /// Shared-memory stores.
    pub smem_stores: u32,
    /// Shared-memory shifted reads.
    pub smem_loads: u32,
    /// Barriers.
    pub barriers: u32,
    /// Words loaded from global memory.
    pub global_load_words: u32,
    /// Words stored to global memory.
    pub global_store_words: u32,
}

impl WindowCounts {
    /// Counts one execution of `op` by a CTA of `threads` threads.
    fn charge(&mut self, op: &KOp, threads: usize) {
        let words = threads as u32;
        match op {
            KOp::LoadBasis { .. } | KOp::LoadGlobal { .. } => self.global_load_words += words,
            KOp::Const { .. }
            | KOp::Not { .. }
            | KOp::And { .. }
            | KOp::Or { .. }
            | KOp::Xor { .. }
            | KOp::Copy { .. } => self.alu_ops += 1,
            // A CTA-level carry scan: log T steps through shared memory.
            KOp::Add { .. } => {
                self.alu_ops += threads.ilog2().max(1) + 2;
                self.smem_stores += 1;
                self.smem_loads += 1;
                self.barriers += 2;
            }
            KOp::SmemStore { .. } => self.smem_stores += 1,
            KOp::Barrier => self.barriers += 1,
            KOp::ShiftRead { .. } => self.smem_loads += 1,
            KOp::StoreGlobal { .. } => self.global_store_words += words,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Kernel {
        Kernel {
            stmts: vec![
                KStmt::Op(KOp::LoadBasis { dst: Reg(0), bit: 0 }),
                KStmt::Op(KOp::SmemStore { slot: Slot(0), src: Reg(0) }),
                KStmt::Op(KOp::Barrier),
                KStmt::Op(KOp::ShiftRead { dst: Reg(1), slot: Slot(0), shift: 1 }),
                KStmt::Op(KOp::Barrier),
                KStmt::While {
                    cond: Reg(1),
                    body: [KStmt::Op(KOp::And { dst: Reg(1), a: Reg(1), b: Reg(0) })].into(),
                    site: 0,
                },
                KStmt::Op(KOp::StoreGlobal { output: 0, src: Reg(1) }),
            ],
            num_regs: 2,
            num_slots: 1,
            num_inputs: 0,
            num_outputs: 1,
            num_sites: 1,
        }
    }

    #[test]
    fn counts() {
        let k = sample();
        assert_eq!(k.op_count(), 7);
        assert_eq!(k.barrier_count(), 2);
        assert_eq!(k.smem_bytes(512), 512 * 4);
    }

    #[test]
    fn dst_classification() {
        assert_eq!(KOp::Barrier.dst(), None);
        assert_eq!(KOp::SmemStore { slot: Slot(0), src: Reg(3) }.dst(), None);
        assert_eq!(KOp::Copy { dst: Reg(5), a: Reg(1) }.dst(), Some(Reg(5)));
        assert_eq!(
            KOp::ShiftRead { dst: Reg(2), slot: Slot(1), shift: -4 }.dst(),
            Some(Reg(2))
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Reg(3).to_string(), "r3");
        assert_eq!(Slot(2).to_string(), "smem2");
    }

    /// The interval sweep as first written: a map per register and a
    /// sorted event list.
    fn max_live_regs_reference(kernel: &Kernel) -> u32 {
        use std::collections::HashMap;
        fn walk(stmts: &[KStmt], pos: &mut u32, iv: &mut HashMap<u32, (u32, u32)>) {
            let touch = |iv: &mut HashMap<u32, (u32, u32)>, r: Reg, pos: u32| {
                let e = iv.entry(r.0).or_insert((pos, pos));
                *e = (e.0.min(pos), e.1.max(pos));
            };
            for s in stmts {
                *pos += 1;
                match s {
                    KStmt::Op(op) => op.regs().for_each(|r| touch(iv, r, *pos)),
                    KStmt::If { cond, body } | KStmt::While { cond, body, .. } => {
                        let start = *pos;
                        touch(iv, *cond, start);
                        walk(body, pos, iv);
                        for v in iv.values_mut() {
                            if v.1 >= start && v.0 <= *pos {
                                *v = (v.0.min(start), v.1.max(*pos));
                            }
                        }
                    }
                }
            }
        }
        let mut iv = HashMap::new();
        walk(&kernel.stmts, &mut 0, &mut iv);
        let mut events: Vec<(u32, i32)> =
            iv.values().flat_map(|&(s, e)| [(s, 1), (e + 1, -1)]).collect();
        events.sort_unstable();
        let (mut live, mut max) = (0, 0);
        for (_, d) in events {
            live += d;
            max = max.max(live);
        }
        max.max(1) as u32
    }

    #[test]
    fn live_registers_agree_with_the_reference_sweep() {
        use crate::{compile, CodegenOptions};
        use bitgen_ir::lower_group;
        use bitgen_passes::{insert_zero_skips, rebalance, ZbsConfig};
        use bitgen_regex::parse;
        assert_eq!(sample().max_live_regs(), max_live_regs_reference(&sample()));
        let sets = [&["abc"][..], &["a(bc)*d", "x[0-9]{2,5}y"], &["(a|bb)+c", "q.{0,3}z", "k+"]];
        for patterns in sets {
            let asts: Vec<_> = patterns.iter().map(|p| parse(p).unwrap()).collect();
            let mut prog = lower_group(&asts);
            for transform in 0..3 {
                if transform == 1 {
                    rebalance(&mut prog);
                } else if transform == 2 {
                    insert_zero_skips(&mut prog, ZbsConfig::default());
                }
                let kernel = compile(&prog, &[], &[], &CodegenOptions::default()).kernel;
                let want = max_live_regs_reference(&kernel);
                assert_eq!(kernel.max_live_regs(), want, "{patterns:?}");
            }
        }
    }

    #[test]
    fn a_straight_line_kernels_site_counts_have_no_loops() {
        let straight = Kernel { stmts: sample().stmts[..5].to_vec(), ..sample() };
        let SiteCounts { outside: counts, loops } = straight.site_counts(4).unwrap();
        assert!(loops.is_empty());
        assert_eq!((counts.alu_ops, counts.global_load_words), (0, 4));
        assert_eq!((counts.smem_stores, counts.smem_loads, counts.barriers), (1, 1, 2));
    }

    #[test]
    fn site_counts_split_a_window_at_its_loops() {
        let counts = sample().site_counts(4).unwrap();
        let outside = WindowCounts {
            smem_stores: 1,
            smem_loads: 1,
            barriers: 2,
            global_load_words: 4,
            global_store_words: 4,
            ..WindowCounts::default()
        };
        assert_eq!(counts.outside, outside);
        let body = WindowCounts { alu_ops: 1, ..WindowCounts::default() };
        assert_eq!(counts.loops, vec![LoopCounts { site: 0, parent: None, body }]);
        let guard = KStmt::If { cond: Reg(0), body: [].into() };
        let guarded = Kernel { stmts: vec![guard], ..sample() };
        assert_eq!(guarded.site_counts(4), None);
    }

    /// The sites of `kernel` in pre-order, each with whether it is a loop.
    fn kernel_sites(stmts: &[KStmt], out: &mut Vec<(u32, bool)>) {
        for stmt in stmts {
            match stmt {
                KStmt::Op(KOp::Add { site, .. }) => out.push((*site, false)),
                KStmt::Op(_) => {}
                KStmt::If { body, .. } => kernel_sites(body, out),
                KStmt::While { body, site, .. } => {
                    out.push((*site, true));
                    kernel_sites(body, out);
                }
            }
        }
    }

    /// The program's sites in pre-order, each with whether it is a loop.
    fn program_sites(stmts: &[bitgen_ir::Stmt], out: &mut Vec<bool>) {
        use bitgen_ir::{Op, Stmt};
        for stmt in stmts {
            match stmt {
                Stmt::Op(op) => out.extend(matches!(op, Op::Add { .. }).then_some(false)),
                Stmt::If { body, .. } => program_sites(body, out),
                Stmt::While { body, .. } => {
                    out.push(true);
                    program_sites(body, out);
                }
            }
        }
    }

    #[test]
    fn the_walker_the_overlap_analysis_and_the_kernels_number_sites_alike() {
        use crate::{compile, CodegenOptions};
        use bitgen_bitstream::{Basis, BitStream};
        use bitgen_ir::{lower_group_with, walk, ById, LowerOptions, Observer, RunControl, Stmt};
        use bitgen_passes::{insert_zero_skips, OverlapInfo, ZbsConfig};
        use bitgen_regex::parse;

        struct Sites(Vec<usize>);
        impl Observer for Sites {
            fn loop_check(&mut self, site: usize, _cond: &BitStream) {
                self.0.push(site);
            }
        }
        let sets =
            [&["a((bc)*d)*e", "x+y"][..], &["(a|bb)+c", "q(rs)*t", "k+"], &["a*b", "c(d*e)+"]];
        let input = b"abcbcdbcde xxy abbac qrsrst kk aab cddeddde";
        for (patterns, match_star, guard) in sets.iter().flat_map(|p| {
            [(p, false, false), (p, true, false), (p, false, true)]
        }) {
            let what = format!("{patterns:?} match_star={match_star} zbs={guard}");
            let asts: Vec<_> = patterns.iter().map(|p| parse(p).unwrap()).collect();
            let options = LowerOptions { match_star, log_repetition: false };
            let mut program = lower_group_with(&asts, options);
            if guard {
                insert_zero_skips(&mut program, ZbsConfig { interval: 2, min_range: 1 });
            }
            let kernel = compile(&program, &[], &[], &CodegenOptions::default()).kernel;
            let mut kernel_order = Vec::new();
            kernel_sites(&kernel.stmts, &mut kernel_order);
            let mut program_order = Vec::new();
            program_sites(program.stmts(), &mut program_order);
            let numbered: Vec<u32> = (0..kernel.num_sites).collect();
            assert_eq!(kernel_order.iter().map(|s| s.0).collect::<Vec<_>>(), numbered, "{what}");
            let kinds: Vec<bool> = kernel_order.iter().map(|s| s.1).collect();
            assert_eq!(kinds, program_order, "{what}");
            let sites = Stmt::site_count(program.stmts());
            assert_eq!(OverlapInfo::analyze(&program).loop_growth.len(), sites, "{what}");
            assert_eq!(kernel.num_sites as usize, sites, "{what}");
            // Every check the walker reports names one of the kernel's loops.
            let mut env = ById::default();
            env.reset(program.num_streams() as usize);
            let mut checks = Sites(Vec::new());
            let (basis, ctl) = (Basis::transpose(input), RunControl::unlimited());
            walk(program.stmts(), &mut env, &mut checks, &basis, &ctl, None).unwrap();
            assert_eq!(checks.0.is_empty(), !kinds.contains(&true), "{what}");
            assert!(checks.0.iter().all(|&site| kinds[site]), "{what}: {:?}", checks.0);
        }
    }
}
