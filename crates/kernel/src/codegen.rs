//! Kernel generation from bitstream programs, including the paper's §5.3:
//! scheduling SHIFT instructions and merging their barriers.
//!
//! Every IR shift becomes the smem-store / barrier / shifted-read /
//! barrier sequence of Fig. 9. The scheduler walks each straight-line run
//! of instructions and greedily merges a shift into the group anchored at
//! a preceding shift when (1) its operand is already available at the
//! anchor, (2) the group has fewer than `merge_size` members, and (3)
//! hoisting cannot be observed (the destination is a single-definition
//! temporary unused before its original position). Merged shifts share one
//! barrier pair, and shifts of the same source share one shared-memory
//! copy (the paper's redundant-copy elimination).

use crate::kir::{KOp, KStmt, Kernel, Reg, Slot};
use bitgen_bitstream::{compile_class, CcExpr};
use bitgen_ir::{DefUse, Op, Program, Stmt, StreamId};
use std::collections::HashMap;

/// Options controlling kernel generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodegenOptions {
    /// Maximum number of SHIFT instructions sharing one barrier pair — the
    /// paper's *merge size* (Fig. 13 sweeps 1, 4, 16, 32; default 8).
    pub merge_size: usize,
}

impl Default for CodegenOptions {
    fn default() -> CodegenOptions {
        CodegenOptions { merge_size: 8 }
    }
}

/// Compile-time statistics of one generated kernel (Table 6 columns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodegenStats {
    /// Shift groups emitted; each costs one barrier pair per execution.
    pub shift_groups: usize,
    /// Total shifts compiled.
    pub shifts: usize,
    /// Shared-memory stores eliminated because a group reused one source.
    pub smem_copies_saved: usize,
    /// Circuit gates eliminated by cross-class CSE.
    pub gates_shared: usize,
}

/// Result of compiling one program into a kernel.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The kernel.
    pub kernel: Kernel,
    /// Scheduling statistics.
    pub stats: CodegenStats,
}

/// Compiles `program` into a [`Kernel`].
///
/// `inputs` are streams whose values are loaded from global memory
/// (materialised by an earlier segment, in segmented execution);
/// `outputs` are streams stored back per window. Outputs default to the
/// program's own outputs when empty.
///
/// # Examples
///
/// ```
/// use bitgen_regex::parse;
/// use bitgen_ir::lower;
/// use bitgen_kernel::{compile, CodegenOptions};
///
/// let prog = lower(&parse("ab").unwrap());
/// let compiled = compile(&prog, &[], &[], &CodegenOptions::default());
/// assert!(compiled.kernel.barrier_count() >= 2);
/// assert_eq!(compiled.kernel.num_outputs, 1);
/// ```
pub fn compile(
    program: &Program,
    inputs: &[StreamId],
    outputs: &[StreamId],
    options: &CodegenOptions,
) -> Compiled {
    let outputs: Vec<StreamId> =
        if outputs.is_empty() { program.outputs().to_vec() } else { outputs.to_vec() };
    let mut cg = Codegen {
        du: DefUse::of(program),
        options: *options,
        basis_reg_base: program.num_streams(),
        cse_base: program.num_streams() + 8,
        num_slots: 0,
        num_sites: 0,
        cse_regs: 0,
        dense: HashMap::new(),
        stats: CodegenStats::default(),
        circuit_cache: HashMap::new(),
    };
    let mut stmts = Vec::new();
    // Preload the basis words used by the program's classes.
    let mut basis_used = [false; 8];
    for class in program.classes() {
        mark_basis(&compile_class(&class), &mut basis_used);
    }
    for (bit, used) in basis_used.iter().enumerate() {
        if *used {
            let dst = cg.dense(cg.basis_reg_base + bit as u32);
            stmts.push(KStmt::Op(KOp::LoadBasis { dst, bit: bit as u8 }));
        }
    }
    // Load materialised segment inputs.
    for (i, &id) in inputs.iter().enumerate() {
        stmts.push(KStmt::Op(KOp::LoadGlobal { dst: cg.reg(id), input: i as u32 }));
    }
    cg.gen_stmts(program.stmts(), &mut stmts);
    // Store outputs.
    for (i, &id) in outputs.iter().enumerate() {
        stmts.push(KStmt::Op(KOp::StoreGlobal { output: i as u32, src: cg.reg(id) }));
    }
    // Kernels stay resident for the life of an engine: no spare capacity.
    stmts.shrink_to_fit();
    let kernel = Kernel {
        stmts,
        num_regs: cg.dense.len() as u32,
        num_slots: cg.num_slots.max(1),
        num_inputs: inputs.len() as u32,
        num_outputs: outputs.len() as u32,
        num_sites: cg.num_sites,
    };
    Compiled { kernel, stats: cg.stats }
}

fn mark_basis(e: &CcExpr, used: &mut [bool; 8]) {
    match e {
        CcExpr::Const(_) => {}
        CcExpr::Basis(k) => used[*k as usize] = true,
        CcExpr::Not(a) => mark_basis(a, used),
        CcExpr::And(a, b) | CcExpr::Or(a, b) => {
            mark_basis(a, used);
            mark_basis(b, used);
        }
    }
}

struct Codegen {
    du: DefUse,
    options: CodegenOptions,
    basis_reg_base: u32,
    /// First virtual register of the shared circuit nodes, past the basis
    /// words.
    cse_base: u32,
    num_slots: u32,
    num_sites: u32,
    /// Registers holding shared circuit nodes.
    cse_regs: u32,
    /// Dense register of every virtual register (one per stream, basis
    /// word and shared circuit node) an instruction has named so far,
    /// numbered in first-touch order: the kernel's register file holds
    /// exactly the registers it references.
    dense: HashMap<u32, Reg>,
    stats: CodegenStats,
    circuit_cache: HashMap<bitgen_regex::ByteSet, CcExpr>,
}

impl Codegen {
    fn dense(&mut self, virt: u32) -> Reg {
        let next = Reg(self.dense.len() as u32);
        *self.dense.entry(virt).or_insert(next)
    }

    fn reg(&mut self, id: StreamId) -> Reg {
        self.dense(id.0)
    }

    fn gen_stmts(&mut self, stmts: &[Stmt], out: &mut Vec<KStmt>) {
        let mut run: Vec<Op> = Vec::new();
        for stmt in stmts {
            match stmt {
                Stmt::Op(op) => run.push(op.clone()),
                Stmt::If { cond, body } => {
                    self.flush_run(&mut run, out);
                    let mut kbody = Vec::new();
                    self.gen_stmts(body, &mut kbody);
                    out.push(KStmt::If { cond: self.reg(*cond), body: kbody.into() });
                }
                Stmt::While { cond, body } => {
                    self.flush_run(&mut run, out);
                    let site = self.num_sites;
                    self.num_sites += 1;
                    let mut kbody = Vec::new();
                    self.gen_stmts(body, &mut kbody);
                    out.push(KStmt::While { cond: self.reg(*cond), body: kbody.into(), site });
                }
            }
        }
        self.flush_run(&mut run, out);
    }

    fn flush_run(&mut self, run: &mut Vec<Op>, out: &mut Vec<KStmt>) {
        if run.is_empty() {
            return;
        }
        let block = std::mem::take(run);
        self.gen_block(&block, out);
    }

    /// Schedules the shifts of a straight-line block into barrier groups
    /// and emits the block.
    fn gen_block(&mut self, block: &[Op], out: &mut Vec<KStmt>) {
        let groups = self.schedule_shifts(block);
        // anchor position -> group index
        let mut anchored: HashMap<usize, usize> = HashMap::new();
        for (gi, g) in groups.iter().enumerate() {
            anchored.insert(g.anchor, gi);
        }
        // positions of shifts swallowed by some group
        let mut swallowed: HashMap<usize, ()> = HashMap::new();
        for g in &groups {
            for &(pos, _) in &g.members {
                swallowed.insert(pos, ());
            }
        }
        // Class-circuit CSE is scoped to the block: inside one block there
        // is no control flow, so every cached node's definition dominates
        // its reuses.
        let mut cse: HashMap<CcExpr, Reg> = HashMap::new();
        for (i, op) in block.iter().enumerate() {
            if let Some(&gi) = anchored.get(&i) {
                self.emit_group(&groups[gi], out);
            }
            if swallowed.contains_key(&i) {
                continue; // emitted by its group
            }
            self.emit_op(op, out, &mut cse);
        }
    }

    /// Greedy shift scheduling (§5.3): walk the block in order, merging
    /// each shift into the open group when legal, else starting a new one.
    fn schedule_shifts(&mut self, block: &[Op]) -> Vec<ShiftGroup> {
        // Definition positions per variable (all of them, in order).
        let mut defs: HashMap<StreamId, Vec<usize>> = HashMap::new();
        for (i, op) in block.iter().enumerate() {
            defs.entry(op.dst()).or_default().push(i);
        }
        let latest_def_before = |v: StreamId, i: usize| -> Option<usize> {
            defs.get(&v)?.iter().copied().rfind(|&d| d < i)
        };
        let mut groups: Vec<ShiftGroup> = Vec::new();
        for (i, op) in block.iter().enumerate() {
            let (src, _amount) = match op {
                Op::Advance { src, amount, .. } => (*src, *amount),
                Op::Retreat { src, amount, .. } => (*src, *amount),
                _ => continue,
            };
            self.stats.shifts += 1;
            let dst = op.dst();
            let mergeable = groups.last().is_some_and(|g| {
                if g.members.len() >= self.options.merge_size {
                    return false;
                }
                let p = g.anchor;
                // (1) operand ready at the anchor: its latest definition
                // before the shift precedes the anchor, i.e. it is not
                // (re)defined in [p, i).
                let ready = match latest_def_before(src, i) {
                    None => true, // defined outside the block
                    Some(d) => d < p,
                };
                if !ready {
                    return false;
                }
                // (2) hoisting the definition of dst to the anchor is
                // unobservable: dst defined exactly once in the whole
                // program and neither read nor written in [p, i).
                if self.du.def_count(dst) != 1 {
                    return false;
                }
                !block[p..i].iter().any(|o| o.dst() == dst || o.sources().contains(&dst))
            });
            if mergeable {
                let g = groups.last_mut().expect("mergeable implies a group exists");
                g.members.push((i, op.clone()));
            } else {
                groups.push(ShiftGroup { anchor: i, members: vec![(i, op.clone())] });
            }
        }
        groups
    }

    /// Emits one shift group: distinct sources go to shared memory once,
    /// one barrier, all shifted reads, one barrier.
    fn emit_group(&mut self, group: &ShiftGroup, out: &mut Vec<KStmt>) {
        self.stats.shift_groups += 1;
        let mut slot_of: HashMap<StreamId, Slot> = HashMap::new();
        for (_, op) in &group.members {
            let src = op.sources()[0];
            if slot_of.contains_key(&src) {
                // Redundant-copy elimination: the same unshifted stream is
                // stored once and read at several distances.
                self.stats.smem_copies_saved += 1;
                continue;
            }
            let slot = Slot(slot_of.len() as u32);
            slot_of.insert(src, slot);
            out.push(KStmt::Op(KOp::SmemStore { slot, src: self.reg(src) }));
        }
        self.num_slots = self.num_slots.max(slot_of.len() as u32);
        out.push(KStmt::Op(KOp::Barrier));
        for (_, op) in &group.members {
            let (dst, src, shift) = match op {
                Op::Advance { dst, src, amount } => (*dst, *src, *amount as i64),
                Op::Retreat { dst, src, amount } => (*dst, *src, -(*amount as i64)),
                other => unreachable!("non-shift {other:?} in group"),
            };
            out.push(KStmt::Op(KOp::ShiftRead { dst: self.reg(dst), slot: slot_of[&src], shift }));
        }
        out.push(KStmt::Op(KOp::Barrier));
    }

    fn emit_op(&mut self, op: &Op, out: &mut Vec<KStmt>, cse: &mut HashMap<CcExpr, Reg>) {
        if let Op::MatchCc { dst, class } = op {
            let circuit = self
                .circuit_cache
                .entry(*class)
                .or_insert_with(|| compile_class(class))
                .clone();
            let root = self.emit_circuit_cse(&circuit, out, cse);
            out.push(KStmt::Op(KOp::Copy { dst: self.reg(*dst), a: root }));
            return;
        }
        let site = self.num_sites;
        let mut r = |id: &StreamId| self.reg(*id);
        let kop = match op {
            Op::And { dst, a, b } => KOp::And { dst: r(dst), a: r(a), b: r(b) },
            Op::Or { dst, a, b } => KOp::Or { dst: r(dst), a: r(a), b: r(b) },
            Op::Add { dst, a, b } => KOp::Add { dst: r(dst), a: r(a), b: r(b), site },
            Op::Xor { dst, a, b } => KOp::Xor { dst: r(dst), a: r(a), b: r(b) },
            Op::Not { dst, src } => KOp::Not { dst: r(dst), a: r(src) },
            Op::Assign { dst, src } => KOp::Copy { dst: r(dst), a: r(src) },
            Op::Zero { dst } => KOp::Const { dst: r(dst), ones: false },
            Op::Ones { dst } => KOp::Const { dst: r(dst), ones: true },
            Op::MatchCc { .. } | Op::Advance { .. } | Op::Retreat { .. } => {
                unreachable!("classes are emitted above, shifts by their group in gen_block")
            }
        };
        self.num_sites += u32::from(matches!(kop, KOp::Add { .. }));
        out.push(KStmt::Op(kop));
    }

    /// Expands a circuit with hash-consing: every distinct sub-circuit is
    /// computed once per block and its register reused — the cross-class
    /// sharing Parabix performs (lowercase letters share the `¬b0∧b1∧b2`
    /// prefix, digit tests share range comparisons, ...).
    fn emit_circuit_cse(
        &mut self,
        e: &CcExpr,
        out: &mut Vec<KStmt>,
        cse: &mut HashMap<CcExpr, Reg>,
    ) -> Reg {
        if let CcExpr::Basis(k) = e {
            return self.dense(self.basis_reg_base + *k as u32);
        }
        if let Some(&r) = cse.get(e) {
            self.stats.gates_shared += e.gate_count().max(1);
            return r;
        }
        let r = match e {
            CcExpr::Basis(_) => unreachable!("handled above"),
            CcExpr::Const(b) => {
                let r = self.alloc_cse_reg();
                out.push(KStmt::Op(KOp::Const { dst: r, ones: *b }));
                r
            }
            CcExpr::Not(a) => {
                let ra = self.emit_circuit_cse(a, out, cse);
                let r = self.alloc_cse_reg();
                out.push(KStmt::Op(KOp::Not { dst: r, a: ra }));
                r
            }
            CcExpr::And(a, b) | CcExpr::Or(a, b) => {
                let ra = self.emit_circuit_cse(a, out, cse);
                let rb = self.emit_circuit_cse(b, out, cse);
                let r = self.alloc_cse_reg();
                let kop = if matches!(e, CcExpr::And(..)) {
                    KOp::And { dst: r, a: ra, b: rb }
                } else {
                    KOp::Or { dst: r, a: ra, b: rb }
                };
                out.push(KStmt::Op(kop));
                r
            }
        };
        cse.insert(e.clone(), r);
        r
    }

    fn alloc_cse_reg(&mut self) -> Reg {
        let r = self.dense(self.cse_base + self.cse_regs);
        self.cse_regs += 1;
        r
    }
}

struct ShiftGroup {
    /// Block position the group is anchored at (its first shift).
    anchor: usize,
    /// `(original position, op)` of each member, in program order.
    members: Vec<(usize, Op)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitgen_ir::lower;
    use bitgen_passes::rebalance;
    use bitgen_regex::parse;

    fn kernel_for(pattern: &str, merge: usize) -> Compiled {
        let prog = lower(&parse(pattern).unwrap());
        compile(&prog, &[], &[], &CodegenOptions { merge_size: merge })
    }

    #[test]
    fn single_shift_costs_two_barriers() {
        let c = kernel_for("ab", 8);
        // Three shifts total (two advances + ends retreat); merged when
        // possible but at least one group ⇒ at least two barriers.
        assert!(c.kernel.barrier_count() >= 2);
        assert_eq!(c.stats.shifts, 3);
    }

    #[test]
    fn merge_size_one_gives_group_per_shift() {
        let c = kernel_for("abcdef", 1);
        assert_eq!(c.stats.shift_groups, c.stats.shifts);
    }

    #[test]
    fn larger_merge_size_reduces_groups_after_rebalancing() {
        // Without rebalancing the concatenation chain is serial: every
        // shift depends on the previous AND and nothing merges — which is
        // precisely why the paper pairs merging with Shift Rebalancing.
        let mut prog = lower(&parse("abcdefgh").unwrap());
        rebalance(&mut prog);
        let small = compile(&prog, &[], &[], &CodegenOptions { merge_size: 1 });
        let large = compile(&prog, &[], &[], &CodegenOptions { merge_size: 8 });
        assert!(large.stats.shift_groups < small.stats.shift_groups);
        assert_eq!(small.stats.shifts, large.stats.shifts);
        assert!(large.kernel.barrier_count() < small.kernel.barrier_count());
    }

    #[test]
    fn unbalanced_chain_cannot_merge() {
        let small = kernel_for("abcdefgh", 1);
        let large = kernel_for("abcdefgh", 8);
        assert_eq!(large.stats.shift_groups, small.stats.shift_groups);
    }

    #[test]
    fn rebalanced_programs_merge_better() {
        // The Fig. 8/9 effect: rebalancing makes shifts schedulable, so
        // with a generous merge size the group count should not exceed the
        // unbalanced one.
        let mut prog = lower(&parse("abbbb").unwrap());
        let before = compile(&prog, &[], &[], &CodegenOptions { merge_size: 16 });
        rebalance(&mut prog);
        let after = compile(&prog, &[], &[], &CodegenOptions { merge_size: 16 });
        assert!(
            after.stats.shift_groups <= before.stats.shift_groups,
            "rebalanced {} vs original {}",
            after.stats.shift_groups,
            before.stats.shift_groups
        );
    }

    #[test]
    fn shared_source_copies_saved() {
        // /abb/ rebalanced: b-class shifted by 1 and 2 → one smem copy.
        let mut prog = lower(&parse("abb").unwrap());
        rebalance(&mut prog);
        let c = compile(&prog, &[], &[], &CodegenOptions { merge_size: 16 });
        assert!(
            c.stats.smem_copies_saved >= 1,
            "expected a shared smem copy, got {:?}",
            c.stats
        );
    }

    #[test]
    fn loops_numbered() {
        let c = kernel_for("a(bc)*d", 8);
        assert_eq!(c.kernel.num_sites, 1);
        let c2 = kernel_for("a((bc)*d)*e", 8);
        assert_eq!(c2.kernel.num_sites, 2);
    }

    #[test]
    fn outputs_stored_and_inputs_loaded() {
        let prog = lower(&parse("ab").unwrap());
        let extra_in = bitgen_ir::StreamId(0);
        let c = compile(&prog, &[extra_in], &[], &CodegenOptions::default());
        assert_eq!(c.kernel.num_inputs, 1);
        assert_eq!(c.kernel.num_outputs, 1);
        let mut loads = 0;
        let mut stores = 0;
        c.kernel.for_each_op(&mut |op| match op {
            KOp::LoadGlobal { .. } => loads += 1,
            KOp::StoreGlobal { .. } => stores += 1,
            _ => {}
        });
        assert_eq!(loads, 1);
        assert_eq!(stores, 1);
    }

    #[test]
    fn basis_preloaded_once() {
        let c = kernel_for("[a-z][0-9]", 8);
        let mut basis_loads = 0;
        c.kernel.for_each_op(&mut |op| {
            if matches!(op, KOp::LoadBasis { .. }) {
                basis_loads += 1;
            }
        });
        assert!(basis_loads <= 8, "each basis bit loads at most once: {basis_loads}");
        assert!(basis_loads > 0);
    }

    #[test]
    fn smem_slots_bounded_by_merge_size() {
        let c = kernel_for("abcdefghij", 4);
        assert!(c.kernel.num_slots <= 4);
    }

    #[test]
    fn class_cse_shares_gates() {
        // Lowercase letters share most of their basis prefix; digits share
        // range comparisons.
        let prog = lower(&parse("[a-m][n-z][a-z][0-9][0-4]").unwrap());
        let c = compile(&prog, &[], &[], &CodegenOptions::default());
        assert!(c.stats.gates_shared > 0);
        // Gate ops of the kernel that are not the program's own: the
        // class circuits, each distinct node once, against every class
        // expanded alone.
        let (mut kernel_gates, mut program_gates) = (0, 0);
        c.kernel.for_each_op(&mut |op| {
            let gate = matches!(op, KOp::And { .. } | KOp::Or { .. } | KOp::Not { .. });
            kernel_gates += usize::from(gate || matches!(op, KOp::Const { .. }));
        });
        prog.for_each_op(&mut |op| {
            let gate = matches!(op, Op::And { .. } | Op::Or { .. } | Op::Not { .. });
            program_gates += usize::from(gate || matches!(op, Op::Zero { .. } | Op::Ones { .. }));
        });
        let circuit_ops = kernel_gates - program_gates;
        let alone: usize = prog.classes().iter().map(|c| compile_class(c).gate_count()).sum();
        assert!(circuit_ops < alone, "CSE must shrink the circuits: {circuit_ops} vs {alone}");
    }

    #[test]
    fn zbs_guards_survive_codegen() {
        use bitgen_passes::{insert_zero_skips, ZbsConfig};
        let mut prog = lower(&parse("abcdefgh").unwrap());
        insert_zero_skips(&mut prog, ZbsConfig::default());
        let c = compile(&prog, &[], &[], &CodegenOptions::default());
        fn has_if(stmts: &[KStmt]) -> bool {
            stmts.iter().any(|s| match s {
                KStmt::If { .. } => true,
                KStmt::While { body, .. } => has_if(body),
                KStmt::Op(_) => false,
            })
        }
        assert!(has_if(&c.kernel.stmts));
    }
}
