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
use bitgen_bitstream::{build_class, GateSink};
use bitgen_ir::{DefUse, Op, Program, Stmt, StreamId};
use bitgen_regex::ByteSet;
use std::collections::HashMap;
use std::ops::Range;

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
    Compiler::default().compile(program, inputs, outputs, options)
}

/// [`compile`] for several programs that share byte classes — an
/// engine's groups, a plan's segments: each distinct class's circuit is
/// built once, for every program the compiler compiles, and each kernel
/// is exactly the one [`compile`] emits. The table lives as long as the
/// caller keeps the compiler; nothing is cached anywhere else.
#[derive(Default)]
pub struct Compiler {
    circuits: Circuits,
}

impl Compiler {
    /// Compiles `program` into a [`Kernel`], as [`compile`] does.
    pub fn compile(
        &mut self,
        program: &Program,
        inputs: &[StreamId],
        outputs: &[StreamId],
        options: &CodegenOptions,
    ) -> Compiled {
        let outputs: Vec<StreamId> =
            if outputs.is_empty() { program.outputs().to_vec() } else { outputs.to_vec() };
        let streams = program.num_streams() as usize;
        let roots = self.circuits.add(program);
        let basis_used = self.circuits.basis_used(&roots);
        let nodes = self.circuits.nodes.len();
        let mut cg = Codegen {
            du: DefUse::of(program),
            options: *options,
            basis_reg_base: program.num_streams(),
            cse_base: program.num_streams() + 8,
            num_slots: 0,
            num_sites: 0,
            cse_regs: 0,
            dense: vec![UNNAMED; streams + 8 + nodes],
            num_regs: 0,
            stats: CodegenStats::default(),
            circuits: &self.circuits,
            cse: vec![(0, Reg(0)); nodes],
            block: 0,
            last_seen: vec![Seen::default(); streams],
            slots: (Vec::new(), Vec::new()),
        };
        let mut stmts = Vec::new();
        // Preload the basis words the program's classes read.
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
            num_regs: cg.num_regs,
            num_slots: cg.num_slots.max(1),
            num_inputs: inputs.len() as u32,
            num_outputs: outputs.len() as u32,
            num_sites: cg.num_sites,
        };
        Compiled { kernel, stats: cg.stats }
    }
}

/// A node of the interned class circuits; operands are node ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    Const(bool),
    Basis(u8),
    Not(u32),
    And(u32, u32),
    Or(u32, u32),
}

/// Every distinct class a [`Compiler`] has met, built once
/// ([`build_class`]) straight into one interned node table: structurally
/// equal subtrees — within a class or across classes — are one node, so a
/// block's circuit CSE finds a subtree by its id instead of by hashing
/// the tree. The leaves have fixed ids: `0` and `1` the constants, `2 + k`
/// basis stream `k`.
struct Circuits {
    nodes: Vec<Node>,
    /// Per node, the gates of its subtree as a tree
    /// ([`bitgen_bitstream::CcExpr::gate_count`]): what reusing it saves.
    gates: Vec<usize>,
    ids: HashMap<Node, u32>,
    /// The root node of each class built: every class of a program the
    /// compiler compiles has one.
    roots: HashMap<ByteSet, u32>,
}

impl Default for Circuits {
    fn default() -> Circuits {
        let constants = [Node::Const(false), Node::Const(true)];
        Circuits {
            nodes: constants.into_iter().chain((0..8).map(Node::Basis)).collect(),
            gates: vec![0; 10],
            ids: HashMap::new(),
            roots: HashMap::new(),
        }
    }
}

impl Circuits {
    /// Builds the classes of `program` not built yet; returns the root
    /// node of each class match.
    fn add(&mut self, program: &Program) -> Vec<u32> {
        let mut roots = Vec::new();
        program.for_each_op(&mut |op| {
            if let Op::MatchCc { class, .. } = op {
                let root = match self.roots.get(class) {
                    Some(&root) => root,
                    None => {
                        let root = build_class(class, self);
                        self.roots.insert(*class, root);
                        root
                    }
                };
                roots.push(root);
            }
        });
        roots
    }

    /// The id of gate `node`, whose subtree has `gates` gates.
    fn intern(&mut self, node: Node, gates: usize) -> u32 {
        if let Some(&id) = self.ids.get(&node) {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(node);
        self.gates.push(gates);
        self.ids.insert(node, id);
        id
    }

    fn gates(&self, node: u32) -> usize {
        self.gates[node as usize]
    }

    /// The basis streams the circuits under `roots` read. Not every
    /// interned node is in a circuit: folding drops operands (`b7 | 1` is
    /// `1`).
    fn basis_used(&self, roots: &[u32]) -> [bool; 8] {
        let mut used = [false; 8];
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = roots.to_vec();
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut seen[n as usize], true) {
                continue;
            }
            match self.nodes[n as usize] {
                Node::Const(_) => {}
                Node::Basis(k) => used[k as usize] = true,
                Node::Not(a) => stack.push(a),
                Node::And(a, b) | Node::Or(a, b) => stack.extend([a, b]),
            }
        }
        used
    }
}

/// Folds exactly as `CcExpr`'s smart constructors do, so a class interns
/// as the tree `compile_class` returns.
impl GateSink for Circuits {
    type Node = u32;

    fn constant(&mut self, value: bool) -> u32 {
        u32::from(value)
    }

    fn basis(&mut self, k: u8) -> u32 {
        2 + u32::from(k)
    }

    fn not(&mut self, a: u32) -> u32 {
        match self.nodes[a as usize] {
            Node::Const(value) => self.constant(!value),
            Node::Not(inner) => inner,
            _ => self.intern(Node::Not(a), 1 + self.gates(a)),
        }
    }

    fn and(&mut self, a: u32, b: u32) -> u32 {
        match (self.nodes[a as usize], self.nodes[b as usize]) {
            (Node::Const(false), _) | (_, Node::Const(false)) => self.constant(false),
            (Node::Const(true), _) => b,
            (_, Node::Const(true)) => a,
            _ => self.intern(Node::And(a, b), 1 + self.gates(a) + self.gates(b)),
        }
    }

    fn or(&mut self, a: u32, b: u32) -> u32 {
        match (self.nodes[a as usize], self.nodes[b as usize]) {
            (Node::Const(true), _) | (_, Node::Const(true)) => self.constant(true),
            (Node::Const(false), _) => b,
            (_, Node::Const(false)) => a,
            _ => self.intern(Node::Or(a, b), 1 + self.gates(a) + self.gates(b)),
        }
    }
}

/// A virtual register no instruction has named yet.
const UNNAMED: u32 = u32::MAX;

struct Codegen<'c> {
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
    dense: Vec<u32>,
    num_regs: u32,
    stats: CodegenStats,
    circuits: &'c Circuits,
    /// Per circuit node, the block that computed it and where: class
    /// CSE is scoped to a block (no control flow inside one, so every
    /// cached node's definition dominates its reuses).
    cse: Vec<(u32, Reg)>,
    /// The block being generated, counting from 1.
    block: u32,
    /// Per stream, where the block being scheduled last defined and read
    /// it (shift scheduling).
    last_seen: Vec<Seen>,
    /// The sources a shift group stores and the slot each member reads,
    /// reused from group to group.
    slots: (Vec<StreamId>, Vec<Slot>),
}

impl Codegen<'_> {
    fn dense(&mut self, virt: u32) -> Reg {
        let v = virt as usize;
        if v >= self.dense.len() {
            self.dense.resize(v + 1, UNNAMED);
        }
        if self.dense[v] == UNNAMED {
            self.dense[v] = self.num_regs;
            self.num_regs += 1;
        }
        Reg(self.dense[v])
    }

    fn reg(&mut self, id: StreamId) -> Reg {
        self.dense(id.0)
    }

    fn gen_stmts(&mut self, stmts: &[Stmt], out: &mut Vec<KStmt>) {
        let mut at = 0;
        while at < stmts.len() {
            match &stmts[at] {
                Stmt::Op(_) => {
                    let run = stmts[at..].iter().take_while(|s| matches!(s, Stmt::Op(_))).count();
                    self.gen_block(&stmts[at..at + run], out);
                    at += run;
                    continue;
                }
                Stmt::If { cond, body } => {
                    let mut kbody = Vec::new();
                    self.gen_stmts(body, &mut kbody);
                    out.push(KStmt::If { cond: self.reg(*cond), body: kbody.into() });
                }
                Stmt::While { cond, body } => {
                    let site = self.num_sites;
                    self.num_sites += 1;
                    let mut kbody = Vec::new();
                    self.gen_stmts(body, &mut kbody);
                    out.push(KStmt::While { cond: self.reg(*cond), body: kbody.into(), site });
                }
            }
            at += 1;
        }
    }

    /// Schedules the shifts of a straight-line block into barrier groups
    /// and emits the block.
    fn gen_block(&mut self, block: &[Stmt], out: &mut Vec<KStmt>) {
        let ops: Vec<&Op> = block
            .iter()
            .map(|s| match s {
                Stmt::Op(op) => op,
                _ => unreachable!("a block is a run of instructions"),
            })
            .collect();
        self.block += 1;
        let (groups, members) = self.schedule_shifts(&ops);
        // Per block position: the group anchored there, and whether a
        // group emits the shift there.
        let mut anchored = vec![None; ops.len()];
        let mut swallowed = vec![false; ops.len()];
        for (gi, g) in groups.iter().enumerate() {
            anchored[g.anchor] = Some(gi);
        }
        members.iter().for_each(|&pos| swallowed[pos] = true);
        for (i, op) in ops.iter().enumerate() {
            if let Some(gi) = anchored[i] {
                self.emit_group(&members[groups[gi].members.clone()], &ops, out);
            }
            if !swallowed[i] {
                self.emit_op(op, out);
            }
        }
    }

    /// Greedy shift scheduling (§5.3): walk the block in order, merging
    /// each shift into the open group when legal, else starting a new one.
    /// Returns the groups and, group after group, their members' block
    /// positions.
    fn schedule_shifts(&mut self, block: &[&Op]) -> (Vec<ShiftGroup>, Vec<usize>) {
        let here = self.block;
        let (mut groups, mut members): (Vec<ShiftGroup>, Vec<usize>) = (Vec::new(), Vec::new());
        for (i, op) in block.iter().enumerate() {
            if let Op::Advance { src, .. } | Op::Retreat { src, .. } = op {
                self.stats.shifts += 1;
                let dst = op.dst();
                // Where this block last defined or read a stream before `i`.
                let seen =
                    |id: StreamId| Some(self.last_seen[id.index()]).filter(|s| s.block == here);
                let mergeable = groups.last().is_some_and(|g| {
                    if g.members.len() >= self.options.merge_size {
                        return false;
                    }
                    let p = g.anchor as u32;
                    // (1) operand ready at the anchor: its latest definition
                    // before the shift precedes the anchor, i.e. it is not
                    // (re)defined in [p, i).
                    if seen(*src).and_then(|s| s.def).is_some_and(|d| d >= p) {
                        return false;
                    }
                    // (2) hoisting the definition of dst to the anchor is
                    // unobservable: dst defined exactly once in the whole
                    // program (here) and not read in [p, i).
                    self.du.def_count(dst) == 1
                        && seen(dst).and_then(|s| s.read).is_none_or(|r| r < p)
                });
                members.push(i);
                match groups.last_mut() {
                    Some(g) if mergeable => g.members.end += 1,
                    _ => {
                        let at = members.len() - 1;
                        groups.push(ShiftGroup { anchor: i, members: at..at + 1 });
                    }
                }
            }
            let mut note = |id: StreamId, def: bool| {
                let s = &mut self.last_seen[id.index()];
                if s.block != here {
                    *s = Seen { block: here, def: None, read: None };
                }
                *(if def { &mut s.def } else { &mut s.read }) = Some(i as u32);
            };
            op.sources().for_each(|src| note(src, false));
            note(op.dst(), true);
        }
        (groups, members)
    }

    /// Emits one shift group: distinct sources go to shared memory once,
    /// one barrier, all shifted reads, one barrier.
    fn emit_group(&mut self, members: &[usize], block: &[&Op], out: &mut Vec<KStmt>) {
        self.stats.shift_groups += 1;
        let shift = |pos: usize| match *block[pos] {
            Op::Advance { dst, src, amount } => (dst, src, amount as i64),
            Op::Retreat { dst, src, amount } => (dst, src, -(amount as i64)),
            ref other => unreachable!("non-shift {other:?} in group"),
        };
        // The slot of a source is its index in `stored`.
        let (mut stored, mut slots) = std::mem::take(&mut self.slots);
        stored.clear();
        slots.clear();
        for &pos in members {
            let (_, src, _) = shift(pos);
            match stored.iter().position(|&s| s == src) {
                // Redundant-copy elimination: the same unshifted stream is
                // stored once and read at several distances.
                Some(slot) => {
                    self.stats.smem_copies_saved += 1;
                    slots.push(Slot(slot as u32));
                }
                None => {
                    let slot = Slot(stored.len() as u32);
                    stored.push(src);
                    slots.push(slot);
                    out.push(KStmt::Op(KOp::SmemStore { slot, src: self.reg(src) }));
                }
            }
        }
        self.num_slots = self.num_slots.max(stored.len() as u32);
        out.push(KStmt::Op(KOp::Barrier));
        for (&pos, &slot) in members.iter().zip(&slots) {
            let (dst, _, shift) = shift(pos);
            out.push(KStmt::Op(KOp::ShiftRead { dst: self.reg(dst), slot, shift }));
        }
        out.push(KStmt::Op(KOp::Barrier));
        self.slots = (stored, slots);
    }

    fn emit_op(&mut self, op: &Op, out: &mut Vec<KStmt>) {
        if let Op::MatchCc { dst, class } = op {
            let root = self.emit_circuit(self.circuits.roots[class], out);
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

    /// Expands a circuit node with hash-consing: every distinct sub-circuit
    /// is computed once per block and its register reused — the
    /// cross-class sharing Parabix performs (lowercase letters share the
    /// `¬b0∧b1∧b2` prefix, digit tests share range comparisons, ...).
    fn emit_circuit(&mut self, node: u32, out: &mut Vec<KStmt>) -> Reg {
        let n = node as usize;
        let kind = self.circuits.nodes[n];
        if let Node::Basis(k) = kind {
            return self.dense(self.basis_reg_base + u32::from(k));
        }
        let (block, reg) = self.cse[n];
        if block == self.block {
            self.stats.gates_shared += self.circuits.gates(node).max(1);
            return reg;
        }
        let r = match kind {
            Node::Basis(_) => unreachable!("handled above"),
            Node::Const(ones) => {
                let r = self.alloc_cse_reg();
                out.push(KStmt::Op(KOp::Const { dst: r, ones }));
                r
            }
            Node::Not(a) => {
                let ra = self.emit_circuit(a, out);
                let r = self.alloc_cse_reg();
                out.push(KStmt::Op(KOp::Not { dst: r, a: ra }));
                r
            }
            Node::And(a, b) | Node::Or(a, b) => {
                let ra = self.emit_circuit(a, out);
                let rb = self.emit_circuit(b, out);
                let r = self.alloc_cse_reg();
                let kop = if matches!(kind, Node::And(..)) {
                    KOp::And { dst: r, a: ra, b: rb }
                } else {
                    KOp::Or { dst: r, a: ra, b: rb }
                };
                out.push(KStmt::Op(kop));
                r
            }
        };
        self.cse[n] = (self.block, r);
        r
    }

    fn alloc_cse_reg(&mut self) -> Reg {
        let r = self.dense(self.cse_base + self.cse_regs);
        self.cse_regs += 1;
        r
    }
}

/// Block positions of a stream's latest definition and latest read so
/// far, valid for the block numbered `block` only.
#[derive(Clone, Copy, Default)]
struct Seen {
    block: u32,
    def: Option<u32>,
    read: Option<u32>,
}

struct ShiftGroup {
    /// Block position the group is anchored at (its first shift).
    anchor: usize,
    /// Where the block positions of its members, in program order, are
    /// in the block's schedule.
    members: Range<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitgen_bitstream::{compile_class, CcExpr};
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

    #[test]
    fn classes_intern_as_the_trees_compile_class_returns() {
        fn tree(c: &Circuits, n: u32) -> CcExpr {
            match c.nodes[n as usize] {
                Node::Const(value) => CcExpr::Const(value),
                Node::Basis(k) => CcExpr::Basis(k),
                Node::Not(a) => CcExpr::Not(Box::new(tree(c, a))),
                Node::And(a, b) => CcExpr::And(Box::new(tree(c, a)), Box::new(tree(c, b))),
                Node::Or(a, b) => CcExpr::Or(Box::new(tree(c, a)), Box::new(tree(c, b))),
            }
        }
        let mut sets: Vec<ByteSet> = (0..=255).map(ByteSet::singleton).collect();
        for lo in (0..=255u8).step_by(13) {
            for hi in (lo..=255).step_by(19) {
                sets.extend([ByteSet::range(lo, hi), ByteSet::range(lo, hi).complement()]);
            }
        }
        sets.extend([ByteSet::EMPTY, ByteSet::FULL, ByteSet::dot(), ByteSet::word()]);
        sets.push(ByteSet::from_bytes((0..=255u8).filter(|b| b % 3 == 0)));
        // One node table for all of them, as one program's classes share.
        let mut circuits = Circuits::default();
        for set in &sets {
            let root = build_class(set, &mut circuits);
            let want = compile_class(set);
            assert_eq!(tree(&circuits, root), want, "{set:?}");
            assert_eq!(circuits.gates(root), want.gate_count(), "{set:?}");
            let mut read = [false; 8];
            fn mark(e: &CcExpr, read: &mut [bool; 8]) {
                match e {
                    CcExpr::Const(_) => {}
                    CcExpr::Basis(k) => read[*k as usize] = true,
                    CcExpr::Not(a) => mark(a, read),
                    CcExpr::And(a, b) | CcExpr::Or(a, b) => {
                        mark(a, read);
                        mark(b, read);
                    }
                }
            }
            mark(&want, &mut read);
            assert_eq!(circuits.basis_used(&[root]), read, "{set:?}");
        }
    }
}
