//! Shift Rebalancing (§5.2 of the paper).
//!
//! Long chains of `SHIFT`+`AND` (the lowering of concatenation) serialise
//! interleaved execution: every shift needs two barriers and each one waits
//! on the previous AND. Operand rewriting moves shifts off the critical
//! path using the identity
//!
//! ```text
//! (A >> n) & B  ≡  (A & (B << n)) >> n
//! ```
//!
//! (exact on finite streams for AND: positions that fall off an edge are
//! zero on both sides). The pass walks every straight-line run of
//! instructions, repeatedly rewriting ANDs whose shifted operand sits at
//! least as deep in the dataflow as the other operand, then merging the
//! same-direction shift chains the rewrite creates (`(x >> a) >> b` →
//! `x >> (a+b)`). The result is the balanced, schedulable DFG of Fig. 8;
//! barrier scheduling and merging happen later, at kernel generation.
//!
//! OR is *not* rewritten: `(A >> n) | B ≠ ((A | (B << n)) >> n)` near
//! stream boundaries, so the identity only holds for the unbounded streams
//! of the paper's algebra, not for stored finite ones.

use bitgen_ir::{DefUse, Op, Program, Stmt, StreamId};

/// What the rebalancing pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebalanceStats {
    /// Operand rewrites applied (`(A>>n)&B` → `(A&(B<<n))>>n` and the
    /// mirrored retreat form).
    pub rewrites: usize,
    /// Same-direction shift pairs merged into one instruction.
    pub merges: usize,
    /// Fixpoint iterations taken.
    pub iterations: usize,
    /// Instructions examined across all sweeps — the pass's work
    /// counter, asserted near-linear by the complexity suite.
    pub visits: u64,
}

/// Iteration cap; real programs converge in a handful of passes.
const MAX_ITERATIONS: usize = 32;

/// Applies shift rebalancing to `program` in place.
///
/// # Examples
///
/// ```
/// use bitgen_regex::parse;
/// use bitgen_ir::lower;
/// use bitgen_passes::rebalance;
///
/// let mut prog = lower(&parse("abb").unwrap());
/// let stats = rebalance(&mut prog);
/// assert!(stats.rewrites >= 2); // the Fig. 8 example
/// ```
pub fn rebalance(program: &mut Program) -> RebalanceStats {
    let mut du = DefUse::of(program);
    rebalance_with(program, &mut du)
}

/// [`rebalance`] with a caller-provided def/use cache.
///
/// `du` must describe `program` on entry; on return it describes the
/// rebalanced program — the pass maintains it incrementally instead of
/// recomputing the analysis every fixpoint iteration, so a pipeline can
/// hand the same cache to the next pass.
pub fn rebalance_with(program: &mut Program, du: &mut DefUse) -> RebalanceStats {
    let mut stats = RebalanceStats::default();
    // One block buffer for every block of every sweep.
    let mut out = Emitted::default();
    for _ in 0..MAX_ITERATIONS {
        stats.iterations += 1;
        // Rewrites within one iteration consult the iteration-start
        // snapshot (fresh temporaries deliberately look non-linear until
        // the next iteration — that is what staggers rewrite vs merge),
        // while the live cache absorbs every op added or removed.
        let snapshot = du.clone();
        let mut changed = false;
        let mut fresh = Fresh { program_next: program.num_streams() };
        let mut stmts = std::mem::take(program.stmts_mut());
        rewrite_stmts(&mut stmts, &snapshot, du, &mut fresh, &mut stats, &mut changed, &mut out);
        *program.stmts_mut() = stmts;
        while program.num_streams() < fresh.program_next {
            program.fresh_stream();
        }
        if !changed {
            break;
        }
    }
    stats
}

struct Fresh {
    program_next: u32,
}

impl Fresh {
    fn next(&mut self) -> StreamId {
        let id = StreamId(self.program_next);
        self.program_next += 1;
        id
    }
}

fn rewrite_stmts(
    stmts: &mut Vec<Stmt>,
    du: &DefUse,
    live: &mut DefUse,
    fresh: &mut Fresh,
    stats: &mut RebalanceStats,
    changed: &mut bool,
    out: &mut Emitted,
) {
    // Transform each maximal run of plain instructions, recursing into
    // `if` bodies. `while` bodies are left untouched: a rewrite there adds
    // one shift *per trip* on the critical path, and the loop-carried
    // dependency prevents the added shift from ever sharing a barrier —
    // rebalancing only pays off on straight-line concatenation chains.
    let old = std::mem::take(stmts);
    let mut run: Vec<Op> = Vec::new();
    for stmt in old {
        match stmt {
            Stmt::Op(op) => run.push(op),
            mut ctl => {
                flush_run(&mut run, stmts, du, live, fresh, stats, changed, out);
                if let Stmt::If { body, .. } = &mut ctl {
                    rewrite_stmts(body, du, live, fresh, stats, changed, out);
                }
                stmts.push(ctl);
            }
        }
    }
    flush_run(&mut run, stmts, du, live, fresh, stats, changed, out);
}

#[allow(clippy::too_many_arguments)]
fn flush_run(
    run: &mut Vec<Op>,
    out: &mut Vec<Stmt>,
    du: &DefUse,
    live: &mut DefUse,
    fresh: &mut Fresh,
    stats: &mut RebalanceStats,
    changed: &mut bool,
    emitted: &mut Emitted,
) {
    if run.is_empty() {
        return;
    }
    let mut block = std::mem::take(run);
    if rewrite_block(&mut block, du, live, fresh, stats, emitted) {
        *changed = true;
    }
    if merge_shifts(&mut block, du, live, stats, emitted) {
        *changed = true;
    }
    out.extend(block.into_iter().map(Stmt::Op));
}

/// An emitted block under construction. Rewrites remove an *earlier*
/// instruction (the folded shift), so emitted slots are tombstoned in
/// place rather than shifted: indices stay stable and the def/depth maps
/// never need rebuilding — the rescans that made this pass quadratic.
///
/// One buffer serves every block of a pass: [`Emitted::finish`] empties
/// it, clearing only the index entries its block set.
#[derive(Default)]
struct Emitted {
    slots: Vec<Option<Op>>,
    /// Defining slot of each id defined so far in the block, indexed by
    /// stream id ([`NO_DEF`]: none; dead ids are evicted when their slot
    /// is tombstoned).
    def_pos: Vec<u32>,
    /// Topological depth per emitted slot: `1 + max(depth of in-block
    /// source definitions)`; sources defined outside the block count 0.
    depth: Vec<usize>,
}

/// [`Emitted::def_pos`] of an id the block does not define.
const NO_DEF: u32 = u32::MAX;

impl Emitted {
    fn def_of(&self, v: StreamId) -> Option<usize> {
        match self.def_pos.get(v.index()) {
            Some(&p) if p != NO_DEF => Some(p as usize),
            _ => None,
        }
    }

    fn push(&mut self, op: Op) {
        let mut d = 0;
        for s in op.sources() {
            if let Some(j) = self.def_of(s) {
                d = d.max(self.depth[j] + 1);
            }
        }
        let dst = op.dst().index();
        if dst >= self.def_pos.len() {
            self.def_pos.resize(dst + 1, NO_DEF);
        }
        self.def_pos[dst] = self.slots.len() as u32;
        self.depth.push(d);
        self.slots.push(Some(op));
    }

    fn remove(&mut self, j: usize) -> Op {
        let op = self.slots[j].take().expect("tombstoning a live slot");
        self.def_pos[op.dst().index()] = NO_DEF;
        op
    }

    fn var_depth(&self, v: StreamId) -> usize {
        self.def_of(v).map_or(0, |p| self.depth[p] + 1)
    }

    /// Moves the live ops into `block` and empties the buffer. An id's
    /// entry is set only while its defining op is live, so clearing the
    /// live ops' entries clears them all.
    fn finish(&mut self, block: &mut Vec<Op>) {
        for op in self.slots.drain(..).flatten() {
            self.def_pos[op.dst().index()] = NO_DEF;
            block.push(op);
        }
        self.depth.clear();
    }
}

/// One rewriting sweep over a straight-line block, to fixpoint. Returns
/// `true` if any rewrite fired.
///
/// A single forward pass is the fixpoint: a rewrite only changes the
/// instruction it replaces and removes a shift whose sole use was that
/// instruction, so no instruction before the rewrite can newly match —
/// only the replacement AND needs re-examination, which happens
/// naturally as it is emitted through the same worklist.
fn rewrite_block(
    block: &mut Vec<Op>,
    du: &DefUse,
    live: &mut DefUse,
    fresh: &mut Fresh,
    stats: &mut RebalanceStats,
    out: &mut Emitted,
) -> bool {
    let mut changed = false;
    let mut pending: Vec<Op> = Vec::new();
    for op in block.drain(..) {
        pending.push(op);
        while let Some(op) = pending.pop() {
            stats.visits += 1;
            let Some(rw) = find_rewrite(&op, du, out) else {
                out.push(op);
                continue;
            };
            // Replace `sh = x >> n; ...; dst = sh & b` with
            // `...; t = b << n; u = x & t; dst = u >> n`.
            let shift = out.remove(rw.shift_pos);
            live.note_op_removed(&shift);
            live.note_op_removed(&op);
            let t = fresh.next();
            let u = fresh.next();
            let seq = [
                Op::Retreat { dst: t, src: rw.b, amount: rw.amount },
                Op::And { dst: u, a: rw.x, b: t },
                Op::Advance { dst: rw.dst, src: u, amount: rw.amount },
            ];
            for new_op in &seq {
                live.note_op_added(new_op);
            }
            // Re-examine in order: the new AND may itself be rewritable.
            pending.extend(seq.into_iter().rev());
            stats.rewrites += 1;
            changed = true;
        }
    }
    out.finish(block);
    changed
}

/// A planned rewrite of an AND whose operand at emitted slot `shift_pos`
/// (an `Advance`) is pushed below the AND.
struct Rewrite {
    shift_pos: usize,
    /// Source of the shift (the paper's `A`).
    x: StreamId,
    /// The other AND operand (the paper's `B`).
    b: StreamId,
    amount: u32,
    dst: StreamId,
}

fn find_rewrite(op: &Op, du: &DefUse, out: &Emitted) -> Option<Rewrite> {
    let &Op::And { dst, a, b } = op else { return None };
    // Try each operand as the shifted one: the deeper first, `a` on ties.
    let depth = |v| out.def_of(v).map_or(0, |p| out.depth[p]);
    let candidates = if depth(b) > depth(a) { [(b, a), (a, b)] } else { [(a, b), (b, a)] };
    for (sh_operand, other) in candidates {
        let Some(j) = out.def_of(sh_operand) else { continue };
        let Some(Op::Advance { src: x, amount, dst: sdst }) = out.slots[j] else { continue };
        debug_assert_eq!(sdst, sh_operand);
        // Only single-def single-use temporaries may be folded away.
        if !du.is_linear_temp(sh_operand) {
            continue;
        }
        // Loop-carried or multiply-defined variables cannot participate:
        // the rewrite reorders their reads.
        if du.def_count(x) != 1 || du.def_count(other) != 1 {
            continue;
        }
        if sh_operand == other || x == other {
            continue;
        }
        // The paper's rule: move the shift when its source is at
        // least as deep as the other operand (ties rewrite, as in Fig. 8).
        if out.var_depth(x) < out.var_depth(other) {
            continue;
        }
        return Some(Rewrite { shift_pos: j, x, b: other, amount, dst });
    }
    None
}

/// Merges `dst = (x >> a) >> b` into `dst = x >> (a+b)` (and the retreat
/// twin) when the inner result is a linear temporary. Same single forward
/// pass as [`rewrite_block`]: a merge removes an instruction whose sole
/// use was the merged one, so only the merged shift itself can chain.
fn merge_shifts(
    block: &mut Vec<Op>,
    du: &DefUse,
    live: &mut DefUse,
    stats: &mut RebalanceStats,
    out: &mut Emitted,
) -> bool {
    let mut changed = false;
    for mut op in block.drain(..) {
        loop {
            stats.visits += 1;
            let (inner_id, outer_amount, advance) = match op {
                Op::Advance { src, amount, .. } => (src, amount, true),
                Op::Retreat { src, amount, .. } => (src, amount, false),
                _ => break,
            };
            let Some(j) = out.def_of(inner_id) else { break };
            if !du.is_linear_temp(inner_id) {
                break;
            }
            let merged = match (&out.slots[j], advance) {
                (&Some(Op::Advance { src, amount, .. }), true) => {
                    Op::Advance { dst: op.dst(), src, amount: amount + outer_amount }
                }
                (&Some(Op::Retreat { src, amount, .. }), false) => {
                    Op::Retreat { dst: op.dst(), src, amount: amount + outer_amount }
                }
                _ => break,
            };
            let inner = out.remove(j);
            live.note_op_removed(&inner);
            live.note_op_removed(&op);
            live.note_op_added(&merged);
            op = merged;
            stats.merges += 1;
            changed = true;
        }
        out.push(op);
    }
    out.finish(block);
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitgen_bitstream::Basis;
    use bitgen_ir::{interpret, lower, ProgramBuilder};
    use bitgen_regex::{parse, ByteSet};

    /// Rebalancing must never change semantics.
    fn assert_preserves(pattern: &str, input: &[u8]) {
        let prog = lower(&parse(pattern).unwrap());
        let mut balanced = prog.clone();
        rebalance(&mut balanced);
        let basis = Basis::transpose(input);
        let before = interpret(&prog, &basis);
        let after = interpret(&balanced, &basis);
        for (x, y) in before.outputs.iter().zip(&after.outputs) {
            assert_eq!(x.positions(), y.positions(), "pattern {pattern:?}");
        }
    }

    #[test]
    fn figure8_abb() {
        // /abb/ is the paper's running example: both ANDs get rewritten and
        // the trailing shifts merge, leaving retreats on the b-classes.
        let mut prog = lower(&parse("abb").unwrap());
        let stats = rebalance(&mut prog);
        assert!(stats.rewrites >= 2, "stats: {stats:?}");
        assert!(stats.merges >= 1, "stats: {stats:?}");
        // After rebalancing some shift must apply directly to a class
        // stream (the `B3 << 2` of Fig. 9).
        let mut has_deep_retreat = false;
        prog.for_each_op(&mut |op| {
            if let Op::Retreat { amount, .. } = op {
                if *amount >= 2 {
                    has_deep_retreat = true;
                }
            }
        });
        assert!(has_deep_retreat, "expected a merged retreat:\n{}", bitgen_ir::pretty(&prog));
    }

    #[test]
    fn semantics_preserved() {
        for (pat, input) in [
            ("abb", &b"xabbabb_ab"[..]),
            ("abcd", b"abcdabcd"),
            ("a(bc)*d", b"adabcdabcbcd"),
            ("(ab|ba)+", b"abbaab"),
            ("a{3}b", b"aaabaaab"),
            ("[a-c][b-d][c-e]", b"abcbcdcde"),
        ] {
            assert_preserves(pat, input);
        }
    }

    #[test]
    fn match_at_stream_edges_preserved() {
        // The AND identity must hold at position 0 and the final byte.
        assert_preserves("abb", b"abb");
        assert_preserves("abcde", b"abcde");
    }

    #[test]
    fn converges() {
        let mut prog = lower(&parse("abcdefgh").unwrap());
        let stats = rebalance(&mut prog);
        assert!(stats.iterations < MAX_ITERATIONS, "did not converge: {stats:?}");
        // Re-running is a no-op.
        let again = rebalance(&mut prog);
        assert_eq!(again.rewrites, 0);
        assert_eq!(again.merges, 0);
    }

    #[test]
    fn loop_carried_vars_untouched() {
        // Accumulators inside while loops are multi-def and must not be
        // rewritten; semantics over loops stay intact.
        assert_preserves("a(bc)*d", b"abcbcbcbcd");
        assert_preserves("x(ab)*y", b"xy xaby xababy");
    }

    #[test]
    fn or_is_never_rewritten() {
        let mut b = ProgramBuilder::new();
        let x = b.match_cc(ByteSet::singleton(b'x'));
        let y = b.match_cc(ByteSet::singleton(b'y'));
        let sh = b.advance(x, 1);
        let o = b.or(sh, y);
        b.mark_output(o);
        let mut prog = b.finish();
        let before = prog.clone();
        let stats = rebalance(&mut prog);
        assert_eq!(stats.rewrites, 0);
        assert_eq!(prog, before);
    }

    #[test]
    fn shift_on_shallow_operand_kept() {
        // (x >> 1) & deep: the shift is already on the shallow operand;
        // moving it to the deeper one would lengthen the chain.
        let mut b = ProgramBuilder::new();
        let x = b.match_cc(ByteSet::singleton(b'x'));
        let y = b.match_cc(ByteSet::singleton(b'y'));
        let d1 = b.and(y, y);
        let d2 = b.and(d1, y);
        let sh = b.advance(x, 1);
        let a = b.and(sh, d2);
        b.mark_output(a);
        let mut prog = b.finish();
        let stats = rebalance(&mut prog);
        assert_eq!(stats.rewrites, 0, "{}", bitgen_ir::pretty(&prog));
    }

    #[test]
    fn def_use_cache_stays_exact() {
        // `rebalance_with` promises the caller's cache describes the
        // rebalanced program on return; verify against a recompute.
        for pat in ["abb", "abcdefgh", "a(bc)*d", "(ab|ba)+", "(?:(?:ab){4}){3}"] {
            let mut prog = lower(&parse(pat).unwrap());
            let mut du = DefUse::of(&prog);
            rebalance_with(&mut prog, &mut du);
            let truth = DefUse::of(&prog);
            for id in 0..prog.num_streams() {
                let id = StreamId(id);
                assert_eq!(du.def_count(id), truth.def_count(id), "defs of {id:?} in {pat:?}");
                assert_eq!(du.use_count(id), truth.use_count(id), "uses of {id:?} in {pat:?}");
            }
        }
    }

    #[test]
    fn merge_only_same_direction() {
        let mut b = ProgramBuilder::new();
        let x = b.match_cc(ByteSet::singleton(b'x'));
        let adv = b.advance(x, 2);
        let ret = b.retreat(adv, 1);
        b.mark_output(ret);
        let mut prog = b.finish();
        let stats = rebalance(&mut prog);
        assert_eq!(stats.merges, 0, "advance+retreat must not merge");
        // And semantics hold.
        let basis = Basis::transpose(b"xxxx");
        let r = interpret(&prog, &basis);
        assert_eq!(r.outputs[0].positions(), vec![1, 2, 3]);
    }
}
