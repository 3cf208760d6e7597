//! Def/use analysis helpers shared by the transformation passes.

use crate::program::{Op, Program, Stmt, StreamId};

/// Per-variable definition and use counts for a program.
///
/// Variables written exactly once and read exactly once are the safe
/// targets for pattern rewrites (shift rebalancing); loop-carried
/// accumulators show up with multiple definitions and are left alone.
#[derive(Debug, Clone)]
pub struct DefUse {
    defs: Vec<usize>,
    uses: Vec<usize>,
}

impl DefUse {
    /// Computes def/use counts. Control-flow conditions and program outputs
    /// count as uses; executing a loop body repeatedly does not multiply
    /// counts (these are static, per-occurrence counts). Ids past
    /// `num_streams` grow the tables, as [`DefUse::note_op_added`] does.
    pub fn of(program: &Program) -> DefUse {
        let n = program.num_streams() as usize;
        let mut du = DefUse { defs: vec![0; n], uses: vec![0; n] };
        du.walk(program.stmts());
        for &out in program.outputs() {
            du.note_use(out);
        }
        du
    }

    fn walk(&mut self, stmts: &[Stmt]) {
        for stmt in stmts {
            match stmt {
                Stmt::Op(op) => self.note_op_added(op),
                Stmt::If { cond, body } | Stmt::While { cond, body } => {
                    self.note_use(*cond);
                    self.walk(body);
                }
            }
        }
    }

    /// Number of static definitions of `id`.
    ///
    /// Ids allocated after the analysis ran report zero, which makes every
    /// consumer treat them conservatively.
    pub fn def_count(&self, id: StreamId) -> usize {
        self.defs.get(id.index()).copied().unwrap_or(0)
    }

    /// Number of static uses of `id` (zero for ids newer than the
    /// analysis).
    pub fn use_count(&self, id: StreamId) -> usize {
        self.uses.get(id.index()).copied().unwrap_or(0)
    }

    /// `true` when `id` is written once and read once: safe to rewrite the
    /// producing instruction into its consumer.
    pub fn is_linear_temp(&self, id: StreamId) -> bool {
        self.def_count(id) == 1 && self.use_count(id) == 1
    }

    /// Grows the tables to cover stream ids below `n` (new ids start at
    /// zero counts). Passes that allocate fresh streams call this before
    /// recording ops that mention them.
    pub fn ensure_streams(&mut self, n: u32) {
        let n = n as usize;
        if self.defs.len() < n {
            self.defs.resize(n, 0);
            self.uses.resize(n, 0);
        }
    }

    /// Records an instruction added to the analysed program, keeping the
    /// counts exact without a recompute. Tables grow as needed.
    pub fn note_op_added(&mut self, op: &Op) {
        self.ensure_streams(op.dst().0 + 1);
        self.defs[op.dst().index()] += 1;
        for s in op.sources() {
            self.note_use(s);
        }
    }

    fn note_use(&mut self, id: StreamId) {
        self.ensure_streams(id.0 + 1);
        self.uses[id.index()] += 1;
    }

    /// Records an instruction removed from the analysed program.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the op was never counted: that means
    /// the cache no longer describes the program.
    pub fn note_op_removed(&mut self, op: &Op) {
        let d = op.dst().index();
        debug_assert!(self.defs.get(d).is_some_and(|&c| c > 0), "removing an uncounted def");
        self.defs[d] -= 1;
        for s in op.sources() {
            let s = s.index();
            debug_assert!(self.uses.get(s).is_some_and(|&c| c > 0), "removing an uncounted use");
            self.uses[s] -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    #[test]
    fn counts_straight_line() {
        let mut b = ProgramBuilder::new();
        let x = b.ones();
        let y = b.advance(x, 1);
        let z = b.and(x, y);
        b.mark_output(z);
        let prog = b.finish();
        let du = DefUse::of(&prog);
        assert_eq!(du.def_count(x), 1);
        assert_eq!(du.use_count(x), 2);
        assert!(du.is_linear_temp(y));
        assert_eq!(du.use_count(z), 1, "output counts as a use");
        assert!(!du.is_linear_temp(x));
    }

    #[test]
    fn incremental_updates_match_recompute() {
        let mut b = ProgramBuilder::new();
        let x = b.ones();
        let y = b.advance(x, 1);
        let z = b.and(x, y);
        b.mark_output(z);
        let prog = b.finish();
        let mut du = DefUse::of(&prog);
        // Simulate a rewrite: drop `y = x >> 1`, add `t = x << 1` on a
        // fresh id, and check against ground truth built the same way.
        let t = StreamId(prog.num_streams());
        du.note_op_removed(&Op::Advance { dst: y, src: x, amount: 1 });
        du.note_op_added(&Op::Retreat { dst: t, src: x, amount: 1 });
        assert_eq!(du.def_count(y), 0);
        assert_eq!(du.use_count(x), 2, "one use moved from the advance to the retreat");
        assert_eq!(du.def_count(t), 1);
        assert!(du.use_count(t) == 0 && du.def_count(z) == 1);
    }

    #[test]
    fn ensure_streams_grows_tables() {
        let mut b = ProgramBuilder::new();
        let x = b.ones();
        b.mark_output(x);
        let mut du = DefUse::of(&b.finish());
        let far = StreamId(100);
        assert_eq!(du.def_count(far), 0);
        du.note_op_added(&Op::Zero { dst: far });
        assert_eq!(du.def_count(far), 1);
        du.ensure_streams(50); // never shrinks
        assert_eq!(du.def_count(far), 1);
    }

    #[test]
    fn loop_carried_vars_are_not_linear() {
        let mut b = ProgramBuilder::new();
        let x = b.ones();
        let acc = b.assign_new(x);
        b.while_loop(acc, |b| {
            let t = b.advance(acc, 1);
            b.assign_to(acc, t);
        });
        b.mark_output(acc);
        let prog = b.finish();
        let du = DefUse::of(&prog);
        assert_eq!(du.def_count(acc), 2);
        assert!(!du.is_linear_temp(acc));
        // The condition use is counted.
        assert!(du.use_count(acc) >= 2);
    }
}
