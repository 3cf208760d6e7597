//! Incremental construction of bitstream programs.
//!
//! [`ProgramBuilder`] hands out fresh stream variables, deduplicates
//! character-class matches, and manages the statement nesting of `if` and
//! `while` bodies via closures.

use crate::program::{Op, Program, Stmt, StreamId};
use bitgen_regex::{ByteSet, ClassHashing};
use std::collections::HashMap;

/// Builder for [`Program`]s.
///
/// # Examples
///
/// ```
/// use bitgen_ir::ProgramBuilder;
/// use bitgen_regex::ByteSet;
///
/// let mut b = ProgramBuilder::new();
/// let a = b.match_cc(ByteSet::singleton(b'a'));
/// let adv = b.advance(a, 1);
/// let bb = b.match_cc(ByteSet::singleton(b'b'));
/// let m = b.and(adv, bb);
/// b.mark_output(m);
/// let prog = b.finish();
/// assert_eq!(prog.op_count(), 4);
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    next: u32,
    frames: Vec<Vec<Stmt>>,
    cc_cache: HashMap<ByteSet, StreamId, ClassHashing>,
    outputs: Vec<StreamId>,
    ops: usize,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder {
            next: 0,
            frames: vec![Vec::new()],
            cc_cache: HashMap::default(),
            outputs: Vec::new(),
            ops: 0,
        }
    }

    /// Instructions emitted so far — what compile budgets meter.
    pub fn ops_emitted(&self) -> usize {
        self.ops
    }

    /// Allocates a fresh stream variable.
    pub fn fresh(&mut self) -> StreamId {
        let id = StreamId(self.next);
        self.next += 1;
        id
    }

    fn emit(&mut self, op: Op) {
        self.ops += 1;
        self.frames.last_mut().expect("frame stack never empty").push(Stmt::Op(op));
    }

    /// Emits `dst = match(class)`, reusing an earlier match of the same
    /// class if one exists.
    pub fn match_cc(&mut self, class: ByteSet) -> StreamId {
        if let Some(&id) = self.cc_cache.get(&class) {
            return id;
        }
        let dst = self.fresh();
        self.emit(Op::MatchCc { dst, class });
        self.cc_cache.insert(class, dst);
        dst
    }

    /// Emits `dst = a & b` into a fresh variable.
    pub fn and(&mut self, a: StreamId, b: StreamId) -> StreamId {
        let dst = self.fresh();
        self.emit(Op::And { dst, a, b });
        dst
    }

    /// Emits `dst = a | b` into a fresh variable.
    pub fn or(&mut self, a: StreamId, b: StreamId) -> StreamId {
        let dst = self.fresh();
        self.emit(Op::Or { dst, a, b });
        dst
    }

    /// Emits `dst = a + b` (long-stream addition) into a fresh variable.
    pub fn add(&mut self, a: StreamId, b: StreamId) -> StreamId {
        let dst = self.fresh();
        self.emit(Op::Add { dst, a, b });
        dst
    }

    /// Emits `dst = a ^ b` into a fresh variable.
    pub fn xor(&mut self, a: StreamId, b: StreamId) -> StreamId {
        let dst = self.fresh();
        self.emit(Op::Xor { dst, a, b });
        dst
    }

    /// Emits `dst = ~src` into a fresh variable.
    pub fn not(&mut self, src: StreamId) -> StreamId {
        let dst = self.fresh();
        self.emit(Op::Not { dst, src });
        dst
    }

    /// Emits `dst = src >> amount` (marker advance) into a fresh variable.
    ///
    /// # Panics
    ///
    /// Panics if `amount == 0` (use [`ProgramBuilder::assign_new`]).
    pub fn advance(&mut self, src: StreamId, amount: u32) -> StreamId {
        assert!(amount > 0, "zero-distance shift; use a copy instead");
        let dst = self.fresh();
        self.emit(Op::Advance { dst, src, amount });
        dst
    }

    /// Emits `dst = src << amount` (marker retreat) into a fresh variable.
    ///
    /// # Panics
    ///
    /// Panics if `amount == 0`.
    pub fn retreat(&mut self, src: StreamId, amount: u32) -> StreamId {
        assert!(amount > 0, "zero-distance shift; use a copy instead");
        let dst = self.fresh();
        self.emit(Op::Retreat { dst, src, amount });
        dst
    }

    /// Emits a copy of `src` into a fresh variable (used to seed
    /// loop-carried accumulators).
    pub fn assign_new(&mut self, src: StreamId) -> StreamId {
        let dst = self.fresh();
        self.emit(Op::Assign { dst, src });
        dst
    }

    /// Emits `dst = src` into an existing variable (loop-carried update).
    pub fn assign_to(&mut self, dst: StreamId, src: StreamId) {
        self.emit(Op::Assign { dst, src });
    }

    /// Emits `dst = a & b` into an existing variable.
    pub fn and_into(&mut self, dst: StreamId, a: StreamId, b: StreamId) {
        self.emit(Op::And { dst, a, b });
    }

    /// Emits `dst = dst | src` (in-place accumulate).
    pub fn or_into(&mut self, dst: StreamId, src: StreamId) {
        self.emit(Op::Or { dst, a: dst, b: src });
    }

    /// Emits `dst = 0` into a fresh variable.
    pub fn zero(&mut self) -> StreamId {
        let dst = self.fresh();
        self.emit(Op::Zero { dst });
        dst
    }

    /// Emits `dst = 1...1` into a fresh variable.
    pub fn ones(&mut self) -> StreamId {
        let dst = self.fresh();
        self.emit(Op::Ones { dst });
        dst
    }

    /// Emits `while (cond) { ... }`, building the body inside the closure.
    pub fn while_loop<F: FnOnce(&mut ProgramBuilder)>(&mut self, cond: StreamId, f: F) {
        self.frames.push(Vec::new());
        f(self);
        let body = self.frames.pop().expect("matching frame");
        self.frames
            .last_mut()
            .expect("frame stack never empty")
            .push(Stmt::While { cond, body });
    }

    /// Emits `if (cond) { ... }`, building the body inside the closure.
    pub fn if_block<F: FnOnce(&mut ProgramBuilder)>(&mut self, cond: StreamId, f: F) {
        self.frames.push(Vec::new());
        f(self);
        let body = self.frames.pop().expect("matching frame");
        self.frames
            .last_mut()
            .expect("frame stack never empty")
            .push(Stmt::If { cond, body });
    }

    /// Registers a stream as a match-end output of the program.
    pub fn mark_output(&mut self, id: StreamId) {
        self.outputs.push(id);
    }

    /// Finishes construction.
    ///
    /// # Panics
    ///
    /// Panics if called while an `if`/`while` body is still open (cannot
    /// happen through the closure API).
    pub fn finish(mut self) -> Program {
        assert_eq!(self.frames.len(), 1, "unclosed control-flow body");
        let stmts = self.frames.pop().expect("top frame");
        Program::new(stmts, self.next, self.outputs)
    }
}

impl Default for ProgramBuilder {
    fn default() -> ProgramBuilder {
        ProgramBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cc_cache_dedups() {
        let mut b = ProgramBuilder::new();
        let a1 = b.match_cc(ByteSet::singleton(b'a'));
        let a2 = b.match_cc(ByteSet::singleton(b'a'));
        let c = b.match_cc(ByteSet::singleton(b'c'));
        assert_eq!(a1, a2);
        assert_ne!(a1, c);
        assert_eq!(b.finish().op_count(), 2);
    }

    #[test]
    fn nested_bodies() {
        let mut b = ProgramBuilder::new();
        let x = b.ones();
        b.while_loop(x, |b| {
            let y = b.advance(x, 1);
            b.if_block(y, |b| {
                b.assign_to(x, y);
            });
        });
        let prog = b.finish();
        assert_eq!(prog.while_count(), 1);
        assert_eq!(prog.op_count(), 3);
        match &prog.stmts()[1] {
            Stmt::While { body, .. } => match &body[1] {
                Stmt::If { body, .. } => assert_eq!(body.len(), 1),
                other => panic!("expected If, got {other:?}"),
            },
            other => panic!("expected While, got {other:?}"),
        }
    }

    #[test]
    fn in_place_ops() {
        let mut b = ProgramBuilder::new();
        let acc = b.zero();
        let v = b.ones();
        b.or_into(acc, v);
        let prog = b.finish();
        match &prog.stmts()[2] {
            Stmt::Op(Op::Or { dst, a, .. }) => {
                assert_eq!(dst, a);
                assert_eq!(*dst, acc);
            }
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "zero-distance")]
    fn zero_shift_rejected() {
        let mut b = ProgramBuilder::new();
        let x = b.ones();
        b.advance(x, 0);
    }

    #[test]
    fn outputs_recorded() {
        let mut b = ProgramBuilder::new();
        let x = b.ones();
        let y = b.zero();
        b.mark_output(x);
        b.mark_output(y);
        assert_eq!(b.finish().outputs(), &[StreamId(0), StreamId(1)]);
    }
}
