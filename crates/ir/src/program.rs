//! The bitstream-program IR.
//!
//! Mirrors the grammar of Listing 2 in the paper: a program is a sequence
//! of statements; a statement is either a bitstream instruction (bitwise
//! ops, shifts by immediate constants, character-class matches) or a
//! control-flow construct (`if`/`while`) whose condition is "does this
//! bitstream contain any set bit".

use bitgen_regex::ByteSet;
use std::fmt;

/// Identifier of a bitstream variable within a [`Program`].
///
/// Variables are mutable (loop accumulators are reassigned each trip), so
/// this is a plain variable id, not an SSA value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u32);

impl StreamId {
    /// Index into dense per-variable tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// A single bitstream instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `dst = match(basis, class)`: the character-class bitstream (Fig. 2a).
    MatchCc {
        /// Destination variable.
        dst: StreamId,
        /// The byte class to match.
        class: ByteSet,
    },
    /// `dst = a & b`.
    And {
        /// Destination variable.
        dst: StreamId,
        /// Left operand.
        a: StreamId,
        /// Right operand.
        b: StreamId,
    },
    /// `dst = a | b`.
    Or {
        /// Destination variable.
        dst: StreamId,
        /// Left operand.
        a: StreamId,
        /// Right operand.
        b: StreamId,
    },
    /// `dst = a + b`: long-stream addition, carries rippling toward
    /// higher positions. Not part of the paper's Listing 2 grammar; used
    /// by the optional Parabix-style `MatchStar` lowering, where it
    /// replaces a whole fixpoint loop. Carries are a second kind of
    /// cross-block dependency, handled dynamically like loop trips.
    Add {
        /// Destination variable.
        dst: StreamId,
        /// Left operand.
        a: StreamId,
        /// Right operand.
        b: StreamId,
    },
    /// `dst = a ^ b`.
    Xor {
        /// Destination variable.
        dst: StreamId,
        /// Left operand.
        a: StreamId,
        /// Right operand.
        b: StreamId,
    },
    /// `dst = ~src`.
    Not {
        /// Destination variable.
        dst: StreamId,
        /// Operand.
        src: StreamId,
    },
    /// `dst = src >> amount` in the paper's notation: markers move toward
    /// higher positions (bit *i* of `dst` = bit *i − amount* of `src`).
    Advance {
        /// Destination variable.
        dst: StreamId,
        /// Operand.
        src: StreamId,
        /// Shift distance in bits (> 0).
        amount: u32,
    },
    /// `dst = src << amount`: markers move toward lower positions (bit *i*
    /// of `dst` = bit *i + amount* of `src`). Introduced by operand
    /// rewriting (§5.2), never by lowering.
    Retreat {
        /// Destination variable.
        dst: StreamId,
        /// Operand.
        src: StreamId,
        /// Shift distance in bits (> 0).
        amount: u32,
    },
    /// `dst = src` (plain copy; loop accumulator initialisation).
    Assign {
        /// Destination variable.
        dst: StreamId,
        /// Source variable.
        src: StreamId,
    },
    /// `dst = 0`.
    Zero {
        /// Destination variable.
        dst: StreamId,
    },
    /// `dst = 1...1` (all positions set).
    Ones {
        /// Destination variable.
        dst: StreamId,
    },
}

impl Op {
    /// The variable this instruction writes.
    pub fn dst(&self) -> StreamId {
        match *self {
            Op::MatchCc { dst, .. }
            | Op::And { dst, .. }
            | Op::Or { dst, .. }
            | Op::Add { dst, .. }
            | Op::Xor { dst, .. }
            | Op::Not { dst, .. }
            | Op::Advance { dst, .. }
            | Op::Retreat { dst, .. }
            | Op::Assign { dst, .. }
            | Op::Zero { dst }
            | Op::Ones { dst } => dst,
        }
    }

    /// The variables this instruction reads, in operand order (nothing is
    /// allocated: every pass over a program asks this of every op).
    pub fn sources(&self) -> impl Iterator<Item = StreamId> {
        let (a, b) = match *self {
            Op::MatchCc { .. } | Op::Zero { .. } | Op::Ones { .. } => (None, None),
            Op::Not { src, .. } | Op::Assign { src, .. } => (Some(src), None),
            Op::Advance { src, .. } | Op::Retreat { src, .. } => (Some(src), None),
            Op::And { a, b, .. }
            | Op::Or { a, b, .. }
            | Op::Add { a, b, .. }
            | Op::Xor { a, b, .. } => (Some(a), Some(b)),
        };
        a.into_iter().chain(b)
    }

    /// Returns `true` for the shift instructions (`Advance`/`Retreat`),
    /// which are the source of cross-block dependencies.
    pub fn is_shift(&self) -> bool {
        matches!(self, Op::Advance { .. } | Op::Retreat { .. })
    }

    /// The signed shift distance: positive for [`Op::Advance`] (the paper's
    /// right shift, reaching *back* into earlier input), negative for
    /// [`Op::Retreat`]; zero for everything else.
    pub fn signed_shift(&self) -> i64 {
        match *self {
            Op::Advance { amount, .. } => amount as i64,
            Op::Retreat { amount, .. } => -(amount as i64),
            _ => 0,
        }
    }
}

/// A statement: an instruction or a control-flow construct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// A bitstream instruction.
    Op(Op),
    /// `if (cond) { body }`: executed when `cond` has any set bit.
    ///
    /// Bodies must be safe to skip when `cond` is all-zero (the paper's
    /// predication discipline); the zero-block-skipping pass enforces this
    /// when it inserts guards.
    If {
        /// Condition variable (true iff any bit is set).
        cond: StreamId,
        /// Statements executed when the condition holds.
        body: Vec<Stmt>,
    },
    /// `while (cond) { body }`: repeats while `cond` has any set bit.
    While {
        /// Condition variable, re-evaluated each trip.
        cond: StreamId,
        /// Loop body.
        body: Vec<Stmt>,
    },
}

impl Stmt {
    /// Instructions in `stmts`, `if`/`while` bodies included (control-flow
    /// headers are not instructions).
    pub fn op_count(stmts: &[Stmt]) -> usize {
        stmts
            .iter()
            .map(|s| match s {
                Stmt::Op(_) => 1,
                Stmt::If { body, .. } | Stmt::While { body, .. } => Stmt::op_count(body),
            })
            .sum()
    }

    /// Dynamic sites in `stmts` — `while` loops and `Add`s, whose reach
    /// across blocks only the data decides. The overlap analysis, the
    /// kernels and the walker's loop checks all number them in this
    /// pre-order, from zero.
    pub fn site_count(stmts: &[Stmt]) -> usize {
        stmts
            .iter()
            .map(|s| match s {
                Stmt::Op(op) => usize::from(matches!(op, Op::Add { .. })),
                Stmt::If { body, .. } => Stmt::site_count(body),
                Stmt::While { body, .. } => 1 + Stmt::site_count(body),
            })
            .sum()
    }
}

/// A bitstream program: the unit the paper compiles into one GPU device
/// function and assigns to one CTA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    stmts: Vec<Stmt>,
    num_streams: u32,
    outputs: Vec<StreamId>,
}

impl Program {
    /// Creates a program from raw parts.
    ///
    /// `num_streams` must exceed every variable id used; `outputs` are the
    /// match-end streams, one per regex in the group.
    pub fn new(stmts: Vec<Stmt>, num_streams: u32, outputs: Vec<StreamId>) -> Program {
        Program { stmts, num_streams, outputs }
    }

    /// The top-level statement list.
    pub fn stmts(&self) -> &[Stmt] {
        &self.stmts
    }

    /// Mutable access for transformation passes.
    pub fn stmts_mut(&mut self) -> &mut Vec<Stmt> {
        &mut self.stmts
    }

    /// Number of distinct stream variables.
    pub fn num_streams(&self) -> u32 {
        self.num_streams
    }

    /// Bumps the variable count, returning a fresh id (used by passes that
    /// introduce temporaries).
    pub fn fresh_stream(&mut self) -> StreamId {
        let id = StreamId(self.num_streams);
        self.num_streams += 1;
        id
    }

    /// The match-end output streams, one per regex in the group.
    pub fn outputs(&self) -> &[StreamId] {
        &self.outputs
    }

    /// The length every stream takes for an input of `input_len` bytes.
    ///
    /// One extra position is kept so a cursor that consumed the final byte
    /// (a match ending at the last position) is representable.
    pub fn stream_len(input_len: usize) -> usize {
        input_len + 1
    }

    /// Visits every [`Op`] in the program, outermost first, entering
    /// `if`/`while` bodies.
    pub fn for_each_op<F: FnMut(&Op)>(&self, f: &mut F) {
        fn walk<F: FnMut(&Op)>(stmts: &[Stmt], f: &mut F) {
            for s in stmts {
                match s {
                    Stmt::Op(op) => f(op),
                    Stmt::If { body, .. } | Stmt::While { body, .. } => walk(body, f),
                }
            }
        }
        walk(&self.stmts, f);
    }

    /// Total number of instructions (not counting control-flow headers).
    pub fn op_count(&self) -> usize {
        Stmt::op_count(&self.stmts)
    }

    /// Number of `while` statements anywhere in the program.
    pub fn while_count(&self) -> usize {
        fn walk(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::Op(_) => 0,
                    Stmt::If { body, .. } => walk(body),
                    Stmt::While { body, .. } => 1 + walk(body),
                })
                .sum()
        }
        walk(&self.stmts)
    }

    /// Replaces the program's outputs with a single stream holding their
    /// union, appending the OR instructions that compute it.
    ///
    /// Engines that only report *whether any* pattern matched at a
    /// position (the multi-pattern union) use this to store one stream per
    /// window instead of one per regex.
    pub fn combine_outputs(&mut self) {
        if self.outputs.len() <= 1 {
            return;
        }
        let outputs = std::mem::take(&mut self.outputs);
        let mut acc = outputs[0];
        for &next in &outputs[1..] {
            let dst = self.fresh_stream();
            self.stmts.push(Stmt::Op(Op::Or { dst, a: acc, b: next }));
            acc = dst;
        }
        self.outputs = vec![acc];
    }

    /// All distinct character classes matched by the program, in first-use
    /// order.
    pub fn classes(&self) -> Vec<ByteSet> {
        let mut seen = Vec::new();
        self.for_each_op(&mut |op| {
            if let Op::MatchCc { class, .. } = op {
                if !seen.contains(class) {
                    seen.push(*class);
                }
            }
        });
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> StreamId {
        StreamId(i)
    }

    #[test]
    fn op_dst_and_sources() {
        let op = Op::And { dst: s(2), a: s(0), b: s(1) };
        assert_eq!(op.dst(), s(2));
        assert_eq!(op.sources().collect::<Vec<_>>(), vec![s(0), s(1)]);
        let sh = Op::Advance { dst: s(3), src: s(2), amount: 4 };
        assert!(sh.is_shift());
        assert_eq!(sh.signed_shift(), 4);
        let re = Op::Retreat { dst: s(4), src: s(3), amount: 2 };
        assert_eq!(re.signed_shift(), -2);
        assert_eq!(Op::Zero { dst: s(5) }.sources().count(), 0);
        assert!(!Op::Assign { dst: s(1), src: s(0) }.is_shift());
    }

    #[test]
    fn program_walk_and_counts() {
        let prog = Program::new(
            vec![
                Stmt::Op(Op::MatchCc { dst: s(0), class: ByteSet::singleton(b'a') }),
                Stmt::While {
                    cond: s(0),
                    body: vec![
                        Stmt::Op(Op::Advance { dst: s(1), src: s(0), amount: 1 }),
                        Stmt::If {
                            cond: s(1),
                            body: vec![Stmt::Op(Op::And { dst: s(2), a: s(0), b: s(1) })],
                        },
                    ],
                },
            ],
            3,
            vec![s(2)],
        );
        assert_eq!(prog.op_count(), 3);
        assert_eq!(prog.while_count(), 1);
        assert_eq!(prog.classes(), vec![ByteSet::singleton(b'a')]);
        assert_eq!(prog.outputs(), &[s(2)]);
    }

    #[test]
    fn combine_outputs_unions() {
        let mut prog = Program::new(
            vec![
                Stmt::Op(Op::Zero { dst: s(0) }),
                Stmt::Op(Op::Zero { dst: s(1) }),
                Stmt::Op(Op::Zero { dst: s(2) }),
            ],
            3,
            vec![s(0), s(1), s(2)],
        );
        prog.combine_outputs();
        assert_eq!(prog.outputs().len(), 1);
        // Two OR instructions appended.
        assert_eq!(prog.op_count(), 5);
        // Idempotent on single-output programs.
        let before = prog.clone();
        prog.combine_outputs();
        assert_eq!(prog, before);
    }

    #[test]
    fn fresh_stream_increments() {
        let mut prog = Program::new(vec![], 5, vec![]);
        assert_eq!(prog.fresh_stream(), s(5));
        assert_eq!(prog.fresh_stream(), s(6));
        assert_eq!(prog.num_streams(), 7);
    }

    #[test]
    fn stream_len_has_sentinel() {
        assert_eq!(Program::stream_len(6), 7);
        assert_eq!(Program::stream_len(0), 1);
    }

    #[test]
    fn display_stream_id() {
        assert_eq!(s(12).to_string(), "S12");
    }
}
