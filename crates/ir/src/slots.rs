//! Static slot assignment for sequential execution.
//!
//! A sequential executor materialises one whole stream per instruction,
//! but only the streams that are *live* have to stay resident: once a
//! stream's last reader has run, its buffer can hold the next value. A
//! [`SlotPlan`] is that register allocation done once per program — the
//! host-side analogue of the kernel crate's `Kernel::max_live_regs` — so
//! an executor indexes a few dozen reusable buffers by slot instead of
//! keeping one buffer per stream id.
//!
//! Live ranges are intervals over the program's statements in pre-order.
//! Every stream touched inside an `if`/`while` body (its condition
//! included) is kept live across the *whole* body: a loop's later trips
//! read what its earlier trips wrote, so nothing first written or last
//! read mid-body may share a slot with anything else the body touches.
//! Outputs stay live to the end of the program. Two streams share a slot
//! only when one's range ends strictly before the other's begins, so an
//! instruction's destination never shares with its own operands either.

use crate::interp::InterpError;
use crate::program::{Program, Stmt, StreamId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Slot value of a stream the program never touches.
const NO_SLOT: u32 = u32::MAX;

/// The slot of every stream of one program.
///
/// Four bytes per stream (a star over a long literal keeps more than
/// `u16::MAX` streams live at once), resident for the life of an engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotPlan {
    slot_of: Box<[u32]>,
    slots: usize,
}

impl SlotPlan {
    /// Assigns `program`'s streams to slots.
    ///
    /// # Errors
    ///
    /// [`InterpError::UnwrittenStream`] naming the first stream that an
    /// operand or condition reads before any instruction earlier in the
    /// program text writes it — what [`verify`](crate::verify) calls a
    /// use before definition, and what executing the program would trip
    /// over at that instruction.
    pub fn of(program: &Program) -> Result<SlotPlan, InterpError> {
        let mut ranges = Ranges {
            first: vec![UNTOUCHED; program.num_streams() as usize],
            last: vec![0; program.num_streams() as usize],
            touched: Vec::new(),
            pos: 0,
        };
        ranges.walk(program.stmts())?;
        let end = ranges.pos + 1;
        for &out in program.outputs() {
            if ranges.first.get(out.index()).is_some_and(|&first| first != UNTOUCHED) {
                ranges.last[out.index()] = end;
            }
        }
        Ok(ranges.assign())
    }

    /// The slot holding `id`, `None` for a stream the program never
    /// writes.
    pub fn slot(&self, id: StreamId) -> Option<usize> {
        match self.slot_of.get(id.index()) {
            None | Some(&NO_SLOT) => None,
            Some(&slot) => Some(slot as usize),
        }
    }

    /// Slots the program needs: the most streams live at once.
    pub fn slot_count(&self) -> usize {
        self.slots
    }

    /// One past the largest stream id the plan covers.
    pub fn stream_count(&self) -> usize {
        self.slot_of.len()
    }
}

/// `first` of a stream not touched yet.
const UNTOUCHED: usize = usize::MAX;

/// Live ranges under construction: per stream the first and last
/// statement position touching it.
struct Ranges {
    first: Vec<usize>,
    last: Vec<usize>,
    /// Streams touched so far inside the bodies being walked, innermost
    /// last; each body widens the ones past its mark.
    touched: Vec<usize>,
    pos: usize,
}

impl Ranges {
    fn walk(&mut self, stmts: &[Stmt]) -> Result<(), InterpError> {
        for stmt in stmts {
            self.pos += 1;
            match stmt {
                Stmt::Op(op) => {
                    for src in op.sources() {
                        self.read(src)?;
                    }
                    self.touch(op.dst().index());
                }
                Stmt::If { cond, body } | Stmt::While { cond, body } => {
                    let start = self.pos;
                    let mark = self.touched.len();
                    self.read(*cond)?;
                    self.walk(body)?;
                    let end = self.pos;
                    // Each stream once, so an enclosing body's pass over
                    // them stays linear in the streams, not the touches.
                    let mut inside = self.touched.split_off(mark);
                    inside.sort_unstable();
                    inside.dedup();
                    for &id in &inside {
                        self.first[id] = self.first[id].min(start);
                        self.last[id] = end;
                    }
                    self.touched.append(&mut inside);
                }
            }
        }
        Ok(())
    }

    fn read(&mut self, id: StreamId) -> Result<(), InterpError> {
        match self.first.get(id.index()) {
            None | Some(&UNTOUCHED) => Err(InterpError::UnwrittenStream { id }),
            Some(_) => {
                self.touch(id.index());
                Ok(())
            }
        }
    }

    fn touch(&mut self, id: usize) {
        if id >= self.first.len() {
            // A destination past `num_streams`: the executors accept it.
            self.first.resize(id + 1, UNTOUCHED);
            self.last.resize(id + 1, 0);
        }
        self.first[id] = self.first[id].min(self.pos);
        self.last[id] = self.pos;
        self.touched.push(id);
    }

    /// Linear scan over the ranges in order of their first position,
    /// handing each the lowest slot whose previous range has ended.
    fn assign(self) -> SlotPlan {
        let mut order: Vec<usize> =
            (0..self.first.len()).filter(|&id| self.first[id] != UNTOUCHED).collect();
        order.sort_unstable_by_key(|&id| (self.first[id], id));
        let mut slot_of = vec![NO_SLOT; self.first.len()].into_boxed_slice();
        let mut active: BinaryHeap<Reverse<(usize, u32)>> = BinaryHeap::new();
        let mut free: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
        let mut slots = 0u32;
        for id in order {
            while let Some(&Reverse((last, slot))) = active.peek() {
                if last >= self.first[id] {
                    break;
                }
                active.pop();
                free.push(Reverse(slot));
            }
            let slot = free.pop().map_or_else(
                || {
                    slots += 1;
                    slots - 1
                },
                |Reverse(slot)| slot,
            );
            slot_of[id] = slot;
            active.push(Reverse((self.last[id], slot)));
        }
        SlotPlan { slot_of, slots: slots as usize }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower_group_with, LowerOptions};
    use crate::program::Op;
    use bitgen_regex::{parse, ByteSet};

    fn s(i: u32) -> StreamId {
        StreamId(i)
    }

    fn op(op: Op) -> Stmt {
        Stmt::Op(op)
    }

    fn plan(stmts: Vec<Stmt>, streams: u32, outputs: Vec<StreamId>) -> (Program, SlotPlan) {
        let program = Program::new(stmts, streams, outputs);
        let plan = SlotPlan::of(&program).expect("the program reads nothing unwritten");
        assert_sound(&program, &plan);
        (program, plan)
    }

    /// Abstractly executes `program` — every `while` body twice, every
    /// `if` body once — tracking which stream each slot holds: every read
    /// must find its own stream still in its slot.
    fn assert_sound(program: &Program, plan: &SlotPlan) {
        fn run(stmts: &[Stmt], plan: &SlotPlan, holds: &mut [Option<StreamId>]) {
            let read = |id: StreamId, holds: &[Option<StreamId>]| {
                let slot = plan.slot(id).expect("a read stream has a slot");
                assert_eq!(holds[slot], Some(id), "{id} was evicted from slot {slot}");
            };
            for stmt in stmts {
                match stmt {
                    Stmt::Op(op) => {
                        for src in op.sources() {
                            read(src, holds);
                        }
                        holds[plan.slot(op.dst()).expect("a written stream has a slot")] =
                            Some(op.dst());
                    }
                    Stmt::If { cond, body } => {
                        read(*cond, holds);
                        run(body, plan, holds);
                    }
                    Stmt::While { cond, body } => {
                        for _ in 0..2 {
                            read(*cond, holds);
                            run(body, plan, holds);
                        }
                        read(*cond, holds);
                    }
                }
            }
        }
        let mut holds = vec![None; plan.slot_count()];
        run(program.stmts(), plan, &mut holds);
        for &out in program.outputs() {
            if let Some(slot) = plan.slot(out) {
                assert_eq!(holds[slot], Some(out), "output {out} was evicted");
            }
        }
    }

    #[test]
    fn straight_line_streams_recycle_at_last_use() {
        // A chain: each value dies at the next instruction, so two slots
        // alternate however long the chain is.
        let mut stmts = vec![op(Op::Ones { dst: s(0) })];
        for i in 1..40 {
            stmts.push(op(Op::Advance { dst: s(i), src: s(i - 1), amount: 1 }));
        }
        let (_, plan) = plan(stmts, 40, vec![s(39)]);
        assert_eq!(plan.slot_count(), 2);
        assert_eq!(plan.stream_count(), 40);
    }

    #[test]
    fn loop_carried_accumulator_and_body_temporaries_hold_their_slots() {
        // acc and cursor are carried between trips; t is written and
        // read within one trip but stays live across the whole body.
        let (_, plan) = plan(
            vec![
                op(Op::MatchCc { dst: s(0), class: ByteSet::singleton(b'a') }),
                op(Op::Zero { dst: s(1) }),
                op(Op::Assign { dst: s(2), src: s(0) }),
                Stmt::While {
                    cond: s(2),
                    body: vec![
                        op(Op::Advance { dst: s(3), src: s(2), amount: 1 }),
                        op(Op::Or { dst: s(1), a: s(1), b: s(3) }),
                        op(Op::And { dst: s(2), a: s(3), b: s(0) }),
                    ],
                },
                op(Op::Not { dst: s(4), src: s(1) }),
            ],
            5,
            vec![s(4)],
        );
        let body: Vec<usize> = [0, 1, 2, 3].iter().map(|&i| plan.slot(s(i)).unwrap()).collect();
        let mut distinct = body.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 4, "streams the loop touches never share: {body:?}");
        // After the loop only the accumulator is read: the output reuses
        // a slot the loop has released.
        assert_eq!(plan.slot_count(), 4);
    }

    #[test]
    fn stream_defined_before_a_loop_and_read_after_it_survives_the_loop() {
        let (_, plan) = plan(
            vec![
                op(Op::Ones { dst: s(0) }),
                op(Op::Zero { dst: s(1) }),
                op(Op::Assign { dst: s(2), src: s(1) }),
                Stmt::While {
                    cond: s(2),
                    body: vec![
                        op(Op::Advance { dst: s(3), src: s(2), amount: 2 }),
                        op(Op::And { dst: s(2), a: s(3), b: s(1) }),
                    ],
                },
                // s0 is untouched by the loop but read here.
                op(Op::And { dst: s(4), a: s(0), b: s(1) }),
            ],
            5,
            vec![s(4)],
        );
        for inside in [1, 2, 3] {
            assert_ne!(plan.slot(s(0)), plan.slot(s(inside)));
        }
    }

    #[test]
    fn an_op_reading_its_own_destination_keeps_one_slot() {
        let (_, plan) = plan(
            vec![
                op(Op::Ones { dst: s(0) }),
                op(Op::Advance { dst: s(0), src: s(0), amount: 3 }),
                op(Op::Xor { dst: s(0), a: s(0), b: s(0) }),
            ],
            1,
            vec![s(0)],
        );
        assert_eq!((plan.slot(s(0)), plan.slot_count()), (Some(0), 1));
    }

    #[test]
    fn nested_while_in_if_widens_to_the_outermost_body() {
        // t is touched only by the inner loop; the enclosing `if` still
        // keeps it live from its own header to its end, so the stream
        // born between the two headers cannot take its slot.
        let (_, plan) = plan(
            vec![
                op(Op::Ones { dst: s(0) }),
                Stmt::If {
                    cond: s(0),
                    body: vec![
                        op(Op::Not { dst: s(1), src: s(0) }),
                        Stmt::While {
                            cond: s(1),
                            body: vec![
                                op(Op::Advance { dst: s(2), src: s(1), amount: 1 }),
                                op(Op::And { dst: s(1), a: s(2), b: s(0) }),
                            ],
                        },
                        op(Op::Zero { dst: s(3) }),
                    ],
                },
                op(Op::Zero { dst: s(4) }),
            ],
            5,
            vec![s(4)],
        );
        let inside: Vec<usize> = (0..4).map(|i| plan.slot(s(i)).unwrap()).collect();
        let mut distinct = inside.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 4, "{inside:?}");
        // Past the `if`, everything it touched is released.
        assert_eq!(plan.slot_count(), 4);
    }

    #[test]
    fn a_stream_written_but_never_read_holds_a_slot_only_at_its_write() {
        let (_, plan) = plan(
            vec![
                op(Op::Ones { dst: s(0) }),
                op(Op::Zero { dst: s(1) }),
                op(Op::Zero { dst: s(2) }),
                op(Op::Not { dst: s(3), src: s(0) }),
            ],
            5,
            vec![s(3)],
        );
        // Dead writes take turns in one slot; s4 is never touched.
        assert_eq!(plan.slot(s(1)), plan.slot(s(2)));
        assert_eq!(plan.slot(s(4)), None);
        assert_eq!(plan.slot_count(), 2);
    }

    #[test]
    fn outputs_are_pinned_to_the_end_even_when_they_are_operands() {
        let (_, plan) = plan(
            vec![
                op(Op::Ones { dst: s(0) }),
                op(Op::Not { dst: s(1), src: s(0) }),
                // The output s1 is read here, and long dead otherwise.
                op(Op::And { dst: s(2), a: s(1), b: s(0) }),
                op(Op::Zero { dst: s(3) }),
                op(Op::Zero { dst: s(4) }),
            ],
            5,
            vec![s(1), s(9)],
        );
        for later in [2, 3, 4] {
            assert_ne!(plan.slot(s(1)), plan.slot(s(later)));
        }
        // An output nothing writes has no slot to pin.
        assert_eq!(plan.slot(s(9)), None);
    }

    #[test]
    fn two_matches_of_one_class_are_two_streams() {
        let class = ByteSet::range(b'0', b'9');
        let (_, plan) = plan(
            vec![
                op(Op::MatchCc { dst: s(0), class }),
                op(Op::MatchCc { dst: s(1), class }),
                op(Op::And { dst: s(2), a: s(0), b: s(1) }),
            ],
            3,
            vec![s(2)],
        );
        assert_ne!(plan.slot(s(0)), plan.slot(s(1)));
    }

    #[test]
    fn reads_before_any_write_are_rejected_typed() {
        let unwritten = |stmts, streams| {
            SlotPlan::of(&Program::new(stmts, streams, vec![])).unwrap_err()
        };
        assert_eq!(
            unwritten(vec![op(Op::Not { dst: s(1), src: s(0) })], 2),
            InterpError::UnwrittenStream { id: s(0) }
        );
        // A condition is a read too, and so is an id past `num_streams`.
        assert_eq!(
            unwritten(vec![Stmt::While { cond: s(0), body: vec![op(Op::Zero { dst: s(0) })] }], 1),
            InterpError::UnwrittenStream { id: s(0) }
        );
        assert_eq!(
            unwritten(vec![op(Op::Zero { dst: s(0) }), op(Op::Not { dst: s(0), src: s(7) })], 1),
            InterpError::UnwrittenStream { id: s(7) }
        );
        // First-trip discipline: a loop may not read what only a later
        // statement of its own body writes.
        assert_eq!(
            unwritten(
                vec![
                    op(Op::Ones { dst: s(0) }),
                    Stmt::While {
                        cond: s(0),
                        body: vec![
                            op(Op::And { dst: s(0), a: s(0), b: s(1) }),
                            op(Op::Zero { dst: s(1) }),
                        ],
                    },
                ],
                2,
            ),
            InterpError::UnwrittenStream { id: s(1) }
        );
    }

    #[test]
    fn lowered_programs_need_a_fraction_of_their_streams() {
        for patterns in [
            &["a(bc)*d", "cat", "[0-9]+x"][..],
            &["(a|bb)+c", "x[ab]{1,4}y", "(a*b)+"],
            &["abcdefghijklmnopqrstuvwxyz0123456789"],
        ] {
            let asts: Vec<_> = patterns.iter().map(|p| parse(p).unwrap()).collect();
            for opts in
                [LowerOptions::default(), LowerOptions { match_star: true, log_repetition: true }]
            {
                let program = lower_group_with(&asts, opts);
                let plan = SlotPlan::of(&program).unwrap();
                assert_sound(&program, &plan);
                assert!(plan.slot_count() <= program.num_streams() as usize);
            }
        }
        let literal = lower_group_with(
            &[parse("abcdefghijklmnopqrstuvwxyz0123456789").unwrap()],
            LowerOptions::default(),
        );
        let plan = SlotPlan::of(&literal).unwrap();
        assert!(
            plan.slot_count() * 2 < literal.num_streams() as usize,
            "{} slots for {} streams",
            plan.slot_count(),
            literal.num_streams()
        );
    }
}
