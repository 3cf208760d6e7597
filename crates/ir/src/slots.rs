//! Static slot assignment for sequential execution.
//!
//! A sequential executor materialises one whole stream per instruction,
//! but only the streams that are *live* have to stay resident: once a
//! stream's last reader has run, its buffer can hold the next value. A
//! [`SlotPlan`] is that register allocation done once per program — the
//! host-side analogue of the kernel crate's `Kernel::max_live_regs` — so
//! an executor indexes a few dozen reusable buffers by slot instead of
//! keeping one buffer per stream id. The analogy is literal: both, and the
//! emulator's register rows, pack their live ranges with [`pack_spans`].
//!
//! Live ranges are intervals over the program's statements in pre-order.
//! Every stream touched inside an `if`/`while` body (its condition
//! included) is kept live across the *whole* body: a loop's later trips
//! read what its earlier trips wrote, so nothing first written or last
//! read mid-body may share a slot with anything else the body touches.
//! Outputs stay live to the end of the program. Two streams share a slot
//! only when one's range ends strictly before the other's begins, so an
//! instruction's destination never shares with its own operands either.
//!
//! Two kinds of stream take no part in that allocation, because a window
//! never stores them (DESIGN.md §10, "Stream plan"):
//!
//! - a **class alias**: the destination of a `MatchCc` that is the
//!   stream's only definition, when the caller keeps that class's stream
//!   for the whole window anyway ([`SlotPlan::with_classes`]) — reading
//!   the destination reads the shared class stream;
//! - a **link**: an `And` or `Advance` whose value is defined once and
//!   read once, by the very next statement of the same block, the two
//!   being a pair the machine fuses (`machine::fuses`: an `&` feeding a
//!   `>>`, or a `>>` feeding a `>>` or an `&`, every shift by less than a
//!   word). A sequential machine runs a chain of links and
//!   the statement that ends it as one pass over the words; the links all
//!   name one extra slot that only a machine taking every step singly
//!   ever fills.
//!
//! Where such a pass begins and how far it reaches is fixed by the
//! program too, so the plan records it: the link that heads a pass keeps
//! the count of statements after it in the pass ([`SlotPlan::pass_len`]),
//! in the same four bytes as its place.

use crate::analysis::DefUse;
use crate::interp::InterpError;
use crate::machine::{fuses, MAX_STAGES};
use crate::program::{Op, Program, Stmt, StreamId};
use bitgen_regex::ByteSet;

/// The span of a stream or register nothing touches.
pub const UNTOUCHED_SPAN: (u32, u32) = (u32::MAX, 0);

/// The one live-range packer: gives every closed span `(first, last)` a
/// row and returns the rows and how many there are. Spans whose ranges are
/// disjoint share a row: they are coloured greedily in order of their
/// start, each taking the row freed last, which takes as many rows as
/// spans overlap at most. An
/// [`UNTOUCHED_SPAN`] takes no row (its entry reads 0).
pub fn pack_spans(spans: &[(u32, u32)]) -> (Box<[u32]>, u32) {
    let touched = || spans.iter().enumerate().filter(|(_, &span)| span != UNTOUCHED_SPAN);
    let last = touched().map(|(_, span)| span.1 as usize).max().unwrap_or(0);
    // The touched spans in the order of where they start, or end: a
    // counting sort over the positions.
    let order = |at: fn((u32, u32)) -> u32| {
        let mut next = vec![0u32; last + 2];
        touched().for_each(|(_, &span)| next[at(span) as usize + 1] += 1);
        (1..next.len()).for_each(|i| next[i] += next[i - 1]);
        let mut order = vec![0; next[last + 1] as usize];
        for (i, &span) in touched() {
            let place = &mut next[at(span) as usize];
            order[*place as usize] = i;
            *place += 1;
        }
        order
    };
    let (mut rows, mut free, mut height) = (vec![0u32; spans.len()], Vec::new(), 0);
    let mut ended = order(|span| span.1).into_iter().peekable();
    for i in order(|span| span.0) {
        // A span that ends before this one starts also started before it,
        // so it has a row to give back.
        while let Some(done) = ended.next_if(|&done| spans[done].1 < spans[i].0) {
            free.push(rows[done]);
        }
        rows[i] = free.pop().unwrap_or_else(|| {
            height += 1;
            height - 1
        });
    }
    (rows.into(), height)
}

/// Slot value of a stream the program never touches.
const NO_SLOT: u32 = u32::MAX;
/// Set in the slot value of a class alias; the rest is the class's index.
const CLASS: u32 = 1 << 31;
/// Set, without [`CLASS`], in the slot value of a link; the rest is the
/// length of the pass it heads ([`SlotPlan::pass_len`]), 0 for a link
/// inside a pass.
const LINK: u32 = 1 << 30;

/// Where a window finds a stream ([`SlotPlan::place`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Place {
    /// In this slot buffer.
    Slot(usize),
    /// In the caller's stream of the class with this index.
    Class(usize),
    /// A link: in this slot, the one every link of the program names,
    /// when a machine takes its step singly; a fused pass stores nothing.
    Link(usize),
}

/// The slot of every stream of one program.
///
/// Four bytes per stream (a star over a long literal keeps more than
/// `u16::MAX` streams live at once), resident for the life of an engine:
/// a slot, a class, or a link and the length of the pass it heads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotPlan {
    slot_of: Box<[u32]>,
    slots: usize,
    /// The slot every link names, `NO_SLOT` for a program without links.
    link_slot: u32,
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
        SlotPlan::with_classes(program, &[])
    }

    /// [`SlotPlan::of`] for a machine that keeps one stream per class of
    /// `classes` (sorted) for the whole window: a `MatchCc` of one of them
    /// that is its destination's only definition becomes a
    /// [`Place::Class`] and needs no slot.
    ///
    /// # Errors
    ///
    /// As [`SlotPlan::of`].
    pub fn with_classes(program: &Program, classes: &[ByteSet]) -> Result<SlotPlan, InterpError> {
        let mut ranges = Ranges {
            spans: vec![UNTOUCHED_SPAN; program.num_streams() as usize],
            touched: Vec::new(),
            pos: 0,
        };
        ranges.walk(program.stmts())?;
        let end = ranges.pos + 1;
        for &out in program.outputs() {
            let span = ranges.spans.get_mut(out.index());
            if let Some(span) = span.filter(|span| **span != UNTOUCHED_SPAN) {
                span.1 = end;
            }
        }
        let mut kinds = vec![NO_SLOT; ranges.spans.len()];
        mark(program.stmts(), &DefUse::of(program), classes, &mut kinds);
        mark_passes(program.stmts(), &mut kinds);
        Ok(ranges.assign(&kinds))
    }

    /// Where `id` lives, `None` for a stream the program never writes.
    pub fn place(&self, id: StreamId) -> Option<Place> {
        match self.slot_of.get(id.index()) {
            None | Some(&NO_SLOT) => None,
            Some(&class) if class & CLASS != 0 => Some(Place::Class((class & !CLASS) as usize)),
            Some(&link) if link & LINK != 0 => Some(Place::Link(self.link_slot as usize)),
            Some(&slot) => Some(Place::Slot(slot as usize)),
        }
    }

    /// How many statements after the one writing `id` run in one pass
    /// with it: as long as the value at hand is a link its reader joins,
    /// up to sixteen advances a pass. `0` unless `id` is a link
    /// that heads a pass — the first of a block's run of links the walk
    /// meets, or the first after a pass was cut.
    pub fn pass_len(&self, id: StreamId) -> usize {
        match self.slot_of.get(id.index()) {
            Some(&link) if link & (CLASS | LINK) == LINK => (link & !LINK) as usize,
            _ => 0,
        }
    }

    /// The slot holding `id`, `None` for a stream the program never
    /// writes and for a class alias.
    pub fn slot(&self, id: StreamId) -> Option<usize> {
        match self.place(id) {
            Some(Place::Slot(slot) | Place::Link(slot)) => Some(slot),
            Some(Place::Class(_)) | None => None,
        }
    }

    /// Whether `id` is a link: read by the next statement alone, which a
    /// machine may run in one pass with the statement defining it.
    pub fn is_link(&self, id: StreamId) -> bool {
        matches!(self.place(id), Some(Place::Link(_)))
    }

    /// Slots the program needs: the most stored streams live at once, and
    /// one more if it has links.
    pub fn slot_count(&self) -> usize {
        self.slots
    }

    /// One past the largest stream id the plan covers.
    pub fn stream_count(&self) -> usize {
        self.slot_of.len()
    }
}

/// Live ranges under construction: per stream the first and last
/// statement position touching it.
struct Ranges {
    spans: Vec<(u32, u32)>,
    /// Streams touched so far inside the bodies being walked, innermost
    /// last; each body widens the ones past its mark.
    touched: Vec<usize>,
    pos: u32,
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
                        self.spans[id] = (self.spans[id].0.min(start), end);
                    }
                    self.touched.append(&mut inside);
                }
            }
        }
        Ok(())
    }

    fn read(&mut self, id: StreamId) -> Result<(), InterpError> {
        match self.spans.get(id.index()) {
            None | Some(&UNTOUCHED_SPAN) => Err(InterpError::UnwrittenStream { id }),
            Some(_) => {
                self.touch(id.index());
                Ok(())
            }
        }
    }

    fn touch(&mut self, id: usize) {
        if id >= self.spans.len() {
            // A destination past `num_streams`: the executors accept it.
            self.spans.resize(id + 1, UNTOUCHED_SPAN);
        }
        self.spans[id] = (self.spans[id].0.min(self.pos), self.pos);
        self.touched.push(id);
    }

    /// Packs the stored streams' ranges into slots, then gives every link
    /// the one slot past them and every class alias its class.
    fn assign(self, kinds: &[u32]) -> SlotPlan {
        let stored = (self.spans.iter().zip(kinds))
            .map(|(&span, &kind)| if kind == NO_SLOT { span } else { UNTOUCHED_SPAN });
        let (rows, slots) = pack_spans(&stored.collect::<Vec<_>>());
        assert!(slots < LINK, "{slots} slots do not fit a slot value");
        let is_link = |kind: u32| kind & (CLASS | LINK) == LINK;
        let link_slot = if kinds.iter().any(|&kind| is_link(kind)) { slots } else { NO_SLOT };
        let slot_of = (self.spans.iter().zip(kinds).zip(rows.iter()))
            .map(|((&span, &kind), &row)| match kind {
                _ if span == UNTOUCHED_SPAN => NO_SLOT,
                NO_SLOT => row,
                link_or_class => link_or_class,
            })
            .collect();
        let slots = slots as usize + usize::from(link_slot != NO_SLOT);
        SlotPlan { slot_of, slots, link_slot }
    }
}

/// Marks the streams a window does not store: per stream `NO_SLOT`
/// (stored), `LINK`, or the slot value of a class alias. Being an output
/// or a condition is a read.
fn mark(stmts: &[Stmt], du: &DefUse, classes: &[ByteSet], kinds: &mut [u32]) {
    for (i, stmt) in stmts.iter().enumerate() {
        match stmt {
            Stmt::Op(Op::MatchCc { dst, class }) if du.def_count(*dst) == 1 => {
                if let Ok(index) = classes.binary_search(class) {
                    kinds[dst.index()] = CLASS | index as u32;
                }
            }
            Stmt::Op(op) => {
                let next = stmts.get(i + 1);
                if du.is_linear_temp(op.dst())
                    && matches!(next, Some(Stmt::Op(reader)) if fuses(op, reader))
                {
                    kinds[op.dst().index()] = LINK;
                }
            }
            Stmt::If { body, .. } | Stmt::While { body, .. } => mark(body, du, classes, kinds),
        }
    }
}

/// Gives every link that heads a pass the pass's length, walking each
/// block as the machine does: a statement whose value is a link starts a
/// pass, its reader joins, and so on while the value at hand is a link,
/// until a reader would take the pass past [`MAX_STAGES`] advances; the
/// walk then goes on at the statement after the pass.
fn mark_passes(stmts: &[Stmt], kinds: &mut [u32]) {
    let advances = |op: &Op| usize::from(matches!(op, Op::Advance { .. }));
    let mut at = 0;
    while let Some(stmt) = stmts.get(at) {
        at += 1;
        match stmt {
            Stmt::Op(head) if kinds[head.dst().index()] == LINK => {
                let (mut op, mut stages, start) = (head, advances(head), at);
                while kinds[op.dst().index()] & (CLASS | LINK) == LINK {
                    let Some(Stmt::Op(reader)) = stmts.get(at) else { break };
                    stages += advances(reader);
                    if stages > MAX_STAGES || !fuses(op, reader) {
                        break;
                    }
                    at += 1;
                    op = reader;
                }
                kinds[head.dst().index()] = LINK | (at - start) as u32;
            }
            Stmt::Op(_) => {}
            Stmt::If { body, .. } | Stmt::While { body, .. } => mark_passes(body, kinds),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower_group_with, LowerOptions};
    use crate::program::Op;
    use bitgen_regex::{parse, ByteSet};
    use proptest::prelude::*;

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
    fn passes_are_resolved_where_the_walk_cuts_them() {
        // Twenty advances in a row: every value but the last is a link.
        // The first pass takes sixteen advances; the cut link is stored
        // and the next pass starts at its reader.
        let mut stmts = vec![op(Op::Ones { dst: s(0) })];
        for i in 1..=20 {
            stmts.push(op(Op::Advance { dst: s(i), src: s(i - 1), amount: 1 }));
        }
        let (_, plan) = plan(stmts, 21, vec![s(20)]);
        let passes: Vec<(u32, usize)> =
            (0..21).map(|i| (i, plan.pass_len(s(i)))).filter(|&(_, n)| n > 0).collect();
        assert_eq!(passes, vec![(1, 15), (17, 3)]);
        assert!((1..20).all(|i| plan.is_link(s(i))) && !plan.is_link(s(20)));
        assert_eq!(plan.place(s(5)), Some(Place::Link(plan.slot(s(5)).unwrap())));
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
    fn links_are_values_only_the_next_statement_reads() {
        let class = ByteSet::singleton(b'a');
        let (_, plan) = plan(
            vec![
                op(Op::MatchCc { dst: s(0), class }),
                op(Op::Ones { dst: s(1) }),
                // A literal's chain: every value but the last is a link.
                op(Op::And { dst: s(2), a: s(1), b: s(0) }),
                op(Op::Advance { dst: s(3), src: s(2), amount: 1 }),
                op(Op::And { dst: s(4), a: s(0), b: s(3) }),
                op(Op::Advance { dst: s(5), src: s(4), amount: 63 }),
                op(Op::Advance { dst: s(6), src: s(5), amount: 2 }),
                // s6 is read twice, s7 by an `&` after an `&`, s8 by a
                // shift of a whole word, s9 by an `|`.
                op(Op::And { dst: s(7), a: s(6), b: s(6) }),
                op(Op::And { dst: s(8), a: s(7), b: s(0) }),
                op(Op::Advance { dst: s(9), src: s(8), amount: 64 }),
                op(Op::Or { dst: s(10), a: s(9), b: s(0) }),
                // s11 is read by a condition, s12 is an output, s13 is
                // read one statement late.
                op(Op::Advance { dst: s(11), src: s(10), amount: 1 }),
                Stmt::If {
                    cond: s(11),
                    body: vec![
                        op(Op::And { dst: s(12), a: s(0), b: s(1) }),
                        op(Op::Advance { dst: s(13), src: s(12), amount: 1 }),
                        op(Op::Zero { dst: s(14) }),
                        op(Op::And { dst: s(15), a: s(13), b: s(0) }),
                        // The last statement of a body has no next one.
                        op(Op::Advance { dst: s(16), src: s(15), amount: 1 }),
                    ],
                },
                // s17 is written twice.
                op(Op::And { dst: s(17), a: s(0), b: s(1) }),
                op(Op::Advance { dst: s(17), src: s(17), amount: 1 }),
            ],
            18,
            vec![s(12), s(17)],
        );
        let links: Vec<u32> = (0..18).filter(|&i| plan.is_link(s(i))).collect();
        assert_eq!(links, vec![2, 3, 4, 5, 15]);
        // They all name one slot, which nothing else is given.
        let link_slot = plan.slot(s(2));
        for i in 0..18 {
            assert_eq!(plan.slot(s(i)) == link_slot, plan.is_link(s(i)), "s{i}");
        }
    }

    #[test]
    fn class_aliases_are_matches_of_a_kept_class_defined_once() {
        let (digit, word) = (ByteSet::digit(), ByteSet::word());
        let program = Program::new(
            vec![
                op(Op::MatchCc { dst: s(0), class: digit }),
                op(Op::MatchCc { dst: s(1), class: digit }),
                op(Op::MatchCc { dst: s(2), class: word }),
                // s3 is written again: it needs a buffer of its own.
                op(Op::MatchCc { dst: s(3), class: digit }),
                op(Op::And { dst: s(3), a: s(3), b: s(2) }),
                op(Op::Or { dst: s(4), a: s(0), b: s(1) }),
            ],
            5,
            vec![s(3), s(4), s(1)],
        );
        let plan = SlotPlan::with_classes(&program, &[digit]).unwrap();
        // Two matches of one class read one stream, output or not.
        assert_eq!(plan.place(s(0)), Some(Place::Class(0)));
        assert_eq!(plan.place(s(1)), Some(Place::Class(0)));
        assert_eq!((plan.slot(s(0)), plan.is_link(s(0))), (None, false));
        // `word` is not kept, s3 is not defined once.
        assert!(matches!(plan.place(s(2)), Some(Place::Slot(_))));
        assert!(matches!(plan.place(s(3)), Some(Place::Slot(_))));
        // s4 is born where s2 dies: two buffers hold s2, s3 and s4.
        assert_eq!(plan.slot_count(), 2);
        assert_eq!(SlotPlan::of(&program).unwrap().place(s(0)), Some(Place::Slot(0)));
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

    /// Every group's lowering, with `match_star` off and on.
    fn lowerings() -> Vec<Program> {
        let groups = [
            &["a(bc)*d", "cat", "[0-9]+x"][..],
            &["(a|bb)+c", "x[ab]{1,4}y", "(a*b)+"],
            &["abcdefghijklmnopqrstuvwxyz0123456789"],
        ];
        let options =
            [LowerOptions::default(), LowerOptions { match_star: true, log_repetition: true }];
        let mut programs = Vec::new();
        for patterns in groups {
            let asts: Vec<_> = patterns.iter().map(|p| parse(p).unwrap()).collect();
            programs.extend(options.map(|opts| lower_group_with(&asts, opts)));
        }
        programs
    }

    #[test]
    fn lowered_programs_need_a_fraction_of_their_streams() {
        for program in lowerings() {
            let plan = SlotPlan::of(&program).unwrap();
            assert_sound(&program, &plan);
            assert!(plan.slot_count() <= program.num_streams() as usize);
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

    #[test]
    fn lowered_programs_take_no_more_slots_than_streams_live_at_once() {
        /// Every stream `stmt` touches, bodies included, and how many
        /// statements it numbers in pre-order.
        fn touches(stmt: &Stmt, streams: &mut Vec<StreamId>) -> u32 {
            match stmt {
                Stmt::Op(op) => {
                    streams.extend(op.sources().chain([op.dst()]));
                    1
                }
                Stmt::If { cond, body } | Stmt::While { cond, body } => {
                    streams.push(*cond);
                    1 + body.iter().map(|stmt| touches(stmt, streams)).sum::<u32>()
                }
            }
        }
        for program in lowerings() {
            let plan = SlotPlan::of(&program).unwrap();
            // A stream lives from the first to the last top-level statement
            // touching it, over the whole of an `if` or `while`; an output
            // to one past the last statement.
            let mut live: Vec<Option<(u32, u32)>> = vec![None; plan.stream_count()];
            let mut at = 1;
            for stmt in program.stmts() {
                let mut streams = Vec::new();
                let end = at + touches(stmt, &mut streams) - 1;
                for id in streams {
                    let span = live[id.index()].get_or_insert((at, end));
                    *span = (span.0.min(at), span.1.max(end));
                }
                at = end + 1;
            }
            for &out in program.outputs() {
                if let Some(span) = &mut live[out.index()] {
                    span.1 = at;
                }
            }
            let stored: Vec<(u32, u32)> = (0..plan.stream_count())
                .filter(|&id| plan.slot(StreamId(id as u32)).is_some())
                .filter(|&id| !plan.is_link(StreamId(id as u32)))
                .filter_map(|id| live[id])
                .collect();
            let most = (1..=at)
                .map(|pos| stored.iter().filter(|span| (span.0..=span.1).contains(&pos)).count())
                .max()
                .unwrap_or(0);
            let links = (0..plan.stream_count()).any(|id| plan.is_link(StreamId(id as u32)));
            assert_eq!(plan.slot_count(), most + usize::from(links));
        }
    }

    /// The open/close sweep `Kernel::max_live_regs` ran before it packed:
    /// the most spans covering one position.
    fn most_spans_at_once(spans: &[(u32, u32)]) -> u32 {
        let mut opened = vec![0i32; spans.iter().map(|s| s.1 as usize + 2).max().unwrap_or(0)];
        for &(start, end) in spans.iter().filter(|&&span| span != UNTOUCHED_SPAN) {
            opened[start as usize] += 1;
            opened[end as usize + 1] -= 1;
        }
        let (mut live, mut most) = (0, 0);
        for delta in opened {
            live += delta;
            most = most.max(live);
        }
        most as u32
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The packer gives overlapping spans distinct rows, every row below
        /// its count, and takes exactly as many rows as spans overlap most:
        /// over untouched spans, spans of one position, shared end points
        /// and nesting, on a few positions so that all of them are common.
        #[test]
        fn packed_spans_share_rows_only_when_disjoint(
            raw in prop::collection::vec((0u32..16, 0u32..6, 0u8..6), 0..40)
        ) {
            let spans: Vec<(u32, u32)> = raw
                .iter()
                .map(|&(start, len, kind)| {
                    if kind == 0 { UNTOUCHED_SPAN } else { (start, start + len) }
                })
                .collect();
            let (rows, count) = pack_spans(&spans);
            prop_assert_eq!(rows.len(), spans.len());
            prop_assert_eq!(count, most_spans_at_once(&spans));
            let touched: Vec<usize> =
                (0..spans.len()).filter(|&i| spans[i] != UNTOUCHED_SPAN).collect();
            for &i in &touched {
                prop_assert!(rows[i] < count);
                for &j in touched.iter().filter(|&&j| j > i) {
                    let (a, b) = (spans[i], spans[j]);
                    if a.0 <= b.1 && b.0 <= a.1 {
                        prop_assert_ne!(rows[i], rows[j]);
                    }
                }
            }
        }
    }
}
