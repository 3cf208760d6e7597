//! Cross-chunk carry state for streaming execution.
//!
//! Batch execution sees the whole input at once, so every `Advance` can
//! read arbitrarily far back and every `while` runs to a global fixpoint.
//! Streaming hands the executor one chunk at a time; the only state that
//! must survive between chunks is, per shift-like instruction, the bits
//! that cross the chunk boundary — the same cross-block dependency the
//! paper's windows resolve, lifted to the host-streaming layer.
//!
//! A [`CarryState`] holds one slot per carry-bearing instruction:
//!
//! - `Advance(src, k)` keeps the last `k` bits of `src`'s history (the
//!   bits a shift would pull in from before the current window);
//! - `Add(a, b)` keeps a single bit: the carry of the long addition into
//!   the window boundary.
//!
//! `Retreat` gets **no** slot: lowering only ever emits `retreat(_, 1)`
//! at top level to normalise cursor streams into match-end outputs, and
//! the one-past-the-chunk "peek" position every window carries (see
//! `Program::stream_len`) makes that read exact — [`CarryState::for_layout`]
//! enforces the structural invariant.
//!
//! Executors walk a program's carry-bearing ops in pre-order
//! ([`CarryWalk`]), mirroring the [`CarryLayout`] computed once per
//! program; while-loop bodies rewind to their first slot on every trip, and slots written inside a loop accumulate their
//! carry-out across trips by OR. That is sound for both kinds of slot:
//! the loop computes a monotone reachability closure, and each slot's
//! carry-out is an OR over the markers that feed it — an advance's
//! history bits, and the carry of MatchStar's `(M ∧ C) + C`, which is 1
//! exactly when a marker of `M ∧ C` sits on the run of `C` reaching the
//! boundary (see DESIGN.md §10).

use crate::fnv::{fnv1a_word, ByteReader, FNV_OFFSET};
use crate::program::{Op, Program, Stmt, StreamId};
use bitgen_bitstream::{BitStream, FusedStage};
use std::fmt;
use std::ops::Range;

/// Why a [`CarryState`] failed integrity validation or deserialization.
///
/// Returned by [`CarryState::validate`] and [`CarryState::read_bytes`];
/// every variant means the state must not be executed — running a
/// corrupted carry would silently poison all downstream matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CarryError {
    /// The slot count differs from the program's carry layout.
    SlotCountMismatch {
        /// Slots the program's layout requires.
        expected: usize,
        /// Slots the state actually holds.
        found: usize,
    },
    /// One slot's width differs from the instruction it belongs to.
    SlotWidthMismatch {
        /// Pre-order index of the offending slot.
        slot: usize,
        /// Width the instruction requires.
        expected: usize,
        /// Width the slot actually has.
        found: usize,
    },
    /// The recorded checksum does not cover the incoming carry bits —
    /// the state was corrupted after its last rotate.
    ChecksumMismatch {
        /// Checksum the state carries.
        expected: u64,
        /// Checksum recomputed over the current bits.
        found: u64,
    },
    /// An outgoing buffer holds bits at a window boundary; the
    /// post-window rotate must have zeroed it, so something scribbled on
    /// the state between pushes.
    DirtyOutgoing {
        /// Pre-order index of the offending slot.
        slot: usize,
    },
    /// Serialized bytes were truncated or structurally malformed.
    Malformed {
        /// What the parser tripped over.
        reason: &'static str,
    },
}

impl fmt::Display for CarryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CarryError::SlotCountMismatch { expected, found } => {
                write!(f, "carry slot count mismatch: program needs {expected}, state has {found}")
            }
            CarryError::SlotWidthMismatch { slot, expected, found } => {
                write!(f, "carry slot {slot} width mismatch: needs {expected} bits, has {found}")
            }
            CarryError::ChecksumMismatch { expected, found } => write!(
                f,
                "carry checksum mismatch: recorded {expected:#018x}, recomputed {found:#018x}"
            ),
            CarryError::DirtyOutgoing { slot } => {
                write!(f, "carry slot {slot} has a dirty outgoing buffer at a window boundary")
            }
            CarryError::Malformed { reason } => write!(f, "malformed carry bytes: {reason}"),
        }
    }
}

impl std::error::Error for CarryError {}

/// The input-independent shape of a program's carry slots: each slot's
/// width in pre-order, and for every `if`/`while` body the slots and
/// nested guards it spans. Computed once per program
/// ([`CarryLayout::of`]) so that building, validating and walking a
/// [`CarryState`] never re-walks the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CarryLayout {
    widths: Vec<u32>,
    /// One entry per `if`/`while` statement, in pre-order.
    bodies: Vec<BodyLayout>,
    /// Whether every `Retreat` is the top-level `retreat(cursors, 1)`
    /// output normalisation that lowering emits (amount 1, destination is
    /// an output that is never read back) — the only retreat the peek
    /// position makes exact. [`CarryState::for_layout`] refuses the rest.
    streamable: bool,
    /// The seal of the zeroed state, so that opening a stream hashes
    /// nothing.
    zero_seal: u64,
}

/// What one `if`/`while` body spans, as pre-order index ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BodyLayout {
    /// First carry slot inside the body.
    slot_start: usize,
    /// One past the body's last carry slot.
    slot_end: usize,
    /// First guard nested in the body (this guard's index + 1).
    guard_start: usize,
    /// One past the last guard nested in the body.
    guard_end: usize,
}

impl CarryLayout {
    /// Computes `program`'s carry layout.
    pub fn of(program: &Program) -> CarryLayout {
        let mut reads = vec![false; program.num_streams() as usize];
        program.for_each_op(&mut |op| {
            for src in op.sources() {
                reads[src.index()] = true;
            }
        });
        let mut layout =
            CarryLayout { widths: Vec::new(), bodies: Vec::new(), streamable: true, zero_seal: 0 };
        let mut streamable = true;
        layout.walk(program.stmts(), true, &mut |dst, amount, top_level| {
            streamable &= top_level
                && amount == 1
                && program.outputs().contains(&dst)
                && !reads[dst.index()];
        });
        layout.streamable = streamable;
        // Resident for the life of an engine: drop the growth slack.
        layout.widths.shrink_to_fit();
        layout.bodies.shrink_to_fit();
        layout.zero_seal = CarryState::zeroed(&layout).seal_of();
        layout
    }

    /// Appends `stmts`' slots and bodies in pre-order; `retreat` vets each
    /// `Retreat(dst, amount)`.
    fn walk(
        &mut self,
        stmts: &[Stmt],
        top_level: bool,
        retreat: &mut impl FnMut(StreamId, u32, bool),
    ) {
        for stmt in stmts {
            match stmt {
                Stmt::Op(Op::Advance { amount, .. }) => self.widths.push(*amount),
                Stmt::Op(Op::Add { .. }) => self.widths.push(1),
                Stmt::Op(Op::Retreat { dst, amount, .. }) => retreat(*dst, *amount, top_level),
                Stmt::Op(_) => {}
                Stmt::If { body, .. } | Stmt::While { body, .. } => {
                    // Reserve the pre-order position; the spans are known
                    // only once the body has been walked.
                    let guard = self.bodies.len();
                    let slot_start = self.widths.len();
                    self.bodies.push(BodyLayout {
                        slot_start,
                        slot_end: slot_start,
                        guard_start: guard + 1,
                        guard_end: guard + 1,
                    });
                    self.walk(body, false, retreat);
                    self.bodies[guard] = BodyLayout {
                        slot_end: self.widths.len(),
                        guard_end: self.bodies.len(),
                        ..self.bodies[guard]
                    };
                }
            }
        }
    }

    /// Number of carry slots.
    pub fn slot_count(&self) -> usize {
        self.widths.len()
    }
}

/// One window's pre-order walk over a [`CarryState`]: the slot and guard
/// cursors every streaming executor advances in step with the program.
/// Loop bodies [`rewind`](CarryWalk::rewind) to their first slot on each
/// trip; skipped or finished bodies [`leave`](CarryWalk::leave) past
/// their last.
#[derive(Debug)]
pub struct CarryWalk<'a> {
    state: &'a mut CarryState,
    layout: &'a CarryLayout,
    slot: usize,
    guard: usize,
}

impl<'a> CarryWalk<'a> {
    /// Starts a walk at the program's first slot. `layout` must be the
    /// layout `state` was built for (or validated against).
    pub fn new(state: &'a mut CarryState, layout: &'a CarryLayout) -> CarryWalk<'a> {
        CarryWalk { state, layout, slot: 0, guard: 0 }
    }

    /// `Advance(src, k)` through the next slot into `out`
    /// (see [`CarryState::advance_through_into`]).
    pub fn advance_into(&mut self, src: &BitStream, k: usize, out: &mut BitStream) {
        self.slot += 1;
        self.state.advance_through_into(self.slot - 1, src, k, out);
    }

    /// `Add(a, b)` through the next slot into `out`
    /// (see [`CarryState::add_through_into`]).
    pub fn add_into(&mut self, a: &BitStream, b: &BitStream, out: &mut BitStream) {
        self.slot += 1;
        self.state.add_through_into(self.slot - 1, a, b, out);
    }

    /// `Advance(_, k)` through the next slot from inside a fused pass
    /// (`k < 64`): the slot's incoming history, as the word a
    /// [`FusedStage`] starts from.
    pub fn fused_in(&mut self, k: u32) -> u64 {
        self.slot += 1;
        let shape = self.state.slots[self.slot - 1];
        debug_assert_eq!(shape.width, k, "carry slot width mismatch");
        self.state.incoming[shape.word as usize]
    }

    /// After the pass: accumulates the outgoing history of the slots its
    /// `stages` took, the last `stages.len()` walked, each from the last
    /// two words of its advance's `len`-bit input, which the pass never
    /// stored — what [`CarryState::advance_through_into`] does with the
    /// whole input.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn fused_out(&mut self, stages: &[FusedStage<'_>], len: usize) {
        let s = &mut *self.state;
        let consumed = len.checked_sub(1).expect("window must hold the peek position");
        for (stage, shape) in stages.iter().zip(&s.slots[self.slot - stages.len()..self.slot]) {
            // A fused advance moves less than a word: its slot is one word.
            let word = shape.word as usize..shape.word as usize + 1;
            BitStream::or_history_tail_of(
                stage.last(),
                len,
                &s.incoming[word.clone()],
                shape.width as usize,
                consumed,
                &mut s.outgoing[word],
            );
        }
    }

    /// Arrives at the next `if`/`while` statement: its body's span, and
    /// whether any incoming carry inside it is pending — a marker crossed
    /// the chunk boundary, so the body must run even when its guard is
    /// locally empty.
    pub fn enter(&mut self) -> (BodyLayout, bool) {
        let body = self.layout.bodies[self.guard];
        debug_assert_eq!(body.slot_start, self.slot, "carry walk desynchronised from the layout");
        self.guard = body.guard_start;
        (body, self.state.pending(body.slot_start..body.slot_end))
    }

    /// Back to `body`'s first slot, for the next trip of its loop.
    pub fn rewind(&mut self, body: &BodyLayout) {
        self.slot = body.slot_start;
        self.guard = body.guard_start;
    }

    /// Past `body`'s last slot: it was skipped, or its loop is done.
    pub fn leave(&mut self, body: &BodyLayout) {
        self.slot = body.slot_end;
        self.guard = body.guard_end;
    }

    /// Slots consumed so far; equals the layout's slot count after a
    /// clean window.
    pub fn slots_walked(&self) -> usize {
        self.slot
    }

    /// The state being walked — for fault drills
    /// ([`CarryState::corrupt_outgoing`]).
    pub fn state_mut(&mut self) -> &mut CarryState {
        self.state
    }
}

/// Per-instruction carry slots threaded between consecutive chunks.
///
/// The state is double-buffered: during a window the executor *reads*
/// each slot's incoming carry (produced by the previous window) and
/// *accumulates* its outgoing carry; [`CarryState::rotate`] flips the
/// buffers once the window completes. A freshly built state has all
/// slots zero, which is exactly the before-start-of-stream semantics of
/// batch execution (shifts pull in zeros, additions start carry-less).
///
/// Each side is one word buffer holding every slot's carry back to
/// back, a slot of width `w` taking `w.div_ceil(64)` words with the bits
/// past `w` clear. A state is three allocations whatever its slot count,
/// so cloning, dropping, rotating or discarding one costs a copy or a
/// fill of its words, not an allocation per slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CarryState {
    /// Each slot's width and first word, in pre-order.
    slots: Vec<SlotShape>,
    /// Carries entering the current window; read-only while executing.
    incoming: Vec<u64>,
    /// Carries accumulated for the next window, laid out as `incoming`.
    outgoing: Vec<u64>,
    /// Checksum over the incoming carries, refreshed by [`CarryState::rotate`].
    ///
    /// During a window only the outgoing buffer mutates, so the seal
    /// stays valid from one rotate to the next; [`CarryState::validate`]
    /// recomputes it to detect corruption that happened *between*
    /// pushes (stray writes, bitrot in a deserialized checkpoint).
    seal: u64,
}

/// Where one slot's carry lies in a [`CarryState`]'s word buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotShape {
    /// Carry width in bits.
    width: u32,
    /// Index of the slot's first word.
    word: u32,
}

impl CarryState {
    /// Builds a zeroed carry state with one slot per carry-bearing
    /// instruction of `program`, in pre-order.
    ///
    /// Walks the program; callers that already hold its [`CarryLayout`]
    /// should use [`CarryState::for_layout`].
    ///
    /// # Panics
    ///
    /// As [`CarryState::for_layout`].
    pub fn for_program(program: &Program) -> CarryState {
        CarryState::for_layout(&CarryLayout::of(program))
    }

    /// Builds a zeroed carry state for an already-computed layout.
    ///
    /// # Panics
    ///
    /// Panics if the layout's program is not streamable: every `Retreat`
    /// must be the top-level `retreat(cursors, 1)` output normalisation
    /// that lowering emits. Transformed programs (shift rebalancing
    /// introduces non-causal retreats) must not be streamed — stream the
    /// untransformed lowering instead.
    pub fn for_layout(layout: &CarryLayout) -> CarryState {
        assert!(
            layout.streamable,
            "program is not streamable: Retreat is only supported as the \
             top-level output normalisation `retreat(cursors, 1)`"
        );
        CarryState::zeroed(layout)
    }

    /// The zeroed state of `layout`, sealed with its recorded seal.
    fn zeroed(layout: &CarryLayout) -> CarryState {
        let mut words = 0;
        let slots: Vec<SlotShape> = layout
            .widths
            .iter()
            .map(|&width| {
                let slot = SlotShape { width, word: words };
                words += width.div_ceil(64);
                slot
            })
            .collect();
        let zeros = vec![0; words as usize];
        CarryState { slots, incoming: zeros.clone(), outgoing: zeros, seal: layout.zero_seal }
    }

    /// Number of carry slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The first word of `slot`; one past the last word for the slot
    /// past the end.
    fn word_at(&self, slot: usize) -> usize {
        self.slots.get(slot).map_or(self.incoming.len(), |s| s.word as usize)
    }

    /// The words of `slots` in either buffer.
    fn words(&self, slots: Range<usize>) -> Range<usize> {
        self.word_at(slots.start)..self.word_at(slots.end)
    }

    /// Flips the buffers after a window: this window's carry-out becomes
    /// the next window's carry-in, and the outgoing side is zeroed.
    pub fn rotate(&mut self) {
        std::mem::swap(&mut self.incoming, &mut self.outgoing);
        self.outgoing.fill(0);
        self.seal = self.seal_of();
    }

    /// The integrity checksum recorded at the last rotate (or at
    /// construction / deserialization).
    pub fn seal(&self) -> u64 {
        self.seal
    }

    /// Checks this state against a program's carry layout and its own
    /// checksum: slot count, per-slot widths, zeroed outgoing buffers,
    /// and the incoming-carry seal must all hold.
    ///
    /// Valid only at a window boundary (right after construction,
    /// [`CarryState::rotate`], or [`CarryState::read_bytes`]) — mid-window
    /// the outgoing side is legitimately dirty.
    ///
    /// # Errors
    ///
    /// The first [`CarryError`] found, in slot order.
    pub fn validate(&self, layout: &CarryLayout) -> Result<(), CarryError> {
        let expected = &layout.widths;
        if expected.len() != self.slots.len() {
            return Err(CarryError::SlotCountMismatch {
                expected: expected.len(),
                found: self.slots.len(),
            });
        }
        // One pass over the widths and one over the outgoing words; only
        // a state that fails either walks its slots to name the first bad
        // one.
        let widths_match = self.slots.iter().map(|s| s.width).eq(expected.iter().copied());
        if !widths_match || self.outgoing.iter().any(|&w| w != 0) {
            self.first_bad_slot(expected)?;
        }
        let found = self.seal_of();
        if found != self.seal {
            return Err(CarryError::ChecksumMismatch { expected: self.seal, found });
        }
        Ok(())
    }

    /// The first slot, in slot order, whose width is not `expected`'s or
    /// whose outgoing words are not zero.
    fn first_bad_slot(&self, expected: &[u32]) -> Result<(), CarryError> {
        for (slot, (s, &w)) in self.slots.iter().zip(expected).enumerate() {
            if s.width != w {
                return Err(CarryError::SlotWidthMismatch {
                    slot,
                    expected: w as usize,
                    found: s.width as usize,
                });
            }
            if self.outgoing[self.words(slot..slot + 1)].iter().any(|&w| w != 0) {
                return Err(CarryError::DirtyOutgoing { slot });
            }
        }
        Ok(())
    }

    /// Serializes the state into `out`: slot count, each slot's incoming
    /// carry (width + words), then the seal. Only the incoming side is
    /// written — at a window boundary the outgoing buffers are zero by
    /// contract ([`CarryState::validate`] enforces it), so they carry no
    /// information.
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend((self.slots.len() as u32).to_le_bytes());
        for (slot, s) in self.slots.iter().enumerate() {
            out.extend(u64::from(s.width).to_le_bytes());
            for &w in &self.incoming[self.words(slot..slot + 1)] {
                out.extend(w.to_le_bytes());
            }
        }
        out.extend(self.seal.to_le_bytes());
    }

    /// Parses a state previously written by [`CarryState::write_bytes`],
    /// advancing `reader` past the consumed bytes and re-verifying the
    /// seal over the parsed bits.
    ///
    /// The result is layout-agnostic; callers restoring a stream must
    /// still [`CarryState::validate`] it against the program it will run.
    ///
    /// # Errors
    ///
    /// [`CarryError::Malformed`] on truncated or implausible bytes,
    /// [`CarryError::ChecksumMismatch`] when the stored seal does not
    /// cover the stored bits.
    pub fn read_bytes(reader: &mut ByteReader<'_>) -> Result<CarryState, CarryError> {
        const TRUNCATED: CarryError = CarryError::Malformed { reason: "truncated" };
        const WIDE: CarryError = CarryError::Malformed { reason: "carry slot implausibly wide" };
        // Each slot record is at least its 8-byte width header, so the
        // bytes remaining bound how many slots can follow — a flipped
        // count byte must not drive `Vec::with_capacity` beyond what the
        // payload could encode.
        let n = reader
            .count(8)
            .ok_or(CarryError::Malformed { reason: "slot count truncated or exceeds payload" })?;
        let mut slots = Vec::with_capacity(n);
        let mut incoming = Vec::new();
        for _ in 0..n {
            let width = reader.u64().ok_or(TRUNCATED)?;
            // A slot's words must actually follow it: `width` bits is
            // `width/64` words of 8 bytes each, so a width wider than
            // the remaining bytes can encode is corruption. Bounding it
            // keeps a flipped length byte from forcing a huge allocation.
            if width > reader.remaining().saturating_mul(8) as u64 {
                return Err(WIDE);
            }
            let width = u32::try_from(width).map_err(|_| WIDE)?;
            let word = incoming.len() as u32;
            for _ in 0..width.div_ceil(64) {
                incoming.push(reader.u64().ok_or(TRUNCATED)?);
            }
            // Bits past the width are dead: clear them, as the seal
            // covers them cleared.
            if let (Some(last), tail @ 1..) = (incoming.last_mut(), width % 64) {
                *last &= (1 << tail) - 1;
            }
            slots.push(SlotShape { width, word });
        }
        let seal = reader.u64().ok_or(TRUNCATED)?;
        let state = CarryState { slots, outgoing: vec![0; incoming.len()], incoming, seal };
        let found = state.seal_of();
        if found != seal {
            return Err(CarryError::ChecksumMismatch { expected: seal, found });
        }
        Ok(state)
    }

    /// Fault-drill hook: flips one seed-selected bit of one slot's
    /// *outgoing* buffer, simulating mid-window carry corruption (the
    /// streaming analogue of the CTA emulator's `CorruptTrips`). A no-op
    /// when the state has no slots. Detected by the cross-check replay's
    /// carry comparison; never call it outside fault drills.
    pub fn corrupt_outgoing(&mut self, seed: u64) {
        if self.slots.is_empty() {
            return;
        }
        let s = self.slots[seed as usize % self.slots.len()];
        if s.width == 0 {
            return;
        }
        let bit = (seed >> 16) as usize % s.width as usize;
        self.outgoing[s.word as usize + bit / 64] ^= 1 << (bit % 64);
    }

    /// A copy with the same incoming carries and zeroed outgoing side —
    /// lets a reference interpreter replay the window for cross-checking
    /// without disturbing the live state.
    pub fn fork(&self) -> CarryState {
        let mut f = self.clone();
        f.discard_outgoing();
        f
    }

    /// Abandons the window in progress: zeroes the outgoing side, which
    /// is all a window ever writes, so the state is back at the boundary
    /// it entered the window with — incoming carries and seal untouched —
    /// without having kept a copy of it.
    pub fn discard_outgoing(&mut self) {
        self.outgoing.fill(0);
    }

    /// `true` if any incoming carry in `range` is pending. Guards use
    /// this to run a body whose condition is locally empty but which owes
    /// work to a marker that crossed the chunk boundary.
    pub fn pending(&self, range: Range<usize>) -> bool {
        self.incoming[self.words(range)].iter().any(|&w| w != 0)
    }

    /// Executes `Advance(src, k)` through slot `slot` into `out`: injects
    /// the incoming history into the vacated low positions and
    /// accumulates the outgoing history (the last `k` bits of the window,
    /// excluding the provisional peek position). Allocates nothing; `out`
    /// must not alias `src`.
    ///
    /// # Panics
    ///
    /// Panics if the slot width disagrees with `k` (wrong slot walk) or
    /// the window is empty.
    pub fn advance_through_into(
        &mut self,
        slot: usize,
        src: &BitStream,
        k: usize,
        out: &mut BitStream,
    ) {
        debug_assert_eq!(self.slots[slot].width as usize, k, "carry slot width mismatch");
        let words = self.words(slot..slot + 1);
        let incoming = &self.incoming[words.clone()];
        src.advance_with_carry_into(k, incoming, out);
        let consumed = src.len().checked_sub(1).expect("window must hold the peek position");
        src.or_history_tail(incoming, k, consumed, &mut self.outgoing[words]);
    }

    /// Executes `Add(a, b)` through slot `slot` into `out`: injects the
    /// incoming carry below bit 0 and accumulates the carry into the
    /// window boundary (the peek position) as carry-out. `out` must not
    /// alias either operand.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn add_through_into(
        &mut self,
        slot: usize,
        a: &BitStream,
        b: &BitStream,
        out: &mut BitStream,
    ) {
        let word = self.word_at(slot);
        let boundary = a.len().checked_sub(1).expect("window must hold the peek position");
        if a.add_with_carry_into(b, self.incoming[word] & 1 != 0, boundary, out) {
            self.outgoing[word] |= 1;
        }
    }

    /// FNV-1a over the incoming carries: slot count, then each slot's
    /// width and words, each as eight little-endian bytes. Stable across
    /// processes, which checkpoint serialization relies on. Hashed a word
    /// at a time ([`fnv1a_word`]): a word's high zero bytes cost one
    /// multiply together, so a one-bit slot costs a few multiplies, not
    /// sixteen.
    fn seal_of(&self) -> u64 {
        let mut h = fnv1a_word(FNV_OFFSET, self.slots.len() as u64);
        let mut words = self.incoming.iter();
        for s in &self.slots {
            h = fnv1a_word(h, u64::from(s.width));
            for &w in words.by_ref().take(s.width.div_ceil(64) as usize) {
                h = fnv1a_word(h, w);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv::fnv1a;
    use crate::lower::{lower, lower_group_with, LowerOptions};
    use bitgen_regex::parse;

    impl CarryState {
        fn advance_through(&mut self, slot: usize, src: &BitStream, k: usize) -> BitStream {
            let mut out = BitStream::default();
            self.advance_through_into(slot, src, k, &mut out);
            out
        }
    }

    #[test]
    fn slot_layout_counts_shifts_and_adds() {
        let prog = lower(&parse("a(bc)*d").unwrap());
        let state = CarryState::for_program(&prog);
        // Every Advance in the program gets a slot; the lone Retreat
        // (output normalisation) gets none.
        let mut advances = 0;
        prog.for_each_op(&mut |op| {
            if matches!(op, Op::Advance { .. } | Op::Add { .. }) {
                advances += 1;
            }
        });
        assert_eq!(state.slot_count(), advances);
        assert_eq!(CarryLayout::of(&prog).slot_count(), advances);
    }

    #[test]
    fn layout_spans_nested_bodies_and_the_walk_skips_them_whole() {
        use crate::program::{Op, Program, Stmt, StreamId};
        let s = StreamId;
        let prog = Program::new(
            vec![
                Stmt::Op(Op::Ones { dst: s(0) }),
                Stmt::Op(Op::Advance { dst: s(1), src: s(0), amount: 2 }),
                Stmt::While {
                    cond: s(1),
                    body: vec![
                        Stmt::Op(Op::Advance { dst: s(2), src: s(1), amount: 1 }),
                        Stmt::If {
                            cond: s(2),
                            body: vec![Stmt::Op(Op::Advance { dst: s(3), src: s(2), amount: 3 })],
                        },
                        Stmt::Op(Op::And { dst: s(1), a: s(1), b: s(2) }),
                    ],
                },
                Stmt::If {
                    cond: s(0),
                    body: vec![Stmt::Op(Op::Advance { dst: s(4), src: s(0), amount: 1 })],
                },
            ],
            5,
            vec![s(1)],
        );
        let layout = CarryLayout::of(&prog);
        assert_eq!(layout.widths, vec![2, 1, 3, 1]);
        let mut state = CarryState::for_layout(&layout);
        let mut walk = CarryWalk::new(&mut state, &layout);
        let mut out = BitStream::default();
        walk.advance_into(&BitStream::zeros(4), 2, &mut out);
        // Leaving the loop unvisited steps over its nested `if` as well:
        // the next guard met is the trailing top-level one.
        let (outer, pending) = walk.enter();
        assert_eq!((outer.slot_start, outer.slot_end, pending), (1, 3, false));
        walk.leave(&outer);
        assert_eq!(walk.slots_walked(), 3);
        let (last, _) = walk.enter();
        assert_eq!((last.slot_start, last.slot_end), (3, 4));
        walk.leave(&last);
        assert_eq!(walk.slots_walked(), layout.slot_count());
        // A trip through the loop meets the nested guard, and a rewind
        // meets it again.
        walk.rewind(&outer);
        walk.advance_into(&BitStream::zeros(4), 1, &mut out);
        let (inner, _) = walk.enter();
        assert_eq!((inner.slot_start, inner.slot_end), (2, 3));
        walk.rewind(&outer);
        walk.advance_into(&BitStream::zeros(4), 1, &mut out);
        assert_eq!(walk.enter().0, inner);
    }

    #[test]
    fn match_star_programs_have_add_slots() {
        let asts = vec![parse("a*b").unwrap()];
        let opts = LowerOptions { match_star: true, ..LowerOptions::default() };
        let prog = lower_group_with(&asts, opts);
        let state = CarryState::for_program(&prog);
        assert!(state.slot_count() > 0);
    }

    #[test]
    fn rotate_moves_outgoing_to_incoming() {
        let prog = lower(&parse("ab").unwrap());
        let mut state = CarryState::for_program(&prog);
        assert!(state.slot_count() > 0);
        let window = BitStream::from_positions(5, &[3]);
        let out = state.advance_through(0, &window, 1);
        assert_eq!(out.positions(), vec![4]);
        // Bit 3 is the last consumed position (4 is the peek), so the
        // outgoing history for a 1-bit slot is the bit at position 3.
        assert!(!state.pending(0..1));
        state.rotate();
        assert!(state.pending(0..1));
        let next = state.advance_through(0, &BitStream::zeros(5), 1);
        assert_eq!(next.positions(), vec![0]);
    }

    #[test]
    fn fork_keeps_incoming_only() {
        let prog = lower(&parse("ab").unwrap());
        let mut state = CarryState::for_program(&prog);
        let window = BitStream::from_positions(5, &[3]);
        state.advance_through(0, &window, 1);
        state.rotate();
        state.advance_through(0, &window, 1);
        let fork = state.fork();
        assert!(fork.pending(0..1));
        let mut replay = fork.clone();
        replay.advance_through(0, &window, 1);
        assert_eq!(replay, state);
    }

    #[test]
    fn discarding_the_outgoing_side_undoes_a_window() {
        let prog = lower(&parse("a(bc)*d").unwrap());
        let layout = CarryLayout::of(&prog);
        let mut state = CarryState::for_layout(&layout);
        let window = BitStream::from_positions(6, &[2, 4]);
        state.advance_through(0, &window, 1);
        state.rotate();
        let boundary = state.clone();
        // A window accumulates, a fault scribbles: both only ever land on
        // the outgoing side.
        state.advance_through(0, &window, 1);
        state.corrupt_outgoing(5);
        assert_ne!(state, boundary);
        state.discard_outgoing();
        assert_eq!(state, boundary);
        state.validate(&layout).unwrap();
    }

    #[test]
    fn validate_accepts_fresh_and_rotated_states() {
        let prog = lower(&parse("a(bc)*d").unwrap());
        let mut state = CarryState::for_program(&prog);
        state.validate(&CarryLayout::of(&prog)).unwrap();
        let window = BitStream::from_positions(6, &[2, 4]);
        state.advance_through(0, &window, 1);
        state.rotate();
        state.validate(&CarryLayout::of(&prog)).unwrap();
    }

    #[test]
    fn validate_rejects_foreign_layouts() {
        let a = lower(&parse("a(bc)*d").unwrap());
        let b = lower(&parse("x").unwrap());
        let state = CarryState::for_program(&a);
        assert!(matches!(
            state.validate(&CarryLayout::of(&b)),
            Err(CarryError::SlotCountMismatch { .. } | CarryError::SlotWidthMismatch { .. })
        ));
    }

    #[test]
    fn validate_rejects_dirty_outgoing() {
        let prog = lower(&parse("ab").unwrap());
        let mut state = CarryState::for_program(&prog);
        state.corrupt_outgoing(0);
        assert!(matches!(state.validate(&CarryLayout::of(&prog)), Err(CarryError::DirtyOutgoing { .. })));
    }

    #[test]
    fn bytes_round_trip_preserves_state_and_seal() {
        let prog = lower(&parse("a(bc)*d").unwrap());
        let mut state = CarryState::for_program(&prog);
        let window = BitStream::from_positions(9, &[1, 3, 7]);
        state.advance_through(0, &window, 1);
        state.rotate();
        let mut bytes = Vec::new();
        state.write_bytes(&mut bytes);
        let mut reader = ByteReader::new(&bytes);
        let back = CarryState::read_bytes(&mut reader).unwrap();
        assert_eq!(reader.remaining(), 0);
        assert_eq!(back, state);
        back.validate(&CarryLayout::of(&prog)).unwrap();
    }

    #[test]
    fn slots_across_word_edges_round_trip_and_seal_as_each_slot_hashed_alone() {
        use crate::program::{Op, Program, Stmt, StreamId};
        let widths = [1u32, 63, 64, 65, 130];
        let s = StreamId;
        let mut stmts = vec![Stmt::Op(Op::Ones { dst: s(0) })];
        for (i, &amount) in widths.iter().enumerate() {
            stmts.push(Stmt::Op(Op::Advance { dst: s(i as u32 + 1), src: s(0), amount }));
        }
        let prog = Program::new(stmts, widths.len() as u32 + 1, vec![s(1)]);
        let layout = CarryLayout::of(&prog);
        let mut state = CarryState::for_layout(&layout);
        let len = 200;
        let marks: Vec<usize> = (0..len).filter(|p| p % 7 == 0 || p % 11 == 3).collect();
        let window = BitStream::from_positions(len, &marks);
        for (slot, &k) in widths.iter().enumerate() {
            state.advance_through(slot, &window, k as usize);
        }
        state.rotate();
        state.validate(&layout).unwrap();

        // Each slot's carry, from its definition: the last `k` bits of
        // `k` zeros followed by the window's consumed positions.
        let consumed = len - 1;
        let histories: Vec<BitStream> = widths
            .iter()
            .map(|&k| {
                let k = k as usize;
                let bits: Vec<usize> =
                    (0..k).filter(|t| consumed + t >= k && window.get(consumed + t - k)).collect();
                BitStream::from_positions(k, &bits)
            })
            .collect();
        let fnv_word = |h, v: u64| fnv1a(h, &v.to_le_bytes());
        let mut seal = fnv_word(FNV_OFFSET, widths.len() as u64);
        let mut want = (widths.len() as u32).to_le_bytes().to_vec();
        for history in &histories {
            seal = fnv_word(seal, history.len() as u64);
            want.extend((history.len() as u64).to_le_bytes());
            for &w in history.as_words() {
                seal = fnv_word(seal, w);
                want.extend(w.to_le_bytes());
            }
        }
        want.extend(seal.to_le_bytes());
        assert_eq!(state.seal(), seal);

        let mut bytes = Vec::new();
        state.write_bytes(&mut bytes);
        assert_eq!(bytes, want);
        let back = CarryState::read_bytes(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!((back.seal(), &back), (seal, &state));
        back.validate(&layout).unwrap();
        // The next window reads each slot's carry back in.
        let mut resumed = back;
        for (slot, (&k, history)) in widths.iter().zip(&histories).enumerate() {
            let next = resumed.advance_through(slot, &BitStream::zeros(len), k as usize);
            let landed: Vec<usize> = history.positions().into_iter().filter(|&p| p < len).collect();
            assert_eq!(next.positions(), landed, "width {k}");
        }
    }

    #[test]
    fn the_word_step_seal_is_the_byte_wise_hash() {
        use crate::program::{Op, Program, Stmt, StreamId};
        let widths = [1u32, 63, 64, 65, 200];
        let s = StreamId;
        let mut stmts = vec![Stmt::Op(Op::Ones { dst: s(0) })];
        for (i, &amount) in widths.iter().enumerate() {
            stmts.push(Stmt::Op(Op::Advance { dst: s(i as u32 + 1), src: s(0), amount }));
        }
        let prog = Program::new(stmts, widths.len() as u32 + 1, vec![s(1)]);
        let mut state = CarryState::for_program(&prog);
        // Each word takes 0 to 8 significant bytes in turn, cut to its
        // slot's width; every round starts the turn one byte further on.
        for round in 0..9 {
            let mut turn = round;
            for (slot, &width) in widths.iter().enumerate() {
                let words = state.words(slot..slot + 1);
                for (i, at) in words.clone().enumerate() {
                    let bytes = turn % 9;
                    turn += 1;
                    let word = if bytes == 0 { 0 } else { u64::MAX >> (64 - 8 * bytes) };
                    let live = (width as usize - 64 * i).min(64);
                    state.incoming[at] = word & (u64::MAX >> (64 - live));
                }
            }
            let mut want = fnv1a(FNV_OFFSET, &(widths.len() as u64).to_le_bytes());
            for (slot, &width) in widths.iter().enumerate() {
                want = fnv1a(want, &u64::from(width).to_le_bytes());
                for &w in &state.incoming[state.words(slot..slot + 1)] {
                    want = fnv1a(want, &w.to_le_bytes());
                }
            }
            assert_eq!(state.seal_of(), want, "round {round}");
        }
    }

    #[test]
    fn tampered_bytes_are_rejected() {
        let prog = lower(&parse("a{2,}").unwrap());
        let mut state = CarryState::for_program(&prog);
        state.advance_through(0, &BitStream::from_positions(5, &[1]), 1);
        state.rotate();
        let mut bytes = Vec::new();
        state.write_bytes(&mut bytes);
        // Flip one bit in every byte position in turn: each parse must
        // fail with a typed error (never panic, never accept silently)
        // unless the flipped bit is semantically dead (a masked tail bit
        // of a partial word), in which case the parse may still succeed —
        // but must then decode to the identical state.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 1;
            if let Ok(parsed) = CarryState::read_bytes(&mut ByteReader::new(&bad)) {
                assert_eq!(parsed, state, "byte {i} flip changed state but was accepted");
            }
        }
        // Truncations fail typed too.
        for cut in 0..bytes.len() {
            assert!(CarryState::read_bytes(&mut ByteReader::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn corrupt_outgoing_diverges_from_clean_replay() {
        // The hook must actually corrupt something a fork-replay compare
        // can see — that is what the streaming CorruptTrips drill relies on.
        let prog = lower(&parse("ab").unwrap());
        let mut live = CarryState::for_program(&prog);
        let fork = live.fork();
        live.corrupt_outgoing(7);
        assert_ne!(live, fork);
    }

    #[test]
    #[should_panic(expected = "not streamable")]
    fn rejects_non_output_retreats() {
        use crate::program::{Op, Program, Stmt, StreamId};
        let prog = Program::new(
            vec![
                Stmt::Op(Op::Ones { dst: StreamId(0) }),
                Stmt::Op(Op::Retreat { dst: StreamId(1), src: StreamId(0), amount: 2 }),
            ],
            2,
            vec![StreamId(1)],
        );
        CarryState::for_program(&prog);
    }
}
