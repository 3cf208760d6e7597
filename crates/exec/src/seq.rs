//! What this crate adds to the one sequential machine
//! ([`bitgen_ir::walk`]): the stream-plan environment a streaming window
//! runs in, and the observer that charges the modelled clock, fires armed
//! faults, tallies stores and hands loop checks on to a record. Batch
//! sequential segments run in the interpreter's own [`bitgen_ir::ById`]
//! environment under the same observer.

use crate::engine::ExecConfig;
use crate::prepared::ClassTable;
use bitgen_bitstream::{Basis, BitStream};
use bitgen_gpu::{CtaCounters, FaultKind, FaultPlan};
use bitgen_ir::{ByteSet, CarryState, Observer, Op, Place, SlotPlan, Stmt, StreamEnv, StreamId};
use bitgen_kernel::WORD_BITS;

/// A streaming window's streams where its program's stream plan puts
/// them (DESIGN.md §10, "Stream plan"): in a slot buffer, or — a class
/// alias — in the caller's class streams.
pub(crate) struct Slots<'a> {
    pub(crate) plan: &'a SlotPlan,
    /// One buffer per slot (at least `plan.slot_count()`).
    pub(crate) bufs: &'a mut [BitStream],
    /// The buffer the next instruction computes into; committing swaps it
    /// with the destination's slot, so an instruction may read its own
    /// destination and a dropped store leaves the slot as it was.
    pub(crate) spare: &'a mut BitStream,
    /// One bit per stream id, set once this window has written it: a slot
    /// may still hold another stream's bits from before.
    pub(crate) written: &'a mut [u64],
    pub(crate) table: &'a ClassTable,
    /// `table`'s classes evaluated over this window, shared with the
    /// caller's other windows over the same chunk and with every retry of
    /// this one: never written here.
    pub(crate) classes: &'a [BitStream],
    /// Class aliases whose value an inspecting observer changed: their
    /// private copies, so that the shared stream stays what the circuit
    /// computed. Empty unless a fault fired on a `MatchCc`.
    pub(crate) private: &'a mut Vec<(StreamId, BitStream)>,
    /// The link whose value the plan's link slot holds, if any: a link a
    /// fused pass consumed was never stored, and reads as unwritten.
    pub(crate) linked: Option<StreamId>,
}

pub(crate) fn is_written(written: &[u64], id: StreamId) -> bool {
    written.get(id.index() >> 6).is_some_and(|w| w >> (id.index() & 63) & 1 == 1)
}

impl Slots<'_> {
    fn mark_written(&mut self, id: StreamId) {
        self.written[id.index() >> 6] |= 1 << (id.index() & 63);
    }
}

impl StreamEnv for Slots<'_> {
    fn get(&self, id: StreamId) -> Option<&BitStream> {
        match self.plan.place(id).filter(|_| is_written(self.written, id))? {
            Place::Link(_) if self.linked != Some(id) => None,
            Place::Slot(slot) | Place::Link(slot) => Some(&self.bufs[slot]),
            Place::Class(class) => Some(
                (self.private.iter().find(|(changed, _)| *changed == id))
                    .map_or(&self.classes[class], |(_, copy)| copy),
            ),
        }
    }

    fn out(&mut self, _op: &Op) -> BitStream {
        std::mem::take(self.spare)
    }

    /// Every class of the program is in the table it was prepared with.
    fn match_cc(&mut self, class: &ByteSet, _basis: &Basis, out: &mut BitStream) -> usize {
        let (i, gates) = self.table.find(class).expect("a class of the window's program");
        out.copy_from(&self.classes[i]);
        gates
    }

    /// `false` if the plan has no place for `id` — it has one for every
    /// destination of its program, so the store is reported lost rather
    /// than trusted.
    fn commit(&mut self, id: StreamId, value: BitStream) -> bool {
        match self.plan.place(id) {
            None => return false,
            Some(Place::Slot(slot)) => *self.spare = std::mem::replace(&mut self.bufs[slot], value),
            Some(Place::Link(slot)) => {
                *self.spare = std::mem::replace(&mut self.bufs[slot], value);
                self.linked = Some(id);
            }
            // Only a machine that shows values to its observer computes a
            // class alias: what comes back is the shared stream, unless
            // the observer changed it.
            Some(Place::Class(class)) => {
                self.private.retain(|(changed, _)| *changed != id);
                if value == self.classes[class] {
                    *self.spare = value;
                } else {
                    self.private.push((id, value));
                }
            }
        }
        self.mark_written(id);
        true
    }

    fn discard(&mut self, value: BitStream) {
        *self.spare = value;
    }

    fn alias_cc(&mut self, dst: StreamId) -> Option<usize> {
        let Some(Place::Class(class)) = self.plan.place(dst) else { return None };
        self.mark_written(dst);
        Some(self.table.gates(class))
    }

    fn pass_len(&self, head: StreamId) -> usize {
        self.plan.pass_len(head)
    }

    fn elide(&mut self, id: StreamId) {
        self.mark_written(id);
    }
}

/// Deterministic fault injection for streaming windows — the counterpart
/// of the CTA emulator's `arm_fault`. The plan's `trigger` counts
/// *executed ops* (loop trips re-count their bodies, so the firing point
/// is deterministic for a given program and chunk; an armed window takes
/// every op singly, so the count does not depend on what an unarmed one
/// would have fused) and each kind maps onto this path's failure surface:
///
/// - `SmemFlip`: flips one seed-selected bit of the op's computed value
///   (caught by cross-check, or masked if the bit is dead);
/// - `SkipBarrier`: drops the op's write — a lost store (caught by the
///   always-on store-count invariant as `ExecError::StoreElided`);
/// - `CorruptTrips`: flips a bit in a carry slot's *outgoing* buffer via
///   [`CarryState::corrupt_outgoing`] (caught by the cross-check carry
///   replay as `ExecError::CarryDiverged`);
/// - `CorruptCounter`: inflates the slot-walk count reported after the
///   window (caught by the always-on walk invariant);
/// - `Panic`: panics mid-window (isolated by the caller's `catch_unwind`).
pub(crate) struct StreamFault {
    plan: FaultPlan,
    ops_seen: u32,
    pub(crate) fired: bool,
    /// `CorruptCounter`: added to the observed slot-walk count.
    pub(crate) counter_bump: u64,
}

/// The executor's observer: per instruction, its [`sequential_charge`]
/// over the whole stream, an armed fault, and the lost-store tally.
pub(crate) struct Accounting<'a> {
    counters: &'a mut CtaCounters,
    /// Block iterations per full pass.
    passes: u64,
    /// 32-bit words per full stream.
    words: u64,
    /// Streaming windows only; batch sequential segments run their drills
    /// through the CTA emulator instead.
    pub(crate) fault: Option<StreamFault>,
    /// Instructions issued, paired with `stored` for the streaming
    /// lost-store invariant.
    pub(crate) issued: u64,
    /// Stores the environment committed.
    pub(crate) stored: u64,
    pub(crate) frontiers: Option<&'a mut bitgen_ir::Frontiers>,
}

impl<'a> Accounting<'a> {
    pub(crate) fn new(
        counters: &'a mut CtaCounters,
        stream_len: usize,
        config: &ExecConfig,
        fault: Option<FaultPlan>,
    ) -> Accounting<'a> {
        Accounting {
            counters,
            passes: stream_len.div_ceil(config.window_bits()) as u64,
            words: stream_len.div_ceil(WORD_BITS) as u64,
            fault: fault
                .map(|plan| StreamFault { plan, ops_seen: 0, fired: false, counter_bump: 0 }),
            issued: 0,
            stored: 0,
            frontiers: None,
        }
    }
}

impl Observer for Accounting<'_> {
    /// An armed fault counts and corrupts single steps.
    fn inspects(&self) -> bool {
        self.fault.is_some()
    }

    fn op(&mut self, op: &Op, gates: usize) {
        let (alu, loads) = sequential_charge(op, gates);
        let c = &mut *self.counters;
        c.alu_ops += alu * self.passes;
        c.global_load_words += loads * self.words;
        c.global_store_words += self.words;
        // One barrier between consecutive instruction loops (Fig. 5b).
        c.barriers += 1;
        self.issued += 1;
    }

    fn value(&mut self, _op: &Op, value: &mut BitStream, carry: Option<&mut CarryState>) -> bool {
        let Some(fault) = self.fault.as_mut().filter(|f| !f.fired) else { return true };
        fault.ops_seen += 1;
        if fault.ops_seen < fault.plan.trigger.max(1) {
            return true;
        }
        fault.fired = true;
        match (fault.plan.kind, carry) {
            (FaultKind::Panic, _) => panic!("injected fault: streaming window panic"),
            // A lost store: the destination simply never gets this
            // window's value.
            (FaultKind::SkipBarrier, _) => return false,
            (FaultKind::CorruptTrips, Some(carry)) => carry.corrupt_outgoing(fault.plan.seed),
            (FaultKind::SmemFlip | FaultKind::CorruptTrips, _) => {
                flip_bit(value, fault.plan.seed)
            }
            (FaultKind::CorruptCounter, _) => fault.counter_bump = 1 + fault.plan.seed % 3,
        }
        true
    }

    fn stored(&mut self, committed: bool) {
        self.stored += u64::from(committed);
    }

    fn reduction(&mut self) {
        self.counters.reductions += 1;
    }

    fn loop_check(&mut self, site: usize, cond: &BitStream) {
        self.frontiers.iter_mut().for_each(|frontiers| frontiers.record(site, cond));
    }

    fn skipped(&mut self, body: &[Stmt]) {
        self.counters.skipped_ops += Stmt::op_count(body) as u64 * self.passes;
    }
}

/// What sequential blockwise execution (Fig. 1a / Fig. 5: one loop per
/// instruction, shifts loading two adjacent blocks) charges an instruction
/// whose class circuit has `gates` gates: ALU issues per block pass and
/// words loaded per stream word. Each also stores a word per stream word
/// and costs a barrier: every value is materialised, whatever the host did.
pub fn sequential_charge(op: &Op, gates: usize) -> (u64, u64) {
    match op {
        Op::MatchCc { .. } => (gates as u64, 8),
        Op::And { .. }
        | Op::Or { .. }
        | Op::Add { .. }
        | Op::Xor { .. }
        | Op::Advance { .. }
        | Op::Retreat { .. } => (1, 2),
        Op::Not { .. } | Op::Assign { .. } => (1, 1),
        Op::Zero { .. } | Op::Ones { .. } => (1, 0),
    }
}

/// Flips one seed-selected bit of `value` (no-op on empty streams) —
/// the bit-corruption primitive shared by the streaming fault kinds.
fn flip_bit(value: &mut BitStream, seed: u64) {
    if !value.is_empty() {
        let bit = seed as usize % value.len();
        value.set(bit, !value.get(bit));
    }
}
