//! The one sequential machine: a statement walker over ⟨statements,
//! environment, carry walk⟩ (DESIGN.md §10, "Sequential semantics").
//!
//! [`walk`] is statically dispatched over *where the streams live* (a
//! [`StreamEnv`]) and over an [`Observer`] told about every op, condition
//! reduction, loop check and skipped body. The reference interpreter is the
//! instantiation with one buffer per stream id ([`ById`]) and an observer
//! that only counts each loop's trips, over the whole input or over one
//! CTA window ([`crate::walk_window`]); executors add their own
//! environments and observers, never their own walk.
//!
//! The small-step semantics is one statement, one stream. An environment
//! may name streams it does not want stored — a class stream it already
//! holds ([`StreamEnv::alias_cc`]), a value only the next statement reads
//! (a link, [`crate::SlotPlan::is_link`]) — and the walk then refines those
//! steps: the class is read in place, a chain of links and the statement
//! ending it run as one pass over the words. Where a pass begins and how
//! far it reaches was resolved with the plan ([`StreamEnv::pass_len`]),
//! so the walk reads it and does not search. The observer is told about
//! the same ops in the same order either way, and one that wants to see
//! values ([`Observer::inspects`]) gets every step taken singly.

use crate::carry::{CarryState, CarryWalk};
use crate::control::RunControl;
use crate::interp::InterpError;
use crate::program::{Op, Program, Stmt, StreamId};
use bitgen_bitstream::{compile_class, Basis, BitStream, ClassCircuit, FusedStage};
use bitgen_regex::ByteSet;

/// Where a sequential machine keeps its streams.
pub trait StreamEnv {
    /// Stream `id`, `None` if nothing has written it.
    fn get(&self, id: StreamId) -> Option<&BitStream>;

    /// The buffer `op`'s value is computed into: any length, any bits.
    fn out(&mut self, op: &Op) -> BitStream;

    /// `class` matched against `basis` into `out`, which the machine sized
    /// to the window (any position past `basis` clear); returns the
    /// circuit's gate count.
    fn match_cc(&mut self, class: &ByteSet, basis: &Basis, out: &mut BitStream) -> usize;

    /// Stores `value` as stream `id`; `false` if the environment has no
    /// place for it.
    fn commit(&mut self, id: StreamId, value: BitStream) -> bool;

    /// Takes back a buffer from [`StreamEnv::out`] whose value the
    /// observer dropped.
    fn discard(&mut self, _value: BitStream) {}

    /// `dst = match(class)` without computing anything, for an
    /// environment that already holds that class's stream over this
    /// window where reads of `dst` will find it: `dst` counts as written
    /// from here on. Returns the class circuit's gate count, `None` to
    /// have the value computed and committed like any other.
    fn alias_cc(&mut self, _dst: StreamId) -> Option<usize> {
        None
    }

    /// How many statements after the one writing `head` run in one pass
    /// with it ([`crate::SlotPlan::pass_len`]): `0` unless `head` is a
    /// link whose value may stay inside the pass that also runs its
    /// reader, and the readers after it that are links in turn.
    fn pass_len(&self, _head: StreamId) -> usize {
        0
    }

    /// Link `id` was computed and consumed inside one pass: it counts as
    /// written, and nothing was stored.
    fn elide(&mut self, _id: StreamId) {}
}

/// What a sequential machine reports while it runs. Every hook defaults
/// to nothing.
pub trait Observer {
    /// Whether [`Observer::value`] wants to see every value. The machine
    /// then takes every statement singly and materialises each value,
    /// class streams and links included.
    fn inspects(&self) -> bool {
        false
    }

    /// `op` ran (`gates` is its circuit's gate count for a `MatchCc`, zero
    /// otherwise). Told once per executed op, in program order, however
    /// the machine got its value.
    fn op(&mut self, _op: &Op, _gates: usize) {}

    /// Only when [`Observer::inspects`]: `op` computed `value` and is
    /// about to store it; `carry` is the window's carry state when
    /// streaming. `false` drops the store.
    fn value(
        &mut self,
        _op: &Op,
        _value: &mut BitStream,
        _carry: Option<&mut CarryState>,
    ) -> bool {
        true
    }

    /// Whether the value of the last op told was stored where its readers
    /// look: the environment had a place for it, or it was an alias or a
    /// link and needed none.
    fn stored(&mut self, _committed: bool) {}

    /// An `if`/`while` condition was reduced to a bit.
    fn reduction(&mut self) {}

    /// The condition of the `while` loop at dynamic site `site` is about
    /// to be reduced, and `cond` is its stream: once per check, the last
    /// (empty) one included. Sites are numbered in pre-order over the
    /// `while`s and `Add`s of the statements walked, skipped bodies and
    /// loops that take no trip included ([`Stmt::site_count`]) — the
    /// numbering of the overlap analysis and of the kernels.
    fn loop_check(&mut self, _site: usize, _cond: &BitStream) {}

    /// An `if` skipped `body`.
    fn skipped(&mut self, _body: &[Stmt]) {}
}

/// One buffer per stream id, and each distinct class compiled once where
/// it is first met: the reference interpreter's environment, and what a
/// batch executor keeps the streams that cross its segments in.
#[derive(Debug, Clone, Default)]
pub struct ById {
    vars: Vec<Option<BitStream>>,
    /// Sorted by class; each with the gate count of its tree
    /// ([`compile_class`]), what a `MatchCc` charges.
    circuits: Vec<(ByteSet, ClassCircuit, usize)>,
}

impl ById {
    /// Forgets every stream and makes room for ids below `num_streams`.
    /// Compiled classes are kept: they do not depend on the program.
    pub fn reset(&mut self, num_streams: usize) {
        self.vars.clear();
        self.vars.resize(num_streams, None);
    }

    /// The streams written so far.
    pub fn resident(&self) -> impl Iterator<Item = &BitStream> {
        self.vars.iter().flatten()
    }

    /// Moves every stream out.
    pub fn drain(&mut self) -> impl Iterator<Item = BitStream> + '_ {
        self.vars.drain(..).flatten()
    }
}

impl StreamEnv for ById {
    fn get(&self, id: StreamId) -> Option<&BitStream> {
        self.vars.get(id.index())?.as_ref()
    }

    fn out(&mut self, op: &Op) -> BitStream {
        // Loop trips rewrite the same destinations over and over, so the
        // destination's previous buffer is recycled unless the op also
        // reads it.
        let dst = op.dst();
        let reads_dst = match op {
            Op::And { a, b, .. }
            | Op::Or { a, b, .. }
            | Op::Xor { a, b, .. }
            | Op::Add { a, b, .. } => *a == dst || *b == dst,
            Op::Not { src, .. }
            | Op::Advance { src, .. }
            | Op::Retreat { src, .. }
            | Op::Assign { src, .. } => *src == dst,
            Op::MatchCc { .. } | Op::Zero { .. } | Op::Ones { .. } => false,
        };
        if reads_dst { None } else { self.vars[dst.index()].take() }.unwrap_or_default()
    }

    fn match_cc(&mut self, class: &ByteSet, basis: &Basis, out: &mut BitStream) -> usize {
        let at = match self.circuits.binary_search_by(|(c, ..)| c.cmp(class)) {
            Ok(at) => at,
            Err(at) => {
                let circuit = ClassCircuit::for_classes(std::slice::from_ref(class));
                self.circuits.insert(at, (*class, circuit, compile_class(class).gate_count()));
                at
            }
        };
        // Evaluated straight into the window-length stream: the circuit
        // runs word-group at a time with no per-node temporaries, and the
        // peek position stays clear.
        let (_, circuit, gates) = &self.circuits[at];
        circuit.eval_into(basis, std::slice::from_mut(out));
        *gates
    }

    fn commit(&mut self, id: StreamId, value: BitStream) -> bool {
        self.vars[id.index()] = Some(value);
        true
    }
}

/// Whether `reader`, reading `op`'s value, can run in one pass with it:
/// an `&` feeding a `>>`, or a `>>` feeding a `>>` or an `&`, every shift
/// by less than a word — the shape of a literal, `((c & a) >> 1 & b) >> 1`.
pub(crate) fn fuses(op: &Op, reader: &Op) -> bool {
    let within_a_word = |amount: u32| (1..64).contains(&amount);
    let value = op.dst();
    match (op, reader) {
        (Op::And { .. }, Op::Advance { src, amount, .. }) => {
            *src == value && within_a_word(*amount)
        }
        (Op::Advance { amount: by, .. }, Op::Advance { src, amount, .. }) => {
            *src == value && within_a_word(*by) && within_a_word(*amount)
        }
        (Op::Advance { amount: by, .. }, Op::And { a, b, .. }) => {
            (*a == value) != (*b == value) && within_a_word(*by)
        }
        _ => false,
    }
}

/// What a finished [`walk`] counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Walked {
    /// Carry slots consumed; the layout's slot count after a clean window.
    pub carry_slots: usize,
}

/// Runs `stmts` over `basis` in `env`, reporting to `observer`.
///
/// All streams span [`Program::stream_len`]`(basis.len())` positions.
/// `ctl` is polled once per executed statement or fused chain of them —
/// each processes a whole stream, so the poll is amortised over kilobytes
/// of work while cancellation still lands promptly. With `carry: Some(..)` this is one
/// streaming window: shifts and additions read and accumulate cross-chunk
/// carries, and a body with a pending carry runs even when its condition
/// is locally empty.
///
/// # Errors
///
/// An interruption from `ctl`, a read of a stream nothing wrote, or a
/// `while` loop past its fixpoint bound.
pub fn walk<E: StreamEnv, O: Observer>(
    stmts: &[Stmt],
    env: &mut E,
    observer: &mut O,
    basis: &Basis,
    ctl: &RunControl,
    carry: Option<CarryWalk<'_>>,
) -> Result<Walked, InterpError> {
    let len = Program::stream_len(basis.len());
    walk_over(stmts, env, observer, basis, len, ctl, carry)
}

/// [`walk`] with every stream `len` positions long, whatever `basis`
/// spans: a CTA window has no sentinel position ([`crate::walk_window`]).
pub(crate) fn walk_over<E: StreamEnv, O: Observer>(
    stmts: &[Stmt],
    env: &mut E,
    observer: &mut O,
    basis: &Basis,
    len: usize,
    ctl: &RunControl,
    carry: Option<CarryWalk<'_>>,
) -> Result<Walked, InterpError> {
    let single = observer.inspects();
    let mut machine = Machine { env, observer, basis, len, ctl, carry, single };
    machine.run(stmts, 0)?;
    Ok(Walked { carry_slots: machine.carry.as_ref().map_or(0, CarryWalk::slots_walked) })
}

struct Machine<'a, E, O> {
    env: &'a mut E,
    observer: &'a mut O,
    basis: &'a Basis,
    len: usize,
    ctl: &'a RunControl,
    carry: Option<CarryWalk<'a>>,
    /// Every statement is its own step and every value is materialised.
    single: bool,
}

/// Advances one fused pass carries at most; a longer chain of links is
/// cut into several passes, the value between two of them stored.
pub(crate) const MAX_STAGES: usize = 16;

impl<E: StreamEnv, O: Observer> Machine<'_, E, O> {
    /// Runs `stmts`, whose first dynamic site is `site`; returns the site
    /// after them.
    fn run(&mut self, stmts: &[Stmt], mut site: usize) -> Result<usize, InterpError> {
        let mut rest = stmts;
        while let Some((stmt, after)) = rest.split_first() {
            if !self.ctl.is_unlimited() {
                self.ctl.check()?;
            }
            let chain = rest;
            rest = after;
            match stmt {
                // A chain of links is `&`s and `>>`s: no `Add` among them.
                Stmt::Op(op) => match self.links(op, after) {
                    0 => {
                        site += usize::from(matches!(op, Op::Add { .. }));
                        self.exec(op)?;
                    }
                    links => {
                        self.exec_fused(&chain[..=links])?;
                        rest = &after[links..];
                    }
                },
                Stmt::If { cond, body } => {
                    // A pending carry inside the body means a marker
                    // crossed the chunk boundary: the body must run even
                    // if the guard is locally empty. Skipping leaves the
                    // body's outgoing carries zero, which is exactly the
                    // no-marker semantics.
                    let entered = self.carry.as_mut().map(CarryWalk::enter);
                    if self.any(*cond, None)? || entered.is_some_and(|(_, pending)| pending) {
                        site = self.run(body, site)?;
                    } else {
                        if let (Some(walk), Some((span, _))) = (&mut self.carry, entered) {
                            walk.leave(&span);
                        }
                        self.observer.skipped(body);
                        site += Stmt::site_count(body);
                    }
                }
                Stmt::While { cond, body } => {
                    // Defend against non-terminating programs from bad
                    // transforms: a marker fixpoint can never need more
                    // trips than there are positions (plus one forced
                    // trip when a cross-chunk carry is pending).
                    let entered = self.carry.as_mut().map(CarryWalk::enter);
                    let mut force = entered.is_some_and(|(_, pending)| pending);
                    let mut fuel = self.len + 2 + usize::from(force);
                    let (this, mut end) = (site, None);
                    loop {
                        if let (Some(walk), Some((span, _))) = (&mut self.carry, entered) {
                            walk.rewind(&span);
                        }
                        if !(self.any(*cond, Some(this))? || force) {
                            break;
                        }
                        force = false;
                        if fuel == 0 {
                            return Err(InterpError::FixpointDiverged);
                        }
                        fuel -= 1;
                        end = Some(self.run(body, this + 1)?);
                    }
                    if let (Some(walk), Some((span, _))) = (&mut self.carry, entered) {
                        walk.leave(&span);
                    }
                    site = end.unwrap_or_else(|| this + 1 + Stmt::site_count(body));
                }
            }
        }
        Ok(site)
    }

    /// How many of the statements `after` `head` run in one pass with it:
    /// the pass the environment resolved, provided each of its statements
    /// fuses with the one before and it carries at most [`MAX_STAGES`]
    /// advances — else none, and `head` runs singly.
    fn links(&self, head: &Op, after: &[Stmt]) -> usize {
        let links = if self.single { 0 } else { self.env.pass_len(head.dst()) };
        let Some(readers) = after.get(..links) else { return 0 };
        let advances = |op: &Op| usize::from(matches!(op, Op::Advance { .. }));
        let (mut op, mut stages) = (head, advances(head));
        for reader in readers {
            match reader {
                Stmt::Op(reader) if fuses(op, reader) => {
                    stages += advances(reader);
                    op = reader;
                }
                _ => return 0,
            }
        }
        if stages > MAX_STAGES {
            return 0;
        }
        links
    }

    /// Reduces condition `cond` to a bit; that of the `while` at `site`
    /// is shown to the observer first.
    fn any(&mut self, cond: StreamId, site: Option<usize>) -> Result<bool, InterpError> {
        self.observer.reduction();
        let stream = self.env.get(cond).ok_or(InterpError::UnwrittenStream { id: cond })?;
        if let Some(site) = site {
            self.observer.loop_check(site, stream);
        }
        Ok(stream.any())
    }

    /// A chain of links and the statement that ends it as one pass: every
    /// `&` and `>>` of the chain applied to a few words of the first
    /// operand at a time, carries read and accumulated through the slots a
    /// step-by-step walk would use, and only the last value stored.
    fn exec_fused(&mut self, chain: &[Stmt]) -> Result<(), InterpError> {
        let ops = || {
            chain.iter().map(|stmt| match stmt {
                Stmt::Op(op) => op,
                _ => unreachable!("a link and its reader are instructions"),
            })
        };
        let (head, last) = match (ops().next(), ops().next_back()) {
            (Some(head), Some(last)) => (head, last),
            _ => unreachable!("a chain is two statements or more"),
        };
        let mut out = self.env.out(last);
        let env = &*self.env;
        let get = |id: StreamId| env.get(id).ok_or(InterpError::UnwrittenStream { id });
        // The head brings the first operand; every later `&` brings the
        // operand that is not the link, which waits for the `>>` it feeds.
        let (first, mut and) = match *head {
            Op::And { a, b, .. } => (get(a)?, Some(get(b)?)),
            Op::Advance { src, .. } => (get(src)?, None),
            _ => unreachable!("links are `&` and `>>`"),
        };
        let mut stages = [FusedStage::IDLE; MAX_STAGES];
        let mut staged = 0;
        let mut link = head.dst();
        for (i, op) in ops().enumerate() {
            match *op {
                Op::And { a, b, .. } if i > 0 => and = Some(get(if a == link { b } else { a })?),
                Op::And { .. } => {}
                Op::Advance { amount, .. } => {
                    let history = self.carry.as_mut().map_or(0, |walk| walk.fused_in(amount));
                    stages[staged] = FusedStage::new(and.take(), amount, history);
                    staged += 1;
                }
                _ => unreachable!("links are `&` and `>>`"),
            }
            link = op.dst();
        }
        first.fused_into(&mut stages[..staged], and, &mut out);
        if let Some(walk) = &mut self.carry {
            walk.fused_out(&stages[..staged], self.len);
        }
        // The observer hears every op in order; a link was stored where
        // its one reader looked, inside the pass.
        for op in ops().take(chain.len() - 1) {
            self.observer.op(op, 0);
            self.env.elide(op.dst());
            self.observer.stored(true);
        }
        self.observer.op(last, 0);
        let committed = self.env.commit(last.dst(), out);
        self.observer.stored(committed);
        Ok(())
    }

    fn exec(&mut self, op: &Op) -> Result<(), InterpError> {
        if let (false, Op::MatchCc { dst, .. }) = (self.single, op) {
            if let Some(gates) = self.env.alias_cc(*dst) {
                self.observer.op(op, gates);
                self.observer.stored(true);
                return Ok(());
            }
        }
        // The value is computed into a buffer of the environment's and
        // stored only once the observer lets it through.
        let mut out = self.env.out(op);
        let mut gates = 0;
        let env = &*self.env;
        let get = |id: StreamId| env.get(id).ok_or(InterpError::UnwrittenStream { id });
        match op {
            Op::MatchCc { class, .. } => {
                if out.len() != self.len {
                    out.reset_zeros(self.len);
                }
                gates = self.env.match_cc(class, self.basis, &mut out);
            }
            Op::And { a, b, .. } => get(*a)?.and_into(get(*b)?, &mut out),
            Op::Or { a, b, .. } => get(*a)?.or_into(get(*b)?, &mut out),
            Op::Xor { a, b, .. } => get(*a)?.xor_into(get(*b)?, &mut out),
            Op::Add { a, b, .. } => match &mut self.carry {
                Some(walk) => walk.add_into(get(*a)?, get(*b)?, &mut out),
                None => get(*a)?.add_into(get(*b)?, &mut out),
            },
            Op::Not { src, .. } => get(*src)?.not_into(&mut out),
            Op::Advance { src, amount, .. } => match &mut self.carry {
                Some(walk) => walk.advance_into(get(*src)?, *amount as usize, &mut out),
                None => get(*src)?.advance_into(*amount as usize, &mut out),
            },
            Op::Retreat { src, amount, .. } => get(*src)?.retreat_into(*amount as usize, &mut out),
            Op::Assign { src, .. } => out.copy_from(get(*src)?),
            Op::Zero { .. } => out.reset_zeros(self.len),
            Op::Ones { .. } => out.reset_ones(self.len),
        }
        self.observer.op(op, gates);
        let carry = self.carry.as_mut().map(CarryWalk::state_mut);
        if !self.single || self.observer.value(op, &mut out, carry) {
            let committed = self.env.commit(op.dst(), out);
            self.observer.stored(committed);
        } else {
            self.env.discard(out);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgramBuilder;

    /// Every loop check a walk reports: the site, and whether the
    /// condition had a set bit.
    #[derive(Default)]
    struct Checks(Vec<(usize, bool)>);

    impl Observer for Checks {
        fn loop_check(&mut self, site: usize, cond: &BitStream) {
            self.0.push((site, cond.any()));
        }
    }

    #[test]
    fn loop_checks_carry_pre_order_sites_past_skipped_bodies_and_zero_trip_loops() {
        let mut b = ProgramBuilder::new();
        let a = b.match_cc(ByteSet::singleton(b'a'));
        let bs = b.match_cc(ByteSet::singleton(b'b'));
        let none = b.zero();
        b.add(a, bs); // site 0
        b.if_block(none, |b| {
            b.while_loop(none, |_| {}); // site 1, in a skipped body
            b.add(a, a); // site 2
        });
        b.while_loop(none, |b| {
            // Site 3 takes no trip: its body's sites 4 and 5 never run.
            b.add(a, a);
            b.while_loop(none, |_| {});
        });
        let marker = b.assign_new(a);
        b.while_loop(marker, |b| {
            // Site 6: one trip per `b` after the `a`; site 7 one per trip.
            let inner = b.assign_new(marker);
            b.while_loop(inner, |b| {
                let zero = b.zero();
                b.assign_to(inner, zero);
            });
            let next = b.advance(marker, 1);
            b.and_into(marker, next, bs);
        });
        b.mark_output(marker);
        let program = b.finish();
        assert_eq!(Stmt::site_count(program.stmts()), 8);
        let mut env = ById::default();
        env.reset(program.num_streams() as usize);
        let mut checks = Checks::default();
        let basis = Basis::transpose(b"ab");
        walk(program.stmts(), &mut env, &mut checks, &basis, &RunControl::unlimited(), None)
            .unwrap();
        let trip = [(7, true), (7, false)];
        let want = [[(3, false), (6, true)].as_slice(), &trip, &[(6, true)], &trip, &[(6, false)]];
        assert_eq!(checks.0, want.concat());
    }
}
