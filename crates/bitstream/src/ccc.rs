//! The character-class compiler.
//!
//! Turns a [`ByteSet`] into a boolean circuit over the eight basis
//! bitstreams (Fig. 2a of the paper). Single bytes become an 8-way AND of
//! basis literals; ranges become comparison circuits built by recursing over
//! the bits from most significant to least; arbitrary sets become the OR of
//! their maximal ranges (or the negation of the complement's circuit when
//! that is smaller).

use crate::stream::BitStream;
use crate::transpose::{Basis, BASIS_COUNT};
use crate::wide::{self, LANES};
use bitgen_regex::ByteSet;
use std::collections::HashMap;
use std::fmt;

/// A boolean circuit over the basis bitstreams.
///
/// Evaluating the circuit position-wise over the transposed input yields the
/// character-class bitstream `S_cc`.
///
/// # Examples
///
/// ```
/// use bitgen_bitstream::{compile_class, Basis};
/// use bitgen_regex::ByteSet;
///
/// let circuit = compile_class(&ByteSet::range(b'a', b'z'));
/// let basis = Basis::transpose(b"abz{");
/// let s = circuit.eval(&basis);
/// assert_eq!(s.positions(), vec![0, 1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CcExpr {
    /// A constant bit, the same at every position.
    Const(bool),
    /// The *k*-th basis stream (`k < 8`), `b_0` = most significant bit.
    Basis(u8),
    /// Logical negation.
    Not(Box<CcExpr>),
    /// Logical conjunction.
    And(Box<CcExpr>, Box<CcExpr>),
    /// Logical disjunction.
    Or(Box<CcExpr>, Box<CcExpr>),
}

impl CcExpr {
    /// Smart constructor: negation with constant folding and involution.
    #[allow(clippy::should_implement_trait)] // static ctor, not an operator
    pub fn not(e: CcExpr) -> CcExpr {
        match e {
            CcExpr::Const(b) => CcExpr::Const(!b),
            CcExpr::Not(inner) => *inner,
            other => CcExpr::Not(Box::new(other)),
        }
    }

    /// Smart constructor: conjunction with constant folding.
    pub fn and(a: CcExpr, b: CcExpr) -> CcExpr {
        match (a, b) {
            (CcExpr::Const(false), _) | (_, CcExpr::Const(false)) => CcExpr::Const(false),
            (CcExpr::Const(true), x) | (x, CcExpr::Const(true)) => x,
            (x, y) => CcExpr::And(Box::new(x), Box::new(y)),
        }
    }

    /// Smart constructor: disjunction with constant folding.
    pub fn or(a: CcExpr, b: CcExpr) -> CcExpr {
        match (a, b) {
            (CcExpr::Const(true), _) | (_, CcExpr::Const(true)) => CcExpr::Const(true),
            (CcExpr::Const(false), x) | (x, CcExpr::Const(false)) => x,
            (x, y) => CcExpr::Or(Box::new(x), Box::new(y)),
        }
    }

    /// Evaluates the circuit for a single byte value.
    pub fn eval_byte(&self, byte: u8) -> bool {
        match self {
            CcExpr::Const(b) => *b,
            CcExpr::Basis(k) => byte >> (7 - k) & 1 == 1,
            CcExpr::Not(e) => !e.eval_byte(byte),
            CcExpr::And(a, b) => a.eval_byte(byte) && b.eval_byte(byte),
            CcExpr::Or(a, b) => a.eval_byte(byte) || b.eval_byte(byte),
        }
    }

    /// Evaluates the circuit position-wise over transposed input, producing
    /// the character-class bitstream.
    pub fn eval(&self, basis: &Basis) -> BitStream {
        let mut out = BitStream::zeros(basis.len());
        self.eval_into(basis, &mut out);
        out
    }

    /// Evaluates the circuit into `out` as a single-root
    /// [`ClassCircuit`]; positions at and past `basis.len()` end up zero.
    /// Callers that evaluate one class many times should keep its
    /// [`ClassCircuit`].
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `basis.len()` bits.
    pub fn eval_into(&self, basis: &Basis, out: &mut BitStream) {
        ClassCircuit::of_expr(self).eval_into(basis, std::slice::from_mut(out));
    }

    /// Number of gates (AND/OR/NOT nodes) in the circuit.
    ///
    /// This is the per-position ALU cost of computing the class on the GPU,
    /// and feeds the Table 1 instruction counts.
    pub fn gate_count(&self) -> usize {
        match self {
            CcExpr::Const(_) | CcExpr::Basis(_) => 0,
            CcExpr::Not(e) => 1 + e.gate_count(),
            CcExpr::And(a, b) | CcExpr::Or(a, b) => 1 + a.gate_count() + b.gate_count(),
        }
    }

    /// Gate counts broken down as `(and, or, not)`.
    pub fn gate_breakdown(&self) -> (usize, usize, usize) {
        match self {
            CcExpr::Const(_) | CcExpr::Basis(_) => (0, 0, 0),
            CcExpr::Not(e) => {
                let (a, o, n) = e.gate_breakdown();
                (a, o, n + 1)
            }
            CcExpr::And(x, y) => {
                let (a1, o1, n1) = x.gate_breakdown();
                let (a2, o2, n2) = y.gate_breakdown();
                (a1 + a2 + 1, o1 + o2, n1 + n2)
            }
            CcExpr::Or(x, y) => {
                let (a1, o1, n1) = x.gate_breakdown();
                let (a2, o2, n2) = y.gate_breakdown();
                (a1 + a2, o1 + o2 + 1, n1 + n2)
            }
        }
    }
}

impl fmt::Display for CcExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CcExpr::Const(b) => write!(f, "{}", if *b { "1" } else { "0" }),
            CcExpr::Basis(k) => write!(f, "b{k}"),
            CcExpr::Not(e) => write!(f, "~{e}"),
            CcExpr::And(a, b) => write!(f, "({a} & {b})"),
            CcExpr::Or(a, b) => write!(f, "({a} | {b})"),
        }
    }
}

/// One instruction of a [`ClassCircuit`]; operands index its value file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Gate {
    False,
    True,
    Not(u32),
    And(u32, u32),
    Or(u32, u32),
}

/// The circuits of several byte classes as one straight-line program over
/// a value file: values `0..8` are the basis streams, value `8 + i` is
/// what gate `i` computes from earlier values, and every class has a root
/// value. Gates are hash-consed while the circuit is built, so classes
/// share what they have in common — a single byte is its high-nibble term
/// AND its low-nibble term, and at most thirty-two nibble terms exist.
///
/// This is the form circuits are evaluated in, and the form engines keep
/// resident.
///
/// # Examples
///
/// ```
/// use bitgen_bitstream::{Basis, BitStream, ClassCircuit};
/// use bitgen_regex::ByteSet;
///
/// let classes = [ByteSet::singleton(b'a'), ByteSet::range(b'a', b'z')];
/// let circuit = ClassCircuit::for_classes(&classes);
/// let basis = Basis::transpose(b"abz{");
/// let mut streams = vec![BitStream::zeros(4); 2];
/// circuit.eval_into(&basis, &mut streams);
/// assert_eq!(streams[0].positions(), vec![0]);
/// assert_eq!(streams[1].positions(), vec![0, 1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassCircuit {
    gates: Box<[Gate]>,
    /// Value index of each class's stream, in the order given.
    roots: Box<[u32]>,
}

/// Value files up to this many entries live on the CPU stack; larger
/// circuits spill to the heap.
const INLINE_VALUES: usize = 128;

/// Words per group of a circuit's evaluation: twice [`LANES`], because the
/// interpreter dispatches once per gate per group. Evaluating a circuit
/// shaped like the class table of 32 Snort rules (92 gates, 37 classes)
/// over 64 KiB took 56 µs at 8 words, 45 µs at 16 and 52–56 µs at 32,
/// whose value file outgrows the L1 cache.
const CIRCUIT_LANES: usize = 2 * LANES;

impl ClassCircuit {
    /// One circuit with a root per class of `sets`, in that order.
    pub fn for_classes(sets: &[ByteSet]) -> ClassCircuit {
        let mut builder = Builder::default();
        let roots = sets.iter().map(|set| builder.class(set)).collect();
        builder.finish(roots)
    }

    /// The circuit of `expr` as it is written, with one root.
    fn of_expr(expr: &CcExpr) -> ClassCircuit {
        let mut builder = Builder::default();
        let root = builder.expr(expr);
        builder.finish(vec![root])
    }

    /// Classes the circuit computes: the streams
    /// [`ClassCircuit::eval_into`] fills.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// `true` for the circuit of no class.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// AND/OR/NOT gates evaluated per position for all classes together.
    pub fn gate_count(&self) -> usize {
        self.gates.iter().filter(|g| !matches!(g, Gate::False | Gate::True)).count()
    }

    /// Evaluates every class position-wise into its stream of `outs`
    /// without a temporary stream per gate: the whole circuit runs one
    /// word-group at a time over the basis words (the
    /// interleaved-execution shape), and every class stream is written in
    /// that one sweep.
    ///
    /// Positions at and past `basis.len()` end up zero, so executors can
    /// pass their `len + 1` window streams directly and the provisional
    /// peek position stays clear.
    ///
    /// # Panics
    ///
    /// Panics if `outs` does not hold one stream per class or one of them
    /// is shorter than `basis.len()` bits.
    pub fn eval_into(&self, basis: &Basis, outs: &mut [BitStream]) {
        assert_eq!(outs.len(), self.roots.len(), "one output stream per class");
        let nwords = basis.len().div_ceil(64);
        for out in outs.iter_mut() {
            assert!(
                out.len() >= basis.len(),
                "output stream holds {} bits, basis covers {}",
                out.len(),
                basis.len()
            );
            // Words below `nwords` are all overwritten.
            out.words_mut()[nwords..].fill(0);
        }
        let words: [&[u64]; BASIS_COUNT] =
            std::array::from_fn(|k| basis.stream(k).as_words());
        self.fill_groups::<CIRCUIT_LANES>(&words, outs, nwords);
        // Positions past basis.len() within the last basis word belong
        // to the padding (e.g. a Not gate turns them on); clear them.
        let rem = basis.len() & 63;
        if rem != 0 {
            for out in outs.iter_mut() {
                out.words_mut()[nwords - 1] &= wide::low_mask(rem);
            }
        }
    }

    /// Grouped evaluation driver: full `N`-word groups, then a one-word
    /// tail so every basis word is covered exactly once.
    fn fill_groups<const N: usize>(
        &self,
        words: &[&[u64]; BASIS_COUNT],
        outs: &mut [BitStream],
        nwords: usize,
    ) {
        let tail = self.run::<N>(words, outs, 0, nwords);
        self.run::<1>(words, outs, tail, nwords);
    }

    /// Evaluates every whole `N`-word group in `from..nwords`, returning
    /// the index of the first word left over. Gate values live in one
    /// value file, never in heap streams.
    fn run<const N: usize>(
        &self,
        words: &[&[u64]; BASIS_COUNT],
        outs: &mut [BitStream],
        from: usize,
        nwords: usize,
    ) -> usize {
        let values = BASIS_COUNT + self.gates.len();
        let mut inline = [[0u64; N]; INLINE_VALUES];
        let mut spill = Vec::new();
        let file: &mut [[u64; N]] = if values <= INLINE_VALUES {
            &mut inline[..values]
        } else {
            spill.resize(values, [0u64; N]);
            &mut spill
        };
        let mut wi = from;
        while wi + N <= nwords {
            for (value, basis) in file.iter_mut().zip(words) {
                value.copy_from_slice(&basis[wi..wi + N]);
            }
            for (i, gate) in self.gates.iter().enumerate() {
                file[BASIS_COUNT + i] = match *gate {
                    Gate::False => [0; N],
                    Gate::True => [u64::MAX; N],
                    Gate::Not(a) => file[a as usize].map(|w| !w),
                    Gate::And(a, b) => {
                        let (x, y) = (file[a as usize], file[b as usize]);
                        std::array::from_fn(|lane| x[lane] & y[lane])
                    }
                    Gate::Or(a, b) => {
                        let (x, y) = (file[a as usize], file[b as usize]);
                        std::array::from_fn(|lane| x[lane] | y[lane])
                    }
                };
            }
            for (&root, out) in self.roots.iter().zip(outs.iter_mut()) {
                out.words_mut()[wi..wi + N].copy_from_slice(&file[root as usize]);
            }
            wi += N;
        }
        wi
    }
}

/// A [`ClassCircuit`] under construction: gates are appended where first
/// needed and found again by structure afterwards.
#[derive(Default)]
struct Builder {
    gates: Vec<Gate>,
    seen: HashMap<Gate, u32>,
}

impl Builder {
    fn finish(self, roots: Vec<u32>) -> ClassCircuit {
        ClassCircuit { gates: self.gates.into_boxed_slice(), roots: roots.into_boxed_slice() }
    }

    /// The value of `gate`, appended unless an identical gate exists.
    fn gate(&mut self, gate: Gate) -> u32 {
        *self.seen.entry(gate).or_insert_with(|| {
            self.gates.push(gate);
            (BASIS_COUNT + self.gates.len() - 1) as u32
        })
    }

    /// The gate computing `value`, `None` for a basis stream.
    fn gate_of(&self, value: u32) -> Option<Gate> {
        (value as usize).checked_sub(BASIS_COUNT).map(|i| self.gates[i])
    }

    fn not(&mut self, a: u32) -> u32 {
        match self.gate_of(a) {
            Some(Gate::False) => self.gate(Gate::True),
            Some(Gate::True) => self.gate(Gate::False),
            Some(Gate::Not(inner)) => inner,
            _ => self.gate(Gate::Not(a)),
        }
    }

    fn and(&mut self, a: u32, b: u32) -> u32 {
        match (self.gate_of(a), self.gate_of(b)) {
            (Some(Gate::False), _) | (_, Some(Gate::True)) => a,
            (Some(Gate::True), _) | (_, Some(Gate::False)) => b,
            _ if a == b => a,
            _ => self.gate(Gate::And(a.min(b), a.max(b))),
        }
    }

    fn or(&mut self, a: u32, b: u32) -> u32 {
        match (self.gate_of(a), self.gate_of(b)) {
            (Some(Gate::True), _) | (_, Some(Gate::False)) => a,
            (Some(Gate::False), _) | (_, Some(Gate::True)) => b,
            _ if a == b => a,
            _ => self.gate(Gate::Or(a.min(b), a.max(b))),
        }
    }

    fn expr(&mut self, expr: &CcExpr) -> u32 {
        match expr {
            CcExpr::Const(false) => self.gate(Gate::False),
            CcExpr::Const(true) => self.gate(Gate::True),
            CcExpr::Basis(k) => u32::from(*k),
            CcExpr::Not(e) => {
                let e = self.expr(e);
                self.not(e)
            }
            CcExpr::And(a, b) => {
                let (a, b) = (self.expr(a), self.expr(b));
                self.and(a, b)
            }
            CcExpr::Or(a, b) => {
                let (a, b) = (self.expr(a), self.expr(b));
                self.or(a, b)
            }
        }
    }

    /// Basis bit `k` of `val` as a literal: `b_k` or `¬b_k`.
    fn literal(&mut self, val: u8, k: u32) -> u32 {
        if val >> (7 - k) & 1 == 1 {
            k
        } else {
            self.not(k)
        }
    }

    /// The four basis bits from `k` on equal those of `val`: one of the
    /// sixteen terms of that nibble, a pair of two-literal terms.
    fn nibble(&mut self, val: u8, k: u32) -> u32 {
        let bits: [u32; 4] = std::array::from_fn(|i| self.literal(val, k + i as u32));
        let (high, low) = (self.and(bits[0], bits[1]), self.and(bits[2], bits[3]));
        self.and(high, low)
    }

    /// `set` the way [`compile_class`] decomposes it, except that a single
    /// byte is the AND of its two nibble terms so that bytes share them.
    fn class(&mut self, set: &ByteSet) -> u32 {
        let (ranges, complement) = class_ranges(set);
        let mut any = self.gate(Gate::False);
        for (lo, hi) in ranges {
            let range = if lo == hi {
                let (high, low) = (self.nibble(lo, 0), self.nibble(lo, 4));
                self.and(high, low)
            } else {
                self.expr(&range_expr(lo, hi))
            };
            any = self.or(any, range);
        }
        if complement {
            self.not(any)
        } else {
            any
        }
    }
}

/// Compiles a byte class into a basis-bit circuit.
///
/// Uses maximal-range decomposition; when the complement decomposes into
/// fewer ranges, compiles the complement and negates.
pub fn compile_class(set: &ByteSet) -> CcExpr {
    build_class(set, &mut Trees)
}

/// Where [`build_class`] puts a class's circuit: each call returns a node
/// built from nodes returned before. A sink must fold as [`CcExpr::not`],
/// [`CcExpr::and`] and [`CcExpr::or`] do — constants and double negation
/// away, nothing else — so that every sink builds the same tree
/// [`compile_class`] returns, in whatever form it keeps nodes (a code
/// generator interns them straight into its own node table).
pub trait GateSink {
    /// A built node.
    type Node;
    /// A constant bit.
    fn constant(&mut self, value: bool) -> Self::Node;
    /// The `k`-th basis stream.
    fn basis(&mut self, k: u8) -> Self::Node;
    /// Negation.
    fn not(&mut self, a: Self::Node) -> Self::Node;
    /// Conjunction.
    fn and(&mut self, a: Self::Node, b: Self::Node) -> Self::Node;
    /// Disjunction.
    fn or(&mut self, a: Self::Node, b: Self::Node) -> Self::Node;
}

/// Builds the circuit [`compile_class`] returns for `set` into `sink`.
pub fn build_class<S: GateSink>(set: &ByteSet, sink: &mut S) -> S::Node {
    let (ranges, complement) = class_ranges(set);
    let any = ranges_node(&ranges, sink);
    if complement {
        sink.not(any)
    } else {
        any
    }
}

/// The [`GateSink`] of [`CcExpr`] trees.
struct Trees;

impl GateSink for Trees {
    type Node = CcExpr;

    fn constant(&mut self, value: bool) -> CcExpr {
        CcExpr::Const(value)
    }

    fn basis(&mut self, k: u8) -> CcExpr {
        CcExpr::Basis(k)
    }

    fn not(&mut self, a: CcExpr) -> CcExpr {
        CcExpr::not(a)
    }

    fn and(&mut self, a: CcExpr, b: CcExpr) -> CcExpr {
        CcExpr::and(a, b)
    }

    fn or(&mut self, a: CcExpr, b: CcExpr) -> CcExpr {
        CcExpr::or(a, b)
    }
}

/// The maximal ranges whose union is `set` — or, when that takes fewer
/// ranges, whose union is its complement (`true`).
fn class_ranges(set: &ByteSet) -> (Vec<(u8, u8)>, bool) {
    let ranges = set.ranges();
    let comp_ranges = set.complement().ranges();
    if comp_ranges.len() < ranges.len() {
        (comp_ranges, true)
    } else {
        (ranges, false)
    }
}

fn ranges_node<S: GateSink>(ranges: &[(u8, u8)], sink: &mut S) -> S::Node {
    let mut out = sink.constant(false);
    for &(lo, hi) in ranges {
        let range = range_node(lo, hi, sink);
        out = sink.or(out, range);
    }
    out
}

fn range_expr(lo: u8, hi: u8) -> CcExpr {
    range_node(lo, hi, &mut Trees)
}

fn range_node<S: GateSink>(lo: u8, hi: u8, sink: &mut S) -> S::Node {
    if lo == hi {
        return byte_eq(lo, sink);
    }
    match (lo, hi) {
        (0, 255) => sink.constant(true),
        (0, _) => le_node(hi, 0, sink),
        (_, 255) => ge_node(lo, 0, sink),
        _ => {
            // Factor out the common high-bit prefix of lo and hi: bits that
            // agree become equality literals; the range test applies only to
            // the disagreeing suffix.
            let mut k = 0;
            let mut prefix = sink.constant(true);
            while k < 8 && (lo >> (7 - k)) & 1 == (hi >> (7 - k)) & 1 {
                let literal = bit_literal(lo, k, sink);
                prefix = sink.and(prefix, literal);
                k += 1;
            }
            let (ge, le) = (ge_node(lo, k, sink), le_node(hi, k, sink));
            let suffix = sink.and(ge, le);
            sink.and(prefix, suffix)
        }
    }
}

/// Matches bytes equal to `val`: an AND over all eight basis literals.
fn byte_eq<S: GateSink>(val: u8, sink: &mut S) -> S::Node {
    let mut e = sink.constant(true);
    for k in 0..8 {
        let literal = bit_literal(val, k, sink);
        e = sink.and(e, literal);
    }
    e
}

/// Literal for basis bit `k` of `val`: `b_k` if the bit is set, `¬b_k`
/// otherwise.
fn bit_literal<S: GateSink>(val: u8, k: usize, sink: &mut S) -> S::Node {
    let basis = sink.basis(k as u8);
    if val >> (7 - k) & 1 == 1 {
        basis
    } else {
        sink.not(basis)
    }
}

/// Matches bytes `b` with `b[k..] >= val[k..]` (suffix comparison starting
/// at basis bit `k`).
fn ge_node<S: GateSink>(val: u8, k: usize, sink: &mut S) -> S::Node {
    if k == 8 {
        return sink.constant(true);
    }
    let rest = ge_node(val, k + 1, sink);
    let basis = sink.basis(k as u8);
    if val >> (7 - k) & 1 == 1 {
        // Bit must be 1 and the suffix must still be >=.
        sink.and(basis, rest)
    } else {
        // Bit 1 makes b strictly greater; bit 0 defers to the suffix.
        sink.or(basis, rest)
    }
}

/// Matches bytes `b` with `b[k..] <= val[k..]`.
fn le_node<S: GateSink>(val: u8, k: usize, sink: &mut S) -> S::Node {
    if k == 8 {
        return sink.constant(true);
    }
    let rest = le_node(val, k + 1, sink);
    let basis = sink.basis(k as u8);
    let literal = sink.not(basis);
    if val >> (7 - k) & 1 == 1 {
        sink.or(literal, rest)
    } else {
        sink.and(literal, rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustively checks a circuit against its set over all 256 bytes.
    fn check(set: &ByteSet) {
        let e = compile_class(set);
        for b in 0..=255u8 {
            assert_eq!(
                e.eval_byte(b),
                set.contains(b),
                "byte {b:#04x} vs set {set:?} circuit {e}"
            );
        }
    }

    #[test]
    fn singletons() {
        for b in [0u8, 1, b'a', 127, 128, 255] {
            check(&ByteSet::singleton(b));
        }
    }

    #[test]
    fn simple_ranges() {
        check(&ByteSet::range(b'a', b'z'));
        check(&ByteSet::range(b'0', b'9'));
        check(&ByteSet::range(0, 127));
        check(&ByteSet::range(128, 255));
        check(&ByteSet::range(0, 255));
        check(&ByteSet::range(1, 254));
    }

    #[test]
    fn adjacent_and_tiny_ranges() {
        check(&ByteSet::range(b'a', b'b'));
        check(&ByteSet::range(0x7f, 0x80)); // straddles the MSB
        check(&ByteSet::range(0, 0));
        check(&ByteSet::range(255, 255));
    }

    #[test]
    fn multi_range_sets() {
        check(&ByteSet::word());
        check(&ByteSet::space());
        check(&ByteSet::dot());
        check(&ByteSet::digit().complement());
        check(&ByteSet::from_bytes([b'a', b'e', b'i', b'o', b'u']));
    }

    #[test]
    fn exhaustive_all_ranges_mod_stride() {
        // A spread of (lo, hi) pairs including word-boundary-like cases.
        for lo in (0..=255u8).step_by(17) {
            for hi in (lo..=255).step_by(23) {
                check(&ByteSet::range(lo, hi));
            }
        }
    }

    #[test]
    fn empty_and_full() {
        assert_eq!(compile_class(&ByteSet::EMPTY), CcExpr::Const(false));
        assert_eq!(compile_class(&ByteSet::FULL), CcExpr::Const(true));
    }

    #[test]
    fn negated_class_uses_complement() {
        // [^a] has 2 complement ranges vs 2 direct... use a set whose
        // complement is clearly smaller: everything except one range.
        let set = ByteSet::range(b'a', b'z').complement();
        check(&set);
        let direct = ranges_node(&set.ranges(), &mut Trees);
        let via_compile = compile_class(&set);
        assert!(
            via_compile.gate_count() <= direct.gate_count(),
            "complement form should not be larger: {} vs {}",
            via_compile.gate_count(),
            direct.gate_count()
        );
    }

    #[test]
    fn gate_count_reasonable() {
        // A single byte needs at most 8 literals = 7 ANDs + up to 8 NOTs.
        let e = compile_class(&ByteSet::singleton(b'a'));
        assert!(e.gate_count() <= 15, "got {}", e.gate_count());
        // A contiguous range should stay well under the 8-bit worst case.
        let r = compile_class(&ByteSet::range(b'a', b'z'));
        assert!(r.gate_count() <= 40, "got {}", r.gate_count());
    }

    #[test]
    fn gate_breakdown_sums_to_total() {
        let e = compile_class(&ByteSet::word());
        let (a, o, n) = e.gate_breakdown();
        assert_eq!(a + o + n, e.gate_count());
        assert!(a > 0 && o > 0);
    }

    #[test]
    fn eval_over_basis_matches_bytewise() {
        let set = ByteSet::range(b'a', b'm');
        let e = compile_class(&set);
        let input = b"hello world ABC mnop";
        let basis = Basis::transpose(input);
        let s = e.eval(&basis);
        for (i, &b) in input.iter().enumerate() {
            assert_eq!(s.get(i), set.contains(b), "position {i} byte {:?}", b as char);
        }
    }

    #[test]
    fn eval_into_longer_stream_keeps_peek_clear() {
        // Executors evaluate into a len+1 window stream; the sentinel
        // position must stay zero even for negated (Not-rooted) circuits
        // that turn the padding on.
        let set = ByteSet::range(b'a', b'z').complement();
        let e = compile_class(&set);
        for input in [&b"abc"[..], &b"ABC"[..], &[b'!'; 64][..], &[b'a'; 127][..]] {
            let basis = Basis::transpose(input);
            let mut out = BitStream::zeros(input.len() + 1);
            e.eval_into(&basis, &mut out);
            assert_eq!(out, e.eval(&basis).resized(input.len() + 1), "len {}", input.len());
            assert!(!out.get(input.len()), "peek bit must stay clear");
        }
    }

    #[test]
    fn eval_into_const_true_masks_padding() {
        let basis = Basis::transpose(&[0u8; 70]);
        let mut out = BitStream::zeros(71);
        CcExpr::Const(true).eval_into(&basis, &mut out);
        assert_eq!(out.count_ones(), 70);
        assert!(!out.get(70));
    }

    #[test]
    fn eval_into_reuses_allocation() {
        let e = compile_class(&ByteSet::word());
        let big: Vec<u8> = (0..500u32).map(|i| (i % 256) as u8).collect();
        let basis = Basis::transpose(&big);
        let mut out = BitStream::zeros(big.len());
        e.eval_into(&basis, &mut out);
        let cap = out.capacity_words();
        let small = Basis::transpose(&big[..100]);
        out.reset_zeros(100);
        e.eval_into(&small, &mut out);
        assert_eq!(out, e.eval(&small));
        e.eval_into(&basis, &mut BitStream::zeros(big.len()));
        out.reset_zeros(big.len());
        e.eval_into(&basis, &mut out);
        assert_eq!(out.capacity_words(), cap);
    }

    #[test]
    fn flat_code_agrees_with_the_tree_on_every_byte() {
        // All 256 byte values in one basis: position b holds byte b, so the
        // flat evaluator's output stream is the tree's truth table.
        let all: Vec<u8> = (0..=255).collect();
        let basis = Basis::transpose(&all);
        let sets = [
            ByteSet::word(),
            ByteSet::dot(),
            ByteSet::singleton(b'a'),
            ByteSet::range(0x21, 0xfe),
            ByteSet::from_bytes((0..=255u8).filter(|b| b % 2 == 0)),
            ByteSet::EMPTY,
            ByteSet::FULL,
        ];
        for set in &sets {
            let tree = compile_class(set);
            let flat = ClassCircuit::of_expr(&tree);
            // Hash-consing only ever merges gates.
            assert!(flat.gate_count() <= tree.gate_count(), "{set:?}");
            // Everything but the every-other-byte set evaluates on the stack.
            let fits = flat.values() <= INLINE_VALUES;
            assert_eq!(fits, set.ranges().len() < 100, "{set:?} needs {} values", flat.values());
            // The tree as written and the class as a shared circuit builds it.
            for circuit in [flat, ClassCircuit::for_classes(std::slice::from_ref(set))] {
                let mut out = [BitStream::zeros(256)];
                circuit.eval_into(&basis, &mut out);
                for b in 0..=255u8 {
                    let want = tree.eval_byte(b);
                    assert_eq!(out[0].get(b as usize), want, "byte {b:#04x} of {set:?}");
                }
            }
        }
    }

    impl ClassCircuit {
        /// Entries of the value file evaluation needs.
        fn values(&self) -> usize {
            BASIS_COUNT + self.gates.len()
        }
    }

    /// An OR of many single bytes, each an eight-literal AND: more
    /// distinct gates than INLINE_VALUES, so evaluation takes the heap
    /// path.
    fn wide_or_tree() -> (CcExpr, ByteSet) {
        let bytes = || (0..=255u8).filter(|b| b % 3 == 0);
        let tree =
            bytes().fold(CcExpr::Const(false), |any, b| CcExpr::or(any, byte_eq(b, &mut Trees)));
        (tree, ByteSet::from_bytes(bytes()))
    }

    #[test]
    fn deep_hand_built_circuits_spill_and_still_evaluate() {
        let (tree, _) = wide_or_tree();
        assert!(ClassCircuit::of_expr(&tree).values() > INLINE_VALUES);
        let input: Vec<u8> = (0..=255).collect();
        let basis = Basis::transpose(&input);
        let mut out = BitStream::zeros(256);
        tree.eval_into(&basis, &mut out);
        for b in 0..=255u8 {
            assert_eq!(out.get(b as usize), tree.eval_byte(b));
        }
    }

    #[test]
    fn grouped_evaluation_agrees_with_scalar_and_bytewise() {
        // Inputs on both sides of a full word-group (CIRCUIT_LANES * 64 =
        // 1 024 positions), so whole groups, the one-word tail and the seam
        // between them all run: grouped == scalar == the set itself.
        let ordinary = ByteSet::word();
        let negated = ByteSet::range(b'a', b'z').complement();
        assert!(matches!(compile_class(&negated), CcExpr::Not(_)));
        let (wide, wide_set) = wide_or_tree();
        assert!(ClassCircuit::of_expr(&wide).values() > INLINE_VALUES);
        let corpus: Vec<u8> =
            (0..4103u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        for (tree, set) in [
            (compile_class(&ordinary), ordinary),
            (compile_class(&negated), negated),
            (wide, wide_set),
        ] {
            let circuit = ClassCircuit::of_expr(&tree);
            for len in [0usize, 1, 511, 512, 513, 1023, 1024, 1025, 1100, 4096 + 7] {
                let input = &corpus[..len];
                let basis = Basis::transpose(input);
                let words: [&[u64]; BASIS_COUNT] =
                    std::array::from_fn(|k| basis.stream(k).as_words());
                let nwords = len.div_ceil(64);
                let mut grouped = [BitStream::zeros(nwords * 64)];
                circuit.fill_groups::<CIRCUIT_LANES>(&words, &mut grouped, nwords);
                let mut scalar = [BitStream::zeros(nwords * 64)];
                circuit.fill_groups::<1>(&words, &mut scalar, nwords);
                assert_eq!(grouped, scalar, "{set:?} over {len} bytes");
                for (i, &b) in input.iter().enumerate() {
                    let got = grouped[0].get(i);
                    assert_eq!(got, set.contains(b), "{set:?}: position {i} of {len}");
                }
            }
        }
    }

    #[test]
    fn a_shared_circuit_computes_every_class_and_shares_the_nibble_terms() {
        let all: Vec<u8> = (0..=255).collect();
        let basis = Basis::transpose(&all);
        let mut sets: Vec<ByteSet> = (0..=255u8).map(ByteSet::singleton).collect();
        sets.extend([
            ByteSet::word(),
            ByteSet::digit().complement(),
            ByteSet::from_bytes([b'a', b'e', b'i', b'o', b'u']),
            ByteSet::EMPTY,
            ByteSet::FULL,
            ByteSet::range(0x80, 0xff),
        ]);
        let circuit = ClassCircuit::for_classes(&sets);
        assert_eq!(circuit.len(), sets.len());
        let mut streams = vec![BitStream::zeros(257); sets.len()];
        circuit.eval_into(&basis, &mut streams);
        for (set, stream) in sets.iter().zip(&streams) {
            for b in 0..=255u8 {
                assert_eq!(stream.get(b as usize), set.contains(b), "byte {b:#04x} of {set:?}");
            }
            assert!(!stream.get(256), "peek bit of {set:?}");
        }
        // Eight negated literals, sixteen two-literal terms, thirty-two
        // nibble terms and one AND per byte, against fifteen gates a byte
        // compiled alone.
        let bytes = ClassCircuit::for_classes(&sets[..256]);
        assert_eq!(bytes.gate_count(), 8 + 16 + 32 + 256);
        let alone: usize = sets.iter().map(|s| compile_class(s).gate_count()).sum();
        assert!(circuit.gate_count() < alone / 4, "{} vs {alone}", circuit.gate_count());
        // No class is no work.
        let none = ClassCircuit::for_classes(&[]);
        assert!(none.is_empty());
        none.eval_into(&basis, &mut []);
    }

    #[test]
    fn smart_constructors_fold() {
        use CcExpr::*;
        assert_eq!(CcExpr::and(Const(true), Basis(0)), Basis(0));
        assert_eq!(CcExpr::and(Const(false), Basis(0)), Const(false));
        assert_eq!(CcExpr::or(Const(false), Basis(1)), Basis(1));
        assert_eq!(CcExpr::or(Const(true), Basis(1)), Const(true));
        assert_eq!(CcExpr::not(CcExpr::not(Basis(2))), Basis(2));
        assert_eq!(CcExpr::not(Const(true)), Const(false));
    }

    #[test]
    fn display_is_readable() {
        let e = compile_class(&ByteSet::singleton(b'a'));
        let s = e.to_string();
        assert!(s.contains("b0") || s.contains("~b0"), "got {s}");
    }
}
