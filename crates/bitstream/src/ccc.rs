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

    /// Evaluates the circuit into `out`: flattens it to [`CcCode`] and
    /// runs [`CcCode::eval_into`]. Callers that evaluate one circuit many
    /// times should keep the [`CcCode`].
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `basis.len()` bits.
    pub fn eval_into(&self, basis: &Basis, out: &mut BitStream) {
        CcCode::new(self).eval_into(basis, out);
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

/// A [`CcExpr`] flattened to postfix code: one byte per node in a single
/// allocation, a twentieth of the boxed tree. This is the form circuits
/// are evaluated in, and the form engines keep resident.
///
/// # Examples
///
/// ```
/// use bitgen_bitstream::{Basis, BitStream, CcCode};
/// use bitgen_regex::ByteSet;
///
/// let code = CcCode::for_class(&ByteSet::range(b'a', b'z'));
/// let basis = Basis::transpose(b"abz{");
/// let mut s = BitStream::zeros(4);
/// code.eval_into(&basis, &mut s);
/// assert_eq!(s.positions(), vec![0, 1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CcCode {
    /// Postfix ops: `0..8` push that basis stream, then the `OP_*` codes.
    code: Box<[u8]>,
    /// Operand-stack slots evaluation needs.
    depth: usize,
    gates: usize,
}

const OP_FALSE: u8 = 8;
const OP_TRUE: u8 = 9;
const OP_NOT: u8 = 10;
const OP_AND: u8 = 11;
const OP_OR: u8 = 12;

/// Operand stacks up to this deep live on the CPU stack. Operands are
/// emitted deeper-first, so depth grows with the logarithm of the circuit
/// size and every compiled class fits; deeper hand-built circuits spill
/// to the heap.
const INLINE_DEPTH: usize = 12;

impl CcCode {
    /// Flattens `expr`.
    pub fn new(expr: &CcExpr) -> CcCode {
        let mut code = Vec::new();
        let depth = emit(expr, &mut code);
        CcCode { code: code.into_boxed_slice(), depth, gates: expr.gate_count() }
    }

    /// The flattened circuit of a byte class ([`compile_class`]).
    pub fn for_class(set: &ByteSet) -> CcCode {
        CcCode::new(&compile_class(set))
    }

    /// [`CcExpr::gate_count`] of the flattened circuit.
    pub fn gate_count(&self) -> usize {
        self.gates
    }

    /// Evaluates the circuit position-wise into `out` without a temporary
    /// stream per node: the whole circuit runs one word-group at a time
    /// over the basis words (the interleaved-execution shape).
    ///
    /// `out` is cleared first; positions at and past `basis.len()` end
    /// up zero, so executors can pass their `len + 1` window stream
    /// directly and the provisional peek position stays clear.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `basis.len()` bits.
    pub fn eval_into(&self, basis: &Basis, out: &mut BitStream) {
        assert!(
            out.len() >= basis.len(),
            "output stream holds {} bits, basis covers {}",
            out.len(),
            basis.len()
        );
        let len = out.len();
        out.reset_zeros(len);
        let words: [&[u64]; BASIS_COUNT] =
            std::array::from_fn(|k| basis.stream(k).as_words());
        let nwords = basis.len().div_ceil(64);
        let out_words = out.words_mut();
        self.fill_groups::<LANES>(&words, out_words, nwords);
        // Positions past basis.len() within the last basis word belong
        // to the padding (e.g. a Not circuit turns them on); clear them.
        let rem = basis.len() & 63;
        if rem != 0 {
            out_words[nwords - 1] &= wide::low_mask(rem);
        }
    }

    /// Grouped evaluation driver: full `N`-word groups, then a one-word
    /// tail so every basis word is covered exactly once.
    fn fill_groups<const N: usize>(
        &self,
        words: &[&[u64]; BASIS_COUNT],
        out: &mut [u64],
        nwords: usize,
    ) {
        let tail = self.run::<N>(words, out, 0, nwords);
        self.run::<1>(words, out, tail, nwords);
    }

    /// Evaluates every whole `N`-word group in `from..nwords`, returning
    /// the index of the first word left over. Intermediate values live on
    /// one operand stack, never in heap streams.
    fn run<const N: usize>(
        &self,
        words: &[&[u64]; BASIS_COUNT],
        out: &mut [u64],
        from: usize,
        nwords: usize,
    ) -> usize {
        let mut inline = [[0u64; N]; INLINE_DEPTH];
        let mut spill = Vec::new();
        let stack: &mut [[u64; N]] = if self.depth <= INLINE_DEPTH {
            &mut inline
        } else {
            spill.resize(self.depth, [0u64; N]);
            &mut spill
        };
        let mut wi = from;
        while wi + N <= nwords {
            let mut top = 0;
            for &op in self.code.iter() {
                match op {
                    OP_FALSE | OP_TRUE => {
                        stack[top] = [if op == OP_TRUE { u64::MAX } else { 0 }; N];
                        top += 1;
                    }
                    OP_NOT => {
                        for w in stack[top - 1].iter_mut() {
                            *w = !*w;
                        }
                    }
                    OP_AND => {
                        top -= 1;
                        let rhs = stack[top];
                        for (w, r) in stack[top - 1].iter_mut().zip(rhs) {
                            *w &= r;
                        }
                    }
                    OP_OR => {
                        top -= 1;
                        let rhs = stack[top];
                        for (w, r) in stack[top - 1].iter_mut().zip(rhs) {
                            *w |= r;
                        }
                    }
                    k => {
                        stack[top].copy_from_slice(&words[k as usize][wi..wi + N]);
                        top += 1;
                    }
                }
            }
            out[wi..wi + N].copy_from_slice(&stack[0]);
            wi += N;
        }
        wi
    }
}

/// Appends `expr` in postfix order and returns the operand-stack depth it
/// needs. The deeper operand of a binary gate goes first (both gates
/// commute), which keeps that depth logarithmic in the circuit size.
fn emit(expr: &CcExpr, code: &mut Vec<u8>) -> usize {
    match expr {
        CcExpr::Const(b) => {
            code.push(if *b { OP_TRUE } else { OP_FALSE });
            1
        }
        CcExpr::Basis(k) => {
            code.push(*k);
            1
        }
        CcExpr::Not(e) => {
            let depth = emit(e, code);
            code.push(OP_NOT);
            depth
        }
        CcExpr::And(a, b) | CcExpr::Or(a, b) => {
            let start = code.len();
            let first = emit(a, code);
            let mid = code.len();
            let second = emit(b, code);
            if second > first {
                code[start..].rotate_left(mid - start);
            }
            code.push(if matches!(expr, CcExpr::And(..)) { OP_AND } else { OP_OR });
            first.max(second).max(first.min(second) + 1)
        }
    }
}

/// Compiles a byte class into a basis-bit circuit.
///
/// Uses maximal-range decomposition; when the complement decomposes into
/// fewer ranges, compiles the complement and negates.
pub fn compile_class(set: &ByteSet) -> CcExpr {
    if set.is_empty() {
        return CcExpr::Const(false);
    }
    if set.is_full() {
        return CcExpr::Const(true);
    }
    let ranges = set.ranges();
    let comp = set.complement();
    let comp_ranges = comp.ranges();
    if comp_ranges.len() < ranges.len() {
        CcExpr::not(ranges_expr(&comp_ranges))
    } else {
        ranges_expr(&ranges)
    }
}

fn ranges_expr(ranges: &[(u8, u8)]) -> CcExpr {
    let mut out = CcExpr::Const(false);
    for &(lo, hi) in ranges {
        out = CcExpr::or(out, range_expr(lo, hi));
    }
    out
}

fn range_expr(lo: u8, hi: u8) -> CcExpr {
    if lo == hi {
        return byte_eq(lo);
    }
    match (lo, hi) {
        (0, 255) => CcExpr::Const(true),
        (0, _) => le_expr(hi, 0),
        (_, 255) => ge_expr(lo, 0),
        _ => {
            // Factor out the common high-bit prefix of lo and hi: bits that
            // agree become equality literals; the range test applies only to
            // the disagreeing suffix.
            let mut k = 0;
            let mut prefix = CcExpr::Const(true);
            while k < 8 && (lo >> (7 - k)) & 1 == (hi >> (7 - k)) & 1 {
                prefix = CcExpr::and(prefix, bit_literal(lo, k));
                k += 1;
            }
            CcExpr::and(prefix, CcExpr::and(ge_expr(lo, k), le_expr(hi, k)))
        }
    }
}

/// Matches bytes equal to `val`: an AND over all eight basis literals.
fn byte_eq(val: u8) -> CcExpr {
    let mut e = CcExpr::Const(true);
    for k in 0..8 {
        e = CcExpr::and(e, bit_literal(val, k));
    }
    e
}

/// Literal for basis bit `k` of `val`: `b_k` if the bit is set, `¬b_k`
/// otherwise.
fn bit_literal(val: u8, k: usize) -> CcExpr {
    if val >> (7 - k) & 1 == 1 {
        CcExpr::Basis(k as u8)
    } else {
        CcExpr::not(CcExpr::Basis(k as u8))
    }
}

/// Matches bytes `b` with `b[k..] >= val[k..]` (suffix comparison starting
/// at basis bit `k`).
fn ge_expr(val: u8, k: usize) -> CcExpr {
    if k == 8 {
        return CcExpr::Const(true);
    }
    let rest = ge_expr(val, k + 1);
    if val >> (7 - k) & 1 == 1 {
        // Bit must be 1 and the suffix must still be >=.
        CcExpr::and(CcExpr::Basis(k as u8), rest)
    } else {
        // Bit 1 makes b strictly greater; bit 0 defers to the suffix.
        CcExpr::or(CcExpr::Basis(k as u8), rest)
    }
}

/// Matches bytes `b` with `b[k..] <= val[k..]`.
fn le_expr(val: u8, k: usize) -> CcExpr {
    if k == 8 {
        return CcExpr::Const(true);
    }
    let rest = le_expr(val, k + 1);
    if val >> (7 - k) & 1 == 1 {
        CcExpr::or(CcExpr::not(CcExpr::Basis(k as u8)), rest)
    } else {
        CcExpr::and(CcExpr::not(CcExpr::Basis(k as u8)), rest)
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
        let direct = ranges_expr(&set.ranges());
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
            let code = CcCode::new(&tree);
            assert_eq!(code.gate_count(), tree.gate_count());
            assert!(code.depth <= INLINE_DEPTH, "{set:?} needs {} slots", code.depth);
            let mut out = BitStream::zeros(256);
            code.eval_into(&basis, &mut out);
            for b in 0..=255u8 {
                assert_eq!(out.get(b as usize), tree.eval_byte(b), "byte {b:#04x} of {set:?}");
            }
        }
    }

    /// A complete binary tree of ORs over the basis bits needs one operand
    /// slot per level whatever the order; past INLINE_DEPTH levels that is
    /// the heap path.
    fn full_or_tree(levels: usize, k: &mut u8) -> CcExpr {
        if levels == 0 {
            *k = (*k + 1) % 8;
            return CcExpr::Basis(*k);
        }
        CcExpr::Or(
            Box::new(full_or_tree(levels - 1, k)),
            Box::new(full_or_tree(levels - 1, k)),
        )
    }

    #[test]
    fn deep_hand_built_circuits_spill_and_still_evaluate() {
        let tree = full_or_tree(INLINE_DEPTH + 1, &mut 0);
        let code = CcCode::new(&tree);
        assert!(code.depth > INLINE_DEPTH);
        let input: Vec<u8> = (0..=255).collect();
        let basis = Basis::transpose(&input);
        let mut out = BitStream::zeros(256);
        code.eval_into(&basis, &mut out);
        for b in 0..=255u8 {
            assert_eq!(out.get(b as usize), tree.eval_byte(b));
        }
    }

    #[test]
    fn grouped_evaluation_agrees_with_scalar_and_bytewise() {
        // Inputs on both sides of a full word-group (LANES * 64 = 512
        // positions), so whole groups, the one-word tail and the seam
        // between them all run: grouped == scalar == the set itself.
        let ordinary = ByteSet::word();
        let negated = ByteSet::range(b'a', b'z').complement();
        assert!(matches!(compile_class(&negated), CcExpr::Not(_)));
        let deep = full_or_tree(INLINE_DEPTH + 1, &mut 0);
        assert!(CcCode::new(&deep).depth > INLINE_DEPTH);
        let deep_set = ByteSet::from_bytes((0..=255u8).filter(|&b| deep.eval_byte(b)));
        let corpus: Vec<u8> =
            (0..4103u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        for (tree, set) in [
            (compile_class(&ordinary), ordinary),
            (compile_class(&negated), negated),
            (deep, deep_set),
        ] {
            let code = CcCode::new(&tree);
            for len in [0usize, 1, 511, 512, 513, 1100, 4096 + 7] {
                let input = &corpus[..len];
                let basis = Basis::transpose(input);
                let words: [&[u64]; BASIS_COUNT] =
                    std::array::from_fn(|k| basis.stream(k).as_words());
                let nwords = len.div_ceil(64);
                let mut grouped = vec![0u64; nwords];
                code.fill_groups::<LANES>(&words, &mut grouped, nwords);
                let mut scalar = vec![0u64; nwords];
                code.fill_groups::<1>(&words, &mut scalar, nwords);
                assert_eq!(grouped, scalar, "{set:?} over {len} bytes");
                for (i, &b) in input.iter().enumerate() {
                    assert_eq!(
                        grouped[i >> 6] >> (i & 63) & 1 == 1,
                        set.contains(b),
                        "{set:?}: position {i} of {len}"
                    );
                }
            }
        }
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
