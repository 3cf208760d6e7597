//! Unbounded bitstreams backed by `u64` words.
//!
//! A [`BitStream`] holds one bit per text position: bit *i* talks about byte
//! *i* of the input. The paper writes bitstreams left-to-right, so its
//! "right shift by 1" moves a marker from position *i* to position *i+1*;
//! here that operation is called [`BitStream::advance`] (and the opposite
//! direction [`BitStream::retreat`]) to keep the direction unambiguous.

use crate::wide::{self, FusedStage};
use std::fmt;

/// A fixed-length sequence of bits, one per text position.
///
/// All boolean operations require equal lengths; bits beyond the logical
/// length are kept zero as an internal invariant.
///
/// # Examples
///
/// ```
/// use bitgen_bitstream::BitStream;
///
/// let mut s = BitStream::zeros(8);
/// s.set(3, true);
/// let t = s.advance(2);
/// assert_eq!(t.positions(), vec![5]);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitStream {
    words: Vec<u64>,
    len: usize,
}

impl BitStream {
    /// Creates a stream of `len` zero bits.
    pub fn zeros(len: usize) -> BitStream {
        BitStream { words: vec![0; len.div_ceil(64)], len }
    }

    /// Creates a stream of `len` one bits.
    pub fn ones(len: usize) -> BitStream {
        let mut s = BitStream::default();
        s.reset_ones(len);
        s
    }

    /// Creates a stream with ones exactly at `positions`.
    ///
    /// # Panics
    ///
    /// Panics if any position is `>= len`.
    pub fn from_positions(len: usize, positions: &[usize]) -> BitStream {
        let mut s = BitStream::zeros(len);
        for &p in positions {
            s.set(p, true);
        }
        s
    }

    /// Number of bit positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the stream has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads the bit at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len`.
    pub fn get(&self, pos: usize) -> bool {
        assert!(pos < self.len, "bit index {pos} out of range for length {}", self.len);
        self.words[pos >> 6] >> (pos & 63) & 1 == 1
    }

    /// Writes the bit at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len`.
    pub fn set(&mut self, pos: usize, value: bool) {
        assert!(pos < self.len, "bit index {pos} out of range for length {}", self.len);
        if value {
            self.words[pos >> 6] |= 1u64 << (pos & 63);
        } else {
            self.words[pos >> 6] &= !(1u64 << (pos & 63));
        }
    }

    /// Returns `true` if any bit is set.
    ///
    /// This is the paper's control-flow condition (`popcount > 0`).
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Positions of all set bits, ascending.
    pub fn positions(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count_ones());
        for (wi, &w) in self.words.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push(wi * 64 + b);
                bits &= bits - 1;
            }
        }
        out
    }

    /// Bitwise AND. Both streams must have equal length.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn and(&self, other: &BitStream) -> BitStream {
        self.zip(other, |a, b| a & b)
    }

    /// Bitwise OR.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn or(&self, other: &BitStream) -> BitStream {
        self.zip(other, |a, b| a | b)
    }

    /// Bitwise XOR.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn xor(&self, other: &BitStream) -> BitStream {
        self.zip(other, |a, b| a ^ b)
    }

    /// `self & !other` (AND-NOT).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn and_not(&self, other: &BitStream) -> BitStream {
        self.zip(other, |a, b| a & !b)
    }

    /// [`BitStream::and`] into a reusable output: `out` is reshaped to
    /// this stream's length (reusing its allocation) and overwritten.
    /// `out` must not alias either operand.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn and_into(&self, other: &BitStream, out: &mut BitStream) {
        self.zip_reuse(other, out, |a, b| a & b)
    }

    /// [`BitStream::or`] into a reusable output (see [`BitStream::and_into`]).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn or_into(&self, other: &BitStream, out: &mut BitStream) {
        self.zip_reuse(other, out, |a, b| a | b)
    }

    /// [`BitStream::xor`] into a reusable output (see [`BitStream::and_into`]).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn xor_into(&self, other: &BitStream, out: &mut BitStream) {
        self.zip_reuse(other, out, |a, b| a ^ b)
    }

    /// [`BitStream::not`] into a reusable output.
    pub fn not_into(&self, out: &mut BitStream) {
        out.reshape(self.len);
        for (o, &w) in out.words.iter_mut().zip(&self.words) {
            *o = !w;
        }
        out.mask_tail();
    }

    /// [`BitStream::add`] into a reusable output. `out` must not alias
    /// either operand.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn add_into(&self, other: &BitStream, out: &mut BitStream) {
        assert_eq!(
            self.len, other.len,
            "bitstream length mismatch: {} vs {}",
            self.len, other.len
        );
        out.reshape(self.len);
        wide::add_into(&self.words, &other.words, &mut out.words, false);
        out.mask_tail();
    }

    /// [`BitStream::advance`] into a reusable output. `out` must not
    /// alias `self`.
    pub fn advance_into(&self, k: usize, out: &mut BitStream) {
        out.reshape(self.len);
        if k == 0 {
            out.words.copy_from_slice(&self.words);
            return;
        }
        if k >= self.len {
            out.words.fill(0);
            return;
        }
        let ws = k >> 6;
        // The kernel writes every word at or above `ws`; only the
        // vacated low words need explicit zeros on a reused buffer.
        out.words[..ws].fill(0);
        wide::advance_into(&self.words, &mut out.words, ws, (k & 63) as u32);
        out.mask_tail();
    }

    /// [`BitStream::retreat`] into a reusable output. `out` must not
    /// alias `self`.
    pub fn retreat_into(&self, k: usize, out: &mut BitStream) {
        out.reshape(self.len);
        if k == 0 {
            out.words.copy_from_slice(&self.words);
            return;
        }
        if k >= self.len {
            out.words.fill(0);
            return;
        }
        let ws = k >> 6;
        // The kernel writes words below `len - ws`; the vacated high
        // words need explicit zeros on a reused buffer.
        let m = self.words.len() - ws;
        out.words[m..].fill(0);
        wide::retreat_into(&self.words, &mut out.words, ws, (k & 63) as u32);
    }

    /// Copies `other` into `self`, reusing `self`'s allocation.
    pub fn copy_from(&mut self, other: &BitStream) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
        self.len = other.len;
    }

    /// Resizes to `len` bit positions reusing the allocation, leaving
    /// existing word contents arbitrary — callers overwrite every word.
    fn reshape(&mut self, len: usize) {
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    fn zip_reuse(
        &self,
        other: &BitStream,
        out: &mut BitStream,
        f: impl Fn(u64, u64) -> u64 + Copy,
    ) {
        assert_eq!(
            self.len, other.len,
            "bitstream length mismatch: {} vs {}",
            self.len, other.len
        );
        out.reshape(self.len);
        wide::zip_into(&self.words, &other.words, &mut out.words, f);
        out.mask_tail();
    }

    /// Long-stream addition: treats both streams as little-endian
    /// integers (bit 0 least significant) and adds them, truncating to
    /// the stream length. Carries ripple toward higher positions — the
    /// Parabix primitive behind the `MatchStar` while-free Kleene star.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn add(&self, other: &BitStream) -> BitStream {
        assert_eq!(
            self.len, other.len,
            "bitstream length mismatch: {} vs {}",
            self.len, other.len
        );
        let mut words = vec![0u64; self.words.len()];
        wide::add_into(&self.words, &other.words, &mut words, false);
        let mut s = BitStream { words, len: self.len };
        s.mask_tail();
        s
    }

    /// Length in bits of the longest run of set bits (zero for an empty
    /// or all-zero stream). This bounds how far a carry can propagate
    /// through [`BitStream::add`] when the other operand marks positions
    /// inside these runs.
    pub fn longest_run(&self) -> usize {
        let mut best = 0usize;
        let mut current = 0usize;
        for i in 0..self.len {
            if self.get(i) {
                current += 1;
                best = best.max(current);
            } else {
                current = 0;
            }
        }
        best
    }

    /// Bitwise NOT within the stream's length.
    pub fn not(&self) -> BitStream {
        let mut out = self.clone();
        for w in out.words.iter_mut() {
            *w = !*w;
        }
        out.mask_tail();
        out
    }

    /// Moves every set bit `k` positions toward higher indices; bits pushed
    /// past the end are dropped, vacated low positions become zero.
    ///
    /// This is the paper's `S >> k` (marker advance) used by concatenation.
    pub fn advance(&self, k: usize) -> BitStream {
        if k == 0 {
            return self.clone();
        }
        let mut out = BitStream::zeros(self.len);
        if k >= self.len {
            return out;
        }
        wide::advance_into(&self.words, &mut out.words, k >> 6, (k & 63) as u32);
        out.mask_tail();
        out
    }

    /// Moves every set bit `k` positions toward lower indices; bits pushed
    /// below position 0 are dropped.
    ///
    /// This is the paper's `S << k`, introduced by operand rewriting.
    pub fn retreat(&self, k: usize) -> BitStream {
        if k == 0 {
            return self.clone();
        }
        let mut out = BitStream::zeros(self.len);
        if k >= self.len {
            return out;
        }
        wide::retreat_into(&self.words, &mut out.words, k >> 6, (k & 63) as u32);
        out
    }

    /// [`BitStream::advance`] with carry injection, into a reusable
    /// output: the `k` vacated low positions are filled from `hist`, the
    /// last `k` bits of the stream's history before this window as words
    /// (bit *i* of `hist` is the stream's value at global position
    /// `window_start - k + i`; bits past `k` clear). `out` must not alias
    /// `self`.
    ///
    /// This is the streaming form of the paper's cross-block shift
    /// dependency: the carry-out of chunk *k* becomes the carry-in of
    /// chunk *k+1*.
    ///
    /// # Panics
    ///
    /// Panics if `hist` is not the `k.div_ceil(64)` words of a `k`-bit
    /// history.
    pub fn advance_with_carry_into(&self, k: usize, hist: &[u64], out: &mut BitStream) {
        assert_eq!(
            hist.len(),
            k.div_ceil(64),
            "carry history holds {} words, shift needs {k} bits",
            hist.len()
        );
        self.advance_into(k, out);
        // The low min(k, len) positions of `out` are zero, and `hist`
        // keeps bits past `k` clear, so a word-wise OR injects the carry.
        for (o, &h) in out.words.iter_mut().zip(hist) {
            *o |= h;
        }
        out.mask_tail();
    }

    /// Rolls a `width`-bit shift-carry history forward by one window,
    /// ORing the result into `acc`: the last `width` bits of the sequence
    /// `prev ++ self[0..consumed)`. Loop trips accumulate one slot's
    /// outgoing history this way. `prev` and `acc` are the history's
    /// words, bits past `width` clear.
    ///
    /// `prev` is the history entering this window and `consumed` is how
    /// many positions of `self` became final (the chunk length — the
    /// window's provisional peek position is excluded).
    ///
    /// # Panics
    ///
    /// Panics if `prev` or `acc` is not `width.div_ceil(64)` words long,
    /// or `consumed > self.len()`.
    pub fn or_history_tail(&self, prev: &[u64], width: usize, consumed: usize, acc: &mut [u64]) {
        assert!(consumed <= self.len, "{consumed} consumed positions of {}", self.len);
        history_tail(&self.words, 0, prev, width, consumed, acc);
    }

    /// [`BitStream::or_history_tail`] of a `len`-bit stream known only by
    /// the `last` two of its words, older first — what a
    /// [`FusedStage`] keeps of its advance's input, which is never stored.
    /// Two words reach back far enough for the histories such a step
    /// carries (at most 63 bits).
    ///
    /// # Panics
    ///
    /// Panics if `width` exceeds 63 bits, `prev` or `acc` is not
    /// `width.div_ceil(64)` words long, or `consumed > len`.
    pub fn or_history_tail_of(
        last: [u64; 2],
        len: usize,
        prev: &[u64],
        width: usize,
        consumed: usize,
        acc: &mut [u64],
    ) {
        assert!(width < 64, "a fused advance carries at most 63 bits, not {width}");
        assert!(consumed <= len, "{consumed} consumed positions of {len}");
        let words = len.div_ceil(64);
        // A window of two words or more whose tail lies in the two kept —
        // every window a fused pass runs but a one-word one: one funnel
        // shift of the two.
        if let ([_], [acc], 2..) = (prev, &mut *acc, words) {
            if let Some(from) = consumed.checked_sub(width + (words - 2) * 64) {
                let kept = u128::from(last[1]) << 64 | u128::from(last[0]);
                *acc |= (kept >> from) as u64 & ((1 << width) - 1);
                return;
            }
        }
        match words {
            0 => history_tail(&[], 0, prev, width, consumed, acc),
            1 => history_tail(&last[1..], 0, prev, width, consumed, acc),
            words => history_tail(&last, words - 2, prev, width, consumed, acc),
        }
    }

    /// Runs `stages` over this stream and ANDs `tail` onto the result, in
    /// one pass into a reusable output (see [`FusedStage`]): `out` is
    /// reshaped to this stream's length and overwritten, bit for bit what
    /// one [`BitStream::and_into`] and one
    /// [`BitStream::advance_with_carry_into`] per stage would leave there,
    /// without the streams in between. `out` must not alias an operand.
    ///
    /// # Panics
    ///
    /// Panics if an operand's length differs or there are more than 64
    /// stages.
    pub fn fused_into(
        &self,
        stages: &mut [FusedStage<'_>],
        tail: Option<&BitStream>,
        out: &mut BitStream,
    ) {
        assert!(stages.len() <= 64, "a fused pass runs at most 64 stages, not {}", stages.len());
        let tail = tail.map(|tail| &tail.words[..]);
        for operand in stages.iter().filter_map(FusedStage::and_words).chain(tail) {
            assert_eq!(
                operand.len(),
                self.words.len(),
                "bitstream length mismatch: {} vs {} words",
                self.words.len(),
                operand.len()
            );
        }
        out.reshape(self.len);
        wide::fused_into(&self.words, stages, tail, &mut out.words);
        out.mask_tail();
    }

    /// [`BitStream::add`] with an explicit carry bit injected below bit 0,
    /// into a reusable output. Returns the carry *into* bit `boundary`
    /// (computed from bits `0..boundary` plus `carry_in` only, at word
    /// granularity with a partial-word mask). `out` must not alias either
    /// operand.
    ///
    /// Streaming uses `boundary = len - 1` (the window's peek position):
    /// that carry is exactly the carry-in the next window must inject at
    /// its bit 0.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or `boundary >= len`.
    pub fn add_with_carry_into(
        &self,
        other: &BitStream,
        carry_in: bool,
        boundary: usize,
        out: &mut BitStream,
    ) -> bool {
        assert_eq!(
            self.len, other.len,
            "bitstream length mismatch: {} vs {}",
            self.len, other.len
        );
        assert!(boundary < self.len, "carry boundary {boundary} out of range for {}", self.len);
        let bword = boundary >> 6;
        let bbit = boundary & 63;
        out.reshape(self.len);
        let words = &mut out.words;
        // Add in two word-group runs split at the boundary word: the
        // carry entering that word is exact, and the boundary carry is
        // recovered from it with a partial-word masked sum.
        let carry =
            wide::add_into(&self.words[..bword], &other.words[..bword], &mut words[..bword], carry_in);
        let boundary_carry = if bbit == 0 {
            carry
        } else {
            // (a & mask) + (b & mask) + carry < 2^(bbit+1), so bit
            // `bbit` of the masked sum is the carry into `boundary`.
            let mask = (1u64 << bbit) - 1;
            let a = self.words[bword];
            let b = other.words[bword];
            ((a & mask) + (b & mask) + u64::from(carry)) >> bbit & 1 == 1
        };
        wide::add_into(&self.words[bword..], &other.words[bword..], &mut words[bword..], carry);
        out.mask_tail();
        boundary_carry
    }

    /// Extracts `len` bits starting at `start` into a new stream.
    ///
    /// Positions past the end of `self` read as zero, so windows may extend
    /// beyond the stream (the interleaved executor relies on this for its
    /// right-overlap extension).
    pub fn slice(&self, start: usize, len: usize) -> BitStream {
        let mut out = BitStream::zeros(len);
        // Word-wise funnel gather; bits past the end of `self` read zero
        // both from the buffer bound and from the tail-masking invariant.
        for (i, w) in out.words.iter_mut().enumerate() {
            *w = wide::gather_word(&self.words, start + (i << 6));
        }
        out.mask_tail();
        out
    }

    /// ORs the first `min(self.len(), other.len())` bits of `other` into
    /// `self`.
    ///
    /// This is the one shared home of final-partial-word clipping: a
    /// window stream one peek position longer than its chunk (or any
    /// other overhanging stream) is accumulated into a chunk-length
    /// union by masking the overhang out of the last word — previously
    /// duplicated as `resized`-then-`or` by the executor and the
    /// `cpu_bitstream` baseline, with an allocation per call.
    pub fn or_clipped(&mut self, other: &BitStream) {
        let nbits = self.len.min(other.len);
        let full = nbits >> 6;
        let rem = nbits & 63;
        wide::zip_assign(&mut self.words[..full], &other.words[..full], |a, b| a | b);
        if rem != 0 {
            self.words[full] |= other.words[full] & wide::low_mask(rem);
        }
    }

    /// In-place [`BitStream::or`]: `self |= other` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn or_assign(&mut self, other: &BitStream) {
        assert_eq!(
            self.len, other.len,
            "bitstream length mismatch: {} vs {}",
            self.len, other.len
        );
        wide::zip_assign(&mut self.words, &other.words, |a, b| a | b);
    }

    /// ORs a raw word into word `idx` (bit positions `idx * 64 ..`);
    /// bits past the logical length are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the stream's word count.
    pub fn or_word(&mut self, idx: usize, word: u64) {
        self.words[idx] |= word;
        self.mask_tail();
    }

    /// Returns a copy with the given length: truncating drops high
    /// positions, extending appends zeros.
    pub fn resized(&self, new_len: usize) -> BitStream {
        let mut words = self.words.clone();
        words.resize(new_len.div_ceil(64), 0);
        let mut s = BitStream { words, len: new_len };
        s.mask_tail();
        s
    }

    /// Read-only view of the underlying words (little-endian bit order:
    /// bit *i* lives in word `i / 64` at bit `i % 64`).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Builds a stream from raw words; bits past `len` are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `words` is shorter than `len` requires.
    pub fn from_words(words: Vec<u64>, len: usize) -> BitStream {
        assert!(
            words.len() >= len.div_ceil(64),
            "{} words cannot hold {len} bits",
            words.len()
        );
        let mut s = BitStream { words, len };
        s.words.truncate(len.div_ceil(64));
        s.mask_tail();
        s
    }

    /// Resets this stream in place to `new_len` zero bits, reusing the
    /// existing word allocation when it is large enough.
    ///
    /// Equivalent to `*self = BitStream::zeros(new_len)` but without a
    /// fresh heap allocation for same-or-smaller sizes, which lets scan
    /// sessions recycle scratch streams across calls.
    pub fn reset_zeros(&mut self, new_len: usize) {
        let nwords = new_len.div_ceil(64);
        self.words.clear();
        self.words.resize(nwords, 0);
        self.len = new_len;
    }

    /// Resets this stream in place to `new_len` one bits — the in-place
    /// [`BitStream::ones`], reusing the allocation like
    /// [`BitStream::reset_zeros`].
    pub fn reset_ones(&mut self, new_len: usize) {
        self.words.clear();
        self.words.resize(new_len.div_ceil(64), u64::MAX);
        self.len = new_len;
        self.mask_tail();
    }

    /// Writes raw word `idx` (covering bit positions `idx * 64 ..`);
    /// bits that fall past the logical length are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the stream's word count.
    pub fn set_word(&mut self, idx: usize, word: u64) {
        self.words[idx] = word;
        self.mask_tail();
    }

    /// Number of words the underlying allocation can hold without
    /// reallocating. Exposed so buffer-reuse tests can assert that
    /// repeated scans of same-sized inputs stop growing the heap.
    pub fn capacity_words(&self) -> usize {
        self.words.capacity()
    }

    fn zip(&self, other: &BitStream, f: impl Fn(u64, u64) -> u64 + Copy) -> BitStream {
        assert_eq!(
            self.len, other.len,
            "bitstream length mismatch: {} vs {}",
            self.len, other.len
        );
        let mut words = vec![0u64; self.words.len()];
        wide::zip_into(&self.words, &other.words, &mut words, f);
        let mut s = BitStream { words, len: self.len };
        s.mask_tail();
        s
    }

    /// Mutable view of the underlying words for same-crate kernels that
    /// fill a stream word-wise (the class-circuit evaluator); callers
    /// must re-establish the tail-masking invariant via
    /// [`BitStream::mask_tail`] when they touch the last word.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Clears any bits beyond the logical length.
    pub(crate) fn mask_tail(&mut self) {
        let rem = self.len & 63;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// ORs into `acc` the last `k` bits of `prev ++ src[0..consumed)`, where
/// `prev` and `acc` are `k`-bit histories as words and `words` are
/// `src`'s words from word `base` on. `src` is read only below
/// `consumed`, and `base` must be low enough for that tail to start
/// inside `words`.
fn history_tail(
    words: &[u64],
    base: usize,
    prev: &[u64],
    k: usize,
    consumed: usize,
    acc: &mut [u64],
) {
    let nwords = k.div_ceil(64);
    assert_eq!(prev.len(), nwords, "carry history holds {} words, slot needs {k} bits", prev.len());
    assert_eq!(acc.len(), nwords, "accumulator holds {} words, slot needs {k} bits", acc.len());
    // Word `i` of the tail is 64 bits of `prev ++ src` from position
    // `consumed + 64 i`; the tail ends where the consumed positions do.
    for (i, w) in acc.iter_mut().enumerate() {
        let p = consumed + (i << 6);
        *w |= if p >= k {
            wide::gather_word(words, p - k - (base << 6))
        } else {
            debug_assert_eq!(base, 0, "a tail reaching into `prev` starts at word 0");
            let from_prev = wide::gather_word(prev, p);
            match (k - p, words.first()) {
                (gap, Some(&first)) if gap < 64 => from_prev | first << gap,
                _ => from_prev,
            }
        };
    }
    let rem = k & 63;
    if rem != 0 {
        if let Some(last) = acc.last_mut() {
            *last &= (1u64 << rem) - 1;
        }
    }
}

impl fmt::Debug for BitStream {
    /// Prints the stream the way the paper's figures do: position 0 first,
    /// zeros as dots.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitStream<{}>[", self.len)?;
        let shown = self.len.min(128);
        for i in 0..shown {
            write!(f, "{}", if self.get(i) { '1' } else { '.' })?;
        }
        if shown < self.len {
            write!(f, "...")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitStream::zeros(100);
        assert_eq!(z.len(), 100);
        assert!(!z.any());
        assert_eq!(z.count_ones(), 0);
        let o = BitStream::ones(100);
        assert!(o.any());
        assert_eq!(o.count_ones(), 100);
        assert!(o.get(99));
    }

    #[test]
    fn ones_masks_tail() {
        let o = BitStream::ones(65);
        assert_eq!(o.count_ones(), 65);
        assert_eq!(o.as_words()[1], 1);
    }

    #[test]
    fn set_get_positions() {
        let mut s = BitStream::zeros(130);
        s.set(0, true);
        s.set(64, true);
        s.set(129, true);
        assert_eq!(s.positions(), vec![0, 64, 129]);
        s.set(64, false);
        assert_eq!(s.positions(), vec![0, 129]);
        assert!(s.get(0));
        assert!(!s.get(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitStream::zeros(10).get(10);
    }

    #[test]
    fn boolean_ops() {
        let a = BitStream::from_positions(10, &[1, 3, 5]);
        let b = BitStream::from_positions(10, &[3, 5, 7]);
        assert_eq!(a.and(&b).positions(), vec![3, 5]);
        assert_eq!(a.or(&b).positions(), vec![1, 3, 5, 7]);
        assert_eq!(a.xor(&b).positions(), vec![1, 7]);
        assert_eq!(a.and_not(&b).positions(), vec![1]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = BitStream::zeros(10).and(&BitStream::zeros(11));
    }

    #[test]
    fn add_ripples_carries() {
        // 0b0111 + 0b0001 = 0b1000.
        let a = BitStream::from_positions(8, &[0, 1, 2]);
        let b = BitStream::from_positions(8, &[0]);
        assert_eq!(a.add(&b).positions(), vec![3]);
    }

    #[test]
    fn add_carries_across_words() {
        let a = BitStream::from_positions(130, &(0..64).collect::<Vec<_>>());
        let b = BitStream::from_positions(130, &[0]);
        assert_eq!(a.add(&b).positions(), vec![64]);
        // Carry across two word boundaries.
        let c = BitStream::from_positions(200, &(10..140).collect::<Vec<_>>());
        let d = BitStream::from_positions(200, &[10]);
        assert_eq!(c.add(&d).positions(), vec![140]);
    }

    #[test]
    fn add_truncates_at_length() {
        let a = BitStream::from_positions(4, &[3]);
        let b = BitStream::from_positions(4, &[3]);
        assert_eq!(a.add(&b).positions(), Vec::<usize>::new());
    }

    #[test]
    fn add_disjoint_is_or() {
        let a = BitStream::from_positions(32, &[1, 5]);
        let b = BitStream::from_positions(32, &[2, 9]);
        assert_eq!(a.add(&b), a.or(&b));
    }

    #[test]
    fn longest_run_cases() {
        assert_eq!(BitStream::zeros(50).longest_run(), 0);
        assert_eq!(BitStream::ones(50).longest_run(), 50);
        let s = BitStream::from_positions(100, &[1, 2, 3, 60, 61, 62, 63, 64, 65, 99]);
        assert_eq!(s.longest_run(), 6);
    }

    #[test]
    fn not_respects_length() {
        let s = BitStream::from_positions(66, &[0, 65]);
        let n = s.not();
        assert_eq!(n.count_ones(), 64);
        assert!(!n.get(0));
        assert!(n.get(1));
        assert!(!n.get(65));
        assert_eq!(n.not(), s);
    }

    #[test]
    fn advance_within_word() {
        let s = BitStream::from_positions(16, &[0, 5]);
        assert_eq!(s.advance(1).positions(), vec![1, 6]);
        assert_eq!(s.advance(0), s);
    }

    #[test]
    fn advance_across_words() {
        let s = BitStream::from_positions(200, &[63, 64, 130]);
        assert_eq!(s.advance(1).positions(), vec![64, 65, 131]);
        assert_eq!(s.advance(64).positions(), vec![127, 128, 194]);
        assert_eq!(s.advance(70).positions(), vec![133, 134]);
    }

    #[test]
    fn advance_drops_bits_past_end() {
        let s = BitStream::from_positions(10, &[8, 9]);
        assert_eq!(s.advance(1).positions(), vec![9]);
        assert_eq!(s.advance(2).positions(), Vec::<usize>::new());
        assert_eq!(s.advance(100).positions(), Vec::<usize>::new());
    }

    #[test]
    fn retreat_basic() {
        let s = BitStream::from_positions(200, &[0, 64, 131]);
        assert_eq!(s.retreat(1).positions(), vec![63, 130]);
        assert_eq!(s.retreat(64).positions(), vec![0, 67]);
        assert_eq!(s.retreat(0), s);
        assert_eq!(s.retreat(500).positions(), Vec::<usize>::new());
    }

    #[test]
    fn advance_then_retreat_is_lossy_only_at_edges() {
        let s = BitStream::from_positions(100, &[10, 50, 99]);
        assert_eq!(s.advance(5).retreat(5).positions(), vec![10, 50]);
        assert_eq!(s.retreat(5).advance(5).positions(), vec![10, 50, 99]);
    }

    #[test]
    fn slice_reads_zeros_past_the_end() {
        let s = BitStream::from_positions(100, &[10, 20, 90]);
        let w = s.slice(15, 20);
        assert_eq!(w.positions(), vec![5]);
        // Slicing past the end reads zeros.
        let tail = s.slice(85, 30);
        assert_eq!(tail.positions(), vec![5]);
    }

    #[test]
    fn slice_matches_retreat_prefix() {
        let s = BitStream::from_positions(128, &[3, 64, 127]);
        let w = s.slice(3, 125);
        assert_eq!(w.positions(), vec![0, 61, 124]);
    }

    #[test]
    fn resized_extends_and_truncates() {
        let s = BitStream::from_positions(10, &[0, 9]);
        let big = s.resized(70);
        assert_eq!(big.len(), 70);
        assert_eq!(big.positions(), vec![0, 9]);
        let small = s.resized(9);
        assert_eq!(small.positions(), vec![0]);
        assert_eq!(small.resized(10), BitStream::from_positions(10, &[0]));
    }

    #[test]
    fn from_words_round_trip() {
        let s = BitStream::from_words(vec![0b1011, 0], 70);
        assert_eq!(s.positions(), vec![0, 1, 3]);
        assert_eq!(s.as_words().len(), 2);
    }

    #[test]
    fn from_words_clears_tail() {
        let s = BitStream::from_words(vec![u64::MAX], 4);
        assert_eq!(s.count_ones(), 4);
    }

    #[test]
    fn debug_uses_paper_notation() {
        let s = BitStream::from_positions(6, &[5]);
        assert_eq!(format!("{s:?}"), "BitStream<6>[.....1]");
    }

    /// The `_into` / accumulate forms on a fresh buffer: the carry-aware
    /// kernels as values, for assertions.
    fn advance_with_carry(s: &BitStream, k: usize, hist: &BitStream) -> BitStream {
        let mut out = BitStream::default();
        s.advance_with_carry_into(k, hist.as_words(), &mut out);
        out
    }

    fn history_tail(window: &BitStream, prev: &BitStream, consumed: usize) -> BitStream {
        let mut next = BitStream::zeros(prev.len());
        window.or_history_tail(prev.as_words(), prev.len(), consumed, &mut next.words);
        next
    }

    fn add_with_carry(
        a: &BitStream,
        b: &BitStream,
        carry_in: bool,
        boundary: usize,
    ) -> (BitStream, bool) {
        let mut sum = BitStream::default();
        let carry = a.add_with_carry_into(b, carry_in, boundary, &mut sum);
        (sum, carry)
    }

    #[test]
    fn advance_with_carry_fills_vacated_positions() {
        let s = BitStream::from_positions(8, &[0, 5]);
        let hist = BitStream::from_positions(3, &[1]);
        // advance(3) gives {3}, carry injects hist bit 1 at position 1.
        assert_eq!(advance_with_carry(&s, 3, &hist).positions(), vec![1, 3]);
        // Shift larger than the window: only the low window-size bits of
        // the history land; the rest stays in the rolled history.
        let wide = BitStream::from_positions(10, &[0, 9]);
        assert_eq!(advance_with_carry(&BitStream::zeros(4), 10, &wide).positions(), vec![0]);
        // Zero-length history == plain advance.
        assert_eq!(advance_with_carry(&s, 0, &BitStream::zeros(0)), s);
    }

    #[test]
    fn advance_with_carry_word_boundaries() {
        let s = BitStream::from_positions(200, &[0, 68]);
        let hist = BitStream::from_positions(70, &[0, 63, 69]);
        let out = advance_with_carry(&s, 70, &hist);
        assert_eq!(out.positions(), vec![0, 63, 69, 70, 138]);
    }

    #[test]
    fn history_tail_rolls_forward() {
        // Window consumed more bits than the history is wide: pure slice.
        let w = BitStream::from_positions(10, &[2, 7, 9]);
        let prev = BitStream::from_positions(3, &[0]);
        // consumed = 9 of 10 (last bit is the peek): last 3 of bits 0..9.
        assert_eq!(history_tail(&w, &prev, 9).positions(), vec![1]); // bit 7 -> index 1
        // Chunk smaller than the shift: old history shifts down, new bits
        // append at the top.
        let tiny = BitStream::from_positions(2, &[0]);
        let prev5 = BitStream::from_positions(5, &[0, 4]);
        // sequence = prev5 ++ tiny[0..1) = 1,0,0,0,1,1 — last 5 = 0,0,0,1,1.
        let next = history_tail(&tiny, &prev5, 1);
        // prev5 bits 1..5 = {4}->index 3; appended tiny[0]=1 at index 4.
        assert_eq!(next.positions(), vec![3, 4]);
        // Consuming zero positions leaves the history untouched.
        assert_eq!(history_tail(&tiny, &prev5, 0), prev5);
    }

    /// Deterministic pseudo-random stream (64-bit LCG), tail masked.
    fn noise(len: usize, seed: u64) -> BitStream {
        let mut x = seed | 1;
        let words = (0..len.div_ceil(64))
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                x
            })
            .collect();
        BitStream::from_words(words, len)
    }

    #[test]
    fn or_history_tail_agrees_with_the_bitwise_definition() {
        // Tail bit `t` is position `consumed + t` of `prev ++ window`,
        // for histories narrower than, equal to and wider than a word,
        // against chunks shorter and longer than the history.
        for k in [1usize, 3, 63, 64, 65, 130] {
            for len in [1usize, 2, 5, 64, 65, 131, 300] {
                let window = noise(len, (k * 1000 + len) as u64);
                let prev = noise(k, (k + 7 * len) as u64);
                for consumed in [0, len / 2, len - 1] {
                    let mut want = BitStream::zeros(k);
                    for t in 0..k {
                        let p = consumed + t;
                        let bit = if p < k { prev.get(p) } else { window.get(p - k) };
                        want.set(t, bit);
                    }
                    assert_eq!(
                        history_tail(&window, &prev, consumed),
                        want,
                        "k {k} len {len} consumed {consumed}"
                    );
                    // Accumulating ORs into what the slot already holds.
                    let held = noise(k, 99);
                    let mut acc = held.clone();
                    window.or_history_tail(prev.as_words(), k, consumed, &mut acc.words);
                    assert_eq!(acc, held.or(&want), "k {k} len {len} consumed {consumed}");
                }
            }
        }
    }

    /// Runs `shape` — per stage whether it ANDs `operands[i]`, and its
    /// amount — over `first` fused, and checks the result and the input
    /// tail each advance keeps against every step materialised.
    fn check_fused(
        first: &BitStream,
        shape: &[(bool, u32)],
        operands: &[BitStream],
        and_tail: bool,
        what: &str,
    ) {
        let len = first.len();
        let hists: Vec<BitStream> =
            shape.iter().enumerate().map(|(i, &(_, k))| noise(k as usize, 17 + i as u64)).collect();
        let tail = and_tail.then(|| &operands[shape.len()]);
        let mut stages: Vec<FusedStage<'_>> = shape
            .iter()
            .enumerate()
            .map(|(i, &(and, k))| {
                let word = hists[i].as_words().first().copied().unwrap_or(0);
                FusedStage::new(and.then(|| &operands[i]), k, word)
            })
            .collect();
        let mut fused = noise(len + 70, 9);
        first.fused_into(&mut stages, tail, &mut fused);

        let mut value = first.clone();
        let mut next = BitStream::default();
        for (i, (&(and, k), stage)) in shape.iter().zip(&stages).enumerate() {
            if and {
                value.and_into(&operands[i], &mut next);
                std::mem::swap(&mut value, &mut next);
            }
            for consumed in [len - 1, len] {
                let mut want = noise(k as usize, 3);
                let mut got = want.clone();
                value.or_history_tail(hists[i].as_words(), k as usize, consumed, &mut want.words);
                BitStream::or_history_tail_of(
                    stage.last(),
                    len,
                    hists[i].as_words(),
                    k as usize,
                    consumed,
                    &mut got.words,
                );
                assert_eq!(got, want, "{what}: stage {i}");
            }
            value.advance_with_carry_into(k as usize, hists[i].as_words(), &mut next);
            std::mem::swap(&mut value, &mut next);
        }
        if let Some(tail) = tail {
            value.and_into(tail, &mut next);
            std::mem::swap(&mut value, &mut next);
        }
        assert_eq!(fused, value, "{what}");
    }

    #[test]
    fn a_fused_pass_is_its_stages_taken_one_stream_at_a_time() {
        // Lengths on both sides of a word and of a word-group, amounts at
        // both ends of the fusable range and all ones, histories longer
        // than the stream.
        let shapes: [&[(bool, u32)]; 4] = [
            &[(true, 1), (true, 1), (true, 1)],
            &[(false, 1)],
            &[(false, 63), (true, 2), (false, 1), (true, 33), (true, 7)],
            &[(true, 5)],
        ];
        for len in [1usize, 2, 3, 62, 63, 64, 65, 127, 128, 129, 511, 512, 513, 577, 1030] {
            for (seed, shape) in shapes.iter().enumerate() {
                let seed = seed as u64;
                let first = noise(len, seed ^ 0x51);
                let operands: Vec<BitStream> =
                    (0..=shape.len() as u64).map(|i| noise(len, seed * 31 + i)).collect();
                // Odd shapes end on an AND.
                let what = format!("len {len} shape {seed}");
                check_fused(&first, shape, &operands, seed % 2 == 1, &what);
            }
        }
    }

    #[test]
    fn a_fused_pass_carries_lone_markers_through_empty_groups() {
        // Markers on both sides of every word-group seam of a stream that
        // is empty otherwise, so groups reach stages empty and are woken
        // only by the word carried in from the group below; the operands
        // let everything, nothing, or every other group through.
        let len = 4 * 512 + 130;
        let seams: Vec<usize> = (1..=4).flat_map(|g| [g * 512 - 2, g * 512 - 1, g * 512]).collect();
        let ends = [0, 63, 64, len - 2, len - 1];
        let first = BitStream::from_positions(len, &[&seams[..], &ends].concat());
        let every_other = BitStream::from_positions(
            len,
            &(0..len).filter(|p| (p / 512) % 2 == 0).collect::<Vec<_>>(),
        );
        let operands =
            [BitStream::ones(len), every_other, BitStream::zeros(len), BitStream::ones(len)];
        for shape in [
            &[(false, 1), (false, 1), (false, 1)][..],
            &[(true, 1), (false, 63), (false, 2)],
            &[(false, 1), (true, 1), (false, 1)],
            &[(false, 2), (false, 1), (true, 1)],
            // A literal's length: a marker crosses a seam at one stage and
            // the groups in between skip every stage that holds nothing.
            &[(false, 1); 16],
            &[(true, 1), (false, 1), (true, 1), (false, 1), (false, 1), (true, 1), (false, 3)],
        ] {
            for and_tail in [false, true] {
                let what = format!("{shape:?} tail {and_tail}");
                let operands: Vec<BitStream> =
                    operands.iter().cycle().take(shape.len() + 1).cloned().collect();
                check_fused(&first, shape, &operands, and_tail, &what);
            }
        }
    }

    #[test]
    #[should_panic(expected = "1..=63")]
    fn a_fused_advance_stays_inside_one_word() {
        let _ = FusedStage::new(None, 64, 0);
    }

    #[test]
    #[should_panic(expected = "at most 64 stages")]
    fn a_fused_pass_runs_at_most_64_stages() {
        let first = BitStream::ones(100);
        let mut stages: Vec<FusedStage<'_>> = (0..65).map(|_| FusedStage::IDLE).collect();
        first.fused_into(&mut stages, None, &mut BitStream::default());
    }

    #[test]
    fn into_forms_overwrite_a_dirty_buffer_of_another_shape() {
        let a = noise(200, 1);
        let b = noise(200, 2);
        let hist = noise(70, 3);
        for dirty_len in [0usize, 64, 200, 1000] {
            let mut out = noise(dirty_len, 4);
            a.advance_with_carry_into(70, hist.as_words(), &mut out);
            let mut want = a.advance(70);
            want.or_clipped(&hist);
            assert_eq!(out, want, "dirty {dirty_len}");

            let mut out = noise(dirty_len, 5);
            let carry = a.add_with_carry_into(&b, true, 199, &mut out);
            let (sum, want_carry) = add_with_carry(&a, &b, true, 199);
            assert_eq!((out, carry), (sum, want_carry), "dirty {dirty_len}");

            let mut out = noise(dirty_len, 6);
            out.reset_ones(130);
            assert_eq!(out, BitStream::ones(130));
        }
    }

    #[test]
    fn add_with_carry_matches_plain_add_without_carry() {
        let a = BitStream::from_positions(130, &(0..64).collect::<Vec<_>>());
        let b = BitStream::from_positions(130, &[0]);
        let (sum, _) = add_with_carry(&a, &b, false, 129);
        assert_eq!(sum, a.add(&b));
    }

    #[test]
    fn add_with_carry_injects_low_bit() {
        // 0b0011 + 0 + carry = 0b0100.
        let a = BitStream::from_positions(8, &[0, 1]);
        let z = BitStream::zeros(8);
        let (sum, _) = add_with_carry(&a, &z, true, 7);
        assert_eq!(sum.positions(), vec![2]);
    }

    #[test]
    fn add_with_carry_reports_boundary_carry() {
        // Ripple 0..=5 plus a marker at 0 carries into bit 6.
        let a = BitStream::from_positions(8, &(0..6).collect::<Vec<_>>());
        let b = BitStream::from_positions(8, &[0]);
        let (_, c6) = add_with_carry(&a, &b, false, 6);
        assert!(c6);
        let (_, c7) = add_with_carry(&a, &b, false, 7);
        assert!(!c7);
        // Boundary on an exact word edge: the chain carry out of word 0.
        let long = BitStream::from_positions(130, &(0..64).collect::<Vec<_>>());
        let one = BitStream::from_positions(130, &[0]);
        let (_, c64) = add_with_carry(&long, &one, false, 64);
        assert!(c64);
        let (_, c65) = add_with_carry(&long, &one, false, 65);
        assert!(!c65);
        // The boundary carry must ignore bits at and above the boundary.
        let hi = BitStream::from_positions(130, &[100]);
        let (_, c) = add_with_carry(&hi, &hi, false, 100);
        assert!(!c);
    }

    #[test]
    fn add_with_carry_chains_across_windows() {
        // Splitting an addition at any boundary and re-injecting the
        // boundary carry reproduces the unsplit sum.
        let a = BitStream::from_positions(96, &(10..70).collect::<Vec<_>>());
        let b = BitStream::from_positions(96, &[10]);
        let whole = a.add(&b);
        for split in [11usize, 40, 63, 64, 65, 69, 80] {
            let (lo_a, hi_a) = (a.slice(0, split), a.slice(split, 96 - split));
            let (lo_b, hi_b) = (b.slice(0, split), b.slice(split, 96 - split));
            // Low window: boundary carry at `split` (its end).
            let (lo_sum, carry) = add_with_carry(
                &lo_a.resized(split + 1),
                &lo_b.resized(split + 1),
                false,
                split,
            );
            let (hi_sum, _) = add_with_carry(&hi_a, &hi_b, carry, 96 - split - 1);
            let mut glued = lo_sum.resized(96);
            // Drop the low window's provisional peek bit before gluing.
            glued.set(split, false);
            glued.or_clipped(&hi_sum.resized(96).advance(split));
            assert_eq!(glued, whole, "split at {split}");
        }
    }

    #[test]
    fn or_clipped_drops_overhang() {
        // The usual shape: a window stream one peek bit longer than the
        // chunk-length union it accumulates into.
        let mut union = BitStream::zeros(10);
        let mut win = BitStream::from_positions(11, &[0, 9]);
        win.set(10, true); // provisional peek bit — must be clipped.
        union.or_clipped(&win);
        assert_eq!(union.positions(), vec![0, 9]);
        // Accumulation is an OR, not an overwrite.
        union.or_clipped(&BitStream::from_positions(11, &[5]));
        assert_eq!(union.positions(), vec![0, 5, 9]);
    }

    #[test]
    fn or_clipped_zero_remainder_edge() {
        // min(len) is an exact word multiple: no partial-word mask, and
        // the overhanging word of the source must not leak.
        let mut union = BitStream::zeros(64);
        let mut src = BitStream::from_positions(65, &[0, 63]);
        src.set(64, true);
        union.or_clipped(&src);
        assert_eq!(union.positions(), vec![0, 63]);
        // 128-bit variant crossing a full word.
        let mut u2 = BitStream::zeros(128);
        let mut s2 = BitStream::from_positions(130, &[64, 127]);
        s2.set(128, true);
        s2.set(129, true);
        u2.or_clipped(&s2);
        assert_eq!(u2.positions(), vec![64, 127]);
    }

    #[test]
    fn or_clipped_63_remainder_edge() {
        // min(len) % 64 == 63: every bit of the last word except the
        // top one survives the clip.
        let mut union = BitStream::zeros(63);
        let src = BitStream::from_positions(64, &[0, 61, 62, 63]);
        union.or_clipped(&src);
        assert_eq!(union.positions(), vec![0, 61, 62]);
        let mut u2 = BitStream::zeros(127);
        let s2 = BitStream::from_positions(128, &[63, 125, 126, 127]);
        u2.or_clipped(&s2);
        assert_eq!(u2.positions(), vec![63, 125, 126]);
    }

    #[test]
    fn or_clipped_shorter_source_is_plain_or() {
        let mut dst = BitStream::from_positions(100, &[99]);
        dst.or_clipped(&BitStream::from_positions(70, &[0, 69]));
        assert_eq!(dst.positions(), vec![0, 69, 99]);
    }

    #[test]
    fn or_assign_matches_or() {
        let a = BitStream::from_positions(130, &[0, 64, 129]);
        let b = BitStream::from_positions(130, &[1, 64, 100]);
        let mut c = a.clone();
        c.or_assign(&b);
        assert_eq!(c, a.or(&b));
    }

    #[test]
    fn or_word_masks_tail() {
        let mut s = BitStream::zeros(68);
        s.or_word(1, u64::MAX);
        assert_eq!(s.count_ones(), 4);
        s.or_word(0, 0b101);
        assert_eq!(s.positions(), vec![0, 2, 64, 65, 66, 67]);
    }

    #[test]
    fn slice_wide_agrees_with_bitwise() {
        let s = BitStream::from_positions(300, &[0, 1, 63, 64, 65, 127, 128, 200, 299]);
        for start in [0usize, 1, 37, 63, 64, 65, 290, 300, 400] {
            for len in [0usize, 1, 63, 64, 65, 130] {
                let got = s.slice(start, len);
                let mut expect = BitStream::zeros(len);
                for i in 0..len {
                    if start + i < s.len() && s.get(start + i) {
                        expect.set(i, true);
                    }
                }
                assert_eq!(got, expect, "start={start} len={len}");
            }
        }
    }

    #[test]
    fn zero_length_stream() {
        let s = BitStream::zeros(0);
        assert!(s.is_empty());
        assert!(!s.any());
        assert_eq!(s.advance(3).len(), 0);
        assert_eq!(s.not().count_ones(), 0);
    }
}
