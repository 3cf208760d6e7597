//! Wide-word (`w64x8`) kernels behind the [`BitStream`] hot paths.
//!
//! The paper's CPU reference point (icgrep / Parabix) is a SIMD engine:
//! every bitstream operation runs over a whole SIMD register of `u64`
//! lanes at a time, with shifts and long-stream additions carrying
//! across lane boundaries. This module reproduces that shape on the
//! host. A *word-group* is [`LANES`] consecutive `u64` words; each
//! kernel walks a stream one word-group at a time with the per-lane body
//! unrolled at compile time, which is exactly the code shape LLVM
//! auto-vectorizes into SSE2/AVX2 register ops. The kernel bodies stay
//! generic over the group width `N` so the unit tests can compare the
//! width that runs against `N = 1`, the scalar semantic reference: for
//! every kernel the lane-to-lane combination inside a group is
//! *identical* to the word-to-word combination between groups, so the
//! produced bits do not depend on `N`. That invariant is what keeps
//! streaming carries, checkpoints, and hot-swap generations free of any
//! trace of the grouping — it is an execution detail, never stream
//! state.

use crate::stream::BitStream;

/// Words per word-group: the `N` every kernel entry point below runs at.
///
/// A constant, not a setting, because nothing the code can observe
/// prefers another value. `op_p50_ms` of `benchmark/run.sh`, seeds 1–3,
/// with the group width forced:
///
/// | `N` | serve-bulk | serve-churn | serve-small | batch-scan |
/// |---|---|---|---|---|
/// | 1 | 2.04–2.19 | 1.80 | 0.170 | 0.275 |
/// | 2 | 1.89 | — | — | — |
/// | 4 | 1.30–1.33 | 1.51 | 0.167 | 0.273 |
/// | 8 | 1.20–1.23 | 1.35 | 0.178 | 0.273 |
/// | 8 + explicit SSE2 zips | 1.19–1.24 | — | — | — |
///
/// (`serve-small` pushes one 64-bit word, so its column is noise.)
/// Ungrouped slice loops for the zip and shift kernels measured 4–6 %
/// slower on `serve-bulk` than the grouped ones: the class-circuit
/// interpreter amortises its dispatch over the group, and runs groups of
/// twice this width for that reason (`ccc::CIRCUIT_LANES`).
pub(crate) const LANES: usize = 8;

/// A mask with the `n` lowest bits set (`n <= 64`).
#[inline(always)]
pub(crate) fn low_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Extracts the 64 bits starting at bit `start` of a word buffer; bits
/// past the end of the buffer read as zero.
#[inline(always)]
pub(crate) fn gather_word(words: &[u64], start: usize) -> u64 {
    let idx = start >> 6;
    let off = (start & 63) as u32;
    let lo = words.get(idx).copied().unwrap_or(0);
    if off == 0 {
        lo
    } else {
        let hi = words.get(idx + 1).copied().unwrap_or(0);
        (lo >> off) | (hi << (64 - off))
    }
}

/// `out[i] = f(a[i], b[i])` over `min(len)` words, word-group at a
/// time.
pub(crate) fn zip_into(a: &[u64], b: &[u64], out: &mut [u64], f: impl Fn(u64, u64) -> u64 + Copy) {
    zip_n::<LANES>(a, b, out, f)
}

/// `dst[i] = f(dst[i], src[i])` in place over `min(len)` words.
pub(crate) fn zip_assign(dst: &mut [u64], src: &[u64], f: impl Fn(u64, u64) -> u64 + Copy) {
    zip_assign_n::<LANES>(dst, src, f)
}

fn zip_n<const N: usize>(
    a: &[u64],
    b: &[u64],
    out: &mut [u64],
    f: impl Fn(u64, u64) -> u64 + Copy,
) {
    let mut oc = out.chunks_exact_mut(N);
    let mut ac = a.chunks_exact(N);
    let mut bc = b.chunks_exact(N);
    for ((o, x), y) in (&mut oc).zip(&mut ac).zip(&mut bc) {
        for ((slot, &xv), &yv) in o.iter_mut().zip(x).zip(y) {
            *slot = f(xv, yv);
        }
    }
    for ((slot, &x), &y) in
        oc.into_remainder().iter_mut().zip(ac.remainder()).zip(bc.remainder())
    {
        *slot = f(x, y);
    }
}

fn zip_assign_n<const N: usize>(
    dst: &mut [u64],
    src: &[u64],
    f: impl Fn(u64, u64) -> u64 + Copy,
) {
    let mut dc = dst.chunks_exact_mut(N);
    let mut sc = src.chunks_exact(N);
    for (d, s) in (&mut dc).zip(&mut sc) {
        for (slot, &sv) in d.iter_mut().zip(s) {
            *slot = f(*slot, sv);
        }
    }
    for (slot, &s) in dc.into_remainder().iter_mut().zip(sc.remainder()) {
        *slot = f(*slot, s);
    }
}

/// Long-stream addition `out = a + b + carry_in`, returning the carry
/// out of the last word. The ripple chains lane-to-lane inside each
/// word-group exactly as it chains word-to-word between groups, so the
/// sum — and every streaming boundary carry derived from it — is
/// independent of the group width.
pub(crate) fn add_into(a: &[u64], b: &[u64], out: &mut [u64], carry_in: bool) -> bool {
    add_n::<LANES>(a, b, out, carry_in)
}

fn add_n<const N: usize>(a: &[u64], b: &[u64], out: &mut [u64], carry_in: bool) -> bool {
    let mut carry = u64::from(carry_in);
    let mut oc = out.chunks_exact_mut(N);
    let mut ac = a.chunks_exact(N);
    let mut bc = b.chunks_exact(N);
    for ((o, x), y) in (&mut oc).zip(&mut ac).zip(&mut bc) {
        for ((slot, &xv), &yv) in o.iter_mut().zip(x).zip(y) {
            let (s1, c1) = xv.overflowing_add(yv);
            let (s2, c2) = s1.overflowing_add(carry);
            *slot = s2;
            carry = u64::from(c1 | c2);
        }
    }
    for ((slot, &x), &y) in
        oc.into_remainder().iter_mut().zip(ac.remainder()).zip(bc.remainder())
    {
        let (s1, c1) = x.overflowing_add(y);
        let (s2, c2) = s1.overflowing_add(carry);
        *slot = s2;
        carry = u64::from(c1 | c2);
    }
    carry != 0
}

/// Funnel-shifts `src` toward higher bit positions by
/// `word_shift * 64 + bit_shift` into `out` (same length as `src`).
/// Words below `word_shift` are left untouched — the caller passes a
/// zeroed buffer so vacated positions read zero.
pub(crate) fn advance_into(src: &[u64], out: &mut [u64], word_shift: usize, bit_shift: u32) {
    advance_n::<LANES>(src, out, word_shift, bit_shift)
}

fn advance_n<const N: usize>(src: &[u64], out: &mut [u64], word_shift: usize, bit_shift: u32) {
    let n = out.len();
    if word_shift >= n {
        return;
    }
    if bit_shift == 0 {
        out[word_shift..].copy_from_slice(&src[..n - word_shift]);
        return;
    }
    let inv = 64 - bit_shift;
    out[word_shift] = src[0] << bit_shift;
    // Funnel body: out[ws + 1 + i] = (hi[i] << bs) | (lo[i] >> inv),
    // where lo/hi are adjacent windows of src, word-group at a time.
    let m = n - word_shift - 1;
    let lo = &src[..m];
    let hi = &src[1..m + 1];
    let mut dc = out[word_shift + 1..].chunks_exact_mut(N);
    let mut lc = lo.chunks_exact(N);
    let mut hc = hi.chunks_exact(N);
    for ((d, l), h) in (&mut dc).zip(&mut lc).zip(&mut hc) {
        for ((slot, &lv), &hv) in d.iter_mut().zip(l).zip(h) {
            *slot = (hv << bit_shift) | (lv >> inv);
        }
    }
    for ((slot, &lv), &hv) in
        dc.into_remainder().iter_mut().zip(lc.remainder()).zip(hc.remainder())
    {
        *slot = (hv << bit_shift) | (lv >> inv);
    }
}

/// One stage of a fused pass ([`BitStream::fused_into`]): the running
/// value is ANDed with a stream, if the stage has one, and then advanced
/// — `value = (value & and) >> amount`, a character of a literal.
#[derive(Debug)]
pub struct FusedStage<'a> {
    and: Option<&'a [u64]>,
    amount: u32,
    /// The two most recent words of the advance's input, older first.
    /// Before the pass the carry-in — the `amount` bits of the input's
    /// history — sits in the top bits of `last[1]`, where the funnel
    /// shift pulls it into the vacated low positions; after the pass
    /// these are the input's final two words (a one-word stream leaves
    /// the carry-in in `last[0]`).
    last: [u64; 2],
}

impl<'a> FusedStage<'a> {
    /// Advances by one position, ANDs with nothing and carries nothing
    /// in: the filler of a fixed-size stage list.
    pub const IDLE: FusedStage<'static> = FusedStage { and: None, amount: 1, last: [0, 0] };

    /// `(value & and) >> amount`, the advance's vacated positions filled
    /// from `history`: its low `amount` bits are the advance's input at
    /// the `amount` positions before this stream (`0`: nothing there).
    ///
    /// # Panics
    ///
    /// Panics unless `amount` is in `1..=63`.
    pub fn new(and: Option<&'a BitStream>, amount: u32, history: u64) -> FusedStage<'a> {
        assert!((1..=63).contains(&amount), "a fused advance moves 1..=63 positions, not {amount}");
        FusedStage {
            and: and.map(BitStream::as_words),
            amount,
            last: [0, history << (64 - amount)],
        }
    }

    pub(crate) fn and_words(&self) -> Option<&'a [u64]> {
        self.and
    }

    /// After the pass: the last two words of the advance's input, which
    /// was never stored, for [`BitStream::or_history_tail_of`].
    pub fn last(&self) -> [u64; 2] {
        self.last
    }
}

/// `out = (stages(first)) & tail`: every stage applied to each word-group
/// of `first` in turn, the running value held in registers between
/// stages and never in a stream. The word an advance pulls across a group
/// boundary travels in its stage, lane-to-lane inside a group exactly as
/// word-to-word between groups, so the result is what one [`zip_into`] and
/// one [`advance_into`] per stage over the whole streams would produce.
///
/// `first` and every operand hold `out.len()` words.
pub(crate) fn fused_into(
    first: &[u64],
    stages: &mut [FusedStage<'_>],
    tail: Option<&[u64]>,
    out: &mut [u64],
) {
    // A literal advances by one position per character. With the amount a
    // constant a group's shifts compile to immediate funnel shifts; a
    // run-time amount costs every word its count set-up (40 µs of a 64 KiB
    // push of 32 Snort rules).
    // A stream shorter than a group (a small push's window) goes straight
    // to the word-at-a-time pass.
    let grouped = out.len() >= LANES;
    if stages.iter().all(|stage| stage.amount == 1) {
        let done = if grouped { fused_n::<LANES, true>(first, stages, tail, out, 0) } else { 0 };
        fused_n::<1, true>(first, stages, tail, out, done);
    } else {
        let done = if grouped { fused_n::<LANES, false>(first, stages, tail, out, 0) } else { 0 };
        fused_n::<1, false>(first, stages, tail, out, done);
    }
}

/// Every whole `N`-word group of `out` from word `from` on; returns the
/// index of the first word left over. `UNIT`: every stage advances by 1.
fn fused_n<const N: usize, const UNIT: bool>(
    first: &[u64],
    stages: &mut [FusedStage<'_>],
    tail: Option<&[u64]>,
    out: &mut [u64],
    from: usize,
) -> usize {
    // Bit `i` is set while stage `i` may hold a non-zero input word: only
    // such a stage has a word to carry into the next group.
    let mut held = (0..stages.len()).fold(0u64, |held, i| {
        held | (u64::from(stages[i].last != [0, 0]) << i)
    });
    let mut wi = from;
    while wi + N <= out.len() {
        let mut value = [0u64; N];
        value.copy_from_slice(&first[wi..wi + N]);
        let mut at = 0;
        while at < stages.len() {
            // Past its first characters a literal's markers are rare: most
            // groups reach most stages empty, and all an empty group does
            // to a stage is pass on the word carried in from below — so
            // it goes straight to the next stage that holds one.
            if value.iter().fold(0, |any, &w| any | w) == 0 {
                let pending = held >> at;
                if pending == 0 {
                    break;
                }
                at += pending.trailing_zeros() as usize;
                let stage = &mut stages[at];
                let amount = if UNIT { 1 } else { stage.amount };
                value[0] = stage.last[1] >> (64 - amount);
                stage.last = [if N >= 2 { 0 } else { stage.last[1] }, 0];
                held &= !(u64::from(stage.last == [0, 0]) << at);
                at += 1;
                continue;
            }
            let stage = &mut stages[at];
            if let Some(words) = stage.and {
                for (v, &w) in value.iter_mut().zip(&words[wi..wi + N]) {
                    *v &= w;
                }
            }
            // Each word takes the top bits of the input word below it.
            let (input, amount) = (value, if UNIT { 1 } else { stage.amount });
            let mut below = stage.last[1];
            for (v, &word) in value.iter_mut().zip(&input) {
                *v = (word << amount) | (below >> (64 - amount));
                below = word;
            }
            stage.last = [if N >= 2 { input[N - 2] } else { stage.last[1] }, input[N - 1]];
            held = held & !(1 << at) | u64::from(stage.last != [0, 0]) << at;
            at += 1;
        }
        if let Some(words) = tail {
            for (v, &w) in value.iter_mut().zip(&words[wi..wi + N]) {
                *v &= w;
            }
        }
        out[wi..wi + N].copy_from_slice(&value);
        wi += N;
    }
    wi
}

/// Funnel-shifts `src` toward lower bit positions by
/// `word_shift * 64 + bit_shift` into `out`; words above
/// `len - word_shift` are left untouched (callers pass zeros).
pub(crate) fn retreat_into(src: &[u64], out: &mut [u64], word_shift: usize, bit_shift: u32) {
    retreat_n::<LANES>(src, out, word_shift, bit_shift)
}

fn retreat_n<const N: usize>(src: &[u64], out: &mut [u64], word_shift: usize, bit_shift: u32) {
    let n = src.len();
    if word_shift >= n {
        return;
    }
    let m = n - word_shift;
    if bit_shift == 0 {
        out[..m].copy_from_slice(&src[word_shift..]);
        return;
    }
    let inv = 64 - bit_shift;
    // Funnel body: out[i] = (lo[i] >> bs) | (hi[i] << inv) over adjacent
    // windows of src; the last output word has no higher neighbour.
    let lo = &src[word_shift..n - 1];
    let hi = &src[word_shift + 1..];
    let mut dc = out[..m - 1].chunks_exact_mut(N);
    let mut lc = lo.chunks_exact(N);
    let mut hc = hi.chunks_exact(N);
    for ((d, l), h) in (&mut dc).zip(&mut lc).zip(&mut hc) {
        for ((slot, &lv), &hv) in d.iter_mut().zip(l).zip(h) {
            *slot = (lv >> bit_shift) | (hv << inv);
        }
    }
    for ((slot, &lv), &hv) in
        dc.into_remainder().iter_mut().zip(lc.remainder()).zip(hc.remainder())
    {
        *slot = (lv >> bit_shift) | (hv << inv);
    }
    out[m - 1] = src[n - 1] >> bit_shift;
}

/// Transposes one 64-byte block into its eight basis words (basis `k`
/// holds bit `7 - k` of every byte — `b_0` is the MSB).
///
/// Two square transposes, both by masked shifts and no multiply. Read as
/// eight rows of eight bits, each 8-byte `u64` is transposed in three
/// delta swaps (2×2, 4×4, then 8×8 blocks of bits), so its byte `c` holds
/// bit `c` of each of its bytes. The eight words, read as eight rows of
/// eight bytes, are then transposed the same way a byte at a time (4×4,
/// 2×2, then single bytes), so word `c` holds bit `c` of all 64 bytes:
/// about 240 word ops a block, against 64 multiplies and 320 more for a
/// gather of one bit column at a time.
pub(crate) fn s2p_block(block: &[u8; 64]) -> [u64; 8] {
    let mut rows = [0u64; 8];
    for (row, bytes) in rows.iter_mut().zip(block.chunks_exact(8)) {
        let mut x = u64::from_le_bytes(bytes.try_into().expect("8-byte group"));
        // Bit 8r + c of x is bit c of byte r; swap it with bit 8c + r.
        let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
        x ^= t ^ (t << 7);
        let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
        x ^= t ^ (t << 14);
        let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
        x ^= t ^ (t << 28);
        *row = x;
    }
    // Byte c of row g moves to byte g of row c: swap the off-diagonal
    // 4×4 blocks, then 2×2 blocks inside each, then single bytes.
    for g in [0, 1, 2, 3] {
        let (p, q) = (rows[g], rows[g + 4]);
        rows[g] = (p & 0x0000_0000_FFFF_FFFF) | (q << 32);
        rows[g + 4] = (p >> 32) | (q & 0xFFFF_FFFF_0000_0000);
    }
    for g in [0, 1, 4, 5] {
        let (p, q) = (rows[g], rows[g + 2]);
        rows[g] = (p & 0x0000_FFFF_0000_FFFF) | ((q & 0x0000_FFFF_0000_FFFF) << 16);
        rows[g + 2] = ((p >> 16) & 0x0000_FFFF_0000_FFFF) | (q & 0xFFFF_0000_FFFF_0000);
    }
    for g in [0, 2, 4, 6] {
        let (p, q) = (rows[g], rows[g + 1]);
        rows[g] = (p & 0x00FF_00FF_00FF_00FF) | ((q & 0x00FF_00FF_00FF_00FF) << 8);
        rows[g + 1] = ((p >> 8) & 0x00FF_00FF_00FF_00FF) | (q & 0xFF00_FF00_FF00_FF00);
    }
    // Row c holds bit c of every byte; basis k is bit 7 - k.
    rows.reverse();
    rows
}

/// Transposes `input` block-by-block, handing each finished 64-byte
/// block's basis words to `sink(word_index, words)`. The final partial
/// block (if any) is zero-padded, so its padding transposes to zero bits.
/// Blocks are processed `N` at a time so the per-block swaps pipeline
/// across a word-group.
pub(crate) fn s2p_into(input: &[u8], sink: &mut impl FnMut(usize, [u64; 8])) {
    s2p_n::<LANES>(input, sink)
}

fn s2p_n<const N: usize>(input: &[u8], sink: &mut impl FnMut(usize, [u64; 8])) {
    let mut wi = 0usize;
    let mut groups = input.chunks_exact(64 * N);
    for group in &mut groups {
        let mut words = [[0u64; 8]; N];
        for (slot, block) in words.iter_mut().zip(group.chunks_exact(64)) {
            *slot = s2p_block(block.try_into().expect("64-byte block"));
        }
        for w in words {
            sink(wi, w);
            wi += 1;
        }
    }
    let mut rest = groups.remainder().chunks_exact(64);
    for block in &mut rest {
        sink(wi, s2p_block(block.try_into().expect("64-byte block")));
        wi += 1;
    }
    let rem = rest.remainder();
    if !rem.is_empty() {
        let mut block = [0u8; 64];
        block[..rem.len()].copy_from_slice(rem);
        sink(wi, s2p_block(&block));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random words (64-bit LCG) — no RNG dep.
    fn words(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                x
            })
            .collect()
    }

    #[test]
    fn low_mask_edges() {
        assert_eq!(low_mask(0), 0);
        assert_eq!(low_mask(1), 1);
        assert_eq!(low_mask(63), u64::MAX >> 1);
        assert_eq!(low_mask(64), u64::MAX);
    }

    #[test]
    fn gather_word_reads_zero_past_end() {
        let w = [u64::MAX, 0b1011];
        assert_eq!(gather_word(&w, 0), u64::MAX);
        assert_eq!(gather_word(&w, 4), (u64::MAX >> 4) | (0b1011 << 60));
        assert_eq!(gather_word(&w, 64), 0b1011);
        assert_eq!(gather_word(&w, 65), 0b101);
        assert_eq!(gather_word(&w, 128), 0);
        assert_eq!(gather_word(&w, 1000), 0);
    }

    #[test]
    fn zip_widths_agree() {
        for n in [0usize, 1, 2, 3, 7, 8, 9, 16, 33] {
            let a = words(3, n);
            let b = words(99, n);
            for f in [
                |x: u64, y: u64| x & y,
                |x: u64, y: u64| x | y,
                |x: u64, y: u64| x ^ y,
                |x: u64, y: u64| x & !y,
            ] {
                let mut reference = vec![0u64; n];
                zip_n::<1>(&a, &b, &mut reference, f);
                for (l, e) in
                    a.iter().zip(&b).map(|(&x, &y)| f(x, y)).zip(&reference)
                {
                    assert_eq!(l, *e);
                }
                let mut wide = vec![0u64; n];
                zip_n::<LANES>(&a, &b, &mut wide, f);
                assert_eq!(reference, wide, "n={n}");
                let mut assigned = a.clone();
                zip_assign_n::<LANES>(&mut assigned, &b, f);
                assert_eq!(reference, assigned, "n={n}");
            }
        }
    }

    #[test]
    fn add_widths_agree_and_carry_ripples() {
        for n in [1usize, 2, 3, 7, 8, 9, 17] {
            let a = words(11, n);
            let b = words(42, n);
            let mut reference = vec![0u64; n];
            let c1 = add_n::<1>(&a, &b, &mut reference, true);
            let mut wide = vec![0u64; n];
            let cw = add_n::<LANES>(&a, &b, &mut wide, true);
            assert_eq!(reference, wide, "n={n}");
            assert_eq!(c1, cw);
        }
        // An all-ones stream plus an injected carry ripples through every
        // lane boundary and out the top, grouped or not.
        let ones = vec![u64::MAX; 9];
        let zero = vec![0u64; 9];
        let mut scalar = vec![0u64; 9];
        assert!(add_n::<1>(&ones, &zero, &mut scalar, true));
        assert_eq!(scalar, zero);
        let mut wide = vec![0u64; 9];
        assert!(add_n::<LANES>(&ones, &zero, &mut wide, true));
        assert_eq!(wide, zero);
    }

    #[test]
    fn shift_widths_agree() {
        for n in [1usize, 2, 5, 9, 16, 21] {
            let src = words(7, n);
            for k in [0usize, 1, 5, 63, 64, 65, 130] {
                let (ws, bs) = (k >> 6, (k & 63) as u32);
                let mut adv1 = vec![0u64; n];
                advance_n::<1>(&src, &mut adv1, ws, bs);
                let mut adv = vec![0u64; n];
                advance_n::<LANES>(&src, &mut adv, ws, bs);
                assert_eq!(adv1, adv, "advance n={n} k={k}");
                let mut ret1 = vec![0u64; n];
                retreat_n::<1>(&src, &mut ret1, ws, bs);
                let mut ret = vec![0u64; n];
                retreat_n::<LANES>(&src, &mut ret, ws, bs);
                assert_eq!(ret1, ret, "retreat n={n} k={k}");
            }
        }
    }

    #[test]
    fn s2p_block_matches_naive() {
        // Every byte value at every position of the block.
        for shift in 0..=255u8 {
            let mut block = [0u8; 64];
            for (i, b) in block.iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(37).wrapping_add(11).wrapping_add(shift);
            }
            let lanes = s2p_block(&block);
            for (k, lane) in lanes.iter().enumerate() {
                let mut expect = 0u64;
                for (bi, &byte) in block.iter().enumerate() {
                    expect |= u64::from((byte >> (7 - k)) & 1) << bi;
                }
                assert_eq!(*lane, expect, "basis {k}, shift {shift}");
            }
        }
    }

    #[test]
    fn s2p_driver_widths_agree() {
        let input: Vec<u8> = (0..1000u32).map(|i| (i.wrapping_mul(131) % 256) as u8).collect();
        for take in [0usize, 1, 63, 64, 65, 512, 513, 1000] {
            let mut reference = Vec::new();
            s2p_n::<1>(&input[..take], &mut |wi, w| reference.push((wi, w)));
            let mut wide = Vec::new();
            s2p_n::<LANES>(&input[..take], &mut |wi, w| wide.push((wi, w)));
            assert_eq!(reference, wide, "take={take}");
        }
    }
}
