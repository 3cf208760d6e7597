//! Bit-range copying between window word buffers and full-length streams.

use bitgen_bitstream::BitStream;
use bitgen_gpu::gather_word;

/// ORs `nbits` bits of `src` (32-bit words, starting at bit `src_start`)
/// into `dst` starting at bit position `dst_start`.
///
/// Bits that would land past the end of `dst` are dropped. Used by the
/// executors to store a window's valid region into an output stream.
pub fn blit_or(dst: &mut BitStream, dst_start: usize, src: &[u32], src_start: usize, nbits: usize) {
    let len = dst.len();
    if dst_start >= len {
        return;
    }
    let nbits = nbits.min(len - dst_start);
    // Walk the destination a whole aligned word at a time: gather up to
    // 64 source bits, mask to the copy width, and OR them in with a
    // single word store — no per-bit loop, whatever the bit population.
    let mut copied = 0usize;
    while copied < nbits {
        let d = dst_start + copied;
        let off = d & 63;
        let take = (64 - off).min(nbits - copied);
        let bits = gather64(src, src_start + copied) & mask64(take);
        if bits != 0 {
            dst.or_word(d >> 6, bits << off);
        }
        copied += take;
    }
}

/// Extracts 64 bits from a `u32` word buffer starting at bit `start`
/// (bits past the end read as zero).
fn gather64(words: &[u32], start: usize) -> u64 {
    let word = |at: usize| u64::from(gather_word(words, at as i64));
    word(start) | word(start + 32) << 32
}

fn mask64(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_copy() {
        let mut dst = BitStream::zeros(128);
        blit_or(&mut dst, 0, &[0b1011, 0x8000_0000], 0, 64);
        assert_eq!(dst.positions(), vec![0, 1, 3, 63]);
    }

    #[test]
    fn offset_copy() {
        let mut dst = BitStream::zeros(100);
        // Source bit 5 lands at dst bit 45.
        blit_or(&mut dst, 40, &[0b100000], 0, 32);
        assert_eq!(dst.positions(), vec![45]);
    }

    #[test]
    fn source_offset() {
        let mut dst = BitStream::zeros(100);
        // Skip the first 3 source bits: src bit 3 → dst bit 0.
        blit_or(&mut dst, 0, &[0b1000_1000], 3, 8);
        assert_eq!(dst.positions(), vec![0, 4]);
    }

    #[test]
    fn truncates_at_dst_end() {
        let mut dst = BitStream::zeros(10);
        blit_or(&mut dst, 8, &[0b111], 0, 3);
        assert_eq!(dst.positions(), vec![8, 9]);
    }

    #[test]
    fn nbits_limits_copy() {
        let mut dst = BitStream::zeros(64);
        blit_or(&mut dst, 0, &[u32::MAX], 0, 5);
        assert_eq!(dst.count_ones(), 5);
    }

    #[test]
    fn ors_into_existing() {
        let mut dst = BitStream::from_positions(32, &[0]);
        blit_or(&mut dst, 0, &[0b10], 0, 32);
        assert_eq!(dst.positions(), vec![0, 1]);
    }

    #[test]
    fn word_wise_blit_matches_bitwise_reference() {
        // Sweep misaligned source/destination offsets against a per-bit
        // reference implementation.
        let src: Vec<u32> = (0..8u32).map(|i| i.wrapping_mul(0x9e37_79b9) | 1).collect();
        let total = src.len() * 32;
        for dst_start in [0usize, 1, 31, 32, 33, 63, 64, 65, 90] {
            for src_start in [0usize, 5, 32, 40, 200] {
                for nbits in [0usize, 1, 33, 64, 65, 130, 300] {
                    let mut got = BitStream::zeros(200);
                    blit_or(&mut got, dst_start, &src, src_start, nbits);
                    let mut expect = BitStream::zeros(200);
                    for j in 0..nbits {
                        let s = src_start + j;
                        let d = dst_start + j;
                        if d < 200 && s < total && src[s / 32] >> (s % 32) & 1 == 1 {
                            expect.set(d, true);
                        }
                    }
                    assert_eq!(
                        got, expect,
                        "dst_start={dst_start} src_start={src_start} nbits={nbits}"
                    );
                }
            }
        }
    }

    #[test]
    fn cross_word_source() {
        let mut dst = BitStream::zeros(64);
        // Bits 30..34 set in source: crossing the u32 boundary.
        blit_or(&mut dst, 0, &[0xC000_0000, 0b11], 30, 4);
        assert_eq!(dst.positions(), vec![0, 1, 2, 3]);
    }
}
