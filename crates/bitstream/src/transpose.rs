//! Transposition of a byte stream into eight basis bitstreams.
//!
//! The paper (and Parabix before it) re-lays the input so that basis stream
//! `b_k` holds the *k*-th bit of every byte, with `b_0` the most significant
//! bit. `'a'` (ASCII `01100001`) then satisfies
//! `¬b0 ∧ b1 ∧ b2 ∧ ¬b3 ∧ ¬b4 ∧ ¬b5 ∧ ¬b6 ∧ b7` at its position.
//!
//! On the real system this runs as a separate GPU preprocessing kernel and
//! costs ~0.026 ms/MB; here it is an ordinary host function whose cost the
//! GPU model accounts separately (see `bitgen-gpu`).

use crate::stream::BitStream;
use crate::wide;

/// Number of basis bitstreams (one per bit of a byte).
pub const BASIS_COUNT: usize = 8;

/// Eight basis bitstreams produced by transposing a byte stream.
///
/// # Examples
///
/// ```
/// use bitgen_bitstream::Basis;
///
/// let basis = Basis::transpose(b"a");
/// // 'a' = 0b0110_0001: b1, b2 and b7 are set at position 0.
/// assert!(!basis.stream(0).get(0));
/// assert!(basis.stream(1).get(0));
/// assert!(basis.stream(7).get(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    streams: [BitStream; BASIS_COUNT],
    len: usize,
}

impl Basis {
    /// Transposes `input` into eight basis bitstreams.
    ///
    /// Runs 64 bytes at a time through the shift-and-mask s2p kernel
    /// (one basis word per block per stream), a word-group of blocks at a
    /// time.
    pub fn transpose(input: &[u8]) -> Basis {
        let mut basis = Basis::empty();
        basis.transpose_into(input);
        basis
    }

    /// An empty basis with no allocation, suitable as a reusable target
    /// for [`Basis::transpose_into`].
    pub fn empty() -> Basis {
        Basis {
            streams: std::array::from_fn(|_| BitStream::zeros(0)),
            len: 0,
        }
    }

    /// Transposes `input` into this basis in place, reusing the eight
    /// stream allocations when they are large enough. Produces exactly
    /// the same value as [`Basis::transpose`] on a fresh basis.
    pub fn transpose_into(&mut self, input: &[u8]) {
        let len = input.len();
        self.len = len;
        for s in self.streams.iter_mut() {
            s.reset_zeros(len);
        }
        // A final partial block is zero-padded, and padding transposes to
        // zero bits: every word lands as it is, tail included.
        let mut streams = self.streams.each_mut().map(BitStream::words_mut);
        wide::s2p_into(input, &mut |wi, words| {
            for (stream, w) in streams.iter_mut().zip(words) {
                stream[wi] = w;
            }
        });
    }

    /// The number of positions (equal to the input length in bytes).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the input was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The *k*-th basis stream (`k < 8`), `b_0` being the most significant
    /// bit of each byte.
    ///
    /// # Panics
    ///
    /// Panics if `k >= 8`.
    pub fn stream(&self, k: usize) -> &BitStream {
        &self.streams[k]
    }

    /// All eight basis streams, `b_0` first.
    pub fn streams(&self) -> &[BitStream; BASIS_COUNT] {
        &self.streams
    }

    /// Reconstructs the original byte stream (the inverse transpose).
    ///
    /// Exists to validate the transpose; engines never need it.
    pub fn untranspose(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len];
        for (k, s) in self.streams.iter().enumerate() {
            for p in s.positions() {
                out[p] |= 1 << (7 - k);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_byte_bits() {
        let b = Basis::transpose(&[0b1000_0001]);
        assert!(b.stream(0).get(0));
        for k in 1..7 {
            assert!(!b.stream(k).get(0), "b{k} should be clear");
        }
        assert!(b.stream(7).get(0));
    }

    #[test]
    fn paper_letter_a() {
        // 'a' = 01100001 → ¬b0, b1, b2, ¬b3..¬b6, b7.
        let b = Basis::transpose(b"a");
        let expect = [false, true, true, false, false, false, false, true];
        for (k, &e) in expect.iter().enumerate() {
            assert_eq!(b.stream(k).get(0), e, "basis {k}");
        }
    }

    #[test]
    fn round_trip_all_byte_values() {
        let input: Vec<u8> = (0..=255).collect();
        let b = Basis::transpose(&input);
        assert_eq!(b.untranspose(), input);
    }

    #[test]
    fn round_trip_unaligned_length() {
        let input: Vec<u8> = (0..100u32).map(|i| (i * 37 % 256) as u8).collect();
        let b = Basis::transpose(&input);
        assert_eq!(b.len(), 100);
        assert_eq!(b.untranspose(), input);
    }

    #[test]
    fn round_trip_multi_word() {
        let input: Vec<u8> = (0..1000u32).map(|i| (i * 131 % 251) as u8).collect();
        let b = Basis::transpose(&input);
        assert_eq!(b.untranspose(), input);
    }

    #[test]
    fn empty_input() {
        let b = Basis::transpose(b"");
        assert!(b.is_empty());
        assert_eq!(b.untranspose(), Vec::<u8>::new());
    }

    #[test]
    fn transpose_into_matches_transpose() {
        let inputs: [&[u8]; 4] = [b"", b"a", b"hello world, hello world!", &[0xff; 130]];
        let mut reused = Basis::empty();
        for input in inputs {
            reused.transpose_into(input);
            assert_eq!(reused, Basis::transpose(input));
        }
    }

    #[test]
    fn transpose_into_reuses_allocation() {
        let big: Vec<u8> = (0..1000u32).map(|i| (i % 256) as u8).collect();
        let mut basis = Basis::empty();
        basis.transpose_into(&big);
        let caps: Vec<usize> = basis.streams().iter().map(|s| s.capacity_words()).collect();
        // A smaller then equal-sized input must not grow the buffers.
        basis.transpose_into(&big[..100]);
        basis.transpose_into(&big);
        let after: Vec<usize> = basis.streams().iter().map(|s| s.capacity_words()).collect();
        assert_eq!(caps, after);
        assert_eq!(basis, Basis::transpose(&big));
    }

    #[test]
    fn all_zero_and_all_ff() {
        let z = Basis::transpose(&[0u8; 70]);
        for k in 0..BASIS_COUNT {
            assert!(!z.stream(k).any());
        }
        let f = Basis::transpose(&[0xffu8; 70]);
        for k in 0..BASIS_COUNT {
            assert_eq!(f.stream(k).count_ones(), 70);
        }
    }
}
