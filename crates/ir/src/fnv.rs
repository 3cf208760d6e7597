//! What every sealed byte format shares. FNV-1a, 64-bit: the one hash
//! behind carry seals, stream fingerprints, checkpoint and drain-manifest
//! digests and cache keys — stable across processes and builds, which
//! everything persisted relies on. And [`ByteReader`], the one
//! bounds-checked cursor those formats are decoded with.

/// The FNV-1a offset basis: the seed of a fresh hash.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME_POWERS[k]` is the prime to the `k`th power: what
/// absorbing `k` zero bytes multiplies the hash by.
const FNV_PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// Absorbs `bytes` into the running hash `seed` ([`FNV_OFFSET`] to start
/// one), so a record is hashed field by field without concatenating it.
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(seed, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Absorbs `word`'s eight little-endian bytes: exactly
/// `fnv1a(seed, &word.to_le_bytes())`. A zero byte only multiplies the
/// hash by the prime, so the zero bytes above the word's top set byte
/// fold into one multiply by a power of it: a word below 256 costs two
/// multiplies, not eight.
pub(crate) fn fnv1a_word(seed: u64, word: u64) -> u64 {
    let significant = 8 - word.leading_zeros() as usize / 8;
    let hash = fnv1a(seed, &word.to_le_bytes()[..significant]);
    hash.wrapping_mul(FNV_PRIME_POWERS[8 - significant])
}

/// Bounds-checked little-endian reader over untrusted bytes: the carry
/// record, the stream checkpoint and the drain manifest all decode
/// through it. Every read returns `None` once the bytes run out — the
/// one truncation error, which each decoder maps onto its own typed
/// error — and a failed read consumes nothing.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    rest: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> ByteReader<'a> {
        ByteReader { rest: bytes }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.rest.split_at_checked(n)?;
        self.rest = rest;
        Some(head)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    /// One byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_le_bytes)
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u32` length followed by that many bytes.
    pub fn blob(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// A `u32` count of records that follow, each at least
    /// `min_record_bytes` long: `None` when the bytes *remaining* could
    /// not hold that many, so a forged count is refused before anything
    /// is pre-allocated for it.
    pub fn count(&mut self, min_record_bytes: usize) -> Option<usize> {
        let n = self.u32()? as usize;
        (n <= self.remaining() / min_record_bytes.max(1)).then_some(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_is_little_endian_bounded_and_consumes_nothing_on_failure() {
        let bytes = [1u8, 2, 0, 3, 0, 0, 0, 2, 0, 0, 0, 9, 8, 7];
        let mut r = ByteReader::new(&bytes);
        assert_eq!((r.u8(), r.u16(), r.u32()), (Some(1), Some(2), Some(3)));
        assert_eq!(r.blob(), Some(&[9u8, 8][..]));
        assert_eq!((r.u64(), r.remaining()), (None, 1));
        assert_eq!((r.take(1), r.take(1), r.take(0)), (Some(&[7u8][..]), None, Some(&[][..])));
        // A count is bounded by what is left after it, not by the total.
        let counted = [3u8, 0, 0, 0, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff];
        assert_eq!(ByteReader::new(&counted).count(2), Some(3));
        assert_eq!(ByteReader::new(&counted).count(3), None);
        assert_eq!(ByteReader::new(&counted[..3]).count(1), None);
    }

    #[test]
    fn matches_the_published_vectors_and_chains() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"), fnv1a(FNV_OFFSET, b"foobar"));
    }

    #[test]
    fn the_word_step_is_the_byte_wise_hash_of_the_word() {
        // Every count of significant bytes, 0 to 8, with zero bytes below
        // the top one as well as above it.
        let mut words = vec![0u64, 1, 0xff, 0x100, 0x8000_0000_0000_0000, u64::MAX];
        for bytes in 1..=8u32 {
            let top = 1u64 << (8 * bytes - 1);
            words.extend([top, top | 1, top | (top >> 9), (top << 1).wrapping_sub(1)]);
        }
        for seed in [FNV_OFFSET, 0, u64::MAX, 0x0123_4567_89ab_cdef] {
            for &word in &words {
                let want = fnv1a(seed, &word.to_le_bytes());
                assert_eq!(fnv1a_word(seed, word), want, "seed {seed:#x}, word {word:#x}");
            }
        }
    }
}
