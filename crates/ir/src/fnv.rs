//! FNV-1a, 64-bit: the one hash behind carry seals, stream fingerprints,
//! checkpoint and drain-manifest digests and cache keys. Stable across
//! processes and builds, which everything persisted relies on.

/// The FNV-1a offset basis: the seed of a fresh hash.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Absorbs `bytes` into the running hash `seed` ([`FNV_OFFSET`] to start
/// one), so a record is hashed field by field without concatenating it.
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(seed, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_vectors_and_chains() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"), fnv1a(FNV_OFFSET, b"foobar"));
    }
}
