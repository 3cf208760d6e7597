//! Adversarial checkpoint parsing: [`StreamCheckpoint::from_bytes`]
//! must treat its input as hostile. Whatever a fuzzer does to valid
//! checkpoint bytes — bit flips, truncation, spliced-in garbage — the
//! parser either round-trips an intact checkpoint or returns
//! [`Error::CheckpointInvalid`]; it never panics, never allocates
//! according to unvalidated length fields, and never hands back a
//! half-parsed stream.

use bitgen::{BitGen, Error, StreamCheckpoint};
use proptest::prelude::*;

const POOL: &[&str] =
    &["a+b", "(ab)*c", ".{0,3}x", "a{2,}", "ab", "a(bc)*d", "(a|bb)+c", "x[ab]{1,4}y"];

fn arb_patterns() -> impl Strategy<Value = Vec<&'static str>> {
    prop::collection::vec(prop::sample::select(POOL.to_vec()), 1..4)
}

fn arb_input() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(b"aabbccdxy. ".to_vec()), 1..120)
}

/// One fuzzing step on serialized bytes; parameters are reduced modulo
/// the current length when applied, so every generated step is valid
/// for every intermediate buffer.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    FlipBit { pos: usize },
    Truncate { len: usize },
    Splice { pos: usize, byte: u8 },
}

fn arb_mutations() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
    prop::collection::vec((0u8..3, 0usize..4096, 0u8..=255), 0..8)
}

fn apply(bytes: &mut Vec<u8>, step: Mutation) {
    match step {
        Mutation::FlipBit { pos } => {
            if !bytes.is_empty() {
                let bit = pos % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
        Mutation::Truncate { len } => {
            let keep = len % (bytes.len() + 1);
            bytes.truncate(keep);
        }
        Mutation::Splice { pos, byte } => {
            let at = pos % (bytes.len() + 1);
            bytes.insert(at, byte);
        }
    }
}

/// Serialized checkpoint of a stream that has consumed `input`.
fn checkpoint_bytes(patterns: &[&str], input: &[u8]) -> Vec<u8> {
    let engine = BitGen::compile(patterns).unwrap();
    let mut scanner = engine.streamer().unwrap();
    for chunk in input.chunks(37) {
        scanner.push(chunk).unwrap();
    }
    scanner.checkpoint().to_bytes()
}

// The checkpoint digest, reproduced so forgery tests can re-seal a
// tampered payload (standard FNV-1a over the payload bytes).
fn fnv_digest(payload: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in payload {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The satellite property: any sequence of bit flips, truncations,
    /// and splices over valid checkpoint bytes parses to `Ok` (the
    /// mutations cancelled out) or `Error::CheckpointInvalid` — no
    /// panic, no other error variant, no surprise success with mangled
    /// bytes (the payload digest makes a changed buffer parse as
    /// invalid, so `Ok` implies the bytes are exactly the original).
    #[test]
    fn mutated_checkpoint_bytes_never_panic(
        patterns in arb_patterns(),
        input in arb_input(),
        steps in arb_mutations(),
    ) {
        let original = checkpoint_bytes(&patterns, &input);
        let mut bytes = original.clone();
        for &(kind, pos, byte) in &steps {
            apply(&mut bytes, match kind {
                0 => Mutation::FlipBit { pos },
                1 => Mutation::Truncate { len: pos },
                _ => Mutation::Splice { pos, byte },
            });
        }
        match StreamCheckpoint::from_bytes(&bytes) {
            Ok(ckpt) => {
                prop_assert_eq!(&bytes, &original,
                    "mutated bytes must not parse unless the mutations cancelled out");
                prop_assert_eq!(ckpt.to_bytes(), original);
            }
            Err(Error::CheckpointInvalid { .. }) => {}
            Err(other) => panic!("from_bytes must fail typed, got {other:?}"),
        }
    }
}

/// A forged header whose group count claims more carry records than the
/// payload has bytes for must be rejected up front — before
/// `Vec::with_capacity` commits memory for it. The digest is re-sealed
/// so the test exercises the bound, not the checksum.
#[test]
fn forged_group_count_is_rejected_before_allocating() {
    let bytes = checkpoint_bytes(&["a+b", "cat"], b"xxaa cat a");
    // Layout: magic(4) + version(4) + 10 u64 scalars, then group count.
    let group_count_at = 4 + 4 + 10 * 8;
    for forged in [u32::MAX, 1 << 24, 10_000] {
        let mut payload = bytes[..bytes.len() - 8].to_vec();
        payload[group_count_at..group_count_at + 4].copy_from_slice(&forged.to_le_bytes());
        let mut forged_bytes = payload.clone();
        forged_bytes.extend(fnv_digest(&payload).to_le_bytes());
        let err = StreamCheckpoint::from_bytes(&forged_bytes).unwrap_err();
        match err {
            Error::CheckpointInvalid { reason } => {
                assert!(
                    reason.contains("group count"),
                    "group count {forged} must trip the payload bound, got: {reason}"
                );
            }
            other => panic!("expected CheckpointInvalid, got {other:?}"),
        }
    }
}

/// Same for the per-carry slot count and slot width: a forged length
/// field inside a carry record must be bounded by the bytes that are
/// actually left, whatever the header promises.
#[test]
fn forged_carry_lengths_are_rejected_before_allocating() {
    let bytes = checkpoint_bytes(&["a+b", "cat"], b"xxaa cat a");
    // First carry record starts right after the u32 group count.
    let first_carry_at = 4 + 4 + 10 * 8 + 4;
    for (offset, width, forged) in [
        (first_carry_at, 4usize, u64::from(u32::MAX)), // slot count
        (first_carry_at + 4, 8usize, u64::MAX / 2),    // first slot width
    ] {
        let mut payload = bytes[..bytes.len() - 8].to_vec();
        payload[offset..offset + width].copy_from_slice(&forged.to_le_bytes()[..width]);
        let mut forged_bytes = payload.clone();
        forged_bytes.extend(fnv_digest(&payload).to_le_bytes());
        let err = StreamCheckpoint::from_bytes(&forged_bytes).unwrap_err();
        assert!(
            matches!(err, Error::CheckpointInvalid { .. }),
            "forged carry length must be rejected, got {err:?}"
        );
    }
}

/// The systematic truncation sweep: every strict prefix of valid
/// checkpoint bytes — the empty buffer, the bare magic, a header cut
/// mid-scalar, a carry record cut mid-slot, the payload without its
/// digest — is refused with [`Error::CheckpointInvalid`]. No prefix
/// length panics, and only the full buffer parses. (The proptest above
/// *can* reach these lengths; this pins all of them, every run.)
#[test]
fn every_truncation_length_is_rejected_typed() {
    // A multi-group pattern set, so the serialized form has several
    // carry records and the sweep crosses every record boundary.
    let bytes = checkpoint_bytes(POOL, b"xxaa cat aabbccdxy. x aab abbc xaby");
    for len in 0..bytes.len() {
        match StreamCheckpoint::from_bytes(&bytes[..len]) {
            Err(Error::CheckpointInvalid { .. }) => {}
            Ok(_) => panic!(
                "a {len}-byte prefix of a {}-byte checkpoint must not parse",
                bytes.len()
            ),
            Err(other) => panic!("prefix of {len} bytes must fail typed, got {other:?}"),
        }
    }
    let ckpt = StreamCheckpoint::from_bytes(&bytes).expect("the full buffer still parses");
    assert_eq!(ckpt.to_bytes(), bytes);
}

/// Untouched bytes still round-trip (the fuzz property's `Ok` arm is
/// reachable, not vacuous).
#[test]
fn pristine_bytes_round_trip() {
    let bytes = checkpoint_bytes(&["a+b", "cat"], b"xxaa cat a");
    let ckpt = StreamCheckpoint::from_bytes(&bytes).unwrap();
    assert_eq!(ckpt.to_bytes(), bytes);
    assert_eq!(ckpt.consumed(), 10);
    assert_eq!(ckpt.generation(), 0);
}
