//! Recovery properties of checkpointed streaming: (1) a scanner under a
//! [`RetryPolicy`] absorbs injected faults — transient or persistent —
//! with matches bit-identical to batch [`BitGen::find`], surfacing the
//! recovery in `metrics().retries`/`metrics().degraded` instead of corrupting
//! output; (2) a stream suspended at *any* chunk boundary via
//! [`StreamScanner::checkpoint`], serialized, and resumed (same process
//! or not) finishes with exactly the matches of an uninterrupted scan;
//! (3) counters never double-count across retries, degradation, or
//! rolled-back pushes.

use bitgen::{
    BitGen, Error, FaultKind, FaultPlan, RetryPolicy, StreamCheckpoint, StreamScanner,
};
use proptest::prelude::*;
use std::sync::Once;

fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if !msg.contains("injected fault") {
                default(info);
            }
        }));
    });
}

fn batch_ends(engine: &BitGen, input: &[u8]) -> Vec<u64> {
    engine.find(input).unwrap().matches.positions().iter().map(|&p| p as u64).collect()
}

/// Pushes `input` through `scanner` under the chunking plan, panicking
/// on any push error (the policies under test are supposed to recover).
fn stream_rest(scanner: &mut StreamScanner<'_>, input: &[u8], sizes: &[usize]) -> Vec<u64> {
    let mut ends = Vec::new();
    let mut pos = 0usize;
    let mut i = 0usize;
    while pos < input.len() {
        let size = sizes[i % sizes.len()].max(1).min(input.len() - pos);
        ends.extend(scanner.push(&input[pos..pos + size]).unwrap());
        pos += size;
        i += 1;
    }
    ends
}

const POOL: &[&str] =
    &["a+b", "(ab)*c", ".{0,3}x", "a{2,}", "ab", "a(bc)*d", "(a|bb)+c", "x[ab]{1,4}y"];

fn arb_patterns() -> impl Strategy<Value = Vec<&'static str>> {
    prop::collection::vec(prop::sample::select(POOL.to_vec()), 1..4)
}

fn arb_input() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(b"aabbccdxy. ".to_vec()), 1..140)
}

fn arb_chunking() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..64, 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The acceptance differential: random patterns × chunkings ×
    /// injected faults. A resilient scanner must stay bit-identical to
    /// batch `find` whatever the injector does, reporting the recovery
    /// through its counters rather than through wrong matches. The
    /// engine runs with the interpreter cross-check on — in-flight data
    /// corruption (`SmemFlip`, `CorruptTrips`) is only *detectable*
    /// through redundancy; the structural checks (store counts, slot
    /// walk, carry seals) catch the rest on their own.
    #[test]
    fn faulted_stream_with_retry_equals_batch(
        patterns in arb_patterns(),
        input in arb_input(),
        sizes in arb_chunking(),
        seed in 0u64..400,
        persistent in any::<bool>(),
    ) {
        quiet_injected_panics();
        let config = bitgen::EngineConfig::default().with_cross_check(true);
        let engine = BitGen::compile_with(&patterns, config).unwrap();
        let batch = batch_ends(&engine, &input);
        let mut scanner = engine.streamer().unwrap();
        scanner.set_retry_policy(RetryPolicy::resilient());
        let group = seed as usize % engine.group_count();
        let windows = if persistent { u32::MAX } else { 1 };
        scanner.inject_fault(group, FaultPlan::from_seed(seed), windows);
        let ends = stream_rest(&mut scanner, &input, &sizes);
        prop_assert_eq!(&ends, &batch,
            "patterns {:?} seed {} chunking {:?}: resilient stream diverged \
             (retries {}, degraded {})",
            patterns, seed, sizes, scanner.metrics().retries, scanner.metrics().degraded);
        prop_assert!(!scanner.is_poisoned());
        // A persistent fault that was ever detected must have degraded
        // at least one chunk (retries alone cannot outlast it).
        if persistent && scanner.metrics().retries > 0 {
            prop_assert!(scanner.metrics().degraded > 0,
                "persistent fault retried but never degraded");
        }
    }

    /// Suspend/resume at every kind of boundary: stream a prefix,
    /// checkpoint, round-trip the checkpoint through bytes, resume on a
    /// fresh scanner, stream the suffix. The combined match list must be
    /// exactly the uninterrupted batch answer, and the resumed counters
    /// must line up with the suspended ones.
    #[test]
    fn checkpoint_resume_at_any_boundary_equals_batch(
        patterns in arb_patterns(),
        input in arb_input(),
        sizes in arb_chunking(),
        cut in 0usize..140,
    ) {
        let engine = BitGen::compile(&patterns).unwrap();
        let batch = batch_ends(&engine, &input);
        // Stream up to a chunk boundary at or before `cut`.
        let mut first = engine.streamer().unwrap();
        let mut ends = Vec::new();
        let mut pos = 0usize;
        let mut i = 0usize;
        while pos < input.len().min(cut) {
            let size = sizes[i % sizes.len()].max(1).min(input.len().min(cut) - pos);
            ends.extend(first.push(&input[pos..pos + size]).unwrap());
            pos += size;
            i += 1;
        }
        let bytes = first.checkpoint().to_bytes();
        drop(first);
        let ckpt = StreamCheckpoint::from_bytes(&bytes).unwrap();
        prop_assert_eq!(ckpt.consumed(), pos as u64);
        let mut second = engine.resume(&ckpt).unwrap();
        ends.extend(stream_rest(&mut second, &input[pos..], &sizes));
        prop_assert_eq!(&ends, &batch,
            "patterns {:?} cut {} chunking {:?}: resumed stream diverged",
            patterns, pos, sizes);
        prop_assert_eq!(second.consumed(), input.len() as u64);
    }
}

/// The full recovery story end to end: a fail-fast scanner hits a
/// persistent fault, poisons, and refuses reuse — but its checkpoint
/// still captures the last good boundary, and a resumed scanner (with a
/// policy that can cope) re-pushes the failed chunk and finishes the
/// stream bit-identical to batch.
#[test]
fn poisoned_scanner_recovers_through_checkpoint_resume() {
    quiet_injected_panics();
    let engine = BitGen::compile(&["a+b", "cat", "x[ab]{1,4}y"]).unwrap();
    let input: Vec<u8> = b"cat aab xaby ".repeat(30);
    let batch = batch_ends(&engine, &input);
    let mut scanner = engine.streamer().unwrap();
    let mut ends = scanner.push(&input[..128]).unwrap();
    let plan = FaultPlan { kind: FaultKind::Panic, trigger: 1, seed: 9 };
    scanner.inject_fault(0, plan, u32::MAX);
    let err = scanner.push(&input[128..256]).unwrap_err();
    assert!(matches!(err, Error::WorkerPanicked { .. }), "got {err:?}");
    assert!(scanner.is_poisoned());
    assert_eq!(scanner.push(&input[128..256]).unwrap_err(), Error::StreamPoisoned);
    // The rolled-back checkpoint still marks byte 128.
    let ckpt = StreamCheckpoint::from_bytes(&scanner.checkpoint().to_bytes()).unwrap();
    assert_eq!(ckpt.consumed(), 128);
    let mut resumed = engine.resume(&ckpt).unwrap();
    assert!(!resumed.is_poisoned());
    ends.extend(stream_rest(&mut resumed, &input[128..], &[100]));
    assert_eq!(ends, batch, "resume after poison must replay to the batch answer");
}

/// Counter integrity across retries: a push that needed a retry commits
/// its bytes and modelled seconds exactly once — bit-identical to a
/// clean scanner fed the same chunks.
#[test]
fn retried_push_does_not_double_count() {
    quiet_injected_panics();
    let engine = BitGen::compile(&["a(bc)*d", "cat"]).unwrap();
    let input: Vec<u8> = b"abcbcd cat ".repeat(40);
    let mut clean = engine.streamer().unwrap();
    let mut faulty = engine.streamer().unwrap();
    faulty.set_retry_policy(RetryPolicy::none().with_attempts(2));
    faulty.inject_fault(0, FaultPlan { kind: FaultKind::Panic, trigger: 1, seed: 1 }, 1);
    let mut clean_ends = Vec::new();
    let mut faulty_ends = Vec::new();
    for chunk in input.chunks(128) {
        clean_ends.extend(clean.push(chunk).unwrap());
        faulty_ends.extend(faulty.push(chunk).unwrap());
    }
    assert_eq!(faulty.metrics().retries, 1, "the drill must actually have retried");
    assert_eq!(faulty_ends, clean_ends);
    assert_eq!(faulty.consumed(), clean.consumed(), "retry must not re-count bytes");
    assert_eq!(
        faulty.metrics().seconds().to_bits(),
        clean.metrics().seconds().to_bits(),
        "the failed attempt must contribute zero modelled seconds"
    );
}

/// Counter integrity across degradation: a degraded chunk's bytes count
/// once, and its modelled seconds reflect only the transpose plus the
/// surviving device windows — never more than the clean cost, and the
/// degradation is visible in the report fields.
#[test]
fn degraded_push_counts_bytes_once_and_is_reported() {
    quiet_injected_panics();
    let engine = BitGen::compile(&["a(bc)*d", "cat"]).unwrap();
    let input: Vec<u8> = b"abcbcd cat ".repeat(40);
    let mut clean = engine.streamer().unwrap();
    let mut degraded = engine.streamer().unwrap();
    degraded.set_retry_policy(RetryPolicy::resilient());
    degraded.inject_fault(0, FaultPlan { kind: FaultKind::Panic, trigger: 1, seed: 2 }, u32::MAX);
    let mut clean_ends = Vec::new();
    let mut degraded_ends = Vec::new();
    for chunk in input.chunks(128) {
        clean_ends.extend(clean.push(chunk).unwrap());
        degraded_ends.extend(degraded.push(chunk).unwrap());
    }
    assert_eq!(degraded_ends, clean_ends, "degraded matches stay exact");
    assert_eq!(degraded.consumed(), clean.consumed());
    assert!(degraded.metrics().degraded > 0);
    assert!(
        degraded.metrics().seconds() <= clean.metrics().seconds(),
        "degraded windows contribute no device work: {} > {}",
        degraded.metrics().seconds(),
        clean.metrics().seconds()
    );
}

/// A failed push under the fail-fast policy rolls *everything* back:
/// bytes, seconds, retries, and carry state all read as they did at the
/// last good boundary.
#[test]
fn failed_push_rolls_counters_back() {
    quiet_injected_panics();
    let engine = BitGen::compile(&["cat"]).unwrap();
    let mut scanner = engine.streamer().unwrap();
    scanner.push(b"cat and more cat").unwrap();
    let consumed = scanner.consumed();
    let seconds = scanner.metrics().seconds();
    scanner.inject_fault(0, FaultPlan { kind: FaultKind::Panic, trigger: 1, seed: 4 }, 1);
    scanner.push(b"catcatcat").unwrap_err();
    assert_eq!(scanner.consumed(), consumed);
    assert_eq!(scanner.metrics().seconds().to_bits(), seconds.to_bits());
    assert_eq!(scanner.metrics().retries, 0);
    assert_eq!(scanner.metrics().degraded, 0);
}

/// Checkpoints are engine-bound: resuming onto a different pattern set
/// (or group layout) is refused with a fingerprint mismatch rather than
/// misinterpreting the carry slots.
#[test]
fn resume_rejects_foreign_and_tampered_checkpoints() {
    let engine = BitGen::compile(&["a+b", "cat"]).unwrap();
    let other = BitGen::compile(&["xyz{2,}"]).unwrap();
    let mut scanner = engine.streamer().unwrap();
    scanner.push(b"aab cat aaa").unwrap();
    let ckpt = scanner.checkpoint();
    assert!(matches!(other.resume(&ckpt), Err(Error::CheckpointMismatch { .. })));
    assert!(engine.resume(&ckpt).is_ok());

    // Every single-byte corruption of the serialized form either fails
    // to parse (digest/magic/layout) or — never — restores silently.
    let bytes = ckpt.to_bytes();
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        if let Ok(parsed) = StreamCheckpoint::from_bytes(&bad) {
            assert_eq!(parsed, ckpt, "byte {i}: tampered checkpoint parsed to a new state");
        }
    }
    // Truncations at every length are typed errors.
    for len in 0..bytes.len() {
        assert!(
            matches!(
                StreamCheckpoint::from_bytes(&bytes[..len]),
                Err(Error::CheckpointInvalid { .. })
            ),
            "truncation to {len} bytes must be rejected"
        );
    }
}

/// An empty stream checkpoints and resumes too — the degenerate
/// boundary (before any push) must round-trip like any other.
#[test]
fn checkpoint_before_first_push_resumes_cleanly() {
    let engine = BitGen::compile(&["ab"]).unwrap();
    let scanner = engine.streamer().unwrap();
    let ckpt = StreamCheckpoint::from_bytes(&scanner.checkpoint().to_bytes()).unwrap();
    assert_eq!(ckpt.consumed(), 0);
    let mut resumed = engine.resume(&ckpt).unwrap();
    assert_eq!(resumed.push(b"ab").unwrap(), vec![1]);
}
