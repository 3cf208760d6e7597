//! The hot-swap acceptance differential: a stream that commits a
//! [`StagedRules`] generation at byte boundary `b` must report exactly
//! the matches of the old rules batch-scanned over `[0, b)` plus the
//! new rules fresh-scanned from `b` — under every chunking, including
//! one-byte chunks and a swap immediately after a checkpoint resume.
//! Plus the protocol semantics: prepare failures touch nothing, commits
//! are fenced to the staged generation's parent, and checkpoints carry
//! the generation across suspend/resume.

use bitgen::{BitGen, Error, StreamCheckpoint, StreamScanner};
use proptest::prelude::*;

const POOL: &[&str] =
    &["a+b", "(ab)*c", ".{0,3}x", "a{2,}", "ab", "a(bc)*d", "(a|bb)+c", "x[ab]{1,4}y"];

fn arb_patterns() -> impl Strategy<Value = Vec<&'static str>> {
    prop::collection::vec(prop::sample::select(POOL.to_vec()), 1..4)
}

fn arb_input() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(b"aabbccdxy. ".to_vec()), 2..140)
}

fn arb_chunking() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..64, 1..6)
}

fn batch_ends(engine: &BitGen, input: &[u8]) -> Vec<u64> {
    engine.find(input).unwrap().matches.positions().iter().map(|&p| p as u64).collect()
}

/// Pushes `input` through `scanner` under the chunking plan.
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

/// What a swap at offset `b` must report: old rules batch-scanned over
/// the prefix, new rules fresh-scanned from `b` with positions
/// rebased to the global offset.
fn expected_with_swap(
    old: &BitGen,
    new_patterns: &[&str],
    input: &[u8],
    b: usize,
) -> Vec<u64> {
    let mut ends = batch_ends(old, &input[..b]);
    let fresh = BitGen::compile(new_patterns).unwrap();
    ends.extend(batch_ends(&fresh, &input[b..]).into_iter().map(|p| p + b as u64));
    ends
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The acceptance differential, over random pattern sets, inputs,
    /// chunkings, and swap boundaries.
    #[test]
    fn swap_equals_old_prefix_plus_new_suffix(
        old_patterns in arb_patterns(),
        new_patterns in arb_patterns(),
        input in arb_input(),
        sizes in arb_chunking(),
        cut in 0usize..140,
    ) {
        let engine = BitGen::compile(&old_patterns).unwrap();
        let staged = engine.prepare_swap(&new_patterns).unwrap();
        let mut scanner = engine.streamer().unwrap();
        let mut ends = Vec::new();
        // Stream to a chunk boundary at or before `cut`, swap there,
        // stream the rest.
        let mut pos = 0usize;
        let mut i = 0usize;
        while pos < input.len().min(cut) {
            let size = sizes[i % sizes.len()].max(1).min(input.len().min(cut) - pos);
            ends.extend(scanner.push(&input[pos..pos + size]).unwrap());
            pos += size;
            i += 1;
        }
        scanner.commit_swap(&staged).unwrap();
        prop_assert_eq!(scanner.generation(), 1);
        ends.extend(stream_rest(&mut scanner, &input[pos..], &sizes));
        let expected = expected_with_swap(&engine, &new_patterns, &input, pos);
        prop_assert_eq!(&ends, &expected,
            "old {:?} new {:?} swap at {} chunking {:?}: swapped stream diverged",
            old_patterns, new_patterns, pos, sizes);
        prop_assert_eq!(scanner.metrics().swaps, 1);
        prop_assert_eq!(scanner.metrics().swap_rollbacks, 0);
        prop_assert_eq!(scanner.consumed(), input.len() as u64);
    }

    /// Swap immediately after resuming from a checkpoint: suspend at
    /// the boundary, round-trip the checkpoint through bytes, resume,
    /// commit the swap as the first action, stream the suffix.
    #[test]
    fn swap_right_after_resume_equals_differential(
        old_patterns in arb_patterns(),
        new_patterns in arb_patterns(),
        input in arb_input(),
        sizes in arb_chunking(),
        cut in 0usize..140,
    ) {
        let engine = BitGen::compile(&old_patterns).unwrap();
        let staged = engine.prepare_swap(&new_patterns).unwrap();
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
        let ckpt = StreamCheckpoint::from_bytes(&first.checkpoint().to_bytes()).unwrap();
        drop(first);
        let mut second = engine.resume(&ckpt).unwrap();
        second.commit_swap(&staged).unwrap();
        ends.extend(stream_rest(&mut second, &input[pos..], &sizes));
        let expected = expected_with_swap(&engine, &new_patterns, &input, pos);
        prop_assert_eq!(&ends, &expected,
            "old {:?} new {:?} resume+swap at {}: diverged", old_patterns, new_patterns, pos);
    }
}

/// One-byte chunks across the swap boundary — the tightest interleaving
/// of carry propagation and generation change.
#[test]
fn swap_under_one_byte_chunks() {
    let engine = BitGen::compile(&["a+b", "cat"]).unwrap();
    let staged = engine.prepare_swap(&["x[ab]{1,4}y", "a{2,}"]).unwrap();
    let input = b"cat aab xaby aa cat xby";
    for cut in 0..=input.len() {
        let mut scanner = engine.streamer().unwrap();
        let mut ends = Vec::new();
        for b in &input[..cut] {
            ends.extend(scanner.push(std::slice::from_ref(b)).unwrap());
        }
        scanner.commit_swap(&staged).unwrap();
        for b in &input[cut..] {
            ends.extend(scanner.push(std::slice::from_ref(b)).unwrap());
        }
        let expected = expected_with_swap(&engine, &["x[ab]{1,4}y", "a{2,}"], input, cut);
        assert_eq!(ends, expected, "one-byte chunking diverged at cut {cut}");
    }
}

/// A failed prepare never disturbs the serving stream: the scanner
/// keeps matching the old rules, at generation 0, as if the prepare had
/// never been attempted.
#[test]
fn failed_prepare_leaves_stream_untouched() {
    let engine = BitGen::compile(&["cat"]).unwrap();
    let mut scanner = engine.streamer().unwrap();
    let mut ends = scanner.push(b"cat ").unwrap();
    assert!(matches!(engine.prepare_swap(&["(oops"]), Err(Error::Compile(_))));
    ends.extend(scanner.push(b"cat").unwrap());
    assert_eq!(ends, vec![2, 6]);
    assert_eq!(scanner.generation(), 0);
    assert_eq!(scanner.metrics().swaps, 0);
}

/// Generation fencing end to end: a checkpoint taken after a swap
/// resumes only on the staged generation's engine — the original
/// engine (same patterns, generation 0) refuses it with a typed error,
/// as does a fresh compile of the *new* patterns (whose fingerprint
/// differs from the staged twin only in provenance, so the fingerprint
/// check fires first).
#[test]
fn post_swap_checkpoints_are_generation_fenced() {
    let engine = BitGen::compile(&["cat"]).unwrap();
    let staged = engine.prepare_swap(&["dog"]).unwrap();
    let mut scanner = engine.streamer().unwrap();
    scanner.push(b"cat ").unwrap();
    scanner.commit_swap(&staged).unwrap();
    scanner.push(b"dog ").unwrap();
    let ckpt = StreamCheckpoint::from_bytes(&scanner.checkpoint().to_bytes()).unwrap();
    assert_eq!(ckpt.generation(), 1);

    // The old engine: same generation counter? No — wrong fingerprint.
    assert!(matches!(engine.resume(&ckpt), Err(Error::CheckpointMismatch { .. })));
    // A fresh compile of the new patterns: right fingerprint, wrong
    // generation (0 vs the checkpoint's 1).
    let fresh = BitGen::compile(&["dog"]).unwrap();
    assert_eq!(fresh.stream_fingerprint(), staged.engine().stream_fingerprint());
    match fresh.resume(&ckpt) {
        Err(Error::GenerationMismatch { expected, found }) => {
            assert_eq!(expected, 0);
            assert_eq!(found, 1);
        }
        other => panic!("expected GenerationMismatch, got {other:?}"),
    }
    // The staged engine itself: resumes, and finishes the stream.
    let mut resumed = staged.engine().resume(&ckpt).unwrap();
    let ends = resumed.push(b"dog").unwrap();
    assert_eq!(ends, vec![10]);
    assert_eq!(resumed.metrics().swaps, 1);
}

/// Commit fencing: a staged generation only lands on a scanner serving
/// its parent engine at its parent generation, and a second commit
/// while the first window is still pending is refused. Every refusal
/// leaves the scanner fully intact.
#[test]
fn commit_refuses_wrong_parent_wrong_generation_and_pending_window() {
    let a = BitGen::compile(&["cat"]).unwrap();
    let b = BitGen::compile(&["dog"]).unwrap();
    let staged_a = a.prepare_swap(&["dog"]).unwrap();
    let staged_a2 = a.prepare_swap(&["fish"]).unwrap();

    // Wrong parent: staged from `a`, committed onto a `b` scanner.
    let mut wrong = b.streamer().unwrap();
    assert!(matches!(wrong.commit_swap(&staged_a), Err(Error::SwapMismatch { .. })));
    assert_eq!(wrong.generation(), 0);
    assert_eq!(wrong.metrics().swaps, 0);

    let mut scanner = a.streamer().unwrap();
    scanner.push(b"cat ").unwrap();
    scanner.commit_swap(&staged_a).unwrap();
    // Pending window: the swap has not served a push yet.
    assert!(matches!(scanner.commit_swap(&staged_a2), Err(Error::SwapMismatch { .. })));
    scanner.push(b"dog ").unwrap();
    // Window closed — but the scanner is now at generation 1, and
    // `staged_a2` was prepared from generation 0.
    assert!(matches!(scanner.commit_swap(&staged_a2), Err(Error::SwapMismatch { .. })));
    // The right lineage: stage from the generation actually serving.
    let staged_next = staged_a.engine().prepare_swap(&["fish"]).unwrap();
    scanner.commit_swap(&staged_next).unwrap();
    let ends = scanner.push(b"fish").unwrap();
    assert_eq!(ends, vec![11]);
    assert_eq!(scanner.generation(), 2);
    assert_eq!(scanner.metrics().swaps, 2);
}

/// Chained swaps keep the differential: two generations committed at
/// two boundaries partition the stream into three independently-ruled
/// segments.
#[test]
fn chained_swaps_partition_the_stream()  {
    let g0 = BitGen::compile(&["cat"]).unwrap();
    let s1 = g0.prepare_swap(&["dog"]).unwrap();
    let s2 = s1.engine().prepare_swap(&["cat", "dog"]).unwrap();
    let mut scanner = g0.streamer().unwrap();
    let mut ends = scanner.push(b"cat dog ").unwrap();
    scanner.commit_swap(&s1).unwrap();
    ends.extend(scanner.push(b"cat dog ").unwrap());
    scanner.commit_swap(&s2).unwrap();
    ends.extend(scanner.push(b"cat dog ").unwrap());
    assert_eq!(ends, vec![2, 14, 18, 22]);
    assert_eq!(scanner.generation(), 2);
    assert_eq!(scanner.metrics().swaps, 2);
    // Scalars survived both swaps.
    assert_eq!(scanner.consumed(), 24);
    assert_eq!(scanner.metrics().match_count, 4);
}

/// Metrics across a swap: scalar counters accumulate over the whole
/// stream, while the per-group accumulators describe the serving
/// generation (they reset with the carry layout — the group count may
/// change entirely).
#[test]
fn metrics_scalars_survive_swap_and_ctas_track_generation() {
    let engine = BitGen::compile(&["a+b", "cat", "x[ab]{1,4}y"]).unwrap();
    let staged = engine.prepare_swap(&["dog"]).unwrap();
    let mut scanner = engine.streamer().unwrap();
    scanner.push(b"aab cat xaby ").unwrap();
    let before = scanner.metrics().clone();
    assert!(before.seconds() > 0.0);
    scanner.commit_swap(&staged).unwrap();
    let mid = scanner.metrics();
    assert_eq!(mid.bytes_scanned, before.bytes_scanned);
    assert_eq!(mid.match_count, before.match_count);
    assert_eq!(mid.seconds().to_bits(), before.seconds().to_bits());
    assert_eq!(mid.ctas.len(), staged.engine().group_count());
    scanner.push(b"dog").unwrap();
    let after = scanner.metrics();
    assert!(after.seconds() > before.seconds());
    assert_eq!(after.bytes_scanned, 16);
    assert!(after.counters_total().alu_ops > 0);
}
