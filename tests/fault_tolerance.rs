//! Fault-injection drills over the whole scan pipeline.
//!
//! A seeded [`FaultPlan`] corrupts one CTA's execution — shared-memory
//! bit flips, skipped barriers, corrupted trip counts and counters,
//! forced panics — and the pipeline's checks (race detector, counter
//! invariant, interpreter cross-check, panic isolation) must catch it.
//! The contract under test: **no injected fault ever yields a silently
//! incorrect ScanReport.** Every case either returns a typed error or
//! produces matches bit-identical to an unfaulted run (the fault was
//! masked).

use bitgen::{
    BitGen, CancelToken, EngineConfig, Error, ExecError, FaultKind, FaultPlan, RecoveryPolicy,
    RetryPolicy, Scheme,
};
use std::sync::Once;
use std::time::{Duration, Instant};

mod exact_groups;
use exact_groups::walks;

/// Injected panics are part of the drill; keep their default-hook
/// stderr spew out of the test output. Real panics still print.
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

const PATTERNS: [&str; 3] = ["a(bc)*d", "cat", "[0-9]+x"];

/// Four workload shapes the seeded sweep cycles through.
fn workload(case: usize) -> Vec<u8> {
    let blocks: [&[u8]; 4] = [b"abcbcd cat 42x ", b"zzzzzzzz ", b"abcbcbcbcd 7x ", b"catcatd "];
    let mut input = Vec::new();
    for i in 0..40 + (case % 7) * 11 {
        input.extend_from_slice(blocks[(case + i) % 4]);
    }
    input
}

fn engine(recovery: RecoveryPolicy) -> BitGen {
    engine_on(Scheme::Zbs, recovery)
}

fn engine_on(scheme: Scheme, recovery: RecoveryPolicy) -> BitGen {
    let config = EngineConfig::default()
        .with_scheme(scheme)
        .with_cta_count(2)
        .with_threads(2)
        .with_cross_check(true)
        .with_recovery(recovery);
    BitGen::compile_with(&PATTERNS, config).unwrap()
}

/// The acceptance sweep: ≥100 seeded (fault, workload) cases, each
/// arming one deterministic fault on one (stream, group) CTA. A case
/// counts as *detected* when the scan returns a typed error, *masked*
/// when it succeeds with matches bit-identical to the clean run.
/// Anything else — success with different matches — is silent
/// corruption and fails the test. On every rung: a slot that emulates
/// (ZBS and SR, a DTM group whose kernel loops) takes its fault in the CTA
/// emulator; a slot that walks (Sequential, Base, DTM-, a loop-free DTM
/// group) in the walk its scan runs — the streaming window's own faults.
#[test]
fn seeded_fault_sweep_has_no_silent_corruption() {
    quiet_injected_panics();
    for scheme in Scheme::ALL {
        seeded_fault_sweep(&engine_on(scheme, RecoveryPolicy::Fail));
    }
}

fn seeded_fault_sweep(engine: &BitGen) {
    let groups = engine.group_count();
    let scheme = engine.config().scheme;
    let mut detected = 0usize;
    let mut masked = 0usize;
    for seed in 0..120u64 {
        let input = workload(seed as usize);
        let clean = engine.find(&input).unwrap().matches;
        let mut session = engine.session();
        session.inject_fault(0, seed as usize % groups, FaultPlan::from_seed(seed));
        match session.scan(&input) {
            Err(_) => detected += 1,
            Ok(report) => {
                assert_eq!(
                    report.matches, clean,
                    "{scheme} seed {seed}: fault passed silently with corrupted matches"
                );
                assert!(!report.degraded(), "Fail policy must not degrade");
                masked += 1;
            }
        }
    }
    assert_eq!(detected + masked, 120);
    println!("{scheme}: {detected} of 120 faults detected, {masked} masked");
    // The sweep must genuinely exercise the checks: panics alone are a
    // fifth of the plans, so a healthy run detects well above that.
    assert!(detected >= 24, "{scheme}: only {detected}/120 detections — injector is not firing");
    // Exactly the groups whose fused form is not exact built a plan.
    for group in 0..groups {
        let planned = engine.batch_plan(group).is_some();
        assert_eq!(planned, !walks(engine, group), "{scheme}: group {group}'s plan");
    }
}

/// Batch match ends as global offsets — the streaming ground truth.
fn batch_ends(engine: &BitGen, input: &[u8]) -> Vec<u64> {
    engine.find(input).unwrap().matches.positions().iter().map(|&p| p as u64).collect()
}

/// The streaming acceptance sweep: ≥120 seeded faults armed *mid-stream*
/// (one clean chunk, then the fault on the victim group's next window).
/// Scanners run fail-fast (default [`RetryPolicy`]), so each case either
/// returns a typed error — after which the scanner must be poisoned and
/// refuse reuse — or completes with matches bit-identical to batch
/// [`BitGen::find`]. Success with different matches is silent corruption
/// and fails the test.
#[test]
fn streaming_seeded_fault_sweep_has_no_silent_corruption() {
    quiet_injected_panics();
    let engine = engine(RecoveryPolicy::Fail);
    let groups = engine.group_count();
    let mut detected = 0usize;
    let mut masked = 0usize;
    for seed in 0..120u64 {
        let input = workload(seed as usize);
        let clean = batch_ends(&engine, &input);
        let mut scanner = engine.streamer().unwrap();
        let sizes = [61 + seed as usize % 77, 40, 129];
        let first = sizes[0].min(input.len());
        let mut ends = scanner.push(&input[..first]).unwrap();
        scanner.inject_fault(seed as usize % groups, FaultPlan::from_seed(seed), 1);
        let mut pos = first;
        let mut i = 1usize;
        let mut failed = None;
        while pos < input.len() {
            let size = sizes[i % sizes.len()].min(input.len() - pos);
            match scanner.push(&input[pos..pos + size]) {
                Ok(more) => ends.extend(more),
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
            pos += size;
            i += 1;
        }
        match failed {
            Some(_) => {
                detected += 1;
                // An unrecovered failure poisons the scanner: reuse is
                // fenced off with the dedicated error, not re-executed.
                assert!(scanner.is_poisoned(), "seed {seed}: failed scanner not poisoned");
                assert_eq!(
                    scanner.push(b"more").unwrap_err(),
                    Error::StreamPoisoned,
                    "seed {seed}: reuse after failure must be StreamPoisoned"
                );
            }
            None => {
                assert_eq!(
                    ends, clean,
                    "seed {seed}: fault passed silently with corrupted stream matches"
                );
                assert_eq!(scanner.metrics().degraded, 0, "fail-fast must not degrade");
                masked += 1;
            }
        }
    }
    assert_eq!(detected + masked, 120);
    // Panics alone are a fifth of the plans; a healthy run detects more.
    assert!(detected >= 24, "only {detected}/120 detections — injector is not firing");
}

/// Every group's windows over one chunk read the same class streams,
/// evaluated once per push. A fault landing on a `MatchCc` must corrupt
/// that instruction's private value only: the corrupted window is caught
/// and retried, and the retry and every other group of the same push —
/// all reading the same class — still report exactly the oracle's ends.
#[test]
fn a_fault_on_a_class_match_stays_out_of_the_shared_class_streams() {
    use bitgen_ir::{Op, Stmt};
    // Three groups over the one class [a], on input where every position
    // of it matters to every group.
    let config = EngineConfig::default().with_cta_count(3).with_cross_check(true);
    let engine = BitGen::compile_with(&["aa", "aaa", "aaaa"], config).unwrap();
    assert_eq!(engine.group_count(), 3);
    for prepared in engine.stream_programs() {
        let first = &prepared.program().stmts()[0];
        assert!(matches!(first, Stmt::Op(Op::MatchCc { .. })), "trigger 1 must hit {first:?}");
        assert_eq!(prepared.class_count(), 1, "one class shared by every group");
    }
    let input = vec![b'a'; 300];
    let clean = batch_ends(&engine, &input);
    for kind in [FaultKind::SmemFlip, FaultKind::CorruptTrips] {
        let mut scanner = engine.streamer().unwrap();
        scanner.set_retry_policy(RetryPolicy::none().with_attempts(2));
        let mut ends = scanner.push(&input[..100]).unwrap();
        // Group 0's first instruction, bit 7 of the window: an `a` the
        // flip turns off, so the cross-check must notice.
        scanner.inject_fault(0, FaultPlan { kind, trigger: 1, seed: 7 }, 1);
        for chunk in input[100..].chunks(100) {
            ends.extend(scanner.push(chunk).unwrap());
        }
        assert_eq!(ends, clean, "{kind:?}: a group read corrupted class bits");
        // The flip is always noticed and retried; a corrupted carry-out
        // bit may be one the window sets anyway.
        let retries = scanner.metrics().retries;
        let masked = kind == FaultKind::CorruptTrips && retries == 0;
        assert!(retries == 1 || masked, "{kind:?}: {retries} retries");
        assert_eq!(scanner.metrics().degraded, 0);
    }
}

/// A lost store (`SkipBarrier`) on any instruction of a window — whose
/// destination buffer last held some other stream's bits wherever the
/// plan recycled it — is always a typed error, `StoreElided` unless a
/// later instruction asks for the missing stream first, and a retry
/// recovers the oracle's ends.
#[test]
fn a_lost_store_on_a_recycled_buffer_is_always_caught() {
    let engine = engine(RecoveryPolicy::Fail);
    let input = workload(1);
    let clean = batch_ends(&engine, &input);
    let ops = engine.stream_programs()[0].program().op_count() as u32;
    assert!(engine.stream_programs()[0].live_slots() < ops as usize, "buffers are recycled");
    let mut elided = 0;
    for trigger in 1..=ops {
        let plan = FaultPlan { kind: FaultKind::SkipBarrier, trigger, seed: 0 };
        let mut scanner = engine.streamer().unwrap();
        scanner.inject_fault(0, plan, 1);
        match scanner.push(&input[..90]).unwrap_err() {
            Error::Exec(ExecError::StoreElided { issued, stored }) => {
                assert_eq!(issued, stored + 1);
                elided += 1;
            }
            Error::Exec(ExecError::UnwrittenStream { .. }) => {}
            other => panic!("trigger {trigger}: lost store surfaced as {other}"),
        }
        let mut retried = engine.streamer().unwrap();
        retried.set_retry_policy(RetryPolicy::none().with_attempts(2));
        retried.inject_fault(0, plan, 1);
        let mut ends = Vec::new();
        for chunk in input.chunks(90) {
            ends.extend(retried.push(chunk).unwrap());
        }
        assert_eq!(ends, clean, "trigger {trigger}");
    }
    assert!(elided > 0, "no lost store reached the store-count invariant");
}

/// A transient fault (one corrupted window execution) is absorbed by a
/// retry: the push succeeds on fresh scratch, matches stay bit-identical
/// to batch, and the recovery is visible in [`StreamScanner::retries`].
#[test]
fn streaming_retry_recovers_transient_faults() {
    quiet_injected_panics();
    let engine = engine(RecoveryPolicy::Fail);
    let input = workload(2);
    let clean = batch_ends(&engine, &input);
    // These kinds are deterministically detected (panic isolation, the
    // always-on slot-walk counter invariant, carry cross-check).
    for kind in [FaultKind::Panic, FaultKind::CorruptCounter, FaultKind::CorruptTrips] {
        let mut scanner = engine.streamer().unwrap();
        scanner.set_retry_policy(RetryPolicy::none().with_attempts(3));
        let mut ends = scanner.push(&input[..100]).unwrap();
        scanner.inject_fault(0, FaultPlan { kind, trigger: 1, seed: 11 }, 1);
        for chunk in input[100..].chunks(97) {
            ends.extend(scanner.push(chunk).unwrap());
        }
        assert_eq!(ends, clean, "{kind:?}: retried stream must match batch");
        assert_eq!(scanner.metrics().retries, 1, "{kind:?}: exactly one retry");
        assert_eq!(scanner.metrics().degraded, 0, "{kind:?}: no degradation needed");
        assert!(!scanner.is_poisoned(), "{kind:?}: recovered scanner stays live");
        assert_eq!(scanner.consumed(), input.len() as u64);
    }
}

/// A persistent fault (armed on every window of its group) exhausts the
/// retry budget every push; under a degrading policy each affected chunk
/// falls back to the CPU interpreter with exact matches, and the
/// degradation is reported — never silent.
#[test]
fn streaming_degradation_recovers_persistent_faults() {
    quiet_injected_panics();
    let engine = engine(RecoveryPolicy::Fail);
    let input = workload(3);
    let clean = batch_ends(&engine, &input);
    let mut scanner = engine.streamer().unwrap();
    scanner.set_retry_policy(RetryPolicy::resilient());
    let plan = FaultPlan { kind: FaultKind::Panic, trigger: 1, seed: 5 };
    scanner.inject_fault(0, plan, u32::MAX);
    let mut ends = Vec::new();
    let mut pushes = 0u64;
    for chunk in input.chunks(113) {
        ends.extend(scanner.push(chunk).unwrap());
        pushes += 1;
    }
    assert_eq!(ends, clean, "degraded stream must match batch exactly");
    assert_eq!(scanner.metrics().degraded, pushes, "every chunk was recovered on the CPU");
    assert_eq!(scanner.metrics().retries, 2 * pushes, "two failed retries per degraded push");
    assert!(!scanner.is_poisoned());
    scanner.clear_fault();
    // Fault cleared: the stream keeps going on the device path.
    let before = scanner.metrics().degraded;
    scanner.push(b"abcbcd cat 42x ").unwrap();
    assert_eq!(scanner.metrics().degraded, before);
}

/// Cancellation mid-stream rolls the push back without poisoning: the
/// scanner stays usable, and re-pushing the same chunk after clearing
/// the token yields exactly the matches an uninterrupted stream gets.
#[test]
fn streaming_cancellation_rolls_back_without_poisoning() {
    let engine = engine(RecoveryPolicy::Fail);
    let input = workload(4);
    let clean = batch_ends(&engine, &input);
    let mut scanner = engine.streamer().unwrap();
    let mut ends = scanner.push(&input[..200]).unwrap();
    let consumed = scanner.consumed();
    let seconds = scanner.metrics().seconds();
    let token = CancelToken::new();
    token.cancel();
    scanner.set_cancel_token(token);
    assert_eq!(
        scanner.push(&input[200..400]).unwrap_err(),
        Error::Exec(ExecError::Cancelled)
    );
    assert!(!scanner.is_poisoned(), "interrupts must not poison");
    assert_eq!(scanner.consumed(), consumed, "failed push must not count bytes");
    assert_eq!(scanner.metrics().seconds().to_bits(), seconds.to_bits(), "or seconds");
    scanner.set_cancel_token(CancelToken::new());
    ends.extend(scanner.push(&input[200..400]).unwrap());
    for chunk in input[400..].chunks(256) {
        ends.extend(scanner.push(chunk).unwrap());
    }
    assert_eq!(ends, clean, "post-cancel replay must be bit-identical to batch");
}

/// A worker panic in one (group × stream) CTA surfaces as a typed
/// error naming the slot, and a rerun without the fault is unharmed —
/// the panic corrupted nothing outside its slot.
#[test]
fn worker_panic_is_isolated_and_typed() {
    quiet_injected_panics();
    let engine = engine(RecoveryPolicy::Fail);
    let inputs: Vec<Vec<u8>> = (0..4).map(workload).collect();
    let slices: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    let clean = engine.find_many(&slices).unwrap();

    let plan = FaultPlan { kind: FaultKind::Panic, trigger: 1, seed: 7 };
    let mut session = engine.session();
    session.inject_fault(2, 1, plan);
    let err = session.scan_many(&slices).unwrap_err();
    assert_eq!(
        err,
        Error::WorkerPanicked { group: 1, stream: 2 },
        "panic must name the faulted slot"
    );

    // The same session, fault cleared, recovers fully: the panicked
    // worker's scratch was discarded, every stream is bit-identical.
    session.clear_fault();
    let again = session.scan_many(&slices).unwrap();
    for (a, b) in clean.iter().zip(&again) {
        assert_eq!(a.matches, b.matches);
        assert_eq!(a.per_pattern, b.per_pattern);
    }
}

/// Under [`RecoveryPolicy::Degrade`] a faulted CTA is replayed on the
/// reference interpreter over its group's lowering, in its own worker:
/// the scan succeeds, the affected stream is
/// flagged degraded, and every stream's matches — including the
/// recovered one — are bit-identical to a clean run.
#[test]
fn degradation_recovers_exact_matches_on_cpu() {
    quiet_injected_panics();
    let engine = engine(RecoveryPolicy::Degrade);
    let inputs: Vec<Vec<u8>> = (0..3).map(workload).collect();
    let slices: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    let clean = engine.find_many(&slices).unwrap();
    assert!(clean.iter().all(|r| !r.degraded()));

    for kind in [FaultKind::Panic, FaultKind::CorruptCounter] {
        let mut session = engine.session();
        session.inject_fault(1, 0, FaultPlan { kind, trigger: 1, seed: 3 });
        let reports = session.scan_many(&slices).unwrap();
        assert!(reports[1].degraded(), "{kind:?}: faulted stream must be flagged");
        assert!(!reports[0].degraded() && !reports[2].degraded(), "{kind:?}: blast radius");
        for (i, (clean_r, got)) in clean.iter().zip(&reports).enumerate() {
            assert_eq!(clean_r.matches, got.matches, "{kind:?}: stream {i} matches");
        }
    }
}

/// Cancellation and deadlines surface as typed errors, cooperatively.
#[test]
fn cancellation_and_deadline_are_typed_errors() {
    let engine = engine(RecoveryPolicy::Fail);
    let input = workload(0);

    let token = CancelToken::new();
    token.cancel();
    let mut session = engine.session();
    session.set_cancel_token(token);
    let err = session.scan(&input).unwrap_err();
    assert_eq!(err, Error::Exec(ExecError::Cancelled));

    let mut session = engine.session();
    session.set_timeout(Some(Duration::ZERO));
    let start = Instant::now();
    let err = session.scan(&input).unwrap_err();
    assert_eq!(err, Error::Exec(ExecError::DeadlineExceeded));
    assert!(start.elapsed() < Duration::from_secs(5), "deadline must abort promptly");

    // A generous deadline changes nothing.
    let mut session = engine.session();
    session.set_timeout(Some(Duration::from_secs(3600)));
    let report = session.scan(&input).unwrap();
    assert_eq!(report.matches, engine.find(&input).unwrap().matches);
}

/// Degradation never overrides the caller's request to stop: a
/// cancelled scan is a typed error even under Degrade (every slot
/// fails identically, and "recovering" them all on the CPU would hide
/// the cancel entirely).
#[test]
fn degrade_policy_does_not_swallow_cancellation() {
    let degrade = engine(RecoveryPolicy::Degrade);
    let input = workload(5);

    let token = CancelToken::new();
    token.cancel();
    let mut session = degrade.session();
    session.set_cancel_token(token);
    assert_eq!(session.scan(&input).unwrap_err(), Error::Exec(ExecError::Cancelled));

    // And a clean scan under Degrade is not degraded at all.
    let fail = engine(RecoveryPolicy::Fail);
    let a = degrade.find(&input).unwrap();
    let b = fail.find(&input).unwrap();
    assert!(!a.degraded());
    assert_eq!(a.matches, b.matches);
}
