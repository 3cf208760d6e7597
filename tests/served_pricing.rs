//! How a served push is billed (DESIGN.md §10).
//!
//! A streaming window walks its program a statement at a time; the push
//! bills the cheaper of that walk, priced as sequential blockwise
//! execution, and the same window priced as the paper's DTM- launch. The
//! DTM- form is arithmetic on the window's own counts
//! ([`BitGen::fused_form`]), so it must be exactly what the CTA emulator
//! counts running the untransformed program under `Scheme::DtmStatic`,
//! field by field; and every push must bill exactly the smaller of the two
//! launch estimates.

use bitgen::{BitGen, EngineConfig, ExecConfig, FaultKind, FaultPlan, RetryPolicy, Scheme};
use bitgen_bitstream::{Basis, BitStream};
use bitgen_exec::{BatchPlan, ClassStreams, ExecMetrics, ExecScratch};
use bitgen_gpu::CtaWork;
use bitgen_ir::{CarryState, RunControl};
use bitgen_workloads::{generate, AppKind, WorkloadConfig};
use proptest::prelude::*;

fn workload(kind: AppKind, rules: usize, input_len: usize) -> (Vec<String>, Vec<u8>) {
    let w = generate(
        kind,
        &WorkloadConfig { regexes: rules, input_len, seed: 0xb17, witness_density: 0.05 },
    );
    (w.patterns, w.input)
}

fn compile(patterns: &[String], config: EngineConfig) -> BitGen {
    let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
    BitGen::compile_with(&refs, config).expect("generated rules compile")
}

/// The executor configuration of an engine with `config`.
fn exec_config(config: &EngineConfig) -> ExecConfig {
    ExecConfig {
        scheme: config.scheme,
        threads: config.threads,
        merge_size: config.merge_size,
        interval: config.interval,
        max_regs: config.max_regs,
        fallback: config.fallback,
        ..ExecConfig::default()
    }
}

/// Every group's window over `chunk` from the given carries, through the
/// scanner's door: the metrics a push of `chunk` commits.
fn windows(engine: &BitGen, carries: &mut [CarryState], chunk: &[u8]) -> Vec<ExecMetrics> {
    let config = exec_config(engine.config());
    let programs = engine.stream_programs();
    let basis = Basis::transpose(chunk);
    let mut classes = ClassStreams::new();
    programs[0].evaluate_classes(&basis, &mut classes);
    let (ctl, mut scratch) = (RunControl::unlimited(), ExecScratch::new());
    (programs.iter().zip(carries))
        .map(|(prepared, carry)| {
            let mut union = BitStream::zeros(chunk.len());
            let (classes, scratch, union) = (&classes, &mut scratch, &mut union);
            let window = prepared
                .execute_window_into(classes, &basis, &config, scratch, &ctl, carry, union)
                .expect("clean window");
            carry.rotate();
            window
        })
        .collect()
}

fn fresh_carries(engine: &BitGen) -> Vec<CarryState> {
    engine.stream_programs().iter().map(|p| CarryState::for_layout(p.carry_layout())).collect()
}

/// Asserts that a one-push stream's fused forms are what the emulator
/// counts for `BatchPlan::new(untransformed, DtmStatic)`, field by field.
fn assert_fused_is_emulated(what: &str, engine: &BitGen, chunk: &[u8]) {
    let windows = windows(engine, &mut fresh_carries(engine), chunk);
    let config = ExecConfig { scheme: Scheme::DtmStatic, ..exec_config(engine.config()) };
    let basis = Basis::transpose(chunk);
    let (ctl, mut scratch) = (RunControl::unlimited(), ExecScratch::new());
    for (group, (prepared, window)) in engine.stream_programs().iter().zip(&windows).enumerate() {
        let what = format!("{what} group {group} chunk {}", chunk.len());
        let fused = engine.fused_form(group, window, chunk.len()).expect("a ZBS engine prices");
        let plan = BatchPlan::new(prepared.program().clone(), &config);
        let emulated = plan.execute(&basis, &config, &mut scratch, &ctl).expect("DTM- runs");
        let emulated = emulated.metrics;
        assert_eq!(fused.counters, emulated.counters, "{what}: counters");
        let shape = |m: &ExecMetrics| {
            (m.threads, m.regs_per_thread, m.smem_bytes, m.shift_groups, m.segments)
        };
        assert_eq!(shape(&fused), shape(&emulated), "{what}: threads, regs, smem, groups, segs");
        let overlap = |m: &ExecMetrics| {
            (m.intermediates, m.static_overlap, m.window_iterations, m.fallbacks)
        };
        assert_eq!(overlap(&fused), overlap(&emulated), "{what}: overlap");
        assert_eq!(fused.recompute_frac.to_bits(), emulated.recompute_frac.to_bits(), "{what}");
    }
}

#[test]
fn a_windows_fused_form_is_what_the_emulator_counts_under_dtm_static() {
    // Under `match_star` the streamed programs carry `Add` segments, and
    // their price must be exact too.
    for match_star in [false, true] {
        for kind in AppKind::ALL {
            let (patterns, input) = workload(kind, 8, 65536);
            let engine = compile(&patterns, EngineConfig::default().with_match_star(match_star));
            let what = format!("{} match_star={match_star}", kind.name());
            for len in [1, 63, 2047, 2048, 4096, 65536] {
                assert_fused_is_emulated(&what, &engine, &input[..len]);
            }
        }
    }
}

#[test]
fn segments_that_outgrow_a_narrow_window_run_sequentially_in_both() {
    // One-thread CTAs: a 32-bit window keeps no room for overlap, so a
    // segment that shifts falls back and one that does not still fuses.
    for kind in [AppKind::Snort, AppKind::ExactMatch, AppKind::Tcp] {
        let (patterns, input) = workload(kind, 6, 4096);
        let engine = compile(&patterns, EngineConfig::default().with_cta_threads(1));
        let windows = windows(&engine, &mut fresh_carries(&engine), &input[..64]);
        let fallbacks: u64 = (windows.iter().enumerate())
            .map(|(g, window)| engine.fused_form(g, window, 64).unwrap().fallbacks)
            .sum();
        assert!(fallbacks > 0, "{}: no segment outgrew a 32-bit window", kind.name());
        for len in [1, 63, 4096] {
            assert_fused_is_emulated(kind.name(), &engine, &input[..len]);
        }
    }
}

/// Streams `input` in `sizes`-byte pushes, asserting that each push bills
/// exactly the smaller of the two launch estimates.
fn assert_each_push_bills_the_cheaper(engine: &BitGen, input: &[u8], sizes: &[usize]) {
    let device = &engine.config().device;
    let mut scanner = engine.streamer().unwrap();
    let mut carries = fresh_carries(engine);
    let (mut kernel_seconds, mut fused_pushes) = (0.0f64, 0u64);
    let mut pos = 0;
    for size in sizes.iter().cycle() {
        if pos >= input.len() {
            break;
        }
        let chunk = &input[pos..(pos + size).min(input.len())];
        pos += chunk.len();
        let windows = windows(engine, &mut carries, chunk);
        let works = |forms: &[ExecMetrics]| -> Vec<CtaWork> {
            forms.iter().map(ExecMetrics::cta_work).collect()
        };
        let sequential = device.estimate(&works(&windows)).seconds;
        let fused: Vec<ExecMetrics> = (windows.iter().enumerate())
            .map(|(g, w)| engine.fused_form(g, w, chunk.len()).unwrap())
            .collect();
        let fused = device.estimate(&works(&fused)).seconds;
        kernel_seconds += sequential.min(fused);
        fused_pushes += u64::from(fused < sequential);
        scanner.push(chunk).unwrap();
        let m = scanner.metrics();
        assert_eq!(m.kernel_seconds.to_bits(), kernel_seconds.to_bits(), "push ending at {pos}");
        assert_eq!(m.fused_pushes, fused_pushes, "push ending at {pos}");
        assert!(m.kernel_seconds <= m.cost.seconds + f64::EPSILON);
    }
}

const POOL: &[&str] = &[
    "a+b", "(ab)*c", ".{0,3}x", "a{2,}", "abcd", "a(bc)*d", "(a|bb)+c", "x[ab]{1,4}y", "c{3,}d",
    "[0-9]{2}z",
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn every_push_bills_the_cheaper_launch(
        patterns in prop::collection::vec(prop::sample::select(POOL.to_vec()), 1..5),
        input in prop::collection::vec(prop::sample::select(b"aabbccdxyz.09 ".to_vec()), 1..3000),
        sizes in prop::collection::vec(1usize..1500, 1..4),
    ) {
        let patterns: Vec<String> = patterns.iter().map(|p| p.to_string()).collect();
        let engine = compile(&patterns, EngineConfig::default());
        assert_each_push_bills_the_cheaper(&engine, &input, &sizes);
    }
}

#[test]
fn served_pushes_bill_fused_from_a_few_kilobytes_and_sequential_at_64_bytes() {
    // serve-bulk and serve-small's rules, and serve-churn's warm set.
    for kind in [AppKind::Snort, AppKind::Tcp] {
        let (patterns, input) = workload(kind, 32, 3 * 65536);
        let engine = compile(&patterns, EngineConfig::default());
        for (chunk, fused) in [(65536, true), (4096, true), (64, false)] {
            let mut scanner = engine.streamer().unwrap();
            let pushes = input.chunks(chunk).take(3).map(|c| scanner.push(c).unwrap()).count();
            let billed = if fused { pushes as u64 } else { 0 };
            assert_eq!(scanner.metrics().fused_pushes, billed, "{} at {chunk} B", kind.name());
        }
        assert_each_push_bills_the_cheaper(&engine, &input[..70_000], &[65536, 64, 4096]);
    }
}

#[test]
fn a_degraded_push_bills_no_fused_launch() {
    let (patterns, input) = workload(AppKind::Snort, 32, 65536);
    let engine = compile(&patterns, EngineConfig::default());
    let mut scanner = engine.streamer().unwrap();
    scanner.set_retry_policy(RetryPolicy { max_attempts: 1, degrade: true });
    // A lost store: caught, never retried, replayed on the CPU.
    scanner.inject_fault(0, FaultPlan { kind: FaultKind::SkipBarrier, trigger: 1, seed: 1 }, 1);
    scanner.push(&input).unwrap();
    let m = scanner.metrics();
    assert_eq!((m.degraded, m.fused_pushes), (1, 0));
    assert_eq!(m.ctas[0], ExecMetrics::default(), "the degraded group bills no device work");
    scanner.push(&input).unwrap();
    assert_eq!(scanner.metrics().fused_pushes, 1, "the next, clean push bills fused");
}

#[test]
fn fused_billing_is_the_dtm_static_and_later_schemes_only_and_is_not_checkpointed() {
    let (patterns, input) = workload(AppKind::Snort, 8, 8192);
    for scheme in Scheme::ALL {
        let engine = compile(&patterns, EngineConfig::default().with_scheme(scheme));
        let window = &windows(&engine, &mut fresh_carries(&engine), &input)[0];
        let priced = engine.fused_form(0, window, input.len()).is_some();
        assert_eq!(priced, scheme >= Scheme::DtmStatic, "{scheme}");
        let mut scanner = engine.streamer().unwrap();
        scanner.push(&input).unwrap();
        assert_eq!(scanner.metrics().fused_pushes > 0, priced, "{scheme}");
        // Like the per-group accumulators, the tally stays with the
        // scanner: a resumed stream restarts it, at the same seconds.
        let resumed = engine.resume(&scanner.checkpoint()).unwrap();
        assert_eq!(resumed.metrics().fused_pushes, 0);
        assert_eq!(resumed.metrics().seconds(), scanner.metrics().seconds());
    }
}
