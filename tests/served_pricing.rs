//! How a served push is billed (DESIGN.md §10).
//!
//! A streaming window walks its program a statement at a time; the push
//! bills the cheaper of that walk, priced as sequential blockwise
//! execution, and the same window priced as the paper's fused launch on
//! the engine's rung ([`BitGen::fused_form`]). Neither fused form runs a
//! kernel: DTM- is arithmetic on the window's own counts, and DTM replays
//! the batch executor's window loop over the loop checks the walk
//! recorded. Each is held here against what the CTA emulator counts
//! running the untransformed program under `BatchPlan::new(.., rung)`:
//! DTM- field by field everywhere, DTM field by field wherever the walk's
//! global frontier is each window's local one, and within 10 % of the
//! launch's seconds, never below, where it is not. Every push must bill
//! exactly the smaller of the two launch estimates. A scan walks every
//! group whose fused form is exact — every group on Sequential, Base and
//! DTM-, and a DTM group with no loop in its kernel — as a one-push stream
//! and bills that form; it is held to the emulated launch itself.

use bitgen::{
    BitGen, EngineConfig, Error, ExecConfig, FallbackPolicy, FaultKind, FaultPlan, RetryPolicy,
    ScanReport, Scheme,
};
use bitgen_bitstream::{Basis, BitStream};
use bitgen_exec::{BatchPlan, ClassStreams, ExecMetrics, ExecScratch};
use bitgen_gpu::CtaWork;
use bitgen_ir::{CarryState, RunControl};
use bitgen_workloads::{generate, AppKind, WorkloadConfig};
use proptest::prelude::*;

mod exact_groups;
use exact_groups::walks;

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

/// One group's window over a chunk, as walked and as its fused form.
type Priced = (ExecMetrics, ExecMetrics);

/// Every group's window over `chunk` from the given carries, through the
/// scanner's door and priced off the loop checks it recorded: what a push
/// of `chunk` weighs at commit.
fn windows(engine: &BitGen, carries: &mut [CarryState], chunk: &[u8]) -> Vec<Priced> {
    let config = exec_config(engine.config());
    let programs = engine.stream_programs();
    let basis = Basis::transpose(chunk);
    let mut classes = ClassStreams::new();
    programs[0].evaluate_classes(&basis, &mut classes);
    let (ctl, mut scratch) = (RunControl::unlimited(), ExecScratch::new());
    (programs.iter().zip(carries).enumerate())
        .map(|(group, (prepared, carry))| {
            let mut union = BitStream::zeros(chunk.len());
            scratch.frontiers.restart(engine.records_frontiers(group));
            let (classes, scratch_ref, union) = (&classes, &mut scratch, &mut union);
            let window = prepared
                .execute_window_into(classes, &basis, &config, scratch_ref, &ctl, carry, union)
                .expect("clean window");
            carry.rotate();
            let fused = engine.fused_form(group, &window, &scratch.frontiers, chunk.len());
            (window, fused)
        })
        .collect()
}

fn fresh_carries(engine: &BitGen) -> Vec<CarryState> {
    engine.stream_programs().iter().map(|p| CarryState::for_layout(p.carry_layout())).collect()
}

/// Each group's untransformed program planned as the batch path plans it
/// under `rung`.
fn plans(engine: &BitGen, rung: Scheme) -> (Vec<BatchPlan>, ExecConfig) {
    let config = ExecConfig { scheme: rung, ..exec_config(engine.config()) };
    let programs = engine.stream_programs().iter();
    (programs.map(|p| BatchPlan::new(p.program().clone(), &config)).collect(), config)
}

/// Per group, a one-push stream's fused form of `chunk` and what the
/// emulator counts running `plans` over it.
fn priced_and_emulated(
    engine: &BitGen,
    (plans, config): &(Vec<BatchPlan>, ExecConfig),
    chunk: &[u8],
) -> Vec<(ExecMetrics, ExecMetrics)> {
    let windows = windows(engine, &mut fresh_carries(engine), chunk);
    let basis = Basis::transpose(chunk);
    let (ctl, mut scratch) = (RunControl::unlimited(), ExecScratch::new());
    (windows.into_iter().zip(plans))
        .map(|((_, fused), plan)| {
            let emulated = plan.execute(&basis, config, &mut scratch, &ctl).expect("plan runs");
            (fused, emulated.metrics)
        })
        .collect()
}

/// Asserts that exactly the groups `engine` does not walk built a batch
/// plan.
fn assert_only_emulated_groups_planned(what: &str, engine: &BitGen) {
    for group in 0..engine.group_count() {
        let planned = engine.batch_plan(group).is_some();
        assert_eq!(planned, !walks(engine, group), "{what}: group {group}'s plan");
    }
}

/// Asserts that `report` of an engine's scan of `chunk` is the launch the
/// emulator runs of its twins, `plans` on the engine's scheme: every
/// per-CTA field and the seconds.
fn assert_scan_is_emulated(
    what: &str,
    (engine, (plans, config)): (&BitGen, &(Vec<BatchPlan>, ExecConfig)),
    report: &ScanReport,
    chunk: &[u8],
) {
    let basis = Basis::transpose(chunk);
    let (ctl, mut scratch) = (RunControl::unlimited(), ExecScratch::new());
    let ctas: Vec<ExecMetrics> = (plans.iter())
        .map(|plan| plan.execute(&basis, config, &mut scratch, &ctl).expect("plan runs").metrics)
        .collect();
    let seconds = launch_seconds(engine, ctas.iter().cloned());
    assert_eq!(report.metrics.ctas, ctas, "{what}: per-CTA metrics");
    assert_eq!(report.metrics.cost.seconds.to_bits(), seconds.to_bits(), "{what}: seconds");
}

/// Asserts two launches report the same bits.
fn assert_same_scans(what: &str, a: &[ScanReport], b: &[ScanReport]) {
    for (x, y) in a.iter().zip(b) {
        assert_eq!((&x.matches, &x.per_pattern), (&y.matches, &y.per_pattern), "{what}");
        assert_eq!(x.metrics.ctas, y.metrics.ctas, "{what}");
        assert_eq!(x.metrics.cost.seconds.to_bits(), y.metrics.cost.seconds.to_bits(), "{what}");
    }
    assert_eq!(a.len(), b.len(), "{what}");
}

const SIZES: [usize; 6] = [1, 63, 2047, 2048, 4096, 65536];

#[test]
fn an_exact_scan_walks_and_bills_exactly_the_emulated_launch() {
    // Every group walks on Sequential, Base and DTM-, a DTM group when no
    // fused kernel loops; the rest emulate. Each launch is held to the
    // emulated one on the engine's own scheme. Per-pattern streams under
    // `match_star`, the union without it.
    let schemes = [Scheme::Sequential, Scheme::Base, Scheme::DtmStatic, Scheme::Dtm];
    for (kind, rules) in AppKind::ALL.into_iter().flat_map(|kind| [(kind, 8), (kind, 32)]) {
        let (patterns, input) = workload(kind, rules, 65536);
        let asts: Vec<_> = patterns.iter().map(|p| bitgen::parse(p).unwrap()).collect();
        let chunks: Vec<&[u8]> = SIZES.iter().map(|&len| &input[..len]).collect();
        let oracle = |chunk: &&[u8]| bitgen_regex::multi_match_ends(&asts, chunk);
        let ends: Vec<_> = chunks.iter().map(oracle).collect();
        for (scheme, match_star) in schemes.into_iter().flat_map(|s| [(s, false), (s, true)]) {
            let config = EngineConfig::default()
                .with_scheme(scheme)
                .with_match_star(match_star)
                .with_combine_outputs(!match_star);
            let engine = compile(&patterns, config.clone().with_threads(1));
            let plans = plans(&engine, scheme);
            let what = format!("{} ×{rules} {scheme} match_star={match_star}", kind.name());
            for (chunk, ends) in chunks.iter().zip(&ends) {
                let report = engine.find(chunk).unwrap();
                let what = format!("{what} at {}", chunk.len());
                assert_eq!(&report.matches.positions(), ends, "{what}: matches");
                assert_scan_is_emulated(&what, (&engine, &plans), &report, chunk);
            }
            let one = engine.find_many(&chunks).unwrap();
            for threads in [2, 8] {
                let parallel = compile(&patterns, config.clone().with_threads(threads));
                let what = format!("{what}, {threads} threads");
                assert_same_scans(&what, &one, &parallel.find_many(&chunks).unwrap());
            }
            assert_only_emulated_groups_planned(&what, &engine);
        }
    }
}

/// Asserts `fused` is `emulated` in every field the launch reports.
fn assert_exact(what: &str, fused: &ExecMetrics, emulated: &ExecMetrics) {
    assert_eq!(fused.counters, emulated.counters, "{what}: counters");
    let shape = |m: &ExecMetrics| {
        (m.threads, m.regs_per_thread, m.smem_bytes, m.shift_groups, m.segments, m.intermediates)
    };
    assert_eq!(shape(fused), shape(emulated), "{what}: threads, regs, smem, groups, segs, inter");
    assert_eq!(fused.peak_materialized_bytes, emulated.peak_materialized_bytes, "{what}: peak");
    let overlap = |m: &ExecMetrics| {
        let fractions = (m.recompute_frac.to_bits(), m.dynamic_overlap_avg.to_bits());
        let windows = (m.window_iterations, m.retries, m.fallbacks);
        (m.static_overlap, windows, m.dynamic_overlap_max, fractions)
    };
    assert_eq!(overlap(fused), overlap(emulated), "{what}: overlap");
}

/// The modelled seconds of one launch of every group's `forms`.
fn launch_seconds(engine: &BitGen, forms: impl Iterator<Item = ExecMetrics>) -> f64 {
    let works: Vec<CtaWork> = forms.map(|form| form.cta_work()).collect();
    engine.config().device.estimate(&works).seconds
}

#[test]
fn a_windows_fused_form_is_what_the_emulator_counts_under_dtm_static() {
    // Under `match_star` the streamed programs carry `Add` segments, and
    // their price must be exact too.
    for match_star in [false, true] {
        let config =
            EngineConfig::default().with_scheme(Scheme::DtmStatic).with_match_star(match_star);
        for kind in AppKind::ALL {
            let (patterns, input) = workload(kind, 8, 65536);
            let engine = compile(&patterns, config.clone());
            let plans = plans(&engine, Scheme::DtmStatic);
            for len in [1, 63, 2047, 2048, 4096, 65536] {
                let priced = priced_and_emulated(&engine, &plans, &input[..len]);
                for (group, (fused, emulated)) in priced.iter().enumerate() {
                    let name = kind.name();
                    let what = format!("{name} match_star={match_star} group {group} at {len}");
                    assert_exact(&what, fused, emulated);
                }
            }
        }
    }
}

/// The one group whose loop-dependent counts the DTM price may miss: its
/// local fixpoint in one window outruns what the walk's global frontier
/// shows there, and the emulator takes a retry the walk does not see.
const UNSEEN_RETRY: (AppKind, usize, usize) = (AppKind::Dotstar, 65536, 7);

#[test]
fn a_windows_dtm_form_replays_the_emulated_window_loop() {
    for kind in AppKind::ALL {
        let (patterns, input) = workload(kind, 8, 65536);
        let engine = compile(&patterns, EngineConfig::default());
        let plans = plans(&engine, Scheme::Dtm);
        for len in [1, 63, 2047, 2048, 4096] {
            for (group, (fused, emulated)) in
                priced_and_emulated(&engine, &plans, &input[..len]).iter().enumerate()
            {
                assert_exact(&format!("{} group {group} at {len}", kind.name()), fused, emulated);
            }
        }
        // At 64 KiB the walk's frontier may touch a window more often than
        // its local fixpoint does: the loop-dependent counts are bounded,
        // the shape and the launch's windows exact.
        let priced = priced_and_emulated(&engine, &plans, &input);
        for (group, (fused, emulated)) in priced.iter().enumerate() {
            let what = format!("{} group {group} at 65536", kind.name());
            assert_eq!(fused.static_overlap, emulated.static_overlap, "{what}");
            assert_eq!(fused.counters.loop_trips.len(), emulated.counters.loop_trips.len());
            let windows = |m: &ExecMetrics| (m.window_iterations, m.retries, m.fallbacks);
            if (kind, 65536, group) != UNSEEN_RETRY {
                assert_eq!(windows(fused), windows(emulated), "{what}");
            }
        }
        assert_launch_bounded(&engine, kind.name(), priced);
    }
}

/// Asserts that the launch priced costs what the emulated one does, or at
/// most 10 % more.
fn assert_launch_bounded(engine: &BitGen, what: &str, priced: Vec<(ExecMetrics, ExecMetrics)>) {
    let (fused, emulated): (Vec<_>, Vec<_>) = priced.into_iter().unzip();
    let (fused, emulated) =
        (launch_seconds(engine, fused.into_iter()), launch_seconds(engine, emulated.into_iter()));
    assert!(
        emulated <= fused && fused <= 1.10 * emulated,
        "{what}: priced {fused:e} s against {emulated:e} s emulated"
    );
}

#[test]
fn the_served_rule_sets_dtm_forms_are_exact_at_the_served_sizes_and_bounded_at_64_kib() {
    for kind in [AppKind::Snort, AppKind::Tcp] {
        let (patterns, input) = workload(kind, 32, 65536);
        let engine = compile(&patterns, EngineConfig::default());
        let plans = plans(&engine, Scheme::Dtm);
        for len in [64, 4096] {
            for (group, (fused, emulated)) in
                priced_and_emulated(&engine, &plans, &input[..len]).iter().enumerate()
            {
                let what = format!("{} ×32 group {group} at {len}", kind.name());
                assert_exact(&what, fused, emulated);
            }
        }
        let priced = priced_and_emulated(&engine, &plans, &input);
        assert_launch_bounded(&engine, &format!("{} ×32 at 65536", kind.name()), priced);
    }
}

#[test]
fn a_served_stream_keeps_the_billed_launchs_overlap_figures() {
    // A one-push 4 KiB stream of the Snort ×32 set bills the fused launch,
    // which is exact at that size: each group's accumulator reads the
    // emulated launch's recompute fraction and mean dynamic overlap.
    let (patterns, input) = workload(AppKind::Snort, 32, 4096);
    let engine = compile(&patterns, EngineConfig::default());
    let mut scanner = engine.streamer().unwrap();
    scanner.push(&input).unwrap();
    let served = scanner.metrics();
    assert_eq!(served.fused_pushes, 1);
    let emulated = priced_and_emulated(&engine, &plans(&engine, Scheme::Dtm), &input);
    for (group, (_, emulated)) in emulated.iter().enumerate() {
        let figures =
            |m: &ExecMetrics| (m.recompute_frac.to_bits(), m.dynamic_overlap_avg.to_bits());
        assert_eq!(figures(&served.ctas[group]), figures(emulated), "group {group}");
        assert!(emulated.recompute_frac > 0.0, "group {group} recomputes its left overlap");
    }
}

#[test]
fn a_loop_that_outgrows_the_window_falls_back_in_both() {
    // 3 000 trips of `(bc)` need 6 000 bits of overlap; a 64-thread window
    // holds 2 048. The batch executor counts the windows it ran, then walks
    // the program; so does the price.
    let engine = BitGen::compile(&["a(bc)*d"]).unwrap();
    let mut input = b"xa".to_vec();
    input.extend(b"bc".repeat(3000));
    input.extend(b"dy");
    assert_eq!(input.len(), 6004);
    let plans = plans(&engine, Scheme::Dtm);
    let priced = priced_and_emulated(&engine, &plans, &input);
    let (fused, emulated) = &priced[0];
    assert_eq!(emulated.fallbacks, 1, "the emulated launch falls back");
    assert_exact("a(bc)*d over 6 000 bytes of bc", fused, emulated);
}

#[test]
fn segments_that_outgrow_a_narrow_window_run_sequentially_in_both() {
    // One-thread CTAs: a 32-bit window keeps no room for overlap, so a
    // segment that shifts falls back and one that does not still fuses.
    for (scheme, kind) in [Scheme::DtmStatic, Scheme::Dtm]
        .into_iter()
        .flat_map(|s| [AppKind::Snort, AppKind::ExactMatch, AppKind::Tcp].map(|k| (s, k)))
    {
        let (patterns, input) = workload(kind, 6, 4096);
        let config = EngineConfig::default().with_cta_threads(1).with_scheme(scheme);
        let engine = compile(&patterns, config);
        let windows = windows(&engine, &mut fresh_carries(&engine), &input[..64]);
        let fallbacks: u64 =
            windows.iter().map(|(_, fused)| fused.fallbacks).sum();
        assert!(fallbacks > 0, "{} {scheme}: no segment outgrew a 32-bit window", kind.name());
        let plans = plans(&engine, scheme);
        for len in [1, 63, 4096] {
            for (group, (fused, emulated)) in
                priced_and_emulated(&engine, &plans, &input[..len]).iter().enumerate()
            {
                assert_exact(&format!("{} {scheme} group {group}", kind.name()), fused, emulated);
            }
        }
        // A scan walks and bills the launch that falls back — on DTM too,
        // where the whole program outgrows the window before its first
        // window and no fused kernel is left to loop — and under
        // `FallbackPolicy::Error` fails as the emulated launch does.
        let chunk = &input[..4096];
        let what = format!("{} {scheme} scan", kind.name());
        assert_scan_is_emulated(&what, (&engine, &plans), &engine.find(chunk).unwrap(), chunk);
        assert_only_emulated_groups_planned(&what, &engine);
        let config = EngineConfig { fallback: FallbackPolicy::Error, ..engine.config().clone() };
        let failing = compile(&patterns, config);
        let (twins, config) = crate::plans(&failing, scheme);
        let basis = Basis::transpose(chunk);
        let (ctl, mut scratch) = (RunControl::unlimited(), ExecScratch::new());
        let (group, emulated) = (twins.iter().enumerate())
            .find_map(|(g, plan)| Some((g, plan.execute(&basis, &config, &mut scratch, &ctl).err()?)))
            .expect("a segment outgrows the window");
        assert!(matches!(emulated, bitgen::ExecError::OverlapOverflow { .. }), "{what}");
        assert_eq!(failing.find(chunk).unwrap_err(), Error::Exec(emulated.clone()), "{what}");
        // The overflow is known before any walk: with a fault armed on that
        // slot and cross-checking on, the scan fails with it all the same,
        // as the emulated launch does.
        let drill = FaultPlan { kind: FaultKind::CorruptCounter, trigger: 1, seed: 0 };
        let faulted = ExecConfig { fault: Some(drill), cross_check: true, ..config };
        let drilled = twins[group].execute(&basis, &faulted, &mut scratch, &ctl).err();
        assert_eq!(drilled.as_ref(), Some(&emulated), "{what}");
        let checked = compile(&patterns, EngineConfig { cross_check: true, ..failing.config().clone() });
        let mut session = checked.session();
        session.inject_fault(0, group, drill);
        assert_eq!(session.scan(chunk).unwrap_err(), Error::Exec(emulated), "{what}");
        assert!((0..checked.group_count()).all(|g| walks(&checked, g)), "{what}: all walk");
        assert_only_emulated_groups_planned(&what, &checked);
    }
}

#[test]
fn a_twin_with_an_add_keeps_the_dtm_static_bill_and_records_nothing() {
    // Under MatchStar a class star is an `Add`; a starred group stays a
    // loop. A group with an `Add` — alone, or beside a loop — is billed
    // its DTM- form even on a ZBS engine, and its windows record no check:
    // an addition's carry run per window is not recorded.
    let patterns = ["a[bc]*d", "x(yz)*w", "[0-9]+q", "k.*m"].map(String::from).to_vec();
    let (_, input) = workload(AppKind::Snort, 8, 4096);
    for groups in [1, 2] {
        let config = EngineConfig::default().with_match_star(true).with_cta_count(groups);
        let engine = compile(&patterns, config);
        let plans = plans(&engine, Scheme::DtmStatic);
        for group in 0..engine.group_count() {
            let mut adds = false;
            engine.stream_programs()[group].program().for_each_op(&mut |op| {
                adds |= matches!(op, bitgen_ir::Op::Add { .. });
            });
            assert!(adds, "{groups} groups: group {group} has no `Add`");
            assert!(!engine.records_frontiers(group), "{groups} groups: group {group} records");
        }
        for len in [1, 63, 2048, 4096] {
            for (group, (fused, emulated)) in
                priced_and_emulated(&engine, &plans, &input[..len]).iter().enumerate()
            {
                assert_exact(&format!("{groups} groups: group {group} at {len}"), fused, emulated);
            }
        }
    }
}

/// Streams `input` in `sizes`-byte pushes, asserting that each push bills
/// exactly the smaller of the two launch estimates.
fn assert_each_push_bills_the_cheaper(engine: &BitGen, input: &[u8], sizes: &[usize]) {
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
        let priced = windows(engine, &mut carries, chunk);
        let (walked, fused): (Vec<_>, Vec<_>) = priced.into_iter().unzip();
        let sequential = launch_seconds(engine, walked.into_iter());
        let fused = launch_seconds(engine, fused.into_iter());
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
fn served_pushes_bill_fused_at_every_served_size() {
    // serve-bulk's and serve-small's rules, and serve-churn's warm set:
    // under DTM even a 64-byte push bills its fused launch.
    for kind in [AppKind::Snort, AppKind::Tcp] {
        let (patterns, input) = workload(kind, 32, 3 * 65536);
        let engine = compile(&patterns, EngineConfig::default());
        for chunk in [65536, 4096, 64] {
            let mut scanner = engine.streamer().unwrap();
            let pushes = input.chunks(chunk).take(3).map(|c| scanner.push(c).unwrap()).count();
            let what = format!("{} at {chunk} B", kind.name());
            assert_eq!(scanner.metrics().fused_pushes, pushes as u64, "{what}");
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
fn every_scheme_prices_its_pushes_and_none_checkpoints_the_fused_tally() {
    // Every rung prices its windows' fused launch, and a push bills it
    // exactly when it is cheaper than the walk: on Base, whose fused runs
    // are short, in some pushes and not others; on Sequential, where
    // nothing fuses, never, because the two launches tie.
    let (patterns, input) = workload(AppKind::Snort, 8, 8192);
    let sizes = [64, 1000, 4096, 8192];
    for scheme in Scheme::ALL {
        let engine = compile(&patterns, EngineConfig::default().with_scheme(scheme));
        let (walked, fused): (Vec<_>, Vec<_>) =
            windows(&engine, &mut fresh_carries(&engine), &input).into_iter().unzip();
        let seconds = |forms: Vec<ExecMetrics>| launch_seconds(&engine, forms.into_iter());
        let (walked, fused) = (seconds(walked), seconds(fused));
        assert_eq!(walked == fused, scheme == Scheme::Sequential, "{scheme}: {walked:e} s walked");
        let records = (0..engine.group_count()).any(|group| engine.records_frontiers(group));
        assert_eq!(records, scheme >= Scheme::Dtm, "{scheme}: only DTM reads loop checks");
        assert_each_push_bills_the_cheaper(&engine, &input, &sizes);
        let mut scanner = engine.streamer().unwrap();
        let pushes: Vec<_> = input.chunks(1000).map(|chunk| scanner.push(chunk).unwrap()).collect();
        let fused = scanner.metrics().fused_pushes;
        println!("{scheme}: {fused} of {} 1000-byte pushes billed fused", pushes.len());
        match scheme {
            Scheme::Sequential => assert_eq!(fused, 0, "{scheme}: a tie bills the walk"),
            Scheme::Base => assert!(0 < fused && fused < pushes.len() as u64, "{scheme}"),
            _ => assert_eq!(fused, pushes.len() as u64, "{scheme}"),
        }
        // Like the per-group accumulators, the tally stays with the
        // scanner: a resumed stream restarts it, at the same seconds.
        let resumed = engine.resume(&scanner.checkpoint()).unwrap();
        assert_eq!(resumed.metrics().fused_pushes, 0);
        assert_eq!(resumed.metrics().seconds(), scanner.metrics().seconds());
    }
}
