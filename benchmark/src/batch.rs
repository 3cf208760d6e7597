//! `batch-scan`: no daemon. One `ScanSession` alternates one 64 KiB
//! scan with sixteen 2 KiB scans.
//!
//! It is the only workload that runs the paper's interleaved path
//! (fused segments, dependency-aware windows and zero-block skipping on
//! the CTA emulator and cost model); the serve workloads stream through
//! the sequential window executor and never touch it. The 2 KiB scans
//! are nearly all per-scan re-derivation (`segment_program`,
//! `OverlapInfo::analyze`, kernel `compile`); the 64 KiB scans are
//! nearly all emulation per byte.

use crate::alloc;
use crate::clock::{quantile, Estimates, Op, Recorder};
use crate::daemon::{timed_setups, SETUP_REPS};
use crate::inputs::Deployment;
use crate::layers::{
    compile_values, engine_config, exec_config, execute_groups, replay_compile, replay_scan_prepare,
};
use crate::report::{gated_values, Outcome, Tally, Values};
use crate::stream::modelled_values;
use crate::trace::Tracer;
use crate::twins::{client_values, finish_trace};
use crate::RunConfig;
use bitgen::{BitGen, ScanReport, ScanSession};
use bitgen_bitstream::Basis;
use bitgen_exec::ExecScratch;
use bitgen_workloads::AppKind;
use std::time::Instant;

const BULK: usize = 64 << 10;
const SMALL: usize = 2 << 10;
const BULK_INPUTS: usize = 8;
const SMALL_INPUTS: usize = 128;
/// Small scans after each bulk scan.
const SMALL_PER_CYCLE: usize = 16;
/// Rules and input size of each application in the modelled sweep.
const SWEEP_RULES: usize = 16;

/// An input with the oracle's answer.
struct Input<'a> {
    bytes: &'a [u8],
    ends: Vec<u64>,
}

/// Whether a scan succeeded and reported exactly the oracle's `ends`.
fn agrees(report: &Result<ScanReport, bitgen::Error>, ends: &[u64]) -> bool {
    report.as_ref().is_ok_and(|report| {
        let positions = report.matches.positions();
        positions
            .into_iter()
            .map(|p| p as u64)
            .eq(ends.iter().copied())
    })
}

/// Scans `input` and checks the positions against the oracle.
fn checked_scan(session: &mut ScanSession<'_>, input: &Input<'_>) -> bool {
    agrees(&session.scan(input.bytes), &input.ends)
}

/// The modelled clock over all ten applications: per-application
/// throughput into `values`, the geometric mean returned. Each scan is
/// checked against the oracle.
fn modelled_sweep(seed: u64, tally: &mut Tally, values: &mut Values) -> f64 {
    let mut log_sum = 0.0;
    for kind in AppKind::ALL {
        let dep = Deployment::new(kind, SWEEP_RULES, 0, BULK, seed);
        let engine = BitGen::compile_with(&dep.pattern_refs(), engine_config())
            .expect("generated rules compile");
        let report = engine.session().scan(&dep.corpus);
        let ends = dep.oracle(&dep.corpus);
        let ok = agrees(&report, &ends);
        tally.op(ok);
        let mbps = report.map_or(0.0, |r| r.throughput_mbps());
        values.insert(
            format!("gpu.modelled_mbps.{}", kind.name().to_lowercase()),
            mbps,
        );
        log_sum += mbps.ln();
    }
    (log_sum / AppKind::ALL.len() as f64).exp()
}

/// Runs `batch-scan`.
pub fn run(config: &RunConfig) -> Outcome {
    let prep = Instant::now();
    let mut tally = Tally::default();
    let mut values = Values::new();
    let mut sweep = Values::new();
    values.insert(
        "modelled_mbps".into(),
        modelled_sweep(config.seed, &mut tally, &mut sweep),
    );
    let dep = Deployment::new(
        AppKind::Snort,
        32,
        0,
        BULK_INPUTS * BULK + SMALL_INPUTS * SMALL,
        config.seed,
    );
    let (bulk_bytes, small_bytes) = dep.corpus.split_at(BULK_INPUTS * BULK);
    let input = |bytes| Input {
        bytes,
        ends: dep.oracle(bytes),
    };
    let bulk: Vec<Input<'_>> = bulk_bytes.chunks(BULK).map(input).collect();
    let small: Vec<Input<'_>> = small_bytes.chunks(SMALL).map(input).collect();
    let patterns = dep.pattern_refs();
    let mut recorder = Recorder::new();
    let mut tracer = config.trace.then(Tracer::new);
    let prep_s = prep.elapsed().as_secs_f64();
    let baseline = alloc::snapshot().live;

    // Set-up: compile, then the first scan of each size on a fresh
    // session (its buffers are allocated lazily).
    let setup = |tally: &mut Tally| {
        let engine =
            BitGen::compile_with(&patterns, engine_config()).expect("generated rules compile");
        let mut session = engine.session();
        tally.op(checked_scan(&mut session, &bulk[0]));
        tally.op(checked_scan(&mut session, &small[0]));
        engine
    };
    let reps = if config.trace { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::new();
    let engine = timed_setups(reps, &mut setup_times, || setup(&mut tally), drop);
    let mut session = engine.session();

    alloc::reset_peak();
    let untraced_s = config.untraced_seconds();
    let mut cycle = 0usize;
    recorder.restart();
    while recorder.elapsed_s() < untraced_s {
        let big = &bulk[cycle % bulk.len()];
        tally.op(recorder.time(Op::ScanBulk, BULK, || checked_scan(&mut session, big)));
        for k in 0..SMALL_PER_CYCLE {
            let little = &small[(cycle * SMALL_PER_CYCLE + k) % small.len()];
            tally.op(recorder.time(Op::ScanSmall, SMALL, || checked_scan(&mut session, little)));
        }
        recorder.end_cycle();
        cycle += 1;
    }
    let peak = alloc::snapshot().peak;
    let estimates = Estimates::of(&recorder);
    gated_values(&estimates, Op::ScanSmall, peak, baseline, &mut values);

    if let Some(tracer) = tracer.as_mut() {
        values.append(&mut sweep);
        client_values(&estimates, &mut values);
        let bulk_ms = estimates.latency_ms(Op::ScanBulk);
        values.insert("client.scan_bulk_mbps".into(), BULK as f64 / 1e3 / bulk_ms);
        traced_phase(
            config,
            &engine,
            &patterns,
            &bulk,
            &small,
            &mut recorder,
            tracer,
            &mut tally,
            &mut values,
        );
        finish_trace(
            &config.workload,
            tracer,
            &recorder,
            Op::ScanSmall,
            estimates.latency_ms(Op::ScanSmall),
            prep_s,
            &mut values,
        );
    }
    if !config.trace {
        timed_setups(reps, &mut setup_times, || setup(&mut tally), drop);
    }
    values.insert("setup_s".into(), quantile(&mut setup_times, 0.5));
    Outcome { tally, values }
}

/// The traced loop: every scan also runs stage by stage through the
/// crates under `ScanSession::scan`.
#[allow(clippy::too_many_arguments)]
fn traced_phase(
    config: &RunConfig,
    engine: &BitGen,
    patterns: &[&str],
    bulk: &[Input<'_>],
    small: &[Input<'_>],
    recorder: &mut Recorder,
    tracer: &mut Tracer,
    tally: &mut Tally,
    values: &mut Values,
) {
    let (_, compile) = tracer.span("core.compile", None, || {
        BitGen::compile_with(patterns, engine_config()).expect("generated rules compile")
    });
    let replay = replay_compile(tracer, Some(compile), patterns, &engine_config());
    let exec = exec_config(&engine_config());
    let mut session = engine.session();
    let mut scratch = ExecScratch::new();
    let mut kernels = Default::default();
    let mut scan_allocs: Vec<(f64, f64)> = Vec::new();
    let mut cycle = 0usize;
    let traced_s = config.seconds - config.untraced_seconds();
    recorder.restart();
    while recorder.elapsed_s() < traced_s {
        let inputs = std::iter::once((&bulk[cycle % bulk.len()], Op::ScanBulk)).chain(
            (0..SMALL_PER_CYCLE).map(|k| {
                (
                    &small[(cycle * SMALL_PER_CYCLE + k) % small.len()],
                    Op::ScanSmall,
                )
            }),
        );
        for (input, op) in inputs {
            tracer.next_op();
            let name = if op == Op::ScanBulk {
                "core.scan_bulk"
            } else {
                "core.scan"
            };
            let before = alloc::snapshot();
            let (ok, scan) = tracer.span(name, None, || {
                recorder.time(op, input.bytes.len(), || checked_scan(&mut session, input))
            });
            let after = alloc::snapshot();
            if op == Op::ScanSmall {
                scan_allocs.push((
                    (after.count - before.count) as f64,
                    (after.bytes - before.bytes) as f64,
                ));
            }
            // Only the small scans are decomposed: they are the ones
            // the re-derivation dominates, and the medians stay theirs.
            let staged = if op == Op::ScanSmall {
                let (basis, _) = tracer.span("bitstream.transpose", Some(scan), || {
                    Basis::transpose(input.bytes)
                });
                let (ends, execute) = tracer.span("exec.execute", Some(scan), || {
                    execute_groups(&replay.programs, &basis, &exec, &mut scratch)
                });
                kernels = replay_scan_prepare(tracer, Some(execute), &replay.programs, &exec);
                ends == input.ends
            } else {
                true
            };
            tally.op(ok && staged);
        }
        recorder.end_cycle();
        cycle += 1;
    }
    // A cold session: `session()` plus its first scan, net of a warm one.
    let cold: Vec<f64> = (0..9)
        .map(|k| {
            let input = &small[k % small.len()];
            let start = Instant::now();
            tally.op(checked_scan(&mut engine.session(), input));
            let fresh = start.elapsed();
            let start = Instant::now();
            tally.op(checked_scan(&mut session, input));
            (fresh.as_secs_f64() - start.elapsed().as_secs_f64()) * 1e6
        })
        .collect();

    let scale = recorder.speed_scale();
    let summary = tracer.summary(scale);
    compile_values(&summary, values);
    replay.counts.values(values);
    let total = |name: &str| summary.get(name).map_or(0.0, |t| t.us);
    let own = |name: &str| summary.get(name).map_or(0.0, |t| t.self_us);
    let median = |v: Vec<f64>| quantile(&mut { v }, 0.5);
    let report = engine
        .session()
        .scan(bulk[0].bytes)
        .expect("the reference scan runs");
    let ctas = report.cta_metrics();
    for (metric, value) in [
        ("core.scan_us", total("core.scan")),
        ("core.session_new_us", median(cold) * scale),
        ("bitstream.transpose_us", total("bitstream.transpose")),
        (
            "bitstream.transpose_mbps",
            SMALL as f64 / total("bitstream.transpose"),
        ),
        ("exec.execute_us", own("exec.execute")),
        ("exec.segment_us", total("exec.segment")),
        ("passes.overlap_us", total("passes.overlap")),
        ("kernel.codegen_us", total("kernel.codegen")),
        ("kernel.stmts", kernels.stmts as f64),
        ("kernel.barriers", kernels.barriers as f64),
        (
            "exec.segments",
            ctas.iter().map(|m| m.segments as f64).sum(),
        ),
        (
            "exec.window_iterations",
            ctas.iter().map(|m| m.window_iterations as f64).sum(),
        ),
        (
            "exec.recompute_frac",
            ctas.iter().map(|m| m.recompute_frac).sum::<f64>() / ctas.len().max(1) as f64,
        ),
        (
            "exec.fallbacks",
            ctas.iter().map(|m| m.fallbacks as f64).sum(),
        ),
        (
            "alloc.count_per_scan",
            median(scan_allocs.iter().map(|a| a.0).collect()),
        ),
        (
            "alloc.bytes_per_scan",
            median(scan_allocs.iter().map(|a| a.1).collect()),
        ),
    ] {
        values.insert(metric.to_string(), value);
    }
    modelled_values(&report.metrics, values);
}
