//! The traced decomposition of a served push, and the per-layer values
//! every serve workload derives from its trace.
//!
//! A traced push sends the same bytes down four paths that advance in
//! lock-step: the daemon (what the client waits for), an in-process
//! `ScanService` (the daemon minus socket and framing), a standalone
//! `resume` → `push` → `checkpoint` (the service minus queue and
//! hand-off), and the pieces inside that (`Basis::transpose`, the wire
//! codec, the reference interpreter). All must agree with the oracle.

use crate::alloc;
use crate::clock::{quantile, Estimates, Op, Recorder};
use crate::daemon::TENANT;
use crate::inputs::StreamCheck;
use crate::layers::compile_values;
use crate::report::Values;
use crate::trace::{SpanId, Tracer};
use bitgen::{BitGen, StreamCheckpoint, StreamScanner};
use bitgen_bitstream::Basis;
use bitgen_ir::{try_interpret_chunk, CarryState, Program, RunControl};
use bitgen_serve::{wire, Client, ScanService, ServeMetrics};
use std::path::PathBuf;

/// The standalone twins of one stream: a checkpoint that is resumed on
/// every push (what a served push does), a scanner that lives across
/// pushes (what it could do), and interpreter carries.
pub struct Standalone<'e> {
    engine: &'e BitGen,
    stream_programs: &'e [Program],
    checkpoint: StreamCheckpoint,
    warm: StreamScanner<'e>,
    carries: Vec<CarryState>,
}

impl<'e> Standalone<'e> {
    /// Twins at byte 0 of a new stream. `stream_programs` must be the
    /// untransformed lowering of the engine's rules.
    pub fn new(engine: &'e BitGen, stream_programs: &'e [Program]) -> Standalone<'e> {
        let warm = engine.streamer().expect("streamer is infallible");
        Standalone {
            engine,
            stream_programs,
            checkpoint: warm.checkpoint(),
            warm,
            carries: stream_programs
                .iter()
                .map(CarryState::for_program)
                .collect(),
        }
    }
}

/// Per-op allocation deltas collected in a traced phase.
#[derive(Default)]
pub struct AllocDeltas {
    pub push_count: Vec<f64>,
    pub push_bytes: Vec<f64>,
    pub open_hit_count: Vec<f64>,
}

/// The daemon stream and the twin service's stream of one traced
/// session.
pub struct TracedStream<'a, 'e> {
    pub client: &'a mut Client,
    pub daemon_id: u64,
    pub twin: &'a ScanService,
    pub twin_id: u64,
    pub standalone: Standalone<'e>,
    pub offset: u64,
}

/// What a traced open returned: the two stream ids, the two cache
/// verdicts, and the daemon open's span.
pub struct Opened {
    pub daemon_id: u64,
    pub twin_id: u64,
    pub hits: (bool, bool),
    pub span: SpanId,
}

/// Opens a stream on the daemon and its twin on `twin`, as a hit
/// (`cold` false) or a miss. `None` when either refuses.
pub fn traced_open(
    tracer: &mut Tracer,
    recorder: &mut Recorder,
    client: &mut Client,
    twin: &ScanService,
    patterns: &[&str],
    cold: bool,
    allocs: &mut AllocDeltas,
) -> Option<Opened> {
    tracer.next_op();
    let (op, daemon_span, twin_span) = if cold {
        (Op::OpenMiss, "daemon.open_miss", "service.open_miss")
    } else {
        (Op::OpenHit, "daemon.open_hit", "service.open_hit")
    };
    let before = alloc::snapshot().count;
    let (opened, span) = tracer.span(daemon_span, None, || {
        recorder.time(op, 0, || client.open(TENANT, patterns))
    });
    if !cold {
        allocs
            .open_hit_count
            .push((alloc::snapshot().count - before) as f64);
    }
    let (admitted, _) = tracer.span(twin_span, None, || twin.open_stream(TENANT, patterns));
    let ((daemon_id, hit), admission) = (opened.ok()?, admitted.ok()?);
    Some(Opened {
        daemon_id,
        twin_id: admission.stream,
        hits: (hit, admission.cache_hit),
        span,
    })
}

impl TracedStream<'_, '_> {
    /// Closes both streams; `true` when both report the bytes pushed
    /// and the daemon the matches `check` saw.
    pub fn close(
        self,
        tracer: &mut Tracer,
        recorder: &mut Recorder,
        check: &StreamCheck<'_>,
    ) -> bool {
        tracer.next_op();
        let (closed, _) = tracer.span("daemon.close", None, || {
            recorder.time(Op::Close, 0, || self.client.close(self.daemon_id))
        });
        let (twin_closed, _) = tracer.span("service.close", None, || {
            self.twin.close_stream(self.twin_id)
        });
        closed.is_ok_and(|totals| totals == (self.offset, check.matches_seen()))
            && twin_closed.is_ok_and(|stats| stats.consumed == self.offset)
    }

    /// One push down every path; `true` when all agree with the oracle.
    pub fn push(
        &mut self,
        tracer: &mut Tracer,
        recorder: &mut Recorder,
        piece: &[u8],
        check: &mut StreamCheck<'_>,
        allocs: &mut AllocDeltas,
    ) -> bool {
        tracer.next_op();
        let (daemon_id, offset) = (self.daemon_id, self.offset);
        self.offset += piece.len() as u64;
        let before = alloc::snapshot();
        let client = &mut *self.client;
        let (reply, daemon) = tracer.span("daemon.push", None, || {
            recorder.time(Op::Push, piece.len(), || client.push(daemon_id, piece))
        });
        let after = alloc::snapshot();
        allocs.push_count.push((after.count - before.count) as f64);
        allocs.push_bytes.push((after.bytes - before.bytes) as f64);
        let Ok(reply) = reply else { return false };

        let (served, service) = tracer.span("service.push", Some(daemon), || {
            self.twin.push_chunk(self.twin_id, piece)
        });
        let twins = &mut self.standalone;
        let engine = twins.engine;
        let (resumed, resume) = tracer.span("core.resume", Some(service), || {
            engine.resume(&twins.checkpoint)
        });
        // `resume` and `checkpoint` each recompute the fingerprint.
        let (_, fingerprint) = tracer.span("core.stream_fingerprint", Some(resume), || {
            engine.stream_fingerprint()
        });
        let Ok(mut scanner) = resumed else {
            return false;
        };
        let (pushed, push) = tracer.span("core.push", Some(service), || scanner.push(piece));
        let (basis, _) = tracer.span("bitstream.transpose", Some(push), || {
            Basis::transpose(piece)
        });
        let (checkpoint, taken) =
            tracer.span("core.checkpoint", Some(service), || scanner.checkpoint());
        tracer.repeat(fingerprint, Some(taken));
        twins.checkpoint = checkpoint;
        let (line, _) = tracer.span("wire.encode", Some(daemon), || {
            format!("PUSH {daemon_id} {offset} {}", wire::hex_encode(piece))
        });
        let (parsed, _) = tracer.span("wire.decode", Some(daemon), || wire::parse_request(&line));
        let (warm, _) = tracer.span("core.push_warm", None, || twins.warm.push(piece));
        let (interpreted, _) = tracer.span("ir.interp", None, || {
            let ctl = RunControl::unlimited();
            let mut ends: Vec<u64> = Vec::new();
            for (program, carry) in twins.stream_programs.iter().zip(&mut twins.carries) {
                let result = try_interpret_chunk(program, &basis, &ctl, carry).ok()?;
                carry.rotate();
                let here = result
                    .union()
                    .positions()
                    .into_iter()
                    .filter(|p| *p < piece.len());
                ends.extend(here.map(|p| offset + p as u64));
            }
            ends.sort_unstable();
            ends.dedup();
            Some(ends)
        });
        check.push(piece.len(), &reply)
            && served.is_ok_and(|ends| ends == reply)
            && pushed.is_ok_and(|ends| ends == reply)
            && warm.is_ok_and(|ends| ends == reply)
            && interpreted.is_some_and(|ends| ends == reply)
            && parsed.is_ok_and(
                |request| matches!(request, wire::Request::Push { chunk, .. } if chunk == piece),
            )
    }
}

/// Turns the trace into the per-layer values shared by every serve
/// workload. `chunk` is the payload size of a push.
pub fn layer_values(
    tracer: &Tracer,
    recorder: &Recorder,
    allocs: &AllocDeltas,
    chunk: usize,
    values: &mut Values,
) {
    let summary = tracer.summary(recorder.speed_scale());
    compile_values(&summary, values);
    let total = |name: &str| summary.get(name).map_or(0.0, |t| t.us);
    let own = |name: &str| summary.get(name).map_or(0.0, |t| t.self_us);
    for (metric, value) in [
        ("daemon.self_us", own("daemon.push")),
        ("wire.encode_us", total("wire.encode")),
        ("wire.decode_us", total("wire.decode")),
        ("service.push_us", total("service.push")),
        ("service.handoff_us", own("service.push")),
        ("service.open_hit_us", total("service.open_hit")),
        ("service.close_us", total("service.close")),
        ("cache.miss_overhead_us", own("daemon.open_miss")),
        ("core.resume_us", total("core.resume")),
        (
            "core.stream_fingerprint_us",
            total("core.stream_fingerprint"),
        ),
        ("core.push_us", total("core.push")),
        ("core.checkpoint_us", total("core.checkpoint")),
        (
            "core.session_new_us",
            total("core.push") - total("core.push_warm"),
        ),
        ("bitstream.transpose_us", total("bitstream.transpose")),
        ("exec.stream_self_us", own("core.push")),
        ("ir.interp_us", total("ir.interp")),
    ] {
        values.insert(metric.to_string(), value);
    }
    let transpose_us = total("bitstream.transpose");
    if transpose_us > 0.0 {
        values.insert(
            "bitstream.transpose_mbps".into(),
            chunk as f64 / transpose_us,
        );
    }
    // Two hex digits per payload byte plus verb, id, offset and newline.
    let framing = format!("PUSH 1 {} \n", u32::MAX).len();
    values.insert(
        "wire.bytes_per_payload_byte".into(),
        (2 * chunk + framing) as f64 / chunk as f64,
    );
    values.insert(
        "daemon.push_p99_ms".into(),
        recorder.raw_quantile_ms(Op::Push, 0.99),
    );
    values.insert(
        "daemon.push_samples".into(),
        recorder.count(Op::Push) as f64,
    );
    let median = |v: &[f64]| quantile(&mut v.to_vec(), 0.5);
    values.insert("alloc.count_per_push".into(), median(&allocs.push_count));
    values.insert("alloc.bytes_per_push".into(), median(&allocs.push_bytes));
    values.insert(
        "alloc.count_per_open_hit".into(),
        median(&allocs.open_hit_count),
    );
}

/// The client-visible latencies of a phase, finer than the gated set.
pub fn client_values(estimates: &Estimates, values: &mut Values) {
    for (metric, op) in [
        ("client.push_p50_ms", Op::Push),
        ("client.session_p50_ms", Op::Session),
        ("client.open_hit_p50_ms", Op::OpenHit),
        ("client.open_miss_p50_ms", Op::OpenMiss),
        ("client.close_p50_ms", Op::Close),
        ("client.scan_small_p50_ms", Op::ScanSmall),
    ] {
        values.insert(metric.to_string(), estimates.latency_ms(op));
    }
}

/// Counter movement of the daemon's service over the measured phases.
/// The cache counters are per 100 streams opened, so they are exact
/// functions of the schedule however many sessions a run fits in.
pub fn service_values(before: &ServeMetrics, after: &ServeMetrics, values: &mut Values) {
    let opened = (after.streams_opened - before.streams_opened).max(1) as f64;
    let pushes = (after.pushes_completed - before.pushes_completed).max(1) as f64;
    let rejected =
        |m: &ServeMetrics| m.rejected_admissions + m.rejected_pushes + m.rejected_draining;
    for (metric, value) in [
        (
            "cache.hits",
            (after.cache_hits - before.cache_hits) as f64 * 100.0 / opened,
        ),
        (
            "cache.misses",
            (after.cache_misses - before.cache_misses) as f64 * 100.0 / opened,
        ),
        (
            "cache.evictions",
            (after.cache_evictions - before.cache_evictions) as f64 * 100.0 / opened,
        ),
        (
            "service.queue_wait_us",
            (after.queue_wait_seconds - before.queue_wait_seconds) * 1e6 / pushes,
        ),
        (
            "service.pushes_failed",
            (after.pushes_failed - before.pushes_failed) as f64,
        ),
        (
            "service.pushes_replayed",
            (after.pushes_replayed - before.pushes_replayed) as f64,
        ),
        (
            "service.rejected",
            (rejected(after) - rejected(before)) as f64,
        ),
    ] {
        values.insert(metric.to_string(), value);
    }
}

/// Ends a traced phase: what the harness says about itself, measured
/// on `op` (`untraced_ms` is the same op's latency with tracing off),
/// and the spans written out.
pub fn finish_trace(
    workload: &str,
    tracer: &Tracer,
    recorder: &Recorder,
    op: Op,
    untraced_ms: f64,
    prep_s: f64,
    values: &mut Values,
) {
    let estimates = Estimates::of(recorder);
    // Pinned means exactly one CPU in the allowed list.
    let pinned = std::fs::read_to_string("/proc/self/status").is_ok_and(|status| {
        status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .is_some_and(|cpus| cpus.trim().parse::<u32>().is_ok())
    });
    let traced_ms = estimates.latency_ms(op);
    for (metric, value) in [
        ("bench.prep_s", prep_s),
        ("bench.pinned", f64::from(u8::from(pinned))),
        ("bench.cal_p50_us", recorder.cal_p50_us()),
        ("bench.cal_drift", estimates.cal_drift()),
        ("bench.windows", estimates.window_count() as f64),
        ("bench.window_spread", estimates.window_spread(op)),
        (
            "bench.trace_overhead_frac",
            if untraced_ms > 0.0 {
                traced_ms / untraced_ms - 1.0
            } else {
                0.0
            },
        ),
    ] {
        values.insert(metric.to_string(), value);
    }
    tracer
        .write_jsonl(&PathBuf::from(format!(
            "benchmark/out/trace-{workload}.jsonl"
        )))
        .expect("the trace file is writable inside the checkout");
}
