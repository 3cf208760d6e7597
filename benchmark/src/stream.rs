//! `serve-small` and `serve-bulk`: one corpus streamed through one
//! stream per pass, pass after pass. The two differ only in chunk
//! size, which decides whether a push is fixed cost or per-byte work.

use crate::alloc;
use crate::clock::{quantile, Estimates, Op, Recorder};
use crate::daemon::{serve_config, timed_setups, Daemon, SETUP_REPS, TENANT};
use crate::inputs::{Deployment, StreamCheck};
use crate::layers::{engine_config, replay_compile};
use crate::report::{gated_values, Outcome, Tally, Values};
use crate::trace::Tracer;
use crate::twins::{
    client_values, finish_trace, layer_values, service_values, traced_open, AllocDeltas,
    Standalone, TracedStream,
};
use crate::RunConfig;
use bitgen::{BitGen, Metrics};
use bitgen_serve::{Client, ScanService};
use bitgen_workloads::AppKind;
use std::time::Instant;

/// Pattern-cache entries of the streaming workloads' daemon (the
/// service's default; they use one).
const CACHE: usize = 32;

/// The shape of a streaming workload.
pub struct StreamShape {
    pub corpus_len: usize,
    pub chunk: usize,
    /// Pushes in the set-up's warm-up.
    pub warm_pushes: usize,
    /// Chunks the modelled reference scans (the whole corpus at most).
    pub reference_chunks: usize,
}

pub const SMALL: StreamShape = StreamShape {
    corpus_len: 1 << 20,
    chunk: 64,
    warm_pushes: 16,
    reference_chunks: 512,
};
pub const BULK: StreamShape = StreamShape {
    corpus_len: 2 << 20,
    chunk: 64 << 10,
    warm_pushes: 2,
    reference_chunks: 32,
};

/// One standalone pass over the first chunks of a corpus: the modelled
/// clock's sample, and a first correctness check before anything is
/// timed.
pub struct Reference {
    pub metrics: Metrics,
    pub checkpoint_bytes: usize,
    pub reply_bytes_per_match: f64,
}

impl Reference {
    pub fn pass(
        engine: &BitGen,
        corpus: &[u8],
        oracle: &[u64],
        chunk: usize,
        chunks: usize,
        tally: &mut Tally,
    ) -> Reference {
        let mut scanner = engine.streamer().expect("streamer is infallible");
        let mut check = StreamCheck::new(oracle);
        let mut reply_bytes = 0usize;
        for piece in corpus.chunks(chunk).take(chunks) {
            let ends = scanner.push(piece);
            tally.op(matches!(&ends, Ok(ends) if check.push(piece.len(), ends)));
            for end in ends.iter().flatten() {
                reply_bytes += 1 + end.to_string().len();
            }
        }
        Reference {
            metrics: scanner.metrics().clone(),
            checkpoint_bytes: scanner.checkpoint().to_bytes().len(),
            reply_bytes_per_match: reply_bytes as f64 / check.matches_seen().max(1) as f64,
        }
    }

    /// The per-layer values that come from the reference pass.
    pub fn values(&self, values: &mut Values) {
        modelled_values(&self.metrics, values);
        values.insert("core.checkpoint_bytes".into(), self.checkpoint_bytes as f64);
        values.insert(
            "wire.reply_bytes_per_match".into(),
            self.reply_bytes_per_match,
        );
    }
}

/// The `gpu.*` values (and the robustness counters) of one modelled
/// record. All are counted, none is timed: they repeat exactly.
pub fn modelled_values(metrics: &Metrics, values: &mut Values) {
    let cost = &metrics.cost;
    let counters = metrics.counters_total();
    let share = |part: f64| {
        if cost.seconds > 0.0 {
            part / cost.seconds
        } else {
            0.0
        }
    };
    for (name, value) in [
        ("gpu.compute_frac", share(cost.compute_seconds)),
        ("gpu.memory_frac", share(cost.memory_seconds)),
        ("gpu.barrier_stall_frac", cost.barrier_stall_frac),
        ("gpu.occupancy", f64::from(cost.occupancy)),
        ("gpu.alu_ops", counters.alu_ops as f64),
        ("gpu.smem_accesses", counters.smem_accesses() as f64),
        ("gpu.barriers", counters.barriers as f64),
        (
            "gpu.dram_bytes",
            (counters.dram_read_bytes() + counters.dram_write_bytes()) as f64,
        ),
        ("gpu.skipped_ops", counters.skipped_ops as f64),
        ("core.retries", metrics.retries as f64),
        ("core.degraded_chunks", metrics.degraded as f64),
    ] {
        values.insert(name.to_string(), value);
    }
}

/// Runs `serve-small` or `serve-bulk`.
pub fn run(config: &RunConfig, shape: &StreamShape) -> Outcome {
    let prep = Instant::now();
    let mut tally = Tally::default();
    let mut values = Values::new();
    let dep = Deployment::new(AppKind::Snort, 32, 0, shape.corpus_len, config.seed);
    let oracle = dep.oracle(&dep.corpus);
    let patterns = dep.pattern_refs();
    let engine = BitGen::compile_with(&patterns, engine_config()).expect("generated rules compile");
    let reference = Reference::pass(
        &engine,
        &dep.corpus,
        &oracle,
        shape.chunk,
        shape.reference_chunks,
        &mut tally,
    );
    values.insert("modelled_mbps".into(), reference.metrics.throughput_mbps());
    let mut recorder = Recorder::new();
    let mut tracer = config.trace.then(Tracer::new);
    let prep_s = prep.elapsed().as_secs_f64();
    let baseline = alloc::snapshot().live;

    // Set-up: everything between "nothing runs" and "the first steady
    // push": service, daemon, connection, cold compile, first pushes.
    let setup = |tally: &mut Tally| {
        let mut daemon = Daemon::start(CACHE);
        let mut check = StreamCheck::new(&oracle);
        match daemon.client.open(TENANT, &patterns) {
            Ok((id, hit)) => {
                tally.op(!hit);
                for piece in dep.corpus.chunks(shape.chunk).take(shape.warm_pushes) {
                    let ends = daemon.client.push(id, piece);
                    tally.op(matches!(&ends, Ok(ends) if check.push(piece.len(), ends)));
                }
                tally.op(daemon.client.close(id).is_ok());
            }
            Err(_) => {
                tally.op(false);
            }
        }
        daemon
    };
    let reps = if config.trace { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::new();
    let mut daemon = timed_setups(reps, &mut setup_times, || setup(&mut tally), Daemon::stop);

    alloc::reset_peak();
    let before = daemon.client.metrics().expect("STATS answers");
    let untraced_s = config.untraced_seconds();
    recorder.restart();
    while recorder.elapsed_s() < untraced_s {
        pass(
            &mut daemon.client,
            &dep,
            &oracle,
            shape,
            untraced_s,
            &mut recorder,
            &mut tally,
        );
    }
    let peak = alloc::snapshot().peak;
    let estimates = Estimates::of(&recorder);
    gated_values(&estimates, Op::Push, peak, baseline, &mut values);

    if let Some(tracer) = tracer.as_mut() {
        client_values(&estimates, &mut values);
        let replay = replay_compile(tracer, None, &patterns, &engine_config());
        let twin = ScanService::start(serve_config(CACHE));
        tally.op(twin.warm(&patterns).is_ok());
        let mut allocs = AllocDeltas::default();
        let traced_s = config.seconds - untraced_s;
        recorder.restart();
        while recorder.elapsed_s() < traced_s {
            let standalone = Standalone::new(&engine, &replay.stream_programs);
            traced_pass(
                &mut daemon.client,
                &twin,
                standalone,
                &dep,
                &oracle,
                shape,
                traced_s,
                &mut recorder,
                tracer,
                &mut allocs,
                &mut tally,
            );
        }
        layer_values(tracer, &recorder, &allocs, shape.chunk, &mut values);
        replay.counts.values(&mut values);
        let after = daemon.client.metrics().expect("STATS answers");
        service_values(&before, &after, &mut values);
        reference.values(&mut values);
        finish_trace(
            &config.workload,
            tracer,
            &recorder,
            Op::Push,
            estimates.latency_ms(Op::Push),
            prep_s,
            &mut values,
        );
    }
    daemon.stop();
    if !config.trace {
        timed_setups(reps, &mut setup_times, || setup(&mut tally), Daemon::stop).stop();
    }
    values.insert("setup_s".into(), quantile(&mut setup_times, 0.5));
    Outcome { tally, values }
}

/// One pass: open (a cache hit), push the corpus chunk by chunk, close.
/// Stops early, at a chunk boundary, once `seconds` have gone by; the
/// replies so far must then be a prefix of the oracle's.
fn pass(
    client: &mut Client,
    dep: &Deployment,
    oracle: &[u64],
    shape: &StreamShape,
    seconds: f64,
    recorder: &mut Recorder,
    tally: &mut Tally,
) {
    let patterns = dep.pattern_refs();
    let opened = recorder.time(Op::OpenHit, 0, || client.open(TENANT, &patterns));
    let Ok((id, hit)) = opened else {
        tally.op(false);
        return;
    };
    tally.op(hit);
    let mut check = StreamCheck::new(oracle);
    let mut pushed = 0u64;
    for piece in dep.corpus.chunks(shape.chunk) {
        let ends = recorder.time(Op::Push, piece.len(), || client.push(id, piece));
        tally.op(matches!(&ends, Ok(ends) if check.push(piece.len(), ends)));
        recorder.end_cycle();
        pushed += piece.len() as u64;
        if recorder.elapsed_s() >= seconds {
            break;
        }
    }
    let closed = recorder.time(Op::Close, 0, || client.close(id));
    let whole = pushed == dep.corpus.len() as u64;
    tally.op(
        closed.is_ok_and(|totals| totals == (pushed, check.matches_seen()))
            && (!whole || check.complete()),
    );
}

/// [`pass`] with every op decomposed on its twins.
#[allow(clippy::too_many_arguments)]
fn traced_pass(
    client: &mut Client,
    twin: &ScanService,
    standalone: Standalone<'_>,
    dep: &Deployment,
    oracle: &[u64],
    shape: &StreamShape,
    seconds: f64,
    recorder: &mut Recorder,
    tracer: &mut Tracer,
    allocs: &mut AllocDeltas,
    tally: &mut Tally,
) {
    let patterns = dep.pattern_refs();
    let Some(opened) = traced_open(tracer, recorder, client, twin, &patterns, false, allocs) else {
        tally.op(false);
        return;
    };
    tally.op(opened.hits == (true, true));
    let mut stream = TracedStream {
        client,
        daemon_id: opened.daemon_id,
        twin,
        twin_id: opened.twin_id,
        standalone,
        offset: 0,
    };
    let mut check = StreamCheck::new(oracle);
    for piece in dep.corpus.chunks(shape.chunk) {
        tally.op(stream.push(tracer, recorder, piece, &mut check, allocs));
        recorder.end_cycle();
        if recorder.elapsed_s() >= seconds {
            break;
        }
    }
    tally.op(stream.close(tracer, recorder, &check));
}
