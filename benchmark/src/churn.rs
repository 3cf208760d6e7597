//! `serve-churn`: whole sessions on one connection against a pattern
//! cache that is too small for the rule sets in play.
//!
//! A session is open → four 4 KiB pushes → close. Three sessions in
//! four open a warm 32-rule set (always a cache hit); every fourth
//! opens the next of six rotating 64-rule sets against a four-entry
//! cache (always a miss, always an eviction). Steady pushes carry
//! little here; admission, the cache and the whole compile pipeline
//! carry the load, so push-path work that was moved to open or compile
//! time shows up as a loss.

use crate::alloc;
use crate::clock::{quantile, Estimates, Op, Recorder};
use crate::daemon::{serve_config, timed_setups, Daemon, SETUP_REPS, TENANT};
use crate::inputs::{Deployment, StreamCheck};
use crate::layers::{engine_config, replay_compile, Replay};
use crate::report::{gated_values, Outcome, Tally, Values};
use crate::stream::Reference;
use crate::trace::Tracer;
use crate::twins::{
    client_values, finish_trace, layer_values, service_values, traced_open, AllocDeltas,
    Standalone, TracedStream,
};
use crate::RunConfig;
use bitgen::BitGen;
use bitgen_serve::{Client, ScanService};
use bitgen_workloads::AppKind;
use std::time::Instant;

const COLD_SETS: u64 = 6;
const CACHE: usize = 4;
const PUSHES: usize = 4;
const CHUNK: usize = 4 << 10;
const SESSION_BYTES: usize = PUSHES * CHUNK;
/// Distinct traffic slices the warm sessions cycle through.
const WARM_SLICES: usize = 16;

/// A rule set with the traffic of its sessions and the oracle's answer
/// for each session's slice.
struct RuleSet {
    dep: Deployment,
    oracles: Vec<Vec<u64>>,
}

impl RuleSet {
    fn new(kind: AppKind, rules: usize, member: u64, slices: usize, seed: u64) -> RuleSet {
        let dep = Deployment::new(kind, rules, member, slices * SESSION_BYTES, seed);
        let oracles = dep
            .corpus
            .chunks(SESSION_BYTES)
            .map(|slice| dep.oracle(slice))
            .collect();
        RuleSet { dep, oracles }
    }

    fn slice(&self, index: usize) -> (&[u8], &[u64]) {
        let index = index % self.oracles.len();
        (
            &self.dep.corpus[index * SESSION_BYTES..(index + 1) * SESSION_BYTES],
            &self.oracles[index],
        )
    }
}

/// One session of the schedule.
struct Session<'a> {
    set: &'a RuleSet,
    slice: usize,
    cold: bool,
}

/// Three warm sessions, then the next rotating set, for ever.
struct Schedule<'a> {
    next: u64,
    warm: &'a RuleSet,
    cold: &'a [RuleSet],
}

impl<'a> Schedule<'a> {
    fn advance(&mut self) -> Session<'a> {
        let n = self.next;
        self.next += 1;
        if n % 4 == 3 {
            Session {
                set: &self.cold[(n / 4 % COLD_SETS) as usize],
                slice: 0,
                cold: true,
            }
        } else {
            Session {
                set: self.warm,
                slice: (n - n / 4) as usize,
                cold: false,
            }
        }
    }

    /// The `count` rotating sets opened most recently, oldest first
    /// (the set-up opens all of them once, in order, before session 0).
    fn last_cold(&self, count: usize) -> impl Iterator<Item = &'a RuleSet> + '_ {
        let opened = COLD_SETS + self.next / 4;
        (opened - count as u64..opened).map(|k| &self.cold[(k % COLD_SETS) as usize])
    }

    /// Whether the schedule stands between two groups of four, where
    /// the hit/miss counts are exact.
    fn at_boundary(&self) -> bool {
        self.next.is_multiple_of(4)
    }
}

/// Runs `serve-churn`.
pub fn run(config: &RunConfig) -> Outcome {
    let prep = Instant::now();
    let mut tally = Tally::default();
    let mut values = Values::new();
    let warm = RuleSet::new(AppKind::Tcp, 32, 0, WARM_SLICES, config.seed);
    let cold: Vec<RuleSet> = (0..COLD_SETS)
        .map(|k| RuleSet::new(AppKind::Snort, 64, 1 + k, 1, config.seed))
        .collect();
    let warm_patterns = warm.dep.pattern_refs();
    let engine =
        BitGen::compile_with(&warm_patterns, engine_config()).expect("generated rules compile");
    // The modelled clock's sample: the warm traffic as one stream.
    let whole = warm.dep.oracle(&warm.dep.corpus);
    let reference = Reference::pass(
        &engine,
        &warm.dep.corpus,
        &whole,
        CHUNK,
        WARM_SLICES * PUSHES,
        &mut tally,
    );
    values.insert("modelled_mbps".into(), reference.metrics.throughput_mbps());
    let mut recorder = Recorder::new();
    let mut tracer = config.trace.then(Tracer::new);
    let prep_s = prep.elapsed().as_secs_f64();
    let baseline = alloc::snapshot().live;

    // Set-up: cold compile of every rule set and one push on each —
    // the rotating sets in schedule order, then the warm set — so the
    // cache ends up holding the warm set and the last three rotating
    // sets, and the schedule's first cold open misses.
    let setup = |tally: &mut Tally| {
        let mut daemon = Daemon::start(CACHE);
        for set in cold.iter().chain(std::iter::once(&warm)) {
            let (slice, oracle) = set.slice(0);
            let Ok((id, hit)) = daemon.client.open(TENANT, &set.dep.pattern_refs()) else {
                tally.op(false);
                continue;
            };
            tally.op(!hit);
            let piece = &slice[..CHUNK];
            let ends = daemon.client.push(id, piece);
            tally.op(matches!(&ends, Ok(ends) if StreamCheck::new(oracle).push(CHUNK, ends)));
            tally.op(daemon.client.close(id).is_ok());
        }
        daemon
    };
    let reps = if config.trace { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::new();
    let mut daemon = timed_setups(reps, &mut setup_times, || setup(&mut tally), Daemon::stop);

    alloc::reset_peak();
    let before = daemon.client.metrics().expect("STATS answers");
    let untraced_s = config.untraced_seconds();
    let mut schedule = Schedule {
        next: 0,
        warm: &warm,
        cold: &cold,
    };
    recorder.restart();
    while recorder.elapsed_s() < untraced_s || !schedule.at_boundary() {
        session(
            &mut daemon.client,
            &schedule.advance(),
            &mut recorder,
            &mut tally,
        );
        if schedule.at_boundary() {
            recorder.end_cycle();
        }
    }
    let peak = alloc::snapshot().peak;
    let estimates = Estimates::of(&recorder);
    gated_values(&estimates, Op::Session, peak, baseline, &mut values);

    if let Some(tracer) = tracer.as_mut() {
        client_values(&estimates, &mut values);
        let warm_replay = replay_compile(tracer, None, &warm_patterns, &engine_config());
        // The twin service's cache must hold what the daemon's holds
        // now: the warm set and the three rotating sets last opened.
        let twin = ScanService::start(serve_config(CACHE));
        for set in schedule.last_cold(CACHE - 1).chain(std::iter::once(&warm)) {
            tally.op(twin.warm(&set.dep.pattern_refs()).is_ok());
        }
        let mut allocs = AllocDeltas::default();
        recorder.restart();
        while recorder.elapsed_s() < config.seconds - untraced_s || !schedule.at_boundary() {
            let next = schedule.advance();
            let warm_twins = (&engine, &warm_replay);
            traced_session(
                &mut daemon.client,
                &twin,
                warm_twins,
                &next,
                &mut recorder,
                tracer,
                &mut allocs,
                &mut tally,
            );
            if schedule.at_boundary() {
                recorder.end_cycle();
            }
        }
        layer_values(tracer, &recorder, &allocs, CHUNK, &mut values);
        // The compile counts describe what an open miss compiles, on
        // the first rotating set so they do not depend on where the
        // clock stopped the schedule.
        replay_compile(tracer, None, &cold[0].dep.pattern_refs(), &engine_config())
            .counts
            .values(&mut values);
        let after = daemon.client.metrics().expect("STATS answers");
        service_values(&before, &after, &mut values);
        // The schedule fixes what the cache does, exactly.
        let cache = ["cache.hits", "cache.misses", "cache.evictions"].map(|name| values[name]);
        tally.op(cache == [75.0, 25.0, 25.0]);
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

/// One session on the daemon. A warm one is also recorded as one
/// `Session` op, net of the probes that ran inside it.
fn session(client: &mut Client, next: &Session<'_>, recorder: &mut Recorder, tally: &mut Tally) {
    let (slice, oracle) = next.set.slice(next.slice);
    let patterns = next.set.dep.pattern_refs();
    let start_ns = recorder.now_ns();
    let probes_before = recorder.probe_ns();
    let open_op = if next.cold { Op::OpenMiss } else { Op::OpenHit };
    let opened = recorder.time(open_op, 0, || client.open(TENANT, &patterns));
    let Ok((id, hit)) = opened else {
        tally.op(false);
        return;
    };
    tally.op(hit != next.cold);
    let mut check = StreamCheck::new(oracle);
    for piece in slice.chunks(CHUNK) {
        let ends = recorder.time(Op::Push, piece.len(), || client.push(id, piece));
        tally.op(matches!(&ends, Ok(ends) if check.push(piece.len(), ends)));
    }
    let closed = recorder.time(Op::Close, 0, || client.close(id));
    tally.op(
        closed.is_ok_and(|totals| totals == (slice.len() as u64, check.matches_seen()))
            && check.complete(),
    );
    if !next.cold {
        let probes = recorder.probe_ns() - probes_before;
        recorder.note_compound(Op::Session, recorder.now_ns() - start_ns - probes);
    }
}

/// [`session`] with every op decomposed on its twins. A cold session
/// also replays the compile its open caused.
#[allow(clippy::too_many_arguments)]
fn traced_session(
    client: &mut Client,
    twin: &ScanService,
    warm_twins: (&BitGen, &Replay),
    next: &Session<'_>,
    recorder: &mut Recorder,
    tracer: &mut Tracer,
    allocs: &mut AllocDeltas,
    tally: &mut Tally,
) {
    let (slice, oracle) = next.set.slice(next.slice);
    let patterns = next.set.dep.pattern_refs();
    let Some(opened) = traced_open(tracer, recorder, client, twin, &patterns, next.cold, allocs)
    else {
        tally.op(false);
        return;
    };
    tally.op(opened.hits == (!next.cold, !next.cold));

    // A cold session's standalone twins need that set's own engine:
    // compiling it is the twin of what the open just did.
    let compiled = next.cold.then(|| {
        let (engine, compile) = tracer.span("core.compile", Some(opened.span), || {
            BitGen::compile_with(&patterns, engine_config()).expect("generated rules compile")
        });
        let replay = replay_compile(tracer, Some(compile), &patterns, &engine_config());
        (engine, replay)
    });
    let (engine, replay) = match &compiled {
        Some((engine, replay)) => (engine, replay),
        None => warm_twins,
    };
    let mut stream = TracedStream {
        client,
        daemon_id: opened.daemon_id,
        twin,
        twin_id: opened.twin_id,
        standalone: Standalone::new(engine, &replay.stream_programs),
        offset: 0,
    };
    let mut check = StreamCheck::new(oracle);
    for piece in slice.chunks(CHUNK) {
        tally.op(stream.push(tracer, recorder, piece, &mut check, allocs));
    }
    tally.op(stream.close(tracer, recorder, &check) && check.complete());
}
