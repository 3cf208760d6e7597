//! The serve-layer soak: 64 streams across tenants and mixed pattern
//! sets, driven concurrently through one [`ScanService`] with random
//! cancellations, zero deadlines, checkpoint migrations, and hot swaps
//! thrown in — and every stream's output asserted bit-identical to a
//! sequential standalone [`bitgen::StreamScanner`] fed the same chunks.
//!
//! The plans are generated up front from a seeded RNG, so the disorder
//! is reproducible and the service counters can be asserted *exactly*:
//! every cancel and deadline overrun is a predicted `pushes_failed`,
//! every migration a predicted adoption hit, every distinct pattern set
//! exactly one compile.

use bitgen::{BitGen, Error, ExecError, StagedRules, StreamScanner};
use bitgen_serve::{Client, ScanService, ServeConfig, ServeError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// The shared rule-set pool: a handful of sets, thousands of streams —
/// the cache's reason to exist.
const SETS: &[&[&str]] = &[
    &["cat", "do+g"],
    &["GET /[a-z]+", "err(or)?"],
    &["a+b", "(ab)*c"],
    &["x[ab]{1,4}y", "warn"],
];

/// Byte soup that trips every set somewhere.
const SOUP: &[u8] = b"cat dooog GET /index error aab ababc xaby warn xy ";

/// Everything one stream will do, decided before any thread runs.
struct Plan {
    tenant: String,
    set: usize,
    input: Vec<u8>,
    /// Chunk lengths covering `input` exactly.
    chunks: Vec<usize>,
    /// Chunk index before which the cancel drill runs.
    cancel_at: Option<usize>,
    /// Chunk index pushed once under a zero deadline.
    deadline_at: Option<usize>,
    /// Chunk index before which the stream is checkpointed, closed, and
    /// re-adopted (the migration path — a new slot, any worker).
    migrate_at: Option<usize>,
    /// `(chunk index, new set index)` of a hot swap at that boundary.
    swap_at: Option<(usize, usize)>,
}

fn build_plans(count: usize, seed: u64) -> Vec<Plan> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|idx| {
            let len = rng.random_range(120..320);
            let input: Vec<u8> =
                (0..len).map(|_| SOUP[rng.random_range(0..SOUP.len())]).collect();
            let mut chunks = Vec::new();
            let mut covered = 0usize;
            while covered < len {
                let size = rng.random_range(3..24).min(len - covered);
                chunks.push(size);
                covered += size;
            }
            let set = rng.random_range(0..SETS.len());
            let slots = chunks.len().max(2);
            let pick = |rng: &mut SmallRng, p: f64| -> Option<usize> {
                rng.random_bool(p).then(|| rng.random_range(1..slots))
            };
            let swap_at = rng.random_bool(0.2).then(|| {
                let to = (set + 1 + rng.random_range(0..SETS.len() - 1)) % SETS.len();
                (rng.random_range(1..slots), to)
            });
            Plan {
                tenant: format!("tenant-{}", idx % 6),
                set,
                input,
                chunks,
                cancel_at: pick(&mut rng, 0.25),
                deadline_at: pick(&mut rng, 0.25),
                migrate_at: pick(&mut rng, 0.25),
                swap_at,
            }
        })
        .collect()
}

/// The chunk byte ranges a plan's lengths describe.
fn chunk_ranges(plan: &Plan) -> Vec<(usize, usize)> {
    let mut ranges = Vec::with_capacity(plan.chunks.len());
    let mut pos = 0usize;
    for &len in &plan.chunks {
        ranges.push((pos, pos + len));
        pos += len;
    }
    ranges
}

/// The ground truth: a standalone scanner fed the same chunks, with the
/// same hot swap at the same boundary. Cancels, deadlines, and
/// migrations must not appear here — they are required to be invisible
/// in the output.
fn expected_ends(plan: &Plan) -> Vec<u64> {
    let engine = BitGen::compile(SETS[plan.set]).unwrap();
    let staged: Option<StagedRules> =
        plan.swap_at.map(|(_, to)| engine.prepare_swap(SETS[to]).unwrap());
    let mut scanner: StreamScanner<'_> = engine.streamer().unwrap();
    let mut ends = Vec::new();
    for (i, &(start, end)) in chunk_ranges(plan).iter().enumerate() {
        if plan.swap_at.is_some_and(|(at, _)| at == i) {
            scanner.commit_swap(staged.as_ref().unwrap()).unwrap();
        }
        ends.extend(scanner.push(&plan.input[start..end]).unwrap());
    }
    ends
}

/// Runs one plan against the service, exercising its drills, and
/// returns the stream's match ends.
fn run_plan(service: &ScanService, plan: &Plan) -> Vec<u64> {
    let admission = service.open_stream(&plan.tenant, SETS[plan.set]).unwrap();
    let mut id = admission.stream;
    let mut set = plan.set;
    let mut ends = Vec::new();
    for (i, &(start, end)) in chunk_ranges(plan).iter().enumerate() {
        let chunk = &plan.input[start..end];
        if let Some((at, to)) = plan.swap_at {
            if at == i {
                let generation = service.swap_rules(id, SETS[to]).unwrap();
                assert_eq!(generation, 1);
                set = to;
            }
        }
        if plan.migrate_at == Some(i) {
            // Checkpoint, close, adopt: the stream continues under a
            // new id as if nothing happened.
            let checkpoint = service.checkpoint(id).unwrap();
            service.close_stream(id).unwrap();
            let adopted = service.adopt_stream(&plan.tenant, SETS[set], checkpoint).unwrap();
            assert!(adopted.cache_hit, "a migrated stream's engine must already be cached");
            id = adopted.stream;
        }
        if plan.cancel_at == Some(i) {
            service.cancel_stream(id).unwrap();
            let err = service.push_chunk(id, chunk).unwrap_err();
            assert!(
                matches!(err, ServeError::Scan(Error::Exec(ExecError::Cancelled))),
                "cancel drill: {err}"
            );
            service.reset_cancel(id).unwrap();
        }
        if plan.deadline_at == Some(i) {
            service.set_stream_deadline(id, Some(Duration::ZERO)).unwrap();
            let err = service.push_chunk(id, chunk).unwrap_err();
            assert!(
                matches!(err, ServeError::Scan(Error::Exec(ExecError::DeadlineExceeded))),
                "deadline drill: {err}"
            );
            service.set_stream_deadline(id, None).unwrap();
        }
        ends.extend(service.push_chunk(id, chunk).unwrap());
    }
    let stats = service.close_stream(id).unwrap();
    assert_eq!(stats.consumed, plan.input.len() as u64);
    assert_eq!(stats.match_count, ends.len() as u64);
    assert_eq!(stats.generation, u64::from(plan.swap_at.is_some()));
    ends
}

/// The acceptance soak: 64 concurrent streams through one service are
/// bit-identical to 64 sequential standalone scans, and the counters
/// add up exactly.
#[test]
fn soak_64_streams_bit_identical_to_standalone() {
    let plans = build_plans(64, 0x5eed_50a4 ^ 0xa5a5);
    let expected: Vec<Vec<u64>> = plans.iter().map(expected_ends).collect();

    let config = ServeConfig { workers: 4, queue_capacity: 512, ..ServeConfig::default() };
    let service = Arc::new(ScanService::start(config));
    let served: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .chunks(8)
            .map(|batch| {
                let service = Arc::clone(&service);
                scope.spawn(move || {
                    batch.iter().map(|plan| run_plan(&service, plan)).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });

    for (idx, (got, want)) in served.iter().zip(&expected).enumerate() {
        assert_eq!(
            got, want,
            "stream {idx} (set {}, swap {:?}) diverged from its standalone scan",
            plans[idx].set, plans[idx].swap_at
        );
    }

    // Exact accounting, derived from the plans.
    let migrations = plans.iter().filter(|p| p.migrate_at.is_some()).count() as u64;
    let swaps = plans.iter().filter(|p| p.swap_at.is_some()).count() as u64;
    let drills = plans
        .iter()
        .map(|p| u64::from(p.cancel_at.is_some()) + u64::from(p.deadline_at.is_some()))
        .sum::<u64>();
    let distinct_sets =
        plans.iter().map(|p| p.set).collect::<std::collections::HashSet<_>>().len() as u64;
    let m = service.metrics();
    assert_eq!(m.cache_misses, distinct_sets, "one compile per distinct pattern set");
    assert_eq!(m.cache_hits, (64 - distinct_sets) + migrations);
    assert_eq!(m.cache_evictions, 0);
    assert_eq!(m.streams_opened, 64 + migrations);
    assert_eq!(m.streams_closed, 64 + migrations);
    assert_eq!(m.hot_swaps, swaps);
    assert_eq!(m.pushes_failed, drills, "every drill fails exactly one push");
    assert_eq!(
        m.pushes_completed,
        plans.iter().map(|p| p.chunks.len() as u64).sum::<u64>()
    );
    assert_eq!(m.bytes_scanned, plans.iter().map(|p| p.input.len() as u64).sum::<u64>());
    assert_eq!(
        m.match_count,
        expected.iter().map(|e| e.len() as u64).sum::<u64>()
    );
    assert_eq!(m.rejected_admissions + m.rejected_pushes, 0, "the soak stays under budget");
    service.shutdown();
}

/// Migration between service *instances*: a stream checkpointed on one
/// daemon continues on a second, and the stitched output equals one
/// standalone scan. A post-swap checkpoint adopts on an instance that
/// never saw the swap, and drains from there to a third; offered with
/// the wrong patterns it is refused typed, never cross-wired.
#[test]
fn checkpoint_migrates_between_service_instances() {
    let input: Vec<u8> = SOUP.repeat(4);
    let first = ScanService::start(ServeConfig::default());
    let second = ScanService::start(ServeConfig::default());

    let a = first.open_stream("mover", SETS[0]).unwrap();
    let mut ends = Vec::new();
    let ranges: Vec<(usize, usize)> =
        (0..input.len()).step_by(17).map(|s| (s, (s + 17).min(input.len()))).collect();
    let (head, tail) = ranges.split_at(ranges.len() / 2);
    for &(s, e) in head {
        ends.extend(first.push_chunk(a.stream, &input[s..e]).unwrap());
    }
    let checkpoint = first.checkpoint(a.stream).unwrap();
    first.close_stream(a.stream).unwrap();

    let b = second.adopt_stream("mover", SETS[0], checkpoint).unwrap();
    assert!(!b.cache_hit, "the second instance has never seen this set");
    for &(s, e) in tail {
        ends.extend(second.push_chunk(b.stream, &input[s..e]).unwrap());
    }
    second.close_stream(b.stream).unwrap();

    let engine = BitGen::compile(SETS[0]).unwrap();
    let mut scanner = engine.streamer().unwrap();
    let mut standalone = Vec::new();
    for &(s, e) in &ranges {
        standalone.extend(scanner.push(&input[s..e]).unwrap());
    }
    assert_eq!(ends, standalone);

    // A generation-1 checkpoint adopts where the swap never ran: its
    // patterns compile at its generation.
    let c = first.open_stream("mover", SETS[0]).unwrap();
    let mut swapped_ends = first.push_chunk(c.stream, &input[..32]).unwrap();
    first.swap_rules(c.stream, SETS[1]).unwrap();
    let swapped = first.checkpoint(c.stream).unwrap();
    let err = second.adopt_stream("mover", SETS[2], swapped.clone()).unwrap_err();
    assert!(
        matches!(err, ServeError::Scan(Error::CheckpointMismatch { .. })),
        "wrong patterns must be a typed fingerprint refusal, got {err}"
    );
    let d = second.adopt_stream("mover", SETS[1], swapped).unwrap();
    assert_eq!(d.generation, 1);
    swapped_ends.extend(second.push_chunk(d.stream, &input[32..64]).unwrap());

    // Drained alone from there, it is adopted by a fresh successor and
    // scans on bit-identically.
    let (manifest, _) = second.drain(Duration::from_secs(5));
    assert_eq!(manifest.entries.len(), 1);
    let third = ScanService::start(ServeConfig::default());
    third.adopt_manifest(&manifest).unwrap();
    swapped_ends.extend(third.push_chunk(d.stream, &input[64..96]).unwrap());
    let mut scanner = engine.streamer().unwrap();
    let mut standalone = scanner.push(&input[..32]).unwrap();
    let staged = engine.prepare_swap(SETS[1]).unwrap();
    scanner.commit_swap(&staged).unwrap();
    standalone.extend(scanner.push(&input[32..64]).unwrap());
    standalone.extend(scanner.push(&input[64..96]).unwrap());
    assert_eq!(swapped_ends, standalone);
}

/// The daemon end of the tentpole, in-process: a Unix-socket server, a
/// client per tenant, shared-engine admission visible over the wire,
/// and a clean SHUTDOWN that unblocks `serve_unix`.
#[test]
fn daemon_round_trip_over_unix_socket() {
    let socket = std::env::temp_dir().join(format!("bitgen-soak-{}.sock", std::process::id()));
    let path = socket.clone();
    let server = std::thread::spawn(move || {
        bitgen_serve::serve_unix(&path, ScanService::start(ServeConfig::default()))
    });
    let mut waited = 0;
    while !socket.exists() && waited < 500 {
        std::thread::sleep(Duration::from_millis(10));
        waited += 1;
    }
    assert!(socket.exists(), "daemon never bound its socket");

    let input: Vec<u8> = SOUP.repeat(3);
    let mut alpha = Client::connect(&socket).unwrap();
    let (id, hit) = alpha.open("alpha", SETS[1]).unwrap();
    assert!(!hit);
    let mut served = Vec::new();
    for chunk in input.chunks(23) {
        served.extend(alpha.push(id, chunk).unwrap());
    }

    // A second connection on the same set shares the compiled engine.
    let mut beta = Client::connect(&socket).unwrap();
    let (other, hit) = beta.open("beta", SETS[1]).unwrap();
    assert!(hit, "second tenant must hit the cache over the wire");
    assert!(beta.push(other, b"no such thing").unwrap().is_empty());

    let (consumed, matches) = alpha.close(id).unwrap();
    assert_eq!(consumed, input.len() as u64);
    assert_eq!(matches, served.len() as u64);
    let stats = beta.metrics().unwrap();
    assert_eq!(stats.cache_hits, 1, "stats: {}", stats.to_json());

    let engine = BitGen::compile(SETS[1]).unwrap();
    let mut scanner = engine.streamer().unwrap();
    let mut standalone = Vec::new();
    for chunk in input.chunks(23) {
        standalone.extend(scanner.push(chunk).unwrap());
    }
    assert_eq!(served, standalone, "daemon-served matches must be bit-identical");

    beta.shutdown().unwrap();
    server.join().unwrap().unwrap();
    assert!(!socket.exists(), "daemon must remove its socket on exit");
}
