//! The multi-tenant scan service: N client streams multiplexed over a
//! bounded worker pool, sharing compiled engines through the pattern
//! cache.
//!
//! # How a stream lives here
//!
//! A served stream is exactly two values: its rule set — the generation
//! and patterns it runs now, and their engine, one record behind an
//! `Arc` shared with the pattern cache and every other stream on it —
//! and the [`StreamCheckpoint`] of its last committed chunk boundary. Every
//! push job *resumes* the checkpoint, pushes one chunk, and stores the
//! new checkpoint — workers are stateless, so any worker can run any
//! stream's next chunk. "Checkpoint migration between workers" is not
//! an event the service handles; it is the only thing the service ever
//! does. Bit-identity with a standalone [`bitgen::StreamScanner`] falls
//! out of the checkpoint contract, which the core test suite pins.
//!
//! A useful corollary: a *failed* push (cancelled, deadline overrun,
//! exhausted retries) discards its scanner, so the stream simply stays
//! at its previous boundary — the daemon never holds a poisoned
//! scanner, and the client can retry the same bytes.
//!
//! # Admission, fairness, backpressure
//!
//! Tenants get budgets ([`TenantBudget`]): open-stream caps checked at
//! admission, a queue slice, and an optional per-push deadline. Pushes
//! flow through one bounded [`FairQueue`](crate::queue) that serves
//! tenants round-robin; when a bound is hit, the request is rejected
//! with [`Error::Overloaded`] — typed backpressure, never unbounded
//! buffering.
//!
//! Pushes on one stream are serialised by the blocking API (a caller
//! gets its result before it can send the next chunk). Two threads
//! pushing the same stream concurrently are applied in queue order,
//! each transactionally — the same contract as two writers on one
//! socket.
//!
//! # Surviving restarts
//!
//! [`ScanService::drain`] is the crash-tolerant half of the checkpoint
//! story: stop admitting (typed [`Error::Draining`]), let in-flight
//! pushes finish (or cancel them at the deadline — they roll back, so
//! nothing is half-scanned), then checkpoint every open stream into a
//! [`DrainManifest`]. A successor service —
//! [`ScanService::adopt_manifest`] — revives every stream *under its
//! original id* at the exact committed boundary, rebuilding each
//! engine from the stream's generation and patterns. The scan a
//! client completes across the handoff is bit-identical to one that
//! never moved.
//!
//! Push idempotency rides the same machinery: beside the checkpoint,
//! under the one lock every push, swap and drain takes, a stream keeps
//! its last acknowledged push (offset + ends).
//! A client that never saw the ack re-pushes the same boundary and gets
//! the recorded ends back — counted as a replay, never scanned twice —
//! and the replay window travels in the manifest, so the guarantee
//! spans the restart too.
//!
//! # One admission path
//!
//! [`ScanService::open_stream`], [`ScanService::adopt_stream`] and
//! [`ScanService::adopt_manifest`] all admit a pattern list at a
//! *boundary* (a fresh stream at generation 0, a moved checkpoint, or a
//! manifest entry's checkpoint and replay window), and all find or
//! compile its rule set through one cache lookup by (the boundary's
//! generation, patterns); [`ScanService::warm`] is the same lookup at
//! generation 0. The checkpoint's fingerprint and generation checks in
//! [`bitgen::BitGen::resume`] refuse a boundary the patterns do not run
//! before a set compiled for it is cached.

use crate::cache::{PatternCache, RuleSet};
use crate::drain::{AckRecord, DrainEntry, DrainManifest};
use crate::metrics::ServeMetrics;
use crate::queue::FairQueue;
use bitgen::{CancelToken, EngineConfig, Error, RetryPolicy, StreamCheckpoint};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Handle for one admitted stream; unique for the service's lifetime.
pub type StreamId = u64;

/// Per-tenant serving limits. The default is permissive; tighten per
/// tenant with [`ScanService::set_tenant_budget`].
#[derive(Debug, Clone)]
pub struct TenantBudget {
    /// Open streams the tenant may hold at once; the excess admission
    /// is rejected with [`Error::Overloaded`].
    pub max_streams: usize,
    /// The tenant's slice of the shared push queue; pushes beyond it
    /// are rejected with [`Error::Overloaded`] even when the shared
    /// queue has room.
    pub max_queued: usize,
    /// Wall-clock budget for each push ([`bitgen::StreamScanner::set_timeout`]);
    /// an overrun rolls the push back and surfaces
    /// [`bitgen_exec::ExecError::DeadlineExceeded`]. Applied to streams
    /// opened after the budget is set; override a live stream with
    /// [`ScanService::set_stream_deadline`].
    pub deadline: Option<Duration>,
}

impl Default for TenantBudget {
    fn default() -> TenantBudget {
        TenantBudget { max_streams: 64, max_queued: 64, deadline: None }
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Engine configuration (including the serving
    /// [`bitgen::CompileLimits`]) every cached compile runs under; the
    /// pattern cache owns it, so one service serves one config.
    pub engine: EngineConfig,
    /// Worker threads draining the push queue; `0` means one per
    /// available hardware thread.
    pub workers: usize,
    /// Shared bound on queued pushes across all tenants.
    pub queue_capacity: usize,
    /// Compiled engines the cache retains (LRU beyond it).
    pub cache_capacity: usize,
    /// Fault response applied to every served push.
    pub retry: RetryPolicy,
    /// Budget for tenants without an explicit one.
    pub default_budget: TenantBudget,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            engine: EngineConfig::default(),
            workers: 2,
            queue_capacity: 256,
            cache_capacity: 32,
            retry: RetryPolicy::resilient(),
            default_budget: TenantBudget::default(),
        }
    }
}

/// What [`ScanService::open_stream`] reports back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// Handle for the new stream.
    pub stream: StreamId,
    /// `true` when the pattern set was already compiled — the tenant
    /// shares the cached engine and paid no compile time.
    pub cache_hit: bool,
    /// Rule-set generation the stream starts at.
    pub generation: u64,
    /// Streaming fingerprint of the serving engine
    /// ([`bitgen::BitGen::stream_fingerprint`]).
    pub fingerprint: u64,
}

/// Final accounting returned by [`ScanService::close_stream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Total bytes the stream scanned.
    pub consumed: u64,
    /// Total match ends the stream reported.
    pub match_count: u64,
    /// Rule-set generation the stream ended on.
    pub generation: u64,
}

/// Failures of service operations, separating scan-layer errors from
/// the service's own bookkeeping.
#[derive(Debug)]
pub enum ServeError {
    /// The underlying engine failed — compile, execution, checkpoint,
    /// or a typed [`Error::Overloaded`]/[`Error::Draining`] rejection
    /// from admission control, the push queue, or the drain lifecycle.
    Scan(Error),
    /// No stream with this id is open (never admitted, or closed).
    UnknownStream(StreamId),
    /// A push named a byte offset that is neither the stream's
    /// committed boundary nor its replay window. The client's record of
    /// the stream has diverged from the service's; resync from
    /// `expected` before pushing more.
    OffsetMismatch {
        /// The stream whose offsets diverged.
        stream: StreamId,
        /// The stream's committed byte offset on the service.
        expected: u64,
    },
    /// The service shut down while the request was in flight.
    ShuttingDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Scan(e) => write!(f, "{e}"),
            ServeError::UnknownStream(id) => write!(f, "unknown stream id {id}"),
            ServeError::OffsetMismatch { stream, expected } => write!(
                f,
                "stream {stream} is at byte offset {expected}; \
                 the push named neither that boundary nor the replay window"
            ),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Scan(e) => Some(e),
            ServeError::UnknownStream(_)
            | ServeError::OffsetMismatch { .. }
            | ServeError::ShuttingDown => None,
        }
    }
}

impl From<Error> for ServeError {
    fn from(e: Error) -> ServeError {
        ServeError::Scan(e)
    }
}

/// One live stream: who owns it, how to interrupt it, and its state.
#[derive(Debug)]
struct StreamSlot {
    id: StreamId,
    tenant: String,
    /// Whether the stream belongs in a drain manifest. Streams opened
    /// through the service API default to durable; the daemon marks
    /// connection-scoped ones non-durable, since their lifetime is a
    /// connection that cannot outlive the daemon anyway.
    durable: AtomicBool,
    /// Per-push wall budget; replaceable while the stream is live.
    deadline: Mutex<Option<Duration>>,
    /// Cancellation for the in-flight (or next) push; replaced by
    /// [`ScanService::reset_cancel`] since a fired token stays fired.
    cancel: Mutex<CancelToken>,
    /// The stream proper. Held for the whole of a push, so pushes on
    /// one stream serialise and a hot swap is atomic against them.
    state: Mutex<StreamState>,
}

#[derive(Debug)]
struct StreamState {
    /// The generation and patterns the stream runs now, with their
    /// engine: all a restart needs to rebuild it.
    rules: Arc<RuleSet>,
    checkpoint: StreamCheckpoint,
    /// The last acknowledged push: the idempotent replay window.
    last_ack: Option<AckRecord>,
}

/// Where an admitted stream starts.
enum Boundary {
    /// A new stream at byte 0 ([`ScanService::open_stream`]).
    Fresh,
    /// A checkpoint taken elsewhere ([`ScanService::adopt_stream`]).
    Moved(StreamCheckpoint),
    /// A drain-manifest entry, under its original id with its replay
    /// window. Neither the drain flag nor the tenant budget is checked:
    /// refusing a stream admitted before the restart would lose it.
    Manifest { id: StreamId, checkpoint: StreamCheckpoint, last_ack: Option<AckRecord> },
}

/// How a worker answered a push.
#[derive(Debug)]
enum PushOutcome {
    /// The chunk was scanned and the boundary committed.
    Scanned(Vec<u64>),
    /// The chunk was already committed (lost ack); these are the
    /// recorded ends, returned without a rescan.
    Replayed(Vec<u64>),
}

impl PushOutcome {
    fn into_ends(self) -> Vec<u64> {
        match self {
            PushOutcome::Scanned(ends) | PushOutcome::Replayed(ends) => ends,
        }
    }
}

/// A queued push and the channel its caller is blocked on.
#[derive(Debug)]
struct Job {
    slot: Arc<StreamSlot>,
    offset: Option<u64>,
    chunk: Vec<u8>,
    accepted: Instant,
    reply: SyncSender<Result<Vec<u64>, ServeError>>,
}

#[derive(Debug)]
struct Inner {
    config: ServeConfig,
    cache: Mutex<PatternCache>,
    streams: Mutex<HashMap<StreamId, Arc<StreamSlot>>>,
    budgets: Mutex<HashMap<String, TenantBudget>>,
    queue: FairQueue<Job>,
    /// The service's counters: one record, locked once per push,
    /// refusal, admission, swap, close or drain.
    metrics: Mutex<ServeMetrics>,
    next_id: AtomicU64,
    /// Set by [`ScanService::drain`]; admissions and pushes check it.
    draining: AtomicBool,
    /// Pushes accepted into the queue and not yet replied to; the
    /// drain barrier waits for this to reach zero.
    in_flight: AtomicU64,
}

/// Non-panicking lock acquisition: a worker that panicked mid-push
/// abandons its scanner, but the slot's checkpoint (written only after
/// success) is still the last committed boundary, so the state behind a
/// poisoned mutex is valid by construction.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Inner {
    fn budget_for(&self, tenant: &str) -> TenantBudget {
        lock(&self.budgets)
            .get(tenant)
            .cloned()
            .unwrap_or_else(|| self.config.default_budget.clone())
    }

    /// Updates the counters under their one lock.
    fn count(&self, update: impl FnOnce(&mut ServeMetrics)) {
        update(&mut lock(&self.metrics));
    }

    /// Counts a refusal of `tenant`'s request — `bump` bumps the
    /// global counter, then the tenant's `rejections` — and returns
    /// `error` as the typed reply.
    fn refuse(&self, tenant: &str, bump: fn(&mut ServeMetrics), error: Error) -> ServeError {
        self.count(|m| {
            bump(m);
            m.tenant(tenant, |t| t.rejections += 1);
        });
        ServeError::Scan(error)
    }

    /// The rule set of `patterns` at `generation`, whether it was cached,
    /// and what `place` makes of it. A miss compiles under the cache lock
    /// and is cached only once `place` accepts it: a refused set counts
    /// its compile as a miss and evicts nothing.
    fn rules_for<T>(
        &self,
        generation: u64,
        patterns: &[&str],
        place: impl FnOnce(&RuleSet) -> Result<T, Error>,
    ) -> Result<(Arc<RuleSet>, bool, T), Error> {
        let mut cache = lock(&self.cache);
        if let Some(rules) = cache.get(generation, patterns) {
            drop(cache);
            self.count(|m| m.cache_hits += 1);
            return Ok((Arc::clone(&rules), true, place(&rules)?));
        }
        let rules = Arc::new(cache.compile(generation, patterns)?);
        let placed = place(&rules);
        let evicted = if placed.is_ok() { cache.insert(Arc::clone(&rules)) } else { 0 };
        drop(cache);
        self.count(|m| {
            m.cache_misses += 1;
            m.cache_evictions += evicted;
        });
        Ok((rules, false, placed?))
    }

    /// The worker body: resume at the last boundary, push, commit the
    /// new boundary, record the ack. Failures leave the checkpoint and
    /// ack untouched. An offset that names the already-committed chunk
    /// is answered from the ack without a scan.
    fn run_push(
        &self,
        slot: &StreamSlot,
        offset: Option<u64>,
        chunk: &[u8],
    ) -> Result<PushOutcome, ServeError> {
        let mut guard = lock(&slot.state);
        let state = &mut *guard;
        let committed = state.checkpoint.consumed();
        if let Some(at) = offset {
            if at != committed {
                if let Some(ack) = &state.last_ack {
                    if ack.offset == at && at + chunk.len() as u64 == committed {
                        return Ok(PushOutcome::Replayed(ack.ends.clone()));
                    }
                }
                return Err(ServeError::OffsetMismatch {
                    stream: slot.id,
                    expected: committed,
                });
            }
        }
        let mut scanner = state.rules.engine.resume(&state.checkpoint)?;
        scanner.set_retry_policy(self.config.retry);
        scanner.set_cancel_token(lock(&slot.cancel).clone());
        scanner.set_timeout(*lock(&slot.deadline));
        let ends = scanner.push(chunk)?;
        state.checkpoint = scanner.into_checkpoint();
        state.last_ack = Some(AckRecord { offset: committed, ends: ends.clone() });
        Ok(PushOutcome::Scanned(ends))
    }

    fn worker_loop(&self) {
        while let Some(job) = self.queue.dequeue() {
            let waited = job.accepted.elapsed();
            let result = self.run_push(&job.slot, job.offset, &job.chunk);
            let tenant = &job.slot.tenant;
            self.count(|m| {
                m.note_queue_wait(waited);
                match &result {
                    Ok(PushOutcome::Scanned(ends)) => {
                        m.pushes_completed += 1;
                        m.bytes_scanned += job.chunk.len() as u64;
                        m.match_count += ends.len() as u64;
                        m.tenant(tenant, |t| t.pushes += 1);
                    }
                    Ok(PushOutcome::Replayed(_)) => {
                        m.pushes_replayed += 1;
                        m.tenant(tenant, |t| t.retries += 1);
                    }
                    Err(ServeError::OffsetMismatch { .. }) => {
                        m.tenant(tenant, |t| t.rejections += 1);
                    }
                    Err(_) => m.pushes_failed += 1,
                }
            });
            // A vanished caller (disconnected client) is not an error;
            // the push already committed or rolled back.
            let _ = job.reply.send(result.map(PushOutcome::into_ends));
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// The service: construct with [`ScanService::start`], share by
/// reference (all methods take `&self`), stop with
/// [`ScanService::shutdown`] (also run on drop).
#[derive(Debug)]
pub struct ScanService {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ScanService {
    /// Starts the worker pool and returns the running service.
    pub fn start(config: ServeConfig) -> ScanService {
        let worker_count = if config.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2)
        } else {
            config.workers
        };
        let inner = Arc::new(Inner {
            cache: Mutex::new(PatternCache::new(config.engine.clone(), config.cache_capacity)),
            streams: Mutex::new(HashMap::new()),
            budgets: Mutex::new(HashMap::new()),
            queue: FairQueue::new(config.queue_capacity),
            metrics: Mutex::default(),
            next_id: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            config,
        });
        let workers = (0..worker_count)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || inner.worker_loop())
            })
            .collect();
        ScanService { inner, workers: Mutex::new(workers) }
    }

    /// Sets `tenant`'s budget. Applies to subsequent admissions and
    /// queue checks; live streams keep the deadline they were opened
    /// with (see [`ScanService::set_stream_deadline`]).
    pub fn set_tenant_budget(&self, tenant: &str, budget: TenantBudget) {
        lock(&self.inner.budgets).insert(tenant.to_string(), budget);
    }

    /// Typed refusal of `tenant`'s request while the drain lifecycle
    /// owns the service.
    fn refuse_if_draining(&self, tenant: &str) -> Result<(), ServeError> {
        if self.inner.draining.load(Ordering::SeqCst) {
            return Err(self.inner.refuse(tenant, |m| m.rejected_draining += 1, Error::Draining));
        }
        Ok(())
    }

    /// Typed refusal when `tenant` already holds `budget.max_streams`
    /// of the open `streams`.
    fn check_stream_budget(
        &self,
        streams: &HashMap<StreamId, Arc<StreamSlot>>,
        tenant: &str,
        budget: &TenantBudget,
    ) -> Result<(), ServeError> {
        let open = streams.values().filter(|s| s.tenant == tenant).count();
        if open < budget.max_streams.max(1) {
            return Ok(());
        }
        let reason =
            format!("tenant {tenant:?} is at its budget of {} open streams", budget.max_streams);
        Err(self.inner.refuse(tenant, |m| m.rejected_admissions += 1, Error::Overloaded { reason }))
    }

    /// Admits a new stream for `tenant` on `patterns`, compiling them
    /// only if no cached rule set holds the same patterns at
    /// generation 0.
    ///
    /// # Errors
    ///
    /// [`Error::Overloaded`] (wrapped in [`ServeError::Scan`]) when the
    /// tenant is at its open-stream budget; [`Error::Draining`] during
    /// a drain; compile errors when the pattern set is new and does not
    /// compile.
    pub fn open_stream(&self, tenant: &str, patterns: &[&str]) -> Result<Admission, ServeError> {
        self.admit(tenant, patterns, Boundary::Fresh)
    }

    /// Admits a stream that continues from `checkpoint` — the
    /// migration path for streams checkpointed on another worker,
    /// another service instance, or disk. `patterns` is the set the
    /// checkpoint's generation runs. The rule set comes from the cache
    /// under that generation (hot-swapped generations are published
    /// there by [`ScanService::swap_rules`]) or is compiled at it
    /// ([`bitgen::BitGen::compile_at`]), so a post-swap checkpoint adopts
    /// on a service that never saw the swap. Patterns the checkpoint was
    /// not taken on are a typed [`Error::CheckpointMismatch`], never a
    /// silent cross-wire.
    ///
    /// # Errors
    ///
    /// Everything [`ScanService::open_stream`] returns, plus the
    /// [`bitgen::BitGen::resume`] validation errors (fingerprint,
    /// generation, carry integrity).
    pub fn adopt_stream(
        &self,
        tenant: &str,
        patterns: &[&str],
        checkpoint: StreamCheckpoint,
    ) -> Result<Admission, ServeError> {
        self.admit(tenant, patterns, Boundary::Moved(checkpoint))
    }

    /// Adopts every stream of a drain manifest, preserving stream ids,
    /// committed boundaries, generations, and replay windows — the
    /// successor half of [`ScanService::drain`]. Each entry's rule set is
    /// fetched from the cache or compiled at the entry's generation, and
    /// each checkpoint is validated before its slot is installed.
    /// Neither tenant budgets nor the drain flag are enforced here:
    /// these streams were already admitted before the restart.
    ///
    /// # Errors
    ///
    /// The first entry that fails aborts with its error; entries
    /// adopted before it remain adopted. An invalid checkpoint, or an
    /// entry generation that disagrees with its checkpoint's, is
    /// [`Error::CheckpointInvalid`]; otherwise the compile failure or
    /// the [`bitgen::BitGen::resume`] refusal.
    pub fn adopt_manifest(
        &self,
        manifest: &DrainManifest,
    ) -> Result<Vec<Admission>, ServeError> {
        manifest.entries.iter().map(|entry| self.adopt_entry(entry)).collect()
    }

    fn adopt_entry(&self, entry: &DrainEntry) -> Result<Admission, ServeError> {
        let checkpoint = StreamCheckpoint::from_bytes(&entry.checkpoint)?;
        if checkpoint.generation() != entry.generation {
            return Err(ServeError::Scan(Error::CheckpointInvalid {
                reason: format!(
                    "drain manifest stream {}: recorded generation {} and checkpoint \
                     generation {} disagree",
                    entry.stream,
                    entry.generation,
                    checkpoint.generation()
                ),
            }));
        }
        let patterns: Vec<&str> = entry.patterns.iter().map(String::as_str).collect();
        let boundary =
            Boundary::Manifest { id: entry.stream, checkpoint, last_ack: entry.last_ack.clone() };
        self.admit(&entry.tenant, &patterns, boundary)
    }

    /// The one admission path: find or compile the rule set of
    /// `patterns` at `boundary`'s generation, place the stream at
    /// `boundary`, install its slot.
    fn admit(
        &self,
        tenant: &str,
        patterns: &[&str],
        boundary: Boundary,
    ) -> Result<Admission, ServeError> {
        let budget = self.inner.budget_for(tenant);
        let (kept_id, checkpoint, last_ack) = match boundary {
            Boundary::Fresh => (None, None, None),
            Boundary::Moved(checkpoint) => (None, Some(checkpoint), None),
            Boundary::Manifest { id, checkpoint, last_ack } => (Some(id), Some(checkpoint), last_ack),
        };
        let adopted = kept_id.is_some();
        if !adopted {
            self.refuse_if_draining(tenant)?;
            // Checked before the cache is touched, so a refused admission
            // can neither compile nor evict; repeated under the lock the
            // slot is installed under.
            self.check_stream_budget(&lock(&self.inner.streams), tenant, &budget)?;
        }
        let generation = checkpoint.as_ref().map_or(0, StreamCheckpoint::generation);
        let (rules, cache_hit, checkpoint) =
            self.inner.rules_for(generation, patterns, |rules| match checkpoint {
                // Validate now so a bad checkpoint is refused at admission,
                // not on the first push, and before its set is cached.
                Some(checkpoint) => rules.engine.resume(&checkpoint).map(|_| checkpoint),
                None => Ok(rules.engine.streamer()?.into_checkpoint()),
            })?;
        let id = match kept_id {
            Some(id) => {
                // Keep minted ids clear of every adopted one.
                self.inner.next_id.fetch_max(id, Ordering::Relaxed);
                id
            }
            None => self.inner.next_id.fetch_add(1, Ordering::Relaxed) + 1,
        };
        let admission = Admission {
            stream: id,
            cache_hit,
            generation: checkpoint.generation(),
            fingerprint: rules.engine.stream_fingerprint(),
        };
        let slot = Arc::new(StreamSlot {
            id,
            tenant: tenant.to_string(),
            durable: AtomicBool::new(true),
            deadline: Mutex::new(budget.deadline),
            cancel: Mutex::new(CancelToken::new()),
            state: Mutex::new(StreamState { rules, checkpoint, last_ack }),
        });
        {
            let mut streams = lock(&self.inner.streams);
            if !adopted {
                self.check_stream_budget(&streams, tenant, &budget)?;
            }
            // Occupancy is checked before anything is written: a
            // duplicate id must leave the live stream's slot in place.
            match streams.entry(id) {
                Entry::Occupied(_) => {
                    return Err(ServeError::Scan(Error::CheckpointInvalid {
                        reason: format!("stream id {id} is already open on this service"),
                    }));
                }
                Entry::Vacant(vacant) => {
                    vacant.insert(slot);
                }
            }
        }
        self.inner.count(|m| {
            m.streams_opened += 1;
            m.streams_adopted += u64::from(adopted);
            m.tenant(tenant, |t| t.open_streams += 1);
        });
        Ok(admission)
    }

    fn slot(&self, id: StreamId) -> Result<Arc<StreamSlot>, ServeError> {
        lock(&self.inner.streams).get(&id).cloned().ok_or(ServeError::UnknownStream(id))
    }

    /// Scans the next chunk of stream `id`, blocking until a worker has
    /// run it. Returns the global byte positions of matches ending in
    /// the chunk — exactly what a standalone
    /// [`bitgen::StreamScanner::push`] of the same bytes returns.
    ///
    /// Equivalent to [`ScanService::push_chunk_at`] with no offset
    /// check.
    ///
    /// # Errors
    ///
    /// [`Error::Overloaded`] when the shared queue or the tenant's
    /// slice is full (nothing was buffered; retry later);
    /// [`Error::Draining`] during a drain; otherwise the push's own
    /// failure (cancelled, deadline, exhausted retries), in which case
    /// the stream stays at its previous chunk boundary and the same
    /// bytes can be re-pushed.
    pub fn push_chunk(&self, id: StreamId, chunk: &[u8]) -> Result<Vec<u64>, ServeError> {
        self.push_chunk_at(id, None, chunk.to_vec())
    }

    /// [`ScanService::push_chunk`] with an idempotency key: `offset` is
    /// the caller's record of the stream's byte offset before this
    /// chunk. A push whose ack was lost can be re-sent with the same
    /// offset — the service recognises the already-committed boundary
    /// and returns the recorded ends without scanning the bytes twice.
    /// The chunk moves into the queued job, so a caller that decoded it
    /// for this push (the daemon, off the wire) copies nothing.
    ///
    /// # Errors
    ///
    /// Everything [`ScanService::push_chunk`] returns, plus
    /// [`ServeError::OffsetMismatch`] when `offset` matches neither the
    /// committed boundary nor the replay window.
    pub fn push_chunk_at(
        &self,
        id: StreamId,
        offset: Option<u64>,
        chunk: Vec<u8>,
    ) -> Result<Vec<u64>, ServeError> {
        let slot = self.slot(id)?;
        let tenant = slot.tenant.as_str();
        let budget = self.inner.budget_for(tenant);
        let (reply, result) = mpsc::sync_channel(1);
        let job = Job { slot: Arc::clone(&slot), offset, chunk, accepted: Instant::now(), reply };
        // Count the job in flight *before* checking the drain flag so
        // the drain barrier can never miss it (flag-then-counter
        // handshake with `drain`).
        self.inner.in_flight.fetch_add(1, Ordering::SeqCst);
        if let Err(refused) = self.refuse_if_draining(tenant) {
            self.inner.in_flight.fetch_sub(1, Ordering::SeqCst);
            return Err(refused);
        }
        if let Err(rejected) = self.inner.queue.enqueue(tenant, job, budget.max_queued) {
            self.inner.in_flight.fetch_sub(1, Ordering::SeqCst);
            return Err(self.inner.refuse(tenant, |m| m.rejected_pushes += 1, rejected));
        }
        match result.recv() {
            Ok(outcome) => outcome,
            Err(_) => Err(ServeError::ShuttingDown),
        }
    }

    /// Cancels the in-flight (or next) push on stream `id`; it rolls
    /// back and returns [`bitgen_exec::ExecError::Cancelled`]. The
    /// stream stays at its boundary — [`ScanService::reset_cancel`]
    /// re-arms it for further pushes.
    pub fn cancel_stream(&self, id: StreamId) -> Result<(), ServeError> {
        lock(&self.slot(id)?.cancel).cancel();
        Ok(())
    }

    /// Replaces a fired cancellation token so the stream can push
    /// again.
    pub fn reset_cancel(&self, id: StreamId) -> Result<(), ServeError> {
        *lock(&self.slot(id)?.cancel) = CancelToken::new();
        Ok(())
    }

    /// Marks stream `id` durable or not. Durable streams (the default)
    /// are checkpointed into the drain manifest; non-durable ones are
    /// left out — the daemon uses this for connection-scoped streams,
    /// whose owning connection cannot survive the restart either.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownStream`] when no such stream is open.
    pub fn set_durable(&self, id: StreamId, durable: bool) -> Result<(), ServeError> {
        self.slot(id)?.durable.store(durable, Ordering::Relaxed);
        Ok(())
    }

    /// Overrides the per-push wall budget of live stream `id` (`None`
    /// removes it).
    pub fn set_stream_deadline(
        &self,
        id: StreamId,
        deadline: Option<Duration>,
    ) -> Result<(), ServeError> {
        *lock(&self.slot(id)?.deadline) = deadline;
        Ok(())
    }

    /// The stream's last committed chunk boundary — persist it, ship it
    /// to another service instance, and [`ScanService::adopt_stream`]
    /// it there.
    pub fn checkpoint(&self, id: StreamId) -> Result<StreamCheckpoint, ServeError> {
        let slot = self.slot(id)?;
        let state = lock(&slot.state);
        Ok(state.checkpoint.clone())
    }

    /// Hot-swaps stream `id` onto `patterns` at its current boundary
    /// (the full two-phase protocol of [`bitgen::swap`]), then
    /// publishes the new generation's engine in the cache so siblings
    /// resuming post-swap checkpoints share it. Returns the new
    /// generation. Atomic against concurrent pushes on the stream.
    ///
    /// # Errors
    ///
    /// Compile or limit errors from staging, or [`Error::SwapMismatch`]
    /// for a stream at generation `u64::MAX` (the stream is untouched);
    /// [`Error::Draining`] during a drain, or resume/commit failures.
    pub fn swap_rules(&self, id: StreamId, patterns: &[&str]) -> Result<u64, ServeError> {
        let slot = self.slot(id)?;
        self.refuse_if_draining(&slot.tenant)?;
        let mut guard = lock(&slot.state);
        let state = &mut *guard;
        let staged = state.rules.engine.prepare_swap(patterns)?;
        let generation = staged.generation();
        let mut scanner = state.rules.engine.resume(&state.checkpoint)?;
        scanner.commit_swap(&staged)?;
        state.checkpoint = scanner.into_checkpoint();
        state.rules = Arc::new(RuleSet::new(staged.into_engine(), patterns));
        let evicted = lock(&self.inner.cache).insert(Arc::clone(&state.rules));
        self.inner.count(|m| {
            m.cache_evictions += evicted;
            m.hot_swaps += 1;
        });
        // The old replay window's ends belong to the old generation's
        // timeline; a swap is a new boundary, not a re-pushable one.
        state.last_ack = None;
        Ok(generation)
    }

    /// Closes stream `id` and returns its final accounting. A push
    /// already queued for the stream still completes (its caller gets
    /// the result); new requests see
    /// [`ServeError::UnknownStream`].
    pub fn close_stream(&self, id: StreamId) -> Result<StreamStats, ServeError> {
        let slot =
            lock(&self.inner.streams).remove(&id).ok_or(ServeError::UnknownStream(id))?;
        self.inner.count(|m| {
            m.streams_closed += 1;
            m.tenant(&slot.tenant, |t| t.open_streams = t.open_streams.saturating_sub(1));
        });
        let state = lock(&slot.state);
        Ok(StreamStats {
            consumed: state.checkpoint.consumed(),
            match_count: state.checkpoint.match_count(),
            generation: state.checkpoint.generation(),
        })
    }

    /// Pre-compiles `patterns` into the cache without opening a stream
    /// (daemon warm-up). Returns `true` when they were already cached.
    ///
    /// # Errors
    ///
    /// The compile failure, when the set is new and does not compile.
    pub fn warm(&self, patterns: &[&str]) -> Result<bool, ServeError> {
        Ok(self.inner.rules_for(0, patterns, |_| Ok(()))?.1)
    }

    /// `true` once [`ScanService::drain`] has begun: every admission,
    /// push, and swap is being refused with [`Error::Draining`].
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Drains the service: stops admitting work (typed
    /// [`Error::Draining`] for everything that arrives after this
    /// call), waits up to `deadline` for in-flight pushes to finish,
    /// cancels the stragglers past it (they roll back — their clients
    /// must re-push those bytes to the successor), then checkpoints
    /// every open durable stream (see [`ScanService::set_durable`])
    /// into the returned manifest. The `bool` is `true` when the
    /// deadline forced cancellations.
    ///
    /// The streams stay in the (now-refusing) service so late
    /// `CLOSE`/`STATS` requests still resolve; the expected next step
    /// is [`ScanService::shutdown`] and handing the manifest to the
    /// successor's [`ScanService::adopt_manifest`].
    pub fn drain(&self, deadline: Duration) -> (DrainManifest, bool) {
        let inner = &self.inner;
        inner.draining.store(true, Ordering::SeqCst);
        let start = Instant::now();
        let mut forced = false;
        while inner.in_flight.load(Ordering::SeqCst) != 0 {
            if start.elapsed() >= deadline {
                forced = true;
                break;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        if forced {
            for slot in lock(&inner.streams).values() {
                lock(&slot.cancel).cancel();
            }
            // Cancellation is cooperative and prompt (polled every
            // execution window); wait for the rollbacks to land.
            while inner.in_flight.load(Ordering::SeqCst) != 0 {
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        let mut entries: Vec<DrainEntry> = lock(&inner.streams)
            .values()
            .filter(|slot| slot.durable.load(Ordering::Relaxed))
            .map(|slot| {
                let state = lock(&slot.state);
                DrainEntry {
                    stream: slot.id,
                    tenant: slot.tenant.clone(),
                    generation: state.checkpoint.generation(),
                    patterns: state.rules.patterns.clone(),
                    checkpoint: state.checkpoint.to_bytes(),
                    last_ack: state.last_ack.clone(),
                }
            })
            .collect();
        entries.sort_by_key(|e| e.stream);
        inner.count(|m| {
            m.drains += 1;
            m.drains_forced += u64::from(forced);
            m.streams_drained += entries.len() as u64;
        });
        (DrainManifest { entries }, forced)
    }

    /// Snapshot of the service counters.
    pub fn metrics(&self) -> ServeMetrics {
        lock(&self.inner.metrics).clone()
    }

    /// Stops accepting work, drains pushes already accepted (their
    /// callers get results), and joins the worker pool. Idempotent;
    /// also run on drop.
    pub fn shutdown(&self) {
        self.inner.queue.close();
        let handles: Vec<JoinHandle<()>> = lock(&self.workers).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for ScanService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitgen::BitGen;

    #[test]
    fn served_stream_matches_standalone_scanner() {
        let service = ScanService::start(ServeConfig::default());
        let admission = service.open_stream("acme", &["cat", "do+g"]).unwrap();
        assert!(!admission.cache_hit);
        let input = b"cat dooog catalog dog".as_slice();
        let mut served = Vec::new();
        for chunk in input.chunks(5) {
            served.extend(service.push_chunk(admission.stream, chunk).unwrap());
        }
        let stats = service.close_stream(admission.stream).unwrap();
        assert_eq!(stats.consumed, input.len() as u64);
        assert_eq!(stats.match_count, served.len() as u64);

        let engine = BitGen::compile(&["cat", "do+g"]).unwrap();
        let mut scanner = engine.streamer().unwrap();
        let mut standalone = Vec::new();
        for chunk in input.chunks(5) {
            standalone.extend(scanner.push(chunk).unwrap());
        }
        assert_eq!(served, standalone);
    }

    #[test]
    fn second_tenant_shares_the_compiled_engine() {
        let service = ScanService::start(ServeConfig::default());
        let a = service.open_stream("alpha", &["ab+c"]).unwrap();
        let b = service.open_stream("beta", &["ab+c"]).unwrap();
        assert!(!a.cache_hit);
        assert!(b.cache_hit, "identical pattern set must be a cache hit");
        assert_eq!(a.fingerprint, b.fingerprint);
        let m = service.metrics();
        assert_eq!((m.cache_misses, m.cache_hits), (1, 1));
        assert_eq!(m.streams_opened, 2);
        assert_eq!(m.tenants["alpha"].open_streams, 1);
        assert_eq!(m.tenants["beta"].open_streams, 1);
    }

    #[test]
    fn admission_control_rejects_typed_overload() {
        let service = ScanService::start(ServeConfig::default());
        service.set_tenant_budget(
            "small",
            TenantBudget { max_streams: 2, ..TenantBudget::default() },
        );
        service.open_stream("small", &["aa"]).unwrap();
        service.open_stream("small", &["aa"]).unwrap();
        let err = service.open_stream("small", &["aa"]).unwrap_err();
        assert!(matches!(err, ServeError::Scan(Error::Overloaded { .. })), "{err}");
        // Another tenant is unaffected; closing frees the budget.
        let other = service.open_stream("large", &["aa"]).unwrap();
        assert!(other.cache_hit);
        let m = service.metrics();
        assert_eq!(m.rejected_admissions, 1);
        assert_eq!(m.tenants["small"].rejections, 1);
    }

    #[test]
    fn unknown_streams_are_typed() {
        let service = ScanService::start(ServeConfig::default());
        assert!(matches!(service.push_chunk(7, b"x"), Err(ServeError::UnknownStream(7))));
        assert!(matches!(service.close_stream(7), Err(ServeError::UnknownStream(7))));
    }

    #[test]
    fn cancelled_push_rolls_back_and_stream_recovers() {
        let service = ScanService::start(ServeConfig::default());
        let admission = service.open_stream("acme", &["needle"]).unwrap();
        service.cancel_stream(admission.stream).unwrap();
        let err = service.push_chunk(admission.stream, b"needle in a haystack").unwrap_err();
        assert!(matches!(
            err,
            ServeError::Scan(Error::Exec(bitgen_exec::ExecError::Cancelled))
        ));
        // Nothing advanced; re-arm and re-push the same bytes.
        service.reset_cancel(admission.stream).unwrap();
        let ends = service.push_chunk(admission.stream, b"needle in a haystack").unwrap();
        assert_eq!(ends, vec![5]);
        let m = service.metrics();
        assert_eq!((m.pushes_failed, m.pushes_completed), (1, 1));
    }

    #[test]
    fn zero_deadline_trips_and_can_be_lifted() {
        let service = ScanService::start(ServeConfig::default());
        let admission = service.open_stream("acme", &["xy"]).unwrap();
        service.set_stream_deadline(admission.stream, Some(Duration::ZERO)).unwrap();
        let err = service.push_chunk(admission.stream, b"xyxy").unwrap_err();
        assert!(matches!(
            err,
            ServeError::Scan(Error::Exec(bitgen_exec::ExecError::DeadlineExceeded))
        ));
        service.set_stream_deadline(admission.stream, None).unwrap();
        assert_eq!(service.push_chunk(admission.stream, b"xyxy").unwrap(), vec![1, 3]);
    }

    #[test]
    fn lost_ack_replay_returns_recorded_ends_without_rescanning() {
        let service = ScanService::start(ServeConfig::default());
        let admission = service.open_stream("acme", &["cat"]).unwrap();
        let first = service.push_chunk_at(admission.stream, Some(0), b"cat and ".to_vec()).unwrap();
        assert_eq!(first, vec![2]);
        // The ack "got lost": the client re-pushes the same boundary.
        let replayed =
            service.push_chunk_at(admission.stream, Some(0), b"cat and ".to_vec()).unwrap();
        assert_eq!(replayed, first);
        // Then continues from where it actually was.
        let next = service.push_chunk_at(admission.stream, Some(8), b"catfish".to_vec()).unwrap();
        assert_eq!(next, vec![10]);
        let m = service.metrics();
        assert_eq!(m.pushes_completed, 2, "the replay must not scan again");
        assert_eq!(m.pushes_replayed, 1);
        assert_eq!(m.bytes_scanned, 15);
        assert_eq!(m.tenants["acme"].retries, 1);
        // A diverged offset is a typed refusal that names the boundary.
        let err = service.push_chunk_at(admission.stream, Some(3), b"zzz".to_vec()).unwrap_err();
        match err {
            ServeError::OffsetMismatch { stream, expected } => {
                assert_eq!((stream, expected), (admission.stream, 15));
            }
            other => panic!("expected OffsetMismatch, got {other:?}"),
        }
    }

    #[test]
    fn drain_checkpoints_streams_and_successor_adopts_bit_identically() {
        let input = b"cat dooog catalog dog cat".as_slice();
        let (head, tail) = input.split_at(11);

        let service = ScanService::start(ServeConfig::default());
        let admission = service.open_stream("acme", &["cat", "do+g"]).unwrap();
        let mut served = service.push_chunk(admission.stream, head).unwrap();
        let (manifest, forced) = service.drain(Duration::from_secs(5));
        assert!(!forced);
        assert_eq!(manifest.entries.len(), 1);
        assert_eq!(manifest.entries[0].stream, admission.stream);
        // Draining services refuse everything with the typed error.
        assert!(matches!(
            service.push_chunk(admission.stream, tail),
            Err(ServeError::Scan(Error::Draining))
        ));
        assert!(matches!(
            service.open_stream("acme", &["cat"]),
            Err(ServeError::Scan(Error::Draining))
        ));
        assert!(matches!(
            service.swap_rules(admission.stream, &["dog"]),
            Err(ServeError::Scan(Error::Draining))
        ));
        let drained = service.metrics();
        assert_eq!((drained.drains, drained.streams_drained), (1, 1));
        assert_eq!(drained.rejected_draining, 3);
        assert_eq!(drained.tenants["acme"].rejections, 3, "every refusal charges its tenant");
        service.shutdown();

        // Round-trip through bytes, like a real handoff would.
        let manifest =
            DrainManifest::from_bytes(&manifest.to_bytes()).expect("sealed bytes parse");
        let successor = ScanService::start(ServeConfig::default());
        let adopted = successor.adopt_manifest(&manifest).unwrap();
        assert_eq!(adopted.len(), 1);
        assert_eq!(adopted[0].stream, admission.stream, "ids survive the handoff");
        served.extend(successor.push_chunk(admission.stream, tail).unwrap());
        assert_eq!(successor.metrics().streams_adopted, 1);

        let engine = BitGen::compile(&["cat", "do+g"]).unwrap();
        let mut scanner = engine.streamer().unwrap();
        let mut standalone = Vec::new();
        for chunk in [head, tail] {
            standalone.extend(scanner.push(chunk).unwrap());
        }
        assert_eq!(served, standalone, "handoff must be bit-identical");
    }

    #[test]
    fn replay_window_survives_the_drain_handoff() {
        let service = ScanService::start(ServeConfig::default());
        let admission = service.open_stream("acme", &["cat"]).unwrap();
        let acked = service.push_chunk_at(admission.stream, Some(0), b"catalog!".to_vec()).unwrap();
        let (manifest, _) = service.drain(Duration::from_secs(5));
        service.shutdown();

        let successor = ScanService::start(ServeConfig::default());
        successor.adopt_manifest(&manifest).unwrap();
        // The ack was lost in the crash; the client re-pushes the same
        // chunk at the same boundary against the successor.
        let replayed =
            successor.push_chunk_at(admission.stream, Some(0), b"catalog!".to_vec()).unwrap();
        assert_eq!(replayed, acked);
        let m = successor.metrics();
        assert_eq!((m.pushes_replayed, m.pushes_completed), (1, 0));
    }

    #[test]
    fn drained_post_swap_stream_rebuilds_from_its_generation_and_patterns() {
        let service = ScanService::start(ServeConfig::default());
        let admission = service.open_stream("acme", &["cat"]).unwrap();
        let mut served = service.push_chunk(admission.stream, b"cat dog ").unwrap();
        let generation = service.swap_rules(admission.stream, &["dog"]).unwrap();
        assert_eq!(generation, 1);
        served.extend(service.push_chunk(admission.stream, b"cat dog ").unwrap());
        let (manifest, _) = service.drain(Duration::from_secs(5));
        assert_eq!(manifest.entries[0].generation, 1);
        assert_eq!(manifest.entries[0].patterns, ["dog"]);
        service.shutdown();

        // The successor has an empty cache: the engine must come from
        // compiling the entry's patterns at its generation.
        let successor = ScanService::start(ServeConfig::default());
        // An entry whose generation disagrees with its checkpoint's is a
        // typed refusal that admits nothing.
        let mut forged = manifest.clone();
        forged.entries[0].generation = u64::MAX;
        let err = successor.adopt_manifest(&forged).unwrap_err();
        assert!(matches!(err, ServeError::Scan(Error::CheckpointInvalid { .. })), "{err}");
        assert_eq!(successor.metrics().cache_misses, 0);
        successor.adopt_manifest(&manifest).unwrap();
        served.extend(successor.push_chunk(admission.stream, b"cat dog ").unwrap());

        let engine = BitGen::compile(&["cat"]).unwrap();
        let mut scanner = engine.streamer().unwrap();
        let mut standalone = Vec::new();
        standalone.extend(scanner.push(b"cat dog ").unwrap());
        let staged = engine.prepare_swap(&["dog"]).unwrap();
        scanner.commit_swap(&staged).unwrap();
        standalone.extend(scanner.push(b"cat dog ").unwrap());
        standalone.extend(scanner.push(b"cat dog ").unwrap());
        assert_eq!(served, standalone);
    }

    #[test]
    fn a_stream_at_the_last_generation_refuses_to_swap_typed() {
        let service = ScanService::start(ServeConfig::default());
        let last = BitGen::compile_at(&["cat"], EngineConfig::default(), u64::MAX).unwrap();
        let mut scanner = last.streamer().unwrap();
        let mut served = scanner.push(b"cat ").unwrap();
        let admission = service.adopt_stream("acme", &["cat"], scanner.into_checkpoint()).unwrap();
        assert_eq!(admission.generation, u64::MAX);
        let err = service.swap_rules(admission.stream, &["dog"]).unwrap_err();
        assert!(matches!(err, ServeError::Scan(Error::SwapMismatch { .. })), "{err}");
        // Untouched: the stream keeps scanning its rules at its generation.
        served.extend(service.push_chunk(admission.stream, b"dog cat").unwrap());
        assert_eq!(served, vec![2, 10]);
        assert_eq!(service.metrics().hot_swaps, 0);
        assert_eq!(service.close_stream(admission.stream).unwrap().generation, u64::MAX);
    }

    #[test]
    fn a_manifest_entry_does_not_grow_with_swaps() {
        // Two streams end on the same rules: one swapped once, one fifty
        // times. Each entry holds only what its stream runs now.
        let service = ScanService::start(ServeConfig::default());
        let once = service.open_stream("acme", &["cat"]).unwrap().stream;
        let often = service.open_stream("acme", &["cat"]).unwrap().stream;
        service.swap_rules(once, &["do+g", "a+b"]).unwrap();
        for round in 0..50 {
            let set: &[&str] = if round % 2 == 0 { &["c[ab]t", "x"] } else { &["do+g", "a+b"] };
            service.push_chunk(often, b"cat dog aab ").unwrap();
            service.swap_rules(often, set).unwrap();
        }
        let (manifest, _) = service.drain(Duration::from_secs(5));
        let entry = |id: StreamId| manifest.entries.iter().find(|e| e.stream == id).unwrap();
        let size = |id| DrainManifest { entries: vec![entry(id).clone()] }.to_bytes().len();
        assert_eq!((entry(once).generation, entry(often).generation), (1, 50));
        assert!(size(often) <= size(once), "{} > {}", size(often), size(once));
    }

    #[test]
    fn duplicate_id_adoption_is_refused_and_leaves_the_live_stream_intact() {
        let patterns = ["cat", "do+g"];
        let input = b"cat dooog catalog dog cat".as_slice();
        let (head, tail) = input.split_at(11);
        let asts: Vec<bitgen::Ast> = patterns.iter().map(|p| bitgen::parse(p).unwrap()).collect();
        let oracle: Vec<u64> = bitgen_regex::multi_match_ends(&asts, input)
            .into_iter()
            .map(|end| end as u64)
            .collect();

        let service = ScanService::start(ServeConfig::default());
        let admission = service.open_stream("acme", &patterns).unwrap();
        let at_zero = service.checkpoint(admission.stream).unwrap().to_bytes();
        let mut served = service.push_chunk(admission.stream, head).unwrap();
        let before = service.metrics();

        // A manifest entry claiming the live stream's id, at byte 0.
        let manifest = DrainManifest {
            entries: vec![DrainEntry {
                stream: admission.stream,
                tenant: "acme".to_string(),
                generation: 0,
                patterns: patterns.iter().map(|p| p.to_string()).collect(),
                checkpoint: at_zero,
                last_ack: None,
            }],
        };
        let err = service.adopt_manifest(&manifest).unwrap_err();
        assert!(matches!(err, ServeError::Scan(Error::CheckpointInvalid { .. })), "{err}");

        // The original stream is still at byte 11, not restarted at 0.
        served.extend(service.push_chunk(admission.stream, tail).unwrap());
        assert_eq!(served, oracle);
        let after = service.metrics();
        assert_eq!(after.streams_opened, before.streams_opened);
        assert_eq!(after.streams_adopted, before.streams_adopted);
        assert_eq!(after.tenants["acme"].open_streams, before.tenants["acme"].open_streams);
    }

    #[test]
    fn over_budget_open_never_reaches_the_pattern_cache() {
        let service = ScanService::start(ServeConfig { cache_capacity: 1, ..ServeConfig::default() });
        service.set_tenant_budget(
            "small",
            TenantBudget { max_streams: 1, ..TenantBudget::default() },
        );
        service.open_stream("small", &["aa"]).unwrap();
        let before = service.metrics();
        // A never-seen pattern set: admitted, it would compile and evict.
        let err = service.open_stream("small", &["never", "seen"]).unwrap_err();
        assert!(matches!(err, ServeError::Scan(Error::Overloaded { .. })), "{err}");
        let checkpoint = service.checkpoint(1).unwrap();
        let err = service.adopt_stream("small", &["also", "new"], checkpoint).unwrap_err();
        assert!(matches!(err, ServeError::Scan(Error::Overloaded { .. })), "{err}");
        let after = service.metrics();
        assert_eq!(
            (after.cache_misses, after.cache_evictions, after.cache_hits),
            (before.cache_misses, before.cache_evictions, before.cache_hits)
        );
        assert_eq!(after.rejected_admissions, before.rejected_admissions + 2);
    }

    #[test]
    fn a_refused_adoption_caches_and_evicts_nothing() {
        // One entry: were the refused set cached, it would evict `cat`.
        let service =
            ScanService::start(ServeConfig { cache_capacity: 1, ..ServeConfig::default() });
        let cat = service.open_stream("acme", &["cat"]).unwrap();
        service.push_chunk(cat.stream, b"a cat").unwrap();
        let checkpoint = service.checkpoint(cat.stream).unwrap();
        let err = service.adopt_stream("acme", &["dog"], checkpoint).unwrap_err();
        assert!(matches!(err, ServeError::Scan(Error::CheckpointMismatch { .. })), "{err}");
        let m = service.metrics();
        // The refused set was compiled, so it counts a miss, and nothing
        // else: it was never cached.
        assert_eq!((m.cache_hits, m.cache_misses, m.cache_evictions), (0, 2, 0));
        assert!(service.open_stream("acme", &["cat"]).unwrap().cache_hit, "`cat` stayed cached");
    }
}
