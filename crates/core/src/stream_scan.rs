//! Streaming scans: feed input in chunks, get globally-positioned matches.
//!
//! Every push executes one carry-propagating window per group: the chunk
//! is transposed, each group's *streaming* program (an untransformed
//! lowering with fixpoint loops — see DESIGN.md §10) runs over exactly
//! those bytes, and the bits that cross the chunk boundary travel in a
//! [`bitgen_ir::CarryState`] to the next push. Work per push is
//! O(chunk): no tail is retained, nothing is re-scanned, and no span
//! bound is needed — unbounded repetitions (`*`, `+`, `{n,}`) stream
//! like any other pattern. Results are bit-identical to batch
//! [`BitGen::find`] under every chunking.
//!
//! # Pushes are transactions
//!
//! A window reads the incoming half of its group's carry state and
//! writes only the outgoing half, and nothing rotates until every group's
//! window has succeeded; a push either commits whole (all groups' windows
//! succeeded — possibly after retries or CPU degradation under a
//! [`RetryPolicy`] — carries rotated, counters advanced, matches
//! returned) or rolls back whole (the outgoing halves written so far
//! discarded, which puts every carry back at the pre-push boundary
//! without a copy of it having been kept, the
//! [`StreamScanner::metrics`] record untouched). Interrupts
//! ([`bitgen_exec::ExecError::Cancelled`],
//! [`bitgen_exec::ExecError::DeadlineExceeded`]) roll back and leave the
//! scanner usable; any other unrecovered failure rolls back and
//! *poisons* it — further pushes return [`Error::StreamPoisoned`] — but
//! the rolled-back state is still consistent, so
//! [`StreamScanner::checkpoint`] remains valid and [`BitGen::resume`]
//! rebuilds a live scanner from it.
//!
//! # Suspend and resume
//!
//! [`StreamScanner::checkpoint`] captures the stream at the current
//! chunk boundary as a versioned, self-describing [`StreamCheckpoint`]:
//! carry slots (checksummed per slot), byte/seconds counters, and an
//! engine fingerprint so the checkpoint only restores onto a compatible
//! streaming compile. `bitgrep --checkpoint FILE` builds on it to make
//! interrupted stdin/file scans restartable.

use crate::engine::{run_control, BitGen};
use crate::error::Error;
use crate::session::{priced_window, replay};
use crate::swap::StagedRules;
use bitgen_bitstream::{Basis, BitStream};
use bitgen_exec::{ClassStreams, ExecConfig, ExecMetrics, ExecScratch, Metrics, PreparedProgram};
use bitgen_gpu::{CtaWork, FaultPlan};
use bitgen_ir::{fnv1a, pretty, ByteReader, CancelToken, CarryState, RunControl, FNV_OFFSET};
use std::time::Duration;

/// How a [`StreamScanner`] responds to a detected fault inside a push.
///
/// The default (`RetryPolicy::default()` == [`RetryPolicy::none`]) is
/// fail-fast: one attempt, no degradation — the push rolls back and the
/// scanner poisons, exactly the pre-policy behaviour. Production streams
/// typically want [`RetryPolicy::resilient`]: transient faults replay on
/// fresh scratch, persistent ones degrade the chunk to the reference
/// CPU interpreter (exact matches, surfaced via the `degraded` counter
/// of [`StreamScanner::metrics`] — never silent corruption).
///
/// Interrupts (cancellation, deadlines) are never retried or degraded:
/// the caller asked the scan to stop, and honouring that by rolling the
/// push back keeps the scanner resumable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total executor attempts per group window (≥ 1; `0` is treated as
    /// `1` — a zero budget would make every window unexecutable, so
    /// both [`RetryPolicy::with_attempts`] and the push loop clamp it).
    /// Each retry discards the failed window's carry-out first.
    pub max_attempts: u32,
    /// After the attempts are exhausted, replay the chunk on the CPU
    /// reference interpreter instead of failing the push.
    pub degrade: bool,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// Fail-fast: one attempt, no degradation.
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, degrade: false }
    }

    /// Recover-everything: three attempts, then CPU degradation.
    pub fn resilient() -> RetryPolicy {
        RetryPolicy { max_attempts: 3, degrade: true }
    }

    /// Builder: sets the attempt budget. `0` is clamped to `1`: the
    /// budget counts *total* attempts (first try included), so a zero
    /// budget would leave every window unexecutable and fail each push
    /// before any work ran.
    pub fn with_attempts(mut self, max_attempts: u32) -> RetryPolicy {
        self.max_attempts = max_attempts.max(1);
        self
    }
}

/// A fault armed on a scanner's upcoming windows (drill hook).
#[derive(Debug, Clone, Copy)]
struct StreamFaultArm {
    group: usize,
    plan: FaultPlan,
    /// Window executions of `group` still to be armed; `u32::MAX` means
    /// every one (a persistent fault).
    windows: u32,
}

/// Everything needed to undo a committed swap whose first post-swap
/// window fails unrecoverably: the previous generation's engine (which
/// names the generation), its boundary carries, and its per-group
/// accounting. Held from
/// [`StreamScanner::commit_swap`] until the first post-swap push
/// commits; an unrecoverable failure in that window restores all of it
/// (instead of poisoning the scanner) so the old generation keeps
/// serving exactly as if the swap had never been committed.
#[derive(Debug)]
struct SwapRollback<'e> {
    engine: &'e BitGen,
    carries: Vec<CarryState>,
    ctas: Vec<ExecMetrics>,
}

/// What one push's windows produced beside the scanner's `union`, held
/// until the push commits.
struct PushWindows {
    /// Per window the executor ran, its group, its counted events as
    /// walked, and the same window as the fused launch runs it, priced as
    /// soon as the window passed, off the loop checks it recorded. Degraded
    /// windows have none: they bill no device work, mirroring degraded
    /// batch slots.
    windows: Vec<(usize, ExecMetrics, ExecMetrics)>,
    retried: u64,
    degraded: bool,
}

/// Incremental scanner over a compiled engine: the whole streaming
/// machine. Its *state* is one [`CarryState`] per group carrying the
/// cross-chunk bits (plus counters and the rule-set generation);
/// everything else — the transpose target, the class streams, the
/// executor scratch — is per-push scratch, reused across chunks. See
/// [`StreamScanner::push`] for the push transaction and [`RetryPolicy`]
/// for the recovery contract.
///
/// # Examples
///
/// Unbounded patterns stream too — a match may grow across any number
/// of chunks before closing:
///
/// ```
/// use bitgen::BitGen;
///
/// let engine = BitGen::compile(&["a+b"])?;
/// let mut scanner = engine.streamer()?;
/// let mut ends = scanner.push(b"xxaa")?;
/// ends.extend(scanner.push(b"ab.")?);
/// assert_eq!(ends, vec![5]);
/// # Ok::<(), bitgen::Error>(())
/// ```
#[derive(Debug)]
pub struct StreamScanner<'e> {
    /// The engine whose streaming programs the windows run, and whose
    /// rule-set generation the stream is serving; repointed by a
    /// committed swap and by its rollback.
    engine: &'e BitGen,
    /// Transpose target of the current chunk.
    basis: Basis,
    /// The engine's class table evaluated over `basis`. Kept apart from
    /// the scratch, which a panicking window takes down with it while
    /// the retry still reads these.
    class_streams: ClassStreams,
    /// The windows' slot buffers.
    scratch: ExecScratch,
    /// Union of every group's outputs over the current chunk: each window
    /// that passes its checks ORs its outputs in where they lie, and a
    /// committed push reads the match ends off it.
    union: BitStream,
    /// Cooperative cancellation checked at word-chunk granularity.
    cancel: Option<CancelToken>,
    /// Per-push wall-clock budget.
    timeout: Option<Duration>,
    /// Cross-chunk carry, one per group's streaming program.
    carries: Vec<CarryState>,
    /// The unified per-scan record, advanced once per committed push.
    /// `bytes_scanned` doubles as the consumed-byte offset;
    /// `metrics.ctas` holds one per-group accumulator whose counted
    /// events sum across pushes.
    metrics: Metrics,
    /// Fault response policy for pushes.
    retry: RetryPolicy,
    /// Set after an unrecovered failure; fences `push` off.
    poisoned: bool,
    /// Armed drill fault, if any.
    fault: Option<StreamFaultArm>,
    /// Pending swap window: present between a committed swap and the end
    /// of its first successfully pushed window.
    rollback: Option<SwapRollback<'e>>,
}

impl BitGen {
    /// Creates a streaming scanner over this engine.
    ///
    /// Succeeds for every compiled pattern set — carry propagation
    /// replaced the old span-bounded tail, so unbounded repetitions no
    /// longer need rejecting.
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` keeps the signature stable for
    /// callers already using `?`.
    pub fn streamer(&self) -> Result<StreamScanner<'_>, Error> {
        Ok(self.scanner(fresh_carries(&self.stream_programs), Metrics::default()))
    }

    /// A scanner at the boundary `carries` with the scalar counters of
    /// `metrics`; the per-group accumulators start at zero.
    fn scanner(&self, carries: Vec<CarryState>, metrics: Metrics) -> StreamScanner<'_> {
        StreamScanner {
            engine: self,
            basis: Basis::empty(),
            class_streams: ClassStreams::new(),
            scratch: ExecScratch::new(),
            union: BitStream::default(),
            cancel: None,
            timeout: None,
            carries,
            metrics: Metrics {
                ctas: vec![ExecMetrics::default(); self.stream_programs.len()],
                ..metrics
            },
            retry: RetryPolicy::default(),
            poisoned: false,
            fault: None,
            rollback: None,
        }
    }

    /// Rebuilds a streaming scanner from a [`StreamCheckpoint`], picking
    /// the stream up at the byte boundary where the checkpoint was
    /// taken. The next [`StreamScanner::push`] must feed the bytes that
    /// follow [`StreamCheckpoint::consumed`] in the original stream;
    /// matches then come back bit-identical to an uninterrupted scan.
    ///
    /// The restored scanner starts with the default (fail-fast)
    /// [`RetryPolicy`]; set a different one with
    /// [`StreamScanner::set_retry_policy`].
    ///
    /// # Errors
    ///
    /// [`Error::CheckpointMismatch`] when the checkpoint was taken on an
    /// engine with a different streaming compile (different patterns,
    /// grouping, or lowering), [`Error::GenerationMismatch`] when the
    /// fingerprints agree but the checkpoint sits at a different rule-set
    /// generation (the stream had hot-swapped; rebuild its engine with
    /// [`BitGen::compile_at`] and resume on that),
    /// [`Error::CheckpointInvalid`] / [`Error::CarryCorrupted`] when its
    /// carry states fail validation against this engine's programs.
    pub fn resume(&self, checkpoint: &StreamCheckpoint) -> Result<StreamScanner<'_>, Error> {
        let expected = self.stream_fingerprint();
        if checkpoint.fingerprint != expected {
            return Err(Error::CheckpointMismatch { expected, found: checkpoint.fingerprint });
        }
        if checkpoint.generation != self.generation {
            return Err(Error::GenerationMismatch {
                expected: self.generation,
                found: checkpoint.generation,
            });
        }
        if checkpoint.carries.len() != self.stream_programs.len() {
            return Err(Error::CheckpointInvalid {
                reason: format!(
                    "checkpoint holds {} carry states, engine has {} groups",
                    checkpoint.carries.len(),
                    self.stream_programs.len()
                ),
            });
        }
        for (group, (carry, prog)) in
            checkpoint.carries.iter().zip(&self.stream_programs).enumerate()
        {
            carry
                .validate(prog.carry_layout())
                .map_err(|error| Error::CarryCorrupted { group, error })?;
        }
        // Scalar counters restore exactly; the per-group counter
        // accumulators restart at zero — checkpoints carry the stream's
        // state, not its diagnostic history.
        let metrics = Metrics {
            kernel_seconds: checkpoint.kernel_seconds,
            transpose_seconds: checkpoint.transpose_seconds,
            bytes_scanned: checkpoint.consumed,
            match_count: checkpoint.match_count,
            retries: checkpoint.retries,
            degraded: checkpoint.degraded_chunks,
            swaps: checkpoint.swaps,
            swap_rollbacks: checkpoint.swap_rollbacks,
            ..Metrics::default()
        };
        Ok(self.scanner(checkpoint.carries.clone(), metrics))
    }

    /// A fingerprint of this engine's streaming compile: the group
    /// count plus every streaming program's full rendering. Two engines
    /// agree exactly when their streaming programs (and hence carry
    /// layouts and match semantics) agree, so a [`StreamCheckpoint`]
    /// restores only onto a compatible compile. Stable across processes;
    /// hashed once when the engine is compiled.
    pub fn stream_fingerprint(&self) -> u64 {
        self.stream_fingerprint
    }
}

/// [`BitGen::stream_fingerprint`] of an engine with these streaming
/// programs.
pub(crate) fn fingerprint_of(stream_programs: &[PreparedProgram]) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &CHECKPOINT_VERSION.to_le_bytes());
    h = fnv1a(h, &(stream_programs.len() as u64).to_le_bytes());
    for prepared in stream_programs {
        let prog = prepared.program();
        h = fnv1a(h, pretty(prog).as_bytes());
        h = fnv1a(h, &u64::from(prog.num_streams()).to_le_bytes());
    }
    h
}

/// Zeroed start-of-stream carries, one per group.
fn fresh_carries(stream_programs: &[PreparedProgram]) -> Vec<CarryState> {
    stream_programs.iter().map(|p| CarryState::for_layout(p.carry_layout())).collect()
}

impl<'e> StreamScanner<'e> {
    /// Phase 2 of a live rule-set swap: adopts a [`StagedRules`]
    /// generation at the current chunk boundary. See the
    /// [`crate::swap`] module docs for the full protocol.
    ///
    /// Pre-swap matches, byte offsets, and the accumulated
    /// [`StreamScanner::metrics`] scalars are all preserved; the carry
    /// state is reset to the new programs' layout, so every subsequent
    /// match is bit-identical to a fresh scan under the new rules
    /// starting at [`StreamScanner::consumed`]. The commit arms a swap
    /// window: until the next push commits, an unrecoverable failure
    /// rolls the scanner back to the old generation (counted in
    /// [`bitgen_exec::Metrics::swap_rollbacks`]) instead of poisoning
    /// it.
    ///
    /// The staged generation must outlive the scanner (it is what the
    /// scanner executes after the commit), and one staged generation
    /// can be committed onto any number of scanners serving its parent.
    ///
    /// # Errors
    ///
    /// [`Error::StreamPoisoned`] on a poisoned scanner;
    /// [`Error::SwapMismatch`] when `staged` was prepared from a
    /// different engine or generation than this scanner is serving, or
    /// when a previous swap is still awaiting its first pushed window.
    /// In every error case the scanner is untouched — commit adopts all
    /// of the new generation or none of it.
    pub fn commit_swap(&mut self, staged: &'e StagedRules) -> Result<(), Error> {
        if self.poisoned {
            return Err(Error::StreamPoisoned);
        }
        if self.rollback.is_some() {
            return Err(Error::SwapMismatch {
                reason: "a previous swap is still awaiting its first pushed window".to_string(),
            });
        }
        staged.check_parent(self.engine)?;
        let engine = staged.engine();
        // Atomic adopt: stash everything the old generation needs to
        // keep serving (engine, boundary carries, per-group accounting),
        // then repoint the scanner at the new generation wholesale.
        let rollback = SwapRollback {
            engine: std::mem::replace(&mut self.engine, engine),
            carries: std::mem::replace(
                &mut self.carries,
                fresh_carries(&engine.stream_programs),
            ),
            ctas: std::mem::replace(
                &mut self.metrics.ctas,
                vec![ExecMetrics::default(); engine.stream_programs.len()],
            ),
        };
        self.metrics.swaps += 1;
        self.rollback = Some(rollback);
        Ok(())
    }
}

impl StreamScanner<'_> {
    /// Rule-set generation this scanner is serving: `0` until a
    /// [`StreamScanner::commit_swap`], then the committed
    /// [`StagedRules::generation`] — or back to the previous value if
    /// the swap window rolled back.
    pub fn generation(&self) -> u64 {
        self.engine.generation
    }

    /// Undoes a pending swap window: repoints the scanner at the
    /// previous generation's engine and restores its boundary carries
    /// and per-group accounting. Returns `true` when a window was armed
    /// (the caller surfaces the error *without* poisoning — the old
    /// generation keeps serving as if the swap had never committed).
    fn swap_rollback(&mut self) -> bool {
        let Some(rb) = self.rollback.take() else { return false };
        self.engine = rb.engine;
        self.carries = rb.carries;
        self.metrics.ctas = rb.ctas;
        self.metrics.swap_rollbacks += 1;
        true
    }

    /// Scans the next chunk, returning the *global* byte positions of
    /// matches that end inside it, ascending. Empty chunks are no-ops.
    ///
    /// The push is a transaction: on any error the carry state and the
    /// whole [`StreamScanner::metrics`] record are exactly as they were
    /// before the call (never double-counted, never half-advanced). See
    /// [`RetryPolicy`] for how detected faults become retries or CPU
    /// degradation instead of failures.
    ///
    /// # Errors
    ///
    /// [`Error::StreamPoisoned`] if an earlier push failed unrecovered;
    /// [`Error::CarryCorrupted`] if the carry state was corrupted between
    /// pushes (checksum/layout validation runs before every window);
    /// otherwise the underlying execution failure after the policy's
    /// attempts are exhausted. Cancellation and deadline errors always
    /// surface (they are rolled back, not retried) and do **not** poison
    /// the scanner.
    pub fn push(&mut self, chunk: &[u8]) -> Result<Vec<u64>, Error> {
        if self.poisoned {
            return Err(Error::StreamPoisoned);
        }
        if chunk.is_empty() {
            return Ok(Vec::new());
        }
        self.load_chunk(chunk);
        // Built once per push: retries of a window share the push's
        // deadline rather than getting fresh budgets.
        let ctl = run_control(self.cancel.as_ref(), self.timeout);
        // The transaction: a window writes only the outgoing half of its
        // group's carry and no group rotates before all have succeeded, so
        // the scanner never advances part-way through a push.
        match self.run_windows(&ctl) {
            Ok(windows) => Ok(self.commit(chunk.len(), windows)),
            Err((group, e)) => {
                // The one failure exit: put the whole boundary back (a
                // validation error may follow groups that already ran).
                // An interrupt stops there, the scanner still usable.
                // Anything else falls back to the previous generation if
                // a swap window is pending — its boundary is still
                // trustworthy — and otherwise poisons the scanner rather
                // than execute again from a suspect state.
                self.abandon_windows(group + 1);
                if !e.is_interrupt() && !self.swap_rollback() {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// Push phase 0: transposes the chunk and evaluates the engine's
    /// class table over it — once, for every group's window over this
    /// chunk and every retry of them. These buffers and the scratch are
    /// reused from push to push: in the steady state the transpose, the
    /// class streams, the windows' slot buffers and the union of their
    /// outputs allocate nothing, and what a push still allocates is what
    /// it hands out (the match positions).
    fn load_chunk(&mut self, chunk: &[u8]) {
        self.basis.transpose_into(chunk);
        self.union.reset_zeros(chunk.len());
        // The engine's stream programs were prepared together, so any one
        // of them evaluates the table they all index.
        if let Some(prepared) = self.engine.stream_programs.first() {
            prepared.evaluate_classes(&self.basis, &mut self.class_streams);
        }
    }

    /// Push phase 1: every group's window over the loaded chunk, under
    /// the [`RetryPolicy`]. Rotates nothing. A failure names the group it
    /// stopped at and leaves the clean-up to `push`. A window runs the
    /// group's *streaming* program (untransformed, fixpoint loops — see
    /// DESIGN.md §10) as an exact group's batch slot does (`priced_window`):
    /// a panic is a typed [`Error::WorkerPanicked`] on fresh scratch, and only
    /// a window that passes its checks ORs its outputs into the push's union.
    fn run_windows(&mut self, ctl: &RunControl) -> Result<PushWindows, (usize, Error)> {
        let (engine, config) = (self.engine, self.engine.exec_config());
        let groups = self.carries.len();
        let mut run = PushWindows {
            windows: Vec::with_capacity(groups),
            retried: 0,
            degraded: false,
        };
        for group in 0..groups {
            // Corruption that arrived between pushes: nothing runs on the
            // bad state.
            let layout = self.engine.stream_programs[group].carry_layout();
            self.carries[group]
                .validate(layout)
                .map_err(|error| (group, Error::CarryCorrupted { group, error }))?;
            let mut attempt = 0u32;
            loop {
                attempt += 1;
                let config = ExecConfig { fault: self.take_fault_shot(group), ..config };
                let union = &mut self.union;
                let mut or_in = |v: Option<&BitStream>| v.map_or((), |v| union.or_clipped(v));
                let (chunk, scratch) = ((&self.basis, &self.class_streams), &mut self.scratch);
                let (slot, carry, out) = ((group, 0), &mut self.carries[group], &mut or_in);
                let ran = priced_window(engine, slot, chunk, &config, scratch, ctl, carry, out);
                let e = match ran {
                    Ok((walked, fused)) => {
                        run.windows.push((group, walked, fused));
                        break;
                    }
                    Err(e) => e,
                };
                // The failed window may have half-accumulated its
                // carry-out; drop it before a retry or a replay reads the
                // state again.
                self.carries[group].discard_outgoing();
                if e.is_interrupt() {
                    return Err((group, e));
                }
                if attempt < self.retry.max_attempts.max(1) {
                    run.retried += 1;
                    continue;
                }
                if !self.retry.degrade {
                    return Err((group, e));
                }
                // The degrade `replay` from the boundary carry: exact, and
                // no device work billed.
                let prepared = &engine.stream_programs[group];
                let carry = &mut self.carries[group];
                let replayed = replay(prepared, &self.basis, ctl, carry).map_err(|ie| (group, ie))?;
                replayed.iter().for_each(|out| self.union.or_clipped(out));
                run.degraded = true;
                break;
            }
        }
        Ok(run)
    }

    /// Push phase 2, the commit: every carry rotates and the metrics
    /// record advances, exactly once per successful push. A committed
    /// window also closes any pending swap window — the new generation
    /// has now served cleanly, so the fallback to the old one is released.
    fn commit(&mut self, len: usize, run: PushWindows) -> Vec<u64> {
        self.rollback = None;
        for carry in &mut self.carries {
            carry.rotate();
        }
        let device = &self.engine.config().device;
        // The push bills the cheaper launch: its windows as walked, one
        // instruction at a time, or — when no group degraded — the same
        // windows as the paper's fused kernels on the engine's rung
        // (DESIGN.md §10, "How a served push is billed"); a tie bills the
        // walk.
        let mut billed = run.windows;
        let mut works: Vec<CtaWork> =
            billed.iter().map(|(_, walked, _)| walked.cta_work()).collect();
        let mut cost = device.estimate(&works);
        if !run.degraded {
            // The cost model prices no per-loop trips: they stay out of
            // the copies it reads.
            works.clear();
            for (_, _, fused) in &mut billed {
                let trips = std::mem::take(&mut fused.counters.loop_trips);
                works.push(fused.cta_work());
                fused.counters.loop_trips = trips;
            }
            let fused_cost = device.estimate(&works);
            if fused_cost.seconds < cost.seconds {
                for (_, form, fused) in &mut billed {
                    std::mem::swap(form, fused);
                }
                cost = fused_cost;
                self.metrics.fused_pushes += 1;
            }
        }
        let transpose = device.transpose_seconds(len);
        let m = &mut self.metrics;
        m.retries += run.retried;
        m.degraded += u64::from(run.degraded);
        m.kernel_seconds += cost.seconds;
        m.transpose_seconds += transpose;
        // Additive cost components sum across pushes; the utilisation
        // figures describe the most recent push (a per-stream average
        // would need weights the model doesn't produce).
        m.cost.seconds += cost.seconds;
        m.cost.compute_seconds += cost.compute_seconds;
        m.cost.memory_seconds += cost.memory_seconds;
        m.cost.barrier_stall_frac = cost.barrier_stall_frac;
        m.cost.occupancy = cost.occupancy;
        for (group, window, _) in billed {
            absorb_window(&mut m.ctas[group], window);
        }
        let off = m.bytes_scanned;
        m.bytes_scanned += len as u64;
        let ends: Vec<u64> =
            self.union.positions().into_iter().map(|p| off + p as u64).collect();
        m.match_count += ends.len() as u64;
        ends
    }

    /// Undoes the windows this push has run on groups `..ran`: their
    /// carries return to the boundary the push found them at.
    fn abandon_windows(&mut self, ran: usize) {
        for carry in &mut self.carries[..ran] {
            carry.discard_outgoing();
        }
    }

    /// Captures the stream at the current chunk boundary. Always valid:
    /// failed pushes roll back to the last boundary first, so even a
    /// poisoned scanner checkpoints its last good state (that is the
    /// recovery path — [`BitGen::resume`] the checkpoint and re-push).
    ///
    /// A checkpoint taken inside a pending swap window records the *new*
    /// generation (its fingerprint, generation counter, and fresh
    /// carries): persisting the boundary commits to it, so resuming
    /// treats the swap as done rather than resurrecting the rollback.
    pub fn checkpoint(&self) -> StreamCheckpoint {
        self.checkpoint_with(self.carries.clone())
    }

    /// [`StreamScanner::checkpoint`] for a scanner that is done: the
    /// boundary carries move into the checkpoint instead of being cloned.
    pub fn into_checkpoint(mut self) -> StreamCheckpoint {
        let carries = std::mem::take(&mut self.carries);
        self.checkpoint_with(carries)
    }

    fn checkpoint_with(&self, carries: Vec<CarryState>) -> StreamCheckpoint {
        StreamCheckpoint {
            fingerprint: self.engine.stream_fingerprint(),
            generation: self.engine.generation,
            consumed: self.metrics.bytes_scanned,
            kernel_seconds: self.metrics.kernel_seconds,
            transpose_seconds: self.metrics.transpose_seconds,
            match_count: self.metrics.match_count,
            retries: self.metrics.retries,
            degraded_chunks: self.metrics.degraded,
            swaps: self.metrics.swaps,
            swap_rollbacks: self.metrics.swap_rollbacks,
            carries,
        }
    }

    /// Sets the fault response policy for subsequent pushes.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Arms a deterministic fault on the next `windows` window
    /// executions of `group` (`u32::MAX` = every one until
    /// [`StreamScanner::clear_fault`]). Retries count: with `windows ==
    /// 1` the first attempt is corrupted and the retry runs clean — the
    /// drill hook the streaming fault-tolerance suite is built on.
    pub fn inject_fault(&mut self, group: usize, plan: FaultPlan, windows: u32) {
        self.fault = Some(StreamFaultArm { group, plan, windows });
    }

    /// Disarms a previously injected fault.
    pub fn clear_fault(&mut self) {
        self.fault = None;
    }

    /// Fault-drill hook: scribbles on one carry slot of `group` between
    /// pushes (via [`CarryState::corrupt_outgoing`]), simulating stray
    /// writes or bitrot at a chunk boundary. The next push's validation
    /// detects it before anything executes. Never call it outside fault
    /// drills.
    pub fn corrupt_carry(&mut self, group: usize, seed: u64) {
        self.carries[group].corrupt_outgoing(seed);
    }

    /// Sets a cancellation token polled cooperatively during pushes; a
    /// cancelled push rolls back and returns
    /// [`bitgen_exec::ExecError::Cancelled`] without poisoning the
    /// scanner.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Gives every subsequent push a wall-clock budget; overrunning it
    /// rolls the push back and returns
    /// [`bitgen_exec::ExecError::DeadlineExceeded`] without poisoning
    /// the scanner. `None` removes the budget.
    pub fn set_timeout(&mut self, budget: Option<Duration>) {
        self.timeout = budget;
    }

    /// Total bytes consumed so far.
    pub fn consumed(&self) -> u64 {
        self.metrics.bytes_scanned
    }

    /// The unified metrics record accumulated over all committed pushes
    /// (failed pushes roll back without touching it):
    ///
    /// - `seconds()` is the accumulated modelled time, each push priced
    ///   over exactly the bytes it consumed — carry slots, not a
    ///   re-scanned tail, bridge the chunk boundary — as the cheaper of
    ///   two launches of its windows: walked one instruction at a time,
    ///   or fused as the paper's kernels on the engine's rung, DTM, DTM- or
    ///   Base ([`BitGen::fused_form`]; on Sequential the two tie and the
    ///   walk is billed);
    /// - `fused_pushes` counts the pushes billed fused;
    /// - `retries` counts window replays across committed pushes;
    /// - `degraded` counts pushes in which at least one group's window
    ///   was recovered on the CPU reference interpreter — matches stay
    ///   exact, the counter exists so operators can see the device path
    ///   misbehaving; such a push is never billed fused;
    /// - `ctas[group]` accumulates each group's counted hardware events,
    ///   of the launch each push billed (see [`Metrics::counters_total`]).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// `true` once an unrecovered failure has fenced this scanner off;
    /// see [`Error::StreamPoisoned`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Consumes one armed fault shot for `group`, if any.
    fn take_fault_shot(&mut self, group: usize) -> Option<FaultPlan> {
        let arm = self.fault.as_mut()?;
        if arm.group != group || arm.windows == 0 {
            return None;
        }
        if arm.windows != u32::MAX {
            arm.windows -= 1;
        }
        Some(arm.plan)
    }
}

/// Folds one committed window's per-CTA record into the per-group
/// streaming accumulator: counted events sum across pushes, static
/// shape fields (threads, shared memory, shift groups) describe the
/// program and are refreshed in place, and peak figures keep their
/// maximum: the overlap figures the worst push's, as a batch launch keeps
/// its worst segment's.
fn absorb_window(acc: &mut ExecMetrics, mut window: ExecMetrics) {
    // A fresh accumulator takes the window's per-loop trips as they are.
    if acc.counters.loop_trips.is_empty() {
        std::mem::swap(&mut acc.counters.loop_trips, &mut window.counters.loop_trips);
    }
    acc.counters += &window.counters;
    acc.window_iterations += window.window_iterations;
    acc.retries += window.retries;
    acc.fallbacks += window.fallbacks;
    acc.peak_materialized_bytes =
        acc.peak_materialized_bytes.max(window.peak_materialized_bytes);
    acc.dynamic_overlap_max = acc.dynamic_overlap_max.max(window.dynamic_overlap_max);
    acc.dynamic_overlap_avg = acc.dynamic_overlap_avg.max(window.dynamic_overlap_avg);
    acc.recompute_frac = acc.recompute_frac.max(window.recompute_frac);
    acc.segments = window.segments;
    acc.intermediates = window.intermediates;
    acc.static_overlap = window.static_overlap;
    acc.shift_groups = window.shift_groups;
    acc.smem_bytes = window.smem_bytes;
    acc.regs_per_thread = window.regs_per_thread;
    acc.threads = window.threads;
}

/// Version tag written into checkpoint bytes (and folded into
/// [`BitGen::stream_fingerprint`], so a format bump also invalidates
/// fingerprints from older writers). Version 2 split the accumulated
/// seconds into kernel/transpose components and added the match count,
/// so a resumed scanner reports the same [`Metrics`] scalars an
/// uninterrupted one would. Version 3 added the rule-set generation
/// (so [`BitGen::resume`] can fence hot-swapped streams onto the right
/// rule timeline) and the swap/rollback counters.
const CHECKPOINT_VERSION: u32 = 3;

/// Magic prefix of serialized checkpoints: "BitGen Stream Checkpoint".
const CHECKPOINT_MAGIC: [u8; 4] = *b"BGSC";

/// A suspended stream: everything [`BitGen::resume`] needs to continue
/// scanning from a chunk boundary in another scanner — or another
/// process.
///
/// The serialized form ([`StreamCheckpoint::to_bytes`]) is versioned and
/// self-describing: magic + version header, the engine fingerprint, the
/// counters, each group's carry slots (individually checksummed), and a
/// whole-payload digest. [`StreamCheckpoint::from_bytes`] refuses
/// truncated, tampered, or foreign bytes with a typed error rather than
/// restoring a suspect stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCheckpoint {
    fingerprint: u64,
    generation: u64,
    consumed: u64,
    kernel_seconds: f64,
    transpose_seconds: f64,
    match_count: u64,
    retries: u64,
    degraded_chunks: u64,
    swaps: u64,
    swap_rollbacks: u64,
    carries: Vec<CarryState>,
}

impl StreamCheckpoint {
    /// Fingerprint of the streaming compile this checkpoint belongs to;
    /// compare with [`BitGen::stream_fingerprint`].
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Rule-set generation the suspended stream was serving (`0` if it
    /// never hot-swapped). [`BitGen::resume`] requires the resuming
    /// engine to be at the same generation; after a swap that means
    /// resuming on the [`crate::StagedRules`] engine, not the original.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Bytes the suspended stream had consumed — the offset the next
    /// push must continue from.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Modelled seconds the suspended stream had accumulated
    /// (kernel + transpose components summed).
    pub fn seconds(&self) -> f64 {
        self.kernel_seconds + self.transpose_seconds
    }

    /// Match-end positions the suspended stream had reported.
    pub fn match_count(&self) -> u64 {
        self.match_count
    }

    /// Serializes the checkpoint. The format is stable for a given
    /// `CHECKPOINT_VERSION`; newer readers reject older versions with a
    /// typed error rather than misparsing them.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend(CHECKPOINT_MAGIC);
        out.extend(CHECKPOINT_VERSION.to_le_bytes());
        out.extend(self.fingerprint.to_le_bytes());
        out.extend(self.generation.to_le_bytes());
        out.extend(self.consumed.to_le_bytes());
        out.extend(self.kernel_seconds.to_bits().to_le_bytes());
        out.extend(self.transpose_seconds.to_bits().to_le_bytes());
        out.extend(self.match_count.to_le_bytes());
        out.extend(self.retries.to_le_bytes());
        out.extend(self.degraded_chunks.to_le_bytes());
        out.extend(self.swaps.to_le_bytes());
        out.extend(self.swap_rollbacks.to_le_bytes());
        out.extend((self.carries.len() as u32).to_le_bytes());
        for carry in &self.carries {
            carry.write_bytes(&mut out);
        }
        let digest = fnv1a(FNV_OFFSET, &out);
        out.extend(digest.to_le_bytes());
        out
    }

    /// Parses bytes produced by [`StreamCheckpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`Error::CheckpointInvalid`] on truncation, bad magic, an
    /// unsupported version, a digest mismatch, or malformed carry bytes.
    /// Compatibility with a *specific engine* is checked later, by
    /// [`BitGen::resume`].
    pub fn from_bytes(bytes: &[u8]) -> Result<StreamCheckpoint, Error> {
        let invalid = |reason: &str| Error::CheckpointInvalid { reason: reason.to_string() };
        if bytes.len() < CHECKPOINT_MAGIC.len() + 12 {
            return Err(invalid("truncated header"));
        }
        let (payload, digest_bytes) = bytes.split_at(bytes.len() - 8);
        let digest = u64::from_le_bytes(digest_bytes.try_into().expect("8-byte split"));
        if fnv1a(FNV_OFFSET, payload) != digest {
            return Err(invalid("payload digest mismatch"));
        }
        if payload[..4] != CHECKPOINT_MAGIC {
            return Err(invalid("bad magic"));
        }
        let mut r = ByteReader::new(&payload[4..]);
        let truncated = || invalid("truncated");
        if r.u32().ok_or_else(truncated)? != CHECKPOINT_VERSION {
            return Err(invalid("unsupported checkpoint version"));
        }
        // The ten scalars, in wire order (a struct literal's fields are
        // evaluated as written).
        let mut scalar = || r.u64().ok_or_else(truncated);
        let mut checkpoint = StreamCheckpoint {
            fingerprint: scalar()?,
            generation: scalar()?,
            consumed: scalar()?,
            kernel_seconds: f64::from_bits(scalar()?),
            transpose_seconds: f64::from_bits(scalar()?),
            match_count: scalar()?,
            retries: scalar()?,
            degraded_chunks: scalar()?,
            swaps: scalar()?,
            swap_rollbacks: scalar()?,
            carries: Vec::new(),
        };
        // Each carry record is at least a slot count (4 bytes) plus a
        // seal (8 bytes); bounding the group count by the bytes actually
        // remaining keeps a forged header from pre-allocating anything
        // the payload could never back.
        const MIN_CARRY_RECORD_BYTES: usize = 12;
        let group_count = r
            .count(MIN_CARRY_RECORD_BYTES)
            .ok_or_else(|| invalid("group count truncated or exceeds payload size"))?;
        checkpoint.carries.reserve_exact(group_count);
        for _ in 0..group_count {
            let carry = CarryState::read_bytes(&mut r).map_err(|e| {
                Error::CheckpointInvalid { reason: format!("carry state: {e}") }
            })?;
            checkpoint.carries.push(carry);
        }
        if r.remaining() != 0 {
            return Err(invalid("trailing bytes after carry states"));
        }
        Ok(checkpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use bitgen_exec::Scheme;

    fn scan_all(engine: &BitGen, input: &[u8], chunk_sizes: &[usize]) -> Vec<u64> {
        let mut scanner = engine.streamer().unwrap();
        let mut ends = Vec::new();
        let mut pos = 0usize;
        let mut i = 0usize;
        while pos < input.len() {
            let size = chunk_sizes[i % chunk_sizes.len()].max(1).min(input.len() - pos);
            ends.extend(scanner.push(&input[pos..pos + size]).unwrap());
            pos += size;
            i += 1;
        }
        assert_eq!(scanner.consumed(), input.len() as u64);
        ends
    }

    #[test]
    fn chunked_equals_batch() {
        let engine = BitGen::compile(&["abcd", "x[0-9]{2}y", "q"]).unwrap();
        let input = b"abcd x42y qq abcd x99y endabcd";
        let batch: Vec<u64> =
            engine.find(input).unwrap().matches.positions().iter().map(|&p| p as u64).collect();
        for chunks in [&[1usize][..], &[3], &[7, 2], &[100], &[4, 1, 9]] {
            assert_eq!(scan_all(&engine, input, chunks), batch, "chunks {chunks:?}");
        }
    }

    #[test]
    fn unbounded_chunked_equals_batch() {
        let engine = BitGen::compile(&["a+b", "(xy)*z", "c{2,}"]).unwrap();
        let input = b"aab xyxyz ccc ab z aaaab";
        let batch: Vec<u64> =
            engine.find(input).unwrap().matches.positions().iter().map(|&p| p as u64).collect();
        for chunks in [&[1usize][..], &[2], &[5, 1], &[100]] {
            assert_eq!(scan_all(&engine, input, chunks), batch, "chunks {chunks:?}");
        }
    }

    #[test]
    fn match_spanning_many_tiny_chunks() {
        let engine = BitGen::compile(&["abcdefgh"]).unwrap();
        let input = b"..abcdefgh..";
        assert_eq!(scan_all(&engine, input, &[1]), vec![9]);
    }

    #[test]
    fn no_duplicate_reports_at_chunk_boundaries() {
        let engine = BitGen::compile(&["aa"]).unwrap();
        // Overlapping matches across chunk boundaries must appear once.
        let input = b"aaaa";
        let ends = scan_all(&engine, input, &[2]);
        assert_eq!(ends, vec![1, 2, 3]);
    }

    #[test]
    fn unbounded_patterns_stream() {
        // The old scanner rejected these outright (UnboundedPattern).
        let engine = BitGen::compile(&["a+b"]).unwrap();
        let mut scanner = engine.streamer().unwrap();
        // One match, grown across three chunks through the loop carry.
        let mut ends = scanner.push(b"xa").unwrap();
        ends.extend(scanner.push(b"aa").unwrap());
        ends.extend(scanner.push(b"ab").unwrap());
        assert_eq!(ends, vec![5]);
    }

    #[test]
    fn empty_pushes_are_noops() {
        let engine = BitGen::compile(&["ab"]).unwrap();
        let mut scanner = engine.streamer().unwrap();
        assert_eq!(scanner.push(b"").unwrap(), Vec::<u64>::new());
        let mut ends = scanner.push(b"a").unwrap();
        assert_eq!(scanner.push(b"").unwrap(), Vec::<u64>::new());
        ends.extend(scanner.push(b"b").unwrap());
        assert_eq!(ends, vec![1]);
        assert_eq!(scanner.consumed(), 2);
    }

    #[test]
    fn metrics_accumulate_across_pushes() {
        let engine = BitGen::compile_with(&["abc"], EngineConfig::default()).unwrap();
        let mut s = engine.streamer().unwrap();
        s.push(b"abcabc").unwrap();
        let one = s.metrics().seconds();
        assert!(one > 0.0);
        let ops = s.metrics().counters_total().alu_ops;
        assert!(ops > 0);
        s.push(b"abcabc").unwrap();
        let m = s.metrics();
        assert!(m.seconds() > one);
        assert!(m.counters_total().alu_ops > ops);
        assert_eq!(m.bytes_scanned, 12);
        assert_eq!(m.match_count, 4);
    }

    #[test]
    fn seconds_cover_only_consumed_bytes() {
        // A long-literal pattern gave the old scanner a 7-byte tail to
        // re-scan on every push; the carry scanner prices identical
        // chunks identically, with nothing re-scanned.
        let engine = BitGen::compile(&["abcdefgh"]).unwrap();
        let mut s = engine.streamer().unwrap();
        s.push(&[b'x'; 64]).unwrap();
        let first = s.metrics().seconds();
        s.push(&[b'x'; 64]).unwrap();
        let second = s.metrics().seconds() - first;
        assert_eq!(first.to_bits(), second.to_bits());
    }

    #[test]
    fn zero_attempt_budget_clamps_to_one() {
        let p = RetryPolicy::none().with_attempts(0);
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p, RetryPolicy::none().with_attempts(1));
        // The clamped policy still executes windows normally.
        let engine = BitGen::compile(&["ab"]).unwrap();
        let mut s = engine.streamer().unwrap();
        s.set_retry_policy(p);
        assert_eq!(s.push(b"ab").unwrap(), vec![1]);
        // A raw zero written into the field is clamped by the push loop
        // too (construction sites outside the builder).
        let mut raw = engine.streamer().unwrap();
        raw.set_retry_policy(RetryPolicy { max_attempts: 0, degrade: false });
        assert_eq!(raw.push(b"ab").unwrap(), vec![1]);
    }

    #[test]
    fn checkpoint_round_trips_through_bytes() {
        let engine = BitGen::compile(&["a+b", "cat"]).unwrap();
        let mut scanner = engine.streamer().unwrap();
        scanner.push(b"xxaa cat a").unwrap();
        let ckpt = scanner.checkpoint();
        let bytes = ckpt.to_bytes();
        let back = StreamCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.consumed(), 10);
        assert_eq!(back.fingerprint(), engine.stream_fingerprint());
    }

    #[test]
    fn only_a_window_priced_as_dtm_records_its_loop_checks() {
        // `a(bc)*d` loops, and `x[yz]*w` is an `Add` under MatchStar.
        let input = b"abcbcd xyzw abcd";
        let dtm = EngineConfig::default();
        for (config, records) in [
            (dtm.clone(), true),
            (dtm.clone().with_scheme(Scheme::DtmStatic), false),
            (dtm.clone().with_scheme(Scheme::Sequential), false),
            (dtm.clone().with_match_star(true).with_cta_count(1), false),
        ] {
            let engine = BitGen::compile_with(&["a(bc)*d", "x[yz]*w"], config).unwrap();
            let mut scanner = engine.streamer().unwrap();
            scanner.push(input).unwrap();
            let frontiers = &scanner.scratch.frontiers;
            assert_eq!(frontiers.is_recording(), records, "{:?}", engine.config().scheme);
            assert_eq!(frontiers.is_empty(), !records, "{:?}", engine.config().scheme);
        }
    }

    #[test]
    fn fingerprint_distinguishes_compiles_and_agrees_with_itself() {
        let a = BitGen::compile(&["a+b", "cat"]).unwrap();
        let a2 = BitGen::compile(&["a+b", "cat"]).unwrap();
        let b = BitGen::compile(&["a+b"]).unwrap();
        assert_eq!(a.stream_fingerprint(), a2.stream_fingerprint());
        assert_ne!(a.stream_fingerprint(), b.stream_fingerprint());
    }
}
