//! Live rule-set hot-swap: replace the patterns a running stream
//! matches against, without tearing the stream down.
//!
//! A production matcher (IDS/WAF-style) receives rule updates while
//! streams are live. The protocol here is a two-phase commit:
//!
//! 1. **Prepare** ([`BitGen::prepare_swap`]): compile the new pattern
//!    set — in the background, on any thread — under the serving
//!    engine's existing configuration and [`CompileLimits`] budgets,
//!    into a [`StagedRules`] generation. A parse failure or budget
//!    overrun surfaces here as a typed error and touches nothing: the
//!    live streams never see a half-built engine.
//! 2. **Commit** ([`crate::StreamScanner::commit_swap`]): a scanner
//!    adopts the staged generation at its current chunk boundary. Its
//!    carry state is reset to the new programs' layout, so every
//!    post-swap match is bit-identical to a fresh scan under the new
//!    rules starting at that byte offset; pre-swap matches, byte
//!    offsets, and the accumulated [`Metrics`] scalars are preserved.
//!
//! Commit arms a **swap window**: until the first post-swap push
//! commits, the scanner keeps everything needed to fall back to the old
//! generation. A fault inside that window goes through the scanner's
//! normal [`crate::RetryPolicy`] replay/degrade path *against the new
//! generation*; if the window still fails unrecoverably, the scanner
//! rolls back to the old generation — old programs, old carries, old
//! per-group accounting — instead of poisoning, and keeps serving as if
//! the swap had never been committed. Both outcomes are visible in
//! [`Metrics::swaps`] / [`Metrics::swap_rollbacks`].
//!
//! Generations are fenced end to end: each committed swap bumps the
//! stream's generation counter, checkpoints record it, and
//! [`BitGen::resume`] refuses a checkpoint whose generation differs
//! from the engine's ([`crate::Error::GenerationMismatch`]) even when
//! the fingerprints agree — a stream that swapped is on a different
//! rule timeline than a fresh compile of the same patterns.
//!
//! [`CompileLimits`]: bitgen_ir::CompileLimits
//! [`Metrics`]: bitgen_exec::Metrics
//! [`Metrics::swaps`]: bitgen_exec::Metrics::swaps
//! [`Metrics::swap_rollbacks`]: bitgen_exec::Metrics::swap_rollbacks
//!
//! # Examples
//!
//! ```
//! use bitgen::BitGen;
//!
//! let old = BitGen::compile(&["cat"])?;
//! let mut scanner = old.streamer()?;
//! let mut ends = scanner.push(b"cat dog ")?;
//!
//! // Phase 1: compile the new rules off to the side (may fail; the
//! // stream is untouched either way).
//! let staged = old.prepare_swap(&["dog"])?;
//!
//! // Phase 2: adopt them at the chunk boundary.
//! scanner.commit_swap(&staged)?;
//! ends.extend(scanner.push(b"cat dog ")?);
//!
//! // "cat" matched only before the swap, "dog" only after.
//! assert_eq!(ends, vec![2, 14]);
//! assert_eq!(scanner.generation(), 1);
//! # Ok::<(), bitgen::Error>(())
//! ```

use crate::engine::{BitGen, EngineConfig};
use crate::error::Error;

/// A compiled rule-set generation staged for a hot swap — the output of
/// phase 1 ([`BitGen::prepare_swap`]), the input of phase 2
/// ([`crate::StreamScanner::commit_swap`]).
///
/// Owns a fully compiled engine one generation above its parent, plus
/// the parent's identity so a commit onto the wrong scanner is refused
/// ([`crate::Error::SwapMismatch`]) instead of silently cross-wiring
/// rule timelines. Staging does not disturb the parent or any scanner;
/// dropping an uncommitted `StagedRules` is a no-op abort.
///
/// One staged generation can be committed onto many scanners serving
/// the same parent engine — each commit borrows it, none consume it.
#[derive(Debug)]
pub struct StagedRules {
    engine: BitGen,
    /// Stream fingerprint of the engine this generation was prepared
    /// from; commit verifies the scanner is actually serving it.
    parent_fingerprint: u64,
    /// Generation of the parent engine; the staged engine is one above.
    parent_generation: u64,
}

impl BitGen {
    /// Phase 1 of a live rule-set swap: compiles `patterns` into a
    /// staged generation, under this engine's configuration and
    /// [`CompileLimits`](bitgen_ir::CompileLimits) budgets.
    ///
    /// Safe to run on a background thread while streams keep scanning;
    /// nothing observes the staged engine until a scanner commits it.
    ///
    /// # Errors
    ///
    /// [`Error::Compile`] when a pattern fails to parse,
    /// [`Error::LimitExceeded`] when the set blows a compile budget,
    /// [`Error::SwapMismatch`] when this engine sits at `u64::MAX` and no
    /// generation can follow — in each case no staged generation exists
    /// and every live stream is untouched.
    pub fn prepare_swap(&self, patterns: &[&str]) -> Result<StagedRules, Error> {
        let generation = self.generation.checked_add(1).ok_or_else(|| Error::SwapMismatch {
            reason: format!("generation {} is the last; none can follow it", self.generation),
        })?;
        Ok(StagedRules {
            engine: BitGen::compile_at(patterns, self.config().clone(), generation)?,
            parent_fingerprint: self.stream_fingerprint(),
            parent_generation: self.generation,
        })
    }

    /// Compiles `patterns` under `config` as rule-set `generation`: the
    /// engine a checkpoint taken at that generation on those patterns
    /// resumes onto. Each [`BitGen::prepare_swap`] compiles its patterns
    /// under its parent's configuration, so the engine a stream runs
    /// after any number of swaps is its current patterns compiled once at
    /// its current generation; the sets before them decide nothing.
    ///
    /// This is the adoption path for checkpoints that outlive the
    /// process that made them (drain manifests, disk handoff): a fresh
    /// host has no staged generations to share, but the generation and
    /// the patterns are enough to rebuild one bit-identically.
    ///
    /// # Errors
    ///
    /// Whatever compiling `patterns` returns ([`Error::Compile`],
    /// [`Error::LimitExceeded`]).
    pub fn compile_at(
        patterns: &[&str],
        config: EngineConfig,
        generation: u64,
    ) -> Result<BitGen, Error> {
        let mut engine = BitGen::compile_with(patterns, config)?;
        engine.generation = generation;
        Ok(engine)
    }
}

impl StagedRules {
    /// The staged engine: generation parent + 1, lowered and prepared
    /// for streaming; like any engine it builds a group's batch side
    /// (transforms, kernels) only if something batch-scans it. Use it
    /// directly to batch-scan with the new rules, or to
    /// [`BitGen::resume`] a checkpoint taken after the swap committed
    /// (its generation and fingerprint are the ones such checkpoints
    /// record).
    pub fn engine(&self) -> &BitGen {
        &self.engine
    }

    /// Generation this staged rule set carries (parent + 1).
    pub fn generation(&self) -> u64 {
        self.engine.generation
    }

    /// Consumes the staging wrapper and hands back the compiled engine.
    ///
    /// Serving layers use this after the last scanner has committed the
    /// generation: the engine goes into a shared cache (e.g. behind an
    /// `Arc`) so later resumes of post-swap checkpoints don't recompile.
    /// The parent identity is discarded — the returned engine can no
    /// longer be committed onto anything.
    pub fn into_engine(self) -> BitGen {
        self.engine
    }

    /// Checks that `current` — the engine a scanner is serving — is the
    /// one this generation was prepared from, at the same generation.
    pub(crate) fn check_parent(&self, current: &BitGen) -> Result<(), Error> {
        if self.parent_fingerprint != current.stream_fingerprint() {
            return Err(Error::SwapMismatch {
                reason: format!(
                    "staged against engine {:#018x}, scanner is serving {:#018x}",
                    self.parent_fingerprint,
                    current.stream_fingerprint()
                ),
            });
        }
        if self.parent_generation != current.generation {
            return Err(Error::SwapMismatch {
                reason: format!(
                    "staged from generation {}, scanner is serving generation {}",
                    self.parent_generation, current.generation
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitgen_ir::CompileLimits;

    #[test]
    fn prepare_increments_generation_and_keeps_config() {
        let base = BitGen::compile_with(
            &["ab"],
            crate::EngineConfig::default().with_cta_threads(32),
        )
        .unwrap();
        assert_eq!(base.generation(), 0);
        let staged = base.prepare_swap(&["cd", "e+f"]).unwrap();
        assert_eq!(staged.generation(), 1);
        assert_eq!(staged.engine().generation(), 1);
        assert_eq!(staged.engine().config().threads, 32);
        // Chained: a second swap stages generation 2 from the first.
        let next = staged.engine().prepare_swap(&["gh"]).unwrap();
        assert_eq!(next.generation(), 2);
    }

    #[test]
    fn prepare_failures_are_typed_and_stage_nothing() {
        let base = BitGen::compile(&["ab"]).unwrap();
        assert!(matches!(base.prepare_swap(&["(oops"]), Err(Error::Compile(_))));

        let tight = BitGen::compile_with(
            &["ab"],
            crate::EngineConfig::default()
                .with_limits(CompileLimits { max_ir_ops: 8, ..CompileLimits::standard() }),
        )
        .unwrap();
        assert!(matches!(
            tight.prepare_swap(&["a[0-9]{3,8}z(qq|rr)+"]),
            Err(Error::LimitExceeded(_))
        ));
    }

    #[test]
    fn compile_at_resumes_post_swap_checkpoints_bit_identically() {
        // Live timeline: gen 0 scans, swaps to gen 1, scans, checkpoints.
        let base = BitGen::compile(&["cat"]).unwrap();
        let staged = base.prepare_swap(&["dog", "a+b"]).unwrap();
        let mut scanner = base.streamer().unwrap();
        let mut ends = scanner.push(b"cat dog ").unwrap();
        scanner.commit_swap(&staged).unwrap();
        ends.extend(scanner.push(b"cat dog aab ").unwrap());
        let checkpoint = scanner.checkpoint();

        // A fresh host rebuilds the generation-1 engine from its
        // generation and patterns alone and continues bit-identically.
        let rebuilt =
            BitGen::compile_at(&["dog", "a+b"], crate::EngineConfig::default(), 1).unwrap();
        assert_eq!(rebuilt.generation(), 1);
        assert_eq!(rebuilt.stream_fingerprint(), staged.engine().stream_fingerprint());
        let mut resumed = rebuilt.resume(&checkpoint).unwrap();
        ends.extend(resumed.push(b"dog aab cat ").unwrap());

        // Ground truth: one uninterrupted scan with the same swap point.
        let truth_engine = BitGen::compile(&["cat"]).unwrap();
        let truth_staged = truth_engine.prepare_swap(&["dog", "a+b"]).unwrap();
        let mut truth = truth_engine.streamer().unwrap();
        let mut want = truth.push(b"cat dog ").unwrap();
        truth.commit_swap(&truth_staged).unwrap();
        want.extend(truth.push(b"cat dog aab ").unwrap());
        want.extend(truth.push(b"dog aab cat ").unwrap());
        assert_eq!(ends, want);

        // A chain of swaps lands where one compile at its generation does.
        let chained = staged.into_engine().prepare_swap(&["e+f"]).unwrap().into_engine();
        let direct = BitGen::compile_at(&["e+f"], crate::EngineConfig::default(), 2).unwrap();
        assert_eq!(
            (chained.generation(), chained.stream_fingerprint()),
            (direct.generation(), direct.stream_fingerprint())
        );
        assert!(matches!(
            BitGen::compile_at(&["(oops"], crate::EngineConfig::default(), 2),
            Err(Error::Compile(_))
        ));
    }

    #[test]
    fn the_last_generation_stages_nothing() {
        let last = BitGen::compile_at(&["ab"], crate::EngineConfig::default(), u64::MAX).unwrap();
        assert!(matches!(last.prepare_swap(&["cd"]), Err(Error::SwapMismatch { .. })));
        // One below it still swaps, onto the last.
        let below =
            BitGen::compile_at(&["ab"], crate::EngineConfig::default(), u64::MAX - 1).unwrap();
        assert_eq!(below.prepare_swap(&["cd"]).unwrap().generation(), u64::MAX);
    }

    #[test]
    fn check_parent_rejects_foreign_engines_and_generations() {
        let a = BitGen::compile(&["ab"]).unwrap();
        let b = BitGen::compile(&["xy"]).unwrap();
        let staged = a.prepare_swap(&["cd"]).unwrap();
        assert!(staged.check_parent(&a).is_ok());
        assert!(matches!(staged.check_parent(&b), Err(Error::SwapMismatch { .. })));
        // The same rules one generation on: same fingerprint, other timeline.
        let a1 = a.prepare_swap(&["ab"]).unwrap().into_engine();
        assert_eq!(a1.stream_fingerprint(), a.stream_fingerprint());
        assert!(matches!(staged.check_parent(&a1), Err(Error::SwapMismatch { .. })));
    }
}
