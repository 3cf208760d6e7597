//! The crate-wide error type: one enum over every failure an entry
//! point can produce, so callers hold a single `Result` shape across
//! compilation, scanning, and streaming.

use crate::engine::CompileError;
use bitgen_exec::ExecError;
use bitgen_ir::{CarryError, LimitError};
use std::fmt;

/// Any failure a `bitgen` entry point can return.
///
/// Wraps the stage-specific errors ([`CompileError`], [`ExecError`])
/// so pipelines mixing compilation, scanning, and streaming can use
/// `?` throughout:
///
/// ```
/// use bitgen::BitGen;
///
/// fn count(patterns: &[&str], input: &[u8]) -> Result<usize, bitgen::Error> {
///     let engine = BitGen::compile(patterns)?;
///     let report = engine.find(input)?;
///     Ok(report.match_count())
/// }
///
/// assert_eq!(count(&["ab"], b"abab")?, 2);
/// assert!(count(&["(oops"], b"").is_err());
/// # Ok::<(), bitgen::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A pattern failed to compile.
    Compile(CompileError),
    /// The pattern set blew through a compile budget
    /// ([`crate::EngineConfig::with_limits`]) — too many AST nodes,
    /// distinct byte classes, or IR instructions for one group.
    LimitExceeded(LimitError),
    /// Execution failed on the simulated device.
    Exec(ExecError),
    /// A worker thread panicked while running one (group × stream) CTA.
    /// The scan aborted, but other workers' slots were unaffected;
    /// compile with [`crate::RecoveryPolicy::Degrade`] to recover the
    /// affected streams instead, replaying the group's lowering on the
    /// reference interpreter.
    WorkerPanicked {
        /// Index of the regex group whose CTA panicked.
        group: usize,
        /// Index of the input stream whose CTA panicked.
        stream: usize,
    },
    /// A [`crate::StreamScanner`] was used again after an unrecovered
    /// push failure. The failed push rolled the carry state back to the
    /// last good boundary, so [`crate::StreamScanner::checkpoint`] is
    /// still valid — restore it with [`crate::BitGen::resume`] and
    /// re-push the failed chunk — but `push` itself stays fenced off so
    /// accidental reuse can never execute from a suspect state.
    StreamPoisoned,
    /// A stream's carry state failed its integrity check (checksum,
    /// layout, or boundary invariant) before a window executed. The
    /// corruption happened *between* pushes; nothing was executed on the
    /// bad state.
    CarryCorrupted {
        /// Index of the regex group whose carry failed validation.
        group: usize,
        /// What the integrity check tripped over.
        error: CarryError,
    },
    /// Serialized checkpoint bytes could not be parsed (bad magic,
    /// unsupported version, truncation, or payload digest mismatch).
    CheckpointInvalid {
        /// What the parser tripped over.
        reason: String,
    },
    /// A checkpoint's engine fingerprint does not match the engine asked
    /// to resume it — the pattern set or streaming compile differs, so
    /// the carry layout cannot be trusted to line up.
    CheckpointMismatch {
        /// Fingerprint of the engine asked to resume.
        expected: u64,
        /// Fingerprint recorded in the checkpoint.
        found: u64,
    },
    /// A checkpoint's rule-set generation does not match the engine asked
    /// to resume it: the stream had hot-swapped a different number of
    /// times than the engine's generation records, so its byte counters
    /// and match history belong to a different rule timeline. Rebuild the
    /// engine for the checkpoint's generation (its current rules through
    /// [`crate::BitGen::compile_at`]) and resume on that.
    GenerationMismatch {
        /// Generation of the engine asked to resume.
        expected: u64,
        /// Generation recorded in the checkpoint.
        found: u64,
    },
    /// A staged rule-set swap ([`crate::StagedRules`]) was committed onto
    /// a scanner it was not prepared for — wrong parent engine, wrong
    /// generation, or a previous swap still awaiting its first window —
    /// or was asked of an engine at generation `u64::MAX`, which no
    /// generation can follow. The scanner is untouched: commit is atomic
    /// and rejects before adopting anything.
    SwapMismatch {
        /// Why the commit was refused.
        reason: String,
    },
    /// A serving layer refused to take on more work: an admission,
    /// stream, or queued request would have exceeded a configured bound
    /// (worker-pool queue depth, per-tenant stream or queue budget).
    /// Nothing was buffered and no stream state changed — retry later,
    /// shed load, or raise the budget. This is backpressure, not a
    /// failure of any scan.
    Overloaded {
        /// Which bound the request hit.
        reason: String,
    },
    /// A serving layer is draining: it has stopped admitting new streams
    /// and new pushes while it finishes in-flight work and checkpoints
    /// every open stream for adoption elsewhere. No stream state changed
    /// — retry against the successor instance (or the same one after it
    /// restarts and adopts the drain manifest).
    Draining,
    /// A wire frame exceeded the transport's configured bound. The peer
    /// sent more bytes in one frame than the daemon is willing to
    /// buffer; the frame was discarded unread (bounded memory, never
    /// unbounded buffering) and the connection is no longer in sync.
    FrameTooLarge {
        /// The configured maximum frame length in bytes.
        limit: usize,
        /// How many bytes had arrived when the bound tripped (the frame
        /// was still unterminated, so the true length is at least this).
        length: usize,
    },
}

impl Error {
    /// Whether this is the caller's own request to stop (cancellation or
    /// a deadline): rolled back and surfaced, never retried, degraded or
    /// counted as a failure of the scan.
    pub(crate) fn is_interrupt(&self) -> bool {
        matches!(self, Error::Exec(ExecError::Cancelled | ExecError::DeadlineExceeded))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Compile(e) => write!(f, "compile error: {e}"),
            Error::LimitExceeded(e) => write!(f, "compile budget exceeded: {e}"),
            Error::Exec(e) => write!(f, "execution error: {e}"),
            Error::WorkerPanicked { group, stream } => {
                write!(f, "scan worker panicked on group {group}, stream {stream}")
            }
            Error::StreamPoisoned => write!(
                f,
                "stream scanner poisoned by an earlier unrecovered failure; \
                 resume from its checkpoint to continue"
            ),
            Error::CarryCorrupted { group, error } => {
                write!(f, "stream carry state corrupted on group {group}: {error}")
            }
            Error::CheckpointInvalid { reason } => {
                write!(f, "invalid stream checkpoint: {reason}")
            }
            Error::CheckpointMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint {found:#018x} does not match engine {expected:#018x}"
            ),
            Error::GenerationMismatch { expected, found } => write!(
                f,
                "checkpoint is at rule-set generation {found}, engine is at {expected}; \
                 resume onto the engine for that generation"
            ),
            Error::SwapMismatch { reason } => {
                write!(f, "staged rule-set swap refused: {reason}")
            }
            Error::Overloaded { reason } => {
                write!(f, "service overloaded, request rejected: {reason}")
            }
            Error::Draining => write!(
                f,
                "service is draining: in-flight streams are being checkpointed \
                 for adoption; retry against the successor instance"
            ),
            Error::FrameTooLarge { limit, length } => write!(
                f,
                "wire frame too large: {length} bytes exceed the {limit}-byte bound"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Compile(e) => Some(e),
            Error::LimitExceeded(e) => Some(e),
            Error::Exec(e) => Some(e),
            Error::CarryCorrupted { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<CompileError> for Error {
    fn from(e: CompileError) -> Error {
        Error::Compile(e)
    }
}

impl From<LimitError> for Error {
    fn from(e: LimitError) -> Error {
        Error::LimitExceeded(e)
    }
}

impl From<ExecError> for Error {
    fn from(e: ExecError) -> Error {
        Error::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn wraps_and_displays_each_stage() {
        let e = crate::BitGen::compile(&["(bad"]).unwrap_err();
        assert!(matches!(e, Error::Compile(_)));
        assert!(e.to_string().contains("compile error"));
        assert!(e.source().is_some());

        let exec = Error::from(bitgen_exec::ExecError::Cancelled);
        assert!(exec.to_string().contains("execution error"));
        assert!(exec.source().is_some());
    }

    #[test]
    fn serving_lifecycle_errors_display_their_shape() {
        let draining = Error::Draining;
        assert!(draining.to_string().contains("draining"));
        assert!(draining.source().is_none());

        let frame = Error::FrameTooLarge { limit: 1024, length: 1025 };
        let text = frame.to_string();
        assert!(text.contains("1024") && text.contains("1025"), "{text}");
        assert!(frame.source().is_none());
    }
}
