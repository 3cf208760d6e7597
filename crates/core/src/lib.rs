//! # BitGen-rs
//!
//! A from-scratch Rust reproduction of *Interleaved Bitstream Execution
//! for Multi-Pattern Regex Matching on GPUs* (MICRO 2025): a compiler
//! from regexes to bitstream programs, the three interleaved-execution
//! techniques of the paper (Dependency-Aware Thread-Data Mapping, Shift
//! Rebalancing, Zero Block Skipping), a SIMT GPU emulator with a device
//! cost model standing in for CUDA hardware, and the baseline engines the
//! paper compares against.
//!
//! This crate is the facade: compile a pattern set, scan inputs, get
//! matches plus modelled GPU performance.
//!
//! ```
//! use bitgen::BitGen;
//!
//! let engine = BitGen::compile(&["a(bc)*d", r"GET /[a-z]+"])?;
//! let report = engine.find(b"GET /index abcbcd")?;
//! // All-match semantics: every end of `GET /[a-z]+` is reported
//! // (positions 5..=9), plus the end of `a(bc)*d` at 16.
//! assert_eq!(report.matches.positions(), vec![5, 6, 7, 8, 9, 16]);
//! println!("modelled throughput: {:.1} MB/s", report.throughput_mbps());
//! # Ok::<(), bitgen::Error>(())
//! ```
//!
//! Scanning many inputs? Hold a [`ScanSession`]: it keeps its scratch
//! buffers across calls and shards the (group × stream) CTA grid over
//! host threads ([`EngineConfig::with_threads`]), with bit-identical
//! results at any thread count:
//!
//! ```
//! use bitgen::BitGen;
//!
//! let engine = BitGen::compile(&["cat", "dog"])?;
//! let mut session = engine.session();
//! let reports = session.scan_many(&[b"catalog".as_slice(), b"dogma"])?;
//! assert_eq!(reports[0].match_count(), 1);
//! assert_eq!(reports[1].match_count(), 1);
//! # Ok::<(), bitgen::Error>(())
//! ```
//!
//! The pipeline underneath, crate by crate:
//!
//! | stage | crate |
//! |---|---|
//! | regex parsing, byte classes, match oracle | [`bitgen_regex`] |
//! | bitstreams, transposition, class circuits | [`bitgen_bitstream`] |
//! | bitstream-program IR, lowering, interpreter | [`bitgen_ir`] |
//! | overlap analysis, shift rebalancing, zero-block skipping | [`bitgen_passes`] |
//! | kernel IR, barrier scheduling/merging, pseudo-CUDA | [`bitgen_kernel`] |
//! | SIMT CTA emulator, device cost model | [`bitgen_gpu`] |
//! | execution schemes (Seq/Base/DTM-/DTM/SR/ZBS) | [`bitgen_exec`] |
//! | ngAP-like, Hyperscan-like, icgrep-like baselines | [`bitgen_baselines`] |
//! | the ten synthetic evaluation applications | [`bitgen_workloads`] |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
mod error;
mod fold;
mod group;
mod price;
mod session;
mod stream_scan;
pub mod swap;

pub use engine::{BitGen, CompileError, EngineConfig, Match, RecoveryPolicy, ScanReport};
pub use error::Error;
pub use fold::fold_case;
pub use group::{group_regexes, GroupingStrategy};
pub use session::ScanSession;
pub use stream_scan::{RetryPolicy, StreamCheckpoint, StreamScanner};
pub use swap::StagedRules;

// Re-export the pieces users need to configure or extend the engine.
pub use bitgen_exec::{
    BatchPlan, ExecConfig, ExecError, ExecMetrics, FallbackPolicy, Metrics, PassMetrics,
    PreparedProgram, Scheme,
};
pub use bitgen_gpu::{CostBreakdown, DeviceConfig, FaultKind, FaultPlan};
pub use bitgen_ir::{CancelToken, CompileLimits, LimitError, RunControl};
pub use bitgen_regex::{parse, Ast, ByteSet, ParseError};
