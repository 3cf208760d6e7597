//! Execution schemes for bitstream programs on the simulated GPU.
//!
//! This crate turns the compiler stack into running engines. It owns the
//! Table 3 ablation ladder ([`Scheme`]): sequential execution, partial
//! fusion ("Base"), static dependency-aware mapping ("DTM-"), fully
//! interleaved execution with dynamic overlap ("DTM"), shift-rebalanced
//! execution ("SR"), and full BitGen with zero-block skipping ("ZBS").
//!
//! Programs are cut into *segments* ([`segment_program`]); fused segments
//! run block-by-block on overlapping windows whose extents come from the
//! overlap analysis, with runtime trip-count checks, enlarge-and-retry,
//! and a sequential fallback for chains that outrun the window (§8.2).
//!
//! [`execute`] is the entry point; [`ExecMetrics`] carries everything the
//! paper's Tables 4–6 report. Engines keep one [`PreparedProgram`] (for
//! streaming windows) and one [`BatchPlan`] (the transformed program, its
//! segments and compiled kernels, for batch scans) per group, each owning
//! its program, so neither re-derives anything.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod blit;
mod engine;
mod metrics;
mod prepared;
mod scheme;
mod segment;
mod seq;

pub use blit::blit_or;
pub use engine::{
    apply_transforms, execute, execute_prepared_with, ExecConfig, ExecError, ExecOutcome,
    ExecScratch, FallbackPolicy,
};
pub use bitgen_passes::PassMetrics;
pub use metrics::{ExecMetrics, Metrics};
pub use prepared::{BatchPlan, ClassStreams, PreparedProgram};
pub use scheme::Scheme;
// Convenience re-exports so executor callers can drive cancellation and
// fault drills without importing the defining crates.
pub use bitgen_gpu::{FaultKind, FaultPlan};
pub use bitgen_ir::{CancelToken, RunControl};
pub use segment::{intermediate_count, segment_program, segment_ranges, Segment, SegmentKind};
pub use seq::sequential_charge;
