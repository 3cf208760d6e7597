//! Simulated GPU for BitGen: a SIMT CTA emulator plus a device cost model.
//!
//! The paper runs generated CUDA on real GPUs; this crate substitutes
//! both layers. [`Cta`] executes the kernel IR word-for-word with T
//! lock-step threads, shared-memory slots and *checked* barrier semantics
//! (a missing barrier is a [`RaceError`], not silent corruption), while
//! counting the events Nsight would report ([`CtaCounters`]).
//! [`DeviceConfig`] prices those events for the paper's three GPUs
//! (RTX 3090 / H100 NVL / L40S) and schedules CTAs across SMs, yielding
//! seconds and MB/s.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cost;
mod counters;
mod cta;
mod device;
mod fault;
mod report;

pub use cost::{throughput_mbps, CostBreakdown, CtaWork};
pub use counters::CtaCounters;
pub use cta::{gather_word, Cta, CtaFiles, KernelFacts, RaceError, WindowInputs};
pub use device::DeviceConfig;
pub use fault::{FaultKind, FaultPlan};
pub use report::profile_report;
