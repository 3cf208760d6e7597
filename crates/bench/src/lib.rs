//! Shared harness for regenerating the paper's tables and figures on
//! the modelled clock. One binary drives it: `repro`. (The host clock,
//! and the tracked `results/BENCH_<rev>.json` trajectory, belong to the
//! standalone `benchmark/` package.)

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;
pub mod table;

pub use harness::{
    geomean, measure, prepare, run_bitgen, run_cpu_bitstream, run_hybrid_mt, run_hybrid_st,
    run_ngap, timed, AppRun, EngineResult, HarnessConfig,
};
pub use table::Table;
