//! Baseline engines the paper compares BitGen against, rebuilt from
//! scratch:
//!
//! - [`Glushkov`] / [`MultiNfa`]: position automata and their multi-regex
//!   one-byte-at-a-time simulation (the substrate shared by the automata
//!   baselines);
//! - [`run_gpu_nfa`]: the ngAP-style GPU NFA baseline — a *measured*
//!   NFA run priced by a latency/bandwidth model on the simulated device;
//! - [`AhoCorasick`]: multi-string matching;
//! - [`HybridEngine`] / [`HybridMt`]: the Hyperscan-like hybrid CPU
//!   engine — literal routing, factor prefiltering, NFA confirmation —
//!   single- and multi-threaded;
//! - [`CpuBitstreamEngine`]: the icgrep-like CPU bitstream interpreter;
//! - [`DfaEngine`]: an RE2-style lazy DFA with a capped state cache.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod aho;
mod cpu_bitstream;
mod dfa;
mod glushkov;
mod gpu_nfa;
mod hybrid;
mod nfa;

pub use aho::{AcMatch, AhoCorasick};
pub use cpu_bitstream::CpuBitstreamEngine;
pub use dfa::{DfaEngine, DfaRun, DfaStats, DEFAULT_MAX_STATES};
pub use glushkov::{normalize, Glushkov, PosId};
pub use gpu_nfa::{run_gpu_nfa, GpuNfaModel, GpuNfaReport};
pub use hybrid::{plan_regex, HybridBuildStats, HybridEngine, HybridMt, Plan};
pub use nfa::{MultiNfa, NfaRun, NfaStats};
