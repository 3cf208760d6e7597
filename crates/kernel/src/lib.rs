//! Kernel IR and code generation for BitGen's simulated GPU.
//!
//! Bitstream programs (after the `bitgen-passes` transforms) are compiled
//! here into the [`Kernel`] IR — the per-CTA device function the paper
//! generates as CUDA. Compilation performs the paper's §5.3: every shift
//! becomes a shared-memory store / barrier / shifted read / barrier
//! sequence, and a greedy scheduler merges shifts into groups that share
//! one barrier pair (bounded by the *merge size* parameter), storing each
//! distinct source only once.
//!
//! [`emit_cuda`] renders the kernel as pseudo-CUDA for inspection; the
//! `bitgen-gpu` crate executes the IR directly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod codegen;
mod emit;
mod kir;

pub use codegen::{compile, CodegenOptions, CodegenStats, Compiled, Compiler};
pub use emit::emit_cuda;
pub use kir::{KOp, KStmt, Kernel, LoopCounts, Reg, SiteCounts, Slot, WindowCounts, WORD_BITS};
// The one live-range packer, for the emulator's register rows.
pub use bitgen_ir::{pack_spans, UNTOUCHED_SPAN};
