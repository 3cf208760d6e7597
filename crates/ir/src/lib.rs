//! Bitstream-program IR for BitGen.
//!
//! The middle of the pipeline: regexes (from [`bitgen_regex`]) are lowered
//! into bitstream programs (the paper's Listing 2 grammar), which the
//! passes crate transforms and the kernel crate compiles for the simulated
//! GPU. This crate provides:
//!
//! - [`Program`] / [`Stmt`] / [`Op`]: the IR itself;
//! - [`ProgramBuilder`]: incremental construction;
//! - [`lower`] / [`lower_group`]: the Fig. 2 lowering rules;
//! - [`interpret`]: the whole-stream reference interpreter (the semantics
//!   every execution scheme must reproduce);
//! - [`walk`]: the one sequential machine behind it, generic over where
//!   streams live ([`StreamEnv`]) and who watches ([`Observer`]), and
//!   [`Frontiers`], the record of its loop checks;
//! - [`walk_window`]: the same machine over one CTA window, with each
//!   loop's trips there;
//! - [`ProgramStats`]: Table 1 instruction counts;
//! - [`DefUse`]: def/use analysis for the passes;
//! - [`SlotPlan`]: live-range slot assignment for sequential executors,
//!   through [`pack_spans`], the one live-range packer;
//! - [`pretty`]: Listing-3-style printing.
//!
//! # Examples
//!
//! ```
//! use bitgen_regex::parse;
//! use bitgen_ir::{lower, interpret};
//! use bitgen_bitstream::Basis;
//!
//! let prog = lower(&parse("(abc)|d").unwrap());
//! let r = interpret(&prog, &Basis::transpose(b"abcdabce"));
//! assert_eq!(r.match_ends(0), vec![2, 3, 6]); // Figure 3 of the paper
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
mod builder;
mod carry;
mod control;
mod fnv;
mod frontier;
mod interp;
mod limits;
mod lower;
mod machine;
mod pretty;
mod program;
mod slots;
mod stats;
mod verify;

pub use analysis::DefUse;
pub use builder::ProgramBuilder;
pub use carry::{BodyLayout, CarryError, CarryLayout, CarryState, CarryWalk};
pub use control::{CancelToken, Interrupt, RunControl};
pub use fnv::{fnv1a, ByteReader, FNV_OFFSET};
pub use frontier::{Check, Frontiers};
pub use interp::{
    interpret, try_interpret, try_interpret_chunk, walk_window, InterpError, InterpResult,
};
pub use limits::{CompileLimits, LimitError};
pub use lower::{
    lower, lower_group, lower_group_checked, lower_group_with, strip_nullable, LowerOptions,
};
pub use machine::{walk, ById, Observer, StreamEnv, Walked};
pub use pretty::{pretty, Listing};
pub use program::{Op, Program, Stmt, StreamId};
pub use slots::{pack_spans, Place, SlotPlan, UNTOUCHED_SPAN};
pub use stats::ProgramStats;
pub use verify::{verify, VerifyError};
// The class type of [`Op::MatchCc`], so IR consumers can name it.
pub use bitgen_regex::ByteSet;
