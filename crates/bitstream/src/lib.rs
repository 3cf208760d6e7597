//! Bitstream substrate for BitGen: unbounded bitstreams, input
//! transposition, and the character-class compiler.
//!
//! This crate is the data plane of the paper's Section 2. It provides:
//!
//! - [`BitStream`]: `u64`-backed bit sequences with the marker operations
//!   the bitstream programs use ([`BitStream::advance`] is the paper's
//!   `>>`, [`BitStream::retreat`] its `<<`);
//! - [`Basis`]: the eight transposed basis bitstreams of the input;
//! - [`compile_class`] / [`CcExpr`]: compilation of byte classes into
//!   boolean circuits over the basis bits (Fig. 2a).
//!
//! # Examples
//!
//! Matching the character class `[a-z]` over an input, the Fig. 2a way:
//!
//! ```
//! use bitgen_bitstream::{Basis, compile_class};
//! use bitgen_regex::ByteSet;
//!
//! let basis = Basis::transpose(b"Hello, world");
//! let s_cc = compile_class(&ByteSet::range(b'a', b'z')).eval(&basis);
//! assert_eq!(s_cc.count_ones(), 9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ccc;
mod stream;
mod transpose;
mod wide;

pub use ccc::{build_class, class_gate_count, compile_class, CcExpr, ClassCircuit, GateSink};
pub use stream::BitStream;
pub use wide::FusedStage;
pub use transpose::{Basis, BASIS_COUNT};
