//! Regex front end for the BitGen bitstream compiler.
//!
//! This crate owns the regex grammar of the paper's Listing 1: character
//! classes, concatenation, alternation, Kleene star, and bounded repetition.
//! It provides:
//!
//! - [`ByteSet`]: 256-bit byte classes, the normal form of every character
//!   class after parsing;
//! - [`Ast`]: the parsed regex tree, with structural queries used by
//!   lowering, grouping, and the baseline engines;
//! - [`parse`] / [`parse_bytes`]: a recursive-descent parser;
//! - [`match_ends`] / [`multi_match_ends`]: a slow set-based all-match
//!   oracle that every engine in the workspace is validated against.
//!
//! # Examples
//!
//! ```
//! use bitgen_regex::{parse, match_ends};
//!
//! let ast = parse("a(bc)*d")?;
//! assert_eq!(match_ends(&ast, b"xabcbcd"), vec![6]);
//! # Ok::<(), bitgen_regex::ParseError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ast;
mod class;
mod optimize;
mod oracle;
mod parser;

pub use ast::Ast;
pub use class::{ByteSet, Bytes, ClassHasher, ClassHashing};
pub use optimize::{optimize, optimize_owned};
pub use oracle::{match_ends, multi_match_ends};
pub use parser::{parse, parse_bytes, ParseError, ParseErrorKind, MAX_REPEAT};
