//! Whole-stream reference interpreter for bitstream programs.
//!
//! Executes a [`Program`] one instruction at a time over full-length
//! [`BitStream`]s — the semantics every GPU execution scheme must agree
//! with: the sequential machine of [`crate::walk`] with one buffer per
//! stream id and an observer that only counts each loop's trips.
//! [`walk_window`] runs it over one CTA window, whose trips are what the
//! dynamic overlap analysis reads.

use crate::carry::{CarryLayout, CarryState, CarryWalk};
use crate::control::{Interrupt, RunControl};
use crate::machine::{walk_over, ById, Observer, StreamEnv};
use crate::program::{Program, Stmt, StreamId};
use bitgen_bitstream::{Basis, BitStream};
use std::fmt;
use std::ops::Range;

/// Result of interpreting a program.
#[derive(Debug, Clone)]
pub struct InterpResult {
    /// One match-end stream per program output (per regex in the group).
    pub outputs: Vec<BitStream>,
    /// Per site ([`Stmt::site_count`]'s numbering), the trips its `while`
    /// took: the checks whose condition had a bit (an `Add`'s site stays 0).
    pub trips: Vec<u64>,
}

impl InterpResult {
    /// The union of all output streams: positions where *any* regex of the
    /// group matches.
    pub fn union(&self) -> BitStream {
        let len = self.outputs.first().map_or(0, BitStream::len);
        let mut acc = BitStream::zeros(len);
        for s in &self.outputs {
            acc.or_assign(s);
        }
        acc
    }

    /// Match-end byte positions of output `i`, ascending.
    pub fn match_ends(&self, i: usize) -> Vec<usize> {
        self.outputs[i].positions()
    }
}

/// Interprets `program` over the transposed `input`.
///
/// All streams have length `input.len() + 1` (see
/// [`Program::stream_len`]); the returned match-end streams only ever set
/// bits below `input.len()`.
///
/// # Examples
///
/// ```
/// use bitgen_regex::parse;
/// use bitgen_ir::{lower, interpret};
/// use bitgen_bitstream::Basis;
///
/// let prog = lower(&parse("a(bc)*d").unwrap());
/// let basis = Basis::transpose(b"xabcbcd");
/// let result = interpret(&prog, &basis);
/// assert_eq!(result.match_ends(0), vec![6]);
/// ```
pub fn interpret(program: &Program, basis: &Basis) -> InterpResult {
    match try_interpret(program, basis, &RunControl::unlimited()) {
        Ok(r) => r,
        Err(InterpError::UnwrittenStream { id }) => panic!("read of unwritten stream {id}"),
        Err(InterpError::FixpointDiverged) => panic!("while loop exceeded its fixpoint bound"),
        // Unreachable: an unlimited RunControl never interrupts.
        Err(e) => panic!("uncontrolled interpretation stopped: {e}"),
    }
}

/// Why [`try_interpret`] stopped without a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterpError {
    /// The run's [`CancelToken`](crate::CancelToken) was triggered.
    Cancelled,
    /// The run's deadline passed.
    DeadlineExceeded,
    /// The program read a stream before writing it — a malformed program
    /// that [`verify`](crate::verify) would reject.
    UnwrittenStream {
        /// The stream that was read while undefined.
        id: StreamId,
    },
    /// A `while` loop ran past the fixpoint bound (`stream_len + 2`
    /// trips) — only possible for a miscompiled or corrupted program.
    FixpointDiverged,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::Cancelled => write!(f, "interpretation cancelled"),
            InterpError::DeadlineExceeded => write!(f, "interpretation deadline exceeded"),
            InterpError::UnwrittenStream { id } => write!(f, "read of unwritten stream {id}"),
            InterpError::FixpointDiverged => {
                write!(f, "while loop exceeded its fixpoint bound")
            }
        }
    }
}

impl std::error::Error for InterpError {}

impl From<Interrupt> for InterpError {
    fn from(i: Interrupt) -> InterpError {
        match i {
            Interrupt::Cancelled => InterpError::Cancelled,
            Interrupt::DeadlineExceeded => InterpError::DeadlineExceeded,
        }
    }
}

/// [`interpret`] with typed errors and cooperative interruption.
///
/// `ctl` is polled once per executed statement.
pub fn try_interpret(
    program: &Program,
    basis: &Basis,
    ctl: &RunControl,
) -> Result<InterpResult, InterpError> {
    run_env(program, basis, Program::stream_len(basis.len()), ctl, None)
}

/// Interprets one streaming window of `program` with cross-chunk carries.
///
/// `basis` is the transposition of a single chunk; all streams span
/// `chunk.len() + 1` positions, the last being a provisional *peek*
/// position whose class bits are unknown (zero). Shift and add carries
/// are read from and accumulated into `carry`
/// (see [`CarryState::for_program`]); the caller must
/// [`rotate`](CarryState::rotate) the state between consecutive windows.
///
/// Only output bits below `chunk.len()` are final for this window — the
/// peek position is recomputed as position 0 of the next window, and the
/// final window's peek coincides with the batch sentinel, so streaming a
/// whole input chunk by chunk reproduces batch interpretation bit for bit
/// with no flush step. While-loops run to a *local* fixpoint per window;
/// bodies whose condition is locally empty still execute once when a
/// carry slot inside them is pending.
///
/// # Examples
///
/// ```
/// use bitgen_regex::parse;
/// use bitgen_ir::{lower, try_interpret_chunk, CarryState, RunControl};
/// use bitgen_bitstream::Basis;
///
/// let prog = lower(&parse("a+b").unwrap()); // unbounded: fine to stream
/// let mut carry = CarryState::for_program(&prog);
/// let mut ends = Vec::new();
/// let mut off = 0;
/// for chunk in [&b"xa"[..], b"aa", b"b."] {
///     let r = try_interpret_chunk(&prog, &Basis::transpose(chunk),
///                                 &RunControl::unlimited(), &mut carry)?;
///     ends.extend(r.union().positions().into_iter()
///         .filter(|&p| p < chunk.len()).map(|p| off + p));
///     carry.rotate();
///     off += chunk.len();
/// }
/// assert_eq!(ends, vec![4]); // the `b` of "xaaab."
/// # Ok::<(), bitgen_ir::InterpError>(())
/// ```
pub fn try_interpret_chunk(
    program: &Program,
    basis: &Basis,
    ctl: &RunControl,
    carry: &mut CarryState,
) -> Result<InterpResult, InterpError> {
    let layout = CarryLayout::of(program);
    let len = Program::stream_len(basis.len());
    run_env(program, basis, len, ctl, Some(CarryWalk::new(carry, &layout)))
}

/// One CTA window of `program`: the program run over the stream positions
/// `extent` of `basis`'s input, as a window of Dependency-Aware
/// Thread-Data Mapping computes them (DESIGN.md §10, "Sequential
/// semantics"). Every stream spans exactly the extent, with no sentinel
/// position, so `Not`, `Ones` and every loop condition cover all of it; a
/// position outside `0..basis.len()` holds the byte `0x00`, so a class
/// that matches it fires there. Output `i`'s bit `j` is position
/// `extent.start + j`, and [`InterpResult::trips`] are the window's.
///
/// # Errors
///
/// A read of a stream nothing wrote, or a `while` loop past its fixpoint
/// bound.
pub fn walk_window(
    program: &Program,
    basis: &Basis,
    extent: Range<i64>,
) -> Result<InterpResult, InterpError> {
    let byte = |at: i64| {
        let inside = usize::try_from(at).ok().filter(|&at| at < basis.len());
        let bit = |at, k: usize| u8::from(basis.stream(k).get(at)) << (7 - k);
        inside.map_or(0, |at| (0..8).fold(0, |byte, k| byte | bit(at, k)))
    };
    let window = Basis::transpose(&extent.map(byte).collect::<Vec<u8>>());
    run_env(program, &window, window.len(), &RunControl::unlimited(), None)
}

/// Counts, per site, the `while` checks whose condition has a bit: the
/// trips taken, as a CTA window counts them.
struct Trips(Vec<u64>);

impl Observer for Trips {
    fn loop_check(&mut self, site: usize, cond: &BitStream) {
        self.0[site] += u64::from(cond.any());
    }
}

/// `program` walked over `basis` with streams of `len` positions, in a
/// by-id environment.
fn run_env(
    program: &Program,
    basis: &Basis,
    len: usize,
    ctl: &RunControl,
    carry: Option<CarryWalk<'_>>,
) -> Result<InterpResult, InterpError> {
    let mut env = ById::default();
    env.reset(program.num_streams() as usize);
    let mut trips = Trips(vec![0; Stmt::site_count(program.stmts())]);
    walk_over(program.stmts(), &mut env, &mut trips, basis, len, ctl, carry)?;
    let output = |&id| env.get(id).cloned().ok_or(InterpError::UnwrittenStream { id });
    let outputs = program.outputs().iter().map(output).collect::<Result<_, _>>()?;
    Ok(InterpResult { outputs, trips: trips.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower, lower_group};
    use bitgen_regex::{match_ends, multi_match_ends, parse};

    fn run(pattern: &str, input: &[u8]) -> Vec<usize> {
        let prog = lower(&parse(pattern).unwrap());
        interpret(&prog, &Basis::transpose(input)).match_ends(0)
    }

    fn assert_agrees(pattern: &str, input: &[u8]) {
        let oracle = match_ends(&parse(pattern).unwrap(), input);
        let got = run(pattern, input);
        assert_eq!(got, oracle, "pattern {pattern:?} on {:?}", String::from_utf8_lossy(input));
    }

    #[test]
    fn paper_cat() {
        assert_eq!(run("cat", b"bobcat"), vec![5]);
    }

    #[test]
    fn paper_figure3() {
        assert_eq!(run("(abc)|d", b"abcdabce"), vec![2, 3, 6]);
    }

    #[test]
    fn paper_listing3() {
        assert_eq!(run("a(bc)*d", b"ad"), vec![1]);
        assert_eq!(run("a(bc)*d", b"abcbcd"), vec![5]);
        assert_eq!(run("a(bc)*d", b"abcbc"), vec![]);
    }

    #[test]
    fn agrees_with_oracle_on_basics() {
        for (pat, input) in [
            ("a+", &b"xaaax"[..]),
            ("a*", b"baab"),
            ("ab|bc", b"abcabc"),
            ("a?b", b"ab_b_cb"),
            ("a{2,3}", b"aaaaa"),
            ("a{2,}", b"aaaa"),
            ("[a-c]+[0-9]", b"abc9 x1 c2"),
            (".a.", b"xaxya\n a"),
            ("(a|bb)*c", b"abbac bbc c"),
            ("a(bc)*d", b"adxabcd.abcbcbcd"),
        ] {
            assert_agrees(pat, input);
        }
    }

    #[test]
    fn match_at_final_byte_survives() {
        assert_agrees("ab", b"xxab");
        assert_agrees("a+", b"xxaa");
    }

    #[test]
    fn empty_input() {
        assert_eq!(run("a+", b""), vec![]);
    }

    #[test]
    fn group_outputs_are_independent() {
        let asts = vec![parse("ab").unwrap(), parse("bc").unwrap()];
        let prog = lower_group(&asts);
        let r = interpret(&prog, &Basis::transpose(b"abcabc"));
        assert_eq!(r.match_ends(0), vec![1, 4]);
        assert_eq!(r.match_ends(1), vec![2, 5]);
        assert_eq!(r.union().positions(), multi_match_ends(&asts, b"abcabc"));
    }

    #[test]
    fn a_window_counts_each_loops_trips_over_its_own_extent() {
        let prog = lower(&parse("a(bc)*d").unwrap());
        let basis = Basis::transpose(b"abcbcbcd abcd");
        let whole = walk_window(&prog, &basis, 0..64).unwrap();
        let interpreted = interpret(&prog, &basis);
        assert_eq!(whole.match_ends(0), interpreted.match_ends(0));
        assert_eq!(whole.trips, interpreted.trips);
        // Every frontier moves at once: three (bc) passes from the first
        // `a`, the second's one pass among them, then an empty check.
        assert_eq!(whole.trips, vec![4]);
        // A window from position 3 never sees the first `a`: one pass.
        let right = walk_window(&prog, &basis, 3..67).unwrap();
        assert_eq!(right.match_ends(0), vec![12 - 3]);
        assert_eq!(right.trips, vec![2]);
    }

    #[test]
    fn a_window_reads_the_byte_zero_outside_the_input() {
        // `[^a]` matches 0x00: left of position 0 and from the input's
        // end on, the sentinel position included, it fires; a match at the
        // window's last position is advanced past its end and lost.
        let prog = lower(&parse("[^a]").unwrap());
        let basis = Basis::transpose(b"aaxa");
        let r = walk_window(&prog, &basis, -4..8).unwrap();
        assert_eq!(r.outputs[0].len(), 12);
        assert_eq!(r.match_ends(0), vec![0, 1, 2, 3, 6, 8, 9, 10]);
        assert_eq!(interpret(&prog, &basis).match_ends(0), vec![2]);
    }

    #[test]
    #[should_panic(expected = "unwritten stream")]
    fn reading_unwritten_stream_panics() {
        use crate::program::{Program, Stmt, Op, StreamId};
        let prog = Program::new(
            vec![Stmt::Op(Op::Not { dst: StreamId(1), src: StreamId(0) })],
            2,
            vec![StreamId(1)],
        );
        interpret(&prog, &Basis::transpose(b"x"));
    }

    #[test]
    fn try_interpret_reports_unwritten_stream() {
        use crate::program::{Program, Stmt, Op, StreamId};
        let prog = Program::new(
            vec![Stmt::Op(Op::Not { dst: StreamId(1), src: StreamId(0) })],
            2,
            vec![StreamId(1)],
        );
        let err = try_interpret(&prog, &Basis::transpose(b"x"), &RunControl::unlimited())
            .unwrap_err();
        assert_eq!(err, InterpError::UnwrittenStream { id: StreamId(0) });
    }

    fn chunked_union(prog: &crate::program::Program, input: &[u8], sizes: &[usize]) -> Vec<usize> {
        let mut carry = CarryState::for_program(prog);
        let mut ends = Vec::new();
        let mut off = 0usize;
        let mut rest = input;
        let mut i = 0usize;
        while !rest.is_empty() {
            let take = sizes[i % sizes.len()].min(rest.len());
            i += 1;
            if take == 0 {
                continue;
            }
            let (chunk, tail) = rest.split_at(take);
            rest = tail;
            let r = try_interpret_chunk(
                prog,
                &Basis::transpose(chunk),
                &RunControl::unlimited(),
                &mut carry,
            )
            .unwrap();
            ends.extend(
                r.union().positions().into_iter().filter(|&p| p < chunk.len()).map(|p| off + p),
            );
            carry.rotate();
            off += chunk.len();
        }
        ends
    }

    #[test]
    fn chunked_interpretation_matches_batch() {
        for (pat, input) in [
            ("a+b", &b"xaaab aab b ab"[..]),
            ("a(bc)*d", b"adxabcd.abcbcbcd"),
            ("a{2,}", b"aaaa a aaa"),
            ("(a|bb)*c", b"abbac bbc c"),
            (".a.", b"xaxya\n a"),
            ("ab", b"xxab"),
            ("[a-c]+[0-9]", b"abc9 x1 c2"),
        ] {
            let prog = lower(&parse(pat).unwrap());
            let batch = interpret(&prog, &Basis::transpose(input)).union().positions();
            for sizes in [&[1usize][..], &[2], &[3], &[5, 1], &[7, 2], &[64], &[100]] {
                let got = chunked_union(&prog, input, sizes);
                assert_eq!(got, batch, "pattern {pat:?} chunk sizes {sizes:?}");
            }
        }
    }

    #[test]
    fn chunked_match_star_carries_additions() {
        use crate::lower::{lower_group_with, LowerOptions};
        let opts = LowerOptions { match_star: true, ..LowerOptions::default() };
        // Flat class stars, then nested ones: an addition inside a
        // fixpoint loop carries across the seam like any advance there.
        for (pat, input) in [
            ("a*b", &b"baaab aab"[..]),
            ("x[ab]*y", b"xy xabay xaaaaay"),
            ("(a[bc]*d)*e", b"abcdade e abbd acbcdabde abxde"),
            ("(x[ab]*)*y", b"xxabxy y xaxbby xqy"),
            ("((ab)*[cd]*)*e", b"abcdabde e ababccdde abae"),
            ("(.*a)*b", b"xaab b qqab\nab aaxb"),
        ] {
            let prog = lower_group_with(&[parse(pat).unwrap()], opts);
            assert_eq!(prog.while_count() > 0, pat.starts_with('('), "{pat:?}");
            let batch = interpret(&prog, &Basis::transpose(input)).union().positions();
            for sizes in [&[1usize][..], &[2], &[3, 1], &[5], &[7]] {
                assert_eq!(
                    chunked_union(&prog, input, sizes),
                    batch,
                    "pattern {pat:?} chunk sizes {sizes:?}"
                );
            }
        }
    }

    #[test]
    fn single_chunk_equals_batch_interpretation() {
        let prog = lower(&parse("a(bc)*d").unwrap());
        let input = b"abcbcd ad";
        let batch = interpret(&prog, &Basis::transpose(input));
        let mut carry = CarryState::for_program(&prog);
        let chunked = try_interpret_chunk(
            &prog,
            &Basis::transpose(input),
            &RunControl::unlimited(),
            &mut carry,
        )
        .unwrap();
        assert_eq!(chunked.outputs, batch.outputs);
    }

    #[test]
    fn try_interpret_honours_cancellation() {
        use crate::control::CancelToken;
        let prog = lower(&parse("a(bc)*d").unwrap());
        let basis = Basis::transpose(b"abcbcbcd");
        let token = CancelToken::new();
        token.cancel();
        let ctl = RunControl::unlimited().with_cancel(token);
        assert_eq!(try_interpret(&prog, &basis, &ctl).unwrap_err(), InterpError::Cancelled);
    }

    #[test]
    fn try_interpret_honours_deadlines() {
        use std::time::{Duration, Instant};
        let prog = lower(&parse("a(bc)*d").unwrap());
        let basis = Basis::transpose(b"abcbcbcd");
        let expired = RunControl::unlimited().with_deadline(Instant::now() - Duration::from_secs(1));
        assert_eq!(
            try_interpret(&prog, &basis, &expired).unwrap_err(),
            InterpError::DeadlineExceeded
        );
        // A generous deadline changes nothing.
        let lax = RunControl::unlimited().deadline_in(Duration::from_secs(3600));
        let r = try_interpret(&prog, &basis, &lax).unwrap();
        assert_eq!(r.outputs[0].positions(), interpret(&prog, &basis).outputs[0].positions());
    }
}
