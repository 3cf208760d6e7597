//! Lowering regular expressions to bitstream programs (Fig. 2 of the paper).
//!
//! The lowering works in *cursor* semantics: a cursor stream holds a 1 at
//! position *i* when the next character of a candidate match is at *i*.
//! Matching a character class keeps the cursors sitting on a matching byte
//! and advances them one position (`(C & S_cc) >> 1`); concatenation is
//! composition; alternation is union; Kleene star is the Fig. 2e fixpoint
//! loop; bounded repetition is unrolled as in Fig. 2d.
//!
//! Matches are reported under all-match semantics. Because the initial
//! cursor stream is all-ones (a match may start anywhere), a nullable regex
//! would report a spurious zero-width "match" at every position; the
//! [`strip_nullable`] rewrite removes the empty match from the language
//! before lowering, so only matches that consumed at least one byte are
//! reported — the same convention as the validation oracle.

use crate::builder::ProgramBuilder;
use crate::limits::{CompileLimits, LimitError};
use crate::program::{Program, StreamId};
use bitgen_regex::{Ast, ClassHashing};
use std::borrow::Cow;
use std::collections::HashSet;

/// Options controlling the lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LowerOptions {
    /// Lower `C*` over a single character class with the Parabix
    /// `MatchStar` identity instead of a fixpoint loop:
    ///
    /// ```text
    /// MatchStar(M, C) = (((M ∧ C) + C) ⊕ C) ∨ M
    /// ```
    ///
    /// Four straight-line instructions (one long addition) replace a
    /// whole `while` loop — an icgrep technique the paper's substrate
    /// uses, kept optional here because the paper's own lowering
    /// (Fig. 2e) uses the loop. Carry chains are a cross-block
    /// dependency handled dynamically, like loop trips.
    pub match_star: bool,
    /// Lower the mandatory part of `C{n,m}` over a single class with
    /// O(log n) instructions by prefix-doubling run streams
    /// (`R_2k = R_k ∧ (R_k >> k)`), instead of the Fig. 2d linear
    /// unrolling. Off by default (the paper unrolls linearly).
    pub log_repetition: bool,
}

/// Lowers a group of regexes into one bitstream program.
///
/// This is the unit the paper assigns to one CTA: all character classes are
/// materialised up front (as in Listing 3), then each regex contributes its
/// matching instructions, and the program exposes one match-end output
/// stream per regex.
///
/// # Examples
///
/// ```
/// use bitgen_regex::parse;
/// use bitgen_ir::lower_group;
///
/// let asts = vec![parse("a(bc)*d").unwrap(), parse("cat").unwrap()];
/// let prog = lower_group(&asts);
/// assert_eq!(prog.outputs().len(), 2);
/// assert_eq!(prog.while_count(), 1);
/// ```
pub fn lower_group(asts: &[Ast]) -> Program {
    lower_group_with(asts, LowerOptions::default())
}

/// Lowers a group of regexes with explicit [`LowerOptions`].
pub fn lower_group_with(asts: &[Ast], options: LowerOptions) -> Program {
    lower_group_checked(asts, options, &CompileLimits::unbounded())
        .expect("unbounded compile limits can never be exceeded")
}

/// Lowers a group of regexes while enforcing [`CompileLimits`].
///
/// The checks abort *before* the over-budget work is performed — the node
/// budget is verified before the nullable rewrite runs (and charged as the
/// rewrite grows the tree), and the instruction budget is polled on every
/// recursion step — so compile time stays proportional to the limits, not
/// to the pathological input.
pub fn lower_group_checked(
    asts: &[Ast],
    options: LowerOptions,
    limits: &CompileLimits,
) -> Result<Program, LimitError> {
    let nodes: usize = asts.iter().map(Ast::node_count).sum();
    if nodes > limits.max_ast_nodes {
        return Err(LimitError::AstNodes { nodes, max: limits.max_ast_nodes });
    }
    // The nullable rewrite duplicates concat suffixes, so its output is
    // charged against the same node budget as the parse tree.
    let mut stripped = Vec::with_capacity(asts.len());
    for ast in asts {
        // A regex that cannot match empty is its own rewrite: borrowed,
        // where the rewrite would clone it (its nodes fit the budget).
        stripped.push(if ast.is_nullable() {
            let mut budget = limits.max_ast_nodes;
            strip_nullable_within(ast, &mut budget, limits.max_ast_nodes)?.map(Cow::Owned)
        } else {
            Some(Cow::Borrowed(ast))
        });
    }
    let mut distinct = HashSet::with_hasher(ClassHashing::default());
    for ast in stripped.iter().flatten() {
        ast.for_each_class(&mut |cc| {
            distinct.insert(*cc);
        });
    }
    if distinct.len() > limits.max_classes {
        return Err(LimitError::Classes { classes: distinct.len(), max: limits.max_classes });
    }
    let mut b = ProgramBuilder::new();
    // Hoist all character-class matches to the top of the program, exactly
    // as Listing 3 does — they are loop-invariant and shared.
    for ast in stripped.iter().flatten() {
        ast.for_each_class(&mut |cc| {
            b.match_cc(*cc);
        });
    }
    let init = b.ones();
    for ast in &stripped {
        match ast {
            Some(ast) => {
                let cursors = lower_node(&mut b, ast, init, options, limits)?;
                // A cursor at position p means the match consumed input[..p],
                // i.e. ended at byte p-1: retreat by one gives match ends.
                let ends = b.retreat(cursors, 1);
                b.mark_output(ends);
            }
            None => {
                // The regex matches nothing (it only matched the empty
                // string): its output stream is constantly zero.
                let z = b.zero();
                b.mark_output(z);
            }
        }
    }
    Ok(b.finish())
}

/// Lowers a single regex into a bitstream program with one output.
pub fn lower(ast: &Ast) -> Program {
    lower_group(std::slice::from_ref(ast))
}

/// Aborts the lowering once the instruction budget is spent.
///
/// Polled at every recursion step, so unrolled repetitions stop within one
/// body's worth of instructions of the cap.
fn check_ops(b: &ProgramBuilder, limits: &CompileLimits) -> Result<(), LimitError> {
    if b.ops_emitted() > limits.max_ir_ops {
        Err(LimitError::IrOps { ops: b.ops_emitted(), max: limits.max_ir_ops })
    } else {
        Ok(())
    }
}

/// Recursively lowers `ast`, advancing the cursor stream `cursors`.
///
/// Returns the stream of cursors after a successful match of `ast`.
fn lower_node(
    b: &mut ProgramBuilder,
    ast: &Ast,
    cursors: StreamId,
    opts: LowerOptions,
    limits: &CompileLimits,
) -> Result<StreamId, LimitError> {
    check_ops(b, limits)?;
    Ok(match ast {
        Ast::Empty => cursors,
        Ast::Class(cc) => {
            let s_cc = b.match_cc(*cc);
            let on_class = b.and(cursors, s_cc);
            b.advance(on_class, 1)
        }
        Ast::Concat(parts) => {
            let mut cur = cursors;
            for p in parts {
                cur = lower_node(b, p, cur, opts, limits)?;
            }
            cur
        }
        Ast::Alt(parts) => {
            let mut acc: Option<StreamId> = None;
            for p in parts {
                let r = lower_node(b, p, cursors, opts, limits)?;
                acc = Some(match acc {
                    None => r,
                    Some(a) => b.or(a, r),
                });
            }
            acc.unwrap_or(cursors)
        }
        Ast::Star(inner) => lower_star(b, inner, cursors, opts, limits)?,
        Ast::Plus(inner) => {
            let first = lower_node(b, inner, cursors, opts, limits)?;
            lower_star(b, inner, first, opts, limits)?
        }
        Ast::Opt(inner) => {
            let taken = lower_node(b, inner, cursors, opts, limits)?;
            b.or(cursors, taken)
        }
        Ast::Repeat { node, min, max } => {
            let mut cur = cursors;
            if opts.log_repetition && *min >= 4 {
                if let Ast::Class(cc) = &**node {
                    cur = lower_repeat_log(b, *cc, cur, *min);
                } else {
                    for _ in 0..*min {
                        cur = lower_node(b, node, cur, opts, limits)?;
                    }
                }
            } else {
                for _ in 0..*min {
                    cur = lower_node(b, node, cur, opts, limits)?;
                }
            }
            match max {
                None => lower_star(b, node, cur, opts, limits)?,
                Some(m) => {
                    // Fig. 2d: unroll the optional repetitions, OR-ing each
                    // intermediate cursor set into the result.
                    let mut acc = cur;
                    for _ in *min..*m {
                        cur = lower_node(b, node, cur, opts, limits)?;
                        acc = b.or(acc, cur);
                    }
                    acc
                }
            }
        }
    })
}

/// Kleene star: the Parabix `MatchStar` identity when the body is a single
/// character class (and the option is on), otherwise the Fig. 2e fixpoint
/// loop — all cursors reachable from `start` by zero or more passes
/// through `inner`.
fn lower_star(
    b: &mut ProgramBuilder,
    inner: &Ast,
    start: StreamId,
    opts: LowerOptions,
    limits: &CompileLimits,
) -> Result<StreamId, LimitError> {
    if opts.match_star {
        if let Ast::Class(cc) = inner {
            // MatchStar(M, C) = (((M & C) + C) ^ C) | M: a marker sitting
            // on a run of C generates a carry that ripples to the first
            // position past the run; XOR extracts every rippled-through
            // position, OR restores the zero-width case. With no marker on
            // a class byte in the block, `on + C = C` and the ripple is
            // exactly zero — so the carry scan (a barrier pair on the GPU)
            // is guarded the zero-block-skipping way.
            let c = b.match_cc(*cc);
            let on = b.and(start, c);
            let ripple = b.zero();
            b.if_block(on, |b| {
                let sum = b.add(on, c);
                let x = b.xor(sum, c);
                b.assign_to(ripple, x);
            });
            return Ok(b.or(ripple, start));
        }
    }
    let accum = b.assign_new(start);
    let frontier = b.assign_new(start);
    // The closure API cannot return early, so a budget trip inside the
    // loop body is parked and re-raised once the frame is closed.
    let mut over_budget = None;
    b.while_loop(frontier, |b| {
        match lower_node(b, inner, frontier, opts, limits) {
            Ok(stepped) => {
                let not_acc = b.not(accum);
                // Only genuinely new cursors continue; this is what
                // guarantees the fixpoint terminates.
                b.and_into(frontier, stepped, not_acc);
                b.or_into(accum, frontier);
            }
            Err(e) => over_budget = Some(e),
        }
    });
    match over_budget {
        Some(e) => Err(e),
        None => Ok(accum),
    }
}

/// Advances `cursors` through exactly `n` characters of class `cc` with
/// O(log n) instructions.
///
/// Builds run streams by prefix doubling — `R_k[j]` is set when the `k`
/// bytes ending at `j` all match `cc`, and `R_{a+b} = R_b ∧ (R_a >> b)` —
/// then combines the binary decomposition of `n`. The final cursors are
/// `(C >> n) ∧ (R_n >> 1)`.
fn lower_repeat_log(b: &mut ProgramBuilder, cc: bitgen_regex::ByteSet, cursors: StreamId, n: u32) -> StreamId {
    debug_assert!(n >= 1);
    let t = b.match_cc(cc);
    // Powers of two: R_1 = T, R_2, R_4, ... up to the highest bit of n.
    let mut powers: Vec<(u32, StreamId)> = vec![(1, t)];
    let mut k = 1;
    while k * 2 <= n {
        let (_, prev) = *powers.last().expect("at least R_1");
        let shifted = b.advance(prev, k);
        let doubled = b.and(prev, shifted);
        k *= 2;
        powers.push((k, doubled));
    }
    // Combine the set bits of n, lowest first.
    let mut acc: Option<(u32, StreamId)> = None;
    for &(p, r) in &powers {
        if n & p == 0 {
            continue;
        }
        acc = Some(match acc {
            None => (p, r),
            Some((len, a)) => {
                let shifted = b.advance(r, len);
                (len + p, b.and(a, shifted))
            }
        });
    }
    let (total, runs) = acc.expect("n >= 1 has at least one set bit");
    debug_assert_eq!(total, n);
    let moved = b.advance(cursors, n);
    let runs_at_cursor = b.advance(runs, 1);
    b.and(moved, runs_at_cursor)
}

/// Rewrites `ast` so its language no longer contains the empty string.
///
/// Returns `None` when the language becomes empty (the regex matched *only*
/// the empty string). The rewrite preserves all non-empty matches:
///
/// - `nonempty(R1 R2) = nonempty(R1) R2 | nonempty(R2)` (second branch only
///   when `R1` is nullable);
/// - `nonempty(R*) = nonempty(R) R*`;
/// - for nullable `R`, `R{n,m} ≡ R{0,m}`, so
///   `nonempty(R{n,m}) = nonempty(R) R{0,m-1}`.
pub fn strip_nullable(ast: &Ast) -> Option<Ast> {
    let mut budget = usize::MAX;
    strip_nullable_within(ast, &mut budget, usize::MAX)
        .expect("an unbounded node budget can never be exhausted")
}

/// Deducts `cost` nodes from the rewrite budget, aborting when spent.
fn charge(budget: &mut usize, cost: usize, max: usize) -> Result<(), LimitError> {
    if *budget < cost {
        // The rewrite stops before materialising the clone, so only a
        // lower bound on the final size is known.
        return Err(LimitError::AstNodes { nodes: max.saturating_add(1), max });
    }
    *budget -= cost;
    Ok(())
}

/// [`strip_nullable`] with every constructed node charged against `budget`.
///
/// The concat rule duplicates suffixes, so a nest of nullable concats can
/// grow multiplicatively; charging before each clone bounds both the
/// output size and the rewrite's own running time by `max`.
fn strip_nullable_within(
    ast: &Ast,
    budget: &mut usize,
    max: usize,
) -> Result<Option<Ast>, LimitError> {
    if !ast.is_nullable() {
        charge(budget, ast.node_count(), max)?;
        return Ok(Some(ast.clone()));
    }
    Ok(match ast {
        Ast::Empty => None,
        Ast::Class(_) => unreachable!("classes are never nullable"),
        Ast::Concat(parts) => {
            // Find non-empty variants where at least one part consumes.
            // nonempty(R1 R2 ... Rn) = Σ_i (R1..R_{i-1} nullable) ·
            //                              nonempty(R_i) · R_{i+1}..Rn
            // All prefixes here are nullable (the whole concat is), so the
            // prefix contributes nothing once stripped to its empty match.
            let mut branches = Vec::new();
            for (i, p) in parts.iter().enumerate() {
                if let Some(ne) = strip_nullable_within(p, budget, max)? {
                    let suffix: usize = parts[i + 1..].iter().map(Ast::node_count).sum();
                    charge(budget, suffix + 1, max)?;
                    let mut seq = vec![ne];
                    seq.extend(parts[i + 1..].iter().cloned());
                    branches.push(if seq.len() == 1 {
                        seq.pop().expect("one element")
                    } else {
                        Ast::Concat(seq)
                    });
                }
                // Parts before i must match empty, which nullability of the
                // whole concat guarantees they can.
            }
            match branches.len() {
                0 => None,
                1 => Some(branches.pop().expect("one element")),
                _ => Some(Ast::Alt(branches)),
            }
        }
        Ast::Alt(parts) => {
            let mut branches = Vec::new();
            for p in parts {
                if let Some(ne) = strip_nullable_within(p, budget, max)? {
                    branches.push(ne);
                }
            }
            match branches.len() {
                0 => None,
                1 => Some(branches.pop().expect("one element")),
                _ => Some(Ast::Alt(branches)),
            }
        }
        Ast::Star(inner) | Ast::Plus(inner) => match strip_nullable_within(inner, budget, max)? {
            None => None,
            Some(ne) => {
                charge(budget, inner.node_count() + 2, max)?;
                Some(Ast::Concat(vec![ne, Ast::Star(inner.clone())]))
            }
        },
        Ast::Opt(inner) => strip_nullable_within(inner, budget, max)?,
        Ast::Repeat { node, max: repeat_max, .. } => {
            // The whole repeat is nullable, so either min == 0 or node is
            // nullable; in both cases R{n,m} ≡ R{0,m}.
            match strip_nullable_within(node, budget, max)? {
                None => None,
                Some(ne) => match repeat_max {
                    None => {
                        charge(budget, node.node_count() + 2, max)?;
                        Some(Ast::Concat(vec![ne, Ast::Star(node.clone())]))
                    }
                    Some(m) if *m <= 1 => Some(ne),
                    Some(m) => {
                        charge(budget, node.node_count() + 2, max)?;
                        Some(Ast::Concat(vec![
                            ne,
                            Ast::Repeat { node: node.clone(), min: 0, max: Some(m - 1) },
                        ]))
                    }
                },
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitgen_regex::parse;

    #[test]
    fn listing3_shape() {
        // /a(bc)*d/ should produce 4 character classes and one while loop.
        let prog = lower(&parse("a(bc)*d").unwrap());
        assert_eq!(prog.classes().len(), 4);
        assert_eq!(prog.while_count(), 1);
        assert_eq!(prog.outputs().len(), 1);
    }

    #[test]
    fn literal_has_no_loops() {
        let prog = lower(&parse("cat").unwrap());
        assert_eq!(prog.while_count(), 0);
        // 3 MatchCc + ones + 3×(and+advance) + retreat = 11.
        assert_eq!(prog.op_count(), 11);
    }

    #[test]
    fn alternation_shares_classes() {
        let prog = lower(&parse("ab|ba").unwrap());
        // Only two distinct classes despite four leaves.
        assert_eq!(prog.classes().len(), 2);
    }

    #[test]
    fn strip_nullable_star() {
        let ast = parse("a*").unwrap();
        let ne = strip_nullable(&ast).unwrap();
        assert!(!ne.is_nullable());
        assert_eq!(ne, Ast::Concat(vec![
            Ast::literal(b"a"),
            Ast::Star(Box::new(Ast::literal(b"a"))),
        ]));
    }

    #[test]
    fn strip_nullable_concat() {
        let ast = parse("a?b?").unwrap();
        let ne = strip_nullable(&ast).unwrap();
        assert!(!ne.is_nullable());
        // Language must be {a, b, ab}: check via the oracle.
        use bitgen_regex::match_ends;
        assert_eq!(match_ends(&ne, b"ab"), vec![0, 1]);
        assert_eq!(match_ends(&ne, b"xy"), vec![]);
    }

    #[test]
    fn strip_nullable_empty_only() {
        assert_eq!(strip_nullable(&Ast::Empty), None);
        let opt_empty = Ast::Opt(Box::new(Ast::Empty));
        assert_eq!(strip_nullable(&opt_empty), None);
        let star_empty = Ast::Star(Box::new(Ast::Empty));
        assert_eq!(strip_nullable(&star_empty), None);
    }

    #[test]
    fn strip_nullable_preserves_non_nullable() {
        let ast = parse("ab+").unwrap();
        assert_eq!(strip_nullable(&ast), Some(ast));
    }

    #[test]
    fn strip_nullable_repeat() {
        let ast = parse("(?:ab){0,3}").unwrap();
        let ne = strip_nullable(&ast).unwrap();
        assert!(!ne.is_nullable());
        use bitgen_regex::match_ends;
        assert_eq!(match_ends(&ne, b"ababab"), vec![1, 3, 5]);
    }

    #[test]
    fn match_star_replaces_loops_for_class_stars() {
        let opts = LowerOptions { match_star: true, ..LowerOptions::default() };
        let asts = vec![parse("a[x-z]*b").unwrap()];
        let prog = lower_group_with(&asts, opts);
        assert_eq!(prog.while_count(), 0, "class star needs no loop:\n{}", crate::pretty(&prog));
        // Group stars still need the loop.
        let grouped = lower_group_with(&[parse("a(bc)*d").unwrap()], opts);
        assert_eq!(grouped.while_count(), 1);
    }

    #[test]
    fn match_star_agrees_with_loop_lowering() {
        use crate::interp::interpret;
        use bitgen_bitstream::Basis;
        for (pat, input) in [
            ("a[b-d]*e", &b"abcde ae axe abbbbe"[..]),
            ("x.*y", b"xy x123y\nxz y"),
            ("[0-9]*z", b"42z z 7z xz"),
            ("a[ab]*b", b"aab abab bb"),
            ("q[w]*", b"q qw qwww"),
        ] {
            let asts = vec![parse(pat).unwrap()];
            let with_loop = lower_group_with(&asts, LowerOptions { match_star: false, ..LowerOptions::default() });
            let with_add = lower_group_with(&asts, LowerOptions { match_star: true, ..LowerOptions::default() });
            let basis = Basis::transpose(input);
            assert_eq!(
                interpret(&with_add, &basis).outputs[0].positions(),
                interpret(&with_loop, &basis).outputs[0].positions(),
                "pattern {pat:?}"
            );
        }
    }

    #[test]
    fn log_repetition_agrees_with_linear() {
        use crate::interp::interpret;
        use bitgen_bitstream::Basis;
        for (pat, input) in [
            ("a{4}", &b"aaaaaa baaaa"[..]),
            ("a{5}b", b"aaaaab aaaab"),
            ("[0-9]{7}x", b"1234567x 123456x 12345678x"),
            ("a{6,8}", b"aaaaaaaaaa"),
            ("x[a-c]{12}y", b"xabcabcabcabcy xabcy"),
        ] {
            let asts = vec![parse(pat).unwrap()];
            let linear = lower_group_with(&asts, LowerOptions::default());
            let log = lower_group_with(
                &asts,
                LowerOptions { log_repetition: true, ..LowerOptions::default() },
            );
            let basis = Basis::transpose(input);
            assert_eq!(
                interpret(&log, &basis).outputs[0].positions(),
                interpret(&linear, &basis).outputs[0].positions(),
                "pattern {pat:?}"
            );
        }
    }

    #[test]
    fn log_repetition_shrinks_programs() {
        let asts = vec![parse("[a-f]{64}").unwrap()];
        let linear = lower_group_with(&asts, LowerOptions::default());
        let log = lower_group_with(
            &asts,
            LowerOptions { log_repetition: true, ..LowerOptions::default() },
        );
        assert!(
            log.op_count() * 4 < linear.op_count(),
            "O(log n): {} vs {}",
            log.op_count(),
            linear.op_count()
        );
    }

    #[test]
    fn match_star_handles_run_to_stream_end() {
        use crate::interp::interpret;
        use bitgen_bitstream::Basis;
        // The carry must stop exactly at the end-of-input sentinel.
        let asts = vec![parse("ba*").unwrap()];
        let prog = lower_group_with(&asts, LowerOptions { match_star: true, ..LowerOptions::default() });
        let basis = Basis::transpose(b"baaaa");
        assert_eq!(interpret(&prog, &basis).outputs[0].positions(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn group_lowering_outputs_per_regex() {
        let asts = vec![parse("ab").unwrap(), parse("b*").unwrap(), Ast::Empty];
        let prog = lower_group(&asts);
        assert_eq!(prog.outputs().len(), 3);
    }

    #[test]
    fn bounded_repeat_unrolls() {
        let p3 = lower(&parse("a{3}").unwrap());
        let p5 = lower(&parse("a{5}").unwrap());
        assert!(p5.op_count() > p3.op_count());
        assert_eq!(p3.while_count(), 0);
    }

    #[test]
    fn open_repeat_uses_loop() {
        let prog = lower(&parse("a{2,}").unwrap());
        assert_eq!(prog.while_count(), 1);
    }

    #[test]
    fn checked_lowering_matches_unchecked_under_unbounded_limits() {
        let asts = vec![parse("a(bc)*d").unwrap(), parse("x?y?z?").unwrap()];
        let unchecked = lower_group_with(&asts, LowerOptions::default());
        let checked =
            lower_group_checked(&asts, LowerOptions::default(), &CompileLimits::unbounded())
                .unwrap();
        assert_eq!(crate::pretty(&unchecked), crate::pretty(&checked));
    }

    #[test]
    fn node_budget_rejects_large_groups() {
        let limits = CompileLimits { max_ast_nodes: 8, ..CompileLimits::unbounded() };
        let asts = vec![parse("abcdefghijkl").unwrap()];
        let err = lower_group_checked(&asts, LowerOptions::default(), &limits).unwrap_err();
        assert!(matches!(err, LimitError::AstNodes { nodes: 13, max: 8 }));
    }

    #[test]
    fn node_budget_bounds_nullable_rewrite_growth() {
        // Nested nullable concats multiply under strip_nullable; the parse
        // tree itself stays small, so only the rewrite charge can trip.
        let pat = "(?:a?b?c?d?)(?:e?f?g?h?)(?:i?j?k?l?)(?:m?n?o?p?)";
        let ast = parse(pat).unwrap();
        let small = CompileLimits { max_ast_nodes: ast.node_count() + 8, ..CompileLimits::unbounded() };
        let err = lower_group_checked(
            std::slice::from_ref(&ast),
            LowerOptions::default(),
            &small,
        )
        .unwrap_err();
        assert!(matches!(err, LimitError::AstNodes { .. }));
    }

    #[test]
    fn class_budget_rejects_wide_groups() {
        let limits = CompileLimits { max_classes: 3, ..CompileLimits::unbounded() };
        let asts = vec![parse("abcd").unwrap()];
        let err = lower_group_checked(&asts, LowerOptions::default(), &limits).unwrap_err();
        assert!(matches!(err, LimitError::Classes { classes: 4, max: 3 }));
        // Repeated classes are deduplicated before the check.
        let ok = vec![parse("abcabcabc").unwrap()];
        assert!(lower_group_checked(&ok, LowerOptions::default(), &limits).is_ok());
    }

    #[test]
    fn ir_budget_stops_nested_repetition_blowup() {
        // ~60 AST nodes, ~40k instructions when unrolled: the op budget
        // must stop the unrolling long before it completes.
        let limits = CompileLimits { max_ir_ops: 500, ..CompileLimits::unbounded() };
        let asts = vec![parse("(?:(?:ab){100}){100}").unwrap()];
        let err = lower_group_checked(&asts, LowerOptions::default(), &limits).unwrap_err();
        match err {
            LimitError::IrOps { ops, max } => {
                assert_eq!(max, 500);
                // Aborted within one recursion step of the cap.
                assert!(ops <= 520, "kept emitting past the budget: {ops}");
            }
            other => panic!("expected IrOps, got {other:?}"),
        }
    }

    #[test]
    fn ir_budget_stops_fixpoint_loop_bodies() {
        let limits = CompileLimits { max_ir_ops: 50, ..CompileLimits::unbounded() };
        let asts = vec![parse("(?:(?:ab){40})*").unwrap()];
        let err = lower_group_checked(&asts, LowerOptions::default(), &limits).unwrap_err();
        assert!(matches!(err, LimitError::IrOps { .. }));
    }
}
