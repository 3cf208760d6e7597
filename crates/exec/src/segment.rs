//! Fusion segmentation: cutting a program into blockwise-executable
//! segments according to the execution scheme.
//!
//! A *segment* is run to completion over the whole input before the next
//! segment starts; streams crossing segment boundaries are materialised in
//! simulated global memory. The number of segments and boundary streams is
//! exactly what Table 4 reports as `#Loop` and `#Intermediate Bitstream`.
//!
//! Segmentation decides *what* runs together, not how the host walks
//! the words: the loops that execute the resulting segments
//! (`Sequential` bodies and the window stores/blits of `Fused` ones) all
//! bottom out in the word-group kernels of `bitgen-bitstream`.

use crate::scheme::Scheme;
use bitgen_ir::{Op, Program, Stmt, StreamId};
use std::ops::Range;

/// How a segment is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Compiled to one kernel; all its instructions run interleaved,
    /// block by block, with overlap recomputation.
    Fused,
    /// Executed one instruction at a time over the full stream (the
    /// Fig. 1a/5 style), used for `while` loops that static analysis
    /// cannot bound and for the strawman schemes.
    Sequential,
}

/// A segment of a program.
#[derive(Debug, Clone)]
pub struct Segment<S = Vec<Stmt>> {
    /// Execution style.
    pub kind: SegmentKind,
    /// The statements of this segment (whole subtrees) — or, from
    /// [`segment_ranges`], their range of the program's top-level
    /// statements.
    pub stmts: S,
    /// Streams read by this segment but produced by an earlier one;
    /// loaded from global memory.
    pub inputs: Vec<StreamId>,
    /// Streams produced here and needed later (or program outputs);
    /// stored to global memory.
    pub outputs: Vec<StreamId>,
}

/// Splits `program` into segments for `scheme` and wires up the boundary
/// streams.
///
/// # Examples
///
/// ```
/// use bitgen_regex::parse;
/// use bitgen_ir::lower;
/// use bitgen_exec::{segment_program, Scheme};
///
/// let prog = lower(&parse("a(bc)*d").unwrap());
/// assert_eq!(segment_program(&prog, Scheme::Dtm).len(), 1);
/// assert!(segment_program(&prog, Scheme::Sequential).len() > 1);
/// ```
pub fn segment_program(program: &Program, scheme: Scheme) -> Vec<Segment> {
    let stmts = program.stmts();
    (segment_ranges(program, scheme).into_iter())
        .map(|Segment { kind, stmts: range, inputs, outputs }| Segment {
            kind,
            stmts: stmts[range].to_vec(),
            inputs,
            outputs,
        })
        .collect()
}

/// [`segment_program`] without copying a statement: each segment names
/// its consecutive range of `program.stmts()`.
pub fn segment_ranges(program: &Program, scheme: Scheme) -> Vec<Segment<Range<usize>>> {
    wire(cut(program.stmts(), scheme), program)
}

/// Raw cut: consecutive ranges of whole top-level statements plus their
/// kind.
fn cut(stmts: &[Stmt], scheme: Scheme) -> Vec<(SegmentKind, Range<usize>)> {
    // Statements that run alone, sequentially; runs of the others fuse.
    let alone = |s: &Stmt| match scheme {
        Scheme::Sequential => true,
        // Base fuses runs of bitwise instructions; shifts and control flow
        // run alone.
        Scheme::Base => {
            !matches!(s, Stmt::Op(op) if !op.is_shift() && !matches!(op, Op::Add { .. }))
        }
        // DTM- fuses everything except subtrees containing `while` loops,
        // whose overlap cannot be bounded statically.
        Scheme::DtmStatic => contains_while(std::slice::from_ref(s)),
        Scheme::Dtm | Scheme::Sr | Scheme::Zbs => false,
    };
    let (mut out, mut run) = (Vec::new(), 0);
    for (i, _) in stmts.iter().enumerate().filter(|(_, s)| alone(s)) {
        if run < i {
            out.push((SegmentKind::Fused, run..i));
        }
        out.push((SegmentKind::Sequential, i..i + 1));
        run = i + 1;
    }
    // DTM and up run the whole program as one fused segment, even an
    // empty one.
    if run < stmts.len() || scheme >= Scheme::Dtm {
        out.push((SegmentKind::Fused, run..stmts.len()));
    }
    out
}

/// Subtrees whose cross-block reach cannot be bounded statically:
/// `while` loops and long additions (unbounded carry chains).
fn contains_while(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Op(op) => matches!(op, Op::Add { .. }),
        Stmt::While { .. } => true,
        Stmt::If { body, .. } => contains_while(body),
    })
}

/// Computes boundary inputs/outputs for each piece: its inputs — read
/// there, defined by an earlier piece — in one forward pass over a
/// defined-before bitset, its outputs — defined there, read by a later
/// piece or a program output — in one backward pass over a used-after
/// bitset. Only what a pass keeps is sorted.
fn wire(pieces: Vec<(SegmentKind, Range<usize>)>, program: &Program) -> Vec<Segment<Range<usize>>> {
    let streams = program.num_streams() as usize;
    let sorted = |mut ids: Vec<StreamId>| {
        ids.sort_unstable();
        ids.dedup();
        ids
    };
    let mut defined = vec![false; streams];
    let mut segments: Vec<Segment<Range<usize>>> = (pieces.into_iter())
        .map(|(kind, range)| {
            let (stmts, mut inputs) = (&program.stmts()[range.clone()], Vec::new());
            visit(stmts, &mut |id, def| if !def && defined[id.index()] { inputs.push(id) });
            visit(stmts, &mut |id, def| if def { defined[id.index()] = true });
            Segment { kind, stmts: range, inputs: sorted(inputs), outputs: Vec::new() }
        })
        .collect();
    let mut used = vec![false; streams];
    program.outputs().iter().for_each(|id| used[id.index()] = true);
    for seg in segments.iter_mut().rev() {
        let (stmts, mut outputs) = (&program.stmts()[seg.stmts.clone()], Vec::new());
        visit(stmts, &mut |id, def| if def && used[id.index()] { outputs.push(id) });
        visit(stmts, &mut |id, def| if !def { used[id.index()] = true });
        seg.outputs = sorted(outputs);
    }
    segments
}

/// Calls `f(id, true)` on every stream `stmts` write and `f(id, false)` on
/// every stream they read, conditions included.
fn visit(stmts: &[Stmt], f: &mut impl FnMut(StreamId, bool)) {
    for s in stmts {
        match s {
            Stmt::Op(op) => {
                op.sources().for_each(|id| f(id, false));
                f(op.dst(), true);
            }
            Stmt::If { cond, body } | Stmt::While { cond, body } => {
                f(*cond, false);
                visit(body, f);
            }
        }
    }
}

/// Number of distinct boundary streams across all segments — the
/// Table 4 `#Intermediate Bitstream` column (program outputs excluded:
/// they are results, not intermediates).
pub fn intermediate_count<S>(segments: &[Segment<S>], program: &Program) -> usize {
    let mut ids: Vec<StreamId> = (segments.iter().flat_map(|seg| &seg.outputs))
        .filter(|id| !program.outputs().contains(id))
        .copied()
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{apply_transforms, ExecConfig};
    use bitgen_ir::{lower, lower_group_with, LowerOptions};
    use bitgen_regex::{parse, Ast, ByteSet};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Segmentation as first written: every statement copied into its
    /// piece, and each piece wired against the union of every earlier
    /// piece's definitions and of every later piece's uses.
    fn reference(program: &Program, scheme: Scheme) -> Vec<Segment> {
        let stmts = program.stmts();
        let pieces: Vec<(SegmentKind, Vec<Stmt>)> = match scheme {
            Scheme::Dtm | Scheme::Sr | Scheme::Zbs => vec![(SegmentKind::Fused, stmts.to_vec())],
            Scheme::Sequential => {
                stmts.iter().map(|s| (SegmentKind::Sequential, vec![s.clone()])).collect()
            }
            Scheme::Base | Scheme::DtmStatic => {
                let mut out = Vec::new();
                let mut run: Vec<Stmt> = Vec::new();
                for s in stmts {
                    let alone = match scheme {
                        Scheme::Base => !matches!(
                            s,
                            Stmt::Op(op) if !op.is_shift() && !matches!(op, Op::Add { .. })
                        ),
                        _ => contains_while(std::slice::from_ref(s)),
                    };
                    if alone {
                        if !run.is_empty() {
                            out.push((SegmentKind::Fused, std::mem::take(&mut run)));
                        }
                        out.push((SegmentKind::Sequential, vec![s.clone()]));
                    } else {
                        run.push(s.clone());
                    }
                }
                if !run.is_empty() {
                    out.push((SegmentKind::Fused, run));
                }
                out
            }
        };
        let sets = |stmts: &[Stmt]| {
            let (mut defs, mut uses) = (BTreeSet::new(), BTreeSet::new());
            visit(stmts, &mut |id, def| {
                if def { defs.insert(id) } else { uses.insert(id) };
            });
            (defs, uses)
        };
        let (defs, uses): (Vec<_>, Vec<_>) = pieces.iter().map(|(_, s)| sets(s)).unzip();
        let program_outputs: BTreeSet<StreamId> = program.outputs().iter().copied().collect();
        (pieces.into_iter().enumerate())
            .map(|(i, (kind, stmts))| {
                let defined_before: BTreeSet<StreamId> =
                    defs[..i].iter().flatten().copied().collect();
                let used_after: BTreeSet<StreamId> =
                    uses[i + 1..].iter().flatten().copied().collect();
                let inputs = uses[i].intersection(&defined_before).copied().collect();
                let outputs = (defs[i].iter())
                    .filter(|d| used_after.contains(d) || program_outputs.contains(d))
                    .copied()
                    .collect();
                Segment { kind, stmts, inputs, outputs }
            })
            .collect()
    }

    fn arb_ast() -> impl Strategy<Value = Ast> {
        let leaf = prop::sample::select(b"abcd".to_vec())
            .prop_map(|b| Ast::Class(ByteSet::singleton(b)));
        leaf.prop_recursive(3, 20, 3, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 2..4).prop_map(Ast::Concat),
                prop::collection::vec(inner.clone(), 2..3).prop_map(Ast::Alt),
                inner.clone().prop_map(|a| Ast::Star(Box::new(a))),
                (inner, 1u32..3).prop_map(|(a, n)| Ast::Repeat {
                    node: Box::new(a),
                    min: n,
                    max: Some(n + 1),
                }),
            ]
        })
    }

    #[test]
    fn an_empty_program_segments_as_before() {
        let empty = Program::new(Vec::new(), 0, Vec::new());
        for scheme in Scheme::ALL {
            let kinds = |segs: Vec<Segment>| segs.iter().map(|s| s.kind).collect::<Vec<_>>();
            assert_eq!(kinds(segment_program(&empty, scheme)), kinds(reference(&empty, scheme)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        #[test]
        fn linear_wiring_returns_the_reference_segments(
            asts in prop::collection::vec(arb_ast(), 1..4),
            match_star in any::<bool>(),
            combine in any::<bool>(),
            transformed_for in prop::sample::select(Scheme::ALL.to_vec()),
        ) {
            // Lowered programs, `Add`s under MatchStar, and the guarded,
            // rebalanced ones the transforms leave.
            let options = LowerOptions { match_star, log_repetition: false };
            let mut prog = lower_group_with(&asts, options);
            if combine {
                prog.combine_outputs();
            }
            apply_transforms(&mut prog, &ExecConfig::for_scheme(transformed_for));
            for scheme in Scheme::ALL {
                let got = segment_program(&prog, scheme);
                let want = reference(&prog, scheme);
                let fields =
                    |s: &Segment| (s.kind, s.stmts.clone(), s.inputs.clone(), s.outputs.clone());
                prop_assert_eq!(
                    got.iter().map(fields).collect::<Vec<_>>(),
                    want.iter().map(fields).collect::<Vec<_>>(),
                    "{} of {:?}", scheme, asts
                );
                let ranges = segment_ranges(&prog, scheme);
                let intermediates = intermediate_count(&want, &prog);
                prop_assert_eq!(intermediate_count(&ranges, &prog), intermediates);
            }
        }
    }

    #[test]
    fn fused_schemes_have_one_segment() {
        let prog = lower(&parse("a(bc)*d").unwrap());
        for scheme in [Scheme::Dtm, Scheme::Sr, Scheme::Zbs] {
            let segs = segment_program(&prog, scheme);
            assert_eq!(segs.len(), 1);
            assert!(segs[0].inputs.is_empty());
            assert_eq!(segs[0].outputs, prog.outputs());
            assert_eq!(intermediate_count(&segs, &prog), 0);
        }
    }

    #[test]
    fn sequential_cuts_everything() {
        let prog = lower(&parse("ab").unwrap());
        let segs = segment_program(&prog, Scheme::Sequential);
        assert_eq!(segs.len(), prog.stmts().len());
        assert!(segs.iter().all(|s| s.kind == SegmentKind::Sequential));
        assert!(intermediate_count(&segs, &prog) > 0);
    }

    #[test]
    fn base_cuts_at_shifts() {
        let prog = lower(&parse("ab").unwrap());
        let segs = segment_program(&prog, Scheme::Base);
        // Fewer segments than Sequential, more than one.
        let seq = segment_program(&prog, Scheme::Sequential);
        assert!(segs.len() > 1);
        assert!(segs.len() < seq.len());
        // Shift segments are sequential and singleton.
        for seg in &segs {
            if seg.kind == SegmentKind::Sequential {
                assert_eq!(seg.stmts.len(), 1);
            }
        }
    }

    #[test]
    fn dtm_static_cuts_only_loops() {
        let prog = lower(&parse("a(bc)*d").unwrap());
        let segs = segment_program(&prog, Scheme::DtmStatic);
        assert_eq!(segs.len(), 3, "prefix / while / suffix");
        assert_eq!(segs[0].kind, SegmentKind::Fused);
        assert_eq!(segs[1].kind, SegmentKind::Sequential);
        assert_eq!(segs[2].kind, SegmentKind::Fused);
        let literal = lower(&parse("abcd").unwrap());
        assert_eq!(segment_program(&literal, Scheme::DtmStatic).len(), 1);
    }

    #[test]
    fn boundary_wiring_is_consistent() {
        let prog = lower(&parse("a(bc)*d").unwrap());
        for scheme in [Scheme::Sequential, Scheme::Base, Scheme::DtmStatic] {
            let segs = segment_program(&prog, scheme);
            // Every input of a segment must be an output of some earlier
            // segment.
            let mut produced: BTreeSet<StreamId> = BTreeSet::new();
            for seg in &segs {
                for i in &seg.inputs {
                    assert!(produced.contains(i), "{scheme}: input {i} not yet produced");
                }
                produced.extend(seg.outputs.iter().copied());
            }
            // The program outputs must be produced by the end.
            for o in prog.outputs() {
                assert!(produced.contains(o), "{scheme}: output {o} never produced");
            }
        }
    }

    #[test]
    fn segment_counts_decrease_with_fusion() {
        // The Table 4 gradient: Sequential > Base > DTM- ≥ DTM.
        let prog = lower(&parse("ab(cd)*e|fg").unwrap());
        let count = |s: Scheme| segment_program(&prog, s).len();
        assert!(count(Scheme::Sequential) > count(Scheme::Base));
        assert!(count(Scheme::Base) > count(Scheme::DtmStatic));
        assert!(count(Scheme::DtmStatic) >= count(Scheme::Dtm));
        let inter = |s: Scheme| {
            let segs = segment_program(&prog, s);
            intermediate_count(&segs, &prog)
        };
        assert!(inter(Scheme::Sequential) > inter(Scheme::Base));
        assert!(inter(Scheme::Base) >= inter(Scheme::DtmStatic));
        assert_eq!(inter(Scheme::Dtm), 0);
    }
}
