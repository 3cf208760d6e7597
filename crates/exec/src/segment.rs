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
use bitgen_ir::{Program, Stmt, StreamId};
use std::collections::BTreeSet;

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
pub struct Segment {
    /// Execution style.
    pub kind: SegmentKind,
    /// The statements of this segment (whole subtrees).
    pub stmts: Vec<Stmt>,
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
    let pieces = cut(program.stmts(), scheme);
    wire(pieces, program)
}

/// Raw cut: groups of whole top-level statements plus their kind.
fn cut(stmts: &[Stmt], scheme: Scheme) -> Vec<(SegmentKind, Vec<Stmt>)> {
    match scheme {
        Scheme::Dtm | Scheme::Sr | Scheme::Zbs => {
            vec![(SegmentKind::Fused, stmts.to_vec())]
        }
        Scheme::Sequential => stmts
            .iter()
            .map(|s| (SegmentKind::Sequential, vec![s.clone()]))
            .collect(),
        Scheme::Base => {
            // Fuse runs of bitwise instructions; shifts and control flow
            // run alone.
            let mut out: Vec<(SegmentKind, Vec<Stmt>)> = Vec::new();
            let mut run: Vec<Stmt> = Vec::new();
            for s in stmts {
                let is_plain = matches!(
                    s,
                    Stmt::Op(op) if !op.is_shift() && !matches!(op, bitgen_ir::Op::Add { .. })
                );
                if is_plain {
                    run.push(s.clone());
                } else {
                    if !run.is_empty() {
                        out.push((SegmentKind::Fused, std::mem::take(&mut run)));
                    }
                    out.push((SegmentKind::Sequential, vec![s.clone()]));
                }
            }
            if !run.is_empty() {
                out.push((SegmentKind::Fused, run));
            }
            out
        }
        Scheme::DtmStatic => {
            // Fuse everything except subtrees containing `while` loops,
            // whose overlap cannot be bounded statically.
            let mut out: Vec<(SegmentKind, Vec<Stmt>)> = Vec::new();
            let mut run: Vec<Stmt> = Vec::new();
            for s in stmts {
                if contains_while(std::slice::from_ref(s)) {
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
    }
}

/// Subtrees whose cross-block reach cannot be bounded statically:
/// `while` loops and long additions (unbounded carry chains).
fn contains_while(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Op(op) => matches!(op, bitgen_ir::Op::Add { .. }),
        Stmt::While { .. } => true,
        Stmt::If { body, .. } => contains_while(body),
    })
}

/// Computes boundary inputs/outputs for each piece.
fn wire(pieces: Vec<(SegmentKind, Vec<Stmt>)>, program: &Program) -> Vec<Segment> {
    let n = pieces.len();
    let mut defs: Vec<BTreeSet<StreamId>> = Vec::with_capacity(n);
    let mut uses: Vec<BTreeSet<StreamId>> = Vec::with_capacity(n);
    for (_, stmts) in &pieces {
        let mut d = BTreeSet::new();
        let mut u = BTreeSet::new();
        collect(stmts, &mut d, &mut u);
        defs.push(d);
        uses.push(u);
    }
    let program_outputs: BTreeSet<StreamId> = program.outputs().iter().copied().collect();
    let mut segments = Vec::with_capacity(n);
    for (i, (kind, stmts)) in pieces.into_iter().enumerate() {
        let defined_before: BTreeSet<StreamId> =
            defs[..i].iter().flatten().copied().collect();
        let inputs: Vec<StreamId> =
            uses[i].intersection(&defined_before).copied().collect();
        let used_after: BTreeSet<StreamId> =
            uses[i + 1..].iter().flatten().copied().collect();
        let outputs: Vec<StreamId> = defs[i]
            .iter()
            .filter(|d| used_after.contains(d) || program_outputs.contains(d))
            .copied()
            .collect();
        segments.push(Segment { kind, stmts, inputs, outputs });
    }
    segments
}

fn collect(stmts: &[Stmt], defs: &mut BTreeSet<StreamId>, uses: &mut BTreeSet<StreamId>) {
    for s in stmts {
        match s {
            Stmt::Op(op) => {
                uses.extend(op.sources());
                defs.insert(op.dst());
            }
            Stmt::If { cond, body } | Stmt::While { cond, body } => {
                uses.insert(*cond);
                collect(body, defs, uses);
            }
        }
    }
}

/// Number of distinct boundary streams across all segments — the
/// Table 4 `#Intermediate Bitstream` column (program outputs excluded:
/// they are results, not intermediates).
pub fn intermediate_count(segments: &[Segment], program: &Program) -> usize {
    let outs: BTreeSet<StreamId> = program.outputs().iter().copied().collect();
    let mut ids = BTreeSet::new();
    for seg in segments {
        for &o in &seg.outputs {
            if !outs.contains(&o) {
                ids.insert(o);
            }
        }
    }
    ids.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitgen_ir::lower;
    use bitgen_regex::parse;

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
