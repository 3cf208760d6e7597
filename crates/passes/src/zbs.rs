//! Zero Block Skipping (§6 of the paper).
//!
//! Intermediate bitstreams are mostly zero in practice (partial regex
//! mismatches). Operations that *preserve zero* — AND, the shifts, and
//! plain copies — propagate an all-zero block unchanged, so a run of such
//! instructions can be skipped whenever its head value has no set bit in
//! the current block.
//!
//! The pass finds, for every candidate head `v`, the maximal following run
//! of instructions whose results are all zero-guaranteed given `v == 0`
//! (the paper's *zero path*, generalised to a zero-derived set), and wraps
//! the run in an `if (v)` guard. Where the paper validates a `goto` by
//! rejecting ranges that define values used outside the path, this pass
//! admits only zero-derived instructions into the range — the same
//! condition — and additionally pre-zeroes every range result that is live
//! after the range, so a skipped range behaves exactly as if it had been
//! executed on zeros. The `interval` parameter reproduces the paper's
//! interval-based multi-guard insertion: inside a guarded range, additional
//! guards are attempted every `interval` instructions.

use bitgen_ir::{DefUse, Op, Program, Stmt, StreamId};
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};

/// Configuration of the zero-block-skipping pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZbsConfig {
    /// Distance (in zero-path instructions) between successive guard
    /// attempts along one path — the paper's *interval size* (Fig. 14
    /// sweeps 1, 2, 4, 8).
    pub interval: usize,
    /// Minimum number of skippable instructions for a guard to pay for its
    /// block-wide reduction.
    pub min_range: usize,
}

impl Default for ZbsConfig {
    fn default() -> ZbsConfig {
        // The paper's default interval size is 8.
        ZbsConfig { interval: 8, min_range: 2 }
    }
}

/// What the pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZbsStats {
    /// Guards inserted.
    pub guards: usize,
    /// Instructions now under some guard.
    pub guarded_ops: usize,
    /// Pre-zero initialisations added for range live-outs.
    pub prezeros: usize,
    /// Instructions examined while placing guards — the pass's work
    /// counter. Near-linear in program size by construction; the
    /// complexity regression suite asserts the ratio against IR ops.
    pub visits: u64,
}

/// Applies zero-block skipping to `program` in place.
///
/// # Examples
///
/// ```
/// use bitgen_regex::parse;
/// use bitgen_ir::lower;
/// use bitgen_passes::{insert_zero_skips, ZbsConfig};
///
/// let mut prog = lower(&parse("abcdefgh").unwrap());
/// let stats = insert_zero_skips(&mut prog, ZbsConfig::default());
/// assert!(stats.guards >= 1);
/// ```
pub fn insert_zero_skips(program: &mut Program, config: ZbsConfig) -> ZbsStats {
    let du = DefUse::of(program);
    insert_zero_skips_with(program, config, &du)
}

/// [`insert_zero_skips`] with a caller-provided def/use analysis, so a
/// pass pipeline can compute [`DefUse`] once and share it.
///
/// `du` must describe `program` as passed in (the pass reads it; the
/// guards and pre-zeroes it inserts are not reflected back into `du`).
pub fn insert_zero_skips_with(program: &mut Program, config: ZbsConfig, du: &DefUse) -> ZbsStats {
    let mut stats = ZbsStats::default();
    let mut stmts = std::mem::take(program.stmts_mut());
    guard_stmts(&mut stmts, &config, du, &mut stats);
    *program.stmts_mut() = stmts;
    stats
}

fn guard_stmts(stmts: &mut Vec<Stmt>, config: &ZbsConfig, du: &DefUse, stats: &mut ZbsStats) {
    let old = std::mem::take(stmts);
    let mut run: Vec<Op> = Vec::new();
    for stmt in old {
        match stmt {
            Stmt::Op(op) => run.push(op),
            mut ctl => {
                flush(&mut run, stmts, config, du, stats);
                match &mut ctl {
                    Stmt::If { body, .. } | Stmt::While { body, .. } => {
                        guard_stmts(body, config, du, stats);
                    }
                    Stmt::Op(_) => unreachable!("ops are buffered above"),
                }
                stmts.push(ctl);
            }
        }
    }
    flush(&mut run, stmts, config, du, stats);
}

fn flush(run: &mut Vec<Op>, out: &mut Vec<Stmt>, config: &ZbsConfig, du: &DefUse, stats: &mut ZbsStats) {
    if run.is_empty() {
        return;
    }
    let block = std::mem::take(run);
    out.extend(guard_block(block, config, du, stats));
}

/// Zero-preservation: with `head == 0`, does `op` produce zero given that
/// everything in `zeroset` is zero?
fn preserves_zero(op: &Op, zeroset: &HashSet<StreamId>) -> bool {
    match op {
        // AND is zero whenever either operand is zero.
        Op::And { a, b, .. } => zeroset.contains(a) || zeroset.contains(b),
        // Shifts and copies of zero are zero.
        Op::Advance { src, .. } | Op::Retreat { src, .. } | Op::Assign { src, .. } => {
            zeroset.contains(src)
        }
        // OR/XOR/ADD of two zeros is zero (both must be derived).
        Op::Or { a, b, .. } | Op::Xor { a, b, .. } | Op::Add { a, b, .. } => {
            zeroset.contains(a) && zeroset.contains(b)
        }
        // NOT of zero is all-ones; constants and matches are independent.
        Op::Not { .. } | Op::MatchCc { .. } | Op::Zero { .. } | Op::Ones { .. } => false,
    }
}

/// A validated skippable range: the ops after a head instruction that may
/// all be skipped when the head value is zero.
struct ZeroRange {
    /// Exclusive end index of the range (the range is `start..end`).
    end: usize,
    /// Variables in the range guaranteed zero when the head is zero.
    zeroset: HashSet<StreamId>,
}

/// Per-block use positions, built once per straight-line run so range
/// validation never rescans the block counting uses.
struct BlockIndex {
    /// For each stream id: the block positions that read it, ascending.
    /// An op reading the same id twice contributes two entries, matching
    /// [`DefUse`]'s per-occurrence counts.
    use_pos: HashMap<StreamId, Vec<u32>>,
}

impl BlockIndex {
    fn build(block: &[Op]) -> BlockIndex {
        let mut use_pos: HashMap<StreamId, Vec<u32>> = HashMap::new();
        for (i, op) in block.iter().enumerate() {
            for s in op.sources() {
                use_pos.entry(s).or_default().push(i as u32);
            }
        }
        BlockIndex { use_pos }
    }

    /// The smallest exclusive range end that keeps every use of `d` (the
    /// dst defined at block position `p`) inside the range, or
    /// `usize::MAX` when `d` is also read outside this block (no end
    /// can contain those uses). A prefix `start..end` is valid exactly
    /// when every non-zero-derived op in it has `need <= end`.
    fn need(&self, p: usize, d: StreamId, du: &DefUse) -> usize {
        let uses = self.use_pos.get(&d).map(Vec::as_slice).unwrap_or(&[]);
        if uses.len() < du.use_count(d) {
            return usize::MAX;
        }
        uses.last().map_or(p + 1, |&last| (last as usize + 1).max(p + 1))
    }
}

/// Finds the longest valid skippable range beginning right after
/// `block[head_idx]`, per the paper's validation rule: an instruction may
/// sit inside the skipped range even when it is *not* on the zero path,
/// as long as its result is not used outside the range; every result that
/// *is* used outside must be zero-derived from the head (and therefore
/// zero when the guard skips).
///
/// One forward scan: a running maximum of the bystanders' `need` makes
/// prefix validity an O(1) check per op, so the whole search is linear
/// where the previous implementation recounted uses per candidate end.
fn find_range(
    block: &[Op],
    head_idx: usize,
    du: &DefUse,
    index: &BlockIndex,
    visits: &mut u64,
) -> Option<ZeroRange> {
    let head = block[head_idx].dst();
    let mut zeroset: HashSet<StreamId> = HashSet::new();
    zeroset.insert(head);
    let start = head_idx + 1;
    let mut best = None;
    let mut max_need = 0usize;
    let mut e = start;
    while e < block.len() {
        let op = &block[e];
        *visits += 1;
        // Multi-def variables (loop accumulators) are excluded: skipping a
        // redefinition must not clobber or expose their previous-trip
        // value.
        if du.def_count(op.dst()) != 1 {
            break;
        }
        if preserves_zero(op, &zeroset) {
            zeroset.insert(op.dst());
        } else {
            max_need = max_need.max(index.need(e, op.dst(), du));
        }
        e += 1;
        if max_need <= e {
            best = Some(e);
        }
    }
    best.map(|end| ZeroRange { end, zeroset })
}

fn guard_block(block: Vec<Op>, config: &ZbsConfig, du: &DefUse, stats: &mut ZbsStats) -> Vec<Stmt> {
    let index = BlockIndex::build(&block);
    let mut out = Vec::new();
    let n = block.len();
    let mut i = 0;
    while i < n {
        let range = match find_range(&block, i, du, &index, &mut stats.visits) {
            Some(r) if r.end - (i + 1) >= config.min_range => r,
            _ => {
                out.push(Stmt::Op(block[i].clone()));
                i += 1;
                continue;
            }
        };
        let head = block[i].dst();
        let j = range.end;
        // Emit the head instruction, pre-zero the range's live-outs, then
        // guard the range. A live-out is exactly an op whose `need`
        // extends past the range end.
        out.push(Stmt::Op(block[i].clone()));
        for (p, op) in block.iter().enumerate().take(j).skip(i + 1) {
            stats.visits += 1;
            if index.need(p, op.dst(), du) > j {
                out.push(Stmt::Op(Op::Zero { dst: op.dst() }));
                stats.prezeros += 1;
            }
        }
        let body = subdivide(&block, i, j, range.zeroset, config, du, &index, stats);
        stats.guards += 1;
        stats.guarded_ops += j - (i + 1);
        out.push(Stmt::If { cond: head, body });
        i = j;
    }
    out
}

/// Interval-based multi-guard insertion (§6): within an already-guarded
/// range, insert a nested guard every `interval` instructions, conditioned
/// on the most recent zero-path value.
///
/// The original recursive version rebuilt the zero-derived set and
/// re-validated the candidate range from scratch at every nesting level
/// (O(range²) per level). This iterative version maintains the set
/// incrementally: each level's set is a subset of the previous one (the
/// new seed `cond` was itself a member), so members can only ever *drop*,
/// and each drop cascades through the use index, re-evaluating a reader
/// at most once per lost source. Validity reuses the `need` bound of
/// [`find_range`] through a lazily-pruned max-heap of bystander needs,
/// and pre-zero emission walks an ordered map of escaping members, so
/// every level's cost is proportional to what it emits plus what it
/// drops — near-linear overall.
#[allow(clippy::too_many_arguments)]
fn subdivide(
    block: &[Op],
    head_idx: usize,
    end: usize,
    zeroset: HashSet<StreamId>,
    config: &ZbsConfig,
    du: &DefUse,
    index: &BlockIndex,
    stats: &mut ZbsStats,
) -> Vec<Stmt> {
    let start = head_idx + 1;
    let flat = |a: usize, b: usize| block[a..b].iter().cloned().map(Stmt::Op);
    if config.interval == 0 {
        return flat(start, end).collect();
    }
    let mut zs = zeroset;
    // Member bookkeeping, all keyed by definition position (unique:
    // everything in a validated range is single-def).
    //   member_pos: def position -> member, for ordered set transitions;
    //   escapers:   members whose `need` exceeds the current range end
    //               (the pre-zero set), ordered by position;
    //   by_need:    members still contained in the current end, keyed by
    //               `need` so an end shrink migrates them to `escapers`;
    //   bystanders: max-heap of (need, pos) for non-members — the range
    //               validity bound, pruned lazily.
    let mut member_pos: BTreeMap<usize, StreamId> = BTreeMap::new();
    let mut escapers: BTreeMap<usize, StreamId> = BTreeMap::new();
    let mut by_need: BTreeMap<usize, Vec<(usize, StreamId)>> = BTreeMap::new();
    let mut bystanders: BinaryHeap<(usize, usize)> = BinaryHeap::new();
    member_pos.insert(head_idx, block[head_idx].dst());
    for (p, op) in block.iter().enumerate().take(end).skip(start) {
        stats.visits += 1;
        let d = op.dst();
        let need = index.need(p, d, du);
        if zs.contains(&d) {
            member_pos.insert(p, d);
            if need > end {
                escapers.insert(p, d);
            } else {
                by_need.entry(need).or_default().push((p, d));
            }
        } else {
            bystanders.push((need, p));
        }
    }
    // One entry per nesting level already decided: the statements before
    // its `if`, the guard condition, and the ops after its range.
    let mut pending: Vec<(Vec<Stmt>, StreamId, Vec<Stmt>)> = Vec::new();
    let mut body: Vec<Stmt> = Vec::new();
    let (mut a, mut b) = (start, end);
    loop {
        // "Every I instructions along a zero path": count only path nodes
        // (zero-derived results), not bystanders, and stop subdividing
        // when no full interval plus a continuation remains.
        let mut c = None;
        let mut path_nodes = 0usize;
        let mut more = false;
        for (p, op) in block.iter().enumerate().take(b).skip(a) {
            stats.visits += 1;
            if !zs.contains(&op.dst()) {
                continue;
            }
            path_nodes += 1;
            if path_nodes == config.interval + 1 {
                more = true;
                break;
            }
            if path_nodes == config.interval {
                c = Some(p + 1);
            }
        }
        let (Some(c), true) = (c, more) else {
            body.extend(flat(a, b));
            break;
        };
        let cond = block[c - 1].dst();
        body.extend(flat(a, c));
        // Set transition S -> S': the nested guard re-derives zeroness
        // from `cond` alone, so every member defined before the split
        // (except `cond` itself) leaves the set, and each removal
        // cascades through its readers.
        let mut dropped: Vec<StreamId> = Vec::new();
        let expired: Vec<usize> =
            member_pos.range(..c).map(|(&p, _)| p).filter(|&p| p != c - 1).collect();
        for p in expired {
            let d = member_pos.remove(&p).expect("member indexed at its def position");
            zs.remove(&d);
            if p >= start && escapers.remove(&p).is_none() {
                let need = index.need(p, d, du);
                if let Some(v) = by_need.get_mut(&need) {
                    v.retain(|&(q, _)| q != p);
                }
            }
            dropped.push(d);
        }
        while let Some(v) = dropped.pop() {
            for &q in index.use_pos.get(&v).map(Vec::as_slice).unwrap_or(&[]) {
                let q = q as usize;
                if q < c || q >= b {
                    continue;
                }
                stats.visits += 1;
                let op = &block[q];
                let d = op.dst();
                if !zs.contains(&d) || preserves_zero(op, &zs) {
                    continue;
                }
                zs.remove(&d);
                member_pos.remove(&q);
                let need = index.need(q, d, du);
                if escapers.remove(&q).is_none() {
                    if let Some(v) = by_need.get_mut(&need) {
                        v.retain(|&(r, _)| r != q);
                    }
                }
                bystanders.push((need, q));
                dropped.push(d);
            }
        }
        // Range end for this level: the full tail if every bystander's
        // need is contained (the common case, O(1) via the heap top),
        // otherwise the longest valid prefix by forward scan.
        while let Some(&(_, p)) = bystanders.peek() {
            if p < c || p >= b {
                bystanders.pop();
            } else {
                break;
            }
        }
        let whole_ok = bystanders.peek().is_none_or(|&(need, _)| need <= b);
        let e = if whole_ok && b - c >= config.min_range {
            Some(b)
        } else if whole_ok {
            None
        } else {
            let mut max_need = 0usize;
            let mut found = None;
            for (p, op) in block.iter().enumerate().take(b).skip(c) {
                stats.visits += 1;
                let d = op.dst();
                if !zs.contains(&d) {
                    max_need = max_need.max(index.need(p, d, du));
                }
                if max_need <= p + 1 && p + 1 - c >= config.min_range {
                    found = Some(p + 1);
                }
            }
            found
        };
        let Some(e) = e else {
            // No nested range pays for a guard: emit the rest flat.
            body.extend(flat(c, b));
            break;
        };
        if e < b {
            // The end shrank: members reaching into (e, b] now escape,
            // and everything defined at or past `e` leaves the level.
            escapers.split_off(&e);
            for (_, moved) in by_need.split_off(&(e + 1)) {
                for (p, d) in moved {
                    if p < e {
                        escapers.insert(p, d);
                    }
                }
            }
        }
        // Pre-zero the nested range's live-outs (order: by position).
        let prezeros: Vec<Stmt> = escapers
            .range(c..e)
            .map(|(_, &d)| Stmt::Op(Op::Zero { dst: d }))
            .collect();
        stats.prezeros += prezeros.len();
        body.extend(prezeros);
        stats.guards += 1;
        pending.push((std::mem::take(&mut body), cond, flat(e, b).collect()));
        a = c;
        b = e;
    }
    while let Some((mut outer, cond, tail)) = pending.pop() {
        outer.push(Stmt::If { cond, body: std::mem::take(&mut body) });
        outer.extend(tail);
        body = outer;
    }
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitgen_bitstream::Basis;
    use bitgen_ir::{interpret, lower, pretty};
    use bitgen_regex::parse;

    fn zbs(pattern: &str, interval: usize) -> Program {
        let mut prog = lower(&parse(pattern).unwrap());
        insert_zero_skips(&mut prog, ZbsConfig { interval, min_range: 2 });
        prog
    }

    fn assert_preserves(pattern: &str, input: &[u8], interval: usize) {
        let prog = lower(&parse(pattern).unwrap());
        let guarded = zbs(pattern, interval);
        let basis = Basis::transpose(input);
        let before = interpret(&prog, &basis);
        let after = interpret(&guarded, &basis);
        for (x, y) in before.outputs.iter().zip(&after.outputs) {
            assert_eq!(
                x.positions(),
                y.positions(),
                "pattern {pattern:?} interval {interval}\n{}",
                pretty(&guarded)
            );
        }
    }

    #[test]
    fn guards_inserted_on_literal_chain() {
        let prog = zbs("abcdefgh", 8);
        let stats_prog = {
            let mut p = lower(&parse("abcdefgh").unwrap());
            insert_zero_skips(&mut p, ZbsConfig::default())
        };
        assert!(stats_prog.guards >= 1, "{}", pretty(&prog));
        let s = bitgen_ir::ProgramStats::of(&prog);
        assert!(s.r#if >= 1);
    }

    #[test]
    fn semantics_preserved_across_intervals() {
        for interval in [1, 2, 4, 8] {
            for (pat, input) in [
                ("abcdefgh", &b"xxabcdefghxx"[..]),
                ("abcd", b"no match here"),
                ("a(bc)*d", b"abcbcd none ad"),
                ("(ab|cd)ef", b"abef cdef xxef"),
                ("a{4}", b"aaaaaa"),
            ] {
                assert_preserves(pat, input, interval);
            }
        }
    }

    #[test]
    fn skipped_ranges_behave_as_zero() {
        // Input with no 'a' at all: every guard fires (skips), and the
        // output must still be exactly empty, not stale garbage.
        assert_preserves("abcdefgh", b"zzzzzzzzzzzz", 8);
        let prog = zbs("abcdefgh", 8);
        let r = interpret(&prog, &Basis::transpose(b"zzzzzzzzzzzz"));
        assert!(r.outputs[0].positions().is_empty());
    }

    #[test]
    fn interval_one_nests_guards() {
        let mut p = lower(&parse("abcdefghij").unwrap());
        let fine = insert_zero_skips(&mut p, ZbsConfig { interval: 1, min_range: 2 });
        let mut q = lower(&parse("abcdefghij").unwrap());
        let coarse = insert_zero_skips(&mut q, ZbsConfig { interval: 8, min_range: 2 });
        assert!(
            fine.guards > coarse.guards,
            "interval 1 should insert more guards: {fine:?} vs {coarse:?}"
        );
    }

    #[test]
    fn live_outs_are_prezeroed() {
        let mut p = lower(&parse("abcd|x").unwrap());
        let stats = insert_zero_skips(&mut p, ZbsConfig::default());
        if stats.guards > 0 {
            assert!(stats.prezeros > 0, "guarded values used later need pre-zeroing");
        }
        assert_preserves("abcd|x", b"qqqq x abcd", 8);
    }

    #[test]
    fn not_breaks_zero_paths() {
        // ~0 = all ones: NOT must never sit inside a guarded range.
        assert_preserves("a(bc)*d", b"zzzzz", 4);
        let prog = zbs("a(bc)*d", 4);
        fn check(stmts: &[Stmt]) {
            for s in stmts {
                match s {
                    Stmt::If { body, .. } => {
                        for b in body {
                            if let Stmt::Op(op) = b {
                                assert!(
                                    !matches!(op, Op::Not { .. } | Op::Ones { .. }),
                                    "non-zero-preserving op inside guard"
                                );
                            }
                        }
                        check(body);
                    }
                    Stmt::While { body, .. } => check(body),
                    Stmt::Op(_) => {}
                }
            }
        }
        check(prog.stmts());
    }

    #[test]
    fn guards_inside_while_bodies() {
        // The Kleene loop body contains shift/AND chains: guards may be
        // inserted there too, and the loop must still terminate.
        assert_preserves("a(bcde)*f", b"abcdebcdef", 2);
    }

    // ------------------------------------------------------------------
    // find_range edge cases. These pin the validation semantics of the
    // original (quadratic) implementation; the linear rewrite must keep
    // them passing unchanged.
    // ------------------------------------------------------------------

    use bitgen_ir::ProgramBuilder;
    use bitgen_regex::ByteSet;

    fn block_of(prog: &Program) -> Vec<Op> {
        prog.stmts()
            .iter()
            .map(|s| match s {
                Stmt::Op(op) => op.clone(),
                _ => panic!("straight-line programs only"),
            })
            .collect()
    }

    fn range_of(prog: &Program, head_idx: usize) -> Option<(usize, HashSet<StreamId>)> {
        let du = DefUse::of(prog);
        let block = block_of(prog);
        let index = BlockIndex::build(&block);
        let mut visits = 0u64;
        find_range(&block, head_idx, &du, &index, &mut visits).map(|r| (r.end, r.zeroset))
    }

    #[test]
    fn find_range_stops_at_multi_def_accumulator() {
        // Skipping a redefinition of a loop accumulator would clobber (or
        // expose) its previous-trip value: the range must end before it.
        let mut b = ProgramBuilder::new();
        let c = b.match_cc(ByteSet::singleton(b'a')); // 0: head
        let t1 = b.advance(c, 1); // 1: zero-derived
        let t2 = b.and(t1, c); // 2: zero-derived
        let acc = b.assign_new(t2); // 3: acc def #1
        let t3 = b.advance(acc, 1); // 4
        b.assign_to(acc, t3); // 5: acc def #2 — multi-def
        b.mark_output(acc);
        let prog = b.finish();
        let (end, zeroset) = range_of(&prog, 0).expect("range before the accumulator");
        assert_eq!(end, 3, "range must stop at the first multi-def dst");
        assert!(zeroset.contains(&t1) && zeroset.contains(&t2));
        assert!(!zeroset.contains(&acc));
    }

    #[test]
    fn find_range_rejects_escaping_bystander() {
        // A non-zero-derived result read after the range cannot be
        // skipped: zeroing it would be observable.
        let mut b = ProgramBuilder::new();
        let c = b.match_cc(ByteSet::singleton(b'a')); // 0: head
        let d = b.match_cc(ByteSet::singleton(b'b')); // 1: bystander
        b.mark_output(c);
        b.mark_output(d); // d escapes every candidate range
        let prog = b.finish();
        assert!(range_of(&prog, 0).is_none());
    }

    #[test]
    fn find_range_allows_bystander_used_inside() {
        // A bystander whose every use sits inside the range is fine: its
        // (stale or never-computed) value is unobservable outside.
        let mut b = ProgramBuilder::new();
        let c = b.match_cc(ByteSet::singleton(b'a')); // 0: head
        let d = b.match_cc(ByteSet::singleton(b'b')); // 1: bystander
        let e = b.and(c, d); // 2: zero-derived, consumes d
        b.mark_output(e);
        let prog = b.finish();
        let (end, zeroset) = range_of(&prog, 0).expect("bystander is containable");
        assert_eq!(end, 3);
        assert!(zeroset.contains(&e));
        assert!(!zeroset.contains(&d), "bystanders are not zero-derived");
    }

    #[test]
    fn find_range_head_at_block_end() {
        // Nothing follows the head: no range.
        let mut b = ProgramBuilder::new();
        let c = b.match_cc(ByteSet::singleton(b'a'));
        b.mark_output(c);
        let prog = b.finish();
        assert!(range_of(&prog, 0).is_none());
    }

    #[test]
    fn min_range_rejects_short_ranges() {
        // A 1-op range is valid but not worth a guard under min_range 2.
        let short = || {
            let mut b = ProgramBuilder::new();
            let c = b.match_cc(ByteSet::singleton(b'a'));
            let t = b.advance(c, 1);
            b.mark_output(t);
            b.finish()
        };
        let mut p = short();
        let rejected = insert_zero_skips(&mut p, ZbsConfig { interval: 8, min_range: 2 });
        assert_eq!(rejected.guards, 0, "below min_range: no guard");
        let mut q = short();
        let accepted = insert_zero_skips(&mut q, ZbsConfig { interval: 8, min_range: 1 });
        assert_eq!(accepted.guards, 1);
        assert_eq!(accepted.guarded_ops, 1);
        assert_eq!(accepted.prezeros, 1, "the live-out advance is pre-zeroed");
    }
}
