//! Complexity regression suite for the transform pipeline.
//!
//! The nested-repetition family `(?:(?:ab){N}){N}` is the pattern shape
//! that exposed the old quadratic range validation: N=20 took ~21s to
//! compile with ZBS on. The passes now carry instruction-visit counters,
//! so the complexity *class* is pinned by comparing visit growth against
//! IR-op growth between N=10 and N=20 — no flaky wall-clock thresholds —
//! with one generous sanity bound on absolute compile time on top.

use bitgen_exec::{apply_transforms, ExecConfig, PassMetrics, Scheme};
use bitgen_ir::{lower, Program};
use bitgen_regex::parse;

fn nested(n: usize) -> String {
    format!("(?:(?:ab){{{n}}}){{{n}}}")
}

fn op_count(prog: &Program) -> u64 {
    let mut n = 0u64;
    prog.for_each_op(&mut |_| n += 1);
    n
}

/// Lowers the family member for `n` and runs the full Zbs-scheme
/// pipeline, returning (IR ops before transforms, pipeline metrics).
fn transform(n: usize) -> (u64, PassMetrics) {
    let mut prog = lower(&parse(&nested(n)).expect("family member parses"));
    let ops = op_count(&prog);
    let metrics = apply_transforms(&mut prog, &ExecConfig::for_scheme(Scheme::Zbs));
    (ops, metrics)
}

#[test]
fn visit_counters_grow_linearly_with_ops() {
    let (ops10, m10) = transform(10);
    let (ops20, m20) = transform(20);
    let op_ratio = ops20 as f64 / ops10 as f64;

    // A linear pass's visits grow like its input; the old quadratic
    // validation grew like op_ratio² (~17x here). 1.5x headroom over the
    // op ratio separates the two regimes with a wide margin.
    let zbs_ratio = m20.zbs.visits as f64 / m10.zbs.visits as f64;
    assert!(
        zbs_ratio <= op_ratio * 1.5,
        "ZBS visits grew super-linearly: {} -> {} visits over {} -> {} ops \
         (ratio {zbs_ratio:.2} vs op ratio {op_ratio:.2})",
        m10.zbs.visits, m20.zbs.visits, ops10, ops20
    );

    let reb_ratio = m20.rebalance.visits as f64 / m10.rebalance.visits as f64;
    assert!(
        reb_ratio <= op_ratio * 1.5,
        "rebalance visits grew super-linearly: {} -> {} visits over {} -> {} ops \
         (ratio {reb_ratio:.2} vs op ratio {op_ratio:.2})",
        m10.rebalance.visits, m20.rebalance.visits, ops10, ops20
    );
}

#[test]
fn formerly_pathological_pattern_compiles_fast() {
    // ~21s before the rewrite; ~70ms in debug builds after. The bound
    // leaves an order of magnitude of slack for slow CI machines while
    // still failing long before a quadratic regression (which lands in
    // whole seconds).
    let start = std::time::Instant::now();
    let (_, metrics) = transform(20);
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_millis() < 1000,
        "(?:(?:ab){{20}}){{20}} took {elapsed:?} to transform (metrics: {metrics:?})"
    );
    // The pass pipeline actually ran (the bound above would trivially
    // pass on a scheme that skips the passes).
    assert!(metrics.rebalance.rewrites > 0 && metrics.zbs.guards > 0, "{metrics:?}");
    assert!(metrics.total_nanos() > 0);
}

#[test]
fn metrics_surface_through_engine_and_report() {
    use bitgen::{BitGen, EngineConfig};

    let engine =
        BitGen::compile_with(&[nested(4).as_str(), "abc"], EngineConfig::default()).unwrap();
    // Compiling transforms nothing; the first batch scan builds each
    // group's plan, and the plan keeps what its transforms did.
    assert!((0..engine.group_count()).all(|g| engine.batch_plan(g).is_none()));
    let report = engine.find(b"ababababxabc").unwrap();
    let mut total = PassMetrics::default();
    for (g, cta) in report.metrics.ctas.iter().enumerate() {
        let built = engine.batch_plan(g).expect("the scan built every plan").passes();
        assert_eq!(&cta.passes, built, "group {g} reports its plan's record");
        total.absorb(built);
    }
    // The default scheme runs both passes; something must have happened.
    assert!(total.total_visits() > 0, "{total:?}");
    assert_eq!(
        report.metrics.passes, total,
        "the report's unified metrics aggregate the plans' pass records"
    );
    assert!(report.match_count() > 0);
}
