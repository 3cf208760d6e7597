//! Properties of the parallel multi-stream scan engine: for random
//! pattern sets and random stream batches, a session at any thread
//! count must reproduce the 1-thread path bit for bit — matches,
//! per-pattern streams, modelled seconds, and metric totals — and a
//! reused session must not grow its buffers on same-sized rescans. A
//! DTM- scan, which walks its CTAs, and a DTM scan, which walks the groups
//! whose kernel has no loop and emulates the rest, report what the CTA
//! emulator counts.

use bitgen::{BitGen, EngineConfig, ExecConfig, ScanReport, Scheme};
use bitgen_bitstream::Basis;
use bitgen_exec::{BatchPlan, ExecScratch};
use bitgen_ir::RunControl;
use bitgen_regex::{Ast, ByteSet};
use proptest::prelude::*;

mod exact_groups;
use exact_groups::walks;

/// Random AST over the alphabet {a, b, c}, with bounded depth and size.
fn arb_ast() -> impl Strategy<Value = Ast> {
    let leaf = prop_oneof![
        prop::sample::select(vec![b'a', b'b', b'c']).prop_map(|b| Ast::Class(ByteSet::singleton(b))),
        prop::sample::select(vec![(b'a', b'b'), (b'b', b'c'), (b'a', b'c')])
            .prop_map(|(lo, hi)| Ast::Class(ByteSet::range(lo, hi))),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Ast::Concat),
            prop::collection::vec(inner.clone(), 2..3).prop_map(Ast::Alt),
            inner.clone().prop_map(|a| Ast::Star(Box::new(a))),
            inner.clone().prop_map(|a| Ast::Plus(Box::new(a))),
            inner.prop_map(|a| Ast::Opt(Box::new(a))),
        ]
    })
}

fn arb_streams() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(
        prop::collection::vec(prop::sample::select(b"aabbccdx".to_vec()), 0..90),
        1..7,
    )
}

/// Every field that the public API exposes must agree to the bit.
fn assert_reports_identical(a: &[ScanReport], b: &[ScanReport], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: report count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.matches, y.matches, "{what}: matches of stream {i}");
        assert_eq!(x.per_pattern, y.per_pattern, "{what}: per-pattern streams of stream {i}");
        assert_eq!(
            x.seconds().to_bits(),
            y.seconds().to_bits(),
            "{what}: modelled seconds of stream {i}"
        );
        assert_eq!(
            x.metrics.cost.seconds.to_bits(),
            y.metrics.cost.seconds.to_bits(),
            "{what}: cost seconds of stream {i}"
        );
        assert_eq!(
            x.metrics.cost.barrier_stall_frac.to_bits(),
            y.metrics.cost.barrier_stall_frac.to_bits(),
            "{what}: barrier stall of stream {i}"
        );
        // Per-CTA metrics carry the engine's compile-time pass record,
        // whose wall-clock nanos legitimately differ between separately
        // compiled engines; everything else must agree to the bit.
        assert_eq!(
            x.metrics.ctas.len(),
            y.metrics.ctas.len(),
            "{what}: metric count of stream {i}"
        );
        for (mx, my) in x.metrics.ctas.iter().zip(&y.metrics.ctas) {
            let (mut mx, mut my) = (mx.clone(), my.clone());
            mx.passes.rebalance_nanos = 0;
            mx.passes.zbs_nanos = 0;
            my.passes.rebalance_nanos = 0;
            my.passes.zbs_nanos = 0;
            assert_eq!(mx, my, "{what}: metrics of stream {i}");
        }
        assert_eq!(
            x.throughput_mbps().to_bits(),
            y.throughput_mbps().to_bits(),
            "{what}: throughput of stream {i}"
        );
    }
}

/// Asserts every report's per-CTA metrics are what the CTA emulator counts
/// running each group's stream twin under `BatchPlan::new(.., scheme)` on
/// the engine's scheme (untransformed below SR), and that exactly the
/// groups the scan did not walk built a plan.
fn assert_ctas_are_emulated(engine: &BitGen, inputs: &[&[u8]], reports: &[ScanReport]) {
    let c = engine.config();
    let config = ExecConfig {
        scheme: c.scheme,
        threads: c.threads,
        merge_size: c.merge_size,
        interval: c.interval,
        max_regs: c.max_regs,
        fallback: c.fallback,
        ..ExecConfig::default()
    };
    let twins = engine.stream_programs().iter();
    let plans: Vec<BatchPlan> = twins.map(|p| BatchPlan::new(p.program().clone(), &config)).collect();
    let (ctl, mut scratch) = (RunControl::unlimited(), ExecScratch::new());
    for (input, report) in inputs.iter().zip(reports) {
        let basis = Basis::transpose(input);
        for (group, (plan, cta)) in plans.iter().zip(&report.metrics.ctas).enumerate() {
            let emulated = plan.execute(&basis, &config, &mut scratch, &ctl).unwrap();
            assert_eq!(cta, &emulated.metrics, "group {group} over {} bytes", input.len());
        }
    }
    for group in 0..engine.group_count() {
        assert_eq!(engine.batch_plan(group).is_some(), !walks(engine, group), "group {group}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn parallel_scan_is_bit_identical_to_sequential(
        asts in prop::collection::vec(arb_ast(), 1..5),
        streams in arb_streams(),
        combine in prop::sample::select(vec![false, true]),
    ) {
        let patterns: Vec<String> = asts.iter().map(Ast::to_string).collect();
        let pats: Vec<&str> = patterns.iter().map(String::as_str).collect();
        let slices: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        // Every case runs on each: ZBS emulates its CTAs, DTM- walks them,
        // and DTM walks the groups whose kernel has no loop.
        for scheme in [Scheme::Zbs, Scheme::DtmStatic, Scheme::Dtm] {
            let base = EngineConfig::default()
                .with_cta_count(3)
                .with_combine_outputs(combine)
                .with_scheme(scheme);

            let engine = BitGen::compile_with(&pats, base.clone().with_threads(1)).unwrap();
            let sequential = engine.find_many(&slices).unwrap();
            if scheme != Scheme::Zbs {
                assert_ctas_are_emulated(&engine, &slices, &sequential);
            }
            for threads in [2, 5, 16] {
                let engine =
                    BitGen::compile_with(&pats, base.clone().with_threads(threads)).unwrap();
                let parallel = engine.find_many(&slices).unwrap();
                let what = format!("{scheme}, {threads} threads");
                assert_reports_identical(&sequential, &parallel, &what);
            }
        }
    }

    #[test]
    fn session_reuse_is_stable_and_identical(
        ast in arb_ast(),
        streams in arb_streams(),
    ) {
        let pattern = ast.to_string();
        let slices: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        let engine = BitGen::compile_with(
            &[pattern.as_str()],
            EngineConfig::default().with_threads(4),
        )
        .unwrap();
        let mut session = engine.session();
        let first = session.scan_many(&slices).unwrap();
        let warm_capacity = session.buffer_capacity_words();
        for round in 0..2 {
            let again = session.scan_many(&slices).unwrap();
            assert_reports_identical(&first, &again, &format!("rescan {round}"));
            assert_eq!(
                session.buffer_capacity_words(),
                warm_capacity,
                "buffers grew on same-sized rescan {round}"
            );
        }
    }
}
