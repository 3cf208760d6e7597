//! Property-based pipeline validation: random regexes over a small
//! alphabet, random inputs, four independent implementations — the
//! set-based oracle, the whole-stream interpreter, interleaved GPU
//! execution, and the Glushkov NFA — must all agree.

use bitgen_baselines::MultiNfa;
use bitgen_bitstream::Basis;
use bitgen_exec::{
    execute, execute_prepared_with, BatchPlan, ExecConfig, ExecError, ExecMetrics, ExecOutcome,
    ExecScratch, PassMetrics, RunControl, Scheme,
};
use bitgen_ir::{interpret, lower};
use bitgen_regex::{match_ends, parse, Ast, ByteSet};
use proptest::prelude::*;

/// Random AST over the alphabet {a, b, c}, with bounded depth and size.
fn arb_ast() -> impl Strategy<Value = Ast> {
    let leaf = prop_oneof![
        prop::sample::select(vec![b'a', b'b', b'c']).prop_map(|b| Ast::Class(ByteSet::singleton(b))),
        prop::sample::select(vec![(b'a', b'b'), (b'b', b'c'), (b'a', b'c')])
            .prop_map(|(lo, hi)| Ast::Class(ByteSet::range(lo, hi))),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Ast::Concat),
            prop::collection::vec(inner.clone(), 2..3).prop_map(Ast::Alt),
            inner.clone().prop_map(|a| Ast::Star(Box::new(a))),
            inner.clone().prop_map(|a| Ast::Plus(Box::new(a))),
            inner.clone().prop_map(|a| Ast::Opt(Box::new(a))),
            (inner, 1u32..3, 0u32..3).prop_map(|(a, min, extra)| Ast::Repeat {
                node: Box::new(a),
                min,
                max: Some(min + extra),
            }),
        ]
    })
}

fn arb_input() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(b"aabbccdx".to_vec()), 0..120)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn four_implementations_agree(ast in arb_ast(), input in arb_input()) {
        let expect = match_ends(&ast, &input);

        // Whole-stream interpreter.
        let prog = lower(&ast);
        let basis = Basis::transpose(&input);
        let interp_ends = interpret(&prog, &basis).outputs[0].positions();
        prop_assert_eq!(&interp_ends, &expect, "interpreter vs oracle for {}", ast);

        // Interleaved GPU execution (full BitGen and plain DTM).
        for scheme in [Scheme::Zbs, Scheme::Dtm] {
            let config = ExecConfig { scheme, threads: 2, ..ExecConfig::default() };
            let out = execute(&prog, &basis, &config).unwrap();
            prop_assert_eq!(
                &out.outputs[0].positions(), &expect,
                "{} vs oracle for {}", scheme, ast
            );
        }

        // Glushkov NFA.
        let nfa_ends = MultiNfa::build(std::slice::from_ref(&ast)).run(&input).ends.positions();
        prop_assert_eq!(&nfa_ends, &expect, "nfa vs oracle for {}", ast);
    }

    #[test]
    fn resident_plan_and_one_shot_door_agree(ast in arb_ast(), input in arb_input()) {
        // One body, two doors: a plan built once and run many times gives
        // what `execute_prepared_with`, which plans per call, gives —
        // outputs and every metric — at any CTA width (a plan is specific
        // to the scheme and merge size only).
        let basis = Basis::transpose(&input);
        let ctl = RunControl::unlimited();
        for scheme in Scheme::ALL {
            let plan = BatchPlan::build(&lower(&ast), &ExecConfig::for_scheme(scheme));
            let mut scratch = ExecScratch::new();
            for threads in [2, 8, 64, 2] {
                let config = ExecConfig { scheme, threads, ..ExecConfig::default() };
                let one_shot = execute_prepared_with(
                    plan.program(), &basis, &config, &mut ExecScratch::new(), None,
                );
                let resident = plan.execute(&basis, &config, &mut scratch, &ctl);
                // Each door reports its own plan's transform record: the
                // resident plan ran them, the one-shot door took the
                // program as given.
                let fields = |run: Result<ExecOutcome, ExecError>, passes: PassMetrics| {
                    run.map(|out| {
                        assert_eq!(out.metrics.passes, passes);
                        let metrics = ExecMetrics { passes: PassMetrics::default(), ..out.metrics };
                        (out.outputs, metrics, out.fault_fired)
                    })
                };
                prop_assert_eq!(
                    fields(resident, *plan.passes()), fields(one_shot, PassMetrics::default()),
                    "{} at {} threads for {}", scheme, threads, ast
                );
            }
        }
    }

    #[test]
    fn display_parse_round_trip(ast in arb_ast()) {
        let printed = ast.to_string();
        let reparsed = parse(&printed);
        prop_assert!(reparsed.is_ok(), "{printed:?} fails to reparse: {:?}", reparsed.err());
        // Languages must agree (structural equality can differ after
        // normalisation, so compare behaviour).
        let reparsed = reparsed.unwrap();
        for input in [&b""[..], b"abc", b"aabbcc", b"cabcab"] {
            prop_assert_eq!(
                match_ends(&ast, input),
                match_ends(&reparsed, input),
                "round trip changes matches of {:?}", printed
            );
        }
    }

    #[test]
    fn optimizer_preserves_language(ast in arb_ast(), input in arb_input()) {
        let opt = bitgen_regex::optimize(&ast);
        prop_assert_eq!(
            match_ends(&opt, &input),
            match_ends(&ast, &input),
            "optimize changed {} into {}", ast, opt
        );
    }

    #[test]
    fn rebalancing_and_zbs_preserve_any_program(ast in arb_ast(), input in arb_input()) {
        use bitgen_passes::{insert_zero_skips, rebalance, ZbsConfig};
        let prog = lower(&ast);
        let basis = Basis::transpose(&input);
        let expect = interpret(&prog, &basis).outputs[0].positions();
        let mut transformed = prog.clone();
        rebalance(&mut transformed);
        insert_zero_skips(&mut transformed, ZbsConfig { interval: 3, min_range: 2 });
        let got = interpret(&transformed, &basis).outputs[0].positions();
        prop_assert_eq!(got, expect, "transforms changed semantics of {}", ast);
    }
}
