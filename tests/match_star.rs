//! The MatchStar extension under interleaved GPU execution: long-addition
//! carry chains are a second kind of cross-block dependency, and the
//! window machinery (dynamic tracking, retry, fallback) must handle them
//! exactly as it handles loop trips.

use bitgen::{BitGen, EngineConfig, Scheme};
use bitgen_bitstream::Basis;
use bitgen_exec::{execute, BatchPlan, ExecConfig};
use bitgen_ir::{interpret, lower_group_with, LowerOptions};
use bitgen_regex::{multi_match_ends, parse, Ast};

fn asts(pats: &[&str]) -> Vec<Ast> {
    pats.iter().map(|p| parse(p).unwrap()).collect()
}

#[test]
fn match_star_agrees_across_all_schemes() {
    let cases: &[(&[&str], &[u8])] = &[
        (&["a[b-d]*e"], b"abcde ae abbbde xx"),
        (&["x.*y", "[0-9]+z"], b"x12y 9z\nxqqy 42z"),
        (&["q[ab]*[cd]*e"], b"qe qabcde qaabbe qacace"),
    ];
    for (pats, input) in cases {
        let a = asts(pats);
        let expect = multi_match_ends(&a, input);
        let prog = lower_group_with(&a, LowerOptions { match_star: true, ..LowerOptions::default() });
        let basis = Basis::transpose(input);
        assert_eq!(
            interpret(&prog, &basis).union().resized(input.len()).positions(),
            expect,
            "{pats:?}: interpreter"
        );
        for scheme in Scheme::ALL {
            let config = ExecConfig { scheme, threads: 2, ..ExecConfig::default() };
            let out = execute(&prog, &basis, &config).unwrap();
            assert_eq!(
                out.union().resized(input.len()).positions(),
                expect,
                "{pats:?} under {scheme}"
            );
        }
    }
}

#[test]
fn carry_chain_across_window_boundary() {
    // A run of the starred class long enough to span several 64-bit
    // windows: the carry chain must be recomputed via dynamic overlap.
    let mut input = b"b".to_vec();
    input.extend(vec![b'a'; 40]);
    input.push(b'c');
    input.extend(b"xxxx");
    let a = asts(&["ba*c"]);
    let expect = multi_match_ends(&a, &input);
    assert_eq!(expect, vec![41]);
    let prog = lower_group_with(&a, LowerOptions { match_star: true, ..LowerOptions::default() });
    let basis = Basis::transpose(&input);
    let config = ExecConfig {
        scheme: Scheme::Dtm,
        threads: 2,
        dynamic_allowance: 0,
        ..ExecConfig::default()
    };
    let out = execute(&prog, &basis, &config).unwrap();
    assert_eq!(out.outputs[0].positions(), expect);
    assert!(
        out.metrics.retries > 0 || out.metrics.fallbacks > 0,
        "a 40-bit carry chain in a 64-bit window must trigger dynamic handling: {:?}",
        out.metrics
    );
}

#[test]
fn carry_overflow_falls_back() {
    // Run longer than the entire window: sequential fallback required.
    let mut input = b"b".to_vec();
    input.extend(vec![b'a'; 300]);
    input.push(b'c');
    let a = asts(&["ba*c"]);
    let prog = lower_group_with(&a, LowerOptions { match_star: true, ..LowerOptions::default() });
    let basis = Basis::transpose(&input);
    let config = ExecConfig { scheme: Scheme::Zbs, threads: 2, ..ExecConfig::default() };
    let out = execute(&prog, &basis, &config).unwrap();
    assert_eq!(out.outputs[0].positions(), vec![301]);
    assert!(out.metrics.fallbacks > 0, "expected fallback: {:?}", out.metrics);
}

#[test]
fn engine_level_match_star_option() {
    let pats = ["ERROR [a-z_]*:", "[0-9]*x"];
    let input = b"ERROR db_pool: 42x ERROR : x";
    let plain = BitGen::compile_with(&pats, EngineConfig::default()).unwrap();
    let star = BitGen::compile_with(
        &pats,
        EngineConfig { match_star: true, ..EngineConfig::default() },
    )
    .unwrap();
    assert_eq!(
        plain.find(input).unwrap().matches.positions(),
        star.find(input).unwrap().matches.positions()
    );
    // One program per group under either config: the batch side is built
    // from the very lowering the engine streams.
    for engine in [&plain, &star] {
        let c = engine.config();
        let exec = ExecConfig {
            scheme: c.scheme,
            threads: c.threads,
            merge_size: c.merge_size,
            interval: c.interval,
            max_regs: c.max_regs,
            fallback: c.fallback,
            cross_check: c.cross_check,
            ..ExecConfig::default()
        };
        for (g, streamed) in engine.stream_programs().iter().enumerate() {
            let rebuilt = BatchPlan::build(streamed.program(), &exec);
            assert_eq!(engine.batch(g).program(), rebuilt.program(), "group {g}");
        }
    }
    // The MatchStar engine compiled away every loop, on both sides.
    let loops = |engine: &BitGen| -> usize {
        (0..engine.group_count()).map(|g| engine.batch(g).program().while_count()).sum()
    };
    assert_eq!(loops(&star), 0);
    assert!(loops(&plain) > 0);
    assert!(star.stream_programs().iter().all(|p| p.program().while_count() == 0));
}

#[test]
fn match_star_reduces_work_on_star_heavy_patterns() {
    // Star-heavy input: the loop version pays per-trip barriers, the
    // MatchStar version one carry scan.
    let input: Vec<u8> = b"x_aaaaaaaaaaaaaaaa_y ".iter().cycle().take(4096).copied().collect();
    let pats = ["x.a*.y"];
    let run = |match_star: bool| {
        let engine = BitGen::compile_with(
            &pats,
            EngineConfig { match_star, threads: 16, ..EngineConfig::default() },
        )
        .unwrap();
        let r = engine.find(&input).unwrap();
        (r.matches.count_ones(), r.metrics.ctas[0].counters.barriers, r.seconds())
    };
    let (m_loop, barriers_loop, sec_loop) = run(false);
    let (m_star, barriers_star, sec_star) = run(true);
    assert_eq!(m_loop, m_star);
    assert!(
        barriers_star < barriers_loop,
        "MatchStar should avoid per-trip barriers: {barriers_star} vs {barriers_loop}"
    );
    assert!(sec_star < sec_loop, "modelled time should drop: {sec_star} vs {sec_loop}");
}
