//! The extension features in combination: pattern optimisation, case
//! folding, MatchStar, log-repetition, streaming, and MIMD batches must
//! compose — any combination yields the same matches as the plain
//! paper-faithful configuration.

use bitgen::{BitGen, EngineConfig};
use bitgen_workloads::{generate, AppKind, WorkloadConfig};

fn reference(pats: &[&str], input: &[u8]) -> Vec<usize> {
    BitGen::compile(pats).unwrap().find(input).unwrap().matches.positions()
}

#[test]
fn lowering_extensions_compose() {
    let pats = ["a(bc)*d", "x[0-9]{6}y", "[a-f]*z", "attack|attempt|atrophy"];
    let input = b"abcbcd x123456y aaaz attack attempt atrophy";
    let expect = reference(&pats, input);
    for match_star in [false, true] {
        for log_repetition in [false, true] {
            for optimize_patterns in [false, true] {
                let config = EngineConfig {
                    match_star,
                    log_repetition,
                    optimize_patterns,
                    ..EngineConfig::default()
                };
                let engine = BitGen::compile_with(&pats, config).unwrap();
                let got = engine.find(input).unwrap().matches.positions();
                assert_eq!(
                    got, expect,
                    "ms={match_star} lr={log_repetition} opt={optimize_patterns}"
                );
            }
        }
    }
}

#[test]
fn extensions_on_generated_workloads() {
    for kind in [AppKind::Brill, AppKind::ClamAv, AppKind::Ranges1] {
        let w = generate(
            kind,
            &WorkloadConfig { regexes: 8, input_len: 6000, ..WorkloadConfig::default() },
        );
        let plain = BitGen::from_asts(w.asts.clone(), EngineConfig::default())
            .expect("workloads compile within budget");
        let expect = plain.find(&w.input).unwrap().matches.positions();
        let extended = BitGen::from_asts(
            w.asts.clone(),
            EngineConfig {
                match_star: true,
                log_repetition: true,
                optimize_patterns: true,
                ..EngineConfig::default()
            },
        )
        .expect("workloads compile within budget");
        let got = extended.find(&w.input).unwrap().matches.positions();
        assert_eq!(got, expect, "{kind:?}");
    }
}

#[test]
fn optimizer_shrinks_generated_programs() {
    // Protomata-style alternation-heavy sets benefit from prefix factoring.
    let pats = [
        "attack_one_x", "attack_one_y", "attack_two_x", "attack_two_y",
        "defend_one_x", "defend_one_y",
    ];
    let raw = BitGen::compile_with(
        &pats,
        EngineConfig { optimize_patterns: false, cta_count: 1, ..EngineConfig::default() },
    )
    .unwrap();
    let opt = BitGen::compile_with(
        &pats,
        EngineConfig { optimize_patterns: true, cta_count: 1, ..EngineConfig::default() },
    )
    .unwrap();
    // Cross-rule prefix factoring: the factored group shares the
    // attack_/defend_ chains instead of recomputing them per rule.
    let (opt_ops, raw_ops) = (opt.batch(0).program().op_count(), raw.batch(0).program().op_count());
    assert!(opt_ops < raw_ops, "{opt_ops} vs {raw_ops}");
    let input = b"attack_one_x defend_one_y attack_two_y xx";
    assert_eq!(
        raw.find(input).unwrap().matches.positions(),
        opt.find(input).unwrap().matches.positions()
    );
}

#[test]
fn streaming_composes_with_lowering_extensions() {
    let config = EngineConfig {
        log_repetition: true,
        optimize_patterns: true,
        ..EngineConfig::default()
    };
    let engine = BitGen::compile_with(&["ab{4,6}c", "zz"], config).unwrap();
    let input = b"abbbbc zz abbbbbbc ab";
    let batch: Vec<u64> =
        engine.find(input).unwrap().matches.positions().iter().map(|&p| p as u64).collect();
    let mut scanner = engine.streamer().unwrap();
    let mut streamed = Vec::new();
    for chunk in input.chunks(3) {
        streamed.extend(scanner.push(chunk).unwrap());
    }
    assert_eq!(streamed, batch);
}

#[test]
fn case_insensitive_composes_with_batches() {
    let config = EngineConfig { case_insensitive: true, ..EngineConfig::default() };
    let engine = BitGen::compile_with(&["warn", "FATAL"], config).unwrap();
    let inputs: [&[u8]; 2] = [b"WARN fatal", b"Fatal warning"];
    let reports = engine.find_many(&inputs).unwrap();
    assert_eq!(reports[0].match_count(), 2);
    assert_eq!(reports[1].match_count(), 2);
}
