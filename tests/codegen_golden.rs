//! Kernel generation is pinned: every kernel the served price and the
//! batch path compile, on every application's rule set, hashes to the
//! digest captured before code generation was rewritten for speed. A
//! faster code generator must emit the same kernels, register for
//! register, and the same scheduling statistics — whether one
//! [`Compiler`] builds an engine's class circuits once for all its
//! kernels or [`compile`] builds them per kernel.

use bitgen::{BitGen, EngineConfig};
use bitgen_exec::{segment_program, Scheme, SegmentKind};
use bitgen_ir::{fnv1a, Program, FNV_OFFSET};
use bitgen_kernel::{compile, CodegenOptions, Compiled, Compiler};
use bitgen_workloads::{generate, AppKind, WorkloadConfig};

fn engine_for(kind: AppKind, rules: usize) -> BitGen {
    let workload = generate(
        kind,
        &WorkloadConfig { regexes: rules, input_len: 64, seed: 0xb17, witness_density: 0.05 },
    );
    let patterns: Vec<&str> = workload.patterns.iter().map(String::as_str).collect();
    BitGen::compile_with(&patterns, EngineConfig::default())
        .unwrap_or_else(|e| panic!("{}: {e}", kind.name()))
}

fn fold(digest: u64, compiled: &Compiled) -> u64 {
    fnv1a(digest, format!("{:?}{:?}", compiled.kernel, compiled.stats).as_bytes())
}

#[test]
fn generated_kernels_are_golden() {
    let (mut digest, mut kernels) = (FNV_OFFSET, 0);
    for (kind, rules) in AppKind::ALL.into_iter().flat_map(|kind| [(kind, 8), (kind, 32)]) {
        let engine = engine_for(kind, rules);
        let mut compiler = Compiler::default();
        for (group, prepared) in engine.stream_programs().iter().enumerate() {
            // The stream twin's DTM- segments, at DTM-'s merge size of one,
            // through the engine's one compiler.
            let twin = prepared.program();
            for seg in segment_program(twin, Scheme::DtmStatic) {
                if seg.kind == SegmentKind::Fused {
                    let sub = Program::new(seg.stmts, twin.num_streams(), seg.outputs.clone());
                    let options = CodegenOptions { merge_size: 1 };
                    let compiled = compiler.compile(&sub, &seg.inputs, &seg.outputs, &options);
                    digest = fold(digest, &compiled);
                    kernels += 1;
                }
            }
            // The batch side's transformed program, whole, at merge size 8,
            // on its own.
            let batch = engine.batch(group).program();
            digest = fold(digest, &compile(batch, &[], &[], &CodegenOptions { merge_size: 8 }));
            kernels += 1;
        }
    }
    assert_eq!((kernels, digest), (729, 13164030541374990250));
}
