//! A CTA's files are reused, never wiped: from window to window of one
//! kernel, and from kernel to kernel through one `CtaFiles` set, as the
//! batch executor runs them. A window zeroes only the entries its kernel's
//! `KernelFacts` name as exposed, so no value written in one window may be
//! readable in the next: every window of a reused `Cta` must compute
//! exactly what a fresh `Cta` computes for that window alone.

use bitgen::{BitGen, EngineConfig};
use bitgen_bitstream::Basis;
use bitgen_exec::{apply_transforms, segment_program, ExecConfig, Scheme, SegmentKind};
use bitgen_gpu::{Cta, CtaCounters, CtaFiles, KernelFacts, WindowInputs};
use bitgen_ir::{lower_group, Program};
use bitgen_kernel::{compile, CodegenOptions, Compiler, Kernel};
use bitgen_workloads::{generate, AppKind, WorkloadConfig};

/// What one window left: its output words, counters and per-site trips.
type Window = (Vec<Vec<u32>>, CtaCounters, Vec<u64>);

fn run(cta: &mut Cta<'_>, basis: &Basis, start: i64, sites: usize) -> Window {
    let mut counters = CtaCounters::new(sites);
    let inputs = WindowInputs { basis: basis.streams(), globals: &[] };
    cta.run_window(inputs, start, &mut counters).expect("generated kernels are race-free");
    (cta.output_words().map(<[u32]>::to_vec).collect(), counters, cta.loop_trips().to_vec())
}

/// Every kernel `kind`'s rules generate: each group of four rules lowered,
/// transformed under DTM, SR and ZBS, and compiled whole.
fn kernels(kind: AppKind, input_len: usize) -> (Vec<Kernel>, Vec<u8>) {
    let config = WorkloadConfig { regexes: 8, input_len, seed: 0xb17, witness_density: 0.1 };
    let workload = generate(kind, &config);
    let mut kernels = Vec::new();
    for group in workload.asts.chunks(4) {
        for scheme in [Scheme::Dtm, Scheme::Sr, Scheme::Zbs] {
            let mut program = lower_group(group);
            apply_transforms(&mut program, &ExecConfig::for_scheme(scheme));
            let merge_size = if scheme.uses_barrier_merging() { 8 } else { 1 };
            kernels.push(compile(&program, &[], &[], &CodegenOptions { merge_size }).kernel);
        }
    }
    (kernels, workload.input)
}

#[test]
fn a_reused_cta_computes_what_a_fresh_one_does_on_every_window() {
    let mut files = CtaFiles::default();
    // Windows whose guards skipped or whose loops took no trip right
    // after a window where they ran: the case stale state would show in.
    let (mut went_quiet, mut loops_stopped) = (0, 0);
    for kind in AppKind::ALL {
        let (kernels, input) = kernels(kind, 700);
        let basis = Basis::transpose(&input);
        let len = Program::stream_len(input.len()) as i64;
        for kernel in &kernels {
            let facts = KernelFacts::of(kernel);
            let sites = kernel.num_sites as usize;
            for threads in [1, 2, 8, 64] {
                let w = 32 * threads as i64;
                // Negative, unaligned and past-the-end starts, each
                // past-the-end window after one over the input.
                let starts = [0, len + 7, -w / 2 - 3, len / 3 + 5, len + w + 64, -w - 31, len - 5];
                let mut cta = Cta::with_files(kernel, &facts, threads, files);
                let mut last: Option<Window> = None;
                for start in starts {
                    let reused = run(&mut cta, &basis, start, sites);
                    let fresh = run(&mut Cta::new(kernel, threads), &basis, start, sites);
                    assert_eq!(reused, fresh, "{kind:?}, {threads} threads, window at {start}");
                    if let Some((_, before, trips)) = &last {
                        went_quiet += usize::from(reused.1.skipped_ops > before.skipped_ops);
                        let stopped = trips.iter().zip(&reused.2).any(|(&a, &b)| a > 0 && b == 0);
                        loops_stopped += usize::from(stopped);
                    }
                    last = Some(reused);
                }
                files = cta.into_files();
            }
        }
    }
    assert!(went_quiet > 0 && loops_stopped > 0, "{went_quiet} / {loops_stopped}");
}

#[test]
fn the_snort_batch_kernels_expose_nothing_and_share_register_rows() {
    // The kernels a Snort ×32 batch scan runs, built as its plan builds
    // them: their windows zero nothing, and their register files hold under
    // a sixth of the registers they name (34–40 rows of 262–289).
    let workload = generate(
        AppKind::Snort,
        &WorkloadConfig { regexes: 32, input_len: 64, seed: 0xb17, witness_density: 0.05 },
    );
    let patterns: Vec<&str> = workload.patterns.iter().map(String::as_str).collect();
    let engine = BitGen::compile_with(&patterns, EngineConfig::default()).expect("rules compile");
    let mut compiler = Compiler::default();
    let mut fused = 0;
    for group in 0..engine.group_count() {
        let program = engine.batch(group).program();
        for seg in segment_program(program, Scheme::Zbs) {
            if seg.kind == SegmentKind::Fused {
                let sub = Program::new(seg.stmts, program.num_streams(), seg.outputs.clone());
                let options = CodegenOptions { merge_size: 8 };
                let kernel = compiler.compile(&sub, &seg.inputs, &seg.outputs, &options).kernel;
                let facts = KernelFacts::of(&kernel);
                let none: [&[u32]; 3] = [&[], &[], &[]];
                assert_eq!(facts.exposed(), none, "group {group}");
                assert!(facts.register_rows() * 6 < kernel.num_regs, "group {group}");
                fused += 1;
            }
        }
    }
    assert!(fused >= engine.group_count());
}
