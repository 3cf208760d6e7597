//! One window semantics (DESIGN.md §10, "Sequential semantics"): a CTA
//! window of Dependency-Aware Thread-Data Mapping is the walker run over
//! the window's extent, `bitgen_ir::walk_window`. Each group's stream twin
//! is planned as the served price plans it (`plan_segments` at DTM, merge
//! size one) and its windows stepped by the engine's own window loop on
//! the CTA emulator; every window, retries included, takes the trips per
//! site that `walk_window` counts over the same extent, and every stored
//! window's valid region holds the outputs `walk_window` computes there.
//! The counting runner's arm, and its list of divergent windows, is
//! `price.rs`'s `every_counted_window_is_its_walk_window`.

use bitgen::{BitGen, EngineConfig, ExecConfig, Scheme};
use bitgen_bitstream::{Basis, BitStream};
use bitgen_exec::plan_segments;
use bitgen_gpu::{Cta, CtaCounters, WindowInputs};
use bitgen_ir::{walk_window, InterpResult, Program};
use bitgen_kernel::Compiler;
use bitgen_passes::{Hull, Overflow, OverlapInfo, WindowRunner, WindowTally};
use bitgen_workloads::{generate, AppKind, WorkloadConfig};

/// The emulator's window loop, each window checked against its walk.
struct Checked<'a> {
    cta: Cta<'a>,
    basis: &'a Basis,
    program: &'a Program,
    info: &'a OverlapInfo,
    bits: u64,
    /// Per kernel output, its index among the program's outputs.
    outputs: Vec<usize>,
    /// The last window's walk.
    walked: Option<InterpResult>,
    counters: CtaCounters,
    windows: u64,
    what: String,
}

impl WindowRunner for Checked<'_> {
    type Error = Overflow;

    fn run(&mut self, start: i64, _: u64, _: u64) -> Result<(u64, Hull), Overflow> {
        let inputs = WindowInputs { basis: self.basis.streams(), globals: &[] };
        self.cta.run_window(inputs, start, &mut self.counters).expect("the kernel keeps barriers");
        let walked = walk_window(self.program, self.basis, start..start + self.bits as i64)
            .expect("the window walks");
        let what = &self.what;
        assert_eq!(self.cta.loop_trips(), walked.trips, "{what}: trips of the window at {start}");
        self.walked = Some(walked);
        self.windows += 1;
        Ok((1, self.info.required(self.cta.loop_trips())))
    }

    fn store(&mut self, start: i64, from: u64, to: u64) {
        let walked = self.walked.as_ref().expect("a stored window ran");
        let (at, len) = ((from as i64 - start) as usize, (to - from) as usize);
        for (words, &output) in self.cta.output_words().zip(&self.outputs) {
            let pairs = words.chunks(2).map(|w| u64::from(w[0]) | u64::from(w[1]) << 32);
            let emulated = BitStream::from_words(pairs.collect(), self.bits as usize);
            let what = &self.what;
            assert!(
                emulated.slice(at, len) == walked.outputs[output].slice(at, len),
                "{what}: output {output} of the window at {start}, stored over {from}..{to}"
            );
        }
    }
}

/// The executor configuration of `engine`.
fn exec_config(engine: &BitGen) -> ExecConfig {
    let config = engine.config();
    ExecConfig {
        scheme: config.scheme,
        threads: config.threads,
        merge_size: config.merge_size,
        interval: config.interval,
        max_regs: config.max_regs,
        fallback: config.fallback,
        ..ExecConfig::default()
    }
}

/// Checks every window of every group of `engine` over `input` at each
/// chunk; returns the windows run and how many of them were retries.
fn check_windows(engine: &BitGen, input: &[u8], what: &str) -> (u64, u64) {
    let config = exec_config(engine);
    let window = config.window();
    let (mut compiler, mut ran) = (Compiler::default(), (0, 0));
    for (group, prepared) in engine.stream_programs().iter().enumerate() {
        let program = prepared.program();
        let (segments, _) = plan_segments(program, (Scheme::Dtm, 1), &mut compiler, |plan| plan);
        let [(seg, Some(plan))] = &segments[..] else { panic!("DTM fuses the whole program") };
        let kernel = &plan.compiled.kernel;
        let position = |id| program.outputs().iter().position(|&out| out == id);
        for len in [64, 4096, 65536] {
            let basis = Basis::transpose(&input[..len]);
            let mut checked = Checked {
                cta: Cta::new(kernel, config.threads),
                basis: &basis,
                program,
                info: &plan.info,
                bits: window.bits,
                outputs: seg.outputs.iter().map(|&id| position(id).unwrap()).collect(),
                walked: None,
                counters: CtaCounters::new(kernel.num_sites as usize),
                windows: 0,
                what: format!("{what} group {group} at {len}"),
            };
            let mut tally = WindowTally::default();
            let stream_len = Program::stream_len(len) as u64;
            // An overflow stops the segment; what ran was checked.
            let _ = window.run(&plan.info, stream_len, &mut tally, &mut checked);
            assert_eq!(checked.windows, tally.iterations, "{}", checked.what);
            ran = (ran.0 + tally.iterations, ran.1 + tally.retries);
        }
    }
    ran
}

#[test]
fn every_emulated_window_is_its_walk_window() {
    let (mut windows, mut retries) = (0, 0);
    for (kind, rules) in AppKind::ALL.into_iter().flat_map(|kind| [(kind, 8), (kind, 32)]) {
        let (regexes, input_len, seed) = (rules, 65536, 0xb17);
        let w = generate(kind, &WorkloadConfig { regexes, input_len, seed, witness_density: 0.05 });
        let patterns: Vec<&str> = w.patterns.iter().map(String::as_str).collect();
        let engine = BitGen::compile_with(&patterns, EngineConfig::default()).unwrap();
        let what = format!("{} ×{rules}", kind.name());
        let (ran, retried) = check_windows(&engine, &w.input, &what);
        (windows, retries) = (windows + ran, retries + retried);
    }
    println!("{windows} emulated windows, {retries} of them retries, each its walk_window");
    assert!(retries > 0, "the sweep takes retries, so retried windows are checked too");
}
