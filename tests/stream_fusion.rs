//! The served window against its specification.
//!
//! A streaming window refines the walker's small steps (DESIGN.md §10,
//! "Stream plan"): class streams are read where the shared circuit left
//! them, and a chain of single-reader `&`/`>>` links runs as one pass
//! whose intermediate values are never stored. None of that may be
//! visible: on every application's rule set, at chunk sizes on both sides
//! of a word and of a word-group and at the served 64 KiB, over a carried
//! multi-push stream, the window must leave the outputs, the carry state
//! and every counted event of the walk that takes each statement singly —
//! and the outputs and carry of the reference interpreter.
//!
//! The coverage gate at the end keeps a lowering change from silently
//! un-fusing the served rule set.

use bitgen::{BitGen, EngineConfig, ExecConfig, FaultKind, FaultPlan, Scheme};
use bitgen_bitstream::{Basis, BitStream, ClassCircuit};
use bitgen_exec::{execute_prepared_with, ClassStreams, ExecScratch, PreparedProgram};
use bitgen_ir::{fnv1a, try_interpret_chunk, CarryState, Op, RunControl, FNV_OFFSET};
use bitgen_workloads::{generate, AppKind, WorkloadConfig};

/// A fault that never fires: an armed window takes every statement
/// singly, so this is the unfused walk through the public door.
const SINGLE_STEPS: FaultPlan = FaultPlan { kind: FaultKind::SmemFlip, trigger: u32::MAX, seed: 0 };

fn engine_for(kind: AppKind, rules: usize, input_len: usize) -> (BitGen, Vec<u8>) {
    let workload = generate(
        kind,
        &WorkloadConfig { regexes: rules, input_len, seed: 0xb17, witness_density: 0.05 },
    );
    let patterns: Vec<&str> = workload.patterns.iter().map(String::as_str).collect();
    let engine = BitGen::compile_with(&patterns, EngineConfig::default())
        .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    (engine, workload.input)
}

/// Streams `pushes` chunks of `chunk` bytes through every group of
/// `engine` four ways — fused and every statement singly through the
/// engine's door, fused through the one-shot door that copies each output
/// out, and the reference interpreter — each with its own carry.
fn assert_fused_is_single_stepped(
    kind: AppKind,
    engine: &BitGen,
    input: &[u8],
    chunk: usize,
    pushes: usize,
) {
    let ctl = RunControl::unlimited();
    let fused_config = ExecConfig::default();
    let single_config = ExecConfig { fault: Some(SINGLE_STEPS), ..ExecConfig::default() };
    let programs = engine.stream_programs();
    let fresh = |p: &PreparedProgram| CarryState::for_layout(p.carry_layout());
    let mut fused: Vec<CarryState> = programs.iter().map(fresh).collect();
    let mut single = fused.clone();
    let mut one_shot = fused.clone();
    let mut reference = fused.clone();
    let (mut scratch, mut one_shot_scratch) = (ExecScratch::new(), ExecScratch::new());
    let mut classes = ClassStreams::new();
    for (push, piece) in input.chunks(chunk).take(pushes).enumerate() {
        let basis = Basis::transpose(piece);
        programs[0].evaluate_classes(&basis, &mut classes);
        for (group, prepared) in programs.iter().enumerate() {
            let what = format!("{} group {group} chunk {chunk} push {push}", kind.name());
            let want = try_interpret_chunk(prepared.program(), &basis, &ctl, &mut reference[group])
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            let mut want_union = BitStream::zeros(piece.len());
            want.outputs.iter().for_each(|out| want_union.or_clipped(out));
            let copied = execute_prepared_with(
                prepared.program(),
                &basis,
                &fused_config,
                &mut one_shot_scratch,
                Some(&mut one_shot[group]),
            )
            .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(!copied.fault_fired, "{what}");
            assert_eq!(copied.outputs, want.outputs, "{what}: fused outputs");
            let mut window = |config: &ExecConfig, carry: &mut CarryState| {
                let mut union = BitStream::zeros(piece.len());
                let metrics = prepared
                    .execute_window_into(
                        &classes, &basis, config, &mut scratch, &ctl, carry, &mut union,
                    )
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                (metrics, union)
            };
            let (fused_metrics, fused_union) = window(&fused_config, &mut fused[group]);
            let (single_metrics, single_union) = window(&single_config, &mut single[group]);
            assert_eq!(fused_union, want_union, "{what}: fused union");
            assert_eq!(single_union, want_union, "{what}: single-stepped union");
            assert_eq!(fused_metrics, single_metrics, "{what}: counted events");
            assert_eq!(copied.metrics, fused_metrics, "{what}: one-shot door metrics");
            // Mid-window: what the window accumulated, not yet rotated.
            assert_eq!(fused[group], reference[group], "{what}: fused carry-out");
            assert_eq!(single[group], reference[group], "{what}: single-stepped carry-out");
            assert_eq!(one_shot[group], reference[group], "{what}: one-shot carry-out");
            for carries in [&mut fused, &mut single, &mut one_shot, &mut reference] {
                carries[group].rotate();
            }
            assert_eq!(fused[group].seal(), reference[group].seal(), "{what}: seal");
            assert_eq!(fused[group], single[group], "{what}: boundary");
        }
    }
}

#[test]
fn fused_windows_are_the_single_stepped_walk_on_every_application() {
    for kind in AppKind::ALL {
        let (engine, input) = engine_for(kind, 8, 3 * 4096);
        for chunk in [1usize, 63, 64, 65] {
            assert_fused_is_single_stepped(kind, &engine, &input, chunk, 6);
        }
        assert_fused_is_single_stepped(kind, &engine, &input, 4096, 3);
    }
}

#[test]
fn fused_windows_are_the_single_stepped_walk_at_the_served_chunk_size() {
    // Two carried 64 KiB pushes per application: the window the daemon
    // serves, word-group seams and empty groups included.
    for kind in AppKind::ALL {
        let (engine, input) = engine_for(kind, 4, 2 * 65536);
        assert_fused_is_single_stepped(kind, &engine, &input, 65536, 2);
    }
}

#[test]
fn shared_class_circuits_compute_their_classes_with_no_more_gates() {
    let every_byte: Vec<u8> = (0..=255).collect();
    let basis = Basis::transpose(&every_byte);
    for kind in AppKind::ALL {
        let (engine, _) = engine_for(kind, 16, 64);
        let mut classes: Vec<_> = (engine.stream_programs().iter())
            .flat_map(|p| p.program().classes())
            .collect();
        classes.sort_unstable();
        classes.dedup();
        assert_eq!(classes.len(), engine.stream_programs()[0].class_count(), "{}", kind.name());
        let circuit = ClassCircuit::for_classes(&classes);
        let mut streams = vec![BitStream::zeros(257); classes.len()];
        circuit.eval_into(&basis, &mut streams);
        for (class, stream) in classes.iter().zip(&streams) {
            for byte in 0..=255u8 {
                assert_eq!(
                    stream.get(usize::from(byte)),
                    class.contains(byte),
                    "{}: byte {byte:#04x} of {class:?}",
                    kind.name()
                );
            }
            assert!(!stream.get(256), "{}: peek bit of {class:?}", kind.name());
        }
        let (shared, one_by_one) = engine.stream_programs()[0].class_gates();
        assert_eq!(shared, circuit.gate_count(), "{}", kind.name());
        assert!(shared <= one_by_one, "{}: {shared} shared gates, {one_by_one} alone", kind.name());
    }
}

#[test]
fn the_served_rule_set_stays_fused() {
    // The benchmark's deployment: 32 Snort rules, eight groups.
    let (engine, input) = engine_for(AppKind::Snort, 32, 4096);
    let programs = engine.stream_programs();
    assert_eq!(programs.len(), 8);
    let (mut fused, mut advances, mut matches) = (0, 0, 0);
    for prepared in programs {
        let (f, a) = prepared.fused_advances();
        fused += f;
        advances += a;
        prepared
            .program()
            .for_each_op(&mut |op| matches += usize::from(matches!(op, Op::MatchCc { .. })));
        assert_eq!(prepared.class_copies(), 0, "a window copies no class stream");
        // 27–33 before class streams were read in place.
        assert!(prepared.live_slots() < 27, "{} live slots", prepared.live_slots());
    }
    assert!(matches > 200 && advances > 500, "{matches} class matches, {advances} advances");
    assert!(fused * 5 >= advances * 4, "{fused} of {advances} advances run inside a fused pass");
    // And a window holds no more stream buffers than its plan's slots and
    // the buffer the next value is computed into: nothing was copied out
    // of the class streams, no link was stored.
    let basis = Basis::transpose(&input);
    let mut classes = ClassStreams::new();
    programs[0].evaluate_classes(&basis, &mut classes);
    for prepared in programs {
        let mut scratch = ExecScratch::new();
        let mut carry = CarryState::for_layout(prepared.carry_layout());
        let (config, ctl) = (ExecConfig::default(), RunControl::unlimited());
        let mut union = BitStream::zeros(basis.len());
        prepared
            .execute_window_into(
                &classes, &basis, &config, &mut scratch, &ctl, &mut carry, &mut union,
            )
            .unwrap();
        // The link slot stays empty in a window that fuses.
        let buffers = scratch.pooled_streams();
        assert!(buffers <= prepared.live_slots(), "{buffers} buffers");
    }
}

/// What a served stream's metrics record reduces to: a digest of its
/// summed counters (every field, loop trips included) and the bits of
/// its modelled kernel seconds.
fn served_record(engine: &BitGen, input: &[u8], chunk: usize, pushes: usize) -> (u64, u64) {
    let mut stream = engine.streamer().unwrap();
    for piece in input.chunks(chunk).take(pushes) {
        stream.push(piece).unwrap();
    }
    let metrics = stream.metrics();
    let c = metrics.counters_total();
    let fields = [
        c.alu_ops,
        c.smem_stores,
        c.smem_loads,
        c.barriers,
        c.global_load_words,
        c.global_store_words,
        c.reductions,
        c.skipped_ops,
        c.window_iterations,
    ];
    let words = fields.iter().chain(&c.loop_trips);
    let digest = words.fold(FNV_OFFSET, |hash, word| fnv1a(hash, &word.to_le_bytes()));
    (digest, metrics.kernel_seconds.to_bits())
}

#[test]
fn served_metrics_are_pinned() {
    // Snort and ClamAV ×32 streamed at 64 B, 4 KiB and 64 KiB, billed on
    // the default DTM rung (the fused launch) and on Sequential (the walk's
    // own charges): recorded before a window read its passes from the
    // plan and summed each pass's charges at once, and held since.
    const PINNED: [(u64, u64); 12] = [
        // Snort: DTM at 64 B, 4 KiB, 64 KiB, then Sequential.
        (0xe149_c3db_8361_f46a, 0x3f10_b535_5854_b265),
        (0x7a30_de42_8d4e_040b, 0x3f09_4af6_a0bf_a00a),
        (0x6380_45f2_079f_7b16, 0x3f11_f010_7c75_098f),
        (0xa50b_6441_308e_b561, 0x3f18_91e2_3c3b_6033),
        (0xa770_cab8_1684_883d, 0x3f32_4857_86c5_ab7d),
        (0xd20b_0255_2e4c_c764, 0x3f41_ed1c_8f38_1c8f),
        // ClamAV, likewise.
        (0x2a2d_1dc0_f33e_f7c4, 0x3f33_3dfb_b1ca_a93a),
        (0x427f_41f8_1397_fb1c, 0x3f2c_dcf9_8aaf_fdcf),
        (0x4d01_02d2_4edb_8d21, 0x3f34_71db_6ce7_53c7),
        (0x8691_82d6_dbbe_9ca1, 0x3f39_b175_dcf8_3253),
        (0xc5df_0a76_fea7_a881, 0x3f52_1189_9bc5_730a),
        (0x3ccc_f774_f04a_8703, 0x3f60_cd13_d6f6_90b7),
    ];
    let mut records = Vec::new();
    for kind in [AppKind::Snort, AppKind::ClamAv] {
        let workload = generate(
            kind,
            &WorkloadConfig { regexes: 32, input_len: 2 << 16, seed: 0xb17, witness_density: 0.05 },
        );
        let patterns: Vec<&str> = workload.patterns.iter().map(String::as_str).collect();
        for scheme in [EngineConfig::default().scheme, Scheme::Sequential] {
            let config = EngineConfig::default().with_scheme(scheme);
            let engine = BitGen::compile_with(&patterns, config).unwrap();
            for (chunk, pushes) in [(64, 64), (4096, 16), (1 << 16, 2)] {
                records.push(served_record(&engine, &workload.input, chunk, pushes));
            }
        }
    }
    assert_eq!(records, PINNED);
}
