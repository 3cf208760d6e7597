//! End-to-end agreement on every synthetic evaluation application: the
//! BitGen engine, the NFA baseline, the hybrid baseline, and the CPU
//! bitstream baseline must find exactly the same match positions on the
//! generated inputs of all ten apps.

use bitgen::{BitGen, EngineConfig};
use bitgen_baselines::{CpuBitstreamEngine, HybridEngine, MultiNfa};
use bitgen_workloads::{generate, AppKind, WorkloadConfig};

fn small_config() -> WorkloadConfig {
    WorkloadConfig { regexes: 10, input_len: 6000, witness_density: 0.08, ..Default::default() }
}

#[test]
fn all_apps_all_engines_agree() {
    for kind in AppKind::ALL {
        let w = generate(kind, &small_config());
        let nfa = MultiNfa::build(&w.asts).run(&w.input).ends;
        let expect = nfa.positions();

        let engine = BitGen::from_asts(
            w.asts.clone(),
            EngineConfig { cta_count: 3, threads: 8, ..Default::default() },
        )
        .expect("workloads compile within budget");
        let bitgen = engine.find(&w.input).unwrap().matches.positions();
        assert_eq!(bitgen, expect, "{kind:?}: BitGen vs NFA");

        let hybrid = HybridEngine::new(&w.asts).run(&w.input).positions();
        assert_eq!(hybrid, expect, "{kind:?}: hybrid vs NFA");

        let cpu = CpuBitstreamEngine::new(std::slice::from_ref(&w.asts)).run(&w.input).positions();
        assert_eq!(cpu, expect, "{kind:?}: cpu bitstream vs NFA");
    }
}

#[test]
fn compiled_kernels_name_exactly_their_register_file() {
    // Dense numbering: the registers a generated kernel references —
    // loop and guard conditions included — are exactly `0..num_regs`, so
    // the emulator's register file has no hole to allocate and clear.
    use bitgen_kernel::{compile, CodegenOptions, KStmt, Reg};
    fn mark(stmts: &[KStmt], seen: &mut [bool]) {
        for stmt in stmts {
            match stmt {
                KStmt::Op(op) => op.regs().for_each(|r: Reg| seen[r.0 as usize] = true),
                KStmt::If { cond, body } | KStmt::While { cond, body, .. } => {
                    seen[cond.0 as usize] = true;
                    mark(body, seen);
                }
            }
        }
    }
    for kind in AppKind::ALL {
        let w = generate(kind, &small_config());
        let engine = BitGen::from_asts(w.asts, EngineConfig { cta_count: 3, ..Default::default() })
            .expect("workloads compile within budget");
        for g in 0..engine.group_count() {
            let prog = engine.batch(g).program();
            let kernel = compile(prog, &[], &[], &CodegenOptions::default()).kernel;
            let mut seen = vec![false; kernel.num_regs as usize];
            mark(&kernel.stmts, &mut seen);
            assert!(seen.iter().all(|&s| s), "{kind:?}: an unreferenced register");
            assert!(kernel.max_live_regs() <= kernel.num_regs, "{kind:?}");
        }
    }
}

#[test]
fn planted_witnesses_produce_matches_in_most_apps() {
    let mut apps_with_matches = 0;
    for kind in AppKind::ALL {
        let w = generate(kind, &small_config());
        let ends = MultiNfa::build(&w.asts).run(&w.input).ends;
        if ends.any() {
            apps_with_matches += 1;
        }
    }
    assert!(
        apps_with_matches >= 8,
        "witness planting should make most apps match: {apps_with_matches}/10"
    );
}

#[test]
fn devices_change_time_not_matches() {
    use bitgen::DeviceConfig;
    let w = generate(AppKind::Snort, &small_config());
    let mut baseline: Option<Vec<usize>> = None;
    for device in [DeviceConfig::rtx3090(), DeviceConfig::h100(), DeviceConfig::l40s()] {
        let engine = BitGen::from_asts(
            w.asts.clone(),
            EngineConfig { device, cta_count: 2, threads: 8, ..Default::default() },
        )
        .expect("workloads compile within budget");
        let report = engine.find(&w.input).unwrap();
        let got = report.matches.positions();
        match &baseline {
            None => baseline = Some(got),
            Some(b) => assert_eq!(&got, b),
        }
    }
}
