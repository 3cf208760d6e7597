//! The pipeline under `BitGen::compile_with` and `ScanSession::scan`,
//! replayed stage by stage through each crate's public functions so the
//! traced run can put a number on every layer. The real calls stay the
//! source of the end-to-end figures; these twins only attribute them.

use crate::report::Values;
use crate::trace::{LayerTime, SpanId, Tracer};
use bitgen::{group_regexes, EngineConfig};
use bitgen_bitstream::Basis;
use bitgen_exec::{
    apply_transforms, execute_prepared_with, segment_program, ExecConfig, ExecScratch, SegmentKind,
};
use bitgen_ir::{lower_group_checked, LowerOptions, Program};
use bitgen_kernel::{compile, CodegenOptions};
use bitgen_passes::OverlapInfo;
use bitgen_regex::{optimize, parse, Ast};
use std::collections::HashMap;

/// The engine configuration every workload runs under: the defaults,
/// one host thread.
pub fn engine_config() -> EngineConfig {
    EngineConfig::default().with_threads(1)
}

/// The `ExecConfig` the engine derives from its configuration.
pub fn exec_config(config: &EngineConfig) -> ExecConfig {
    ExecConfig {
        scheme: config.scheme,
        threads: config.threads,
        merge_size: config.merge_size,
        interval: config.interval,
        max_regs: config.max_regs,
        fallback: config.fallback,
        cross_check: config.cross_check,
        ..ExecConfig::default()
    }
}

/// Counts the compile replay reports next to its spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct CompileCounts {
    pub ast_nodes: usize,
    pub ir_ops: usize,
    pub ops_after_passes: usize,
}

impl CompileCounts {
    pub fn values(&self, values: &mut Values) {
        values.insert("regex.ast_nodes".into(), self.ast_nodes as f64);
        values.insert("ir.ops".into(), self.ir_ops as f64);
        values.insert("passes.ops_after".into(), self.ops_after_passes as f64);
    }
}

/// The per-layer times of the compile pipeline, from a trace summary.
pub fn compile_values(summary: &HashMap<&'static str, LayerTime>, values: &mut Values) {
    for (metric, span) in [
        ("core.compile_us", "core.compile"),
        ("regex.parse_us", "regex.parse"),
        ("regex.optimize_us", "regex.optimize"),
        ("ir.lower_us", "ir.lower"),
        ("passes.rebalance_us", "passes.rebalance"),
        ("passes.zbs_us", "passes.zbs"),
    ] {
        values.insert(metric.to_string(), summary.get(span).map_or(0.0, |t| t.us));
    }
}

/// What one replayed compile leaves behind.
pub struct Replay {
    /// Untransformed per-group programs — what the streaming path runs.
    pub stream_programs: Vec<Program>,
    /// Transformed per-group programs — what the batch path runs.
    pub programs: Vec<Program>,
    pub counts: CompileCounts,
}

/// Replays the default-configuration compile of `patterns` as spans
/// under `parent`: parse → optimize → lower → transform passes.
pub fn replay_compile(
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    patterns: &[&str],
    config: &EngineConfig,
) -> Replay {
    let (asts, _) = tracer.span("regex.parse", parent, || {
        patterns
            .iter()
            .map(|p| parse(p).expect("generated rules parse"))
            .collect::<Vec<Ast>>()
    });
    let groups = group_regexes(&asts, config.cta_count, config.grouping);
    // The engine optimises every rule, then each group's alternation.
    let (members, _) = tracer.span("regex.optimize", parent, || {
        let asts: Vec<Ast> = asts.iter().map(optimize).collect();
        groups
            .iter()
            .map(|g| optimize(&Ast::Alt(g.iter().map(|&i| asts[i].clone()).collect())))
            .collect::<Vec<Ast>>()
    });
    let options = LowerOptions {
        match_star: false,
        log_repetition: config.log_repetition,
    };
    let (stream_programs, _) = tracer.span("ir.lower", parent, || {
        members
            .iter()
            .map(|m| {
                lower_group_checked(std::slice::from_ref(m), options, &config.limits)
                    .expect("generated rules fit the compile limits")
            })
            .collect::<Vec<Program>>()
    });
    let exec = exec_config(config);
    let mut programs = stream_programs.clone();
    let mut rebalance_ns = 0;
    let mut zbs_ns = 0;
    let (_, passes) = tracer.span("passes.transforms", parent, || {
        for program in &mut programs {
            let metrics = apply_transforms(program, &exec);
            rebalance_ns += metrics.rebalance_nanos;
            zbs_ns += metrics.zbs_nanos;
        }
    });
    tracer.reported("passes.rebalance", Some(passes), rebalance_ns);
    tracer.reported("passes.zbs", Some(passes), zbs_ns);
    let counts = CompileCounts {
        ast_nodes: members.iter().map(Ast::node_count).sum(),
        ir_ops: stream_programs.iter().map(Program::op_count).sum(),
        ops_after_passes: programs.iter().map(Program::op_count).sum(),
    };
    Replay {
        stream_programs,
        programs,
        counts,
    }
}

/// Static facts about the kernels a scan derives.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelCounts {
    pub stmts: usize,
    pub barriers: usize,
}

/// Replays what every batch scan re-derives before it executes —
/// `segment_program`, `OverlapInfo::analyze` and kernel `compile` for
/// each group — as spans under `parent`.
pub fn replay_scan_prepare(
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    programs: &[Program],
    exec: &ExecConfig,
) -> KernelCounts {
    let (segments, _) = tracer.span("exec.segment", parent, || {
        programs
            .iter()
            .map(|p| segment_program(p, exec.scheme))
            .collect::<Vec<_>>()
    });
    let fused: Vec<_> = segments
        .iter()
        .zip(programs)
        .flat_map(|(segs, prog)| segs.iter().map(move |seg| (seg, prog)))
        .filter(|(seg, _)| seg.kind == SegmentKind::Fused)
        .map(|(seg, prog)| {
            (
                Program::new(seg.stmts.clone(), prog.num_streams(), seg.outputs.clone()),
                seg,
            )
        })
        .collect();
    tracer.span("passes.overlap", parent, || {
        for (sub, _) in &fused {
            std::hint::black_box(OverlapInfo::analyze(sub));
        }
    });
    let merge = if exec.scheme.uses_barrier_merging() {
        exec.merge_size
    } else {
        1
    };
    let options = CodegenOptions {
        merge_size: merge,
        ..CodegenOptions::default()
    };
    let (kernels, _) = tracer.span("kernel.codegen", parent, || {
        fused
            .iter()
            .map(|(sub, seg)| compile(sub, &seg.inputs, &seg.outputs, &options))
            .collect::<Vec<_>>()
    });
    KernelCounts {
        stmts: kernels.iter().map(|k| k.kernel.op_count()).sum(),
        barriers: kernels.iter().map(|k| k.kernel.barrier_count()).sum(),
    }
}

/// Runs every group's prepared program over `basis` the way a batch
/// scan does; returns the union of match ends.
pub fn execute_groups(
    programs: &[Program],
    basis: &Basis,
    exec: &ExecConfig,
    scratch: &mut ExecScratch,
) -> Vec<u64> {
    let mut ends: Vec<u64> = Vec::new();
    for program in programs {
        let outcome = execute_prepared_with(program, basis, exec, scratch, None)
            .expect("the prepared executor runs generated rules");
        ends.extend(outcome.union().positions().into_iter().map(|p| p as u64));
    }
    ends.sort_unstable();
    ends.dedup();
    ends.retain(|end| (*end as usize) < basis.len());
    ends
}
