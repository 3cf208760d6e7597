//! The metric tables (the same names and units `BENCHMARK.json` lists)
//! and the two output forms: one line per metric for people, and the
//! one-line JSON object the driver reads.

use crate::clock::{Estimates, Op};
use std::collections::BTreeMap;

/// Gated metrics, printed by the untraced run. Every workload reports
/// every one of them, never as zero.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("payload_mbps", "MB/s"),
    ("modelled_mbps", "MB/s"),
    ("peak_heap_mb", "MB"),
];

/// Ungated metrics, printed by the traced run. A metric that does not
/// apply to a workload reads `0`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // What a client sees, split finer than the gated set.
    ("client.push_p50_ms", "ms"),
    ("client.session_p50_ms", "ms"),
    ("client.open_hit_p50_ms", "ms"),
    ("client.open_miss_p50_ms", "ms"),
    ("client.close_p50_ms", "ms"),
    ("client.scan_small_p50_ms", "ms"),
    ("client.scan_bulk_mbps", "MB/s"),
    // Client + serve loop + transport.
    ("daemon.self_us", "us"),
    ("daemon.push_p99_ms", "ms"),
    ("daemon.push_samples", "count"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes_per_payload_byte", "ratio"),
    ("wire.reply_bytes_per_match", "bytes"),
    ("service.push_us", "us"),
    ("service.handoff_us", "us"),
    ("service.queue_wait_us", "us"),
    ("service.open_hit_us", "us"),
    ("service.close_us", "us"),
    ("service.pushes_failed", "count"),
    ("service.pushes_replayed", "count"),
    ("service.rejected", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.miss_overhead_us", "us"),
    ("core.compile_us", "us"),
    ("core.resume_us", "us"),
    ("core.stream_fingerprint_us", "us"),
    ("core.push_us", "us"),
    ("core.checkpoint_us", "us"),
    ("core.checkpoint_bytes", "bytes"),
    ("core.session_new_us", "us"),
    ("core.scan_us", "us"),
    ("core.retries", "count"),
    ("core.degraded_chunks", "count"),
    ("bitstream.transpose_us", "us"),
    ("bitstream.transpose_mbps", "MB/s"),
    ("exec.stream_self_us", "us"),
    ("exec.segment_us", "us"),
    ("exec.execute_us", "us"),
    ("exec.segments", "count"),
    ("exec.window_iterations", "count"),
    ("exec.recompute_frac", "ratio"),
    ("exec.fallbacks", "count"),
    ("ir.lower_us", "us"),
    ("ir.ops", "count"),
    ("ir.interp_us", "us"),
    ("passes.rebalance_us", "us"),
    ("passes.zbs_us", "us"),
    ("passes.overlap_us", "us"),
    ("passes.ops_after", "count"),
    ("kernel.codegen_us", "us"),
    ("kernel.stmts", "count"),
    ("kernel.barriers", "count"),
    ("regex.parse_us", "us"),
    ("regex.optimize_us", "us"),
    ("regex.ast_nodes", "count"),
    // The modelled clock; every one repeats exactly for a given seed.
    ("gpu.modelled_mbps.brill", "MB/s"),
    ("gpu.modelled_mbps.clamav", "MB/s"),
    ("gpu.modelled_mbps.dotstar", "MB/s"),
    ("gpu.modelled_mbps.protomata", "MB/s"),
    ("gpu.modelled_mbps.snort", "MB/s"),
    ("gpu.modelled_mbps.yara", "MB/s"),
    ("gpu.modelled_mbps.bro217", "MB/s"),
    ("gpu.modelled_mbps.exactmatch", "MB/s"),
    ("gpu.modelled_mbps.ranges1", "MB/s"),
    ("gpu.modelled_mbps.tcp", "MB/s"),
    ("gpu.compute_frac", "ratio"),
    ("gpu.memory_frac", "ratio"),
    ("gpu.barrier_stall_frac", "ratio"),
    ("gpu.alu_ops", "count"),
    ("gpu.smem_accesses", "count"),
    ("gpu.barriers", "count"),
    ("gpu.dram_bytes", "bytes"),
    ("gpu.skipped_ops", "count"),
    ("gpu.occupancy", "count"),
    ("alloc.count_per_push", "count"),
    ("alloc.bytes_per_push", "bytes"),
    ("alloc.count_per_scan", "count"),
    ("alloc.bytes_per_scan", "bytes"),
    ("alloc.count_per_open_hit", "count"),
    // The harness itself.
    ("bench.prep_s", "s"),
    ("bench.pinned", "count"),
    ("bench.cal_p50_us", "us"),
    ("bench.cal_drift", "ratio"),
    ("bench.windows", "count"),
    ("bench.window_spread", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Values by metric name.
pub type Values = BTreeMap<String, f64>;

/// Counts ops and the ones that went wrong: an error, a refusal, or a
/// reply that differs from the reference.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one op; returns `ok`.
    pub fn op(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        ok
    }
}

/// The three gated values every workload takes from its untraced phase:
/// the latency of its unit `op`, the loop's throughput, and the peak
/// heap over `baseline` (what the benchmark itself held before the
/// first set-up).
pub fn gated_values(estimates: &Estimates, op: Op, peak: u64, baseline: u64, values: &mut Values) {
    values.insert("op_p50_ms".into(), estimates.latency_ms(op));
    values.insert("payload_mbps".into(), estimates.throughput_mbps());
    values.insert(
        "peak_heap_mb".into(),
        peak.saturating_sub(baseline) as f64 / 1e6,
    );
}

/// What one run of a workload produced.
pub struct Outcome {
    pub tally: Tally,
    pub values: Values,
}

/// Prints every metric of `table` by name with its unit, then the
/// driver's JSON line.
///
/// # Panics
///
/// When `outcome` holds a name that is in neither table, or (for the
/// gated table) lacks one: both are bugs in the workload code.
pub fn print(outcome: &Outcome, traced: bool) {
    let table = if traced { PER_LAYER } else { END_TO_END };
    for name in outcome.values.keys() {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .any(|(known, _)| known == name),
            "metric {name:?} is not in the tables"
        );
    }
    let mut json = String::new();
    for (name, unit) in table {
        let value = match outcome.values.get(*name) {
            Some(value) => *value,
            None if traced => 0.0,
            None => panic!("workload did not report gated metric {name:?}"),
        };
        assert!(value.is_finite(), "metric {name:?} is not a number");
        println!("{name:<32} {value:>16.6} {unit}");
        if !json.is_empty() {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!("{:<32} {:>16}", "ops_attempted", outcome.tally.attempted);
    println!("{:<32} {:>16}", "ops_failed", outcome.tally.failed);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted,
        outcome.tally.failed
    );
}
