//! Execution metrics: the per-CTA record ([`ExecMetrics`], everything
//! Tables 4–6 report) and the unified per-scan record ([`Metrics`]) that
//! every entry point — batch sessions, the streaming scanner, and the
//! prepared executor — populates.

use bitgen_gpu::{CostBreakdown, CtaCounters};
use bitgen_passes::PassMetrics;

/// Metrics of one program execution (one CTA's worth of work).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecMetrics {
    /// Transform pipeline cost of the program that ran: a
    /// [`BatchPlan`](crate::BatchPlan) reports what its constructor
    /// measured — `build` (one-shot [`execute`](crate::execute), `bitgen`'s
    /// engines) the transforms it ran, `new` (`execute_prepared_with`) the
    /// default record of a program taken as given. Streaming windows run
    /// *untransformed* programs, so their default (zero) record is the
    /// truth, not an omission.
    pub passes: PassMetrics,
    /// Counted hardware events across all segments and windows.
    pub counters: CtaCounters,
    /// Number of blockwise passes the compiled code makes over the data —
    /// Table 4's `#Loop` (1 for fully interleaved execution).
    pub segments: usize,
    /// Materialised intermediate streams — Table 4's
    /// `#Intermediate Bitstream`.
    pub intermediates: usize,
    /// Peak bytes of materialised intermediates resident at once.
    pub peak_materialized_bytes: usize,
    /// Static overlap distance in bits (the compile-time Δ of Table 5).
    pub static_overlap: u64,
    /// Mean dynamic overlap beyond static, over stored windows (Table 5).
    pub dynamic_overlap_avg: f64,
    /// Maximum dynamic overlap observed (Table 5).
    pub dynamic_overlap_max: u64,
    /// Fraction of computed bits that were overlap recomputation
    /// (Table 5's `Recompute %`).
    pub recompute_frac: f64,
    /// Window iterations executed, including retries (Table 5's `#Iter`).
    pub window_iterations: u64,
    /// Windows re-executed with an enlarged overlap.
    pub retries: u64,
    /// Segments that fell back to sequential execution after an overlap
    /// overflow.
    pub fallbacks: u64,
    /// Static shift barrier groups in the compiled kernels — each costs a
    /// barrier pair per execution (Table 6's `#Sync` driver).
    pub shift_groups: usize,
    /// Shared-memory bytes of the largest kernel (Table 6's `SMem Size`).
    pub smem_bytes: usize,
    /// Registers per thread of the largest kernel.
    pub regs_per_thread: u32,
    /// Threads per CTA used.
    pub threads: usize,
}

impl ExecMetrics {
    /// Work descriptor for the device cost model.
    pub fn cta_work(&self) -> bitgen_gpu::CtaWork {
        bitgen_gpu::CtaWork {
            counters: self.counters.clone(),
            threads: self.threads,
            regs_per_thread: self.regs_per_thread,
            smem_bytes: self.smem_bytes,
        }
    }
}

/// The unified metrics record of one scan: phase timings, volume,
/// match counts, compile-time pass totals, robustness counters, and the
/// per-CTA [`ExecMetrics`] underneath.
///
/// Every execution surface populates the same type — batch
/// `ScanSession` scans, the carry-propagating streaming scanner, and
/// the prepared-executor paths — so a benchmark harness (or any caller)
/// reads one structured record no matter how the scan ran.
///
/// Timings are *modelled* device seconds; the end-to-end figure is the
/// derived [`Metrics::seconds`], never stored.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Modelled kernel seconds (the device cost model's makespan).
    pub kernel_seconds: f64,
    /// Modelled transpose (input → basis) seconds.
    pub transpose_seconds: f64,
    /// Bytes of input scanned. For a multi-stream batch launch this is
    /// the whole launch's byte total (the streams share the device), so
    /// [`Metrics::throughput_mbps`] is batch throughput.
    pub bytes_scanned: u64,
    /// Match-end positions found.
    pub match_count: u64,
    /// Aggregated transform-pipeline cost across all groups (each
    /// group's own record stays in [`Metrics::ctas`]).
    pub passes: PassMetrics,
    /// Execution retries beyond first attempts (streaming window
    /// replays under a retry policy; `0` for batch scans).
    pub retries: u64,
    /// CTA slots (batch) or chunks (streaming) recovered on the CPU
    /// reference interpreter after a device-path failure. Matches stay
    /// exact; timings undercount the recovered work.
    pub degraded: u64,
    /// Rule-set generations committed onto a live stream (hot swaps),
    /// including any later rolled back; `0` for batch scans. Each swap
    /// resets the carry state so post-swap matches are bit-identical to
    /// a fresh scan under the new rules from that byte offset.
    pub swaps: u64,
    /// Committed swaps whose first post-swap window failed unrecoverably
    /// and were rolled back to the previous generation (the stream keeps
    /// serving the old rules instead of poisoning). Always ≤ `swaps`.
    pub swap_rollbacks: u64,
    /// Committed streaming pushes billed as the paper's fused launch (DTM
    /// or DTM-), the cheaper one; `0` for batch, and from zero on resume.
    pub fused_pushes: u64,
    /// Device cost breakdown of the launch (zeroed per-push accumulation
    /// for streaming scans).
    pub cost: CostBreakdown,
    /// Per-CTA execution metrics, one per (group × stream) slot in
    /// canonical slot order.
    pub ctas: Vec<ExecMetrics>,
}

impl Metrics {
    /// Modelled end-to-end seconds: kernel + transpose.
    pub fn seconds(&self) -> f64 {
        self.kernel_seconds + self.transpose_seconds
    }

    /// Modelled throughput in MB/s (`0` when nothing ran).
    pub fn throughput_mbps(&self) -> f64 {
        let seconds = self.seconds();
        if seconds <= 0.0 || self.bytes_scanned == 0 {
            return 0.0;
        }
        self.bytes_scanned as f64 / 1e6 / seconds
    }

    /// True when any slot or chunk fell back to the CPU interpreter.
    pub fn is_degraded(&self) -> bool {
        self.degraded > 0
    }

    /// Summed hardware counters over all CTAs (`loop_trips` element-wise,
    /// by loop site).
    pub fn counters_total(&self) -> CtaCounters {
        let mut total = CtaCounters::default();
        for m in &self.ctas {
            total += &m.counters;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_and_degraded() {
        let m = Metrics {
            kernel_seconds: 1.5,
            transpose_seconds: 0.5,
            bytes_scanned: 4_000_000,
            degraded: 1,
            ..Metrics::default()
        };
        assert_eq!(m.seconds(), 2.0);
        assert!((m.throughput_mbps() - 2.0).abs() < 1e-12);
        assert!(m.is_degraded());
        assert_eq!(Metrics::default().throughput_mbps(), 0.0);
    }

    #[test]
    fn counters_sum_over_ctas() {
        let mut a = ExecMetrics::default();
        a.counters.alu_ops = 10;
        a.counters.barriers = 2;
        let mut b = ExecMetrics::default();
        b.counters.alu_ops = 5;
        b.counters.global_load_words = 7;
        let m = Metrics { ctas: vec![a, b], ..Metrics::default() };
        let total = m.counters_total();
        assert_eq!(total.alu_ops, 15);
        assert_eq!(total.barriers, 2);
        assert_eq!(total.global_load_words, 7);
    }
}
