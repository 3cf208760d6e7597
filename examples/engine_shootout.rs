//! Scheme shootout: run one workload under every execution scheme of
//! Table 3 and print the counted hardware events side by side — a live
//! view of why interleaved execution wins.
//!
//! Modelled throughput and the counters both come from one scan's
//! unified [`bitgen::Metrics`] record — no private timing loop.
//!
//! ```text
//! cargo run --release --example engine_shootout [app]
//! ```

use bitgen::{BitGen, EngineConfig, Scheme};
use bitgen_workloads::{generate, AppKind, WorkloadConfig};

fn main() {
    let app = std::env::args().nth(1).unwrap_or_else(|| "Dotstar".to_string());
    let kind = AppKind::ALL
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(&app))
        .unwrap_or_else(|| {
            eprintln!("unknown app {app:?}; options: {:?}", AppKind::ALL.map(|k| k.name()));
            std::process::exit(2);
        });
    let w = generate(
        kind,
        &WorkloadConfig { regexes: 16, input_len: 1 << 15, ..WorkloadConfig::default() },
    );
    println!("{} — {} rules over {} bytes\n", kind.name(), w.asts.len(), w.input.len());
    println!(
        "{:<6} {:>10} {:>12} {:>10} {:>10} {:>10} {:>9} {:>8}",
        "scheme", "MB/s", "ALU ops", "DRAM KB", "barriers", "skipped", "segments", "matches"
    );
    let mut reference: Option<usize> = None;
    for scheme in Scheme::ALL {
        let engine = BitGen::from_asts(
            w.asts.clone(),
            EngineConfig::default().with_scheme(scheme).with_cta_threads(64).with_cta_count(4),
        )
        .expect("rules compile within budget");
        let report = engine.find(&w.input).expect("scan succeeds");
        let totals = report.metrics.counters_total();
        let segments: usize = report.metrics.ctas.iter().map(|m| m.segments).max().unwrap_or(0);
        println!(
            "{:<6} {:>10.1} {:>12} {:>10} {:>10} {:>10} {:>9} {:>8}",
            scheme.to_string(),
            report.throughput_mbps(),
            totals.alu_ops,
            totals.global_words() * 4 / 1024,
            totals.barriers,
            totals.skipped_ops,
            segments,
            report.match_count()
        );
        match reference {
            None => reference = Some(report.match_count()),
            Some(r) => assert_eq!(r, report.match_count(), "schemes must agree"),
        }
    }
    println!("\nevery scheme reports identical matches; only the cost differs.");
}
