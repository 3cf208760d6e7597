//! Deep packet inspection: scan a synthetic packet stream against a
//! Snort-like signature set and compare BitGen with every baseline —
//! the paper's headline use case. Then the operational half of that use
//! case: a live signature update landing mid-stream, hot-swapped with
//! the engine's two-phase commit while the stream keeps flowing.
//!
//! ```text
//! cargo run --release --example intrusion_detection
//! ```

use bitgen::{BitGen, EngineConfig, Scheme};
use bitgen_baselines::{run_gpu_nfa, GpuNfaModel, HybridEngine, MultiNfa};
use bitgen_gpu::DeviceConfig;
use bitgen_workloads::{generate, AppKind, WorkloadConfig};
use std::time::Instant;

fn main() {
    // A scaled-down Snort-like rule set over a 64 KB packet stream.
    let w = generate(
        AppKind::Snort,
        &WorkloadConfig { regexes: 24, input_len: 1 << 16, ..WorkloadConfig::default() },
    );
    println!("rules: {} (e.g. {:?})", w.patterns.len(), &w.patterns[0]);
    println!("packet stream: {} bytes\n", w.input.len());

    // BitGen on the simulated RTX 3090, full optimisation.
    let engine = BitGen::from_asts(
        w.asts.clone(),
        EngineConfig::default().with_cta_threads(128).with_scheme(Scheme::Zbs),
    )
    .expect("rules compile within budget");
    let report = engine.find(&w.input).expect("scan succeeds");
    println!(
        "BitGen (modelled {}):   {:>8.1} MB/s, {} alerts",
        engine.config().device.name,
        report.throughput_mbps(),
        report.match_count()
    );

    // ngAP-like GPU NFA (modelled).
    let nfa = MultiNfa::build(&w.asts);
    let ngap = run_gpu_nfa(&nfa, &w.input, &DeviceConfig::rtx3090(), &GpuNfaModel::default());
    println!(
        "ngAP-like (modelled):     {:>8.1} MB/s, {} alerts (avg active states {:.2})",
        ngap.throughput_mbps(),
        ngap.ends.count_ones(),
        ngap.stats.avg_active()
    );

    // Hyperscan-like hybrid engine (measured on this host).
    let hybrid = HybridEngine::new(&w.asts);
    let st = hybrid.build_stats();
    let start = Instant::now();
    let alerts = hybrid.run(&w.input).count_ones();
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    println!(
        "Hyperscan-like (measured):{:>8.1} MB/s, {} alerts ({} literal / {} prefiltered / {} NFA rules)",
        w.input.len() as f64 / 1e6 / secs,
        alerts,
        st.literal,
        st.prefiltered,
        st.nfa_only
    );

    assert_eq!(report.match_count(), alerts, "engines must agree");
    assert_eq!(report.match_count(), ngap.ends.count_ones());
    println!("\nall engines agree on every alert position ✓");

    live_rule_update(&engine, &w.input);
}

/// A signature update arrives while packets are flowing: phase 1
/// compiles the new rule set off to the side, phase 2 commits it at a
/// chunk boundary. Old rules fire before the boundary, new rules after,
/// and not a byte is dropped or rescanned in between.
fn live_rule_update(engine: &BitGen, input: &[u8]) {
    // The updated signature set — a fresh Snort-like generation.
    let update = generate(
        AppKind::Snort,
        &WorkloadConfig {
            regexes: 24,
            input_len: 1 << 15,
            seed: 0xfeed,
            ..WorkloadConfig::default()
        },
    );
    let new_rules: Vec<&str> = update.patterns.iter().map(String::as_str).collect();

    // Phase 1: compile under the serving engine's config and budgets.
    // A bad update would fail here, with the live stream untouched.
    let staged = engine.prepare_swap(&new_rules).expect("update compiles within budget");

    // Stream 4 KiB packets: the old traffic up to the boundary, then —
    // once the update is committed — traffic carrying the new
    // generation's witnesses.
    let boundary = input.len() / 2;
    let mut scanner = engine.streamer().expect("streamer");
    let mut alerts_old = 0usize;
    let mut alerts_new = 0usize;
    for chunk in input[..boundary].chunks(4096) {
        alerts_old += scanner.push(chunk).expect("scan succeeds").len();
    }
    // Phase 2: adopt the staged generation at the chunk boundary.
    scanner.commit_swap(&staged).expect("swap commits");
    for chunk in update.input.chunks(4096) {
        alerts_new += scanner.push(chunk).expect("scan succeeds").len();
    }
    println!(
        "\nlive rule update at byte {boundary} (generation {}): \
         {alerts_old} alerts under the old rules, {alerts_new} under the new",
        scanner.generation()
    );
    assert!(alerts_old > 0 && alerts_new > 0, "both generations must fire");

    // The swapped stream must equal old-rules-on-prefix plus
    // new-rules-fresh-from-boundary, exactly.
    let expect_old = engine.find(&input[..boundary]).expect("batch").match_count();
    let expect_new = staged.engine().find(&update.input).expect("batch").match_count();
    assert_eq!(alerts_old, expect_old, "pre-swap alerts must match the old rules");
    assert_eq!(alerts_new, expect_new, "post-swap alerts must match the new rules");
    assert_eq!(
        scanner.consumed(),
        (boundary + update.input.len()) as u64,
        "no bytes dropped across the swap"
    );
    println!("swap differential verified: prefix(old) ∪ suffix(new), no dropped bytes ✓");
}
