//! `repro` — regenerates every table and figure of the paper's
//! evaluation (§7–§8) on the simulated GPU.
//!
//! ```text
//! repro <experiment> [--regexes N] [--input BYTES] [--threads T]
//!                    [--ctas N] [--seed S] [--out DIR]
//!
//! experiments:
//!   table1     application statistics (rule counts, instruction mix)
//!   fig11      throughput normalised to ngAP, all engines
//!   table2     absolute throughput and speedups (same run as fig11)
//!   table3     scheme/optimisation matrix
//!   fig12      performance breakdown Base → DTM- → DTM → SR → ZBS
//!   table4     per-CTA loops / intermediates / DRAM traffic
//!   table5     overlap distances and recompute overhead
//!   fig13      shift-rebalancing merge-size sensitivity (1/4/16/32)
//!   table6     barrier/shared-memory profile per merge size
//!   fig14      zero-block-skipping interval sensitivity (1/2/4/8)
//!   fig15      portability across RTX 3090 / H100 NVL / L40S
//!   density    ZBS benefit vs match density (beyond the paper)
//!   ablations  extra design-choice studies (beyond the paper)
//!   all        everything above
//! ```

use bitgen::Scheme;
use bitgen_bench::{
    geomean, measure, run_bitgen, run_cpu_bitstream, run_hybrid_mt, run_hybrid_st, run_ngap,
    AppRun, HarnessConfig, Table,
};
use bitgen_gpu::DeviceConfig;
use bitgen_ir::{lower_group, ProgramStats};
use bitgen_workloads::{AppKind, Workload};
use std::path::{Path, PathBuf};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print_usage();
        return;
    }
    let experiment = args[0].clone();
    let mut config = HarnessConfig::default();
    let mut out_dir = PathBuf::from("results");
    for pair in args[1..].chunks(2) {
        let (flag, value) = (pair[0].as_str(), pair.get(1));
        let number = || -> usize {
            value
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage_error(&format!("flag {flag} needs a numeric value")))
        };
        match flag {
            "--regexes" => config.regexes = number(),
            "--input" => config.input_len = number(),
            "--threads" => config.threads = number(),
            "--ctas" => config.cta_count = number(),
            "--seed" => config.seed = number() as u64,
            "--out" => {
                out_dir = PathBuf::from(
                    value.unwrap_or_else(|| usage_error("flag --out needs a path")),
                )
            }
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    println!(
        "# config: {} regexes/app, {} B input, {} threads/CTA, {} CTAs, seed {}",
        config.regexes, config.input_len, config.threads, config.cta_count, config.seed
    );
    match experiment.as_str() {
        "table1" => table1(&config, &out_dir),
        "fig11" => overall(&config, &out_dir, true),
        "table2" => overall(&config, &out_dir, false),
        "table3" => table3(&out_dir),
        "fig12" => fig12(&config, &out_dir),
        "table4" => table4(&config, &out_dir),
        "table5" => table5(&config, &out_dir),
        "fig13" => fig13(&config, &out_dir, true),
        "table6" => fig13(&config, &out_dir, false),
        "fig14" => fig14(&config, &out_dir),
        "fig15" => fig15(&config, &out_dir),
        "density" => density(&config, &out_dir),
        "ablations" => ablations(&config, &out_dir),
        "all" => {
            table1(&config, &out_dir);
            overall(&config, &out_dir, true);
            overall(&config, &out_dir, false);
            table3(&out_dir);
            fig12(&config, &out_dir);
            table4(&config, &out_dir);
            table5(&config, &out_dir);
            fig13(&config, &out_dir, true);
            fig13(&config, &out_dir, false);
            fig14(&config, &out_dir);
            fig15(&config, &out_dir);
            density(&config, &out_dir);
            ablations(&config, &out_dir);
        }
        other => usage_error(&format!("unknown experiment {other:?}")),
    }
}

fn print_usage() {
    println!(
        "usage: repro <table1|fig11|table2|table3|fig12|table4|table5|fig13|table6|fig14|fig15|density|ablations|all> \
         [--regexes N] [--input BYTES] [--threads T] [--ctas N] [--seed S] [--out DIR]"
    );
}

/// A malformed command line: says why, prints the usage, exits 2.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    print_usage();
    std::process::exit(2);
}

fn f1(v: f64) -> String {
    format!("{v:.1}")
}

fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Table 1: application statistics and instruction mix.
fn table1(config: &HarnessConfig, out: &Path) {
    let mut t = Table::new(
        "Table 1: evaluated applications (ours | paper counts in brackets)",
        &["App", "#Regex", "Len avg", "Len sd", "and", "or", "not", "shift", "while"],
    );
    for kind in AppKind::ALL {
        let w = config.workload(kind);
        let stats = ProgramStats::of(&lower_group(&w.asts));
        let (paper_n, paper_len) = kind.paper_stats();
        t.row(vec![
            kind.name().to_string(),
            format!("{} [{}]", w.asts.len(), paper_n),
            format!("{} [{:.1}]", f1(w.avg_pattern_len()), paper_len),
            f1(w.pattern_len_sd()),
            stats.and.to_string(),
            stats.or.to_string(),
            stats.not.to_string(),
            stats.shift.to_string(),
            stats.r#while.to_string(),
        ]);
    }
    print!("{}", t.render());
    t.write_csv(out, "table1");
}

/// Figure 11 / Table 2: overall throughput comparison.
fn overall(config: &HarnessConfig, out: &Path, normalized: bool) {
    let runs: Vec<AppRun> = AppKind::ALL
        .iter()
        .map(|&kind| {
            let w = config.workload(kind);
            let (bitgen, metrics) = run_bitgen(&w, config, Scheme::Zbs);
            AppRun {
                kind,
                bitgen,
                hs_1t: run_hybrid_st(&w),
                hs_mt: run_hybrid_mt(&w),
                ngap: run_ngap(&w, config),
                icgrep: run_cpu_bitstream(&w, config),
                metrics,
            }
        })
        .collect();
    for r in &runs {
        assert_eq!(r.bitgen.matches, r.ngap.matches, "{:?}: engines disagree", r.kind);
        assert_eq!(r.bitgen.matches, r.hs_1t.matches, "{:?}: engines disagree", r.kind);
        assert_eq!(r.bitgen.matches, r.icgrep.matches, "{:?}: engines disagree", r.kind);
    }
    if normalized {
        let mut t = Table::new(
            "Figure 11: throughput normalised to ngAP",
            &["App", "BitGen", "HS-1T", "HS-MT", "ngAP", "icgrep"],
        );
        for r in &runs {
            let base = r.ngap.mbps.max(1e-9);
            t.row(vec![
                r.kind.name().to_string(),
                f2(r.bitgen.mbps / base),
                f2(r.hs_1t.mbps / base),
                f2(r.hs_mt.mbps / base),
                f2(1.0),
                f2(r.icgrep.mbps / base),
            ]);
        }
        print!("{}", t.render());
        t.write_csv(out, "fig11");
    } else {
        let mut t = Table::new(
            "Table 2: absolute throughput (MB/s) and BitGen speedups",
            &[
                "App", "BitGen", "HS-1T", "x1T", "HS-MT", "xMT", "ngAP", "xngAP", "icgrep",
                "xicgrep", "#matches",
            ],
        );
        let mut sp = (vec![], vec![], vec![], vec![]);
        for r in &runs {
            let s1 = r.bitgen.mbps / r.hs_1t.mbps.max(1e-9);
            let s2 = r.bitgen.mbps / r.hs_mt.mbps.max(1e-9);
            let s3 = r.bitgen.mbps / r.ngap.mbps.max(1e-9);
            let s4 = r.bitgen.mbps / r.icgrep.mbps.max(1e-9);
            sp.0.push(s1);
            sp.1.push(s2);
            sp.2.push(s3);
            sp.3.push(s4);
            t.row(vec![
                r.kind.name().to_string(),
                f1(r.bitgen.mbps),
                f1(r.hs_1t.mbps),
                f2(s1),
                f1(r.hs_mt.mbps),
                f2(s2),
                f1(r.ngap.mbps),
                f2(s3),
                f1(r.icgrep.mbps),
                f2(s4),
                r.bitgen.matches.to_string(),
            ]);
        }
        t.row(vec![
            "Gmean".into(),
            "-".into(),
            "-".into(),
            f2(geomean(&sp.0)),
            "-".into(),
            f2(geomean(&sp.1)),
            "-".into(),
            f2(geomean(&sp.2)),
            "-".into(),
            f2(geomean(&sp.3)),
            "-".into(),
        ]);
        print!("{}", t.render());
        t.write_csv(out, "table2");
        println!(
            "(paper gmeans on real hardware: 3.0x HS-1T, 1.7x HS-MT, 19.5x ngAP, 25.3x icgrep)"
        );
    }
}

/// Table 3: the scheme/optimisation matrix.
fn table3(out: &Path) {
    let mut t = Table::new(
        "Table 3: optimisation breakdown schemes",
        &["Abbr", "DTM static", "DTM dynamic", "Shift Rebalancing", "Zero Block Skipping"],
    );
    let mark = |b: bool| if b { "yes" } else { "" }.to_string();
    for scheme in Scheme::BREAKDOWN {
        let static_dtm = scheme >= Scheme::DtmStatic;
        let dynamic_dtm = scheme >= Scheme::Dtm;
        t.row(vec![
            scheme.to_string(),
            mark(static_dtm),
            mark(dynamic_dtm),
            mark(scheme.uses_rebalancing()),
            mark(scheme.uses_zbs()),
        ]);
    }
    print!("{}", t.render());
    t.write_csv(out, "table3");
}

/// Figure 12: breakdown, normalised to Base.
fn fig12(config: &HarnessConfig, out: &Path) {
    let mut t = Table::new(
        "Figure 12: speedup over Base after each optimisation",
        &["App", "Base", "DTM-", "DTM", "SR", "ZBS"],
    );
    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); Scheme::BREAKDOWN.len()];
    for kind in AppKind::ALL {
        let w = config.workload(kind);
        let mbps: Vec<f64> = Scheme::BREAKDOWN
            .iter()
            .map(|&s| run_bitgen(&w, config, s).0.mbps)
            .collect();
        let base = mbps[0].max(1e-9);
        let mut row = vec![kind.name().to_string()];
        for (i, v) in mbps.iter().enumerate() {
            row.push(f2(v / base));
            per_scheme[i].push(v / base);
        }
        t.row(row);
    }
    let mut row = vec!["Gmean".to_string()];
    for s in &per_scheme {
        row.push(f2(geomean(s)));
    }
    t.row(row);
    print!("{}", t.render());
    t.write_csv(out, "fig12");
    println!("(paper gmeans: DTM 9-18x on control-heavy apps, SR 17.6x, ZBS 24.9x over Base)");
}

/// Table 4: memory behaviour of the fusion levels.
fn table4(config: &HarnessConfig, out: &Path) {
    let mut t = Table::new(
        "Table 4: per-CTA fusion profile (average over apps and CTAs)",
        &["Scheme", "#Loop", "#Intermediate", "DRAM read (MB)", "DRAM written (MB)"],
    );
    for scheme in [Scheme::Base, Scheme::DtmStatic, Scheme::Dtm] {
        let mut loops = Vec::new();
        let mut inter = Vec::new();
        let mut rd = Vec::new();
        let mut wr = Vec::new();
        for kind in AppKind::ALL {
            let w = config.workload(kind);
            let (_, metrics) = run_bitgen(&w, config, scheme);
            for m in &metrics.ctas {
                loops.push(m.segments as f64);
                inter.push(m.intermediates as f64);
                rd.push(m.counters.dram_read_bytes() as f64 / 1e6);
                wr.push(m.counters.dram_write_bytes() as f64 / 1e6);
            }
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        t.row(vec![
            scheme.to_string(),
            f1(avg(&loops)),
            f1(avg(&inter)),
            f2(avg(&rd)),
            f2(avg(&wr)),
        ]);
    }
    print!("{}", t.render());
    t.write_csv(out, "table4");
    println!("(paper: Base 260.7 loops / 177.9 MB read; DTM 1 loop / 0.2 MB)");
}

/// Table 5: overlap distances and recompute overhead.
fn table5(config: &HarnessConfig, out: &Path) {
    let mut t = Table::new(
        "Table 5: recomputation overhead of DTM",
        &["App", "Static dist (bit)", "Dyn avg", "Dyn max", "Recompute %", "#Iter", "Retries", "Fallbacks"],
    );
    for kind in AppKind::ALL {
        let w = config.workload(kind);
        let (_, metrics) = run_bitgen(&w, config, Scheme::Zbs);
        let ctas = &metrics.ctas;
        let n = ctas.len().max(1) as f64;
        let static_avg = ctas.iter().map(|m| m.static_overlap as f64).sum::<f64>() / n;
        let dyn_avg = ctas.iter().map(|m| m.dynamic_overlap_avg).sum::<f64>() / n;
        let dyn_max = ctas.iter().map(|m| m.dynamic_overlap_max).max().unwrap_or(0);
        let recompute = ctas.iter().map(|m| m.recompute_frac).sum::<f64>() / n * 100.0;
        let iters = ctas.iter().map(|m| m.window_iterations as f64).sum::<f64>() / n;
        let retries: u64 = ctas.iter().map(|m| m.retries).sum();
        let fallbacks: u64 = ctas.iter().map(|m| m.fallbacks).sum();
        t.row(vec![
            kind.name().to_string(),
            f1(static_avg),
            f1(dyn_avg),
            dyn_max.to_string(),
            f2(recompute),
            f1(iters),
            retries.to_string(),
            fallbacks.to_string(),
        ]);
    }
    print!("{}", t.render());
    t.write_csv(out, "table5");
}

/// Figure 13 / Table 6: merge-size sensitivity and barrier profile.
fn fig13(config: &HarnessConfig, out: &Path, figure: bool) {
    let sizes = [1usize, 4, 16, 32];
    if figure {
        let mut t = Table::new(
            "Figure 13: SR throughput vs merge size (normalised to merge=1)",
            &["App", "SR_1", "SR_4", "SR_16", "SR_32"],
        );
        for kind in AppKind::ALL {
            let w = config.workload(kind);
            let mbps: Vec<f64> = sizes
                .iter()
                .map(|&m| {
                    let mut c = config.clone();
                    c.merge_size = m;
                    run_bitgen(&w, &c, Scheme::Sr).0.mbps
                })
                .collect();
            let base = mbps[0].max(1e-9);
            let mut row = vec![kind.name().to_string()];
            row.extend(mbps.iter().map(|v| f2(v / base)));
            t.row(row);
        }
        print!("{}", t.render());
        t.write_csv(out, "fig13");
    } else {
        let mut t = Table::new(
            "Table 6: shift-rebalancing profile per merge size (avg per CTA)",
            &["Scheme", "#Sync", "SMem size (KB)", "Barrier stall %", "SMem access (MB)"],
        );
        for &m in &sizes {
            let mut sync = Vec::new();
            let mut smem_kb = Vec::new();
            let mut stall = Vec::new();
            let mut smem_mb = Vec::new();
            for kind in AppKind::ALL {
                let w = config.workload(kind);
                let mut c = config.clone();
                c.merge_size = m;
                let engine =
                    bitgen::BitGen::from_asts(w.asts.clone(), c.engine_config(Scheme::Sr))
                        .expect("workloads compile within budget");
                let report = engine.find(&w.input).unwrap();
                stall.push(report.metrics.cost.barrier_stall_frac * 100.0);
                for mt in &report.metrics.ctas {
                    sync.push(2.0 * mt.shift_groups as f64);
                    smem_kb.push(mt.smem_bytes as f64 / 1024.0);
                    smem_mb.push(mt.counters.smem_accesses() as f64 * mt.threads as f64 * 4.0 / 1e6);
                }
            }
            let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
            t.row(vec![
                format!("SR_{m}"),
                f1(avg(&sync)),
                f1(avg(&smem_kb)),
                f1(avg(&stall)),
                f1(avg(&smem_mb)),
            ]);
        }
        print!("{}", t.render());
        t.write_csv(out, "table6");
        println!("(paper: #Sync 305→35, stall 49.6%→17.5% from SR_1 to SR_32)");
    }
}

/// Figure 14: ZBS interval sensitivity.
fn fig14(config: &HarnessConfig, out: &Path) {
    let intervals = [1usize, 2, 4, 8];
    let mut t = Table::new(
        "Figure 14: ZBS throughput vs interval size (normalised to interval=1)",
        &["App", "I=1", "I=2", "I=4", "I=8"],
    );
    for kind in AppKind::ALL {
        let w = config.workload(kind);
        let mbps: Vec<f64> = intervals
            .iter()
            .map(|&iv| {
                let mut c = config.clone();
                c.interval = iv;
                run_bitgen(&w, &c, Scheme::Zbs).0.mbps
            })
            .collect();
        let base = mbps[0].max(1e-9);
        let mut row = vec![kind.name().to_string()];
        row.extend(mbps.iter().map(|v| f2(v / base)));
        t.row(row);
    }
    print!("{}", t.render());
    t.write_csv(out, "fig14");
}

/// Figure 15: portability across devices.
///
/// Runs at the paper's kernel scale (512 threads/CTA, more CTAs than the
/// RTX 3090 has SMs) so the SM-count advantage of the larger devices is
/// visible, exactly as in §8.3.
fn fig15(config: &HarnessConfig, out: &Path) {
    let mut config = config.clone();
    config.threads = 512;
    config.cta_count = config.cta_count.max(96);
    config.regexes = config.regexes.max(96);
    println!(
        "# fig15 overrides: {} threads/CTA, {} CTAs, {} regexes/app",
        config.threads, config.cta_count, config.regexes
    );
    let config = &config;
    let devices = [DeviceConfig::rtx3090(), DeviceConfig::h100(), DeviceConfig::l40s()];
    let mut t = Table::new(
        "Figure 15: throughput on H100/L40S normalised to RTX 3090",
        &["App", "BitGen 3090", "BitGen H100", "BitGen L40S", "ngAP 3090", "ngAP H100", "ngAP L40S"],
    );
    let mut bg = (Vec::new(), Vec::new());
    let mut ng = (Vec::new(), Vec::new());
    for kind in AppKind::ALL {
        let w = config.workload(kind);
        let bitgen: Vec<f64> = devices
            .iter()
            .map(|d| {
                let mut c = config.clone();
                c.device = d.clone();
                run_bitgen(&w, &c, Scheme::Zbs).0.mbps
            })
            .collect();
        let ngap: Vec<f64> = devices
            .iter()
            .map(|d| {
                let mut c = config.clone();
                c.device = d.clone();
                run_ngap(&w, &c).mbps
            })
            .collect();
        bg.0.push(bitgen[1] / bitgen[0]);
        bg.1.push(bitgen[2] / bitgen[0]);
        ng.0.push(ngap[1] / ngap[0]);
        ng.1.push(ngap[2] / ngap[0]);
        t.row(vec![
            kind.name().to_string(),
            f2(1.0),
            f2(bitgen[1] / bitgen[0]),
            f2(bitgen[2] / bitgen[0]),
            f2(1.0),
            f2(ngap[1] / ngap[0]),
            f2(ngap[2] / ngap[0]),
        ]);
    }
    t.row(vec![
        "Gmean".into(),
        f2(1.0),
        f2(geomean(&bg.0)),
        f2(geomean(&bg.1)),
        f2(1.0),
        f2(geomean(&ng.0)),
        f2(geomean(&ng.1)),
    ]);
    print!("{}", t.render());
    t.write_csv(out, "fig15");
    println!("(paper: BitGen 1.6x/2.0x, ngAP 1.0x/1.4x on H100/L40S)");
}

/// Beyond the paper: zero-block skipping's benefit as a function of match
/// density — sparsity is exactly what ZBS exploits, so its edge over SR
/// should shrink as planted witnesses densify the streams.
fn density(config: &HarnessConfig, out: &Path) {
    use bitgen_workloads::{generate, WorkloadConfig};
    let densities = [0.0, 0.02, 0.05, 0.15, 0.40];
    let mut t = Table::new(
        "Density sweep: ZBS speedup over SR vs planted-witness density",
        &["App", "d=0.00", "d=0.02", "d=0.05", "d=0.15", "d=0.40"],
    );
    for kind in [AppKind::ExactMatch, AppKind::Yara, AppKind::Snort, AppKind::Dotstar] {
        let mut row = vec![kind.name().to_string()];
        for &d in &densities {
            let w = generate(
                kind,
                &WorkloadConfig {
                    regexes: config.regexes,
                    input_len: config.input_len,
                    seed: config.seed,
                    witness_density: d,
                },
            );
            let zbs = run_bitgen(&w, config, Scheme::Zbs).0.mbps;
            let sr = run_bitgen(&w, config, Scheme::Sr).0.mbps;
            row.push(f2(zbs / sr.max(1e-9)));
        }
        t.row(row);
    }
    print!("{}", t.render());
    t.write_csv(out, "density");
}

/// Ablations beyond the paper: rebalancing vs merging alone, dynamic
/// allowance, grouping strategy.
fn ablations(config: &HarnessConfig, out: &Path) {
    let mut t = Table::new(
        "Ablations: design choices (modelled MB/s, gmean over apps)",
        &["Variant", "Gmean MB/s"],
    );
    let gmean_over_apps = |f: &dyn Fn(&Workload) -> f64| {
        let vals: Vec<f64> = AppKind::ALL.iter().map(|&k| f(&config.workload(k))).collect();
        geomean(&vals)
    };
    // 1. DTM alone vs merging-without-rebalancing vs SR.
    t.row(vec![
        "DTM (no SR, merge 1)".into(),
        f1(gmean_over_apps(&|w| run_bitgen(w, config, Scheme::Dtm).0.mbps)),
    ]);
    t.row(vec![
        "SR (rebalance + merge 8)".into(),
        f1(gmean_over_apps(&|w| run_bitgen(w, config, Scheme::Sr).0.mbps)),
    ]);
    t.row(vec![
        "ZBS (full BitGen)".into(),
        f1(gmean_over_apps(&|w| run_bitgen(w, config, Scheme::Zbs).0.mbps)),
    ]);
    // 2. Grouping strategy.
    for (label, grouping) in [
        ("grouping: balanced", bitgen::GroupingStrategy::BalancedLength),
        ("grouping: round-robin", bitgen::GroupingStrategy::RoundRobin),
    ] {
        t.row(vec![
            label.into(),
            f1(gmean_over_apps(&|w| {
                let mut ec = config.engine_config(Scheme::Zbs);
                ec.grouping = grouping;
                let engine = bitgen::BitGen::from_asts(w.asts.clone(), ec)
                    .expect("workloads compile within budget");
                engine.find(&w.input).unwrap().throughput_mbps()
            })),
        ]);
    }
    // 3. CTA count sweep.
    for ctas in [2usize, 4, 8, 16] {
        t.row(vec![
            format!("cta count {ctas}"),
            f1(gmean_over_apps(&|w| {
                let mut c = config.clone();
                c.cta_count = ctas;
                run_bitgen(w, &c, Scheme::Zbs).0.mbps
            })),
        ]);
    }
    // 4. An RE2-style lazy DFA (measured on this host), for context.
    t.row(vec![
        "lazy DFA (measured CPU)".into(),
        f1(gmean_over_apps(&|w| {
            let mut dfa = bitgen_baselines::DfaEngine::new(&w.asts);
            measure(&w.input, |input| dfa.run(input).ends.count_ones()).mbps
        })),
    ]);
    // 5. Pattern optimisation (prefix factoring etc.) on/off.
    for (label, optimize_patterns) in
        [("AST optimizer: on", true), ("AST optimizer: off", false)]
    {
        t.row(vec![
            label.into(),
            f1(gmean_over_apps(&|w| {
                let mut ec = config.engine_config(Scheme::Zbs);
                ec.optimize_patterns = optimize_patterns;
                let engine = bitgen::BitGen::from_asts(w.asts.clone(), ec)
                    .expect("workloads compile within budget");
                engine.find(&w.input).unwrap().throughput_mbps()
            })),
        ]);
    }
    // 6. MatchStar extension: while-free class stars via long addition.
    for (label, match_star) in [("star: fixpoint loop (paper)", false), ("star: MatchStar (+add)", true)] {
        t.row(vec![
            label.into(),
            f1(gmean_over_apps(&|w| {
                let mut ec = config.engine_config(Scheme::Zbs);
                ec.match_star = match_star;
                let engine = bitgen::BitGen::from_asts(w.asts.clone(), ec)
                    .expect("workloads compile within budget");
                engine.find(&w.input).unwrap().throughput_mbps()
            })),
        ]);
    }
    print!("{}", t.render());
    t.write_csv(out, "ablations");
}
