//! The Table 3 ladder must be a pure optimisation: every scheme, window
//! size, merge size, and guard interval produces identical matches, while
//! the performance counters move the way the paper says they do.

use bitgen_bitstream::Basis;
use bitgen_exec::{
    apply_transforms, execute, execute_prepared_with, ExecConfig, ExecScratch, Scheme,
};
use bitgen_ir::{fnv1a, interpret, lower_group, Program, FNV_OFFSET};
use bitgen_regex::parse;
use bitgen_workloads::{generate, AppKind, WorkloadConfig};

fn workload_basis(kind: AppKind) -> (Program, Basis) {
    let w = generate(
        kind,
        &WorkloadConfig { regexes: 6, input_len: 4096, witness_density: 0.1, ..Default::default() },
    );
    let prog = lower_group(&w.asts);
    (prog, Basis::transpose(&w.input))
}

#[test]
fn schemes_equal_across_parameters() {
    for kind in [AppKind::Snort, AppKind::Dotstar, AppKind::Yara, AppKind::Brill] {
        let (prog, basis) = workload_basis(kind);
        let reference: Vec<Vec<usize>> =
            interpret(&prog, &basis).outputs.iter().map(|s| s.positions()).collect();
        // A small latin square of parameter combinations keeps coverage
        // across the product space without running it exhaustively.
        let combos: &[(Scheme, usize, usize, usize)] = &[
            (Scheme::Sequential, 4, 8, 8),
            (Scheme::Base, 16, 1, 2),
            (Scheme::DtmStatic, 4, 8, 2),
            (Scheme::Dtm, 16, 1, 8),
            (Scheme::Sr, 4, 1, 8),
            (Scheme::Sr, 16, 8, 2),
            (Scheme::Zbs, 4, 8, 2),
            (Scheme::Zbs, 16, 1, 8),
            (Scheme::Zbs, 16, 8, 1),
        ];
        for &(scheme, threads, merge, interval) in combos {
            let config = ExecConfig {
                scheme,
                threads,
                merge_size: merge,
                interval,
                ..Default::default()
            };
            let out = execute(&prog, &basis, &config).unwrap();
            for (got, want) in out.outputs.iter().zip(&reference) {
                assert_eq!(
                    &got.positions(),
                    want,
                    "{kind:?} {scheme} t={threads} m={merge} i={interval}"
                );
            }
        }
    }
}

#[test]
fn breakdown_counters_move_as_in_fig12() {
    // DRAM traffic: Sequential > Base > DTM- ≥ DTM (Table 4 gradient).
    let (prog, basis) = workload_basis(AppKind::Snort);
    let words = |scheme: Scheme| {
        let config = ExecConfig { scheme, threads: 8, ..Default::default() };
        execute(&prog, &basis, &config).unwrap().metrics.counters.global_words()
    };
    let seq = words(Scheme::Sequential);
    let base = words(Scheme::Base);
    let dtm_minus = words(Scheme::DtmStatic);
    let dtm = words(Scheme::Dtm);
    assert!(seq > base, "{seq} > {base}");
    assert!(base > dtm_minus, "{base} > {dtm_minus}");
    assert!(dtm_minus >= dtm, "{dtm_minus} >= {dtm}");
}

#[test]
fn dtm_uses_one_loop_and_no_intermediates() {
    let (prog, basis) = workload_basis(AppKind::Tcp);
    for scheme in [Scheme::Dtm, Scheme::Sr, Scheme::Zbs] {
        let config = ExecConfig { scheme, threads: 8, ..Default::default() };
        let m = execute(&prog, &basis, &config).unwrap().metrics;
        assert_eq!(m.segments, 1, "{scheme}");
        assert_eq!(m.intermediates, 0, "{scheme}");
    }
    let seq = execute(&prog, &basis, &ExecConfig { scheme: Scheme::Sequential, threads: 8, ..Default::default() })
        .unwrap()
        .metrics;
    assert!(seq.segments > 10);
    assert!(seq.intermediates > 10);
    assert!(seq.peak_materialized_bytes > 0);
}

#[test]
fn sr_reduces_barriers_on_concatenation_chains() {
    // ExactMatch is the paper's long-dependency-chain case.
    let (prog, basis) = workload_basis(AppKind::ExactMatch);
    let barriers = |scheme: Scheme| {
        let config = ExecConfig { scheme, threads: 8, ..Default::default() };
        execute(&prog, &basis, &config).unwrap().metrics.counters.barriers
    };
    assert!(
        barriers(Scheme::Sr) < barriers(Scheme::Dtm),
        "SR should merge barriers: {} vs {}",
        barriers(Scheme::Sr),
        barriers(Scheme::Dtm)
    );
}

#[test]
fn zbs_skips_on_sparse_workloads() {
    // A workload whose witnesses are not planted: nothing matches, so
    // most zero paths should skip.
    let w = generate(
        AppKind::ExactMatch,
        &WorkloadConfig { regexes: 6, input_len: 4096, witness_density: 0.0, ..Default::default() },
    );
    let prog = lower_group(&w.asts);
    let basis = Basis::transpose(&w.input);
    let zbs = execute(&prog, &basis, &ExecConfig { scheme: Scheme::Zbs, threads: 8, ..Default::default() })
        .unwrap()
        .metrics;
    let sr = execute(&prog, &basis, &ExecConfig { scheme: Scheme::Sr, threads: 8, ..Default::default() })
        .unwrap()
        .metrics;
    assert!(zbs.counters.skipped_ops > 0);
    assert!(
        zbs.counters.alu_ops < sr.counters.alu_ops,
        "ZBS should save ALU work: {} vs {}",
        zbs.counters.alu_ops,
        sr.counters.alu_ops
    );
}

#[test]
fn recompute_overhead_is_small() {
    // Table 5: recompute stays a tiny fraction for typical rules.
    let (prog, basis) = workload_basis(AppKind::Tcp);
    let config = ExecConfig { scheme: Scheme::Zbs, threads: 64, ..Default::default() };
    let m = execute(&prog, &basis, &config).unwrap().metrics;
    assert!(m.recompute_frac < 0.25, "recompute {}", m.recompute_frac);
    assert!(m.static_overlap > 0);
}

#[test]
fn single_pattern_program_runs_under_all_schemes() {
    let prog = lower_group(&[parse("a(bc){2,}d").unwrap()]);
    let basis = Basis::transpose(b"abcbcd abcbcbcd abcd");
    let expect = interpret(&prog, &basis).outputs[0].positions();
    for scheme in Scheme::ALL {
        let out = execute(&prog, &basis, &ExecConfig { scheme, threads: 2, ..Default::default() })
            .unwrap();
        assert_eq!(out.outputs[0].positions(), expect, "{scheme}");
    }
}

/// Deterministic traffic over the pattern alphabet (64-bit LCG).
fn golden_input(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            b"aabbccdxy. 019"[(x >> 33) as usize % 14]
        })
        .collect()
}

/// What [`batch_metrics_digest`] reads off one batch run.
type MetricsDigest = (u64, [u64; 6], usize, u64);

/// One batch run of `prog` (already transformed, so no pass timings enter
/// the record): an FNV-1a digest of the full `ExecMetrics` and
/// `cta_work()` renderings, next to the readable counters the cost model
/// prices (ALU issues, words loaded, words stored, barriers, reductions,
/// skipped ops), the peak materialised bytes and the fallback count.
fn batch_metrics_digest(
    prog: &Program,
    input: &[u8],
    config: &ExecConfig,
) -> MetricsDigest {
    let basis = Basis::transpose(input);
    let out = execute_prepared_with(prog, &basis, config, &mut ExecScratch::new(), None).unwrap();
    let want: Vec<Vec<usize>> =
        interpret(prog, &basis).outputs.iter().map(|s| s.positions()).collect();
    let got: Vec<Vec<usize>> = out.outputs.iter().map(|s| s.positions()).collect();
    assert_eq!(got, want, "{}", config.scheme);
    let m = &out.metrics;
    let digest = fnv1a(FNV_OFFSET, format!("{m:?}{:?}", m.cta_work()).as_bytes());
    let c = &m.counters;
    let totals = [
        c.alu_ops,
        c.global_load_words,
        c.global_store_words,
        c.barriers,
        c.reductions,
        c.skipped_ops,
    ];
    (digest, totals, m.peak_materialized_bytes, m.fallbacks)
}

#[test]
fn batch_sequential_metrics_are_golden() {
    // What a sequential segment charges the modelled clock (the
    // `Sequential`/`Base`/`DTM-` rows of Tables 3-4, and the
    // overlap-overflow fallback) is a function of its instructions and
    // the stream length, not of which machine walks them. The values were
    // captured at the commit before `bitgen-exec`'s own sequential
    // executor was folded into the reference interpreter's walker.
    let lowered = |patterns: &[&str]| {
        lower_group(&patterns.iter().map(|p| parse(p).unwrap()).collect::<Vec<_>>())
    };
    let while_loops = lowered(&["a(bc)*d", "cat", "[0-9]+x"]);
    // ZBS guards over long literals on an input that never takes them.
    let mut guarded = lowered(&["abcdefghijklmnop", "xyzw0123"]);
    apply_transforms(&mut guarded, &ExecConfig { scheme: Scheme::Zbs, ..Default::default() });
    let mixed = lowered(&["(a|bb)+c", "x[ab]{1,4}y", "a{2,}", "c{3,}d", ".{0,3}x"]);
    let mut sparse = vec![b'z'; 2048];
    sparse[700..708].copy_from_slice(b"xyzw0123");
    let cases: [(&Program, Vec<u8>, usize, [MetricsDigest; 3]); 3] = [
        (
            &while_loops,
            golden_input(1000, 0xb17),
            4,
            [
                (5203885830731332861, [968, 4128, 1536, 48, 5, 0], 4662, 0),
                (7331162934496320467, [664, 2464, 1536, 29, 5, 0], 4662, 0),
                (9670597913810801369, [591, 1692, 1104, 193, 5, 0], 2898, 0),
            ],
        ),
        (
            &guarded,
            sparse,
            4,
            [
                (13172356672760646092, [5083, 16640, 3900, 60, 2, 323], 14906, 0),
                (6000820874706763326, [2125, 4704, 3981, 33, 2, 323], 14906, 0),
                (3527264398037542504, [2398, 704, 176, 704, 44, 1078], 514, 0),
            ],
        ),
        (
            &mixed,
            golden_input(700, 0xb18),
            2,
            [
                (13975895816144612936, [1881, 4444, 1804, 82, 5, 0], 6864, 0),
                (16312484639777582509, [1331, 2948, 1738, 40, 5, 0], 6600, 0),
                (1856828744128848361, [1151, 1182, 818, 637, 5, 0], 2728, 0),
            ],
        ),
    ];
    for (case, (prog, input, threads, goldens)) in cases.iter().enumerate() {
        let schemes = [Scheme::Sequential, Scheme::Base, Scheme::DtmStatic];
        for (scheme, want) in schemes.into_iter().zip(goldens) {
            let config = ExecConfig { scheme, threads: *threads, ..Default::default() };
            assert_eq!(batch_metrics_digest(prog, input, &config), *want, "case {case} {scheme}");
        }
    }
    // The overlap-overflow fallback: a marker chain longer than a
    // two-thread window re-runs its segment sequentially.
    let mut chain = b"a".to_vec();
    for _ in 0..200 {
        chain.extend_from_slice(b"bc");
    }
    chain.push(b'd');
    let config = ExecConfig { scheme: Scheme::Zbs, threads: 2, ..Default::default() };
    let mut prog = lowered(&["a(bc)*d"]);
    apply_transforms(&mut prog, &config);
    assert_eq!(
        batch_metrics_digest(&prog, &chain, &config),
        (11376887144264782018, [11634, 34463, 21047, 1619, 405, 21], 867, 1)
    );
}
