//! Failure injection: the emulator's race checker must catch barrier
//! omissions in otherwise-valid generated kernels — proving the checker
//! would catch a real codegen bug, not just the hand-built cases of the
//! unit tests.

use bitgen_bitstream::Basis;
use bitgen_gpu::{Cta, CtaCounters, WindowInputs};
use bitgen_ir::lower;
use bitgen_kernel::{compile, CodegenOptions, KOp, KStmt, Kernel};
use bitgen_regex::parse;

/// Deletes the `n`-th barrier (anywhere in the structure); returns `None`
/// when there are fewer barriers.
fn without_barrier(kernel: &Kernel, n: usize) -> Option<Kernel> {
    fn strip(stmts: &[KStmt], remaining: &mut isize) -> Vec<KStmt> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            match s {
                KStmt::Op(KOp::Barrier) => {
                    if *remaining == 0 {
                        *remaining -= 1;
                        continue; // drop exactly this barrier
                    }
                    *remaining -= 1;
                    out.push(s.clone());
                }
                KStmt::Op(_) => out.push(s.clone()),
                KStmt::If { cond, body } => out.push(KStmt::If {
                    cond: *cond,
                    body: strip(body, remaining).into(),
                }),
                KStmt::While { cond, body, site } => out.push(KStmt::While {
                    cond: *cond,
                    body: strip(body, remaining).into(),
                    site: *site,
                }),
            }
        }
        out
    }
    let mut remaining = n as isize;
    let stmts = strip(&kernel.stmts, &mut remaining);
    if remaining >= 0 {
        return None; // fewer than n+1 barriers
    }
    Some(Kernel { stmts, ..kernel.clone() })
}

fn run(kernel: &Kernel, input: &[u8], threads: usize) -> Result<(), String> {
    let basis = Basis::transpose(input);
    let mut cta = Cta::new(kernel, threads);
    let mut counters = CtaCounters::new(kernel.num_sites as usize);
    // Two back-to-back windows, as in the real block loop: a trailing
    // barrier omission only races against the *next* iteration's stores.
    for start in [0i64, (threads * 32) as i64] {
        cta.run_window(WindowInputs { basis: basis.streams(), globals: &[] }, start, &mut counters)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[test]
fn intact_kernels_are_race_free() {
    for pat in ["abcdef", "a(bc)*d", "ab{2,4}c", "x[p-r]+y|zz"] {
        let prog = lower(&parse(pat).unwrap());
        for merge in [1, 4] {
            let compiled =
                compile(&prog, &[], &[], &CodegenOptions { merge_size: merge });
            run(&compiled.kernel, b"abcdef abcd abbc xqy zz", 4)
                .unwrap_or_else(|e| panic!("{pat:?} merge {merge}: {e}"));
        }
    }
}

#[test]
fn every_single_barrier_omission_is_caught() {
    // A shift-heavy kernel: removing *any* barrier must produce a race on
    // an input that exercises every shift group.
    let prog = lower(&parse("abcdef").unwrap());
    let compiled = compile(&prog, &[], &[], &CodegenOptions { merge_size: 2 });
    let total = compiled.kernel.barrier_count();
    assert!(total >= 4, "expected several barriers, got {total}");
    let mut caught = 0;
    for n in 0..total {
        let mutated = without_barrier(&compiled.kernel, n).expect("barrier exists");
        assert_eq!(mutated.barrier_count(), total - 1);
        if run(&mutated, b"abcdefabcdef", 4).is_err() {
            caught += 1;
        }
    }
    assert_eq!(
        caught, total,
        "the race checker must flag every barrier omission ({caught}/{total})"
    );
}

#[test]
fn mutation_inside_loops_is_caught() {
    let prog = lower(&parse("a(bc)*d").unwrap());
    let compiled = compile(&prog, &[], &[], &CodegenOptions::default());
    let total = compiled.kernel.barrier_count();
    let mut caught = 0;
    for n in 0..total {
        let mutated = without_barrier(&compiled.kernel, n).expect("barrier exists");
        if run(&mutated, b"abcbcd", 4).is_err() {
            caught += 1;
        }
    }
    assert_eq!(caught, total, "loop-body barriers are as load-bearing as any");
}

#[test]
fn stripping_past_the_end_returns_none() {
    let prog = lower(&parse("ab").unwrap());
    let compiled = compile(&prog, &[], &[], &CodegenOptions::default());
    let total = compiled.kernel.barrier_count();
    assert!(without_barrier(&compiled.kernel, total).is_none());
}
