//! Compiler inspection: show every stage of the pipeline for one regex —
//! the bitstream program (Listing 3 style), the effect of shift
//! rebalancing and zero-block skipping, the overlap analysis, and the
//! generated pseudo-CUDA kernel.
//!
//! ```text
//! cargo run --example kernel_inspect ['regex']
//! ```

use bitgen_ir::{lower, pretty};
use bitgen_kernel::{compile, emit_cuda, CodegenOptions};
use bitgen_passes::{insert_zero_skips, rebalance, OverlapInfo, ZbsConfig};
use bitgen_regex::parse;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pattern = std::env::args().nth(1).unwrap_or_else(|| "a(bc)*d".to_string());
    let ast = parse(&pattern)?;
    println!("### regex\n/{pattern}/\n");

    let mut prog = lower(&ast);
    println!("### bitstream program (Fig. 2 lowering)\n{}", pretty(&prog));

    let info = OverlapInfo::analyze(&prog);
    println!("### overlap analysis (§4.2)");
    println!(
        "static hull: {} bits back, {} bits forward (Δ = {})",
        info.base.left,
        info.base.right,
        info.base.total()
    );
    for (i, g) in info.loop_growth.iter().enumerate() {
        println!("loop {i}: grows {}+{} bits per trip", g.left, g.right);
    }
    println!();

    let stats = rebalance(&mut prog);
    println!(
        "### after shift rebalancing (§5.2): {} rewrites, {} merges\n{}",
        stats.rewrites,
        stats.merges,
        pretty(&prog)
    );

    let zstats = insert_zero_skips(&mut prog, ZbsConfig::default());
    println!(
        "### after zero-block skipping (§6): {} guards over {} instructions\n{}",
        zstats.guards,
        zstats.guarded_ops,
        pretty(&prog)
    );

    let compiled = compile(&prog, &[], &[], &CodegenOptions::default());
    println!(
        "### kernel: {} ops, {} barriers, {} smem slots, {} regs named (dense file), {} live at once",
        compiled.kernel.op_count(),
        compiled.kernel.barrier_count(),
        compiled.kernel.num_slots,
        compiled.kernel.num_regs,
        compiled.kernel.max_live_regs()
    );
    println!("\n### pseudo-CUDA\n{}", emit_cuda(&compiled.kernel, "bitgen_kernel"));
    Ok(())
}
