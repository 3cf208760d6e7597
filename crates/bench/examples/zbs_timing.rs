//! Quick pass-pipeline probe over the nested-repetition family
//! `(?:(?:ab){N}){N}` — the shape that exposed the old super-linear
//! transform pipeline. Prints per-pass wall time and work counters;
//! `tests/pass_complexity.rs` gates the same growth on visit counts.
//!
//! ```text
//! cargo run --release --example zbs_timing -p bitgen-bench
//! ```

use bitgen_ir::lower;
use bitgen_passes::{insert_zero_skips, rebalance, ZbsConfig};
use bitgen_regex::parse;
use std::time::Instant;

fn main() {
    for n in [10usize, 20] {
        let pat = format!("(?:(?:ab){{{n}}}){{{n}}}");
        let mut prog = lower(&parse(&pat).unwrap());
        let t = Instant::now();
        let rb = rebalance(&mut prog);
        let trb = t.elapsed();
        let ops = prog.op_count();
        let t = Instant::now();
        let st = insert_zero_skips(&mut prog, ZbsConfig::default());
        let tz = t.elapsed();
        println!(
            "N={n}: ops={ops} rebalance={trb:?} (rw {} mg {} it {} visits {}) \
             zbs={tz:?} (visits {} guards {} prezeros {})",
            rb.rewrites, rb.merges, rb.iterations, rb.visits, st.visits, st.guards, st.prezeros
        );
    }
}
