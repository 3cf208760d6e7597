//! Profiling and streaming: print an Nsight-style launch profile, compare
//! lowering extensions, and scan a stream chunk by chunk with the
//! carry-propagating scanner (unbounded patterns included).
//!
//! ```text
//! cargo run --release --example profile_and_stream
//! ```

use bitgen::{BitGen, EngineConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pats = ["GET /[a-z]{1,12} ", "err[0-9]{4}", "[A-Z][a-z]{1,8}bot"];
    let mut input: Vec<u8> = Vec::new();
    for i in 0..400 {
        match i % 5 {
            0 => input.extend_from_slice(b"GET /index HTTP\n"),
            1 => input.extend_from_slice(b"err4042 handled\n"),
            2 => input.extend_from_slice(b"Crawlbot visited\n"),
            _ => input.extend_from_slice(b"nothing to see..\n"),
        }
    }

    // 1. Batch scan with a profile.
    let engine = BitGen::compile_with(&pats, EngineConfig::default().with_cta_threads(64))?;
    let report = engine.find(&input)?;
    println!("batch: {} matches over {} bytes", report.match_count(), input.len());
    println!("{}", report.profile(&engine.config().device));

    // 2. Lowering extensions: log-repetition shrinks the bounded-repeat
    //    programs; per-CTA ALU work drops at identical output.
    let log_engine = BitGen::compile_with(
        &pats,
        EngineConfig { log_repetition: true, ..EngineConfig::default().with_cta_threads(64) },
    )?;
    let log_report = log_engine.find(&input)?;
    assert_eq!(log_report.match_count(), report.match_count());
    let alu = |r: &bitgen::ScanReport| -> u64 { r.metrics.counters_total().alu_ops };
    println!(
        "log-repetition lowering: ALU issues {} -> {} (same {} matches)\n",
        alu(&report),
        alu(&log_report),
        report.match_count()
    );

    // 3. Streaming: feed the same input in 1 KB chunks. Carry slots
    //    ferry the cross-chunk bits, so every pattern set streams (the
    //    unbounded `[0-9]+` here included), nothing is re-scanned, and
    //    the matches equal the batch scan under any chunking.
    let stream_pats = ["GET /[a-z]{1,12} ", "err[0-9]+", "[A-Z][a-z]{1,8}bot"];
    let stream_engine = BitGen::compile(&stream_pats)?;
    let batch_count = stream_engine.find(&input)?.match_count();
    let mut scanner = stream_engine.streamer()?;
    let mut streamed = Vec::new();
    for chunk in input.chunks(1024) {
        streamed.extend(scanner.push(chunk)?);
    }
    assert_eq!(streamed.len(), batch_count);
    let m = scanner.metrics();
    println!(
        "streaming: {} matches across {} chunks, modelled {:.3} ms total \
         ({} bytes consumed)",
        streamed.len(),
        input.len().div_ceil(1024),
        m.seconds() * 1e3,
        m.bytes_scanned,
    );
    Ok(())
}
