//! In-memory spans around every call into a layer, written out when
//! the run ends.
//!
//! The spans are recorded from the benchmark's side of each public
//! call. An op is decomposed on twin streams that advance in lock-step
//! (the same bytes go through the daemon, an in-process service and a
//! standalone scanner), so a span's `parent` is the span it is *part
//! of* in the real call tree, not the span that was open when it ran.
//! A layer's self time is its span minus the spans that name it as
//! parent.

use crate::clock::quantile;
use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    op: u32,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// The span store of one traced phase.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    op: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 18),
            op: 0,
        }
    }

    /// Starts the next op; spans recorded from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Times `f` as a span called `name` that is part of `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns,
            end_ns,
        });
        (out, self.spans.len() - 1)
    }

    /// Records a span whose duration another layer measured itself
    /// (the pass pipeline reports its own nanoseconds).
    pub fn reported(&mut self, name: &'static str, parent: Option<SpanId>, nanos: u64) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let start_ns = end_ns.saturating_sub(nanos);
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Records `span` a second time as part of another `parent`, for
    /// work the real call tree does twice but one twin call measured.
    pub fn repeat(&mut self, span: SpanId, parent: Option<SpanId>) {
        let copy = Span {
            parent,
            op: self.op,
            ..self.spans[span]
        };
        self.spans.push(copy);
    }

    /// Median duration and median self time of every span name, in
    /// microseconds, each multiplied by `scale`.
    pub fn summary(&self, scale: f64) -> HashMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut total: HashMap<&'static str, Vec<f64>> = HashMap::new();
        let mut own: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let dur = (span.end_ns - span.start_ns) as f64;
            total.entry(span.name).or_default().push(dur / 1e3 * scale);
            own.entry(span.name)
                .or_default()
                .push((dur - *children as f64) / 1e3 * scale);
        }
        total
            .into_iter()
            .map(|(name, mut durs)| {
                let self_us = own.get_mut(name).map_or(0.0, |v| quantile(v, 0.5));
                (
                    name,
                    LayerTime {
                        us: quantile(&mut durs, 0.5),
                        self_us,
                    },
                )
            })
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op_id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.op, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// What the trace says about one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Median duration, µs at reference speed.
    pub us: f64,
    /// Median of duration minus children, µs at reference speed.
    pub self_us: f64,
}
