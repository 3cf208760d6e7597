//! Service-level counters: what the daemon did *around* the scans.
//!
//! Per-scan performance lives in [`bitgen_exec::Metrics`] (each stream
//! accumulates its own record through its checkpoints). This module
//! counts the serving layer itself — cache effectiveness, admission
//! control, queue wait, drain/adopt lifecycle — the numbers an operator
//! watches to size the pool and the budgets, plus a per-tenant
//! breakdown for spotting the tenant that is eating the queue.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// A point-in-time snapshot of the service counters, taken with
/// [`crate::ScanService::metrics`]. All counters are totals since the
/// service started (adopted streams carry their totals in their
/// checkpoints, not here).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeMetrics {
    /// Admissions served by an already-compiled engine from the
    /// pattern cache — the second tenant submitting a pattern set pays
    /// no compile time.
    pub cache_hits: u64,
    /// Admissions that had to compile their pattern set. Equals the
    /// number of engines ever built by the service (plus hot-swap
    /// compiles, which are counted in [`ServeMetrics::hot_swaps`], not
    /// here).
    pub cache_misses: u64,
    /// Engines dropped from the cache to respect its capacity bound.
    /// Streams already holding the engine keep it alive (shared
    /// ownership); eviction only forgets it for *future* admissions.
    pub cache_evictions: u64,
    /// Streams admitted, over all tenants (including adopted ones).
    pub streams_opened: u64,
    /// Streams closed (explicitly or by a client connection ending).
    pub streams_closed: u64,
    /// Admissions refused with [`bitgen::Error::Overloaded`] — the
    /// tenant was at its open-stream budget.
    pub rejected_admissions: u64,
    /// Pushes refused with [`bitgen::Error::Overloaded`] — the shared
    /// queue or the tenant's queue slice was full. Nothing was
    /// buffered; the stream state is untouched.
    pub rejected_pushes: u64,
    /// Requests refused with [`bitgen::Error::Draining`] — they arrived
    /// after the service stopped admitting work for a drain. Retryable
    /// against the successor instance.
    pub rejected_draining: u64,
    /// Pushes that ran to a committed chunk boundary.
    pub pushes_completed: u64,
    /// Pushes that ran but failed (cancelled, deadline, exhausted
    /// retries). The stream stays at its previous boundary — the
    /// per-push resume discards the failed attempt — so these are
    /// retryable, not fatal.
    pub pushes_failed: u64,
    /// Pushes answered from the idempotent replay window: the client
    /// re-sent a chunk the service had already committed (its ack was
    /// lost), and got the cached ends back instead of a double scan.
    pub pushes_replayed: u64,
    /// Total seconds pushes spent queued before a worker picked them
    /// up. Divide by [`ServeMetrics::pushes_completed`] +
    /// [`ServeMetrics::pushes_failed`] for the mean wait.
    pub queue_wait_seconds: f64,
    /// Longest single queue wait observed, in seconds.
    pub queue_wait_max_seconds: f64,
    /// Rule-set generations hot-swapped onto live streams through the
    /// service.
    pub hot_swaps: u64,
    /// Bytes pushed through committed scans, over all streams.
    pub bytes_scanned: u64,
    /// Match ends reported, over all streams.
    pub match_count: u64,
    /// Drains the service performed (each checkpoints every open
    /// stream into the drain manifest).
    pub drains: u64,
    /// Drains that overran their deadline and cancelled in-flight
    /// pushes to finish. The cancelled pushes rolled back, so their
    /// streams checkpointed at the previous boundary — nothing lost,
    /// but their clients must re-push.
    pub drains_forced: u64,
    /// Streams checkpointed into a drain manifest.
    pub streams_drained: u64,
    /// Streams adopted from a drain manifest at startup.
    pub streams_adopted: u64,
    /// Per-tenant breakdown, keyed by tenant name (sorted).
    pub tenants: BTreeMap<String, TenantMetrics>,
}

/// One tenant's slice of the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantMetrics {
    /// Streams the tenant has open right now (a gauge, not a total).
    pub open_streams: u64,
    /// Pushes committed for the tenant.
    pub pushes: u64,
    /// Requests refused for the tenant (admission, queue, or drain).
    pub rejections: u64,
    /// Pushes answered from the tenant's replay windows — how often its
    /// clients retried an already-committed chunk.
    pub retries: u64,
}

impl ServeMetrics {
    /// Renders the snapshot as one JSON object with a stable key order
    /// — scalar counters first, flat, then a `"tenants"` object keyed
    /// by tenant name, sorted.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push('{');
        let field = |s: &mut String, key: &str, value: &str| {
            if !s.ends_with('{') {
                s.push(',');
            }
            let _ = write!(s, "\"{key}\":{value}");
        };
        field(&mut s, "cache_hits", &self.cache_hits.to_string());
        field(&mut s, "cache_misses", &self.cache_misses.to_string());
        field(&mut s, "cache_evictions", &self.cache_evictions.to_string());
        field(&mut s, "streams_opened", &self.streams_opened.to_string());
        field(&mut s, "streams_closed", &self.streams_closed.to_string());
        field(&mut s, "rejected_admissions", &self.rejected_admissions.to_string());
        field(&mut s, "rejected_pushes", &self.rejected_pushes.to_string());
        field(&mut s, "rejected_draining", &self.rejected_draining.to_string());
        field(&mut s, "pushes_completed", &self.pushes_completed.to_string());
        field(&mut s, "pushes_failed", &self.pushes_failed.to_string());
        field(&mut s, "pushes_replayed", &self.pushes_replayed.to_string());
        field(&mut s, "queue_wait_seconds", &json_f64(self.queue_wait_seconds));
        field(&mut s, "queue_wait_max_seconds", &json_f64(self.queue_wait_max_seconds));
        field(&mut s, "hot_swaps", &self.hot_swaps.to_string());
        field(&mut s, "bytes_scanned", &self.bytes_scanned.to_string());
        field(&mut s, "match_count", &self.match_count.to_string());
        field(&mut s, "drains", &self.drains.to_string());
        field(&mut s, "drains_forced", &self.drains_forced.to_string());
        field(&mut s, "streams_drained", &self.streams_drained.to_string());
        field(&mut s, "streams_adopted", &self.streams_adopted.to_string());
        s.push_str(",\"tenants\":{");
        for (i, (tenant, t)) in self.tenants.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{}\":{{\"open_streams\":{},\"pushes\":{},\"rejections\":{},\"retries\":{}}}",
                json_escape(tenant),
                t.open_streams,
                t.pushes,
                t.rejections,
                t.retries,
            );
        }
        s.push_str("}}");
        s
    }

    /// Parses the output of [`Self::to_json`] back into a
    /// snapshot — the wire `STATS` reply on the client side. Tolerates
    /// any key order and unknown scalar keys (skipped), so old clients
    /// keep working when new counters appear. `None` when the text is
    /// not that shape.
    pub fn from_json(text: &str) -> Option<ServeMetrics> {
        let mut p = JsonCursor::new(text);
        let mut m = ServeMetrics::default();
        p.expect('{')?;
        loop {
            if p.try_consume('}') {
                break;
            }
            let key = p.string()?;
            p.expect(':')?;
            if key == "tenants" {
                p.expect('{')?;
                loop {
                    if p.try_consume('}') {
                        break;
                    }
                    let tenant = p.string()?;
                    p.expect(':')?;
                    p.expect('{')?;
                    let mut t = TenantMetrics::default();
                    loop {
                        if p.try_consume('}') {
                            break;
                        }
                        let field = p.string()?;
                        p.expect(':')?;
                        let value = p.number()?;
                        let cell = match field.as_str() {
                            "open_streams" => &mut t.open_streams,
                            "pushes" => &mut t.pushes,
                            "rejections" => &mut t.rejections,
                            "retries" => &mut t.retries,
                            _ => {
                                p.try_consume(',');
                                continue;
                            }
                        };
                        *cell = value as u64;
                        p.try_consume(',');
                    }
                    m.tenants.insert(tenant, t);
                    p.try_consume(',');
                }
            } else {
                let value = p.number()?;
                match key.as_str() {
                    "cache_hits" => m.cache_hits = value as u64,
                    "cache_misses" => m.cache_misses = value as u64,
                    "cache_evictions" => m.cache_evictions = value as u64,
                    "streams_opened" => m.streams_opened = value as u64,
                    "streams_closed" => m.streams_closed = value as u64,
                    "rejected_admissions" => m.rejected_admissions = value as u64,
                    "rejected_pushes" => m.rejected_pushes = value as u64,
                    "rejected_draining" => m.rejected_draining = value as u64,
                    "pushes_completed" => m.pushes_completed = value as u64,
                    "pushes_failed" => m.pushes_failed = value as u64,
                    "pushes_replayed" => m.pushes_replayed = value as u64,
                    "queue_wait_seconds" => m.queue_wait_seconds = value,
                    "queue_wait_max_seconds" => m.queue_wait_max_seconds = value,
                    "hot_swaps" => m.hot_swaps = value as u64,
                    "bytes_scanned" => m.bytes_scanned = value as u64,
                    "match_count" => m.match_count = value as u64,
                    "drains" => m.drains = value as u64,
                    "drains_forced" => m.drains_forced = value as u64,
                    "streams_drained" => m.streams_drained = value as u64,
                    "streams_adopted" => m.streams_adopted = value as u64,
                    _ => {}
                }
            }
            p.try_consume(',');
        }
        Some(m)
    }
}

/// Finite-safe JSON float rendering (JSON has no NaN/Inf literals).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// Escapes a tenant name for use as a JSON key. Tenant names come in
/// hex-decoded off the wire, so arbitrary bytes are possible.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The minimal cursor [`ServeMetrics::from_json`] needs: strings,
/// numbers (or `null`), and single punctuation, whitespace-tolerant.
struct JsonCursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> JsonCursor<'a> {
    fn new(text: &'a str) -> JsonCursor<'a> {
        JsonCursor { text, pos: 0 }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while self.bytes().get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Option<()> {
        self.skip_ws();
        if self.bytes().get(self.pos) == Some(&(c as u8)) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn try_consume(&mut self, c: char) -> bool {
        self.skip_ws();
        if self.bytes().get(self.pos) == Some(&(c as u8)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn string(&mut self) -> Option<String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match *self.bytes().get(self.pos)? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match *self.bytes().get(self.pos)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'u' => {
                            let hex = self.bytes().get(self.pos + 1..self.pos + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16)
                                    .ok()?;
                            out.push(char::from_u32(code)?);
                            self.pos += 4;
                        }
                        other => out.push(other as char),
                    }
                    self.pos += 1;
                }
                _ => {
                    // Consume one UTF-8 scalar, not one byte. A byte-wise
                    // escape above may have stopped inside a scalar.
                    if !self.text.is_char_boundary(self.pos) {
                        return None;
                    }
                    let c = self.text[self.pos..].chars().next()?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// A JSON number, or `null` (rendered for non-finite floats), as
    /// `f64`. Counters fit exactly: they are far below 2^53 in
    /// practice.
    fn number(&mut self) -> Option<f64> {
        self.skip_ws();
        if self.bytes()[self.pos..].starts_with(b"null") {
            self.pos += 4;
            return Some(0.0);
        }
        let start = self.pos;
        while self
            .bytes()
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'-' | b'+' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        self.text.get(start..self.pos)?.parse().ok()
    }
}

/// The live counter cells the service threads bump. The scalar cells
/// are lock-free atomics so workers never serialise on a metrics
/// mutex; the per-tenant map takes a short mutex only on open, close,
/// reject, and replay — never inside a scan.
#[derive(Debug, Default)]
pub(crate) struct MetricCells {
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    pub cache_evictions: AtomicU64,
    pub streams_opened: AtomicU64,
    pub streams_closed: AtomicU64,
    pub rejected_admissions: AtomicU64,
    pub rejected_pushes: AtomicU64,
    pub rejected_draining: AtomicU64,
    pub pushes_completed: AtomicU64,
    pub pushes_failed: AtomicU64,
    pub pushes_replayed: AtomicU64,
    pub queue_wait_nanos: AtomicU64,
    pub queue_wait_max_nanos: AtomicU64,
    pub hot_swaps: AtomicU64,
    pub bytes_scanned: AtomicU64,
    pub match_count: AtomicU64,
    pub drains: AtomicU64,
    pub drains_forced: AtomicU64,
    pub streams_drained: AtomicU64,
    pub streams_adopted: AtomicU64,
    tenants: Mutex<BTreeMap<String, TenantMetrics>>,
}

impl MetricCells {
    /// Records one request's time-in-queue.
    pub fn note_queue_wait(&self, waited: Duration) {
        let nanos = u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX);
        self.queue_wait_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.queue_wait_max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Bumps one tenant's breakdown cells.
    pub fn tenant(&self, tenant: &str, update: impl FnOnce(&mut TenantMetrics)) {
        let mut map = self.tenants.lock().unwrap_or_else(|p| p.into_inner());
        update(map.entry(tenant.to_string()).or_default());
    }

    /// Snapshots every cell into the public record.
    pub fn snapshot(&self) -> ServeMetrics {
        let get = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        ServeMetrics {
            cache_hits: get(&self.cache_hits),
            cache_misses: get(&self.cache_misses),
            cache_evictions: get(&self.cache_evictions),
            streams_opened: get(&self.streams_opened),
            streams_closed: get(&self.streams_closed),
            rejected_admissions: get(&self.rejected_admissions),
            rejected_pushes: get(&self.rejected_pushes),
            rejected_draining: get(&self.rejected_draining),
            pushes_completed: get(&self.pushes_completed),
            pushes_failed: get(&self.pushes_failed),
            pushes_replayed: get(&self.pushes_replayed),
            queue_wait_seconds: get(&self.queue_wait_nanos) as f64 / 1e9,
            queue_wait_max_seconds: get(&self.queue_wait_max_nanos) as f64 / 1e9,
            hot_swaps: get(&self.hot_swaps),
            bytes_scanned: get(&self.bytes_scanned),
            match_count: get(&self.match_count),
            drains: get(&self.drains),
            drains_forced: get(&self.drains_forced),
            streams_drained: get(&self.streams_drained),
            streams_adopted: get(&self.streams_adopted),
            tenants: self.tenants.lock().unwrap_or_else(|p| p.into_inner()).clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_json_are_stable() {
        let cells = MetricCells::default();
        cells.cache_hits.store(3, Ordering::Relaxed);
        cells.cache_misses.store(1, Ordering::Relaxed);
        cells.note_queue_wait(Duration::from_millis(2));
        cells.note_queue_wait(Duration::from_millis(5));
        cells.tenant("acme", |t| t.open_streams += 2);
        let snap = cells.snapshot();
        assert_eq!(snap.cache_hits, 3);
        assert_eq!(snap.cache_misses, 1);
        assert!((snap.queue_wait_seconds - 0.007).abs() < 1e-9);
        assert!((snap.queue_wait_max_seconds - 0.005).abs() < 1e-9);
        let j = snap.to_json();
        assert!(j.starts_with("{\"cache_hits\":3,"));
        assert!(j.contains("\"queue_wait_max_seconds\":0.005"));
        assert!(j.contains("\"tenants\":{\"acme\":{\"open_streams\":2,"));
        assert!(j.ends_with("}}"));
    }

    #[test]
    fn json_round_trips_every_field() {
        let mut m = ServeMetrics {
            cache_hits: 1,
            cache_misses: 2,
            cache_evictions: 3,
            streams_opened: 4,
            streams_closed: 5,
            rejected_admissions: 6,
            rejected_pushes: 7,
            rejected_draining: 8,
            pushes_completed: 9,
            pushes_failed: 10,
            pushes_replayed: 11,
            queue_wait_seconds: 0.125,
            queue_wait_max_seconds: 0.5,
            hot_swaps: 12,
            bytes_scanned: 13,
            match_count: 14,
            drains: 15,
            drains_forced: 16,
            streams_drained: 17,
            streams_adopted: 18,
            tenants: BTreeMap::new(),
        };
        m.tenants.insert(
            "acme".to_string(),
            TenantMetrics { open_streams: 2, pushes: 40, rejections: 1, retries: 3 },
        );
        m.tenants.insert(
            "zeta \"quoted\" törn 🦀".to_string(),
            TenantMetrics { open_streams: 0, pushes: 7, rejections: 0, retries: 0 },
        );
        let parsed = ServeMetrics::from_json(&m.to_json()).expect("round trip");
        assert_eq!(parsed, m);
        // Unknown scalar keys are skipped, not fatal.
        let with_future =
            m.to_json().replacen('{', "{\"future_counter\":99,", 1);
        assert_eq!(ServeMetrics::from_json(&with_future), Some(m));
        // Shapes that are not the record at all are refused.
        assert_eq!(ServeMetrics::from_json("not json"), None);
        assert_eq!(ServeMetrics::from_json("{\"cache_hits\":"), None);
        // An escape is byte-wise: before a multi-byte scalar it leaves the
        // cursor inside the scalar, which is refused, not sliced.
        assert_eq!(ServeMetrics::from_json("{\"tenants\":{\"\\é\":{}}}"), None);
    }

    #[test]
    fn json_floats_stay_parseable() {
        assert_eq!(json_f64(0.25), "0.25");
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
