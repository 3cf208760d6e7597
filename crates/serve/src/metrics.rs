//! Service-level counters: what the daemon did *around* the scans.
//!
//! Per-scan performance lives in [`bitgen_exec::Metrics`] (each stream
//! accumulates its own record through its checkpoints). This module
//! counts the serving layer itself — cache effectiveness, admission
//! control, queue wait, drain/adopt lifecycle — the numbers an operator
//! watches to size the pool and the budgets, plus a per-tenant
//! breakdown for spotting the tenant that is eating the queue.
//!
//! The service's live counters are one [`ServeMetrics`] behind one
//! mutex: each push, refusal, admission, swap, close or drain takes that
//! lock once and bumps plain fields, and [`crate::ScanService::metrics`]
//! returns a clone. A tenant's row is created, and its name copied, the
//! first time the tenant is counted. Outside the struct declarations
//! each counter is named once, in a `(key, field)` table row that both
//! renders the `STATS` JSON and parses it back.

use std::collections::BTreeMap;
use std::fmt::Write as _;
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
    /// Requests refused for the tenant: admissions over its stream
    /// budget, pushes over a queue bound, pushes whose offset named
    /// neither the committed boundary nor the replay window, and every
    /// request (admission, push or swap) refused during a drain.
    pub rejections: u64,
    /// Pushes answered from the tenant's replay windows — how often its
    /// clients retried an already-committed chunk.
    pub retries: u64,
}

impl ServeMetrics {
    /// Renders the record as one JSON object with a stable key order
    /// — scalar counters first, flat, then a `"tenants"` object keyed
    /// by tenant name, sorted.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push('{');
        write_scalars(&mut s, self.clone().scalars());
        s.push_str(",\"tenants\":{");
        for (i, (tenant, t)) in self.tenants.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let mut t = *t;
            let _ = write!(s, "\"{}\":{{", json_escape(tenant));
            write_scalars(&mut s, t.scalars());
            s.push('}');
        }
        s.push_str("}}");
        s
    }

    /// Parses the output of [`Self::to_json`] back into a
    /// record — the wire `STATS` reply on the client side. Tolerates
    /// any key order and unknown scalar keys (skipped), so old clients
    /// keep working when new counters appear. `None` when the text is
    /// not that shape.
    pub fn from_json(text: &str) -> Option<ServeMetrics> {
        let mut p = JsonCursor { text, pos: 0 };
        let mut m = ServeMetrics::default();
        p.object(|p, key| {
            if key != "tenants" {
                return p.scalar(&key, m.scalars());
            }
            p.object(|p, tenant| {
                let t = m.tenants.entry(tenant).or_default();
                p.object(|p, field| p.scalar(&field, t.scalars()))
            })
        })?;
        Some(m)
    }

    /// Records one push's time in the queue.
    pub(crate) fn note_queue_wait(&mut self, waited: Duration) {
        let seconds = waited.as_secs_f64();
        self.queue_wait_seconds += seconds;
        self.queue_wait_max_seconds = self.queue_wait_max_seconds.max(seconds);
    }

    /// Updates `tenant`'s row, creating it on the tenant's first
    /// appearance — the only time the name is copied.
    pub(crate) fn tenant(&mut self, tenant: &str, update: impl FnOnce(&mut TenantMetrics)) {
        match self.tenants.get_mut(tenant) {
            Some(row) => update(row),
            None => update(self.tenants.entry(tenant.to_string()).or_default()),
        }
    }

    /// The scalar counters in `STATS` key order: the one place outside
    /// the declaration that names each of them.
    fn scalars(&mut self) -> [Row<'_>; 20] {
        use Scalar::{Count, Seconds};
        [
            ("cache_hits", Count(&mut self.cache_hits)),
            ("cache_misses", Count(&mut self.cache_misses)),
            ("cache_evictions", Count(&mut self.cache_evictions)),
            ("streams_opened", Count(&mut self.streams_opened)),
            ("streams_closed", Count(&mut self.streams_closed)),
            ("rejected_admissions", Count(&mut self.rejected_admissions)),
            ("rejected_pushes", Count(&mut self.rejected_pushes)),
            ("rejected_draining", Count(&mut self.rejected_draining)),
            ("pushes_completed", Count(&mut self.pushes_completed)),
            ("pushes_failed", Count(&mut self.pushes_failed)),
            ("pushes_replayed", Count(&mut self.pushes_replayed)),
            ("queue_wait_seconds", Seconds(&mut self.queue_wait_seconds)),
            ("queue_wait_max_seconds", Seconds(&mut self.queue_wait_max_seconds)),
            ("hot_swaps", Count(&mut self.hot_swaps)),
            ("bytes_scanned", Count(&mut self.bytes_scanned)),
            ("match_count", Count(&mut self.match_count)),
            ("drains", Count(&mut self.drains)),
            ("drains_forced", Count(&mut self.drains_forced)),
            ("streams_drained", Count(&mut self.streams_drained)),
            ("streams_adopted", Count(&mut self.streams_adopted)),
        ]
    }
}

impl TenantMetrics {
    /// The tenant counters in `STATS` key order.
    fn scalars(&mut self) -> [Row<'_>; 4] {
        [
            ("open_streams", Scalar::Count(&mut self.open_streams)),
            ("pushes", Scalar::Count(&mut self.pushes)),
            ("rejections", Scalar::Count(&mut self.rejections)),
            ("retries", Scalar::Count(&mut self.retries)),
        ]
    }
}

/// One counter field, as the JSON table reads and writes it.
enum Scalar<'a> {
    Count(&'a mut u64),
    Seconds(&'a mut f64),
}

/// A table row: a counter's `STATS` key and its field.
type Row<'a> = (&'static str, Scalar<'a>);

/// Writes `"key":value` pairs, comma-separated, in table order.
fn write_scalars<'a>(s: &mut String, rows: impl IntoIterator<Item = Row<'a>>) {
    for (i, (key, value)) in rows.into_iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = match value {
            Scalar::Count(v) => write!(s, "\"{key}\":{v}"),
            Scalar::Seconds(v) => write!(s, "\"{key}\":{}", json_f64(*v)),
        };
    }
}

/// Finite-safe JSON float rendering (JSON has no NaN/Inf literals).
fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v.fract() == 0.0 {
        format!("{v}.0")
    } else {
        format!("{v}")
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
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while self.bytes().get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Option<()> {
        self.try_consume(c).then_some(())
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

    /// An object, `member` reading each value after its key. Commas
    /// between members are optional.
    fn object(&mut self, mut member: impl FnMut(&mut Self, String) -> Option<()>) -> Option<()> {
        self.expect('{')?;
        while !self.try_consume('}') {
            let key = self.string()?;
            self.expect(':')?;
            member(self, key)?;
            self.try_consume(',');
        }
        Some(())
    }

    /// A number stored into the row of `rows` named `key`; skipped
    /// when no row is.
    fn scalar<'r>(&mut self, key: &str, rows: impl IntoIterator<Item = Row<'r>>) -> Option<()> {
        let value = self.number()?;
        match rows.into_iter().find(|(name, _)| *name == key) {
            Some((_, Scalar::Count(cell))) => *cell = value as u64,
            Some((_, Scalar::Seconds(cell))) => *cell = value,
            None => {}
        }
        Some(())
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_json_are_stable() {
        let mut live = ServeMetrics { cache_hits: 3, cache_misses: 1, ..ServeMetrics::default() };
        live.note_queue_wait(Duration::from_millis(2));
        live.note_queue_wait(Duration::from_millis(5));
        live.tenant("acme", |t| t.open_streams += 2);
        live.tenant("acme", |t| t.pushes += 1);
        let snap = live.clone();
        assert_eq!(
            snap.tenants["acme"],
            TenantMetrics { open_streams: 2, pushes: 1, rejections: 0, retries: 0 }
        );
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
        // The exact bytes `Client::metrics` and every STATS reader parse.
        let expected = concat!(
            r#"{"cache_hits":1,"cache_misses":2,"cache_evictions":3,"streams_opened":4,"#,
            r#""streams_closed":5,"rejected_admissions":6,"rejected_pushes":7,"#,
            r#""rejected_draining":8,"pushes_completed":9,"pushes_failed":10,"#,
            r#""pushes_replayed":11,"queue_wait_seconds":0.125,"queue_wait_max_seconds":0.5,"#,
            r#""hot_swaps":12,"bytes_scanned":13,"match_count":14,"drains":15,"#,
            r#""drains_forced":16,"streams_drained":17,"streams_adopted":18,"tenants":{"#,
            r#""acme":{"open_streams":2,"pushes":40,"rejections":1,"retries":3},"#,
            r#""zeta \"quoted\" törn 🦀":"#,
            r#"{"open_streams":0,"pushes":7,"rejections":0,"retries":0}}}"#,
        );
        assert_eq!(m.to_json(), expected);
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
