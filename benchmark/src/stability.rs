//! `run.sh --selfcheck`'s last step: turns the result lines of repeated
//! runs into the table committed as STABILITY.md.

use crate::clock::quantile;
use std::collections::BTreeMap;

/// Reads `path` — one `<workload>\t<result JSON>` line per run — and
/// prints, for every workload and metric, min / median / max and the
/// spread the driver computes: interquartile range over median.
pub fn summarize(path: &str) {
    let text = std::fs::read_to_string(path).expect("the self-check log is readable");
    // workload → metric → (unit, values), metrics in first-seen order.
    let mut table: BTreeMap<String, Vec<(String, String, Vec<f64>)>> = BTreeMap::new();
    for line in text.lines() {
        let Some((workload, json)) = line.split_once('\t') else {
            continue;
        };
        let rows = table.entry(workload.to_string()).or_default();
        for (name, value, unit) in metrics_of(json) {
            match rows.iter_mut().find(|row| row.0 == name) {
                Some(row) => row.2.push(value),
                None => rows.push((name, unit, vec![value])),
            }
        }
    }
    println!("| workload | metric | unit | runs | min | median | max | spread (IQR ÷ median) |");
    println!("|---|---|---|---|---|---|---|---|");
    for (workload, rows) in &table {
        for (name, unit, values) in rows {
            let mut v = values.clone();
            let median = quantile(&mut v, 0.5);
            let spread = if median != 0.0 {
                (quartile(&v, 3) - quartile(&v, 1)) / median
            } else {
                0.0
            };
            println!(
                "| {workload} | `{name}` | {unit} | {} | {:.6} | {:.6} | {:.6} | {:.2} % |",
                v.len(),
                v[0],
                median,
                v[v.len() - 1],
                spread * 100.0
            );
        }
    }
}

/// Quartile `k` of sorted `v` as Python's `statistics.quantiles(v,
/// n=4)` (the exclusive method) computes it, which is what the driver
/// uses.
fn quartile(v: &[f64], k: usize) -> f64 {
    let n = v.len();
    if n < 2 {
        return v.first().copied().unwrap_or(0.0);
    }
    let position = k * (n + 1);
    let index = (position / 4).clamp(1, n - 1);
    let delta = position as f64 / 4.0 - index as f64;
    v[index - 1] + (v[index] - v[index - 1]) * delta
}

/// Every `"name": {"value": v, "unit": "u"}` of a result line.
fn metrics_of(json: &str) -> Vec<(String, f64, String)> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find("\": {\"value\": ") {
        let name = rest[..at].rsplit('"').next().unwrap_or("").to_string();
        let after = &rest[at + "\": {\"value\": ".len()..];
        let Some(comma) = after.find(", \"unit\": \"") else {
            break;
        };
        let unit_start = comma + ", \"unit\": \"".len();
        let Some(unit_len) = after[unit_start..].find('"') else {
            break;
        };
        if let Ok(value) = after[..comma].parse::<f64>() {
            out.push((
                name,
                value,
                after[unit_start..unit_start + unit_len].to_string(),
            ));
        }
        rest = &after[unit_start + unit_len..];
    }
    out
}
