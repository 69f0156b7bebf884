//! In-memory spans at the layer boundaries, the JSONL artifact, and the
//! summary (self times, shares, percentiles) recomputed from either.
//!
//! A span is `{name, layer, cycle, start_ns, end_ns, parent}`; the layer
//! is the part of the name before the first `.` (the crate), the root
//! span `cycle` belongs to layer `e2e`, and spans of one monitoring cycle
//! share its cycle id. `parent` names the enclosing span of the same
//! cycle; the twin lanes that run after the root span closed have none.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Name of the root span: batch handed in -> last `Replica::apply` returned.
pub const ROOT: &str = "cycle";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span<'a> {
    pub name: &'a str,
    pub cycle: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<&'a str>,
}

impl Span<'_> {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub fn layer_of(name: &str) -> &str {
    match name.split_once('.') {
        Some((layer, _)) => layer,
        None => "e2e",
    }
}

/// The clock every timing in a run is read from, plus the span store.
/// With tracing off `record` is a no-op, so the end-to-end pass pays only
/// the two clock reads around the measured unit.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span<'static>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Pause or resume recording (warm-up cycles leave no spans).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn record(
        &mut self,
        name: &'static str,
        cycle: u64,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.on {
            self.spans.push(Span {
                name,
                cycle,
                start_ns,
                end_ns,
                parent,
            });
        }
    }

    pub fn spans(&self) -> &[Span<'static>] {
        &self.spans
    }

    pub fn write_jsonl<W: Write>(&self, mut out: W) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = match s.parent {
                Some(p) => format!("\"{p}\""),
                None => "null".to_string(),
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"layer\":\"{}\",\"cycle\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name,
                layer_of(s.name),
                s.cycle,
                s.start_ns,
                s.end_ns,
                parent
            )?;
        }
        out.flush()
    }
}

/// The value of `"key":` in one line of our own JSONL (flat objects, no
/// escapes, no nested quotes): the text up to the next `,` or `}`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[at..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim())
}

fn unquote(v: &str) -> Option<&str> {
    v.strip_prefix('"')?.strip_suffix('"')
}

/// Parse a trace file written by [`Tracer::write_jsonl`].
pub fn parse_jsonl(text: &str) -> Result<Vec<Span<'_>>, String> {
    let mut spans = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let bad = |what: &str| format!("line {}: {what}", i + 1);
        let num = |key: &str| -> Result<u64, String> {
            field(line, key)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad(key))
        };
        let parent = match field(line, "parent").ok_or_else(|| bad("parent"))? {
            "null" => None,
            v => Some(unquote(v).ok_or_else(|| bad("parent"))?),
        };
        spans.push(Span {
            name: field(line, "name")
                .and_then(unquote)
                .ok_or_else(|| bad("name"))?,
            cycle: num("cycle")?,
            start_ns: num("start_ns")?,
            end_ns: num("end_ns")?,
            parent,
        });
    }
    Ok(spans)
}

/// Per-cycle durations of the spans called `name`, keyed by cycle id.
pub fn by_cycle(spans: &[Span<'_>], name: &str) -> BTreeMap<u64, u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.cycle, s.ns()))
        .collect()
}

/// One row of the summary: all spans sharing a name.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub count: usize,
    pub total_ms: f64,
    /// Total minus the part covered by child spans.
    pub self_ms: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    /// `total_ms` over the root span's total (0 when there is no root).
    pub share: f64,
}

pub fn summarize(spans: &[Span<'_>]) -> Vec<Row> {
    // Time covered by children, per (cycle, parent name).
    let mut covered: BTreeMap<(u64, &str), u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *covered.entry((s.cycle, p)).or_default() += s.ns();
        }
    }
    let mut groups: BTreeMap<&str, (Vec<f64>, u64)> = BTreeMap::new();
    for s in spans {
        let g = groups.entry(s.name).or_default();
        g.0.push(s.ns() as f64 / 1e6);
        let child = covered.get(&(s.cycle, s.name)).copied().unwrap_or(0);
        g.1 += s.ns().saturating_sub(child);
    }
    let root_ms: f64 = groups.get(ROOT).map_or(0.0, |g| g.0.iter().sum());
    groups
        .into_iter()
        .map(|(name, (mut ms, self_ns))| {
            let total_ms: f64 = ms.iter().sum();
            crate::stats::sort(&mut ms);
            Row {
                name: name.to_string(),
                count: ms.len(),
                total_ms,
                self_ms: self_ns as f64 / 1e6,
                p50_ms: crate::stats::percentile(&ms, 0.50),
                p95_ms: crate::stats::percentile(&ms, 0.95),
                share: if root_ms > 0.0 {
                    total_ms / root_ms
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// Sum of the root's direct children over the root: how much of the
/// measured unit the layer spans account for.
pub fn share_sum(spans: &[Span<'_>]) -> f64 {
    let root: u64 = spans.iter().filter(|s| s.name == ROOT).map(Span::ns).sum();
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(ROOT))
        .map(Span::ns)
        .sum();
    if root == 0 {
        0.0
    } else {
        children as f64 / root as f64
    }
}

pub fn print_summary(rows: &[Row], share_sum: f64) {
    println!(
        "{:<24} {:<8} {:>6} {:>12} {:>12} {:>10} {:>10} {:>7}",
        "span", "layer", "count", "total_ms", "self_ms", "p50_ms", "p95_ms", "share"
    );
    for r in rows {
        println!(
            "{:<24} {:<8} {:>6} {:>12.3} {:>12.3} {:>10.4} {:>10.4} {:>7.4}",
            r.name,
            layer_of(&r.name),
            r.count,
            r.total_ms,
            r.self_ms,
            r.p50_ms,
            r.p95_ms,
            r.share
        );
    }
    println!("share_sum (root's children / root) = {share_sum:.4}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_round_trips_and_self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.record(ROOT, 7, None, 0, 1_000_000);
        t.record("core.cycle", 7, Some(ROOT), 0, 600_000);
        t.record("sub.apply", 7, Some(ROOT), 600_000, 900_000);
        t.record("wire.encode", 7, None, 1_000_000, 1_200_000);
        let mut bytes = Vec::new();
        t.write_jsonl(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, t.spans());

        let rows = summarize(&parsed);
        let root = rows.iter().find(|r| r.name == ROOT).unwrap();
        assert!((root.total_ms - 1.0).abs() < 1e-12);
        assert!((root.self_ms - 0.1).abs() < 1e-12);
        let core = rows.iter().find(|r| r.name == "core.cycle").unwrap();
        assert!((core.share - 0.6).abs() < 1e-12);
        assert!((share_sum(&parsed) - 0.9).abs() < 1e-12);
        assert_eq!(layer_of("wire.encode"), "wire");
        assert_eq!(layer_of(ROOT), "e2e");
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        assert!(parse_jsonl("{\"name\":\"x\"}").is_err());
        assert!(parse_jsonl("garbage").is_err());
    }
}
