//! In-memory spans for the traced run, written out when the run ends.
//!
//! A span is one timed call the benchmark made into a layer (or one
//! window the program reported, such as a MapReduce phase): name, start,
//! end, parent span and request id. Nothing is traced inside the
//! program; spans are kept in a `Vec` and written as JSONL at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One recorded span; times are microseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.execute`.
    pub name: &'static str,
    /// Start, in µs since the tracer's epoch.
    pub start_us: f64,
    /// End, in µs since the tracer's epoch.
    pub end_us: f64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// The request (query, reload or MR round) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in µs.
    #[must_use]
    pub fn duration_us(&self) -> f64 {
        (self.end_us - self.start_us).max(0.0)
    }
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            enabled: true,
        }
    }

    /// A tracer that records nothing: the same calls, untraced.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new(Instant::now())
        }
    }

    /// Microseconds from the tracer's epoch to `at`.
    #[must_use]
    pub fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_nanos() as f64 / 1_000.0
    }

    /// Records a span and returns its index (for use as a parent).
    pub fn record(
        &mut self,
        name: &'static str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span named `name`; returns its result and the
    /// span's duration in µs.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let (s, e) = (self.us(start), self.us(end));
        self.record(name, s, e, parent, request);
        (out, e - s)
    }

    /// Closes span `id` at `at` (for a parent opened before its
    /// children were timed).
    pub fn close(&mut self, id: usize, at: Instant) {
        let end = self.us(at);
        if let Some(span) = self.spans.get_mut(id) {
            span.end_us = end;
        }
    }

    /// Per span name: count, total duration and self time (duration
    /// minus the part of its interval that its children cover), in µs.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut windows: Vec<(f64, f64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_us.max(s.start_us), c.end_us.min(s.end_us))
                })
                .filter(|(a, b)| b > a)
                .collect();
            windows.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in windows {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let entry = out.entry(s.name).or_insert((0, 0.0, 0.0));
            entry.0 += 1;
            entry.1 += s.duration_us();
            entry.2 += (s.duration_us() - covered).max(0.0);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// Propagates the write failure.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_us, s.end_us, s.request
            );
        }
        std::fs::write(path, out)
    }
}

/// Renders the per-layer summary: every span name with its count,
/// total and self time, then the extra rows (unattributed remainder,
/// tracing overhead, ...) given as `(label, value, unit)`.
#[must_use]
pub fn summary_table(tracer: &Tracer, extra: &[(&str, f64, &str)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>8} {:>14} {:>14} {:>12}",
        "span", "count", "total_ms", "self_ms", "self_us/each"
    );
    for (name, (count, total, own)) in tracer.self_times() {
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>14.3} {:>14.3} {:>12.1}",
            name,
            count,
            total / 1_000.0,
            own / 1_000.0,
            own / count.max(1) as f64
        );
    }
    for (label, value, unit) in extra {
        let _ = writeln!(out, "{label:<24} {value:>14.3} {unit}");
    }
    out
}

/// Writes the spans as JSONL and the per-layer summary table next to
/// them, and prints the table to stderr.
pub fn write(
    run: &crate::Run,
    tracer: &Tracer,
    report: &crate::report::Report,
) -> Result<(), String> {
    let stem = run.out.join(format!("{}-seed{}", run.workload, run.seed));
    let spans = PathBuf::from(format!("{}.spans.jsonl", stem.display()));
    tracer
        .write_jsonl(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    let extra: Vec<(&str, f64, &str)> = crate::report::PER_LAYER
        .iter()
        .filter_map(|(name, unit)| report.metrics.get(name).map(|v| (*name, *v, *unit)))
        .collect();
    let table = summary_table(tracer, &extra);
    let summary = PathBuf::from(format!("{}.summary.txt", stem.display()));
    std::fs::write(&summary, &table).map_err(|e| format!("{}: {e}", summary.display()))?;
    eprintln!(
        "perfbench: spans in {}, summary in {}\n{table}",
        spans.display(),
        summary.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.record("root", 0.0, 100.0, None, 1);
        t.record("a", 10.0, 40.0, Some(root), 1);
        t.record("b", 30.0, 50.0, Some(root), 1); // overlaps a
        t.record("c", 90.0, 120.0, Some(root), 1); // clipped at the end
        let times = t.self_times();
        let (count, total, own) = times["root"];
        assert_eq!(count, 1);
        assert!((total - 100.0).abs() < 1e-9);
        assert!((own - 50.0).abs() < 1e-9, "self {own}");
        assert!(summary_table(&t, &[("unattributed", 1.0, "us")]).contains("unattributed"));
    }
}
