//! In-memory spans for the traced run.
//!
//! Each request gets one root span; every layer call made on its behalf
//! is a child span. Spans stay in memory until the run ends and are then
//! written out as JSONL. A span's self time is its duration minus the
//! part of its interval that its children cover, so overlapping children
//! are not counted twice.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the log's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `protocol.parse`.
    pub name: &'static str,
    /// Request the span belongs to.
    pub request: u64,
    /// Index of the parent span in the log; `None` for a request root.
    pub parent: Option<usize>,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin.
    pub end: u64,
}

/// An append-only span log.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            request,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    /// Close the span `index` returned by [`SpanLog::open`].
    pub fn close(&mut self, index: usize) {
        self.spans[index].end = self.now();
    }

    /// Time `f` as a child span of `parent`.
    pub fn child<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let request = self.spans[parent].request;
        let index = self.open(name, request, Some(parent));
        let out = f();
        self.close(index);
        out
    }

    /// Append a finished span (used when merging per-thread logs).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span, in the order opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`SpanLog::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| self_time((span.start, span.end), kids))
            .collect()
    }

    /// Per-layer breakdown of the request roots named `root`.
    pub fn breakdown(&self, root: &str) -> Breakdown {
        let self_times = self.self_times();
        let mut total = 0u64;
        let mut ops = 0usize;
        let mut other: Vec<f64> = Vec::new();
        let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            match span.parent {
                None if span.name == root => {
                    ops += 1;
                    total += span.end - span.start;
                    other.push(self_times[i] as f64);
                }
                Some(parent) if self.spans[parent].name == root => {
                    layers
                        .entry(span.name)
                        .or_default()
                        .push(self_times[i] as f64);
                }
                _ => {}
            }
        }
        let share = |values: &[f64]| {
            if total == 0 {
                0.0
            } else {
                values.iter().sum::<f64>() / total as f64
            }
        };
        let mut rows: Vec<LayerRow> = layers
            .into_iter()
            .map(|(name, values)| LayerRow {
                name,
                calls: values.len(),
                self_p50_ns: crate::stats::median(&values).unwrap_or(0.0),
                share: share(&values),
            })
            .collect();
        rows.push(LayerRow {
            name: "other",
            calls: other.len(),
            self_p50_ns: crate::stats::median(&other).unwrap_or(0.0),
            share: share(&other),
        });
        Breakdown { ops, rows }
    }

    /// The first `limit` spans, one JSON object per line.
    pub fn to_jsonl(&self, limit: usize) -> String {
        let mut out = String::with_capacity(self.spans.len().min(limit) * 96);
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start, s.end
            );
        }
        out
    }
}

/// Duration of `parent` minus the union of `children`'s intervals,
/// clipped to the parent. Sorts `children` in place.
pub fn self_time(parent: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (start, end) = parent;
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start).saturating_sub(covered)
}

/// One layer's line of a [`Breakdown`].
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Layer (span) name, or `other` for the unattributed residual.
    pub name: &'static str,
    /// Calls recorded.
    pub calls: usize,
    /// Median self time per call, ns.
    pub self_p50_ns: f64,
    /// Summed self time as a share of summed op time.
    pub share: f64,
}

/// Where the op time of one workload's replay went.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// Request roots seen.
    pub ops: usize,
    /// Layers by name, then `other`.
    pub rows: Vec<LayerRow>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Children [10,40) and [30,60) overlap on [30,40): covered 50.
        let mut kids = [(30, 60), (10, 40)];
        assert_eq!(self_time((0, 100), &mut kids), 50);
        // A child nested inside another adds nothing.
        let mut kids = [(10, 50), (20, 30)];
        assert_eq!(self_time((0, 100), &mut kids), 60);
        // Children poking outside the parent are clipped to it.
        let mut kids = [(90, 150)];
        assert_eq!(self_time((0, 100), &mut kids), 90);
        // Disjoint children add up.
        let mut kids = [(0, 10), (20, 30), (40, 50)];
        assert_eq!(self_time((0, 100), &mut kids), 70);
        assert_eq!(self_time((5, 5), &mut []), 0);
    }

    #[test]
    fn breakdown_reports_layers_and_the_other_residual() {
        let mut log = SpanLog::new();
        for request in 0..2 {
            let root = log.push(Span {
                name: "op",
                request,
                parent: None,
                start: 0,
                end: 100,
            });
            log.push(Span {
                name: "a",
                request,
                parent: Some(root),
                start: 0,
                end: 60,
            });
            log.push(Span {
                name: "b",
                request,
                parent: Some(root),
                start: 50,
                end: 80,
            });
        }
        let b = log.breakdown("op");
        assert_eq!(b.ops, 2);
        let row = |name: &str| b.rows.iter().find(|r| r.name == name).unwrap().clone();
        assert_eq!(row("a").self_p50_ns, 60.0);
        assert_eq!(row("a").share, 0.6);
        assert_eq!(row("b").share, 0.3);
        // Union of [0,60) and [50,80) is 80 of 100: other is 20%.
        assert_eq!(row("other").self_p50_ns, 20.0);
        assert!((row("other").share - 0.2).abs() < 1e-12);
        assert_eq!(b.rows.last().unwrap().name, "other");
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut log = SpanLog::new();
        let root = log.open("op", 7, None);
        log.child("x", root, || ());
        log.close(root);
        let text = log.to_jsonl(10);
        assert_eq!(log.to_jsonl(1).lines().count(), 1);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"name\":\"x\",\"request\":7,\"parent\":0"));
    }
}
