//! Turning measurements into named metrics, the printed report, and the
//! final JSON line.

use crate::metrics_text::{Exposition, Reading};
use crate::stats::{self, Tail};
use crate::traced::InProcess;
use crate::workloads::{Phase, Sample, Setup, Workload, SEGMENTS};
use std::fmt::Write as _;

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value, or absent when the server no longer exports its source.
    pub value: Reading,
    /// Unit.
    pub unit: &'static str,
    /// Extra context printed beside it (sample counts, percentiles).
    pub note: String,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: Reading::Value(value),
        unit,
        note: String::new(),
    }
}

fn noted(mut m: Metric, note: String) -> Metric {
    m.note = note;
    m
}

fn tail_note(tail: &Tail) -> String {
    format!(
        "p{:.2} of {} samples, {} beyond",
        tail.percentile, tail.samples, tail.beyond
    )
}

/// Latency median and tail of `samples`; `None` with too few samples.
fn latency(samples: &[f64]) -> Option<(f64, Tail)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail = stats::tail(&sorted)?;
    Some((stats::median(&sorted)?, tail))
}

/// Segments (of the run's [`SEGMENTS`] per server) whose timing metrics
/// are reported: the ones in which the host stole the least CPU time.
pub const QUIET_SEGMENTS: usize = 8;

/// Servers (of the run's five) whose CPU and memory figures are reported:
/// the ones in which the host stole the least CPU time.
pub const QUIET_SERVERS: usize = 3;

/// Cut `phase`'s samples into [`SEGMENTS`] equal stretches of its
/// requested length by completion time (late replies join the last).
fn segments(phase: &Phase) -> Vec<Vec<Sample>> {
    let mut out = vec![Vec::new(); SEGMENTS];
    for s in &phase.samples {
        let i = ((s.done_s / phase.seconds) * SEGMENTS as f64) as usize;
        out[i.min(SEGMENTS - 1)].push(*s);
    }
    out
}

/// What one fresh server measured in an untraced run.
#[derive(Debug)]
pub struct ServerRun {
    /// Its set-up time, seconds.
    pub setup_s: f64,
    /// Its share of the timed phase.
    pub phase: Phase,
    /// Its peak resident memory, MiB.
    pub peak_rss_mb: f64,
    /// `stream_fleet`'s model error on it, %.
    pub model_err_pct: Option<f64>,
}

/// Every end-to-end metric of an untraced run: the gated set that goes
/// into the JSON line, and the rest, which are printed only.
pub struct EndToEnd {
    /// Metrics listed in `BENCHMARK.json`.
    pub gated: Vec<Metric>,
    /// Metrics printed beside them.
    pub printed: Vec<Metric>,
}

/// The end-to-end metrics of an untraced run over several fresh servers.
///
/// The gated set is what stays steady from run to run on a small shared
/// machine: set-up time, median latency, server CPU per op and peak
/// memory. Throughput, the latency tail, POLL latency, model error and
/// the failure ratio are printed but not gated. The failure ratio is 0
/// on correct code and is carried by the JSON `attempted` and `failed`
/// fields instead.
///
/// # Errors
///
/// Returns a message when no op succeeded or a segment has too few
/// samples to report.
pub fn end_to_end(runs: &[ServerRun]) -> Result<EndToEnd, String> {
    // (steal %, ops/s, p50, tail) per segment across every server.
    let mut segs: Vec<(f64, f64, f64, Tail)> = Vec::new();
    let mut servers: Vec<(f64, f64, f64)> = Vec::new();
    let (mut attempted, mut ops, mut polls) = (0, 0, Vec::new());
    for run in runs {
        let phase = &run.phase;
        if phase.ops == 0 {
            return Err("no op succeeded".to_string());
        }
        attempted += phase.attempted;
        ops += phase.ops;
        let cpu = phase.server_cpu_s * 1e6 / phase.ops as f64;
        servers.push((phase.steal_pct, cpu, run.peak_rss_mb));
        polls.extend_from_slice(&phase.poll_us);
        let seg_len = phase.seconds / SEGMENTS as f64;
        for (seg, steal) in segments(phase).iter().zip(&phase.segment_steal_pct) {
            let seg_ops: u64 = seg.iter().map(|s| u64::from(s.ops)).sum();
            let lat: Vec<f64> = seg.iter().map(|s| s.latency_us).collect();
            let (p50, tail) = latency(&lat).ok_or("too few latency samples in a segment")?;
            segs.push((*steal, seg_ops as f64 / seg_len, p50, tail));
        }
    }
    for (steal, rate, p50, tail) in &segs {
        println!(
            "segment steal {steal:5.1}%  ops/s {rate:10.0}  p50 {p50:10.1} us  tail {:10.1} us",
            tail.value
        );
    }
    // The host's CPU steal moves every wall-clock figure, so report the
    // least-disturbed segments and servers.
    segs.sort_by(|a, b| a.0.total_cmp(&b.0));
    segs.truncate(QUIET_SEGMENTS);
    servers.sort_by(|a, b| a.0.total_cmp(&b.0));
    servers.truncate(QUIET_SERVERS);
    let median = |v: Vec<f64>| stats::median(&v).expect("at least one server");
    let fewest = segs
        .iter()
        .map(|s| s.3)
        .min_by_key(|t| t.samples)
        .expect("segments");
    let quiet = format!(
        "median of the {} least-stolen of {} segments",
        segs.len(),
        runs.len() * SEGMENTS
    );
    let quiet_servers = format!(
        "median of the {} least-stolen of {} servers",
        servers.len(),
        runs.len()
    );
    let gated = vec![
        noted(
            metric(
                "setup_s",
                median(runs.iter().map(|r| r.setup_s).collect()),
                "s",
            ),
            format!("median of {} set-ups", runs.len()),
        ),
        noted(
            metric(
                "latency_p50_us",
                median(segs.iter().map(|s| s.2).collect()),
                "us",
            ),
            quiet.clone(),
        ),
        noted(
            metric(
                "cpu_us_per_op",
                median(servers.iter().map(|s| s.1).collect()),
                "us",
            ),
            quiet_servers.clone(),
        ),
        noted(
            metric(
                "peak_rss_mb",
                median(servers.iter().map(|s| s.2).collect()),
                "MiB",
            ),
            quiet_servers,
        ),
    ];
    let failed_ratio = if attempted == 0 {
        1.0
    } else {
        (attempted - ops) as f64 / attempted as f64
    };
    let mut printed = vec![
        noted(
            metric(
                "ops_per_s",
                median(segs.iter().map(|s| s.1).collect()),
                "1/s",
            ),
            quiet.clone(),
        ),
        noted(
            metric(
                "latency_p99_us",
                median(segs.iter().map(|s| s.3.value).collect()),
                "us",
            ),
            format!("{quiet}; smallest segment: {}", tail_note(&fewest)),
        ),
        metric("failed_ratio", failed_ratio, "1"),
    ];
    if !polls.is_empty() {
        match latency(&polls) {
            Some((p50, tail)) => {
                printed.push(metric("poll_p50_us", p50, "us"));
                printed.push(noted(
                    metric("poll_p99_us", tail.value, "us"),
                    tail_note(&tail),
                ));
            }
            None => printed.push(noted(
                metric("poll_p50_us", median(polls.clone()), "us"),
                format!("only {} samples: no tail", polls.len()),
            )),
        }
    }
    let errs: Vec<f64> = runs.iter().filter_map(|r| r.model_err_pct).collect();
    if !errs.is_empty() {
        printed.push(noted(
            metric("model_err_pct", median(errs.clone()), "%"),
            format!("median of {} servers", errs.len()),
        ));
    }
    Ok(EndToEnd { gated, printed })
}

fn scaled(reading: Reading, factor: f64) -> Reading {
    match reading {
        Reading::Value(v) => Reading::Value(v * factor),
        Reading::Absent => Reading::Absent,
    }
}

fn ratio(num: Reading, den: f64) -> Reading {
    match num {
        Reading::Value(v) if den > 0.0 => Reading::Value(v / den),
        Reading::Value(_) => Reading::Value(0.0),
        Reading::Absent => Reading::Absent,
    }
}

fn sum(a: Reading, b: Reading) -> Reading {
    match (a, b) {
        (Reading::Value(x), Reading::Value(y)) => Reading::Value(x + y),
        _ => Reading::Absent,
    }
}

fn read(name: &str, value: Reading, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note: String::new(),
    }
}

/// The per-layer metrics of a traced run.
pub fn per_layer(
    workload: Workload,
    setup: &Setup,
    untraced: [&Phase; 2],
    traced: [&Phase; 2],
    inproc: &InProcess,
) -> Vec<Metric> {
    let first = untraced[0];
    let (after, before): (&Exposition, &Exposition) = (&first.after, &first.before);
    let ops = first.ops as f64;
    let p50 = |phases: [&Phase; 2]| {
        let mut all = phases[0].latencies();
        all.extend(phases[1].latencies());
        stats::median(&all).unwrap_or(0.0)
    };
    let (u, t) = (p50(untraced), p50(traced));
    let mut out = vec![noted(
        metric("server.overhead_p50_us", u - inproc.service_p50_us, "us"),
        format!(
            "wire p50 {u:.2} us - in-process service p50 {:.2} us",
            inproc.service_p50_us
        ),
    )];
    for (name, value, unit) in &inproc.layers {
        out.push(metric(name, *value, unit));
    }
    let lookups = sum(
        after.delta(before, "pmca_model_registry_lookups_total{result=\"hit\"}"),
        after.delta(before, "pmca_model_registry_lookups_total{result=\"miss\"}"),
    );
    out.push(read("store.lookups_per_op", ratio(lookups, ops), "count"));
    let hits = after.delta(before, "pmca_cache_hits_total");
    let misses = after.delta(before, "pmca_cache_misses_total");
    let attempts = sum(hits, misses).value().unwrap_or(0.0);
    out.push(read("cache.hit_ratio", ratio(hits, attempts), "1"));
    out.push(read(
        "cache.fill_ms",
        scaled(after.get("pmca_cache_fill_seconds{quantile=\"0.5\"}"), 1e3),
        "ms",
    ));
    out.push(read(
        "engine.queue_wait_p50_us",
        scaled(
            after.get("pmca_engine_queue_wait_seconds{quantile=\"0.5\"}"),
            1e6,
        ),
        "us",
    ));
    out.push(read(
        "engine.compute_p50_us",
        scaled(
            after.get("pmca_engine_compute_seconds{quantile=\"0.5\"}"),
            1e6,
        ),
        "us",
    ));
    out.push(read(
        "engine.round_trips_per_op",
        ratio(
            after.delta(before, "pmca_engine_queue_wait_seconds_count"),
            ops,
        ),
        "count",
    ));
    for result in ["accepted", "duplicate", "late"] {
        let series = format!("pmca_stream_windows_total{{result=\"{result}\"}}");
        out.push(read(
            &format!("stream.{result}"),
            after.delta(before, &series),
            "count",
        ));
    }
    out.push(read(
        "stream.refits",
        after.delta(before, "pmca_stream_refits_total"),
        "count",
    ));
    out.push(read(
        "stream.lag_p99_windows",
        after.get("pmca_stream_window_lag_windows{quantile=\"0.99\"}"),
        "count",
    ));
    out.push(metric("setup.train_s", setup.train_s, "s"));
    out.push(metric("setup.forest_fit_s", inproc.forest_fit_s, "s"));
    out.push(metric("setup.warm_s", setup.warm_s, "s"));
    let mut lag = first.send_lag_us.clone();
    out.push(metric(
        "loadgen.send_lag_p99_us",
        stats::percentile(&mut lag, 99.0).unwrap_or(0.0),
        "us",
    ));
    out.push(metric(
        "loadgen.backlog_max",
        first.backlog_max as f64,
        "count",
    ));
    out.push(noted(
        metric("trace.overhead_pct", 100.0 * (t - u) / u, "%"),
        format!("traced wire p50 {t:.2} us vs untraced {u:.2} us"),
    ));
    let service = match workload {
        Workload::StreamFleet => "service.stream_push",
        _ => "service.batch",
    };
    let share = |names: &[&str]| -> f64 {
        inproc
            .breakdown
            .rows
            .iter()
            .filter(|r| names.contains(&r.name))
            .map(|r| r.share)
            .sum()
    };
    out.push(metric(
        "share.protocol",
        share(&["protocol.parse", "protocol.format"]),
        "1",
    ));
    out.push(metric("share.shard", share(&["shard.route"]), "1"));
    out.push(metric("share.service", share(&[service]), "1"));
    out.push(metric("share.other", share(&["other"]), "1"));
    out
}

/// Print metrics as `metric <name> = <value> <unit>` lines.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        if m.note.is_empty() {
            println!("metric {} = {} {}", m.name, m.value, m.unit);
        } else {
            println!("metric {} = {} {}  ({})", m.name, m.value, m.unit, m.note);
        }
    }
}

/// The result object: `correct`, `attempted`, `failed`, and the metrics
/// that have values (absent ones are left out).
pub fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for m in metrics {
        if let Reading::Value(v) = m.value {
            if !body.is_empty() {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(v),
                m.unit
            );
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// A finite number as JSON; non-finite values (which no metric should
/// produce) become 0 so the line stays valid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_result_keys() {
        let metrics = vec![
            metric("latency_p50_us", 12.25, "us"),
            read("engine.queue_wait_p50_us", Reading::Absent, "us"),
        ];
        assert_eq!(
            json(true, 10, 0, &metrics),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_p50_us\": {\"value\": 12.25, \"unit\": \"us\"}}}"
        );
    }
}
