//! The traced run's in-process half: replay a workload's generated lines
//! through each layer's public functions with a span around every call,
//! and time the layers that sit inside the service on the same inputs.

use crate::gen::{self, Fleet, FOREST_SET, LINEAR_SET, PLATFORM};
use crate::reference::Reference;
use crate::spans::{Breakdown, SpanLog};
use crate::stats::median;
use crate::workloads::{self, Setup, Workload, APP_SPECS, BATCH_DEPTH, FLEET_STREAMS, RING};
use pmca_mlkit::RecursiveLeastSquares;
use pmca_obs::{HealthConfig, HealthRegistry};
use pmca_serve::protocol::{ok_estimate_into, ok_stream_push_into};
use pmca_serve::{
    BatchRequestRef, EnergyService, RequestRef, RunCache, RunKey, ServiceConfig, ShardRouter,
};
use pmca_stream::{WindowSample, WindowState};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the replay runs, at most.
const REPLAY_BUDGET: Duration = Duration::from_millis(1500);
/// Requests the replay records at most.
const REPLAY_OPS: usize = 20_000;
/// Calls per standalone layer timing.
const PROBE_CALLS: usize = 2000;

/// What the in-process half measured.
#[derive(Debug)]
pub struct InProcess {
    /// Every replay span.
    pub spans: SpanLog,
    /// Where the op time went (root `op`, or `push` for `stream_fleet`).
    pub breakdown: Breakdown,
    /// `(name, value, unit)` of every layer timing.
    pub layers: Vec<(&'static str, f64, &'static str)>,
    /// Median duration of the service call per op, µs.
    pub service_p50_us: f64,
    /// Forest fit time, seconds.
    pub forest_fit_s: f64,
}

fn service_over(setup: &Setup) -> Result<Arc<EnergyService>, String> {
    let service = ServiceConfig::default()
        .build()
        .map_err(|e| e.to_string())?;
    service
        .load_registry(&setup.registry)
        .map_err(|e| format!("loading registry: {e}"))?;
    Ok(Arc::new(service))
}

/// Median ns per call of `f` over `calls` calls, each timed alone.
fn per_call_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(calls);
    for i in 0..calls {
        let t = Instant::now();
        f(i);
        samples.push(t.elapsed().as_nanos() as f64);
    }
    median(&samples).unwrap_or(0.0)
}

fn to_batch<'a>(request: RequestRef<'a>) -> Result<BatchRequestRef<'a>, String> {
    match request {
        RequestRef::Estimate {
            platform,
            counts,
            tier,
        } => Ok(BatchRequestRef::Counts {
            platform,
            counts,
            tier,
        }),
        RequestRef::EstimateApp {
            platform,
            app,
            tier,
        } => Ok(BatchRequestRef::App {
            platform,
            app,
            tier,
        }),
        other => Err(format!("not an estimate: {other:?}")),
    }
}

/// Replay estimate ops: each op is one line (`estimate_rr`) or one
/// 64-line batch (`estimate_batch_rf`), answered in request order as the
/// server answers them.
fn replay_estimates(
    router: &ShardRouter,
    ops: &[Vec<String>],
    log: &mut SpanLog,
) -> Result<Vec<f64>, String> {
    let started = Instant::now();
    let mut service_us = Vec::new();
    let mut out = String::new();
    for (request, lines) in ops.iter().cycle().enumerate() {
        if request >= REPLAY_OPS || (started.elapsed() > REPLAY_BUDGET && request >= 64) {
            break;
        }
        let root = log.open("op", request as u64, None);
        let parsed = log.child("protocol.parse", root, || {
            lines
                .iter()
                .map(|l| RequestRef::parse(l))
                .collect::<Result<Vec<_>, _>>()
        });
        let parsed = parsed.map_err(|e| e.to_string())?;
        let service = log.child("shard.route", root, || {
            let mut last = None;
            for line in &parsed {
                if let RequestRef::Estimate { platform, .. }
                | RequestRef::EstimateApp { platform, .. } = line
                {
                    last = Some(router.route(platform));
                }
            }
            last
        });
        let service = service.ok_or("batch without estimates")?;
        let batch = parsed
            .into_iter()
            .map(to_batch)
            .collect::<Result<Vec<_>, _>>()?;
        let t = Instant::now();
        let answers = log.child("service.batch", root, || service.estimate_many_ref(&batch));
        service_us.push(t.elapsed().as_secs_f64() * 1e6);
        let failed = log.child("protocol.format", root, || {
            out.clear();
            let mut failed = 0;
            for answer in &answers {
                match answer {
                    Ok(estimate) => ok_estimate_into(estimate, &mut out),
                    Err(_) => failed += 1,
                }
                out.push('\n');
            }
            failed
        });
        log.close(root);
        if failed > 0 {
            return Err(format!("in-process replay: {failed} estimates failed"));
        }
    }
    Ok(service_us)
}

/// Replay `stream_fleet`'s schedule: per tick one push per stream and
/// one POLL, each its own request.
fn replay_stream(router: &ShardRouter, seed: u64, log: &mut SpanLog) -> Result<Vec<f64>, String> {
    let fleet = Fleet::new(seed, FLEET_STREAMS);
    let primary = router.primary();
    for s in 0..FLEET_STREAMS {
        primary
            .stream_open(&Fleet::id(s), "bench", PLATFORM, RING)
            .map_err(|e| e.to_string())?;
    }
    let started = Instant::now();
    let mut push_us = Vec::new();
    let mut out = String::new();
    let mut request = 0u64;
    let mut window = 1u64;
    while (started.elapsed() < REPLAY_BUDGET && (request as usize) < REPLAY_OPS) || window <= 8 {
        for s in 0..=FLEET_STREAMS {
            let (line, is_push) = if s == FLEET_STREAMS {
                (Fleet::poll_line(window as usize % FLEET_STREAMS), false)
            } else {
                (fleet.push_line(s, window), true)
            };
            let root = log.open(if is_push { "push" } else { "poll" }, request, None);
            request += 1;
            let parsed = log.child("protocol.parse", root, || RequestRef::parse(&line));
            let parsed = parsed.map_err(|e| e.to_string())?;
            match parsed {
                RequestRef::StreamPush {
                    id,
                    window: w,
                    counts,
                    joules,
                } => {
                    let service = log.child("shard.route", root, || router.route(id));
                    let t = Instant::now();
                    let reply = log.child("service.stream_push", root, || {
                        service.stream_push(id, w, &counts, joules)
                    });
                    push_us.push(t.elapsed().as_secs_f64() * 1e6);
                    let reply = reply.map_err(|e| e.to_string())?;
                    log.child("protocol.format", root, || {
                        out.clear();
                        ok_stream_push_into(&reply, w, &mut out);
                    });
                }
                RequestRef::StreamPoll { id } => {
                    let service = log.child("shard.route", root, || router.route(id));
                    let status = log.child("service.stream_poll", root, || service.stream_poll(id));
                    status.map_err(|e| e.to_string())?;
                }
                other => return Err(format!("unexpected replay line {other:?}")),
            }
            log.close(root);
        }
        window += 1;
    }
    Ok(push_us)
}

/// Run the replay and the standalone layer timings for `workload`.
///
/// # Errors
///
/// Returns a message when a replayed request fails.
pub fn run(workload: Workload, setup: &Setup, seed: u64) -> Result<InProcess, String> {
    let service = service_over(setup)?;
    let router = ShardRouter::single(Arc::clone(&service));
    let specs = gen::app_specs(seed, APP_SPECS);
    let mut log = SpanLog::new();
    let mut layers: Vec<(&'static str, f64, &'static str)> = Vec::new();

    // The forest: the one the server answered with, or (for workloads
    // that never touch it) one fitted here, so its kernels are timed on
    // every workload.
    let fit_started = Instant::now();
    let (forest, forest_fit_s) = match &setup.forest {
        Some(f) => (f.clone(), setup.forest_fit_s),
        None => {
            let (rf, residual_std, rows) = workloads::fit_forest(seed)?;
            let fit_s = fit_started.elapsed().as_secs_f64();
            let mut reg = pmca_serve::Registry::new();
            let stored = reg.register(
                PLATFORM,
                "forest",
                FOREST_SET.iter().map(|s| s.to_string()).collect(),
                residual_std,
                rows,
                pmca_mlkit::export::ModelParams::from_forest(&rf),
            );
            (Reference::new((*stored).clone())?, fit_s)
        }
    };

    let (root, service_us) = match workload {
        Workload::EstimateRr => {
            let ops: Vec<Vec<String>> = gen::estimate_pool(seed, false, workloads::RR_POOL)
                .into_iter()
                .map(|(line, _)| vec![line])
                .collect();
            ("op", replay_estimates(&router, &ops, &mut log)?)
        }
        Workload::EstimateBatchRf => {
            // Warm this service's own run cache first, as the server's was.
            for spec in &specs {
                service
                    .estimate_app(PLATFORM, spec)
                    .map_err(|e| format!("warm-up {spec}: {e}"))?;
            }
            let ops: Vec<Vec<String>> =
                gen::batch_pool(seed, &specs, workloads::BATCH_POOL, BATCH_DEPTH)
                    .into_iter()
                    .map(|b| b.iter().map(|l| l.line().to_string()).collect())
                    .collect();
            ("op", replay_estimates(&router, &ops, &mut log)?)
        }
        Workload::StreamFleet => ("push", replay_stream(&router, seed, &mut log)?),
    };
    let breakdown = log.breakdown(root);
    let service_p50_us = median(&service_us).unwrap_or(0.0);

    // Per-line costs of the wire layers, from the replay spans.
    let lines_per_op = match workload {
        Workload::EstimateBatchRf => BATCH_DEPTH as f64,
        _ => 1.0,
    };
    let span_p50 = |name: &str| {
        let d: Vec<f64> = log
            .spans()
            .iter()
            .filter(|s| s.name == name && s.parent.is_some_and(|p| log.spans()[p].name == root))
            .map(|s| (s.end - s.start) as f64)
            .collect();
        median(&d).unwrap_or(0.0)
    };
    layers.push((
        "protocol.parse_ns",
        span_p50("protocol.parse") / lines_per_op,
        "ns",
    ));
    layers.push((
        "protocol.format_ns",
        span_p50("protocol.format") / lines_per_op,
        "ns",
    ));
    layers.push((
        "shard.route_ns",
        span_p50("shard.route") / lines_per_op,
        "ns",
    ));
    let batch_us = match workload {
        Workload::StreamFleet => {
            // No estimates in this workload: time a one-row batch on the
            // linear model instead.
            let (line, _) = gen::estimate_pool(seed, false, 1).remove(0);
            let request = to_batch(RequestRef::parse(&line).map_err(|e| e.to_string())?)?;
            per_call_ns(PROBE_CALLS, |_| {
                black_box(service.estimate_many_ref(std::slice::from_ref(&request)));
            }) / 1e3
        }
        _ => service_p50_us,
    };
    layers.push(("service.batch_us", batch_us, "us"));

    // Service-internal layers, timed alone on this workload's inputs.
    let names: &[&str; 4] = match workload {
        Workload::EstimateBatchRf => &FOREST_SET,
        _ => &LINEAR_SET,
    };
    let store = service.store();
    layers.push((
        "store.lookup_ns",
        per_call_ns(PROBE_CALLS, |_| {
            black_box(store.lookup_names(PLATFORM, black_box(names)));
        }),
        "ns",
    ));
    let cache = RunCache::new(256);
    let events = Arc::new(LINEAR_SET.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let keys: Vec<RunKey> = specs
        .iter()
        .map(|app| RunKey {
            app: app.clone(),
            platform: PLATFORM.to_string(),
            seed: 1,
            events: Arc::clone(&events),
        })
        .collect();
    for key in &keys {
        cache.insert(key.clone(), vec![1.0; 4]);
    }
    layers.push((
        "cache.get_ns",
        per_call_ns(PROBE_CALLS, |i| {
            black_box(cache.get(&keys[i % keys.len()]));
        }),
        "ns",
    ));

    let linear_rows: Vec<[f64; 4]> = gen::estimate_pool(seed, false, 256)
        .into_iter()
        .map(|p| p.1)
        .collect();
    let forest_rows: Vec<[f64; 4]> = gen::estimate_pool(seed, true, 256)
        .into_iter()
        .map(|p| p.1)
        .collect();
    layers.push((
        "kernel.lr_row_ns",
        per_call_ns(PROBE_CALLS, |i| {
            black_box(
                setup
                    .linear
                    .compiled
                    .predict_one(black_box(&linear_rows[i % 256])),
            );
        }),
        "ns",
    ));
    layers.push((
        "kernel.rf_row_ns",
        per_call_ns(PROBE_CALLS, |i| {
            black_box(
                forest
                    .compiled
                    .predict_one(black_box(&forest_rows[i % 256])),
            );
        }),
        "ns",
    ));
    let refs: Vec<&[f64]> = forest_rows.iter().map(|r| r.as_slice()).collect();
    let mut out = Vec::with_capacity(64);
    layers.push((
        "kernel.rf_batch64_row_ns",
        per_call_ns(PROBE_CALLS / 8, |i| {
            out.clear();
            let at = (i * 64) % (refs.len() - 64);
            forest
                .compiled
                .predict_batch_into(black_box(&refs[at..at + 64]), &mut out);
            black_box(&out);
        }) / 64.0,
        "ns",
    ));
    let nodes: Vec<f64> = forest_rows
        .iter()
        .map(|r| forest.nodes_visited(r) as f64)
        .collect();
    layers.push((
        "kernel.rf_nodes_per_row",
        nodes.iter().sum::<f64>() / nodes.len() as f64,
        "count",
    ));

    // Stream layers, on this seed's fleet windows, through a fresh
    // service's hub.
    let fleet = Fleet::new(seed, FLEET_STREAMS);
    let probe = ServiceConfig::default()
        .build()
        .map_err(|e| e.to_string())?;
    for s in 0..FLEET_STREAMS {
        probe
            .stream_open(&Fleet::id(s), "bench", PLATFORM, RING)
            .map_err(|e| e.to_string())?;
    }
    let windows_per_stream = (PROBE_CALLS / FLEET_STREAMS).max(8) as u64;
    let ids: Vec<String> = (0..FLEET_STREAMS).map(Fleet::id).collect();
    let mut push = Vec::new();
    let mut poll = Vec::new();
    for w in 1..=windows_per_stream {
        for (s, id) in ids.iter().enumerate() {
            let counts = fleet.counts(s, w);
            let label = fleet.label(s, w);
            let t = Instant::now();
            probe
                .stream_push(id, w, &counts, label)
                .map_err(|e| e.to_string())?;
            push.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let t = Instant::now();
        probe
            .stream_poll(&ids[w as usize % FLEET_STREAMS])
            .map_err(|e| e.to_string())?;
        poll.push(t.elapsed().as_secs_f64() * 1e6);
    }
    layers.push(("service.stream_push_us", median(&push).unwrap_or(0.0), "us"));
    layers.push(("service.stream_poll_us", median(&poll).unwrap_or(0.0), "us"));
    let hub = probe.stream_hub().ok_or("streaming disabled")?;
    let (mut plain, mut labelled, mut polls) = (Vec::new(), Vec::new(), Vec::new());
    for w in windows_per_stream + 1..=2 * windows_per_stream {
        for (s, id) in ids.iter().enumerate() {
            let counts = fleet.counts(s, w);
            let label = fleet.label(s, w);
            let t = Instant::now();
            hub.push(id, w, &counts, label).map_err(|e| e.to_string())?;
            let ns = t.elapsed().as_nanos() as f64;
            if label.is_some() {
                labelled.push(ns);
            } else {
                plain.push(ns);
            }
        }
        let t = Instant::now();
        hub.poll(&ids[w as usize % FLEET_STREAMS])
            .map_err(|e| e.to_string())?;
        polls.push(t.elapsed().as_nanos() as f64);
    }
    layers.push(("hub.push_ns", median(&plain).unwrap_or(0.0), "ns"));
    layers.push((
        "hub.push_labelled_us",
        median(&labelled).unwrap_or(0.0) / 1e3,
        "us",
    ));
    layers.push(("hub.poll_us", median(&polls).unwrap_or(0.0) / 1e3, "us"));

    let mut ring = WindowState::new(RING);
    layers.push((
        "window.push_ns",
        per_call_ns(PROBE_CALLS, |i| {
            let w = i as u64 + 1;
            black_box(ring.push(WindowSample {
                id: w,
                counts: fleet.counts(0, w).to_vec(),
                joules: None,
            }));
        }),
        "ns",
    ));

    let labelled_rows: Vec<([f64; 4], f64)> = (1..=PROBE_CALLS as u64)
        .map(|i| {
            let (s, w) = (i as usize % FLEET_STREAMS, gen::LABEL_EVERY * i);
            (
                fleet.counts(s, w),
                fleet.label(s, w).expect("labelled window"),
            )
        })
        .collect();
    let mut rls = RecursiveLeastSquares::paper_constrained(4);
    layers.push((
        "rls.observe_ns",
        per_call_ns(PROBE_CALLS, |i| {
            let (x, y) = &labelled_rows[i];
            rls.observe(black_box(x), *y);
        }),
        "ns",
    ));
    layers.push((
        "rls.refit_us",
        per_call_ns(PROBE_CALLS / 4, |_| {
            let _ = black_box(rls.refit());
        }) / 1e3,
        "us",
    ));
    let health = HealthRegistry::new(HealthConfig::default());
    layers.push((
        "health.observe_ns",
        per_call_ns(PROBE_CALLS, |i| {
            let (x, y) = &labelled_rows[i];
            let predicted = gen::dot(&fleet.truth, x);
            black_box(health.observe(PLATFORM, 1, predicted, 0.1 * predicted, *y));
        }),
        "ns",
    ));
    Ok(InProcess {
        spans: log,
        breakdown,
        layers,
        service_p50_us,
        forest_fit_s,
    })
}
