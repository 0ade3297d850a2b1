//! The three workloads against a live server: set-up and timed phase.

use crate::gen::{self, BatchLine, Fleet, FOREST_SET, PLATFORM};
use crate::metrics_text::Exposition;
use crate::reference::{verdict, Reference, Tally, Verdict};
use crate::spans::{Span, SpanLog};
use crate::wire::{field, read_reply, Conn, ServerProcess};
use pmca_mlkit::export::ModelParams;
use pmca_mlkit::{RandomForest, Regressor};
use pmca_serve::Registry;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Closed-loop connections of the two estimate workloads.
pub const CONNECTIONS: usize = 2;
/// Pipeline depth of `estimate_batch_rf`.
pub const BATCH_DEPTH: usize = 64;
/// Size of the ESTIMATE-APP working set (well inside the default
/// 256-run cache).
pub const APP_SPECS: usize = 32;
/// Rows the benchmark's forest is fitted on.
pub const FOREST_ROWS: usize = 400;
/// Distinct request lines `estimate_rr` cycles through.
pub const RR_POOL: usize = 4096;
/// Distinct batches `estimate_batch_rf` cycles through.
pub const BATCH_POOL: usize = 128;
/// Streams in `stream_fleet`.
pub const FLEET_STREAMS: usize = 64;
/// Offered ingest rate of `stream_fleet`, windows per second.
pub const FLEET_RATE: f64 = 12_000.0;
/// Sliding-ring capacity each stream is opened with.
pub const RING: usize = 32;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Unpipelined counter-level ESTIMATEs on the linear model.
    EstimateRr,
    /// 64-deep batches: forest ESTIMATEs plus cached ESTIMATE-APPs.
    EstimateBatchRf,
    /// Open-loop STREAM PUSH ingest with paced POLLs.
    StreamFleet,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::EstimateRr,
        Workload::EstimateBatchRf,
        Workload::StreamFleet,
    ];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EstimateRr => "estimate_rr",
            Workload::EstimateBatchRf => "estimate_batch_rf",
            Workload::StreamFleet => "stream_fleet",
        }
    }

    /// The workload's parameters, for the result header.
    pub fn shape(self) -> String {
        match self {
            Workload::EstimateRr => format!(
                "closed loop, {CONNECTIONS} connections, depth 1, {RR_POOL} distinct ESTIMATE lines"
            ),
            Workload::EstimateBatchRf => format!(
                "closed loop, {CONNECTIONS} connections, depth {BATCH_DEPTH}, 3/4 forest ESTIMATE \
                 ({FOREST_ROWS}-row 100-tree forest) + 1/4 ESTIMATE-APP over {APP_SPECS} warm specs"
            ),
            Workload::StreamFleet => format!(
                "open loop, 1 connection, {FLEET_STREAMS} streams, {FLEET_RATE} windows/s offered, \
                 every {}th labelled, ring {RING}, 1 POLL per tick",
                gen::LABEL_EVERY
            ),
        }
    }
}

/// What one run needs to know.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// The `slope-pmc` binary under test.
    pub server: PathBuf,
    /// Scratch directory for registries and span dumps.
    pub work_dir: PathBuf,
}

/// A server after set-up, ready for the timed phase.
pub struct Setup {
    /// The server process.
    pub server: ServerProcess,
    /// Its registry directory.
    pub registry: PathBuf,
    /// Reference for the TRAIN-ed linear model.
    pub linear: Reference,
    /// Reference for the benchmark's forest (`estimate_batch_rf` only).
    pub forest: Option<Reference>,
    /// Joules served for each warm ESTIMATE-APP spec at warm-up.
    pub app_joules: Vec<f64>,
    /// Timed-phase connections.
    pub conns: Vec<Conn>,
    /// Side connection for METRICS.
    pub admin: Conn,
    /// The next `stream_fleet` tick (window id − 1).
    pub next_tick: u64,
    /// Set-up wall time, seconds.
    pub seconds: f64,
    /// TRAIN round trip, seconds.
    pub train_s: f64,
    /// Forest fit and registration, seconds (0 when no forest).
    pub forest_fit_s: f64,
    /// Cache warm-up or stream opens, seconds.
    pub warm_s: f64,
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Fit the benchmark's forest on the seeded training set.
///
/// # Errors
///
/// Returns the fit error.
pub fn fit_forest(seed: u64) -> Result<(RandomForest, f64, usize), String> {
    let (x, y) = gen::forest_training(seed, FOREST_ROWS);
    let mut forest = RandomForest::with_seed(seed);
    forest.fit(&x, &y).map_err(|e| format!("forest fit: {e}"))?;
    let sq: f64 = x
        .iter()
        .zip(&y)
        .map(|(row, t)| (forest.predict_one(row) - t).powi(2))
        .sum();
    Ok((forest, (sq / x.len() as f64).sqrt(), x.len()))
}

/// Bring up a fresh server for `opts.workload` in `attempt`'s own
/// registry directory, and prepare everything the timed phase needs.
///
/// # Errors
///
/// Returns a message on any failed step or rejected reply.
pub fn setup(opts: &Options, attempt: usize) -> Result<Setup, String> {
    let registry = opts
        .work_dir
        .join(format!("registry-{}-{attempt}", opts.workload.name()));
    if registry.exists() {
        std::fs::remove_dir_all(&registry).map_err(io_err("clearing registry"))?;
    }
    std::fs::create_dir_all(&registry).map_err(io_err("creating registry"))?;
    let started = Instant::now();

    // The forest is fitted and written before the server starts: the
    // server reads its registry directory once, at start.
    let mut forest_fit_s = 0.0;
    if opts.workload == Workload::EstimateBatchRf {
        let (forest, residual_std, rows) = fit_forest(opts.seed)?;
        let mut reg = Registry::new();
        reg.register(
            PLATFORM,
            "forest",
            FOREST_SET.iter().map(|s| s.to_string()).collect(),
            residual_std,
            rows,
            ModelParams::from_forest(&forest),
        );
        reg.save_dir(&registry)
            .map_err(|e| format!("writing forest: {e}"))?;
        forest_fit_s = started.elapsed().as_secs_f64();
    }

    let server = ServerProcess::spawn(&opts.server, &registry)?;
    let mut admin = Conn::connect(&server.addr).map_err(io_err("connect"))?;
    let train_started = Instant::now();
    let reply = admin
        .request(&gen::train_line(opts.seed))
        .map_err(io_err("TRAIN"))?;
    if !reply.starts_with("OK ") {
        return Err(format!("TRAIN rejected: {reply}"));
    }
    let train_s = train_started.elapsed().as_secs_f64();
    let linear = Reference::load(&registry, "online")?;
    let forest = match opts.workload {
        Workload::EstimateBatchRf => Some(Reference::load(&registry, "forest")?),
        _ => None,
    };

    let warm_started = Instant::now();
    let mut app_joules = Vec::new();
    let mut conns = Vec::new();
    match opts.workload {
        Workload::EstimateRr => {}
        Workload::EstimateBatchRf => {
            // Every spec misses once here; the timed phase only hits.
            for spec in gen::app_specs(opts.seed, APP_SPECS) {
                let reply = admin
                    .request(&format!("ESTIMATE-APP {PLATFORM} {spec}"))
                    .map_err(io_err("warm-up"))?;
                let joules: f64 = field(&reply, "joules")
                    .and_then(|j| j.parse().ok())
                    .filter(|j: &f64| j.is_finite())
                    .ok_or_else(|| format!("warm-up ESTIMATE-APP {spec}: {reply}"))?;
                app_joules.push(joules);
            }
        }
        Workload::StreamFleet => {
            let fleet = Fleet::new(opts.seed, FLEET_STREAMS);
            let opens: Vec<String> = (0..FLEET_STREAMS)
                .map(|s| fleet.open_line(s, RING))
                .collect();
            admin.send(&opens).map_err(io_err("STREAM OPEN"))?;
            let mut reply = String::new();
            for _ in 0..FLEET_STREAMS {
                admin.read_into(&mut reply).map_err(io_err("STREAM OPEN"))?;
                if !reply.starts_with("OK ") {
                    return Err(format!("STREAM OPEN rejected: {reply}"));
                }
            }
        }
    }
    let connections = match opts.workload {
        Workload::StreamFleet => 1,
        _ => CONNECTIONS,
    };
    for _ in 0..connections {
        conns.push(Conn::connect(&server.addr).map_err(io_err("connect"))?);
    }
    let mut setup = Setup {
        server,
        registry,
        linear,
        forest,
        app_joules,
        conns,
        admin,
        next_tick: 0,
        seconds: 0.0,
        train_s,
        forest_fit_s,
        warm_s: 0.0,
    };
    warm_up(opts, &mut setup)?;
    setup.warm_s = warm_started.elapsed().as_secs_f64();
    setup.seconds = started.elapsed().as_secs_f64();
    Ok(setup)
}

/// Send a fixed amount of the workload's own traffic on every timed
/// connection and check the replies, so lazy state in the server
/// (compiled models, buffers) is built before timing starts.
fn warm_up(opts: &Options, setup: &mut Setup) -> Result<(), String> {
    let (payloads, count) = match opts.workload {
        Workload::EstimateRr => (rr_payloads(setup, opts.seed), 256),
        Workload::EstimateBatchRf => (batch_payloads(setup, opts.seed), 8),
        Workload::StreamFleet => return Ok(()),
    };
    let mut reply = String::new();
    for conn in &mut setup.conns {
        for payload in payloads.iter().take(count) {
            conn.send(&[payload.text.trim_end()])
                .map_err(io_err("warm-up"))?;
            for (expected, family, version) in &payload.expected {
                conn.read_into(&mut reply).map_err(io_err("warm-up"))?;
                if check_estimate(&reply, *expected, family, version) == Verdict::Wrong {
                    return Err(format!("warm-up reply failed its check: {reply}"));
                }
            }
        }
    }
    Ok(())
}

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Successful ops.
    pub ops: u64,
    /// Ops attempted.
    pub attempted: u64,
    /// Correctness tally over every checked reply.
    pub tally: Tally,
    /// Wall time of the phase, seconds.
    pub elapsed_s: f64,
    /// One sample per timed request (a batch counts once).
    pub samples: Vec<Sample>,
    /// Requested length of the phase, seconds.
    pub seconds: f64,
    /// STREAM POLL latency from its due time, µs.
    pub poll_us: Vec<f64>,
    /// How late the open-loop sender wrote each line, µs.
    pub send_lag_us: Vec<f64>,
    /// Most pushes sent but not yet acknowledged at once.
    pub backlog_max: u64,
    /// Client-side spans, when the phase ran traced.
    pub spans: Option<SpanLog>,
    /// Server CPU time used during the phase, seconds.
    pub server_cpu_s: f64,
    /// Share of machine CPU time stolen by the host during the phase, %.
    pub steal_pct: f64,
    /// The same share for each of the phase's [`SEGMENTS`].
    pub segment_steal_pct: Vec<f64>,
    /// METRICS before the phase.
    pub before: Exposition,
    /// METRICS after the phase.
    pub after: Exposition,
}

/// One timed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When its reply completed, seconds since the phase started.
    pub done_s: f64,
    /// Its latency, µs.
    pub latency_us: f64,
    /// Successful ops it carried (a batch carries many).
    pub ops: u32,
}

impl Phase {
    /// Latencies of every sample, µs.
    pub fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_us).collect()
    }
}

/// Per-thread result of a closed loop.
#[derive(Default)]
struct LoopResult {
    ops: u64,
    attempted: u64,
    tally: Tally,
    samples: Vec<Sample>,
    spans: Vec<Span>,
}

/// Open a request-root span with `wire.write` and `wire.wait` children.
fn record_op(spans: &mut Vec<Span>, request: u64, origin: Instant, t: [Instant; 3]) {
    let ns = |i: Instant| i.duration_since(origin).as_nanos() as u64;
    let root = spans.len();
    spans.push(Span {
        name: "op",
        request,
        parent: None,
        start: ns(t[0]),
        end: ns(t[2]),
    });
    spans.push(Span {
        name: "wire.write",
        request,
        parent: Some(root),
        start: ns(t[0]),
        end: ns(t[1]),
    });
    spans.push(Span {
        name: "wire.wait",
        request,
        parent: Some(root),
        start: ns(t[1]),
        end: ns(t[2]),
    });
}

/// Check one ESTIMATE reply against its reference value and model.
fn check_estimate(reply: &str, expected: f64, family: &str, version: &str) -> Verdict {
    if !reply.starts_with("OK ")
        || field(reply, "family") != Some(family)
        || field(reply, "version") != Some(version)
    {
        return Verdict::Wrong;
    }
    match field(reply, "joules").and_then(|j| j.parse::<f64>().ok()) {
        Some(joules) => verdict(expected, joules),
        None => Verdict::Wrong,
    }
}

/// One request line or batch of the closed loops, with what each reply
/// must say.
struct Payload {
    text: String,
    expected: Vec<(f64, &'static str, String)>,
}

fn rr_payloads(setup: &Setup, seed: u64) -> Vec<Payload> {
    let version = setup.linear.stored.version.to_string();
    gen::estimate_pool(seed, false, RR_POOL)
        .into_iter()
        .map(|(line, counts)| Payload {
            text: line + "\n",
            expected: vec![(setup.linear.predict(&counts), "online", version.clone())],
        })
        .collect()
}

fn batch_payloads(setup: &Setup, seed: u64) -> Vec<Payload> {
    let forest = setup.forest.as_ref().expect("batch workload has a forest");
    let forest_version = forest.stored.version.to_string();
    let linear_version = setup.linear.stored.version.to_string();
    let specs = gen::app_specs(seed, APP_SPECS);
    gen::batch_pool(seed, &specs, BATCH_POOL, BATCH_DEPTH)
        .into_iter()
        .map(|batch| {
            let mut text = String::new();
            let mut expected = Vec::with_capacity(batch.len());
            for line in &batch {
                text.push_str(line.line());
                text.push('\n');
                expected.push(match line {
                    BatchLine::Forest(_, counts) => {
                        (forest.predict(counts), "forest", forest_version.clone())
                    }
                    BatchLine::App(_, index) => {
                        (setup.app_joules[*index], "online", linear_version.clone())
                    }
                });
            }
            Payload { text, expected }
        })
        .collect()
}

/// Drive `payloads` round-robin on every timed connection until the
/// deadline, one payload in flight per connection.
fn closed_loop(setup: &mut Setup, payloads: &[Payload], seconds: f64, trace: bool) -> Phase {
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let connections = setup.conns.len();
    let results: Vec<LoopResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = setup
            .conns
            .iter_mut()
            .enumerate()
            .map(|(k, conn)| {
                scope.spawn(move || {
                    let mut r = LoopResult::default();
                    let mut reply = String::new();
                    let mut i = k * payloads.len() / connections;
                    let mut request = k as u64;
                    loop {
                        let t0 = Instant::now();
                        if t0 >= deadline {
                            break;
                        }
                        let payload = &payloads[i % payloads.len()];
                        let ops_before = r.ops;
                        i += 1;
                        let sent = conn.send(&[payload.text.trim_end()]);
                        let t1 = Instant::now();
                        let mut ok = sent.is_ok();
                        for (expected, family, version) in &payload.expected {
                            r.attempted += 1;
                            let v = if ok && conn.read_into(&mut reply).is_ok() {
                                check_estimate(&reply, *expected, family, version)
                            } else {
                                ok = false;
                                Verdict::Wrong
                            };
                            if v != Verdict::Wrong {
                                r.ops += 1;
                            }
                            r.tally.note(v);
                        }
                        let t2 = Instant::now();
                        r.samples.push(Sample {
                            done_s: (t2 - origin).as_secs_f64(),
                            latency_us: (t2 - t0).as_secs_f64() * 1e6,
                            ops: (r.ops - ops_before) as u32,
                        });
                        if trace {
                            record_op(&mut r.spans, request, origin, [t0, t1, t2]);
                            request += connections as u64;
                        }
                        if !ok {
                            break;
                        }
                    }
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        elapsed_s: origin.elapsed().as_secs_f64(),
        seconds,
        ..Phase::default()
    };
    let mut log = trace.then(SpanLog::new);
    for r in results {
        phase.ops += r.ops;
        phase.attempted += r.attempted;
        phase.tally.add(r.tally);
        phase.samples.extend(r.samples);
        if let Some(log) = log.as_mut() {
            let offset = log.spans().len();
            for mut span in r.spans {
                span.parent = span.parent.map(|p| p + offset);
                log.push(span);
            }
        }
    }
    phase.spans = log;
    phase
}

/// What the open-loop sender tells the reader about each line it sends.
struct Sent {
    due: Instant,
    /// `Some((stream, window))` for a push, `None` for a poll.
    push: Option<(usize, u64)>,
}

/// The `stream_fleet` open loop: pushes and polls on one connection at
/// a fixed schedule, timed from their due times.
fn open_loop(setup: &mut Setup, seed: u64, seconds: f64, trace: bool) -> Result<Phase, String> {
    let fleet = Fleet::new(seed, FLEET_STREAMS);
    let conn = setup.conns.pop().ok_or("no stream connection")?;
    let (mut writer, mut reader) = conn.split();
    let tick = Duration::from_secs_f64(FLEET_STREAMS as f64 / FLEET_RATE);
    let first_tick = setup.next_tick;
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let received = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut phase = Phase::default();
    let mut log = trace.then(SpanLog::new);

    let (send_lag_us, backlog_max, ticks) = std::thread::scope(|scope| {
        let received = &received;
        let fleet = &fleet;
        let sender = scope.spawn(move || {
            let mut lag = Vec::new();
            let mut backlog_max = 0u64;
            let mut sent = 0u64;
            let mut buf = String::new();
            let mut k = 0u64;
            'ticks: loop {
                let tick_due = origin + tick * k as u32;
                if tick_due >= deadline {
                    break;
                }
                let window = first_tick + k + 1;
                // Every stream's window is due at the tick, as a fleet
                // of producers reporting the same second; one POLL is due
                // half-way through the tick.
                let mut events: Vec<(Instant, Option<usize>)> =
                    (0..FLEET_STREAMS).map(|s| (tick_due, Some(s))).collect();
                events.push((tick_due + tick / 2, None));
                let mut next = 0;
                while next < events.len() {
                    let now = Instant::now();
                    if events[next].0 > now {
                        std::thread::sleep(events[next].0 - now);
                    }
                    let now = Instant::now();
                    buf.clear();
                    while next < events.len() && events[next].0 <= now {
                        let (due, push) = events[next];
                        next += 1;
                        let line = match push {
                            Some(s) => fleet.push_line(s, window),
                            None => Fleet::poll_line((first_tick + k) as usize % FLEET_STREAMS),
                        };
                        buf.push_str(&line);
                        buf.push('\n');
                        lag.push((now - due).as_secs_f64() * 1e6);
                        if tx
                            .send(Sent {
                                due,
                                push: push.map(|s| (s, window)),
                            })
                            .is_err()
                        {
                            break 'ticks;
                        }
                        sent += 1;
                    }
                    backlog_max = backlog_max.max(sent - received.load(Ordering::Relaxed));
                    if writer.write_all(buf.as_bytes()).is_err() {
                        break 'ticks;
                    }
                }
                k += 1;
            }
            drop(tx);
            (lag, backlog_max, k)
        });

        let mut reply = String::new();
        let mut request = 0u64;
        for sent in rx {
            let read = read_reply(&mut reader, &mut reply);
            let done = Instant::now();
            received.fetch_add(1, Ordering::Relaxed);
            let latency = (done - sent.due).as_secs_f64() * 1e6;
            if let Some(log) = log.as_mut() {
                let ns = |i: Instant| i.duration_since(origin).as_nanos() as u64;
                log.push(Span {
                    name: if sent.push.is_some() { "push" } else { "poll" },
                    request,
                    parent: None,
                    start: ns(sent.due),
                    end: ns(done),
                });
                request += 1;
            }
            let ok = read.is_ok()
                && match sent.push {
                    Some((_, window)) => {
                        phase.attempted += 1;
                        let w = window.to_string();
                        reply.starts_with("OK ")
                            && field(&reply, "window") == Some(w.as_str())
                            && field(&reply, "accepted") == Some("1")
                    }
                    None => {
                        let finite = |key| {
                            field(&reply, key)
                                .and_then(|v| v.parse::<f64>().ok())
                                .is_some_and(f64::is_finite)
                        };
                        reply.starts_with("OK ") && finite("watts") && finite("ci95")
                    }
                };
            match (sent.push, ok) {
                (Some(_), true) => {
                    phase.ops += 1;
                    phase.samples.push(Sample {
                        done_s: (done - origin).as_secs_f64(),
                        latency_us: latency,
                        ops: 1,
                    });
                    phase.tally.note(Verdict::Exact);
                }
                (None, true) => phase.poll_us.push(latency),
                (Some(_), false) => phase.tally.note(Verdict::Wrong),
                (None, false) => {
                    phase.attempted += 1;
                    phase.tally.note(Verdict::Wrong);
                }
            }
        }
        sender.join().expect("sender thread panicked")
    });
    setup.next_tick = first_tick + ticks;
    phase.elapsed_s = origin.elapsed().as_secs_f64();
    phase.seconds = seconds;
    phase.send_lag_us = send_lag_us;
    phase.backlog_max = backlog_max;
    phase.spans = log;
    setup
        .conns
        .push(Conn::connect(&setup.server.addr).map_err(io_err("reconnect"))?);
    Ok(phase)
}

/// Run the timed phase of `workload` on a set-up server, with METRICS
/// and server CPU read around it.
///
/// # Errors
///
/// Returns a message when the server cannot be queried.
pub fn timed_phase(
    workload: Workload,
    setup: &mut Setup,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Phase, String> {
    let payloads = match workload {
        Workload::EstimateRr => rr_payloads(setup, seed),
        Workload::EstimateBatchRf => batch_payloads(setup, seed),
        Workload::StreamFleet => Vec::new(),
    };
    let before = setup.admin.metrics().map_err(io_err("METRICS"))?;
    let cpu_before = setup.server.cpu_seconds().unwrap_or(0.0);
    let sampler = steal_sampler(seconds);
    let mut phase = match workload {
        Workload::StreamFleet => open_loop(setup, seed, seconds, trace)?,
        _ => closed_loop(setup, &payloads, seconds, trace),
    };
    phase.server_cpu_s = setup.server.cpu_seconds().unwrap_or(0.0) - cpu_before;
    phase.segment_steal_pct = sampler.join().expect("steal sampler panicked");
    phase.steal_pct = phase.segment_steal_pct.iter().sum::<f64>() / SEGMENTS as f64;
    phase.before = before;
    phase.after = setup.admin.metrics().map_err(io_err("METRICS"))?;
    Ok(phase)
}

/// Equal time segments each timed phase is cut into for reporting.
pub const SEGMENTS: usize = 3;

/// Sample machine-wide CPU steal at each segment boundary of a phase
/// starting now; the thread returns one steal share (%) per segment.
fn steal_sampler(seconds: f64) -> std::thread::JoinHandle<Vec<f64>> {
    let start = Instant::now();
    std::thread::spawn(move || {
        let mut shares = Vec::with_capacity(SEGMENTS);
        let mut last = crate::wire::cpu_ticks();
        for i in 1..=SEGMENTS {
            let boundary = start + Duration::from_secs_f64(seconds * i as f64 / SEGMENTS as f64);
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            let now = crate::wire::cpu_ticks();
            shares.push(match (last, now) {
                (Some((t0, s0)), Some((t1, s1))) => {
                    100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
                }
                _ => 0.0,
            });
            last = now;
        }
        shares
    })
}

/// `stream_fleet`'s model error: median over streams of the final POLL
/// watts' absolute error against the generator's noise-free truth over
/// the same retained windows, percent.
///
/// # Errors
///
/// Returns a message when a POLL fails.
pub fn model_err_pct(setup: &mut Setup, seed: u64) -> Result<f64, String> {
    let fleet = Fleet::new(seed, FLEET_STREAMS);
    let polls: Vec<String> = (0..FLEET_STREAMS).map(Fleet::poll_line).collect();
    setup.admin.send(&polls).map_err(io_err("final POLL"))?;
    let mut errors = Vec::with_capacity(FLEET_STREAMS);
    let mut reply = String::new();
    for stream in 0..FLEET_STREAMS {
        setup
            .admin
            .read_into(&mut reply)
            .map_err(io_err("final POLL"))?;
        let num = |key| field(&reply, key).and_then(|v| v.parse::<f64>().ok());
        let (Some(watts), Some(retained), Some(highest)) =
            (num("watts"), num("retained"), num("highest"))
        else {
            return Err(format!("final POLL: {reply}"));
        };
        let (retained, highest) = (retained as u64, highest as u64);
        if retained == 0 {
            continue;
        }
        let truth: f64 = (highest + 1 - retained..=highest)
            .map(|w| fleet.truth_watts(stream, w))
            .sum::<f64>()
            / retained as f64;
        errors.push(100.0 * (watts - truth).abs() / truth);
    }
    crate::stats::median(&errors).ok_or_else(|| "no stream retained a window".to_string())
}

/// Clear `dir` of this run's registries.
pub fn clean(dir: &Path) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with("registry-") {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
}
