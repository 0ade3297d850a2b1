//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --server <slope-pmc binary> [--work-dir <dir>]`
//!
//! Runs one workload against a live `slope-pmc serve` and prints every
//! metric by name with its unit, then one JSON result line. With
//! `--trace 1` it prints the per-layer metrics instead. See README.md.

use perfbench::metrics_text::Reading;
use perfbench::report::{self, Metric};
use perfbench::traced;
use perfbench::workloads::{self, Options, Workload};
use std::path::PathBuf;

/// Fresh servers per untraced run; `setup_s` is the median of their
/// set-ups.
const SETUPS: usize = 5;
/// Spans written per span file; the rest stay counted but unwritten.
const MAX_WRITTEN_SPANS: usize = 100_000;

struct Args {
    opts: Options,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut server = None;
    let mut work_dir = PathBuf::from(".perfbench");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = value == "1",
            "--server" => server = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        opts: Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            server: server.ok_or("--server is required")?,
            work_dir,
        },
        trace,
    })
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn header(opts: &Options, trace: bool, isa: Option<String>) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(trace)
    );
    println!(
        "machine nproc={nproc} simd_isa={} commit={}",
        isa.unwrap_or_else(|| "absent".to_string()),
        commit()
    );
    println!("shape {}", opts.workload.shape());
}

/// The untraced run: end-to-end metrics. Each of the [`SETUPS`] fresh
/// servers gets an equal share of the timed phase, so a state one server
/// process happens to settle into (thread placement, memory layout)
/// weighs one share, not the whole run.
fn untraced(args: &Args) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let opts = &args.opts;
    let share = opts.seconds / SETUPS as f64;
    let mut runs = Vec::with_capacity(SETUPS);
    for attempt in 0..SETUPS {
        let mut setup = workloads::setup(opts, attempt)?;
        let mut phase = workloads::timed_phase(opts.workload, &mut setup, opts.seed, share, false)?;
        let model_err = match opts.workload {
            Workload::StreamFleet => Some(workloads::model_err_pct(&mut setup, opts.seed)?),
            _ => None,
        };
        if opts.workload == Workload::EstimateBatchRf {
            // Every ESTIMATE-APP of the timed phase must hit the warm cache.
            let misses = phase.after.delta(&phase.before, "pmca_cache_misses_total");
            if let Reading::Value(m) = misses {
                if m > 0.0 {
                    println!("check cache.hit_ratio: {m} misses in the timed phase");
                    phase.tally.failed += m as u64;
                    phase.ops = phase.ops.saturating_sub(m as u64);
                }
            }
        }
        let peak = setup
            .server
            .peak_rss_mb()
            .ok_or("cannot read server VmHWM")?;
        runs.push(report::ServerRun {
            setup_s: setup.seconds,
            phase,
            peak_rss_mb: peak,
            model_err_pct: model_err,
        });
        // Dropping the set-up stops this server before the next starts.
    }
    header(opts, false, runs[0].phase.after.simd_isa());
    let (mut attempted, mut ops) = (0, 0);
    for (i, run) in runs.iter().enumerate() {
        let p = &run.phase;
        println!(
            "server {i}: set-up {:.4} s; timed {:.3} s, cpu steal {:.1}%; replies exact {} close {} failed {}",
            run.setup_s, p.elapsed_s, p.steal_pct, p.tally.exact, p.tally.close, p.tally.failed
        );
        attempted += p.attempted;
        ops += p.ops;
    }
    let e2e = report::end_to_end(&runs)?;
    report::print_metrics(&e2e.gated);
    println!("not gated:");
    report::print_metrics(&e2e.printed);
    workloads::clean(&opts.work_dir);
    let failed = attempted - ops;
    Ok((failed == 0, attempted, failed, e2e.gated))
}

/// The traced run: per-layer metrics, span dumps, and the per-layer
/// share of op time.
fn traced_run(args: &Args) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let opts = &args.opts;
    let mut setup = workloads::setup(opts, 0)?;
    // Untraced and traced halves alternate, so warm-up and drift over the
    // run fall on both sides of the tracing-overhead comparison.
    let quarter = opts.seconds / 4.0;
    let mut run =
        |trace| workloads::timed_phase(opts.workload, &mut setup, opts.seed, quarter, trace);
    let plain = run(false)?;
    let spanned = run(true)?;
    let plain2 = run(false)?;
    let spanned2 = run(true)?;
    let inproc = traced::run(opts.workload, &setup, opts.seed)?;
    header(opts, true, plain.after.simd_isa());

    // One file per workload, overwritten by the next traced run.
    let name = opts.workload.name();
    let wire_path = opts.work_dir.join(format!("spans-{name}-wire.jsonl"));
    let replay_path = opts.work_dir.join(format!("spans-{name}-replay.jsonl"));
    let wire_spans = spanned
        .spans
        .as_ref()
        .map(|s| s.to_jsonl(MAX_WRITTEN_SPANS))
        .unwrap_or_default();
    std::fs::write(&wire_path, wire_spans).map_err(|e| format!("{}: {e}", wire_path.display()))?;
    std::fs::write(&replay_path, inproc.spans.to_jsonl(MAX_WRITTEN_SPANS))
        .map_err(|e| format!("{}: {e}", replay_path.display()))?;
    println!(
        "spans written (first {MAX_WRITTEN_SPANS} of each set): {} ({} recorded), {} ({} recorded)",
        wire_path.display(),
        spanned.spans.as_ref().map_or(0, |s| s.spans().len()),
        replay_path.display(),
        inproc.spans.spans().len()
    );
    println!(
        "share of op time ({} replayed ops, root `{}`):",
        inproc.breakdown.ops,
        if opts.workload == Workload::StreamFleet {
            "push"
        } else {
            "op"
        }
    );
    for row in &inproc.breakdown.rows {
        println!(
            "  layer {:<22} calls {:>8}  self p50 {:>10.0} ns  share {:>6.2}%",
            row.name,
            row.calls,
            row.self_p50_ns,
            100.0 * row.share
        );
    }
    let metrics = report::per_layer(
        opts.workload,
        &setup,
        [&plain, &plain2],
        [&spanned, &spanned2],
        &inproc,
    );
    report::print_metrics(&metrics);
    drop(setup);
    workloads::clean(&opts.work_dir);
    let phases = [&plain, &spanned, &plain2, &spanned2];
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed = attempted - phases.iter().map(|p| p.ops).sum::<u64>();
    Ok((failed == 0, attempted, failed, metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.opts.work_dir) {
        eprintln!("perfbench: {}: {e}", args.opts.work_dir.display());
        std::process::exit(1);
    }
    let result = if args.trace {
        traced_run(&args)
    } else {
        untraced(&args)
    };
    match result {
        Ok((correct, attempted, failed, metrics)) => {
            println!("{}", report::json(correct, attempted, failed, &metrics));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
