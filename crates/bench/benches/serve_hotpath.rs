//! Hot-path microbenches for the serving stack (PR 4).
//!
//! Three groups:
//!
//! - `predict` — compiled ([`CompiledModel`]) vs boxed
//!   (`ModelParams::instantiate`) scalar prediction for all three model
//!   families at 3 and 30 features, the widths bracketing the paper's
//!   deployable (Class C, ≤ 4 PMCs) and exhaustive (Class A) settings;
//! - `fixed` — the integer fixed-point lowering ([`FixedModel`]) against the
//!   compiled f64 path: scalar prediction, and SoA batch evaluation
//!   (quantise + evaluate) at depth 64 for linear and forest models;
//! - `run_cache` — all-hit lookups against a single-shard cache
//!   (capacity 16 → exactly one stripe) vs a lock-striped cache
//!   (capacity 256 → 16 stripes) under 1, 4, and 8 threads, with the
//!   same 16-key working set resident in both so only lock contention
//!   differs.

use criterion::{criterion_group, criterion_main, Criterion};
use pmca_mlkit::{
    CompiledModel, FixedBatch, FixedModel, LinearRegression, ModelParams, NeuralNet, RandomForest,
    Regressor,
};
use pmca_serve::{RunCache, RunKey};
use std::hint::black_box;
use std::sync::Arc;
use std::thread;

/// Synthetic nonnegative-slope training data at a given feature width:
/// enough structure for every family to fit, cheap enough to build in
/// bench setup.
fn training_data(width: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let x: Vec<Vec<f64>> = (0..80)
        .map(|i| {
            (0..width)
                .map(|j| ((i * 7 + j * 13) % 97) as f64 + j as f64 * 0.5)
                .collect()
        })
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .map(|(j, v)| v * (0.1 + j as f64 * 0.03))
                .sum()
        })
        .collect();
    (x, y)
}

/// Fit one family and return (boxed revived predictor, compiled form,
/// a probe row).
fn fitted(
    family: &str,
    width: usize,
) -> (Box<dyn Regressor + Send + Sync>, CompiledModel, Vec<f64>) {
    let (x, y) = training_data(width);
    let params = match family {
        "lr" => {
            let mut lr = LinearRegression::paper_constrained();
            lr.fit(&x, &y).expect("lr fit");
            ModelParams::from_linear(&lr)
        }
        "rf" => {
            let mut rf = RandomForest::with_seed(9);
            rf.fit(&x, &y).expect("rf fit");
            ModelParams::from_forest(&rf)
        }
        "nn" => {
            let mut nn = NeuralNet::with_seed(4);
            nn.fit(&x, &y).expect("nn fit");
            ModelParams::from_neural(&nn)
        }
        other => panic!("unknown family {other}"),
    };
    let boxed = params.instantiate().expect("instantiate");
    let compiled = CompiledModel::compile(&params).expect("compile");
    (boxed, compiled, x[40].clone())
}

fn bench_predict(c: &mut Criterion) {
    let mut g = c.benchmark_group("predict");
    for family in ["lr", "rf", "nn"] {
        for width in [3usize, 30] {
            let (boxed, compiled, row) = fitted(family, width);
            g.bench_function(format!("{family}_boxed_{width}f"), |b| {
                b.iter(|| black_box(boxed.predict_one(black_box(&row))))
            });
            g.bench_function(format!("{family}_compiled_{width}f"), |b| {
                b.iter(|| black_box(compiled.predict_one(black_box(&row))))
            });
        }
    }
    g.finish();
}

/// Fixed-point lowering against the compiled f64 path: scalar predictions,
/// then a full SoA batch (quantise every row + evaluate) against the
/// same rows through the compiled scalar loop.
fn bench_fixed(c: &mut Criterion) {
    let mut g = c.benchmark_group("fixed");
    const DEPTH: usize = 64;
    for family in ["lr", "rf"] {
        for width in [3usize, 30] {
            let (x, y) = training_data(width);
            let params = match family {
                "lr" => {
                    let mut lr = LinearRegression::paper_constrained();
                    lr.fit(&x, &y).expect("lr fit");
                    ModelParams::from_linear(&lr)
                }
                _ => {
                    let mut rf = RandomForest::with_seed(9);
                    rf.fit(&x, &y).expect("rf fit");
                    ModelParams::from_forest(&rf)
                }
            };
            let compiled = CompiledModel::compile(&params).expect("compile");
            let fixed = FixedModel::lower(&params, 200.0).expect("lower");
            let row = x[40].clone();
            let rows: Vec<&[f64]> = (0..DEPTH).map(|i| x[i % x.len()].as_slice()).collect();
            g.bench_function(format!("{family}_f64_scalar_{width}f"), |b| {
                b.iter(|| black_box(compiled.predict_one(black_box(&row))))
            });
            g.bench_function(format!("{family}_fixed_scalar_{width}f"), |b| {
                b.iter(|| black_box(fixed.predict_one(black_box(&row))))
            });
            g.bench_function(format!("{family}_f64_batch{DEPTH}_{width}f"), |b| {
                let mut out = Vec::with_capacity(DEPTH);
                b.iter(|| {
                    out.clear();
                    for row in &rows {
                        out.push(compiled.predict_one(black_box(row)));
                    }
                    black_box(out.last().copied())
                })
            });
            g.bench_function(format!("{family}_fixed_batch{DEPTH}_{width}f"), |b| {
                let mut batch = FixedBatch::new();
                let mut out = Vec::with_capacity(DEPTH);
                b.iter(|| {
                    batch.clear();
                    out.clear();
                    for row in &rows {
                        fixed.push_row(&mut batch, black_box(row));
                    }
                    fixed.predict_batch_into(&mut batch, &mut out);
                    black_box(out.last().copied())
                })
            });
        }
    }
    g.finish();
}

/// The shared 16-key working set both cache variants hold resident.
fn working_set() -> Vec<RunKey> {
    let events = Arc::new(vec![
        "UOPS_EXECUTED_CORE".to_string(),
        "L2_RQSTS_MISS".to_string(),
    ]);
    (0..16)
        .map(|i| RunKey {
            app: format!("dgemm:{}", 8_000 + 500 * i),
            platform: "skylake".to_string(),
            seed: 42,
            events: Arc::clone(&events),
        })
        .collect()
}

/// `threads` workers each perform `gets` round-robin lookups over the
/// resident working set; every lookup is a hit, so the measured cost is
/// lock acquisition plus hash-map probe.
fn hammer(cache: &Arc<RunCache>, keys: &Arc<Vec<RunKey>>, threads: usize, gets: usize) -> u64 {
    if threads == 1 {
        let mut found = 0u64;
        for i in 0..gets {
            found += u64::from(cache.get(&keys[i % keys.len()]).is_some());
        }
        return found;
    }
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let cache = Arc::clone(cache);
            let keys = Arc::clone(keys);
            thread::spawn(move || {
                let mut found = 0u64;
                for i in 0..gets {
                    found += u64::from(cache.get(&keys[(t + i) % keys.len()]).is_some());
                }
                found
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().expect("worker")).sum()
}

fn bench_run_cache(c: &mut Criterion) {
    let keys = Arc::new(working_set());
    let single = Arc::new(RunCache::new(16));
    let striped = Arc::new(RunCache::new(256));
    for key in keys.iter() {
        single.insert(key.clone(), vec![1.0, 2.0]);
        striped.insert(key.clone(), vec![1.0, 2.0]);
    }
    assert_eq!(single.shards(), 1);
    assert!(striped.shards() > 1);
    let mut g = c.benchmark_group("run_cache");
    g.sample_size(10);
    const GETS: usize = 2_000;
    for threads in [1usize, 4, 8] {
        for (label, cache) in [("single", &single), ("striped", &striped)] {
            g.bench_function(format!("{label}_get_{threads}t"), |b| {
                b.iter(|| black_box(hammer(cache, &keys, threads, GETS)))
            });
        }
    }
    g.finish();
}

criterion_group!(predict_benches, bench_predict);
criterion_group!(fixed_benches, bench_fixed);
criterion_group!(cache_benches, bench_run_cache);
criterion_main!(predict_benches, fixed_benches, cache_benches);
