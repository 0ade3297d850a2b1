//! Inference engine: answers "PMC vector → dynamic energy" rows on the
//! thread that submits them.
//!
//! A row is evaluated where it arrives — the connection thread for the
//! threaded transport, the event loop for the evented one — so an
//! estimate costs one compiled-model lookup per distinct model in its
//! batch plus the kernel itself, with no thread handoff in between.
//!
//! * **Compiled predictors.** Rows are evaluated by
//!   [`pmca_mlkit::CompiledModel`] lowerings — flat branch-free trees,
//!   fused linear dot products, transposed network weights — cached
//!   engine-wide so the lowering cost is paid once per model version.
//! * **Grouped batches.** A pipelined batch may mix models; the engine
//!   evaluates it one model group at a time (groups in order of first
//!   appearance, rows in input order within a group) and returns the
//!   answers in input order.
//!
//! Every estimate carries a 95 % prediction half-width derived from the
//! model's training residuals via the Student-t critical value — the same
//! machinery the measurement methodology uses for energy CIs.

use crate::registry::StoredModel;
use pmca_mlkit::CompiledModel;
use pmca_obs::trace::{self, ActiveTrace};
use pmca_obs::{Histogram, MetricsRegistry};
use pmca_simd::Isa;
use pmca_stats::confidence::t_critical;
use std::borrow::Cow;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Confidence level of served prediction intervals.
const CONFIDENCE: f64 = 0.95;

/// One answered estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Predicted dynamic energy, joules (clamped non-negative).
    pub joules: f64,
    /// Half-width of the 95 % prediction interval, joules. Zero when the
    /// model recorded no residual spread.
    pub ci_half_width: f64,
    /// Family of the model that answered (`"online"`, `"forest"`, …).
    /// Borrowed (`'static`) for the known families, so the hot path never
    /// clones a family string.
    pub family: Cow<'static, str>,
    /// Registry version of the model that answered.
    pub version: u32,
}

/// Map a family tag onto its `'static` spelling when it is one of the
/// known families, avoiding a per-request `String` clone.
pub(crate) fn intern_family(family: &str) -> Cow<'static, str> {
    match family {
        "online" => Cow::Borrowed("online"),
        "linear" => Cow::Borrowed("linear"),
        "forest" => Cow::Borrowed("forest"),
        "neural" => Cow::Borrowed("neural"),
        other => Cow::Owned(other.to_string()),
    }
}

/// Why a request could not be answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The PMC vector width does not match the model.
    Shape {
        /// Features the model expects.
        expected: usize,
        /// Features the request carried.
        got: usize,
    },
    /// A count was NaN, infinite, or negative.
    BadCount,
    /// The stored parameters failed to instantiate.
    Model(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Shape { expected, got } => {
                write!(f, "model expects {expected} counts, request has {got}")
            }
            EngineError::BadCount => write!(f, "counts must be finite and non-negative"),
            EngineError::Model(detail) => write!(f, "model error: {detail}"),
        }
    }
}

impl Error for EngineError {}

/// One row of an engine batch: the model that answers it, its counts in
/// the model's feature order, and the trace of the request it belongs
/// to. A pipelined batch interleaves rows from *different* requests, so
/// each row names its own trace rather than relying on the thread's
/// ambient one.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    /// The model that answers this row.
    pub model: &'a Arc<StoredModel>,
    /// Feature-ordered PMC counts.
    pub counts: &'a [f64],
    /// Trace of the originating request, if it is traced.
    pub trace: Option<&'a ActiveTrace>,
}

/// A stored model lowered for serving, plus the per-model constants the
/// reply needs — computed once at compile time so the per-request path
/// does no string cloning or t-table lookups.
struct CompiledEntry {
    /// Keeps the keying `Arc` address valid for the cache's lifetime.
    _model: Arc<StoredModel>,
    compiled: CompiledModel,
    half_width: f64,
    family: Cow<'static, str>,
    version: u32,
    width: usize,
}

impl CompiledEntry {
    /// Check one row's shape and counts, then evaluate it.
    fn answer(&self, counts: &[f64]) -> Result<Estimate, EngineError> {
        if counts.len() != self.width {
            return Err(EngineError::Shape {
                expected: self.width,
                got: counts.len(),
            });
        }
        if counts.iter().any(|c| !c.is_finite() || *c < 0.0) {
            return Err(EngineError::BadCount);
        }
        Ok(Estimate {
            joules: self.compiled.predict_one(counts).max(0.0),
            ci_half_width: self.half_width,
            family: self.family.clone(),
            version: self.version,
        })
    }
}

/// Time-attribution instruments of one engine: how long a row waited
/// behind the earlier rows of its group, and how long its own
/// evaluation took.
#[derive(Debug)]
struct EngineMetrics {
    queue_wait: Histogram,
    compute: Histogram,
}

impl EngineMetrics {
    fn standalone() -> Self {
        EngineMetrics {
            queue_wait: Histogram::standalone(),
            compute: Histogram::standalone(),
        }
    }

    fn from_registry(registry: &MetricsRegistry) -> Self {
        // Advertise which SIMD instruction set the inference kernels
        // dispatched to (the stream hub registers the same gauge id,
        // so shared registries carry it once).
        registry
            .gauge("pmca_simd_isa", &[("isa", Isa::active().as_str())])
            .set(1.0);
        EngineMetrics {
            queue_wait: registry.histogram("pmca_engine_queue_wait_seconds", &[]),
            compute: registry.histogram("pmca_engine_compute_seconds", &[]),
        }
    }
}

/// Compiled-model cache plus counters; evaluates rows on the caller's
/// thread.
pub struct InferenceEngine {
    /// Engine-wide compiled-model cache keyed by the `Arc` allocation
    /// address of the stored model — no per-request key cloning; the
    /// entry's held `Arc` keeps the address valid.
    compiled: RwLock<HashMap<usize, Arc<CompiledEntry>>>,
    served: AtomicU64,
    errors: AtomicU64,
    metrics: EngineMetrics,
}

impl fmt::Debug for InferenceEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InferenceEngine")
            .field("served", &self.served())
            .field("errors", &self.errors())
            .finish()
    }
}

impl Default for InferenceEngine {
    fn default() -> Self {
        InferenceEngine::new()
    }
}

impl InferenceEngine {
    /// An engine with standalone (unexported) metrics.
    pub fn new() -> Self {
        InferenceEngine::build(EngineMetrics::standalone())
    }

    /// An engine whose queue-wait and compute histograms are registered
    /// as `pmca_engine_*_seconds` in `registry`. With a disabled registry
    /// the engine never reads the clock.
    pub fn with_registry(registry: &MetricsRegistry) -> Self {
        InferenceEngine::build(EngineMetrics::from_registry(registry))
    }

    fn build(metrics: EngineMetrics) -> Self {
        InferenceEngine {
            compiled: RwLock::new(HashMap::new()),
            served: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            metrics,
        }
    }

    /// Arrival timestamp for the queue-wait histogram: skip the clock
    /// read entirely when metrics are off.
    fn stamp(&self) -> Option<Instant> {
        self.metrics.queue_wait.enabled().then(Instant::now)
    }

    /// Answer one request, recording into the thread's current trace.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] for malformed requests or a model that
    /// fails to compile.
    pub fn estimate(
        &self,
        model: &Arc<StoredModel>,
        counts: &[f64],
    ) -> Result<Estimate, EngineError> {
        let trace = trace::current();
        let row = Row {
            model,
            counts,
            trace: trace.as_ref(),
        };
        self.estimate_rows(&[row])
            .pop()
            .expect("one answer per row")
    }

    /// Answer a batch of rows, possibly spanning several models, on the
    /// calling thread. Rows are evaluated one model group at a time —
    /// one compiled-model lookup per group — and the answers come back
    /// in input order, each row failing on its own when malformed.
    pub fn estimate_rows(&self, rows: &[Row<'_>]) -> Vec<Result<Estimate, EngineError>> {
        let mut answers: Vec<Option<Result<Estimate, EngineError>>> = Vec::new();
        answers.resize_with(rows.len(), || None);
        for (first, lead) in rows.iter().enumerate() {
            if answers[first].is_some() {
                continue;
            }
            // `lead` opens a new group: it and every later row on the
            // same model, evaluated back to back.
            let arrived = self.stamp();
            let entry = self.compiled_entry(lead.model);
            for (i, row) in rows.iter().enumerate().skip(first) {
                if Arc::ptr_eq(row.model, lead.model) {
                    answers[i] = Some(self.evaluate(&entry, row, arrived));
                }
            }
        }
        let answers: Vec<Result<Estimate, EngineError>> = answers
            .into_iter()
            .map(|answer| answer.expect("every row belongs to a group"))
            .collect();
        let ok = answers.iter().filter(|a| a.is_ok()).count() as u64;
        self.served.fetch_add(ok, Ordering::Relaxed);
        self.errors
            .fetch_add(answers.len() as u64 - ok, Ordering::Relaxed);
        answers
    }

    /// Evaluate one row of a group that reached the engine at `arrived`:
    /// the gap up to now is the row's queue wait, the rest its compute.
    /// The trace events bracket the timed part, so the compute histogram
    /// never includes the cost of recording them.
    fn evaluate(
        &self,
        entry: &Result<Arc<CompiledEntry>, EngineError>,
        row: &Row<'_>,
        arrived: Option<Instant>,
    ) -> Result<Estimate, EngineError> {
        if let Some(trace) = row.trace {
            trace.begin("engine.compute", &[]);
        }
        let started = arrived.map(|arrived| {
            let now = Instant::now();
            self.metrics.queue_wait.record(now - arrived);
            now
        });
        let answer = match entry {
            Ok(entry) => entry.answer(row.counts),
            Err(e) => Err(e.clone()),
        };
        if let Some(started) = started {
            self.metrics.compute.record(started.elapsed());
        }
        if let Some(trace) = row.trace {
            trace.end("engine.compute");
        }
        answer
    }

    /// Look up (or build) the compiled form of `model`, compiling outside
    /// the lock on a miss. Two threads racing on a brand-new model may
    /// both compile; the first insert wins and the other copy is dropped
    /// — benign, and it keeps the lock out of the lowering pass.
    fn compiled_entry(&self, model: &Arc<StoredModel>) -> Result<Arc<CompiledEntry>, EngineError> {
        let cache_key = Arc::as_ptr(model) as usize;
        if let Some(entry) = self
            .compiled
            .read()
            .expect("compiled cache poisoned")
            .get(&cache_key)
        {
            return Ok(Arc::clone(entry));
        }
        let compiled =
            CompiledModel::compile(&model.params).map_err(|e| EngineError::Model(e.to_string()))?;
        let entry = Arc::new(CompiledEntry {
            _model: Arc::clone(model),
            compiled,
            half_width: prediction_half_width(model),
            family: intern_family(&model.key.family),
            version: model.version,
            width: model.params.width(),
        });
        Ok(Arc::clone(
            self.compiled
                .write()
                .expect("compiled cache poisoned")
                .entry(cache_key)
                .or_insert(entry),
        ))
    }

    /// Requests answered successfully.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Requests answered with an error.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}

/// 95 % prediction half-width from the model's training residuals.
pub(crate) fn prediction_half_width(model: &StoredModel) -> f64 {
    if model.residual_std <= 0.0 || model.training_rows == 0 {
        return 0.0;
    }
    let df = model
        .training_rows
        .saturating_sub(model.params.width())
        .max(1);
    t_critical(df, CONFIDENCE) * model.residual_std
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use pmca_mlkit::export::ModelParams;

    fn registered(coeffs: &[f64], residual_std: f64, rows: usize) -> Arc<StoredModel> {
        let mut registry = Registry::new();
        let names: Vec<String> = (0..coeffs.len()).map(|i| format!("E{i}")).collect();
        registry.register(
            "skylake",
            "online",
            names,
            residual_std,
            rows,
            ModelParams::Linear {
                coefficients: coeffs.to_vec(),
                intercept: 0.0,
            },
        )
    }

    fn rows_of<'a>(model: &'a Arc<StoredModel>, counts: &'a [Vec<f64>]) -> Vec<Row<'a>> {
        counts
            .iter()
            .map(|counts| Row {
                model,
                counts,
                trace: None,
            })
            .collect()
    }

    #[test]
    fn estimates_match_the_model_arithmetic() {
        let engine = InferenceEngine::new();
        let model = registered(&[2.0, 0.5], 0.0, 20);
        let estimate = engine.estimate(&model, &[10.0, 4.0]).unwrap();
        assert!((estimate.joules - 22.0).abs() < 1e-12);
        assert_eq!(estimate.ci_half_width, 0.0);
        assert_eq!(estimate.family, "online");
        assert_eq!(estimate.version, 1);
        assert_eq!(engine.served(), 1);
        assert_eq!(engine.errors(), 0);
    }

    #[test]
    fn prediction_interval_uses_student_t() {
        let model = registered(&[1.0, 1.0], 2.0, 22);
        // df = 22 - 2 = 20.
        let expected = t_critical(20, 0.95) * 2.0;
        assert!((prediction_half_width(&model) - expected).abs() < 1e-12);
        let engine = InferenceEngine::new();
        let estimate = engine.estimate(&model, &[1.0, 1.0]).unwrap();
        assert!((estimate.ci_half_width - expected).abs() < 1e-12);
    }

    #[test]
    fn malformed_requests_are_rejected_and_counted() {
        let engine = InferenceEngine::new();
        let model = registered(&[1.0, 1.0], 0.0, 10);
        assert_eq!(
            engine.estimate(&model, &[1.0]).unwrap_err(),
            EngineError::Shape {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            engine.estimate(&model, &[1.0, f64::NAN]).unwrap_err(),
            EngineError::BadCount
        );
        assert_eq!(
            engine.estimate(&model, &[1.0, -2.0]).unwrap_err(),
            EngineError::BadCount
        );
        assert_eq!(engine.errors(), 3);
        assert_eq!(engine.served(), 0);
    }

    #[test]
    fn mixed_batches_answer_in_order_with_per_row_errors() {
        let engine = InferenceEngine::new();
        let narrow = registered(&[1.0], 0.0, 10);
        let wide = registered(&[2.0, 3.0], 0.0, 10);
        // Good rows for both models interleaved, one wrong-width row and
        // one negative-count row in between.
        let batch: Vec<(&Arc<StoredModel>, Vec<f64>)> = vec![
            (&narrow, vec![1.0]),
            (&wide, vec![1.0, 1.0]),
            (&narrow, vec![2.0]),
            (&wide, vec![1.0]),
            (&wide, vec![2.0, 1.0]),
            (&narrow, vec![-3.0]),
            (&narrow, vec![4.0]),
        ];
        let rows: Vec<Row<'_>> = batch
            .iter()
            .map(|(model, counts)| Row {
                model,
                counts,
                trace: None,
            })
            .collect();
        let answers = engine.estimate_rows(&rows);
        let joules = |i: usize| answers[i].as_ref().unwrap().joules;
        assert_eq!(answers.len(), 7);
        assert_eq!(joules(0), 1.0);
        assert_eq!(joules(1), 5.0);
        assert_eq!(joules(2), 2.0);
        assert_eq!(
            answers[3],
            Err(EngineError::Shape {
                expected: 2,
                got: 1
            })
        );
        assert_eq!(joules(4), 7.0);
        assert_eq!(answers[5], Err(EngineError::BadCount));
        assert_eq!(joules(6), 4.0);
        assert_eq!(engine.served(), 5);
        assert_eq!(engine.errors(), 2);
    }

    #[test]
    fn negative_predictions_are_clamped_to_zero() {
        // An imported generic linear model may carry a negative intercept.
        let mut registry = Registry::new();
        let model = registry.register(
            "skylake",
            "linear",
            vec!["E0".to_string()],
            0.0,
            10,
            ModelParams::Linear {
                coefficients: vec![1.0],
                intercept: -100.0,
            },
        );
        let engine = InferenceEngine::new();
        assert_eq!(engine.estimate(&model, &[1.0]).unwrap().joules, 0.0);
    }

    #[test]
    fn registry_backed_engines_attribute_time() {
        let registry = MetricsRegistry::new();
        let engine = InferenceEngine::with_registry(&registry);
        let model = registered(&[1.0], 0.0, 10);
        let _ = engine.estimate(&model, &[1.0]).unwrap();
        let lines = registry.render();
        assert!(
            lines.contains(&"pmca_engine_compute_seconds_count 1".to_string()),
            "{lines:?}"
        );
        assert!(
            lines.contains(&"pmca_engine_queue_wait_seconds_count 1".to_string()),
            "{lines:?}"
        );
    }

    #[test]
    fn queue_wait_and_compute_count_every_evaluated_row() {
        let engine = InferenceEngine::new();
        let narrow = registered(&[1.0], 0.0, 10);
        let wide = registered(&[1.0, 1.0], 0.0, 10);
        let narrow_rows: Vec<Vec<f64>> = (0..40).map(|i| vec![f64::from(i)]).collect();
        let wide_rows: Vec<Vec<f64>> = (0..24).map(|i| vec![f64::from(i), 1.0]).collect();
        let mut rows = rows_of(&narrow, &narrow_rows);
        rows.extend(rows_of(&wide, &wide_rows));
        assert!(engine.estimate_rows(&rows).iter().all(Result::is_ok));
        let _ = engine.estimate(&narrow, &[5.0]).unwrap();
        let evaluated = 40 + 24 + 1;
        assert_eq!(engine.metrics.queue_wait.count(), evaluated);
        assert_eq!(engine.metrics.compute.count(), evaluated);
        assert_eq!(engine.served(), evaluated);
    }

    #[test]
    fn traces_attribute_compute_to_the_originating_request() {
        use pmca_obs::TracerConfig;

        let tracer = TracerConfig::new().build().unwrap();
        let engine = InferenceEngine::new();
        let model = registered(&[1.0], 0.0, 10);
        let request_trace = tracer.start("estimate", &[]).unwrap();
        {
            let _scope = trace::scope(Some(&request_trace));
            let _ = engine.estimate(&model, &[1.0]).unwrap();
        }
        tracer.finish(&request_trace);
        let completed = tracer.slowest().expect("trace finished");
        let durations = completed.span_durations();
        assert!(
            durations.iter().any(|(name, _)| name == "engine.compute"),
            "engine.compute missing from {durations:?}"
        );
        assert!(
            !completed.events.iter().any(|e| e.name == "engine.queue"),
            "no queue stage without a queue: {:?}",
            completed.events
        );
    }

    #[test]
    fn batch_rows_record_into_their_own_traces() {
        use pmca_obs::TracerConfig;

        let tracer = TracerConfig::new().build().unwrap();
        let engine = InferenceEngine::new();
        let model = registered(&[1.0], 0.0, 10);
        let traces: Vec<ActiveTrace> = (0..8)
            .map(|_| tracer.start("estimate", &[]).unwrap())
            .collect();
        let counts: Vec<Vec<f64>> = (0..8).map(|i| vec![f64::from(i)]).collect();
        let rows: Vec<Row<'_>> = counts
            .iter()
            .zip(&traces)
            .map(|(counts, trace)| Row {
                model: &model,
                counts,
                trace: Some(trace),
            })
            .collect();
        let answers = engine.estimate_rows(&rows);
        assert!(answers.iter().all(Result::is_ok));
        for trace in &traces {
            tracer.finish(trace);
        }
        let recent = tracer.recent();
        assert_eq!(recent.len(), 8);
        for completed in recent {
            // Each request trace got exactly its own compute pair.
            assert_eq!(
                completed
                    .events
                    .iter()
                    .filter(|e| e.name == "engine.compute")
                    .count(),
                2,
                "{:?}",
                completed.events
            );
        }
    }

    #[test]
    fn disabled_registries_keep_the_engine_clock_free() {
        let registry = MetricsRegistry::disabled();
        let engine = InferenceEngine::with_registry(&registry);
        assert!(
            engine.stamp().is_none(),
            "no clock read when metrics are off"
        );
        let model = registered(&[1.0], 0.0, 10);
        let _ = engine.estimate(&model, &[1.0]).unwrap();
        assert!(registry
            .render()
            .contains(&"pmca_engine_compute_seconds_count 0".to_string()));
    }

    #[test]
    fn compiled_answers_match_uncompiled_instantiation() {
        // The engine serves the compiled lowering; spot-check against the
        // uncompiled revived predictor for bit-identity.
        let model = registered(&[2.5, -0.0, 1.25], 0.0, 30);
        let engine = InferenceEngine::new();
        let revived = model.params.instantiate().unwrap();
        for i in 0..32 {
            let row = vec![f64::from(i), f64::from(i * 3 % 7), f64::from(100 - i)];
            let served = engine.estimate(&model, &row).unwrap().joules;
            assert_eq!(served, revived.predict_one(&row).max(0.0));
        }
    }
}
