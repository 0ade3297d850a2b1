//! Deterministic scoped work-stealing thread pool for the offline pipeline.
//!
//! The paper's methodology is embarrassingly parallel: a Table-4-style
//! study is hundreds of independent (application × event-group) simulator
//! runs, pairwise additivity compositions, and per-model training jobs.
//! This crate gives the offline layers (`cpusim`, `pmctools`,
//! `additivity`, `mlkit`) a shared execution substrate with two hard
//! guarantees:
//!
//! 1. **Determinism** — [`ThreadPool::par_map`] writes each result into
//!    the slot of its input index, so the output `Vec` is ordered exactly
//!    like the input slice regardless of which worker ran which task or
//!    in what order. Combined with [`split_seed`] (closed-form SplitMix64
//!    per-task seed derivation), every parallel computation in the
//!    workspace is *bit-identical* to its serial counterpart at any
//!    thread count.
//! 2. **No lost tasks** — a panic inside one task is caught, the
//!    remaining tasks still run to completion, and the first panic
//!    payload is re-raised when the scope closes.
//!
//! The workspace forbids `unsafe`, so the pool is built on
//! [`std::thread::scope`]: workers are spawned per scope (scoped threads
//! are what make non-`'static` borrows sound without `unsafe`), each
//! with its own FIFO deque; idle workers steal from the back of their
//! siblings' deques. Spawn cost is a few tens of microseconds per scope
//! — noise against the millisecond-scale simulator runs and tree fits
//! the pool exists to parallelize.
//!
//! The pool is instrumented through `pmca-obs`: tasks executed, steals,
//! scopes opened, current queue depth, and per-stage wall time via
//! [`stage_timer`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

use pmca_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use pmca_stats::rng::{Rng, SplitMix64};

/// SplitMix64's additive constant (the golden-ratio increment).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Derive the seed for subtask `index` from a root seed.
///
/// This is the closed form of the `index`-th output of a
/// `SplitMix64::new(root)` stream, so splitting is O(1) per task and
/// independent of how many sibling seeds were derived before it —
/// exactly what a parallel fan-out needs. Distinct indices give
/// decorrelated seeds (SplitMix64 is a bijective mix of a
/// Weyl sequence).
pub fn split_seed(root: u64, index: u64) -> u64 {
    SplitMix64::new(root.wrapping_add(index.wrapping_mul(GOLDEN))).next_u64()
}

// ---------------------------------------------------------------------------
// Global jobs configuration
// ---------------------------------------------------------------------------

/// 0 means "unset": fall back to `PMCA_JOBS` or available parallelism.
static GLOBAL_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide default thread count used by [`ThreadPool::global`].
///
/// The CLI wires `--jobs N` here. Values are clamped to at least 1.
pub fn set_global_jobs(n: usize) {
    GLOBAL_JOBS.store(n.max(1), Ordering::Relaxed);
}

/// The process-wide default thread count.
///
/// Resolution order: [`set_global_jobs`] if called, else the `PMCA_JOBS`
/// environment variable, else [`std::thread::available_parallelism`].
pub fn global_jobs() -> usize {
    match GLOBAL_JOBS.load(Ordering::Relaxed) {
        0 => default_jobs(),
        n => n,
    }
}

fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("PMCA_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

// ---------------------------------------------------------------------------
// Pool metrics
// ---------------------------------------------------------------------------

struct PoolMetrics {
    tasks: Counter,
    steals: Counter,
    scopes: Counter,
    queue_depth: Gauge,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = MetricsRegistry::global();
        PoolMetrics {
            tasks: registry.counter("pmca_pool_tasks_total", &[]),
            steals: registry.counter("pmca_pool_steals_total", &[]),
            scopes: registry.counter("pmca_pool_scopes_total", &[]),
            queue_depth: registry.gauge("pmca_pool_queue_depth", &[]),
        }
    })
}

/// Histogram of wall time for a named pipeline stage
/// (`pmca_pipeline_stage_seconds{stage=...}`).
///
/// Offline layers wrap their pool fan-outs in this so `METRICS` exposes
/// where a campaign's wall clock goes (collect vs. matrix vs. training).
pub fn stage_timer(stage: &'static str) -> Histogram {
    MetricsRegistry::global().histogram("pmca_pipeline_stage_seconds", &[("stage", stage)])
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

type Task<'env> = Box<dyn FnOnce() + Send + 'env>;

struct State<'env> {
    /// Per-worker FIFO deques; owners pop the front, thieves the back.
    queues: Vec<Mutex<VecDeque<Task<'env>>>>,
    /// Tasks spawned but not yet finished (guards scope completion).
    sync: Mutex<ScopeSync>,
    wake: Condvar,
    /// Round-robin cursor for spawn placement.
    next_queue: AtomicUsize,
    /// First panic payload raised by a task, re-raised at scope close.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

struct ScopeSync {
    /// Tasks pushed but not yet claimed by a worker.
    queued: usize,
    /// Tasks pushed but not yet finished.
    pending: usize,
    shutdown: bool,
}

impl<'env> State<'env> {
    fn new(workers: usize) -> Self {
        State {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            sync: Mutex::new(ScopeSync {
                queued: 0,
                pending: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            next_queue: AtomicUsize::new(0),
            panic: Mutex::new(None),
        }
    }

    fn push(&self, task: Task<'env>) {
        // The counters must rise before the task is visible in a deque:
        // a worker that claims it decrements `queued`, and claiming can
        // happen the instant the deque lock is released.
        {
            let mut sync = self.sync.lock().expect("sync poisoned");
            sync.queued += 1;
            sync.pending += 1;
        }
        let slot = self.next_queue.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        self.queues[slot]
            .lock()
            .expect("queue poisoned")
            .push_back(task);
        pool_metrics().queue_depth.add(1.0);
        self.wake.notify_one();
    }

    /// Pop from our own deque's front, else steal from a sibling's back.
    fn find_task(&self, own: usize) -> Option<Task<'env>> {
        let claimed = self.try_pop(own);
        if claimed.is_some() {
            let mut sync = self.sync.lock().expect("sync poisoned");
            sync.queued -= 1;
        }
        claimed
    }

    fn try_pop(&self, own: usize) -> Option<Task<'env>> {
        if let Some(task) = self.queues[own].lock().expect("queue poisoned").pop_front() {
            return Some(task);
        }
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (own + offset) % n;
            if let Some(task) = self.queues[victim]
                .lock()
                .expect("queue poisoned")
                .pop_back()
            {
                pool_metrics().steals.inc();
                return Some(task);
            }
        }
        None
    }

    fn run_task(&self, task: Task<'env>) {
        let metrics = pool_metrics();
        metrics.queue_depth.add(-1.0);
        // A panicking task must not take the rest of the scope's work
        // with it: record the first payload, keep draining, and re-raise
        // when the scope closes.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
            let mut slot = self.panic.lock().expect("panic slot poisoned");
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        metrics.tasks.inc();
        let mut sync = self.sync.lock().expect("sync poisoned");
        sync.pending -= 1;
        if sync.pending == 0 {
            self.wake.notify_all();
        }
    }

    fn run_worker(&self, own: usize) {
        loop {
            if let Some(task) = self.find_task(own) {
                self.run_task(task);
                continue;
            }
            let mut sync = self.sync.lock().expect("sync poisoned");
            loop {
                if sync.shutdown && sync.pending == 0 {
                    return;
                }
                if sync.queued > 0 {
                    break; // work is queued — go claim it
                }
                sync = self.wake.wait(sync).expect("sync poisoned");
            }
        }
    }
}

/// A scoped spawn handle, mirroring [`std::thread::Scope`].
///
/// Tasks may borrow anything that outlives the [`ThreadPool::scope`]
/// call (`'env`); the scope does not return until every spawned task has
/// finished, so the borrows stay sound without `unsafe`.
pub struct Scope<'pool, 'env> {
    state: &'pool State<'env>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Queue `task` for execution on the pool's workers.
    ///
    /// Tasks run in an unspecified order on unspecified workers; code
    /// that needs deterministic output must write results into
    /// per-task slots (as [`ThreadPool::par_map`] does) rather than
    /// share mutable accumulation order.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'env) {
        self.state.push(Box::new(task));
    }
}

/// A work-stealing thread pool with scoped, borrow-friendly spawning.
///
/// The pool itself is just a thread-count policy: workers are spawned
/// per [`ThreadPool::scope`] call via [`std::thread::scope`] (the only
/// way to run borrowing tasks without `unsafe`) and joined when the
/// scope closes. With `threads == 1`, `par_map` short-circuits to a
/// plain serial loop on the caller's thread — the `--jobs 1` path never
/// touches a lock.
///
/// Spawning a scope costs a few tens of microseconds (OS threads plus
/// per-item result slots), so fan-outs whose *total* work is comparable
/// to that overhead run slower in parallel. Stages with many tiny tasks
/// set a serial-fallback threshold via [`ThreadPool::with_min_items`]:
/// below it, `par_map` runs the plain serial loop — which is
/// bit-identical by construction, so the determinism guarantee is
/// unaffected.
#[derive(Debug, Clone, Copy)]
pub struct ThreadPool {
    threads: usize,
    /// `par_map` fan-outs with fewer items than this run serially.
    min_items: usize,
}

impl ThreadPool {
    /// A pool that runs scopes on `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        ThreadPool {
            threads: threads.max(1),
            min_items: 2,
        }
    }

    /// A pool sized by the process-wide `--jobs` setting
    /// (see [`global_jobs`]).
    pub fn global() -> Self {
        ThreadPool::new(global_jobs())
    }

    /// The same pool with a per-stage serial-fallback threshold:
    /// [`ThreadPool::par_map`] calls with fewer than `min_items` items
    /// skip the scope spawn and run the serial loop on the caller's
    /// thread. Clamped to ≥ 2 (a 0- or 1-item map is always serial).
    ///
    /// The threshold is a property of the *call site*, not the process:
    /// stages whose per-item work is microseconds (e.g. small simulator
    /// sweeps) pick a high threshold, stages doing millisecond-scale fits
    /// keep the default of 2.
    pub fn with_min_items(&self, min_items: usize) -> Self {
        ThreadPool {
            threads: self.threads,
            min_items: min_items.max(2),
        }
    }

    /// The number of worker threads a scope will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The serial-fallback threshold (see [`ThreadPool::with_min_items`]).
    pub fn min_items(&self) -> usize {
        self.min_items
    }

    /// Run `f` with a [`Scope`] on which tasks can be spawned; returns
    /// once every spawned task (including tasks spawned by tasks) has
    /// completed.
    ///
    /// If any task panics, the remaining tasks still run and the first
    /// panic is re-raised here. Nested calls (a task opening its own
    /// scope on the same or another pool) are allowed.
    pub fn scope<'env, T>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> T) -> T {
        let state = State::new(self.threads);
        pool_metrics().scopes.inc();
        let result = std::thread::scope(|s| {
            for w in 0..self.threads {
                let state = &state;
                s.spawn(move || state.run_worker(w));
            }
            let result = catch_unwind(AssertUnwindSafe(|| f(&Scope { state: &state })));
            // Wait for the queues to drain, then release the workers.
            {
                let mut sync = state.sync.lock().expect("sync poisoned");
                while sync.pending > 0 {
                    sync = state.wake.wait(sync).expect("sync poisoned");
                }
                sync.shutdown = true;
            }
            state.wake.notify_all();
            result
        });
        if let Some(payload) = state.panic.lock().expect("panic slot poisoned").take() {
            resume_unwind(payload);
        }
        match result {
            Ok(value) => value,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Map `f` over `items` in parallel, returning results in input
    /// order.
    ///
    /// Bit-identical to `items.iter().map(f).collect()` for any thread
    /// count: each task writes `f(&items[i])` into slot `i`, so
    /// scheduling cannot reorder or interleave results.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par_map_indexed(items, |_, item| f(item))
    }

    /// Like [`ThreadPool::par_map`] but `f` also receives the input
    /// index — the hook for per-task seed derivation via [`split_seed`].
    pub fn par_map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.threads == 1 || items.len() < self.min_items {
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        self.scope(|scope| {
            for (i, item) in items.iter().enumerate() {
                let slot = &slots[i];
                let f = &f;
                scope.spawn(move || {
                    let value = f(i, item);
                    *slot.lock().expect("result slot poisoned") = Some(value);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("scope completed, so every slot is filled")
            })
            .collect()
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        ThreadPool::global()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_input_order() {
        let pool = ThreadPool::new(4);
        let items: Vec<u64> = (0..100).collect();
        let doubled = pool.par_map(&items, |x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_matches_serial_at_every_thread_count() {
        let items: Vec<u64> = (0..57).collect();
        let serial: Vec<u64> = items.iter().map(|&x| split_seed(42, x)).collect();
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let parallel = pool.par_map(&items, |&x| split_seed(42, x));
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn scope_runs_all_spawned_tasks() {
        let pool = ThreadPool::new(3);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..500 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn tasks_can_spawn_more_tasks() {
        let pool = ThreadPool::new(2);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        // Nested scope from within a task on the same pool.
        pool.scope(|s| {
            s.spawn(|| {
                let inner = ThreadPool::new(2);
                let got = inner.par_map(&[1u64, 2, 3], |x| x + 1);
                assert_eq!(got, vec![2, 3, 4]);
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn panic_in_task_propagates_without_losing_tasks() {
        let pool = ThreadPool::new(2);
        let counter = std::sync::Arc::new(AtomicU64::new(0));
        let seen = counter.clone();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..50 {
                    let seen = seen.clone();
                    s.spawn(move || {
                        if i == 7 {
                            panic!("boom");
                        }
                        seen.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "panic must cross the scope boundary");
        // Every non-panicking task still ran.
        assert_eq!(counter.load(Ordering::Relaxed), 49);
    }

    #[test]
    fn split_seed_matches_sequential_splitmix_stream() {
        let mut sm = SplitMix64::new(1234);
        for i in 0..16 {
            assert_eq!(split_seed(1234, i), sm.next_u64(), "index {i}");
        }
    }

    #[test]
    fn split_seed_decorrelates_indices() {
        let a = split_seed(7, 0);
        let b = split_seed(7, 1);
        assert_ne!(a, b);
        assert_ne!(split_seed(7, 0), split_seed(8, 0));
    }

    #[test]
    fn global_jobs_is_at_least_one() {
        assert!(global_jobs() >= 1);
        set_global_jobs(3);
        assert_eq!(global_jobs(), 3);
        assert_eq!(ThreadPool::global().threads(), 3);
        // Reset to "unset" is not offered (0 is reserved), but any
        // explicit value keeps the invariant.
        set_global_jobs(0);
        assert_eq!(global_jobs(), 1);
    }

    #[test]
    fn min_items_threshold_falls_back_to_caller_thread() {
        let pool = ThreadPool::new(4).with_min_items(64);
        assert_eq!(pool.min_items(), 64);
        assert_eq!(pool.threads(), 4);
        let caller = std::thread::current().id();
        // 63 items < threshold: serial on the caller's thread.
        let small: Vec<usize> = (0..63).collect();
        let ids = pool.par_map(&small, |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
        // Results are identical either side of the threshold.
        let big: Vec<u64> = (0..64).collect();
        let parallel = pool.par_map(&big, |&x| split_seed(9, x));
        let serial: Vec<u64> = big.iter().map(|&x| split_seed(9, x)).collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn min_items_clamps_to_two() {
        let pool = ThreadPool::new(2).with_min_items(0);
        assert_eq!(pool.min_items(), 2);
        let got = pool.par_map(&[1u64, 2, 3], |x| x * 10);
        assert_eq!(got, vec![10, 20, 30]);
    }

    #[test]
    fn jobs_one_runs_on_caller_thread() {
        let pool = ThreadPool::new(1);
        let caller = std::thread::current().id();
        let ids = pool.par_map(&[(), ()], |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
    }
}
