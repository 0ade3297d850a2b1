//! Seeded input generator owned by the benchmark.
//!
//! Everything the server receives is produced here from the workload
//! seed: the same seed gives byte-identical request lines. The generator
//! has its own RNG so that changes to the repository's crates never move
//! the benchmark's inputs.
//!
//! Counter vectors are full rank: every counter varies independently of
//! the others. Stream labels are the generator's noise-free truth
//! (`truth · counts`) plus meter noise.

use std::f64::consts::LN_2;

/// Platform every workload targets.
pub const PLATFORM: &str = "skylake";

/// The deployable 4-PMC set the TRAIN-ed online linear model uses; also
/// the stream hub's default feature order.
pub const LINEAR_SET: [&str; 4] = [
    "UOPS_EXECUTED_CORE",
    "FP_ARITH_INST_RETIRED_DOUBLE",
    "MEM_INST_RETIRED_ALL_STORES",
    "UOPS_DISPATCHED_PORT_PORT_4",
];

/// The second 4-PMC set the benchmark's forest is registered on.
pub const FOREST_SET: [&str; 4] = [
    "CPU_CLK_UNHALTED_CORE",
    "BR_INST_RETIRED_ALL_BRANCHES",
    "CYCLE_ACTIVITY_STALLS_L3_MISS",
    "FP_ARITH_INST_RETIRED_256B_PACKED_DOUBLE",
];

/// Typical whole-application counts for [`LINEAR_SET`].
const LINEAR_BASE: [f64; 4] = [2.0e10, 1.0e9, 3.0e9, 3.0e9];
/// Typical whole-application counts for [`FOREST_SET`].
const FOREST_BASE: [f64; 4] = [3.0e10, 4.0e9, 2.0e9, 5.0e8];
/// Typical one-second counts of a stream window, in [`LINEAR_SET`] order.
const WINDOW_BASE: [f64; 4] = [2.0e9, 4.0e8, 3.0e8, 1.5e8];
/// Relative standard deviation of the simulated power meter.
pub const METER_NOISE: f64 = 0.03;
/// Every `LABEL_EVERY`-th window of a stream carries a label.
pub const LABEL_EVERY: u64 = 4;

/// SplitMix64: small, fast, and fixed forever by this file.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, a, b)` cell, so that any window can be
    /// generated on its own without replaying the ones before it.
    pub fn cell(seed: u64, a: u64, b: u64) -> Rng {
        let mut mix = Rng(seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let first = mix.next_u64();
        Rng(first ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.uniform().max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Integer counts around `base`, each counter drawn independently and
/// log-uniformly within a factor of 4 either way: full rank by design.
pub fn counter_vector(rng: &mut Rng, base: &[f64; 4]) -> [f64; 4] {
    let spread = 2.0 * LN_2;
    let mut out = [0.0; 4];
    for (o, b) in out.iter_mut().zip(base) {
        *o = (b * rng.range(-spread, spread).exp()).round();
    }
    out
}

/// `ESTIMATE <platform> <pmc>=<count> ...` in the given name order.
pub fn estimate_line(names: &[&str; 4], counts: &[f64; 4]) -> String {
    let mut line = format!("ESTIMATE {PLATFORM}");
    for (name, count) in names.iter().zip(counts) {
        line.push_str(&format!(" {name}={count}"));
    }
    line
}

/// The TRAIN request that fits the online linear model on
/// [`LINEAR_SET`]: a short dgemm/fft ladder whose sizes move with the seed.
pub fn train_line(seed: u64) -> String {
    let mut rng = Rng::cell(seed, 1, 0);
    let apps: Vec<String> = (0..4)
        .flat_map(|i| {
            let dgemm = 7_000 + 900 * i + rng.below(400);
            let fft = 23_000 + 1_100 * i + rng.below(600);
            [format!("dgemm:{dgemm}"), format!("fft:{fft}")]
        })
        .collect();
    format!(
        "TRAIN {PLATFORM} {} {}",
        LINEAR_SET.join(","),
        apps.join(",")
    )
}

/// `count` distinct application specs for ESTIMATE-APP: single kernels
/// and dgemm+fft compounds, sizes drawn from the seed.
pub fn app_specs(seed: u64, count: usize) -> Vec<String> {
    let mut rng = Rng::cell(seed, 2, 0);
    let mut specs: Vec<String> = Vec::with_capacity(count);
    while specs.len() < count {
        let dgemm = 8_000 + 100 * rng.below(60);
        let fft = 22_000 + 100 * rng.below(80);
        let spec = match specs.len() % 3 {
            0 => format!("dgemm:{dgemm}"),
            1 => format!("fft:{fft}"),
            _ => format!("dgemm:{dgemm};fft:{fft}"),
        };
        if !specs.contains(&spec) {
            specs.push(spec);
        }
    }
    specs
}

/// A positive truth vector: coefficients that make `base` cost about
/// `watts`, split unevenly across the counters by the seed.
fn truth_for(rng: &mut Rng, base: &[f64; 4], watts: f64) -> [f64; 4] {
    let mut out = [0.0; 4];
    for (o, b) in out.iter_mut().zip(base) {
        *o = watts / 4.0 * rng.range(0.5, 1.5) / b;
    }
    out
}

/// Noise-free energy of `counts` under `truth`.
pub fn dot(truth: &[f64; 4], counts: &[f64; 4]) -> f64 {
    truth.iter().zip(counts).map(|(t, c)| t * c).sum()
}

/// The forest's training set on [`FOREST_SET`]: `rows` counter vectors
/// with joules labels from a seeded truth plus meter noise.
pub fn forest_training(seed: u64, rows: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = Rng::cell(seed, 3, 0);
    let truth = truth_for(&mut rng, &FOREST_BASE, 400.0);
    let mut x = Vec::with_capacity(rows);
    let mut y = Vec::with_capacity(rows);
    for _ in 0..rows {
        let counts = counter_vector(&mut rng, &FOREST_BASE);
        y.push((dot(&truth, &counts) * (1.0 + METER_NOISE * rng.normal())).max(0.0));
        x.push(counts.to_vec());
    }
    (x, y)
}

/// `count` counter-level ESTIMATE lines on `names` (the linear or the
/// forest set), with their counts in model feature order.
pub fn estimate_pool(seed: u64, forest: bool, count: usize) -> Vec<(String, [f64; 4])> {
    let (names, base, stream) = if forest {
        (&FOREST_SET, &FOREST_BASE, 5)
    } else {
        (&LINEAR_SET, &LINEAR_BASE, 4)
    };
    let mut rng = Rng::cell(seed, stream, 0);
    (0..count)
        .map(|_| {
            let counts = counter_vector(&mut rng, base);
            (estimate_line(names, &counts), counts)
        })
        .collect()
}

/// One line of an `estimate_batch_rf` batch.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchLine {
    /// Counter-level ESTIMATE on the forest set, counts in feature order.
    Forest(String, [f64; 4]),
    /// ESTIMATE-APP of the warm working set's spec at this index.
    App(String, usize),
}

impl BatchLine {
    /// The request line.
    pub fn line(&self) -> &str {
        match self {
            BatchLine::Forest(line, _) | BatchLine::App(line, _) => line,
        }
    }
}

/// `batches` pipelined batches of `depth` lines: three quarters forest
/// ESTIMATEs, one quarter ESTIMATE-APPs over `specs`, shuffled per batch.
pub fn batch_pool(
    seed: u64,
    specs: &[String],
    batches: usize,
    depth: usize,
) -> Vec<Vec<BatchLine>> {
    let forest_lines = estimate_pool(seed, true, batches * depth);
    let mut forest_iter = forest_lines.into_iter();
    let mut rng = Rng::cell(seed, 6, 0);
    let apps_per_batch = depth / 4;
    (0..batches)
        .map(|_| {
            let mut batch: Vec<BatchLine> = Vec::with_capacity(depth);
            for _ in 0..apps_per_batch {
                let index = rng.below(specs.len() as u64) as usize;
                batch.push(BatchLine::App(
                    format!("ESTIMATE-APP {PLATFORM} {}", specs[index]),
                    index,
                ));
            }
            while batch.len() < depth {
                let (line, counts) = forest_iter.next().expect("pool sized for every batch");
                batch.push(BatchLine::Forest(line, counts));
            }
            rng.shuffle(&mut batch);
            batch
        })
        .collect()
}

/// The `stream_fleet` producers: per-stream operating points and the
/// shared truth their labels follow.
#[derive(Debug, Clone)]
pub struct Fleet {
    seed: u64,
    /// Noise-free joules per count, in [`LINEAR_SET`] order.
    pub truth: [f64; 4],
    bases: Vec<[f64; 4]>,
}

impl Fleet {
    /// `streams` producers drawn from `seed`.
    pub fn new(seed: u64, streams: usize) -> Fleet {
        let mut rng = Rng::cell(seed, 7, 0);
        let truth = truth_for(&mut rng, &WINDOW_BASE, 24.0);
        let bases = (0..streams)
            .map(|_| counter_vector(&mut rng, &WINDOW_BASE))
            .collect();
        Fleet { seed, truth, bases }
    }

    /// Number of streams.
    pub fn streams(&self) -> usize {
        self.bases.len()
    }

    /// Stream id on the wire.
    pub fn id(stream: usize) -> String {
        format!("fleet-{stream}")
    }

    /// `STREAM OPEN` for one stream, with a `ring`-window sliding ring.
    pub fn open_line(&self, stream: usize, ring: usize) -> String {
        format!("STREAM OPEN {} bench {PLATFORM} {ring}", Fleet::id(stream))
    }

    /// Counts of window `window` (ids start at 1) of `stream`: each
    /// counter moves independently within ±30% of the stream's base.
    pub fn counts(&self, stream: usize, window: u64) -> [f64; 4] {
        let mut rng = Rng::cell(self.seed ^ 0x5EED, stream as u64, window);
        let mut out = [0.0; 4];
        for (o, b) in out.iter_mut().zip(&self.bases[stream]) {
            *o = (b * rng.range(0.7, 1.3)).round();
        }
        out
    }

    /// The label of a window, when it carries one: truth plus meter noise.
    pub fn label(&self, stream: usize, window: u64) -> Option<f64> {
        if !window.is_multiple_of(LABEL_EVERY) {
            return None;
        }
        let mut rng = Rng::cell(self.seed ^ 0x1ABE1, stream as u64, window);
        let truth = dot(&self.truth, &self.counts(stream, window));
        Some((truth * (1.0 + METER_NOISE * rng.normal())).max(0.0))
    }

    /// Noise-free power of a window, watts (windows are one second).
    pub fn truth_watts(&self, stream: usize, window: u64) -> f64 {
        dot(&self.truth, &self.counts(stream, window))
    }

    /// `STREAM PUSH` line of one window.
    pub fn push_line(&self, stream: usize, window: u64) -> String {
        let c = self.counts(stream, window);
        let mut line = format!(
            "STREAM PUSH {} {window} {} {} {} {}",
            Fleet::id(stream),
            c[0],
            c[1],
            c[2],
            c[3]
        );
        if let Some(joules) = self.label(stream, window) {
            line.push_str(&format!(" {joules}"));
        }
        line
    }

    /// `STREAM POLL` line of one stream.
    pub fn poll_line(stream: usize) -> String {
        format!("STREAM POLL {}", Fleet::id(stream))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_lines() {
        let specs = app_specs(11, 32);
        assert_eq!(specs, app_specs(11, 32));
        assert_eq!(train_line(11), train_line(11));
        let a: Vec<String> = estimate_pool(11, false, 64)
            .into_iter()
            .map(|p| p.0)
            .collect();
        let b: Vec<String> = estimate_pool(11, false, 64)
            .into_iter()
            .map(|p| p.0)
            .collect();
        assert_eq!(a, b);
        let batches = |seed| {
            batch_pool(seed, &specs, 4, 64)
                .iter()
                .flatten()
                .map(|l| l.line().to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(batches(11), batches(11));
        let fleet = |seed| {
            let fleet = Fleet::new(seed, 8);
            (0..8)
                .flat_map(|s| (1..=16).map(move |w| (s, w)))
                .map(|(s, w)| fleet.push_line(s, w))
                .collect::<Vec<_>>()
        };
        assert_eq!(fleet(11), fleet(11));
        assert_ne!(fleet(11), fleet(12));
        assert_ne!(
            a,
            estimate_pool(12, false, 64)
                .into_iter()
                .map(|p| p.0)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn counters_vary_independently() {
        // Full rank: the ratio between two counters is not constant, as
        // it would be if all four scaled with one factor.
        let pool = estimate_pool(3, false, 32);
        let ratios: Vec<f64> = pool.iter().map(|(_, c)| c[0] / c[1]).collect();
        let spread = ratios.iter().cloned().fold(f64::MIN, f64::max)
            / ratios.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread > 2.0, "ratio spread {spread}");
        let fleet = Fleet::new(3, 2);
        let w: Vec<f64> = (1..=32)
            .map(|i| fleet.counts(0, i)[2] / fleet.counts(0, i)[3])
            .collect();
        assert!(w.iter().any(|r| (r - w[0]).abs() > 1e-3));
    }

    #[test]
    fn batches_mix_forest_and_app_lines() {
        let specs = app_specs(5, 32);
        for batch in batch_pool(5, &specs, 8, 64) {
            let apps = batch
                .iter()
                .filter(|l| matches!(l, BatchLine::App(..)))
                .count();
            assert_eq!(apps, 16);
            assert_eq!(batch.len(), 64);
        }
    }

    #[test]
    fn labels_are_noisy_truth_on_every_fourth_window() {
        let fleet = Fleet::new(9, 4);
        assert!(fleet.label(1, 3).is_none());
        let label = fleet.label(1, 4).expect("labelled");
        let truth = fleet.truth_watts(1, 4);
        assert!(label != truth && (label - truth).abs() < 0.2 * truth);
        assert!(fleet.push_line(1, 4).ends_with(&format!(" {label}")));
    }
}
