//! Order statistics the benchmark reports.

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (at most 99).
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Samples strictly beyond the reported one.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` in `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Median of unsorted values (nearest rank); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), 50.0)])
}

/// The highest percentile, capped at 99, that still has at least
/// [`MIN_BEYOND`] samples beyond it. `None` with too few samples for
/// any such percentile.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let index = rank(n, 99.0).min(n - 1 - MIN_BEYOND);
    Some(Tail {
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        value: sorted[index],
        beyond: n - 1 - index,
        samples: n,
    })
}

/// Sort in place and return the nearest-rank percentile `p`.
pub fn percentile(values: &mut [f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    Some(values[rank(values.len(), p)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_when_enough_samples_lie_beyond() {
        let sorted: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&sorted).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 1980.0);
        assert_eq!(t.beyond, 20);
        assert_eq!(t.samples, 2000);
    }

    #[test]
    fn tail_backs_off_until_ten_samples_lie_beyond() {
        let sorted: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&sorted).unwrap();
        // p99 would leave 2 beyond; the 190th sample leaves exactly 10.
        assert_eq!(t.value, 190.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 95.0);
        let exact: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&exact).unwrap();
        assert_eq!((t.value, t.beyond, t.percentile), (990.0, 10, 99.0));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(tail(&sorted).is_none());
        let t = tail(&[1.0; 11]).unwrap();
        assert_eq!((t.beyond, t.samples), (10, 11));
    }

    #[test]
    fn median_and_percentile_use_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 90.0), Some(90.0));
    }
}
