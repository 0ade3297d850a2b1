//! Reader for the server's METRICS exposition.
//!
//! Each listing line is `name{label="v",...} value`. A series the
//! server does not export reads as [`Reading::Absent`]: later versions
//! of the server may retire an instrument, and the benchmark reports that
//! as `absent` rather than failing.

use std::collections::BTreeMap;
use std::fmt;

/// One series lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reading {
    /// The series was exported with this value.
    Value(f64),
    /// The server does not export the series.
    Absent,
}

impl Reading {
    /// The value, if present.
    pub fn value(self) -> Option<f64> {
        match self {
            Reading::Value(v) => Some(v),
            Reading::Absent => None,
        }
    }
}

impl fmt::Display for Reading {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reading::Value(v) => write!(f, "{v}"),
            Reading::Absent => f.write_str("absent"),
        }
    }
}

/// A parsed METRICS snapshot, keyed by the full series text
/// (`name{labels}`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exposition {
    series: BTreeMap<String, f64>,
}

impl Exposition {
    /// Parse listing lines; lines that are not `series value` are skipped.
    pub fn parse<S: AsRef<str>>(lines: &[S]) -> Exposition {
        let mut series = BTreeMap::new();
        for line in lines {
            let line = line.as_ref().trim();
            if let Some((key, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    series.insert(key.trim().to_string(), v);
                }
            }
        }
        Exposition { series }
    }

    /// The value of one series, e.g. `pmca_cache_hits_total` or
    /// `pmca_engine_queue_wait_seconds{quantile="0.5"}`.
    pub fn get(&self, series: &str) -> Reading {
        self.series
            .get(series)
            .map_or(Reading::Absent, |v| Reading::Value(*v))
    }

    /// Change of a counter since `earlier`; absent when either snapshot
    /// lacks it.
    pub fn delta(&self, earlier: &Exposition, series: &str) -> Reading {
        match (self.get(series), earlier.get(series)) {
            (Reading::Value(now), Reading::Value(then)) => Reading::Value(now - then),
            _ => Reading::Absent,
        }
    }

    /// The dispatched SIMD instruction set from the `pmca_simd_isa`
    /// gauge, if exported.
    pub fn simd_isa(&self) -> Option<String> {
        self.series.iter().find_map(|(key, value)| {
            let rest = key.strip_prefix("pmca_simd_isa{isa=\"")?;
            (*value > 0.0).then(|| rest.trim_end_matches("\"}").to_string())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINES: [&str; 6] = [
        "pmca_cache_hits_total 12",
        "pmca_cache_misses_total 3",
        "pmca_engine_queue_wait_seconds{quantile=\"0.5\"} 0.0000121",
        "pmca_stream_windows_total{result=\"accepted\"} 40",
        "pmca_simd_isa{isa=\"avx2\"} 1",
        "not a metric line",
    ];

    #[test]
    fn reads_plain_and_labelled_series() {
        let e = Exposition::parse(&LINES);
        assert_eq!(e.get("pmca_cache_hits_total"), Reading::Value(12.0));
        assert_eq!(
            e.get("pmca_engine_queue_wait_seconds{quantile=\"0.5\"}"),
            Reading::Value(0.0000121)
        );
        assert_eq!(
            e.get("pmca_stream_windows_total{result=\"accepted\"}")
                .value(),
            Some(40.0)
        );
        assert_eq!(e.simd_isa().as_deref(), Some("avx2"));
    }

    #[test]
    fn missing_series_read_as_absent() {
        let e = Exposition::parse(&LINES);
        assert_eq!(e.get("pmca_engine_compute_seconds_count"), Reading::Absent);
        assert_eq!(Reading::Absent.to_string(), "absent");
        assert_eq!(Exposition::parse::<&str>(&[]).simd_isa(), None);
        let later = Exposition::parse(&["pmca_cache_hits_total 20"]);
        assert_eq!(
            later.delta(&e, "pmca_cache_hits_total"),
            Reading::Value(8.0)
        );
        assert_eq!(later.delta(&e, "pmca_cache_misses_total"), Reading::Absent);
    }
}
