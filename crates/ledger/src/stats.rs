//! Order statistics: the per-segment percentile, and the estimate over a
//! run's segments that every end-to-end value is reported as.

use crate::json::{obj, Value};

/// Nearest-rank percentile of an ascending slice (`p` in `0.0..=1.0`);
/// 0 for an empty slice.
pub fn percentile_sorted(sorted: &[u32], p: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) computes
/// them — the acceptance check upstream uses that function, so `compare`
/// must agree with it digit for digit. With fewer than two values both
/// quartiles equal the single value (or 0).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank quantile of `values` (`p` in `0.0..=1.0`); 0 when empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => v[(((n - 1) as f64 * p).round() as usize).min(n - 1)],
    }
}

/// Which order statistic of a run's samples an end-to-end metric reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Estimator {
    /// The median: for quantities the host's slow phases do not touch
    /// (memory) or that the contract defines as a median (set-up time).
    Median,
    /// The decile on the metric's better side — the first for a latency,
    /// the ninth for a throughput. This host slows by a fifth to a half for
    /// anything from a tenth of a second to minutes and never speeds up, so
    /// the tenth of a run's segments that were disturbed least says what
    /// the code does; the median of the same segments says how busy the
    /// neighbours were.
    QuietDecile,
}

impl Estimator {
    /// Applies the estimator to `samples` of a metric for which smaller
    /// (`lower_is_better`) or larger values are the better ones.
    pub fn of(self, samples: &[f64], lower_is_better: bool) -> f64 {
        match (self, lower_is_better) {
            (Estimator::Median, _) => median(samples),
            (Estimator::QuietDecile, true) => quantile(samples, 0.10),
            (Estimator::QuietDecile, false) => quantile(samples, 0.90),
        }
    }
}

/// One end-to-end metric of one workload: the estimate over every sample
/// of the run, and how far the run's windows (one process each, at
/// separate times) disagree about it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The reported value: the estimator over all windows' samples pooled.
    pub value: f64,
    /// Plain median of the pooled samples. Where it sits well on the worse
    /// side of `value`, the host was disturbed for much of the run.
    pub median: f64,
    /// First quartile of the per-window estimates.
    pub q1: f64,
    /// Third quartile of the per-window estimates.
    pub q3: f64,
    /// Number of windows.
    pub windows: usize,
    /// Number of samples pooled.
    pub samples: usize,
}

impl Summary {
    /// Summarises one metric from its samples, grouped by window.
    pub fn of(windows: &[Vec<f64>], estimator: Estimator, lower_is_better: bool) -> Self {
        let pooled: Vec<f64> = windows.iter().flatten().copied().collect();
        let per_window: Vec<f64> = windows
            .iter()
            .map(|w| estimator.of(w, lower_is_better))
            .collect();
        let (q1, q3) = quartiles(&per_window);
        Summary {
            value: estimator.of(&pooled, lower_is_better),
            median: median(&pooled),
            q1,
            q3,
            windows: windows.len(),
            samples: pooled.len(),
        }
    }

    /// Interquartile distance of the per-window estimates as a share of
    /// the value (0 when the value is 0).
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }

    /// `{"value", "median", "q1", "q3", "windows", "samples", "unit"}`.
    pub fn to_json(&self, unit: &str) -> Value {
        obj([
            ("value", Value::from(self.value)),
            ("median", Value::from(self.median)),
            ("q1", Value::from(self.q1)),
            ("q3", Value::from(self.q3)),
            ("windows", Value::from(self.windows)),
            ("samples", Value::from(self.samples)),
            ("unit", Value::from(unit)),
        ])
    }

    /// Reads back what [`Summary::to_json`] wrote.
    pub fn from_json(v: &Value) -> Option<Self> {
        let num = |key: &str| v.get(key)?.as_f64();
        Some(Summary {
            value: num("value")?,
            median: num("median")?,
            q1: num("q1")?,
            q3: num("q3")?,
            windows: num("windows")? as usize,
            samples: num("samples")? as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 0.0), 1);
        assert_eq!(percentile_sorted(&s, 0.5), 51); // round(49.5) = 50 -> s[50]
        assert_eq!(percentile_sorted(&s, 0.99), 99);
        assert_eq!(percentile_sorted(&s, 1.0), 100);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
        assert_eq!(percentile_sorted(&[7], 0.999), 7);
    }

    #[test]
    fn median_of_segments() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One wild segment does not move the reported value.
        assert_eq!(median(&[10.0, 10.1, 9.9, 10.0, 55.0]), 10.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 3.0);
        assert_eq!(quantile(&v, 0.75), 7.0);
        assert_eq!(quantile(&v, 1.0), 9.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quiet_decile_ignores_a_slow_phase_that_moves_the_median() {
        // Latency segments: 9.8 when quiet, 13 while the host is slow.
        let quiet = [9.8, 9.7, 9.8, 9.9, 9.7, 9.8, 9.8, 9.9];
        let mut run = quiet.to_vec();
        run.extend([13.0; 12]);
        assert_eq!(Estimator::Median.of(&run, true), 13.0);
        assert_eq!(Estimator::QuietDecile.of(&run, true), 9.8);
        assert_eq!(Estimator::QuietDecile.of(&quiet, true), 9.7);
        // Throughput: the better side is the upper one.
        let mut rps = vec![60e3; 12];
        rps.extend([88e3, 90e3, 89e3, 91e3, 90e3, 89e3, 88e3, 90e3]);
        assert_eq!(Estimator::QuietDecile.of(&rps, false), 90e3);
    }

    #[test]
    fn summary_pools_samples_and_spreads_over_windows() {
        let windows = vec![
            vec![10.0, 10.2, 10.1, 10.0, 10.4],
            vec![10.1, 13.0, 13.1, 13.0, 10.0],
            vec![13.1, 13.0, 10.3, 13.2, 13.1],
            vec![13.0, 13.2, 13.1, 13.3, 13.0],
        ];
        let s = Summary::of(&windows, Estimator::QuietDecile, true);
        assert_eq!((s.windows, s.samples), (4, 20));
        // Pooled: two samples in five are quiet, so the decile is too — and
        // the median, in the slow mode, says the host was not.
        assert_eq!(s.value, 10.0);
        assert_eq!(s.median, 13.0);
        // The window that never saw a quiet moment shows in the spread.
        assert!(s.spread() > 0.2, "{s:?}");
        assert_eq!(Summary::from_json(&s.to_json("us")), Some(s));
        let empty = Summary::of(&[], Estimator::Median, true);
        assert_eq!((empty.value, empty.spread()), (0.0, 0.0));
    }
}
