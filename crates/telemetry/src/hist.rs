//! Latency histograms and summaries.
//!
//! An HDR-style log-linear histogram: values are bucketed by the position of
//! their most-significant bit (the "group") and a fixed number of linear
//! sub-buckets within each group. Relative quantile error is bounded by
//! `1/SUB_BUCKETS` (≈3% with 32 sub-buckets), which is ample for reporting
//! p50/p90/p99/p999 latencies in microseconds.
//!
//! This histogram originated in `dagger-sim` (where the simulator records
//! virtual-time latencies) and was rehomed here so the *host* RPC stack can
//! record wall-clock nanoseconds into the same structure; `dagger-sim`
//! re-exports it for compatibility.

use crate::Nanos;

const SUB_BITS: u32 = 5;
const SUB_BUCKETS: usize = 1 << SUB_BITS; // 32
const GROUPS: usize = 64 - SUB_BITS as usize + 1;

/// Total bucket count of a [`Histogram`].
pub(crate) const NUM_BUCKETS: usize = GROUPS * SUB_BUCKETS;

/// A Prometheus-style exemplar: the most recent traced sample that landed
/// in a histogram bucket. A percentile resolved by [`Histogram::percentile`]
/// dereferences through the exemplar of its bucket to a concrete traced
/// request — the join point between metrics and distributed traces
/// (DESIGN.md §15).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exemplar {
    /// Trace the sample belonged to.
    pub trace_id: u64,
    /// Span that recorded the sample (client call span / server handler span).
    pub span_id: u64,
    /// The recorded value, in the histogram's unit (nanoseconds here).
    pub value: u64,
    /// Grid tick at record time, aligning the exemplar with the SLO window
    /// and the flight-recorder events of the same moment.
    pub tick: u64,
}

/// A log-linear latency histogram over `u64` nanosecond values.
///
/// # Example
///
/// ```
/// use dagger_telemetry::Histogram;
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.percentile(50.0);
/// assert!((470..=530).contains(&p50), "p50 was {p50}");
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    // Per-bucket most-recent traced sample; allocated lazily on the first
    // `record_traced` so untraced histograms pay nothing.
    exemplars: Vec<Option<Exemplar>>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; GROUPS * SUB_BUCKETS],
            exemplars: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    pub(crate) fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros(); // >= SUB_BITS
        let group = (msb - SUB_BITS + 1) as usize;
        let sub = ((value >> (msb - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
        group * SUB_BUCKETS + sub
    }

    pub(crate) fn bucket_high(index: usize) -> u64 {
        let group = index / SUB_BUCKETS;
        let sub = (index % SUB_BUCKETS) as u64;
        if group == 0 {
            return sub;
        }
        let shift = (group - 1) as u32;
        // Upper edge of the bucket: ((sub + SUB_BUCKETS) + 1) << shift, minus
        // 1; computed in u128 because the top groups overflow u64.
        let high = ((u128::from(sub) + SUB_BUCKETS as u128 + 1) << shift) - 1;
        u64::try_from(high).unwrap_or(u64::MAX)
    }

    /// Records one value.
    pub fn record(&mut self, value: Nanos) {
        let idx = Self::bucket_index(value);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records one value carrying its trace identity: besides the normal
    /// count update, the bucket's exemplar slot is overwritten with this
    /// `(trace_id, span_id, value, tick)` — "most recent traced sample per
    /// bucket" semantics, so tail buckets always point at a live example of
    /// what made them tail.
    pub fn record_traced(&mut self, value: Nanos, trace_id: u64, span_id: u64, tick: u64) {
        let idx = Self::bucket_index(value);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if trace_id != 0 {
            if self.exemplars.is_empty() {
                self.exemplars = vec![None; NUM_BUCKETS];
            }
            self.exemplars[idx] = Some(Exemplar {
                trace_id,
                span_id,
                value,
                tick,
            });
        }
    }

    /// All populated exemplars, in bucket order (ascending value edge).
    pub fn exemplars(&self) -> Vec<Exemplar> {
        self.exemplars.iter().filter_map(|e| *e).collect()
    }

    /// Exemplars from buckets whose entire range lies above `threshold` —
    /// the "tail buckets" of a latency SLO with that threshold. Mirrors the
    /// badness rule in `slo.rs`: a bucket is bad iff its index is strictly
    /// greater than the threshold's own bucket.
    pub fn exemplars_above(&self, threshold: u64) -> Vec<Exemplar> {
        if self.exemplars.is_empty() {
            return Vec::new();
        }
        let bad_from = Self::bucket_index(threshold);
        self.exemplars[bad_from + 1..]
            .iter()
            .filter_map(|e| *e)
            .collect()
    }

    /// Records `n` occurrences of one value.
    pub fn record_n(&mut self, value: Nanos, n: u64) {
        if n == 0 {
            return;
        }
        let idx = Self::bucket_index(value);
        self.counts[idx] += n;
        self.total += n;
        self.sum += u128::from(value) * u128::from(n);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded value, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at the given percentile `p` in `[0, 100]`. Returns the upper
    /// edge of the containing bucket (clamped to the observed max), or 0
    /// when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_high(idx).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Merges another histogram into this one. Exemplars keep the sample
    /// with the larger tick per bucket ("most recent" across both inputs).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if !other.exemplars.is_empty() {
            if self.exemplars.is_empty() {
                self.exemplars = vec![None; NUM_BUCKETS];
            }
            for (mine, theirs) in self.exemplars.iter_mut().zip(other.exemplars.iter()) {
                match (&mine, theirs) {
                    (None, Some(e)) => *mine = Some(*e),
                    (Some(m), Some(e)) if e.tick > m.tick => *mine = Some(*e),
                    _ => {}
                }
            }
        }
    }

    /// Raw per-bucket counts, indexed by [`Histogram::bucket_index`]. A
    /// latency SLO sums the buckets above its threshold's to count the bad
    /// samples without re-recording anything.
    pub(crate) fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Produces a plain-data summary of this histogram.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.total,
            mean_ns: self.mean(),
            p50_ns: self.percentile(50.0),
            p90_ns: self.percentile(90.0),
            p99_ns: self.percentile(99.0),
            p999_ns: self.percentile(99.9),
            max_ns: self.max(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Plain-data percentile summary of a [`Histogram`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Mean in nanoseconds.
    pub mean_ns: f64,
    /// Median.
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Maximum observed.
    pub max_ns: u64,
}

impl Summary {
    /// Median in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.p50_ns as f64 / 1000.0
    }

    /// 90th percentile in microseconds.
    pub fn p90_us(&self) -> f64 {
        self.p90_ns as f64 / 1000.0
    }

    /// 99th percentile in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.p99_ns as f64 / 1000.0
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.2}us p50={:.2}us p90={:.2}us p99={:.2}us max={:.2}us",
            self.count,
            self.mean_ns / 1000.0,
            self.p50_ns as f64 / 1000.0,
            self.p90_ns as f64 / 1000.0,
            self.p99_ns as f64 / 1000.0,
            self.max_ns as f64 / 1000.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn single_value() {
        let mut h = Histogram::new();
        h.record(1234);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 1234);
        assert_eq!(h.max(), 1234);
        let p50 = h.percentile(50.0);
        assert!((1234..=1300).contains(&p50));
    }

    #[test]
    fn uniform_percentiles_within_error_bound() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for &(p, expect) in &[(50.0, 50_000u64), (90.0, 90_000), (99.0, 99_000)] {
            let got = h.percentile(p);
            let err = (got as f64 - expect as f64).abs() / expect as f64;
            assert!(err < 0.05, "p{p}: got {got}, expect {expect}");
        }
    }

    /// Pins the exact quantile behaviour: the bucket layout (5 sub-bucket
    /// bits, upper-edge reporting) must not drift, or every simulator
    /// report changes silently.
    #[test]
    fn bucket_layout_pins_p50_p99() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), 50_175);
        assert_eq!(h.percentile(99.0), 100_000);

        let mut steps = Histogram::new();
        for v in (1..=10u64).map(|i| i * 1000) {
            steps.record(v);
        }
        assert_eq!(steps.percentile(50.0), 5_119);
        assert_eq!(steps.percentile(99.0), 10_000);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(100.0), 31);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn mean_matches_inputs() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert!((h.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn record_n_equivalent_to_loop() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_n(500, 10);
        for _ in 0..10 {
            b.record(500);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.percentile(50.0), b.percentile(50.0));
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=100u64 {
            a.record(v);
        }
        for v in 10_001..=10_100u64 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert_eq!(a.min(), 1);
        assert!(a.max() >= 10_100);
        // Median should sit at the boundary between the two clusters.
        let p50 = a.percentile(50.0);
        assert!(p50 <= 110, "p50 {p50}");
        let p90 = a.percentile(90.0);
        assert!(p90 >= 10_000, "p90 {p90}");
    }

    #[test]
    fn percentiles_monotonic() {
        let mut h = Histogram::new();
        let mut x = 1u64;
        for i in 0..10_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i) % 1_000_000;
            h.record(x);
        }
        let mut last = 0;
        for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
            let v = h.percentile(p);
            assert!(v >= last, "p{p}: {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn large_values_bucket_correctly() {
        let mut h = Histogram::new();
        h.record(u64::MAX / 2);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(100.0) >= u64::MAX / 2);
    }

    #[test]
    fn exemplars_track_most_recent_per_bucket() {
        let mut h = Histogram::new();
        assert!(h.exemplars().is_empty());
        h.record_traced(1_000, 0xA, 0x1, 5);
        h.record_traced(1_000, 0xB, 0x2, 6); // same bucket: overwrites
        h.record_traced(9_000_000, 0xC, 0x3, 7);
        let ex = h.exemplars();
        assert_eq!(ex.len(), 2);
        assert_eq!(ex[0].trace_id, 0xB);
        assert_eq!(ex[0].tick, 6);
        assert_eq!(ex[1].trace_id, 0xC);
        // Untraced records never displace an exemplar.
        h.record(1_000);
        assert_eq!(h.exemplars().len(), 2);
        // trace_id 0 means "no trace": counted, not stored.
        h.record_traced(77, 0, 0, 9);
        assert_eq!(h.exemplars().len(), 2);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn exemplars_above_returns_tail_buckets_only() {
        let mut h = Histogram::new();
        h.record_traced(100, 1, 1, 0);
        h.record_traced(1_000_000, 2, 2, 1);
        let tail = h.exemplars_above(10_000);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].trace_id, 2);
        // A value in the threshold's own bucket is not "above" it.
        let same = h.exemplars_above(1_000_000);
        assert!(same.is_empty(), "{same:?}");
        assert!(h.exemplars_above(u64::MAX).is_empty());
        assert_eq!(h.exemplars_above(0).len(), 2);
    }

    #[test]
    fn merge_keeps_newest_exemplar_per_bucket() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_traced(500, 0xA, 1, 10);
        b.record_traced(500, 0xB, 2, 20);
        b.record_traced(64_000, 0xD, 4, 5);
        a.merge(&b);
        let ex = a.exemplars();
        assert_eq!(ex.len(), 2);
        assert_eq!(ex[0].trace_id, 0xB, "newer tick wins the shared bucket");
        assert_eq!(ex[1].trace_id, 0xD, "unopposed exemplar carried over");
        // Merging an exemplar-free histogram leaves exemplars intact.
        let plain = Histogram::new();
        a.merge(&plain);
        assert_eq!(a.exemplars().len(), 2);
    }

    #[test]
    fn summary_display_nonempty() {
        let mut h = Histogram::new();
        h.record(1500);
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert!(!s.to_string().is_empty());
    }
}
