//! The lock-free metrics registry: named counters, gauges, and histograms.
//!
//! Registration (the first lookup of a name) takes a write lock; after that,
//! handles are plain `Arc`s and the record paths are a single atomic RMW
//! (counters, gauges) or a short mutex over a bucket increment (histograms).
//! Hot paths should register their handles once (e.g. at client/server
//! construction) and record through them, exactly like the NIC engine
//! updates the Packet Monitor's pre-allocated counter bank.
//!
//! Names are free-form dotted paths (`nic.2.tx_frames`,
//! `rpc.client.rtt_ns`); the exporters emit them sorted, so the text and
//! JSON snapshots are stable across runs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use crate::hist::{Histogram, Summary};
use crate::Nanos;

/// A monotonically increasing named counter. Cloning shares the underlying
/// atomic.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named gauge holding the last value set. Cloning shares the underlying
/// atomic.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge to an absolute value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Sets the gauge to `v` if it exceeds the current value (high
    /// watermark).
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A shared handle onto a named histogram.
#[derive(Clone, Debug, Default)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl HistogramHandle {
    /// Records one value.
    pub fn record(&self, value: Nanos) {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record(value);
    }

    /// Records one value with its trace identity, updating the bucket's
    /// exemplar (see [`crate::Exemplar`]).
    pub fn record_traced(&self, value: Nanos, trace_id: u64, span_id: u64, tick: u64) {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record_traced(value, trace_id, span_id, tick);
    }

    /// Records `n` occurrences of `value`.
    pub fn record_n(&self, value: Nanos, n: u64) {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record_n(value, n);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .count()
    }

    /// Plain-data percentile summary.
    pub fn summary(&self) -> Summary {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .summary()
    }

    /// Runs `f` against the inner histogram under its lock (SLO objectives
    /// read raw bucket counts this way, without cloning).
    pub(crate) fn with_histogram<R>(&self, f: impl FnOnce(&Histogram) -> R) -> R {
        f(&self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// The registry of named metrics.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, HistogramHandle>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self
            .counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
        {
            return c.clone();
        }
        self.counters
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns the gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self
            .gauges
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
        {
            return g.clone();
        }
        self.gauges
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns the histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        if let Some(h) = self
            .histograms
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
        {
            return h.clone();
        }
        self.histograms
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Convenience: sets the gauge `name` to `v` (collectors folding
    /// external counter banks into the registry use this).
    pub fn set_gauge(&self, name: &str, v: u64) {
        self.gauge(name).set(v);
    }

    /// Visits every registered histogram handle, in name order.
    pub(crate) fn visit_histograms(&self, mut f: impl FnMut(&str, &HistogramHandle)) {
        for (name, h) in self
            .histograms
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            f(name, h);
        }
    }

    /// A consistent-enough point-in-time view of every metric, sorted by
    /// name (each metric is read atomically; the set is not a global
    /// atomic snapshot, matching the Packet Monitor's semantics).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters = self
            .counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.summary()))
            .collect();
        RegistrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Plain-data snapshot of a [`MetricsRegistry`], sorted by metric name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, u64)>,
    /// `(name, summary)` for every histogram.
    pub histograms: Vec<(String, Summary)>,
}

impl RegistrySnapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&Summary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_once_and_accumulate() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x").get(), 3);
        assert_eq!(reg.snapshot().counter("x"), Some(3));
        assert_eq!(reg.snapshot().counter("missing"), None);
    }

    #[test]
    fn gauges_set_and_watermark() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth");
        g.set(5);
        g.set_max(3);
        assert_eq!(g.get(), 5);
        g.set_max(9);
        assert_eq!(reg.snapshot().gauge("depth"), Some(9));
    }

    #[test]
    fn histograms_record_and_summarize() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        for v in 1..=100 {
            h.record(v);
        }
        let snap = reg.snapshot();
        let s = snap.histogram("lat").unwrap();
        assert_eq!(s.count, 100);
        assert!(s.p99_ns >= s.p50_ns);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let reg = MetricsRegistry::new();
        reg.counter("b").inc();
        reg.counter("a").inc();
        reg.counter("c").inc();
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn concurrent_counting_is_lossless() {
        let reg = Arc::new(MetricsRegistry::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    let c = reg.counter("shared");
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter("shared").get(), 40_000);
    }
}
