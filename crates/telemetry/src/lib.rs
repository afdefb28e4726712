//! # dagger-telemetry — unified observability for the Dagger stack
//!
//! The paper evaluates Dagger with two observability mechanisms: the NIC's
//! **Packet Monitor** (Fig. 6; drives the drop-rate criteria of §5.6) and a
//! **lightweight request tracing system** (§5.7) that locates bottleneck
//! tiers in the Flight service. This crate unifies and generalizes both
//! into one layer shared by every crate in the workspace:
//!
//! * [`MetricsRegistry`] — named counters, gauges, and [`Histogram`]s with
//!   lock-free record paths; NIC-side counter banks (Packet Monitor,
//!   Connection Manager, reliable transport) are folded in via registered
//!   *collectors*.
//! * [`RpcTracer`] — cross-stack per-RPC stage tracing keyed by
//!   `(connection_id, rpc_id)`: client send → TX ring → engine → fabric →
//!   RX ring → dispatch → handler → response, yielding a six-stage latency
//!   breakdown ([`STAGE_NAMES`]).
//! * [`TelemetrySnapshot`] — exporters: human-readable text (`Display`)
//!   and a stable versioned JSON document ([`TelemetrySnapshot::to_json`]).
//!
//! The crate is intentionally dependency-free (std only) so it sits below
//! every other crate, even `dagger-types`, without cycles.

mod bundle;
mod export;
mod flight;
mod hist;
mod registry;
mod slo;
mod span;
mod timeseries;
mod trace;
mod tree;

pub use bundle::{BundleTrace, DiagnosisBundle, MAX_BUNDLES};
pub use export::TelemetrySnapshot;
pub use flight::{
    FlightEvent, FlightEventKind, FlightRecorder, DEFAULT_FLIGHT_CAPACITY, FLIGHT_ALL_NODES,
};
pub use hist::{Exemplar, Histogram, Summary};
pub use registry::{Counter, Gauge, HistogramHandle, MetricsRegistry, RegistrySnapshot};
pub use slo::{SloEvent, SloEventKind, SloKind, SloReport, SloSnapshot, SloSpec};
pub use span::{
    current_context, next_id, ContextScope, OpenSpan, Span, SpanCollector, SpanKind, TraceContext,
    DEFAULT_SPAN_CAPACITY,
};
pub use timeseries::{CounterStat, GaugeStat, SeriesConfig, SeriesSnapshot, WindowSummary};
pub use trace::{
    RpcEvent, RpcTrace, RpcTracer, StageBreakdown, DEFAULT_TRACE_CAPACITY, EVENT_COUNT, STAGE_NAMES,
};
pub use tree::{
    assemble, chrome_trace_json, fig3_report, render_waterfall, CriticalSegment, Fig3Report,
    SpanNode, TierShare, TraceTree,
};

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Nanoseconds. Mirrors `dagger_sim::Nanos`, which is a re-export of this.
pub type Nanos = u64;

/// Collector callback: folds an external counter bank (e.g. a NIC's Packet
/// Monitor) into the registry, typically via gauges.
type Collector = Box<dyn Fn(&MetricsRegistry) + Send + Sync>;

/// The unified telemetry hub: one metrics registry plus one RPC tracer,
/// shared (via `Arc`) by every layer of a process — and, in tests, by both
/// endpoints' NICs so traces share a single clock epoch.
///
/// Components whose counters live outside the registry (the NIC engine
/// owns its Packet Monitor bank) register a *collector* closure; every
/// [`snapshot`](Telemetry::snapshot) first runs all collectors so the
/// registry reflects the components' current state.
pub struct Telemetry {
    registry: MetricsRegistry,
    tracer: RpcTracer,
    spans: SpanCollector,
    collectors: Mutex<BTreeMap<String, Collector>>,
    series: Mutex<timeseries::SeriesEngine>,
    flight: Arc<FlightRecorder>,
    bundles: Mutex<BundleStore>,
}

/// Bounded retention of captured diagnosis bundles.
#[derive(Default)]
struct BundleStore {
    bundles: Vec<DiagnosisBundle>,
    dropped: u64,
}

impl Telemetry {
    /// Creates a fresh telemetry hub (tracing disabled by default). The
    /// stage tracer and the span collector share one clock epoch, so stage
    /// stamps land inside their owning spans on a common timeline.
    pub fn new() -> Arc<Self> {
        Self::with_series_config(SeriesConfig::default())
    }

    /// Creates a telemetry hub with a custom series-engine grid (sampling
    /// resolution, ring depth, quantile window shape).
    pub fn with_series_config(cfg: SeriesConfig) -> Arc<Self> {
        let epoch = Instant::now();
        // The recorder clamps its resolution exactly like the series
        // engine, so flight-event ticks and sample ticks share one grid.
        let resolution = cfg.resolution.max(std::time::Duration::from_micros(10));
        Arc::new(Telemetry {
            registry: MetricsRegistry::new(),
            tracer: RpcTracer::with_capacity_and_epoch(DEFAULT_TRACE_CAPACITY, epoch),
            spans: SpanCollector::with_capacity_and_epoch(DEFAULT_SPAN_CAPACITY, epoch),
            collectors: Mutex::new(BTreeMap::new()),
            series: Mutex::new(timeseries::SeriesEngine::new(cfg, epoch)),
            flight: FlightRecorder::with_epoch(DEFAULT_FLIGHT_CAPACITY, epoch, resolution),
            bundles: Mutex::new(BundleStore::default()),
        })
    }

    /// The metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The RPC tracer.
    pub fn tracer(&self) -> &RpcTracer {
        &self.tracer
    }

    /// The distributed-tracing span collector.
    pub fn spans(&self) -> &SpanCollector {
        &self.spans
    }

    /// Enables both the stage tracer and the span collector — the switch a
    /// process flips to start distributed tracing.
    pub fn enable_tracing(&self) {
        self.tracer.enable();
        self.spans.enable();
    }

    /// Disables both the stage tracer and the span collector (retained
    /// data is kept).
    pub fn disable_tracing(&self) {
        self.tracer.disable();
        self.spans.disable();
    }

    /// Registers (or replaces) the collector named `name`. Collectors run
    /// on every [`collect`](Telemetry::collect)/[`snapshot`](Telemetry::snapshot);
    /// they should capture `Arc`s onto the component state they read, not
    /// the component itself, to avoid keeping whole subsystems alive.
    pub fn register_collector<F>(&self, name: &str, f: F)
    where
        F: Fn(&MetricsRegistry) + Send + Sync + 'static,
    {
        self.collectors
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), Box::new(f));
    }

    /// Removes the collector named `name` (e.g. when a NIC shuts down).
    pub fn remove_collector(&self, name: &str) {
        self.collectors
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(name);
    }

    /// Runs every registered collector, folding external counter banks
    /// into the registry.
    pub fn collect(&self) {
        let collectors = self
            .collectors
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for f in collectors.values() {
            f(&self.registry);
        }
    }

    /// The flight recorder: components drop structured engine events here
    /// (remaps, retransmit bursts, partitions, SLO crossings).
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// The current sampling-grid tick — cheap (no locks), for stamping
    /// exemplars so they align with series windows and flight events.
    pub fn tick_now(&self) -> u64 {
        self.flight.tick_now()
    }

    /// Diagnosis bundles captured so far (oldest first, bounded at
    /// [`MAX_BUNDLES`]).
    pub fn bundles(&self) -> Vec<DiagnosisBundle> {
        self.bundles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .bundles
            .clone()
    }

    /// Bundles dropped by the retention bound.
    pub fn dropped_bundles(&self) -> u64 {
        self.bundles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .dropped
    }

    /// Declares an SLO; evaluated on every sampling pass, exported as
    /// `slo.<name>.{burn_rate,budget_remaining}` gauges plus flight-recorder
    /// events on burn-threshold crossings.
    pub fn register_slo(&self, spec: SloSpec) {
        self.series
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .register_slo(spec);
    }

    /// Runs collectors, then samples every registered metric into the
    /// series engine. Idempotent within one resolution tick, so concurrent
    /// drivers collapse onto one grid.
    /// Returns whether a sample was actually taken.
    pub fn sample_now(&self) -> bool {
        self.collect();
        let (sampled, fresh) = {
            let mut engine = self.series.lock().unwrap_or_else(PoisonError::into_inner);
            let sampled = engine.sample(&self.registry, &self.flight, false);
            (sampled, self.capture_breaches(&mut engine))
        };
        self.store_bundles(fresh);
        sampled
    }

    /// Freezes a diagnosis bundle for every breach the engine observed
    /// since the last drain. Runs under the series mutex (it needs the
    /// engine's windowed snapshot as of the breach sample); the exemplar,
    /// span, and flight reads are lock-free.
    fn capture_breaches(&self, engine: &mut timeseries::SeriesEngine) -> Vec<DiagnosisBundle> {
        let breaches = engine.take_breaches();
        if breaches.is_empty() {
            return Vec::new();
        }
        let radius = engine.window_ticks_cfg();
        let (series, _) = engine.snapshot();
        let spans = self.spans.spans();
        breaches
            .iter()
            .map(|b| {
                DiagnosisBundle::capture(
                    b,
                    &self.registry,
                    &spans,
                    &self.flight,
                    series.clone(),
                    radius,
                )
            })
            .collect()
    }

    /// Appends captured bundles under the retention bound.
    fn store_bundles(&self, fresh: Vec<DiagnosisBundle>) {
        if fresh.is_empty() {
            return;
        }
        let mut store = self.bundles.lock().unwrap_or_else(PoisonError::into_inner);
        for b in fresh {
            if store.bundles.len() >= MAX_BUNDLES {
                store.bundles.remove(0);
                store.dropped += 1;
            }
            store.bundles.push(b);
        }
    }

    /// Collects, force-samples the series engine (so the tail of the
    /// current window is never lost), then snapshots the registry, the
    /// windowed series, the SLO state, all retained traces and spans, the
    /// histogram exemplars, the flight-recorder events, and any captured
    /// diagnosis bundles.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.collect();
        let (series, slo, fresh) = {
            let mut engine = self.series.lock().unwrap_or_else(PoisonError::into_inner);
            engine.sample(&self.registry, &self.flight, true);
            let fresh = self.capture_breaches(&mut engine);
            let (series, slo) = engine.snapshot();
            (series, slo, fresh)
        };
        self.store_bundles(fresh);
        let mut exemplars = Vec::new();
        self.registry.visit_histograms(|name, handle| {
            let ex = handle.with_histogram(|h| h.exemplars());
            if !ex.is_empty() {
                exemplars.push((name.to_string(), ex));
            }
        });
        let (bundles, dropped_bundles) = {
            let store = self.bundles.lock().unwrap_or_else(PoisonError::into_inner);
            (store.bundles.clone(), store.dropped)
        };
        TelemetrySnapshot {
            registry: self.registry.snapshot(),
            traces: self.tracer.traces(),
            dropped_traces: self.tracer.dropped(),
            spans: self.spans.spans(),
            dropped_spans: self.spans.dropped(),
            series,
            slo,
            exemplars,
            events: self.flight.snapshot(),
            dropped_events: self.flight.dropped(),
            bundles,
            dropped_bundles,
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("tracer", &self.tracer)
            .field(
                "collectors",
                &self
                    .collectors
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .keys()
                    .cloned()
                    .collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn collectors_run_on_snapshot() {
        let t = Telemetry::new();
        let bank = Arc::new(AtomicU64::new(0));
        let bank2 = Arc::clone(&bank);
        t.register_collector("nic.0", move |reg| {
            reg.set_gauge("nic.0.tx_frames", bank2.load(Ordering::Relaxed));
        });
        bank.store(42, Ordering::Relaxed);
        let snap = t.snapshot();
        assert_eq!(snap.registry.gauge("nic.0.tx_frames"), Some(42));
        bank.store(50, Ordering::Relaxed);
        assert_eq!(t.snapshot().registry.gauge("nic.0.tx_frames"), Some(50));
    }

    #[test]
    fn reregistering_collector_replaces() {
        let t = Telemetry::new();
        t.register_collector("c", |reg| reg.set_gauge("v", 1));
        t.register_collector("c", |reg| reg.set_gauge("v", 2));
        assert_eq!(t.snapshot().registry.gauge("v"), Some(2));
        t.remove_collector("c");
        t.registry().set_gauge("v", 9);
        assert_eq!(t.snapshot().registry.gauge("v"), Some(9));
    }

    #[test]
    fn snapshot_includes_traces_and_json_roundtrip_markers() {
        let t = Telemetry::new();
        t.tracer().enable();
        t.tracer().record(7, 1, RpcEvent::ClientSend);
        t.registry().counter("rpcs").inc();
        let snap = t.snapshot();
        assert_eq!(snap.traces.len(), 1);
        let json = snap.to_json();
        assert!(json.contains("\"rpcs\":1"));
        assert!(json.contains("\"client_send\""));
    }

    #[test]
    fn debug_impl_lists_collectors() {
        let t = Telemetry::new();
        t.register_collector("nic.3", |_| {});
        let dbg = format!("{t:?}");
        assert!(dbg.contains("nic.3"));
    }
}
