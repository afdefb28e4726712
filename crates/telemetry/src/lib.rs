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
//! * [`SloSpec`] — declared latency objectives. Each reads its own good
//!   and total sample counts from its histogram into a rolling window; a
//!   burn-rate breach freezes a [`DiagnosisBundle`] joining the tail's
//!   exemplar traces with the [`FlightRecorder`]'s engine events.
//! * [`TelemetrySnapshot`] — exporters: human-readable text (`Display`)
//!   and a stable versioned JSON document ([`TelemetrySnapshot::to_json`]).
//!
//! Nothing samples on its own: [`Telemetry::sample_now`] is the one pass
//! (collectors → SLO evaluation → bundle capture), driven by whoever wants
//! fresh numbers, on the one time grid the flight recorder owns
//! ([`Telemetry::tick_now`], 1 ms ticks).
//!
//! The crate is dependency-free (std only, no features) so it sits below
//! every other crate, even `dagger-types`, without cycles.

mod bundle;
mod export;
mod flight;
mod hist;
mod registry;
mod slo;
mod span;
mod trace;
mod tree;

pub use bundle::{BundleTrace, DiagnosisBundle, MAX_BUNDLES};
pub use export::TelemetrySnapshot;
pub use flight::{
    FlightEvent, FlightEventKind, FlightRecorder, DEFAULT_FLIGHT_CAPACITY, FLIGHT_ALL_NODES,
};
pub use hist::{Exemplar, Histogram, Summary};
pub use registry::{Counter, Gauge, HistogramHandle, MetricsRegistry, RegistrySnapshot};
pub use slo::{SloEvent, SloEventKind, SloReport, SloSnapshot, SloSpec};
pub use span::{
    current_context, next_id, ContextScope, OpenSpan, Span, SpanCollector, SpanKind, TraceContext,
    DEFAULT_SPAN_CAPACITY,
};
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
    slos: Mutex<slo::SloTracker>,
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
    /// stage tracer, the span collector and the flight recorder share one
    /// clock epoch, so stage stamps land inside their owning spans and
    /// grid ticks line up with both on a common timeline.
    pub fn new() -> Arc<Self> {
        let epoch = Instant::now();
        Arc::new(Telemetry {
            registry: MetricsRegistry::new(),
            tracer: RpcTracer::with_capacity_and_epoch(DEFAULT_TRACE_CAPACITY, epoch),
            spans: SpanCollector::with_capacity_and_epoch(DEFAULT_SPAN_CAPACITY, epoch),
            collectors: Mutex::new(BTreeMap::new()),
            slos: Mutex::new(slo::SloTracker::default()),
            flight: FlightRecorder::with_epoch(DEFAULT_FLIGHT_CAPACITY, epoch),
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
    /// (retransmit bursts, partitions, SLO crossings).
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// The current grid tick — cheap (no locks), for stamping exemplars so
    /// they align with SLO windows and flight events.
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

    /// Declares an SLO; evaluated on every [`sample_now`](Telemetry::sample_now)
    /// pass, exported as `slo.<name>.{burn_rate,budget_remaining}` gauges
    /// plus flight-recorder events on burn-threshold crossings.
    pub fn register_slo(&self, spec: SloSpec) {
        self.slos
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .register(spec);
    }

    /// The one pass: runs collectors, evaluates every declared SLO against
    /// what the registry now holds, and freezes a diagnosis bundle for each
    /// objective that crossed into breach. Idempotent within one grid tick,
    /// so concurrent drivers collapse onto one grid.
    /// Returns whether the SLOs were actually evaluated.
    pub fn sample_now(&self) -> bool {
        self.pass(false)
    }

    fn pass(&self, force: bool) -> bool {
        self.collect();
        let breaches = {
            let mut slos = self.slos.lock().unwrap_or_else(PoisonError::into_inner);
            // The tick is read under the mutex, so passes see it in order.
            slos.evaluate(self.flight.tick_now(), force, &self.registry, &self.flight)
        };
        // Outside the tracker's mutex: a capture carries its objective's
        // window counts, and the exemplar, span and flight reads take no
        // lock an evaluation pass holds.
        if let Some(breaches) = breaches.as_deref().filter(|b| !b.is_empty()) {
            let spans = self.spans.spans();
            let mut store = self.bundles.lock().unwrap_or_else(PoisonError::into_inner);
            for b in breaches {
                if store.bundles.len() >= MAX_BUNDLES {
                    store.bundles.remove(0);
                    store.dropped += 1;
                }
                store.bundles.push(DiagnosisBundle::capture(
                    b,
                    &self.registry,
                    &spans,
                    &self.flight,
                ));
            }
        }
        breaches.is_some()
    }

    /// Runs a forced pass (so whatever was recorded since the last one is
    /// in the SLO windows, exactly once), then snapshots the registry, the
    /// SLO state, all retained traces and spans, the histogram exemplars,
    /// the flight-recorder events, and any captured diagnosis bundles.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.pass(true);
        let slo = self
            .slos
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .snapshot();
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
    fn snapshot_forces_a_pass_that_neither_loses_nor_double_counts() {
        let t = Telemetry::new();
        t.register_slo(SloSpec::latency("rtt", "lat", 1_000, 0.5));
        let h = t.registry().histogram("lat");
        h.record(100);
        t.sample_now();
        // Recorded after the grid point's pass (same tick or not): the
        // forced pass of `snapshot()` folds it, and only it.
        h.record(200);
        let obj = &t.snapshot().slo.objectives[0];
        assert_eq!((obj.window_bad, obj.window_total), (0, 2));
        let obj = &t.snapshot().slo.objectives[0];
        assert_eq!((obj.window_bad, obj.window_total), (0, 2));
    }

    #[test]
    fn a_breaching_pass_freezes_one_bundle_with_the_window_counts() {
        let t = Telemetry::new();
        t.register_slo(SloSpec::latency("rtt", "lat", 1_000, 0.9));
        let h = t.registry().histogram("lat");
        h.record_n(100, 3);
        h.record_traced(5_000_000, 0xBB, 0x2, t.tick_now());
        assert!(t.bundles().is_empty());
        t.snapshot();
        // Still breached on later passes: no second bundle.
        let snap = t.snapshot();
        assert_eq!(snap.bundles.len(), 1);
        let b = &snap.bundles[0];
        assert_eq!((b.window_bad, b.window_total), (1, 4));
        assert_eq!(b.burn_milli, 2500);
        assert_eq!(b.exemplars.len(), 1);
        assert_eq!(b.exemplars[0].trace_id, 0xBB);
        assert!(b
            .events
            .iter()
            .any(|e| e.kind == FlightEventKind::SloBreach && e.tick == b.tick));
        assert_eq!(snap.registry.gauge("slo.rtt.burn_rate"), Some(2500));
    }

    #[test]
    fn debug_impl_lists_collectors() {
        let t = Telemetry::new();
        t.register_collector("nic.3", |_| {});
        let dbg = format!("{t:?}");
        assert!(dbg.contains("nic.3"));
    }
}
