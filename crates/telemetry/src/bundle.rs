//! SLO-breach diagnosis bundles: the frozen forensic record of one breach.
//!
//! When the SLO tracker observes a burn-rate crossing into breach, the
//! telemetry hub captures a [`DiagnosisBundle`] — a self-contained join of
//! the three observability planes at the breach tick (DESIGN.md §15):
//!
//! * **Window counts** — the breached objective's own bad and total
//!   events in its rolling window as of the breach pass, i.e. the two
//!   numbers the burn rate was computed from;
//! * **Exemplars → trace trees** — the tail-bucket exemplars of the
//!   breached objective's histogram, each resolved into its full
//!   trace tree with critical-path attribution;
//! * **Flight events** — the flight-recorder slice around the breach
//!   tick, reaching back to the start of the slowest tail call: what the
//!   NIC engines, reliable layer, and fault injector were doing when the
//!   tail formed.
//!
//! Bundles are bounded (oldest dropped) and exported both in the v5 JSON
//! snapshot (`bundles` section) and as human-readable text via
//! [`DiagnosisBundle::render`] (used by `examples/diagnose.rs`).

use crate::flight::{FlightEvent, FlightRecorder};
use crate::hist::Exemplar;
use crate::registry::MetricsRegistry;
use crate::slo::{BreachCapture, WINDOW_TICKS};
use crate::span::Span;
use crate::tree::{assemble, CriticalSegment};

/// Maximum bundles retained by the hub; older bundles are dropped (and
/// counted) once exceeded.
pub const MAX_BUNDLES: usize = 4;

/// One exemplar trace resolved into its tree, with the critical path
/// pre-computed at capture time so the bundle stays self-contained.
#[derive(Clone, Debug)]
pub struct BundleTrace {
    /// Trace id shared by every span below.
    pub trace_id: u64,
    /// End-to-end duration of the trace tree.
    pub duration_ns: u64,
    /// Every retained span of the trace, assembly order.
    pub spans: Vec<Span>,
    /// Critical path through the tree, chronological.
    pub critical_path: Vec<CriticalSegment>,
}

/// The frozen forensic record of one SLO breach.
#[derive(Clone, Debug)]
pub struct DiagnosisBundle {
    /// Breached objective's name.
    pub slo: String,
    /// Grid tick of the breach crossing.
    pub tick: u64,
    /// Burn rate at the crossing, milli-scaled.
    pub burn_milli: u64,
    /// The objective's latency threshold.
    pub threshold_ns: u64,
    /// Tail-bucket exemplars of the objective's histogram.
    pub exemplars: Vec<Exemplar>,
    /// Exemplar traces resolved into trees with critical paths.
    pub traces: Vec<BundleTrace>,
    /// Bad events in the objective's rolling window at the crossing.
    pub window_bad: u64,
    /// All events in the objective's rolling window at the crossing.
    pub window_total: u64,
    /// Flight-recorder slice: breach tick ± one window, extended back to
    /// the start of the earliest tail-exemplar call.
    pub events: Vec<FlightEvent>,
}

impl DiagnosisBundle {
    /// Freezes a bundle for one breach crossing. `spans` is the span
    /// collector's current retention. The flight slice reaches one SLO
    /// window either side of the breach tick, and starts early enough to
    /// cover the whole lifetime of every tail call the bundle blames: on a
    /// slow host the fault that stalled a call can lie more than one
    /// window before the pass that observed the breach.
    pub(crate) fn capture(
        breach: &BreachCapture,
        registry: &MetricsRegistry,
        spans: &[Span],
        flight: &FlightRecorder,
    ) -> DiagnosisBundle {
        let threshold_ns = breach.spec.threshold_ns;
        let exemplars = registry
            .histogram(&breach.spec.histogram)
            .with_histogram(|h| h.exemplars_above(threshold_ns));
        let mut trace_ids: Vec<u64> = exemplars.iter().map(|e| e.trace_id).collect();
        trace_ids.sort_unstable();
        trace_ids.dedup();
        let related: Vec<Span> = spans
            .iter()
            .filter(|s| trace_ids.binary_search(&s.trace_id).is_ok())
            .cloned()
            .collect();
        let traces = assemble(&related)
            .into_iter()
            .map(|tree| BundleTrace {
                trace_id: tree.trace_id,
                duration_ns: tree.duration_ns(),
                critical_path: tree.critical_path(),
                spans: tree.nodes.into_iter().map(|n| n.span).collect(),
            })
            .collect();
        let from = exemplars
            .iter()
            .map(|ex| {
                ex.tick
                    .saturating_sub(FlightRecorder::ticks_spanning(ex.value))
            })
            .fold(breach.tick.saturating_sub(WINDOW_TICKS), u64::min);
        let events = flight.slice(from, breach.tick.saturating_add(WINDOW_TICKS));
        DiagnosisBundle {
            slo: breach.spec.name.clone(),
            tick: breach.tick,
            burn_milli: breach.burn_milli,
            threshold_ns,
            exemplars,
            traces,
            window_bad: breach.window_bad,
            window_total: breach.window_total,
            events,
        }
    }

    /// Human-readable report: breach header, flight-event timeline,
    /// exemplars, and each exemplar trace's critical path.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== diagnosis bundle: SLO '{}' breached at tick {} (burn {:.2}x) ==\n",
            self.slo,
            self.tick,
            self.burn_milli as f64 / 1000.0
        ));
        out.push_str(&format!("objective: latency <= {}ns\n", self.threshold_ns));
        out.push_str(&format!(
            "flight events around the breach ({}):\n",
            self.events.len()
        ));
        // Runs of the same event kind from the same node (a retransmit
        // storm is one per engine tick) collapse into a single line.
        let mut i = 0;
        while i < self.events.len() {
            let e = &self.events[i];
            let mut j = i + 1;
            while j < self.events.len()
                && self.events[j].kind == e.kind
                && self.events[j].node == e.node
            {
                j += 1;
            }
            if j - i > 1 {
                out.push_str(&format!(
                    "  tick {:>8}..{:<8} {:<16} node={} x{}\n",
                    e.tick,
                    self.events[j - 1].tick,
                    e.kind.name(),
                    e.node,
                    j - i
                ));
            } else {
                out.push_str(&format!(
                    "  tick {:>8} {:<16} node={} a={} b={}\n",
                    e.tick,
                    e.kind.name(),
                    e.node,
                    e.a,
                    e.b
                ));
            }
            i = j;
        }
        out.push_str(&format!(
            "tail-bucket exemplars ({}):\n",
            self.exemplars.len()
        ));
        for ex in &self.exemplars {
            out.push_str(&format!(
                "  trace={:016x} span={:016x} value={}ns tick={}\n",
                ex.trace_id, ex.span_id, ex.value, ex.tick
            ));
        }
        for tr in &self.traces {
            out.push_str(&format!(
                "trace {:016x} ({} spans, {}ns end-to-end) critical path:\n",
                tr.trace_id,
                tr.spans.len(),
                tr.duration_ns
            ));
            for seg in &tr.critical_path {
                out.push_str(&format!(
                    "  {:>10}ns..{:<10}ns {:<8} {}{}\n",
                    seg.start_ns,
                    seg.end_ns,
                    seg.kind.name(),
                    seg.name,
                    seg.node.map(|n| format!(" @node{n}")).unwrap_or_default()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{FlightEventKind, TICK_NS};
    use crate::slo::SloSpec;
    use crate::span::SpanKind;
    use std::time::Instant;

    /// Breach tick: far enough from 0 for the slice's left edge to matter.
    const AT: u64 = 5 * WINDOW_TICKS;

    fn breach(spec: SloSpec) -> BreachCapture {
        BreachCapture {
            spec,
            tick: AT,
            burn_milli: 2500,
            window_bad: 1,
            window_total: 40,
        }
    }

    fn span(trace: u64, id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            trace_id: trace,
            span_id: id,
            parent_span_id: parent,
            name: format!("s{id}"),
            kind: SpanKind::Client,
            node: Some(1),
            start_ns: start,
            end_ns: end,
            rpc: None,
        }
    }

    #[test]
    fn capture_joins_exemplars_events_and_window_counts() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("rtt");
        h.record_traced(100, 0xAA, 0x1, AT - 10); // fast: below threshold
        h.record_traced(5_000_000, 0xBB, 0x2, AT - 1); // tail
        let flight = FlightRecorder::with_epoch(64, Instant::now());
        flight.record_at(AT - 5, FlightEventKind::Partition, 0, 1, 2);
        // One tick outside the window either side of the breach.
        flight.record_at(AT + WINDOW_TICKS + 1, FlightEventKind::Heal, 0, 1, 2);
        let spans = vec![
            span(0xBB, 0x2, None, 10, 900),
            span(0xBB, 0x3, Some(0x2), 20, 800),
            span(0xAA, 0x1, None, 0, 100), // unrelated trace: excluded
        ];
        let b = DiagnosisBundle::capture(
            &breach(SloSpec::latency("rtt_slo", "rtt", 10_000, 0.99)),
            &reg,
            &spans,
            &flight,
        );
        assert_eq!(b.slo, "rtt_slo");
        assert_eq!(b.threshold_ns, 10_000);
        assert_eq!((b.window_bad, b.window_total), (1, 40));
        assert_eq!(b.exemplars.len(), 1);
        assert_eq!(b.exemplars[0].trace_id, 0xBB);
        assert_eq!(b.traces.len(), 1);
        assert_eq!(b.traces[0].spans.len(), 2);
        assert!(!b.traces[0].critical_path.is_empty());
        assert_eq!(b.events.len(), 1);
        assert_eq!(b.events[0].kind, FlightEventKind::Partition);
        let text = b.render();
        assert!(text.contains("rtt_slo"));
        assert!(text.contains("partition"));
        assert!(text.contains(&format!("{:016x}", 0xBBu64)));
    }

    #[test]
    fn slice_reaches_back_to_the_start_of_the_tail_call() {
        // Slow host: the fault that stalled the call happened three windows
        // before the pass that observed the breach.
        let cut = AT - 3 * WINDOW_TICKS;
        let reg = MetricsRegistry::new();
        let flight = FlightRecorder::with_epoch(64, Instant::now());
        flight.record_at(cut, FlightEventKind::Partition, 0, 1, 2);
        // The blamed call completed two ticks before the breach after
        // running for three windows and a bit, so it began a few ticks
        // ahead of the partition: after this heal.
        flight.record_at(cut - 10, FlightEventKind::Heal, 0, 1, 2);
        let call_ns = (3 * WINDOW_TICKS + 1) * TICK_NS + TICK_NS / 2;
        reg.histogram("rtt")
            .record_traced(call_ns, 0xBB, 0x2, AT - 2);
        let b = DiagnosisBundle::capture(
            &breach(SloSpec::latency("rtt_slo", "rtt", 10_000, 0.99)),
            &reg,
            &[],
            &flight,
        );
        let kinds: Vec<_> = b.events.iter().map(|e| (e.tick, e.kind)).collect();
        assert_eq!(kinds, vec![(cut, FlightEventKind::Partition)]);
    }
}
