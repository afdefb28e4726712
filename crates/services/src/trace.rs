//! The lightweight request tracing system of §5.7.
//!
//! "In order to profile the application, we design a lightweight request
//! tracing system and integrate it with Dagger. Our analysis reveals that
//! the system is bottlenecked by the resource-demanding and long-running
//! Flight service." The tracer is a thin front over the application's
//! telemetry hub: every tier visit records its duration into the hub's
//! `app.tier.<tier>_ns` histogram (one short mutex hold per visit) and,
//! when distributed tracing is on, opens an `Internal` span nested under
//! whatever span dispatched the handler. [`Tracer::summary`] reads those
//! histograms back so exactly that kind of bottleneck analysis can be
//! reproduced on the functional application.

use std::sync::Arc;
use std::time::Instant;

use dagger_telemetry::{
    current_context, ContextScope, HistogramHandle, OpenSpan, SpanKind, Telemetry,
};

/// Per-tier aggregate view of a trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// `(tier, visit count, total ns, max ns)` sorted by total descending.
    pub tiers: Vec<(String, u64, u64, u64)>,
}

impl TraceSummary {
    /// The tier with the most total time — the bottleneck §5.7's analysis
    /// identifies.
    pub fn bottleneck(&self) -> Option<&str> {
        self.tiers.first().map(|(t, _, _, _)| t.as_str())
    }
}

/// The application's tier tracer: a front over one telemetry hub.
#[derive(Debug)]
pub struct Tracer {
    telemetry: Arc<Telemetry>,
}

impl Tracer {
    /// Creates a tracer recording into `telemetry`.
    pub fn new(telemetry: Arc<Telemetry>) -> Arc<Self> {
        Arc::new(Tracer { telemetry })
    }

    /// Opens a tier visit; dropping the guard records the measurement.
    /// While the hub's span collector is enabled the visit is also a
    /// distributed span, and the thread's trace context is scoped onto it
    /// so nested RPCs issued inside the visit become its children.
    pub fn start(&self, tier: &'static str) -> SpanGuard<'_> {
        let span = self
            .telemetry
            .spans()
            .start(|| tier, SpanKind::Internal, current_context())
            .map(|span| {
                let scope = ContextScope::enter(span.context());
                (span, scope)
            });
        SpanGuard {
            tracer: self,
            hist: self
                .telemetry
                .registry()
                .histogram(&format!("app.tier.{tier}_ns")),
            started: Instant::now(),
            span,
        }
    }

    /// Aggregates visits per tier from the hub's `app.tier.*` histograms,
    /// sorted by total time descending.
    pub fn summary(&self) -> TraceSummary {
        let mut tiers: Vec<(String, u64, u64, u64)> = self
            .telemetry
            .registry()
            .snapshot()
            .histograms
            .iter()
            .filter_map(|(name, s)| {
                let tier = name.strip_prefix("app.tier.")?.strip_suffix("_ns")?;
                let total = (s.mean_ns * s.count as f64).round() as u64;
                Some((tier.to_string(), s.count, total, s.max_ns))
            })
            .collect();
        tiers.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        TraceSummary { tiers }
    }
}

/// An open tier visit; records itself when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    hist: HistogramHandle,
    started: Instant,
    span: Option<(OpenSpan, ContextScope)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.hist.record(self.started.elapsed().as_nanos() as u64);
        if let Some((span, scope)) = self.span.take() {
            drop(scope); // pop the context before closing the span
            span.finish(self.tracer.telemetry.spans());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visits_record_on_drop() {
        let tracer = Tracer::new(Telemetry::new());
        for _ in 0..2 {
            let _guard = tracer.start("tier-a");
        }
        let summary = tracer.summary();
        assert_eq!(summary.tiers.len(), 1);
        let (tier, count, total, max) = &summary.tiers[0];
        assert_eq!((tier.as_str(), *count), ("tier-a", 2));
        assert!(total >= max);
    }

    #[test]
    fn summary_finds_bottleneck() {
        let telemetry = Telemetry::new();
        let tracer = Tracer::new(Arc::clone(&telemetry));
        let reg = telemetry.registry();
        reg.histogram("app.tier.fast_ns").record(10);
        reg.histogram("app.tier.slow_ns").record(1_000);
        reg.histogram("app.tier.slow_ns").record(2_000);
        reg.histogram("rpc.client.rtt_ns").record(9_000_000); // not a tier
        let summary = tracer.summary();
        assert_eq!(summary.bottleneck(), Some("slow"));
        assert_eq!(summary.tiers.len(), 2);
        let slow = &summary.tiers[0];
        assert_eq!((slow.1, slow.2, slow.3), (2, 3_000, 2_000));
    }

    #[test]
    fn concurrent_recording() {
        let tracer = Tracer::new(Telemetry::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let tracer = Arc::clone(&tracer);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let _g = tracer.start("tier");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(tracer.summary().tiers[0].1, 400);
    }

    #[test]
    fn empty_summary() {
        let tracer = Tracer::new(Telemetry::new());
        assert_eq!(tracer.summary().bottleneck(), None);
    }

    #[test]
    fn visits_emit_distributed_spans_only_while_tracing() {
        let telemetry = Telemetry::new();
        let tracer = Tracer::new(Arc::clone(&telemetry));
        // Collector disabled: the histogram still records, the
        // distributed collector stays empty.
        {
            let _g = tracer.start("tier-a");
        }
        assert_eq!(tracer.summary().tiers[0].1, 1);
        assert!(telemetry.spans().is_empty());

        telemetry.enable_tracing();
        let parent = telemetry
            .spans()
            .start(|| "root", SpanKind::Internal, None)
            .unwrap();
        {
            let _scope = ContextScope::enter(parent.context());
            let guard = tracer.start("tier-b");
            // The tier visit scopes the thread context onto itself so
            // nested RPC issues parent correctly.
            assert_ne!(current_context(), Some(parent.context()));
            drop(guard);
            assert_eq!(current_context(), Some(parent.context()));
        }
        let trace_id = parent.trace_id;
        let parent_id = parent.span_id;
        parent.finish(telemetry.spans());
        let spans = telemetry.spans().spans();
        assert_eq!(spans.len(), 2);
        let tier = spans.iter().find(|s| s.name == "tier-b").unwrap();
        assert_eq!(tier.trace_id, trace_id);
        assert_eq!(tier.parent_span_id, Some(parent_id));
        assert_eq!(tier.kind, SpanKind::Internal);
    }
}
