//! Telemetry exporters: a human-readable text dump (`Display`) and a
//! stable, hand-rolled JSON snapshot.
//!
//! The JSON writer is dependency-free on purpose (the workspace does not
//! ship `serde_json`); the schema is versioned and documented in
//! `DESIGN.md` under "Observability":
//!
//! ```json
//! {
//!   "version": 5,
//!   "counters": {"name": 0},
//!   "gauges": {"name": 0},
//!   "histograms": {"name": {"count": 0, "mean_ns": 0.0, "p50_ns": 0,
//!                            "p90_ns": 0, "p99_ns": 0, "p999_ns": 0,
//!                            "max_ns": 0}},
//!   "traces": [{"connection_id": 0, "rpc_id": 0,
//!               "events": {"client_send": 0},
//!               "stages": {"client_queue": 0},
//!               "complete": false, "total_ns": 0}],
//!   "dropped_traces": 0,
//!   "spans": [{"trace_id": "0000000000000001",
//!              "span_id": "0000000000000002",
//!              "parent_span_id": "0000000000000001",
//!              "name": "rpc.fn1", "kind": "client", "node": 1,
//!              "start_ns": 0, "end_ns": 0, "duration_ns": 0,
//!              "connection_id": 0, "rpc_id": 0}],
//!   "dropped_spans": 0,
//!   "slo": {"objectives": [{"name": "rtt", "target_ppm": 999000,
//!                           "burn_rate_milli": 0,
//!                           "budget_remaining_ppm": 1000000,
//!                           "breached": false, "window_bad": 0,
//!                           "window_total": 0}],
//!           "events": [{"name": "rtt", "tick": 0, "kind": "breach",
//!                       "burn_milli": 0}],
//!           "dropped_events": 0},
//!   "exemplars": {"rpc.client.rtt_ns": [{"trace_id": "0000000000000001",
//!                                        "span_id": "0000000000000002",
//!                                        "value_ns": 0, "tick": 0}]},
//!   "events": {"entries": [{"tick": 0, "kind": "remap", "node": 0,
//!                           "a": 0, "b": 0}],
//!              "dropped": 0},
//!   "bundles": {"entries": [{"slo": "rtt", "tick": 0, "burn_milli": 0,
//!                            "threshold_ns": 0, "window_bad": 0,
//!                            "window_total": 0, "exemplars": [],
//!                            "traces": [{"trace_id": "0000000000000001",
//!                                        "duration_ns": 0, "spans": [],
//!                                        "critical_path": []}],
//!                            "events": []}],
//!               "dropped": 0}
//! }
//! ```
//!
//! This is the one current schema (`"version": 5`: version 4 less its
//! `series` section and the bundles' `series` member, plus each bundle's
//! `window_bad`/`window_total`); key spelling and order are pinned by
//! exact-string tests below and in `tests/telemetry.rs`. `exemplars`,
//! `events` and `bundles` are the forensics sections (DESIGN.md §15). Keys
//! inside `counters`/`gauges`/`histograms` are sorted by name; only
//! observed events/stages appear in a trace's maps;
//! `total_ns` is omitted until the round trip completes. Trace/span ids
//! are 16-digit hex strings (u64 values routinely exceed JSON's
//! exact-integer range); `parent_span_id`, `node`, and the
//! `connection_id`/`rpc_id` stage-trace link are omitted when absent.

use std::fmt;

use crate::bundle::DiagnosisBundle;
use crate::flight::FlightEvent;
use crate::hist::Exemplar;
use crate::registry::RegistrySnapshot;
use crate::slo::{SloEventKind, SloReport};
use crate::span::Span;
use crate::trace::{RpcEvent, RpcTrace, STAGE_NAMES};

/// A point-in-time snapshot of the whole telemetry layer: every registry
/// metric plus every retained RPC trace and distributed-tracing span.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// Snapshot of the metrics registry.
    pub registry: RegistrySnapshot,
    /// Retained RPC traces, in insertion order.
    pub traces: Vec<RpcTrace>,
    /// Traces evicted by the tracer's capacity bound.
    pub dropped_traces: u64,
    /// Retained distributed-tracing spans, in completion order.
    pub spans: Vec<Span>,
    /// Spans evicted by the collector's capacity bound.
    pub dropped_spans: u64,
    /// SLO objectives, budgets, and threshold-crossing events.
    pub slo: SloReport,
    /// Per-histogram exemplars (most recent traced sample per bucket),
    /// sorted by histogram name; histograms without exemplars are omitted.
    pub exemplars: Vec<(String, Vec<Exemplar>)>,
    /// Flight-recorder events, oldest first.
    pub events: Vec<FlightEvent>,
    /// Flight-recorder events overwritten by the ring before this snapshot.
    pub dropped_events: u64,
    /// Retained SLO-breach diagnosis bundles, oldest first.
    pub bundles: Vec<DiagnosisBundle>,
    /// Bundles evicted by the [`crate::bundle::MAX_BUNDLES`] bound.
    pub dropped_bundles: u64,
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` the way JSON expects (finite; NaN/inf degrade to 0).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl TelemetrySnapshot {
    /// Schema version emitted in the JSON output.
    pub const JSON_VERSION: u32 = 5;

    /// Serializes the snapshot to the stable JSON schema described in the
    /// module docs. Single line, no trailing newline.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!("{{\"version\":{}", Self::JSON_VERSION));

        out.push_str(",\"counters\":{");
        for (i, (name, v)) in self.registry.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(name), v));
        }
        out.push('}');

        out.push_str(",\"gauges\":{");
        for (i, (name, v)) in self.registry.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(name), v));
        }
        out.push('}');

        out.push_str(",\"histograms\":{");
        for (i, (name, s)) in self.registry.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\"max_ns\":{}}}",
                json_escape(name),
                s.count,
                json_f64(s.mean_ns),
                s.p50_ns,
                s.p90_ns,
                s.p99_ns,
                s.p999_ns,
                s.max_ns
            ));
        }
        out.push('}');

        out.push_str(",\"traces\":[");
        for (i, tr) in self.traces.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&trace_json(tr));
        }
        out.push(']');

        out.push_str(&format!(",\"dropped_traces\":{}", self.dropped_traces));

        out.push_str(",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&span_json(s));
        }
        out.push(']');

        out.push_str(&format!(",\"dropped_spans\":{}", self.dropped_spans));

        out.push_str(",\"slo\":{\"objectives\":[");
        for (i, o) in self.slo.objectives.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"target_ppm\":{},\"burn_rate_milli\":{},\"budget_remaining_ppm\":{},\"breached\":{},\"window_bad\":{},\"window_total\":{}}}",
                json_escape(&o.name),
                o.target_ppm,
                o.burn_rate_milli,
                o.budget_remaining_ppm,
                o.breached,
                o.window_bad,
                o.window_total
            ));
        }
        out.push_str("],\"events\":[");
        for (i, ev) in self.slo.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"tick\":{},\"kind\":\"{}\",\"burn_milli\":{}}}",
                json_escape(&ev.name),
                ev.tick,
                match ev.kind {
                    SloEventKind::Breach => "breach",
                    SloEventKind::Recover => "recover",
                },
                ev.burn_milli
            ));
        }
        out.push_str(&format!(
            "],\"dropped_events\":{}}}",
            self.slo.dropped_events
        ));

        // Forensics sections: exemplars, flight events, bundles.
        out.push_str(",\"exemplars\":{");
        for (i, (name, exs)) in self.exemplars.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":[", json_escape(name)));
            for (j, ex) in exs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&exemplar_json(ex));
            }
            out.push(']');
        }
        out.push('}');

        out.push_str(",\"events\":{\"entries\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&flight_event_json(ev));
        }
        out.push_str(&format!("],\"dropped\":{}}}", self.dropped_events));

        out.push_str(",\"bundles\":{\"entries\":[");
        for (i, b) in self.bundles.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&bundle_json(b));
        }
        out.push_str(&format!("],\"dropped\":{}}}", self.dropped_bundles));
        out.push('}');
        out
    }
}

fn exemplar_json(ex: &Exemplar) -> String {
    format!(
        "{{\"trace_id\":\"{:016x}\",\"span_id\":\"{:016x}\",\"value_ns\":{},\"tick\":{}}}",
        ex.trace_id, ex.span_id, ex.value, ex.tick
    )
}

fn flight_event_json(ev: &FlightEvent) -> String {
    format!(
        "{{\"tick\":{},\"kind\":\"{}\",\"node\":{},\"a\":{},\"b\":{}}}",
        ev.tick,
        ev.kind.name(),
        ev.node,
        ev.a,
        ev.b
    )
}

fn bundle_json(b: &DiagnosisBundle) -> String {
    let mut out = format!(
        "{{\"slo\":\"{}\",\"tick\":{},\"burn_milli\":{}",
        json_escape(&b.slo),
        b.tick,
        b.burn_milli
    );
    if let Some(t) = b.threshold_ns {
        out.push_str(&format!(",\"threshold_ns\":{t}"));
    }
    out.push_str(&format!(
        ",\"window_bad\":{},\"window_total\":{},\"exemplars\":[",
        b.window_bad, b.window_total
    ));
    for (i, ex) in b.exemplars.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&exemplar_json(ex));
    }
    out.push_str("],\"traces\":[");
    for (i, tr) in b.traces.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"trace_id\":\"{:016x}\",\"duration_ns\":{},\"spans\":[",
            tr.trace_id, tr.duration_ns
        ));
        for (j, s) in tr.spans.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&span_json(s));
        }
        out.push_str("],\"critical_path\":[");
        for (j, seg) in tr.critical_path.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"span_id\":\"{:016x}\",\"name\":\"{}\",\"kind\":\"{}\"",
                seg.span_id,
                json_escape(&seg.name),
                seg.kind.name()
            ));
            if let Some(node) = seg.node {
                out.push_str(&format!(",\"node\":{node}"));
            }
            out.push_str(&format!(
                ",\"start_ns\":{},\"end_ns\":{}}}",
                seg.start_ns, seg.end_ns
            ));
        }
        out.push_str("]}");
    }
    out.push_str("],\"events\":[");
    for (i, ev) in b.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&flight_event_json(ev));
    }
    out.push_str("]}");
    out
}

fn span_json(s: &Span) -> String {
    let mut out = format!(
        "{{\"trace_id\":\"{:016x}\",\"span_id\":\"{:016x}\"",
        s.trace_id, s.span_id
    );
    if let Some(parent) = s.parent_span_id {
        out.push_str(&format!(",\"parent_span_id\":\"{parent:016x}\""));
    }
    out.push_str(&format!(
        ",\"name\":\"{}\",\"kind\":\"{}\"",
        json_escape(&s.name),
        s.kind.name()
    ));
    if let Some(node) = s.node {
        out.push_str(&format!(",\"node\":{node}"));
    }
    out.push_str(&format!(
        ",\"start_ns\":{},\"end_ns\":{},\"duration_ns\":{}",
        s.start_ns,
        s.end_ns,
        s.duration_ns()
    ));
    if let Some((cid, rpc_id)) = s.rpc {
        out.push_str(&format!(",\"connection_id\":{cid},\"rpc_id\":{rpc_id}"));
    }
    out.push('}');
    out
}

fn trace_json(tr: &RpcTrace) -> String {
    let mut out = format!(
        "{{\"connection_id\":{},\"rpc_id\":{}",
        tr.connection_id, tr.rpc_id
    );

    out.push_str(",\"events\":{");
    let mut first = true;
    for ev in RpcEvent::all() {
        if let Some(ns) = tr.event(ev) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{}", ev.name(), ns));
        }
    }
    out.push('}');

    let b = tr.breakdown();
    out.push_str(",\"stages\":{");
    let mut first = true;
    for (name, stage) in STAGE_NAMES.iter().zip(b.stages.iter()) {
        if let Some(ns) = stage {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{name}\":{ns}"));
        }
    }
    if let Some(ns) = b.response_ns {
        if !first {
            out.push(',');
        }
        out.push_str(&format!("\"response\":{ns}"));
    }
    out.push('}');

    out.push_str(&format!(",\"complete\":{}", b.is_complete()));
    if let Some(total) = b.total_ns {
        out.push_str(&format!(",\"total_ns\":{total}"));
    }
    out.push('}');
    out
}

impl fmt::Display for TelemetrySnapshot {
    /// Human-readable multi-line dump: counters, gauges, histogram
    /// summaries, then per-trace stage breakdowns.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== telemetry snapshot ==")?;
        if !self.registry.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (name, v) in &self.registry.counters {
                writeln!(f, "  {name} = {v}")?;
            }
        }
        if !self.registry.gauges.is_empty() {
            writeln!(f, "gauges:")?;
            for (name, v) in &self.registry.gauges {
                writeln!(f, "  {name} = {v}")?;
            }
        }
        if !self.registry.histograms.is_empty() {
            writeln!(f, "histograms:")?;
            for (name, s) in &self.registry.histograms {
                writeln!(f, "  {name}: {s}")?;
            }
        }
        if !self.traces.is_empty() {
            writeln!(f, "traces ({} dropped):", self.dropped_traces)?;
            for tr in &self.traces {
                let b = tr.breakdown();
                write!(f, "  conn={} rpc={}:", tr.connection_id, tr.rpc_id)?;
                for (name, stage) in STAGE_NAMES.iter().zip(b.stages.iter()) {
                    match stage {
                        Some(ns) => write!(f, " {name}={ns}ns")?,
                        None => write!(f, " {name}=?")?,
                    }
                }
                if let Some(total) = b.total_ns {
                    write!(f, " total={total}ns")?;
                }
                writeln!(f)?;
            }
        }
        if !self.slo.objectives.is_empty() {
            writeln!(f, "slo:")?;
            for o in &self.slo.objectives {
                writeln!(
                    f,
                    "  {}: burn={:.2}x budget_remaining={:.1}% {}",
                    o.name,
                    o.burn_rate_milli as f64 / 1000.0,
                    o.budget_remaining_ppm as f64 / 10_000.0,
                    if o.breached { "BREACHED" } else { "ok" }
                )?;
            }
        }
        if !self.spans.is_empty() {
            writeln!(f, "spans ({} dropped):", self.dropped_spans)?;
            for s in &self.spans {
                write!(
                    f,
                    "  trace={:016x} span={:016x} {} [{}",
                    s.trace_id,
                    s.span_id,
                    s.name,
                    s.kind.name()
                )?;
                if let Some(node) = s.node {
                    write!(f, "@{node}")?;
                }
                writeln!(f, "] {}ns", s.duration_ns())?;
            }
        }
        if !self.events.is_empty() {
            writeln!(f, "flight events ({} dropped):", self.dropped_events)?;
            for e in &self.events {
                writeln!(
                    f,
                    "  tick {} {} node={} a={} b={}",
                    e.tick,
                    e.kind.name(),
                    e.node,
                    e.a,
                    e.b
                )?;
            }
        }
        if !self.bundles.is_empty() {
            writeln!(f, "diagnosis bundles ({} dropped):", self.dropped_bundles)?;
            for b in &self.bundles {
                writeln!(
                    f,
                    "  {} @tick {} burn={:.2}x ({} exemplars, {} events)",
                    b.slo,
                    b.tick,
                    b.burn_milli as f64 / 1000.0,
                    b.exemplars.len(),
                    b.events.len()
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;
    use crate::trace::RpcTracer;

    fn sample_snapshot() -> TelemetrySnapshot {
        let reg = MetricsRegistry::new();
        reg.counter("nic.0.tx_frames").add(7);
        reg.gauge("nic.0.flows").set(4);
        let h = reg.histogram("rpc.client.rtt_ns");
        for v in [1000u64, 2000, 3000] {
            h.record(v);
        }
        let tracer = RpcTracer::new();
        tracer.enable();
        let stamps = [100u64, 150, 300, 1300, 1400, 1500, 2500, 2900];
        for (ev, at) in RpcEvent::all().into_iter().zip(stamps) {
            tracer.record_at(65536, 1, ev, at);
        }
        TelemetrySnapshot {
            registry: reg.snapshot(),
            traces: tracer.traces(),
            dropped_traces: tracer.dropped(),
            spans: vec![Span {
                trace_id: 0xabc,
                span_id: 0xdef,
                parent_span_id: Some(0xabc),
                name: "rpc.fn1".to_string(),
                kind: crate::span::SpanKind::Client,
                node: Some(2),
                start_ns: 100,
                end_ns: 2900,
                rpc: Some((65536, 1)),
            }],
            dropped_spans: 3,
            slo: SloReport::default(),
            exemplars: Vec::new(),
            events: Vec::new(),
            dropped_events: 0,
            bundles: Vec::new(),
            dropped_bundles: 0,
        }
    }

    #[test]
    fn json_contains_all_sections() {
        let json = sample_snapshot().to_json();
        assert!(json.starts_with("{\"version\":5"));
        assert!(json.contains("\"nic.0.tx_frames\":7"));
        assert!(json.contains("\"nic.0.flows\":4"));
        assert!(json.contains("\"p99_ns\""));
        assert!(json.contains("\"connection_id\":65536"));
        assert!(json.contains("\"complete\":true"));
        assert!(json.contains("\"total_ns\":2800"));
        for stage in STAGE_NAMES {
            assert!(json.contains(&format!("\"{stage}\":")), "missing {stage}");
        }
        // v1 keys are stable; the v2 span keys are appended after them.
        let dt = json.find("\"dropped_traces\":0").expect("dropped_traces");
        let sp = json.find("\"spans\":[").expect("spans");
        assert!(dt < sp, "{json}");
        assert!(json.contains("\"trace_id\":\"0000000000000abc\""), "{json}");
        assert!(json.contains("\"parent_span_id\":\"0000000000000abc\""));
        assert!(json.contains("\"kind\":\"client\""), "{json}");
        assert!(json.contains("\"node\":2"), "{json}");
        assert!(json.contains("\"duration_ns\":2800"), "{json}");
        assert!(json.contains("\"connection_id\":65536,\"rpc_id\":1"));
        // The slo section follows dropped_spans; exemplars, flight events
        // and bundles follow slo. No series section since version 5.
        let ds = json.find("\"dropped_spans\":3").expect("dropped_spans");
        assert!(!json.contains("\"series\""), "{json}");
        let sl = json.find("\"slo\":{").expect("slo");
        let ex = json.find("\"exemplars\":{").expect("exemplars");
        let ev = json.find("\"events\":{\"entries\":[").expect("events");
        let bu = json.find("\"bundles\":{\"entries\":[").expect("bundles");
        assert!(ds < sl && sl < ex && ex < ev && ev < bu, "{json}");
    }

    #[test]
    fn json_escapes_metric_names() {
        let reg = MetricsRegistry::new();
        reg.counter("weird\"name\\x").inc();
        let snap = TelemetrySnapshot {
            registry: reg.snapshot(),
            ..Default::default()
        };
        assert!(snap.to_json().contains("weird\\\"name\\\\x"));
    }

    #[test]
    fn json_of_empty_snapshot_is_wellformed() {
        let json = TelemetrySnapshot::default().to_json();
        assert_eq!(
            json,
            "{\"version\":5,\"counters\":{},\"gauges\":{},\"histograms\":{},\
             \"traces\":[],\"dropped_traces\":0,\"spans\":[],\"dropped_spans\":0,\
             \"slo\":{\"objectives\":[],\"events\":[],\"dropped_events\":0},\
             \"exemplars\":{},\"events\":{\"entries\":[],\"dropped\":0},\
             \"bundles\":{\"entries\":[],\"dropped\":0}}"
        );
    }

    #[test]
    fn json_emits_slo_payloads() {
        let mut snap = sample_snapshot();
        snap.slo.objectives.push(crate::slo::SloSnapshot {
            name: "rtt".to_string(),
            target_ppm: 999_000,
            burn_rate_milli: 1500,
            budget_remaining_ppm: 250_000,
            breached: true,
            window_bad: 3,
            window_total: 2000,
        });
        snap.slo.events.push(crate::slo::SloEvent {
            name: "rtt".to_string(),
            tick: 9,
            kind: SloEventKind::Breach,
            burn_milli: 1500,
        });
        let json = snap.to_json();
        assert!(
            json.contains("\"name\":\"rtt\",\"target_ppm\":999000,\"burn_rate_milli\":1500"),
            "{json}"
        );
        assert!(
            json.contains("\"breached\":true,\"window_bad\":3,\"window_total\":2000}"),
            "{json}"
        );
        assert!(
            json.contains("\"kind\":\"breach\",\"burn_milli\":1500"),
            "{json}"
        );
    }

    #[test]
    fn json_emits_forensics_payloads() {
        use crate::bundle::BundleTrace;
        use crate::flight::FlightEventKind;
        use crate::tree::CriticalSegment;
        let ex = Exemplar {
            trace_id: 0xabc,
            span_id: 0xdef,
            value: 5_000_000,
            tick: 17,
        };
        let ev = FlightEvent {
            tick: 16,
            kind: FlightEventKind::Partition,
            node: 1,
            a: 1,
            b: 2,
        };
        let mut snap = sample_snapshot();
        snap.exemplars
            .push(("rpc.client.rtt_ns".to_string(), vec![ex]));
        snap.events.push(ev);
        snap.dropped_events = 2;
        snap.bundles.push(DiagnosisBundle {
            slo: "client_rtt".to_string(),
            tick: 17,
            burn_milli: 2500,
            threshold_ns: Some(1_000_000),
            window_bad: 1,
            window_total: 6,
            exemplars: vec![ex],
            traces: vec![BundleTrace {
                trace_id: 0xabc,
                duration_ns: 2800,
                spans: snap.spans.clone(),
                critical_path: vec![CriticalSegment {
                    span_id: 0xdef,
                    name: "rpc.fn1".to_string(),
                    kind: crate::span::SpanKind::Client,
                    node: Some(2),
                    start_ns: 100,
                    end_ns: 2900,
                }],
            }],
            events: vec![ev],
        });
        snap.dropped_bundles = 1;
        let json = snap.to_json();
        assert!(
            json.contains(
                "\"exemplars\":{\"rpc.client.rtt_ns\":[{\"trace_id\":\"0000000000000abc\",\
                 \"span_id\":\"0000000000000def\",\"value_ns\":5000000,\"tick\":17}]}"
            ),
            "{json}"
        );
        assert!(
            json.contains(
                "\"events\":{\"entries\":[{\"tick\":16,\"kind\":\"partition\",\
                 \"node\":1,\"a\":1,\"b\":2}],\"dropped\":2}"
            ),
            "{json}"
        );
        assert!(
            json.contains("\"bundles\":{\"entries\":[{\"slo\":\"client_rtt\",\"tick\":17,\"burn_milli\":2500,\"threshold_ns\":1000000,\"window_bad\":1,\"window_total\":6,\"exemplars\":[{"),
            "{json}"
        );
        assert!(
            json.contains("\"critical_path\":[{\"span_id\":\"0000000000000def\",\"name\":\"rpc.fn1\",\"kind\":\"client\",\"node\":2,\"start_ns\":100,\"end_ns\":2900}]"),
            "{json}"
        );
        assert!(
            json.ends_with(
                "\"end_ns\":2900}]}],\"events\":[{\"tick\":16,\"kind\":\"partition\",\
                 \"node\":1,\"a\":1,\"b\":2}]}],\"dropped\":1}}"
            ),
            "{json}"
        );
        let text = snap.to_string();
        assert!(text.contains("flight events (2 dropped):"), "{text}");
        assert!(text.contains("client_rtt @tick 17 burn=2.50x"), "{text}");
    }

    #[test]
    fn incomplete_trace_omits_total() {
        let tracer = RpcTracer::new();
        tracer.enable();
        tracer.record_at(1, 1, RpcEvent::ClientSend, 50);
        let snap = TelemetrySnapshot {
            traces: tracer.traces(),
            ..Default::default()
        };
        let json = snap.to_json();
        assert!(json.contains("\"complete\":false"));
        assert!(!json.contains("total_ns"));
    }

    #[test]
    fn display_mentions_metrics_and_stages() {
        let text = sample_snapshot().to_string();
        assert!(text.contains("nic.0.tx_frames = 7"));
        assert!(text.contains("rpc.client.rtt_ns"));
        assert!(text.contains("handler=1000ns"));
        assert!(text.contains("total=2800ns"));
    }

    #[test]
    fn json_f64_handles_nonfinite() {
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(f64::INFINITY), "0");
        assert_eq!(json_f64(1.5), "1.5");
    }
}
