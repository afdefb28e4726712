//! Harness-side spans: what the traced run records around its calls into
//! each layer, how self time is derived, and the Chrome trace-event file.

use std::fmt::Write as _;

/// A half-open time interval in nanoseconds since the pass epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Start.
    pub start: u64,
    /// End (`>= start`).
    pub end: u64,
}

impl Interval {
    /// Length in nanoseconds.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// True when the interval covers no time.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `other` lies entirely inside this interval.
    pub fn contains(&self, other: &Interval) -> bool {
        self.start <= other.start && other.end <= self.end
    }
}

/// A span's self time: its duration minus the part of it that its children
/// cover. Children may overlap one another (a server handler runs while the
/// client waits) and may stick out of the parent; overlap is counted once
/// and anything outside the parent is ignored.
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|c| Interval {
            start: c.start.clamp(parent.start, parent.end),
            end: c.end.clamp(parent.start, parent.end),
        })
        .filter(|c| !c.is_empty())
        .collect();
    clipped.sort_by_key(|c| c.start);
    let mut covered = 0;
    let mut reach = parent.start;
    for c in clipped {
        if c.end > reach {
            covered += c.end - c.start.max(reach);
            reach = c.end;
        }
    }
    parent.len() - covered
}

/// Index of the root (in `roots`, sorted by start and non-overlapping, as
/// the `W = 1` workloads produce them) that contains `span`.
pub fn parent_by_containment(roots: &[Interval], span: &Interval) -> Option<usize> {
    let idx = roots
        .partition_point(|r| r.start <= span.start)
        .checked_sub(1)?;
    roots[idx].contains(span).then_some(idx)
}

/// The client-side spans of one RPC. `root` runs from just before the
/// request is serialized to just after the reply is parsed; the four
/// children tile it except for the gap between `issue` and `wait` that a
/// window deeper than one opens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RpcSpans {
    /// The request's sequence number (echoed by echo/bulk replies).
    pub seq: u32,
    /// `rpc.client.root`
    pub root: Interval,
    /// End of `rpc.wire.encode` (it starts with the root) and start of
    /// `rpc.client.issue`.
    pub encoded: u64,
    /// End of `rpc.client.issue`.
    pub issued: u64,
    /// Start of `rpc.client.wait`.
    pub wait_start: u64,
    /// End of `rpc.client.wait` and start of `rpc.wire.decode` (which ends
    /// with the root).
    pub wait_end: u64,
}

/// Names of the spans the harness records, in [`RpcSpans::children`]
/// order; the handler span is recorded by the server-side wrapper.
pub const CHILD_SPANS: [&str; 4] = [
    "rpc.wire.encode",
    "rpc.client.issue",
    "rpc.client.wait",
    "rpc.wire.decode",
];
/// Name of the root span.
pub const ROOT_SPAN: &str = "rpc.client.root";
/// Name of the span around the service handler.
pub const HANDLER_SPAN: &str = "rpc.server.handler";

impl RpcSpans {
    /// The four client-side children, in [`CHILD_SPANS`] order.
    pub fn children(&self) -> [Interval; 4] {
        [
            Interval {
                start: self.root.start,
                end: self.encoded,
            },
            Interval {
                start: self.encoded,
                end: self.issued,
            },
            Interval {
                start: self.wait_start,
                end: self.wait_end,
            },
            Interval {
                start: self.wait_end,
                end: self.root.end,
            },
        ]
    }
}

/// One event of the trace file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name.
    pub name: &'static str,
    /// When.
    pub at: Interval,
    /// Thread lane: 1 = load thread, 2 = server dispatch thread.
    pub tid: u32,
    /// Identifier shared by the spans of one request.
    pub rpc: u32,
    /// True for the root span; children name the root (`rpc`) as parent.
    pub is_root: bool,
}

/// Renders events in Chrome trace-event format (`chrome://tracing`,
/// Perfetto). Timestamps are microseconds with nanosecond decimals. Every
/// event carries `args.rpc` (the request it belongs to) and children carry
/// `args.parent`, the root span's id.
pub fn chrome_trace(workload: &str, sample_every: u64, events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 128 + 256);
    let _ = write!(
        out,
        "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"workload\":\"{workload}\",\
         \"sample_every\":{sample_every}}},\"traceEvents\":["
    );
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{}.{:03},\"dur\":{}.{:03},\
             \"args\":{{\"rpc\":{}",
            e.name,
            e.tid,
            e.at.start / 1000,
            e.at.start % 1000,
            e.at.len() / 1000,
            e.at.len() % 1000,
            e.rpc,
        );
        if !e.is_root {
            let _ = write!(out, ",\"parent\":{}", e.rpc);
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn iv(start: u64, end: u64) -> Interval {
        Interval { start, end }
    }

    #[test]
    fn self_time_counts_overlap_once() {
        let parent = iv(100, 200);
        assert_eq!(self_time(parent, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time(parent, &[iv(110, 120), iv(150, 170)]), 70);
        // Overlapping: [110,150) and [140,180) cover 70, not 80.
        assert_eq!(self_time(parent, &[iv(140, 180), iv(110, 150)]), 30);
        // Nested child adds nothing.
        assert_eq!(self_time(parent, &[iv(110, 190), iv(120, 130)]), 20);
        // Parts outside the parent are ignored.
        assert_eq!(self_time(parent, &[iv(50, 110), iv(190, 400)]), 80);
        assert_eq!(self_time(parent, &[iv(0, 50), iv(300, 400)]), 100);
        // Full coverage.
        assert_eq!(self_time(parent, &[iv(90, 150), iv(150, 210)]), 0);
    }

    #[test]
    fn root_self_time_with_handler_inside_wait() {
        let s = RpcSpans {
            seq: 1,
            root: iv(1000, 11_000),
            encoded: 1100,
            issued: 1600,
            wait_start: 1700,
            wait_end: 10_800,
        };
        let mut kids = s.children().to_vec();
        kids.push(iv(5000, 5400)); // handler, overlapping the wait span
                                   // Only the 100 ns gap between issue and wait is the root's own.
        assert_eq!(self_time(s.root, &kids), 100);
    }

    #[test]
    fn containment_picks_the_enclosing_root() {
        let roots = [iv(0, 100), iv(100, 250), iv(300, 400)];
        assert_eq!(parent_by_containment(&roots, &iv(10, 20)), Some(0));
        assert_eq!(parent_by_containment(&roots, &iv(120, 250)), Some(1));
        assert_eq!(parent_by_containment(&roots, &iv(260, 280)), None);
        assert_eq!(parent_by_containment(&roots, &iv(390, 410)), None);
        assert_eq!(parent_by_containment(&[], &iv(1, 2)), None);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_parent_links() {
        let events = [
            TraceEvent {
                name: ROOT_SPAN,
                at: iv(1_234_567, 1_244_567),
                tid: 1,
                rpc: 9,
                is_root: true,
            },
            TraceEvent {
                name: HANDLER_SPAN,
                at: iv(1_240_000, 1_240_250),
                tid: 2,
                rpc: 9,
                is_root: false,
            },
        ];
        let doc = json::parse(&chrome_trace("echo_sync", 40, &events)).unwrap();
        let evs = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].get("ts").unwrap().as_f64(), Some(1234.567));
        assert_eq!(evs[0].get("dur").unwrap().as_f64(), Some(10.0));
        assert!(evs[0].at(&["args", "parent"]).is_none());
        assert_eq!(evs[1].at(&["args", "parent"]).unwrap().as_f64(), Some(9.0));
        assert_eq!(evs[1].get("dur").unwrap().as_f64(), Some(0.25));
    }
}
