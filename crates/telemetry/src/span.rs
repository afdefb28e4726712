//! Distributed-tracing span model and wire-propagated trace context.
//!
//! The paper's request tracing (§5.7) follows one request across the tiers
//! of the Flight service; this module supplies the pieces that make that a
//! *distributed* trace rather than a per-process log: a [`Span`] with
//! trace/span/parent identity, a 16-byte [`TraceContext`] that rides each
//! RPC's payload as a prelude (flagged by a spare header bit, so tracing
//! disabled adds zero bytes to the wire), a bounded [`SpanCollector`], and
//! a thread-local context stack ([`ContextScope`]) that carries the current
//! span across handler-issued nested calls.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crate::Nanos;

/// Default bound on the span collector's buffer.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// The compact trace context propagated on the wire with each traced RPC.
///
/// Encoded as 16 little-endian bytes (`trace_id` then `span_id`) prepended
/// to the request payload before fragmentation, so it survives
/// fragmentation/reassembly, lossy fabrics, and retransmissions like
/// any other payload byte. Presence is signalled out-of-band by the RPC
/// header's `traced` bit; an untraced RPC carries no context bytes at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Identity of the end-to-end trace this RPC belongs to.
    pub trace_id: u64,
    /// The caller's span — the parent of the span the callee will open.
    pub span_id: u64,
}

impl TraceContext {
    /// Encoded size of a trace context on the wire.
    pub const WIRE_BYTES: usize = 16;

    /// Encodes the context into its 16-byte wire form.
    pub fn encode(&self) -> [u8; Self::WIRE_BYTES] {
        let mut buf = [0u8; Self::WIRE_BYTES];
        buf[0..8].copy_from_slice(&self.trace_id.to_le_bytes());
        buf[8..16].copy_from_slice(&self.span_id.to_le_bytes());
        buf
    }

    /// Decodes a context from the first [`TraceContext::WIRE_BYTES`] bytes
    /// of `buf`; `None` when `buf` is too short.
    pub fn decode(buf: &[u8]) -> Option<TraceContext> {
        if buf.len() < Self::WIRE_BYTES {
            return None;
        }
        Some(TraceContext {
            trace_id: u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes")),
            span_id: u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")),
        })
    }
}

/// What role a span plays in an RPC exchange, OpenTelemetry-style.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Covers one outbound RPC from issue to response: wire + remote work.
    Client,
    /// Covers one inbound RPC from dispatch to response written.
    Server,
    /// Application-level work not tied to a single RPC (e.g. a §5.7 tier
    /// visit, or the root of a multi-call user journey).
    Internal,
}

impl SpanKind {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Client => "client",
            SpanKind::Server => "server",
            SpanKind::Internal => "internal",
        }
    }
}

/// One finished span of a distributed trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's identity (unique within the process; nonzero).
    pub span_id: u64,
    /// The span this one is a child of, if any.
    pub parent_span_id: Option<u64>,
    /// Operation name: `rpc.fn<N>` for client spans, the service descriptor
    /// name for server spans, the tier name for app-level spans.
    pub name: String,
    /// Role of this span in the exchange.
    pub kind: SpanKind,
    /// NIC/node address the span executed on, when known.
    pub node: Option<u16>,
    /// Start, in ns since the collector epoch.
    pub start_ns: Nanos,
    /// End, in ns since the collector epoch.
    pub end_ns: Nanos,
    /// `(connection_id, rpc_id)` linking this span to its [`crate::RpcTrace`]
    /// stage stamps, for client/server spans of a traced RPC.
    pub rpc: Option<(u32, u32)>,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> Nanos {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Process-wide id source: a counter whipped through splitmix64 so ids are
/// well-distributed without a clock or an RNG dependency.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Returns a fresh nonzero trace/span id.
pub fn next_id() -> u64 {
    loop {
        let id = splitmix64(NEXT_ID.fetch_add(1, Ordering::Relaxed));
        if id != 0 {
            return id;
        }
    }
}

/// A span that has been opened but not yet finished. Plain data: it holds
/// no collector reference, so it can ride inside an async `PendingCall`
/// and be finished from whichever thread observes completion.
#[derive(Clone, Debug)]
pub struct OpenSpan {
    /// The trace being extended.
    pub trace_id: u64,
    /// This span's identity.
    pub span_id: u64,
    /// Parent span, if this is a child.
    pub parent_span_id: Option<u64>,
    /// Operation name.
    pub name: String,
    /// Role of the span.
    pub kind: SpanKind,
    /// NIC/node address, when known.
    pub node: Option<u16>,
    /// Start, ns since the collector epoch.
    pub start_ns: Nanos,
    /// `(connection_id, rpc_id)` link to the stage tracer, if any.
    pub rpc: Option<(u32, u32)>,
}

impl OpenSpan {
    /// The context a callee (or nested call) should inherit from this span.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: self.span_id,
        }
    }

    /// Closes the span now and records it into `collector`.
    pub fn finish(self, collector: &SpanCollector) {
        let end_ns = collector.now_ns();
        self.finish_at(collector, end_ns);
    }

    /// Closes the span at an explicit timestamp (testing / replay).
    pub fn finish_at(self, collector: &SpanCollector, end_ns: Nanos) {
        collector.record(Span {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_span_id: self.parent_span_id,
            name: self.name,
            kind: self.kind,
            node: self.node,
            start_ns: self.start_ns,
            end_ns: end_ns.max(self.start_ns),
            rpc: self.rpc,
        });
    }
}

#[derive(Debug)]
struct SpanBuffer {
    spans: VecDeque<Span>,
    capacity: usize,
}

/// A bounded, process-wide collector of finished [`Span`]s sharing one
/// wall-clock epoch (the same epoch as the hub's [`crate::RpcTracer`], so
/// stage stamps land *inside* their owning span on a common timeline).
///
/// Disabled by default: while disabled, [`start`](SpanCollector::start)
/// returns `None` — callers skip context encoding entirely and the wire
/// carries zero tracing bytes. Past the capacity the oldest spans are
/// evicted and counted.
pub struct SpanCollector {
    epoch: Instant,
    enabled: AtomicBool,
    dropped: AtomicU64,
    inner: Mutex<SpanBuffer>,
}

impl Default for SpanCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanCollector {
    /// Creates a disabled collector with [`DEFAULT_SPAN_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity_and_epoch(DEFAULT_SPAN_CAPACITY, Instant::now())
    }

    /// Creates a disabled collector bounded to `capacity` spans (min 1)
    /// whose timestamps are relative to `epoch`.
    pub fn with_capacity_and_epoch(capacity: usize, epoch: Instant) -> Self {
        SpanCollector {
            epoch,
            enabled: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
            inner: Mutex::new(SpanBuffer {
                spans: VecDeque::new(),
                capacity: capacity.max(1),
            }),
        }
    }

    /// Starts recording spans.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stops recording (retained spans are kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// `true` when recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the collector epoch.
    pub fn now_ns(&self) -> Nanos {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent` (a fresh root trace when `None`).
    /// Returns `None` while disabled, so every caller naturally gates its
    /// context-encoding work on tracing being on — and `name` is only
    /// called once a span is really opened, so an untraced caller never
    /// formats or allocates one.
    pub fn start<N: Into<String>>(
        &self,
        name: impl FnOnce() -> N,
        kind: SpanKind,
        parent: Option<TraceContext>,
    ) -> Option<OpenSpan> {
        if !self.is_enabled() {
            return None;
        }
        let (trace_id, parent_span_id) = match parent {
            Some(ctx) => (ctx.trace_id, Some(ctx.span_id)),
            None => (next_id(), None),
        };
        Some(OpenSpan {
            trace_id,
            span_id: next_id(),
            parent_span_id,
            name: name().into(),
            kind,
            node: None,
            start_ns: self.now_ns(),
            rpc: None,
        })
    }

    /// Records a finished span, evicting the oldest when full. Unlike
    /// [`start`](SpanCollector::start) this is *not* gated on the enabled
    /// flag: a span legitimately opened just before `disable()` still
    /// lands.
    pub fn record(&self, span: Span) {
        let mut buf = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if buf.spans.len() >= buf.capacity {
            buf.spans.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.spans.push_back(span);
    }

    /// Snapshot of all retained spans, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .spans
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .spans
            .len()
    }

    /// `true` when no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted by the capacity bound since creation (or the last
    /// [`clear`](SpanCollector::clear)).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drops all retained spans and resets the dropped counter.
    pub fn clear(&self) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .spans
            .clear();
        self.dropped.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for SpanCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanCollector")
            .field("enabled", &self.is_enabled())
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

thread_local! {
    static CONTEXT_STACK: RefCell<Vec<TraceContext>> = const { RefCell::new(Vec::new()) };
}

/// The innermost trace context active on this thread, if any. Client-side
/// RPC issue reads this to parent its span; server dispatch pushes one
/// (via [`ContextScope`]) around the handler so nested calls connect.
pub fn current_context() -> Option<TraceContext> {
    CONTEXT_STACK.with(|s| s.borrow().last().copied())
}

/// RAII guard that makes `ctx` the thread's current trace context until
/// dropped. Scopes nest: handlers that issue nested RPCs which themselves
/// dispatch inline (loopback) pop back to the right parent.
#[derive(Debug)]
pub struct ContextScope {
    _priv: (),
}

impl ContextScope {
    /// Pushes `ctx` onto this thread's context stack.
    pub fn enter(ctx: TraceContext) -> ContextScope {
        CONTEXT_STACK.with(|s| s.borrow_mut().push(ctx));
        ContextScope { _priv: () }
    }
}

impl Drop for ContextScope {
    fn drop(&mut self) {
        CONTEXT_STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_wire_roundtrip() {
        let ctx = TraceContext {
            trace_id: 0x0123_4567_89ab_cdef,
            span_id: 0xfedc_ba98_7654_3210,
        };
        let wire = ctx.encode();
        assert_eq!(wire.len(), TraceContext::WIRE_BYTES);
        assert_eq!(TraceContext::decode(&wire), Some(ctx));
        assert_eq!(TraceContext::decode(&wire[..15]), None);
    }

    #[test]
    fn ids_are_nonzero_and_distinct() {
        let a = next_id();
        let b = next_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn disabled_collector_opens_nothing_and_never_builds_the_name() {
        let c = SpanCollector::new();
        let built = std::cell::Cell::new(0);
        let name = || {
            built.set(built.get() + 1);
            format!("x{}", built.get())
        };
        assert!(c.start(name, SpanKind::Client, None).is_none());
        assert_eq!(built.get(), 0, "a disabled collector built a span name");
        c.enable();
        let span = c.start(name, SpanKind::Client, None).unwrap();
        assert_eq!((built.get(), span.name.as_str()), (1, "x1"));
        c.disable();
        assert!(c.start(name, SpanKind::Client, None).is_none());
        assert_eq!(built.get(), 1);
    }

    #[test]
    fn root_and_child_linkage() {
        let c = SpanCollector::new();
        c.enable();
        let root = c.start(|| "root", SpanKind::Internal, None).unwrap();
        let child = c
            .start(|| "child", SpanKind::Client, Some(root.context()))
            .unwrap();
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_span_id, Some(root.span_id));
        child.finish(&c);
        root.finish(&c);
        assert_eq!(c.len(), 2);
        let spans = c.spans();
        assert_eq!(spans[0].name, "child");
        assert!(spans[1].end_ns >= spans[1].start_ns);
    }

    #[test]
    fn bounded_buffer_drops_oldest() {
        let c = SpanCollector::with_capacity_and_epoch(2, Instant::now());
        c.enable();
        for i in 0..4u64 {
            let mut s = c.start(|| "s", SpanKind::Internal, None).unwrap();
            s.span_id = 100 + i;
            s.finish_at(&c, 1);
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.dropped(), 2);
        let ids: Vec<u64> = c.spans().iter().map(|s| s.span_id).collect();
        assert_eq!(ids, vec![102, 103]);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.dropped(), 0);
    }

    #[test]
    fn context_scope_nests_and_pops() {
        assert_eq!(current_context(), None);
        let a = TraceContext {
            trace_id: 1,
            span_id: 10,
        };
        let b = TraceContext {
            trace_id: 1,
            span_id: 20,
        };
        let ga = ContextScope::enter(a);
        assert_eq!(current_context(), Some(a));
        {
            let _gb = ContextScope::enter(b);
            assert_eq!(current_context(), Some(b));
        }
        assert_eq!(current_context(), Some(a));
        drop(ga);
        assert_eq!(current_context(), None);
    }

    #[test]
    fn finish_clamps_backwards_clock() {
        let c = SpanCollector::new();
        c.enable();
        let mut s = c.start(|| "s", SpanKind::Internal, None).unwrap();
        s.start_ns = 100;
        s.finish_at(&c, 50);
        assert_eq!(c.spans()[0].end_ns, 100);
    }
}
