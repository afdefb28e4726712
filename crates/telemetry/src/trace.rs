//! Cross-stack RPC stage tracing (paper §5.7, generalized).
//!
//! The paper's "lightweight request tracing system" records per-tier
//! latencies inside the Flight service. This module generalizes it to the
//! whole RPC pipeline: every layer that touches a request — client issue,
//! TX ring, NIC engine, fabric, RX ring, server dispatch — stamps a
//! wall-clock timestamp keyed by `(connection_id, rpc_id)`, and the
//! breakdown of consecutive stamps yields a per-stage latency profile
//! (client queue / TX ring / fabric / engine / RX ring / handler).
//!
//! Stamps are *first-wins*: retransmitted or duplicated frames never move a
//! timestamp once recorded, so retransmissions do not corrupt a trace.
//! The trace table is bounded (drop-oldest) so long soak runs cannot grow
//! memory without bound, and tracing is disabled by default — a single
//! relaxed atomic load on the hot path when off.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crate::Nanos;

/// Default bound on the number of in-flight + retained traces.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Pipeline events stamped onto a trace, in pipeline order.
///
/// The first six deltas between consecutive request-path events form the
/// six-stage breakdown named in [`STAGE_NAMES`]; the last two events close
/// the response path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RpcEvent {
    /// Client serialized the request and is about to enqueue frames.
    ClientSend = 0,
    /// First request frame pushed into the host→NIC TX ring.
    TxEnqueue = 1,
    /// NIC engine popped the first request frame from the TX ring.
    EnginePickup = 2,
    /// Remote NIC engine received the first request frame off the fabric.
    EngineRx = 3,
    /// Remote NIC delivered the first request frame into the RX ring.
    RxDeliver = 4,
    /// Server runtime reassembled the request and dispatched the handler.
    ServerDispatch = 5,
    /// Server handler returned and the response frames were written.
    HandlerDone = 6,
    /// Client observed the complete response (end of round trip).
    ResponseComplete = 7,
}

/// Number of distinct [`RpcEvent`]s.
pub const EVENT_COUNT: usize = 8;

impl RpcEvent {
    /// Stable snake_case name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            RpcEvent::ClientSend => "client_send",
            RpcEvent::TxEnqueue => "tx_enqueue",
            RpcEvent::EnginePickup => "engine_pickup",
            RpcEvent::EngineRx => "engine_rx",
            RpcEvent::RxDeliver => "rx_deliver",
            RpcEvent::ServerDispatch => "server_dispatch",
            RpcEvent::HandlerDone => "handler_done",
            RpcEvent::ResponseComplete => "response_complete",
        }
    }

    /// All events in pipeline order.
    pub fn all() -> [RpcEvent; EVENT_COUNT] {
        [
            RpcEvent::ClientSend,
            RpcEvent::TxEnqueue,
            RpcEvent::EnginePickup,
            RpcEvent::EngineRx,
            RpcEvent::RxDeliver,
            RpcEvent::ServerDispatch,
            RpcEvent::HandlerDone,
            RpcEvent::ResponseComplete,
        ]
    }
}

/// Names of the six request-path stages, in pipeline order. Stage `i` is
/// the latency between event `i` and event `i + 1`.
pub const STAGE_NAMES: [&str; 6] = [
    "client_queue", // ClientSend   -> TxEnqueue
    "tx_ring",      // TxEnqueue    -> EnginePickup
    "fabric",       // EnginePickup -> EngineRx
    "engine",       // EngineRx     -> RxDeliver
    "rx_ring",      // RxDeliver    -> ServerDispatch
    "handler",      // ServerDispatch -> HandlerDone
];

/// One RPC's recorded timestamps, relative to the tracer epoch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RpcTrace {
    /// Raw connection id the RPC ran on.
    pub connection_id: u32,
    /// Raw RPC id (unique per connection).
    pub rpc_id: u32,
    /// Timestamp (ns since tracer epoch) per event, indexed by
    /// `RpcEvent as usize`; `None` for events not (yet) observed.
    pub events: [Option<Nanos>; EVENT_COUNT],
}

impl RpcTrace {
    /// Timestamp of one event, if recorded.
    pub fn event(&self, ev: RpcEvent) -> Option<Nanos> {
        self.events[ev as usize]
    }

    /// Derives the per-stage latency breakdown from the recorded events.
    pub fn breakdown(&self) -> StageBreakdown {
        let mut stages = [None; STAGE_NAMES.len()];
        for (i, stage) in stages.iter_mut().enumerate() {
            if let (Some(a), Some(b)) = (self.events[i], self.events[i + 1]) {
                *stage = Some(b.saturating_sub(a));
            }
        }
        let response_ns = match (
            self.event(RpcEvent::HandlerDone),
            self.event(RpcEvent::ResponseComplete),
        ) {
            (Some(a), Some(b)) => Some(b.saturating_sub(a)),
            _ => None,
        };
        let total_ns = match (
            self.event(RpcEvent::ClientSend),
            self.event(RpcEvent::ResponseComplete),
        ) {
            (Some(a), Some(b)) => Some(b.saturating_sub(a)),
            _ => None,
        };
        StageBreakdown {
            stages,
            response_ns,
            total_ns,
        }
    }
}

/// Per-stage latency breakdown derived from an [`RpcTrace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Latency of each request-path stage (see [`STAGE_NAMES`]); `None`
    /// when either bounding event is missing.
    pub stages: [Option<Nanos>; STAGE_NAMES.len()],
    /// Handler-done → client-complete latency (response path, which is not
    /// split into stages).
    pub response_ns: Option<Nanos>,
    /// Full round-trip latency (client send → response complete).
    pub total_ns: Option<Nanos>,
}

impl StageBreakdown {
    /// `true` when all six request-path stages were observed.
    pub fn is_complete(&self) -> bool {
        self.stages.iter().all(Option::is_some)
    }

    /// Named stage latency, if observed.
    pub fn stage(&self, name: &str) -> Option<Nanos> {
        STAGE_NAMES
            .iter()
            .position(|s| *s == name)
            .and_then(|i| self.stages[i])
    }
}

#[derive(Default)]
struct TracerInner {
    traces: HashMap<(u32, u32), RpcTrace>,
    /// Insertion order of keys, for drop-oldest eviction.
    order: VecDeque<(u32, u32)>,
    capacity: usize,
}

/// The cross-stack RPC tracer: a bounded table of [`RpcTrace`]s sharing one
/// wall-clock epoch.
///
/// Disabled by default; call [`enable`](RpcTracer::enable) before issuing
/// the RPCs you want profiled. Share one tracer (via one `Telemetry`)
/// between the client and server NICs so both sides stamp against the same
/// epoch.
pub struct RpcTracer {
    epoch: Instant,
    enabled: AtomicBool,
    dropped: AtomicU64,
    inner: Mutex<TracerInner>,
}

impl Default for RpcTracer {
    fn default() -> Self {
        Self::new()
    }
}

impl RpcTracer {
    /// Creates a disabled tracer with [`DEFAULT_TRACE_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Creates a disabled tracer bounded to `capacity` traces (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_epoch(capacity, Instant::now())
    }

    /// Creates a disabled tracer bounded to `capacity` traces (min 1)
    /// whose timestamps are relative to `epoch` — the hub uses this to put
    /// stage stamps and spans on one shared timeline.
    pub fn with_capacity_and_epoch(capacity: usize, epoch: Instant) -> Self {
        RpcTracer {
            epoch,
            enabled: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
            inner: Mutex::new(TracerInner {
                traces: HashMap::new(),
                order: VecDeque::new(),
                capacity: capacity.max(1),
            }),
        }
    }

    /// Starts recording.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stops recording (existing traces are retained).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// `true` when recording. Hot paths check this before doing any work
    /// (e.g. decoding a header just to find the trace key).
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since this tracer's epoch.
    pub fn now_ns(&self) -> Nanos {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Stamps `ev` for `(connection_id, rpc_id)` at the current time.
    /// First-wins: a later stamp for an already-recorded event is ignored,
    /// so retransmits cannot move timestamps. No-op while disabled.
    pub fn record(&self, connection_id: u32, rpc_id: u32, ev: RpcEvent) {
        if !self.is_enabled() {
            return;
        }
        let now = self.now_ns();
        self.record_at(connection_id, rpc_id, ev, now);
    }

    /// Stamps `ev` with an explicit timestamp (testing / replay).
    pub fn record_at(&self, connection_id: u32, rpc_id: u32, ev: RpcEvent, at_ns: Nanos) {
        if !self.is_enabled() {
            return;
        }
        let key = (connection_id, rpc_id);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if !inner.traces.contains_key(&key) {
            if inner.traces.len() >= inner.capacity {
                if let Some(old) = inner.order.pop_front() {
                    inner.traces.remove(&old);
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            inner.order.push_back(key);
            inner.traces.insert(
                key,
                RpcTrace {
                    connection_id,
                    rpc_id,
                    ..RpcTrace::default()
                },
            );
        }
        let trace = inner.traces.get_mut(&key).expect("just inserted");
        let slot = &mut trace.events[ev as usize];
        if slot.is_none() {
            *slot = Some(at_ns);
        }
    }

    /// Returns a copy of the trace for `(connection_id, rpc_id)`, if any.
    pub fn get(&self, connection_id: u32, rpc_id: u32) -> Option<RpcTrace> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .traces
            .get(&(connection_id, rpc_id))
            .cloned()
    }

    /// All retained traces in insertion order.
    pub fn traces(&self) -> Vec<RpcTrace> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner
            .order
            .iter()
            .filter_map(|k| inner.traces.get(k).cloned())
            .collect()
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .traces
            .len()
    }

    /// `true` when no traces are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of traces evicted by the capacity bound since creation (or
    /// the last [`clear`](RpcTracer::clear)).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drops all retained traces and resets the dropped counter.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.traces.clear();
        inner.order.clear();
        self.dropped.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for RpcTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcTracer")
            .field("enabled", &self.is_enabled())
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = RpcTracer::new();
        t.record(1, 1, RpcEvent::ClientSend);
        assert!(t.is_empty());
    }

    #[test]
    fn first_wins_timestamps() {
        let t = RpcTracer::new();
        t.enable();
        t.record_at(1, 7, RpcEvent::ClientSend, 100);
        t.record_at(1, 7, RpcEvent::ClientSend, 999);
        assert_eq!(t.get(1, 7).unwrap().event(RpcEvent::ClientSend), Some(100));
    }

    #[test]
    fn breakdown_from_full_event_set() {
        let t = RpcTracer::new();
        t.enable();
        let stamps = [100u64, 150, 300, 1300, 1400, 1500, 2500, 2900];
        for (ev, at) in RpcEvent::all().into_iter().zip(stamps) {
            t.record_at(3, 1, ev, at);
        }
        let b = t.get(3, 1).unwrap().breakdown();
        assert!(b.is_complete());
        assert_eq!(b.stage("client_queue"), Some(50));
        assert_eq!(b.stage("tx_ring"), Some(150));
        assert_eq!(b.stage("fabric"), Some(1000));
        assert_eq!(b.stage("engine"), Some(100));
        assert_eq!(b.stage("rx_ring"), Some(100));
        assert_eq!(b.stage("handler"), Some(1000));
        assert_eq!(b.response_ns, Some(400));
        assert_eq!(b.total_ns, Some(2800));
    }

    #[test]
    fn partial_breakdown_is_incomplete() {
        let t = RpcTracer::new();
        t.enable();
        t.record_at(1, 1, RpcEvent::ClientSend, 10);
        t.record_at(1, 1, RpcEvent::TxEnqueue, 30);
        let b = t.get(1, 1).unwrap().breakdown();
        assert!(!b.is_complete());
        assert_eq!(b.stage("client_queue"), Some(20));
        assert_eq!(b.stage("fabric"), None);
        assert_eq!(b.total_ns, None);
    }

    #[test]
    fn capacity_bound_drops_oldest() {
        let t = RpcTracer::with_capacity(2);
        t.enable();
        t.record_at(1, 1, RpcEvent::ClientSend, 1);
        t.record_at(1, 2, RpcEvent::ClientSend, 2);
        t.record_at(1, 3, RpcEvent::ClientSend, 3);
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 1);
        assert!(t.get(1, 1).is_none(), "oldest should be evicted");
        assert!(t.get(1, 3).is_some());
    }

    #[test]
    fn clear_resets_everything() {
        let t = RpcTracer::with_capacity(1);
        t.enable();
        t.record_at(1, 1, RpcEvent::ClientSend, 1);
        t.record_at(1, 2, RpcEvent::ClientSend, 2);
        assert_eq!(t.dropped(), 1);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn traces_returned_in_insertion_order() {
        let t = RpcTracer::new();
        t.enable();
        t.record_at(1, 5, RpcEvent::ClientSend, 1);
        t.record_at(1, 2, RpcEvent::ClientSend, 2);
        let ids: Vec<u32> = t.traces().iter().map(|tr| tr.rpc_id).collect();
        assert_eq!(ids, vec![5, 2]);
    }

    #[test]
    fn now_ns_is_monotonic_nonpanicking() {
        let t = RpcTracer::new();
        let a = t.now_ns();
        let b = t.now_ns();
        assert!(b >= a);
    }
}
