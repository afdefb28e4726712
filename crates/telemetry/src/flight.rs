//! The flight recorder: an always-on, bounded, lock-free ring of
//! structured engine events.
//!
//! Dagger's telemetry answers *how much* (metrics) and *which request*
//! (spans); what was missing is *what the NIC was doing* when a tail
//! formed. The recorder is that third leg (DESIGN.md §15): the engine,
//! balancer, reliable layer, fault injector, and SLO tracker each drop a
//! fixed-size [`FlightEvent`] into a shared ring when something
//! operationally interesting happens — a route remap, a retransmit burst,
//! a partition, a breach. The recorder owns the telemetry layer's one time
//! grid: 1 ms ticks (`TICK_NS`) counted from the hub's clock epoch. Events,
//! exemplars and SLO evaluation passes are all stamped with that tick, so
//! a recorder slice lines up column-for-column with an objective's window
//! and with exemplar ticks.
//!
//! ## Concurrency
//!
//! There is no single logical writer — the recorder is
//! written from many threads: every engine worker, the balancer thread,
//! whichever thread trips a fault or runs an SLO pass. Writers claim a
//! slot with one `fetch_add` on `head` and publish it seqlock-style: the
//! slot's `seq` is first zeroed (invalidating any stale content), the
//! payload is stored relaxed, then `seq` is set to `index + 1` with
//! release ordering. Readers accept a slot only when `seq` reads
//! `index + 1` both before *and* after the payload — a slot mid-rewrite
//! fails the check and is skipped. A writer stalled for a full ring lap
//! mid-record could in principle interleave with the slot's next owner;
//! with event-sparse traffic (events are orders of magnitude rarer than
//! ring capacity per second) the diagnostic value is unaffected, and the
//! seq zeroing closes the window in practice.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Width of one grid tick in nanoseconds: 1 ms.
pub(crate) const TICK_NS: u64 = 1_000_000;

/// Default ring capacity (slots). At a typical event rate of tens per
/// second this retains minutes of history.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// What happened. The discriminant is stored on the ring as a `u64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightEventKind {
    /// A connection's pinned route drained cleanly and switched queues
    /// (`a` = old queue, `b` = new queue).
    Remap,
    /// The drain deadline expired and the switch was forced (`a` = old
    /// queue, `b` = new queue).
    ForcedRemap,
    /// Engine queue `a` retransmitted `b` unacked frames since its
    /// previous burst event (at most one event per grid tick per queue, so
    /// a blackholed peer cannot lap the ring).
    RetransmitBurst,
    /// The engine buffer pool's free list ran dry after warm-up: `a`
    /// fresh heap allocations since the last collector pass.
    PoolExhausted,
    /// The fault injector cut connectivity (`a`/`b` = node pair, or
    /// `a` = node and `b` = [`FLIGHT_ALL_NODES`] for a node blackhole).
    Partition,
    /// The fault injector restored connectivity (same `a`/`b` coding).
    Heal,
    /// The balancer shed a hot queue from the RSS mask (`a` = queue).
    QueueShed,
    /// The balancer restored the full RSS mask (`a` = previously shed
    /// queue).
    QueueRestore,
    /// An SLO's burn rate crossed above 1.0 (`a` = burn rate, milli).
    SloBreach,
    /// An SLO's burn rate fell back below 1.0 (`a` = burn rate, milli).
    SloRecover,
    /// The offload stage invalidated cached responses for a key on a
    /// write RPC (`a` = key hash; `b` = new key-slot generation, or
    /// [`FLIGHT_ALL_NODES`] for a wildcard epoch flush when the key
    /// could not be extracted NIC-side).
    OffloadInvalidate,
    /// The offload stage dropped a cached response whose key-slot
    /// generation or epoch had moved since the fill (`a` = key hash,
    /// `b` = the entry's stale generation).
    OffloadStale,
}

/// `a`/`b` value meaning "every node" in [`FlightEventKind::Partition`] /
/// [`FlightEventKind::Heal`] events.
pub const FLIGHT_ALL_NODES: u64 = u64::MAX;

impl FlightEventKind {
    // New kinds append at the end: discriminants are positional and must
    // stay stable for already-recorded rings.
    const ALL: [FlightEventKind; 12] = [
        FlightEventKind::Remap,
        FlightEventKind::ForcedRemap,
        FlightEventKind::RetransmitBurst,
        FlightEventKind::PoolExhausted,
        FlightEventKind::Partition,
        FlightEventKind::Heal,
        FlightEventKind::QueueShed,
        FlightEventKind::QueueRestore,
        FlightEventKind::SloBreach,
        FlightEventKind::SloRecover,
        FlightEventKind::OffloadInvalidate,
        FlightEventKind::OffloadStale,
    ];

    /// Stable lower-snake name used by the JSON/text exporters.
    pub fn name(self) -> &'static str {
        match self {
            FlightEventKind::Remap => "remap",
            FlightEventKind::ForcedRemap => "forced_remap",
            FlightEventKind::RetransmitBurst => "retransmit_burst",
            FlightEventKind::PoolExhausted => "pool_exhausted",
            FlightEventKind::Partition => "partition",
            FlightEventKind::Heal => "heal",
            FlightEventKind::QueueShed => "queue_shed",
            FlightEventKind::QueueRestore => "queue_restore",
            FlightEventKind::SloBreach => "slo_breach",
            FlightEventKind::SloRecover => "slo_recover",
            FlightEventKind::OffloadInvalidate => "offload_invalidate",
            FlightEventKind::OffloadStale => "offload_stale",
        }
    }

    fn to_u64(self) -> u64 {
        Self::ALL.iter().position(|k| *k == self).unwrap() as u64
    }

    fn from_u64(v: u64) -> Option<FlightEventKind> {
        Self::ALL.get(v as usize).copied()
    }
}

/// One structured engine event, as read back from the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Grid tick at emission (the grid SLO passes and exemplars share).
    pub tick: u64,
    /// Event class.
    pub kind: FlightEventKind,
    /// Emitting node (raw `NodeAddr`), or 0 for node-less sources (SLO
    /// tracker, fabric-wide faults).
    pub node: u32,
    /// First kind-specific operand (see [`FlightEventKind`] docs).
    pub a: u64,
    /// Second kind-specific operand.
    pub b: u64,
}

/// One ring slot: a seq word plus four relaxed payload words.
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    tick: AtomicU64,
    meta: AtomicU64, // kind << 32 | node
    a: AtomicU64,
    b: AtomicU64,
}

/// The bounded multi-writer event ring. See the module docs for the
/// publication protocol.
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    /// Total events ever claimed; slot for event `n` is `n & mask`, and
    /// its published seq is `n + 1`.
    head: AtomicU64,
    /// Shared clock epoch (same one the tracer and span collector use).
    epoch: Instant,
}

impl FlightRecorder {
    /// Creates a recorder with `capacity` slots (rounded up to a power of
    /// two, min 2) stamping ticks of `TICK_NS` from `epoch`.
    pub(crate) fn with_epoch(capacity: usize, epoch: Instant) -> Arc<Self> {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap).map(|_| Slot::default()).collect();
        Arc::new(FlightRecorder {
            slots,
            head: AtomicU64::new(0),
            epoch,
        })
    }

    /// The current grid tick (cheap: one `Instant::now()`, no locks). The
    /// same value an SLO evaluation pass run right now is stamped with.
    pub fn tick_now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64 / TICK_NS
    }

    /// Records one event, stamped with the current grid tick.
    pub fn record(&self, kind: FlightEventKind, node: u32, a: u64, b: u64) {
        self.record_at(self.tick_now(), kind, node, a, b);
    }

    /// Records one event at an explicit tick (the SLO tracker uses the
    /// tick of the pass that crossed the threshold, not "now").
    pub fn record_at(&self, tick: u64, kind: FlightEventKind, node: u32, a: u64, b: u64) {
        let n = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(n as usize) & (self.slots.len() - 1)];
        // Invalidate, fill, publish (see module docs).
        slot.seq.store(0, Ordering::Release);
        slot.tick.store(tick, Ordering::Relaxed);
        slot.meta
            .store((kind.to_u64() << 32) | u64::from(node), Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(n + 1, Ordering::Release);
    }

    /// Total events ever recorded (including ones since overwritten).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events lost to ring wrap: recorded minus capacity, floored at 0.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Reads back every retained event, oldest first. Slots mid-write (or
    /// re-claimed since the scan started) fail seq validation and are
    /// skipped — the snapshot is best-effort by design.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let oldest = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - oldest) as usize);
        for n in oldest..head {
            let slot = &self.slots[(n as usize) & (self.slots.len() - 1)];
            if slot.seq.load(Ordering::Acquire) != n + 1 {
                continue;
            }
            let tick = slot.tick.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != n + 1 {
                continue;
            }
            let Some(kind) = FlightEventKind::from_u64(meta >> 32) else {
                continue;
            };
            out.push(FlightEvent {
                tick,
                kind,
                node: meta as u32,
                a,
                b,
            });
        }
        out
    }

    /// Grid ticks needed to cover `ns` nanoseconds (rounded up).
    pub(crate) fn ticks_spanning(ns: u64) -> u64 {
        ns.div_ceil(TICK_NS)
    }

    /// Retained events whose tick lies in `from..=to` — the "what was the
    /// engine doing around the breach" slice a diagnosis bundle freezes.
    pub fn slice(&self, from: u64, to: u64) -> Vec<FlightEvent> {
        self.snapshot()
            .into_iter()
            .filter(|e| (from..=to).contains(&e.tick))
            .collect()
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(cap: usize) -> Arc<FlightRecorder> {
        FlightRecorder::with_epoch(cap, Instant::now())
    }

    #[test]
    fn events_read_back_in_order() {
        let r = recorder(8);
        r.record_at(10, FlightEventKind::Remap, 2, 0, 1);
        r.record_at(11, FlightEventKind::RetransmitBurst, 2, 5, 0);
        r.record_at(12, FlightEventKind::SloBreach, 0, 1500, 0);
        let events = r.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, FlightEventKind::Remap);
        assert_eq!(events[0].node, 2);
        assert_eq!(events[0].b, 1);
        assert_eq!(events[1].a, 5);
        assert_eq!(events[2].tick, 12);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn ring_wrap_keeps_newest_and_counts_dropped() {
        let r = recorder(4);
        for i in 0..10u64 {
            r.record_at(i, FlightEventKind::Heal, 1, i, 0);
        }
        let events = r.snapshot();
        assert_eq!(events.len(), 4);
        let ticks: Vec<u64> = events.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![6, 7, 8, 9]);
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.dropped(), 6);
    }

    #[test]
    fn slice_filters_inclusive_range() {
        let r = recorder(32);
        for tick in [5u64, 90, 100, 105, 110, 400] {
            r.record_at(tick, FlightEventKind::Partition, 0, 1, 2);
        }
        let near = r.slice(90, 110);
        let ticks: Vec<u64> = near.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![90, 100, 105, 110]);
    }

    #[test]
    fn kind_roundtrip_is_total() {
        for kind in FlightEventKind::ALL {
            assert_eq!(FlightEventKind::from_u64(kind.to_u64()), Some(kind));
            assert!(!kind.name().is_empty());
        }
        assert_eq!(FlightEventKind::from_u64(999), None);
    }

    #[test]
    fn concurrent_writers_publish_valid_events() {
        let r = recorder(1024);
        let threads: Vec<_> = (0..4u32)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        r.record_at(i, FlightEventKind::Remap, t, i, u64::from(t));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let events = r.snapshot();
        assert_eq!(events.len(), 800);
        // Every event is internally consistent: b echoes the writer id.
        for e in events {
            assert_eq!(e.b, u64::from(e.node));
            assert_eq!(e.kind, FlightEventKind::Remap);
        }
        assert_eq!(r.recorded(), 800);
    }

    #[test]
    fn tick_now_advances_with_the_clock() {
        let r = recorder(8);
        let a = r.tick_now();
        std::thread::sleep(std::time::Duration::from_nanos(2 * TICK_NS));
        assert!(r.tick_now() >= a + 2);
        assert_eq!(FlightRecorder::ticks_spanning(TICK_NS + 1), 2);
    }
}
