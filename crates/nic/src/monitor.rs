//! The Packet Monitor: the NIC's statistics unit (Fig. 6).
//!
//! Lock-free counters updated by the NIC engine on the data path and
//! readable by the host at any time (the paper uses it for the request
//! tracing of §5.7 and for the drop-rate criteria of §5.6). Every datapath
//! fact is counted once, in the counting worker's own [`QueueStats`] bank;
//! the whole-NIC view is the field-wise sum over those banks, so it cannot
//! disagree with the per-queue breakdown. DESIGN.md §10 tabulates every
//! counter.

use std::sync::Arc;

use crate::bank::counter_bank;

counter_bank! {
    /// One engine worker's counter bank: the datapath counts are
    /// incremented only by whoever is stepping that worker (no cross-queue
    /// contention), the `wakes_*` pair by the worker's producers; exported
    /// as `nic.<addr>.q<i>.*` gauges and, summed over the workers, as the
    /// whole-NIC `nic.<addr>.*`.
    pub struct QueueStats =>
    /// A plain-data snapshot of one engine queue's counters (or, in
    /// [`MonitorSnapshot::totals`], of their sum over the NIC).
    QueueSnapshot {
        /// Frames shipped to the network.
        tx_frames,
        /// Frames received from the network.
        rx_frames,
        /// Datagrams shipped.
        tx_datagrams,
        /// Datagrams received.
        rx_datagrams,
        /// Frames dropped because the destination RX ring was full, or
        /// because this worker owns no flow that fits them (a response for
        /// another worker's flow, a request on a queue owning no active
        /// flow).
        rx_ring_drops,
        /// Frames dropped because the connection (or, on TX, its
        /// destination) was unknown.
        unknown_connection_drops,
        /// Network payloads dropped as undecodable off the wire
        /// (truncated, corrupted, or checksum-failed transport frames).
        wire_drops,
        /// Always 0: received frames go straight into their RX ring, so
        /// nothing is staged against the hardware request buffer's bound.
        /// Kept because the perf ledger reads it.
        reqbuf_backpressure,
        /// Always 0: the functional NIC has no polling modes (§4.4.1's
        /// cached polling is hardware timing). Kept because the perf
        /// ledger reads it.
        cached_polls,
        /// Always 0, like `cached_polls` (§4.4.1's direct LLC polling).
        /// Kept because the perf ledger reads it.
        direct_polls,
        /// Datagrams deferred (including re-deferred) by reliable-transport
        /// window backpressure.
        tx_window_deferrals,
        /// Engine steps that moved frames while driven by a host thread
        /// waiting on one of this queue's flows.
        host_steps,
        /// Engine steps that moved frames while driven by the queue's own
        /// (fallback) engine thread.
        thread_steps,
        /// Producer wakes that unparked the engine thread.
        wakes_sent,
        /// Producer wakes skipped because a host thread was polling the
        /// queue.
        wakes_skipped,
    }
}

counter_bank! {
    /// Per-flow counter bank (one per ring pair), exported as
    /// `nic.<addr>.flow.<i>.*`.
    pub struct FlowStats =>
    /// A plain-data snapshot of one flow's counters.
    FlowSnapshot {
        /// Frames the engine pulled from this flow's TX ring.
        tx_frames,
        /// Frames delivered into this flow's RX ring.
        rx_frames,
        /// Frames dropped because this flow's RX ring was full.
        rx_ring_drops,
    }
}

impl QueueSnapshot {
    /// Total frames dropped for any reason.
    pub fn total_drops(&self) -> u64 {
        self.rx_ring_drops
            + self.unknown_connection_drops
            + self.wire_drops
            + self.reqbuf_backpressure
    }
}

/// The NIC's statistics unit: one [`QueueStats`] bank per engine worker and
/// one [`FlowStats`] bank per ring pair, shared between the engine threads
/// and the host.
#[derive(Debug)]
pub struct PacketMonitor {
    flows: Vec<FlowStats>,
    queues: Vec<Arc<QueueStats>>,
}

/// A plain-data snapshot of the whole NIC: the per-queue banks and their
/// field-wise sum. Dereferences to [`MonitorSnapshot::totals`], so
/// `snapshot.tx_frames` reads the whole-NIC count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MonitorSnapshot {
    /// Whole-NIC counters: the sum of `queues`.
    pub totals: QueueSnapshot,
    /// Per-queue counters, indexed by engine queue.
    pub queues: Vec<QueueSnapshot>,
}

impl std::ops::Deref for MonitorSnapshot {
    type Target = QueueSnapshot;

    fn deref(&self) -> &QueueSnapshot {
        &self.totals
    }
}

impl PacketMonitor {
    /// Creates a zeroed monitor for `flows` ring pairs and `queues` engine
    /// workers.
    pub fn new(flows: usize, queues: usize) -> Self {
        // `resize_with`, not `map(..).collect()`: with a constant `flows`
        // the latter crashes rustc 1.95's LLVM (SIGSEGV in codegen) at
        // opt-level 2 under incremental compilation.
        let mut flow_banks = Vec::new();
        flow_banks.resize_with(flows, FlowStats::default);
        PacketMonitor {
            flows: flow_banks,
            queues: (0..queues).map(|_| Arc::default()).collect(),
        }
    }

    /// The per-worker banks, indexed by engine queue.
    pub fn queues(&self) -> &[Arc<QueueStats>] {
        &self.queues
    }

    /// The per-flow banks, indexed by flow id.
    pub fn flows(&self) -> &[FlowStats] {
        &self.flows
    }

    /// Reads one flow's counters, or `None` if `flow` is out of range.
    pub fn flow_snapshot(&self, flow: usize) -> Option<FlowSnapshot> {
        self.flows.get(flow).map(FlowStats::snapshot)
    }

    /// Reads every queue bank and sums them into the whole-NIC view.
    pub fn snapshot(&self) -> MonitorSnapshot {
        let queues: Vec<_> = self.queues.iter().map(|q| q.snapshot()).collect();
        MonitorSnapshot {
            totals: queues.iter().copied().sum(),
            queues,
        }
    }
}

impl MonitorSnapshot {
    /// Per-field saturating difference `self - earlier` of two snapshots
    /// of one monitor, whole-NIC and per queue.
    pub fn delta(&self, earlier: &MonitorSnapshot) -> MonitorSnapshot {
        let per_queue = self.queues.iter().zip(&earlier.queues);
        MonitorSnapshot {
            totals: self.totals.delta(&earlier.totals),
            queues: per_queue.map(|(q, e)| q.delta(e)).collect(),
        }
    }
}

impl std::fmt::Display for MonitorSnapshot {
    /// One-line human-readable dump: the whole-NIC counters, then each
    /// queue's in brackets.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.totals)?;
        for (i, q) in self.queues.iter().enumerate() {
            write!(f, " q{i}[{q}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_nic_snapshot_is_the_sum_of_the_queue_banks() {
        let m = PacketMonitor::new(0, 2);
        m.queues()[0].tx_frames.add(3);
        m.queues()[0].tx_window_deferrals.inc();
        m.queues()[1].tx_frames.add(4);
        m.queues()[1].rx_ring_drops.inc();
        m.queues()[1].wire_drops.inc();
        let s = m.snapshot();
        assert_eq!(s.queues.len(), 2);
        assert_eq!(s.queues[0].tx_frames, 3);
        assert_eq!(s.queues[1].tx_frames, 4);
        assert_eq!(s.tx_frames, 7);
        assert_eq!(s.tx_window_deferrals, 1);
        assert_eq!(s.total_drops(), 2);
        assert_eq!(s.totals, s.queues.iter().copied().sum());
    }

    #[test]
    fn delta_covers_totals_and_queues_and_saturates() {
        let m = PacketMonitor::new(0, 2);
        m.queues()[0].tx_frames.add(10);
        let earlier = m.snapshot();
        m.queues()[0].tx_frames.add(5);
        m.queues()[1].tx_window_deferrals.inc();
        let later = m.snapshot();
        let d = later.delta(&earlier);
        assert_eq!(d.tx_frames, 5);
        assert_eq!(d.queues[0].tx_frames, 5);
        assert_eq!(d.queues[1].tx_window_deferrals, 1);
        // Reversed order saturates to zero rather than wrapping.
        let rev = earlier.delta(&later);
        assert_eq!(rev.totals, QueueSnapshot::default());
    }

    #[test]
    fn display_is_one_line_with_a_section_per_queue() {
        let m = PacketMonitor::new(0, 2);
        m.queues()[0].tx_frames.add(7);
        m.queues()[1].unknown_connection_drops.inc();
        let line = m.snapshot().to_string();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("tx_frames=7 "), "{line}");
        assert!(line.contains(" q0[tx_frames=7 "), "{line}");
        assert!(line.contains("unknown_connection_drops=1"), "{line}");
        assert!(line.contains(" q1["), "{line}");
    }

    #[test]
    fn per_flow_banks_are_independent() {
        let m = PacketMonitor::new(4, 1);
        m.flows()[0].tx_frames.add(3);
        m.flows()[1].rx_frames.add(2);
        m.flows()[1].rx_ring_drops.inc();
        let f0 = m.flow_snapshot(0).unwrap();
        let f1 = m.flow_snapshot(1).unwrap();
        assert_eq!(f0.tx_frames, 3);
        assert_eq!(f0.rx_frames, 0);
        assert_eq!(f1.rx_frames, 2);
        assert_eq!(f1.rx_ring_drops, 1);
        assert_eq!(m.flows().len(), 4);
        assert_eq!(m.flow_snapshot(9), None);
    }
}
