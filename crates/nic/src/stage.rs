//! The RX stage: everything between steering a frame to a flow and writing
//! it into that flow's RX ring (Fig. 9) — one record per flow holding its
//! arrival order, its staged lines and its batching clock.
//!
//! The hardware keeps staged frames in one request buffer and moves only
//! `slot_id`s through the per-flow FIFOs, an FPGA area trick against wide
//! muxes. In software a frame is one 64-byte value, so each flow queues its
//! lines by value — the queue grows on use and keeps its capacity; nothing
//! is built up front — and one occupancy count enforces the request
//! buffer's bound. Out-of-order holds are bounded in time by the stall
//! valve, not in size, and are not charged to that bound (DESIGN.md §13).

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use dagger_types::CacheLine;

use crate::monitor::QueueStats;

/// Scheduler partial-batch timeout in engine ticks; small enough that
/// latency in functional mode is not batch-bound.
pub(crate) const SCHED_TIMEOUT_TICKS: u64 = 8;

/// Ticks an out-of-order hold may wait for its gap to fill before the
/// owner presumes the missing arrival lost and releases past it.
pub(crate) const HOLD_STALL_TICKS: u64 = 2048;

/// One flow's receive state.
#[derive(Debug, Default)]
struct FlowStage {
    /// Next arrival stamp to release.
    next: u64,
    /// Out-of-order arrivals parked until their gap fills, by stamp. Empty
    /// in steady state: entries appear only while a remap (or a forced
    /// switch under loss) has the flow's frames on two receive paths.
    held: BTreeMap<u64, CacheLine>,
    /// Tick the current oldest hold was parked, or the flow last released
    /// a held frame (drives the stall valve).
    hold_since: u64,
    /// Released lines awaiting delivery, in order.
    staged: VecDeque<CacheLine>,
    /// Tick the oldest line of `staged` was staged (or the flow last
    /// partially drained); meaningful only while `staged` is non-empty.
    oldest: u64,
}

/// The per-flow staging, ordering and batching state of one engine worker.
#[derive(Debug)]
pub(crate) struct RxStage {
    /// Indexed by global flow id; only the worker's owned flows are used.
    flows: Vec<FlowStage>,
    /// Lines staged across all flows.
    staged: usize,
    /// The staging bound (`NicShared::reqbuf_slots`).
    bound: usize,
    /// Frames held across all flows.
    held: usize,
    /// Where the next round-robin pick starts.
    cursor: usize,
    /// The worker's counter bank.
    stats: Arc<QueueStats>,
}

impl RxStage {
    /// An empty stage for `num_flows` flows staging at most `bound` lines.
    pub(crate) fn new(num_flows: usize, bound: usize, stats: Arc<QueueStats>) -> Self {
        let mut flows = Vec::new();
        flows.resize_with(num_flows, FlowStage::default);
        RxStage {
            flows,
            staged: 0,
            bound,
            held: 0,
            cursor: 0,
            stats,
        }
    }

    /// `true` when nothing is staged or held, so no delivery and no stall
    /// valve is pending.
    pub(crate) fn is_idle(&self) -> bool {
        self.staged == 0 && self.held == 0
    }

    /// Accepts one steered frame for `flow` carrying arrival stamp `seq`.
    ///
    /// In steady state `seq` is always the flow's next stamp (one receive
    /// path, FIFO handoff rings) and this is a straight stage. During a remap
    /// the flow's frames can reach the owner over two paths at once, so a
    /// later stamp is held until its gap fills. A stamp *behind* the next one
    /// is a frame the stall valve gave up on that was late rather than lost —
    /// e.g. a handoff parked behind a full xfer ring for longer than
    /// [`HOLD_STALL_TICKS`]: it is staged behind its successors and counted
    /// in `reorder_flushes` with the valve release that overtook it.
    pub(crate) fn accept(&mut self, flow: usize, seq: u64, line: CacheLine, tick: u64) {
        let f = &mut self.flows[flow];
        if seq > f.next {
            if f.held.is_empty() {
                f.hold_since = tick;
            }
            f.held.insert(seq, line);
            self.held += 1;
            self.stats.reorder_holds.inc();
            return;
        }
        let in_order = seq == f.next;
        if in_order {
            f.next = seq + 1;
        } else {
            self.stats.reorder_flushes.inc();
        }
        self.stage(flow, line, tick);
        if in_order {
            self.release(flow, tick, false);
        }
    }

    /// The stall valve: every flow whose oldest hold has waited
    /// [`HOLD_STALL_TICKS`] presumes its missing predecessors lost (e.g.
    /// dropped on the old path of a forced remap switch) and releases past
    /// them — one `reorder_flushes` count — so a lost frame costs latency,
    /// never liveness.
    pub(crate) fn release_overdue(&mut self, tick: u64) -> bool {
        if self.held == 0 {
            return false;
        }
        let mut progress = false;
        for flow in 0..self.flows.len() {
            let f = &mut self.flows[flow];
            let Some(&first) = f.held.keys().next() else {
                continue;
            };
            if tick.wrapping_sub(f.hold_since) < HOLD_STALL_TICKS {
                continue;
            }
            f.next = first;
            self.stats.reorder_flushes.inc();
            self.release(flow, tick, false);
            progress = true;
        }
        progress
    }

    /// Shutdown: releases every held frame in stamp order regardless of
    /// gaps — missing predecessors are not coming.
    pub(crate) fn release_all(&mut self, tick: u64) {
        for flow in 0..self.flows.len() {
            self.release(flow, tick, true);
        }
    }

    /// The one hold-release loop: stages `flow`'s held frames in stamp order
    /// while they are consecutive — or, with `past_gaps` (shutdown), all of
    /// them, each counted in `reorder_flushes`.
    fn release(&mut self, flow: usize, tick: u64, past_gaps: bool) {
        loop {
            let f = &mut self.flows[flow];
            let Some(entry) = f.held.first_entry() else {
                return;
            };
            let seq = *entry.key();
            if seq != f.next && !past_gaps {
                return;
            }
            let line = entry.remove();
            f.next = seq + 1;
            f.hold_since = tick;
            self.held -= 1;
            if past_gaps {
                self.stats.reorder_flushes.inc();
            }
            self.stage(flow, line, tick);
        }
    }

    /// Stages one released line, or refuses it at the bound (the hardware
    /// asserts backpressure on the input controller there).
    fn stage(&mut self, flow: usize, line: CacheLine, tick: u64) {
        if self.staged == self.bound {
            self.stats.reqbuf_backpressure.inc();
            return;
        }
        let f = &mut self.flows[flow];
        if f.staged.is_empty() {
            f.oldest = tick;
        }
        f.staged.push_back(line);
        self.staged += 1;
    }

    /// Delivers formed batches in scheduler order: while some flow holds at
    /// least `ready` lines or has timed out, pops up to `batch` of its lines
    /// into `deliver(flow, line)`, oldest first. Returns whether anything
    /// shipped.
    pub(crate) fn drain_ready(
        &mut self,
        ready: usize,
        batch: usize,
        tick: u64,
        mut deliver: impl FnMut(usize, CacheLine),
    ) -> bool {
        let mut progress = false;
        while let Some(flow) = self.pick(ready, tick) {
            let f = &mut self.flows[flow];
            let n = f.staged.len().min(batch.max(1));
            for line in f.staged.drain(..n) {
                deliver(flow, line);
            }
            // A partial drain re-stamps: what stays waits a fresh timeout.
            f.oldest = tick;
            self.staged -= n;
            progress = true;
        }
        progress
    }

    /// Scans flows round-robin from the last pick for one holding at least
    /// `ready` lines or whose oldest line has waited the timeout.
    fn pick(&mut self, ready: usize, tick: u64) -> Option<usize> {
        if self.staged == 0 {
            return None;
        }
        let n = self.flows.len();
        for i in 0..n {
            let flow = (self.cursor + i) % n;
            let f = &self.flows[flow];
            if f.staged.is_empty() {
                continue;
            }
            if f.staged.len() >= ready.max(1)
                || tick.saturating_sub(f.oldest) >= SCHED_TIMEOUT_TICKS
            {
                self.cursor = (flow + 1) % n;
                return Some(flow);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(b: u8) -> CacheLine {
        let mut l = CacheLine::zeroed();
        l.payload_mut()[0] = b;
        l
    }

    fn stage(flows: usize, bound: usize) -> RxStage {
        RxStage::new(flows, bound, Arc::new(QueueStats::default()))
    }

    /// Stages `bytes` on `flow` in order (stamps continue from the flow's
    /// next one).
    fn push(st: &mut RxStage, flow: usize, bytes: &[u8], tick: u64) {
        for &b in bytes {
            let seq = st.flows[flow].next;
            st.accept(flow, seq, line(b), tick);
        }
    }

    /// One delivery pass: `(flow, payload byte)` in delivery order.
    fn drain(st: &mut RxStage, ready: usize, batch: usize, tick: u64) -> Vec<(usize, u8)> {
        let mut out = Vec::new();
        st.drain_ready(ready, batch, tick, |flow, l| {
            out.push((flow, l.payload()[0]))
        });
        out
    }

    fn bytes(out: &[(usize, u8)]) -> Vec<u8> {
        out.iter().map(|&(_, b)| b).collect()
    }

    #[test]
    fn staged_line_roundtrips_and_frees_its_room() {
        let mut st = stage(1, 4);
        push(&mut st, 0, &[7], 0);
        assert_eq!(st.staged, 1);
        assert!(!st.is_idle());
        assert_eq!(drain(&mut st, 1, 16, 0), vec![(0, 7)]);
        assert_eq!(st.staged, 0);
        assert!(st.is_idle());
    }

    #[test]
    fn batch_pop_preserves_order_and_leaves_the_rest() {
        let mut st = stage(2, 64);
        push(&mut st, 0, &[0, 1, 2, 3, 4], 0);
        assert_eq!(bytes(&drain(&mut st, 3, 3, 0)), vec![0, 1, 2]);
        assert_eq!(st.flows[0].staged.len(), 2);
        // Asking for more than is staged pops what there is.
        assert_eq!(bytes(&drain(&mut st, 1, 10, 0)), vec![3, 4]);
        assert!(st.is_idle());
    }

    #[test]
    fn flows_are_independent() {
        let mut st = stage(3, 64);
        push(&mut st, 0, &[1], 0);
        push(&mut st, 2, &[2], 0);
        let lens: Vec<usize> = st.flows.iter().map(|f| f.staged.len()).collect();
        assert_eq!(lens, vec![1, 0, 1]);
        assert!(!st.is_idle());
    }

    #[test]
    #[should_panic]
    fn out_of_range_flow_panics() {
        let mut st = stage(1, 64);
        st.accept(3, 0, line(0), 0);
    }

    #[test]
    fn full_batch_is_ready() {
        let mut st = stage(2, 64);
        push(&mut st, 1, &[0, 1, 2, 3], 0);
        assert_eq!(drain(&mut st, 4, 4, 1).len(), 4);
    }

    #[test]
    fn partial_batch_waits_until_timeout() {
        let mut st = stage(1, 64);
        push(&mut st, 0, &[0, 1], 0);
        assert!(drain(&mut st, 4, 4, SCHED_TIMEOUT_TICKS - 1).is_empty());
        assert_eq!(drain(&mut st, 4, 4, SCHED_TIMEOUT_TICKS).len(), 2);
    }

    #[test]
    fn partial_drain_restamps_the_oldest_tick() {
        let mut st = stage(1, 64);
        push(&mut st, 0, &[0, 1, 2], 0);
        // Timed out at tick 8: one batch of 2 ships, the rest is re-stamped
        // and waits a fresh timeout.
        assert_eq!(bytes(&drain(&mut st, 4, 2, 8)), vec![0, 1]);
        assert!(drain(&mut st, 4, 2, 8 + SCHED_TIMEOUT_TICKS - 1).is_empty());
        assert_eq!(
            bytes(&drain(&mut st, 4, 2, 8 + SCHED_TIMEOUT_TICKS)),
            vec![2]
        );
    }

    #[test]
    fn round_robin_fairness() {
        let mut st = stage(3, 64);
        for flow in 0..3 {
            push(&mut st, flow, &[0, 1, 2, 3, 4, 5, 6, 7], 0);
        }
        // Each pick ships one batch of 4; the cursor moves past the picked
        // flow, so every flow ships once before any ships twice.
        let order: Vec<usize> = drain(&mut st, 4, 4, 1).chunks(4).map(|c| c[0].0).collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
        push(&mut st, 1, &[0, 1, 2, 3], 2);
        push(&mut st, 2, &[0, 1, 2, 3], 2);
        // The last pick was flow 2, so the scan starts again at flow 0.
        let order: Vec<usize> = drain(&mut st, 4, 4, 2).chunks(4).map(|c| c[0].0).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn empty_stage_yields_nothing() {
        let mut st = stage(2, 64);
        assert!(drain(&mut st, 1, 16, 5).is_empty());
    }

    #[test]
    fn batch_of_one_ships_immediately() {
        let mut st = stage(1, 64);
        push(&mut st, 0, &[9], 0);
        assert_eq!(drain(&mut st, 1, 1, 0), vec![(0, 9)]);
    }

    #[test]
    fn hold_waits_for_its_gap_then_releases_in_order() {
        let mut st = stage(1, 64);
        st.accept(0, 2, line(2), 0);
        st.accept(0, 1, line(1), 1);
        assert_eq!(st.held, 2);
        assert!(drain(&mut st, 1, 16, 2).is_empty(), "a hold shipped early");
        assert!(!st.is_idle(), "holds keep the stage ticking");
        st.accept(0, 0, line(0), 3);
        assert_eq!(bytes(&drain(&mut st, 1, 16, 3)), vec![0, 1, 2]);
        assert_eq!(st.flows[0].next, 3);
        let s = st.stats.snapshot();
        assert_eq!((s.reorder_holds, s.reorder_flushes), (2, 0));
    }

    #[test]
    fn valve_releases_past_a_missing_stamp_at_exactly_hold_stall_ticks() {
        let mut st = stage(1, 64);
        st.accept(0, 1, line(1), 10);
        st.accept(0, 2, line(2), 11);
        assert!(!st.release_overdue(10 + HOLD_STALL_TICKS - 1));
        assert!(drain(&mut st, 1, 16, 10 + HOLD_STALL_TICKS - 1).is_empty());
        assert!(st.release_overdue(10 + HOLD_STALL_TICKS));
        let tick = 10 + HOLD_STALL_TICKS;
        assert_eq!(bytes(&drain(&mut st, 1, 16, tick)), vec![1, 2]);
        assert_eq!(st.flows[0].next, 3);
        // One valve release, however many frames it let through.
        assert_eq!(st.stats.snapshot().reorder_flushes, 1);
        assert!(st.is_idle());
    }

    #[test]
    fn valve_stops_at_a_second_gap_and_restarts_its_clock() {
        let mut st = stage(1, 64);
        st.accept(0, 1, line(1), 0);
        st.accept(0, 3, line(3), 0);
        assert!(st.release_overdue(HOLD_STALL_TICKS));
        assert_eq!(bytes(&drain(&mut st, 1, 16, HOLD_STALL_TICKS)), vec![1]);
        // Stamp 2 gets a full stall window of its own.
        assert!(!st.release_overdue(2 * HOLD_STALL_TICKS - 1));
        assert!(st.release_overdue(2 * HOLD_STALL_TICKS));
        assert_eq!(bytes(&drain(&mut st, 1, 16, 2 * HOLD_STALL_TICKS)), vec![3]);
        assert_eq!(st.stats.snapshot().reorder_flushes, 2);
    }

    #[test]
    fn shutdown_releases_holds_in_stamp_order() {
        let mut st = stage(2, 64);
        st.accept(0, 5, line(5), 0);
        st.accept(0, 2, line(2), 0);
        st.accept(1, 4, line(14), 0);
        st.accept(0, 3, line(3), 0);
        st.release_all(1);
        assert_eq!(st.held, 0);
        assert_eq!(
            drain(&mut st, 1, 16, 1),
            vec![(0, 2), (0, 3), (0, 5), (1, 14)]
        );
        assert_eq!(st.flows[0].next, 6);
        // Shutdown counts every frame it releases past a gap.
        assert_eq!(st.stats.snapshot().reorder_flushes, 4);
    }

    #[test]
    fn bound_refuses_frames_and_counts_them_and_delivery_frees_room() {
        let mut st = stage(2, 2);
        push(&mut st, 0, &[1], 0);
        push(&mut st, 1, &[2], 0);
        push(&mut st, 1, &[3], 0);
        assert_eq!(st.stats.snapshot().reqbuf_backpressure, 1);
        assert_eq!(drain(&mut st, 1, 16, 0), vec![(0, 1), (1, 2)]);
        push(&mut st, 1, &[4], 1);
        assert_eq!(drain(&mut st, 1, 16, 1), vec![(1, 4)]);
        assert_eq!(st.stats.snapshot().reqbuf_backpressure, 1);
        // Holds are not charged to the bound.
        let mut st = stage(1, 1);
        st.accept(0, 1, line(1), 0);
        st.accept(0, 2, line(2), 0);
        assert_eq!((st.held, st.staged), (2, 0));
    }

    #[test]
    fn late_frame_after_the_valve_is_staged_and_counted() {
        let mut st = stage(1, 64);
        st.accept(0, 1, line(1), 0);
        assert!(st.release_overdue(HOLD_STALL_TICKS));
        // Stamp 0 was late, not lost: it still reaches the host, behind its
        // successor, and the reorder is counted.
        st.accept(0, 0, line(0), HOLD_STALL_TICKS + 1);
        let s = st.stats.snapshot();
        assert_eq!((s.reorder_holds, s.reorder_flushes), (1, 2));
        assert_eq!(
            bytes(&drain(&mut st, 1, 16, HOLD_STALL_TICKS + 1)),
            vec![1, 0]
        );
        assert_eq!(st.flows[0].next, 2, "a late frame does not move the stamp");
    }
}
