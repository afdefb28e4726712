//! The RX stage: everything between steering a frame to a flow and writing
//! it into that flow's RX ring (Fig. 9) — one record per flow holding its
//! staged lines and its batching clock.
//!
//! The hardware keeps staged frames in one request buffer and moves only
//! `slot_id`s through the per-flow FIFOs, an FPGA area trick against wide
//! muxes. In software a frame is one 64-byte value, so each flow queues its
//! lines by value — the queue grows on use and keeps its capacity; nothing
//! is built up front — and one occupancy count enforces the request
//! buffer's bound. A flow's frames reach its stage from one receive queue
//! only, in arrival order (DESIGN.md §13), so staging order is delivery
//! order.

use std::collections::VecDeque;
use std::sync::Arc;

use dagger_types::CacheLine;

use crate::monitor::QueueStats;

/// Scheduler partial-batch timeout in engine ticks; small enough that
/// latency in functional mode is not batch-bound.
pub(crate) const SCHED_TIMEOUT_TICKS: u64 = 8;

/// One flow's receive state.
#[derive(Debug, Default)]
struct FlowStage {
    /// Staged lines awaiting delivery, in arrival order.
    staged: VecDeque<CacheLine>,
    /// Tick the oldest line of `staged` was staged (or the flow last
    /// partially drained); meaningful only while `staged` is non-empty.
    oldest: u64,
}

/// The per-flow staging and batching state of one engine worker.
#[derive(Debug)]
pub(crate) struct RxStage {
    /// Indexed by global flow id; only the worker's owned flows are used.
    flows: Vec<FlowStage>,
    /// Lines staged across all flows.
    staged: usize,
    /// The staging bound (`NicShared::reqbuf_slots`).
    bound: usize,
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
            cursor: 0,
            stats,
        }
    }

    /// `true` when nothing is staged, so no delivery is pending.
    pub(crate) fn is_idle(&self) -> bool {
        self.staged == 0
    }

    /// Stages one steered line on `flow`, or refuses it at the bound (the
    /// hardware asserts backpressure on the input controller there).
    pub(crate) fn stage(&mut self, flow: usize, line: CacheLine, tick: u64) {
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

    /// Stages `bytes` on `flow` in order.
    fn push(st: &mut RxStage, flow: usize, bytes: &[u8], tick: u64) {
        for &b in bytes {
            st.stage(flow, line(b), tick);
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
        st.stage(3, line(0), 0);
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
    }
}
