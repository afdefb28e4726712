//! The Flow Scheduler (Fig. 9A).
//!
//! Picks a flow FIFO "that already contains enough requests to form a
//! transmission batch" and instructs the CCI-P transmitter to deliver it to
//! the corresponding software ring. We add the real-world refinement the
//! timed model also uses: a flow whose oldest staged frame has waited past a
//! timeout ships as a partial batch, so low-load flows are not starved by
//! the batch-size threshold.

use crate::flow::FlowFifos;

/// Round-robin flow scheduler with batch-or-timeout readiness.
#[derive(Debug)]
pub struct FlowScheduler {
    next: usize,
    /// Per-flow tick at which the oldest staged frame arrived (`None` when
    /// empty).
    oldest_tick: Vec<Option<u64>>,
    timeout_ticks: u64,
}

impl FlowScheduler {
    /// Creates a scheduler for `flows` flows with the given partial-batch
    /// timeout, measured in engine loop ticks.
    ///
    /// # Panics
    ///
    /// Panics if `flows` is zero.
    pub fn new(flows: usize, timeout_ticks: u64) -> Self {
        assert!(flows > 0, "at least one flow required");
        FlowScheduler {
            next: 0,
            oldest_tick: vec![None; flows],
            timeout_ticks,
        }
    }

    /// Records that a frame was staged for `flow` at `tick`.
    pub fn on_stage(&mut self, flow: usize, tick: u64) {
        if self.oldest_tick[flow].is_none() {
            self.oldest_tick[flow] = Some(tick);
        }
    }

    /// Records that `flow`'s FIFO was drained (possibly partially); `empty`
    /// says whether anything is still staged, `tick` is the current time.
    pub fn on_drain(&mut self, flow: usize, empty: bool, tick: u64) {
        self.oldest_tick[flow] = if empty { None } else { Some(tick) };
    }

    /// Scans flows round-robin and returns the next flow ready for delivery:
    /// one holding at least `batch` frames, or one whose oldest frame has
    /// waited ≥ the timeout. `None` if nothing is ready.
    pub fn pick(&mut self, fifos: &FlowFifos, batch: usize, tick: u64) -> Option<usize> {
        let n = fifos.flows();
        for i in 0..n {
            let flow = (self.next + i) % n;
            let len = fifos.len(flow);
            if len == 0 {
                continue;
            }
            let expired = self.oldest_tick[flow]
                .map(|t0| tick.saturating_sub(t0) >= self.timeout_ticks)
                .unwrap_or(false);
            if len >= batch.max(1) || expired {
                self.next = (flow + 1) % n;
                return Some(flow);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reqbuf::SlotId;

    fn staged(fifos: &mut FlowFifos, sched: &mut FlowScheduler, flow: usize, n: usize, tick: u64) {
        for i in 0..n {
            fifos.push(flow, SlotId(i as u32));
            sched.on_stage(flow, tick);
        }
    }

    #[test]
    fn full_batch_is_ready() {
        let mut fifos = FlowFifos::new(2);
        let mut sched = FlowScheduler::new(2, 100);
        staged(&mut fifos, &mut sched, 1, 4, 0);
        assert_eq!(sched.pick(&fifos, 4, 1), Some(1));
    }

    #[test]
    fn partial_batch_waits_until_timeout() {
        let mut fifos = FlowFifos::new(1);
        let mut sched = FlowScheduler::new(1, 100);
        staged(&mut fifos, &mut sched, 0, 2, 0);
        assert_eq!(sched.pick(&fifos, 4, 50), None);
        assert_eq!(sched.pick(&fifos, 4, 100), Some(0));
    }

    #[test]
    fn round_robin_fairness() {
        let mut fifos = FlowFifos::new(3);
        let mut sched = FlowScheduler::new(3, 100);
        for flow in 0..3 {
            staged(&mut fifos, &mut sched, flow, 4, 0);
        }
        let a = sched.pick(&fifos, 4, 1).unwrap();
        fifos.pop_batch(a, 4).for_each(drop);
        sched.on_drain(a, fifos.len(a) == 0, 1);
        let b = sched.pick(&fifos, 4, 1).unwrap();
        fifos.pop_batch(b, 4).for_each(drop);
        sched.on_drain(b, fifos.len(b) == 0, 1);
        let c = sched.pick(&fifos, 4, 1).unwrap();
        assert_eq!(
            {
                let mut v = vec![a, b, c];
                v.sort_unstable();
                v
            },
            vec![0, 1, 2]
        );
    }

    #[test]
    fn empty_fifos_yield_none() {
        let fifos = FlowFifos::new(2);
        let mut sched = FlowScheduler::new(2, 10);
        assert_eq!(sched.pick(&fifos, 1, 5), None);
    }

    #[test]
    fn batch_of_one_ships_immediately() {
        let mut fifos = FlowFifos::new(1);
        let mut sched = FlowScheduler::new(1, 1_000);
        staged(&mut fifos, &mut sched, 0, 1, 0);
        assert_eq!(sched.pick(&fifos, 1, 0), Some(0));
    }
}
