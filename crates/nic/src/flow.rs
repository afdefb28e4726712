//! Per-flow FIFOs of request-buffer slot references (Fig. 9).
//!
//! Each RX ring in host memory has a dedicated Flow FIFO on the NIC holding
//! `slot_id` references into the [`RequestBuffer`](crate::reqbuf). The flow
//! scheduler drains whichever FIFO has accumulated a delivery batch.

use std::collections::VecDeque;

use crate::reqbuf::SlotId;

/// The array of per-flow slot-reference FIFOs.
#[derive(Debug)]
pub struct FlowFifos {
    fifos: Vec<VecDeque<SlotId>>,
}

impl FlowFifos {
    /// Creates `flows` empty FIFOs.
    ///
    /// # Panics
    ///
    /// Panics if `flows` is zero.
    pub fn new(flows: usize) -> Self {
        assert!(flows > 0, "at least one flow required");
        FlowFifos {
            fifos: (0..flows).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Number of flows.
    pub fn flows(&self) -> usize {
        self.fifos.len()
    }

    /// Appends a staged frame reference to `flow`'s FIFO.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is out of range.
    pub fn push(&mut self, flow: usize, slot: SlotId) {
        self.fifos[flow].push_back(slot);
    }

    /// Number of staged frames for `flow`.
    pub fn len(&self, flow: usize) -> usize {
        self.fifos[flow].len()
    }

    /// `true` if every FIFO is empty.
    pub fn is_empty(&self) -> bool {
        self.fifos.iter().all(|f| f.is_empty())
    }

    /// Pops up to `max` references from `flow`, in order (the delivery
    /// round runs once per tick: it borrows, it does not allocate).
    pub fn pop_batch(&mut self, flow: usize, max: usize) -> impl Iterator<Item = SlotId> + '_ {
        let fifo = &mut self.fifos[flow];
        let n = fifo.len().min(max);
        fifo.drain(..n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_batch_pop_preserve_order() {
        let mut f = FlowFifos::new(2);
        for i in 0..5 {
            f.push(0, SlotId(i));
        }
        assert_eq!(f.len(0), 5);
        let batch: Vec<SlotId> = f.pop_batch(0, 3).collect();
        assert_eq!(batch, vec![SlotId(0), SlotId(1), SlotId(2)]);
        assert_eq!(f.len(0), 2);
    }

    #[test]
    fn pop_more_than_available() {
        let mut f = FlowFifos::new(1);
        f.push(0, SlotId(1));
        assert_eq!(f.pop_batch(0, 10).count(), 1);
        assert!(f.is_empty());
    }

    #[test]
    fn flows_are_independent() {
        let mut f = FlowFifos::new(3);
        f.push(0, SlotId(0));
        f.push(2, SlotId(1));
        assert_eq!(f.len(0), 1);
        assert_eq!(f.len(1), 0);
        assert_eq!(f.len(2), 1);
        assert!(!f.is_empty());
    }

    #[test]
    #[should_panic]
    fn out_of_range_flow_panics() {
        let mut f = FlowFifos::new(1);
        f.push(3, SlotId(0));
    }
}
