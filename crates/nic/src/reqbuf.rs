//! The request buffer + free-slot FIFO (Fig. 9B).
//!
//! Instead of storing ≥64-byte RPCs inside every flow FIFO and multiplexing
//! wide datapaths, the Dagger NIC keeps all staged RPC frames in one lookup
//! table indexed by `slot_id`; the per-flow FIFOs carry only the slot ids.
//! A free-slot FIFO tracks unused entries. This module is that table.

use std::collections::VecDeque;

use dagger_types::CacheLine;

/// Index of a staged frame in the request buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SlotId(pub u32);

/// The staging table for frames awaiting CCI-P delivery batches.
#[derive(Debug)]
pub struct RequestBuffer {
    slots: Vec<Option<CacheLine>>,
    free: VecDeque<u32>,
}

impl RequestBuffer {
    /// Creates a buffer with `capacity` slots (`B × N_flows` in the paper's
    /// sizing rule).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        RequestBuffer {
            slots: vec![None; capacity],
            free: (0..capacity as u32).collect(),
        }
    }

    /// Total slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Slots currently in use.
    pub fn in_use(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Stages a frame; `None` when every slot is occupied (the hardware
    /// asserts backpressure on the input controller in that case).
    pub fn alloc(&mut self, line: CacheLine) -> Option<SlotId> {
        let id = self.free.pop_front()?;
        self.slots[id as usize] = Some(line);
        Some(SlotId(id))
    }

    /// Removes and returns the frame in `slot`, returning the slot to the
    /// free FIFO.
    ///
    /// # Panics
    ///
    /// Panics if the slot id is out of range or empty (a hardware bug, not a
    /// runtime condition).
    pub fn take(&mut self, slot: SlotId) -> CacheLine {
        let line = self.slots[slot.0 as usize]
            .take()
            .expect("take from empty request-buffer slot");
        self.free.push_back(slot.0);
        line
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

    #[test]
    fn alloc_take_roundtrip() {
        let mut rb = RequestBuffer::new(4);
        let s = rb.alloc(line(7)).unwrap();
        assert_eq!(rb.in_use(), 1);
        assert_eq!(rb.take(s).payload()[0], 7);
        assert_eq!(rb.in_use(), 0);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut rb = RequestBuffer::new(2);
        let a = rb.alloc(line(1)).unwrap();
        let _b = rb.alloc(line(2)).unwrap();
        assert!(rb.alloc(line(3)).is_none());
        rb.take(a);
        assert!(rb.alloc(line(3)).is_some());
    }

    #[test]
    fn slots_recycle_fifo() {
        let mut rb = RequestBuffer::new(2);
        let a = rb.alloc(line(1)).unwrap();
        rb.take(a);
        let b = rb.alloc(line(2)).unwrap();
        // Slot 0 was freed after slot 1 was handed out, so the recycled
        // allocation takes slot 1 first.
        assert_eq!(b.0, 1);
    }

    #[test]
    #[should_panic(expected = "empty request-buffer slot")]
    fn double_take_panics() {
        let mut rb = RequestBuffer::new(2);
        let s = rb.alloc(line(1)).unwrap();
        rb.take(s);
        rb.take(s);
    }
}
