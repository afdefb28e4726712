//! The virtual-time event engine.
//!
//! A minimal, deterministic discrete-event core: events are boxed closures
//! scheduled at absolute nanosecond timestamps and executed in
//! `(time, insertion order)` order. Components share state through
//! `Rc<RefCell<_>>`; the engine itself is single-threaded, which keeps every
//! simulation bit-reproducible.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::Nanos;

type Event = Box<dyn FnOnce(&mut Sim)>;

/// A deterministic discrete-event simulator with nanosecond resolution.
///
/// # Example
///
/// ```
/// use dagger_sim::engine::Sim;
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// let order = Rc::new(RefCell::new(Vec::new()));
/// let mut sim = Sim::new();
/// let (a, b) = (order.clone(), order.clone());
/// sim.schedule_at(20, move |_| a.borrow_mut().push("late"));
/// sim.schedule_at(10, move |_| b.borrow_mut().push("early"));
/// sim.run();
/// assert_eq!(*order.borrow(), vec!["early", "late"]);
/// ```
pub struct Sim {
    now: Nanos,
    seq: u64,
    // Min-heap on (time, seq); the payload closure travels with the key.
    queue: BinaryHeap<Reverse<Entry>>,
}

struct Entry {
    time: Nanos,
    seq: u64,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl Sim {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        Sim {
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
        }
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// Events scheduled for a time earlier than `now` run at `now` (the
    /// engine never travels backwards).
    pub fn schedule_at(&mut self, time: Nanos, event: impl FnOnce(&mut Sim) + 'static) {
        let time = time.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Entry {
            time,
            seq,
            event: Box::new(event),
        }));
    }

    /// Schedules `event` to run `delay` nanoseconds from now.
    pub fn schedule_in(&mut self, delay: Nanos, event: impl FnOnce(&mut Sim) + 'static) {
        self.schedule_at(self.now.saturating_add(delay), event);
    }

    /// Executes the next pending event, if any. Returns `false` when the
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some(Reverse(entry)) => {
                debug_assert!(entry.time >= self.now, "time went backwards");
                self.now = entry.time;
                (entry.event)(self);
                true
            }
            None => false,
        }
    }

    /// Runs until no events remain.
    pub fn run(&mut self) {
        while self.step() {}
    }
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_run_in_time_order() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        for &t in &[50u64, 10, 30, 10, 20] {
            let s = seen.clone();
            sim.schedule_at(t, move |sim| s.borrow_mut().push(sim.now()));
        }
        sim.run();
        assert_eq!(*seen.borrow(), vec![10, 10, 20, 30, 50]);
    }

    #[test]
    fn ties_run_in_insertion_order() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        for i in 0..10 {
            let s = seen.clone();
            sim.schedule_at(5, move |_| s.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*seen.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let total = Rc::new(RefCell::new(0u64));
        let mut sim = Sim::new();
        fn chain(sim: &mut Sim, total: Rc<RefCell<u64>>, remaining: u32) {
            if remaining == 0 {
                return;
            }
            sim.schedule_in(7, move |sim| {
                *total.borrow_mut() += sim.now();
                chain(sim, total.clone(), remaining - 1);
            });
        }
        chain(&mut sim, total.clone(), 5);
        sim.run();
        // Fires at 7, 14, 21, 28, 35.
        assert_eq!(*total.borrow(), 7 + 14 + 21 + 28 + 35);
        assert_eq!(sim.now(), 35);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let fired_at = Rc::new(RefCell::new(0u64));
        let mut sim = Sim::new();
        let f = fired_at.clone();
        sim.schedule_at(100, move |sim| {
            let f2 = f.clone();
            sim.schedule_at(10, move |sim| *f2.borrow_mut() = sim.now());
        });
        sim.run();
        assert_eq!(*fired_at.borrow(), 100);
    }

    #[test]
    fn empty_sim_steps_false() {
        let mut sim = Sim::new();
        assert!(!sim.step());
        assert_eq!(sim.now(), 0);
    }
}
