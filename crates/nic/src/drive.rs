//! Who drives the engine: the per-queue slot, the host-side driver and the
//! fallback engine thread (DESIGN.md §12).
//!
//! The paper's NIC costs the host zero threads: the CPU writes a ring and
//! polls a ring, the FPGA does the rest. The software engine needs *some*
//! thread to run `EngineCore::step`, and the cheapest one is the thread
//! that is already waiting for the result. So each worker's core sits in an
//! `EngineSlot` guarded by a *try*-lock, and every host-side wait on a
//! flow — a client waiting for its reply, a dispatch thread waiting for a
//! request — steps the queue that owns the flow through a [`HostWait`]
//! before it backs off. The queue's own thread (`EngineSlot::run`) is the
//! fallback driver: it stands by while host threads keep the queue's drive
//! lease alive, and drives the queue whenever nobody does (a host that
//! pushes and never polls, a long handler, a sleeping waiter, raw
//! [`HostFlow`] users).
//!
//! Nothing on the data path blocks on the slot: a driver that finds it
//! taken backs off and lets the holder finish. Service handlers never run
//! under it — a dispatch thread steps, releases, then handles — so a
//! handler's nested call on the same NIC can step it again.
//!
//! [`HostFlow`]: crate::nic::HostFlow

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::bank::Counter;
use crate::engine::{EngineCore, Progress};
use crate::monitor::QueueStats;
use crate::wait::{EngineWaker, SpinWait};

/// How long a drive lease outlives the last look that found it renewed. In
/// its spin and yield phases the engine thread looks every few nanoseconds,
/// far more often than a polling host renews (once per wait iteration, never
/// inside a step or a handler), so "not renewed since the previous look"
/// means "lapsed" only once this long has passed. Without it the thread
/// steps behind a live host, every such step that moves a frame resets its
/// back-off, and two spinning threads fight over the queue for good (seen
/// on a two-core host: 2.5 × the echo RTT, 40–80 % `thread_steps`).
const LEASE_GRACE: Duration = Duration::from_micros(50);

/// One engine queue as its drivers see it: the core behind a try-lock, the
/// queue's wake latch and drive lease, and its counter bank.
pub(crate) struct EngineSlot {
    /// `None` once the queue has shut down: late host steps find nothing
    /// to drive.
    core: Mutex<Option<EngineCore>>,
    waker: Arc<EngineWaker>,
    stats: Arc<QueueStats>,
    stop: Arc<AtomicBool>,
}

impl EngineSlot {
    pub(crate) fn new(core: EngineCore) -> Arc<Self> {
        Arc::new(EngineSlot {
            waker: Arc::clone(&core.waker),
            stats: Arc::clone(&core.qstats),
            stop: Arc::clone(&core.stop),
            core: Mutex::new(Some(core)),
        })
    }

    /// One engine step if the slot is free (and the queue still runs); a
    /// step that moved frames counts into `steps` — the bank's `host_steps`
    /// or `thread_steps`, by who is driving.
    fn try_step(&self, steps: &Counter) -> Option<Progress> {
        let progress = self.core.try_lock()?.as_mut()?.step();
        if progress == Progress::Moved {
            steps.inc();
        }
        Some(progress)
    }

    /// One step on behalf of a host thread, which renews the drive lease
    /// whether or not the slot was free: somebody is driving.
    fn host_step(&self) -> Option<Progress> {
        self.waker.renew_lease();
        self.try_step(&self.stats.host_steps)
    }

    /// The queue's engine thread: the fallback driver. Stands by while host
    /// threads drive the queue, steps it otherwise, and runs the
    /// shutdown drain — the one place the slot is taken with a blocking
    /// lock, after which it is empty.
    pub(crate) fn run(&self) {
        self.waker.register_current();
        let mut idle = SpinWait::new();
        let mut lease_seen: Option<Instant> = None;
        loop {
            if self.stop.load(Ordering::Acquire) {
                let core = self.core.lock().take();
                if let Some(mut core) = core {
                    core.shutdown_drain();
                }
                return;
            }
            if self.waker.take_lease() {
                lease_seen = Some(Instant::now());
                idle.wait_standby(&self.waker);
                continue;
            }
            if lease_seen.is_some_and(|seen| seen.elapsed() < LEASE_GRACE) {
                idle.snooze();
                continue;
            }
            match self.try_step(&self.stats.thread_steps) {
                Some(Progress::Moved) => idle.reset(),
                // Nothing tick-driven is outstanding: escalate through
                // spin → yield → park; producers wake us via the latch.
                Some(Progress::Idle) => idle.wait_with(&self.waker),
                // Timers still need ticks (or a host thread holds the slot
                // this instant): stay in the non-parking phase of the same
                // backoff.
                Some(Progress::Ticking) | None => idle.snooze(),
            }
        }
    }
}

/// A host thread's handle on the engine queue that owns its flow
/// (`queue_of_flow(flow, num_queues)`). Detached handles drive nothing: flows of
/// arbiter-slotted virtual NICs, and ring pairs built by hand in tests.
#[derive(Clone)]
pub struct EngineHandle(Option<Arc<EngineSlot>>);

impl std::fmt::Debug for EngineHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self.0 {
            Some(_) => "EngineHandle(attached)",
            None => "EngineHandle(detached)",
        })
    }
}

impl EngineHandle {
    pub(crate) fn attached(slot: Arc<EngineSlot>) -> Self {
        EngineHandle(Some(slot))
    }

    /// A handle that drives nothing.
    pub fn detached() -> Self {
        EngineHandle(None)
    }

    /// One engine step, if the queue is free to take it. `true` when it
    /// moved frames — the caller's ring is worth another look. For
    /// non-blocking completion checks; blocking waits use [`HostWait`].
    pub fn step(&self) -> bool {
        self.0
            .as_ref()
            .is_some_and(|slot| slot.host_step() == Some(Progress::Moved))
    }
}

/// One host-side wait on a flow: each time the caller's own poll comes up
/// empty it steps the flow's engine queue, and backs off only when that
/// moved nothing either — so an idle wait advances exactly one engine tick
/// per back-off step. Once the back-off has escalated to naps the wait
/// hands the queue back to its thread and stops stepping: a sleeper is no
/// poller.
pub struct HostWait<'a> {
    slot: Option<&'a EngineSlot>,
    backoff: SpinWait,
    /// This wait went to sleep and gave the queue back (once per idle
    /// spell: another host may be driving it by now).
    handed_back: bool,
}

impl<'a> HostWait<'a> {
    /// A wait driving `engine`'s queue.
    pub fn new(engine: &'a EngineHandle) -> Self {
        HostWait {
            slot: engine.0.as_deref(),
            backoff: SpinWait::new(),
            handed_back: false,
        }
    }

    /// The caller polled and found nothing: step the engine once; if that
    /// moved frames return at once (poll again), otherwise take one
    /// back-off step.
    pub fn idle(&mut self) {
        if let Some(slot) = self.slot {
            if !self.backoff.is_parking() {
                if slot.host_step() == Some(Progress::Moved) {
                    self.backoff.reset();
                    return;
                }
            } else if !self.handed_back {
                // Right after the first (20 µs) nap: from here on producers
                // wake the engine thread, and the result turns up in the
                // caller's ring.
                slot.waker.hand_back();
                self.handed_back = true;
            }
        }
        self.backoff.wait();
    }

    /// The caller's poll found work: forget accumulated idleness.
    pub fn reset(&mut self) {
        self.backoff.reset();
        self.handed_back = false;
    }
}
