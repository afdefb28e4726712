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
//! A host step also runs the frames it sent to completion where it can,
//! like a loopback sender running the receiver's RX path: every queue its
//! own step delivered frames into synchronously gets one `try_step` from
//! the same thread once the host step has released its own slot. A NIC-served
//! read then never leaves the thread that issued it.
//!
//! [`HostFlow`]: crate::nic::HostFlow

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use dagger_types::{DaggerError, Result};
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
    /// Puts `core` in a slot. A core that takes no bus grant in its step
    /// can be host-driven, so its slot also takes peer steps: a host step
    /// that delivers frames to it steps it once (see [`note_delivery`]).
    /// An arbiter-slotted core's step blocks on the bus, so it never does.
    pub(crate) fn new(core: EngineCore) -> Arc<Self> {
        let peer_steppable = core.arbiter.is_none();
        let slot = Arc::new(EngineSlot {
            waker: Arc::clone(&core.waker),
            stats: Arc::clone(&core.qstats),
            stop: Arc::clone(&core.stop),
            core: Mutex::new(Some(core)),
        });
        if peer_steppable {
            let _ = slot.waker.slot.set(Arc::downgrade(&slot));
        }
        slot
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
    /// whether or not the slot was free: somebody is driving. Once the
    /// slot is released, every other queue the step delivered frames into
    /// gets one plain `try_step` (a peer step): counted in its
    /// `host_steps`, its lease left alone — this thread polls its own
    /// queue, not theirs. A peer whose slot is busy keeps the wake the
    /// delivery sent it.
    fn host_step(&self) -> Option<Progress> {
        self.waker.renew_lease();
        BACKLOG.with(|b| b.stepping.set(self));
        let progress = self.try_step(&self.stats.host_steps);
        BACKLOG.with(|b| b.stepping.set(std::ptr::null()));
        while let Some(peer) = BACKLOG.with(|b| b.peers.borrow_mut().pop()) {
            peer.try_step(&peer.stats.host_steps);
        }
        progress
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

/// The current thread's host step and the other queues it delivered
/// frames into. The list keeps its capacity, so a warm step notes without
/// allocating.
struct Backlog {
    /// The slot whose host step is running on this thread (null outside
    /// one: engine threads, UDP pumps and peer steps note nothing).
    stepping: Cell<*const EngineSlot>,
    peers: RefCell<Vec<Arc<EngineSlot>>>,
}

thread_local! {
    static BACKLOG: Backlog = const {
        Backlog {
            stepping: Cell::new(std::ptr::null()),
            peers: RefCell::new(Vec::new()),
        }
    };
}

/// The fabric delivered a frame to the queue `waker` wakes. Inside a host
/// step of another queue, notes it for a peer step once the host step has
/// released its slot. The fabric calls this under its own locks, which is
/// why the step is only noted here: a step taken inside the delivery would
/// send its own frames under them.
pub(crate) fn note_delivery(waker: &EngineWaker) {
    BACKLOG.with(|b| {
        let stepping = b.stepping.get();
        if stepping.is_null() {
            return;
        }
        let Some(slot) = waker.slot.get() else {
            return;
        };
        let peer = Weak::as_ptr(slot);
        let mut peers = b.peers.borrow_mut();
        if peer != stepping && peers.iter().all(|p| Arc::as_ptr(p) != peer) {
            peers.extend(slot.upgrade());
        }
    });
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

/// Consecutive steps that moved frames after which a bounded wait reads
/// the clock anyway. A wait reads it when it backs off; on a queue other
/// flows keep busy every step may move frames, and without this look the
/// deadline would never be read.
const DEADLINE_LOOK_EVERY: u32 = 64;

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
    /// Steps that moved frames since a bounded wait last read the clock.
    moved: u32,
}

impl<'a> HostWait<'a> {
    /// A wait driving `engine`'s queue.
    pub fn new(engine: &'a EngineHandle) -> Self {
        HostWait {
            slot: engine.0.as_deref(),
            backoff: SpinWait::new(),
            handed_back: false,
            moved: 0,
        }
    }

    /// The caller polled and found nothing: step the engine once; if that
    /// moved frames return at once (poll again), otherwise take one
    /// back-off step.
    pub fn idle(&mut self) {
        // Without a deadline nothing can expire.
        let _ = self.step_or_back_off(None);
    }

    /// [`HostWait::idle`] bounded by `deadline`. The clock is read only
    /// when the wait backs off, and once every [`DEADLINE_LOOK_EVERY`]
    /// consecutive steps that moved frames, so a call's deadline costs no
    /// clock read while its queue is making progress.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Timeout`] once `deadline` has passed.
    pub fn idle_until(&mut self, deadline: Instant) -> Result<()> {
        self.step_or_back_off(Some(deadline))
    }

    fn step_or_back_off(&mut self, deadline: Option<Instant>) -> Result<()> {
        if let Some(slot) = self.slot {
            if !self.backoff.is_parking() {
                if slot.host_step() == Some(Progress::Moved) {
                    self.backoff.reset();
                    self.moved += 1;
                    if self.moved < DEADLINE_LOOK_EVERY {
                        return Ok(());
                    }
                    return self.look(deadline);
                }
            } else if !self.handed_back {
                // Right after the first (20 µs) nap: from here on producers
                // wake the engine thread, and the result turns up in the
                // caller's ring.
                slot.waker.hand_back();
                self.handed_back = true;
            }
        }
        self.look(deadline)?;
        self.backoff.wait();
        Ok(())
    }

    /// Reads the clock against `deadline` (if any).
    fn look(&mut self, deadline: Option<Instant>) -> Result<()> {
        self.moved = 0;
        match deadline {
            Some(deadline) if Instant::now() >= deadline => Err(DaggerError::Timeout),
            _ => Ok(()),
        }
    }

    /// The caller's poll found work: forget accumulated idleness.
    pub fn reset(&mut self) {
        self.backoff.reset();
        self.handed_back = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_counter;
    use crate::arbiter::{ArbiterSlot, CcipArbiter};
    use crate::connmgr::{ConnectionManager, ConnectionTuple};
    use crate::engine::tests::{data_frame, loopback_core};
    use crate::engine::{NicShared, WorkerParts};
    use crate::fabric::{Fabric, MemFabric};
    use crate::monitor::PacketMonitor;
    use crate::offload::OffloadState;
    use crate::ring::{ring, RingConsumer, RingProducer};
    use crate::softreg::SoftRegisterFile;
    use dagger_telemetry::Telemetry;
    use dagger_types::{
        CacheLine, ConnectionId, FlowId, FnId, LbPolicy, NodeAddr, RpcHeader, RpcId, RpcKind,
    };
    use std::sync::atomic::AtomicUsize;

    /// A one-queue, one-flow NIC whose core sits in a slot with no engine
    /// thread: the test is every driver. Connection 1 leads to `peer`.
    struct Node {
        slot: Arc<EngineSlot>,
        engine: EngineHandle,
        tx: RingProducer,
        rx: RingConsumer,
        shared: NicShared,
    }

    impl Node {
        fn new(fabric: &MemFabric, addr: u32, peer: u32, arbiter: Option<ArbiterSlot>) -> Node {
            let addr = NodeAddr(addr);
            let monitor = Arc::new(PacketMonitor::new(1, 1));
            let waker = Arc::new(EngineWaker::for_queue(Arc::clone(&monitor.queues()[0])));
            let mut conn_mgr = ConnectionManager::new(16);
            let tuple = ConnectionTuple {
                src_flow: FlowId(0),
                dest_addr: NodeAddr(peer),
                lb: LbPolicy::Uniform,
            };
            conn_mgr.open(ConnectionId(1), tuple).unwrap();
            let softregs = SoftRegisterFile::default();
            softregs.set_active_flows(1);
            let shared = NicShared {
                addr,
                conn_mgr: Arc::new(Mutex::new(conn_mgr)),
                softregs: Arc::new(softregs),
                monitor,
                stop: Arc::new(AtomicBool::new(false)),
                stop_barrier: Arc::new(AtomicUsize::new(0)),
                ctrl_rx: crossbeam::channel::unbounded().1,
                telemetry: Telemetry::new(),
                wakers: vec![Arc::clone(&waker)],
                offload: Arc::new(OffloadState::new(1)),
            };
            let port = fabric.attach_queues(addr, 1).unwrap().remove(0);
            fabric.set_queue_waker(addr, 0, waker);
            let (tx, engine_tx) = ring(64);
            let (engine_rx, rx) = ring(64);
            let parts = WorkerParts {
                queue_id: 0,
                port,
                tx_rings: vec![Some(engine_tx)],
                rx_rings: vec![Some(engine_rx)],
                reliable: None,
                arbiter,
            };
            let slot = EngineSlot::new(EngineCore::new(&shared, parts));
            let engine = EngineHandle::attached(Arc::clone(&slot));
            Node {
                slot,
                engine,
                tx,
                rx,
                shared,
            }
        }

        fn stats(&self) -> crate::monitor::QueueSnapshot {
            self.slot.stats.snapshot()
        }

        /// Frames the engine delivered into the flow's RX ring so far.
        fn rx_frames(&self) -> u64 {
            self.shared.monitor.flows()[0].snapshot().rx_frames
        }
    }

    /// Nodes 1 and 2 on one in-memory fabric, each with its connection 1
    /// leading to the other.
    fn pair() -> (MemFabric, Node, Node) {
        let fabric = MemFabric::new();
        let a = Node::new(&fabric, 1, 2, None);
        let b = Node::new(&fabric, 2, 1, None);
        (fabric, a, b)
    }

    /// A single-frame message of `kind` on connection 1 carrying `body`.
    fn frame(kind: RpcKind, fn_id: u16, rpc: u32, body: &[u8]) -> CacheLine {
        let mut line = CacheLine::zeroed();
        let hdr = RpcHeader {
            connection_id: ConnectionId(1),
            rpc_id: RpcId(rpc),
            fn_id: FnId(fn_id),
            src_flow: FlowId(0),
            kind,
            frame_idx: 0,
            frame_count: 1,
            frame_payload_len: body.len() as u8,
            traced: false,
            offloaded: false,
        };
        hdr.encode(line.header_mut());
        line.payload_mut()[..body.len()].copy_from_slice(body);
        line
    }

    /// One host step on A carries A's request all the way into B's RX
    /// ring: A's TX delivers it to B's port, and A steps B once its own
    /// slot is free. That step is a host step of B's, taken without
    /// renewing B's lease and with no engine thread anywhere.
    #[test]
    fn a_host_step_steps_the_queue_its_delivery_filled() {
        let (_fabric, mut a, mut b) = pair();
        let request = frame(RpcKind::Request, 7, 1, b"ping");
        a.tx.try_push(request).unwrap();
        HostWait::new(&a.engine).idle();
        assert_eq!(b.rx.try_pop(), Some(request), "not in B's RX ring");
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!((sa.host_steps, sa.thread_steps), (1, 0));
        assert_eq!((sb.host_steps, sb.thread_steps), (1, 0));
        assert!(a.slot.waker.take_lease(), "A's own step renews A's lease");
        assert!(
            !b.slot.waker.take_lease(),
            "the peer step renewed B's lease"
        );
        // Nothing is left noted for the next step on this thread.
        assert!(BACKLOG.with(|b| b.peers.borrow().is_empty()));
    }

    /// A peer whose slot is taken is not waited for: the frame stays in its
    /// port for whoever holds it, and the delivery's wake reached its
    /// waker (skipped here, because the peer's own poller holds its lease).
    #[test]
    fn a_busy_peer_keeps_its_frame_and_its_wake() {
        let (_fabric, mut a, mut b) = pair();
        b.slot.waker.renew_lease();
        let held = b.slot.core.lock();
        a.tx.try_push(frame(RpcKind::Request, 7, 1, b"ping"))
            .unwrap();
        assert!(a.engine.step(), "A's own step moved the frame");
        assert_eq!(b.stats().wakes_skipped, 1, "the delivery woke B");
        assert_eq!(b.stats().host_steps, 0);
        drop(held);
        assert_eq!(b.rx.try_pop(), None, "B was stepped behind its holder");
        // B's own driver finds the frame in the port.
        assert!(b.engine.step());
        assert!(b.rx.try_pop().is_some());
    }

    /// A warm cached read never leaves the client's wait: A's first step
    /// sends the GET and steps B, whose offload stage answers it; A's next
    /// step receives the answer. The server's flow never sees the request.
    #[test]
    fn a_warm_offload_hit_completes_inside_one_client_wait() {
        let (_fabric, mut a, mut b) = pair();
        assert!(b
            .shared
            .offload
            .configure(crate::offload::tests::read_spec()));
        b.shared.softregs.set_offload_cache_entries(64);
        // GET "k", and the server's answer: status OK, found, value "v".
        let get = |rpc| frame(RpcKind::Request, 1, rpc, &[1, 0, 0, 0, b'k']);
        let reply = frame(RpcKind::Response, 1, 1, &[0, 1, 1, 0, 0, 0, b'v']);
        // The miss reaches the server's flow; its response fills the cache.
        a.tx.try_push(get(1)).unwrap();
        assert!(a.engine.step());
        assert_eq!(b.rx.try_pop(), Some(get(1)));
        b.tx.try_push(reply).unwrap();
        assert!(b.engine.step(), "B's step sends and peer-steps A");
        assert_eq!(a.rx.try_pop(), Some(reply));
        assert_eq!(b.rx_frames(), 1);
        for rpc in 2..6 {
            a.tx.try_push(get(rpc)).unwrap();
            let mut wait = HostWait::new(&a.engine);
            let mut idles = 0;
            let back = loop {
                if let Some(line) = a.rx.try_pop() {
                    break line;
                }
                wait.idle();
                idles += 1;
            };
            let hdr = RpcHeader::decode(back.header()).unwrap();
            assert_eq!((hdr.rpc_id, hdr.offloaded), (RpcId(rpc), true));
            assert_eq!(idles, 2, "one step out, one step back");
        }
        assert_eq!(b.shared.offload.stats().snapshot().hits, 4);
        assert_eq!(b.rx_frames(), 1, "a hit reached the server's flow");
        assert_eq!(b.rx.try_pop(), None);
        assert_eq!(b.stats().thread_steps, 0);
    }

    /// An arbiter-slotted virtual NIC takes a blocking bus grant in its
    /// step, so a host step that delivers to it leaves it alone: no grant,
    /// no step, the frame in its port for its own engine thread.
    #[test]
    fn a_host_step_never_steps_a_virtual_nic() {
        let fabric = MemFabric::new();
        let arbiter = CcipArbiter::new(1);
        let mut a = Node::new(&fabric, 1, 2, None);
        let b = Node::new(&fabric, 2, 1, Some(arbiter.register()));
        a.tx.try_push(frame(RpcKind::Request, 7, 1, b"ping"))
            .unwrap();
        assert!(a.engine.step());
        assert_eq!(arbiter.grants(0), 0, "B's step took a bus grant");
        assert_eq!(b.stats().host_steps + b.stats().thread_steps, 0);
        let mut core = b.slot.core.lock();
        let port = &core.as_mut().unwrap().port;
        assert!(port.try_recv().is_some(), "the frame left B's port");
    }

    /// The zero-allocation twin of the engine's `step()` tests: a warm host
    /// step whose delivery peer-steps the other node stays off the heap,
    /// in both directions.
    #[test]
    fn a_warm_host_step_that_peer_steps_performs_zero_heap_allocations() {
        let (_fabric, mut a, mut b) = pair();
        let mut round_trip = |rpc| {
            a.tx.try_push(frame(RpcKind::Request, 7, rpc, b"ping"))
                .unwrap();
            let (out, moved) = alloc_counter::count_allocs(|| a.engine.step());
            assert!(moved && b.rx.try_pop().is_some(), "request {rpc} stuck");
            b.tx.try_push(data_frame(rpc)).unwrap();
            let (back, moved) = alloc_counter::count_allocs(|| b.engine.step());
            assert!(moved && a.rx.try_pop().is_some(), "response {rpc} stuck");
            out + back
        };
        // Warm-up: the buffer pools, staging tables, connection caches and
        // this thread's peer list reach their steady-state sizes.
        for rpc in 0..8 {
            round_trip(rpc);
        }
        let allocs = round_trip(8);
        assert_eq!(allocs, 0, "a warm peer-stepping host step allocated");
        assert_eq!(a.stats().host_steps, 18, "9 own steps and 9 peer steps");
    }

    /// A bounded wait that never backs off — every step it takes moves
    /// frames, as on a queue other flows keep busy — still reads its
    /// deadline, once every `DEADLINE_LOOK_EVERY` such steps; a step that
    /// moves nothing reads it at once.
    #[test]
    fn a_wait_whose_every_step_moves_frames_still_reads_its_deadline() {
        let (core, mut host_tx, mut host_rx) = loopback_core();
        let engine = EngineHandle::attached(EngineSlot::new(core));
        let mut wait = HostWait::new(&engine);
        let passed = Instant::now();
        for step in 1..=DEADLINE_LOOK_EVERY {
            host_tx.try_push(data_frame(step)).unwrap();
            let looked = wait.idle_until(passed);
            assert!(host_rx.try_pop().is_some(), "step {step} moved nothing");
            if step < DEADLINE_LOOK_EVERY {
                assert_eq!(looked, Ok(()), "step {step} read the clock");
            } else {
                assert_eq!(looked, Err(DaggerError::Timeout));
            }
        }
        assert_eq!(wait.idle_until(passed), Err(DaggerError::Timeout));
        assert_eq!(
            wait.idle_until(passed + Duration::from_secs(60)),
            Ok(()),
            "an idle step backs off once the deadline is ahead"
        );
    }
}
