//! The NIC engine: the RX/TX FSMs of Fig. 8, sharded across worker threads.
//!
//! A NIC runs `num_queues` engine workers (the multi-queue scaling of
//! Fig. 11, applied to the functional datapath). Each worker owns one
//! [`EngineCore`]: a stripe of the flows (their TX/RX rings, see
//! [`queue_of_flow`]), a private fabric port queue, and private copies of
//! every datapath structure — buffer pool, connection-tuple cache, load
//! balancer, reliable-transport instance — so the hot path never shares
//! mutable state between workers, and every count lands in the worker's
//! own [`QueueStats`] bank. Shared pieces are the Packet Monitor's per-flow
//! banks, the Connection Manager mutex (reached on tuple-cache misses and
//! control frames), the soft register file, and the offload stage.
//!
//! Each [`EngineCore::step`] (one "tick") a worker:
//!
//! 1. **TX FSM** — drains its own flows' TX rings (the CCI-P fetch: one
//!    read takes what the ring holds, up to a datagram), looks up each run
//!    of a connection's frames once for destination credentials, routes
//!    the run to one of the destination NIC's queues
//!    ([`EngineCore::route`]), groups frames by `(destination, queue)`,
//!    and ships each group as one transport datagram.
//! 2. **RX FSM** — drains its fabric port queue, decodes datagrams, and
//!    classifies a message once, at its first frame in the datagram:
//!    control frames go to the Connection Manager ([`crate::connmgr`]),
//!    request lead frames to the offload stage ([`crate::offload`]) — each
//!    decides, the engine ships whatever reply lines come back — and a data
//!    frame is steered to a flow this worker owns, which the message's other
//!    frames follow. Each frame goes straight into its flow's RX ring.
//!
//! A frame never changes worker after the fabric (DESIGN.md §13). A
//! response is routed by its sender to the queue that owns the flow it
//! answers, so the worker that issued a request receives its response. A
//! request lands on its connection's RSS queue ([`route_queue`]), and that
//! queue's balancer steers it among the active flows the queue owns. A
//! frame the receiving worker cannot own — a response for another
//! worker's flow (a peer that routed by a wrong queue count), a request on
//! a queue owning no active flow — is a counted `rx_ring_drops`.
//!
//! When the NIC shares the physical bus with other virtual NICs, the engine
//! takes a grant from the [`CcipArbiter`](crate::arbiter::CcipArbiter)
//! before each bus round (Fig. 14); virtualization is single-queue (the
//! arbiter models one physical CCI-P bus interface).
//!
//! A core does not own a thread. [`EngineCore::step`] is the one seam every
//! driver goes through — the host thread waiting on one of the queue's
//! flows, or the queue's fallback engine thread (`drive.rs`, DESIGN.md §12)
//! — and the only caller of the round functions.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::channel::Receiver;
use parking_lot::Mutex;

use dagger_telemetry::{FlightEventKind, RpcEvent, Telemetry};
use dagger_types::{CacheLine, ConnectionId, FlowId, LbPolicy, NodeAddr, RpcHeader, RpcKind};

use crate::arbiter::ArbiterSlot;
use crate::bufpool::BufPool;
use crate::conncache::{ConnTupleCache, U64Map};
use crate::connmgr::{rx_control, CmPort, ConnectionManager, Control};
use crate::fabric::FabricPort;
use crate::lb::{fnv1a, LoadBalancer};
use crate::monitor::{PacketMonitor, QueueStats};
use crate::nic::queue_of_flow;
use crate::offload::OffloadState;
use crate::reliable::{FrameView, ReliableTransport};
use crate::ring::{RingConsumer, RingProducer};
use crate::softreg::SoftRegisterFile;
use crate::transport::{wire_frames, Datagram, MAX_LINES_PER_DATAGRAM};
use crate::wait::{EngineWaker, SpinWait};

/// The RSS route tag of a connection: every request of `cid` carries the
/// same tag, so [`route_queue`] sends the connection to one engine queue of
/// the destination NIC (per-connection order depends on it).
pub fn conn_route_tag(cid: ConnectionId) -> u64 {
    fnv1a(&cid.raw().to_le_bytes())
}

/// The queue of a destination with `queues` engine queues that the frame
/// with header `hdr` goes to. A response goes to the queue that owns the
/// flow it answers (`src_flow`, striped over `queues`), so the worker that
/// issued the request receives it; everything else goes to its
/// connection's queue, `conn_route_tag(cid) % queues`. No queues (an
/// unknown destination) routes to 0.
pub fn route_queue(hdr: &RpcHeader, queues: usize) -> u16 {
    let queue = match hdr.kind {
        RpcKind::Response => queue_of_flow(usize::from(hdr.src_flow.raw()), queues),
        _ => (conn_route_tag(hdr.connection_id) % queues.max(1) as u64) as usize,
    };
    queue as u16
}

/// Everything one engine worker owns or shares. A single-queue NIC has
/// exactly one; a sharded NIC has `num_queues`, each on its own thread.
pub(crate) struct EngineCore {
    pub addr: NodeAddr,
    /// This worker's queue index (also its fabric port queue).
    pub queue_id: u16,
    /// Total engine queues of this NIC.
    pub num_queues: usize,
    /// This worker's attachment point on the fabric backend (in-memory
    /// switch, UDP socket, …) — the engine is backend-oblivious.
    pub port: Arc<dyn FabricPort>,
    /// TX ring consumers, indexed by *global* flow id; `Some` only at the
    /// flows this worker owns (see [`queue_of_flow`]).
    pub tx_rings: Vec<Option<RingConsumer>>,
    /// RX ring producers, same global indexing and ownership as `tx_rings`.
    pub rx_rings: Vec<Option<RingProducer>>,
    pub conn_mgr: Arc<Mutex<ConnectionManager>>,
    pub softregs: Arc<SoftRegisterFile>,
    /// The NIC's Packet Monitor; the engine counts into its per-flow banks
    /// (and into `qstats`, its own entry of the per-queue banks).
    pub monitor: Arc<PacketMonitor>,
    /// Steers requests among the active flows this worker owns.
    pub lb: LoadBalancer,
    pub arbiter: Option<ArbiterSlot>,
    pub stop: Arc<AtomicBool>,
    /// Host → engine control-frame outbox (connection setup/teardown),
    /// routed through the same transport as data so ordering and
    /// reliability cover it. The channel is shared across workers:
    /// whichever worker dequeues a control datagram ships it (the remote
    /// side handles control frames on any queue, against the shared
    /// Connection Manager).
    pub ctrl_rx: Receiver<(NodeAddr, Datagram)>,
    /// The reliable-transport state machine (§4.5 follow-up), when the
    /// hard configuration enables it. Per worker, on this worker's queue:
    /// channels are keyed per `(peer, peer queue)`, so two workers never
    /// share sequence state.
    pub reliable: Option<ReliableTransport>,
    /// Datagrams deferred by reliable-transport window backpressure, with
    /// the destination queue their connection routed to.
    pub pending_out: VecDeque<(Datagram, u16)>,
    /// Grid tick of the last `RetransmitBurst` flight event. Bursts are
    /// coalesced to one event per tick: a blackholed peer makes every
    /// retransmit timeout a burst — thousands per second from a spinning
    /// engine — and one event per burst laps the flight ring, evicting the
    /// partition that caused them.
    pub burst_tick: u64,
    /// Frames retransmitted since that event.
    pub burst_frames: u64,
    /// Telemetry hub shared with the host side; the engine stamps the
    /// pickup / receive / deliver trace events of the request path.
    pub telemetry: Arc<Telemetry>,
    /// Free lists of reusable wire buffers and line vectors (§4.4: the
    /// hardware datapath never allocates per frame; neither do we in
    /// steady state). Private per worker.
    pub pool: BufPool,
    /// Worker-private connection-tuple cache; the shared `conn_mgr` mutex
    /// is taken only on a miss (§4.4.1 HCC analogue).
    pub conn_cache: ConnTupleCache,
    /// Persistent per-`(destination, queue)` TX staging table, rebuilt by
    /// clearing.
    pub stage: Vec<TxStage>,
    /// `(dst << 16 | dst_queue) → stage index` for the current round
    /// (cleared, not dropped).
    pub stage_idx: U64Map<usize>,
    /// Wakeup latch: producers (fabric delivery to this queue, host TX
    /// pushes on owned flows, control sends, shutdown) wake this worker out
    /// of its idle park.
    pub waker: Arc<EngineWaker>,
    /// This worker's counter bank — `monitor.queues()[queue_id]`, the only
    /// cell any engine count touches (`nic.<addr>.q<i>.*` gauges; the
    /// whole-NIC `nic.<addr>.*` is the sum over workers).
    pub qstats: Arc<QueueStats>,
    /// Shutdown rendezvous: a worker increments it once it has drained its
    /// own TX side, and keeps its RX side live until every sibling has.
    pub stop_barrier: Arc<AtomicUsize>,
    /// Per-flow TX fetch scratch: the batch-pop target of `tx_round`.
    /// Persistent so the steady-state round never allocates.
    pub tx_scratch: Vec<CacheLine>,
    /// Encoded datagrams staged by the current round, submitted with one
    /// [`FabricPort::send_many`] per round (doorbell amortization: the
    /// backend is poked once per round, not once per datagram).
    pub wire_out: Vec<(NodeAddr, u16, Vec<u8>)>,
    /// The NIC-wide on-NIC offload stage (NIC-side serde + the hot-key
    /// response cache, DESIGN.md §18), shared by every worker. Inert until
    /// a spec is installed.
    pub offload: Arc<OffloadState>,
}

/// The handles every worker of one NIC shares. [`EngineCore::new`] clones
/// out of it what a worker keeps.
pub(crate) struct NicShared {
    pub addr: NodeAddr,
    pub conn_mgr: Arc<Mutex<ConnectionManager>>,
    pub softregs: Arc<SoftRegisterFile>,
    pub monitor: Arc<PacketMonitor>,
    pub stop: Arc<AtomicBool>,
    pub stop_barrier: Arc<AtomicUsize>,
    pub ctrl_rx: Receiver<(NodeAddr, Datagram)>,
    pub telemetry: Arc<Telemetry>,
    /// Every worker's waker, indexed by queue (so its length is the
    /// NIC's queue count).
    pub wakers: Vec<Arc<EngineWaker>>,
    pub offload: Arc<OffloadState>,
}

/// The pieces only one worker holds.
pub(crate) struct WorkerParts {
    pub queue_id: u16,
    pub port: Arc<dyn FabricPort>,
    pub tx_rings: Vec<Option<RingConsumer>>,
    pub rx_rings: Vec<Option<RingProducer>>,
    pub reliable: Option<ReliableTransport>,
    pub arbiter: Option<ArbiterSlot>,
}

/// One `(destination, queue)`'s staged lines for the current TX round. The
/// `lines` vector circulates: stage → datagram → (wire or retransmit
/// window) → pool → stage.
#[derive(Default)]
pub(crate) struct TxStage {
    pub dst: NodeAddr,
    pub dst_queue: u16,
    pub lines: Vec<CacheLine>,
}

/// What one [`EngineCore::step`] found, i.e. what its driver may do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Progress {
    /// At least one round moved a frame: step again.
    Moved,
    /// Nothing moved, but something tick-driven is outstanding (a retransmit
    /// deadline, a deferred send, an arbiter rotation): keep ticking.
    Ticking,
    /// Nothing moved and nothing is outstanding: the driver may park.
    Idle,
}

impl EngineCore {
    /// Builds the worker for `parts.queue_id`: the NIC-shared handles, the
    /// worker's own rings, port and transport, and every piece of private
    /// round state in its initial (empty) form — the one place an
    /// `EngineCore` is put together.
    pub(crate) fn new(shared: &NicShared, parts: WorkerParts) -> Self {
        let q = usize::from(parts.queue_id);
        let num_queues = shared.wakers.len();
        let qstats = Arc::clone(&shared.monitor.queues()[q]);
        EngineCore {
            addr: shared.addr,
            queue_id: parts.queue_id,
            num_queues,
            port: parts.port,
            tx_rings: parts.tx_rings,
            rx_rings: parts.rx_rings,
            conn_mgr: Arc::clone(&shared.conn_mgr),
            softregs: Arc::clone(&shared.softregs),
            monitor: Arc::clone(&shared.monitor),
            lb: LoadBalancer::new(LbPolicy::Uniform, (0, 32)),
            arbiter: parts.arbiter,
            stop: Arc::clone(&shared.stop),
            ctrl_rx: shared.ctrl_rx.clone(),
            reliable: parts.reliable,
            pending_out: VecDeque::new(),
            burst_tick: 0,
            burst_frames: 0,
            telemetry: Arc::clone(&shared.telemetry),
            pool: BufPool::default(),
            conn_cache: ConnTupleCache::new(shared.conn_mgr.lock().generation_handle()),
            stage: Vec::new(),
            stage_idx: U64Map::default(),
            waker: Arc::clone(&shared.wakers[q]),
            qstats,
            stop_barrier: Arc::clone(&shared.stop_barrier),
            tx_scratch: Vec::new(),
            wire_out: Vec::new(),
            offload: Arc::clone(&shared.offload),
        }
    }

    /// One engine tick: every round once, in the one order they run in.
    /// Whoever holds the core drives it — a waiting host thread, the
    /// fallback engine thread, the shutdown drain, a unit test.
    pub(crate) fn step(&mut self) -> Progress {
        if let Some(slot) = &self.arbiter {
            slot.acquire();
        }
        let mut moved = self.flush_pending();
        moved |= self.ctrl_round();
        moved |= self.tx_round();
        moved |= self.rx_round();
        self.reliable_tick();
        if moved {
            Progress::Moved
        } else if self.can_idle_park() {
            Progress::Idle
        } else {
            Progress::Ticking
        }
    }

    /// Steps until a step moves nothing.
    fn step_until_quiet(&mut self) {
        while self.step() == Progress::Moved {}
    }

    /// Two-phase shutdown. Phase 1 steps until this worker has nothing left to
    /// *originate* (control sends, host TX rings, deferred datagrams), then
    /// passes the barrier. Phase 2 keeps stepping until every sibling has
    /// passed its own phase 1, so frames a sibling sent this queue over the
    /// fabric at the last moment are not stranded in a port nobody drains.
    /// A final sweep then flushes what has already arrived.
    pub(crate) fn shutdown_drain(&mut self) {
        self.step_until_quiet();
        self.stop_barrier.fetch_add(1, Ordering::AcqRel);
        let mut idle = SpinWait::new();
        while self.stop_barrier.load(Ordering::Acquire) < self.num_queues {
            if self.step() == Progress::Moved {
                idle.reset();
            } else {
                idle.snooze();
            }
        }
        self.step_until_quiet();
        self.drain_pending_on_stop();
    }

    /// Parking is safe only when nothing tick-driven is outstanding: no
    /// arbiter rotation to keep granting, no window-deferred datagrams, and
    /// the reliable transport has neither unacked frames, owed acks, nor
    /// retired buffers to recycle.
    fn can_idle_park(&self) -> bool {
        self.arbiter.is_none()
            && self.pending_out.is_empty()
            && self
                .reliable
                .as_ref()
                .is_none_or(ReliableTransport::is_idle)
    }

    /// Shutdown flush for the reliable transport: one final retransmission
    /// pass re-emits every already-sequenced frame the peer is not known to
    /// hold (unacked and unsacked), then the datagrams deferred by window
    /// backpressure are force-sequenced onto the wire — in that order, so a
    /// live peer receives the complete in-order stream even though this
    /// engine will process no further acks.
    fn drain_pending_on_stop(&mut self) {
        let Some(mut rel) = self.reliable.take() else {
            debug_assert!(
                self.pending_out.is_empty(),
                "only the reliable transport's window defers datagrams"
            );
            return;
        };
        let pool = &mut self.pool;
        let port = &self.port;
        rel.retransmit_unacked_with(|view| {
            let mut out = pool.get_bytes();
            view.encode_into(&mut out);
            let _ = port.send_to(view.dst(), view.dst_queue(), out);
        });
        while let Some((dgram, dst_queue)) = self.pending_out.pop_front() {
            let count = dgram.lines.len() as u64;
            let dst = dgram.dst;
            let mut out = self.pool.get_bytes();
            rel.on_send_forced_encode_to(dgram, dst_queue, &mut out);
            if self.port.send_to(dst, dst_queue, out).is_ok() {
                self.qstats.tx_frames.add(count);
                self.qstats.tx_datagrams.inc();
            }
        }
        self.reliable = Some(rel);
    }

    fn active_flows(&self) -> usize {
        let soft = self.softregs.active_flows() as usize;
        if soft == 0 || soft > self.tx_rings.len() {
            self.tx_rings.len()
        } else {
            soft
        }
    }

    /// TX FSM: read each owned flow's TX ring once, taking what it holds up
    /// to a datagram, and ship what the round read as one datagram per
    /// `(destination, destination queue)`.
    fn tx_round(&mut self) -> bool {
        // Persistent staging table, cleared with capacity kept: grouping by
        // destination is a hash probe + push, never an allocation.
        self.stage_idx.clear();
        for st in &mut self.stage {
            st.lines.clear();
        }
        let mut progress = false;
        let offload_cap = self.softregs.offload_cache_entries() as usize;
        // Every provisioned flow transmits (the active-flow register only
        // narrows RX steering); this worker polls the flows it owns.
        for flow in 0..self.tx_rings.len() {
            let Some(ring) = self.tx_rings[flow].as_mut() else {
                continue;
            };
            // One read takes what the ring holds, up to a full datagram: a
            // message leaves as one datagram.
            self.tx_scratch.clear();
            let fetched = ring.try_pop_batch(&mut self.tx_scratch, MAX_LINES_PER_DATAGRAM);
            if fetched == 0 {
                continue;
            }
            progress = true;
            self.monitor.flows()[flow].tx_frames.add(fetched as u64);
            // The previous frame's route inputs and stage: a run of frames
            // that route alike — one connection's requests, or its
            // responses to one flow (`route`) — is classified once.
            let mut last: Option<((ConnectionId, Option<FlowId>), usize)> = None;
            for i in 0..fetched {
                let line = self.tx_scratch[i];
                let Ok(hdr) = RpcHeader::decode(line.header()) else {
                    self.qstats.unknown_connection_drops.inc();
                    continue;
                };
                self.stamp_lead(&hdr, RpcEvent::EnginePickup);
                // TX half of the offload stage (DESIGN.md §18).
                self.offload.tx_response(&hdr, &line, offload_cap);
                let cid = hdr.connection_id;
                let class = (cid, (hdr.kind == RpcKind::Response).then_some(hdr.src_flow));
                let idx = match last {
                    Some((prev, idx)) if prev == class => idx,
                    _ => {
                        let Some(tuple) = self.conn_cache.lookup(cid, CmPort::Tx, &self.conn_mgr)
                        else {
                            self.qstats.unknown_connection_drops.inc();
                            continue;
                        };
                        let idx = self.stage_for(&hdr, tuple.dest_addr);
                        last = Some((class, idx));
                        idx
                    }
                };
                self.stage[idx].lines.push(line);
            }
        }
        // Ship each destination's stage, moving the staged vector into the
        // datagram and backfilling the slot from the pool.
        for i in 0..self.stage_idx.len() {
            let TxStage { dst, dst_queue, .. } = self.stage[i];
            // A stage that several flows filled past a datagram peels full
            // datagrams into pooled heads.
            while self.stage[i].lines.len() > MAX_LINES_PER_DATAGRAM {
                let mut head = self.pool.get_lines();
                head.extend(self.stage[i].lines.drain(..MAX_LINES_PER_DATAGRAM));
                self.send_datagram(Datagram::new(self.addr, dst, head), dst_queue);
            }
            if self.stage[i].lines.is_empty() {
                continue;
            }
            let lines = std::mem::replace(&mut self.stage[i].lines, self.pool.get_lines());
            self.send_datagram(Datagram::new(self.addr, dst, lines), dst_queue);
        }
        self.flush_wire();
        progress
    }

    /// This round's stage for `hdr`'s frame toward `dst`:
    /// [`EngineCore::route`] picks the queue, and the round's first
    /// frame toward a `(dst, queue)` claims the next table entry (the table
    /// grows only the first time a round touches that many pairs).
    fn stage_for(&mut self, hdr: &RpcHeader, dst: NodeAddr) -> usize {
        let dst_queue = self.route(hdr, dst);
        let next = self.stage_idx.len();
        let key = u64::from(dst.raw()) << 16 | u64::from(dst_queue);
        let i = *self.stage_idx.entry(key).or_insert(next);
        if i == self.stage.len() {
            self.stage.push(TxStage::default());
        }
        (self.stage[i].dst, self.stage[i].dst_queue) = (dst, dst_queue);
        i
    }

    /// The destination queue of `hdr`'s frame toward `dst` — the one
    /// routing decision: every frame this engine originates (data, control,
    /// open-acks, offload hits) takes its queue from here ([`route_queue`]
    /// over the destination's queue count).
    fn route(&self, hdr: &RpcHeader, dst: NodeAddr) -> u16 {
        route_queue(hdr, self.port.fabric().queue_count(dst))
    }

    /// Ships one datagram toward `dst_queue` of its destination, through
    /// the reliable transport when enabled. Window backpressure defers the
    /// datagram (with its queue) to a later round.
    fn send_datagram(&mut self, dgram: Datagram, dst_queue: u16) {
        let count = dgram.lines.len() as u64;
        let dst = dgram.dst;
        let mut out = self.pool.get_bytes();
        match &mut self.reliable {
            Some(rel) => {
                if let Err(dgram) = rel.on_send_encode_to(dgram, dst_queue, &mut out) {
                    // The channel's window is full: defer.
                    self.pool.put_bytes(out);
                    self.qstats.tx_window_deferrals.inc();
                    self.pending_out.push_back((dgram, dst_queue));
                    return;
                }
                // The datagram itself moved into the retransmit window; its
                // lines come back through `drain_retired` once acked.
            }
            None => {
                dgram.encode_into(&mut out);
                // Unreliable: the bytes are the wire copy; the lines are
                // done and recycle immediately.
                self.pool.put_lines(dgram.lines);
            }
        }
        // Stage for the round's single `send_many` submit; every round that
        // can reach here ends with a `flush_wire` call, which reads each
        // datagram's frame count back off its encoded length.
        debug_assert_eq!(wire_frames(&out), count);
        self.wire_out.push((dst, dst_queue, out));
    }

    /// Submits every datagram the current round staged with one
    /// [`FabricPort::send_many`] call — the doorbell amortization of
    /// §4.4.1. Counters are stamped per batch: accepted datagrams and their
    /// frames count as transmitted; the ones the backend left behind
    /// (unknown destination) count as drops, per frame like every other
    /// drop site, and their buffers go back to the pool.
    fn flush_wire(&mut self) {
        if self.wire_out.is_empty() {
            return;
        }
        let frames_of = |wire: &[(NodeAddr, u16, Vec<u8>)]| -> u64 {
            wire.iter().map(|(_, _, bytes)| wire_frames(bytes)).sum()
        };
        let staged = frames_of(&self.wire_out);
        let sent = self.port.send_many(&mut self.wire_out);
        let rejected = frames_of(&self.wire_out);
        self.qstats.tx_frames.add(staged - rejected);
        self.qstats.tx_datagrams.add(sent as u64);
        if !self.wire_out.is_empty() {
            self.qstats.unknown_connection_drops.add(rejected);
            for (_, _, bytes) in self.wire_out.drain(..) {
                self.pool.put_bytes(bytes);
            }
        }
    }

    /// Retries datagrams deferred by window backpressure (they re-defer if
    /// the window is still closed). Progress is a datagram that shipped,
    /// not a retry: a closed window must not read as work.
    fn flush_pending(&mut self) -> bool {
        let deferred = self.pending_out.len();
        // One retry per deferred datagram (length sampled up front):
        // re-deferrals go to the back and wait for the next round, so the
        // loop terminates without draining into a scratch Vec.
        for _ in 0..deferred {
            let Some((dgram, dst_queue)) = self.pending_out.pop_front() else {
                break;
            };
            self.send_datagram(dgram, dst_queue);
        }
        self.flush_wire();
        self.pending_out.len() < deferred
    }

    /// Drains the host's control outbox. Each control datagram is routed
    /// like data: its connection's route picks the destination queue, so an
    /// open/close and the connection's requests share a channel.
    fn ctrl_round(&mut self) -> bool {
        let mut progress = false;
        for _ in 0..16 {
            let Ok((dst, dgram)) = self.ctrl_rx.try_recv() else {
                break;
            };
            progress = true;
            self.originate(dst, dgram.lines);
        }
        self.flush_wire();
        progress
    }

    /// Advances the reliable transport: standalone acks + retransmissions,
    /// each encoded straight into a pooled buffer and addressed to the
    /// channel's queue; ack-retired line vectors are recycled first. An
    /// idle tick touches no heap at all.
    fn reliable_tick(&mut self) {
        let Some(rel) = self.reliable.as_mut() else {
            return;
        };
        let pool = &mut self.pool;
        rel.drain_retired(|lines| pool.put_lines(lines));
        // Acks and retransmissions of one tick ship as one `send_many`
        // batch; `wire_out` is always empty between rounds, so borrowing it
        // here keeps the staging vector's capacity shared with the rounds.
        debug_assert!(self.wire_out.is_empty());
        let mut wire = std::mem::take(&mut self.wire_out);
        // Data frames emitted here are always retransmissions (first sends
        // go through `send_datagram`); count them for the flight recorder.
        let mut retransmits = 0u64;
        rel.on_tick_with(|view| {
            if matches!(view, FrameView::Data { .. }) {
                retransmits += 1;
            }
            let mut out = pool.get_bytes();
            view.encode_into(&mut out);
            wire.push((view.dst(), view.dst_queue(), out));
        });
        if !wire.is_empty() {
            // Frames toward a detached peer stay unacked in the window;
            // only their wire copies are recycled here.
            self.port.send_many(&mut wire);
            for (_, _, bytes) in wire.drain(..) {
                pool.put_bytes(bytes);
            }
        }
        self.wire_out = wire;
        if retransmits > 0 {
            // At most one event per grid tick per queue, carrying every
            // frame retransmitted since the previous one.
            self.burst_frames += retransmits;
            let flight = self.telemetry.flight();
            let tick = flight.tick_now();
            if tick != self.burst_tick {
                flight.record_at(
                    tick,
                    FlightEventKind::RetransmitBurst,
                    self.addr.raw(),
                    u64::from(self.queue_id),
                    self.burst_frames,
                );
                self.burst_tick = tick;
                self.burst_frames = 0;
            }
        }
    }

    /// RX FSM: drain this worker's fabric port queue, handle control
    /// frames, steer data frames into their flows' RX rings.
    fn rx_round(&mut self) -> bool {
        let mut progress = false;
        // Bound the number of datagrams per round to keep the loop fair.
        for _ in 0..64 {
            let Some(bytes) = self.port.try_recv() else {
                break;
            };
            progress = true;
            let decoded = match &mut self.reliable {
                Some(rel) => match rel.on_recv(&bytes) {
                    Ok(opt) => opt, // None: ack, duplicate, or gap
                    Err(_) => {
                        // Undecodable off the wire (truncated or corrupted);
                        // the sender's retransmit timer treats it as loss
                        // and repairs.
                        self.qstats.wire_drops.inc();
                        None
                    }
                },
                None => {
                    let mut lines = self.pool.get_lines();
                    match Datagram::decode_lines_into(&bytes, &mut lines) {
                        Ok((src, dst)) => Some(Datagram { src, dst, lines }),
                        Err(_) => {
                            self.pool.put_lines(lines);
                            self.qstats.wire_drops.inc();
                            None
                        }
                    }
                }
            };
            // The wire buffer's journey ends here: recycle it so this
            // engine's own TX side (and future RX decodes) reuse it.
            self.pool.put_bytes(bytes);
            if let Some(dgram) = decoded {
                self.absorb_datagram(dgram);
            }
            // The transport may have released buffered successors when the
            // arrival above filled a gap; deliver the whole run now.
            while let Some(dgram) = self
                .reliable
                .as_mut()
                .and_then(ReliableTransport::next_ready)
            {
                self.absorb_datagram(dgram);
            }
        }
        // Replies staged by `classify` (open-acks, offload hits) ship here.
        self.flush_wire();
        progress
    }

    /// Steers one decoded, in-sequence datagram's frames into the RX path
    /// and recycles its line vector. A message moves as one unit: a frame
    /// that continues the one before it ([`RpcHeader::continues`]) follows
    /// it into the same flow, so only the first frame is classified.
    fn absorb_datagram(&mut self, dgram: Datagram) {
        self.qstats.rx_datagrams.inc();
        self.qstats.rx_frames.add(dgram.lines.len() as u64);
        let mut run = None;
        for &line in &dgram.lines {
            run = self.rx_frame(line, run);
        }
        match &mut self.reliable {
            Some(rel) => rel.recycle_rx_lines(dgram.lines),
            None => self.pool.put_lines(dgram.lines),
        }
    }

    /// Ships `lines` (frames this engine originates: control, open-acks,
    /// offload hits) toward `dst` on the queue [`EngineCore::route`] picks
    /// for the first frame.
    fn originate(&mut self, dst: NodeAddr, lines: Vec<CacheLine>) {
        let first = lines
            .first()
            .and_then(|l| RpcHeader::decode(l.header()).ok());
        let dst_queue = first.map_or(0, |hdr| self.route(&hdr, dst));
        self.send_datagram(Datagram::new(self.addr, dst, lines), dst_queue);
    }

    /// One received frame: decode; follow `run` (the header and flow of the
    /// frame before it) if this frame continues it, else classify; then the
    /// CCI-P write into the flow's RX ring. Returns the next frame's run.
    fn rx_frame(
        &mut self,
        line: CacheLine,
        run: Option<(RpcHeader, usize)>,
    ) -> Option<(RpcHeader, usize)> {
        let Ok(hdr) = RpcHeader::decode(line.header()) else {
            self.qstats.unknown_connection_drops.inc();
            return None;
        };
        let flow = match run {
            Some((prev, flow)) if hdr.continues(&prev) => flow,
            _ => self.classify(&hdr, &line)?,
        };
        // `steer` only picks owned flows; a missing ring would be a
        // steering bug, counted like a full one rather than lost silently.
        let delivered = self.rx_rings[flow]
            .as_mut()
            .is_some_and(|ring| ring.try_push(line).is_ok());
        let bank = &self.monitor.flows()[flow];
        if delivered {
            bank.rx_frames.inc();
            self.stamp_lead(&hdr, RpcEvent::RxDeliver);
        } else {
            self.qstats.rx_ring_drops.inc();
            bank.rx_ring_drops.inc();
        }
        Some((hdr, flow))
    }

    /// The flow a frame that starts a run goes to, after control, the trace
    /// stamp, the tuple lookup, offload and steering; `None` when one of
    /// them consumed or dropped it.
    fn classify(&mut self, hdr: &RpcHeader, line: &CacheLine) -> Option<usize> {
        match rx_control(hdr, line, &self.conn_mgr) {
            Control::Data => {}
            Control::Done => return None,
            Control::Ack { to, line: ack } => {
                let mut lines = self.pool.get_lines();
                lines.push(ack);
                self.originate(to, lines);
                return None;
            }
        }
        self.stamp_lead(hdr, RpcEvent::EngineRx);
        let cache = &mut self.conn_cache;
        let Some(tuple) = cache.lookup(hdr.connection_id, CmPort::Rx, &self.conn_mgr) else {
            self.qstats.unknown_connection_drops.inc();
            return None;
        };
        // RX half of the on-NIC offload stage (DESIGN.md §18): a cacheable
        // read that hits comes back as its response lines — the frame never
        // reaches a host core; everything else steers on.
        if let Some(hit) = self.offload.rx_request(
            hdr,
            line,
            usize::from(self.queue_id),
            self.softregs.offload_cache_entries() as usize,
            &mut self.pool,
        ) {
            self.originate(tuple.dest_addr, hit);
            return None;
        }
        let Some(flow) = self.steer(hdr, line.payload(), tuple.lb, tuple.src_flow) else {
            // A frame this worker cannot own: counted, never passed on.
            self.qstats.rx_ring_drops.inc();
            return None;
        };
        debug_assert_eq!(
            queue_of_flow(flow, self.num_queues),
            usize::from(self.queue_id),
            "flow {flow} delivered by a worker that does not own it"
        );
        Some(flow)
    }

    /// Stamps `event` when `hdr` is a request's lead frame.
    fn stamp_lead(&self, hdr: &RpcHeader, event: RpcEvent) {
        if hdr.kind == RpcKind::Request && hdr.frame_idx == 0 {
            let tracer = self.telemetry.tracer();
            tracer.record(hdr.connection_id.raw(), hdr.rpc_id.raw(), event);
        }
    }

    /// The flow a data frame belongs to, among the flows this worker owns,
    /// or `None` when it owns no fitting flow.
    ///
    /// A response returns to the flow that issued its request. Its sender
    /// routed it to queue `src_flow % num_queues` (`route`), so that is
    /// the owner test; a `src_flow` beyond this NIC's flows folds onto the
    /// flows that queue owns (`q`, `q + num_queues`, …), which leaves every
    /// in-range flow itself. A request is steered by this worker's balancer
    /// among the active flows it owns — the same stripe, below
    /// `active_flows` — with the connection's policy (or the soft
    /// register's, for Uniform connections).
    fn steer(
        &mut self,
        hdr: &RpcHeader,
        payload: &[u8],
        policy: LbPolicy,
        static_flow: FlowId,
    ) -> Option<usize> {
        let (q, nq) = (usize::from(self.queue_id), self.num_queues);
        if hdr.kind == RpcKind::Response {
            let src = usize::from(hdr.src_flow.raw());
            // Never zero: the config gives every queue at least one flow.
            let owned = self.rx_rings.len().saturating_sub(q).div_ceil(nq);
            return (queue_of_flow(src, nq) == q).then(|| q + (src / nq % owned) * nq);
        }
        let slots = self.active_flows().saturating_sub(q).div_ceil(nq);
        if slots == 0 {
            return None;
        }
        // Soft-reconfigurable policy selection.
        self.lb.set_policy(match policy {
            LbPolicy::Uniform => self.softregs.lb_policy(),
            pinned => pinned,
        });
        let slot = self.lb.steer(hdr, payload, slots, Some(static_flow));
        Some(q + slot * nq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_counter;
    use crate::connmgr::ConnectionTuple;
    use crate::fabric::{Fabric, MemFabric};
    use crate::ring::ring;
    use crate::softreg::SoftRegisterFile;
    use dagger_types::{FnId, RpcId};

    /// The NIC-shared handles of a hand-driven NIC at address 1 whose single
    /// connection's destination is its own fabric address, so TX datagrams
    /// loop straight into its RX side.
    fn looped_shared(flows: usize, queues: usize) -> NicShared {
        let addr = NodeAddr(1);
        let conn_mgr = Arc::new(Mutex::new(ConnectionManager::new(16)));
        conn_mgr
            .lock()
            .open(
                ConnectionId(1),
                ConnectionTuple {
                    src_flow: FlowId(0),
                    dest_addr: addr,
                    lb: LbPolicy::Uniform,
                },
            )
            .unwrap();
        let softregs = SoftRegisterFile::default();
        softregs.set_active_flows(flows as u16);
        // These tests drive rounds by hand and never send control frames.
        let (_ctrl_tx, ctrl_rx) = crossbeam::channel::unbounded();
        NicShared {
            addr,
            conn_mgr,
            softregs: Arc::new(softregs),
            monitor: Arc::new(PacketMonitor::new(flows, queues)),
            stop: Arc::new(AtomicBool::new(false)),
            stop_barrier: Arc::new(AtomicUsize::new(0)),
            ctrl_rx,
            telemetry: Telemetry::new(),
            wakers: (0..queues).map(|_| Arc::new(EngineWaker::new())).collect(),
            offload: Arc::new(OffloadState::new(queues)),
        }
    }

    /// Builds an engine core wired back to itself, so every pooled buffer
    /// circulates.
    fn loopback_core() -> (
        EngineCore,
        crate::ring::RingProducer,
        crate::ring::RingConsumer,
    ) {
        loopback_core_with(64, 64)
    }

    /// [`loopback_core`] with a TX ring of `tx_cap` and an RX ring of
    /// `rx_cap` lines.
    fn loopback_core_with(
        tx_cap: usize,
        rx_cap: usize,
    ) -> (
        EngineCore,
        crate::ring::RingProducer,
        crate::ring::RingConsumer,
    ) {
        let (core, mut host_tx, mut host_rx) = one_queue_core(1, tx_cap, rx_cap);
        (core, host_tx.remove(0), host_rx.remove(0))
    }

    /// A looped single-queue core owning `flows` flows, each with a TX ring
    /// of `tx_cap` and an RX ring of `rx_cap` lines. Returns the core and
    /// the host ends of every flow's rings.
    fn one_queue_core(
        flows: usize,
        tx_cap: usize,
        rx_cap: usize,
    ) -> (
        EngineCore,
        Vec<crate::ring::RingProducer>,
        Vec<crate::ring::RingConsumer>,
    ) {
        let shared = looped_shared(flows, 1);
        let fabric = MemFabric::new();
        let (mut host_tx, mut host_rx) = (Vec::new(), Vec::new());
        let (mut tx_rings, mut rx_rings) = (Vec::new(), Vec::new());
        for _ in 0..flows {
            let (h_tx, e_rx) = ring(tx_cap);
            let (e_tx, h_rx) = ring(rx_cap);
            host_tx.push(h_tx);
            host_rx.push(h_rx);
            tx_rings.push(Some(e_rx));
            rx_rings.push(Some(e_tx));
        }
        let parts = WorkerParts {
            queue_id: 0,
            port: fabric.attach_queues(shared.addr, 1).unwrap().remove(0),
            tx_rings,
            rx_rings,
            reliable: None,
            arbiter: None,
        };
        (EngineCore::new(&shared, parts), host_tx, host_rx)
    }

    /// Builds a 2-queue sharded NIC with `flows` flows as two hand-driven
    /// [`EngineCore`]s on one fabric address: queue `q` owns flows `q`,
    /// `q + 2`, …. The single connection loops back to the NIC's own
    /// address, so each worker's TX datagrams land on the queue each frame
    /// routes to. Returns the cores and the host ends of every flow's TX
    /// and RX rings.
    fn sharded_pair(
        flows: usize,
    ) -> (
        Vec<EngineCore>,
        Vec<crate::ring::RingProducer>,
        Vec<crate::ring::RingConsumer>,
    ) {
        let shared = looped_shared(flows, 2);
        let fabric = MemFabric::new();
        let ports = fabric.attach_queues(shared.addr, 2).unwrap();

        let (mut host_tx, mut host_rx) = (Vec::new(), Vec::new());
        let mut tx_rings = [Vec::new(), Vec::new()];
        let mut rx_rings = [Vec::new(), Vec::new()];
        for flow in 0..flows {
            let (h_tx, e_rx) = ring(64);
            let (e_tx, h_rx) = ring(64);
            host_tx.push(h_tx);
            host_rx.push(h_rx);
            let (mut e_rx, mut e_tx) = (Some(e_rx), Some(e_tx));
            for q in 0..2 {
                let owner = queue_of_flow(flow, 2) == q;
                tx_rings[q].push(if owner { e_rx.take() } else { None });
                rx_rings[q].push(if owner { e_tx.take() } else { None });
            }
        }

        let cores = ports
            .into_iter()
            .enumerate()
            .map(|(q, port)| {
                let parts = WorkerParts {
                    queue_id: q as u16,
                    port,
                    tx_rings: std::mem::take(&mut tx_rings[q]),
                    rx_rings: std::mem::take(&mut rx_rings[q]),
                    reliable: None,
                    arbiter: None,
                };
                EngineCore::new(&shared, parts)
            })
            .collect();
        (cores, host_tx, host_rx)
    }

    /// A data frame on connection 1. `Response` kind pins steering to
    /// `src_flow` and keeps the (disabled anyway) tracer entirely out of
    /// the path under measurement.
    fn data_frame(rpc: u32) -> CacheLine {
        let mut line = CacheLine::zeroed();
        let hdr = RpcHeader {
            connection_id: ConnectionId(1),
            rpc_id: RpcId(rpc),
            fn_id: FnId(7),
            src_flow: FlowId(0),
            kind: RpcKind::Response,
            frame_idx: 0,
            frame_count: 1,
            frame_payload_len: 8,
            traced: false,
            offloaded: false,
        };
        hdr.encode(line.header_mut());
        line.payload_mut()[..8].copy_from_slice(&u64::from(rpc).to_le_bytes());
        line
    }

    /// A response frame pinned (via `src_flow`) to the given flow.
    fn response_frame(rpc: u32, flow: u16) -> CacheLine {
        let mut line = CacheLine::zeroed();
        let hdr = RpcHeader {
            connection_id: ConnectionId(1),
            rpc_id: RpcId(rpc),
            fn_id: FnId(7),
            src_flow: FlowId(flow),
            kind: RpcKind::Response,
            frame_idx: 0,
            frame_count: 1,
            frame_payload_len: 8,
            traced: false,
            offloaded: false,
        };
        hdr.encode(line.header_mut());
        line.payload_mut()[..8].copy_from_slice(&u64::from(rpc).to_le_bytes());
        line
    }

    /// `line` with its header rewritten by `edit`.
    fn restamped(mut line: CacheLine, edit: impl FnOnce(&mut RpcHeader)) -> CacheLine {
        let mut hdr = RpcHeader::decode(line.header()).unwrap();
        edit(&mut hdr);
        hdr.encode(line.header_mut());
        line
    }

    /// Frame `idx` of a `count`-frame response `rpc` on connection 1.
    fn message_frame(rpc: u32, idx: u8, count: u8) -> CacheLine {
        restamped(data_frame(rpc), |h| {
            (h.frame_idx, h.frame_count) = (idx, count)
        })
    }

    /// Frame `idx` of a `count`-frame request `rpc` on connection 1.
    fn request_frame(rpc: u32, idx: u8, count: u8) -> CacheLine {
        restamped(message_frame(rpc, idx, count), |h| {
            h.kind = RpcKind::Request
        })
    }

    /// RX and TX tuple lookups `core` has made.
    fn lookups(core: &EngineCore) -> u64 {
        let s = core.conn_cache.shared_stats().snapshot();
        s.hits + s.misses
    }

    /// A data frame on connection 2, which this opens toward `dst` — any
    /// address other than the core's own.
    fn frame_toward(core: &EngineCore, dst: NodeAddr, rpc: u32) -> CacheLine {
        let tuple = ConnectionTuple {
            src_flow: FlowId(0),
            dest_addr: dst,
            lb: LbPolicy::Uniform,
        };
        let _ = core.conn_mgr.lock().open(ConnectionId(2), tuple);
        restamped(data_frame(rpc), |h| h.connection_id = ConnectionId(2))
    }

    /// The rpc ids of `lines`, in order.
    fn rpc_ids(lines: &[CacheLine]) -> Vec<u32> {
        lines
            .iter()
            .map(|l| RpcHeader::decode(l.header()).unwrap().rpc_id.raw())
            .collect()
    }

    /// Every line waiting in `host_rx`, in ring order.
    fn drain(host_rx: &mut crate::ring::RingConsumer) -> Vec<CacheLine> {
        std::iter::from_fn(|| host_rx.try_pop()).collect()
    }

    /// Steps `core` once and collects every line delivered to `host_rx`:
    /// a frame reaches its RX ring in the step that receives it.
    fn step_out(core: &mut EngineCore, host_rx: &mut crate::ring::RingConsumer) -> Vec<CacheLine> {
        core.step();
        drain(host_rx)
    }

    /// One full loopback cycle in one step: the host pushes `frames`, TX
    /// ships them to the engine's own port, RX steers each into the RX
    /// ring, and the "host" drains it.
    fn cycle(
        core: &mut EngineCore,
        host_tx: &mut crate::ring::RingProducer,
        host_rx: &mut crate::ring::RingConsumer,
        frames: impl IntoIterator<Item = CacheLine>,
    ) {
        let mut burst = 0;
        for line in frames {
            host_tx.try_push(line).unwrap();
            burst += 1;
        }
        core.step();
        let mut back = 0;
        while host_rx.try_pop().is_some() {
            back += 1;
        }
        assert_eq!(back, burst, "frames lost in the loop");
    }

    #[test]
    fn steady_state_step_performs_zero_heap_allocations() {
        let (mut core, mut host_tx, mut host_rx) = loopback_core();
        // Warm-up: fill the buffer pool, size the staging table and the
        // connection cache, and let every recycled Vec reach its
        // steady-state capacity.
        for _ in 0..8 {
            cycle(
                &mut core,
                &mut host_tx,
                &mut host_rx,
                (0..16).map(data_frame),
            );
        }
        // Measured step: a full 16-frame burst through TX, the wire, RX and
        // delivery must not touch the heap.
        for i in 0..16 {
            host_tx.try_push(data_frame(i)).unwrap();
        }
        let (allocs, progress) = alloc_counter::count_allocs(|| core.step());
        assert_eq!(progress, Progress::Moved, "step saw no frames");
        assert_eq!(
            allocs, 0,
            "steady-state step hit the allocator {allocs} time(s)"
        );
        // The frames made it around the loop (the engine's own RX queue).
        let mut back = 0;
        while host_rx.try_pop().is_some() {
            back += 1;
        }
        assert_eq!(back, 16, "loopback burst never arrived");
    }

    /// The reliable arm of the same loop: TX sequences into the window, RX
    /// decodes each data frame into a vector the window retired, and the
    /// transport tick acks — none of it may touch the heap once warm.
    #[test]
    fn reliable_steady_state_steps_perform_zero_heap_allocations() {
        use crate::reliable::ReliableConfig;
        let (mut core, mut host_tx, mut host_rx) = loopback_core();
        core.reliable = Some(ReliableTransport::new(core.addr, ReliableConfig::default()));
        // One loopback cycle; returns the heap allocations of its step.
        let mut delivered = 0;
        let mut round = |core: &mut EngineCore| {
            for i in 0..16 {
                host_tx.try_push(data_frame(i)).unwrap();
            }
            let (allocs, progress) = alloc_counter::count_allocs(|| core.step());
            assert_eq!(progress, Progress::Moved, "step shipped nothing");
            while host_rx.try_pop().is_some() {
                delivered += 1;
            }
            allocs
        };
        for _ in 0..8 {
            round(&mut core);
        }
        let allocs = round(&mut core);
        assert_eq!(
            allocs, 0,
            "steady-state reliable step hit the allocator {allocs} time(s)"
        );
        assert_eq!(delivered, 9 * 16, "every frame came back around");
        let stats = core.reliable.as_ref().unwrap().shared_stats().snapshot();
        assert_eq!(stats.retransmissions + stats.wire_drops, 0);
    }

    /// The reliable loop with a 43-line message per cycle: the ring drain,
    /// the remembered connection decision and the one large datagram stay
    /// off the heap once warm.
    #[test]
    fn reliable_multi_frame_cycles_perform_zero_heap_allocations() {
        use crate::reliable::ReliableConfig;
        let (mut core, mut host_tx, mut host_rx) = loopback_core();
        core.reliable = Some(ReliableTransport::new(core.addr, ReliableConfig::default()));
        let message = |rpc| (0..43).map(move |idx| message_frame(rpc, idx, 43));
        for rpc in 0..8 {
            cycle(&mut core, &mut host_tx, &mut host_rx, message(rpc));
        }
        let before = core.qstats.snapshot().tx_datagrams;
        let (allocs, ()) = alloc_counter::count_allocs(|| {
            cycle(&mut core, &mut host_tx, &mut host_rx, message(8));
        });
        assert_eq!(
            allocs, 0,
            "steady-state multi-frame cycle hit the allocator {allocs} time(s)"
        );
        let sent = core.qstats.snapshot().tx_datagrams - before;
        assert_eq!(sent, 1, "the message left as {sent} datagrams");
        let stats = core.reliable.as_ref().unwrap().shared_stats().snapshot();
        assert_eq!(stats.retransmissions + stats.wire_drops, 0);
    }

    /// A 43-line message leaves in one step as one datagram (a round reads
    /// what the ring holds), and arrives whole and in order.
    #[test]
    fn a_43_line_message_leaves_in_one_step_as_one_datagram() {
        let (mut core, mut host_tx, mut host_rx) = loopback_core();
        for idx in 0..43 {
            host_tx.try_push(message_frame(0, idx, 43)).unwrap();
        }
        assert_eq!(core.step(), Progress::Moved);
        let s = core.qstats.snapshot();
        assert_eq!((s.tx_frames, s.tx_datagrams), (43, 1));
        assert_eq!((s.rx_frames, s.rx_datagrams), (43, 1));
        let back = step_out(&mut core, &mut host_rx);
        let idx: Vec<u8> = back
            .iter()
            .map(|l| RpcHeader::decode(l.header()).unwrap().frame_idx)
            .collect();
        assert_eq!(idx, (0..43).collect::<Vec<u8>>());
    }

    /// A flow holding more than a datagram's worth ships 256 lines in one
    /// step, leaving the rest in its ring, and the rest in the next step;
    /// all 300 come back in order, and a warm repeat stays off the heap.
    #[test]
    fn a_flow_holding_more_than_one_datagram_ships_256_lines_then_the_rest() {
        let (mut core, mut host_tx, mut host_rx) = loopback_core_with(512, 512);
        // Pushes 300 lines and takes two steps; returns the heap
        // allocations of the steps.
        let mut round = |core: &mut EngineCore| {
            for rpc in 0..300 {
                host_tx.try_push(data_frame(rpc)).unwrap();
            }
            let mut shipped = [(0, 0); 2];
            let (allocs, ()) = alloc_counter::count_allocs(|| {
                for step in &mut shipped {
                    let before = core.qstats.snapshot();
                    assert_eq!(core.step(), Progress::Moved);
                    let after = core.qstats.snapshot();
                    *step = (
                        after.tx_frames - before.tx_frames,
                        after.tx_datagrams - before.tx_datagrams,
                    );
                }
            });
            assert_eq!(shipped, [(256, 1), (44, 1)], "(lines, datagrams) per step");
            assert_eq!(
                rpc_ids(&drain(&mut host_rx)),
                (0..300).collect::<Vec<u32>>()
            );
            allocs
        };
        for _ in 0..4 {
            round(&mut core);
        }
        let allocs = round(&mut core);
        assert_eq!(allocs, 0, "warm steps hit the allocator {allocs} time(s)");
    }

    /// Two flows of one queue holding 200 lines each toward one destination
    /// fill one stage past a datagram: the round ships a 256-line datagram
    /// and then a 144-line one, each flow's lines in ring order.
    #[test]
    fn two_flows_filling_one_stage_ship_256_lines_then_the_rest() {
        let (mut core, mut host_tx, _host_rx) = one_queue_core(2, 256, 256);
        let sink = core
            .port
            .fabric()
            .attach_queues(NodeAddr(9), 1)
            .unwrap()
            .remove(0);
        for (first, tx) in [0, 1000].into_iter().zip(&mut host_tx) {
            for rpc in first..first + 200 {
                tx.try_push(frame_toward(&core, NodeAddr(9), rpc)).unwrap();
            }
        }
        assert_eq!(core.step(), Progress::Moved);
        let got: Vec<Vec<u32>> = std::iter::from_fn(|| sink.try_recv())
            .map(|bytes| rpc_ids(&Datagram::decode(&bytes).unwrap().lines))
            .collect();
        assert_eq!(got.iter().map(Vec::len).collect::<Vec<_>>(), [256, 144]);
        let want: Vec<u32> = (0..200).chain(1000..1200).collect();
        assert_eq!(got.concat(), want);
    }

    /// A lone frame is written into its RX ring by the step that receives
    /// it: nothing waits for a batch to form, so the next step finds
    /// nothing outstanding.
    #[test]
    fn a_lone_frame_reaches_its_rx_ring_in_the_step_that_receives_it() {
        let (mut core, _host_tx, mut host_rx) = loopback_core();
        inject(std::slice::from_ref(&core), 0, vec![data_frame(7)]);
        let back = step_out(&mut core, &mut host_rx);
        assert_eq!(rpc_ids(&back), [7]);
        assert_eq!(core.step(), Progress::Idle);
    }

    /// A 43-line message arriving as one datagram reaches one RX ring whole
    /// and in order in the step that receives it, classified once (one
    /// tuple lookup); a warm repeat stays off the heap.
    #[test]
    fn a_43_line_message_is_delivered_in_the_step_that_receives_it() {
        let (mut core, _host_tx, mut host_rx) = one_queue_core(4, 64, 64);
        // A multi-frame request steers by its `(cid, rpc)` hash.
        let home = |rpc| {
            let hdr = RpcHeader::decode(request_frame(rpc, 0, 43).header()).unwrap();
            LoadBalancer::new(LbPolicy::Uniform, (0, 32)).steer(&hdr, &[], 4, None)
        };
        for rpc in 0..8 {
            // Sent in a buffer from the core's own pool, which the step
            // recycles into it.
            let message = (0..43).map(|idx| request_frame(rpc, idx, 43)).collect();
            let mut bytes = core.pool.get_bytes();
            Datagram::new(core.addr, core.addr, message).encode_into(&mut bytes);
            core.port.send_to(core.addr, 0, bytes).unwrap();
            let (allocs, _) = alloc_counter::count_allocs(|| core.step());
            for (flow, rx) in host_rx.iter_mut().enumerate() {
                let idx: Vec<u8> = drain(rx)
                    .iter()
                    .map(|l| RpcHeader::decode(l.header()).unwrap().frame_idx)
                    .collect();
                let want = if flow == home(rpc) {
                    (0..43).collect()
                } else {
                    vec![]
                };
                assert_eq!(idx, want, "rpc {rpc} on flow {flow}");
            }
            assert_eq!(lookups(&core), u64::from(rpc) + 1, "one lookup a message");
            assert!(
                rpc < 4 || allocs == 0,
                "warm step allocated {allocs} time(s)"
            );
        }
    }

    /// Two messages interleaved line by line in one datagram each land
    /// whole and in order on their own flows; every frame breaks the run
    /// of the one before, so each is classified.
    #[test]
    fn interleaved_messages_in_one_datagram_land_whole_on_their_own_flows() {
        let (mut core, _host_tx, mut host_rx) = one_queue_core(2, 64, 64);
        let lines = (0..5)
            .flat_map(|idx| {
                let b = restamped(message_frame(1, idx, 5), |h| h.src_flow = FlowId(1));
                [message_frame(0, idx, 5), b]
            })
            .collect();
        inject(std::slice::from_ref(&core), 0, lines);
        core.step();
        for (flow, rx) in host_rx.iter_mut().enumerate() {
            let got: Vec<(u32, u8)> = drain(rx)
                .iter()
                .map(|l| RpcHeader::decode(l.header()).unwrap())
                .map(|h| (h.rpc_id.raw(), h.frame_idx))
                .collect();
            let want: Vec<(u32, u8)> = (0..5).map(|idx| (flow as u32, idx)).collect();
            assert_eq!(got, want, "flow {flow}");
        }
        assert_eq!(lookups(&core), 10);
    }

    /// A frame that does not continue the one before it — another RPC, a
    /// frame index out of order, another connection — is classified on its
    /// own: its own lookup, its own steering, its own drop.
    #[test]
    fn a_frame_that_breaks_a_run_is_classified_on_its_own() {
        let (mut core, _host_tx, mut host_rx) = one_queue_core(4, 64, 64);
        let home = |rpc| {
            let hdr = RpcHeader::decode(request_frame(rpc, 0, 3).header()).unwrap();
            LoadBalancer::new(LbPolicy::Uniform, (0, 32)).steer(&hdr, &[], 4, None)
        };
        let other = (1..).find(|&rpc| home(rpc) != home(0)).unwrap();
        let run = |core: &mut EngineCore, lines: Vec<CacheLine>| {
            let before = lookups(core);
            inject(std::slice::from_ref(core), 0, lines);
            core.step();
            lookups(core) - before
        };
        // Another RPC mid-message: it goes to its own home, and the message
        // resumes with a lookup of its own.
        let f = |rpc, idx| request_frame(rpc, idx, 3);
        assert_eq!(
            run(&mut core, vec![f(0, 0), f(0, 1), f(other, 2), f(0, 2)]),
            3
        );
        assert_eq!(rpc_ids(&drain(&mut host_rx[home(0)])), [0, 0, 0]);
        assert_eq!(rpc_ids(&drain(&mut host_rx[home(other)])), [other]);
        // Out of order: every frame is classified.
        assert_eq!(run(&mut core, vec![f(0, 0), f(0, 2), f(0, 1)]), 3);
        assert_eq!(drain(&mut host_rx[home(0)]).len(), 3);
        // An unknown connection mid-message is one drop, that frame only.
        let stranger = restamped(f(0, 1), |h| h.connection_id = ConnectionId(77));
        run(&mut core, vec![f(0, 0), stranger, f(0, 2)]);
        assert_eq!(core.qstats.snapshot().unknown_connection_drops, 1);
        assert_eq!(drain(&mut host_rx[home(0)]).len(), 2);
    }

    /// A ring that fills mid-message counts each overflowed line as an
    /// `rx_ring_drops` on both banks; the message is still classified once.
    #[test]
    fn a_ring_filling_mid_message_counts_each_overflowed_line() {
        let (mut core, _host_tx, mut host_rx) = loopback_core_with(64, 4);
        let message = (0..6).map(|idx| message_frame(0, idx, 6)).collect();
        inject(std::slice::from_ref(&core), 0, message);
        core.step();
        assert_eq!(drain(&mut host_rx).len(), 4);
        let flow = core.monitor.flows()[0].snapshot();
        assert_eq!((flow.rx_frames, flow.rx_ring_drops), (4, 2));
        assert_eq!(core.qstats.snapshot().rx_ring_drops, 2);
        assert_eq!(lookups(&core), 1);
    }

    /// On a 4-line RX ring the host has not drained, a 6-frame burst
    /// delivers its first 4 frames in order and counts the other 2 as
    /// `rx_ring_drops` on the queue's bank and on the flow's; a warmed
    /// overflowing step stays off the heap.
    #[test]
    fn a_full_rx_ring_counts_its_overflow_on_both_banks_without_allocating() {
        let (mut core, mut host_tx, mut host_rx) = loopback_core_with(64, 4);
        // One 6-frame burst, numbered from `first`; returns the heap
        // allocations of its step.
        let mut burst = |core: &mut EngineCore, first: u32| {
            for rpc in first..first + 6 {
                host_tx.try_push(data_frame(rpc)).unwrap();
            }
            let (allocs, progress) = alloc_counter::count_allocs(|| core.step());
            assert_eq!(progress, Progress::Moved, "step saw no frames");
            allocs
        };
        let drops = |core: &EngineCore| {
            let flow = core.monitor.flows()[0].snapshot();
            (core.qstats.snapshot().rx_ring_drops, flow.rx_ring_drops)
        };
        burst(&mut core, 0);
        assert_eq!(rpc_ids(&drain(&mut host_rx)), [0, 1, 2, 3]);
        assert_eq!(drops(&core), (2, 2));
        for round in 1..8 {
            burst(&mut core, round * 6);
            drain(&mut host_rx);
        }
        let allocs = burst(&mut core, 48);
        assert_eq!(
            allocs, 0,
            "overflowing step hit the allocator {allocs} time(s)"
        );
        assert_eq!(rpc_ids(&drain(&mut host_rx)), [48, 49, 50, 51]);
        assert_eq!(drops(&core), (18, 18));
        assert_eq!(core.monitor.flows()[0].snapshot().rx_frames, 36);
    }

    /// A 16-frame burst through 2-line TX and RX rings arrives whole and
    /// in order, two frames a step: a ring read takes what is there and
    /// delivery writes one line at a time.
    #[test]
    fn a_16_frame_burst_through_2_slot_rings_arrives_whole() {
        let (mut core, mut host_tx, mut host_rx) = loopback_core_with(2, 2);
        let mut pending = (0..16).map(data_frame).peekable();
        let mut back = Vec::new();
        for step in 1..=8 {
            while pending
                .peek()
                .is_some_and(|&line| host_tx.try_push(line).is_ok())
            {
                pending.next();
            }
            back.extend(step_out(&mut core, &mut host_rx));
            assert_eq!(back.len(), 2 * step, "step {step} moved too little");
        }
        assert_eq!(rpc_ids(&back), (0..16).collect::<Vec<u32>>());
        assert_eq!(core.qstats.snapshot().rx_ring_drops, 0);
    }

    /// Two connections toward different destinations, interleaved in runs
    /// in one flow's ring, each leave as their own datagram with their
    /// frames in ring order: the remembered decision belongs to one
    /// connection, never to whatever frame came before.
    #[test]
    fn interleaved_connections_land_in_their_own_datagrams_in_order() {
        let (mut core, mut host_tx, mut host_rx) = loopback_core();
        let sink = core
            .port
            .fabric()
            .attach_queues(NodeAddr(9), 1)
            .unwrap()
            .remove(0);
        // Runs alternate connection 1 (looped back) and connection 2
        // (toward the sink).
        let mut sent = [Vec::new(), Vec::new()];
        let mut rpc = 0;
        for (run, len) in [3, 1, 2, 3, 1, 1, 2, 3].into_iter().enumerate() {
            for _ in 0..len {
                let line = match run % 2 {
                    0 => data_frame(rpc),
                    _ => frame_toward(&core, NodeAddr(9), rpc),
                };
                host_tx.try_push(line).unwrap();
                sent[run % 2].push(rpc);
                rpc += 1;
            }
        }
        assert_eq!(core.step(), Progress::Moved);
        let s = core.qstats.snapshot();
        assert_eq!((s.tx_frames, s.tx_datagrams), (16, 2));
        let bytes = sink.try_recv().expect("connection 2 sent nothing");
        assert!(sink.try_recv().is_none(), "connection 2 split in two");
        assert_eq!(rpc_ids(&Datagram::decode(&bytes).unwrap().lines), sent[1]);
        let back = step_out(&mut core, &mut host_rx);
        assert_eq!(rpc_ids(&back), sent[0]);
    }

    /// Frames of a connection nobody opened count one drop each, in a run
    /// too: a failed lookup is never remembered.
    #[test]
    fn unknown_connection_frames_count_one_drop_each() {
        let (mut core, mut host_tx, _host_rx) = loopback_core();
        let known = [false, false, true, false, true, false, false, false];
        for (rpc, known) in (0..).zip(known) {
            let line = match known {
                true => data_frame(rpc),
                false => restamped(data_frame(rpc), |h| h.connection_id = ConnectionId(77)),
            };
            host_tx.try_push(line).unwrap();
        }
        assert_eq!(core.step(), Progress::Moved);
        let s = core.qstats.snapshot();
        assert_eq!(s.unknown_connection_drops, 6);
        assert_eq!((s.tx_frames, s.tx_datagrams), (2, 1));
    }

    /// A peer that never acks makes every retransmit timeout a burst. The flight ring
    /// must see at most one `RetransmitBurst` per grid tick, however fast
    /// the engine spins — one event per burst laps the ring within a
    /// 150 ms partition and evicts the partition event itself.
    #[test]
    fn retransmit_burst_events_are_bounded_by_grid_ticks() {
        use crate::reliable::ReliableConfig;
        let (mut core, mut host_tx, _host_rx) = loopback_core();
        core.reliable = Some(ReliableTransport::new(
            core.addr,
            ReliableConfig {
                retransmit_after_ticks: 1,
                ..ReliableConfig::default()
            },
        ));
        // The blackhole: a second address that receives and never answers.
        let sink = core
            .port
            .fabric()
            .attach_queues(NodeAddr(9), 1)
            .unwrap()
            .remove(0);
        host_tx
            .try_push(frame_toward(&core, NodeAddr(9), 0))
            .unwrap();
        assert_eq!(core.step(), Progress::Moved);
        let flight = Arc::clone(core.telemetry.flight());
        let first_tick = flight.tick_now();
        const ROUNDS: u64 = 20_000;
        for _ in 0..ROUNDS {
            core.step();
            while sink.try_recv().is_some() {}
        }
        let ticks = flight.tick_now() - first_tick + 1;
        let bursts: Vec<_> = flight
            .snapshot()
            .into_iter()
            .filter(|e| e.kind == FlightEventKind::RetransmitBurst)
            .collect();
        let retransmissions = core
            .reliable
            .as_ref()
            .unwrap()
            .shared_stats()
            .snapshot()
            .retransmissions;
        assert!(retransmissions >= ROUNDS / 2, "only {retransmissions}");
        assert!(
            bursts.len() as u64 <= ticks,
            "{} events in {ticks} grid tick(s)",
            bursts.len()
        );
        // Coalescing loses nothing: events plus the open remainder carry
        // every retransmitted frame.
        let reported: u64 = bursts.iter().map(|e| e.b).sum();
        assert_eq!(reported + core.burst_frames, retransmissions);
    }

    #[test]
    fn pool_and_conn_cache_report_steady_state_hits() {
        let (mut core, mut host_tx, mut host_rx) = loopback_core();
        for _ in 0..8 {
            cycle(
                &mut core,
                &mut host_tx,
                &mut host_rx,
                (0..16).map(data_frame),
            );
        }
        let pool_stats = core.pool.shared_stats().snapshot();
        let cache_stats = core.conn_cache.shared_stats().snapshot();
        assert!(
            pool_stats.hits > pool_stats.misses,
            "pool should serve mostly recycled buffers after warm-up ({pool_stats})"
        );
        // The first TX lookup misses and installs the tuple; the RX path
        // (same cid, same cache) and every later frame hit.
        assert_eq!(cache_stats.misses, 1);
        assert!(cache_stats.hits >= 100);
    }

    /// One hand-driven cycle of the 2-queue pair: the host pushes `burst`
    /// responses alternating between flow 0 and flow 1 on every TX ring in
    /// `host_tx`, then both workers step twice — each worker ships each
    /// response to the queue owning the flow it answers and delivers its
    /// own flow's frames; the second step lets queue 0 receive what
    /// queue 1 shipped after queue 0's first step — and the host drains
    /// both RX rings. Returns frames seen per flow.
    fn sharded_cycle(
        cores: &mut [EngineCore],
        host_tx: &mut [crate::ring::RingProducer],
        host_rx: &mut [crate::ring::RingConsumer],
        burst: u32,
    ) -> [u32; 2] {
        for tx in host_tx.iter_mut() {
            for i in 0..burst {
                tx.try_push(response_frame(i, (i % 2) as u16)).unwrap();
            }
        }
        for _ in 0..2 {
            for core in cores.iter_mut() {
                core.step();
            }
        }
        let mut seen = [0u32; 2];
        for (flow, rx) in host_rx.iter_mut().enumerate() {
            while rx.try_pop().is_some() {
                seen[flow] += 1;
            }
        }
        seen
    }

    /// No frame changed worker: each queue received exactly the frames of
    /// the flow it owns, and none was dropped.
    fn assert_owner_routed(cores: &[EngineCore], per_flow: u64) {
        for (q, core) in cores.iter().enumerate() {
            let s = core.qstats.snapshot();
            assert_eq!(s.rx_frames, per_flow, "queue {q} received a foreign frame");
            assert_eq!(s.rx_ring_drops, 0, "queue {q} dropped a frame");
        }
    }

    #[test]
    fn sharded_steady_state_steps_perform_zero_heap_allocations() {
        let (mut cores, mut host_tx, mut host_rx) = sharded_pair(2);
        let mut total = [0u32; 2];
        for _ in 0..8 {
            let seen = sharded_cycle(&mut cores, &mut host_tx, &mut host_rx, 16);
            total[0] += seen[0];
            total[1] += seen[1];
        }
        // Both workers answer both flows: each ships one datagram to itself
        // and one to its sibling per cycle, so both pools stay balanced.
        assert_eq!(total, [128, 128], "a flow starved");

        // Warmed: a whole cycle — both workers' TX, RX and delivery — must
        // stay off the heap.
        let (allocs, seen) = alloc_counter::count_allocs(|| {
            sharded_cycle(&mut cores, &mut host_tx, &mut host_rx, 16)
        });
        assert_eq!(seen, [16, 16], "measured cycle lost frames");
        assert_eq!(
            allocs, 0,
            "sharded steady-state cycle hit the allocator {allocs} time(s)"
        );
        assert_owner_routed(&cores, 9 * 16);
        // Every count lives in exactly one worker's bank, so the whole-NIC
        // view is the field-wise sum of the queue snapshots.
        let snap = cores[0].monitor.snapshot();
        assert_eq!(snap.queues.len(), 2);
        assert_eq!(snap.totals, snap.queues.iter().copied().sum());
        assert_eq!(snap.tx_frames, 9 * 32);
        assert_eq!(snap.tx_frames, snap.rx_frames);
    }

    /// A round toward a destination that is not attached: the backend
    /// accepts nothing, so nothing counts as transmitted and every staged
    /// frame counts as one drop.
    #[test]
    fn round_toward_detached_destination_counts_drops_per_frame_not_tx() {
        let (mut core, mut host_tx, _host_rx) = loopback_core();
        for i in 0..5 {
            host_tx
                .try_push(frame_toward(&core, NodeAddr(99), i))
                .unwrap();
        }
        assert_eq!(core.step(), Progress::Moved);
        let s = core.qstats.snapshot();
        assert_eq!(s.tx_frames, 0, "rejected frames counted as transmitted");
        assert_eq!(s.tx_datagrams, 0);
        assert_eq!(s.unknown_connection_drops, 5, "drops are per frame");
        assert!(core.wire_out.is_empty(), "rejected buffers not recycled");
        // A round toward the attached address counts as transmitted only.
        for i in 0..3 {
            host_tx.try_push(data_frame(i)).unwrap();
        }
        assert_eq!(core.step(), Progress::Moved);
        let s = core.qstats.snapshot();
        assert_eq!((s.tx_frames, s.tx_datagrams), (3, 1));
        assert_eq!(s.unknown_connection_drops, 5);
    }

    #[test]
    fn sharded_owner_routing_preserves_per_flow_fifo_order() {
        let (mut cores, mut host_tx, mut host_rx) = sharded_pair(2);
        // Responses return to src_flow; send interleaved flow-0/flow-1
        // frames so each flow's subsequence is strictly increasing in rpc
        // id.
        let mut got: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
        for round in 0..32u32 {
            for i in 0..8u32 {
                let rpc = round * 8 + i;
                host_tx[0]
                    .try_push(response_frame(rpc, (rpc % 2) as u16))
                    .unwrap();
            }
            // Queue 0's step ships both flows' frames and delivers flow
            // 0's; queue 1's step, right after, delivers flow 1's.
            for core in cores.iter_mut() {
                core.step();
            }
            for (flow, rx) in host_rx.iter_mut().enumerate() {
                while let Some(line) = rx.try_pop() {
                    let hdr = RpcHeader::decode(line.header()).unwrap();
                    got[flow].push(hdr.rpc_id.raw());
                }
            }
        }
        for (flow, seq) in got.iter().enumerate() {
            assert_eq!(seq.len(), 128, "flow {flow} lost frames");
            assert!(
                seq.windows(2).all(|w| w[0] < w[1]),
                "flow {flow} delivered out of order: {seq:?}"
            );
            assert!(
                seq.iter().all(|r| (*r % 2) as usize == flow),
                "flow {flow} saw another flow's frames"
            );
        }
        assert_owner_routed(&cores, 128);
    }

    /// Ships `lines` as one datagram into queue `queue` of the pair's NIC.
    fn inject(cores: &[EngineCore], queue: u16, lines: Vec<CacheLine>) {
        let bytes = Datagram::new(NodeAddr(1), NodeAddr(1), lines).encode();
        cores[0].port.send_to(NodeAddr(1), queue, bytes).unwrap();
    }

    /// A request is steered among the active flows its receiving queue
    /// owns; a queue that owns none counts it as a drop and passes it to
    /// nobody.
    #[test]
    fn request_on_a_queue_owning_no_active_flow_is_a_counted_drop() {
        let (mut cores, _host_tx, mut host_rx) = sharded_pair(2);
        let request = |rpc| restamped(data_frame(rpc), |h| h.kind = RpcKind::Request);
        // Both flows active: queue 1's request lands on flow 1, its own.
        inject(&cores, 1, vec![request(0)]);
        assert_eq!(rpc_ids(&step_out(&mut cores[1], &mut host_rx[1])), [0]);
        // Only flow 0 active (one dispatch thread): queue 1 owns no active
        // flow, so the request is dropped and counted.
        cores[1].softregs.set_active_flows(1);
        inject(&cores, 1, vec![request(1)]);
        let delivered = [
            step_out(&mut cores[1], &mut host_rx[1]),
            step_out(&mut cores[0], &mut host_rx[0]),
        ];
        assert!(delivered.iter().all(Vec::is_empty), "{delivered:?}");
        assert_eq!(cores[1].qstats.snapshot().rx_ring_drops, 1);
        assert_eq!(cores[0].qstats.snapshot().rx_frames, 0);
    }

    /// A response that reaches a queue not owning the flow it answers (a
    /// peer routed it by a wrong queue count) is a counted drop, never a
    /// push into the owner's ring.
    #[test]
    fn response_for_a_foreign_flow_is_a_counted_drop() {
        let (mut cores, _host_tx, mut host_rx) = sharded_pair(2);
        inject(&cores, 1, vec![response_frame(0, 0), response_frame(1, 1)]);
        assert_eq!(rpc_ids(&step_out(&mut cores[1], &mut host_rx[1])), [1]);
        assert!(step_out(&mut cores[0], &mut host_rx[0]).is_empty());
        assert_eq!(cores[1].qstats.snapshot().rx_ring_drops, 1);
    }

    /// Responses return to the flow that issued their request whatever the
    /// balancing policy: the sending worker routes each to the queue owning
    /// its `src_flow`, and that queue delivers it on that flow.
    #[test]
    fn responses_go_to_their_src_flow_under_every_policy() {
        let (mut cores, mut host_tx, mut host_rx) = sharded_pair(4);
        for policy in [LbPolicy::Uniform, LbPolicy::Static, LbPolicy::ObjectLevel] {
            cores[0].softregs.set_lb_policy(policy);
            for rpc in 0..5 {
                host_tx[0].try_push(response_frame(rpc, 3)).unwrap();
            }
            cores[0].step();
            assert_eq!(
                rpc_ids(&step_out(&mut cores[1], &mut host_rx[3])),
                [0, 1, 2, 3, 4],
                "{policy:?}"
            );
        }
        for (q, core) in cores.iter().enumerate() {
            assert_eq!(core.qstats.snapshot().rx_ring_drops, 0, "queue {q}");
        }
    }

    /// A `src_flow` beyond the receiver's flows (on the wire, anything goes)
    /// is routed by the sender to `src_flow % queues` and folded by that
    /// queue onto a flow it owns — delivered, not dropped, no panic — even
    /// where the flow count is not a multiple of the queue count.
    #[test]
    fn out_of_range_src_flow_folds_onto_the_receiving_queues_flows() {
        // Three flows on two queues: queue 0 owns flows 0 and 2, queue 1
        // owns flow 1.
        let (mut cores, mut host_tx, mut host_rx) = sharded_pair(3);
        for (rpc, src_flow) in [(0, 5), (1, 4), (2, 6), (3, 9)] {
            host_tx[0].try_push(response_frame(rpc, src_flow)).unwrap();
        }
        cores[0].step();
        let got: Vec<Vec<u32>> = [(0, 0), (1, 1), (0, 2)]
            .into_iter()
            .map(|(q, flow)| rpc_ids(&step_out(&mut cores[q], &mut host_rx[flow])))
            .collect();
        // 5 → queue 1 → flow 1; 4 → queue 0, slot 0 → flow 0;
        // 6 → queue 0, slot 1 → flow 2; 9 → queue 1 → flow 1.
        assert_eq!(got, [vec![1], vec![0, 3], vec![2]]);
        for (q, core) in cores.iter().enumerate() {
            assert_eq!(core.qstats.snapshot().rx_ring_drops, 0, "queue {q}");
        }
    }

    /// The ports of a 2-queue destination `NodeAddr(9)` on `core`'s fabric,
    /// and two Static connections from `core` toward it, one routed to
    /// each of its queues.
    fn two_queue_rig(core: &EngineCore) -> (Vec<Arc<dyn FabricPort>>, [ConnectionId; 2]) {
        let dst = NodeAddr(9);
        let sinks = core.port.fabric().attach_queues(dst, 2).unwrap();
        let cids = [0, 1].map(|q| {
            (3..)
                .map(ConnectionId)
                .find(|&cid| conn_route_tag(cid) % 2 == q)
                .unwrap()
        });
        for cid in cids {
            let tuple = ConnectionTuple {
                src_flow: FlowId(0),
                dest_addr: dst,
                lb: LbPolicy::Static,
            };
            core.conn_mgr.lock().open(cid, tuple).unwrap();
        }
        (sinks, cids)
    }

    /// Frame `rpc` of kind `kind` on `cid`.
    fn on_conn(cid: ConnectionId, rpc: u32, kind: RpcKind) -> CacheLine {
        restamped(data_frame(rpc), |h| (h.connection_id, h.kind) = (cid, kind))
    }

    /// Sends requests `rpcs` on `cid` in one round and returns the
    /// destination queue that received them (all of them, in order).
    fn send_requests(
        core: &mut EngineCore,
        host_tx: &mut crate::ring::RingProducer,
        sinks: &[Arc<dyn FabricPort>],
        cid: ConnectionId,
        rpcs: std::ops::Range<u32>,
    ) -> usize {
        let want: Vec<u32> = rpcs.clone().collect();
        for rpc in rpcs {
            host_tx
                .try_push(on_conn(cid, rpc, RpcKind::Request))
                .unwrap();
        }
        core.step();
        let got: Vec<(usize, Vec<u32>)> = (0..2)
            .filter_map(|q| {
                let bytes = sinks[q].try_recv()?;
                Some((q, rpc_ids(&Datagram::decode(&bytes).unwrap().lines)))
            })
            .collect();
        assert_eq!(got.len(), 1, "requests split across queues: {got:?}");
        assert_eq!(got[0].1, want);
        got[0].0
    }

    /// Answers requests `rpcs` on `cid` from the destination's queue 0.
    fn answer_requests(
        core: &mut EngineCore,
        host_rx: &mut crate::ring::RingConsumer,
        sinks: &[Arc<dyn FabricPort>],
        cid: ConnectionId,
        rpcs: std::ops::Range<u32>,
    ) {
        let lines = rpcs
            .map(|rpc| on_conn(cid, rpc, RpcKind::Response))
            .collect();
        let bytes = Datagram::new(NodeAddr(9), core.addr, lines).encode();
        sinks[0].send_to(core.addr, 0, bytes).unwrap();
        step_out(core, host_rx);
    }

    /// Every request of a connection lands on one destination queue,
    /// `conn_route_tag(cid) % 2`, whatever was answered before it — an
    /// unanswered request included: no routing state outlives a request.
    #[test]
    fn a_connections_requests_keep_one_destination_queue() {
        let (mut core, mut host_tx, mut host_rx) = loopback_core();
        let (sinks, cids) = two_queue_rig(&core);
        let (tx, rx) = (&mut host_tx, &mut host_rx);
        for (home, cid) in cids.into_iter().enumerate() {
            assert_eq!(send_requests(&mut core, tx, &sinks, cid, 0..3), home);
            // Request 2 is never answered.
            answer_requests(&mut core, rx, &sinks, cid, 0..2);
            for rpc in 3..10 {
                let queue = send_requests(&mut core, tx, &sinks, cid, rpc..rpc + 1);
                assert_eq!(queue, home, "{cid:?} request {rpc}");
                if rpc % 2 == 0 {
                    answer_requests(&mut core, rx, &sinks, cid, rpc..rpc + 1);
                }
            }
        }
    }
}
