//! The NIC engine: the RX/TX FSMs of Fig. 8, sharded across worker threads.
//!
//! A NIC runs `num_queues` engine workers (the multi-queue scaling of
//! Fig. 11, applied to the functional datapath). Each worker owns one
//! [`EngineCore`]: a contiguous partition of the flows (their TX/RX rings),
//! a private fabric port queue, and private copies of every datapath
//! structure — buffer pool, connection-tuple cache, request buffer, flow
//! FIFOs, scheduler, reliable-transport instance — so the hot path
//! never shares mutable state between workers, and every count lands in the
//! worker's own [`QueueStats`] bank. Shared pieces are the Packet Monitor's
//! per-flow banks, the Connection Manager mutex (reached only on tuple-cache
//! misses), the soft register file, and the confirmed-set fed by control
//! acknowledgements.
//!
//! Each [`EngineCore::step`] (one "tick") a worker:
//!
//! 1. **TX FSM** — polls its own flows' TX rings (the CCI-P fetch, bounded
//!    by the soft-configured batch size `B` per flow per tick), looks up
//!    each frame's connection for destination credentials, RSS-routes the
//!    connection to one of the destination NIC's queues, groups frames by
//!    `(destination, queue)`, and ships them as transport datagrams.
//! 2. **RX FSM** — drains its fabric port queue, decodes datagrams, handles
//!    control frames (connection open/close) against the shared Connection
//!    Manager, steers data frames through the load balancer, and either
//!    stages them locally (flows this worker owns) or hands them to the
//!    owning worker over an SPSC [`crate::xfer`] ring; the flow scheduler
//!    then delivers formed batches into the per-flow RX rings.
//!
//! Steering stays *queue-affine*: a connection's route tag is a hash of its
//! id, so all frames of one connection land on one receiving queue, and all
//! frames steered to one flow traverse at most one handoff ring — per-flow
//! FIFO order survives the sharding.
//!
//! The affinity is *elastic*: when the balancer rewrites the active-queue
//! mask, connections migrate to their new queue via drain-and-handoff. The
//! sender pins each connection to its old channel until that channel is
//! fully acked (so nothing is in flight when it switches), and the receiver
//! stamps every data frame with a per-flow arrival sequence at steer time,
//! releasing frames to delivery in stamp order — frames that legitimately
//! cross receive queues mid-remap still deliver in arrival order.
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

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::channel::Receiver;
use parking_lot::Mutex;

use dagger_telemetry::{FlightEventKind, RpcEvent, Telemetry};
use dagger_types::offload::CacheClass;
use dagger_types::{
    CacheLine, ConnectionId, LbPolicy, NodeAddr, RpcHeader, RpcKind, FRAME_PAYLOAD_BYTES,
};

use crate::arbiter::ArbiterSlot;
use crate::bufpool::BufPool;
use crate::conncache::{ConnTupleCache, U64Map};
use crate::connmgr::{
    ctrl_open_ack, decode_ctrl_open, CmPort, ConnectionManager, CTRL_CLOSE_FN, CTRL_OPEN_ACK_FN,
    CTRL_OPEN_FN,
};
use crate::fabric::FabricPort;
use crate::flow::FlowFifos;
use crate::lb::{fnv1a, LoadBalancer};
use crate::monitor::{PacketMonitor, QueueStats};
use crate::nic::queue_of_flow;
use crate::offload::OffloadState;
use crate::reliable::{FrameView, ReliableTransport};
use crate::reqbuf::RequestBuffer;
use crate::ring::{RingConsumer, RingProducer};
use crate::sched::FlowScheduler;
use crate::softreg::SoftRegisterFile;
use crate::transport::{wire_frames, Datagram, MAX_LINES_PER_DATAGRAM};
use crate::wait::{EngineWaker, SpinWait};
use crate::xfer::{XferConsumer, XferProducer};

/// The RSS route tag of a connection: every frame of `cid` carries the same
/// tag, so [`crate::fabric::Fabric::route`] pins the connection to one
/// engine queue of the destination NIC (per-flow FIFO order depends on it).
pub fn conn_route_tag(cid: ConnectionId) -> u64 {
    fnv1a(&cid.raw().to_le_bytes())
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
    pub lb: LoadBalancer,
    pub reqbuf: RequestBuffer,
    pub fifos: FlowFifos,
    pub sched: FlowScheduler,
    pub arbiter: Option<ArbiterSlot>,
    pub stop: Arc<AtomicBool>,
    /// Host → engine control-frame outbox (connection setup/teardown),
    /// routed through the same transport as data so ordering and
    /// reliability cover it. The channel is shared across workers:
    /// whichever worker dequeues a control datagram ships it (the remote
    /// side handles control frames on any queue, against the shared
    /// Connection Manager).
    pub ctrl_rx: Receiver<(NodeAddr, Datagram)>,
    /// Connections whose open has been acknowledged by the remote NIC.
    pub confirmed: Arc<Mutex<HashSet<u32>>>,
    /// The reliable-transport state machine (§4.5 follow-up), when the
    /// hard configuration enables it. Per worker, on this worker's queue:
    /// channels are keyed per `(peer, peer queue)`, so two workers never
    /// share sequence state.
    pub reliable: Option<ReliableTransport>,
    /// Datagrams deferred by reliable-transport window backpressure, with
    /// the destination queue their connection routed to.
    pub pending_out: VecDeque<(Datagram, u16)>,
    /// Steps taken so far: the clock of every tick-counted timer (retransmit
    /// timeout, scheduler timeout, hold stall valve, remap drain deadline).
    pub tick: u64,
    /// Delivery flushes partially formed batches (shutdown drain).
    pub draining: bool,
    /// Frames fetched from TX rings in the current polling window.
    pub window_frames: u64,
    /// Grid tick of the last `RetransmitBurst` flight event. Bursts are
    /// coalesced to one event per tick: a blackholed peer makes every
    /// retransmit timeout a burst — thousands per second from a spinning
    /// engine — and one event per burst laps the flight ring, evicting the
    /// partition that caused them.
    pub burst_tick: u64,
    /// Frames retransmitted since that event.
    pub burst_frames: u64,
    /// `true` while the engine polls the LLC directly instead of through
    /// its local coherent cache (the high-load mode of §4.4.1).
    pub direct_polling: bool,
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
    /// pushes on owned flows, control sends, shutdown, sibling handoffs)
    /// wake this worker out of its idle park.
    pub waker: Arc<EngineWaker>,
    /// Every worker's waker (self included), indexed by queue: a handoff
    /// push wakes the owning worker.
    pub peer_wakers: Vec<Arc<EngineWaker>>,
    /// This worker's counter bank — `monitor.queues()[queue_id]`, the only
    /// cell any engine count touches (`nic.<addr>.q<i>.*` gauges; the
    /// whole-NIC `nic.<addr>.*` is the sum over workers).
    pub qstats: Arc<QueueStats>,
    /// Handoff ring producers toward each sibling worker, indexed by
    /// queue; `None` at this worker's own index.
    pub xfer_out: Vec<Option<XferProducer>>,
    /// Handoff ring consumers from every sibling worker.
    pub xfer_in: Vec<XferConsumer>,
    /// Per-destination-queue overflow for handoffs that found their ring
    /// full; retried each tick ahead of new handoffs so per-flow order is
    /// kept.
    pub xfer_backlog: Vec<VecDeque<(u16, u64, CacheLine)>>,
    /// Shutdown rendezvous: a worker increments it once it has drained its
    /// own TX side, and keeps its RX side live until every sibling has.
    pub stop_barrier: Arc<AtomicUsize>,
    /// NIC-wide per-flow arrival sequence counters, shared by every worker
    /// of this NIC. The steering worker stamps each data frame at steer
    /// time (`rx_frame`), and the owning worker releases frames to delivery
    /// in stamp order — so per-flow order survives an elastic RSS remap
    /// that moves a flow's traffic across receive queues mid-stream.
    pub flow_seq: Arc<Vec<AtomicU64>>,
    /// Next arrival sequence to deliver, per flow (global indexing; only
    /// this worker's owned flows ever advance).
    pub next_deliver: Vec<u64>,
    /// Out-of-order arrivals parked until their gap fills, per owned flow.
    /// Empty in steady state: entries appear only while a remap (or a
    /// forced switch under loss) has the same flow's frames in flight on
    /// two receive paths at once.
    pub hold: Vec<BTreeMap<u64, CacheLine>>,
    /// Tick when the current oldest hold of each flow was parked (drives
    /// the stall valve).
    pub hold_since: Vec<u64>,
    /// Total held frames across all flows (fast zero check per tick).
    pub held_frames: usize,
    /// Sender side of the remap protocol: per-connection pinned destination
    /// queue plus drain state (see [`EngineCore::pin_route`]).
    pub route_pins: U64Map<RoutePin>,
    /// Per-flow TX fetch scratch: the batch-pop target of `tx_round`.
    /// Persistent so the steady-state round never allocates.
    pub tx_scratch: Vec<CacheLine>,
    /// Encoded datagrams staged by the current round, submitted with one
    /// [`FabricPort::send_many`] per round (doorbell amortization: the
    /// backend is poked once per round, not once per datagram).
    pub wire_out: Vec<(NodeAddr, u16, Vec<u8>)>,
    /// The NIC-wide on-NIC offload stage (NIC-side serde + the hot-key
    /// response cache, DESIGN.md §18), shared by every worker. Consulted
    /// only when the `nic_serde` soft register is on and a spec is
    /// installed; otherwise the datapath is byte-identical to the host-serde
    /// baseline.
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
    pub confirmed: Arc<Mutex<HashSet<u32>>>,
    pub telemetry: Arc<Telemetry>,
    /// Every worker's waker, indexed by queue (so its length is the
    /// NIC's queue count).
    pub wakers: Vec<Arc<EngineWaker>>,
    /// One arrival counter per flow (so its length is the flow count).
    pub flow_seq: Arc<Vec<AtomicU64>>,
    pub offload: Arc<OffloadState>,
    /// Request-buffer slots of each worker.
    pub reqbuf_slots: usize,
}

/// The pieces only one worker holds.
pub(crate) struct WorkerParts {
    pub queue_id: u16,
    pub port: Arc<dyn FabricPort>,
    pub tx_rings: Vec<Option<RingConsumer>>,
    pub rx_rings: Vec<Option<RingProducer>>,
    pub xfer_out: Vec<Option<XferProducer>>,
    pub xfer_in: Vec<XferConsumer>,
    pub reliable: Option<ReliableTransport>,
    pub arbiter: Option<ArbiterSlot>,
}

/// A connection's pinned destination queue on the sender side. When the
/// RSS route moves (the balancer rewrote the active-queue mask), the pin
/// holds the connection on its old channel until that channel is fully
/// acked — the drain step of drain-and-handoff.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RoutePin {
    pub queue: u16,
    /// Tick when the fresh route last agreed with the pin; once they
    /// diverge this ages, bounding the drain via
    /// [`REMAP_DRAIN_DEADLINE_TICKS`].
    pub agreed_at: u64,
}

/// Scheduler partial-batch timeout in engine ticks; small enough that
/// latency in functional mode is not batch-bound.
const SCHED_TIMEOUT_TICKS: u64 = 8;

/// Ticks a diverged route pin may wait for its old channel to drain before
/// the switch is forced (livelock bound under sustained loss; the
/// receiver's hold queue and stall valve absorb the overlap).
pub(crate) const REMAP_DRAIN_DEADLINE_TICKS: u64 = 4096;

/// Ticks an out-of-order hold may wait for its gap to fill before the
/// owner presumes the missing arrival lost and releases past it.
pub(crate) const HOLD_STALL_TICKS: u64 = 2048;

/// One `(destination, queue)`'s staged lines for the current TX round. The
/// `lines` vector circulates: stage → datagram → (wire or retransmit
/// window) → pool → stage.
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
    /// deadline, a deferred send, a partial batch, a hold): keep ticking.
    Ticking,
    /// Nothing moved and nothing is outstanding: the driver may park.
    Idle,
}

/// Packs a staging-table key from destination address and queue.
fn stage_key(dst: NodeAddr, dst_queue: u16) -> u64 {
    u64::from(dst.raw()) << 16 | u64::from(dst_queue)
}

impl EngineCore {
    /// Builds the worker for `parts.queue_id`: the NIC-shared handles, the
    /// worker's own rings, port and transport, and every piece of private
    /// round state in its initial (empty) form — the one place an
    /// `EngineCore` is put together.
    pub(crate) fn new(shared: &NicShared, parts: WorkerParts) -> Self {
        let q = usize::from(parts.queue_id);
        let num_queues = shared.wakers.len();
        let num_flows = shared.flow_seq.len();
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
            reqbuf: RequestBuffer::new(shared.reqbuf_slots),
            fifos: FlowFifos::new(num_flows),
            sched: FlowScheduler::new(num_flows, SCHED_TIMEOUT_TICKS),
            arbiter: parts.arbiter,
            stop: Arc::clone(&shared.stop),
            ctrl_rx: shared.ctrl_rx.clone(),
            confirmed: Arc::clone(&shared.confirmed),
            reliable: parts.reliable,
            pending_out: VecDeque::new(),
            tick: 0,
            draining: false,
            window_frames: 0,
            burst_tick: 0,
            burst_frames: 0,
            direct_polling: false,
            telemetry: Arc::clone(&shared.telemetry),
            pool: BufPool::default(),
            conn_cache: ConnTupleCache::new(shared.conn_mgr.lock().generation_handle()),
            stage: Vec::new(),
            stage_idx: U64Map::default(),
            waker: Arc::clone(&shared.wakers[q]),
            peer_wakers: shared.wakers.clone(),
            qstats: Arc::clone(&shared.monitor.queues()[q]),
            xfer_out: parts.xfer_out,
            xfer_in: parts.xfer_in,
            xfer_backlog: (0..num_queues).map(|_| VecDeque::new()).collect(),
            stop_barrier: Arc::clone(&shared.stop_barrier),
            flow_seq: Arc::clone(&shared.flow_seq),
            next_deliver: vec![0; num_flows],
            hold: (0..num_flows).map(|_| BTreeMap::new()).collect(),
            hold_since: vec![0; num_flows],
            held_frames: 0,
            route_pins: U64Map::default(),
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
        let tick = self.tick;
        let mut moved = self.flush_pending();
        moved |= self.flush_backlog();
        moved |= self.ctrl_round(tick);
        moved |= self.tx_round(tick);
        let rx_moved = self.rx_round(tick) | self.inbox_round(tick);
        moved |= rx_moved;
        moved |= self.release_stalled(tick);
        moved |= self.deliver_round(tick, self.draining, !rx_moved);
        self.reliable_tick();
        self.tick = tick.wrapping_add(1);
        // Polling-mode switch (§4.4.1): once per 1024-tick window, compare
        // the TX fetch rate against the soft threshold. Above it, poll the
        // processor's LLC directly (cached polling would steal line
        // ownership from the busy CPU); below it, poll the NIC's local
        // coherent cache and ride invalidations.
        if self.tick.is_multiple_of(1024) {
            let threshold = self.softregs.polling_threshold();
            self.direct_polling = threshold != 0 && self.window_frames > u64::from(threshold);
            self.window_frames = 0;
        }
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

    /// Two-phase shutdown, with delivery flushing partial batches
    /// throughout. Phase 1 steps until this worker has nothing left to
    /// *originate* (control sends, host TX rings, deferred datagrams, queued
    /// handoffs), then passes the barrier. Phase 2 keeps stepping until
    /// every sibling has passed its own phase 1, so frames a sibling handed
    /// off (or sent over the loopback fabric) at the last moment are not
    /// stranded in a ring nobody drains. A final sweep then flushes what
    /// has already arrived.
    pub(crate) fn shutdown_drain(&mut self) {
        self.draining = true;
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
        // Frames still parked for ordering release now regardless of gaps:
        // their missing predecessors are not coming.
        self.force_release_holds();
        self.step_until_quiet();
        self.drain_pending_on_stop();
        // Handoffs that never fit their ring die with this worker; account
        // for them so shutdown cannot silently lose frames.
        let stranded: usize = self.xfer_backlog.iter().map(VecDeque::len).sum();
        self.qstats.rx_ring_drops.add(stranded as u64);
    }

    /// Parking is safe only when nothing tick-driven is outstanding: no
    /// arbiter rotation to keep granting, no window-deferred datagrams, no
    /// staged FIFO slots awaiting delivery, no out-of-order holds waiting
    /// on the stall valve, no handoffs waiting for ring space, and the
    /// reliable transport has neither unacked frames, owed acks, nor
    /// retired buffers to recycle.
    fn can_idle_park(&self) -> bool {
        self.arbiter.is_none()
            && self.pending_out.is_empty()
            && self.fifos.is_empty()
            && self.held_frames == 0
            && self.xfer_backlog.iter().all(VecDeque::is_empty)
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

    /// TX FSM: fetch up to `B` frames from each owned flow's TX ring and
    /// ship them grouped by `(destination, destination queue)`.
    fn tx_round(&mut self, tick: u64) -> bool {
        let batch = self.softregs.batch_size() as usize;
        // Every provisioned flow has a live TX FSM; the active-flow register
        // only narrows RX request steering (client flows beyond it still
        // transmit). This worker polls only the flows it owns (`Some`).
        let n = self.tx_rings.len();
        // Persistent staging table: the map and every entry's line vector
        // are cleared (capacity kept) from the previous round, so grouping
        // by destination is a hash probe + push — no per-round allocation
        // and no O(destinations) linear scan per frame.
        self.stage_idx.clear();
        for st in &mut self.stage {
            st.lines.clear();
        }
        let mut used = 0usize;
        let mut progress = false;
        for flow in 0..n {
            // One batch pop per flow per tick: the whole burst is fetched
            // in a single ring pass, then staged frame by frame.
            self.tx_scratch.clear();
            let fetched = match self.tx_rings[flow].as_mut() {
                Some(ring) => ring.try_pop_batch(&mut self.tx_scratch, batch),
                None => 0,
            };
            if fetched == 0 {
                continue;
            }
            progress = true;
            self.window_frames += fetched as u64;
            self.monitor.flows()[flow].tx_frames.add(fetched as u64);
            if self.direct_polling {
                self.qstats.direct_polls.add(fetched as u64);
            } else {
                self.qstats.cached_polls.add(fetched as u64);
            }
            for i in 0..fetched {
                let line = self.tx_scratch[i];
                let Ok(hdr) = RpcHeader::decode(line.header()) else {
                    self.qstats.unknown_connection_drops.inc();
                    continue;
                };
                if hdr.kind == RpcKind::Request && hdr.frame_idx == 0 {
                    self.telemetry.tracer().record(
                        hdr.connection_id.raw(),
                        hdr.rpc_id.raw(),
                        RpcEvent::EnginePickup,
                    );
                }
                if hdr.kind == RpcKind::Response && self.softregs.nic_serde() {
                    // TX half of the offload stage: host responses leaving
                    // the NIC complete read fills and the second
                    // invalidation bump of writes (DESIGN.md §18).
                    self.offload.on_response_tx(
                        hdr.connection_id,
                        hdr.rpc_id,
                        hdr.frame_idx,
                        hdr.frame_count,
                        &line.payload()[..usize::from(hdr.frame_payload_len)],
                        self.softregs.offload_cache_entries() as usize,
                    );
                }
                let tuple = self
                    .conn_cache
                    .lookup(hdr.connection_id, CmPort::Tx, &self.conn_mgr);
                let Some(tuple) = tuple else {
                    self.qstats.unknown_connection_drops.inc();
                    continue;
                };
                // RSS: the connection's tag pins it to one engine queue of
                // the destination (new decisions honor the active mask);
                // the pin layer holds a remapped connection on its old
                // channel until that channel drains.
                let dst_queue = self.pin_route(hdr.connection_id, tuple.dest_addr, tick);
                let key = stage_key(tuple.dest_addr, dst_queue);
                let idx = match self.stage_idx.get(&key) {
                    Some(&i) => i,
                    None => {
                        if used == self.stage.len() {
                            // First-ever round touching this many
                            // `(dst, queue)` pairs: grow the table (a
                            // one-time cost per peer set).
                            let lines = self.pool.get_lines();
                            self.stage.push(TxStage {
                                dst: tuple.dest_addr,
                                dst_queue,
                                lines,
                            });
                        } else {
                            self.stage[used].dst = tuple.dest_addr;
                            self.stage[used].dst_queue = dst_queue;
                        }
                        self.stage_idx.insert(key, used);
                        used += 1;
                        used - 1
                    }
                };
                self.stage[idx].lines.push(line);
            }
        }
        // Ship each destination's stage, moving the staged vector into the
        // datagram and backfilling the slot from the pool.
        for i in 0..used {
            let dst = self.stage[i].dst;
            let dst_queue = self.stage[i].dst_queue;
            // Oversized stages (rare) peel full datagrams into pooled heads.
            while self.stage[i].lines.len() > MAX_LINES_PER_DATAGRAM {
                let mut head = self.pool.get_lines();
                head.extend(self.stage[i].lines.drain(..MAX_LINES_PER_DATAGRAM));
                self.send_datagram(Datagram::new(self.addr, dst, head), dst_queue);
            }
            if self.stage[i].lines.is_empty() {
                continue;
            }
            let fresh = self.pool.get_lines();
            let lines = std::mem::replace(&mut self.stage[i].lines, fresh);
            self.send_datagram(Datagram::new(self.addr, dst, lines), dst_queue);
        }
        self.flush_wire();
        progress
    }

    /// Resolves the destination queue for one connection through the route
    /// pin layer — the sender half of drain-and-handoff.
    ///
    /// Steady state this is the plain RSS route. When the fresh route
    /// diverges from the pinned queue (the balancer rewrote the active
    /// mask), the connection keeps transmitting on its *old* channel until
    /// every datagram sent there has been acked: at that point all old
    /// frames have been received — and arrival-stamped — by the remote NIC,
    /// so the switch cannot reorder the flow. A tick deadline bounds the
    /// drain under sustained loss; the receiver's hold queue and stall
    /// valve absorb whatever overlap a forced switch lets through.
    fn pin_route(&mut self, cid: ConnectionId, dst: NodeAddr, tick: u64) -> u16 {
        let fresh = self.port.route(dst, conn_route_tag(cid));
        let key = u64::from(cid.raw());
        let Some(pin) = self.route_pins.get(&key).copied() else {
            self.route_pins.insert(
                key,
                RoutePin {
                    queue: fresh,
                    agreed_at: tick,
                },
            );
            return fresh;
        };
        if pin.queue == fresh {
            if let Some(p) = self.route_pins.get_mut(&key) {
                p.agreed_at = tick;
            }
            return fresh;
        }
        let drained = self
            .reliable
            .as_ref()
            .is_none_or(|rel| rel.channel_fully_acked(dst, pin.queue));
        if drained || tick.wrapping_sub(pin.agreed_at) >= REMAP_DRAIN_DEADLINE_TICKS {
            if drained {
                self.qstats.remaps.inc();
            } else {
                self.qstats.forced_remaps.inc();
            }
            // Flight-recorder breadcrumb: which connection moved queues,
            // and whether the drain completed or the deadline forced it.
            self.telemetry.flight().record(
                if drained {
                    FlightEventKind::Remap
                } else {
                    FlightEventKind::ForcedRemap
                },
                self.addr.raw(),
                u64::from(pin.queue),
                u64::from(fresh),
            );
            self.route_pins.insert(
                key,
                RoutePin {
                    queue: fresh,
                    agreed_at: tick,
                },
            );
            fresh
        } else {
            pin.queue
        }
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

    /// Retries handoffs that found their ring full, oldest first so
    /// per-flow order is kept ahead of any new handoff.
    fn flush_backlog(&mut self) -> bool {
        let mut progress = false;
        for owner in 0..self.xfer_backlog.len() {
            if self.xfer_backlog[owner].is_empty() {
                continue;
            }
            let Some(ring) = self.xfer_out[owner].as_mut() else {
                self.xfer_backlog[owner].clear();
                continue;
            };
            let mut pushed = false;
            while let Some((flow, seq, line)) = self.xfer_backlog[owner].pop_front() {
                match ring.try_push(flow, seq, line) {
                    Ok(()) => {
                        progress = true;
                        pushed = true;
                    }
                    Err(_) => {
                        self.xfer_backlog[owner].push_front((flow, seq, line));
                        break;
                    }
                }
            }
            if pushed {
                self.peer_wakers[owner].wake();
            }
        }
        progress
    }

    /// Drains the host's control outbox. Each control datagram is routed
    /// like data: its connection's tag picks the destination queue, so an
    /// open/close and the connection's data frames share a channel.
    fn ctrl_round(&mut self, tick: u64) -> bool {
        let mut progress = false;
        for _ in 0..16 {
            let Ok((dst, dgram)) = self.ctrl_rx.try_recv() else {
                break;
            };
            progress = true;
            let dst_queue = dgram
                .lines
                .first()
                .and_then(|l| RpcHeader::decode(l.header()).ok())
                .map_or(0, |h| self.pin_route(h.connection_id, dst, tick));
            self.send_datagram(dgram, dst_queue);
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
    /// frames, steer data frames into the request buffer + flow FIFOs
    /// (owned flows) or toward the owning worker (handoff).
    fn rx_round(&mut self, tick: u64) -> bool {
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
                self.absorb_datagram(dgram, tick);
            }
            // The transport may have released buffered successors when the
            // arrival above filled a gap; deliver the whole run now.
            while let Some(dgram) = self
                .reliable
                .as_mut()
                .and_then(ReliableTransport::next_ready)
            {
                self.absorb_datagram(dgram, tick);
            }
        }
        // Control acknowledgements staged by `rx_frame` ship here.
        self.flush_wire();
        progress
    }

    /// Steers one decoded, in-sequence datagram's frames into the RX path
    /// and recycles its line vector.
    fn absorb_datagram(&mut self, dgram: Datagram, tick: u64) {
        self.qstats.rx_datagrams.inc();
        self.qstats.rx_frames.add(dgram.lines.len() as u64);
        for &line in &dgram.lines {
            self.rx_frame(line, tick);
        }
        self.pool.put_lines(dgram.lines);
    }

    /// Drains the handoff inboxes: frames siblings received off the fabric
    /// and steered to flows this worker owns.
    fn inbox_round(&mut self, tick: u64) -> bool {
        let mut progress = false;
        for i in 0..self.xfer_in.len() {
            // Bounded like the port drain, for fairness across inboxes.
            for _ in 0..64 {
                let Some((flow, seq, line)) = self.xfer_in[i].try_pop() else {
                    break;
                };
                progress = true;
                self.qstats.handoff_in.inc();
                self.accept_frame(usize::from(flow), seq, line, tick);
            }
        }
        progress
    }

    /// Accepts one steered frame for an owned flow, releasing to the
    /// request buffer + FIFO in arrival-stamp order.
    ///
    /// In steady state `seq` always equals the flow's `next_deliver` (one
    /// receive path, FIFO handoff rings) and this is a straight stage.
    /// During a remap the same flow's frames can reach the owner via two
    /// paths at once — its own port queue and a sibling's handoff ring —
    /// so later stamps park in the hold queue until the gap fills (or the
    /// stall valve gives up on a lost predecessor).
    fn accept_frame(&mut self, flow: usize, seq: u64, line: CacheLine, tick: u64) {
        if seq > self.next_deliver[flow] {
            if self.hold[flow].is_empty() {
                self.hold_since[flow] = tick;
            }
            self.hold[flow].insert(seq, line);
            self.held_frames += 1;
            self.qstats.reorder_holds.inc();
            return;
        }
        self.stage_frame(flow, line, tick);
        if seq == self.next_deliver[flow] {
            self.next_deliver[flow] = seq + 1;
            self.drain_holds(flow, tick);
        }
        // seq < next_deliver cannot happen with unique fetch_add stamps
        // (the stall valve only ever skips *missing* stamps forward); the
        // frame was staged above regardless, so nothing is lost even then.
    }

    /// Stages one in-order frame into the request buffer + FIFO.
    fn stage_frame(&mut self, flow: usize, line: CacheLine, tick: u64) {
        match self.reqbuf.alloc(line) {
            Some(slot) => {
                self.fifos.push(flow, slot);
                self.sched.on_stage(flow, tick);
            }
            None => self.qstats.reqbuf_backpressure.inc(),
        }
    }

    /// Releases consecutive held frames now that `next_deliver` advanced.
    fn drain_holds(&mut self, flow: usize, tick: u64) {
        while let Some(entry) = self.hold[flow].first_entry() {
            if *entry.key() != self.next_deliver[flow] {
                break;
            }
            let line = entry.remove();
            self.held_frames -= 1;
            self.next_deliver[flow] += 1;
            self.hold_since[flow] = tick;
            self.stage_frame(flow, line, tick);
        }
    }

    /// The stall valve: a hold whose gap has not filled within
    /// [`HOLD_STALL_TICKS`] presumes its missing predecessors lost (e.g.
    /// dropped on the old path of a forced remap switch) and releases past
    /// them, so a lost frame costs latency, never liveness.
    fn release_stalled(&mut self, tick: u64) -> bool {
        if self.held_frames == 0 {
            return false;
        }
        let mut progress = false;
        for flow in 0..self.hold.len() {
            if self.hold[flow].is_empty()
                || tick.wrapping_sub(self.hold_since[flow]) < HOLD_STALL_TICKS
            {
                continue;
            }
            if let Some((&seq, _)) = self.hold[flow].first_key_value() {
                self.next_deliver[flow] = seq;
                self.qstats.reorder_flushes.inc();
                self.drain_holds(flow, tick);
                progress = true;
            }
        }
        progress
    }

    /// Shutdown: releases every held frame in stamp order regardless of
    /// gaps — missing predecessors are not coming.
    fn force_release_holds(&mut self) {
        if self.held_frames == 0 {
            return;
        }
        let tick = self.tick;
        for flow in 0..self.hold.len() {
            while let Some(entry) = self.hold[flow].first_entry() {
                let seq = *entry.key();
                let line = entry.remove();
                self.held_frames -= 1;
                self.next_deliver[flow] = seq + 1;
                self.qstats.reorder_flushes.inc();
                self.stage_frame(flow, line, tick);
            }
        }
    }

    /// Hands one steered frame to the worker owning `flow`, preserving
    /// arrival order behind any backlog toward the same worker.
    fn handoff(&mut self, owner: usize, flow: u16, seq: u64, line: CacheLine) {
        self.qstats.handoff_out.inc();
        if self.xfer_backlog[owner].is_empty() {
            if let Some(ring) = self.xfer_out[owner].as_mut() {
                if ring.try_push(flow, seq, line).is_ok() {
                    self.peer_wakers[owner].wake();
                    return;
                }
            }
        }
        self.xfer_backlog[owner].push_back((flow, seq, line));
    }

    fn rx_frame(&mut self, line: CacheLine, tick: u64) {
        let Ok(hdr) = RpcHeader::decode(line.header()) else {
            self.qstats.unknown_connection_drops.inc();
            return;
        };
        match hdr.fn_id.raw() {
            CTRL_OPEN_FN => {
                let tuple = decode_ctrl_open(&line);
                let addr = tuple.dest_addr;
                // Re-opening (e.g. a retried control frame) is idempotent.
                {
                    let mut cm = self.conn_mgr.lock();
                    let _ = cm.close(hdr.connection_id);
                    let _ = cm.open(hdr.connection_id, tuple);
                }
                // Acknowledge the open so the initiator's blocking setup
                // completes (and survives fabric loss via retries).
                let ack = ctrl_open_ack(hdr.connection_id);
                let mut lines = self.pool.get_lines();
                lines.push(ack);
                let dgram = Datagram::new(self.addr, addr, lines);
                let dst_queue = self.port.route(addr, conn_route_tag(hdr.connection_id));
                self.send_datagram(dgram, dst_queue);
                return;
            }
            CTRL_OPEN_ACK_FN => {
                self.confirmed.lock().insert(hdr.connection_id.raw());
                return;
            }
            CTRL_CLOSE_FN => {
                let _ = self.conn_mgr.lock().close(hdr.connection_id);
                return;
            }
            _ => {}
        }
        // Data frame confirmed (ctrl frames returned above): stamp the
        // fabric-arrival trace event for first request frames.
        if hdr.kind == RpcKind::Request && hdr.frame_idx == 0 {
            self.telemetry.tracer().record(
                hdr.connection_id.raw(),
                hdr.rpc_id.raw(),
                RpcEvent::EngineRx,
            );
        }
        let tuple = self
            .conn_cache
            .lookup(hdr.connection_id, CmPort::Rx, &self.conn_mgr);
        let Some(tuple) = tuple else {
            self.qstats.unknown_connection_drops.inc();
            return;
        };
        // RX half of the on-NIC offload stage (DESIGN.md §18): with
        // NIC-side serde on, annotated request lead frames are decoded here
        // with the IDL-generated tables. A cacheable read that hits is
        // answered from this queue's response cache — the frame never
        // reaches a host core; a write invalidates before steering on.
        if hdr.kind == RpcKind::Request && self.offload_rx(&hdr, &line, tuple.dest_addr) {
            return;
        }
        // Soft-reconfigurable policy selection.
        self.lb.set_policy(match tuple.lb {
            LbPolicy::Uniform => self.softregs.lb_policy(),
            pinned => pinned,
        });
        let n = self.active_flows();
        let total = self.rx_rings.len();
        let flow = self
            .lb
            .steer(&hdr, line.payload(), n, total, Some(tuple.src_flow))
            .raw() as usize;
        let owner = queue_of_flow(flow, total, self.num_queues);
        // Arrival stamp: the NIC-wide per-flow sequence fixes this frame's
        // delivery position *here*, before the local/handoff fork, so both
        // paths observe one total order per flow.
        let seq = self.flow_seq[flow].fetch_add(1, Ordering::Relaxed);
        if owner == usize::from(self.queue_id) {
            self.accept_frame(flow, seq, line, tick);
        } else {
            self.handoff(owner, flow as u16, seq, line);
        }
    }

    /// Classifies one request lead frame against the installed offload
    /// spec. Returns `true` only when the frame was fully served from the
    /// response cache — the caller must then drop it instead of steering it
    /// to the host.
    fn offload_rx(&mut self, hdr: &RpcHeader, line: &CacheLine, reply_to: NodeAddr) -> bool {
        if hdr.frame_idx != 0 || !self.softregs.nic_serde() {
            return false;
        }
        let offload = Arc::clone(&self.offload);
        let Some(fo) = offload.spec().and_then(|s| s.get(hdr.fn_id)) else {
            return false;
        };
        let payload = &line.payload()[..usize::from(hdr.frame_payload_len)];
        match fo.class {
            CacheClass::Read { key_field } => {
                // Only untraced single-frame reads are classified: the
                // serde table describes the request alone, and traced
                // payloads carry a trace-context prelude it does not cover.
                if hdr.traced || hdr.frame_count != 1 || !fo.req_table.validate(payload) {
                    offload.stats().bypass.inc();
                    return false;
                }
                let Some(range) = fo.req_table.field_range(payload, key_field) else {
                    offload.stats().bypass.inc();
                    return false;
                };
                let cap = self.softregs.offload_cache_entries() as usize;
                if cap == 0 {
                    // Cache disabled: pure host path, no miss accounting.
                    return false;
                }
                let queue = usize::from(self.queue_id);
                match offload.on_read_rx(
                    queue,
                    hdr.fn_id,
                    hdr.connection_id,
                    hdr.rpc_id,
                    &payload[range],
                    cap,
                ) {
                    Some(cached) => {
                        self.send_offload_hit(hdr, reply_to, &cached);
                        true
                    }
                    None => false,
                }
            }
            CacheClass::Write { key_field } => {
                // Writes invalidate and continue to the host. The key is
                // extracted when the lead frame holds it whole; otherwise
                // (or under tracing's payload prelude) the conservative
                // whole-cache epoch flush applies.
                let key = if hdr.traced {
                    None
                } else {
                    fo.req_table
                        .field_range(payload, key_field)
                        .map(|r| &payload[r])
                };
                offload.on_write_rx(hdr.connection_id, hdr.rpc_id, key);
                false
            }
        }
    }

    /// Synthesizes and ships the response frames of a cache hit. The header
    /// mirrors the request's identifiers (so the client's reassembler and
    /// completion matching work unchanged); the `offloaded` kind bit marks
    /// the response as NIC-served for endpoint accounting.
    fn send_offload_hit(&mut self, req: &RpcHeader, dst: NodeAddr, payload: &[u8]) {
        debug_assert!(!payload.is_empty(), "cached payloads carry a status byte");
        let frame_count = payload.len().div_ceil(FRAME_PAYLOAD_BYTES);
        let mut lines = self.pool.get_lines();
        for (idx, chunk) in payload.chunks(FRAME_PAYLOAD_BYTES).enumerate() {
            let hdr = RpcHeader {
                connection_id: req.connection_id,
                rpc_id: req.rpc_id,
                fn_id: req.fn_id,
                src_flow: req.src_flow,
                kind: RpcKind::Response,
                frame_idx: idx as u8,
                frame_count: frame_count as u8,
                frame_payload_len: chunk.len() as u8,
                traced: false,
                offloaded: true,
            };
            let mut line = CacheLine::zeroed();
            hdr.encode(line.header_mut());
            line.payload_mut()[..chunk.len()].copy_from_slice(chunk);
            lines.push(line);
        }
        let dst_queue = self.port.route(dst, conn_route_tag(req.connection_id));
        self.send_datagram(Datagram::new(self.addr, dst, lines), dst_queue);
    }

    /// Delivery: the flow scheduler picks formed batches and the CCI-P
    /// transmitter writes them into the RX rings. `drain_all` (shutdown)
    /// flushes partially formed batches too. `rx_quiet` says the RX and
    /// inbox rounds of this tick moved nothing: with the `auto_batch` soft
    /// register on, a quiet tick ships partial batches immediately —
    /// under load frames keep arriving and full batches form on their
    /// own, so waiting out the scheduler timeout only buys latency, not
    /// batching (§4.4.1 adaptive batching).
    fn deliver_round(&mut self, tick: u64, drain_all: bool, rx_quiet: bool) -> bool {
        let batch = if drain_all {
            1
        } else {
            self.softregs.batch_size() as usize
        };
        let ready = if drain_all || (rx_quiet && self.softregs.auto_batch()) {
            1
        } else {
            batch
        };
        let mut progress = false;
        while let Some(flow) = self.sched.pick(&self.fifos, ready, tick) {
            for slot in self.fifos.pop_batch(flow, batch.max(1)) {
                let line = self.reqbuf.take(slot);
                // The extra header decode for the trace key is gated on the
                // tracer so the untraced hot path stays decode-free here.
                let traced = if self.telemetry.tracer().is_enabled() {
                    RpcHeader::decode(line.header())
                        .ok()
                        .filter(|h| h.kind == RpcKind::Request && h.frame_idx == 0)
                        .map(|h| (h.connection_id.raw(), h.rpc_id.raw()))
                } else {
                    None
                };
                // Only owned flows are ever staged here; a missing ring is
                // a steering bug surfaced as a counted drop, never a silent
                // loss.
                let delivered = match self.rx_rings[flow].as_mut() {
                    Some(ring) => ring.try_push(line).is_ok(),
                    None => false,
                };
                let bank = &self.monitor.flows()[flow];
                if delivered {
                    bank.rx_frames.inc();
                    if let Some((cid, rid)) = traced {
                        self.telemetry
                            .tracer()
                            .record(cid, rid, RpcEvent::RxDeliver);
                    }
                } else {
                    self.qstats.rx_ring_drops.inc();
                    bank.rx_ring_drops.inc();
                }
            }
            self.sched.on_drain(flow, self.fifos.len(flow) == 0, tick);
            progress = true;
        }
        progress
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
    use crate::xfer::xfer_ring;
    use dagger_types::{FlowId, FnId, RpcId, SoftConfigSnapshot};

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
        let softregs = SoftRegisterFile::new(SoftConfigSnapshot {
            batch_size: 16,
            auto_batch: false,
            active_flows: flows as u16,
            lb_policy: LbPolicy::Uniform,
        });
        // These tests drive rounds by hand and never send control frames.
        let (_ctrl_tx, ctrl_rx) = crossbeam::channel::unbounded();
        NicShared {
            addr,
            conn_mgr,
            softregs: Arc::new(softregs.unwrap()),
            monitor: Arc::new(PacketMonitor::new(flows, queues)),
            stop: Arc::new(AtomicBool::new(false)),
            stop_barrier: Arc::new(AtomicUsize::new(0)),
            ctrl_rx,
            confirmed: Arc::new(Mutex::new(HashSet::new())),
            telemetry: Telemetry::new(),
            wakers: (0..queues).map(|_| Arc::new(EngineWaker::new())).collect(),
            flow_seq: Arc::new((0..flows).map(|_| AtomicU64::new(0)).collect()),
            offload: Arc::new(OffloadState::new(queues)),
            reqbuf_slots: 256,
        }
    }

    /// Builds an engine core wired back to itself, so every pooled buffer
    /// circulates.
    fn loopback_core() -> (
        EngineCore,
        crate::ring::RingProducer,
        crate::ring::RingConsumer,
    ) {
        let shared = looped_shared(1, 1);
        let fabric = MemFabric::new();
        let (host_tx, engine_rx) = ring(64);
        let (engine_tx, host_rx) = ring(64);
        let parts = WorkerParts {
            queue_id: 0,
            port: fabric.attach_queues(shared.addr, 1).unwrap().remove(0),
            tx_rings: vec![Some(engine_rx)],
            rx_rings: vec![Some(engine_tx)],
            xfer_out: vec![None],
            xfer_in: Vec::new(),
            reliable: None,
            arbiter: None,
        };
        (EngineCore::new(&shared, parts), host_tx, host_rx)
    }

    /// Builds a 2-queue sharded NIC as two hand-driven [`EngineCore`]s on
    /// one fabric address: flow 0 belongs to queue 0, flow 1 to queue 1.
    /// The single connection loops back to the NIC's own address, so worker
    /// 0's TX datagrams land on the RSS-routed queue, and steering across
    /// both flows exercises both the local staging path and the cross-queue
    /// handoff ring.
    fn sharded_pair() -> (
        Vec<EngineCore>,
        crate::ring::RingProducer,
        Vec<crate::ring::RingConsumer>,
    ) {
        let shared = looped_shared(2, 2);
        let fabric = MemFabric::new();
        let ports = fabric.attach_queues(shared.addr, 2).unwrap();

        let (host_tx, engine_rx) = ring(64);
        let (engine_tx0, host_rx0) = ring(64);
        let (engine_tx1, host_rx1) = ring(64);
        // One handoff ring per ordered worker pair.
        let (p01, c01) = xfer_ring(64);
        let (p10, c10) = xfer_ring(64);

        let mut tx_rings = [vec![Some(engine_rx), None], vec![None, None]];
        let mut rx_rings = [vec![Some(engine_tx0), None], vec![None, Some(engine_tx1)]];
        let mut xfer_out = [vec![None, Some(p01)], vec![Some(p10), None]];
        let mut xfer_in = [vec![c10], vec![c01]];

        let cores = ports
            .into_iter()
            .enumerate()
            .map(|(q, port)| {
                let parts = WorkerParts {
                    queue_id: q as u16,
                    port,
                    tx_rings: std::mem::take(&mut tx_rings[q]),
                    rx_rings: std::mem::take(&mut rx_rings[q]),
                    xfer_out: std::mem::take(&mut xfer_out[q]),
                    xfer_in: std::mem::take(&mut xfer_in[q]),
                    reliable: None,
                    arbiter: None,
                };
                EngineCore::new(&shared, parts)
            })
            .collect();
        (cores, host_tx, vec![host_rx0, host_rx1])
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

    /// A data frame on connection 2, which this opens toward `dst` — any
    /// address other than the core's own.
    fn frame_toward(core: &EngineCore, dst: NodeAddr, rpc: u32) -> CacheLine {
        let tuple = ConnectionTuple {
            src_flow: FlowId(0),
            dest_addr: dst,
            lb: LbPolicy::Uniform,
        };
        let _ = core.conn_mgr.lock().open(ConnectionId(2), tuple);
        let mut line = data_frame(rpc);
        let mut hdr = RpcHeader::decode(line.header()).unwrap();
        hdr.connection_id = ConnectionId(2);
        hdr.encode(line.header_mut());
        line
    }

    /// One full loopback cycle: the host pushes `burst` frames and steps
    /// the core until all of them came back around — TX ships them to the
    /// engine's own port, RX steers them into the FIFOs, delivery writes
    /// the RX ring (at once for a full batch, after the scheduler timeout
    /// for a partial one) — and the "host" drains it.
    fn cycle(
        core: &mut EngineCore,
        host_tx: &mut crate::ring::RingProducer,
        host_rx: &mut crate::ring::RingConsumer,
        burst: u32,
    ) {
        for i in 0..burst {
            host_tx.try_push(data_frame(i)).unwrap();
        }
        let mut back = 0;
        for _ in 0..=SCHED_TIMEOUT_TICKS {
            core.step();
            while host_rx.try_pop().is_some() {
                back += 1;
            }
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
            cycle(&mut core, &mut host_tx, &mut host_rx, 16);
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
            cycle(&mut core, &mut host_tx, &mut host_rx, 16);
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

    /// One hand-driven cycle of the 2-queue pair: the host pushes responses
    /// alternating between flow 0 and flow 1 on queue 0's TX, then both
    /// workers step until the scheduler timeout has flushed the partial
    /// batches — queue 0 ships, the RSS-routed receiving worker steers
    /// (handing the foreign flow's frames over the xfer ring), both deliver
    /// — and the host drains both RX rings. Returns frames seen per flow.
    fn sharded_cycle(
        cores: &mut [EngineCore],
        host_tx: &mut crate::ring::RingProducer,
        host_rx: &mut [crate::ring::RingConsumer],
        burst: u32,
    ) -> [u32; 2] {
        for i in 0..burst {
            host_tx.try_push(response_frame(i, (i % 2) as u16)).unwrap();
        }
        for _ in 0..=SCHED_TIMEOUT_TICKS {
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

    #[test]
    fn sharded_steady_state_steps_perform_zero_heap_allocations() {
        let (mut cores, mut host_tx, mut host_rx) = sharded_pair();
        // The receiving queue is fixed by the connection's route tag.
        let rx_q = usize::from(
            cores[0]
                .port
                .route(NodeAddr(1), conn_route_tag(ConnectionId(1))),
        );
        let other = 1 - rx_q;
        let mut total = [0u32; 2];
        for _ in 0..8 {
            let seen = sharded_cycle(&mut cores, &mut host_tx, &mut host_rx, 16);
            total[0] += seen[0];
            total[1] += seen[1];
        }
        // Pinned steering alternating across 2 flows: both flows (and hence
        // both workers, one via the handoff ring) saw traffic.
        assert_eq!(total, [64, 64], "a flow starved");

        // Warmed: a whole cycle — queue 0's TX, the receiving queue's RX
        // (including its half of the handoffs), the sibling's inbox drain
        // and both deliveries — must stay off the heap.
        let (allocs, seen) = alloc_counter::count_allocs(|| {
            sharded_cycle(&mut cores, &mut host_tx, &mut host_rx, 16)
        });
        assert_eq!(seen, [8, 8], "measured cycle lost frames");
        assert_eq!(
            allocs, 0,
            "sharded steady-state cycle hit the allocator {allocs} time(s)"
        );
        // The handoff actually happened across the measured cycles.
        let out = cores[rx_q].qstats.snapshot().handoff_out;
        let inn = cores[other].qstats.snapshot().handoff_in;
        assert!(out > 0, "receiving worker never handed off");
        assert!(inn > 0, "owning worker never accepted a handoff");
        // Every count lives in exactly one worker's bank, so the whole-NIC
        // view is the field-wise sum of the queue snapshots.
        let snap = cores[0].monitor.snapshot();
        assert_eq!(snap.queues.len(), 2);
        assert_eq!(snap.totals, snap.queues.iter().copied().sum());
        assert_eq!(snap.tx_frames, 9 * 16);
        assert_eq!(snap.tx_frames, snap.rx_frames);
        assert_eq!(snap.handoff_out, snap.handoff_in);
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
    fn sharded_handoff_preserves_per_flow_fifo_order() {
        let (mut cores, mut host_tx, mut host_rx) = sharded_pair();
        // Responses pin to src_flow; send interleaved flow-0/flow-1 frames
        // so each flow's subsequence is strictly increasing in rpc id.
        let mut got: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
        for round in 0..32u32 {
            for i in 0..8u32 {
                let rpc = round * 8 + i;
                host_tx
                    .try_push(response_frame(rpc, (rpc % 2) as u16))
                    .unwrap();
            }
            for _ in 0..=SCHED_TIMEOUT_TICKS {
                for core in cores.iter_mut() {
                    core.step();
                }
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
    }
}
