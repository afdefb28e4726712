//! The assembled Dagger NIC.
//!
//! [`Nic::start`] attaches a NIC to a [`Fabric`] backend (the in-process
//! switch, the UDP fabric, …) under a [`NodeAddr`],
//! provisions the per-flow TX/RX cache-line rings (Fig. 7), and builds
//! `num_queues` engine workers (the multi-queue scaling knob of Fig. 11),
//! each with a fallback thread; a host thread waiting on a flow drives the
//! flow's worker itself (`drive.rs`). Flows are partitioned contiguously
//! across workers by
//! [`queue_of_flow`]; each worker polls only its own flows' TX rings and
//! writes only its own flows' RX rings, receives on its own fabric port
//! queue, and hands frames steered to a foreign flow to the owning worker
//! over an SPSC [`crate::xfer`] ring. The soft register file's
//! active-queue mask gates *new* RSS routing decisions at runtime without
//! re-synthesis.
//!
//! Host threads claim flows with [`Nic::take_flow`] (or
//! [`Nic::take_flow_on_queue`] to pin work to one engine worker) — each
//! [`HostFlow`] is the 1-to-1 ring pair backing one `RpcClient` or one
//! server dispatch thread — and manage connections with
//! [`Nic::open_connection`] / [`Nic::close_connection`], which register the
//! tuple in the local Connection Manager and announce it to the remote NIC
//! with an in-band control frame.
//!
//! Multiple NICs can share one fabric *and* one
//! [`CcipArbiter`](crate::arbiter::CcipArbiter) — that is the NIC
//! virtualization of Fig. 14: each tenant gets a "virtual but physical" NIC
//! with its own rings, connection cache, and soft registers. Virtualized
//! NICs are single-queue: the arbiter models one physical CCI-P bus
//! interface, so `num_queues > 1` under an arbiter slot is a configuration
//! error.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;

use dagger_telemetry::{FlightEventKind, Telemetry};
use dagger_types::{
    ConnectionId, DaggerError, FlowId, HardConfig, LbPolicy, NodeAddr, OffloadSpec, Result,
};

use crate::arbiter::ArbiterSlot;
use crate::balancer::QueueBalancer;
use crate::bank::GaugeNames;
use crate::bufpool::BufPoolSnapshot;
use crate::conncache::ConnCacheSnapshot;
use crate::connmgr::{ctrl_close, ctrl_open, ConnMgrSnapshot, ConnectionManager, ConnectionTuple};
use crate::drive::{EngineHandle, EngineSlot, HostWait};
use crate::engine::{EngineCore, NicShared, WorkerParts};
use crate::fabric::{Fabric, FabricPort};
use crate::monitor::{FlowSnapshot, PacketMonitor, QueueSnapshot};
use crate::offload::{OffloadSnapshot, OffloadState};
use crate::reliable::{ReliableConfig, ReliableStats, ReliableTransport, SharedReliableStats};
use crate::ring::{ring, RingConsumer, RingProducer};
use crate::softreg::SoftRegisterFile;
use crate::transport::Datagram;
use crate::wait::EngineWaker;
use crate::xfer::{xfer_ring, XferConsumer, XferProducer};

/// Capacity of each cross-queue handoff ring (entries). Deep enough that
/// the receiving worker only falls back to its backlog under sustained
/// imbalance; shallow enough to bound stranded frames at shutdown.
const XFER_RING_CAPACITY: usize = 1024;

/// The engine worker owning `flow`: flows are partitioned contiguously,
/// `num_flows / num_queues` apiece (the first `num_flows % num_queues`
/// partitions absorb the remainder). The mapping is total — every valid
/// flow has exactly one owner — and monotone, so a worker's flows are one
/// contiguous range.
pub fn queue_of_flow(flow: usize, num_flows: usize, num_queues: usize) -> usize {
    if num_flows == 0 || num_queues <= 1 {
        return 0;
    }
    (flow.min(num_flows - 1) * num_queues) / num_flows
}

/// One hardware flow's host-side endpoints: the TX ring the host writes
/// RPC frames into and the RX ring it polls for deliveries.
#[derive(Debug)]
pub struct HostFlow {
    /// The flow id (also the ring pair index).
    pub flow: FlowId,
    /// Host → NIC ring.
    pub tx: RingProducer,
    /// NIC → host ring.
    pub rx: RingConsumer,
    /// The engine queue that owns this flow: what the flow's host thread
    /// steps while it waits.
    pub engine: EngineHandle,
}

/// The gauge names of every counter bank one NIC exports (DESIGN.md §10).
struct NicGaugeNames {
    totals: GaugeNames,
    per_queue: Vec<GaugeNames>,
    per_flow: Vec<GaugeNames>,
    pool: GaugeNames,
    conncache: GaugeNames,
    offload: GaugeNames,
    cm: GaugeNames,
    reliable: GaugeNames,
    reliable_per_queue: Vec<GaugeNames>,
}

impl NicGaugeNames {
    fn new(prefix: &str, queues: usize, flows: usize, reliable_queues: usize) -> Self {
        let under = |sub: &str, names| GaugeNames::new(&format!("{prefix}.{sub}"), names);
        let cm: Vec<_> = ConnMgrSnapshot::default().iter().map(|(n, _)| n).collect();
        NicGaugeNames {
            totals: GaugeNames::new(prefix, QueueSnapshot::NAMES),
            per_queue: (0..queues)
                .map(|q| under(&format!("q{q}"), QueueSnapshot::NAMES))
                .collect(),
            per_flow: (0..flows)
                .map(|i| under(&format!("flow.{i}"), FlowSnapshot::NAMES))
                .collect(),
            pool: under("pool", BufPoolSnapshot::NAMES),
            conncache: under("conncache", ConnCacheSnapshot::NAMES),
            offload: under("offload", OffloadSnapshot::NAMES),
            cm: under("cm", &cm),
            reliable: under("reliable", ReliableStats::NAMES),
            reliable_per_queue: (0..reliable_queues)
                .map(|q| under(&format!("q{q}.reliable"), ReliableStats::NAMES))
                .collect(),
        }
    }
}

/// A running Dagger NIC instance.
pub struct Nic {
    addr: NodeAddr,
    cfg: HardConfig,
    /// Kept to pin the fabric attachment for the NIC's lifetime (the
    /// engine workers hold their own clones).
    _ports: Vec<Arc<dyn FabricPort>>,
    softregs: Arc<SoftRegisterFile>,
    monitor: Arc<PacketMonitor>,
    conn_mgr: Arc<Mutex<ConnectionManager>>,
    unclaimed: Mutex<Vec<HostFlow>>,
    next_conn: AtomicU32,
    stop: Arc<AtomicBool>,
    engines: Mutex<Vec<JoinHandle<()>>>,
    ctrl_tx: Sender<(NodeAddr, Datagram)>,
    confirmed: Arc<Mutex<HashSet<u32>>>,
    telemetry: Arc<Telemetry>,
    /// Per-worker wakeup latches (control sends and shutdown kick all of
    /// them; the control channel is shared, so any worker may be the one
    /// that must notice).
    wakers: Vec<Arc<EngineWaker>>,
    /// Per-worker host-side handles, as handed out with the flows.
    engine_handles: Vec<EngineHandle>,
    /// Per-worker reliable-transport counter banks (empty when the NIC is
    /// not reliable).
    reliable_stats: Vec<Arc<SharedReliableStats>>,
    /// The on-NIC compute offload stage (DESIGN.md §18), shared with every
    /// engine worker. Idle until [`Nic::configure_offload`] installs a spec
    /// and the `nic_serde` soft register is raised.
    offload: Arc<OffloadState>,
}

impl std::fmt::Debug for Nic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nic")
            .field("addr", &self.addr)
            .field("flows", &self.cfg.num_flows)
            .field("queues", &self.cfg.num_queues)
            .field("iface", &self.cfg.iface)
            .finish()
    }
}

impl Nic {
    /// Starts a NIC on `fabric` under `addr` with the given hard
    /// configuration, exclusively owning its bus.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or the address is
    /// already attached.
    pub fn start(fabric: &dyn Fabric, addr: NodeAddr, cfg: HardConfig) -> Result<Arc<Nic>> {
        Self::start_inner(fabric, addr, cfg, None, Telemetry::new())
    }

    /// Like [`Nic::start`], but plugs the NIC into an existing telemetry
    /// hub. Share one hub between the NICs at both ends of a connection so
    /// RPC traces stamped on either side land in one table against one
    /// clock epoch.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or the address is
    /// already attached.
    pub fn start_with_telemetry(
        fabric: &dyn Fabric,
        addr: NodeAddr,
        cfg: HardConfig,
        telemetry: Arc<Telemetry>,
    ) -> Result<Arc<Nic>> {
        Self::start_inner(fabric, addr, cfg, None, telemetry)
    }

    /// Starts a NIC sharing the physical bus with other tenants through a
    /// fair round-robin arbiter slot (NIC virtualization, Fig. 14).
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid (virtualized NICs
    /// must be single-queue) or the address is already attached.
    pub fn start_virtual(
        fabric: &dyn Fabric,
        addr: NodeAddr,
        cfg: HardConfig,
        slot: ArbiterSlot,
    ) -> Result<Arc<Nic>> {
        Self::start_inner(fabric, addr, cfg, Some(slot), Telemetry::new())
    }

    #[allow(clippy::too_many_lines)]
    fn start_inner(
        fabric: &dyn Fabric,
        addr: NodeAddr,
        cfg: HardConfig,
        mut arbiter: Option<ArbiterSlot>,
        telemetry: Arc<Telemetry>,
    ) -> Result<Arc<Nic>> {
        cfg.validate()?;
        if arbiter.is_some() && cfg.num_queues > 1 {
            return Err(DaggerError::Config(
                "NIC virtualization requires num_queues = 1 (the arbiter \
                 models one physical CCI-P bus interface)"
                    .to_string(),
            ));
        }
        let nq = cfg.num_queues;
        let ports: Vec<Arc<dyn FabricPort>> = fabric.attach_queues(addr, nq)?;
        let softregs = Arc::new(SoftRegisterFile::default());
        // Batch-size writes clamp to what the host rings can actually hold;
        // an oversized soft register can no longer stall a full ring round.
        softregs.set_batch_limit(cfg.tx_ring_capacity.min(cfg.rx_ring_capacity));
        // The soft active-queue mask gates new RSS routing decisions made
        // by *senders* toward this NIC.
        fabric.set_queue_mask(addr, softregs.active_queue_mask_handle());
        let monitor = Arc::new(PacketMonitor::new(cfg.num_flows, nq));
        let conn_mgr = Arc::new(Mutex::new(ConnectionManager::new(cfg.conn_cache_entries)));

        // Engine wakeup latches, one per worker: host TX pushes on owned
        // flows, fabric deliveries to the worker's queue, sibling handoffs,
        // control sends, and shutdown all pull a worker out of its park.
        let wakers: Vec<Arc<EngineWaker>> = monitor
            .queues()
            .iter()
            .map(|stats| Arc::new(EngineWaker::for_queue(Arc::clone(stats))))
            .collect();
        for (q, w) in wakers.iter().enumerate() {
            fabric.set_queue_waker(addr, q as u16, Arc::clone(w));
        }

        let mut host_rings = Vec::with_capacity(cfg.num_flows);
        // Globally indexed ring vectors per worker: `Some` at owned flows.
        let mut tx_consumers: Vec<Vec<Option<RingConsumer>>> = (0..nq)
            .map(|_| (0..cfg.num_flows).map(|_| None).collect())
            .collect();
        let mut rx_producers: Vec<Vec<Option<RingProducer>>> = (0..nq)
            .map(|_| (0..cfg.num_flows).map(|_| None).collect())
            .collect();
        for i in 0..cfg.num_flows {
            let owner = queue_of_flow(i, cfg.num_flows, nq);
            let (mut tx_p, tx_c) = ring(cfg.tx_ring_capacity);
            tx_p.set_waker(Arc::clone(&wakers[owner]));
            let (rx_p, rx_c) = ring(cfg.rx_ring_capacity);
            host_rings.push((tx_p, rx_c));
            tx_consumers[owner][i] = Some(tx_c);
            rx_producers[owner][i] = Some(rx_p);
        }

        // Handoff ring matrix: one SPSC ring per ordered worker pair.
        let mut xfer_out: Vec<Vec<Option<XferProducer>>> =
            (0..nq).map(|_| (0..nq).map(|_| None).collect()).collect();
        let mut xfer_in: Vec<Vec<XferConsumer>> = (0..nq).map(|_| Vec::new()).collect();
        for (j, out_row) in xfer_out.iter_mut().enumerate() {
            for k in 0..nq {
                if j == k {
                    continue;
                }
                let (p, c) = xfer_ring(XFER_RING_CAPACITY);
                out_row[k] = Some(p);
                xfer_in[k].push(c);
            }
        }

        let stop = Arc::new(AtomicBool::new(false));
        let stop_barrier = Arc::new(AtomicUsize::new(0));
        let (ctrl_tx, ctrl_rx) = unbounded();
        let confirmed = Arc::new(Mutex::new(HashSet::new()));
        // NIC-wide per-flow arrival sequence counters: stamped by whichever
        // worker steers a frame, consumed in order by the flow's owner.
        let flow_seq: Arc<Vec<AtomicU64>> =
            Arc::new((0..cfg.num_flows).map(|_| AtomicU64::new(0)).collect());

        // The offload stage is NIC-wide: per-queue caches inside, shared
        // generation counters across workers, wired to the flight recorder
        // under this NIC's address.
        let offload = Arc::new(OffloadState::new(nq));
        offload.install_flight(Arc::clone(telemetry.flight()), addr.raw());

        // Build every worker first, collecting its stat handles for the
        // telemetry collector, then register the collector, then spawn.
        let shared = NicShared {
            addr,
            conn_mgr: Arc::clone(&conn_mgr),
            softregs: Arc::clone(&softregs),
            monitor: Arc::clone(&monitor),
            stop: Arc::clone(&stop),
            stop_barrier,
            ctrl_rx,
            confirmed: Arc::clone(&confirmed),
            telemetry: Arc::clone(&telemetry),
            wakers: wakers.clone(),
            flow_seq,
            offload: Arc::clone(&offload),
            reqbuf_slots: (cfg.rx_ring_capacity * cfg.num_flows).max(64),
        };
        let mut cores = Vec::with_capacity(nq);
        let mut pool_stats = Vec::with_capacity(nq);
        let mut conncache_stats = Vec::with_capacity(nq);
        let mut reliable_stats = Vec::new();
        for (q, port) in ports.iter().enumerate() {
            let reliable = cfg.reliable.then(|| {
                ReliableTransport::new_on_queue(addr, q as u16, ReliableConfig::default())
            });
            if let Some(rel) = &reliable {
                reliable_stats.push(rel.shared_stats());
            }
            let core = EngineCore::new(
                &shared,
                WorkerParts {
                    queue_id: q as u16,
                    port: Arc::clone(port),
                    tx_rings: std::mem::take(&mut tx_consumers[q]),
                    rx_rings: std::mem::take(&mut rx_producers[q]),
                    xfer_out: std::mem::take(&mut xfer_out[q]),
                    xfer_in: std::mem::take(&mut xfer_in[q]),
                    reliable,
                    arbiter: arbiter.take(),
                },
            );
            pool_stats.push(core.pool.shared_stats());
            conncache_stats.push(core.conn_cache.shared_stats());
            cores.push(core);
        }

        // Fold this NIC's counter banks (Packet Monitor per-queue + their
        // sum + per-flow, per-worker pools/caches/reliable transports, the
        // offload stage, Connection Manager) into the shared registry on
        // every telemetry collection: one walk per bank over prebuilt gauge
        // names. The names are built by the first collection, not here —
        // some hundred strings per NIC would be a tenth of the time it
        // takes to start one. The closure captures only the shared state
        // Arcs, not the Nic, so there is no reference cycle.
        {
            let monitor = Arc::clone(&monitor);
            let conn_mgr = Arc::clone(&conn_mgr);
            let reliable_stats = reliable_stats.clone();
            let offload = Arc::clone(&offload);
            let prefix = format!("nic.{}", addr.raw());
            let (name, flows, reliable_queues) =
                (prefix.clone(), cfg.num_flows, reliable_stats.len());
            let gauges =
                LazyLock::new(move || NicGaugeNames::new(&prefix, nq, flows, reliable_queues));
            let flight = Arc::clone(telemetry.flight());
            let addr_raw = addr.raw();
            // Previous collection's pooled-buffer miss total: a growing
            // miss count after the pools have warmed (recycled > 0) means
            // steady-state exhaustion, worth a flight-recorder event.
            let prev_misses = AtomicU64::new(0);
            telemetry.register_collector(&name, move |reg| {
                let s = monitor.snapshot();
                gauges.totals.export(reg, s.totals.iter());
                for (names, q) in gauges.per_queue.iter().zip(&s.queues) {
                    names.export(reg, q.iter());
                }
                for (names, f) in gauges.per_flow.iter().zip(monitor.flows()) {
                    names.export(reg, f.snapshot().iter());
                }
                let p: BufPoolSnapshot = pool_stats.iter().map(|p| p.snapshot()).sum();
                gauges.pool.export(reg, p.iter());
                let prev = prev_misses.swap(p.misses, Ordering::Relaxed);
                if p.misses > prev && p.recycled > 0 {
                    flight.record(
                        FlightEventKind::PoolExhausted,
                        addr_raw,
                        p.misses - prev,
                        p.misses,
                    );
                }
                let c: ConnCacheSnapshot = conncache_stats.iter().map(|c| c.snapshot()).sum();
                gauges.conncache.export(reg, c.iter());
                gauges
                    .offload
                    .export(reg, offload.stats().snapshot().iter());
                gauges.cm.export(reg, conn_mgr.lock().snapshot().iter());
                if !reliable_stats.is_empty() {
                    let mut total = ReliableStats::default();
                    for (names, bank) in gauges.reliable_per_queue.iter().zip(&reliable_stats) {
                        let r = bank.snapshot();
                        names.export(reg, r.iter());
                        total += r;
                    }
                    gauges.reliable.export(reg, total.iter());
                }
            });
        }

        // A virtual NIC stays thread-driven: its engine takes a strict
        // round-robin bus grant before every step, and a host thread
        // descheduled while holding the slot would stall every tenant
        // behind it (DESIGN.md §12).
        let host_driven = cores.iter().all(|core| core.arbiter.is_none());
        let mut threads = Vec::with_capacity(nq);
        let mut handles = Vec::with_capacity(nq);
        for core in cores {
            let q = core.queue_id;
            let slot = EngineSlot::new(core);
            handles.push(if host_driven {
                EngineHandle::attached(Arc::clone(&slot))
            } else {
                EngineHandle::detached()
            });
            let handle = std::thread::Builder::new()
                .name(format!("dagger-nic-{}-q{q}", addr.raw()))
                .spawn(move || slot.run())
                .map_err(|e| DaggerError::Fabric(format!("failed to spawn engine: {e}")))?;
            threads.push(handle);
        }
        let host_flows = host_rings
            .into_iter()
            .enumerate()
            .map(|(i, (tx, rx))| HostFlow {
                flow: FlowId(i as u16),
                tx,
                rx,
                engine: handles[queue_of_flow(i, cfg.num_flows, nq)].clone(),
            })
            .collect();

        Ok(Arc::new(Nic {
            addr,
            cfg,
            _ports: ports,
            softregs,
            monitor,
            conn_mgr,
            unclaimed: Mutex::new(host_flows),
            next_conn: AtomicU32::new(1),
            stop,
            engines: Mutex::new(threads),
            ctrl_tx,
            confirmed,
            telemetry,
            wakers,
            engine_handles: handles,
            reliable_stats,
            offload,
        }))
    }

    /// This NIC's fabric address.
    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// The hard configuration the NIC was synthesized with.
    pub fn config(&self) -> &HardConfig {
        &self.cfg
    }

    /// The soft register file (runtime reconfiguration, §4.1).
    pub fn softregs(&self) -> &Arc<SoftRegisterFile> {
        &self.softregs
    }

    /// The packet monitor: per-queue and per-flow counter banks.
    pub fn monitor(&self) -> &Arc<PacketMonitor> {
        &self.monitor
    }

    /// Reliable-transport counters summed over every engine queue (all
    /// zero on an unreliable NIC); also exported as
    /// `nic.<addr>.reliable.*` gauges.
    pub fn reliable_stats(&self) -> ReliableStats {
        self.reliable_stats.iter().map(|rs| rs.snapshot()).sum()
    }

    /// Installs the on-NIC offload spec: the IDL-generated serde and cache
    /// tables the engine executes per frame (DESIGN.md §18). One-shot, like
    /// hardware configuration at synthesis time — returns `false` if a spec
    /// was already installed. The stage stays inert until the `nic_serde`
    /// soft register is raised, and the response cache additionally until
    /// `offload_cache_entries` is nonzero.
    pub fn configure_offload(&self, spec: OffloadSpec) -> bool {
        self.offload.configure(spec)
    }

    /// Counters of the on-NIC offload stage (also exported as
    /// `nic.<addr>.offload.*` gauges).
    pub fn offload_stats(&self) -> OffloadSnapshot {
        self.offload.stats().snapshot()
    }

    /// The telemetry hub this NIC reports into (private to the NIC unless
    /// one was passed to [`Nic::start_with_telemetry`]).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Spawns the elastic RSS controller for this NIC: a closed loop from
    /// the per-queue `rx_frames` counters back into the `queue.mask` soft
    /// register (see [`crate::balancer`]).
    pub fn start_balancer(&self, cfg: crate::balancer::BalancerConfig) -> QueueBalancer {
        QueueBalancer::start(
            Arc::clone(&self.telemetry),
            Arc::clone(&self.softregs),
            self.addr,
            self.monitor.queues().to_vec(),
            cfg,
        )
    }

    /// Claims the next unclaimed flow (ring pair). Flows are claimed in
    /// ascending id order.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Config`] when all hard-configured flows are
    /// claimed.
    pub fn take_flow(&self) -> Result<HostFlow> {
        let mut flows = self.unclaimed.lock();
        if flows.is_empty() {
            return Err(DaggerError::Config(format!(
                "all {} flows already claimed",
                self.cfg.num_flows
            )));
        }
        Ok(flows.remove(0))
    }

    /// Claims the lowest unclaimed flow owned by engine queue `queue`
    /// (see [`queue_of_flow`]), pinning the caller's traffic to that
    /// worker's TX/RX path.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Config`] when the queue is out of range or
    /// all of its flows are claimed.
    pub fn take_flow_on_queue(&self, queue: usize) -> Result<HostFlow> {
        if queue >= self.cfg.num_queues {
            return Err(DaggerError::Config(format!(
                "queue {queue} out of range (num_queues = {})",
                self.cfg.num_queues
            )));
        }
        let mut flows = self.unclaimed.lock();
        let pos = flows.iter().position(|f| {
            queue_of_flow(
                usize::from(f.flow.raw()),
                self.cfg.num_flows,
                self.cfg.num_queues,
            ) == queue
        });
        match pos {
            Some(i) => Ok(flows.remove(i)),
            None => Err(DaggerError::Config(format!(
                "all flows of queue {queue} already claimed"
            ))),
        }
    }

    /// Flows not yet claimed.
    pub fn unclaimed_flows(&self) -> usize {
        self.unclaimed.lock().len()
    }

    /// Allocates a fabric-unique connection id: high 16 bits from this
    /// NIC's address, low 16 bits a local counter.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Config`] if 65 535 connections were already
    /// allocated on this NIC.
    pub fn allocate_connection_id(&self) -> Result<ConnectionId> {
        let local = self.next_conn.fetch_add(1, Ordering::Relaxed);
        if local > u32::from(u16::MAX) {
            return Err(DaggerError::Config(
                "connection id space exhausted".to_string(),
            ));
        }
        Ok(ConnectionId((self.addr.raw() & 0xFFFF) << 16 | local))
    }

    /// Opens a connection from local flow `src_flow` to the service at
    /// `remote`, registering it in the local Connection Manager and
    /// announcing it in-band to the remote NIC (whose CM records the reverse
    /// route for responses). `lb` selects how the remote NIC balances this
    /// connection's requests across its flows.
    ///
    /// # Errors
    ///
    /// Returns an error if the connection id space is exhausted or the
    /// remote address is not attached to the fabric.
    /// Blocks until the remote NIC acknowledges the registration (the
    /// control frame is retried, so setup survives fabric loss).
    pub fn open_connection(
        &self,
        remote: NodeAddr,
        src_flow: FlowId,
        lb: LbPolicy,
    ) -> Result<ConnectionId> {
        let cid = self.allocate_connection_id()?;
        let tuple = ConnectionTuple {
            src_flow,
            dest_addr: remote,
            lb,
        };
        self.conn_mgr.lock().open(cid, tuple)?;
        // What the remote installs: the same tuple pointing back at us.
        let reverse = ConnectionTuple {
            dest_addr: self.addr,
            ..tuple
        };
        // Announce via the engines' shared control outbox (ordered with
        // data, covered by the reliable transport when enabled) and wait
        // for the remote's acknowledgement, retrying the announcement. The
        // caller is the flow's host thread, so it drives the flow's queue
        // while it waits.
        let mut wait = HostWait::new(self.engine_of(src_flow));
        for _attempt in 0..40 {
            let ctrl = ctrl_open(cid, reverse);
            let dgram = Datagram::new(self.addr, remote, vec![ctrl]);
            self.ctrl_tx
                .send((remote, dgram))
                .map_err(|_| DaggerError::Closed)?;
            self.wake_all();
            let deadline = Instant::now() + Duration::from_millis(50);
            while Instant::now() < deadline {
                if self.confirmed.lock().contains(&cid.raw()) {
                    return Ok(cid);
                }
                wait.idle();
            }
        }
        let _ = self.conn_mgr.lock().close(cid);
        Err(DaggerError::Timeout)
    }

    /// Closes a connection locally and on the remote NIC.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::UnknownConnection`] if the connection is not
    /// open here.
    pub fn close_connection(&self, cid: ConnectionId) -> Result<()> {
        let tuple = self
            .conn_mgr
            .lock()
            .lookup(crate::connmgr::CmPort::Cm, cid)
            .ok_or(DaggerError::UnknownConnection(cid.raw()))?;
        self.conn_mgr.lock().close(cid)?;
        self.confirmed.lock().remove(&cid.raw());
        let ctrl = ctrl_close(cid);
        let dgram = Datagram::new(self.addr, tuple.dest_addr, vec![ctrl]);
        // Best-effort: the remote may already be gone.
        let _ = self.ctrl_tx.send((tuple.dest_addr, dgram));
        self.wake_all();
        // Like the open, the close is issued by the flow's host thread: one
        // step of the flow's queue puts the frame on the wire now, instead
        // of leaving it for the engine thread to find once the caller's
        // lease has lapsed.
        self.engine_of(tuple.src_flow).step();
        Ok(())
    }

    /// The host-side handle on the queue that owns `flow`.
    fn engine_of(&self, flow: FlowId) -> &EngineHandle {
        let owner = queue_of_flow(
            usize::from(flow.raw()),
            self.cfg.num_flows,
            self.cfg.num_queues,
        );
        &self.engine_handles[owner]
    }

    /// `true` once the NIC's Connection Manager knows `cid` (used to wait
    /// for in-band connection setup on the passive side).
    pub fn knows_connection(&self, cid: ConnectionId) -> bool {
        self.conn_mgr.lock().contains(cid)
    }

    /// Connections currently open in the CM (cache + host backing store).
    pub fn open_connections(&self) -> usize {
        self.conn_mgr.lock().open_connections()
    }

    fn wake_all(&self) {
        for w in &self.wakers {
            w.wake();
        }
    }

    /// Stops the engine workers, draining in-flight frames first (each
    /// worker drains its TX side, then keeps its RX side live until every
    /// sibling has done the same), then folds the final counts into the
    /// telemetry registry and unregisters this NIC's collector. A second
    /// call (e.g. from `Drop`) does nothing.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        // Workers may be parked idle or standing by behind a host thread's
        // lease: hand every queue back to its thread now, so the stop flag
        // is seen at once rather than after the park timeout.
        for w in &self.wakers {
            w.hand_back();
        }
        // "Rings empty" does not mean "fabric drained": frames can still be
        // held by fault injection or sitting in a socket buffer. Quiesce
        // the fabric while the workers' phase-2 RX sweep is still live, so
        // everything it flushes lands in this NIC's final drain instead of
        // leaking a pooled buffer.
        if let Some(port) = self._ports.first() {
            port.fabric().quiesce();
        }
        let engines: Vec<_> = self.engines.lock().drain(..).collect();
        if engines.is_empty() {
            // Already shut down. The collector name may belong to a NIC
            // restarted under this address since: leave it alone.
            return;
        }
        for handle in engines {
            let _ = handle.join();
        }
        // One last collection, so what the final drain counted (stranded
        // `rx_ring_drops`, say) is in the registry; then the collector
        // goes, or a hub that outlives this NIC would walk its dead banks
        // on every pass and pin them for good.
        self.telemetry.collect();
        self.telemetry
            .remove_collector(&format!("nic.{}", self.addr.raw()));
    }
}

impl Drop for Nic {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::MemFabric;
    use dagger_types::{CacheLine, FnId, RpcHeader, RpcId, RpcKind};

    fn frame(cid: ConnectionId, rpc: u32, kind: RpcKind, src_flow: u16, tag: u8) -> CacheLine {
        let mut line = CacheLine::zeroed();
        let hdr = RpcHeader {
            connection_id: cid,
            rpc_id: RpcId(rpc),
            fn_id: FnId(1),
            src_flow: FlowId(src_flow),
            kind,
            frame_idx: 0,
            frame_count: 1,
            frame_payload_len: 1,
            traced: false,
            offloaded: false,
        };
        hdr.encode(line.header_mut());
        line.payload_mut()[0] = tag;
        line
    }

    fn wait_for<F: FnMut() -> bool>(mut f: F) -> bool {
        for _ in 0..50_000 {
            if f() {
                return true;
            }
            std::thread::yield_now();
        }
        false
    }

    #[test]
    fn queue_of_flow_partitions_contiguously_and_totally() {
        // 1 queue: everything maps to 0.
        for f in 0..8 {
            assert_eq!(queue_of_flow(f, 8, 1), 0);
        }
        // Even split.
        assert_eq!(queue_of_flow(0, 8, 4), 0);
        assert_eq!(queue_of_flow(1, 8, 4), 0);
        assert_eq!(queue_of_flow(2, 8, 4), 1);
        assert_eq!(queue_of_flow(7, 8, 4), 3);
        // Uneven split stays monotone and total, and every queue gets at
        // least one flow when num_flows >= num_queues.
        for (flows, queues) in [(7usize, 3usize), (5, 4), (16, 3), (9, 2)] {
            let owners: Vec<usize> = (0..flows)
                .map(|f| queue_of_flow(f, flows, queues))
                .collect();
            assert!(owners.windows(2).all(|w| w[0] <= w[1]), "not monotone");
            assert!(owners.iter().all(|&o| o < queues), "owner out of range");
            for q in 0..queues {
                assert!(owners.contains(&q), "queue {q} owns no flow ({owners:?})");
            }
        }
    }

    #[test]
    fn end_to_end_request_and_response() {
        let fabric = MemFabric::new();
        let client = Nic::start(&fabric, NodeAddr(1), HardConfig::default()).unwrap();
        let server = Nic::start(&fabric, NodeAddr(2), HardConfig::default()).unwrap();

        let mut cflow = client.take_flow().unwrap();
        let mut sflow = server.take_flow().unwrap();
        // Only one dispatch thread is polling: restrict the LB to one flow.
        server.softregs().set_active_flows(1);

        let cid = client
            .open_connection(NodeAddr(2), cflow.flow, LbPolicy::Uniform)
            .unwrap();
        assert!(wait_for(|| server.knows_connection(cid)));

        // Client sends a request.
        cflow
            .tx
            .try_push(frame(cid, 7, RpcKind::Request, cflow.flow.raw(), 0xAA))
            .unwrap();

        let mut got = None;
        assert!(wait_for(|| {
            if let Some(line) = sflow.rx.try_pop() {
                got = Some(line);
                true
            } else {
                false
            }
        }));
        let req = got.expect("request delivered");
        let hdr = RpcHeader::decode(req.header()).unwrap();
        assert_eq!(hdr.rpc_id, RpcId(7));
        assert_eq!(req.payload()[0], 0xAA);

        // Server responds on the same connection, echoing src_flow.
        sflow
            .tx
            .try_push(frame(cid, 7, RpcKind::Response, hdr.src_flow.raw(), 0xBB))
            .unwrap();

        let mut resp = None;
        assert!(wait_for(|| {
            if let Some(line) = cflow.rx.try_pop() {
                resp = Some(line);
                true
            } else {
                false
            }
        }));
        let resp = resp.unwrap();
        let rhdr = RpcHeader::decode(resp.header()).unwrap();
        assert_eq!(rhdr.kind, RpcKind::Response);
        assert_eq!(resp.payload()[0], 0xBB);

        client.shutdown();
        server.shutdown();
    }

    #[test]
    fn multi_queue_end_to_end_with_handoff_counters() {
        let cfg = HardConfig::builder()
            .num_flows(4)
            .num_queues(4)
            .build()
            .unwrap();
        let fabric = MemFabric::new();
        let client = Nic::start(&fabric, NodeAddr(1), cfg.clone()).unwrap();
        let server = Nic::start(&fabric, NodeAddr(2), cfg).unwrap();

        // One client flow per queue; the server dispatches on all four.
        let mut cflows: Vec<HostFlow> = (0..4)
            .map(|q| client.take_flow_on_queue(q).unwrap())
            .collect();
        for (q, f) in cflows.iter().enumerate() {
            assert_eq!(queue_of_flow(usize::from(f.flow.raw()), 4, 4), q);
        }
        let mut sflows: Vec<HostFlow> = (0..4).map(|_| server.take_flow().unwrap()).collect();

        // Several connections so the RSS hash spreads across server queues.
        let cids: Vec<ConnectionId> = cflows
            .iter()
            .map(|f| {
                let cid = client
                    .open_connection(NodeAddr(2), f.flow, LbPolicy::Uniform)
                    .unwrap();
                assert!(wait_for(|| server.knows_connection(cid)));
                cid
            })
            .collect();

        // Pipeline a burst on every client flow.
        const PER_FLOW: u32 = 32;
        for (i, f) in cflows.iter_mut().enumerate() {
            for r in 0..PER_FLOW {
                let rpc = (i as u32) << 16 | r;
                assert!(wait_for(|| f
                    .tx
                    .try_push(frame(cids[i], rpc, RpcKind::Request, f.flow.raw(), i as u8))
                    .is_ok()));
            }
        }

        // Every request arrives exactly once, across all server flows.
        let mut seen = std::collections::HashSet::new();
        assert!(wait_for(|| {
            for f in sflows.iter_mut() {
                while let Some(line) = f.rx.try_pop() {
                    let hdr = RpcHeader::decode(line.header()).unwrap();
                    assert!(seen.insert(hdr.rpc_id.raw()), "duplicate delivery");
                }
            }
            seen.len() == (PER_FLOW as usize) * 4
        }));

        // All four server workers moved traffic (RSS spread) and the
        // per-queue banks reconcile with the monitor totals.
        let rx_per_q: Vec<u64> = server
            .monitor()
            .queues()
            .iter()
            .map(|q| q.snapshot().rx_frames)
            .collect();
        assert!(
            rx_per_q.iter().filter(|&&n| n > 0).count() >= 2,
            "RSS never spread across server queues: {rx_per_q:?}"
        );
        let q_total: u64 = rx_per_q.iter().sum();
        assert_eq!(q_total, server.monitor().snapshot().rx_frames);

        client.shutdown();
        server.shutdown();
    }

    #[test]
    fn virtual_nic_rejects_multi_queue() {
        use crate::arbiter::CcipArbiter;
        let fabric = MemFabric::new();
        let arb = CcipArbiter::new(1);
        let cfg = HardConfig::builder()
            .num_flows(4)
            .num_queues(2)
            .build()
            .unwrap();
        let err = Nic::start_virtual(&fabric, NodeAddr(1), cfg, arb.register());
        assert!(matches!(err, Err(DaggerError::Config(_))));
    }

    #[test]
    fn shared_telemetry_traces_engine_stages_and_flow_counters() {
        use dagger_telemetry::{RpcEvent, Telemetry};
        let fabric = MemFabric::new();
        let telemetry = Telemetry::new();
        telemetry.tracer().enable();
        let client = Nic::start_with_telemetry(
            &fabric,
            NodeAddr(1),
            HardConfig::default(),
            Arc::clone(&telemetry),
        )
        .unwrap();
        let server = Nic::start_with_telemetry(
            &fabric,
            NodeAddr(2),
            HardConfig::default(),
            Arc::clone(&telemetry),
        )
        .unwrap();
        let mut cflow = client.take_flow().unwrap();
        let mut sflow = server.take_flow().unwrap();
        server.softregs().set_active_flows(1);
        let cid = client
            .open_connection(NodeAddr(2), cflow.flow, LbPolicy::Uniform)
            .unwrap();
        assert!(wait_for(|| server.knows_connection(cid)));
        cflow
            .tx
            .try_push(frame(cid, 3, RpcKind::Request, cflow.flow.raw(), 0x5A))
            .unwrap();
        assert!(wait_for(|| sflow.rx.try_pop().is_some()));

        let trace = telemetry
            .tracer()
            .get(cid.raw(), 3)
            .expect("trace recorded for (cid, rpc 3)");
        assert!(trace.event(RpcEvent::EnginePickup).is_some());
        assert!(trace.event(RpcEvent::EngineRx).is_some());
        assert!(trace.event(RpcEvent::RxDeliver).is_some());
        // Ctrl frames (rpc_id 0) never enter the trace table.
        assert!(telemetry.tracer().get(cid.raw(), 0).is_none());

        // Per-flow monitor banks saw the frame on both sides.
        let ctx = client.monitor().flow_snapshot(0).unwrap();
        assert!(ctx.tx_frames >= 1, "client flow 0 tx counted");
        let srx = server.monitor().flow_snapshot(0).unwrap();
        assert!(srx.rx_frames >= 1, "server flow 0 rx counted");

        // The registered collectors fold both NICs into one registry,
        // including the per-queue banks.
        let snap = telemetry.snapshot();
        assert!(snap.registry.gauge("nic.1.tx_frames").unwrap_or(0) > 0);
        assert!(snap.registry.gauge("nic.2.rx_frames").unwrap_or(0) > 0);
        assert!(snap.registry.gauge("nic.2.flow.0.rx_frames").unwrap_or(0) > 0);
        assert!(snap.registry.gauge("nic.2.q0.rx_frames").unwrap_or(0) > 0);
        assert!(
            snap.registry
                .gauge("nic.1.cm.open_connections")
                .unwrap_or(0)
                > 0
        );
        client.shutdown();
        server.shutdown();
    }

    #[test]
    fn shutdown_exports_final_counts_and_unregisters_the_collector() {
        let telemetry = Telemetry::new();
        let start = |fabric: &MemFabric, addr| {
            Nic::start_with_telemetry(
                fabric,
                NodeAddr(addr),
                HardConfig::default(),
                Arc::clone(&telemetry),
            )
            .unwrap()
        };
        let lists = |name: &str| format!("{telemetry:?}").contains(&format!("{name:?}"));
        let fabric = MemFabric::new();
        let client = start(&fabric, 1);
        let server = start(&fabric, 2);
        let mut cflow = client.take_flow().unwrap();
        let mut sflow = server.take_flow().unwrap();
        let cid = client
            .open_connection(NodeAddr(2), cflow.flow, LbPolicy::Uniform)
            .unwrap();
        assert!(wait_for(|| server.knows_connection(cid)));
        cflow
            .tx
            .try_push(frame(cid, 3, RpcKind::Request, cflow.flow.raw(), 0x5A))
            .unwrap();
        assert!(wait_for(|| sflow.rx.try_pop().is_some()));
        assert!(lists("nic.1") && lists("nic.2"));

        // Nothing has collected yet: the gauges below can only come from
        // the collection `shutdown` itself runs after its joins.
        client.shutdown();
        let sent = client.monitor().snapshot().tx_frames;
        assert!(sent >= 1);
        let gauge = |name: &str| telemetry.registry().snapshot().gauge(name);
        assert_eq!(gauge("nic.1.tx_frames"), Some(sent));
        assert!(!lists("nic.1"), "{telemetry:?}");
        assert!(lists("nic.2"), "{telemetry:?}");
        // Later passes no longer walk the dead NIC's banks: its gauges
        // hold their final values.
        telemetry.registry().set_gauge("nic.1.tx_frames", 999);
        telemetry.collect();
        assert_eq!(gauge("nic.1.tx_frames"), Some(999));

        // A NIC restarted under the same address on the same hub exports
        // fresh counts, and the old NIC's `Drop` (a second `shutdown`)
        // must not take the new NIC's collector with it.
        let restarted = start(&MemFabric::new(), 1);
        drop(cflow);
        drop(client);
        assert!(lists("nic.1"), "{telemetry:?}");
        telemetry.collect();
        assert_eq!(gauge("nic.1.tx_frames"), Some(0));
        restarted.shutdown();
        server.shutdown();
        assert!(!lists("nic.1") && !lists("nic.2"), "{telemetry:?}");
    }

    #[test]
    fn unknown_connection_frames_are_dropped_and_counted() {
        let fabric = MemFabric::new();
        let client = Nic::start(&fabric, NodeAddr(1), HardConfig::default()).unwrap();
        let mut flow = client.take_flow().unwrap();
        flow.tx
            .try_push(frame(ConnectionId(999), 1, RpcKind::Request, 0, 1))
            .unwrap();
        assert!(wait_for(|| {
            client.monitor().snapshot().unknown_connection_drops > 0
        }));
        client.shutdown();
    }

    #[test]
    fn connection_ids_are_unique_and_embed_address() {
        let fabric = MemFabric::new();
        let nic = Nic::start(&fabric, NodeAddr(7), HardConfig::default()).unwrap();
        let a = nic.allocate_connection_id().unwrap();
        let b = nic.allocate_connection_id().unwrap();
        assert_ne!(a, b);
        assert_eq!(a.raw() >> 16, 7);
        nic.shutdown();
    }

    #[test]
    fn take_flow_exhausts() {
        let fabric = MemFabric::new();
        let cfg = HardConfig::builder().num_flows(2).build().unwrap();
        let nic = Nic::start(&fabric, NodeAddr(1), cfg).unwrap();
        assert_eq!(nic.unclaimed_flows(), 2);
        let _a = nic.take_flow().unwrap();
        let _b = nic.take_flow().unwrap();
        assert!(nic.take_flow().is_err());
        nic.shutdown();
    }

    #[test]
    fn close_connection_removes_both_sides() {
        let fabric = MemFabric::new();
        let client = Nic::start(&fabric, NodeAddr(1), HardConfig::default()).unwrap();
        let server = Nic::start(&fabric, NodeAddr(2), HardConfig::default()).unwrap();
        let flow = client.take_flow().unwrap();
        let cid = client
            .open_connection(NodeAddr(2), flow.flow, LbPolicy::Uniform)
            .unwrap();
        assert!(wait_for(|| server.knows_connection(cid)));
        client.close_connection(cid).unwrap();
        assert!(!client.knows_connection(cid));
        assert!(wait_for(|| !server.knows_connection(cid)));
        client.shutdown();
        server.shutdown();
    }

    #[test]
    fn virtual_nics_share_fabric_through_arbiter() {
        use crate::arbiter::CcipArbiter;
        let fabric = MemFabric::new();
        let arb = CcipArbiter::new(2);
        let a = Nic::start_virtual(&fabric, NodeAddr(1), HardConfig::default(), arb.register())
            .unwrap();
        let b = Nic::start_virtual(&fabric, NodeAddr(2), HardConfig::default(), arb.register())
            .unwrap();
        let mut fa = a.take_flow().unwrap();
        let mut fb = b.take_flow().unwrap();
        b.softregs().set_active_flows(1);
        let cid = a
            .open_connection(NodeAddr(2), fa.flow, LbPolicy::Uniform)
            .unwrap();
        assert!(wait_for(|| b.knows_connection(cid)));
        fa.tx
            .try_push(frame(cid, 1, RpcKind::Request, 0, 0x77))
            .unwrap();
        let mut got = false;
        assert!(wait_for(|| {
            if let Some(line) = fb.rx.try_pop() {
                got = line.payload()[0] == 0x77;
                true
            } else {
                false
            }
        }));
        assert!(got);
        assert!(arb.grants(0) > 0 && arb.grants(1) > 0);
        a.shutdown();
        b.shutdown();
    }
}
