//! The in-process Ethernet fabric with an L2 ToR switch and a composable
//! fault-injection layer.
//!
//! The paper instantiates two (or eight, §5.7) NICs on one FPGA and
//! connects them "over our simple model of a ToR networking switch with a
//! static switching table" (§5.1, Fig. 14). [`MemFabric`] is that switch:
//! NICs attach under a [`NodeAddr`], the switching table maps addresses to
//! per-port unbounded queues, and datagrams travel as encoded bytes.
//!
//! Real fabrics do worse than deliver: they lose, reorder, duplicate,
//! corrupt, delay, and partition. A [`FaultPlan`] injects all of those
//! deterministically (splitmix64-seeded), either fabric-wide or per
//! directed link, and can be swapped mid-run (soft-reconfiguration style)
//! — as can link partitions ([`MemFabric::partition`] /
//! [`MemFabric::heal`]). Every injected fault is counted in the
//! [`FaultStats`] counter bank and exportable as `fabric.*` telemetry gauges
//! via [`MemFabric::register_telemetry`].
//!
//! # Determinism
//!
//! Fault *decisions* on a directed link are a pure function of the plan's
//! seed and that link's send ordinal: each link owns an isolated splitmix64
//! stream derived from `plan.seed` and the link endpoints, so replaying the
//! same seed with the same per-link traffic reproduces the same drop /
//! reorder / duplicate / corrupt / delay choices — regardless of how other
//! links' traffic interleaves. Only the *release timing* of held (reordered
//! or delayed) frames depends on the fabric-wide event clock, which
//! advances on every forward and on receiver polls; a held frame is never
//! stuck, because both ongoing traffic and the receiving NIC's poll loop
//! drain it.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use dagger_telemetry::{FlightEventKind, FlightRecorder, Telemetry, FLIGHT_ALL_NODES};
use dagger_types::{DaggerError, NodeAddr, Result};

use crate::bank::{counter_bank, GaugeNames};
use crate::wait::EngineWaker;

/// Frames a port queue preallocates room for: senders move buffers into the
/// deque without allocating until a port falls this far behind.
const PORT_QUEUE_CAP: usize = 1024;

/// One port's receive queue: a mutex-protected deque of encoded frames.
/// Unlike a channel, pushing a frame *moves* the sender's buffer in with no
/// per-send allocation (below [`PORT_QUEUE_CAP`]) — the fabric is a relay
/// of pooled buffers, not a producer of fresh ones.
#[derive(Debug)]
pub struct PortQueue {
    frames: Mutex<VecDeque<Vec<u8>>>,
}

impl PortQueue {
    pub(crate) fn new() -> Self {
        PortQueue {
            frames: Mutex::new(VecDeque::with_capacity(PORT_QUEUE_CAP)),
        }
    }

    pub(crate) fn push(&self, bytes: Vec<u8>) {
        self.frames.lock().push_back(bytes);
    }

    pub(crate) fn pop(&self) -> Option<Vec<u8>> {
        self.frames.lock().pop_front()
    }

    /// Frames currently staged (used by bounded backends to cap RX staging).
    pub(crate) fn len(&self) -> usize {
        self.frames.lock().len()
    }
}

/// The transport seam beneath the NIC: a network of `(node, queue)`
/// attachment points that moves encoded wire frames.
///
/// Dagger's FPGA NIC swaps its physical attachment (PCIe, UDP, memory
/// interconnect) beneath an unchanged RPC API; this trait is the software
/// analogue of that seam. Everything above it — the reliable transport
/// ([`crate::reliable`]), RSS steering, the elastic balancer, chaos harnesses — is written
/// against `Fabric`/[`FabricPort`] only, so backends are interchangeable:
///
/// * [`MemFabric`] — the in-process ToR switch with deterministic fault
///   injection ([`FaultPlan`]); faults remain a *decorator at this layer*.
/// * [`crate::fabric_udp::UdpFabric`] — one `std::net::UdpSocket` per NIC;
///   loss/reorder/duplication are whatever the real network does, and the
///   same retransmission + checksum machinery above absorbs them.
///
/// # Contract
///
/// * **Framing**: a send of N bytes is received as exactly N bytes or not
///   at all (datagram semantics — no streaming, no partial delivery).
/// * **Queue addressing**: `send_to(dst, q, ..)` lands on `dst`'s port for
///   queue `q % queue_count(dst)`; an out-of-range queue folds, it never
///   loses the frame.
/// * **Nonblocking receive**: [`FabricPort::try_recv`] never blocks; wakers
///   registered via [`Fabric::set_queue_waker`] fire when traffic arrives
///   so parked engines ([`crate::wait::SpinWait`]) resume promptly.
/// * **Loss/order**: backends MAY drop, reorder, duplicate, or corrupt
///   frames (injected or real); callers needing reliability run the
///   reliable transport. Backends SHOULD preserve per-`(sender, queue)` FIFO order in
///   the fault-free case.
/// * **Shutdown**: [`Fabric::quiesce`] flushes or discards in-flight
///   frames (held by fault injection, or still in a socket/pump) so that a
///   stopping engine can drain its rings and know nothing more arrives.
pub trait Fabric: Send + Sync + std::fmt::Debug {
    /// Attaches a NIC with `num_queues` engine queues under `addr`,
    /// returning one port per queue (index `i` receives traffic routed to
    /// queue `i`). The address detaches when the last returned port drops.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Fabric`] if the address is already attached
    /// or the backend cannot bind its endpoint.
    fn attach_queues(&self, addr: NodeAddr, num_queues: usize) -> Result<Vec<Arc<dyn FabricPort>>>;

    /// Registers the waker tripped when a frame lands on `addr`'s engine
    /// queue `queue`. No-op for unknown addresses or out-of-range queues.
    fn set_queue_waker(&self, addr: NodeAddr, queue: u16, waker: Arc<EngineWaker>);

    /// Hands the fabric a live handle onto `addr`'s active-queue soft
    /// register; [`Fabric::route`] consults it for new route decisions.
    fn set_queue_mask(&self, addr: NodeAddr, mask: Arc<AtomicU64>);

    /// Number of engine queues `addr` attached with (0 if unknown).
    fn queue_count(&self, addr: NodeAddr) -> usize;

    /// RSS route decision: which of `dst`'s engine queues should traffic
    /// tagged `tag` land on? Deterministic per `(dst, tag)` while the
    /// active mask is stable, so flows stay queue-affine.
    fn route(&self, dst: NodeAddr, tag: u64) -> u16;

    /// Flushes frames the fabric itself still holds (fault-injection holds,
    /// socket/pump staging) into their destination queues, or waits until
    /// they have landed. Engine shutdown calls this before its final ring
    /// drain so "rings empty" really means "fabric drained". Best-effort
    /// and bounded: frames for detached destinations are discarded.
    fn quiesce(&self);

    /// Frames currently in flight inside the fabric (held, staged, or on
    /// the wire toward a destination this instance owns). `0` after a
    /// successful [`Fabric::quiesce`] with no concurrent senders.
    fn in_flight(&self) -> usize;
}

/// One engine queue's attachment point on a [`Fabric`] backend.
///
/// Sends are addressed to a `(node, queue)` pair; receives are
/// nonblocking pops of this port's own staging queue. Dropping the last
/// port of an attachment detaches the address.
pub trait FabricPort: Send + Sync + std::fmt::Debug {
    /// The address this port is attached under.
    fn addr(&self) -> NodeAddr;

    /// The engine queue index this port receives for.
    fn queue(&self) -> u16;

    /// Sends encoded datagram bytes to a specific engine queue of `dst`
    /// (normally one chosen by [`FabricPort::route`]).
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Fabric`] if `dst` is unknown to the backend.
    /// Transient wire-level loss is NOT an error: backends that cannot
    /// confirm delivery report success and let the reliable transport
    /// recover.
    fn send_to(&self, dst: NodeAddr, dst_queue: u16, bytes: Vec<u8>) -> Result<()>;

    /// Sends to `dst`'s queue 0.
    ///
    /// # Errors
    ///
    /// Same as [`FabricPort::send_to`].
    fn send(&self, dst: NodeAddr, bytes: Vec<u8>) -> Result<()> {
        self.send_to(dst, 0, bytes)
    }

    /// Ships a whole engine round's staged datagrams in one call, in
    /// order, returning how many the backend accepted. Accepted entries are
    /// drained from `frames`; entries toward destinations the backend does
    /// not know are *left in it* (in order), so the caller can account for
    /// exactly what was rejected. Transient wire loss still counts as
    /// accepted, exactly like [`FabricPort::send_to`].
    ///
    /// Backends amortize per-datagram costs — peer-table lookups,
    /// syscalls, receiver wakeups — across the batch (the `sendmmsg`
    /// analogue of the paper's §4.4.1 doorbell batching).
    fn send_many(&self, frames: &mut Vec<(NodeAddr, u16, Vec<u8>)>) -> usize;

    /// RSS route decision toward `dst`; see [`Fabric::route`].
    fn route(&self, dst: NodeAddr, tag: u64) -> u16;

    /// Receives the next datagram staged for this port's queue, if any.
    /// Never blocks.
    fn try_recv(&self) -> Option<Vec<u8>>;

    /// The fabric this port belongs to (for shutdown-time
    /// [`Fabric::quiesce`] without threading a second handle around).
    fn fabric(&self) -> &dyn Fabric;
}

/// Deterministic splitmix64 stream (one per directed link).
#[derive(Clone, Copy, Debug)]
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.next_f64() < p
    }

    /// Uniform draw in `[1, n]` (`n` of 0 yields 1).
    fn pick1(&mut self, n: usize) -> u64 {
        1 + self.next_u64() % (n.max(1) as u64)
    }
}

/// Clamps a probability into `[0, 1]`; `NaN` maps to `0`.
fn clamp_prob(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

/// A deterministic, composable fault specification for the fabric or one
/// directed link.
///
/// All probabilities are clamped into `[0, 1]` on construction (`NaN`
/// clamps to `0`); a probability of `1.0` is legal and means "every frame"
/// (a drop probability of `1.0` blackholes the link, like a partition).
/// Faults compose: one frame can be duplicated *and* corrupted *and*
/// reordered by the same plan.
///
/// Decisions are drawn from a splitmix64 stream seeded by `seed` and the
/// link endpoints, so a plan replays identically for the same per-link
/// traffic (see the module docs for the exact guarantee).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a frame is held back so later frames overtake it.
    pub reorder: f64,
    /// Bound on how many fabric events a reordered frame can lag (≥ 1).
    pub reorder_window: usize,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability one deterministic bit of the frame is flipped.
    pub corrupt: f64,
    /// Probability a frame is delayed without intent to reorder it.
    pub delay: f64,
    /// Fabric events a delayed frame is held for (jittered in
    /// `[1, delay_events]`).
    pub delay_events: usize,
    /// Root seed of the per-link decision streams.
    pub seed: u64,
}

impl FaultPlan {
    /// A plan that injects nothing, seeded for later composition.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            drop: 0.0,
            reorder: 0.0,
            reorder_window: 8,
            duplicate: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            delay_events: 64,
            seed,
        }
    }

    /// Loss-only plan: the old `with_loss` knob.
    pub fn lossy(prob: f64, seed: u64) -> Self {
        Self::seeded(seed).with_drop(prob)
    }

    /// Sets the drop probability (clamped into `[0, 1]`).
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = clamp_prob(p);
        self
    }

    /// Sets the reorder probability (clamped) and the bounded window of
    /// fabric events a held frame can lag (`window` of 0 becomes 1).
    pub fn with_reorder(mut self, p: f64, window: usize) -> Self {
        self.reorder = clamp_prob(p);
        self.reorder_window = window.max(1);
        self
    }

    /// Sets the duplication probability (clamped).
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = clamp_prob(p);
        self
    }

    /// Sets the bit-corruption probability (clamped).
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt = clamp_prob(p);
        self
    }

    /// Sets the delay probability (clamped) and maximum hold in fabric
    /// events (`events` of 0 becomes 1).
    pub fn with_delay(mut self, p: f64, events: usize) -> Self {
        self.delay = clamp_prob(p);
        self.delay_events = events.max(1);
        self
    }

    /// `true` if the plan can inject at least one fault.
    pub fn is_active(&self) -> bool {
        self.drop > 0.0
            || self.reorder > 0.0
            || self.duplicate > 0.0
            || self.corrupt > 0.0
            || self.delay > 0.0
    }
}

counter_bank! {
    /// Injected-fault counters, shared between the switch and host
    /// observers (chaos harnesses, telemetry collectors); exported as
    /// `fabric.*` gauges.
    pub struct FaultStats =>
    /// A plain-data snapshot of [`FaultStats`].
    FaultSnapshot {
        /// Frames that entered the switch (before any fault decision).
        forwarded,
        /// Frames dropped by loss injection.
        dropped,
        /// Frames held back so later frames overtook them.
        reordered,
        /// Frames delivered twice.
        duplicated,
        /// Frames with one bit flipped.
        corrupted,
        /// Frames held back without reordering intent.
        delayed,
        /// Frames blackholed by an active partition.
        partition_drops,
    }
}

impl FaultSnapshot {
    /// Total faults injected, of any kind.
    pub fn total_injected(&self) -> u64 {
        self.dropped
            + self.reordered
            + self.duplicated
            + self.corrupted
            + self.delayed
            + self.partition_drops
    }
}

/// The RSS pick every backend shares: queue `tag mod popcount`-th set bit of
/// `mask` restricted to the `n` attached queues. Bits beyond `n` are
/// ignored, and a mask selecting no queue falls back to "all active" so
/// traffic is never stranded.
pub(crate) fn rss_pick(n: usize, mask: u64, tag: u64) -> u16 {
    if n <= 1 {
        return 0;
    }
    let all = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
    let mut m = if mask & all == 0 { all } else { mask & all };
    for _ in 0..tag % u64::from(m.count_ones()) {
        m &= m - 1;
    }
    m.trailing_zeros() as u16
}

/// A frame held back by reorder/delay injection, due at a fabric event.
#[derive(Debug)]
struct HeldFrame {
    dst: NodeAddr,
    /// Destination engine queue at `dst` (chosen by the sender's route
    /// decision; release re-delivers to the same queue so holds never
    /// break a flow's queue affinity).
    queue: u16,
    bytes: Vec<u8>,
    due: u64,
}

/// The mutable fault-injection state, behind one lock so per-link decision
/// streams stay internally ordered.
#[derive(Debug, Default)]
struct FaultState {
    global: Option<FaultPlan>,
    links: HashMap<(NodeAddr, NodeAddr), Option<FaultPlan>>,
    /// Per-directed-link splitmix64 streams, lazily derived from the
    /// governing plan's seed and the endpoints.
    streams: HashMap<(NodeAddr, NodeAddr), SplitMix>,
    /// Frames held for later release, any destination.
    held: Vec<HeldFrame>,
    /// The fabric event clock: advances on forwards and on receiver polls
    /// while frames are held.
    event: u64,
    /// Partitioned unordered address pairs (both directions blackholed).
    cut_pairs: HashSet<(NodeAddr, NodeAddr)>,
    /// Fully partitioned nodes.
    cut_nodes: HashSet<NodeAddr>,
}

impl FaultState {
    fn plan_for(&self, src: NodeAddr, dst: NodeAddr) -> Option<FaultPlan> {
        match self.links.get(&(src, dst)) {
            Some(per_link) => *per_link,
            None => self.global,
        }
    }

    fn stream_for(&mut self, src: NodeAddr, dst: NodeAddr, plan: &FaultPlan) -> &mut SplitMix {
        self.streams.entry((src, dst)).or_insert_with(|| {
            // Distinct, deterministic stream per directed link.
            let mix = plan
                .seed
                .wrapping_add(0x51AB_1E00 + u64::from(src.raw()) * 0x1_0000_0001)
                .wrapping_add(u64::from(dst.raw()).wrapping_mul(0x00D1_F4FA_11CA_B1E5));
            SplitMix(mix)
        })
    }

    fn is_cut(&self, src: NodeAddr, dst: NodeAddr) -> bool {
        if self.cut_nodes.contains(&src) || self.cut_nodes.contains(&dst) {
            return true;
        }
        let pair = if src.raw() <= dst.raw() {
            (src, dst)
        } else {
            (dst, src)
        };
        self.cut_pairs.contains(&pair)
    }

    /// Removes and returns every held frame due at or before `event`.
    fn take_due(&mut self) -> Vec<HeldFrame> {
        let event = self.event;
        let mut due = Vec::new();
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].due <= event {
                due.push(self.held.remove(i));
            } else {
                i += 1;
            }
        }
        due
    }
}

/// A switch-table entry: one receive queue per engine queue of the attached
/// NIC (RSS-style), per-queue wakers registered by the owning workers, and
/// an optional live handle onto the NIC's soft-register active-queue mask
/// consulted by [`Fabric::route`].
#[derive(Debug)]
struct PortEntry {
    queues: Vec<Arc<PortQueue>>,
    wakers: Vec<Option<Arc<EngineWaker>>>,
    active_mask: Option<Arc<AtomicU64>>,
}

#[derive(Debug, Default)]
struct SwitchTable {
    ports: HashMap<NodeAddr, PortEntry>,
}

/// The shared in-process network: an L2 switch with a static table and a
/// deterministic fault-injection layer for failure testing.
#[derive(Clone, Debug, Default)]
pub struct MemFabric {
    table: Arc<RwLock<SwitchTable>>,
    faults: Arc<Mutex<FaultState>>,
    stats: Arc<FaultStats>,
    /// Frames currently held by reorder/delay injection; lets the hot
    /// receive path skip the fault lock when nothing is pending.
    held_count: Arc<AtomicU64>,
    /// Flight recorder of the telemetry hub registered via
    /// [`MemFabric::register_telemetry`]; partition/heal mutations land
    /// there so diagnosis bundles can see the injected fault window.
    flight: Arc<Mutex<Option<Arc<FlightRecorder>>>>,
}

impl MemFabric {
    /// Creates an empty, faultless fabric.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a fabric that silently drops each forwarded frame with
    /// probability `prob` (deterministic per `seed`). Pair with NICs built
    /// with [`dagger_types::HardConfig::reliable`].
    ///
    /// `prob` is clamped into `[0, 1]` (`NaN` clamps to `0`); a
    /// probability of `1.0` blackholes all traffic. Shorthand for
    /// [`MemFabric::with_faults`] with [`FaultPlan::lossy`].
    pub fn with_loss(prob: f64, seed: u64) -> Self {
        Self::with_faults(FaultPlan::lossy(prob, seed))
    }

    /// Creates a fabric governed fabric-wide by `plan`.
    pub fn with_faults(plan: FaultPlan) -> Self {
        let fabric = Self::new();
        fabric.set_faults(Some(plan));
        fabric
    }

    /// Installs (or clears) the fabric-wide fault plan mid-run. Per-link
    /// plans set with [`MemFabric::set_link_faults`] take precedence.
    /// Frames already held by the previous plan still release on schedule.
    pub fn set_faults(&self, plan: Option<FaultPlan>) {
        let mut faults = self.faults.lock();
        faults.global = plan;
        faults.streams.clear();
    }

    /// Installs a fault plan for the directed link `src → dst`
    /// (`Some(plan)`), forces that link clean overriding the global plan
    /// (`Some` of an inactive plan or `None` after a global plan is set —
    /// use [`FaultPlan::seeded`] for an explicit no-fault plan), or removes
    /// the per-link override entirely (`None`), restoring the global plan.
    pub fn set_link_faults(&self, src: NodeAddr, dst: NodeAddr, plan: Option<FaultPlan>) {
        let mut faults = self.faults.lock();
        match plan {
            Some(p) => {
                faults.links.insert((src, dst), Some(p));
            }
            None => {
                faults.links.remove(&(src, dst));
            }
        }
        faults.streams.remove(&(src, dst));
    }

    /// Partitions the pair `a ↔ b`: frames between them (both directions)
    /// are blackholed and counted as `partition_drops` until
    /// [`MemFabric::heal`].
    pub fn partition(&self, a: NodeAddr, b: NodeAddr) {
        let pair = if a.raw() <= b.raw() { (a, b) } else { (b, a) };
        self.faults.lock().cut_pairs.insert(pair);
        self.record_fault(FlightEventKind::Partition, a.raw(), u64::from(b.raw()));
    }

    /// Heals the pair `a ↔ b`.
    pub fn heal(&self, a: NodeAddr, b: NodeAddr) {
        let pair = if a.raw() <= b.raw() { (a, b) } else { (b, a) };
        self.faults.lock().cut_pairs.remove(&pair);
        self.record_fault(FlightEventKind::Heal, a.raw(), u64::from(b.raw()));
    }

    /// Partitions `node` from everyone (all its traffic blackholed).
    pub fn partition_node(&self, node: NodeAddr) {
        self.faults.lock().cut_nodes.insert(node);
        self.record_fault(FlightEventKind::Partition, node.raw(), FLIGHT_ALL_NODES);
    }

    /// Heals a node-level partition.
    pub fn heal_node(&self, node: NodeAddr) {
        self.faults.lock().cut_nodes.remove(&node);
        self.record_fault(FlightEventKind::Heal, node.raw(), FLIGHT_ALL_NODES);
    }

    /// Heals every pair- and node-level partition.
    pub fn heal_all(&self) {
        let mut faults = self.faults.lock();
        faults.cut_pairs.clear();
        faults.cut_nodes.clear();
        drop(faults);
        self.record_fault(FlightEventKind::Heal, u32::MAX, FLIGHT_ALL_NODES);
    }

    /// Stamps a partition/heal breadcrumb into the registered telemetry
    /// hub's flight recorder (no-op before `register_telemetry`). `b` is
    /// the peer node, or [`FLIGHT_ALL_NODES`] for node/fabric-wide cuts.
    fn record_fault(&self, kind: FlightEventKind, node: u32, b: u64) {
        if let Some(flight) = self.flight.lock().as_ref() {
            flight.record(kind, node, 0, b);
        }
    }

    /// `true` while any partition is active.
    pub fn partitioned(&self) -> bool {
        let faults = self.faults.lock();
        !faults.cut_pairs.is_empty() || !faults.cut_nodes.is_empty()
    }

    /// Frames dropped by loss injection so far (excludes partition drops;
    /// see [`MemFabric::fault_stats`] for the full bank).
    pub fn dropped_frames(&self) -> u64 {
        self.stats.dropped.get()
    }

    /// Snapshot of every injected-fault counter.
    pub fn fault_stats(&self) -> FaultSnapshot {
        self.stats.snapshot()
    }

    /// Registers this fabric's fault counters as `fabric.*` gauges on
    /// `telemetry` (collector name `"fabric"`), so chaos-harness
    /// bookkeeping and exported telemetry can be reconciled.
    pub fn register_telemetry(&self, telemetry: &Telemetry) {
        *self.flight.lock() = Some(Arc::clone(telemetry.flight()));
        let stats = Arc::clone(&self.stats);
        let names = GaugeNames::new("fabric", FaultSnapshot::NAMES);
        telemetry.register_collector("fabric", move |reg| {
            names.export(reg, stats.snapshot().iter());
        });
    }

    /// Detaches `addr`; queued datagrams for it are discarded.
    pub fn detach(&self, addr: NodeAddr) {
        self.table.write().ports.remove(&addr);
    }

    /// Number of attached ports.
    pub fn ports(&self) -> usize {
        self.table.read().ports.len()
    }

    /// Delivers `bytes` into `dst`'s per-queue port queue (no fault
    /// processing) and wakes the owning engine worker if it registered a
    /// waker. A queue index beyond the destination's count folds onto an
    /// existing queue rather than losing the frame. A destination with no
    /// switch-table entry gets the frame handed back as the error.
    fn deliver(
        &self,
        dst: NodeAddr,
        queue: u16,
        bytes: Vec<u8>,
    ) -> std::result::Result<(), Vec<u8>> {
        let table = self.table.read();
        let Some(entry) = table.ports.get(&dst) else {
            return Err(bytes);
        };
        let qi = (queue as usize) % entry.queues.len();
        entry.queues[qi].push(bytes);
        if let Some(Some(waker)) = entry.wakers.get(qi) {
            waker.wake();
        }
        Ok(())
    }

    /// Releases held frames that have come due. Best-effort: a held frame
    /// whose destination detached is discarded.
    fn release_due(&self, state: &mut FaultState) {
        let due = state.take_due();
        self.held_count
            .fetch_sub(due.len() as u64, Ordering::Relaxed);
        for frame in due {
            let _ = self.deliver(frame.dst, frame.queue, frame.bytes);
        }
    }

    /// Called by receiving ports before polling: advances the event clock
    /// and flushes due held frames, so delayed traffic on quiet links is
    /// drained by the receiver's own poll loop.
    fn poll_released(&self) {
        if self.held_count.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut state = self.faults.lock();
        state.event += 1;
        self.release_due(&mut state);
    }

    /// Forwards one frame from `src` toward `dst`'s engine queue `queue`.
    ///
    /// The fault pipeline is queue-oblivious: decisions come from the
    /// per-directed-link `(src, dst)` stream exactly as before (the queue
    /// index consumes no randomness, so single-queue fault schedules replay
    /// identically under sharding), and every delivery — immediate,
    /// duplicate, or held-and-released — lands on the chosen queue. Fails,
    /// handing the frame back, only when `dst` has no switch-table entry.
    fn forward(
        &self,
        src: NodeAddr,
        dst: NodeAddr,
        queue: u16,
        mut bytes: Vec<u8>,
    ) -> std::result::Result<(), Vec<u8>> {
        // Fast path: no faults installed, nothing held, no partitions.
        let mut state = self.faults.lock();
        self.stats.forwarded.inc();
        state.event += 1;
        if state.is_cut(src, dst) {
            // A partition blackholes silently, like a dead link.
            self.stats.partition_drops.inc();
            self.release_due(&mut state);
            return Ok(());
        }
        let Some(plan) = state.plan_for(src, dst).filter(FaultPlan::is_active) else {
            self.release_due(&mut state);
            drop(state);
            return self.deliver(dst, queue, bytes);
        };

        // Draw this frame's fate from the link's deterministic stream.
        let stream = state.stream_for(src, dst, &plan);
        let dropped = stream.roll(plan.drop);
        let duplicated = !dropped && stream.roll(plan.duplicate);
        let corrupted = !dropped && stream.roll(plan.corrupt);
        let corrupt_bit = if corrupted { stream.next_u64() } else { 0 };
        let reordered = !dropped && stream.roll(plan.reorder);
        let hold_events = if reordered {
            stream.pick1(plan.reorder_window)
        } else if !dropped && stream.roll(plan.delay) {
            stream.pick1(plan.delay_events)
        } else {
            0
        };
        let delayed = !reordered && hold_events > 0;

        if dropped {
            self.stats.dropped.inc();
            self.release_due(&mut state);
            return Ok(());
        }
        if duplicated {
            self.stats.duplicated.inc();
        }
        if corrupted {
            self.stats.corrupted.inc();
        }
        if reordered {
            self.stats.reordered.inc();
        }
        if delayed {
            self.stats.delayed.inc();
        }

        // The duplicate is a faithful immediate copy (taken before
        // corruption), so dup + corrupt yields one good and one bad frame.
        let dup = duplicated.then(|| bytes.clone());
        if corrupted && !bytes.is_empty() {
            let bit = corrupt_bit % (bytes.len() as u64 * 8);
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        }

        if hold_events > 0 {
            let due = state.event + hold_events;
            state.held.push(HeldFrame {
                dst,
                queue,
                bytes,
                due,
            });
            self.held_count.fetch_add(1, Ordering::Relaxed);
            self.release_due(&mut state);
            drop(state);
            match dup {
                Some(copy) => self.deliver(dst, queue, copy),
                None => Ok(()),
            }
        } else {
            self.release_due(&mut state);
            drop(state);
            if let Some(copy) = dup {
                let _ = self.deliver(dst, queue, copy);
            }
            self.deliver(dst, queue, bytes)
        }
    }
}

/// [`MemFabric`] behind the portable seam. Fault-plan, partition and
/// `fault_stats` tooling stays inherent (it is specific to this backend).
impl Fabric for MemFabric {
    fn attach_queues(&self, addr: NodeAddr, num_queues: usize) -> Result<Vec<Arc<dyn FabricPort>>> {
        let n = num_queues.max(1);
        let mut table = self.table.write();
        if table.ports.contains_key(&addr) {
            return Err(DaggerError::Fabric(format!(
                "address {addr} already attached"
            )));
        }
        let queues: Vec<_> = (0..n).map(|_| Arc::new(PortQueue::new())).collect();
        table.ports.insert(
            addr,
            PortEntry {
                queues: queues.clone(),
                wakers: vec![None; n],
                active_mask: None,
            },
        );
        let guard = Arc::new(PortGuard {
            addr,
            fabric: self.clone(),
        });
        Ok(queues
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                Arc::new(MemFabricPort {
                    addr,
                    queue: i as u16,
                    fabric: self.clone(),
                    rx,
                    _guard: Arc::clone(&guard),
                }) as Arc<dyn FabricPort>
            })
            .collect())
    }

    fn set_queue_waker(&self, addr: NodeAddr, queue: u16, waker: Arc<EngineWaker>) {
        if let Some(entry) = self.table.write().ports.get_mut(&addr) {
            if let Some(slot) = entry.wakers.get_mut(queue as usize) {
                *slot = Some(waker);
            }
        }
    }

    fn set_queue_mask(&self, addr: NodeAddr, mask: Arc<AtomicU64>) {
        if let Some(entry) = self.table.write().ports.get_mut(&addr) {
            entry.active_mask = Some(mask);
        }
    }

    fn queue_count(&self, addr: NodeAddr) -> usize {
        self.table
            .read()
            .ports
            .get(&addr)
            .map_or(0, |e| e.queues.len())
    }

    /// Deterministic: the same `(dst queue count, active mask, tag)` always
    /// yields the same queue (`rss_pick`), so a connection's frames stay
    /// queue-affine; the active mask gates only *new* decisions. Unknown
    /// destinations route to 0 (the send will fail with the switch-table
    /// error anyway).
    fn route(&self, dst: NodeAddr, tag: u64) -> u16 {
        let table = self.table.read();
        let Some(entry) = table.ports.get(&dst) else {
            return 0;
        };
        let mask = entry
            .active_mask
            .as_ref()
            .map_or(0, |m| m.load(Ordering::Relaxed));
        rss_pick(entry.queues.len(), mask, tag)
    }

    /// Flushes every frame still held by reorder/delay injection into its
    /// destination queue, regardless of due time. Chaos determinism is
    /// unaffected because release consumes no stream randomness and the
    /// fault was already counted at hold time. Held frames for detached
    /// destinations are discarded.
    fn quiesce(&self) {
        let mut state = self.faults.lock();
        let held = std::mem::take(&mut state.held);
        self.held_count
            .fetch_sub(held.len() as u64, Ordering::Relaxed);
        for frame in held {
            let _ = self.deliver(frame.dst, frame.queue, frame.bytes);
        }
    }

    /// Frames currently held by reorder/delay injection.
    fn in_flight(&self) -> usize {
        self.held_count.load(Ordering::Relaxed) as usize
    }
}

/// Detaches the address when the last port of a multi-queue attachment
/// drops (all ports of one `attach_queues` call share one guard).
#[derive(Debug)]
struct PortGuard {
    addr: NodeAddr,
    fabric: MemFabric,
}

impl Drop for PortGuard {
    fn drop(&mut self) {
        self.fabric.detach(self.addr);
    }
}

/// One engine queue's attachment point on the in-memory fabric: a sharded
/// NIC holds one per worker, each receiving only the traffic routed to its
/// queue index. Handed out (type-erased) by [`Fabric::attach_queues`].
#[derive(Debug)]
pub struct MemFabricPort {
    addr: NodeAddr,
    queue: u16,
    fabric: MemFabric,
    rx: Arc<PortQueue>,
    _guard: Arc<PortGuard>,
}

impl FabricPort for MemFabricPort {
    fn addr(&self) -> NodeAddr {
        self.addr
    }

    fn queue(&self) -> u16 {
        self.queue
    }

    fn send_to(&self, dst: NodeAddr, dst_queue: u16, bytes: Vec<u8>) -> Result<()> {
        self.fabric
            .forward(self.addr, dst, dst_queue, bytes)
            .map_err(|_| DaggerError::Fabric(format!("no switch-table entry for {dst}")))
    }

    fn send_many(&self, frames: &mut Vec<(NodeAddr, u16, Vec<u8>)>) -> usize {
        let staged = frames.len();
        frames.retain_mut(|(dst, dst_queue, bytes)| {
            let wire = std::mem::take(bytes);
            match self.fabric.forward(self.addr, *dst, *dst_queue, wire) {
                Ok(()) => false,
                Err(back) => {
                    *bytes = back;
                    true
                }
            }
        });
        staged - frames.len()
    }

    fn route(&self, dst: NodeAddr, tag: u64) -> u16 {
        self.fabric.route(dst, tag)
    }

    fn try_recv(&self) -> Option<Vec<u8>> {
        self.fabric.poll_released();
        self.rx.pop()
    }

    fn fabric(&self) -> &dyn Fabric {
        &self.fabric
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Attaches a single-queue NIC under `addr` and returns its port.
    fn attach(fabric: &MemFabric, addr: NodeAddr) -> Result<Arc<dyn FabricPort>> {
        fabric
            .attach_queues(addr, 1)
            .map(|mut ports| ports.remove(0))
    }

    #[test]
    fn attach_send_recv() {
        let fabric = MemFabric::new();
        let a = attach(&fabric, NodeAddr(1)).unwrap();
        let b = attach(&fabric, NodeAddr(2)).unwrap();
        a.send(NodeAddr(2), vec![1, 2, 3]).unwrap();
        assert_eq!(b.try_recv(), Some(vec![1, 2, 3]));
        assert_eq!(b.try_recv(), None);
    }

    #[test]
    fn duplicate_address_rejected() {
        let fabric = MemFabric::new();
        let _a = attach(&fabric, NodeAddr(1)).unwrap();
        assert!(attach(&fabric, NodeAddr(1)).is_err());
    }

    #[test]
    fn unknown_destination_errors() {
        let fabric = MemFabric::new();
        let a = attach(&fabric, NodeAddr(1)).unwrap();
        assert!(a.send(NodeAddr(9), vec![0]).is_err());
    }

    #[test]
    fn loopback_to_self_allowed() {
        let fabric = MemFabric::new();
        let a = attach(&fabric, NodeAddr(1)).unwrap();
        a.send(NodeAddr(1), vec![7]).unwrap();
        assert_eq!(a.try_recv(), Some(vec![7]));
    }

    #[test]
    fn detach_on_drop() {
        let fabric = MemFabric::new();
        {
            let _a = attach(&fabric, NodeAddr(1)).unwrap();
            assert_eq!(fabric.ports(), 1);
        }
        assert_eq!(fabric.ports(), 0);
        // Address can be reused after drop.
        let _a2 = attach(&fabric, NodeAddr(1)).unwrap();
    }

    #[test]
    fn ordered_delivery_per_sender() {
        let fabric = MemFabric::new();
        let a = attach(&fabric, NodeAddr(1)).unwrap();
        let b = attach(&fabric, NodeAddr(2)).unwrap();
        for i in 0..100u8 {
            a.send(NodeAddr(2), vec![i]).unwrap();
        }
        for i in 0..100u8 {
            assert_eq!(b.try_recv(), Some(vec![i]));
        }
    }

    #[test]
    fn cross_thread_traffic() {
        let fabric = MemFabric::new();
        let a = attach(&fabric, NodeAddr(1)).unwrap();
        let b = attach(&fabric, NodeAddr(2)).unwrap();
        let sender = std::thread::spawn(move || {
            for i in 0..10_000u32 {
                a.send(NodeAddr(2), i.to_le_bytes().to_vec()).unwrap();
            }
            a // keep port alive until done
        });
        let mut received = 0u32;
        while received < 10_000 {
            if let Some(bytes) = b.try_recv() {
                let v = u32::from_le_bytes(bytes.try_into().unwrap());
                assert_eq!(v, received);
                received += 1;
            }
        }
        sender.join().unwrap();
    }

    #[test]
    fn with_loss_clamps_both_bounds() {
        // Below range: clamps to 0, drops nothing.
        let clean = MemFabric::with_loss(-3.5, 1);
        let a = attach(&clean, NodeAddr(1)).unwrap();
        let b = attach(&clean, NodeAddr(2)).unwrap();
        for _ in 0..50 {
            a.send(NodeAddr(2), vec![1]).unwrap();
        }
        for _ in 0..50 {
            assert!(b.try_recv().is_some());
        }
        assert_eq!(clean.dropped_frames(), 0);

        // Above range: clamps to 1, drops everything.
        let hole = MemFabric::with_loss(7.0, 1);
        let a = attach(&hole, NodeAddr(1)).unwrap();
        let b = attach(&hole, NodeAddr(2)).unwrap();
        for _ in 0..50 {
            a.send(NodeAddr(2), vec![1]).unwrap();
        }
        assert!(b.try_recv().is_none());
        assert_eq!(hole.dropped_frames(), 50);

        // NaN: treated as 0.
        let nan = MemFabric::with_loss(f64::NAN, 1);
        let a = attach(&nan, NodeAddr(1)).unwrap();
        let b = attach(&nan, NodeAddr(2)).unwrap();
        a.send(NodeAddr(2), vec![9]).unwrap();
        assert_eq!(b.try_recv(), Some(vec![9]));
    }

    #[test]
    fn loss_is_deterministic_per_seed() {
        let outcomes = |seed: u64| -> Vec<bool> {
            let fabric = MemFabric::with_loss(0.5, seed);
            let a = attach(&fabric, NodeAddr(1)).unwrap();
            let b = attach(&fabric, NodeAddr(2)).unwrap();
            (0..64u8)
                .map(|i| {
                    a.send(NodeAddr(2), vec![i]).unwrap();
                    b.try_recv().is_some()
                })
                .collect()
        };
        assert_eq!(outcomes(9), outcomes(9), "same seed, same loss pattern");
        assert_ne!(outcomes(9), outcomes(10), "different seed differs");
    }

    #[test]
    fn duplicate_injection_delivers_twice() {
        let fabric = MemFabric::with_faults(FaultPlan::seeded(3).with_duplicate(1.0));
        let a = attach(&fabric, NodeAddr(1)).unwrap();
        let b = attach(&fabric, NodeAddr(2)).unwrap();
        a.send(NodeAddr(2), vec![5]).unwrap();
        assert_eq!(b.try_recv(), Some(vec![5]));
        assert_eq!(b.try_recv(), Some(vec![5]));
        assert_eq!(b.try_recv(), None);
        assert_eq!(fabric.fault_stats().duplicated, 1);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let fabric = MemFabric::with_faults(FaultPlan::seeded(4).with_corrupt(1.0));
        let a = attach(&fabric, NodeAddr(1)).unwrap();
        let b = attach(&fabric, NodeAddr(2)).unwrap();
        let original = vec![0u8; 32];
        a.send(NodeAddr(2), original.clone()).unwrap();
        let got = b.try_recv().unwrap();
        let flipped: u32 = got
            .iter()
            .zip(&original)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit flipped");
        assert_eq!(fabric.fault_stats().corrupted, 1);
    }

    #[test]
    fn reorder_lets_later_frames_overtake() {
        let fabric = MemFabric::with_faults(FaultPlan::seeded(2).with_reorder(0.5, 4));
        let a = attach(&fabric, NodeAddr(1)).unwrap();
        let b = attach(&fabric, NodeAddr(2)).unwrap();
        for i in 0..200u8 {
            a.send(NodeAddr(2), vec![i]).unwrap();
        }
        let mut got = Vec::new();
        while let Some(bytes) = b.try_recv() {
            got.push(bytes[0]);
        }
        assert_eq!(got.len(), 200, "reorder never loses frames");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..200u8).collect::<Vec<_>>());
        assert_ne!(got, sorted, "some frames overtook held ones");
        assert!(fabric.fault_stats().reordered > 0);
    }

    #[test]
    fn delayed_frames_drain_via_receiver_polls() {
        let fabric = MemFabric::with_faults(FaultPlan::seeded(5).with_delay(1.0, 16));
        let a = attach(&fabric, NodeAddr(1)).unwrap();
        let b = attach(&fabric, NodeAddr(2)).unwrap();
        a.send(NodeAddr(2), vec![1]).unwrap();
        // No further sends: the receiver's own polls must advance the
        // event clock and surface the frame.
        let mut got = None;
        for _ in 0..64 {
            if let Some(bytes) = b.try_recv() {
                got = Some(bytes);
                break;
            }
        }
        assert_eq!(got, Some(vec![1]));
        assert_eq!(fabric.fault_stats().delayed, 1);
    }

    #[test]
    fn partition_blackholes_and_heals() {
        let fabric = MemFabric::new();
        let a = attach(&fabric, NodeAddr(1)).unwrap();
        let b = attach(&fabric, NodeAddr(2)).unwrap();
        fabric.partition(NodeAddr(1), NodeAddr(2));
        assert!(fabric.partitioned());
        a.send(NodeAddr(2), vec![1]).unwrap();
        b.send(NodeAddr(1), vec![2]).unwrap();
        assert_eq!(b.try_recv(), None);
        assert_eq!(a.try_recv(), None);
        assert_eq!(fabric.fault_stats().partition_drops, 2);
        fabric.heal(NodeAddr(1), NodeAddr(2));
        assert!(!fabric.partitioned());
        a.send(NodeAddr(2), vec![3]).unwrap();
        assert_eq!(b.try_recv(), Some(vec![3]));
    }

    #[test]
    fn node_partition_cuts_all_links() {
        let fabric = MemFabric::new();
        let a = attach(&fabric, NodeAddr(1)).unwrap();
        let b = attach(&fabric, NodeAddr(2)).unwrap();
        let c = attach(&fabric, NodeAddr(3)).unwrap();
        fabric.partition_node(NodeAddr(2));
        a.send(NodeAddr(2), vec![1]).unwrap();
        b.send(NodeAddr(3), vec![2]).unwrap();
        a.send(NodeAddr(3), vec![3]).unwrap();
        assert_eq!(b.try_recv(), None);
        assert_eq!(c.try_recv(), Some(vec![3]), "unrelated link unaffected");
        fabric.heal_node(NodeAddr(2));
        a.send(NodeAddr(2), vec![4]).unwrap();
        assert_eq!(b.try_recv(), Some(vec![4]));
    }

    #[test]
    fn per_link_plan_overrides_global() {
        let fabric = MemFabric::with_faults(FaultPlan::seeded(6).with_drop(1.0));
        fabric.set_link_faults(NodeAddr(1), NodeAddr(3), Some(FaultPlan::seeded(6)));
        let a = attach(&fabric, NodeAddr(1)).unwrap();
        let b = attach(&fabric, NodeAddr(2)).unwrap();
        let c = attach(&fabric, NodeAddr(3)).unwrap();
        a.send(NodeAddr(2), vec![1]).unwrap(); // global: dropped
        a.send(NodeAddr(3), vec![2]).unwrap(); // override: clean
        assert_eq!(b.try_recv(), None);
        assert_eq!(c.try_recv(), Some(vec![2]));
        // Removing the override restores the global plan.
        fabric.set_link_faults(NodeAddr(1), NodeAddr(3), None);
        a.send(NodeAddr(3), vec![3]).unwrap();
        assert_eq!(c.try_recv(), None);
    }

    #[test]
    fn mid_run_plan_swap() {
        let fabric = MemFabric::new();
        let a = attach(&fabric, NodeAddr(1)).unwrap();
        let b = attach(&fabric, NodeAddr(2)).unwrap();
        a.send(NodeAddr(2), vec![1]).unwrap();
        assert_eq!(b.try_recv(), Some(vec![1]));
        fabric.set_faults(Some(FaultPlan::seeded(1).with_drop(1.0)));
        a.send(NodeAddr(2), vec![2]).unwrap();
        assert_eq!(b.try_recv(), None);
        fabric.set_faults(None);
        a.send(NodeAddr(2), vec![3]).unwrap();
        assert_eq!(b.try_recv(), Some(vec![3]));
    }

    #[test]
    fn telemetry_gauges_match_fault_stats() {
        let fabric = MemFabric::with_faults(
            FaultPlan::seeded(11)
                .with_drop(0.3)
                .with_duplicate(0.3)
                .with_corrupt(0.3),
        );
        let telemetry = Telemetry::new();
        fabric.register_telemetry(&telemetry);
        let a = attach(&fabric, NodeAddr(1)).unwrap();
        let b = attach(&fabric, NodeAddr(2)).unwrap();
        for i in 0..100u8 {
            a.send(NodeAddr(2), vec![i; 8]).unwrap();
        }
        while b.try_recv().is_some() {}
        let snap = telemetry.snapshot();
        let stats = fabric.fault_stats();
        assert_eq!(
            snap.registry.gauge("fabric.forwarded"),
            Some(stats.forwarded)
        );
        assert_eq!(snap.registry.gauge("fabric.dropped"), Some(stats.dropped));
        assert_eq!(
            snap.registry.gauge("fabric.duplicated"),
            Some(stats.duplicated)
        );
        assert_eq!(
            snap.registry.gauge("fabric.corrupted"),
            Some(stats.corrupted)
        );
        assert!(stats.total_injected() > 0);
    }

    #[test]
    fn multi_queue_delivery_is_queue_addressed() {
        let fabric = MemFabric::new();
        let a = attach(&fabric, NodeAddr(1)).unwrap();
        let ports = fabric.attach_queues(NodeAddr(2), 4).unwrap();
        assert_eq!(fabric.queue_count(NodeAddr(2)), 4);
        assert_eq!(fabric.queue_count(NodeAddr(9)), 0);
        for q in 0..4u16 {
            a.send_to(NodeAddr(2), q, vec![q as u8]).unwrap();
        }
        for (q, port) in ports.iter().enumerate() {
            assert_eq!(port.queue(), q as u16);
            assert_eq!(port.try_recv(), Some(vec![q as u8]), "queue {q} owns it");
            assert_eq!(port.try_recv(), None, "no cross-queue leakage");
        }
        // Out-of-range queue folds onto an existing one, never lost.
        a.send_to(NodeAddr(2), 7, vec![42]).unwrap();
        assert_eq!(ports[3].try_recv(), Some(vec![42]), "7 % 4 = 3");
    }

    #[test]
    fn detach_waits_for_last_queue_port() {
        let fabric = MemFabric::new();
        let mut ports = fabric.attach_queues(NodeAddr(1), 2).unwrap();
        assert_eq!(fabric.ports(), 1);
        drop(ports.pop());
        assert_eq!(fabric.ports(), 1, "one port still alive");
        drop(ports);
        assert_eq!(fabric.ports(), 0, "last port detaches the address");
    }

    #[test]
    fn route_is_deterministic_and_mask_gated() {
        let fabric = MemFabric::new();
        let _ports = fabric.attach_queues(NodeAddr(2), 4).unwrap();
        // Deterministic and within range.
        for tag in 0..256u64 {
            let q = fabric.route(NodeAddr(2), tag);
            assert!(q < 4);
            assert_eq!(q, fabric.route(NodeAddr(2), tag), "same tag, same queue");
        }
        // All four queues reachable without a mask.
        let hit: std::collections::HashSet<u16> =
            (0..64u64).map(|t| fabric.route(NodeAddr(2), t)).collect();
        assert_eq!(hit.len(), 4);
        // A mask restricts new decisions to its set bits.
        let mask = Arc::new(AtomicU64::new(0b0101));
        fabric.set_queue_mask(NodeAddr(2), Arc::clone(&mask));
        for tag in 0..64u64 {
            let q = fabric.route(NodeAddr(2), tag);
            assert!(q == 0 || q == 2, "masked to queues 0/2, got {q}");
        }
        // An all-zero (or out-of-range) mask falls back to all-active.
        mask.store(0, Ordering::Relaxed);
        let hit: std::collections::HashSet<u16> =
            (0..64u64).map(|t| fabric.route(NodeAddr(2), t)).collect();
        assert_eq!(hit.len(), 4, "zero mask = all queues");
        mask.store(0xF0, Ordering::Relaxed); // only bits beyond queue count
        let hit: std::collections::HashSet<u16> =
            (0..64u64).map(|t| fabric.route(NodeAddr(2), t)).collect();
        assert_eq!(hit.len(), 4, "mask without in-range bits = all queues");
        // Single-queue and unknown destinations always route to 0.
        let _a = attach(&fabric, NodeAddr(1)).unwrap();
        assert_eq!(fabric.route(NodeAddr(1), 12345), 0);
        assert_eq!(fabric.route(NodeAddr(99), 12345), 0);
        // Both backends make the same decision — `rss_pick` — for every
        // `(queue count, active mask, tag)`, so a connection's queue does
        // not depend on which fabric carries it.
        let masks = [0, 0b1, 0b10, 0b101, 0b110, 0b1_0110, 0xF0, u64::MAX];
        for n in 1..=5usize {
            let (mem, udp) = (MemFabric::new(), crate::fabric_udp::UdpFabric::new());
            let _mem_ports = mem.attach_queues(NodeAddr(2), n).unwrap();
            let _udp_ports = udp.attach_queues(NodeAddr(2), n).unwrap();
            let mask = Arc::new(AtomicU64::new(0));
            mem.set_queue_mask(NodeAddr(2), Arc::clone(&mask));
            udp.set_queue_mask(NodeAddr(2), Arc::clone(&mask));
            for m in masks {
                mask.store(m, Ordering::Relaxed);
                for tag in (0..64u64).chain([u64::MAX, 0x9E37_79B9_7F4A_7C15]) {
                    let q = mem.route(NodeAddr(2), tag);
                    assert_eq!(q, udp.route(NodeAddr(2), tag), "n={n} m={m:#x}");
                    assert_eq!(q, rss_pick(n, m, tag), "n={n} m={m:#x} tag={tag}");
                    assert!(usize::from(q) < n);
                }
            }
        }
    }

    #[test]
    fn held_frames_release_to_their_routed_queue() {
        let fabric = MemFabric::with_faults(FaultPlan::seeded(5).with_delay(1.0, 8));
        let a = attach(&fabric, NodeAddr(1)).unwrap();
        let ports = fabric.attach_queues(NodeAddr(2), 2).unwrap();
        a.send_to(NodeAddr(2), 1, vec![7]).unwrap();
        let mut got = None;
        for _ in 0..64 {
            assert_eq!(ports[0].try_recv(), None, "queue 0 never sees it");
            if let Some(bytes) = ports[1].try_recv() {
                got = Some(bytes);
                break;
            }
        }
        assert_eq!(got, Some(vec![7]), "delayed frame kept its queue");
    }

    #[test]
    fn composed_plan_is_deterministic_per_seed() {
        let run = |seed: u64| -> (Vec<Vec<u8>>, FaultSnapshot) {
            let fabric = MemFabric::with_faults(
                FaultPlan::seeded(seed)
                    .with_drop(0.15)
                    .with_reorder(0.2, 4)
                    .with_duplicate(0.15)
                    .with_corrupt(0.1)
                    .with_delay(0.1, 8),
            );
            let a = attach(&fabric, NodeAddr(1)).unwrap();
            let b = attach(&fabric, NodeAddr(2)).unwrap();
            let mut got = Vec::new();
            for i in 0..128u8 {
                a.send(NodeAddr(2), vec![i; 4]).unwrap();
                while let Some(bytes) = b.try_recv() {
                    got.push(bytes);
                }
            }
            for _ in 0..64 {
                while let Some(bytes) = b.try_recv() {
                    got.push(bytes);
                }
            }
            (got, fabric.fault_stats())
        };
        let (got1, stats1) = run(77);
        let (got2, stats2) = run(77);
        assert_eq!(got1, got2, "same seed: byte-identical delivery");
        assert_eq!(stats1, stats2, "same seed: identical fault counts");
        let (got3, _) = run(78);
        assert_ne!(got1, got3, "different seed: different chaos");
    }
}
