//! The fabric seam, written once: the [`Fabric`]/[`FabricPort`] traits the
//! NIC is written against, the L2 ToR switch that implements them, and the
//! narrow [`Wire`] seam a backend plugs in beneath it.
//!
//! The paper keeps one RPC pipeline above an exchangeable network
//! attachment (§4.1) and evaluates it over "our simple model of a ToR
//! networking switch with a static switching table" (§5.1, Fig. 14). The
//! code has the same three parts, each in one place (DESIGN.md §16):
//!
//! * **the switch** — [`Switch`]: the [`NodeTable`], attach/detach, the
//!   receive half, and the only implementations of [`Fabric`] and
//!   [`FabricPort`] in the crate;
//! * **the wire** — a [`Wire`]: how a frame reaches the destination's
//!   node-table entry. [`MemWire`] pushes it straight in ([`MemFabric`]);
//!   [`crate::fabric_udp::UdpWire`] sends it as a UDP datagram
//!   ([`crate::fabric_udp::UdpFabric`]);
//! * **the fault layer** — [`crate::fabric_faults`], a value between the
//!   two, so fault plans, partitions and the `fabric.*` counters are the
//!   same code, with the same seeded decisions, over every wire.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use dagger_types::{DaggerError, NodeAddr, Result};

use crate::drive::note_delivery;
use crate::fabric_faults::FaultLayer;
use crate::wait::EngineWaker;

/// Frames a port queue preallocates room for: senders move buffers into the
/// deque without allocating until a port falls this far behind.
const PORT_QUEUE_CAP: usize = 1024;

/// One port's receive queue: a mutex-protected deque of encoded frames.
/// Unlike a channel, pushing a frame *moves* the sender's buffer in with no
/// per-send allocation (below [`PORT_QUEUE_CAP`]) — the fabric is a relay
/// of pooled buffers, not a producer of fresh ones.
type PortQueue = Mutex<VecDeque<Vec<u8>>>;

/// The transport seam beneath the NIC: a network of `(node, queue)`
/// attachment points that moves encoded wire frames. Everything above it —
/// the reliable transport ([`crate::reliable`]), queue routing, chaos
/// harnesses — is written against `Fabric`/[`FabricPort`] only. [`Switch`]
/// is the one implementation; backends differ in the [`Wire`] beneath it.
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
/// * **Loss/order**: the fabric MAY drop, reorder, duplicate, or corrupt
///   frames (injected or real); callers needing reliability run the
///   reliable transport. Per-`(sender, queue)` FIFO order is preserved in
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

    /// Number of engine queues `addr` attached with (0 if unknown): all a
    /// sender needs to pick the queue a frame goes to
    /// ([`crate::engine::route_queue`]).
    fn queue_count(&self, addr: NodeAddr) -> usize;

    /// Flushes frames the fabric itself still holds (fault-injection holds,
    /// socket/pump staging) into their destination queues, or waits until
    /// they have landed. Engine shutdown calls this before its final ring
    /// drain so "rings empty" really means "fabric drained". Best-effort
    /// and bounded: frames for detached destinations are discarded.
    fn quiesce(&self);

    /// Frames currently in flight inside the fabric (held, staged, or on
    /// the wire toward a destination this instance owns). `0` after a
    /// [`Fabric::quiesce`] with no concurrent senders.
    fn in_flight(&self) -> usize;
}

/// One engine queue's attachment point on a [`Fabric`].
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
    /// (normally one chosen by [`crate::engine::route_queue`]).
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Fabric`] if `dst` is unknown to the backend.
    /// Transient wire-level loss is NOT an error: backends that cannot
    /// confirm delivery report success and let the reliable transport
    /// recover.
    fn send_to(&self, dst: NodeAddr, dst_queue: u16, bytes: Vec<u8>) -> Result<()>;

    /// Sends to `dst`'s queue 0; errors as [`FabricPort::send_to`].
    fn send(&self, dst: NodeAddr, bytes: Vec<u8>) -> Result<()> {
        self.send_to(dst, 0, bytes)
    }

    /// Ships a whole engine round's staged datagrams in one call, in
    /// order, returning how many the backend accepted. Accepted entries are
    /// drained from `frames`; entries toward destinations the backend does
    /// not know are *left in it* (in order), so the caller can account for
    /// exactly what was rejected. Transient wire loss still counts as
    /// accepted, exactly like [`FabricPort::send_to`]. The engine's one
    /// doorbell per round (the paper's §4.4.1 batching).
    fn send_many(&self, frames: &mut Vec<(NodeAddr, u16, Vec<u8>)>) -> usize;

    /// Receives the next datagram staged for this port's queue, if any.
    /// Never blocks.
    fn try_recv(&self) -> Option<Vec<u8>>;

    /// The fabric this port belongs to (for shutdown-time
    /// [`Fabric::quiesce`] without threading a second handle around).
    fn fabric(&self) -> &dyn Fabric;
}

/// What sending one frame comes to: carried, or the bytes handed back
/// because there is no way to the destination.
pub type Carried = std::result::Result<(), Vec<u8>>;

/// One frame on its way from a port to a `(node, queue)`: who sent it, where
/// it lands (`dst_queue` folds onto the destination's queue count at
/// delivery), and the bytes exactly as the transport layer encoded them.
#[derive(Debug)]
pub struct Frame {
    pub src: NodeAddr,
    pub src_queue: u16,
    pub dst: NodeAddr,
    pub dst_queue: u16,
    pub bytes: Vec<u8>,
}

/// The seam beneath the switch: what a fabric backend implements.
///
/// A wire must get every frame it accepts into the destination's
/// [`NodeTable`] entry: directly ([`MemWire`]), or through whatever carries
/// bytes to the process holding the entry, where the wire's receive side
/// calls [`NodeTable::deliver_burst`]. Everything else is the switch's.
/// Frames reach the wire *after* the fault layer, so injected faults apply
/// above whatever encapsulation the wire adds: a corrupted bit is a bit of
/// the frame, the same bit on every backend.
pub trait Wire: Send + Sync + std::fmt::Debug + Sized + 'static {
    /// Builds the wire over the switch's node table.
    fn new(nodes: Arc<NodeTable>) -> Self;

    /// Carries one frame toward `(frame.dst, frame.dst_queue)` — the one
    /// send primitive under `send_to`, `send_many` and fault-layer
    /// releases. Hands the bytes back if the wire knows no way to
    /// `frame.dst` (or none from `frame.src`); wire loss is not an error.
    fn carry(&self, frame: Frame) -> Carried;

    /// `addr` just attached with `queues` queues (its node-table entry
    /// exists): bind whatever endpoint carries its traffic. On an error the
    /// switch detaches `addr` again.
    fn attach(&self, _addr: NodeAddr, _queues: usize) -> Result<()> {
        Ok(())
    }

    /// `addr` detached (its node-table entry is gone): release its
    /// endpoint. Also called for an address whose `attach` failed.
    fn detach(&self, _addr: NodeAddr) {}

    /// Engine queues of a node attached to *another* switch instance this
    /// wire reaches (0 if unknown), for [`Fabric::queue_count`] toward
    /// nodes not in the table.
    fn remote_queues(&self, _addr: NodeAddr) -> usize {
        0
    }

    /// Waits, bounded, until the frames handed to the wire have reached
    /// the node tables it can observe ([`Fabric::quiesce`]).
    fn settle(&self) {}

    /// Frames handed to the wire and not yet in a node table it can
    /// observe ([`Fabric::in_flight`]).
    fn in_flight(&self) -> usize {
        0
    }
}

/// A node-table entry: one receive queue per engine queue of the attached
/// NIC (RSS-style), and per-queue wakers registered by the owning workers.
#[derive(Debug)]
struct PortEntry {
    queues: Vec<Arc<PortQueue>>,
    wakers: Vec<Option<Arc<EngineWaker>>>,
}

/// The static switching table: the nodes attached to one [`Switch`]
/// instance and their receive queues.
#[derive(Debug, Default)]
pub struct NodeTable {
    nodes: RwLock<HashMap<NodeAddr, PortEntry>>,
}

impl NodeTable {
    /// Delivers one frame into `dst`'s queue `queue` (folded onto the
    /// queues `dst` has) and wakes the owning engine worker if it
    /// registered a waker. Inside a host step the queue is also noted for a
    /// step once that host step is done (`drive::note_delivery`); it is never
    /// stepped here, under the fabric's locks. No entry for `dst` hands the
    /// frame back.
    pub fn deliver(&self, dst: NodeAddr, queue: u16, bytes: Vec<u8>) -> Carried {
        let nodes = self.nodes.read();
        let Some(entry) = nodes.get(&dst) else {
            return Err(bytes);
        };
        let qi = usize::from(queue) % entry.queues.len();
        entry.queues[qi].lock().push_back(bytes);
        if let Some(waker) = &entry.wakers[qi] {
            waker.wake();
            note_delivery(waker);
        }
        Ok(())
    }

    /// Delivers `(queue, bytes)` frames that arrived together for `dst`,
    /// waking each queue the burst touched once at the end rather than
    /// once per frame — the receive half of the doorbell amortization.
    /// Staging is bounded: a frame whose queue already holds `cap` frames
    /// is shed (the reliable layer retransmits). Returns how many were
    /// shed; a detached `dst` takes nothing and sheds nothing.
    pub fn deliver_burst(
        &self,
        dst: NodeAddr,
        frames: impl Iterator<Item = (u16, Vec<u8>)>,
        cap: usize,
    ) -> u64 {
        let nodes = self.nodes.read();
        let Some(entry) = nodes.get(&dst) else {
            return 0;
        };
        // Bit `min(q, 63)` per touched queue; the fold can only over-wake,
        // and wakes are idempotent.
        let (mut touched, mut shed) = (0u64, 0);
        for (queue, bytes) in frames {
            let qi = usize::from(queue) % entry.queues.len();
            let mut staged = entry.queues[qi].lock();
            if staged.len() >= cap {
                shed += 1;
            } else {
                staged.push_back(bytes);
                touched |= 1 << qi.min(63);
            }
        }
        for (qi, waker) in entry.wakers.iter().enumerate() {
            if let (true, Some(waker)) = (touched & (1 << qi.min(63)) != 0, waker) {
                waker.wake();
            }
        }
        shed
    }
}

#[derive(Debug)]
pub(crate) struct Shared<W> {
    nodes: Arc<NodeTable>,
    pub(crate) faults: FaultLayer,
    pub(crate) wire: W,
}

/// The L2 ToR switch with a static switching table: the one [`Fabric`].
/// `W` is the [`Wire`] frames leave on; between ports and wire sits the
/// fault layer, whose control surface (`with_faults`, `partition`,
/// `fault_stats`, …) is implemented on this type in
/// [`crate::fabric_faults`]. Clones share one switch.
#[derive(Debug)]
pub struct Switch<W: Wire> {
    pub(crate) shared: Arc<Shared<W>>,
}

impl<W: Wire> Clone for Switch<W> {
    fn clone(&self) -> Self {
        Switch {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<W: Wire> Default for Switch<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: Wire> Switch<W> {
    /// Creates an empty, faultless fabric.
    pub fn new() -> Self {
        let nodes = Arc::new(NodeTable::default());
        Switch {
            shared: Arc::new(Shared {
                wire: W::new(Arc::clone(&nodes)),
                faults: FaultLayer::default(),
                nodes,
            }),
        }
    }

    /// Number of attached nodes.
    pub fn ports(&self) -> usize {
        self.shared.nodes.nodes.read().len()
    }
}

impl<W: Wire> Fabric for Switch<W> {
    fn attach_queues(&self, addr: NodeAddr, num_queues: usize) -> Result<Vec<Arc<dyn FabricPort>>> {
        let n = num_queues.max(1);
        let queues: Vec<Arc<PortQueue>> = (0..n)
            .map(|_| Arc::new(Mutex::new(VecDeque::with_capacity(PORT_QUEUE_CAP))))
            .collect();
        let entry = PortEntry {
            queues: queues.clone(),
            wakers: vec![None; n],
        };
        match self.shared.nodes.nodes.write().entry(addr) {
            Entry::Vacant(slot) => slot.insert(entry),
            Entry::Occupied(_) => {
                let taken = format!("address {addr} already attached");
                return Err(DaggerError::Fabric(taken));
            }
        };
        // From here on dropping `node` detaches: a wire that cannot bind
        // its endpoint leaves no table entry behind.
        let node = Arc::new(Attachment {
            addr,
            switch: self.clone(),
        });
        self.shared.wire.attach(addr, n)?;
        Ok(queues
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                Arc::new(Port {
                    queue: i as u16,
                    rx,
                    node: Arc::clone(&node),
                }) as Arc<dyn FabricPort>
            })
            .collect())
    }

    fn set_queue_waker(&self, addr: NodeAddr, queue: u16, waker: Arc<EngineWaker>) {
        if let Some(entry) = self.shared.nodes.nodes.write().get_mut(&addr) {
            if let Some(slot) = entry.wakers.get_mut(usize::from(queue)) {
                *slot = Some(waker);
            }
        }
    }

    fn queue_count(&self, addr: NodeAddr) -> usize {
        match self.shared.nodes.nodes.read().get(&addr) {
            Some(entry) => entry.queues.len(),
            None => self.shared.wire.remote_queues(addr),
        }
    }

    /// Puts every frame still held by reorder/delay injection on the wire,
    /// then waits out the wire. Chaos determinism is unaffected: release
    /// consumes no stream randomness and the fault was counted at hold time.
    fn quiesce(&self) {
        self.shared.faults.flush(&self.shared.wire);
        self.shared.wire.settle();
    }

    fn in_flight(&self) -> usize {
        self.shared.faults.held() + self.shared.wire.in_flight()
    }
}

/// One `attach_queues` call, shared by the ports it returned: detaches the
/// address when the last of them drops.
#[derive(Debug)]
struct Attachment<W: Wire> {
    addr: NodeAddr,
    switch: Switch<W>,
}

impl<W: Wire> Drop for Attachment<W> {
    /// Queued datagrams for the address are discarded with its entry.
    fn drop(&mut self) {
        let shared = &self.switch.shared;
        shared.nodes.nodes.write().remove(&self.addr);
        shared.wire.detach(self.addr);
    }
}

/// One engine queue's attachment point: a sharded NIC holds one per worker,
/// each receiving only the traffic routed to its queue index.
#[derive(Debug)]
struct Port<W: Wire> {
    queue: u16,
    rx: Arc<PortQueue>,
    node: Arc<Attachment<W>>,
}

impl<W: Wire> Port<W> {
    /// Sends one frame through the fault layer onto the wire.
    fn forward(&self, dst: NodeAddr, dst_queue: u16, bytes: Vec<u8>) -> Carried {
        let frame = Frame {
            src: self.node.addr,
            src_queue: self.queue,
            dst,
            dst_queue,
            bytes,
        };
        let shared = &self.node.switch.shared;
        shared.faults.forward(frame, &shared.wire)
    }
}

impl<W: Wire> FabricPort for Port<W> {
    fn addr(&self) -> NodeAddr {
        self.node.addr
    }

    fn queue(&self) -> u16 {
        self.queue
    }

    fn send_to(&self, dst: NodeAddr, dst_queue: u16, bytes: Vec<u8>) -> Result<()> {
        self.forward(dst, dst_queue, bytes)
            .map_err(|_| DaggerError::Fabric(format!("no way from {} to {dst}", self.node.addr)))
    }

    fn send_many(&self, frames: &mut Vec<(NodeAddr, u16, Vec<u8>)>) -> usize {
        let staged = frames.len();
        frames.retain_mut(|(dst, dst_queue, bytes)| {
            match self.forward(*dst, *dst_queue, std::mem::take(bytes)) {
                Ok(()) => false,
                Err(back) => {
                    *bytes = back;
                    true
                }
            }
        });
        staged - frames.len()
    }

    fn try_recv(&self) -> Option<Vec<u8>> {
        let shared = &self.node.switch.shared;
        shared.faults.poll(&shared.wire);
        self.rx.lock().pop_front()
    }

    fn fabric(&self) -> &dyn Fabric {
        &self.node.switch
    }
}

/// The in-memory wire: carrying a frame *is* delivering it.
#[derive(Debug)]
pub struct MemWire(Arc<NodeTable>);

impl Wire for MemWire {
    fn new(nodes: Arc<NodeTable>) -> Self {
        MemWire(nodes)
    }

    fn carry(&self, frame: Frame) -> Carried {
        self.0.deliver(frame.dst, frame.dst_queue, frame.bytes)
    }
}

/// The shared in-process network: the switch over the in-memory wire (the
/// loopback methodology of §5.1).
pub type MemFabric = Switch<MemWire>;

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

    /// A sender's routing input is the destination's queue count, and both
    /// backends report the same count for every attachment, so a
    /// connection's queue does not depend on which fabric carries it.
    #[test]
    fn queue_count_is_the_attached_count_on_both_backends() {
        for n in 1..=5usize {
            let (mem, udp) = (MemFabric::new(), crate::fabric_udp::UdpFabric::new());
            let _mem_ports = mem.attach_queues(NodeAddr(2), n).unwrap();
            let _udp_ports = udp.attach_queues(NodeAddr(2), n).unwrap();
            assert_eq!(mem.queue_count(NodeAddr(2)), n);
            assert_eq!(udp.queue_count(NodeAddr(2)), n);
            assert_eq!(mem.queue_count(NodeAddr(99)), 0);
            assert_eq!(udp.queue_count(NodeAddr(99)), 0);
        }
    }
}
