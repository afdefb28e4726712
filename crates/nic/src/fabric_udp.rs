//! The UDP [`Wire`]: one `std::net::UdpSocket` per attached NIC, so two
//! [`crate::nic::Nic`]s run in separate processes or hosts over
//! loopback/LAN.
//!
//! The paper's NIC attaches to the physical network through an exchangeable
//! PHY (§4.1); swapping the in-memory wire for real sockets beneath the
//! same [`Switch`] is the software analogue. Ports, queues, wakers, RSS
//! routing and fault injection are the switch's and do not change; the
//! reliable transport above absorbs real loss, reordering and duplication
//! with the machinery the injected faults exercise.
//!
//! # Wire encapsulation
//!
//! Each fabric frame travels as one UDP datagram carrying a fixed 10-byte
//! encapsulation header followed by the backend-agnostic frame bytes
//! (exactly what [`crate::transport::Datagram::encode_into`] produced —
//! byte-identical across backends, see the golden-frame conformance test):
//!
//! ```text
//! offset  size  field
//! 0       1     magic 0xD5
//! 1       1     version 0x01
//! 2       2     dst_queue  (LE) — receiver's engine queue
//! 4       4     src_node   (LE) — sender's NodeAddr
//! 8       2     src_queue  (LE) — sender's engine queue
//! 10      ...   frame payload
//! ```
//!
//! The header is written by [`Wire::carry`] and nowhere else. Injected
//! faults apply *above* it: a corrupted bit is a bit of the frame payload,
//! never of the header, and a held frame is encapsulated when released.
//!
//! The `src_node` field doubles as peer discovery: a receiver learns the
//! sender's socket address from the first datagram it sees, so only the
//! initial connection direction needs static [`UdpFabric::set_peer`]
//! configuration (mirroring the paper's static switching table).
//!
//! # What this backend does NOT give you
//!
//! * **Cross-process fault state**: each process's switch has its own
//!   fault layer, governing the frames *its* ports send. Decisions replay
//!   per seed as in memory; real sockets add loss on their own schedule.

use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use dagger_types::{DaggerError, NodeAddr, Result};

use crate::bank::counter_bank;
use crate::fabric::{Carried, Frame, NodeTable, Switch, Wire};
use crate::wait::SpinWait;

/// Encapsulation header length (see module docs).
const UDP_HEADER: usize = 10;
/// Encapsulation magic byte.
const UDP_MAGIC: u8 = 0xD5;
/// Encapsulation version.
const UDP_VERSION: u8 = 0x01;
/// Largest datagram the RX pump accepts: header + the biggest frame the
/// transport can encode (14-byte datagram header + 256 cache lines), with
/// slack for future prelude growth.
const MAX_UDP_FRAME: usize = 64 * 1024;
/// Frames one RX queue may stage before the pump sheds load; matches the
/// in-memory fabric's preallocation so both backends saturate alike.
const RX_STAGE_CAP: usize = 1024;
/// How long the RX pump sleeps in the kernel before re-checking its stop
/// flag.
const PUMP_POLL: Duration = Duration::from_millis(5);
/// Datagrams one pump pass absorbs before delivering them as one burst
/// ([`NodeTable::deliver_burst`]).
const RX_BATCH: usize = 32;
/// Upper bound a [`Wire::settle`] waits for locally-destined datagrams
/// still sitting in kernel buffers to reach their staging queues.
const QUIESCE_DEADLINE: Duration = Duration::from_millis(250);
/// Sent datagrams' buffers the wire keeps for its pumps to receive into.
const SPARE_CAP: usize = 256;

/// A remote (or loopback-local) NIC endpoint in the static peer table.
#[derive(Clone, Copy, Debug)]
struct PeerEntry {
    addr: SocketAddr,
    /// Engine queues the peer attached with (for remote RSS spreading);
    /// learned peers default to 1 until configured.
    queues: usize,
}

/// The endpoint of a NIC attached to *this* instance: its socket, and the
/// flag that stops the RX pump delivering from it into the node table.
#[derive(Debug)]
struct Endpoint {
    socket: UdpSocket,
    stop: AtomicBool,
}

type Local = (Arc<Endpoint>, JoinHandle<()>);

#[derive(Debug, Default)]
struct UdpShared {
    /// The switch's node table; the pumps deliver into it.
    nodes: Arc<NodeTable>,
    /// NodeAddr → socket address of every known NIC, local or remote.
    peers: RwLock<HashMap<NodeAddr, PeerEntry>>,
    /// Endpoints of the NICs attached to this instance (usually one per
    /// process), each with its pump thread.
    endpoints: RwLock<HashMap<NodeAddr, Local>>,
    /// Bind addresses requested before attach (default 127.0.0.1:0).
    binds: Mutex<HashMap<NodeAddr, SocketAddr>>,
    /// Datagrams sent whose destination NIC is attached to this instance
    /// (the only in-flight population we can observe land). Only grows.
    tx_local: AtomicU64,
    /// Datagrams from a local sender no longer in flight: staged, shed by
    /// the bounded stage, refused by the kernel or written off. Moved only
    /// by [`UdpShared::credit`].
    rx_local: AtomicU64,
    /// Buffers of sent datagrams, which the pumps receive into: a frame's
    /// buffer circulates engine → wire → pump → engine as it does on the
    /// in-memory wire, so neither side allocates per datagram.
    spare: Mutex<Vec<Vec<u8>>>,
    stats: UdpStats,
}

counter_bank! {
    /// What the UDP backend shed or lost on its own account.
    pub struct UdpStats =>
    /// A plain-data snapshot of [`UdpStats`].
    UdpSnapshot {
        /// `send_to` calls the kernel refused (counted as wire loss).
        tx_errors,
        /// Datagrams shed because a staging queue was full.
        rx_overflow,
        /// Datagrams rejected by encapsulation validation.
        rx_malformed,
        /// Datagrams a [`Wire::settle`] gave up waiting for at its bound.
        rx_written_off,
    }
}

/// The UDP wire; see the module docs.
#[derive(Debug)]
pub struct UdpWire(Arc<UdpShared>);

/// The UDP fabric: the [`Switch`] with frames travelling as datagrams.
///
/// Construction is two-phase, mirroring a static switching table: bind
/// and peer addresses are configured first ([`UdpFabric::bind_addr`],
/// [`UdpFabric::set_peer`]), then NICs attach. Within one process a single
/// `UdpFabric` can host several NICs (loopback self-configuration is
/// automatic); across processes each side holds its own instance and
/// names the other via `set_peer`.
pub type UdpFabric = Switch<UdpWire>;

impl Switch<UdpWire> {
    /// Requests a specific bind address for `node`'s socket (default
    /// `127.0.0.1:0`). Call before attaching.
    pub fn bind_addr(&self, node: NodeAddr, addr: SocketAddr) {
        self.shared.wire.0.binds.lock().insert(node, addr);
    }

    /// Declares where `node` lives and how many engine queues it serves —
    /// the static switching-table entry for a peer in another process. A
    /// multi-queue NIC must be declared with its real queue count: responses
    /// are routed to the queue owning the flow they answer, and a peer
    /// learned from its traffic alone counts as single-queue. Declared too
    /// low, the peer drops every response for a flow of another queue
    /// (`rx_ring_drops`; DESIGN.md §13).
    pub fn set_peer(&self, node: NodeAddr, addr: SocketAddr, queues: usize) {
        let queues = queues.max(1);
        let peer = PeerEntry { addr, queues };
        self.shared.wire.0.peers.write().insert(node, peer);
    }

    /// The socket address `node` actually bound (None if not attached
    /// here). Two-process examples print this so the peer can be told.
    pub fn local_addr(&self, node: NodeAddr) -> Option<SocketAddr> {
        let endpoints = self.shared.wire.0.endpoints.read();
        endpoints.get(&node)?.0.socket.local_addr().ok()
    }

    /// Datagrams the kernel refused to send (treated as wire loss for the
    /// reliable transport to recover).
    pub fn tx_errors(&self) -> u64 {
        self.shared.wire.0.stats.tx_errors.get()
    }

    /// Datagrams shed because a staging queue was at capacity.
    pub fn rx_overflow(&self) -> u64 {
        self.shared.wire.0.stats.rx_overflow.get()
    }

    /// Datagrams rejected by encapsulation validation.
    pub fn rx_malformed(&self) -> u64 {
        self.shared.wire.0.stats.rx_malformed.get()
    }

    /// Datagrams a `quiesce` stopped waiting for at its bound.
    pub fn rx_written_off(&self) -> u64 {
        self.shared.wire.0.stats.rx_written_off.get()
    }
}

impl Wire for UdpWire {
    fn new(nodes: Arc<NodeTable>) -> Self {
        UdpWire(Arc::new(UdpShared {
            nodes,
            spare: Mutex::new(Vec::with_capacity(SPARE_CAP)),
            ..UdpShared::default()
        }))
    }

    /// Encapsulates `frame` and hands it to the kernel from the source
    /// node's socket. No peer-table entry for the destination, or a source
    /// that is not attached here, hands the frame back.
    fn carry(&self, frame: Frame) -> Carried {
        let shared = &*self.0;
        let peer = shared.peers.read().get(&frame.dst).copied();
        let endpoints = shared.endpoints.read();
        let (Some(peer), Some((from, _))) = (peer, endpoints.get(&frame.src)) else {
            return Err(frame.bytes);
        };
        // Encapsulated in place: the header goes in front of the frame in
        // the frame's own buffer.
        let mut pkt = frame.bytes;
        let len = pkt.len();
        pkt.resize(UDP_HEADER + len, 0);
        pkt.copy_within(..len, UDP_HEADER);
        let mut header = [UDP_MAGIC, UDP_VERSION, 0, 0, 0, 0, 0, 0, 0, 0];
        header[2..4].copy_from_slice(&frame.dst_queue.to_le_bytes());
        header[4..8].copy_from_slice(&frame.src.raw().to_le_bytes());
        header[8..].copy_from_slice(&frame.src_queue.to_le_bytes());
        pkt[..UDP_HEADER].copy_from_slice(&header);
        // Count before the syscall: once handed to the kernel the datagram
        // is in flight until a local pump accounts for it.
        let dst_is_local = endpoints.contains_key(&frame.dst);
        if dst_is_local {
            shared.tx_local.fetch_add(1, Ordering::Relaxed);
        }
        if from.socket.send_to(&pkt, peer.addr).is_err() {
            // The wire ate it: the reliable layer retransmits. The kernel
            // never took the datagram, so it is not in flight either.
            shared.credit(u64::from(dst_is_local));
            shared.stats.tx_errors.inc();
        }
        shared.keep(pkt);
        Ok(())
    }

    /// Binds `node`'s socket and starts its RX pump.
    fn attach(&self, node: NodeAddr, queues: usize) -> Result<()> {
        let requested = self.0.binds.lock().get(&node).copied();
        let bind = requested.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0)));
        let fail = |e: std::io::Error| DaggerError::Fabric(format!("{node} at {bind}: {e}"));
        let socket = UdpSocket::bind(bind).map_err(fail)?;
        socket.set_read_timeout(Some(PUMP_POLL)).map_err(fail)?;
        let addr = socket.local_addr().map_err(fail)?;
        let stop = AtomicBool::new(false);
        let endpoint = Arc::new(Endpoint { socket, stop });
        let (shared, ep) = (Arc::clone(&self.0), Arc::clone(&endpoint));
        let pump = std::thread::Builder::new()
            .name(format!("dagger-udp-{}", node.raw()))
            .spawn(move || shared.pump(node, &ep))
            .map_err(fail)?;
        self.0.endpoints.write().insert(node, (endpoint, pump));
        // Loopback self-entry: NICs sharing this instance reach us with no
        // static configuration, exactly like the in-memory switch table.
        let peer = PeerEntry { addr, queues };
        self.0.peers.write().insert(node, peer);
        Ok(())
    }

    /// Stops and joins `node`'s RX pump, closes the socket, and removes its
    /// peer-table self-entry.
    fn detach(&self, node: NodeAddr) {
        let Some((endpoint, pump)) = self.0.endpoints.write().remove(&node) else {
            return;
        };
        endpoint.stop.store(true, Ordering::Release);
        // The pump sleeps in `recv_from`: an empty datagram to its own
        // socket gets it to the stop flag now rather than a read
        // timeout (5 ms, rounded up to the kernel's tick) from now.
        if let Ok(own) = endpoint.socket.local_addr() {
            let _ = endpoint.socket.send_to(&[], own);
        }
        let _ = pump.join();
        self.0.peers.write().remove(&node);
    }

    fn remote_queues(&self, addr: NodeAddr) -> usize {
        self.0.peers.read().get(&addr).map_or(0, |p| p.queues)
    }

    /// Datagrams addressed to local NICs may still sit in kernel buffers;
    /// waits (bounded) for the pumps to account for them so a stopping
    /// engine's final ring drain sees everything. Backed off like every
    /// other wait: a datagram sent microseconds ago only needs the pump to
    /// get the CPU, which a yield gives it.
    ///
    /// A datagram still missing at the deadline is written off and counted
    /// (`rx_written_off`), or `in_flight` would never read 0 again and
    /// every later quiesce would wait out the deadline for it. Usually the
    /// kernel dropped it (`RcvbufErrors`: a full socket buffer under a
    /// starved pump; the reliable layer repairs that); one that was only
    /// late is still delivered, and `UdpShared::credit` books it once.
    fn settle(&self) {
        let deadline = Instant::now() + QUIESCE_DEADLINE;
        let mut backoff = SpinWait::new();
        while self.in_flight() > 0 {
            if Instant::now() >= deadline {
                let lost = self.0.credit(u64::MAX);
                self.0.stats.rx_written_off.add(lost);
                return;
            }
            backoff.wait();
        }
    }

    fn in_flight(&self) -> usize {
        let tx = self.0.tx_local.load(Ordering::Relaxed);
        let rx = self.0.rx_local.load(Ordering::Relaxed);
        tx.saturating_sub(rx) as usize
    }
}

impl UdpShared {
    /// Books up to `n` datagrams as landed and returns how many it booked.
    /// `tx_local` only grows and `rx_local` never passes it: a datagram
    /// [`Wire::settle`] wrote off may still turn up at a pump, and booked
    /// twice it would hide a later one from `in_flight` for good.
    fn credit(&self, n: u64) -> u64 {
        let sent = self.tx_local.load(Ordering::Relaxed);
        let book = |rx: u64| Some(rx + n.min(sent.saturating_sub(rx)));
        let rx = &self.rx_local;
        let before = rx.fetch_update(Ordering::Relaxed, Ordering::Relaxed, book);
        n.min(sent.saturating_sub(before.unwrap_or(sent)))
    }

    /// Keeps a sent datagram's buffer for a pump to receive into (dropped
    /// once [`SPARE_CAP`] are kept).
    fn keep(&self, buf: Vec<u8>) {
        let mut spare = self.spare.lock();
        if spare.len() < SPARE_CAP {
            spare.push(buf);
        }
    }

    /// A buffer holding a copy of `frame`: a kept one when there is one.
    fn copy_out(&self, frame: &[u8]) -> Vec<u8> {
        let mut buf = self.spare.lock().pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(frame);
        buf
    }

    /// Validates and strips one datagram's encapsulation, learning the
    /// sender's socket address so replies need no static entry. Returns the
    /// destination queue, the frame, and whether the sender is attached to
    /// this instance (its datagram was counted in flight).
    fn decap<'p>(&self, pkt: &'p [u8], addr: SocketAddr) -> Option<(u16, &'p [u8], bool)> {
        if pkt.len() < UDP_HEADER || pkt[0] != UDP_MAGIC || pkt[1] != UDP_VERSION {
            self.stats.rx_malformed.inc();
            return None;
        }
        let dst_queue = u16::from_le_bytes([pkt[2], pkt[3]]);
        let src_node = NodeAddr(u32::from_le_bytes([pkt[4], pkt[5], pkt[6], pkt[7]]));
        let known = self.peers.read().contains_key(&src_node);
        if !known {
            let learned = PeerEntry { addr, queues: 1 };
            self.peers.write().entry(src_node).or_insert(learned);
        }
        let src_is_local = self.endpoints.read().contains_key(&src_node);
        Some((dst_queue, &pkt[UDP_HEADER..], src_is_local))
    }

    /// The RX pump: drains `node`'s socket into its node-table entry.
    ///
    /// Receives are batched: the first read blocks (bounded by the socket
    /// timeout), the pump yields once, then whatever else already sits in
    /// the kernel buffer is drained nonblocking up to [`RX_BATCH`], and
    /// the burst is delivered with one wake per touched queue.
    fn pump(&self, node: NodeAddr, endpoint: &Endpoint) {
        let Endpoint { socket, stop } = endpoint;
        let mut buf = vec![0u8; MAX_UDP_FRAME];
        let mut burst: Vec<(u16, Vec<u8>)> = Vec::with_capacity(RX_BATCH);
        while !stop.load(Ordering::Acquire) {
            // A read timeout or a socket error alike: re-check the flag.
            let Ok((len, from)) = socket.recv_from(&mut buf) else {
                continue;
            };
            if stop.load(Ordering::Acquire) {
                return; // `detach`'s wake-up datagram, or traffic racing it
            }
            let mut from_local = 0u64;
            let mut stage = |pkt: &[u8], from: SocketAddr| {
                if let Some((queue, frame, src_is_local)) = self.decap(pkt, from) {
                    burst.push((queue, self.copy_out(frame)));
                    from_local += u64::from(src_is_local);
                }
            };
            stage(&buf[..len], from);
            // The kernel woke us on the first datagram of what is usually a
            // burst, and with sender and pump on one core that wake preempts
            // the sender mid-burst: without this yield a host-driven sender
            // was interrupted once per datagram (2.1–2.5 pump cycles per
            // `bulk_udp` RPC against 0.25 with it, each ~5 syscalls and two
            // context switches). Step aside once so the sender can finish,
            // then drain the lot in one pass.
            std::thread::yield_now();
            if socket.set_nonblocking(true).is_ok() {
                for _ in 1..RX_BATCH {
                    match socket.recv_from(&mut buf) {
                        Ok((len, from)) => stage(&buf[..len], from),
                        Err(_) => break,
                    }
                }
                // The read timeout set at attach survives the toggle.
                let _ = socket.set_nonblocking(false);
            }
            let shed = self
                .nodes
                .deliver_burst(node, burst.drain(..), RX_STAGE_CAP);
            self.stats.rx_overflow.add(shed);
            // Staged or shed, the burst is no longer in flight.
            self.credit(from_local);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, FabricPort, MemFabric};
    use crate::wait::EngineWaker;

    fn attach(fabric: &UdpFabric, addr: NodeAddr, queues: usize) -> Vec<Arc<dyn FabricPort>> {
        Fabric::attach_queues(fabric, addr, queues).unwrap()
    }

    fn recv_within(port: &Arc<dyn FabricPort>, ms: u64) -> Option<Vec<u8>> {
        let deadline = Instant::now() + Duration::from_millis(ms);
        while Instant::now() < deadline {
            if let Some(bytes) = port.try_recv() {
                return Some(bytes);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        None
    }

    #[test]
    fn loopback_send_recv() {
        let fabric = UdpFabric::new();
        let a = attach(&fabric, NodeAddr(1), 1);
        let b = attach(&fabric, NodeAddr(2), 1);
        a[0].send(NodeAddr(2), vec![1, 2, 3]).unwrap();
        assert_eq!(recv_within(&b[0], 2000), Some(vec![1, 2, 3]));
        assert_eq!(b[0].try_recv(), None);
    }

    #[test]
    fn duplicate_address_rejected() {
        let fabric = UdpFabric::new();
        let _a = attach(&fabric, NodeAddr(1), 1);
        assert!(Fabric::attach_queues(&fabric, NodeAddr(1), 1).is_err());
    }

    #[test]
    fn unknown_destination_errors() {
        let fabric = UdpFabric::new();
        let a = attach(&fabric, NodeAddr(1), 1);
        assert!(a[0].send(NodeAddr(9), vec![0]).is_err());
    }

    #[test]
    fn queue_addressed_delivery() {
        let fabric = UdpFabric::new();
        let a = attach(&fabric, NodeAddr(1), 1);
        let b = attach(&fabric, NodeAddr(2), 4);
        assert_eq!(fabric.queue_count(NodeAddr(2)), 4);
        for q in 0..4u16 {
            a[0].send_to(NodeAddr(2), q, vec![q as u8]).unwrap();
        }
        for (q, port) in b.iter().enumerate() {
            assert_eq!(port.queue(), q as u16);
            assert_eq!(recv_within(port, 2000), Some(vec![q as u8]), "queue {q}");
        }
        // Out-of-range queue folds, never lost.
        a[0].send_to(NodeAddr(2), 7, vec![42]).unwrap();
        assert_eq!(recv_within(&b[3], 2000), Some(vec![42]), "7 % 4 = 3");
    }

    /// `send_many` drains what it accepted and leaves what it rejected, on
    /// both backends alike.
    #[test]
    fn send_many_leaves_rejected_frames_for_the_caller() {
        let (mem, udp) = (MemFabric::new(), UdpFabric::new());
        let mem_ports = mem.attach_queues(NodeAddr(1), 1).unwrap();
        let udp_ports = attach(&udp, NodeAddr(1), 1);
        for port in [&mem_ports[0], &udp_ports[0]] {
            let mut frames = vec![
                (NodeAddr(1), 0, vec![1]),
                (NodeAddr(9), 0, vec![2, 2]),
                (NodeAddr(1), 0, vec![3]),
                (NodeAddr(8), 1, vec![4; 4]),
            ];
            assert_eq!(port.send_many(&mut frames), 2);
            assert_eq!(
                frames,
                [(NodeAddr(9), 0, vec![2, 2]), (NodeAddr(8), 1, vec![4; 4])]
            );
            assert_eq!(recv_within(port, 2000), Some(vec![1]));
            assert_eq!(recv_within(port, 2000), Some(vec![3]));
        }
    }

    #[test]
    fn detach_on_drop_frees_address() {
        let fabric = UdpFabric::new();
        {
            let _a = attach(&fabric, NodeAddr(1), 2);
            assert_eq!(fabric.queue_count(NodeAddr(1)), 2);
        }
        assert_eq!(fabric.queue_count(NodeAddr(1)), 0);
        let _a2 = attach(&fabric, NodeAddr(1), 1);
    }

    /// Dropping the last port detaches the node: its pump is woken by an
    /// empty datagram instead of sleeping out its read timeout, and that
    /// wake-up is not counted as malformed traffic.
    #[test]
    fn detach_wakes_the_pump_and_counts_nothing() {
        let fabric = UdpFabric::new();
        let a = attach(&fabric, NodeAddr(1), 1);
        let b = attach(&fabric, NodeAddr(2), 1);
        a[0].send(NodeAddr(2), vec![7]).unwrap();
        assert_eq!(recv_within(&b[0], 2000), Some(vec![7]));
        // Ten attach/detach cycles would take ten read timeouts (each at
        // least PUMP_POLL) if detach waited one out.
        let started = Instant::now();
        drop(a);
        for _ in 0..9 {
            drop(attach(&fabric, NodeAddr(1), 1));
        }
        assert!(
            started.elapsed() < PUMP_POLL * 5,
            "ten detaches took {:?}",
            started.elapsed()
        );
        assert_eq!(fabric.rx_malformed(), 0);
    }

    #[test]
    fn quiesce_accounts_in_flight_datagrams() {
        let fabric = UdpFabric::new();
        let a = attach(&fabric, NodeAddr(1), 1);
        let _b = attach(&fabric, NodeAddr(2), 1);
        for i in 0..32u8 {
            a[0].send(NodeAddr(2), vec![i]).unwrap();
        }
        fabric.quiesce();
        assert_eq!(fabric.in_flight(), 0, "all datagrams accounted for");
    }

    /// Counts `n` datagrams onto the wire that no pump will ever see.
    fn lose_in_kernel(fabric: &UdpFabric, n: u64) {
        let tx_local = &fabric.shared.wire.0.tx_local;
        tx_local.fetch_add(n, Ordering::Relaxed);
    }

    /// Datagrams the kernel dropped never reach a pump: quiesce waits its
    /// bound for them once, writes them off where it shows, and does not
    /// wait again.
    #[test]
    fn quiesce_writes_off_what_the_kernel_dropped() {
        let fabric = UdpFabric::new();
        let _a = attach(&fabric, NodeAddr(1), 1);
        lose_in_kernel(&fabric, 3);
        assert_eq!(fabric.in_flight(), 3);
        assert_eq!(fabric.rx_written_off(), 0);
        fabric.quiesce();
        assert_eq!(fabric.in_flight(), 0, "lost datagrams written off");
        assert_eq!(fabric.rx_written_off(), 3, "and counted");
        let again = Instant::now();
        fabric.quiesce();
        assert!(
            again.elapsed() < QUIESCE_DEADLINE / 2,
            "waited for them twice"
        );
        assert_eq!(fabric.rx_written_off(), 3);
    }

    /// A written-off datagram was not lost after all and reaches the pump
    /// late: it is delivered, not booked a second time, and what is sent
    /// afterwards still reads as in flight until it lands.
    #[test]
    fn late_arrival_of_a_written_off_datagram_is_not_booked_twice() {
        let fabric = UdpFabric::new();
        let _a = attach(&fabric, NodeAddr(1), 1);
        let b = attach(&fabric, NodeAddr(2), 1);
        // One datagram from node 1 goes missing and is written off ...
        lose_in_kernel(&fabric, 1);
        fabric.quiesce();
        assert_eq!((fabric.in_flight(), fabric.rx_written_off()), (0, 1));
        // ... and then turns up at node 2's socket.
        let mut late = vec![UDP_MAGIC, UDP_VERSION, 0, 0];
        late.extend_from_slice(&NodeAddr(1).raw().to_le_bytes());
        late.extend_from_slice(&[0, 0, 0xAA]);
        let straggler = UdpSocket::bind("127.0.0.1:0").unwrap();
        let to = fabric.local_addr(NodeAddr(2)).unwrap();
        straggler.send_to(&late, to).unwrap();
        assert_eq!(recv_within(&b[0], 2000), Some(vec![0xAA]));
        // Detaching joins the pump, so its books on that burst are closed.
        drop(b);
        lose_in_kernel(&fabric, 1);
        assert_eq!(fabric.in_flight(), 1, "the straggler was booked twice");
    }

    #[test]
    fn waker_unparks_receiver_on_delivery() {
        let fabric = UdpFabric::new();
        let a = attach(&fabric, NodeAddr(1), 1);
        let b = attach(&fabric, NodeAddr(2), 1);
        let waker = Arc::new(EngineWaker::new());
        fabric.set_queue_waker(NodeAddr(2), 0, Arc::clone(&waker));
        let receiver = std::thread::spawn(move || {
            waker.register_current();
            let start = Instant::now();
            loop {
                if let Some(bytes) = b[0].try_recv() {
                    return bytes;
                }
                assert!(start.elapsed() < Duration::from_secs(5), "never delivered");
                waker.park(Duration::from_millis(50));
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        a[0].send(NodeAddr(2), vec![7]).unwrap();
        assert_eq!(receiver.join().unwrap(), vec![7]);
    }

    /// A datagram travels in the buffer it was handed: `carry` writes the
    /// header in front of the frame in place and keeps the buffer for a
    /// pump, which copies the next received frame into it. Neither side
    /// allocates once the buffer has room.
    #[test]
    fn a_sent_buffer_is_encapsulated_in_place_and_received_into() {
        let fabric = UdpFabric::new();
        let a = attach(&fabric, NodeAddr(1), 1);
        let b = attach(&fabric, NodeAddr(2), 1);
        let wire = &fabric.shared.wire.0;
        let mut bytes = Vec::with_capacity(64);
        bytes.extend_from_slice(&[7; 32]);
        let (allocs, sent) =
            crate::alloc_counter::count_allocs(|| a[0].send_to(NodeAddr(2), 0, bytes));
        sent.unwrap();
        assert_eq!(allocs, 0, "carry allocated");
        assert_eq!(recv_within(&b[0], 2000), Some(vec![7; 32]));
        // Whether the pump took the kept buffer or beat `carry` to it, one
        // sent buffer with room is what a pump receives into.
        let mut kept = Vec::with_capacity(64);
        kept.extend_from_slice(&[1; 48]);
        wire.keep(kept);
        let (allocs, copy) = crate::alloc_counter::count_allocs(|| wire.copy_out(&[9; 40]));
        assert_eq!((allocs, copy), (0, vec![9; 40]));
    }
}
