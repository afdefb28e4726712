//! UDP backend of the [`Fabric`] seam: one `std::net::UdpSocket` per NIC,
//! so two [`crate::nic::Nic`]s run in separate processes or hosts over
//! loopback/LAN.
//!
//! The paper's NIC attaches to the physical network through an exchangeable
//! PHY (§4.1); swapping the in-process ToR switch ([`MemFabric`]) for real
//! sockets is the software analogue. Nothing above the seam changes: the
//! reliable transport, wire checksums, RSS steering, and the engine's
//! poll loops run unmodified — real loss, reordering, and duplication on
//! the network are absorbed by the exact machinery the deterministic
//! fault plans exercise in memory. Fault *injection* stays a
//! [`MemFabric`]-level decorator: this backend injects nothing, the
//! network is the chaos.
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
//! The `src_node` field doubles as peer discovery: a receiver learns the
//! sender's socket address from the first datagram it sees, so only the
//! initial connection direction needs static [`UdpFabric::set_peer`]
//! configuration (mirroring the paper's static switching table).
//!
//! # What this backend does NOT give you
//!
//! * **Active-mask propagation**: RSS routing toward a *remote* node
//!   spreads by `tag % queues` without consulting the remote NIC's live
//!   active-queue mask (that register lives in the other process). A
//!   stale route is harmless: the receiver folds out-of-range queues and
//!   the reliable transport preserves per-flow delivery.
//! * **Determinism**: real sockets lose and reorder on their own schedule.
//!   Seeded chaos runs stay on [`MemFabric`]; the conformance suite proves
//!   the two backends are behaviorally interchangeable above the seam.

use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use dagger_types::{DaggerError, NodeAddr, Result};

use crate::bank::counter_bank;
use crate::fabric::{rss_pick, Fabric, FabricPort, MemFabric, PortQueue};
use crate::wait::{EngineWaker, SpinWait};

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
/// Datagrams one pump pass absorbs before waking receivers: the RX half of
/// the batched datapath — a burst that arrived together is staged together
/// and each touched queue is woken once, not once per frame.
const RX_BATCH: usize = 32;
/// Upper bound a [`Fabric::quiesce`] waits for locally-destined datagrams
/// still sitting in kernel buffers to reach their staging queues.
const QUIESCE_DEADLINE: Duration = Duration::from_millis(250);

/// A remote (or loopback-local) NIC endpoint in the static peer table.
#[derive(Clone, Copy, Debug)]
struct PeerEntry {
    addr: SocketAddr,
    /// Engine queues the peer attached with (for remote RSS spreading);
    /// learned peers default to 1 until configured.
    queues: usize,
}

/// A NIC attached to *this* fabric instance: its socket, staging queues,
/// wakers, and the RX pump thread that feeds them.
#[derive(Debug)]
struct LocalNode {
    socket: Arc<UdpSocket>,
    queues: Vec<Arc<PortQueue>>,
    wakers: Vec<Option<Arc<EngineWaker>>>,
    active_mask: Option<Arc<AtomicU64>>,
    stop: Arc<AtomicBool>,
    pump: Option<JoinHandle<()>>,
}

#[derive(Debug, Default)]
struct UdpInner {
    /// NodeAddr → socket address of every known NIC, local or remote.
    peers: RwLock<HashMap<NodeAddr, PeerEntry>>,
    /// NICs attached to this instance (usually one per process).
    locals: RwLock<HashMap<NodeAddr, LocalNode>>,
    /// Bind addresses requested before attach (default 127.0.0.1:0).
    binds: Mutex<HashMap<NodeAddr, SocketAddr>>,
    /// Datagrams sent whose destination NIC is attached to this instance
    /// (the only in-flight population we can observe land).
    tx_local: AtomicU64,
    /// Datagrams from a local sender that reached a local staging queue or
    /// were shed by the bounded stage — either way, no longer in flight.
    rx_local: AtomicU64,
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
    }
}

/// The UDP fabric: a [`Fabric`] whose frames travel as real datagrams.
///
/// Construction is two-phase, mirroring a static switching table: bind
/// and peer addresses are configured first ([`UdpFabric::bind_addr`],
/// [`UdpFabric::set_peer`]), then NICs attach. Within one process a single
/// `UdpFabric` can host several NICs (loopback self-configuration is
/// automatic); across processes each side holds its own instance and
/// names the other via `set_peer`.
#[derive(Clone, Debug, Default)]
pub struct UdpFabric {
    inner: Arc<UdpInner>,
}

impl UdpFabric {
    /// Creates a fabric with an empty peer table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests a specific bind address for `node`'s socket (default
    /// `127.0.0.1:0`). Call before attaching.
    pub fn bind_addr(&self, node: NodeAddr, addr: SocketAddr) {
        self.inner.binds.lock().insert(node, addr);
    }

    /// Declares where `node` lives and how many engine queues it serves —
    /// the static switching-table entry for a peer in another process.
    pub fn set_peer(&self, node: NodeAddr, addr: SocketAddr, queues: usize) {
        self.inner.peers.write().insert(
            node,
            PeerEntry {
                addr,
                queues: queues.max(1),
            },
        );
    }

    /// The socket address `node` actually bound (None if not attached
    /// here). Two-process examples print this so the peer can be told.
    pub fn local_addr(&self, node: NodeAddr) -> Option<SocketAddr> {
        self.inner
            .locals
            .read()
            .get(&node)
            .and_then(|l| l.socket.local_addr().ok())
    }

    /// Datagrams the kernel refused to send (treated as wire loss for the
    /// reliable transport to recover).
    pub fn tx_errors(&self) -> u64 {
        self.inner.stats.tx_errors.get()
    }

    /// Datagrams shed because a staging queue was at capacity.
    pub fn rx_overflow(&self) -> u64 {
        self.inner.stats.rx_overflow.get()
    }

    /// Datagrams rejected by encapsulation validation.
    pub fn rx_malformed(&self) -> u64 {
        self.inner.stats.rx_malformed.get()
    }

    fn send_from(
        &self,
        src: NodeAddr,
        src_queue: u16,
        dst: NodeAddr,
        dst_queue: u16,
        bytes: &[u8],
    ) -> Result<()> {
        let peer = {
            let peers = self.inner.peers.read();
            match peers.get(&dst) {
                Some(p) => *p,
                None => {
                    return Err(DaggerError::Fabric(format!(
                        "no peer-table entry for {dst}"
                    )))
                }
            }
        };
        let socket = {
            let locals = self.inner.locals.read();
            match locals.get(&src) {
                Some(l) => Arc::clone(&l.socket),
                None => {
                    return Err(DaggerError::Fabric(format!(
                        "source {src} is not attached to this fabric"
                    )))
                }
            }
        };
        let mut pkt = Vec::with_capacity(UDP_HEADER + bytes.len());
        pkt.push(UDP_MAGIC);
        pkt.push(UDP_VERSION);
        pkt.extend_from_slice(&dst_queue.to_le_bytes());
        pkt.extend_from_slice(&src.raw().to_le_bytes());
        pkt.extend_from_slice(&src_queue.to_le_bytes());
        pkt.extend_from_slice(bytes);
        // Count before the syscall: once handed to the kernel the datagram
        // is in flight until a local pump accounts for it.
        let dst_is_local = self.inner.locals.read().contains_key(&dst);
        if dst_is_local {
            self.inner.tx_local.fetch_add(1, Ordering::Relaxed);
        }
        match socket.send_to(&pkt, peer.addr) {
            Ok(_) => Ok(()),
            Err(_) => {
                // The wire ate it: the reliable layer retransmits. Undo the
                // in-flight accounting since the kernel never took the
                // datagram.
                if dst_is_local {
                    self.inner.tx_local.fetch_sub(1, Ordering::Relaxed);
                }
                self.inner.stats.tx_errors.inc();
                Ok(())
            }
        }
    }

    /// Batched variant of [`UdpFabric::send_from`] behind
    /// [`FabricPort::send_many`]: the peer table and local-socket locks are
    /// taken once per engine round instead of once per datagram, and the
    /// encapsulation buffer is reused across the batch (the `sendmmsg`
    /// analogue — std has no scatter submit, so the syscalls remain, but
    /// every per-datagram bookkeeping cost is paid once).
    fn send_batch_from(
        &self,
        src: NodeAddr,
        src_queue: u16,
        frames: &mut Vec<(NodeAddr, u16, Vec<u8>)>,
    ) -> usize {
        let socket = {
            let locals = self.inner.locals.read();
            match locals.get(&src) {
                Some(l) => Arc::clone(&l.socket),
                None => return 0,
            }
        };
        let peers = self.inner.peers.read();
        let locals = self.inner.locals.read();
        let mut pkt: Vec<u8> = Vec::new();
        let staged = frames.len();
        frames.retain(|(dst, dst_queue, bytes)| {
            let Some(peer) = peers.get(dst) else {
                // Unknown destination: left for the caller to account —
                // mirrors the per-datagram `send_to` error.
                return true;
            };
            pkt.clear();
            pkt.reserve(UDP_HEADER + bytes.len());
            pkt.push(UDP_MAGIC);
            pkt.push(UDP_VERSION);
            pkt.extend_from_slice(&dst_queue.to_le_bytes());
            pkt.extend_from_slice(&src.raw().to_le_bytes());
            pkt.extend_from_slice(&src_queue.to_le_bytes());
            pkt.extend_from_slice(bytes);
            let dst_is_local = locals.contains_key(dst);
            if dst_is_local {
                self.inner.tx_local.fetch_add(1, Ordering::Relaxed);
            }
            if socket.send_to(&pkt, peer.addr).is_err() {
                // The wire ate it: the reliable layer retransmits.
                if dst_is_local {
                    self.inner.tx_local.fetch_sub(1, Ordering::Relaxed);
                }
                self.inner.stats.tx_errors.inc();
            }
            false
        });
        staged - frames.len()
    }

    /// Detaches `node`: stops and joins its RX pump, closes the socket,
    /// and removes its peer-table self-entry.
    fn detach(&self, node: NodeAddr) {
        let local = self.inner.locals.write().remove(&node);
        if let Some(mut local) = local {
            local.stop.store(true, Ordering::Release);
            // The pump sleeps in `recv_from`: an empty datagram to its own
            // socket gets it to the stop flag now rather than a read
            // timeout (5 ms, rounded up to the kernel's tick) from now.
            if let Ok(own) = local.socket.local_addr() {
                let _ = local.socket.send_to(&[], own);
            }
            if let Some(pump) = local.pump.take() {
                let _ = pump.join();
            }
        }
        self.inner.peers.write().remove(&node);
    }

    /// The RX pump: drains the socket into per-queue staging, learns peer
    /// addresses from encapsulation headers, and wakes parked engines.
    ///
    /// Receives are batched: the first read blocks (bounded by the socket
    /// timeout), the pump yields once, then whatever else already sits in
    /// the kernel buffer is drained nonblocking up to [`RX_BATCH`], and
    /// each queue the burst touched is woken exactly once at the end — the
    /// receive half of the doorbell amortization.
    fn pump(inner: &Arc<UdpInner>, node: NodeAddr, socket: &UdpSocket, stop: &AtomicBool) {
        let mut buf = vec![0u8; MAX_UDP_FRAME];
        let mut staged: Vec<(Vec<u8>, SocketAddr)> = Vec::with_capacity(RX_BATCH);
        while !stop.load(Ordering::Acquire) {
            let (len, from) = match socket.recv_from(&mut buf) {
                Ok(ok) => ok,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(_) => continue,
            };
            if stop.load(Ordering::Acquire) {
                return; // `detach`'s wake-up datagram, or traffic racing it
            }
            staged.clear();
            staged.push((buf[..len].to_vec(), from));
            // The kernel woke us on the first datagram of what is usually a
            // burst, and with sender and pump on one core that wake preempts
            // the sender mid-burst: without this yield a host-driven sender
            // was interrupted once per datagram (2.1–2.5 pump cycles per
            // `bulk_udp` RPC against 0.25 with it, each ~5 syscalls and two
            // context switches). Step aside once so the sender can finish,
            // then drain the lot in one pass.
            std::thread::yield_now();
            if socket.set_nonblocking(true).is_ok() {
                while staged.len() < RX_BATCH {
                    match socket.recv_from(&mut buf) {
                        Ok((len, from)) => staged.push((buf[..len].to_vec(), from)),
                        Err(_) => break,
                    }
                }
                // The read timeout set at attach survives the toggle.
                let _ = socket.set_nonblocking(false);
            }
            // Queues this burst staged frames into (bit `min(q, 63)`; the
            // fold can only over-wake, and wakes are idempotent).
            let mut touched = 0u64;
            for (mut pkt, from) in staged.drain(..) {
                if pkt.len() < UDP_HEADER || pkt[0] != UDP_MAGIC || pkt[1] != UDP_VERSION {
                    inner.stats.rx_malformed.inc();
                    continue;
                }
                let dst_queue = u16::from_le_bytes([pkt[2], pkt[3]]);
                let src_node = NodeAddr(u32::from_le_bytes([pkt[4], pkt[5], pkt[6], pkt[7]]));
                // Learn the sender's address so replies need no static
                // entry.
                {
                    let peers = inner.peers.read();
                    let known = peers.contains_key(&src_node);
                    drop(peers);
                    if !known {
                        inner.peers.write().entry(src_node).or_insert(PeerEntry {
                            addr: from,
                            queues: 1,
                        });
                    }
                }
                let src_is_local = inner.locals.read().contains_key(&src_node);
                let locals = inner.locals.read();
                let Some(local) = locals.get(&node) else {
                    return; // detached mid-poll
                };
                let qi = (dst_queue as usize) % local.queues.len();
                if local.queues[qi].len() >= RX_STAGE_CAP {
                    // Bounded staging: shed instead of growing without
                    // bound; the reliable layer retransmits and the queue
                    // drains meanwhile.
                    inner.stats.rx_overflow.inc();
                } else {
                    // Strip the encapsulation in place: the staged bytes
                    // reuse the packet's own allocation.
                    pkt.drain(..UDP_HEADER);
                    local.queues[qi].push(pkt);
                    touched |= 1u64 << qi.min(63) as u32;
                }
                drop(locals);
                if src_is_local {
                    inner.rx_local.fetch_add(1, Ordering::Relaxed);
                }
            }
            if touched != 0 {
                let locals = inner.locals.read();
                if let Some(local) = locals.get(&node) {
                    for (qi, waker) in local.wakers.iter().enumerate() {
                        if touched & (1u64 << qi.min(63) as u32) != 0 {
                            if let Some(waker) = waker {
                                waker.wake();
                            }
                        }
                    }
                }
            }
        }
    }
}

impl Fabric for UdpFabric {
    fn attach_queues(&self, addr: NodeAddr, num_queues: usize) -> Result<Vec<Arc<dyn FabricPort>>> {
        let n = num_queues.max(1);
        let bind = self
            .inner
            .binds
            .lock()
            .get(&addr)
            .copied()
            .unwrap_or_else(|| "127.0.0.1:0".parse().expect("loopback literal parses"));
        {
            let locals = self.inner.locals.read();
            if locals.contains_key(&addr) {
                return Err(DaggerError::Fabric(format!(
                    "address {addr} already attached"
                )));
            }
        }
        let socket = UdpSocket::bind(bind)
            .map_err(|e| DaggerError::Fabric(format!("bind {bind} for {addr}: {e}")))?;
        socket
            .set_read_timeout(Some(PUMP_POLL))
            .map_err(|e| DaggerError::Fabric(format!("set_read_timeout: {e}")))?;
        let local_addr = socket
            .local_addr()
            .map_err(|e| DaggerError::Fabric(format!("local_addr: {e}")))?;
        let socket = Arc::new(socket);
        let queues: Vec<_> = (0..n).map(|_| Arc::new(PortQueue::new())).collect();
        let stop = Arc::new(AtomicBool::new(false));
        let pump = {
            let inner = Arc::clone(&self.inner);
            let socket = Arc::clone(&socket);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("dagger-udp-{}", addr.raw()))
                .spawn(move || UdpFabric::pump(&inner, addr, &socket, &stop))
                .map_err(|e| DaggerError::Fabric(format!("spawn rx pump: {e}")))?
        };
        {
            let mut locals = self.inner.locals.write();
            if locals.contains_key(&addr) {
                stop.store(true, Ordering::Release);
                let _ = pump.join();
                return Err(DaggerError::Fabric(format!(
                    "address {addr} already attached"
                )));
            }
            locals.insert(
                addr,
                LocalNode {
                    socket: Arc::clone(&socket),
                    queues: queues.clone(),
                    wakers: vec![None; n],
                    active_mask: None,
                    stop,
                    pump: Some(pump),
                },
            );
        }
        // Loopback self-entry: NICs sharing this instance reach us with no
        // static configuration, exactly like the in-memory switch table.
        self.inner.peers.write().insert(
            addr,
            PeerEntry {
                addr: local_addr,
                queues: n,
            },
        );
        let guard = Arc::new(UdpPortGuard {
            addr,
            fabric: self.clone(),
        });
        Ok(queues
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                Arc::new(UdpFabricPort {
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
        if let Some(local) = self.inner.locals.write().get_mut(&addr) {
            if let Some(slot) = local.wakers.get_mut(queue as usize) {
                *slot = Some(waker);
            }
        }
    }

    fn set_queue_mask(&self, addr: NodeAddr, mask: Arc<AtomicU64>) {
        if let Some(local) = self.inner.locals.write().get_mut(&addr) {
            local.active_mask = Some(mask);
        }
    }

    fn queue_count(&self, addr: NodeAddr) -> usize {
        if let Some(local) = self.inner.locals.read().get(&addr) {
            return local.queues.len();
        }
        self.inner.peers.read().get(&addr).map_or(0, |p| p.queues)
    }

    fn route(&self, dst: NodeAddr, tag: u64) -> u16 {
        // Local destinations get the full RSS decision including the live
        // active-queue mask — same algorithm as the in-memory switch.
        if let Some(local) = self.inner.locals.read().get(&dst) {
            let mask = local
                .active_mask
                .as_ref()
                .map_or(0, |m| m.load(Ordering::Relaxed));
            return rss_pick(local.queues.len(), mask, tag);
        }
        // Remote destinations: spread by declared queue count; the remote
        // mask is not visible cross-process (see module docs).
        let n = self.inner.peers.read().get(&dst).map_or(1, |p| p.queues);
        if n <= 1 {
            0
        } else {
            (tag % n as u64) as u16
        }
    }

    fn quiesce(&self) {
        // Datagrams addressed to local NICs may still sit in kernel
        // buffers; wait (bounded) for the pumps to account for them so a
        // stopping engine's final ring drain sees everything.
        // Backed off like every other wait: a datagram sent microseconds
        // ago only needs the pump to get the CPU, which a yield gives it; a
        // flat 1 ms sleep here made every teardown that caught one in
        // flight an idle millisecond.
        let deadline = Instant::now() + QUIESCE_DEADLINE;
        let mut backoff = SpinWait::new();
        while self.in_flight() > 0 && Instant::now() < deadline {
            backoff.wait();
        }
    }

    fn in_flight(&self) -> usize {
        let tx = self.inner.tx_local.load(Ordering::Relaxed);
        let rx = self.inner.rx_local.load(Ordering::Relaxed);
        tx.saturating_sub(rx) as usize
    }
}

/// Detaches the address (stopping its RX pump) when the last port of an
/// attachment drops.
#[derive(Debug)]
struct UdpPortGuard {
    addr: NodeAddr,
    fabric: UdpFabric,
}

impl Drop for UdpPortGuard {
    fn drop(&mut self) {
        self.fabric.detach(self.addr);
    }
}

/// One engine queue's attachment point on the UDP fabric.
#[derive(Debug)]
pub struct UdpFabricPort {
    addr: NodeAddr,
    queue: u16,
    fabric: UdpFabric,
    rx: Arc<PortQueue>,
    _guard: Arc<UdpPortGuard>,
}

impl FabricPort for UdpFabricPort {
    fn addr(&self) -> NodeAddr {
        self.addr
    }

    fn queue(&self) -> u16 {
        self.queue
    }

    fn send_to(&self, dst: NodeAddr, dst_queue: u16, bytes: Vec<u8>) -> Result<()> {
        self.fabric
            .send_from(self.addr, self.queue, dst, dst_queue, &bytes)
    }

    fn send_many(&self, frames: &mut Vec<(NodeAddr, u16, Vec<u8>)>) -> usize {
        self.fabric.send_batch_from(self.addr, self.queue, frames)
    }

    fn route(&self, dst: NodeAddr, tag: u64) -> u16 {
        Fabric::route(&self.fabric, dst, tag)
    }

    fn try_recv(&self) -> Option<Vec<u8>> {
        self.rx.pop()
    }

    fn fabric(&self) -> &dyn Fabric {
        &self.fabric
    }
}

/// Compile-time proof both backends erase to the same object types.
#[allow(dead_code)]
fn _assert_object_safe<'a>(mem: &'a MemFabric, udp: &'a UdpFabric) -> [&'a dyn Fabric; 2] {
    [mem, udp]
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
