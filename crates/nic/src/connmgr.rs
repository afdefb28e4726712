//! The Connection Manager (§4.2).
//!
//! Dagger manages connections entirely on the NIC. The connection table maps
//! a [`ConnectionId`] onto `<src_flow, dest_addr, load_balancer>` tuples and
//! is designed as a direct-mapped cache indexed by the ⌈log N⌉ LSBs of the
//! connection id. To serve three concurrent hardware readers per cycle — the
//! outgoing RPC flow, the incoming flow, and the CM itself — the cache is
//! *banked into three tables* (1W3R). We model the banks and their
//! per-reader-port statistics faithfully, and also implement the
//! host-DRAM backing store that the paper leaves as future work ("the red
//! lines in Figure 6"): on a conflict the evicted tuple spills to backing
//! memory and can be faulted back in with a miss penalty counted by the
//! [`PacketMonitor`](crate::monitor::PacketMonitor)-style counters here.
//!
//! Connection setup crosses the wire as three single-line control frames —
//! open, open-ack, close — whose codec lives here too; the engine only
//! dispatches on their function ids.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dagger_types::{
    CacheLine, ConnectionId, DaggerError, FlowId, FnId, LbPolicy, NodeAddr, Result, RpcHeader,
    RpcId, RpcKind,
};

/// The value stored per connection: the routing credentials of §4.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnectionTuple {
    /// The client-side flow that opened the connection; responses are
    /// steered back to it.
    pub src_flow: FlowId,
    /// Address of the remote host.
    pub dest_addr: NodeAddr,
    /// Load-balancing scheme requested for this connection's requests.
    pub lb: LbPolicy,
}

/// Function id marking a connection-open control frame.
pub const CTRL_OPEN_FN: u16 = 0xFFFF;
/// Function id marking a connection-close control frame.
pub const CTRL_CLOSE_FN: u16 = 0xFFFE;
/// Function id acknowledging a connection-open control frame.
pub const CTRL_OPEN_ACK_FN: u16 = 0xFFFD;

/// A control frame: one request line about `cid` whose function id names
/// its kind.
fn ctrl_frame(cid: ConnectionId, fn_id: u16, src_flow: FlowId, payload: &[u8]) -> CacheLine {
    let mut line = CacheLine::zeroed();
    let hdr = RpcHeader {
        connection_id: cid,
        rpc_id: RpcId(0),
        fn_id: FnId(fn_id),
        src_flow,
        kind: RpcKind::Request,
        frame_idx: 0,
        frame_count: 1,
        frame_payload_len: payload.len() as u8,
        traced: false,
        offloaded: false,
    };
    hdr.encode(line.header_mut());
    line.payload_mut()[..payload.len()].copy_from_slice(payload);
    line
}

/// The control frame announcing connection `cid` to the remote NIC.
/// `tuple` is what the remote installs: the opener's address and flow (where
/// responses go) and the load balancer it asks for.
pub fn ctrl_open(cid: ConnectionId, tuple: ConnectionTuple) -> CacheLine {
    let mut payload = [0u8; 7];
    payload[0..4].copy_from_slice(&tuple.dest_addr.raw().to_le_bytes());
    payload[4..6].copy_from_slice(&tuple.src_flow.raw().to_le_bytes());
    payload[6] = tuple.lb.to_wire();
    ctrl_frame(cid, CTRL_OPEN_FN, tuple.src_flow, &payload)
}

/// The tuple a [`ctrl_open`] frame carries.
pub fn decode_ctrl_open(line: &CacheLine) -> ConnectionTuple {
    let p = line.payload();
    ConnectionTuple {
        dest_addr: NodeAddr(u32::from_le_bytes([p[0], p[1], p[2], p[3]])),
        src_flow: FlowId(u16::from_le_bytes([p[4], p[5]])),
        lb: LbPolicy::from_wire(p[6]),
    }
}

/// The control frame acknowledging a connection open.
pub fn ctrl_open_ack(cid: ConnectionId) -> CacheLine {
    ctrl_frame(cid, CTRL_OPEN_ACK_FN, FlowId(0), &[])
}

/// The control frame closing a connection on the remote NIC.
pub fn ctrl_close(cid: ConnectionId) -> CacheLine {
    ctrl_frame(cid, CTRL_CLOSE_FN, FlowId(0), &[])
}

/// Identifies which of the three concurrent hardware readers performs a
/// lookup; each maps to its own bank/port (1W3R, §4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmPort {
    /// The outgoing (TX) RPC flow reading destination credentials.
    Tx,
    /// The incoming (RX) flow reading the response flow / load balancer.
    Rx,
    /// The connection manager itself (open/close bookkeeping).
    Cm,
}

#[derive(Clone, Copy, Debug, Default)]
struct PortStats {
    hits: u64,
    misses: u64,
}

/// Direct-mapped, three-banked connection cache with host-memory spill.
#[derive(Debug)]
pub struct ConnectionManager {
    /// One logical entry array; the three "banks" are read ports onto the
    /// same direct-mapped geometry, as in the hardware.
    entries: Vec<Option<(ConnectionId, ConnectionTuple)>>,
    mask: u32,
    /// Host-DRAM backing store for spilled/overflowing connections.
    backing: HashMap<ConnectionId, ConnectionTuple>,
    stats: [PortStats; 3],
    spills: u64,
    open_count: u64,
    /// Mutation generation, bumped on every successful `open`/`close`.
    /// Engine-side tuple caches ([`crate::conncache::ConnTupleCache`])
    /// snapshot this counter and drop their entries when it moves — the
    /// software analogue of the HCC invalidation messages of §4.4.1.
    generation: Arc<AtomicU64>,
}

impl ConnectionManager {
    /// Creates a manager with a direct-mapped cache of `cache_entries`
    /// (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `cache_entries` is not a power of two or is zero.
    pub fn new(cache_entries: usize) -> Self {
        assert!(
            cache_entries.is_power_of_two() && cache_entries > 0,
            "cache size must be a power of two"
        );
        ConnectionManager {
            entries: vec![None; cache_entries],
            mask: (cache_entries - 1) as u32,
            backing: HashMap::new(),
            stats: [PortStats::default(); 3],
            spills: 0,
            open_count: 0,
            generation: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Shared handle to the mutation-generation counter. Readers that cache
    /// tuples outside the manager compare it against their snapshot to
    /// detect staleness without taking the manager's lock.
    pub fn generation_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.generation)
    }

    /// Current mutation generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    fn index(&self, cid: ConnectionId) -> usize {
        (cid.raw() & self.mask) as usize
    }

    fn port_idx(port: CmPort) -> usize {
        match port {
            CmPort::Tx => 0,
            CmPort::Rx => 1,
            CmPort::Cm => 2,
        }
    }

    /// Opens a connection, installing its tuple in the cache. A conflicting
    /// resident connection spills to the host backing store (the paper's
    /// future-work DRAM path).
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Config`] if the connection is already open.
    pub fn open(&mut self, cid: ConnectionId, tuple: ConnectionTuple) -> Result<()> {
        if self.contains(cid) {
            return Err(DaggerError::Config(format!(
                "connection {cid} already open"
            )));
        }
        let idx = self.index(cid);
        if let Some((old_cid, old_tuple)) = self.entries[idx].take() {
            self.backing.insert(old_cid, old_tuple);
            self.spills += 1;
        }
        self.entries[idx] = Some((cid, tuple));
        self.open_count += 1;
        self.generation.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Closes a connection, removing it from cache and backing store.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::UnknownConnection`] if it was not open.
    pub fn close(&mut self, cid: ConnectionId) -> Result<()> {
        let idx = self.index(cid);
        if matches!(self.entries[idx], Some((c, _)) if c == cid) {
            self.entries[idx] = None;
            self.generation.fetch_add(1, Ordering::Release);
            return Ok(());
        }
        if self.backing.remove(&cid).is_some() {
            self.generation.fetch_add(1, Ordering::Release);
            return Ok(());
        }
        Err(DaggerError::UnknownConnection(cid.raw()))
    }

    /// Looks a connection up through one of the three read ports. A cache
    /// miss that hits the backing store promotes the tuple back into the
    /// cache (possibly spilling the conflicting resident).
    pub fn lookup(&mut self, port: CmPort, cid: ConnectionId) -> Option<ConnectionTuple> {
        let idx = self.index(cid);
        let p = Self::port_idx(port);
        if let Some((c, t)) = self.entries[idx] {
            if c == cid {
                self.stats[p].hits += 1;
                return Some(t);
            }
        }
        // Miss path: fault in from host memory.
        if let Some(&t) = self.backing.get(&cid) {
            self.stats[p].misses += 1;
            self.backing.remove(&cid);
            if let Some((old_cid, old_tuple)) = self.entries[idx].take() {
                self.backing.insert(old_cid, old_tuple);
                self.spills += 1;
            }
            self.entries[idx] = Some((cid, t));
            return Some(t);
        }
        self.stats[p].misses += 1;
        None
    }

    /// `true` if the connection is open (cache or backing store).
    pub fn contains(&self, cid: ConnectionId) -> bool {
        let idx = self.index(cid);
        matches!(self.entries[idx], Some((c, _)) if c == cid) || self.backing.contains_key(&cid)
    }

    /// Number of connections currently open.
    pub fn open_connections(&self) -> usize {
        self.entries.iter().flatten().count() + self.backing.len()
    }

    /// `(hits, misses)` for one read port.
    pub fn port_stats(&self, port: CmPort) -> (u64, u64) {
        let s = self.stats[Self::port_idx(port)];
        (s.hits, s.misses)
    }

    /// Number of cache→host spills so far.
    pub fn spills(&self) -> u64 {
        self.spills
    }

    /// Total connections ever opened.
    pub fn total_opened(&self) -> u64 {
        self.open_count
    }

    /// Plain-data snapshot of every CM statistic, for telemetry
    /// collectors.
    pub fn snapshot(&self) -> ConnMgrSnapshot {
        let port = |p: CmPort| {
            let s = self.stats[Self::port_idx(p)];
            PortSnapshot {
                hits: s.hits,
                misses: s.misses,
            }
        };
        ConnMgrSnapshot {
            open_connections: self.open_connections() as u64,
            total_opened: self.open_count,
            spills: self.spills,
            tx_port: port(CmPort::Tx),
            rx_port: port(CmPort::Rx),
            cm_port: port(CmPort::Cm),
        }
    }
}

/// `(hits, misses)` of one CM read port, as plain data.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PortSnapshot {
    /// Cache hits through this port.
    pub hits: u64,
    /// Cache misses (including backing-store faults) through this port.
    pub misses: u64,
}

/// Plain-data snapshot of the Connection Manager's statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnMgrSnapshot {
    /// Connections currently open (cache + backing store).
    pub open_connections: u64,
    /// Connections ever opened.
    pub total_opened: u64,
    /// Cache→host spills.
    pub spills: u64,
    /// TX-flow read port stats.
    pub tx_port: PortSnapshot,
    /// RX-flow read port stats.
    pub rx_port: PortSnapshot,
    /// CM bookkeeping read port stats.
    pub cm_port: PortSnapshot,
}

impl ConnMgrSnapshot {
    /// `(name, value)` of every exported statistic (`nic.<addr>.cm.*`) —
    /// the same walk a counter bank's snapshot offers.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
        [
            ("open_connections", self.open_connections),
            ("total_opened", self.total_opened),
            ("spills", self.spills),
            ("tx_port_hits", self.tx_port.hits),
            ("tx_port_misses", self.tx_port.misses),
            ("rx_port_hits", self.rx_port.hits),
            ("rx_port_misses", self.rx_port.misses),
        ]
        .into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(flow: u16, addr: u32) -> ConnectionTuple {
        ConnectionTuple {
            src_flow: FlowId(flow),
            dest_addr: NodeAddr(addr),
            lb: LbPolicy::Uniform,
        }
    }

    #[test]
    fn open_lookup_close() {
        let mut cm = ConnectionManager::new(16);
        cm.open(ConnectionId(5), tuple(1, 100)).unwrap();
        assert_eq!(cm.lookup(CmPort::Tx, ConnectionId(5)), Some(tuple(1, 100)));
        cm.close(ConnectionId(5)).unwrap();
        assert_eq!(cm.lookup(CmPort::Tx, ConnectionId(5)), None);
    }

    #[test]
    fn double_open_rejected() {
        let mut cm = ConnectionManager::new(16);
        cm.open(ConnectionId(5), tuple(1, 100)).unwrap();
        assert!(cm.open(ConnectionId(5), tuple(2, 200)).is_err());
    }

    #[test]
    fn close_unknown_errors() {
        let mut cm = ConnectionManager::new(16);
        assert_eq!(
            cm.close(ConnectionId(9)),
            Err(DaggerError::UnknownConnection(9))
        );
    }

    #[test]
    fn conflicting_connections_spill_and_fault_back() {
        let mut cm = ConnectionManager::new(4);
        // cids 1 and 5 collide in a 4-entry direct-mapped cache.
        cm.open(ConnectionId(1), tuple(1, 10)).unwrap();
        cm.open(ConnectionId(5), tuple(2, 20)).unwrap();
        assert_eq!(cm.spills(), 1);
        // Both remain reachable.
        assert_eq!(cm.lookup(CmPort::Rx, ConnectionId(5)), Some(tuple(2, 20)));
        assert_eq!(cm.lookup(CmPort::Rx, ConnectionId(1)), Some(tuple(1, 10)));
        // The second lookup was a miss (faulted back from host memory).
        let (hits, misses) = cm.port_stats(CmPort::Rx);
        assert_eq!((hits, misses), (1, 1));
        assert!(cm.spills() >= 2);
    }

    #[test]
    fn lookup_ports_tracked_independently() {
        let mut cm = ConnectionManager::new(8);
        cm.open(ConnectionId(3), tuple(0, 1)).unwrap();
        cm.lookup(CmPort::Tx, ConnectionId(3));
        cm.lookup(CmPort::Tx, ConnectionId(3));
        cm.lookup(CmPort::Rx, ConnectionId(3));
        cm.lookup(CmPort::Cm, ConnectionId(99));
        assert_eq!(cm.port_stats(CmPort::Tx), (2, 0));
        assert_eq!(cm.port_stats(CmPort::Rx), (1, 0));
        assert_eq!(cm.port_stats(CmPort::Cm), (0, 1));
    }

    #[test]
    fn many_connections_beyond_cache_capacity() {
        let mut cm = ConnectionManager::new(8);
        for i in 0..64u32 {
            cm.open(ConnectionId(i), tuple(i as u16, i * 10)).unwrap();
        }
        assert_eq!(cm.open_connections(), 64);
        // Every connection remains reachable despite an 8-entry cache.
        for i in 0..64u32 {
            assert_eq!(
                cm.lookup(CmPort::Tx, ConnectionId(i)),
                Some(tuple(i as u16, i * 10)),
                "cid {i}"
            );
        }
    }

    #[test]
    fn snapshot_aggregates_all_stats() {
        let mut cm = ConnectionManager::new(4);
        cm.open(ConnectionId(1), tuple(1, 10)).unwrap();
        cm.open(ConnectionId(5), tuple(2, 20)).unwrap(); // spills cid 1
        cm.lookup(CmPort::Tx, ConnectionId(5));
        cm.lookup(CmPort::Rx, ConnectionId(1)); // faults back in
        let s = cm.snapshot();
        assert_eq!(s.open_connections, 2);
        assert_eq!(s.total_opened, 2);
        assert!(s.spills >= 1);
        assert_eq!(s.tx_port, PortSnapshot { hits: 1, misses: 0 });
        assert_eq!(s.rx_port, PortSnapshot { hits: 0, misses: 1 });
        assert_eq!(s.cm_port, PortSnapshot::default());
    }

    #[test]
    fn generation_bumps_only_on_mutation() {
        let mut cm = ConnectionManager::new(8);
        let g0 = cm.generation();
        cm.open(ConnectionId(1), tuple(0, 1)).unwrap();
        let g1 = cm.generation();
        assert!(g1 > g0, "open must bump the generation");
        cm.lookup(CmPort::Tx, ConnectionId(1));
        cm.lookup(CmPort::Rx, ConnectionId(99));
        assert_eq!(cm.generation(), g1, "lookups must not bump it");
        assert!(cm.close(ConnectionId(99)).is_err());
        assert_eq!(cm.generation(), g1, "failed close must not bump it");
        cm.close(ConnectionId(1)).unwrap();
        assert!(cm.generation() > g1, "close must bump the generation");
    }

    #[test]
    fn close_removes_from_backing_store() {
        let mut cm = ConnectionManager::new(2);
        cm.open(ConnectionId(0), tuple(0, 0)).unwrap();
        cm.open(ConnectionId(2), tuple(1, 1)).unwrap(); // spills cid 0
        cm.close(ConnectionId(0)).unwrap();
        assert!(!cm.contains(ConnectionId(0)));
        assert_eq!(cm.open_connections(), 1);
    }
}
