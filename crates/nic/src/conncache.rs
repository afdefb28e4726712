//! Per-engine connection-tuple cache: the software analogue of the HCC
//! holding connection state next to the datapath (§4.4.1).
//!
//! The hardware NIC reads connection tuples from its coherent cache and
//! relies on invalidation messages when the host mutates the table; it
//! never takes a lock per frame. The software engine previously locked the
//! shared [`ConnectionManager`] mutex once per TX frame and once per RX
//! frame. This cache keeps a private `cid → tuple` map inside the engine
//! thread, stamped with the manager's mutation generation: the hot path is
//! a hash probe; the mutex is taken only on a miss, and any `open`/`close`
//! on the manager (which bumps the generation) atomically invalidates the
//! whole cache on the engine's next access — coherence via generation
//! rather than via sharing the lock.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use dagger_types::ConnectionId;

use crate::bank::counter_bank;
use crate::connmgr::{CmPort, ConnectionManager, ConnectionTuple};

/// Trivial hasher for `u32` connection ids: the id is already well mixed
/// (high bits = NIC address, low bits = counter), so SipHash is pure
/// overhead on the per-frame path.
#[derive(Debug, Default)]
pub struct U32IdentityHasher(u64);

impl Hasher for U32IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }

    fn write_u32(&mut self, v: u32) {
        // Spread the counter bits so sequential ids don't collide in the
        // low bucket bits after HashMap's power-of-two masking.
        self.0 = u64::from(v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_u64(&mut self, v: u64) {
        // Same multiplicative spread for u64 keys (the engine's
        // destination-and-queue staging index packs `addr << 16 | queue`).
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A `u32`-keyed map using the identity hasher; shared with the engine's
/// per-destination staging index, which has the same key profile.
pub type U32Map<V> = HashMap<u32, V, BuildHasherDefault<U32IdentityHasher>>;

/// A `u64`-keyed map using the identity hasher, for keys that pack two
/// small well-mixed values (destination address and queue).
pub type U64Map<V> = HashMap<u64, V, BuildHasherDefault<U32IdentityHasher>>;

type IdMap<V> = U32Map<V>;

counter_bank! {
    /// Shared hit/miss counters, exported (summed over the NIC's workers)
    /// as `nic.<addr>.conncache.*` gauges.
    pub struct ConnCacheStats =>
    /// A plain-data snapshot of [`ConnCacheStats`].
    ConnCacheSnapshot {
        /// Lookups served without touching the manager's mutex.
        hits,
        /// Lookups that had to lock the [`ConnectionManager`].
        misses,
        /// Whole-cache invalidations triggered by generation changes.
        invalidations,
    }
}

/// Engine-private tuple cache with generation-stamped invalidation.
#[derive(Debug)]
pub struct ConnTupleCache {
    map: IdMap<ConnectionTuple>,
    seen_gen: u64,
    generation: Arc<AtomicU64>,
    stats: Arc<ConnCacheStats>,
}

impl ConnTupleCache {
    /// Creates a cache watching `generation` (from
    /// [`ConnectionManager::generation_handle`]).
    pub fn new(generation: Arc<AtomicU64>) -> Self {
        ConnTupleCache {
            map: IdMap::default(),
            seen_gen: generation.load(Ordering::Acquire),
            generation,
            stats: Arc::new(ConnCacheStats::default()),
        }
    }

    /// Handle to the shared hit/miss counters (for telemetry export).
    pub fn shared_stats(&self) -> Arc<ConnCacheStats> {
        Arc::clone(&self.stats)
    }

    /// Drops every cached tuple if the manager mutated since the last
    /// access. Cheap (one atomic load) when nothing changed. Flushes of an
    /// already-empty map are not counted as invalidations.
    fn revalidate(&mut self) {
        let gen = self.generation.load(Ordering::Acquire);
        if gen != self.seen_gen {
            self.seen_gen = gen;
            if !self.map.is_empty() {
                // `clear` keeps the map's capacity: steady state stays
                // allocation-free even across reconnect storms.
                self.map.clear();
                self.stats.invalidations.inc();
            }
        }
    }

    /// Looks up `cid`, hitting the private map first and falling back to
    /// (and locking) the shared manager only on a miss. `port` attributes
    /// the miss to the right CM read port, preserving the 1W3R statistics.
    pub fn lookup(
        &mut self,
        cid: ConnectionId,
        port: CmPort,
        conn_mgr: &Mutex<ConnectionManager>,
    ) -> Option<ConnectionTuple> {
        self.revalidate();
        if let Some(&tuple) = self.map.get(&cid.raw()) {
            self.stats.hits.inc();
            return Some(tuple);
        }
        self.stats.misses.inc();
        let tuple = conn_mgr.lock().lookup(port, cid)?;
        self.map.insert(cid.raw(), tuple);
        Some(tuple)
    }

    /// Number of cached tuples (after revalidation).
    pub fn len(&mut self) -> usize {
        self.revalidate();
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagger_types::{FlowId, LbPolicy, NodeAddr};

    fn tuple(flow: u16, addr: u32) -> ConnectionTuple {
        ConnectionTuple {
            src_flow: FlowId(flow),
            dest_addr: NodeAddr(addr),
            lb: LbPolicy::Uniform,
        }
    }

    fn setup() -> (Mutex<ConnectionManager>, ConnTupleCache) {
        let cm = ConnectionManager::new(16);
        let gen = cm.generation_handle();
        (Mutex::new(cm), ConnTupleCache::new(gen))
    }

    #[test]
    fn second_lookup_skips_the_manager() {
        let (cm, mut cache) = setup();
        cm.lock().open(ConnectionId(7), tuple(1, 10)).unwrap();
        assert_eq!(
            cache.lookup(ConnectionId(7), CmPort::Tx, &cm),
            Some(tuple(1, 10))
        );
        assert_eq!(
            cache.lookup(ConnectionId(7), CmPort::Tx, &cm),
            Some(tuple(1, 10))
        );
        assert_eq!(cache.shared_stats().hits.get(), 1);
        assert_eq!(cache.shared_stats().misses.get(), 1);
        // Only the miss reached the manager's Tx port.
        assert_eq!(cm.lock().port_stats(CmPort::Tx), (1, 0));
    }

    #[test]
    fn stale_generation_misses_after_close_and_reopen() {
        let (cm, mut cache) = setup();
        cm.lock().open(ConnectionId(7), tuple(1, 10)).unwrap();
        assert_eq!(
            cache.lookup(ConnectionId(7), CmPort::Tx, &cm),
            Some(tuple(1, 10))
        );

        // Close: the cached tuple must not survive the generation bump.
        cm.lock().close(ConnectionId(7)).unwrap();
        assert_eq!(cache.lookup(ConnectionId(7), CmPort::Tx, &cm), None);
        assert_eq!(cache.shared_stats().invalidations.get(), 1);

        // Re-open with a *different* tuple: the cache must serve the new
        // one, never the stale pre-close value. (The map was already empty,
        // so no further invalidation is counted.)
        cm.lock().open(ConnectionId(7), tuple(9, 99)).unwrap();
        assert_eq!(
            cache.lookup(ConnectionId(7), CmPort::Rx, &cm),
            Some(tuple(9, 99))
        );
        assert_eq!(cache.shared_stats().invalidations.get(), 1);
    }

    #[test]
    fn unrelated_mutation_invalidates_but_refills() {
        let (cm, mut cache) = setup();
        cm.lock().open(ConnectionId(1), tuple(1, 10)).unwrap();
        assert_eq!(
            cache.lookup(ConnectionId(1), CmPort::Tx, &cm),
            Some(tuple(1, 10))
        );
        cm.lock().open(ConnectionId(2), tuple(2, 20)).unwrap();
        // Coarse-grained coherence: any mutation flushes, then refills.
        assert_eq!(
            cache.lookup(ConnectionId(1), CmPort::Tx, &cm),
            Some(tuple(1, 10))
        );
        assert_eq!(cache.shared_stats().misses.get(), 2);
        assert_eq!(
            cache.lookup(ConnectionId(1), CmPort::Tx, &cm),
            Some(tuple(1, 10))
        );
        assert_eq!(cache.shared_stats().hits.get(), 1);
    }

    #[test]
    fn negative_lookups_are_not_cached() {
        let (cm, mut cache) = setup();
        assert_eq!(cache.lookup(ConnectionId(42), CmPort::Rx, &cm), None);
        assert_eq!(cache.lookup(ConnectionId(42), CmPort::Rx, &cm), None);
        assert_eq!(cache.shared_stats().misses.get(), 2);
        assert!(cache.is_empty());
    }
}
