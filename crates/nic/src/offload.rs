//! The on-NIC compute offload stage: NIC-side serde and a hot-key
//! response cache (DESIGN.md §18, paper §5.6 "near-memory offloads").
//!
//! Once an [`OffloadSpec`] is installed ([`OffloadState::configure`]), the
//! engine consults this module on both sides of the datapath:
//!
//! - **RX** ([`OffloadState::rx_request`], over
//!   [`OffloadState::on_read_rx`] / [`OffloadState::on_write_rx`]): the lead
//!   frame of a request whose `fn_id` carries a cache annotation is decoded
//!   *on the NIC* with the function's zero-copy serde table. A cacheable read
//!   that hits is answered with response lines built here from the stored
//!   bytes — the engine only ships them, and the server core never wakes. A
//!   write invalidates the key before the store ever sees it.
//! - **TX** ([`OffloadState::tx_response`], over
//!   [`OffloadState::on_response_tx`]): response frames leaving the NIC fill
//!   the cache (reads) or complete the invalidation protocol (writes).
//!
//! The engine hands both entry points the frame and the value of the
//! `offload_cache_entries` soft register; the gate (a spec is installed),
//! the spec lookup, the bypass rules and key extraction all live here.
//!
//! # Coherence: bump and remove, twice
//!
//! Every key hashes to one of [`GEN_SLOTS`] generation counters. A write
//! invalidates its key **twice** — once when the request enters the NIC
//! (RX) and once when the acknowledgment leaves it (TX). Each invalidation
//! bumps the key's generation, then removes the key's entries (one per
//! cacheable read function) from every queue's cache. A fill latches only
//! if the generation is still the one its read saw on arrival, checked and
//! inserted under its queue's cache lock. The two invalidations bracket the
//! store mutation, so:
//!
//! - any entry filled *before* a write's RX bump is removed the moment the
//!   write arrives — a hit can never return a value from before a write
//!   that has already reached the NIC;
//! - any read that raced the mutation (arrived after RX bump, responded
//!   before TX bump) either sees a moved generation at fill time and is
//!   dropped, or latched before the TX bump and is removed by it — the
//!   cache never keeps a value of ambiguous vintage.
//!
//! Therefore a hit always returns a value at least as new as the last
//! *acknowledged* write, which is the strongest claim a client can check.
//! Removal is exact: a key that shares its slot with a written one loses
//! only the fills in flight across the write. A write whose key cannot be
//! extracted on the NIC (key split across frames) falls back to bumping a
//! global epoch, flushing the whole cache lazily: a hit checks the epoch
//! alone, and drops an entry latched under an older one.
//!
//! Caches are per engine queue (like the connection cache), so a hit locks
//! only its own queue's cache; a write locks each queue's once per
//! invalidation. Entries a write removes, and epoch-stale entries found at
//! lookup, count `stale_drops`.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use dagger_telemetry::{FlightEventKind, FlightRecorder, FLIGHT_ALL_NODES};
use dagger_types::offload::{CacheClass, OffloadSpec};
use dagger_types::{CacheLine, ConnectionId, FnId, RpcHeader, RpcId, RpcKind, FRAME_PAYLOAD_BYTES};
use parking_lot::Mutex;

use crate::bank::counter_bank;
use crate::bufpool::BufPool;
use crate::lb::fnv1a;

/// Number of per-key generation counters. A power of two; collisions only
/// cost spurious invalidations, never staleness.
pub const GEN_SLOTS: usize = 1024;

/// Bound on in-flight fill trackers. When full, new misses are simply not
/// tracked (they stay misses; the host serves them) — backpressure, not
/// growth.
pub const PENDING_CAP: usize = 4096;

/// Largest response payload (status byte + wire bytes) the cache stores.
/// Eight frames' worth — hot KVS values are small; big responses are the
/// host's business.
pub const MAX_CACHED_BYTES: usize = 8 * dagger_types::FRAME_PAYLOAD_BYTES;

counter_bank! {
    /// Counters of the offload stage, one bank per NIC (the stage is shared
    /// by every worker); exported as `nic.<addr>.offload.*`.
    pub struct OffloadStats =>
    /// Point-in-time copy of [`OffloadStats`].
    OffloadSnapshot {
        /// Cacheable reads served from the NIC without waking the host.
        hits,
        /// Cacheable reads that went to the host (includes stale drops).
        misses,
        /// Responses latched into the cache on TX.
        fills,
        /// Writes that invalidated a key (or the whole cache via the epoch).
        invalidations,
        /// Entries evicted by the LRU capacity bound.
        evictions,
        /// Entries a write removed, plus entries a lookup found latched
        /// under an older epoch.
        stale_drops,
        /// Offload-annotated requests the stage refused to classify
        /// (traced, multi-frame reads, or undecodable lead frames).
        bypass,
    }
}

/// A cached response: the exact status-prefixed payload bytes the host
/// produced, plus the epoch under which they were latched. A read's fill
/// obligation accumulates one of these in a `Vec` as its response leaves;
/// the fill freezes the bytes into an `Arc`, which every hit then shares
/// instead of copying.
#[derive(Debug)]
struct Entry<P = Arc<[u8]>> {
    fn_id: FnId,
    key: Vec<u8>,
    payload: P,
    epoch: u64,
    stamp: u64,
}

/// One queue's hot-key cache: a hash map plus a lazily-compacted recency
/// list (the same idiom as the endpoint's abandoned-RPC ledger — stale
/// stamps are skipped at eviction time instead of being unlinked eagerly).
#[derive(Debug, Default)]
struct ResponseCache {
    entries: HashMap<u64, Entry>,
    recency: VecDeque<(u64, u64)>,
    clock: u64,
}

impl ResponseCache {
    /// Records a use of `hash` and returns its new stamp. Once the deque
    /// holds `2 × entries + 16` records it first keeps only the live ones
    /// (each entry's current stamp), so hits without evictions cannot grow
    /// it without bound.
    fn touch(&mut self, hash: u64) -> u64 {
        if self.recency.len() >= 2 * self.entries.len() + 16 {
            let entries = &self.entries;
            self.recency
                .retain(|(h, stamp)| entries.get(h).is_some_and(|e| e.stamp == *stamp));
        }
        self.clock += 1;
        self.recency.push_back((hash, self.clock));
        self.clock
    }

    /// Pops least-recently-used entries until at most `cap - 1` remain,
    /// making room for one insertion. Returns the number evicted.
    fn make_room(&mut self, cap: usize) -> u64 {
        let mut evicted = 0;
        while self.entries.len() >= cap {
            match self.recency.pop_front() {
                Some((hash, stamp)) => {
                    if self.entries.get(&hash).is_some_and(|e| e.stamp == stamp) {
                        self.entries.remove(&hash);
                        evicted += 1;
                    }
                }
                None => break,
            }
        }
        evicted
    }
}

/// An in-flight coherence obligation, keyed by `(connection, rpc)` so the
/// response can be matched on TX.
#[derive(Debug)]
enum Pending {
    /// A cacheable read that missed: accumulate its response frames into
    /// `entry.payload` and fill the cache if no write intervened (`gen` is
    /// the generation of key hash `kh`'s slot at the read's arrival).
    Read {
        queue: usize,
        kh: u64,
        gen: u64,
        next_frame: u8,
        entry: Entry<Vec<u8>>,
    },
    /// A write awaiting its acknowledgment: the TX-side (second)
    /// invalidation of the key whose `fnv1a` is `key` (`None`: the epoch).
    Write { key: Option<u64> },
}

/// Shared state of the offload stage: the installed spec, the coherence
/// counters, one response cache per engine queue, and the fill tracker.
#[derive(Debug)]
pub struct OffloadState {
    spec: OnceLock<OffloadSpec>,
    gens: Vec<AtomicU64>,
    epoch: AtomicU64,
    queues: Vec<Mutex<ResponseCache>>,
    pending: Mutex<HashMap<(ConnectionId, RpcId), Pending>>,
    pending_hint: AtomicUsize,
    stats: OffloadStats,
    flight: OnceLock<(Arc<FlightRecorder>, u32)>,
}

/// Combines the function id into the key hash `kh` (`fnv1a` of the key) so
/// distinct read RPCs over the same key bytes cache independently.
/// Generation slots deliberately hash the key *alone*: a write to a key
/// invalidates it across functions.
fn entry_hash(kh: u64, fn_id: FnId) -> u64 {
    kh ^ (u64::from(fn_id.raw())).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn gen_slot(kh: u64) -> usize {
    kh as usize & (GEN_SLOTS - 1)
}

/// Appends the response frames of a cache hit on `req` to `lines`. The
/// header mirrors the request's identifiers (so the client's reassembler and
/// completion matching work unchanged); the `offloaded` bit marks the
/// response as NIC-served for endpoint accounting.
fn hit_lines(req: &RpcHeader, payload: &[u8], mut lines: Vec<CacheLine>) -> Vec<CacheLine> {
    debug_assert!(!payload.is_empty(), "cached payloads carry a status byte");
    let frame_count = payload.len().div_ceil(FRAME_PAYLOAD_BYTES);
    for (idx, chunk) in payload.chunks(FRAME_PAYLOAD_BYTES).enumerate() {
        let hdr = RpcHeader {
            kind: RpcKind::Response,
            frame_idx: idx as u8,
            frame_count: frame_count as u8,
            frame_payload_len: chunk.len() as u8,
            traced: false,
            offloaded: true,
            ..*req
        };
        let mut line = CacheLine::zeroed();
        hdr.encode(line.header_mut());
        line.payload_mut()[..chunk.len()].copy_from_slice(chunk);
        lines.push(line);
    }
    lines
}

impl OffloadState {
    /// Creates the stage for a NIC with `num_queues` engine queues.
    pub fn new(num_queues: usize) -> Self {
        OffloadState {
            spec: OnceLock::new(),
            gens: (0..GEN_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            epoch: AtomicU64::new(0),
            queues: (0..num_queues).map(|_| Mutex::default()).collect(),
            pending: Mutex::new(HashMap::new()),
            pending_hint: AtomicUsize::new(0),
            stats: OffloadStats::default(),
            flight: OnceLock::new(),
        }
    }

    /// Installs the serde/cache tables. One-shot, like connection open: the
    /// spec is immutable once the datapath may be consulting it.
    pub fn configure(&self, spec: OffloadSpec) -> bool {
        self.spec.set(spec).is_ok()
    }

    /// The installed spec, if any.
    pub fn spec(&self) -> Option<&OffloadSpec> {
        self.spec.get()
    }

    /// Attaches the flight recorder (as NIC node `node`) for invalidation
    /// and staleness events. One-shot, set at NIC start.
    pub fn install_flight(&self, flight: Arc<FlightRecorder>, node: u32) {
        let _ = self.flight.set((flight, node));
    }

    /// The stage's counters.
    pub fn stats(&self) -> &OffloadStats {
        &self.stats
    }

    fn record(&self, kind: FlightEventKind, a: u64, b: u64) {
        if let Some((flight, node)) = self.flight.get() {
            flight.record(kind, *node, a, b);
        }
    }

    /// The RX entry point: one received frame on `queue`, with the value of
    /// the `offload_cache_entries` (`cap`) soft register. Returns the
    /// response lines of a read served from `queue`'s cache (drawn from
    /// `pool`); the request then goes no further. `None` sends the frame on
    /// to the host — invalidated first, if it is a write.
    ///
    /// Without an installed spec nothing is classified. Only request lead
    /// frames of annotated functions are classified. The key is extracted
    /// when the lead frame holds it whole and untraced (a traced payload
    /// starts with a trace-context prelude the serde table does not cover);
    /// a write without one flushes the whole cache through the epoch. A
    /// read is looked up only if it is single-frame, its body validates and
    /// it yields a key (the table describes the request alone); any other
    /// read counts `bypass`.
    pub(crate) fn rx_request(
        &self,
        hdr: &RpcHeader,
        line: &CacheLine,
        queue: usize,
        cap: usize,
        pool: &mut BufPool,
    ) -> Option<Vec<CacheLine>> {
        if hdr.kind != RpcKind::Request || hdr.frame_idx != 0 {
            return None;
        }
        let fo = self.spec()?.get(hdr.fn_id)?;
        let payload = &line.payload()[..usize::from(hdr.frame_payload_len)];
        let range = if hdr.traced {
            None
        } else {
            fo.req_table.field_range(payload, fo.class.key_field())
        };
        let key = range.map(|r| &payload[r]);
        if let CacheClass::Write { .. } = fo.class {
            self.on_write_rx(hdr.connection_id, hdr.rpc_id, key);
            return None;
        }
        let Some(key) = key.filter(|_| hdr.frame_count == 1 && fo.req_table.validate(payload))
        else {
            self.stats.bypass.inc();
            return None;
        };
        if cap == 0 {
            // Cache disabled: pure host path, no miss accounting.
            return None;
        }
        let cached = self.on_read_rx(queue, hdr.fn_id, hdr.connection_id, hdr.rpc_id, key, cap)?;
        Some(hit_lines(hdr, &cached, pool.get_lines()))
    }

    /// The TX entry point: one frame leaving the NIC. Once a spec is
    /// installed, a response completes its read's fill or its write's
    /// second invalidation ([`Self::on_response_tx`]).
    pub(crate) fn tx_response(&self, hdr: &RpcHeader, line: &CacheLine, cap: usize) {
        if self.spec.get().is_some() && hdr.kind == RpcKind::Response {
            self.on_response_tx(
                hdr.connection_id,
                hdr.rpc_id,
                hdr.frame_idx,
                hdr.frame_count,
                &line.payload()[..usize::from(hdr.frame_payload_len)],
                cap,
            );
        }
    }

    /// A cacheable read's lead frame arrived on `queue`. Returns the cached
    /// status-prefixed response payload on a hit (shared with the cache,
    /// not copied); on a miss, registers a fill obligation (best effort,
    /// bounded) and returns `None` so the request continues to the host.
    pub fn on_read_rx(
        &self,
        queue: usize,
        fn_id: FnId,
        cid: ConnectionId,
        rpc_id: RpcId,
        key: &[u8],
        cap: usize,
    ) -> Option<Arc<[u8]>> {
        let kh = fnv1a(key);
        let (slot, hash) = (gen_slot(kh), entry_hash(kh, fn_id));
        // Stamps first: a hit must be validated against counters read no
        // earlier than the request's arrival.
        let gen = self.gens[slot].load(Ordering::Acquire);
        let epoch = self.epoch.load(Ordering::Acquire);
        {
            let mut cache = self.queues[queue].lock();
            match cache.entries.get(&hash) {
                Some(e) if e.epoch == epoch && e.fn_id == fn_id && e.key == key => {
                    let payload = Arc::clone(&e.payload);
                    let stamp = cache.touch(hash);
                    cache.entries.get_mut(&hash).expect("just read").stamp = stamp;
                    drop(cache);
                    self.stats.hits.inc();
                    return Some(payload);
                }
                Some(e) if e.fn_id == fn_id && e.key == key => {
                    cache.entries.remove(&hash);
                    drop(cache);
                    self.stats.stale_drops.inc();
                    self.record(FlightEventKind::OffloadStale, kh, epoch);
                }
                // Hash collision with a different key, or cold: miss.
                Some(_) | None => {}
            }
        }
        self.stats.misses.inc();
        if cap > 0 {
            let mut pending = self.pending.lock();
            if pending.len() < PENDING_CAP {
                let inserted = pending
                    .insert(
                        (cid, rpc_id),
                        Pending::Read {
                            queue,
                            kh,
                            gen,
                            next_frame: 0,
                            entry: Entry {
                                fn_id,
                                key: key.to_vec(),
                                payload: Vec::new(),
                                epoch,
                                stamp: 0,
                            },
                        },
                    )
                    .is_none();
                if inserted {
                    self.pending_hint.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        None
    }

    /// A cache-invalidating write's lead frame arrived. `key` is the key
    /// bytes when the NIC could extract them from the lead frame; `None`
    /// falls back to the epoch (whole-cache) flush. Either way the write
    /// continues to the host; its acknowledgment completes the protocol in
    /// [`Self::on_response_tx`].
    pub fn on_write_rx(&self, cid: ConnectionId, rpc_id: RpcId, key: Option<&[u8]>) {
        let key = key.map(fnv1a);
        let count = self.invalidate(key);
        match key {
            Some(kh) => self.record(FlightEventKind::OffloadInvalidate, kh, count),
            None => self.record(FlightEventKind::OffloadInvalidate, 0, FLIGHT_ALL_NODES),
        }
        self.stats.invalidations.inc();
        // Tracked even when fills have filled the tracker: only the TX
        // invalidation removes a read that arrived after the RX one.
        let mut pending = self.pending.lock();
        if pending
            .insert((cid, rpc_id), Pending::Write { key })
            .is_none()
        {
            self.pending_hint.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One invalidation of a write whose key hashes to `key`: bumps the
    /// key's generation, then removes its entries from every queue's cache,
    /// one per cacheable read function. `None` bumps the epoch instead,
    /// which every hit checks. Returns the bumped counter's new value.
    fn invalidate(&self, key: Option<u64>) -> u64 {
        let Some(kh) = key else {
            return self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        };
        let gen = self.gens[gen_slot(kh)].fetch_add(1, Ordering::AcqRel) + 1;
        let fns = self.spec.get().map_or(&[][..], OffloadSpec::fns);
        for queue in &self.queues {
            let mut cache = queue.lock();
            let removed = fns
                .iter()
                .filter(|f| matches!(f.class, CacheClass::Read { .. }))
                .filter(|f| cache.entries.remove(&entry_hash(kh, f.fn_id)).is_some())
                .count();
            drop(cache);
            for _ in 0..removed {
                self.stats.stale_drops.inc();
                self.record(FlightEventKind::OffloadStale, kh, gen);
            }
        }
        gen
    }

    /// A response frame is leaving the NIC. Completes fill obligations
    /// (reads) and issues the second invalidation (writes). `chunk` is
    /// the frame's used payload bytes.
    pub fn on_response_tx(
        &self,
        cid: ConnectionId,
        rpc_id: RpcId,
        frame_idx: u8,
        frame_count: u8,
        chunk: &[u8],
        cap: usize,
    ) {
        if self.pending_hint.load(Ordering::Relaxed) == 0 {
            return;
        }
        let last = frame_idx + 1 == frame_count;
        let mut pending = self.pending.lock();
        let Some(entry) = pending.get_mut(&(cid, rpc_id)) else {
            return;
        };
        match entry {
            Pending::Write { key } => {
                if last {
                    let key = *key;
                    pending.remove(&(cid, rpc_id));
                    self.pending_hint.fetch_sub(1, Ordering::Relaxed);
                    drop(pending);
                    self.invalidate(key);
                }
            }
            Pending::Read {
                entry, next_frame, ..
            } => {
                let buf = &mut entry.payload;
                if frame_idx != *next_frame || buf.len() + chunk.len() > MAX_CACHED_BYTES {
                    // Out-of-order retransmit or oversized response: give up
                    // on this fill (the host still answers the client).
                    pending.remove(&(cid, rpc_id));
                    self.pending_hint.fetch_sub(1, Ordering::Relaxed);
                    return;
                }
                buf.extend_from_slice(chunk);
                *next_frame += 1;
                if last {
                    let Some(Pending::Read {
                        queue,
                        kh,
                        gen,
                        entry,
                        ..
                    }) = pending.remove(&(cid, rpc_id))
                    else {
                        unreachable!("matched Read above");
                    };
                    self.pending_hint.fetch_sub(1, Ordering::Relaxed);
                    drop(pending);
                    self.fill(queue, kh, gen, entry, cap);
                }
            }
        }
    }

    /// Latches a completed read response, unless a write raced it.
    fn fill(&self, queue: usize, kh: u64, gen: u64, entry: Entry<Vec<u8>>, cap: usize) {
        let payload = &entry.payload;
        if cap == 0 {
            return;
        }
        // Application-level failures (status byte != OK) are not cached.
        if payload.first() != Some(&0) {
            return;
        }
        // The response body must decode with the function's table — a
        // response the NIC cannot re-validate is not one it should replay.
        let valid = self
            .spec
            .get()
            .and_then(|s| s.get(entry.fn_id))
            .is_some_and(|f| f.resp_table.validate(&payload[1..]));
        if !valid {
            return;
        }
        let Entry {
            fn_id,
            key,
            payload,
            epoch,
            ..
        } = entry;
        let payload = Arc::from(payload);
        // The race check, under the queue's lock: if either counter moved
        // since the read arrived, a write bracketed this response — drop
        // the fill. A write that bumps after the check finds the new entry
        // and removes it.
        let mut cache = self.queues[queue].lock();
        if self.gens[gen_slot(kh)].load(Ordering::Acquire) != gen
            || self.epoch.load(Ordering::Acquire) != epoch
        {
            return;
        }
        let hash = entry_hash(kh, fn_id);
        let evicted = cache.make_room(cap);
        let stamp = cache.touch(hash);
        let entry = Entry {
            fn_id,
            key,
            payload,
            epoch,
            stamp,
        };
        cache.entries.insert(hash, entry);
        drop(cache);
        if evicted > 0 {
            self.stats.evictions.add(evicted);
        }
        self.stats.fills.inc();
    }

    /// Total entries currently cached across all queues (test/monitor aid).
    pub fn cached_entries(&self) -> usize {
        self.queues.iter().map(|q| q.lock().entries.len()).sum()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Function 1 reads (key: its one field), function 2 writes.
    pub(crate) fn read_spec() -> OffloadSpec {
        use dagger_types::offload::{CacheClass, FnOffload, SerdeOp, SerdeTable};
        OffloadSpec::new(vec![
            FnOffload {
                fn_id: FnId(1),
                class: CacheClass::read(0),
                req_table: SerdeTable::new(vec![SerdeOp::Var]),
                resp_table: SerdeTable::new(vec![SerdeOp::Fixed(1), SerdeOp::Var]),
            },
            FnOffload {
                fn_id: FnId(2),
                class: CacheClass::write(0),
                req_table: SerdeTable::new(vec![SerdeOp::Var, SerdeOp::Var]),
                resp_table: SerdeTable::new(vec![SerdeOp::Fixed(1)]),
            },
        ])
    }

    /// `status=OK` + wire-encoded `{found: bool, value: bytes}`.
    fn ok_response(value: &[u8]) -> Vec<u8> {
        let mut buf = vec![0u8, 1];
        buf.extend_from_slice(&(value.len() as u32).to_le_bytes());
        buf.extend_from_slice(value);
        buf
    }

    fn state() -> OffloadState {
        let s = OffloadState::new(2);
        assert!(s.configure(read_spec()));
        s
    }

    #[test]
    fn miss_fill_hit_roundtrip() {
        let s = state();
        let (cid, rid) = (ConnectionId(7), RpcId(1));
        assert!(s.on_read_rx(0, FnId(1), cid, rid, b"k", 8).is_none());
        let resp = ok_response(b"v1");
        s.on_response_tx(cid, rid, 0, 1, &resp, 8);
        let hit = s
            .on_read_rx(0, FnId(1), cid, RpcId(2), b"k", 8)
            .expect("filled entry must hit");
        assert_eq!(*hit, *resp);
        let snap = s.stats().snapshot();
        assert_eq!((snap.hits, snap.misses, snap.fills), (1, 1, 1));
    }

    #[test]
    fn write_rx_bump_invalidates_before_store_sees_it() {
        let s = state();
        let (cid, rid) = (ConnectionId(7), RpcId(1));
        assert!(s.on_read_rx(0, FnId(1), cid, rid, b"k", 8).is_none());
        s.on_response_tx(cid, rid, 0, 1, &ok_response(b"old"), 8);
        // A SET for the same key arrives: first bump.
        s.on_write_rx(cid, RpcId(2), Some(b"k"));
        assert!(
            s.on_read_rx(0, FnId(1), cid, RpcId(3), b"k", 8).is_none(),
            "entry filled before the write must not hit"
        );
        assert_eq!(s.stats().snapshot().stale_drops, 1);
    }

    #[test]
    fn racing_fill_is_dropped_by_second_bump() {
        let s = state();
        let (cid, get) = (ConnectionId(7), RpcId(1));
        // GET arrives...
        assert!(s.on_read_rx(0, FnId(1), cid, get, b"k", 8).is_none());
        // ...then a SET for the same key arrives (first bump) and is acked
        // (second bump)...
        s.on_write_rx(cid, RpcId(2), Some(b"k"));
        s.on_response_tx(cid, RpcId(2), 0, 1, &[0, 1], 8);
        // ...then the GET's (possibly pre-mutation) response leaves: the
        // fill must be abandoned.
        s.on_response_tx(cid, get, 0, 1, &ok_response(b"???"), 8);
        assert_eq!(s.stats().snapshot().fills, 0);
        assert_eq!(s.cached_entries(), 0);
    }

    #[test]
    fn keyless_write_flushes_via_epoch() {
        let s = state();
        let cid = ConnectionId(7);
        assert!(s.on_read_rx(0, FnId(1), cid, RpcId(1), b"k", 8).is_none());
        s.on_response_tx(cid, RpcId(1), 0, 1, &ok_response(b"v"), 8);
        s.on_write_rx(cid, RpcId(2), None); // key not extractable
        assert!(
            s.on_read_rx(0, FnId(1), cid, RpcId(3), b"k", 8).is_none(),
            "epoch bump must flush every key"
        );
    }

    #[test]
    fn lru_bound_evicts_oldest() {
        let s = state();
        let cid = ConnectionId(7);
        for i in 0u32..3 {
            let rid = RpcId(i);
            let key = i.to_le_bytes();
            assert!(s.on_read_rx(0, FnId(1), cid, rid, &key, 2).is_none());
            s.on_response_tx(cid, rid, 0, 1, &ok_response(&key), 2);
        }
        assert_eq!(s.cached_entries(), 2);
        assert_eq!(s.stats().snapshot().evictions, 1);
        // Key 0 was least recently used and must be gone; key 2 present.
        assert!(s
            .on_read_rx(0, FnId(1), cid, RpcId(10), &0u32.to_le_bytes(), 2)
            .is_none());
        assert!(s
            .on_read_rx(0, FnId(1), cid, RpcId(11), &2u32.to_le_bytes(), 2)
            .is_some());
    }

    #[test]
    fn error_status_and_invalid_bodies_are_not_cached() {
        let s = state();
        let cid = ConnectionId(7);
        assert!(s.on_read_rx(0, FnId(1), cid, RpcId(1), b"a", 8).is_none());
        s.on_response_tx(cid, RpcId(1), 0, 1, &[1, 0xEE], 8); // status != OK
        assert!(s.on_read_rx(0, FnId(1), cid, RpcId(2), b"b", 8).is_none());
        s.on_response_tx(cid, RpcId(2), 0, 1, &[0, 9, 9], 8); // undecodable body
        assert_eq!(s.stats().snapshot().fills, 0);
    }

    #[test]
    fn multi_frame_responses_accumulate_in_order() {
        let s = state();
        let cid = ConnectionId(7);
        let resp = ok_response(&[0xAB; 60]);
        assert!(s.on_read_rx(0, FnId(1), cid, RpcId(1), b"big", 8).is_none());
        let (a, b) = resp.split_at(48);
        s.on_response_tx(cid, RpcId(1), 0, 2, a, 8);
        s.on_response_tx(cid, RpcId(1), 1, 2, b, 8);
        assert_eq!(
            *s.on_read_rx(0, FnId(1), cid, RpcId(2), b"big", 8).unwrap(),
            *resp
        );
        // A duplicated (retransmitted) middle frame kills a fill instead of
        // corrupting it.
        assert!(s
            .on_read_rx(0, FnId(1), cid, RpcId(3), b"big2", 8)
            .is_none());
        s.on_response_tx(cid, RpcId(3), 0, 2, a, 8);
        s.on_response_tx(cid, RpcId(3), 0, 2, a, 8);
        s.on_response_tx(cid, RpcId(3), 1, 2, b, 8);
        assert_eq!(s.stats().snapshot().fills, 1);
    }

    #[test]
    fn queues_cache_independently_but_share_invalidation() {
        let s = state();
        let cid = ConnectionId(7);
        assert!(s.on_read_rx(0, FnId(1), cid, RpcId(1), b"k", 8).is_none());
        s.on_response_tx(cid, RpcId(1), 0, 1, &ok_response(b"v"), 8);
        // Queue 1 has its own cache: cold.
        assert!(s.on_read_rx(1, FnId(1), cid, RpcId(2), b"k", 8).is_none());
        // But a write invalidates both.
        s.on_write_rx(cid, RpcId(3), Some(b"k"));
        assert!(s.on_read_rx(0, FnId(1), cid, RpcId(4), b"k", 8).is_none());
    }

    /// Misses `key` on `queue` and fills it with `value`.
    fn warm(s: &OffloadState, queue: usize, rpc: u32, key: &[u8], value: &[u8], cap: usize) {
        let cid = ConnectionId(7);
        assert!(s
            .on_read_rx(queue, FnId(1), cid, RpcId(rpc), key, cap)
            .is_none());
        s.on_response_tx(cid, RpcId(rpc), 0, 1, &ok_response(value), cap);
    }

    #[test]
    fn a_set_leaves_a_slot_sharing_key_hitting() {
        let s = state();
        let a = b"k".to_vec();
        let slot = gen_slot(fnv1a(&a));
        let b = (0u32..)
            .map(|i| i.to_le_bytes().to_vec())
            .find(|k| gen_slot(fnv1a(k)) == slot)
            .unwrap();
        warm(&s, 0, 1, &a, b"va", 8);
        warm(&s, 1, 2, &b, b"vb", 8);
        let cid = ConnectionId(7);
        s.on_write_rx(cid, RpcId(3), Some(&a));
        s.on_response_tx(cid, RpcId(3), 0, 1, &[0, 1], 8);
        assert!(
            s.on_read_rx(1, FnId(1), cid, RpcId(4), &b, 8).is_some(),
            "a SET to another key of the same slot removed this one"
        );
        assert!(s.on_read_rx(0, FnId(1), cid, RpcId(5), &a, 8).is_none());
        // The RX invalidation removed the written key's one entry; the TX
        // one found nothing left to remove.
        assert_eq!(s.stats().snapshot().stale_drops, 1);
    }

    #[test]
    fn hits_without_evictions_keep_the_recency_deque_bounded() {
        let s = state();
        let cid = ConnectionId(7);
        let records = |s: &OffloadState| {
            let cache = s.queues[0].lock();
            (cache.recency.len(), cache.entries.len())
        };
        warm(&s, 0, 0, b"k", b"v", 8);
        for rpc in 1..=100_000 {
            assert!(s.on_read_rx(0, FnId(1), cid, RpcId(rpc), b"k", 8).is_some());
        }
        let (len, entries) = records(&s);
        assert!(
            len <= 2 * entries + 16,
            "{len} records for {entries} entries"
        );
        // Compaction keeps the live stamps in order: with the cache full,
        // the next fill evicts the least recently used key, not "k".
        for i in 1u32..8 {
            warm(&s, 0, 100_000 + i, &i.to_le_bytes(), b"v", 8);
        }
        for rpc in 0..100 {
            assert!(s.on_read_rx(0, FnId(1), cid, RpcId(rpc), b"k", 8).is_some());
        }
        let (len, entries) = records(&s);
        assert!(
            len <= 2 * entries + 16,
            "{len} records for {entries} entries"
        );
        warm(&s, 0, 200_000, &8u32.to_le_bytes(), b"v", 8);
        assert_eq!(s.stats().snapshot().evictions, 1);
        assert!(s.on_read_rx(0, FnId(1), cid, RpcId(1), b"k", 8).is_some());
        assert!(s
            .on_read_rx(0, FnId(1), cid, RpcId(2), &1u32.to_le_bytes(), 8)
            .is_none());
    }

    /// Fills and SETs race on one key through two queues' caches; no hit
    /// may return a value older than the last acknowledged SET. The
    /// "host" answers a miss with the store's value when it reads it, and
    /// `RUST_SEED` varies where the writer pauses.
    #[test]
    fn racing_fills_and_sets_never_serve_a_value_older_than_the_last_ack() {
        use std::sync::atomic::AtomicBool;
        const WRITES: u32 = 50_000;
        let seed: u64 = std::env::var("RUST_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0xDA66E4);
        let s = state();
        let (store, acked, done) = (AtomicU64::new(0), AtomicU64::new(0), AtomicBool::new(false));
        let hits: u64 = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2usize)
                .map(|queue| {
                    let (s, store, acked, done) = (&s, &store, &acked, &done);
                    scope.spawn(move || {
                        let cid = ConnectionId(100 + queue as u32);
                        let mut hits = 0u64;
                        for rpc in 0u32.. {
                            if done.load(Ordering::Acquire) {
                                break;
                            }
                            let floor = acked.load(Ordering::SeqCst);
                            match s.on_read_rx(queue, FnId(1), cid, RpcId(rpc), b"k", 8) {
                                Some(hit) => {
                                    let v = u64::from_le_bytes(hit[6..].try_into().unwrap());
                                    assert!(
                                        v >= floor,
                                        "RUST_SEED={seed}: queue {queue} served version {v} \
                                         after SET {floor} was acknowledged"
                                    );
                                    hits += 1;
                                    std::thread::yield_now();
                                }
                                None => {
                                    let v = store.load(Ordering::SeqCst).to_le_bytes();
                                    s.on_response_tx(cid, RpcId(rpc), 0, 1, &ok_response(&v), 8);
                                }
                            }
                        }
                        hits
                    })
                })
                .collect();
            let (cid, mut rng) = (ConnectionId(9), seed);
            for v in 1..=WRITES {
                s.on_write_rx(cid, RpcId(v), Some(b"k"));
                store.store(u64::from(v), Ordering::SeqCst);
                s.on_response_tx(cid, RpcId(v), 0, 1, &[0, 1], 8);
                acked.store(u64::from(v), Ordering::SeqCst);
                rng = rng
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                for _ in 0..rng >> 54 {
                    std::hint::spin_loop();
                }
            }
            done.store(true, Ordering::Release);
            readers.into_iter().map(|r| r.join().unwrap()).sum()
        });
        assert!(hits > 0, "RUST_SEED={seed}: the readers never hit");
    }

    /// A write that arrives with the tracker full of fills is still
    /// tracked: a read that arrives after its RX bump and latches the old
    /// value is removed by its TX invalidation.
    #[test]
    fn a_write_is_tracked_when_the_fill_tracker_is_full() {
        let s = state();
        let (cid, other) = (ConnectionId(7), ConnectionId(8));
        for i in 0..PENDING_CAP as u32 {
            assert!(s
                .on_read_rx(0, FnId(1), other, RpcId(i), &i.to_le_bytes(), 8)
                .is_none());
        }
        s.on_write_rx(cid, RpcId(1), Some(b"k"));
        // Two fills complete (the write took the last slot and one more);
        // a GET of "k" takes the freed one and is answered with the value
        // from before the SET.
        for i in 0..2 {
            s.on_response_tx(other, RpcId(i), 0, 1, &ok_response(b"v"), 8);
        }
        warm(&s, 0, 2, b"k", b"old", 8);
        assert_eq!(s.cached_entries(), 3);
        s.on_response_tx(cid, RpcId(1), 0, 1, &[0, 1], 8);
        assert!(
            s.on_read_rx(0, FnId(1), cid, RpcId(3), b"k", 8).is_none(),
            "a hit returned the value from before an acknowledged SET"
        );
    }

    #[test]
    fn cap_zero_disables_fills_and_tracker() {
        let s = state();
        let cid = ConnectionId(7);
        assert!(s.on_read_rx(0, FnId(1), cid, RpcId(1), b"k", 0).is_none());
        s.on_response_tx(cid, RpcId(1), 0, 1, &ok_response(b"v"), 0);
        assert_eq!(s.cached_entries(), 0);
        assert_eq!(s.stats().snapshot().fills, 0);
    }

    /// A single-frame request lead frame for `fn_id` whose body is the
    /// length-prefixed `fields`.
    fn request(fn_id: u16, rpc: u32, fields: &[&[u8]]) -> (RpcHeader, CacheLine) {
        let mut body = Vec::new();
        for f in fields {
            body.extend_from_slice(&(f.len() as u32).to_le_bytes());
            body.extend_from_slice(f);
        }
        let hdr = RpcHeader {
            connection_id: ConnectionId(7),
            rpc_id: RpcId(rpc),
            fn_id: FnId(fn_id),
            src_flow: dagger_types::FlowId(3),
            kind: RpcKind::Request,
            frame_idx: 0,
            frame_count: 1,
            frame_payload_len: body.len() as u8,
            traced: false,
            offloaded: false,
        };
        let mut line = CacheLine::zeroed();
        hdr.encode(line.header_mut());
        line.payload_mut()[..body.len()].copy_from_slice(&body);
        (hdr, line)
    }

    #[test]
    fn rx_request_serves_hits_as_offloaded_response_lines() {
        let s = state();
        let mut pool = BufPool::default();
        let (miss, line) = request(1, 1, &[b"k"]);
        assert!(s.rx_request(&miss, &line, 0, 8, &mut pool).is_none());
        // 66 bytes: two frames.
        let resp = ok_response(&[0xCD; 60]);
        s.on_response_tx(miss.connection_id, miss.rpc_id, 0, 1, &resp, 8);
        let (req, line) = request(1, 2, &[b"k"]);
        let lines = s.rx_request(&req, &line, 0, 8, &mut pool).unwrap();
        assert_eq!(lines.len(), 2);
        let mut body = Vec::new();
        for (i, l) in lines.iter().enumerate() {
            let h = RpcHeader::decode(l.header()).unwrap();
            assert_eq!(
                (h.kind, h.frame_idx, h.frame_count),
                (RpcKind::Response, i as u8, 2)
            );
            assert!(h.offloaded && !h.traced);
            assert_eq!(
                (h.connection_id, h.rpc_id, h.fn_id, h.src_flow),
                (req.connection_id, req.rpc_id, req.fn_id, req.src_flow)
            );
            body.extend_from_slice(&l.payload()[..usize::from(h.frame_payload_len)]);
        }
        assert_eq!(body, resp);
        assert_eq!(s.stats().snapshot().hits, 1);
    }

    #[test]
    fn rx_request_bypasses_what_it_cannot_classify() {
        let s = state();
        let mut pool = BufPool::default();
        let mut rx = |tweak: fn(&mut RpcHeader), fn_id: u16, fields: &[&[u8]], cap: usize| {
            let (mut hdr, line) = request(fn_id, 1, fields);
            tweak(&mut hdr);
            s.rx_request(&hdr, &line, 0, cap, &mut pool)
        };
        assert!(rx(|h| h.traced = true, 1, &[b"k"], 8).is_none());
        assert!(rx(|h| h.frame_count = 2, 1, &[b"k"], 8).is_none());
        assert!(rx(|h| h.frame_payload_len -= 1, 1, &[b"k"], 8).is_none());
        assert_eq!(s.stats().snapshot().bypass, 3);
        // Cache off: classified, but no miss is counted.
        assert!(rx(|_| {}, 1, &[b"k"], 0).is_none());
        // A write invalidates and goes on to the host; an unannotated
        // function and a non-lead frame are not looked at.
        assert!(rx(|_| {}, 2, &[b"k", b"v"], 8).is_none());
        assert!(rx(|_| {}, 9, &[b"k"], 8).is_none());
        assert!(rx(|h| h.frame_idx = 1, 2, &[b"k", b"v"], 8).is_none());
        let snap = s.stats().snapshot();
        assert_eq!((snap.bypass, snap.misses, snap.invalidations), (3, 0, 1));
    }

    #[test]
    fn stage_without_a_spec_classifies_nothing_until_configured() {
        let s = OffloadState::new(2);
        let mut pool = BufPool::default();
        let (read, line) = request(1, 1, &[b"k"]);
        let (write, wline) = request(2, 2, &[b"k", b"v"]);
        assert!(s.rx_request(&read, &line, 0, 8, &mut pool).is_none());
        assert!(s.rx_request(&write, &wline, 0, 8, &mut pool).is_none());
        let mut resp_hdr = read;
        resp_hdr.kind = RpcKind::Response;
        s.tx_response(&resp_hdr, &line, 8);
        assert_eq!(s.stats().snapshot(), OffloadSnapshot::default());
        assert_eq!(s.cached_entries(), 0);
        assert!(s.configure(read_spec()));
        assert!(s.rx_request(&read, &line, 0, 8, &mut pool).is_none());
        assert_eq!(
            s.stats().snapshot().misses,
            1,
            "the same frame is now classified"
        );
    }
}
