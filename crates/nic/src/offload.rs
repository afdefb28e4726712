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
//! # Coherence: the double-bump protocol
//!
//! Every key hashes to one of [`GEN_SLOTS`] generation counters. A write
//! bumps its key's generation **twice** — once when the request enters the
//! NIC (RX) and once when the acknowledgment leaves it (TX). A cached entry
//! records the generation observed at fill time and is served only while
//! that generation is still current; a fill is abandoned if the generation
//! moved between the read's arrival and its response. The two bumps bracket
//! the store mutation, so:
//!
//! - any entry filled *before* a write's RX bump is stale the moment the
//!   write arrives (first bump) — a hit can never return a value from
//!   before a write that has already reached the NIC;
//! - any read that raced the mutation (arrived after RX bump, responded
//!   before TX bump) sees a moved generation at fill time and is dropped —
//!   the cache never latches a value of ambiguous vintage.
//!
//! Therefore a hit always returns a value at least as new as the last
//! *acknowledged* write, which is the strongest claim a client can check. A
//! write whose key cannot be extracted on the NIC (key split across frames)
//! falls back to bumping a global epoch, flushing the whole cache —
//! conservative, never stale.
//!
//! Caches are per engine queue (like the connection cache), so a hit takes
//! no cross-queue locks; invalidation is lazy — a stale entry is dropped on
//! its next lookup and counted in `stale_drops`.

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
        /// Lookups that found an entry whose generation had moved.
        stale_drops,
        /// Offload-annotated requests the stage refused to classify
        /// (traced, multi-frame reads, or undecodable lead frames).
        bypass,
    }
}

/// A cached response: the exact status-prefixed payload bytes the host
/// produced, plus the coherence stamps under which they were latched. A
/// read's fill obligation accumulates one of these in a `Vec` as its
/// response leaves; the fill freezes the bytes into an `Arc`, which every
/// hit then shares instead of copying.
#[derive(Debug)]
struct Entry<P = Arc<[u8]>> {
    fn_id: FnId,
    key: Vec<u8>,
    payload: P,
    gen: u64,
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
    fn touch(&mut self, hash: u64) -> u64 {
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
    /// `entry.payload` and fill the cache if no write intervened.
    Read {
        queue: usize,
        hash: u64,
        slot: usize,
        next_frame: u8,
        entry: Entry<Vec<u8>>,
    },
    /// A write awaiting its acknowledgment: the TX-side (second) bump.
    Write { slot: Option<usize> },
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

/// Combines the function id into the key hash so distinct read RPCs over
/// the same key bytes cache independently. Generation slots deliberately
/// hash the key *alone*: a write to a key invalidates it across functions.
fn entry_hash(fn_id: FnId, key: &[u8]) -> u64 {
    fnv1a(key) ^ (u64::from(fn_id.raw())).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn gen_slot(key: &[u8]) -> usize {
    fnv1a(key) as usize & (GEN_SLOTS - 1)
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
    /// second bump ([`Self::on_response_tx`]).
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
        let slot = gen_slot(key);
        let hash = entry_hash(fn_id, key);
        // Stamps first: a hit must be validated against counters read no
        // earlier than the request's arrival.
        let gen = self.gens[slot].load(Ordering::Acquire);
        let epoch = self.epoch.load(Ordering::Acquire);
        {
            let mut cache = self.queues[queue].lock();
            match cache.entries.get(&hash) {
                Some(e) if e.gen == gen && e.epoch == epoch && e.fn_id == fn_id && e.key == key => {
                    let payload = Arc::clone(&e.payload);
                    let stamp = cache.touch(hash);
                    cache.entries.get_mut(&hash).expect("just read").stamp = stamp;
                    drop(cache);
                    self.stats.hits.inc();
                    return Some(payload);
                }
                Some(e) if e.fn_id == fn_id && e.key == key => {
                    let stale_gen = e.gen;
                    cache.entries.remove(&hash);
                    drop(cache);
                    self.stats.stale_drops.inc();
                    self.record(FlightEventKind::OffloadStale, fnv1a(key), stale_gen);
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
                            hash,
                            slot,
                            next_frame: 0,
                            entry: Entry {
                                fn_id,
                                key: key.to_vec(),
                                payload: Vec::new(),
                                gen,
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
        let slot = match key {
            Some(key) => {
                let slot = gen_slot(key);
                let gen = self.gens[slot].fetch_add(1, Ordering::AcqRel) + 1;
                self.record(FlightEventKind::OffloadInvalidate, fnv1a(key), gen);
                Some(slot)
            }
            None => {
                self.epoch.fetch_add(1, Ordering::AcqRel);
                self.record(FlightEventKind::OffloadInvalidate, 0, FLIGHT_ALL_NODES);
                None
            }
        };
        self.stats.invalidations.inc();
        let mut pending = self.pending.lock();
        if pending.len() < PENDING_CAP
            && pending
                .insert((cid, rpc_id), Pending::Write { slot })
                .is_none()
        {
            self.pending_hint.fetch_add(1, Ordering::Relaxed);
        }
        // If the tracker was full the TX bump is lost — harmless: the RX
        // bump already invalidated, and fills that raced see the moved
        // generation.
    }

    /// A response frame is leaving the NIC. Completes fill obligations
    /// (reads) and issues the second invalidation bump (writes). `chunk` is
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
            Pending::Write { slot } => {
                if last {
                    let slot = *slot;
                    pending.remove(&(cid, rpc_id));
                    self.pending_hint.fetch_sub(1, Ordering::Relaxed);
                    drop(pending);
                    match slot {
                        Some(slot) => {
                            self.gens[slot].fetch_add(1, Ordering::AcqRel);
                        }
                        None => {
                            self.epoch.fetch_add(1, Ordering::AcqRel);
                        }
                    }
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
                        hash,
                        slot,
                        entry,
                        ..
                    }) = pending.remove(&(cid, rpc_id))
                    else {
                        unreachable!("matched Read above");
                    };
                    self.pending_hint.fetch_sub(1, Ordering::Relaxed);
                    drop(pending);
                    self.fill(queue, hash, slot, entry, cap);
                }
            }
        }
    }

    /// Latches a completed read response, unless a write raced it.
    fn fill(&self, queue: usize, hash: u64, slot: usize, entry: Entry<Vec<u8>>, cap: usize) {
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
        // The double-bump race check: if either counter moved since the
        // read arrived, a write bracketed this response — drop the fill.
        if self.gens[slot].load(Ordering::Acquire) != entry.gen
            || self.epoch.load(Ordering::Acquire) != entry.epoch
        {
            return;
        }
        let Entry {
            fn_id,
            key,
            payload,
            gen,
            epoch,
            ..
        } = entry;
        let payload = Arc::from(payload);
        let mut cache = self.queues[queue].lock();
        let evicted = cache.make_room(cap);
        let stamp = cache.touch(hash);
        let entry = Entry {
            fn_id,
            key,
            payload,
            gen,
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
