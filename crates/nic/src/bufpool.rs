//! Pooled frame buffers for the zero-allocation datapath.
//!
//! The hardware datapath of §4.4 never allocates per frame: every buffer it
//! touches is a fixed FPGA BRAM or a pre-registered host-memory region. The
//! software engine models that with a [`BufPool`] — engine-local free lists
//! of wire-byte buffers (`Vec<u8>`) and cache-line scratch vectors
//! (`Vec<CacheLine>`). In steady state the engine only *recycles*: TX encode
//! buffers come back from the RX side of the peer NIC (each NIC refills its
//! pool from the frames it receives), staging vectors circulate between the
//! per-destination staging table, in-flight datagrams, and the reliable
//! transport's retransmit window.
//!
//! The pool is owned by the engine thread and needs no locking; only the
//! hit/miss counter bank is shared so the host can export it as
//! `nic.<addr>.pool.*` telemetry gauges.

use std::sync::Arc;

use dagger_types::CacheLine;

use crate::bank::counter_bank;

/// Default maximum number of buffers retained per free list.
pub const DEFAULT_POOL_CAP: usize = 1024;

/// Byte buffers larger than this are dropped instead of pooled, so one
/// jumbo datagram cannot pin memory forever.
const MAX_POOLED_BYTES: usize = 64 * 1024;

counter_bank! {
    /// Shared hit/miss counters, exported (summed over the NIC's workers)
    /// as `nic.<addr>.pool.*`.
    pub struct BufPoolStats =>
    /// A plain-data snapshot of [`BufPoolStats`].
    BufPoolSnapshot {
        /// `get` calls satisfied from a free list.
        hits,
        /// `get` calls that had to heap-allocate.
        misses,
        /// Buffers returned to a free list.
        recycled,
    }
}

/// Engine-local free lists of reusable buffers.
#[derive(Debug)]
pub struct BufPool {
    bytes: Vec<Vec<u8>>,
    lines: Vec<Vec<CacheLine>>,
    cap: usize,
    stats: Arc<BufPoolStats>,
}

impl Default for BufPool {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_POOL_CAP)
    }
}

impl BufPool {
    /// Creates a pool retaining at most `cap` buffers per free list.
    pub fn with_capacity(cap: usize) -> Self {
        BufPool {
            bytes: Vec::new(),
            lines: Vec::new(),
            cap,
            stats: Arc::new(BufPoolStats::default()),
        }
    }

    /// Handle to the shared hit/miss counters (for telemetry export).
    pub fn shared_stats(&self) -> Arc<BufPoolStats> {
        Arc::clone(&self.stats)
    }

    /// Takes an empty byte buffer, reusing a pooled one when available.
    pub fn get_bytes(&mut self) -> Vec<u8> {
        match self.bytes.pop() {
            Some(buf) => {
                self.stats.hits.inc();
                buf
            }
            None => {
                self.stats.misses.inc();
                Vec::new()
            }
        }
    }

    /// Returns a byte buffer to the pool (cleared; dropped when the pool is
    /// full or the buffer is oversized).
    pub fn put_bytes(&mut self, mut buf: Vec<u8>) {
        if self.bytes.len() >= self.cap || buf.capacity() > MAX_POOLED_BYTES {
            return;
        }
        buf.clear();
        self.stats.recycled.inc();
        self.bytes.push(buf);
    }

    /// Takes an empty cache-line vector, reusing a pooled one when available.
    pub fn get_lines(&mut self) -> Vec<CacheLine> {
        match self.lines.pop() {
            Some(buf) => {
                self.stats.hits.inc();
                buf
            }
            None => {
                self.stats.misses.inc();
                Vec::new()
            }
        }
    }

    /// Returns a cache-line vector to the pool.
    pub fn put_lines(&mut self, mut buf: Vec<CacheLine>) {
        if self.lines.len() >= self.cap {
            return;
        }
        buf.clear();
        self.stats.recycled.inc();
        self.lines.push(buf);
    }

    /// Number of pooled byte buffers.
    pub fn pooled_bytes(&self) -> usize {
        self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_recycle_and_keep_capacity() {
        let mut pool = BufPool::with_capacity(4);
        let mut buf = pool.get_bytes();
        assert_eq!(pool.shared_stats().misses.get(), 1);
        buf.extend_from_slice(&[1, 2, 3, 4]);
        let cap = buf.capacity();
        pool.put_bytes(buf);
        assert_eq!(pool.pooled_bytes(), 1);

        let buf = pool.get_bytes();
        assert!(buf.is_empty(), "pooled buffer must come back cleared");
        assert!(buf.capacity() >= cap, "capacity must be retained");
        assert_eq!(pool.shared_stats().hits.get(), 1);
        assert_eq!(pool.shared_stats().recycled.get(), 1);
    }

    #[test]
    fn lines_recycle() {
        let mut pool = BufPool::with_capacity(4);
        let mut v = pool.get_lines();
        v.push(CacheLine::zeroed());
        pool.put_lines(v);
        let v = pool.get_lines();
        assert!(v.is_empty());
        assert_eq!(pool.shared_stats().hits.get(), 1);
        assert_eq!(pool.shared_stats().misses.get(), 1);
    }

    #[test]
    fn pool_capacity_is_bounded() {
        let mut pool = BufPool::with_capacity(2);
        for _ in 0..5 {
            pool.put_bytes(Vec::with_capacity(8));
        }
        assert_eq!(pool.pooled_bytes(), 2);
    }

    #[test]
    fn oversized_byte_buffers_are_dropped() {
        let mut pool = BufPool::with_capacity(4);
        pool.put_bytes(Vec::with_capacity(MAX_POOLED_BYTES + 1));
        assert_eq!(pool.pooled_bytes(), 0);
    }
}
