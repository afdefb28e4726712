//! The Soft-Reconfiguration Unit (§4.1).
//!
//! Fine-grained runtime control flows through "soft register files
//! accessible by the host CPU via PCIe MMIOs". This module is that register
//! file: lock-free atomics the host writes and the NIC engine reads every
//! loop iteration — CCI-P batch size, auto-batching, number of active
//! flows, and the RX load-balancer selection.

use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use dagger_types::config::MAX_BATCH;
use dagger_types::{DaggerError, LbPolicy, Result, SoftConfigSnapshot};

/// The NIC's runtime-writable register file.
#[derive(Debug)]
pub struct SoftRegisterFile {
    batch_size: AtomicU8,
    auto_batch: AtomicBool,
    active_flows: AtomicU16,
    lb_policy: AtomicU8,
    /// RX frames per engine window above which the NIC switches from
    /// polling its local coherent cache to polling the processor's LLC
    /// directly (§4.4.1). 0 disables the switch (always cached).
    polling_threshold: AtomicU32,
    /// Bitmask of engine queues eligible for *new* RSS route decisions
    /// (bit `i` = queue `i`). 0 means "all queues active". Shared with the
    /// fabric's steering logic by handle, like the other soft registers;
    /// masked-off queues keep draining already-routed traffic so no frames
    /// are stranded by a reconfiguration.
    active_queue_mask: Arc<AtomicU64>,
    /// Upper bound `set_batch_size` clamps to: the smallest host ring
    /// capacity of the NIC this file steers, installed at NIC start. A
    /// batch wider than a ring can hold would let a full ring round stall
    /// waiting for a batch that can never form.
    batch_limit: AtomicU8,
    /// A/B gate for the NIC-side serde path (the offload stage's
    /// per-frame table execution). Off by default: the host-serde
    /// baseline is the control arm.
    nic_serde: AtomicBool,
    /// Per-queue capacity of the on-NIC hot-key response cache, in
    /// entries. 0 (the default) disables the cache entirely; like
    /// `active_queue_mask` this is a live knob the engine consults on
    /// every offload decision, so the cache can be resized or switched
    /// off at runtime without restarting the NIC.
    offload_cache_entries: AtomicU32,
}

impl SoftRegisterFile {
    /// Creates a register file from an initial snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Config`] if the snapshot is invalid.
    pub fn new(initial: SoftConfigSnapshot) -> Result<Self> {
        initial.validate()?;
        Ok(SoftRegisterFile {
            batch_size: AtomicU8::new(initial.batch_size),
            auto_batch: AtomicBool::new(initial.auto_batch),
            active_flows: AtomicU16::new(initial.active_flows),
            lb_policy: AtomicU8::new(initial.lb_policy.to_wire()),
            polling_threshold: AtomicU32::new(4096),
            active_queue_mask: Arc::new(AtomicU64::new(0)),
            batch_limit: AtomicU8::new(MAX_BATCH),
            nic_serde: AtomicBool::new(false),
            offload_cache_entries: AtomicU32::new(0),
        })
    }

    /// Current CCI-P batch size.
    pub fn batch_size(&self) -> u8 {
        self.batch_size.load(Ordering::Relaxed)
    }

    /// Sets the CCI-P batch size, clamped at set time to the installed
    /// ring-capacity limit (see [`SoftRegisterFile::set_batch_limit`]).
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Config`] if outside `1..=`[`MAX_BATCH`].
    pub fn set_batch_size(&self, b: u8) -> Result<()> {
        if b == 0 || b > MAX_BATCH {
            return Err(DaggerError::Config(format!(
                "batch_size {b} outside 1..={MAX_BATCH}"
            )));
        }
        let b = b.min(self.batch_limit.load(Ordering::Relaxed));
        self.batch_size.store(b, Ordering::Relaxed);
        Ok(())
    }

    /// Installs the ring-capacity clamp for batch-size writes (the NIC
    /// passes its smallest host ring at start). Values fold into
    /// `1..=`[`MAX_BATCH`]; a live batch size above the new limit is
    /// clamped immediately, so an oversized register written before the
    /// hard configuration was known cannot deadlock a full ring round.
    pub fn set_batch_limit(&self, limit: usize) {
        let limit = limit.clamp(1, usize::from(MAX_BATCH)) as u8;
        self.batch_limit.store(limit, Ordering::Relaxed);
        let _ = self
            .batch_size
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                (b > limit).then_some(limit)
            });
    }

    /// Whether auto-batching is enabled.
    pub fn auto_batch(&self) -> bool {
        self.auto_batch.load(Ordering::Relaxed)
    }

    /// Enables/disables auto-batching.
    pub fn set_auto_batch(&self, on: bool) {
        self.auto_batch.store(on, Ordering::Relaxed);
    }

    /// Number of active flows (0 means "all hard-configured flows").
    pub fn active_flows(&self) -> u16 {
        self.active_flows.load(Ordering::Relaxed)
    }

    /// Sets the number of active flows.
    pub fn set_active_flows(&self, n: u16) {
        self.active_flows.store(n, Ordering::Relaxed);
    }

    /// Current RX load-balancer policy.
    pub fn lb_policy(&self) -> LbPolicy {
        LbPolicy::from_wire(self.lb_policy.load(Ordering::Relaxed))
    }

    /// Selects the RX load-balancer policy.
    pub fn set_lb_policy(&self, p: LbPolicy) {
        self.lb_policy.store(p.to_wire(), Ordering::Relaxed);
    }

    /// RX-rate threshold (frames per engine window) for switching from
    /// cached polling to direct LLC polling (§4.4.1).
    pub fn polling_threshold(&self) -> u32 {
        self.polling_threshold.load(Ordering::Relaxed)
    }

    /// Sets the polling-mode switch threshold; 0 keeps cached polling
    /// always on.
    pub fn set_polling_threshold(&self, frames_per_window: u32) {
        self.polling_threshold
            .store(frames_per_window, Ordering::Relaxed);
    }

    /// Current active-queue mask (bit `i` = queue `i`; 0 = all active).
    pub fn active_queue_mask(&self) -> u64 {
        self.active_queue_mask.load(Ordering::Relaxed)
    }

    /// Sets the active-queue mask. Only *new* route decisions consult the
    /// mask: traffic already steered to a masked-off queue keeps draining.
    /// Writing 0 re-activates every queue.
    pub fn set_active_queue_mask(&self, mask: u64) {
        self.active_queue_mask.store(mask, Ordering::Relaxed);
    }

    /// Shared handle onto the active-queue mask register, handed to the
    /// fabric so its RSS `route` consults the live value without going
    /// through the register file.
    pub fn active_queue_mask_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.active_queue_mask)
    }

    /// Whether the NIC-side serde path (the offload stage) is enabled.
    pub fn nic_serde(&self) -> bool {
        self.nic_serde.load(Ordering::Relaxed)
    }

    /// Enables/disables the NIC-side serde path. Off = host-serde
    /// baseline (the A/B control arm).
    pub fn set_nic_serde(&self, on: bool) {
        self.nic_serde.store(on, Ordering::Relaxed);
    }

    /// Per-queue capacity of the on-NIC response cache (0 = disabled).
    pub fn offload_cache_entries(&self) -> u32 {
        self.offload_cache_entries.load(Ordering::Relaxed)
    }

    /// Sizes (or, with 0, disables) the on-NIC response cache. Shrinking
    /// takes effect lazily: oversized queues evict down on their next
    /// insertion.
    pub fn set_offload_cache_entries(&self, entries: u32) {
        self.offload_cache_entries.store(entries, Ordering::Relaxed);
    }

    /// Reads the whole register file at once.
    pub fn snapshot(&self) -> SoftConfigSnapshot {
        SoftConfigSnapshot {
            batch_size: self.batch_size(),
            auto_batch: self.auto_batch(),
            active_flows: self.active_flows(),
            lb_policy: self.lb_policy(),
        }
    }

    /// Applies a whole snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Config`] if the snapshot is invalid; nothing is
    /// applied in that case.
    pub fn apply(&self, snap: SoftConfigSnapshot) -> Result<()> {
        snap.validate()?;
        self.set_batch_size(snap.batch_size)?;
        self.set_auto_batch(snap.auto_batch);
        self.set_active_flows(snap.active_flows);
        self.set_lb_policy(snap.lb_policy);
        Ok(())
    }
}

impl Default for SoftRegisterFile {
    fn default() -> Self {
        Self::new(SoftConfigSnapshot::default()).expect("default snapshot is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_roundtrip() {
        let regs = SoftRegisterFile::default();
        let snap = SoftConfigSnapshot {
            batch_size: 4,
            auto_batch: true,
            active_flows: 2,
            lb_policy: LbPolicy::ObjectLevel,
        };
        regs.apply(snap).unwrap();
        assert_eq!(regs.snapshot(), snap);
    }

    #[test]
    fn invalid_batch_rejected() {
        let regs = SoftRegisterFile::default();
        assert!(regs.set_batch_size(0).is_err());
        assert!(regs.set_batch_size(MAX_BATCH + 1).is_err());
        assert_eq!(regs.batch_size(), 1);
    }

    #[test]
    fn invalid_apply_is_atomic_noop() {
        let regs = SoftRegisterFile::default();
        let bad = SoftConfigSnapshot {
            batch_size: 0,
            auto_batch: true,
            active_flows: 7,
            lb_policy: LbPolicy::Static,
        };
        assert!(regs.apply(bad).is_err());
        assert_eq!(regs.snapshot(), SoftConfigSnapshot::default());
    }

    #[test]
    fn batch_size_clamps_to_ring_capacity_limit() {
        let regs = SoftRegisterFile::default();
        regs.set_batch_size(MAX_BATCH).unwrap();
        regs.set_batch_limit(4);
        assert_eq!(regs.batch_size(), 4, "live value clamps when limit lands");
        regs.set_batch_size(MAX_BATCH).unwrap();
        assert_eq!(regs.batch_size(), 4, "oversized writes clamp at set time");
        regs.set_batch_size(2).unwrap();
        assert_eq!(regs.batch_size(), 2, "in-range writes pass through");
        assert!(regs.set_batch_size(0).is_err(), "zero still rejected");
        // Limits wider than the register range fold back to MAX_BATCH.
        regs.set_batch_limit(1024);
        regs.set_batch_size(MAX_BATCH).unwrap();
        assert_eq!(regs.batch_size(), MAX_BATCH);
    }

    #[test]
    fn lb_policy_roundtrips_all_variants() {
        let regs = SoftRegisterFile::default();
        for p in [LbPolicy::Uniform, LbPolicy::Static, LbPolicy::ObjectLevel] {
            regs.set_lb_policy(p);
            assert_eq!(regs.lb_policy(), p);
        }
    }

    #[test]
    fn queue_mask_defaults_to_all_active() {
        let regs = SoftRegisterFile::default();
        assert_eq!(regs.active_queue_mask(), 0, "0 = all queues active");
        regs.set_active_queue_mask(0b101);
        assert_eq!(regs.active_queue_mask(), 0b101);
        let handle = regs.active_queue_mask_handle();
        assert_eq!(handle.load(Ordering::Relaxed), 0b101);
        handle.store(0b1, Ordering::Relaxed);
        assert_eq!(regs.active_queue_mask(), 0b1, "handle aliases register");
        // The mask is *not* part of the plain snapshot (it is a live
        // steering knob, not host-visible plain data).
        regs.apply(SoftConfigSnapshot::default()).unwrap();
        assert_eq!(regs.active_queue_mask(), 0b1);
    }

    #[test]
    fn offload_registers_default_off() {
        let regs = SoftRegisterFile::default();
        assert!(!regs.nic_serde(), "host-serde baseline by default");
        assert_eq!(regs.offload_cache_entries(), 0, "cache disabled by default");
        regs.set_nic_serde(true);
        regs.set_offload_cache_entries(256);
        assert!(regs.nic_serde());
        assert_eq!(regs.offload_cache_entries(), 256);
        // Like the queue mask, these are live knobs outside the plain
        // snapshot: applying a snapshot must not reset them.
        regs.apply(SoftConfigSnapshot::default()).unwrap();
        assert!(regs.nic_serde());
        assert_eq!(regs.offload_cache_entries(), 256);
    }

    #[test]
    fn concurrent_reads_while_writing() {
        use std::sync::Arc;
        let regs = Arc::new(SoftRegisterFile::default());
        let writer = {
            let regs = Arc::clone(&regs);
            std::thread::spawn(move || {
                for i in 1..=1000u16 {
                    regs.set_active_flows(i % 8);
                    regs.set_batch_size((i % 4 + 1) as u8).unwrap();
                }
            })
        };
        for _ in 0..1000 {
            let b = regs.batch_size();
            assert!((1..=MAX_BATCH).contains(&b));
        }
        writer.join().unwrap();
    }
}
