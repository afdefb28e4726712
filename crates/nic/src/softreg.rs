//! The Soft-Reconfiguration Unit (§4.1).
//!
//! Fine-grained runtime control flows through "soft register files
//! accessible by the host CPU via PCIe MMIOs". This module is that register
//! file: lock-free atomics the host writes and the NIC engine reads every
//! loop iteration — the number of active flows, the RX load-balancer
//! selection and the two offload knobs.
//!
//! The paper's CCI-P batch size, auto-batching and polling-mode threshold
//! are not registers here: each sets hardware timing the functional NIC
//! does not have (the `dagger-sim` timing model covers it). A TX ring read
//! takes what the ring holds, and received frames never wait for a batch.
//! [`SoftRegisterFile::set_batch_size`] and
//! [`SoftRegisterFile::set_auto_batch`] are no-ops kept only for callers
//! that still make the calls (DESIGN.md §17).

use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU32, AtomicU8, Ordering};

use dagger_types::{LbPolicy, Result};

/// The NIC's runtime-writable register file. Every register starts at 0 /
/// off: all flows active, the `Uniform` policy, the host-serde baseline,
/// no response cache.
#[derive(Debug, Default)]
pub struct SoftRegisterFile {
    active_flows: AtomicU16,
    lb_policy: AtomicU8,
    /// A/B gate for the NIC-side serde path (the offload stage's
    /// per-frame table execution). Off by default: the host-serde
    /// baseline is the control arm.
    nic_serde: AtomicBool,
    /// Per-queue capacity of the on-NIC hot-key response cache, in
    /// entries. 0 (the default) disables the cache entirely; this is a
    /// live knob the engine consults on every offload decision, so the
    /// cache can be resized or switched off at runtime without restarting
    /// the NIC.
    offload_cache_entries: AtomicU32,
}

impl SoftRegisterFile {
    /// Does nothing: a TX ring read takes what the ring holds, so there is
    /// no batch size to set (see the module docs).
    ///
    /// # Errors
    ///
    /// Never; the `Result` keeps existing callers' `?` compiling.
    pub fn set_batch_size(&self, _b: u8) -> Result<()> {
        Ok(())
    }

    /// Does nothing: nothing waits for a batch to form, so there is no
    /// auto-batching to switch (see the module docs).
    pub fn set_auto_batch(&self, _on: bool) {}

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lb_policy_roundtrips_all_variants() {
        let regs = SoftRegisterFile::default();
        for p in [LbPolicy::Uniform, LbPolicy::Static, LbPolicy::ObjectLevel] {
            regs.set_lb_policy(p);
            assert_eq!(regs.lb_policy(), p);
        }
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
                    regs.set_lb_policy(LbPolicy::from_wire((i % 3) as u8));
                }
            })
        };
        for _ in 0..1000 {
            assert!(regs.active_flows() < 8);
            let p = regs.lb_policy();
            assert_eq!(LbPolicy::from_wire(p.to_wire()), p);
        }
        writer.join().unwrap();
    }
}
