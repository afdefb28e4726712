//! The reconfigurability model of the Dagger NIC (§4.1).
//!
//! The paper splits configuration in two:
//!
//! * **Hard configuration** — SystemVerilog parameters chosen at synthesis
//!   time: number of NIC flows, ring sizes, connection-cache geometry, and
//!   the CPU–NIC interface scheme. Changing these requires a new bitstream.
//!   We model this with [`HardConfig`], fixed at NIC construction.
//! * **Soft configuration** — register files the host writes over MMIO at
//!   runtime: CCI-P batch size, number of active flows, load-balancer choice,
//!   polling thresholds. We model this with a register file in `dagger-nic`;
//!   [`SoftConfigSnapshot`] is the plain-data view of those registers.

use serde::{Deserialize, Serialize};

use crate::error::{DaggerError, Result};

/// The CPU–NIC interface scheme (§4.4.1). In the paper the choice of scheme
/// is *hard* configuration (dedicated IP blocks).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IfaceKind {
    /// WQE-by-MMIO: the CPU writes each 64 B RPC into NIC MMIO space using
    /// two AVX-256 stores. Lowest PCIe latency, lowest throughput.
    Mmio,
    /// Classic doorbell: DMA reads initiated by one MMIO doorbell per request.
    Doorbell,
    /// Doorbell batching: one MMIO doorbell initiates a DMA batch.
    DoorbellBatched,
    /// The Dagger scheme: the NIC polls coherent memory over the NUMA
    /// interconnect; the CPU's only work is a memory write.
    Upi,
}

impl IfaceKind {
    /// All interface kinds, in the order Fig. 10 presents them.
    pub const ALL: [IfaceKind; 4] = [
        IfaceKind::Mmio,
        IfaceKind::Doorbell,
        IfaceKind::DoorbellBatched,
        IfaceKind::Upi,
    ];

    /// Short label used by the benchmark harnesses.
    pub fn label(self) -> &'static str {
        match self {
            IfaceKind::Mmio => "MMIO",
            IfaceKind::Doorbell => "Doorbell",
            IfaceKind::DoorbellBatched => "Doorbell(batched)",
            IfaceKind::Upi => "UPI",
        }
    }
}

/// Load-balancing scheme used by the NIC RX path to steer incoming RPCs to
/// flows (§4.4.2, §5.7).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LbPolicy {
    /// Dynamic uniform steering: round-robin over active flows.
    #[default]
    Uniform,
    /// Static balancing: requests steered by the flow recorded in the
    /// connection tuple.
    Static,
    /// Application-specific object-level balancing: steer by a hash of a key
    /// embedded in the payload (required by MICA's partitioned heap, §5.7).
    ObjectLevel,
}

impl LbPolicy {
    /// The policy's one-byte form, as the connection-open control frame and
    /// the `lb_policy` soft register carry it.
    pub fn to_wire(self) -> u8 {
        match self {
            LbPolicy::Uniform => 0,
            LbPolicy::Static => 1,
            LbPolicy::ObjectLevel => 2,
        }
    }

    /// Decodes [`LbPolicy::to_wire`]; an unknown byte reads as `Uniform`.
    pub fn from_wire(v: u8) -> Self {
        match v {
            1 => LbPolicy::Static,
            2 => LbPolicy::ObjectLevel,
            _ => LbPolicy::Uniform,
        }
    }
}

/// Synthesis-time ("hard") configuration of one NIC instance.
///
/// Construct via [`HardConfig::builder`]; [`HardConfig::validate`] enforces
/// the invariants the hardware would impose (power-of-two tables, at least
/// one flow, ring capacity bounds).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HardConfig {
    /// Number of hardware flows; each maps 1-to-1 to an RX/TX ring pair.
    /// Table 1 allows up to 512.
    pub num_flows: usize,
    /// TX ring capacity in cache lines, per flow.
    pub tx_ring_capacity: usize,
    /// RX ring capacity in cache lines, per flow.
    pub rx_ring_capacity: usize,
    /// Entries in the connection-manager cache (direct-mapped, three banked
    /// tables; §4.2). Must be a power of two. Table 1 caps at ~153 K — we
    /// enforce 256 K as a generous power-of-two bound.
    pub conn_cache_entries: usize,
    /// CPU–NIC interface scheme.
    pub iface: IfaceKind,
    /// Enable the reliable transport extension (selective repeat with
    /// piggybacked acks) in the Protocol unit — the follow-up work §4.5
    /// names. All NICs sharing a fabric must agree on this setting (it
    /// changes the wire format).
    pub reliable: bool,
    /// Number of engine queues (worker threads). Each queue owns a
    /// contiguous slice of the hardware flows plus its own fabric RX queue,
    /// buffer pool, and reliable-transport channels — the functional
    /// equivalent of per-thread RX/TX queues in eRPC/FaSST. Must satisfy
    /// `1 <= num_queues <= num_flows` and `num_queues <= 64` (the
    /// soft-register active-queue mask is one u64).
    pub num_queues: usize,
}

/// Maximum number of flows a single NIC supports (Table 1).
pub const MAX_FLOWS: usize = 512;

/// Maximum number of engine queues: the soft-register active-queue mask is
/// a single `u64`, one bit per queue.
pub const MAX_QUEUES: usize = 64;

/// Maximum connection-cache entries (power-of-two bound above the paper's
/// 153 K figure from Table 1's BRAM budget).
pub const MAX_CONN_CACHE_ENTRIES: usize = 1 << 18;

impl Default for HardConfig {
    fn default() -> Self {
        HardConfig {
            num_flows: 4,
            tx_ring_capacity: 256,
            rx_ring_capacity: 256,
            conn_cache_entries: 1024,
            iface: IfaceKind::Upi,
            reliable: false,
            num_queues: 1,
        }
    }
}

impl HardConfig {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> HardConfigBuilder {
        HardConfigBuilder {
            config: HardConfig::default(),
        }
    }

    /// Checks all hardware invariants.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Config`] if any bound is violated.
    pub fn validate(&self) -> Result<()> {
        if self.num_flows == 0 || self.num_flows > MAX_FLOWS {
            return Err(DaggerError::Config(format!(
                "num_flows {} outside 1..={MAX_FLOWS}",
                self.num_flows
            )));
        }
        if !self.conn_cache_entries.is_power_of_two()
            || self.conn_cache_entries > MAX_CONN_CACHE_ENTRIES
        {
            return Err(DaggerError::Config(format!(
                "conn_cache_entries {} must be a power of two ≤ {MAX_CONN_CACHE_ENTRIES}",
                self.conn_cache_entries
            )));
        }
        for (name, cap) in [
            ("tx_ring_capacity", self.tx_ring_capacity),
            ("rx_ring_capacity", self.rx_ring_capacity),
        ] {
            if !cap.is_power_of_two() || !(2..=(1 << 20)).contains(&cap) {
                return Err(DaggerError::Config(format!(
                    "{name} {cap} must be a power of two in 2..=1048576"
                )));
            }
        }
        if self.num_queues == 0 || self.num_queues > MAX_QUEUES {
            return Err(DaggerError::Config(format!(
                "num_queues {} outside 1..={MAX_QUEUES}",
                self.num_queues
            )));
        }
        if self.num_queues > self.num_flows {
            return Err(DaggerError::Config(format!(
                "num_queues {} exceeds num_flows {} (each queue needs at least one flow)",
                self.num_queues, self.num_flows
            )));
        }
        Ok(())
    }
}

/// Builder for [`HardConfig`].
#[derive(Clone, Debug)]
pub struct HardConfigBuilder {
    config: HardConfig,
}

impl HardConfigBuilder {
    /// Sets the number of hardware flows.
    pub fn num_flows(mut self, n: usize) -> Self {
        self.config.num_flows = n;
        self
    }

    /// Sets the per-flow TX ring capacity (cache lines).
    pub fn tx_ring_capacity(mut self, n: usize) -> Self {
        self.config.tx_ring_capacity = n;
        self
    }

    /// Sets the per-flow RX ring capacity (cache lines).
    pub fn rx_ring_capacity(mut self, n: usize) -> Self {
        self.config.rx_ring_capacity = n;
        self
    }

    /// Sets the connection-cache entry count (power of two).
    pub fn conn_cache_entries(mut self, n: usize) -> Self {
        self.config.conn_cache_entries = n;
        self
    }

    /// Sets the CPU–NIC interface scheme.
    pub fn iface(mut self, iface: IfaceKind) -> Self {
        self.config.iface = iface;
        self
    }

    /// Enables the reliable transport (§4.5 follow-up work).
    pub fn reliable(mut self, on: bool) -> Self {
        self.config.reliable = on;
        self
    }

    /// Sets the number of engine queues (worker threads).
    pub fn num_queues(mut self, n: usize) -> Self {
        self.config.num_queues = n;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Config`] if the configuration is invalid.
    pub fn build(self) -> Result<HardConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// A plain-data snapshot of the NIC's soft (runtime) register file.
///
/// The live registers are atomics owned by `dagger-nic`'s soft-reconfiguration
/// unit; this snapshot is what the host reads/writes in one shot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SoftConfigSnapshot {
    /// CCI-P transfer batch size `B` (Fig. 10/11). 1..=16.
    pub batch_size: u8,
    /// When `true`, the NIC adjusts `batch_size` dynamically with load so
    /// batching's throughput gain does not cost latency at low load (§5.4).
    pub auto_batch: bool,
    /// Number of currently active flows (≤ hard `num_flows`).
    pub active_flows: u16,
    /// RX load-balancer selection.
    pub lb_policy: LbPolicy,
}

impl Default for SoftConfigSnapshot {
    fn default() -> Self {
        SoftConfigSnapshot {
            batch_size: 1,
            auto_batch: false,
            active_flows: 0, // 0 = all hard flows active
            lb_policy: LbPolicy::Uniform,
        }
    }
}

/// Largest supported CCI-P batch size.
pub const MAX_BATCH: u8 = 16;

impl SoftConfigSnapshot {
    /// Checks register-value invariants.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Config`] if `batch_size` is 0 or above
    /// [`MAX_BATCH`].
    pub fn validate(&self) -> Result<()> {
        if self.batch_size == 0 || self.batch_size > MAX_BATCH {
            return Err(DaggerError::Config(format!(
                "batch_size {} outside 1..={MAX_BATCH}",
                self.batch_size
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_hard_config_is_valid() {
        HardConfig::default().validate().unwrap();
    }

    #[test]
    fn builder_sets_fields() {
        let cfg = HardConfig::builder()
            .num_flows(8)
            .tx_ring_capacity(512)
            .rx_ring_capacity(128)
            .conn_cache_entries(4096)
            .iface(IfaceKind::Doorbell)
            .build()
            .unwrap();
        assert_eq!(cfg.num_flows, 8);
        assert_eq!(cfg.tx_ring_capacity, 512);
        assert_eq!(cfg.rx_ring_capacity, 128);
        assert_eq!(cfg.conn_cache_entries, 4096);
        assert_eq!(cfg.iface, IfaceKind::Doorbell);
    }

    #[test]
    fn rejects_zero_flows() {
        assert!(HardConfig::builder().num_flows(0).build().is_err());
    }

    #[test]
    fn rejects_too_many_flows() {
        assert!(HardConfig::builder()
            .num_flows(MAX_FLOWS + 1)
            .build()
            .is_err());
    }

    #[test]
    fn rejects_bad_queue_counts() {
        assert!(HardConfig::builder().num_queues(0).build().is_err());
        assert!(HardConfig::builder()
            .num_queues(MAX_QUEUES + 1)
            .num_flows(MAX_FLOWS)
            .build()
            .is_err());
        // More queues than flows: at least one queue would own no flow.
        assert!(HardConfig::builder()
            .num_flows(2)
            .num_queues(4)
            .build()
            .is_err());
        let cfg = HardConfig::builder()
            .num_flows(8)
            .num_queues(4)
            .build()
            .unwrap();
        assert_eq!(cfg.num_queues, 4);
    }

    #[test]
    fn rejects_non_pow2_conn_cache() {
        assert!(HardConfig::builder()
            .conn_cache_entries(1000)
            .build()
            .is_err());
    }

    #[test]
    fn rejects_tiny_ring() {
        assert!(HardConfig::builder().tx_ring_capacity(1).build().is_err());
    }

    #[test]
    fn soft_config_batch_bounds() {
        let mut s = SoftConfigSnapshot::default();
        s.validate().unwrap();
        s.batch_size = 0;
        assert!(s.validate().is_err());
        s.batch_size = MAX_BATCH + 1;
        assert!(s.validate().is_err());
        s.batch_size = MAX_BATCH;
        s.validate().unwrap();
    }

    #[test]
    fn iface_labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            IfaceKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), IfaceKind::ALL.len());
    }
}
