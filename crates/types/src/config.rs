//! The reconfigurability model of the Dagger NIC (§4.1).
//!
//! The paper splits configuration in two:
//!
//! * **Hard configuration** — SystemVerilog parameters chosen at synthesis
//!   time: number of NIC flows, ring sizes, connection-cache geometry, and
//!   the CPU–NIC interface scheme. Changing these requires a new bitstream.
//!   We model this with [`HardConfig`], fixed at NIC construction.
//! * **Soft configuration** — register files the host writes over MMIO at
//!   runtime: number of active flows, load-balancer choice, and the like.
//!   We model this with a register file of atomics in `dagger-nic`. The
//!   paper's CCI-P batch size and polling threshold are not registers here:
//!   they set hardware timing, which the `dagger-sim` model covers.

use crate::error::{DaggerError, Result};

/// The CPU–NIC interface scheme (§4.4.1). In the paper the choice of scheme
/// is *hard* configuration (dedicated IP blocks).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
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
/// Plain data: write the fields that differ from the defaults, as in
/// `HardConfig { num_flows: 8, ..HardConfig::default() }`.
/// [`HardConfig::validate`] enforces the invariants the hardware would
/// impose (power-of-two tables, at least one flow, ring capacity bounds);
/// `Nic::start` runs it.
#[derive(Clone, Debug, PartialEq, Eq)]
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
    /// Number of engine queues (worker threads). Each queue owns a stripe
    /// of the hardware flows (flow `f` belongs to queue `f % num_queues`)
    /// plus its own fabric RX queue,
    /// buffer pool, and reliable-transport channels — the functional
    /// equivalent of per-thread RX/TX queues in eRPC/FaSST. Must satisfy
    /// `1 <= num_queues <= num_flows` and `num_queues <= MAX_QUEUES`.
    pub num_queues: usize,
}

/// Maximum number of flows a single NIC supports (Table 1).
pub const MAX_FLOWS: usize = 512;

/// Maximum number of engine queues, each one worker thread.
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

/// Largest CCI-P batch size, the paper's Table 1 value. No register sets
/// a batch size here: a TX ring read takes what the ring holds.
pub const MAX_BATCH: u8 = 16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_hard_config_is_valid() {
        HardConfig::default().validate().unwrap();
    }

    #[test]
    fn non_default_fields_validate() {
        let cfg = HardConfig {
            num_flows: 8,
            tx_ring_capacity: 512,
            rx_ring_capacity: 128,
            conn_cache_entries: 4096,
            iface: IfaceKind::Doorbell,
            ..HardConfig::default()
        };
        cfg.validate().unwrap();
    }

    #[test]
    fn rejects_zero_flows() {
        let cfg = HardConfig {
            num_flows: 0,
            ..HardConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_too_many_flows() {
        let cfg = HardConfig {
            num_flows: MAX_FLOWS + 1,
            ..HardConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_bad_queue_counts() {
        let with = |num_flows, num_queues| HardConfig {
            num_flows,
            num_queues,
            ..HardConfig::default()
        };
        assert!(with(4, 0).validate().is_err());
        assert!(with(MAX_FLOWS, MAX_QUEUES + 1).validate().is_err());
        // More queues than flows: at least one queue would own no flow.
        assert!(with(2, 4).validate().is_err());
        with(8, 4).validate().unwrap();
    }

    #[test]
    fn rejects_non_pow2_conn_cache() {
        let cfg = HardConfig {
            conn_cache_entries: 1000,
            ..HardConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_tiny_ring() {
        let cfg = HardConfig {
            tx_ring_capacity: 1,
            ..HardConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn iface_labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            IfaceKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), IfaceKind::ALL.len());
    }
}
