//! Functional model of the Dagger FPGA NIC.
//!
//! This crate implements, block for block, the hardware architecture of
//! Figs. 6, 8 and 9 of the paper as a software NIC whose engine is stepped
//! by the host thread waiting on it, with one fallback thread per engine
//! queue for when nobody is:
//!
//! * [`ring`] — lock-free cache-line SPSC rings with validity-flag polling,
//!   the software half of the CCI-P coherent-memory interface (Fig. 8);
//! * [`transport`] — the UDP/IP-like framing of the Transport unit;
//! * [`reliable`] — the §4.5 follow-up work, implemented in the place of
//!   the paper's idle Protocol unit: a selective-repeat sliding-window
//!   reliable transport with SACK bitmaps and piggybacked
//!   acknowledgements, paired with the fabric's deterministic loss
//!   injection;
//! * [`connmgr`] — the Connection Manager: a direct-mapped, three-banked
//!   (1W3R) connection cache with host-memory spill (§4.2), and the
//!   connection-setup control frames it handles on RX;
//! * [`lb`] — the RX load balancers: uniform dynamic, static, and the
//!   object-level key-hash balancer used for MICA tiers (§5.7);
//! * [`stage`] — the RX stage: one record per flow holding its arrival
//!   order (out-of-order holds and the stall valve), its staged lines under
//!   the request buffer's bound, and the flow scheduler's batch-or-timeout
//!   rule that forms CCI-P delivery batches (Fig. 9);
//! * [`monitor`] — the Packet Monitor statistics unit, and [`bank`] — the
//!   one declaration form every counter bank in this crate uses;
//! * [`offload`] — the on-NIC compute offload stage: NIC-side serde driven
//!   by IDL-generated tables and the coherent hot-key response cache
//!   (§5.6, DESIGN.md §18), which classifies request lead frames and builds
//!   the responses of cache hits itself;
//! * [`softreg`] — the Soft-Reconfiguration Unit register file (§4.1);
//! * [`arbiter`] — the fair round-robin CCI-P bus arbiter used when several
//!   virtual NICs share one FPGA (Fig. 14);
//! * [`fabric`] — the [`fabric::Fabric`] transport seam, the one L2 ToR
//!   switch behind it, the [`fabric::Wire`] seam beneath the switch, and
//!   the in-memory wire (the loopback methodology of §5.1);
//! * [`fabric_faults`] — the seeded fault layer between switch and wire;
//! * [`fabric_udp`] — the UDP wire: one socket per NIC, so two NICs run in
//!   separate processes or hosts over loopback/LAN;
//! * [`bufpool`] — free lists of wire buffers and line vectors keeping the
//!   steady-state datapath allocation-free (§4.4);
//! * [`conncache`] — the engine-private connection-tuple cache with
//!   generation-stamped invalidation, the Host Coherent Cache analogue
//!   (§4.4.1);
//! * [`wait`] — the adaptive spin → yield → park backoff and the engine
//!   wakeup latch with its drive lease;
//! * [`drive`] — who steps an engine queue: the per-queue slot, the
//!   host-side [`HostWait`] and the fallback engine thread;
//! * [`xfer`] — cross-queue SPSC handoff rings moving steered frames from
//!   the receiving engine worker to the flow-owning one;
//! * [`engine`] — the NIC engine workers tying the RX/TX FSMs together
//!   behind one `step()`, sharded RSS-style across `num_queues` queues;
//! * [`nic`] — the assembled, virtualizable [`nic::Nic`].
//!
//! The NIC is *functional*: it moves real bytes between real threads with
//! the exact control structure of the hardware, but makes no timing claims —
//! timing lives in `dagger-sim`.

pub mod arbiter;
pub mod balancer;
pub mod bank;
pub mod bufpool;
pub mod conncache;
pub mod connmgr;
pub mod drive;
pub mod engine;
pub mod fabric;
pub mod fabric_faults;
pub mod fabric_udp;
pub mod lb;
pub mod monitor;
pub mod nic;
pub mod offload;
pub mod reliable;
pub mod ring;
pub mod softreg;
pub mod stage;
pub mod transport;
pub mod wait;
pub mod xfer;

pub use balancer::{BalancerConfig, QueueBalancer};
pub use bufpool::{BufPool, BufPoolStats};
pub use conncache::{ConnCacheStats, ConnTupleCache};
pub use connmgr::{ConnectionManager, ConnectionTuple};
pub use drive::{EngineHandle, HostWait};
pub use fabric::{Fabric, FabricPort, MemFabric};
pub use fabric_faults::{FaultPlan, FaultSnapshot, FaultStats};
pub use fabric_udp::UdpFabric;
pub use monitor::{FlowSnapshot, MonitorSnapshot, PacketMonitor, QueueSnapshot, QueueStats};
pub use nic::{queue_of_flow, HostFlow, Nic};
pub use offload::{OffloadSnapshot, OffloadState, OffloadStats};
pub use ring::{ring, RingConsumer, RingProducer};
pub use softreg::SoftRegisterFile;
pub use wait::{EngineWaker, SpinWait};

/// Heap-allocation counter used by the zero-allocation datapath tests: a
/// wrapper around the system allocator that counts allocations on threads
/// that opt in. Compiled only for this crate's unit tests; production
/// builds keep the unmodified system allocator.
#[cfg(test)]
pub(crate) mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static COUNTING: Cell<bool> = const { Cell::new(false) };
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    /// Counts heap allocations (not frees) on opted-in threads.
    pub struct CountingAlloc;

    // SAFETY: defers to `System` for every allocation; only bookkeeping is
    // added, and `try_with` tolerates TLS teardown during thread exit.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = COUNTING.try_with(|on| {
                if on.get() {
                    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
                }
            });
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let _ = COUNTING.try_with(|on| {
                if on.get() {
                    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
                }
            });
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    /// Runs `f` with allocation counting enabled on this thread and returns
    /// `(allocations, result)`.
    pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
        ALLOCS.with(|n| n.set(0));
        COUNTING.with(|on| on.set(true));
        let result = f();
        COUNTING.with(|on| on.set(false));
        (ALLOCS.with(|n| n.get()), result)
    }
}
