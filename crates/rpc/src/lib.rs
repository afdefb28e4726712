//! The Dagger RPC runtime — the paper's primary contribution, host side.
//!
//! The hardware does the heavy lifting (`dagger-nic`); this crate is the
//! thin software layer of §4.1–§4.2: it exposes the RPC API, performs
//! zero-copy writes of ready-to-use RPC objects into the per-flow rings,
//! and implements the pieces the paper deliberately keeps in software —
//! argument (de)serialization for continuous-argument messages ([`wire`])
//! and RPC fragmentation/reassembly for payloads larger than one cache line
//! ([`frag`], §4.7).
//!
//! The public surface mirrors the paper's API (§4.2):
//!
//! * [`RpcClientPool`] — a pool of [`RpcClient`]s, each 1-to-1 mapped to a
//!   hardware flow and its RX/TX ring pair (Fig. 7);
//! * [`RpcClient`] — synchronous (blocking) and asynchronous (non-blocking)
//!   calls; async completions land in the client's [`CompletionQueue`],
//!   which can invoke continuation callbacks;
//! * [`RpcThreadedServer`] — server event loops ([`server::RpcServerThread`])
//!   draining their flow's RX ring and dispatching to registered services,
//!   with both threading models of §5.7: handlers run inline in the
//!   dispatch thread, or in a worker-thread pool for long-running RPCs.
//!
//! # Example
//!
//! ```
//! use dagger_nic::MemFabric;
//! use dagger_rpc::{RpcClientPool, RpcThreadedServer, RpcService, ServiceDescriptor};
//! use dagger_types::{FnId, HardConfig, NodeAddr, Result};
//! use std::sync::Arc;
//!
//! struct Echo;
//! impl RpcService for Echo {
//!     fn descriptor(&self) -> ServiceDescriptor {
//!         ServiceDescriptor::new("echo", vec![FnId(1)])
//!     }
//!     fn dispatch(&self, _fn_id: FnId, payload: &[u8]) -> Result<Vec<u8>> {
//!         Ok(payload.to_vec())
//!     }
//! }
//!
//! # fn main() -> Result<()> {
//! let fabric = MemFabric::new();
//! let server_nic = dagger_nic::Nic::start(&fabric, NodeAddr(1), HardConfig::default())?;
//! let client_nic = dagger_nic::Nic::start(&fabric, NodeAddr(2), HardConfig::default())?;
//!
//! let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
//! server.register_service(Arc::new(Echo))?;
//! server.start()?;
//!
//! let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1)?;
//! let client = pool.client(0)?;
//! let reply = client.call_sync(dagger_types::FnId(1), b"hello")?;
//! assert_eq!(reply, b"hello");
//! # server.stop();
//! # Ok(())
//! # }
//! ```

pub mod client;
pub mod completion;
pub mod endpoint;
pub mod frag;
pub mod pool;
pub mod server;
pub mod service;
pub mod wire;

pub use client::{PendingCall, RpcClient, TypedCall, CLIENT_RTT_HISTOGRAM};
pub use completion::CompletionQueue;
pub use endpoint::FlowEndpoint;
pub use frag::{fragment, fragment_with_ctx, CompleteRpc, Reassembler, MAX_RPC_PAYLOAD};
pub use pool::RpcClientPool;
pub use server::{RpcThreadedServer, ThreadingModel, SERVER_HANDLER_HISTOGRAM};
pub use service::{RpcService, ServiceDescriptor};
pub use wire::{Wire, WireReader};

#[cfg(test)]
/// Heap-allocation counter for this crate's unit tests (the pattern of
/// `dagger-nic`'s zero-allocation tests): the system allocator, counting
/// allocations on threads that opt in.
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
