//! The fallback driver under a slow handler (DESIGN.md §12). Alone in its
//! file — hence alone in its process — because its dispatch thread spins
//! for its first 100 ms: next to `tests/host_driven.rs` that spin landed
//! inside a measured window of the host-share test and failed it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dagger::nic::{MemFabric, Nic};
use dagger::rpc::{
    RpcClientPool, RpcService, RpcThreadedServer, ServiceDescriptor, ThreadingModel,
};
use dagger::types::{FnId, HardConfig, NodeAddr, Result};

const SERVER: NodeAddr = NodeAddr(1);
const CLIENT: NodeAddr = NodeAddr(2);
const HANDLER: Duration = Duration::from_millis(5);

/// Echoes its argument after `HANDLER` of handler time.
struct SlowEcho;

impl RpcService for SlowEcho {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::new("echo", vec![FnId(1)])
    }

    fn dispatch(&self, _fn_id: FnId, payload: &[u8]) -> Result<Vec<u8>> {
        // Handler time, not a synchronization device: the test below
        // measures that the stack adds (almost) nothing on top of it.
        std::thread::sleep(HANDLER);
        Ok(payload.to_vec())
    }
}

/// The fallback for a server whose handlers take long: in the worker model
/// the dispatch thread keeps polling (and driving) its queue while a worker
/// runs the handler, so each call costs its handler time plus well under
/// the park bound.
#[test]
fn worker_model_with_slow_handler_stays_live() {
    const CALLS: u32 = 20;
    let fabric = MemFabric::new();
    let server_nic = Nic::start(&fabric, SERVER, HardConfig::default()).unwrap();
    let client_nic = Nic::start(&fabric, CLIENT, HardConfig::default()).unwrap();
    let mut server = RpcThreadedServer::with_threading(
        Arc::clone(&server_nic),
        1,
        ThreadingModel::Worker { workers: 1 },
    );
    server.register_service(Arc::new(SlowEcho)).unwrap();
    server.start().unwrap();
    let pool = RpcClientPool::connect(Arc::clone(&client_nic), SERVER, 1).unwrap();
    let client = pool.client(0).unwrap();
    client.call_sync(FnId(1), b"warm").unwrap();
    let start = Instant::now();
    for i in 0..CALLS {
        let reply = client.call_sync(FnId(1), &i.to_le_bytes()).unwrap();
        assert_eq!(reply, i.to_le_bytes());
    }
    let per_call = start.elapsed() / CALLS;
    // Sleep overshoot on a busy box dwarfs the stack's share; the bound
    // only has to tell "handler time" from "handler time plus a stall".
    assert!(
        per_call < HANDLER * 3,
        "a 5 ms handler cost {per_call:?} per call"
    );
    drop(client);
    server.stop();
    drop(pool);
    client_nic.shutdown();
    server_nic.shutdown();
}
