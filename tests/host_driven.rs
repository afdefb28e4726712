//! Who drives the engine (DESIGN.md §12): a host thread waiting on a flow
//! steps the flow's NIC queue itself, and the queue's own thread is the
//! fallback for everybody who does not. Alone in its file — hence alone in
//! its process — because it measures who took the steps: a neighbouring
//! test's spinning dispatch thread (`tests/worker_liveness.rs` lived here
//! once) takes the CPU from the host thread for a whole window.

use std::sync::Arc;

use dagger::nic::{MemFabric, Nic, QueueSnapshot};
use dagger::rpc::{RpcClientPool, RpcService, RpcThreadedServer, ServiceDescriptor};
use dagger::types::{FnId, HardConfig, NodeAddr, Result};

const SERVER: NodeAddr = NodeAddr(1);
const CLIENT: NodeAddr = NodeAddr(2);

struct Echo;

impl RpcService for Echo {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::new("echo", vec![FnId(1)])
    }

    fn dispatch(&self, _fn_id: FnId, payload: &[u8]) -> Result<Vec<u8>> {
        Ok(payload.to_vec())
    }
}

struct Pair {
    server_nic: Arc<Nic>,
    client_nic: Arc<Nic>,
    server: RpcThreadedServer,
    pool: RpcClientPool,
}

fn pair() -> Pair {
    let fabric = MemFabric::new();
    let server_nic = Nic::start(&fabric, SERVER, HardConfig::default()).unwrap();
    let client_nic = Nic::start(&fabric, CLIENT, HardConfig::default()).unwrap();
    let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
    server.register_service(Arc::new(Echo)).unwrap();
    server.start().unwrap();
    let pool = RpcClientPool::connect(Arc::clone(&client_nic), SERVER, 1).unwrap();
    Pair {
        server_nic,
        client_nic,
        server,
        pool,
    }
}

impl Pair {
    fn queue0(&self) -> [QueueSnapshot; 2] {
        [&self.server_nic, &self.client_nic].map(|nic| nic.monitor().snapshot().queues[0])
    }

    fn teardown(mut self) {
        self.server.stop();
        drop(self.pool);
        self.client_nic.shutdown();
        self.server_nic.shutdown();
    }
}

/// The steady state of a synchronous caller: both queues are stepped by the
/// threads that wait on them, and no producer ever pays for a wake.
///
/// `wakes_sent == 0` is a statement about the protocol, but a wake *is*
/// sent if the OS keeps the client off the CPU for the milliseconds it
/// takes the lease to lapse and the engine thread to park — on a loaded
/// one-core box that happens. So the window is retried: wakes on the path
/// would spoil every window, a descheduling spoils one.
#[test]
fn sync_echoes_are_host_driven_and_wake_free() {
    const ECHOES: u32 = 10_000;
    let p = pair();
    let client = p.pool.client(0).unwrap();
    let echo = |i: u32| {
        let reply = client.call_sync(FnId(1), &i.to_le_bytes()).unwrap();
        assert_eq!(reply, i.to_le_bytes());
    };
    (0..1_000).for_each(echo);
    let mut spoiled = Vec::new();
    for _window in 0..5 {
        let before = p.queue0();
        (0..ECHOES).for_each(echo);
        let delta = [0, 1].map(|i| p.queue0()[i].delta(&before[i]));
        for d in &delta {
            let steps = d.host_steps + d.thread_steps;
            assert!(steps >= u64::from(ECHOES), "too few steps: {d}");
            assert!(
                d.host_steps * 10 >= steps * 9,
                "host threads took under 90 % of the progress-making steps: {d}"
            );
            assert!(d.wakes_skipped > 0, "no wake was ever skipped: {d}");
        }
        if delta.iter().all(|d| d.wakes_sent == 0) {
            drop(client);
            p.teardown();
            return;
        }
        spoiled.push(delta.map(|d| d.wakes_sent));
    }
    panic!("wakes were sent in every window (server, client): {spoiled:?}");
}
