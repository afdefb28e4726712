//! Integration tests of runtime ("soft") reconfiguration (§4.1): the
//! load-balancer policy and the active flows can be changed while traffic
//! is flowing. The paper's batch-size and polling-mode registers set
//! hardware timing and have no counterpart here (DESIGN.md §17).

use std::sync::Arc;

use dagger::idl::{dagger_message, dagger_service};
use dagger::nic::{MemFabric, Nic};
use dagger::rpc::{RpcClientPool, RpcThreadedServer};
use dagger::types::{HardConfig, LbPolicy, NodeAddr, Result};

dagger_message! {
    pub struct Tick {
        n: u64,
    }
}

dagger_service! {
    pub service Reconf {
        handler = ReconfHandler;
        dispatch = ReconfDispatch;
        client = ReconfClient;
        rpc bump(Tick) -> Tick = 1;
    }
}

struct BumpImpl;
impl ReconfHandler for BumpImpl {
    fn bump(&self, request: Tick) -> Result<Tick> {
        Ok(Tick { n: request.n + 1 })
    }
}

fn deploy() -> (
    MemFabric,
    Arc<Nic>,
    Arc<Nic>,
    RpcThreadedServer,
    RpcClientPool,
) {
    let fabric = MemFabric::new();
    let server_nic = Nic::start(&fabric, NodeAddr(1), HardConfig::default()).unwrap();
    let client_nic = Nic::start(&fabric, NodeAddr(2), HardConfig::default()).unwrap();
    let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
    server
        .register_service(Arc::new(ReconfDispatch::new(BumpImpl)))
        .unwrap();
    server.start().unwrap();
    let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1).unwrap();
    (fabric, server_nic, client_nic, server, pool)
}

#[test]
fn lb_policy_changes_mid_traffic() {
    let (_fabric, server_nic, client_nic, mut server, pool) = deploy();
    let client = ReconfClient::new(pool.client(0).unwrap());
    for policy in [LbPolicy::Uniform, LbPolicy::ObjectLevel, LbPolicy::Static] {
        server_nic.softregs().set_lb_policy(policy);
        for n in 0..20u64 {
            assert_eq!(client.bump(&Tick { n }).unwrap().n, n + 1);
        }
    }
    server.stop();
    drop(pool);
    client_nic.shutdown();
    server_nic.shutdown();
}

#[test]
fn active_flows_window_steers_requests() {
    // Server with two dispatch threads: requests must reach both flows.
    let fabric = MemFabric::new();
    let server_nic = Nic::start(&fabric, NodeAddr(1), HardConfig::default()).unwrap();
    let client_nic = Nic::start(&fabric, NodeAddr(2), HardConfig::default()).unwrap();
    let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 2);
    server
        .register_service(Arc::new(ReconfDispatch::new(BumpImpl)))
        .unwrap();
    server.start().unwrap();
    assert_eq!(server_nic.softregs().active_flows(), 2);
    let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1).unwrap();
    let client = ReconfClient::new(pool.client(0).unwrap());
    for n in 0..40u64 {
        assert_eq!(client.bump(&Tick { n }).unwrap().n, n + 1);
    }
    assert_eq!(server.stats().handled, 40);
    server.stop();
    drop(pool);
    client_nic.shutdown();
    server_nic.shutdown();
}
