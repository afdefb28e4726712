//! Integration tests of runtime ("soft") reconfiguration (§4.1): batch
//! size, load-balancer policy, active flows, and the polling-mode switch
//! can all be changed while traffic is flowing.

use std::sync::Arc;

use dagger::idl::{dagger_message, dagger_service};
use dagger::nic::{MemFabric, Nic};
use dagger::rpc::{RpcClientPool, RpcThreadedServer};
use dagger::types::{HardConfig, LbPolicy, NodeAddr, Result, SoftConfigSnapshot};

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
fn batch_size_changes_mid_traffic() {
    let (_fabric, server_nic, client_nic, mut server, pool) = deploy();
    let client = ReconfClient::new(pool.client(0).unwrap());
    for b in [1u8, 4, 8, 2] {
        client_nic.softregs().set_batch_size(b).unwrap();
        server_nic.softregs().set_batch_size(b).unwrap();
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
fn snapshot_apply_runtime() {
    let (_fabric, server_nic, client_nic, mut server, pool) = deploy();
    let client = ReconfClient::new(pool.client(0).unwrap());
    let snap = SoftConfigSnapshot {
        batch_size: 8,
        active_flows: 1,
        lb_policy: LbPolicy::Uniform,
    };
    server_nic.softregs().apply(snap).unwrap();
    assert_eq!(server_nic.softregs().snapshot(), snap);
    for n in 0..20u64 {
        assert_eq!(client.bump(&Tick { n }).unwrap().n, n + 1);
    }
    server.stop();
    drop(pool);
    client_nic.shutdown();
    server_nic.shutdown();
}

#[test]
fn polling_mode_switch_engages_under_load() {
    let (_fabric, server_nic, client_nic, mut server, pool) = deploy();
    let client = ReconfClient::new(pool.client(0).unwrap());
    // Force the switch with a threshold of one frame per window.
    client_nic.softregs().set_polling_threshold(1);
    for n in 0..4_000u64 {
        client.bump(&Tick { n }).unwrap();
    }
    let snap = client_nic.monitor().snapshot();
    assert!(
        snap.cached_polls > 0,
        "low-rate windows should use cached polling: {snap:?}"
    );
    assert!(
        snap.direct_polls > 0,
        "a 1-frame threshold must engage direct LLC polling: {snap:?}"
    );
    // Threshold 0 disables the switch entirely.
    let before = client_nic.monitor().snapshot().direct_polls;
    client_nic.softregs().set_polling_threshold(0);
    for n in 0..500u64 {
        client.bump(&Tick { n }).unwrap();
    }
    // Allow a window boundary to pass, then confirm no new direct polls
    // accumulate beyond the transition window.
    for n in 0..500u64 {
        client.bump(&Tick { n }).unwrap();
    }
    let after = client_nic.monitor().snapshot().direct_polls;
    assert!(
        after - before < 1_200,
        "direct polling should disengage: {before} -> {after}"
    );
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
