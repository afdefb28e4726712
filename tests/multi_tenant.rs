//! Integration tests of NIC virtualization (Fig. 14, §6): several virtual
//! NICs on one "physical FPGA", sharing the CCI-P bus through the fair
//! round-robin arbiter, each serving an isolated tenant.

use std::sync::Arc;

use dagger::idl::{dagger_message, dagger_service};
use dagger::nic::arbiter::CcipArbiter;
use dagger::nic::{MemFabric, Nic};
use dagger::rpc::{RpcClientPool, RpcThreadedServer};
use dagger::types::{HardConfig, LbPolicy, NodeAddr, Result};

dagger_message! {
    pub struct TenantRequest {
        tenant: u16,
        seq: u32,
    }
}

dagger_message! {
    pub struct TenantResponse {
        tenant: u16,
        seq: u32,
    }
}

dagger_service! {
    pub service TenantSvc {
        handler = TenantSvcHandler;
        dispatch = TenantSvcDispatch;
        client = TenantSvcClient;
        rpc poke(TenantRequest) -> TenantResponse = 1;
    }
}

struct TenantImpl {
    id: u16,
}

impl TenantSvcHandler for TenantImpl {
    fn poke(&self, request: TenantRequest) -> Result<TenantResponse> {
        // A tenant only ever sees its own traffic.
        assert_eq!(request.tenant, self.id, "cross-tenant leakage");
        Ok(TenantResponse {
            tenant: self.id,
            seq: request.seq,
        })
    }
}

#[test]
fn two_tenants_share_one_fpga() {
    let fabric = MemFabric::new();
    // Four virtual NICs (2 tenants × server+client) share one arbiter —
    // one physical FPGA's CCI-P bus.
    let arbiter = CcipArbiter::new(4);
    let cfg = HardConfig::default;

    let mut servers = Vec::new();
    let mut nics = Vec::new();
    let mut clients = Vec::new();
    for tenant in 0..2u16 {
        let server_addr = NodeAddr(u32::from(tenant) * 10 + 1);
        let client_addr = NodeAddr(u32::from(tenant) * 10 + 2);
        let server_nic =
            Nic::start_virtual(&fabric, server_addr, cfg(), arbiter.register()).unwrap();
        let client_nic =
            Nic::start_virtual(&fabric, client_addr, cfg(), arbiter.register()).unwrap();
        let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
        server
            .register_service(Arc::new(TenantSvcDispatch::new(TenantImpl { id: tenant })))
            .unwrap();
        server.start().unwrap();
        let pool = RpcClientPool::connect(Arc::clone(&client_nic), server_addr, 1).unwrap();
        clients.push((tenant, TenantSvcClient::new(pool.client(0).unwrap()), pool));
        servers.push(server);
        nics.push(server_nic);
        nics.push(client_nic);
    }

    // Both tenants make progress concurrently through the shared bus.
    let handles: Vec<_> = clients
        .into_iter()
        .map(|(tenant, client, pool)| {
            std::thread::spawn(move || {
                for seq in 0..30u32 {
                    let resp = client.poke(&TenantRequest { tenant, seq }).unwrap();
                    assert_eq!(resp.tenant, tenant);
                    assert_eq!(resp.seq, seq);
                }
                drop(pool);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // The arbiter granted every tenant bus time.
    for id in 0..4 {
        assert!(arbiter.grants(id) > 0, "tenant {id} starved");
    }
    for mut s in servers {
        s.stop();
    }
    for nic in nics {
        nic.shutdown();
    }
}

#[test]
fn per_tenant_soft_configuration_is_independent() {
    let fabric = MemFabric::new();
    let arbiter = CcipArbiter::new(2);
    let a = Nic::start_virtual(
        &fabric,
        NodeAddr(1),
        HardConfig::default(),
        arbiter.register(),
    )
    .unwrap();
    let b = Nic::start_virtual(
        &fabric,
        NodeAddr(2),
        HardConfig::default(),
        arbiter.register(),
    )
    .unwrap();
    a.softregs().set_lb_policy(LbPolicy::ObjectLevel);
    b.softregs().set_lb_policy(LbPolicy::Static);
    assert_eq!(a.softregs().lb_policy(), LbPolicy::ObjectLevel);
    assert_eq!(b.softregs().lb_policy(), LbPolicy::Static);
    a.shutdown();
    b.shutdown();
}
