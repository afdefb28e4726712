//! NIC virtualization (Fig. 14, §6): multiple "virtual but physical" Dagger
//! NICs on one FPGA, sharing the CCI-P bus through the fair round-robin
//! arbiter, each tenant with its own soft register file.
//!
//! ```sh
//! cargo run --release --example multi_tenant
//! ```

use std::sync::Arc;

use dagger::idl::{dagger_message, dagger_service};
use dagger::nic::arbiter::CcipArbiter;
use dagger::nic::{MemFabric, Nic};
use dagger::rpc::{RpcClientPool, RpcThreadedServer};
use dagger::types::{HardConfig, NodeAddr, Result};

dagger_message! {
    pub struct WorkRequest {
        tenant: u16,
        seq: u32,
    }
}

dagger_message! {
    pub struct WorkResponse {
        tenant: u16,
        seq: u32,
    }
}

dagger_service! {
    pub service Work {
        handler = WorkHandler;
        dispatch = WorkDispatch;
        client = WorkClient;
        rpc run(WorkRequest) -> WorkResponse = 1;
    }
}

struct TenantService {
    id: u16,
}

impl WorkHandler for TenantService {
    fn run(&self, request: WorkRequest) -> Result<WorkResponse> {
        assert_eq!(request.tenant, self.id, "tenant isolation violated");
        Ok(WorkResponse {
            tenant: self.id,
            seq: request.seq,
        })
    }
}

const TENANTS: u16 = 3;
const CALLS: u32 = 200;

fn main() -> Result<()> {
    let fabric = MemFabric::new();
    // One physical FPGA: 2 NIC instances per tenant (server + client side)
    // share the bus through one arbiter.
    let arbiter = CcipArbiter::new(usize::from(TENANTS) * 2);

    let mut servers = Vec::new();
    let mut nics = Vec::new();
    let mut workers = Vec::new();
    for tenant in 0..TENANTS {
        let server_addr = NodeAddr(u32::from(tenant) * 10 + 1);
        let client_addr = NodeAddr(u32::from(tenant) * 10 + 2);
        let server_nic = Nic::start_virtual(
            &fabric,
            server_addr,
            HardConfig::default(),
            arbiter.register(),
        )?;
        let client_nic = Nic::start_virtual(
            &fabric,
            client_addr,
            HardConfig::default(),
            arbiter.register(),
        )?;

        let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
        server.register_service(Arc::new(WorkDispatch::new(TenantService { id: tenant })))?;
        server.start()?;

        let pool = RpcClientPool::connect(Arc::clone(&client_nic), server_addr, 1)?;
        workers.push(std::thread::spawn(move || -> Result<u32> {
            let client = WorkClient::new(pool.client(0)?);
            let mut done = 0;
            for seq in 0..CALLS {
                let resp = client.run(&WorkRequest { tenant, seq })?;
                assert_eq!((resp.tenant, resp.seq), (tenant, seq));
                done += 1;
            }
            Ok(done)
        }));
        servers.push(server);
        nics.push(server_nic);
        nics.push(client_nic);
    }

    for (tenant, worker) in workers.into_iter().enumerate() {
        let done = worker.join().expect("worker panicked")?;
        println!("tenant {tenant}: {done}/{CALLS} calls completed");
    }

    println!("\nCCI-P arbiter grants per NIC instance (fair round-robin):");
    for id in 0..usize::from(TENANTS) * 2 {
        println!("  instance {id}: {} grants", arbiter.grants(id));
    }

    for mut server in servers {
        server.stop();
    }
    for nic in nics {
        nic.shutdown();
    }
    Ok(())
}
