//! The §4.5 follow-up work in action: the selective-repeat reliable
//! transport carrying RPCs across a fabric that drops a quarter of all
//! frames, next to the stock (unreliable) stack losing calls under the same
//! conditions — then a composed fault plan (drop + reorder + duplicate + corrupt +
//! delay) that the reliable stack still rides out byte-for-byte.
//!
//! ```sh
//! cargo run --release --example lossy_fabric
//! ```

use std::sync::Arc;
use std::time::Duration;

use dagger::idl::{dagger_message, dagger_service};
use dagger::nic::{FaultPlan, MemFabric, Nic};
use dagger::rpc::{RpcClientPool, RpcThreadedServer};
use dagger::types::{HardConfig, NodeAddr, Result};

dagger_message! {
    pub struct Ping {
        seq: u32,
        payload: Vec<u8>,
    }
}

dagger_service! {
    pub service PingSvc {
        handler = PingHandler;
        dispatch = PingDispatch;
        client = PingClient;
        rpc ping(Ping) -> Ping = 1;
    }
}

struct EchoImpl;
impl PingHandler for EchoImpl {
    fn ping(&self, request: Ping) -> Result<Ping> {
        Ok(request)
    }
}

fn run(label: &str, fabric: &MemFabric, reliable: bool, calls: u32) -> Result<()> {
    let cfg = HardConfig::builder().reliable(reliable).build()?;
    let server_nic = Nic::start(fabric, NodeAddr(1), cfg.clone())?;
    let client_nic = Nic::start(fabric, NodeAddr(2), cfg)?;
    let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
    server.register_service(Arc::new(PingDispatch::new(EchoImpl)))?;
    server.start()?;

    let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1)?;
    let raw = pool.client(0)?;
    raw.set_timeout(if reliable {
        Duration::from_secs(20)
    } else {
        Duration::from_millis(200)
    });
    let client = PingClient::new(raw);

    // Packet Monitor readings before the run: the post-run delta isolates
    // exactly this run's traffic.
    let client_before = client_nic.monitor().snapshot();
    let server_before = server_nic.monitor().snapshot();

    let mut ok = 0u32;
    for seq in 0..calls {
        let outcome = client.ping(&Ping {
            seq,
            payload: vec![seq as u8; 100],
        });
        match outcome {
            Ok(resp) if resp.seq == seq && resp.payload == vec![seq as u8; 100] => ok += 1,
            Ok(_) => println!("  corrupted response for call {seq}!"),
            Err(_) => {}
        }
    }
    let faults = fabric.fault_stats();
    println!("[{label}] {ok}/{calls} calls completed");
    println!(
        "  network faults: {} dropped, {} reordered, {} duplicated, {} corrupted, {} delayed",
        faults.dropped, faults.reordered, faults.duplicated, faults.corrupted, faults.delayed
    );
    let client_delta = client_nic.monitor().snapshot().delta(&client_before);
    let server_delta = server_nic.monitor().snapshot().delta(&server_before);
    println!("  client NIC: {client_delta}");
    println!("  server NIC: {server_delta}");

    server.stop();
    drop(pool);
    client_nic.shutdown();
    server_nic.shutdown();
    Ok(())
}

fn main() -> Result<()> {
    println!("25% frame loss, 40 multi-frame echo RPCs:\n");
    run(
        "reliable (selective repeat)",
        &MemFabric::with_loss(0.25, 1234),
        true,
        40,
    )?;
    run(
        "unreliable (stock)  ",
        &MemFabric::with_loss(0.25, 1234),
        false,
        40,
    )?;

    // A composed plan: every fault class at once, deterministic per seed.
    let plan = FaultPlan::seeded(7)
        .with_drop(0.10)
        .with_reorder(0.15, 8)
        .with_duplicate(0.10)
        .with_corrupt(0.05)
        .with_delay(0.10, 6);
    println!("\nComposed fault plan (drop + reorder + duplicate + corrupt + delay):\n");
    run(
        "reliable, full chaos",
        &MemFabric::with_faults(plan),
        true,
        40,
    )?;

    println!("\nEvery completed call was verified byte-for-byte; the reliable");
    println!("transport repairs loss, reordering, duplication and corruption");
    println!("with checksums and retransmissions; the stock stack times out.");
    Ok(())
}
