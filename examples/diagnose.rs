//! Diagnosing an SLO breach with the forensics layer: a scripted fabric
//! partition pushes one RPC's latency past a declared objective; the
//! breach freezes a diagnosis bundle — burn-rate window, tail-bucket
//! exemplars resolved into trace trees with critical-path attribution,
//! and the flight-recorder slice around the breach tick — which this
//! example prints both human-readably and as the v6 JSON export.
//!
//! ```sh
//! cargo run --release --example diagnose
//! ```

use std::sync::Arc;
use std::time::Duration;

use dagger::idl::{dagger_message, dagger_service};
use dagger::nic::{MemFabric, Nic};
use dagger::rpc::{RpcClientPool, RpcThreadedServer};
use dagger::telemetry::{SloSpec, Telemetry};
use dagger::types::{HardConfig, NodeAddr, Result};

dagger_message! {
    pub struct Blob {
        tag: u32,
        data: Vec<u8>,
    }
}

dagger_service! {
    pub service Diag {
        handler = DiagHandler;
        dispatch = DiagDispatch;
        client = DiagClient;
        rpc echo(Blob) -> Blob = 1, async = echo_async;
    }
}

struct EchoImpl;
impl DiagHandler for EchoImpl {
    fn echo(&self, request: Blob) -> Result<Blob> {
        Ok(request)
    }
}

fn main() -> Result<()> {
    // One telemetry hub for both NICs, with tracing on so latency samples
    // carry exemplars, and a 50 ms latency objective on the client RTT.
    let telemetry = Telemetry::new();
    telemetry.enable_tracing();
    telemetry.register_slo(SloSpec::latency(
        "client_rtt",
        "rpc.client.rtt_ns",
        Duration::from_millis(50).as_nanos() as u64,
        0.99,
    ));

    let fabric = MemFabric::new();
    fabric.register_telemetry(&telemetry);
    let cfg = HardConfig {
        reliable: true,
        ..HardConfig::default()
    };
    let server_nic =
        Nic::start_with_telemetry(&fabric, NodeAddr(1), cfg.clone(), Arc::clone(&telemetry))?;
    let client_nic = Nic::start_with_telemetry(&fabric, NodeAddr(2), cfg, Arc::clone(&telemetry))?;

    let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
    server.register_service(Arc::new(DiagDispatch::new(EchoImpl)))?;
    server.start()?;
    let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1)?;
    let raw = pool.client(0)?;
    raw.set_timeout(Duration::from_secs(10));
    let client = DiagClient::new(raw);

    let blob = Blob {
        tag: 1,
        data: (0..100u32).map(|i| (i * 7) as u8).collect(),
    };

    // Healthy traffic, then the injected fault: a partition held for
    // 150 ms with one call in flight. The reliable layer retransmits
    // across the heal, so the call completes — 3x over the objective.
    for _ in 0..5 {
        client.echo(&blob)?;
    }
    println!("injecting: partition NIC 1 <-> NIC 2, one call in flight...");
    fabric.partition(NodeAddr(1), NodeAddr(2));
    let pending = client.echo_async(&blob)?;
    std::thread::sleep(Duration::from_millis(150));
    fabric.heal(NodeAddr(1), NodeAddr(2));
    pending.wait()?;

    // The next sampling pass evaluates the SLO (1 bad / 6 total against a
    // 99% target: ~16x burn), crosses into breach, and freezes a bundle.
    telemetry.sample_now();

    for bundle in telemetry.bundles() {
        print!("{}", bundle.render());
    }

    // The objective's state is its two gauges; the same bundles ride the
    // v6 JSON snapshot for offline tooling.
    let snap = telemetry.snapshot();
    let gauge = |name: &str| snap.registry.gauge(name).unwrap_or(0);
    println!(
        "\nclient_rtt: burn {:.2}x, budget remaining {:.1}%",
        gauge("slo.client_rtt.burn_rate") as f64 / 1000.0,
        gauge("slo.client_rtt.budget_remaining") as f64 / 10_000.0
    );
    println!("== JSON export ({} bytes) ==", snap.to_json().len());
    println!(
        "bundles: {}, flight events: {}",
        snap.bundles.len(),
        snap.events.len()
    );

    drop(client);
    drop(pool);
    server.stop();
    client_nic.shutdown();
    server_nic.shutdown();
    Ok(())
}
