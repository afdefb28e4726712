//! Two-process deployment over the [`UdpFabric`] backend: a server NIC in
//! one process, a client NIC in another, RPCs crossing a real socket.
//!
//! Everything above the fabric seam — IDL stubs, the RPC layer, the NIC
//! engines, the reliable transport — is exactly the code the
//! in-memory examples run; only the fabric construction differs.
//!
//! ```sh
//! # Terminal 1: bind a UDP socket and print the chosen port.
//! cargo run --release --example udp_pair -- server
//! # -> PORT=54321
//!
//! # Terminal 2 (same or another host; swap 127.0.0.1 accordingly):
//! cargo run --release --example udp_pair -- client 127.0.0.1:54321
//! ```
//!
//! The client verifies every echo byte-for-byte and finishes with a
//! sentinel call that tells the server to exit, so the pair also runs
//! unattended (see `tests/udp_pair_proc.rs`).

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dagger::idl::{dagger_message, dagger_service};
use dagger::nic::{Fabric, Nic, UdpFabric};
use dagger::rpc::{RpcClientPool, RpcThreadedServer};
use dagger::types::{HardConfig, NodeAddr, Result};

dagger_message! {
    pub struct Ping {
        seq: u32,
        payload: Vec<u8>,
    }
}

dagger_service! {
    pub service PairSvc {
        handler = PairHandler;
        dispatch = PairDispatch;
        client = PairClient;
        rpc ping(Ping) -> Ping = 1;
    }
}

/// The client's final call carries this sequence number; the server echoes
/// it like any other and then shuts down.
const BYE: u32 = u32::MAX;

const SERVER_NODE: NodeAddr = NodeAddr(1);
const CLIENT_NODE: NodeAddr = NodeAddr(2);

/// Single engine queue on both sides: the minimal deployment keeps routing
/// trivial (a multi-queue peer must be declared with its real queue count,
/// see `UdpFabric::set_peer`).
fn pair_cfg() -> HardConfig {
    HardConfig {
        reliable: true,
        num_queues: 1,
        ..HardConfig::default()
    }
}

struct EchoImpl {
    done: Arc<AtomicBool>,
}

impl PairHandler for EchoImpl {
    fn ping(&self, request: Ping) -> Result<Ping> {
        if request.seq == BYE {
            self.done.store(true, Ordering::Release);
        }
        Ok(request)
    }
}

fn run_server(bind: &str) -> Result<()> {
    let fabric = UdpFabric::new();
    fabric.bind_addr(SERVER_NODE, bind.parse().expect("bind address parses"));
    let nic = Nic::start(&fabric, SERVER_NODE, pair_cfg())?;
    let addr = fabric
        .local_addr(SERVER_NODE)
        .expect("server NIC is attached");
    // The contact line the client (and the spawn-helper test) waits for.
    println!("PORT={}", addr.port());
    std::io::stdout().flush().ok();

    let done = Arc::new(AtomicBool::new(false));
    let mut server = RpcThreadedServer::new(Arc::clone(&nic), 1);
    server.register_service(Arc::new(PairDispatch::new(EchoImpl {
        done: Arc::clone(&done),
    })))?;
    server.start()?;

    while !done.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(10));
    }
    // Give the sentinel's response a moment to cross the wire before the
    // engines stop.
    std::thread::sleep(Duration::from_millis(50));
    server.stop();
    nic.shutdown();
    fabric.quiesce();
    println!("server: done");
    Ok(())
}

fn run_client(server: &str, calls: u32) -> Result<()> {
    let fabric = UdpFabric::new();
    fabric.set_peer(
        SERVER_NODE,
        server.parse().expect("server address parses"),
        1,
    );
    let nic = Nic::start(&fabric, CLIENT_NODE, pair_cfg())?;
    let pool = RpcClientPool::connect(Arc::clone(&nic), SERVER_NODE, 1)?;
    let raw = pool.client(0)?;
    raw.set_timeout(Duration::from_secs(20));
    let client = PairClient::new(raw);

    for seq in 0..calls {
        let payload = vec![seq as u8; 256];
        let resp = client.ping(&Ping {
            seq,
            payload: payload.clone(),
        })?;
        assert_eq!(resp.seq, seq, "response for wrong call");
        assert_eq!(resp.payload, payload, "payload mangled on the wire");
    }
    // Tell the server we are done (echoed like any other call).
    client.ping(&Ping {
        seq: BYE,
        payload: Vec::new(),
    })?;

    drop(client);
    drop(pool);
    nic.shutdown();
    fabric.quiesce();
    println!("OK {calls}");
    Ok(())
}

fn main() -> Result<()> {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("server") => run_server(args.get(2).map_or("127.0.0.1:0", String::as_str)),
        Some("client") => {
            let server = args.get(2).expect("usage: udp_pair client <addr> [calls]");
            let calls = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(32);
            run_client(server, calls)
        }
        _ => {
            eprintln!("usage: udp_pair server [bind-addr] | udp_pair client <server-addr> [calls]");
            std::process::exit(2);
        }
    }
}
