//! Failure-injection integration tests: the reliable transport
//! (the §4.5 follow-up work) over a fabric that deterministically drops
//! frames.
//!
//! These scenarios run over [`MemFabric`] on purpose: loss rates,
//! partitions, and heal timing are scripted through the switch's fault
//! layer, and only the in-memory wire adds no loss or timing of its own.
//! The backend-portable invariants (exactly-once, per-flow FIFO, telemetry
//! reconciliation, and the same fault layer over UDP) live in
//! `tests/transport_conformance.rs`, built on the same shared harness
//! (`tests/common/mod.rs`) this file draws its service definition from.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{reliable_cfg, Conf, ConformClient, ConformDispatch, ConformHandler};
use dagger::nic::{Fabric, MemFabric, Nic};
use dagger::rpc::{RpcClientPool, RpcThreadedServer};
use dagger::types::{DaggerError, HardConfig, NodeAddr, Result};

struct EchoImpl;
impl ConformHandler for EchoImpl {
    fn echo(&self, request: Conf) -> Result<Conf> {
        Ok(request)
    }
}

fn probe(seq: u32, body: Vec<u8>) -> Conf {
    Conf {
        client: 0,
        seq,
        body,
    }
}

#[test]
fn reliable_nics_survive_heavy_loss() {
    // Drop 25% of all frames, both directions.
    let fabric = MemFabric::with_loss(0.25, 42);
    let server_nic = Nic::start(&fabric, NodeAddr(1), reliable_cfg()).unwrap();
    let client_nic = Nic::start(&fabric, NodeAddr(2), reliable_cfg()).unwrap();
    let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
    server
        .register_service(Arc::new(ConformDispatch::new(EchoImpl)))
        .unwrap();
    server.start().unwrap();

    let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1).unwrap();
    let raw = pool.client(0).unwrap();
    raw.set_timeout(Duration::from_secs(20));
    let client = ConformClient::new(raw);

    for seq in 0..60u32 {
        let resp = client
            .echo(&probe(seq, vec![seq as u8; 100])) // multi-frame payload
            .unwrap_or_else(|e| panic!("call {seq} failed under loss: {e}"));
        assert_eq!(resp.seq, seq);
        assert_eq!(resp.body, vec![seq as u8; 100]);
    }
    assert!(
        fabric.dropped_frames() > 10,
        "loss injection saw only {} drops",
        fabric.dropped_frames()
    );
    server.stop();
    drop(pool);
    client_nic.shutdown();
    server_nic.shutdown();
}

#[test]
fn unreliable_nics_lose_calls_under_loss() {
    let fabric = MemFabric::with_loss(0.3, 7);
    let server_nic = Nic::start(&fabric, NodeAddr(1), HardConfig::default()).unwrap();
    let client_nic = Nic::start(&fabric, NodeAddr(2), HardConfig::default()).unwrap();
    let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
    server
        .register_service(Arc::new(ConformDispatch::new(EchoImpl)))
        .unwrap();
    server.start().unwrap();

    // Connection setup itself is retried (control frames), so it succeeds
    // even without the reliable transport.
    let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1).unwrap();
    let raw = pool.client(0).unwrap();
    raw.set_timeout(Duration::from_millis(200));
    let client = ConformClient::new(raw);

    let mut failures = 0;
    for seq in 0..30u32 {
        if client.echo(&probe(seq, vec![1; 32])).is_err() {
            failures += 1;
        }
    }
    assert!(
        failures > 0,
        "30% frame loss without reliability must lose some calls"
    );
    server.stop();
    drop(pool);
    client_nic.shutdown();
    server_nic.shutdown();
}

#[test]
fn partitioned_peer_times_out_on_sync_and_async_paths() {
    let fabric = MemFabric::new();
    let server_nic = Nic::start(&fabric, NodeAddr(1), reliable_cfg()).unwrap();
    let client_nic = Nic::start(&fabric, NodeAddr(2), reliable_cfg()).unwrap();
    let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
    server
        .register_service(Arc::new(ConformDispatch::new(EchoImpl)))
        .unwrap();
    server.start().unwrap();

    let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1).unwrap();
    let raw = pool.client(0).unwrap();
    let client = ConformClient::new(Arc::clone(&raw));

    // Healthy warm-up call so the connection is fully established.
    assert_eq!(client.echo(&probe(0, vec![])).unwrap().seq, 0);

    // Cut the link and shrink the deadline so the test stays fast.
    fabric.partition(NodeAddr(1), NodeAddr(2));
    raw.set_timeout(Duration::from_millis(250));

    // Sync path: the call must surface Timeout, not hang or panic.
    let err = client
        .echo(&probe(1, vec![2; 64]))
        .expect_err("sync call across a partition must fail");
    assert!(
        matches!(err, DaggerError::Timeout),
        "expected Timeout, got {err:?}"
    );

    // Async path: issue succeeds (TX ring accepts), the wait times out.
    let pending = client
        .echo_async(&probe(2, vec![3; 64]))
        .expect("async issue writes the TX ring even when partitioned");
    let err = pending.wait().expect_err("async wait must time out");
    assert!(
        matches!(err, DaggerError::Timeout),
        "expected Timeout, got {err:?}"
    );

    // Timed-out calls must not strand responses in the completion path.
    assert_eq!(
        raw.endpoint().ready_len(),
        0,
        "completion queue must be drained after timeouts"
    );
    assert!(
        fabric.fault_stats().partition_drops > 0,
        "partition must have blackholed the request frames"
    );

    // Heal: the same client recovers without reconnecting.
    fabric.heal(NodeAddr(1), NodeAddr(2));
    raw.set_timeout(Duration::from_secs(20));
    let resp = client
        .echo(&probe(3, vec![4; 64]))
        .expect("call after heal must succeed");
    assert_eq!(resp.seq, 3);
    assert_eq!(raw.endpoint().ready_len(), 0);

    server.stop();
    drop(client);
    drop(raw);
    drop(pool);
    client_nic.shutdown();
    server_nic.shutdown();
}

#[test]
fn shutdown_flushes_window_deferred_datagrams() {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Instant;

    struct CountingEcho(Arc<AtomicU32>);
    impl ConformHandler for CountingEcho {
        fn echo(&self, request: Conf) -> Result<Conf> {
            self.0.fetch_add(1, Ordering::SeqCst);
            Ok(request)
        }
    }

    let fabric = MemFabric::new();
    // The forced shutdown flush dumps the whole backlog at once with no
    // live sender left to repair receiver-side drops, so the server gets a
    // deep RX ring that absorbs the entire burst.
    let server_cfg = HardConfig::builder()
        .reliable(true)
        .rx_ring_capacity(4096)
        .build()
        .unwrap();
    let server_nic = Nic::start(&fabric, NodeAddr(1), server_cfg).unwrap();
    let client_nic = Nic::start(&fabric, NodeAddr(2), reliable_cfg()).unwrap();
    let served = Arc::new(AtomicU32::new(0));
    let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
    server
        .register_service(Arc::new(ConformDispatch::new(CountingEcho(Arc::clone(
            &served,
        )))))
        .unwrap();
    server.start().unwrap();

    let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1).unwrap();
    let raw = pool.client(0).unwrap();
    let client = ConformClient::new(Arc::clone(&raw));

    // Healthy warm-up call so the connection is fully established.
    assert_eq!(client.echo(&probe(0, vec![])).unwrap().seq, 0);

    // Cut the link: acks stop, so the send window fills and the engine
    // starts deferring datagrams to `pending_out`.
    fabric.partition(NodeAddr(1), NodeAddr(2));
    const CALLS: u32 = 12;
    let mut pending = Vec::new();
    for seq in 1..=CALLS {
        pending.push(
            client
                .echo_async(&probe(seq, vec![seq as u8; 4096]))
                .expect("async issue writes the TX ring even when partitioned"),
        );
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while client_nic.monitor().snapshot().tx_window_deferrals == 0 {
        assert!(
            Instant::now() < deadline,
            "window never filled: no TX deferrals recorded"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Heal and shut the client NIC down immediately — before ack round-trips
    // can reopen the window, and before dropping the client (whose Drop
    // closes the connection, which would void the frames still queued in
    // the TX ring). The engine's stop path must fetch those frames,
    // retransmit the unacked window, and then flush the deferred datagrams
    // onto the wire; the old stop path silently dropped `pending_out`.
    fabric.heal(NodeAddr(1), NodeAddr(2));
    client_nic.shutdown();
    drop(pending);
    drop(client);
    drop(raw);
    drop(pool);

    // Every probe (warm-up + all deferred calls) reaches the server even
    // though the client engine is gone.
    let total = 1 + CALLS;
    let deadline = Instant::now() + Duration::from_secs(20);
    while served.load(Ordering::SeqCst) < total {
        assert!(
            Instant::now() < deadline,
            "server saw only {}/{} probes after client shutdown; server monitor: {:?}",
            served.load(Ordering::SeqCst),
            total,
            server_nic.monitor().snapshot()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    server.stop();
    server_nic.shutdown();

    // The shutdown paths quiesced the fabric (frames held by fault
    // injection were force-released into their destination queues), so
    // nothing is left in flight; a further quiesce is idempotent.
    assert_eq!(
        fabric.in_flight(),
        0,
        "frames still held by the fabric after both NICs shut down"
    );
    fabric.quiesce();
    assert_eq!(fabric.in_flight(), 0);
}

#[test]
fn reliable_mode_is_transparent_without_loss() {
    let fabric = MemFabric::new();
    let server_nic = Nic::start(&fabric, NodeAddr(1), reliable_cfg()).unwrap();
    let client_nic = Nic::start(&fabric, NodeAddr(2), reliable_cfg()).unwrap();
    let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
    server
        .register_service(Arc::new(ConformDispatch::new(EchoImpl)))
        .unwrap();
    server.start().unwrap();
    let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1).unwrap();
    let client = ConformClient::new(pool.client(0).unwrap());
    for seq in 0..50u32 {
        assert_eq!(client.echo(&probe(seq, vec![])).unwrap().seq, seq);
    }
    server.stop();
    drop(pool);
    client_nic.shutdown();
    server_nic.shutdown();
}
