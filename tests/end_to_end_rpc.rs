//! End-to-end integration tests of the Dagger RPC stack: IDL-defined
//! services over real NICs, rings, and the in-process fabric.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dagger::idl::{dagger_message, dagger_service};
use dagger::nic::{MemFabric, Nic};
use dagger::rpc::{
    RpcClientPool, RpcService, RpcThreadedServer, ServiceDescriptor, ThreadingModel,
    MAX_RPC_PAYLOAD,
};
use dagger::telemetry::Telemetry;
use dagger::types::{FnId, HardConfig, LbPolicy, NodeAddr, Result};

dagger_message! {
    pub struct EchoRequest {
        tag: u32,
        blob: Vec<u8>,
    }
}

dagger_message! {
    pub struct EchoResponse {
        tag: u32,
        blob: Vec<u8>,
    }
}

dagger_message! {
    pub struct AddRequest {
        a: i64,
        b: i64,
    }
}

dagger_message! {
    pub struct AddResponse {
        sum: i64,
    }
}

dagger_service! {
    pub service TestSvc {
        handler = TestSvcHandler;
        dispatch = TestSvcDispatch;
        client = TestSvcClient;
        rpc echo(EchoRequest) -> EchoResponse = 1, async = echo_async;
        rpc add(AddRequest) -> AddResponse = 2, async = add_async;
        rpc fail(AddRequest) -> AddResponse = 3;
    }
}

struct TestSvcImpl;

impl TestSvcHandler for TestSvcImpl {
    fn echo(&self, request: EchoRequest) -> Result<EchoResponse> {
        Ok(EchoResponse {
            tag: request.tag,
            blob: request.blob,
        })
    }

    fn add(&self, request: AddRequest) -> Result<AddResponse> {
        Ok(AddResponse {
            sum: request.a + request.b,
        })
    }

    fn fail(&self, _request: AddRequest) -> Result<AddResponse> {
        Err(dagger::types::DaggerError::Config(
            "intentional handler failure".to_string(),
        ))
    }
}

struct Deployment {
    server: RpcThreadedServer,
    client_nic: Arc<Nic>,
    server_nic: Arc<Nic>,
}

fn deploy(threading: ThreadingModel, server_threads: usize) -> (Deployment, RpcClientPool) {
    let fabric = MemFabric::new();
    let server_nic = Nic::start(&fabric, NodeAddr(1), HardConfig::default()).unwrap();
    let client_nic = Nic::start(&fabric, NodeAddr(2), HardConfig::default()).unwrap();
    let mut server =
        RpcThreadedServer::with_threading(Arc::clone(&server_nic), server_threads, threading);
    server
        .register_service(Arc::new(TestSvcDispatch::new(TestSvcImpl)))
        .unwrap();
    server.start().unwrap();
    let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 2).unwrap();
    (
        Deployment {
            server,
            client_nic,
            server_nic,
        },
        pool,
    )
}

impl Deployment {
    fn teardown(mut self) {
        self.server.stop();
        self.client_nic.shutdown();
        self.server_nic.shutdown();
    }
}

#[test]
fn sync_calls_roundtrip() {
    let (dep, pool) = deploy(ThreadingModel::Dispatch, 1);
    let client = TestSvcClient::new(pool.client(0).unwrap());
    for i in 0..50u32 {
        let resp = client
            .echo(&EchoRequest {
                tag: i,
                blob: vec![i as u8; 16],
            })
            .unwrap();
        assert_eq!(resp.tag, i);
        assert_eq!(resp.blob, vec![i as u8; 16]);
    }
    let sum = client.add(&AddRequest { a: 40, b: 2 }).unwrap();
    assert_eq!(sum.sum, 42);
    drop(pool);
    dep.teardown();
}

#[test]
fn async_calls_and_completion_order() {
    let (dep, pool) = deploy(ThreadingModel::Dispatch, 1);
    let client = TestSvcClient::new(pool.client(0).unwrap());
    let calls: Vec<_> = (0..20u32)
        .map(|i| {
            client
                .echo_async(&EchoRequest {
                    tag: i,
                    blob: vec![],
                })
                .unwrap()
        })
        .collect();
    // Await out of issue order: completions are matched by rpc id.
    for (i, call) in calls.into_iter().enumerate().rev() {
        let resp = call.wait().unwrap();
        assert_eq!(resp.tag, i as u32);
    }
    drop(pool);
    dep.teardown();
}

#[test]
fn completion_queue_with_callbacks() {
    let (dep, pool) = deploy(ThreadingModel::Dispatch, 1);
    let rpc_client = pool.client(0).unwrap();
    let cq = rpc_client.completion_queue();
    let hits = Arc::new(std::sync::atomic::AtomicU32::new(0));

    let typed = TestSvcClient::new(Arc::clone(&rpc_client));
    let mut plain_ids = Vec::new();
    for i in 0..6u32 {
        let call = typed
            .echo_async(&EchoRequest {
                tag: i,
                blob: vec![],
            })
            .unwrap();
        if i % 2 == 0 {
            let hits = Arc::clone(&hits);
            cq.on_completion(call.rpc_id(), move |outcome| {
                assert!(outcome.is_ok());
                hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
        } else {
            plain_ids.push(call.rpc_id());
        }
    }
    let completed = cq.wait_for(6, Duration::from_secs(5)).unwrap();
    assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 3);
    let mut got: Vec<_> = completed.iter().map(|(id, _)| *id).collect();
    got.sort();
    plain_ids.sort();
    assert_eq!(got, plain_ids);
    drop(pool);
    dep.teardown();
}

#[test]
fn handler_errors_propagate_to_caller() {
    let (dep, pool) = deploy(ThreadingModel::Dispatch, 1);
    let client = TestSvcClient::new(pool.client(0).unwrap());
    let err = client.fail(&AddRequest { a: 1, b: 2 }).unwrap_err();
    assert!(
        err.to_string().contains("intentional handler failure"),
        "{err}"
    );
    // The connection still works afterwards.
    assert_eq!(client.add(&AddRequest { a: 2, b: 3 }).unwrap().sum, 5);
    drop(pool);
    dep.teardown();
}

/// Answers fn 1 with `MAX_RPC_PAYLOAD` bytes — one byte more than a
/// response can carry once its status byte is added — and echoes fn 2.
struct Oversize;

impl RpcService for Oversize {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::new("oversize", vec![FnId(1), FnId(2)])
    }

    fn dispatch(&self, fn_id: FnId, payload: &[u8]) -> Result<Vec<u8>> {
        Ok(match fn_id.raw() {
            1 => vec![0; MAX_RPC_PAYLOAD],
            _ => payload.to_vec(),
        })
    }
}

#[test]
fn a_response_too_large_to_send_fails_its_call_at_once() {
    let telemetry = Telemetry::new();
    let fabric = MemFabric::new();
    let server_nic = Nic::start_with_telemetry(
        &fabric,
        NodeAddr(1),
        HardConfig::default(),
        Arc::clone(&telemetry),
    )
    .unwrap();
    let client_nic = Nic::start(&fabric, NodeAddr(2), HardConfig::default()).unwrap();
    let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
    server.register_service(Arc::new(Oversize)).unwrap();
    server.start().unwrap();
    let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1).unwrap();
    let client = pool.client(0).unwrap();

    // The caller gets an error naming the limit, well inside its 5 s
    // timeout, instead of waiting the timeout out.
    let started = Instant::now();
    let err = client.call_sync(FnId(1), &[]).unwrap_err();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "took {:?}: {err}",
        started.elapsed()
    );
    assert!(
        err.to_string()
            .contains(&format!("exceeds maximum {MAX_RPC_PAYLOAD}")),
        "{err}"
    );
    // Both error counters saw it.
    assert_eq!(server.stats().handler_errors, 1);
    assert_eq!(
        telemetry
            .registry()
            .snapshot()
            .counter("rpc.server.handler_errors"),
        Some(1)
    );
    // The connection still works afterwards.
    assert_eq!(client.call_sync(FnId(2), b"small").unwrap(), b"small");

    drop(client);
    drop(pool);
    server.stop();
    client_nic.shutdown();
    server_nic.shutdown();
}

#[test]
fn multi_frame_payloads_roundtrip() {
    let (dep, pool) = deploy(ThreadingModel::Dispatch, 1);
    let client = TestSvcClient::new(pool.client(0).unwrap());
    for size in [0usize, 1, 47, 48, 49, 500, 4_000, 12_000] {
        let blob: Vec<u8> = (0..size).map(|i| (i * 7) as u8).collect();
        let resp = client
            .echo(&EchoRequest {
                tag: size as u32,
                blob: blob.clone(),
            })
            .unwrap();
        assert_eq!(resp.blob, blob, "payload size {size}");
    }
    drop(pool);
    dep.teardown();
}

#[test]
fn worker_threading_model_serves_correctly() {
    let (dep, pool) = deploy(ThreadingModel::Worker { workers: 2 }, 1);
    let client = TestSvcClient::new(pool.client(0).unwrap());
    for i in 0..30i64 {
        assert_eq!(client.add(&AddRequest { a: i, b: i }).unwrap().sum, 2 * i);
    }
    drop(pool);
    dep.teardown();
}

#[test]
fn srq_shared_flow_clients() {
    let fabric = MemFabric::new();
    let server_nic = Nic::start(&fabric, NodeAddr(1), HardConfig::default()).unwrap();
    let client_nic = Nic::start(&fabric, NodeAddr(2), HardConfig::default()).unwrap();
    let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
    server
        .register_service(Arc::new(TestSvcDispatch::new(TestSvcImpl)))
        .unwrap();
    server.start().unwrap();
    // Three connections share one flow's rings (the SRQ model of §4.2).
    let pool = RpcClientPool::connect_shared(
        Arc::clone(&client_nic),
        NodeAddr(1),
        1,
        3,
        LbPolicy::Uniform,
    )
    .unwrap();
    assert_eq!(pool.len(), 3);
    let flows: std::collections::HashSet<u16> = pool.iter().map(|c| c.flow().raw()).collect();
    assert_eq!(flows.len(), 1, "all clients share the flow");
    for (i, c) in pool.iter().enumerate() {
        let client = TestSvcClient::new(Arc::clone(c));
        let resp = client
            .add(&AddRequest {
                a: i as i64,
                b: 100,
            })
            .unwrap();
        assert_eq!(resp.sum, i as i64 + 100);
    }
    server.stop();
    client_nic.shutdown();
    server_nic.shutdown();
}

#[test]
fn concurrent_clients_on_distinct_flows() {
    let (dep, pool) = deploy(ThreadingModel::Dispatch, 1);
    let c0 = pool.client(0).unwrap();
    let c1 = pool.client(1).unwrap();
    assert_ne!(c0.flow(), c1.flow());
    let t0 = std::thread::spawn(move || {
        let client = TestSvcClient::new(c0);
        for i in 0..40i64 {
            assert_eq!(client.add(&AddRequest { a: i, b: 1 }).unwrap().sum, i + 1);
        }
    });
    let t1 = std::thread::spawn(move || {
        let client = TestSvcClient::new(c1);
        for i in 0..40i64 {
            assert_eq!(client.add(&AddRequest { a: i, b: 2 }).unwrap().sum, i + 2);
        }
    });
    t0.join().unwrap();
    t1.join().unwrap();
    let stats = dep.server.stats();
    assert!(stats.handled >= 80, "handled {}", stats.handled);
    assert_eq!(stats.handler_errors, 0);
    drop(pool);
    dep.teardown();
}

#[test]
fn monitor_counts_traffic() {
    let (dep, pool) = deploy(ThreadingModel::Dispatch, 1);
    let client = TestSvcClient::new(pool.client(0).unwrap());
    for i in 0..10u32 {
        client
            .echo(&EchoRequest {
                tag: i,
                blob: vec![],
            })
            .unwrap();
    }
    let snap = dep.server_nic.monitor().snapshot();
    assert!(snap.rx_frames >= 10, "rx {}", snap.rx_frames);
    assert!(snap.tx_frames >= 10, "tx {}", snap.tx_frames);
    drop(pool);
    dep.teardown();
}
