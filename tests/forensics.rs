//! Tail-latency forensics, end to end: a scripted partition under a
//! latency SLO must produce a diagnosis bundle whose exemplar trace's
//! critical path attributes the tail to the injected fault window.
//!
//! The scenario is fully deterministic in its assertions: the slow call is
//! issued *while* the fabric is partitioned and cannot complete before the
//! heal, so its RTT is bounded below by the partition hold time — far
//! above the SLO threshold — while the healthy calls stay loopback-fast,
//! far below it.

use std::sync::Arc;
use std::time::Duration;

use dagger::idl::{dagger_message, dagger_service};
use dagger::nic::{MemFabric, Nic};
use dagger::rpc::{RpcClientPool, RpcThreadedServer};
use dagger::telemetry::{FlightEventKind, SloSpec, SpanKind, Telemetry};
use dagger::types::{HardConfig, NodeAddr, Result};

dagger_message! {
    pub struct Blob {
        tag: u32,
        data: Vec<u8>,
    }
}

dagger_service! {
    pub service Forensic {
        handler = ForensicHandler;
        dispatch = ForensicDispatch;
        client = ForensicClient;
        rpc echo(Blob) -> Blob = 1, async = echo_async;
    }
}

struct EchoImpl;
impl ForensicHandler for EchoImpl {
    fn echo(&self, request: Blob) -> Result<Blob> {
        Ok(request)
    }
}

/// SLO threshold: generous against loopback latency, tiny against the
/// partition hold below.
const THRESHOLD_NS: u64 = Duration::from_millis(50).as_nanos() as u64;
/// How long the fabric stays partitioned with the slow call in flight.
const PARTITION_HOLD: Duration = Duration::from_millis(150);

#[test]
fn partition_breach_produces_attributing_bundle() {
    let telemetry = Telemetry::new();
    telemetry.enable_tracing();
    telemetry.register_slo(SloSpec::latency(
        "client_rtt",
        "rpc.client.rtt_ns",
        THRESHOLD_NS,
        0.99,
    ));

    let fabric = MemFabric::new();
    fabric.register_telemetry(&telemetry);
    let cfg = HardConfig {
        reliable: true,
        ..HardConfig::default()
    };
    let server_nic =
        Nic::start_with_telemetry(&fabric, NodeAddr(1), cfg.clone(), Arc::clone(&telemetry))
            .unwrap();
    let client_nic =
        Nic::start_with_telemetry(&fabric, NodeAddr(2), cfg, Arc::clone(&telemetry)).unwrap();

    let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
    server
        .register_service(Arc::new(ForensicDispatch::new(EchoImpl)))
        .unwrap();
    server.start().unwrap();
    let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1).unwrap();
    let raw = pool.client(0).unwrap();
    raw.set_timeout(Duration::from_secs(10));
    let client = ForensicClient::new(raw);

    let data: Vec<u8> = (0..100u32).map(|i| (i * 7) as u8).collect();
    let blob = Blob {
        tag: 1,
        data: data.clone(),
    };

    // Healthy baseline: loopback-fast calls, all well under the threshold.
    for _ in 0..5 {
        let resp = client.echo(&blob).unwrap();
        assert_eq!(resp.data, data);
    }

    // The injected fault window, bracketed in flight-recorder ticks.
    let tick_cut = telemetry.tick_now();
    fabric.partition(NodeAddr(1), NodeAddr(2));
    // Issued while partitioned: the request blackholes, the reliable layer
    // retransmits, and the call cannot complete before the heal.
    let pending = client.echo_async(&blob).unwrap();
    std::thread::sleep(PARTITION_HOLD);
    fabric.heal(NodeAddr(1), NodeAddr(2));
    let tick_healed = telemetry.tick_now();
    let resp = pending.wait().unwrap();
    assert_eq!(resp.data, data);

    // The sampling pass sees 1 bad / 6 total against a 99% objective
    // (burn ≈ 16x): breach, flight event, and a frozen diagnosis bundle.
    telemetry.sample_now();
    let bundles = telemetry.bundles();
    let bundle = bundles
        .iter()
        .find(|b| b.slo == "client_rtt")
        .expect("breach must freeze a diagnosis bundle");
    assert_eq!(bundle.threshold_ns, THRESHOLD_NS);
    assert!(bundle.burn_milli >= 1000, "burn {}", bundle.burn_milli);

    // Tail-bucket exemplars: only the slow call qualifies, and its sample
    // is bounded below by the partition hold.
    assert!(!bundle.exemplars.is_empty());
    for ex in &bundle.exemplars {
        assert!(ex.value > THRESHOLD_NS, "exemplar below threshold: {ex:?}");
    }
    let tail = &bundle.exemplars[0];
    assert!(
        tail.value >= PARTITION_HOLD.as_nanos() as u64,
        "tail sample {}ns must cover the {}ms partition hold",
        tail.value,
        PARTITION_HOLD.as_millis()
    );

    // The injected fault is in the bundle's flight slice, inside the
    // bracketed window (SLO breach events ride the same recorder).
    let cut = bundle
        .events
        .iter()
        .find(|e| e.kind == FlightEventKind::Partition)
        .expect("partition event in the breach slice");
    assert!(
        cut.tick >= tick_cut && cut.tick <= tick_healed,
        "partition at tick {} outside injected window [{tick_cut}, {tick_healed}]",
        cut.tick
    );
    assert!(
        bundle
            .events
            .iter()
            .any(|e| e.kind == FlightEventKind::Heal),
        "heal event in the breach slice: {:?}",
        bundle.events
    );
    assert!(
        bundle
            .events
            .iter()
            .any(|e| e.kind == FlightEventKind::SloBreach),
        "breach marker in the slice: {:?}",
        bundle.events
    );

    // The exemplar resolves to a full trace tree whose critical path
    // attributes the tail to the client-side wait across the partition:
    // the longest segment is client-kind and spans (at least) the hold,
    // while the server handler contributed only microseconds.
    let trace = bundle
        .traces
        .iter()
        .find(|t| t.trace_id == tail.trace_id)
        .expect("exemplar trace resolved in bundle");
    assert!(
        trace.duration_ns >= PARTITION_HOLD.as_nanos() as u64,
        "trace {}ns shorter than the partition hold",
        trace.duration_ns
    );
    assert!(!trace.critical_path.is_empty());
    let longest = trace
        .critical_path
        .iter()
        .max_by_key(|seg| seg.end_ns - seg.start_ns)
        .unwrap();
    assert_eq!(
        longest.kind,
        SpanKind::Client,
        "tail must be attributed to the client wait, not the handler: {:?}",
        trace.critical_path
    );
    assert!(
        longest.end_ns - longest.start_ns >= (PARTITION_HOLD.as_nanos() as u64) / 2,
        "dominant critical-path segment too short: {:?}",
        trace.critical_path
    );

    // Schema v6 round trip: the bundle is in the JSON export and every
    // pre-v4 key that v6 keeps is still spelled exactly as before.
    let snap = telemetry.snapshot();
    let json = snap.to_json();
    assert!(json.starts_with("{\"version\":6"), "{json}");
    assert!(
        json.contains("\"bundles\":{\"entries\":[{\"slo\":\"client_rtt\""),
        "{json}"
    );
    assert!(json.contains("\"kind\":\"partition\""), "{json}");
    for stable_key in [
        "\"counters\":{",
        "\"gauges\":{",
        "\"histograms\":{",
        "\"traces\":[",
        "\"dropped_traces\":",
        "\"spans\":[",
        "\"dropped_spans\":",
        "\"threshold_ns\":50000000,\"window_bad\":",
    ] {
        assert!(json.contains(stable_key), "missing {stable_key}: {json}");
    }

    drop(client);
    drop(pool);
    server.stop();
    client_nic.shutdown();
    server_nic.shutdown();
}
