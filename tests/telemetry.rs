//! Integration test of the unified telemetry layer: one multi-frame RPC
//! round trip must light up the Packet Monitor, the per-flow counters, and
//! every stage of the cross-stack RPC trace, and all of it must surface in
//! the JSON export.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dagger::idl::{dagger_message, dagger_service};
use dagger::nic::{MemFabric, Nic, UdpFabric};
use dagger::rpc::{RpcClientPool, RpcThreadedServer};
use dagger::telemetry::{FlightEventKind, SloSpec, Telemetry, STAGE_NAMES};
use dagger::types::{HardConfig, NodeAddr, Result};

dagger_message! {
    pub struct Blob {
        tag: u32,
        data: Vec<u8>,
    }
}

dagger_service! {
    pub service BlobSvc {
        handler = BlobHandler;
        dispatch = BlobDispatch;
        client = BlobClient;
        rpc echo(Blob) -> Blob = 1;
    }
}

struct EchoImpl;
impl BlobHandler for EchoImpl {
    fn echo(&self, request: Blob) -> Result<Blob> {
        Ok(request)
    }
}

#[test]
fn round_trip_populates_unified_telemetry() {
    // Both NICs share one telemetry hub: one registry, one trace epoch.
    let telemetry = Telemetry::new();
    telemetry.enable_tracing();
    // Declare a latency SLO up front: evaluated on every sampling pass,
    // surfaced as the `slo.<name>.{burn_rate,budget_remaining}` gauges.
    telemetry.register_slo(SloSpec::latency(
        "client_rtt",
        "rpc.client.rtt_ns",
        Duration::from_secs(5).as_nanos() as u64, // generous: the RPC must be "good"
        0.99,
    ));

    let fabric = MemFabric::new();
    let server_nic = Nic::start_with_telemetry(
        &fabric,
        NodeAddr(1),
        HardConfig::default(),
        Arc::clone(&telemetry),
    )
    .unwrap();
    let client_nic = Nic::start_with_telemetry(
        &fabric,
        NodeAddr(2),
        HardConfig::default(),
        Arc::clone(&telemetry),
    )
    .unwrap();

    let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
    server
        .register_service(Arc::new(BlobDispatch::new(EchoImpl)))
        .unwrap();
    server.start().unwrap();
    let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1).unwrap();
    let raw = pool.client(0).unwrap();
    let cid = raw.connection_id();
    let client = BlobClient::new(raw);

    // A >48-byte payload forces multi-frame fragmentation on both legs.
    let data: Vec<u8> = (0..200u32).map(|i| (i * 3) as u8).collect();
    let resp = client
        .echo(&Blob {
            tag: 7,
            data: data.clone(),
        })
        .unwrap();
    assert_eq!(resp.data, data);

    // The first RPC issued by a client has rpc id 1. HandlerDone is stamped
    // by the server thread just after the response hits the TX ring, so it
    // can trail the client's return by a beat — wait for completeness.
    let deadline = Instant::now() + Duration::from_secs(5);
    let breakdown = loop {
        let trace = telemetry.tracer().get(cid.raw(), 1).expect("trace exists");
        let b = trace.breakdown();
        if b.is_complete() || Instant::now() >= deadline {
            break b;
        }
        std::thread::yield_now();
    };
    assert!(breakdown.is_complete(), "breakdown: {breakdown:?}");
    for name in STAGE_NAMES {
        assert!(
            breakdown.stage(name).is_some(),
            "stage {name} missing: {breakdown:?}"
        );
    }
    assert!(breakdown.total_ns.unwrap() > 0);

    // Packet Monitor counters, straight from the shared monitors.
    let server_mon = server_nic.monitor().snapshot();
    assert!(server_mon.rx_frames >= 5, "rx {}", server_mon.rx_frames);
    assert!(server_mon.tx_frames >= 5, "tx {}", server_mon.tx_frames);

    // Per-flow counter banks on both sides (client flow carries the
    // request out; server flow 0 received it).
    let client_flow = client.inner().flow().raw() as usize;
    let cf = client_nic.monitor().flow_snapshot(client_flow).unwrap();
    assert!(cf.tx_frames >= 5, "client flow tx {}", cf.tx_frames);
    let sf = server_nic.monitor().flow_snapshot(0).unwrap();
    assert!(sf.rx_frames >= 5, "server flow rx {}", sf.rx_frames);

    // The registry snapshot carries the NIC collectors' gauges, the client
    // RTT histogram, and the server handler histogram. `snapshot()` also
    // forces an SLO evaluation pass, so the objective below has seen the
    // RPC that just completed.
    let snap = telemetry.snapshot();
    assert!(snap.registry.gauge("nic.2.tx_frames").unwrap() > 0);
    assert!(snap.registry.gauge("nic.1.rx_frames").unwrap() > 0);
    assert!(snap.registry.gauge("nic.1.flow.0.rx_frames").unwrap() > 0);
    let rtt = snap.registry.histogram("rpc.client.rtt_ns").unwrap();
    assert_eq!(rtt.count, 1);
    assert!(rtt.p99_ns > 0);
    let handler = snap.registry.histogram("rpc.server.handler_ns").unwrap();
    assert_eq!(handler.count, 1);
    assert_eq!(snap.registry.counter("rpc.server.requests"), Some(1));

    // The SLO declared up front was evaluated and its two gauges are its
    // whole state: one good RPC burns nothing (under 1000 milli is not in
    // breach) and spends no budget, and no crossing reached the flight
    // recorder.
    assert_eq!(snap.registry.gauge("slo.client_rtt.burn_rate"), Some(0));
    assert_eq!(
        snap.registry.gauge("slo.client_rtt.budget_remaining"),
        Some(1_000_000)
    );
    assert!(
        !snap.events.iter().any(|e| matches!(
            e.kind,
            FlightEventKind::SloBreach | FlightEventKind::SloRecover
        )),
        "a 5s threshold must not breach: {:?}",
        snap.events
    );

    // Tracing was on for the whole run, so the RTT sample carried its
    // client span as an exemplar: the tail of the histogram dereferences
    // to a concrete traced request.
    let rtt_exemplars = snap
        .exemplars
        .iter()
        .find(|(name, _)| name == "rpc.client.rtt_ns")
        .map(|(_, exs)| exs.as_slice())
        .expect("rtt exemplars");
    assert_eq!(rtt_exemplars.len(), 1, "{rtt_exemplars:?}");
    assert!(
        snap.spans
            .iter()
            .any(|s| s.trace_id == rtt_exemplars[0].trace_id
                && s.span_id == rtt_exemplars[0].span_id),
        "exemplar must resolve to a retained span: {rtt_exemplars:?}"
    );

    // The JSON export names every stage and the percentile fields. Schema
    // v6 is v5 less its `slo` section, as v5 was v4 less its `series`
    // section; every other v1–v4 key must remain, spelled exactly as
    // before, so existing consumers keep parsing.
    let json = snap.to_json();
    assert!(json.starts_with("{\"version\":6"), "{json}");
    assert!(!json.contains("\"series\""), "{json}");
    assert!(!json.contains("\"slo\""), "{json}");
    for v1_key in [
        "\"counters\":",
        "\"gauges\":",
        "\"histograms\":",
        "\"traces\":[",
        "\"dropped_traces\":",
    ] {
        assert!(json.contains(v1_key), "v1 key {v1_key} missing: {json}");
    }
    assert!(json.contains("\"spans\":["), "{json}");
    assert!(json.contains("\"dropped_spans\":"), "{json}");
    for v4_key in [
        "\"exemplars\":{",
        "\"events\":{\"entries\":[",
        "\"bundles\":{\"entries\":[",
    ] {
        assert!(json.contains(v4_key), "v4 key {v4_key} missing: {json}");
    }
    // The objective reaches the JSON through its gauges.
    assert!(json.contains("\"slo.client_rtt.burn_rate\":0"), "{json}");
    assert!(
        json.contains("\"slo.client_rtt.budget_remaining\":1000000"),
        "{json}"
    );
    for name in STAGE_NAMES {
        assert!(json.contains(&format!("\"{name}\"")), "missing {name}");
    }
    assert!(json.contains("p99_ns"), "{json}");
    assert!(json.contains("rpc.client.rtt_ns"), "{json}");
    assert!(json.contains("nic.1.flow.0.rx_frames"), "{json}");

    drop(client);
    drop(pool);
    server.stop();
    client_nic.shutdown();
    server_nic.shutdown();
}

/// The golden list of every `nic.*` / `fabric.*` gauge the stack exported
/// before the counter banks were unified (plus the per-queue driver
/// counters that joined since), expanded for a 2-queue, 2-flow
/// reliable NIC at address 1. Consumers (the perf ledger's
/// `gauge("reliable.sacked")`-style reads, dashboards) address gauges by
/// these exact names, so every one must still be present after a
/// collection; new names may join, none may leave.
#[test]
fn every_gauge_name_of_the_golden_list_is_still_exported() {
    const WHOLE_NIC: &[&str] = &[
        "tx_frames",
        "rx_frames",
        "tx_datagrams",
        "rx_datagrams",
        "rx_ring_drops",
        "unknown_connection_drops",
        "wire_drops",
        "reqbuf_backpressure",
        "cached_polls",
        "direct_polls",
        "tx_window_deferrals",
        "pool.hits",
        "pool.misses",
        "pool.recycled",
        "conncache.hits",
        "conncache.misses",
        "conncache.invalidations",
        "offload.hits",
        "offload.misses",
        "offload.fills",
        "offload.invalidations",
        "offload.evictions",
        "offload.stale_drops",
        "offload.bypass",
        "cm.open_connections",
        "cm.total_opened",
        "cm.spills",
        "cm.tx_port_hits",
        "cm.tx_port_misses",
        "cm.rx_port_hits",
        "cm.rx_port_misses",
        "reliable.retransmissions",
        "reliable.out_of_order_drops",
        "reliable.duplicate_drops",
        "reliable.wire_drops",
        "reliable.sacked",
        "reliable.wasted_retransmits",
    ];
    const PER_QUEUE: &[&str] = &[
        "tx_frames",
        "rx_frames",
        "tx_datagrams",
        "rx_datagrams",
        "host_steps",
        "thread_steps",
        "wakes_sent",
        "wakes_skipped",
        "reliable.sacked",
        "reliable.wasted_retransmits",
    ];
    const PER_FLOW: &[&str] = &["tx_frames", "rx_frames", "rx_ring_drops"];
    const FABRIC: &[&str] = &[
        "forwarded",
        "dropped",
        "reordered",
        "duplicated",
        "corrupted",
        "delayed",
        "partition_drops",
    ];

    let telemetry = Telemetry::new();
    let fabric = MemFabric::new();
    fabric.register_telemetry(&telemetry);
    let cfg = HardConfig {
        num_flows: 2,
        num_queues: 2,
        reliable: true,
        ..HardConfig::default()
    };
    let nic = Nic::start_with_telemetry(&fabric, NodeAddr(1), cfg, Arc::clone(&telemetry)).unwrap();

    let mut golden: Vec<String> = Vec::new();
    golden.extend(WHOLE_NIC.iter().map(|n| format!("nic.1.{n}")));
    for i in 0..2 {
        golden.extend(PER_QUEUE.iter().map(|n| format!("nic.1.q{i}.{n}")));
        golden.extend(PER_FLOW.iter().map(|n| format!("nic.1.flow.{i}.{n}")));
    }
    golden.extend(FABRIC.iter().map(|n| format!("fabric.{n}")));

    telemetry.collect();
    let registry = telemetry.registry().snapshot();
    let missing: Vec<&String> = golden
        .iter()
        .filter(|name| registry.gauge(name).is_none())
        .collect();
    assert!(missing.is_empty(), "gauges no longer exported: {missing:?}");
    nic.shutdown();

    // The fault layer is the switch's, not the wire's: the UDP fabric
    // exports the same `fabric.*` names through the same code.
    let telemetry = Telemetry::new();
    UdpFabric::new().register_telemetry(&telemetry);
    telemetry.collect();
    let registry = telemetry.registry().snapshot();
    let missing: Vec<&&str> = FABRIC
        .iter()
        .filter(|n| registry.gauge(&format!("fabric.{n}")).is_none())
        .collect();
    assert!(missing.is_empty(), "UdpFabric does not export: {missing:?}");
}
