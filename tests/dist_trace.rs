//! Integration tests of distributed tracing over real rings: trace context
//! propagates across the wire into nested calls, the 8-tier Flight service
//! yields one connected trace tree per journey, and the analysis layer
//! (critical path, waterfall, Chrome export, Fig. 3 attribution) runs on
//! live spans. Tracing disabled must add zero wire bytes.

use std::sync::Arc;

use dagger::nic::{MemFabric, Nic};
use dagger::rpc::frag::message_header;
use dagger::rpc::{fragment, fragment_into, RpcClientPool, RpcThreadedServer};
use dagger::services::flight::{FlightApp, FlightConfig};
use dagger::telemetry::{
    assemble, chrome_trace_json, fig3_report, render_waterfall, SpanKind, Telemetry, TraceTree,
};
use dagger::types::{ConnectionId, FlowId, FnId, HardConfig, NodeAddr, Result, RpcId, RpcKind};

use dagger::idl::{dagger_message, dagger_service};

dagger_message! {
    pub struct Ping {
        value: u64,
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

struct PingImpl;
impl PingHandler for PingImpl {
    fn ping(&self, request: Ping) -> Result<Ping> {
        Ok(Ping {
            value: request.value + 1,
        })
    }
}

/// The journey tree produced by one `passenger_journey` call: rooted at the
/// front-end span, connected, and covering all eight tiers.
#[test]
fn flight_journey_produces_connected_eight_tier_trace() {
    let fabric = MemFabric::new();
    let app = FlightApp::launch(&fabric, &FlightConfig::simple()).unwrap();
    app.enable_tracing();

    for passenger in 0..3u64 {
        let resp = app.passenger_journey(passenger, 42, 1).unwrap();
        assert!(resp.ok, "passenger {passenger} rejected");
    }

    let spans = app.telemetry().spans().spans();
    assert!(!spans.is_empty(), "tracing enabled but no spans collected");
    let trees = assemble(&spans);
    let journeys: Vec<&TraceTree> = trees
        .iter()
        .filter(|t| {
            t.roots
                .iter()
                .any(|&r| t.nodes[r].span.name == "passenger_journey")
        })
        .collect();
    assert_eq!(journeys.len(), 3, "one trace per journey");

    for tree in &journeys {
        assert!(
            tree.is_connected(),
            "journey trace fragmented: {} roots",
            tree.roots.len()
        );
        // §5.7's service has 8 tiers; every one must appear as a distinct
        // node address in the tree.
        assert!(
            tree.tier_count() >= 8,
            "expected >= 8 tiers, saw {}",
            tree.tier_count()
        );
        // Client spans carry (cid, rpc_id) links and matching server spans.
        let clients = tree
            .nodes
            .iter()
            .filter(|n| n.span.kind == SpanKind::Client)
            .count();
        let servers = tree
            .nodes
            .iter()
            .filter(|n| n.span.kind == SpanKind::Server)
            .count();
        assert!(clients >= 7, "client spans: {clients}");
        assert_eq!(clients, servers, "every traced RPC has both halves");

        let path = tree.critical_path();
        assert!(!path.is_empty(), "critical path empty");
        let path_ns: u64 = path.iter().map(|s| s.duration_ns()).sum();
        assert!(
            path_ns <= tree.duration_ns(),
            "critical path {path_ns} exceeds trace {}",
            tree.duration_ns()
        );
    }

    // The analysis layer runs on the live spans: waterfall text names the
    // tiers, the Chrome export is well-formed, Fig. 3 attribution covers
    // networking and application time.
    let rpc_traces = app.telemetry().tracer().traces();
    let waterfall = render_waterfall(journeys[0], &rpc_traces);
    // The Citizens/Airport stores serve the generic KvStore descriptor.
    for tier in ["passenger_journey", "CheckIn", "Passport", "KvStore"] {
        assert!(
            waterfall.contains(tier),
            "waterfall missing {tier}:\n{waterfall}"
        );
    }

    let chrome = chrome_trace_json(&trees, &rpc_traces);
    assert!(chrome.starts_with("{\"traceEvents\":["), "{chrome}");
    assert!(chrome.ends_with("]}"), "{chrome}");
    assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
    assert!(chrome.contains("passenger_journey"), "{chrome}");

    let journey_trees: Vec<TraceTree> = journeys.iter().map(|t| (*t).clone()).collect();
    let fig3 = fig3_report(&journey_trees);
    assert_eq!(fig3.trace_count, 3);
    assert!(fig3.network_ns > 0, "no networking time attributed");
    assert!(fig3.app_ns > 0, "no application time attributed");
    let share = fig3.network_share();
    assert!(
        (0.0..1.0).contains(&share) && share > 0.0,
        "networking share {share}"
    );
    assert!(!fig3.render().is_empty());

    app.shutdown();
}

/// A handler-issued nested call joins the caller's trace: client span of
/// the outer RPC parents the server span, whose scope parents the inner
/// client span, across two real NICs.
#[test]
fn nested_calls_join_the_callers_trace() {
    let telemetry = Telemetry::new();
    telemetry.enable_tracing();

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
        .register_service(Arc::new(PingDispatch::new(PingImpl)))
        .unwrap();
    server.start().unwrap();
    let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1).unwrap();
    let client = PingClient::new(pool.client(0).unwrap());

    let resp = client.ping(&Ping { value: 41 }).unwrap();
    assert_eq!(resp.value, 42);

    let spans = telemetry.spans().spans();
    let trees = assemble(&spans);
    assert_eq!(trees.len(), 1, "one trace: {trees:?}");
    let tree = &trees[0];
    assert!(tree.is_connected());
    let client_span = tree
        .nodes
        .iter()
        .find(|n| n.span.kind == SpanKind::Client)
        .expect("client span");
    let server_span = tree
        .nodes
        .iter()
        .find(|n| n.span.kind == SpanKind::Server)
        .expect("server span");
    assert_eq!(
        server_span.span.parent_span_id,
        Some(client_span.span.span_id),
        "server span must be the client span's child"
    );
    assert_eq!(client_span.span.node, Some(2));
    assert_eq!(server_span.span.node, Some(1));
    assert_eq!(server_span.span.name, "PingSvc");
    // Both halves link to the same RPC's stage stamps.
    assert_eq!(client_span.span.rpc, server_span.span.rpc);
    assert!(client_span.span.rpc.is_some());

    drop(client);
    drop(pool);
    server.stop();
    client_nic.shutdown();
    server_nic.shutdown();
}

/// Tracing disabled: no spans are collected and the wire image of an RPC is
/// byte-identical to an untraced one — zero overhead when off.
#[test]
fn disabled_tracing_adds_zero_wire_bytes() {
    let fabric = MemFabric::new();
    let app = FlightApp::launch(&fabric, &FlightConfig::simple()).unwrap();
    // Tracing off (the default): a full journey must not emit spans.
    let resp = app.passenger_journey(7, 9, 0).unwrap();
    assert!(resp.ok);
    assert!(app.telemetry().spans().spans().is_empty());
    app.shutdown();

    // Frame-level check: an RPC fragmented without a context is identical,
    // frame for frame, to one built by the plain path; no flag, no prelude.
    let payload: Vec<u8> = (0..150u8).collect();
    let plain = fragment(
        ConnectionId(3),
        RpcId(4),
        FnId(5),
        FlowId(0),
        RpcKind::Request,
        &payload,
    )
    .unwrap();
    let header = message_header(
        ConnectionId(3),
        RpcId(4),
        FnId(5),
        FlowId(0),
        RpcKind::Request,
    );
    let mut via_ctx = Vec::new();
    fragment_into(&mut via_ctx, header, &[], &payload).unwrap();
    assert_eq!(plain.len(), via_ctx.len());
    for (a, b) in plain.iter().zip(via_ctx.iter()) {
        assert_eq!(a.header(), b.header(), "untraced frames must be identical");
        assert_eq!(a.payload(), b.payload());
        assert!(!dagger::types::RpcHeader::decode(a.header()).unwrap().traced);
    }
}
