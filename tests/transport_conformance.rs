//! Backend-parameterized transport conformance suite.
//!
//! Every test here runs through the [`Fabric`] seam only, so the same
//! invariants are proved for the in-process switch ([`MemFabric`]) and for
//! real UDP sockets over loopback ([`UdpFabric`]): byte-exact exactly-once
//! delivery, per-flow FIFO dispatch, drained-telemetry reconciliation, and
//! a backend-independent wire format (the golden-frame test). The fault
//! layer sits above the wire, so the suite has a chaos column too: the same
//! seeded plan on both backends, and a partition healed mid-run over UDP.
//! See `tests/common/mod.rs` for the shared harness.

mod common;

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use common::{body_for, reliable_cfg, Conf, ConformClient, ConformDispatch, RecordingEcho};
use dagger::kvs::server::{KvGetRequest, KvSetRequest, KvStoreClient, KvStoreDispatch};
use dagger::kvs::{Memcached, MemcachedPort};
use dagger::nic::{Fabric, FabricPort, FaultPlan, MemFabric, Nic, UdpFabric};
use dagger::rpc::{RpcClientPool, RpcThreadedServer};
use dagger::types::{CacheLine, NodeAddr, CACHE_LINE_BYTES};

const CLIENTS: u32 = 3;
const CALLS: u32 = 40;

#[test]
fn mem_fabric_conformance() {
    common::run_conformance("mem", &MemFabric::new(), CLIENTS, CALLS);
}

#[test]
fn udp_fabric_conformance() {
    common::run_conformance("udp", &UdpFabric::new(), CLIENTS, CALLS);
}

/// The composed plan of the chaos column, seeded by `RUST_SEED` so a
/// failure replays from the seed in its label.
fn chaos_plan() -> (u64, FaultPlan) {
    let seed = common::env_seed();
    let plan = FaultPlan::seeded(seed)
        .with_drop(0.1)
        .with_duplicate(0.1)
        .with_reorder(0.1, 6)
        .with_corrupt(0.05);
    (seed, plan)
}

/// The conformance invariants under injected chaos: the reliable transport
/// must absorb a composed drop + duplicate + reorder + corrupt plan on the
/// in-process switch …
#[test]
fn mem_fabric_conformance_chaos() {
    let (seed, plan) = chaos_plan();
    let fabric = MemFabric::with_faults(plan);
    common::run_conformance(&format!("mem-chaos seed={seed}"), &fabric, CLIENTS, CALLS);
    assert!(fabric.fault_stats().total_injected() > 0, "seed={seed}");
}

/// … and the very same plan over real sockets, where it composes with
/// whatever the loopback does on its own.
#[test]
fn udp_fabric_conformance_chaos() {
    let (seed, plan) = chaos_plan();
    let fabric = UdpFabric::with_faults(plan);
    common::run_conformance(&format!("udp-chaos seed={seed}"), &fabric, CLIENTS, CALLS);
    assert!(fabric.fault_stats().total_injected() > 0, "seed={seed}");
}

/// A partition installed and healed mid-run on the UDP backend: the server
/// is cut off once traffic flows, stays cut until retransmissions have been
/// blackholed, and every call still completes exactly once after the heal.
#[test]
fn udp_fabric_conformance_partition_heal() {
    let fabric = UdpFabric::new();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let wait_until = |cond: &dyn Fn() -> bool| {
                while !cond() && !done.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            };
            wait_until(&|| fabric.fault_stats().forwarded >= 50);
            fabric.partition_node(NodeAddr(1));
            wait_until(&|| fabric.fault_stats().partition_drops >= 10);
            fabric.heal_node(NodeAddr(1));
        });
        // A round ships a window's worth of calls as one datagram, so this
        // run makes more calls than the others: enough datagrams cross
        // after the first fifty for the partition to land mid-run.
        common::run_conformance("udp-partition-heal", &fabric, CLIENTS, 4 * CALLS);
        done.store(true, Ordering::Release);
    });
    let stats = fabric.fault_stats();
    assert!(stats.partition_drops >= 10, "never partitioned: {stats:?}");
    assert!(!fabric.partitioned(), "the partition was healed");
}

/// Port-level determinism across backends: fault decisions are drawn above
/// the wire, so one plan and one sequence of frames A → B give the same
/// decision counts and the same multiset of delivered payloads — corrupted
/// bit positions included — whether the frames cross memory or sockets.
#[test]
fn fault_decisions_identical_across_backends() {
    // Few enough that the receiving socket's kernel buffer holds them all
    // even if the pump never gets the CPU: real loss would be a difference
    // the plan did not make.
    const FRAMES: u32 = 120;
    let plan = FaultPlan::seeded(77)
        .with_drop(0.15)
        .with_duplicate(0.15)
        .with_reorder(0.2, 4)
        .with_corrupt(0.1)
        .with_delay(0.1, 8);
    fn attach(fabric: &dyn Fabric, addr: u32) -> Arc<dyn FabricPort> {
        fabric.attach_queues(NodeAddr(addr), 1).unwrap().remove(0)
    }
    let run = |fabric: &dyn Fabric| -> Vec<Vec<u8>> {
        let (a, b) = (attach(fabric, 1), attach(fabric, 2));
        for i in 0..FRAMES {
            let frame = [i.to_le_bytes(), (!i).to_le_bytes()].concat();
            a.send(NodeAddr(2), frame).unwrap();
        }
        // Flushes what reorder/delay still holds, then waits out the wire.
        fabric.quiesce();
        assert_eq!(fabric.in_flight(), 0);
        let mut delivered: Vec<_> = std::iter::from_fn(|| b.try_recv()).collect();
        delivered.sort_unstable();
        delivered
    };
    let (mem, udp) = (MemFabric::with_faults(plan), UdpFabric::with_faults(plan));
    let (over_mem, over_udp) = (run(&mem), run(&udp));
    let stats = mem.fault_stats();
    assert_eq!(stats, udp.fault_stats(), "decision counts differ");
    assert_eq!(
        over_mem.len() as u64,
        u64::from(FRAMES) - stats.dropped + stats.duplicated
    );
    assert!(stats.corrupted > 0 && stats.reordered > 0 && stats.delayed > 0);
    assert_eq!(over_mem, over_udp, "delivered payloads differ");
}

/// Runs the deterministic KVS GET/SET mix against an offload-armed server
/// on the given backend and returns the application-level transcript. The
/// workload is backend- and cache-independent by construction, so callers
/// compare transcripts across configurations.
fn run_offload_conformance(
    label: &str,
    fabric: &dyn Fabric,
    cache_entries: u32,
) -> Vec<(bool, Vec<u8>)> {
    let server_nic = Nic::start(fabric, NodeAddr(1), reliable_cfg()).unwrap();
    assert!(server_nic.configure_offload(KvStoreClient::offload_spec().expect("kvs offloadable")));
    server_nic.softregs().set_nic_serde(true);
    server_nic
        .softregs()
        .set_offload_cache_entries(cache_entries);
    let store = Arc::new(Memcached::new(1 << 20, 8));
    let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
    server
        .register_service(Arc::new(KvStoreDispatch::new(MemcachedPort::new(
            Arc::clone(&store),
        ))))
        .unwrap();
    server.start().unwrap();

    let client_nic = Nic::start(fabric, NodeAddr(2), reliable_cfg()).unwrap();
    let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1).unwrap();
    let raw = pool.client(0).unwrap();
    raw.set_timeout(Duration::from_secs(20));
    let client = KvStoreClient::new(Arc::clone(&raw));

    let mut transcript = Vec::new();
    let mut gets = 0u64;
    for i in 0..160u64 {
        let key = format!("k{}", i % 6).into_bytes();
        if i % 8 == 0 {
            let set = client
                .set(&KvSetRequest {
                    key,
                    value: format!("v{i}").into_bytes(),
                })
                .unwrap_or_else(|e| panic!("[{label}] set {i}: {e}"));
            assert!(set.ok, "[{label}] set {i} rejected");
        } else {
            gets += 1;
            let resp = client
                .get(&KvGetRequest { key })
                .unwrap_or_else(|e| panic!("[{label}] get {i}: {e}"));
            transcript.push((resp.found, resp.value));
        }
    }

    server.stop();
    let stats = server_nic.offload_stats();
    if cache_entries == 0 {
        assert_eq!(
            stats.hits + stats.misses + stats.fills,
            0,
            "[{label}] disabled cache must have zero offload accounting: {stats:?}"
        );
    } else {
        assert!(
            stats.hits > 0,
            "[{label}] cache enabled but never hit: {stats:?}"
        );
    }
    assert_eq!(
        raw.endpoint().offload_served(),
        stats.hits,
        "[{label}] endpoint/NIC offload accounting diverged"
    );
    let store_gets = store.stats().get_hits + store.stats().get_misses;
    assert_eq!(
        stats.hits + store_gets,
        gets,
        "[{label}] every GET must be served exactly once: {stats:?}, store={store_gets}"
    );

    drop(client);
    drop(raw);
    drop(pool);
    client_nic.shutdown();
    server_nic.shutdown();
    transcript
}

/// The on-NIC offload stage is backend-transparent on the in-process
/// switch: cache on and cache off return identical application results.
#[test]
fn mem_fabric_offload_conformance() {
    let on = run_offload_conformance("mem-cache64", &MemFabric::new(), 64);
    let off = run_offload_conformance("mem-cache0", &MemFabric::new(), 0);
    assert_eq!(on, off, "cache on/off must be observationally identical");
}

/// Same invariant over real UDP sockets: NIC-synthesized responses ride
/// the identical wire format, so the cache stays invisible to the
/// application on a real-socket backend too.
#[test]
fn udp_fabric_offload_conformance() {
    let on = run_offload_conformance("udp-cache64", &UdpFabric::new(), 64);
    let off = run_offload_conformance("udp-cache0", &UdpFabric::new(), 0);
    assert_eq!(on, off, "cache on/off must be observationally identical");
}

/// The wire format is a property of the transport, not the backend: a
/// [`Datagram`]'s `encode_into` bytes are pinned against the documented
/// layout (magic, src, dst, count, 64-byte lines — all little-endian), and
/// both backends must carry those bytes to the receiver unmodified.
#[test]
fn golden_frame_bytes_identical_across_backends() {
    use dagger::nic::transport::Datagram;

    let lines: Vec<CacheLine> = (0..3u8)
        .map(|i| {
            let mut raw = [0u8; CACHE_LINE_BYTES];
            for (j, b) in raw.iter_mut().enumerate() {
                *b = i.wrapping_mul(67).wrapping_add(j as u8);
            }
            CacheLine::from_bytes(raw)
        })
        .collect();
    let datagram = Datagram::new(NodeAddr(7), NodeAddr(9), lines.clone());

    // Golden bytes straight from the documented layout.
    let mut golden = Vec::new();
    golden.extend_from_slice(b"DGGR");
    golden.extend_from_slice(&7u32.to_le_bytes());
    golden.extend_from_slice(&9u32.to_le_bytes());
    golden.extend_from_slice(&(lines.len() as u16).to_le_bytes());
    for line in &lines {
        golden.extend_from_slice(line.as_bytes());
    }

    let mut encoded = Vec::new();
    datagram.encode_into(&mut encoded);
    assert_eq!(
        encoded, golden,
        "encode_into diverged from the pinned layout"
    );

    // Both backends are transparent pipes for those bytes.
    for (label, fabric) in [
        ("mem", &MemFabric::new() as &dyn Fabric),
        ("udp", &UdpFabric::new() as &dyn Fabric),
    ] {
        let tx = fabric.attach_queues(NodeAddr(7), 1).unwrap();
        let rx = fabric.attach_queues(NodeAddr(9), 1).unwrap();
        tx[0].send(NodeAddr(9), golden.clone()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        let got = loop {
            if let Some(bytes) = rx[0].try_recv() {
                break bytes;
            }
            assert!(
                Instant::now() < deadline,
                "[{label}] golden frame never delivered"
            );
            std::thread::sleep(Duration::from_micros(200));
        };
        assert_eq!(got, golden, "[{label}] backend mutated the frame bytes");
    }
}

/// Pins the reliable layer's frame wire layouts byte for byte — checksum
/// included: its four bytes are literals computed outside this code base
/// (CRC32C per RFC 3720), so neither the layout nor the algorithm on the
/// wire can change without this test noticing. Then the version story,
/// told the strict way round: every frame kind carries the CRC32C version
/// bit, and a frame with one of the earlier type bytes (`0x01`, `0x02`,
/// `0x82` — sealed with the FNV-1a checksum this one replaced) is an
/// unknown type: `Err` from the decoder, a `wire_drops` at a NIC, never a
/// misparse.
///
/// Every wire frame kind is pinned here (the lint gate requires a marker
/// per `FRAME_*` constant):
/// golden frame: FRAME_DATA
/// golden frame: FRAME_ACK
/// golden frame: FRAME_SACK
/// golden frame: FRAME_VERSION_BIT
/// golden frame: FRAME_CRC32C_BIT
#[test]
fn golden_reliable_frames_pin_layout_and_version_compat() {
    use common::{decode_data, encoded};
    use dagger::nic::reliable::FrameView;
    use dagger::nic::transport::Datagram;

    // --- Data frame: CRC32C bit | type 1 = 0x41.
    let line = CacheLine::from_bytes([0xA5u8; CACHE_LINE_BYTES]);
    let datagram = Datagram::new(NodeAddr(7), NodeAddr(9), vec![line]);
    let mut body = Vec::new();
    datagram.encode_into(&mut body);
    let mut golden_data = vec![0x41u8]; // type byte: data
    golden_data.extend_from_slice(&5u64.to_le_bytes()); // seq
    golden_data.extend_from_slice(&3u64.to_le_bytes()); // piggybacked ack
    golden_data.extend_from_slice(&2u16.to_le_bytes()); // src_queue
    golden_data.extend_from_slice(&[0x6B, 0x73, 0xA6, 0x3A]); // CRC32C of prefix + body
    golden_data.extend_from_slice(&body);

    let frame = FrameView::Data {
        seq: 5,
        ack: 3,
        src_queue: 2,
        dst_queue: 0,
        datagram: &datagram,
    };
    assert_eq!(encoded(frame), golden_data, "data frame bytes drifted");
    assert_eq!(
        decode_data(&golden_data).unwrap(),
        (5, 3, 2, datagram.clone()),
        "golden data bytes no longer decode"
    );

    // --- Ack frame: CRC32C bit | type 2 = 0x42, no body.
    let mut golden_ack = vec![0x42u8]; // type byte: ack
    golden_ack.extend_from_slice(&11u64.to_le_bytes()); // cumulative ack
    golden_ack.extend_from_slice(&9u32.to_le_bytes()); // src
    golden_ack.extend_from_slice(&7u32.to_le_bytes()); // dst
    golden_ack.extend_from_slice(&4u16.to_le_bytes()); // src_queue
    golden_ack.extend_from_slice(&[0xD3, 0xFC, 0xE2, 0x2D]); // CRC32C of the prefix

    // An ack with an empty bitmap is a plain ack. (`dst_queue` is routing
    // metadata: never on the wire, 0 after a decode.)
    fn ack_frame<B>(bitmap: u64) -> FrameView<B> {
        FrameView::Ack {
            ack: 11,
            bitmap,
            src: NodeAddr(9),
            dst: NodeAddr(7),
            src_queue: 4,
            dst_queue: 0,
        }
    }
    assert_eq!(encoded(ack_frame(0)), golden_ack, "ack frame bytes drifted");
    assert_eq!(
        FrameView::decode(&golden_ack).unwrap(),
        ack_frame(0),
        "golden ack bytes no longer decode"
    );

    // --- SACK frame: version bit | CRC32C bit | type 2 = 0xC2: the ack
    // prefix layout plus an 8-byte received-bitmap body. Bit i set means
    // sequence ack + 1 + i is buffered at the receiver.
    let bitmap: u64 = 0b1011; // seqs 12, 13, 15 received past ack 11
    let mut golden_sack = vec![0xC2u8];
    golden_sack.extend_from_slice(&11u64.to_le_bytes());
    golden_sack.extend_from_slice(&9u32.to_le_bytes());
    golden_sack.extend_from_slice(&7u32.to_le_bytes());
    golden_sack.extend_from_slice(&4u16.to_le_bytes());
    golden_sack.extend_from_slice(&[0x73, 0xE6, 0xBE, 0x7F]); // CRC32C of prefix + bitmap
    golden_sack.extend_from_slice(&bitmap.to_le_bytes());

    assert_eq!(
        encoded(ack_frame(bitmap)),
        golden_sack,
        "sack frame bytes drifted"
    );
    assert_eq!(
        FrameView::decode(&golden_sack).unwrap(),
        ack_frame(bitmap),
        "golden sack bytes no longer decode"
    );

    // An unknown kind is rejected as a wire error (treated as loss) even
    // behind a checksum that matches, never misparsed — the
    // forward-compatibility contract.
    let mut future = golden_sack.clone();
    future[0] = 0xC0 | 3;
    future[19..23].copy_from_slice(&[0xD3, 0x74, 0x80, 0x21]); // its CRC32C
    assert!(
        FrameView::decode(&future).is_err(),
        "unknown frame kind must be rejected, not guessed at"
    );

    // --- The same three frames as the previous wire format carried them:
    // type bytes without the CRC32C bit, sealed with FNV-1a (the checksum
    // bytes are that build's). The decoder knows no such kinds.
    let old_format = |golden: &[u8], fnv: [u8; 4]| {
        let mut old = golden.to_vec();
        old[0] &= !0x40;
        old[19..23].copy_from_slice(&fnv);
        old
    };
    let old_frames = [
        old_format(&golden_data, [0x1B, 0x24, 0x8C, 0x13]),
        old_format(&golden_ack, [0xA8, 0xC4, 0xC7, 0x4F]),
        old_format(&golden_sack, [0x5C, 0x67, 0x16, 0x62]),
    ];
    assert_eq!(old_frames.each_ref().map(|f| f[0]), [0x01, 0x02, 0x82]);
    for old in &old_frames {
        assert!(
            FrameView::decode(old).is_err(),
            "a frame of type {:#04x} must be rejected, not guessed at",
            old[0]
        );
    }
    // At a NIC each of them is loss, counted.
    let fabric = MemFabric::new();
    let nic = Nic::start(&fabric, NodeAddr(9), reliable_cfg()).unwrap();
    let old_peer = fabric.attach_queues(NodeAddr(7), 1).unwrap();
    for old in &old_frames {
        old_peer[0].send(NodeAddr(9), old.clone()).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while nic.reliable_stats().wire_drops < 3 {
        assert!(Instant::now() < deadline, "old frames were never counted");
        std::thread::sleep(Duration::from_micros(200));
    }
    assert_eq!(nic.reliable_stats().wire_drops, 3);
    assert_eq!(nic.monitor().snapshot().totals.wire_drops, 3);
    nic.shutdown();
}

/// Pins the three connection-setup control frames byte for byte. They cross
/// process boundaries (`examples/udp_pair.rs`), so a server built from one
/// commit must read the opens of a client built from another.
///
/// golden frame: CTRL_OPEN_FN
/// golden frame: CTRL_OPEN_ACK_FN
/// golden frame: CTRL_CLOSE_FN
#[test]
fn golden_control_frames_pin_layout() {
    use dagger::nic::connmgr::{ctrl_close, ctrl_open, ctrl_open_ack, decode_ctrl_open};
    use dagger::nic::ConnectionTuple;
    use dagger::types::{ConnectionId, FlowId, LbPolicy};

    // Header: cid, rpc id 0, fn id, src flow, kind = request, frame 0 of 1,
    // payload length; the rest of the line is the payload, zero-padded.
    let golden = |fn_id: u16, src_flow: u16, payload: &[u8]| {
        let mut line = [0u8; CACHE_LINE_BYTES];
        line[0..4].copy_from_slice(&0x0007_002Au32.to_le_bytes());
        line[8..10].copy_from_slice(&fn_id.to_le_bytes());
        line[10..12].copy_from_slice(&src_flow.to_le_bytes());
        line[12..16].copy_from_slice(&[1, 0, 1, payload.len() as u8]);
        line[16..16 + payload.len()].copy_from_slice(payload);
        line
    };
    let cid = ConnectionId(0x0007_002A);
    let tuple = ConnectionTuple {
        src_flow: FlowId(3),
        dest_addr: NodeAddr(0x0102_0304),
        lb: LbPolicy::ObjectLevel,
    };

    // Open: the opener's address (LE), its flow (LE), the balancer byte.
    let open = ctrl_open(cid, tuple);
    assert_eq!(
        open.as_bytes(),
        &golden(0xFFFF, 3, &[4, 3, 2, 1, 3, 0, 2]),
        "control open layout drifted"
    );
    assert_eq!(decode_ctrl_open(&open), tuple);
    for (lb, byte) in [(LbPolicy::Uniform, 0), (LbPolicy::Static, 1)] {
        let line = ctrl_open(cid, ConnectionTuple { lb, ..tuple });
        assert_eq!(line.as_bytes()[22], byte, "{lb:?} wire byte drifted");
        assert_eq!(decode_ctrl_open(&line).lb, lb);
    }

    assert_eq!(
        ctrl_open_ack(cid).as_bytes(),
        &golden(0xFFFD, 0, &[]),
        "control open-ack layout drifted"
    );
    assert_eq!(
        ctrl_close(cid).as_bytes(),
        &golden(0xFFFE, 0, &[]),
        "control close layout drifted"
    );
}

/// Regression for the shutdown/drain seam on a real-socket backend: a NIC
/// stopped while datagrams are still in kernel buffers must neither panic
/// nor leave the fabric reporting frames in flight — `Nic::shutdown`
/// quiesces the fabric before the engines' final RX sweep retires, and
/// `quiesce` stays idempotent afterwards.
#[test]
fn udp_shutdown_with_in_flight_datagrams_quiesces() {
    let fabric = UdpFabric::new();
    let arrivals = Arc::new(Mutex::new(Vec::new()));
    let server_nic = Nic::start(&fabric, NodeAddr(1), reliable_cfg()).unwrap();
    let client_nic = Nic::start(&fabric, NodeAddr(2), reliable_cfg()).unwrap();
    let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
    server
        .register_service(Arc::new(ConformDispatch::new(RecordingEcho(Arc::clone(
            &arrivals,
        )))))
        .unwrap();
    server.start().unwrap();

    let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1).unwrap();
    let raw = pool.client(0).unwrap();
    raw.set_timeout(Duration::from_secs(10));
    let client = ConformClient::new(Arc::clone(&raw));

    // Warm-up call so the connection is fully established.
    assert_eq!(
        client
            .echo(&Conf {
                client: 0,
                seq: 0,
                body: vec![],
            })
            .unwrap()
            .seq,
        0
    );

    // Issue a burst of async calls and shut the client NIC down while
    // their datagrams can still be sitting in loopback socket buffers.
    let mut pending = Vec::new();
    for seq in 1..=24u32 {
        pending.push(
            client
                .echo_async(&Conf {
                    client: 0,
                    seq,
                    body: body_for(0, seq),
                })
                .unwrap(),
        );
    }
    client_nic.shutdown();
    drop(pending);
    drop(client);
    drop(raw);
    drop(pool);

    server.stop();
    server_nic.shutdown();

    fabric.quiesce();
    assert_eq!(
        fabric.in_flight(),
        0,
        "datagrams left unaccounted after both NICs quiesced"
    );
}

/// The handler-visible effect of the shutdown flush on a real socket
/// backend: every async call issued before `shutdown()` still reaches the
/// server (the engine's stop path drains the TX ring, retransmits the
/// unacked window, and the fabric quiesce holds the door for datagrams
/// still in kernel buffers).
#[test]
fn udp_shutdown_flush_delivers_issued_calls() {
    struct CountingEcho(Arc<AtomicU32>);
    impl common::ConformHandler for CountingEcho {
        fn echo(&self, request: Conf) -> dagger::types::Result<Conf> {
            self.0.fetch_add(1, Ordering::SeqCst);
            Ok(request)
        }
    }

    let fabric = UdpFabric::new();
    let served = Arc::new(AtomicU32::new(0));
    let server_nic = Nic::start(&fabric, NodeAddr(1), reliable_cfg()).unwrap();
    let client_nic = Nic::start(&fabric, NodeAddr(2), reliable_cfg()).unwrap();
    let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
    server
        .register_service(Arc::new(ConformDispatch::new(CountingEcho(Arc::clone(
            &served,
        )))))
        .unwrap();
    server.start().unwrap();

    let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1).unwrap();
    let raw = pool.client(0).unwrap();
    raw.set_timeout(Duration::from_secs(10));
    let client = ConformClient::new(Arc::clone(&raw));
    assert_eq!(
        client
            .echo(&Conf {
                client: 0,
                seq: 0,
                body: vec![],
            })
            .unwrap()
            .seq,
        0
    );

    const CALLS: u32 = 12;
    let mut pending = Vec::new();
    for seq in 1..=CALLS {
        pending.push(
            client
                .echo_async(&Conf {
                    client: 0,
                    seq,
                    body: body_for(0, seq),
                })
                .unwrap(),
        );
    }
    client_nic.shutdown();
    drop(pending);
    drop(client);
    drop(raw);
    drop(pool);

    let total = 1 + CALLS;
    let deadline = Instant::now() + Duration::from_secs(20);
    while served.load(Ordering::SeqCst) < total {
        assert!(
            Instant::now() < deadline,
            "server saw only {}/{} echoes after client shutdown",
            served.load(Ordering::SeqCst),
            total
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    server.stop();
    server_nic.shutdown();
    fabric.quiesce();
    assert_eq!(fabric.in_flight(), 0);
}
