//! Per-layer replays: each layer's public functions, called directly with
//! the inputs the workload generates, timed in isolation on the same
//! confined CPU. A layer the workload bypasses reads 0.
//!
//! Replays explain; they do not gate. They omit everything between the
//! layers — thread hand-offs, waiting, the engine's control flow — which
//! `budget.accounted_permille` makes explicit.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use dagger_kvs::server::{KvGetRequest, KvGetResponse, KvSetResponse};
use dagger_kvs::{KvStoreClient, Memcached};
use dagger_ledger::gen::{KvGen, SplitMix64, Zipf};
use dagger_ledger::stats::median;
use dagger_nic::connmgr::{CmPort, ConnectionManager, ConnectionTuple};
use dagger_nic::reliable::{ReliableConfig, ReliableTransport};
use dagger_nic::transport::{wire_checksum, Datagram};
use dagger_nic::{ring, BufPool, ConnTupleCache, Fabric, FabricPort, OffloadState};
use dagger_rpc::frag::{fragment, Reassembler};
use dagger_rpc::service::encode_response;
use dagger_rpc::Wire;
use dagger_telemetry::Telemetry;
use dagger_types::{CacheLine, ConnectionId, FlowId, LbPolicy, NodeAddr, RpcId, RpcKind};

use crate::pass::Metrics;
use crate::stack::{
    FabricHandle, FabricKind, Inputs, Kind, Spec, Stack, FN_GET, KVS_CACHE_ENTRIES, KVS_KEYS,
    KVS_SKEW,
};

/// Timed batches per replay; the reported value is their median, so a
/// batch that loses the CPU to another process does not move it.
const ROUNDS: usize = 9;

/// Median nanoseconds per call of `op` over [`ROUNDS`] batches of `iters`.
fn bench(iters: u32, mut op: impl FnMut()) -> f64 {
    for _ in 0..iters / 4 + 1 {
        op();
    }
    let per_op: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                op();
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    median(&per_op)
}

fn lines(n: usize) -> Vec<CacheLine> {
    (0..n)
        .map(|i| {
            let mut line = CacheLine::zeroed();
            line.as_bytes_mut().fill(i as u8 ^ 0x5A);
            line
        })
        .collect()
}

/// Replays that need the live stack (run before teardown, stack idle).
pub fn live(stack: &Stack, m: &mut Metrics) {
    // What one pass of the sampling grid costs with this stack's
    // collectors registered.
    m.set(
        "telemetry.sample_now_ns",
        bench(200, || {
            black_box(stack.telemetry.sample_now());
        }),
    );
}

/// Replays over freshly built layer objects.
pub fn offline(spec: &'static Spec, seed: u64, m: &mut Metrics) {
    // The request this workload sends most: the echo itself, or a GET.
    let request = match spec.kind {
        Kind::Echo { .. } => Inputs::new(spec, seed).next_request().bytes,
        Kind::Kvs { .. } => KvGetRequest {
            key: KvGen::new(seed, KVS_KEYS, KVS_SKEW, 0).key(0).to_vec(),
        }
        .to_wire(),
    };
    let (cid, rpc, flow) = (ConnectionId(7), RpcId(1), FlowId(0));

    m.set(
        "rpc.frag.fragment_ns",
        bench(2000, || {
            black_box(
                fragment(
                    cid,
                    rpc,
                    FN_GET,
                    flow,
                    RpcKind::Request,
                    black_box(&request),
                )
                .ok(),
            );
        }),
    );
    let frames = fragment(cid, rpc, FN_GET, flow, RpcKind::Request, &request)
        .expect("workload requests fit one RPC");
    let mut reassembler = Reassembler::new();
    m.set(
        "rpc.frag.reassemble_ns",
        bench(2000, || {
            for frame in &frames {
                black_box(reassembler.push(*frame).ok());
            }
        }),
    );

    let (mut tx, mut rx) = ring(256);
    let line = lines(1)[0];
    m.set(
        "nic.ring.push_pop_ns",
        bench(20_000, || {
            let _ = tx.try_push(black_box(line));
            black_box(rx.try_pop());
        }),
    );
    let batch = lines(16);
    let mut popped = Vec::with_capacity(16);
    m.set(
        "nic.ring.batch16_ns_per_line",
        bench(4000, || {
            black_box(tx.try_push_batch(black_box(&batch)));
            popped.clear();
            black_box(rx.try_pop_batch(&mut popped, 16));
        }) / 16.0,
    );

    let mut mgr = ConnectionManager::new(1024);
    mgr.open(
        cid,
        ConnectionTuple {
            src_flow: flow,
            dest_addr: NodeAddr(1),
            lb: LbPolicy::Uniform,
        },
    )
    .expect("fresh manager accepts a connection");
    let mut cache = ConnTupleCache::new(mgr.generation_handle());
    let mgr = parking_lot::Mutex::new(mgr);
    m.set(
        "nic.conncache.lookup_ns",
        bench(20_000, || {
            black_box(cache.lookup(black_box(cid), CmPort::Tx, &mgr));
        }),
    );

    let mut pool = BufPool::default();
    m.set(
        "nic.bufpool.get_put_ns",
        bench(20_000, || {
            let buf = pool.get_bytes();
            pool.put_bytes(black_box(buf));
        }),
    );

    // Datagrams shaped like this workload's: its measured frames per
    // datagram, rounded.
    let per_dgram = (m.get("nic.engine.frames_per_datagram").round() as usize).clamp(1, 16);
    let dgram = Datagram::new(NodeAddr(2), NodeAddr(1), lines(per_dgram));
    let mut wire = Vec::new();
    m.set(
        "nic.transport.encode_ns",
        bench(5000, || {
            black_box(&dgram).encode_into(&mut wire);
            black_box(&wire);
        }),
    );
    let mut decoded = Vec::new();
    m.set(
        "nic.transport.decode_ns",
        bench(5000, || {
            black_box(Datagram::decode_lines_into(black_box(&wire), &mut decoded).ok());
        }),
    );

    if spec.reliable {
        let kb = wire.len() as f64 / 1024.0;
        m.set(
            "nic.transport.checksum_ns_per_kb",
            bench(5000, || {
                black_box(wire_checksum(&[black_box(&wire)]));
            }) / kb,
        );
        reliable(&dgram, m);
    } else {
        for name in [
            "nic.transport.checksum_ns_per_kb",
            "nic.reliable.send_ns",
            "nic.reliable.recv_ns",
            "nic.reliable.ack_ns",
        ] {
            m.set(name, 0.0);
        }
    }

    let dgram_bytes = wire.len();
    let (mem, udp) = match spec.fabric {
        FabricKind::Mem => (Some(FabricHandle::new(FabricKind::Mem)), None),
        FabricKind::UdpLoopback => (None, Some(FabricHandle::new(FabricKind::UdpLoopback))),
    };
    for (prefix, handle) in [("nic.fabric", mem), ("nic.fabric_udp", udp)] {
        let (one, many) = handle.map_or((0.0, 0.0), |h| fabric(h.as_dyn(), dgram_bytes));
        m.set(&format!("{prefix}.send_recv_ns"), one);
        m.set(&format!("{prefix}.send_many16_ns_per_dgram"), many);
    }

    if spec.is_kvs() {
        kvs(seed, &request, m);
    } else {
        for name in [
            "idl.table_validate_ns",
            "idl.table_encode_ns",
            "nic.offload.read_hit_ns",
            "nic.offload.read_miss_ns",
            "nic.offload.write_ns",
            "nic.offload.fill_ns",
            "kvs.get_ns",
            "kvs.set_ns",
        ] {
            m.set(name, 0.0);
        }
    }

    let hist = Telemetry::new().registry().histogram("ledger.replay_ns");
    let mut v = 1000u64;
    m.set(
        "telemetry.hist_record_ns",
        bench(20_000, || {
            v = v.wrapping_mul(31) % 100_000;
            hist.record(black_box(v));
        }),
    );
}

/// The loss-free reliable fast path: sender encodes, receiver accepts in
/// order, one cumulative ack per 16 datagrams comes back and retires them.
fn reliable(dgram: &Datagram, m: &mut Metrics) {
    const BATCH: usize = 16;
    let mut sender = ReliableTransport::new(dgram.src, ReliableConfig::default());
    let mut receiver = ReliableTransport::new(dgram.dst, ReliableConfig::default());
    let mut wires: Vec<Vec<u8>> = vec![Vec::new(); BATCH];
    let mut spare: Vec<Vec<CacheLine>> = vec![dgram.lines.clone(); BATCH];
    let mut ack = Vec::new();
    let (mut send, mut recv, mut acks) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..ROUNDS * 40 + 10 {
        let t0 = Instant::now();
        for out in &mut wires {
            let lines = spare.pop().unwrap_or_else(|| dgram.lines.clone());
            let d = Datagram::new(dgram.src, dgram.dst, lines);
            let sent = sender.on_send_encode(d, out);
            debug_assert!(sent.is_ok(), "window of 256 never fills at 16 in flight");
        }
        let t1 = Instant::now();
        for bytes in &wires {
            black_box(receiver.on_recv(bytes).ok());
        }
        let t2 = Instant::now();
        receiver.on_tick_with(|frame| frame.encode_into(&mut ack));
        black_box(sender.on_recv(&ack).ok());
        sender.drain_retired(|lines| spare.push(lines));
        let t3 = Instant::now();
        // A short warm-up fills the maps and buffers.
        if round >= 10 {
            send.push((t1 - t0).as_nanos() as f64 / BATCH as f64);
            recv.push((t2 - t1).as_nanos() as f64 / BATCH as f64);
            acks.push((t3 - t2).as_nanos() as f64);
        }
    }
    m.set("nic.reliable.send_ns", median(&send));
    m.set("nic.reliable.recv_ns", median(&recv));
    m.set("nic.reliable.ack_ns", median(&acks));
}

/// One datagram across `fabric` and back out of the peer's queue, and a
/// 16-datagram doorbell. Buffers circulate as the engine's pooled ones do.
fn fabric(fabric: &dyn Fabric, dgram_bytes: usize) -> (f64, f64) {
    let attach = |addr| {
        fabric
            .attach_queues(addr, 1)
            .ok()
            .and_then(|mut ports| ports.pop())
    };
    let (Some(a), Some(b)) = (attach(NodeAddr(11)), attach(NodeAddr(12))) else {
        return (0.0, 0.0);
    };
    let recv = |port: &Arc<dyn FabricPort>| loop {
        if let Some(bytes) = port.try_recv() {
            return bytes;
        }
        // A socket backend delivers through its pump thread, which on one
        // CPU runs only when this thread steps aside.
        std::thread::yield_now();
    };
    let mut buf = vec![0xA5u8; dgram_bytes];
    let one = bench(1000, || {
        let _ = a.send(NodeAddr(12), std::mem::take(&mut buf));
        buf = recv(&b);
    });
    let mut frames: Vec<(NodeAddr, u16, Vec<u8>)> = (0..16)
        .map(|_| (NodeAddr(12), 0, vec![0xA5u8; dgram_bytes]))
        .collect();
    let many = bench(100, || {
        let sent = a.send_many(&mut frames);
        for _ in 0..sent {
            frames.push((NodeAddr(12), 0, recv(&b)));
        }
    }) / 16.0;
    (one, many)
}

/// The KVS-only layers: serde tables, the offload stage, the store.
fn kvs(seed: u64, get_request: &[u8], m: &mut Metrics) {
    let gen = KvGen::new(seed, KVS_KEYS, KVS_SKEW, 0);
    let spec = KvStoreClient::offload_spec().expect("KvStore messages are flat");
    let get = spec.get(FN_GET).expect("GET is annotated").clone();
    let cap = KVS_CACHE_ENTRIES as usize;

    // RX classification of a GET: validate, then extract the key field.
    m.set(
        "idl.table_validate_ns",
        bench(20_000, || {
            black_box(get.req_table.validate(black_box(get_request)));
            black_box(get.req_table.field_range(get_request, 0));
        }),
    );
    let value = gen.value(0, 0);
    m.set(
        "idl.table_encode_ns",
        bench(20_000, || {
            black_box(
                get.resp_table
                    .encode_parts(&[&[1u8], black_box(&value[..])]),
            );
        }),
    );

    let get_reply = |id: u32| {
        encode_response(Ok(KvGetResponse {
            found: true,
            value: gen.value(id, 0).to_vec(),
        }
        .to_wire()))
    };
    let set_reply = encode_response(Ok(KvSetResponse { ok: true }.to_wire()));
    let stage = OffloadState::new(1);
    assert!(stage.configure(spec), "fresh stage takes a spec");
    let cid = ConnectionId(7);
    let mut next_rpc = 0u32;
    let mut rpc = || {
        next_rpc = next_rpc.wrapping_add(1);
        RpcId(next_rpc)
    };

    // Misses and fills: walk the key space in order. The cache is smaller
    // than the key space, so every read misses and every fill evicts.
    const BATCH: u32 = 64;
    let keys: Vec<[u8; 16]> = (0..KVS_KEYS as u32).map(|id| gen.key(id)).collect();
    let replies: Vec<Vec<u8>> = (0..BATCH).map(get_reply).collect();
    let (mut miss, mut fill) = (Vec::new(), Vec::new());
    let mut cursor = 0u32;
    for round in 0..ROUNDS * 8 + 20 {
        let ids: Vec<RpcId> = (0..BATCH).map(|_| rpc()).collect();
        let t0 = Instant::now();
        for (i, id) in ids.iter().enumerate() {
            let key = &keys[(cursor as usize + i) % keys.len()];
            black_box(stage.on_read_rx(0, FN_GET, cid, *id, key, cap));
        }
        let t1 = Instant::now();
        for (id, reply) in ids.iter().zip(&replies) {
            stage.on_response_tx(cid, *id, 0, 1, reply, cap);
        }
        let t2 = Instant::now();
        cursor = (cursor + BATCH) % KVS_KEYS as u32;
        // Warm until the cache is full and evicting.
        if round >= 20 {
            miss.push((t1 - t0).as_nanos() as f64 / f64::from(BATCH));
            fill.push((t2 - t1).as_nanos() as f64 / f64::from(BATCH));
        }
    }
    m.set("nic.offload.read_miss_ns", median(&miss));
    m.set("nic.offload.fill_ns", median(&fill));

    // Hits: one resident key, read repeatedly.
    let hot = &keys[(cursor as usize + KVS_KEYS - 1) % KVS_KEYS];
    let id = rpc();
    stage.on_read_rx(0, FN_GET, cid, id, hot, cap);
    stage.on_response_tx(cid, id, 0, 1, &replies[0], cap);
    let id = rpc();
    m.set(
        "nic.offload.read_hit_ns",
        bench(20_000, || {
            black_box(stage.on_read_rx(0, FN_GET, cid, id, black_box(hot), cap));
        }),
    );
    // A SET: invalidate on RX, second bump when its reply leaves.
    m.set(
        "nic.offload.write_ns",
        bench(10_000, || {
            let id = rpc();
            stage.on_write_rx(cid, id, Some(black_box(&hot[..])));
            stage.on_response_tx(cid, id, 0, 1, &set_reply, cap);
        }),
    );

    // The store, called directly with this workload's key popularity.
    let store = Memcached::new(1 << 24, 8);
    for (id, key) in keys.iter().enumerate() {
        store.set(key, &gen.value(id as u32, 0));
    }
    let zipf = Zipf::new(KVS_KEYS, KVS_SKEW);
    let mut rng = SplitMix64::new(seed);
    let stream: Vec<usize> = (0..4096).map(|_| zipf.sample(&mut rng)).collect();
    let mut at = 0;
    m.set(
        "kvs.get_ns",
        bench(20_000, || {
            at = (at + 1) % stream.len();
            black_box(store.get(&keys[stream[at]]));
        }),
    );
    m.set(
        "kvs.set_ns",
        bench(20_000, || {
            at = (at + 1) % stream.len();
            black_box(store.set(&keys[stream[at]], &value));
        }),
    );
}

/// What share of an RPC's CPU time the replayed costs explain: each layer's
/// ns/op times how often the counters say it runs per RPC, over the CPU
/// time the process spent per RPC. The rest is hand-off, waiting and engine
/// control flow, which only in-program tracing can split.
pub fn budget(spec: &Spec, cpu_ns_per_rpc: f64, m: &mut Metrics) {
    let g = |name: &str| m.get(name);
    let frames = g("nic.engine.frames_per_rpc");
    let dgrams = g("nic.engine.datagrams_per_rpc");
    let handled = g("rpc.server.handled_per_rpc");
    // Both ends serialize and parse once; a NIC-served reply skips the
    // server's share.
    let mut ns = (g("rpc.wire.encode_ns") + g("rpc.wire.decode_ns")) * (1.0 + handled);
    ns += (g("rpc.frag.fragment_ns") + g("rpc.frag.reassemble_ns")) * (1.0 + handled);
    // Every transmitted frame crosses a host->NIC ring and a NIC->host
    // ring, and is looked up on TX and again on RX.
    ns += (g("nic.ring.push_pop_ns") + g("nic.conncache.lookup_ns")) * 2.0 * frames;
    // One wire buffer and one line vector per datagram.
    ns += g("nic.bufpool.get_put_ns") * 2.0 * dgrams;
    ns += if spec.reliable {
        (g("nic.reliable.send_ns") + g("nic.reliable.recv_ns")) * dgrams
    } else {
        (g("nic.transport.encode_ns") + g("nic.transport.decode_ns")) * dgrams
    };
    ns += (g("nic.fabric.send_recv_ns") + g("nic.fabric_udp.send_recv_ns")) * dgrams;
    if spec.is_kvs() {
        let hit = g("nic.offload.hit_permille") / 1000.0;
        let Kind::Kvs { get_permille } = spec.kind else {
            unreachable!("is_kvs")
        };
        let gets = f64::from(get_permille) / 1000.0;
        let sets = 1.0 - gets;
        ns += gets * g("idl.table_validate_ns");
        ns += gets * hit * g("nic.offload.read_hit_ns");
        ns += gets * (1.0 - hit) * (g("nic.offload.read_miss_ns") + g("nic.offload.fill_ns"));
        ns += sets * g("nic.offload.write_ns");
        ns += gets * (1.0 - hit) * g("kvs.get_ns") + sets * g("kvs.set_ns");
    }
    let accounted = if cpu_ns_per_rpc > 0.0 {
        1000.0 * ns / cpu_ns_per_rpc
    } else {
        0.0
    };
    m.set("budget.accounted_permille", accounted);
}
