//! Criterion micro-benchmarks of the data-plane primitives: ring ops,
//! header codec, wire serialization, fragmentation/reassembly, connection
//! lookup, load-balancer steering, KVS single ops, Zipf sampling, and
//! histogram recording.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use dagger_kvs::{Memcached, Mica};
use dagger_nic::connmgr::{CmPort, ConnectionManager, ConnectionTuple};
use dagger_nic::lb::LoadBalancer;
use dagger_nic::ring;
use dagger_rpc::frag::{fragment, Reassembler};
use dagger_rpc::Wire;
use dagger_sim::dist::Zipf;
use dagger_sim::Rng;
use dagger_telemetry::Histogram;
use dagger_types::{
    CacheLine, ConnectionId, FlowId, FnId, LbPolicy, NodeAddr, RpcHeader, RpcId, RpcKind,
    HEADER_BYTES,
};

fn bench_ring(c: &mut Criterion) {
    let (mut tx, mut rx) = ring(1024);
    let line = CacheLine::zeroed();
    c.bench_function("ring_push_pop", |b| {
        b.iter(|| {
            tx.try_push(black_box(line)).unwrap();
            black_box(rx.try_pop().unwrap());
        })
    });
}

fn bench_header_codec(c: &mut Criterion) {
    let hdr = RpcHeader {
        connection_id: ConnectionId(7),
        rpc_id: RpcId(42),
        fn_id: FnId(1),
        src_flow: FlowId(3),
        kind: RpcKind::Request,
        frame_idx: 0,
        frame_count: 1,
        frame_payload_len: 48,
        traced: false,
        offloaded: false,
    };
    let mut buf = [0u8; HEADER_BYTES];
    c.bench_function("header_encode_decode", |b| {
        b.iter(|| {
            hdr.encode(&mut buf);
            black_box(RpcHeader::decode(black_box(&buf)).unwrap());
        })
    });
}

fn bench_wire(c: &mut Criterion) {
    let value = (0..64u8).collect::<Vec<u8>>();
    c.bench_function("wire_vec_roundtrip", |b| {
        b.iter(|| {
            let bytes = black_box(&value).to_wire();
            black_box(Vec::<u8>::from_wire(&bytes).unwrap());
        })
    });
}

fn bench_fragment(c: &mut Criterion) {
    let payload = vec![0xABu8; 480]; // 10 frames
    c.bench_function("fragment_reassemble_480B", |b| {
        b.iter(|| {
            let frames = fragment(
                ConnectionId(1),
                RpcId(1),
                FnId(1),
                FlowId(0),
                RpcKind::Request,
                black_box(&payload),
            )
            .unwrap();
            let mut reassembler = Reassembler::new();
            let mut done = None;
            for frame in frames {
                done = reassembler.push(frame).unwrap();
            }
            black_box(done.unwrap());
        })
    });
}

fn bench_connmgr(c: &mut Criterion) {
    let mut cm = ConnectionManager::new(1024);
    for i in 0..512u32 {
        cm.open(
            ConnectionId(i),
            ConnectionTuple {
                src_flow: FlowId(0),
                dest_addr: NodeAddr(1),
                lb: LbPolicy::Uniform,
            },
        )
        .unwrap();
    }
    c.bench_function("connmgr_lookup_hit", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 512;
            black_box(cm.lookup(CmPort::Tx, ConnectionId(black_box(i))));
        })
    });
}

fn bench_lb(c: &mut Criterion) {
    let mut lb = LoadBalancer::new(LbPolicy::ObjectLevel, (0, 16));
    let hdr = RpcHeader {
        connection_id: ConnectionId(1),
        rpc_id: RpcId(1),
        fn_id: FnId(1),
        src_flow: FlowId(0),
        kind: RpcKind::Request,
        frame_idx: 0,
        frame_count: 1,
        frame_payload_len: 16,
        traced: false,
        offloaded: false,
    };
    let payload = [7u8; 16];
    c.bench_function("lb_object_level_steer", |b| {
        b.iter(|| black_box(lb.steer(&hdr, black_box(&payload), 8, 8, None)))
    });
}

fn bench_kvs(c: &mut Criterion) {
    let mcd = Memcached::new(1 << 22, 8);
    let mica = Mica::new(4, 1 << 12, 1 << 20);
    for i in 0..1_000u64 {
        mcd.set(&i.to_le_bytes(), &i.to_le_bytes());
        mica.set(&i.to_le_bytes(), &i.to_le_bytes());
    }
    c.bench_function("memcached_get", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 1_000;
            black_box(mcd.get(&i.to_le_bytes()));
        })
    });
    c.bench_function("mica_get", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 1_000;
            black_box(mica.get(&i.to_le_bytes()));
        })
    });
}

fn bench_zipf_and_hist(c: &mut Criterion) {
    let zipf = Zipf::new(200_000_000, 0.99);
    let mut rng = Rng::new(1);
    c.bench_function("zipf_sample_200M_keys", |b| {
        b.iter(|| black_box(zipf.sample(&mut rng)))
    });
    let mut hist = Histogram::new();
    let mut v = 1u64;
    c.bench_function("histogram_record", |b| {
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1) % 1_000_000;
            hist.record(black_box(v));
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_ring, bench_header_codec, bench_wire, bench_fragment, bench_connmgr, bench_lb, bench_kvs, bench_zipf_and_hist
}
criterion_main!(benches);
