//! The offload test battery: the on-NIC compute stage (NIC-side serde +
//! hot-key response cache, DESIGN.md §18) under end-to-end traffic, chaos,
//! partitions, and one key served from two engine queues' cache banks.
//!
//! Invariants, checked every scenario:
//!
//! * **correctness** — every GET returns exactly the value of the last
//!   acknowledged SET for its key (the coherence claim of the double-bump
//!   protocol: zero stale reads, cache on or off);
//! * **accounting** — after shutdown the counters reconcile exactly:
//!   `client GETs == nic offload hits + store-side GETs`, and the client
//!   endpoints' `offload_served` totals equal the server NIC's `hits`;
//! * **transparency** — responses served by the NIC are byte-identical to
//!   host-served ones, apart from the `offloaded` header bit.
//!
//! Failure messages carry the seed: replay with
//! `RUST_SEED=<seed> cargo test --test offload`.

use std::sync::Arc;
use std::time::Duration;

use dagger::kvs::server::{
    KvGetRequest, KvGetResponse, KvSetRequest, KvStoreClient, KvStoreDispatch,
};
use dagger::kvs::{Memcached, MemcachedPort};
use dagger::nic::engine::conn_route_tag;
use dagger::nic::{FaultPlan, MemFabric, Nic};
use dagger::rpc::{RpcClientPool, RpcThreadedServer};
use dagger::types::{HardConfig, NodeAddr, RpcHeader, RpcKind};

/// Per-scenario server: a memcached-like store behind a NIC with the
/// offload stage armed (spec installed, cache sized).
struct OffloadServer {
    nic: Arc<Nic>,
    store: Arc<Memcached>,
    server: RpcThreadedServer,
}

fn start_server(
    fabric: &MemFabric,
    addr: u32,
    cfg: HardConfig,
    cache_entries: u32,
) -> OffloadServer {
    let nic = Nic::start(fabric, NodeAddr(addr), cfg).unwrap();
    assert!(nic.configure_offload(KvStoreClient::offload_spec().expect("kvs is offloadable")));
    nic.softregs().set_offload_cache_entries(cache_entries);
    let store = Arc::new(Memcached::new(1 << 22, 8));
    // One dispatch thread per engine queue: a request is steered among the
    // active flows of the queue that receives it.
    let threads = nic.config().num_queues;
    let mut server = RpcThreadedServer::new(Arc::clone(&nic), threads);
    server
        .register_service(Arc::new(KvStoreDispatch::new(MemcachedPort::new(
            Arc::clone(&store),
        ))))
        .unwrap();
    server.start().unwrap();
    OffloadServer { nic, store, server }
}

fn env_seed() -> u64 {
    std::env::var("RUST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xDA66E4)
}

/// Splitmix64 step: a tiny deterministic op-mix RNG.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hot keys get hotter: key index drawn with a crude Zipf-ish skew (half
/// the draws land on key 0, a quarter on key 1, ...).
fn hot_key(r: u64, keys: u64) -> u64 {
    let z = r.leading_zeros() as u64; // geometric
    z.min(keys - 1)
}

#[test]
fn hot_key_gets_served_from_nic_cache() {
    let fabric = MemFabric::new();
    let mut srv = start_server(&fabric, 1, HardConfig::default(), 64);
    let client_nic = Nic::start(&fabric, NodeAddr(2), HardConfig::default()).unwrap();
    let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1).unwrap();
    let raw = pool.client(0).unwrap();
    let client = KvStoreClient::new(Arc::clone(&raw));

    assert!(
        client
            .set(&KvSetRequest {
                key: b"hot".to_vec(),
                value: b"v1".to_vec(),
            })
            .unwrap()
            .ok
    );
    // First GET misses and fills; the rest must be NIC-served.
    for _ in 0..50 {
        let resp = client
            .get(&KvGetRequest {
                key: b"hot".to_vec(),
            })
            .unwrap();
        assert!(resp.found);
        assert_eq!(resp.value, b"v1");
    }
    let stats = srv.nic.offload_stats();
    assert!(
        stats.hits >= 49,
        "hot-key GETs were not cache-served: {stats:?}"
    );
    assert_eq!(stats.fills, 1, "{stats:?}");

    // A SET must invalidate: the next GET returns the new value (and goes
    // back to the store exactly once before re-caching).
    assert!(
        client
            .set(&KvSetRequest {
                key: b"hot".to_vec(),
                value: b"v2".to_vec(),
            })
            .unwrap()
            .ok
    );
    for _ in 0..10 {
        let resp = client
            .get(&KvGetRequest {
                key: b"hot".to_vec(),
            })
            .unwrap();
        assert_eq!(resp.value, b"v2", "stale read after SET");
    }
    let stats = srv.nic.offload_stats();
    assert!(stats.invalidations >= 1, "{stats:?}");
    assert!(stats.stale_drops >= 1, "{stats:?}");

    // Accounting: endpoint-side offload completions equal NIC-side hits,
    // and every GET the store never saw is a hit.
    let store_gets = srv.store.stats().get_hits + srv.store.stats().get_misses;
    assert_eq!(raw.endpoint().offload_served(), stats.hits);
    assert_eq!(store_gets + stats.hits, 60, "gets must partition exactly");

    srv.server.stop();
    drop(client);
    drop(raw);
    drop(pool);
    client_nic.shutdown();
    srv.nic.shutdown();
}

/// The A/B gate: the same operation sequence with the cache disabled and
/// enabled returns identical application-level results; disabled means the
/// NIC serves nothing.
#[test]
fn cache_disabled_and_enabled_agree() {
    let mut transcripts: Vec<Vec<KvGetResponse>> = Vec::new();
    for cache_entries in [0u32, 64] {
        let fabric = MemFabric::new();
        let mut srv = start_server(&fabric, 1, HardConfig::default(), cache_entries);
        let client_nic = Nic::start(&fabric, NodeAddr(2), HardConfig::default()).unwrap();
        let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1).unwrap();
        let client = KvStoreClient::new(pool.client(0).unwrap());

        let mut rng = 99u64;
        let mut transcript = Vec::new();
        for i in 0..200u64 {
            let key = hot_key(next_rand(&mut rng), 8).to_le_bytes().to_vec();
            if i % 5 == 0 {
                assert!(
                    client
                        .set(&KvSetRequest {
                            key,
                            value: i.to_le_bytes().to_vec(),
                        })
                        .unwrap()
                        .ok
                );
            } else {
                transcript.push(client.get(&KvGetRequest { key }).unwrap());
            }
        }
        let stats = srv.nic.offload_stats();
        if cache_entries == 0 {
            assert_eq!(stats.hits + stats.misses + stats.fills, 0, "{stats:?}");
        } else {
            assert!(stats.hits > 0, "cache enabled but never hit: {stats:?}");
        }
        transcripts.push(transcript);

        srv.server.stop();
        drop(client);
        drop(pool);
        client_nic.shutdown();
        srv.nic.shutdown();
    }
    assert_eq!(
        transcripts[0], transcripts[1],
        "cache on/off must be observationally identical"
    );
}

/// Zipfian hot-key GET/SET mix under composed fabric faults with the
/// reliable transport: byte-exact exactly-once results, zero stale reads,
/// and exact post-shutdown counter reconciliation.
#[test]
fn chaos_zipfian_mix_with_composed_faults() {
    let seed = env_seed();
    let plan = FaultPlan::seeded(seed)
        .with_drop(0.08)
        .with_reorder(0.1, 6)
        .with_duplicate(0.08)
        .with_delay(0.05, 12);
    let fabric = MemFabric::with_faults(plan);
    let cfg = HardConfig {
        reliable: true,
        ..HardConfig::default()
    };
    let mut srv = start_server(&fabric, 1, cfg.clone(), 128);

    let n_clients = 2usize;
    let calls = 150u32;
    let mut client_nics = Vec::new();
    let mut pools = Vec::new();
    for c in 0..n_clients {
        let nic = Nic::start(&fabric, NodeAddr(100 + c as u32), cfg.clone()).unwrap();
        let pool = RpcClientPool::connect(Arc::clone(&nic), NodeAddr(1), 1).unwrap();
        client_nics.push(nic);
        pools.push(pool);
    }

    let mut total_gets = 0u64;
    let workers: Vec<_> = pools
        .iter()
        .enumerate()
        .map(|(c, pool)| {
            let raw = pool.client(0).unwrap();
            raw.set_timeout(Duration::from_secs(30));
            let client = KvStoreClient::new(raw);
            std::thread::spawn(move || {
                // Disjoint per-client key spaces: each client is the sole
                // writer of its keys, so every GET has exactly one correct
                // answer — its own model. Any other value is a stale read.
                let mut model: Vec<Option<Vec<u8>>> = vec![None; 8];
                let mut rng = seed ^ (c as u64) << 32;
                let mut gets = 0u64;
                for i in 0..calls {
                    let idx = hot_key(next_rand(&mut rng), 8) as usize;
                    let key = format!("c{c}k{idx}").into_bytes();
                    if next_rand(&mut rng) % 10 < 2 {
                        let value = format!("c{c}v{i}").into_bytes();
                        let ok = client
                            .set(&KvSetRequest {
                                key,
                                value: value.clone(),
                            })
                            .unwrap_or_else(|e| panic!("[seed={seed}] c{c} set {i}: {e}"));
                        assert!(ok.ok);
                        model[idx] = Some(value);
                    } else {
                        gets += 1;
                        let resp = client
                            .get(&KvGetRequest { key })
                            .unwrap_or_else(|e| panic!("[seed={seed}] c{c} get {i}: {e}"));
                        match &model[idx] {
                            Some(v) => {
                                assert!(resp.found, "[seed={seed}] c{c} op {i}: lost write");
                                assert_eq!(&resp.value, v, "[seed={seed}] c{c} op {i}: stale read");
                            }
                            None => {
                                assert!(!resp.found, "[seed={seed}] c{c} op {i}: phantom value");
                            }
                        }
                    }
                }
                gets
            })
        })
        .collect();
    for w in workers {
        total_gets += w.join().unwrap();
    }

    // Quiesce, then reconcile: every GET was served exactly once, either by
    // the NIC cache or by the store — never both, never neither.
    let offload_served: u64 = pools
        .iter()
        .map(|p| p.client(0).unwrap().endpoint().offload_served())
        .sum();
    srv.server.stop();
    for pool in &pools {
        assert_eq!(pool.client(0).unwrap().endpoint().ready_len(), 0);
    }
    drop(pools);
    for nic in &client_nics {
        nic.shutdown();
    }
    let stats = srv.nic.offload_stats();
    srv.nic.shutdown();
    let store_gets = srv.store.stats().get_hits + srv.store.stats().get_misses;
    assert_eq!(
        stats.hits + store_gets,
        total_gets,
        "[seed={seed}] GET accounting diverged: {stats:?}, store={store_gets}"
    );
    assert_eq!(
        offload_served, stats.hits,
        "[seed={seed}] endpoint offload accounting diverged: {stats:?}"
    );
    assert!(
        stats.hits > 0,
        "[seed={seed}] chaos run never hit: {stats:?}"
    );
}

/// Partition/heal: cached entries must not outlive writes that happen
/// after the link heals, and the accounting still reconciles.
#[test]
fn partition_heal_keeps_cache_coherent() {
    let seed = 17u64;
    let fabric = MemFabric::new();
    let cfg = HardConfig {
        reliable: true,
        ..HardConfig::default()
    };
    let mut srv = start_server(&fabric, 1, cfg.clone(), 64);
    let client_nic = Nic::start(&fabric, NodeAddr(2), cfg).unwrap();
    let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1).unwrap();
    let raw = pool.client(0).unwrap();
    raw.set_timeout(Duration::from_secs(10));
    let client = KvStoreClient::new(Arc::clone(&raw));

    let key = b"pk".to_vec();
    assert!(
        client
            .set(&KvSetRequest {
                key: key.clone(),
                value: b"before".to_vec(),
            })
            .unwrap()
            .ok
    );
    for _ in 0..5 {
        assert_eq!(
            client
                .get(&KvGetRequest { key: key.clone() })
                .unwrap()
                .value,
            b"before",
            "[seed={seed}]"
        );
    }
    assert!(srv.nic.offload_stats().hits > 0);

    // Cut the link; a SET times out on the client but may or may not have
    // reached the server — either way the cache must not serve `before`
    // once a post-heal SET acks.
    fabric.partition(NodeAddr(1), NodeAddr(2));
    raw.set_timeout(Duration::from_millis(300));
    let _ = client.set(&KvSetRequest {
        key: key.clone(),
        value: b"during".to_vec(),
    });
    fabric.heal(NodeAddr(1), NodeAddr(2));
    raw.set_timeout(Duration::from_secs(20));

    assert!(
        client
            .set(&KvSetRequest {
                key: key.clone(),
                value: b"after".to_vec(),
            })
            .unwrap()
            .ok
    );
    for i in 0..10 {
        assert_eq!(
            client
                .get(&KvGetRequest { key: key.clone() })
                .unwrap()
                .value,
            b"after",
            "[seed={seed}] stale read {i} after heal"
        );
    }

    srv.server.stop();
    drop(client);
    drop(raw);
    drop(pool);
    client_nic.shutdown();
    srv.nic.shutdown();
}

/// One key read and written through two connections that route to
/// different server queues, each queue with its own cache bank: every read
/// returns the last acknowledged write, whichever bank served it, because
/// invalidation reaches every bank (the generation counters are NIC-wide).
#[test]
fn one_key_through_two_queues_stays_coherent() {
    let fabric = MemFabric::new();
    let cfg = HardConfig {
        num_queues: 2,
        ..HardConfig::default()
    };
    let mut srv = start_server(&fabric, 1, cfg, 64);
    let client_nic = Nic::start(&fabric, NodeAddr(2), HardConfig::default()).unwrap();
    let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 4).unwrap();
    // A connection's requests all land on server queue `route_tag % 2`.
    let clients = [0, 1].map(|q| {
        let raw = (0..4)
            .map(|i| pool.client(i).unwrap())
            .find(|raw| conn_route_tag(raw.connection_id()) % 2 == q)
            .unwrap_or_else(|| panic!("no connection routes to server queue {q}"));
        KvStoreClient::new(raw)
    });

    let key = b"shared".to_vec();
    let set = |client: &KvStoreClient, value: &[u8]| {
        let req = KvSetRequest {
            key: key.clone(),
            value: value.to_vec(),
        };
        assert!(client.set(&req).unwrap().ok);
    };
    let get = |client: &KvStoreClient| client.get(&KvGetRequest { key: key.clone() }).unwrap();
    let mut expected = b"init".to_vec();
    set(&clients[0], &expected);
    for round in 0..8 {
        for (q, client) in clients.iter().enumerate() {
            for _ in 0..10 {
                assert_eq!(get(client).value, expected, "round {round} queue {q}");
            }
        }
        // Write through one queue; the other queue's bank must not serve
        // the old value.
        let (writer, reader) = (&clients[round % 2], &clients[1 - round % 2]);
        expected = format!("r{round}").into_bytes();
        set(writer, &expected);
        assert_eq!(
            get(reader).value,
            expected,
            "round {round}: stale across banks"
        );
    }
    let stats = srv.nic.offload_stats();
    assert!(stats.hits > 0, "{stats:?}");

    srv.server.stop();
    drop(clients);
    drop(pool);
    client_nic.shutdown();
    srv.nic.shutdown();
}

/// Golden frame: the wire image of a NIC-synthesized (offloaded) response
/// header. Byte 12 pins the kind byte with the `OFFLOADED` bit (0x42), the
/// traced+offloaded combination (0xC2), and the plain response (0x02).
#[test]
fn offloaded_response_golden_frame() {
    use dagger::types::{ConnectionId, FlowId, FnId, RpcId};
    let hdr = RpcHeader {
        connection_id: ConnectionId(0x0102_0304),
        rpc_id: RpcId(0x1122_3344),
        fn_id: FnId(1),
        src_flow: FlowId(3),
        kind: RpcKind::Response,
        frame_idx: 0,
        frame_count: 1,
        frame_payload_len: 7,
        traced: false,
        offloaded: true,
    };
    let mut buf = [0u8; 16];
    hdr.encode(&mut buf);
    // golden frame: OFFLOADED_RESPONSE
    assert_eq!(
        buf,
        [
            0x04, 0x03, 0x02, 0x01, // connection_id LE
            0x44, 0x33, 0x22, 0x11, // rpc_id LE
            0x01, 0x00, // fn_id LE
            0x03, 0x00, // src_flow LE
            0x42, // kind: Response | OFFLOADED
            0x00, 0x01, 0x07, // frame_idx, frame_count, payload_len
        ]
    );
    let decoded = RpcHeader::decode(&buf).unwrap();
    assert!(decoded.offloaded && !decoded.traced);
    assert_eq!(decoded.kind, RpcKind::Response);
}
