//! Deterministic chaos harness for the reliable transport stack.
//!
//! Each scenario runs N clients × M servers over a [`MemFabric`] governed
//! by a seeded [`FaultPlan`], twice per seed, and checks the same
//! invariants every time:
//!
//! * every completed RPC echoes its payload byte-exactly, exactly once,
//!   matched to its caller (no lost / duplicated / cross-wired responses);
//! * no completion queue is left with stranded responses
//!   (`ready_len() == 0` after the run);
//! * the `fabric.*` telemetry gauges reconcile exactly with the harness's
//!   own [`MemFabric::fault_stats`] bookkeeping;
//! * the scenario's target fault counter actually fired (a chaos test that
//!   injected nothing proves nothing).
//!
//! Seeds are pinned in CI (1, 7, 42) plus one rotating `RUST_SEED` from the
//! CI run id; every failure message carries the seed for local replay:
//! `RUST_SEED=<seed> cargo test --test chaos`.

use std::sync::Arc;
use std::time::Duration;

use dagger::idl::{dagger_message, dagger_service};
use dagger::nic::reliable::ReliableConfig;
use dagger::nic::{FaultPlan, FaultSnapshot, MemFabric, Nic};
use dagger::rpc::{RpcClientPool, RpcThreadedServer};
use dagger::telemetry::Telemetry;
use dagger::types::{DaggerError, HardConfig, NodeAddr, Result};

mod common;
use common::{env_seed, tagged_lines, ReliablePair};

dagger_message! {
    pub struct Blob {
        seq: u32,
        body: Vec<u8>,
    }
}

dagger_service! {
    pub service Chaos {
        handler = ChaosHandler;
        dispatch = ChaosDispatch;
        client = ChaosClient;
        rpc echo(Blob) -> Blob = 1, async = echo_async;
    }
}

struct EchoImpl;
impl ChaosHandler for EchoImpl {
    fn echo(&self, request: Blob) -> Result<Blob> {
        Ok(request)
    }
}

fn reliable_cfg() -> HardConfig {
    HardConfig::builder().reliable(true).build().unwrap()
}

/// Deterministic multi-frame payload for client `client`'s call `seq`.
fn body_for(client: usize, seq: u32) -> Vec<u8> {
    (0..100u32)
        .map(|i| (i.wrapping_mul(31) ^ seq.wrapping_mul(7) ^ client as u32) as u8)
        .collect()
}

/// Scope guard: when a chaos invariant panics, dump the full telemetry
/// snapshot — v5 JSON with flight-recorder events and any SLO diagnosis
/// bundles — to `target/chaos-diagnosis/` so CI can upload it as a
/// failure-forensics artifact (see the chaos job in ci.yml).
struct DiagnosisDump {
    label: String,
    seed: u64,
    telemetry: Arc<Telemetry>,
    armed: bool,
}

impl Drop for DiagnosisDump {
    fn drop(&mut self) {
        if !self.armed || !std::thread::panicking() {
            return;
        }
        let dir = std::path::Path::new("target/chaos-diagnosis");
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let path = dir.join(format!("{}-seed{}.json", self.label, self.seed));
        if std::fs::write(&path, self.telemetry.snapshot().to_json()).is_ok() {
            eprintln!(
                "[{} seed={}] diagnosis snapshot written to {}",
                self.label,
                self.seed,
                path.display()
            );
        }
    }
}

/// Runs one chaos scenario once and returns the fabric's fault counters.
///
/// Panics (with `label` and `seed` in the message) if any invariant fails.
fn run_chaos(
    label: &str,
    seed: u64,
    plan: FaultPlan,
    n_servers: usize,
    n_clients: usize,
    calls: u32,
) -> FaultSnapshot {
    eprintln!("chaos scenario {label}: seed={seed}");
    let fabric = MemFabric::with_faults(plan);
    let telemetry = Telemetry::new();
    fabric.register_telemetry(&telemetry);
    let mut dump = DiagnosisDump {
        label: label.to_string(),
        seed,
        telemetry: Arc::clone(&telemetry),
        armed: true,
    };

    let mut servers = Vec::new();
    let mut server_nics = Vec::new();
    for s in 0..n_servers {
        let nic = Nic::start(&fabric, NodeAddr(1 + s as u32), reliable_cfg())
            .unwrap_or_else(|e| panic!("[{label} seed={seed}] server {s} start: {e}"));
        let mut server = RpcThreadedServer::new(Arc::clone(&nic), 1);
        server
            .register_service(Arc::new(ChaosDispatch::new(EchoImpl)))
            .unwrap();
        server.start().unwrap();
        servers.push(server);
        server_nics.push(nic);
    }

    // Each client gets its own NIC and connects to servers round-robin.
    let mut client_nics = Vec::new();
    let mut pools = Vec::new();
    for c in 0..n_clients {
        let nic = Nic::start(&fabric, NodeAddr(100 + c as u32), reliable_cfg())
            .unwrap_or_else(|e| panic!("[{label} seed={seed}] client {c} start: {e}"));
        let target = NodeAddr(1 + (c % n_servers) as u32);
        let pool = RpcClientPool::connect(Arc::clone(&nic), target, 1)
            .unwrap_or_else(|e| panic!("[{label} seed={seed}] client {c} connect: {e}"));
        client_nics.push(nic);
        pools.push(pool);
    }

    // Issue calls from every client concurrently; each response must echo
    // its own payload byte-exactly (exactly-once, no cross-wiring).
    let workers: Vec<_> = pools
        .iter()
        .enumerate()
        .map(|(c, pool)| {
            let raw = pool.client(0).unwrap();
            raw.set_timeout(Duration::from_secs(30));
            let client = ChaosClient::new(raw);
            let label = label.to_string();
            std::thread::spawn(move || {
                for seq in 0..calls {
                    let body = body_for(c, seq);
                    let resp = client
                        .echo(&Blob {
                            seq,
                            body: body.clone(),
                        })
                        .unwrap_or_else(|e| {
                            panic!("[{label} seed={seed}] client {c} call {seq} failed: {e}")
                        });
                    assert_eq!(
                        resp.seq, seq,
                        "[{label} seed={seed}] client {c}: response for wrong call"
                    );
                    assert_eq!(
                        resp.body, body,
                        "[{label} seed={seed}] client {c} call {seq}: payload mangled"
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // Invariant: no stranded responses in any completion queue.
    for (c, pool) in pools.iter().enumerate() {
        let ready = pool.client(0).unwrap().endpoint().ready_len();
        assert_eq!(
            ready, 0,
            "[{label} seed={seed}] client {c}: {ready} responses stuck in queue"
        );
    }

    for mut server in servers {
        server.stop();
    }
    drop(pools);
    for nic in client_nics.iter().chain(server_nics.iter()) {
        nic.shutdown();
    }

    // Invariant: exported telemetry reconciles exactly with the harness's
    // own bookkeeping (engines are stopped, so the counters are quiescent).
    let stats = fabric.fault_stats();
    let snap = telemetry.snapshot();
    for (gauge, expect) in [
        ("fabric.forwarded", stats.forwarded),
        ("fabric.dropped", stats.dropped),
        ("fabric.reordered", stats.reordered),
        ("fabric.duplicated", stats.duplicated),
        ("fabric.corrupted", stats.corrupted),
        ("fabric.delayed", stats.delayed),
        ("fabric.partition_drops", stats.partition_drops),
    ] {
        assert_eq!(
            snap.registry.gauge(gauge),
            Some(expect),
            "[{label} seed={seed}] telemetry gauge {gauge} diverges from fault_stats"
        );
    }
    // Same for every NIC's reliable-transport gauges, including the
    // per-queue forms (these NICs run one queue, so q0 carries it all).
    for nic in client_nics.iter().chain(server_nics.iter()) {
        let r = nic.reliable_stats();
        let snap = nic.telemetry().snapshot();
        let addr = nic.addr().raw();
        for (gauge, expect) in [
            ("reliable.retransmissions", r.retransmissions),
            ("reliable.out_of_order_drops", r.out_of_order_drops),
            ("reliable.duplicate_drops", r.duplicate_drops),
            ("reliable.wire_drops", r.wire_drops),
            ("reliable.sacked", r.sacked),
            ("reliable.wasted_retransmits", r.wasted_retransmits),
            ("q0.reliable.sacked", r.sacked),
            ("q0.reliable.wasted_retransmits", r.wasted_retransmits),
        ] {
            assert_eq!(
                snap.registry.gauge(&format!("nic.{addr}.{gauge}")),
                Some(expect),
                "[{label} seed={seed}] nic.{addr}.{gauge} diverges from reliable_stats"
            );
        }
    }
    dump.armed = false;
    stats
}

/// Runs a scenario twice with the same seed; invariants must hold on both
/// runs and `target` must have fired on both (engine-thread interleaving
/// makes exact counts run-dependent; the invariant set is not).
fn run_twice(label: &str, seed: u64, plan: FaultPlan, target: fn(&FaultSnapshot) -> u64) {
    for attempt in 0..2 {
        let stats = run_chaos(label, seed, plan, 2, 2, 25);
        assert!(
            target(&stats) > 0,
            "[{label} seed={seed} run {attempt}] target fault never fired: {stats:?}"
        );
        assert!(
            stats.forwarded > 0,
            "[{label} seed={seed} run {attempt}] no traffic crossed the fabric"
        );
    }
}

#[test]
fn chaos_drop() {
    run_twice("drop", 1, FaultPlan::seeded(1).with_drop(0.2), |s| {
        s.dropped
    });
}

#[test]
fn chaos_reorder() {
    run_twice(
        "reorder",
        7,
        FaultPlan::seeded(7).with_reorder(0.25, 8),
        |s| s.reordered,
    );
}

#[test]
fn chaos_duplicate() {
    run_twice(
        "duplicate",
        42,
        FaultPlan::seeded(42).with_duplicate(0.25),
        |s| s.duplicated,
    );
}

#[test]
fn chaos_corrupt() {
    run_twice("corrupt", 9, FaultPlan::seeded(9).with_corrupt(0.15), |s| {
        s.corrupted
    });
}

#[test]
fn chaos_composed() {
    let seed = 3;
    let plan = FaultPlan::seeded(seed)
        .with_drop(0.1)
        .with_reorder(0.1, 6)
        .with_duplicate(0.1)
        .with_corrupt(0.05)
        .with_delay(0.05, 16);
    run_twice("composed", seed, plan, FaultSnapshot::total_injected);
}

#[test]
fn chaos_rotating_seed() {
    // CI passes RUST_SEED=$GITHUB_RUN_ID so every pipeline run explores a
    // fresh point in the plan space; the composed plan keeps every fault
    // class in play. Replay locally with the seed from the failure message.
    let seed = env_seed();
    let plan = FaultPlan::seeded(seed)
        .with_drop(0.15)
        .with_reorder(0.15, 8)
        .with_duplicate(0.15)
        .with_corrupt(0.1)
        .with_delay(0.05, 16);
    run_twice("rotating", seed, plan, FaultSnapshot::total_injected);
}

/// Scripted partition/heal scenario: calls succeed, the link is cut
/// mid-run (sync and async issue paths must both surface a clean timeout
/// and leave the completion queue drained), then the link heals and calls
/// succeed again over the same connection.
#[test]
fn chaos_partition_heal() {
    let seed = 11u64;
    let label = "partition";
    let fabric = MemFabric::new();
    let telemetry = Telemetry::new();
    fabric.register_telemetry(&telemetry);
    let server_nic = Nic::start(&fabric, NodeAddr(1), reliable_cfg()).unwrap();
    let client_nic = Nic::start(&fabric, NodeAddr(2), reliable_cfg()).unwrap();
    let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
    server
        .register_service(Arc::new(ChaosDispatch::new(EchoImpl)))
        .unwrap();
    server.start().unwrap();
    let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1).unwrap();
    let raw = pool.client(0).unwrap();
    raw.set_timeout(Duration::from_secs(10));
    let client = ChaosClient::new(Arc::clone(&raw));

    // Healthy link: calls complete.
    for seq in 0..5u32 {
        let body = body_for(0, seq);
        let resp = client
            .echo(&Blob {
                seq,
                body: body.clone(),
            })
            .unwrap_or_else(|e| panic!("[{label} seed={seed}] pre-partition call {seq}: {e}"));
        assert_eq!(resp.body, body);
    }

    // Cut the link. Both issue paths must fail cleanly with Timeout.
    fabric.partition(NodeAddr(1), NodeAddr(2));
    raw.set_timeout(Duration::from_millis(300));
    let err = client
        .echo(&Blob {
            seq: 100,
            body: body_for(0, 100),
        })
        .unwrap_err();
    assert_eq!(
        err,
        DaggerError::Timeout,
        "[{label} seed={seed}] sync path under partition"
    );
    let pending = client
        .echo_async(&Blob {
            seq: 101,
            body: body_for(0, 101),
        })
        .unwrap_or_else(|e| panic!("[{label} seed={seed}] async issue under partition: {e}"));
    assert_eq!(
        pending.wait().unwrap_err(),
        DaggerError::Timeout,
        "[{label} seed={seed}] async path under partition"
    );
    assert!(
        fabric.fault_stats().partition_drops > 0,
        "[{label} seed={seed}] partition never blackholed a frame"
    );

    // Heal. The same connection recovers (the transport retransmits), new
    // calls complete, and the timed-out calls' late responses are dropped
    // rather than stranded in the completion queue.
    fabric.heal(NodeAddr(1), NodeAddr(2));
    raw.set_timeout(Duration::from_secs(20));
    for seq in 200..205u32 {
        let body = body_for(0, seq);
        let resp = client
            .echo(&Blob {
                seq,
                body: body.clone(),
            })
            .unwrap_or_else(|e| panic!("[{label} seed={seed}] post-heal call {seq}: {e}"));
        assert_eq!(resp.body, body);
    }
    assert_eq!(
        raw.endpoint().ready_len(),
        0,
        "[{label} seed={seed}] completion queue not drained after heal"
    );

    server.stop();
    drop(client);
    drop(raw);
    drop(pool);
    client_nic.shutdown();
    server_nic.shutdown();

    // Telemetry reconciles with the harness's bookkeeping here too.
    let stats = fabric.fault_stats();
    let snap = telemetry.snapshot();
    assert_eq!(
        snap.registry.gauge("fabric.partition_drops"),
        Some(stats.partition_drops),
        "[{label} seed={seed}] partition_drops gauge diverges"
    );
}

/// Replay equivalence: the same `RUST_SEED` + [`FaultPlan`] on a
/// [`MemFabric`], driven twice through the same single-threaded
/// [`ReliablePair`], must produce *identical* fault counters, delivery
/// order, and retransmit counters — the property that makes
/// `RUST_SEED=<seed>` failure replays trustworthy. (The threaded scenarios
/// above can only pin invariants, not exact counts, because engine
/// interleaving differs run to run; the pair driver has no threads.)
#[test]
fn chaos_replay_equivalence() {
    let seed = env_seed();
    let plan = FaultPlan::seeded(seed)
        .with_drop(0.15)
        .with_reorder(0.2, 4)
        .with_duplicate(0.15)
        .with_corrupt(0.1)
        .with_delay(0.1, 8);
    let lines = tagged_lines(96);
    let cfg = ReliableConfig {
        retransmit_after_ticks: 4,
        window: 16,
    };
    let run = |label: &str| {
        let mut pair = ReliablePair::new(plan, cfg);
        pair.run(&format!("replay seed={seed} {label}"), &lines, 1);
        (pair.fabric.fault_stats(), pair.stats(), pair.delivered)
    };
    let (faults1, stats1, order1) = run("run-1");
    let (faults2, stats2, order2) = run("run-2");

    // The delivery contract first: byte-exact, exactly once, in order,
    // despite chaos.
    assert_eq!(order1, lines, "[replay seed={seed}] delivery broke FIFO");
    assert!(
        faults1.total_injected() > 0,
        "[replay seed={seed}] plan injected nothing; replay proves nothing"
    );

    // Replay equivalence: every observable is bit-identical across runs.
    assert_eq!(
        order1, order2,
        "[replay seed={seed}] delivery order diverged"
    );
    assert_eq!(
        faults1, faults2,
        "[replay seed={seed}] fault counters diverged"
    );
    assert_eq!(
        stats1, stats2,
        "[replay seed={seed}] transport counters diverged"
    );
}

/// Selective repeat resends the holes, not the window. A seeded plan takes
/// two dozen of 600 data frames while the sender keeps a 64-deep window as
/// full as the plan allows, so every loss leaves a deep run of successors
/// buffered at the receiver. Delivery must stay byte-exact, exactly once,
/// in FIFO order, and the retransmission count must stay within a small
/// constant per frame the fabric took — a bound a whole-window resend
/// (64 per loss) breaks by an order of magnitude.
#[test]
fn chaos_selective_repeat_resends_only_the_holes() {
    const SEED: u64 = 9;
    let plan = FaultPlan::seeded(SEED)
        .with_drop(0.03)
        .with_corrupt(0.01)
        .with_reorder(0.02, 4)
        .with_delay(0.02, 8);
    let lines = tagged_lines(600);
    let cfg = ReliableConfig {
        retransmit_after_ticks: 4,
        window: 64,
    };
    let mut pair = ReliablePair::new(plan, cfg);
    pair.run("holes", &lines, usize::MAX);
    assert_eq!(pair.delivered, lines, "[holes] delivery broke FIFO");

    let faults = pair.fabric.fault_stats();
    let (tx, rx) = pair.stats();
    eprintln!("[holes] {faults} | tx {tx} | rx {rx}");
    let lost = faults.dropped + faults.corrupted;
    // The plan must have forced real repair work through the bitmap path.
    assert!(lost >= 10, "[holes] plan took only {lost} frames");
    assert!(tx.sacked > 0, "[holes] nothing was ever sacked");
    assert!(tx.retransmissions > 0, "[holes] nothing was ever repaired");
    // Measured on this plan: 82 retransmissions (60 of them answered by a
    // late original: the plan also reorders and delays) for 23 lost frames,
    // 302 sacked. Nearly all of the 700 forwarded frames are data — the
    // window refills every round, one ack comes back per round.
    assert!(
        tx.retransmissions <= 4 * lost,
        "[holes] {} retransmissions for {lost} lost frames",
        tx.retransmissions
    );
    assert!(
        rx.wasted_retransmits <= tx.retransmissions,
        "[holes] receiver discarded {} frames, sender re-sent only {}",
        rx.wasted_retransmits,
        tx.retransmissions
    );
}

/// A clean fabric through the same harness injects nothing: the zero-fault
/// baseline that anchors the counter-reconciliation checks.
#[test]
fn chaos_clean_baseline() {
    let stats = run_chaos("clean", 5, FaultPlan::seeded(5), 1, 2, 15);
    assert_eq!(
        stats.total_injected(),
        0,
        "[clean seed=5] faults on a clean fabric"
    );
}
