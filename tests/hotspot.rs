//! Hotspot scenario: a seeded Zipfian hotspot over a 4-queue NIC pair
//! under composed fabric faults.
//!
//! Most of the call volume is funneled through the connections that RSS
//! routes to one server queue (the "hot" queue), with a long Zipf-style
//! tail over the rest. A connection's requests all go to one queue,
//! `conn_route_tag(cid) % 4`, so the hot queue stays hot, and the run must
//! keep:
//!
//! * byte-exact, exactly-once responses matched to their callers;
//! * per-flow FIFO order at every dispatch thread (Static LB, single-frame
//!   requests) under drop, reorder and duplication on the fabric.
//!
//! Replay any failure locally with `RUST_SEED=<seed> cargo test --test
//! hotspot`.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dagger::idl::{dagger_message, dagger_service};
use dagger::nic::engine::conn_route_tag;
use dagger::nic::{FaultPlan, MemFabric, Nic};
use dagger::rpc::{PendingCall, RpcClientPool, RpcThreadedServer, Wire};
use dagger::types::{FnId, HardConfig, LbPolicy, NodeAddr, Result};

const NUM_QUEUES: usize = 4;
const NUM_CLIENTS: usize = 8;
const HOT_CALLS: u32 = 600;
const COLD_CALLS: u32 = 50;

dagger_message! {
    pub struct Blob {
        client: u32,
        seq: u32,
        body: Vec<u8>,
    }
}

dagger_service! {
    pub service Hot {
        handler = HotHandler;
        dispatch = HotDispatch;
        client = HotClient;
        rpc echo(Blob) -> Blob = 1, async = echo_async;
    }
}

/// Echo handler recording per-client arrival order: with a static LB and
/// single-frame requests, "seq strictly increasing per client" is the
/// per-flow FIFO contract.
struct OrderedEcho {
    next: Mutex<HashMap<u32, u32>>,
    violations: Arc<Mutex<Vec<String>>>,
}

impl HotHandler for OrderedEcho {
    fn echo(&self, request: Blob) -> Result<Blob> {
        let mut next = self.next.lock().unwrap();
        let expected = next.entry(request.client).or_insert(0);
        if request.seq < *expected {
            self.violations.lock().unwrap().push(format!(
                "client {} delivered seq {} after {}",
                request.client,
                request.seq,
                *expected - 1
            ));
        }
        *expected = request.seq + 1;
        drop(next);
        Ok(request)
    }
}

fn cfg() -> HardConfig {
    HardConfig {
        reliable: true,
        num_flows: NUM_CLIENTS,
        num_queues: NUM_QUEUES,
        ..HardConfig::default()
    }
}

fn env_seed() -> u64 {
    std::env::var("RUST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xD0_66E7)
}

fn body_for(client: u32, seq: u32) -> Vec<u8> {
    (0..16u32)
        .map(|i| (i.wrapping_mul(131) ^ seq.wrapping_mul(7) ^ client) as u8)
        .collect()
}

/// Pipelined worker: an 8-deep async window, every response checked
/// byte-exactly against the request it must answer.
fn drive_client(client: &Arc<dagger::rpc::RpcClient>, c: u32, calls: u32, seed: u64) {
    const WINDOW: usize = 8;
    let mut inflight: VecDeque<(u32, PendingCall)> = VecDeque::with_capacity(WINDOW);
    let check = |(want, pending): (u32, PendingCall)| {
        let bytes = pending
            .wait()
            .unwrap_or_else(|e| panic!("[seed={seed}] client {c} call {want} failed: {e}"));
        let resp = Blob::from_wire(&bytes).unwrap();
        assert_eq!(
            (resp.client, resp.seq),
            (c, want),
            "[seed={seed}] client {c}: response for wrong call"
        );
        assert_eq!(
            resp.body,
            body_for(c, want),
            "[seed={seed}] client {c} call {want}: payload mangled"
        );
    };
    for seq in 0..calls {
        if inflight.len() == WINDOW {
            check(inflight.pop_front().unwrap());
        }
        let blob = Blob {
            client: c,
            seq,
            body: body_for(c, seq),
        };
        inflight.push_back((seq, client.call_async(FnId(1), &blob.to_wire()).unwrap()));
    }
    for entry in inflight {
        check(entry);
    }
}

/// What one scenario run leaves for its test to check.
struct RunOutcome {
    /// The server queue the most client connections route to.
    hot_q: usize,
    /// Calls issued on the connections routed to `hot_q`.
    hot_calls: u64,
    /// Frames each server queue received from the network.
    server_rx_frames: Vec<u64>,
}

/// One scenario run. The Zipfian skew is constructed from the RSS routes
/// themselves — whichever server queue the most client connections hash
/// to becomes the hot queue, and its clients get the heavy call counts —
/// so the hotspot is deterministic per seed, not hoped for. Ordering and
/// exactly-once are checked per call and per client inside the run.
fn run_hotspot(label: &str, seed: u64, plan: FaultPlan) -> RunOutcome {
    eprintln!("hotspot {label}: seed={seed}");
    let fabric = MemFabric::with_faults(plan);

    let violations = Arc::new(Mutex::new(Vec::new()));
    let server_nic = Nic::start(&fabric, NodeAddr(1), cfg()).unwrap();
    let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), NUM_CLIENTS);
    server
        .register_service(Arc::new(HotDispatch::new(OrderedEcho {
            next: Mutex::new(HashMap::new()),
            violations: Arc::clone(&violations),
        })))
        .unwrap();
    server.start().unwrap();

    let client_nic = Nic::start(&fabric, NodeAddr(100), cfg()).unwrap();
    let pool = RpcClientPool::connect_with(
        Arc::clone(&client_nic),
        NodeAddr(1),
        NUM_CLIENTS,
        LbPolicy::Static,
    )
    .unwrap();

    // A connection lands on server queue `route_tag % 4`. The modal queue
    // across our connections is the hot one; its clients carry the heavy
    // head of the Zipf load.
    let routed: Vec<usize> = (0..NUM_CLIENTS)
        .map(|c| {
            let cid = pool.client(c).unwrap().connection_id();
            (conn_route_tag(cid) % NUM_QUEUES as u64) as usize
        })
        .collect();
    let mut per_queue = [0u32; NUM_QUEUES];
    for &q in &routed {
        per_queue[q] += 1;
    }
    let hot_q = (0..NUM_QUEUES).max_by_key(|&q| per_queue[q]).unwrap();
    let calls_for: Vec<u32> = routed
        .iter()
        .map(|&q| if q == hot_q { HOT_CALLS } else { COLD_CALLS })
        .collect();
    eprintln!(
        "[{label} seed={seed}] connection routes {routed:?}, hot queue q{hot_q} \
         ({} of {NUM_CLIENTS} connections)",
        per_queue[hot_q]
    );

    let workers: Vec<_> = (0..NUM_CLIENTS as u32)
        .map(|c| {
            let raw = pool.client(c as usize).unwrap();
            raw.set_timeout(Duration::from_secs(60));
            let calls = calls_for[c as usize];
            std::thread::spawn(move || drive_client(&raw, c, calls, seed))
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    let order_violations = violations.lock().unwrap().clone();
    assert!(
        order_violations.is_empty(),
        "[{label} seed={seed}] per-flow order violated: {order_violations:?}"
    );
    for c in 0..NUM_CLIENTS {
        let ready = pool.client(c).unwrap().endpoint().ready_len();
        assert_eq!(
            ready, 0,
            "[{label} seed={seed}] client {c}: {ready} responses stuck in queue"
        );
    }

    // The run was under composed faults, not a clean fabric.
    let faults = fabric.fault_stats();
    assert!(
        faults.dropped > 0 && faults.reordered > 0 && faults.duplicated > 0,
        "[{label} seed={seed}] the fault plan never fired: {faults:?}"
    );

    let server_rx_frames = server_nic
        .monitor()
        .snapshot()
        .queues
        .iter()
        .map(|q| q.rx_frames)
        .collect();
    server.stop();
    drop(pool);
    client_nic.shutdown();
    server_nic.shutdown();

    RunOutcome {
        hot_q,
        hot_calls: calls_for
            .iter()
            .zip(&routed)
            .filter(|&(_, &q)| q == hot_q)
            .map(|(&c, _)| u64::from(c))
            .sum(),
        server_rx_frames,
    }
}

/// The Zipfian hotspot under static steering, the baseline the hotspot
/// scenario is built around. A connection keeps one destination queue for
/// its life, so every request on a hot connection arrives at the hot
/// queue, and that queue receives more frames than any other. The name
/// is older than the retirement of the elastic RSS controller; the static
/// arm of that comparison is what remains.
#[test]
fn zipfian_hotspot_balancer_vs_static() {
    let seed = env_seed();
    let plan = FaultPlan::seeded(seed)
        .with_drop(0.02)
        .with_reorder(0.03, 4)
        .with_duplicate(0.02);
    let run = run_hotspot("static", seed, plan);
    let rx = &run.server_rx_frames;
    eprintln!(
        "[seed={seed}] server rx_frames per queue {rx:?}, hot queue q{}",
        run.hot_q
    );
    assert!(
        rx[run.hot_q] >= run.hot_calls,
        "[seed={seed}] hot queue q{} received {} frames for {} hot requests",
        run.hot_q,
        rx[run.hot_q],
        run.hot_calls
    );
    for (q, &frames) in rx.iter().enumerate() {
        assert!(
            q == run.hot_q || frames < rx[run.hot_q],
            "[seed={seed}] queue q{q} ({frames} frames) outdrew the hot queue \
             q{} ({} frames)",
            run.hot_q,
            rx[run.hot_q]
        );
    }
}

/// The same scenario at a second seed under a heavier composed fault plan
/// (drop + reorder + duplicate + corrupt + delay): ordering and
/// exactly-once must hold while the transport is busy repairing the wire.
/// Nothing remaps any more (a connection's route is fixed); the name is
/// kept for the composed-fault run.
#[test]
fn hotspot_remap_survives_composed_faults() {
    let seed = env_seed().wrapping_add(1);
    let plan = FaultPlan::seeded(seed)
        .with_drop(0.02)
        .with_reorder(0.03, 4)
        .with_duplicate(0.02)
        .with_corrupt(0.01)
        .with_delay(0.02, 3);
    let run = run_hotspot("composed", seed, plan);
    assert!(
        run.server_rx_frames[run.hot_q] >= run.hot_calls,
        "[seed={seed}] hot queue q{} received {} frames for {} hot requests",
        run.hot_q,
        run.server_rx_frames[run.hot_q],
        run.hot_calls
    );
}
