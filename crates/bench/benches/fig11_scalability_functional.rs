//! Fig. 11 (right), live: threads → throughput on the *functional* NIC.
//!
//! The simulator already reproduces the paper's Fig. 11 curve analytically;
//! this harness measures the real multi-queue engine instead. For each
//! queue count it builds a fresh NIC pair with `num_queues = N`, starts an
//! `N`-thread echo server, connects `N` pipelined clients with
//! [`RpcClientPool::connect_with`] — on a fresh NIC client `i` claims flow
//! `i`, which queue `i` owns — and records aggregate throughput.
//!
//! Prints machine-parseable `key=value` lines:
//!
//! * `fig11_functional_cores=` — host parallelism the numbers were taken at;
//! * `fig11_functional_q{N}_throughput_rps=` — aggregate echo rps;
//! * `fig11_functional_scaling_4q_vs_1q=` — the headline speedup ratio.
//!
//! Each client asserts that every response carries the sequence number of
//! the request it answers (byte-correct pairing), so a steering bug that
//! cross-wired flows would fail the run rather than skew the numbers.
//!
//! `DAGGER_BENCH_QUICK=1` shrinks the iteration counts for CI smoke runs.

use std::collections::VecDeque;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dagger_bench::banner;
use dagger_idl::{dagger_message, dagger_service};
use dagger_nic::nic::Nic;
use dagger_nic::MemFabric;
use dagger_rpc::{RpcClient, RpcClientPool, RpcThreadedServer, Wire};
use dagger_types::{FnId, HardConfig, LbPolicy, NodeAddr, Result};

dagger_message! {
    pub struct Echo {
        seq: u32,
        blob: Vec<u8>,
    }
}

dagger_service! {
    pub service Fig11 {
        handler = Fig11Handler;
        dispatch = Fig11Dispatch;
        client = Fig11Client;
        rpc echo(Echo) -> Echo = 1, async = echo_async;
    }
}

struct EchoImpl;
impl Fig11Handler for EchoImpl {
    fn echo(&self, request: Echo) -> Result<Echo> {
        Ok(request)
    }
}

fn quick() -> bool {
    std::env::var("DAGGER_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// One pipelined echo client: window of `WINDOW` calls in flight, every
/// response checked against the request sequence it must answer.
fn drive_client(client: &Arc<RpcClient>, calls: u32) {
    const WINDOW: usize = 16;
    let blob = vec![0xA5u8; 16];
    let mut inflight: VecDeque<(u32, dagger_rpc::PendingCall)> = VecDeque::with_capacity(WINDOW);
    for seq in 0..calls {
        if inflight.len() == WINDOW {
            let (want, pending) = inflight.pop_front().unwrap();
            let resp = Echo::from_wire(&pending.wait().unwrap()).unwrap();
            assert_eq!(resp.seq, want, "response paired with wrong request");
        }
        let req = Echo {
            seq,
            blob: blob.clone(),
        };
        inflight.push_back((seq, client.call_async(FnId(1), &req.to_wire()).unwrap()));
    }
    for (want, pending) in inflight {
        let resp = Echo::from_wire(&pending.wait().unwrap()).unwrap();
        assert_eq!(resp.seq, want, "response paired with wrong request");
    }
}

/// Aggregate echo throughput over a fresh NIC pair with `queues` engine
/// workers per NIC, `queues` server dispatch threads, and `queues`
/// concurrent pipelined clients (one pinned per engine queue).
fn run_at(queues: usize, calls_per_client: u32) -> f64 {
    let cfg = HardConfig {
        num_flows: queues,
        num_queues: queues,
        ..HardConfig::default()
    };
    let fabric = MemFabric::new();
    let server_nic = Nic::start(&fabric, NodeAddr(1), cfg.clone()).unwrap();
    let client_nic = Nic::start(&fabric, NodeAddr(2), cfg).unwrap();
    let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), queues);
    server
        .register_service(Arc::new(Fig11Dispatch::new(EchoImpl)))
        .unwrap();
    server.start().unwrap();

    let pool = RpcClientPool::connect_with(
        Arc::clone(&client_nic),
        NodeAddr(1),
        queues,
        LbPolicy::Uniform,
    )
    .unwrap();
    for client in pool.iter() {
        client.set_timeout(Duration::from_secs(60));
    }

    // Warm-up: fill connection caches, buffer pools, reassembler maps on
    // every queue before the timed window opens.
    for client in pool.iter() {
        drive_client(client, calls_per_client / 10 + 16);
    }

    let ready = Arc::new(Barrier::new(queues + 1));
    let mut workers = Vec::with_capacity(queues);
    for i in 0..queues {
        let client = pool.client(i).unwrap();
        let ready = Arc::clone(&ready);
        workers.push(std::thread::spawn(move || {
            ready.wait();
            drive_client(&client, calls_per_client);
        }));
    }
    ready.wait();
    let start = Instant::now();
    for w in workers {
        w.join().unwrap();
    }
    let elapsed = start.elapsed();
    let tput = (queues as f64) * f64::from(calls_per_client) / elapsed.as_secs_f64();

    server.stop();
    drop(pool);
    client_nic.shutdown();
    server_nic.shutdown();
    tput
}

fn main() {
    banner(
        "fig11_scalability_functional",
        "live threads -> throughput on the multi-queue functional NIC",
    );
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("fig11_functional_cores={cores}");
    let calls: u32 = if quick() { 1_000 } else { 10_000 };

    let mut results = Vec::new();
    for queues in [1usize, 2, 4] {
        let tput = run_at(queues, calls);
        println!("fig11_functional_q{queues}_throughput_rps={tput:.0}");
        println!(
            "# {queues} queue(s): {tput:.0} rps aggregate over {} calls/client",
            calls
        );
        results.push((queues, tput));
    }
    let q1 = results
        .iter()
        .find(|(q, _)| *q == 1)
        .map_or(0.0, |(_, t)| *t);
    let q4 = results
        .iter()
        .find(|(q, _)| *q == 4)
        .map_or(0.0, |(_, t)| *t);
    if q1 > 0.0 {
        println!("fig11_functional_scaling_4q_vs_1q={:.2}", q4 / q1);
    }
    if cores < 4 {
        println!("# host has {cores} core(s): queue workers time-share; scaling ratio is not meaningful here");
    }
}
