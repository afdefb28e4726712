//! Ablations over the design choices DESIGN.md §7 calls out:
//! batch size, connection-cache geometry, load-balancer choice,
//! threading model, and ring provisioning (SRQ vs per-client).

use dagger_bench::{banner, paper_ref};
use dagger_nic::connmgr::{CmPort, ConnectionManager, ConnectionTuple};
use dagger_nic::lb::LoadBalancer;
use dagger_services::flight_sim::TierMode;
use dagger_services::{FlightSim, FlightSimConfig};
use dagger_sim::dist::Zipf;
use dagger_sim::interconnect::profile_for;
use dagger_sim::rpcsim::{FabricSpec, RpcFabricSim};
use dagger_sim::Rng;
use dagger_types::{
    ConnectionId, FlowId, FnId, IfaceKind, LbPolicy, NodeAddr, RpcHeader, RpcId, RpcKind,
};

/// Batch-size sweep: the soft-configuration knob of Fig. 10/11.
fn ablate_batch() {
    banner(
        "ablation: batch size",
        "UPI throughput/latency across B (soft config)",
    );
    println!(
        "{:<6} {:>10} {:>10} {:>10}",
        "B", "sat Mrps", "p50 us", "p99 us"
    );
    for b in [1u32, 2, 4, 8, 16] {
        let sim = RpcFabricSim::new(FabricSpec::dagger_echo(profile_for(IfaceKind::Upi), b));
        let sat = sim.find_saturation_mrps(1, 40_000);
        let report = sim.run(0.8 * sat, 40_000, 1);
        println!(
            "{b:<6} {sat:>10.1} {:>10.2} {:>10.2}",
            report.rtt.p50_us(),
            report.rtt.p99_us()
        );
    }
    paper_ref("diminishing throughput returns past B=4 while fill-wait latency keeps rising");
}

/// Connection-cache geometry vs spill rate under Zipf connection popularity.
fn ablate_connmgr() {
    banner(
        "ablation: connection cache",
        "direct-mapped size vs miss rate, 4K connections, Zipf 0.99 lookups",
    );
    println!(
        "{:<12} {:>12} {:>10}",
        "cache size", "miss rate %", "spills"
    );
    for bits in [6usize, 8, 10, 12, 14] {
        let size = 1 << bits;
        let mut cm = ConnectionManager::new(size);
        let conns = 4096u32;
        for c in 0..conns {
            cm.open(
                ConnectionId(c),
                ConnectionTuple {
                    src_flow: FlowId(0),
                    dest_addr: NodeAddr(1),
                    lb: LbPolicy::Uniform,
                },
            )
            .unwrap();
        }
        let zipf = Zipf::new(u64::from(conns), 0.99);
        let mut rng = Rng::new(1);
        let lookups = 200_000;
        for _ in 0..lookups {
            let cid = ConnectionId(zipf.sample(&mut rng) as u32);
            cm.lookup(CmPort::Tx, cid);
        }
        let (hits, misses) = cm.port_stats(CmPort::Tx);
        println!(
            "{size:<12} {:>12.2} {:>10}",
            misses as f64 / (hits + misses) as f64 * 100.0,
            cm.spills()
        );
    }
    paper_ref("the BRAM-budget knob of Table 1: misses fall off steeply with cache size and vanish at 1 entry per connection; the host-DRAM spill path keeps every connection reachable");
}

/// Load-balancer choice: distribution quality and the MICA affinity
/// invariant (§5.7).
fn ablate_lb() {
    banner(
        "ablation: load balancer",
        "flow distribution + same-key affinity across policies (4 flows)",
    );
    let mut rng = Rng::new(2);
    let zipf = Zipf::new(10_000, 0.99);
    for policy in [LbPolicy::Uniform, LbPolicy::Static, LbPolicy::ObjectLevel] {
        let mut lb = LoadBalancer::new(policy, (4, 12)); // key after the u32 len prefix
        let mut counts = [0u64; 4];
        let mut affinity_violations = 0u64;
        let mut seen: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for i in 0..100_000u32 {
            let key_id = zipf.sample(&mut rng);
            let mut payload = Vec::new();
            payload.extend_from_slice(&8u32.to_le_bytes());
            payload.extend_from_slice(&key_id.to_le_bytes());
            let hdr = RpcHeader {
                connection_id: ConnectionId(1),
                rpc_id: RpcId(i),
                fn_id: FnId(1),
                src_flow: FlowId(0),
                kind: RpcKind::Request,
                frame_idx: 0,
                frame_count: 1,
                frame_payload_len: 12,
                traced: false,
                offloaded: false,
            };
            let flow = lb.steer(&hdr, &payload, 4, Some(FlowId(0)));
            counts[flow] += 1;
            if let Some(&prev) = seen.get(&key_id) {
                if prev != flow {
                    affinity_violations += 1;
                }
            }
            seen.insert(key_id, flow);
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        println!(
            "{:<12} flow counts {:?}  imbalance {:.2}x  key-affinity violations {}",
            format!("{policy:?}"),
            counts,
            max / min.max(1.0),
            affinity_violations
        );
    }
    paper_ref(
        "uniform balances perfectly but breaks MICA's same-key-same-partition requirement; \
         object-level keeps affinity at the cost of popularity-skewed imbalance",
    );
}

/// Worker-count sweep for the Optimized flight service (Table 4's knob).
fn ablate_threading() {
    banner(
        "ablation: threading",
        "Flight-app capacity vs worker-pool size (dispatch = 1 worker)",
    );
    println!("{:<10} {:>12} {:>10}", "workers", "max Krps", "p50 us");
    for workers in [1usize, 2, 4, 8, 16, 32] {
        let mut cfg = FlightSimConfig::optimized();
        let mode = TierMode::worker(workers);
        cfg.checkin = mode;
        cfg.flight = mode;
        cfg.passport = mode;
        let sim = FlightSim::new(cfg);
        let max = sim.find_max_load_krps(1, 20_000);
        let idle = sim.run(0.015, 3_000, 1);
        println!("{workers:<10} {max:>12.1} {:>10.1}", idle.e2e.p50_us());
    }
    paper_ref("capacity scales ~linearly with workers; latency cost is the fixed handoff");
}

/// SRQ vs per-client ring provisioning (§4.2): connections per flow vs
/// achievable concurrency on the timed fabric.
fn ablate_rings() {
    banner(
        "ablation: ring provisioning",
        "4 concurrent clients: dedicated flows vs one shared flow (SRQ)",
    );
    // Dedicated: 4 flows each with its own ring pair.
    let mut dedicated = FabricSpec::dagger_echo(profile_for(IfaceKind::Upi), 4);
    dedicated.client_threads = 4;
    dedicated.server_threads = 4;
    let ded_sat = RpcFabricSim::new(dedicated).find_saturation_mrps(1, 60_000);
    // SRQ: the same demand multiplexed over one flow/ring pair.
    let shared = FabricSpec::dagger_echo(profile_for(IfaceKind::Upi), 4);
    let srq_sat = RpcFabricSim::new(shared).find_saturation_mrps(1, 60_000);
    println!("dedicated flows (4 rings): {ded_sat:.1} Mrps");
    println!("shared flow (SRQ, 1 ring): {srq_sat:.1} Mrps");
    paper_ref(
        "per-connection rings scale poorly in memory, a single shared ring caps concurrency; \
         the per-client flow mapping of Fig. 7 is the default for a reason",
    );
}

fn main() {
    ablate_batch();
    ablate_connmgr();
    ablate_lb();
    ablate_threading();
    ablate_rings();
}
