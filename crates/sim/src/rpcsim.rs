//! Timed end-to-end RPC fabric model.
//!
//! Reproduces the paper's measurement setup (§5.1): a client and a server on
//! one machine, each behind its own NIC, connected through a modeled ToR
//! switch. Requests flow through the exact stage chain of Fig. 8:
//!
//! ```text
//! client CPU write → batch fill → NIC fetch (CCI-P/DMA) → bus endpoint →
//! NIC RPC pipeline → ToR → server NIC pipeline → endpoint → RX ring →
//! server dispatch core (poll + handler + response write) → … mirror … →
//! client completion poll
//! ```
//!
//! Every stage is an exact-FCFS [`resource`](crate::resource); queueing,
//! batch-fill waits, and tail inflation near saturation all *emerge* from
//! the event-driven sample path rather than being baked in. Used by the
//! harnesses for Table 3, Figs. 10–12, and (with per-op handler costs) the
//! KVS experiments.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::dist::{Bimodal, Exp, LogNormal};
use crate::engine::Sim;
use crate::interconnect::NicProfile;
use crate::resource::{BatchAccumulator, FcfsResource};
use crate::rng::Rng;
use crate::Nanos;
use dagger_telemetry::{Histogram, Summary};

/// Server-side request handler cost model (the "application" in front of
/// the fabric: 0 for echo microbenchmarks, KVS op costs for Fig. 12).
#[derive(Clone, Debug)]
pub enum HandlerModel {
    /// Constant cost.
    Fixed(u64),
    /// Lognormal cost with linear-space median and shape sigma.
    LogNormal {
        /// Median handler time in ns.
        median_ns: f64,
        /// Lognormal shape parameter.
        sigma: f64,
    },
    /// Two-point mixture.
    Bimodal {
        /// Probability of the `a_ns` branch.
        p_a: f64,
        /// Common branch cost in ns.
        a_ns: u64,
        /// Rare branch cost in ns.
        b_ns: u64,
    },
    /// Weighted mixture of sub-models (weights need not be normalized).
    Mix(Vec<(f64, HandlerModel)>),
}

impl HandlerModel {
    /// Draws one handler cost in nanoseconds.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        match self {
            HandlerModel::Fixed(ns) => *ns,
            HandlerModel::LogNormal { median_ns, sigma } => {
                LogNormal::with_median(*median_ns, *sigma).sample(rng) as u64
            }
            HandlerModel::Bimodal { p_a, a_ns, b_ns } => {
                Bimodal::new(*p_a, *a_ns as f64, *b_ns as f64).sample(rng) as u64
            }
            HandlerModel::Mix(parts) => {
                let total: f64 = parts.iter().map(|(w, _)| w).sum();
                let mut x = rng.next_f64() * total;
                for (w, m) in parts {
                    if x < *w {
                        return m.sample(rng);
                    }
                    x -= w;
                }
                parts.last().map(|(_, m)| m.sample(rng)).unwrap_or(0)
            }
        }
    }

    /// Mean handler cost (used for analytic saturation estimates).
    pub fn mean_ns(&self) -> f64 {
        match self {
            HandlerModel::Fixed(ns) => *ns as f64,
            HandlerModel::LogNormal { median_ns, sigma } => median_ns * (sigma * sigma / 2.0).exp(),
            HandlerModel::Bimodal { p_a, a_ns, b_ns } => {
                p_a * *a_ns as f64 + (1.0 - p_a) * *b_ns as f64
            }
            HandlerModel::Mix(parts) => {
                let total: f64 = parts.iter().map(|(w, _)| w).sum();
                parts.iter().map(|(w, m)| w * m.mean_ns()).sum::<f64>() / total
            }
        }
    }
}

/// CCI-P transfer batching policy (soft configuration, §4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Target batch size `B`.
    pub size: u32,
    /// Adapt `B` to load (the dashed "auto" line of Fig. 11 left).
    pub auto: bool,
    /// Batch fill timeout; a partial batch ships after this delay.
    pub timeout_ns: u64,
}

impl BatchPolicy {
    /// Fixed batch size `b` with the default 2 µs fill timeout.
    pub fn fixed(b: u32) -> Self {
        BatchPolicy {
            size: b,
            auto: false,
            timeout_ns: 2_000,
        }
    }

    /// Load-adaptive batching (B tracks the arrival rate).
    pub fn auto() -> Self {
        BatchPolicy {
            size: 4,
            auto: true,
            timeout_ns: 2_000,
        }
    }
}

/// Full specification of one timed fabric experiment.
#[derive(Clone, Debug)]
pub struct FabricSpec {
    /// Interface/NIC cost profile (from [`crate::interconnect`] or a
    /// baseline profile).
    pub profile: NicProfile,
    /// One-way ToR switch delay.
    pub tor_ns: u64,
    /// Server handler cost model.
    pub handler: HandlerModel,
    /// Transfer batching policy.
    pub batch: BatchPolicy,
    /// Number of client threads (each with its own flow/rings, Fig. 7).
    pub client_threads: usize,
    /// Number of server dispatch threads (each with its own flow).
    pub server_threads: usize,
    /// RX ring capacity per server flow; deliveries beyond this are dropped.
    pub rx_queue_capacity: usize,
    /// Client and server share one FPGA/bus endpoint (the paper's loopback
    /// methodology, §5.1). When `false`, each side gets its own endpoint.
    pub colocated: bool,
}

impl FabricSpec {
    /// A single-core Dagger echo fabric: UPI profile, batch `b`, 0.3 µs ToR.
    pub fn dagger_echo(profile: NicProfile, b: u32) -> Self {
        FabricSpec {
            profile,
            tor_ns: crate::interconnect::TOR_DELAY_NS,
            handler: HandlerModel::Fixed(0),
            batch: BatchPolicy::fixed(b),
            client_threads: 1,
            server_threads: 1,
            rx_queue_capacity: 256,
            colocated: true,
        }
    }

    /// Analytic saturation estimate (Mrps) across all client threads.
    pub fn estimate_saturation_mrps(&self) -> f64 {
        let per_flow = self
            .profile
            .saturation_mrps(self.batch.size, self.handler.mean_ns());
        let linear = per_flow * self.client_threads as f64;
        if self.profile.endpoint_svc_ns > 0.0 {
            let crossings_per_rpc = if self.colocated { 4.0 } else { 2.0 };
            let cap = 1e3 / (crossings_per_rpc * self.profile.endpoint_svc_ns);
            linear.min(cap)
        } else {
            linear
        }
    }
}

/// Result of one timed run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Offered load in Mrps (across all client threads).
    pub offered_mrps: f64,
    /// Delivered (completed) throughput in Mrps.
    pub delivered_mrps: f64,
    /// Completed requests.
    pub completions: u64,
    /// Requests dropped at full server RX rings.
    pub drops: u64,
    /// Round-trip latency summary over completed requests.
    pub rtt: Summary,
}

impl RunReport {
    /// Fraction of requests dropped.
    pub fn drop_rate(&self) -> f64 {
        let total = self.completions + self.drops;
        if total == 0 {
            0.0
        } else {
            self.drops as f64 / total as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct ReqRec {
    arrival: Nanos,
    client_flow: usize,
    handler_ns: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Dir {
    Request,
    Response,
}

struct SideState {
    cpu: Vec<FcfsResource>,
    batcher: Vec<BatchAccumulator>,
    pending: Vec<VecDeque<ReqRec>>,
    fetch: Vec<FcfsResource>,
    pipe: FcfsResource,
    ewma_gap: Vec<f64>,
    last_offer: Vec<Nanos>,
}

impl SideState {
    fn new(threads: usize, batch: BatchPolicy) -> Self {
        SideState {
            cpu: (0..threads).map(|_| FcfsResource::new()).collect(),
            batcher: (0..threads)
                .map(|_| BatchAccumulator::new(batch.size, Some(batch.timeout_ns)))
                .collect(),
            pending: (0..threads).map(|_| VecDeque::new()).collect(),
            fetch: (0..threads).map(|_| FcfsResource::new()).collect(),
            pipe: FcfsResource::new(),
            ewma_gap: vec![1_000.0; threads],
            last_offer: vec![0; threads],
        }
    }
}

struct RunState {
    profile: NicProfile,
    tor_ns: u64,
    batch_auto: bool,
    rx_cap: usize,
    client: SideState,
    server: SideState,
    endpoint: Vec<FcfsResource>, // len 1 (colocated) or 2
    server_depth: Vec<usize>,
    rr_server: usize,
    rng: Rng,
    hist: Histogram,
    completions: u64,
    drops: u64,
    total_requests: u64,
    first_arrival: Nanos,
    last_completion: Nanos,
    dbg_max: [u64; 4], // [client_cpu_wait, fetch_wait, server_cpu_wait, endpoint_wait]
    dbg_depth_max: usize,
}

impl RunState {
    fn endpoint_for(&mut self, dir: Dir) -> &mut FcfsResource {
        // In the colocated loopback there is one physical bus endpoint.
        if self.endpoint.len() == 1 {
            &mut self.endpoint[0]
        } else {
            match dir {
                Dir::Request => &mut self.endpoint[0],
                Dir::Response => &mut self.endpoint[1],
            }
        }
    }

    fn side(&mut self, dir: Dir) -> &mut SideState {
        match dir {
            Dir::Request => &mut self.client,
            Dir::Response => &mut self.server,
        }
    }

    fn finished(&self) -> bool {
        self.completions + self.drops >= self.total_requests
    }
}

/// The timed fabric simulator. See the module docs for the stage chain.
pub struct RpcFabricSim {
    spec: FabricSpec,
}

type Shared = Rc<RefCell<RunState>>;

impl RpcFabricSim {
    /// Creates a simulator for the given spec.
    ///
    /// # Panics
    ///
    /// Panics if thread counts are zero or the batch size is zero.
    pub fn new(spec: FabricSpec) -> Self {
        assert!(spec.client_threads > 0 && spec.server_threads > 0);
        assert!(spec.batch.size > 0);
        RpcFabricSim { spec }
    }

    /// The spec this simulator runs.
    pub fn spec(&self) -> &FabricSpec {
        &self.spec
    }

    /// Runs `requests` requests at `load_mrps` offered load; deterministic
    /// for a given `seed`.
    pub fn run(&self, load_mrps: f64, requests: u64, seed: u64) -> RunReport {
        assert!(load_mrps > 0.0, "load must be positive");
        let spec = &self.spec;
        let state = Rc::new(RefCell::new(RunState {
            profile: spec.profile.clone(),
            tor_ns: spec.tor_ns,
            batch_auto: spec.batch.auto,
            rx_cap: spec.rx_queue_capacity,
            client: SideState::new(spec.client_threads, spec.batch),
            server: SideState::new(spec.server_threads, spec.batch),
            endpoint: if spec.colocated {
                vec![FcfsResource::new()]
            } else {
                vec![FcfsResource::new(), FcfsResource::new()]
            },
            server_depth: vec![0; spec.server_threads],
            rr_server: 0,
            rng: Rng::new(seed),
            hist: Histogram::new(),
            completions: 0,
            drops: 0,
            total_requests: requests,
            first_arrival: Nanos::MAX,
            last_completion: 0,
            dbg_max: [0; 4],
            dbg_depth_max: 0,
        }));

        let mut sim = Sim::new();
        let per_thread_rate = load_mrps * 1e-3 / spec.client_threads as f64;
        let base = requests / spec.client_threads as u64;
        let extra = (requests % spec.client_threads as u64) as usize;
        for flow in 0..spec.client_threads {
            let n = base + u64::from(flow < extra);
            if n == 0 {
                continue;
            }
            let handler = spec.handler.clone();
            schedule_generator(&mut sim, state.clone(), flow, per_thread_rate, n, handler);
        }
        // Periodic flusher: ships timed-out partial batches on both sides.
        let flush_period = spec.batch.timeout_ns.max(500);
        schedule_flusher(&mut sim, state.clone(), flush_period);

        sim.run();

        if std::env::var_os("DAGGER_SIM_DEBUG").is_some() {
            let st = state.borrow();
            eprintln!(
                "[sim-debug] max waits(ns): {:?} max_depth={}",
                st.dbg_max, st.dbg_depth_max
            );
            let horizon = st.last_completion.max(1);
            let util = |r: &FcfsResource| r.busy_ns() as f64 / horizon as f64;
            eprintln!(
                "[sim-debug] horizon={}us client.cpu={:?} client.fetch={:?} client.pipe={:.2} \
                 server.cpu={:?} server.fetch={:?} server.pipe={:.2} endpoint={:?} drops={}",
                horizon / 1000,
                st.client
                    .cpu
                    .iter()
                    .map(|r| (util(r) * 100.0) as u32)
                    .collect::<Vec<_>>(),
                st.client
                    .fetch
                    .iter()
                    .map(|r| (util(r) * 100.0) as u32)
                    .collect::<Vec<_>>(),
                util(&st.client.pipe),
                st.server
                    .cpu
                    .iter()
                    .map(|r| (util(r) * 100.0) as u32)
                    .collect::<Vec<_>>(),
                st.server
                    .fetch
                    .iter()
                    .map(|r| (util(r) * 100.0) as u32)
                    .collect::<Vec<_>>(),
                util(&st.server.pipe),
                st.endpoint
                    .iter()
                    .map(|r| (util(r) * 100.0) as u32)
                    .collect::<Vec<_>>(),
                st.drops
            );
        }

        let st = state.borrow();
        let duration = st
            .last_completion
            .saturating_sub(st.first_arrival.min(st.last_completion));
        let delivered_mrps = if duration > 0 {
            st.completions as f64 * 1e3 / duration as f64
        } else {
            0.0
        };
        RunReport {
            offered_mrps: load_mrps,
            delivered_mrps,
            completions: st.completions,
            drops: st.drops,
            rtt: st.hist.summary(),
        }
    }

    /// Median round-trip time at near-idle load (the closed-loop RTT
    /// methodology of Table 3).
    pub fn measure_rtt_us(&self, seed: u64) -> f64 {
        let report = self.run(0.05, 4_000, seed);
        report.rtt.p50_us()
    }

    /// Finds the highest offered load sustaining ≥98.5% delivery with <1%
    /// drops, by binary search (the paper's "<1% drops" criterion, §5.6).
    pub fn find_saturation_mrps(&self, seed: u64, requests: u64) -> f64 {
        let mut lo = 0.05f64;
        let mut hi = (self.spec.estimate_saturation_mrps() * 2.0).max(0.2);
        for _ in 0..14 {
            let mid = 0.5 * (lo + hi);
            let r = self.run(mid, requests, seed);
            let ok = r.delivered_mrps >= 0.985 * mid && r.drop_rate() < 0.01;
            if ok {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

fn auto_batch_size(gap_ewma: f64) -> u32 {
    // Faster arrivals justify deeper batches; mirrors Dagger's soft-config
    // controller that raises B only when the fill wait is negligible (§5.4).
    if gap_ewma < 130.0 {
        4
    } else if gap_ewma < 300.0 {
        2
    } else {
        1
    }
}

fn schedule_generator(
    sim: &mut Sim,
    st: Shared,
    flow: usize,
    rate_per_ns: f64,
    remaining: u64,
    handler: crate::rpcsim::HandlerModel,
) {
    let gap = {
        let mut s = st.borrow_mut();
        Exp::with_rate(rate_per_ns).sample(&mut s.rng) as u64
    };
    sim.schedule_in(gap.max(1), move |sim| {
        let now = sim.now();
        {
            let mut s = st.borrow_mut();
            s.first_arrival = s.first_arrival.min(now);
            let handler_ns = handler.sample(&mut s.rng);
            let rec = ReqRec {
                arrival: now,
                client_flow: flow,
                handler_ns,
            };
            // Stage 1: CPU writes the request into the shared TX ring.
            let svc = s.profile.cpu_base_ns as u64;
            let (start, done) = s.client.cpu[flow].admit(now, svc);
            s.dbg_max[0] = s.dbg_max[0].max(start - now);
            drop(s);
            schedule_offer(sim, st.clone(), Dir::Request, flow, rec, done);
        }
        if remaining > 1 {
            schedule_generator(sim, st, flow, rate_per_ns, remaining - 1, handler);
        }
    });
}

/// Stage 2: the written request is offered to the flow's batch accumulator.
fn schedule_offer(sim: &mut Sim, st: Shared, dir: Dir, flow: usize, rec: ReqRec, at: Nanos) {
    sim.schedule_at(at, move |sim| {
        let now = sim.now();
        let batches = {
            let mut s = st.borrow_mut();
            let auto = s.batch_auto;
            let side = s.side(dir);
            // Load-adaptive batch size from the EWMA of offer gaps.
            let gap = now.saturating_sub(side.last_offer[flow]) as f64;
            side.last_offer[flow] = now;
            side.ewma_gap[flow] = 0.8 * side.ewma_gap[flow] + 0.2 * gap;
            if auto {
                let b = auto_batch_size(side.ewma_gap[flow]);
                side.batcher[flow].set_batch_size(b);
            }
            side.pending[flow].push_back(rec);
            side.batcher[flow].offer(now)
        };
        for (ready, len) in batches {
            dispatch_batch(sim, st.clone(), dir, flow, len, ready);
        }
    });
}

/// Stages 3–5: per-batch doorbell (if any), NIC fetch, bus endpoint, and
/// entry of each request into the NIC pipeline.
///
/// Every stage boundary is a real scheduled event and resources are always
/// admitted at the *current* simulation time: admitting at computed future
/// times would place phantom reservations on shared resources (endpoint,
/// pipelines) and block unrelated flows on idle hardware.
fn dispatch_batch(sim: &mut Sim, st: Shared, dir: Dir, flow: usize, len: u32, ready: Nanos) {
    sim.schedule_at(ready, move |sim| {
        let now = sim.now();
        let mut s = st.borrow_mut();
        let cpu_per_batch = s.profile.cpu_per_batch_ns as u64;
        // Pop the batch's requests in FIFO order.
        let items: Vec<ReqRec> = {
            let side = s.side(dir);
            (0..len)
                .filter_map(|_| side.pending[flow].pop_front())
                .collect()
        };
        if items.is_empty() {
            return;
        }
        // Doorbell MMIO charged to the submitting CPU once per batch.
        let fetch_at = if cpu_per_batch > 0 {
            let side = s.side(dir);
            let (_, done) = side.cpu[flow].admit(now, cpu_per_batch);
            done
        } else {
            now
        };
        drop(s);
        let st2 = st.clone();
        sim.schedule_at(fetch_at, move |sim| {
            fetch_stage(sim, st2, dir, flow, items);
        });
    });
}

/// NIC fetch of a whole batch (CCI-P read or PCIe DMA engine).
fn fetch_stage(sim: &mut Sim, st: Shared, dir: Dir, flow: usize, items: Vec<ReqRec>) {
    let now = sim.now();
    let fetch_done = {
        let mut s = st.borrow_mut();
        let profile = s.profile.clone();
        let fetch_svc = (profile.nic_fetch_per_batch_ns
            + profile.nic_fetch_per_req_ns * items.len() as f64) as u64;
        let side = s.side(dir);
        let (fetch_start, fetch_done) = side.fetch[flow].admit(now, fetch_svc);
        s.dbg_max[1] = s.dbg_max[1].max(fetch_start - now);
        fetch_done
    };
    let st2 = st.clone();
    sim.schedule_at(fetch_done, move |sim| {
        endpoint_tx_stage(sim, st2, dir, items);
    });
}

/// Bus endpoint crossing of a fetched batch (one 64 B line per request),
/// then transfer latency to the NIC.
fn endpoint_tx_stage(sim: &mut Sim, st: Shared, dir: Dir, items: Vec<ReqRec>) {
    let now = sim.now();
    let (at_nic, _lat) = {
        let mut s = st.borrow_mut();
        let profile = s.profile.clone();
        let ep_svc = (profile.endpoint_svc_ns * items.len() as f64) as u64;
        let ep_done = if ep_svc > 0 {
            s.endpoint_for(dir).admit(now, ep_svc).1
        } else {
            now
        };
        (ep_done + profile.lat_cpu_to_nic_ns, 0u64)
    };
    let st2 = st.clone();
    sim.schedule_at(at_nic, move |sim| {
        nic_pipe_stage(sim, st2, dir, items);
    });
}

/// Each request of the batch traverses the transmitting NIC's RPC pipeline
/// and then crosses the wire (pipeline latency + ToR).
fn nic_pipe_stage(sim: &mut Sim, st: Shared, dir: Dir, items: Vec<ReqRec>) {
    let now = sim.now();
    let mut s = st.borrow_mut();
    let profile = s.profile.clone();
    let tor = s.tor_ns;
    let pipe_svc = profile.nic_pipeline_svc_ns as u64;
    let wire = profile.nic_pipeline_lat_ns + tor;
    for rec in items {
        let (_, pipe_done) = {
            let side = s.side(dir);
            side.pipe.admit(now, pipe_svc)
        };
        drop(s);
        let st2 = st.clone();
        match dir {
            Dir::Request => sim.schedule_at(pipe_done + wire, move |sim| {
                server_rx_stage(sim, st2, rec);
            }),
            Dir::Response => sim.schedule_at(pipe_done + wire, move |sim| {
                client_rx_stage(sim, st2, rec);
            }),
        }
        s = st.borrow_mut();
    }
}

/// Request direction: receiving NIC pipeline (connection lookup + load
/// balancer), then the RX-ring endpoint crossing.
fn server_rx_stage(sim: &mut Sim, st: Shared, rec: ReqRec) {
    let now = sim.now();
    let (ep_at, lat) = {
        let mut s = st.borrow_mut();
        let profile = s.profile.clone();
        let (_, pipe_done) = s.server.pipe.admit(now, profile.nic_pipeline_svc_ns as u64);
        (pipe_done, profile.lat_nic_to_cpu_ns)
    };
    let st2 = st.clone();
    sim.schedule_at(ep_at, move |sim| {
        let now = sim.now();
        let delivered_at = {
            let mut s = st2.borrow_mut();
            let ep_svc = s.profile.endpoint_svc_ns as u64;
            if ep_svc > 0 {
                s.endpoint_for(Dir::Request).admit(now, ep_svc).1 + lat
            } else {
                now + lat
            }
        };
        let st3 = st2.clone();
        sim.schedule_at(delivered_at, move |sim| {
            server_deliver_stage(sim, st3, rec);
        });
    });
}

/// Delivery into a server flow's RX ring and dispatch-thread processing:
/// poll + handler + response write (§4.2's dispatch-thread model).
fn server_deliver_stage(sim: &mut Sim, st: Shared, rec: ReqRec) {
    let now = sim.now();
    let mut s = st.borrow_mut();
    let profile = s.profile.clone();
    // Uniform dynamic load balancing across server flows (§4.4.2).
    let sflow = s.rr_server % s.server_depth.len();
    s.rr_server += 1;
    if s.server_depth[sflow] >= s.rx_cap {
        s.drops += 1;
        s.last_completion = s.last_completion.max(now);
        return;
    }
    s.server_depth[sflow] += 1;
    let d = s.server_depth[sflow];
    s.dbg_depth_max = s.dbg_depth_max.max(d);
    let svc = (profile.recv_poll_ns + profile.cpu_base_ns) as u64 + rec.handler_ns;
    let (start, done) = s.server.cpu[sflow].admit(now, svc);
    s.dbg_max[2] = s.dbg_max[2].max(start - now);
    drop(s);
    // The ring slot frees when the dispatch thread picks the request up.
    let st2 = st.clone();
    sim.schedule_at(start, move |_| {
        st2.borrow_mut().server_depth[sflow] -= 1;
    });
    // Response written at `done`; offer it to the server-side batcher.
    schedule_offer(sim, st, Dir::Response, sflow, rec, done);
}

/// Response direction: client NIC pipeline, endpoint crossing, delivery into
/// the issuing flow's completion queue, completion poll, RTT record.
fn client_rx_stage(sim: &mut Sim, st: Shared, rec: ReqRec) {
    let now = sim.now();
    let (ep_at, lat) = {
        let mut s = st.borrow_mut();
        let profile = s.profile.clone();
        let (_, pipe_done) = s.client.pipe.admit(now, profile.nic_pipeline_svc_ns as u64);
        (pipe_done, profile.lat_nic_to_cpu_ns)
    };
    let st2 = st.clone();
    sim.schedule_at(ep_at, move |sim| {
        let now = sim.now();
        let delivered_at = {
            let mut s = st2.borrow_mut();
            let ep_svc = s.profile.endpoint_svc_ns as u64;
            if ep_svc > 0 {
                s.endpoint_for(Dir::Response).admit(now, ep_svc).1 + lat
            } else {
                now + lat
            }
        };
        let st3 = st2.clone();
        sim.schedule_at(delivered_at, move |sim| {
            let now = sim.now();
            let mut s = st3.borrow_mut();
            let poll_svc = s.profile.recv_poll_ns as u64;
            let (_, polled) = s.client.cpu[rec.client_flow].admit(now, poll_svc);
            s.hist.record(polled.saturating_sub(rec.arrival));
            s.completions += 1;
            s.last_completion = s.last_completion.max(polled);
        });
    });
}

/// Periodically ships timed-out partial batches so low-load runs terminate.
fn schedule_flusher(sim: &mut Sim, st: Shared, period: Nanos) {
    sim.schedule_in(period, move |sim| {
        let now = sim.now();
        let mut flushed: Vec<(Dir, usize, u32, Nanos)> = Vec::new();
        {
            let mut s = st.borrow_mut();
            if s.finished() {
                return;
            }
            for dir in [Dir::Request, Dir::Response] {
                let side = s.side(dir);
                for flow in 0..side.batcher.len() {
                    if let Some((ready, len)) = side.batcher[flow].flush_expired(now) {
                        flushed.push((dir, flow, len, ready));
                    }
                }
            }
        }
        for (dir, flow, len, ready) in flushed {
            dispatch_batch(sim, st.clone(), dir, flow, len, ready);
        }
        schedule_flusher(sim, st, period);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interconnect::profile_for;
    use dagger_types::IfaceKind;

    fn upi_spec(b: u32) -> FabricSpec {
        FabricSpec::dagger_echo(profile_for(IfaceKind::Upi), b)
    }

    #[test]
    fn low_load_rtt_is_microseconds() {
        let sim = RpcFabricSim::new(upi_spec(1));
        let rtt = sim.measure_rtt_us(1);
        assert!(
            (1.2..3.0).contains(&rtt),
            "UPI B=1 low-load RTT {rtt} us, expected ~1.8-2.1"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let sim = RpcFabricSim::new(upi_spec(4));
        let a = sim.run(5.0, 20_000, 99);
        let b = sim.run(5.0, 20_000, 99);
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.rtt.p50_ns, b.rtt.p50_ns);
        assert_eq!(a.drops, b.drops);
    }

    #[test]
    fn all_requests_complete_below_saturation() {
        let sim = RpcFabricSim::new(upi_spec(4));
        let r = sim.run(5.0, 30_000, 7);
        assert_eq!(r.completions + r.drops, 30_000);
        assert_eq!(r.drops, 0);
        assert!(
            (r.delivered_mrps - 5.0).abs() / 5.0 < 0.05,
            "{}",
            r.delivered_mrps
        );
    }

    #[test]
    fn saturation_near_fig10_upi_numbers() {
        let sat1 = RpcFabricSim::new(upi_spec(1)).find_saturation_mrps(3, 60_000);
        let sat4 = RpcFabricSim::new(upi_spec(4)).find_saturation_mrps(3, 60_000);
        assert!((6.5..9.5).contains(&sat1), "B=1 sat {sat1}");
        assert!((10.5..14.0).contains(&sat4), "B=4 sat {sat4}");
        assert!(sat4 > sat1);
    }

    #[test]
    fn latency_grows_with_load_without_batching() {
        let sim = RpcFabricSim::new(upi_spec(1));
        let lo = sim.run(1.0, 30_000, 5).rtt.p50_ns;
        let hi = sim.run(7.0, 60_000, 5).rtt.p50_ns;
        assert!(hi > lo, "p50 at high load {hi} <= low load {lo}");
    }

    #[test]
    fn fixed_batching_latency_is_u_shaped() {
        // Fig. 11 (left): with fixed B=4 the batch-fill wait dominates at low
        // load, so the curve *decreases* before queueing takes over.
        let sim = RpcFabricSim::new(upi_spec(4));
        let low = sim.run(2.0, 30_000, 5).rtt.p50_ns;
        let mid = sim.run(10.0, 60_000, 5).rtt.p50_ns;
        let sat = sim.run(12.2, 80_000, 5).rtt.p50_ns;
        assert!(
            low > mid,
            "fill wait should inflate low-load latency: {low} vs {mid}"
        );
        assert!(
            sat > mid,
            "queueing should inflate near-saturation latency: {sat} vs {mid}"
        );
    }

    #[test]
    fn overload_induces_backpressure() {
        let sim = RpcFabricSim::new(upi_spec(4));
        let r = sim.run(40.0, 60_000, 5);
        // Offered far above the ~12.4 Mrps capacity: delivery saturates.
        assert!(r.delivered_mrps < 16.0, "delivered {}", r.delivered_mrps);
    }

    #[test]
    fn multi_thread_scaling_then_endpoint_cap() {
        let mut spec = upi_spec(4);
        spec.client_threads = 2;
        spec.server_threads = 2;
        let sat2 = RpcFabricSim::new(spec.clone()).find_saturation_mrps(3, 80_000);
        spec.client_threads = 8;
        spec.server_threads = 8;
        let sat8 = RpcFabricSim::new(spec).find_saturation_mrps(3, 80_000);
        assert!(sat2 > 18.0 && sat2 < 30.0, "2 threads {sat2}");
        assert!(
            (34.0..46.0).contains(&sat8),
            "8 threads should cap near 42: {sat8}"
        );
    }

    #[test]
    fn handler_cost_limits_throughput() {
        let mut spec = upi_spec(4);
        spec.handler = HandlerModel::Fixed(1_600);
        let sat = RpcFabricSim::new(spec).find_saturation_mrps(3, 30_000);
        assert!((0.4..0.8).contains(&sat), "memcached-like sat {sat}");
    }

    #[test]
    fn auto_batching_tracks_b1_latency_at_low_load() {
        let fixed4 = RpcFabricSim::new(upi_spec(4));
        let mut auto_spec = upi_spec(4);
        auto_spec.batch = BatchPolicy::auto();
        let auto = RpcFabricSim::new(auto_spec);
        let fixed_rtt = fixed4.run(0.5, 10_000, 2).rtt.p50_ns;
        let auto_rtt = auto.run(0.5, 10_000, 2).rtt.p50_ns;
        assert!(
            auto_rtt < fixed_rtt,
            "auto {auto_rtt} should beat fixed B=4 {fixed_rtt} at low load"
        );
    }

    #[test]
    fn mmio_lower_latency_higher_than_upi() {
        let mmio = RpcFabricSim::new(FabricSpec::dagger_echo(profile_for(IfaceKind::Mmio), 1));
        let upi = RpcFabricSim::new(upi_spec(1));
        let mmio_rtt = mmio.measure_rtt_us(1);
        let upi_rtt = upi.measure_rtt_us(1);
        assert!(
            mmio_rtt > upi_rtt,
            "MMIO {mmio_rtt} should exceed UPI {upi_rtt}"
        );
        assert!((3.0..5.0).contains(&mmio_rtt), "MMIO RTT {mmio_rtt}");
    }

    #[test]
    fn handler_model_sampling_and_means() {
        let mut rng = Rng::new(1);
        let mix = HandlerModel::Mix(vec![
            (0.5, HandlerModel::Fixed(100)),
            (0.5, HandlerModel::Fixed(300)),
        ]);
        let n = 50_000;
        let sum: u64 = (0..n).map(|_| mix.sample(&mut rng)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 200.0).abs() < 5.0, "mix mean {mean}");
        assert!((mix.mean_ns() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn tiny_queue_capacity_drops_under_overload() {
        let mut spec = upi_spec(1);
        spec.rx_queue_capacity = 2;
        spec.handler = HandlerModel::Fixed(5_000);
        let r = RpcFabricSim::new(spec).run(2.0, 20_000, 9);
        assert!(r.drops > 0, "expected drops with tiny ring + slow handler");
        assert_eq!(r.completions + r.drops, 20_000);
    }
}
