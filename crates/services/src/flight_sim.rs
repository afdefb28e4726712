//! Timed model of the Flight Registration service (Table 4, Fig. 15).
//!
//! The functional app ([`crate::flight`]) proves the system works; this
//! model regenerates the paper's numbers. Tier service times:
//!
//! * **Flight** is "resource-demanding and long-running": a bimodal
//!   handler — the vast majority of queries are fast (~2 µs), a small
//!   fraction (<1%, so percentile reports stay clean) are very slow
//!   (~80 ms "full fare-class recomputation" style requests). The *mean*
//!   (~330 µs) is what caps a single dispatch thread at ≈3 Krps — the
//!   paper's Simple-model ceiling of 2.7 Krps — while the *median* stays
//!   microseconds, matching Table 4's 13.3 µs end-to-end median.
//! * **Check-in** and **Passport** are cheap but issue nested blocking
//!   RPCs, holding their dispatch thread for the whole dependency subtree
//!   (§5.7's second observation).
//! * Moving those three tiers to worker pools (the *Optimized* model)
//!   multiplies capacity by the worker count — 16 workers ≈ 48 Krps, the
//!   paper's 17× gain — at the cost of a dispatch→worker handoff added to
//!   every request (+≈10 µs median, Table 4's 13.3 → 23.4 µs).
//!
//! Hops between tiers cost one Dagger one-way latency (~1.05 µs, half the
//! 2.1 µs RTT of Table 3).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use dagger_sim::dist::{Exp, LogNormal};
use dagger_sim::engine::Sim;
use dagger_sim::rng::Rng;
use dagger_sim::Nanos;
use dagger_telemetry::{Histogram, Summary};

/// One-way fabric hop between tiers (≈ half the Dagger RTT).
pub const HOP_NS: Nanos = 1_050;

/// How a tier executes handlers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TierMode {
    /// Handler runs in the single dispatch thread (holds it for nested
    /// calls too).
    Dispatch,
    /// Handler runs in a worker pool; the dispatch thread only hands off.
    Worker {
        /// Pool size.
        workers: usize,
        /// Extra latency of the dispatch→worker handoff (queueing +
        /// wake-up), ≈5 µs in the paper's software.
        handoff_ns: Nanos,
    },
}

impl TierMode {
    /// The default worker configuration used by the Optimized model.
    pub fn worker(workers: usize) -> Self {
        TierMode::Worker {
            workers,
            handoff_ns: 5_000,
        }
    }

    fn servers(&self) -> usize {
        match self {
            TierMode::Dispatch => 1,
            TierMode::Worker { workers, .. } => *workers,
        }
    }

    fn handoff(&self) -> Nanos {
        match self {
            TierMode::Dispatch => 0,
            TierMode::Worker { handoff_ns, .. } => *handoff_ns,
        }
    }
}

/// Configuration of the timed experiment.
#[derive(Clone, Debug)]
pub struct FlightSimConfig {
    /// Check-in tier threading.
    pub checkin: TierMode,
    /// Flight tier threading.
    pub flight: TierMode,
    /// Passport tier threading.
    pub passport: TierMode,
    /// Fast-path Flight query median (ns).
    pub flight_fast_ns: f64,
    /// Slow-path Flight query cost (ns).
    pub flight_slow_ns: f64,
    /// Fraction of slow Flight queries (< 0.01 keeps p99 clean).
    pub flight_slow_frac: f64,
    /// Check-in own-work median (ns).
    pub checkin_work_ns: f64,
    /// Admission queue bound at the Check-in tier; arrivals beyond it drop.
    pub admission_cap: usize,
    /// Staff front-end read load as a fraction of passenger load.
    pub staff_fraction: f64,
}

impl FlightSimConfig {
    /// The paper's *Simple* threading model.
    pub fn simple() -> Self {
        FlightSimConfig {
            checkin: TierMode::Dispatch,
            flight: TierMode::Dispatch,
            passport: TierMode::Dispatch,
            flight_fast_ns: 2_000.0,
            flight_slow_ns: 82_000_000.0,
            flight_slow_frac: 0.004,
            checkin_work_ns: 2_000.0,
            admission_cap: 4096,
            staff_fraction: 0.1,
        }
    }

    /// The paper's *Optimized* model: Flight, Check-in and Passport on
    /// worker pools (24 workers each — sized so the Flight tier's worker
    /// pool sustains ~45-48 Krps against its ~330 µs mean service time),
    /// with a tight 512-entry admission queue so tails stay bounded below
    /// saturation.
    pub fn optimized() -> Self {
        FlightSimConfig {
            checkin: TierMode::worker(24),
            flight: TierMode::worker(24),
            passport: TierMode::worker(24),
            admission_cap: 512,
            ..Self::simple()
        }
    }

    /// Mean Flight service time — the Simple model's capacity limit.
    pub fn flight_mean_ns(&self) -> f64 {
        (1.0 - self.flight_slow_frac) * self.flight_fast_ns
            + self.flight_slow_frac * self.flight_slow_ns
    }
}

/// Result of one timed run.
#[derive(Clone, Debug)]
pub struct FlightSimReport {
    /// Offered load in Krps.
    pub offered_krps: f64,
    /// Delivered (completed) throughput in Krps.
    pub delivered_krps: f64,
    /// Completed registrations.
    pub completions: u64,
    /// Admission drops.
    pub drops: u64,
    /// End-to-end latency (passenger-observed).
    pub e2e: Summary,
}

impl FlightSimReport {
    /// Fraction of requests dropped at admission.
    pub fn drop_rate(&self) -> f64 {
        let total = self.completions + self.drops;
        if total == 0 {
            0.0
        } else {
            self.drops as f64 / total as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Dynamic-hold server pools: a server is held from job start until the job
// explicitly releases it — required because a dispatch thread's occupancy
// includes nested downstream waits whose length is unknown at admission.
// ---------------------------------------------------------------------------

type Job = Box<dyn FnOnce(&mut Sim)>;

struct Pool {
    free: usize,
    queue: VecDeque<Job>,
}

impl Pool {
    fn new(servers: usize) -> Self {
        Pool {
            free: servers,
            queue: VecDeque::new(),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tier {
    CheckIn = 0,
    Flight = 1,
    Baggage = 2,
    Passport = 3,
    Citizens = 4,
    Airport = 5,
}

struct World {
    pools: Vec<Pool>,
    cfg: FlightSimConfig,
    rng: Rng,
    e2e: Histogram,
    completions: u64,
    drops: u64,
    first_arrival: Nanos,
    last_completion: Nanos,
}

type Shared = Rc<RefCell<World>>;

fn pool_submit(sim: &mut Sim, world: &Shared, tier: Tier, job: Job) {
    let runnable = {
        let mut w = world.borrow_mut();
        let pool = &mut w.pools[tier as usize];
        if pool.free > 0 {
            pool.free -= 1;
            Some(job)
        } else {
            pool.queue.push_back(job);
            None
        }
    };
    if let Some(job) = runnable {
        job_run(sim, job);
    }
}

fn job_run(sim: &mut Sim, job: Job) {
    // Run the job as an immediate event so recursion depth stays bounded.
    sim.schedule_in(0, move |sim| job(sim));
}

fn pool_release(sim: &mut Sim, world: &Shared, tier: Tier) {
    let next = {
        let mut w = world.borrow_mut();
        let pool = &mut w.pools[tier as usize];
        match pool.queue.pop_front() {
            Some(job) => Some(job),
            None => {
                pool.free += 1;
                None
            }
        }
    };
    if let Some(job) = next {
        job_run(sim, job);
    }
}

/// Calls a leaf tier: hop out, occupy a server for `svc`, hop back, then
/// `done(sim, completion_time)`.
fn call_leaf(
    sim: &mut Sim,
    world: Shared,
    tier: Tier,
    svc: Nanos,
    handoff: Nanos,
    done: Box<dyn FnOnce(&mut Sim)>,
) {
    sim.schedule_in(HOP_NS + handoff, move |sim| {
        let w2 = world.clone();
        pool_submit(
            sim,
            &world,
            tier,
            Box::new(move |sim| {
                sim.schedule_in(svc, move |sim| {
                    pool_release(sim, &w2, tier);
                    sim.schedule_in(HOP_NS, move |sim| done(sim));
                });
            }),
        );
    });
}

/// The timed 8-tier simulator.
pub struct FlightSim {
    cfg: FlightSimConfig,
}

impl FlightSim {
    /// Creates a simulator for the configuration.
    pub fn new(cfg: FlightSimConfig) -> Self {
        FlightSim { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &FlightSimConfig {
        &self.cfg
    }

    /// Analytic capacity estimate (Krps): the Flight tier's servers divided
    /// by its mean service time.
    pub fn estimate_capacity_krps(&self) -> f64 {
        self.cfg.flight.servers() as f64 / self.cfg.flight_mean_ns() * 1e6
    }

    /// Runs `requests` registrations at `load_krps`; deterministic per
    /// seed.
    pub fn run(&self, load_krps: f64, requests: u64, seed: u64) -> FlightSimReport {
        assert!(load_krps > 0.0);
        let cfg = self.cfg.clone();
        let world: Shared = Rc::new(RefCell::new(World {
            pools: vec![
                Pool::new(cfg.checkin.servers()),
                Pool::new(cfg.flight.servers()),
                Pool::new(1),
                Pool::new(cfg.passport.servers()),
                Pool::new(1),
                Pool::new(1),
            ],
            cfg: cfg.clone(),
            rng: Rng::new(seed),
            e2e: Histogram::new(),
            completions: 0,
            drops: 0,
            first_arrival: Nanos::MAX,
            last_completion: 0,
        }));
        let mut sim = Sim::new();
        let rate_per_ns = load_krps * 1e-6;
        schedule_passenger(&mut sim, world.clone(), rate_per_ns, requests);
        if cfg.staff_fraction > 0.0 {
            schedule_staff(
                &mut sim,
                world.clone(),
                rate_per_ns * cfg.staff_fraction,
                requests,
            );
        }
        sim.run();
        let w = world.borrow();
        let duration = w
            .last_completion
            .saturating_sub(w.first_arrival.min(w.last_completion));
        let delivered_krps = if duration > 0 {
            w.completions as f64 / duration as f64 * 1e6
        } else {
            0.0
        };
        FlightSimReport {
            offered_krps: load_krps,
            delivered_krps,
            completions: w.completions,
            drops: w.drops,
            e2e: w.e2e.summary(),
        }
    }

    /// Highest load (Krps) with <1% admission drops — Table 4's criterion.
    /// (Delivered throughput is not part of the criterion: a single slow
    /// Flight query finishing long after the last arrival would skew the
    /// completion-span rate.)
    pub fn find_max_load_krps(&self, seed: u64, requests: u64) -> f64 {
        let mut lo = 0.05f64;
        let mut hi = self.estimate_capacity_krps() * 2.0;
        for _ in 0..12 {
            let mid = 0.5 * (lo + hi);
            let r = self.run(mid, requests, seed);
            if r.drop_rate() < 0.01 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

fn schedule_passenger(sim: &mut Sim, world: Shared, rate_per_ns: f64, remaining: u64) {
    let gap = {
        let mut w = world.borrow_mut();
        Exp::with_rate(rate_per_ns).sample(&mut w.rng) as u64
    };
    sim.schedule_in(gap.max(1), move |sim| {
        let now = sim.now();
        {
            let mut w = world.borrow_mut();
            w.first_arrival = w.first_arrival.min(now);
        }
        start_checkin(sim, world.clone(), now);
        if remaining > 1 {
            schedule_passenger(sim, world, rate_per_ns, remaining - 1);
        }
    });
}

/// Staff front-end: open-loop async reads of the Airport database.
fn schedule_staff(sim: &mut Sim, world: Shared, rate_per_ns: f64, remaining: u64) {
    let gap = {
        let mut w = world.borrow_mut();
        Exp::with_rate(rate_per_ns).sample(&mut w.rng) as u64
    };
    sim.schedule_in(gap.max(1), move |sim| {
        let w2 = world.clone();
        call_leaf(sim, world.clone(), Tier::Airport, 250, 0, Box::new(|_| {}));
        if remaining > 1 {
            schedule_staff(sim, w2, rate_per_ns, remaining - 1);
        }
    });
}

fn start_checkin(sim: &mut Sim, world: Shared, arrival: Nanos) {
    // Admission control at the Check-in tier's ingress queue.
    {
        let mut w = world.borrow_mut();
        let cap = w.cfg.admission_cap;
        let pool = &w.pools[Tier::CheckIn as usize];
        if pool.free == 0 && pool.queue.len() >= cap {
            w.drops += 1;
            w.last_completion = w.last_completion.max(arrival);
            return;
        }
    }
    let handoff = { world.borrow().cfg.checkin.handoff() };
    sim.schedule_in(HOP_NS + handoff, move |sim| {
        let w2 = world.clone();
        pool_submit(
            sim,
            &world,
            Tier::CheckIn,
            Box::new(move |sim| checkin_handler(sim, w2, arrival)),
        );
    });
}

fn checkin_handler(sim: &mut Sim, world: Shared, arrival: Nanos) {
    let (own_work, flight_svc, passport_handoff, flight_handoff) = {
        let mut w = world.borrow_mut();
        let median = w.cfg.checkin_work_ns;
        let own = LogNormal::with_median(median, 0.3).sample(&mut w.rng) as u64;
        let slow = {
            let frac = w.cfg.flight_slow_frac;
            w.rng.chance(frac)
        };
        let flight_svc = if slow {
            w.cfg.flight_slow_ns as u64
        } else {
            let fast = w.cfg.flight_fast_ns;
            LogNormal::with_median(fast, 0.25).sample(&mut w.rng) as u64
        };
        (
            own,
            flight_svc,
            w.cfg.passport.handoff(),
            w.cfg.flight.handoff(),
        )
    };
    sim.schedule_in(own_work, move |sim| {
        // Fan-out to Flight, Baggage, Passport; join on all three.
        let pending = Rc::new(RefCell::new(3u8));
        let join_world = world.clone();
        let join: Rc<dyn Fn(&mut Sim)> = Rc::new(move |sim: &mut Sim| {
            {
                let mut left = pending.borrow_mut();
                *left -= 1;
                if *left > 0 {
                    return;
                }
            }
            // All three answered: blocking write to the Airport DB.
            let w3 = join_world.clone();
            call_leaf(
                sim,
                join_world.clone(),
                Tier::Airport,
                300,
                0,
                Box::new(move |sim| {
                    // Release the Check-in server, respond to the passenger
                    // front-end.
                    pool_release(sim, &w3, Tier::CheckIn);
                    let w4 = w3.clone();
                    sim.schedule_in(HOP_NS, move |sim| {
                        let mut w = w4.borrow_mut();
                        let now = sim.now();
                        w.e2e.record(now.saturating_sub(arrival));
                        w.completions += 1;
                        w.last_completion = w.last_completion.max(now);
                    });
                }),
            );
        });
        let as_done = |j: Rc<dyn Fn(&mut Sim)>| -> Box<dyn FnOnce(&mut Sim)> {
            Box::new(move |sim: &mut Sim| j(sim))
        };
        // Flight (possibly slow, possibly on workers).
        call_leaf(
            sim,
            world.clone(),
            Tier::Flight,
            flight_svc,
            flight_handoff,
            as_done(join.clone()),
        );
        // Baggage: cheap dispatch-mode leaf.
        call_leaf(
            sim,
            world.clone(),
            Tier::Baggage,
            300,
            0,
            as_done(join.clone()),
        );
        // Passport: holds its server across a nested Citizens read.
        let pworld = world.clone();
        let pjoin = as_done(join);
        sim.schedule_in(HOP_NS + passport_handoff, move |sim| {
            let w2 = pworld.clone();
            pool_submit(
                sim,
                &pworld,
                Tier::Passport,
                Box::new(move |sim| {
                    // Local identity checks, then the nested Citizens get.
                    sim.schedule_in(1_200, move |sim| {
                        let w3 = w2.clone();
                        call_leaf(
                            sim,
                            w2.clone(),
                            Tier::Citizens,
                            400,
                            0,
                            Box::new(move |sim| {
                                pool_release(sim, &w3, Tier::Passport);
                                sim.schedule_in(HOP_NS, move |sim| pjoin(sim));
                            }),
                        );
                    });
                }),
            );
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_low_load_latency_band() {
        let sim = FlightSim::new(FlightSimConfig::simple());
        let r = sim.run(0.015, 3_000, 1);
        let p50 = r.e2e.p50_us();
        let p99 = r.e2e.p99_us();
        assert!(
            (9.0..18.0).contains(&p50),
            "Simple p50 {p50} us, paper 13.3"
        );
        assert!(
            (p50..45.0).contains(&p99),
            "Simple p99 {p99} us, paper 23.8"
        );
        assert_eq!(r.drops, 0);
    }

    #[test]
    fn optimized_latency_higher_but_bounded() {
        let simple = FlightSim::new(FlightSimConfig::simple())
            .run(0.015, 3_000, 1)
            .e2e
            .p50_us();
        let optimized = FlightSim::new(FlightSimConfig::optimized())
            .run(0.015, 3_000, 1)
            .e2e
            .p50_us();
        assert!(
            optimized > simple + 5.0,
            "worker handoffs must add latency: {simple} -> {optimized}"
        );
        assert!((18.0..32.0).contains(&optimized), "paper 23.4: {optimized}");
    }

    #[test]
    fn capacity_matches_table4() {
        // Simple: the single Flight dispatch thread caps at 1/mean ≈ 3 Krps.
        let simple = FlightSim::new(FlightSimConfig::simple()).estimate_capacity_krps();
        assert!((2.0..4.0).contains(&simple), "Simple ~2.7-3 Krps: {simple}");
        // Optimized sustains ~42 Krps with <1% drops (paper: 48 Krps)...
        let opt = FlightSim::new(FlightSimConfig::optimized());
        let at_42 = opt.run(42.0, 40_000, 1);
        assert!(
            at_42.drop_rate() < 0.02,
            "42 Krps drops {}",
            at_42.drop_rate()
        );
        // ...which Simple cannot come close to.
        let s = FlightSim::new(FlightSimConfig::simple());
        let at_5 = s.run(5.0, 20_000, 1);
        assert!(
            at_5.drop_rate() > 0.05,
            "Simple at 5 Krps: {}",
            at_5.drop_rate()
        );
    }

    #[test]
    fn simple_model_drops_at_high_load() {
        let sim = FlightSim::new(FlightSimConfig::simple());
        let r = sim.run(10.0, 20_000, 2);
        assert!(r.drop_rate() > 0.2, "drop rate {}", r.drop_rate());
        let r_ok = sim.run(1.5, 10_000, 2);
        assert!(r_ok.drop_rate() < 0.01, "drop rate {}", r_ok.drop_rate());
    }

    #[test]
    fn optimized_sustains_what_simple_cannot() {
        let cfg_s = FlightSim::new(FlightSimConfig::simple());
        let cfg_o = FlightSim::new(FlightSimConfig::optimized());
        let load = 20.0; // Krps, far above Simple capacity
        let rs = cfg_s.run(load, 30_000, 3);
        let ro = cfg_o.run(load, 30_000, 3);
        assert!(rs.drop_rate() > 0.3, "Simple at 20K: {}", rs.drop_rate());
        assert!(
            ro.drop_rate() < 0.02,
            "Optimized at 20K: {}",
            ro.drop_rate()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let sim = FlightSim::new(FlightSimConfig::optimized());
        let a = sim.run(5.0, 5_000, 9);
        let b = sim.run(5.0, 5_000, 9);
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.e2e.p50_ns, b.e2e.p50_ns);
    }

    #[test]
    fn tail_soars_past_saturation() {
        let sim = FlightSim::new(FlightSimConfig::optimized());
        let below = sim.run(20.0, 40_000, 4);
        let above = sim.run(60.0, 60_000, 4);
        assert!(
            above.e2e.p99_ns > 4 * below.e2e.p99_ns || above.drop_rate() > 0.05,
            "p99 {} -> {}, drops {}",
            below.e2e.p99_us(),
            above.e2e.p99_us(),
            above.drop_rate()
        );
        // Median stays in the tens of microseconds (Fig. 15's flat median).
        assert!(below.e2e.p50_us() < 40.0);
    }
}
