//! Elastic RSS controller: a closed loop from this NIC's per-queue receive
//! counters back into its `queue.mask` soft register.
//!
//! A background thread reads the NIC's own per-queue [`QueueStats`] banks
//! (the counters behind the `nic.<addr>.q<i>.rx_frames` gauges) and diffs
//! `rx_frames` once per poll. When one receive queue sustains a load skew
//! above threshold
//! (a hotspot: many connections hashing onto one queue), the controller
//! rewrites the `queue.mask` soft register to exclude the hot queue —
//! senders' fresh RSS routes then spread those connections over the
//! remaining queues, migrating each connection through the engine's
//! drain-and-handoff step (see [`crate::engine`] module docs) so per-flow
//! order and exactly-once delivery survive the move. Once traffic quiets,
//! the full mask is restored.
//!
//! The control loop is deliberately conservative: a skew must *sustain*
//! for several consecutive observation windows before the mask changes,
//! and a cooldown separates consecutive rewrites, so transient bursts and
//! measurement noise cannot flap the mask.
//!
//! The mask the controller writes reaches senders through the
//! [`crate::fabric::Fabric`] seam (`set_queue_mask`): the switch consults
//! it live on every route toward a node in its own table, over any wire.
//! A sender in another process (UDP) cannot see it — it spreads by
//! declared queue count and the receiver folds — so a mask rewrite narrows
//! in-process traffic immediately and cross-process traffic behaviorally
//! (frames still land, on fewer distinct staging queues).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dagger_telemetry::{FlightEventKind, Telemetry};
use dagger_types::NodeAddr;

use crate::monitor::QueueStats;
use crate::softreg::SoftRegisterFile;

/// Tuning knobs of the elastic RSS controller.
#[derive(Clone, Debug)]
pub struct BalancerConfig {
    /// Observation window: the thread reads the per-queue counters and
    /// re-evaluates once per interval.
    pub poll_interval: Duration,
    /// Max-over-mean per-queue load ratio that counts as a hotspot.
    pub skew_threshold: f64,
    /// Consecutive skewed windows required before the mask is rewritten.
    pub sustain: u32,
    /// Windows to wait after a rewrite before considering another.
    pub cooldown: u32,
    /// Windows with fewer total received frames than this are ignored for
    /// shedding (idle noise), and — once shed — count toward recovery.
    pub min_window_frames: u64,
}

impl Default for BalancerConfig {
    fn default() -> Self {
        BalancerConfig {
            poll_interval: Duration::from_millis(2),
            skew_threshold: 2.0,
            sustain: 3,
            cooldown: 8,
            min_window_frames: 64,
        }
    }
}

/// Controller state: either the full mask is active, or one hot queue has
/// been shed from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Balanced,
    Shed { hot: usize },
}

/// Handle to the running controller thread. Stops (and restores the full
/// queue mask) on [`stop`](QueueBalancer::stop) or drop.
pub struct QueueBalancer {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl QueueBalancer {
    /// Spawns the controller for one NIC.
    ///
    /// `queues` are the NIC's per-worker counter banks, indexed by queue;
    /// `softregs` the NIC's own register file (its mask handle is shared
    /// with the fabric's RSS router); `telemetry` receives the
    /// `nic.<addr>.balancer.*` counters and shed/restore flight events.
    pub fn start(
        telemetry: Arc<Telemetry>,
        softregs: Arc<SoftRegisterFile>,
        addr: NodeAddr,
        queues: Vec<Arc<QueueStats>>,
        cfg: BalancerConfig,
    ) -> QueueBalancer {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(format!("dagger-balancer-{}", addr.raw()))
            .spawn(move || run(&telemetry, &softregs, addr, &queues, &cfg, &stop2))
            .expect("spawn queue balancer");
        QueueBalancer {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the controller and joins its thread. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for QueueBalancer {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for QueueBalancer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueueBalancer")
            .field("running", &self.handle.is_some())
            .finish()
    }
}

fn run(
    telemetry: &Telemetry,
    softregs: &SoftRegisterFile,
    addr: NodeAddr,
    queues: &[Arc<QueueStats>],
    cfg: &BalancerConfig,
    stop: &AtomicBool,
) {
    let num_queues = queues.len();
    let polls = telemetry
        .registry()
        .counter(&format!("nic.{}.balancer.polls", addr.raw()));
    let remaps = telemetry
        .registry()
        .counter(&format!("nic.{}.balancer.remaps", addr.raw()));
    let restores = telemetry
        .registry()
        .counter(&format!("nic.{}.balancer.restores", addr.raw()));

    let full_mask = if num_queues >= 64 {
        u64::MAX
    } else {
        (1u64 << num_queues) - 1
    };
    // Cumulative rx_frames per queue at the previous decision.
    let mut base = vec![0u64; num_queues];
    let mut state = State::Balanced;
    let mut streak: u32 = 0;
    let mut cooldown: u32 = 0;

    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(cfg.poll_interval);
        polls.add(1);
        let loads: Vec<u64> = queues
            .iter()
            .zip(base.iter_mut())
            .map(|(qs, base)| {
                let cur = qs.snapshot().rx_frames;
                cur.saturating_sub(std::mem::replace(base, cur))
            })
            .collect();
        let total: u64 = loads.iter().sum();
        cooldown = cooldown.saturating_sub(1);

        match state {
            State::Balanced => {
                // Hotspot detection over this window's per-queue deltas.
                let (hot, &max) = loads
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &l)| l)
                    .unwrap_or((0, &0));
                let mean = total as f64 / num_queues as f64;
                let skewed = total >= cfg.min_window_frames
                    && mean > 0.0
                    && max as f64 / mean >= cfg.skew_threshold;
                streak = if skewed { streak + 1 } else { 0 };
                if streak >= cfg.sustain && cooldown == 0 && num_queues > 1 {
                    softregs.set_active_queue_mask(full_mask & !(1u64 << hot));
                    remaps.add(1);
                    telemetry.flight().record(
                        FlightEventKind::QueueShed,
                        addr.raw(),
                        hot as u64,
                        max,
                    );
                    state = State::Shed { hot };
                    streak = 0;
                    cooldown = cfg.cooldown;
                }
            }
            State::Shed { .. } => {
                // Restore once the load subsides: re-admitting the shed
                // queue under the same traffic would just re-create the
                // hotspot (the route hash is deterministic), so recovery
                // keys on quiet, not on momentary balance.
                let quiet = total < cfg.min_window_frames;
                streak = if quiet { streak + 1 } else { 0 };
                if streak >= cfg.sustain && cooldown == 0 {
                    softregs.set_active_queue_mask(0); // 0 = all queues
                    restores.add(1);
                    telemetry
                        .flight()
                        .record(FlightEventKind::QueueRestore, addr.raw(), 0, total);
                    state = State::Balanced;
                    streak = 0;
                    cooldown = cfg.cooldown;
                }
            }
        }
    }
    // Leave the register file the way a fresh NIC starts: all queues
    // active. A mask that outlives its controller would silently pin the
    // NIC to a subset forever.
    if state != State::Balanced {
        softregs.set_active_queue_mask(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn banks(n: usize) -> Vec<Arc<QueueStats>> {
        (0..n).map(|_| Arc::new(QueueStats::default())).collect()
    }

    /// Drives the controller with synthetic per-queue counter advances and
    /// watches the soft mask: a sustained hotspot on q1 must shed q1, and
    /// quiet must restore the full mask. Nothing here ever calls
    /// `Telemetry::sample_now()`: the loop reads the counters directly and
    /// does not depend on the sampling grid.
    #[test]
    fn sheds_hot_queue_and_restores_on_quiet() {
        let telemetry = Telemetry::new();
        let softregs = Arc::new(SoftRegisterFile::default());
        let addr = NodeAddr(9);
        let queues = banks(4);
        let cfg = BalancerConfig {
            poll_interval: Duration::from_millis(1),
            skew_threshold: 2.0,
            sustain: 2,
            cooldown: 1,
            min_window_frames: 32,
        };
        let mut bal = QueueBalancer::start(
            Arc::clone(&telemetry),
            Arc::clone(&softregs),
            addr,
            queues.clone(),
            cfg,
        );
        // Feed a hotspot: q1 takes ~90% of the frames.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while softregs.active_queue_mask() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "balancer never shed the hot queue"
            );
            for (q, qs) in queues.iter().enumerate() {
                qs.rx_frames.add(if q == 1 { 900 } else { 30 });
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            softregs.active_queue_mask(),
            0b1101,
            "mask must exclude exactly the hot queue"
        );
        // Quiet: counters stop advancing; the mask must come back.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while softregs.active_queue_mask() != 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "balancer never restored the full mask"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        bal.stop();
        let snap = telemetry.snapshot();
        assert_eq!(snap.registry.counter("nic.9.balancer.remaps"), Some(1));
        assert_eq!(snap.registry.counter("nic.9.balancer.restores"), Some(1));
    }

    #[test]
    fn transient_burst_below_sustain_does_not_remap() {
        let softregs = Arc::new(SoftRegisterFile::default());
        let queues = banks(2);
        let cfg = BalancerConfig {
            poll_interval: Duration::from_millis(1),
            sustain: 50, // far more windows than the burst below lasts
            ..BalancerConfig::default()
        };
        let mut bal = QueueBalancer::start(
            Telemetry::new(),
            Arc::clone(&softregs),
            NodeAddr(7),
            queues.clone(),
            cfg,
        );
        queues[1].rx_frames.add(10_000); // one skewed window, then silence
        std::thread::sleep(Duration::from_millis(40));
        bal.stop();
        assert_eq!(softregs.active_queue_mask(), 0, "mask must not move");
    }

    #[test]
    fn stop_is_idempotent_and_drop_safe() {
        let mut bal = QueueBalancer::start(
            Telemetry::new(),
            Arc::new(SoftRegisterFile::default()),
            NodeAddr(3),
            banks(2),
            BalancerConfig::default(),
        );
        bal.stop();
        bal.stop();
        drop(bal);
    }
}
