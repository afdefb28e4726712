//! SLO tracking: declared latency objectives, rolling burn rate, budget
//! accounting.
//!
//! An *objective* is a latency target ("99.9% of `rpc.client.rtt_ns`
//! samples under 100µs"). The tracker is self-contained: on every
//! evaluation pass ([`crate::Telemetry::sample_now`]) each objective reads
//! its own two cumulative numbers — good and total samples — straight from
//! its histogram, diffs them against the previous pass, and folds the delta
//! into its own rolling window of `SUB_WINDOWS` × `SUB_WINDOW_TICKS` grid
//! ticks (≈ 1 s on the flight recorder's 1 ms grid). No other metric is
//! visited and no sample is stored. From the window and the running totals
//! it derives:
//!
//! * **Error fraction** `e` — the fraction of bad events in the window
//!   (histogram samples above the latency threshold).
//! * **Burn rate** — `e / (1 - target)`: how many times faster than
//!   sustainable the error budget is burning. 1.0 means exactly on budget;
//!   exported milli-scaled as the gauge `slo.<name>.burn_rate`.
//! * **Budget remaining** — cumulative: `1 - cum_bad / (budget * cum_total)`,
//!   clamped at 0, exported ppm-scaled as `slo.<name>.budget_remaining`.
//!
//! Each fact has one home. The two gauges are the objective's state; a
//! crossing of the burn-rate threshold (≥ 1.0 entering breach, < 1.0
//! recovering) is one flight-recorder event carrying the burn rate and the
//! objective's declaration index; a breach also hands the hub a
//! diagnosis-bundle capture, which freezes the window counts.
//!
//! Evaluation is idempotent per grid tick: concurrent drivers collapse
//! onto the same grid point, and a *forced* pass (every
//! [`crate::Telemetry::snapshot`]) folds only what was recorded since the
//! previous one, so a final flush neither loses the tail of the window
//! nor counts anything twice.

use std::collections::VecDeque;

use crate::flight::{FlightEventKind, FlightRecorder};
use crate::hist::Histogram;
use crate::registry::MetricsRegistry;

/// Sub-windows in an objective's rolling window.
const SUB_WINDOWS: u64 = 8;

/// Grid ticks per sub-window.
const SUB_WINDOW_TICKS: u64 = 128;

/// Width of the rolling window in grid ticks; also the half-width of the
/// flight-recorder slice a diagnosis bundle freezes around a breach.
pub(crate) const WINDOW_TICKS: u64 = SUB_WINDOWS * SUB_WINDOW_TICKS;

/// A declared objective: `target` fraction of the samples of `histogram`
/// must be at or under `threshold_ns`.
#[derive(Clone, Debug)]
pub struct SloSpec {
    /// Objective name; gauges are exported as `slo.<name>.*`.
    pub name: String,
    /// Registry histogram name, e.g. `rpc.client.rtt_ns`.
    pub(crate) histogram: String,
    /// Latency threshold in nanoseconds.
    pub(crate) threshold_ns: u64,
    /// Target good fraction in `(0, 1)`, e.g. `0.999`.
    pub(crate) target: f64,
}

impl SloSpec {
    /// Declares a latency objective: `target` fraction of `histogram`
    /// samples at or under `threshold_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not in `(0, 1)`.
    pub fn latency(name: &str, histogram: &str, threshold_ns: u64, target: f64) -> Self {
        assert!(
            target > 0.0 && target < 1.0,
            "SLO target must be in (0, 1), got {target}"
        );
        SloSpec {
            name: name.to_string(),
            histogram: histogram.to_string(),
            threshold_ns,
            target,
        }
    }

    /// The objective's cumulative `(good, total)` sample counts, read
    /// straight from the registry: the histogram's samples in the buckets
    /// up to the threshold's, and in all.
    fn read(&self, registry: &MetricsRegistry) -> (u64, u64) {
        registry.histogram(&self.histogram).with_histogram(|h| {
            let above = Histogram::bucket_index(self.threshold_ns) + 1;
            let bad: u64 = h.bucket_counts()[above..].iter().sum();
            (h.count() - bad, h.count())
        })
    }
}

/// A just-fired breach crossing, returned so the telemetry hub can freeze a
/// diagnosis bundle once the evaluation pass releases the tracker's mutex.
#[derive(Clone, Debug)]
pub(crate) struct BreachCapture {
    /// The breached objective (carries the histogram name and threshold
    /// the capture needs).
    pub spec: SloSpec,
    /// Tick of the crossing pass.
    pub tick: u64,
    /// Burn rate at the crossing, milli-scaled.
    pub burn_milli: u64,
    /// Bad events in the objective's window at the crossing.
    pub window_bad: u64,
    /// All events in the objective's window at the crossing.
    pub window_total: u64,
}

#[derive(Debug)]
struct SloState {
    spec: SloSpec,
    /// Cumulative `(good, total)` the previous pass read from the registry.
    last: (u64, u64),
    /// `(good, total)` folded since registration: the cumulative budget.
    cum: (u64, u64),
    /// The rolling window, oldest first: `(sub_window_index, good, total)`.
    window: VecDeque<(u64, u64, u64)>,
    /// Whether the latest pass left the objective in breach: the side of
    /// the threshold a crossing is measured from.
    breached: bool,
}

impl SloState {
    /// Diffs a cumulative `(good, total)` reading against the previous
    /// pass's and folds the delta into the budget and into sub-window `sub`
    /// of the rolling window.
    fn fold(&mut self, sub: u64, now: (u64, u64)) {
        // Saturating: a counter reset (component restart) is one zero
        // delta, not a huge wrapped one.
        let good = now.0.saturating_sub(self.last.0);
        let total = now.1.saturating_sub(self.last.1);
        self.last = now;
        self.cum.0 += good;
        self.cum.1 += total;
        // Retention is by tick index, so a gap between passes ages stale
        // sub-windows out instead of letting them linger in the sums.
        self.window.retain(|w| w.0 + SUB_WINDOWS > sub);
        match self.window.back_mut() {
            Some(w) if w.0 == sub => {
                w.1 += good;
                w.2 += total;
            }
            _ => self.window.push_back((sub, good, total)),
        }
    }

    /// `(bad, total)` events in the rolling window.
    fn window_counts(&self) -> (u64, u64) {
        let (good, total) = self
            .window
            .iter()
            .fold((0, 0), |(g, t), w| (g + w.1, t + w.2));
        (total.saturating_sub(good), total)
    }
}

/// All declared objectives, in declaration order. Owned by the telemetry
/// hub and evaluated under its mutex.
#[derive(Debug, Default)]
pub(crate) struct SloTracker {
    slos: Vec<SloState>,
    /// Grid tick of the latest pass (the idempotence check).
    last_tick: Option<u64>,
}

impl SloTracker {
    /// Registers an objective, counting from what `registry` holds now:
    /// samples recorded before it was declared are not its budget's. A
    /// duplicate name replaces the old objective in place: its cumulative
    /// budget resets, its declaration index stays.
    pub(crate) fn register(&mut self, spec: SloSpec, registry: &MetricsRegistry) {
        let state = SloState {
            last: spec.read(registry),
            spec,
            cum: (0, 0),
            window: VecDeque::new(),
            breached: false,
        };
        if let Some(existing) = self
            .slos
            .iter_mut()
            .find(|s| s.spec.name == state.spec.name)
        {
            *existing = state;
        } else {
            self.slos.push(state);
        }
    }

    /// Evaluates every objective at grid tick `tick` and returns the breach
    /// crossings this pass observed, for the hub to freeze bundles from.
    /// Returns `None` when this tick was already evaluated and `force` is
    /// not set (the idempotent fast path for concurrent drivers). A forced
    /// pass on an already-evaluated tick folds whatever was recorded since
    /// into the current sub-window — that is what makes final flushes
    /// lossless.
    pub(crate) fn evaluate(
        &mut self,
        tick: u64,
        force: bool,
        registry: &MetricsRegistry,
        flight: &FlightRecorder,
    ) -> Option<Vec<BreachCapture>> {
        if self.last_tick == Some(tick) && !force {
            return None;
        }
        self.last_tick = Some(tick);
        let mut breaches = Vec::new();
        for (index, state) in self.slos.iter_mut().enumerate() {
            state.fold(tick / SUB_WINDOW_TICKS, state.spec.read(registry));
            let (window_bad, window_total) = state.window_counts();
            let budget = 1.0 - state.spec.target;
            let e = if window_total == 0 {
                0.0
            } else {
                window_bad as f64 / window_total as f64
            };
            let burn_milli = (e / budget * 1000.0).round().min(u64::MAX as f64) as u64;
            let (cum_good, cum_total) = state.cum;
            let budget_remaining_ppm = if cum_total == 0 {
                1_000_000
            } else {
                let cum_bad = cum_total.saturating_sub(cum_good);
                let spent = cum_bad as f64 / (budget * cum_total as f64);
                ((1.0 - spent).max(0.0) * 1e6).round() as u64
            };
            let name = &state.spec.name;
            registry.set_gauge(&format!("slo.{name}.burn_rate"), burn_milli);
            registry.set_gauge(
                &format!("slo.{name}.budget_remaining"),
                budget_remaining_ppm,
            );
            // An empty window burns nothing: it cannot breach, and an
            // objective whose traffic stopped recovers once its last bad
            // sub-window has aged out.
            let breached = burn_milli >= 1000;
            if breached == state.breached {
                continue;
            }
            state.breached = breached;
            // The crossing lands on the flight recorder (at the pass's own
            // tick, not "now") so a bundle's event slice shows the breach
            // inline with the engine events that caused it; `b` names the
            // objective when several are declared.
            let kind = if breached {
                FlightEventKind::SloBreach
            } else {
                FlightEventKind::SloRecover
            };
            flight.record_at(tick, kind, 0, burn_milli, index as u64);
            if breached {
                breaches.push(BreachCapture {
                    spec: state.spec.clone(),
                    tick,
                    burn_milli,
                    window_bad,
                    window_total,
                });
            }
        }
        Some(breaches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    /// A tracker with one objective over a fresh registry and recorder.
    struct Rig {
        t: SloTracker,
        reg: MetricsRegistry,
        flight: Arc<FlightRecorder>,
    }

    impl Rig {
        /// 99 % of `lat` samples at or under 1 µs.
        fn latency() -> Rig {
            Rig::new(SloSpec::latency("rtt", "lat", 1_000, 0.99))
        }

        fn new(spec: SloSpec) -> Rig {
            let mut r = Rig {
                t: SloTracker::default(),
                reg: MetricsRegistry::new(),
                flight: FlightRecorder::with_epoch(64, Instant::now()),
            };
            r.register(spec);
            r
        }

        fn register(&mut self, spec: SloSpec) {
            self.t.register(spec, &self.reg);
        }

        /// Records `bad` samples over and `total - bad` under the latency
        /// threshold.
        fn record(&self, bad: u64, total: u64) {
            let h = self.reg.histogram("lat");
            h.record_n(100_000, bad);
            h.record_n(100, total - bad);
        }

        /// One pass; whether it ran (its captures are dropped).
        fn eval(&mut self, tick: u64, force: bool) -> bool {
            self.captures(tick, force).is_some()
        }

        fn captures(&mut self, tick: u64, force: bool) -> Option<Vec<BreachCapture>> {
            self.t.evaluate(tick, force, &self.reg, &self.flight)
        }

        /// The first objective's `(bad, total)` window counts.
        fn window(&self) -> (u64, u64) {
            self.t.slos[0].window_counts()
        }

        fn breached(&self) -> bool {
            self.t.slos[0].breached
        }

        /// The `slo.rtt.burn_rate` gauge (milli).
        fn burn(&self) -> Option<u64> {
            self.reg.snapshot().gauge("slo.rtt.burn_rate")
        }

        /// The `slo.rtt.budget_remaining` gauge (ppm).
        fn budget(&self) -> Option<u64> {
            self.reg.snapshot().gauge("slo.rtt.budget_remaining")
        }

        /// Every crossing on the flight recorder: `(kind, tick, a, b)`.
        fn crossings(&self) -> Vec<(FlightEventKind, u64, u64, u64)> {
            self.flight
                .snapshot()
                .iter()
                .filter(|e| {
                    matches!(
                        e.kind,
                        FlightEventKind::SloBreach | FlightEventKind::SloRecover
                    )
                })
                .map(|e| (e.kind, e.tick, e.a, e.b))
                .collect()
        }
    }

    #[test]
    fn burn_rate_is_error_over_budget() {
        let mut r = Rig::latency();
        // 5% bad with a 1% budget: burn = 5.0.
        r.record(5, 100);
        r.eval(1, false);
        assert_eq!(r.burn(), Some(5000));
        assert!(r.breached());
        assert_eq!(
            r.crossings(),
            vec![(FlightEventKind::SloBreach, 1, 5000, 0)]
        );
    }

    #[test]
    fn latency_slo_burns_on_slow_window() {
        let mut r = Rig::new(SloSpec::latency("rtt", "lat", 1_000, 0.9));
        // Half the samples are 100x over the threshold: e=0.5, budget=0.1,
        // burn = 5.0.
        r.record(50, 100);
        r.eval(1, false);
        assert!(r.breached());
        assert_eq!(r.burn(), Some(5000));
        assert_eq!(r.window(), (50, 100));
        // A sample exactly at the threshold is good; one in the next
        // bucket up is bad.
        let h = r.reg.histogram("lat");
        h.record(1_000);
        h.record(Histogram::bucket_high(Histogram::bucket_index(1_000)) + 1);
        r.eval(2, false);
        assert_eq!(r.window(), (51, 102));
    }

    #[test]
    fn slo_tracks_histogram_deltas() {
        let mut r = Rig::latency();
        r.record(10, 100);
        r.eval(1, false);
        assert_eq!(r.window(), (10, 100));
        assert!(r.breached());
        // The next pass folds the increase, not the cumulative value.
        r.record(0, 50);
        r.eval(2, false);
        assert_eq!(r.window(), (10, 150));
    }

    #[test]
    fn slo_window_survives_a_reset() {
        let mut r = Rig::latency();
        let s = &mut r.t.slos[0];
        s.fold(0, (90, 100));
        // The component restarts and re-zeroes its histogram, then regrows:
        // only the one negative step is clamped; increments on both sides
        // of the reset survive in the window and in the budget.
        s.fold(0, (0, 0));
        s.fold(0, (9, 10));
        assert_eq!(s.window_counts(), (11, 110));
        assert_eq!(s.cum, (99, 110));
    }

    #[test]
    fn sampling_is_idempotent_per_tick_and_force_overrides() {
        let mut r = Rig::latency();
        r.record(0, 5);
        assert!(r.eval(1, false));
        // Same tick: skipped, and nothing is folded.
        r.record(0, 3);
        assert!(!r.eval(1, false));
        assert_eq!(r.window().1, 5);
        // Forced: runs anyway and picks up the new data in place.
        assert!(r.eval(1, true));
        assert_eq!(r.window().1, 8);
        // The next tick runs unforced.
        assert!(r.eval(2, false));
        assert_eq!(r.window().1, 8);
    }

    #[test]
    fn forced_resample_accumulates_incremental_histogram_deltas() {
        let mut r = Rig::latency();
        r.record(0, 1);
        r.eval(1, false);
        r.record(1, 1);
        r.eval(1, true);
        // A second forced pass with nothing new must not count twice.
        r.eval(1, true);
        assert_eq!(r.window(), (1, 2));
    }

    #[test]
    fn budget_remaining_depletes_cumulatively() {
        let mut r = Rig::latency();
        // Exactly on budget: 1 bad per 100, budget 1% — nothing remains.
        r.record(1, 100);
        r.eval(1, false);
        assert_eq!(r.budget(), Some(0));
        // Clean traffic refills nothing (the bad event stays spent) but
        // grows the total, so remaining climbs back above 0.
        r.record(0, 900);
        r.eval(2, false);
        assert_eq!(r.budget(), Some(900_000));
    }

    #[test]
    fn breach_and_recover_land_on_the_flight_recorder_once_each() {
        let mut r = Rig::latency();
        r.record(10, 100);
        r.eval(1, false);
        // Still breached: no second event.
        r.record(10, 100);
        r.eval(2, false);
        // Enough clean traffic to dilute the window under budget.
        r.record(0, 10_000);
        r.eval(3, false);
        // Each crossing carries the burn rate its pass computed.
        assert_eq!(
            r.crossings(),
            vec![
                (FlightEventKind::SloBreach, 1, 10_000, 0),
                (FlightEventKind::SloRecover, 3, 196, 0),
            ]
        );
        assert!(!r.breached());
        assert_eq!(r.burn(), Some(196));
    }

    #[test]
    fn breached_objective_recovers_when_traffic_stops_for_longer_than_the_window() {
        let mut r = Rig::latency();
        r.record(10, 100);
        r.eval(5, false);
        assert!(r.breached());
        // One tick short of the bad sub-window leaving the window: still in.
        let sub_of_5 = 5 / SUB_WINDOW_TICKS;
        let leaves_at = (sub_of_5 + SUB_WINDOWS) * SUB_WINDOW_TICKS;
        r.eval(leaves_at - 1, false);
        assert!(r.breached());
        assert_eq!(r.window(), (10, 100));
        // No pass ran in between and no traffic arrived: the sub-window
        // ages out by tick index and the empty window recovers.
        r.eval(leaves_at, false);
        assert!(!r.breached());
        assert_eq!((r.window(), r.burn()), ((0, 0), Some(0)));
        // The budget is cumulative and does not age.
        assert_eq!(r.budget(), Some(0));
        assert_eq!(
            r.crossings(),
            vec![
                (FlightEventKind::SloBreach, 5, 10_000, 0),
                (FlightEventKind::SloRecover, leaves_at, 0, 0),
            ]
        );
    }

    #[test]
    fn empty_window_does_not_cross_thresholds() {
        let mut r = Rig::latency();
        r.eval(1, false);
        assert_eq!(r.burn(), Some(0));
        assert_eq!(r.budget(), Some(1_000_000));
        assert!(r.crossings().is_empty());
    }

    #[test]
    fn reregistering_resets_budget_and_keeps_the_index() {
        let mut r = Rig::latency();
        r.register(SloSpec::latency("other", "lat2", 1_000, 0.99));
        r.record(50, 100);
        r.eval(1, false);
        assert_eq!(r.budget(), Some(0));
        r.register(SloSpec::latency("rtt", "lat", 1_000, 0.99));
        assert_eq!(r.t.slos.len(), 2);
        assert_eq!(r.t.slos[0].spec.name, "rtt", "replaced in place");
        assert_eq!((r.t.slos[0].cum, r.breached()), ((0, 0), false));
        // The fresh objective starts from the histogram's current reading:
        // the history it replaced is not folded back in.
        r.eval(2, false);
        assert_eq!((r.window(), r.breached()), ((0, 0), false));
        // New bad samples breach it again, still under index 0.
        r.record(50, 100);
        r.eval(3, false);
        let breaches: Vec<(u64, u64)> = r
            .crossings()
            .iter()
            .filter(|c| c.0 == FlightEventKind::SloBreach)
            .map(|c| (c.1, c.3))
            .collect();
        assert_eq!(breaches, vec![(1, 0), (3, 0)]);
    }

    #[test]
    fn a_crossing_names_its_objective_by_declaration_index() {
        let mut r = Rig::new(SloSpec::latency("fast", "lat", 1_000, 0.99));
        // A lenient second objective on a second histogram.
        r.register(SloSpec::latency("slow", "lat2", 1_000, 0.5));
        r.record(0, 100);
        r.reg.histogram("lat2").record_n(100_000, 60);
        r.reg.histogram("lat2").record_n(100, 40);
        let captures = r.captures(4, false).unwrap();
        // Only the second objective breaches (e = 0.6 against 0.5: 1.2x).
        assert_eq!(
            r.crossings(),
            vec![(FlightEventKind::SloBreach, 4, 1200, 1)]
        );
        assert_eq!(captures.len(), 1);
        assert_eq!(captures[0].spec.name, "slow");
        assert_eq!(r.reg.snapshot().gauge("slo.fast.burn_rate"), Some(0));
        assert_eq!(r.reg.snapshot().gauge("slo.slow.burn_rate"), Some(1200));
    }

    #[test]
    #[should_panic(expected = "target must be in")]
    fn out_of_range_target_panics() {
        let _ = SloSpec::latency("x", "h", 1, 1.0);
    }

    #[test]
    fn breach_hands_back_a_capture_and_a_flight_event_recover_does_not() {
        let mut r = Rig::latency();
        r.record(10, 100);
        let captures = r.captures(7, false).unwrap();
        r.record(10, 100);
        let sustained = r.captures(8, false).unwrap();
        assert!(sustained.is_empty(), "still breached: no new capture");
        r.record(0, 100_000);
        let recovered = r.captures(9, false).unwrap();
        assert!(recovered.is_empty(), "a recovery captures nothing");
        assert_eq!(captures.len(), 1, "one breach, one capture");
        assert_eq!(captures[0].tick, 7);
        assert_eq!(captures[0].spec.name, "rtt");
        assert!(captures[0].burn_milli >= 1000);
        assert_eq!(
            (captures[0].window_bad, captures[0].window_total),
            (10, 100)
        );
        let kinds: Vec<FlightEventKind> = r.crossings().iter().map(|c| c.0).collect();
        assert_eq!(
            kinds,
            vec![FlightEventKind::SloBreach, FlightEventKind::SloRecover]
        );
        assert_eq!(r.crossings()[0].1, 7, "stamped at the pass's tick");
    }
}
