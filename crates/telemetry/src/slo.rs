//! SLO tracking: declared objectives, rolling burn rate, budget accounting.
//!
//! An *objective* is either a latency target ("99.9% of `rpc.client.rtt_ns`
//! samples under 100µs") or an availability target ("99.9% of requests
//! good"). Each sampling pass of the series engine evaluates every
//! registered objective over the engine's rolling window:
//!
//! * **Error fraction** `e` — the fraction of bad events in the window
//!   (histogram samples above the latency threshold, or `1 - good/total`
//!   for availability).
//! * **Burn rate** — `e / (1 - target)`: how many times faster than
//!   sustainable the error budget is burning. 1.0 means exactly on budget;
//!   exported milli-scaled as the gauge `slo.<name>.burn_rate`.
//! * **Budget remaining** — cumulative: `1 - cum_bad / (budget * cum_total)`,
//!   clamped at 0, exported ppm-scaled as `slo.<name>.budget_remaining`.
//!
//! Crossings of the burn-rate threshold (≥ 1.0 entering breach, < 1.0
//! recovering) append to a bounded event log and land on the flight
//! recorder; a breach also queues a diagnosis-bundle capture.

use std::collections::VecDeque;

use crate::flight::{FlightEventKind, FlightRecorder};

/// Bound on the retained threshold-crossing event log; older events are
/// dropped (and counted) once exceeded.
const MAX_EVENTS: usize = 256;

/// What an objective measures.
#[derive(Clone, Debug)]
pub enum SloKind {
    /// `target` fraction of samples of `histogram` must be at or under
    /// `threshold_ns`.
    Latency {
        /// Registry histogram name, e.g. `rpc.client.rtt_ns`.
        histogram: String,
        /// Latency threshold in nanoseconds.
        threshold_ns: u64,
        /// Target good fraction in `(0, 1)`, e.g. `0.999`.
        target: f64,
    },
    /// `target` fraction of `total` counter increments must be matched by
    /// `good` counter increments.
    Availability {
        /// Registry counter counting good events.
        good: String,
        /// Registry counter counting all events.
        total: String,
        /// Target good fraction in `(0, 1)`.
        target: f64,
    },
}

impl SloKind {
    fn target(&self) -> f64 {
        match self {
            SloKind::Latency { target, .. } | SloKind::Availability { target, .. } => *target,
        }
    }
}

/// A declared objective.
#[derive(Clone, Debug)]
pub struct SloSpec {
    /// Objective name; gauges are exported as `slo.<name>.*`.
    pub name: String,
    /// What it measures.
    pub kind: SloKind,
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
            kind: SloKind::Latency {
                histogram: histogram.to_string(),
                threshold_ns,
                target,
            },
        }
    }

    /// Declares an availability objective: `target` fraction of `total`
    /// counter events matched by `good`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not in `(0, 1)`.
    pub fn availability(name: &str, good: &str, total: &str, target: f64) -> Self {
        assert!(
            target > 0.0 && target < 1.0,
            "SLO target must be in (0, 1), got {target}"
        );
        SloSpec {
            name: name.to_string(),
            kind: SloKind::Availability {
                good: good.to_string(),
                total: total.to_string(),
                target,
            },
        }
    }
}

/// Window observation the series engine feeds into one evaluation.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SloWindow {
    /// Bad events in the rolling window.
    pub window_bad: u64,
    /// All events in the rolling window.
    pub window_total: u64,
    /// Bad events since the previous sample (for cumulative budget).
    pub sample_bad: u64,
    /// All events since the previous sample.
    pub sample_total: u64,
}

/// Breach or recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub enum SloEventKind {
    /// Burn rate crossed ≥ 1.0.
    Breach,
    /// Burn rate dropped back under 1.0.
    Recover,
}

/// One threshold crossing.
#[derive(Clone, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct SloEvent {
    /// Objective name.
    pub name: String,
    /// Series-engine tick the crossing was observed at.
    pub tick: u64,
    /// Crossing direction.
    pub kind: SloEventKind,
    /// Burn rate at the crossing, milli-scaled.
    pub burn_milli: u64,
}

/// Point-in-time state of one objective.
#[derive(Clone, Debug, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct SloSnapshot {
    /// Objective name.
    pub name: String,
    /// Target good fraction, ppm-scaled (999_000 = 99.9%).
    pub target_ppm: u64,
    /// Rolling-window burn rate, milli-scaled (1000 = exactly on budget).
    pub burn_rate_milli: u64,
    /// Cumulative error budget remaining, ppm-scaled.
    pub budget_remaining_ppm: u64,
    /// Whether the objective is currently in breach.
    pub breached: bool,
    /// Bad events in the current window.
    pub window_bad: u64,
    /// All events in the current window.
    pub window_total: u64,
}

/// The `slo` section of a telemetry snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct SloReport {
    /// One entry per declared objective, in declaration order.
    pub objectives: Vec<SloSnapshot>,
    /// Retained threshold-crossing events, oldest first.
    pub events: Vec<SloEvent>,
    /// Events dropped from the bounded log.
    pub dropped_events: u64,
}

/// A just-fired breach crossing, queued so the telemetry hub can freeze a
/// diagnosis bundle once the sampling pass releases the series mutex.
#[derive(Clone, Debug)]
pub(crate) struct BreachCapture {
    /// The breached objective (carries the histogram/counter names and
    /// threshold the capture needs).
    pub spec: SloSpec,
    /// Tick of the crossing sample.
    pub tick: u64,
    /// Burn rate at the crossing, milli-scaled.
    pub burn_milli: u64,
}

#[derive(Debug)]
struct SloState {
    spec: SloSpec,
    cum_bad: u64,
    cum_total: u64,
    breached: bool,
    burn_milli: u64,
    budget_remaining_ppm: u64,
    window_bad: u64,
    window_total: u64,
}

/// All declared objectives plus the shared crossing log. Owned by the
/// series engine and evaluated under its mutex.
#[derive(Debug, Default)]
pub(crate) struct SloTracker {
    slos: Vec<SloState>,
    events: VecDeque<SloEvent>,
    dropped_events: u64,
    /// Breach crossings awaiting bundle capture (drained by the hub).
    pending_captures: Vec<BreachCapture>,
}

impl SloTracker {
    /// Registers an objective. Duplicate names replace the old objective
    /// (cumulative budget resets).
    pub(crate) fn register(&mut self, spec: SloSpec) {
        let state = SloState {
            spec,
            cum_bad: 0,
            cum_total: 0,
            breached: false,
            burn_milli: 0,
            budget_remaining_ppm: 1_000_000,
            window_bad: 0,
            window_total: 0,
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

    /// Evaluates every objective against the windows `window_of` reports.
    /// Gauge writes are deferred into `gauge_updates` so the caller can
    /// apply them outside any registry iteration.
    pub(crate) fn evaluate(
        &mut self,
        tick: u64,
        mut window_of: impl FnMut(&SloKind) -> SloWindow,
        flight: &FlightRecorder,
        gauge_updates: &mut Vec<(String, u64)>,
    ) {
        for state in &mut self.slos {
            let win = window_of(&state.spec.kind);
            let target = state.spec.kind.target();
            let budget = 1.0 - target;
            let e = if win.window_total == 0 {
                0.0
            } else {
                win.window_bad as f64 / win.window_total as f64
            };
            let burn = e / budget;
            state.burn_milli = (burn * 1000.0).round().min(u64::MAX as f64) as u64;
            state.window_bad = win.window_bad;
            state.window_total = win.window_total;
            state.cum_bad += win.sample_bad;
            state.cum_total += win.sample_total;
            state.budget_remaining_ppm = if state.cum_total == 0 {
                1_000_000
            } else {
                let spent = state.cum_bad as f64 / (budget * state.cum_total as f64);
                ((1.0 - spent).max(0.0) * 1e6).round() as u64
            };
            gauge_updates.push((
                format!("slo.{}.burn_rate", state.spec.name),
                state.burn_milli,
            ));
            gauge_updates.push((
                format!("slo.{}.budget_remaining", state.spec.name),
                state.budget_remaining_ppm,
            ));
            // Threshold crossings: only meaningful when the window actually
            // observed traffic.
            if win.window_total > 0 {
                let crossing = if !state.breached && state.burn_milli >= 1000 {
                    Some(SloEventKind::Breach)
                } else if state.breached && state.burn_milli < 1000 {
                    Some(SloEventKind::Recover)
                } else {
                    None
                };
                if let Some(kind) = crossing {
                    state.breached = kind == SloEventKind::Breach;
                    // The crossing lands on the flight recorder (at
                    // the sample's own tick, not "now") so a bundle's
                    // event slice shows the breach inline with the engine
                    // events that caused it — and a breach queues a
                    // diagnosis-bundle capture for the hub.
                    flight.record_at(
                        tick,
                        match kind {
                            SloEventKind::Breach => FlightEventKind::SloBreach,
                            SloEventKind::Recover => FlightEventKind::SloRecover,
                        },
                        0,
                        state.burn_milli,
                        0,
                    );
                    if kind == SloEventKind::Breach {
                        self.pending_captures.push(BreachCapture {
                            spec: state.spec.clone(),
                            tick,
                            burn_milli: state.burn_milli,
                        });
                    }
                    if self.events.len() >= MAX_EVENTS {
                        self.events.pop_front();
                        self.dropped_events += 1;
                    }
                    self.events.push_back(SloEvent {
                        name: state.spec.name.clone(),
                        tick,
                        kind,
                        burn_milli: state.burn_milli,
                    });
                }
            }
        }
    }

    /// Drains breach crossings queued since the last drain.
    pub(crate) fn take_captures(&mut self) -> Vec<BreachCapture> {
        std::mem::take(&mut self.pending_captures)
    }

    pub(crate) fn snapshot(&self) -> SloReport {
        SloReport {
            objectives: self
                .slos
                .iter()
                .map(|s| SloSnapshot {
                    name: s.spec.name.clone(),
                    target_ppm: (s.spec.kind.target() * 1e6).round() as u64,
                    burn_rate_milli: s.burn_milli,
                    budget_remaining_ppm: s.budget_remaining_ppm,
                    breached: s.breached,
                    window_bad: s.window_bad,
                    window_total: s.window_total,
                })
                .collect(),
            events: self.events.iter().cloned().collect(),
            dropped_events: self.dropped_events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn test_flight() -> std::sync::Arc<FlightRecorder> {
        FlightRecorder::with_epoch(64, Instant::now(), Duration::from_millis(1))
    }

    fn eval(tracker: &mut SloTracker, tick: u64, win: SloWindow) -> Vec<(String, u64)> {
        let mut gauges = Vec::new();
        tracker.evaluate(tick, |_| win, &test_flight(), &mut gauges);
        gauges
    }

    #[test]
    fn burn_rate_is_error_over_budget() {
        let mut t = SloTracker::default();
        t.register(SloSpec::latency("rtt", "h", 1000, 0.99));
        // 5% bad with a 1% budget: burn = 5.0.
        let g = eval(
            &mut t,
            1,
            SloWindow {
                window_bad: 5,
                window_total: 100,
                sample_bad: 5,
                sample_total: 100,
            },
        );
        assert!(g.contains(&("slo.rtt.burn_rate".to_string(), 5000)));
        let snap = t.snapshot();
        assert_eq!(snap.objectives[0].burn_rate_milli, 5000);
        assert!(snap.objectives[0].breached);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].kind, SloEventKind::Breach);
    }

    #[test]
    fn budget_remaining_depletes_cumulatively() {
        let mut t = SloTracker::default();
        t.register(SloSpec::latency("rtt", "h", 1000, 0.99));
        // Exactly on budget: 1 bad per 100, budget 1% — remaining stays ~0
        // after exactly consuming it.
        eval(
            &mut t,
            1,
            SloWindow {
                window_bad: 1,
                window_total: 100,
                sample_bad: 1,
                sample_total: 100,
            },
        );
        let snap = t.snapshot();
        assert_eq!(snap.objectives[0].budget_remaining_ppm, 0);
        // Clean window refills nothing (budget is cumulative) but adds
        // total, so remaining grows back above 0.
        eval(
            &mut t,
            2,
            SloWindow {
                window_bad: 0,
                window_total: 0,
                sample_bad: 0,
                sample_total: 900,
            },
        );
        let snap = t.snapshot();
        assert!(snap.objectives[0].budget_remaining_ppm > 800_000);
    }

    #[test]
    fn breach_and_recover_log_crossings_once() {
        let mut t = SloTracker::default();
        t.register(SloSpec::availability("avail", "good", "total", 0.999));
        let bad = SloWindow {
            window_bad: 10,
            window_total: 100,
            sample_bad: 10,
            sample_total: 100,
        };
        let good = SloWindow {
            window_bad: 0,
            window_total: 100,
            sample_bad: 0,
            sample_total: 100,
        };
        eval(&mut t, 1, bad);
        eval(&mut t, 2, bad); // still breached: no second event
        eval(&mut t, 3, good);
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].kind, SloEventKind::Breach);
        assert_eq!(snap.events[1].kind, SloEventKind::Recover);
        assert!(!snap.objectives[0].breached);
    }

    #[test]
    fn empty_window_does_not_cross_thresholds() {
        let mut t = SloTracker::default();
        t.register(SloSpec::latency("rtt", "h", 1000, 0.99));
        eval(&mut t, 1, SloWindow::default());
        let snap = t.snapshot();
        assert_eq!(snap.objectives[0].burn_rate_milli, 0);
        assert_eq!(snap.objectives[0].budget_remaining_ppm, 1_000_000);
        assert!(snap.events.is_empty());
    }

    #[test]
    fn reregistering_resets_budget() {
        let mut t = SloTracker::default();
        t.register(SloSpec::latency("rtt", "h", 1000, 0.99));
        eval(
            &mut t,
            1,
            SloWindow {
                window_bad: 50,
                window_total: 100,
                sample_bad: 50,
                sample_total: 100,
            },
        );
        assert_eq!(t.snapshot().objectives[0].budget_remaining_ppm, 0);
        t.register(SloSpec::latency("rtt", "h", 1000, 0.99));
        assert_eq!(t.snapshot().objectives[0].budget_remaining_ppm, 1_000_000);
        assert_eq!(t.snapshot().objectives.len(), 1);
    }

    #[test]
    #[should_panic(expected = "target must be in")]
    fn out_of_range_target_panics() {
        let _ = SloSpec::latency("x", "h", 1, 1.0);
    }

    #[test]
    fn breach_queues_capture_and_flight_event_recover_does_not() {
        let flight = test_flight();
        let mut t = SloTracker::default();
        t.register(SloSpec::latency("rtt", "h", 1000, 0.99));
        let bad = SloWindow {
            window_bad: 10,
            window_total: 100,
            sample_bad: 10,
            sample_total: 100,
        };
        let good = SloWindow {
            window_bad: 0,
            window_total: 100,
            sample_bad: 0,
            sample_total: 100,
        };
        let mut gauges = Vec::new();
        t.evaluate(7, |_| bad, &flight, &mut gauges);
        t.evaluate(8, |_| bad, &flight, &mut gauges); // sustained: no new capture
        t.evaluate(9, |_| good, &flight, &mut gauges);
        let captures = t.take_captures();
        assert_eq!(captures.len(), 1, "one breach, one capture");
        assert_eq!(captures[0].tick, 7);
        assert_eq!(captures[0].spec.name, "rtt");
        assert!(captures[0].burn_milli >= 1000);
        assert!(t.take_captures().is_empty(), "drain is one-shot");
        let kinds: Vec<FlightEventKind> = flight.snapshot().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![FlightEventKind::SloBreach, FlightEventKind::SloRecover]
        );
        assert_eq!(flight.snapshot()[0].tick, 7, "stamped at the sample tick");
    }
}
