//! The parent process: plans the run, launches one fresh child per
//! (workload, window), folds segments into end-to-end summaries, checks the
//! bypass predictions, and writes the result file.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use dagger_ledger::contract::{Benchmark, Better};
use dagger_ledger::json::{self, obj, Value};
use dagger_ledger::stats::{Estimator, Summary};

use crate::meta;
use crate::pass::{SETUP_MAX, SETUP_MIN};
use crate::stack::Spec;

/// Windows per workload: each is a fresh process at a separate time.
const WINDOWS: usize = 5;
/// Length of a measured segment in a full run. Short on purpose: this host
/// slows by a fifth to a half for anything from a tenth of a second to
/// minutes, so many short segments give the estimator quiet ones to find
/// where ten two-second segments gave it ten mixtures. A tenth of a second
/// is still 1 400 round trips of the slowest workload.
const SEGMENT: Duration = Duration::from_millis(100);
/// Fewest segments a window is cut into; below `WINDOWS x MIN_SEGMENTS x
/// SEGMENT` of measured time the segments shrink instead and the run is a
/// smoke test.
const MIN_SEGMENTS: usize = 8;
/// Longest warm-up segment.
const WARM_MAX: Duration = Duration::from_millis(500);

/// The order statistic an end-to-end metric reports over a run's samples:
/// the two timings read the tenth of segments the host disturbed least;
/// memory does not depend on the host's pace and set-up time is a median by
/// the benchmark contract.
fn estimator(metric: &str) -> Estimator {
    match metric {
        "rtt_p50_us" | "throughput_rps" => Estimator::QuietDecile,
        _ => Estimator::Median,
    }
}

/// How `--seconds` is spent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Plan {
    /// Measured seconds of one workload's untraced windows together.
    pub seconds: f64,
    /// Untraced windows per workload, each in its own process.
    pub windows: usize,
    /// Measured segments per window.
    pub segments: usize,
    /// Length of one segment.
    pub segment: Duration,
    /// Length of the discarded warm-up segment.
    pub warm: Duration,
}

impl Plan {
    /// [`WINDOWS`] windows of equal segments: 20 s buys 5 x (warm-up +
    /// 40 x 0.1 s). Less time cuts segments per window first (never below
    /// [`MIN_SEGMENTS`]), then their length.
    pub fn from_seconds(seconds: f64) -> Self {
        let per_window = Duration::from_secs_f64(seconds / WINDOWS as f64);
        let segments = ((per_window.as_micros() / SEGMENT.as_micros()) as usize).max(MIN_SEGMENTS);
        let segment = per_window / segments as u32;
        Plan {
            seconds,
            windows: WINDOWS,
            segments,
            segment,
            warm: (segment * 5).min(WARM_MAX),
        }
    }

    /// Segments shorter than planned measure scheduling accidents, not the
    /// stack: such a run is a smoke test and `compare` refuses it.
    pub fn mode(&self) -> &'static str {
        if self.segment >= SEGMENT {
            "full"
        } else {
            "smoke"
        }
    }

    pub fn to_json(self) -> Value {
        obj([
            ("seconds", Value::from(self.seconds)),
            ("windows", Value::from(self.windows)),
            ("segments_per_window", Value::from(self.segments)),
            ("segment_s", Value::from(self.segment.as_secs_f64())),
            ("warmup_s", Value::from(self.warm.as_secs_f64())),
            (
                "estimators",
                obj(Benchmark::embedded().end_to_end.iter().map(|m| {
                    let how = match (estimator(&m.name), m.better) {
                        (Estimator::Median, _) => "median of samples",
                        (Estimator::QuietDecile, Better::Lower) => "first decile of segments",
                        (Estimator::QuietDecile, Better::Higher) => "ninth decile of segments",
                    };
                    (m.name.clone(), Value::from(how))
                })),
            ),
            (
                "traced_windows",
                Value::from("1 untraced reference + 1 traced, same shape"),
            ),
            ("setup_constructions_per_window_min", Value::from(SETUP_MIN)),
            ("setup_constructions_per_window_max", Value::from(SETUP_MAX)),
        ])
    }
}

/// Runs this executable as a child with `args` and parses the JSON object
/// on the last line of its output. The child is killed if it outlives
/// `limit`.
fn child(args: &[String], limit: Duration) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut proc = Command::new(exe)
        .arg("child")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    // A child's report is a few KiB, far below the pipe's capacity, so it
    // never blocks writing while we poll for its exit.
    let deadline = Instant::now() + limit;
    loop {
        match proc.try_wait() {
            Ok(Some(_)) => break,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) => {
                let _ = proc.kill();
                let _ = proc.wait();
                return Err(format!("child {args:?} exceeded {limit:?} and was killed"));
            }
            Err(e) => return Err(format!("cannot wait for child: {e}")),
        }
    }
    let out = proc
        .wait_with_output()
        .map_err(|e| format!("cannot read child output: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    if !out.status.success() {
        return Err(format!("child {args:?} failed ({}): {last}", out.status));
    }
    json::parse(last).map_err(|e| format!("child {args:?} printed no report: {e}"))
}

/// `--flag value` pairs as an argument vector.
fn flags(pairs: &[(&str, String)]) -> Vec<String> {
    pairs
        .iter()
        .flat_map(|(k, v)| [k.to_string(), v.clone()])
        .collect()
}

/// Time allowance for a pass child: its plan, doubled, plus set-up,
/// replays and teardown.
fn pass_limit(plan: &Plan) -> Duration {
    (plan.warm + plan.segment * plan.segments as u32) * 2 + Duration::from_secs(30)
}

/// Per-segment values of `key` from a pass report.
fn column(pass: &Value, key: &str) -> Vec<f64> {
    pass.get("segments")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|s| s.get(key)?.as_f64())
        .collect()
}

fn count(pass: &Value, key: &str) -> u64 {
    pass.get(key)
        .and_then(Value::as_f64)
        .map_or(0, |n| n as u64)
}

/// Everything measured for one workload.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub stale: u64,
    pub aborts: Vec<String>,
    pub cpu: Option<u64>,
    /// `(metric, summary)` in `BENCHMARK.json` order; empty until measured.
    pub end_to_end: Vec<(&'static str, Summary)>,
    pub tail_p99_us: Option<Summary>,
    /// `(metric, value, source)` in `BENCHMARK.json` order; empty until
    /// traced.
    pub per_layer: Vec<(&'static str, f64, String)>,
    pub spans: Option<Value>,
    pub trace_file: Option<String>,
    pub warnings: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.aborts.is_empty() && self.attempted > 0
    }

    fn absorb(&mut self, pass: &Value) {
        self.attempted += count(pass, "attempted");
        self.failed += count(pass, "failed");
        self.stale += count(pass, "stale");
        if let Some(why) = pass.get("abort").and_then(Value::as_str) {
            self.aborts.push(why.to_string());
        }
        self.cpu = pass.get("cpu").and_then(Value::as_f64).map(|c| c as u64);
    }

    fn layer(&self, metric: &str) -> f64 {
        self.per_layer
            .iter()
            .find(|(m, _, _)| *m == metric)
            .map_or(0.0, |(_, v, _)| *v)
    }

    pub fn to_json(&self) -> Value {
        let mut members = vec![
            ("correct".to_string(), Value::from(self.correct())),
            ("attempted".to_string(), Value::from(self.attempted)),
            ("failed".to_string(), Value::from(self.failed)),
            ("stale_reads".to_string(), Value::from(self.stale)),
        ];
        if !self.aborts.is_empty() {
            members.push((
                "aborts".to_string(),
                Value::Arr(
                    self.aborts
                        .iter()
                        .map(|a| Value::from(a.as_str()))
                        .collect(),
                ),
            ));
        }
        let bench = Benchmark::embedded();
        if !self.end_to_end.is_empty() {
            members.push((
                "end_to_end".to_string(),
                obj(self
                    .end_to_end
                    .iter()
                    .zip(&bench.end_to_end)
                    .map(|((m, s), def)| (*m, s.to_json(&def.unit)))),
            ));
        }
        if let Some(tail) = &self.tail_p99_us {
            members.push((
                "tail_not_gated".to_string(),
                obj([("rtt_p99_us", tail.to_json("us"))]),
            ));
        }
        if !self.per_layer.is_empty() {
            members.push((
                "per_layer".to_string(),
                obj(self
                    .per_layer
                    .iter()
                    .zip(&bench.per_layer)
                    .map(|((m, v, source), def)| {
                        (
                            *m,
                            obj([
                                ("value", Value::from(*v)),
                                ("unit", Value::from(def.unit.as_str())),
                                ("source", Value::from(source.as_str())),
                            ]),
                        )
                    })),
            ));
        }
        if let Some(spans) = &self.spans {
            members.push(("spans".to_string(), spans.clone()));
        }
        if let Some(file) = &self.trace_file {
            members.push(("trace_file".to_string(), Value::from(file.as_str())));
        }
        members.push((
            "warnings".to_string(),
            Value::Arr(
                self.warnings
                    .iter()
                    .map(|w| Value::from(w.as_str()))
                    .collect(),
            ),
        ));
        Value::Obj(members)
    }
}

/// `setup_s` samples: a fresh child builds and tears down the stack
/// repeatedly and reports each construction's time.
fn setup_series(spec: &Spec, seed: u64) -> Result<Vec<f64>, String> {
    let args = flags(&[
        ("--role", "setup".to_string()),
        ("--workload", spec.name.to_string()),
        ("--seed", seed.to_string()),
    ]);
    let report = child(&args, Duration::from_secs(60))?;
    let secs: Vec<f64> = report
        .get("setup_s")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    if secs.len() < SETUP_MIN {
        return Err(format!(
            "{}: setup child reported {} constructions",
            spec.name,
            secs.len()
        ));
    }
    Ok(secs)
}

/// One pass in a fresh child; its counts go to `outcome`, its report is
/// returned.
fn run_pass(
    spec: &Spec,
    seed: u64,
    plan: &Plan,
    traced: bool,
    out: &Path,
    outcome: &mut Outcome,
) -> Result<Value, String> {
    let args = flags(&[
        ("--role", "pass".to_string()),
        ("--workload", spec.name.to_string()),
        ("--seed", seed.to_string()),
        ("--segments", plan.segments.to_string()),
        ("--segment-us", plan.segment.as_micros().to_string()),
        ("--warm-us", plan.warm.as_micros().to_string()),
        ("--traced", u8::from(traced).to_string()),
        ("--out", out.display().to_string()),
    ]);
    let report = child(&args, pass_limit(plan))?;
    outcome.absorb(&report);
    Ok(report)
}

/// What the untraced windows of one workload have collected.
#[derive(Default)]
struct Untraced {
    /// Construction times, one vector per window.
    setup_s: Vec<Vec<f64>>,
    passes: Vec<Value>,
}

impl Untraced {
    /// One measurement window: a set-up series, then a pass, each in a
    /// fresh child. Set-up is sampled once per window, not once per run,
    /// because one process's construction times hang together (heap layout,
    /// what a page fault costs at that moment) more than two processes' do.
    fn window(
        &mut self,
        spec: &Spec,
        seed: u64,
        plan: &Plan,
        out: &Path,
        outcome: &mut Outcome,
    ) -> Result<(), String> {
        self.setup_s.push(setup_series(spec, seed)?);
        self.passes
            .push(run_pass(spec, seed, plan, false, out, outcome)?);
        Ok(())
    }

    /// A metric's samples, one vector per window.
    fn samples(&self, metric: &str) -> Vec<Vec<f64>> {
        if metric == "setup_s" {
            self.setup_s.clone()
        } else {
            self.passes.iter().map(|p| column(p, metric)).collect()
        }
    }

    /// Folds segments and constructions into the end-to-end summaries, in
    /// `BENCHMARK.json` order.
    fn fold(&self, outcome: &mut Outcome) {
        for m in &Benchmark::embedded().end_to_end {
            let summary = Summary::of(
                &self.samples(&m.name),
                estimator(&m.name),
                m.better == Better::Lower,
            );
            outcome.end_to_end.push((m.name.as_str(), summary));
        }
        outcome.tail_p99_us = Some(Summary::of(
            &self.samples("rtt_p99_us"),
            Estimator::Median,
            true,
        ));
    }
}

/// The traced pass, right after an untraced pass of the same shape: the
/// difference between the two throughputs is what watching costs.
pub fn measure_traced(
    spec: &Spec,
    seed: u64,
    plan: &Plan,
    out: &Path,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let rps = |pass: &Value| estimator("throughput_rps").of(&column(pass, "throughput_rps"), false);
    let reference_rps = rps(&run_pass(spec, seed, plan, false, out, outcome)?);
    let report = run_pass(spec, seed, plan, true, out, outcome)?;
    let overhead = if reference_rps > 0.0 {
        1000.0 * (reference_rps - rps(&report)) / reference_rps
    } else {
        0.0
    };
    let emitted = report.get("per_layer");
    for m in &Benchmark::embedded().per_layer {
        let name = m.name.as_str();
        let row = if name == "telemetry.trace_overhead_permille" {
            Some((overhead, "span".to_string()))
        } else {
            emitted.and_then(|e| e.get(name)).and_then(|e| {
                Some((
                    e.get("value")?.as_f64()?,
                    e.get("source")?.as_str()?.to_string(),
                ))
            })
        };
        match row {
            Some((v, source)) => outcome.per_layer.push((name, v, source)),
            None if outcome.aborts.is_empty() => {
                return Err(format!("{}: traced pass did not emit {name}", spec.name))
            }
            None => outcome.per_layer.push((name, 0.0, String::new())),
        }
    }
    outcome.spans = report.get("spans").cloned();
    outcome.trace_file = report
        .get("trace_file")
        .and_then(Value::as_str)
        .map(str::to_string);
    check_predictions(spec, outcome);
    Ok(())
}

/// Bypass predictions: what must read zero (or one) where a layer is not
/// on the workload's path. A miss is a warning, not a failure — it means
/// the workload no longer isolates what its description says it isolates.
fn check_predictions(spec: &Spec, o: &mut Outcome) {
    let mut warnings = Vec::new();
    let mut zero = |names: &[&str], why: &str| {
        for name in names {
            let got = o.layer(name);
            if got != 0.0 {
                warnings.push(format!("{name} = {got}, predicted 0 ({why})"));
            }
        }
    };
    zero(
        &[
            "nic.monitor.rx_ring_drops",
            "nic.monitor.unknown_connection_drops",
            "nic.monitor.wire_drops",
            "nic.fabric.dropped_frames",
            "nic.fabric_udp.tx_errors",
            "nic.fabric_udp.rx_overflow",
            "nic.fabric_udp.rx_malformed",
            "rpc.endpoint.late_drops",
        ],
        "nothing may be dropped on a fault-free run",
    );
    zero(
        &[
            "nic.reliable.retransmits_per_krpc",
            "nic.reliable.wasted_per_krpc",
            "nic.reliable.sacked_per_krpc",
        ],
        "loss-free run",
    );
    if !spec.is_kvs() {
        zero(
            &[
                "nic.offload.hit_permille",
                "nic.offload.invalidations_per_set",
                "nic.offload.evictions_per_kget",
                "nic.offload.stale_drops_per_kget",
                "nic.offload.bypass_per_krpc",
                "rpc.endpoint.offload_served_permille",
            ],
            "offload stage not armed",
        );
    }
    if spec.name == "echo_sync" {
        let got = o.layer("nic.engine.frames_per_datagram");
        if (got - 1.0).abs() > 0.01 {
            warnings.push(format!(
                "nic.engine.frames_per_datagram = {got}, predicted 1 (one-frame RPCs, window of one)"
            ));
        }
    }
    if spec.window == 1 {
        let got = o.layer("stage.residual_permille");
        if got > 100.0 {
            warnings.push(format!(
                "stage.residual_permille = {got}, predicted <= 100 (stages should sum to the round trip)"
            ));
        }
    }
    for name in ["nic.conncache.hit_permille", "nic.bufpool.hit_permille"] {
        let got = o.layer(name);
        if got < 999.0 {
            warnings.push(format!("{name} = {got}: a steady-state miss is a finding"));
        }
    }
    o.warnings.extend(warnings);
}

/// Output directory: `--out`, else `ledger/` under cargo's target dir.
pub fn default_out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("ledger")
}

/// The specs of the workloads `BENCHMARK.json` names, in its order.
fn contracted_specs() -> Result<Vec<&'static Spec>, String> {
    Benchmark::embedded()
        .workloads
        .iter()
        .map(|name| {
            Spec::by_name(name).ok_or_else(|| {
                format!("BENCHMARK.json names a workload {name:?} the harness lacks")
            })
        })
        .collect()
}

/// Acceptance-driver mode: one workload, one seed, one result line.
pub fn drive(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &Path,
) -> Result<bool, String> {
    let bench = Benchmark::embedded();
    let plan = Plan::from_seconds(seconds);
    let mut outcome = Outcome::default();
    let metrics: Vec<(&str, f64, &str)> = if traced {
        measure_traced(spec, seed, &plan, out, &mut outcome)?;
        bench
            .per_layer
            .iter()
            .map(|m| (m.name.as_str(), outcome.layer(&m.name), m.unit.as_str()))
            .collect()
    } else {
        let mut untraced = Untraced::default();
        for i in 0..plan.windows {
            untraced.window(spec, seed.wrapping_add(i as u64), &plan, out, &mut outcome)?;
        }
        untraced.fold(&mut outcome);
        bench
            .end_to_end
            .iter()
            .zip(&outcome.end_to_end)
            .map(|(m, (_, s))| (m.name.as_str(), s.value, m.unit.as_str()))
            .collect()
    };
    for w in &outcome.warnings {
        eprintln!("warning: {}: {w}", spec.name);
    }
    for a in &outcome.aborts {
        eprintln!("error: {}: {a}", spec.name);
    }
    if outcome.attempted == 0 {
        return Err(format!("{}: no call was attempted", spec.name));
    }
    let line = obj([
        ("correct", Value::from(outcome.correct())),
        ("attempted", Value::from(outcome.attempted)),
        ("failed", Value::from(outcome.failed)),
        (
            "metrics",
            obj(metrics.into_iter().map(|(name, value, unit)| {
                (
                    name,
                    obj([("value", Value::from(value)), ("unit", Value::from(unit))]),
                )
            })),
        ),
    ]);
    println!("{}", line.to_compact());
    Ok(outcome.correct())
}

/// The full ledger: every workload, the untraced windows interleaved over
/// the workload list, then the traced passes; results to
/// `<out>/ledger-<seed>.json`.
pub fn run_all(seed: u64, seconds: f64, out: &Path) -> Result<bool, String> {
    let plan = Plan::from_seconds(seconds);
    let specs = contracted_specs()?;
    let mut outcomes: Vec<Outcome> = specs.iter().map(|_| Outcome::default()).collect();
    let mut untraced: Vec<Untraced> = specs.iter().map(|_| Untraced::default()).collect();

    // A B C D E, A B C D E, ...: each workload samples separate windows of
    // whatever else the host is doing.
    for window in 0..plan.windows {
        for ((spec, outcome), windows) in specs.iter().zip(&mut outcomes).zip(&mut untraced) {
            eprintln!(
                "[ledger] {}: window {} of {}",
                spec.name,
                window + 1,
                plan.windows
            );
            windows.window(spec, seed.wrapping_add(window as u64), &plan, out, outcome)?;
        }
    }
    for ((spec, outcome), windows) in specs.iter().zip(&mut outcomes).zip(&untraced) {
        windows.fold(outcome);
        eprintln!("[ledger] {}: traced pass", spec.name);
        measure_traced(spec, seed, &plan, out, outcome)?;
    }

    let cpu = outcomes.iter().find_map(|o| o.cpu);
    let all_correct = outcomes.iter().all(Outcome::correct);
    let doc = obj([
        ("ledger", Value::from(1u64)),
        ("mode", Value::from(plan.mode())),
        ("meta", meta::collect(seed, &plan, cpu)),
        (
            "workloads",
            obj(specs
                .iter()
                .zip(&outcomes)
                .map(|(s, o)| (s.name, o.to_json()))),
        ),
        ("correct", Value::from(all_correct)),
        // This benchmark defines the baseline; it claims no gain.
        ("claim", Value::Null),
    ]);
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let path = out.join(format!("ledger-{seed}.json"));
    std::fs::write(&path, doc.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    print_summary(&specs, &outcomes, &plan, &path);
    Ok(all_correct)
}

fn print_summary(specs: &[&Spec], outcomes: &[Outcome], plan: &Plan, path: &Path) {
    let bench = Benchmark::embedded();
    println!(
        "# perf ledger ({} mode): value [q1 q3 of the {} windows' own values]",
        plan.mode(),
        plan.windows
    );
    for (spec, o) in specs.iter().zip(outcomes) {
        println!(
            "\n## {}  correct={} attempted={} failed={}",
            spec.name,
            o.correct(),
            o.attempted,
            o.failed
        );
        for ((metric, s), def) in o.end_to_end.iter().zip(&bench.end_to_end) {
            println!(
                "{metric:<40} {:>14.4} {:<8} [{:.4} {:.4}] median={:.4} samples={} spread={:.1}% bound={:.0}%",
                s.value,
                def.unit,
                s.q1,
                s.q3,
                s.median,
                s.samples,
                100.0 * s.spread(),
                100.0 * def.bound,
            );
        }
        if let Some(t) = &o.tail_p99_us {
            println!(
                "{:<40} {:>14.4} {:<8} [{:.4} {:.4}] samples={} (reported, not gated)",
                "rtt_p99_us", t.value, "us", t.q1, t.q3, t.samples
            );
        }
        for ((metric, v, source), def) in o.per_layer.iter().zip(&bench.per_layer) {
            println!("{metric:<40} {v:>14.3} {:<9} {source}", def.unit);
        }
        for w in &o.warnings {
            println!("warning: {w}");
        }
    }
    println!("\nresults: {}", path.display());
    println!("\"claim\": null");
}
