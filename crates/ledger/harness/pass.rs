//! One pass of one workload, run inside a fresh child process: a discarded
//! warm-up segment, then the measured segments. The traced variant also
//! records spans, counter deltas and the stage tracer, and runs the
//! per-layer replays before it exits.

use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

use dagger_ledger::gen::mix;
use dagger_ledger::json::{obj, Value};
use dagger_ledger::procfs::{self, ProcSample};
use dagger_ledger::span::{
    chrome_trace, parent_by_containment, self_time, Interval, RpcSpans, TraceEvent, CHILD_SPANS,
    HANDLER_SPAN, ROOT_SPAN,
};
use dagger_ledger::stats::{median, percentile_sorted};
use dagger_nic::{MonitorSnapshot, OffloadSnapshot};
use dagger_rpc::PendingCall;
use dagger_telemetry::{RegistrySnapshot, RpcTrace};

use crate::replay;
use crate::stack::{Expect, Inputs, Spec, Stack};

/// Shape of a pass.
#[derive(Clone, Copy, Debug)]
pub struct PassPlan {
    pub warm: Duration,
    pub segment: Duration,
    pub segments: usize,
    pub traced: bool,
}

/// Completions per second no workload here approaches; sizes the sample
/// buffers so that recording never allocates.
const MAX_RPS: f64 = 600_000.0;

/// RPCs kept (at most twice this) for the trace file: six events of ~130
/// bytes each keeps the file under ~2 MB.
const TRACE_SAMPLE_TARGET: usize = 1200;

struct InFlight {
    pending: PendingCall,
    expect: Expect,
    start: u64,
    encoded: u64,
    issued: u64,
}

/// The closed-loop load generator: one thread, one connection, a fixed
/// window of calls in flight.
struct Loader<'a> {
    stack: &'a Stack,
    inputs: Inputs,
    inflight: VecDeque<InFlight>,
    traced: bool,
    /// Round-trip times of the current segment, ns.
    rtts: Vec<u32>,
    /// Client-side spans of the current segment (traced passes).
    spans: Vec<RpcSpans>,
    attempted: u64,
    failed: u64,
    stale: u64,
    /// Set by the first transport-level failure; the pass stops there.
    abort: Option<String>,
}

impl<'a> Loader<'a> {
    fn new(stack: &'a Stack, inputs: Inputs, plan: &PassPlan) -> Self {
        let cap = (plan.segment.max(plan.warm).as_secs_f64() * MAX_RPS) as usize + 1024;
        // Filled, not just reserved: untouched pages would join the
        // resident set as samples arrive and show up as `rss_mb` drift.
        let mut rtts = vec![1u32; cap];
        rtts.clear();
        let mut spans = Vec::new();
        if plan.traced {
            spans.reserve_exact(cap);
        }
        Loader {
            stack,
            inputs,
            inflight: VecDeque::with_capacity(stack.spec.window),
            traced: plan.traced,
            rtts,
            spans,
            attempted: 0,
            failed: 0,
            stale: 0,
            abort: None,
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.abort.get_or_insert(why);
    }

    fn issue(&mut self) {
        let (msg, expect) = self.inputs.next_message();
        let start = self.stack.now_ns();
        let bytes = msg.to_wire();
        let encoded = if self.traced { self.stack.now_ns() } else { 0 };
        match self.stack.client.call_async(msg.fn_id(), &bytes) {
            Ok(pending) => {
                let issued = if self.traced { self.stack.now_ns() } else { 0 };
                self.inflight.push_back(InFlight {
                    pending,
                    expect,
                    start,
                    encoded,
                    issued,
                });
            }
            Err(e) => {
                self.attempted += 1;
                self.fail(format!("issue failed: {e}"));
            }
        }
    }

    /// Waits for the oldest call and checks its reply. Returns the time it
    /// completed and whether the reply passed the check.
    fn complete(&mut self, call: InFlight) -> (u64, bool) {
        self.attempted += 1;
        let wait_start = if self.traced { self.stack.now_ns() } else { 0 };
        let outcome = call.pending.wait();
        let wait_end = if self.traced { self.stack.now_ns() } else { 0 };
        let bytes = match outcome {
            Ok(bytes) => bytes,
            Err(e) => {
                self.fail(format!("call failed: {e}"));
                return (self.stack.now_ns(), false);
            }
        };
        let reply = Inputs::decode(&call.expect, &bytes);
        let end = self.stack.now_ns();
        if self.rtts.len() < self.rtts.capacity() {
            self.rtts
                .push(u32::try_from(end - call.start).unwrap_or(u32::MAX));
        }
        if self.traced && self.spans.len() < self.spans.capacity() {
            let seq = match call.expect {
                Expect::Echo { seq } => seq,
                _ => self.spans.len() as u32,
            };
            self.spans.push(RpcSpans {
                seq,
                root: Interval {
                    start: call.start,
                    end,
                },
                encoded: call.encoded,
                issued: call.issued,
                wait_start,
                wait_end,
            });
        }
        let verified = match reply {
            Ok(reply) if self.inputs.check(&call.expect, &reply) => true,
            Ok(reply) => {
                if Inputs::is_stale(&call.expect, &reply) {
                    self.stale += 1;
                }
                false
            }
            Err(_) => false,
        };
        if !verified {
            self.failed += 1;
        }
        (end, verified)
    }

    /// Runs the closed loop for `len`, then drains the window.
    fn segment(&mut self, len: Duration) -> Segment {
        self.rtts.clear();
        self.spans.clear();
        let start = self.stack.now_ns();
        let deadline = start + len.as_nanos() as u64;
        let mut now = start;
        let (mut completed, mut verified) = (0u64, 0u64);
        loop {
            while now < deadline
                && self.abort.is_none()
                && self.inflight.len() < self.stack.spec.window
            {
                self.issue();
            }
            let Some(call) = self.inflight.pop_front() else {
                break;
            };
            let (end, ok) = self.complete(call);
            now = end;
            completed += 1;
            verified += u64::from(ok);
        }
        Segment {
            completed,
            verified,
            secs: (self.stack.now_ns() - start) as f64 / 1e9,
        }
    }
}

/// What one segment of the closed loop did.
struct Segment {
    /// Calls waited for, answered or given up on: the divisor of the
    /// per-RPC counter ratios.
    completed: u64,
    /// Calls whose reply passed the correctness check: what
    /// `throughput_rps` counts.
    verified: u64,
    /// Wall time from the first issue to the last completion.
    secs: f64,
}

/// Public counters of every layer, read at a segment boundary.
struct Counters {
    server: MonitorSnapshot,
    client: MonitorSnapshot,
    gauges: RegistrySnapshot,
    offload: OffloadSnapshot,
    late_drops: u64,
    offload_served: u64,
    handled: u64,
    fabric: [u64; 4],
    store_hits: u64,
    store_misses: u64,
    store_sets: u64,
    proc: ProcSample,
}

impl Counters {
    fn read(stack: &Stack) -> Self {
        stack.telemetry.collect();
        let store = stack.store.as_ref().map(|s| s.stats()).unwrap_or_default();
        Counters {
            server: stack.server_nic.monitor().snapshot(),
            client: stack.client_nic.monitor().snapshot(),
            gauges: stack.telemetry.registry().snapshot(),
            offload: stack.server_nic.offload_stats(),
            late_drops: stack.client.endpoint().late_drops(),
            offload_served: stack.client.endpoint().offload_served(),
            handled: stack.server.stats().handled,
            fabric: stack.fabric.counters(),
            store_hits: store.get_hits,
            store_misses: store.get_misses,
            store_sets: store.sets,
            proc: ProcSample::now(),
        }
    }

    /// A NIC gauge summed over both NICs (`nic.1.*` + `nic.2.*`).
    fn gauge(&self, suffix: &str) -> u64 {
        [1, 2]
            .iter()
            .filter_map(|addr| self.gauges.gauge(&format!("nic.{addr}.{suffix}")))
            .sum()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn permille(num: u64, den: u64) -> f64 {
    1000.0 * ratio(num, den)
}

/// Counter-derived per-layer metrics over `rpcs` completed calls.
fn counter_metrics(a: &Counters, b: &Counters, rpcs: u64, m: &mut Metrics) {
    let mon = |f: fn(&MonitorSnapshot) -> u64| {
        (f(&b.server) + f(&b.client)).saturating_sub(f(&a.server) + f(&a.client))
    };
    let gauge = |s: &str| b.gauge(s).saturating_sub(a.gauge(s));
    let krpc = |n: u64| 1000.0 * ratio(n, rpcs);

    let frames = mon(|s| s.tx_frames);
    let dgrams = mon(|s| s.tx_datagrams);
    m.set("nic.engine.frames_per_rpc", ratio(frames, rpcs));
    m.set("nic.engine.datagrams_per_rpc", ratio(dgrams, rpcs));
    m.set("nic.engine.frames_per_datagram", ratio(frames, dgrams));
    let (cached, direct) = (mon(|s| s.cached_polls), mon(|s| s.direct_polls));
    m.set(
        "nic.engine.cached_poll_permille",
        permille(cached, cached + direct),
    );
    m.set(
        "nic.engine.tx_window_deferrals_per_krpc",
        krpc(mon(|s| s.tx_window_deferrals)),
    );
    m.set(
        "nic.engine.reqbuf_backpressure_per_krpc",
        krpc(mon(|s| s.reqbuf_backpressure)),
    );
    // Drops are reported over the NICs' whole life: any at all is a finding.
    let total = |f: fn(&MonitorSnapshot) -> u64| (f(&b.server) + f(&b.client)) as f64;
    m.set("nic.monitor.rx_ring_drops", total(|s| s.rx_ring_drops));
    m.set(
        "nic.monitor.unknown_connection_drops",
        total(|s| s.unknown_connection_drops),
    );
    m.set("nic.monitor.wire_drops", total(|s| s.wire_drops));

    let (hits, misses) = (gauge("conncache.hits"), gauge("conncache.misses"));
    m.set("nic.conncache.hit_permille", permille(hits, hits + misses));
    let (hits, misses) = (gauge("pool.hits"), gauge("pool.misses"));
    m.set("nic.bufpool.hit_permille", permille(hits, hits + misses));

    m.set(
        "nic.reliable.retransmits_per_krpc",
        krpc(gauge("reliable.retransmissions")),
    );
    // The receive-side waste the NIC exports: duplicates plus gap discards.
    m.set(
        "nic.reliable.wasted_per_krpc",
        krpc(gauge("reliable.duplicate_drops") + gauge("reliable.out_of_order_drops")),
    );
    // `sacked` lives in the engine's private stats mirror; the NIC exports
    // no gauge for it at this commit (see README, "known gaps").
    m.set(
        "nic.reliable.sacked_per_krpc",
        krpc(gauge("reliable.sacked")),
    );

    m.set("nic.fabric.dropped_frames", b.fabric[0] as f64);
    m.set("nic.fabric_udp.tx_errors", b.fabric[1] as f64);
    m.set("nic.fabric_udp.rx_overflow", b.fabric[2] as f64);
    m.set("nic.fabric_udp.rx_malformed", b.fabric[3] as f64);

    let o = |f: fn(&OffloadSnapshot) -> u64| f(&b.offload).saturating_sub(f(&a.offload));
    let gets = o(|s| s.hits) + o(|s| s.misses);
    let sets = b.store_sets.saturating_sub(a.store_sets);
    m.set("nic.offload.hit_permille", permille(o(|s| s.hits), gets));
    m.set(
        "nic.offload.invalidations_per_set",
        ratio(o(|s| s.invalidations), sets),
    );
    m.set(
        "nic.offload.evictions_per_kget",
        permille(o(|s| s.evictions), gets),
    );
    m.set(
        "nic.offload.stale_drops_per_kget",
        permille(o(|s| s.stale_drops), gets),
    );
    m.set("nic.offload.bypass_per_krpc", krpc(o(|s| s.bypass)));

    m.set("rpc.endpoint.late_drops", b.late_drops as f64);
    m.set(
        "rpc.endpoint.offload_served_permille",
        permille(b.offload_served.saturating_sub(a.offload_served), rpcs),
    );
    m.set(
        "rpc.server.handled_per_rpc",
        ratio(b.handled.saturating_sub(a.handled), rpcs),
    );
    let (hits, misses) = (
        b.store_hits.saturating_sub(a.store_hits),
        b.store_misses.saturating_sub(a.store_misses),
    );
    m.set("kvs.store_hit_permille", permille(hits, hits + misses));

    let p = b.proc.since(&a.proc);
    m.set("proc.ctx_switches_per_rpc", ratio(p.ctx_switches, rpcs));
    m.set(
        "proc.sys_cpu_permille",
        permille(p.sys_ticks, p.sys_ticks + p.user_ticks),
    );
}

/// Where a per-layer number comes from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Source {
    /// A span the harness records around a call into the layer, or the
    /// stack's own stage tracer.
    #[default]
    Span,
    /// The layer's public functions replayed with this workload's inputs.
    Replay,
    /// A delta of the layer's public counters over the traced segments.
    Counter,
}

impl Source {
    fn label(self) -> &'static str {
        match self {
            Source::Span => "span",
            Source::Replay => "replay",
            Source::Counter => "counter",
        }
    }
}

/// Named per-layer values, in insertion order, each tagged with the
/// source that was current when it was set.
#[derive(Default)]
pub struct Metrics {
    source: Source,
    rows: Vec<(String, f64, Source)>,
}

impl Metrics {
    /// Values set from here on come from `source`.
    pub fn source(&mut self, source: Source) -> &mut Self {
        self.source = source;
        self
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let row = (name.to_string(), value, self.source);
        match self.rows.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = row,
            None => self.rows.push(row),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |(_, v, _)| *v)
    }

    fn to_json(&self) -> Value {
        obj(self.rows.iter().map(|(n, v, source)| {
            (
                n.clone(),
                obj([
                    ("value", Value::from(*v)),
                    ("source", Value::from(source.label())),
                ]),
            )
        }))
    }
}

/// One segment's `(count, p50)` of a span's durations.
type SpanStats = (usize, f64);

/// Per-segment span durations, folded into medians across segments.
#[derive(Default)]
struct SpanFold {
    /// Per span name: one entry per traced segment.
    per_segment: Vec<(&'static str, Vec<SpanStats>)>,
    root_self_p50: Vec<f64>,
}

impl SpanFold {
    fn add(&mut self, name: &'static str, durations: &mut Vec<u32>) {
        durations.sort_unstable();
        let entry = (
            durations.len(),
            f64::from(percentile_sorted(durations, 0.50)),
        );
        match self.per_segment.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(entry),
            None => self.per_segment.push((name, vec![entry])),
        }
        durations.clear();
    }

    fn p50(&self, name: &str) -> f64 {
        self.per_segment
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| {
                median(&v.iter().map(|e| e.1).collect::<Vec<_>>())
            })
    }

    fn to_json(&self) -> Value {
        let mut members: Vec<(String, Value)> = self
            .per_segment
            .iter()
            .map(|(name, segs)| {
                let count: usize = segs.iter().map(|s| s.0).sum();
                (
                    name.to_string(),
                    obj([
                        ("count", Value::from(count)),
                        ("p50_ns", Value::from(self.p50(name))),
                    ]),
                )
            })
            .collect();
        members.push((
            format!("{ROOT_SPAN}.self"),
            obj([("p50_ns", Value::from(median(&self.root_self_p50)))]),
        ));
        Value::Obj(members)
    }
}

/// A uniform 1-in-`stride` sample of traced RPCs, bounded in size: when
/// the buffer fills, every other kept RPC is dropped and the stride
/// doubles. Membership is decided by a hash of the RPC's index, not the
/// index itself: with a window of 16 every 512th RPC is always the first
/// of its batch, and the sample's median ran a third above the
/// population's.
struct TraceSample {
    stride: u64,
    seen: u64,
    kept: Vec<(u64, RpcSpans, Option<Interval>)>,
}

impl TraceSample {
    fn new() -> Self {
        TraceSample {
            stride: 1,
            seen: 0,
            kept: Vec::with_capacity(2 * TRACE_SAMPLE_TARGET),
        }
    }

    fn offer(&mut self, spans: &RpcSpans, handler: impl FnOnce() -> Option<Interval>) {
        let idx = self.seen;
        self.seen += 1;
        if !mix(idx).is_multiple_of(self.stride) {
            return;
        }
        if self.kept.len() == 2 * TRACE_SAMPLE_TARGET {
            self.stride *= 2;
            let stride = self.stride;
            self.kept.retain(|(i, _, _)| mix(*i).is_multiple_of(stride));
            if !mix(idx).is_multiple_of(stride) {
                return;
            }
        }
        self.kept.push((idx, *spans, handler()));
    }

    fn events(&self) -> Vec<TraceEvent> {
        let mut events = Vec::with_capacity(self.kept.len() * 6);
        for (idx, s, handler) in &self.kept {
            let rpc = *idx as u32;
            events.push(TraceEvent {
                name: ROOT_SPAN,
                at: s.root,
                tid: 1,
                rpc,
                is_root: true,
            });
            for (name, at) in CHILD_SPANS.into_iter().zip(s.children()) {
                events.push(TraceEvent {
                    name,
                    at,
                    tid: 1,
                    rpc,
                    is_root: false,
                });
            }
            if let Some(at) = handler {
                events.push(TraceEvent {
                    name: HANDLER_SPAN,
                    at: *at,
                    tid: 2,
                    rpc,
                    is_root: false,
                });
            }
        }
        events
    }
}

/// Stage latencies from the stack's 8-event tracer: per stage, every
/// complete trace's value.
#[derive(Default)]
struct StageFold {
    /// Seven request/response stages, then the tracer's own total.
    columns: [Vec<u32>; 8],
}

const STAGE_METRICS: [&str; 7] = [
    "stage.client_queue_ns",
    "stage.tx_ring_ns",
    "stage.fabric_ns",
    "stage.engine_ns",
    "stage.rx_ring_ns",
    "stage.handler_ns",
    "stage.response_ns",
];

impl StageFold {
    fn add(&mut self, traces: &[RpcTrace]) {
        for t in traces {
            // Only traces with all eight stamps: NIC-served replies never
            // reach the dispatch and handler events.
            let Some(stamps) = t.events.iter().copied().collect::<Option<Vec<u64>>>() else {
                continue;
            };
            for i in 0..7 {
                self.columns[i].push(clip(stamps[i + 1].saturating_sub(stamps[i])));
            }
            self.columns[7].push(clip(stamps[7].saturating_sub(stamps[0])));
        }
    }

    fn emit(&mut self, m: &mut Metrics) {
        let mut sum = 0.0;
        for (name, col) in STAGE_METRICS.iter().zip(&mut self.columns) {
            col.sort_unstable();
            let p50 = f64::from(percentile_sorted(col, 0.5));
            sum += p50;
            m.set(name, p50);
        }
        self.columns[7].sort_unstable();
        let total = f64::from(percentile_sorted(&self.columns[7], 0.5));
        let residual = if total == 0.0 {
            0.0
        } else {
            1000.0 * (total - sum).abs() / total
        };
        m.set("stage.residual_permille", residual);
    }
}

fn clip(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// Folds one traced segment: span medians, root self time, trace sample.
fn fold_traced_segment(
    loader: &Loader<'_>,
    handlers: &[(Interval, u32)],
    fold: &mut SpanFold,
    sample: &mut TraceSample,
    scratch: &mut Vec<u32>,
) {
    let roots = &loader.spans;
    for (i, name) in CHILD_SPANS.into_iter().enumerate() {
        scratch.extend(roots.iter().map(|s| clip(s.children()[i].len())));
        fold.add(name, scratch);
    }
    scratch.extend(roots.iter().map(|s| clip(s.root.len())));
    fold.add(ROOT_SPAN, scratch);
    scratch.extend(handlers.iter().map(|(at, _)| clip(at.len())));
    fold.add(HANDLER_SPAN, scratch);

    // Parent each handler span: by the echoed sequence number where the
    // request carries one, else by time containment (window of one).
    let by_seq = !loader.stack.spec.is_kvs();
    let mut handler_of: Vec<Option<Interval>> = vec![None; roots.len()];
    let root_ivs: Vec<Interval> = if by_seq {
        Vec::new()
    } else {
        roots.iter().map(|s| s.root).collect()
    };
    for (at, seq) in handlers {
        let parent = if by_seq {
            roots.binary_search_by_key(seq, |s| s.seq).ok()
        } else {
            parent_by_containment(&root_ivs, at)
        };
        if let Some(p) = parent {
            handler_of[p] = Some(*at);
        }
    }
    let mut kids = Vec::with_capacity(5);
    for (s, handler) in roots.iter().zip(&handler_of) {
        kids.clear();
        kids.extend(s.children());
        kids.extend(handler);
        scratch.push(clip(self_time(s.root, &kids)));
        sample.offer(s, || *handler);
    }
    scratch.sort_unstable();
    fold.root_self_p50
        .push(f64::from(percentile_sorted(scratch, 0.5)));
    scratch.clear();
}

/// Runs one pass and returns its JSON report.
pub fn run(
    spec: &'static Spec,
    seed: u64,
    plan: &PassPlan,
    out_dir: &Path,
) -> Result<Value, String> {
    let cpu =
        procfs::confine_to_first_cpu().map_err(|e| format!("cannot confine to one CPU: {e}"))?;
    let mut inputs = Inputs::new(spec, seed);
    let stack = Stack::build(spec, &mut inputs).map_err(|e| format!("stack setup failed: {e}"))?;
    let mut loader = Loader::new(&stack, inputs, plan);

    let _ = loader.segment(plan.warm);

    let mut metrics = Metrics::default();
    let mut fold = SpanFold::default();
    let mut stages = StageFold::default();
    let mut sample = TraceSample::new();
    let mut scratch: Vec<u32> = Vec::new();
    let mut handlers: Vec<(Interval, u32)> = Vec::new();
    if plan.traced {
        scratch.reserve_exact(loader.spans.capacity());
        handlers.reserve_exact(loader.spans.capacity());
        stack.handler_spans.enable(loader.spans.capacity());
        // The stage tracer only. The span collector that `enable_tracing`
        // also switches on would prepend a 16-byte context to every
        // request: one more frame per echo, and the offload stage refuses
        // to classify traced requests — the traced pass would no longer
        // run the workload it is meant to explain.
        stack.telemetry.enable_tracing();
        stack.telemetry.spans().disable();
    }
    let before = plan.traced.then(|| Counters::read(&stack));

    let mut segments = Vec::with_capacity(plan.segments);
    let mut measured_rpcs = 0u64;
    for _ in 0..plan.segments {
        if loader.abort.is_some() {
            break;
        }
        let seg = loader.segment(plan.segment);
        let rss_mb = procfs::rss_kb() as f64 / 1024.0;
        measured_rpcs += seg.completed;
        if plan.traced {
            stack.handler_spans.drain_into(&mut handlers);
            fold_traced_segment(&loader, &handlers, &mut fold, &mut sample, &mut scratch);
            stages.add(&stack.telemetry.tracer().traces());
            stack.telemetry.tracer().clear();
        }
        loader.rtts.sort_unstable();
        let us = |p: f64| f64::from(percentile_sorted(&loader.rtts, p)) / 1000.0;
        segments.push(obj([
            ("rpcs", Value::from(seg.completed)),
            ("secs", Value::from(seg.secs)),
            (
                "throughput_rps",
                Value::from(seg.verified as f64 / seg.secs),
            ),
            ("rtt_p50_us", Value::from(us(0.50))),
            ("rtt_p99_us", Value::from(us(0.99))),
            ("rtt_p999_us", Value::from(us(0.999))),
            ("rss_mb", Value::from(rss_mb)),
        ]));
    }

    let mut report = vec![
        ("workload".to_string(), Value::from(spec.name)),
        ("cpu".to_string(), Value::from(cpu)),
    ];
    let mut cpu_ns_per_rpc = 0.0;
    if let Some(before) = before {
        let after = Counters::read(&stack);
        stack.telemetry.disable_tracing();
        counter_metrics(
            &before,
            &after,
            measured_rpcs,
            metrics.source(Source::Counter),
        );
        cpu_ns_per_rpc = ratio(after.proc.since(&before.proc).cpu_ns, measured_rpcs);
        metrics.source(Source::Span);
        for (metric, span) in [
            ("rpc.wire.encode_ns", CHILD_SPANS[0]),
            ("rpc.client.issue_ns", CHILD_SPANS[1]),
            ("rpc.client.wait_ns", CHILD_SPANS[2]),
            ("rpc.wire.decode_ns", CHILD_SPANS[3]),
            ("rpc.client.root_ns", ROOT_SPAN),
            ("rpc.server.handler_ns", HANDLER_SPAN),
        ] {
            metrics.set(metric, fold.p50(span));
        }
        for tail in ["rtt_p99_us", "rtt_p999_us"] {
            let per_segment: Vec<f64> = segments
                .iter()
                .filter_map(|s| s.get(tail)?.as_f64())
                .collect();
            metrics.set(&format!("rpc.client.{tail}"), median(&per_segment));
        }
        stages.emit(&mut metrics);
        replay::live(&stack, metrics.source(Source::Replay));
        let trace_file = format!("trace-{}.json", spec.name);
        let trace = chrome_trace(spec.name, sample.stride, &sample.events());
        std::fs::create_dir_all(out_dir)
            .and_then(|()| std::fs::write(out_dir.join(&trace_file), trace))
            .map_err(|e| format!("cannot write {trace_file}: {e}"))?;
        report.push(("trace_file".to_string(), Value::from(trace_file)));
        report.push(("spans".to_string(), fold.to_json()));
    }
    let (attempted, failed, stale) = (loader.attempted, loader.failed, loader.stale);
    let abort = loader.abort.take();
    drop(loader);
    stack.teardown();
    if plan.traced {
        // The replays time the layers' public functions with this
        // workload's inputs, on the same confined CPU, stack gone.
        replay::offline(spec, seed, &mut metrics);
        replay::budget(spec, cpu_ns_per_rpc, &mut metrics);
        report.push(("per_layer".to_string(), metrics.to_json()));
    }
    report.extend([
        ("attempted".to_string(), Value::from(attempted)),
        ("failed".to_string(), Value::from(failed)),
        ("stale".to_string(), Value::from(stale)),
        ("abort".to_string(), abort.map_or(Value::Null, Value::from)),
        ("segments".to_string(), Value::Arr(segments)),
    ]);
    Ok(Value::Obj(report))
}

/// Fewest constructions one set-up child makes (there is one per window,
/// five per run, so `setup_s` is the median of at least 60).
pub const SETUP_MIN: usize = 12;
/// Most constructions one set-up child makes.
pub const SETUP_MAX: usize = 100;
/// Wall time after which a set-up child stops adding constructions
/// (tearing a socket-backed stack down takes ~12 ms).
const SETUP_BUDGET: Duration = Duration::from_millis(300);

/// Times cold constructions of the workload's stack: at least
/// [`SETUP_MIN`], then as many more as fit in [`SETUP_BUDGET`], up to
/// [`SETUP_MAX`]. A construction takes 0.2-4 ms and two dozen of them gave
/// medians that differed by half between identical runs.
pub fn setup(spec: &'static Spec, seed: u64) -> Result<Value, String> {
    let cpu =
        procfs::confine_to_first_cpu().map_err(|e| format!("cannot confine to one CPU: {e}"))?;
    let began = Instant::now();
    let mut secs = Vec::with_capacity(SETUP_MAX);
    while secs.len() < SETUP_MIN || (secs.len() < SETUP_MAX && began.elapsed() < SETUP_BUDGET) {
        let mut inputs = Inputs::new(spec, seed.wrapping_add(secs.len() as u64));
        let started = Instant::now();
        let stack =
            Stack::build(spec, &mut inputs).map_err(|e| format!("stack setup failed: {e}"))?;
        secs.push(Value::from(started.elapsed().as_secs_f64()));
        stack.teardown();
    }
    Ok(obj([
        ("workload", Value::from(spec.name)),
        ("cpu", Value::from(cpu)),
        ("setup_s", Value::Arr(secs)),
    ]))
}
