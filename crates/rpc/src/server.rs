//! `RpcThreadedServer`: server event loops over the NIC's RX rings.
//!
//! Each server thread ([`RpcServerThread`]) owns one hardware flow and
//! drains its RX ring in a dispatch loop. Two threading models (§4.2,
//! §5.7):
//!
//! * [`ThreadingModel::Dispatch`] — handlers run inline in the dispatch
//!   thread, FaRM-style, "to avoid inter-thread communication overheads";
//!   best latency, but a long-running handler blocks the flow's ring.
//! * [`ThreadingModel::Worker`] — dispatch threads hand requests to a
//!   worker pool and return to the ring immediately; responses are written
//!   back through the flow's (now shared, hence locked) TX ring. Higher
//!   base latency, much higher throughput for long RPCs — the mechanism
//!   behind Table 4's 17× gap.
//!
//! A dispatch thread that finds its RX ring empty drives the NIC queue that
//! owns its flow (`dagger_nic::HostWait`) before it backs off. Handlers
//! never run with the engine held, so a nested call on the same NIC can
//! step it; a handler that runs long lets the queue's lease lapse and the
//! NIC's own thread takes over.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use dagger_nic::{EngineHandle, HostFlow, HostWait, Nic, RingProducer};
use dagger_telemetry::{
    ContextScope, Counter, HistogramHandle, RpcEvent, SpanKind, Telemetry, TraceContext,
};
use dagger_types::{ConnectionId, DaggerError, FlowId, FnId, NodeAddr, Result, RpcId, RpcKind};

use crate::frag::{fragment, Reassembler};
use crate::service::{encode_response, RpcService};

/// Name of the server handler-latency histogram in the metrics registry.
pub const SERVER_HANDLER_HISTOGRAM: &str = "rpc.server.handler_ns";

/// How server threads execute handlers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadingModel {
    /// Handlers run inline in the dispatch thread (lowest latency).
    Dispatch,
    /// Handlers run in a pool of worker threads (throughput for long RPCs).
    Worker {
        /// Number of worker threads shared by all dispatch threads.
        workers: usize,
    },
}

struct WorkItem {
    cid: ConnectionId,
    rpc_id: RpcId,
    fn_id: FnId,
    src_flow: FlowId,
    payload: Vec<u8>,
    /// Trace context stripped from the request's wire prelude, when the
    /// caller traced this RPC.
    ctx: Option<TraceContext>,
    tx: Arc<FlowTx>,
}

/// The response side of one dispatch flow, shared with the worker pool:
/// the (hence locked) TX ring and the engine queue that drains it.
struct FlowTx {
    ring: Mutex<RingProducer>,
    engine: EngineHandle,
}

/// Everything a handler invocation needs beyond the request itself, shared
/// by all dispatch and worker threads of one server.
struct DispatchCtx {
    services: HashMap<u16, Arc<dyn RpcService>>,
    stop: Arc<AtomicBool>,
    handled: Arc<AtomicU64>,
    errors: Arc<AtomicU64>,
    telemetry: Arc<Telemetry>,
    /// NIC address of the hosting node, stamped on server spans.
    node: NodeAddr,
    handler_ns: HistogramHandle,
    requests: Counter,
    handler_errors: Counter,
}

impl DispatchCtx {
    fn new(
        services: HashMap<u16, Arc<dyn RpcService>>,
        stop: Arc<AtomicBool>,
        handled: Arc<AtomicU64>,
        errors: Arc<AtomicU64>,
        telemetry: Arc<Telemetry>,
        node: NodeAddr,
    ) -> Self {
        let registry = telemetry.registry();
        let handler_ns = registry.histogram(SERVER_HANDLER_HISTOGRAM);
        let requests = registry.counter("rpc.server.requests");
        let handler_errors = registry.counter("rpc.server.handler_errors");
        DispatchCtx {
            services,
            stop,
            handled,
            errors,
            telemetry,
            node,
            handler_ns,
            requests,
            handler_errors,
        }
    }
}

/// Aggregate server statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests fully processed (response written).
    pub handled: u64,
    /// Requests that failed in the handler (error response written).
    pub handler_errors: u64,
}

/// A server hosting one or more services over a set of dispatch threads.
pub struct RpcThreadedServer {
    nic: Arc<Nic>,
    num_threads: usize,
    threading: ThreadingModel,
    services: HashMap<u16, Arc<dyn RpcService>>,
    stop: Arc<AtomicBool>,
    handled: Arc<AtomicU64>,
    errors: Arc<AtomicU64>,
    threads: Vec<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
    prepared: Vec<HostFlow>,
    running: bool,
}

impl std::fmt::Debug for RpcThreadedServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcThreadedServer")
            .field("addr", &self.nic.addr())
            .field("threads", &self.num_threads)
            .field("threading", &self.threading)
            .field("functions", &self.services.len())
            .field("running", &self.running)
            .finish()
    }
}

impl RpcThreadedServer {
    /// Creates a server with `num_threads` dispatch threads and the
    /// dispatch-inline threading model.
    pub fn new(nic: Arc<Nic>, num_threads: usize) -> Self {
        Self::with_threading(nic, num_threads, ThreadingModel::Dispatch)
    }

    /// Creates a server with an explicit threading model.
    pub fn with_threading(nic: Arc<Nic>, num_threads: usize, threading: ThreadingModel) -> Self {
        RpcThreadedServer {
            nic,
            num_threads,
            threading,
            services: HashMap::new(),
            stop: Arc::new(AtomicBool::new(false)),
            handled: Arc::new(AtomicU64::new(0)),
            errors: Arc::new(AtomicU64::new(0)),
            threads: Vec::new(),
            worker_threads: Vec::new(),
            prepared: Vec::new(),
            running: false,
        }
    }

    /// Claims the server's dispatch flows now, before any client pools on
    /// the same NIC claim theirs. Servers must own the NIC's *first* flows
    /// so the RX load balancer (which steers requests across
    /// `active_flows = num_threads`) targets dispatch threads, not client
    /// completion queues. [`RpcThreadedServer::start`] calls this
    /// implicitly if it was not called.
    ///
    /// # Errors
    ///
    /// Returns an error if the NIC has too few unclaimed flows.
    pub fn prepare(&mut self) -> Result<()> {
        while self.prepared.len() < self.num_threads {
            self.prepared.push(self.nic.take_flow()?);
        }
        Ok(())
    }

    /// Registers a service's functions for dispatch.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Config`] if any function id is already
    /// registered or the server is running.
    pub fn register_service(&mut self, service: Arc<dyn RpcService>) -> Result<()> {
        if self.running {
            return Err(DaggerError::Config(
                "cannot register services while running".to_string(),
            ));
        }
        let descriptor = service.descriptor();
        for id in descriptor.fn_ids() {
            if self.services.contains_key(&id.raw()) {
                return Err(DaggerError::Config(format!(
                    "function id {id} registered twice"
                )));
            }
        }
        for id in descriptor.fn_ids() {
            self.services.insert(id.raw(), Arc::clone(&service));
        }
        Ok(())
    }

    /// Claims flows, sets the NIC's active-flow register, and starts the
    /// dispatch (and worker) threads.
    ///
    /// # Errors
    ///
    /// Returns an error if already running, no services are registered, or
    /// the NIC has too few unclaimed flows.
    pub fn start(&mut self) -> Result<()> {
        if self.running {
            return Err(DaggerError::Config("server already running".to_string()));
        }
        if self.services.is_empty() {
            return Err(DaggerError::Config("no services registered".to_string()));
        }
        let (work_tx, work_rx) = unbounded::<WorkItem>();
        let ctx = Arc::new(DispatchCtx::new(
            self.services.clone(),
            Arc::clone(&self.stop),
            Arc::clone(&self.handled),
            Arc::clone(&self.errors),
            Arc::clone(self.nic.telemetry()),
            self.nic.addr(),
        ));
        if let ThreadingModel::Worker { workers } = self.threading {
            if workers == 0 {
                return Err(DaggerError::Config(
                    "worker model needs at least one worker".to_string(),
                ));
            }
            for w in 0..workers {
                let rx: Receiver<WorkItem> = work_rx.clone();
                let ctx = Arc::clone(&ctx);
                let handle = std::thread::Builder::new()
                    .name(format!("dagger-worker-{w}"))
                    .spawn(move || {
                        worker_loop(&rx, &ctx);
                    })
                    .map_err(|e| DaggerError::Config(format!("spawn failed: {e}")))?;
                self.worker_threads.push(handle);
            }
        }
        self.prepare()?;
        for (t, host_flow) in self.prepared.drain(..).enumerate() {
            let ctx = Arc::clone(&ctx);
            let threading = self.threading;
            let work_tx: Sender<WorkItem> = work_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("dagger-dispatch-{t}"))
                .spawn(move || {
                    let thread = RpcServerThread {
                        flow: host_flow.flow,
                        rx: host_flow.rx,
                        tx: Arc::new(FlowTx {
                            ring: Mutex::new(host_flow.tx),
                            engine: host_flow.engine,
                        }),
                        reassembler: Reassembler::new(),
                        threading,
                        work_tx,
                        ctx,
                    };
                    thread.run();
                })
                .map_err(|e| DaggerError::Config(format!("spawn failed: {e}")))?;
            self.threads.push(handle);
        }
        // Steer incoming requests only to the claimed dispatch flows.
        self.nic
            .softregs()
            .set_active_flows(self.num_threads as u16);
        self.running = true;
        Ok(())
    }

    /// Stops all threads (idempotent).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        self.running = false;
    }

    /// Aggregate request statistics.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            handled: self.handled.load(Ordering::Relaxed),
            handler_errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

impl Drop for RpcThreadedServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One dispatch thread: the server event loop over one flow (§4.2).
pub struct RpcServerThread {
    flow: FlowId,
    rx: dagger_nic::RingConsumer,
    tx: Arc<FlowTx>,
    reassembler: Reassembler,
    threading: ThreadingModel,
    work_tx: Sender<WorkItem>,
    ctx: Arc<DispatchCtx>,
}

impl RpcServerThread {
    fn run(mut self) {
        let mut wait = HostWait::new(&self.tx.engine);
        loop {
            if self.ctx.stop.load(Ordering::Acquire) {
                return;
            }
            let mut progress = false;
            // Requests already in the ring are handled back to back, without
            // stepping in between: their responses leave as one batch.
            while let Some(line) = self.rx.try_pop() {
                progress = true;
                match self.reassembler.push(line) {
                    Ok(Some(mut rpc)) if rpc.header.kind == RpcKind::Request => {
                        let ctx = rpc.take_trace_context();
                        self.handle(
                            rpc.header.connection_id,
                            rpc.header.rpc_id,
                            rpc.header.fn_id,
                            rpc.header.src_flow,
                            rpc.payload,
                            ctx,
                        );
                    }
                    // Responses landing on a server flow (symmetric stacks
                    // route them to client endpoints instead) and malformed
                    // frames are ignored here.
                    Ok(_) | Err(_) => {}
                }
            }
            if progress {
                wait.reset();
            } else {
                wait.idle();
            }
        }
    }

    fn handle(
        &self,
        cid: ConnectionId,
        rpc_id: RpcId,
        fn_id: FnId,
        src_flow: FlowId,
        payload: Vec<u8>,
        ctx: Option<TraceContext>,
    ) {
        let item = WorkItem {
            cid,
            rpc_id,
            fn_id,
            src_flow,
            payload,
            ctx,
            tx: Arc::clone(&self.tx),
        };
        match self.threading {
            ThreadingModel::Dispatch => dispatch_one(&self.ctx, &item),
            ThreadingModel::Worker { .. } => {
                let _ = self.work_tx.send(item);
            }
        }
    }

    /// The flow this thread serves.
    pub fn flow(&self) -> FlowId {
        self.flow
    }
}

fn worker_loop(rx: &Receiver<WorkItem>, ctx: &DispatchCtx) {
    loop {
        match rx.recv_timeout(Duration::from_millis(10)) {
            Ok(item) => dispatch_one(ctx, &item),
            Err(_) => {
                if ctx.stop.load(Ordering::Acquire) {
                    return;
                }
            }
        }
    }
}

fn dispatch_one(ctx: &DispatchCtx, item: &WorkItem) {
    let tracer = ctx.telemetry.tracer();
    tracer.record(item.cid.raw(), item.rpc_id.raw(), RpcEvent::ServerDispatch);
    ctx.requests.inc();
    let service = ctx.services.get(&item.fn_id.raw());
    // A server span continues the caller's trace when the request carried a
    // wire context. Untraced requests stay span-free: no names, no clock
    // reads, nothing.
    let mut span = item.ctx.and_then(|parent| {
        let name = || {
            service.map_or_else(
                || format!("fn{}", item.fn_id.raw()),
                |s| s.descriptor().name().to_string(),
            )
        };
        ctx.telemetry
            .spans()
            .start(name, SpanKind::Server, Some(parent))
    });
    if let Some(s) = span.as_mut() {
        s.node = Some(ctx.node.raw() as u16);
        s.rpc = Some((item.cid.raw(), item.rpc_id.raw()));
    }
    let started = Instant::now();
    let outcome = {
        // While the handler runs, nested calls it issues inherit this
        // server span as their parent via the thread-local context stack.
        let _scope = span.as_ref().map(|s| ContextScope::enter(s.context()));
        match service {
            Some(service) => service.dispatch(item.fn_id, &item.payload),
            None => Err(DaggerError::UnknownFunction(item.fn_id.raw())),
        }
    };
    let handler_elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    match span.as_ref() {
        // Traced dispatch: stamp the handler-latency bucket's exemplar with
        // this server span so tail percentiles resolve to a trace.
        Some(s) => ctx.handler_ns.record_traced(
            handler_elapsed,
            s.trace_id,
            s.span_id,
            ctx.telemetry.tick_now(),
        ),
        None => ctx.handler_ns.record(handler_elapsed),
    }
    if outcome.is_err() {
        ctx.errors.fetch_add(1, Ordering::Relaxed);
        ctx.handler_errors.inc();
    }
    let response = encode_response(outcome);
    let Ok(frames) = fragment(
        item.cid,
        item.rpc_id,
        item.fn_id,
        item.src_flow,
        RpcKind::Response,
        &response,
    ) else {
        // Response too large for the fragmentation layer; the client will
        // time out (no truncated garbage on the wire).
        if let Some(span) = span {
            span.finish(ctx.telemetry.spans());
        }
        return;
    };
    let mut producer = item.tx.ring.lock();
    let mut wait = HostWait::new(&item.tx.engine);
    for frame in frames {
        while producer.try_push(frame).is_err() {
            if ctx.stop.load(Ordering::Acquire) {
                return;
            }
            // Stepping the flow's engine is what drains its TX ring.
            wait.idle();
        }
    }
    drop(producer);
    tracer.record(item.cid.raw(), item.rpc_id.raw(), RpcEvent::HandlerDone);
    if let Some(span) = span {
        // Closed after the response frames are on the TX ring, so the
        // span covers serialization and ring write, not just the handler.
        span.finish(ctx.telemetry.spans());
    }
    ctx.handled.fetch_add(1, Ordering::Relaxed);
}
