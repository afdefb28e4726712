//! `RpcClient`: the caller side of the Dagger API (§4.2).
//!
//! A client owns one connection over one hardware flow. Synchronous calls
//! block on the response with a deadline; asynchronous calls return a
//! [`PendingCall`] immediately and complete through the flow's shared
//! endpoint (poll it directly or via the client's
//! [`CompletionQueue`](crate::CompletionQueue)).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dagger_nic::Nic;
use dagger_telemetry::{current_context, HistogramHandle, OpenSpan, RpcEvent, SpanKind, Telemetry};
use dagger_types::{ConnectionId, FlowId, FnId, Result, RpcHeader, RpcId, RpcKind};

use parking_lot::Mutex;

use crate::completion::CompletionQueue;
use crate::endpoint::FlowEndpoint;
use crate::frag::message_header;
use crate::service::decode_response;

/// Default per-call deadline. Generous because functional mode may run on a
/// single hardware thread.
pub const DEFAULT_CALL_TIMEOUT: Duration = Duration::from_secs(5);

/// Name of the client round-trip latency histogram in the metrics registry.
pub const CLIENT_RTT_HISTOGRAM: &str = "rpc.client.rtt_ns";

/// One RPC client: a connection bound to a flow's ring pair.
#[derive(Debug)]
pub struct RpcClient {
    nic: Arc<Nic>,
    endpoint: Arc<FlowEndpoint>,
    cid: ConnectionId,
    next_rpc: AtomicU32,
    /// Per-call deadline in microseconds (atomic so pool-shared clients can
    /// be tuned).
    timeout_us: std::sync::atomic::AtomicU64,
    telemetry: Arc<Telemetry>,
    rtt: HistogramHandle,
}

impl RpcClient {
    /// Creates a client over an existing connection and endpoint. Most
    /// users go through [`RpcClientPool`](crate::RpcClientPool) instead.
    ///
    /// Stamps and metrics go to the endpoint's telemetry hub, so all stages
    /// share a clock epoch.
    pub fn new(nic: Arc<Nic>, endpoint: Arc<FlowEndpoint>, cid: ConnectionId) -> Self {
        let telemetry = Arc::clone(endpoint.telemetry());
        let rtt = telemetry.registry().histogram(CLIENT_RTT_HISTOGRAM);
        RpcClient {
            nic,
            endpoint,
            cid,
            next_rpc: AtomicU32::new(1),
            timeout_us: std::sync::atomic::AtomicU64::new(DEFAULT_CALL_TIMEOUT.as_micros() as u64),
            telemetry,
            rtt,
        }
    }

    /// The connection this client issues on.
    pub fn connection_id(&self) -> ConnectionId {
        self.cid
    }

    /// The hardware flow backing this client.
    pub fn flow(&self) -> FlowId {
        self.endpoint.flow()
    }

    /// The flow endpoint (shared in the SRQ model).
    pub fn endpoint(&self) -> &Arc<FlowEndpoint> {
        &self.endpoint
    }

    /// Sets the per-call timeout. Each call fixes its deadline when it is
    /// issued (issue time plus the timeout then set), and both its TX-ring
    /// push and its wait end there; a change applies to later calls.
    pub fn set_timeout(&self, timeout: Duration) {
        self.timeout_us
            .store(timeout.as_micros() as u64, Ordering::Relaxed);
    }

    /// The per-call timeout.
    pub fn timeout(&self) -> Duration {
        Duration::from_micros(self.timeout_us.load(Ordering::Relaxed))
    }

    /// Sends the request frames (giving up at `deadline` while the TX ring
    /// stays full) and, when distributed tracing is enabled, opens a client
    /// span parented on the calling thread's current context (so
    /// handler-issued nested calls chain into the caller's trace) and rides
    /// its context on the wire, as the request's prefix.
    fn issue(
        &self,
        fn_id: FnId,
        payload: &[u8],
        deadline: Instant,
    ) -> Result<(RpcId, Option<OpenSpan>)> {
        let rpc_id = RpcId(self.next_rpc.fetch_add(1, Ordering::Relaxed));
        self.telemetry
            .tracer()
            .record(self.cid.raw(), rpc_id.raw(), RpcEvent::ClientSend);
        let mut span = self.telemetry.spans().start(
            || format!("rpc.fn{}", fn_id.raw()),
            SpanKind::Client,
            current_context(),
        );
        if let Some(s) = span.as_mut() {
            s.node = Some(self.nic.addr().raw() as u16);
            s.rpc = Some((self.cid.raw(), rpc_id.raw()));
        }
        let ctx = span.as_ref().map(|s| s.context().encode());
        let header = RpcHeader {
            traced: ctx.is_some(),
            ..message_header(
                self.cid,
                rpc_id,
                fn_id,
                self.endpoint.flow(),
                RpcKind::Request,
            )
        };
        let prefix = ctx.as_ref().map_or(&[][..], |c| &c[..]);
        self.endpoint.send(header, prefix, payload, deadline)?;
        Ok((rpc_id, span))
    }

    /// Synchronous (blocking) call: sends the request and waits for the
    /// response ([`PendingCall::wait`]).
    ///
    /// # Errors
    ///
    /// Returns [`dagger_types::DaggerError::Timeout`] if the response does
    /// not arrive within the client timeout, or the remote handler's error.
    pub fn call_sync(&self, fn_id: FnId, payload: &[u8]) -> Result<Vec<u8>> {
        self.call_async(fn_id, payload)?.wait()
    }

    /// Asynchronous (non-blocking) call: returns a [`PendingCall`] that can
    /// be awaited or polled; the response also surfaces through the
    /// completion queue if not claimed. The call's deadline is fixed here,
    /// from one clock read: the client timeout after issue.
    ///
    /// # Errors
    ///
    /// Returns an error if the request cannot be written to the TX ring
    /// before the deadline.
    pub fn call_async(&self, fn_id: FnId, payload: &[u8]) -> Result<PendingCall> {
        let issued = Instant::now();
        let deadline = issued + self.timeout();
        let (rpc_id, span) = self.issue(fn_id, payload, deadline)?;
        Ok(PendingCall {
            endpoint: Arc::clone(&self.endpoint),
            cid: self.cid,
            rpc_id,
            deadline,
            issued,
            rtt: self.rtt.clone(),
            telemetry: Arc::clone(&self.telemetry),
            span: Mutex::new(span),
        })
    }

    /// A completion queue over this client's connection.
    pub fn completion_queue(&self) -> CompletionQueue {
        CompletionQueue::new(Arc::clone(&self.endpoint), self.cid)
    }

    /// Closes the connection. Called automatically on drop.
    pub fn close(&self) -> Result<()> {
        self.nic.close_connection(self.cid)
    }
}

impl Drop for RpcClient {
    fn drop(&mut self) {
        let _ = self.nic.close_connection(self.cid);
    }
}

/// An in-flight asynchronous call.
#[derive(Debug)]
pub struct PendingCall {
    endpoint: Arc<FlowEndpoint>,
    cid: ConnectionId,
    rpc_id: RpcId,
    /// Fixed at issue: issue time plus the client timeout.
    deadline: Instant,
    issued: Instant,
    rtt: HistogramHandle,
    telemetry: Arc<Telemetry>,
    /// The client span opened at issue time, closed by whichever thread
    /// observes completion.
    span: Mutex<Option<OpenSpan>>,
}

impl PendingCall {
    /// The call's RPC id.
    pub fn rpc_id(&self) -> RpcId {
        self.rpc_id
    }

    /// Non-blocking completion check.
    ///
    /// Returns `Ok(None)` while the response is still in flight.
    ///
    /// # Errors
    ///
    /// Returns the remote handler's error if the call failed.
    pub fn try_complete(&self) -> Result<Option<Vec<u8>>> {
        match self.endpoint.poll_for(self.cid, self.rpc_id) {
            Some(rpc) => {
                self.record_rtt(self.finish_span());
                decode_response(rpc.payload).map(Some)
            }
            None => Ok(None),
        }
    }

    /// Closes the client span (if still open) and returns its identity so
    /// the RTT sample can carry it as an exemplar.
    fn finish_span(&self) -> Option<(u64, u64)> {
        self.span.lock().take().map(|span| {
            let ids = (span.trace_id, span.span_id);
            span.finish(self.telemetry.spans());
            ids
        })
    }

    /// Records the RTT sample; traced calls also stamp the histogram
    /// bucket's exemplar so tail percentiles dereference to a trace.
    fn record_rtt(&self, ids: Option<(u64, u64)>) {
        let v = u64::try_from(self.issued.elapsed().as_nanos()).unwrap_or(u64::MAX);
        match ids {
            Some((trace_id, span_id)) => {
                self.rtt
                    .record_traced(v, trace_id, span_id, self.telemetry.tick_now());
            }
            None => self.rtt.record(v),
        }
    }

    /// Blocks until the response arrives or the call's deadline passes.
    /// The deadline was fixed when the call was issued (the client timeout
    /// after issue), so time spent before `wait` counts against it: a call
    /// waited on past its deadline times out at once unless its response
    /// is already there.
    ///
    /// # Errors
    ///
    /// Returns [`dagger_types::DaggerError::Timeout`] on deadline, or the
    /// remote handler's error.
    pub fn wait(self) -> Result<Vec<u8>> {
        let outcome = self
            .endpoint
            .wait_until(self.cid, self.rpc_id, self.deadline);
        // Closed even on timeout: the span then records the full wait.
        let ids = self.finish_span();
        if outcome.is_err() {
            // Timed out (e.g. the peer is partitioned): give up the response
            // slot so a late arrival cannot park in the endpoint's ready
            // buffer.
            self.endpoint.abandon(self.cid, self.rpc_id);
        }
        let rpc = outcome?;
        self.record_rtt(ids);
        decode_response(rpc.payload)
    }
}

/// A typed wrapper over [`PendingCall`] produced by generated client stubs:
/// decodes the response message on completion.
#[derive(Debug)]
pub struct TypedCall<T> {
    inner: PendingCall,
    _marker: std::marker::PhantomData<T>,
}

impl<T: crate::wire::Wire> TypedCall<T> {
    /// Wraps an untyped pending call.
    pub fn new(inner: PendingCall) -> Self {
        TypedCall {
            inner,
            _marker: std::marker::PhantomData,
        }
    }

    /// The call's RPC id.
    pub fn rpc_id(&self) -> RpcId {
        self.inner.rpc_id()
    }

    /// Non-blocking completion check; decodes the message when complete.
    ///
    /// # Errors
    ///
    /// Returns the remote handler's error or a wire error.
    pub fn try_complete(&self) -> Result<Option<T>> {
        match self.inner.try_complete()? {
            Some(bytes) => Ok(Some(T::from_wire(&bytes)?)),
            None => Ok(None),
        }
    }

    /// Blocks until completion and decodes the message.
    ///
    /// # Errors
    ///
    /// Returns [`dagger_types::DaggerError::Timeout`] on deadline, the
    /// remote handler's error, or a wire error.
    pub fn wait(self) -> Result<T> {
        let bytes = self.inner.wait()?;
        T::from_wire(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_counter::count_allocs;
    use crate::{RpcClientPool, RpcService, RpcThreadedServer, ServiceDescriptor};
    use dagger_nic::MemFabric;
    use dagger_types::{DaggerError, HardConfig, NodeAddr};

    /// With tracing off a call pays for nothing but its frames, which are
    /// built in place in the endpoint's scratch vector: no span name is
    /// formatted, no context encoded, nothing allocated.
    #[test]
    fn untraced_issue_allocates_nothing() {
        let fabric = MemFabric::new();
        let nic = Nic::start(&fabric, NodeAddr(1), HardConfig::default()).unwrap();
        let endpoint = Arc::new(FlowEndpoint::new(
            nic.take_flow().unwrap(),
            Arc::clone(nic.telemetry()),
        ));
        // No such connection is open: the engine drops the frames, which is
        // all the same to `issue`.
        let client = RpcClient::new(Arc::clone(&nic), endpoint, ConnectionId(1));
        let deadline = Instant::now() + Duration::from_secs(5);
        client.issue(FnId(7), b"warm", deadline).unwrap();
        let (allocs, issued) = count_allocs(|| client.issue(FnId(7), &[0xA5; 32], deadline));
        assert!(
            issued.unwrap().1.is_none(),
            "a span opened with tracing off"
        );
        assert_eq!(allocs, 0, "an untraced issue allocates nothing");

        nic.telemetry().enable_tracing();
        let (allocs, issued) = count_allocs(|| client.issue(FnId(7), &[0xA5; 32], deadline));
        let span = issued.unwrap().1.expect("tracing is on");
        assert_eq!(span.name, "rpc.fn7");
        assert!(allocs > 0, "a traced issue builds its span name");
        nic.shutdown();
    }

    /// Echoes its request once the test releases it (or after 5 s, so a
    /// failing test cannot hang the server's shutdown); function 2 echoes
    /// at once.
    struct GatedEcho(Mutex<std::sync::mpsc::Receiver<()>>);

    impl RpcService for GatedEcho {
        fn descriptor(&self) -> ServiceDescriptor {
            ServiceDescriptor::new("gated_echo", vec![FnId(1), FnId(2)])
        }

        fn dispatch(&self, fn_id: FnId, payload: &[u8]) -> Result<Vec<u8>> {
            if fn_id == FnId(1) {
                let _ = self.0.lock().recv_timeout(Duration::from_secs(5));
            }
            Ok(payload.to_vec())
        }
    }

    /// A server NIC at address 1 running [`GatedEcho`] with `threading`, a
    /// client NIC at address 2 with `clients` clients on it, and the gate.
    struct Rig {
        server: RpcThreadedServer,
        pool: RpcClientPool,
        release: std::sync::mpsc::Sender<()>,
        nics: [Arc<Nic>; 2],
    }

    impl Rig {
        fn new(threading: crate::ThreadingModel, clients: usize) -> Rig {
            let fabric = MemFabric::new();
            let server_nic = Nic::start(&fabric, NodeAddr(1), HardConfig::default()).unwrap();
            let client_nic = Nic::start(&fabric, NodeAddr(2), HardConfig::default()).unwrap();
            let (release, gate) = std::sync::mpsc::channel();
            let mut server =
                RpcThreadedServer::with_threading(Arc::clone(&server_nic), 1, threading);
            server
                .register_service(Arc::new(GatedEcho(Mutex::new(gate))))
                .unwrap();
            server.start().unwrap();
            let pool =
                RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), clients).unwrap();
            Rig {
                server,
                pool,
                release,
                nics: [server_nic, client_nic],
            }
        }

        fn client(&self, i: usize) -> Arc<RpcClient> {
            self.pool.client(i).unwrap()
        }

        fn stop(mut self) {
            self.server.stop();
            drop(self.pool);
            for nic in &self.nics {
                nic.shutdown();
            }
        }
    }

    /// A warm untraced call allocates once on the calling thread: the reply
    /// it returns. Its frames are built in place, the reply comes back
    /// without a trip through the ready buffer, and the status byte is
    /// stripped in place.
    #[test]
    fn warm_untraced_call_sync_allocates_only_its_reply() {
        let rig = Rig::new(crate::ThreadingModel::Dispatch, 1);
        let client = rig.client(0);
        for _ in 0..64 {
            assert_eq!(client.call_sync(FnId(2), &[0xA5; 32]).unwrap(), [0xA5; 32]);
        }
        let (allocs, reply) = count_allocs(|| client.call_sync(FnId(2), &[0x5A; 32]));
        assert_eq!(reply.unwrap(), [0x5A; 32]);
        assert_eq!(
            allocs, 1,
            "a warm call allocates its reply and nothing else"
        );
        rig.stop();
    }

    /// A wait whose queue keeps moving other flows' frames still reads its
    /// deadline: a call held by a gated handler times out on time while a
    /// second client on the same single-queue NIC makes calls back to back
    /// (served by the second worker). `HostWait`'s own test pins the
    /// periodic look this relies on when every step moves frames.
    #[test]
    fn a_busy_queue_cannot_starve_a_deadline() {
        let rig = Rig::new(crate::ThreadingModel::Worker { workers: 2 }, 2);
        let (held, busy) = (rig.client(0), rig.client(1));
        assert_eq!(
            rig.nics[1].config().num_queues,
            1,
            "both clients on one queue"
        );
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let busy = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut calls = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    busy.call_sync(FnId(2), b"busy").unwrap();
                    calls += 1;
                }
                calls
            })
        };
        held.set_timeout(Duration::from_millis(20));
        let started = Instant::now();
        let outcome = held.call_sync(FnId(1), b"held");
        let took = started.elapsed();
        stop.store(true, Ordering::Relaxed);
        let calls = busy.join().unwrap();
        rig.release.send(()).unwrap();
        assert_eq!(outcome.unwrap_err(), DaggerError::Timeout);
        assert!(took < Duration::from_secs(1), "timed out after {took:?}");
        assert!(calls > 0, "the queue was never busy");
        rig.stop();
    }

    /// A call's deadline is fixed when it is issued: time spent before
    /// `wait` counts against it, and a wait that starts past it times out
    /// at once instead of waiting out another timeout. (The bound leaves
    /// room for a descheduled test thread; a deadline taken when the wait
    /// starts would cost the whole 200 ms.)
    #[test]
    fn the_deadline_is_fixed_at_issue() {
        let rig = Rig::new(crate::ThreadingModel::Dispatch, 1);
        let client = rig.client(0);
        client.set_timeout(Duration::from_millis(200));
        let pending = client.call_async(FnId(1), b"held").unwrap();
        std::thread::sleep(Duration::from_millis(250));
        let started = Instant::now();
        let outcome = pending.wait();
        let took = started.elapsed();
        rig.release.send(()).unwrap();
        assert_eq!(outcome.unwrap_err(), DaggerError::Timeout);
        assert!(
            took < Duration::from_millis(100),
            "waited {took:?} past the deadline"
        );
        rig.stop();
    }

    /// A sync call that times out gives up its response slot: the late
    /// response is counted and dropped on arrival, never parked in the
    /// endpoint's ready buffer.
    #[test]
    fn timed_out_sync_call_drops_its_late_response() {
        let rig = Rig::new(crate::ThreadingModel::Dispatch, 1);
        let client = rig.client(0);
        client.set_timeout(Duration::from_millis(20));

        let err = client.call_sync(FnId(1), b"late").unwrap_err();
        assert_eq!(err, DaggerError::Timeout);
        // Only now may the handler answer.
        rig.release.send(()).unwrap();
        let endpoint = client.endpoint();
        let deadline = Instant::now() + Duration::from_secs(5);
        while endpoint.late_drops() == 0 && Instant::now() < deadline {
            assert!(endpoint
                .poll_for(client.connection_id(), RpcId(1))
                .is_none());
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(endpoint.late_drops(), 1);
        assert_eq!(endpoint.ready_len(), 0);
        rig.stop();
    }
}
